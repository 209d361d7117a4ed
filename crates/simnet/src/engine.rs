//! The discrete-event simulation engine.
//!
//! The engine is deliberately minimal: a clock, an event queue, and a
//! dispatch loop. Model state lives in a user-supplied [`World`]; the
//! engine hands each event to `World::handle` together with a
//! [`Scheduler`] through which the handler may schedule further events.
//! Keeping the world outside the engine sidesteps borrow conflicts between
//! "the thing being simulated" and "the queue of things to do to it".
//!
//! The dispatch loop inherits the arena layout of [`EventQueue`] for
//! free: each event is stored once, in a slab slot, and the calendar
//! links, sorts and sifts slot indices and small `Copy` handles (time,
//! key, slot) instead of dragging whole events through the cache (see
//! `crate::event`).

use crate::event::{EventQueue, QueueStats};
use crate::time::{SimDuration, SimTime};

/// Scheduling interface handed to event handlers.
pub struct Scheduler<E> {
    now: SimTime,
    queue: EventQueue<E>,
}

impl<E> Scheduler<E> {
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
        }
    }

    /// Pre-size the event queue for an expected live population of
    /// `capacity` concurrent events (e.g. one per rank, or one per link).
    pub fn with_capacity(capacity: usize) -> Self {
        Scheduler {
            now: SimTime::ZERO,
            queue: EventQueue::with_capacity(capacity),
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule an event at an absolute time. Scheduling in the past is a
    /// model bug; the event is clamped to `now` and would fire next, which
    /// keeps the clock monotone, but debug builds assert.
    pub fn at(&mut self, time: SimTime, event: E) {
        debug_assert!(time >= self.now, "event scheduled in the past");
        self.queue.push(time.max(self.now), event);
    }

    /// Schedule an event `delay` after the current time.
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedule an event to run at the current time, after all events
    /// already queued for this instant.
    pub fn immediately(&mut self, event: E) {
        self.queue.push(self.now, event);
    }

    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Model state driven by the engine.
pub trait World {
    type Event;
    /// Handle one event at the scheduler's current time.
    fn handle(&mut self, sched: &mut Scheduler<Self::Event>, event: Self::Event);
}

/// Outcome of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Events dispatched during the run.
    pub events_dispatched: u64,
    /// Simulated time when the run stopped.
    pub end_time: SimTime,
    /// True if the run stopped because the horizon was reached while
    /// events were still pending.
    pub horizon_reached: bool,
    /// Where the scheduler's pushes went over its life, including those
    /// made before the run.
    pub queue: QueueStats,
}

/// Drive `world` until the queue drains or `horizon` (if given) is passed.
///
/// Events scheduled exactly at the horizon still run; the first event
/// strictly beyond it stops the run and stays queued.
pub fn run<W: World>(
    world: &mut W,
    sched: &mut Scheduler<W::Event>,
    horizon: Option<SimTime>,
) -> RunStats {
    let mut dispatched = 0u64;
    while let Some(next_time) = sched.queue.peek_time() {
        if let Some(h) = horizon {
            if next_time > h {
                sched.now = h;
                return RunStats {
                    events_dispatched: dispatched,
                    end_time: h,
                    horizon_reached: true,
                    queue: sched.queue.stats(),
                };
            }
        }
        // Batch-drain every event at this instant: same-time events
        // can't cross the horizon, so the check above runs once per
        // distinct timestamp rather than once per event. Follow-ups a
        // handler schedules for "now" join the same drain.
        while let Some((time, event)) = sched.queue.pop_at(next_time) {
            debug_assert!(time >= sched.now, "clock must be monotone");
            sched.now = time;
            world.handle(sched, event);
            dispatched += 1;
        }
    }
    RunStats {
        events_dispatched: dispatched,
        end_time: sched.now,
        horizon_reached: false,
        queue: sched.queue.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world that counts down: each event schedules the next until zero.
    struct Countdown {
        fired: Vec<(u64, u32)>,
    }

    impl World for Countdown {
        type Event = u32;
        fn handle(&mut self, sched: &mut Scheduler<u32>, event: u32) {
            self.fired.push((sched.now().as_ps(), event));
            if event > 0 {
                sched.after(SimDuration::from_ps(10), event - 1);
            }
        }
    }

    #[test]
    fn chain_of_events_advances_clock() {
        let mut world = Countdown { fired: vec![] };
        let mut sched = Scheduler::new();
        sched.at(SimTime(5), 3u32);
        let stats = run(&mut world, &mut sched, None);
        assert_eq!(world.fired, vec![(5, 3), (15, 2), (25, 1), (35, 0)]);
        assert_eq!(stats.events_dispatched, 4);
        assert_eq!(stats.end_time, SimTime(35));
        assert!(!stats.horizon_reached);
    }

    #[test]
    fn horizon_stops_run_and_preserves_queue() {
        let mut world = Countdown { fired: vec![] };
        let mut sched = Scheduler::new();
        sched.at(SimTime(0), 10u32);
        let stats = run(&mut world, &mut sched, Some(SimTime(25)));
        assert!(stats.horizon_reached);
        assert_eq!(stats.end_time, SimTime(25));
        // Events at t=0,10,20 ran; t=30 remains queued.
        assert_eq!(world.fired.len(), 3);
        assert_eq!(sched.pending(), 1);
        // Resuming with a later horizon continues where we left off.
        let stats2 = run(&mut world, &mut sched, None);
        assert!(!stats2.horizon_reached);
        assert!(world.fired.len() > 3);
    }

    #[test]
    fn event_at_horizon_still_fires() {
        let mut world = Countdown { fired: vec![] };
        let mut sched = Scheduler::new();
        sched.at(SimTime(25), 0u32);
        let stats = run(&mut world, &mut sched, Some(SimTime(25)));
        assert_eq!(world.fired, vec![(25, 0)]);
        assert!(!stats.horizon_reached);
    }

    #[test]
    fn immediately_runs_after_current_instant_events() {
        struct W {
            order: Vec<&'static str>,
        }
        impl World for W {
            type Event = &'static str;
            fn handle(&mut self, sched: &mut Scheduler<&'static str>, ev: &'static str) {
                self.order.push(ev);
                if ev == "first" {
                    sched.immediately("follow-up");
                }
            }
        }
        let mut w = W { order: vec![] };
        let mut sched = Scheduler::new();
        sched.at(SimTime(0), "first");
        sched.at(SimTime(0), "second");
        run(&mut w, &mut sched, None);
        assert_eq!(w.order, vec!["first", "second", "follow-up"]);
    }

    #[test]
    fn empty_queue_returns_immediately() {
        let mut world = Countdown { fired: vec![] };
        let mut sched = Scheduler::new();
        let stats = run(&mut world, &mut sched, None);
        assert_eq!(stats.events_dispatched, 0);
        assert_eq!(stats.end_time, SimTime::ZERO);
    }
}
