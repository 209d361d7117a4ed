//! The event-queue hold-model churn that the frozen benchmark
//! (`examples/benchmark/`) times as `simnet.event.hold_ns` and uses as
//! its warm-up. Everything else that measures wall clock lives there;
//! see docs/PERFORMANCE.md, "Measuring".

use polaris_simnet::event::EventQueue;
use polaris_simnet::rng::SplitMix64;
use polaris_simnet::time::SimTime;

/// Pseudo-random reschedule delay shaped like the simulator's: link
/// events reschedule by one of a handful of discrete latencies
/// (serialization + propagation for a link generation), and one
/// transaction in eight is a same-instant follow-up (delay 0), the
/// handler-schedules-for-now pattern the FIFO tie-break exists for.
pub fn churn_delay(rng: &mut SplitMix64) -> u64 {
    const LINK_DELAYS: [u64; 4] = [10_000, 25_000, 50_000, 100_000];
    let r = rng.next_u64();
    if r & 0x7 == 0 {
        0
    } else {
        LINK_DELAYS[(r % 4) as usize]
    }
}

/// Hold-model churn on the calendar queue: precharge `hold` events, then
/// `transactions` pop+push pairs. Returns a checksum so the work cannot
/// be optimised away.
pub fn churn_calendar(hold: usize, transactions: usize) -> u64 {
    let mut q: EventQueue<u32> = EventQueue::with_capacity(hold);
    let mut rng = SplitMix64::new(0x5eed);
    // Precharge from the same delay distribution: ranks enter the
    // steady state in a handful of synchronized phases, the way a
    // symmetric collective round leaves them.
    for i in 0..hold {
        let t = churn_delay(&mut rng);
        q.push(SimTime(t), i as u32);
    }
    let mut acc = 0u64;
    for _ in 0..transactions {
        let (t, ev) = q.pop().expect("queue stays charged");
        acc = acc.wrapping_add(t.0).wrapping_add(ev as u64);
        q.push(SimTime(t.0 + churn_delay(&mut rng)), ev);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's `simnet.event.*` probes and its warm-up rely on
    /// both: the same work every run, delays from the link-latency set.
    #[test]
    fn churn_is_deterministic_and_delays_are_link_latencies() {
        assert_eq!(churn_calendar(256, 2048), churn_calendar(256, 2048));
        let mut rng = SplitMix64::new(1);
        let delays = [0, 10_000, 25_000, 50_000, 100_000];
        assert!((0..10_000).all(|_| delays.contains(&churn_delay(&mut rng))));
    }
}
