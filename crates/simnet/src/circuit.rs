//! Optical circuit switching model.
//!
//! The keynote names "optical switching" among the networking advances
//! that will shape future clusters. An optical circuit switch carries data
//! at very high bandwidth with negligible per-hop processing, but a
//! circuit between two endpoints must first be *established* — a MEMS
//! mirror settle or wavelength assignment taking tens of microseconds —
//! and the switch holds only a bounded number of simultaneous circuits.
//!
//! [`CircuitScheduler`] models this: callers reserve a circuit (paying
//! the reconfiguration latency), run transfers on it at full link
//! bandwidth, and release it; the switch holds at most `max_circuits`,
//! and an append-only ledger records every state change for the
//! sentinel's conservation audit. Experiment F7 times a cold circuit
//! (reserve, then transfer) and a warm one (a second transfer on the
//! same reservation) against packet switching, and
//! [`CircuitSchedulerConfig::crossover_bytes`] finds the message size
//! where the reconfiguration is amortized; `collectives::hier` reserves
//! circuits for its inter-group stage.

use crate::link::{Generation, LinkModel};
use crate::time::{SimDuration, SimTime};

/// Configuration of the optical circuit switch.
#[derive(Debug, Clone, Copy)]
pub struct CircuitSchedulerConfig {
    /// Reconfiguration latency charged on every reservation before the
    /// circuit becomes usable (MEMS mirror settle / lambda assignment).
    pub reconfig: SimDuration,
    /// Maximum simultaneously reserved circuits.
    pub max_circuits: usize,
    /// Data-plane model once the circuit is up.
    pub link: LinkModel,
}

impl Default for CircuitSchedulerConfig {
    fn default() -> Self {
        CircuitSchedulerConfig {
            reconfig: SimDuration::from_us(30),
            max_circuits: 64,
            link: Generation::Optical.link_model(),
        }
    }
}

impl CircuitSchedulerConfig {
    /// Message size at which a cold circuit (reconfiguration, then the
    /// transfer) matches a packet network's delivery time — the
    /// amortization crossover — by bisection over message size against
    /// the given packet-switched model.
    pub fn crossover_bytes(&self, packet_model: &LinkModel, hops: u32) -> u64 {
        let cold = |bytes: u64| (self.reconfig + self.link.message_time(bytes, 1)).as_secs();
        let pkt = |bytes: u64| packet_model.message_time(bytes, hops).as_secs();
        // If the circuit never wins below 1 GiB, report the cap.
        let cap = 1u64 << 30;
        if cold(cap) >= pkt(cap) {
            return cap;
        }
        let (mut lo, mut hi) = (1u64, cap);
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if cold(mid) < pkt(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }
}

/// A granted circuit reservation. The token is unique per scheduler
/// lifetime; a released or preempted token can never be used again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    pub token: u64,
    pub src: u32,
    pub dst: u32,
    /// First instant data may flow (reserve time + reconfiguration).
    pub ready_at: SimTime,
}

/// Why a circuit operation was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitError {
    /// The token is not currently reserved (never granted, already
    /// released, or preempted).
    Inactive,
}

/// One entry in the scheduler's append-only event ledger. The sentinel
/// circuit-conservation audit replays this log to prove: reservations
/// never exceed capacity, every reserve has exactly one matching
/// release/preempt, no transfer runs outside its reservation window, and
/// reconfiguration latency is actually charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitEvent {
    Reserve {
        token: u64,
        src: u32,
        dst: u32,
        at: SimTime,
        ready_at: SimTime,
    },
    Transfer {
        token: u64,
        at: SimTime,
        start: SimTime,
        arrival: SimTime,
        bytes: u64,
    },
    Release {
        token: u64,
        at: SimTime,
    },
    /// `token` was forcibly torn down at `at` to make room for a new
    /// reservation (only idle circuits are preemptible).
    Preempt {
        token: u64,
        at: SimTime,
    },
}

#[derive(Debug, Clone, Copy)]
struct Held {
    token: u64,
    reserved_at: SimTime,
    ready_at: SimTime,
    busy_until: SimTime,
}

/// First-class scheduled circuit resource: explicit reserve / transfer /
/// release with reconfiguration latency and bounded capacity, plus an
/// event ledger for conservation auditing.
pub struct CircuitScheduler {
    cfg: CircuitSchedulerConfig,
    held: Vec<Held>,
    next_token: u64,
    log: Vec<CircuitEvent>,
    reserves: u64,
    releases: u64,
    transfers: u64,
    preemptions: u64,
}

impl CircuitScheduler {
    pub fn new(cfg: CircuitSchedulerConfig) -> Self {
        CircuitScheduler {
            cfg,
            held: Vec::new(),
            next_token: 0,
            log: Vec::new(),
            reserves: 0,
            releases: 0,
            transfers: 0,
            preemptions: 0,
        }
    }

    pub fn config(&self) -> CircuitSchedulerConfig {
        self.cfg
    }

    /// Currently reserved circuits.
    pub fn active_count(&self) -> usize {
        self.held.len()
    }

    /// Reserve a circuit `src -> dst`, or `None` when the switch is at
    /// capacity. The circuit is usable from `ready_at = now + reconfig`.
    pub fn try_reserve(&mut self, now: SimTime, src: u32, dst: u32) -> Option<Reservation> {
        if self.held.len() >= self.cfg.max_circuits {
            return None;
        }
        Some(self.grant(now, src, dst))
    }

    /// Reserve a circuit, preempting the oldest *idle* reservation
    /// (`busy_until <= now`) if the switch is full. Returns `None` only
    /// when every held circuit is still carrying data.
    pub fn reserve_preempting(&mut self, now: SimTime, src: u32, dst: u32) -> Option<Reservation> {
        if self.held.len() >= self.cfg.max_circuits {
            let victim = self
                .held
                .iter()
                .enumerate()
                .filter(|(_, h)| h.busy_until <= now)
                .min_by_key(|(_, h)| (h.reserved_at, h.token))
                .map(|(i, _)| i)?;
            let h = self.held.remove(victim);
            self.preemptions += 1;
            self.log.push(CircuitEvent::Preempt { token: h.token, at: now });
        }
        Some(self.grant(now, src, dst))
    }

    fn grant(&mut self, now: SimTime, src: u32, dst: u32) -> Reservation {
        let token = self.next_token;
        self.next_token += 1;
        let ready_at = now + self.cfg.reconfig;
        self.held.push(Held {
            token,
            reserved_at: now,
            ready_at,
            busy_until: ready_at,
        });
        self.reserves += 1;
        self.log.push(CircuitEvent::Reserve {
            token,
            src,
            dst,
            at: now,
            ready_at,
        });
        Reservation {
            token,
            src,
            dst,
            ready_at,
        }
    }

    /// Run `bytes` over a reserved circuit. Starts no earlier than the
    /// reservation's `ready_at` (reconfiguration) and the circuit's
    /// previous transfer (serialization); returns the arrival time.
    pub fn transfer(
        &mut self,
        now: SimTime,
        res: &Reservation,
        bytes: u64,
    ) -> Result<SimTime, CircuitError> {
        let h = self
            .held
            .iter_mut()
            .find(|h| h.token == res.token)
            .ok_or(CircuitError::Inactive)?;
        let start = now.max(h.ready_at).max(h.busy_until);
        let arrival = start + self.cfg.link.message_time(bytes, 1);
        h.busy_until = arrival;
        self.transfers += 1;
        self.log.push(CircuitEvent::Transfer {
            token: res.token,
            at: now,
            start,
            arrival,
            bytes,
        });
        Ok(arrival)
    }

    /// Release a reservation, freeing its capacity slot.
    pub fn release(&mut self, now: SimTime, res: &Reservation) -> Result<(), CircuitError> {
        let idx = self
            .held
            .iter()
            .position(|h| h.token == res.token)
            .ok_or(CircuitError::Inactive)?;
        self.held.remove(idx);
        self.releases += 1;
        self.log.push(CircuitEvent::Release {
            token: res.token,
            at: now,
        });
        Ok(())
    }

    /// When the circuit holding `token` finishes its queued transfers
    /// (`None` if inactive). Schedules use this to time releases.
    pub fn busy_until(&self, token: u64) -> Option<SimTime> {
        self.held.iter().find(|h| h.token == token).map(|h| h.busy_until)
    }

    /// The append-only event ledger.
    pub fn log(&self) -> &[CircuitEvent] {
        &self.log
    }

    pub fn reserves(&self) -> u64 {
        self.reserves
    }

    pub fn releases(&self) -> u64 {
        self.releases
    }

    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_exists_vs_infiniband() {
        let cfg = CircuitSchedulerConfig::default();
        let ib = Generation::InfiniBand4x.link_model();
        let x = cfg.crossover_bytes(&ib, 4);
        // With 30us reconfiguration and 5x the bandwidth, the crossover
        // sits in the tens-of-kilobytes range.
        assert!((4_096..4_194_304).contains(&x), "crossover = {x} bytes");
        // Below crossover packet wins, above circuit wins.
        let cold = |b: u64| (cfg.reconfig + cfg.link.message_time(b, 1)).as_secs();
        assert!(cold(x / 4) > ib.message_time(x / 4, 4).as_secs());
        assert!(cold(x * 4) < ib.message_time(x * 4, 4).as_secs());
    }

    #[test]
    fn crossover_caps_when_circuit_never_wins() {
        // A circuit with absurd reconfiguration against a fast packet net
        // never wins.
        let cfg = CircuitSchedulerConfig {
            reconfig: SimDuration::from_secs(10),
            ..CircuitSchedulerConfig::default()
        };
        let ib = Generation::Optical.link_model();
        assert_eq!(cfg.crossover_bytes(&ib, 1), 1 << 30);
    }

    fn sched(max: usize) -> CircuitScheduler {
        CircuitScheduler::new(CircuitSchedulerConfig {
            max_circuits: max,
            ..CircuitSchedulerConfig::default()
        })
    }

    #[test]
    fn scheduler_charges_reconfiguration_latency() {
        let mut s = sched(4);
        let t0 = SimTime::ZERO;
        let r = s.try_reserve(t0, 0, 1).unwrap();
        assert_eq!(r.ready_at, t0 + s.config().reconfig);
        // A transfer issued immediately cannot start before ready_at.
        let arrival = s.transfer(t0, &r, 4096).unwrap();
        assert_eq!(arrival, r.ready_at + s.config().link.message_time(4096, 1));
        // A second transfer on the warm circuit pays no reconfiguration.
        let warm = s.transfer(arrival, &r, 4096).unwrap();
        assert_eq!(warm, arrival + s.config().link.message_time(4096, 1));
        assert_eq!(s.reserves(), 1);
    }

    #[test]
    fn scheduler_enforces_capacity() {
        let mut s = sched(2);
        let t0 = SimTime::ZERO;
        let a = s.try_reserve(t0, 0, 1).unwrap();
        let _b = s.try_reserve(t0, 2, 3).unwrap();
        assert!(s.try_reserve(t0, 4, 5).is_none());
        s.release(t0, &a).unwrap();
        assert!(s.try_reserve(t0, 4, 5).is_some());
        assert_eq!(s.active_count(), 2);
    }

    #[test]
    fn scheduler_serializes_transfers_on_one_circuit() {
        let mut s = sched(1);
        let t0 = SimTime::ZERO;
        let r = s.try_reserve(t0, 0, 1).unwrap();
        let first = s.transfer(t0, &r, 1 << 20).unwrap();
        // Second transfer issued at the same instant queues behind the first.
        let second = s.transfer(t0, &r, 1 << 20).unwrap();
        assert_eq!(second, first + s.config().link.message_time(1 << 20, 1));
        assert_eq!(s.busy_until(r.token), Some(second));
    }

    #[test]
    fn scheduler_rejects_traffic_on_released_circuit() {
        let mut s = sched(2);
        let t0 = SimTime::ZERO;
        let r = s.try_reserve(t0, 0, 1).unwrap();
        s.release(r.ready_at, &r).unwrap();
        assert_eq!(s.transfer(r.ready_at, &r, 64), Err(CircuitError::Inactive));
        assert_eq!(s.release(r.ready_at, &r), Err(CircuitError::Inactive));
        // A fresh reservation gets a fresh token; the stale one stays dead.
        let r2 = s.try_reserve(r.ready_at, 0, 1).unwrap();
        assert_ne!(r2.token, r.token);
    }

    #[test]
    fn scheduler_preempts_oldest_idle_only() {
        let mut s = sched(2);
        let t0 = SimTime::ZERO;
        let a = s.try_reserve(t0, 0, 1).unwrap();
        let b = s.try_reserve(t0 + SimDuration::from_us(1), 2, 3).unwrap();
        // Keep `a` busy far into the future; `b` is idle after reconfig.
        let a_done = s.transfer(t0, &a, 1 << 30).unwrap();
        let now = b.ready_at + SimDuration::from_us(5);
        assert!(now < a_done);
        let c = s.reserve_preempting(now, 4, 5).unwrap();
        // `b` (idle) was evicted even though `a` is older.
        assert_eq!(s.transfer(now, &b, 64), Err(CircuitError::Inactive));
        assert!(s.transfer(now, &a, 64).is_ok());
        assert!(s.transfer(now, &c, 64).is_ok());
        assert_eq!(s.preemptions(), 1);
        assert!(s
            .log()
            .iter()
            .any(|e| matches!(e, CircuitEvent::Preempt { token, .. } if *token == b.token)));
    }

    #[test]
    fn scheduler_preemption_fails_when_all_busy() {
        let mut s = sched(1);
        let t0 = SimTime::ZERO;
        let a = s.try_reserve(t0, 0, 1).unwrap();
        let done = s.transfer(t0, &a, 1 << 30).unwrap();
        assert!(s.reserve_preempting(t0 + SimDuration::from_us(50), 2, 3).is_none());
        // Once the transfer drains it becomes preemptible.
        assert!(s.reserve_preempting(done, 2, 3).is_some());
    }

    #[test]
    fn scheduler_ledger_records_full_lifecycle() {
        let mut s = sched(2);
        let t0 = SimTime::ZERO;
        let r = s.try_reserve(t0, 7, 9).unwrap();
        let arrival = s.transfer(t0, &r, 1024).unwrap();
        s.release(arrival, &r).unwrap();
        let log = s.log();
        assert_eq!(log.len(), 3);
        assert!(matches!(
            log[0],
            CircuitEvent::Reserve { token, src: 7, dst: 9, at, ready_at }
                if token == r.token && at == t0 && ready_at == r.ready_at
        ));
        assert!(matches!(
            log[1],
            CircuitEvent::Transfer { token, start, arrival: a, bytes: 1024, .. }
                if token == r.token && start == r.ready_at && a == arrival
        ));
        assert!(matches!(
            log[2],
            CircuitEvent::Release { token, at } if token == r.token && at == arrival
        ));
        assert_eq!((s.reserves(), s.transfers(), s.releases()), (1, 1, 1));
    }
}
