//! Determinism property suite for the calendar event queue.
//!
//! The queue contract is total: events come out ordered by `(time,
//! insertion sequence)`, bit-for-bit, no matter how the internals
//! bucket, spill, or rebuild. [`reference::HeapQueue`] — the original
//! binary-heap implementation — is the ordering oracle; every generated
//! schedule is driven through both queues in lockstep and any
//! divergence is a bug in the calendar machinery (the golden trace
//! files in `tests/golden/` then serve as the end-to-end check that the
//! engine built on top still produces byte-identical runs).
//!
//! Proptest-style without the dependency: a seeded [`SplitMix64`] walks
//! a matrix of seeds x workload shapes, and each failure message names
//! the (seed, shape, step) triple so a divergence replays exactly.

use polaris_simnet::event::{reference::HeapQueue, EventQueue};
use polaris_simnet::rng::SplitMix64;
use polaris_simnet::time::SimTime;

/// Workload shapes chosen to stress different queue internals.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Uniform times over a wide range: wheel laps + far-heap spill.
    WideUniform,
    /// A handful of discrete deltas from the current time: the
    /// simulator's link-latency pattern, heavy on exact ties.
    QuantizedDeltas,
    /// Everything lands on very few distinct instants: giant same-tick
    /// batches, FIFO tie-break does all the ordering work.
    FewInstants,
    /// Times *before* the last popped time (the Scheduler clamps to
    /// `now`, but the queue must order any past push correctly too).
    PastClamped,
    /// Mixed magnitudes forcing rebuilds and horizon crossings.
    MixedMagnitude,
    /// The sharded engine's keyed pushes (`rank << 32 | seq`) at the
    /// 256-rank GigE ring cell's deltas, 0.5 to 36 µs, on a fresh queue:
    /// most land past its ~1 µs horizon, and the wheel must re-fit to
    /// the spill.
    KeyedSpill,
    /// The fleet's preload: the first [`PRELOAD`] steps only push, job
    /// arrivals over 1200 s among timers 48 to 216 s out, in no order.
    /// None of them may land behind the cursor.
    OutOfOrderPreload,
    /// A population that outgrows the wheel at distinct times: pushes
    /// up to 1 µs past the clock, three for every pop. Crowded batches
    /// re-fit the wheel as it grows.
    GrowingPopulation,
}

const SHAPES: [Shape; 8] = [
    Shape::WideUniform,
    Shape::QuantizedDeltas,
    Shape::FewInstants,
    Shape::PastClamped,
    Shape::MixedMagnitude,
    Shape::KeyedSpill,
    Shape::OutOfOrderPreload,
    Shape::GrowingPopulation,
];

/// Push-only steps that open [`Shape::OutOfOrderPreload`].
const PRELOAD: u64 = 1000;
/// One simulated second.
const S: u64 = 1_000_000_000_000;

/// Ranks drawing keys in [`Shape::KeyedSpill`].
const RANKS: usize = 256;
/// The oracle breaks ties in insertion order, keyed pushes by key, so
/// the heap is fed `time << KEY_BITS | rank << SEQ_BITS | seq`: the
/// same `(time, key)` order in one timestamp. A run's at most 3000
/// pushes keep `seq` within `SEQ_BITS` and times within 2^40 ps.
const SEQ_BITS: u32 = 12;
const KEY_BITS: u32 = SEQ_BITS + 8;

fn gen_time(shape: Shape, rng: &mut SplitMix64, now: u64) -> u64 {
    match shape {
        Shape::WideUniform => rng.next_below(1 << 30),
        Shape::QuantizedDeltas => {
            let deltas = [0u64, 10_000, 25_000, 50_000, 100_000];
            now + deltas[rng.next_below(5) as usize]
        }
        Shape::FewInstants => rng.next_below(4) * 1_000_000,
        Shape::PastClamped => {
            // Half the pushes aim below `now`; the queue must slot them
            // ahead of everything later regardless of the cursor.
            if rng.chance(0.5) {
                now.saturating_sub(rng.next_below(100_000))
            } else {
                now + rng.next_below(100_000)
            }
        }
        Shape::MixedMagnitude => {
            let exp = rng.next_below(40);
            rng.next_below(1u64 << exp.max(1))
        }
        Shape::KeyedSpill => {
            let deltas = [500_000u64, 2_000_000, 3_000_000, 36_000_000];
            now + deltas[rng.next_below(4) as usize]
        }
        Shape::OutOfOrderPreload => {
            if rng.chance(0.25) {
                now + rng.next_below(1_200 * S)
            } else {
                now + 48 * S + rng.next_below(168 * S)
            }
        }
        Shape::GrowingPopulation => now + 1 + rng.next_below(1_000_000),
    }
}

/// Drive both queues through an identical op sequence and assert
/// identical observable behaviour at every step.
fn lockstep(seed: u64, shape: Shape) {
    let keyed = matches!(shape, Shape::KeyedSpill);
    let mut cal: EventQueue<u64> = if keyed || seed.is_multiple_of(2) {
        EventQueue::new()
    } else {
        EventQueue::with_capacity(1 << (seed % 13) as usize)
    };
    let mut heap: HeapQueue<u64> = HeapQueue::new();
    let oracle_time = |t: SimTime| if keyed { SimTime(t.0 >> KEY_BITS) } else { t };
    let mut seqs = [0u64; RANKS];
    let mut rng = SplitMix64::new(seed);
    let mut now = 0u64;
    for step in 0..4000u64 {
        let ctx = || format!("seed={seed} shape={shape:?} step={step}");
        let preload = matches!(shape, Shape::OutOfOrderPreload) && step < PRELOAD;
        if rng.next_below(4) < 3 || preload {
            let t = gen_time(shape, &mut rng, now);
            if keyed {
                let rank = rng.next_below(RANKS as u64);
                let seq = &mut seqs[rank as usize];
                *seq += 1;
                cal.push_keyed(SimTime(t), rank << 32 | *seq, step);
                heap.push(SimTime(t << KEY_BITS | rank << SEQ_BITS | *seq), step);
            } else {
                cal.push(SimTime(t), step);
                heap.push(SimTime(t), step);
            }
        } else {
            let a = cal.pop();
            let b = heap.pop().map(|(t, e)| (oracle_time(t), e));
            assert_eq!(a, b, "pop diverged at {}", ctx());
            if let Some((t, _)) = a {
                now = t.0;
            }
        }
        assert_eq!(cal.len(), heap.len(), "len diverged at {}", ctx());
        if preload {
            assert_eq!(cal.stats().behind, 0, "preload landed behind at {}", ctx());
        }
    }
    // Drain fully; order must match to the last event.
    loop {
        let peek = heap.peek_time().map(oracle_time);
        assert_eq!(cal.peek_time(), peek, "peek diverged draining");
        let a = cal.pop();
        let b = heap.pop().map(|(t, e)| (oracle_time(t), e));
        assert_eq!(a, b, "drain diverged at seed={seed} shape={shape:?}");
        if a.is_none() {
            break;
        }
    }
}

#[test]
fn calendar_matches_heap_oracle_across_shapes_and_seeds() {
    for shape in SHAPES {
        for seed in 1..=8u64 {
            lockstep(seed * 0x9e37_79b9, shape);
        }
    }
}

/// `pop_at` is the engine's same-timestamp batch drain: popping with the
/// staged batch's time must yield exactly the events the oracle pops
/// while its head matches that time — including follow-ups pushed at
/// the instant being drained.
#[test]
fn pop_at_batch_drain_matches_oracle() {
    for seed in 1..=8u64 {
        let mut cal: EventQueue<u64> = EventQueue::new();
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        let mut rng = SplitMix64::new(seed);
        let mut next_id = 0u64;
        for _ in 0..64 {
            let t = rng.next_below(50) * 1000;
            cal.push(SimTime(t), next_id);
            heap.push(SimTime(t), next_id);
            next_id += 1;
        }
        while let Some(t) = cal.peek_time() {
            assert_eq!(heap.peek_time(), Some(t));
            let mut drained = 0u32;
            while let Some((at, ev)) = cal.pop_at(t) {
                assert_eq!(at, t);
                let (ht, hev) = heap.pop().expect("oracle has the event");
                assert_eq!((ht, hev), (at, ev), "batch drain diverged seed={seed}");
                drained += 1;
                // A same-instant follow-up mid-drain must join this
                // batch, exactly like a handler scheduling for "now".
                if drained == 1 && rng.chance(0.5) {
                    cal.push(SimTime(t.0), next_id);
                    heap.push(SimTime(t.0), next_id);
                    next_id += 1;
                }
            }
            // The next pending event (if any) is strictly later.
            if let Some(nt) = cal.peek_time() {
                assert!(nt > t, "pop_at left same-time events behind");
            }
        }
        assert!(heap.pop().is_none(), "oracle has leftovers");
    }
}

/// Two identical interleaved runs must agree event-for-event — the
/// queue-level statement of the golden-trace byte-identity property.
#[test]
fn replay_is_bit_for_bit_identical() {
    let run = || {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut rng = SplitMix64::new(42);
        let mut trace = Vec::new();
        let mut now = 0u64;
        for step in 0..3000u64 {
            if rng.next_below(3) < 2 {
                q.push(SimTime(gen_time(Shape::QuantizedDeltas, &mut rng, now), ), step);
            } else if let Some((t, ev)) = q.pop() {
                now = t.0;
                trace.push((t.0, ev));
            }
        }
        while let Some((t, ev)) = q.pop() {
            trace.push((t.0, ev));
        }
        trace
    };
    assert_eq!(run(), run());
}
