//! Snapshot round-trip suite for the serving plane's checkpoint/restore
//! layer.
//!
//! Two contracts:
//!
//! * **Queue identity** — an [`EventQueue`] snapshot (including a trip
//!   through JSON) restores to a queue whose pop sequence, and whose
//!   behavior under further pushes, is bit-identical to the original.
//!   The calendar layout (wheel vs behind vs far, arena slot numbers)
//!   is deliberately *not* part of the contract; only the `(time, key)`
//!   total order is, and pops are a pure function of it.
//! * **Simulator identity** — `run` interrupted at an arbitrary
//!   horizon, snapshotted, serialized to JSON, restored in a fresh
//!   simulator, and resumed, produces bit-identical model results to
//!   the uninterrupted run — across 1/2/4 shards.
//!
//! And the boundary contract: a malformed snapshot document is a typed
//! error from `from_str`, never a panic in `restore`.

use polaris_simnet::prelude::*;
use proptest::prelude::*;
use serde::value::Value;
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------
// Event-queue snapshot round trip
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Build a queue with traffic spread across the calendar's wheel,
    // behind-heap, and far-heap; drain part of it so `current` holds a
    // partially consumed batch; snapshot; round-trip the snapshot
    // through JSON; restore; then demand the original and the restored
    // queue agree on every remaining pop *and* on pops of events pushed
    // after the restore (same `next_seq` ⇒ same tie-break keys).
    #[test]
    fn queue_snapshot_restores_bit_identically(
        times in proptest::collection::vec(0u64..=50_000, 1..80),
        extra in proptest::collection::vec(0u64..=60_000, 0..16),
        drained in 0usize..32,
    ) {
        let mut q = EventQueue::with_capacity(8);
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime(t), i as u64);
        }
        for _ in 0..drained.min(times.len() / 2) {
            q.pop();
        }
        let snap = q.snapshot();
        prop_assert_eq!(snap.len(), q.len());

        let json = serde_json::to_string(&snap).expect("snapshot serializes");
        let back: QueueSnapshot<u64> = serde_json::from_str(&json).expect("snapshot parses");
        prop_assert_eq!(&back, &snap);

        let mut restored = EventQueue::from_snapshot(back);
        prop_assert_eq!(restored.len(), q.len());
        prop_assert_eq!(restored.scheduled_total(), q.scheduled_total());

        // Continued behavior must match too: both queues accept the
        // same post-restore pushes and interleave them identically.
        for (i, &t) in extra.iter().enumerate() {
            q.push(SimTime(t), (1 << 32) | i as u64);
            restored.push(SimTime(t), (1 << 32) | i as u64);
        }
        loop {
            let a = q.pop().map(|(t, e)| (t.0, e));
            let b = restored.pop().map(|(t, e)| (t.0, e));
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------
// ShardSim checkpoint → JSON → restore → resume ≡ uninterrupted run
// ---------------------------------------------------------------------

/// Serde-friendly token-passing world: each token logs its arrival
/// (parallel `log_time`/`log_rank` vectors — the vendored serde shim
/// has no tuple impls) and forwards to the next rank exactly one
/// minimum-lookahead later, the window edge, which is the worst case
/// for the window protocol.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct SnapWorld {
    part: Partition,
    base: u32,
    seqs: Vec<u64>,
    log_time: Vec<u64>,
    log_rank: Vec<u32>,
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Token {
    rank: u32,
    hops_left: u32,
}

impl ShardWorld for SnapWorld {
    type Event = Token;
    fn handle(&mut self, ctx: &mut ShardCtx<'_, Token>, ev: Token) {
        self.log_time.push(ctx.now().0);
        self.log_rank.push(ev.rank);
        if ev.hops_left == 0 {
            return;
        }
        let next = (ev.rank + 1) % self.part.hosts;
        let seq = &mut self.seqs[(ev.rank - self.base) as usize];
        *seq += 1;
        let key = ((ev.rank as u64) << 32) | *seq;
        let at = SimTime(ctx.now().0 + ctx.lookahead().0);
        ctx.send(
            self.part.shard_of(next),
            at,
            key,
            Token { rank: next, hops_left: ev.hops_left - 1 },
        );
    }
}

fn fresh_sim(hosts: u32, nshards: u32) -> (Partition, ShardSim<SnapWorld>) {
    let part = Partition::block(hosts, nshards);
    let worlds: Vec<SnapWorld> = (0..part.nshards)
        .map(|sh| {
            let ranks = part.ranks_of(sh);
            SnapWorld {
                part,
                base: ranks.start,
                seqs: ranks.map(|_| 0).collect(),
                log_time: Vec::new(),
                log_rank: Vec::new(),
            }
        })
        .collect();
    let sim = ShardSim::uniform(worlds, SimDuration(3));
    (part, sim)
}

fn seed_tokens(sim: &mut ShardSim<SnapWorld>, part: Partition, mask: u16, hops: u32) {
    for r in 0..part.hosts {
        if mask & (1 << (r % 16)) != 0 {
            sim.schedule(
                part.shard_of(r),
                SimTime(r as u64),
                (r as u64) << 32,
                Token { rank: r, hops_left: hops },
            );
        }
    }
}

/// Merged event log sorted by `(time, rank)` — the model result the
/// bit-identity contract is stated over.
fn logs(sim: &ShardSim<SnapWorld>) -> Vec<(u64, u32)> {
    let mut log: Vec<(u64, u32)> = sim
        .worlds()
        .flat_map(|w| w.log_time.iter().copied().zip(w.log_rank.iter().copied()))
        .collect();
    log.sort_unstable();
    log
}

/// Snapshot → JSON → parse → restore: the trip a served checkpoint
/// makes between processes.
fn through_json(sim: &ShardSim<SnapWorld>) -> ShardSim<SnapWorld> {
    let json = serde_json::to_string(&sim.snapshot()).expect("snapshot serializes");
    let back: ShardSnapshot<SnapWorld> = serde_json::from_str(&json).expect("snapshot parses");
    back.restore()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The tentpole contract: interrupt at a horizon, snapshot, push
    // the snapshot through JSON, restore into a fresh simulator,
    // resume to completion — and get the exact event log the
    // uninterrupted run produces, at every shard count.
    #[test]
    fn split_run_restored_from_json_matches_uninterrupted(
        hosts in 4u32..=10,
        mask in 1u16..=0xffff,
        hops in 4u32..=40,
        cut in 1u64..=120,
    ) {
        let mask = mask | 1;
        let (part, mut reference) = fresh_sim(hosts, 1);
        seed_tokens(&mut reference, part, mask, hops);
        reference.run(false, None);
        let want = logs(&reference);
        prop_assert!(!want.is_empty());

        for nshards in [1u32, 2, 4] {
            let (part, mut sim) = fresh_sim(hosts, nshards);
            seed_tokens(&mut sim, part, mask, hops);
            sim.run(false, Some(SimTime(cut)));
            let mut restored = through_json(&sim);
            restored.run(false, None);
            prop_assert!(logs(&restored) == want, "diverged at nshards={nshards} cut={cut}");
        }
    }
}

/// A chain of checkpoints: snapshot/restore at several successive
/// horizons (each resume from a *restored* simulator), ending with a
/// full drain — still bit-identical. Pinned seeds, no randomness.
#[test]
fn chained_checkpoints_stay_bit_identical() {
    let (part, mut reference) = fresh_sim(9, 1);
    seed_tokens(&mut reference, part, 0x2d7, 36);
    reference.run(false, None);
    let want = logs(&reference);
    assert!(!want.is_empty());

    for nshards in [1u32, 2, 4] {
        let (part, mut sim) = fresh_sim(9, nshards);
        seed_tokens(&mut sim, part, 0x2d7, 36);
        for cut in [5u64, 17, 40, 77] {
            sim.run(false, Some(SimTime(cut)));
            sim = through_json(&sim);
        }
        sim.run(false, None);
        assert_eq!(logs(&sim), want, "nshards={nshards}");
    }
}

/// A snapshot taken mid-stream holds cross-shard events the receiver
/// has merged but not yet executed: cut a multi-shard run at every
/// horizon of its busy phase and check each restore. (If a queue entry
/// were dropped, tokens would vanish and the log would shrink.)
#[test]
fn in_flight_tokens_survive_the_snapshot() {
    let (part, mut reference) = fresh_sim(8, 1);
    seed_tokens(&mut reference, part, 0xff, 30);
    reference.run(false, None);
    let want = logs(&reference);

    for cut in 1u64..=60 {
        let (part, mut sim) = fresh_sim(8, 4);
        seed_tokens(&mut sim, part, 0xff, 30);
        sim.run(false, Some(SimTime(cut)));
        let mut restored = sim.snapshot().restore();
        restored.run(false, None);
        assert_eq!(logs(&restored), want, "cut={cut}");
    }
}

// ---------------------------------------------------------------------
// Hostile snapshot documents: typed error, never a panic
// ---------------------------------------------------------------------

/// Replace (or, with `None`, remove) one top-level field of a
/// serialized snapshot.
fn with_field(doc: &Value, name: &str, new: Option<Value>) -> Value {
    let Value::Object(fields) = doc else {
        panic!("snapshot serializes as an object");
    };
    let mut fields = fields.clone();
    match new {
        Some(v) => fields.iter_mut().find(|(k, _)| k == name).expect("field exists").1 = v,
        None => fields.retain(|(k, _)| k != name),
    }
    Value::Object(fields)
}

/// The named array field with its last element cut off.
fn truncated(doc: &Value, name: &str) -> Value {
    let Ok(Value::Array(items)) = doc.field(name) else {
        panic!("{name} serializes as an array");
    };
    with_field(doc, name, Some(Value::Array(items[..items.len() - 1].to_vec())))
}

/// Shard 0's queue with its `times` and `keys` arrays edited.
fn with_queue0(doc: &Value, edit: impl FnOnce(&mut Vec<Value>, &mut Vec<Value>)) -> Value {
    let Ok(Value::Array(queues)) = doc.field("queues") else {
        panic!("queues serialize as an array");
    };
    let (Ok(Value::Array(times)), Ok(Value::Array(keys))) =
        (queues[0].field("times"), queues[0].field("keys"))
    else {
        panic!("a queue serializes times and keys as arrays");
    };
    let (mut times, mut keys) = (times.clone(), keys.clone());
    assert!(times.len() >= 2, "shard 0 queues two entries to edit");
    edit(&mut times, &mut keys);
    let mut queues = queues.clone();
    queues[0] = with_field(&queues[0], "times", Some(Value::Array(times)));
    queues[0] = with_field(&queues[0], "keys", Some(Value::Array(keys)));
    with_field(doc, "queues", Some(Value::Array(queues)))
}

/// Shard 0's clock set one picosecond past its earliest queued event.
fn clock_past_queue0(doc: &Value) -> Value {
    let (Ok(Value::Array(nows)), Ok(Value::Array(queues))) =
        (doc.field("nows"), doc.field("queues"))
    else {
        panic!("nows and queues serialize as arrays");
    };
    let Ok(Value::Array(times)) = queues[0].field("times") else {
        panic!("a queue serializes times as an array");
    };
    let Some(Value::U64(first)) = times.first() else {
        panic!("shard 0 queues an entry");
    };
    let mut nows = nows.clone();
    nows[0] = Value::U64(first + 1);
    with_field(doc, "nows", Some(Value::Array(nows)))
}

/// Every horizon of a multi-shard run snapshots to a document that
/// parses: the boundary checks refuse no legitimate snapshot.
#[test]
fn snapshots_at_every_horizon_parse() {
    for nshards in [1u32, 2, 4] {
        for cut in 1u64..=60 {
            let (part, mut sim) = fresh_sim(8, nshards);
            seed_tokens(&mut sim, part, 0xff, 30);
            sim.run(false, Some(SimTime(cut)));
            let json = serde_json::to_string(&sim.snapshot()).expect("snapshot serializes");
            if let Err(e) = serde_json::from_str::<ShardSnapshot<SnapWorld>>(&json) {
                panic!("nshards={nshards} cut={cut}: {e}");
            }
        }
    }
}

#[test]
fn malformed_snapshots_are_typed_errors() {
    let (part, mut sim) = fresh_sim(8, 2);
    seed_tokens(&mut sim, part, 0xff, 30);
    sim.run(false, Some(SimTime(20)));
    let good = serde_json::to_value(&sim.snapshot()).expect("snapshot serializes");
    assert!(serde_json::from_value::<ShardSnapshot<SnapWorld>>(&good).is_ok());

    let cases: Vec<(&str, Value)> = vec![
        ("truncated worlds", truncated(&good, "worlds")),
        ("truncated queues", truncated(&good, "queues")),
        ("truncated nows", truncated(&good, "nows")),
        ("nshards 0", with_field(&good, "nshards", Some(Value::U64(0)))),
        ("nshards mismatched", with_field(&good, "nshards", Some(Value::U64(3)))),
        // No window advances under a zero lookahead: restored, the run
        // would never return.
        ("lookahead 0", with_field(&good, "lookahead", Some(Value::U64(0)))),
        // Version skew: /2 carried a per-channel matrix this engine no
        // longer runs.
        (
            "schema /2",
            with_field(
                &good,
                "schema",
                Some(Value::Str("polaris-shardsim-snapshot/2".to_string())),
            ),
        ),
        ("missing schema", with_field(&good, "schema", None)),
        ("missing lookahead", with_field(&good, "lookahead", None)),
        ("missing queues", with_field(&good, "queues", None)),
        // Pop order is a function of the (time, key) order only when
        // entries are unique and sorted.
        (
            "entries swapped",
            with_queue0(&good, |times, keys| {
                times.swap(0, 1);
                keys.swap(0, 1);
            }),
        ),
        (
            "duplicate (time, key)",
            with_queue0(&good, |times, keys| {
                times[1] = times[0].clone();
                keys[1] = keys[0].clone();
            }),
        ),
        // Restored, the shard would pop it with its clock running
        // backwards.
        ("entry before nows", clock_past_queue0(&good)),
    ];
    for (name, doc) in cases {
        // Through text as well as the value tree: the boundary a
        // served checkpoint actually crosses.
        let json = serde_json::to_string(&doc).expect("value serializes");
        assert!(
            serde_json::from_str::<ShardSnapshot<SnapWorld>>(&json).is_err(),
            "{name}: malformed snapshot was accepted"
        );
    }
    // Cut-off text is a parse error, not a panic.
    let json = serde_json::to_string(&good).expect("value serializes");
    assert!(serde_json::from_str::<ShardSnapshot<SnapWorld>>(&json[..json.len() / 2]).is_err());
}
