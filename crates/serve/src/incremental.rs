//! Incremental re-simulation: answer a point-mutated spec from the
//! latest checkpoint whose prefix is unaffected.
//!
//! Workloads here are **phase-segmented**: a [`PhasedSpec`] is a list
//! of traffic phases, each seeding its own token waves into a shared
//! ring simulation. The runner executes phase `k` only after seeding
//! it — so the simulator state at the phase-`k` boundary is a pure
//! function of phases `0..k` (later phases cannot leak into earlier
//! snapshots) — and checkpoints at every boundary, keyed by the
//! [`SpecHash`] of the **prefix** `(hosts, nshards, phase_len,
//! phases[0..k])`.
//!
//! When a mutated spec arrives (say phase 7 of 10 changed), the runner
//! finds the longest prefix with a stored snapshot — phases `0..7` —
//! restores it, and re-simulates only phases 7..10. The model result
//! is bit-identical to a from-scratch run (the engine snapshot
//! contract), and the work saved is measured in *events*, a
//! deterministic machine-independent quantity a test can pin
//! (`tests/serving.rs`) and the benchmark reports as
//! `serve.incremental.events_saved_ratio`.

use crate::canonical::{Canonical, CanonicalBuf, SpecHash};
use polaris_obs::Obs;
use polaris_simnet::prelude::{
    Partition, ShardCtx, ShardSim, ShardSnapshot, ShardWorld, SimDuration, SimTime, SplitMix64,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One traffic phase: `tokens` ring tokens, each living `hops` hops,
/// with an extra per-hop delay of `stagger` ps on top of the channel
/// lookahead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseCfg {
    pub tokens: u32,
    pub hops: u32,
    pub stagger: u64,
}

impl Canonical for PhaseCfg {
    fn encode(&self, buf: &mut CanonicalBuf) {
        buf.u64("tokens", self.tokens as u64);
        buf.u64("hops", self.hops as u64);
        buf.u64("stagger", self.stagger);
    }
}

/// A phase-segmented workload spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhasedSpec {
    pub hosts: u32,
    pub nshards: u32,
    /// Simulated length of each phase, picoseconds.
    pub phase_len: u64,
    pub phases: Vec<PhaseCfg>,
}

impl Canonical for PhasedSpec {
    fn encode(&self, buf: &mut CanonicalBuf) {
        self.encode_prefix(buf, self.phases.len());
    }
}

impl PhasedSpec {
    fn encode_prefix(&self, buf: &mut CanonicalBuf, k: usize) {
        buf.u64("hosts", self.hosts as u64);
        buf.u64("nshards", self.nshards as u64);
        buf.u64("phase_len", self.phase_len);
        buf.list("phases", &self.phases[..k]);
    }

    /// Content address of the simulator state after phases `0..k`.
    pub fn prefix_hash(&self, k: usize) -> SpecHash {
        let mut buf = CanonicalBuf::new();
        self.encode_prefix(&mut buf, k);
        buf.finish()
    }
}

/// Channel lookahead for the traffic ring, picoseconds.
const RING_LOOKAHEAD: u64 = 3;

/// Serde-friendly ring world: tokens hop around the rank ring; every
/// handled event folds into an **order-independent** digest
/// (commutative sum of per-event mixes), so the digest is invariant
/// across shard counts as well as across checkpoint cuts.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrafficWorld {
    part: Partition,
    base: u32,
    seqs: Vec<u64>,
    /// Events handled by this shard's ranks (cumulative).
    pub events: u64,
    /// Commutative digest of every handled `(time, rank)`.
    pub digest: u64,
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Tok {
    rank: u32,
    hops_left: u32,
    stagger: u64,
}

/// SplitMix64 finalizer as a mixing function.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl ShardWorld for TrafficWorld {
    type Event = Tok;
    fn handle(&mut self, ctx: &mut ShardCtx<'_, Tok>, ev: Tok) {
        self.events += 1;
        self.digest = self
            .digest
            .wrapping_add(mix((ctx.now().0 << 20) ^ ev.rank as u64));
        if ev.hops_left == 0 {
            return;
        }
        let next = (ev.rank + 1) % self.part.hosts;
        let seq = &mut self.seqs[(ev.rank - self.base) as usize];
        *seq += 1;
        let key = ((ev.rank as u64) << 32) | *seq;
        let at = SimTime(ctx.now().0 + ctx.lookahead().0 + ev.stagger);
        ctx.send(
            self.part.shard_of(next),
            at,
            key,
            Tok { rank: next, hops_left: ev.hops_left - 1, stagger: ev.stagger },
        );
    }
}

fn fresh_sim(spec: &PhasedSpec) -> (Partition, ShardSim<TrafficWorld>) {
    let part = Partition::block(spec.hosts, spec.nshards);
    let worlds = (0..part.nshards)
        .map(|sh| {
            let ranks = part.ranks_of(sh);
            TrafficWorld {
                part,
                base: ranks.start,
                seqs: ranks.map(|_| 0).collect(),
                events: 0,
                digest: 0,
            }
        })
        .collect();
    (part, ShardSim::uniform(worlds, SimDuration(RING_LOOKAHEAD)))
}

/// Seed phase `k`'s token wave. Placement and timing are a pure
/// function of `(spec phases[k], k)`, and every seed lands at or after
/// the phase-`k` boundary — the invariants the prefix-hash keying
/// depends on.
fn seed_phase(sim: &mut ShardSim<TrafficWorld>, part: Partition, spec: &PhasedSpec, k: usize) {
    let cfg = spec.phases[k];
    let mut rng = SplitMix64::new(mix(0x7068_6173_6500 ^ k as u64));
    let phase_start = k as u64 * spec.phase_len;
    for i in 0..cfg.tokens {
        let rank = rng.next_below(spec.hosts as u64) as u32;
        let at = phase_start + rng.next_below(spec.phase_len.max(1) / 2 + 1);
        let key = (1u64 << 63) | ((k as u64) << 32) | i as u64;
        sim.schedule(
            part.shard_of(rank),
            SimTime(at),
            key,
            Tok { rank, hops_left: cfg.hops, stagger: cfg.stagger % 5 },
        );
    }
}

/// Result of a segmented run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentedOutcome {
    /// Order- and shard-count-independent digest of every handled
    /// event — the model result the identity contracts are stated
    /// over.
    pub digest: u64,
    /// Simulated completion time, picoseconds.
    pub end_time_ps: u64,
    /// Events executed *by this call* (excludes work a restored
    /// checkpoint already carried).
    pub events_executed: u64,
    /// Events in the full answer (prefix included).
    pub events_total: u64,
    /// Phases answered from a checkpoint instead of re-simulated.
    pub phases_reused: usize,
}

/// Runs [`PhasedSpec`]s, checkpointing at phase boundaries and
/// restarting mutated specs from the longest unaffected prefix.
pub struct IncrementalRunner {
    snaps: Mutex<HashMap<u128, Arc<ShardSnapshot<TrafficWorld>>>>,
    obs: Obs,
}

impl IncrementalRunner {
    pub fn new(obs: Obs) -> Self {
        IncrementalRunner { snaps: Mutex::new(HashMap::new()), obs }
    }

    /// Run `spec`, reusing the longest stored prefix checkpoint.
    pub fn run(&self, spec: &PhasedSpec) -> SegmentedOutcome {
        self.obs.counter("serve_incremental_runs_total", &[]).add(1);
        // Longest prefix (in completed phases) with a stored snapshot.
        let (mut sim, part, start, baseline) = {
            let snaps = self.snaps.lock().unwrap();
            let hit = (1..=spec.phases.len())
                .rev()
                .find_map(|k| snaps.get(&spec.prefix_hash(k).0).map(|s| (k, Arc::clone(s))));
            match hit {
                Some((k, snap)) => {
                    let sim = snap.restore();
                    let done: u64 = sim.worlds().map(|w| w.events).sum();
                    (sim, Partition::block(spec.hosts, spec.nshards), k, done)
                }
                None => {
                    let (part, sim) = fresh_sim(spec);
                    (sim, part, 0, 0)
                }
            }
        };
        if start > 0 {
            self.obs
                .counter("serve_incremental_phases_reused_total", &[])
                .add(start as u64);
            self.obs
                .counter("serve_incremental_events_skipped_total", &[])
                .add(baseline);
        }

        for k in start..spec.phases.len() {
            seed_phase(&mut sim, part, spec, k);
            sim.run(false, Some(SimTime((k as u64 + 1) * spec.phase_len)));
            let key = spec.prefix_hash(k + 1).0;
            let snap = Arc::new(sim.snapshot());
            self.snaps.lock().unwrap().entry(key).or_insert(snap);
        }
        // Drain whatever outlives the last phase boundary. (Never
        // snapshotted: boundary checkpoints must stay pre-drain so
        // longer specs can extend them.)
        let stats = sim.run(false, None);

        let events_total: u64 = sim.worlds().map(|w| w.events).sum();
        SegmentedOutcome {
            digest: sim.worlds().fold(0u64, |acc, w| acc.wrapping_add(w.digest)),
            end_time_ps: stats.end_time.0,
            events_executed: events_total - baseline,
            events_total,
            phases_reused: start,
        }
    }

    /// Stored checkpoints (for tests and capacity accounting).
    pub fn snapshots(&self) -> usize {
        self.snaps.lock().unwrap().len()
    }

    pub fn obs(&self) -> &Obs {
        &self.obs
    }
}

/// Cold run with no checkpoint store — the reference the incremental
/// path must match bit for bit.
pub fn run_cold(spec: &PhasedSpec) -> SegmentedOutcome {
    IncrementalRunner::new(Obs::new()).run(spec)
}

/// End-to-end engine-identity check (`tests/serving.rs` asserts it): a
/// cold run, a segmented run restored through a JSON round trip at
/// every boundary, and runs at 1/2/4 shards must all produce the same
/// digest and event count.
pub fn snapshot_identity_check() -> bool {
    let base = PhasedSpec {
        hosts: 12,
        nshards: 1,
        phase_len: 400,
        phases: vec![
            PhaseCfg { tokens: 6, hops: 40, stagger: 1 },
            PhaseCfg { tokens: 4, hops: 60, stagger: 0 },
            PhaseCfg { tokens: 8, hops: 25, stagger: 3 },
        ],
    };
    let reference = run_cold(&base);
    let mut ok = reference.events_total > 0;
    for nshards in [1u32, 2, 4] {
        let spec = PhasedSpec { nshards, ..base.clone() };
        // Segmented with JSON round trips at every boundary.
        let (part, mut sim) = fresh_sim(&spec);
        for k in 0..spec.phases.len() {
            seed_phase(&mut sim, part, &spec, k);
            sim.run(false, Some(SimTime((k as u64 + 1) * spec.phase_len)));
            let json = serde_json::to_string(&sim.snapshot()).expect("snapshot serializes");
            let snap: ShardSnapshot<TrafficWorld> =
                serde_json::from_str(&json).expect("snapshot parses");
            sim = snap.restore();
        }
        sim.run(false, None);
        let digest = sim.worlds().fold(0u64, |acc, w| acc.wrapping_add(w.digest));
        let events: u64 = sim.worlds().map(|w| w.events).sum();
        ok &= digest == reference.digest && events == reference.events_total;
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_spec(nshards: u32) -> PhasedSpec {
        PhasedSpec {
            hosts: 10,
            nshards,
            phase_len: 300,
            phases: vec![
                PhaseCfg { tokens: 5, hops: 30, stagger: 0 },
                PhaseCfg { tokens: 3, hops: 45, stagger: 2 },
                PhaseCfg { tokens: 6, hops: 20, stagger: 1 },
                PhaseCfg { tokens: 4, hops: 35, stagger: 0 },
            ],
        }
    }

    #[test]
    fn digest_is_shard_count_invariant() {
        let want = run_cold(&base_spec(1));
        for nshards in [2u32, 4] {
            let got = run_cold(&base_spec(nshards));
            assert_eq!(got.digest, want.digest, "nshards={nshards}");
            assert_eq!(got.events_total, want.events_total, "nshards={nshards}");
        }
    }

    #[test]
    fn mutated_tail_reuses_the_unaffected_prefix() {
        let runner = IncrementalRunner::new(Obs::new());
        let spec = base_spec(2);
        let cold = runner.run(&spec);
        assert_eq!(cold.phases_reused, 0);
        assert_eq!(cold.events_executed, cold.events_total);

        // Mutate the last phase: prefix 0..3 is unaffected.
        let mut mutated = spec.clone();
        mutated.phases[3].hops += 10;
        let warm = runner.run(&mutated);
        assert_eq!(warm.phases_reused, 3, "three boundary checkpoints apply");
        assert!(
            warm.events_executed < warm.events_total,
            "prefix work must be skipped: {warm:?}"
        );
        // And the answer matches a from-scratch run of the mutation.
        let reference = run_cold(&mutated);
        assert_eq!(warm.digest, reference.digest);
        assert_eq!(warm.events_total, reference.events_total);

        // An identical re-request reuses the full prefix too.
        let again = runner.run(&spec);
        assert_eq!(again.digest, cold.digest);
        assert_eq!(again.phases_reused, 4);
    }

    #[test]
    fn mutating_an_early_phase_invalidates_later_checkpoints() {
        let runner = IncrementalRunner::new(Obs::new());
        let spec = base_spec(2);
        runner.run(&spec);
        let mut mutated = spec.clone();
        mutated.phases[1].tokens += 1;
        let warm = runner.run(&mutated);
        assert_eq!(warm.phases_reused, 1, "only the phase-0 prefix survives");
        assert_eq!(warm.digest, run_cold(&mutated).digest);
    }

    #[test]
    fn identity_check_holds() {
        assert!(snapshot_identity_check());
    }
}
