//! Property suite for the per-channel lookahead math behind the
//! conservative window protocol (round 2 of the parallel engine).
//!
//! Two contracts from the design note in `shard.rs`, checked against
//! randomly drawn lookahead matrices and published-minimum vectors:
//!
//! * **Safety** — a shard's window end never exceeds what any single
//!   inbound channel promises (`mins[src] + la[src][dst]`), so no
//!   event can ever arrive below the window boundary.
//! * **Progress** — the per-channel window is always at least the old
//!   global window (`min(mins) + min(la)`), so round 2 can only widen
//!   windows, never narrow them.
//!
//! Plus an end-to-end shard-count invariance property over randomly
//! seeded token workloads.

use polaris_simnet::prelude::{
    Lookahead, Partition, ShardCtx, ShardSim, ShardWorld, SimDuration, SimTime,
};
use proptest::prelude::*;

/// Build a matrix from a flat entry vector (row-major, diagonal
/// ignored).
fn matrix(n: u32, entries: &[u64]) -> Lookahead {
    Lookahead::from_fn(n, |src, dst| SimDuration(entries[(src * n + dst) as usize]))
}

/// The old global window: every shard advanced to the same bound,
/// `min(published minimums) + min(all channel promises)`.
fn global_window(mins: &[u64], la: &Lookahead) -> u64 {
    mins.iter().copied().min().unwrap().saturating_add(la.min())
}

/// Independent min-plus closure reference: relax every edge until a
/// fixed point (Bellman-Ford style), seeded with the single edges and
/// a saturated diagonal so every path keeps at least one edge. The
/// engine uses Floyd-Warshall; agreement between the two is the
/// differential the property suite leans on.
fn reference_closure(n: usize, entries: &[u64]) -> Vec<u64> {
    let mut dist = vec![u64::MAX; n * n];
    for src in 0..n {
        for dst in 0..n {
            if src != dst {
                dist[src * n + dst] = entries[src * n + dst];
            }
        }
    }
    loop {
        let mut changed = false;
        for i in 0..n {
            for k in 0..n {
                if i == k {
                    continue;
                }
                for j in 0..n {
                    let through = dist[i * n + k].saturating_add(entries[k * n + j]);
                    if k != j && through < dist[i * n + j] {
                        dist[i * n + j] = through;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return dist;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The closure matches an independent reference: repeated
    // Bellman-Ford-style relaxation from the raw edges. This is the
    // ground truth for every other property here.
    #[test]
    fn closure_matches_bellman_ford_reference(
        n in 2u32..=6,
        entries in collection::vec(1u64..=1_000, 36..37),
    ) {
        let la = matrix(n, &entries);
        let reference = reference_closure(n as usize, &entries);
        for src in 0..n {
            for dst in 0..n {
                prop_assert!(
                    la.dist(src, dst) == reference[(src * n + dst) as usize],
                    "dist({src},{dst}) = {} but reference says {}",
                    la.dist(src, dst),
                    reference[(src * n + dst) as usize]
                );
            }
        }
    }

    // Safety: `window_end(mins, dst)` never exceeds the earliest
    // arrival any causal chain could produce — `mins[src] +
    // dist(src, dst)` for every source, including `dst`'s own round
    // trip — and is tight: some chain achieves it exactly.
    #[test]
    fn window_end_is_safe_and_tight(
        n in 2u32..=6,
        entries in collection::vec(1u64..=1_000, 36..37),
        mins in collection::vec(0u64..=10_000, 6..7),
    ) {
        let la = matrix(n, &entries);
        let mins = &mins[..n as usize];
        for dst in 0..n as usize {
            let wend = la.window_end(mins, dst);
            let mut tight = false;
            for (src, &m) in mins.iter().enumerate() {
                let promise = m.saturating_add(la.dist(src as u32, dst as u32));
                prop_assert!(
                    wend <= promise,
                    "dst {dst}: window {wend} outruns chain {src}->{dst} promise {promise}"
                );
                tight |= wend == promise;
            }
            prop_assert!(tight, "dst {dst}: window {wend} is not achieved by any chain");
        }
    }

    // Progress: the per-channel window is at least the old global
    // window for every shard.
    #[test]
    fn window_end_dominates_the_global_window(
        n in 2u32..=6,
        entries in collection::vec(1u64..=1_000, 36..37),
        mins in collection::vec(0u64..=10_000, 6..7),
    ) {
        let la = matrix(n, &entries);
        let mins = &mins[..n as usize];
        let global = global_window(mins, &la);
        for dst in 0..n as usize {
            let wend = la.window_end(mins, dst);
            prop_assert!(
                wend >= global,
                "dst {dst}: per-channel window {wend} below global window {global}"
            );
        }
    }

    // A uniform matrix collapses to the global behavior plus the
    // self round trip: `window_end(dst) = min(min over src≠dst of
    // mins[src] + d, mins[dst] + 2d)`.
    #[test]
    fn uniform_matrix_reduces_to_global(
        n in 2u32..=6,
        d in 1u64..=1_000,
        mins in collection::vec(0u64..=10_000, 6..7),
    ) {
        let la = Lookahead::uniform(n, SimDuration(d));
        let mins = &mins[..n as usize];
        for dst in 0..n as usize {
            let others = mins
                .iter()
                .enumerate()
                .filter(|&(s, _)| s != dst)
                .map(|(_, &m)| m)
                .min()
                .unwrap();
            let expect = (others + d).min(mins[dst] + 2 * d);
            prop_assert_eq!(la.window_end(mins, dst), expect);
        }
    }

    // Monotonicity: raising any one published minimum never narrows
    // any shard's window (the barrier protocol depends on windows
    // only ever moving forward as minimums advance).
    #[test]
    fn window_end_is_monotone_in_the_minimums(
        n in 2u32..=6,
        entries in collection::vec(1u64..=1_000, 36..37),
        mins in collection::vec(0u64..=10_000, 6..7),
        bump_at in 0usize..6,
        bump in 1u64..=5_000,
    ) {
        let la = matrix(n, &entries);
        let mins = &mins[..n as usize];
        let mut bumped = mins.to_vec();
        let i = bump_at % n as usize;
        bumped[i] += bump;
        for dst in 0..n as usize {
            prop_assert!(
                la.window_end(&bumped, dst) >= la.window_end(mins, dst),
                "raising min[{i}] narrowed dst {dst}'s window"
            );
        }
    }
}

/// A `u64::MAX` entry declares "this pair never exchanges events" and
/// drops the channel from the window computation: with every other
/// channel saturated, the one live channel alone bounds the window.
#[test]
fn saturated_channels_drop_out_of_the_window() {
    let la = Lookahead::from_fn(3, |src, dst| {
        if src == 0 && dst == 2 {
            SimDuration(7)
        } else {
            SimDuration(u64::MAX)
        }
    });
    let mins = [10u64, 1, 1];
    assert_eq!(la.window_end(&mins, 2), 17);
    assert_eq!(la.window_end(&mins, 1), u64::MAX);
}

/// A concrete witness that per-channel lookahead is a *strict*
/// improvement: with one slow channel into shard 0 and fast channels
/// everywhere else, shard 1's window runs well past the old global
/// bound.
#[test]
fn asymmetric_matrix_strictly_widens_some_window() {
    let la = Lookahead::from_fn(2, |src, _| SimDuration(if src == 0 { 1 } else { 100 }));
    let mins = [50u64, 50];
    let global = global_window(&mins, &la);
    assert_eq!(global, 51);
    assert_eq!(la.window_end(&mins, 0), 150); // fed only by the slow channel
    assert!(la.window_end(&mins, 0) > global);
}

// ---------------------------------------------------------------------
// End-to-end: shard-count invariance over random token workloads
// ---------------------------------------------------------------------

/// A token-passing world: each token logs its arrival and forwards to
/// the next rank exactly one global-minimum lookahead later — the
/// window edge, the earliest a cross-shard event may land. Identical
/// to the unit suite's ping world but driven with random token
/// placement here.
struct TokenWorld {
    part: Partition,
    base: u32,
    seqs: Vec<u64>,
    log: Vec<(u64, u32)>,
}

struct Token {
    rank: u32,
    hops_left: u32,
}

impl ShardWorld for TokenWorld {
    type Event = Token;
    fn handle(&mut self, ctx: &mut ShardCtx<'_, Token>, ev: Token) {
        self.log.push((ctx.now().0, ev.rank));
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

/// Run `hosts` ranks split over `nshards`, seeding a token at every
/// rank whose bit is set in `mask`, and return the merged event log
/// sorted by `(time, rank)`.
fn run_tokens(hosts: u32, nshards: u32, mask: u16, hops: u32) -> Vec<(u64, u32)> {
    let part = Partition::block(hosts, nshards);
    let worlds: Vec<TokenWorld> = (0..part.nshards)
        .map(|sh| {
            let ranks = part.ranks_of(sh);
            TokenWorld {
                part,
                base: ranks.start,
                seqs: ranks.map(|_| 0).collect(),
                log: Vec::new(),
            }
        })
        .collect();
    let mut sim = ShardSim::uniform(worlds, SimDuration(3));
    for r in 0..hosts {
        if mask & (1 << (r % 16)) != 0 {
            sim.schedule(
                part.shard_of(r),
                SimTime(r as u64),
                (r as u64) << 32,
                Token { rank: r, hops_left: hops },
            );
        }
    }
    sim.run(false, None);
    let mut log: Vec<(u64, u32)> = sim.worlds().flat_map(|w| w.log.iter().copied()).collect();
    log.sort_unstable();
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The ground truth: 1-shard execution. Every shard count must
    // reproduce its event log bit for bit — even though every
    // cross-shard send lands exactly on the window edge.
    #[test]
    fn shard_count_invariance(
        hosts in 4u32..=12,
        mask in 1u16..=0xffff,
        hops in 1u32..=48,
    ) {
        // Guarantee at least one token lands inside `hosts` ranks.
        let mask = mask | 1;
        let reference = run_tokens(hosts, 1, mask, hops);
        prop_assert!(!reference.is_empty());
        for nshards in [2u32, 3, 4] {
            let log = run_tokens(hosts, nshards, mask, hops);
            prop_assert!(
                log == reference,
                "diverged at nshards={nshards}: {} events vs {}",
                log.len(),
                reference.len()
            );
        }
    }
}

/// Regression: the case this suite's invariance proptest first
/// failed on. Tokens at ranks 0, 2 and 3 of a 5-host ring over 2
/// shards drive shard 1's queue empty mid-run; with the single-edge
/// window formula, shard 0 then saw a `u64::MAX` peer minimum,
/// computed an unbounded window, and drained events that its own
/// in-flight sends (relayed back through shard 1 at
/// `m0 + la[0][1] + la[1][0]`) were about to invalidate — tripping
/// the `remote event inside a drained window` assertion. The min-plus
/// closure's round-trip diagonal bounds the window correctly.
#[test]
fn idle_peer_round_trip_regression() {
    let reference = run_tokens(5, 1, 0xd, 5);
    for nshards in [2u32, 3] {
        assert_eq!(run_tokens(5, nshards, 0xd, 5), reference, "nshards={nshards}");
    }
}

/// Exhaustive sweep of small token configurations (thousands of
/// cases, ~15 s) on the nightly `--include-ignored` schedule; the
/// per-commit proptest above samples the same space.
#[test]
#[ignore]
fn exhaustive_small_configuration_sweep() {
    for hosts in 4u32..=12 {
        for nshards in [2u32, 3, 4] {
            for hops in 1u32..=20 {
                for mask in 1u16..64 {
                    let log = run_tokens(hosts, nshards, mask, hops);
                    let reference = run_tokens(hosts, 1, mask, hops);
                    assert_eq!(
                        log, reference,
                        "hosts={hosts} nshards={nshards} hops={hops} mask={mask:#x}"
                    );
                }
            }
        }
    }
}
