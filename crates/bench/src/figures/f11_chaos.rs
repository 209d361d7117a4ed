//! F11 — goodput and tail latency under packet loss, with and without
//! the reliable-delivery layer, per interconnect generation.
//!
//! A seeded [`FaultInjector`] judges every simulated transfer, exactly
//! as the executable fault plane does at the NIC level, so the whole
//! table is a deterministic function of the fault-plan seeds: running
//! the experiment twice replays the identical loss pattern and produces
//! bit-identical rows (the property the chaos-replay CI job asserts).
//!
//! The model mirrors the executable stack's semantics: a dropped frame
//! surfaces an error completion at the sender (fast retransmit, one
//! extra wire crossing), a dropped ACK costs a duplicate data frame
//! that the receiver's dedup window absorbs, and a frame that exhausts
//! the retry budget escalates to peer failure instead of retrying
//! forever.

use crate::table::Table;
use polaris_msg::config::{Protocol, MAX_RETRIES};
use polaris_msg::model::{p2p_time, HostParams};
use polaris_obs::Obs;
use polaris_simnet::fault::{FaultInjector, FaultPlan, FaultVerdict};
use polaris_simnet::link::{Generation, LinkId};
use polaris_simnet::time::SimTime;

const HOPS: u32 = 2; // node - switch - node
pub const MSGS: usize = 2000;
const BYTES: u64 = 4096;
pub const LOSS_RATES: [f64; 6] = [0.0, 0.001, 0.01, 0.05, 0.1, 0.5];

/// All per-scenario tallies live in the metrics registry under these
/// series, labelled `{gen, loss, mode}` — the table below is rendered
/// purely from registry reads, so anything the figure shows is also on
/// the wire for the exporters (and for the golden-trace test).
pub const DELIVERED: &str = "f11_delivered_total";
pub const RETRANS: &str = "f11_retransmits_total";
pub const BUDGET_FAILED: &str = "f11_budget_failed_total";
pub const LATENCY_PS: &str = "f11_latency_ps";
pub const TOTAL_PS: &str = "f11_total_ps";

/// Serialize `MSGS` eager messages through a channel whose per-transfer
/// fate the injector decides; `reliable` adds ACKs, fast retransmit on
/// error completions, dedup of ACK-loss duplicates, and the bounded
/// retry budget. All outcomes are recorded against `obs` under
/// `labels`; the injector also traces every injected fault.
fn run(obs: &Obs, labels: &[(&str, &str)], gen: Generation, loss: f64, reliable: bool, seed: u64) {
    let link = gen.link_model();
    let host = HostParams::default();
    let base = p2p_time(&link, HOPS, BYTES, Protocol::Eager, &host).as_ps();
    // An ACK is a header-only frame on the return path.
    let ack = p2p_time(&link, HOPS, 0, Protocol::Eager, &host).as_ps();
    let mut inj = FaultInjector::new(FaultPlan::new(seed).uniform_drop(loss));
    inj.set_obs(obs.clone());
    let route = [LinkId(0)];

    let delivered = obs.counter(DELIVERED, labels);
    let retransmissions = obs.counter(RETRANS, labels);
    let budget_failed = obs.counter(BUDGET_FAILED, labels);
    let latency = obs.histogram(LATENCY_PS, labels);

    let mut now: u64 = 0;
    for _ in 0..MSGS {
        let start = now;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            now += base; // one wire crossing, delivered or not
            match inj.judge(SimTime(now), 0, 1, &route) {
                FaultVerdict::Deliver | FaultVerdict::DeliverCorrupted => {
                    // Corruption is caught by the ICRC and behaves like a
                    // drop for an unreliable channel; with drop-only
                    // plans the corrupted arm never fires here.
                    if reliable {
                        match inj.judge(SimTime(now), 1, 0, &route) {
                            FaultVerdict::Deliver | FaultVerdict::DeliverCorrupted => now += ack,
                            FaultVerdict::Drop(_) => {
                                // Lost ACK: the sender retransmits once
                                // more; the receiver's dedup window eats
                                // the duplicate. Costs wire time only.
                                now += base;
                                retransmissions.inc();
                            }
                        }
                    }
                    delivered.inc();
                    latency.record(now - start);
                    break;
                }
                FaultVerdict::Drop(_) => {
                    if !reliable {
                        break; // silently lost
                    }
                    if attempts > MAX_RETRIES {
                        // Budget exhausted: escalate to peer-failure
                        // handling instead of retrying forever.
                        budget_failed.inc();
                        break;
                    }
                    // The NIC surfaced an error completion; the next
                    // attempt goes out on the following progress tick.
                    retransmissions.inc();
                }
            }
        }
    }
    obs.gauge(TOTAL_PS, labels).set(now as f64);
}

pub fn generate() -> Vec<Table> {
    generate_with(&Obs::new())
}

/// The pinned scenario the golden-trace test replays: a single cell of
/// the F11 grid (gigabit ethernet, 5% uniform loss, reliable delivery,
/// fixed seed), small enough for its full fault trace to fit the
/// recorder ring. Changing anything on this path invalidates the
/// committed snapshots under `tests/golden/` — regenerate them
/// deliberately, never casually.
pub fn golden_scenario(obs: &Obs) {
    let g = Generation::GigabitEthernet;
    let labels = [("gen", g.name()), ("loss", "0.05"), ("mode", "reliable")];
    run(obs, &labels, g, 0.05, true, 0xF11_5EED);
}

/// Run the full F11 grid against a caller-supplied observability plane
/// (expected fresh — counters are cumulative) and render the table from
/// registry reads only. The golden-trace test drives this directly to
/// assert byte-identical exports across same-seed runs.
pub fn generate_with(obs: &Obs) -> Vec<Table> {
    let mut t = Table::new(
        "F11",
        "goodput and p99 latency vs loss rate, raw vs reliable delivery",
        &[
            "generation",
            "loss",
            "mode",
            "goodput-MB/s",
            "delivered-%",
            "p99-us",
            "retrans",
            "budget-failed",
        ],
    );
    // Every (generation, loss) cell is an independent seeded scenario;
    // fan the grid out across the sweep threads. Each cell runs against an
    // isolated Obs that is merged back in grid order — label sets are
    // disjoint per cell, and the flight-recorder merge re-stamps
    // sequence numbers in the same order a serial grid walk records
    // them, so the registry exports, the trace JSONL, and the rendered
    // rows are byte-identical at any job count.
    let mut points = Vec::new();
    for (gi, g) in Generation::ALL.into_iter().enumerate() {
        for (li, &loss) in LOSS_RATES.iter().enumerate() {
            let seed = 0xF11_5EED ^ ((gi as u64) << 16) ^ (li as u64);
            points.push((g, loss, seed));
        }
    }
    let row_pairs = crate::sweep::sweep_obs(points, obs, |cell_obs, (g, loss, seed)| {
        let loss_s = format!("{loss}");
        [(false, "raw"), (true, "reliable")].map(|(reliable, mode)| {
            let labels = [("gen", g.name()), ("loss", loss_s.as_str()), ("mode", mode)];
            run(cell_obs, &labels, g, loss, reliable, seed);
            // Render the row purely from what the registry holds.
            let reg = &cell_obs.registry;
            let delivered = reg.counter_value(DELIVERED, &labels);
            let retrans = reg.counter_value(RETRANS, &labels);
            let failed = reg.counter_value(BUDGET_FAILED, &labels);
            let total_ps = reg.gauge_value(TOTAL_PS, &labels);
            // Quantiles interpolate within the rank's histogram bucket
            // (see `HistogramSnapshot::quantile`), so the p99 column's
            // residual resolution error is half a log-linear sub-bucket
            // (~±3%) rather than the old upper-bound convention's ≤ ~6%
            // systematic overestimate.
            let p99_ps = cell_obs.histogram(LATENCY_PS, &labels).quantile(0.99);
            let goodput = if total_ps == 0.0 {
                0.0
            } else {
                (delivered as f64 * BYTES as f64) / (total_ps * 1e-12) / 1e6
            };
            vec![
                g.name().to_string(),
                loss_s.clone(),
                mode.to_string(),
                format!("{goodput:.1}"),
                format!("{:.1}", 100.0 * delivered as f64 / MSGS as f64),
                format!("{:.1}", p99_ps as f64 * 1e-6),
                format!("{retrans}"),
                format!("{failed}"),
            ]
        })
    });
    for pair in row_pairs {
        for row in pair {
            t.row(row);
        }
    }
    t.note("expected: raw loses loss-rate of traffic; reliable delivers 100% below the budget cliff, paying a bounded p99 tail");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_for<'a>(t: &'a Table, gen: &str, loss: &str, mode: &str) -> Vec<&'a Vec<String>> {
        t.rows
            .iter()
            .filter(|r| r[0] == gen && r[1] == loss && r[2] == mode)
            .collect()
    }

    #[test]
    fn shapes_hold() {
        let tables = generate();
        let t = &tables[0];
        assert_eq!(t.rows.len(), Generation::ALL.len() * LOSS_RATES.len() * 2);
        for g in Generation::ALL {
            let name = g.name();
            // Lossless: both modes deliver everything, nothing retransmits.
            for mode in ["raw", "reliable"] {
                let r = rows_for(t, name, "0", mode)[0];
                assert_eq!(r[4], "100.0", "{name} {mode} lossless delivery");
                assert_eq!(r[7], "0");
            }
            // 10% loss: raw drops ~10%, reliable still delivers everything.
            let raw = rows_for(t, name, "0.1", "raw")[0];
            let raw_pct: f64 = raw[4].parse().unwrap();
            assert!((85.0..=95.0).contains(&raw_pct), "{name} raw: {raw_pct}");
            let rel = rows_for(t, name, "0.1", "reliable")[0];
            assert_eq!(rel[4], "100.0", "{name} reliable under 10% loss");
            let retrans: u64 = rel[6].parse().unwrap();
            assert!(retrans > 0, "{name}: loss must force retransmissions");
            // The retransmit tail shows up in p99.
            let raw_p99: f64 = raw[5].parse().unwrap();
            let rel_p99: f64 = rel[5].parse().unwrap();
            assert!(rel_p99 > raw_p99, "{name}: {rel_p99} vs {raw_p99}");
            // 50% loss: the bounded budget starts escalating to failure
            // instead of retrying forever.
            let cliff = rows_for(t, name, "0.5", "reliable")[0];
            let failed: u64 = cliff[7].parse().unwrap();
            assert!(failed > 0, "{name}: budget cliff must appear at 50% loss");
        }
    }

    #[test]
    fn replay_is_bit_identical() {
        // The entire experiment is a function of the fault-plan seeds:
        // regenerating must replay the identical loss pattern.
        let a = generate();
        let b = generate();
        assert_eq!(a[0].rows, b[0].rows);
    }
}
