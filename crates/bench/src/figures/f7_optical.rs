//! F7 — "anticipated advances in networking including … optical
//! switching": effective bandwidth of optical circuit switching versus
//! InfiniBand packet switching as a function of message size, cold and
//! warm circuits, and the amortization crossover.

use crate::table::{si_bytes, Table};
use polaris_simnet::circuit::{CircuitScheduler, CircuitSchedulerConfig};
use polaris_simnet::link::Generation;
use polaris_simnet::time::SimTime;

pub fn generate() -> Vec<Table> {
    let ib = Generation::InfiniBand4x.link_model();
    let hops = 4; // through a fat tree tier
    let cfg = CircuitSchedulerConfig::default();

    let mut t = Table::new(
        "F7",
        "effective bandwidth (MB/s): optical circuit vs InfiniBand packet",
        &["size", "ib-packet", "optical-cold", "optical-warm", "winner"],
    );
    for exp in [10u32, 13, 16, 19, 22, 25] {
        let bytes = 1u64 << exp;
        let t_pkt = ib.message_time(bytes, hops).as_secs();
        // Cold: reserve a circuit, then transfer, paying reconfiguration.
        // Warm: a second transfer on the same reservation.
        let mut s = CircuitScheduler::new(cfg);
        let r = s.try_reserve(SimTime::ZERO, 0, 1).expect("room");
        let cold = s.transfer(SimTime::ZERO, &r, bytes).expect("reserved");
        let warm = s.transfer(cold, &r, bytes).expect("reserved");
        let t_cold = cold.as_secs();
        let t_warm = warm.since(cold).as_secs();
        let bw = |t: f64| bytes as f64 / t / 1e6;
        let winner = if t_cold < t_pkt { "optical" } else { "packet" };
        t.row(vec![
            si_bytes(bytes),
            format!("{:.0}", bw(t_pkt)),
            format!("{:.0}", bw(t_cold)),
            format!("{:.0}", bw(t_warm)),
            winner.to_string(),
        ]);
    }
    let crossover = cfg.crossover_bytes(&ib, hops);
    t.note(format!(
        "cold-circuit amortization crossover: {} ({} bytes)",
        si_bytes(crossover),
        crossover
    ));
    t.note("expected: packet wins small transfers; circuits win once setup is amortized");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_divides_the_winners() {
        let tables = generate();
        let rows = &tables[0].rows;
        // Winner column flips from packet to optical exactly once.
        let winners: Vec<&str> = rows.iter().map(|r| r[4].as_str()).collect();
        let first_optical = winners.iter().position(|&w| w == "optical");
        let pos = first_optical.expect("optical must win eventually");
        assert!(pos > 0, "packet must win the smallest size");
        assert!(
            winners[pos..].iter().all(|&w| w == "optical"),
            "winner must not flip back: {winners:?}"
        );
    }

    #[test]
    fn warm_circuits_always_beat_cold() {
        let tables = generate();
        for row in &tables[0].rows {
            let cold: f64 = row[2].parse().unwrap();
            let warm: f64 = row[3].parse().unwrap();
            assert!(warm >= cold, "{row:?}");
        }
    }

    #[test]
    fn warm_optical_dominates_packet_at_large_sizes() {
        let tables = generate();
        let last = tables[0].rows.last().unwrap();
        let pkt: f64 = last[1].parse().unwrap();
        let warm: f64 = last[3].parse().unwrap();
        assert!(warm > 3.0 * pkt, "{last:?}");
    }
}
