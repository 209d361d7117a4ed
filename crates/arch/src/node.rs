//! Node-architecture models: the keynote's "revolutionary structures
//! embodied by the nodes".
//!
//! Four organizations built from the same device-technology point:
//!
//! * **PC node** — the plain 1U Beowulf box: the baseline track.
//! * **Blade** — same silicon, engineered for density and power: shared
//!   cooling/power drops watts, 3–4× the nodes per rack.
//! * **SMP-on-chip (CMP)** — multiple cores on one die: multiplies peak
//!   flops but shares one memory interface, cutting bytes-per-flop.
//! * **PIM (processor in memory)** — modest logic embedded in the DRAM
//!   arrays: a fraction of the peak flops but an order of magnitude more
//!   usable memory bandwidth at far lower power.

use crate::device::DevicePoint;

/// The node organizations under study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    Pc,
    Blade,
    SmpOnChip,
    Pim,
}

impl NodeKind {
    pub const ALL: [NodeKind; 4] = [
        NodeKind::Pc,
        NodeKind::Blade,
        NodeKind::SmpOnChip,
        NodeKind::Pim,
    ];

    pub fn name(self) -> &'static str {
        match self {
            NodeKind::Pc => "pc-1u",
            NodeKind::Blade => "blade",
            NodeKind::SmpOnChip => "smp-on-chip",
            NodeKind::Pim => "pim",
        }
    }
}

/// A concrete node model derived from a device point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeModel {
    pub kind: NodeKind,
    pub year: u32,
    /// Peak FLOP/s.
    pub flops: f64,
    /// Sustainable memory bandwidth, bytes/s.
    pub mem_bw: f64,
    /// Memory latency, seconds.
    pub mem_latency: f64,
    /// Memory capacity, bytes.
    pub mem_capacity: f64,
    /// Cost, dollars.
    pub cost: f64,
    /// Power, watts.
    pub power: f64,
    /// Nodes per standard rack.
    pub per_rack: u32,
}

impl NodeModel {
    /// Build a node of `kind` from the projected device point `d`.
    pub fn build(kind: NodeKind, d: &DevicePoint) -> NodeModel {
        // CMP core count grows with the transistor budget: 1 core in
        // 2002, doubling every ~2 years once the single-core track
        // saturates.
        let cmp_cores = (2f64.powf((d.year.saturating_sub(2002)) as f64 / 2.0)).round().max(1.0);
        match kind {
            NodeKind::Pc => NodeModel {
                kind,
                year: d.year,
                flops: d.flops,
                mem_bw: d.mem_bw,
                mem_latency: d.mem_latency,
                mem_capacity: d.mem_capacity,
                cost: d.cost,
                power: d.power,
                per_rack: 42,
            },
            NodeKind::Blade => NodeModel {
                kind,
                year: d.year,
                flops: d.flops * 0.9, // slightly down-clocked for thermals
                mem_bw: d.mem_bw,
                mem_latency: d.mem_latency,
                mem_capacity: d.mem_capacity * 0.5, // fewer DIMM slots
                cost: d.cost * 1.1,                 // enclosure amortized
                power: d.power * 0.6,               // shared PSU/cooling
                per_rack: 144,
            },
            NodeKind::SmpOnChip => NodeModel {
                kind,
                year: d.year,
                // All cores' peak, at a slightly lower clock.
                flops: d.flops * cmp_cores * 0.85,
                // One memory interface, modestly wider than the PC's.
                mem_bw: d.mem_bw * 1.5,
                mem_latency: d.mem_latency,
                mem_capacity: d.mem_capacity,
                cost: d.cost * 1.4,
                power: d.power * 1.3,
                per_rack: 42,
            },
            NodeKind::Pim => NodeModel {
                kind,
                year: d.year,
                // Simple in-order logic in a DRAM process.
                flops: d.flops * 0.25,
                // Row-buffer bandwidth, not pin bandwidth.
                mem_bw: d.mem_bw * 15.0,
                mem_latency: d.mem_latency * 0.2, // on-die access
                mem_capacity: d.mem_capacity * 0.5,
                cost: d.cost * 0.8,
                power: d.power * 0.3,
                per_rack: 128,
            },
        }
    }

    /// Machine balance, bytes per flop.
    pub fn bytes_per_flop(&self) -> f64 {
        self.mem_bw / self.flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Projection;

    fn at(year: u32) -> DevicePoint {
        Projection::default().at(year)
    }

    #[test]
    fn all_kinds_build() {
        let d = at(2002);
        for kind in NodeKind::ALL {
            let n = NodeModel::build(kind, &d);
            assert!(n.flops > 0.0 && n.mem_bw > 0.0 && n.cost > 0.0 && n.power > 0.0);
            assert_eq!(n.year, 2002);
        }
    }

    #[test]
    fn pim_has_the_most_balance_cmp_the_least() {
        let d = at(2006);
        let balance: Vec<(NodeKind, f64)> = NodeKind::ALL
            .iter()
            .map(|&k| (k, NodeModel::build(k, &d).bytes_per_flop()))
            .collect();
        let pim = balance.iter().find(|(k, _)| *k == NodeKind::Pim).unwrap().1;
        let cmp = balance
            .iter()
            .find(|(k, _)| *k == NodeKind::SmpOnChip)
            .unwrap()
            .1;
        let pc = balance.iter().find(|(k, _)| *k == NodeKind::Pc).unwrap().1;
        assert!(pim > 10.0 * pc, "PIM balance {pim} vs PC {pc}");
        assert!(cmp < pc, "CMP must be more bandwidth-starved than PC");
    }

    #[test]
    fn cmp_peak_grows_faster_than_pc() {
        let r2002 = {
            let d = at(2002);
            NodeModel::build(NodeKind::SmpOnChip, &d).flops / NodeModel::build(NodeKind::Pc, &d).flops
        };
        let r2008 = {
            let d = at(2008);
            NodeModel::build(NodeKind::SmpOnChip, &d).flops / NodeModel::build(NodeKind::Pc, &d).flops
        };
        assert!(r2008 > 2.0 * r2002, "core-count scaling missing");
    }

    #[test]
    fn blade_density_and_power_advantage() {
        let d = at(2004);
        let pc = NodeModel::build(NodeKind::Pc, &d);
        let blade = NodeModel::build(NodeKind::Blade, &d);
        assert!(blade.per_rack > 3 * pc.per_rack);
        assert!(blade.power < pc.power);
        // Rack-level peak favors blades strongly.
        let rack_pc = pc.flops * pc.per_rack as f64;
        let rack_blade = blade.flops * blade.per_rack as f64;
        assert!(rack_blade > 2.5 * rack_pc);
    }

    #[test]
    fn pim_power_efficiency() {
        let d = at(2004);
        let pc = NodeModel::build(NodeKind::Pc, &d);
        let pim = NodeModel::build(NodeKind::Pim, &d);
        // Flops per watt: PIM competitive despite lower peak.
        let fpw_pc = pc.flops / pc.power;
        let fpw_pim = pim.flops / pim.power;
        assert!(fpw_pim > 0.5 * fpw_pc);
        // Bandwidth per watt: PIM dominant.
        assert!(pim.mem_bw / pim.power > 10.0 * (pc.mem_bw / pc.power));
    }
}
