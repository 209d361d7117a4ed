//! Interconnect fabrics for workload runs: a link generation plus a
//! topology-derived per-message route cost.
//!
//! The sharded executor charges endpoint queueing itself; what a fabric
//! contributes is the contention-free route cost of each `(src, dst)`
//! pair — the hop count fed to [`LinkModel::message_time`], and for the
//! circuit-switched variant a fixed reconfiguration latency on every
//! cross-group message. Hop counts come from the real [`Topology`]
//! arithmetic (the same O(1) routing the packet-level network uses), so
//! a fat tree's pod locality and a dragonfly's group locality shape
//! workload completion times exactly as they shape F6/F13.

use polaris_collectives::parsim::{simulate_programs_sharded, PathCost, PathModel};
use polaris_collectives::program::Program;
use polaris_collectives::simx::{ExecParams, SimResult};
use polaris_simnet::circuit::CircuitSchedulerConfig;
use polaris_simnet::link::{Generation, LinkModel};
use polaris_simnet::shard::ShardRunStats;
use polaris_simnet::topology::{Topology, TopologyKind};

/// A named interconnect: link generation + route-cost model.
#[derive(Clone)]
pub struct Fabric {
    name: String,
    gen: Generation,
    link: LinkModel,
    path: PathModel,
    /// Hosts per locality group (dragonfly group; the whole machine
    /// otherwise) — lets workloads align hierarchy with the fabric.
    group_size: u32,
    hosts: u32,
}

impl Fabric {
    fn from_topology(name: &str, gen: Generation, topo: Topology) -> Fabric {
        let group_size = topo.group_size();
        let hosts = topo.hosts();
        let path = PathModel::new(move |s, d| PathCost {
            hops: topo.hops(s, d).max(1),
            extra_ps: 0,
        });
        Fabric {
            name: format!("{name}/{}", gen.name()),
            gen,
            link: gen.link_model(),
            path,
            group_size,
            hosts,
        }
    }

    /// Ideal single-switch crossbar: every route is two hops.
    pub fn crossbar(gen: Generation, p: u32) -> Fabric {
        Fabric::from_topology("crossbar", gen, Topology::new(TopologyKind::Crossbar { hosts: p }))
    }

    /// Smallest k-ary fat tree (partial pods allowed) with `p` hosts.
    pub fn fat_tree(gen: Generation, p: u32) -> Fabric {
        let mut k = 4u32;
        while k * (k / 2) * (k / 2) < p {
            k += 2;
        }
        let per_pod = (k / 2) * (k / 2);
        let pods = p.div_ceil(per_pod).max(1);
        Fabric::from_topology(
            "fat-tree",
            gen,
            Topology::new(TopologyKind::FatTreePods { k, pods }),
        )
    }

    /// Dragonfly of 16-host groups (4 routers x 4 hosts), minimal
    /// routing.
    pub fn dragonfly(gen: Generation, p: u32) -> Fabric {
        Fabric::from_topology("dragonfly", gen, Topology::new(dragonfly_kind(p)))
    }

    /// Dragonfly whose global links are circuit-switched: a cross-group
    /// message rides a freshly scheduled end-to-end circuit — two hops
    /// of wire, but a full optical reconfiguration latency up front.
    /// Intra-group traffic routes as in [`Fabric::dragonfly`].
    pub fn dragonfly_circuits(gen: Generation, p: u32) -> Fabric {
        let topo = Topology::new(dragonfly_kind(p));
        let group_size = topo.group_size();
        let hosts = topo.hosts();
        let reconfig_ps = CircuitSchedulerConfig::default().reconfig.as_ps();
        let path = PathModel::new(move |s, d| {
            if topo.group_of(s) != topo.group_of(d) {
                PathCost { hops: 2, extra_ps: reconfig_ps }
            } else {
                PathCost { hops: topo.hops(s, d).max(1), extra_ps: 0 }
            }
        });
        Fabric {
            name: format!("dragonfly-circuit/{}", gen.name()),
            gen,
            link: gen.link_model(),
            path,
            group_size,
            hosts,
        }
    }

    /// The interconnect-generation sweep of figure F14: one fabric per
    /// era, from the 2002 commodity baseline to circuit-augmented
    /// optics.
    pub fn standard(p: u32) -> Vec<Fabric> {
        vec![
            Fabric::crossbar(Generation::GigabitEthernet, p),
            Fabric::fat_tree(Generation::InfiniBand4x, p),
            Fabric::dragonfly(Generation::Optical, p),
            Fabric::dragonfly_circuits(Generation::Optical, p),
        ]
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn generation(&self) -> Generation {
        self.gen
    }

    pub fn link(&self) -> LinkModel {
        self.link
    }

    pub fn group_size(&self) -> u32 {
        self.group_size
    }

    pub fn hosts(&self) -> u32 {
        self.hosts
    }

    /// Contention-free route cost between two ranks.
    pub fn path_cost(&self, src: u32, dst: u32) -> PathCost {
        self.path.cost(src, dst)
    }

    /// Execute per-rank programs over this fabric, sharded across
    /// `jobs` engine shards. Bit-identical at any `jobs` value.
    pub fn run(
        &self,
        programs: Vec<Program>,
        params: ExecParams,
        jobs: u32,
    ) -> (SimResult, ShardRunStats) {
        simulate_programs_sharded(programs, params, self.link, Some(self.path.clone()), jobs)
    }
}

fn dragonfly_kind(p: u32) -> TopologyKind {
    TopologyKind::Dragonfly {
        groups: p.div_ceil(16).max(2),
        routers_per_group: 4,
        hosts_per_router: 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabrics_cover_the_requested_ranks() {
        for p in [8u32, 64, 100, 512] {
            for f in Fabric::standard(p) {
                assert!(f.hosts() >= p, "{} hosts {} < {p}", f.name(), f.hosts());
                // Every distinct pair routes with at least one hop.
                let c = f.path_cost(0, p - 1);
                assert!(c.hops >= 1, "{}", f.name());
            }
        }
    }

    #[test]
    fn locality_is_visible_in_route_costs() {
        let df = Fabric::dragonfly(Generation::Optical, 64);
        // Same router < same group < cross group.
        let near = df.path_cost(0, 1).hops;
        let group = df.path_cost(0, 5).hops;
        let far = df.path_cost(0, 63).hops;
        assert!(near <= group && group <= far, "{near} {group} {far}");
        assert!(far > near);

        let ft = Fabric::fat_tree(Generation::InfiniBand4x, 64);
        assert!(ft.path_cost(0, 1).hops < ft.path_cost(0, 63).hops);
    }

    #[test]
    fn circuits_charge_reconfig_only_across_groups() {
        let dfc = Fabric::dragonfly_circuits(Generation::Optical, 64);
        assert_eq!(dfc.path_cost(0, 1).extra_ps, 0);
        let cross = dfc.path_cost(0, 63);
        assert_eq!(cross.hops, 2);
        assert_eq!(
            cross.extra_ps,
            CircuitSchedulerConfig::default().reconfig.as_ps()
        );
    }
}
