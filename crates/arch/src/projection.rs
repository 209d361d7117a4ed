//! Cluster-level projections: the keynote's trans-Petaflops question.
//!
//! Given a node architecture and a procurement constraint (fixed budget
//! or fixed power envelope), project the cluster's aggregate peak,
//! memory, power, footprint, and cost per GFLOPS across the decade, and
//! find the year each track crosses 1 PFLOPS.

use crate::device::Projection;
use crate::node::{NodeKind, NodeModel};

/// Procurement constraint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Constraint {
    /// Spend at most this many dollars on nodes.
    Budget(f64),
    /// Draw at most this many watts.
    Power(f64),
    /// Install at most this many racks.
    Racks(u32),
}

/// One year's cluster-level numbers for a node track.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterPoint {
    pub year: u32,
    pub kind: NodeKind,
    pub nodes: u64,
    /// Aggregate peak FLOP/s.
    pub peak_flops: f64,
    /// Aggregate memory, bytes.
    pub memory: f64,
    /// Total power, watts.
    pub power: f64,
    /// Racks occupied.
    pub racks: f64,
    /// Total cost, dollars.
    pub cost: f64,
}

impl ClusterPoint {
    pub fn dollars_per_gflops(&self) -> f64 {
        self.cost / (self.peak_flops / 1e9)
    }

    pub fn peak_tflops(&self) -> f64 {
        self.peak_flops / 1e12
    }
}

/// Build the cluster a constraint affords in `year` on the given track.
pub fn cluster_at(
    proj: &Projection,
    kind: NodeKind,
    constraint: Constraint,
    year: u32,
) -> ClusterPoint {
    let node = NodeModel::build(kind, &proj.at(year));
    let nodes = match constraint {
        Constraint::Budget(b) => (b / node.cost).floor() as u64,
        Constraint::Power(w) => (w / node.power).floor() as u64,
        Constraint::Racks(r) => (r as u64) * node.per_rack as u64,
    };
    ClusterPoint {
        year,
        kind,
        nodes,
        peak_flops: nodes as f64 * node.flops,
        memory: nodes as f64 * node.mem_capacity,
        power: nodes as f64 * node.power,
        racks: nodes as f64 / node.per_rack as f64,
        cost: nodes as f64 * node.cost,
    }
}

/// The full curve over an inclusive year range.
pub fn curve(
    proj: &Projection,
    kind: NodeKind,
    constraint: Constraint,
    years: std::ops::RangeInclusive<u32>,
) -> Vec<ClusterPoint> {
    years.map(|y| cluster_at(proj, kind, constraint, y)).collect()
}

/// The default crossover search range, the keynote's planning horizon.
pub const DEFAULT_HORIZON: std::ops::RangeInclusive<u32> = 2002..=2020;

/// Outcome of a crossover search over an explicit year range. The old
/// `Option<u32>` API collapsed two very different "no" answers into
/// `None`; this keeps them apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Crossing {
    /// First year inside the range the curve reaches the target.
    At(u32),
    /// The curve is still growing at the end of the range but has not
    /// reached the target — a longer horizon may cross.
    BeyondHorizon,
    /// The curve has stopped growing (or never produced anything)
    /// short of the target: no horizon extension crosses.
    Never,
}

impl Crossing {
    /// Render for tables: the year, `>H` for growth past the horizon
    /// `H`, or `never`.
    pub fn label(self, horizon: u32) -> String {
        match self {
            Crossing::At(y) => y.to_string(),
            Crossing::BeyondHorizon => format!(">{horizon}"),
            Crossing::Never => "never".into(),
        }
    }

    pub fn year(self) -> Option<u32> {
        match self {
            Crossing::At(y) => Some(y),
            _ => None,
        }
    }
}

/// Generic crossover search: the first year in `years` where
/// `value_at(year) >= target`. When nothing in the range crosses, the
/// last two years decide between [`Crossing::BeyondHorizon`] (still
/// growing) and [`Crossing::Never`] (flat, shrinking, or zero); a
/// single-year range grows if it produced anything, an empty one never
/// does. `value_at` runs at most once per year, and only on years in the
/// range; F14's *effective*-FLOP/s curves pay a simulation for a call
/// only where their engine-free bound cannot decide it. Used by the
/// peak-FLOP/s search below as well.
pub fn crossing_in(
    years: std::ops::RangeInclusive<u32>,
    target: f64,
    mut value_at: impl FnMut(u32) -> f64,
) -> Crossing {
    // The two most recent values; a curve starts from nothing.
    let (mut before, mut last) = (0.0, 0.0);
    for y in years {
        (before, last) = (last, value_at(y));
        if last >= target {
            return Crossing::At(y);
        }
    }
    if last > before {
        Crossing::BeyondHorizon
    } else {
        Crossing::Never
    }
}

/// First year in `years` the track's peak reaches `target` FLOP/s under
/// the constraint.
pub fn crossover_year_in(
    proj: &Projection,
    kind: NodeKind,
    constraint: Constraint,
    target: f64,
    years: std::ops::RangeInclusive<u32>,
) -> Crossing {
    crossing_in(years, target, |y| {
        cluster_at(proj, kind, constraint, y).peak_flops
    })
}

/// First year (searching the default 2002..=2020 horizon) the track
/// reaches `target` FLOP/s under the constraint, if any. Thin wrapper
/// over [`crossover_year_in`] kept for callers that don't care *why*
/// the target was missed.
pub fn crossover_year(
    proj: &Projection,
    kind: NodeKind,
    constraint: Constraint,
    target: f64,
) -> Option<u32> {
    crossover_year_in(proj, kind, constraint, target, DEFAULT_HORIZON).year()
}

/// One petaflops, the keynote's "trans-Petaflops regime" threshold.
pub const PETAFLOPS: f64 = 1e15;

#[cfg(test)]
mod tests {
    use super::*;

    fn proj() -> Projection {
        Projection::default()
    }

    #[test]
    fn budget_cluster_2002_is_plausible() {
        // $1M of 2002 PC nodes: ~500 nodes, ~2.4 TFLOPS peak — the scale
        // of a mid-list Beowulf of the day.
        let c = cluster_at(&proj(), NodeKind::Pc, Constraint::Budget(1e6), 2002);
        assert_eq!(c.nodes, 500);
        assert!((2.0..3.0).contains(&c.peak_tflops()), "{}", c.peak_tflops());
        assert!(c.power > 100_000.0); // ~125 kW
    }

    #[test]
    fn peak_grows_along_the_curve() {
        let pts = curve(&proj(), NodeKind::Pc, Constraint::Budget(1e6), 2002..=2010);
        assert_eq!(pts.len(), 9);
        for w in pts.windows(2) {
            assert!(w[1].peak_flops > w[0].peak_flops);
        }
        // Cost per GFLOPS falls.
        assert!(pts[8].dollars_per_gflops() < pts[0].dollars_per_gflops() / 10.0);
    }

    #[test]
    fn blade_track_crosses_petaflops_before_pc_under_racks() {
        // Fixed 100-rack machine room: density decides.
        let c = Constraint::Racks(100);
        let pc = crossover_year(&proj(), NodeKind::Pc, c, PETAFLOPS);
        let blade = crossover_year(&proj(), NodeKind::Blade, c, PETAFLOPS);
        let (pc, blade) = (pc.expect("pc crosses by 2020"), blade.expect("blade crosses"));
        assert!(blade < pc, "blade {blade} vs pc {pc}");
    }

    #[test]
    fn cmp_track_crosses_petaflops_before_pc_under_budget() {
        let c = Constraint::Budget(10e6);
        let pc = crossover_year(&proj(), NodeKind::Pc, c, PETAFLOPS).expect("pc");
        let cmp = crossover_year(&proj(), NodeKind::SmpOnChip, c, PETAFLOPS).expect("cmp");
        assert!(cmp < pc, "cmp {cmp} vs pc {pc}");
        // And the crossing lands within the keynote's "this decade".
        assert!((2002..=2012).contains(&cmp), "cmp year {cmp}");
    }

    #[test]
    fn power_constrained_track_favors_efficient_nodes() {
        let c = Constraint::Power(2e6); // a 2 MW machine room
        let y = 2008;
        let pc = cluster_at(&proj(), NodeKind::Pc, c, y);
        let pim = cluster_at(&proj(), NodeKind::Pim, c, y);
        let blade = cluster_at(&proj(), NodeKind::Blade, c, y);
        assert!(blade.peak_flops > pc.peak_flops);
        // PIM fields far more nodes under the cap.
        assert!(pim.nodes > 2 * pc.nodes);
    }

    #[test]
    fn crossover_none_when_target_unreachable() {
        let c = Constraint::Budget(1_000.0); // one node's worth
        assert_eq!(
            crossover_year(&proj(), NodeKind::Pc, c, 1e30),
            None
        );
    }

    #[test]
    fn crossing_distinguishes_horizon_from_never() {
        // A growing curve that misses an absurd target: the horizon is
        // the problem, not the curve.
        let c = Constraint::Budget(10e6);
        assert_eq!(
            crossover_year_in(&proj(), NodeKind::Pc, c, 1e30, DEFAULT_HORIZON),
            Crossing::BeyondHorizon
        );
        // A budget below one node's cost for the whole range: the curve
        // is zero forever — no horizon extension helps.
        let tiny = Constraint::Budget(1.0);
        assert_eq!(
            crossover_year_in(&proj(), NodeKind::Pc, tiny, PETAFLOPS, 2002..=2005),
            Crossing::Never
        );
        // Labels for the figure columns.
        assert_eq!(Crossing::At(2008).label(2020), "2008");
        assert_eq!(Crossing::BeyondHorizon.label(2020), ">2020");
        assert_eq!(Crossing::Never.label(2020), "never");
    }

    #[test]
    fn crossover_range_is_honoured() {
        let c = Constraint::Budget(10e6);
        let full = crossover_year(&proj(), NodeKind::SmpOnChip, c, PETAFLOPS)
            .expect("cmp crosses inside the default horizon");
        // A range ending before the crossing year must not find it…
        assert_eq!(
            crossover_year_in(&proj(), NodeKind::SmpOnChip, c, PETAFLOPS, 2002..=full - 1),
            Crossing::BeyondHorizon
        );
        // …and a range starting after it finds the range's first year.
        assert_eq!(
            crossover_year_in(&proj(), NodeKind::SmpOnChip, c, PETAFLOPS, full + 1..=2020),
            Crossing::At(full + 1)
        );
        // The generic search agrees with the specialised one.
        assert_eq!(
            crossing_in(DEFAULT_HORIZON, PETAFLOPS, |y| {
                cluster_at(&proj(), NodeKind::SmpOnChip, c, y).peak_flops
            }),
            Crossing::At(full)
        );
    }

    /// The last two years decide the verdict, and the search loop has
    /// already computed both: no year is evaluated twice (F14c's curves
    /// cost a simulation per call), and the verdicts are what evaluating
    /// them again used to give.
    #[test]
    fn crossing_evaluates_each_year_at_most_once() {
        use std::ops::RangeInclusive;
        fn check(years: RangeInclusive<u32>, target: f64, curve: fn(u32) -> f64, want: Crossing) {
            let mut asked = Vec::new();
            let got = crossing_in(years.clone(), target, |y| {
                asked.push(y);
                curve(y)
            });
            assert_eq!(got, want, "{years:?} target {target}");
            // Every year up to the answer, once, in order; none after it.
            let upto = got.year().unwrap_or(*years.end());
            let expected: Vec<u32> = (*years.start()..=upto).collect();
            assert_eq!(asked, expected, "{years:?} target {target}");
        }
        let growing: fn(u32) -> f64 = |y| f64::from(y - 2000);
        let shrinking: fn(u32) -> f64 = |y| f64::from(2100 - y);
        check(2002..=2020, 1e9, growing, Crossing::BeyondHorizon);
        check(2002..=2020, 1e9, |_| 5.0, Crossing::Never);
        check(2002..=2020, 1e9, shrinking, Crossing::Never);
        check(2002..=2020, 1e9, |_| 0.0, Crossing::Never);
        check(2002..=2020, 12.0, growing, Crossing::At(2012));
        check(2002..=2020, 20.0, growing, Crossing::At(2020));
        check(2002..=2020, 1.0, growing, Crossing::At(2002));
        check(2010..=2010, 1e9, growing, Crossing::BeyondHorizon);
        check(2010..=2010, 1e9, |_| 0.0, Crossing::Never);
        // An empty range has no year to ask about.
        #[allow(clippy::reversed_empty_ranges)]
        let empty = 2020..=2002;
        let never_asked = |y| panic!("asked about {y}");
        assert_eq!(crossing_in(empty, 1.0, never_asked), Crossing::Never);
    }

    #[test]
    fn curves_are_deterministic() {
        let run = || curve(&proj(), NodeKind::Blade, Constraint::Budget(1e6), 2002..=2004);
        assert_eq!(run(), run());
    }
}
