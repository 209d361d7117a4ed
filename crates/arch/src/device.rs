//! Device-technology projection: the parameter curves the keynote builds
//! its argument on ("current projections of device technology to
//! anticipate the performance, capacity, power, size, and cost curves of
//! future commodity clusters").
//!
//! Anchored at a 2002 commodity node (single-socket ~2.4 GHz, SSE2-class
//! FPU, DDR-266 memory) with ITRS/Moore-style doubling periods. Each
//! quantity is modeled as `anchor · 2^((year − 2002)/doubling_years)`.
//! The *relative* periods carry the keynote's point: logic speed doubles
//! every 1.5 years, memory bandwidth only every 3 — the widening
//! bytes-per-flop gap is what makes "more of the same, only faster"
//! nodes a dead end and motivates CMP and PIM organizations.


/// The projection anchor year.
pub const ANCHOR_YEAR: u32 = 2002;

/// Doubling periods, in years.
#[derive(Debug, Clone, Copy)]
pub struct DoublingPeriods {
    /// Peak node floating-point rate (Moore + wider SIMD).
    pub flops: f64,
    /// Commodity DRAM bandwidth per node.
    pub mem_bandwidth: f64,
    /// DRAM capacity per node at constant cost.
    pub mem_capacity: f64,
    /// Performance per dollar.
    pub perf_per_dollar: f64,
    /// Performance per watt.
    pub perf_per_watt: f64,
}

impl Default for DoublingPeriods {
    fn default() -> Self {
        DoublingPeriods {
            flops: 1.5,
            mem_bandwidth: 3.0,
            mem_capacity: 2.0,
            perf_per_dollar: 1.5,
            perf_per_watt: 2.0,
        }
    }
}

/// A 2002 commodity-node anchor point.
#[derive(Debug, Clone, Copy)]
pub struct Anchor {
    /// Peak double-precision FLOP/s of one node.
    pub flops: f64,
    /// Sustainable memory bandwidth, bytes/s.
    pub mem_bw: f64,
    /// Memory latency, seconds.
    pub mem_latency: f64,
    /// DRAM capacity, bytes.
    pub mem_capacity: f64,
    /// Node cost, dollars.
    pub cost: f64,
    /// Node power draw, watts.
    pub power: f64,
}

impl Default for Anchor {
    fn default() -> Self {
        Anchor {
            flops: 4.8e9,            // 2.4 GHz x 2 DP flops/cycle
            mem_bw: 2.1e9,           // DDR-266 sustained
            mem_latency: 150e-9,     // load-to-use through the chipset
            mem_capacity: 1.0e9,     // 1 GB
            cost: 2_000.0,
            power: 250.0,
        }
    }
}

/// Projected device parameters for a given year.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DevicePoint {
    pub year: u32,
    pub flops: f64,
    pub mem_bw: f64,
    pub mem_latency: f64,
    pub mem_capacity: f64,
    pub cost: f64,
    pub power: f64,
}

impl DevicePoint {
    /// Machine balance in bytes per flop — the number whose decline the
    /// keynote's architecture discussion revolves around.
    pub fn bytes_per_flop(&self) -> f64 {
        self.mem_bw / self.flops
    }
}

/// The projection model.
#[derive(Debug, Clone, Copy, Default)]
pub struct Projection {
    pub anchor: Anchor,
    pub periods: DoublingPeriods,
}

impl Projection {
    fn grow(anchor: f64, years: f64, doubling: f64) -> f64 {
        anchor * 2f64.powf(years / doubling)
    }

    /// Project commodity-node parameters at `year` (>= 2002).
    pub fn at(&self, year: u32) -> DevicePoint {
        assert!(year >= ANCHOR_YEAR, "projection runs forward from 2002");
        let dy = (year - ANCHOR_YEAR) as f64;
        let p = &self.periods;
        let a = &self.anchor;
        let flops = Self::grow(a.flops, dy, p.flops);
        DevicePoint {
            year,
            flops,
            mem_bw: Self::grow(a.mem_bw, dy, p.mem_bandwidth),
            // Latency improves only marginally: ~5%/year.
            mem_latency: a.mem_latency * 0.95f64.powf(dy),
            mem_capacity: Self::grow(a.mem_capacity, dy, p.mem_capacity),
            // Node cost = flops / (flops per dollar); with the default
            // periods equal, commodity node price stays ~constant and
            // all the gain shows up as performance per dollar.
            cost: a.cost * (flops / a.flops) / Self::grow(1.0, dy, p.perf_per_dollar),
            power: a.power * (flops / a.flops) / Self::grow(1.0, dy, p.perf_per_watt),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchor_year_is_identity() {
        let p = Projection::default();
        let d = p.at(2002);
        assert_eq!(d.flops, p.anchor.flops);
        assert_eq!(d.mem_bw, p.anchor.mem_bw);
        assert_eq!(d.cost, p.anchor.cost);
        assert_eq!(d.power, p.anchor.power);
    }

    #[test]
    fn flops_double_every_18_months() {
        let p = Projection::default();
        let r = p.at(2005).flops / p.at(2002).flops;
        assert!((r - 4.0).abs() < 1e-9, "3 years = 2 doublings, got {r}");
    }

    #[test]
    fn bytes_per_flop_declines() {
        let p = Projection::default();
        let b02 = p.at(2002).bytes_per_flop();
        let b08 = p.at(2008).bytes_per_flop();
        assert!(b08 < b02 / 3.0, "memory wall must widen: {b02} -> {b08}");
    }

    #[test]
    fn capacity_and_bandwidth_growth_rates() {
        let p = Projection::default();
        assert!((p.at(2004).mem_capacity / p.at(2002).mem_capacity - 2.0).abs() < 1e-9);
        assert!((p.at(2005).mem_bw / p.at(2002).mem_bw - 2.0).abs() < 1e-9);
    }

    #[test]
    fn latency_improves_slowly() {
        let p = Projection::default();
        let l02 = p.at(2002).mem_latency;
        let l08 = p.at(2008).mem_latency;
        assert!(l08 < l02);
        assert!(l08 > l02 / 2.0, "latency must not track Moore's law");
    }

    #[test]
    fn power_grows_as_flops_outpace_efficiency() {
        // flops double per 1.5y, perf/W per 2y: node power rises.
        let p = Projection::default();
        assert!(p.at(2008).power > p.at(2002).power);
    }

    #[test]
    #[should_panic(expected = "forward from 2002")]
    fn backward_projection_rejected() {
        Projection::default().at(1999);
    }
}
