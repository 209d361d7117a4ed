//! Simulated time.
//!
//! Time is kept as an integer count of **picoseconds** so that link
//! serialization times for single bytes on multi-gigabit links are exactly
//! representable. A `u64` of picoseconds covers ~213 days of simulated
//! time, far beyond any experiment in this repository.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in picoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

pub const PS_PER_NS: u64 = 1_000;
pub const PS_PER_US: u64 = 1_000_000;
pub const PS_PER_MS: u64 = 1_000_000_000;
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);
    /// Largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    #[inline]
    pub fn as_ps(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    #[inline]
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / PS_PER_MS as f64
    }

    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`. Saturates at zero rather than
    /// panicking so callers comparing concurrent completions stay total.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }

    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }

    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * PS_PER_SEC)
    }

    /// Fractional seconds, rounding to the nearest picosecond. Negative
    /// inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * PS_PER_SEC as f64).round() as u64)
    }

    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Scale by an integer factor, saturating on overflow.
    #[inline]
    pub fn saturating_mul(self, k: u64) -> Self {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        self.0 = self.0.saturating_add(d.0);
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, other: SimDuration) {
        self.0 = self.0.saturating_add(other.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ps(self.0, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ps(self.0, f)
    }
}

fn fmt_ps(ps: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ps >= PS_PER_SEC {
        write!(f, "{:.3}s", ps as f64 / PS_PER_SEC as f64)
    } else if ps >= PS_PER_MS {
        write!(f, "{:.3}ms", ps as f64 / PS_PER_MS as f64)
    } else if ps >= PS_PER_US {
        write!(f, "{:.3}us", ps as f64 / PS_PER_US as f64)
    } else if ps >= PS_PER_NS {
        write!(f, "{:.3}ns", ps as f64 / PS_PER_NS as f64)
    } else {
        write!(f, "{ps}ps")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(SimDuration::from_us(3).as_ps(), 3 * PS_PER_US);
        assert_eq!(SimDuration::from_ns(7).as_ps(), 7_000);
        assert_eq!(SimDuration::from_secs(1).as_secs(), 1.0);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_us(5);
        assert_eq!(t.as_us(), 5.0);
        let t2 = t + SimDuration::from_us(10);
        assert_eq!(t2.since(t).as_us(), 10.0);
        // since() saturates rather than underflowing.
        assert_eq!(t.since(t2), SimDuration::ZERO);
    }

    #[test]
    fn saturating_behaviour() {
        let big = SimTime(u64::MAX - 10);
        assert_eq!(big + SimDuration::from_secs(1), SimTime::MAX);
        assert_eq!(
            SimDuration(u64::MAX).saturating_mul(2),
            SimDuration(u64::MAX)
        );
    }

    #[test]
    fn from_secs_f64_clamps_and_rounds() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1e-12), SimDuration(1));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_us(1).to_string(), "1.000us");
        assert_eq!(SimDuration(500).to_string(), "500ps");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn ordering_is_by_instant() {
        assert!(SimTime(1) < SimTime(2));
        assert!(SimDuration::from_ns(999) < SimDuration::from_us(1));
    }
}
