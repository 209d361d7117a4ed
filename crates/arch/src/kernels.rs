//! Representative kernels and their operational characteristics.


/// A computational kernel characterized by its operational intensity
/// (flops per byte of memory traffic) and its latency sensitivity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Kernel {
    pub name: &'static str,
    /// Flops per byte moved to/from memory.
    pub intensity: f64,
    /// Fraction of memory accesses that are dependent random accesses
    /// (latency-bound rather than bandwidth-bound). 0 = pure streaming.
    pub random_fraction: f64,
}

/// The kernel suite used by experiment F4.
pub const DAXPY: Kernel = Kernel {
    name: "daxpy",
    // y[i] = a*x[i] + y[i]: 2 flops per 24 bytes (2 loads + 1 store).
    intensity: 2.0 / 24.0,
    random_fraction: 0.0,
};

pub const STENCIL7: Kernel = Kernel {
    name: "stencil-7pt",
    // 8 flops per point; with cache reuse ~2 memory ops of 8 bytes.
    intensity: 8.0 / 16.0,
    random_fraction: 0.0,
};

pub const FFT: Kernel = Kernel {
    name: "fft-1d",
    // 5 n log n flops over ~3 passes of the array per radix stage set.
    intensity: 1.5,
    random_fraction: 0.1,
};

pub const DGEMM: Kernel = Kernel {
    name: "dgemm-blocked",
    // Cache-blocked matrix multiply: high reuse.
    intensity: 16.0,
    random_fraction: 0.0,
};

pub const GUPS: Kernel = Kernel {
    name: "gups",
    // RandomAccess: one update (1 op counted as flop-equivalent) per
    // 8-byte random read-modify-write; fully dependent accesses.
    intensity: 1.0 / 16.0,
    random_fraction: 1.0,
};

pub const SUITE: [Kernel; 5] = [DAXPY, STENCIL7, FFT, DGEMM, GUPS];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_spans_the_intensity_range() {
        let min = SUITE.iter().map(|k| k.intensity).fold(f64::MAX, f64::min);
        let max = SUITE.iter().map(|k| k.intensity).fold(0.0, f64::max);
        assert!(min < 0.1, "need a bandwidth-bound kernel");
        assert!(max > 10.0, "need a compute-bound kernel");
    }

    #[test]
    fn gups_is_the_latency_kernel() {
        assert_eq!(GUPS.random_fraction, 1.0);
        assert!(SUITE
            .iter()
            .filter(|k| k.name != "gups")
            .all(|k| k.random_fraction < 0.5));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = SUITE.iter().map(|k| k.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SUITE.len());
    }
}
