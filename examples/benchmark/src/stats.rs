//! Sample statistics and the digest the correctness checks compare.

/// Percentile `p` in `[0, 1]` of an ascending-sorted sample, linearly
/// interpolated between the two nearest ranks.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 0.5)
}

/// Distance between the quartiles as a share of the median.
pub fn iqr_ratio(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let mid = percentile(&s, 0.5);
    if mid == 0.0 {
        return 0.0;
    }
    (percentile(&s, 0.75) - percentile(&s, 0.25)) / mid
}

/// The highest order statistic with at least ten samples beyond it, as
/// `(value, percentile in percent)`. A sample of ten or fewer has no
/// such point, so its maximum is reported as what it is.
pub fn high_percentile(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples);
    let idx = if s.len() > 10 {
        s.len() - 11
    } else {
        s.len() - 1
    };
    (s[idx], 100.0 * (idx + 1) as f64 / s.len() as f64)
}

/// 64-bit FNV-1a, rendered as hex: the identity of one set of simulated
/// statistics, compared exactly between iterations, runs and commits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h = (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 0.25), 2.0);
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert_eq!(percentile(&[10.0, 20.0], 0.25), 12.5);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn iqr_ratio_is_quartile_distance_over_median() {
        // Quartiles of 1..=5 are 2 and 4, the median is 3.
        assert!((iqr_ratio(&[5.0, 4.0, 3.0, 2.0, 1.0]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(iqr_ratio(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(iqr_ratio(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn high_percentile_keeps_ten_samples_beyond() {
        let few: Vec<f64> = (1..=4).map(f64::from).collect();
        assert_eq!(high_percentile(&few), (4.0, 100.0));
        let many: Vec<f64> = (1..=40).map(f64::from).collect();
        let (v, pct) = high_percentile(&many);
        assert_eq!(v, 30.0);
        assert_eq!(pct, 75.0);
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
        assert_ne!(digest(b"ab"), digest(b"ba"));
    }
}
