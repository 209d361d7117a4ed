//! Availability timeline: piecewise-constant free-node count over future
//! time, used by conservative backfill to place reservations.

/// Node availability from a reference time onward, as a base level plus
/// step changes at future instants.
#[derive(Debug, Clone)]
pub struct Timeline {
    origin: f64,
    base: i64,
    /// (time, delta) steps, kept sorted by time.
    steps: Vec<(f64, i64)>,
}

impl Timeline {
    pub fn new(origin: f64, free_now: u32) -> Self {
        Timeline {
            origin,
            base: free_now as i64,
            steps: Vec::new(),
        }
    }

    /// Add `width` nodes back at `time` (a running job's estimated end).
    pub fn release_at(&mut self, time: f64, width: u32) {
        self.add_step(time, width as i64);
    }

    fn add_step(&mut self, time: f64, delta: i64) {
        let time = time.max(self.origin);
        let pos = self
            .steps
            .partition_point(|&(t, _)| t <= time);
        self.steps.insert(pos, (time, delta));
    }

    /// Free nodes at time `t` (t >= origin).
    pub fn avail_at(&self, t: f64) -> i64 {
        self.base
            + self
                .steps
                .iter()
                .take_while(|&&(st, _)| st <= t)
                .map(|&(_, d)| d)
                .sum::<i64>()
    }

    /// Earliest time >= origin at which `width` nodes stay free for
    /// `duration` seconds; `INFINITY` when no step opens such a window
    /// (the level after the last step is final).
    ///
    /// One pass over the sorted steps, carrying the level and the start
    /// of the run of sufficient levels the sweep is in. A dip ends the run
    /// and rules out every start inside it: each of their windows reaches
    /// at least as far as the run's first.
    pub fn earliest_fit(&self, width: u32, duration: f64) -> f64 {
        let w = width as i64;
        let mut level = self.base;
        let mut fit: Option<f64> = None;
        let mut at = self.origin;
        let mut next = 0;
        loop {
            // Steps at one instant apply together: `level` is avail_at(at).
            while next < self.steps.len() && self.steps[next].0 <= at {
                level += self.steps[next].1;
                next += 1;
            }
            fit = match fit {
                // Only a step inside the window can spoil it.
                Some(start) if at < start + duration => (level >= w).then_some(start),
                Some(start) => return start,
                None => (level >= w).then_some(at),
            };
            match self.steps.get(next) {
                Some(&(t, _)) => at = t,
                None => return fit.unwrap_or(f64::INFINITY),
            }
        }
    }

    /// Reserve `width` nodes over `[start, start + duration)`.
    pub fn commit(&mut self, start: f64, duration: f64, width: u32) {
        self.add_step(start, -(width as i64));
        self.add_step(start + duration, width as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_simnet::rng::SplitMix64;

    /// The search `earliest_fit` replaced, kept as its oracle: try every
    /// step time as a start and re-walk the steps inside its window.
    fn earliest_fit_reference(tl: &Timeline, width: u32, duration: f64) -> f64 {
        let w = width as i64;
        let mut candidates = vec![tl.origin];
        candidates.extend(tl.steps.iter().map(|&(t, _)| t));
        candidates.sort_by(|a, b| a.total_cmp(b));
        candidates.dedup();
        'outer: for &start in &candidates {
            if tl.avail_at(start) < w {
                continue;
            }
            let end = start + duration;
            for &(t, _) in &tl.steps {
                if t > start && t < end && tl.avail_at(t) < w {
                    continue 'outer;
                }
            }
            return start;
        }
        f64::INFINITY
    }

    /// Seeded random timelines — releases and reservations on a coarse
    /// time grid, so that steps land on the origin, on each other and on
    /// window ends — must give the oracle's instant bit for bit, for
    /// zero widths and durations and unsatisfiable widths too.
    #[test]
    fn earliest_fit_matches_the_reference_search_bit_for_bit() {
        let mut rng = SplitMix64::new(0x71E1);
        let (mut queries, mut unsatisfiable, mut deferred) = (0u32, 0u32, 0u32);
        for case in 0..2_000 {
            let origin = [0.0, 17.5, 1e6][case % 3];
            // `lo..=hi` draws `lo + next_below(hi - lo + 1)`.
            let nodes = rng.next_below(13) as u32;
            let mut tl = Timeline::new(origin, rng.next_below(u64::from(nodes) + 1) as u32);
            for _ in 0..rng.next_below(17) {
                // A quarter-second grid, reaching back before the origin.
                let time = origin + (rng.next_below(65) as f64 - 4.0) * 0.25;
                let width = rng.next_below(5) as u32;
                if rng.chance(0.5) {
                    tl.release_at(time, width);
                } else {
                    tl.commit(time, rng.next_below(25) as f64 * 0.25, width);
                }
            }
            for _ in 0..20 {
                let width = rng.next_below(u64::from(nodes) + 3) as u32;
                let duration = match rng.next_below(10) {
                    0 => 0.0,
                    1 => f64::INFINITY,
                    _ => (1 + rng.next_below(40)) as f64 * 0.25,
                };
                let got = tl.earliest_fit(width, duration);
                let want = earliest_fit_reference(&tl, width, duration);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "case {case}: {tl:?} width {width} duration {duration}: {got} vs {want}"
                );
                queries += 1;
                unsatisfiable += u32::from(got == f64::INFINITY);
                deferred += u32::from(got > origin && got.is_finite());
            }
        }
        // The draw must reach every kind of answer, not only "now".
        assert!(unsatisfiable > queries / 50, "{unsatisfiable} of {queries}");
        assert!(deferred > queries / 10, "{deferred} of {queries}");
    }

    #[test]
    fn empty_timeline_fits_immediately() {
        let tl = Timeline::new(10.0, 4);
        assert_eq!(tl.avail_at(10.0), 4);
        assert_eq!(tl.earliest_fit(4, 100.0), 10.0);
        assert_eq!(tl.earliest_fit(5, 1.0), f64::INFINITY);
    }

    #[test]
    fn releases_open_windows() {
        let mut tl = Timeline::new(0.0, 1);
        tl.release_at(100.0, 3);
        assert_eq!(tl.avail_at(0.0), 1);
        assert_eq!(tl.avail_at(100.0), 4);
        assert_eq!(tl.earliest_fit(1, 10.0), 0.0);
        assert_eq!(tl.earliest_fit(2, 10.0), 100.0);
    }

    #[test]
    fn commit_blocks_the_window() {
        let mut tl = Timeline::new(0.0, 4);
        tl.commit(0.0, 50.0, 4);
        assert_eq!(tl.avail_at(0.0), 0);
        assert_eq!(tl.avail_at(50.0), 4);
        assert_eq!(tl.earliest_fit(2, 10.0), 50.0);
    }

    #[test]
    fn dips_inside_the_window_are_respected() {
        let mut tl = Timeline::new(0.0, 4);
        // A reservation occupies 3 nodes during [20, 40).
        tl.commit(20.0, 20.0, 3);
        // A 2-node job of 30s cannot start at 0 (dip at 20) nor at 20;
        // earliest is 40.
        assert_eq!(tl.earliest_fit(2, 30.0), 40.0);
        // But a 1-node job fits right away.
        assert_eq!(tl.earliest_fit(1, 30.0), 0.0);
    }

    #[test]
    fn steps_before_origin_clamp() {
        let mut tl = Timeline::new(100.0, 0);
        tl.release_at(50.0, 2); // already released in the past
        assert_eq!(tl.avail_at(100.0), 2);
    }
}
