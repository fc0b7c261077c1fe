//! The timing estimator: fastest rep, with p5 and the median beside it.
//!
//! On the 2-core shared KVM guest this was written on, identical reps
//! spread 30–40% and their medians 14–17% between sets, but the fastest
//! of many short reps repeated within 1–6% (see README.md, "Noise").
//! Every host-time metric is therefore computed from [`Estimate::fastest`];
//! `p5` and `median` are printed for information only.

/// Order statistics of one phase's rep times.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Estimate {
    /// Reps measured.
    pub n: usize,
    /// The fastest rep.
    pub fastest: f64,
    /// 5th percentile (nearest rank).
    pub p5: f64,
    /// Median (mean of the middle pair for even `n`).
    pub median: f64,
}

/// Summarizes `xs`.
///
/// # Panics
///
/// Panics if `xs` is empty or holds a NaN: both mean the harness timed
/// nothing, which is a bug.
#[must_use]
pub fn estimate(xs: &[f64]) -> Estimate {
    assert!(!xs.is_empty(), "no reps to estimate from");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("rep times are never NaN"));
    let n = v.len();
    let rank = (n * 5).div_ceil(100).max(1);
    Estimate {
        n,
        fastest: v[0],
        p5: v[rank - 1],
        median: median_sorted(&v),
    }
}

fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastest_p5_median_of_known_sets() {
        let e = estimate(&[5.0, 1.0, 3.0]);
        assert_eq!((e.n, e.fastest, e.p5, e.median), (3, 1.0, 1.0, 3.0));
        let e = estimate(&[4.0, 2.0, 8.0, 6.0]);
        assert_eq!((e.fastest, e.median), (2.0, 5.0));
        // 100 values 1..=100: nearest-rank p5 is the 5th smallest.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let e = estimate(&xs);
        assert_eq!((e.fastest, e.p5, e.median), (1.0, 5.0, 50.5));
        // 101 values: rank ceil(5.05) = 6.
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(estimate(&xs).p5, 6.0);
    }

    #[test]
    fn single_rep_is_all_three() {
        let e = estimate(&[7.5]);
        assert_eq!((e.fastest, e.p5, e.median), (7.5, 7.5, 7.5));
    }

    #[test]
    fn order_of_input_does_not_matter() {
        assert_eq!(
            estimate(&[3.0, 9.0, 1.0, 4.0]),
            estimate(&[9.0, 4.0, 3.0, 1.0])
        );
    }

    #[test]
    #[should_panic(expected = "no reps")]
    fn empty_input_is_a_bug() {
        let _ = estimate(&[]);
    }
}
