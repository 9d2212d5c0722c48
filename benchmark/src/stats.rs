//! Order statistics for latencies and for the run-to-run self-check.

/// Percentiles tried for the tail, highest first.
pub const TAIL_LADDER: [u32; 4] = [99, 95, 90, 75];

/// A tail needs this many samples beyond it to be more than one slow op.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in 1..=100).
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).clamp(1, n)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a latency distribution and how it was chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: u32,
    pub value: f64,
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// [`MIN_BEYOND`] samples beyond it; the median when there are too few
/// samples for any of them (a tail read off fewer is one slow op, not a
/// distribution).
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    let percentile_used = TAIL_LADDER
        .into_iter()
        .find(|&p| n - rank(n, p) >= MIN_BEYOND)
        .unwrap_or(50);
    Tail {
        percentile: percentile_used,
        value: percentile(sorted, percentile_used),
        samples: n,
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), which is what the driver uses.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    assert!(ld >= 2, "quartiles need two samples");
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1).abs() / q2.abs().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_takes_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, exactly 10 beyond.
        assert_eq!(tail(&ramp(1000)).percentile, 99);
        assert_eq!(tail(&ramp(1000)).value, 990.0);
        // 999 samples: p99 is rank 990, 9 beyond -> p95 (rank 950, 49 beyond).
        assert_eq!(tail(&ramp(999)).percentile, 95);
        // 200 samples: p95 is rank 190, exactly 10 beyond.
        assert_eq!(tail(&ramp(200)).percentile, 95);
        assert_eq!(tail(&ramp(199)).percentile, 90);
        assert_eq!(tail(&ramp(100)).percentile, 90);
        assert_eq!(tail(&ramp(99)).percentile, 75);
        assert_eq!(tail(&ramp(40)).percentile, 75);
        // Too few for any tail: the median, and it says so.
        let t = tail(&ramp(39));
        assert_eq!((t.percentile, t.value, t.samples), (50, 20.0, 39));
        assert_eq!(tail(&ramp(1)).value, 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        assert!((quartile_spread(&ramp(10)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
