//! Evaluation metrics reported in §7: MAPE, RMSE, `k%`-accuracy and
//! Spearman rank correlation (used to judge schedule-search cost models).

/// Mean absolute percentage error: `mean(|ŷ − y| / y)`.
pub fn mape(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    if pred.is_empty() {
        return 0.0;
    }
    pred.iter()
        .zip(truth.iter())
        .map(|(&p, &t)| (p - t).abs() / t.abs().max(1e-300))
        .sum::<f64>()
        / pred.len() as f64
}

/// Root mean squared error.
pub fn rmse(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    if pred.is_empty() {
        return 0.0;
    }
    (pred
        .iter()
        .zip(truth.iter())
        .map(|(&p, &t)| (p - t) * (p - t))
        .sum::<f64>()
        / pred.len() as f64)
        .sqrt()
}

/// Fraction of predictions within `frac` relative error (the paper's
/// `20%accuracy` / `10%accuracy` / `5%accuracy` training-log metrics).
pub fn accuracy_within(pred: &[f64], truth: &[f64], frac: f64) -> f64 {
    assert_eq!(pred.len(), truth.len());
    if pred.is_empty() {
        return 0.0;
    }
    let hits = pred
        .iter()
        .zip(truth.iter())
        .filter(|(&p, &t)| (p - t).abs() / t.abs().max(1e-300) <= frac)
        .count();
    hits as f64 / pred.len() as f64
}

fn ranks(xs: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("finite"));
    let mut out = vec![0.0; xs.len()];
    let mut i = 0;
    while i < idx.len() {
        // Average ranks over ties.
        let mut j = i;
        while j + 1 < idx.len() && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

/// Spearman rank correlation.
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    if a.len() < 2 {
        return 0.0;
    }
    let ra = ranks(a);
    let rb = ranks(b);
    let ma = ra.iter().sum::<f64>() / ra.len() as f64;
    let mb = rb.iter().sum::<f64>() / rb.len() as f64;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for i in 0..ra.len() {
        cov += (ra[i] - ma) * (rb[i] - mb);
        va += (ra[i] - ma).powi(2);
        vb += (rb[i] - mb).powi(2);
    }
    if va <= 0.0 || vb <= 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

/// Kendall's rank correlation τ-b of `a` against `b`: concordant minus
/// discordant pairs over the geometric mean of the pairs untied in each
/// (a pair tied in either counts as neither). Ties in both are allowed;
/// `0.0` when either side is constant or there are fewer than two
/// points, as [`spearman`]. Compares with `total_cmp`, so `inf` ranks
/// last and a `NaN` above it. O(n²).
pub fn kendall_tau(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let (mut concordant, mut discordant) = (0i64, 0i64);
    let (mut untied_a, mut untied_b) = (0i64, 0i64);
    for i in 0..a.len() {
        for j in i + 1..a.len() {
            let (sa, sb) = (a[i].total_cmp(&a[j]), b[i].total_cmp(&b[j]));
            untied_a += i64::from(sa.is_ne());
            untied_b += i64::from(sb.is_ne());
            if sa.is_ne() && sb.is_ne() {
                if sa == sb {
                    concordant += 1;
                } else {
                    discordant += 1;
                }
            }
        }
    }
    if untied_a == 0 || untied_b == 0 {
        return 0.0;
    }
    (concordant - discordant) as f64 / ((untied_a as f64) * (untied_b as f64)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kendall_tau_counts_ties_as_neither() {
        let up = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(kendall_tau(&up, &up), 1.0);
        assert_eq!(kendall_tau(&up, &[4.0, 3.0, 2.0, 1.0]), -1.0);
        // One tie in `a`: 5 concordant pairs of 6, 5 untied in `a`, 6 in
        // `b`, so τ-b = 5 / √30.
        let tied = [1.0, 2.0, 2.0, 3.0];
        let want = 5.0 / 30f64.sqrt();
        assert!((kendall_tau(&tied, &up) - want).abs() < 1e-12);
        assert!((kendall_tau(&up, &tied) - want).abs() < 1e-12);
        // Ties on both sides in the same pair: that pair drops out of all
        // three counts, and the rest agree perfectly.
        assert!((kendall_tau(&tied, &tied) - 1.0).abs() < 1e-12);
        // A constant side carries no ordering.
        assert_eq!(kendall_tau(&[7.0; 4], &up), 0.0);
        assert_eq!(kendall_tau(&[1.0], &[2.0]), 0.0);
        // Infinite scores (a model's invalid candidates) tie among
        // themselves and rank last.
        let inf = f64::INFINITY;
        assert_eq!(kendall_tau(&[1.0, 2.0, inf], &[1.0, 2.0, 3.0]), 1.0);
    }

    #[test]
    fn mape_known() {
        assert!((mape(&[2.0, 4.0], &[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(mape(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn rmse_known() {
        assert!((rmse(&[2.0, 4.0], &[1.0, 2.0]) - (2.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn accuracy_within_thresholds() {
        let pred = [1.05, 1.5, 0.99, 2.0];
        let truth = [1.0, 1.0, 1.0, 1.0];
        assert_eq!(accuracy_within(&pred, &truth, 0.10), 0.5);
        assert_eq!(accuracy_within(&pred, &truth, 0.60), 0.75);
        assert_eq!(accuracy_within(&pred, &truth, 2.00), 1.0);
    }

    #[test]
    fn spearman_perfect_and_inverse() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let up = [10.0, 20.0, 30.0, 40.0];
        let down = [4.0, 3.0, 2.0, 1.0];
        assert!((spearman(&a, &up) - 1.0).abs() < 1e-12);
        assert!((spearman(&a, &down) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn spearman_handles_ties() {
        let a = [1.0, 1.0, 2.0, 3.0];
        let b = [1.0, 1.0, 2.0, 3.0];
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn spearman_is_rank_based() {
        // A monotone nonlinear map preserves Spearman exactly.
        let a = [0.1, 0.5, 1.0, 2.0, 5.0];
        let b: Vec<f64> = a.iter().map(|&x: &f64| x.powi(3)).collect();
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-12);
    }
}
