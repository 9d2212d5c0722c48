//! Fig 5: tensor-program latency distribution under the four label
//! normalizations (original / Box-Cox / Yeo-Johnson / quantile).
//!
//! Paper claim: the raw distribution is long-tailed; Box-Cox produces the
//! most normal/symmetric shape.

use bench::{claim_check, standard_dataset};
use dataset::histogram;
use learn::{LabelTransform, TransformKind};

fn skew(xs: &[f64]) -> f64 {
    let m = xs.iter().sum::<f64>() / xs.len() as f64;
    let v = xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
    let m3 = xs.iter().map(|&x| (x - m).powi(3)).sum::<f64>() / xs.len() as f64;
    if v <= 0.0 {
        0.0
    } else {
        m3 / v.powf(1.5)
    }
}

fn main() {
    let ds = standard_dataset(vec![devsim::t4()], 16);
    let ys = ds.latencies(&ds.device_records("T4"));
    let mut skews = Vec::new();
    for kind in [
        TransformKind::None,
        TransformKind::BoxCox,
        TransformKind::YeoJohnson,
        TransformKind::Quantile,
    ] {
        let t = kind.fit(&ys);
        let zs: Vec<f64> = ys.iter().map(|&y| t.forward(y)).collect();
        let s = skew(&zs);
        skews.push((kind, s));
        println!("Fig 5 — {} (skewness {s:+.3}):", kind.name());
        for (center, count) in histogram(&zs, 10) {
            println!(
                "  {:>9.3}: {}",
                center,
                "#".repeat(count * 50 / ys.len().max(1))
            );
        }
        println!();
    }
    let box_cox = skews
        .iter()
        .find(|(k, _)| *k == TransformKind::BoxCox)
        .map_or(f64::NAN, |&(_, s)| s.abs());
    let detail: Vec<String> = skews
        .iter()
        .map(|(k, s)| format!("{} {:.3}", k.name(), s.abs()))
        .collect();
    claim_check(
        "|skew(Box-Cox)| is the smallest of the four",
        skews.iter().all(|&(_, s)| box_cox <= s.abs()),
        &format!("|skew|: {}", detail.join(", ")),
    );
}
