//! The fold a frozen model builds on first use is the serving path for
//! every batch of at most `DEFAULT_MAX_BATCH` samples, so it is held to
//! the generic plan and to the eager tape over the **whole**
//! matrix it serves, not a sample of it: every leaf count × every batch
//! size `1..=64` (plus 65 and 200, which replay the generic plan), for
//! f32 and i8 weight stores, bit for bit — including inputs that
//! drive an attention row to all-equal scores, to `±inf`, to `NaN`, and
//! operands of `-0.0`.
//!
//! All three executors read one frozen store, so the comparison is
//! frozen-vs-frozen and stays bitwise under `CDMPP_SIMD=scalar` (the
//! oracle tier) as well.

use cdmpp_core::{PlanRunner, Predictor, PredictorConfig, SharedPredictor, DEFAULT_MAX_BATCH};
use features::{N_DEVICE_FEATURES, N_ENTRY};
use tensor::{QuantMode, Tensor};

fn inputs(b: usize, l: usize, seed: u64) -> (Tensor, Tensor) {
    let gen = |i: usize, salt: u64| -> f32 {
        let h = (i as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(seed ^ salt)
            .wrapping_mul(0xBF58476D1CE4E5B9);
        ((h >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 4.0
    };
    let x = Tensor::from_fn(&[b, l, N_ENTRY], |i| gen(i, 0xA5));
    let dev = Tensor::from_fn(&[b, N_DEVICE_FEATURES], |i| gen(i, 0x5A));
    (x, dev)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `predict_planned` ≡ `predict_planned_generic` ≡ `predict_batch` (the
/// tape) on one batch, bit for bit. Returns the prediction.
fn assert_three_way(
    shared: &SharedPredictor,
    runners: &mut (PlanRunner, PlanRunner),
    x: &Tensor,
    dev: &Tensor,
    what: &str,
) -> Vec<f32> {
    let folded = shared.predict_planned(&mut runners.0, x, dev).unwrap();
    let generic = shared
        .predict_planned_generic(&mut runners.1, x, dev)
        .unwrap();
    let taped = shared.predict_batch(x.clone(), dev.clone()).unwrap();
    assert_eq!(
        bits(&folded),
        bits(&generic),
        "{what}: fold vs generic plan"
    );
    assert_eq!(bits(&generic), bits(&taped), "{what}: generic plan vs tape");
    folded
}

/// Every leaf count × every batch size, one weight store.
fn whole_matrix(mode: QuantMode) {
    let p = Predictor::new(PredictorConfig::default());
    let shared = p.share_quantized(mode);
    let mut runners = (PlanRunner::new(), PlanRunner::new());
    for l in 1..=p.config().max_leaves {
        for b in (1..=DEFAULT_MAX_BATCH).chain([DEFAULT_MAX_BATCH + 1, 200]) {
            let (x, dev) = inputs(b, l, (l * 1000 + b) as u64);
            let what = format!("{mode:?} L={l} B={b}");
            let y = assert_three_way(&shared, &mut runners, &x, &dev, &what);
            assert!(y.iter().all(|v| v.is_finite()), "{what}");
            let folded = shared.spec_plan_for(l, b).unwrap().is_some();
            assert_eq!(
                folded,
                b <= DEFAULT_MAX_BATCH,
                "{what}: which path served it"
            );
        }
    }
    // Nothing here registered a class, so nothing is what a snapshot of
    // this model would ship.
    assert!(shared.specialized_plans().is_empty(), "{mode:?}");
}

// One test per store so the two run side by side: the matrix is the
// longest thing in this crate's suite under `CDMPP_SIMD=scalar`.
#[test]
fn every_leaf_count_and_batch_size_replays_the_generic_bits_f32() {
    whole_matrix(QuantMode::F32);
}

#[test]
fn every_leaf_count_and_batch_size_replays_the_generic_bits_i8() {
    whole_matrix(QuantMode::I8);
}

/// Sample `i` of a batch, rewritten to put one special value class in
/// front of the attention kernel. Samples are independent rows of every
/// step, so each class is observed on its own.
fn make_special(x: &mut Tensor, l: usize, i: usize, class: usize) {
    let row = l * N_ENTRY;
    let sample = &mut x.data_mut()[i * row..(i + 1) * row];
    match class {
        // Q = K = bias for every position: every score row is all-equal.
        0 => sample.fill(0.0),
        1 => sample.fill(-0.0),
        2 => sample[0] = f32::INFINITY,
        3 => sample[row - 1] = f32::NEG_INFINITY,
        _ => sample[row / 2] = f32::NAN,
    }
}

#[test]
fn special_values_replay_the_generic_bits() {
    let p = Predictor::new(PredictorConfig::default());
    let max_leaves = p.config().max_leaves;
    for mode in [QuantMode::F32, QuantMode::I8] {
        let shared = p.share_quantized(mode);
        let mut runners = (PlanRunner::new(), PlanRunner::new());
        for l in 1..=max_leaves {
            for b in [1usize, 2, 5, 13, DEFAULT_MAX_BATCH, DEFAULT_MAX_BATCH + 1] {
                // Every second sample is special, classes rotating so a
                // batch too small to hold all five still sees each.
                for rot in 0..if b < 10 { 5 } else { 1 } {
                    let (mut x, dev) = inputs(b, l, (l * 77 + b) as u64);
                    for i in (0..b).step_by(2) {
                        make_special(&mut x, l, i, (i / 2 + rot) % 5);
                    }
                    let what = format!("{mode:?} L={l} B={b} rot={rot}");
                    let y = assert_three_way(&shared, &mut runners, &x, &dev, &what);
                    // The untouched samples are still ordinary numbers.
                    assert!(y.iter().skip(1).step_by(2).all(|v| v.is_finite()), "{what}");
                }
            }
        }
    }
}
