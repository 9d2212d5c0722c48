//! A batch whose gradient norm is not finite (here: a NaN or infinite
//! label, so a non-finite loss seed) is skipped by every training step,
//! compiled and taped alike: the step returns NaN, the weights and the
//! optimizer's state stay bit-identical, and the next finite step lands
//! exactly where a run that never saw the bad batch does. Before the check
//! an infinite norm scaled every gradient by zero (`inf · 0 = NaN`) and a
//! NaN one went through unclipped, and Adam then wrote NaN into every
//! weight and both moments for good.

use cdmpp_core::{
    train_step, train_step_parallel, Batch, CompiledStep, LossKind, Predictor, PredictorConfig,
};
use features::{N_DEVICE_FEATURES, N_ENTRY};
use nn::{Adam, Optimizer, ParamStore};
use tensor::Tensor;

/// A synthetic dense batch; `salt` decorrelates the steps of one run.
fn batch(rows: usize, leaves: usize, salt: usize) -> (Batch, Vec<f32>) {
    let phase = salt as f32 * 0.61;
    let x = Tensor::from_fn(&[rows, leaves, N_ENTRY], |i| {
        ((i as f32) * 0.137 + phase).sin() * 0.8
    });
    let dev = Tensor::from_fn(&[rows, N_DEVICE_FEATURES], |i| {
        ((i as f32) * 0.311 + phase).cos()
    });
    let y: Vec<f32> = (0..rows)
        .map(|r| ((r as f32) * 0.73 + phase).sin() * 1.5)
        .collect();
    let b = Batch {
        leaf_count: leaves,
        x,
        dev,
        y_raw: y.iter().map(|&v| v as f64).collect(),
        record_idx: (0..rows).collect(),
    };
    (b, y)
}

fn assert_weights_bit_equal(got: &ParamStore, want: &ParamStore, ctx: &str) {
    for id in want.ids() {
        let (g, w) = (got.value(id).data(), want.value(id).data());
        assert!(
            g.iter()
                .map(|v| v.to_bits())
                .eq(w.iter().map(|v| v.to_bits())),
            "{ctx}: {} differs",
            want.name(id)
        );
    }
}

type Step<'a> = Box<dyn FnMut(&mut Predictor, &mut dyn Optimizer, &Batch, &[f32]) -> f64 + 'a>;

#[test]
fn a_non_finite_batch_is_skipped_by_every_step() {
    let pool = parallel::ThreadPool::new(1);
    let kind = LossKind::Hybrid;
    let mut sharded = CompiledStep::new();
    let mut serial = CompiledStep::new();
    let steps: [(&str, Step); 4] = [
        (
            "step_sharded",
            Box::new(|p, o, b, y| sharded.step_sharded(p, o, b, y, kind, 1e-3)),
        ),
        (
            "step",
            Box::new(|p, o, b, y| serial.step(p, o, b, y, kind, 1e-3)),
        ),
        (
            "train_step",
            Box::new(|p, o, b, y| train_step(p, o, b, y, kind, 1e-3)),
        ),
        (
            "train_step_parallel",
            Box::new(|p, o, b, y| train_step_parallel(p, o, b, y, kind, 1e-3, &pool)),
        ),
    ];
    for (name, mut step) in steps {
        for bad in [f32::NAN, f32::INFINITY] {
            let ctx = format!("{name}, label {bad}");
            let mut p = Predictor::new(PredictorConfig::default());
            let mut opt = Adam::with_weight_decay(2e-3, 1e-3);
            let (b, y) = batch(40, 3, 0);
            assert!(step(&mut p, &mut opt, &b, &y).is_finite());
            let (mut clean_p, mut clean_opt) = (p.clone(), opt.clone());

            let (b, mut y) = batch(40, 3, 1);
            y[21] = bad;
            assert!(step(&mut p, &mut opt, &b, &y).is_nan(), "{ctx}");
            assert_weights_bit_equal(&p.store, &clean_p.store, &ctx);

            let (b, y) = batch(40, 3, 2);
            let got = step(&mut p, &mut opt, &b, &y);
            let want = step(&mut clean_p, &mut clean_opt, &b, &y);
            assert_eq!(got.to_bits(), want.to_bits(), "{ctx}: next loss");
            assert_weights_bit_equal(&p.store, &clean_p.store, &format!("{ctx}: next step"));
        }
    }
}
