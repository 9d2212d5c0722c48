//! The compiled training step's contract: it is the taped step, bit for
//! bit. `CompiledStep::step_sharded` ≡ `train_step_parallel` on any pool,
//! `CompiledStep::step` ≡ `train_step`, `finetune` ≡ the single-graph taped
//! loop kept under `reference/`, and a whole `pretrain` still lands on the
//! weights the taped trainer produced before the compiled step existed
//! (pinned as a folded hash).
//!
//! Like the rest of the bit-identity web this runs under whatever kernel
//! tier the host selects; CI's scalar-tier job (`CDMPP_SIMD=scalar`) runs
//! it again on the oracle side.

mod reference;

use cdmpp_core::{
    finetune, pretrain, train_step, train_step_parallel, Batch, CompiledStep, FineTuneConfig,
    LossKind, Predictor, PredictorConfig, TrainConfig,
};
use dataset::{Dataset, GenConfig, SplitIndices};
use features::{N_DEVICE_FEATURES, N_ENTRY};
use nn::{Adam, Optimizer, ParamStore, Sgd};
use reference::reference_finetune;
use tensor::Tensor;
use tir::zoo;

const LOSSES: [LossKind; 4] = [
    LossKind::Mse,
    LossKind::Mape,
    LossKind::Mspe,
    LossKind::Hybrid,
];
const BATCHES: [usize; 7] = [1, 15, 16, 17, 37, 48, 64];
const STEPS: usize = 2;

/// A synthetic dense batch; `salt` decorrelates the steps of one run.
fn batch(rows: usize, leaves: usize, salt: usize) -> (Batch, Vec<f32>) {
    let phase = salt as f32 * 0.61;
    let x = Tensor::from_fn(&[rows, leaves, N_ENTRY], |i| {
        ((i as f32) * 0.137 + phase).sin() * 0.8
    });
    let dev = Tensor::from_fn(&[rows, N_DEVICE_FEATURES], |i| {
        ((i as f32) * 0.311 + phase).cos()
    });
    // Transformed-space labels on both sides of zero, some inside the
    // relative losses' 0.1 clamp.
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

fn optimizer(adam: bool) -> Box<dyn Optimizer> {
    if adam {
        Box::new(Adam::with_weight_decay(2e-3, 1e-3))
    } else {
        Box::new(Sgd::with_momentum(2e-3, 0.9, 1e-3))
    }
}

fn assert_weights_bit_equal(got: &ParamStore, want: &ParamStore, ctx: &str) {
    for id in want.ids() {
        let (g, w) = (got.value(id).data(), want.value(id).data());
        assert!(
            g.iter()
                .map(|v| v.to_bits())
                .eq(w.iter().map(|v| v.to_bits())),
            "{ctx}: {} differs from the taped step's",
            want.name(id)
        );
    }
}

/// `STEPS` steps through `step`, from fresh default weights.
fn run(
    leaves: usize,
    rows: usize,
    adam: bool,
    mut step: impl FnMut(&mut Predictor, &mut dyn Optimizer, &Batch, &[f32]) -> f64,
) -> (Predictor, Vec<u64>) {
    let mut p = Predictor::new(PredictorConfig::default());
    let mut opt = optimizer(adam);
    let losses = (0..STEPS)
        .map(|s| {
            let (b, y) = batch(rows, leaves, s);
            step(&mut p, opt.as_mut(), &b, &y).to_bits()
        })
        .collect();
    (p, losses)
}

/// Every (leaf count, batch size, optimizer) for one loss kind: sharded vs
/// the data-parallel tape at pool 1 and 2, one-shard vs the serial tape.
fn compiled_matches_taped(kind: LossKind) {
    let pools = [parallel::ThreadPool::new(1), parallel::ThreadPool::new(2)];
    let lambda = 1e-3;
    // One stepper across the whole sweep: arenas resize, plans rebind to
    // each fresh model.
    let mut stepper = CompiledStep::new();
    for leaves in 1..=8usize {
        for rows in BATCHES {
            for adam in [true, false] {
                let ctx = format!("{kind:?} L={leaves} B={rows} adam={adam}");
                let (sharded, sharded_loss) = run(leaves, rows, adam, |p, opt, b, y| {
                    stepper.step_sharded(p, opt, b, y, kind, lambda)
                });
                for pool in &pools {
                    let (taped, taped_loss) = run(leaves, rows, adam, |p, opt, b, y| {
                        train_step_parallel(p, opt, b, y, kind, lambda, pool)
                    });
                    assert_eq!(sharded_loss, taped_loss, "{ctx}: sharded loss");
                    assert_weights_bit_equal(&sharded.store, &taped.store, &ctx);
                }
                let (serial, serial_loss) = run(leaves, rows, adam, |p, opt, b, y| {
                    stepper.step(p, opt, b, y, kind, lambda)
                });
                let (taped, taped_loss) = run(leaves, rows, adam, |p, opt, b, y| {
                    train_step(p, opt, b, y, kind, lambda)
                });
                assert_eq!(serial_loss, taped_loss, "{ctx}: one-shard loss");
                assert_weights_bit_equal(&serial.store, &taped.store, &ctx);
            }
        }
    }
}

// One test per loss kind, so the sweep spreads over the test threads.
#[test]
fn compiled_step_matches_taped_mse() {
    compiled_matches_taped(LOSSES[0]);
}

#[test]
fn compiled_step_matches_taped_mape() {
    compiled_matches_taped(LOSSES[1]);
}

#[test]
fn compiled_step_matches_taped_mspe() {
    compiled_matches_taped(LOSSES[2]);
}

#[test]
fn compiled_step_matches_taped_hybrid() {
    compiled_matches_taped(LOSSES[3]);
}

#[test]
fn malformed_steps_are_nan_and_leave_the_weights_alone() {
    let mut stepper = CompiledStep::new();
    let mut p = Predictor::new(PredictorConfig::default());
    let before = p.store.clone();
    let mut opt = optimizer(true);
    let (b, y) = batch(8, 3, 0);
    // Label count off by one, no labels, an unsupported leaf count.
    assert!(stepper
        .step_sharded(&mut p, opt.as_mut(), &b, &y[..7], LossKind::Hybrid, 1e-3)
        .is_nan());
    assert!(stepper
        .step(&mut p, opt.as_mut(), &b, &[], LossKind::Hybrid, 1e-3)
        .is_nan());
    let (wide, y) = batch(8, 9, 0);
    assert!(stepper
        .step_sharded(&mut p, opt.as_mut(), &wide, &y, LossKind::Hybrid, 1e-3)
        .is_nan());
    assert_weights_bit_equal(&p.store, &before, "after malformed steps");
}

/// Two-device dataset: pre-train on T4, adapt to EPYC.
fn two_devices() -> (Dataset, SplitIndices, SplitIndices) {
    let ds = Dataset::generate_with_networks(
        GenConfig {
            batch: 1,
            schedules_per_task: 4,
            devices: vec![devsim::t4(), devsim::epyc_7452()],
            seed: 9,
            noise_sigma: 0.0,
        },
        vec![zoo::bert_tiny(1), zoo::mlp_mixer(1)],
    );
    let src = SplitIndices::for_device(&ds, "T4", &[], 1);
    let tgt = SplitIndices::for_device(&ds, "EPYC-7452", &[], 1);
    (ds, src, tgt)
}

#[test]
fn finetune_matches_the_single_graph_taped_loop() {
    let (ds, src, tgt) = two_devices();
    let (model, _) = pretrain(
        &ds,
        &src.train,
        &src.valid,
        PredictorConfig::default(),
        TrainConfig {
            epochs: 1,
            ..Default::default()
        },
    );
    // A thin target keeps its batches smaller than the source's, so the
    // two forwards of a step run at different batch sizes.
    let thin = &tgt.train[..tgt.train.len().min(30)];
    for (use_target_labels, target, loss) in [
        (true, &tgt.train[..], LossKind::Hybrid),
        (false, &tgt.train[..], LossKind::Hybrid),
        (true, thin, LossKind::Mspe),
        (false, thin, LossKind::Mape),
    ] {
        let cfg = FineTuneConfig {
            steps: 12,
            use_target_labels,
            seed: 5,
            ..Default::default()
        };
        let mut compiled = model.clone();
        compiled.train_config.loss = loss;
        let mut taped = compiled.clone();
        let got = finetune(&mut compiled, &ds, &src.train, target, &cfg);
        let want = reference_finetune(&mut taped, &ds, &src.train, target, &cfg);
        let ctx = format!(
            "labels={use_target_labels} targets={} {loss:?}",
            target.len()
        );
        assert_eq!(got.to_bits(), want.to_bits(), "{ctx}: tail CMD");
        assert_weights_bit_equal(&compiled.predictor.store, &taped.predictor.store, &ctx);
    }
}

/// FNV-1a over every weight's bits, in parameter order.
fn fold(store: &ParamStore) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for id in store.ids() {
        for v in store.value(id).data() {
            for byte in v.to_bits().to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// The weights `pretrain` (3 epochs, default configs, seed 17, the whole
/// zoo on T4) produced at the commit before the compiled step — through
/// `train_step_parallel`, `InferCtx` validation and the nine-pass Adam —
/// on the AVX2 and the scalar tier alike.
const PRETRAIN_PARENT_WEIGHTS: u64 = 0x5e9c_fa02_3cae_3e08;

#[test]
fn pretrain_lands_on_the_taped_trainers_weights() {
    let ds = Dataset::generate(GenConfig {
        batch: 1,
        schedules_per_task: 2,
        devices: vec![devsim::t4()],
        seed: 9,
        noise_sigma: 0.0,
    });
    let src = SplitIndices::for_device(&ds, "T4", &[], 1);
    let tcfg = TrainConfig {
        epochs: 3,
        seed: 17,
        ..Default::default()
    };
    let (model, stats) = pretrain(
        &ds,
        &src.train,
        &src.valid,
        PredictorConfig::default(),
        tcfg.clone(),
    );
    assert!(stats.final_loss.is_finite());
    assert_eq!(
        fold(&model.predictor.store),
        PRETRAIN_PARENT_WEIGHTS,
        "pretrain's weights moved off the taped trainer's"
    );
    // `threads` is a no-op now; the contract it carried still holds.
    let (again, _) = pretrain(
        &ds,
        &src.train,
        &src.valid,
        PredictorConfig::default(),
        TrainConfig { threads: 5, ..tcfg },
    );
    assert_eq!(fold(&again.predictor.store), PRETRAIN_PARENT_WEIGHTS);
}
