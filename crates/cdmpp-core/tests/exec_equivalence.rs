//! Property tests: all four executors — the taped (autodiff) forward, the
//! eager reference; the batch-generic compiled-plan `PlanExec` path; the
//! **batch-specialized** plan path (shape-final folds with prepacked
//! weight GEMMs); and plans **restored from snapshot bytes** (generic and
//! re-specialized) — must be **bit-identical**, for every
//! leaf count the predictor supports, across head counts and PE settings,
//! for both predictions and latents, for arbitrary inputs, and for batch
//! sizes both on and off the registered classes (off-class sizes must
//! fall back to the generic plan and still match). The plan paths must
//! additionally allocate nothing per batch once warmed up.

use cdmpp_core::batch::FeatScaler;
use cdmpp_core::{
    encode_programs, InferenceModel, PlanRunner, Predictor, PredictorConfig, Snapshot, TrainConfig,
    TrainedModel,
};
use features::{N_DEVICE_FEATURES, N_ENTRY};
use learn::TransformKind;
use proptest::prelude::*;
use tensor::Tensor;

fn inputs(b: usize, l: usize, seed: u64) -> (Tensor, Tensor) {
    // Deterministic pseudo-random inputs spanning a wide value range.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn planned_path_matches_both_executors_bit_for_bit(
        b in 1usize..6,
        l in 1usize..9,
        seed in 0u64..10_000,
        head_idx in 0usize..3,
    ) {
        // Head count changes the attention split/merge topology the plan
        // records, so sweep it alongside leaf count and batch size.
        let p = Predictor::new(PredictorConfig {
            heads: [1usize, 2, 4][head_idx],
            ..PredictorConfig::default()
        });
        let (x, dev) = inputs(b, l, seed);
        let mut runner = PlanRunner::new();
        let planned = p.predict_planned(&mut runner, &x, &dev).unwrap();
        let taped = p.predict_batch(x.clone(), dev.clone()).unwrap();
        // Exact equality: same per-element arithmetic, same order, same bits.
        prop_assert_eq!(&planned, &taped, "plan vs tape");

        // Third executor column: the batch-specialized plan. Register
        // the batch size as a class on a frozen handle and replay the
        // shape-final fold (prepacked weight GEMMs, fixed arena).
        let shared = p.share();
        prop_assert!(shared.register_batch_class(b));
        let mut spec_runner = PlanRunner::new();
        let spec = shared.predict_planned(&mut spec_runner, &x, &dev).unwrap();
        prop_assert_eq!(&spec, &planned, "specialized vs generic plan");
        prop_assert_eq!(spec_runner.spec_exec_count(), 1, "class batch must route specialized");
        // An off-class batch size falls back to the generic plan and
        // still matches the tape.
        let b2 = b + 1;
        let (x2, dev2) = inputs(b2, l, seed ^ 0x5bd1);
        let off_class = shared.predict_planned(&mut spec_runner, &x2, &dev2).unwrap();
        let taped2 = p.predict_batch(x2.clone(), dev2.clone()).unwrap();
        prop_assert_eq!(&off_class, &taped2, "off-class fallback vs tape");

        // Fourth executor column: plans restored from snapshot bytes —
        // generic plan re-validated from its descriptor, specialized plan
        // re-folded from it — replayed by a model that never saw the
        // recorder.
        let model = TrainedModel {
            predictor: p,
            transform: TransformKind::None.fit(&[1.0, 2.0, 3.0]),
            scaler: FeatScaler::identity(),
            use_pe: true,
            train_config: TrainConfig::default(),
        };
        let bytes = Snapshot::capture(&model, &[l])
            .unwrap()
            .with_batch_classes(&[b])
            .unwrap()
            .to_bytes();
        let loaded = InferenceModel::from_snapshot_bytes(&bytes).unwrap();
        prop_assert_eq!(loaded.predictor.specialized_plans(), vec![(l, b)]);
        let mut cold_runner = PlanRunner::new();
        let from_file = loaded
            .predictor
            .predict_planned(&mut cold_runner, &x, &dev)
            .unwrap();
        // Frozen vs frozen: the restored model matches the live frozen
        // handle bitwise.
        prop_assert_eq!(&from_file, &spec, "snapshot-restored specialized vs live frozen plan");
        prop_assert_eq!(cold_runner.spec_exec_count(), 1, "class batch must route specialized");
        let from_file_off = loaded
            .predictor
            .predict_planned(&mut cold_runner, &x2, &dev2)
            .unwrap();
        prop_assert_eq!(
            &from_file_off,
            &off_class,
            "snapshot-restored generic fallback vs live frozen fallback"
        );
        prop_assert_eq!(loaded.predictor.plan_compile_count(), 0, "load must not record");
    }

    #[test]
    fn planned_latents_match_taped_bit_for_bit(
        b in 1usize..4,
        l in 1usize..9,
        seed in 0u64..10_000,
    ) {
        let p = Predictor::new(PredictorConfig::default());
        let shared = p.share();
        let (x, dev) = inputs(b, l, seed);
        let mut runner = PlanRunner::new();
        let planned = shared.latent_planned(&mut runner, &x, &dev).unwrap();
        let taped = p.latent_batch(x, dev).unwrap();
        prop_assert_eq!(planned, taped, "frozen planned latents vs tape");
    }

    #[test]
    fn warmed_plan_runner_allocates_nothing_per_batch(
        seeds in proptest::collection::vec(0u64..10_000, 4..8),
    ) {
        // A serving thread's runner over a stream of recurring batch
        // shapes: after one warmup pass the arena counter must freeze.
        let p = Predictor::new(PredictorConfig::default());
        let shared = p.share();
        let mut runner = PlanRunner::new();
        let shapes: Vec<(usize, usize)> = seeds
            .iter()
            .map(|&s| (1 + (s as usize) % 4, 1 + (s as usize) % 8))
            .collect();
        for &(b, l) in &shapes {
            let (x, dev) = inputs(b, l, 1);
            shared.predict_planned(&mut runner, &x, &dev).unwrap();
        }
        let warmed = runner.alloc_count();
        for (i, &(b, l)) in shapes.iter().enumerate() {
            let (x, dev) = inputs(b, l, seeds[i]);
            let planned = shared.predict_planned(&mut runner, &x, &dev).unwrap();
            let taped = p.predict_batch(x, dev).unwrap();
            prop_assert_eq!(planned, taped, "frozen planned vs tape");
        }
        prop_assert_eq!(
            runner.alloc_count(),
            warmed,
            "steady-state replay must not allocate"
        );
    }
}

/// PE on/off flows through the feature encoding into both plan-replaying
/// paths: the frozen model (folds) must agree exactly with the
/// training-side model (its batch-generic plans) on real encoded programs.
#[test]
fn frozen_serving_matches_training_side_plans_with_and_without_pe() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tir::{lower, sample_schedule, OpSpec};

    let mut rng = StdRng::seed_from_u64(21);
    let nest = OpSpec::Dense {
        m: 64,
        n: 64,
        k: 64,
    }
    .canonical_nest();
    let progs: Vec<_> = (0..12)
        .map(|_| lower(&nest, &sample_schedule(&nest, &mut rng)).unwrap())
        .collect();
    let refs: Vec<&tir::TensorProgram> = progs.iter().collect();
    let dev = devsim::t4();
    for use_pe in [false, true] {
        let model = TrainedModel {
            predictor: Predictor::new(PredictorConfig::default()),
            transform: TransformKind::None.fit(&[1.0, 2.0, 3.0]),
            scaler: FeatScaler::identity(),
            use_pe,
            train_config: TrainConfig::default(),
        };
        let enc = encode_programs(&refs, &dev, model.predictor.config().theta, use_pe);
        // Training side: generic plans. Frozen side: folds.
        let via_generic = model.predict_samples(&enc);
        let via_plan = model.freeze().predict_samples(&enc).unwrap();
        assert_eq!(via_generic, via_plan, "use_pe = {use_pe}");
        assert!(via_plan.iter().all(|v| v.is_finite()));
    }
}
