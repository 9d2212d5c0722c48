//! What serving traffic may and may not leave behind in a model.
//!
//! A frozen model folds every `(leaf count, batch size)` it is asked to
//! replay, up to `DEFAULT_MAX_BATCH` samples, the first time it sees it.
//! Those folds are working state: they must never reach a snapshot, a
//! restore must build none of them, and the thread that replays them must
//! stop allocating once it has seen each shape once.

use cdmpp_core::batch::{EncodedSample, FeatScaler};
use cdmpp_core::{
    InferenceModel, PlanRunner, Predictor, PredictorConfig, Snapshot, TrainConfig, TrainedModel,
    DEFAULT_MAX_BATCH,
};
use features::{N_DEVICE_FEATURES, N_ENTRY};
use learn::TransformKind;
use runtime::{EngineConfig, FaultPlan, InferenceEngine};

/// An untrained model at the default (CLI) shape: lifecycle does not
/// depend on what the weights are.
fn model() -> TrainedModel {
    TrainedModel {
        predictor: Predictor::new(PredictorConfig::default()),
        transform: TransformKind::None.fit(&[1.0, 2.0, 3.0]),
        scaler: FeatScaler::identity(),
        use_pe: true,
        train_config: TrainConfig::default(),
    }
}

/// The checkpoint `TrainedModel::save_snapshot` writes: every plan, and
/// the engine's default classes.
fn checkpoint(model: &TrainedModel) -> Vec<u8> {
    Snapshot::capture_all(model)
        .unwrap()
        .with_batch_classes(&[1, DEFAULT_MAX_BATCH])
        .unwrap()
        .to_bytes()
}

fn sample(leaves: usize, seed: usize) -> EncodedSample {
    EncodedSample {
        record_idx: seed,
        leaf_count: leaves,
        x: (0..leaves * N_ENTRY)
            .map(|i| ((i + 3 * seed) as f32 * 0.211).sin())
            .collect(),
        dev: [0.25; N_DEVICE_FEATURES],
        y_raw: 1e-3,
    }
}

/// Call `i` of a ragged stream: 1..=24 samples over every leaf count.
fn ragged_call(i: usize) -> Vec<EncodedSample> {
    let n = 1 + (i * 5 + i / 24) % 24;
    (0..n)
        .map(|j| sample(1 + (i + 3 * j) % 8, i * 31 + j))
        .collect()
}

fn param_bytes(model: &InferenceModel) -> usize {
    let store = model.predictor.params();
    store
        .ids()
        .map(|id| match store.quant(id) {
            Some(q) => q.serving_bytes(),
            None => store.value(id).data().len() * 4,
        })
        .sum()
}

#[test]
fn a_restore_folds_nothing_and_then_answers_with_the_captured_bits() {
    let model = model();
    let bytes = checkpoint(&model);
    let restored = InferenceModel::from_snapshot_bytes(&bytes).unwrap();
    // The requested folds are reported, none of them is built: no weight
    // panel has been packed.
    assert_eq!(
        restored.predictor.specialized_plans().len(),
        2 * model.predictor.config().max_leaves
    );
    assert_eq!(
        restored.predictor.batch_classes(),
        vec![1, DEFAULT_MAX_BATCH]
    );
    assert_eq!(
        restored.predictor.serving_weights_bytes(),
        param_bytes(&restored),
        "a restore must not pack a panel"
    );
    // The first replay builds what it needs and gives the captured
    // model's answers, class size or not.
    let captured = model.freeze();
    let mut runner = PlanRunner::new();
    for n in [1usize, 5, DEFAULT_MAX_BATCH] {
        let enc: Vec<EncodedSample> = (0..n).map(|i| sample(3, i)).collect();
        assert_eq!(
            restored.predict_samples_with(&mut runner, &enc).unwrap(),
            captured.predict_samples(&enc).unwrap(),
            "{n} samples"
        );
    }
    assert!(restored.predictor.serving_weights_bytes() > param_bytes(&restored));
    assert_eq!(restored.predictor.plan_compile_count(), 0);
}

#[test]
fn a_thousand_ragged_calls_leave_the_snapshot_as_it_was() {
    let bytes = checkpoint(&model());
    let engine = InferenceEngine::from_snapshot(
        &Snapshot::from_bytes(&bytes).unwrap(),
        EngineConfig {
            workers: 2,
            faults: Some(FaultPlan::none()),
            ..Default::default()
        },
    )
    .unwrap();
    let before = engine.model().predictor.specialized_plans();
    let mut sizes = std::collections::BTreeSet::new();
    for i in 0..1000 {
        let enc = ragged_call(i);
        sizes.insert(enc.len());
        let got = engine.predict_samples(&enc).unwrap();
        assert_eq!(got.len(), enc.len());
        assert!(got.iter().all(|v| v.is_finite()));
    }
    assert_eq!(sizes.len(), 24, "the stream covers every call size");
    // Every chunk of that stream was a sub-class size replayed through a
    // fold built for it; none of those folds is listed.
    let served = engine.model();
    let predictor = &served.predictor;
    assert_eq!(predictor.specialized_plans(), before);
    assert!(predictor
        .specialized_plans()
        .iter()
        .all(|&(_, b)| b == 1 || b == DEFAULT_MAX_BATCH));
    assert_eq!(predictor.batch_classes(), vec![1, DEFAULT_MAX_BATCH]);
    assert_eq!(
        Snapshot::from_inference(&served).to_bytes(),
        bytes,
        "a served model must re-serialize to the file it was restored from"
    );
    assert_eq!(predictor.plan_compile_count(), 0);
    assert_eq!(engine.stats().class_demotions, 0);
}

#[test]
fn a_runner_stops_allocating_after_each_shapes_first_replay() {
    let frozen = model().freeze();
    let mut runner = PlanRunner::new();
    // Pass 0 sees each (leaf count, batch size) once; passes 1 and 2 see
    // nothing new, in an order that makes the arena serve a small fold
    // right after a large one and back.
    let mut warmed = 0;
    for pass in 0..3 {
        for i in 0..200 {
            let enc = ragged_call(if pass == 1 { 199 - i } else { i });
            frozen.predict_samples_with(&mut runner, &enc).unwrap();
        }
        match pass {
            0 => warmed = runner.alloc_count(),
            _ => assert_eq!(runner.alloc_count(), warmed, "pass {pass} grew an arena"),
        }
    }
    assert!(warmed >= 1, "the first pass is what allocates");
    // A batch above `DEFAULT_MAX_BATCH` is the generic plan's: one more
    // arena, once.
    let big: Vec<EncodedSample> = (0..DEFAULT_MAX_BATCH + 7).map(|i| sample(4, i)).collect();
    frozen.predict_samples_with(&mut runner, &big).unwrap();
    let with_generic = runner.alloc_count();
    assert!(with_generic > warmed);
    frozen.predict_samples_with(&mut runner, &big).unwrap();
    assert_eq!(runner.alloc_count(), with_generic);
}
