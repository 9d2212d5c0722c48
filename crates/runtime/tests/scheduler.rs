//! Scheduler properties.
//!
//! The dispatcher cuts every leaf bucket by one rule — full `max_batch`
//! chunks plus at most one remainder — and serves any request mix (sizes
//! `1..=3·max_batch`, arbitrarily interleaved leaf counts) with
//! request-ordered results that are **bit-identical** to the serial
//! reference path: no drops, no duplicates. Which plan a chunk replays is
//! decided per chunk size by the model's class registry, which the engine
//! never grows past `{1, max_batch}`.

use cdmpp_core::batch::{EncodedSample, FeatScaler};
use cdmpp_core::{Predictor, PredictorConfig, TrainConfig, TrainedModel};
use features::{N_DEVICE_FEATURES, N_ENTRY};
use learn::TransformKind;
use proptest::prelude::*;
use runtime::{plan_chunks, EngineConfig, FaultPlan, InferenceEngine};

fn frozen_model() -> cdmpp_core::InferenceModel {
    let model = TrainedModel {
        predictor: Predictor::new(PredictorConfig::default()),
        transform: TransformKind::None.fit(&[1.0, 2.0, 3.0]),
        scaler: FeatScaler::identity(),
        use_pe: true,
        train_config: TrainConfig::default(),
    };
    model.freeze()
}

/// A request stream with the given leaf count per sample and per-sample
/// distinct content (so any drop/duplicate/reorder corrupts a value).
fn stream_of(leaves: &[usize]) -> Vec<EncodedSample> {
    leaves
        .iter()
        .enumerate()
        .map(|(i, &l)| EncodedSample {
            record_idx: i,
            leaf_count: l,
            x: (0..l * N_ENTRY)
                .map(|j| ((i * 977 + j) as f32 * 0.0137).sin())
                .collect(),
            dev: [0.25; N_DEVICE_FEATURES],
            y_raw: 1e-3,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The chunking rule, for any bucket length: chunks partition
    /// `0..len`, and every chunk except possibly the last is `max_batch`
    /// long (a configured `max_batch` of 0 serves as 1).
    #[test]
    fn chunks_partition_and_emit_only_declared_shapes(
        len in 0usize..200,
        max_batch in 0usize..24,
    ) {
        let chunks: Vec<(usize, usize)> = plan_chunks(len, max_batch).collect();
        let max_batch = max_batch.max(1);
        let mut at = 0usize;
        for (i, &(start, end)) in chunks.iter().enumerate() {
            prop_assert_eq!(start, at, "chunks must tile the bucket");
            prop_assert!(end > start, "no empty chunks");
            if i + 1 < chunks.len() {
                prop_assert_eq!(end - start, max_batch, "only the last chunk may be partial");
            } else {
                prop_assert!(end - start <= max_batch);
            }
            at = end;
        }
        prop_assert_eq!(at, len, "chunks must cover the bucket");
    }

    /// End to end through the worker pool: any request mix returns exactly
    /// the serial reference predictions, in request order.
    #[test]
    fn any_request_mix_is_served_exactly_under_every_policy(
        leaves in proptest::collection::vec(1usize..=8, 1..25),
    ) {
        let max_batch = 8usize; // streams span 1..=3·max_batch
        let model = frozen_model();
        let enc = stream_of(&leaves);
        let want = model.predict_samples(&enc).unwrap();
        let engine = InferenceEngine::new(
            model,
            EngineConfig {
                workers: 3,
                max_batch,
                faults: Some(FaultPlan::none()),
                ..Default::default()
            },
        );
        let got = engine.predict_samples(&enc).unwrap();
        prop_assert_eq!(got, want);
    }
}

/// Deterministic sweep of the boundary sizes (exact class multiples, one
/// off either side, single samples) — the shapes where remainder routing
/// switches over.
#[test]
fn boundary_sizes_round_trip_exactly() {
    let max_batch = 8usize;
    let model = frozen_model();
    for n in [1usize, 7, 8, 9, 15, 16, 17, 24] {
        // One homogeneous bucket plus an interleaved second leaf count.
        let mut leaves = vec![4usize; n];
        for i in (0..n).step_by(3) {
            leaves[i] = 6;
        }
        let enc = stream_of(&leaves);
        let want = model.predict_samples(&enc).unwrap();
        let engine = InferenceEngine::new(
            model.clone(),
            EngineConfig {
                workers: 2,
                max_batch,
                faults: Some(FaultPlan::none()),
                ..Default::default()
            },
        );
        let got = engine.predict_samples(&enc).unwrap();
        assert_eq!(got, want, "n = {n}");
        engine.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Concurrent callers under any arrival pattern: the stream is split
    /// across callers whose chunks interleave — replayed by their callers,
    /// or queued to the pool when a call is above one class or finds no
    /// caller-side runner free — and every caller must get back exactly
    /// the serial reference predictions for its own slice, bitwise.
    #[test]
    fn concurrent_callers_match_serial_for_any_arrival_pattern(
        leaves in proptest::collection::vec(1usize..=8, 3..30),
        cuts in proptest::collection::vec(0usize..30, 2),
    ) {
        let model = frozen_model();
        let enc = stream_of(&leaves);
        // Split into up to three call slices at arbitrary points.
        let mut cut: Vec<usize> = cuts.iter().map(|&c| c % enc.len()).collect();
        cut.sort_unstable();
        let slices = [
            &enc[..cut[0]],
            &enc[cut[0]..cut[1]],
            &enc[cut[1]..],
        ];
        let want: Vec<Vec<f64>> = slices
            .iter()
            .map(|s| model.predict_samples(s).unwrap())
            .collect();
        let engine = InferenceEngine::new(
            model,
            EngineConfig {
                workers: 3,
                max_batch: 8,
                faults: Some(FaultPlan::none()),
                ..Default::default()
            },
        );
        let got: Vec<Vec<f64>> = std::thread::scope(|s| {
            let handles: Vec<_> = slices
                .iter()
                .map(|slice| {
                    let engine = &engine;
                    s.spawn(move || engine.predict_samples(slice).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        prop_assert_eq!(got, want);
    }
}

/// A default engine learns nothing from traffic: a remainder size that
/// recurs forever keeps replaying the generic plan, the class registry
/// stays at what the engine registered, and a hot swap registers exactly
/// the same classes on the new model.
#[test]
fn default_engine_learns_no_classes() {
    let model = frozen_model();
    let enc = stream_of(&[4usize; 5]);
    let want = model.predict_samples(&enc).unwrap();
    let engine = InferenceEngine::new(
        model,
        EngineConfig {
            faults: Some(FaultPlan::none()),
            ..Default::default()
        },
    );
    let max_batch = engine.config().max_batch;
    for _ in 0..100 {
        assert_eq!(engine.predict_samples(&enc).unwrap(), want);
    }
    assert_eq!(engine.model().predictor.batch_classes(), vec![1, max_batch]);
    assert!(
        engine.model().predictor.specialized_plans().is_empty(),
        "a 5-sample chunk is no class: nothing may have been folded for it"
    );
    let stats = engine.stats();
    assert_eq!(stats.promotions, 0);
    assert_eq!(stats.class_demotions, 0);
    assert_eq!(stats.completed_chunks, 100);

    engine.swap_model(frozen_model()).unwrap();
    assert_eq!(engine.model().predictor.batch_classes(), vec![1, max_batch]);
    assert_eq!(engine.stats().class_demotions, 0);
    assert_eq!(engine.predict_samples(&enc).unwrap(), want);
}

/// Every chunk is replayed by its caller or queued; none is held back. The
/// counters `EngineStats` keeps for layout read 0 after calls on both
/// routes, from one caller and from several at once.
#[test]
fn no_chunk_is_ever_parked() {
    let max_batch = 8usize;
    let model = frozen_model();
    let small = stream_of(&[3, 5, 3, 2, 5]);
    let large = stream_of(&vec![4usize; 3 * max_batch + 5]);
    let want_small = model.predict_samples(&small).unwrap();
    let want_large = model.predict_samples(&large).unwrap();
    let engine = InferenceEngine::new(
        model,
        EngineConfig {
            workers: 2,
            max_batch,
            faults: Some(FaultPlan::none()),
            ..Default::default()
        },
    );
    std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(|| {
                for _ in 0..10 {
                    assert_eq!(engine.predict_samples(&small).unwrap(), want_small);
                    assert_eq!(engine.predict_samples(&large).unwrap(), want_large);
                }
            });
        }
    });
    let s = engine.stats();
    assert!(engine.caller_chunks() > 0, "small calls ran inline: {s}");
    assert!(s.queue_depth_hw >= 1, "large calls were queued: {s}");
    assert_eq!(
        (s.window_fill_flushes, s.window_timer_flushes, s.parked),
        (0, 0, 0),
        "{s:?}"
    );
}

/// A full class registry costs exactly the classes that could not
/// register. This model holds `MAX_BATCH_CLASSES` entries including `1`
/// but not `max_batch`: the `max_batch` class is one counted demotion,
/// and a single-sample call still replays its specialized plan.
#[test]
fn full_class_registry_keeps_the_classes_that_registered() {
    let model = frozen_model();
    assert!(model.predictor.register_batch_class(1));
    for c in 1..cdmpp_core::MAX_BATCH_CLASSES {
        assert!(model.predictor.register_batch_class(100 + c));
    }
    let leaves = 3usize;
    let enc = stream_of(&[leaves]);
    let want = model.predict_samples(&enc).unwrap();
    let engine = InferenceEngine::new(
        model,
        EngineConfig {
            workers: 2,
            max_batch: 8,
            faults: Some(FaultPlan::none()),
            ..Default::default()
        },
    );
    assert_eq!(engine.stats().class_demotions, 1);
    assert_eq!(engine.predict_samples(&enc).unwrap(), want);
    assert_eq!(
        engine.model().predictor.specialized_plans(),
        vec![(leaves, 1)],
        "the size-1 chunk must have replayed its specialized plan"
    );
    // Above-class traffic falls back to the generic plan, exactly.
    let big = stream_of(&[leaves; 13]);
    let want_big = engine.model().predict_samples(&big).unwrap();
    assert_eq!(engine.predict_samples(&big).unwrap(), want_big);
    assert_eq!(engine.stats().class_demotions, 1);
}
