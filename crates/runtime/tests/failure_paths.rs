//! Engine failure paths: a shut-down worker pool must surface
//! `EngineError::WorkersUnavailable` (never hang), and mixed valid/invalid
//! leaf counts through the `EngineCostModel` must rank only the invalid
//! candidates as infinitely slow.

use cdmpp_core::batch::{EncodedSample, FeatScaler};
use cdmpp_core::{
    encode_programs, CostModel, Predictor, PredictorConfig, TrainConfig, TrainedModel,
};
use features::{N_DEVICE_FEATURES, N_ENTRY};
use learn::TransformKind;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use runtime::{EngineConfig, EngineCostModel, EngineError, FaultPlan, InferenceEngine};
use std::sync::Arc;
use tir::{lower, sample_schedule, OpSpec};

fn frozen_model(max_leaves: usize) -> cdmpp_core::InferenceModel {
    let model = TrainedModel {
        predictor: Predictor::new(PredictorConfig {
            max_leaves,
            ..PredictorConfig::default()
        }),
        transform: TransformKind::None.fit(&[1.0, 2.0, 3.0]),
        scaler: FeatScaler::identity(),
        use_pe: true,
        train_config: TrainConfig::default(),
    };
    model.freeze()
}

fn stream(n: usize) -> Vec<EncodedSample> {
    (0..n)
        .map(|i| {
            let leaves = 1 + i % 7;
            EncodedSample {
                record_idx: i,
                leaf_count: leaves,
                x: (0..leaves * N_ENTRY)
                    .map(|j| ((i * 131 + j) as f32 * 0.0173).sin())
                    .collect(),
                dev: [0.25; N_DEVICE_FEATURES],
                y_raw: 1e-3,
            }
        })
        .collect()
}

#[test]
fn shutdown_surfaces_workers_unavailable_not_a_hang() {
    let engine = InferenceEngine::new(
        frozen_model(8),
        EngineConfig {
            workers: 2,
            max_batch: 8,
            ..Default::default()
        },
    );
    let enc = stream(24);
    // Healthy pool serves fine.
    assert!(engine.predict_samples(&enc).is_ok());
    engine.shutdown();
    assert_eq!(engine.worker_count(), 0);
    // Every request after shutdown is an immediate, descriptive error.
    match engine.predict_samples(&enc) {
        Err(EngineError::WorkersUnavailable) => {}
        other => panic!("expected WorkersUnavailable, got {other:?}"),
    }
    // Shutdown is idempotent.
    engine.shutdown();
}

#[test]
fn shutdown_racing_in_flight_requests_never_hangs() {
    // Threads hammer the engine while the main thread tears the pool down
    // mid-stream. Every request must complete — either with results or
    // with WorkersUnavailable; the test finishing at all proves no hang.
    let engine = InferenceEngine::new(
        frozen_model(8),
        EngineConfig {
            workers: 3,
            max_batch: 4,
            ..Default::default()
        },
    );
    let enc = stream(60);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let engine = &engine;
                let enc = &enc;
                s.spawn(move || {
                    let mut outcomes = (0usize, 0usize); // (served, refused)
                    for _ in 0..30 {
                        match engine.predict_samples(enc) {
                            Ok(preds) => {
                                assert_eq!(preds.len(), enc.len());
                                outcomes.0 += 1;
                            }
                            Err(EngineError::WorkersUnavailable) => outcomes.1 += 1,
                            Err(other) => panic!("unexpected error: {other}"),
                        }
                    }
                    outcomes
                })
            })
            .collect();
        // Let some requests land, then kill the pool under them.
        std::thread::sleep(std::time::Duration::from_millis(5));
        engine.shutdown();
        // Whether any hammer thread observed a refusal is a race (they may
        // all finish before the shutdown lands) — the hard guarantees are
        // that every call completed (the joins return) and that the pool
        // refuses deterministically once shutdown has returned.
        for h in handles {
            let (served, refused) = h.join().unwrap();
            assert_eq!(served + refused, 30, "every request must complete");
        }
    });
    match engine.predict_samples(&enc) {
        Err(EngineError::WorkersUnavailable) => {}
        other => panic!("expected WorkersUnavailable after shutdown, got {other:?}"),
    }
}

#[test]
fn score_batch_ranks_only_invalid_leaf_counts_as_infinity() {
    // A predictor with max_leaves = 2 rejects most real programs: generate
    // a mixed pool and check per-candidate granularity.
    let model = frozen_model(2);
    let theta = model.predictor.config().theta;
    let use_pe = model.use_pe;
    let engine = Arc::new(InferenceEngine::new(model, EngineConfig::single_worker()));
    let cost = EngineCostModel::new(Arc::clone(&engine), 1);
    let mut rng = StdRng::seed_from_u64(9);
    let dev = devsim::t4();
    let mut progs = Vec::new();
    for spec in [
        OpSpec::Dense {
            m: 64,
            n: 64,
            k: 64,
        },
        OpSpec::Elementwise {
            n: 2048,
            kind: tir::EwKind::Relu,
        },
        OpSpec::Softmax { rows: 32, cols: 32 },
    ] {
        let nest = spec.canonical_nest();
        for _ in 0..8 {
            progs.push(lower(&nest, &sample_schedule(&nest, &mut rng)).unwrap());
        }
    }
    let refs: Vec<&tir::TensorProgram> = progs.iter().collect();
    let enc = encode_programs(&refs, &dev, theta, use_pe);
    let valid: Vec<bool> = enc
        .iter()
        .map(|s| (1..=2).contains(&s.leaf_count))
        .collect();
    assert!(
        valid.iter().any(|&v| v) && valid.iter().any(|&v| !v),
        "fixture must mix valid and invalid leaf counts (got {:?})",
        enc.iter().map(|s| s.leaf_count).collect::<Vec<_>>()
    );
    let scores = cost.score_batch(&refs, &dev);
    assert_eq!(scores.len(), progs.len());
    for (i, (&ok, score)) in valid.iter().zip(&scores).enumerate() {
        if ok {
            assert!(
                score.is_finite(),
                "candidate {i} (valid leaf count) must get a real score, got {score}"
            );
        } else {
            assert_eq!(
                *score,
                f64::INFINITY,
                "candidate {i} (invalid leaf count) must rank last"
            );
        }
    }
    // An invalid leaf count is the candidate's own property, not an engine
    // failure: nothing was shed.
    assert_eq!(engine.stats().score_sheds, 0);
    // An engine failure sheds every candidate it was asked to score — and
    // only those — to INFINITY, counted instead of panicking the search.
    engine.shutdown();
    let scores = cost.score_batch(&refs, &dev);
    assert!(scores.iter().all(|&s| s == f64::INFINITY));
    let n_valid = valid.iter().filter(|&&v| v).count() as u64;
    assert_eq!(engine.stats().score_sheds, n_valid);
    assert_eq!(cost.timings().scored, n_valid, "first round only");
}

fn frozen_with(transform: TransformKind) -> cdmpp_core::InferenceModel {
    let model = TrainedModel {
        predictor: Predictor::new(PredictorConfig::default()),
        transform: transform.fit(&[0.5, 1.0, 2.0, 4.0]),
        scaler: FeatScaler::identity(),
        use_pe: true,
        train_config: TrainConfig::default(),
    };
    model.freeze()
}

#[test]
fn shutdown_racing_swap_reaches_a_consistent_terminal_state() {
    // Swap and shutdown from different threads, in both orders. Neither
    // can deadlock the other (swap touches the served slot, shutdown the
    // queue + pool); the terminal state is always: pool down, predicts
    // refused typed, generation reflecting exactly the swaps that
    // returned Ok.
    let enc = stream(24);
    for _ in 0..20 {
        let engine = InferenceEngine::new(
            frozen_model(8),
            EngineConfig {
                workers: 2,
                max_batch: 4,
                ..Default::default()
            },
        );
        std::thread::scope(|s| {
            let swapper = s.spawn(|| engine.swap_model(frozen_with(TransformKind::BoxCox)));
            let stopper = s.spawn(|| engine.shutdown());
            let swapped = swapper.join().unwrap().unwrap();
            stopper.join().unwrap();
            assert_eq!(swapped, 1, "swap succeeds regardless of pool state");
        });
        assert_eq!(engine.worker_count(), 0);
        assert_eq!(engine.generation(), 1);
        match engine.predict_samples(&enc) {
            Err(EngineError::WorkersUnavailable) => {}
            other => panic!("expected typed refusal, got {other:?}"),
        }
    }
    // Swapping an already-stopped engine also works (publish-only).
    let engine = InferenceEngine::new(frozen_model(8), EngineConfig::single_worker());
    engine.shutdown();
    assert_eq!(
        engine
            .swap_model(frozen_with(TransformKind::BoxCox))
            .unwrap(),
        1
    );
}

#[test]
fn overload_during_drain_stays_typed_and_never_hangs() {
    // A saturated tiny queue with a slow worker, torn down mid-storm:
    // every hammered call must resolve to exactly one typed outcome —
    // served (bit-exact), Overloaded (queue full), or WorkersUnavailable
    // (shutdown won the race). The joins returning at all proves no call
    // hangs on the closing queue.
    let model = frozen_model(8);
    let enc = stream(24);
    let want = model.predict_samples(&enc).unwrap();
    let engine = InferenceEngine::new(
        model,
        EngineConfig {
            workers: 1,
            max_batch: 4,
            queue_capacity: 2,
            faults: Some(FaultPlan::parse("delay@replay:ms=5").unwrap()),
            ..Default::default()
        },
    );
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    let mut outcomes = [0usize; 3]; // served, overloaded, refused
                    for _ in 0..10 {
                        match engine.predict_samples(&enc) {
                            Ok(got) => {
                                assert_eq!(got, want, "served calls stay bit-exact");
                                outcomes[0] += 1;
                            }
                            Err(EngineError::Overloaded { capacity, .. }) => {
                                assert_eq!(capacity, 2);
                                outcomes[1] += 1;
                            }
                            Err(EngineError::WorkersUnavailable) => outcomes[2] += 1,
                            Err(other) => panic!("unexpected error: {other}"),
                        }
                    }
                    outcomes
                })
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(10));
        engine.shutdown();
        for h in handles {
            let [served, overloaded, refused] = h.join().unwrap();
            assert_eq!(
                served + overloaded + refused,
                10,
                "every call resolves exactly once"
            );
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any interleaving of predict, hot-swap, and shutdown across threads:
    /// no call may hang (the scope joining proves it), every call gets
    /// exactly one reply, every served result is bit-exact for exactly one
    /// of the two models, and every error is typed.
    #[test]
    fn predict_swap_shutdown_interleavings_resolve_every_request(
        swap_after_us in 0u64..4000,
        shutdown_after_us in 0u64..4000,
        hammers in 1usize..4,
        cap_sel in 0usize..3,
    ) {
        let capacity = [0usize, 2, 256][cap_sel]; // unbounded, tiny, default
        let enc = stream(16);
        let model_a = frozen_model(8);
        let model_b = frozen_with(TransformKind::BoxCox);
        let want_a = model_a.predict_samples(&enc).unwrap();
        let want_b = model_b.predict_samples(&enc).unwrap();
        let engine = InferenceEngine::new(
            model_a,
            EngineConfig {
                workers: 2,
                max_batch: 4,
                queue_capacity: capacity,
                ..Default::default()
            },
        );
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..hammers)
                .map(|_| {
                    s.spawn(|| {
                        let mut resolved = 0usize;
                        for _ in 0..8 {
                            match engine.predict_samples(&enc) {
                                Ok(got) => {
                                    assert!(
                                        got == want_a || got == want_b,
                                        "result must match exactly one model"
                                    );
                                    resolved += 1;
                                }
                                Err(
                                    EngineError::WorkersUnavailable
                                    | EngineError::Overloaded { .. },
                                ) => resolved += 1,
                                Err(other) => panic!("unexpected error: {other}"),
                            }
                        }
                        resolved
                    })
                })
                .collect();
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_micros(swap_after_us));
                engine.swap_model(frozen_with(TransformKind::BoxCox)).unwrap();
            });
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_micros(shutdown_after_us));
                engine.shutdown();
            });
            for h in handles {
                prop_assert_eq!(h.join().unwrap(), 8, "every request got one reply");
            }
            Ok(())
        })?;
        // Terminal state: pool down, swap published, refusals typed.
        prop_assert_eq!(engine.worker_count(), 0);
        prop_assert_eq!(engine.generation(), 1);
        prop_assert!(matches!(
            engine.predict_samples(&enc),
            Err(EngineError::WorkersUnavailable)
        ));
    }
}
