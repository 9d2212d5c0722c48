//! Fault-injection coverage for the hardened ingress: every fault kind ×
//! admission policy combination must resolve every request to exactly one
//! typed outcome — no hangs, no lost replies, no wrong results.
//!
//! The engine's own [`FaultPlan`] drives the failures deterministically
//! (per-engine counters), so these tests assert exact self-healing
//! behavior: injected worker panics retry to bit-exact results, injected
//! latency drives real deadline sheds, injected and real queue saturation
//! produce typed `Overloaded` rejections, and a model hot-swap under
//! sustained faulty traffic never serves a torn result.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use cdmpp_core::batch::{EncodedSample, FeatScaler};
use cdmpp_core::{Predictor, PredictorConfig, TrainConfig, TrainedModel};
use features::{N_DEVICE_FEATURES, N_ENTRY};
use learn::TransformKind;
use runtime::{
    AdmissionPolicy, Deadline, EngineConfig, EngineError, FaultPlan, InferenceEngine, SubmitOptions,
};

fn trained(transform: TransformKind) -> TrainedModel {
    TrainedModel {
        predictor: Predictor::new(PredictorConfig::default()),
        transform: transform.fit(&[0.5, 1.0, 2.0, 4.0]),
        scaler: FeatScaler::identity(),
        use_pe: true,
        train_config: TrainConfig::default(),
    }
}

fn frozen(transform: TransformKind) -> cdmpp_core::InferenceModel {
    trained(transform).freeze()
}

fn stream(n: usize) -> Vec<EncodedSample> {
    (0..n)
        .map(|i| {
            let leaves = 1 + i % 7;
            EncodedSample {
                record_idx: i,
                leaf_count: leaves,
                x: (0..leaves * N_ENTRY)
                    .map(|j| ((i * 97 + j) as f32 * 0.0231).sin())
                    .collect(),
                dev: [0.25; N_DEVICE_FEATURES],
                y_raw: 1e-3,
            }
        })
        .collect()
}

fn engine_with(faults: &str, cfg: EngineConfig) -> InferenceEngine {
    InferenceEngine::new(
        frozen(TransformKind::None),
        EngineConfig {
            faults: Some(FaultPlan::parse(faults).unwrap()),
            ..cfg
        },
    )
}

#[test]
fn injected_panics_heal_to_bit_exact_results() {
    // Every 5th chunk replay panics; the default retry budget re-dispatches
    // each panicked chunk onto the respawned worker. The caller must see
    // results bit-identical to an undisturbed serial run, and the pool must
    // stay at full strength throughout.
    let model = frozen(TransformKind::None);
    let enc = stream(160);
    let want = model.predict_samples(&enc).unwrap();
    let engine = InferenceEngine::new(
        model,
        EngineConfig {
            workers: 2,
            max_batch: 4,
            // A retried chunk's replay passage can land on another multiple
            // of `every` (~1/5 odds under interleaving); a generous budget
            // makes budget exhaustion astronomically unlikely.
            max_retries: 20,
            faults: Some(FaultPlan::parse("panic@replay:every=5").unwrap()),
            ..Default::default()
        },
    );
    for _ in 0..3 {
        let got = engine.predict_samples(&enc).unwrap();
        assert_eq!(got, want, "retried chunks must be bit-exact");
    }
    let s = engine.stats();
    assert!(s.worker_panics > 0, "faults must actually have fired: {s}");
    assert_eq!(
        s.chunk_retries, s.worker_panics,
        "with the budget never exhausted, every caught panic is retried: {s}"
    );
    assert!(s.worker_restarts >= s.worker_panics);
    assert_eq!(engine.worker_count(), 2, "panics must not shrink the pool");
}

#[test]
fn exhausted_retries_surface_typed_per_sample_errors() {
    // One injected panic, zero retry budget, one worker: the first chunk
    // dispatched fails with a typed per-sample error; every other sample is
    // bit-exact. The legacy whole-call API collapses to the typed error.
    let model = frozen(TransformKind::None);
    let enc = stream(40);
    let want = model.predict_samples(&enc).unwrap();
    let mk = || {
        InferenceEngine::new(
            frozen(TransformKind::None),
            EngineConfig {
                workers: 1,
                max_batch: 4,
                max_retries: 0,
                faults: Some(FaultPlan::parse("panic@replay:times=1").unwrap()),
                ..Default::default()
            },
        )
    };

    let engine = mk();
    let per = engine
        .predict_samples_opts(&enc, &SubmitOptions::default())
        .unwrap();
    assert_eq!(per.len(), enc.len(), "exactly one outcome per sample");
    let mut panicked = 0usize;
    for (i, r) in per.iter().enumerate() {
        match r {
            Ok(p) => assert_eq!(*p, want[i], "unaffected sample {i} must be exact"),
            Err(EngineError::WorkerPanicked) => panicked += 1,
            Err(other) => panic!("unexpected error for sample {i}: {other}"),
        }
    }
    assert!(
        (1..=4).contains(&panicked),
        "exactly one chunk (<= max_batch samples) fails, got {panicked}"
    );
    let s = engine.stats();
    assert_eq!(s.worker_panics, 1);
    assert_eq!(s.chunk_retries, 0);
    assert_eq!(engine.worker_count(), 1);
    // The pool self-healed: the fault is spent, follow-ups are exact.
    assert_eq!(engine.predict_samples(&enc).unwrap(), want);

    // Same fault through the legacy API: the whole call fails typed.
    let engine = mk();
    match engine.predict_samples(&enc) {
        Err(EngineError::WorkerPanicked) => {}
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
}

#[test]
fn injected_latency_drives_real_deadline_sheds() {
    // One worker sleeping 100ms per chunk, a 250ms deadline, and 8 chunks:
    // the first chunk (starts immediately) must be served, the last chunk
    // (starts after >= 700ms of predecessor sleeps) must be shed. Served
    // samples are bit-exact; every sample resolves exactly once.
    let model = frozen(TransformKind::None);
    let enc: Vec<EncodedSample> = stream(32)
        .into_iter()
        .map(|mut s| {
            s.leaf_count = 3; // one leaf bucket -> deterministic chunking
            s.x.resize(3 * N_ENTRY, 0.1);
            s
        })
        .collect();
    let want = model.predict_samples(&enc).unwrap();
    let engine = InferenceEngine::new(
        model,
        EngineConfig {
            workers: 1,
            max_batch: 4,
            faults: Some(FaultPlan::parse("delay@replay:ms=100").unwrap()),
            ..Default::default()
        },
    );
    let per = engine
        .predict_samples_opts(
            &enc,
            &SubmitOptions::deadline_within(Duration::from_millis(250)),
        )
        .unwrap();
    assert_eq!(per.len(), enc.len(), "exactly one outcome per sample");
    let (mut served, mut shed) = (0usize, 0usize);
    for (i, r) in per.iter().enumerate() {
        match r {
            Ok(p) => {
                assert_eq!(*p, want[i], "served sample {i} must be bit-exact");
                served += 1;
            }
            Err(EngineError::DeadlineExceeded) => shed += 1,
            Err(other) => panic!("unexpected error for sample {i}: {other}"),
        }
    }
    assert!(served >= 4, "first chunk must beat the deadline ({served})");
    assert!(shed >= 4, "last chunk must be shed ({shed})");
    assert!(engine.stats().deadline_sheds >= 1);
    // Deadline-free traffic afterwards is exact (delay slows, not breaks).
    assert_eq!(engine.predict_samples(&enc).unwrap(), want);
}

#[test]
fn spent_latency_fault_sheds_every_sample_deterministically() {
    // The single worker sleeps once for 60ms against a 30ms deadline: the
    // slept-through chunk is shed post-delay, and every later chunk is shed
    // on its own expired deadline. All samples resolve DeadlineExceeded.
    let engine = engine_with(
        "delay@replay:ms=60,times=1",
        EngineConfig {
            workers: 1,
            max_batch: 4,
            ..Default::default()
        },
    );
    let enc = stream(24);
    let per = engine
        .predict_samples_opts(
            &enc,
            &SubmitOptions::deadline_within(Duration::from_millis(30)),
        )
        .unwrap();
    assert_eq!(per.len(), enc.len());
    for (i, r) in per.iter().enumerate() {
        match r {
            Err(EngineError::DeadlineExceeded) => {}
            other => panic!("sample {i}: expected DeadlineExceeded, got {other:?}"),
        }
    }
    // The fault is spent; an undeadlined follow-up is served in full.
    assert_eq!(engine.predict_samples(&enc).unwrap().len(), enc.len());
}

#[test]
fn forced_rejections_alternate_deterministically() {
    // reject@admit:every=2 fires on exactly every second call: admitted,
    // rejected, admitted, rejected — with the typed Overloaded error.
    let engine = engine_with(
        "reject@admit:every=2",
        EngineConfig {
            workers: 1,
            max_batch: 8,
            ..Default::default()
        },
    );
    let enc = stream(8);
    for call in 1..=6u64 {
        let res = engine.predict_samples(&enc);
        if call % 2 == 0 {
            match res {
                Err(EngineError::Overloaded { capacity, .. }) => {
                    assert_eq!(capacity, runtime::DEFAULT_QUEUE_CAPACITY)
                }
                other => panic!("call {call}: expected Overloaded, got {other:?}"),
            }
        } else {
            assert_eq!(res.unwrap().len(), enc.len(), "call {call}");
        }
    }
    let s = engine.stats();
    assert_eq!((s.admitted, s.rejected), (3, 3), "{s}");
}

#[test]
fn real_saturation_rejects_typed_and_recovers() {
    // A tiny queue, a slow worker, and four hammer threads: overloaded
    // calls must fail fast with the typed Overloaded error carrying the
    // real capacity, successful calls must be bit-exact, and the engine
    // must serve normally once the storm passes.
    let model = frozen(TransformKind::None);
    let enc = stream(24);
    let want = model.predict_samples(&enc).unwrap();
    let engine = InferenceEngine::new(
        model,
        EngineConfig {
            workers: 1,
            max_batch: 4,
            queue_capacity: 2,
            admission: AdmissionPolicy::Reject,
            faults: Some(FaultPlan::parse("delay@replay:ms=10").unwrap()),
            ..Default::default()
        },
    );
    let rejected = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..12 {
                    match engine.predict_samples(&enc) {
                        Ok(got) => assert_eq!(got, want, "served calls must be exact"),
                        Err(EngineError::Overloaded { capacity, .. }) => {
                            assert_eq!(capacity, 2);
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(other) => panic!("unexpected error: {other}"),
                    }
                }
            });
        }
    });
    assert!(
        rejected.load(Ordering::Relaxed) > 0,
        "a 2-chunk queue against a 10ms/chunk worker and 4 hammers must \
         reject someone (stats: {})",
        engine.stats()
    );
    assert_eq!(engine.stats().rejected, rejected.load(Ordering::Relaxed));
    // Post-storm: the same engine serves cleanly.
    assert_eq!(engine.predict_samples(&enc).unwrap(), want);
}

#[test]
fn blocking_admission_waits_out_saturation() {
    // Same tiny queue and slow worker, but Block admission with a generous
    // timeout: nobody is rejected — calls queue up behind the drain and
    // every result is bit-exact.
    let model = frozen(TransformKind::None);
    let enc = stream(24);
    let want = model.predict_samples(&enc).unwrap();
    let engine = InferenceEngine::new(
        model,
        EngineConfig {
            workers: 1,
            max_batch: 4,
            queue_capacity: 2,
            admission: AdmissionPolicy::Block {
                timeout: Duration::from_secs(30),
            },
            faults: Some(FaultPlan::parse("delay@replay:ms=5").unwrap()),
            ..Default::default()
        },
    );
    std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(|| {
                for _ in 0..6 {
                    assert_eq!(engine.predict_samples(&enc).unwrap(), want);
                }
            });
        }
    });
    let s = engine.stats();
    assert_eq!(s.rejected, 0, "blocking admission must not reject: {s}");
    assert_eq!(s.admitted, 18);
}

#[test]
fn hot_swap_under_sustained_traffic_never_tears_a_call() {
    // Two models with distinguishable transforms. Hammer threads predict
    // continuously while the main thread swaps A -> B. Every single call's
    // full result vector must equal the serial reference of exactly one
    // model — a torn (mixed-generation) result is the failure mode this
    // guards against.
    let enc = stream(48);
    let model_a = frozen(TransformKind::None);
    let model_b = frozen(TransformKind::BoxCox);
    let ref_a = model_a.predict_samples(&enc).unwrap();
    let ref_b = model_b.predict_samples(&enc).unwrap();
    assert_ne!(ref_a, ref_b, "fixture models must be distinguishable");

    let engine = InferenceEngine::new(
        model_a,
        EngineConfig {
            workers: 3,
            max_batch: 8,
            faults: Some(FaultPlan::none()),
            ..Default::default()
        },
    );
    assert_eq!(engine.generation(), 0);
    assert_eq!(engine.predict_samples(&enc).unwrap(), ref_a);

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    let (mut saw_a, mut saw_b) = (0usize, 0usize);
                    for _ in 0..40 {
                        let got = engine.predict_samples(&enc).unwrap();
                        if got == ref_a {
                            saw_a += 1;
                        } else if got == ref_b {
                            saw_b += 1;
                        } else {
                            panic!("torn result: matches neither model's reference");
                        }
                    }
                    (saw_a, saw_b)
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(3));
        let generation = engine.swap_model(frozen(TransformKind::BoxCox)).unwrap();
        assert_eq!(generation, 1);
        for h in handles {
            let (saw_a, saw_b) = h.join().unwrap();
            assert_eq!(saw_a + saw_b, 40, "every call resolves exactly once");
        }
    });
    // After the swap returns, every new admission is on the new model.
    assert_eq!(engine.predict_samples(&enc).unwrap(), ref_b);
    assert_eq!(engine.generation(), 1);
    let s = engine.stats();
    assert_eq!(s.swaps, 1, "{s}");
}

#[test]
fn snapshot_file_swap_cuts_over_and_bad_files_leave_old_model_serving() {
    let enc = stream(32);
    let trained_b = trained(TransformKind::YeoJohnson);
    let ref_a = frozen(TransformKind::None).predict_samples(&enc).unwrap();
    let ref_b = trained_b.freeze().predict_samples(&enc).unwrap();
    assert_ne!(ref_a, ref_b);

    let dir = std::env::temp_dir().join(format!("cdmpp-swap-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("next.cdmppsnap");
    trained_b.save_snapshot(&path).unwrap();

    let engine = engine_with(
        "",
        EngineConfig {
            workers: 2,
            max_batch: 8,
            ..Default::default()
        },
    );
    assert_eq!(engine.predict_samples(&enc).unwrap(), ref_a);

    // A bad snapshot is a typed error and a no-op on the served model.
    let bad = dir.join("bad.cdmppsnap");
    std::fs::write(&bad, b"not a snapshot").unwrap();
    match engine.swap_snapshot(&bad) {
        Err(EngineError::Snapshot(_)) => {}
        other => panic!("expected Snapshot error, got {other:?}"),
    }
    assert_eq!(engine.generation(), 0);
    assert_eq!(engine.predict_samples(&enc).unwrap(), ref_a);

    // The good file cuts over atomically.
    let generation = engine.swap_snapshot(&path).unwrap();
    assert_eq!(generation, 1);
    assert_eq!(engine.predict_samples(&enc).unwrap(), ref_b);
    // Specialized plans were prewarmed before publication: serving the
    // swapped model recorded no plans on the hot path beyond the prewarm.
    let compiles_after_swap = engine.model().predictor.plan_compile_count();
    engine.predict_samples(&enc).unwrap();
    assert_eq!(
        engine.model().predictor.plan_compile_count(),
        compiles_after_swap,
        "post-swap serving must not hit a folding cliff"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_fault_and_policy_combination_resolves_cleanly() {
    // The full matrix: fault profile x admission policy.
    // With no deadline and the default retry budget, every combination
    // must serve bit-exact results, resolve every sample exactly once,
    // and tear down to a typed refusal.
    let model = frozen(TransformKind::None);
    let enc = stream(30);
    let want = model.predict_samples(&enc).unwrap();
    let faults = ["panic@replay:every=3", "delay@replay:ms=2,every=2"];
    let admissions = [
        AdmissionPolicy::Reject,
        AdmissionPolicy::Block {
            timeout: Duration::from_secs(30),
        },
    ];
    for fault in faults {
        for admission in admissions {
            let label = format!("{fault} / {admission:?}");
            let engine = InferenceEngine::new(
                frozen(TransformKind::None),
                EngineConfig {
                    workers: 2,
                    max_batch: 4,
                    admission,
                    // See injected_panics_heal_to_bit_exact_results: a
                    // big budget keeps re-fired retries from exhausting.
                    max_retries: 20,
                    faults: Some(FaultPlan::parse(fault).unwrap()),
                    ..Default::default()
                },
            );
            let per = engine
                .predict_samples_opts(&enc, &SubmitOptions::default())
                .unwrap();
            assert_eq!(per.len(), enc.len(), "{label}: one outcome per sample");
            for (i, r) in per.into_iter().enumerate() {
                match r {
                    Ok(p) => assert_eq!(p, want[i], "{label}: sample {i}"),
                    Err(other) => panic!("{label}: sample {i} failed: {other}"),
                }
            }
            engine.shutdown();
            match engine.predict_samples(&enc) {
                Err(EngineError::WorkersUnavailable) => {}
                other => panic!("{label}: expected refusal after shutdown, got {other:?}"),
            }
        }
    }
}

#[test]
fn delay_faults_racing_concurrent_callers_stay_bit_exact() {
    // Injected replay latency (2ms every 3rd chunk) under three concurrent
    // callers whose 21-sample calls are above the batch class, so every
    // chunk is queued: slowed workers race each other and the callers'
    // chunks interleave in the queue. Every call must still come back
    // bit-identical to the serial reference — delays reorder *when*
    // chunks execute, never what they compute.
    let model = frozen(TransformKind::None);
    let enc = stream(21); // leaf mix -> several below-class partial chunks
    let want = model.predict_samples(&enc).unwrap();
    let engine = InferenceEngine::new(
        model,
        EngineConfig {
            workers: 2,
            max_batch: 8,
            faults: Some(FaultPlan::parse("delay@replay:ms=2,every=3").unwrap()),
            ..Default::default()
        },
    );
    std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(|| {
                for _ in 0..8 {
                    assert_eq!(
                        engine.predict_samples(&enc).unwrap(),
                        want,
                        "results must match serial under delay faults"
                    );
                }
            });
        }
    });
    assert_eq!(engine.caller_chunks(), 0, "above the class: all queued");
    // Teardown under the same faults: typed refusal, no hang.
    engine.shutdown();
    match engine.predict_samples(&enc) {
        Err(EngineError::WorkersUnavailable) => {}
        other => panic!("expected WorkersUnavailable after shutdown, got {other:?}"),
    }
}

#[test]
fn pre_expired_deadline_is_shed_before_admission() {
    let engine = engine_with(
        "",
        EngineConfig {
            workers: 1,
            max_batch: 8,
            ..Default::default()
        },
    );
    let enc = stream(8);
    let opts = SubmitOptions {
        deadline: Some(Deadline::at(std::time::Instant::now())),
    };
    match engine.predict_samples_opts(&enc, &opts) {
        Err(EngineError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let s = engine.stats();
    assert_eq!(s.admitted, 0, "expired calls never reach admission: {s}");
    assert!(s.deadline_sheds >= 1);
}
