//! Caller-runs execution: a call carrying no more samples than one batch
//! class is replayed by the thread that made it, through the same job
//! function the workers run. These tests hold the routing rule itself
//! (which calls take the path, that the caller-side runners stay bounded)
//! and every guarantee the queued path gives — bit-identity with serial,
//! panic containment and retry, per-chunk deadline sheds, hot swap,
//! shutdown, overload — on that path.
//!
//! Every engine here pins its fault plan, so the file reads the same under
//! CI's `CDMPP_FAULTS` job.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use cdmpp_core::batch::{EncodedSample, FeatScaler};
use cdmpp_core::{InferenceModel, Predictor, PredictorConfig, TrainConfig, TrainedModel};
use features::{N_DEVICE_FEATURES, N_ENTRY};
use learn::TransformKind;
use runtime::{EngineConfig, EngineError, FaultPlan, InferenceEngine, SubmitOptions};
use tensor::QuantMode;

const MAX_BATCH: usize = 8;

fn frozen(seed: u64, transform: TransformKind, quant: QuantMode) -> InferenceModel {
    TrainedModel {
        predictor: Predictor::new(PredictorConfig {
            seed,
            ..Default::default()
        }),
        transform: transform.fit(&[0.5, 1.0, 2.0, 4.0]),
        scaler: FeatScaler::identity(),
        use_pe: true,
        train_config: TrainConfig::default(),
    }
    .freeze_quantized(quant)
}

fn sample(leaves: usize, salt: usize) -> EncodedSample {
    EncodedSample {
        record_idx: salt,
        leaf_count: leaves,
        x: (0..leaves * N_ENTRY)
            .map(|j| ((salt * 97 + j) as f32 * 0.0231).sin())
            .collect(),
        dev: [0.25; N_DEVICE_FEATURES],
        y_raw: 1e-3,
    }
}

/// `n` samples cycling through leaf counts 1..=`kinds` (so a call has
/// `min(n, kinds)` leaf buckets).
fn mixed(n: usize, kinds: usize) -> Vec<EncodedSample> {
    (0..n).map(|i| sample(1 + i % kinds, i)).collect()
}

fn engine(faults: &str, cfg: EngineConfig) -> InferenceEngine {
    quant_engine(QuantMode::F32, faults, cfg)
}

/// [`engine`] serving weights stored as `quant`.
fn quant_engine(quant: QuantMode, faults: &str, cfg: EngineConfig) -> InferenceEngine {
    InferenceEngine::new(
        frozen(0, TransformKind::None, quant),
        EngineConfig {
            max_batch: MAX_BATCH,
            faults: Some(FaultPlan::parse(faults).unwrap()),
            ..cfg
        },
    )
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Spins until `cond` holds (the tests below wait on engine counters that
/// another thread is about to move); fails instead of hanging.
fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "timed out: {what}"
        );
        std::thread::yield_now();
    }
}

#[test]
fn every_size_across_the_boundary_matches_serial_bitwise() {
    for quant in [QuantMode::F32, QuantMode::I8] {
        let eng = quant_engine(
            quant,
            "",
            EngineConfig {
                workers: 2,
                ..Default::default()
            },
        );
        let model = eng.model();
        assert_eq!(model.predictor.quant_kind(), quant == QuantMode::I8);
        let mut completed = 0;
        for n in 1..=MAX_BATCH + 1 {
            let enc = mixed(n, 5);
            let want = model.predict_samples(&enc).unwrap();
            let before = eng.caller_chunks();
            let got = eng.predict_samples(&enc).unwrap();
            assert_eq!(bits(&got), bits(&want), "{quant:?}, {n} samples");
            let s = eng.stats();
            if n <= MAX_BATCH {
                let buckets = n.min(5) as u64;
                assert_eq!(eng.caller_chunks() - before, buckets, "{n} samples");
                assert_eq!(s.queue_depth_hw, 0, "{n} samples: nothing was queued");
                completed += buckets;
                assert_eq!(s.completed_chunks, completed, "{n} samples");
            } else {
                assert_eq!(eng.caller_chunks(), before, "above the class: queued");
                assert!(s.queue_depth_hw >= 1, "{s}");
            }
        }
    }
}

#[test]
fn panic_on_the_caller_path_is_contained_and_retried() {
    // One caller thread, so the replay site is passed serially: the first
    // chunk runs clean, the second panics and its retry runs clean.
    let eng = engine(
        "panic@replay:every=2",
        EngineConfig {
            workers: 1,
            ..Default::default()
        },
    );
    let enc = mixed(6, 2);
    let want = eng.model().predict_samples(&enc).unwrap();
    for _ in 0..4 {
        assert_eq!(bits(&eng.predict_samples(&enc).unwrap()), bits(&want));
    }
    let s = eng.stats();
    assert!(s.worker_panics >= 4, "the plan must have fired: {s}");
    assert_eq!(s.chunk_retries, s.worker_panics, "{s}");
    assert_eq!(s.worker_restarts, s.worker_panics, "{s}");
    assert_eq!(s.completed_chunks, 8, "{s}");
    assert_eq!(eng.caller_chunks(), 8 + s.chunk_retries);
    assert_eq!(s.queue_depth_hw, 0, "retries stayed on the caller: {s}");
}

#[test]
fn exhausted_retries_fail_the_call_and_the_thread_keeps_serving() {
    // Three panics against a budget of two retries: the one chunk of the
    // first call fails typed; the plan is then spent.
    let eng = engine(
        "panic@replay:times=3",
        EngineConfig {
            workers: 1,
            max_retries: 2,
            ..Default::default()
        },
    );
    let enc = mixed(4, 1);
    let want = eng.model().predict_samples(&enc).unwrap();
    match eng.predict_samples(&enc) {
        Err(EngineError::WorkerPanicked) => {}
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    let s = eng.stats();
    assert_eq!((s.worker_panics, s.chunk_retries), (3, 2), "{s}");
    assert_eq!(bits(&eng.predict_samples(&enc).unwrap()), bits(&want));
    assert_eq!(eng.caller_chunks(), 4);
}

#[test]
fn delayed_chunk_past_its_deadline_is_shed_alone() {
    // Every second passage sleeps past the deadline. The warm-up call
    // takes passages 1-2; the deadlined call runs its first bucket
    // (passage 3) and sheds its second (passage 4).
    let eng = engine(
        "delay@replay:ms=300,every=2",
        EngineConfig {
            workers: 1,
            ..Default::default()
        },
    );
    let enc = mixed(6, 2);
    let want = eng.model().predict_samples(&enc).unwrap();
    assert_eq!(bits(&eng.predict_samples(&enc).unwrap()), bits(&want));
    let per = eng
        .predict_samples_opts(
            &enc,
            &SubmitOptions::deadline_within(Duration::from_millis(150)),
        )
        .unwrap();
    for (i, (r, w)) in per.iter().zip(&want).enumerate() {
        match (enc[i].leaf_count, r) {
            (1, Ok(p)) => assert_eq!(p.to_bits(), w.to_bits(), "sample {i}"),
            (2, Err(EngineError::DeadlineExceeded)) => {}
            other => panic!("sample {i}: {other:?}"),
        }
    }
    let s = eng.stats();
    assert_eq!(s.deadline_sheds, 1, "{s}");
    assert_eq!(eng.caller_chunks(), 4);
}

#[test]
fn swap_between_two_calls_serves_each_its_own_generation() {
    let enc = mixed(MAX_BATCH, 3);
    for quant in [QuantMode::F32, QuantMode::I8] {
        let model_b = frozen(7, TransformKind::BoxCox, quant);
        let want_b = model_b.predict_samples(&enc).unwrap();
        let eng = quant_engine(
            quant,
            "",
            EngineConfig {
                workers: 1,
                ..Default::default()
            },
        );
        let want_a = eng.model().predict_samples(&enc).unwrap();
        assert_ne!(bits(&want_a), bits(&want_b), "fixture models must differ");
        assert_eq!(bits(&eng.predict_samples(&enc).unwrap()), bits(&want_a));
        assert_eq!(eng.swap_model(model_b).unwrap(), 1);
        // The same caller-side runner now replays the new generation's plans.
        assert_eq!(bits(&eng.predict_samples(&enc).unwrap()), bits(&want_b));
        assert_eq!(eng.caller_chunks(), 6, "{quant:?}");
    }
}

#[test]
fn after_shutdown_a_small_call_is_workers_unavailable() {
    let eng = engine("", EngineConfig::default());
    let enc = mixed(3, 3);
    eng.predict_samples(&enc).unwrap();
    eng.shutdown();
    match eng.predict_samples(&enc) {
        Err(EngineError::WorkersUnavailable) => {}
        other => panic!("expected WorkersUnavailable, got {other:?}"),
    }
    assert_eq!(eng.caller_chunks(), 3, "nothing ran after shutdown");
}

#[test]
fn saturated_queue_still_rejects_a_small_call() {
    // One slow worker and a two-chunk queue: a large call parks its
    // producer on a full queue. Admission comes before routing, so a small
    // call arriving then is refused exactly like a large one.
    let eng = engine(
        "delay@replay:ms=100",
        EngineConfig {
            workers: 1,
            queue_capacity: 2,
            ..Default::default()
        },
    );
    let big = mixed(6 * MAX_BATCH, 1);
    let small = mixed(2, 1);
    let want = eng.model().predict_samples(&small).unwrap();
    std::thread::scope(|s| {
        let producer = s.spawn(|| eng.predict_samples(&big).unwrap());
        let mut rejected = false;
        while !producer.is_finished() && !rejected {
            wait_for("queue to fill", || {
                eng.stats().queue_depth == 2 || producer.is_finished()
            });
            match eng.predict_samples(&small) {
                Err(EngineError::Overloaded { capacity, .. }) => {
                    assert_eq!(capacity, 2);
                    rejected = true;
                }
                // The worker dequeued between the check and the call.
                Ok(got) => assert_eq!(bits(&got), bits(&want)),
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(rejected, "never saw the full queue: {}", eng.stats());
        producer.join().unwrap();
    });
    assert!(eng.stats().rejected >= 1);
}

#[test]
fn caller_side_runners_are_one_per_worker_and_overflow_is_queued() {
    // Two workers, so two caller-side runners. Two threads borrow them and
    // sleep in the replay site; a third small call must neither wait for
    // one nor get a third — it goes through the queue.
    let eng = engine(
        "delay@replay:ms=400,times=2",
        EngineConfig {
            workers: 2,
            ..Default::default()
        },
    );
    let enc = mixed(4, 1);
    let want = eng.model().predict_samples(&enc).unwrap();
    std::thread::scope(|s| {
        let holders = [(); 2].map(|_| s.spawn(|| eng.predict_samples(&enc).unwrap()));
        wait_for("both holders to enter their chunks", || {
            eng.caller_chunks() == 2
        });
        let got = eng.predict_samples(&enc).unwrap();
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(eng.caller_chunks(), 2, "the third call was not inline");
        assert_eq!(eng.stats().queue_depth_hw, 1);
        for h in holders {
            assert_eq!(bits(&h.join().unwrap()), bits(&want));
        }
    });
    assert_eq!(eng.stats().completed_chunks, 3);
    // Both runners came back: the next call is inline again.
    eng.predict_samples(&enc).unwrap();
    assert_eq!(eng.caller_chunks(), 3);
}

#[test]
fn many_threads_hammering_small_calls_stay_exact_and_bounded() {
    let eng = engine(
        "",
        EngineConfig {
            workers: 2,
            ..Default::default()
        },
    );
    let threads = 4 * eng.worker_count();
    const CALLS: usize = 60;
    let enc = mixed(7, 3);
    let want = bits(&eng.model().predict_samples(&enc).unwrap());
    let start = Barrier::new(threads);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                start.wait();
                for _ in 0..CALLS {
                    assert_eq!(bits(&eng.predict_samples(&enc).unwrap()), want);
                }
            });
        }
    });
    let s = eng.stats();
    let calls = (threads * CALLS) as u64;
    assert_eq!(s.admitted, calls, "{s}");
    assert_eq!(s.completed_chunks, 3 * calls, "{s}");
    assert_eq!((s.queue_depth, s.worker_panics), (0, 0), "{s}");
    assert!(eng.caller_chunks() > 0 && eng.caller_chunks() <= s.completed_chunks);
}
