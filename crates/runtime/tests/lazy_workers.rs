//! The engine's threads exist from the first chunk that has to be queued
//! until `shutdown`: construction starts none, caller-run calls never
//! start any, the first fan-out starts exactly the configured pool
//! whatever number of callers race into it, and nothing is started once
//! `shutdown` has begun.
//!
//! The census is read from the names in `/proc/self/task` (the engine has
//! no accessor for it, and should not need one), so the counting tests run
//! on Linux only, and one at a time: the test harness runs a file's tests
//! on parallel threads of one process, and another test's workers would be
//! counted too. Every engine pins its fault plan, so the file reads the
//! same under CI's `CDMPP_FAULTS` job.
#![cfg(target_os = "linux")]

use std::sync::{Barrier, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use cdmpp_core::batch::{EncodedSample, FeatScaler};
use cdmpp_core::{InferenceModel, Predictor, PredictorConfig, TrainConfig, TrainedModel};
use features::{N_DEVICE_FEATURES, N_ENTRY};
use learn::TransformKind;
use runtime::{EngineConfig, EngineError, FaultPlan, InferenceEngine};

const MAX_BATCH: usize = 8;
const WORKERS: usize = 3;

static CENSUS: Mutex<()> = Mutex::new(());

/// Holds the census for one test. Taken before the test's engine is built
/// and held until after it is dropped.
fn alone() -> MutexGuard<'static, ()> {
    CENSUS.lock().unwrap_or_else(|p| p.into_inner())
}

/// `cdmpp-worker-*` threads alive in this process.
fn census() -> usize {
    let mut seen = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("/proc/self/task") {
        let comm = task.expect("task entry").path().join("comm");
        // A thread may exit between the listing and the read.
        let Ok(name) = std::fs::read_to_string(comm) else {
            continue;
        };
        if name.starts_with("cdmpp-worker-") {
            seen += 1;
        }
    }
    seen
}

/// The census must read `want`. A joined thread can stay listed for a
/// moment after `join` returns (the previous test's pool), so a census
/// that is too high is read again for a while; one that stays wrong fails.
#[track_caller]
fn assert_census(want: usize, when: &str) {
    let start = Instant::now();
    let mut got = census();
    while got != want && start.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(2));
        got = census();
    }
    assert_eq!(got, want, "workers {when}");
}

fn frozen() -> InferenceModel {
    TrainedModel {
        predictor: Predictor::new(PredictorConfig::default()),
        transform: TransformKind::None.fit(&[0.5, 1.0, 2.0, 4.0]),
        scaler: FeatScaler::identity(),
        use_pe: true,
        train_config: TrainConfig::default(),
    }
    .freeze()
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

/// `n` samples cycling through leaf counts 1..=`kinds`.
fn mixed(n: usize, kinds: usize) -> Vec<EncodedSample> {
    (0..n).map(|i| sample(1 + i % kinds, i)).collect()
}

fn engine(faults: &str) -> InferenceEngine {
    InferenceEngine::new(
        frozen(),
        EngineConfig {
            workers: WORKERS,
            max_batch: MAX_BATCH,
            faults: Some(FaultPlan::parse(faults).unwrap()),
            ..Default::default()
        },
    )
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn caller_run_calls_never_start_a_thread() {
    let _alone = alone();
    let eng = engine("");
    assert_census(0, "after construction");
    assert_eq!(eng.worker_count(), WORKERS, "the configured size");
    // One caller per caller-side runner, so no call ever finds none free.
    let start = Barrier::new(WORKERS);
    let model = eng.model();
    std::thread::scope(|s| {
        for t in 0..WORKERS {
            let (eng, model, start) = (&eng, &model, &start);
            s.spawn(move || {
                start.wait();
                for i in 0..200 {
                    let enc = mixed(1 + (t + i) % MAX_BATCH, 3);
                    let want = model.predict_samples(&enc).unwrap();
                    assert_eq!(bits(&eng.predict_samples(&enc).unwrap()), bits(&want));
                }
            });
        }
    });
    let s = eng.stats();
    assert_eq!(s.admitted, 200 * WORKERS as u64, "{s}");
    assert_eq!(s.completed_chunks, eng.caller_chunks(), "{s}");
    assert_eq!(s.queue_depth_hw, 0, "{s}");
    assert_census(0, "after 600 calls of at most one batch class");
    drop(eng);
    assert_census(0, "after drop");
}

#[test]
fn racing_first_fan_outs_start_the_pool_exactly_once() {
    let _alone = alone();
    let eng = engine("");
    let callers = 4 * eng.worker_count();
    let enc = mixed(3 * MAX_BATCH + 2, 4);
    let want = bits(&eng.model().predict_samples(&enc).unwrap());
    assert_census(0, "before the first fan-out");
    let start = Barrier::new(callers);
    std::thread::scope(|s| {
        for _ in 0..callers {
            s.spawn(|| {
                start.wait();
                assert_eq!(bits(&eng.predict_samples(&enc).unwrap()), want);
            });
        }
    });
    assert_census(WORKERS, "after 12 callers' first above-class call");
    let s = eng.stats();
    assert_eq!(s.admitted, callers as u64, "every call answered once: {s}");
    // 4 leaf buckets of 7, 7, 6, 6 samples: one chunk each.
    assert_eq!(s.completed_chunks, 4 * callers as u64, "{s}");
    assert_eq!(eng.caller_chunks(), 0, "above the class: all queued");
    // A second round finds the pool running and adds nothing to it.
    assert_eq!(bits(&eng.predict_samples(&enc).unwrap()), want);
    assert_census(WORKERS, "after a later fan-out");
    eng.shutdown();
    assert_eq!(eng.worker_count(), 0);
    assert_census(0, "after shutdown");
}

#[test]
fn a_small_call_that_finds_no_runner_free_starts_the_pool() {
    let _alone = alone();
    // The first `WORKERS` passages of the replay site sleep: that many
    // small calls hold every caller-side runner, and one more small call
    // has to go through the queue.
    let eng = engine(&format!("delay@replay:ms=300,times={WORKERS}"));
    let enc = mixed(4, 1);
    let want = bits(&eng.model().predict_samples(&enc).unwrap());
    std::thread::scope(|s| {
        let holders: Vec<_> = (0..WORKERS)
            .map(|_| s.spawn(|| bits(&eng.predict_samples(&enc).unwrap())))
            .collect();
        let waited = Instant::now();
        while eng.caller_chunks() < WORKERS as u64 {
            assert!(waited.elapsed() < Duration::from_secs(20), "holders stuck");
            std::thread::yield_now();
        }
        assert_census(0, "while callers run their own chunks");
        assert_eq!(bits(&eng.predict_samples(&enc).unwrap()), want);
        assert_eq!(eng.caller_chunks(), WORKERS as u64, "the extra call queued");
        assert_census(WORKERS, "after a below-class chunk was queued");
        for h in holders {
            assert_eq!(h.join().unwrap(), want);
        }
    });
    assert_eq!(eng.stats().completed_chunks, WORKERS as u64 + 1);
}

#[test]
fn nothing_is_started_once_shutdown_has_begun() {
    let _alone = alone();
    let eng = engine("");
    eng.predict_samples(&mixed(3, 3)).unwrap();
    eng.shutdown();
    assert_eq!(eng.worker_count(), 0);
    for enc in [mixed(3, 3), mixed(3 * MAX_BATCH, 2)] {
        match eng.predict_samples(&enc) {
            Err(EngineError::WorkersUnavailable) => {}
            other => panic!("expected WorkersUnavailable, got {other:?}"),
        }
    }
    assert_census(0, "after calls on a shut-down engine");
    eng.shutdown(); // idempotent on a pool that never existed
    assert_eq!(eng.caller_chunks(), 3, "nothing ran after shutdown");
}

#[test]
fn shutdown_racing_the_first_fan_out_neither_hangs_nor_leaks() {
    let _alone = alone();
    let enc = mixed(4 * MAX_BATCH, 2);
    let want = bits(&frozen().predict_samples(&enc).unwrap());
    for round in 0..40 {
        let eng = engine("");
        let start = Barrier::new(3);
        std::thread::scope(|s| {
            let callers = [(); 2].map(|_| {
                s.spawn(|| {
                    start.wait();
                    eng.predict_samples(&enc)
                })
            });
            s.spawn(|| {
                start.wait();
                // Spread the shutdown over the first call's lifetime.
                std::thread::sleep(Duration::from_micros(40 * (round % 8)));
                eng.shutdown();
            });
            for c in callers {
                match c.join().unwrap() {
                    Ok(got) => assert_eq!(bits(&got), want, "round {round}"),
                    Err(EngineError::WorkersUnavailable) => {}
                    Err(other) => panic!("round {round}: {other}"),
                }
            }
        });
        // Whichever side won, `shutdown` has returned: no thread is left.
        assert_census(0, "after a raced shutdown");
    }
}
