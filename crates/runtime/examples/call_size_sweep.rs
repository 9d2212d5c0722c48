//! What an engine call costs at each call size, against the floor: the
//! same samples through `InferenceModel::predict_samples_with` on a warmed
//! runner, no engine. The gap is the runtime's own admit, chunk, hand-off
//! and collect. Sizes run from 1 to twice the batch class (calls of at
//! most one class are replayed by the calling thread, larger ones fan out
//! to the workers), at one caller and at one caller per core.
//!
//! ```text
//! cargo run --release -p runtime --example call_size_sweep
//! ```
//!
//! Public API only, so the same file builds against an older commit of the
//! crate — that is how a before/after table is produced (README, "Where a
//! network call's time goes"). The model is untrained at the CLI's shape:
//! replay cost does not depend on the weights' values.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use cdmpp_core::batch::{EncodedSample, FeatScaler};
use cdmpp_core::{PlanRunner, Predictor, PredictorConfig, TrainConfig, TrainedModel};
use features::{N_DEVICE_FEATURES, N_ENTRY};
use learn::TransformKind;
use runtime::{EngineConfig, InferenceEngine};

/// Leaf buckets a call is spread over (a network call averages 3.1).
const BUCKETS: usize = 4;
/// Timed slices per side and cell; the median slice is reported.
const SLICES: usize = 7;
const SLICE: Duration = Duration::from_millis(60);

fn call(n: usize) -> Vec<EncodedSample> {
    (0..n)
        .map(|i| {
            let leaves = 2 + i % BUCKETS;
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

/// Mean µs per call over one slice with `callers` threads each looping `f`
/// on its own state from `mk`.
fn slice_us<T>(callers: usize, mk: impl Fn() -> T + Sync, f: impl Fn(&mut T) + Sync) -> f64 {
    let start = Barrier::new(callers);
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers)
            .map(|_| {
                s.spawn(|| {
                    let mut state = mk();
                    f(&mut state); // warm this thread's state
                    start.wait();
                    let t0 = Instant::now();
                    let mut calls = 0u32;
                    while t0.elapsed() < SLICE {
                        f(&mut state);
                        calls += 1;
                    }
                    t0.elapsed().as_secs_f64() * 1e6 / calls as f64
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    per_thread.iter().sum::<f64>() / callers as f64
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() {
    let model = TrainedModel {
        predictor: Predictor::new(PredictorConfig::default()),
        transform: TransformKind::None.fit(&[0.5, 1.0, 2.0, 4.0]),
        scaler: FeatScaler::identity(),
        use_pe: true,
        train_config: TrainConfig::default(),
    }
    .freeze();
    let engine = InferenceEngine::new(model, EngineConfig::default());
    let model = engine.model();
    let max_batch = engine.config().max_batch;
    let nproc = parallel::resolve_threads(0);
    println!(
        "max_batch {max_batch}, {} workers, {nproc} cores; µs per call, median of {SLICES} slices",
        engine.worker_count()
    );
    println!("| callers | samples | serial floor | engine call | overhead |");
    println!("|---:|---:|---:|---:|---:|");
    let mut callers_list = vec![1];
    if nproc > 1 {
        callers_list.push(nproc);
    }
    let mut sizes: Vec<usize> = std::iter::successors(Some(1), |n| Some(n * 2))
        .take_while(|&n| n <= max_batch)
        .collect();
    sizes.extend([max_batch + max_batch / 2, 2 * max_batch]);
    for &callers in &callers_list {
        for &n in &sizes {
            let enc = call(n);
            // Alternate the two sides slice by slice so host drift lands
            // on both.
            let (mut floor, mut eng) = (Vec::new(), Vec::new());
            for _ in 0..SLICES {
                floor.push(slice_us(callers, PlanRunner::new, |runner| {
                    std::hint::black_box(model.predict_samples_with(runner, &enc).unwrap());
                }));
                eng.push(slice_us(
                    callers,
                    || (),
                    |_| {
                        std::hint::black_box(engine.predict_samples(&enc).unwrap());
                    },
                ));
            }
            let (floor, eng) = (median(floor), median(eng));
            println!(
                "| {callers} | {n} | {floor:.1} | {eng:.1} | {:+.1} |",
                eng - floor
            );
        }
    }
}
