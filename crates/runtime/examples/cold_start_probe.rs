//! Where a cold start's time goes: one cycle of `snapshot bytes → decode →
//! restore → InferenceEngine::new → first end_to_end_opts(resnet50, T4) →
//! drop`, each step timed on its own, as medians over 400 cycles — the
//! `cold_start` workload's cycle (`benchmark/src/workloads/cold_start.rs`)
//! on the model its fixture trains (`cdmpp train T4` at 12 epochs).
//!
//! ```text
//! cargo run --release -p runtime --example cold_start_probe   # ~10 s
//! ```
//!
//! Besides the cycle it prints `Predictor::new` alone (what a restore paid
//! to draw weights it then overwrote), the second and third call on the
//! same engine (the steady state the first call is set against), and
//! decode + restore for three snapshots of the same model — weights only,
//! weights + plans, weights + plans + the 16 specialization requests — so
//! the plan section's share of the file and of a load can be read off by
//! subtraction.
//!
//! Public API only, so the same file builds against an older commit of the
//! crates: that is how the before/after table in README ("Where a cold
//! start's time goes") is produced.

use std::time::Instant;

use cdmpp_core::{
    pretrain, InferenceModel, Predictor, PredictorConfig, Snapshot, TrainConfig, TrainedModel,
    DEFAULT_MAX_BATCH,
};
use dataset::{Dataset, GenConfig, SplitIndices};
use runtime::{end_to_end_opts, EngineConfig, InferenceEngine, SubmitOptions};
use tensor::QuantMode;

const CYCLES: usize = 400;
const WARMUP: usize = 40;

fn fixture_model() -> TrainedModel {
    let dev = devsim::t4();
    let ds = Dataset::generate(GenConfig {
        batch: 1,
        schedules_per_task: 24,
        devices: vec![dev.clone()],
        seed: 0,
        noise_sigma: 0.03,
    });
    let split = SplitIndices::for_device(&ds, &dev.name, &[], 0);
    pretrain(
        &ds,
        &split.train,
        &split.valid,
        PredictorConfig::default(),
        TrainConfig {
            epochs: 12,
            lr: 1.5e-3,
            ..Default::default()
        },
    )
    .0
}

/// Runs `f`, adds its wall time in µs to `into`, hands its value on.
fn timed<T>(into: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    into.push(t0.elapsed().as_secs_f64() * 1e6);
    out
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Median µs of `Snapshot::from_bytes` and `InferenceModel::from_snapshot`.
fn decode_restore(bytes: &[u8]) -> (f64, f64) {
    let (mut decode, mut restore) = (Vec::new(), Vec::new());
    for i in 0..WARMUP + CYCLES {
        if i == WARMUP {
            decode.clear();
            restore.clear();
        }
        let snap = timed(&mut decode, || Snapshot::from_bytes(bytes).unwrap());
        std::hint::black_box(timed(&mut restore, || {
            InferenceModel::from_snapshot(&snap).unwrap()
        }));
    }
    (median(&mut decode), median(&mut restore))
}

fn main() {
    let trained = fixture_model();
    let leaves: Vec<usize> = (1..=trained.predictor.config().max_leaves).collect();
    let capture = |leaves: &[usize]| {
        Snapshot::capture_quantized(&trained, leaves, QuantMode::F32).expect("plans compile")
    };
    let weights_only = capture(&[]).to_bytes();
    let with_plans = capture(&leaves).to_bytes();
    let full = capture(&leaves)
        .with_batch_classes(&[1, DEFAULT_MAX_BATCH])
        .expect("two classes fit")
        .to_bytes();

    let (net, dev) = (tir::zoo::resnet50(1), devsim::t4());
    let opts = SubmitOptions::default();
    const PHASES: [&str; 8] = [
        "decode (Snapshot::from_bytes)",
        "restore (InferenceModel::from_snapshot)",
        "InferenceEngine::new",
        "first call",
        "second call",
        "third call",
        "drop engine",
        "Predictor::new alone",
    ];
    let mut t: [Vec<f64>; 8] = Default::default();
    let mut workers = 0;
    for i in 0..WARMUP + CYCLES {
        if i == WARMUP {
            t.iter_mut().for_each(Vec::clear);
        }
        let snap = timed(&mut t[0], || Snapshot::from_bytes(&full).unwrap());
        let model = timed(&mut t[1], || InferenceModel::from_snapshot(&snap).unwrap());
        let engine = timed(&mut t[2], || {
            InferenceEngine::new(model, EngineConfig::default())
        });
        workers = engine.worker_count();
        for (k, phase) in (3..6).enumerate() {
            let seed = (3 * i + k) as u64;
            let r = timed(&mut t[phase], || {
                end_to_end_opts(&engine, &net, &dev, seed, &opts)
            });
            assert!(r.expect("served").predicted_s.is_finite());
        }
        timed(&mut t[6], || drop(engine));
        std::hint::black_box(timed(&mut t[7], || {
            Predictor::new(PredictorConfig::default())
        }));
    }

    println!(
        "snapshot {} bytes, {workers} workers, {} cores; median µs over {CYCLES} cycles",
        full.len(),
        parallel::resolve_threads(0)
    );
    println!("| step | µs |");
    println!("|---|---:|");
    let mut cycle = 0.0;
    for (k, (name, v)) in PHASES.iter().zip(t.iter_mut()).enumerate() {
        let m = median(v);
        // The cycle the benchmark times has one call in it.
        if !matches!(k, 4 | 5 | 7) {
            cycle += m;
        }
        println!("| {name} | {m:.0} |");
    }
    println!("| cycle with one call (sum of its medians) | {cycle:.0} |");
    println!();
    println!(
        "plans take {} of the file's bytes (with plans - weights only)",
        with_plans.len() - weights_only.len()
    );
    println!("| snapshot | bytes | decode µs | restore µs |");
    println!("|---|---:|---:|---:|");
    for (name, bytes) in [
        ("weights only", &weights_only),
        ("+ plans for every leaf count", &with_plans),
        ("+ specialization requests (the shipped file)", &full),
    ] {
        let (decode, restore) = decode_restore(bytes);
        println!("| {name} | {} | {decode:.0} | {restore:.0} |", bytes.len());
    }
}
