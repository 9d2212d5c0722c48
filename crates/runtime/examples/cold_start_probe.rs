//! Where a cold start's time goes: one cycle of `snapshot bytes → decode →
//! restore → InferenceEngine::new → first end_to_end_opts(resnet50, T4) →
//! drop`, each step timed and allocation-counted on its own, as medians
//! over 400 cycles — the `cold_start` workload's cycle
//! (`benchmark/src/workloads/cold_start.rs`) on the model its fixture
//! trains (`cdmpp train T4` at 12 epochs).
//!
//! ```text
//! cargo run --release -p runtime --example cold_start_probe            # ~10 s
//! cargo run --release -p runtime --example cold_start_probe -- --quick # smoke size
//! ```
//!
//! Besides the cycle it prints `Predictor::new` alone (the architecture a
//! restore rebuilds, with the weights it would draw), the second and third
//! call on the same engine (the steady state the first call is set
//! against), the folds the first call builds (each `(leaf count, batch)`
//! shape it meets, folded on a model restored for the purpose), decode +
//! restore as the one call the benchmark's untraced cycle makes
//! (`from_snapshot_bytes`), and
//! decode + restore for three snapshots of the same model — weights only,
//! weights + plans, weights + plans + the 16 specialization requests — so
//! the plan section's share of the file and of a load can be read off by
//! subtraction. Allocations are counted on the calling thread only, which
//! is the only one a call of this size runs on.
//!
//! Public API only, so the same file builds against an older commit of the
//! crates: that is how the before/after table in README ("Where a cold
//! start's time goes") is produced.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

use cdmpp_core::{
    encode_programs, pretrain, sample_network_programs, InferenceModel, Predictor, PredictorConfig,
    Snapshot, TrainConfig, TrainedModel, DEFAULT_MAX_BATCH,
};
use dataset::{Dataset, GenConfig, SplitIndices};
use runtime::{end_to_end_opts, EngineConfig, InferenceEngine, SubmitOptions};
use tensor::QuantMode;
use tir::TensorProgram;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the only addition is
// a bump of a const-initialized, destructor-free thread-local `Cell`, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: as `dealloc`; size/layout per the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Cycles measured and cycles run first to warm up.
struct Size {
    cycles: usize,
    warmup: usize,
    epochs: usize,
}

fn fixture_model(epochs: usize) -> TrainedModel {
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
            epochs,
            lr: 1.5e-3,
            ..Default::default()
        },
    )
    .0
}

/// One step's samples: wall µs and allocations, a pair per run.
type Samples = Vec<(f64, u64)>;

/// Runs `f`, adds its wall µs and allocations to `into`, hands its value
/// on.
fn timed<T>(into: &mut Samples, f: impl FnOnce() -> T) -> T {
    let a0 = ALLOCS.with(Cell::get);
    let t0 = Instant::now();
    let out = f();
    let us = t0.elapsed().as_secs_f64() * 1e6;
    into.push((us, ALLOCS.with(Cell::get) - a0));
    out
}

/// Median µs and median allocations.
fn median(v: &mut Samples) -> (f64, u64) {
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let us = v[v.len() / 2].0;
    v.sort_by_key(|s| s.1);
    (us, v[v.len() / 2].1)
}

/// Median µs and allocations of `Snapshot::from_bytes` and
/// `InferenceModel::from_snapshot`.
fn decode_restore(bytes: &[u8], size: &Size) -> ((f64, u64), (f64, u64)) {
    let (mut decode, mut restore) = (Vec::new(), Vec::new());
    for i in 0..size.warmup + size.cycles {
        if i == size.warmup {
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

/// The `(leaf count, batch)` shapes a network call on `seed` replays:
/// one per leaf count, its batch that count's share of the call.
fn call_shapes(net: &tir::Network, dev: &devsim::DeviceSpec, seed: u64) -> Vec<(usize, usize)> {
    let (_, programs) = sample_network_programs(net, seed);
    let refs: Vec<&TensorProgram> = programs.iter().collect();
    let theta = PredictorConfig::default().theta;
    let mut counts = BTreeMap::new();
    for s in encode_programs(&refs, dev, theta, true) {
        *counts.entry(s.leaf_count).or_insert(0usize) += 1;
    }
    counts.into_iter().collect()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let size = if quick {
        Size {
            cycles: 20,
            warmup: 2,
            epochs: 1,
        }
    } else {
        Size {
            cycles: 400,
            warmup: 40,
            epochs: 12,
        }
    };
    let trained = fixture_model(size.epochs);
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
    const PHASES: [&str; 10] = [
        "decode (Snapshot::from_bytes)",
        "restore (InferenceModel::from_snapshot)",
        "InferenceEngine::new",
        "first call",
        "second call",
        "third call",
        "drop engine",
        "Predictor::new alone",
        "folds the first call builds",
        "decode + restore as one call (from_snapshot_bytes)",
    ];
    let mut t: [Samples; 10] = Default::default();
    let (mut workers, mut folds) = (0, 0);
    for i in 0..size.warmup + size.cycles {
        if i == size.warmup {
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
        // The first call's folds, built alone on a second restore of the
        // same file, for the shapes the first call's seed meets.
        let shapes = call_shapes(&net, &dev, (3 * i) as u64);
        let fresh = InferenceModel::from_snapshot(&snap).unwrap();
        timed(&mut t[8], || {
            for &(l, b) in &shapes {
                std::hint::black_box(fresh.predictor.spec_plan_for(l, b).unwrap());
            }
        });
        folds = shapes.iter().filter(|s| s.1 <= DEFAULT_MAX_BATCH).count();
        std::hint::black_box(timed(&mut t[9], || {
            InferenceModel::from_snapshot_bytes(&full).unwrap()
        }));
    }

    println!(
        "snapshot {} bytes, {workers} workers, {} cores; median over {} cycles \
         (allocations on the calling thread)",
        full.len(),
        parallel::resolve_threads(0),
        size.cycles
    );
    println!("| step | µs | allocations |");
    println!("|---|---:|---:|");
    let (mut cycle, mut cycle_allocs) = (0.0, 0);
    for (k, (name, v)) in PHASES.iter().zip(t.iter_mut()).enumerate() {
        let (us, allocs) = median(v);
        // The cycle the benchmark times has one call in it.
        if !matches!(k, 4 | 5 | 7..) {
            cycle += us;
            cycle_allocs += allocs;
        }
        let name = if k == 8 {
            format!("{name} ({folds}, inside the first call)")
        } else {
            name.to_string()
        };
        println!("| {name} | {us:.0} | {allocs} |");
    }
    println!("| cycle with one call (sum of its medians) | {cycle:.0} | {cycle_allocs} |");
    println!();
    println!(
        "plans take {} of the file's bytes (with plans - weights only)",
        with_plans.len() - weights_only.len()
    );
    println!(
        "| snapshot | bytes | decode µs | decode allocations | restore µs | restore allocations |"
    );
    println!("|---|---:|---:|---:|---:|---:|");
    for (name, bytes) in [
        ("weights only", &weights_only),
        ("+ plans for every leaf count", &with_plans),
        ("+ specialization requests (the shipped file)", &full),
    ] {
        let ((decode, d_allocs), (restore, r_allocs)) = decode_restore(bytes, &size);
        println!(
            "| {name} | {} | {decode:.0} | {d_allocs} | {restore:.0} | {r_allocs} |",
            bytes.len()
        );
    }
}
