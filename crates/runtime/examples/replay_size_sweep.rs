//! What one replay costs at each `(leaf count, batch size)`: the
//! batch-generic plan (`predict_planned_generic`) against whatever
//! `predict_planned` routes that shape to, one thread, no engine.
//!
//! ```text
//! cargo run --release -p runtime --example replay_size_sweep
//! ```
//!
//! Public API only, so the same file builds against an older commit of the
//! crate — that is how a before/after table is produced (README, "Where
//! replay time goes"): at a commit that folds registered classes only, the
//! routed column *is* the generic plan everywhere but B = 1 and B = 64; at
//! a commit that folds on first use it is a fold in every row. The model
//! is untrained at the CLI's shape: replay cost does not depend on the
//! weights' values. Every cell asserts the two paths' outputs bit-equal.

use std::time::{Duration, Instant};

use cdmpp_core::{PlanRunner, Predictor, PredictorConfig, DEFAULT_MAX_BATCH};
use features::{N_DEVICE_FEATURES, N_ENTRY};
use tensor::Tensor;

const LEAVES: [usize; 4] = [2, 3, 4, 8];
const BATCHES: [usize; 9] = [1, 2, 3, 5, 8, 13, 24, 40, 64];
/// Timed slices per side and cell; the median slice is reported.
const SLICES: usize = 9;
const SLICE: Duration = Duration::from_millis(25);

/// Mean µs per call of `f` over one slice.
fn slice_us(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0u32;
    while t0.elapsed() < SLICE {
        f();
        calls += 1;
    }
    t0.elapsed().as_secs_f64() * 1e6 / calls as f64
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() {
    let shared = Predictor::new(PredictorConfig::default()).share();
    // What an engine registers on the model it serves.
    for class in [1, DEFAULT_MAX_BATCH] {
        assert!(shared.register_batch_class(class));
    }
    println!(
        "kernel tier {}, one thread; µs per replay, median of {SLICES} slices of {} ms",
        tensor::kernel_tier_name(),
        SLICE.as_millis()
    );
    println!("| L | B | generic plan | predict_planned | ratio |");
    println!("|---:|---:|---:|---:|---:|");
    let (mut generic_runner, mut routed_runner) = (PlanRunner::new(), PlanRunner::new());
    for l in LEAVES {
        for b in BATCHES {
            let x = Tensor::from_fn(&[b, l, N_ENTRY], |i| ((i as f32) * 0.0231).sin());
            let dev = Tensor::from_fn(&[b, N_DEVICE_FEATURES], |i| ((i as f32) * 0.311).cos());
            let want = shared
                .predict_planned_generic(&mut generic_runner, &x, &dev)
                .unwrap();
            let got = shared
                .predict_planned(&mut routed_runner, &x, &dev)
                .unwrap();
            let bits = |v: &[f32]| v.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "L={l} B={b}: outputs differ");
            // Alternate the two sides slice by slice so host drift lands
            // on both.
            let (mut generic, mut routed) = (Vec::new(), Vec::new());
            for _ in 0..SLICES {
                generic.push(slice_us(|| {
                    let y = shared.predict_planned_generic(&mut generic_runner, &x, &dev);
                    std::hint::black_box(y.unwrap());
                }));
                routed.push(slice_us(|| {
                    let y = shared.predict_planned(&mut routed_runner, &x, &dev);
                    std::hint::black_box(y.unwrap());
                }));
            }
            let (generic, routed) = (median(generic), median(routed));
            println!(
                "| {l} | {b} | {generic:.1} | {routed:.1} | {:.2} |",
                routed / generic
            );
        }
    }
}
