//! A compiled training step, held to its allocation contract by the
//! allocator itself: once a shape has been stepped, `CompiledStep::step`
//! and `CompiledStep::step_sharded` make **zero** heap allocations — the
//! replayed forward and backward, the loss head, the gradient clip and the
//! Adam update included. (Before the loss head was compiled, a sharded
//! step built four tapes of a dozen nodes each over copies of the
//! predictions.)
//!
//! One `#[test]` only: the counter is per thread, but a single test keeps
//! the binary's one global allocator free of any cross-test reasoning.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cdmpp_core::{Batch, CompiledStep, LossKind, Predictor, PredictorConfig};
use features::{N_DEVICE_FEATURES, N_ENTRY};
use nn::Adam;
use tensor::Tensor;

thread_local! {
    /// Allocations made by this thread while `Some`.
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

struct Counting;

fn note() {
    COUNT.with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every method forwards to `System` unchanged; the only addition is
// a bump of a const-initialized, destructor-free thread-local `Cell`, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: as `dealloc`; size/layout per the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `f`'s result, with the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    COUNT.with(|c| c.set(Some(0)));
    let out = f();
    let n = COUNT
        .with(|c| c.replace(None))
        .expect("counter armed above");
    (out, n)
}

/// A synthetic dense batch with labels on both sides of zero.
fn batch(rows: usize, leaves: usize) -> (Batch, Vec<f32>) {
    let x = Tensor::from_fn(&[rows, leaves, N_ENTRY], |i| {
        ((i as f32) * 0.137).sin() * 0.8
    });
    let dev = Tensor::from_fn(&[rows, N_DEVICE_FEATURES], |i| ((i as f32) * 0.311).cos());
    let y: Vec<f32> = (0..rows).map(|r| ((r as f32) * 0.73).sin() * 1.5).collect();
    let b = Batch {
        leaf_count: leaves,
        x,
        dev,
        y_raw: y.iter().map(|&v| v as f64).collect(),
        record_idx: (0..rows).collect(),
    };
    (b, y)
}

#[test]
fn warmed_compiled_steps_never_touch_the_heap() {
    let mut p = Predictor::new(PredictorConfig::default());
    let mut opt = Adam::with_weight_decay(2e-3, 1e-3);
    let mut stepper = CompiledStep::new();
    // Pre-training's batch in 16-row shards, then a fine-tuning-sized one.
    for (rows, leaves) in [(64usize, 3usize), (48, 5)] {
        let (b, y) = batch(rows, leaves);
        for kind in [
            LossKind::Hybrid,
            LossKind::Mse,
            LossKind::Mape,
            LossKind::Mspe,
        ] {
            for sharded in [true, false] {
                let mut step = || {
                    if sharded {
                        stepper.step_sharded(&mut p, &mut opt, &b, &y, kind, 1e-3)
                    } else {
                        stepper.step(&mut p, &mut opt, &b, &y, kind, 1e-3)
                    }
                };
                // The first step of a shape sizes the arenas, the shard
                // scratch and the optimizer state.
                assert!(step().is_finite());
                let (loss, n) = counted(&mut step);
                assert!(loss.is_finite());
                assert_eq!(
                    n, 0,
                    "{kind:?} B={rows} L={leaves} sharded={sharded}: a warmed step allocated {n} times"
                );
            }
        }
    }
}
