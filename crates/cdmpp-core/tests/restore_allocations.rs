//! What a snapshot restore costs, held by the allocator itself:
//! `InferenceModel::from_snapshot` on the committed golden fixture and on
//! a file of the shape `cdmpp train --save` ships (the default predictor,
//! 60 tensors, a plan for each of its 8 leaf counts and the two default
//! batch classes), counted in allocations and in bytes allocated. A
//! weights-only restore that allocates under twice its weight bytes holds
//! each tensor once and allocates no gradient: a zeroed gradient next to
//! each weight would take it past twice.
//!
//! Before restore built a values-only store and copied each tensor into
//! the architecture's own, and before plan validation reused one operand
//! list across a plan's steps, a restore made 634 allocations (124 359
//! bytes) on the golden fixture and 1 360 (724 036 bytes, 3.7× its 196 964 weight
//! bytes) on the shipped shape; a weights-only snapshot of the shipped
//! shape took 630 of them and 617 748 bytes: a zeroed stand-in, a zeroed
//! gradient and an installed clone per tensor. Now: 254 and 446, and a
//! weights-only restore allocates 1.6× (golden) and 1.1× (shipped) its
//! weight bytes.
//!
//! One `#[test]` only: the counter is per thread, but a single test keeps
//! the binary's one global allocator free of any cross-test reasoning.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cdmpp_core::batch::FeatScaler;
use cdmpp_core::{
    InferenceModel, Predictor, PredictorConfig, Snapshot, TrainConfig, TrainedModel,
    DEFAULT_MAX_BATCH,
};
use learn::TransformKind;

const FIXTURE: &[u8] = include_bytes!("../../../tests/fixtures/golden.cdmppsnap");

thread_local! {
    /// Allocations and bytes allocated by this thread while `Some`.
    static COUNT: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

struct Counting;

fn note(bytes: usize) {
    COUNT.with(|c| c.set(c.get().map(|(n, b)| (n + 1, b + bytes))));
}

// SAFETY: every method forwards to `System` unchanged; the only addition is
// a bump of a const-initialized, destructor-free thread-local `Cell`, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract is `System::alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as `dealloc`; size/layout per the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `f`'s result, with the allocations it made on this thread and their
/// bytes.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    COUNT.with(|c| c.set(Some((0, 0))));
    let out = f();
    let (n, bytes) = COUNT
        .with(|c| c.replace(None))
        .expect("counter armed above");
    (out, n, bytes)
}

/// A snapshot of the shape the CLI saves: the default predictor, a plan
/// for every leaf count, specialization requests for `1` and
/// `DEFAULT_MAX_BATCH`.
fn shipped_shape() -> Snapshot {
    let model = TrainedModel {
        predictor: Predictor::new(PredictorConfig::default()),
        transform: TransformKind::BoxCox.fit(&[0.4e-3, 1.1e-3, 2.5e-3, 7.0e-3]),
        scaler: FeatScaler::identity(),
        use_pe: true,
        train_config: TrainConfig::default(),
    };
    Snapshot::capture_all(&model)
        .expect("plans compile")
        .with_batch_classes(&[1, DEFAULT_MAX_BATCH])
        .expect("two classes fit")
}

fn weight_bytes(snap: &Snapshot) -> usize {
    snap.params.iter().map(|p| 4 * p.data.len()).sum()
}

#[test]
fn restore_allocates_each_weight_once_and_no_gradients() {
    for (name, snap, budget) in [
        (
            "golden fixture",
            Snapshot::from_bytes(FIXTURE).expect("fixture decodes"),
            254,
        ),
        ("shipped shape", shipped_shape(), 446),
    ] {
        let weights_only = Snapshot {
            plans: Vec::new(),
            spec_plans: Vec::new(),
            ..snap.clone()
        };
        let (_, w_allocs, w_bytes) =
            counted(|| InferenceModel::from_snapshot(&weights_only).expect("restores"));
        let (_, allocs, bytes) =
            counted(|| InferenceModel::from_snapshot(&snap).expect("restores"));
        let weights = weight_bytes(&snap);
        eprintln!(
            "{name}: {} tensors, {} plans, {weights} weight bytes: restore {allocs} allocations \
             / {bytes} bytes, weights only {w_allocs} / {w_bytes}",
            snap.params.len(),
            snap.plans.len(),
        );
        assert!(
            allocs <= budget,
            "{name}: {allocs} allocations, budget {budget}"
        );
        // Each tensor once: no stand-in next to a copy, no gradient (the
        // three of them made it 3.1–3.9×; names and tables are the rest).
        assert!(
            w_bytes < 2 * weights,
            "{name}: a weights-only restore allocated {w_bytes} bytes for {weights} of weights"
        );
    }
}
