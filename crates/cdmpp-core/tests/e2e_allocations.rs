//! The replay half of a network call, held to its allocation budget by the
//! allocator itself: over the 81 (zoo network, device) pairs,
//! `replay_predictions` averages at most 64 allocations a call. Before the
//! DFG was written straight into per-node arrays and successor lists, the
//! simulator's tables moved into a per-thread scratch and both value sets
//! shared one set of Algorithm 2 buffers, it averaged 191.7 on these calls.
//!
//! One `#[test]` only: the counter is per thread, but a single test keeps
//! the binary's one global allocator free of any cross-test reasoning.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cdmpp_core::{replay_predictions, sample_network_programs};
use devsim::all_devices;
use tir::all_networks;

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

#[test]
fn replay_predictions_stays_within_its_allocation_budget() {
    let (mut calls, mut total, mut worst) = (0usize, 0usize, 0usize);
    for net in all_networks(1) {
        for dev in all_devices() {
            let (task_ids, programs) = sample_network_programs(&net, calls as u64);
            let predicted: Vec<f64> = (0..programs.len()).map(|i| 1e-5 * (1 + i) as f64).collect();
            let (r, allocs) =
                counted(|| replay_predictions(&net, &dev, &task_ids, &programs, &predicted));
            assert!(r.predicted_s > 0.0 && r.measured_s > 0.0);
            calls += 1;
            total += allocs;
            worst = worst.max(allocs);
        }
    }
    let mean = total as f64 / calls as f64;
    eprintln!("{calls} calls: {mean:.1} allocations a call (max {worst})");
    assert_eq!(calls, 81);
    assert!(
        mean <= 64.0,
        "replay_predictions averaged {mean:.1} allocations"
    );
}
