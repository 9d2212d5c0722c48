//! The simulator's cost contract, held by the allocator itself: once this
//! thread's leaf tables have grown to the deepest leaf it has seen,
//! `Simulator::latency_seconds` makes at most one allocation a call, the
//! loop stack `TensorProgram::visit_leaves` sizes to the program's depth.
//! Before the tables lived in a per-thread scratch, a call made at least two
//! more (the tables, plus their regrowth). `Simulator::new` is outside the
//! count.
//!
//! One `#[test]` only: the counter is per thread, but a single test keeps
//! the binary's one global allocator free of any cross-test reasoning.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cdmpp_core::sample_network_programs;
use devsim::{all_devices, Simulator};
use tir::{all_networks, TensorProgram};

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
fn warmed_latency_makes_at_most_the_loop_stack_allocation() {
    let programs: Vec<TensorProgram> = all_networks(1)
        .iter()
        .flat_map(|net| (0..4).flat_map(move |seed| sample_network_programs(net, seed).1))
        .collect();
    let sims: Vec<Simulator> = all_devices().into_iter().map(Simulator::new).collect();
    // Warm-up: the tables grow to the deepest leaf once.
    for p in &programs {
        std::hint::black_box(sims[0].latency_seconds(p));
    }
    let (mut calls, mut total, mut worst) = (0usize, 0usize, 0usize);
    for sim in &sims {
        for p in &programs {
            let (t, allocs) = counted(|| sim.latency_seconds(p));
            assert!(t.is_finite() && t > 0.0);
            calls += 1;
            total += allocs;
            worst = worst.max(allocs);
        }
    }
    eprintln!(
        "{calls} warmed calls: {:.2} allocations a call (max {worst})",
        total as f64 / calls as f64
    );
    assert!(
        worst <= 1,
        "a warmed latency_seconds made {worst} allocations"
    );
}
