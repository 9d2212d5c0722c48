//! The cost contract of `schedule.rs`, held by the allocator itself: over
//! every zoo task, `lower` makes at most 10 allocations whatever the loop
//! depth, the program it returns owns at most 6 heap blocks,
//! `sample_schedule` makes at most 5, and `sample_lowered` makes at least
//! the two of the rebuilt schedule state fewer than `sample_schedule` and
//! `lower` together. A program stored as a tree was one
//! heap block per loop body, leaf, access and domain: on these schedules
//! its programs owned 24.1 blocks on average (46 at most), lowering made
//! 27.9 allocations a call (50 at most) and sampling 10.8 (22 at most).
//!
//! One `#[test]` only: the counter is per thread, but a single test keeps
//! the binary's one global allocator free of any cross-test reasoning.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tir::{
    all_networks, build_tasks, lower, sample_lowered, sample_schedule, Nest, Primitive, Schedule,
};

thread_local! {
    /// `(allocations, frees)` made by this thread while `Some`.
    static COUNT: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

struct Counting;

fn note(alloc: usize, free: usize) {
    COUNT.with(|c| c.set(c.get().map(|(a, f)| (a + alloc, f + free))));
}

// SAFETY: every method forwards to `System` unchanged; the only addition is
// a bump of a const-initialized, destructor-free thread-local `Cell`, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, 0);
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, 1);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, 0);
        // SAFETY: as `dealloc`; size/layout per the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `f`'s result, with the `(allocations, frees)` it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, (usize, usize)) {
    COUNT.with(|c| c.set(Some((0, 0))));
    let out = f();
    let n = COUNT
        .with(|c| c.replace(None))
        .expect("counter armed above");
    (out, n)
}

/// Every even axis split in two, then every inner half split again (by 1):
/// three loops where `nest` had one.
fn split_everything(nest: &Nest) -> Schedule {
    let mut primitives = Vec::new();
    let mut next = nest.axes.iter().map(|a| a.id).max().map_or(0, |m| m + 1);
    for a in &nest.axes {
        if a.extent % 2 == 0 {
            primitives.push(Primitive::Split {
                axis: a.id,
                factor: 2,
            });
            next += 2;
        }
    }
    let first_inner = nest.axes.iter().map(|a| a.id).max().map_or(0, |m| m + 2);
    for inner in (first_inner..next).step_by(2) {
        primitives.push(Primitive::Split {
            axis: inner,
            factor: 1,
        });
    }
    Schedule { primitives }
}

#[test]
fn lowering_and_sampling_allocate_within_their_contract() {
    let tasks = build_tasks(&all_networks(1));
    assert!(tasks.len() > 100);
    let (mut lowered, mut sampled) = (0usize, 0usize);
    let mut totals = [0usize; 3];
    let mut worst = [0usize; 3];
    let mut deepest = 0;
    for task in &tasks {
        let nest = task.spec.canonical_nest();
        let mut rng = StdRng::seed_from_u64(u64::from(task.id));
        let deep = std::iter::once(split_everything(&nest));
        let samples: Vec<Schedule> = (0..50)
            .map(|_| {
                let mut fused = rng.clone();
                let (s, (allocs, _)) = counted(|| sample_schedule(&nest, &mut rng));
                sampled += 1;
                totals[2] += allocs;
                worst[2] = worst[2].max(allocs);
                // The same draw, lowered from the sampler's state.
                let (_, (fused_allocs, _)) = counted(|| sample_lowered(&nest, &mut fused));
                let (_, (lower_allocs, _)) = counted(|| lower(&nest, &s));
                assert!(
                    fused_allocs + 2 <= allocs + lower_allocs,
                    "{}: sample_lowered made {fused_allocs} allocations, sample_schedule \
                     {allocs} and lower {lower_allocs}",
                    task.name
                );
                s
            })
            .collect();
        for sched in deep.chain(samples) {
            let (prog, (allocs, _)) = counted(|| lower(&nest, &sched));
            let prog = prog.unwrap_or_else(|e| panic!("{}: {e}", task.name));
            deepest = deepest.max(prog.max_depth());
            let ((), (_, blocks)) = counted(|| drop(prog));
            lowered += 1;
            totals[0] += allocs;
            totals[1] += blocks;
            worst[0] = worst[0].max(allocs);
            worst[1] = worst[1].max(blocks);
        }
    }
    let mean = |i: usize, n: usize| totals[i] as f64 / n as f64;
    eprintln!(
        "over {} tasks: lower {:.1} allocations a call (max {}), a program {:.1} blocks \
         (max {}), sample_schedule {:.1} allocations (max {}); deepest nest {deepest}",
        tasks.len(),
        mean(0, lowered),
        worst[0],
        mean(1, lowered),
        worst[1],
        mean(2, sampled),
        worst[2],
    );
    assert!(
        deepest >= 12,
        "the deep schedules must reach depth, got {deepest}"
    );
    assert!(worst[0] <= 10, "lower made {} allocations", worst[0]);
    assert!(worst[1] <= 6, "a program owned {} heap blocks", worst[1]);
    assert!(
        worst[2] <= 5,
        "sample_schedule made {} allocations",
        worst[2]
    );
}
