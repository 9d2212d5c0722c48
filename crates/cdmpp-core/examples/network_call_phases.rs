//! Where the non-model half of a network call goes: for each of the 81
//! (zoo network, device) pairs, every phase of `end_to_end_opts` around the
//! engine call, timed and allocation-counted on its own, one thread, nothing
//! else running:
//!
//! * task table: `tir::task_indices` over the network's layers;
//! * canonical nests: one `OpSpec::canonical_nest` per task;
//! * sample + lower: what `sample_network_programs` costs beyond the two
//!   phases above (one sampled schedule lowered per task);
//! * encode: `encode_programs`;
//! * simulator: `Simulator::new` + `latency_seconds` per program, the ground
//!   truth `replay_predictions` measures;
//! * DFG + Algorithm 2: what `replay_predictions` costs beyond the simulator,
//!   and the same timed alone: `replay_predictions` with no program to
//!   measure, so every measured duration is 0.
//!
//! ```text
//! cargo run --release -p cdmpp-core --example network_call_phases            # ~10 s
//! cargo run --release -p cdmpp-core --example network_call_phases -- --quick # smoke size
//! ```
//!
//! A figure is µs (or allocations) per call averaged over every pair, and
//! the median of `rounds` such averages. The two "rest of" rows are
//! differences of separately timed calls, so they carry both calls' noise.
//! Public API only, so the same file builds against an older commit for a
//! before/after table.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

use cdmpp_core::{encode_programs, replay_predictions, sample_network_programs, PredictorConfig};
use devsim::{all_devices, Simulator};
use tir::{all_networks, task_indices, TensorProgram};

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

/// Phases timed on their own: task table, canonical nests,
/// `sample_network_programs`, `encode_programs`, simulator,
/// `replay_predictions`, and the DFG + Algorithm 2 alone.
const PHASES: usize = 7;

/// One round's figures: per phase, (µs a call, allocations a call).
type Round = [(f64, f64); PHASES];

/// `f`'s result, adding its clock ns and allocations to `acc`.
fn timed<T>(acc: &mut (f64, u64), f: impl FnOnce() -> T) -> T {
    let a0 = ALLOCS.with(Cell::get);
    let t0 = Instant::now();
    let out = f();
    acc.0 += t0.elapsed().as_nanos() as f64;
    acc.1 += ALLOCS.with(Cell::get) - a0;
    out
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (rounds, passes) = if quick { (1, 1) } else { (7, 40) };
    let nets = all_networks(1);
    let devs = all_devices();
    let theta = PredictorConfig::default().theta;
    let calls = (passes * nets.len() * devs.len()) as f64;

    let mut per_round: Vec<Round> = Vec::new();
    let (mut tasks, mut leaves, mut layers) = (0usize, 0usize, 0usize);
    let mut seed = 0u64;
    for round in 0..=rounds {
        let mut acc = [(0.0f64, 0u64); PHASES];
        for _ in 0..passes {
            for net in &nets {
                for dev in &devs {
                    seed += 1;
                    let specs = || net.layers.iter().map(|l| &l.spec);
                    let (_, specs) = timed(&mut acc[0], || task_indices(specs()));
                    let nests = timed(&mut acc[1], || {
                        specs.iter().map(|s| s.canonical_nest()).collect::<Vec<_>>()
                    });
                    drop(std::hint::black_box(nests));
                    let (ids, programs) = timed(&mut acc[2], || sample_network_programs(net, seed));
                    let refs: Vec<&TensorProgram> = programs.iter().collect();
                    let enc = timed(&mut acc[3], || encode_programs(&refs, dev, theta, true));
                    drop(std::hint::black_box(enc));
                    let measured = timed(&mut acc[4], || {
                        let sim = Simulator::new(dev.clone());
                        programs
                            .iter()
                            .map(|p| sim.latency_seconds(p))
                            .collect::<Vec<f64>>()
                    });
                    // Any per-task values do; the simulator's are at hand.
                    let r = timed(&mut acc[5], || {
                        replay_predictions(net, dev, &ids, &programs, &measured)
                    });
                    std::hint::black_box(r);
                    // With no program to measure, every measured duration
                    // is 0 and `replay_predictions` is its DFG, its two
                    // Algorithm 2 runs and its task table.
                    let r = timed(&mut acc[6], || {
                        replay_predictions(net, dev, &ids, &[], &measured)
                    });
                    std::hint::black_box(r);
                    if round == 0 {
                        tasks += programs.len();
                        leaves += programs.iter().map(|p| p.leaf_count()).sum::<usize>();
                        layers += net.layers.len();
                    }
                }
            }
        }
        // Round 0 warms the per-thread tables and the allocator.
        if round > 0 {
            per_round.push(acc.map(|(ns, n)| (ns / 1e3 / calls, n as f64 / calls)));
        }
    }
    let median = |f: &dyn Fn(&Round) -> f64| {
        let mut v: Vec<f64> = per_round.iter().map(f).collect();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let us = |i: usize| median(&|r| r[i].0);
    let allocs = |i: usize| median(&|r| r[i].1);
    let rest = |whole: usize, parts: &[usize]| {
        (
            median(&|r| r[whole].0 - parts.iter().map(|&p| r[p].0).sum::<f64>()),
            median(&|r| r[whole].1 - parts.iter().map(|&p| r[p].1).sum::<f64>()),
        )
    };
    let total = (
        median(&|r| r[2].0 + r[3].0 + r[5].0),
        median(&|r| r[2].1 + r[3].1 + r[5].1),
    );

    println!(
        "{} calls a round ({} pairs x {passes}), {rounds} rounds, one thread; \
         a call averages {:.1} layers, {:.1} tasks, {:.1} leaves",
        calls,
        nets.len() * devs.len(),
        layers as f64 / calls,
        tasks as f64 / calls,
        leaves as f64 / calls,
    );
    println!(
        "{:<44} {:>10} {:>12}",
        "phase", "µs a call", "allocs a call"
    );
    let row = |name: &str, (t, n): (f64, f64)| println!("{name:<44} {t:>10.1} {n:>12.1}");
    row("task table", (us(0), allocs(0)));
    row("canonical nests", (us(1), allocs(1)));
    row("sample + lower (rest of the next row)", rest(2, &[0, 1]));
    row("= sample_network_programs", (us(2), allocs(2)));
    row("encode_programs", (us(3), allocs(3)));
    row(
        "simulator (Simulator::new + latency_seconds)",
        (us(4), allocs(4)),
    );
    row("DFG + Algorithm 2 (rest of the next row)", rest(5, &[4]));
    row(
        "  the same + task table, no program measured",
        (us(6), allocs(6)),
    );
    row("= replay_predictions", (us(5), allocs(5)));
    row("total (sample + encode + replay)", total);
}
