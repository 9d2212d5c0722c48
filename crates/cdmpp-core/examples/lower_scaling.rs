//! What a search candidate costs the search loop before the model sees it, and
//! how that scales with cores: for the four `search_bulk` nests, per
//! candidate, `sample_schedule` (serial: it draws one RNG stream), `lower`
//! and drop of a round's schedules on a pool (programs are freed on the
//! calling thread, as the search frees them), and the arena encode the
//! engine-backed cost model runs — at pool sizes 1 and `nproc`. Then, per
//! call, sample + lower for each zoo network (`sample_network_programs`,
//! the front of every `serve_networks` call).
//!
//! ```text
//! cargo run --release -p cdmpp-core --example lower_scaling            # ~15 s
//! cargo run --release -p cdmpp-core --example lower_scaling -- --quick # smoke size
//! ```
//!
//! Every figure is the median of timed slices. Public API only, so the same
//! file builds against an older commit for a before/after table.

use std::time::{Duration, Instant};

use cdmpp_core::{encode_programs_into, sample_network_programs, EncodeArena, PredictorConfig};
use parallel::ThreadPool;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tir::{all_networks, lower, sample_schedule, OpSpec, Schedule, TensorProgram};

/// Median µs per item of `f`, which handles `items` items a call, over
/// `slices` slices of `slice` each.
fn per_item_us(slices: usize, slice: Duration, items: usize, mut f: impl FnMut()) -> f64 {
    let mut per: Vec<f64> = (0..slices)
        .map(|_| {
            let t0 = Instant::now();
            let mut calls = 0u32;
            while calls == 0 || t0.elapsed() < slice {
                f();
                calls += 1;
            }
            t0.elapsed().as_secs_f64() * 1e6 / (calls as f64 * items as f64)
        })
        .collect();
    per.sort_by(f64::total_cmp);
    per[per.len() / 2]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (candidates, slices, slice) = if quick {
        (64, 1, Duration::from_millis(2))
    } else {
        (1024, 9, Duration::from_millis(60))
    };
    let nproc = parallel::resolve_threads(0);
    let mut sizes = vec![1, nproc];
    sizes.dedup();
    let pools: Vec<ThreadPool> = sizes.iter().map(|&n| ThreadPool::new(n)).collect();
    let dev = devsim::t4();
    let theta = PredictorConfig::default().theta;
    let nests = [
        (
            "dense 128^3",
            OpSpec::Dense {
                m: 128,
                n: 128,
                k: 128,
            },
        ),
        (
            "dense 512^3",
            OpSpec::Dense {
                m: 512,
                n: 512,
                k: 512,
            },
        ),
        (
            "bmm 4x64^3",
            OpSpec::BatchMatmul {
                b: 4,
                m: 64,
                n: 64,
                k: 64,
            },
        ),
        (
            "softmax 256^2",
            OpSpec::Softmax {
                rows: 256,
                cols: 256,
            },
        ),
    ];

    println!("µs per candidate, {candidates} candidates a round, nproc = {nproc}");
    print!("{:<14} {:>8}", "nest", "sample");
    for n in &sizes {
        print!(
            " {:>11} {:>10}",
            format!("lower@{n}"),
            format!("encode@{n}")
        );
    }
    println!();
    for (i, (name, spec)) in nests.iter().enumerate() {
        let nest = spec.canonical_nest();
        let mut rng = StdRng::seed_from_u64(i as u64);
        let sample_us = per_item_us(slices, slice, candidates, || {
            for _ in 0..candidates {
                std::hint::black_box(sample_schedule(&nest, &mut rng));
            }
        });
        let scheds: Vec<Schedule> = (0..candidates)
            .map(|_| sample_schedule(&nest, &mut rng))
            .collect();
        let progs: Vec<TensorProgram> =
            scheds.iter().filter_map(|s| lower(&nest, s).ok()).collect();
        let refs: Vec<&TensorProgram> = progs.iter().collect();
        print!("{name:<14} {sample_us:>8.2}");
        for pool in &pools {
            let lower_us = per_item_us(slices, slice, candidates, || {
                let lowered = pool.run_indexed(candidates, |c| lower(&nest, &scheds[c]));
                drop(std::hint::black_box(lowered));
            });
            let mut arena = EncodeArena::new();
            let encode_us = per_item_us(slices, slice, refs.len(), || {
                encode_programs_into(&refs, &dev, theta, true, pool, &mut arena);
            });
            print!(" {lower_us:>11.2} {encode_us:>10.2}");
        }
        println!();
    }

    println!();
    println!("µs per call, sample + lower of one program per task");
    println!("{:<14} {:>6} {:>9}", "network", "tasks", "per call");
    for net in all_networks(1) {
        let mut seed = 0u64;
        let tasks = sample_network_programs(&net, seed).1.len();
        let per_call = per_item_us(slices, slice, 1, || {
            seed += 1;
            std::hint::black_box(sample_network_programs(&net, seed));
        });
        println!("{:<14} {tasks:>6} {per_call:>9.1}", net.name);
    }
}
