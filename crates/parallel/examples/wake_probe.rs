//! What the pool costs to wake, and what a second thread buys, on this
//! host:
//!
//! * **round trip**: one empty task spawned on a 1-worker [`ThreadPool`]
//!   scope and waited for — the dispatch a GEMM row split or a sharded
//!   step pays before any work — measured back to back and after 1 ms idle
//!   (the worker parked, as between two GEMMs of a serving call). Prints
//!   p10 / p50 / p90 in µs.
//! * **scaling**: a fixed integer loop run whole on the calling thread,
//!   then split in two halves over a 2-worker pool. Prints each pair's
//!   one-thread / two-thread speedup and their median; a shared or
//!   throttled host shows here as a speedup well under 2.
//!
//! ```text
//! cargo run --release -p parallel --example wake_probe   # ~10 s
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

use parallel::ThreadPool;

/// `steps` rounds of a xorshift chain: dependent integer work that neither
/// vectorizes nor touches memory.
fn spin(seed: u64, steps: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// p10 / p50 / p90 of `v` (sorted in place).
fn percentiles(v: &mut [f64]) -> [f64; 3] {
    v.sort_by(f64::total_cmp);
    [0.1, 0.5, 0.9].map(|q| v[((v.len() - 1) as f64 * q).round() as usize])
}

fn round_trips(pool: &ThreadPool, samples: usize, idle: Duration) -> [f64; 3] {
    let mut us: Vec<f64> = (0..samples)
        .map(|_| {
            if !idle.is_zero() {
                std::thread::sleep(idle);
            }
            let t0 = Instant::now();
            pool.scope(|s| s.spawn(|| {}));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    percentiles(&mut us)
}

fn main() {
    let (samples, pairs, steps) = (2_000, 15, 100_000_000);

    let one = ThreadPool::new(1);
    // Warm the worker (thread start, first allocation) before timing.
    one.scope(|s| s.spawn(|| {}));
    println!("empty-scope round trip on a 1-worker pool, µs ({samples} samples)");
    println!("{:<14} {:>8} {:>8} {:>8}", "", "p10", "p50", "p90");
    for (name, idle) in [
        ("back to back", Duration::ZERO),
        ("after 1 ms", Duration::from_millis(1)),
    ] {
        let [p10, p50, p90] = round_trips(&one, samples, idle);
        println!("{name:<14} {p10:>8.1} {p50:>8.1} {p90:>8.1}");
    }

    let two = ThreadPool::new(2);
    println!();
    println!("fixed loop of {steps} xorshift steps: one thread vs two halves on a 2-worker pool");
    let mut speedups: Vec<f64> = (0..pairs)
        .map(|p| {
            let t0 = Instant::now();
            black_box(spin(p as u64, black_box(steps)));
            let serial = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            two.scope(|s| {
                for half in 0..2u64 {
                    s.spawn(move || {
                        black_box(spin(p as u64 + half, black_box(steps / 2)));
                    });
                }
            });
            let split = t0.elapsed().as_secs_f64();
            let speedup = serial / split;
            println!(
                "pair {p:>2}: one thread {:>7.1} ms, two threads {:>7.1} ms, {speedup:.2}x",
                serial * 1e3,
                split * 1e3
            );
            speedup
        })
        .collect();
    let [lo, mid, hi] = percentiles(&mut speedups);
    println!("speedup p10 / p50 / p90: {lo:.2}x / {mid:.2}x / {hi:.2}x");
}
