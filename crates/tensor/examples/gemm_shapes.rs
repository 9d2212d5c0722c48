//! What one GEMM costs at the shapes the predictor actually runs, on the
//! active kernel tier, one thread:
//!
//! * **fold shapes** — a serving fold of `B` samples × `L` leaves runs its
//!   encoder on `B·L` rows (`d_model` 32): the fused Q|K|V projection
//!   (`32 → 96`), FFN up (`32 → 64`, ReLU) and down (`64 → 32`), all with a
//!   bias, plus the leaf embedding (`L·32 → 24` over `B` rows). Each is a
//!   [`gemm_prepacked`] against a [`PackedB`] built once, as a fold does.
//! * **training shapes** at `B = 64`, `L = 3` (192 rows): the Q|K|V
//!   forward with its bias (`gemm_ep_slices`), its input gradient
//!   `dY · Wᵀ`, and one 16-sample shard's weight gradient `Xᵀ · dY`
//!   accumulated into `dW` (`gemm_t_slices`), as the compiled step does.
//!
//! ```text
//! cargo run --release -p tensor --example gemm_shapes            # ~10 s
//! cargo run --release -p tensor --example gemm_shapes -- --quick # smoke size
//! ```
//!
//! Every figure is the minimum over repeats of the mean per call of a
//! timed batch of calls. Public API only, so the same file builds against
//! an older commit for a before/after table.

use std::hint::black_box;
use std::time::Instant;

use tensor::{gemm_ep_slices, gemm_prepacked, gemm_t_slices, Activation, PackedB};

const D_MODEL: usize = 32;
const D_FF: usize = 64;
const D_EMB: usize = 24;

fn fill(numel: usize, seed: f32) -> Vec<f32> {
    (0..numel)
        .map(|i| ((i as f32) * 0.417 + seed).sin())
        .collect()
}

/// Minimum over `repeats` of the mean µs per call of `f`, each repeat
/// timing enough calls to cover roughly `target_us`.
fn min_us(repeats: usize, target_us: f64, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64() * 1e6;
    let calls = ((target_us / once.max(0.05)) as usize).clamp(1, 100_000);
    (0..repeats)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e6 / calls as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Prints one row: the shape, µs per call and GFLOP/s.
fn row(label: &str, m: usize, k: usize, n: usize, us: f64) {
    let gflops = 2.0 * (m * k * n) as f64 / (us * 1e3);
    println!("{label:<22} {m:>5} {k:>5} {n:>5} {us:>10.3} {gflops:>9.1}");
}

/// One prepacked fold GEMM `[m, k] · [k, n] + bias` with `act`.
fn fold_gemm(repeats: usize, target: f64, m: usize, k: usize, n: usize, act: Activation) -> f64 {
    let a = fill(m * k, 0.3);
    let pb = PackedB::pack(&fill(k * n, 1.7), k, n);
    let bias = fill(n, 4.2);
    let mut out = vec![0.0f32; m * n];
    min_us(repeats, target, || {
        gemm_prepacked(m, black_box(&a), &pb, Some(&bias), act, &mut out).unwrap();
        black_box(&mut out);
    })
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (repeats, target) = if quick { (1, 200.0) } else { (7, 20_000.0) };
    println!(
        "one thread, kernel tier {}; µs per call, min over {repeats} repeats",
        tensor::kernel_tier_name()
    );
    println!(
        "{:<22} {:>5} {:>5} {:>5} {:>10} {:>9}",
        "shape", "m", "k", "n", "us", "GFLOP/s"
    );

    let bs: &[usize] = if quick { &[1, 64] } else { &[1, 5, 13, 64] };
    let ls: &[usize] = if quick { &[3] } else { &[2, 3, 4, 8] };
    for &b in bs {
        for &l in ls {
            let rows = b * l;
            let tag = format!("B{b}_L{l}");
            for (name, k, n, act) in [
                ("qkv", D_MODEL, 3 * D_MODEL, Activation::Identity),
                ("ffn_up", D_MODEL, D_FF, Activation::Relu),
                ("ffn_down", D_FF, D_MODEL, Activation::Identity),
            ] {
                let us = fold_gemm(repeats, target, rows, k, n, act);
                row(&format!("{name} {tag}"), rows, k, n, us);
            }
            let us = fold_gemm(repeats, target, b, l * D_MODEL, D_EMB, Activation::Identity);
            row(&format!("leaf_embed {tag}"), b, l * D_MODEL, D_EMB, us);
        }
    }

    // The B = 64, L = 3 training step's Q|K|V GEMMs.
    let (rows, shard, k, n) = (64 * 3, 16 * 3, D_MODEL, 3 * D_MODEL);
    let x = fill(rows * k, 0.3);
    let w = fill(k * n, 1.7);
    let bias = fill(n, 4.2);
    let dy = fill(rows * n, 2.9);
    let mut y = vec![0.0f32; rows * n];
    let us = min_us(repeats, target, || {
        gemm_ep_slices(
            rows,
            k,
            n,
            black_box(&x),
            &w,
            Some(&bias),
            Activation::Identity,
            &mut y,
        )
        .unwrap();
        black_box(&mut y);
    });
    row("train fwd", rows, k, n, us);
    let mut dx = vec![0.0f32; rows * k];
    let us = min_us(repeats, target, || {
        gemm_t_slices(rows, n, k, black_box(&dy), false, &w, true, false, &mut dx).unwrap();
        black_box(&mut dx);
    });
    row("train dx", rows, n, k, us);
    let mut dw = vec![0.0f32; k * n];
    let us = min_us(repeats, target, || {
        let (xs, dys) = (&x[..shard * k], &dy[..shard * n]);
        gemm_t_slices(k, shard, n, black_box(xs), true, dys, false, true, &mut dw).unwrap();
        black_box(&mut dw);
    });
    row("train dW shard", k, shard, n, us);
}
