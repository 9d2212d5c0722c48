//! What one GEMM costs at the shapes the predictor actually runs, on every
//! kernel tier this CPU supports (one µs column each, scalar oracle first,
//! the tier detection picks last), one thread:
//!
//! * **fold shapes** — a serving fold of `B` samples × `L` leaves runs its
//!   encoder on `B·L` rows (`d_model` 32): the fused Q|K|V projection
//!   (`32 → 96`), FFN up (`32 → 64`, ReLU) and down (`64 → 32`), all with a
//!   bias, plus the leaf embedding (`L·32 → 24` over `B` rows). Each is a
//!   [`gemm_prepacked`] against a [`PackedB`] built once for the tier, as a
//!   fold does.
//! * **training shapes** at `B = 64`, `L = 3` (192 rows): the Q|K|V
//!   forward with its bias, its input gradient `dY · Wᵀ`, and one
//!   16-sample shard's weight gradient `Xᵀ · dY` accumulated into `dW`, as
//!   the compiled step does — through the generic dispatch with the tier
//!   pinned ([`gemm_slices_with_tier`], what `gemm_ep_slices` /
//!   `gemm_t_slices` run on the active tier).
//!
//! The last two columns are the detected tier's GFLOP/s and its speed-up
//! over the tier before it.
//!
//! ```text
//! cargo run --release -p tensor --example gemm_shapes            # ~30 s
//! cargo run --release -p tensor --example gemm_shapes -- --quick # smoke size
//! ```
//!
//! Every figure is the minimum over repeats of the mean per call of a
//! timed batch of calls.

use std::hint::black_box;
use std::time::Instant;

use tensor::{
    gemm_prepacked, gemm_slices_with_tier, supported_tiers, Activation, PackedB, SimdTier,
};

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

/// Prints one row: the shape, µs per call on each tier, then the last
/// tier's GFLOP/s and its speed-up over the one before it.
fn row(label: &str, m: usize, k: usize, n: usize, us: &[f64]) {
    print!("{label:<22} {m:>5} {k:>5} {n:>5}");
    for t in us {
        print!(" {t:>10.3}");
    }
    let last = us[us.len() - 1];
    let gflops = 2.0 * (m * k * n) as f64 / (last * 1e3);
    let speedup = us.len().checked_sub(2).map_or(1.0, |i| us[i] / last);
    println!(" {gflops:>9.1} {speedup:>8.2}");
}

/// One prepacked fold GEMM `[m, k] · [k, n] + bias` with `act` on `tier`.
#[allow(clippy::too_many_arguments)]
fn fold_gemm(
    tier: SimdTier,
    repeats: usize,
    target: f64,
    m: usize,
    k: usize,
    n: usize,
    act: Activation,
) -> f64 {
    let a = fill(m * k, 0.3);
    let pb = PackedB::pack_for_tier(&fill(k * n, 1.7), k, n, tier);
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
    let tiers = supported_tiers();
    println!(
        "one thread, µs per call on each supported tier (detected: {}), min over {repeats} repeats",
        tensor::kernel_tier_name()
    );
    print!("{:<22} {:>5} {:>5} {:>5}", "shape", "m", "k", "n");
    for t in &tiers {
        print!(" {:>10}", format!("us {}", t.name()));
    }
    println!(" {:>9} {:>8}", "GFLOP/s", "speedup");

    let bs: &[usize] = if quick { &[1, 64] } else { &[1, 5, 13, 64] };
    let ls: &[usize] = if quick { &[3] } else { &[2, 3, 4, 8] };
    let per_tier = |f: &dyn Fn(SimdTier) -> f64| tiers.iter().map(|&t| f(t)).collect::<Vec<_>>();
    for &b in bs {
        for &l in ls {
            let rows = b * l;
            let tag = format!("B{b}_L{l}");
            for (name, k, n, act) in [
                ("qkv", D_MODEL, 3 * D_MODEL, Activation::Identity),
                ("ffn_up", D_MODEL, D_FF, Activation::Relu),
                ("ffn_down", D_FF, D_MODEL, Activation::Identity),
            ] {
                let us = per_tier(&|t| fold_gemm(t, repeats, target, rows, k, n, act));
                row(&format!("{name} {tag}"), rows, k, n, &us);
            }
            let (k, n) = (l * D_MODEL, D_EMB);
            let us = per_tier(&|t| fold_gemm(t, repeats, target, b, k, n, Activation::Identity));
            row(&format!("leaf_embed {tag}"), b, k, n, &us);
        }
    }

    // The B = 64, L = 3 training step's Q|K|V GEMMs.
    let (rows, shard, k, n) = (64 * 3, 16 * 3, D_MODEL, 3 * D_MODEL);
    let x = fill(rows * k, 0.3);
    let w = fill(k * n, 1.7);
    let bias = fill(n, 4.2);
    let dy = fill(rows * n, 2.9);
    let id = Activation::Identity;
    let us = per_tier(&|t| {
        let mut y = vec![0.0f32; rows * n];
        min_us(repeats, target, || {
            let (x, bias) = (black_box(&x), Some(&bias[..]));
            gemm_slices_with_tier(
                t, rows, k, n, x, false, &w, false, false, None, bias, id, &mut y,
            );
            black_box(&mut y);
        })
    });
    row("train fwd", rows, k, n, &us);
    let us = per_tier(&|t| {
        let mut dx = vec![0.0f32; rows * k];
        min_us(repeats, target, || {
            let dy = black_box(&dy);
            gemm_slices_with_tier(
                t, rows, n, k, dy, false, &w, true, false, None, None, id, &mut dx,
            );
            black_box(&mut dx);
        })
    });
    row("train dx", rows, n, k, &us);
    let us = per_tier(&|t| {
        let mut dw = vec![0.0f32; k * n];
        min_us(repeats, target, || {
            let (xs, dys) = (black_box(&x[..shard * k]), &dy[..shard * n]);
            gemm_slices_with_tier(
                t, k, shard, n, xs, true, dys, false, true, None, None, id, &mut dw,
            );
            black_box(&mut dw);
        })
    });
    row("train dW shard", k, shard, n, &us);
}
