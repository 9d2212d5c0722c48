//! What `tanh`, `exp`, `sigmoid` and layer norm cost on this host, and what
//! share of a serving fold the first three are.
//!
//! ```text
//! cargo run --release -p tensor --example math_kernels            # ~15 s
//! cargo run --release -p tensor --example math_kernels -- --quick # smoke size
//! ```
//!
//! The first table is ns per element over a 4 096-element slice of inputs
//! spread over `[-r, r]`, for the host `libm` (`f32::tanh`, `f32::exp`,
//! `1 / (1 + (-x).exp())`), the scalar oracle in `tensor::math` and
//! `tensor::math::map` on the active tier. `libm`'s `tanhf` costs more the
//! further `|x|` is from 0, so each function is timed at several `r`.
//!
//! The second table is ns per call of layer norm's forward (out of place)
//! and backward at `d = 32`, the default predictor's width, on every tier
//! the CPU supports, through the tier-pinned seams (the tiers take turns
//! within each repeat): one binary gives the before / after of a tier's
//! change.
//!
//! The third table estimates each function's share of one fold replay of
//! the default predictor (`predict_planned`, one thread) at `L` leaves and
//! `B` samples, as calls × ns ÷ replay µs: a fold takes `tanh` on its
//! `B × (d_emb + d_dev)` latent and `exp` on the `n_layers × B × heads × L²`
//! attention scores (there is no sigmoid in the predictor). The ns are the
//! `r = 2.5` column. `exp / attn` is the `exp` share of one fused attention
//! step (`attention_slices`) at the fold's shape. The `libm` columns are
//! the shares in the same step run on `libm`: its measured µs plus, per
//! call, `libm`'s ns minus the active tier's. Every figure is the minimum
//! over repeats of a timed batch's mean.

use std::hint::black_box;
use std::time::Instant;

use cdmpp_core::{PlanRunner, Predictor, PredictorConfig};
use features::{N_DEVICE_FEATURES, N_ENTRY};
use tensor::math::{self, Func};
use tensor::{
    attention_slices, layer_norm_bwd_rows_with_tier, layer_norm_rows_with_tier, supported_tiers,
    Tensor,
};

const RANGES: [f32; 5] = [0.1, 0.5, 1.0, 2.5, 6.0];
/// The `RANGES` entry the fold shares are estimated at.
const SHARE_RANGE: usize = 3;
const N: usize = 4096;
/// The layer-norm table's row width and row counts.
const LN_D: usize = 32;
const LN_ROWS: [usize; 5] = [3, 13, 39, 96, 192];

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

fn host(f: Func) -> fn(f32) -> f32 {
    match f {
        Func::Tanh => f32::tanh,
        Func::Exp => f32::exp,
        Func::Sigmoid => |x| 1.0 / (1.0 + (-x).exp()),
    }
}

/// ns per element of `libm`, the oracle and the active tier over `[-r, r]`.
fn ns_per_element(f: Func, r: f32, repeats: usize, target: f64) -> [f64; 3] {
    let xs: Vec<f32> = (0..N).map(|i| r * ((i as f32) * 0.37).sin()).collect();
    let mut out = vec![0.0f32; N];
    let per = |us: f64| us * 1e3 / N as f64;
    let scalar = |g: fn(f32) -> f32, out: &mut [f32]| {
        min_us(repeats, target, || {
            for (o, &x) in out.iter_mut().zip(black_box(&xs)) {
                *o = g(x);
            }
            black_box(&mut *out);
        })
    };
    let libm = scalar(host(f), &mut out);
    let oracle = scalar(
        match f {
            Func::Tanh => math::tanh,
            Func::Exp => math::exp,
            Func::Sigmoid => math::sigmoid,
        },
        &mut out,
    );
    let tier = min_us(repeats, target, || {
        math::map(f, Some(black_box(&xs)), &mut out);
        black_box(&mut out);
    });
    [per(libm), per(oracle), per(tier)]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (repeats, target) = if quick { (1, 200.0) } else { (7, 20_000.0) };
    let shapes: &[(usize, usize)] = if quick {
        &[(3, 13)]
    } else {
        &[
            (2, 1),
            (2, 13),
            (3, 1),
            (3, 13),
            (3, 64),
            (4, 13),
            (8, 1),
            (8, 13),
            (8, 64),
        ]
    };
    println!(
        "kernel tier {}, one thread; min over {repeats} repeats",
        tensor::kernel_tier_name()
    );
    println!();
    println!("ns per element, inputs over [-r, r]:");
    println!();
    println!(
        "| function | r | host libm | oracle | {} |",
        tensor::kernel_tier_name()
    );
    println!("|---|---:|---:|---:|---:|");
    let mut at_share = [[0.0f64; 3]; 3];
    for (fi, f) in [Func::Tanh, Func::Exp, Func::Sigmoid]
        .into_iter()
        .enumerate()
    {
        for (ri, &r) in RANGES.iter().enumerate() {
            let ns = ns_per_element(f, r, repeats, target);
            if ri == SHARE_RANGE {
                at_share[fi] = ns;
            }
            println!(
                "| {f:?} | {r} | {:.2} | {:.2} | {:.2} |",
                ns[0], ns[1], ns[2]
            );
        }
    }

    layer_norm_table(
        if quick { &LN_ROWS[..2] } else { &LN_ROWS },
        repeats,
        target,
    );

    let cfg = PredictorConfig::default();
    let shared = Predictor::new(cfg.clone()).share();
    let mut runner = PlanRunner::new();
    let (dh, rs) = (cfg.d_model / cfg.heads, 3 * cfg.d_model);
    println!();
    println!(
        "share of one fold replay (default predictor), ns at r = {}:",
        RANGES[SHARE_RANGE]
    );
    println!();
    println!(
        "| L | B | replay µs | tanh calls | exp calls | tanh, libm | exp, libm | tanh, {t} | exp, {t} | attn µs | exp / attn, libm | exp / attn, {t} |",
        t = tensor::kernel_tier_name()
    );
    println!("|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|");
    for &(l, b) in shapes {
        let x = Tensor::from_fn(&[b, l, N_ENTRY], |i| ((i as f32) * 0.0231).sin());
        let dev = Tensor::from_fn(&[b, N_DEVICE_FEATURES], |i| ((i as f32) * 0.311).cos());
        let replay = min_us(repeats, target, || {
            black_box(shared.predict_planned(&mut runner, &x, &dev).unwrap());
        });
        let qkv: Vec<f32> = (0..b * l * rs)
            .map(|i| ((i as f32) * 0.013).sin())
            .collect();
        let mut out = vec![0.0f32; b * l * cfg.d_model];
        let scale = Some(1.0 / (dh as f32).sqrt());
        let (q, k, v) = (&qkv[..], &qkv[cfg.d_model..], &qkv[2 * cfg.d_model..]);
        let attn = min_us(repeats, target, || {
            attention_slices(b, cfg.heads, l, dh, q, k, v, rs, scale, &mut out).unwrap();
            black_box(&mut out);
        });
        let tanh_calls = b * (cfg.d_emb + cfg.d_dev);
        let exp_per_attn = b * cfg.heads * l * l;
        let exp_calls = cfg.n_layers * exp_per_attn;
        let [tanh, exp] = [at_share[0], at_share[1]];
        // The same step with `libm` in place of the active tier.
        let on_libm = |us: f64, calls: [usize; 2]| {
            us + (calls[0] as f64 * (tanh[0] - tanh[2]) + calls[1] as f64 * (exp[0] - exp[2])) / 1e3
        };
        let (replay_libm, attn_libm) = (
            on_libm(replay, [tanh_calls, exp_calls]),
            on_libm(attn, [0, exp_per_attn]),
        );
        let pct = |calls: usize, ns: f64, us: f64| 100.0 * calls as f64 * ns / (us * 1e3);
        println!(
            "| {l} | {b} | {replay:.1} | {tanh_calls} | {exp_calls} | {:.1}% | {:.1}% | {:.1}% | {:.1}% | {attn:.2} | {:.0}% | {:.0}% |",
            pct(tanh_calls, tanh[0], replay_libm),
            pct(exp_calls, exp[0], replay_libm),
            pct(tanh_calls, tanh[2], replay),
            pct(exp_calls, exp[2], replay),
            pct(exp_per_attn, exp[0], attn_libm),
            pct(exp_per_attn, exp[2], attn),
        );
    }
}

/// ns per call of layer norm forward and backward at `LN_D` columns, one
/// column per supported tier.
fn layer_norm_table(rows: &[usize], repeats: usize, target: f64) {
    let tiers = supported_tiers();
    let d = LN_D;
    println!();
    println!("layer norm, ns per call, d = {d}:");
    println!();
    let names: Vec<&str> = tiers.iter().map(|t| t.name()).collect();
    println!("| pass | rows | {} |", names.join(" | "));
    println!("|---|---:|{}", "---:|".repeat(tiers.len()));
    let gamma: Vec<f32> = (0..d)
        .map(|j| 1.0 + (j as f32 * 0.61).cos() * 0.4)
        .collect();
    let beta: Vec<f32> = (0..d).map(|j| (j as f32 * 0.29).sin() * 0.2).collect();
    for pass in ["forward", "backward"] {
        for &n in rows {
            let x: Vec<f32> = (0..n * d)
                .map(|i| ((i as f32) * 0.377).sin() * 2.5)
                .collect();
            let g: Vec<f32> = (0..n * d).map(|i| ((i as f32) * 0.213).cos()).collect();
            let mut out = vec![0.0f32; n * d];
            let (mut dgamma, mut dbeta) = (vec![0.0f32; d], vec![0.0f32; d]);
            let mut call = |tier| {
                if pass == "forward" {
                    let x = Some(black_box(&x[..]));
                    layer_norm_rows_with_tier(tier, x, &mut out, &gamma, &beta, d, 1e-5);
                } else {
                    // The gradient is overwritten by `dx`: start each call
                    // from the same one.
                    out.copy_from_slice(black_box(&g));
                    let x = black_box(&x);
                    let (dg, db) = (&mut dgamma, &mut dbeta);
                    layer_norm_bwd_rows_with_tier(tier, x, &gamma, 1e-5, d, &mut out, dg, db);
                }
                black_box(&mut out);
            };
            // The tiers take turns, one timed batch each per repeat, so a
            // change in the host's speed reaches every column alike.
            let mut best = vec![f64::INFINITY; tiers.len()];
            for _ in 0..repeats {
                for (b, &tier) in best.iter_mut().zip(&tiers) {
                    *b = b.min(min_us(1, target, || call(tier)));
                }
            }
            let ns: Vec<String> = best.iter().map(|us| format!("{:.0}", us * 1e3)).collect();
            println!("| {pass} | {n} | {} |", ns.join(" | "));
        }
    }
}
