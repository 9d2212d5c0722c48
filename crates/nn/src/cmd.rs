//! Differentiable Central Moment Discrepancy (CMD), §5.3 Eqn 6.
//!
//! CMD measures the distance between two distributions via their means and
//! their first `k` central moments:
//!
//! ```text
//! CMD(P1, P2) = (1/|b-a|)   · ‖E[P1] − E[P2]‖₂
//!             + Σ_{j=2..k} (1/|b-a|ʲ) · ‖Ω_j(P1) − Ω_j(P2)‖₂
//! ```
//!
//! where `Ω_j(P) = E[(P − E[P])ʲ]`. The predictor bounds its latent space
//! with `tanh`, so the joint support width `|b - a|` is 2.

use tensor::{Result, Tensor};

use crate::tape::{Graph, Var};

/// Default support width for `tanh`-bounded latents (`[-1, 1]`).
pub const TANH_SUPPORT: f32 = 2.0;

/// Default number of central moments, following Zellinger et al. (`k = 5`).
pub const DEFAULT_MOMENTS: usize = 5;

fn l2(g: &mut Graph, x: Var) -> Result<Var> {
    let sq = g.square(x)?;
    let s = g.sum(sq)?;
    // Add a tiny epsilon so the sqrt gradient stays finite at zero.
    let s = g.add_scalar(s, 1e-12);
    g.sqrt(s)
}

/// Builds the CMD between two latent batches `zs [ns, d]` and `zt [nt, d]`
/// as a differentiable scalar node.
///
/// `k` is the highest central-moment order (`k >= 1`); `support` is the
/// width `|b - a|` of the joint support of the representations.
pub fn cmd(g: &mut Graph, zs: Var, zt: Var, k: usize, support: f32) -> Result<Var> {
    let ms = g.mean_axis0(zs)?;
    let mt = g.mean_axis0(zt)?;
    let mean_diff = g.sub(ms, mt)?;
    let mean_term = l2(g, mean_diff)?;
    let mut total = g.scale(mean_term, 1.0 / support);
    let cs = g.sub_row(zs, ms)?;
    let ct = g.sub_row(zt, mt)?;
    for j in 2..=k {
        let ps = g.powi(cs, j as i32)?;
        let pt = g.powi(ct, j as i32)?;
        let oms = g.mean_axis0(ps)?;
        let omt = g.mean_axis0(pt)?;
        let d = g.sub(oms, omt)?;
        let norm = l2(g, d)?;
        let scaled = g.scale(norm, 1.0 / support.powi(j as i32));
        total = g.add(total, scaled)?;
    }
    Ok(total)
}

/// [`cmd`]'s value and both gradients without a tape — what a fine-tuning
/// step runs over its replayed latents.
///
/// [`CmdHead::run`] repeats the tape's own expressions in the tape's own
/// order: column means summed in `f64` row by row, each central moment
/// as `f32::powi` computes it (square and multiply), every norm as
/// `sqrt(Σ x² + 1e-12)`, and in the backward pass a node's first gradient
/// contribution stored and later ones added, highest moment first. Its
/// value and gradients are [`cmd`]'s, bit for bit. Every step is a pass
/// over a whole batch or row, so each one vectorizes; the powers of the
/// centred batches are computed once and serve both passes. The scratch
/// grows to the largest batch seen; a warmed head does not allocate.
#[derive(Debug, Clone)]
pub struct CmdHead {
    k: usize,
    support: f32,
    /// Column sums in `f64` (`[d]`).
    sums: Vec<f64>,
    /// The two domains' column means and their difference (`[d]` each).
    ms: Vec<f32>,
    mt: Vec<f32>,
    md: Vec<f32>,
    /// Moment `j`'s difference `Ω_j(zs) − Ω_j(zt)` at `[(j-2)·d ..]`.
    dj: Vec<f32>,
    /// Moment `j`'s norm at `j - 2`.
    yj: Vec<f32>,
    /// A `[d]` temporary: the target's moment, then per-column gradients.
    tmp: Vec<f32>,
    /// Per domain, the centred batch `c` (slot 0) and `powi(c, p)` for
    /// `p = 1 ..= k` (slot `p`), each `rows · d` long.
    pows: [Vec<f32>; 2],
    /// The squares [`powi_into`] walks through.
    squares: Vec<f32>,
}

impl CmdHead {
    /// A head for `k` central moments over a support of width `support`
    /// (the arguments of [`cmd`]).
    pub fn new(k: usize, support: f32) -> Self {
        CmdHead {
            k,
            support,
            sums: Vec::new(),
            ms: Vec::new(),
            mt: Vec::new(),
            md: Vec::new(),
            dj: Vec::new(),
            yj: Vec::new(),
            tmp: Vec::new(),
            pows: [Vec::new(), Vec::new()],
            squares: Vec::new(),
        }
    }

    /// CMD between `zs` (`[ns, d]`, row-major) and `zt` (`[nt, d]`),
    /// writing `g · ∂CMD/∂zs` into `gs` and `g · ∂CMD/∂zt` into `gt`, `g`
    /// being the gradient the tape's CMD node receives.
    ///
    /// # Panics
    ///
    /// When `d` is 0, a batch is not a whole number of rows, or a gradient
    /// buffer's length differs from its batch's.
    pub fn run(
        &mut self,
        zs: &[f32],
        zt: &[f32],
        d: usize,
        g: f32,
        gs: &mut [f32],
        gt: &mut [f32],
    ) -> f32 {
        assert!(
            d > 0 && zs.len().is_multiple_of(d) && zt.len().is_multiple_of(d),
            "CMD latents are [rows, {d}]"
        );
        assert!(
            gs.len() == zs.len() && gt.len() == zt.len(),
            "CMD gradient lengths"
        );
        let (k, support) = (self.k, self.support);
        let moments = k.max(1) - 1;
        let CmdHead {
            sums,
            ms,
            mt,
            md,
            dj,
            yj,
            tmp,
            pows,
            squares,
            ..
        } = self;
        for buf in [&mut *ms, &mut *mt, &mut *md, &mut *tmp] {
            buf.resize(d, 0.0);
        }
        sums.resize(d, 0.0);
        dj.resize(moments * d, 0.0);
        yj.resize(moments, 0.0);

        // Forward: the mean term, then one term per moment.
        col_means(zs, sums, ms);
        col_means(zt, sums, mt);
        for ((o, &a), &b) in md.iter_mut().zip(ms.iter()).zip(mt.iter()) {
            *o = a - b;
        }
        let y0 = l2_value(md);
        let inv_support = 1.0 / support;
        let mut total = y0 * inv_support;
        // The centred batches (`sub_row`) and the powers the moments
        // average and the backward multiplies by.
        for ((z, m), p) in [(zs, &*ms), (zt, &*mt)].into_iter().zip(pows.iter_mut()) {
            let len = z.len();
            p.resize((moments + 2) * len, 0.0);
            squares.resize(len, 0.0);
            let (c, higher) = p.split_at_mut(len);
            for (row, out) in z.chunks_exact(d).zip(c.chunks_exact_mut(d)) {
                for ((o, &x), &mean) in out.iter_mut().zip(row).zip(m.iter()) {
                    *o = x - mean;
                }
            }
            for (slot, power) in higher.chunks_exact_mut(len).zip(1u32..) {
                powi_into(c, power, slot, squares);
            }
        }
        for j in 2..=k {
            let dj = &mut dj[(j - 2) * d..(j - 1) * d];
            for (p, out) in pows.iter().zip([&mut *dj, &mut *tmp]) {
                let len = p.len() / (moments + 2);
                col_means(&p[j * len..(j + 1) * len], sums, out);
            }
            for (o, &b) in dj.iter_mut().zip(tmp.iter()) {
                *o -= b;
            }
            let y = l2_value(dj);
            yj[j - 2] = y;
            total += y * (1.0 / support.powi(j as i32));
        }

        // Backward, in the tape's reverse node order: each moment's
        // contribution to the centred batches (the highest stores), then
        // the centring's and the mean term's to the means, then the means'
        // to the batches.
        let (ns, nt) = (zs.len() / d, zt.len() / d);
        let (inv_s, inv_t) = (1.0 / ns.max(1) as f32, 1.0 / nt.max(1) as f32);
        for j in (2..=k).rev() {
            let g2 = l2_grad(g * (1.0 / support.powi(j as i32)), yj[j - 2]) * 2.0;
            let dj = &dj[(j - 2) * d..(j - 1) * d];
            let first = j == k;
            // The target's moment enters the difference negated.
            for (gz, p, neg, inv) in [
                (&mut *gt, &pows[1], true, inv_t),
                (&mut *gs, &pows[0], false, inv_s),
            ] {
                // Per column: `d_j`'s gradient, through the moment's mean
                // to each centred element, times `powi`'s exponent; then
                // per element, times `powi(c, j - 1)`.
                for (t, &x) in tmp.iter_mut().zip(dj) {
                    let gd = g2 * x;
                    *t = (if neg { negate(gd) } else { gd }) * inv * j as f32;
                }
                let len = gz.len();
                let power = &p[(j - 1) * len..j * len];
                for (grow, prow) in gz.chunks_exact_mut(d).zip(power.chunks_exact(d)) {
                    for ((o, &t), &x) in grow.iter_mut().zip(tmp.iter()).zip(prow) {
                        let contrib = t * x;
                        *o = if first { contrib } else { *o + contrib };
                    }
                }
            }
        }
        let g0 = l2_grad(g * inv_support, y0) * 2.0;
        // The mean difference's gradient, into `md`'s place.
        for x in md.iter_mut() {
            *x *= g0;
        }
        for (gz, neg, inv) in [(&mut *gt, true, inv_t), (&mut *gs, false, inv_s)] {
            // The mean's gradient: with moments, `sub_row`'s row gradient
            // `-Σ_rows` first, then the mean term's; without, the mean
            // term's alone.
            for (t, &x) in tmp.iter_mut().zip(md.iter()) {
                *t = if neg { negate(x) } else { x };
            }
            if k >= 2 {
                sums.fill(0.0);
                for grow in gz.chunks_exact(d) {
                    for (s, &x) in sums.iter_mut().zip(grow) {
                        *s += x as f64;
                    }
                }
                for (t, &s) in tmp.iter_mut().zip(sums.iter()) {
                    *t += negate(s as f32);
                }
            }
            for grow in gz.chunks_exact_mut(d) {
                for (o, &t) in grow.iter_mut().zip(tmp.iter()) {
                    *o = if k >= 2 { *o + t * inv } else { t * inv };
                }
            }
        }
        total
    }
}

/// `out[i] = c[i].powi(n)`, computed as `f32::powi` computes it — square
/// and multiply from `1`, low bit first (compiler-builtins' `__powisf2`,
/// and LLVM's expansion for a constant exponent, which forms the same
/// products) — one pass per step, so every step vectorizes. `squares` is
/// scratch.
fn powi_into(c: &[f32], n: u32, out: &mut [f32], squares: &mut [f32]) {
    out.fill(1.0);
    squares.copy_from_slice(c);
    let mut b = n;
    loop {
        if b & 1 != 0 {
            for (o, &a) in out.iter_mut().zip(squares.iter()) {
                *o *= a;
            }
        }
        b >>= 1;
        if b == 0 {
            break;
        }
        for a in squares.iter_mut() {
            *a *= *a;
        }
    }
}

/// `-x` as the tape's `scale(-1.0)` computes it, which keeps a NaN's sign.
#[allow(clippy::neg_multiply)]
fn negate(x: f32) -> f32 {
    x * -1.0
}

/// `out[c]` = the mean of column `c` of `z` (`[rows, out.len()]`), as
/// `Tensor::mean_axis0` computes it: `f64` sums row by row, times
/// `1 / rows` in `f64`.
fn col_means(z: &[f32], sums: &mut [f64], out: &mut [f32]) {
    let d = out.len();
    sums.fill(0.0);
    for row in z.chunks_exact(d) {
        for (s, &x) in sums.iter_mut().zip(row) {
            *s += x as f64;
        }
    }
    let inv = 1.0 / (z.len() / d).max(1) as f64;
    for (o, &s) in out.iter_mut().zip(sums.iter()) {
        *o = (s * inv) as f32;
    }
}

/// [`l2`]'s value: `sqrt(Σ x² + 1e-12)`, the sum in `f64`.
fn l2_value(x: &[f32]) -> f32 {
    let s = x.iter().map(|&v| (v * v) as f64).sum::<f64>() as f32;
    (s + 1e-12).sqrt()
}

/// The gradient every squared element of [`l2`] receives, given the
/// norm's gradient `g` and value `y` (the tape's `sqrt` backward).
fn l2_grad(g: f32, y: f32) -> f32 {
    if y > 0.0 {
        g * 0.5 / y
    } else {
        0.0
    }
}

/// Computes CMD between two plain matrices without building a graph
/// (used for evaluation and Fig 18's CMD-vs-error analysis).
pub fn cmd_value(zs: &Tensor, zt: &Tensor, k: usize, support: f32) -> Result<f32> {
    let mut g = Graph::new();
    let a = g.constant(zs.clone());
    let b = g.constant(zt.clone());
    let c = cmd(&mut g, a, b, k, support)?;
    Ok(g.value(c).item())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, f: impl Fn(usize) -> f32) -> Tensor {
        Tensor::from_fn(&[rows, cols], f)
    }

    #[test]
    fn cmd_of_identical_distributions_is_zero() {
        let z = mat(8, 3, |i| ((i * 37 % 11) as f32) / 11.0 - 0.5);
        let v = cmd_value(&z, &z, 5, TANH_SUPPORT).unwrap();
        assert!(v.abs() < 1e-4, "CMD(P, P) = {v}");
    }

    #[test]
    fn cmd_value_is_zellingers_definition() {
        // Zellinger et al. 2017 (arXiv:1702.08811), Definition 1, on a
        // pair checkable by hand, with |b − a| = 2 (the tanh support):
        //   CMD_K(X, Y) = ‖E(X) − E(Y)‖₂ / |b − a|
        //               + Σ_{k=2..K} ‖c_k(X) − c_k(Y)‖₂ / |b − a|^k,
        //   c_k(X) = E((X − E(X))^k), per column.
        // X = {(0.5, 0), (−0.5, 0)}: mean (0, 0), centred ±(0.5, 0).
        // Y = {(0.25, 0.5), (0.75, 0.5)}: mean (0.5, 0.5), centred ±(0.25, 0).
        let x = Tensor::from_vec(vec![0.5, 0.0, -0.5, 0.0], &[2, 2]).unwrap();
        let y = Tensor::from_vec(vec![0.25, 0.5, 0.75, 0.5], &[2, 2]).unwrap();
        let terms = [
            0.5f64.sqrt() / 2.0,          // ‖(−0.5, −0.5)‖ / 2
            (0.25 - 0.0625) / 4.0,        // c_2: 0.5² vs 0.25², per column (x, 0)
            0.0,                          // c_3: odd moments of symmetric pairs
            (0.0625 - 0.00390625) / 16.0, // c_4: 0.5⁴ vs 0.25⁴
            0.0,                          // c_5
        ];
        for k in 1..=5 {
            let want: f64 = terms[..k].iter().sum();
            let got = cmd_value(&x, &y, k, TANH_SUPPORT).unwrap() as f64;
            // Every norm is taken as sqrt(Σ x² + 1e-12), so a zero moment
            // difference reads 1e-6 / 2^k rather than 0.
            assert!((got - want).abs() < 1e-6, "K = {k}: {got} vs {want}");
        }
    }

    #[test]
    fn cmd_is_symmetric() {
        let a = mat(8, 3, |i| (i as f32 * 0.13).sin() * 0.9);
        let b = mat(6, 3, |i| (i as f32 * 0.29).cos() * 0.9);
        let ab = cmd_value(&a, &b, 5, TANH_SUPPORT).unwrap();
        let ba = cmd_value(&b, &a, 5, TANH_SUPPORT).unwrap();
        assert!((ab - ba).abs() < 1e-5);
    }

    #[test]
    fn cmd_grows_with_mean_shift() {
        let a = mat(16, 2, |i| (i as f32 * 0.37).sin() * 0.3);
        let b_small = a.add_scalar(0.1);
        let b_large = a.add_scalar(0.5);
        let d_small = cmd_value(&a, &b_small, 5, TANH_SUPPORT).unwrap();
        let d_large = cmd_value(&a, &b_large, 5, TANH_SUPPORT).unwrap();
        assert!(d_large > d_small);
        assert!(d_small > 0.0);
    }

    #[test]
    fn cmd_detects_variance_difference_with_equal_means() {
        let a = mat(32, 1, |i| if i % 2 == 0 { 0.1 } else { -0.1 });
        let b = mat(32, 1, |i| if i % 2 == 0 { 0.9 } else { -0.9 });
        // Means are both 0; only moments j >= 2 differ.
        let k1 = cmd_value(&a, &b, 1, TANH_SUPPORT).unwrap();
        let k2 = cmd_value(&a, &b, 2, TANH_SUPPORT).unwrap();
        assert!(k1.abs() < 1e-5, "mean term should vanish, got {k1}");
        assert!(k2 > 0.01, "variance term should be visible, got {k2}");
    }

    #[test]
    fn cmd_backpropagates_into_both_batches() {
        let mut store = crate::tape::ParamStore::new();
        let ps = store.add("zs", mat(4, 2, |i| (i as f32 * 0.11).sin() * 0.5));
        let pt = store.add("zt", mat(4, 2, |i| (i as f32 * 0.23).cos() * 0.5));
        let mut g = Graph::new();
        let zs = g.param(&store, ps);
        let zt = g.param(&store, pt);
        let c = cmd(&mut g, zs, zt, 3, TANH_SUPPORT).unwrap();
        g.backward(c).unwrap();
        g.write_param_grads(&mut store).unwrap();
        assert!(store.grad(ps).norm2() > 0.0);
        assert!(store.grad(pt).norm2() > 0.0);
    }

    /// The tape's CMD value and its gradients into both batches, the CMD
    /// node receiving `g`.
    fn taped(zs: &Tensor, zt: &Tensor, k: usize, g: f32) -> (f32, Tensor, Tensor) {
        let mut graph = Graph::new();
        let (a, b) = (graph.constant(zs.clone()), graph.constant(zt.clone()));
        let c = cmd(&mut graph, a, b, k, TANH_SUPPORT).unwrap();
        let root = if g == 1.0 { c } else { graph.scale(c, g) };
        graph.backward(root).unwrap();
        let grad = |v| graph.grad(v).unwrap().clone();
        (graph.value(c).item(), grad(a), grad(b))
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn powi_into_is_f32_powi() {
        // Signed zeros, subnormals, values whose powers overflow or
        // underflow, infinities, and a spread of ordinary magnitudes.
        let mut xs = vec![
            0.0f32,
            -0.0,
            1e-45,
            -3e-39,
            1.0,
            -1.0,
            3e38,
            -1e20,
            f32::INFINITY,
        ];
        xs.extend((0..2000).map(|i| ((i as f32) * 0.731).sin() * 10f32.powi(i % 13 - 6)));
        let mut squares = vec![0.0; xs.len()];
        let mut out = vec![0.0; xs.len()];
        for n in 0..=9u32 {
            powi_into(&xs, n, &mut out, &mut squares);
            for (&x, &got) in xs.iter().zip(&out) {
                assert_eq!(got.to_bits(), x.powi(n as i32).to_bits(), "{x}^{n}");
            }
        }
    }

    #[test]
    fn cmd_head_is_the_tape_bit_for_bit() {
        // tanh-range latents with exact zeros of both signs, a constant
        // column and identical rows across the two domains.
        let latent = |rows: usize, d: usize, salt: f32| {
            mat(rows, d, |i| match (i + salt as usize) % 11 {
                0 => 0.0,
                1 => -0.0,
                _ if i % d == 1 => 0.25,
                _ => ((i as f32) * 0.37 + salt).sin() * 0.95,
            })
        };
        let mut head = CmdHead::new(1, TANH_SUPPORT);
        for (ns, nt, d) in [
            (48usize, 48usize, 20usize),
            (48, 30, 20),
            (7, 1, 3),
            (1, 5, 2),
        ] {
            let (zs, zt) = (latent(ns, d, 0.0), latent(nt, d, 2.0));
            for k in 1..=5 {
                for g in [1.0f32, 0.5, 2.0] {
                    let ctx = format!("ns={ns} nt={nt} d={d} k={k} g={g}");
                    let (value, want_s, want_t) = taped(&zs, &zt, k, g);
                    head.k = k;
                    let (mut gs, mut gt) = (vec![f32::NAN; ns * d], vec![f32::NAN; nt * d]);
                    let got = head.run(zs.data(), zt.data(), d, g, &mut gs, &mut gt);
                    assert_eq!(got.to_bits(), value.to_bits(), "{ctx}: value");
                    assert_eq!(bits(&gs), bits(want_s.data()), "{ctx}: source gradient");
                    assert_eq!(bits(&gt), bits(want_t.data()), "{ctx}: target gradient");
                }
            }
        }
    }

    #[test]
    fn minimizing_cmd_aligns_distributions() {
        // Gradient-descending CMD on one batch should pull it toward the other.
        use crate::optim::{Optimizer, Sgd};
        let target = mat(16, 2, |i| (i as f32 * 0.41).sin() * 0.4);
        let mut store = crate::tape::ParamStore::new();
        let p = store.add("z", mat(16, 2, |i| (i as f32 * 0.17).cos() * 0.4 + 0.3));
        let mut opt = Sgd::new(0.5);
        let initial = cmd_value(store.value(p), &target, 3, TANH_SUPPORT).unwrap();
        for _ in 0..100 {
            store.zero_grad();
            let mut g = Graph::new();
            let z = g.param(&store, p);
            let t = g.constant(target.clone());
            let c = cmd(&mut g, z, t, 3, TANH_SUPPORT).unwrap();
            g.backward(c).unwrap();
            g.write_param_grads(&mut store).unwrap();
            opt.step(&mut store);
        }
        let final_cmd = cmd_value(store.value(p), &target, 3, TANH_SUPPORT).unwrap();
        assert!(
            final_cmd < 0.3 * initial,
            "CMD should shrink under descent: {initial} -> {final_cmd}"
        );
    }
}
