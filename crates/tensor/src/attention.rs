//! Multi-head attention as **one pass** over `Q`, `K` and `V` read in
//! place — the serving-side replacement for
//! `split_heads ×3 → bmm(Q·Kᵀ, scale) → softmax → bmm(·V) → merge_heads`.
//!
//! The seven-step form writes three head-major copies, a score tensor, a
//! probability tensor and a context tensor, then copies the context back
//! into the merged layout. Here a head is a column range of a row-major
//! `[b·l, …]` matrix (row stride `rs`, so the three operands may be column
//! ranges of one fused `Q|K|V` projection output), a query row's scores
//! never leave the stack, and its context row is accumulated straight into
//! its place in the merged `[b, l, h·dh]` output.
//!
//! # Bit-identity
//!
//! Every output element is produced by exactly the operations the
//! seven-step form applies to it, in the same order:
//!
//! * a score is the naive kernel's dot product — one accumulator from
//!   `0.0`, one fused multiply-add per `p` ascending — times `scale`;
//! * a row's softmax is [`softmax_rows`], the one definition every
//!   executor calls (row max, [`crate::math::exp`] of `v - max`, ascending
//!   sum, `* (1 / sum)`); a group's live score rows are packed side by side
//!   first, so their exponentials run as whole vectors;
//! * a context element starts at `0.0` and takes one fused multiply-add
//!   per key position `p` ascending.
//!
//! The naive and the blocked GEMM kernels agree bitwise whenever the
//! contraction fits one `KC` block, so [`attention_fusable`] — which caps
//! `l` and `dh` at the stack tile, well under `KC` — is also a condition
//! under which this kernel reproduces `bmm` on *either* of its dispatch
//! paths.
//! Like the GEMM tiers, the body is compiled once per SIMD tier so
//! `f32::mul_add` lowers to the tier's fused instruction; the scalar tier
//! is the oracle (`tests/simd_bit_identity.rs`).
//!
//! # Training
//!
//! A compiled training step runs the same block both ways:
//! [`attention_train_slices`] is the forward above that also writes the
//! probabilities `P` the backward reads, and [`attention_bwd_slices`] is
//! the backward of the seven steps as one pass per (sample, head) —
//! `dV = Pᵀ·dC`, `dP = dC·Vᵀ`, the softmax backward ([`softmax_bwd_row`]),
//! the scale, `dQ = dS·K` and `dK = dSᵀ·Q` — reading `Q`, `K`, `V`, `P`
//! and the merged context gradient `dC` in place and writing `dQ`, `dK`,
//! `dV` merged. Each gradient element is the unfused chain's: a product
//! starts at `0.0` and takes one fused multiply-add per contraction index
//! ascending, which is what either GEMM kernel computes for a
//! non-accumulating product inside one `KC` block.

use crate::gemm::{active_tier, SimdTier, KC};
use crate::math::{self, Func};
use crate::{Result, TensorError};

/// Longest sequence, and widest head, whose transposed keys fit the
/// kernel's stack tile (4 KiB; the predictor's sequences are its leaf
/// counts, at most 8 by default, its heads 16 wide). Larger ones keep the
/// seven-step form.
pub const ATTENTION_MAX_L: usize = 16;
/// See [`ATTENTION_MAX_L`].
pub const ATTENTION_MAX_DH: usize = 64;

/// Whether [`attention_slices`] serves `l` positions of `dh`-wide heads —
/// and reproduces the unfused `bmm → softmax → bmm` chain bit for bit,
/// whichever GEMM kernel that chain would have dispatched to (both
/// contractions fit one `KC` block, where the naive and the blocked
/// kernel agree). Zero sizes are not served: an empty attention has
/// nothing to fuse.
pub fn attention_fusable(l: usize, dh: usize) -> bool {
    const _: () = assert!(ATTENTION_MAX_L <= KC && ATTENTION_MAX_DH <= KC);
    (1..=ATTENTION_MAX_L).contains(&l) && (1..=ATTENTION_MAX_DH).contains(&dh)
}

/// In-place softmax of each contiguous row of width `d`: `exp(v - max)`
/// normalized by the ascending sum. The single definition behind
/// [`crate::Tensor::softmax_last`], the plan executors' softmax step and
/// [`attention_slices`]. The exponentials of all rows run as one
/// [`math::map`]; the max and the sum stay serial per row. `d == 0` is a
/// no-op.
pub fn softmax_rows(o: &mut [f32], d: usize) {
    softmax_rows_with_tier(active_tier(), o, d)
}

#[inline(always)]
fn softmax_rows_with_tier(tier: SimdTier, o: &mut [f32], d: usize) {
    if d == 0 {
        return;
    }
    for row in o.chunks_mut(d) {
        let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        row.iter_mut().for_each(|v| *v -= m);
    }
    math::map_with_tier(tier, Func::Exp, None, o);
    for row in o.chunks_mut(d) {
        let mut z = 0.0f32;
        for &v in row.iter() {
            z += v;
        }
        let inv = 1.0 / z;
        row.iter_mut().for_each(|v| *v *= inv);
    }
}

/// Softmax backward of one row, in place: `g` holds the gradient of the
/// probabilities `s` on entry and `s * (g - Σ s·g)` on return, the sum a
/// plain ascending one of products. The single definition behind the
/// tape's softmax backward, the compiled training step's and
/// [`attention_bwd_slices`].
#[inline]
pub fn softmax_bwd_row(s: &[f32], g: &mut [f32]) {
    let dot: f32 = s.iter().zip(g.iter()).map(|(&a, &b)| a * b).sum();
    for (o, &s) in g.iter_mut().zip(s) {
        *o = s * (*o - dot);
    }
}

/// `out = merge_heads(softmax(Q·Kᵀ · scale) · V)` for `b` sequences of `l`
/// positions and `h` heads of width `dh`.
///
/// `q`, `k` and `v` each start at their first column and hold `b·l` rows
/// `rs` elements apart, of which this kernel reads the leading `h·dh`
/// (head `hi` is columns `hi·dh .. (hi+1)·dh`). `out` is the dense
/// `[b, l, h·dh]` result and is fully overwritten. `(l, dh)` must satisfy
/// [`attention_fusable`]; a problem with no output elements is a no-op.
#[allow(clippy::too_many_arguments)]
pub fn attention_slices(
    b: usize,
    h: usize,
    l: usize,
    dh: usize,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    rs: usize,
    scale: Option<f32>,
    out: &mut [f32],
) -> Result<()> {
    attention_slices_with_tier(active_tier(), b, h, l, dh, q, k, v, rs, scale, out)
}

/// [`attention_slices`] with the kernel tier pinned — the seam the
/// SIMD-vs-scalar bit-identity tests drive.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn attention_slices_with_tier(
    tier: SimdTier,
    b: usize,
    h: usize,
    l: usize,
    dh: usize,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    rs: usize,
    scale: Option<f32>,
    out: &mut [f32],
) -> Result<()> {
    attention_fwd(tier, b, h, l, dh, q, k, v, rs, scale, out, None)
}

/// [`attention_slices`] over dense `[b·l, h·dh]` operands that also
/// writes the softmax probabilities to `probs`, `[b·h, l, l]` as the
/// seven-step form's softmax lays them out — the forward of a compiled
/// training step, whose backward ([`attention_bwd_slices`]) reads them.
#[allow(clippy::too_many_arguments)]
pub fn attention_train_slices(
    b: usize,
    h: usize,
    l: usize,
    dh: usize,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    scale: Option<f32>,
    out: &mut [f32],
    probs: &mut [f32],
) -> Result<()> {
    attention_train_slices_with_tier(active_tier(), b, h, l, dh, q, k, v, scale, out, probs)
}

/// [`attention_train_slices`] with the kernel tier pinned.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn attention_train_slices_with_tier(
    tier: SimdTier,
    b: usize,
    h: usize,
    l: usize,
    dh: usize,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    scale: Option<f32>,
    out: &mut [f32],
    probs: &mut [f32],
) -> Result<()> {
    if probs.len() != b * h * l * l {
        return Err(TensorError::BadShape {
            op: "attention",
            shape: vec![b * h, l, l],
            len: probs.len(),
        });
    }
    attention_fwd(tier, b, h, l, dh, q, k, v, h * dh, scale, out, Some(probs))
}

/// Geometry checks and tier dispatch of the forward kernel.
#[allow(clippy::too_many_arguments)]
fn attention_fwd(
    tier: SimdTier,
    b: usize,
    h: usize,
    l: usize,
    dh: usize,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    rs: usize,
    scale: Option<f32>,
    out: &mut [f32],
    probs: Option<&mut [f32]>,
) -> Result<()> {
    let d = h * dh;
    let rows = b * l;
    if out.len() != rows * d {
        return Err(TensorError::BadShape {
            op: "attention",
            shape: vec![b, l, d],
            len: out.len(),
        });
    }
    if out.is_empty() {
        return Ok(());
    }
    // The last row an operand must hold ends at `(rows - 1) * rs + d`.
    let need = (rows - 1) * rs + d;
    let short = [q, k, v].into_iter().find(|s| s.len() < need);
    if !attention_fusable(l, dh) || rs < d || short.is_some() {
        return Err(TensorError::ShapeMismatch {
            op: "attention",
            lhs: vec![b, h, l, dh, rs],
            rhs: vec![need, short.map_or(need, <[f32]>::len)],
        });
    }
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier was selected by runtime feature detection.
        SimdTier::Avx2Fma | SimdTier::Avx512F => unsafe {
            avx2_attention(b, h, l, dh, q, k, v, rs, scale, out, probs)
        },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: as above.
        SimdTier::Neon => unsafe { neon_attention(b, h, l, dh, q, k, v, rs, scale, out, probs) },
        _ => attention_body(tier, b, h, l, dh, q, k, v, rs, scale, out, probs),
    }
    Ok(())
}

/// The backward of [`attention_train_slices`] for `b` sequences of `l`
/// positions and `h` heads of width `dh` (see the module docs): from the
/// forward's operands `q`, `k`, `v` (dense `[b·l, h·dh]`), its
/// probabilities `probs` (`[b·h, l, l]`) and the gradient `g` of its
/// merged output, writes the gradients `dq`, `dk`, `dv` of the three
/// operands, each fully overwritten. `(l, dh)` must satisfy
/// [`attention_fusable`].
#[allow(clippy::too_many_arguments)]
pub fn attention_bwd_slices(
    b: usize,
    h: usize,
    l: usize,
    dh: usize,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    probs: &[f32],
    g: &[f32],
    scale: Option<f32>,
    dq: &mut [f32],
    dk: &mut [f32],
    dv: &mut [f32],
) -> Result<()> {
    attention_bwd_slices_with_tier(
        active_tier(),
        b,
        h,
        l,
        dh,
        q,
        k,
        v,
        probs,
        g,
        scale,
        dq,
        dk,
        dv,
    )
}

/// [`attention_bwd_slices`] with the kernel tier pinned.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn attention_bwd_slices_with_tier(
    tier: SimdTier,
    b: usize,
    h: usize,
    l: usize,
    dh: usize,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    probs: &[f32],
    g: &[f32],
    scale: Option<f32>,
    dq: &mut [f32],
    dk: &mut [f32],
    dv: &mut [f32],
) -> Result<()> {
    let n = b * l * h * dh;
    let reads = [q, k, v, g];
    let writes = [dq.len(), dk.len(), dv.len()];
    let bad = reads.iter().any(|s| s.len() != n)
        || writes.iter().any(|&len| len != n)
        || probs.len() != b * h * l * l;
    if bad || (n > 0 && !attention_fusable(l, dh)) {
        return Err(TensorError::ShapeMismatch {
            op: "attention_bwd",
            lhs: vec![b, h, l, dh],
            rhs: vec![q.len(), k.len(), v.len(), g.len(), probs.len()],
        });
    }
    if n == 0 {
        return Ok(());
    }
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier was selected by runtime feature detection.
        SimdTier::Avx2Fma | SimdTier::Avx512F => unsafe {
            avx2_attention_bwd(b, h, l, dh, [q, k, v], probs, g, scale, [dq, dk, dv])
        },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: as above.
        SimdTier::Neon => unsafe {
            neon_attention_bwd(b, h, l, dh, [q, k, v], probs, g, scale, [dq, dk, dv])
        },
        _ => attention_bwd_body(b, h, l, dh, [q, k, v], probs, g, scale, [dq, dk, dv]),
    }
    Ok(())
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn avx2_attention(
    b: usize,
    h: usize,
    l: usize,
    dh: usize,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    rs: usize,
    scale: Option<f32>,
    out: &mut [f32],
    probs: Option<&mut [f32]>,
) {
    attention_body(
        SimdTier::Avx2Fma,
        b,
        h,
        l,
        dh,
        q,
        k,
        v,
        rs,
        scale,
        out,
        probs,
    )
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn avx2_attention_bwd(
    b: usize,
    h: usize,
    l: usize,
    dh: usize,
    qkv: [&[f32]; 3],
    probs: &[f32],
    g: &[f32],
    scale: Option<f32>,
    grads: [&mut [f32]; 3],
) {
    attention_bwd_body(b, h, l, dh, qkv, probs, g, scale, grads)
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
#[allow(clippy::too_many_arguments)]
unsafe fn neon_attention(
    b: usize,
    h: usize,
    l: usize,
    dh: usize,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    rs: usize,
    scale: Option<f32>,
    out: &mut [f32],
    probs: Option<&mut [f32]>,
) {
    attention_body(SimdTier::Neon, b, h, l, dh, q, k, v, rs, scale, out, probs)
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
#[allow(clippy::too_many_arguments)]
unsafe fn neon_attention_bwd(
    b: usize,
    h: usize,
    l: usize,
    dh: usize,
    qkv: [&[f32]; 3],
    probs: &[f32],
    g: &[f32],
    scale: Option<f32>,
    grads: [&mut [f32]; 3],
) {
    attention_bwd_body(b, h, l, dh, qkv, probs, g, scale, grads)
}

/// Lanes a transposed key row is padded to: whole vectors on every tier.
const LANES: usize = 8;
const LP_MAX: usize = ATTENTION_MAX_L.next_multiple_of(LANES);
/// Most rows of one (sample, head) a kernel advances together. A row's
/// products are serial chains (one fused multiply-add per contraction
/// index, in order), so the rows' chains run side by side. A kernel runs
/// groups of `G = min(l, GROUP)` rows; a group that runs past the last row
/// recomputes that row and is never stored.
const GROUP: usize = 4;

/// Calls `$f::<G>($args)` with `G = min($l, GROUP)`.
macro_rules! by_group {
    ($l:expr, $f:ident($($arg:expr),* $(,)?)) => {
        match $l {
            1 => $f::<1>($($arg),*),
            2 => $f::<2>($($arg),*),
            3 => $f::<3>($($arg),*),
            _ => $f::<GROUP>($($arg),*),
        }
    };
}

/// The forward kernel, shared by every tier; `probs_out`, when given,
/// receives each softmax row. `#[inline(always)]` so each tier's
/// wrapper re-compiles it under its own `target_feature` set (see
/// `gemm::naive_body`).
///
/// One head at a time: its keys are transposed into a stack tile
/// (`kt[p][j] = K[j][p]`, rows padded with zeros to whole vectors), so a
/// query row's scores advance together — lane `j` is score `j`'s own
/// accumulator, from `0.0`, one fused multiply-add per `p` ascending,
/// which is the naive GEMM kernel's dot product — and up to [`GROUP`]
/// query rows advance together too.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn attention_body(
    tier: SimdTier,
    b: usize,
    h: usize,
    l: usize,
    dh: usize,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    rs: usize,
    scale: Option<f32>,
    out: &mut [f32],
    probs_out: Option<&mut [f32]>,
) {
    by_group!(
        l,
        attention_groups(tier, b, h, l, dh, q, k, v, rs, scale, out, probs_out)
    )
}

/// [`attention_body`] in groups of `G` query rows.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn attention_groups<const G: usize>(
    tier: SimdTier,
    b: usize,
    h: usize,
    l: usize,
    dh: usize,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    rs: usize,
    scale: Option<f32>,
    out: &mut [f32],
    mut probs_out: Option<&mut [f32]>,
) {
    let d = h * dh;
    let lp = l.next_multiple_of(LANES);
    // Lanes `l..lp` of every row are never written: they stay zero.
    let mut kt = [0.0f32; ATTENTION_MAX_DH * LP_MAX];
    let kt = &mut kt[..dh * lp];
    let mut ctx = [[0.0f32; ATTENTION_MAX_DH]; G];
    // A group's live score rows, side by side.
    let mut packed = [0.0f32; GROUP * ATTENTION_MAX_L];
    for bi in 0..b {
        let row0 = bi * l;
        for hi in 0..h {
            let col = hi * dh;
            // Head `hi` of position `row`: `dh` columns of one operand row.
            let head = |m, row| head_of(m, (row0 + row) * rs + col, dh);
            transpose_into(kt, lp, l, |j| head(k, j));
            for i0 in (0..l).step_by(G) {
                let live = G.min(l - i0);
                let qs: [&[f32]; G] = std::array::from_fn(|g| head(q, i0 + g.min(live - 1)));
                let scores = score_rows(qs, kt, lp);
                let packed = &mut packed[..live * l];
                for (row, s) in packed.chunks_exact_mut(l).zip(&scores) {
                    row.copy_from_slice(&s[..l]);
                    if let Some(c) = scale {
                        row.iter_mut().for_each(|s| *s *= c);
                    }
                }
                softmax_rows_with_tier(tier, packed, l);
                if let Some(p) = probs_out.as_deref_mut() {
                    let at = ((bi * h + hi) * l + i0) * l;
                    p[at..at + packed.len()].copy_from_slice(packed);
                }
                // A context element starts at `0.0` and takes one fused
                // multiply-add per key position ascending. Rows past the
                // live ones repeat the last and are never stored.
                let w: [&[f32]; G] = std::array::from_fn(|g| &packed[g.min(live - 1) * l..][..l]);
                weighted_rows(w, l, dh, |p| head(v, p), &mut ctx);
                for (g, c) in ctx.iter().enumerate().take(live) {
                    let at = (row0 + i0 + g) * d + col;
                    out[at..at + dh].copy_from_slice(&c[..dh]);
                }
            }
        }
    }
}

/// `G` query rows against a transposed key tile of `lp`-lane rows: lane
/// `j` of row `g` is its own accumulator, from `0.0`, one fused
/// multiply-add per `p` ascending. Lanes past `lp` stay zero.
#[inline(always)]
fn score_rows<const G: usize>(q: [&[f32]; G], kt: &[f32], lp: usize) -> [[f32; LP_MAX]; G] {
    #[inline(always)]
    fn rows<const G: usize, const LP: usize>(
        q: [&[f32]; G],
        kt: &[f32],
        out: &mut [[f32; LP_MAX]; G],
    ) {
        let mut s = [[0.0f32; LP]; G];
        for (p, keys) in kt.chunks_exact(LP).enumerate() {
            for (sg, qg) in s.iter_mut().zip(&q) {
                let x = qg[p];
                for (acc, &y) in sg.iter_mut().zip(keys) {
                    *acc = x.mul_add(y, *acc);
                }
            }
        }
        for (o, sg) in out.iter_mut().zip(&s) {
            o[..LP].copy_from_slice(sg);
        }
    }
    let mut out = [[0.0f32; LP_MAX]; G];
    if lp == LANES {
        rows::<G, LANES>(q, kt, &mut out);
    } else {
        rows::<G, LP_MAX>(q, kt, &mut out);
    }
    out
}

/// `out[g][c] = Σ_p w[g][p] · x(p)[c]` over `p` in `0..l` ascending: each
/// element a product's chain from `0.0`, one fused multiply-add per `p`.
/// The `G` rows advance together, eight columns at a time.
#[inline(always)]
fn weighted_rows<'a, const G: usize>(
    w: [&[f32]; G],
    l: usize,
    dh: usize,
    x: impl Fn(usize) -> &'a [f32],
    out: &mut [[f32; ATTENTION_MAX_DH]; G],
) {
    let full = dh - dh % LANES;
    for c0 in (0..full).step_by(LANES) {
        let mut acc = [[0.0f32; LANES]; G];
        let x0 = &x(0)[c0..c0 + LANES];
        for (a, wg) in acc.iter_mut().zip(&w) {
            for (o, &v) in a.iter_mut().zip(x0) {
                *o = wg[0].mul_add(v, 0.0);
            }
        }
        for p in 1..l {
            let xp = &x(p)[c0..c0 + LANES];
            for (a, wg) in acc.iter_mut().zip(&w) {
                let wp = wg[p];
                for (o, &v) in a.iter_mut().zip(xp) {
                    *o = wp.mul_add(v, *o);
                }
            }
        }
        for (og, a) in out.iter_mut().zip(&acc) {
            og[c0..c0 + LANES].copy_from_slice(a);
        }
    }
    for c in full..dh {
        for (og, wg) in out.iter_mut().zip(&w) {
            let mut o = wg[0].mul_add(x(0)[c], 0.0);
            for p in 1..l {
                o = wg[p].mul_add(x(p)[c], o);
            }
            og[c] = o;
        }
    }
}

#[inline(always)]
fn head_of(m: &[f32], at: usize, dh: usize) -> &[f32] {
    &m[at..at + dh]
}

/// The backward kernel, shared by every tier (compiled per tier like
/// [`attention_body`]). Per (sample, head): `V` is transposed into a stack
/// tile so rows of `dP = dC·Vᵀ` run like score rows; each row then takes
/// the softmax backward and the scale into a stack tile of `dS`; and
/// `dV`, `dQ`, `dK` are weighted sums of rows of `dC`, `K` and `Q` —
/// up to [`GROUP`] rows of every step at a time.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn attention_bwd_body(
    b: usize,
    h: usize,
    l: usize,
    dh: usize,
    qkv: [&[f32]; 3],
    probs: &[f32],
    g: &[f32],
    scale: Option<f32>,
    grads: [&mut [f32]; 3],
) {
    by_group!(
        l,
        attention_bwd_groups(b, h, l, dh, qkv, probs, g, scale, grads)
    )
}

/// [`attention_bwd_body`] in groups of `G` rows.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn attention_bwd_groups<const G: usize>(
    b: usize,
    h: usize,
    l: usize,
    dh: usize,
    [q, k, v]: [&[f32]; 3],
    probs: &[f32],
    g: &[f32],
    scale: Option<f32>,
    [dq, dk, dv]: [&mut [f32]; 3],
) {
    let d = h * dh;
    let lp = l.next_multiple_of(LANES);
    let mut vt = [0.0f32; ATTENTION_MAX_DH * LP_MAX];
    let vt = &mut vt[..dh * lp];
    // `dS` by rows and by columns, and `Pᵀ`: the weights of the three
    // weighted sums, each a row.
    let mut ds = [[0.0f32; LP_MAX]; ATTENTION_MAX_L];
    let mut dst = [[0.0f32; LP_MAX]; ATTENTION_MAX_L];
    let mut pt = [[0.0f32; LP_MAX]; ATTENTION_MAX_L];
    let mut rows = [[0.0f32; ATTENTION_MAX_DH]; G];
    for bi in 0..b {
        let row0 = bi * l;
        for hi in 0..h {
            let col = hi * dh;
            let at = |row: usize| (row0 + row) * d + col;
            let head = |m, row| head_of(m, at(row), dh);
            let p = &probs[(bi * h + hi) * l * l..][..l * l];
            transpose_into(vt, lp, l, |j| head(v, j));
            for (i, prow) in p.chunks_exact(l).enumerate() {
                for (ptj, &x) in pt.iter_mut().zip(prow) {
                    ptj[i] = x;
                }
            }
            for i0 in (0..l).step_by(G) {
                let live = G.min(l - i0);
                let gs: [&[f32]; G] = std::array::from_fn(|r| head(g, i0 + r.min(live - 1)));
                let dp = score_rows(gs, vt, lp);
                for (r, dpr) in dp.iter().enumerate().take(live) {
                    let i = i0 + r;
                    let row = &mut ds[i][..l];
                    row.copy_from_slice(&dpr[..l]);
                    softmax_bwd_row(&p[i * l..(i + 1) * l], row);
                    if let Some(c) = scale {
                        for s in row.iter_mut() {
                            *s *= c;
                        }
                    }
                    for (dsj, &x) in dst.iter_mut().zip(row.iter()) {
                        dsj[i] = x;
                    }
                }
            }
            for j0 in (0..l).step_by(G) {
                let live = G.min(l - j0);
                let js: [usize; G] = std::array::from_fn(|r| j0 + r.min(live - 1));
                let store = |dst: &mut [f32], rows: &[[f32; ATTENTION_MAX_DH]; G]| {
                    for (r, row) in rows.iter().enumerate().take(live) {
                        dst[at(j0 + r)..at(j0 + r) + dh].copy_from_slice(&row[..dh]);
                    }
                };
                // dV[j] = Σ_i P[i][j]·dC[i], dK[j] = Σ_i dS[i][j]·Q[i],
                // dQ[j] = Σ_i dS[j][i]·K[i].
                weighted_rows(js.map(|j| &pt[j][..]), l, dh, |i| head(g, i), &mut rows);
                store(dv, &rows);
                weighted_rows(js.map(|j| &dst[j][..]), l, dh, |i| head(q, i), &mut rows);
                store(dk, &rows);
                weighted_rows(js.map(|j| &ds[j][..]), l, dh, |i| head(k, i), &mut rows);
                store(dq, &rows);
            }
        }
    }
}

/// `t[p * lp + j] = row(j)[p]` for the `l` rows of one head: a head's
/// keys (or values) with positions as lanes. Lanes `l..lp` are left as
/// they are (zero).
#[inline(always)]
fn transpose_into<'a>(t: &mut [f32], lp: usize, l: usize, row: impl Fn(usize) -> &'a [f32]) {
    for j in 0..l {
        for (lane, &y) in t[j..].iter_mut().step_by(lp).zip(row(j)) {
            *lane = y;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bmm_ep_slices, Tensor};

    fn fill(n: usize, seed: f32) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32) * 0.417 + seed).sin() * 1.5)
            .collect()
    }

    /// The seven-step form over dense `[b, l, d]` operands.
    #[allow(clippy::too_many_arguments)]
    fn unfused(
        b: usize,
        h: usize,
        l: usize,
        dh: usize,
        q: &[f32],
        k: &[f32],
        v: &[f32],
        scale: Option<f32>,
    ) -> Vec<f32> {
        let d = h * dh;
        let split = |x: &[f32]| {
            let mut o = vec![0.0f32; x.len()];
            for bi in 0..b {
                for li in 0..l {
                    for hi in 0..h {
                        let src = (bi * l + li) * d + hi * dh;
                        let dst = ((bi * h + hi) * l + li) * dh;
                        o[dst..dst + dh].copy_from_slice(&x[src..src + dh]);
                    }
                }
            }
            o
        };
        let (qh, kh, vh) = (split(q), split(k), split(v));
        let mut scores = vec![0.0f32; b * h * l * l];
        bmm_ep_slices(b * h, l, dh, l, &qh, false, &kh, true, scale, &mut scores).unwrap();
        let probs = Tensor::from_vec(scores, &[b * h * l, l])
            .unwrap()
            .softmax_last()
            .unwrap();
        let mut ctx = vec![0.0f32; b * h * l * dh];
        bmm_ep_slices(
            b * h,
            l,
            l,
            dh,
            probs.data(),
            false,
            &vh,
            false,
            None,
            &mut ctx,
        )
        .unwrap();
        let mut merged = vec![0.0f32; b * l * d];
        for bi in 0..b {
            for li in 0..l {
                for hi in 0..h {
                    let dst = (bi * l + li) * d + hi * dh;
                    let src = ((bi * h + hi) * l + li) * dh;
                    merged[dst..dst + dh].copy_from_slice(&ctx[src..src + dh]);
                }
            }
        }
        merged
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `[b, l, h·dh] -> [b·h, l, dh]`, or the inverse when `!split`.
    fn heads(x: &[f32], b: usize, h: usize, l: usize, dh: usize, split: bool) -> Vec<f32> {
        let d = h * dh;
        let mut o = vec![0.0f32; x.len()];
        for bi in 0..b {
            for li in 0..l {
                for hi in 0..h {
                    let merged = (bi * l + li) * d + hi * dh;
                    let parted = ((bi * h + hi) * l + li) * dh;
                    let (dst, src) = if split {
                        (parted, merged)
                    } else {
                        (merged, parted)
                    };
                    o[dst..dst + dh].copy_from_slice(&x[src..src + dh]);
                }
            }
        }
        o
    }

    /// The unfused backward: head copies, four `bmm`s, the softmax
    /// backward and the scale, as a compiled training step lays them out.
    #[allow(clippy::too_many_arguments)]
    fn unfused_bwd(
        b: usize,
        h: usize,
        l: usize,
        dh: usize,
        [q, k, v]: [&[f32]; 3],
        p: &[f32],
        g: &[f32],
        scale: Option<f32>,
    ) -> [Vec<f32>; 3] {
        let bh = b * h;
        let split = |x: &[f32]| heads(x, b, h, l, dh, true);
        let (qh, kh, vh, gh) = (split(q), split(k), split(v), split(g));
        let mut dp = vec![0.0f32; bh * l * l];
        bmm_ep_slices(bh, l, dh, l, &gh, false, &vh, true, None, &mut dp).unwrap();
        let mut dvh = vec![0.0f32; bh * l * dh];
        bmm_ep_slices(bh, l, l, dh, p, true, &gh, false, None, &mut dvh).unwrap();
        for (srow, grow) in p.chunks(l).zip(dp.chunks_mut(l)) {
            softmax_bwd_row(srow, grow);
        }
        if let Some(c) = scale {
            dp.iter_mut().for_each(|x| *x *= c);
        }
        let mut dqh = vec![0.0f32; bh * l * dh];
        bmm_ep_slices(bh, l, l, dh, &dp, false, &kh, false, None, &mut dqh).unwrap();
        let mut dkh = vec![0.0f32; bh * l * dh];
        bmm_ep_slices(bh, l, l, dh, &dp, true, &qh, false, None, &mut dkh).unwrap();
        [dqh, dkh, dvh].map(|x| heads(&x, b, h, l, dh, false))
    }

    #[test]
    fn training_forward_and_backward_match_the_unfused_steps_bit_for_bit() {
        // As the forward test's shapes: both sides of the naive / blocked
        // `bmm` threshold, `l` on and off a whole vector.
        for &(b, h, l, dh) in &[
            (1usize, 1usize, 1usize, 1usize),
            (2, 2, 3, 16),
            (3, 2, 8, 16),
            (1, 4, 5, 8),
            (2, 1, 16, 32),
            (1, 1, ATTENTION_MAX_L, ATTENTION_MAX_DH),
            (2, 3, 9, 7),
        ] {
            let n = b * l * h * dh;
            let (q, k, v, g) = (fill(n, 0.3), fill(n, 1.9), fill(n, 4.1), fill(n, 2.6));
            for scale in [None, Some(1.0 / (dh as f32).sqrt())] {
                let mut out = vec![f32::NAN; n];
                let mut p = vec![f32::NAN; b * h * l * l];
                attention_train_slices(b, h, l, dh, &q, &k, &v, scale, &mut out, &mut p).unwrap();
                let what = format!("b={b} h={h} l={l} dh={dh} scale={scale:?}");
                assert_eq!(
                    bits(&out),
                    bits(&unfused(b, h, l, dh, &q, &k, &v, scale)),
                    "{what}"
                );
                let mut want_p = vec![0.0f32; b * h * l * l];
                let (qh, kh) = (heads(&q, b, h, l, dh, true), heads(&k, b, h, l, dh, true));
                bmm_ep_slices(b * h, l, dh, l, &qh, false, &kh, true, scale, &mut want_p).unwrap();
                softmax_rows(&mut want_p, l);
                assert_eq!(bits(&p), bits(&want_p), "probs {what}");

                let want = unfused_bwd(b, h, l, dh, [&q, &k, &v], &p, &g, scale);
                let mut got = [vec![f32::NAN; n], vec![f32::NAN; n], vec![f32::NAN; n]];
                let [dq, dk, dv] = &mut got;
                attention_bwd_slices(b, h, l, dh, &q, &k, &v, &p, &g, scale, dq, dk, dv).unwrap();
                for (name, (got, want)) in ["dq", "dk", "dv"].iter().zip(got.iter().zip(&want)) {
                    assert_eq!(bits(got), bits(want), "{name} {what}");
                }
            }
        }
        // Wrong lengths are typed errors; an empty problem is a no-op.
        let x = fill(32, 0.1);
        let mut o = vec![0.0f32; 32];
        let (mut o2, mut o3) = (o.clone(), o.clone());
        let p = fill(2 * 4 * 4, 0.5);
        assert!(attention_bwd_slices(
            1,
            2,
            4,
            4,
            &x,
            &x,
            &x,
            &p[1..],
            &x,
            None,
            &mut o,
            &mut o2,
            &mut o3
        )
        .is_err());
        assert!(
            attention_train_slices(1, 2, 4, 4, &x, &x, &x, None, &mut o, &mut o2[..5]).is_err()
        );
        attention_bwd_slices(
            0,
            2,
            4,
            4,
            &[],
            &[],
            &[],
            &[],
            &[],
            None,
            &mut [],
            &mut [],
            &mut [],
        )
        .unwrap();
    }

    #[test]
    fn matches_the_seven_step_form_bit_for_bit() {
        // Shapes on both sides of the naive/blocked bmm threshold
        // (l·l·dh = 8192 at l = 16, dh = 32), `l` on and off a whole
        // vector, one head and several, with and without the scale.
        for &(b, h, l, dh) in &[
            (1usize, 1usize, 1usize, 1usize),
            (2, 2, 3, 16),
            (3, 2, 8, 16),
            (1, 4, 5, 8),
            (2, 1, 16, 32),
            (1, 2, 11, 40),
            (1, 1, ATTENTION_MAX_L, ATTENTION_MAX_DH),
            (2, 3, 9, 7),
        ] {
            let d = h * dh;
            let (q, k, v) = (
                fill(b * l * d, 0.3),
                fill(b * l * d, 1.9),
                fill(b * l * d, 4.1),
            );
            for scale in [None, Some(1.0 / (dh as f32).sqrt())] {
                let want = unfused(b, h, l, dh, &q, &k, &v, scale);
                let mut got = vec![f32::NAN; b * l * d];
                attention_slices(b, h, l, dh, &q, &k, &v, d, scale, &mut got).unwrap();
                assert_eq!(bits(&got), bits(&want), "b={b} h={h} l={l} dh={dh}");
            }
        }
    }

    #[test]
    fn reads_heads_in_place_out_of_a_fused_projection() {
        // Q | K | V as column ranges of one `[b·l, 3d]` matrix.
        let (b, h, l, dh) = (3usize, 2usize, 5usize, 16usize);
        let d = h * dh;
        let qkv = fill(b * l * 3 * d, 0.7);
        let col = |c: usize| -> Vec<f32> {
            qkv.chunks(3 * d)
                .flat_map(|r| r[c * d..(c + 1) * d].to_vec())
                .collect()
        };
        let want = unfused(b, h, l, dh, &col(0), &col(1), &col(2), Some(0.25));
        let mut got = vec![0.0f32; b * l * d];
        attention_slices(
            b,
            h,
            l,
            dh,
            &qkv,
            &qkv[d..],
            &qkv[2 * d..],
            3 * d,
            Some(0.25),
            &mut got,
        )
        .unwrap();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn special_values_take_the_unfused_bits() {
        // A score row driven to all-equal, to ±inf, to NaN, and operands
        // of -0.0: whatever the seven-step form makes of them, bit for bit.
        let (b, h, l, dh) = (1usize, 1usize, 4usize, 4usize);
        let base = fill(l * dh, 0.9);
        for special in [0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            let mut q = base.clone();
            q[..dh].fill(special);
            let k = fill(l * dh, 2.3);
            let mut v = fill(l * dh, 3.1);
            v[dh] = -0.0;
            let want = unfused(b, h, l, dh, &q, &k, &v, Some(0.5));
            let mut got = vec![0.0f32; l * dh];
            attention_slices(b, h, l, dh, &q, &k, &v, dh, Some(0.5), &mut got).unwrap();
            assert_eq!(bits(&got), bits(&want), "special {special}");
        }
    }

    #[test]
    fn bad_geometry_is_a_typed_error_and_empty_is_a_no_op() {
        let x = fill(64, 0.1);
        let mut out = vec![0.0f32; 16];
        // Output length does not match.
        assert!(attention_slices(1, 2, 2, 4, &x, &x, &x, 8, None, &mut out[..15]).is_err());
        // Row stride narrower than the heads.
        assert!(attention_slices(1, 2, 2, 4, &x, &x, &x, 7, None, &mut out).is_err());
        // An operand too short for its last row.
        assert!(attention_slices(1, 2, 2, 4, &x, &x[..15], &x, 8, None, &mut out).is_err());
        // A sequence longer than the stack tile.
        let l = ATTENTION_MAX_L + 1;
        let big = fill(l, 0.2);
        let mut o = vec![0.0f32; l];
        assert!(attention_slices(1, 1, l, 1, &big, &big, &big, 1, None, &mut o).is_err());
        assert!(!attention_fusable(0, 4) && !attention_fusable(4, 0));
        // No output elements: nothing to do, whatever else is zero.
        for (b, h, l, dh) in [(0, 2, 2, 4), (1, 0, 2, 4), (1, 2, 0, 4), (1, 2, 2, 0)] {
            attention_slices(b, h, l, dh, &x, &x, &x, 8, None, &mut []).unwrap();
        }
    }
}
