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
//! * a row's softmax is [`softmax_row`], the one definition every executor
//!   calls (row max, `exp(v - max)`, ascending sum, `* (1 / sum)`);
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

use crate::gemm::{active_tier, SimdTier, KC};
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

/// In-place softmax of one row: `exp(v - max)` normalized by the ascending
/// sum. The single definition behind [`crate::Tensor::softmax_last`], the
/// plan executors' softmax step and [`attention_slices`]. An empty row is
/// left alone.
#[inline]
pub fn softmax_row(row: &mut [f32]) {
    let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut z = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - m).exp();
        z += *v;
    }
    let inv = 1.0 / z;
    for v in row.iter_mut() {
        *v *= inv;
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
        SimdTier::Avx2Fma => unsafe { avx2_attention(b, h, l, dh, q, k, v, rs, scale, out) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: as above.
        SimdTier::Neon => unsafe { neon_attention(b, h, l, dh, q, k, v, rs, scale, out) },
        _ => attention_body(b, h, l, dh, q, k, v, rs, scale, out),
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
) {
    attention_body(b, h, l, dh, q, k, v, rs, scale, out)
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
) {
    attention_body(b, h, l, dh, q, k, v, rs, scale, out)
}

/// Lanes a transposed key row is padded to: whole vectors on every tier.
const LANES: usize = 8;
const LP_MAX: usize = ATTENTION_MAX_L.next_multiple_of(LANES);

/// The kernel, shared by every tier. `#[inline(always)]` so each tier's
/// wrapper re-compiles it under its own `target_feature` set (see
/// `gemm::naive_body`).
///
/// One head at a time: its keys are transposed into a stack tile
/// (`kt[p][j] = K[j][p]`, rows padded with zeros to whole vectors), so a
/// query row's scores advance together — lane `j` is score `j`'s own
/// accumulator, from `0.0`, one fused multiply-add per `p` ascending,
/// which is the naive GEMM kernel's dot product.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn attention_body(
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
) {
    let d = h * dh;
    let lp = l.next_multiple_of(LANES);
    // Lanes `l..lp` of every row are never written: they stay zero.
    let mut kt = [0.0f32; ATTENTION_MAX_DH * LP_MAX];
    let kt = &mut kt[..dh * lp];
    let mut probs = [0.0f32; LP_MAX];
    for bi in 0..b {
        let row0 = bi * l;
        for hi in 0..h {
            let col = hi * dh;
            // Head `hi` of position `row`: `dh` columns of one operand row.
            let head = |m, row| head_of(m, (row0 + row) * rs + col, dh);
            for j in 0..l {
                for (lane, &y) in kt[j..].iter_mut().step_by(lp).zip(head(k, j)) {
                    *lane = y;
                }
            }
            for i in 0..l {
                let qrow = head(q, i);
                if lp == LANES {
                    probs[..LANES].copy_from_slice(&score_row::<LANES>(qrow, kt));
                } else {
                    probs.copy_from_slice(&score_row::<LP_MAX>(qrow, kt));
                }
                let probs = &mut probs[..l];
                if let Some(c) = scale {
                    for s in probs.iter_mut() {
                        *s *= c;
                    }
                }
                softmax_row(probs);
                // A context element starts at `0.0` and takes one fused
                // multiply-add per key position ascending; position 0
                // writes, so the row needs no zeroing pass.
                let at = (row0 + i) * d + col;
                let orow = &mut out[at..at + dh];
                for (o, &x) in orow.iter_mut().zip(head(v, 0)) {
                    *o = probs[0].mul_add(x, 0.0);
                }
                for (p, &w) in probs.iter().enumerate().skip(1) {
                    for (o, &x) in orow.iter_mut().zip(head(v, p)) {
                        *o = w.mul_add(x, *o);
                    }
                }
            }
        }
    }
}

/// One query row against a transposed key tile of `LP`-lane rows.
#[inline(always)]
fn score_row<const LP: usize>(qrow: &[f32], kt: &[f32]) -> [f32; LP] {
    let mut s = [0.0f32; LP];
    for (&x, keys) in qrow.iter().zip(kt.chunks_exact(LP)) {
        for (acc, &y) in s.iter_mut().zip(keys) {
            *acc = x.mul_add(y, *acc);
        }
    }
    s
}

#[inline(always)]
fn head_of(m: &[f32], at: usize, dh: usize) -> &[f32] {
    &m[at..at + dh]
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
