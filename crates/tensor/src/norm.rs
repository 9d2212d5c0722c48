//! Layer norm over contiguous rows: the one forward and the one backward
//! definition every executor calls — the tape, the generic plan, a fold
//! and the compiled training step.
//!
//! # Definition
//!
//! For a row `x` of width `d`:
//!
//! * `mean` is the ascending sum of `x` from `-0.0` (where `Iterator::sum`
//!   starts, so an all-zero row keeps its sign) divided by `d`;
//! * `var` is the ascending sum of `(x - mean) * (x - mean)` from `-0.0`,
//!   divided by `d`, and `inv = 1 / sqrt(var + eps)`;
//! * forward: `y = (x - mean) * inv * gamma + beta`, left to right;
//! * backward, with `xhat = (x - mean) * inv` and `gg = g * gamma`:
//!   `mean_gg` and `mean_ggx` are the ascending sums of `gg` and
//!   `gg * xhat` from `0.0`, each divided by `d`;
//!   `dx = inv * (gg - mean_gg - xhat * mean_ggx)`; and the column
//!   accumulators take `dgamma += g * xhat` and `dbeta += g` row after
//!   row.
//!
//! Every sum is a serial chain within its row, and its order is part of
//! the bit-identity contract, so no tier reassociates one. Rows are
//! independent, though, so the tiers run many rows' chains side by side:
//!
//! * **scalar** (the oracle) interleaves eight rows, then four, then one;
//! * **`avx512f`** puts sixteen rows in the sixteen lanes of a `zmm`: a
//!   block is read row-major and transposed in registers into a tile of
//!   columns, each lane runs its own row's chains in the row's own order,
//!   `sqrt` and the divides are the IEEE instructions, and the
//!   element-wise passes (normalize, `dx`, the column accumulators) run
//!   row-major, a row at a time, rows in order. A block of fewer than
//!   sixteen rows runs under the lane mask, so no row count falls back to
//!   scalar (running two blocks' chains side by side in the forward
//!   measured 2.9% slower end to end).
//!
//! The column tile holds [`LANES_MAX_D`] columns; a wider row runs the
//! scalar form. `avx2+fma` and NEON run the scalar form too: the same
//! lanes form eight wide on AVX2 measured 0.86–0.91× scalar in the
//! forward at 3 rows and 1.04–1.93× from 13 rows up, and no benchmark
//! workload runs that tier on a host with `avx512f`. `cargo run
//! --release -p tensor --example math_kernels` times every supported
//! tier at the predictor's width.

use crate::gemm::{active_tier, SimdTier};

/// Widest row the lanes form serves: its column tile (64 `zmm`, 4 KiB).
const LANES_MAX_D: usize = 64;

/// Rows the scalar form interleaves.
const SCALAR_ROWS: usize = 8;

/// Layer norm of each row of width `d`, written to `o`: read from `x` when
/// given (same length as `o`), otherwise in place. `gamma` and `beta` hold
/// at least `d` values. `d == 0` is a no-op.
pub fn layer_norm_rows(
    x: Option<&[f32]>,
    o: &mut [f32],
    gamma: &[f32],
    beta: &[f32],
    d: usize,
    eps: f32,
) {
    layer_norm_rows_with_tier(active_tier(), x, o, gamma, beta, d, eps)
}

/// [`layer_norm_rows`] with the tier pinned — the seam the tier-vs-oracle
/// tests and the `math_kernels` example drive.
#[doc(hidden)]
pub fn layer_norm_rows_with_tier(
    tier: SimdTier,
    x: Option<&[f32]>,
    o: &mut [f32],
    gamma: &[f32],
    beta: &[f32],
    d: usize,
    eps: f32,
) {
    if d == 0 {
        return;
    }
    if let Some(x) = x {
        assert_eq!(x.len(), o.len(), "layer_norm_rows: operand lengths differ");
    }
    assert_eq!(o.len() % d, 0, "layer_norm_rows: not whole rows");
    let (gamma, beta) = (&gamma[..d], &beta[..d]);
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier was selected by runtime feature detection; the
        // slice contracts are checked above.
        SimdTier::Avx512F if d <= LANES_MAX_D => unsafe {
            avx512::layer_norm_rows(x, o, gamma, beta, d, eps)
        },
        _ => scalar::layer_norm_rows(x, o, gamma, beta, d, eps),
    }
}

/// Layer-norm backward over rows of width `d`, in place: `o` holds the
/// incoming gradient on entry and `dx` on return; `dgamma` / `dbeta`
/// (at least `d` each) accumulate row after row. `x` is the forward's
/// input, `o`'s length. `d == 0` is a no-op.
pub fn layer_norm_bwd_rows(
    x: &[f32],
    gamma: &[f32],
    eps: f32,
    d: usize,
    o: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    layer_norm_bwd_rows_with_tier(active_tier(), x, gamma, eps, d, o, dgamma, dbeta)
}

/// [`layer_norm_bwd_rows`] with the tier pinned — the seam the
/// tier-vs-oracle tests and the `math_kernels` example drive.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn layer_norm_bwd_rows_with_tier(
    tier: SimdTier,
    x: &[f32],
    gamma: &[f32],
    eps: f32,
    d: usize,
    o: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    if d == 0 {
        return;
    }
    assert_eq!(
        x.len(),
        o.len(),
        "layer_norm_bwd_rows: operand lengths differ"
    );
    assert_eq!(o.len() % d, 0, "layer_norm_bwd_rows: not whole rows");
    let (gamma, dgamma, dbeta) = (&gamma[..d], &mut dgamma[..d], &mut dbeta[..d]);
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier was selected by runtime feature detection; the
        // slice contracts are checked above.
        SimdTier::Avx512F if d <= LANES_MAX_D => unsafe {
            avx512::layer_norm_bwd_rows(x, gamma, eps, d, o, dgamma, dbeta)
        },
        _ => scalar::layer_norm_bwd_rows(x, gamma, eps, d, o, dgamma, dbeta),
    }
}

mod scalar {
    //! The oracle: `R` rows' chains interleaved, `R` = 8, then 4, then 1
    //! (`R = 1` is the per-row definition).
    use super::SCALAR_ROWS;

    /// Each of the `R` rows' `(mean, inv)`.
    #[inline(always)]
    fn stats<const R: usize>(rows: &[f32], d: usize, eps: f32) -> ([f32; R], [f32; R]) {
        let r: [&[f32]; R] = std::array::from_fn(|k| &rows[k * d..(k + 1) * d]);
        let mut s = [-0.0f32; R];
        for p in 0..d {
            for (s, row) in s.iter_mut().zip(&r) {
                *s += row[p];
            }
        }
        let mean = s.map(|v| v / d as f32);
        let mut vs = [-0.0f32; R];
        for p in 0..d {
            for ((v, row), &m) in vs.iter_mut().zip(&r).zip(&mean) {
                *v += (row[p] - m) * (row[p] - m);
            }
        }
        (mean, vs.map(|v| 1.0 / (v / d as f32 + eps).sqrt()))
    }

    /// Normalizes the whole blocks of `R` rows in `o` (from the same rows
    /// of `x` when given); returns the rows it did not reach.
    #[inline(always)]
    fn fwd_blocks<'x, 'o, const R: usize>(
        x: Option<&'x [f32]>,
        o: &'o mut [f32],
        gamma: &[f32],
        beta: &[f32],
        d: usize,
        eps: f32,
    ) -> (Option<&'x [f32]>, &'o mut [f32]) {
        let mut xs = x.map(|x| x.chunks_exact(R * d));
        let mut blocks = o.chunks_exact_mut(R * d);
        for block in blocks.by_ref() {
            let src = xs.as_mut().map(|xs| xs.next().expect("x has o's length"));
            let (mean, inv) = stats::<R>(src.unwrap_or(block), d, eps);
            // Element-wise: a row at a time, so the loop runs across `j`.
            for (k, row) in block.chunks_exact_mut(d).enumerate() {
                let (m, i) = (mean[k], inv[k]);
                let cols = gamma.iter().zip(beta);
                match src {
                    Some(src) => {
                        let xr = &src[k * d..(k + 1) * d];
                        for ((v, &xv), (&g, &b)) in row.iter_mut().zip(xr).zip(cols) {
                            *v = (xv - m) * i * g + b;
                        }
                    }
                    None => {
                        for (v, (&g, &b)) in row.iter_mut().zip(cols) {
                            *v = (*v - m) * i * g + b;
                        }
                    }
                }
            }
        }
        (xs.map(|xs| xs.remainder()), blocks.into_remainder())
    }

    pub(super) fn layer_norm_rows(
        x: Option<&[f32]>,
        o: &mut [f32],
        gamma: &[f32],
        beta: &[f32],
        d: usize,
        eps: f32,
    ) {
        let (x, o) = fwd_blocks::<SCALAR_ROWS>(x, o, gamma, beta, d, eps);
        let (x, o) = fwd_blocks::<4>(x, o, gamma, beta, d, eps);
        fwd_blocks::<1>(x, o, gamma, beta, d, eps);
    }

    #[inline(always)]
    fn bwd_blocks<'x, 'o, const R: usize>(
        x: &'x [f32],
        o: &'o mut [f32],
        gamma: &[f32],
        eps: f32,
        d: usize,
        dgamma: &mut [f32],
        dbeta: &mut [f32],
    ) -> (&'x [f32], &'o mut [f32]) {
        let mut xs = x.chunks_exact(R * d);
        let mut os = o.chunks_exact_mut(R * d);
        for (xb, ob) in (&mut xs).zip(&mut os) {
            let (mean, inv) = stats::<R>(xb, d, eps);
            let xr: [&[f32]; R] = std::array::from_fn(|k| &xb[k * d..(k + 1) * d]);
            let xhat = |k: usize, j: usize| (xr[k][j] - mean[k]) * inv[k];
            let mut mean_gg = [0.0f32; R];
            let mut mean_ggx = [0.0f32; R];
            for j in 0..d {
                for k in 0..R {
                    let gg = ob[k * d + j] * gamma[j];
                    mean_gg[k] += gg;
                    mean_ggx[k] += gg * xhat(k, j);
                }
            }
            let mean_gg = mean_gg.map(|v| v / d as f32);
            let mean_ggx = mean_ggx.map(|v| v / d as f32);
            // The column accumulators and `dx` are element-wise: a row at a
            // time (rows in order), so those loops run across `j`.
            for (k, orow) in ob.chunks_exact_mut(d).enumerate() {
                let (xrow, m, iv) = (xr[k], mean[k], inv[k]);
                let cols = dgamma.iter_mut().zip(dbeta.iter_mut());
                for ((&g, &x), (dg, db)) in orow.iter().zip(xrow).zip(cols) {
                    *dg += g * ((x - m) * iv);
                    *db += g;
                }
                let (mg, mgx) = (mean_gg[k], mean_ggx[k]);
                for ((o, &x), &ga) in orow.iter_mut().zip(xrow).zip(gamma) {
                    let xhat = (x - m) * iv;
                    *o = iv * (*o * ga - mg - xhat * mgx);
                }
            }
        }
        (xs.remainder(), os.into_remainder())
    }

    pub(super) fn layer_norm_bwd_rows(
        x: &[f32],
        gamma: &[f32],
        eps: f32,
        d: usize,
        o: &mut [f32],
        dgamma: &mut [f32],
        dbeta: &mut [f32],
    ) {
        let (x, o) = bwd_blocks::<SCALAR_ROWS>(x, o, gamma, eps, d, dgamma, dbeta);
        let (x, o) = bwd_blocks::<4>(x, o, gamma, eps, d, dgamma, dbeta);
        bwd_blocks::<1>(x, o, gamma, eps, d, dgamma, dbeta);
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! Sixteen rows to a `zmm`, one row per lane (see the module docs).
    use super::LANES_MAX_D;
    use std::arch::x86_64::*;
    use std::mem::MaybeUninit;

    const LANES: usize = 16;

    /// A block's column tile: column `p` of up to sixteen rows in lane
    /// order, read by every pass over the columns.
    type Tile = [MaybeUninit<__m512>; LANES_MAX_D];

    /// Lane `r` of `v`.
    #[inline(always)]
    fn lanes(v: __m512) -> [f32; LANES] {
        // SAFETY: `__m512` and `[f32; 16]` have the same size, and every
        // bit pattern is a valid `f32`.
        unsafe { std::mem::transmute(v) }
    }

    /// The 16×16 transpose of `r`: lane `k` of column `c` is `r[k][c]`.
    /// Four rounds of sixteen shuffles, no arithmetic.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn transpose(r: [__m512; LANES]) -> [__m512; LANES] {
        // t[2i] / t[2i + 1]: rows 2i and 2i + 1 interleaved, columns
        // 4L + {0, 1} / 4L + {2, 3} of each 128-bit lane L.
        let mut t = [_mm512_setzero_ps(); LANES];
        for i in 0..8 {
            t[2 * i] = _mm512_unpacklo_ps(r[2 * i], r[2 * i + 1]);
            t[2 * i + 1] = _mm512_unpackhi_ps(r[2 * i], r[2 * i + 1]);
        }
        // u[4q + c]: lane L holds column 4L + c of rows 4q..4q + 4.
        let mut u = [_mm512_setzero_ps(); LANES];
        for q in 0..4 {
            let a = _mm512_castps_pd(t[4 * q]);
            let b = _mm512_castps_pd(t[4 * q + 1]);
            let c = _mm512_castps_pd(t[4 * q + 2]);
            let e = _mm512_castps_pd(t[4 * q + 3]);
            u[4 * q] = _mm512_castpd_ps(_mm512_unpacklo_pd(a, c));
            u[4 * q + 1] = _mm512_castpd_ps(_mm512_unpackhi_pd(a, c));
            u[4 * q + 2] = _mm512_castpd_ps(_mm512_unpacklo_pd(b, e));
            u[4 * q + 3] = _mm512_castpd_ps(_mm512_unpackhi_pd(b, e));
        }
        // v[c] / v[4 + c]: columns c, c + 8 / c + 4, c + 12 of rows 0..8
        // (v[8 + c] / v[12 + c]: of rows 8..16), four rows a lane.
        let mut v = [_mm512_setzero_ps(); LANES];
        for c in 0..4 {
            v[c] = _mm512_shuffle_f32x4::<0x88>(u[c], u[4 + c]);
            v[4 + c] = _mm512_shuffle_f32x4::<0xdd>(u[c], u[4 + c]);
            v[8 + c] = _mm512_shuffle_f32x4::<0x88>(u[8 + c], u[12 + c]);
            v[12 + c] = _mm512_shuffle_f32x4::<0xdd>(u[8 + c], u[12 + c]);
        }
        let mut out = [_mm512_setzero_ps(); LANES];
        for c in 0..4 {
            out[c] = _mm512_shuffle_f32x4::<0x88>(v[c], v[8 + c]);
            out[8 + c] = _mm512_shuffle_f32x4::<0xdd>(v[c], v[8 + c]);
            out[4 + c] = _mm512_shuffle_f32x4::<0x88>(v[4 + c], v[12 + c]);
            out[12 + c] = _mm512_shuffle_f32x4::<0xdd>(v[4 + c], v[12 + c]);
        }
        out
    }

    /// Writes columns `0..d` of the `n` rows at `src` (row stride `d`) to
    /// `tile[..d]`, row `r` in lane `r`; lanes from `n` up hold `0.0`.
    /// Rows are read row-major, sixteen columns at a time, and turned
    /// into columns in registers.
    ///
    /// # Safety
    ///
    /// AVX-512F; `src` points at `n * d` readable values, `1 ≤ n ≤ 16`,
    /// `1 ≤ d ≤ LANES_MAX_D`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load_columns(src: *const f32, n: usize, d: usize, tile: &mut Tile) {
        for j in (0..d).step_by(LANES) {
            let mask = cols(j, d);
            let mut rows = [_mm512_setzero_ps(); LANES];
            for (r, row) in rows[..n].iter_mut().enumerate() {
                // SAFETY: columns `j..min(j + 16, d)` of row `r < n`.
                *row = unsafe { _mm512_maskz_loadu_ps(mask, src.add(r * d + j)) };
            }
            let end = (j + LANES).min(d);
            for (slot, c) in tile[j..end].iter_mut().zip(transpose(rows)) {
                slot.write(c);
            }
        }
    }

    /// The `(mean, inv)` of the rows whose columns `tile[..d]` holds, lane
    /// by lane.
    ///
    /// # Safety
    ///
    /// AVX-512F; `tile[..d]` was written by [`load_columns`].
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn stats(tile: &Tile, d: usize, eps: f32) -> (__m512, __m512) {
        // SAFETY: per this function's contract.
        let col = |p: usize| unsafe { tile[p].assume_init() };
        let mut s = _mm512_set1_ps(-0.0);
        for p in 0..d {
            s = _mm512_add_ps(s, col(p));
        }
        let dv = _mm512_set1_ps(d as f32);
        let mean = _mm512_div_ps(s, dv);
        let mut vs = _mm512_set1_ps(-0.0);
        for p in 0..d {
            let t = _mm512_sub_ps(col(p), mean);
            vs = _mm512_add_ps(vs, _mm512_mul_ps(t, t));
        }
        let var = _mm512_add_ps(_mm512_div_ps(vs, dv), _mm512_set1_ps(eps));
        let inv = _mm512_div_ps(_mm512_set1_ps(1.0), _mm512_sqrt_ps(var));
        (mean, inv)
    }

    /// The mask of the first `n ≤ 16` lanes.
    #[inline(always)]
    fn rows_mask(n: usize) -> __mmask16 {
        ((1u32 << n) - 1) as __mmask16
    }

    /// The lane mask of columns `j..min(j + 16, d)`.
    #[inline(always)]
    fn cols(j: usize, d: usize) -> __mmask16 {
        rows_mask((d - j).min(LANES))
    }

    /// # Safety
    ///
    /// AVX-512F; `d ≤ LANES_MAX_D`; `o.len()` is a multiple of `d`, `x`
    /// (when given) has `o`'s length, and `gamma` / `beta` hold `d`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn layer_norm_rows(
        x: Option<&[f32]>,
        o: &mut [f32],
        gamma: &[f32],
        beta: &[f32],
        d: usize,
        eps: f32,
    ) {
        let rows = o.len() / d;
        let dst = o.as_mut_ptr();
        let src = x.map_or(dst as *const f32, <[f32]>::as_ptr);
        let mut tile: Tile = [MaybeUninit::uninit(); LANES_MAX_D];
        for r0 in (0..rows).step_by(LANES) {
            let n = LANES.min(rows - r0);
            // SAFETY: rows `r0..r0 + n` are in bounds of both operands;
            // `load_columns` writes the tile `stats` reads.
            let (mean, inv) = unsafe {
                load_columns(src.add(r0 * d), n, d, &mut tile);
                stats(&tile, d, eps)
            };
            let (mean, inv) = (lanes(mean), lanes(inv));
            for r in 0..n {
                let (m, i) = (_mm512_set1_ps(mean[r]), _mm512_set1_ps(inv[r]));
                let at = (r0 + r) * d;
                for j in (0..d).step_by(LANES) {
                    let mask = cols(j, d);
                    // SAFETY: the masked loads and the store touch
                    // columns `j..min(j + 16, d)` of an in-bounds row.
                    unsafe {
                        let v = _mm512_maskz_loadu_ps(mask, src.add(at + j));
                        let g = _mm512_maskz_loadu_ps(mask, gamma.as_ptr().add(j));
                        let b = _mm512_maskz_loadu_ps(mask, beta.as_ptr().add(j));
                        let y = _mm512_mul_ps(_mm512_mul_ps(_mm512_sub_ps(v, m), i), g);
                        _mm512_mask_storeu_ps(dst.add(at + j), mask, _mm512_add_ps(y, b));
                    }
                }
            }
        }
    }

    /// # Safety
    ///
    /// AVX-512F; `d ≤ LANES_MAX_D`; `x` and `o` have one length, a
    /// multiple of `d`; `gamma`, `dgamma` and `dbeta` hold `d`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn layer_norm_bwd_rows(
        x: &[f32],
        gamma: &[f32],
        eps: f32,
        d: usize,
        o: &mut [f32],
        dgamma: &mut [f32],
        dbeta: &mut [f32],
    ) {
        let rows = o.len() / d;
        let (xp, op) = (x.as_ptr(), o.as_mut_ptr());
        let (gp, dgp, dbp) = (gamma.as_ptr(), dgamma.as_mut_ptr(), dbeta.as_mut_ptr());
        let dv = _mm512_set1_ps(d as f32);
        let mut xt: Tile = [MaybeUninit::uninit(); LANES_MAX_D];
        let mut gt: Tile = [MaybeUninit::uninit(); LANES_MAX_D];
        for r0 in (0..rows).step_by(LANES) {
            let n = LANES.min(rows - r0);
            // SAFETY: rows `r0..r0 + n` of `x` and `o` are in bounds;
            // `load_columns` writes the tiles read here.
            let (mean, inv) = unsafe {
                load_columns(xp.add(r0 * d), n, d, &mut xt);
                load_columns(op.add(r0 * d), n, d, &mut gt);
                stats(&xt, d, eps)
            };
            let (mut mean_gg, mut mean_ggx) = (_mm512_setzero_ps(), _mm512_setzero_ps());
            for p in 0..d {
                // SAFETY: written by `load_columns` above.
                let (xc, g) = unsafe { (xt[p].assume_init(), gt[p].assume_init()) };
                let gg = _mm512_mul_ps(g, _mm512_set1_ps(gamma[p]));
                mean_gg = _mm512_add_ps(mean_gg, gg);
                let xhat = _mm512_mul_ps(_mm512_sub_ps(xc, mean), inv);
                mean_ggx = _mm512_add_ps(mean_ggx, _mm512_mul_ps(gg, xhat));
            }
            let (mean_gg, mean_ggx) = (_mm512_div_ps(mean_gg, dv), _mm512_div_ps(mean_ggx, dv));
            let [mean, inv, mean_gg, mean_ggx] = [mean, inv, mean_gg, mean_ggx].map(lanes);
            for r in 0..n {
                let (m, iv) = (_mm512_set1_ps(mean[r]), _mm512_set1_ps(inv[r]));
                let (mg, mgx) = (_mm512_set1_ps(mean_gg[r]), _mm512_set1_ps(mean_ggx[r]));
                let at = (r0 + r) * d;
                for j in (0..d).step_by(LANES) {
                    let mask = cols(j, d);
                    // SAFETY: the masked loads and stores touch columns
                    // `j..min(j + 16, d)` of an in-bounds row and of the
                    // `d`-wide `gamma` / `dgamma` / `dbeta`.
                    unsafe {
                        let xv = _mm512_maskz_loadu_ps(mask, xp.add(at + j));
                        let g = _mm512_maskz_loadu_ps(mask, op.add(at + j));
                        let ga = _mm512_maskz_loadu_ps(mask, gp.add(j));
                        let xhat = _mm512_mul_ps(_mm512_sub_ps(xv, m), iv);
                        let dg = _mm512_maskz_loadu_ps(mask, dgp.add(j));
                        let dg = _mm512_add_ps(dg, _mm512_mul_ps(g, xhat));
                        _mm512_mask_storeu_ps(dgp.add(j), mask, dg);
                        let db = _mm512_add_ps(_mm512_maskz_loadu_ps(mask, dbp.add(j)), g);
                        _mm512_mask_storeu_ps(dbp.add(j), mask, db);
                        let t = _mm512_sub_ps(_mm512_mul_ps(g, ga), mg);
                        let t = _mm512_sub_ps(t, _mm512_mul_ps(xhat, mgx));
                        _mm512_mask_storeu_ps(op.add(at + j), mask, _mm512_mul_ps(iv, t));
                    }
                }
            }
        }
    }
}
