//! `tanh`, `exp` and `sigmoid` on `f32` — the one definition every
//! executor calls: the tape, the plan and fold executors, the GEMM
//! epilogues and the softmax behind attention.
//!
//! # Oracles
//!
//! The scalar functions are ports of the algorithms glibc's `libm` runs on
//! x86_64, so a model's bits do not depend on the host's `libm`, and on a
//! glibc host they are the bits `f32::tanh` / `f32::exp` return there:
//!
//! * [`tanh`] is fdlibm's `tanhf` over fdlibm's `expm1f`, in `f32`, each
//!   multiply and add rounded on its own (no contraction).
//! * [`exp`] is glibc's table-driven `expf` (`sysdeps/ieee754/flt-32`, as
//!   its FMA build compiles it): the argument is reduced in `f64` against a
//!   32-entry table of `2^(i/32)`, the reduction `r = x·32/ln2 − k` is one
//!   fused multiply-add, and so is each step of the cubic polynomial.
//! * [`sigmoid`] is `1 / (1 + exp(-v))` over [`exp`].
//!
//! `tests/math_bit_identity.rs` holds the oracles to the host's `f32::tanh`
//! / `f32::exp` over all 2³² inputs (an ignored test, for x86_64 glibc
//! hosts with FMA).
//!
//! # Slice kernels
//!
//! [`map`] applies one [`Func`] to a slice on the active SIMD tier. The
//! AVX2 tier evaluates every branch of the oracle eight lanes wide and
//! blends; `exp` runs as two `f64 × 4` halves with a gathered table. A
//! vector with a lane the blend does not cover (NaN, ±inf, `|x| ≥ 88` for
//! `exp`) is finished by the oracle lane by lane. The scalar and NEON
//! tiers run the oracle per element. Every tier returns the oracle's bits
//! for every input: the exhaustive sweeps in `tests/math_bit_identity.rs`
//! check all 2³².

use crate::gemm::{active_tier, SimdTier};

/// One of the transcendental element-wise functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Func {
    /// [`tanh`].
    Tanh,
    /// [`exp`].
    Exp,
    /// [`sigmoid`].
    Sigmoid,
}

impl Func {
    /// The scalar oracle of this function.
    #[inline(always)]
    pub fn eval(self, x: f32) -> f32 {
        match self {
            Func::Tanh => tanh(x),
            Func::Exp => exp(x),
            Func::Sigmoid => sigmoid(x),
        }
    }
}

/// Logistic sigmoid, `1 / (1 + exp(-x))`.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

// ---------------------------------------------------------------------------
// tanh: fdlibm `tanhf` over `expm1f`.
// ---------------------------------------------------------------------------

const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
/// `expm1f`'s scaled rational-approximation coefficients.
const Q: [f32; 5] = [
    f32::from_bits(0xbd08_8889),
    f32::from_bits(0x3ad0_0d01),
    f32::from_bits(0xb8a6_70cd),
    f32::from_bits(0x3686_7e54),
    f32::from_bits(0xb457_edbb),
];
const HUGE: f32 = 1.0e30;
const TINY: f32 = 1.0e-30;

/// Hyperbolic tangent: fdlibm's `tanhf`.
pub fn tanh(x: f32) -> f32 {
    let jx = x.to_bits() as i32;
    let ix = jx & 0x7fff_ffff;
    if ix >= 0x7f80_0000 {
        // tanh(±inf) = ±1, tanh(NaN) = NaN.
        return if jx >= 0 {
            1.0 / x + 1.0
        } else {
            1.0 / x - 1.0
        };
    }
    let z = if ix < 0x41b0_0000 {
        // |x| < 22.
        if ix == 0 {
            return x;
        }
        if ix < 0x2400_0000 {
            // |x| < 2^-55.
            return x * (1.0 + x);
        }
        if ix >= 0x3f80_0000 {
            let t = expm1(2.0 * x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        1.0 - TINY
    };
    if jx >= 0 {
        z
    } else {
        -z
    }
}

/// `exp(x) - 1`: fdlibm's `expm1f`.
fn expm1(x: f32) -> f32 {
    let hx = x.to_bits();
    let neg = hx >> 31 != 0;
    let hx = hx & 0x7fff_ffff;
    if hx >= 0x4195_b844 {
        // |x| >= 27·ln2.
        if hx >= 0x42b1_7218 {
            if hx > 0x7f80_0000 {
                return x + x;
            }
            if hx == 0x7f80_0000 {
                return if neg { -1.0 } else { x };
            }
            if x > f32::from_bits(0x42b1_7180) {
                return HUGE * HUGE;
            }
        }
        if neg {
            return TINY - 1.0;
        }
    }
    let (x, c, k) = if hx > 0x3eb1_7218 {
        // |x| > ln2/2: reduce to x - k·ln2.
        let (hi, lo, k) = if hx < 0x3f85_1592 {
            // and |x| < 1.5·ln2.
            if neg {
                (x + LN2_HI, -LN2_LO, -1)
            } else {
                (x - LN2_HI, LN2_LO, 1)
            }
        } else {
            let k = (INV_LN2 * x + if neg { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            (x - t * LN2_HI, t * LN2_LO, k)
        };
        let r = hi - lo;
        (r, (hi - r) - lo, k)
    } else if hx < 0x3300_0000 {
        // |x| < 2^-25.
        let t = HUGE + x;
        return x - (t - (HUGE + x));
    } else {
        (x, 0.0, 0)
    };
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q[0] + hxs * (Q[1] + hxs * (Q[2] + hxs * (Q[3] + hxs * Q[4]))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = x * (e - c) - c;
    let e = e - hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k == 1 {
        return if x < -0.25 {
            -2.0 * (e - (x + 0.5))
        } else {
            1.0 + 2.0 * (x - e)
        };
    }
    if k <= -2 || k > 56 {
        return add_exponent(1.0 - (e - x), k) - 1.0;
    }
    let y = if k < 23 {
        let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k));
        t - (e - x)
    } else {
        let t = f32::from_bits(((0x7f - k) as u32) << 23);
        (x - (e + t)) + 1.0
    };
    add_exponent(y, k)
}

/// `y · 2^k` by adding `k` to the exponent field (no range check).
#[inline(always)]
fn add_exponent(y: f32, k: i32) -> f32 {
    f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32)
}

// ---------------------------------------------------------------------------
// exp: glibc's `expf`.
// ---------------------------------------------------------------------------

/// Table size of the reduction, `N = 2^5`.
const EXP_N: f64 = 32.0;
/// `TAB[i] = bits(2^(i/N)) - (i << 47)`: adding `k << 47` to entry
/// `k % N` gives `bits(2^(k/N))`.
static EXP_TAB: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];
/// `N / ln2`.
const EXP_INV_LN2_N: f64 = f64::from_bits(0x3ff71547652b82fe) * EXP_N;
/// `1.5 · 2^52`: adding it rounds to an integer held in the low mantissa
/// bits.
const EXP_SHIFT: f64 = f64::from_bits(0x4338000000000000);
/// The cubic for `2^(r/N)`, scaled by `N^-3`, `N^-2`, `N^-1`.
const EXP_C: [f64; 3] = [
    f64::from_bits(0x3fac6af84b912394) / (EXP_N * EXP_N * EXP_N),
    f64::from_bits(0x3fcebfce50fac4f3) / (EXP_N * EXP_N),
    f64::from_bits(0x3fe62e42ff0c52d6) / EXP_N,
];
/// `|x|`'s top 12 bits from which [`exp`] takes its special cases
/// (`|x| ≥ 88`, inf and NaN).
const EXP_SPECIAL_TOP: u32 = 0x42b;

/// `e^x`: glibc's `expf`.
pub fn exp(x: f32) -> f32 {
    let abstop = (x.to_bits() >> 20) & 0x7ff;
    if abstop >= EXP_SPECIAL_TOP {
        if x == f32::NEG_INFINITY {
            return 0.0;
        }
        if abstop >= 0x7f8 {
            return x + x;
        }
        if x > f32::from_bits(0x42b1_7217) {
            // x > ln(2^128): overflow.
            return f32::INFINITY;
        }
        if x < f32::from_bits(0xc2cf_f1b4) {
            // x < ln(2^-150): underflow.
            return 0.0;
        }
    }
    let xd = x as f64;
    let z = EXP_INV_LN2_N * xd;
    let kd = z + EXP_SHIFT;
    let ki = kd.to_bits();
    let kd = kd - EXP_SHIFT;
    let r = EXP_INV_LN2_N.mul_add(xd, -kd);
    let s = f64::from_bits(EXP_TAB[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = EXP_C[0].mul_add(r, EXP_C[1]);
    let r2 = r * r;
    let y = EXP_C[2].mul_add(r, 1.0);
    let y = z.mul_add(r2, y);
    (y * s) as f32
}

// ---------------------------------------------------------------------------
// Slice kernels.
// ---------------------------------------------------------------------------

/// `out[i] = f(x[i])`, or `f` applied to `out` in place when `x` is
/// `None`, on the active tier. Out of place, `x` and `out` must have the
/// same length.
pub fn map(f: Func, x: Option<&[f32]>, out: &mut [f32]) {
    map_with_tier(active_tier(), f, x, out)
}

/// [`map`] with the tier pinned — the seam the tier-vs-oracle tests drive.
#[doc(hidden)]
pub fn map_with_tier(tier: SimdTier, f: Func, x: Option<&[f32]>, out: &mut [f32]) {
    if let Some(x) = x {
        assert_eq!(x.len(), out.len(), "math::map: operand lengths differ");
    }
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier was selected by runtime feature detection.
        SimdTier::Avx2Fma | SimdTier::Avx512F => unsafe { avx2::map(f, x, out) },
        _ => match x {
            Some(x) => out.iter_mut().zip(x).for_each(|(o, &v)| *o = f.eval(v)),
            None => out.iter_mut().for_each(|o| *o = f.eval(*o)),
        },
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    //! The eight-lane forms of the oracles. Each function is the oracle's
    //! arithmetic, operation for operation, with every branch evaluated
    //! and the lane's own branch blended in.
    use super::*;
    use std::arch::x86_64::*;

    /// [`super::map`] on AVX2: whole vectors, then the tail through a
    /// masked load and store (masked-off lanes read as `0.0`, which no
    /// function treats as a special case).
    ///
    /// # Safety
    ///
    /// AVX2+FMA; out of place, `x.len() == out.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn map(f: Func, x: Option<&[f32]>, out: &mut [f32]) {
        match f {
            Func::Tanh => run(x, out, |v| tanh8(v)),
            Func::Exp => run(x, out, |v| exp8(v)),
            Func::Sigmoid => run(x, out, |v| sigmoid8(v)),
        }
    }

    #[inline(always)]
    unsafe fn run(x: Option<&[f32]>, out: &mut [f32], f: impl Fn(__m256) -> __m256) {
        let n = out.len();
        let src = x.map_or(out.as_ptr(), <[f32]>::as_ptr);
        let dst = out.as_mut_ptr();
        let whole = n - n % 8;
        // SAFETY: `src` and `dst` hold `n` elements (caller contract);
        // every access is below `whole <= n` or masked to the `n - whole`
        // lanes that are, and each vector is read before the same vector
        // is written.
        unsafe {
            for i in (0..whole).step_by(8) {
                _mm256_storeu_ps(dst.add(i), f(_mm256_loadu_ps(src.add(i))));
            }
            if whole < n {
                let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
                let live = _mm256_cmpgt_epi32(_mm256_set1_epi32((n - whole) as i32), lane);
                let v = f(_mm256_maskload_ps(src.add(whole), live));
                _mm256_maskstore_ps(dst.add(whole), live, v);
            }
        }
    }

    /// Finishes a vector with the scalar oracle, lane by lane.
    #[inline(never)]
    fn by_lane(v: __m256, f: fn(f32) -> f32) -> __m256 {
        // SAFETY: `__m256` and `[f32; 8]` have the same size, and any bit
        // pattern is valid for both.
        let lanes: [f32; 8] = unsafe { std::mem::transmute(v) };
        // SAFETY: as above.
        unsafe { std::mem::transmute(lanes.map(f)) }
    }

    #[inline(always)]
    unsafe fn ps(bits: u32) -> __m256 {
        _mm256_castsi256_ps(_mm256_set1_epi32(bits as i32))
    }

    #[inline(always)]
    unsafe fn blend(mask: __m256i, yes: __m256, no: __m256) -> __m256 {
        _mm256_blendv_ps(no, yes, _mm256_castsi256_ps(mask))
    }

    /// Eight lanes of [`super::tanh`].
    ///
    /// # Safety
    ///
    /// AVX2+FMA.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn tanh8(x: __m256) -> __m256 {
        let bits = _mm256_castps_si256(x);
        let ix = _mm256_and_si256(bits, _mm256_set1_epi32(0x7fff_ffff));
        if _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(
            ix,
            _mm256_set1_epi32(0x7f7f_ffff),
        ))) != 0
        {
            return by_lane(x, tanh);
        }
        let ax = _mm256_castsi256_ps(ix);
        let two = _mm256_set1_ps(2.0);
        // |x| >= 1: t = expm1(2|x|), z = 1 - 2/(t + 2);
        // else:     t = expm1(-2|x|), z = -t/(t + 2).
        let ge1 = _mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x3f7f_ffff));
        let u = blend(
            ge1,
            _mm256_mul_ps(two, ax),
            _mm256_mul_ps(_mm256_set1_ps(-2.0), ax),
        );
        let t = expm1_for_tanh(u);
        let neg_t = _mm256_xor_ps(t, ps(0x8000_0000));
        let q = _mm256_div_ps(blend(ge1, two, neg_t), _mm256_add_ps(t, two));
        let z = blend(ge1, _mm256_sub_ps(_mm256_set1_ps(1.0), q), q);
        // |x| >= 22: 1 - tiny, which rounds to 1.
        let big = _mm256_cmpgt_epi32(ix, _mm256_set1_epi32(0x41af_ffff));
        let z = blend(big, _mm256_set1_ps(1.0 - TINY), z);
        let sign = _mm256_and_ps(x, ps(0x8000_0000));
        let z = _mm256_xor_ps(z, sign);
        // |x| < 2^-55 (zeros included): x·(1 + x).
        let small = _mm256_cmpgt_epi32(_mm256_set1_epi32(0x2400_0000), ix);
        let tiny = _mm256_mul_ps(x, _mm256_add_ps(_mm256_set1_ps(1.0), x));
        blend(small, tiny, z)
    }

    /// [`super::expm1`] over the arguments [`tanh8`] passes it: `u` in
    /// `[2, 44)`, where `k` is 3 ..= 63, or in `(-2, -2^-54]`, where `k` is
    /// 0 ..= -3. The `k == 1` branch and the special cases are never
    /// reached, so they are not evaluated.
    #[inline(always)]
    unsafe fn expm1_for_tanh(u: __m256) -> __m256 {
        let one = _mm256_set1_ps(1.0);
        let half = _mm256_set1_ps(0.5);
        let i32s = |v| _mm256_set1_epi32(v);
        let hx = _mm256_and_si256(_mm256_castps_si256(u), i32s(0x7fff_ffff));
        let neg = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LT_OQ>(u, _mm256_setzero_ps()));
        // k: 0 for |u| <= ln2/2, ±1 below 1.5·ln2, else trunc(u/ln2 ± 0.5).
        let signed_half = _mm256_or_ps(half, _mm256_and_ps(u, ps(0x8000_0000)));
        let k = _mm256_cvttps_epi32(_mm256_add_ps(
            _mm256_mul_ps(_mm256_set1_ps(INV_LN2), u),
            signed_half,
        ));
        let pm1 = _mm256_or_si256(neg, i32s(1));
        let k = _mm256_blendv_epi8(k, pm1, _mm256_cmpgt_epi32(i32s(0x3f85_1592), hx));
        let k = _mm256_andnot_si256(_mm256_cmpgt_epi32(i32s(0x3eb1_7219), hx), k);
        // Reduction. With k = 0 (t = 0) it leaves x = u and c = 0, and
        // with k = ±1 it is the oracle's `u ∓ ln2_hi`, `±ln2_lo`.
        let t = _mm256_cvtepi32_ps(k);
        let hi = _mm256_sub_ps(u, _mm256_mul_ps(t, _mm256_set1_ps(LN2_HI)));
        let lo = _mm256_mul_ps(t, _mm256_set1_ps(LN2_LO));
        let x = _mm256_sub_ps(hi, lo);
        let c = _mm256_sub_ps(_mm256_sub_ps(hi, x), lo);
        let hfx = _mm256_mul_ps(half, x);
        let hxs = _mm256_mul_ps(x, hfx);
        let mut p = _mm256_mul_ps(hxs, _mm256_set1_ps(Q[4]));
        for &q in Q[..4].iter().rev() {
            p = _mm256_mul_ps(hxs, _mm256_add_ps(_mm256_set1_ps(q), p));
        }
        let r1 = _mm256_add_ps(one, p);
        let tt = _mm256_sub_ps(_mm256_set1_ps(3.0), _mm256_mul_ps(r1, hfx));
        let e = _mm256_mul_ps(
            hxs,
            _mm256_div_ps(
                _mm256_sub_ps(r1, tt),
                _mm256_sub_ps(_mm256_set1_ps(6.0), _mm256_mul_ps(x, tt)),
            ),
        );
        // k == 0.
        let y0 = _mm256_sub_ps(x, _mm256_sub_ps(_mm256_mul_ps(x, e), hxs));
        let e = _mm256_sub_ps(_mm256_mul_ps(x, _mm256_sub_ps(e, c)), c);
        let e = _mm256_sub_ps(e, hxs);
        // k == -1.
        let ym1 = _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(x, e)), half);
        let k23 = _mm256_slli_epi32::<23>(k);
        let scaled = |y: __m256| _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y), k23));
        // k <= -2 or k > 56.
        let e_x = _mm256_sub_ps(e, x);
        let yfar = _mm256_sub_ps(scaled(_mm256_sub_ps(one, e_x)), one);
        // 2 <= k < 23.
        let t_lo = _mm256_sub_epi32(i32s(0x3f80_0000), _mm256_srlv_epi32(i32s(0x0100_0000), k));
        let ylo = scaled(_mm256_sub_ps(_mm256_castsi256_ps(t_lo), e_x));
        // 23 <= k <= 56.
        let t_hi = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_sub_epi32(i32s(0x7f), k)));
        let yhi = scaled(_mm256_add_ps(_mm256_sub_ps(x, _mm256_add_ps(e, t_hi)), one));
        let mut y = blend(_mm256_cmpgt_epi32(k, i32s(22)), yhi, ylo);
        let far = _mm256_or_si256(_mm256_cmpgt_epi32(k, i32s(56)), neg);
        y = blend(far, yfar, y);
        y = blend(_mm256_cmpeq_epi32(k, i32s(-1)), ym1, y);
        y = blend(_mm256_cmpeq_epi32(k, _mm256_setzero_si256()), y0, y);
        // |u| < 2^-25: u itself.
        blend(_mm256_cmpgt_epi32(i32s(0x3300_0000), hx), u, y)
    }

    /// Eight lanes of [`super::exp`].
    ///
    /// # Safety
    ///
    /// AVX2+FMA.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn exp8(x: __m256) -> __m256 {
        let top = _mm256_and_si256(
            _mm256_srli_epi32::<20>(_mm256_castps_si256(x)),
            _mm256_set1_epi32(0x7ff),
        );
        let special = _mm256_cmpgt_epi32(top, _mm256_set1_epi32(EXP_SPECIAL_TOP as i32 - 1));
        if _mm256_movemask_ps(_mm256_castsi256_ps(special)) != 0 {
            return by_lane(x, exp);
        }
        let lo = exp4(_mm256_castps256_ps128(x));
        let hi = exp4(_mm256_extractf128_ps::<1>(x));
        _mm256_set_m128(hi, lo)
    }

    /// Four lanes of [`super::exp`]'s main path, in `f64`.
    #[inline(always)]
    unsafe fn exp4(x: __m128) -> __m128 {
        let xd = _mm256_cvtps_pd(x);
        let inv = _mm256_set1_pd(EXP_INV_LN2_N);
        let shift = _mm256_set1_pd(EXP_SHIFT);
        let kd = _mm256_add_pd(_mm256_mul_pd(inv, xd), shift);
        let ki = _mm256_castpd_si256(kd);
        let kd = _mm256_sub_pd(kd, shift);
        let r = _mm256_fmsub_pd(inv, xd, kd);
        let idx = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
        let t = _mm256_i64gather_epi64::<8>(EXP_TAB.as_ptr().cast(), idx);
        let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
        let z = _mm256_fmadd_pd(_mm256_set1_pd(EXP_C[0]), r, _mm256_set1_pd(EXP_C[1]));
        let r2 = _mm256_mul_pd(r, r);
        let y = _mm256_fmadd_pd(_mm256_set1_pd(EXP_C[2]), r, _mm256_set1_pd(1.0));
        let y = _mm256_fmadd_pd(z, r2, y);
        _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
    }

    /// Eight lanes of [`super::sigmoid`].
    ///
    /// # Safety
    ///
    /// AVX2+FMA.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn sigmoid8(x: __m256) -> __m256 {
        let e = exp8(_mm256_xor_ps(x, ps(0x8000_0000)));
        let one = _mm256_set1_ps(1.0);
        _mm256_div_ps(one, _mm256_add_ps(one, e))
    }

    /// An eight-lane form `f` on the low and the high half of a `zmm`:
    /// how the `avx512f` tier runs these functions.
    ///
    /// # Safety
    ///
    /// AVX-512F, AVX2 and FMA.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(crate) unsafe fn on_halves(x: __m512, f: impl Fn(__m256) -> __m256) -> __m512 {
        let x = _mm512_castps_pd(x);
        let lo = f(_mm256_castpd_ps(_mm512_castpd512_pd256(x)));
        let hi = f(_mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(x)));
        let lo = _mm512_castpd256_pd512(_mm256_castps_pd(lo));
        _mm512_castpd_ps(_mm512_insertf64x4::<1>(lo, _mm256_castps_pd(hi)))
    }
}
