//! Matrix-multiplication entry points.
//!
//! All products route through the blocked/packed/register-tiled kernel in
//! [`crate::gemm`] (with a naive fast path for tiny shapes), on the
//! calling thread. Every operation has three forms:
//!
//! * an allocating wrapper ([`matmul`], [`bmm`]),
//! * a `*_into` variant writing into a caller-provided `Vec` (reusing its
//!   capacity, overwriting — never pre-zeroing — the output), and
//! * a `*_acc_into` variant computing `C += A·B` directly into an existing
//!   buffer, which is what lets the autodiff backward pass accumulate
//!   matmul gradients without allocating temporaries.
//!
//! Transposed operands are strided views into the packing routines; nothing
//! is ever materialized transposed.

use crate::gemm::{
    gemm, gemm_dispatch, gemm_prepacked_impl, gemm_prepacked_quant_impl, Activation, Epilogue,
    MatRef, PackedB, QuantizedPackedB, SimdTier,
};
use crate::{ensure_len, Result, Tensor, TensorError};

/// 2-D matrix product `[m, k] x [k, n] -> [m, n]`.
///
/// # Examples
///
/// ```
/// use tensor::{matmul, Tensor};
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
/// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
/// assert_eq!(matmul(&a, &i).unwrap(), a);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let mut out = Vec::new();
    let shape = matmul_into(a, b, &mut out)?;
    Tensor::from_vec(out, &shape)
}

/// Validates 2-D operands (with transpose flags) and returns `(m, k, n)`.
fn check_mm(a: &Tensor, ta: bool, b: &Tensor, tb: bool) -> Result<[usize; 3]> {
    if a.shape().len() != 2 {
        return Err(TensorError::BadRank {
            op: "matmul",
            expected: 2,
            actual: a.shape().len(),
        });
    }
    if b.shape().len() != 2 {
        return Err(TensorError::BadRank {
            op: "matmul",
            expected: 2,
            actual: b.shape().len(),
        });
    }
    let (m, k) = if ta {
        (a.shape()[1], a.shape()[0])
    } else {
        (a.shape()[0], a.shape()[1])
    };
    let (k2, n) = if tb {
        (b.shape()[1], b.shape()[0])
    } else {
        (b.shape()[0], b.shape()[1])
    };
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape().to_vec(),
            rhs: b.shape().to_vec(),
        });
    }
    Ok([m, k, n])
}

/// 2-D matrix product writing into a caller-provided buffer.
///
/// The buffer is resized (reusing capacity) and **fully overwritten** — it
/// is never pre-zeroed, so reuse across calls costs nothing. The
/// accumulation order is identical to [`matmul`], so results are
/// bit-identical — this is what lets a caller reuse one buffer across
/// calls while staying exactly equal to the allocating form.
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Vec<f32>) -> Result<[usize; 2]> {
    let [m, k, n] = check_mm(a, false, b, false)?;
    ensure_len(out, m * n);
    gemm(
        m,
        n,
        k,
        MatRef::dense(a.data(), k),
        MatRef::dense(b.data(), n),
        out,
        false,
        Epilogue::NONE,
    );
    Ok([m, n])
}

/// `out += a · b` into an existing `[m, n]` buffer (no allocation, no
/// temporaries). `out.len()` must equal `m * n`.
pub fn matmul_acc_into(a: &Tensor, b: &Tensor, out: &mut [f32]) -> Result<[usize; 2]> {
    matmul_t_acc_into(a, false, b, false, out)
}

/// `out += op(a) · op(b)` with per-operand transpose flags, into an
/// existing `[m, n]` buffer.
///
/// This is the backward-pass workhorse: `dA += dC · B^T` and
/// `dB += A^T · dC` each become one call with no transpose materialization
/// and no gradient temporary.
pub fn matmul_t_acc_into(
    a: &Tensor,
    ta: bool,
    b: &Tensor,
    tb: bool,
    out: &mut [f32],
) -> Result<[usize; 2]> {
    let [m, k, n] = check_mm(a, ta, b, tb)?;
    gemm_t_slices(m, k, n, a.data(), ta, b.data(), tb, true, out)?;
    Ok([m, n])
}

/// `op(a) · op(b)` with transpose flags, overwriting a caller-provided
/// buffer (the non-accumulating sibling of [`matmul_t_acc_into`]).
pub fn matmul_t_into(
    a: &Tensor,
    ta: bool,
    b: &Tensor,
    tb: bool,
    out: &mut Vec<f32>,
) -> Result<[usize; 2]> {
    let [m, k, n] = check_mm(a, ta, b, tb)?;
    ensure_len(out, m * n);
    gemm_t_slices(m, k, n, a.data(), ta, b.data(), tb, false, out)?;
    Ok([m, n])
}

/// The slice-level core of [`matmul_t_into`] (`acc == false`, `out` fully
/// overwritten) and [`matmul_t_acc_into`] (`acc == true`, `out += ...`):
/// `a` is stored `[m, k]` row-major (`[k, m]` when `ta`), `b` is `[k, n]`
/// (`[n, k]` when `tb`), `out` holds exactly `m * n` elements. The compiled
/// training step calls this on arena slices; because the tensor-level
/// wrappers route through it too, a backward GEMM is the same kernel call
/// — same path selection, same accumulate semantics — on either side.
#[allow(clippy::too_many_arguments)]
pub fn gemm_t_slices(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    ta: bool,
    b: &[f32],
    tb: bool,
    acc: bool,
    out: &mut [f32],
) -> Result<()> {
    if a.len() != m * k || b.len() != k * n {
        return Err(TensorError::ShapeMismatch {
            op: "gemm_t",
            lhs: vec![m, k, a.len()],
            rhs: vec![k, n, b.len()],
        });
    }
    if out.len() != m * n {
        return Err(TensorError::BadShape {
            op: if acc { "matmul_acc" } else { "gemm_t" },
            shape: vec![m, n],
            len: out.len(),
        });
    }
    gemm(
        m,
        n,
        k,
        MatRef::dense_t(a, if ta { m } else { k }, ta),
        MatRef::dense_t(b, if tb { k } else { n }, tb),
        out,
        acc,
        Epilogue::NONE,
    );
    Ok(())
}

/// Batched matrix product over the leading axis, with optional transposes.
///
/// `a` has shape `[b, m, k]` (or `[b, k, m]` if `ta`), `b` has shape
/// `[b, k, n]` (or `[b, n, k]` if `tb`); the result is `[b, m, n]`.
pub fn bmm(a: &Tensor, b: &Tensor, ta: bool, tb: bool) -> Result<Tensor> {
    let mut out = Vec::new();
    let shape = bmm_into(a, b, ta, tb, &mut out)?;
    Tensor::from_vec(out, &shape)
}

/// Validates 3-D operands and returns `[batch, m, k, n]`.
fn check_bmm(a: &Tensor, ta: bool, b: &Tensor, tb: bool) -> Result<[usize; 4]> {
    if a.shape().len() != 3 {
        return Err(TensorError::BadRank {
            op: "bmm",
            expected: 3,
            actual: a.shape().len(),
        });
    }
    if b.shape().len() != 3 {
        return Err(TensorError::BadRank {
            op: "bmm",
            expected: 3,
            actual: b.shape().len(),
        });
    }
    let batch = a.shape()[0];
    if b.shape()[0] != batch {
        return Err(TensorError::ShapeMismatch {
            op: "bmm",
            lhs: a.shape().to_vec(),
            rhs: b.shape().to_vec(),
        });
    }
    let (m, k) = if ta {
        (a.shape()[2], a.shape()[1])
    } else {
        (a.shape()[1], a.shape()[2])
    };
    let (k2, n) = if tb {
        (b.shape()[2], b.shape()[1])
    } else {
        (b.shape()[1], b.shape()[2])
    };
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "bmm",
            lhs: a.shape().to_vec(),
            rhs: b.shape().to_vec(),
        });
    }
    Ok([batch, m, k, n])
}

/// Batched matrix product writing into a caller-provided buffer; see
/// [`matmul_into`] for the buffer contract and bit-identity guarantee.
pub fn bmm_into(
    a: &Tensor,
    b: &Tensor,
    ta: bool,
    tb: bool,
    out: &mut Vec<f32>,
) -> Result<[usize; 3]> {
    let [batch, m, k, n] = check_bmm(a, ta, b, tb)?;
    ensure_len(out, batch * m * n);
    bmm_core(batch, m, k, n, a.data(), ta, b.data(), tb, out, false, None);
    Ok([batch, m, n])
}

/// `out += bmm(a, b)` into an existing `[batch, m, n]` buffer.
pub fn bmm_acc_into(
    a: &Tensor,
    b: &Tensor,
    ta: bool,
    tb: bool,
    out: &mut [f32],
) -> Result<[usize; 3]> {
    let [batch, m, k, n] = check_bmm(a, ta, b, tb)?;
    if out.len() != batch * m * n {
        return Err(TensorError::BadShape {
            op: "bmm_acc",
            shape: vec![batch, m, n],
            len: out.len(),
        });
    }
    bmm_core(batch, m, k, n, a.data(), ta, b.data(), tb, out, true, None);
    Ok([batch, m, n])
}

/// The slice-level core behind [`bmm`], [`bmm_slices`] and their
/// `*_into` / `*_acc_*` forms.
///
/// `a` holds `batch` row-major `[m, k]` matrices (`[k, m]` when `ta`), `b`
/// holds `batch` `[k, n]` matrices (`[n, k]` when `tb`), `out` holds
/// `batch * m * n` elements. A `scale` (which requires `acc == false`) is
/// fused into each per-batch GEMM's write-back as an epilogue — applied
/// exactly once per element, when its accumulation completes.
#[allow(clippy::too_many_arguments)]
fn bmm_core(
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    ta: bool,
    b: &[f32],
    tb: bool,
    out: &mut [f32],
    acc: bool,
    scale: Option<f32>,
) {
    debug_assert!(!acc || scale.is_none(), "scale cannot combine with +=");
    if batch == 0 || m == 0 || n == 0 {
        return; // nothing to write (`out` is empty by the length checks)
    }
    let a_stride = m * k;
    let b_stride = k * n;
    // Stored trailing dimension of each operand (what the strided views
    // index by): the logical column count, or the row count if transposed.
    let a_cols = if ta { m } else { k };
    let b_cols = if tb { k } else { n };
    let ep = Epilogue {
        scale,
        ..Epilogue::NONE
    };
    for (t, osl) in out.chunks_exact_mut(m * n).enumerate() {
        let asl = &a[t * a_stride..(t + 1) * a_stride];
        let bsl = &b[t * b_stride..(t + 1) * b_stride];
        gemm(
            m,
            n,
            k,
            MatRef::dense_t(asl, a_cols, ta),
            MatRef::dense_t(bsl, b_cols, tb),
            osl,
            acc,
            ep,
        );
    }
}

/// Epilogue-capable 2-D GEMM over raw slices: `out = act(a · b + bias)`,
/// with the bias/activation fused into the kernel's write-back loop (no
/// extra pass over the output).
///
/// `a` is row-major `[m, k]`, `b` is `[k, n]`, `bias` (if any) has length
/// `n` and is added to every output row, `out` holds exactly `m * n`
/// elements and is fully overwritten. This is the entry point compiled
/// inference plans use: per-element the result is bit-identical to
/// `matmul_into` followed by separate bias-add and activation passes.
#[allow(clippy::too_many_arguments)]
pub fn gemm_ep_slices(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    bias: Option<&[f32]>,
    act: Activation,
    out: &mut [f32],
) -> Result<()> {
    if a.len() != m * k || b.len() != k * n {
        return Err(TensorError::ShapeMismatch {
            op: "gemm_ep",
            lhs: vec![m, k, a.len()],
            rhs: vec![k, n, b.len()],
        });
    }
    if out.len() != m * n {
        return Err(TensorError::BadShape {
            op: "gemm_ep",
            shape: vec![m, n],
            len: out.len(),
        });
    }
    if let Some(bv) = bias {
        if bv.len() != n {
            return Err(TensorError::BadShape {
                op: "gemm_ep",
                shape: vec![n],
                len: bv.len(),
            });
        }
    }
    gemm(
        m,
        n,
        k,
        MatRef::dense(a, k),
        MatRef::dense(b, n),
        out,
        false,
        Epilogue {
            scale: None,
            bias,
            act,
        },
    );
    Ok(())
}

/// Epilogue-capable 2-D GEMM against a [`PackedB`] prepared once with
/// [`PackedB::pack`]: `out = act(a · b + bias)` with **zero** per-call
/// packing (no A pack, no B pack, no packing-buffer TLS access).
///
/// This is the fixed-shape entry point batch-specialized inference plans
/// select at specialize time for weight GEMMs. Accumulation is the
/// blocked kernel's order — ascending-`k` single-accumulator sums,
/// reassociated at `KC` boundaries — so the result is **bit-identical**
/// to [`gemm_ep_slices`] whenever the generic dispatch would pick the
/// blocked kernel ([`gemm_prefers_packed`](crate::gemm_prefers_packed)
/// holds), and for *any* shape with `k <= KC` (a single k-block has no
/// reassociation at all, matching the naive loop too). Only tiny shapes
/// with `k > KC` — which the generic entry sums in one unblocked pass —
/// can differ in final-bit rounding; guard call sites with
/// `gemm_prefers_packed` (as the plan specializer does) to stay exactly
/// on the generic kernels' bits.
pub fn gemm_prepacked(
    m: usize,
    a: &[f32],
    b: &PackedB,
    bias: Option<&[f32]>,
    act: Activation,
    out: &mut [f32],
) -> Result<()> {
    check_prepacked("gemm_prepacked", m, a, (b.k(), b.n()), bias, out)?;
    gemm_prepacked_impl(
        m,
        a,
        b,
        out,
        Epilogue {
            scale: None,
            bias,
            act,
        },
    );
    Ok(())
}

/// The shape contract [`gemm_prepacked`] and [`gemm_prepacked_quant`]
/// share: `a` is `[m, k]`, `out` is `[m, n]` and `bias` (if any) is `[n]`
/// for a packed `B` of shape `(k, n)`. Errors name `op`.
fn check_prepacked(
    op: &'static str,
    m: usize,
    a: &[f32],
    (k, n): (usize, usize),
    bias: Option<&[f32]>,
    out: &[f32],
) -> Result<()> {
    if a.len() != m * k {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: vec![m, k, a.len()],
            rhs: vec![k, n],
        });
    }
    if out.len() != m * n {
        return Err(TensorError::BadShape {
            op,
            shape: vec![m, n],
            len: out.len(),
        });
    }
    match bias {
        Some(bv) if bv.len() != n => Err(TensorError::BadShape {
            op,
            shape: vec![n],
            len: bv.len(),
        }),
        _ => Ok(()),
    }
}

/// `out = act(a · dequant(b) + bias)` against quantized prepacked panels —
/// the [`crate::QuantizedPackedB`] twin of [`gemm_prepacked`]. Each
/// k-block of `b` is expanded to f32 in a per-thread scratch and runs
/// [`gemm_prepacked`]'s kernel, so all accumulation is in f32 and the
/// result is bit-identical to [`gemm_prepacked`] over a [`PackedB`] of
/// the dequantized matrix, on every tier.
pub fn gemm_prepacked_quant(
    m: usize,
    a: &[f32],
    b: &QuantizedPackedB,
    bias: Option<&[f32]>,
    act: Activation,
    out: &mut [f32],
) -> Result<()> {
    check_prepacked("gemm_prepacked_quant", m, a, (b.k(), b.n()), bias, out)?;
    gemm_prepacked_quant_impl(
        m,
        a,
        b,
        out,
        Epilogue {
            scale: None,
            bias,
            act,
        },
    );
    Ok(())
}

/// Batched matrix product over raw slices (the slice-level twin of
/// [`bmm_into`], sharing its kernel and bit-identity guarantees). `a`
/// holds `batch` `[m, k]` matrices (`[k, m]` when `ta`), `b` holds `batch`
/// `[k, n]` matrices (`[n, k]` when `tb`), and `out` holds exactly
/// `batch * m * n` elements (fully overwritten).
#[allow(clippy::too_many_arguments)]
pub fn bmm_slices(
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    ta: bool,
    b: &[f32],
    tb: bool,
    out: &mut [f32],
) -> Result<()> {
    bmm_ep_slices(batch, m, k, n, a, ta, b, tb, None, out)
}

/// [`bmm_slices`] with an optional scalar `scale` fused into each
/// per-batch GEMM's write-back: `out = (a · b) * scale`, the scale applied
/// exactly once per element at the point its accumulation completes —
/// the same exactly-once epilogue contract [`gemm_ep_slices`] gives
/// bias/activation, so the fusion is **bit-identical** to `bmm_slices`
/// followed by a separate elementwise `v * scale` pass. This is the entry
/// point compiled plans use for attention's `scores / sqrt(d)`.
#[allow(clippy::too_many_arguments)]
pub fn bmm_ep_slices(
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    ta: bool,
    b: &[f32],
    tb: bool,
    scale: Option<f32>,
    out: &mut [f32],
) -> Result<()> {
    if a.len() != batch * m * k || b.len() != batch * k * n {
        return Err(TensorError::ShapeMismatch {
            op: "bmm_slices",
            lhs: vec![batch, m, k, a.len()],
            rhs: vec![batch, k, n, b.len()],
        });
    }
    if out.len() != batch * m * n {
        return Err(TensorError::BadShape {
            op: "bmm_slices",
            shape: vec![batch, m, n],
            len: out.len(),
        });
    }
    bmm_core(batch, m, k, n, a, ta, b, tb, out, false, scale);
    Ok(())
}

/// `out += bmm(a, b)` over raw slices — the slice-level twin of
/// [`bmm_acc_into`] (same per-batch kernel calls), for the compiled
/// training step's accumulating attention gradients.
#[allow(clippy::too_many_arguments)]
pub fn bmm_acc_slices(
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    ta: bool,
    b: &[f32],
    tb: bool,
    out: &mut [f32],
) -> Result<()> {
    if a.len() != batch * m * k || b.len() != batch * k * n {
        return Err(TensorError::ShapeMismatch {
            op: "bmm_acc",
            lhs: vec![batch, m, k, a.len()],
            rhs: vec![batch, k, n, b.len()],
        });
    }
    if out.len() != batch * m * n {
        return Err(TensorError::BadShape {
            op: "bmm_acc",
            shape: vec![batch, m, n],
            len: out.len(),
        });
    }
    bmm_core(batch, m, k, n, a, ta, b, tb, out, true, None);
    Ok(())
}

/// Full GEMM dispatch (naive/blocked thresholds included, serial) with the
/// kernel tier pinned — the seam the SIMD-vs-scalar bit-identity tests
/// drive. `a` is stored `[m, k]` row-major (`[k, m]` when `ta`), `b` is
/// `[k, n]` (`[n, k]` when `tb`); no shape validation beyond debug asserts.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn gemm_slices_with_tier(
    tier: SimdTier,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    ta: bool,
    b: &[f32],
    tb: bool,
    acc: bool,
    scale: Option<f32>,
    bias: Option<&[f32]>,
    act: Activation,
    out: &mut [f32],
) {
    let a_cols = if ta { m } else { k };
    let b_cols = if tb { k } else { n };
    gemm_dispatch(
        m,
        n,
        k,
        MatRef::dense_t(a, a_cols, ta),
        MatRef::dense_t(b, b_cols, tb),
        out,
        acc,
        Epilogue { scale, bias, act },
        tier,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: Vec<f32>, shape: &[usize]) -> Tensor {
        Tensor::from_vec(data, shape).unwrap()
    }

    #[test]
    fn matmul_small_known() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_dim_checks() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(matmul(&a, &b).is_err());
        let v = Tensor::zeros(&[3]);
        assert!(matmul(&a, &v).is_err());
    }

    #[test]
    fn matmul_into_overwrites_dirty_buffers() {
        let a = t(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        let b = t(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let mut buf = vec![999.0f32; 4]; // stale contents must not leak
        let shape = matmul_into(&a, &b, &mut buf).unwrap();
        assert_eq!(shape, [2, 2]);
        assert_eq!(buf, vec![5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn matmul_acc_into_accumulates() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let i = t(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        let mut acc = vec![10.0f32; 4];
        matmul_acc_into(&a, &i, &mut acc).unwrap();
        assert_eq!(acc, vec![11.0, 12.0, 13.0, 14.0]);
        // Wrong buffer length is a descriptive error.
        let mut bad = vec![0.0f32; 3];
        assert!(matmul_acc_into(&a, &i, &mut bad).is_err());
    }

    #[test]
    fn matmul_t_acc_matches_explicit_transpose() {
        let a = t((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let g = t((0..4).map(|x| x as f32 * 0.5).collect(), &[2, 2]);
        // dB = A^T · G, accumulated onto zeros.
        let mut got = vec![0.0f32; 6];
        let shape = matmul_t_acc_into(&a, true, &g, false, &mut got).unwrap();
        assert_eq!(shape, [3, 2]);
        let want = matmul(&a.transpose2().unwrap(), &g).unwrap();
        assert_eq!(&got, want.data());
        // dA = G · B^T.
        let b = t((0..6).map(|x| x as f32 + 1.0).collect(), &[3, 2]);
        let mut ga = vec![0.0f32; 6];
        let shape = matmul_t_acc_into(&g, false, &b, true, &mut ga).unwrap();
        assert_eq!(shape, [2, 3]);
        let want = matmul(&g, &b.transpose2().unwrap()).unwrap();
        assert_eq!(&ga, want.data());
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        let a = t((0..12).map(|x| x as f32).collect(), &[2, 2, 3]);
        let b = t((0..12).map(|x| (x as f32) * 0.5).collect(), &[2, 3, 2]);
        let c = bmm(&a, &b, false, false).unwrap();
        for batch in 0..2 {
            let a2 = t(a.data()[batch * 6..(batch + 1) * 6].to_vec(), &[2, 3]);
            let b2 = t(b.data()[batch * 6..(batch + 1) * 6].to_vec(), &[3, 2]);
            let c2 = matmul(&a2, &b2).unwrap();
            assert_eq!(&c.data()[batch * 4..(batch + 1) * 4], c2.data());
        }
    }

    #[test]
    fn bmm_transpose_flags_agree_with_explicit_transpose() {
        let a = t((0..6).map(|x| x as f32).collect(), &[1, 2, 3]);
        let b = t((0..6).map(|x| x as f32 + 1.0).collect(), &[1, 2, 3]);
        // a [1,2,3] x b^T [1,3,2] -> [1,2,2]
        let c = bmm(&a, &b, false, true).unwrap();
        let b2 = t(b.data().to_vec(), &[2, 3]).transpose2().unwrap();
        let c2 = matmul(&t(a.data().to_vec(), &[2, 3]), &b2).unwrap();
        assert_eq!(c.data(), c2.data());

        // a^T path: a [1,2,3] read as [3,2] transposed.
        let d = bmm(&a, &c, true, false).unwrap();
        assert_eq!(d.shape(), &[1, 3, 2]);
        let a2 = t(a.data().to_vec(), &[2, 3]).transpose2().unwrap();
        let d2 = matmul(&a2, &t(c.data().to_vec(), &[2, 2])).unwrap();
        assert_eq!(d.data(), d2.data());
    }

    #[test]
    fn bmm_acc_into_accumulates_per_batch() {
        let a = t((0..12).map(|x| x as f32 * 0.25).collect(), &[2, 2, 3]);
        let b = t((0..12).map(|x| x as f32 * 0.5 - 1.0).collect(), &[2, 3, 2]);
        let plain = bmm(&a, &b, false, false).unwrap();
        let mut acc: Vec<f32> = (0..8).map(|x| x as f32).collect();
        let before = acc.clone();
        bmm_acc_into(&a, &b, false, false, &mut acc).unwrap();
        for ((got, base), p) in acc.iter().zip(&before).zip(plain.data()) {
            assert_eq!(*got, base + p);
        }
    }

    #[test]
    fn bmm_batch_mismatch_errors() {
        let a = Tensor::zeros(&[2, 2, 3]);
        let b = Tensor::zeros(&[3, 3, 2]);
        assert!(bmm(&a, &b, false, false).is_err());
    }

    #[test]
    fn identity_preserves() {
        let a = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let i = t(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        assert_eq!(matmul(&a, &i).unwrap(), a);
        assert_eq!(matmul(&i, &a).unwrap(), a);
    }

    #[test]
    fn prepacked_entry_points_name_themselves_in_shape_errors() {
        let (m, k, n) = (2, 3, 4);
        let b = vec![0.5f32; k * n];
        let f32_pack = PackedB::pack(&b, k, n);
        let q = crate::QuantizedMatrix::quantize(&b, k, n);
        let q_pack = QuantizedPackedB::pack(&q);
        let a = vec![1.0f32; m * k];
        let call = |quant: bool, a: &[f32], bias: Option<&[f32]>, out: &mut [f32]| {
            let id = Activation::Identity;
            if quant {
                gemm_prepacked_quant(m, a, &q_pack, bias, id, out)
            } else {
                gemm_prepacked(m, a, &f32_pack, bias, id, out)
            }
        };
        for (quant, name) in [(false, "gemm_prepacked"), (true, "gemm_prepacked_quant")] {
            let mut out = vec![0.0f32; m * n];
            let op_of = |r: Result<()>| match r {
                Err(TensorError::ShapeMismatch { op, .. } | TensorError::BadShape { op, .. }) => op,
                other => panic!("{name}: expected a shape error, got {other:?}"),
            };
            assert_eq!(op_of(call(quant, &a[1..], None, &mut out)), name);
            assert_eq!(op_of(call(quant, &a, None, &mut out[1..])), name);
            assert_eq!(op_of(call(quant, &a, Some(&[0.0; 3]), &mut out)), name);
            assert!(call(quant, &a, Some(&[0.0; 4]), &mut out).is_ok());
            assert_eq!(out, vec![1.5f32; m * n], "{name}");
        }
    }
}
