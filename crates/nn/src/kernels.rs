//! Forward-pass math kernels shared by the autodiff tape ([`crate::tape`])
//! and the plan recorder ([`crate::plan::Recorder`]): both call the *same*
//! kernels, so a recorded program starts from the taped forward's values.

use tensor::{Result, Tensor, TensorError};

/// `[B, L, h*dh] -> [B*h, L, dh]` for multi-head attention.
pub(crate) fn split_heads(x: &Tensor, h: usize) -> Result<Tensor> {
    if x.shape().len() != 3 {
        return Err(TensorError::BadRank {
            op: "split_heads",
            expected: 3,
            actual: x.shape().len(),
        });
    }
    let (b, l, d) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    if d % h != 0 {
        return Err(TensorError::BadShape {
            op: "split_heads",
            shape: x.shape().to_vec(),
            len: h,
        });
    }
    let dh = d / h;
    let mut out = vec![0.0; b * l * d];
    for bi in 0..b {
        for li in 0..l {
            for hi in 0..h {
                let src = (bi * l + li) * d + hi * dh;
                let dst = ((bi * h + hi) * l + li) * dh;
                out[dst..dst + dh].copy_from_slice(&x.data()[src..src + dh]);
            }
        }
    }
    Tensor::from_vec(out, &[b * h, l, dh])
}

/// `[B*h, L, dh] -> [B, L, h*dh]`, the inverse of [`split_heads`].
pub(crate) fn merge_heads(x: &Tensor, h: usize) -> Result<Tensor> {
    if x.shape().len() != 3 {
        return Err(TensorError::BadRank {
            op: "merge_heads",
            expected: 3,
            actual: x.shape().len(),
        });
    }
    let (bh, l, dh) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    if bh % h != 0 {
        return Err(TensorError::BadShape {
            op: "merge_heads",
            shape: x.shape().to_vec(),
            len: h,
        });
    }
    let b = bh / h;
    let d = dh * h;
    let mut out = vec![0.0; b * l * d];
    for bi in 0..b {
        for li in 0..l {
            for hi in 0..h {
                let dst = (bi * l + li) * d + hi * dh;
                let src = ((bi * h + hi) * l + li) * dh;
                out[dst..dst + dh].copy_from_slice(&x.data()[src..src + dh]);
            }
        }
    }
    Tensor::from_vec(out, &[b, l, d])
}

/// Slices `[start, end)` of the trailing axis.
pub(crate) fn slice_last(x: &Tensor, start: usize, end: usize) -> Result<Tensor> {
    let d = *x.shape().last().ok_or(TensorError::BadRank {
        op: "slice_last",
        expected: 1,
        actual: 0,
    })?;
    if end > d || start > end {
        return Err(TensorError::BadShape {
            op: "slice_last",
            shape: vec![start, end],
            len: d,
        });
    }
    let w = end - start;
    let rows = x.numel() / d;
    let mut out = Vec::with_capacity(rows * w);
    for r in 0..rows {
        out.extend_from_slice(&x.data()[r * d + start..r * d + end]);
    }
    let mut shape = x.shape().to_vec();
    *shape.last_mut().expect("non-empty") = w;
    Tensor::from_vec(out, &shape)
}

/// Fused layer normalization over the trailing axis.
pub(crate) fn layer_norm_fwd(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
) -> Result<Tensor> {
    let d = *x.shape().last().ok_or(TensorError::BadRank {
        op: "layer_norm",
        expected: 1,
        actual: 0,
    })?;
    if gamma.numel() != d || beta.numel() != d {
        return Err(TensorError::ShapeMismatch {
            op: "layer_norm",
            lhs: x.shape().to_vec(),
            rhs: gamma.shape().to_vec(),
        });
    }
    let mut out = vec![0.0; x.numel()];
    tensor::layer_norm_rows(Some(x.data()), &mut out, gamma.data(), beta.data(), d, eps);
    Tensor::from_vec(out, x.shape())
}
