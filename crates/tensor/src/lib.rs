//! Minimal dense `f32` tensor used throughout the CDMPP reproduction.
//!
//! The paper's predictor is implemented in PyTorch; this crate is the
//! corresponding from-scratch substrate: a row-major, heap-backed tensor with
//! exactly the operations the autodiff layer in the `nn` crate needs
//! (element-wise arithmetic, broadcasting against a trailing row vector,
//! 2-D and batched matrix multiplication, reductions, and shape views).
//!
//! Design notes:
//! * Everything is `f32`: the paper trains in `float32` (Appendix B).
//! * Shapes are `Vec<usize>`; a scalar is represented as shape `[1]`.
//! * All fallible operations return [`TensorError`] instead of panicking so
//!   library callers can propagate failures.

pub mod aligned;
mod attention;
mod gemm;
pub mod math;
mod norm;
mod ops;
mod quant;
mod shape;

pub use attention::{
    attention_bwd_slices, attention_fusable, attention_slices, attention_train_slices,
    softmax_bwd_row, softmax_rows, ATTENTION_MAX_DH, ATTENTION_MAX_L,
};
#[doc(hidden)]
pub use attention::{
    attention_bwd_slices_with_tier, attention_slices_with_tier, attention_train_slices_with_tier,
};
pub use gemm::{
    active_tier, gemm_prefers_packed, gemm_prepacked_is_exact, kernel_tier_name, Activation,
    PackedB, QuantizedPackedB, SimdTier,
};
#[doc(hidden)]
pub use gemm::{supported_tiers, TINY_MULADDS};
pub use norm::{layer_norm_bwd_rows, layer_norm_rows};
#[doc(hidden)]
pub use norm::{layer_norm_bwd_rows_with_tier, layer_norm_rows_with_tier};
#[doc(hidden)]
pub use ops::gemm_slices_with_tier;
pub use ops::{
    bmm, bmm_acc_into, bmm_acc_slices, bmm_ep_slices, bmm_into, bmm_slices, gemm_ep_slices,
    gemm_prepacked, gemm_prepacked_quant, gemm_t_slices, matmul, matmul_acc_into, matmul_into,
    matmul_t_acc_into, matmul_t_into,
};
pub use quant::{QuantMode, QuantizedMatrix, QUANT_GROUP};
pub use shape::Shape;

use std::fmt;

/// Sets `v`'s length to `n`, reusing its capacity.
///
/// Unlike `clear()` + `resize(n, 0.0)` — which zero-fills all `n` elements
/// every call — this writes nothing when the length already matches
/// (the steady state for pooled buffers), truncates when shrinking, and
/// zero-fills only the extension when growing. Use it **only** when every
/// element will be fully overwritten afterwards — the `*_into` kernels all
/// guarantee that.
pub(crate) fn ensure_len(v: &mut Vec<f32>, n: usize) {
    if v.len() >= n {
        v.truncate(n);
    } else {
        v.resize(n, 0.0);
    }
}

/// Error type for all fallible tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two shapes that were required to match did not.
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Left-hand shape.
        lhs: Vec<usize>,
        /// Right-hand shape.
        rhs: Vec<usize>,
    },
    /// The number of elements implied by a shape does not match the data.
    BadShape {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// The offending shape.
        shape: Vec<usize>,
        /// Number of elements available.
        len: usize,
    },
    /// An operation required a tensor of a particular rank.
    BadRank {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Expected rank.
        expected: usize,
        /// Actual rank.
        actual: usize,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "{op}: shape mismatch {lhs:?} vs {rhs:?}")
            }
            TensorError::BadShape { op, shape, len } => {
                write!(f, "{op}: shape {shape:?} incompatible with {len} elements")
            }
            TensorError::BadRank {
                op,
                expected,
                actual,
            } => {
                write!(f, "{op}: expected rank {expected}, got rank {actual}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// Convenience alias for results of tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;

/// A dense, row-major `f32` tensor.
///
/// # Examples
///
/// ```
/// use tensor::Tensor;
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
/// let b = Tensor::full(&[2, 2], 1.0);
/// let c = a.add(&b).unwrap();
/// assert_eq!(c.data(), &[2.0, 3.0, 4.0, 5.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        let numel: usize = shape.iter().product();
        if numel != data.len() {
            return Err(TensorError::BadShape {
                op: "from_vec",
                shape: shape.to_vec(),
                len: data.len(),
            });
        }
        Ok(Tensor {
            data,
            shape: shape.to_vec(),
        })
    }

    /// Creates a scalar tensor of shape `[1]`.
    pub fn scalar(v: f32) -> Self {
        Tensor {
            data: vec![v],
            shape: vec![1],
        }
    }

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            data: vec![0.0; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor filled with a constant.
    pub fn full(shape: &[usize], v: f32) -> Self {
        Tensor {
            data: vec![v; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor by calling `f(i)` for each flat index `i`.
    pub fn from_fn(shape: &[usize], f: impl FnMut(usize) -> f32) -> Self {
        let numel: usize = shape.iter().product();
        Tensor {
            data: (0..numel).map(f).collect(),
            shape: shape.to_vec(),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns the single element of a one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor does not contain exactly one element; this is
    /// reserved for pulling scalar loss values out of a graph.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() on non-scalar tensor");
        self.data[0]
    }

    /// Returns a reshaped copy sharing no storage (shapes must agree on numel).
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor> {
        let numel: usize = shape.iter().product();
        if numel != self.data.len() {
            return Err(TensorError::BadShape {
                op: "reshape",
                shape: shape.to_vec(),
                len: self.data.len(),
            });
        }
        Ok(Tensor {
            data: self.data.clone(),
            shape: shape.to_vec(),
        })
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Element-wise binary op; shapes must match exactly.
    pub fn zip(
        &self,
        rhs: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor> {
        if self.shape != rhs.shape {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape.clone(),
                rhs: rhs.shape.clone(),
            });
        }
        Ok(Tensor {
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        })
    }

    /// Element-wise addition.
    pub fn add(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip(rhs, "add", |a, b| a + b)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip(rhs, "sub", |a, b| a - b)
    }

    /// Element-wise multiplication.
    pub fn mul(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip(rhs, "mul", |a, b| a * b)
    }

    /// Element-wise division.
    pub fn div(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip(rhs, "div", |a, b| a / b)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, c: f32) -> Tensor {
        self.map(|x| x * c)
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, c: f32) -> Tensor {
        self.map(|x| x + c)
    }

    /// In-place element-wise add-assign; shapes must match.
    pub fn add_assign(&mut self, rhs: &Tensor) -> Result<()> {
        if self.shape != rhs.shape {
            return Err(TensorError::ShapeMismatch {
                op: "add_assign",
                lhs: self.shape.clone(),
                rhs: rhs.shape.clone(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// In-place scaled add: `self += c * rhs`.
    pub fn axpy(&mut self, c: f32, rhs: &Tensor) -> Result<()> {
        if self.shape != rhs.shape {
            return Err(TensorError::ShapeMismatch {
                op: "axpy",
                lhs: self.shape.clone(),
                rhs: rhs.shape.clone(),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += c * b;
        }
        Ok(())
    }

    /// Broadcast add of a trailing row vector: `self[.., j] + row[j]`.
    ///
    /// `row` must have shape `[d]` or `[1, d]` where `d` is the size of the
    /// last axis of `self`.
    pub fn add_row(&self, row: &Tensor) -> Result<Tensor> {
        self.row_op(row, "add_row", |a, b| a + b)
    }

    /// Broadcast subtract of a trailing row vector.
    pub fn sub_row(&self, row: &Tensor) -> Result<Tensor> {
        self.row_op(row, "sub_row", |a, b| a - b)
    }

    /// Broadcast multiply by a trailing row vector.
    pub fn mul_row(&self, row: &Tensor) -> Result<Tensor> {
        self.row_op(row, "mul_row", |a, b| a * b)
    }

    fn row_op(
        &self,
        row: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor> {
        let d = *self.shape.last().ok_or(TensorError::BadRank {
            op,
            expected: 1,
            actual: 0,
        })?;
        if row.numel() != d {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape.clone(),
                rhs: row.shape.clone(),
            });
        }
        Ok(Tensor {
            data: self
                .data
                .iter()
                .enumerate()
                .map(|(i, &v)| f(v, row.data[i % d]))
                .collect(),
            shape: self.shape.clone(),
        })
    }

    /// Sum of all elements, as a scalar tensor value.
    pub fn sum(&self) -> f32 {
        // Pairwise-ish accumulation in f64 for accuracy over long vectors.
        self.data.iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Mean over all leading axes, leaving the trailing axis: result `[d]`.
    pub fn mean_axis0(&self) -> Result<Tensor> {
        let d = *self.shape.last().ok_or(TensorError::BadRank {
            op: "mean_axis0",
            expected: 1,
            actual: 0,
        })?;
        let rows = self.data.len() / d;
        let mut out = vec![0.0f64; d];
        for r in 0..rows {
            for (j, o) in out.iter_mut().enumerate() {
                *o += self.data[r * d + j] as f64;
            }
        }
        let inv = 1.0 / rows.max(1) as f64;
        Ok(Tensor {
            data: out.into_iter().map(|x| (x * inv) as f32).collect(),
            shape: vec![d],
        })
    }

    /// Sum over all leading axes, leaving the trailing axis: result `[d]`.
    pub fn sum_axis0(&self) -> Result<Tensor> {
        let d = *self.shape.last().ok_or(TensorError::BadRank {
            op: "sum_axis0",
            expected: 1,
            actual: 0,
        })?;
        let rows = self.data.len() / d;
        let mut out = vec![0.0f64; d];
        for r in 0..rows {
            for (j, o) in out.iter_mut().enumerate() {
                *o += self.data[r * d + j] as f64;
            }
        }
        Ok(Tensor {
            data: out.into_iter().map(|x| x as f32).collect(),
            shape: vec![d],
        })
    }

    /// Transpose of a rank-2 tensor.
    pub fn transpose2(&self) -> Result<Tensor> {
        if self.shape.len() != 2 {
            return Err(TensorError::BadRank {
                op: "transpose2",
                expected: 2,
                actual: self.shape.len(),
            });
        }
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Ok(Tensor {
            data: out,
            shape: vec![n, m],
        })
    }

    /// Softmax over the last axis.
    pub fn softmax_last(&self) -> Result<Tensor> {
        let d = *self.shape.last().ok_or(TensorError::BadRank {
            op: "softmax_last",
            expected: 1,
            actual: 0,
        })?;
        let mut out = self.data.clone();
        softmax_rows(&mut out, d);
        Ok(Tensor {
            data: out,
            shape: self.shape.clone(),
        })
    }

    /// Frobenius (L2) norm of all elements.
    pub fn norm2(&self) -> f32 {
        self.data
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Concatenates tensors along the last axis. All leading dims must match.
    pub fn concat_last(parts: &[&Tensor]) -> Result<Tensor> {
        if parts.is_empty() {
            return Err(TensorError::BadRank {
                op: "concat_last",
                expected: 1,
                actual: 0,
            });
        }
        let lead: &[usize] = &parts[0].shape[..parts[0].shape.len() - 1];
        let rows: usize = lead.iter().product();
        let mut widths = Vec::with_capacity(parts.len());
        for p in parts {
            if &p.shape[..p.shape.len() - 1] != lead {
                return Err(TensorError::ShapeMismatch {
                    op: "concat_last",
                    lhs: parts[0].shape.clone(),
                    rhs: p.shape.clone(),
                });
            }
            widths.push(*p.shape.last().expect("non-empty shape"));
        }
        let total: usize = widths.iter().sum();
        let mut out = Vec::with_capacity(rows * total);
        for r in 0..rows {
            for (p, &w) in parts.iter().zip(widths.iter()) {
                out.extend_from_slice(&p.data[r * w..(r + 1) * w]);
            }
        }
        let mut shape = lead.to_vec();
        shape.push(total);
        Ok(Tensor { data: out, shape })
    }

    /// Extracts rows `[start, end)` of a rank-2 tensor.
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<Tensor> {
        if self.shape.len() != 2 {
            return Err(TensorError::BadRank {
                op: "slice_rows",
                expected: 2,
                actual: self.shape.len(),
            });
        }
        let d = self.shape[1];
        if end > self.shape[0] || start > end {
            return Err(TensorError::BadShape {
                op: "slice_rows",
                shape: vec![start, end],
                len: self.shape[0],
            });
        }
        Ok(Tensor {
            data: self.data[start * d..end * d].to_vec(),
            shape: vec![end - start, d],
        })
    }

    /// Gathers rows of a rank-2 tensor by index.
    pub fn gather_rows(&self, idx: &[usize]) -> Result<Tensor> {
        if self.shape.len() != 2 {
            return Err(TensorError::BadRank {
                op: "gather_rows",
                expected: 2,
                actual: self.shape.len(),
            });
        }
        let d = self.shape[1];
        let mut out = Vec::with_capacity(idx.len() * d);
        for &i in idx {
            if i >= self.shape[0] {
                return Err(TensorError::BadShape {
                    op: "gather_rows",
                    shape: vec![i],
                    len: self.shape[0],
                });
            }
            out.extend_from_slice(&self.data[i * d..(i + 1) * d]);
        }
        Ok(Tensor {
            data: out,
            shape: vec![idx.len(), d],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_numel() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
    }

    #[test]
    fn scalar_and_item() {
        let s = Tensor::scalar(3.5);
        assert_eq!(s.shape(), &[1]);
        assert_eq!(s.item(), 3.5);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(a.sub(&b).unwrap().data(), &[-3.0, -3.0, -3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[4.0, 10.0, 18.0]);
        assert_eq!(b.div(&a).unwrap().data(), &[4.0, 2.5, 2.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn elementwise_shape_mismatch_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3, 2]);
        assert!(matches!(a.add(&b), Err(TensorError::ShapeMismatch { .. })));
    }

    #[test]
    fn row_broadcast() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let r = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        assert_eq!(a.add_row(&r).unwrap().data(), &[11.0, 22.0, 13.0, 24.0]);
        assert_eq!(a.sub_row(&r).unwrap().data(), &[-9.0, -18.0, -7.0, -16.0]);
        assert_eq!(a.mul_row(&r).unwrap().data(), &[10.0, 40.0, 30.0, 80.0]);
    }

    #[test]
    fn row_broadcast_dim_check() {
        let a = Tensor::zeros(&[2, 3]);
        let r = Tensor::zeros(&[2]);
        assert!(a.add_row(&r).is_err());
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.mean_axis0().unwrap().data(), &[2.0, 3.0]);
        assert_eq!(a.sum_axis0().unwrap().data(), &[4.0, 6.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let t = a.transpose2().unwrap();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.transpose2().unwrap(), a);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 1.0, 1.0, 1.0], &[2, 3]).unwrap();
        let s = a.softmax_last().unwrap();
        for row in s.data().chunks(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Uniform logits give uniform probabilities.
        assert!((s.data()[3] - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let a = Tensor::from_vec(vec![1000.0, 1001.0], &[1, 2]).unwrap();
        let s = a.softmax_last().unwrap();
        assert!(s.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn concat_and_slice() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0], &[2, 1]).unwrap();
        let c = Tensor::concat_last(&[&a, &b]).unwrap();
        assert_eq!(c.shape(), &[2, 3]);
        assert_eq!(c.data(), &[1.0, 2.0, 5.0, 3.0, 4.0, 6.0]);
        let s = c.slice_rows(1, 2).unwrap();
        assert_eq!(s.data(), &[3.0, 4.0, 6.0]);
    }

    #[test]
    fn gather_rows_picks_and_validates() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[3, 2]).unwrap();
        let g = a.gather_rows(&[2, 0]).unwrap();
        assert_eq!(g.data(), &[4.0, 5.0, 0.0, 1.0]);
        assert!(a.gather_rows(&[3]).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::zeros(&[3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        a.axpy(2.0, &b).unwrap();
        assert_eq!(a.data(), &[2.0, 4.0, 6.0]);
    }
}
