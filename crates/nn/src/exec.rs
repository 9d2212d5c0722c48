//! The forward-op surface layers and models are written against.
//!
//! [`Exec`] has two implementors:
//!
//! * [`Graph`] — the autodiff tape, the one eager executor. It records
//!   every op so [`Graph::backward`] can run, and its forward values are
//!   the reference every compiled path is held to bit for bit.
//! * [`Recorder`](crate::plan::Recorder) — runs the same forward eagerly
//!   while capturing the op program that [`crate::plan`] lowers into plans
//!   and folds.
//!
//! The matrix products route through `tensor`'s blocked/packed GEMM, on
//! the calling thread: path selection and accumulation order depend only
//! on shapes, never on which executor ran the op.

use crate::tape::{Graph, ParamId, ParamStore, Var};
use tensor::{Result, Tensor};

/// The forward-op surface shared by the tape and the plan recorder.
///
/// Layer `forward` methods are generic over `Exec`, so one model definition
/// trains and runs eagerly on [`Graph`] and is recorded into compiled plans
/// by [`Recorder`](crate::plan::Recorder).
pub trait Exec {
    /// Inserts a constant input.
    fn constant(&mut self, t: Tensor) -> Var;
    /// Inserts a parameter leaf.
    fn param(&mut self, store: &ParamStore, id: ParamId) -> Var;
    /// Value of a node.
    fn value(&self, v: Var) -> &Tensor;
    /// Element-wise addition.
    fn add(&mut self, a: Var, b: Var) -> Result<Var>;
    /// Element-wise subtraction.
    fn sub(&mut self, a: Var, b: Var) -> Result<Var>;
    /// Element-wise multiplication.
    fn mul(&mut self, a: Var, b: Var) -> Result<Var>;
    /// Broadcast add of a trailing row vector (e.g. a bias).
    fn add_row(&mut self, x: Var, row: Var) -> Result<Var>;
    /// Broadcast subtract of a trailing row vector.
    fn sub_row(&mut self, x: Var, row: Var) -> Result<Var>;
    /// Multiplies by a scalar constant.
    fn scale(&mut self, x: Var, c: f32) -> Var;
    /// Adds a scalar constant.
    fn add_scalar(&mut self, x: Var, c: f32) -> Var;
    /// 2-D matrix multiplication.
    fn matmul(&mut self, a: Var, b: Var) -> Result<Var>;
    /// Batched matrix multiplication with transpose flags.
    fn bmm(&mut self, a: Var, b: Var, ta: bool, tb: bool) -> Result<Var>;
    /// Splits `[B, L, h*dh]` into `[B*h, L, dh]` for multi-head attention.
    fn split_heads(&mut self, x: Var, h: usize) -> Result<Var>;
    /// Merges `[B*h, L, dh]` back into `[B, L, h*dh]`.
    fn merge_heads(&mut self, x: Var, h: usize) -> Result<Var>;
    /// Reshapes (copying) to a new shape with the same numel.
    fn reshape(&mut self, x: Var, shape: &[usize]) -> Result<Var>;
    /// Softmax over the trailing axis.
    fn softmax_last(&mut self, x: Var) -> Result<Var>;
    /// Rectified linear unit.
    fn relu(&mut self, x: Var) -> Result<Var>;
    /// Hyperbolic tangent.
    fn tanh(&mut self, x: Var) -> Result<Var>;
    /// Logistic sigmoid.
    fn sigmoid(&mut self, x: Var) -> Result<Var>;
    /// Element-wise exponential.
    fn exp(&mut self, x: Var) -> Result<Var>;
    /// Element-wise absolute value.
    fn abs(&mut self, x: Var) -> Result<Var>;
    /// Element-wise square root.
    fn sqrt(&mut self, x: Var) -> Result<Var>;
    /// Element-wise square.
    fn square(&mut self, x: Var) -> Result<Var>;
    /// Concatenation along the trailing axis.
    fn concat_last(&mut self, parts: &[Var]) -> Result<Var>;
    /// Slices `[start, end)` of the trailing axis.
    fn slice_last(&mut self, x: Var, start: usize, end: usize) -> Result<Var>;
    /// Fused layer normalization over the trailing axis.
    fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Result<Var>;
}

impl Exec for Graph {
    fn constant(&mut self, t: Tensor) -> Var {
        Graph::constant(self, t)
    }
    fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        Graph::param(self, store, id)
    }
    fn value(&self, v: Var) -> &Tensor {
        Graph::value(self, v)
    }
    fn add(&mut self, a: Var, b: Var) -> Result<Var> {
        Graph::add(self, a, b)
    }
    fn sub(&mut self, a: Var, b: Var) -> Result<Var> {
        Graph::sub(self, a, b)
    }
    fn mul(&mut self, a: Var, b: Var) -> Result<Var> {
        Graph::mul(self, a, b)
    }
    fn add_row(&mut self, x: Var, row: Var) -> Result<Var> {
        Graph::add_row(self, x, row)
    }
    fn sub_row(&mut self, x: Var, row: Var) -> Result<Var> {
        Graph::sub_row(self, x, row)
    }
    fn scale(&mut self, x: Var, c: f32) -> Var {
        Graph::scale(self, x, c)
    }
    fn add_scalar(&mut self, x: Var, c: f32) -> Var {
        Graph::add_scalar(self, x, c)
    }
    fn matmul(&mut self, a: Var, b: Var) -> Result<Var> {
        Graph::matmul(self, a, b)
    }
    fn bmm(&mut self, a: Var, b: Var, ta: bool, tb: bool) -> Result<Var> {
        Graph::bmm(self, a, b, ta, tb)
    }
    fn split_heads(&mut self, x: Var, h: usize) -> Result<Var> {
        Graph::split_heads(self, x, h)
    }
    fn merge_heads(&mut self, x: Var, h: usize) -> Result<Var> {
        Graph::merge_heads(self, x, h)
    }
    fn reshape(&mut self, x: Var, shape: &[usize]) -> Result<Var> {
        Graph::reshape(self, x, shape)
    }
    fn softmax_last(&mut self, x: Var) -> Result<Var> {
        Graph::softmax_last(self, x)
    }
    fn relu(&mut self, x: Var) -> Result<Var> {
        Graph::relu(self, x)
    }
    fn tanh(&mut self, x: Var) -> Result<Var> {
        Graph::tanh(self, x)
    }
    fn sigmoid(&mut self, x: Var) -> Result<Var> {
        Graph::sigmoid(self, x)
    }
    fn exp(&mut self, x: Var) -> Result<Var> {
        Graph::exp(self, x)
    }
    fn abs(&mut self, x: Var) -> Result<Var> {
        Graph::abs(self, x)
    }
    fn sqrt(&mut self, x: Var) -> Result<Var> {
        Graph::sqrt(self, x)
    }
    fn square(&mut self, x: Var) -> Result<Var> {
        Graph::square(self, x)
    }
    fn concat_last(&mut self, parts: &[Var]) -> Result<Var> {
        Graph::concat_last(self, parts)
    }
    fn slice_last(&mut self, x: Var, start: usize, end: usize) -> Result<Var> {
        Graph::slice_last(self, x, start, end)
    }
    fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Result<Var> {
        Graph::layer_norm(self, x, gamma, beta, eps)
    }
}
