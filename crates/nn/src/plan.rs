//! Compiled inference plans: record the forward pass once, replay it
//! forever.
//!
//! The eager tape ([`crate::Graph`]) re-executes the model's generic
//! `forward` code every batch: shapes are re-derived, nodes re-pushed,
//! every intermediate freshly allocated, and every element-wise op is a
//! separate full-tensor pass. For a model whose topology is fixed (the
//! predictor, per leaf count), all of that work can happen **once**, at
//! load time. This module does exactly that, in three stages:
//!
//! 1. **Record** ([`Recorder`], an [`Exec`] implementation): run the
//!    model's generic `forward` against a recording executor to capture a
//!    static op program. Recording runs twice, at two probe batch sizes,
//!    which both verifies the program is batch-uniform and constant-folds
//!    every shape into `c` or `c·B` form — so one plan serves **every**
//!    batch size.
//! 2. **Lower** ([`Plan::compile`]): reshapes become free aliases (the
//!    data is identical, only metadata changes), chains of element-wise
//!    ops fuse into single-pass [`MapOp`] chains, bias-add + activation
//!    following a matmul fuse into the GEMM's write-back epilogue
//!    ([`tensor::gemm_ep_slices`]), and a liveness pass assigns every
//!    intermediate into a slot of one shared arena — dead buffers are
//!    aliased, and element-wise steps whose input dies at the step run
//!    **in place**.
//! 3. **Replay** ([`PlanExec`]): a flat interpreter executes the lowered
//!    steps against the preallocated arena — zero allocation per batch
//!    after warmup (arena growth is counted by [`PlanExec::alloc_count`];
//!    the whole call is held to zero by a counting allocator in
//!    `tests/replay_allocations.rs`), no dynamic dispatch, no shape
//!    re-derivation.
//!
//! ## The bit-identity invariant
//!
//! Every fusion preserves the *per-element* operation order of the
//! original program: a fused map chain applies the same scalar functions
//! in the same order per element, and the GEMM epilogue applies
//! `act(c + bias)` exactly once, when each element's (unchanged-order)
//! accumulation finishes. Plan output is therefore **bit-identical** to
//! the taped [`crate::Graph`] forward — a property the tests here and the
//! predictor-level property tests enforce.

use std::fmt;
use std::sync::Arc;

use crate::exec::Exec;
use crate::kernels;
use crate::memory::{assign_slots, Def, Slots};
use crate::tape::{ParamId, ParamStore, Var};
use tensor::math::{self, Func};
use tensor::{softmax_rows, Activation, Result as TensorResult, Tensor, TensorError};

/// Errors from plan compilation or replay.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The recorded program differs between probe batch sizes (the model's
    /// `forward` branches on batch content or size).
    NonUniform(String),
    /// A shape could not be folded into `c` or `c·B` form.
    Shape(String),
    /// The model's `forward` itself failed while recording.
    Build(String),
    /// Replay was invoked with inputs that do not match the plan.
    Input(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::NonUniform(s) => write!(f, "recorded program is not batch-uniform: {s}"),
            PlanError::Shape(s) => write!(f, "shape not expressible as c or c*B: {s}"),
            PlanError::Build(s) => write!(f, "recording the forward pass failed: {s}"),
            PlanError::Input(s) => write!(f, "plan inputs do not match: {s}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<TensorError> for PlanError {
    fn from(e: TensorError) -> Self {
        PlanError::Build(e.to_string())
    }
}

/// One scalar function of a fused element-wise chain.
///
/// The formulas are exactly the ones the tape ([`crate::Graph`]) uses for
/// the corresponding [`Exec`] ops, so a fused chain applied per element is
/// bit-identical to the original sequence of full-tensor passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MapOp {
    /// `v * c`.
    Scale(f32),
    /// `v + c`.
    AddScalar(f32),
    /// `v.max(0.0)`.
    Relu,
    /// [`tensor::math::tanh`].
    Tanh,
    /// [`tensor::math::sigmoid`].
    Sigmoid,
    /// [`tensor::math::exp`].
    Exp,
    /// `v.abs()`.
    Abs,
    /// `v.sqrt()`.
    Sqrt,
    /// `v * v`.
    Square,
}

impl MapOp {
    #[inline(always)]
    fn apply(self, v: f32) -> f32 {
        match self {
            MapOp::Scale(c) => v * c,
            MapOp::AddScalar(c) => v + c,
            MapOp::Relu => v.max(0.0),
            MapOp::Tanh => math::tanh(v),
            MapOp::Sigmoid => math::sigmoid(v),
            MapOp::Exp => math::exp(v),
            MapOp::Abs => v.abs(),
            MapOp::Sqrt => v.sqrt(),
            MapOp::Square => v * v,
        }
    }

    /// The [`tensor::math`] function this op is, if it is one.
    fn func(self) -> Option<Func> {
        match self {
            MapOp::Tanh => Some(Func::Tanh),
            MapOp::Sigmoid => Some(Func::Sigmoid),
            MapOp::Exp => Some(Func::Exp),
            _ => None,
        }
    }

    /// The GEMM-epilogue form of this op, if it has one.
    fn as_activation(self) -> Option<Activation> {
        match self {
            MapOp::Relu => Some(Activation::Relu),
            MapOp::Tanh => Some(Activation::Tanh),
            MapOp::Sigmoid => Some(Activation::Sigmoid),
            _ => None,
        }
    }
}

#[inline(always)]
fn apply_chain(ops: &[MapOp], mut v: f32) -> f32 {
    for op in ops {
        v = op.apply(v);
    }
    v
}

/// Element-wise binary kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ZipKind {
    Add,
    Sub,
    Mul,
}

impl ZipKind {
    #[inline(always)]
    fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            ZipKind::Add => a + b,
            ZipKind::Sub => a - b,
            ZipKind::Mul => a * b,
        }
    }
}

/// Broadcast-row binary kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowKind {
    Add,
    Sub,
}

impl RowKind {
    #[inline(always)]
    fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            RowKind::Add => a + b,
            RowKind::Sub => a - b,
        }
    }
}

/// A recorded op (the pre-lowering program).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ROp {
    Input(usize),
    Param(ParamId),
    Map {
        x: usize,
        op: MapOp,
    },
    Zip {
        a: usize,
        b: usize,
        kind: ZipKind,
    },
    RowOp {
        x: usize,
        row: usize,
        kind: RowKind,
    },
    Matmul {
        a: usize,
        b: usize,
    },
    Bmm {
        a: usize,
        b: usize,
        ta: bool,
        tb: bool,
    },
    SplitHeads {
        x: usize,
        h: usize,
    },
    MergeHeads {
        x: usize,
        h: usize,
    },
    Reshape {
        x: usize,
    },
    Softmax {
        x: usize,
    },
    Concat {
        parts: Vec<usize>,
    },
    SliceLast {
        x: usize,
        start: usize,
        end: usize,
    },
    LayerNorm {
        x: usize,
        gamma: usize,
        beta: usize,
        eps: f32,
    },
}

impl ROp {
    /// Node indices this op reads.
    pub(crate) fn inputs(&self) -> Vec<usize> {
        match self {
            ROp::Input(_) | ROp::Param(_) => Vec::new(),
            ROp::Map { x, .. }
            | ROp::SplitHeads { x, .. }
            | ROp::MergeHeads { x, .. }
            | ROp::Reshape { x }
            | ROp::Softmax { x }
            | ROp::SliceLast { x, .. } => vec![*x],
            ROp::Zip { a, b, .. } | ROp::Matmul { a, b } | ROp::Bmm { a, b, .. } => {
                vec![*a, *b]
            }
            ROp::RowOp { x, row, .. } => vec![*x, *row],
            ROp::Concat { parts } => parts.clone(),
            ROp::LayerNorm { x, gamma, beta, .. } => vec![*x, *gamma, *beta],
        }
    }
}

/// A recording executor: runs the model's generic `forward` eagerly (so
/// shape queries and error checks behave exactly like [`crate::Graph`])
/// while capturing the op program for [`Plan::compile`].
pub struct Recorder<'p> {
    params: &'p ParamStore,
    ops: Vec<ROp>,
    vals: Vec<Option<Tensor>>,
    n_inputs: usize,
}

impl<'p> Recorder<'p> {
    fn new(params: &'p ParamStore) -> Self {
        Recorder {
            params,
            ops: Vec::new(),
            vals: Vec::new(),
            n_inputs: 0,
        }
    }

    fn push(&mut self, op: ROp, val: Option<Tensor>) -> Var {
        self.ops.push(op);
        self.vals.push(val);
        Var(self.ops.len() - 1)
    }

    fn shape_of(&self, i: usize) -> &[usize] {
        match &self.vals[i] {
            Some(t) => t.shape(),
            None => match self.ops[i] {
                ROp::Param(id) => self.params.value(id).shape(),
                _ => unreachable!("only param nodes lack recorded values"),
            },
        }
    }

    fn map(&mut self, x: Var, op: MapOp) -> Var {
        let t = self.value(x).map(|v| op.apply(v));
        self.push(ROp::Map { x: x.0, op }, Some(t))
    }

    fn zip(&mut self, a: Var, b: Var, kind: ZipKind, name: &'static str) -> TensorResult<Var> {
        let t = self
            .value(a)
            .zip(self.value(b), name, |x, y| kind.apply(x, y))?;
        Ok(self.push(
            ROp::Zip {
                a: a.0,
                b: b.0,
                kind,
            },
            Some(t),
        ))
    }
}

impl Exec for Recorder<'_> {
    fn constant(&mut self, t: Tensor) -> Var {
        let idx = self.n_inputs;
        self.n_inputs += 1;
        self.push(ROp::Input(idx), Some(t))
    }

    fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        debug_assert!(
            std::ptr::eq(store, self.params),
            "Recorder::param called with a store other than the one it was created with"
        );
        self.push(ROp::Param(id), None)
    }

    fn value(&self, v: Var) -> &Tensor {
        match &self.vals[v.0] {
            Some(t) => t,
            None => match self.ops[v.0] {
                ROp::Param(id) => self.params.value(id),
                _ => unreachable!("only param nodes lack recorded values"),
            },
        }
    }

    fn add(&mut self, a: Var, b: Var) -> TensorResult<Var> {
        self.zip(a, b, ZipKind::Add, "add")
    }

    fn sub(&mut self, a: Var, b: Var) -> TensorResult<Var> {
        self.zip(a, b, ZipKind::Sub, "sub")
    }

    fn mul(&mut self, a: Var, b: Var) -> TensorResult<Var> {
        self.zip(a, b, ZipKind::Mul, "mul")
    }

    fn add_row(&mut self, x: Var, row: Var) -> TensorResult<Var> {
        let t = self.value(x).add_row(self.value(row))?;
        Ok(self.push(
            ROp::RowOp {
                x: x.0,
                row: row.0,
                kind: RowKind::Add,
            },
            Some(t),
        ))
    }

    fn sub_row(&mut self, x: Var, row: Var) -> TensorResult<Var> {
        let t = self.value(x).sub_row(self.value(row))?;
        Ok(self.push(
            ROp::RowOp {
                x: x.0,
                row: row.0,
                kind: RowKind::Sub,
            },
            Some(t),
        ))
    }

    fn scale(&mut self, x: Var, c: f32) -> Var {
        self.map(x, MapOp::Scale(c))
    }

    fn add_scalar(&mut self, x: Var, c: f32) -> Var {
        self.map(x, MapOp::AddScalar(c))
    }

    fn matmul(&mut self, a: Var, b: Var) -> TensorResult<Var> {
        let t = tensor::matmul(self.value(a), self.value(b))?;
        Ok(self.push(ROp::Matmul { a: a.0, b: b.0 }, Some(t)))
    }

    fn bmm(&mut self, a: Var, b: Var, ta: bool, tb: bool) -> TensorResult<Var> {
        let t = tensor::bmm(self.value(a), self.value(b), ta, tb)?;
        Ok(self.push(
            ROp::Bmm {
                a: a.0,
                b: b.0,
                ta,
                tb,
            },
            Some(t),
        ))
    }

    fn split_heads(&mut self, x: Var, h: usize) -> TensorResult<Var> {
        let t = kernels::split_heads(self.value(x), h)?;
        Ok(self.push(ROp::SplitHeads { x: x.0, h }, Some(t)))
    }

    fn merge_heads(&mut self, x: Var, h: usize) -> TensorResult<Var> {
        let t = kernels::merge_heads(self.value(x), h)?;
        Ok(self.push(ROp::MergeHeads { x: x.0, h }, Some(t)))
    }

    fn reshape(&mut self, x: Var, shape: &[usize]) -> TensorResult<Var> {
        let t = self.value(x).reshape(shape)?;
        Ok(self.push(ROp::Reshape { x: x.0 }, Some(t)))
    }

    fn softmax_last(&mut self, x: Var) -> TensorResult<Var> {
        let t = self.value(x).softmax_last()?;
        Ok(self.push(ROp::Softmax { x: x.0 }, Some(t)))
    }

    fn relu(&mut self, x: Var) -> TensorResult<Var> {
        Ok(self.map(x, MapOp::Relu))
    }

    fn tanh(&mut self, x: Var) -> TensorResult<Var> {
        Ok(self.map(x, MapOp::Tanh))
    }

    fn sigmoid(&mut self, x: Var) -> TensorResult<Var> {
        Ok(self.map(x, MapOp::Sigmoid))
    }

    fn exp(&mut self, x: Var) -> TensorResult<Var> {
        Ok(self.map(x, MapOp::Exp))
    }

    fn abs(&mut self, x: Var) -> TensorResult<Var> {
        Ok(self.map(x, MapOp::Abs))
    }

    fn sqrt(&mut self, x: Var) -> TensorResult<Var> {
        Ok(self.map(x, MapOp::Sqrt))
    }

    fn square(&mut self, x: Var) -> TensorResult<Var> {
        Ok(self.map(x, MapOp::Square))
    }

    fn concat_last(&mut self, parts: &[Var]) -> TensorResult<Var> {
        let tensors: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let t = Tensor::concat_last(&tensors)?;
        drop(tensors);
        Ok(self.push(
            ROp::Concat {
                parts: parts.iter().map(|v| v.0).collect(),
            },
            Some(t),
        ))
    }

    fn slice_last(&mut self, x: Var, start: usize, end: usize) -> TensorResult<Var> {
        let t = kernels::slice_last(self.value(x), start, end)?;
        Ok(self.push(ROp::SliceLast { x: x.0, start, end }, Some(t)))
    }

    fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> TensorResult<Var> {
        let t = kernels::layer_norm_fwd(self.value(x), self.value(gamma), self.value(beta), eps)?;
        Ok(self.push(
            ROp::LayerNorm {
                x: x.0,
                gamma: gamma.0,
                beta: beta.0,
                eps,
            },
            Some(t),
        ))
    }
}

/// The dual-probe recording every compiler starts from: the model's
/// `forward` run at two batch sizes, verified to be one op stream. Its raw
/// (pre-CSE) ops are, one to one, the nodes a [`crate::Graph`] would hold
/// — so [`crate::train_plan`] can derive a backward in the tape's order.
pub(crate) struct Recording<'p> {
    r0: Recorder<'p>,
    r1: Recorder<'p>,
    /// The nodes `build` returned, as raw op indices.
    pub(crate) outputs: Vec<usize>,
}

impl<'p> Recording<'p> {
    const B0: usize = 2;
    const B1: usize = 3;

    pub(crate) fn probe<F>(params: &'p ParamStore, mut build: F) -> Result<Self, PlanError>
    where
        F: FnMut(&mut Recorder<'_>, usize) -> Result<Vec<Var>, PlanError>,
    {
        let mut r0 = Recorder::new(params);
        let out0 = build(&mut r0, Self::B0)?;
        let mut r1 = Recorder::new(params);
        let out1 = build(&mut r1, Self::B1)?;
        if r0.ops != r1.ops {
            return Err(PlanError::NonUniform(
                "op stream changed with batch size".into(),
            ));
        }
        if out0.iter().map(|v| v.0).ne(out1.iter().map(|v| v.0)) {
            return Err(PlanError::NonUniform(
                "output nodes changed with batch size".into(),
            ));
        }
        let outputs = out0.iter().map(|v| v.0).collect();
        Ok(Recording { r0, r1, outputs })
    }

    /// The raw recorded ops.
    pub(crate) fn ops(&self) -> &[ROp] {
        &self.r0.ops
    }

    /// Raw node `i`'s shape folded into `c` / `c·B` form.
    pub(crate) fn dims(&self, i: usize) -> Result<Vec<Dim>, PlanError> {
        derive_dims(self.r0.shape_of(i), self.r1.shape_of(i), Self::B0, Self::B1)
    }

    /// CSE, fusion and memory planning, with the raw nodes `outputs`
    /// readable after a run (in that order).
    pub(crate) fn lower(&self, outputs: &[usize]) -> Result<Plan, PlanError> {
        // CSE before shape derivation and lowering: the memory planner and
        // the fusion passes then see each distinct value exactly once.
        let (ops, origin, outputs, deduped) = cse(
            &self.r0.ops,
            outputs,
            |i| self.r0.shape_of(i),
            |i| self.r1.shape_of(i),
        );
        let shapes: Vec<Vec<Dim>> = origin
            .iter()
            .map(|&i| self.dims(i))
            .collect::<Result<_, _>>()?;
        let base = PlanStats {
            recorded_ops: self.r0.ops.len(),
            cse_deduped: deduped,
            ..PlanStats::default()
        };
        lower(&ops, &shapes, self.r0.n_inputs, &outputs, base)
    }
}

/// A symbolic dimension: constant, or linear in the batch size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dim {
    Fixed(usize),
    /// `c * B`.
    PerBatch(usize),
}

impl Dim {
    #[inline(always)]
    pub(crate) fn at(self, b: usize) -> usize {
        match self {
            Dim::Fixed(n) => n,
            Dim::PerBatch(c) => c * b,
        }
    }

    /// [`Dim::at`] for batch sizes that may come from a file: `None` on
    /// overflow.
    fn checked_at(self, b: usize) -> Option<usize> {
        match self {
            Dim::Fixed(n) => Some(n),
            Dim::PerBatch(c) => c.checked_mul(b),
        }
    }
}

/// A symbolic element count: `coef * B + fixed` (one of the two is zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Size {
    pub(crate) coef: usize,
    pub(crate) fixed: usize,
}

impl Size {
    #[inline(always)]
    pub(crate) fn at(&self, b: usize) -> usize {
        self.coef * b + self.fixed
    }

    /// Whether a buffer of this size can hold `need` for every batch size.
    pub(crate) fn fits(&self, need: &Size) -> bool {
        self.coef >= need.coef && self.fixed >= need.fixed
    }

    pub(crate) fn grow_to(&mut self, need: &Size) {
        self.coef = self.coef.max(need.coef);
        self.fixed = self.fixed.max(need.fixed);
    }
}

/// Folds probe shapes at batch sizes `b0` / `b1` into symbolic dims.
fn derive_dims(s0: &[usize], s1: &[usize], b0: usize, b1: usize) -> Result<Vec<Dim>, PlanError> {
    if s0.len() != s1.len() {
        return Err(PlanError::NonUniform(format!(
            "rank changed with batch size: {s0:?} vs {s1:?}"
        )));
    }
    s0.iter()
        .zip(s1)
        .map(|(&d0, &d1)| {
            if d0 == d1 {
                Ok(Dim::Fixed(d0))
            } else if d0 % b0 == 0 && (d0 / b0) * b1 == d1 {
                Ok(Dim::PerBatch(d0 / b0))
            } else {
                Err(PlanError::Shape(format!(
                    "dim {d0} at B={b0} vs {d1} at B={b1} is neither constant nor linear"
                )))
            }
        })
        .collect()
}

/// Product of symbolic dims; errors if more than one is batch-linear (the
/// element count would be quadratic in `B`).
fn prod_dims(dims: &[Dim]) -> Result<Dim, PlanError> {
    let mut fixed = 1usize;
    let mut coef: Option<usize> = None;
    for d in dims {
        match d {
            Dim::Fixed(n) => fixed *= n,
            Dim::PerBatch(c) => {
                if coef.replace(*c).is_some() {
                    return Err(PlanError::Shape(format!(
                        "more than one batch-linear dim in {dims:?}"
                    )));
                }
            }
        }
    }
    Ok(match coef {
        Some(c) => Dim::PerBatch(c * fixed),
        None => Dim::Fixed(fixed),
    })
}

pub(crate) fn size_of(dims: &[Dim]) -> Result<Size, PlanError> {
    Ok(match prod_dims(dims)? {
        Dim::Fixed(n) => Size { coef: 0, fixed: n },
        Dim::PerBatch(c) => Size { coef: c, fixed: 0 },
    })
}

/// Where a lowered step reads from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Src {
    /// An arena buffer.
    Buf(usize),
    /// A parameter tensor (borrowed from the store at replay).
    Param(ParamId),
    /// A replay-time input tensor, by position.
    Input(usize),
}

/// One lowered instruction.
#[derive(Debug, Clone)]
pub(crate) struct Step {
    kind: StepKind,
    out: usize,
}

#[derive(Debug, Clone)]
enum StepKind {
    /// `out = act(a · b + bias)` with the epilogue fused into the GEMM
    /// write-back.
    Gemm {
        a: Src,
        b: Src,
        m: Dim,
        k: Dim,
        n: Dim,
        bias: Option<Src>,
        act: Activation,
    },
    Bmm {
        a: Src,
        b: Src,
        ta: bool,
        tb: bool,
        batch: Dim,
        m: Dim,
        k: Dim,
        n: Dim,
        /// Scalar fused into the write-back (attention's `1/sqrt(d)`).
        scale: Option<f32>,
    },
    SplitHeads {
        x: Src,
        h: usize,
        b: Dim,
        l: Dim,
        d: Dim,
    },
    MergeHeads {
        x: Src,
        h: usize,
        bh: Dim,
        l: Dim,
        dh: Dim,
    },
    Softmax {
        x: Src,
        rows: Dim,
        d: Dim,
    },
    LayerNorm {
        x: Src,
        gamma: Src,
        beta: Src,
        eps: f32,
        rows: Dim,
        d: Dim,
    },
    /// Fused element-wise chain (empty `ops` is a plain copy).
    Map {
        x: Src,
        ops: Vec<MapOp>,
        len: Dim,
    },
    Zip {
        a: Src,
        b: Src,
        kind: ZipKind,
        ops: Vec<MapOp>,
        len: Dim,
    },
    RowOp {
        x: Src,
        row: Src,
        kind: RowKind,
        ops: Vec<MapOp>,
        rows: Dim,
        d: Dim,
    },
    Concat {
        parts: Vec<(Src, Dim)>,
        rows: Dim,
        ops: Vec<MapOp>,
    },
    SliceLast {
        x: Src,
        rows: Dim,
        d: Dim,
        start: usize,
        end: usize,
    },
}

impl StepKind {
    /// Every operand this step reads (allocation-free: replay walks it).
    fn sources(&self) -> impl Iterator<Item = Src> + '_ {
        let (fixed, parts): ([Option<Src>; 3], &[(Src, Dim)]) = match self {
            StepKind::Gemm { a, b, bias, .. } => ([Some(*a), Some(*b), *bias], &[]),
            StepKind::Bmm { a, b, .. } | StepKind::Zip { a, b, .. } => {
                ([Some(*a), Some(*b), None], &[])
            }
            StepKind::SplitHeads { x, .. }
            | StepKind::MergeHeads { x, .. }
            | StepKind::Softmax { x, .. }
            | StepKind::Map { x, .. }
            | StepKind::SliceLast { x, .. } => ([Some(*x), None, None], &[]),
            StepKind::LayerNorm { x, gamma, beta, .. } => {
                ([Some(*x), Some(*gamma), Some(*beta)], &[])
            }
            StepKind::RowOp { x, row, .. } => ([Some(*x), Some(*row), None], &[]),
            StepKind::Concat { parts, .. } => ([None; 3], parts),
        };
        let fixed = fixed.into_iter().flatten();
        fixed.chain(parts.iter().map(|(s, _)| *s))
    }

    /// Whether trailing element-wise ops can be folded into this step.
    fn accepts_chain(&self) -> bool {
        matches!(
            self,
            StepKind::Map { .. }
                | StepKind::Zip { .. }
                | StepKind::RowOp { .. }
                | StepKind::Concat { .. }
        )
    }

    fn push_chain(&mut self, op: MapOp) {
        match self {
            StepKind::Map { ops, .. }
            | StepKind::Zip { ops, .. }
            | StepKind::RowOp { ops, .. }
            | StepKind::Concat { ops, .. } => ops.push(op),
            _ => unreachable!("accepts_chain checked"),
        }
    }

    /// Buffers this step may legally write in place (input read strictly
    /// element-before-write, or row-local for softmax / layer norm).
    fn inplace_candidates(&self) -> Vec<Src> {
        match self {
            StepKind::Map { x, .. }
            | StepKind::RowOp { x, .. }
            | StepKind::Softmax { x, .. }
            | StepKind::LayerNorm { x, .. } => vec![*x],
            StepKind::Zip { a, b, .. } => vec![*a, *b],
            _ => Vec::new(),
        }
    }
}

/// An arena buffer: symbolic size plus its assigned slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Buf {
    pub(crate) size: Size,
    pub(crate) slot: usize,
}

/// Optimization counters from lowering — used by tests to assert fusions
/// actually fire, and by benches for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStats {
    /// Ops captured by the recorder.
    pub recorded_ops: usize,
    /// Recorded ops eliminated as common subexpressions (e.g. the same
    /// parameter read through several reshapes) before lowering.
    pub cse_deduped: usize,
    /// Lowered steps the interpreter replays per batch.
    pub steps: usize,
    /// Reshapes elided into aliases (zero-cost at replay).
    pub elided_reshapes: usize,
    /// Bias rows fused into GEMM epilogues.
    pub fused_bias: usize,
    /// Activations fused into GEMM epilogues.
    pub fused_activations: usize,
    /// Scalar multiplies fused into batched-GEMM epilogues.
    pub fused_bmm_scales: usize,
    /// Element-wise ops folded into a preceding step's chain.
    pub fused_elementwise: usize,
    /// Steps that write their output in place over a dead input.
    pub inplace_steps: usize,
    /// Distinct intermediate buffers.
    pub buffers: usize,
    /// Arena slots after liveness-based aliasing.
    pub arena_slots: usize,
}

/// A compiled, batch-size-generic forward program.
///
/// Built once per model topology with [`Plan::compile`]; replayed per
/// batch by any number of [`PlanExec`] instances (the plan itself is
/// immutable and cheap to share via `Arc`).
#[derive(Debug)]
pub struct Plan {
    pub(crate) steps: Vec<Step>,
    pub(crate) bufs: Vec<Buf>,
    pub(crate) slot_sizes: Vec<Size>,
    pub(crate) inputs: Vec<Vec<Dim>>,
    pub(crate) outputs: Vec<(Src, Vec<Dim>)>,
    stats: PlanStats,
}

impl Plan {
    /// Records `build` at two probe batch sizes, verifies the program is
    /// batch-uniform, and lowers it. `build` must run the model's forward
    /// pass on the given [`Recorder`] with inputs of the given batch size
    /// (every `Exec::constant` becomes a positional plan input) and return
    /// the output nodes, whose values [`PlanExec::output`] exposes in the
    /// same order.
    pub fn compile<F>(params: &ParamStore, build: F) -> Result<Plan, PlanError>
    where
        F: FnMut(&mut Recorder<'_>, usize) -> Result<Vec<Var>, PlanError>,
    {
        let rec = Recording::probe(params, build)?;
        rec.lower(&rec.outputs)
    }

    /// Optimization counters.
    pub fn stats(&self) -> PlanStats {
        self.stats
    }

    /// Number of replay-time inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// The shape of output `i` at batch size `b`.
    pub fn output_shape(&self, i: usize, b: usize) -> Vec<usize> {
        self.outputs[i].1.iter().map(|d| d.at(b)).collect()
    }

    /// The shape input `i` must have at batch size `b`.
    pub fn input_shape(&self, i: usize, b: usize) -> Vec<usize> {
        self.inputs[i].iter().map(|d| d.at(b)).collect()
    }

    /// Total arena elements needed at batch size `b`.
    pub fn arena_len(&self, b: usize) -> usize {
        self.slot_sizes.iter().map(|s| s.at(b)).sum()
    }
}

/// Whether two scalar map ops are the same function, comparing float
/// constants by **bit pattern** — merging `Scale(-0.0)` into `Scale(0.0)`
/// would flip the sign of zero outputs.
fn map_op_bits_eq(a: MapOp, b: MapOp) -> bool {
    match (a, b) {
        (MapOp::Scale(x), MapOp::Scale(y)) | (MapOp::AddScalar(x), MapOp::AddScalar(y)) => {
            x.to_bits() == y.to_bits()
        }
        _ => a == b,
    }
}

/// Whether two recorded ops (operands already canonicalized) compute the
/// same pure value — the CSE merge criterion. Structural equality except
/// float constants, which compare bitwise.
fn rop_cse_eq(a: &ROp, b: &ROp) -> bool {
    match (a, b) {
        (ROp::Map { x: xa, op: oa }, ROp::Map { x: xb, op: ob }) => {
            xa == xb && map_op_bits_eq(*oa, *ob)
        }
        (
            ROp::LayerNorm {
                x: xa,
                gamma: ga,
                beta: ba,
                eps: ea,
            },
            ROp::LayerNorm {
                x: xb,
                gamma: gb,
                beta: bb,
                eps: eb,
            },
        ) => xa == xb && ga == gb && ba == bb && ea.to_bits() == eb.to_bits(),
        _ => a == b,
    }
}

/// The op with every operand index remapped through `f`.
fn remap_rop(op: &ROp, f: impl Fn(usize) -> usize) -> ROp {
    match op {
        ROp::Input(k) => ROp::Input(*k),
        ROp::Param(id) => ROp::Param(*id),
        ROp::Map { x, op } => ROp::Map { x: f(*x), op: *op },
        ROp::Zip { a, b, kind } => ROp::Zip {
            a: f(*a),
            b: f(*b),
            kind: *kind,
        },
        ROp::RowOp { x, row, kind } => ROp::RowOp {
            x: f(*x),
            row: f(*row),
            kind: *kind,
        },
        ROp::Matmul { a, b } => ROp::Matmul { a: f(*a), b: f(*b) },
        ROp::Bmm { a, b, ta, tb } => ROp::Bmm {
            a: f(*a),
            b: f(*b),
            ta: *ta,
            tb: *tb,
        },
        ROp::SplitHeads { x, h } => ROp::SplitHeads { x: f(*x), h: *h },
        ROp::MergeHeads { x, h } => ROp::MergeHeads { x: f(*x), h: *h },
        ROp::Reshape { x } => ROp::Reshape { x: f(*x) },
        ROp::Softmax { x } => ROp::Softmax { x: f(*x) },
        ROp::Concat { parts } => ROp::Concat {
            parts: parts.iter().map(|&p| f(p)).collect(),
        },
        ROp::SliceLast { x, start, end } => ROp::SliceLast {
            x: f(*x),
            start: *start,
            end: *end,
        },
        ROp::LayerNorm {
            x,
            gamma,
            beta,
            eps,
        } => ROp::LayerNorm {
            x: f(*x),
            gamma: f(*gamma),
            beta: f(*beta),
            eps: *eps,
        },
    }
}

/// Common-subexpression elimination over the recorded program.
///
/// Every [`Exec`] op is pure, so two nodes applying the same op to the
/// same (already-deduplicated) operands hold the same value — the classic
/// case being one parameter read several times, or the same read pushed
/// through identical reshapes. Walking in recording order with hash-
/// consing semantics collapses each such family to its first occurrence.
///
/// Shape is part of the merge key: `ROp::Reshape` does not carry its
/// target shape (it is batch-dependent, so storing it would break the
/// dual-probe uniformity comparison), which makes two reshapes of one
/// value to *different* shapes structurally equal — merging them would
/// silently compute downstream row-wise ops over the wrong width. Two
/// nodes merge only when their recorded shapes agree at **both** probe
/// batch sizes (for every other op the shape is a function of the op and
/// its operands, so the check never blocks a legitimate merge).
///
/// Returns `(deduplicated ops, origin — each new op's first recorded
/// index, remapped outputs, number of ops eliminated)`.
fn cse<'s>(
    ops: &[ROp],
    outputs: &[usize],
    shape0: impl Fn(usize) -> &'s [usize],
    shape1: impl Fn(usize) -> &'s [usize],
) -> (Vec<ROp>, Vec<usize>, Vec<usize>, usize) {
    let mut repr: Vec<usize> = Vec::with_capacity(ops.len());
    let mut new_ops: Vec<ROp> = Vec::with_capacity(ops.len());
    let mut origin: Vec<usize> = Vec::with_capacity(ops.len());
    let mut eliminated = 0usize;
    for (i, op) in ops.iter().enumerate() {
        let canon = remap_rop(op, |j| repr[j]);
        // Linear scan: recorded programs are a few hundred ops, and this
        // runs once per (model, leaf count) at compile time.
        let found = (0..new_ops.len()).find(|&j| {
            rop_cse_eq(&new_ops[j], &canon)
                && shape0(i) == shape0(origin[j])
                && shape1(i) == shape1(origin[j])
        });
        match found {
            Some(j) => {
                repr.push(j);
                eliminated += 1;
            }
            None => {
                new_ops.push(canon);
                origin.push(i);
                repr.push(new_ops.len() - 1);
            }
        }
    }
    let outs = outputs.iter().map(|&o| repr[o]).collect();
    (new_ops, origin, outs, eliminated)
}

/// Lowers a recorded program: elides reshapes, fuses element-wise chains
/// and GEMM epilogues, then assigns buffers to arena slots by liveness.
fn lower(
    ops: &[ROp],
    shapes: &[Vec<Dim>],
    n_inputs: usize,
    output_nodes: &[usize],
    base_stats: PlanStats,
) -> Result<Plan, PlanError> {
    let n = ops.len();
    let mut users: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, op) in ops.iter().enumerate() {
        for inp in op.inputs() {
            users[inp].push(i);
        }
    }
    let mut is_output = vec![false; n];
    for &o in output_nodes {
        is_output[o] = true;
    }
    // The single consumer of node `i`, provided nothing else (including the
    // outputs list) observes `i` — the condition for fusing `i` away.
    let single_user = |i: usize| -> Option<usize> {
        if users[i].len() == 1 && !is_output[i] {
            Some(users[i][0])
        } else {
            None
        }
    };

    let mut stats = base_stats;
    let mut steps: Vec<Step> = Vec::new();
    let mut bufs: Vec<Buf> = Vec::new();
    // binding[i] = (source holding node i's value, producing step if the
    // value may still accept chained element-wise ops).
    let mut binding: Vec<Option<(Src, Option<usize>)>> = vec![None; n];
    let mut consumed = vec![false; n];

    // Resolves operands that may not have been visited yet (param / input
    // leaves recorded between a producer and its consumer, e.g. a bias
    // param pushed after the matmul it follows).
    fn resolve_ahead(
        ops: &[ROp],
        binding: &[Option<(Src, Option<usize>)>],
        j: usize,
    ) -> Option<Src> {
        if let Some((src, _)) = binding[j] {
            return Some(src);
        }
        match &ops[j] {
            ROp::Param(id) => Some(Src::Param(*id)),
            ROp::Input(k) => Some(Src::Input(*k)),
            ROp::Reshape { x } => resolve_ahead(ops, binding, *x),
            _ => None,
        }
    }

    let new_buf = |bufs: &mut Vec<Buf>, node: usize| -> Result<usize, PlanError> {
        bufs.push(Buf {
            size: size_of(&shapes[node])?,
            slot: usize::MAX,
        });
        Ok(bufs.len() - 1)
    };

    for i in 0..n {
        if consumed[i] {
            continue;
        }
        let src = |binding: &[Option<(Src, Option<usize>)>], j: usize| -> Src {
            binding[j].expect("operands are bound before use").0
        };
        let bound = match &ops[i] {
            ROp::Input(k) => (Src::Input(*k), None),
            ROp::Param(id) => (Src::Param(*id), None),
            ROp::Reshape { x } => {
                stats.elided_reshapes += 1;
                (src(&binding, *x), None)
            }
            ROp::Map { x, op } => {
                let (xsrc, xstep) = binding[*x].expect("bound");
                if let (Some(si), Some(_)) = (xstep, single_user(*x)) {
                    if steps[si].kind.accepts_chain() {
                        steps[si].kind.push_chain(*op);
                        stats.fused_elementwise += 1;
                        binding[i] = Some((xsrc, xstep));
                        continue;
                    }
                }
                let ob = new_buf(&mut bufs, i)?;
                steps.push(Step {
                    kind: StepKind::Map {
                        x: xsrc,
                        ops: vec![*op],
                        len: prod_dims(&shapes[i])?,
                    },
                    out: ob,
                });
                (Src::Buf(ob), Some(steps.len() - 1))
            }
            ROp::Zip { a, b, kind } => {
                let ob = new_buf(&mut bufs, i)?;
                steps.push(Step {
                    kind: StepKind::Zip {
                        a: src(&binding, *a),
                        b: src(&binding, *b),
                        kind: *kind,
                        ops: Vec::new(),
                        len: prod_dims(&shapes[i])?,
                    },
                    out: ob,
                });
                (Src::Buf(ob), Some(steps.len() - 1))
            }
            ROp::RowOp { x, row, kind } => {
                let d = *shapes[i].last().expect("row op output has rank >= 1");
                let ob = new_buf(&mut bufs, i)?;
                steps.push(Step {
                    kind: StepKind::RowOp {
                        x: src(&binding, *x),
                        row: src(&binding, *row),
                        kind: *kind,
                        ops: Vec::new(),
                        rows: prod_dims(&shapes[i][..shapes[i].len() - 1])?,
                        d,
                    },
                    out: ob,
                });
                (Src::Buf(ob), Some(steps.len() - 1))
            }
            ROp::Matmul { a, b } => {
                // Epilogue fusion: walk the single-use chain
                //   matmul [→ reshape]* [→ add_row(bias)] [→ relu|tanh|sigmoid]
                // and fold it into the GEMM's write-back.
                let bn = shapes[*b][1];
                let mut bias: Option<Src> = None;
                let mut act = Activation::Identity;
                let mut chain: Vec<usize> = Vec::new(); // nodes folded beyond i
                let mut cur = i;
                while let Some(next) = single_user(cur) {
                    match &ops[next] {
                        ROp::Reshape { x } if *x == cur => {
                            stats.elided_reshapes += 1;
                        }
                        ROp::RowOp {
                            x,
                            row,
                            kind: RowKind::Add,
                        } if *x == cur
                            && bias.is_none()
                            && act == Activation::Identity
                            // The epilogue adds bias[j] per output column
                            // j < n; a reshape that changed the trailing
                            // dim broadcasts along a different width, so
                            // only fuse when the row still spans n.
                            && shapes[cur].last() == Some(&bn) =>
                        {
                            match resolve_ahead(ops, &binding, *row) {
                                Some(rsrc) => {
                                    bias = Some(rsrc);
                                    stats.fused_bias += 1;
                                }
                                None => break,
                            }
                        }
                        ROp::Map { x, op } if *x == cur && act == Activation::Identity => {
                            match op.as_activation() {
                                Some(a) => {
                                    act = a;
                                    stats.fused_activations += 1;
                                }
                                None => break,
                            }
                        }
                        _ => break,
                    }
                    chain.push(next);
                    cur = next;
                }
                let (m, k) = (shapes[*a][0], shapes[*a][1]);
                let ob = new_buf(&mut bufs, cur)?;
                steps.push(Step {
                    kind: StepKind::Gemm {
                        a: src(&binding, *a),
                        b: src(&binding, *b),
                        m,
                        k,
                        n: bn,
                        bias,
                        act,
                    },
                    out: ob,
                });
                for &c in &chain {
                    consumed[c] = true;
                    binding[c] = Some((Src::Buf(ob), None));
                }
                (Src::Buf(ob), None)
            }
            ROp::Bmm { a, b, ta, tb } => {
                // Epilogue fusion: fold a single-use `scale(c)` consumer
                // (attention's `scores / sqrt(d)`) into the batched GEMM
                // write-back, same exactly-once contract as the Gemm arm.
                let sa = &shapes[*a];
                let (m, k) = if *ta { (sa[2], sa[1]) } else { (sa[1], sa[2]) };
                let nn = if *tb { shapes[*b][1] } else { shapes[*b][2] };
                let mut scale: Option<f32> = None;
                let mut chain: Vec<usize> = Vec::new();
                let mut cur = i;
                while let Some(next) = single_user(cur) {
                    match &ops[next] {
                        ROp::Map {
                            x,
                            op: MapOp::Scale(c),
                        } if *x == cur && scale.is_none() => {
                            scale = Some(*c);
                            stats.fused_bmm_scales += 1;
                        }
                        _ => break,
                    }
                    chain.push(next);
                    cur = next;
                }
                let ob = new_buf(&mut bufs, cur)?;
                steps.push(Step {
                    kind: StepKind::Bmm {
                        a: src(&binding, *a),
                        b: src(&binding, *b),
                        ta: *ta,
                        tb: *tb,
                        batch: sa[0],
                        m,
                        k,
                        n: nn,
                        scale,
                    },
                    out: ob,
                });
                for &c in &chain {
                    consumed[c] = true;
                    binding[c] = Some((Src::Buf(ob), None));
                }
                (Src::Buf(ob), None)
            }
            ROp::SplitHeads { x, h } => {
                let sx = &shapes[*x];
                let ob = new_buf(&mut bufs, i)?;
                steps.push(Step {
                    kind: StepKind::SplitHeads {
                        x: src(&binding, *x),
                        h: *h,
                        b: sx[0],
                        l: sx[1],
                        d: sx[2],
                    },
                    out: ob,
                });
                (Src::Buf(ob), None)
            }
            ROp::MergeHeads { x, h } => {
                let sx = &shapes[*x];
                let ob = new_buf(&mut bufs, i)?;
                steps.push(Step {
                    kind: StepKind::MergeHeads {
                        x: src(&binding, *x),
                        h: *h,
                        bh: sx[0],
                        l: sx[1],
                        dh: sx[2],
                    },
                    out: ob,
                });
                (Src::Buf(ob), None)
            }
            ROp::Softmax { x } => {
                let d = *shapes[i].last().expect("softmax input has rank >= 1");
                let ob = new_buf(&mut bufs, i)?;
                steps.push(Step {
                    kind: StepKind::Softmax {
                        x: src(&binding, *x),
                        rows: prod_dims(&shapes[i][..shapes[i].len() - 1])?,
                        d,
                    },
                    out: ob,
                });
                (Src::Buf(ob), None)
            }
            ROp::Concat { parts } => {
                let ob = new_buf(&mut bufs, i)?;
                let widths: Vec<(Src, Dim)> = parts
                    .iter()
                    .map(|&p| {
                        (
                            src(&binding, p),
                            *shapes[p].last().expect("concat part has rank >= 1"),
                        )
                    })
                    .collect();
                steps.push(Step {
                    kind: StepKind::Concat {
                        parts: widths,
                        rows: prod_dims(&shapes[i][..shapes[i].len() - 1])?,
                        ops: Vec::new(),
                    },
                    out: ob,
                });
                (Src::Buf(ob), Some(steps.len() - 1))
            }
            ROp::SliceLast { x, start, end } => {
                let sx = &shapes[*x];
                let ob = new_buf(&mut bufs, i)?;
                steps.push(Step {
                    kind: StepKind::SliceLast {
                        x: src(&binding, *x),
                        rows: prod_dims(&sx[..sx.len() - 1])?,
                        d: *sx.last().expect("slice input has rank >= 1"),
                        start: *start,
                        end: *end,
                    },
                    out: ob,
                });
                (Src::Buf(ob), None)
            }
            ROp::LayerNorm {
                x,
                gamma,
                beta,
                eps,
            } => {
                let d = *shapes[i].last().expect("layer norm input has rank >= 1");
                let ob = new_buf(&mut bufs, i)?;
                steps.push(Step {
                    kind: StepKind::LayerNorm {
                        x: src(&binding, *x),
                        gamma: src(&binding, *gamma),
                        beta: src(&binding, *beta),
                        eps: *eps,
                        rows: prod_dims(&shapes[i][..shapes[i].len() - 1])?,
                        d,
                    },
                    out: ob,
                });
                (Src::Buf(ob), None)
            }
        };
        binding[i] = Some(bound);
    }

    // Outputs must be readable after the run: materialize any that still
    // alias a plan input or a parameter into their own buffer.
    let mut outputs: Vec<(Src, Vec<Dim>)> = Vec::new();
    for &o in output_nodes {
        let (src, _) = binding[o].expect("all nodes bound");
        let src = match src {
            Src::Buf(_) => src,
            Src::Param(_) | Src::Input(_) => {
                let ob = new_buf(&mut bufs, o)?;
                steps.push(Step {
                    kind: StepKind::Map {
                        x: src,
                        ops: Vec::new(),
                        len: prod_dims(&shapes[o])?,
                    },
                    out: ob,
                });
                Src::Buf(ob)
            }
        };
        outputs.push((src, shapes[o].clone()));
    }

    let mut input_shapes = vec![Vec::new(); n_inputs];
    for (i, op) in ops.iter().enumerate() {
        if let ROp::Input(k) = op {
            input_shapes[*k] = shapes[i].clone();
        }
    }
    plan_memory(steps, bufs, input_shapes, outputs, stats)
}

/// Liveness analysis; slot assignment is [`assign_slots`]'s.
fn plan_memory(
    mut steps: Vec<Step>,
    mut bufs: Vec<Buf>,
    input_shapes: Vec<Vec<Dim>>,
    outputs: Vec<(Src, Vec<Dim>)>,
    mut stats: PlanStats,
) -> Result<Plan, PlanError> {
    let mut last_use = vec![0usize; bufs.len()];
    let mut def_step = vec![usize::MAX; bufs.len()];
    for (si, step) in steps.iter().enumerate() {
        for s in step.kind.sources() {
            if let Src::Buf(b) = s {
                last_use[b] = last_use[b].max(si);
            }
        }
        def_step[step.out] = si;
    }
    for (src, _) in &outputs {
        if let Src::Buf(b) = src {
            last_use[*b] = usize::MAX;
        }
    }

    let sizes: Vec<Size> = bufs.iter().map(|b| b.size).collect();
    let defs: Vec<Def> = steps
        .iter()
        .enumerate()
        .map(|(si, step)| Def {
            step: si,
            out: step.out,
            inplace: step
                .kind
                .inplace_candidates()
                .into_iter()
                .filter_map(|c| match c {
                    Src::Buf(b) => Some(b),
                    _ => None,
                })
                .collect(),
        })
        .collect();
    let Slots {
        slot_of,
        slot_sizes,
        inplace_steps,
    } = assign_slots(&sizes, &def_step, &last_use, &defs);
    for (buf, slot) in bufs.iter_mut().zip(slot_of) {
        buf.slot = slot;
    }
    stats.inplace_steps += inplace_steps;

    stats.steps = steps.len();
    stats.buffers = bufs.len();
    stats.arena_slots = slot_sizes.len();
    // Shrink fused chains' allocations.
    for s in &mut steps {
        if let StepKind::Map { ops, .. }
        | StepKind::Zip { ops, .. }
        | StepKind::RowOp { ops, .. }
        | StepKind::Concat { ops, .. } = &mut s.kind
        {
            ops.shrink_to_fit();
        }
    }
    Ok(Plan {
        steps,
        bufs,
        slot_sizes,
        inputs: input_shapes,
        outputs,
        stats,
    })
}

/// Infers the batch size from concrete inputs and validates every dim.
pub(crate) fn infer_batch(sym: &[Vec<Dim>], inputs: &[&Tensor]) -> Result<usize, PlanError> {
    if sym.len() != inputs.len() {
        return Err(PlanError::Input(format!(
            "expected {} inputs, got {}",
            sym.len(),
            inputs.len()
        )));
    }
    let mut b: Option<usize> = None;
    for (i, (dims, t)) in sym.iter().zip(inputs).enumerate() {
        let shape = t.shape();
        if dims.len() != shape.len() {
            return Err(PlanError::Input(format!(
                "input {i}: expected rank {}, got shape {shape:?}",
                dims.len()
            )));
        }
        for (d, &actual) in dims.iter().zip(shape) {
            match d {
                Dim::Fixed(n) => {
                    if actual != *n {
                        return Err(PlanError::Input(format!(
                            "input {i}: expected dim {n}, got {actual} (shape {shape:?})"
                        )));
                    }
                }
                Dim::PerBatch(c) => {
                    if *c == 0 || actual % c != 0 {
                        return Err(PlanError::Input(format!(
                            "input {i}: dim {actual} is not a multiple of {c} (shape {shape:?})"
                        )));
                    }
                    let bb = actual / c;
                    match b {
                        None => b = Some(bb),
                        Some(prev) if prev == bb => {}
                        Some(prev) => {
                            return Err(PlanError::Input(format!(
                                "input {i}: inconsistent batch size {bb} vs {prev}"
                            )))
                        }
                    }
                }
            }
        }
    }
    Ok(b.unwrap_or(1))
}

/// Replays a [`Plan`] against a preallocated arena.
///
/// One `PlanExec` per serving thread: after the first batch of a given
/// size warms the arena up, replay performs **zero heap allocation**
/// (`tests/replay_allocations.rs` runs it under a counting allocator);
/// [`PlanExec::alloc_count`] counts arena growth events so callers can
/// watch the warm-up itself. The parameter store passed to [`PlanExec::run`]
/// must be the one the plan was compiled against (same [`ParamId`]s).
pub struct PlanExec {
    plan: Arc<Plan>,
    arena: Vec<f32>,
    offsets: Vec<usize>,
    cur_b: usize,
    allocs: usize,
}

impl PlanExec {
    /// Creates an executor for `plan` (arena is allocated lazily on the
    /// first [`PlanExec::run`]).
    pub fn new(plan: Arc<Plan>) -> Self {
        PlanExec {
            plan,
            arena: Vec::new(),
            offsets: Vec::new(),
            cur_b: 0,
            allocs: 0,
        }
    }

    /// The compiled plan being replayed.
    pub fn plan(&self) -> &Arc<Plan> {
        &self.plan
    }

    /// Number of arena growth events so far (stays flat once warmed up —
    /// replaying any batch size at or below the largest seen so far
    /// allocates nothing).
    pub fn alloc_count(&self) -> usize {
        self.allocs
    }

    /// Executes the plan on `inputs` (one tensor per recorded
    /// `Exec::constant`, in recording order). Outputs are readable through
    /// [`PlanExec::output`] until the next `run`.
    pub fn run(&mut self, params: &ParamStore, inputs: &[&Tensor]) -> Result<(), PlanError> {
        let plan = Arc::clone(&self.plan);
        let b = infer_batch(&plan.inputs, inputs)?;
        if b != self.cur_b {
            self.offsets.clear();
            let mut off = 0usize;
            for s in &plan.slot_sizes {
                self.offsets.push(off);
                off += s.at(b);
            }
            if off > self.arena.len() {
                if off > self.arena.capacity() {
                    self.allocs += 1;
                }
                self.arena.resize(off, 0.0);
            }
            self.cur_b = b;
        }
        let ctx = RunCtx {
            plan: &plan,
            offsets: &self.offsets,
            b,
            params,
            inputs,
            arena: self.arena.as_mut_ptr(),
            arena_len: self.arena.len(),
        };
        for step in &plan.steps {
            ctx.exec(step)?;
        }
        Ok(())
    }

    /// Output `i`'s data (valid after a successful [`PlanExec::run`]).
    pub fn output(&self, i: usize) -> &[f32] {
        let (src, dims) = &self.plan.outputs[i];
        let len: usize = dims.iter().map(|d| d.at(self.cur_b)).product();
        match src {
            Src::Buf(bid) => {
                let meta = &self.plan.bufs[*bid];
                let off = self.offsets[meta.slot];
                &self.arena[off..off + len]
            }
            // `lower` materializes input/param-aliased outputs into buffers.
            _ => unreachable!("outputs always live in the arena"),
        }
    }

    /// Output `i`'s shape for the last executed batch.
    pub fn output_shape(&self, i: usize) -> Vec<usize> {
        self.plan.output_shape(i, self.cur_b)
    }
}

/// Per-run execution context: raw arena access with explicit disjointness
/// checks.
pub(crate) struct RunCtx<'r> {
    pub(crate) plan: &'r Plan,
    pub(crate) offsets: &'r [usize],
    pub(crate) b: usize,
    pub(crate) params: &'r ParamStore,
    pub(crate) inputs: &'r [&'r Tensor],
    pub(crate) arena: *mut f32,
    pub(crate) arena_len: usize,
}

impl<'r> RunCtx<'r> {
    fn buf_range(&self, bid: usize) -> (usize, usize) {
        let meta = &self.plan.bufs[bid];
        (self.offsets[meta.slot], meta.size.at(self.b))
    }

    /// Reads a source slice. For arena buffers the returned slice aliases
    /// the arena: callers must uphold the step's aliasing discipline
    /// (checked by [`RunCtx::aliases_out`] / `assert_disjoint`).
    fn read(&self, src: Src) -> &'r [f32] {
        match src {
            Src::Param(id) => self.params.value(id).data(),
            Src::Input(i) => self.inputs[i].data(),
            Src::Buf(bid) => {
                let (off, len) = self.buf_range(bid);
                assert!(off + len <= self.arena_len, "arena read out of bounds");
                // SAFETY: in-bounds; immutable reads only alias the output
                // range in the sanctioned in-place cases, which never call
                // `read` for the aliased operand.
                unsafe { std::slice::from_raw_parts(self.arena.add(off), len) }
            }
        }
    }

    /// The mutable output slice of a step.
    #[allow(clippy::mut_from_ref)]
    fn out(&self, bid: usize) -> &'r mut [f32] {
        let (off, len) = self.buf_range(bid);
        assert!(off + len <= self.arena_len, "arena write out of bounds");
        // SAFETY: in-bounds; exactly one output slice exists per step, and
        // every input slice read alongside it is checked disjoint (or the
        // step runs its dedicated in-place path without a second slice).
        unsafe { std::slice::from_raw_parts_mut(self.arena.add(off), len) }
    }

    /// Whether `src` occupies the same arena slot as the output buffer
    /// (the planner's sanctioned in-place aliasing).
    fn aliases_out(&self, src: Src, out: usize) -> bool {
        matches!(src, Src::Buf(b) if self.plan.bufs[b].slot == self.plan.bufs[out].slot)
    }

    /// Panics if any of `srcs` aliases the output (planner invariant for
    /// steps with no in-place path).
    fn assert_disjoint(&self, srcs: impl IntoIterator<Item = Src>, out: usize) {
        for s in srcs {
            assert!(
                !self.aliases_out(s, out),
                "planner bug: input aliases output of a non-in-place step"
            );
        }
    }

    /// `src`'s slice, or `None` when it is the output buffer itself (the
    /// planner's in-place case: the kernel then reads through `out`).
    fn read_unless_out(&self, src: Src, out: usize) -> Option<&'r [f32]> {
        (!self.aliases_out(src, out)).then(|| self.read(src))
    }

    /// Replays a training forward's fused attention block.
    pub(crate) fn exec_train_attention(&self, a: &TrainAttention) -> Result<(), PlanError> {
        self.assert_disjoint([a.q, a.k, a.v, Src::Buf(a.probs)], a.out);
        self.assert_disjoint([a.q, a.k, a.v], a.probs);
        let (q, k, v) = (self.read(a.q), self.read(a.k), self.read(a.v));
        let (out, probs) = (self.out(a.out), self.out(a.probs));
        let b = a.b.at(self.b);
        tensor::attention_train_slices(b, a.h, a.l, a.dh, q, k, v, a.scale, out, probs)?;
        Ok(())
    }

    pub(crate) fn exec(&self, step: &Step) -> Result<(), PlanError> {
        let out = step.out;
        match &step.kind {
            StepKind::Gemm {
                a,
                b,
                m,
                k,
                n,
                bias,
                act,
            } => {
                self.assert_disjoint(step.kind.sources(), out);
                let (m, k, n) = (m.at(self.b), k.at(self.b), n.at(self.b));
                let av = self.read(*a);
                let bv = self.read(*b);
                let biasv = bias.map(|s| self.read(s));
                tensor::gemm_ep_slices(m, k, n, av, bv, biasv, *act, self.out(out))?;
            }
            StepKind::Bmm {
                a,
                b,
                ta,
                tb,
                batch,
                m,
                k,
                n,
                scale,
            } => {
                self.assert_disjoint(step.kind.sources(), out);
                tensor::bmm_ep_slices(
                    batch.at(self.b),
                    m.at(self.b),
                    k.at(self.b),
                    n.at(self.b),
                    self.read(*a),
                    *ta,
                    self.read(*b),
                    *tb,
                    *scale,
                    self.out(out),
                )?;
            }
            StepKind::SplitHeads { x, h, b, l, d } => {
                self.assert_disjoint(step.kind.sources(), out);
                let (bb, l, d) = (b.at(self.b), l.at(self.b), d.at(self.b));
                let dh = d / h;
                let xs = self.read(*x);
                let o = self.out(out);
                for bi in 0..bb {
                    for li in 0..l {
                        for hi in 0..*h {
                            let src = (bi * l + li) * d + hi * dh;
                            let dst = ((bi * h + hi) * l + li) * dh;
                            o[dst..dst + dh].copy_from_slice(&xs[src..src + dh]);
                        }
                    }
                }
            }
            StepKind::MergeHeads { x, h, bh, l, dh } => {
                self.assert_disjoint(step.kind.sources(), out);
                let (bh, l, dh) = (bh.at(self.b), l.at(self.b), dh.at(self.b));
                let bb = bh / h;
                let d = dh * h;
                let xs = self.read(*x);
                let o = self.out(out);
                for bi in 0..bb {
                    for li in 0..l {
                        for hi in 0..*h {
                            let dst = (bi * l + li) * d + hi * dh;
                            let src = ((bi * h + hi) * l + li) * dh;
                            o[dst..dst + dh].copy_from_slice(&xs[src..src + dh]);
                        }
                    }
                }
            }
            StepKind::Softmax { x, d, .. } => {
                let o = self.out(out);
                map_into(o, self.read_unless_out(*x, out), &[]);
                softmax_rows(o, d.at(self.b));
            }
            StepKind::LayerNorm {
                x,
                gamma,
                beta,
                eps,
                d,
                ..
            } => {
                self.assert_disjoint([*gamma, *beta], out);
                let o = self.out(out);
                map_into(o, self.read_unless_out(*x, out), &[]);
                let (gv, bv) = (self.read(*gamma), self.read(*beta));
                layer_norm_rows(o, gv, bv, d.at(self.b), *eps);
            }
            StepKind::Map { x, ops, .. } => {
                map_into(self.out(out), self.read_unless_out(*x, out), ops);
            }
            StepKind::Zip {
                a, b, kind, ops, ..
            } => {
                let (av, bv) = (self.read_unless_out(*a, out), self.read_unless_out(*b, out));
                zip_into(self.out(out), av, bv, *kind, ops);
            }
            StepKind::RowOp {
                x,
                row,
                kind,
                ops,
                d,
                ..
            } => {
                self.assert_disjoint([*row], out);
                let rv = &self.read(*row)[..d.at(self.b)];
                row_op_into(self.out(out), self.read_unless_out(*x, out), rv, *kind, ops);
            }
            StepKind::Concat { parts, rows, ops } => {
                self.assert_disjoint(step.kind.sources(), out);
                let total: usize = parts.iter().map(|(_, w)| w.at(self.b)).sum();
                let o = self.out(out);
                for r in 0..rows.at(self.b) {
                    let mut at = r * total;
                    for (src, w) in parts {
                        let w = w.at(self.b);
                        let ps = self.read(*src);
                        o[at..at + w].copy_from_slice(&ps[r * w..(r + 1) * w]);
                        at += w;
                    }
                }
                map_into(o, None, ops);
            }
            StepKind::SliceLast {
                x,
                rows,
                d,
                start,
                end,
            } => {
                self.assert_disjoint(step.kind.sources(), out);
                let rows = rows.at(self.b);
                let d = d.at(self.b);
                let w = end - start;
                let xs = self.read(*x);
                let o = self.out(out);
                for r in 0..rows {
                    o[r * w..(r + 1) * w].copy_from_slice(&xs[r * d + start..r * d + end]);
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Batch-specialized plans
// ---------------------------------------------------------------------------

/// A [`Plan`] constant-folded for **one fixed batch size**.
///
/// The generic plan keeps every dim in symbolic `c`/`c·B` form and
/// re-evaluates shapes, arena offsets, aliasing, and kernel dispatch on
/// every replay. Serving traffic, however, is dominated by a handful of
/// stable batch sizes (the engine's full `max_batch` chunks and
/// single-sample requests), so [`Plan::specialize`] folds all of that
/// work out once:
///
/// * every dim, element count, and arena offset becomes a concrete
///   number — replay performs **zero symbolic evaluation**;
/// * each step's operand slices (arena offset + length, parameter,
///   input) are resolved ahead of time, including the in-place aliasing
///   decision the generic interpreter re-derives per step;
/// * the trivial per-step loops of `split_heads` / `merge_heads` unroll
///   into flat block-copy span lists (no index arithmetic per copy);
/// * GEMM entry points are selected per shape at specialize time: weight
///   GEMMs large enough for the blocked kernel replay through
///   [`tensor::gemm_prepacked`] against a **prepacked** `B` panel (the
///   packing [`tensor::gemm_ep_slices`] would redo every call happens
///   exactly once, here), and row-local normalization steps run a
///   row-interleaved kernel that breaks the per-row accumulation latency
///   chain;
/// * the arena length is final, so a replay arena that holds it is never
///   re-offset;
/// * two serving-only fusions, each a strict pattern match that keeps the
///   generic steps whenever an intermediate has a reader outside the
///   pattern: `split_heads ×3 → bmm(Q·Kᵀ, scale) → softmax → bmm(·V) →
///   merge_heads` becomes one [`tensor::attention_slices`] step reading
///   heads in place by stride, and the three projections feeding it (one
///   input, three weight matrices) become one prepacked GEMM over a
///   column-concatenated panel and bias, written to a scratch region
///   behind the planned slots and read by the attention step at row
///   stride `3·d`. A fold is never serialized, so neither fusion exists
///   in a [`desc::PlanDesc`].
///
/// Bit-identity is preserved throughout: every kernel accumulates each
/// output element in the same order as the generic interpreter, so a
/// specialized replay is **bit-identical** to [`PlanExec`] and to the tape
/// (property-tested).
///
/// **Contract:** because prepacking bakes in parameter *values* (not just
/// shapes), a `SpecializedPlan` must only replay against the exact
/// parameter store it was specialized from — freeze the weights first
/// (this is enforced by `cdmpp-core`, which only specializes behind its
/// frozen, `Arc`-shared serving handles).
pub struct SpecializedPlan {
    batch: usize,
    steps: Vec<SStep>,
    arena_len: usize,
    /// Values the fold owns ([`SpecSrc::Const`]): concatenated bias rows.
    consts: Vec<f32>,
    inputs: Vec<(Vec<usize>, usize)>,
    outputs: Vec<(usize, usize, Vec<usize>)>,
    prepacked: usize,
    quant_prepacked: usize,
    spans: usize,
    attentions: usize,
    qkv_gemms: usize,
}

/// Cap on the block copies one `split_heads` / `merge_heads` step may
/// unroll into a span list; bigger steps (only reachable through
/// adversarial plan descriptors) keep the generic loop form, so
/// specializing a hostile plan cannot demand an attacker-sized
/// allocation.
const MAX_UNROLL_SPANS: usize = 1 << 20;

/// A resolved operand source: a concrete arena offset, or a borrowed
/// parameter / input (length known from the step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpecSrc {
    Arena(usize),
    Param(ParamId),
    Input(usize),
    /// An offset into the fold's own constants.
    Const(usize),
}

/// One specialized step: the folded op plus its output slice.
struct SStep {
    op: SOp,
    out_off: usize,
    out_len: usize,
}

/// Folded step kinds. `Option<SpecSrc>` operands use `None` for "runs in
/// place over the output slice" — the decision the generic interpreter
/// makes per replay via slot comparisons is frozen here.
enum SOp {
    /// Epilogue GEMM through the generic entry (tiny shapes keep the
    /// naive kernel; non-parameter `B` operands cannot prepack).
    Gemm {
        a: SpecSrc,
        b: SpecSrc,
        m: usize,
        k: usize,
        n: usize,
        bias: Option<SpecSrc>,
        act: Activation,
    },
    /// Weight GEMM through the prepacked fixed-shape kernel. The panel is
    /// `Arc`-shared: every specialized plan of one frozen model reading
    /// the same parameter at the same `[k, n]` reuses one packing.
    GemmPrepacked {
        a: SpecSrc,
        b: Arc<tensor::PackedB>,
        m: usize,
        bias: Option<SpecSrc>,
        act: Activation,
    },
    /// Weight GEMM against quantized (i8) prepacked panels —
    /// chosen when the frozen store carries a quantized encoding for the
    /// parameter. Each k-block is dequantized into a per-thread f32
    /// scratch and runs [`SOp::GemmPrepacked`]'s kernel, so accumulation
    /// stays f32 and is bit-identical to it over the dequantized weights
    /// (which is exactly what the store's f32 values hold).
    GemmQuantPrepacked {
        a: SpecSrc,
        b: Arc<tensor::QuantizedPackedB>,
        m: usize,
        bias: Option<SpecSrc>,
        act: Activation,
    },
    Bmm {
        a: SpecSrc,
        b: SpecSrc,
        ta: bool,
        tb: bool,
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
        scale: Option<f32>,
    },
    /// `merge_heads(softmax(Q·Kᵀ·scale)·V)` in one pass: `b` sequences of
    /// `l` positions, `h` heads of width `dh`, operands read in place at
    /// row stride `rs` ([`tensor::attention_slices`]).
    Attention {
        q: SpecSrc,
        k: SpecSrc,
        v: SpecSrc,
        rs: usize,
        b: usize,
        h: usize,
        l: usize,
        dh: usize,
        scale: Option<f32>,
    },
    /// An unrolled permutation copy (`split_heads` / `merge_heads`): move
    /// `width` elements from `src` to `dst` for every span.
    Copy {
        x: SpecSrc,
        spans: Vec<(usize, usize)>,
        width: usize,
    },
    /// `split_heads` too large to unroll (bounds specialize-time memory
    /// on adversarial plans): the generic loop with concrete dims.
    SplitLoop {
        x: SpecSrc,
        h: usize,
        b: usize,
        l: usize,
        d: usize,
    },
    /// `merge_heads` too large to unroll; see [`SOp::SplitLoop`].
    MergeLoop {
        x: SpecSrc,
        h: usize,
        bh: usize,
        l: usize,
        dh: usize,
    },
    Softmax {
        x: Option<SpecSrc>,
        d: usize,
    },
    LayerNorm {
        x: Option<SpecSrc>,
        gamma: SpecSrc,
        beta: SpecSrc,
        eps: f32,
        d: usize,
    },
    Map {
        x: Option<SpecSrc>,
        ops: Vec<MapOp>,
    },
    Zip {
        a: Option<SpecSrc>,
        b: Option<SpecSrc>,
        kind: ZipKind,
        ops: Vec<MapOp>,
    },
    RowOp {
        x: Option<SpecSrc>,
        row: SpecSrc,
        kind: RowKind,
        ops: Vec<MapOp>,
        d: usize,
    },
    Concat {
        parts: Vec<(SpecSrc, usize)>,
        rows: usize,
        total: usize,
        ops: Vec<MapOp>,
    },
    SliceLast {
        x: SpecSrc,
        rows: usize,
        d: usize,
        start: usize,
        end: usize,
    },
}

/// Shared prepacked weight panels, keyed by `(parameter, k, n)`.
///
/// A model's specialized plans overlap heavily in the parameters they
/// read (every leaf count's plan shares the encoder, device-MLP, and
/// decoder weights; every batch class reuses the same `[k, n]` panels),
/// so panels are packed **once per distinct weight matrix** and
/// `Arc`-shared across folds instead of duplicated per plan.
///
/// Like [`SpecializedPlan`] itself, a cache bakes in parameter *values*:
/// keep one per frozen weight set and never mix stores.
#[derive(Default)]
pub struct WeightPackCache {
    map: std::collections::HashMap<(usize, usize, usize), Arc<tensor::PackedB>>,
    qmap: std::collections::HashMap<(usize, usize, usize), Arc<tensor::QuantizedPackedB>>,
    /// Fused `Q|K|V` panels, keyed by the three parameters and each one's
    /// `[k, n]`.
    qkv: std::collections::HashMap<QkvKey, QkvPanel>,
}

type QkvKey = ([usize; 3], usize, usize);

/// One column-concatenated `[k, 3n]` projection panel.
#[derive(Clone)]
enum QkvPanel {
    F32(Arc<tensor::PackedB>),
    Quant(Arc<tensor::QuantizedPackedB>),
}

impl QkvPanel {
    fn panel_bytes(&self) -> usize {
        match self {
            QkvPanel::F32(p) => p.panel_bytes(),
            QkvPanel::Quant(p) => p.panel_bytes(),
        }
    }
}

/// `[k, n]` row-major matrices side by side: row `i` of the result is row
/// `i` of each part in turn, `row` elements (or bytes) apiece.
fn concat_cols<T: Copy>(parts: [&[T]; 3], row: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
    if row > 0 {
        let [a, b, c] = parts.map(|p| p.chunks_exact(row));
        for ((ra, rb), rc) in a.zip(b).zip(c) {
            out.extend_from_slice(ra);
            out.extend_from_slice(rb);
            out.extend_from_slice(rc);
        }
    }
    out
}

/// The three quantized `[k, n]` encodings as one `[k, 3n]` encoding with
/// the same stored values and scales — possible when they share a shape
/// and each part's scale groups end on its last column.
fn concat_quant(parts: [&tensor::QuantizedMatrix; 3]) -> Option<tensor::QuantizedMatrix> {
    let [a, b, c] = parts;
    let (k, n) = (a.k(), a.n());
    let same = |q: &tensor::QuantizedMatrix| q.k() == k && q.n() == n;
    if !same(b) || !same(c) || n % tensor::QUANT_GROUP != 0 {
        return None;
    }
    let data = concat_cols(parts.map(|q| q.data()), n);
    let scales = parts.iter().flat_map(|q| q.scales()).copied().collect();
    tensor::QuantizedMatrix::from_parts(k, 3 * n, data, scales).ok()
}

impl WeightPackCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct `(parameter, k, n)` panels packed so far.
    pub fn len(&self) -> usize {
        self.map.len() + self.qmap.len() + self.qkv.len()
    }

    /// Whether no panel has been packed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes all cached panels occupy in memory (the serving-weights
    /// footprint of the packed representation).
    pub fn panel_bytes(&self) -> usize {
        self.map.values().map(|p| p.panel_bytes()).sum::<usize>()
            + self.qmap.values().map(|p| p.panel_bytes()).sum::<usize>()
            + self.qkv.values().map(|p| p.panel_bytes()).sum::<usize>()
    }

    /// The fused panel of three `[k, n]` projection weights: the quantized
    /// encodings when all three carry one that concatenates, the f32
    /// values when none does, `None` (no fusion) for a mix.
    fn get_or_pack_qkv(
        &mut self,
        params: &ParamStore,
        w: [ParamId; 3],
        k: usize,
        n: usize,
    ) -> Option<QkvPanel> {
        let key = (w.map(|id| id.index()), k, n);
        if let Some(panel) = self.qkv.get(&key) {
            return Some(panel.clone());
        }
        let values = w.map(|id| params.value(id).data());
        if values.iter().any(|v| v.len() != k * n) {
            return None;
        }
        let quants = w.map(|id| params.quant(id).filter(|q| q.k() == k && q.n() == n));
        let panel = match quants {
            [None, None, None] => QkvPanel::F32(Arc::new(tensor::PackedB::pack(
                &concat_cols(values, n),
                k,
                3 * n,
            ))),
            [Some(a), Some(b), Some(c)] => {
                QkvPanel::Quant(Arc::new(tensor::QuantizedPackedB::pack(&concat_quant([
                    &**a, &**b, &**c,
                ])?)))
            }
            _ => return None,
        };
        self.qkv.insert(key, panel.clone());
        Some(panel)
    }

    fn get_or_pack(
        &mut self,
        id: ParamId,
        k: usize,
        n: usize,
        data: &[f32],
    ) -> Arc<tensor::PackedB> {
        Arc::clone(
            self.map
                .entry((id.index(), k, n))
                .or_insert_with(|| Arc::new(tensor::PackedB::pack(data, k, n))),
        )
    }

    fn get_or_pack_quant(
        &mut self,
        id: ParamId,
        k: usize,
        n: usize,
        q: &tensor::QuantizedMatrix,
    ) -> Arc<tensor::QuantizedPackedB> {
        Arc::clone(
            self.qmap
                .entry((id.index(), k, n))
                .or_insert_with(|| Arc::new(tensor::QuantizedPackedB::pack(q))),
        )
    }
}

/// The seven generic steps [`SOp::Attention`] replaces, matched at one
/// batch size.
struct AttnMatch {
    q: Src,
    k: Src,
    v: Src,
    b: usize,
    h: usize,
    l: usize,
    dh: usize,
    scale: Option<f32>,
    /// The softmax output buffer (written by the training step only).
    probs: usize,
    /// The `merge_heads` output buffer — where the fused step writes.
    out: usize,
}

/// A training forward's attention block: the seven steps
/// [`Plan::match_attention`] matches, replayed as one
/// [`tensor::attention_train_slices`] step over `b` sequences that also
/// writes the probabilities where the softmax step did.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TrainAttention {
    q: Src,
    k: Src,
    v: Src,
    b: Dim,
    h: usize,
    l: usize,
    dh: usize,
    scale: Option<f32>,
    probs: usize,
    out: usize,
}

/// The three projection GEMMs in front of an [`AttnMatch`]: one input,
/// three `[k, n]` parameters, a bias each or none, one activation.
struct QkvMatch {
    a: Src,
    w: [ParamId; 3],
    bias: Option<[ParamId; 3]>,
    act: Activation,
    m: usize,
    k: usize,
    n: usize,
}

impl Plan {
    /// How many steps read each buffer, the outputs list counting as one
    /// more reader: a buffer with a single reader is invisible outside
    /// the step that reads it.
    pub(crate) fn reader_counts(&self) -> Vec<usize> {
        let mut readers = vec![0usize; self.bufs.len()];
        let step_reads = self.steps.iter().flat_map(|s| s.kind.sources());
        for src in step_reads.chain(self.outputs.iter().map(|(s, _)| *s)) {
            if let Src::Buf(b) = src {
                readers[b] += 1;
            }
        }
        readers
    }

    /// Matches `split_heads ×3 → bmm(Q·Kᵀ, scale) → softmax → bmm(·V) →
    /// merge_heads` in the seven consecutive steps starting at `at`, every
    /// intermediate read by the next step of the pattern and by nothing
    /// else, on a geometry the fused kernel serves. With `keep_probs` the
    /// softmax output may have other readers: the training step writes it.
    fn match_attention(
        &self,
        at: usize,
        readers: &[usize],
        bsz: usize,
        keep_probs: bool,
    ) -> Option<AttnMatch> {
        let [sq, sk, sv, qk, sm, pv, mg] = self.steps.get(at..at + 7)? else {
            return None;
        };
        let dim = |d: Dim| d.checked_at(bsz);
        let split = |st: &Step| match st.kind {
            StepKind::SplitHeads { x, h, b, l, d } => Some((x, [h, dim(b)?, dim(l)?, dim(d)?])),
            _ => None,
        };
        let ((q, geom), (k, gk), (v, gv)) = (split(sq)?, split(sk)?, split(sv)?);
        let [h, b, l, d] = geom;
        if gk != geom || gv != geom || h == 0 || d % h != 0 {
            return None;
        }
        let dh = d / h;
        let bh = b.checked_mul(h)?;
        let bmm = |st: &Step, lhs: usize, rhs: usize, t: bool| match st.kind {
            StepKind::Bmm {
                a: Src::Buf(a),
                b: Src::Buf(b),
                ta: false,
                tb,
                batch,
                m,
                k,
                n,
                scale,
            } if (a, b, tb) == (lhs, rhs, t) => {
                Some(([dim(batch)?, dim(m)?, dim(k)?, dim(n)?], scale))
            }
            _ => None,
        };
        let (qk_dims, scale) = bmm(qk, sq.out, sk.out, true)?;
        let softmax_ok = matches!(
            sm.kind,
            StepKind::Softmax { x: Src::Buf(x), rows, d }
                if x == qk.out && dim(d) == Some(l) && dim(rows) == bh.checked_mul(l)
        );
        let merge_ok = matches!(
            mg.kind,
            StepKind::MergeHeads { x: Src::Buf(x), h: mh, bh: mbh, l: ml, dh: mdh }
                if x == pv.out && mh == h && [dim(mbh), dim(ml), dim(mdh)] == [Some(bh), Some(l), Some(dh)]
        );
        let inner = [sq.out, sk.out, sv.out, qk.out, pv.out];
        let fits = qk_dims == [bh, l, dh, l]
            && softmax_ok
            && bmm(pv, sm.out, sv.out, false)? == ([bh, l, l, dh], None)
            && merge_ok
            && inner.iter().all(|&buf| readers[buf] == 1)
            && (keep_probs || readers[sm.out] == 1)
            && tensor::attention_fusable(l, dh);
        fits.then_some(AttnMatch {
            q,
            k,
            v,
            b,
            h,
            l,
            dh,
            scale,
            probs: sm.out,
            out: mg.out,
        })
    }

    /// [`Plan::match_attention`] for a training forward, at every batch
    /// size: the match must hold at two probe sizes with one geometry and
    /// a batch-linear sequence count (every dim is linear in the batch, so
    /// agreeing at two sizes is agreeing at all), and the step's two
    /// outputs must sit in slots of their own, apart from its operands.
    pub(crate) fn match_train_attention(
        &self,
        at: usize,
        readers: &[usize],
    ) -> Option<TrainAttention> {
        let [m1, m2] = [1, 2].map(|bsz| self.match_attention(at, readers, bsz, true));
        let (m1, m2) = (m1?, m2?);
        let same = (m1.q, m1.k, m1.v, m1.h, m1.l, m1.dh, m1.probs, m1.out)
            == (m2.q, m2.k, m2.v, m2.h, m2.l, m2.dh, m2.probs, m2.out)
            && m1.scale.map(f32::to_bits) == m2.scale.map(f32::to_bits);
        let slot = |b: usize| self.bufs[b].slot;
        let operand_slots = [m1.q, m1.k, m1.v].map(|s| match s {
            Src::Buf(b) => Some(slot(b)),
            _ => None,
        });
        let apart = slot(m1.probs) != slot(m1.out)
            && [m1.probs, m1.out]
                .iter()
                .all(|&w| !operand_slots.contains(&Some(slot(w))));
        (same && apart && m1.b > 0 && m2.b == 2 * m1.b).then_some(TrainAttention {
            q: m1.q,
            k: m1.k,
            v: m1.v,
            b: Dim::PerBatch(m1.b),
            h: m1.h,
            l: m1.l,
            dh: m1.dh,
            scale: m1.scale,
            probs: m1.probs,
            out: m1.out,
        })
    }

    /// Matches the three projection GEMMs at `at .. at + 3` feeding `attn`
    /// (matched at `at + 3`): one input, parameter weights of one `[k, n]`,
    /// outputs read by their `split_heads` only, and a shape where the
    /// prepacked kernel reproduces each projection's own dispatch.
    fn match_qkv(
        &self,
        at: usize,
        readers: &[usize],
        bsz: usize,
        attn: &AttnMatch,
    ) -> Option<QkvMatch> {
        /// One projection: what it writes, its weight and bias, and
        /// everything the three must agree on.
        struct Proj {
            out: Src,
            w: ParamId,
            bias: Option<ParamId>,
            shared: (Src, Activation, [usize; 3]),
        }
        let proj = |st: &Step| match st.kind {
            StepKind::Gemm {
                a,
                b: Src::Param(w),
                m,
                k,
                n,
                bias,
                act,
            } if readers[st.out] == 1 => {
                let bias = match bias {
                    None => None,
                    Some(Src::Param(id)) => Some(id),
                    Some(_) => return None,
                };
                let mkn = [m, k, n].map(|d| d.checked_at(bsz));
                Some(Proj {
                    out: Src::Buf(st.out),
                    w,
                    bias,
                    shared: (a, act, [mkn[0]?, mkn[1]?, mkn[2]?]),
                })
            }
            _ => None,
        };
        let [pq, pk, pv] = self.steps.get(at..at + 3)? else {
            return None;
        };
        let (pq, pk, pv) = (proj(pq)?, proj(pk)?, proj(pv)?);
        let (a, act, [m, k, n]) = pq.shared;
        let bias = match (pq.bias, pk.bias, pv.bias) {
            (None, None, None) => None,
            (Some(bq), Some(bk), Some(bv)) => Some([bq, bk, bv]),
            _ => return None,
        };
        let fits = pk.shared == pq.shared
            && pv.shared == pq.shared
            && (pq.out, pk.out, pv.out) == (attn.q, attn.k, attn.v)
            && Some(m) == attn.b.checked_mul(attn.l)
            && n == attn.h * attn.dh
            && tensor::gemm_prepacked_is_exact(m, k, n);
        fits.then_some(QkvMatch {
            a,
            w: [pq.w, pk.w, pv.w],
            bias,
            act,
            m,
            k,
            n,
        })
    }

    /// Folds this plan for one concrete batch size; see
    /// [`SpecializedPlan`]. `params` must be the (frozen) store the plan
    /// replays against — prepacked weight panels read their values here.
    pub fn specialize(&self, params: &ParamStore, b: usize) -> Result<SpecializedPlan, PlanError> {
        self.specialize_cached(params, b, &mut WeightPackCache::new())
    }

    /// [`Plan::specialize`] sharing prepacked weight panels through
    /// `cache` — fold every plan of one frozen model through the same
    /// cache and parameters read by several plans (or several batch
    /// classes) are packed exactly once.
    pub fn specialize_cached(
        &self,
        params: &ParamStore,
        b: usize,
        cache: &mut WeightPackCache,
    ) -> Result<SpecializedPlan, PlanError> {
        if b == 0 {
            return Err(PlanError::Input(
                "cannot specialize for batch size 0".into(),
            ));
        }
        let dim_at = |d: Dim| -> Result<usize, PlanError> {
            d.checked_at(b)
                .ok_or_else(|| PlanError::Input(format!("batch size {b} overflows plan dims")))
        };
        let size_at = |s: &Size| -> Result<usize, PlanError> {
            s.coef
                .checked_mul(b)
                .and_then(|v| v.checked_add(s.fixed))
                .ok_or_else(|| PlanError::Input(format!("batch size {b} overflows plan sizes")))
        };
        let mut offsets = Vec::with_capacity(self.slot_sizes.len());
        let mut off = 0usize;
        for s in &self.slot_sizes {
            offsets.push(off);
            off = off
                .checked_add(size_at(s)?)
                .ok_or_else(|| PlanError::Input(format!("batch size {b} overflows the arena")))?;
        }
        let arena_len = off;
        let src_of = |s: Src| -> SpecSrc {
            match s {
                Src::Buf(bid) => SpecSrc::Arena(offsets[self.bufs[bid].slot]),
                Src::Param(id) => SpecSrc::Param(id),
                Src::Input(i) => SpecSrc::Input(i),
            }
        };
        // The planner's sanctioned in-place aliasing, frozen per step.
        let aliases = |s: Src, out: usize| -> bool {
            matches!(s, Src::Buf(bb) if self.bufs[bb].slot == self.bufs[out].slot)
        };
        let inplace = |s: Src, out: usize| -> Option<SpecSrc> {
            if aliases(s, out) {
                None
            } else {
                Some(src_of(s))
            }
        };

        let mut prepacked = 0usize;
        let mut quant_prepacked = 0usize;
        let mut span_count = 0usize;
        let mut attentions = 0usize;
        let mut qkv_gemms = 0usize;
        let mut consts: Vec<f32> = Vec::new();
        // Fused `Q|K|V` outputs live behind the planned slots: one region,
        // as large as the widest projection, live from its GEMM to the
        // attention step that follows it.
        let qkv_off = arena_len;
        let mut qkv_len = 0usize;
        let readers = self.reader_counts();
        // The fused step of `attn`, its operands at `[q, k, v]` with rows
        // `rs` apart, writing where `merge_heads` did.
        let attention_step = |attn: &AttnMatch, [q, k, v]: [SpecSrc; 3], rs: usize| {
            Ok::<_, PlanError>(SStep {
                op: SOp::Attention {
                    q,
                    k,
                    v,
                    rs,
                    b: attn.b,
                    h: attn.h,
                    l: attn.l,
                    dh: attn.dh,
                    scale: attn.scale,
                },
                out_off: offsets[self.bufs[attn.out].slot],
                out_len: size_at(&self.bufs[attn.out].size)?,
            })
        };
        let mut steps = Vec::with_capacity(self.steps.len());
        let mut si = 0usize;
        while si < self.steps.len() {
            let step = &self.steps[si];
            // Projections + attention: one GEMM into the scratch region,
            // one attention step reading it at row stride `3n`.
            let fused = self
                .match_attention(si + 3, &readers, b, false)
                .and_then(|attn| {
                    let qkv = self.match_qkv(si, &readers, b, &attn)?;
                    let len = qkv.m.checked_mul(3 * qkv.n)?;
                    let panel = cache.get_or_pack_qkv(params, qkv.w, qkv.k, qkv.n)?;
                    let biases = qkv.bias.map(|ids| ids.map(|id| params.value(id).data()));
                    if biases.is_some_and(|rows| rows.iter().any(|r| r.len() != qkv.n)) {
                        return None;
                    }
                    Some((attn, qkv, len, panel, biases))
                });
            if let Some((attn, qkv, len, panel, biases)) = fused {
                let bias = biases.map(|rows| {
                    let at = consts.len();
                    rows.iter().for_each(|r| consts.extend_from_slice(r));
                    SpecSrc::Const(at)
                });
                let (a, m, act) = (src_of(qkv.a), qkv.m, qkv.act);
                let op = match panel {
                    QkvPanel::F32(b) => {
                        prepacked += 1;
                        SOp::GemmPrepacked { a, b, m, bias, act }
                    }
                    QkvPanel::Quant(b) => {
                        quant_prepacked += 1;
                        SOp::GemmQuantPrepacked { a, b, m, bias, act }
                    }
                };
                steps.push(SStep {
                    op,
                    out_off: qkv_off,
                    out_len: len,
                });
                let d = qkv.n;
                let heads = [0, d, 2 * d].map(|col| SpecSrc::Arena(qkv_off + col));
                steps.push(attention_step(&attn, heads, 3 * d)?);
                qkv_len = qkv_len.max(len);
                qkv_gemms += 1;
                attentions += 1;
                si += 10;
                continue;
            }
            // Attention alone, its operands read where they are — unless
            // the planner handed the merged output one of their slots.
            let in_place = self.match_attention(si, &readers, b, false).filter(|attn| {
                ![attn.q, attn.k, attn.v]
                    .iter()
                    .any(|&s| aliases(s, attn.out))
            });
            if let Some(attn) = in_place {
                let heads = [attn.q, attn.k, attn.v].map(src_of);
                steps.push(attention_step(&attn, heads, attn.h * attn.dh)?);
                attentions += 1;
                si += 7;
                continue;
            }
            si += 1;
            let out = step.out;
            let out_off = offsets[self.bufs[out].slot];
            let out_len = size_at(&self.bufs[out].size)?;
            let op = match &step.kind {
                StepKind::Gemm {
                    a,
                    b: bsrc,
                    m,
                    k,
                    n,
                    bias,
                    act,
                } => {
                    let (m, k, n) = (dim_at(*m)?, dim_at(*k)?, dim_at(*n)?);
                    let bias = bias.map(src_of);
                    match bsrc {
                        // Weight operand: pack the panel once, now, instead
                        // of on every replay — where the generic entry would
                        // pick the blocked kernel, and from two rows up also
                        // below that: the naive loop it picks there
                        // accumulates through memory and runs 2-5x behind a
                        // prepacked register tile at every predictor shape
                        // (README, "Where replay time goes"); one row is its
                        // best case and stays. Quantized stores pack the
                        // i8 encoding instead (the store's values are
                        // the dequantized numbers, so every entry computes
                        // identical results).
                        Src::Param(id)
                            if tensor::gemm_prefers_packed(m, k, n)
                                || (m > 1 && tensor::gemm_prepacked_is_exact(m, k, n)) =>
                        {
                            let w = params.value(*id);
                            if w.numel() != k * n {
                                return Err(PlanError::Input(format!(
                                    "parameter {} has {} elements, GEMM needs {k}x{n}",
                                    id.index(),
                                    w.numel()
                                )));
                            }
                            match params.quant(*id) {
                                Some(q) if q.k() == k && q.n() == n => {
                                    quant_prepacked += 1;
                                    SOp::GemmQuantPrepacked {
                                        a: src_of(*a),
                                        b: cache.get_or_pack_quant(*id, k, n, q),
                                        m,
                                        bias,
                                        act: *act,
                                    }
                                }
                                _ => {
                                    prepacked += 1;
                                    SOp::GemmPrepacked {
                                        a: src_of(*a),
                                        b: cache.get_or_pack(*id, k, n, w.data()),
                                        m,
                                        bias,
                                        act: *act,
                                    }
                                }
                            }
                        }
                        _ => SOp::Gemm {
                            a: src_of(*a),
                            b: src_of(*bsrc),
                            m,
                            k,
                            n,
                            bias,
                            act: *act,
                        },
                    }
                }
                StepKind::Bmm {
                    a,
                    b: bsrc,
                    ta,
                    tb,
                    batch,
                    m,
                    k,
                    n,
                    scale,
                } => SOp::Bmm {
                    a: src_of(*a),
                    b: src_of(*bsrc),
                    ta: *ta,
                    tb: *tb,
                    batch: dim_at(*batch)?,
                    m: dim_at(*m)?,
                    k: dim_at(*k)?,
                    n: dim_at(*n)?,
                    scale: *scale,
                },
                StepKind::SplitHeads { x, h, b: bb, l, d } => {
                    let (bb, l, d) = (dim_at(*bb)?, dim_at(*l)?, dim_at(*d)?);
                    let dh = d / h;
                    let blocks = bb.saturating_mul(l).saturating_mul(*h);
                    if blocks > MAX_UNROLL_SPANS {
                        SOp::SplitLoop {
                            x: src_of(*x),
                            h: *h,
                            b: bb,
                            l,
                            d,
                        }
                    } else {
                        let mut spans = Vec::with_capacity(blocks);
                        for bi in 0..bb {
                            for li in 0..l {
                                for hi in 0..*h {
                                    let src = (bi * l + li) * d + hi * dh;
                                    let dst = ((bi * h + hi) * l + li) * dh;
                                    spans.push((dst, src));
                                }
                            }
                        }
                        span_count += spans.len();
                        SOp::Copy {
                            x: src_of(*x),
                            spans,
                            width: dh,
                        }
                    }
                }
                StepKind::MergeHeads { x, h, bh, l, dh } => {
                    let (bh, l, dh) = (dim_at(*bh)?, dim_at(*l)?, dim_at(*dh)?);
                    let bb = bh / h;
                    let d = dh * h;
                    let blocks = bh.saturating_mul(l);
                    if blocks > MAX_UNROLL_SPANS {
                        SOp::MergeLoop {
                            x: src_of(*x),
                            h: *h,
                            bh,
                            l,
                            dh,
                        }
                    } else {
                        let mut spans = Vec::with_capacity(blocks);
                        for bi in 0..bb {
                            for li in 0..l {
                                for hi in 0..*h {
                                    let dst = (bi * l + li) * d + hi * dh;
                                    let src = ((bi * h + hi) * l + li) * dh;
                                    spans.push((dst, src));
                                }
                            }
                        }
                        span_count += spans.len();
                        SOp::Copy {
                            x: src_of(*x),
                            spans,
                            width: dh,
                        }
                    }
                }
                StepKind::Softmax { x, d, .. } => SOp::Softmax {
                    x: inplace(*x, out),
                    d: dim_at(*d)?,
                },
                StepKind::LayerNorm {
                    x,
                    gamma,
                    beta,
                    eps,
                    d,
                    ..
                } => SOp::LayerNorm {
                    x: inplace(*x, out),
                    gamma: src_of(*gamma),
                    beta: src_of(*beta),
                    eps: *eps,
                    d: dim_at(*d)?,
                },
                StepKind::Map { x, ops, .. } => SOp::Map {
                    x: inplace(*x, out),
                    ops: ops.clone(),
                },
                StepKind::Zip {
                    a,
                    b: bb,
                    kind,
                    ops,
                    ..
                } => SOp::Zip {
                    a: inplace(*a, out),
                    b: inplace(*bb, out),
                    kind: *kind,
                    ops: ops.clone(),
                },
                StepKind::RowOp {
                    x,
                    row,
                    kind,
                    ops,
                    d,
                    ..
                } => SOp::RowOp {
                    x: inplace(*x, out),
                    row: src_of(*row),
                    kind: *kind,
                    ops: ops.clone(),
                    d: dim_at(*d)?,
                },
                StepKind::Concat { parts, rows, ops } => {
                    let parts = parts
                        .iter()
                        .map(|(s, w)| Ok((src_of(*s), dim_at(*w)?)))
                        .collect::<Result<Vec<_>, PlanError>>()?;
                    let total = parts.iter().map(|(_, w)| w).sum();
                    SOp::Concat {
                        parts,
                        rows: dim_at(*rows)?,
                        total,
                        ops: ops.clone(),
                    }
                }
                StepKind::SliceLast {
                    x,
                    rows,
                    d,
                    start,
                    end,
                } => SOp::SliceLast {
                    x: src_of(*x),
                    rows: dim_at(*rows)?,
                    d: dim_at(*d)?,
                    start: *start,
                    end: *end,
                },
            };
            steps.push(SStep {
                op,
                out_off,
                out_len,
            });
        }

        let inputs = self
            .inputs
            .iter()
            .map(|dims| {
                let shape = dims
                    .iter()
                    .map(|&d| dim_at(d))
                    .collect::<Result<Vec<_>, _>>()?;
                let numel = shape.iter().product();
                Ok((shape, numel))
            })
            .collect::<Result<Vec<_>, PlanError>>()?;
        let outputs = self
            .outputs
            .iter()
            .map(|(src, dims)| {
                let shape = dims
                    .iter()
                    .map(|&d| dim_at(d))
                    .collect::<Result<Vec<_>, _>>()?;
                let len = shape.iter().product();
                let off = match src {
                    Src::Buf(bid) => offsets[self.bufs[*bid].slot],
                    _ => unreachable!("outputs always live in the arena"),
                };
                Ok((off, len, shape))
            })
            .collect::<Result<Vec<_>, PlanError>>()?;

        let arena_len = arena_len
            .checked_add(qkv_len)
            .ok_or_else(|| PlanError::Input(format!("batch size {b} overflows the arena")))?;
        Ok(SpecializedPlan {
            batch: b,
            steps,
            arena_len,
            consts,
            inputs,
            outputs,
            prepacked,
            quant_prepacked,
            spans: span_count,
            attentions,
            qkv_gemms,
        })
    }
}

impl SpecializedPlan {
    /// The batch size this plan was folded for.
    pub fn batch_size(&self) -> usize {
        self.batch
    }

    /// Number of replay-time inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// The exact shape input `i` must have.
    pub fn input_shape(&self, i: usize) -> &[usize] {
        &self.inputs[i].0
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// The concrete shape of output `i`.
    pub fn output_shape(&self, i: usize) -> &[usize] {
        &self.outputs[i].2
    }

    /// Steps the specialized interpreter replays per batch.
    pub fn steps(&self) -> usize {
        self.steps.len()
    }

    /// Weight GEMMs resolved to the prepacked fixed-shape kernel.
    pub fn prepacked_gemms(&self) -> usize {
        self.prepacked
    }

    /// Weight GEMMs resolved to the quantized (i8) prepacked kernel.
    pub fn quant_prepacked_gemms(&self) -> usize {
        self.quant_prepacked
    }

    /// Block copies unrolled out of `split_heads` / `merge_heads` loops.
    pub fn unrolled_copies(&self) -> usize {
        self.spans
    }

    /// Attention blocks folded into one [`tensor::attention_slices`] step.
    pub fn fused_attentions(&self) -> usize {
        self.attentions
    }

    /// `Q|K|V` projection triples folded into one prepacked GEMM.
    pub fn fused_qkv_gemms(&self) -> usize {
        self.qkv_gemms
    }

    /// Arena elements a replay needs (fixed — never re-offset).
    pub fn arena_len(&self) -> usize {
        self.arena_len
    }

    /// Executes the plan in `arena`, growing it to [`Self::arena_len`] if
    /// it is shorter (an arena that has replayed a larger fold serves a
    /// smaller one as it is). `params` must be the store the plan was
    /// specialized against; inputs must match the folded shapes exactly
    /// (the batch size is part of the plan).
    pub fn replay(
        &self,
        arena: &mut Vec<f32>,
        params: &ParamStore,
        inputs: &[&Tensor],
    ) -> Result<(), PlanError> {
        if inputs.len() != self.inputs.len() {
            return Err(PlanError::Input(format!(
                "expected {} inputs, got {}",
                self.inputs.len(),
                inputs.len()
            )));
        }
        for (i, ((shape, _), t)) in self.inputs.iter().zip(inputs).enumerate() {
            if t.shape() != shape.as_slice() {
                return Err(PlanError::Input(format!(
                    "input {i}: expected shape {shape:?} (plan specialized for batch {}), got {:?}",
                    self.batch,
                    t.shape()
                )));
            }
        }
        if arena.len() < self.arena_len {
            arena.resize(self.arena_len, 0.0);
        }
        let ctx = SpecRun {
            params,
            inputs,
            consts: &self.consts,
            arena: arena.as_mut_ptr(),
            arena_len: arena.len(),
        };
        for step in &self.steps {
            ctx.exec(step)?;
        }
        Ok(())
    }

    /// Output `i`'s data in `arena` after a successful [`Self::replay`]
    /// there.
    pub fn output<'a>(&self, arena: &'a [f32], i: usize) -> &'a [f32] {
        let (off, len, _) = self.outputs[i];
        &arena[off..off + len]
    }
}

impl fmt::Debug for SpecializedPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpecializedPlan")
            .field("batch", &self.batch)
            .field("steps", &self.steps.len())
            .field("arena_len", &self.arena_len)
            .field("prepacked_gemms", &self.prepacked)
            .field("quant_prepacked_gemms", &self.quant_prepacked)
            .field("fused_attentions", &self.attentions)
            .field("fused_qkv_gemms", &self.qkv_gemms)
            .finish()
    }
}

/// Specialized-replay context: raw arena access under the same aliasing
/// discipline as [`RunCtx`], with every offset and length precomputed.
struct SpecRun<'r> {
    params: &'r ParamStore,
    inputs: &'r [&'r Tensor],
    consts: &'r [f32],
    arena: *mut f32,
    arena_len: usize,
}

impl<'r> SpecRun<'r> {
    /// Reads a resolved source slice. Arena reads alias the output slice
    /// only where the specializer froze an in-place decision, and those
    /// paths never call `read` for the aliased operand.
    fn read(&self, src: SpecSrc, len: usize) -> &'r [f32] {
        match src {
            SpecSrc::Param(id) => self.params.value(id).data(),
            SpecSrc::Input(i) => self.inputs[i].data(),
            SpecSrc::Const(off) => &self.consts[off..off + len],
            SpecSrc::Arena(off) => {
                assert!(off + len <= self.arena_len, "arena read out of bounds");
                // SAFETY: in-bounds; disjointness from the output slice is
                // guaranteed by the specializer (same invariants as the
                // generic planner, frozen at specialize time).
                unsafe { std::slice::from_raw_parts(self.arena.add(off), len) }
            }
        }
    }

    /// The step's mutable output slice.
    #[allow(clippy::mut_from_ref)]
    fn out(&self, off: usize, len: usize) -> &'r mut [f32] {
        assert!(off + len <= self.arena_len, "arena write out of bounds");
        // SAFETY: in-bounds; exactly one output slice exists per step and
        // sanctioned in-place operands are encoded as `None` (no second
        // slice is ever created for them).
        unsafe { std::slice::from_raw_parts_mut(self.arena.add(off), len) }
    }

    fn exec(&self, step: &SStep) -> Result<(), PlanError> {
        let o = self.out(step.out_off, step.out_len);
        match &step.op {
            SOp::Gemm {
                a,
                b,
                m,
                k,
                n,
                bias,
                act,
            } => {
                let av = self.read(*a, m * k);
                let bv = self.read(*b, k * n);
                let biasv = bias.map(|s| self.read(s, *n));
                tensor::gemm_ep_slices(*m, *k, *n, av, bv, biasv, *act, o)?;
            }
            SOp::GemmPrepacked { a, b, m, bias, act } => {
                let av = self.read(*a, m * b.k());
                let biasv = bias.map(|s| self.read(s, b.n()));
                tensor::gemm_prepacked(*m, av, b, biasv, *act, o)?;
            }
            SOp::GemmQuantPrepacked { a, b, m, bias, act } => {
                let av = self.read(*a, m * b.k());
                let biasv = bias.map(|s| self.read(s, b.n()));
                tensor::gemm_prepacked_quant(*m, av, b, biasv, *act, o)?;
            }
            SOp::Bmm {
                a,
                b,
                ta,
                tb,
                batch,
                m,
                k,
                n,
                scale,
            } => {
                let av = self.read(*a, batch * m * k);
                let bv = self.read(*b, batch * k * n);
                tensor::bmm_ep_slices(*batch, *m, *k, *n, av, *ta, bv, *tb, *scale, o)?;
            }
            SOp::Attention {
                q,
                k,
                v,
                rs,
                b,
                h,
                l,
                dh,
                scale,
            } => {
                // Each operand's last row ends `h·dh` past its start.
                let len = (b * l).saturating_sub(1) * rs + h * dh;
                let (qs, ks, vs) = (self.read(*q, len), self.read(*k, len), self.read(*v, len));
                tensor::attention_slices(*b, *h, *l, *dh, qs, ks, vs, *rs, *scale, o)?;
            }
            SOp::Copy { x, spans, width } => {
                let xs = self.read(*x, step.out_len);
                let w = *width;
                for &(dst, src) in spans {
                    o[dst..dst + w].copy_from_slice(&xs[src..src + w]);
                }
            }
            SOp::SplitLoop { x, h, b, l, d } => {
                let xs = self.read(*x, step.out_len);
                let dh = d / h;
                for bi in 0..*b {
                    for li in 0..*l {
                        for hi in 0..*h {
                            let src = (bi * l + li) * d + hi * dh;
                            let dst = ((bi * h + hi) * l + li) * dh;
                            o[dst..dst + dh].copy_from_slice(&xs[src..src + dh]);
                        }
                    }
                }
            }
            SOp::MergeLoop { x, h, bh, l, dh } => {
                let xs = self.read(*x, step.out_len);
                let bb = bh / h;
                let d = dh * h;
                for bi in 0..bb {
                    for li in 0..*l {
                        for hi in 0..*h {
                            let dst = (bi * l + li) * d + hi * dh;
                            let src = ((bi * h + hi) * l + li) * dh;
                            o[dst..dst + dh].copy_from_slice(&xs[src..src + dh]);
                        }
                    }
                }
            }
            SOp::Softmax { x, d } => {
                map_into(o, x.map(|s| self.read(s, step.out_len)), &[]);
                softmax_rows(o, *d);
            }
            SOp::LayerNorm {
                x,
                gamma,
                beta,
                eps,
                d,
            } => {
                map_into(o, x.map(|s| self.read(s, step.out_len)), &[]);
                let (gv, bv) = (self.read(*gamma, *d), self.read(*beta, *d));
                layer_norm_rows(o, gv, bv, *d, *eps);
            }
            SOp::Map { x, ops } => map_into(o, x.map(|s| self.read(s, step.out_len)), ops),
            SOp::Zip { a, b, kind, ops } => {
                let av = a.map(|s| self.read(s, step.out_len));
                let bv = b.map(|s| self.read(s, step.out_len));
                zip_into(o, av, bv, *kind, ops);
            }
            SOp::RowOp {
                x,
                row,
                kind,
                ops,
                d,
            } => {
                let xs = x.map(|s| self.read(s, step.out_len));
                row_op_into(o, xs, &self.read(*row, *d)[..*d], *kind, ops);
            }
            SOp::Concat {
                parts,
                rows,
                total,
                ops,
            } => {
                for r in 0..*rows {
                    let mut at = r * total;
                    for &(src, w) in parts {
                        let ps = self.read(src, rows * w);
                        o[at..at + w].copy_from_slice(&ps[r * w..(r + 1) * w]);
                        at += w;
                    }
                }
                map_into(o, None, ops);
            }
            SOp::SliceLast {
                x,
                rows,
                d,
                start,
                end,
            } => {
                let w = end - start;
                let xs = self.read(*x, rows * d);
                for r in 0..*rows {
                    o[r * w..(r + 1) * w].copy_from_slice(&xs[r * d + start..r * d + end]);
                }
            }
        }
        Ok(())
    }
}

/// `o[i] = chain(x[i])` — what both executors run for `Map`, for a
/// `Concat`'s chain, and (with an empty chain) for the copy in front of an
/// out-of-place softmax / layer norm. `x == None` is the in-place case:
/// `o` is its own input. An empty chain is a plain copy.
///
/// The chain runs as passes over the slice: each run of plain ops in one
/// fused loop, each `tanh` / `exp` / `sigmoid` as one
/// [`tensor::math::map`]. Every element still takes the chain's ops in
/// order, so the passes are bit-identical to [`apply_chain`] per element.
/// The first pass reads `x`; the rest run in place.
fn map_into(o: &mut [f32], mut x: Option<&[f32]>, ops: &[MapOp]) {
    for run in ops.split_inclusive(|op| op.func().is_some()) {
        let (plain, func) = match run.split_last() {
            Some((last, head)) if last.func().is_some() => (head, last.func()),
            _ => (run, None),
        };
        if !plain.is_empty() {
            match x.take() {
                Some(xs) => {
                    for (v, &xv) in o.iter_mut().zip(xs) {
                        *v = apply_chain(plain, xv);
                    }
                }
                None => o.iter_mut().for_each(|v| *v = apply_chain(plain, *v)),
            }
        }
        if let Some(f) = func {
            math::map(f, x.take(), o);
        }
    }
    if let Some(xs) = x {
        o.copy_from_slice(xs);
    }
}

/// `o[i] = chain(kind(a[i], b[i]))`, `None` operands being `o` itself: the
/// bare binary op (the residual adds), in a loop with nothing but the one
/// arithmetic op in it, which vectorizes; then the chain in place.
fn zip_into(o: &mut [f32], a: Option<&[f32]>, b: Option<&[f32]>, kind: ZipKind, ops: &[MapOp]) {
    #[inline(always)]
    fn run(o: &mut [f32], a: Option<&[f32]>, b: Option<&[f32]>, f: impl Fn(f32, f32) -> f32) {
        match (a, b) {
            (None, None) => o.iter_mut().for_each(|v| *v = f(*v, *v)),
            (None, Some(bs)) => o.iter_mut().zip(bs).for_each(|(v, &y)| *v = f(*v, y)),
            (Some(as_), None) => o.iter_mut().zip(as_).for_each(|(v, &x)| *v = f(x, *v)),
            (Some(as_), Some(bs)) => {
                for (v, (&x, &y)) in o.iter_mut().zip(as_.iter().zip(bs)) {
                    *v = f(x, y);
                }
            }
        }
    }
    match kind {
        ZipKind::Add => run(o, a, b, |x, y| x + y),
        ZipKind::Sub => run(o, a, b, |x, y| x - y),
        ZipKind::Mul => run(o, a, b, |x, y| x * y),
    }
    map_into(o, None, ops);
}

/// `o[i] = chain(kind(x[i], row[i % d]))` with `d = row.len()`; `x == None`
/// is the in-place case. The chain runs in place after the row op.
fn row_op_into(o: &mut [f32], x: Option<&[f32]>, row: &[f32], kind: RowKind, ops: &[MapOp]) {
    let d = row.len();
    match x {
        None => {
            for (i, v) in o.iter_mut().enumerate() {
                *v = kind.apply(*v, row[i % d]);
            }
        }
        Some(xs) => {
            for (i, (v, &xv)) in o.iter_mut().zip(xs).enumerate() {
                *v = kind.apply(xv, row[i % d]);
            }
        }
    }
    map_into(o, None, ops);
}

/// Where `Iterator::sum` starts an `f32` sum (`-0.0`): a row sum kept in
/// a hand-interleaved accumulator starts here, so it takes exactly the
/// steps `iter().sum()` takes — the tape's definition — down to the sign
/// of an all-zero row's sum.
#[inline(always)]
pub(crate) fn sum_start() -> f32 {
    std::iter::empty::<f32>().sum()
}

/// Rows [`layer_norm_rows`] and the training step's layer-norm backward
/// advance together: rows are independent, so interleaving them runs that
/// many accumulation chains side by side without changing any row's own
/// operation order.
pub(crate) const NORM_ROWS: usize = 8;

/// `rows` split into `R` disjoint rows of width `d` (`rows` holds exactly
/// `R * d`).
#[inline(always)]
pub(crate) fn split_rows<const R: usize>(rows: &mut [f32], d: usize) -> [&mut [f32]; R] {
    let mut it = rows.chunks_exact_mut(d);
    std::array::from_fn(|_| it.next().expect("R rows of width d"))
}

/// Row-wise layer norm, [`NORM_ROWS`] rows at a time, then four, then one.
///
/// The mean and variance sums are serial dependency chains per row (the
/// f32 accumulation order is part of the bit-identity contract, so they
/// cannot be vectorized within a row) — but rows are independent, so
/// interleaving them runs one chain per row in parallel without changing
/// any row's operation order (`R = 1` is the per-row definition; the tape
/// computes the same sequence).
fn layer_norm_rows(o: &mut [f32], gv: &[f32], bv: &[f32], d: usize, eps: f32) {
    #[inline(always)]
    fn rows<'o, const R: usize>(
        o: &'o mut [f32],
        gv: &[f32],
        bv: &[f32],
        d: usize,
        eps: f32,
    ) -> &'o mut [f32] {
        let (gv, bv) = (&gv[..d], &bv[..d]);
        let mut blocks = o.chunks_exact_mut(R * d);
        for block in blocks.by_ref() {
            let mut r = split_rows::<R>(block, d);
            let mut s = [sum_start(); R];
            for p in 0..d {
                for (s, row) in s.iter_mut().zip(&r) {
                    *s += row[p];
                }
            }
            let mean = s.map(|x| x / d as f32);
            let mut vs = [sum_start(); R];
            for p in 0..d {
                for ((v, row), &m) in vs.iter_mut().zip(&r).zip(&mean) {
                    *v += (row[p] - m) * (row[p] - m);
                }
            }
            let inv = vs.map(|v| 1.0 / (v / d as f32 + eps).sqrt());
            // Element-wise: a row at a time, so the loop runs across `j`.
            for ((row, &m), &i) in r.iter_mut().zip(&mean).zip(&inv) {
                for ((v, &g), &b) in row.iter_mut().zip(gv).zip(bv) {
                    *v = (*v - m) * i * g + b;
                }
            }
        }
        blocks.into_remainder()
    }
    if d == 0 {
        return;
    }
    let rest = rows::<NORM_ROWS>(o, gv, bv, d, eps);
    let rest = rows::<4>(rest, gv, bv, d, eps);
    rows::<1>(rest, gv, bv, d, eps);
}

/// Serializable plan descriptors: a plain-data mirror of [`Plan`]
/// (`PlanDesc` ⇄ `Plan`) for persisting compiled plans next to trained
/// weights.
///
/// A plan is pure data — lowered steps, symbolic (`c`/`c·B`) shapes, and a
/// slot table — so a runner that never sees the [`Recorder`] can replay a
/// pre-fused plan from disk. Because the bytes may come from an untrusted
/// file, [`Plan::from_desc`] re-validates **every** invariant the planner
/// normally guarantees before a descriptor becomes an executable plan:
///
/// * all indices (buffers, slots, parameters, inputs, outputs) in range,
/// * every count and shape constant below a hard decode cap (no
///   attacker-sized allocations),
/// * each step's declared geometry consistent: the output buffer's symbolic
///   size equals the step's computed output size, and every operand buffer
///   /parameter/input exactly matches the size the kernel will read,
/// * each buffer's slot large enough for the buffer at every batch size,
/// * every float constant a step carries (`Bmm.scale`, layer-norm `eps`,
///   `Scale` / `AddScalar` in a fused chain) finite,
/// * buffers written exactly once, read only after they are written,
/// * an operand may share the output's arena slot only where the
///   interpreter has a sanctioned in-place path (the same rule
///   [`RunCtx`]'s `assert_disjoint` enforces at replay).
///
/// A descriptor that passes produces a plan whose replay stays in bounds
/// for any batch size — a hostile file can yield garbage *values* at
/// worst, never an out-of-bounds access or a panic.
///
/// On disk a descriptor is bytes, not text: [`desc::PlanDesc::encode_into`] /
/// [`desc::PlanDesc::decode`] are one fixed-width little-endian encoding in
/// which every value has exactly one form, so a descriptor round-trips
/// both ways by construction. `decode` checks what bytes alone can be
/// wrong about — tags, counts against the caps below and against the
/// bytes left, short reads — and answers with a typed error carrying the
/// offset; `from_desc` stays the one validator of what the bytes say.
pub mod desc {
    use super::*;

    /// Largest constant allowed in a dim / size field (elements).
    pub const MAX_DIM_CONST: usize = 1 << 24;
    /// Largest table length (steps, buffers, slots) accepted.
    pub const MAX_TABLE: usize = 1 << 16;
    /// Largest fused element-wise chain accepted.
    pub const MAX_CHAIN: usize = 1 << 10;
    /// Largest input/output arity accepted.
    pub const MAX_PORTS: usize = 64;
    /// Largest tensor rank accepted.
    pub const MAX_RANK: usize = 8;
    /// Cap on the total symbolic arena size (sum over slots of
    /// `coef + fixed`): bounds what a loaded plan can make [`PlanExec`]
    /// allocate per batch unit.
    pub const MAX_ARENA: usize = 1 << 26;

    /// Typed failure decoding or validating a [`PlanDesc`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum PlanDecodeError {
        /// An index points outside its table.
        Index {
            /// Which table the index points into.
            what: &'static str,
            /// The offending index.
            index: usize,
            /// The table's length.
            len: usize,
        },
        /// A declared count or constant exceeds the decode cap.
        Limit {
            /// What was being counted.
            what: &'static str,
            /// The declared value.
            value: usize,
            /// The cap.
            max: usize,
        },
        /// A step's declared geometry is inconsistent or unsafe.
        Step {
            /// Index of the offending step.
            step: usize,
            /// What is wrong with it.
            reason: String,
        },
        /// An input record is invalid.
        Input {
            /// Index of the offending input.
            input: usize,
            /// What is wrong with it.
            reason: String,
        },
        /// An output record is invalid.
        Output {
            /// Index of the offending output.
            output: usize,
            /// What is wrong with it.
            reason: String,
        },
        /// The byte form ends inside a value ([`PlanDesc::decode`]).
        Truncated {
            /// Byte offset of the value, from where decoding started.
            offset: usize,
            /// Bytes the value needs.
            needed: usize,
            /// Bytes left.
            have: usize,
        },
        /// A one-byte tag names no variant of its enum
        /// ([`PlanDesc::decode`]).
        Tag {
            /// The enum being read.
            what: &'static str,
            /// Byte offset of the tag, from where decoding started.
            offset: usize,
            /// The byte found.
            tag: u8,
        },
    }

    impl fmt::Display for PlanDecodeError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                PlanDecodeError::Index { what, index, len } => {
                    write!(f, "{what} index {index} out of range (table has {len})")
                }
                PlanDecodeError::Limit { what, value, max } => {
                    write!(f, "{what} {value} exceeds the decode cap {max}")
                }
                PlanDecodeError::Step { step, reason } => {
                    write!(f, "step {step}: {reason}")
                }
                PlanDecodeError::Input { input, reason } => {
                    write!(f, "input {input}: {reason}")
                }
                PlanDecodeError::Output { output, reason } => {
                    write!(f, "output {output}: {reason}")
                }
                PlanDecodeError::Truncated {
                    offset,
                    needed,
                    have,
                } => write!(
                    f,
                    "plan bytes end at offset {offset}: need {needed} more, have {have}"
                ),
                PlanDecodeError::Tag { what, offset, tag } => {
                    write!(f, "unknown {what} tag {tag} at offset {offset}")
                }
            }
        }
    }

    impl std::error::Error for PlanDecodeError {}

    /// A symbolic dimension: constant or linear in the batch size.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum DimDesc {
        /// A batch-independent constant.
        Fixed(usize),
        /// `c · B`.
        PerBatch(usize),
    }

    /// A symbolic element count `coef · B + fixed`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SizeDesc {
        /// Batch-linear component.
        pub coef: usize,
        /// Constant component.
        pub fixed: usize,
    }

    /// Where a step reads from.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum SrcDesc {
        /// An arena buffer, by buffer id.
        Buf(usize),
        /// A parameter, by dense store index.
        Param(usize),
        /// A replay-time input, by position.
        Input(usize),
    }

    /// A GEMM write-back activation.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ActDesc {
        /// No activation.
        Identity,
        /// `v.max(0.0)`.
        Relu,
        /// `v.tanh()`.
        Tanh,
        /// `1 / (1 + exp(-v))`.
        Sigmoid,
    }

    /// Element-wise binary kind.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ZipKindDesc {
        /// `a + b`.
        Add,
        /// `a - b`.
        Sub,
        /// `a * b`.
        Mul,
    }

    /// Broadcast-row binary kind.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RowKindDesc {
        /// `x + row`.
        Add,
        /// `x - row`.
        Sub,
    }

    /// One scalar function of a fused chain (mirrors [`MapOp`], so
    /// internal refactors never silently change the wire format).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum MapOpDesc {
        /// `v * c`.
        Scale(f32),
        /// `v + c`.
        AddScalar(f32),
        /// `v.max(0.0)`.
        Relu,
        /// `v.tanh()`.
        Tanh,
        /// `1 / (1 + exp(-v))`.
        Sigmoid,
        /// `v.exp()`.
        Exp,
        /// `v.abs()`.
        Abs,
        /// `v.sqrt()`.
        Sqrt,
        /// `v * v`.
        Square,
    }

    /// The compiler's optimization counters (mirrors [`PlanStats`]).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct PlanStatsDesc {
        /// Ops captured by the recorder.
        pub recorded_ops: usize,
        /// Recorded ops eliminated as common subexpressions.
        pub cse_deduped: usize,
        /// Lowered steps the interpreter replays per batch.
        pub steps: usize,
        /// Reshapes elided into aliases.
        pub elided_reshapes: usize,
        /// Bias rows fused into GEMM epilogues.
        pub fused_bias: usize,
        /// Activations fused into GEMM epilogues.
        pub fused_activations: usize,
        /// Scalar multiplies fused into batched-GEMM epilogues.
        pub fused_bmm_scales: usize,
        /// Element-wise ops folded into a preceding step's chain.
        pub fused_elementwise: usize,
        /// Steps that write in place over a dead input.
        pub inplace_steps: usize,
        /// Distinct intermediate buffers.
        pub buffers: usize,
        /// Arena slots after liveness-based aliasing.
        pub arena_slots: usize,
    }

    /// One concatenated part: its source and trailing-dim width.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ConcatPartDesc {
        /// Where the part is read from.
        pub src: SrcDesc,
        /// The part's trailing-dim width.
        pub width: DimDesc,
    }

    /// One lowered instruction (mirrors the interpreter's step kinds).
    #[derive(Debug, Clone, PartialEq)]
    pub enum StepKindDesc {
        /// `out = act(a · b + bias)` fused into the GEMM write-back.
        Gemm {
            /// Left operand `[m, k]`.
            a: SrcDesc,
            /// Right operand `[k, n]`.
            b: SrcDesc,
            /// Output rows.
            m: DimDesc,
            /// Contraction length.
            k: DimDesc,
            /// Output columns.
            n: DimDesc,
            /// Optional fused bias row of width `n`.
            bias: Option<SrcDesc>,
            /// Fused activation.
            act: ActDesc,
        },
        /// Batched matmul.
        Bmm {
            /// Left operand.
            a: SrcDesc,
            /// Right operand.
            b: SrcDesc,
            /// Transpose `a`.
            ta: bool,
            /// Transpose `b`.
            tb: bool,
            /// Batch count.
            batch: DimDesc,
            /// Output rows per batch.
            m: DimDesc,
            /// Contraction length.
            k: DimDesc,
            /// Output columns per batch.
            n: DimDesc,
            /// Scalar fused into the write-back.
            scale: Option<f32>,
        },
        /// `[b, l, d] -> [b·h, l, d/h]`.
        SplitHeads {
            /// Input.
            x: SrcDesc,
            /// Head count.
            h: usize,
            /// Batch dim.
            b: DimDesc,
            /// Sequence length.
            l: DimDesc,
            /// Model width (must divide by `h`).
            d: DimDesc,
        },
        /// `[b·h, l, dh] -> [b, l, h·dh]`.
        MergeHeads {
            /// Input.
            x: SrcDesc,
            /// Head count.
            h: usize,
            /// Batch × heads dim (must divide by `h`).
            bh: DimDesc,
            /// Sequence length.
            l: DimDesc,
            /// Per-head width.
            dh: DimDesc,
        },
        /// Row-wise softmax over the trailing dim.
        Softmax {
            /// Input.
            x: SrcDesc,
            /// Row count.
            rows: DimDesc,
            /// Trailing dim.
            d: DimDesc,
        },
        /// Row-wise layer normalization.
        LayerNorm {
            /// Input.
            x: SrcDesc,
            /// Scale row of width `d`.
            gamma: SrcDesc,
            /// Shift row of width `d`.
            beta: SrcDesc,
            /// Variance epsilon.
            eps: f32,
            /// Row count.
            rows: DimDesc,
            /// Trailing dim.
            d: DimDesc,
        },
        /// Fused element-wise chain (empty `ops` is a plain copy).
        Map {
            /// Input.
            x: SrcDesc,
            /// The fused scalar chain.
            ops: Vec<MapOpDesc>,
            /// Element count.
            len: DimDesc,
        },
        /// Element-wise binary with a fused trailing chain.
        Zip {
            /// Left operand.
            a: SrcDesc,
            /// Right operand.
            b: SrcDesc,
            /// The binary op.
            kind: ZipKindDesc,
            /// The fused scalar chain.
            ops: Vec<MapOpDesc>,
            /// Element count.
            len: DimDesc,
        },
        /// Broadcast-row binary with a fused trailing chain.
        RowOp {
            /// Input.
            x: SrcDesc,
            /// The broadcast row of width `d`.
            row: SrcDesc,
            /// The binary op.
            kind: RowKindDesc,
            /// The fused scalar chain.
            ops: Vec<MapOpDesc>,
            /// Row count.
            rows: DimDesc,
            /// Trailing dim.
            d: DimDesc,
        },
        /// Concatenation along the trailing dim with a fused chain.
        Concat {
            /// The concatenated parts, in order.
            parts: Vec<ConcatPartDesc>,
            /// Row count.
            rows: DimDesc,
            /// The fused scalar chain.
            ops: Vec<MapOpDesc>,
        },
        /// Trailing-dim slice `[start, end)`.
        SliceLast {
            /// Input.
            x: SrcDesc,
            /// Row count.
            rows: DimDesc,
            /// Input trailing dim.
            d: DimDesc,
            /// Slice start (inclusive).
            start: usize,
            /// Slice end (exclusive).
            end: usize,
        },
    }

    /// One step: a kind plus the buffer it writes.
    #[derive(Debug, Clone, PartialEq)]
    pub struct StepDesc {
        /// The instruction.
        pub kind: StepKindDesc,
        /// Output buffer id.
        pub out: usize,
    }

    /// An arena buffer: its symbolic size and assigned slot.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct BufDesc {
        /// Symbolic element count.
        pub size: SizeDesc,
        /// Arena slot id.
        pub slot: usize,
    }

    /// One plan output: the buffer it reads and its symbolic shape.
    #[derive(Debug, Clone, PartialEq)]
    pub struct OutputDesc {
        /// Where the output lives (must be a buffer).
        pub src: SrcDesc,
        /// The output's symbolic shape.
        pub dims: Vec<DimDesc>,
    }

    /// The serializable mirror of a compiled [`Plan`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct PlanDesc {
        /// Lowered steps, in execution order.
        pub steps: Vec<StepDesc>,
        /// Buffer table.
        pub bufs: Vec<BufDesc>,
        /// Arena slot sizes.
        pub slot_sizes: Vec<SizeDesc>,
        /// Symbolic shapes of the replay-time inputs.
        pub inputs: Vec<Vec<DimDesc>>,
        /// Plan outputs.
        pub outputs: Vec<OutputDesc>,
        /// The compiler's optimization counters.
        pub stats: PlanStatsDesc,
    }

    // ---- Plan -> PlanDesc -------------------------------------------------

    fn dim_desc(d: Dim) -> DimDesc {
        match d {
            Dim::Fixed(n) => DimDesc::Fixed(n),
            Dim::PerBatch(c) => DimDesc::PerBatch(c),
        }
    }

    fn size_desc(s: Size) -> SizeDesc {
        SizeDesc {
            coef: s.coef,
            fixed: s.fixed,
        }
    }

    fn src_desc(s: Src) -> SrcDesc {
        match s {
            Src::Buf(b) => SrcDesc::Buf(b),
            Src::Param(id) => SrcDesc::Param(id.index()),
            Src::Input(i) => SrcDesc::Input(i),
        }
    }

    fn act_desc(a: Activation) -> ActDesc {
        match a {
            Activation::Identity => ActDesc::Identity,
            Activation::Relu => ActDesc::Relu,
            Activation::Tanh => ActDesc::Tanh,
            Activation::Sigmoid => ActDesc::Sigmoid,
        }
    }

    fn zip_desc(k: ZipKind) -> ZipKindDesc {
        match k {
            ZipKind::Add => ZipKindDesc::Add,
            ZipKind::Sub => ZipKindDesc::Sub,
            ZipKind::Mul => ZipKindDesc::Mul,
        }
    }

    fn row_desc(k: RowKind) -> RowKindDesc {
        match k {
            RowKind::Add => RowKindDesc::Add,
            RowKind::Sub => RowKindDesc::Sub,
        }
    }

    fn map_op_desc(op: MapOp) -> MapOpDesc {
        match op {
            MapOp::Scale(c) => MapOpDesc::Scale(c),
            MapOp::AddScalar(c) => MapOpDesc::AddScalar(c),
            MapOp::Relu => MapOpDesc::Relu,
            MapOp::Tanh => MapOpDesc::Tanh,
            MapOp::Sigmoid => MapOpDesc::Sigmoid,
            MapOp::Exp => MapOpDesc::Exp,
            MapOp::Abs => MapOpDesc::Abs,
            MapOp::Sqrt => MapOpDesc::Sqrt,
            MapOp::Square => MapOpDesc::Square,
        }
    }

    fn map_op_from(op: MapOpDesc) -> MapOp {
        match op {
            MapOpDesc::Scale(c) => MapOp::Scale(c),
            MapOpDesc::AddScalar(c) => MapOp::AddScalar(c),
            MapOpDesc::Relu => MapOp::Relu,
            MapOpDesc::Tanh => MapOp::Tanh,
            MapOpDesc::Sigmoid => MapOp::Sigmoid,
            MapOpDesc::Exp => MapOp::Exp,
            MapOpDesc::Abs => MapOp::Abs,
            MapOpDesc::Sqrt => MapOp::Sqrt,
            MapOpDesc::Square => MapOp::Square,
        }
    }

    fn stats_desc(s: PlanStats) -> PlanStatsDesc {
        PlanStatsDesc {
            recorded_ops: s.recorded_ops,
            cse_deduped: s.cse_deduped,
            steps: s.steps,
            elided_reshapes: s.elided_reshapes,
            fused_bias: s.fused_bias,
            fused_activations: s.fused_activations,
            fused_bmm_scales: s.fused_bmm_scales,
            fused_elementwise: s.fused_elementwise,
            inplace_steps: s.inplace_steps,
            buffers: s.buffers,
            arena_slots: s.arena_slots,
        }
    }

    fn stats_from(s: PlanStatsDesc) -> PlanStats {
        PlanStats {
            recorded_ops: s.recorded_ops,
            cse_deduped: s.cse_deduped,
            steps: s.steps,
            elided_reshapes: s.elided_reshapes,
            fused_bias: s.fused_bias,
            fused_activations: s.fused_activations,
            fused_bmm_scales: s.fused_bmm_scales,
            fused_elementwise: s.fused_elementwise,
            inplace_steps: s.inplace_steps,
            buffers: s.buffers,
            arena_slots: s.arena_slots,
        }
    }

    fn kind_desc(k: &StepKind) -> StepKindDesc {
        match k {
            StepKind::Gemm {
                a,
                b,
                m,
                k,
                n,
                bias,
                act,
            } => StepKindDesc::Gemm {
                a: src_desc(*a),
                b: src_desc(*b),
                m: dim_desc(*m),
                k: dim_desc(*k),
                n: dim_desc(*n),
                bias: bias.map(src_desc),
                act: act_desc(*act),
            },
            StepKind::Bmm {
                a,
                b,
                ta,
                tb,
                batch,
                m,
                k,
                n,
                scale,
            } => StepKindDesc::Bmm {
                a: src_desc(*a),
                b: src_desc(*b),
                ta: *ta,
                tb: *tb,
                batch: dim_desc(*batch),
                m: dim_desc(*m),
                k: dim_desc(*k),
                n: dim_desc(*n),
                scale: *scale,
            },
            StepKind::SplitHeads { x, h, b, l, d } => StepKindDesc::SplitHeads {
                x: src_desc(*x),
                h: *h,
                b: dim_desc(*b),
                l: dim_desc(*l),
                d: dim_desc(*d),
            },
            StepKind::MergeHeads { x, h, bh, l, dh } => StepKindDesc::MergeHeads {
                x: src_desc(*x),
                h: *h,
                bh: dim_desc(*bh),
                l: dim_desc(*l),
                dh: dim_desc(*dh),
            },
            StepKind::Softmax { x, rows, d } => StepKindDesc::Softmax {
                x: src_desc(*x),
                rows: dim_desc(*rows),
                d: dim_desc(*d),
            },
            StepKind::LayerNorm {
                x,
                gamma,
                beta,
                eps,
                rows,
                d,
            } => StepKindDesc::LayerNorm {
                x: src_desc(*x),
                gamma: src_desc(*gamma),
                beta: src_desc(*beta),
                eps: *eps,
                rows: dim_desc(*rows),
                d: dim_desc(*d),
            },
            StepKind::Map { x, ops, len } => StepKindDesc::Map {
                x: src_desc(*x),
                ops: ops.iter().copied().map(map_op_desc).collect(),
                len: dim_desc(*len),
            },
            StepKind::Zip {
                a,
                b,
                kind,
                ops,
                len,
            } => StepKindDesc::Zip {
                a: src_desc(*a),
                b: src_desc(*b),
                kind: zip_desc(*kind),
                ops: ops.iter().copied().map(map_op_desc).collect(),
                len: dim_desc(*len),
            },
            StepKind::RowOp {
                x,
                row,
                kind,
                ops,
                rows,
                d,
            } => StepKindDesc::RowOp {
                x: src_desc(*x),
                row: src_desc(*row),
                kind: row_desc(*kind),
                ops: ops.iter().copied().map(map_op_desc).collect(),
                rows: dim_desc(*rows),
                d: dim_desc(*d),
            },
            StepKind::Concat { parts, rows, ops } => StepKindDesc::Concat {
                parts: parts
                    .iter()
                    .map(|(s, w)| ConcatPartDesc {
                        src: src_desc(*s),
                        width: dim_desc(*w),
                    })
                    .collect(),
                rows: dim_desc(*rows),
                ops: ops.iter().copied().map(map_op_desc).collect(),
            },
            StepKind::SliceLast {
                x,
                rows,
                d,
                start,
                end,
            } => StepKindDesc::SliceLast {
                x: src_desc(*x),
                rows: dim_desc(*rows),
                d: dim_desc(*d),
                start: *start,
                end: *end,
            },
        }
    }

    // ---- PlanDesc <-> bytes -----------------------------------------------
    //
    // One width per kind of value and nothing variable-length, all
    // little-endian: an enum is a one-byte tag and then its fields; an
    // index into a table (`SrcDesc`, `StepDesc::out`, `BufDesc::slot`) a
    // `u16`, tables being capped at 2^16 entries; a `DimDesc` one `u32`,
    // bit 31 set for `PerBatch` over a constant capped at 2^24; every
    // other integer a `u32`; an `f32` its bits; a `bool` or `Option` a 0/1
    // byte; a list a `u32` count and then its elements. A value has
    // exactly one encoding, so `decode(encode(d)) == d` and
    // `encode(decode(b)) == b`. An integer its field cannot hold is
    // written as the field's maximum, which `from_desc` refuses like the
    // value it replaces (a full 2^16-entry table aside). The reader only
    // turns bytes into a `PlanDesc`; whether that is a plan is
    // `Plan::from_desc`'s business alone.

    /// The bytes still to be read, and how many there were at the start
    /// (error offsets count from there).
    struct Reader<'a> {
        rest: &'a [u8],
        start: usize,
    }

    impl Reader<'_> {
        fn offset(&self) -> usize {
            self.start - self.rest.len()
        }

        fn take<const N: usize>(&mut self) -> Result<[u8; N], PlanDecodeError> {
            match self.rest.split_first_chunk::<N>() {
                Some((head, tail)) => {
                    self.rest = tail;
                    Ok(*head)
                }
                None => Err(PlanDecodeError::Truncated {
                    offset: self.offset(),
                    needed: N,
                    have: self.rest.len(),
                }),
            }
        }
    }

    /// A value's byte form: `put` appends it, `get` reads it back. Both
    /// are written from one field list per type (`wire!`), so they cannot
    /// disagree on order or width.
    trait Wire: Sized {
        fn put(&self, out: &mut Vec<u8>);
        fn get(r: &mut Reader<'_>) -> Result<Self, PlanDecodeError>;
    }

    /// `Wire` for a struct, or for an enum of unit / tuple / struct
    /// variants under the tags listed, field by field in the order listed;
    /// a `usize` marked `: idx` travels as a table index.
    macro_rules! wire {
        (struct $ty:ident { $($f:ident $(: $as:ident)?),+ }) => {
            impl Wire for $ty {
                fn put(&self, out: &mut Vec<u8>) {
                    $(wire!(@put self.$f, out $(, $as)?);)+
                }
                fn get(r: &mut Reader<'_>) -> Result<Self, PlanDecodeError> {
                    Ok($ty { $($f: wire!(@get r $(, $as)?)),+ })
                }
            }
        };
        (enum $ty:ident as $what:literal {
            $($tag:literal => $v:ident $(($($t:ident $(: $as:ident)?),+))? $({$($s:ident),+})?),+
        }) => {
            impl Wire for $ty {
                fn put(&self, out: &mut Vec<u8>) {
                    match self {
                        $($ty::$v $(($($t),+))? $({$($s),+})? => {
                            out.push($tag);
                            $($(wire!(@put *$t, out $(, $as)?);)+)?
                            $($($s.put(out);)+)?
                        })+
                    }
                }
                fn get(r: &mut Reader<'_>) -> Result<Self, PlanDecodeError> {
                    let offset = r.offset();
                    Ok(match u8::from_le_bytes(r.take()?) {
                        $($tag => $ty::$v
                            $(($(wire!(@get r $(, $as)?)),+))? $({$($s: Wire::get(r)?),+})?,)+
                        tag => return Err(PlanDecodeError::Tag { what: $what, offset, tag }),
                    })
                }
            }
        };
        (@put $v:expr, $out:ident) => { $v.put($out) };
        (@put $v:expr, $out:ident, idx) => { Idx($v).put($out) };
        (@get $r:ident) => { Wire::get($r)? };
        (@get $r:ident, idx) => { Idx::get($r)?.0 };
    }

    wire!(enum SrcDesc as "source" { 0 => Buf(i: idx), 1 => Param(i: idx), 2 => Input(i: idx) });
    wire!(enum ActDesc as "activation" { 0 => Identity, 1 => Relu, 2 => Tanh, 3 => Sigmoid });
    wire!(enum ZipKindDesc as "zip kind" { 0 => Add, 1 => Sub, 2 => Mul });
    wire!(enum RowKindDesc as "row kind" { 0 => Add, 1 => Sub });
    wire!(enum MapOpDesc as "map op" {
        0 => Scale(c), 1 => AddScalar(c), 2 => Relu, 3 => Tanh, 4 => Sigmoid,
        5 => Exp, 6 => Abs, 7 => Sqrt, 8 => Square
    });
    wire!(enum StepKindDesc as "step kind" {
        0 => Gemm { a, b, m, k, n, bias, act },
        1 => Bmm { a, b, ta, tb, batch, m, k, n, scale },
        2 => SplitHeads { x, h, b, l, d },
        3 => MergeHeads { x, h, bh, l, dh },
        4 => Softmax { x, rows, d },
        5 => LayerNorm { x, gamma, beta, eps, rows, d },
        6 => Map { x, ops, len },
        7 => Zip { a, b, kind, ops, len },
        8 => RowOp { x, row, kind, ops, rows, d },
        9 => Concat { parts, rows, ops },
        10 => SliceLast { x, rows, d, start, end }
    });
    wire!(struct SizeDesc { coef, fixed });
    wire!(struct ConcatPartDesc { src, width });
    wire!(struct StepDesc { kind, out: idx });
    wire!(struct BufDesc { size, slot: idx });
    wire!(struct OutputDesc { src, dims });
    wire!(struct PlanStatsDesc {
        recorded_ops, cse_deduped, steps, elided_reshapes, fused_bias, fused_activations,
        fused_bmm_scales, fused_elementwise, inplace_steps, buffers, arena_slots
    });
    wire!(struct PlanDesc { steps, bufs, slot_sizes, inputs, outputs, stats });

    impl Wire for usize {
        fn put(&self, out: &mut Vec<u8>) {
            let v = u32::try_from(*self).unwrap_or(u32::MAX);
            out.extend_from_slice(&v.to_le_bytes());
        }
        fn get(r: &mut Reader<'_>) -> Result<Self, PlanDecodeError> {
            Ok(u32::from_le_bytes(r.take()?) as usize)
        }
    }

    /// A table index on the wire.
    struct Idx(usize);

    impl Wire for Idx {
        fn put(&self, out: &mut Vec<u8>) {
            let v = u16::try_from(self.0).unwrap_or(u16::MAX);
            out.extend_from_slice(&v.to_le_bytes());
        }
        fn get(r: &mut Reader<'_>) -> Result<Self, PlanDecodeError> {
            Ok(Idx(u16::from_le_bytes(r.take()?) as usize))
        }
    }

    /// Bit 31 of a [`DimDesc`]'s word: set for `PerBatch`.
    const PER_BATCH: u32 = 1 << 31;

    impl Wire for DimDesc {
        fn put(&self, out: &mut Vec<u8>) {
            let (flag, v) = match *self {
                DimDesc::Fixed(n) => (0, n),
                DimDesc::PerBatch(c) => (PER_BATCH, c),
            };
            let v = u32::try_from(v).map_or(PER_BATCH - 1, |v| v.min(PER_BATCH - 1));
            out.extend_from_slice(&(flag | v).to_le_bytes());
        }
        fn get(r: &mut Reader<'_>) -> Result<Self, PlanDecodeError> {
            let word = u32::from_le_bytes(r.take()?);
            let v = (word & !PER_BATCH) as usize;
            Ok(if word & PER_BATCH == 0 {
                DimDesc::Fixed(v)
            } else {
                DimDesc::PerBatch(v)
            })
        }
    }

    impl Wire for f32 {
        fn put(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.to_bits().to_le_bytes());
        }
        fn get(r: &mut Reader<'_>) -> Result<Self, PlanDecodeError> {
            Ok(f32::from_bits(u32::from_le_bytes(r.take()?)))
        }
    }

    impl Wire for bool {
        fn put(&self, out: &mut Vec<u8>) {
            out.push(u8::from(*self));
        }
        fn get(r: &mut Reader<'_>) -> Result<Self, PlanDecodeError> {
            let offset = r.offset();
            match u8::from_le_bytes(r.take()?) {
                0 => Ok(false),
                1 => Ok(true),
                tag => Err(PlanDecodeError::Tag {
                    what: "flag",
                    offset,
                    tag,
                }),
            }
        }
    }

    impl<T: Wire> Wire for Option<T> {
        fn put(&self, out: &mut Vec<u8>) {
            out.push(u8::from(self.is_some()));
            if let Some(v) = self {
                v.put(out);
            }
        }
        fn get(r: &mut Reader<'_>) -> Result<Self, PlanDecodeError> {
            Ok(if bool::get(r)? {
                Some(T::get(r)?)
            } else {
                None
            })
        }
    }

    /// An element type of a list field: what `from_desc` calls that list
    /// and the cap it holds it to — enforced here too, before the count
    /// sizes an allocation.
    trait Listed: Wire {
        const WHAT: &'static str;
        const MAX: usize;
    }

    macro_rules! listed {
        ($($ty:ty: $what:literal <= $max:expr),+) => {
            $(impl Listed for $ty {
                const WHAT: &'static str = $what;
                const MAX: usize = $max;
            })+
        };
    }

    listed!(
        StepDesc: "steps" <= MAX_TABLE,
        BufDesc: "buffers" <= MAX_TABLE,
        SizeDesc: "slots" <= MAX_TABLE,
        Vec<DimDesc>: "inputs" <= MAX_PORTS,
        OutputDesc: "outputs" <= MAX_PORTS,
        DimDesc: "rank" <= MAX_RANK,
        MapOpDesc: "element-wise chain length" <= MAX_CHAIN,
        ConcatPartDesc: "concat parts" <= MAX_PORTS
    );

    impl<T: Listed> Wire for Vec<T> {
        fn put(&self, out: &mut Vec<u8>) {
            self.len().put(out);
            self.iter().for_each(|v| v.put(out));
        }
        fn get(r: &mut Reader<'_>) -> Result<Self, PlanDecodeError> {
            let n = usize::get(r)?;
            if n > T::MAX {
                return Err(PlanDecodeError::Limit {
                    what: T::WHAT,
                    value: n,
                    max: T::MAX,
                });
            }
            // An element is at least one byte, so the bytes left bound
            // the count as well.
            if n > r.rest.len() {
                return Err(PlanDecodeError::Truncated {
                    offset: r.offset(),
                    needed: n,
                    have: r.rest.len(),
                });
            }
            let mut list = Vec::with_capacity(n);
            for _ in 0..n {
                list.push(T::get(r)?);
            }
            Ok(list)
        }
    }

    impl PlanDesc {
        /// Appends the descriptor's byte form (fixed-width, little-endian,
        /// canonical: equal descriptors append equal bytes).
        pub fn encode_into(&self, out: &mut Vec<u8>) {
            self.put(out);
        }

        /// Reads one descriptor off the front of `bytes` and leaves
        /// `bytes` at what follows it (untouched on error). Every count
        /// is held to its decode cap and to the bytes left before it
        /// sizes an allocation; the result is data, not yet a plan —
        /// [`Plan::from_desc`] validates it.
        pub fn decode(bytes: &mut &[u8]) -> Result<PlanDesc, PlanDecodeError> {
            let mut r = Reader {
                rest: bytes,
                start: bytes.len(),
            };
            let desc = PlanDesc::get(&mut r)?;
            *bytes = r.rest;
            Ok(desc)
        }
    }

    // ---- PlanDesc -> Plan (validated) -------------------------------------

    struct Decoder<'d, 'p> {
        desc: &'d PlanDesc,
        params: &'p ParamStore,
    }

    impl Decoder<'_, '_> {
        fn dim(&self, d: DimDesc, what: &'static str) -> Result<Dim, PlanDecodeError> {
            let v = match d {
                DimDesc::Fixed(n) => n,
                DimDesc::PerBatch(c) => c,
            };
            if v == 0 || v > MAX_DIM_CONST {
                return Err(PlanDecodeError::Limit {
                    what,
                    value: v,
                    max: MAX_DIM_CONST,
                });
            }
            Ok(match d {
                DimDesc::Fixed(n) => Dim::Fixed(n),
                DimDesc::PerBatch(c) => Dim::PerBatch(c),
            })
        }

        fn size(&self, s: SizeDesc, what: &'static str) -> Result<Size, PlanDecodeError> {
            if s.coef > MAX_DIM_CONST || s.fixed > MAX_DIM_CONST {
                return Err(PlanDecodeError::Limit {
                    what,
                    value: s.coef.max(s.fixed),
                    max: MAX_DIM_CONST,
                });
            }
            Ok(Size {
                coef: s.coef,
                fixed: s.fixed,
            })
        }

        fn src(&self, s: SrcDesc) -> Result<Src, PlanDecodeError> {
            match s {
                SrcDesc::Buf(b) => {
                    if b >= self.desc.bufs.len() {
                        return Err(PlanDecodeError::Index {
                            what: "buffer",
                            index: b,
                            len: self.desc.bufs.len(),
                        });
                    }
                    Ok(Src::Buf(b))
                }
                SrcDesc::Param(i) => {
                    if i >= self.params.len() {
                        return Err(PlanDecodeError::Index {
                            what: "parameter",
                            index: i,
                            len: self.params.len(),
                        });
                    }
                    Ok(Src::Param(ParamId(i)))
                }
                SrcDesc::Input(i) => {
                    if i >= self.desc.inputs.len() {
                        return Err(PlanDecodeError::Index {
                            what: "input",
                            index: i,
                            len: self.desc.inputs.len(),
                        });
                    }
                    Ok(Src::Input(i))
                }
            }
        }

        fn chain(&self, ops: &[MapOpDesc]) -> Result<Vec<MapOp>, PlanDecodeError> {
            if ops.len() > MAX_CHAIN {
                return Err(PlanDecodeError::Limit {
                    what: "element-wise chain length",
                    value: ops.len(),
                    max: MAX_CHAIN,
                });
            }
            Ok(ops.iter().copied().map(map_op_from).collect())
        }

        fn kind(&self, k: &StepKindDesc) -> Result<StepKind, PlanDecodeError> {
            Ok(match k {
                StepKindDesc::Gemm {
                    a,
                    b,
                    m,
                    k,
                    n,
                    bias,
                    act,
                } => StepKind::Gemm {
                    a: self.src(*a)?,
                    b: self.src(*b)?,
                    m: self.dim(*m, "gemm m")?,
                    k: self.dim(*k, "gemm k")?,
                    n: self.dim(*n, "gemm n")?,
                    bias: bias.map(|s| self.src(s)).transpose()?,
                    act: match act {
                        ActDesc::Identity => Activation::Identity,
                        ActDesc::Relu => Activation::Relu,
                        ActDesc::Tanh => Activation::Tanh,
                        ActDesc::Sigmoid => Activation::Sigmoid,
                    },
                },
                StepKindDesc::Bmm {
                    a,
                    b,
                    ta,
                    tb,
                    batch,
                    m,
                    k,
                    n,
                    scale,
                } => StepKind::Bmm {
                    a: self.src(*a)?,
                    b: self.src(*b)?,
                    ta: *ta,
                    tb: *tb,
                    batch: self.dim(*batch, "bmm batch")?,
                    m: self.dim(*m, "bmm m")?,
                    k: self.dim(*k, "bmm k")?,
                    n: self.dim(*n, "bmm n")?,
                    scale: *scale,
                },
                StepKindDesc::SplitHeads { x, h, b, l, d } => StepKind::SplitHeads {
                    x: self.src(*x)?,
                    h: *h,
                    b: self.dim(*b, "split b")?,
                    l: self.dim(*l, "split l")?,
                    d: self.dim(*d, "split d")?,
                },
                StepKindDesc::MergeHeads { x, h, bh, l, dh } => StepKind::MergeHeads {
                    x: self.src(*x)?,
                    h: *h,
                    bh: self.dim(*bh, "merge bh")?,
                    l: self.dim(*l, "merge l")?,
                    dh: self.dim(*dh, "merge dh")?,
                },
                StepKindDesc::Softmax { x, rows, d } => StepKind::Softmax {
                    x: self.src(*x)?,
                    rows: self.dim(*rows, "softmax rows")?,
                    d: self.dim(*d, "softmax d")?,
                },
                StepKindDesc::LayerNorm {
                    x,
                    gamma,
                    beta,
                    eps,
                    rows,
                    d,
                } => StepKind::LayerNorm {
                    x: self.src(*x)?,
                    gamma: self.src(*gamma)?,
                    beta: self.src(*beta)?,
                    eps: *eps,
                    rows: self.dim(*rows, "layer-norm rows")?,
                    d: self.dim(*d, "layer-norm d")?,
                },
                StepKindDesc::Map { x, ops, len } => StepKind::Map {
                    x: self.src(*x)?,
                    ops: self.chain(ops)?,
                    len: self.dim(*len, "map len")?,
                },
                StepKindDesc::Zip {
                    a,
                    b,
                    kind,
                    ops,
                    len,
                } => StepKind::Zip {
                    a: self.src(*a)?,
                    b: self.src(*b)?,
                    kind: match kind {
                        ZipKindDesc::Add => ZipKind::Add,
                        ZipKindDesc::Sub => ZipKind::Sub,
                        ZipKindDesc::Mul => ZipKind::Mul,
                    },
                    ops: self.chain(ops)?,
                    len: self.dim(*len, "zip len")?,
                },
                StepKindDesc::RowOp {
                    x,
                    row,
                    kind,
                    ops,
                    rows,
                    d,
                } => StepKind::RowOp {
                    x: self.src(*x)?,
                    row: self.src(*row)?,
                    kind: match kind {
                        RowKindDesc::Add => RowKind::Add,
                        RowKindDesc::Sub => RowKind::Sub,
                    },
                    ops: self.chain(ops)?,
                    rows: self.dim(*rows, "row-op rows")?,
                    d: self.dim(*d, "row-op d")?,
                },
                StepKindDesc::Concat { parts, rows, ops } => {
                    if parts.len() > MAX_PORTS {
                        return Err(PlanDecodeError::Limit {
                            what: "concat parts",
                            value: parts.len(),
                            max: MAX_PORTS,
                        });
                    }
                    StepKind::Concat {
                        parts: parts
                            .iter()
                            .map(|p| Ok((self.src(p.src)?, self.dim(p.width, "concat width")?)))
                            .collect::<Result<_, PlanDecodeError>>()?,
                        rows: self.dim(*rows, "concat rows")?,
                        ops: self.chain(ops)?,
                    }
                }
                StepKindDesc::SliceLast {
                    x,
                    rows,
                    d,
                    start,
                    end,
                } => StepKind::SliceLast {
                    x: self.src(*x)?,
                    rows: self.dim(*rows, "slice rows")?,
                    d: self.dim(*d, "slice d")?,
                    start: *start,
                    end: *end,
                },
            })
        }
    }

    /// A step's first float constant that is NaN or infinite: replaying
    /// it would answer the same garbage for every sample.
    fn non_finite_const(kind: &StepKindDesc) -> Option<f32> {
        let ops = match kind {
            StepKindDesc::Bmm { scale: Some(c), .. } | StepKindDesc::LayerNorm { eps: c, .. } => {
                return Some(*c).filter(|c| !c.is_finite());
            }
            StepKindDesc::Map { ops, .. }
            | StepKindDesc::Zip { ops, .. }
            | StepKindDesc::RowOp { ops, .. }
            | StepKindDesc::Concat { ops, .. } => ops,
            _ => return None,
        };
        ops.iter().find_map(|op| match op {
            MapOpDesc::Scale(c) | MapOpDesc::AddScalar(c) if !c.is_finite() => Some(*c),
            _ => None,
        })
    }

    /// Symbolic size of one dim.
    fn dsize(d: Dim) -> Size {
        match d {
            Dim::Fixed(n) => Size { coef: 0, fixed: n },
            Dim::PerBatch(c) => Size { coef: c, fixed: 0 },
        }
    }

    /// Symbolic product; errors when the result would be quadratic in `B`
    /// or overflows.
    fn smul(a: Size, b: Size) -> Result<Size, String> {
        if a.coef > 0 && b.coef > 0 {
            return Err("size is quadratic in the batch size".into());
        }
        let coef = a
            .coef
            .checked_mul(b.fixed)
            .and_then(|x| b.coef.checked_mul(a.fixed).map(|y| x + y))
            .ok_or("size overflows")?;
        let fixed = a.fixed.checked_mul(b.fixed).ok_or("size overflows")?;
        Ok(Size { coef, fixed })
    }

    fn sprod(dims: &[Dim]) -> Result<Size, String> {
        dims.iter()
            .try_fold(Size { coef: 0, fixed: 1 }, |acc, &d| smul(acc, dsize(d)))
    }

    /// Whether a fixed dim (or the per-batch coefficient) divides by `h`.
    fn divisible(d: Dim, h: usize) -> bool {
        match d {
            Dim::Fixed(n) => n % h == 0,
            Dim::PerBatch(c) => c % h == 0,
        }
    }

    /// One operand requirement: where it is read from, the exact symbolic
    /// size the kernel reads, and whether the interpreter has a sanctioned
    /// in-place path when it shares the output's slot.
    struct Operand {
        src: Src,
        need: Size,
        may_alias_out: bool,
    }

    /// Computes a step's exact output size and operand requirements, plus
    /// kind-specific structural checks (divisibility, slice bounds).
    fn step_io(kind: &StepKind) -> Result<(Size, Vec<Operand>), String> {
        let op = |src: Src, need: Size, may_alias_out: bool| Operand {
            src,
            need,
            may_alias_out,
        };
        Ok(match kind {
            StepKind::Gemm {
                a,
                b,
                m,
                k,
                n,
                bias,
                ..
            } => {
                let mut srcs = vec![
                    op(*a, sprod(&[*m, *k])?, false),
                    op(*b, sprod(&[*k, *n])?, false),
                ];
                if let Some(bs) = bias {
                    srcs.push(op(*bs, dsize(*n), false));
                }
                (sprod(&[*m, *n])?, srcs)
            }
            StepKind::Bmm {
                a,
                b,
                batch,
                m,
                k,
                n,
                ..
            } => (
                sprod(&[*batch, *m, *n])?,
                vec![
                    op(*a, sprod(&[*batch, *m, *k])?, false),
                    op(*b, sprod(&[*batch, *k, *n])?, false),
                ],
            ),
            StepKind::SplitHeads { x, h, b, l, d } => {
                if *h == 0 || !divisible(*d, *h) {
                    return Err(format!("split-heads width {d:?} not divisible by {h}"));
                }
                let numel = sprod(&[*b, *l, *d])?;
                (numel, vec![op(*x, numel, false)])
            }
            StepKind::MergeHeads { x, h, bh, l, dh } => {
                if *h == 0 || !divisible(*bh, *h) {
                    return Err(format!("merge-heads batch {bh:?} not divisible by {h}"));
                }
                let numel = sprod(&[*bh, *l, *dh])?;
                (numel, vec![op(*x, numel, false)])
            }
            StepKind::Softmax { x, rows, d } => {
                let numel = sprod(&[*rows, *d])?;
                (numel, vec![op(*x, numel, true)])
            }
            StepKind::LayerNorm {
                x,
                gamma,
                beta,
                rows,
                d,
                ..
            } => {
                let numel = sprod(&[*rows, *d])?;
                (
                    numel,
                    vec![
                        op(*x, numel, true),
                        op(*gamma, dsize(*d), false),
                        op(*beta, dsize(*d), false),
                    ],
                )
            }
            StepKind::Map { x, len, .. } => {
                let numel = dsize(*len);
                (numel, vec![op(*x, numel, true)])
            }
            StepKind::Zip { a, b, len, .. } => {
                let numel = dsize(*len);
                (numel, vec![op(*a, numel, true), op(*b, numel, true)])
            }
            StepKind::RowOp {
                x, row, rows, d, ..
            } => {
                let numel = sprod(&[*rows, *d])?;
                (numel, vec![op(*x, numel, true), op(*row, dsize(*d), false)])
            }
            StepKind::Concat { parts, rows, .. } => {
                let mut total = Size { coef: 0, fixed: 0 };
                let mut srcs = Vec::with_capacity(parts.len());
                for (s, w) in parts {
                    let ws = dsize(*w);
                    total.coef = total.coef.checked_add(ws.coef).ok_or("size overflows")?;
                    total.fixed = total.fixed.checked_add(ws.fixed).ok_or("size overflows")?;
                    srcs.push(op(*s, smul(dsize(*rows), ws)?, false));
                }
                (smul(dsize(*rows), total)?, srcs)
            }
            StepKind::SliceLast {
                x,
                rows,
                d,
                start,
                end,
            } => {
                let d_min = match d {
                    Dim::Fixed(n) => *n,
                    Dim::PerBatch(c) => *c,
                };
                if *start > *end || *end > d_min {
                    return Err(format!(
                        "slice [{start}, {end}) out of the trailing dim {d:?}"
                    ));
                }
                (
                    smul(
                        dsize(*rows),
                        Size {
                            coef: 0,
                            fixed: end - start,
                        },
                    )?,
                    vec![op(*x, sprod(&[*rows, *d])?, false)],
                )
            }
        })
    }

    impl Plan {
        /// Converts the compiled plan into its serializable descriptor.
        pub fn to_desc(&self) -> PlanDesc {
            PlanDesc {
                steps: self
                    .steps
                    .iter()
                    .map(|s| StepDesc {
                        kind: kind_desc(&s.kind),
                        out: s.out,
                    })
                    .collect(),
                bufs: self
                    .bufs
                    .iter()
                    .map(|b| BufDesc {
                        size: size_desc(b.size),
                        slot: b.slot,
                    })
                    .collect(),
                slot_sizes: self.slot_sizes.iter().map(|&s| size_desc(s)).collect(),
                inputs: self
                    .inputs
                    .iter()
                    .map(|dims| dims.iter().map(|&d| dim_desc(d)).collect())
                    .collect(),
                outputs: self
                    .outputs
                    .iter()
                    .map(|(s, dims)| OutputDesc {
                        src: src_desc(*s),
                        dims: dims.iter().map(|&d| dim_desc(d)).collect(),
                    })
                    .collect(),
                stats: stats_desc(self.stats),
            }
        }

        /// Rebuilds an executable plan from a descriptor, re-validating
        /// every slot/arena invariant (see the [`desc`](self) module docs).
        /// `params` must be the store the plan will replay against: its
        /// length bounds parameter references, and each referenced
        /// parameter's element count is checked against what the step
        /// kernels will read.
        pub fn from_desc(d: &PlanDesc, params: &ParamStore) -> Result<Plan, PlanDecodeError> {
            for (what, len) in [
                ("steps", d.steps.len()),
                ("buffers", d.bufs.len()),
                ("slots", d.slot_sizes.len()),
            ] {
                if len > MAX_TABLE {
                    return Err(PlanDecodeError::Limit {
                        what,
                        value: len,
                        max: MAX_TABLE,
                    });
                }
            }
            for (what, len) in [("inputs", d.inputs.len()), ("outputs", d.outputs.len())] {
                if len > MAX_PORTS {
                    return Err(PlanDecodeError::Limit {
                        what,
                        value: len,
                        max: MAX_PORTS,
                    });
                }
            }
            let dec = Decoder { desc: d, params };

            // Slot table: bounded sizes, bounded total arena.
            let mut slot_sizes = Vec::with_capacity(d.slot_sizes.len());
            let mut arena_total = 0usize;
            for &s in &d.slot_sizes {
                let s = dec.size(s, "slot size")?;
                arena_total = arena_total.saturating_add(s.coef).saturating_add(s.fixed);
                slot_sizes.push(s);
            }
            if arena_total > MAX_ARENA {
                return Err(PlanDecodeError::Limit {
                    what: "total arena size",
                    value: arena_total,
                    max: MAX_ARENA,
                });
            }

            // Buffer table: every buffer's slot exists and fits it.
            let mut bufs = Vec::with_capacity(d.bufs.len());
            for &b in &d.bufs {
                if b.slot >= slot_sizes.len() {
                    return Err(PlanDecodeError::Index {
                        what: "slot",
                        index: b.slot,
                        len: slot_sizes.len(),
                    });
                }
                let size = dec.size(b.size, "buffer size")?;
                if !slot_sizes[b.slot].fits(&size) {
                    return Err(PlanDecodeError::Limit {
                        what: "buffer size beyond its slot",
                        value: size.coef.max(size.fixed),
                        max: slot_sizes[b.slot].coef.max(slot_sizes[b.slot].fixed),
                    });
                }
                bufs.push(Buf { size, slot: b.slot });
            }

            // Input shapes.
            let mut inputs = Vec::with_capacity(d.inputs.len());
            for dims in &d.inputs {
                if dims.len() > MAX_RANK {
                    return Err(PlanDecodeError::Limit {
                        what: "input rank",
                        value: dims.len(),
                        max: MAX_RANK,
                    });
                }
                inputs.push(
                    dims.iter()
                        .map(|&dd| dec.dim(dd, "input dim"))
                        .collect::<Result<Vec<_>, _>>()?,
                );
            }
            let input_sizes: Vec<Size> = inputs
                .iter()
                .enumerate()
                .map(|(i, dims)| {
                    sprod(dims).map_err(|reason| PlanDecodeError::Input { input: i, reason })
                })
                .collect::<Result<_, _>>()?;

            // Steps: geometry, operand sizes, write-once/def-before-use
            // ordering, and in-place aliasing discipline.
            let mut steps = Vec::with_capacity(d.steps.len());
            let mut defined = vec![false; bufs.len()];
            for (si, sd) in d.steps.iter().enumerate() {
                let step_err = |reason: String| PlanDecodeError::Step { step: si, reason };
                if let Some(c) = non_finite_const(&sd.kind) {
                    return Err(step_err(format!("constant {c} is not finite")));
                }
                let kind = dec.kind(&sd.kind)?;
                if sd.out >= bufs.len() {
                    return Err(PlanDecodeError::Index {
                        what: "output buffer",
                        index: sd.out,
                        len: bufs.len(),
                    });
                }
                if defined[sd.out] {
                    return Err(step_err(format!("buffer {} written twice", sd.out)));
                }
                let (out_size, operands) = step_io(&kind).map_err(step_err)?;
                if bufs[sd.out].size != out_size {
                    return Err(step_err(format!(
                        "output buffer size {:?} does not match the step's output {:?}",
                        bufs[sd.out].size, out_size
                    )));
                }
                let out_slot = bufs[sd.out].slot;
                for o in &operands {
                    match o.src {
                        Src::Buf(b) => {
                            if !defined[b] {
                                return Err(step_err(format!("buffer {b} read before written")));
                            }
                            if bufs[b].size != o.need {
                                return Err(step_err(format!(
                                    "operand buffer {b} has size {:?}, step reads {:?}",
                                    bufs[b].size, o.need
                                )));
                            }
                            if bufs[b].slot == out_slot && !o.may_alias_out {
                                return Err(step_err(format!(
                                    "operand buffer {b} shares the output's arena slot without \
                                     an in-place path"
                                )));
                            }
                        }
                        Src::Param(id) => {
                            let numel = params.value(id).numel();
                            if o.need.coef != 0 || o.need.fixed != numel {
                                return Err(step_err(format!(
                                    "parameter {} has {numel} elements, step reads {:?}",
                                    id.index(),
                                    o.need
                                )));
                            }
                        }
                        Src::Input(i) => {
                            if input_sizes[i] != o.need {
                                return Err(step_err(format!(
                                    "input {i} has size {:?}, step reads {:?}",
                                    input_sizes[i], o.need
                                )));
                            }
                        }
                    }
                }
                defined[sd.out] = true;
                steps.push(Step { kind, out: sd.out });
            }

            // Outputs must read defined buffers with consistent shapes.
            let mut outputs = Vec::with_capacity(d.outputs.len());
            for (oi, od) in d.outputs.iter().enumerate() {
                let out_err = |reason: String| PlanDecodeError::Output { output: oi, reason };
                if od.dims.len() > MAX_RANK {
                    return Err(PlanDecodeError::Limit {
                        what: "output rank",
                        value: od.dims.len(),
                        max: MAX_RANK,
                    });
                }
                let dims = od
                    .dims
                    .iter()
                    .map(|&dd| dec.dim(dd, "output dim"))
                    .collect::<Result<Vec<_>, _>>()?;
                let bid = match dec.src(od.src)? {
                    Src::Buf(b) => b,
                    _ => return Err(out_err("output must read an arena buffer".into())),
                };
                if !defined[bid] {
                    return Err(out_err(format!("output buffer {bid} is never written")));
                }
                let need = sprod(&dims).map_err(out_err)?;
                if bufs[bid].size != need {
                    return Err(out_err(format!(
                        "output shape {:?} does not match buffer {bid}'s size {:?}",
                        need, bufs[bid].size
                    )));
                }
                outputs.push((Src::Buf(bid), dims));
            }

            Ok(Plan {
                steps,
                bufs,
                slot_sizes,
                inputs,
                outputs,
                stats: stats_from(d.stats),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Graph;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn store_with(shapes: &[&[usize]]) -> (ParamStore, Vec<ParamId>) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(11);
        let ids = shapes
            .iter()
            .enumerate()
            .map(|(i, s)| {
                store.add(
                    format!("p{i}"),
                    Tensor::from_fn(s, |_| rng.random_range(-1.0f32..1.0)),
                )
            })
            .collect();
        (store, ids)
    }

    fn input_for(b: usize) -> Tensor {
        Tensor::from_fn(&[b, 4, 6], |i| ((i as f32) * 0.37).sin())
    }

    /// A program exercising every [`Exec`] op, with a value (`y`) used by
    /// several consumers (so no epilogue fusion there), an attention-style
    /// bmm/softmax block, and an output (`cat`) that also has a consumer.
    fn mixed_program<E: Exec>(
        e: &mut E,
        store: &ParamStore,
        ids: &[ParamId],
        b: usize,
    ) -> TensorResult<Vec<Var>> {
        let xv = e.constant(input_for(b));
        let w = e.param(store, ids[1]);
        let gamma = e.param(store, ids[2]);
        let beta = e.param(store, ids[3]);
        let h = e.split_heads(xv, 2)?;
        let scores = e.bmm(h, h, false, true)?;
        let sc0 = e.scale(scores, 1.0 / 3.0f32.sqrt());
        let probs = e.softmax_last(sc0)?;
        let ctx2 = e.bmm(probs, h, false, false)?;
        let m = e.merge_heads(ctx2, 2)?;
        let flat = e.reshape(m, &[b * 4, 6])?;
        let y = e.matmul(flat, w)?;
        let ln = e.layer_norm(y, gamma, beta, 1e-5)?;
        let s = e.softmax_last(ln)?;
        let r = e.relu(s)?;
        let t = e.tanh(r)?;
        let g = e.sigmoid(t)?;
        let sc = e.scale(g, 1.7);
        let a = e.add(sc, y)?;
        let bb = e.sub(a, y)?;
        let c = e.mul(bb, bb)?;
        let row = e.param(store, ids[2]);
        let ar = e.add_row(c, row)?;
        let sl = e.slice_last(ar, 1, 5)?;
        let cat = e.concat_last(&[sl, sl])?;
        let q = e.square(cat)?;
        let sq = e.sqrt(q)?;
        let ab = e.abs(sq)?;
        let ex = e.exp(ab)?;
        let fin = e.add_scalar(ex, -0.25);
        Ok(vec![fin, cat])
    }

    #[test]
    fn plan_bit_identical_to_infer_ctx_across_batch_sizes() {
        let (store, ids) = store_with(&[&[4, 6], &[6, 6], &[6], &[6]]);
        let plan = Plan::compile(&store, |rec, b| {
            mixed_program(rec, &store, &ids, b).map_err(PlanError::from)
        })
        .unwrap();
        let mut exec = PlanExec::new(Arc::new(plan));
        for b in [1usize, 2, 3, 5, 4] {
            let x = input_for(b);
            exec.run(&store, &[&x]).unwrap();
            let mut tape = Graph::new();
            let outs = mixed_program(&mut tape, &store, &ids, b).unwrap();
            for (i, v) in outs.iter().enumerate() {
                assert_eq!(
                    exec.output(i),
                    tape.value(*v).data(),
                    "output {i} at batch {b} must be bit-identical"
                );
                assert_eq!(exec.output_shape(i), tape.value(*v).shape());
            }
        }
    }

    #[test]
    fn fusion_and_aliasing_fire_on_the_mixed_program() {
        let (store, ids) = store_with(&[&[4, 6], &[6, 6], &[6], &[6]]);
        let plan = Plan::compile(&store, |rec, b| {
            mixed_program(rec, &store, &ids, b).map_err(PlanError::from)
        })
        .unwrap();
        let st = plan.stats();
        assert!(
            st.steps < st.recorded_ops,
            "lowering must shrink the program"
        );
        assert!(st.elided_reshapes >= 1, "reshape must be free: {st:?}");
        assert_eq!(
            st.fused_bmm_scales, 1,
            "the attention 1/sqrt(d) scale must fold into the bmm: {st:?}"
        );
        assert!(
            st.fused_elementwise >= 4,
            "tanh/sigmoid/scale/sqrt/abs/exp/add_scalar chains must fuse: {st:?}"
        );
        assert!(st.inplace_steps >= 1, "dead inputs must be reused in place");
        assert!(
            st.arena_slots < st.buffers,
            "liveness must alias buffers: {st:?}"
        );
    }

    #[test]
    fn bmm_scale_fuses_and_stays_bit_identical() {
        // bmm -> scale with a single user becomes one step whose write-back
        // applies `v * c` exactly once — bit-identical to the eager path.
        fn body<E: Exec>(e: &mut E, b: usize) -> TensorResult<Vec<Var>> {
            let x = e.constant(Tensor::from_fn(&[b, 3, 4], |i| ((i as f32) * 0.11).sin()));
            let s = e.bmm(x, x, false, true)?;
            let y = e.scale(s, 0.577);
            Ok(vec![y])
        }
        let (store, _ids) = store_with(&[&[1]]);
        let plan = Plan::compile(&store, |rec, b| body(rec, b).map_err(PlanError::from)).unwrap();
        let st = plan.stats();
        assert_eq!(st.fused_bmm_scales, 1, "{st:?}");
        assert_eq!(st.steps, 1, "bmm + scale must be one step: {st:?}");
        let mut exec = PlanExec::new(Arc::new(plan));
        for b in [1usize, 2, 5] {
            let x = Tensor::from_fn(&[b, 3, 4], |i| ((i as f32) * 0.11).sin());
            exec.run(&store, &[&x]).unwrap();
            let mut tape = Graph::new();
            let outs = body(&mut tape, b).unwrap();
            assert_eq!(
                exec.output(0),
                tape.value(outs[0]).data(),
                "fused bmm scale must be bit-identical at batch {b}"
            );
        }
    }

    #[test]
    fn linear_relu_fuses_into_single_gemm_epilogue() {
        let (store, ids) = store_with(&[&[6, 5], &[5]]);
        let plan = Plan::compile(&store, |rec, b| {
            let x = rec.constant(Tensor::from_fn(&[b, 6], |i| (i as f32 * 0.21).cos()));
            let w = rec.param(&store, ids[0]);
            let y = rec.matmul(x, w)?;
            let bias = rec.param(&store, ids[1]);
            let y = rec.add_row(y, bias)?;
            let y = rec.relu(y)?;
            Ok(vec![y])
        })
        .unwrap();
        let st = plan.stats();
        assert_eq!(st.steps, 1, "matmul + bias + relu must be one step: {st:?}");
        assert_eq!(st.fused_bias, 1);
        assert_eq!(st.fused_activations, 1);
        assert_eq!(st.arena_slots, 1);
        // And it must still be bit-identical to the unfused executor.
        let mut exec = PlanExec::new(Arc::new(plan));
        for b in [1usize, 3, 7] {
            let x = Tensor::from_fn(&[b, 6], |i| (i as f32 * 0.21).cos());
            exec.run(&store, &[&x]).unwrap();
            let mut tape = Graph::new();
            let xv = tape.constant(x);
            let w = tape.param(&store, ids[0]);
            let y = tape.matmul(xv, w).unwrap();
            let bias = tape.param(&store, ids[1]);
            let y = tape.add_row(y, bias).unwrap();
            let y = tape.relu(y).unwrap();
            assert_eq!(exec.output(0), tape.value(y).data());
        }
    }

    /// A value a row op reads as its broadcast row is observed by that row
    /// op: lowering must not chain a later map onto the step producing it,
    /// or the row op reads the mapped value instead.
    #[test]
    fn row_operand_is_not_fused_into_by_a_later_map() {
        fn body<E: Exec>(
            e: &mut E,
            store: &ParamStore,
            ids: &[ParamId],
            b: usize,
        ) -> TensorResult<Vec<Var>> {
            let x = e.constant(Tensor::from_fn(&[b, 5], |i| (i as f32 * 0.29).sin()));
            let p = e.param(store, ids[0]);
            let r = e.tanh(p)?;
            let y = e.add_row(x, r)?;
            let z = e.relu(r)?;
            let z = e.add_scalar(z, 0.5);
            Ok(vec![y, z])
        }
        let (store, ids) = store_with(&[&[5]]);
        let plan = Plan::compile(&store, |rec, b| {
            body(rec, &store, &ids, b).map_err(PlanError::from)
        })
        .unwrap();
        let mut exec = PlanExec::new(Arc::new(plan));
        for b in [1usize, 2, 3] {
            let x = Tensor::from_fn(&[b, 5], |i| (i as f32 * 0.29).sin());
            exec.run(&store, &[&x]).unwrap();
            let mut tape = Graph::new();
            let outs = body(&mut tape, &store, &ids, b).unwrap();
            for (i, v) in outs.iter().enumerate() {
                assert_eq!(
                    exec.output(i),
                    tape.value(*v).data(),
                    "output {i} at batch {b} must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn rank3_linear_fuses_through_reshapes() {
        // The Linear layer's rank-3 path: reshape → matmul → reshape →
        // add_row (+ activation). Both reshapes must be elided and the
        // bias fused, leaving a single GEMM step.
        let (store, ids) = store_with(&[&[6, 5], &[5]]);
        let plan = Plan::compile(&store, |rec, b| {
            let x = rec.constant(Tensor::from_fn(&[b, 4, 6], |i| (i as f32 * 0.13).sin()));
            let flat = rec.reshape(x, &[b * 4, 6])?;
            let w = rec.param(&store, ids[0]);
            let y = rec.matmul(flat, w)?;
            let y3 = rec.reshape(y, &[b, 4, 5])?;
            let bias = rec.param(&store, ids[1]);
            let y3 = rec.add_row(y3, bias)?;
            let y3 = rec.tanh(y3)?;
            Ok(vec![y3])
        })
        .unwrap();
        let st = plan.stats();
        assert_eq!(st.steps, 1, "{st:?}");
        assert_eq!(st.elided_reshapes, 2);
        assert_eq!(st.fused_bias, 1);
        assert_eq!(st.fused_activations, 1);
    }

    #[test]
    fn reshape_changing_trailing_dim_blocks_bias_fusion() {
        // matmul -> reshape([b*2, 3]) -> add_row(row of 3): the broadcast
        // width (3) differs from the GEMM's n (6), so the bias must NOT
        // fuse into the epilogue — and the result must still match the
        // unfused executor exactly.
        let (store, ids) = store_with(&[&[4, 6], &[3]]);
        fn program<E: Exec>(
            e: &mut E,
            store: &ParamStore,
            ids: &[ParamId],
            b: usize,
        ) -> TensorResult<Var> {
            let x = e.constant(Tensor::from_fn(&[b, 4], |i| (i as f32 * 0.17).sin()));
            let w = e.param(store, ids[0]);
            let y = e.matmul(x, w)?;
            let narrow = e.reshape(y, &[b * 2, 3])?;
            let row = e.param(store, ids[1]);
            e.add_row(narrow, row)
        }
        let plan = Plan::compile(&store, |rec, b| {
            program(rec, &store, &ids, b)
                .map(|v| vec![v])
                .map_err(PlanError::from)
        })
        .unwrap();
        assert_eq!(plan.stats().fused_bias, 0, "{:?}", plan.stats());
        let mut exec = PlanExec::new(Arc::new(plan));
        for b in [1usize, 2, 5] {
            let x = Tensor::from_fn(&[b, 4], |i| (i as f32 * 0.17).sin());
            exec.run(&store, &[&x]).unwrap();
            let mut tape = Graph::new();
            let out = program(&mut tape, &store, &ids, b).unwrap();
            assert_eq!(exec.output(0), tape.value(out).data(), "b={b}");
        }
    }

    #[test]
    fn zero_allocation_after_warmup() {
        let (store, ids) = store_with(&[&[4, 6], &[6, 6], &[6], &[6]]);
        let plan = Plan::compile(&store, |rec, b| {
            mixed_program(rec, &store, &ids, b).map_err(PlanError::from)
        })
        .unwrap();
        let mut exec = PlanExec::new(Arc::new(plan));
        let x4 = input_for(4);
        exec.run(&store, &[&x4]).unwrap();
        let warm = exec.alloc_count();
        assert!(warm >= 1);
        for _ in 0..5 {
            exec.run(&store, &[&x4]).unwrap();
        }
        assert_eq!(exec.alloc_count(), warm, "steady state must not allocate");
        // Smaller batches fit in the warmed arena.
        let x2 = input_for(2);
        exec.run(&store, &[&x2]).unwrap();
        exec.run(&store, &[&x4]).unwrap();
        assert_eq!(
            exec.alloc_count(),
            warm,
            "shrinking batches must not allocate"
        );
        // A larger batch grows the arena exactly once.
        let x9 = input_for(9);
        exec.run(&store, &[&x9]).unwrap();
        exec.run(&store, &[&x9]).unwrap();
        assert_eq!(exec.alloc_count(), warm + 1);
    }

    #[test]
    fn output_aliasing_an_input_is_materialized() {
        let (store, _) = store_with(&[]);
        let plan = Plan::compile(&store, |rec, b| {
            let x = rec.constant(Tensor::from_fn(&[b, 4], |i| i as f32));
            let r = rec.reshape(x, &[b * 4])?;
            Ok(vec![r])
        })
        .unwrap();
        let mut exec = PlanExec::new(Arc::new(plan));
        let x = Tensor::from_fn(&[3, 4], |i| i as f32 * 2.0);
        exec.run(&store, &[&x]).unwrap();
        assert_eq!(exec.output(0), x.data());
        assert_eq!(exec.output_shape(0), &[12]);
    }

    #[test]
    fn batch_dependent_program_is_rejected() {
        let (store, _) = store_with(&[]);
        let err = Plan::compile(&store, |rec, b| {
            let mut x = rec.constant(Tensor::zeros(&[b, 4]));
            if b == 3 {
                x = rec.relu(x)?; // op stream depends on the batch size
            }
            Ok(vec![x])
        })
        .unwrap_err();
        assert!(matches!(err, PlanError::NonUniform(_)), "{err:?}");
    }

    #[test]
    fn specialized_replay_bit_identical_to_generic_plan() {
        let (store, ids) = store_with(&[&[4, 6], &[6, 6], &[6], &[6]]);
        let plan = Arc::new(
            Plan::compile(&store, |rec, b| {
                mixed_program(rec, &store, &ids, b).map_err(PlanError::from)
            })
            .unwrap(),
        );
        let mut generic = PlanExec::new(Arc::clone(&plan));
        for b in [1usize, 2, 3, 5, 8, 64] {
            let spec = plan.specialize(&store, b).unwrap();
            assert_eq!(spec.batch_size(), b);
            assert!(spec.unrolled_copies() > 0, "split/merge spans must unroll");
            let mut arena = Vec::new();
            let x = input_for(b);
            spec.replay(&mut arena, &store, &[&x]).unwrap();
            generic.run(&store, &[&x]).unwrap();
            for i in 0..2 {
                assert_eq!(
                    spec.output(&arena, i),
                    generic.output(i),
                    "output {i} at batch {b} must be bit-identical"
                );
                assert_eq!(spec.output_shape(i), generic.output_shape(i).as_slice());
            }
        }
    }

    #[test]
    fn specialized_plan_prepacks_weight_gemms() {
        // A linear layer big enough for the blocked kernel: the specialized
        // plan must resolve it to the prepacked entry point and still match
        // the generic replay exactly.
        let (store, ids) = store_with(&[&[64, 48], &[48]]);
        let plan = Plan::compile(&store, |rec, b| {
            let x = rec.constant(Tensor::from_fn(&[b, 64], |i| (i as f32 * 0.29).sin()));
            let w = rec.param(&store, ids[0]);
            let y = rec.matmul(x, w)?;
            let bias = rec.param(&store, ids[1]);
            let y = rec.add_row(y, bias)?;
            let y = rec.relu(y)?;
            Ok(vec![y])
        })
        .unwrap();
        let plan = Arc::new(plan);
        // Big batch crosses the blocked-kernel threshold; batch 1 stays on
        // the naive path — specialization must pick per shape.
        let spec_big = plan.specialize(&store, 64).unwrap();
        assert_eq!(spec_big.prepacked_gemms(), 1, "{spec_big:?}");
        let spec_one = plan.specialize(&store, 1).unwrap();
        assert_eq!(spec_one.prepacked_gemms(), 0, "{spec_one:?}");
        let mut generic = PlanExec::new(Arc::clone(&plan));
        for (b, spec) in [(64usize, spec_big), (1, spec_one)] {
            let mut arena = Vec::new();
            let x = Tensor::from_fn(&[b, 64], |i| (i as f32 * 0.29).sin());
            spec.replay(&mut arena, &store, &[&x]).unwrap();
            generic.run(&store, &[&x]).unwrap();
            assert_eq!(spec.output(&arena, 0), generic.output(0), "b={b}");
        }
    }

    #[test]
    fn quantized_store_specializes_to_quant_kernel_bit_identically() {
        // Quantizing the store's weights must (a) route blocked weight
        // GEMMs to the quantized prepacked kernel, (b) leave the
        // below-threshold fold on the generic f32 entry, and (c) stay
        // bit-identical to the generic interpreter over the same store —
        // the store's f32 values are the dequantized numbers, so both
        // entries see identical weights.
        let (mut store, ids) = store_with(&[&[64, 48], &[48]]);
        assert_eq!(store.quantize_weights(), 1);
        assert!(store.has_quants());
        let plan = Plan::compile(&store, |rec, b| {
            let x = rec.constant(Tensor::from_fn(&[b, 64], |i| (i as f32 * 0.29).sin()));
            let w = rec.param(&store, ids[0]);
            let y = rec.matmul(x, w)?;
            let bias = rec.param(&store, ids[1]);
            let y = rec.add_row(y, bias)?;
            let y = rec.relu(y)?;
            Ok(vec![y])
        })
        .unwrap();
        let plan = Arc::new(plan);
        let mut cache = WeightPackCache::new();
        let spec_big = plan.specialize_cached(&store, 64, &mut cache).unwrap();
        assert_eq!(spec_big.quant_prepacked_gemms(), 1, "{spec_big:?}");
        assert_eq!(spec_big.prepacked_gemms(), 0, "{spec_big:?}");
        assert!(cache.panel_bytes() > 0);
        let spec_one = plan.specialize_cached(&store, 1, &mut cache).unwrap();
        assert_eq!(spec_one.quant_prepacked_gemms(), 0, "{spec_one:?}");
        let mut generic = PlanExec::new(Arc::clone(&plan));
        for (b, spec) in [(64usize, spec_big), (1, spec_one)] {
            let mut arena = Vec::new();
            let x = Tensor::from_fn(&[b, 64], |i| (i as f32 * 0.29).sin());
            spec.replay(&mut arena, &store, &[&x]).unwrap();
            generic.run(&store, &[&x]).unwrap();
            assert_eq!(spec.output(&arena, 0), generic.output(0), "b={b}");
        }
    }

    #[test]
    fn weight_panels_are_shared_across_folds() {
        // Folding the same plan for two batch classes through one cache
        // must pack each distinct weight matrix once, not once per fold.
        let (store, ids) = store_with(&[&[64, 48], &[48]]);
        let plan = Plan::compile(&store, |rec, b| {
            let x = rec.constant(Tensor::from_fn(&[b, 64], |i| (i as f32 * 0.23).sin()));
            let w = rec.param(&store, ids[0]);
            let y = rec.matmul(x, w)?;
            Ok(vec![y])
        })
        .unwrap();
        let mut cache = WeightPackCache::new();
        let s64 = plan.specialize_cached(&store, 64, &mut cache).unwrap();
        assert_eq!(s64.prepacked_gemms(), 1);
        assert_eq!(cache.len(), 1);
        let s128 = plan.specialize_cached(&store, 128, &mut cache).unwrap();
        assert_eq!(s128.prepacked_gemms(), 1);
        assert_eq!(cache.len(), 1, "same (param, k, n) must reuse the panel");
        // Both folds still replay correctly.
        for (b, spec) in [(64usize, s64), (128, s128)] {
            let mut arena = Vec::new();
            let x = Tensor::from_fn(&[b, 64], |i| (i as f32 * 0.23).sin());
            spec.replay(&mut arena, &store, &[&x]).unwrap();
            let mut generic = PlanExec::new(Arc::new(
                Plan::compile(&store, |rec, bb| {
                    let x = rec.constant(Tensor::from_fn(&[bb, 64], |i| (i as f32 * 0.23).sin()));
                    let w = rec.param(&store, ids[0]);
                    let y = rec.matmul(x, w)?;
                    Ok(vec![y])
                })
                .unwrap(),
            ));
            generic.run(&store, &[&x]).unwrap();
            assert_eq!(spec.output(&arena, 0), generic.output(0), "b={b}");
        }
    }

    const ATT_L: usize = 3;
    const ATT_D: usize = 32;
    const ATT_H: usize = 2;

    fn attention_input(b: usize) -> Tensor {
        Tensor::from_fn(&[b, ATT_L, ATT_D], |i| ((i as f32) * 0.173).sin())
    }

    /// `[wq, bq, wk, bk, wv, bv, wo, bo]` for [`attention_program`].
    fn attention_store() -> (ParamStore, Vec<ParamId>) {
        let (w, b): (&[usize], &[usize]) = (&[ATT_D, ATT_D], &[ATT_D]);
        store_with(&[w, b, w, b, w, b, w, b])
    }

    /// Which intermediate of [`attention_program`] gets a second reader
    /// (as an extra plan output).
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Leak {
        Nothing,
        Probs,
        SplitHead,
        Projection,
    }

    /// One multi-head self-attention block the way `MultiHeadAttention`
    /// records it (rank-3 linears, `1/sqrt(dh)` scale), plus the output
    /// projection.
    fn attention_program<E: Exec>(
        e: &mut E,
        store: &ParamStore,
        ids: &[ParamId],
        b: usize,
        leak: Leak,
    ) -> TensorResult<Vec<Var>> {
        let x = e.constant(attention_input(b));
        let linear = |e: &mut E, x: Var, w: ParamId, bias: ParamId| -> TensorResult<Var> {
            let flat = e.reshape(x, &[b * ATT_L, ATT_D])?;
            let w = e.param(store, w);
            let y = e.matmul(flat, w)?;
            let y = e.reshape(y, &[b, ATT_L, ATT_D])?;
            let bias = e.param(store, bias);
            e.add_row(y, bias)
        };
        let q = linear(e, x, ids[0], ids[1])?;
        let k = linear(e, x, ids[2], ids[3])?;
        let v = linear(e, x, ids[4], ids[5])?;
        let qh = e.split_heads(q, ATT_H)?;
        let kh = e.split_heads(k, ATT_H)?;
        let vh = e.split_heads(v, ATT_H)?;
        let scores = e.bmm(qh, kh, false, true)?;
        let scaled = e.scale(scores, 1.0 / ((ATT_D / ATT_H) as f32).sqrt());
        let probs = e.softmax_last(scaled)?;
        let ctx = e.bmm(probs, vh, false, false)?;
        let merged = e.merge_heads(ctx, ATT_H)?;
        let out = linear(e, merged, ids[6], ids[7])?;
        Ok(match leak {
            Leak::Nothing => vec![out],
            Leak::Probs => vec![out, probs],
            Leak::SplitHead => vec![out, kh],
            Leak::Projection => vec![out, q],
        })
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Folds [`attention_program`] at every batch in `1..=9` and asserts
    /// the fold replays the generic plan's bits; returns the B = 4 fold.
    fn fold_attention(store: &ParamStore, ids: &[ParamId], leak: Leak) -> SpecializedPlan {
        let plan = Arc::new(
            Plan::compile(store, |rec, b| {
                attention_program(rec, store, ids, b, leak).map_err(PlanError::from)
            })
            .unwrap(),
        );
        let mut generic = PlanExec::new(Arc::clone(&plan));
        let mut cache = WeightPackCache::new();
        let mut arena = Vec::new();
        for b in 1..=9usize {
            let fold = plan.specialize_cached(store, b, &mut cache).unwrap();
            let x = attention_input(b);
            fold.replay(&mut arena, store, &[&x]).unwrap();
            generic.run(store, &[&x]).unwrap();
            for i in 0..plan.num_outputs() {
                assert_eq!(
                    bits(fold.output(&arena, i)),
                    bits(generic.output(i)),
                    "{leak:?}: output {i} at batch {b}"
                );
            }
        }
        plan.specialize_cached(store, 4, &mut cache).unwrap()
    }

    #[test]
    fn attention_block_folds_into_one_gemm_and_one_attention_step() {
        // Generic: 3 projections + 3 splits + bmm + softmax + bmm + merge
        // + output projection = 11 steps. Folded: fused projection,
        // attention, output projection. f32 and i8 stores alike.
        for quantized in [false, true] {
            let (mut store, ids) = attention_store();
            if quantized {
                assert_eq!(store.quantize_weights(), 4);
            }
            let fold = fold_attention(&store, &ids, Leak::Nothing);
            assert_eq!(fold.steps(), 3, "quantized {quantized}: {fold:?}");
            assert_eq!(fold.fused_attentions(), 1, "quantized {quantized}");
            assert_eq!(fold.fused_qkv_gemms(), 1, "quantized {quantized}");
            assert_eq!(
                fold.unrolled_copies(),
                0,
                "quantized {quantized}: no head copies left"
            );
            // The fused projection and the output projection, on the
            // kernel the store's encoding selects.
            let (f32_gemms, quant_gemms) = if quantized { (0, 2) } else { (2, 0) };
            assert_eq!(fold.prepacked_gemms(), f32_gemms, "quantized {quantized}");
            assert_eq!(
                fold.quant_prepacked_gemms(),
                quant_gemms,
                "quantized {quantized}"
            );
        }
    }

    #[test]
    fn a_second_reader_keeps_the_generic_steps() {
        let (store, ids) = attention_store();
        // `probs` or a split head observed from outside: the seven steps
        // stay, and with them the projections they read.
        for leak in [Leak::Probs, Leak::SplitHead] {
            let fold = fold_attention(&store, &ids, leak);
            assert_eq!(fold.fused_attentions(), 0, "{leak:?}");
            assert_eq!(fold.fused_qkv_gemms(), 0, "{leak:?}");
            assert_eq!(fold.steps(), 11, "{leak:?}: {fold:?}");
        }
        // A projection output observed from outside: the projections stay
        // three GEMMs; attention may still read them where they are.
        let fold = fold_attention(&store, &ids, Leak::Projection);
        assert_eq!(fold.fused_qkv_gemms(), 0);
        assert!(fold.steps() == 11 || (fold.steps() == 5 && fold.fused_attentions() == 1));
    }

    #[test]
    fn attention_over_plain_inputs_fuses_in_place() {
        // No projections to merge: Q, K and V are three plan inputs, read
        // by stride where they are.
        fn body<E: Exec>(e: &mut E, b: usize) -> TensorResult<Vec<Var>> {
            let mut input = |phase: f32| {
                e.constant(Tensor::from_fn(&[b, ATT_L, ATT_D], |i| {
                    ((i as f32) * 0.091 + phase).cos()
                }))
            };
            let (q, k, v) = (input(0.0), input(1.0), input(2.0));
            let qh = e.split_heads(q, ATT_H)?;
            let kh = e.split_heads(k, ATT_H)?;
            let vh = e.split_heads(v, ATT_H)?;
            let scores = e.bmm(qh, kh, false, true)?;
            let probs = e.softmax_last(scores)?;
            let ctx = e.bmm(probs, vh, false, false)?;
            Ok(vec![e.merge_heads(ctx, ATT_H)?])
        }
        let (store, _) = store_with(&[]);
        let plan = Arc::new(
            Plan::compile(&store, |rec, b| body(rec, b).map_err(PlanError::from)).unwrap(),
        );
        let mut generic = PlanExec::new(Arc::clone(&plan));
        for b in [1usize, 2, 5] {
            let fold = plan.specialize(&store, b).unwrap();
            assert_eq!((fold.steps(), fold.fused_attentions()), (1, 1), "{fold:?}");
            let inputs: Vec<Tensor> = (0..3)
                .map(|p| {
                    Tensor::from_fn(&[b, ATT_L, ATT_D], |i| {
                        ((i as f32) * 0.091 + p as f32).cos()
                    })
                })
                .collect();
            let refs: Vec<&Tensor> = inputs.iter().collect();
            let mut arena = Vec::new();
            fold.replay(&mut arena, &store, &refs).unwrap();
            generic.run(&store, &refs).unwrap();
            assert_eq!(
                bits(fold.output(&arena, 0)),
                bits(generic.output(0)),
                "b={b}"
            );
        }
    }

    #[test]
    fn specialized_plan_rejects_wrong_batch_inputs() {
        let (store, ids) = store_with(&[&[4, 6], &[6, 6], &[6], &[6]]);
        let plan = Plan::compile(&store, |rec, b| {
            mixed_program(rec, &store, &ids, b).map_err(PlanError::from)
        })
        .unwrap();
        assert!(matches!(
            plan.specialize(&store, 0),
            Err(PlanError::Input(_))
        ));
        let spec = plan.specialize(&store, 3).unwrap();
        let mut arena = Vec::new();
        // Wrong batch size against a shape-final plan is a typed error.
        let x = input_for(4);
        assert!(matches!(
            spec.replay(&mut arena, &store, &[&x]),
            Err(PlanError::Input(_))
        ));
        // The right batch still works afterwards.
        let ok = input_for(3);
        spec.replay(&mut arena, &store, &[&ok]).unwrap();
        assert_eq!(spec.output_shape(1), &[12, 8]);
    }

    #[test]
    fn cse_deduplicates_repeated_subtrees() {
        // The same parameter read twice, each pushed through an identical
        // reshape, then combined: CSE must collapse the duplicate reads
        // (and the duplicate reshapes) while keeping outputs bit-identical
        // to the uncompiled executor.
        let (store, ids) = store_with(&[&[4, 6]]);
        fn program<E: Exec>(
            e: &mut E,
            store: &ParamStore,
            ids: &[ParamId],
            b: usize,
        ) -> TensorResult<Var> {
            let x = e.constant(Tensor::from_fn(&[b, 24], |i| (i as f32 * 0.11).cos()));
            let w1 = e.param(store, ids[0]);
            let f1 = e.reshape(w1, &[24])?;
            let w2 = e.param(store, ids[0]); // duplicate read
            let f2 = e.reshape(w2, &[24])?; // duplicate reshape
            let s = e.add(f1, f2)?;
            e.add_row(x, s)
        }
        let plan = Plan::compile(&store, |rec, b| {
            program(rec, &store, &ids, b)
                .map(|v| vec![v])
                .map_err(PlanError::from)
        })
        .unwrap();
        assert!(
            plan.stats().cse_deduped >= 2,
            "duplicate param + reshape must dedupe: {:?}",
            plan.stats()
        );
        let mut exec = PlanExec::new(Arc::new(plan));
        for b in [1usize, 3] {
            let x = Tensor::from_fn(&[b, 24], |i| (i as f32 * 0.11).cos());
            exec.run(&store, &[&x]).unwrap();
            let mut tape = Graph::new();
            let out = program(&mut tape, &store, &ids, b).unwrap();
            assert_eq!(exec.output(0), tape.value(out).data(), "b={b}");
        }
    }

    #[test]
    fn cse_keeps_reshapes_to_different_shapes_apart() {
        // Two reshapes of the same value to *different* shapes are
        // structurally identical ops (Reshape carries no target shape);
        // the shape-aware CSE key must keep them distinct or downstream
        // row-wise ops would run over the wrong width.
        let (store, _) = store_with(&[]);
        fn program<E: Exec>(e: &mut E, b: usize) -> TensorResult<(Var, Var)> {
            let x = e.constant(Tensor::from_fn(&[b, 6], |i| (i as f32 * 0.19).sin()));
            let wide = e.reshape(x, &[b * 2, 3])?;
            let narrow = e.reshape(x, &[b * 3, 2])?;
            let a = e.softmax_last(wide)?;
            let bb = e.softmax_last(narrow)?;
            Ok((a, bb))
        }
        let plan = Plan::compile(&store, |rec, b| {
            program(rec, b)
                .map(|(a, b)| vec![a, b])
                .map_err(PlanError::from)
        })
        .unwrap();
        let mut exec = PlanExec::new(Arc::new(plan));
        for b in [1usize, 2, 4] {
            let x = Tensor::from_fn(&[b, 6], |i| (i as f32 * 0.19).sin());
            exec.run(&store, &[&x]).unwrap();
            let mut tape = Graph::new();
            let (a, bb) = program(&mut tape, b).unwrap();
            assert_eq!(exec.output(0), tape.value(a).data(), "wide softmax, b={b}");
            assert_eq!(
                exec.output(1),
                tape.value(bb).data(),
                "narrow softmax, b={b}"
            );
        }
    }

    #[test]
    fn cse_keeps_distinct_float_constants_apart() {
        // Scale(0.0) and Scale(-0.0) produce different signed zeros; the
        // CSE key compares constants bitwise so they must NOT merge.
        let (store, _) = store_with(&[]);
        let plan = Plan::compile(&store, |rec, b| {
            let x = rec.constant(Tensor::from_fn(&[b, 4], |i| i as f32 - 3.0));
            let a = rec.scale(x, 0.0);
            let bb = rec.scale(x, -0.0);
            Ok(vec![a, bb])
        })
        .unwrap();
        let mut exec = PlanExec::new(Arc::new(plan));
        let x = Tensor::from_fn(&[2, 4], |i| i as f32 - 3.0);
        exec.run(&store, &[&x]).unwrap();
        let pos: Vec<u32> = exec.output(0).iter().map(|v| v.to_bits()).collect();
        let neg: Vec<u32> = exec.output(1).iter().map(|v| v.to_bits()).collect();
        assert_ne!(pos, neg, "signed zeros must survive CSE");
    }

    #[test]
    fn desc_roundtrip_is_lossless_and_bit_identical() {
        use super::desc::PlanDesc;
        let (store, ids) = store_with(&[&[4, 6], &[6, 6], &[6], &[6]]);
        let plan = Plan::compile(&store, |rec, b| {
            mixed_program(rec, &store, &ids, b).map_err(PlanError::from)
        })
        .unwrap();
        let d = plan.to_desc();
        // The byte form round-trips exactly, both ways, and decoding stops
        // where the descriptor does.
        let mut bytes = Vec::new();
        d.encode_into(&mut bytes);
        let len = bytes.len();
        bytes.extend_from_slice(b"next");
        let mut rest = bytes.as_slice();
        let back = PlanDesc::decode(&mut rest).unwrap();
        assert_eq!(rest, b"next");
        assert_eq!(back, d);
        let mut again = Vec::new();
        back.encode_into(&mut again);
        assert_eq!(again, bytes[..len]);
        // Rebuilt plan re-describes identically...
        let loaded = Plan::from_desc(&back, &store).unwrap();
        assert_eq!(loaded.to_desc(), d);
        assert_eq!(loaded.stats(), plan.stats());
        // ...and replays bit-identically to the original compilation.
        let mut orig = PlanExec::new(Arc::new(plan));
        let mut from_file = PlanExec::new(Arc::new(loaded));
        for b in [1usize, 3, 5] {
            let x = input_for(b);
            orig.run(&store, &[&x]).unwrap();
            from_file.run(&store, &[&x]).unwrap();
            for i in 0..2 {
                assert_eq!(orig.output(i), from_file.output(i), "output {i} at b={b}");
            }
        }
    }

    #[test]
    fn hostile_plan_bytes_are_typed_errors_or_other_descriptors() {
        use super::desc::{PlanDecodeError, PlanDesc};
        let (store, ids) = store_with(&[&[4, 6], &[6, 6], &[6], &[6]]);
        let plan = Plan::compile(&store, |rec, b| {
            mixed_program(rec, &store, &ids, b).map_err(PlanError::from)
        })
        .unwrap();
        let mut good = Vec::new();
        plan.to_desc().encode_into(&mut good);

        // Every proper prefix is a short read, and the cursor stays put.
        for cut in 0..good.len() {
            let mut rest = &good[..cut];
            let err = PlanDesc::decode(&mut rest).unwrap_err();
            assert!(
                matches!(err, PlanDecodeError::Truncated { offset, .. } if offset <= cut),
                "cut at {cut}: unexpected {err:?}"
            );
            assert_eq!(rest.len(), cut);
        }

        // Every bit of every byte, flipped: a typed error, or a descriptor
        // whose encoding is exactly the bytes it was read from — which
        // `from_desc` then refuses or turns into a plan that replays
        // without leaving its arena, whatever it computes.
        let x = input_for(2);
        let (mut refused, mut replayed) = (0, 0);
        for at in 0..good.len() {
            for bit in 0..8 {
                let mut bytes = good.clone();
                bytes[at] ^= 1 << bit;
                let mut rest = bytes.as_slice();
                let Ok(desc) = PlanDesc::decode(&mut rest) else {
                    refused += 1;
                    continue;
                };
                let read = bytes.len() - rest.len();
                let mut again = Vec::new();
                desc.encode_into(&mut again);
                assert_eq!(again, bytes[..read], "byte {at} bit {bit}");
                if let Ok(plan) = Plan::from_desc(&desc, &store) {
                    let _ = PlanExec::new(Arc::new(plan)).run(&store, &[&x]);
                    replayed += 1;
                }
            }
        }
        assert!(
            refused > 0 && replayed > 0,
            "{refused} refused, {replayed} replayed"
        );
    }

    #[test]
    fn tampered_descs_are_typed_errors_not_panics() {
        use super::desc::{
            BufDesc, DimDesc, MapOpDesc, OutputDesc, PlanDecodeError, SizeDesc, SrcDesc,
            StepKindDesc,
        };
        let (store, ids) = store_with(&[&[4, 6], &[6, 6], &[6], &[6]]);
        let plan = Plan::compile(&store, |rec, b| {
            mixed_program(rec, &store, &ids, b).map_err(PlanError::from)
        })
        .unwrap();
        let good = plan.to_desc();
        assert!(Plan::from_desc(&good, &store).is_ok());

        // Slot index out of range.
        let mut d = good.clone();
        d.bufs[0].slot = d.slot_sizes.len() + 7;
        assert!(matches!(
            Plan::from_desc(&d, &store),
            Err(PlanDecodeError::Index { what: "slot", .. })
        ));

        // Buffer bigger than its slot.
        let mut d = good.clone();
        d.bufs[0].size = SizeDesc {
            coef: 1 << 20,
            fixed: 0,
        };
        assert!(Plan::from_desc(&d, &store).is_err());

        // Step writing a buffer that does not exist.
        let mut d = good.clone();
        d.steps[0].out = d.bufs.len();
        assert!(matches!(
            Plan::from_desc(&d, &store),
            Err(PlanDecodeError::Index {
                what: "output buffer",
                ..
            })
        ));

        // Parameter index out of range.
        let mut d = good.clone();
        for s in &mut d.steps {
            if let StepKindDesc::Gemm { a, .. } = &mut s.kind {
                *a = SrcDesc::Param(10_000);
                break;
            }
        }
        assert!(matches!(
            Plan::from_desc(&d, &store),
            Err(PlanDecodeError::Index {
                what: "parameter",
                ..
            })
        ));

        // Geometry lying about the GEMM's contraction length.
        let mut d = good.clone();
        for s in &mut d.steps {
            if let StepKindDesc::Gemm { k, .. } = &mut s.kind {
                *k = DimDesc::Fixed(4096);
                break;
            }
        }
        assert!(matches!(
            Plan::from_desc(&d, &store),
            Err(PlanDecodeError::Step { .. })
        ));

        // A NaN or infinite step constant would answer the same garbage for
        // every sample: refused, in each of the places one can sit.
        let mut poisoned = [0; 4];
        for si in 0..good.steps.len() {
            let mut d = good.clone();
            let which = match &mut d.steps[si].kind {
                StepKindDesc::Bmm { scale: Some(c), .. } => {
                    *c = f32::NAN;
                    0
                }
                StepKindDesc::LayerNorm { eps, .. } => {
                    *eps = f32::INFINITY;
                    1
                }
                StepKindDesc::Map { ops, .. }
                | StepKindDesc::Zip { ops, .. }
                | StepKindDesc::RowOp { ops, .. }
                | StepKindDesc::Concat { ops, .. } => {
                    match ops.iter_mut().find_map(|op| match op {
                        MapOpDesc::Scale(c) => Some((c, 2)),
                        MapOpDesc::AddScalar(c) => Some((c, 3)),
                        _ => None,
                    }) {
                        Some((c, which)) => {
                            *c = f32::NEG_INFINITY;
                            which
                        }
                        None => continue,
                    }
                }
                _ => continue,
            };
            poisoned[which] += 1;
            assert!(
                matches!(
                    Plan::from_desc(&d, &store),
                    Err(PlanDecodeError::Step { step, .. }) if step == si
                ),
                "step {si}"
            );
        }
        assert!(
            poisoned.iter().all(|&n| n > 0),
            "Bmm.scale / eps / Scale / AddScalar poisoned {poisoned:?} times"
        );

        // An attacker-sized dim constant is capped.
        let mut d = good.clone();
        d.slot_sizes[0] = SizeDesc {
            coef: usize::MAX / 2,
            fixed: 0,
        };
        assert!(matches!(
            Plan::from_desc(&d, &store),
            Err(PlanDecodeError::Limit { .. })
        ));

        // Output pointing at a plan input (the interpreter has no path
        // for that — it must be rejected, not hit unreachable!).
        let mut d = good.clone();
        d.outputs[0] = OutputDesc {
            src: SrcDesc::Input(0),
            dims: d.outputs[0].dims.clone(),
        };
        assert!(matches!(
            Plan::from_desc(&d, &store),
            Err(PlanDecodeError::Output { .. })
        ));

        // A zero row width on any row-wise step: `from_desc` admits no
        // zero dim at all (and the row kernels return early on one, so a
        // recorded plan cannot divide or chunk by it either).
        let mut zeroed = 0;
        for si in 0..good.steps.len() {
            let mut d = good.clone();
            match &mut d.steps[si].kind {
                StepKindDesc::Softmax { d: width, .. }
                | StepKindDesc::LayerNorm { d: width, .. }
                | StepKindDesc::RowOp { d: width, .. }
                | StepKindDesc::SliceLast { d: width, .. } => *width = DimDesc::Fixed(0),
                _ => continue,
            }
            zeroed += 1;
            assert!(matches!(
                Plan::from_desc(&d, &store),
                Err(PlanDecodeError::Limit { value: 0, .. })
            ));
        }
        assert!(zeroed >= 4, "the mixed program has all four row-wise kinds");
        softmax_rows(&mut [], 0);
        softmax_rows(&mut [1.0, 2.0], 0);

        // A buffer read before any step writes it.
        let mut d = good.clone();
        let last = d.bufs.len() - 1;
        d.bufs.push(BufDesc {
            size: d.bufs[last].size,
            slot: d.bufs[last].slot,
        });
        for s in &mut d.steps {
            if let StepKindDesc::Softmax { x, .. } = &mut s.kind {
                *x = SrcDesc::Buf(d.bufs.len() - 1);
                break;
            }
        }
        assert!(Plan::from_desc(&d, &store).is_err());
    }

    #[test]
    fn mismatched_inputs_are_descriptive_errors() {
        let (store, ids) = store_with(&[&[6, 5], &[5]]);
        let plan = Plan::compile(&store, |rec, b| {
            let x = rec.constant(Tensor::zeros(&[b, 6]));
            let w = rec.param(&store, ids[0]);
            let y = rec.matmul(x, w)?;
            Ok(vec![y])
        })
        .unwrap();
        let mut exec = PlanExec::new(Arc::new(plan));
        // Wrong trailing dim.
        let bad = Tensor::zeros(&[2, 7]);
        assert!(matches!(
            exec.run(&store, &[&bad]),
            Err(PlanError::Input(_))
        ));
        // Wrong input count.
        let ok = Tensor::zeros(&[2, 6]);
        assert!(matches!(
            exec.run(&store, &[&ok, &ok]),
            Err(PlanError::Input(_))
        ));
        // Correct inputs still work afterwards.
        exec.run(&store, &[&ok]).unwrap();
        assert_eq!(exec.output_shape(0), &[2, 5]);
    }
}
