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
//!
//! ## Layout
//!
//! `record` holds stage 1, `lower` stage 2 and `exec` stage 3 with the
//! element-wise kernels every executor shares. `fold` builds
//! [`SpecializedPlan`]s (one batch size, constant-folded), and [`desc`] is
//! a plan's byte form.

use std::fmt;
use std::sync::Arc;

use crate::exec::Exec;
use crate::kernels;
use crate::memory::{assign_slots, Def, Slots};
use crate::tape::{ParamId, ParamStore, Var};
use tensor::math::{self, Func};
use tensor::{
    layer_norm_rows, softmax_rows, Activation, Result as TensorResult, Tensor, TensorError,
};

pub mod desc;
mod exec;
mod fold;
mod lower;
mod record;
#[cfg(test)]
mod tests;

pub use exec::PlanExec;
pub(crate) use exec::{infer_batch, RunCtx};
pub(crate) use fold::TrainAttention;
pub use fold::{SpecializedPlan, WeightPackCache};
pub use record::Recorder;
pub(crate) use record::{ROp, Recording};

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

    /// The shape of output `i` at batch size `b`, dim by dim.
    pub fn output_shape(
        &self,
        i: usize,
        b: usize,
    ) -> impl ExactSizeIterator<Item = usize> + Clone + '_ {
        self.outputs[i].1.iter().map(move |d| d.at(b))
    }

    /// The shape input `i` must have at batch size `b`, dim by dim.
    pub fn input_shape(
        &self,
        i: usize,
        b: usize,
    ) -> impl ExactSizeIterator<Item = usize> + Clone + '_ {
        self.inputs[i].iter().map(move |d| d.at(b))
    }

    /// Total arena elements needed at batch size `b`.
    pub fn arena_len(&self, b: usize) -> usize {
        self.slot_sizes.iter().map(|s| s.at(b)).sum()
    }
}
