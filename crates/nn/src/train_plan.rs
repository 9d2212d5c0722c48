//! Compiled training steps: the forward **and** backward pass recorded
//! once, replayed from one arena.
//!
//! [`crate::plan`] compiles the forward pass; a training step on the tape
//! ([`crate::Graph`]) still rebuilds a graph per batch — every weight
//! cloned onto it, one allocation per node and per gradient, nothing fused.
//! A [`TrainPlan`] is the differentiable counterpart of a [`Plan`]: from
//! the same dual-probe `Recording` it
//!
//! 1. **derives the backward pass** by walking the raw recorded ops — which
//!    correspond one to one with the nodes the tape would hold — in exactly
//!    [`crate::Graph::backward`]'s reverse order: a node's first gradient
//!    contribution stores, later ones accumulate, operands in the tape's
//!    order, every per-element expression the tape's own;
//! 2. **lowers the forward** through the inference planner itself
//!    (`Recording::lower`) with the activations the backward reads listed
//!    as extra outputs — so bias/activation epilogues still fuse (their
//!    backward runs off the fused output), reshapes stay aliases, and an
//!    in-place rewrite that would destroy a value the backward reads is
//!    never taken, because a listed value is live to the end;
//! 3. **plans the gradient buffers** by liveness into the same arena,
//!    behind the forward slots; a node whose only contribution is its
//!    consumer's gradient aliases it, a copy whose source dies runs in
//!    place (that is, not at all), element-wise backward steps overwrite
//!    the gradient they consume;
//! 4. **replays** ([`TrainExec`]): forward steps through the inference
//!    interpreter, backward steps through the kernels below, parameter
//!    gradients accumulated straight into the [`ParamStore`].
//!
//! An attention block (`split_heads ×3 → bmm(Q·Kᵀ) [→ scale] → softmax →
//! bmm(·V) → merge_heads`) is one step each way where its geometry allows:
//! the forward's seven lowered steps replay as
//! [`tensor::attention_train_slices`], which also writes the
//! probabilities, and the backward is [`tensor::attention_bwd_slices`]
//! reading `Q`, `K`, `V` and the probabilities in place — every element
//! the unfused steps' own chain.
//!
//! The loss is not part of a plan: a plan may hold no reduction across
//! rows, and every loss is one (a `mean`, CMD's `mean_axis0`). The caller
//! computes the loss gradient of each seeded output and hands it to
//! [`TrainExec::backward`] as a **seed** — an output node's first
//! contribution, which is where the tape puts it (loss nodes come after
//! every forward node). The predictor's heads are fixed kernels that read
//! [`TrainExec::output`] in place and repeat the tape's expressions
//! (`cdmpp_core::trainer::loss_head`, [`crate::CmdHead`]); any other loss
//! can be built on a tape over `constant` leaves holding the outputs, its
//! leaves' gradients being the seeds.
//!
//! # Shard-exact on one thread
//!
//! A data-parallel tape step cuts the batch into fixed row ranges, runs
//! each on its own graph with seeds pre-weighted by `rows / n`, and adds
//! the shard gradients in a fixed binary tree. Shard boundaries are only
//! visible to reductions that cross rows, and a recorded forward has none
//! (every [`crate::Exec`] op maps sample `i` to sample `i`). So the replay
//! runs the forward and the whole `dx` path **once at full batch** — GEMM
//! per-element order does not depend on `m` for `k <= KC` — and only the
//! three reductions that produce a parameter gradient (`dW = Aᵀ·g`, bias
//! column sums, layer-norm `dγ`/`dβ`) per `shard_rows` range, combined by
//! the same tree and added to the stored gradient last. An *accumulating*
//! 2-D GEMM also runs per range: its kernel path, and with it whether the
//! sum starts from the destination, is chosen by shape. With one range the
//! step is the serial tape step.
//!
//! # Cost contract
//!
//! * **Zero allocation** inside a warmed [`TrainExec::forward`] +
//!   [`TrainExec::backward`] (held by a counting allocator in
//!   `tests/replay_allocations.rs`); arena and shard scratch grow only when
//!   a larger batch or shard count than any before arrives.
//! * **One pass per recorded op** in each direction, plus one add per
//!   parameter into its stored gradient; no weight is copied, no gradient
//!   temporary outlives the step that consumes it.
//! * **Bit-identical to the tape**, sharded and one-shard, on every kernel
//!   tier (`tests` below for every step kind; whole steps in
//!   `cdmpp-core/tests/compiled_step_equivalence.rs`).
//!
//! # What compiles
//!
//! Every recordable op has a backward here, with two structural limits,
//! both typed [`PlanError`]s at compile time: batch-linear dims must lead
//! (sample `i` is the `i`-th contiguous chunk of every tensor), and a
//! parameter must be read by exactly one leaf feeding a matmul's right
//! operand, a broadcast row or a layer norm's gain/shift directly — the
//! places where its gradient is a reduction over rows. Anything else
//! (weight sharing, arithmetic on parameters) still trains on the tape.

use std::sync::Arc;

use crate::memory::{assign_slots, Def};
use crate::plan::{
    infer_batch, size_of, split_rows, sum_start, Dim, MapOp, Plan, PlanError, ROp, Recorder,
    Recording, RowKind, RunCtx, Size, Src, TrainAttention, ZipKind, NORM_ROWS,
};
use crate::tape::{ParamId, ParamStore, Var};
use tensor::Tensor;

/// Where a backward step reads from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BSrc {
    /// A forward activation: an index into [`TrainPlan::acts`].
    Act(usize),
    Param(ParamId),
    Input(usize),
    /// A gradient (or temporary) buffer of the backward half.
    Grad(usize),
}

/// Element-wise backward of a map op: `out = f(g, v)`, `v` the forward
/// value noted per variant. The expressions are the tape's.
#[derive(Debug, Clone, Copy)]
enum ActBwd {
    /// `v` = output: `if v > 0 { g } else { 0 }` (`x > 0` iff `max(x, 0) > 0`).
    Relu,
    /// `v` = output: `g * (1 - v * v)`.
    Tanh,
    /// `v` = output: `g * v * (1 - v)`.
    Sigmoid,
    /// `v` = input: `g * signum(v) * (v != 0)`.
    Abs,
    /// `v` = output: `if v > 0 { g * 0.5 / v } else { 0 }`.
    Sqrt,
    /// `v` = input: `g * 2 * v`.
    Square,
}

impl ActBwd {
    #[inline(always)]
    fn apply(self, g: f32, v: f32) -> f32 {
        match self {
            ActBwd::Relu => {
                if v > 0.0 {
                    g
                } else {
                    0.0
                }
            }
            ActBwd::Tanh => g * (1.0 - v * v),
            ActBwd::Sigmoid => g * v * (1.0 - v),
            ActBwd::Abs => g * v.signum() * (v != 0.0) as u8 as f32,
            ActBwd::Sqrt => {
                if v > 0.0 {
                    g * 0.5 / v
                } else {
                    0.0
                }
            }
            ActBwd::Square => g * 2.0 * v,
        }
    }
}

/// One backward instruction. Sizes are per sample (`rows`, `batch` times
/// the batch size at replay) or fixed; `out` / `g` / `x` name gradient
/// buffers unless typed [`BSrc`].
#[derive(Debug, Clone)]
enum BStep {
    /// `out = seeds[k]`.
    Seed { k: usize, out: usize },
    /// `out = x` (skipped at replay when the planner ran it in place).
    Copy { x: usize, out: usize },
    /// `out += x`.
    AddAssign { x: usize, out: usize },
    /// `out = x * c`.
    Scale { x: usize, c: f32, out: usize },
    /// `out = x * v`.
    MulFwd { x: usize, v: BSrc, out: usize },
    /// `out = f(g, v)`.
    Act {
        g: usize,
        v: BSrc,
        f: ActBwd,
        out: usize,
    },
    /// `out (+)= op(x) · op(y)`, `[rows·B, k] · [k, n]` — the `dx` of a
    /// matmul. Accumulating products run per shard range (module docs).
    Gemm {
        x: usize,
        y: BSrc,
        rows: usize,
        k: usize,
        n: usize,
        acc: bool,
        out: usize,
    },
    /// `out (+)= bmm(op(x), op(y))` over `batch·B` matrices.
    Bmm {
        x: BSrc,
        xt: bool,
        y: BSrc,
        yt: bool,
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
        acc: bool,
        out: usize,
    },
    /// `split`: `[b·B, l, h·dh] -> [b·B·h, l, dh]` (backward of
    /// `merge_heads`); otherwise the inverse (backward of `split_heads`).
    Heads {
        x: usize,
        h: usize,
        b: usize,
        l: usize,
        d: usize,
        split: bool,
        out: usize,
    },
    /// `out = s * (g - Σ s·g)` per row of width `d`.
    SoftmaxBwd {
        s: BSrc,
        g: usize,
        d: usize,
        out: usize,
    },
    /// One attention block's backward — `split_heads ×3 → bmm(Q·Kᵀ)
    /// [→ scale] → softmax → bmm(·V) → merge_heads` — as one
    /// [`tensor::attention_bwd_slices`] over `b·B` sequences: from the
    /// merged output's gradient `g`, writes `out = [dQ, dK, dV]`.
    Attention {
        qkv: [BSrc; 3],
        p: BSrc,
        g: usize,
        b: usize,
        h: usize,
        l: usize,
        dh: usize,
        scale: Option<f32>,
        out: [usize; 3],
    },
    /// Layer-norm backward: `out = dx` at full batch; `dγ` / `dβ` per shard
    /// range, tree-added into the stored gradients.
    LayerNormBwd {
        x: BSrc,
        gamma: BSrc,
        g: usize,
        eps: f32,
        rows: usize,
        d: usize,
        dgamma: Option<ParamId>,
        dbeta: Option<ParamId>,
        out: usize,
    },
    /// Columns `[start, end)` of rows of width `d` (backward of `concat`).
    SliceCols {
        g: usize,
        d: usize,
        start: usize,
        end: usize,
        out: usize,
    },
    /// `g` placed at columns `[start, end)` of zero rows of width `d`
    /// (backward of `slice_last`).
    PadCols {
        g: usize,
        d: usize,
        start: usize,
        end: usize,
        out: usize,
    },
    /// `grad[pid] += tree(Aᵀ_s · g_s)`: `A` is `[rows·B, k]`, `g` is
    /// `[rows·B, n]`.
    ParamMatmul {
        pid: ParamId,
        a: BSrc,
        g: usize,
        rows: usize,
        k: usize,
        n: usize,
    },
    /// `grad[pid] += tree(column sums of g_s)` (negated for `sub_row`).
    ParamColSum {
        pid: ParamId,
        g: usize,
        rows: usize,
        d: usize,
        negate: bool,
    },
}

/// `(gradient buffers read, buffers written, whether the write is a
/// read-modify-write of an existing buffer, operand it may overwrite)`.
type StepIo = ([Option<usize>; 2], [Option<usize>; 3], bool, Option<usize>);

impl BStep {
    /// What the slot planner needs to know of this step ([`StepIo`]).
    fn io(&self) -> StepIo {
        let grad = |s: &BSrc| match s {
            BSrc::Grad(b) => Some(*b),
            _ => None,
        };
        let one = |o: &usize| [Some(*o), None, None];
        match self {
            BStep::Seed { out, .. } => ([None, None], one(out), false, None),
            BStep::Copy { x, out } | BStep::Scale { x, out, .. } => {
                ([Some(*x), None], one(out), false, Some(*x))
            }
            BStep::AddAssign { x, out } => ([Some(*x), None], one(out), true, None),
            BStep::MulFwd { x, out, .. } => ([Some(*x), None], one(out), false, Some(*x)),
            BStep::Act { g, out, .. }
            | BStep::SoftmaxBwd { g, out, .. }
            | BStep::LayerNormBwd { g, out, .. } => ([Some(*g), None], one(out), false, Some(*g)),
            BStep::Gemm { x, acc, out, .. } => ([Some(*x), None], one(out), *acc, None),
            BStep::Bmm { x, y, acc, out, .. } => ([grad(x), grad(y)], one(out), *acc, None),
            BStep::Heads { x, out, .. } => ([Some(*x), None], one(out), false, None),
            BStep::SliceCols { g, out, .. } | BStep::PadCols { g, out, .. } => {
                ([Some(*g), None], one(out), false, None)
            }
            BStep::ParamMatmul { g, .. } | BStep::ParamColSum { g, .. } => {
                ([Some(*g), None], [None; 3], false, None)
            }
            BStep::Attention { g, out, .. } => ([Some(*g), None], out.map(Some), false, None),
        }
    }

    /// Scratch elements this step needs per shard.
    fn scratch(&self) -> usize {
        match self {
            BStep::ParamMatmul { k, n, .. } => k * n,
            BStep::ParamColSum { d, .. } => *d,
            BStep::LayerNormBwd { d, .. } => 2 * d,
            _ => 0,
        }
    }
}

/// Counters from compiling a [`TrainPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrainPlanStats {
    /// Steps of the forward half: the inference planner's, with each
    /// fused attention block counted once.
    pub forward_steps: usize,
    /// Steps of the backward half.
    pub backward_steps: usize,
    /// Forward activations kept alive for the backward to read.
    pub kept_activations: usize,
    /// Gradient contributions that alias their producer (no step at all).
    pub aliased_grads: usize,
    /// Backward steps that overwrite the gradient they consume.
    pub inplace_steps: usize,
    /// Parameters whose gradient the plan produces.
    pub param_grads: usize,
    /// Arena slots of the forward half.
    pub forward_slots: usize,
    /// Arena slots of the backward half.
    pub backward_slots: usize,
    /// Attention blocks the forward replays as one fused step.
    pub fused_attention_forward: usize,
    /// Attention blocks the backward replays as one fused step.
    pub fused_attention_backward: usize,
}

/// One step of a compiled forward: a step of the lowered inference plan,
/// or an attention block fused over seven of them.
#[derive(Debug)]
enum FwdStep {
    Plan(usize),
    Attention(TrainAttention),
}

/// A compiled, batch-size-generic forward + backward program.
///
/// Built once per model topology (and per choice of seeded outputs) with
/// [`TrainPlan::compile`]; replayed by [`TrainExec`]. Like a [`Plan`] it
/// bakes in parameter *shapes* only, so it stays valid while the store it
/// was compiled against trains.
#[derive(Debug)]
pub struct TrainPlan {
    fwd: Plan,
    /// What [`TrainExec::forward`] replays, in order.
    fwd_steps: Vec<FwdStep>,
    /// Number of user outputs (the forward plan lists kept activations
    /// after them).
    n_outputs: usize,
    /// For each seed, in [`TrainExec::backward`]'s order, the output it
    /// seeds.
    seeded: Vec<usize>,
    /// Forward buffer ids of the kept activations ([`BSrc::Act`]).
    acts: Vec<usize>,
    steps: Vec<BStep>,
    sizes: Vec<Size>,
    slot_of: Vec<usize>,
    slot_sizes: Vec<Size>,
    /// Largest per-shard scratch any step needs.
    scratch: usize,
    stats: TrainPlanStats,
}

impl TrainPlan {
    /// Records `build` (see [`Plan::compile`]) and compiles its forward and
    /// backward. `seeded[i]` says whether output `i` receives a gradient
    /// seed at [`TrainExec::backward`]; at least one must.
    pub fn compile<F>(
        params: &ParamStore,
        seeded: &[bool],
        build: F,
    ) -> Result<TrainPlan, PlanError>
    where
        F: FnMut(&mut Recorder<'_>, usize) -> Result<Vec<Var>, PlanError>,
    {
        let rec = Recording::probe(params, build)?;
        if seeded.len() != rec.outputs.len() || !seeded.contains(&true) {
            return Err(PlanError::Input(format!(
                "{} outputs but seed mask {seeded:?} (needs one flag per output, one set)",
                rec.outputs.len()
            )));
        }
        let dims: Vec<Vec<Dim>> = (0..rec.ops().len())
            .map(|i| rec.dims(i))
            .collect::<Result<_, _>>()?;
        let mut d = Deriver::new(rec.ops(), &dims);
        d.run(&rec.outputs, seeded)?;

        let mut fwd_outputs = rec.outputs.clone();
        fwd_outputs.extend_from_slice(&d.keep);
        let fwd = rec.lower(&fwd_outputs)?;
        let n_outputs = rec.outputs.len();
        let acts: Vec<usize> = fwd.outputs[n_outputs..]
            .iter()
            .map(|(src, _)| match src {
                Src::Buf(b) => *b,
                _ => unreachable!("kept activations are computed values"),
            })
            .collect();

        let steps = d.steps;
        let sizes = d.sizes;
        let mut def_step = vec![usize::MAX; sizes.len()];
        let mut last_use = vec![0usize; sizes.len()];
        let mut defs = Vec::new();
        for (si, step) in steps.iter().enumerate() {
            let (reads, outs, rmw, inplace) = step.io();
            for b in reads.into_iter().flatten() {
                last_use[b] = last_use[b].max(si);
            }
            for o in outs.into_iter().flatten() {
                if rmw {
                    last_use[o] = last_use[o].max(si);
                } else {
                    def_step[o] = si;
                    defs.push(Def {
                        step: si,
                        out: o,
                        inplace: inplace.into_iter().collect(),
                    });
                }
            }
        }
        let slots = assign_slots(&sizes, &def_step, &last_use, &defs);
        let fwd_steps = fuse_forward(&fwd);
        let fused_fwd = fwd_steps
            .iter()
            .filter(|s| matches!(s, FwdStep::Attention(_)))
            .count();
        let stats = TrainPlanStats {
            forward_steps: fwd_steps.len(),
            backward_steps: steps.len(),
            kept_activations: acts.len(),
            aliased_grads: d.aliased,
            inplace_steps: slots.inplace_steps,
            param_grads: d.params_seen.len(),
            forward_slots: fwd.slot_sizes.len(),
            backward_slots: slots.slot_sizes.len(),
            fused_attention_forward: fused_fwd,
            fused_attention_backward: steps
                .iter()
                .filter(|s| matches!(s, BStep::Attention { .. }))
                .count(),
        };
        Ok(TrainPlan {
            scratch: steps.iter().map(BStep::scratch).max().unwrap_or(0),
            fwd,
            fwd_steps,
            n_outputs,
            seeded: (0..n_outputs).filter(|&i| seeded[i]).collect(),
            acts,
            steps,
            sizes,
            slot_of: slots.slot_of,
            slot_sizes: slots.slot_sizes,
            stats,
        })
    }

    /// Compilation counters.
    pub fn stats(&self) -> TrainPlanStats {
        self.stats
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.n_outputs
    }

    /// The shape of output `i` at batch size `b`.
    pub fn output_shape(&self, i: usize, b: usize) -> Vec<usize> {
        assert!(i < self.n_outputs, "output index out of range");
        self.fwd.output_shape(i, b).collect()
    }
}

/// The forward's replay list: every attention block
/// [`Plan::match_train_attention`] accepts becomes one step, the rest
/// replay as lowered.
fn fuse_forward(fwd: &Plan) -> Vec<FwdStep> {
    let readers = fwd.reader_counts();
    let mut out = Vec::with_capacity(fwd.steps.len());
    let mut si = 0;
    while si < fwd.steps.len() {
        match fwd.match_train_attention(si, &readers) {
            Some(a) => {
                out.push(FwdStep::Attention(a));
                si += 7;
            }
            None => {
                out.push(FwdStep::Plan(si));
                si += 1;
            }
        }
    }
    out
}

fn unsupported(what: &str) -> PlanError {
    PlanError::Build(format!("not compilable as a training step: {what}"))
}

/// Derives the backward program from the raw recorded ops.
struct Deriver<'a> {
    ops: &'a [ROp],
    dims: &'a [Vec<Dim>],
    /// Whether a node's value depends on a parameter.
    needs: Vec<bool>,
    /// Gradient contributions each node will receive in total.
    total: Vec<usize>,
    /// The buffer currently holding each node's gradient.
    gbuf: Vec<Option<usize>>,
    sizes: Vec<Size>,
    steps: Vec<BStep>,
    /// Raw nodes whose forward values the backward reads
    /// ([`BSrc::Act`] indexes this).
    keep: Vec<usize>,
    params_seen: Vec<ParamId>,
    aliased: usize,
    /// Nodes whose backward a fused attention step already emitted.
    fused: Vec<bool>,
}

/// An attention block of the raw recording, ending at its `merge_heads`.
struct RawAttention {
    /// The block's nodes before `merge_heads`, in recording order.
    nodes: Vec<usize>,
    /// The nodes split into heads, and the softmax output.
    q: usize,
    k: usize,
    v: usize,
    probs: usize,
    b: usize,
    h: usize,
    l: usize,
    dh: usize,
    scale: Option<f32>,
}

impl<'a> Deriver<'a> {
    fn new(ops: &'a [ROp], dims: &'a [Vec<Dim>]) -> Self {
        let mut needs = vec![false; ops.len()];
        for (i, op) in ops.iter().enumerate() {
            needs[i] = match op {
                ROp::Param(_) => true,
                ROp::Input(_) => false,
                _ => op.inputs().iter().any(|&j| needs[j]),
            };
        }
        Deriver {
            ops,
            dims,
            needs,
            total: vec![0; ops.len()],
            gbuf: vec![None; ops.len()],
            sizes: Vec::new(),
            steps: Vec::new(),
            keep: Vec::new(),
            params_seen: Vec::new(),
            aliased: 0,
            fused: vec![false; ops.len()],
        }
    }

    /// Elements per sample of node `i`, which must be batch-dependent:
    /// a gradient of batch-independent shape would need one copy per shard.
    fn per_sample(&self, i: usize) -> Result<usize, PlanError> {
        match self.dims[i].split_first() {
            Some((Dim::PerBatch(c), rest)) => {
                Ok((0..rest.len()).fold(*c, |acc, a| acc * self.fixed(i, a + 1)))
            }
            _ => Err(unsupported(&format!(
                "a value of batch-independent shape {:?} computed from parameters ({:?})",
                self.dims[i], self.ops[i]
            ))),
        }
    }

    fn fixed(&self, i: usize, axis: usize) -> usize {
        match self.dims[i][axis] {
            Dim::Fixed(n) => n,
            Dim::PerBatch(_) => {
                unreachable!("`run` checked that only leading dims are batch-linear")
            }
        }
    }

    fn last(&self, i: usize) -> usize {
        self.fixed(i, self.dims[i].len() - 1)
    }

    fn lead(&self, i: usize) -> usize {
        match self.dims[i][0] {
            Dim::PerBatch(c) => c,
            Dim::Fixed(_) => unreachable!("only read off batch-dependent nodes"),
        }
    }

    /// Where the backward reads node `j`'s forward value from.
    fn value(&mut self, mut j: usize) -> BSrc {
        while let ROp::Reshape { x } = self.ops[j] {
            j = x;
        }
        match self.ops[j] {
            ROp::Param(id) => BSrc::Param(id),
            ROp::Input(k) => BSrc::Input(k),
            _ => {
                let k = self.keep.iter().position(|&n| n == j).unwrap_or_else(|| {
                    self.keep.push(j);
                    self.keep.len() - 1
                });
                BSrc::Act(k)
            }
        }
    }

    fn new_buf(&mut self, like: usize) -> Result<usize, PlanError> {
        self.sizes.push(size_of(&self.dims[like])?);
        Ok(self.sizes.len() - 1)
    }

    /// The parameter behind operand `j`, which must be a parameter leaf
    /// read nowhere else.
    fn param_leaf(&mut self, j: usize) -> Result<ParamId, PlanError> {
        let ROp::Param(pid) = self.ops[j] else {
            return Err(unsupported(&format!(
                "a matmul weight, broadcast row or layer-norm gain that is computed from \
                 parameters rather than being one ({:?})",
                self.ops[j]
            )));
        };
        if self.total[j] != 1 || self.params_seen.contains(&pid) {
            return Err(unsupported(&format!(
                "parameter {} read more than once in one forward pass",
                pid.index()
            )));
        }
        self.params_seen.push(pid);
        Ok(pid)
    }

    /// Node `j` receives the gradient held in buffer `src` unchanged.
    fn contribute(&mut self, j: usize, src: usize) -> Result<(), PlanError> {
        if !self.needs[j] {
            return Ok(());
        }
        match self.gbuf[j] {
            None if self.total[j] == 1 => {
                self.gbuf[j] = Some(src);
                self.aliased += 1;
            }
            None => {
                let out = self.new_buf(j)?;
                self.steps.push(BStep::Copy { x: src, out });
                self.gbuf[j] = Some(out);
            }
            Some(out) => self.steps.push(BStep::AddAssign { x: src, out }),
        }
        Ok(())
    }

    /// The destination of a product contributed to node `j`: a fresh
    /// buffer when it is the first contribution, the node's gradient to
    /// accumulate into otherwise.
    fn product_dst(&mut self, j: usize) -> Result<(usize, bool), PlanError> {
        match self.gbuf[j] {
            Some(out) => Ok((out, true)),
            None => {
                let out = self.new_buf(j)?;
                self.gbuf[j] = Some(out);
                Ok((out, false))
            }
        }
    }

    fn run(&mut self, outputs: &[usize], seeded: &[bool]) -> Result<(), PlanError> {
        let n = self.ops.len();
        // Sample-major layout everywhere — sample `i` is the `i`-th chunk
        // of every tensor — is what makes row ranges shards.
        if let Some(bad) = self
            .dims
            .iter()
            .find(|d| d.iter().skip(1).any(|x| matches!(x, Dim::PerBatch(_))))
        {
            return Err(unsupported(&format!(
                "a batch-linear dim that is not the leading one ({bad:?})"
            )));
        }
        for (&o, &s) in outputs.iter().zip(seeded) {
            if s {
                if !self.needs[o] {
                    return Err(unsupported("a seeded output that depends on no parameter"));
                }
                self.total[o] += 1;
            }
        }
        let mut active = vec![false; n];
        for i in (0..n).rev() {
            active[i] = self.needs[i] && self.total[i] > 0;
            if active[i] {
                if !matches!(self.ops[i], ROp::Param(_)) {
                    self.per_sample(i)?;
                }
                for j in self.ops[i].inputs() {
                    if self.needs[j] {
                        self.total[j] += 1;
                    }
                }
            }
        }
        // A seed is its output's first contribution: loss nodes sit after
        // every forward node on a tape.
        for (k, o) in outputs
            .iter()
            .zip(seeded)
            .filter_map(|(&o, &s)| s.then_some(o))
            .enumerate()
        {
            let out = self.new_buf(o)?;
            self.steps.push(BStep::Seed { k, out });
            self.contribute(o, out)?;
        }
        for i in (0..n).rev() {
            if active[i] && !matches!(self.ops[i], ROp::Param(_)) && !self.fused[i] {
                let g = self.gbuf[i].expect("an active node has received its contributions");
                match self.match_attention(i) {
                    Some(attn) => self.attention(attn, g)?,
                    None => self.backprop(i, g)?,
                }
            }
        }
        Ok(())
    }

    /// The attention block `split_heads ×3 → bmm(Q·Kᵀ) [→ scale] →
    /// softmax → bmm(·V) → merge_heads` ending at node `i`, if the fused
    /// backward serves it: its nodes recorded back to back, each feeding
    /// only the next (so nothing else backpropagates between them, and
    /// every product is a first, non-accumulating contribution), all three
    /// heads' sources needing a gradient, and a geometry
    /// [`tensor::attention_fusable`] accepts.
    fn match_attention(&self, i: usize) -> Option<RawAttention> {
        let ROp::MergeHeads { x: ctx, h } = self.ops[i] else {
            return None;
        };
        let ROp::Bmm {
            a: probs,
            b: vh,
            ta: false,
            tb: false,
        } = self.ops[ctx]
        else {
            return None;
        };
        let ROp::Softmax { x: pre } = self.ops[probs] else {
            return None;
        };
        let (scores, scale) = match self.ops[pre] {
            ROp::Map {
                x,
                op: MapOp::Scale(c),
            } => (x, Some(c)),
            _ => (pre, None),
        };
        let ROp::Bmm {
            a: qh,
            b: kh,
            ta: false,
            tb: true,
        } = self.ops[scores]
        else {
            return None;
        };
        let split = |j: usize| match self.ops[j] {
            ROp::SplitHeads { x, h: hj } if hj == h => Some(x),
            _ => None,
        };
        let (q, k, v) = (split(qh)?, split(kh)?, split(vh)?);
        let mut nodes = vec![qh, kh, vh, scores];
        nodes.extend(scale.map(|_| pre));
        nodes.extend([probs, ctx]);
        let [Dim::PerBatch(b), Dim::Fixed(l), Dim::Fixed(d)] = self.dims[i][..] else {
            return None;
        };
        let fits = nodes.iter().enumerate().all(|(o, &j)| j == qh + o)
            && ctx + 1 == i
            && nodes.iter().all(|&j| self.total[j] == 1)
            && [q, k, v]
                .iter()
                .all(|&j| self.needs[j] && self.dims[j] == self.dims[i])
            && h > 0
            && d % h == 0
            && tensor::attention_fusable(l, d / h);
        fits.then_some(RawAttention {
            nodes,
            q,
            k,
            v,
            probs,
            b,
            h,
            l,
            dh: d / h,
            scale,
        })
    }

    /// Emits one fused step for the whole block; its three gradients go
    /// to `v`, `k`, `q` in that order, as the tape's `split_heads` nodes
    /// hand them on.
    fn attention(&mut self, a: RawAttention, g: usize) -> Result<(), PlanError> {
        let qkv = [self.value(a.q), self.value(a.k), self.value(a.v)];
        let p = self.value(a.probs);
        let out = [self.new_buf(a.q)?, self.new_buf(a.k)?, self.new_buf(a.v)?];
        self.steps.push(BStep::Attention {
            qkv,
            p,
            g,
            b: a.b,
            h: a.h,
            l: a.l,
            dh: a.dh,
            scale: a.scale,
            out,
        });
        for &j in &a.nodes {
            self.fused[j] = true;
        }
        self.contribute(a.v, out[2])?;
        self.contribute(a.k, out[1])?;
        self.contribute(a.q, out[0])
    }

    /// Emits a step computing a fresh buffer shaped like node `like`.
    fn emit(&mut self, like: usize, step: impl FnOnce(usize) -> BStep) -> Result<usize, PlanError> {
        let out = self.new_buf(like)?;
        self.steps.push(step(out));
        Ok(out)
    }

    /// Node `i`'s contributions to its operands, in the tape's order.
    fn backprop(&mut self, i: usize, g: usize) -> Result<(), PlanError> {
        let op = self.ops[i].clone();
        match op {
            ROp::Input(_) | ROp::Param(_) => {}
            ROp::Reshape { x } => self.contribute(x, g)?,
            ROp::Zip { a, b, kind } => match kind {
                ZipKind::Add => {
                    self.contribute(a, g)?;
                    self.contribute(b, g)?;
                }
                ZipKind::Sub => {
                    self.contribute(a, g)?;
                    if self.needs[b] {
                        let t = self.emit(b, |out| BStep::Scale { x: g, c: -1.0, out })?;
                        self.contribute(b, t)?;
                    }
                }
                ZipKind::Mul => {
                    let side = |me: &mut Self, dst: usize, other: usize| {
                        if !me.needs[dst] {
                            return Ok(None);
                        }
                        let v = me.value(other);
                        me.emit(dst, |out| BStep::MulFwd { x: g, v, out }).map(Some)
                    };
                    let (ga, gb) = (side(self, a, b)?, side(self, b, a)?);
                    if let Some(t) = ga {
                        self.contribute(a, t)?;
                    }
                    if let Some(t) = gb {
                        self.contribute(b, t)?;
                    }
                }
            },
            ROp::RowOp { x, row, kind } => {
                self.contribute(x, g)?;
                if self.needs[row] {
                    let pid = self.param_leaf(row)?;
                    let d = self.last(i);
                    self.steps.push(BStep::ParamColSum {
                        pid,
                        g,
                        rows: self.per_sample(i)? / d,
                        d,
                        negate: kind == RowKind::Sub,
                    });
                }
            }
            ROp::Map { x, op } => {
                let act = |me: &mut Self, f: ActBwd, of: usize| {
                    let v = me.value(of);
                    me.emit(x, |out| BStep::Act { g, v, f, out })
                };
                let t = match op {
                    MapOp::AddScalar(_) => g,
                    MapOp::Scale(c) => self.emit(x, |out| BStep::Scale { x: g, c, out })?,
                    MapOp::Exp => {
                        let v = self.value(i);
                        self.emit(x, |out| BStep::MulFwd { x: g, v, out })?
                    }
                    MapOp::Relu => act(self, ActBwd::Relu, i)?,
                    MapOp::Tanh => act(self, ActBwd::Tanh, i)?,
                    MapOp::Sigmoid => act(self, ActBwd::Sigmoid, i)?,
                    MapOp::Sqrt => act(self, ActBwd::Sqrt, i)?,
                    MapOp::Abs => act(self, ActBwd::Abs, x)?,
                    MapOp::Square => act(self, ActBwd::Square, x)?,
                };
                self.contribute(x, t)?;
            }
            ROp::Matmul { a, b } => {
                let rows = self.lead(i);
                let (k_in, n_out) = (self.fixed(a, 1), self.last(i));
                if self.needs[a] {
                    let y = self.value(b);
                    let (out, acc) = self.product_dst(a)?;
                    self.steps.push(BStep::Gemm {
                        x: g,
                        y,
                        rows,
                        k: n_out,
                        n: k_in,
                        acc,
                        out,
                    });
                }
                if self.needs[b] {
                    let pid = self.param_leaf(b)?;
                    let av = self.value(a);
                    self.steps.push(BStep::ParamMatmul {
                        pid,
                        a: av,
                        g,
                        rows,
                        k: k_in,
                        n: n_out,
                    });
                }
            }
            ROp::Bmm { a, b, ta, tb } => {
                // g is [batch, M, N]; a holds [M, K] ([K, M] if ta), b holds
                // [K, N] ([N, K] if tb). Operand order and transposes are
                // `Graph::backprop_bmm`'s.
                let batch = self.lead(i);
                let (m, n) = (self.fixed(i, 1), self.fixed(i, 2));
                let k = self.fixed(a, if ta { 1 } else { 2 });
                let gs = BSrc::Grad(g);
                if self.needs[a] {
                    let bv = self.value(b);
                    let (out, acc) = self.product_dst(a)?;
                    self.steps.push(if !ta {
                        BStep::Bmm {
                            x: gs,
                            xt: false,
                            y: bv,
                            yt: !tb,
                            batch,
                            m,
                            k: n,
                            n: k,
                            acc,
                            out,
                        }
                    } else {
                        BStep::Bmm {
                            x: bv,
                            xt: tb,
                            y: gs,
                            yt: true,
                            batch,
                            m: k,
                            k: n,
                            n: m,
                            acc,
                            out,
                        }
                    });
                }
                if self.needs[b] {
                    let av = self.value(a);
                    let (out, acc) = self.product_dst(b)?;
                    self.steps.push(if !tb {
                        BStep::Bmm {
                            x: av,
                            xt: !ta,
                            y: gs,
                            yt: false,
                            batch,
                            m: k,
                            k: m,
                            n,
                            acc,
                            out,
                        }
                    } else {
                        BStep::Bmm {
                            x: gs,
                            xt: true,
                            y: av,
                            yt: ta,
                            batch,
                            m: n,
                            k: m,
                            n: k,
                            acc,
                            out,
                        }
                    });
                }
            }
            ROp::SplitHeads { x, h } | ROp::MergeHeads { x, h } => {
                // The gradient takes the inverse permutation; `[b, l, d]`
                // is the merged side's shape, whichever node holds it.
                let split = matches!(op, ROp::MergeHeads { .. });
                let at = if split { i } else { x };
                let (b, l, d) = (self.lead(at), self.fixed(at, 1), self.fixed(at, 2));
                let t = self.emit(x, |out| BStep::Heads {
                    x: g,
                    h,
                    b,
                    l,
                    d,
                    split,
                    out,
                })?;
                self.contribute(x, t)?;
            }
            ROp::Softmax { x } => {
                let (s, d) = (self.value(i), self.last(i));
                let t = self.emit(x, |out| BStep::SoftmaxBwd { s, g, d, out })?;
                self.contribute(x, t)?;
            }
            ROp::Concat { parts } => {
                let d = self.last(i);
                let mut start = 0;
                for p in parts {
                    let end = start + self.last(p);
                    if self.needs[p] {
                        let t = self.emit(p, |out| BStep::SliceCols {
                            g,
                            d,
                            start,
                            end,
                            out,
                        })?;
                        self.contribute(p, t)?;
                    }
                    start = end;
                }
            }
            ROp::SliceLast { x, start, end } => {
                let d = self.last(x);
                let t = self.emit(x, |out| BStep::PadCols {
                    g,
                    d,
                    start,
                    end,
                    out,
                })?;
                self.contribute(x, t)?;
            }
            ROp::LayerNorm {
                x,
                gamma,
                beta,
                eps,
            } => {
                let d = self.last(i);
                let rows = self.per_sample(i)? / d;
                let (xv, gv) = (self.value(x), self.value(gamma));
                let dgamma = match self.needs[gamma] {
                    true => Some(self.param_leaf(gamma)?),
                    false => None,
                };
                let dbeta = match self.needs[beta] {
                    true => Some(self.param_leaf(beta)?),
                    false => None,
                };
                let t = self.emit(i, |out| BStep::LayerNormBwd {
                    x: xv,
                    gamma: gv,
                    g,
                    eps,
                    rows,
                    d,
                    dgamma,
                    dbeta,
                    out,
                })?;
                self.contribute(x, t)?;
            }
        }
        Ok(())
    }
}

/// Replays a [`TrainPlan`]: [`TrainExec::forward`], then — after the
/// caller turned the outputs into gradient seeds — [`TrainExec::backward`].
///
/// One arena holds the forward slots (kept activations stay live across
/// the two calls) followed by the gradient slots; after the first step of
/// a given batch size and shard count neither call allocates.
pub struct TrainExec {
    plan: Arc<TrainPlan>,
    arena: Vec<f32>,
    /// Arena offsets of the forward slots, then of the backward slots.
    fwd_offsets: Vec<usize>,
    bwd_offsets: Vec<usize>,
    /// Shard partials of the parameter-gradient step being executed.
    scratch: Vec<f32>,
    cur_b: usize,
    allocs: usize,
}

impl TrainExec {
    /// Creates an executor for `plan` (arena allocated on first use).
    pub fn new(plan: Arc<TrainPlan>) -> Self {
        TrainExec {
            plan,
            arena: Vec::new(),
            fwd_offsets: Vec::new(),
            bwd_offsets: Vec::new(),
            scratch: Vec::new(),
            cur_b: 0,
            allocs: 0,
        }
    }

    /// The compiled plan being replayed.
    pub fn plan(&self) -> &Arc<TrainPlan> {
        &self.plan
    }

    /// Arena and scratch growth events so far (flat once warmed up).
    pub fn alloc_count(&self) -> usize {
        self.allocs
    }

    /// Runs the forward half on `inputs` (one tensor per recorded
    /// `Exec::constant`, in order). Outputs are readable through
    /// [`TrainExec::output`] until the next `forward`.
    pub fn forward(&mut self, params: &ParamStore, inputs: &[&Tensor]) -> Result<(), PlanError> {
        let plan = Arc::clone(&self.plan);
        let b = infer_batch(&plan.fwd.inputs, inputs)?;
        if b != self.cur_b {
            let mut off = 0usize;
            for (offsets, sizes) in [
                (&mut self.fwd_offsets, &plan.fwd.slot_sizes),
                (&mut self.bwd_offsets, &plan.slot_sizes),
            ] {
                offsets.clear();
                for s in sizes {
                    offsets.push(off);
                    off += s.at(b);
                }
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
            plan: &plan.fwd,
            offsets: &self.fwd_offsets,
            b,
            params,
            inputs,
            arena: self.arena.as_mut_ptr(),
            arena_len: self.arena.len(),
        };
        for step in &plan.fwd_steps {
            match step {
                FwdStep::Plan(i) => ctx.exec(&plan.fwd.steps[*i])?,
                FwdStep::Attention(a) => ctx.exec_train_attention(a)?,
            }
        }
        Ok(())
    }

    /// Output `i`'s data (valid after a successful [`TrainExec::forward`]).
    pub fn output(&self, i: usize) -> &[f32] {
        assert!(i < self.plan.n_outputs, "output index out of range");
        let (src, dims) = &self.plan.fwd.outputs[i];
        let len: usize = dims.iter().map(|d| d.at(self.cur_b)).product();
        match src {
            Src::Buf(bid) => {
                let off = self.fwd_offsets[self.plan.fwd.bufs[*bid].slot];
                &self.arena[off..off + len]
            }
            _ => unreachable!("outputs always live in the arena"),
        }
    }

    /// Output `i`'s shape for the last forward.
    pub fn output_shape(&self, i: usize) -> Vec<usize> {
        self.plan.output_shape(i, self.cur_b)
    }

    /// Runs the backward half for the batch of the last
    /// [`TrainExec::forward`] (`inputs` must be the same tensors), adding
    /// every parameter's gradient onto `params`' stored one.
    ///
    /// `seeds[k]` is the loss gradient of the `k`-th seeded output, rows
    /// already carrying their shard's weight. Cross-row reductions run per
    /// `shard_rows` samples and combine by a fixed binary tree: pass the
    /// data-parallel tape step's shard size to reproduce it, anything
    /// `>= batch` for the serial tape step.
    pub fn backward(
        &mut self,
        params: &mut ParamStore,
        inputs: &[&Tensor],
        seeds: &[&[f32]],
        shard_rows: usize,
    ) -> Result<(), PlanError> {
        let plan = Arc::clone(&self.plan);
        let b = infer_batch(&plan.fwd.inputs, inputs)?;
        if b != self.cur_b || shard_rows == 0 {
            return Err(PlanError::Input(format!(
                "backward at batch {b} after a forward at {} (shard rows {shard_rows})",
                self.cur_b
            )));
        }
        if seeds.len() != plan.seeded.len() {
            return Err(PlanError::Input(format!(
                "expected {} gradient seeds, got {}",
                plan.seeded.len(),
                seeds.len()
            )));
        }
        for (k, (seed, &o)) in seeds.iter().zip(&plan.seeded).enumerate() {
            let want: usize = plan.fwd.outputs[o].1.iter().map(|d| d.at(b)).product();
            if seed.len() != want {
                return Err(PlanError::Input(format!(
                    "seed {k} has {} elements, output {o} has {want}",
                    seed.len()
                )));
            }
        }
        let shards = b.div_ceil(shard_rows).max(1);
        let need = plan.scratch * shards;
        if need > self.scratch.len() {
            if need > self.scratch.capacity() {
                self.allocs += 1;
            }
            self.scratch.resize(need, 0.0);
        }
        let (values, grads) = params.values_and_grads_mut();
        let mut ctx = BwdCtx {
            plan: &plan,
            fwd_offsets: &self.fwd_offsets,
            bwd_offsets: &self.bwd_offsets,
            b,
            shard_rows,
            shards,
            values,
            grads,
            inputs,
            seeds,
            scratch: &mut self.scratch,
            arena: self.arena.as_mut_ptr(),
            arena_len: self.arena.len(),
        };
        for step in &plan.steps {
            ctx.exec(step)?;
        }
        Ok(())
    }
}

/// Per-run backward context: raw arena access under the planner's aliasing
/// discipline, as `plan::RunCtx` does for the forward half.
struct BwdCtx<'r> {
    plan: &'r TrainPlan,
    fwd_offsets: &'r [usize],
    bwd_offsets: &'r [usize],
    b: usize,
    shard_rows: usize,
    shards: usize,
    values: &'r [Tensor],
    grads: &'r mut [Tensor],
    inputs: &'r [&'r Tensor],
    seeds: &'r [&'r [f32]],
    scratch: &'r mut [f32],
    arena: *mut f32,
    arena_len: usize,
}

impl<'r> BwdCtx<'r> {
    fn grad_range(&self, buf: usize) -> (usize, usize) {
        (
            self.bwd_offsets[self.plan.slot_of[buf]],
            self.plan.sizes[buf].at(self.b),
        )
    }

    /// A gradient buffer, read-only. The slice aliases the arena: callers
    /// never hold it across a write to the same slot (`same_slot`).
    fn grad(&self, buf: usize) -> &'r [f32] {
        let (off, len) = self.grad_range(buf);
        assert!(off + len <= self.arena_len, "arena read out of bounds");
        // SAFETY: in bounds (asserted). The only mutable slice alive next
        // to it is the executing step's output, which shares its slot only
        // in the planner's in-place cases — and those never call `grad`
        // for the aliased operand (`grad_unless_out`).
        unsafe { std::slice::from_raw_parts(self.arena.add(off), len) }
    }

    /// The executing step's output buffer.
    #[allow(clippy::mut_from_ref)]
    fn out(&self, buf: usize) -> &'r mut [f32] {
        let (off, len) = self.grad_range(buf);
        assert!(off + len <= self.arena_len, "arena write out of bounds");
        // SAFETY: in bounds (asserted); one output slice exists per step,
        // and every operand read next to it is either checked to sit in
        // another slot or is a forward / parameter / input slice, which
        // never overlap the backward region.
        unsafe { std::slice::from_raw_parts_mut(self.arena.add(off), len) }
    }

    fn same_slot(&self, a: usize, b: usize) -> bool {
        self.plan.slot_of[a] == self.plan.slot_of[b]
    }

    /// Gradient `buf`, or `None` when it is the output itself (the step
    /// then reads through `out`).
    fn grad_unless_out(&self, buf: usize, out: usize) -> Option<&'r [f32]> {
        (!self.same_slot(buf, out)).then(|| self.grad(buf))
    }

    fn assert_disjoint(&self, buf: usize, out: usize) {
        assert!(
            !self.same_slot(buf, out),
            "planner bug: operand aliases the output of a step that is not in place"
        );
    }

    fn read(&self, src: BSrc) -> &'r [f32] {
        match src {
            BSrc::Param(id) => self.values[id.index()].data(),
            BSrc::Input(i) => self.inputs[i].data(),
            BSrc::Grad(buf) => self.grad(buf),
            BSrc::Act(k) => {
                let meta = &self.plan.fwd.bufs[self.plan.acts[k]];
                let (off, len) = (self.fwd_offsets[meta.slot], meta.size.at(self.b));
                assert!(off + len <= self.arena_len, "arena read out of bounds");
                // SAFETY: in bounds (asserted); a kept activation is a
                // forward output, so its slot is never reassigned, and no
                // backward step writes the forward region.
                unsafe { std::slice::from_raw_parts(self.arena.add(off), len) }
            }
        }
    }

    /// Sample range of shard `s`.
    fn shard(&self, s: usize) -> (usize, usize) {
        let r0 = s * self.shard_rows;
        (r0, (r0 + self.shard_rows).min(self.b))
    }

    /// Tree-adds the first `p` elements of every shard's scratch stripe
    /// into stripe 0 — `(0,1)(2,3)…`, then pairs of pairs — and adds the
    /// total onto `grad[pid][at..at + len]`.
    fn reduce_into(&mut self, p: usize, parts: &[(Option<ParamId>, usize, usize)]) {
        let mut stride = 1;
        while stride < self.shards {
            let mut i = 0;
            while i + stride < self.shards {
                let (head, tail) = self.scratch.split_at_mut((i + stride) * p);
                for (a, &b) in head[i * p..(i + 1) * p].iter_mut().zip(&tail[..p]) {
                    *a += b;
                }
                i += 2 * stride;
            }
            stride *= 2;
        }
        for &(pid, at, len) in parts {
            if let Some(pid) = pid {
                let dst = self.grads[pid.index()].data_mut();
                assert_eq!(dst.len(), len, "parameter gradient shape");
                for (a, &b) in dst.iter_mut().zip(&self.scratch[at..at + len]) {
                    *a += b;
                }
            }
        }
    }

    fn exec(&mut self, step: &BStep) -> Result<(), PlanError> {
        match *step {
            BStep::Seed { k, out } => self.out(out).copy_from_slice(self.seeds[k]),
            BStep::Copy { x, out } => {
                if let Some(xs) = self.grad_unless_out(x, out) {
                    self.out(out).copy_from_slice(xs);
                }
            }
            BStep::AddAssign { x, out } => {
                self.assert_disjoint(x, out);
                for (a, &b) in self.out(out).iter_mut().zip(self.grad(x)) {
                    *a += b;
                }
            }
            BStep::Scale { x, c, out } => match self.grad_unless_out(x, out) {
                Some(xs) => {
                    for (o, &g) in self.out(out).iter_mut().zip(xs) {
                        *o = g * c;
                    }
                }
                None => self.out(out).iter_mut().for_each(|o| *o *= c),
            },
            BStep::MulFwd { x, v, out } => {
                let vs = self.read(v);
                match self.grad_unless_out(x, out) {
                    Some(xs) => {
                        for ((o, &g), &v) in self.out(out).iter_mut().zip(xs).zip(vs) {
                            *o = g * v;
                        }
                    }
                    None => {
                        for (o, &v) in self.out(out).iter_mut().zip(vs) {
                            *o *= v;
                        }
                    }
                }
            }
            BStep::Act { g, v, f, out } => {
                act_bwd(self.out(out), self.grad_unless_out(g, out), self.read(v), f)
            }
            BStep::Gemm {
                x,
                y,
                rows,
                k,
                n,
                acc,
                out,
            } => {
                self.assert_disjoint(x, out);
                let (xs, ys, o) = (self.grad(x), self.read(y), self.out(out));
                if acc {
                    for s in 0..self.shards {
                        let (r0, r1) = self.shard(s);
                        let (lo, hi) = (r0 * rows, r1 * rows);
                        tensor::gemm_t_slices(
                            hi - lo,
                            k,
                            n,
                            &xs[lo * k..hi * k],
                            false,
                            ys,
                            true,
                            true,
                            &mut o[lo * n..hi * n],
                        )?;
                    }
                } else {
                    tensor::gemm_t_slices(rows * self.b, k, n, xs, false, ys, true, false, o)?;
                }
            }
            BStep::Bmm {
                x,
                xt,
                y,
                yt,
                batch,
                m,
                k,
                n,
                acc,
                out,
            } => {
                for s in [x, y] {
                    if let BSrc::Grad(buf) = s {
                        self.assert_disjoint(buf, out);
                    }
                }
                let (xs, ys, o) = (self.read(x), self.read(y), self.out(out));
                let batch = batch * self.b;
                if acc {
                    tensor::bmm_acc_slices(batch, m, k, n, xs, xt, ys, yt, o)?;
                } else {
                    tensor::bmm_slices(batch, m, k, n, xs, xt, ys, yt, o)?;
                }
            }
            BStep::Heads {
                x,
                h,
                b,
                l,
                d,
                split,
                out,
            } => {
                self.assert_disjoint(x, out);
                heads(self.out(out), self.grad(x), b * self.b, l, d, h, split);
            }
            BStep::Attention {
                qkv,
                p,
                g,
                b,
                h,
                l,
                dh,
                scale,
                out,
            } => {
                for (i, &o) in out.iter().enumerate() {
                    self.assert_disjoint(g, o);
                    for &other in &out[i + 1..] {
                        self.assert_disjoint(other, o);
                    }
                }
                let [q, k, v] = qkv.map(|s| self.read(s));
                let (p, gs) = (self.read(p), self.grad(g));
                let [dq, dk, dv] = out.map(|o| self.out(o));
                tensor::attention_bwd_slices(
                    b * self.b,
                    h,
                    l,
                    dh,
                    q,
                    k,
                    v,
                    p,
                    gs,
                    scale,
                    dq,
                    dk,
                    dv,
                )?;
            }
            BStep::SoftmaxBwd { s, g, d, out } => {
                let o = self.out(out);
                if let Some(gs) = self.grad_unless_out(g, out) {
                    o.copy_from_slice(gs);
                }
                softmax_bwd_rows(self.read(s), d, o);
            }
            BStep::LayerNormBwd {
                x,
                gamma,
                g,
                eps,
                rows,
                d,
                dgamma,
                dbeta,
                out,
            } => {
                let o = self.out(out);
                if let Some(gs) = self.grad_unless_out(g, out) {
                    o.copy_from_slice(gs);
                }
                let (xs, gv) = (self.read(x), self.read(gamma));
                for s in 0..self.shards {
                    let (r0, r1) = self.shard(s);
                    let (lo, hi) = (r0 * rows * d, r1 * rows * d);
                    let stripe = &mut self.scratch[s * 2 * d..(s + 1) * 2 * d];
                    stripe.fill(0.0);
                    let (dg, db) = stripe.split_at_mut(d);
                    layer_norm_bwd_rows(&xs[lo..hi], gv, eps, d, &mut o[lo..hi], dg, db);
                }
                self.reduce_into(2 * d, &[(dgamma, 0, d), (dbeta, d, d)]);
            }
            BStep::SliceCols {
                g,
                d,
                start,
                end,
                out,
            } => {
                self.assert_disjoint(g, out);
                let w = end - start;
                for (orow, grow) in self
                    .out(out)
                    .chunks_exact_mut(w)
                    .zip(self.grad(g).chunks_exact(d))
                {
                    orow.copy_from_slice(&grow[start..end]);
                }
            }
            BStep::PadCols {
                g,
                d,
                start,
                end,
                out,
            } => {
                self.assert_disjoint(g, out);
                let o = self.out(out);
                o.fill(0.0);
                for (orow, grow) in o
                    .chunks_exact_mut(d)
                    .zip(self.grad(g).chunks_exact(end - start))
                {
                    orow[start..end].copy_from_slice(grow);
                }
            }
            BStep::ParamMatmul {
                pid,
                a,
                g,
                rows,
                k,
                n,
            } => {
                let (av, gs) = (self.read(a), self.grad(g));
                for s in 0..self.shards {
                    let (r0, r1) = self.shard(s);
                    let (lo, hi) = (r0 * rows, r1 * rows);
                    tensor::gemm_t_slices(
                        k,
                        hi - lo,
                        n,
                        &av[lo * k..hi * k],
                        true,
                        &gs[lo * n..hi * n],
                        false,
                        false,
                        &mut self.scratch[s * k * n..(s + 1) * k * n],
                    )?;
                }
                self.reduce_into(k * n, &[(Some(pid), 0, k * n)]);
            }
            BStep::ParamColSum {
                pid,
                g,
                rows,
                d,
                negate,
            } => {
                let gs = self.grad(g);
                for s in 0..self.shards {
                    let (r0, r1) = self.shard(s);
                    col_sums(
                        &gs[r0 * rows * d..r1 * rows * d],
                        d,
                        negate,
                        &mut self.scratch[s * d..(s + 1) * d],
                    );
                }
                self.reduce_into(d, &[(Some(pid), 0, d)]);
            }
        }
        Ok(())
    }
}

/// `o[i] = f(g[i], v[i])`; `g == None` is the in-place case.
fn act_bwd(o: &mut [f32], g: Option<&[f32]>, v: &[f32], f: ActBwd) {
    #[inline(always)]
    fn run(o: &mut [f32], g: Option<&[f32]>, v: &[f32], f: impl Fn(f32, f32) -> f32) {
        match g {
            Some(gs) => {
                for ((o, &g), &v) in o.iter_mut().zip(gs).zip(v) {
                    *o = f(g, v);
                }
            }
            None => {
                for (o, &v) in o.iter_mut().zip(v) {
                    *o = f(*o, v);
                }
            }
        }
    }
    // One loop per kind, so each gets its own vectorized body.
    match f {
        ActBwd::Relu => run(o, g, v, |g, v| ActBwd::Relu.apply(g, v)),
        ActBwd::Tanh => run(o, g, v, |g, v| ActBwd::Tanh.apply(g, v)),
        ActBwd::Sigmoid => run(o, g, v, |g, v| ActBwd::Sigmoid.apply(g, v)),
        ActBwd::Abs => run(o, g, v, |g, v| ActBwd::Abs.apply(g, v)),
        ActBwd::Sqrt => run(o, g, v, |g, v| ActBwd::Sqrt.apply(g, v)),
        ActBwd::Square => run(o, g, v, |g, v| ActBwd::Square.apply(g, v)),
    }
}

/// `split == true`: `[b, l, d] -> [b·h, l, d/h]`; otherwise the inverse.
fn heads(o: &mut [f32], x: &[f32], b: usize, l: usize, d: usize, h: usize, split: bool) {
    let dh = d / h;
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
}

/// Softmax backward over rows of width `d`, in place: `o` holds the
/// incoming gradient on entry and `s * (g - Σ s·g)` on return.
fn softmax_bwd_rows(s: &[f32], d: usize, o: &mut [f32]) {
    for (srow, orow) in s.chunks(d).zip(o.chunks_mut(d)) {
        tensor::softmax_bwd_row(srow, orow);
    }
}

/// Layer-norm backward over rows of width `d`, in place: `o` holds the
/// incoming gradient on entry and `dx` on return; `dgamma` / `dbeta`
/// accumulate row after row, as the tape's do. Rows advance
/// [`NORM_ROWS`] at a time, then four, then one: each row's mean,
/// variance and two dot chains stay serial and in the tape's order, but
/// the rows' chains run side by side, and a column accumulator still
/// takes its rows in order.
fn layer_norm_bwd_rows(
    x: &[f32],
    gamma: &[f32],
    eps: f32,
    d: usize,
    o: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    #[inline(always)]
    fn rows<'x, 'o, const R: usize>(
        x: &'x [f32],
        o: &'o mut [f32],
        gamma: &[f32],
        eps: f32,
        d: usize,
        dgamma: &mut [f32],
        dbeta: &mut [f32],
    ) -> (&'x [f32], &'o mut [f32]) {
        let (gamma, dgamma, dbeta) = (&gamma[..d], &mut dgamma[..d], &mut dbeta[..d]);
        let mut xs = x.chunks_exact(R * d);
        let mut os = o.chunks_exact_mut(R * d);
        for (xb, ob) in (&mut xs).zip(&mut os) {
            let mut it = xb.chunks_exact(d);
            let xr: [&[f32]; R] = std::array::from_fn(|_| it.next().expect("R rows"));
            let or = split_rows::<R>(ob, d);
            let mut s = [sum_start(); R];
            for p in 0..d {
                for (s, row) in s.iter_mut().zip(&xr) {
                    *s += row[p];
                }
            }
            let mean = s.map(|v| v / d as f32);
            let mut vs = [sum_start(); R];
            for p in 0..d {
                for ((v, row), &m) in vs.iter_mut().zip(&xr).zip(&mean) {
                    *v += (row[p] - m) * (row[p] - m);
                }
            }
            let inv = vs.map(|v| 1.0 / (v / d as f32 + eps).sqrt());
            let xhat = |r: usize, j: usize| (xr[r][j] - mean[r]) * inv[r];
            let mut mean_gg = [0.0f32; R];
            let mut mean_ggx = [0.0f32; R];
            for j in 0..d {
                for r in 0..R {
                    let gg = or[r][j] * gamma[j];
                    mean_gg[r] += gg;
                    mean_ggx[r] += gg * xhat(r, j);
                }
            }
            let mean_gg = mean_gg.map(|v| v / d as f32);
            let mean_ggx = mean_ggx.map(|v| v / d as f32);
            // The column accumulators and `dx` are element-wise: a row at a
            // time (rows in order), so those loops run across `j`.
            for (r, orow) in or.into_iter().enumerate() {
                let (xrow, m, iv) = (xr[r], mean[r], inv[r]);
                let cols = dgamma.iter_mut().zip(dbeta.iter_mut());
                for ((&g, &x), (dg, db)) in orow.iter().zip(xrow).zip(cols) {
                    *dg += g * ((x - m) * iv);
                    *db += g;
                }
                let (mg, mgx) = (mean_gg[r], mean_ggx[r]);
                for ((o, &x), &ga) in orow.iter_mut().zip(xrow).zip(gamma) {
                    let xhat = (x - m) * iv;
                    *o = iv * (*o * ga - mg - xhat * mgx);
                }
            }
        }
        (xs.remainder(), os.into_remainder())
    }
    if d == 0 {
        return;
    }
    let (x, o) = rows::<NORM_ROWS>(x, o, gamma, eps, d, dgamma, dbeta);
    let (x, o) = rows::<4>(x, o, gamma, eps, d, dgamma, dbeta);
    rows::<1>(x, o, gamma, eps, d, dgamma, dbeta);
}

/// Column sums of rows of width `d`, each column accumulated in `f64` in
/// row order and rounded once (`Tensor::sum_axis0`), then negated if asked.
fn col_sums(g: &[f32], d: usize, negate: bool, out: &mut [f32]) {
    const BLOCK: usize = 64;
    for j0 in (0..d).step_by(BLOCK) {
        let w = BLOCK.min(d - j0);
        let mut acc = [0.0f64; BLOCK];
        for row in g.chunks_exact(d) {
            for (a, &v) in acc[..w].iter_mut().zip(&row[j0..j0 + w]) {
                *a += v as f64;
            }
        }
        for (o, &a) in out[j0..j0 + w].iter_mut().zip(&acc[..w]) {
            *o = if negate { -(a as f32) } else { a as f32 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Exec;
    use crate::tape::Graph;

    /// A model under test: a generic forward over one `[b, ..]` input.
    trait Program {
        fn shapes(&self) -> Vec<Vec<usize>>;
        fn input(&self, b: usize) -> Tensor;
        fn run<E: Exec>(
            &self,
            e: &mut E,
            store: &ParamStore,
            ids: &[ParamId],
            x: Tensor,
        ) -> tensor::Result<Vec<Var>>;
    }

    fn store_for<P: Program>(p: &P) -> (ParamStore, Vec<ParamId>) {
        let mut store = ParamStore::new();
        let ids = p
            .shapes()
            .iter()
            .enumerate()
            .map(|(k, shape)| {
                let t = Tensor::from_fn(shape, |i| ((i as f32) * 0.173 + k as f32).sin() * 0.4);
                store.add(format!("p{k}"), t)
            })
            .collect();
        (store, ids)
    }

    /// Samples `[r0, r1)` of a sample-major tensor holding `n` of them.
    fn rows(t: &Tensor, n: usize, r0: usize, r1: usize) -> Tensor {
        let per = t.numel() / n;
        let mut shape = t.shape().to_vec();
        shape[0] = shape[0] / n * (r1 - r0);
        Tensor::from_vec(t.data()[r0 * per..r1 * per].to_vec(), &shape).unwrap()
    }

    /// A nonlinear scalar head over the seeded outputs: `Σ_k Σ c_k ⊙ out_k²`
    /// with coefficients fixed per *global* element, so a shard's head is
    /// the full head restricted to its rows. `first[k]` is output `k`'s
    /// first global element in this graph.
    fn head(g: &mut Graph, outs: &[Var], seeded: &[bool], first: &[usize], w: f32) -> Var {
        let mut total: Option<Var> = None;
        for (k, (&o, _)) in outs.iter().zip(seeded).enumerate().filter(|(_, (_, &s))| s) {
            let shape = g.value(o).shape().to_vec();
            let at = first[k];
            let c = Tensor::from_fn(&shape, |i| (((at + i) as f32) * 0.37 + k as f32).cos());
            let sq = g.square(o).unwrap();
            let wsq = g.mul_const(sq, c).unwrap();
            let s = g.sum(wsq).unwrap();
            total = Some(match total {
                Some(t) => g.add(t, s).unwrap(),
                None => s,
            });
        }
        let loss = total.expect("one output is seeded");
        if w == 1.0 {
            loss
        } else {
            g.scale(loss, w)
        }
    }

    /// The tape's gradients for the data-parallel step's arithmetic: one
    /// graph per `shard_rows` range, seeds weighted `rows / n`, shard
    /// gradients tree-added, the total added onto zeroed stored gradients.
    fn tape_grads<P: Program>(
        p: &P,
        store: &ParamStore,
        ids: &[ParamId],
        x: &Tensor,
        seeded: &[bool],
        shard_rows: usize,
    ) -> ParamStore {
        let n = x.shape()[0];
        let mut level: Vec<Vec<Option<Tensor>>> = Vec::new();
        for r0 in (0..n).step_by(shard_rows) {
            let r1 = (r0 + shard_rows).min(n);
            let mut g = Graph::new();
            let outs = p.run(&mut g, store, ids, rows(x, n, r0, r1)).unwrap();
            let first: Vec<usize> = outs
                .iter()
                .map(|&o| r0 * (g.value(o).numel() / (r1 - r0)))
                .collect();
            let w = if n <= shard_rows {
                1.0
            } else {
                (r1 - r0) as f32 / n as f32
            };
            let root = head(&mut g, &outs, seeded, &first, w);
            g.backward(root).unwrap();
            let mut grads: Vec<Option<Tensor>> = vec![None; store.len()];
            for (pid, gt) in g.take_param_grads() {
                assert!(grads[pid.index()].replace(gt).is_none(), "one leaf each");
            }
            level.push(grads);
        }
        while level.len() > 1 {
            let mut next = Vec::new();
            let mut it = level.into_iter();
            while let Some(mut a) = it.next() {
                if let Some(b) = it.next() {
                    for (x, y) in a.iter_mut().zip(b) {
                        if let (Some(x), Some(y)) = (x, y) {
                            x.add_assign(&y).unwrap();
                        }
                    }
                }
                next.push(a);
            }
            level = next;
        }
        let mut out = store.clone();
        out.zero_grad();
        for (id, g) in out.ids().collect::<Vec<_>>().into_iter().zip(&level[0]) {
            if let Some(g) = g {
                out.add_to_grad(id, g).unwrap();
            }
        }
        out
    }

    /// The compiled step's gradients under the same arithmetic: one
    /// forward, per-shard head tapes over `constant` leaves for the seeds,
    /// one backward.
    fn compiled_grads<P: Program>(
        p: &P,
        exec: &mut TrainExec,
        store: &ParamStore,
        x: &Tensor,
        seeded: &[bool],
        shard_rows: usize,
    ) -> ParamStore {
        let n = x.shape()[0];
        exec.forward(store, &[x]).unwrap();
        let outs: Vec<Tensor> = (0..seeded.len())
            .map(|k| Tensor::from_vec(exec.output(k).to_vec(), &exec.output_shape(k)).unwrap())
            .collect();
        let mut seeds: Vec<Vec<f32>> = Vec::new();
        for r0 in (0..n).step_by(shard_rows) {
            let r1 = (r0 + shard_rows).min(n);
            let mut g = Graph::new();
            let leaves: Vec<Var> = outs
                .iter()
                .map(|o| g.constant(rows(o, n, r0, r1)))
                .collect();
            let first: Vec<usize> = outs.iter().map(|o| r0 * (o.numel() / n)).collect();
            let w = if n <= shard_rows {
                1.0
            } else {
                (r1 - r0) as f32 / n as f32
            };
            let root = head(&mut g, &leaves, seeded, &first, w);
            g.backward(root).unwrap();
            let live = leaves.iter().zip(seeded).filter(|(_, &s)| s);
            for (k, (&leaf, _)) in live.enumerate() {
                if seeds.len() <= k {
                    seeds.push(Vec::new());
                }
                seeds[k].extend_from_slice(g.grad(leaf).unwrap().data());
            }
        }
        let _ = p;
        let mut out = store.clone();
        out.zero_grad();
        let seeds: Vec<&[f32]> = seeds.iter().map(Vec::as_slice).collect();
        exec.backward(&mut out, &[x], &seeds, shard_rows).unwrap();
        out
    }

    fn compile<P: Program>(
        p: &P,
        store: &ParamStore,
        ids: &[ParamId],
        seeded: &[bool],
    ) -> Result<TrainPlan, PlanError> {
        TrainPlan::compile(store, seeded, |rec, b| {
            p.run(rec, store, ids, p.input(b)).map_err(PlanError::from)
        })
    }

    fn assert_grads_bit_equal(got: &ParamStore, want: &ParamStore, ctx: &str) {
        for id in want.ids() {
            let (g, w) = (got.grad(id).data(), want.grad(id).data());
            assert!(
                g.iter()
                    .map(|v| v.to_bits())
                    .eq(w.iter().map(|v| v.to_bits())),
                "{ctx}: gradient of {} differs from the tape's",
                want.name(id)
            );
        }
    }

    /// Compiled ≡ tape, bit for bit, sharded and one-shard, over batch
    /// sizes on both sides of a shard boundary.
    fn assert_matches_tape<P: Program>(p: &P, seeded: &[bool]) {
        let (store, ids) = store_for(p);
        let plan = Arc::new(compile(p, &store, &ids, seeded).unwrap());
        let mut exec = TrainExec::new(plan);
        for b in [37usize, 1, 5, 16, 17, 32] {
            let x = p.input(b);
            for shard_rows in [16usize, usize::MAX] {
                let want = tape_grads(p, &store, &ids, &x, seeded, shard_rows.min(b));
                let got = compiled_grads(p, &mut exec, &store, &x, seeded, shard_rows.min(b));
                assert_grads_bit_equal(&got, &want, &format!("b={b} shard_rows={shard_rows}"));
            }
        }
    }

    /// Central finite differences of the (one-shard) head loss against the
    /// compiled gradient, on a few elements of every parameter.
    fn assert_finite_differences<P: Program>(p: &P, seeded: &[bool], tol: f32) {
        let (store, ids) = store_for(p);
        let x = p.input(3);
        let plan = Arc::new(compile(p, &store, &ids, seeded).unwrap());
        let got = compiled_grads(p, &mut TrainExec::new(plan), &store, &x, seeded, 3);
        let loss_at = |s: &ParamStore| -> f64 {
            let mut g = Graph::new();
            let outs = p.run(&mut g, s, &ids, x.clone()).unwrap();
            let first = vec![0; outs.len()];
            let root = head(&mut g, &outs, seeded, &first, 1.0);
            g.value(root).item() as f64
        };
        let eps = 1e-3f32;
        for &id in &ids {
            let numel = store.value(id).numel();
            for i in (0..numel).step_by((numel / 5).max(1)) {
                let mut hi = store.clone();
                hi.value_mut(id).data_mut()[i] += eps;
                let mut lo = store.clone();
                lo.value_mut(id).data_mut()[i] -= eps;
                let num = ((loss_at(&hi) - loss_at(&lo)) / (2.0 * eps as f64)) as f32;
                let a = got.grad(id).data()[i];
                assert!(
                    (a - num).abs() <= tol * (1.0 + num.abs()),
                    "{}[{i}]: compiled {a}, numeric {num}",
                    store.name(id)
                );
            }
        }
    }

    const L: usize = 3;
    const D: usize = 8;
    const F: usize = 6;

    fn seq_input(b: usize) -> Tensor {
        Tensor::from_fn(&[b, L, D], |i| ((i as f32) * 0.291).sin() * 0.7)
    }

    /// Every recordable op, with the structures that stress the derivation:
    /// a value read three times by batched products (accumulating `Bmm`),
    /// a seeded output feeding two matmuls directly (seed first, then two
    /// accumulating `Gemm`s), a residual, duplicate concat parts, all four
    /// `bmm` transpose forms, and fused bias / activation epilogues.
    struct Mixed;

    impl Program for Mixed {
        fn shapes(&self) -> Vec<Vec<usize>> {
            vec![
                vec![D, D],
                vec![D],
                vec![D],
                vec![D],
                vec![D, F],
                vec![F],
                vec![D, F],
                vec![F],
            ]
        }
        fn input(&self, b: usize) -> Tensor {
            seq_input(b)
        }
        fn run<E: Exec>(
            &self,
            e: &mut E,
            store: &ParamStore,
            ids: &[ParamId],
            x: Tensor,
        ) -> tensor::Result<Vec<Var>> {
            let b = x.shape()[0];
            let x = e.constant(x);
            let flat = e.reshape(x, &[b * L, D])?;
            let w0 = e.param(store, ids[0]);
            let h = e.matmul(flat, w0)?;
            let b0 = e.param(store, ids[1]);
            let h = e.add_row(h, b0)?;
            let h = e.tanh(h)?;
            let h3 = e.reshape(h, &[b, L, D])?;
            let qh = e.split_heads(h3, 2)?;
            let scores = e.bmm(qh, qh, false, true)?;
            let scaled = e.scale(scores, 0.25);
            let probs = e.softmax_last(scaled)?;
            let ctx = e.bmm(probs, qh, false, false)?;
            let merged = e.merge_heads(ctx, 2)?;
            let mflat = e.reshape(merged, &[b * L, D])?;
            let res = e.add(mflat, h)?;
            let (gamma, beta) = (e.param(store, ids[2]), e.param(store, ids[3]));
            let ln = e.layer_norm(res, gamma, beta, 1e-5)?;
            let w1 = e.param(store, ids[4]);
            let u = e.matmul(ln, w1)?;
            let b1 = e.param(store, ids[5]);
            let u = e.add_row(u, b1)?;
            let u = e.relu(u)?;
            let w2 = e.param(store, ids[6]);
            let v = e.matmul(ln, w2)?;
            let v = e.sigmoid(v)?;
            let uv = e.mul(u, v)?;
            let d = e.sub(uv, v)?;
            let sq = e.square(d)?;
            let ab = e.abs(d)?;
            let ab = e.add_scalar(ab, 0.5);
            let rt = e.sqrt(ab)?;
            let ex = e.exp(d)?;
            let rt = e.add(rt, ex)?;
            let row = e.param(store, ids[7]);
            let shifted = e.sub_row(rt, row)?;
            let head = e.slice_last(shifted, 1, 5)?;
            let cat = e.concat_last(&[head, sq, head])?;
            let out = e.tanh(cat)?;
            let t3 = e.reshape(u, &[b, L, F])?;
            let z = e.bmm(t3, h3, true, false)?; // [b, F, D]
            let zz = e.bmm(z, t3, true, true)?; // [b, D, L]
            let zt = e.bmm(h3, zz, true, true)?; // [b, D, D]
            Ok(vec![out, ln, zt])
        }
    }

    #[test]
    fn mixed_program_matches_the_tape_bit_for_bit() {
        assert_matches_tape(&Mixed, &[true, true, true]);
        // An unseeded output is a plain forward value.
        assert_matches_tape(&Mixed, &[true, false, false]);
        assert_matches_tape(&Mixed, &[false, true, false]);
    }

    #[test]
    fn mixed_program_plans_aliases_and_inplace_steps() {
        let (store, ids) = store_for(&Mixed);
        let st = compile(&Mixed, &store, &ids, &[true, true, true])
            .unwrap()
            .stats();
        assert_eq!(st.param_grads, 8, "{st:?}");
        assert!(st.aliased_grads >= 5, "{st:?}");
        assert!(st.inplace_steps >= 5, "{st:?}");
        assert!(st.backward_slots < st.backward_steps / 2, "{st:?}");
    }

    // One small program per backward step kind, for the finite-difference
    // checks (the mixed program's kinks would drown them in noise).
    macro_rules! small_program {
        ($name:ident, $shapes:expr, |$e:ident, $store:ident, $ids:ident, $x:ident| $body:block) => {
            struct $name;
            impl Program for $name {
                fn shapes(&self) -> Vec<Vec<usize>> {
                    $shapes
                }
                fn input(&self, b: usize) -> Tensor {
                    seq_input(b)
                }
                fn run<E: Exec>(
                    &self,
                    $e: &mut E,
                    $store: &ParamStore,
                    $ids: &[ParamId],
                    $x: Tensor,
                ) -> tensor::Result<Vec<Var>> $body
            }
        };
    }

    /// `x · W + b` over the flattened input: the shared stem that puts a
    /// parameter upstream of the kind under test.
    fn stem<E: Exec>(
        e: &mut E,
        store: &ParamStore,
        ids: &[ParamId],
        x: Tensor,
    ) -> tensor::Result<(usize, Var)> {
        let b = x.shape()[0];
        let x = e.constant(x);
        let flat = e.reshape(x, &[b * L, D])?;
        let w = e.param(store, ids[0]);
        let h = e.matmul(flat, w)?;
        let bias = e.param(store, ids[1]);
        Ok((b, e.add_row(h, bias)?))
    }

    small_program!(LinearRelu, vec![vec![D, D], vec![D]], |e, store, ids, x| {
        let (_, h) = stem(e, store, ids, x)?;
        Ok(vec![e.relu(h)?])
    });

    small_program!(Maps, vec![vec![D, D], vec![D]], |e, store, ids, x| {
        let (_, h) = stem(e, store, ids, x)?;
        let a = e.sigmoid(h)?;
        let a = e.scale(a, 1.5);
        let a = e.exp(a)?;
        let a = e.add_scalar(a, 0.25);
        let a = e.sqrt(a)?;
        let s = e.square(h)?;
        let t = e.tanh(h)?;
        let m = e.mul(s, t)?;
        let d = e.sub(a, m)?;
        let ab = e.abs(d)?;
        Ok(vec![ab])
    });

    small_program!(
        RowOps,
        vec![vec![D, D], vec![D], vec![D]],
        |e, store, ids, x| {
            let (_, h) = stem(e, store, ids, x)?;
            let r = e.param(store, ids[2]);
            Ok(vec![e.sub_row(h, r)?])
        }
    );

    small_program!(
        Norm,
        vec![vec![D, D], vec![D], vec![D], vec![D]],
        |e, store, ids, x| {
            let (_, h) = stem(e, store, ids, x)?;
            let (gamma, beta) = (e.param(store, ids[2]), e.param(store, ids[3]));
            Ok(vec![e.layer_norm(h, gamma, beta, 1e-5)?])
        }
    );

    small_program!(Attention, vec![vec![D, D], vec![D]], |e, store, ids, x| {
        let (b, h) = stem(e, store, ids, x)?;
        let h3 = e.reshape(h, &[b, L, D])?;
        let qh = e.split_heads(h3, 2)?;
        let scores = e.bmm(qh, qh, false, true)?;
        let probs = e.softmax_last(scores)?;
        let ctx = e.bmm(probs, qh, false, false)?;
        Ok(vec![e.merge_heads(ctx, 2)?])
    });

    // `MultiHeadAttention`'s block: three projections split into heads,
    // scaled scores. Both halves of the step fuse it.
    small_program!(
        FusedAttention,
        vec![vec![D, D], vec![D], vec![D, D], vec![D, D]],
        |e, store, ids, x| {
            let (b, h) = stem(e, store, ids, x)?;
            let (wk, wv) = (e.param(store, ids[2]), e.param(store, ids[3]));
            let k = e.matmul(h, wk)?;
            let v = e.matmul(h, wv)?;
            let q3 = e.reshape(h, &[b, L, D])?;
            let k3 = e.reshape(k, &[b, L, D])?;
            let v3 = e.reshape(v, &[b, L, D])?;
            let qh = e.split_heads(q3, 2)?;
            let kh = e.split_heads(k3, 2)?;
            let vh = e.split_heads(v3, 2)?;
            let scores = e.bmm(qh, kh, false, true)?;
            let scaled = e.scale(scores, 0.5);
            let probs = e.softmax_last(scaled)?;
            let ctx = e.bmm(probs, vh, false, false)?;
            Ok(vec![e.merge_heads(ctx, 2)?])
        }
    );

    // One value split three times and no scale: the three head gradients
    // reach one node, in the tape's order.
    small_program!(
        SharedHeads,
        vec![vec![D, D], vec![D]],
        |e, store, ids, x| {
            let (b, h) = stem(e, store, ids, x)?;
            let h3 = e.reshape(h, &[b, L, D])?;
            let qh = e.split_heads(h3, 2)?;
            let kh = e.split_heads(h3, 2)?;
            let vh = e.split_heads(h3, 2)?;
            let scores = e.bmm(qh, kh, false, true)?;
            let probs = e.softmax_last(scores)?;
            let ctx = e.bmm(probs, vh, false, false)?;
            Ok(vec![e.merge_heads(ctx, 2)?])
        }
    );

    small_program!(
        BmmTransposed,
        vec![vec![D, D], vec![D]],
        |e, store, ids, x| {
            let (b, h) = stem(e, store, ids, x)?;
            let h3 = e.reshape(h, &[b, L, D])?;
            let z = e.bmm(h3, h3, true, false)?; // [b, D, D]
            Ok(vec![e.bmm(z, h3, true, true)?]) // [b, D, L]
        }
    );

    small_program!(
        ConcatSlice,
        vec![vec![D, D], vec![D]],
        |e, store, ids, x| {
            let (_, h) = stem(e, store, ids, x)?;
            let lo = e.slice_last(h, 0, 3)?;
            let hi = e.slice_last(h, 2, D)?;
            Ok(vec![e.concat_last(&[hi, lo, hi])?])
        }
    );

    #[test]
    fn every_step_kind_matches_the_tape_and_finite_differences() {
        macro_rules! check {
            ($($p:expr),*) => {$(
                assert_matches_tape(&$p, &[true]);
                assert_finite_differences(&$p, &[true], 2e-2);
            )*};
        }
        check!(
            LinearRelu,
            Maps,
            RowOps,
            Norm,
            Attention,
            FusedAttention,
            SharedHeads,
            BmmTransposed,
            ConcatSlice
        );
    }

    #[test]
    fn attention_blocks_fuse_both_ways_where_the_pattern_holds() {
        for (name, fused, st) in [
            ("fused", (1, 1), plan_stats(&FusedAttention, &[true])),
            // The lowered forward keeps one of three identical splits
            // (common subexpressions), so only the backward has the block.
            ("shared heads", (0, 1), plan_stats(&SharedHeads, &[true])),
            // One head source read by two `bmm`s is not the pattern.
            ("reused split", (0, 0), plan_stats(&Attention, &[true])),
            ("mixed", (0, 0), plan_stats(&Mixed, &[true, true, true])),
        ] {
            let got = (st.fused_attention_forward, st.fused_attention_backward);
            assert_eq!(got, fused, "{name}: {st:?}");
        }
    }

    fn plan_stats<P: Program>(p: &P, seeded: &[bool]) -> TrainPlanStats {
        let (store, ids) = store_for(p);
        compile(p, &store, &ids, seeded).unwrap().stats()
    }

    #[test]
    fn backward_adds_onto_the_stored_gradient() {
        // Two domains through one plan (a fine-tuning step): the second
        // backward lands on top of the first, `(0 + G₁) + G₂` per element,
        // as two forwards on one tape write their leaves back.
        let (store, ids) = store_for(&Norm);
        let plan = Arc::new(compile(&Norm, &store, &ids, &[true]).unwrap());
        let (xa, xb) = (Norm.input(5), Norm.input(9));
        let ga = compiled_grads(
            &Norm,
            &mut TrainExec::new(plan.clone()),
            &store,
            &xa,
            &[true],
            5,
        );
        let gb = compiled_grads(
            &Norm,
            &mut TrainExec::new(plan.clone()),
            &store,
            &xb,
            &[true],
            9,
        );
        let mut both = ga.clone();
        for id in store.ids() {
            both.add_to_grad(id, gb.grad(id)).unwrap();
        }
        // Same thing through one store and two executors.
        let mut got = store.clone();
        got.zero_grad();
        for x in [&xa, &xb] {
            let mut exec = TrainExec::new(plan.clone());
            exec.forward(&got, &[x]).unwrap();
            let out = Tensor::from_vec(exec.output(0).to_vec(), &exec.output_shape(0)).unwrap();
            let mut g = Graph::new();
            let leaf = g.constant(out);
            let root = head(&mut g, &[leaf], &[true], &[0], 1.0);
            g.backward(root).unwrap();
            let seed = g.grad(leaf).unwrap().data().to_vec();
            exec.backward(&mut got, &[x], &[&seed], usize::MAX).unwrap();
        }
        assert_grads_bit_equal(&got, &both, "two backward passes");
    }

    #[test]
    fn what_does_not_compile_is_a_typed_error() {
        // The same weight read by two leaves.
        small_program!(Shared, vec![vec![D, D], vec![D]], |e, store, ids, x| {
            let (_, h) = stem(e, store, ids, x)?;
            let w = e.param(store, ids[0]);
            Ok(vec![e.matmul(h, w)?])
        });
        // Arithmetic on a parameter before it is used.
        small_program!(Scaled, vec![vec![D, D], vec![D]], |e, store, ids, x| {
            let b = x.shape()[0];
            let x = e.constant(x);
            let flat = e.reshape(x, &[b * L, D])?;
            let w = e.param(store, ids[0]);
            let w = e.scale(w, 2.0);
            Ok(vec![e.matmul(flat, w)?])
        });
        // An output that depends on no parameter.
        small_program!(NoParams, vec![vec![D]], |e, _store, _ids, x| {
            let x = e.constant(x);
            Ok(vec![e.tanh(x)?])
        });
        for err in [
            compile(
                &Shared,
                &store_for(&Shared).0,
                &store_for(&Shared).1,
                &[true],
            ),
            compile(
                &Scaled,
                &store_for(&Scaled).0,
                &store_for(&Scaled).1,
                &[true],
            ),
            compile(
                &NoParams,
                &store_for(&NoParams).0,
                &store_for(&NoParams).1,
                &[true],
            ),
        ] {
            assert!(matches!(err, Err(PlanError::Build(_))), "{err:?}");
        }
        let (store, ids) = store_for(&Norm);
        for mask in [&[false][..], &[true, true][..]] {
            let err = compile(&Norm, &store, &ids, mask);
            assert!(matches!(err, Err(PlanError::Input(_))), "{err:?}");
        }
        // Replay misuse: wrong seed count or length, backward before forward.
        let plan = Arc::new(compile(&Norm, &store, &ids, &[true]).unwrap());
        let mut exec = TrainExec::new(plan);
        let x = Norm.input(4);
        let mut s = store.clone();
        assert!(exec
            .backward(&mut s, &[&x], &[&[0.0; 4 * L * D]], 4)
            .is_err());
        exec.forward(&store, &[&x]).unwrap();
        assert!(exec.backward(&mut s, &[&x], &[], 4).is_err());
        assert!(exec.backward(&mut s, &[&x], &[&[0.0; 3]], 4).is_err());
        assert!(exec
            .backward(&mut s, &[&x], &[&[0.0; 4 * L * D]], 0)
            .is_err());
        assert!(exec
            .backward(&mut s, &[&x], &[&[0.0; 4 * L * D]], 4)
            .is_ok());
    }
}
