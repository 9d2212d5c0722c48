//! Stage 3: replay a [`Plan`] against a preallocated arena, and the
//! element-wise kernels both executors share.

use super::*;

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
/// Serving replays a batch of at most 64 samples through its fold (a
/// [`SpecializedPlan`], built on first use), so what replays a `PlanExec`
/// is the rest: training-side predictions, serving batches above 64, and
/// the tests, which hold every fold and compiled path to it bit for bit.
///
/// After the first batch of a given size warms the arena up, replay
/// performs **zero heap allocation** (`tests/replay_allocations.rs` runs
/// it under a counting allocator); [`PlanExec::alloc_count`] counts arena
/// growth events so callers can watch the warm-up itself. The parameter store passed to [`PlanExec::run`]
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
        self.plan.output_shape(i, self.cur_b).collect()
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
pub(super) fn map_into(o: &mut [f32], mut x: Option<&[f32]>, ops: &[MapOp]) {
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
pub(super) fn zip_into(
    o: &mut [f32],
    a: Option<&[f32]>,
    b: Option<&[f32]>,
    kind: ZipKind,
    ops: &[MapOp],
) {
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
pub(super) fn row_op_into(
    o: &mut [f32],
    x: Option<&[f32]>,
    row: &[f32],
    kind: RowKind,
    ops: &[MapOp],
) {
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
pub(super) fn layer_norm_rows(o: &mut [f32], gv: &[f32], bv: &[f32], d: usize, eps: f32) {
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
