//! Eager tape-based reverse-mode automatic differentiation: the training
//! path of the baselines and the one eager executor, whose forward values
//! every compiled plan ([`crate::plan`]) is held to bit for bit.
//!
//! Every operation executes immediately (so shape errors surface at the call
//! site) and records itself on a tape; [`Graph::backward`] then walks the tape
//! in reverse accumulating gradients. Parameters live outside the graph in a
//! [`ParamStore`]; a fresh graph is built per training step and parameter
//! gradients are pulled back into the store afterwards.
//!
//! The forward math itself is shared with the plan recorder through
//! `crate::kernels`, so a recording starts from the tape's own values.

use crate::kernels::{layer_norm_fwd, merge_heads, slice_last, split_heads};
use std::sync::{Arc, OnceLock};
use tensor::math::Func;
use tensor::{
    bmm, bmm_acc_into, bmm_into, matmul, matmul_t_acc_into, matmul_t_into, QuantizedMatrix, Result,
    Tensor, TensorError,
};

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

/// Handle to a parameter in a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The parameter's dense index in its store (stable across clones;
    /// used by data-parallel trainers to key gradient shards).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Storage for trainable parameters and their accumulated gradients.
///
/// A store that will only be served keeps no gradients at all
/// ([`ParamStore::values_only`], and every freeze): each tensor is held
/// once, as its value.
///
/// A frozen store may additionally carry a *quantized twin* per rank-2
/// parameter (the GEMM weight matrices): the canonical i8 encoding
/// produced once at freeze time. When a parameter is quantized its f32
/// `values` entry holds the **dequantized** numbers, so every executor —
/// generic plans, below-threshold GEMMs, the taped forward — computes with
/// exactly the values the quantized GEMM kernels see, and all frozen
/// paths stay bit-identical to each other.
#[derive(Debug, Default, Clone)]
pub struct ParamStore {
    values: Vec<Tensor>,
    /// One per value on a training store; empty on a values-only one.
    grads: Vec<Tensor>,
    names: Vec<String>,
    values_only: bool,
    /// Per-parameter quantized encodings (`None` = plain f32). Same length
    /// as `values` on frozen quantized stores; empty on training stores.
    quants: Vec<Option<Arc<QuantizedMatrix>>>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store that keeps no gradients: [`ParamStore::add`]
    /// registers a value and its name only. For a model that is only ever
    /// served, such as a snapshot restore, whose weights would otherwise
    /// each come with a zeroed gradient it never reads. It must not be
    /// trained: every gradient reads as an empty tensor, and accumulating
    /// into one fails with a shape error.
    pub fn values_only() -> Self {
        ParamStore {
            values_only: true,
            ..Self::default()
        }
    }

    /// Registers a parameter, returning its id.
    pub fn add(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let id = ParamId(self.values.len());
        if !self.values_only {
            self.grads.push(Tensor::zeros(value.shape()));
        }
        self.values.push(value);
        self.names.push(name.into());
        id
    }

    /// Number of parameters (tensors).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Tensor::numel).sum()
    }

    /// Immutable access to a parameter value.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable access to a parameter value (used by optimizers).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id.0]
    }

    /// Immutable access to a parameter gradient (an empty tensor on a
    /// values-only store).
    pub fn grad(&self, id: ParamId) -> &Tensor {
        static NONE: OnceLock<Tensor> = OnceLock::new();
        if self.values_only {
            assert!(id.0 < self.values.len(), "no parameter {}", id.0);
            return NONE.get_or_init(|| Tensor::zeros(&[0]));
        }
        &self.grads[id.0]
    }

    /// Parameter name (for debugging / serialization).
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterates over all parameter ids.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.values.len()).map(ParamId)
    }

    /// The quantized encoding of a parameter, if one was installed at
    /// freeze time.
    pub fn quant(&self, id: ParamId) -> Option<&Arc<QuantizedMatrix>> {
        self.quants.get(id.0).and_then(|q| q.as_ref())
    }

    /// Whether any parameter carries a quantized encoding.
    pub fn has_quants(&self) -> bool {
        self.quants.iter().any(|q| q.is_some())
    }

    /// Installs a pre-built quantized encoding for `id` and replaces the
    /// parameter's f32 values with its dequantization (the snapshot-load
    /// path: the file's blob is canonical, never re-quantized).
    ///
    /// # Panics
    ///
    /// Panics if the encoding's `k * n` does not match the parameter's
    /// element count.
    pub fn set_quant(&mut self, id: ParamId, q: Arc<QuantizedMatrix>) {
        assert_eq!(
            q.k() * q.n(),
            self.values[id.0].numel(),
            "quantized encoding shape mismatch for param {}",
            self.names[id.0]
        );
        let shape = self.values[id.0].shape().to_vec();
        self.values[id.0] = Tensor::from_vec(q.dequantize(), &shape)
            .expect("dequantized length matches parameter shape");
        if self.quants.len() < self.values.len() {
            self.quants.resize(self.values.len(), None);
        }
        self.quants[id.0] = Some(q);
    }

    /// Quantizes every rank-2 parameter (the GEMM weight matrices) to i8
    /// with per-column-group scales, replacing each one's f32 values with
    /// the dequantized numbers so all executors agree with the quantized
    /// kernels bit for bit. Rank-1 parameters (biases, norm gains) stay
    /// f32 — they are cheap and precision-critical. Returns the number of
    /// tensors quantized; already-quantized parameters are left untouched
    /// (quantization happens once, at freeze — re-quantizing dequantized
    /// values is not idempotent).
    pub fn quantize_weights(&mut self) -> usize {
        if self.quants.len() < self.values.len() {
            self.quants.resize(self.values.len(), None);
        }
        let mut count = 0;
        for i in 0..self.values.len() {
            if self.quants[i].is_some() || self.values[i].shape().len() != 2 {
                continue;
            }
            let (k, n) = (self.values[i].shape()[0], self.values[i].shape()[1]);
            let q = QuantizedMatrix::quantize(self.values[i].data(), k, n);
            self.values[i] =
                Tensor::from_vec(q.dequantize(), &[k, n]).expect("dequantize preserves numel");
            self.quants[i] = Some(Arc::new(q));
            count += 1;
        }
        count
    }

    /// Clones parameter values and names only, into a values-only store
    /// ([`ParamStore::values_only`]). This is the freeze path for read-only
    /// inference sharing — a full clone would permanently carry a dead
    /// gradient buffer as large as the weights themselves.
    pub fn clone_values(&self) -> ParamStore {
        ParamStore {
            values: self.values.clone(),
            grads: Vec::new(),
            names: self.names.clone(),
            values_only: true,
            quants: self.quants.clone(),
        }
    }

    /// Consumes the store, keeping values and names but dropping the
    /// gradient buffers — the zero-copy counterpart of
    /// [`ParamStore::clone_values`] for callers that own the store
    /// (freeze-by-move). The result is values-only.
    pub fn into_values(mut self) -> ParamStore {
        self.grads = Vec::new();
        self.values_only = true;
        self
    }

    /// Zeroes all accumulated gradients (in place).
    pub fn zero_grad(&mut self) {
        for g in &mut self.grads {
            g.data_mut().fill(0.0);
        }
    }

    /// One parameter's value (mutable) next to its gradient — what an
    /// in-place optimizer pass reads and writes per element.
    pub(crate) fn value_and_grad_mut(&mut self, i: usize) -> (&mut Tensor, &Tensor) {
        (&mut self.values[i], &self.grads[i])
    }

    /// All values (read) next to all gradients (write): the compiled
    /// backward reads weights while accumulating into the gradients.
    pub(crate) fn values_and_grads_mut(&mut self) -> (&[Tensor], &mut [Tensor]) {
        (&self.values, &mut self.grads)
    }

    pub(crate) fn accumulate(&mut self, id: ParamId, g: &Tensor) -> Result<()> {
        if self.values_only {
            return Err(TensorError::ShapeMismatch {
                op: "add_assign to a values-only store",
                lhs: vec![0],
                rhs: g.shape().to_vec(),
            });
        }
        self.grads[id.0].add_assign(g)
    }

    /// Adds `g` onto the stored gradient of `id` (the public seam for
    /// data-parallel trainers writing externally reduced gradients back).
    pub fn add_to_grad(&mut self, id: ParamId, g: &Tensor) -> Result<()> {
        self.accumulate(id, g)
    }

    /// Global L2 norm of all gradients (for clipping / monitoring): each
    /// tensor's [`Tensor::norm2`], then the root of their squares summed
    /// in `f64` in parameter order.
    ///
    /// A tensor's sum of squares is one serial `f64` chain in element
    /// order, so a lone chain waits on every add. Eight chains run side by
    /// side instead, longest tensor first, a lane taking the next tensor
    /// when its own runs out. No sum is reassociated, so the bits are the
    /// per-tensor formula's.
    pub fn grad_norm(&self) -> f32 {
        let mut norms = [0.0f32; NORM_WINDOW];
        let mut total = -0.0f64;
        for window in self.grads.chunks(NORM_WINDOW) {
            let norms = &mut norms[..window.len()];
            norms_in_lanes(window, norms);
            for &n in norms.iter() {
                total += (n as f64) * (n as f64);
            }
        }
        total.sqrt() as f32
    }

    /// Scales every gradient so the global norm is at most `max_norm`.
    ///
    /// A non-finite norm (a NaN or infinite gradient somewhere) changes
    /// nothing and returns `false`: scaling by `max_norm / inf = 0` would
    /// turn every infinite entry into NaN. See [`crate::clip_and_step`].
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> bool {
        let norm = self.grad_norm();
        if !norm.is_finite() {
            return false;
        }
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for g in &mut self.grads {
                for x in g.data_mut() {
                    *x *= s;
                }
            }
        }
        true
    }
}

/// Tensors whose norms [`ParamStore::grad_norm`] schedules together.
const NORM_WINDOW: usize = 64;

/// `out[i] = tensors[i].norm2()` for up to [`NORM_WINDOW`] tensors, eight
/// chains in flight. Lanes take the tensors longest first, so the last
/// chains to finish are short ones.
fn norms_in_lanes(tensors: &[Tensor], out: &mut [f32]) {
    const LANES: usize = 8;
    const IDLE: usize = usize::MAX;
    let mut order = [0u8; NORM_WINDOW];
    let order = &mut order[..tensors.len()];
    for (i, o) in order.iter_mut().enumerate() {
        *o = i as u8;
    }
    order.sort_unstable_by_key(|&t| std::cmp::Reverse(tensors[t as usize].numel()));
    let mut order = order.iter().map(|&t| t as usize);
    let mut owner = [IDLE; LANES];
    let mut rows: [&[f32]; LANES] = [&[]; LANES];
    let mut acc = [0.0f64; LANES];
    loop {
        // Finish the chains that ran out; start the next tensors in their
        // lanes (an empty tensor is finished on the spot).
        for l in 0..LANES {
            if owner[l] != IDLE && !rows[l].is_empty() {
                continue;
            }
            if owner[l] != IDLE {
                out[owner[l]] = acc[l].sqrt() as f32;
                owner[l] = IDLE;
            }
            while owner[l] == IDLE {
                let Some(t) = order.next() else { break };
                let data = tensors[t].data();
                if data.is_empty() {
                    out[t] = tensors[t].norm2();
                } else {
                    (owner[l], rows[l], acc[l]) = (t, data, -0.0);
                }
            }
        }
        if owner.contains(&IDLE) {
            // Nothing left to start: finish the last (shortest) chains
            // one after another.
            for l in 0..LANES {
                if owner[l] != IDLE {
                    let chain = rows[l].iter().fold(acc[l], |a, &x| {
                        let x = x as f64;
                        a + x * x
                    });
                    out[owner[l]] = chain.sqrt() as f32;
                }
            }
            return;
        }
        let m = rows.iter().map(|r| r.len()).min().unwrap_or(0);
        let mut chains = acc;
        let ptrs = rows.map(<[f32]>::as_ptr);
        for i in 0..m {
            for l in 0..LANES {
                // SAFETY: `i < m`, and every lane holds at least `m` values.
                let x = unsafe { *ptrs[l].add(i) } as f64;
                chains[l] += x * x;
            }
        }
        acc = chains;
        for r in &mut rows {
            *r = &r[m..];
        }
    }
}

/// Tape operation. Inputs are referenced by [`Var`].
enum Op {
    /// A leaf: constant input or parameter (with its store id).
    Leaf(Option<ParamId>),
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    /// Broadcast add of a trailing row vector.
    AddRow(Var, Var),
    /// Broadcast subtract of a trailing row vector.
    SubRow(Var, Var),
    /// Element-wise multiplication by a constant tensor.
    MulConst(Var, Tensor),
    Scale(Var, f32),
    AddScalar(Var, #[allow(dead_code)] f32),
    Matmul(Var, Var),
    Bmm(Var, Var, bool, bool),
    /// `[B, L, h*dh] -> [B*h, L, dh]`.
    SplitHeads(Var, usize),
    /// `[B*h, L, dh] -> [B, L, h*dh]`.
    MergeHeads(Var, usize),
    Reshape(Var, Vec<usize>),
    SoftmaxLast(Var),
    Relu(Var),
    Tanh(Var),
    Sigmoid(Var),
    Exp(Var),
    Abs(Var),
    Sqrt(Var),
    Square(Var),
    PowI(Var, i32),
    Sum(Var),
    Mean(Var),
    MeanAxis0(Var),
    ConcatLast(Vec<Var>),
    SliceLast(Var, usize, usize),
    LayerNorm {
        x: Var,
        gamma: Var,
        beta: Var,
        eps: f32,
    },
    Dropout(Var, Tensor),
}

struct Node {
    op: Op,
    value: Tensor,
    grad: Option<Tensor>,
}

/// An autodiff tape.
///
/// # Examples
///
/// ```
/// use nn::{Graph, ParamStore};
/// use tensor::Tensor;
///
/// let mut store = ParamStore::new();
/// let w = store.add("w", Tensor::from_vec(vec![2.0], &[1]).unwrap());
/// let mut g = Graph::new();
/// let wv = g.param(&store, w);
/// let x = g.constant(Tensor::from_vec(vec![3.0], &[1]).unwrap());
/// let y = g.mul(wv, x).unwrap(); // y = w * x
/// let loss = g.square(y).unwrap(); // (wx)^2 = 36, d/dw = 2*w*x^2 = 36
/// g.backward(loss).unwrap();
/// g.write_param_grads(&mut store).unwrap();
/// assert!((store.grad(w).data()[0] - 36.0).abs() < 1e-5);
/// ```
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    fn push(&mut self, op: Op, value: Tensor) -> Var {
        self.nodes.push(Node {
            op,
            value,
            grad: None,
        });
        Var(self.nodes.len() - 1)
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Inserts a constant (non-differentiable) leaf.
    pub fn constant(&mut self, t: Tensor) -> Var {
        self.push(Op::Leaf(None), t)
    }

    /// Inserts a parameter leaf whose gradient will be routed to `store`.
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        self.push(Op::Leaf(Some(id)), store.value(id).clone())
    }

    /// Value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Gradient of a node after [`Graph::backward`], if it received one.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Element-wise addition.
    pub fn add(&mut self, a: Var, b: Var) -> Result<Var> {
        let v = self.value(a).add(self.value(b))?;
        Ok(self.push(Op::Add(a, b), v))
    }

    /// Element-wise subtraction.
    pub fn sub(&mut self, a: Var, b: Var) -> Result<Var> {
        let v = self.value(a).sub(self.value(b))?;
        Ok(self.push(Op::Sub(a, b), v))
    }

    /// Element-wise multiplication.
    pub fn mul(&mut self, a: Var, b: Var) -> Result<Var> {
        let v = self.value(a).mul(self.value(b))?;
        Ok(self.push(Op::Mul(a, b), v))
    }

    /// Broadcast add of a trailing row vector (e.g. a bias).
    pub fn add_row(&mut self, x: Var, row: Var) -> Result<Var> {
        let v = self.value(x).add_row(self.value(row))?;
        Ok(self.push(Op::AddRow(x, row), v))
    }

    /// Broadcast subtract of a trailing row vector.
    pub fn sub_row(&mut self, x: Var, row: Var) -> Result<Var> {
        let v = self.value(x).sub_row(self.value(row))?;
        Ok(self.push(Op::SubRow(x, row), v))
    }

    /// Element-wise multiplication by a constant tensor (e.g. `1/y` weights).
    pub fn mul_const(&mut self, x: Var, c: Tensor) -> Result<Var> {
        let v = self.value(x).mul(&c)?;
        Ok(self.push(Op::MulConst(x, c), v))
    }

    /// Multiplies by a scalar constant.
    pub fn scale(&mut self, x: Var, c: f32) -> Var {
        let v = self.value(x).scale(c);
        self.push(Op::Scale(x, c), v)
    }

    /// Adds a scalar constant.
    pub fn add_scalar(&mut self, x: Var, c: f32) -> Var {
        let v = self.value(x).add_scalar(c);
        self.push(Op::AddScalar(x, c), v)
    }

    /// 2-D matrix multiplication.
    pub fn matmul(&mut self, a: Var, b: Var) -> Result<Var> {
        let v = matmul(self.value(a), self.value(b))?;
        Ok(self.push(Op::Matmul(a, b), v))
    }

    /// Batched matrix multiplication with transpose flags.
    pub fn bmm(&mut self, a: Var, b: Var, ta: bool, tb: bool) -> Result<Var> {
        let v = bmm(self.value(a), self.value(b), ta, tb)?;
        Ok(self.push(Op::Bmm(a, b, ta, tb), v))
    }

    /// Splits `[B, L, h*dh]` into `[B*h, L, dh]` for multi-head attention.
    pub fn split_heads(&mut self, x: Var, h: usize) -> Result<Var> {
        let v = split_heads(self.value(x), h)?;
        Ok(self.push(Op::SplitHeads(x, h), v))
    }

    /// Merges `[B*h, L, dh]` back into `[B, L, h*dh]`.
    pub fn merge_heads(&mut self, x: Var, h: usize) -> Result<Var> {
        let v = merge_heads(self.value(x), h)?;
        Ok(self.push(Op::MergeHeads(x, h), v))
    }

    /// Reshapes (copying) to a new shape with the same numel.
    pub fn reshape(&mut self, x: Var, shape: &[usize]) -> Result<Var> {
        let orig = self.value(x).shape().to_vec();
        let v = self.value(x).reshape(shape)?;
        Ok(self.push(Op::Reshape(x, orig), v))
    }

    /// Softmax over the trailing axis.
    pub fn softmax_last(&mut self, x: Var) -> Result<Var> {
        let v = self.value(x).softmax_last()?;
        Ok(self.push(Op::SoftmaxLast(x), v))
    }

    /// `f` over `x`'s value, through [`tensor::math::map`].
    fn math(&self, x: Var, f: Func) -> Tensor {
        let mut v = self.value(x).clone();
        tensor::math::map(f, None, v.data_mut());
        v
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, x: Var) -> Result<Var> {
        let v = self.value(x).map(|a| a.max(0.0));
        Ok(self.push(Op::Relu(x), v))
    }

    /// Hyperbolic tangent ([`tensor::math::tanh`]).
    pub fn tanh(&mut self, x: Var) -> Result<Var> {
        let v = self.math(x, Func::Tanh);
        Ok(self.push(Op::Tanh(x), v))
    }

    /// Logistic sigmoid ([`tensor::math::sigmoid`]).
    pub fn sigmoid(&mut self, x: Var) -> Result<Var> {
        let v = self.math(x, Func::Sigmoid);
        Ok(self.push(Op::Sigmoid(x), v))
    }

    /// Element-wise exponential ([`tensor::math::exp`]).
    pub fn exp(&mut self, x: Var) -> Result<Var> {
        let v = self.math(x, Func::Exp);
        Ok(self.push(Op::Exp(x), v))
    }

    /// Element-wise absolute value (subgradient 0 at the origin).
    pub fn abs(&mut self, x: Var) -> Result<Var> {
        let v = self.value(x).map(f32::abs);
        Ok(self.push(Op::Abs(x), v))
    }

    /// Element-wise square root.
    pub fn sqrt(&mut self, x: Var) -> Result<Var> {
        let v = self.value(x).map(f32::sqrt);
        Ok(self.push(Op::Sqrt(x), v))
    }

    /// Element-wise square.
    pub fn square(&mut self, x: Var) -> Result<Var> {
        let v = self.value(x).map(|a| a * a);
        Ok(self.push(Op::Square(x), v))
    }

    /// Element-wise integer power.
    pub fn powi(&mut self, x: Var, n: i32) -> Result<Var> {
        let v = self.value(x).map(|a| a.powi(n));
        Ok(self.push(Op::PowI(x, n), v))
    }

    /// Sum of all elements (scalar output).
    pub fn sum(&mut self, x: Var) -> Result<Var> {
        let v = Tensor::scalar(self.value(x).sum());
        Ok(self.push(Op::Sum(x), v))
    }

    /// Mean of all elements (scalar output).
    pub fn mean(&mut self, x: Var) -> Result<Var> {
        let v = Tensor::scalar(self.value(x).mean());
        Ok(self.push(Op::Mean(x), v))
    }

    /// Mean over all leading axes (output `[d]`).
    pub fn mean_axis0(&mut self, x: Var) -> Result<Var> {
        let v = self.value(x).mean_axis0()?;
        Ok(self.push(Op::MeanAxis0(x), v))
    }

    /// Concatenation along the trailing axis.
    pub fn concat_last(&mut self, parts: &[Var]) -> Result<Var> {
        let tensors: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let v = Tensor::concat_last(&tensors)?;
        Ok(self.push(Op::ConcatLast(parts.to_vec()), v))
    }

    /// Slices `[start, end)` of the trailing axis.
    pub fn slice_last(&mut self, x: Var, start: usize, end: usize) -> Result<Var> {
        let v = slice_last(self.value(x), start, end)?;
        Ok(self.push(Op::SliceLast(x, start, end), v))
    }

    /// Fused layer normalization over the trailing axis.
    ///
    /// `gamma` and `beta` have shape `[d]`.
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var, eps: f32) -> Result<Var> {
        let v = layer_norm_fwd(self.value(x), self.value(gamma), self.value(beta), eps)?;
        Ok(self.push(
            Op::LayerNorm {
                x,
                gamma,
                beta,
                eps,
            },
            v,
        ))
    }

    /// Dropout with a pre-sampled inverted mask (entries are `0` or `1/keep`).
    pub fn dropout(&mut self, x: Var, mask: Tensor) -> Result<Var> {
        let v = self.value(x).mul(&mask)?;
        Ok(self.push(Op::Dropout(x, mask), v))
    }

    fn accum(&mut self, v: Var, g: Tensor) -> Result<()> {
        match &mut self.nodes[v.0].grad {
            Some(existing) => existing.add_assign(&g),
            slot @ None => {
                *slot = Some(g);
                Ok(())
            }
        }
    }

    /// Runs reverse-mode differentiation from `loss` (must be a scalar).
    pub fn backward(&mut self, loss: Var) -> Result<()> {
        if self.value(loss).numel() != 1 {
            return Err(TensorError::BadShape {
                op: "backward",
                shape: self.value(loss).shape().to_vec(),
                len: 1,
            });
        }
        self.nodes[loss.0].grad = Some(Tensor::scalar(1.0));
        for i in (0..=loss.0).rev() {
            let g = match self.nodes[i].grad.take() {
                Some(g) => g,
                None => continue,
            };
            self.backprop_node(i, &g)?;
            // Re-install the gradient so callers can inspect intermediates.
            self.nodes[i].grad = Some(g);
        }
        Ok(())
    }

    /// Accumulates a 2-D matmul gradient (`dst += op(x) · op(y)`) directly
    /// into the destination node's gradient slot — in place when a gradient
    /// already exists, via a single full-write allocation otherwise. No
    /// transpose is ever materialized (strided kernels) and no temporary
    /// product is allocated on the accumulate path.
    fn accum_matmul(&mut self, dst: Var, x: &Tensor, xt: bool, y: &Tensor, yt: bool) -> Result<()> {
        match &mut self.nodes[dst.0].grad {
            Some(t) => {
                matmul_t_acc_into(x, xt, y, yt, t.data_mut())?;
            }
            slot @ None => {
                let mut buf = Vec::new();
                let shape = matmul_t_into(x, xt, y, yt, &mut buf)?;
                *slot = Some(Tensor::from_vec(buf, &shape)?);
            }
        }
        Ok(())
    }

    /// Batched sibling of [`Graph::accum_matmul`].
    fn accum_bmm(&mut self, dst: Var, x: &Tensor, xt: bool, y: &Tensor, yt: bool) -> Result<()> {
        match &mut self.nodes[dst.0].grad {
            Some(t) => {
                bmm_acc_into(x, y, xt, yt, t.data_mut())?;
            }
            slot @ None => {
                let mut buf = Vec::new();
                let shape = bmm_into(x, y, xt, yt, &mut buf)?;
                *slot = Some(Tensor::from_vec(buf, &shape)?);
            }
        }
        Ok(())
    }

    fn backprop_matmul(&mut self, a: Var, b: Var, g: &Tensor) -> Result<()> {
        // dA += g · B^T. The operand value is moved out (a cheap Vec move,
        // restored right after) so the gradient slot can be borrowed
        // mutably at the same time — cloning the value would cost more
        // than the allocation this path exists to avoid.
        let bv = std::mem::replace(&mut self.nodes[b.0].value, Tensor::zeros(&[0]));
        let r1 = self.accum_matmul(a, g, false, &bv, true);
        self.nodes[b.0].value = bv;
        r1?;
        // dB += A^T · g.
        let av = std::mem::replace(&mut self.nodes[a.0].value, Tensor::zeros(&[0]));
        let r2 = self.accum_matmul(b, &av, true, g, false);
        self.nodes[a.0].value = av;
        r2
    }

    fn backprop_bmm(&mut self, a: Var, b: Var, ta: bool, tb: bool, g: &Tensor) -> Result<()> {
        let bv = std::mem::replace(&mut self.nodes[b.0].value, Tensor::zeros(&[0]));
        let r1 = if !ta {
            self.accum_bmm(a, g, false, &bv, !tb)
        } else {
            self.accum_bmm(a, &bv, tb, g, true)
        };
        self.nodes[b.0].value = bv;
        r1?;
        let av = std::mem::replace(&mut self.nodes[a.0].value, Tensor::zeros(&[0]));
        let r2 = if !tb {
            self.accum_bmm(b, &av, !ta, g, false)
        } else {
            self.accum_bmm(b, g, true, &av, ta)
        };
        self.nodes[a.0].value = av;
        r2
    }

    fn backprop_node(&mut self, i: usize, g: &Tensor) -> Result<()> {
        // Matmul/bmm gradients accumulate in place through the `*_acc_into`
        // kernels (no gradient temporaries, no transpose buffers).
        match self.nodes[i].op {
            Op::Matmul(a, b) => return self.backprop_matmul(a, b, g),
            Op::Bmm(a, b, ta, tb) => return self.backprop_bmm(a, b, ta, tb, g),
            _ => {}
        }
        // Values are read before mutation; ops store only input Vars < i.
        enum Pending {
            One(Var, Tensor),
            Two(Var, Tensor, Var, Tensor),
            Many(Vec<(Var, Tensor)>),
            None,
        }
        let pending = match &self.nodes[i].op {
            Op::Leaf(_) => Pending::None,
            Op::Add(a, b) => Pending::Two(*a, g.clone(), *b, g.clone()),
            Op::Sub(a, b) => Pending::Two(*a, g.clone(), *b, g.scale(-1.0)),
            Op::Mul(a, b) => {
                let ga = g.mul(&self.nodes[b.0].value)?;
                let gb = g.mul(&self.nodes[a.0].value)?;
                Pending::Two(*a, ga, *b, gb)
            }
            Op::AddRow(x, r) => {
                let gr = g.sum_axis0()?.reshape(self.nodes[r.0].value.shape())?;
                Pending::Two(*x, g.clone(), *r, gr)
            }
            Op::SubRow(x, r) => {
                let gr = g
                    .sum_axis0()?
                    .scale(-1.0)
                    .reshape(self.nodes[r.0].value.shape())?;
                Pending::Two(*x, g.clone(), *r, gr)
            }
            Op::MulConst(x, c) => Pending::One(*x, g.mul(c)?),
            Op::Scale(x, c) => Pending::One(*x, g.scale(*c)),
            Op::AddScalar(x, _) => Pending::One(*x, g.clone()),
            Op::Matmul(..) | Op::Bmm(..) => {
                unreachable!("matmul/bmm take the in-place accumulate path above")
            }
            Op::SplitHeads(x, h) => Pending::One(*x, merge_heads(g, *h)?),
            Op::MergeHeads(x, h) => Pending::One(*x, split_heads(g, *h)?),
            Op::Reshape(x, orig) => Pending::One(*x, g.reshape(orig)?),
            Op::SoftmaxLast(x) => {
                let s = &self.nodes[i].value;
                Pending::One(*x, softmax_bwd(s, g)?)
            }
            Op::Relu(x) => {
                let xv = &self.nodes[x.0].value;
                let gx = g.zip(xv, "relu_bwd", |gi, xi| if xi > 0.0 { gi } else { 0.0 })?;
                Pending::One(*x, gx)
            }
            Op::Tanh(x) => {
                let y = &self.nodes[i].value;
                Pending::One(*x, g.zip(y, "tanh_bwd", |gi, yi| gi * (1.0 - yi * yi))?)
            }
            Op::Sigmoid(x) => {
                let y = &self.nodes[i].value;
                Pending::One(*x, g.zip(y, "sigmoid_bwd", |gi, yi| gi * yi * (1.0 - yi))?)
            }
            Op::Exp(x) => {
                let y = &self.nodes[i].value;
                Pending::One(*x, g.mul(y)?)
            }
            Op::Abs(x) => {
                let xv = &self.nodes[x.0].value;
                Pending::One(
                    *x,
                    g.zip(xv, "abs_bwd", |gi, xi| {
                        gi * xi.signum() * (xi != 0.0) as u8 as f32
                    })?,
                )
            }
            Op::Sqrt(x) => {
                let y = &self.nodes[i].value;
                Pending::One(
                    *x,
                    g.zip(
                        y,
                        "sqrt_bwd",
                        |gi, yi| if yi > 0.0 { gi * 0.5 / yi } else { 0.0 },
                    )?,
                )
            }
            Op::Square(x) => {
                let xv = &self.nodes[x.0].value;
                Pending::One(*x, g.zip(xv, "square_bwd", |gi, xi| gi * 2.0 * xi)?)
            }
            Op::PowI(x, n) => {
                let xv = &self.nodes[x.0].value;
                let n = *n;
                Pending::One(
                    *x,
                    g.zip(xv, "powi_bwd", |gi, xi| gi * n as f32 * xi.powi(n - 1))?,
                )
            }
            Op::Sum(x) => {
                let xv = &self.nodes[x.0].value;
                Pending::One(*x, Tensor::full(xv.shape(), g.item()))
            }
            Op::Mean(x) => {
                let xv = &self.nodes[x.0].value;
                let n = xv.numel().max(1) as f32;
                Pending::One(*x, Tensor::full(xv.shape(), g.item() / n))
            }
            Op::MeanAxis0(x) => {
                let xv = &self.nodes[x.0].value;
                let d = *xv.shape().last().unwrap_or(&1);
                let rows = xv.numel() / d.max(1);
                let inv = 1.0 / rows.max(1) as f32;
                let gx = Tensor::from_fn(xv.shape(), |idx| g.data()[idx % d] * inv);
                Pending::One(*x, gx)
            }
            Op::ConcatLast(parts) => {
                let widths: Vec<usize> = parts
                    .iter()
                    .map(|p| *self.nodes[p.0].value.shape().last().expect("non-empty"))
                    .collect();
                let total: usize = widths.iter().sum();
                let rows = g.numel() / total;
                let mut grads = Vec::with_capacity(parts.len());
                let mut off = 0;
                for (p, &w) in parts.iter().zip(widths.iter()) {
                    let shape = self.nodes[p.0].value.shape().to_vec();
                    let mut gd = Vec::with_capacity(rows * w);
                    for r in 0..rows {
                        gd.extend_from_slice(&g.data()[r * total + off..r * total + off + w]);
                    }
                    grads.push((*p, Tensor::from_vec(gd, &shape)?));
                    off += w;
                }
                Pending::Many(grads)
            }
            Op::SliceLast(x, start, end) => {
                let xv = &self.nodes[x.0].value;
                let d = *xv.shape().last().expect("non-empty");
                let w = end - start;
                let rows = xv.numel() / d;
                let mut gd = vec![0.0f32; xv.numel()];
                for r in 0..rows {
                    gd[r * d + start..r * d + end].copy_from_slice(&g.data()[r * w..(r + 1) * w]);
                }
                Pending::One(*x, Tensor::from_vec(gd, xv.shape())?)
            }
            Op::LayerNorm {
                x,
                gamma,
                beta,
                eps,
            } => {
                let xv = &self.nodes[x.0].value;
                let gv = &self.nodes[gamma.0].value;
                let (gx, ggamma, gbeta) = layer_norm_bwd(xv, gv, *eps, g)?;
                Pending::Many(vec![(*x, gx), (*gamma, ggamma), (*beta, gbeta)])
            }
            Op::Dropout(x, mask) => Pending::One(*x, g.mul(mask)?),
        };
        match pending {
            Pending::None => Ok(()),
            Pending::One(v, g) => self.accum(v, g),
            Pending::Two(a, ga, b, gb) => {
                self.accum(a, ga)?;
                self.accum(b, gb)
            }
            Pending::Many(list) => {
                for (v, g) in list {
                    self.accum(v, g)?;
                }
                Ok(())
            }
        }
    }

    /// Copies gradients of parameter leaves back into the store.
    pub fn write_param_grads(&self, store: &mut ParamStore) -> Result<()> {
        for (pid, g) in self.param_grads() {
            store.accumulate(pid, g)?;
        }
        Ok(())
    }

    /// Iterates over the gradients of parameter leaves after
    /// [`Graph::backward`], without needing mutable access to any store.
    ///
    /// This is the extraction seam for data-parallel training: each shard
    /// graph yields its `(ParamId, gradient)` pairs, which the trainer
    /// tree-reduces in a fixed order before writing them back through
    /// [`ParamStore::add_to_grad`].
    pub fn param_grads(&self) -> impl Iterator<Item = (ParamId, &Tensor)> {
        self.nodes
            .iter()
            .filter_map(|node| match (&node.op, &node.grad) {
                (Op::Leaf(Some(pid)), Some(g)) => Some((*pid, g)),
                _ => None,
            })
    }

    /// [`Graph::param_grads`] by move: drains each parameter leaf's
    /// gradient out of the tape instead of borrowing it, so callers that
    /// keep the gradients (the data-parallel trainer's shard buffers) skip
    /// one full copy per parameter. The graph stays valid but its
    /// parameter gradients are gone afterwards.
    pub fn take_param_grads(&mut self) -> impl Iterator<Item = (ParamId, Tensor)> + '_ {
        self.nodes.iter_mut().filter_map(|node| match &node.op {
            Op::Leaf(Some(pid)) => node.grad.take().map(|g| (*pid, g)),
            _ => None,
        })
    }
}

fn softmax_bwd(s: &Tensor, g: &Tensor) -> Result<Tensor> {
    let d = *s.shape().last().expect("non-empty");
    let mut out = g.data().to_vec();
    for (srow, orow) in s.data().chunks(d).zip(out.chunks_mut(d)) {
        tensor::softmax_bwd_row(srow, orow);
    }
    Tensor::from_vec(out, s.shape())
}

fn layer_norm_bwd(
    x: &Tensor,
    gamma: &Tensor,
    eps: f32,
    g: &Tensor,
) -> Result<(Tensor, Tensor, Tensor)> {
    let d = *x.shape().last().expect("non-empty");
    let rows = x.numel() / d;
    let mut gx = vec![0.0f32; x.numel()];
    let mut ggamma = vec![0.0f32; d];
    let mut gbeta = vec![0.0f32; d];
    for r in 0..rows {
        let xrow = &x.data()[r * d..(r + 1) * d];
        let grow = &g.data()[r * d..(r + 1) * d];
        let mean: f32 = xrow.iter().sum::<f32>() / d as f32;
        let var: f32 = xrow.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
        let inv = 1.0 / (var + eps).sqrt();
        // xhat and the two row means needed by the dx formula.
        let mut mean_gg = 0.0f32;
        let mut mean_ggx = 0.0f32;
        let xhat: Vec<f32> = xrow.iter().map(|&v| (v - mean) * inv).collect();
        for j in 0..d {
            let gg = grow[j] * gamma.data()[j];
            mean_gg += gg;
            mean_ggx += gg * xhat[j];
            ggamma[j] += grow[j] * xhat[j];
            gbeta[j] += grow[j];
        }
        mean_gg /= d as f32;
        mean_ggx /= d as f32;
        for j in 0..d {
            let gg = grow[j] * gamma.data()[j];
            gx[r * d + j] = inv * (gg - mean_gg - xhat[j] * mean_ggx);
        }
    }
    Ok((
        Tensor::from_vec(gx, x.shape())?,
        Tensor::from_vec(ggamma, gamma.shape())?,
        Tensor::from_vec(gbeta, gamma.shape())?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{merge_heads, split_heads};

    /// Central finite-difference gradient check for a scalar function of a
    /// single parameter tensor.
    fn grad_check(
        shape: &[usize],
        init: impl Fn(usize) -> f32,
        f: impl Fn(&mut Graph, Var) -> Var,
        tol: f32,
    ) {
        let mut store = ParamStore::new();
        let p = store.add("p", Tensor::from_fn(shape, &init));
        // Analytic gradient.
        let mut g = Graph::new();
        let x = g.param(&store, p);
        let loss = f(&mut g, x);
        g.backward(loss).unwrap();
        g.write_param_grads(&mut store).unwrap();
        let analytic = store.grad(p).clone();
        // Numeric gradient.
        let eps = 1e-3f32;
        for i in 0..analytic.numel() {
            let eval = |delta: f32| {
                let mut s2 = store.clone();
                s2.value_mut(p).data_mut()[i] += delta;
                let mut g2 = Graph::new();
                let x2 = g2.param(&s2, p);
                let l2 = f(&mut g2, x2);
                g2.value(l2).item()
            };
            let num = (eval(eps) - eval(-eps)) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!(
                (a - num).abs() <= tol * (1.0 + num.abs()),
                "grad mismatch at {i}: analytic {a}, numeric {num}"
            );
        }
    }

    #[test]
    fn grad_elementwise_chain() {
        grad_check(
            &[4],
            |i| 0.3 + 0.2 * i as f32,
            |g, x| {
                let a = g.square(x).unwrap();
                let b = g.tanh(a).unwrap();
                let c = g.scale(b, 1.5);
                g.mean(c).unwrap()
            },
            1e-2,
        );
    }

    #[test]
    fn grad_matmul() {
        grad_check(
            &[2, 3],
            |i| 0.1 * (i as f32 + 1.0),
            |g, x| {
                let w = g.constant(Tensor::from_fn(&[3, 2], |i| 0.2 * (i as f32) - 0.3));
                let y = g.matmul(x, w).unwrap();
                let s = g.square(y).unwrap();
                g.sum(s).unwrap()
            },
            1e-2,
        );
    }

    #[test]
    fn grad_bmm_all_transpose_combos() {
        for &(ta, tb) in &[(false, false), (false, true), (true, false), (true, true)] {
            grad_check(
                &[2, 2, 3],
                |i| 0.05 * (i as f32) - 0.2,
                move |g, x| {
                    // Choose the other operand so shapes match for each combo.
                    let bshape: &[usize] = match (ta, tb) {
                        (false, false) => &[2, 3, 2],
                        (false, true) => &[2, 2, 3],
                        (true, false) => &[2, 2, 2],
                        (true, true) => &[2, 2, 2],
                    };
                    let b = g.constant(Tensor::from_fn(bshape, |i| 0.1 * (i as f32) - 0.25));
                    let y = g.bmm(x, b, ta, tb).unwrap();
                    let s = g.square(y).unwrap();
                    g.sum(s).unwrap()
                },
                2e-2,
            );
        }
    }

    #[test]
    fn grad_softmax() {
        grad_check(
            &[2, 4],
            |i| (i as f32) * 0.3 - 0.5,
            |g, x| {
                let s = g.softmax_last(x).unwrap();
                let t = g.constant(Tensor::from_fn(&[2, 4], |i| (i % 3) as f32));
                let p = g.mul(s, t).unwrap();
                g.sum(p).unwrap()
            },
            1e-2,
        );
    }

    #[test]
    fn grad_layer_norm() {
        grad_check(
            &[3, 4],
            |i| (i as f32) * 0.17 - 0.8,
            |g, x| {
                let gamma = g.constant(Tensor::from_fn(&[4], |i| 1.0 + 0.1 * i as f32));
                let beta = g.constant(Tensor::from_fn(&[4], |i| 0.05 * i as f32));
                let y = g.layer_norm(x, gamma, beta, 1e-5).unwrap();
                let s = g.square(y).unwrap();
                g.sum(s).unwrap()
            },
            2e-2,
        );
    }

    #[test]
    fn grad_layer_norm_gamma_beta() {
        // Check gradients flowing into gamma/beta themselves.
        grad_check(
            &[4],
            |i| 0.5 + 0.25 * i as f32,
            |g, gamma| {
                let x = g.constant(Tensor::from_fn(&[3, 4], |i| (i as f32) * 0.3 - 1.0));
                let beta = g.constant(Tensor::zeros(&[4]));
                let y = g.layer_norm(x, gamma, beta, 1e-5).unwrap();
                let s = g.square(y).unwrap();
                g.sum(s).unwrap()
            },
            2e-2,
        );
    }

    #[test]
    fn grad_split_merge_heads_roundtrip() {
        grad_check(
            &[2, 3, 4],
            |i| 0.1 * i as f32,
            |g, x| {
                let s = g.split_heads(x, 2).unwrap();
                let m = g.merge_heads(s, 2).unwrap();
                let q = g.square(m).unwrap();
                g.sum(q).unwrap()
            },
            1e-2,
        );
    }

    #[test]
    fn split_heads_layout() {
        // [1, 2, 4] with 2 heads -> [2, 2, 2]: head h takes columns [2h, 2h+2).
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 4]).unwrap();
        let s = split_heads(&x, 2).unwrap();
        assert_eq!(s.shape(), &[2, 2, 2]);
        assert_eq!(s.data(), &[0.0, 1.0, 4.0, 5.0, 2.0, 3.0, 6.0, 7.0]);
        assert_eq!(merge_heads(&s, 2).unwrap(), x);
    }

    #[test]
    fn grad_concat_and_slice() {
        grad_check(
            &[2, 3],
            |i| i as f32 * 0.2,
            |g, x| {
                let y = g.constant(Tensor::from_fn(&[2, 2], |i| i as f32));
                let c = g.concat_last(&[x, y]).unwrap();
                let s = g.slice_last(c, 1, 4).unwrap();
                let q = g.square(s).unwrap();
                g.sum(q).unwrap()
            },
            1e-2,
        );
    }

    #[test]
    fn grad_row_broadcast_ops() {
        grad_check(
            &[3],
            |i| 0.3 * i as f32 - 0.1,
            |g, r| {
                let x = g.constant(Tensor::from_fn(&[4, 3], |i| (i as f32) * 0.1));
                let a = g.add_row(x, r).unwrap();
                let b = g.sub_row(a, r).unwrap();
                let c = g.add_row(b, r).unwrap();
                let s = g.square(c).unwrap();
                g.mean(s).unwrap()
            },
            1e-2,
        );
    }

    #[test]
    fn grad_mean_axis0_and_powi() {
        grad_check(
            &[4, 2],
            |i| 0.2 * i as f32 - 0.5,
            |g, x| {
                let m = g.mean_axis0(x).unwrap();
                let c = g.sub_row(x, m).unwrap();
                let p = g.powi(c, 3).unwrap();
                let mm = g.mean_axis0(p).unwrap();
                let s = g.square(mm).unwrap();
                g.sum(s).unwrap()
            },
            2e-2,
        );
    }

    #[test]
    fn grad_abs_sqrt_exp_sigmoid() {
        grad_check(
            &[4],
            |i| 0.5 + 0.3 * i as f32,
            |g, x| {
                let a = g.abs(x).unwrap();
                let b = g.sqrt(a).unwrap();
                let c = g.sigmoid(b).unwrap();
                let d = g.exp(c).unwrap();
                g.sum(d).unwrap()
            },
            1e-2,
        );
    }

    #[test]
    fn param_grads_accumulate_across_uses() {
        let mut store = ParamStore::new();
        let p = store.add("p", Tensor::scalar(2.0));
        let mut g = Graph::new();
        let x = g.param(&store, p);
        // loss = x * x (as two uses of the same leaf) = x^2, d/dx = 2x = 4.
        let y = g.mul(x, x).unwrap();
        g.backward(y).unwrap();
        g.write_param_grads(&mut store).unwrap();
        assert!((store.grad(p).item() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn backward_requires_scalar() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::zeros(&[2, 2]));
        assert!(g.backward(x).is_err());
    }

    #[test]
    fn clip_grad_norm_bounds_norm() {
        let mut store = ParamStore::new();
        let p = store.add("p", Tensor::zeros(&[3]));
        store
            .accumulate(p, &Tensor::from_vec(vec![3.0, 4.0, 0.0], &[3]).unwrap())
            .unwrap();
        assert!((store.grad_norm() - 5.0).abs() < 1e-6);
        store.clip_grad_norm(1.0);
        assert!((store.grad_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn grad_norm_is_the_per_tensor_serial_formula() {
        // The formula `grad_norm` was: one serial chain per tensor.
        let serial = |s: &ParamStore| {
            s.grads
                .iter()
                .map(|g| {
                    let n = g.norm2();
                    (n as f64) * (n as f64)
                })
                .sum::<f64>()
                .sqrt() as f32
        };
        // Lengths from empty to larger than the rest combined, over more
        // tensors than one window holds, with large and tiny magnitudes.
        for (count, salt) in [(1usize, 0usize), (7, 1), (8, 2), (9, 3), (60, 4), (150, 5)] {
            let mut store = ParamStore::new();
            for t in 0..count {
                let len = match (t * 7 + salt) % 9 {
                    0 => 0,
                    1 => 1,
                    2 => 6144,
                    k => k * 37 + t,
                };
                let value = Tensor::from_fn(&[len], |i| {
                    let x = ((i * 31 + t * 17 + salt) as f32 * 0.173).sin();
                    x * 10f32.powi(((i + t) % 11) as i32 - 5)
                });
                let id = store.add(format!("p{t}"), Tensor::zeros(&[len]));
                store.grads[id.index()] = value;
            }
            assert_eq!(
                store.grad_norm().to_bits(),
                serial(&store).to_bits(),
                "{count} tensors"
            );
        }
    }

    #[test]
    fn a_non_finite_norm_clips_nothing() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut store = ParamStore::new();
            let p = store.add("p", Tensor::zeros(&[3]));
            store.grads[p.index()] = Tensor::from_vec(vec![30.0, bad, -0.0], &[3]).unwrap();
            let before = store.grads[p.index()].clone();
            assert!(!store.grad_norm().is_finite());
            assert!(!store.clip_grad_norm(1.0), "{bad}");
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(store.grad(p)), bits(&before), "{bad}");
        }
    }

    #[test]
    fn dropout_masks_and_backprops() {
        let mut store = ParamStore::new();
        let p = store.add("p", Tensor::full(&[4], 2.0));
        let mut g = Graph::new();
        let x = g.param(&store, p);
        let mask = Tensor::from_vec(vec![0.0, 2.0, 0.0, 2.0], &[4]).unwrap();
        let d = g.dropout(x, mask).unwrap();
        assert_eq!(g.value(d).data(), &[0.0, 4.0, 0.0, 4.0]);
        let s = g.sum(d).unwrap();
        g.backward(s).unwrap();
        g.write_param_grads(&mut store).unwrap();
        assert_eq!(store.grad(p).data(), &[0.0, 2.0, 0.0, 2.0]);
    }
}
