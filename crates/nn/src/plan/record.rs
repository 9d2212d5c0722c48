//! Stage 1: record the model's generic `forward` at two probe batch
//! sizes and fold every shape into `c` / `c·B` form.

use super::lower::{cse, lower};
use super::*;

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
