//! Tasks: computational subgraphs lowered to canonical loop nests.
//!
//! In TVM terms a *task* is one computational subgraph (one or a few fused
//! operators) for which the auto-scheduler searches tensor programs. Each
//! [`OpSpec`] here defines the canonical (untransformed) loop nest; the
//! `schedule` module then derives concrete tensor programs from it.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::expr::{AxisId, Buffer, ComputeKind, LeafStmt, MemAccess};

/// Element-wise operator flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EwKind {
    /// `max(x, 0)`.
    Relu,
    /// Binary addition (residual connections).
    Add,
    /// Bias broadcast-add.
    BiasAdd,
    /// GELU approximation (uses transcendentals).
    Gelu,
}

/// Operator specification: the shape-parameterized computation of one task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpSpec {
    /// Dense / fully-connected: `C[m,n] = sum_k A[m,k] B[k,n]` (+ ReLU).
    Dense {
        /// Rows of the output.
        m: u64,
        /// Columns of the output.
        n: u64,
        /// Reduction length.
        k: u64,
    },
    /// Batched matrix multiplication (attention scores / context).
    BatchMatmul {
        /// Batch size (e.g. heads × sequence blocks).
        b: u64,
        /// Rows.
        m: u64,
        /// Columns.
        n: u64,
        /// Reduction length.
        k: u64,
    },
    /// 2-D convolution with square kernel and "same"-style padding.
    Conv2d {
        /// Batch.
        n: u64,
        /// Input channels.
        cin: u64,
        /// Spatial height = width of the input.
        hw: u64,
        /// Output channels.
        cout: u64,
        /// Kernel height = width.
        khw: u64,
        /// Stride.
        stride: u64,
    },
    /// Depthwise 2-D convolution (MobileNet).
    DepthwiseConv {
        /// Batch.
        n: u64,
        /// Channels.
        c: u64,
        /// Spatial size.
        hw: u64,
        /// Kernel size.
        khw: u64,
        /// Stride.
        stride: u64,
    },
    /// Max pooling.
    Pool {
        /// Batch.
        n: u64,
        /// Channels.
        c: u64,
        /// Spatial size.
        hw: u64,
        /// Window size.
        khw: u64,
        /// Stride.
        stride: u64,
    },
    /// Row-wise softmax over a `[rows, cols]` matrix.
    Softmax {
        /// Number of independent rows.
        rows: u64,
        /// Row width.
        cols: u64,
    },
    /// Layer normalization over the trailing axis of `[rows, cols]`.
    LayerNorm {
        /// Number of independent rows.
        rows: u64,
        /// Row width.
        cols: u64,
    },
    /// Element-wise map over `n` elements.
    Elementwise {
        /// Number of elements.
        n: u64,
        /// Flavor.
        kind: EwKind,
    },
}

/// A canonical axis of a task's iteration domain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AxisInfo {
    /// Axis identity.
    pub id: AxisId,
    /// Iteration count.
    pub extent: u64,
    /// Whether this is a reduction axis.
    pub is_reduction: bool,
}

/// A canonical loop nest: axes, leaves (with iteration domains) and buffers.
#[derive(Debug, Clone, PartialEq)]
pub struct Nest {
    /// All axes, in canonical outermost-first order.
    pub axes: Vec<AxisInfo>,
    /// Leaf statements in program order; `LeafStmt::domain` lists the axes
    /// each statement ranges over.
    pub leaves: Vec<LeafStmt>,
    /// Buffers referenced by the leaves, shared by every program lowered
    /// from the nest.
    pub buffers: Arc<[Buffer]>,
}

impl OpSpec {
    /// Total floating-point operations of this operator.
    pub fn flops(&self) -> f64 {
        match *self {
            OpSpec::Dense { m, n, k } => 2.0 * (m * n * k) as f64,
            OpSpec::BatchMatmul { b, m, n, k } => 2.0 * (b * m * n * k) as f64,
            OpSpec::Conv2d {
                n,
                cin,
                hw,
                cout,
                khw,
                stride,
            } => {
                let o = hw / stride;
                2.0 * (n * cout * o * o * cin * khw * khw) as f64
            }
            OpSpec::DepthwiseConv {
                n,
                c,
                hw,
                khw,
                stride,
            } => {
                let o = hw / stride;
                2.0 * (n * c * o * o * khw * khw) as f64
            }
            OpSpec::Pool {
                n,
                c,
                hw,
                khw,
                stride,
            } => {
                let o = hw / stride;
                (n * c * o * o * khw * khw) as f64
            }
            OpSpec::Softmax { rows, cols } => 5.0 * (rows * cols) as f64,
            OpSpec::LayerNorm { rows, cols } => 8.0 * (rows * cols) as f64,
            OpSpec::Elementwise { n, kind } => {
                let per = match kind {
                    EwKind::Gelu => 8.0,
                    _ => 1.0,
                };
                per * n as f64
            }
        }
    }

    /// Short kind name for reporting.
    pub fn kind_name(&self) -> &'static str {
        match self {
            OpSpec::Dense { .. } => "dense",
            OpSpec::BatchMatmul { .. } => "batch_matmul",
            OpSpec::Conv2d { .. } => "conv2d",
            OpSpec::DepthwiseConv { .. } => "depthwise_conv",
            OpSpec::Pool { .. } => "pool",
            OpSpec::Softmax { .. } => "softmax",
            OpSpec::LayerNorm { .. } => "layer_norm",
            OpSpec::Elementwise { .. } => "elementwise",
        }
    }

    /// Numeric id of the operator class (used by op-id-based baselines).
    pub fn class_id(&self) -> usize {
        match self {
            OpSpec::Dense { .. } => 0,
            OpSpec::BatchMatmul { .. } => 1,
            OpSpec::Conv2d { .. } => 2,
            OpSpec::DepthwiseConv { .. } => 3,
            OpSpec::Pool { .. } => 4,
            OpSpec::Softmax { .. } => 5,
            OpSpec::LayerNorm { .. } => 6,
            OpSpec::Elementwise { .. } => 7,
        }
    }

    /// Up-to-six shape parameters (zero-padded), for op-level baselines.
    pub fn shape_params(&self) -> [u64; 6] {
        match *self {
            OpSpec::Dense { m, n, k } => [m, n, k, 0, 0, 0],
            OpSpec::BatchMatmul { b, m, n, k } => [b, m, n, k, 0, 0],
            OpSpec::Conv2d {
                n,
                cin,
                hw,
                cout,
                khw,
                stride,
            } => [n, cin, hw, cout, khw, stride],
            OpSpec::DepthwiseConv {
                n,
                c,
                hw,
                khw,
                stride,
            } => [n, c, hw, khw, stride, 0],
            OpSpec::Pool {
                n,
                c,
                hw,
                khw,
                stride,
            } => [n, c, hw, khw, stride, 0],
            OpSpec::Softmax { rows, cols } => [rows, cols, 0, 0, 0, 0],
            OpSpec::LayerNorm { rows, cols } => [rows, cols, 0, 0, 0, 0],
            OpSpec::Elementwise { n, kind } => [n, kind as u64, 0, 0, 0, 0],
        }
    }

    /// Builds the canonical (untransformed) loop nest for this operator.
    pub fn canonical_nest(&self) -> Nest {
        match *self {
            OpSpec::Dense { m, n, k } => dense_nest(m, n, k),
            OpSpec::BatchMatmul { b, m, n, k } => batch_matmul_nest(b, m, n, k),
            OpSpec::Conv2d {
                n,
                cin,
                hw,
                cout,
                khw,
                stride,
            } => conv2d_nest(n, cin, hw, cout, khw, stride),
            OpSpec::DepthwiseConv {
                n,
                c,
                hw,
                khw,
                stride,
            } => depthwise_nest(n, c, hw, khw, stride),
            OpSpec::Pool {
                n,
                c,
                hw,
                khw,
                stride,
            } => pool_nest(n, c, hw, khw, stride),
            OpSpec::Softmax { rows, cols } => softmax_nest(rows, cols),
            OpSpec::LayerNorm { rows, cols } => layer_norm_nest(rows, cols),
            OpSpec::Elementwise { n, kind } => elementwise_nest(n, kind),
        }
    }
}

fn axis(id: AxisId, extent: u64, is_reduction: bool) -> AxisInfo {
    AxisInfo {
        id,
        extent,
        is_reduction,
    }
}

fn dense_nest(m: u64, n: u64, k: u64) -> Nest {
    // Axes: 0=i(m) 1=j(n) 2=k(K).
    let axes = vec![axis(0, m, false), axis(1, n, false), axis(2, k, true)];
    let buffers = [
        Buffer::f32("a", m * k),
        Buffer::f32("b", k * n),
        Buffer::f32("c", m * n),
    ];
    let init = LeafStmt {
        kind: ComputeKind::Init,
        flops_per_iter: ComputeKind::Init.op_cost(),
        accesses: vec![MemAccess::write(2, vec![(0, n as i64), (1, 1)])],
        domain: vec![0, 1],
    };
    let mac = LeafStmt {
        kind: ComputeKind::Mac,
        flops_per_iter: ComputeKind::Mac.op_cost(),
        accesses: vec![
            MemAccess::read(0, vec![(0, k as i64), (2, 1)]),
            MemAccess::read(1, vec![(2, n as i64), (1, 1)]),
            MemAccess::write(2, vec![(0, n as i64), (1, 1)]),
        ],
        domain: vec![0, 1, 2],
    };
    let relu = LeafStmt {
        kind: ComputeKind::Max,
        flops_per_iter: ComputeKind::Max.op_cost(),
        accesses: vec![MemAccess::write(2, vec![(0, n as i64), (1, 1)])],
        domain: vec![0, 1],
    };
    Nest {
        axes,
        leaves: vec![init, mac, relu],
        buffers: buffers.into(),
    }
}

fn batch_matmul_nest(b: u64, m: u64, n: u64, k: u64) -> Nest {
    // Axes: 0=b 1=i 2=j 3=k.
    let axes = vec![
        axis(0, b, false),
        axis(1, m, false),
        axis(2, n, false),
        axis(3, k, true),
    ];
    let buffers = [
        Buffer::f32("a", b * m * k),
        Buffer::f32("b", b * k * n),
        Buffer::f32("c", b * m * n),
    ];
    let c_str = vec![(0, (m * n) as i64), (1, n as i64), (2, 1)];
    let init = LeafStmt {
        kind: ComputeKind::Init,
        flops_per_iter: ComputeKind::Init.op_cost(),
        accesses: vec![MemAccess::write(2, c_str.clone())],
        domain: vec![0, 1, 2],
    };
    let mac = LeafStmt {
        kind: ComputeKind::Mac,
        flops_per_iter: ComputeKind::Mac.op_cost(),
        accesses: vec![
            MemAccess::read(0, vec![(0, (m * k) as i64), (1, k as i64), (3, 1)]),
            MemAccess::read(1, vec![(0, (k * n) as i64), (3, n as i64), (2, 1)]),
            MemAccess::write(2, c_str),
        ],
        domain: vec![0, 1, 2, 3],
    };
    Nest {
        axes,
        leaves: vec![init, mac],
        buffers: buffers.into(),
    }
}

fn conv2d_nest(n: u64, cin: u64, hw: u64, cout: u64, khw: u64, stride: u64) -> Nest {
    let o = hw / stride;
    // Axes: 0=n 1=oc 2=oh 3=ow 4=ic 5=kh 6=kw.
    let axes = vec![
        axis(0, n, false),
        axis(1, cout, false),
        axis(2, o, false),
        axis(3, o, false),
        axis(4, cin, true),
        axis(5, khw, true),
        axis(6, khw, true),
    ];
    let buffers = [
        Buffer::f32("input", n * cin * hw * hw),
        Buffer::f32("weight", cout * cin * khw * khw),
        Buffer::f32("output", n * cout * o * o),
    ];
    let out_str = vec![
        (0, (cout * o * o) as i64),
        (1, (o * o) as i64),
        (2, o as i64),
        (3, 1),
    ];
    let init = LeafStmt {
        kind: ComputeKind::Init,
        flops_per_iter: ComputeKind::Init.op_cost(),
        accesses: vec![MemAccess::write(2, out_str.clone())],
        domain: vec![0, 1, 2, 3],
    };
    let mac = LeafStmt {
        kind: ComputeKind::Mac,
        flops_per_iter: ComputeKind::Mac.op_cost(),
        accesses: vec![
            MemAccess::read(
                0,
                vec![
                    (0, (cin * hw * hw) as i64),
                    (4, (hw * hw) as i64),
                    (2, (stride * hw) as i64),
                    (5, hw as i64),
                    (3, stride as i64),
                    (6, 1),
                ],
            ),
            MemAccess::read(
                1,
                vec![
                    (1, (cin * khw * khw) as i64),
                    (4, (khw * khw) as i64),
                    (5, khw as i64),
                    (6, 1),
                ],
            ),
            MemAccess::write(2, out_str.clone()),
        ],
        domain: vec![0, 1, 2, 3, 4, 5, 6],
    };
    let relu = LeafStmt {
        kind: ComputeKind::Max,
        flops_per_iter: ComputeKind::Max.op_cost(),
        accesses: vec![MemAccess::write(2, out_str)],
        domain: vec![0, 1, 2, 3],
    };
    Nest {
        axes,
        leaves: vec![init, mac, relu],
        buffers: buffers.into(),
    }
}

fn depthwise_nest(n: u64, c: u64, hw: u64, khw: u64, stride: u64) -> Nest {
    let o = hw / stride;
    // Axes: 0=n 1=c 2=oh 3=ow 4=kh 5=kw.
    let axes = vec![
        axis(0, n, false),
        axis(1, c, false),
        axis(2, o, false),
        axis(3, o, false),
        axis(4, khw, true),
        axis(5, khw, true),
    ];
    let buffers = [
        Buffer::f32("input", n * c * hw * hw),
        Buffer::f32("weight", c * khw * khw),
        Buffer::f32("output", n * c * o * o),
    ];
    let out_str = vec![
        (0, (c * o * o) as i64),
        (1, (o * o) as i64),
        (2, o as i64),
        (3, 1),
    ];
    let init = LeafStmt {
        kind: ComputeKind::Init,
        flops_per_iter: ComputeKind::Init.op_cost(),
        accesses: vec![MemAccess::write(2, out_str.clone())],
        domain: vec![0, 1, 2, 3],
    };
    let mac = LeafStmt {
        kind: ComputeKind::Mac,
        flops_per_iter: ComputeKind::Mac.op_cost(),
        accesses: vec![
            MemAccess::read(
                0,
                vec![
                    (0, (c * hw * hw) as i64),
                    (1, (hw * hw) as i64),
                    (2, (stride * hw) as i64),
                    (4, hw as i64),
                    (3, stride as i64),
                    (5, 1),
                ],
            ),
            MemAccess::read(1, vec![(1, (khw * khw) as i64), (4, khw as i64), (5, 1)]),
            MemAccess::write(2, out_str),
        ],
        domain: vec![0, 1, 2, 3, 4, 5],
    };
    Nest {
        axes,
        leaves: vec![init, mac],
        buffers: buffers.into(),
    }
}

fn pool_nest(n: u64, c: u64, hw: u64, khw: u64, stride: u64) -> Nest {
    let o = hw / stride;
    // Axes: 0=n 1=c 2=oh 3=ow 4=kh 5=kw.
    let axes = vec![
        axis(0, n, false),
        axis(1, c, false),
        axis(2, o, false),
        axis(3, o, false),
        axis(4, khw, true),
        axis(5, khw, true),
    ];
    let buffers = [
        Buffer::f32("input", n * c * hw * hw),
        Buffer::f32("output", n * c * o * o),
    ];
    let out_str = vec![
        (0, (c * o * o) as i64),
        (1, (o * o) as i64),
        (2, o as i64),
        (3, 1),
    ];
    let init = LeafStmt {
        kind: ComputeKind::Init,
        flops_per_iter: ComputeKind::Init.op_cost(),
        accesses: vec![MemAccess::write(1, out_str.clone())],
        domain: vec![0, 1, 2, 3],
    };
    let reduce = LeafStmt {
        kind: ComputeKind::Max,
        flops_per_iter: ComputeKind::Max.op_cost(),
        accesses: vec![
            MemAccess::read(
                0,
                vec![
                    (0, (c * hw * hw) as i64),
                    (1, (hw * hw) as i64),
                    (2, (stride * hw) as i64),
                    (4, hw as i64),
                    (3, stride as i64),
                    (5, 1),
                ],
            ),
            MemAccess::write(1, out_str),
        ],
        domain: vec![0, 1, 2, 3, 4, 5],
    };
    Nest {
        axes,
        leaves: vec![init, reduce],
        buffers: buffers.into(),
    }
}

fn softmax_nest(rows: u64, cols: u64) -> Nest {
    // Four passes, each with its own column axis (loop fission is the
    // canonical TIR form): 0=i, 1..=4 = per-pass column axes.
    let axes = vec![
        axis(0, rows, false),
        axis(1, cols, true),
        axis(2, cols, false),
        axis(3, cols, true),
        axis(4, cols, false),
    ];
    let buffers = [
        Buffer::f32("x", rows * cols),
        Buffer::f32("rowstat", rows),
        Buffer::f32("y", rows * cols),
    ];
    let maxr = LeafStmt {
        kind: ComputeKind::Max,
        flops_per_iter: ComputeKind::Max.op_cost(),
        accesses: vec![
            MemAccess::read(0, vec![(0, cols as i64), (1, 1)]),
            MemAccess::write(1, vec![(0, 1)]),
        ],
        domain: vec![0, 1],
    };
    let expm = LeafStmt {
        kind: ComputeKind::Exp,
        flops_per_iter: ComputeKind::Exp.op_cost(),
        accesses: vec![
            MemAccess::read(0, vec![(0, cols as i64), (2, 1)]),
            MemAccess::read(1, vec![(0, 1)]),
            MemAccess::write(2, vec![(0, cols as i64), (2, 1)]),
        ],
        domain: vec![0, 2],
    };
    let sumr = LeafStmt {
        kind: ComputeKind::Sum,
        flops_per_iter: ComputeKind::Sum.op_cost(),
        accesses: vec![
            MemAccess::read(2, vec![(0, cols as i64), (3, 1)]),
            MemAccess::write(1, vec![(0, 1)]),
        ],
        domain: vec![0, 3],
    };
    let divr = LeafStmt {
        kind: ComputeKind::Div,
        flops_per_iter: ComputeKind::Div.op_cost(),
        accesses: vec![
            MemAccess::read(1, vec![(0, 1)]),
            MemAccess::write(2, vec![(0, cols as i64), (4, 1)]),
        ],
        domain: vec![0, 4],
    };
    Nest {
        axes,
        leaves: vec![maxr, expm, sumr, divr],
        buffers: buffers.into(),
    }
}

fn layer_norm_nest(rows: u64, cols: u64) -> Nest {
    // Three passes: mean, variance, normalize. 0=i, 1..=3 per-pass cols.
    let axes = vec![
        axis(0, rows, false),
        axis(1, cols, true),
        axis(2, cols, true),
        axis(3, cols, false),
    ];
    let buffers = [
        Buffer::f32("x", rows * cols),
        Buffer::f32("stats", rows * 2),
        Buffer::f32("y", rows * cols),
    ];
    let mean = LeafStmt {
        kind: ComputeKind::Sum,
        flops_per_iter: ComputeKind::Sum.op_cost(),
        accesses: vec![
            MemAccess::read(0, vec![(0, cols as i64), (1, 1)]),
            MemAccess::write(1, vec![(0, 2)]),
        ],
        domain: vec![0, 1],
    };
    let var = LeafStmt {
        kind: ComputeKind::Ewise,
        flops_per_iter: 3.0,
        accesses: vec![
            MemAccess::read(0, vec![(0, cols as i64), (2, 1)]),
            MemAccess::read(1, vec![(0, 2)]),
            MemAccess::write(1, vec![(0, 2)]),
        ],
        domain: vec![0, 2],
    };
    let norm = LeafStmt {
        kind: ComputeKind::Div,
        flops_per_iter: ComputeKind::Div.op_cost(),
        accesses: vec![
            MemAccess::read(0, vec![(0, cols as i64), (3, 1)]),
            MemAccess::read(1, vec![(0, 2)]),
            MemAccess::write(2, vec![(0, cols as i64), (3, 1)]),
        ],
        domain: vec![0, 3],
    };
    Nest {
        axes,
        leaves: vec![mean, var, norm],
        buffers: buffers.into(),
    }
}

fn elementwise_nest(n: u64, kind: EwKind) -> Nest {
    let axes = vec![axis(0, n, false)];
    let buffers = [Buffer::f32("x", n), Buffer::f32("y", n)];
    let (ck, flops, extra_read) = match kind {
        EwKind::Relu => (ComputeKind::Max, 1.0, false),
        EwKind::Add => (ComputeKind::Ewise, 1.0, true),
        EwKind::BiasAdd => (ComputeKind::Ewise, 1.0, true),
        EwKind::Gelu => (ComputeKind::Exp, 8.0, false),
    };
    let mut accesses = vec![
        MemAccess::read(0, vec![(0, 1)]),
        MemAccess::write(1, vec![(0, 1)]),
    ];
    if extra_read {
        accesses.push(MemAccess::read(1, vec![(0, 1)]));
    }
    let leaf = LeafStmt {
        kind: ck,
        flops_per_iter: flops,
        accesses,
        domain: vec![0],
    };
    Nest {
        axes,
        leaves: vec![leaf],
        buffers: buffers.into(),
    }
}

impl Nest {
    /// Looks up an axis by id.
    pub fn axis(&self, id: AxisId) -> Option<&AxisInfo> {
        self.axes.iter().find(|a| a.id == id)
    }

    /// Sum over leaves of the product of their domain extents — the total
    /// iteration count, invariant under valid schedules.
    pub fn total_iterations(&self) -> f64 {
        self.leaves
            .iter()
            .map(|l| {
                l.domain
                    .iter()
                    .map(|&a| self.axis(a).map(|ax| ax.extent).unwrap_or(1) as f64)
                    .product::<f64>()
            })
            .sum()
    }
}

/// A task: an operator spec plus identity metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// Stable id within a dataset.
    pub id: u32,
    /// Operator specification.
    pub spec: OpSpec,
    /// Name, e.g. `"resnet50.conv2d.3"`.
    pub name: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_nest_structure() {
        let nest = OpSpec::Dense { m: 16, n: 32, k: 8 }.canonical_nest();
        assert_eq!(nest.axes.len(), 3);
        assert_eq!(nest.leaves.len(), 3); // init, mac, relu
        assert_eq!(nest.buffers.len(), 3);
        // The mac leaf ranges over all three axes.
        assert_eq!(nest.leaves[1].domain, vec![0, 1, 2]);
        // Reduction axis marked.
        assert!(nest.axes[2].is_reduction);
        assert!(!nest.axes[0].is_reduction);
    }

    #[test]
    fn dense_total_iterations() {
        let nest = OpSpec::Dense { m: 4, n: 4, k: 4 }.canonical_nest();
        // init 16 + mac 64 + relu 16.
        assert_eq!(nest.total_iterations(), 96.0);
    }

    #[test]
    fn conv_flops_formula() {
        let spec = OpSpec::Conv2d {
            n: 1,
            cin: 3,
            hw: 8,
            cout: 4,
            khw: 3,
            stride: 1,
        };
        // 2 * N*Cout*OH*OW*Cin*KH*KW = 2*1*4*8*8*3*3*3
        assert_eq!(spec.flops(), 2.0 * (4 * 64 * 27) as f64);
    }

    #[test]
    fn conv_stride_shrinks_output() {
        let s1 = OpSpec::Conv2d {
            n: 1,
            cin: 8,
            hw: 16,
            cout: 8,
            khw: 3,
            stride: 1,
        };
        let s2 = OpSpec::Conv2d {
            n: 1,
            cin: 8,
            hw: 16,
            cout: 8,
            khw: 3,
            stride: 2,
        };
        assert!(s2.flops() < s1.flops());
        let nest = s2.canonical_nest();
        assert_eq!(nest.axis(2).unwrap().extent, 8); // oh = 16/2
    }

    #[test]
    fn softmax_has_four_passes() {
        let nest = OpSpec::Softmax { rows: 8, cols: 16 }.canonical_nest();
        assert_eq!(nest.leaves.len(), 4);
        // Passes use distinct column axes (fissioned form).
        let cols: Vec<_> = nest.leaves.iter().map(|l| l.domain[1]).collect();
        let mut unique = cols.clone();
        unique.dedup();
        assert_eq!(cols.len(), unique.len());
    }

    #[test]
    fn innermost_access_is_contiguous_for_dense() {
        let nest = OpSpec::Dense { m: 8, n: 8, k: 8 }.canonical_nest();
        let mac = &nest.leaves[1];
        // B access strides by 1 along j (axis 1).
        assert_eq!(mac.accesses[1].stride(1), 1);
        // A access strides by 1 along k (axis 2).
        assert_eq!(mac.accesses[0].stride(2), 1);
    }

    #[test]
    fn all_specs_produce_consistent_nests() {
        let specs = [
            OpSpec::Dense { m: 8, n: 8, k: 8 },
            OpSpec::BatchMatmul {
                b: 2,
                m: 4,
                n: 4,
                k: 4,
            },
            OpSpec::Conv2d {
                n: 1,
                cin: 4,
                hw: 8,
                cout: 4,
                khw: 3,
                stride: 1,
            },
            OpSpec::DepthwiseConv {
                n: 1,
                c: 8,
                hw: 8,
                khw: 3,
                stride: 1,
            },
            OpSpec::Pool {
                n: 1,
                c: 8,
                hw: 8,
                khw: 2,
                stride: 2,
            },
            OpSpec::Softmax { rows: 4, cols: 8 },
            OpSpec::LayerNorm { rows: 4, cols: 8 },
            OpSpec::Elementwise {
                n: 64,
                kind: EwKind::Relu,
            },
        ];
        for spec in specs {
            let nest = spec.canonical_nest();
            assert!(!nest.leaves.is_empty(), "{spec:?}");
            // Every leaf's domain references real axes.
            for leaf in &nest.leaves {
                for &a in &leaf.domain {
                    assert!(nest.axis(a).is_some(), "{spec:?} axis {a}");
                }
                // Every access's axes are within the leaf's domain.
                for acc in &leaf.accesses {
                    for &(a, _) in &acc.strides {
                        assert!(leaf.domain.contains(&a), "{spec:?} access axis {a}");
                    }
                }
            }
            assert!(spec.flops() > 0.0);
        }
    }

    #[test]
    fn shape_params_padded() {
        let p = OpSpec::Softmax { rows: 3, cols: 7 }.shape_params();
        assert_eq!(p, [3, 7, 0, 0, 0, 0]);
    }
}
