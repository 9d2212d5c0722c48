//! Leaf-level computation statements and memory accesses.
//!
//! A *leaf* in the paper's AST terminology (Fig 1c) is a computation
//! expression: the innermost statement of a loop nest, where arithmetic and
//! memory traffic happen. Everything the device simulator and the feature
//! extractor need about a leaf is captured here symbolically, in terms of the
//! loop axes that surround it, so schedule transformations (split/reorder)
//! can rewrite accesses without re-deriving them.

use serde::{Deserialize, Serialize};

use crate::ast::AccessView;

/// Identifier of a loop axis within one tensor program.
pub type AxisId = u32;

/// Identifier of a buffer within one tensor program.
pub type BufferId = u32;

/// The kind of computation a leaf performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ComputeKind {
    /// Zero/constant initialization of an accumulator.
    Init,
    /// Multiply-accumulate (`C += A * B`), the core of GEMM/conv.
    Mac,
    /// Element-wise arithmetic (add/mul/bias).
    Ewise,
    /// Max-style select (ReLU, max-pool, softmax max-reduce).
    Max,
    /// Transcendental (exp, used by softmax / GELU).
    Exp,
    /// Division / reciprocal (softmax normalize, mean).
    Div,
    /// Plain sum reduction.
    Sum,
    /// Data movement only (copy / layout change).
    Copy,
}

impl ComputeKind {
    /// All kinds, in a stable order (used for one-hot feature encoding).
    pub const ALL: [ComputeKind; 8] = [
        ComputeKind::Init,
        ComputeKind::Mac,
        ComputeKind::Ewise,
        ComputeKind::Max,
        ComputeKind::Exp,
        ComputeKind::Div,
        ComputeKind::Sum,
        ComputeKind::Copy,
    ];

    /// Index of this kind in [`ComputeKind::ALL`]: its discriminant, which
    /// `ALL` lists in order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Relative cost weight of one operation of this kind, in "flop units".
    ///
    /// Transcendentals are far more expensive than fused multiply-adds on
    /// every device family; the simulator scales compute time by this.
    pub fn op_cost(self) -> f64 {
        match self {
            ComputeKind::Init => 0.5,
            ComputeKind::Mac => 2.0,
            ComputeKind::Ewise => 1.0,
            ComputeKind::Max => 1.0,
            ComputeKind::Exp => 12.0,
            ComputeKind::Div => 6.0,
            ComputeKind::Sum => 1.0,
            ComputeKind::Copy => 0.0,
        }
    }
}

/// A buffer (tensor storage) referenced by leaf statements.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Buffer {
    /// Human-readable name (e.g. `"weight"`).
    pub name: String,
    /// Total number of elements.
    pub elems: u64,
    /// Bytes per element (4 for `f32`).
    pub elem_bytes: u32,
}

impl Buffer {
    /// Creates an `f32` buffer with the given element count.
    pub fn f32(name: impl Into<String>, elems: u64) -> Self {
        Buffer {
            name: name.into(),
            elems,
            elem_bytes: 4,
        }
    }

    /// Total size in bytes.
    pub fn bytes(&self) -> u64 {
        self.elems * self.elem_bytes as u64
    }
}

/// One memory access made by a leaf, symbolic in the surrounding loop axes.
///
/// `strides` maps axis → element stride: moving one iteration along that
/// axis moves the address by `stride` elements. Axes absent from the map do
/// not move the access (i.e. the access is *reused* across that axis).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemAccess {
    /// Which buffer is touched.
    pub buffer: BufferId,
    /// Whether this access writes (stores) rather than reads.
    pub is_write: bool,
    /// Per-axis element strides, sorted by axis id.
    pub strides: Vec<(AxisId, i64)>,
}

impl MemAccess {
    /// Creates a read access.
    pub fn read(buffer: BufferId, strides: Vec<(AxisId, i64)>) -> Self {
        let mut strides = strides;
        strides.sort_by_key(|&(a, _)| a);
        MemAccess {
            buffer,
            is_write: false,
            strides,
        }
    }

    /// Creates a write access.
    pub fn write(buffer: BufferId, strides: Vec<(AxisId, i64)>) -> Self {
        let mut strides = strides;
        strides.sort_by_key(|&(a, _)| a);
        MemAccess {
            buffer,
            is_write: true,
            strides,
        }
    }

    /// Stride along `axis` (0 if the access is invariant to it).
    pub fn stride(&self, axis: AxisId) -> i64 {
        AccessView {
            buffer: self.buffer,
            is_write: self.is_write,
            strides: &self.strides,
        }
        .stride(axis)
    }

    /// Rewrites axis `old` into `(outer, inner)` after a split by `factor`:
    /// the inner axis keeps the old stride, the outer axis strides by
    /// `factor × old_stride`.
    pub fn split_axis(&mut self, old: AxisId, outer: AxisId, inner: AxisId, factor: i64) {
        if let Some(pos) = self.strides.iter().position(|&(a, _)| a == old) {
            let (_, s) = self.strides[pos];
            self.strides.remove(pos);
            self.strides.push((inner, s));
            self.strides.push((outer, s * factor));
            self.strides.sort_by_key(|&(a, _)| a);
        }
    }
}

/// A leaf statement: the computation expression of Fig 1(c).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeafStmt {
    /// What kind of computation this is.
    pub kind: ComputeKind,
    /// Scalar operations per innermost iteration.
    pub flops_per_iter: f64,
    /// All memory accesses per iteration.
    pub accesses: Vec<MemAccess>,
    /// Iteration domain: the axes this statement ranges over, in canonical
    /// (outermost-first) order.
    pub domain: Vec<AxisId>,
}

impl LeafStmt {
    /// Bytes read per innermost iteration (before any cache reuse).
    pub fn bytes_read_per_iter(&self, elem_bytes: u32) -> f64 {
        self.accesses.iter().filter(|a| !a.is_write).count() as f64 * elem_bytes as f64
    }

    /// Bytes written per innermost iteration.
    pub fn bytes_written_per_iter(&self, elem_bytes: u32) -> f64 {
        self.accesses.iter().filter(|a| a.is_write).count() as f64 * elem_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_kind_index_roundtrip() {
        for (i, k) in ComputeKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn all_lists_every_kind_at_its_index() {
        // The feature one-hot is `ALL.len()` wide and set at `index()`. The
        // match is exhaustive, so a new kind cannot be added without being
        // listed here, and then it must sit in `ALL` at its discriminant.
        use ComputeKind::*;
        let listed = |k| match k {
            Init | Mac | Ewise | Max | Exp | Div | Sum | Copy => k,
        };
        for k in [Init, Mac, Ewise, Max, Exp, Div, Sum, Copy] {
            assert_eq!(ComputeKind::ALL[listed(k).index()], k);
        }
    }

    #[test]
    fn exp_costs_more_than_mac() {
        assert!(ComputeKind::Exp.op_cost() > ComputeKind::Mac.op_cost());
    }

    #[test]
    fn buffer_bytes() {
        let b = Buffer::f32("x", 100);
        assert_eq!(b.bytes(), 400);
    }

    #[test]
    fn access_stride_lookup() {
        let a = MemAccess::read(0, vec![(2, 1), (0, 16)]);
        assert_eq!(a.stride(0), 16);
        assert_eq!(a.stride(1), 0);
        assert_eq!(a.stride(2), 1);
        // Strides stay sorted by axis.
        assert_eq!(a.strides, vec![(0, 16), (2, 1)]);
    }

    #[test]
    fn split_axis_rewrites_strides() {
        let mut a = MemAccess::read(0, vec![(0, 4)]);
        a.split_axis(0, 10, 11, 8);
        assert_eq!(a.stride(10), 32); // outer = factor * old
        assert_eq!(a.stride(11), 4); // inner keeps old
        assert_eq!(a.stride(0), 0);
    }

    #[test]
    fn split_axis_noop_when_absent() {
        let mut a = MemAccess::read(0, vec![(1, 2)]);
        let before = a.clone();
        a.split_axis(0, 10, 11, 8);
        assert_eq!(a, before);
    }

    #[test]
    fn leaf_bytes_per_iter() {
        let leaf = LeafStmt {
            kind: ComputeKind::Mac,
            flops_per_iter: 2.0,
            accesses: vec![
                MemAccess::read(0, vec![(0, 1)]),
                MemAccess::read(1, vec![(1, 1)]),
                MemAccess::write(2, vec![(0, 1)]),
            ],
            domain: vec![0, 1],
        };
        assert_eq!(leaf.bytes_read_per_iter(4), 8.0);
        assert_eq!(leaf.bytes_written_per_iter(4), 4.0);
    }
}
