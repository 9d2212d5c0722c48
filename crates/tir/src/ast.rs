//! The tensor-program AST (Fig 1c) and its pre-order serialization (Fig 1d).
//!
//! A [`TensorProgram`] is stored flat, in the order Fig 1d serializes it:
//! one pre-order node array, in which every loop records the index one past
//! its subtree, and four slabs the nodes index into — leaves, accesses,
//! strides and domains — beside the nest's buffer list, which programs
//! share. A program is six heap blocks at any depth, and every walk over it
//! is a loop over one array. Consumers read it through borrowed views:
//! [`TensorProgram::visit_leaves`] hands each [`LeafView`] its enclosing
//! loop stack, and [`TensorProgram::roots`] walks it as a tree of
//! [`NodeView`]s.
//!
//! [`AstNode`] / [`LeafStmt`] are the owned tree image of a program: its
//! JSON form, and what hand-built programs are written as
//! ([`TensorProgram::from_tree`]). Deserialization goes through the image,
//! so no input can build a flat program whose indices point out of range.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::expr::{AxisId, Buffer, BufferId, ComputeKind, LeafStmt, MemAccess};

/// Annotation on a loop, mirroring TVM/Ansor schedule annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LoopKind {
    /// Plain sequential loop.
    Serial,
    /// Parallelized across cores / thread blocks.
    Parallel,
    /// Mapped to SIMD lanes / vector units.
    Vectorize,
    /// Fully unrolled by the code generator.
    Unroll,
}

impl LoopKind {
    /// Stable numeric code used in feature vectors.
    pub fn code(self) -> u32 {
        match self {
            LoopKind::Serial => 0,
            LoopKind::Parallel => 1,
            LoopKind::Vectorize => 2,
            LoopKind::Unroll => 3,
        }
    }
}

/// A loop variable: one non-leaf AST node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopVar {
    /// Axis identity (stable across schedule rewrites of accesses).
    pub axis: AxisId,
    /// Iteration count.
    pub extent: u64,
    /// Annotation.
    pub kind: LoopKind,
    /// Whether this axis is a reduction axis (affects parallelizability).
    pub is_reduction: bool,
}

/// A node of the owned tree image of a program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AstNode {
    /// A loop over `var` containing `body`.
    Loop {
        /// The loop variable.
        var: LoopVar,
        /// Child nodes (inner loops and/or leaf statements).
        body: Vec<AstNode>,
    },
    /// A computation leaf.
    Leaf(LeafStmt),
}

/// A half-open range of one of a program's slabs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    start: u32,
    end: u32,
}

impl Span {
    /// The span from `start` to the slab's current end.
    fn to_end<T>(start: usize, slab: &[T]) -> Span {
        Span {
            start: index(start),
            end: index(slab.len()),
        }
    }

    fn of<T>(self, slab: &[T]) -> &[T] {
        &slab[self.start as usize..self.end as usize]
    }
}

/// A slab position as stored in a program.
fn index(i: usize) -> u32 {
    u32::try_from(i).expect("a program holds fewer than 2^32 entries per slab")
}

/// One entry of the pre-order node array.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    /// A loop; its body is the nodes up to (excluding) `end`.
    Loop { var: LoopVar, end: u32 },
    /// A leaf: index into the leaf slab.
    Leaf(u32),
}

#[derive(Debug, Clone, PartialEq)]
struct FlatLeaf {
    kind: ComputeKind,
    flops_per_iter: f64,
    accesses: Span,
    domain: Span,
}

#[derive(Debug, Clone, PartialEq)]
struct FlatAccess {
    buffer: BufferId,
    is_write: bool,
    strides: Span,
}

/// A complete tensor program: buffers plus a forest of loop nests, stored
/// flat in pre-order (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct TensorProgram {
    /// All buffers referenced by leaves, shared with the nest.
    buffers: Arc<[Buffer]>,
    /// Every node, in pre-order.
    nodes: Vec<Node>,
    /// Leaves, in pre-order.
    leaves: Vec<FlatLeaf>,
    /// Accesses, leaf by leaf.
    accesses: Vec<FlatAccess>,
    /// Access strides, access by access, each run sorted by axis id.
    strides: Vec<(AxisId, i64)>,
    /// Leaf domains, leaf by leaf.
    domains: Vec<AxisId>,
    /// Maximum loop nesting depth.
    depth: u32,
}

/// One entry of the pre-order serialization: either a node id or the `-1`
/// marker emitted after each leaf (Fig 1d).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SerEntry {
    /// A loop node, identified by its pre-order index.
    Loop(u32),
    /// A leaf node, identified by its pre-order index.
    Leaf(u32),
    /// The special marker appended after each leaf.
    Marker,
}

/// A leaf of a program, borrowed.
#[derive(Debug, Clone, Copy)]
pub struct LeafView<'a> {
    /// What kind of computation this is.
    pub kind: ComputeKind,
    /// Scalar operations per innermost iteration.
    pub flops_per_iter: f64,
    /// All memory accesses per iteration.
    pub accesses: Accesses<'a>,
    /// Iteration domain, in canonical (outermost-first) order.
    pub domain: &'a [AxisId],
}

/// A leaf's accesses, borrowed.
#[derive(Clone, Copy)]
pub struct Accesses<'a> {
    list: &'a [FlatAccess],
    strides: &'a [(AxisId, i64)],
}

/// One memory access of a leaf, borrowed; see [`MemAccess`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessView<'a> {
    /// Which buffer is touched.
    pub buffer: BufferId,
    /// Whether this access writes (stores) rather than reads.
    pub is_write: bool,
    /// Per-axis element strides, sorted by axis id.
    pub strides: &'a [(AxisId, i64)],
}

impl AccessView<'_> {
    /// Stride along `axis` (0 if the access is invariant to it).
    pub fn stride(&self, axis: AxisId) -> i64 {
        self.strides
            .iter()
            .find(|&&(a, _)| a == axis)
            .map_or(0, |&(_, s)| s)
    }
}

impl<'a> Accesses<'a> {
    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Whether the leaf makes no access.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Access `i`, if there is one.
    pub fn get(&self, i: usize) -> Option<AccessView<'a>> {
        self.list.get(i).map(|a| a.view(self.strides))
    }

    /// The accesses, in order.
    pub fn iter(&self) -> AccessIter<'a> {
        AccessIter {
            list: self.list.iter(),
            strides: self.strides,
        }
    }
}

impl FlatAccess {
    fn view<'a>(&self, strides: &'a [(AxisId, i64)]) -> AccessView<'a> {
        AccessView {
            buffer: self.buffer,
            is_write: self.is_write,
            strides: self.strides.of(strides),
        }
    }
}

/// Iterator over a leaf's [`Accesses`].
#[derive(Clone)]
pub struct AccessIter<'a> {
    list: std::slice::Iter<'a, FlatAccess>,
    strides: &'a [(AxisId, i64)],
}

impl<'a> Iterator for AccessIter<'a> {
    type Item = AccessView<'a>;

    fn next(&mut self) -> Option<AccessView<'a>> {
        self.list.next().map(|a| a.view(self.strides))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.list.size_hint()
    }
}

impl<'a> IntoIterator for Accesses<'a> {
    type Item = AccessView<'a>;
    type IntoIter = AccessIter<'a>;

    fn into_iter(self) -> AccessIter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for &Accesses<'a> {
    type Item = AccessView<'a>;
    type IntoIter = AccessIter<'a>;

    fn into_iter(self) -> AccessIter<'a> {
        self.iter()
    }
}

impl std::fmt::Debug for Accesses<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A node of a program, borrowed: the tree view of the flat form.
#[derive(Debug, Clone)]
pub enum NodeView<'a> {
    /// A loop over `var` containing `body`.
    Loop {
        /// The loop variable.
        var: &'a LoopVar,
        /// Its child nodes.
        body: Nodes<'a>,
    },
    /// A computation leaf.
    Leaf(LeafView<'a>),
}

/// Sibling nodes of a program, in order: its roots, or one loop's body.
#[derive(Clone)]
pub struct Nodes<'a> {
    prog: &'a TensorProgram,
    next: usize,
    end: usize,
}

impl<'a> Iterator for Nodes<'a> {
    type Item = NodeView<'a>;

    fn next(&mut self) -> Option<NodeView<'a>> {
        if self.next >= self.end {
            return None;
        }
        let at = self.next;
        Some(match &self.prog.nodes[at] {
            Node::Loop { var, end } => {
                self.next = *end as usize;
                NodeView::Loop {
                    var,
                    body: Nodes {
                        prog: self.prog,
                        next: at + 1,
                        end: *end as usize,
                    },
                }
            }
            &Node::Leaf(l) => {
                self.next = at + 1;
                NodeView::Leaf(self.prog.leaf(l))
            }
        })
    }
}

impl std::fmt::Debug for Nodes<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

impl TensorProgram {
    /// An empty program over `buffers`, with room for the given number of
    /// nodes, leaves, accesses, strides and domain entries, so that filling
    /// it to those counts allocates nothing more.
    pub(crate) fn with_capacity(
        buffers: Arc<[Buffer]>,
        [nodes, leaves, accesses, strides, domains]: [usize; 5],
    ) -> Self {
        TensorProgram {
            buffers,
            nodes: Vec::with_capacity(nodes),
            leaves: Vec::with_capacity(leaves),
            accesses: Vec::with_capacity(accesses),
            strides: Vec::with_capacity(strides),
            domains: Vec::with_capacity(domains),
            depth: 0,
        }
    }

    /// Appends a loop at nesting level `depth` (1 for a root) and returns
    /// its position, which [`Self::close_loop`] takes once its body has
    /// been appended.
    pub(crate) fn open_loop(&mut self, var: LoopVar, depth: usize) -> usize {
        self.depth = self.depth.max(index(depth));
        self.nodes.push(Node::Loop { var, end: 0 });
        self.nodes.len() - 1
    }

    /// Ends the loop opened at `at` after the nodes appended since.
    pub(crate) fn close_loop(&mut self, at: usize) {
        let end = index(self.nodes.len());
        if let Node::Loop { end: e, .. } = &mut self.nodes[at] {
            *e = end;
        }
    }

    /// Appends `leaf`, writing each access's strides with `strides_of`,
    /// which appends them, sorted by axis id, to the slab it is given.
    pub(crate) fn push_leaf(
        &mut self,
        leaf: &LeafStmt,
        mut strides_of: impl FnMut(&MemAccess, &mut Vec<(AxisId, i64)>),
    ) {
        let first_access = self.accesses.len();
        for acc in &leaf.accesses {
            let first_stride = self.strides.len();
            strides_of(acc, &mut self.strides);
            self.accesses.push(FlatAccess {
                buffer: acc.buffer,
                is_write: acc.is_write,
                strides: Span::to_end(first_stride, &self.strides),
            });
        }
        let first_domain = self.domains.len();
        self.domains.extend_from_slice(&leaf.domain);
        self.nodes.push(Node::Leaf(index(self.leaves.len())));
        self.leaves.push(FlatLeaf {
            kind: leaf.kind,
            flops_per_iter: leaf.flops_per_iter,
            accesses: Span::to_end(first_access, &self.accesses),
            domain: Span::to_end(first_domain, &self.domains),
        });
    }

    /// The program whose tree image is `roots` over `buffers`.
    pub fn from_tree(buffers: impl Into<Arc<[Buffer]>>, roots: &[AstNode]) -> Self {
        fn append(prog: &mut TensorProgram, nodes: &[AstNode], depth: usize) {
            for n in nodes {
                match n {
                    AstNode::Loop { var, body } => {
                        let at = prog.open_loop(var.clone(), depth + 1);
                        append(prog, body, depth + 1);
                        prog.close_loop(at);
                    }
                    AstNode::Leaf(leaf) => {
                        prog.push_leaf(leaf, |acc, out| out.extend_from_slice(&acc.strides))
                    }
                }
            }
        }
        let mut prog = TensorProgram::with_capacity(buffers.into(), [0; 5]);
        append(&mut prog, roots, 0);
        prog
    }

    /// The owned tree image of this program.
    fn to_tree(&self) -> Vec<AstNode> {
        fn image(nodes: Nodes<'_>) -> Vec<AstNode> {
            nodes
                .map(|n| match n {
                    NodeView::Loop { var, body } => AstNode::Loop {
                        var: var.clone(),
                        body: image(body),
                    },
                    NodeView::Leaf(leaf) => AstNode::Leaf(LeafStmt {
                        kind: leaf.kind,
                        flops_per_iter: leaf.flops_per_iter,
                        accesses: leaf
                            .accesses
                            .into_iter()
                            .map(|a| MemAccess {
                                buffer: a.buffer,
                                is_write: a.is_write,
                                strides: a.strides.to_vec(),
                            })
                            .collect(),
                        domain: leaf.domain.to_vec(),
                    }),
                })
                .collect()
        }
        image(self.roots())
    }

    /// All buffers referenced by leaves.
    pub fn buffers(&self) -> &[Buffer] {
        &self.buffers
    }

    /// The top-level nodes, executed in order.
    pub fn roots(&self) -> Nodes<'_> {
        Nodes {
            prog: self,
            next: 0,
            end: self.nodes.len(),
        }
    }

    fn leaf(&self, l: u32) -> LeafView<'_> {
        let leaf = &self.leaves[l as usize];
        LeafView {
            kind: leaf.kind,
            flops_per_iter: leaf.flops_per_iter,
            accesses: Accesses {
                list: leaf.accesses.of(&self.accesses),
                strides: &self.strides,
            },
            domain: leaf.domain.of(&self.domains),
        }
    }

    /// Total number of AST nodes (loops + leaves).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaf (computation) nodes.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Visits every leaf together with its enclosing loop stack
    /// (outermost-first).
    pub fn visit_leaves<'a>(&'a self, mut f: impl FnMut(LeafView<'a>, &[&'a LoopVar])) {
        fn walk<'a>(
            prog: &'a TensorProgram,
            mut at: usize,
            end: usize,
            stack: &mut Vec<&'a LoopVar>,
            f: &mut impl FnMut(LeafView<'a>, &[&'a LoopVar]),
        ) {
            while at < end {
                match &prog.nodes[at] {
                    Node::Loop { var, end: body_end } => {
                        stack.push(var);
                        walk(prog, at + 1, *body_end as usize, stack, f);
                        stack.pop();
                        at = *body_end as usize;
                    }
                    &Node::Leaf(l) => {
                        f(prog.leaf(l), stack);
                        at += 1;
                    }
                }
            }
        }
        let mut stack = Vec::with_capacity(self.depth as usize);
        walk(self, 0, self.nodes.len(), &mut stack, &mut f);
    }

    /// Pre-order serialization with a marker after each leaf (Fig 1d).
    ///
    /// Node ids are assigned in pre-order visit order, so the positions of
    /// [`SerEntry::Leaf`] entries form the paper's *ordering vector*.
    pub fn serialize_preorder(&self) -> Vec<SerEntry> {
        let mut out = Vec::with_capacity(self.nodes.len() + self.leaves.len());
        for (id, n) in self.nodes.iter().enumerate() {
            match n {
                Node::Loop { .. } => out.push(SerEntry::Loop(id as u32)),
                Node::Leaf(_) => out.extend([SerEntry::Leaf(id as u32), SerEntry::Marker]),
            }
        }
        out
    }

    /// The ordering vector: for each leaf (in pre-order), its position in
    /// the serialized traversal. This drives the positional encoding.
    pub fn ordering_vector(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.ordering_vector_into(&mut out);
        out
    }

    /// Allocation-free variant of [`ordering_vector`](Self::ordering_vector):
    /// clears `out` and refills it, reusing its capacity. Positions are
    /// computed directly from the node array — a loop occupies one
    /// serialized slot, a leaf occupies two (entry + marker) — so no
    /// intermediate [`SerEntry`] buffer is built.
    pub fn ordering_vector_into(&self, out: &mut Vec<u32>) {
        out.clear();
        let mut pos = 0;
        for n in &self.nodes {
            match n {
                Node::Loop { .. } => pos += 1,
                Node::Leaf(_) => {
                    out.push(pos);
                    pos += 2;
                }
            }
        }
    }

    /// Total iterations executed by the whole program (sum over leaves of
    /// the product of enclosing loop extents).
    pub fn total_iterations(&self) -> f64 {
        let mut total = 0.0;
        self.visit_leaves(|_, stack| {
            total += stack.iter().map(|l| l.extent as f64).product::<f64>();
        });
        total
    }

    /// Maximum loop nesting depth.
    pub fn max_depth(&self) -> usize {
        self.depth as usize
    }
}

/// The JSON form of a program: its tree image.
#[derive(Serialize, Deserialize)]
struct ProgramImage {
    buffers: Vec<Buffer>,
    roots: Vec<AstNode>,
}

impl Serialize for TensorProgram {
    fn serialize_json(&self, out: &mut String) {
        ProgramImage {
            buffers: self.buffers.to_vec(),
            roots: self.to_tree(),
        }
        .serialize_json(out);
    }
}

impl Deserialize for TensorProgram {
    fn deserialize_json(p: &mut serde::de::Parser<'_>) -> Result<Self, serde::de::Error> {
        let image = ProgramImage::deserialize_json(p)?;
        Ok(TensorProgram::from_tree(image.buffers, &image.roots))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{ComputeKind, MemAccess};

    fn leaf(kind: ComputeKind) -> AstNode {
        AstNode::Leaf(LeafStmt {
            kind,
            flops_per_iter: 1.0,
            accesses: vec![MemAccess::write(0, vec![(0, 1)])],
            domain: vec![0],
        })
    }

    fn lv(axis: AxisId, extent: u64) -> LoopVar {
        LoopVar {
            axis,
            extent,
            kind: LoopKind::Serial,
            is_reduction: false,
        }
    }

    /// `for a { init; for b { mac } }` — the Fig 1 shape in miniature.
    fn sample_tree() -> Vec<AstNode> {
        vec![AstNode::Loop {
            var: lv(0, 4),
            body: vec![
                leaf(ComputeKind::Init),
                AstNode::Loop {
                    var: lv(1, 8),
                    body: vec![leaf(ComputeKind::Mac)],
                },
            ],
        }]
    }

    fn sample() -> TensorProgram {
        TensorProgram::from_tree(vec![Buffer::f32("c", 64)], &sample_tree())
    }

    #[test]
    fn counts() {
        let p = sample();
        assert_eq!(p.node_count(), 4); // 2 loops + 2 leaves
        assert_eq!(p.leaf_count(), 2);
        assert_eq!(p.max_depth(), 2);
    }

    #[test]
    fn tree_image_round_trips() {
        let p = sample();
        assert_eq!(p.to_tree(), sample_tree());
        assert_eq!(
            TensorProgram::from_tree(p.buffers().to_vec(), &p.to_tree()),
            p
        );
        // A loop with an empty body still counts as a nesting level.
        let empty = TensorProgram::from_tree(
            vec![],
            &[AstNode::Loop {
                var: lv(0, 2),
                body: vec![],
            }],
        );
        assert_eq!((empty.node_count(), empty.max_depth()), (1, 1));
        assert_eq!(empty.roots().count(), 1);
    }

    #[test]
    fn preorder_serialization_layout() {
        let p = sample();
        let s = p.serialize_preorder();
        // loop0, leaf1, marker, loop2, leaf3, marker
        assert_eq!(
            s,
            vec![
                SerEntry::Loop(0),
                SerEntry::Leaf(1),
                SerEntry::Marker,
                SerEntry::Loop(2),
                SerEntry::Leaf(3),
                SerEntry::Marker,
            ]
        );
    }

    #[test]
    fn ordering_vector_positions() {
        let p = sample();
        // Leaf entries sit at serialized positions 1 and 4.
        assert_eq!(p.ordering_vector(), vec![1, 4]);
    }

    #[test]
    fn ordering_vector_into_matches_serialization() {
        // The direct position arithmetic must agree with the definition via
        // serialize_preorder for arbitrary shapes, and reuse the buffer.
        let flat =
            TensorProgram::from_tree(vec![], &[leaf(ComputeKind::Init), leaf(ComputeKind::Mac)]);
        let nested = sample();
        let mut buf = vec![99u32; 16];
        for p in [&flat, &nested] {
            let expect: Vec<u32> = p
                .serialize_preorder()
                .iter()
                .enumerate()
                .filter_map(|(pos, e)| match e {
                    SerEntry::Leaf(_) => Some(pos as u32),
                    _ => None,
                })
                .collect();
            p.ordering_vector_into(&mut buf);
            assert_eq!(buf, expect);
            assert_eq!(p.ordering_vector(), expect);
        }
    }

    #[test]
    fn visit_leaves_sees_stacks() {
        let p = sample();
        let mut stacks = Vec::new();
        p.visit_leaves(|leaf, stack| {
            stacks.push((leaf.kind, stack.iter().map(|l| l.axis).collect::<Vec<_>>()));
        });
        assert_eq!(stacks.len(), 2);
        assert_eq!(stacks[0], (ComputeKind::Init, vec![0]));
        assert_eq!(stacks[1], (ComputeKind::Mac, vec![0, 1]));
    }

    #[test]
    fn roots_walks_the_tree() {
        let p = sample();
        let roots: Vec<NodeView<'_>> = p.roots().collect();
        assert_eq!(roots.len(), 1);
        let NodeView::Loop { var, body } = &roots[0] else {
            panic!("root is a loop");
        };
        assert_eq!(var.axis, 0);
        let body: Vec<NodeView<'_>> = body.clone().collect();
        assert!(matches!(body[0], NodeView::Leaf(l) if l.kind == ComputeKind::Init));
        assert!(matches!(&body[1], NodeView::Loop { var, .. } if var.axis == 1));
    }

    #[test]
    fn total_iterations_sums_leaf_domains() {
        let p = sample();
        // init runs 4 times, mac runs 4*8 = 32 times.
        assert_eq!(p.total_iterations(), 36.0);
    }

    #[test]
    fn serde_roundtrip() {
        let p = sample();
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(
            json,
            serde_json::to_string(&ProgramImage {
                buffers: p.buffers().to_vec(),
                roots: sample_tree(),
            })
            .unwrap()
        );
        let back: TensorProgram = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
