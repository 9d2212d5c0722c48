//! The simulator's footprint products above 2⁵³.
//!
//! `Simulator::leaf_cost` builds its per-level footprints from one running
//! product per access, walked inward to outward, which matches the
//! definition's outermost-first products bit for bit only while every
//! partial product is exact, i.e. while the stack's extents multiply to at
//! most 2⁵³. This program's extents multiply far past that, and the two
//! orders round differently (asserted below), so only the guarded,
//! definition-order path can match the verbatim pre-table model.

mod reference;

use devsim::{all_devices, Simulator};
use tir::{AstNode, Buffer, ComputeKind, LeafStmt, LoopKind, LoopVar, MemAccess, TensorProgram};

/// Extents, outermost first: `2⁵² + 1 × 3 × 7` rounds differently
/// outermost-first and innermost-first, and on every device that difference
/// reaches `memory_s` through the whole-stack footprint.
const EXTENTS: [u64; 4] = [(1 << 52) + 1, 3, 7, 1024];

/// `for a0 { for a1 { for a2 { for a3 { leaf } } } }` over `EXTENTS`. The
/// leaf's first access moves along `a3` only, so it is reused across the
/// three outer loops, whose inner footprints fit any L2; the traffic of
/// both accesses is then the whole-stack footprint, which carries the
/// second access's product over `a0, a1, a2`. Both name a buffer the
/// program does not list, so no buffer size caps a footprint.
fn program() -> TensorProgram {
    let leaf = LeafStmt {
        kind: ComputeKind::Ewise,
        flops_per_iter: 1.0,
        accesses: vec![
            MemAccess::read(7, vec![(3, 1)]),
            MemAccess::write(8, vec![(0, 21), (1, 7), (2, 1)]),
        ],
        domain: vec![0, 1, 2, 3],
    };
    let mut node = AstNode::Leaf(leaf);
    for (axis, &extent) in EXTENTS.iter().enumerate().rev() {
        node = AstNode::Loop {
            var: LoopVar {
                axis: axis as u32,
                extent,
                kind: LoopKind::Serial,
                is_reduction: false,
            },
            body: vec![node],
        };
    }
    TensorProgram::from_tree(Vec::<Buffer>::new(), &[node])
}

#[test]
fn footprints_past_two_to_the_53_take_the_definition_order() {
    // The precondition: the second access's product over the three outer
    // loops is inexact, and its two orders disagree.
    let outward = EXTENTS[..3].iter().fold(1.0f64, |p, &e| p * e as f64);
    let inward = EXTENTS[..3].iter().rev().fold(1.0f64, |p, &e| p * e as f64);
    assert!(outward > 2f64.powi(53));
    assert_ne!(outward.to_bits(), inward.to_bits());

    let prog = program();
    let mut leaves = 0;
    for dev in all_devices() {
        let sim = Simulator::new(dev.clone());
        let oracle = reference::Reference { spec: dev };
        prog.visit_leaves(|leaf, stack| {
            assert_eq!(stack.len(), EXTENTS.len());
            let got = sim.leaf_cost(&prog, leaf, stack);
            let want = oracle.leaf_cost(&prog, leaf, stack);
            let bits =
                |c: devsim::LeafCost| [c.compute_s, c.memory_s, c.overhead_s].map(f64::to_bits);
            assert_eq!(bits(got), bits(want), "{}", sim.spec().name);
            leaves += 1;
        });
    }
    assert_eq!(leaves, all_devices().len());
}
