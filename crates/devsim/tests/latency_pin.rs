//! Pins the ground-truth simulator's bits.
//!
//! Every dataset label, `measured_s` and `quality_err` in the repository is
//! a `Simulator::latency_seconds` value, so a rewrite of the memory model
//! must not move one of them. The fold below was recorded from a build of
//! the commit before the per-leaf stride table landed (PR 17) and must
//! never move; the second test holds each `LeafCost` component to a
//! verbatim copy of that commit's model on the same programs.

mod reference;

use cdmpp_core::sample_network_programs;
use devsim::{all_devices, Simulator};
use tir::{all_networks, TensorProgram};

const SEEDS: u64 = 8;

/// The programs of 9 networks × 8 seeds, as the end-to-end path samples them.
fn programs() -> Vec<TensorProgram> {
    let mut out = Vec::new();
    for net in all_networks(1) {
        for seed in 0..SEEDS {
            out.extend(sample_network_programs(&net, seed).1);
        }
    }
    out
}

#[test]
fn latency_bits_are_pinned() {
    let programs = programs();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut count = 0usize;
    for dev in all_devices() {
        let sim = Simulator::new(dev);
        for p in &programs {
            h = (h ^ sim.latency_seconds(p).to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
            count += 1;
        }
    }
    assert_eq!(
        (count, h),
        (PINNED_COUNT, PINNED_FOLD),
        "fold {h:#018x} over {count}"
    );
}

const PINNED_COUNT: usize = 10_584;
const PINNED_FOLD: u64 = 0xc7b9_57f6_2594_3d79;

#[test]
fn leaf_cost_matches_reference_model() {
    let programs = programs();
    for dev in all_devices() {
        let sim = Simulator::new(dev.clone());
        let oracle = reference::Reference { spec: dev };
        for p in &programs {
            p.visit_leaves(|leaf, stack| {
                let got = sim.leaf_cost(p, leaf, stack);
                let want = oracle.leaf_cost(p, leaf, stack);
                let bits =
                    |c: devsim::LeafCost| [c.compute_s, c.memory_s, c.overhead_s].map(f64::to_bits);
                assert_eq!(bits(got), bits(want), "{} {leaf:?}", sim.spec().name);
            });
        }
    }
}

#[test]
fn loopless_leaf_matches_reference_model() {
    // Lowering never emits a leaf outside every loop, but the AST allows it
    // and the stride table's rows are then empty.
    use tir::{AstNode, Buffer, ComputeKind, LeafStmt, MemAccess};
    let prog = TensorProgram::from_tree(
        vec![Buffer::f32("x", 1)],
        &[AstNode::Leaf(LeafStmt {
            kind: ComputeKind::Ewise,
            flops_per_iter: 1.0,
            accesses: vec![MemAccess::read(0, vec![]), MemAccess::write(0, vec![])],
            domain: vec![],
        })],
    );
    for dev in all_devices() {
        let sim = Simulator::new(dev.clone());
        let oracle = reference::Reference { spec: dev };
        prog.visit_leaves(|leaf, stack| {
            assert_eq!(
                sim.leaf_cost(&prog, leaf, stack),
                oracle.leaf_cost(&prog, leaf, stack)
            );
        });
    }
}
