//! Property-based invariants of schedule lowering.

mod reference;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use reference::reference_lower;
use tir::{
    crossover_schedule, lower, mutate_schedule, sample_schedule, LoopKind, Nest, OpSpec, Primitive,
    Schedule, SerEntry,
};

fn arb_spec() -> impl Strategy<Value = OpSpec> {
    prop_oneof![
        (1u64..5, 1u64..5, 1u64..5).prop_map(|(m, n, k)| OpSpec::Dense {
            m: m * 8,
            n: n * 8,
            k: k * 8
        }),
        (1u64..4, 1u64..4).prop_map(|(r, c)| OpSpec::Softmax {
            rows: r * 16,
            cols: c * 16
        }),
        (1u64..3, 1u64..3).prop_map(|(c, h)| OpSpec::Conv2d {
            n: 1,
            cin: c * 8,
            hw: h * 8,
            cout: 16,
            khw: 3,
            stride: 1
        }),
        (1u64..6,).prop_map(|(n,)| OpSpec::Elementwise {
            n: n * 256,
            kind: tir::EwKind::Relu
        }),
    ]
}

/// `arb_spec()` plus the four operator kinds it leaves out, the batched
/// matmul the search benchmark tunes among them.
fn arb_any_spec() -> impl Strategy<Value = OpSpec> {
    prop_oneof![
        arb_spec(),
        (1u64..4, 1u64..4, 1u64..4).prop_map(|(b, m, k)| OpSpec::BatchMatmul {
            b,
            m: m * 8,
            n: 16,
            k: k * 8
        }),
        (1u64..3, 1u64..3).prop_map(|(c, h)| OpSpec::DepthwiseConv {
            n: 1,
            c: c * 8,
            hw: h * 8,
            khw: 3,
            stride: 1
        }),
        (1u64..3, 1u64..3).prop_map(|(c, h)| OpSpec::Pool {
            n: 1,
            c: c * 8,
            hw: h * 8,
            khw: 2,
            stride: 2
        }),
        (1u64..4, 1u64..4).prop_map(|(r, c)| OpSpec::LayerNorm {
            rows: r * 16,
            cols: c * 16
        }),
    ]
}

/// A schedule of the given flavour: fresh sample, mutation chain,
/// crossover child, or a sample whose `Reorder` is fully shuffled (which
/// hoists reductions and fissions the nest).
fn proposed(nest: &Nest, flavour: u32, rng: &mut StdRng) -> Schedule {
    let base = sample_schedule(nest, rng);
    match flavour {
        0 => base,
        1 => (0..3).fold(base, |s, _| mutate_schedule(nest, &s, rng)),
        2 => {
            let other = mutate_schedule(nest, &base, rng);
            crossover_schedule(nest, &base, &other)
        }
        _ => {
            let mut s = base;
            for p in &mut s.primitives {
                if let Primitive::Reorder { order } = p {
                    order.shuffle(rng);
                }
            }
            s
        }
    }
}

/// Breaks `sched` at a random position with one invalid primitive.
fn corrupted(sched: &Schedule, rng: &mut StdRng) -> Schedule {
    let bad = match rng.random_range(0..5u32) {
        0 => Primitive::Split {
            axis: 0,
            factor: 1 << 40,
        },
        1 => Primitive::Split { axis: 0, factor: 0 },
        2 => Primitive::Split {
            axis: 9_999,
            factor: 2,
        },
        3 => Primitive::Reorder { order: vec![0, 0] },
        _ => Primitive::Annotate {
            axis: 9_999,
            kind: LoopKind::Unroll,
        },
    };
    let mut out = sched.clone();
    let at = rng.random_range(0..=out.primitives.len());
    out.primitives.insert(at, bad);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `lower` writes each leaf once, when it places it; the reference
    /// rewrites it at every split and clones it per nesting level. Same
    /// program, same error, on every input.
    #[test]
    fn lower_equals_clone_based_reference(
        spec in arb_any_spec(),
        flavour in 0u32..4,
        seed in 0u64..1_000_000,
    ) {
        let nest = spec.canonical_nest();
        let mut rng = StdRng::seed_from_u64(seed);
        let sched = proposed(&nest, flavour, &mut rng);
        let prog = lower(&nest, &sched);
        prop_assert!(prog.is_ok());
        prop_assert_eq!(prog, reference_lower(&nest, &sched));
        let broken = corrupted(&sched, &mut rng);
        prop_assert_eq!(lower(&nest, &broken), reference_lower(&nest, &broken));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sampled_schedules_preserve_semantics(spec in arb_spec(), seed in 0u64..10_000) {
        let nest = spec.canonical_nest();
        let mut rng = StdRng::seed_from_u64(seed);
        let sched = sample_schedule(&nest, &mut rng);
        let prog = lower(&nest, &sched).unwrap();
        // Leaf count and total iteration count are schedule-invariant.
        prop_assert_eq!(prog.leaf_count(), nest.leaves.len());
        let diff = (prog.total_iterations() - nest.total_iterations()).abs();
        prop_assert!(diff / nest.total_iterations() < 1e-9);
    }

    #[test]
    fn preorder_serialization_is_consistent(spec in arb_spec(), seed in 0u64..10_000) {
        let nest = spec.canonical_nest();
        let mut rng = StdRng::seed_from_u64(seed);
        let sched = sample_schedule(&nest, &mut rng);
        let prog = lower(&nest, &sched).unwrap();
        let ser = prog.serialize_preorder();
        // Exactly one marker per leaf, directly after it.
        let leaves = ser.iter().filter(|e| matches!(e, SerEntry::Leaf(_))).count();
        let markers = ser.iter().filter(|e| matches!(e, SerEntry::Marker)).count();
        prop_assert_eq!(leaves, prog.leaf_count());
        prop_assert_eq!(markers, leaves);
        for w in ser.windows(2) {
            if matches!(w[0], SerEntry::Leaf(_)) {
                prop_assert!(matches!(w[1], SerEntry::Marker));
            }
        }
        // Node ids are consecutive pre-order ids.
        let ids: Vec<u32> = ser.iter().filter_map(|e| match e {
            SerEntry::Loop(i) | SerEntry::Leaf(i) => Some(*i),
            SerEntry::Marker => None,
        }).collect();
        for (expect, &got) in ids.iter().enumerate().map(|(i, v)| (i as u32, v)) {
            prop_assert_eq!(expect, got);
        }
        // Ordering vector entries are strictly increasing.
        let ov = prog.ordering_vector();
        for w in ov.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn default_schedule_is_always_valid(spec in arb_spec()) {
        let nest = spec.canonical_nest();
        let prog = lower(&nest, &Schedule::default()).unwrap();
        prop_assert!(prog.node_count() >= nest.leaves.len());
        prop_assert!(prog.max_depth() <= nest.axes.len());
    }
}
