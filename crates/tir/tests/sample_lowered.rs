//! `sample_lowered` against its definition, and lowering of nests whose
//! canonical axis ids do not fit `lower`'s domain bitmask.

mod reference;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reference::reference_lower;
use tir::{
    all_networks, build_tasks, lower, sample_lowered, sample_schedule, AxisId, LeafStmt, MemAccess,
    Nest, OpSpec, Primitive, Schedule,
};

const SEEDS: u64 = 8;

/// Every zoo task × 8 seeds: `sample_lowered` is `(s, lower(nest, &s))` for
/// the `s` `sample_schedule` draws from a clone of the generator, and it
/// leaves the generator where `sample_schedule` does. The `unwrap` is the
/// invariant the end-to-end path and dataset generation rely on: a sampled
/// schedule always lowers.
#[test]
fn sample_lowered_is_sample_schedule_then_lower() {
    let tasks = build_tasks(&all_networks(1));
    assert!(tasks.len() > 100);
    for task in &tasks {
        let nest = task.spec.canonical_nest();
        for seed in 0..SEEDS {
            let mut rng = StdRng::seed_from_u64(seed ^ (u64::from(task.id) << 8));
            let mut oracle = rng.clone();
            let (s, prog) = sample_lowered(&nest, &mut rng);
            let want = sample_schedule(&nest, &mut oracle);
            assert_eq!(s, want, "{} seed {seed}", task.name);
            let lowered = lower(&nest, &want).unwrap_or_else(|e| {
                panic!("{} seed {seed}: sampled schedule fails: {e}", task.name)
            });
            assert_eq!(prog, lowered, "{} seed {seed}", task.name);
            assert_eq!(
                rng.next_u64(),
                oracle.next_u64(),
                "{} seed {seed}: generator state",
                task.name
            );
        }
    }
}

/// `nest` and `schedule` with every axis id `a` renamed to `map(a)`, split
/// new axes included: `map` must send the ids a split creates to the ids it
/// creates in the renamed nest.
fn renamed(nest: &Nest, schedule: &Schedule, map: impl Fn(AxisId) -> AxisId) -> (Nest, Schedule) {
    let mut nest = nest.clone();
    for a in &mut nest.axes {
        a.id = map(a.id);
    }
    let leaf = |l: &LeafStmt| LeafStmt {
        domain: l.domain.iter().map(|&a| map(a)).collect(),
        accesses: l
            .accesses
            .iter()
            .map(|acc| {
                let strides = acc.strides.iter().map(|&(a, s)| (map(a), s)).collect();
                if acc.is_write {
                    MemAccess::write(acc.buffer, strides)
                } else {
                    MemAccess::read(acc.buffer, strides)
                }
            })
            .collect(),
        ..l.clone()
    };
    nest.leaves = nest.leaves.iter().map(leaf).collect();
    let primitives = schedule
        .primitives
        .iter()
        .map(|p| match p {
            Primitive::Split { axis, factor } => Primitive::Split {
                axis: map(*axis),
                factor: *factor,
            },
            Primitive::Reorder { order } => Primitive::Reorder {
                order: order.iter().map(|&a| map(a)).collect(),
            },
            Primitive::Annotate { axis, kind } => Primitive::Annotate {
                axis: map(*axis),
                kind: *kind,
            },
        })
        .collect();
    (nest, Schedule { primitives })
}

/// Nests whose canonical ids reach 64 and beyond, all of them or only one,
/// lower exactly as the reference builder does: membership of a domain
/// falls back from the bitmask to the domain list.
#[test]
fn axis_ids_past_the_mask_lower_like_the_reference() {
    let mut rng = StdRng::seed_from_u64(64);
    // Canonical ids are 0..n and splits number new axes from n up, so a
    // shift keeps both; the mixed renaming sends axis 1 to 900 and the
    // split-created ids from 901 up.
    type Map = Box<dyn Fn(AxisId) -> AxisId>;
    let shifts = |n: AxisId| -> [(&str, Map); 3] {
        [
            ("every id + 60", Box::new(|a| a + 60)),
            ("every id + 1000", Box::new(|a| a + 1000)),
            (
                "axis 1 -> 900",
                Box::new(move |a| match a {
                    1 => 900,
                    a if a < n => a,
                    a => a - n + 901,
                }),
            ),
        ]
    };
    for spec in [
        OpSpec::Dense {
            m: 64,
            n: 32,
            k: 16,
        },
        OpSpec::Conv2d {
            n: 1,
            cin: 8,
            hw: 8,
            cout: 16,
            khw: 3,
            stride: 1,
        },
        OpSpec::Softmax { rows: 32, cols: 64 },
    ] {
        let nest = spec.canonical_nest();
        let n = nest.axes.len() as AxisId;
        assert!(nest.axes.iter().all(|a| a.id < n));
        for _ in 0..20 {
            let s = sample_schedule(&nest, &mut rng);
            let want = lower(&nest, &s).expect("sampled schedule lowers");
            for (name, map) in shifts(n) {
                let (nest, s) = renamed(&nest, &s, &map);
                let got = lower(&nest, &s).expect("renamed schedule lowers");
                assert_eq!(got, reference_lower(&nest, &s).unwrap(), "{spec:?}, {name}");
                assert_eq!(got.node_count(), want.node_count(), "{spec:?}, {name}");
            }
        }
    }
}
