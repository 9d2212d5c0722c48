//! Property-based invariants for the Algorithm-2 replayer on random DAGs,
//! and its equivalence to the quadratic loop it replaced.

#[path = "reference/replay.rs"]
mod reference;

use cdmpp_core::{build_dfg, engine_count, replay, replay_timeline, DfgNode, TimelineEntry};
use proptest::prelude::*;

/// A timeline and its iteration time, as bits.
fn bits((timeline, t): (Vec<TimelineEntry>, f64)) -> (Vec<(usize, usize, u64, u64)>, u64) {
    let entries = timeline
        .iter()
        .map(|e| (e.node, e.engine, e.start_s.to_bits(), e.end_s.to_bits()))
        .collect();
    (entries, t.to_bits())
}

/// DAGs built to disagree if anything about the order differs: durations
/// from a handful of values including zero (ties in `readyTime` and
/// `deviceTime` everywhere), ~12% edge density (fan-in and fan-out), `deps`
/// listed in either direction, and `engine` indices beyond any engine count
/// the properties pass.
fn arb_tie_dag() -> impl Strategy<Value = Vec<DfgNode>> {
    let node = (0u32..5, 0u32..3, 0usize..8, 0u64..u64::MAX, 0u64..u64::MAX);
    proptest::collection::vec(node, 1..48).prop_map(|raw| {
        raw.iter()
            .enumerate()
            .map(|(i, &(dur, gap, engine, m1, m2))| {
                let mask = m1 & m2 & m1.rotate_left(17);
                let mut deps: Vec<usize> = (0..i).filter(|d| mask >> (d % 64) & 1 == 1).collect();
                if i % 2 == 1 {
                    deps.reverse();
                }
                DfgNode {
                    duration_s: dur as f64 * 1e-4,
                    deps,
                    engine,
                    gap_s: gap as f64 * 5e-5,
                }
            })
            .collect()
    })
}

fn arb_dag() -> impl Strategy<Value = Vec<DfgNode>> {
    proptest::collection::vec((1u64..100, 0usize..4), 1..25).prop_map(|raw| {
        raw.iter()
            .enumerate()
            .map(|(i, &(dur, engine))| {
                // Deps point backwards to a pseudo-random subset.
                let deps: Vec<usize> = (0..i).filter(|&d| (d * 7 + i) % 3 == 0).collect();
                DfgNode {
                    duration_s: dur as f64 * 1e-4,
                    deps,
                    engine,
                    gap_s: 0.0,
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn replay_bounded_by_critical_path_and_serial_sum(nodes in arb_dag(), engines in 1usize..5) {
        let t = replay(&nodes, engines);
        // Longest dependency chain.
        let mut longest = vec![0.0f64; nodes.len()];
        for (i, n) in nodes.iter().enumerate() {
            let dep = n.deps.iter().map(|&d| longest[d]).fold(0.0f64, f64::max);
            longest[i] = dep + n.duration_s;
        }
        let critical = longest.iter().cloned().fold(0.0, f64::max);
        let serial: f64 = nodes.iter().map(|n| n.duration_s).sum();
        prop_assert!(t >= critical - 1e-12, "t {} < critical {}", t, critical);
        prop_assert!(t <= serial + 1e-12, "t {} > serial {}", t, serial);
    }

    #[test]
    fn more_engines_never_slow_down(nodes in arb_dag()) {
        let t1 = replay(&nodes, 1);
        let t4 = replay(&nodes, 4);
        prop_assert!(t4 <= t1 + 1e-12);
    }

    #[test]
    fn replay_is_deterministic(nodes in arb_dag(), engines in 1usize..4) {
        prop_assert_eq!(replay(&nodes, engines), replay(&nodes, engines));
    }

    #[test]
    fn timeline_matches_quadratic_reference(nodes in arb_tie_dag(), engines in 1usize..=5) {
        prop_assert_eq!(
            bits(replay_timeline(&nodes, engines)),
            bits(reference::replay_timeline(&nodes, engines))
        );
        prop_assert_eq!(
            replay(&nodes, engines).to_bits(),
            reference::replay_timeline(&nodes, engines).1.to_bits()
        );
    }
}

#[test]
fn zoo_timelines_match_quadratic_reference() {
    for net in tir::all_networks(1) {
        let durations: Vec<f64> = net
            .layers
            .iter()
            .map(|l| l.spec.flops() * 1e-12 + 1e-5)
            .collect();
        for dev in devsim::all_devices() {
            let dfg = build_dfg(&net, &durations, &dev);
            let engines = engine_count(&dev);
            assert_eq!(
                bits(replay_timeline(&dfg, engines)),
                bits(reference::replay_timeline(&dfg, engines)),
                "{} on {}",
                net.name,
                dev.name
            );
        }
    }
}

#[test]
fn duplicated_dependency_edge_is_one_edge() {
    // Diamond 0 -> {1, 2} -> 3 whose join lists producer 1 twice. Counting
    // it twice but releasing it once left the join unscheduled and the
    // iteration time short, with no error.
    let node = |duration_s: f64, deps: &[usize]| DfgNode {
        duration_s,
        deps: deps.to_vec(),
        engine: 0,
        gap_s: 0.0,
    };
    let nodes = [
        node(1.0, &[]),
        node(2.0, &[0]),
        node(3.0, &[0]),
        node(1.0, &[1, 1, 2]),
    ];
    let (timeline, t) = replay_timeline(&nodes, 1);
    assert_eq!(timeline.len(), 4, "every node runs");
    assert_eq!(t, 7.0);
    let mut distinct = nodes.to_vec();
    distinct[3].deps = vec![1, 2];
    assert_eq!(
        bits((timeline, t)),
        bits(replay_timeline(&distinct, 1)),
        "same schedule as the graph without the repeat"
    );
}

#[test]
fn non_finite_duration_replays_to_nan() {
    // One queue used to step past the NaN with `max`; several queues used
    // to panic comparing it.
    let net = tir::zoo::bert_tiny(1);
    for dev in [devsim::hl100(), devsim::t4()] {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut durations = vec![1e-4; net.layers.len()];
            durations[3] = bad;
            let dfg = build_dfg(&net, &durations, &dev);
            assert!(replay(&dfg, engine_count(&dev)).is_nan(), "{}", dev.name);
            let (timeline, t) = replay_timeline(&dfg, engine_count(&dev));
            assert!(timeline.is_empty() && t.is_nan());
        }
    }
}
