//! Integration tests for the replayer (Algorithm 2) and the
//! cost-model-guided schedule search.

use cdmpp::core::{generational_search, GenSearchConfig, ProposerMix};
use cdmpp::prelude::*;

/// The schedule-search budget of the Fig 14b reproduction: 24 candidates a
/// round, half mutations and half fresh samples, the top 2 measured.
fn search_cfg(rounds: usize) -> GenSearchConfig {
    GenSearchConfig {
        rounds,
        candidates_per_round: 24,
        measure_per_round: 2,
        population: 8,
        mix: ProposerMix {
            mutation: 1,
            crossover: 0,
            fresh: 1,
        },
        ..Default::default()
    }
}

#[test]
fn replayed_e2e_time_is_at_least_the_critical_path() {
    // For every network and device, the replayed iteration time must be
    // >= the longest dependency chain and <= the serial sum of durations.
    let net = cdmpp::tir::zoo::inception_v3(1);
    for dev in [cdmpp::devsim::v100(), cdmpp::devsim::hl100()] {
        let (task_ids, programs) = cdmpp::core::sample_network_programs(&net, 5);
        let sim = Simulator::new(dev.clone());
        let durs: Vec<f64> = programs.iter().map(|p| sim.latency_seconds(p)).collect();
        let by_task: std::collections::HashMap<u32, f64> =
            task_ids.iter().copied().zip(durs.iter().copied()).collect();
        let tasks = cdmpp::tir::build_tasks(std::slice::from_ref(&net));
        let layer_ids = cdmpp::tir::layer_task_ids(&net, &tasks);
        let layer_durs: Vec<f64> = layer_ids.iter().map(|id| by_task[id]).collect();
        // Critical path via longest-path DP over the *built* DFG (which on
        // the HL-100 splits GEMM nodes across engines, shortening chains).
        let dfg = cdmpp::core::build_dfg(&net, &layer_durs, &dev);
        let mut longest = vec![0.0f64; dfg.len()];
        for (i, n) in dfg.iter().enumerate() {
            let dep_max = n.deps.iter().map(|&d| longest[d]).fold(0.0f64, f64::max);
            longest[i] = dep_max + n.duration_s + n.gap_s;
        }
        let critical: f64 = longest.iter().cloned().fold(0.0, f64::max);
        let serial: f64 = dfg.iter().map(|n| n.duration_s).sum();
        let t = replay(&dfg, cdmpp::core::engine_count(&dev));
        assert!(
            t >= critical * 0.999,
            "{}: {t} < critical {critical}",
            dev.name
        );
        // Allow for the dispatch gaps the DFG builder adds.
        let gap_budget: f64 = dfg.iter().map(|n| n.gap_s).sum();
        assert!(
            t <= serial + gap_budget + 1e-9,
            "{}: {t} > serial {serial}",
            dev.name
        );
    }
}

#[test]
fn hl100_replay_beats_single_queue() {
    let net = cdmpp::tir::zoo::bert_tiny(1);
    let dev = cdmpp::devsim::hl100();
    let t_multi = measured_end_to_end(&net, &dev, 3);
    // Same durations forced through one engine.
    let mut single = dev.clone();
    single.gemm_engines = 0;
    let t_single = measured_end_to_end(&net, &single, 3);
    assert!(
        t_multi < t_single,
        "GEMM engines must help: {t_multi} vs {t_single}"
    );
}

#[test]
fn oracle_guided_search_beats_canonical_schedule() {
    let nest = OpSpec::Dense {
        m: 256,
        n: 256,
        k: 256,
    }
    .canonical_nest();
    let dev = cdmpp::devsim::t4();
    let sim = Simulator::new(dev.clone());
    let canonical = sim.latency_seconds(&lower(&nest, &Schedule::default()).unwrap());
    let trace = generational_search(&nest, &dev, &cdmpp::core::OracleCost, &search_cfg(20));
    let best = trace.best_measured;
    assert!(best < canonical, "search {best} vs canonical {canonical}");
    // The reported best schedule must reproduce the reported latency.
    let prog = lower(&nest, &trace.best_schedule).unwrap();
    assert!((sim.latency_seconds(&prog) - best).abs() / best < 1e-9);
}

#[test]
fn trained_model_is_a_usable_cost_model() {
    let ds = Dataset::generate_with_networks(
        GenConfig {
            batch: 1,
            schedules_per_task: 6,
            devices: vec![cdmpp::devsim::t4()],
            seed: 8,
            noise_sigma: 0.0,
        },
        vec![cdmpp::tir::zoo::mlp_mixer(1)],
    );
    let split = SplitIndices::for_device(&ds, "T4", &[], 1);
    let pcfg = PredictorConfig {
        d_model: 16,
        n_layers: 1,
        d_ff: 32,
        d_emb: 12,
        ..Default::default()
    };
    let (model, _) = pretrain(
        &ds,
        &split.train,
        &split.valid,
        pcfg,
        TrainConfig {
            epochs: 10,
            ..Default::default()
        },
    );
    let nest = OpSpec::Dense {
        m: 64,
        n: 64,
        k: 64,
    }
    .canonical_nest();
    let trace = generational_search(
        &nest,
        &cdmpp::devsim::t4(),
        &model.freeze(),
        &search_cfg(10),
    );
    assert_eq!(trace.rounds.len(), 10);
    assert!(trace
        .rounds
        .iter()
        .all(|r| r.best_measured.is_finite() && r.best_measured > 0.0));
}
