//! Engine-backed schedule search: the [`EngineCostModel`] scoring path
//! must be bit-identical to the serial frozen-model cost model (invalid
//! candidates ranking INFINITY on both), its encode
//! arena must stop allocating after warmup, and a generational search
//! driven through a fault-injected engine must converge
//! to exactly the same trace as a clean serial run — faults heal, they
//! never change results.

use std::sync::Arc;

use cdmpp_core::batch::FeatScaler;
use cdmpp_core::{
    generational_search, CostModel, GenSearchConfig, InferenceModel, Predictor, PredictorConfig,
    TrainConfig, TrainedModel,
};
use learn::TransformKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use runtime::{EngineConfig, EngineCostModel, FaultPlan, InferenceEngine};
use tir::{lower, sample_schedule, OpSpec, TensorProgram};

fn frozen(max_leaves: usize) -> InferenceModel {
    TrainedModel {
        predictor: Predictor::new(PredictorConfig {
            max_leaves,
            ..Default::default()
        }),
        transform: TransformKind::BoxCox.fit(&[0.5, 1.0, 2.0, 4.0]),
        scaler: FeatScaler::identity(),
        use_pe: true,
        train_config: TrainConfig::default(),
    }
    .freeze()
}

/// Deterministic candidate mix across three op shapes (leaf counts 2-4),
/// like a search round's lowered proposals.
fn candidate_programs(seed: u64, count: usize) -> Vec<TensorProgram> {
    let mut rng = StdRng::seed_from_u64(seed);
    let specs = [
        OpSpec::Dense {
            m: 32,
            n: 32,
            k: 32,
        },
        OpSpec::Softmax { rows: 32, cols: 64 },
        OpSpec::BatchMatmul {
            b: 2,
            m: 16,
            n: 16,
            k: 16,
        },
    ];
    let mut out = Vec::new();
    'outer: loop {
        for spec in specs {
            let nest = spec.canonical_nest();
            let s = sample_schedule(&nest, &mut rng);
            out.push(lower(&nest, &s).unwrap());
            if out.len() == count {
                break 'outer;
            }
        }
    }
    out
}

#[test]
fn engine_cost_model_matches_trained_model_bitwise() {
    // max_leaves = 3: the 3-leaf Dense candidates are valid, the 4-leaf
    // Softmax ones are not — the mix exercises both branches.
    let reference = frozen(3);
    let engine = Arc::new(InferenceEngine::new(
        frozen(3),
        EngineConfig {
            workers: 2,
            max_batch: 4,
            ..Default::default()
        },
    ));
    let cost = EngineCostModel::new(Arc::clone(&engine), 2);
    let progs = candidate_programs(11, 48);
    let refs: Vec<&TensorProgram> = progs.iter().collect();
    let dev = devsim::t4();

    let want = reference.score_batch(&refs, &dev);
    let (mut valid, mut invalid) = (0usize, 0usize);
    for round in 0..3 {
        let got = cost.score_batch(&refs, &dev);
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "round {round}, candidate {i}: engine-scored must be \
                 bit-identical to the serial cost model"
            );
            if w.is_finite() {
                valid += 1;
            } else {
                invalid += 1;
            }
        }
    }
    assert!(valid > 0 && invalid > 0, "mix must exercise both branches");

    // Steady state: the warmed arena stops growing on repeat rounds of the
    // same (or smaller) workload.
    let warmed = cost.arena_growth();
    for _ in 0..5 {
        cost.score_batch(&refs, &dev);
        cost.score_batch(&refs[..16], &dev);
    }
    assert_eq!(
        cost.arena_growth(),
        warmed,
        "warmed encode arena must not grow across repeat score rounds"
    );

    let t = cost.timings();
    assert!(
        t.scored > 0 && t.encode_ns > 0 && t.dispatch_ns > 0,
        "{t:?}"
    );
}

#[test]
fn generational_search_converges_identically_under_faults() {
    // The CI fault plan against a clean serial run:
    // injected panics retry to bit-exact scores and injected delays only
    // slow dispatch, so the search must converge to the *same trace* —
    // same per-round predictions, same measured latencies, same winner.
    let nest = OpSpec::Dense {
        m: 128,
        n: 128,
        k: 128,
    }
    .canonical_nest();
    let dev = devsim::t4();
    let cfg = GenSearchConfig {
        rounds: 4,
        candidates_per_round: 200,
        measure_per_round: 3,
        population: 8,
        seed: 7,
        ..Default::default()
    };

    let serial = frozen(8);
    let want = generational_search(&nest, &dev, &serial, &cfg);

    let engine = Arc::new(InferenceEngine::new(
        frozen(8),
        EngineConfig {
            workers: 2,
            max_batch: 2, // many small chunks -> the panic fault really fires
            max_retries: 20,
            faults: Some(
                FaultPlan::parse("panic@replay:every=97;delay@replay:ms=1,every=13").unwrap(),
            ),
            ..Default::default()
        },
    ));
    let cost = EngineCostModel::new(Arc::clone(&engine), 0);
    let got = generational_search(&nest, &dev, &cost, &cfg);

    assert_eq!(got.best_schedule, want.best_schedule);
    assert_eq!(got.best_measured.to_bits(), want.best_measured.to_bits());
    assert_eq!(got.measurements, want.measurements);
    assert_eq!(got.rounds.len(), want.rounds.len());
    for (i, (g, w)) in got.rounds.iter().zip(&want.rounds).enumerate() {
        assert_eq!(g.unique, w.unique, "round {i}");
        assert_eq!(
            g.best_predicted.to_bits(),
            w.best_predicted.to_bits(),
            "round {i}: the faulty engine's ranking must be bit-identical"
        );
        assert_eq!(g.round_measured.to_bits(), w.round_measured.to_bits());
        assert_eq!(g.best_measured.to_bits(), w.best_measured.to_bits());
    }

    let s = engine.stats();
    assert!(
        s.worker_panics > 0,
        "the panic fault must actually have fired: {s}"
    );
    assert_eq!(
        s.score_sheds, 0,
        "healed faults never shed a candidate: {s}"
    );
}
