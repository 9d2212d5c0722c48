//! The network front end — sample, encode, predict, replay — answers the
//! same bits whichever model form serves it: the training-side model
//! (`cdmpp_core::end_to_end`), its freeze (`end_to_end_frozen`) and an
//! engine over that freeze (`runtime::end_to_end`, chunked below the task
//! count so the queue and the workers serve it).

use cdmpp_core::batch::FeatScaler;
use cdmpp_core::{
    encode_programs, end_to_end, end_to_end_frozen, sample_network_programs, Predictor,
    PredictorConfig, TrainConfig, TrainedModel,
};
use learn::TransformKind;
use runtime::{EngineConfig, FaultPlan, InferenceEngine};
use tir::{zoo, TensorProgram};

/// An untrained predictor behind a fitted scaler and Box-Cox transform:
/// every stage of the front end does real arithmetic.
fn model() -> TrainedModel {
    let (_, programs) = sample_network_programs(&zoo::resnet18(1), 1);
    let refs: Vec<&TensorProgram> = programs.iter().collect();
    let enc = encode_programs(&refs, &devsim::t4(), features::DEFAULT_THETA, true);
    TrainedModel {
        predictor: Predictor::new(PredictorConfig::default()),
        transform: TransformKind::BoxCox.fit(&[2e-5, 1e-4, 3e-4, 1e-3]),
        scaler: FeatScaler::fit(&enc),
        use_pe: true,
        train_config: TrainConfig::default(),
    }
}

#[test]
fn serial_frozen_and_engine_end_to_end_agree_bitwise() {
    let trained = model();
    let frozen = trained.freeze();
    let engine = InferenceEngine::new(
        trained.freeze(),
        EngineConfig {
            workers: 2,
            max_batch: 4,
            faults: Some(FaultPlan::none()),
            ..Default::default()
        },
    );
    for net in [zoo::bert_tiny(1), zoo::mlp_mixer(1)] {
        for dev in [devsim::t4(), devsim::hl100()] {
            for seed in [0, 7] {
                let serial = end_to_end(&trained, &net, &dev, seed);
                let frozen = end_to_end_frozen(&frozen, &net, &dev, seed).unwrap();
                let served = runtime::end_to_end(&engine, &net, &dev, seed).unwrap();
                assert!(serial.predicted_s.is_finite() && serial.predicted_s > 0.0);
                for (what, r) in [("frozen", frozen), ("engine", served)] {
                    assert_eq!(
                        (r.predicted_s.to_bits(), r.measured_s.to_bits()),
                        (serial.predicted_s.to_bits(), serial.measured_s.to_bits()),
                        "{what} vs serial: {} on {} seed {seed}",
                        net.name,
                        dev.name
                    );
                }
            }
        }
    }
    assert!(
        engine.stats().completed_chunks > engine.caller_chunks(),
        "the engine's queued route must have served some of the chunks"
    );
}
