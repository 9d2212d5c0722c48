//! # cdmpp — a Rust reproduction of CDMPP (EuroSys '24)
//!
//! CDMPP is a device- and model-agnostic framework for predicting the
//! absolute execution latency of tensor programs. This crate re-exports
//! the whole reproduction workspace behind one façade:
//!
//! * [`tir`]: loop-nest tensor IR, schedules, and the DNN model zoo.
//! * [`devsim`]: the analytical device simulator (Table 2 devices).
//! * [`features`]: compact-AST features and positional encoding (§4).
//! * [`dataset`]: synthetic-Tenset generation and splits (§7.1).
//! * [`nn`] / [`tensor`]: the from-scratch neural substrate, with model
//!   definition decoupled from execution — an autodiff tape (training and
//!   the eager reference) and compiled plans for inference, bit-identical
//!   to the tape.
//! * [`learn`]: KMeans, Box-Cox, t-SNE, metrics.
//! * [`baselines`]: XGBoost-style GBT, Tiramisu, Habitat, TLP.
//! * [`core`]: the CDMPP predictor, cross-domain training, Algorithm 1
//!   sampler, Algorithm 2 replayer, and schedule search.
//! * [`runtime`]: the concurrent serving engine — heterogeneous prediction
//!   requests bucketed by leaf count, dispatched as dense batches across a
//!   worker pool over `Arc`-shared weights, results in request order.
//!
//! ## Training vs inference execution
//!
//! Training replays a compiled step ([`nn::TrainPlan`]) for the CDMPP
//! predictor, or builds a fresh [`nn::Graph`] tape per step for the
//! baselines, and pulls gradients back into a mutable [`nn::ParamStore`].
//! The tape is also the one eager executor: [`core::Predictor::predict_batch`]
//! runs on it, as the reference every compiled plan is held to. Serving
//! freezes a [`core::TrainedModel`] into a [`core::InferenceModel`] whose
//! weights live behind an `Arc`, shared by every
//! [`runtime::InferenceEngine`] worker, and replays compiled plans
//! ([`nn::Plan`] and its batch-specialized folds). Every element is
//! computed in the same order on both paths, so their outputs are
//! bit-identical.
//!
//! ## Quickstart
//!
//! ```
//! use cdmpp::prelude::*;
//!
//! // Generate a small dataset on one simulated device.
//! let ds = Dataset::generate_with_networks(
//!     GenConfig {
//!         batch: 1,
//!         schedules_per_task: 3,
//!         devices: vec![cdmpp::devsim::t4()],
//!         seed: 1,
//!         noise_sigma: 0.0,
//!     },
//!     vec![cdmpp::tir::zoo::mlp_mixer(1)],
//! );
//! let split = SplitIndices::for_device(&ds, "T4", &[], 1);
//! // Train a tiny predictor for a couple of epochs.
//! let pcfg = PredictorConfig { d_model: 16, n_layers: 1, d_ff: 32, ..Default::default() };
//! let tcfg = TrainConfig { epochs: 2, ..Default::default() };
//! let (model, _stats) = pretrain(&ds, &split.train, &split.valid, pcfg, tcfg);
//! let preds = model.predict_records(&ds, &split.test);
//! assert!(preds.iter().all(|&p| p > 0.0));
//! ```

pub use baselines;
pub use cdmpp_core as core;
pub use dataset;
pub use devsim;
pub use features;
pub use learn;
pub use nn;
pub use runtime;
pub use tensor;
pub use tir;

/// The most common imports in one place.
pub mod prelude {
    pub use cdmpp_core::{
        end_to_end, evaluate, finetune, measured_end_to_end, pretrain, replay, select_tasks,
        CostModel, EvalMetrics, FineTuneConfig, InferenceModel, PredictError, Predictor,
        PredictorConfig, TrainConfig, TrainedModel,
    };
    pub use dataset::{Dataset, GenConfig, Record, SplitIndices};
    pub use devsim::{DeviceClass, DeviceSpec, Simulator};
    pub use features::{extract_compact_ast, CompactAst};
    pub use learn::{LabelTransform, TransformKind};
    pub use runtime::{EngineConfig, InferenceEngine};
    pub use tir::{lower, sample_schedule, Network, OpSpec, Schedule, TensorProgram};
}
