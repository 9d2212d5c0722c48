//! CDMPP: the paper's primary contribution.
//!
//! * [`predictor`]: the Transformer-based cost model of Fig 4, with
//!   leaf-count-specific embedding layers and a device branch.
//! * [`batch`]: leaf-count-homogeneous batching of compact ASTs.
//! * [`trainer`]: pre-training with Box-Cox label normalization and the
//!   scale-insensitive hybrid objective (§5.2, §5.4).
//! * [`finetune`]: CMD-regularized domain adaptation (§5.3).
//! * [`sampler`]: Algorithm 1 — KMeans-based task selection for profiling
//!   on a new device.
//! * [`replayer`]: Algorithm 2 — end-to-end DFG replay, including HL-100
//!   GEMM-engine splitting (§5.5, Appendix C).
//! * [`e2e`]: network-level latency prediction gluing all of the above.
//! * [`search`]: Ansor-lite schedule search driven by a cost model (§7.5).
//! * [`snapshot`]: the versioned checkpoint format — trained weights plus
//!   compiled inference plans in one file, for zero-recording cold starts.

pub mod batch;
pub mod e2e;
pub mod finetune;
pub mod predictor;
pub mod replayer;
pub mod sampler;
pub mod search;
pub mod snapshot;
pub mod trainer;

pub use batch::{
    build_batch, build_scaled_batch, build_scaled_batch_idx, encode_records, group_by_leaf,
    group_by_leaf_into, group_by_leaf_refs, make_batches, Batch, EncodedSample, LeafGroups,
    SampleLike, SampleRef,
};
pub use e2e::{
    encode_programs, encode_programs_into, end_to_end, end_to_end_frozen, measured_end_to_end,
    replay_predictions, sample_network_programs, E2eResult, EncodeArena,
};
pub use finetune::{finetune, latent_cmd, FineTuneConfig};
pub use predictor::{
    PlanRunner, PredictError, Predictor, PredictorConfig, SharedPredictor, StepSeeds,
    DEFAULT_MAX_BATCH, MAX_BATCH_CLASSES,
};
pub use replayer::{build_dfg, engine_count, replay, replay_timeline, DfgNode, TimelineEntry};
pub use sampler::select_tasks;
pub use search::{
    generational_search, CostModel, GenRound, GenSearchConfig, GenSearchTrace, OracleCost,
    ProposerMix, RandomCost,
};
pub use snapshot::{ParamTensor, PlanEntry, QuantTensor, Snapshot, SnapshotError, SpecPlanEntry};
pub use trainer::{
    evaluate, pretrain, train_step, train_step_parallel, CompiledStep, EvalMetrics, InferenceModel,
    LossKind, OptKind, TrainConfig, TrainStats, TrainedModel,
};
