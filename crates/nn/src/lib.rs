//! From-scratch neural-network substrate for the CDMPP reproduction.
//!
//! The paper builds its predictor in PyTorch; this crate provides the
//! equivalent pieces in pure Rust, with model *definition* decoupled from
//! *execution*:
//!
//! * [`tape`] / [`Graph`]: an eager tape-based reverse-mode autodiff engine
//!   — the training path of the baselines and the one eager executor, the
//!   reference every compiled path is held to bit for bit.
//! * [`exec`] / [`Exec`]: the forward-op surface layers are generic over,
//!   so one model definition runs on the tape and is recorded into plans.
//! * [`plan`] / [`Plan`] / [`PlanExec`]: compiled inference — record the
//!   generic `forward` once, fuse element-wise chains and GEMM epilogues,
//!   plan all intermediates into one liveness-aliased arena, then replay
//!   per batch with zero allocation and no dynamic dispatch. Bit-identical
//!   to the taped forward.
//! * [`train_plan`] / [`TrainPlan`] / [`TrainExec`]: compiled training —
//!   the backward pass derived from the same recording in the tape's own
//!   order, forward + backward replayed from one arena, parameter
//!   gradients accumulated into the store; bit-identical to a tape step,
//!   data-parallel shard arithmetic included.
//! * [`ParamStore`]: parameter + gradient storage shared across steps.
//! * Layers: [`Linear`], [`LayerNorm`], [`MultiHeadAttention`],
//!   [`TransformerEncoder`], [`Mlp`], [`LstmCell`].
//! * Optimizers and schedulers: [`Sgd`], [`Adam`], [`CyclicLr`].
//! * Losses from §5.2 (MSE / MAPE / MSPE / hybrid) and the differentiable
//!   Central Moment Discrepancy regularizer from §5.3.

pub mod cmd;
pub mod exec;
pub mod init;
mod kernels;
pub mod layers;
pub mod loss;
mod memory;
pub mod optim;
pub mod plan;
pub mod tape;
pub mod train_plan;

pub use cmd::{cmd, cmd_value, CmdHead, DEFAULT_MOMENTS, TANH_SUPPORT};
pub use exec::Exec;
pub use init::{Init, ShapeOnly};
pub use layers::{
    LayerNorm, Linear, LstmCell, Mlp, MultiHeadAttention, TransformerEncoder,
    TransformerEncoderLayer,
};
pub use loss::{hybrid, mape, mse, mspe, LossKind};
pub use optim::{clip_and_step, Adam, ConstantLr, CyclicLr, LrSchedule, Optimizer, Sgd};
pub use plan::desc::{PlanDecodeError, PlanDesc};
pub use plan::{Plan, PlanError, PlanExec, PlanStats, Recorder, SpecializedPlan, WeightPackCache};
pub use tape::{Graph, ParamId, ParamStore, Var};
pub use train_plan::{TrainExec, TrainPlan, TrainPlanStats};
