//! A loop-nest tensor IR: the TVM-TIR substitute for the CDMPP reproduction.
//!
//! The paper extracts features from TVM tensor programs (TIR). This crate
//! provides the equivalent substrate built from scratch:
//!
//! * [`expr`]: leaf computation statements with symbolic memory accesses.
//! * [`ast`]: the loop-nest AST (Fig 1c), stored flat in its pre-order
//!   serialization (Fig 1d) that drives the compact-AST features, and read
//!   through borrowed leaf and node views.
//! * [`task`]: operator specs ([`OpSpec`]) and their canonical loop nests.
//! * [`schedule`]: Ansor-style schedule primitives (split / reorder /
//!   annotate), lowering, and a random schedule sampler.
//! * [`zoo`]: DNN architectures (ResNet, MobileNet, BERT, VGG, Inception…)
//!   as task DAGs for dataset generation and end-to-end replay.

pub mod ast;
pub mod expr;
pub mod schedule;
pub mod task;
pub mod zoo;

pub use ast::{
    AccessIter, AccessView, Accesses, AstNode, LeafView, LoopKind, LoopVar, NodeView, Nodes,
    SerEntry, TensorProgram,
};
pub use expr::{AxisId, Buffer, BufferId, ComputeKind, LeafStmt, MemAccess};
pub use schedule::{
    crossover_schedule, lower, mutate_schedule, sample_lowered, sample_schedule, Primitive,
    Schedule, ScheduleError,
};
pub use task::{AxisInfo, EwKind, Nest, OpSpec, Task};
pub use zoo::{
    all_networks, build_tasks, layer_task_ids, task_indices, LayerNode, Network, HOLD_OUT,
};
