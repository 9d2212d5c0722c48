//! Engine observability: lock-free failure/traffic counters.
//!
//! Every robustness path in the engine — admission control, deadline
//! shedding, worker supervision, hot swap, cost-model shedding — bumps a
//! counter here instead of writing to stderr. [`EngineStats`] is the
//! plain-data snapshot returned by `InferenceEngine::stats()` and printed
//! by the CLI.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared atomic counters (engine + workers hold an `Arc` each).
#[derive(Default)]
pub(crate) struct StatsInner {
    pub admitted: AtomicU64,
    pub rejected: AtomicU64,
    pub deadline_sheds: AtomicU64,
    pub worker_panics: AtomicU64,
    pub worker_restarts: AtomicU64,
    pub chunk_retries: AtomicU64,
    pub completed_chunks: AtomicU64,
    pub swaps: AtomicU64,
    pub class_demotions: AtomicU64,
    pub score_sheds: AtomicU64,
    pub queue_depth_hw: AtomicU64,
    pub predict_ns: AtomicU64,
    /// Chunks replayed on the calling thread. Not an [`EngineStats`] field
    /// (the benchmark builds that struct field by field); read through
    /// `InferenceEngine::caller_chunks`.
    pub caller_chunks: AtomicU64,
}

impl StatsInner {
    /// Raises the queue-depth high-water mark to at least `depth`.
    pub fn observe_depth(&self, depth: usize) {
        self.queue_depth_hw
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Counts one logical worker respawn.
    pub fn bump_restart(&self) {
        self.worker_restarts.fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self, queue_depth: usize) -> EngineStats {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        EngineStats {
            admitted: get(&self.admitted),
            rejected: get(&self.rejected),
            deadline_sheds: get(&self.deadline_sheds),
            worker_panics: get(&self.worker_panics),
            worker_restarts: get(&self.worker_restarts),
            chunk_retries: get(&self.chunk_retries),
            completed_chunks: get(&self.completed_chunks),
            swaps: get(&self.swaps),
            class_demotions: get(&self.class_demotions),
            score_sheds: get(&self.score_sheds),
            window_fill_flushes: 0,
            window_timer_flushes: 0,
            promotions: 0,
            queue_depth: queue_depth as u64,
            queue_depth_hw: get(&self.queue_depth_hw),
            parked: 0,
            predict_ns: get(&self.predict_ns),
        }
    }
}

/// A point-in-time snapshot of the engine's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Calls admitted past admission control.
    pub admitted: u64,
    /// Calls rejected with `EngineError::Overloaded` (real or injected).
    pub rejected: u64,
    /// Chunks (or whole calls) shed with `EngineError::DeadlineExceeded`
    /// before execution.
    pub deadline_sheds: u64,
    /// Panics caught by the supervisor (injected or real), in a worker or
    /// in a chunk its caller ran; the calling thread never unwinds.
    pub worker_panics: u64,
    /// Logical respawns (fresh replay state after a panic): a worker's, or
    /// the caller-side runner a caller-run chunk had borrowed. The pool
    /// returns to full strength after every one of these.
    pub worker_restarts: u64,
    /// Chunks re-dispatched after a worker panic (self-healing retries).
    pub chunk_retries: u64,
    /// Chunks executed to a successful reply.
    pub completed_chunks: u64,
    /// Live model hot-swaps (`swap_snapshot` / `swap_model`).
    pub swaps: u64,
    /// Engine batch classes (`1`, `max_batch`) that could not register
    /// on a served model because its class registry was full, one tick per
    /// class per model — that size is not folded before a hot swap
    /// publishes the model (it folds on first use instead) nor listed by a
    /// snapshot of it: a performance demotion, counted instead of warned
    /// about on stderr.
    pub class_demotions: u64,
    /// Candidates shed to `f32::INFINITY` scores by the `CostModel` path
    /// because the engine returned an error for them.
    pub score_sheds: u64,
    /// Retained for layout (callers build this struct field by field);
    /// always 0 — the engine has no batch window to flush.
    pub window_fill_flushes: u64,
    /// Retained for layout; always 0 — the engine has no batch window.
    pub window_timer_flushes: u64,
    /// Retained for layout; always 0 — the engine learns no batch classes
    /// from traffic.
    pub promotions: u64,
    /// Current submission-queue depth (chunks).
    pub queue_depth: u64,
    /// Highest queue depth observed since engine start.
    pub queue_depth_hw: u64,
    /// Retained for layout; always 0 — every chunk is replayed by its
    /// caller or queued, none is held back.
    pub parked: u64,
    /// Total predict time (the replay region, including injected
    /// faults), in nanoseconds — the engine's busy time. Covers chunks
    /// replayed by workers and by calling threads alike, so it can exceed
    /// wall time × workers.
    pub predict_ns: u64,
}

/// The live counters only: the fields retained for layout always read 0.
impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "admitted={} rejected={} deadline_sheds={} worker_panics={} \
             worker_restarts={} chunk_retries={} completed_chunks={} swaps={} \
             class_demotions={} score_sheds={} queue_depth={} \
             queue_depth_hw={} predict_ns={}",
            self.admitted,
            self.rejected,
            self.deadline_sheds,
            self.worker_panics,
            self.worker_restarts,
            self.chunk_retries,
            self.completed_chunks,
            self.swaps,
            self.class_demotions,
            self.score_sheds,
            self.queue_depth,
            self.queue_depth_hw,
            self.predict_ns
        )
    }
}
