//! Zero-downtime model hot swap.
//!
//! The engine serves an [`Arc<Served>`] — the frozen model plus a
//! generation counter. Every call captures the current `Arc` once at
//! admission and threads it through its jobs, so a swap is a single
//! atomic pointer replacement with a clean cutover contract:
//!
//! * **in-flight chunks finish on the old model** (their jobs hold the old
//!   `Arc`; it stays alive until the last of them drops it),
//! * **new admissions route to the new model** (they capture the new
//!   `Arc`),
//! * no request is ever lost, split across models, or served a torn mix.
//!
//! The new model is *prewarmed* before it is published — batch classes
//! registered, their folds built, weight panels prepacked
//! (`SharedPredictor::prewarm_classes`) — so the cutover never pays
//! first-use folding on the engine's stable chunk sizes. A validation failure (hostile snapshot,
//! plan error) surfaces as a typed error and leaves the old model serving,
//! untouched.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use cdmpp_core::InferenceModel;

use crate::stats::StatsInner;
use crate::{EngineError, InferenceEngine};

/// One published model generation. Jobs hold an `Arc<Served>`, pinning the
/// model they were admitted under.
pub(crate) struct Served {
    pub model: Arc<InferenceModel>,
    pub generation: u64,
}

/// Registers the engine's batch classes — `1` and `max_batch` — on a
/// model about to be served. A class the model's registry has no room for
/// (e.g. a snapshot that shipped `MAX_BATCH_CLASSES` of its own) is one
/// `class_demotions` tick: chunks of that size fold on first use instead
/// of before publication — a performance loss worth counting, never a
/// correctness one — and every class that did register is untouched.
pub(crate) fn register_engine_classes(
    model: &InferenceModel,
    max_batch: usize,
    stats: &StatsInner,
) {
    let max_batch = max_batch.max(1);
    for class in std::iter::once(1).chain((max_batch > 1).then_some(max_batch)) {
        if !model.predictor.register_batch_class(class) {
            stats.class_demotions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl InferenceEngine {
    /// The generation counter of the currently served model: starts at 0,
    /// +1 per successful swap. Makes cutovers observable — a caller that
    /// records the generation before and after a request can tell which
    /// side of a swap it landed on.
    pub fn generation(&self) -> u64 {
        self.served().generation
    }

    /// Atomically replaces the served model under live traffic. The new
    /// model is prewarmed (classes registered, specialized plans folded)
    /// *before* publication; in-flight chunks finish on the old model, new
    /// admissions see the new one. Returns the new generation.
    ///
    /// Swapping is independent of the worker pool's lifecycle: a swap
    /// racing `shutdown` publishes fine (there is just no traffic left to
    /// serve it to), and neither call can deadlock the other.
    pub fn swap_model(&self, model: InferenceModel) -> Result<u64, EngineError> {
        // Fold first: a model that fails to prewarm is never published
        // and must not count a demotion.
        let max_batch = self.config().max_batch;
        model
            .predictor
            .prewarm_classes(&[1, max_batch.max(1)])
            .map_err(EngineError::Predict)?;
        register_engine_classes(&model, max_batch, self.stats_inner());
        let generation = {
            let mut served = self
                .served_slot()
                .write()
                .unwrap_or_else(|p| p.into_inner());
            let generation = served.generation + 1;
            *served = Arc::new(Served {
                model: Arc::new(model),
                generation,
            });
            generation
        };
        self.stats_inner().swaps.fetch_add(1, Ordering::Relaxed);
        Ok(generation)
    }

    /// [`InferenceEngine::swap_model`] from a snapshot file: decode +
    /// validate + prewarm first, publish only on success. A bad file
    /// (truncated, hostile, wrong version) is a typed error and leaves the
    /// current model serving.
    pub fn swap_snapshot(&self, path: impl AsRef<std::path::Path>) -> Result<u64, EngineError> {
        let model = InferenceModel::from_snapshot_file(path).map_err(EngineError::Snapshot)?;
        self.swap_model(model)
    }
}

/// Polls a snapshot file for changes and hot-swaps the engine when it is
/// rewritten — the `serve --watch` loop, factored out so its edge cases
/// are testable:
///
/// * change detection compares **`(mtime, len)`**, not mtime alone — a
///   same-size-different-content rewrite within the filesystem's mtime
///   granularity would otherwise be missed, and a length change with a
///   clock-skewed mtime would too;
/// * the watched state advances **only after a successful swap** — a
///   half-written file that fails to decode is retried on the next poll
///   (instead of being recorded as "seen" and the final write missed);
/// * a transient `stat` failure (file briefly absent mid-rewrite) is a
///   no-op, not a forgotten state — recovery with unchanged `(mtime, len)`
///   does not re-trigger a swap.
pub struct SnapshotWatcher {
    path: std::path::PathBuf,
    /// `(mtime, len)` of the last successfully swapped snapshot; `None`
    /// until the first successful swap through this watcher.
    state: Option<(std::time::SystemTime, u64)>,
}

impl SnapshotWatcher {
    /// Watches `path`, treating its current `(mtime, len)` as already
    /// served (the caller typically just loaded the engine from it).
    pub fn new(path: impl Into<std::path::PathBuf>) -> SnapshotWatcher {
        let path = path.into();
        let state = Self::probe(&path);
        SnapshotWatcher { path, state }
    }

    /// The watched path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    fn probe(path: &std::path::Path) -> Option<(std::time::SystemTime, u64)> {
        let meta = std::fs::metadata(path).ok()?;
        Some((meta.modified().ok()?, meta.len()))
    }

    /// One poll: returns `None` when the file is unchanged (or
    /// transiently unreadable), otherwise the result of attempting the
    /// swap. On `Some(Err(_))` the watched state is **not** advanced — the
    /// next poll retries, so a half-written file converges to a swap once
    /// the writer finishes.
    pub fn poll(&mut self, engine: &InferenceEngine) -> Option<Result<u64, EngineError>> {
        let current = Self::probe(&self.path)?;
        if Some(current) == self.state {
            return None;
        }
        let res = engine.swap_snapshot(&self.path);
        if res.is_ok() {
            self.state = Some(current);
        }
        Some(res)
    }
}
