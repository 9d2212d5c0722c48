//! Concurrent inference serving for the CDMPP cost model.
//!
//! The schedule-search and end-to-end-replay workloads score thousands of
//! candidate tensor programs per step. This crate is the production
//! ingress on top of the forward-only execution path (compiled inference
//! plans + Arc-shared weights):
//!
//! * [`InferenceEngine`] accepts *heterogeneous* prediction requests
//!   (arbitrary mixes of leaf counts), buckets them by leaf count through
//!   the one shared grouping policy (`cdmpp_core::batch::group_by_leaf_into`,
//!   writing into pooled scratch), cuts each bucket into dense
//!   `[B, L, N_ENTRY]` chunks by one rule ([`plan_chunks`]: `len /
//!   max_batch` full chunks plus one remainder), dispatches the chunks
//!   across a worker-thread pool, and returns predictions in request order.
//! * **Threads exist from the first queued chunk until shutdown.**
//!   [`InferenceEngine::new`] starts none. The workers (`cdmpp-worker-{i}`,
//!   the only threads an engine owns) are spawned once, by the first chunk
//!   that has to go through the queue — a call above one batch class, or a
//!   small call that found every caller-side runner lent out — and joined
//!   by [`InferenceEngine::shutdown`] / `Drop`. An engine that only ever
//!   answers small calls (a one-shot tool: snapshot file, one answer,
//!   exit) never creates a thread; [`InferenceEngine::worker_count`] is
//!   the configured pool size either way. A thread the OS refuses to
//!   start fails that call with [`EngineError::WorkersUnavailable`]; the
//!   workers that did start are kept and the next queued chunk starts the
//!   rest.
//! * **Bounded admission** (`ingress`): a capacity-limited submission
//!   queue with a typed [`EngineError::Overloaded`] rejection and an
//!   [`AdmissionPolicy`] knob — overload degrades to fast typed errors,
//!   never to unbounded memory growth.
//! * **Deadlines** ([`Deadline`] via [`SubmitOptions`]): expired chunks
//!   are shed *before* execution with [`EngineError::DeadlineExceeded`];
//!   results for the unexpired remainder are bit-identical to serial.
//! * **Worker supervision** (`supervisor`): a worker panic fails only
//!   the in-flight chunk ([`EngineError::WorkerPanicked`], transparently
//!   retried up to `EngineConfig::max_retries` times), the worker respawns
//!   in place, and the pool stays at full strength — the pool self-heals
//!   instead of draining to [`EngineError::WorkersUnavailable`].
//! * **Fault injection** ([`FaultPlan`], `CDMPP_FAULTS`): deterministic
//!   panics, artificial latency, and forced rejections at chosen dispatch
//!   points, so the robustness paths above are exercised by tests and CI.
//! * **Zero-downtime hot swap** ([`InferenceEngine::swap_snapshot`]):
//!   atomic replacement of the served model under live traffic — in-flight
//!   chunks finish on the old model, new admissions route to the new one,
//!   and a generation counter makes the cutover observable.
//! * **Caller-runs for small calls**: a call carrying no more samples than
//!   one batch class (`len <= max_batch`) is replayed by the thread that
//!   made it — its chunks go through the same job function the
//!   workers run (`supervisor::process_job`: deadline shed, fault sites,
//!   panic containment, accounting, exactly one reply) instead of through
//!   the queue, so a small request costs what serial replay costs and no
//!   thread is woken for it. The replay state for this is an engine
//!   resource bounded by the pool size: exactly one caller-side runner
//!   per worker exists, lent to one call at a time, and a call that finds
//!   none free is queued like any other. Those are a chunk's only two
//!   routes: nothing holds a chunk back to merge it with later calls'
//!   (README, "No batch window", has the measurement).
//!   [`InferenceEngine::caller_chunks`] counts the chunks run this way.
//! * Each chunk replays a **compiled inference plan** (`nn::plan`): a
//!   chunk of at most `cdmpp_core::DEFAULT_MAX_BATCH` samples replays the
//!   shape-final **fold** of its `(leaf count, size)`, which the served
//!   model builds the first time it sees that shape
//!   (`SharedPredictor::predict_planned`; the table is `max_leaves ×
//!   DEFAULT_MAX_BATCH` slots, so traffic cannot grow it past that). The
//!   engine's **batch classes** (`1`, `max_batch`, whatever a snapshot
//!   shipped) are the sizes a snapshot lists and a hot swap folds before
//!   it publishes. The batch-generic interpreter serves everything else:
//!   larger batches (library callers, an engine configured with
//!   `max_batch` above `DEFAULT_MAX_BATCH`), training, and recording-time
//!   validation. Nothing about this routing is configurable or learned
//!   from traffic.
//! * [`EngineCostModel`] puts the engine behind `cdmpp_core::CostModel`,
//!   so it drops into the schedule search as a faster scorer; scoring
//!   failures shed candidates to `INFINITY` ranks and count in
//!   [`EngineStats`] instead of aborting the search.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;

use cdmpp_core::batch::{build_scaled_batch_idx, group_by_leaf_into, LeafGroups, SampleLike};
use cdmpp_core::e2e::{encode_programs_into, EncodeArena};
use cdmpp_core::predictor::PredictError;
use cdmpp_core::{CostModel, InferenceModel, PlanRunner, TrainedModel};
use devsim::DeviceSpec;
use parallel::ThreadPool;
use tir::TensorProgram;

mod faults;
mod ingress;
mod stats;
mod supervisor;
mod swap;

pub use faults::FaultPlan;
pub use ingress::{AdmissionPolicy, Deadline, SubmitOptions};
pub use stats::EngineStats;
pub use swap::SnapshotWatcher;

use faults::FaultSite;
use ingress::{AdmitError, ChunkError, ChunkReply, Job, JobQueue, PushError, ReplyGuard};
use stats::StatsInner;
use swap::Served;

/// Errors from the serving engine.
#[derive(Debug)]
pub enum EngineError {
    /// A request failed inside the predictor (e.g. an unsupported leaf
    /// count — see `PredictError::LeafCountOutOfRange`).
    Predict(PredictError),
    /// There is no worker pool to serve the request: the engine is
    /// shutting down, or the OS refused to start a worker thread (the next
    /// call tries again).
    WorkersUnavailable,
    /// Admission control rejected the call: the submission queue held
    /// `depth` chunks against a capacity of `capacity` (and, under
    /// [`AdmissionPolicy::Block`], stayed saturated past the timeout).
    Overloaded {
        /// Queue depth observed at rejection.
        depth: usize,
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The request's [`Deadline`] expired before execution; the affected
    /// work was shed without being computed.
    DeadlineExceeded,
    /// A worker panicked while executing this request's chunk (after
    /// exhausting `EngineConfig::max_retries` re-dispatches). The worker
    /// respawned; the engine keeps serving.
    WorkerPanicked,
    /// A snapshot passed to [`InferenceEngine::swap_snapshot`] failed to
    /// decode or validate; the previously served model is untouched.
    Snapshot(cdmpp_core::SnapshotError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Predict(e) => write!(f, "prediction failed: {e}"),
            EngineError::WorkersUnavailable => write!(f, "inference worker pool unavailable"),
            EngineError::Overloaded { depth, capacity } => write!(
                f,
                "engine overloaded: submission queue at {depth}/{capacity} chunks"
            ),
            EngineError::DeadlineExceeded => write!(f, "request deadline expired before execution"),
            EngineError::WorkerPanicked => {
                write!(f, "worker panicked executing this chunk (pool self-healed)")
            }
            EngineError::Snapshot(e) => write!(f, "snapshot swap failed: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<PredictError> for EngineError {
    fn from(e: PredictError) -> Self {
        EngineError::Predict(e)
    }
}

/// Cuts one leaf bucket of `len` samples into dense chunks, as `(start,
/// end)` spans: `len / max_batch` full chunks plus at most one remainder.
/// This is the engine's one chunking rule — the dispatcher streams these
/// spans straight into its pooled scratch, and property tests drive the
/// same function.
pub fn plan_chunks(len: usize, max_batch: usize) -> impl Iterator<Item = (usize, usize)> {
    let mb = max_batch.max(1);
    (0..len)
        .step_by(mb)
        .map(move |start| (start, start + mb.min(len - start)))
}

/// Default bound on the submission queue, in chunks. Sized so a single
/// large call (hundreds of chunks) admits cleanly on an idle engine while
/// sustained multi-tenant overload still rejects fast.
pub const DEFAULT_QUEUE_CAPACITY: usize = 256;

/// Default per-chunk re-dispatch budget after a caught worker panic.
pub const DEFAULT_MAX_RETRIES: usize = 3;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads. `0` resolves via the `PARALLEL_THREADS` environment
    /// variable, then one per available CPU core (see
    /// [`parallel::resolve_threads`]).
    pub workers: usize,
    /// Largest dense batch dispatched to one worker — also the non-trivial
    /// batch class the engine registers on every model it serves (what a
    /// hot swap folds before publishing). Buckets bigger than this are
    /// split so they spread across the pool.
    pub max_batch: usize,
    /// Submission-queue capacity in chunks (`0` = unbounded, the seed
    /// engine's behavior). Admission control fires when a call arrives
    /// while the queue is at capacity.
    pub queue_capacity: usize,
    /// What happens to calls that arrive at a saturated queue.
    pub admission: AdmissionPolicy,
    /// How many times one chunk is transparently re-dispatched after a
    /// caught worker panic before [`EngineError::WorkerPanicked`] is
    /// surfaced. Retried chunks land on a respawned (healthy) worker;
    /// results are bit-identical to an undisturbed run.
    pub max_retries: usize,
    /// Fault-injection plan. `None` reads the `CDMPP_FAULTS` environment
    /// variable (empty plan when unset); tests pin `Some(plan)` to stay
    /// deterministic regardless of the environment.
    pub faults: Option<FaultPlan>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            max_batch: cdmpp_core::DEFAULT_MAX_BATCH,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            admission: AdmissionPolicy::Reject,
            max_retries: DEFAULT_MAX_RETRIES,
            faults: None,
        }
    }
}

impl EngineConfig {
    /// A single-worker configuration (useful as a baseline in benchmarks).
    pub fn single_worker() -> Self {
        EngineConfig {
            workers: 1,
            ..Default::default()
        }
    }

    fn resolved_workers(&self) -> usize {
        parallel::resolve_threads(self.workers)
    }
}

/// Reusable per-request dispatch state (index and per-chunk bookkeeping
/// buffers only — nothing borrows the request), pooled on the engine so
/// steady-state dispatch materializes no `Vec<Vec<usize>>` chunk lists and
/// no per-chunk sample-ref vectors.
#[derive(Default)]
struct DispatchScratch {
    groups: LeafGroups,
    /// `(start, end)` per chunk, indexing `groups.order`.
    chunks: Vec<(usize, usize)>,
    /// Each chunk's outcome once resolved (emptied by the scatter).
    results: Vec<Option<Result<Vec<f32>, ChunkError>>>,
    /// Re-dispatches made so far per chunk.
    attempts: Vec<usize>,
}

/// The threads an engine owns.
#[derive(Default)]
struct Pool {
    workers: Vec<JoinHandle<()>>,
    /// Set by `shutdown`: nothing is started afterwards.
    closed: bool,
}

/// Tops `handles` up to `want` threads through `spawn(index)`, stopping at
/// the first refusal: what did start stays in `handles`, and the next call
/// continues from there.
fn top_up(
    handles: &mut Vec<JoinHandle<()>>,
    want: usize,
    mut spawn: impl FnMut(usize) -> std::io::Result<JoinHandle<()>>,
) -> std::io::Result<()> {
    while handles.len() < want {
        handles.push(spawn(handles.len())?);
    }
    Ok(())
}

/// What every chunk of one call shares.
struct Call<'a, S> {
    enc: &'a [S],
    served: &'a Arc<Served>,
    opts: &'a SubmitOptions,
    reply_tx: std::sync::mpsc::Sender<ChunkReply>,
}

/// A concurrent, leaf-count-bucketed, failure-aware inference server for
/// one (hot-swappable) frozen model.
///
/// The engine is `Sync`: any number of application threads may call
/// [`InferenceEngine::predict_samples`] (or score programs through an
/// [`EngineCostModel`]) concurrently; their batches interleave across the
/// shared worker pool and each call gets its own results back in request
/// order. Every submitted call resolves to exactly one reply — a full
/// result set, per-sample typed errors (via
/// [`InferenceEngine::predict_samples_opts`]), or a call-level typed
/// error; no interleaving of overload, panics, deadlines, swap, and
/// shutdown can hang a caller or drop a request.
pub struct InferenceEngine {
    /// The served model + generation, swapped atomically under traffic.
    served: RwLock<Arc<Served>>,
    queue: Arc<JobQueue>,
    /// Empty until the first chunk that has to be queued (see
    /// `ensure_workers`); `workers_started` is that having happened, read
    /// without the lock from then on.
    workers: Mutex<Pool>,
    workers_started: AtomicBool,
    /// The configured pool size.
    n_workers: usize,
    /// Pooled dispatch scratch: concurrent `predict_samples` calls each
    /// take one set of index buffers and return it when done.
    scratch: Mutex<Vec<DispatchScratch>>,
    stats: Arc<StatsInner>,
    faults: FaultPlan,
    /// What `supervisor::process_job` needs when a calling thread runs its
    /// own chunks, and the replay state it borrows to do so: one runner
    /// per worker and never more (an unused runner owns no memory), so
    /// engine-held arenas and replays in flight outside the pool stay
    /// bounded however many threads call in.
    caller_ctx: supervisor::WorkerCtx,
    caller_runners: Mutex<Vec<PlanRunner>>,
    cfg: EngineConfig,
}

impl InferenceEngine {
    /// An engine serving `model` with the given configuration. No thread
    /// is started here: the pool is spawned by the first chunk that has to
    /// be queued (see the crate docs), so building an engine costs what its
    /// bookkeeping costs.
    ///
    /// The engine registers its batch classes (`1` and `max_batch`) on the
    /// model: the sizes a snapshot of it lists and a later hot swap
    /// prewarms. Folding itself needs no registration — every chunk of at
    /// most `DEFAULT_MAX_BATCH` samples replays a fold built on first use
    /// — so a class the model's registry has no room for only counts in
    /// `stats().class_demotions`.
    pub fn new(model: InferenceModel, cfg: EngineConfig) -> Self {
        let stats = Arc::new(StatsInner::default());
        swap::register_engine_classes(&model, cfg.max_batch, &stats);
        let faults = cfg.faults.clone().unwrap_or_else(FaultPlan::from_env);
        let queue = JobQueue::new(cfg.queue_capacity);
        let n_workers = cfg.resolved_workers();
        let caller_ctx = supervisor::WorkerCtx {
            queue: Arc::clone(&queue),
            stats: Arc::clone(&stats),
            faults: faults.clone(),
        };
        InferenceEngine {
            served: RwLock::new(Arc::new(Served {
                model: Arc::new(model),
                generation: 0,
            })),
            queue,
            workers: Mutex::new(Pool::default()),
            workers_started: AtomicBool::new(false),
            n_workers,
            scratch: Mutex::new(Vec::new()),
            stats,
            faults,
            caller_ctx,
            caller_runners: Mutex::new((0..n_workers).map(|_| PlanRunner::new()).collect()),
            cfg,
        }
    }

    /// Convenience: freeze a trained model and serve it.
    ///
    /// `freeze` copies the weights **once** into the served `Arc`; after
    /// that every worker, every engine clone of the model handle, and
    /// every frozen handle share the same allocation (no per-worker
    /// clones anywhere on the setup path — asserted by the weight-sharing
    /// regression test). Callers done with the trained model can avoid
    /// even that one copy via `TrainedModel::into_frozen` + [`InferenceEngine::new`].
    pub fn from_trained(model: &TrainedModel, cfg: EngineConfig) -> Self {
        Self::new(model.freeze(), cfg)
    }

    /// Cold start from a decoded snapshot: restores the model (weights
    /// moved — not copied — into the served `Arc`, plan cache seeded from
    /// the file's pre-fused plans) and builds the engine around it. With a
    /// full-plan snapshot the first answer comes with **zero** plan
    /// recording (`model().predictor.plan_compile_count()` stays 0) and,
    /// for a call of at most one batch class, without a thread started.
    pub fn from_snapshot(
        snap: &cdmpp_core::Snapshot,
        cfg: EngineConfig,
    ) -> Result<Self, cdmpp_core::SnapshotError> {
        Ok(Self::new(InferenceModel::from_snapshot(snap)?, cfg))
    }

    /// [`InferenceEngine::from_snapshot`] straight from a file path.
    pub fn from_snapshot_file(
        path: impl AsRef<std::path::Path>,
        cfg: EngineConfig,
    ) -> Result<Self, cdmpp_core::SnapshotError> {
        Ok(Self::new(InferenceModel::from_snapshot_file(path)?, cfg))
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The configured worker-pool size (0 after
    /// [`InferenceEngine::shutdown`]), whether or not the threads have been
    /// started yet. Worker panics do **not** shrink this: panicked workers
    /// respawn in place (see `EngineStats::worker_restarts`).
    pub fn worker_count(&self) -> usize {
        if self.pool().closed {
            0
        } else {
            self.n_workers
        }
    }

    fn pool(&self) -> std::sync::MutexGuard<'_, Pool> {
        // Every update of the pool (a handle pushed or taken, a flag set)
        // leaves it valid, so a poisoned lock is still good to use.
        self.workers.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Makes sure the threads that drain the queue are running; called
    /// before a job can reach it. Spawns them once (a load and nothing else
    /// afterwards), and nothing at all once `shutdown` has begun. `Err(())`
    /// — no pool to hand the job to — becomes the call's
    /// [`EngineError::WorkersUnavailable`].
    fn ensure_workers(&self) -> Result<(), ()> {
        // Acquire pairs with the Release store below: a caller that reads
        // `true` pushes into a queue the started workers already drain.
        if self.workers_started.load(Ordering::Acquire) {
            return Ok(());
        }
        let mut pool = self.pool();
        if pool.closed {
            return Err(());
        }
        top_up(&mut pool.workers, self.n_workers, |i| {
            let ctx = self.caller_ctx.clone();
            std::thread::Builder::new()
                .name(format!("cdmpp-worker-{i}"))
                .spawn(move || supervisor::supervised_worker(ctx))
        })
        .map_err(|_refused| ())?;
        self.workers_started.store(true, Ordering::Release);
        Ok(())
    }

    /// The model currently being served (the newest generation; requests
    /// in flight across a swap finish on the generation they captured).
    pub fn model(&self) -> Arc<InferenceModel> {
        Arc::clone(&self.served().model)
    }

    /// A snapshot of the engine's traffic/failure counters.
    pub fn stats(&self) -> EngineStats {
        self.stats.snapshot(self.queue.depth())
    }

    /// Chunks replayed on the calling thread instead of by a worker (see
    /// the crate docs: calls of at most `max_batch` samples).
    /// They count in `stats().completed_chunks` like any other chunk.
    pub fn caller_chunks(&self) -> u64 {
        self.stats.caller_chunks.load(Ordering::Relaxed)
    }

    pub(crate) fn served(&self) -> Arc<Served> {
        Arc::clone(&self.served.read().unwrap_or_else(|p| p.into_inner()))
    }

    pub(crate) fn served_slot(&self) -> &RwLock<Arc<Served>> {
        &self.served
    }

    pub(crate) fn stats_inner(&self) -> &StatsInner {
        &self.stats
    }

    /// Predicts latencies (seconds) for pre-encoded, unscaled samples.
    ///
    /// Requests may mix leaf counts arbitrarily; the engine groups them,
    /// dispatches dense batches across the pool, and returns one latency
    /// per input sample **in input order**. Unsupported leaf counts are
    /// rejected up front with the predictor's descriptive error; any
    /// chunk-level failure (deadline shed, post-retry worker panic) fails
    /// the whole call with its typed error — use
    /// [`InferenceEngine::predict_samples_opts`] for per-sample outcomes.
    ///
    /// The samples may be any [`SampleLike`] view: owned
    /// [`cdmpp_core::batch::EncodedSample`]s, the survivors of a filtered
    /// request stream by reference, or borrowed [`cdmpp_core::SampleRef`]s
    /// straight out of an encode slab (as [`EngineCostModel`] passes them)
    /// — no sample clones either way.
    pub fn predict_samples<S: SampleLike>(&self, enc: &[S]) -> Result<Vec<f64>, EngineError> {
        self.predict_samples_opts(enc, &SubmitOptions::default())?
            .into_iter()
            .collect()
    }

    /// Per-sample prediction with submission options (deadline). The outer
    /// `Result` covers call-level outcomes — validation, admission
    /// rejection ([`EngineError::Overloaded`]), pool shutdown; the inner
    /// per-sample `Result`s carry chunk-level outcomes — a latency, or a
    /// typed shed ([`EngineError::DeadlineExceeded`],
    /// [`EngineError::WorkerPanicked`]). Samples from unaffected chunks
    /// are bit-identical to a serial no-fault run.
    pub fn predict_samples_opts<S: SampleLike>(
        &self,
        enc: &[S],
        opts: &SubmitOptions,
    ) -> Result<Vec<Result<f64, EngineError>>, EngineError> {
        if enc.is_empty() {
            return Ok(Vec::new());
        }
        // Capture ONE model generation for the whole call: validation,
        // scaling, replay, and inverse transform all use it, so a hot swap
        // mid-call can never serve a torn mix of models.
        let served = self.served();
        // Validate before dispatch so the caller gets the descriptive
        // error immediately rather than a poisoned batch result.
        let max_leaves = served.model.predictor.config().max_leaves;
        for s in enc {
            if s.leaf_count() == 0 || s.leaf_count() > max_leaves {
                return Err(PredictError::LeafCountOutOfRange {
                    leaves: s.leaf_count(),
                    max_leaves,
                }
                .into());
            }
        }
        // A deadline that is already gone sheds the whole call before it
        // touches the queue.
        if opts.deadline.is_some_and(|d| d.expired()) {
            self.stats.deadline_sheds.fetch_add(1, Ordering::Relaxed);
            return Err(EngineError::DeadlineExceeded);
        }
        // Fault injection at the admission site: artificial caller-side
        // latency and forced rejections (simulated saturation).
        let fired = self.faults.at(FaultSite::Admit);
        if fired.delay_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(fired.delay_ms));
        }
        if fired.reject {
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(EngineError::Overloaded {
                depth: self.queue.depth(),
                capacity: self.cfg.queue_capacity,
            });
        }
        // Admission control: one check per call, before any chunk exists.
        match self.queue.admit(self.cfg.admission, opts.deadline) {
            Ok(()) => {
                self.stats.admitted.fetch_add(1, Ordering::Relaxed);
            }
            Err(AdmitError::Overloaded { depth, capacity }) => {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(EngineError::Overloaded { depth, capacity });
            }
            Err(AdmitError::DeadlineExceeded) => {
                self.stats.deadline_sheds.fetch_add(1, Ordering::Relaxed);
                return Err(EngineError::DeadlineExceeded);
            }
            Err(AdmitError::Closed) => return Err(EngineError::WorkersUnavailable),
        }
        let mut scratch = {
            let mut pool = self
                .scratch
                .lock()
                .map_err(|_| EngineError::WorkersUnavailable)?;
            pool.pop().unwrap_or_default()
        };
        // Who runs the chunks: a call with no more samples than one batch
        // class is less work than the single chunk a worker would replay
        // anyway, so waking workers for it costs more than it spreads —
        // the calling thread replays it, if a caller-side runner is free.
        let mut runner = if enc.len() <= self.cfg.max_batch {
            self.caller_runners
                .lock()
                .ok()
                .and_then(|mut free| free.pop())
        } else {
            None
        };
        let result = self.dispatch_and_collect(enc, &served, opts, &mut scratch, runner.as_mut());
        // The scratch and the runner go back to their pools on *every*
        // outcome — an error (worker failure, shutdown race) must not
        // throw the warmed buffers away and quietly re-establish
        // per-request allocation.
        if let (Some(runner), Ok(mut free)) = (runner, self.caller_runners.lock()) {
            free.push(runner);
        }
        if let Ok(mut pool) = self.scratch.lock() {
            pool.push(scratch);
        }
        result
    }

    /// The fallible middle of [`InferenceEngine::predict_samples_opts`]:
    /// plan chunks into `scratch`, dispatch, collect (retrying panicked
    /// chunks), scatter per-sample outcomes.
    fn dispatch_and_collect<S: SampleLike>(
        &self,
        enc: &[S],
        served: &Arc<Served>,
        opts: &SubmitOptions,
        scratch: &mut DispatchScratch,
        mut runner: Option<&mut PlanRunner>,
    ) -> Result<Vec<Result<f64, EngineError>>, EngineError> {
        let (reply_tx, reply_rx) = channel::<ChunkReply>();
        let call = Call {
            enc,
            served,
            opts,
            reply_tx,
        };
        group_by_leaf_into(enc, &mut scratch.groups);
        scratch.chunks.clear();
        {
            let chunks = &mut scratch.chunks;
            for &(_, gs, ge) in &scratch.groups.spans {
                chunks.extend(
                    plan_chunks(ge - gs, self.cfg.max_batch).map(|(s, e)| (gs + s, gs + e)),
                );
            }
        }
        let n_chunks = scratch.chunks.len();
        scratch.results.clear();
        scratch.results.resize_with(n_chunks, || None);
        scratch.attempts.clear();
        scratch.attempts.resize(n_chunks, 0);
        // Dispatch every chunk once. Expired chunks reply immediately
        // through their guard (shed before any batch is built); push
        // failures hand the job back so the right typed reply is sent.
        for tag in 0..n_chunks {
            self.send_chunk(&call, scratch, tag, runner.as_deref_mut())
                .map_err(|_closed| EngineError::WorkersUnavailable)?;
        }
        // Collect: every dispatched chunk resolves through the reply
        // channel exactly once (the ReplyGuard guarantees a reply even
        // across panics and queue teardown). Panicked chunks re-dispatch
        // onto a respawned worker up to `max_retries` times. (Chunks the
        // caller ran itself have already replied by now.)
        let mut resolved = 0usize;
        while resolved < n_chunks {
            let (tag, res) = reply_rx
                .recv()
                .map_err(|_| EngineError::WorkersUnavailable)?;
            if scratch.results[tag].is_some() {
                continue; // stale duplicate (defensive; guards prevent it)
            }
            if matches!(res, Err(ChunkError::Panicked))
                && scratch.attempts[tag] < self.cfg.max_retries
                && !opts.deadline.is_some_and(|d| d.expired())
            {
                scratch.attempts[tag] += 1;
                self.stats.chunk_retries.fetch_add(1, Ordering::Relaxed);
                self.send_chunk(&call, scratch, tag, runner.as_deref_mut())
                    .map_err(|_closed| EngineError::WorkersUnavailable)?;
                continue;
            }
            scratch.results[tag] = Some(res);
            resolved += 1;
        }
        // Scatter chunk outcomes back to request order.
        let mut out: Vec<Result<f64, EngineError>> = Vec::new();
        out.resize_with(enc.len(), || Ok(0.0));
        for (tag, res) in scratch.results.drain(..).enumerate() {
            let (s, e) = scratch.chunks[tag];
            let idxs = &scratch.groups.order[s..e];
            match res.expect("all chunks resolved") {
                Ok(preds) => {
                    for (&i, &p) in idxs.iter().zip(preds.iter()) {
                        out[i] = Ok(served.model.inverse_transform(p));
                    }
                }
                Err(err) => {
                    for &i in idxs {
                        out[i] = Err(match &err {
                            ChunkError::Predict(pe) => EngineError::Predict(pe.clone()),
                            ChunkError::DeadlineExceeded => EngineError::DeadlineExceeded,
                            ChunkError::Panicked => EngineError::WorkerPanicked,
                        });
                    }
                }
            }
        }
        Ok(out)
    }

    /// Builds one chunk and enqueues it — or, given a caller-side `runner`,
    /// executes it here — or sheds it on an expired deadline. Every path
    /// delivers exactly one reply for `tag` through the channel. Returns
    /// `Err(())` only when there is no pool to take it (closing, or its
    /// threads could not be started).
    fn send_chunk<S: SampleLike>(
        &self,
        call: &Call<'_, S>,
        scratch: &DispatchScratch,
        tag: usize,
        runner: Option<&mut PlanRunner>,
    ) -> Result<(), ()> {
        let (enc, served, opts) = (call.enc, call.served, call.opts);
        let reply = ReplyGuard::new(tag, call.reply_tx.clone());
        if opts.deadline.is_some_and(|d| d.expired()) {
            self.stats.deadline_sheds.fetch_add(1, Ordering::Relaxed);
            reply.send(Err(ChunkError::DeadlineExceeded));
            return Ok(());
        }
        // Without a caller-side runner the chunk is about to be queued.
        if runner.is_none() {
            self.ensure_workers()?;
        }
        let (s, e) = scratch.chunks[tag];
        let idxs = &scratch.groups.order[s..e];
        let batch = build_scaled_batch_idx(enc, idxs, &served.model.scaler);
        let job = Job {
            x: batch.x,
            dev: batch.dev,
            deadline: opts.deadline,
            served: Arc::clone(served),
            reply,
        };
        if let Some(runner) = runner {
            self.stats.caller_chunks.fetch_add(1, Ordering::Relaxed);
            supervisor::process_job(&self.caller_ctx, runner, job);
            return Ok(());
        }
        match self.queue.push(job) {
            Ok(depth) => {
                self.stats.observe_depth(depth);
                Ok(())
            }
            Err((PushError::DeadlineExceeded, job)) => {
                self.stats.deadline_sheds.fetch_add(1, Ordering::Relaxed);
                job.reply.send(Err(ChunkError::DeadlineExceeded));
                Ok(())
            }
            Err((PushError::Closed, _job)) => Err(()),
        }
    }
}

impl InferenceEngine {
    /// Gracefully stops the worker pool: refuses new requests, lets
    /// requests already queued drain, then joins every worker. On an
    /// engine whose pool was never started this only closes the queue.
    /// Requests arriving after (or racing) the shutdown surface
    /// [`EngineError::WorkersUnavailable`] instead of hanging.
    pub fn shutdown(&self) {
        // `closed` goes up under the lock `ensure_workers` spawns under:
        // a first fan-out racing this either finished spawning (its
        // threads are joined below) or starts nothing.
        self.pool().closed = true;
        self.queue.close();
        let drained = std::mem::take(&mut self.pool().workers);
        for w in drained {
            let _ = w.join();
        }
    }
}

impl Drop for InferenceEngine {
    fn drop(&mut self) {
        // No thread outlives the engine.
        self.shutdown();
    }
}

/// Cumulative `EngineCostModel` timing breakdown, in nanoseconds, plus the
/// number of candidates that received a finite score. `predict_ns` (worker
/// busy time inside `dispatch_ns`) lives in [`EngineStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScoreTimings {
    /// Time spent encoding candidate programs into the pooled arena.
    pub encode_ns: u64,
    /// Wall time of engine dispatch (submit + worker replay + collect).
    pub dispatch_ns: u64,
    /// Candidates that came back with a finite score.
    pub scored: u64,
}

/// The search-scale scoring front end: encodes candidate programs into a
/// pooled [`EncodeArena`] (zero steady-state allocation) on a dedicated
/// encode pool, then dispatches borrowed [`cdmpp_core::SampleRef`] views
/// through [`InferenceEngine::predict_samples_opts`] — leaf bucketing,
/// chunking and caller-runs or queued replay as for any other call, no
/// per-candidate sample clones.
///
/// The arena's slabs are reused round over round. One `EngineCostModel`
/// serializes its own `score_batch` calls (the arena is a single scratch
/// buffer); the engine underneath still fans each round's chunks across
/// the worker pool.
pub struct EngineCostModel {
    engine: Arc<InferenceEngine>,
    pool: ThreadPool,
    arena: Mutex<EncodeArena>,
    encode_ns: std::sync::atomic::AtomicU64,
    dispatch_ns: std::sync::atomic::AtomicU64,
    scored: std::sync::atomic::AtomicU64,
}

impl EngineCostModel {
    /// Wraps `engine` with an encode pool of `encode_threads` threads
    /// (0 = `PARALLEL_THREADS` / available parallelism). Encoding is
    /// bit-identical for any thread count.
    pub fn new(engine: Arc<InferenceEngine>, encode_threads: usize) -> EngineCostModel {
        EngineCostModel {
            engine,
            pool: ThreadPool::new(parallel::resolve_threads(encode_threads)),
            arena: Mutex::new(EncodeArena::new()),
            encode_ns: std::sync::atomic::AtomicU64::new(0),
            dispatch_ns: std::sync::atomic::AtomicU64::new(0),
            scored: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The engine this cost model scores through.
    pub fn engine(&self) -> &InferenceEngine {
        &self.engine
    }

    /// Cumulative encode/dispatch timing breakdown since construction.
    pub fn timings(&self) -> ScoreTimings {
        ScoreTimings {
            encode_ns: self.encode_ns.load(Ordering::Relaxed),
            dispatch_ns: self.dispatch_ns.load(Ordering::Relaxed),
            scored: self.scored.load(Ordering::Relaxed),
        }
    }

    /// Buffer-growth events inside the encode arena (0 growth across a
    /// round = the round allocated nothing).
    pub fn arena_growth(&self) -> usize {
        self.arena
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .growth_count()
    }
}

impl CostModel for EngineCostModel {
    fn score(&self, prog: &TensorProgram, dev: &DeviceSpec) -> f64 {
        self.score_batch(&[prog], dev)[0]
    }

    fn score_batch(&self, progs: &[&TensorProgram], dev: &DeviceSpec) -> Vec<f64> {
        let served = self.engine.served();
        let max_leaves = served.model.predictor.config().max_leaves;
        let mut out = vec![f64::INFINITY; progs.len()];
        if progs.is_empty() {
            return out;
        }
        // The arena stays locked across the dispatch: the SampleRefs
        // borrow its slab. Scoring through one EngineCostModel is
        // serialized; parallelism lives in the encode pool and the
        // engine's workers.
        let mut arena = self.arena.lock().unwrap_or_else(|p| p.into_inner());
        let t0 = std::time::Instant::now();
        encode_programs_into(
            progs,
            dev,
            served.model.predictor.config().theta,
            served.model.use_pe,
            &self.pool,
            &mut arena,
        );
        self.encode_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        // `CostModel` has no error channel; the established convention is
        // that an unscorable candidate ranks as INFINITY (matching the
        // TrainedModel cost model). Invalid leaf counts rank only that
        // candidate INFINITY; engine failures — overload, shutdown, a
        // post-retry worker panic, a deadline shed — shed the affected
        // candidates to INFINITY and count in `stats().score_sheds`,
        // instead of panicking the search process.
        let valid: Vec<cdmpp_core::SampleRef<'_>> = arena
            .samples()
            .filter(|s| (1..=max_leaves).contains(&s.leaf_count))
            .collect();
        let t1 = std::time::Instant::now();
        let res = self
            .engine
            .predict_samples_opts(&valid, &SubmitOptions::default());
        self.dispatch_ns
            .fetch_add(t1.elapsed().as_nanos() as u64, Ordering::Relaxed);
        // A call-level failure sheds every valid candidate.
        let per = res.unwrap_or_default();
        let mut scored = 0;
        for (s, p) in valid.iter().zip(&per) {
            if let Ok(p) = p {
                out[s.record_idx] = *p;
                scored += 1;
            }
        }
        self.scored.fetch_add(scored, Ordering::Relaxed);
        let shed = valid.len() as u64 - scored;
        let sheds = &self.engine.stats_inner().score_sheds;
        sheds.fetch_add(shed, Ordering::Relaxed);
        out
    }
}

/// End-to-end network latency prediction served by the engine.
///
/// Mirrors `cdmpp_core::e2e::end_to_end` but scores the per-task tensor
/// programs through the engine's worker pool (the `cdmpp` CLI's serving
/// path), and surfaces engine errors instead of NaN-ing predictions.
pub fn end_to_end(
    engine: &InferenceEngine,
    net: &tir::Network,
    dev: &DeviceSpec,
    seed: u64,
) -> Result<cdmpp_core::E2eResult, EngineError> {
    end_to_end_opts(engine, net, dev, seed, &SubmitOptions::default())
}

/// [`end_to_end`] with submission options (deadline). Replay needs every
/// task's score, so any per-task shed fails the whole prediction with its
/// typed error.
pub fn end_to_end_opts(
    engine: &InferenceEngine,
    net: &tir::Network,
    dev: &DeviceSpec,
    seed: u64,
    opts: &SubmitOptions,
) -> Result<cdmpp_core::E2eResult, EngineError> {
    let (theta, use_pe) = {
        let served = engine.served();
        (served.model.predictor.config().theta, served.model.use_pe)
    };
    cdmpp_core::predict_network(net, dev, seed, theta, use_pe, |enc| {
        engine
            .predict_samples_opts(enc, opts)?
            .into_iter()
            .collect::<Result<Vec<f64>, _>>()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdmpp_core::batch::EncodedSample;
    use cdmpp_core::PredictorConfig;
    use features::{N_DEVICE_FEATURES, N_ENTRY};

    fn sample(leaves: usize, seed: usize) -> EncodedSample {
        EncodedSample {
            record_idx: seed,
            leaf_count: leaves,
            x: (0..leaves * N_ENTRY)
                .map(|i| ((i + seed) as f32 * 0.173).sin())
                .collect(),
            dev: [0.3; N_DEVICE_FEATURES],
            y_raw: 1e-3,
        }
    }

    fn untrained_model() -> InferenceModel {
        use cdmpp_core::batch::FeatScaler;
        use learn::TransformKind;
        let model = TrainedModel {
            predictor: cdmpp_core::Predictor::new(PredictorConfig::default()),
            transform: TransformKind::None.fit(&[1.0, 2.0, 3.0]),
            scaler: FeatScaler::identity(),
            use_pe: true,
            train_config: cdmpp_core::TrainConfig::default(),
        };
        model.freeze()
    }

    fn engine(workers: usize) -> InferenceEngine {
        InferenceEngine::new(
            untrained_model(),
            EngineConfig {
                workers,
                max_batch: 8,
                faults: Some(FaultPlan::none()),
                ..Default::default()
            },
        )
    }

    #[test]
    fn heterogeneous_requests_come_back_in_order() {
        let eng = engine(3);
        // Interleave leaf counts so bucketing must reorder internally.
        let enc: Vec<EncodedSample> = (0..40).map(|i| sample(1 + (i % 5), i)).collect();
        let got = eng.predict_samples(&enc).unwrap();
        assert_eq!(got.len(), enc.len());
        // Reference: serial single-threaded path over the same samples.
        let want = eng.model().predict_samples(&enc).unwrap();
        assert_eq!(got, want, "engine must preserve request order exactly");
    }

    #[test]
    fn oversized_leaf_count_is_rejected_descriptively() {
        let eng = engine(1);
        let enc = vec![sample(3, 0), sample(99, 1)];
        let err = eng.predict_samples(&enc).unwrap_err();
        match err {
            EngineError::Predict(PredictError::LeafCountOutOfRange { leaves, max_leaves }) => {
                assert_eq!(leaves, 99);
                assert_eq!(max_leaves, 8);
            }
            other => panic!("expected leaf-count error, got {other:?}"),
        }
    }

    #[test]
    fn empty_request_is_fine() {
        let eng = engine(2);
        assert!(eng
            .predict_samples::<EncodedSample>(&[])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn worker_count_resolution() {
        let eng = engine(2);
        assert_eq!(eng.worker_count(), 2);
        let auto = engine(0);
        assert!(auto.worker_count() >= 1);
    }

    #[test]
    fn a_refused_spawn_keeps_what_started_and_the_next_try_starts_the_rest() {
        // The OS refuses the third thread once (`EAGAIN`).
        let mut refusals = 1;
        let mut asked = Vec::new();
        let mut spawn = |i: usize| {
            asked.push(i);
            if i == 2 && refusals > 0 {
                refusals -= 1;
                return Err(std::io::Error::from(std::io::ErrorKind::WouldBlock));
            }
            std::thread::Builder::new().spawn(|| {})
        };
        let mut handles = Vec::new();
        let refused = top_up(&mut handles, 4, &mut spawn).unwrap_err();
        assert_eq!(refused.kind(), std::io::ErrorKind::WouldBlock);
        assert_eq!(handles.len(), 2, "the two that started are kept");
        top_up(&mut handles, 4, &mut spawn).unwrap();
        assert_eq!(handles.len(), 4);
        top_up(&mut handles, 4, &mut spawn).unwrap();
        assert_eq!(asked, [0, 1, 2, 2, 3], "a full pool asks for nothing");
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn engine_is_shareable_across_threads() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<InferenceEngine>();
    }

    #[test]
    fn stats_count_admissions() {
        let eng = engine(2);
        let enc: Vec<EncodedSample> = (0..20).map(|i| sample(1 + (i % 3), i)).collect();
        eng.predict_samples(&enc).unwrap();
        eng.predict_samples(&enc).unwrap();
        let s = eng.stats();
        assert_eq!(s.admitted, 2);
        assert_eq!(s.rejected, 0);
        assert!(s.completed_chunks > 0);
        assert!(s.queue_depth_hw >= 1);
        assert_eq!(s.queue_depth, 0, "queue drains between calls");
    }

    #[test]
    fn expired_deadline_sheds_whole_call_before_dispatch() {
        let eng = engine(1);
        let enc: Vec<EncodedSample> = (0..4).map(|i| sample(2, i)).collect();
        let opts = SubmitOptions {
            deadline: Some(Deadline::at(std::time::Instant::now())),
        };
        match eng.predict_samples_opts(&enc, &opts) {
            Err(EngineError::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(eng.stats().deadline_sheds >= 1);
        // A deadline-free follow-up is unaffected.
        assert!(eng.predict_samples(&enc).is_ok());
    }
}
