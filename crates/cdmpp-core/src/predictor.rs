//! The CDMPP predictor (Fig 4).
//!
//! Input: compact-AST leaf vectors with positional encoding `[B, L, N_ENTRY]`
//! plus device feature rows `[B, N_DEV]`. Pipeline:
//!
//! 1. linear input projection to `d_model`,
//! 2. Transformer encoder over the leaf sequence,
//! 3. a **leaf-count-specific** linear embedding layer mapping the flattened
//!    `[L × d_model]` encoder output to a fixed `d_emb` (one linear layer per
//!    leaf count — the paper's alternative to padding),
//! 4. a device MLP producing `z_v`,
//! 5. `z = tanh(z_x ⊕ z_v)` — the latent representation used for CMD
//!    regularization and the Algorithm-1 sampler (tanh bounds the support
//!    so the CMD normalization constant is well-defined),
//! 6. an MLP decoder producing the (Box-Cox-space) latency prediction.
//!
//! ## Execution model
//!
//! The model *definition* (`Arch`, internal) is decoupled from
//! *execution*: [`Predictor::forward`] is generic over [`nn::Exec`], so the
//! same definition runs eagerly on the autodiff tape ([`nn::Graph`]) and is
//! recorded into compiled plans. The eager entry points
//! ([`Predictor::predict_batch`], [`Predictor::latent_batch`],
//! [`SharedPredictor::predict_batch`]) run on the tape: they are the
//! reference every plan and fold is held to bit for bit, not a serving
//! path. Serving replays compiled plans ([`SharedPredictor::predict_planned`])
//! from a [`SharedPredictor`], a cheap-clone handle holding the frozen
//! weights behind an `Arc`.

use std::sync::{Arc, Mutex, OnceLock, RwLock};

use nn::plan::{Plan, PlanError, PlanExec, Recorder, SpecializedPlan, WeightPackCache};
use nn::{Exec, Graph, Init, Linear, Mlp, ParamStore, TrainPlan, TransformerEncoder, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::{QuantMode, Tensor, TensorError};

use features::{N_DEVICE_FEATURES, N_ENTRY};

/// Errors from predictor execution.
#[derive(Debug, Clone, PartialEq)]
pub enum PredictError {
    /// A batch's leaf count has no dedicated embedding layer. The predictor
    /// owns one linear layer per leaf count in `1..=max_leaves`; routing a
    /// larger (or zero) count through a neighbouring layer would silently
    /// produce garbage, so it is rejected up front.
    LeafCountOutOfRange {
        /// The offending leaf count `L` of the batch.
        leaves: usize,
        /// The configured maximum (`PredictorConfig::max_leaves`).
        max_leaves: usize,
    },
    /// An underlying tensor operation failed (shape/rank mismatch).
    Tensor(TensorError),
    /// Compiling or replaying an inference plan failed.
    Plan(PlanError),
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::LeafCountOutOfRange { leaves, max_leaves } => write!(
                f,
                "no embedding layer for leaf count {leaves}: this predictor was built with \
                 max_leaves = {max_leaves} (valid range 1..={max_leaves}); rebuild with a larger \
                 `PredictorConfig::max_leaves` or filter the offending programs"
            ),
            PredictError::Tensor(e) => write!(f, "tensor operation failed: {e}"),
            PredictError::Plan(e) => write!(f, "inference plan failed: {e}"),
        }
    }
}

impl std::error::Error for PredictError {}

impl From<TensorError> for PredictError {
    fn from(e: TensorError) -> Self {
        PredictError::Tensor(e)
    }
}

impl From<PlanError> for PredictError {
    fn from(e: PlanError) -> Self {
        PredictError::Plan(e)
    }
}

/// Result alias for predictor execution.
pub type PredictResult<T> = std::result::Result<T, PredictError>;

/// Architecture hyper-parameters (the auto-tuner's search space, Table 6
/// scaled to CPU training). Serializable: snapshots persist the config so
/// a loaded model rebuilds the exact same architecture.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PredictorConfig {
    /// Transformer model width.
    pub d_model: usize,
    /// Number of Transformer encoder layers.
    pub n_layers: usize,
    /// Attention heads.
    pub heads: usize,
    /// Feed-forward hidden width.
    pub d_ff: usize,
    /// Device-independent embedding width (`z_x`).
    pub d_emb: usize,
    /// Device embedding width (`z_v`).
    pub d_dev: usize,
    /// Decoder hidden width.
    pub dec_hidden: usize,
    /// Number of decoder hidden layers.
    pub dec_layers: usize,
    /// Maximum leaf count supported (one embedding layer per count).
    pub max_leaves: usize,
    /// Positional-encoding Θ.
    pub theta: f32,
    /// Parameter-init seed.
    pub seed: u64,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            d_model: 32,
            n_layers: 2,
            heads: 2,
            d_ff: 64,
            d_emb: 24,
            d_dev: 8,
            dec_hidden: 32,
            dec_layers: 2,
            max_leaves: 8,
            theta: features::DEFAULT_THETA,
            seed: 0,
        }
    }
}

impl PredictorConfig {
    /// The error for a leaf count with no embedding layer.
    fn leaf_error(&self, leaves: usize) -> PredictError {
        PredictError::LeafCountOutOfRange {
            leaves,
            max_leaves: self.max_leaves,
        }
    }
}

/// Output handles of one forward pass.
pub struct ForwardOut {
    /// The latent representation `z` (`[B, d_emb + d_dev]`, tanh-bounded).
    pub latent: Var,
    /// The prediction `[B, 1]` in transformed label space.
    pub pred: Var,
}

/// The model definition: layer handles into a parameter store. Cloning is
/// cheap (ids only); the weights live in whichever store executes it.
#[derive(Clone)]
struct Arch {
    input_proj: Linear,
    encoder: TransformerEncoder,
    leaf_embed: Vec<Linear>,
    dev_mlp: Mlp,
    decoder: Mlp,
}

impl Arch {
    fn new(store: &mut ParamStore, cfg: &PredictorConfig, init: &mut impl Init) -> Self {
        let input_proj = Linear::new(store, init, "input_proj", N_ENTRY, cfg.d_model);
        let encoder = TransformerEncoder::new(
            store,
            init,
            "encoder",
            cfg.n_layers,
            cfg.d_model,
            cfg.heads,
            cfg.d_ff,
        );
        let leaf_embed = (1..=cfg.max_leaves)
            .map(|l| {
                Linear::new(
                    store,
                    init,
                    &format!("leaf_embed.{l}"),
                    l * cfg.d_model,
                    cfg.d_emb,
                )
            })
            .collect();
        let dev_mlp = Mlp::new(
            store,
            init,
            "dev_mlp",
            &[N_DEVICE_FEATURES, cfg.d_dev * 2, cfg.d_dev],
        );
        let mut dec_widths = vec![cfg.d_emb + cfg.d_dev];
        dec_widths.extend(std::iter::repeat_n(cfg.dec_hidden, cfg.dec_layers));
        dec_widths.push(1);
        let decoder = Mlp::new(store, init, "decoder", &dec_widths);
        Arch {
            input_proj,
            encoder,
            leaf_embed,
            dev_mlp,
            decoder,
        }
    }

    /// Compiles the batch-size-generic inference plan for one leaf count:
    /// records this architecture's `forward` (the same generic code the
    /// other executors run), fuses bias/activation into GEMM epilogues and
    /// element-wise chains into single passes, and lays every intermediate
    /// out in a liveness-aliased arena. The plan reads parameter *values*
    /// at replay time, so training the store further never invalidates it —
    /// only parameter shapes are baked in. `leaves` is in range: the plan
    /// cache has a slot for it.
    fn compile_plan(
        &self,
        cfg: &PredictorConfig,
        store: &ParamStore,
        leaves: usize,
    ) -> PredictResult<Plan> {
        Ok(Plan::compile(store, |rec, b| {
            self.record(cfg, store, leaves, rec, b)
        })?)
    }

    /// Compiles the training step for one leaf count: the same recording
    /// as [`Arch::compile_plan`], with the backward pass derived from it.
    fn compile_train_plan(
        &self,
        cfg: &PredictorConfig,
        store: &ParamStore,
        leaves: usize,
        seeds: StepSeeds,
    ) -> PredictResult<TrainPlan> {
        let mut seeded = [false; 2];
        seeded[PLAN_OUT_LATENT] = seeds != StepSeeds::Pred;
        seeded[PLAN_OUT_PRED] = seeds != StepSeeds::Latent;
        Ok(TrainPlan::compile(store, &seeded, |rec, b| {
            self.record(cfg, store, leaves, rec, b)
        })?)
    }

    /// Runs `forward` on a recorder at probe batch size `b`.
    fn record(
        &self,
        cfg: &PredictorConfig,
        store: &ParamStore,
        leaves: usize,
        rec: &mut Recorder<'_>,
        b: usize,
    ) -> Result<Vec<Var>, PlanError> {
        let x = Tensor::zeros(&[b, leaves, N_ENTRY]);
        let dev = Tensor::zeros(&[b, N_DEVICE_FEATURES]);
        let out = self.forward(cfg, rec, store, x, dev).map_err(|e| match e {
            PredictError::Tensor(t) => PlanError::from(t),
            other => PlanError::Build(other.to_string()),
        })?;
        // Output order is a plan-wide contract: latent first, then the
        // prediction (see `PLAN_OUT_LATENT` / `PLAN_OUT_PRED`).
        Ok(vec![out.latent, out.pred])
    }

    /// One forward pass on any executor. See [`Predictor::forward`].
    fn forward<E: Exec>(
        &self,
        cfg: &PredictorConfig,
        g: &mut E,
        store: &ParamStore,
        x: Tensor,
        dev: Tensor,
    ) -> PredictResult<ForwardOut> {
        let shape = x.shape().to_vec();
        debug_assert_eq!(shape.len(), 3);
        let (b, l) = (shape[0], shape[1]);
        let layer = l
            .checked_sub(1)
            .and_then(|i| self.leaf_embed.get(i))
            .ok_or_else(|| cfg.leaf_error(l))?;
        let xv = g.constant(x);
        let h = self.input_proj.forward(g, store, xv)?;
        let h = self.encoder.forward(g, store, h)?;
        // Leaf-count-specific embedding: flatten [B, L, d] -> [B, L*d].
        let flat = g.reshape(h, &[b, l * cfg.d_model])?;
        let zx = layer.forward(g, store, flat)?;
        // Device branch.
        let dv = g.constant(dev);
        let zv = self.dev_mlp.forward(g, store, dv)?;
        let z = g.concat_last(&[zx, zv])?;
        let z = g.tanh(z)?;
        let pred = self.decoder.forward(g, store, z)?;
        Ok(ForwardOut { latent: z, pred })
    }
}

/// Index of the latent (`z`) output in a compiled predictor plan.
pub(crate) const PLAN_OUT_LATENT: usize = 0;
/// Index of the prediction output in a compiled predictor plan.
pub(crate) const PLAN_OUT_PRED: usize = 1;

/// Lazily compiled plans, one per supported leaf count (index `L - 1`),
/// plus a counter of recordings actually performed.
///
/// Shared by [`Predictor`], every [`SharedPredictor`] derived from it, and
/// every clone of either — a leaf count's plan is compiled at most once
/// per model. Snapshot loading seeds the slots with deserialized plans, so
/// a model restored from disk serves with **zero** recordings (the counter
/// lets tests assert exactly that).
struct PlanCacheInner {
    slots: Vec<OnceLock<Arc<Plan>>>,
    compiles: std::sync::atomic::AtomicUsize,
}

type PlanCache = Arc<PlanCacheInner>;

/// Which outputs of a compiled training step take a loss gradient. A seed
/// an output never receives would be a gradient path compiled for nothing
/// (and a seed slice to fill with zeros), so each combination in use is
/// its own plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepSeeds {
    /// The prediction only: a regression loss (pre-training).
    Pred,
    /// The latent only: a domain that contributes to CMD but has no labels.
    Latent,
    /// Both: a labeled domain under CMD regularization.
    Both,
}

/// Lazily compiled training steps, per leaf count (index `L - 1`) and
/// [`StepSeeds`]. Like inference plans they bake in parameter shapes only,
/// so clones of a predictor share them.
type TrainPlanCache = Arc<Vec<[OnceLock<Arc<TrainPlan>>; 3]>>;

fn new_plan_cache(max_leaves: usize) -> PlanCache {
    Arc::new(PlanCacheInner {
        slots: (0..max_leaves).map(|_| OnceLock::new()).collect(),
        compiles: std::sync::atomic::AtomicUsize::new(0),
    })
}

/// The second cache tier: **folds** ([`SpecializedPlan`]) of one frozen
/// weight set, keyed by `(leaf count, batch size)`.
///
/// The first tier (the per-leaf [`PlanCache`]) holds batch-size-generic
/// plans that read parameter values at replay time — safe to share across
/// training-side clones and every frozen handle. Folds are different:
/// [`SpecializedPlan`] prepacks weight GEMM panels, baking in parameter
/// **values**, so this cache hangs off each freeze ([`Predictor::share`] /
/// [`Predictor::into_shared`]) and is never shared with the mutable
/// training-side predictor. Clones of one [`SharedPredictor`] share it
/// (same frozen weights); re-freezing after further training gets a
/// fresh, empty cache.
///
/// Every batch size up to [`DEFAULT_MAX_BATCH`] is folded the first time
/// it is replayed, into a table with one slot per `(leaf count, size)` —
/// `max_leaves × DEFAULT_MAX_BATCH` slots, so what serving can build is
/// bounded by the table's shape, not by a policy. A larger batch replays
/// the generic plan.
struct SpecCacheInner {
    /// Registered batch classes (small: typically `{1, max_batch}`): what
    /// a snapshot ships and a hot swap prewarms.
    classes: RwLock<Vec<usize>>,
    /// `folds[leaves - 1][batch - 1]`; a leaf count's row is allocated by
    /// its first fold.
    folds: Box<[OnceLock<FoldRow>]>,
    /// The `(leaves, batch)` pairs the snapshot this model was restored
    /// from asked for, ascending. They are folded like any other size — on
    /// first replay — and reported by
    /// [`SharedPredictor::specialized_plans`] either way, so the model
    /// re-serializes to the bytes it came from.
    requested: OnceLock<Vec<(usize, usize)>>,
    /// Prepacked weight panels shared across every fold of this frozen
    /// weight set (plans overlap in the parameters they read, so each
    /// distinct `[k, n]` weight matrix is packed exactly once).
    packs: Mutex<WeightPackCache>,
}

type FoldRow = Box<[OnceLock<Arc<SpecializedPlan>>]>;

type SpecCache = Arc<SpecCacheInner>;

fn new_spec_cache(max_leaves: usize) -> SpecCache {
    Arc::new(SpecCacheInner {
        classes: RwLock::new(Vec::new()),
        folds: (0..max_leaves).map(|_| OnceLock::new()).collect(),
        requested: OnceLock::new(),
        packs: Mutex::new(WeightPackCache::new()),
    })
}

/// Hard cap on registered batch classes. A class is a size a snapshot
/// ships a fold request for and a hot swap folds before it publishes —
/// not a condition for folding: every size up to [`DEFAULT_MAX_BATCH`]
/// folds on first use, class or not, and no size above it folds.
pub const MAX_BATCH_CLASSES: usize = 8;

/// The serving engine's default dense chunk size — the default non-trivial
/// batch class, and the largest batch a frozen model folds on first use.
/// Defined here (not in `runtime`) so checkpoints can pre-specialize for
/// the same class the engine dispatches by default.
pub const DEFAULT_MAX_BATCH: usize = 64;

/// Looks up (compiling on first use) the plan for `leaves`.
fn plan_for(
    cache: &PlanCache,
    arch: &Arch,
    cfg: &PredictorConfig,
    store: &ParamStore,
    leaves: usize,
) -> PredictResult<Arc<Plan>> {
    let slot = leaves
        .checked_sub(1)
        .and_then(|i| cache.slots.get(i))
        .ok_or_else(|| cfg.leaf_error(leaves))?;
    if let Some(plan) = slot.get() {
        return Ok(Arc::clone(plan));
    }
    // Competing threads may compile concurrently; the first wins and the
    // duplicates are dropped (compilation is pure, so either is correct).
    let plan = Arc::new(arch.compile_plan(cfg, store, leaves)?);
    cache
        .compiles
        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    Ok(Arc::clone(slot.get_or_init(|| plan)))
}

/// Per-thread replay state for compiled plans: **one arena** for every
/// fold this thread replays, grown to the largest of them, plus one
/// [`PlanExec`] (arena + offsets) per leaf count replayed through the
/// batch-generic plan. Keep one `PlanRunner` per serving thread and feed
/// it every batch; steady-state replay allocates nothing. A runner holds
/// no reference to any model, so feeding it batches of two models (A/B
/// serving, a hot swap) costs nothing on the fold path.
#[derive(Default)]
pub struct PlanRunner {
    execs: Vec<Option<PlanExec>>,
    arena: Vec<f32>,
    arena_growths: usize,
    /// `seen[leaves - 1]` bit `batch - 1`: this runner has replayed the
    /// `(leaves, batch)` fold.
    seen: Vec<u64>,
    /// How many of those were registered-class folds when first replayed.
    class_folds: usize,
}

const _: () = assert!(DEFAULT_MAX_BATCH <= u64::BITS as usize);

impl PlanRunner {
    /// Creates an empty runner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total arena-growth events: the fold arena's plus every generic
    /// exec's. Flat once every served shape has been replayed once — the
    /// "plan path allocates nothing per batch" counter.
    pub fn alloc_count(&self) -> usize {
        let generic: usize = self.execs.iter().flatten().map(|e| e.alloc_count()).sum();
        generic + self.arena_growths
    }

    /// Number of distinct `(leaf count, batch class)` folds this runner
    /// has replayed whose batch size was a registered class at the time
    /// (bounded by leaf counts × registered classes).
    pub fn spec_exec_count(&self) -> usize {
        self.class_folds
    }

    /// The one generic-plan replay: replays `plan` (the batch-generic plan
    /// of `inputs`' leaf count) over `params` in this runner's exec for that
    /// leaf count, and hands plan output `out` — its values and shape — to
    /// `read`.
    fn replay_generic<R>(
        &mut self,
        plan: Arc<Plan>,
        params: &ParamStore,
        inputs: [&Tensor; 2],
        out: usize,
        read: impl FnOnce(&[f32], &[usize]) -> R,
    ) -> PredictResult<R> {
        let leaves = leaf_count_of(inputs[0])?;
        if self.execs.len() < leaves {
            self.execs.resize_with(leaves, || None);
        }
        let slot = &mut self.execs[leaves - 1];
        // A runner may be handed batches from different models (A/B
        // serving, a re-frozen fine-tune): a cached exec is only valid for
        // the plan it was built from, so replace it when the plan differs.
        let exec = match slot {
            Some(exec) if Arc::ptr_eq(exec.plan(), &plan) => exec,
            _ => slot.insert(PlanExec::new(plan)),
        };
        exec.run(params, &inputs)?;
        Ok(read(exec.output(out), &exec.output_shape(out)))
    }

    /// Replays `fold` in this runner's arena and returns the arena.
    fn replay_fold(
        &mut self,
        fold: &SpecializedPlan,
        params: &ParamStore,
        inputs: &[&Tensor],
    ) -> Result<&[f32], PlanError> {
        if self.arena.capacity() < fold.arena_len() {
            self.arena_growths += 1;
        }
        fold.replay(&mut self.arena, params, inputs)?;
        Ok(&self.arena)
    }

    /// Books the `(leaves, batch)` fold for [`Self::spec_exec_count`];
    /// `is_class` is asked the first time this runner sees the pair.
    fn note_fold(&mut self, leaves: usize, batch: usize, is_class: impl FnOnce() -> bool) {
        if self.seen.len() < leaves {
            self.seen.resize(leaves, 0);
        }
        let (word, bit) = (&mut self.seen[leaves - 1], 1u64 << (batch - 1));
        if *word & bit == 0 && is_class() {
            self.class_folds += 1;
        }
        *word |= bit;
    }
}

/// The CDMPP cost model (training-capable: owns a mutable [`ParamStore`]).
#[derive(Clone)]
pub struct Predictor {
    /// Parameter storage (exposed for optimizers).
    pub store: ParamStore,
    arch: Arch,
    cfg: PredictorConfig,
    plans: PlanCache,
    train_plans: TrainPlanCache,
}

impl Predictor {
    /// Creates an untrained predictor, its weights drawn from
    /// `StdRng::seed_from_u64(cfg.seed)`.
    pub fn new(cfg: PredictorConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        Self::with_init(cfg, ParamStore::new(), &mut rng)
    }

    /// The architecture `cfg` describes — the same parameter names, shapes
    /// and order as [`Predictor::new`] — in a values-only store, every
    /// weight matrix left at zero and no random number drawn: what a
    /// snapshot restore builds and then copies the stored tensors into.
    pub(crate) fn shape_only(cfg: PredictorConfig) -> Self {
        Self::with_init(cfg, ParamStore::values_only(), &mut nn::ShapeOnly)
    }

    fn with_init(cfg: PredictorConfig, mut store: ParamStore, init: &mut impl Init) -> Self {
        let arch = Arch::new(&mut store, &cfg, init);
        let plans = new_plan_cache(cfg.max_leaves);
        let train_plans = Arc::new((0..cfg.max_leaves).map(|_| Default::default()).collect());
        Predictor {
            store,
            arch,
            cfg,
            plans,
            train_plans,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PredictorConfig {
        &self.cfg
    }

    /// Number of scalar parameters (the paper's model has 13.8M; this one
    /// is ~100k for CPU-scale training).
    pub fn num_params(&self) -> usize {
        self.store.num_scalars()
    }

    /// Freezes the current weights into a thread-shareable handle.
    ///
    /// The parameters are copied **once** into an `Arc`; clones of the
    /// returned handle are cheap and all read the same weights. This is the
    /// serving path — worker threads no longer deep-clone the store.
    /// The weights stay f32; use [`Predictor::share_quantized`] to pick
    /// the mode explicitly.
    pub fn share(&self) -> SharedPredictor {
        self.share_quantized(QuantMode::F32)
    }

    /// [`Predictor::share`] with the weight storage format chosen
    /// explicitly: `I8` quantizes every rank-2 weight matrix once, here,
    /// and replaces the frozen copy's f32 values with the dequantized
    /// numbers — so every executor of this frozen handle (quantized
    /// GEMMs, generic plans, the tape) computes from identical weights
    /// and stays bit-identical to the others. The training-side store is
    /// untouched.
    pub fn share_quantized(&self, mode: QuantMode) -> SharedPredictor {
        // Values only: freezing must not drag the training-side
        // gradient buffers (as large as the weights) along.
        Predictor {
            store: self.store.clone_values(),
            arch: self.arch.clone(),
            cfg: self.cfg.clone(),
            plans: Arc::clone(&self.plans),
            train_plans: Arc::clone(&self.train_plans),
        }
        .into_shared_quantized(mode)
    }

    /// One forward pass over a leaf-count-homogeneous batch, on any
    /// executor (`&mut Graph` to train or run eagerly, a plan `Recorder` to
    /// compile).
    ///
    /// `x` is `[B, L, N_ENTRY]` (PE already added by the feature layer),
    /// `dev` is `[B, N_DEVICE_FEATURES]`. `L` must be in
    /// `1..=cfg.max_leaves`, otherwise
    /// [`PredictError::LeafCountOutOfRange`] is returned.
    pub fn forward<E: Exec>(&self, g: &mut E, x: Tensor, dev: Tensor) -> PredictResult<ForwardOut> {
        self.arch.forward(&self.cfg, g, &self.store, x, dev)
    }

    /// Predictions (transformed space) for a batch, on the tape: the eager
    /// reference the compiled plans are held to, not a serving path (serve
    /// through [`Predictor::predict_planned`] or a [`SharedPredictor`]).
    pub fn predict_batch(&self, x: Tensor, dev: Tensor) -> PredictResult<Vec<f32>> {
        let mut g = Graph::new();
        let out = self.forward(&mut g, x, dev)?;
        Ok(g.value(out.pred).data().to_vec())
    }

    /// Latent representations for a batch (for CMD / t-SNE / Algorithm 1),
    /// on the tape — the eager reference of [`Predictor::latent_planned`].
    pub fn latent_batch(&self, x: Tensor, dev: Tensor) -> PredictResult<Vec<Vec<f64>>> {
        let mut g = Graph::new();
        let out = self.forward(&mut g, x, dev)?;
        let z = g.value(out.latent);
        Ok(latent_rows(z.data(), z.shape()))
    }

    /// The compiled inference plan for one leaf count (compiled on first
    /// use, cached for the model's lifetime — shared with every clone and
    /// every [`Predictor::share`] handle).
    pub fn plan_for(&self, leaves: usize) -> PredictResult<Arc<Plan>> {
        plan_for(&self.plans, &self.arch, &self.cfg, &self.store, leaves)
    }

    /// The compiled training step for one leaf count (compiled on first
    /// use, shared with every clone): forward + backward over one arena,
    /// replayed by [`nn::TrainExec`]. Its outputs are the latent, then the
    /// prediction; its seeds follow the same order.
    pub fn train_plan_for(&self, leaves: usize, seeds: StepSeeds) -> PredictResult<Arc<TrainPlan>> {
        let slot = leaves
            .checked_sub(1)
            .and_then(|i| self.train_plans.get(i))
            .map(|variants| &variants[seeds as usize])
            .ok_or_else(|| self.cfg.leaf_error(leaves))?;
        if let Some(plan) = slot.get() {
            return Ok(Arc::clone(plan));
        }
        let plan = self
            .arch
            .compile_train_plan(&self.cfg, &self.store, leaves, seeds)?;
        Ok(Arc::clone(slot.get_or_init(|| Arc::new(plan))))
    }

    /// Number of plan recordings this model (and every handle sharing its
    /// cache) has performed. Stays at zero for a model whose plans were all
    /// seeded from a snapshot — the "loading performs no recording"
    /// counter.
    pub fn plan_compile_count(&self) -> usize {
        self.plans
            .compiles
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Seeds the plan cache for `leaves` with an already-built plan (the
    /// snapshot-restore path). Returns `false` if the leaf count is out of
    /// range or a plan is already cached for it.
    pub(crate) fn seed_plan(&self, leaves: usize, plan: Arc<Plan>) -> bool {
        match leaves.checked_sub(1).and_then(|i| self.plans.slots.get(i)) {
            Some(slot) => slot.set(plan).is_ok(),
            None => false,
        }
    }

    /// Consumes the predictor into a thread-shareable handle **without
    /// copying the weights** (the gradient buffers are dropped in place).
    /// Use this over [`Predictor::share`] when the training-side predictor
    /// is no longer needed — e.g. the CLI's train-then-serve flow. The
    /// weights stay f32, as with [`Predictor::share`].
    pub fn into_shared(self) -> SharedPredictor {
        self.into_shared_quantized(QuantMode::F32)
    }

    /// [`Predictor::into_shared`] with the storage format chosen
    /// explicitly; see [`Predictor::share_quantized`] for the contract.
    /// Parameters that already carry a quantized encoding (the
    /// snapshot-load path installs them from the file) are never
    /// re-quantized — the file's blob is canonical.
    pub fn into_shared_quantized(self, mode: QuantMode) -> SharedPredictor {
        let mut store = self.store.into_values();
        if mode == QuantMode::I8 {
            store.quantize_weights();
        }
        SharedPredictor {
            params: Arc::new(store),
            // Folds bake in parameter *values* (prepacked weights), so
            // every freeze starts a fresh fold table bound to this exact
            // weight copy; plans bake in shapes only and stay shared.
            spec: new_spec_cache(self.cfg.max_leaves),
            arch: self.arch,
            cfg: self.cfg,
            plans: self.plans,
        }
    }

    /// Inference through a compiled plan replayed by `runner` (zero
    /// allocation per batch once warmed up). Bit-identical to
    /// [`Predictor::predict_batch`].
    pub fn predict_planned(
        &self,
        runner: &mut PlanRunner,
        x: &Tensor,
        dev: &Tensor,
    ) -> PredictResult<Vec<f32>> {
        let plan = self.plan_for(leaf_count_of(x)?)?;
        runner.replay_generic(plan, &self.store, [x, dev], PLAN_OUT_PRED, pred_rows)
    }

    /// Latent rows through the compiled plan — the plan's other output,
    /// bit-identical to [`Predictor::latent_batch`].
    pub fn latent_planned(
        &self,
        runner: &mut PlanRunner,
        x: &Tensor,
        dev: &Tensor,
    ) -> PredictResult<Vec<Vec<f64>>> {
        let plan = self.plan_for(leaf_count_of(x)?)?;
        runner.replay_generic(plan, &self.store, [x, dev], PLAN_OUT_LATENT, latent_rows)
    }
}

/// Prediction rows as read out of a `[B, 1]` plan output.
fn pred_rows(pred: &[f32], _shape: &[usize]) -> Vec<f32> {
    pred.to_vec()
}

/// Latent rows of a `[B, d]` output as `f64` vectors.
fn latent_rows(z: &[f32], shape: &[usize]) -> Vec<Vec<f64>> {
    z.chunks(shape[1])
        .map(|row| row.iter().map(|&v| v as f64).collect())
        .collect()
}

/// The leaf count of a `[B, L, N_ENTRY]` batch.
fn leaf_count_of(x: &Tensor) -> PredictResult<usize> {
    match *x.shape() {
        [_, l, _] => Ok(l),
        ref s => Err(PredictError::Tensor(TensorError::BadRank {
            op: "predict_planned",
            expected: 3,
            actual: s.len(),
        })),
    }
}

/// A read-only, thread-shareable view of a trained predictor.
///
/// Obtained from [`Predictor::share`]; weights live behind an `Arc`, so
/// clones are cheap handles and any number of threads can replay compiled
/// plans concurrently (each with its own [`PlanRunner`]).
#[derive(Clone)]
pub struct SharedPredictor {
    params: Arc<ParamStore>,
    arch: Arch,
    cfg: PredictorConfig,
    plans: PlanCache,
    spec: SpecCache,
}

impl SharedPredictor {
    /// The configuration.
    pub fn config(&self) -> &PredictorConfig {
        &self.cfg
    }

    /// The shared, read-only parameters (what plans and folds replay
    /// against, and what a snapshot captures).
    pub fn params(&self) -> &ParamStore {
        &self.params
    }

    /// Whether this handle's weight matrices are stored as i8, `false`
    /// for a plain f32 freeze (a freeze quantizes all of them or none).
    pub fn is_quantized(&self) -> bool {
        self.params.has_quants()
    }

    /// Bytes of weight storage the serving hot path reads: per parameter,
    /// its quantized encoding when one is installed (blob + scales) or
    /// its f32 values otherwise, plus every prepacked GEMM panel packed
    /// so far (none until the first fold; a panel is shared by every fold
    /// that reads its weights at its shape). Quantized parameters also
    /// keep a dequantized f32 copy backing the generic fallback
    /// executors; that cold copy is deliberately not counted — this is
    /// the benches' serving-footprint column, comparing what each storage
    /// mode makes the GEMM path touch.
    pub fn serving_weights_bytes(&self) -> usize {
        let param_bytes: usize = self
            .params
            .ids()
            .map(|id| match self.params.quant(id) {
                Some(q) => q.serving_bytes(),
                None => self.params.value(id).data().len() * 4,
            })
            .sum();
        let panel_bytes = self
            .spec
            .packs
            .lock()
            .expect("pack cache lock")
            .panel_bytes();
        param_bytes + panel_bytes
    }

    /// One forward pass on any executor over the frozen weights
    /// ([`SharedPredictor::params`]).
    pub fn forward<E: Exec>(&self, g: &mut E, x: Tensor, dev: Tensor) -> PredictResult<ForwardOut> {
        self.arch.forward(&self.cfg, g, &self.params, x, dev)
    }

    /// Predictions (transformed space) for a batch, on the tape over the
    /// frozen weights: the eager reference [`SharedPredictor::predict_planned`]
    /// is held to bit for bit, not a serving path.
    pub fn predict_batch(&self, x: Tensor, dev: Tensor) -> PredictResult<Vec<f32>> {
        let mut g = Graph::new();
        let out = self.forward(&mut g, x, dev)?;
        Ok(g.value(out.pred).data().to_vec())
    }

    /// The compiled inference plan for one leaf count (compiled on first
    /// use, cached; shared across every handle to this model).
    pub fn plan_for(&self, leaves: usize) -> PredictResult<Arc<Plan>> {
        plan_for(&self.plans, &self.arch, &self.cfg, &self.params, leaves)
    }

    /// Number of plan recordings performed through this model's shared
    /// cache (zero when every served plan came from a snapshot).
    pub fn plan_compile_count(&self) -> usize {
        self.plans
            .compiles
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The plans currently compiled (or snapshot-seeded), as
    /// `(leaf count, plan)` pairs in ascending leaf order — what a
    /// snapshot captures from a frozen model.
    pub fn compiled_plans(&self) -> Vec<(usize, Arc<Plan>)> {
        self.plans
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.get().map(|p| (i + 1, Arc::clone(p))))
            .collect()
    }

    /// Registers a batch size as a **class**: a size snapshots ship a fold
    /// request for ([`SharedPredictor::specialized_plans`]) and hot swaps
    /// fold before they publish ([`SharedPredictor::prewarm_classes`]).
    /// The serving engine registers `{1, max_batch}`; snapshot loading
    /// registers whatever classes the file carries.
    ///
    /// Returns `false` (and registers nothing) for batch 0 or once
    /// [`MAX_BATCH_CLASSES`] distinct classes exist; registering an
    /// existing class is a no-op returning `true`.
    pub fn register_batch_class(&self, batch: usize) -> bool {
        if batch == 0 {
            return false;
        }
        let mut classes = self.spec.classes.write().expect("spec classes lock");
        if classes.contains(&batch) {
            return true;
        }
        if classes.len() >= MAX_BATCH_CLASSES {
            return false;
        }
        classes.push(batch);
        classes.sort_unstable();
        true
    }

    /// The registered batch classes, ascending.
    pub fn batch_classes(&self) -> Vec<usize> {
        self.spec.classes.read().expect("spec classes lock").clone()
    }

    fn is_batch_class(&self, batch: usize) -> bool {
        let classes = self.spec.classes.read().expect("spec classes lock");
        classes.contains(&batch)
    }

    /// The **registered-class** folds this model holds or was restored
    /// with a request for, as ascending `(leaf count, batch class)` pairs
    /// — what a snapshot captures. A fold built on first use for a size
    /// that is no class is never listed: serving traffic must not grow
    /// the next snapshot.
    pub fn specialized_plans(&self) -> Vec<(usize, usize)> {
        let mut keys = self.spec.requested.get().cloned().unwrap_or_default();
        let classes = self.batch_classes();
        for (i, row) in self.spec.folds.iter().enumerate() {
            let Some(row) = row.get() else { continue };
            let folded = |&&c: &&usize| row.get(c - 1).is_some_and(|slot| slot.get().is_some());
            keys.extend(classes.iter().filter(folded).map(|&c| (i + 1, c)));
        }
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Records the fold requests of the snapshot this model is being
    /// restored from (ascending, classes already registered).
    pub(crate) fn request_folds(&self, keys: Vec<(usize, usize)>) {
        // A model is restored once; a second call would be a bug in the
        // restore path, and keeping the first set is harmless.
        let _ = self.spec.requested.set(keys);
    }

    /// The fold for `(leaves, batch)`, built on first use, for any batch up
    /// to [`DEFAULT_MAX_BATCH`]; `None` above it (callers replay the
    /// generic plan).
    pub fn spec_plan_for(
        &self,
        leaves: usize,
        batch: usize,
    ) -> PredictResult<Option<Arc<SpecializedPlan>>> {
        if !(1..=DEFAULT_MAX_BATCH).contains(&batch) {
            return Ok(None);
        }
        let row = leaves
            .checked_sub(1)
            .and_then(|i| self.spec.folds.get(i))
            .ok_or_else(|| self.cfg.leaf_error(leaves))?;
        let empty = || (0..DEFAULT_MAX_BATCH).map(|_| OnceLock::new()).collect();
        let slot = &row.get_or_init(empty)[batch - 1];
        if let Some(fold) = slot.get() {
            return Ok(Some(Arc::clone(fold)));
        }
        let folded = self.fold(leaves, batch)?;
        Ok(Some(Arc::clone(slot.get_or_init(|| folded))))
    }

    /// Folds the generic plan for `leaves` at `batch`. Pure, so racing
    /// threads may each fold and all but one result is dropped; the pack
    /// cache's lock shares weight panels across every fold of this model.
    fn fold(&self, leaves: usize, batch: usize) -> PredictResult<Arc<SpecializedPlan>> {
        let generic = self.plan_for(leaves)?;
        let mut packs = self.spec.packs.lock().expect("pack cache lock");
        Ok(Arc::new(generic.specialize_cached(
            &self.params,
            batch,
            &mut packs,
        )?))
    }

    /// Registers `classes` and builds their folds across every compiled
    /// leaf-count plan — the hot-swap seam. A model about to be published
    /// is warmed here (classes registered, folds built, weight panels
    /// packed) *before* live traffic reaches it, so a cutover never pays
    /// first-use folding on the new model's stable sizes. A class that
    /// cannot register (a full registry, e.g. a snapshot that shipped
    /// [`MAX_BATCH_CLASSES`] of its own) is skipped and folds on first use
    /// like any other size — a performance demotion, never a correctness
    /// one; a class above [`DEFAULT_MAX_BATCH`] registers and has nothing
    /// to fold. Returns the number of folds now resident for the requested
    /// classes.
    pub fn prewarm_classes(&self, classes: &[usize]) -> PredictResult<usize> {
        let mut resident = 0usize;
        for &batch in classes {
            if !self.register_batch_class(batch) {
                continue;
            }
            for (leaves, _) in self.compiled_plans() {
                if self.spec_plan_for(leaves, batch)?.is_some() {
                    resident += 1;
                }
            }
        }
        Ok(resident)
    }

    /// Replays `(x, dev)` and hands plan output `out` — its values and
    /// shape — to `read`. The one routing rule of the serving hot path: a
    /// batch of at most [`DEFAULT_MAX_BATCH`] samples replays its
    /// shape-final fold (built on first use: zero symbolic evaluation,
    /// prepacked weight GEMMs, fused attention) in the runner's one arena;
    /// anything larger replays the batch-generic plan.
    fn replay<R>(
        &self,
        runner: &mut PlanRunner,
        x: &Tensor,
        dev: &Tensor,
        out: usize,
        read: impl FnOnce(&[f32], &[usize]) -> R,
    ) -> PredictResult<R> {
        let leaves = leaf_count_of(x)?;
        let batch = x.shape()[0];
        let Some(fold) = self.spec_plan_for(leaves, batch)? else {
            return runner.replay_generic(
                self.plan_for(leaves)?,
                &self.params,
                [x, dev],
                out,
                read,
            );
        };
        runner.note_fold(leaves, batch, || self.is_batch_class(batch));
        let arena = runner.replay_fold(&fold, &self.params, &[x, dev])?;
        Ok(read(fold.output(arena, out), fold.output_shape(out)))
    }

    /// Predictions (transformed space) through a compiled plan replayed by
    /// `runner` — the serving hot path. Sizes up to [`DEFAULT_MAX_BATCH`]
    /// replay a fold built on first use; larger batches replay the
    /// batch-generic plan. After each shape's
    /// first replay neither path allocates, and both are bit-identical to
    /// [`SharedPredictor::predict_batch`].
    pub fn predict_planned(
        &self,
        runner: &mut PlanRunner,
        x: &Tensor,
        dev: &Tensor,
    ) -> PredictResult<Vec<f32>> {
        self.replay(runner, x, dev, PLAN_OUT_PRED, pred_rows)
    }

    /// [`SharedPredictor::predict_planned`] pinned to the batch-generic
    /// plan (no folds) — what batches above [`DEFAULT_MAX_BATCH`] replay,
    /// and the baseline the fold benches and equivalence tests compare
    /// against.
    pub fn predict_planned_generic(
        &self,
        runner: &mut PlanRunner,
        x: &Tensor,
        dev: &Tensor,
    ) -> PredictResult<Vec<f32>> {
        let plan = self.plan_for(leaf_count_of(x)?)?;
        runner.replay_generic(plan, &self.params, [x, dev], PLAN_OUT_PRED, pred_rows)
    }

    /// Latent representations through a compiled plan (the plan's other
    /// output; same routing, same zero-allocation property).
    pub fn latent_planned(
        &self,
        runner: &mut PlanRunner,
        x: &Tensor,
        dev: &Tensor,
    ) -> PredictResult<Vec<Vec<f64>>> {
        self.replay(runner, x, dev, PLAN_OUT_LATENT, latent_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(b: usize, l: usize) -> (Tensor, Tensor) {
        let x = Tensor::from_fn(&[b, l, N_ENTRY], |i| ((i as f32) * 0.137).sin() * 0.5);
        let dev = Tensor::from_fn(&[b, N_DEVICE_FEATURES], |i| ((i as f32) * 0.311).cos());
        (x, dev)
    }

    #[test]
    fn forward_shapes() {
        let p = Predictor::new(PredictorConfig::default());
        for l in [1usize, 3, 4, 8] {
            let (x, dev) = batch(5, l);
            let mut g = Graph::new();
            let out = p.forward(&mut g, x, dev).unwrap();
            assert_eq!(Exec::value(&g, out.pred).shape(), &[5, 1]);
            assert_eq!(Exec::value(&g, out.latent).shape(), &[5, 24 + 8]);
        }
    }

    #[test]
    fn latent_is_tanh_bounded() {
        let p = Predictor::new(PredictorConfig::default());
        let (x, dev) = batch(4, 3);
        let zs = p.latent_batch(x, dev).unwrap();
        for row in zs {
            assert!(row.iter().all(|v| v.abs() <= 1.0));
        }
    }

    #[test]
    fn different_leaf_counts_use_different_embedding_layers() {
        // The same content reshaped to different leaf counts must go
        // through different layers and give different outputs.
        let p = Predictor::new(PredictorConfig::default());
        let x2 = Tensor::from_fn(&[1, 2, N_ENTRY], |i| (i as f32 * 0.1).sin());
        let dev = Tensor::zeros(&[1, N_DEVICE_FEATURES]);
        let y2 = p.predict_batch(x2, dev.clone()).unwrap();
        let x4 = Tensor::from_fn(&[1, 4, N_ENTRY], |i| (i as f32 * 0.1).sin());
        let y4 = p.predict_batch(x4, dev).unwrap();
        assert_ne!(y2[0], y4[0]);
    }

    #[test]
    fn oversized_leaf_count_is_a_descriptive_error() {
        let p = Predictor::new(PredictorConfig::default());
        let max = p.config().max_leaves;
        let (x, dev) = batch(2, max + 1);
        let err = p.predict_batch(x, dev).unwrap_err();
        assert_eq!(
            err,
            PredictError::LeafCountOutOfRange {
                leaves: max + 1,
                max_leaves: max
            }
        );
        let msg = err.to_string();
        assert!(
            msg.contains("max_leaves"),
            "message should name the config knob: {msg}"
        );
        // Leaf count 0 (degenerate) is also rejected, not routed anywhere.
        let x0 = Tensor::zeros(&[2, 0, N_ENTRY]);
        let dev0 = Tensor::zeros(&[2, N_DEVICE_FEATURES]);
        assert!(matches!(
            p.predict_batch(x0, dev0),
            Err(PredictError::LeafCountOutOfRange { leaves: 0, .. })
        ));
    }

    #[test]
    fn shared_predictor_matches_owner_and_is_send() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedPredictor>();
        let p = Predictor::new(PredictorConfig::default());
        let shared = p.share();
        let (x, dev) = batch(3, 4);
        let a = p.predict_batch(x.clone(), dev.clone()).unwrap();
        let b = shared.predict_batch(x.clone(), dev.clone()).unwrap();
        assert_eq!(a, b, "owner vs shared");
        // And the frozen side's compiled path, bitwise against its tape.
        let planned = shared
            .predict_planned(&mut PlanRunner::new(), &x, &dev)
            .unwrap();
        assert_eq!(b, planned, "both frozen-side: must stay bitwise");
    }

    #[test]
    fn device_features_change_prediction() {
        let p = Predictor::new(PredictorConfig::default());
        let x = Tensor::from_fn(&[1, 3, N_ENTRY], |i| (i as f32 * 0.05).sin());
        let d1 = Tensor::zeros(&[1, N_DEVICE_FEATURES]);
        let d2 = Tensor::full(&[1, N_DEVICE_FEATURES], 1.0);
        let y1 = p.predict_batch(x.clone(), d1).unwrap();
        let y2 = p.predict_batch(x, d2).unwrap();
        assert_ne!(y1[0], y2[0]);
    }

    #[test]
    fn gradients_flow_to_all_components() {
        let p = Predictor::new(PredictorConfig::default());
        let (x, dev) = batch(6, 3);
        let mut g = Graph::new();
        let out = p.forward(&mut g, x, dev).unwrap();
        let sq = g.square(out.pred).unwrap();
        let loss = g.mean(sq).unwrap();
        g.backward(loss).unwrap();
        let mut store = p.store.clone();
        store.zero_grad();
        g.write_param_grads(&mut store).unwrap();
        // Input projection, encoder, the L=3 embedding layer, device MLP
        // and decoder must all receive gradient; other leaf-embed layers
        // must not.
        let mut with_grad = 0;
        let mut without = 0;
        for id in store.ids() {
            let n = store.name(id);
            let has = store.grad(id).norm2() > 0.0;
            if n.starts_with("leaf_embed.") && !n.starts_with("leaf_embed.3") {
                assert!(!has, "{n} should be untouched");
                without += 1;
            } else if has {
                with_grad += 1;
            }
        }
        assert!(with_grad > 10);
        assert!(without > 0);
    }

    #[test]
    fn planned_predictions_match_all_executors_bitwise() {
        let p = Predictor::new(PredictorConfig::default());
        let mut runner = PlanRunner::new();
        for l in [1usize, 3, 8] {
            for b in [1usize, 4, 7] {
                let (x, dev) = batch(b, l);
                let planned = p.predict_planned(&mut runner, &x, &dev).unwrap();
                let taped = p.predict_batch(x, dev).unwrap();
                assert_eq!(planned, taped, "plan vs tape at L={l} B={b}");
            }
        }
    }

    #[test]
    fn plans_are_cached_and_shared_with_frozen_handles() {
        let p = Predictor::new(PredictorConfig::default());
        let plan1 = p.plan_for(3).unwrap();
        let plan2 = p.plan_for(3).unwrap();
        assert!(Arc::ptr_eq(&plan1, &plan2), "second lookup must hit cache");
        let shared = p.share();
        let plan3 = shared.plan_for(3).unwrap();
        assert!(
            Arc::ptr_eq(&plan1, &plan3),
            "frozen handle must reuse the owner's compiled plans"
        );
        // The plan actually fuses: every Linear in the predictor has a
        // bias, and the encoder/decoder hide several relu epilogues.
        let st = plan1.stats();
        assert!(st.fused_bias >= 5, "{st:?}");
        assert!(st.fused_activations >= 2, "{st:?}");
        assert!(st.arena_slots < st.buffers, "{st:?}");
    }

    #[test]
    fn planned_leaf_count_out_of_range_is_descriptive() {
        let p = Predictor::new(PredictorConfig::default());
        let mut runner = PlanRunner::new();
        let max = p.config().max_leaves;
        let (x, dev) = batch(2, max + 1);
        let err = p.predict_planned(&mut runner, &x, &dev).unwrap_err();
        assert_eq!(
            err,
            PredictError::LeafCountOutOfRange {
                leaves: max + 1,
                max_leaves: max
            }
        );
        assert!(matches!(
            p.plan_for(0),
            Err(PredictError::LeafCountOutOfRange { .. })
        ));
    }

    #[test]
    fn runner_reused_across_models_replays_each_models_own_plan() {
        // Two different models sharing one runner (A/B serving) must each
        // get their own weights' predictions, not the first model's.
        let a = Predictor::new(PredictorConfig::default());
        let b = Predictor::new(PredictorConfig {
            seed: 1,
            ..PredictorConfig::default()
        });
        let mut runner = PlanRunner::new();
        let (x, dev) = batch(3, 4);
        let via_a = a.predict_planned(&mut runner, &x, &dev).unwrap();
        let via_b = b.predict_planned(&mut runner, &x, &dev).unwrap();
        assert_ne!(via_a, via_b, "different weights must differ");
        assert_eq!(via_a, a.predict_batch(x.clone(), dev.clone()).unwrap());
        assert_eq!(via_b, b.predict_batch(x.clone(), dev.clone()).unwrap());
        // And flipping back re-binds to A's plan again.
        let via_a2 = a.predict_planned(&mut runner, &x, &dev).unwrap();
        assert_eq!(via_a, via_a2);
    }

    #[test]
    fn planned_latents_match_infer_ctx() {
        let p = Predictor::new(PredictorConfig::default());
        let shared = p.share();
        let mut runner = PlanRunner::new();
        let (x, dev) = batch(5, 4);
        let planned = shared.latent_planned(&mut runner, &x, &dev).unwrap();
        let taped = p.latent_batch(x, dev).unwrap();
        assert_eq!(planned, taped);
    }

    #[test]
    fn recorder_cse_does_not_regress_default_predictor_memory() {
        // The PR-3 lowering packed the default predictor's L=8 plan into
        // 5 arena slots and 44 steps; recorder CSE must only ever hold or
        // improve both (it removes duplicate subtrees before planning).
        let p = Predictor::new(PredictorConfig::default());
        let st = p.plan_for(8).unwrap().stats();
        assert!(st.arena_slots <= 5, "arena slots regressed: {st:?}");
        assert!(st.steps <= 44, "step count regressed: {st:?}");
    }

    #[test]
    fn training_steps_fuse_every_attention_block_both_ways() {
        let p = Predictor::new(PredictorConfig::default());
        let layers = p.config().n_layers;
        for leaves in [1, 3, 8] {
            for seeds in [StepSeeds::Pred, StepSeeds::Latent, StepSeeds::Both] {
                let st = p.train_plan_for(leaves, seeds).unwrap().stats();
                let got = (st.fused_attention_forward, st.fused_attention_backward);
                assert_eq!(got, (layers, layers), "L={leaves} {seeds:?}: {st:?}");
            }
        }
    }

    #[test]
    fn specialized_routing_matches_generic_and_falls_back_off_class() {
        let p = Predictor::new(PredictorConfig::default());
        let shared = p.share();
        assert!(shared.register_batch_class(4));
        assert!(!shared.register_batch_class(0), "batch 0 is not a class");
        let mut runner = PlanRunner::new();
        for b in [4usize, 3, 4, DEFAULT_MAX_BATCH, DEFAULT_MAX_BATCH + 1] {
            let (x, dev) = batch(b, 3);
            let routed = shared.predict_planned(&mut runner, &x, &dev).unwrap();
            let generic = p.predict_batch(x.clone(), dev.clone()).unwrap();
            assert_eq!(routed, generic, "b={b}");
            // Folded up to `DEFAULT_MAX_BATCH`, generic above it.
            let fold = shared.spec_plan_for(3, b).unwrap();
            assert_eq!(fold.is_some(), b <= DEFAULT_MAX_BATCH, "b={b}");
        }
        assert_eq!(
            runner.spec_exec_count(),
            1,
            "one registered-class fold replayed"
        );
        assert_eq!(
            shared.specialized_plans(),
            vec![(3, 4)],
            "folds of sizes that are no class are not what a snapshot ships"
        );
        // A class registered later lists the folds already built for it.
        assert!(shared.register_batch_class(3));
        assert_eq!(shared.specialized_plans(), vec![(3, 3), (3, 4)]);
        // A class above `DEFAULT_MAX_BATCH` registers and folds nothing.
        assert!(shared.register_batch_class(DEFAULT_MAX_BATCH + 1));
        assert!(shared
            .spec_plan_for(3, DEFAULT_MAX_BATCH + 1)
            .unwrap()
            .is_none());
        assert_eq!(shared.prewarm_classes(&[DEFAULT_MAX_BATCH + 1]).unwrap(), 0);
        // A fresh freeze of the same predictor gets its own fold table.
        let refrozen = p.share();
        assert!(refrozen.specialized_plans().is_empty());
    }

    #[test]
    fn a_fold_is_two_fused_steps_per_encoder_layer() {
        // 42 generic steps at the default config: 17 per encoder layer
        // (3 projections, 3 head splits, bmm, softmax, bmm, merge, output
        // projection, 2 residual adds, 2 layer norms, 2 feed-forward
        // GEMMs) + 8 around them. The fold merges each layer's first ten
        // into a fused projection and an attention step: 26.
        let shared = Predictor::new(PredictorConfig::default()).share();
        for (leaves, batch) in [(1usize, 1usize), (3, 5), (8, 13), (8, DEFAULT_MAX_BATCH)] {
            let generic = shared.plan_for(leaves).unwrap();
            assert_eq!(generic.stats().steps, 42);
            let fold = shared.spec_plan_for(leaves, batch).unwrap().unwrap();
            assert_eq!(fold.steps(), 26, "L={leaves} B={batch}: {fold:?}");
            assert_eq!(fold.fused_attentions(), 2);
            assert_eq!(fold.fused_qkv_gemms(), 2);
            assert_eq!(fold.unrolled_copies(), 0, "no head copy is left to unroll");
        }
    }

    #[test]
    fn one_runner_serves_two_models_from_one_arena() {
        // A/B serving, or the runner of a worker across a hot swap: the
        // fold path keeps no per-model state, so alternating models grows
        // nothing after each shape's first replay.
        let a = Predictor::new(PredictorConfig::default()).share();
        let b = Predictor::new(PredictorConfig {
            seed: 1,
            ..PredictorConfig::default()
        })
        .share();
        let mut runner = PlanRunner::new();
        let shapes = [(1usize, 2usize), (24, 8), (5, 3)];
        let mut want = Vec::new();
        for &(bsz, l) in &shapes {
            let (x, dev) = batch(bsz, l);
            let ya = a.predict_planned(&mut runner, &x, &dev).unwrap();
            let yb = b.predict_planned(&mut runner, &x, &dev).unwrap();
            assert_ne!(ya, yb, "different weights must differ");
            assert_eq!(ya, a.predict_batch(x.clone(), dev.clone()).unwrap());
            assert_eq!(yb, b.predict_batch(x, dev).unwrap());
            want.push((ya, yb));
        }
        let warmed = runner.alloc_count();
        for _ in 0..3 {
            for (&(bsz, l), (ya, yb)) in shapes.iter().zip(&want) {
                let (x, dev) = batch(bsz, l);
                assert_eq!(&b.predict_planned(&mut runner, &x, &dev).unwrap(), yb);
                assert_eq!(&a.predict_planned(&mut runner, &x, &dev).unwrap(), ya);
            }
        }
        assert_eq!(runner.alloc_count(), warmed, "rebinding must not grow");
    }

    #[test]
    fn batch_class_registry_is_bounded() {
        let p = Predictor::new(PredictorConfig::default());
        let shared = p.share();
        for b in 1..=MAX_BATCH_CLASSES {
            assert!(shared.register_batch_class(b * 10));
        }
        assert!(
            !shared.register_batch_class(9_999),
            "registry must cap at MAX_BATCH_CLASSES"
        );
        // Re-registering an existing class stays a no-op success.
        assert!(shared.register_batch_class(10));
        assert_eq!(shared.batch_classes().len(), MAX_BATCH_CLASSES);
    }

    #[test]
    fn param_count_scales_with_config() {
        let small = Predictor::new(PredictorConfig::default());
        let big = Predictor::new(PredictorConfig {
            d_model: 64,
            n_layers: 4,
            ..PredictorConfig::default()
        });
        assert!(big.num_params() > 2 * small.num_params());
    }

    /// FNV-1a over every parameter's name, shape and value bits, in order.
    fn weights_hash(p: &Predictor) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for id in p.store.ids() {
            eat(p.store.name(id).as_bytes());
            for &d in p.store.value(id).shape() {
                eat(&(d as u64).to_le_bytes());
            }
            for v in p.store.value(id).data() {
                eat(&v.to_bits().to_le_bytes());
            }
        }
        h
    }

    /// `Predictor::new` is what training starts from: the same names,
    /// shapes and drawn values as before the constructor took its
    /// initializer as an argument (hashes taken at the parent commit).
    #[test]
    fn seeded_construction_is_pinned() {
        let default = Predictor::new(PredictorConfig::default());
        assert_eq!(default.store.len(), 60);
        assert_eq!(default.num_params(), 49_241);
        assert_eq!(weights_hash(&default), 0xe4c0_5701_ab46_e27c);
        let other = Predictor::new(PredictorConfig {
            d_model: 24,
            n_layers: 3,
            heads: 3,
            max_leaves: 5,
            seed: 77,
            ..Default::default()
        });
        assert_eq!(weights_hash(&other), 0x9a46_7600_d63d_0398);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The shape-only architecture a snapshot restore builds lists the
        /// parameters `Predictor::new` lists — same names, same shapes,
        /// same order — and holds nothing drawn from a generator: every
        /// value is the constant its layer starts a non-random parameter
        /// at.
        #[test]
        fn shape_only_lists_what_new_lists_and_draws_nothing(
            n_layers in 1usize..=3,
            heads in 1usize..=4,
            head_dim in 1usize..=6,
            max_leaves in 1usize..=12,
            d_ff in 1usize..=40,
            d_emb in 1usize..=20,
            d_dev in 1usize..=9,
            dec_hidden in 1usize..=20,
            dec_layers in 1usize..=3,
            seed in 0u64..1000,
        ) {
            let cfg = PredictorConfig {
                d_model: heads * head_dim,
                n_layers,
                heads,
                d_ff,
                d_emb,
                d_dev,
                dec_hidden,
                dec_layers,
                max_leaves,
                seed,
                ..Default::default()
            };
            let drawn = Predictor::new(cfg.clone());
            let shaped = Predictor::shape_only(cfg);
            let listing = |p: &Predictor| -> Vec<(String, Vec<usize>)> {
                p.store
                    .ids()
                    .map(|id| (p.store.name(id).to_string(), p.store.value(id).shape().to_vec()))
                    .collect()
            };
            proptest::prop_assert_eq!(listing(&shaped), listing(&drawn));
            for id in shaped.store.ids() {
                let fill = if shaped.store.name(id).ends_with(".gamma") { 1.0 } else { 0.0 };
                proptest::prop_assert!(
                    shaped.store.value(id).data().iter().all(|&v| v == fill),
                    "{} holds something other than {fill}",
                    shaped.store.name(id)
                );
            }
        }
    }
}
