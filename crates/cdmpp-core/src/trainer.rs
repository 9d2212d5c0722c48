//! Pre-training (§5.2): Box-Cox label normalization + the scale-insensitive
//! hybrid objective, minibatched over leaf-count-homogeneous batches.
//!
//! ## The compiled step
//!
//! [`pretrain`] runs every optimizer step through [`CompiledStep`]: the
//! predictor's forward **and** backward are recorded once per leaf count
//! ([`Predictor::train_plan_for`]) and replayed from one arena — no graph
//! rebuilt per batch, no weight cloned, bias/activation epilogues and their
//! backward fused, parameter gradients accumulated straight into the
//! store. The loss head is a fixed kernel, [`loss_head`]: it reads the
//! replayed `[B, 1]` prediction in place and writes the loss value and the
//! seed of the backward replay into buffers the stepper owns, repeating
//! [`build_loss`]'s tape expressions in the tape's order. The step ends in
//! [`nn::clip_and_step`], which skips the update when the gradient norm is
//! not finite. A warmed step allocates nothing
//! (`tests/step_allocations.rs`).
//!
//! The step's arithmetic is the **sharded** one: the minibatch is cut into
//! fixed 16-row gradient shards (a function of the batch alone), each
//! shard's loss head is weighted `rows / n`, and the shard gradients are
//! combined by a fixed-order binary tree. It runs on one thread — shard
//! boundaries are only visible to the reductions that produce a parameter
//! gradient, so everything else runs once at full batch (see
//! `nn::train_plan`). A thread pool does not pay here: measured on the
//! 2-vCPU reference host, the data-parallel taped step
//! ([`train_step_parallel`]) ran 1.32–1.58 ms at 2 threads against
//! 1.24–1.41 ms serial. An empty pool round trip costs 9 µs at p50 back
//! to back and 13 µs after 1 ms idle (p90 20 µs), and a second thread
//! scaled a fixed loop 0.98–1.03× for whole stretches and 1.85–2.05× at
//! other times (`cargo run --release -p parallel --example wake_probe`).
//! A whole compiled step reads 0.56–0.58 ms for sharded pre-training at
//! B = 64 and 0.79–0.86 ms for a two-domain fine-tuning step at B = 48 on
//! a 2-vCPU Xeon (Sapphire Rapids) host
//! (`cargo run --release -p cdmpp-core --example train_step_phases`), and
//! 16-row shards make GEMMs too small to share.
//!
//! [`train_step`] and [`train_step_parallel`] are the taped **oracles**:
//! the one-graph step and the data-parallel step the compiled one must
//! reproduce bit for bit (`tests/compiled_step_equivalence.rs`).

use std::convert::Infallible;
use std::time::Instant;

use dataset::Dataset;
use learn::{accuracy_within, mape, rmse, FittedTransform, LabelTransform, TransformKind};
use nn::{clip_and_step, Adam, CyclicLr, Graph, LrSchedule, Optimizer, Sgd, TrainExec, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::Tensor;

use crate::batch::{
    encode_records, make_batches, predict_by_leaf, Batch, EncodedSample, FeatScaler, SampleLike,
};
use crate::predictor::{
    PredictResult, Predictor, PredictorConfig, SharedPredictor, StepSeeds, PLAN_OUT_PRED,
};

/// Which training objective (Tables 4 & 5 ablation).
pub use nn::LossKind;

/// Which optimizer the auto-tuner picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptKind {
    /// Adam with decoupled weight decay (the paper's tuned choice).
    Adam,
    /// SGD with momentum.
    Sgd,
}

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Epochs over the training set.
    pub epochs: usize,
    /// Minibatch size (the paper uses 600; scaled down here).
    pub batch_size: usize,
    /// Peak learning rate.
    pub lr: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
    /// Hybrid-loss λ (§5.2 uses 1e-3).
    pub lambda: f32,
    /// Label normalization (§5.4; Box-Cox by default).
    pub transform: TransformKind,
    /// Training objective.
    pub loss: LossKind,
    /// Positional encoding on/off (Fig 14a ablation).
    pub use_pe: bool,
    /// Optimizer.
    pub optimizer: OptKind,
    /// Use the cyclic LR schedule (the paper's tuned scheduler).
    pub cyclic_lr: bool,
    /// Shuffle/init seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 12,
            batch_size: 64,
            lr: 2e-3,
            weight_decay: 1e-3,
            lambda: 1e-3,
            transform: TransformKind::BoxCox,
            loss: LossKind::Hybrid,
            use_pe: true,
            optimizer: OptKind::Adam,
            cyclic_lr: true,
            seed: 0,
        }
    }
}

/// A trained model: predictor + fitted label transform.
#[derive(Clone)]
pub struct TrainedModel {
    /// The predictor network.
    pub predictor: Predictor,
    /// Fitted label transform (applied to latencies in seconds).
    pub transform: FittedTransform,
    /// Fitted input-feature standardizer.
    pub scaler: FeatScaler,
    /// Whether PE was used at training time (must match at inference).
    pub use_pe: bool,
    /// The training configuration used.
    pub train_config: TrainConfig,
}

/// Evaluation metrics (the paper's reporting set).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalMetrics {
    /// Mean absolute percentage error (fraction, not %).
    pub mape: f64,
    /// RMSE in milliseconds (Table 5's unit).
    pub rmse_ms: f64,
    /// Fraction within 20% relative error.
    pub acc20: f64,
    /// Fraction within 10% relative error.
    pub acc10: f64,
    /// Fraction within 5% relative error.
    pub acc5: f64,
}

/// Training statistics (for the §7.2 throughput comparison).
#[derive(Debug, Clone, Copy)]
pub struct TrainStats {
    /// Samples processed per second during training.
    pub throughput: f64,
    /// Total samples processed.
    pub samples: usize,
    /// Final training loss.
    pub final_loss: f64,
}

/// Builds the (possibly clamped) training loss in transformed label space.
///
/// Relative terms (MAPE/MSPE) clamp the denominator at 0.1 because Box-Cox
/// output is standardized around zero — the paper trains MAPE on raw
/// labels, which are strictly positive; in transformed space the clamp
/// plays that role.
pub fn build_loss(
    g: &mut Graph,
    pred: Var,
    y_t: &[f32],
    kind: LossKind,
    lambda: f32,
) -> tensor::Result<Var> {
    let n = y_t.len();
    let target = Tensor::from_vec(y_t.to_vec(), &[n, 1])?;
    let t = g.constant(target.clone());
    let d = g.sub(pred, t)?;
    let weights = Tensor::from_vec(
        y_t.iter().map(|&y| 1.0 / y.abs().max(0.1)).collect(),
        &[n, 1],
    )?;
    match kind {
        LossKind::Mse => {
            let sq = g.square(d)?;
            g.mean(sq)
        }
        LossKind::Mape => {
            let a = g.abs(d)?;
            let w = g.mul_const(a, weights)?;
            g.mean(w)
        }
        LossKind::Mspe => {
            let r = g.mul_const(d, weights)?;
            let sq = g.square(r)?;
            g.mean(sq)
        }
        LossKind::Hybrid => {
            let sq = g.square(d)?;
            let mse = g.mean(sq)?;
            let a = g.abs(d)?;
            let w = g.mul_const(a, weights)?;
            let mape = g.mean(w)?;
            let scaled = g.scale(mape, lambda);
            g.add(mse, scaled)
        }
    }
}

/// [`build_loss`] without a tape: returns the loss value and writes
/// `gl · ∂loss/∂pred` into `seed`, `gl` being the gradient the tape's
/// loss node receives (`1` alone, a shard's `rows / n` under the
/// data-parallel step's scale node).
///
/// Each kind repeats the tape's own expressions in the tape's own order:
/// a `mean` sums in `f64` and divides in `f32`, its gradient is
/// `g / n`, and the hybrid's prediction gradient is the `|d|` branch's
/// contribution plus the `d²` branch's (the tape reaches the absolute
/// value's node first). Value and seed are [`build_loss`]'s, bit for bit.
///
/// # Panics
///
/// When the three slices differ in length or are empty.
pub fn loss_head(
    kind: LossKind,
    lambda: f32,
    pred: &[f32],
    y_t: &[f32],
    gl: f32,
    seed: &mut [f32],
) -> f32 {
    let n = y_t.len();
    assert!(
        n > 0 && pred.len() == n && seed.len() == n,
        "loss head lengths"
    );
    let nf = n as f32;
    let d = |i: usize| pred[i] - y_t[i];
    let w = |i: usize| 1.0 / y_t[i].abs().max(0.1);
    // The tape's `mean`: an `f64` sum, rounded, divided in `f32`.
    let mean =
        |f: fn(f32, f32) -> f32| (0..n).map(|i| f(d(i), w(i)) as f64).sum::<f64>() as f32 / nf;
    // The `|d|` branch's gradient at `d`, given its mean's `g`.
    let abs_grad = |g: f32, i: usize| {
        let d = d(i);
        g / nf * w(i) * d.signum() * (d != 0.0) as u8 as f32
    };
    match kind {
        LossKind::Mse => {
            let g = gl / nf * 2.0;
            for (i, o) in seed.iter_mut().enumerate() {
                *o = g * d(i);
            }
            mean(|d, _| d * d)
        }
        LossKind::Mape => {
            for (i, o) in seed.iter_mut().enumerate() {
                *o = abs_grad(gl, i);
            }
            mean(|d, w| d.abs() * w)
        }
        LossKind::Mspe => {
            let g = gl / nf * 2.0;
            for (i, o) in seed.iter_mut().enumerate() {
                *o = g * (d(i) * w(i)) * w(i);
            }
            mean(|d, w| (d * w) * (d * w))
        }
        LossKind::Hybrid => {
            let (g_mape, g_sq) = (gl * lambda, gl / nf * 2.0);
            for (i, o) in seed.iter_mut().enumerate() {
                *o = abs_grad(g_mape, i) + g_sq * d(i);
            }
            mean(|d, _| d * d) + mean(|d, w| d.abs() * w) * lambda
        }
    }
}

fn make_optimizer(tcfg: &TrainConfig) -> Box<dyn Optimizer> {
    match tcfg.optimizer {
        OptKind::Adam => Box::new(Adam::with_weight_decay(tcfg.lr, tcfg.weight_decay)),
        OptKind::Sgd => Box::new(Sgd::with_momentum(tcfg.lr, 0.9, tcfg.weight_decay)),
    }
}

/// Runs one optimization step on a batch; returns the loss value.
pub fn train_step(
    predictor: &mut Predictor,
    opt: &mut dyn Optimizer,
    batch: &Batch,
    y_t: &[f32],
    loss_kind: LossKind,
    lambda: f32,
) -> f64 {
    predictor.store.zero_grad();
    let mut g = Graph::new();
    let Ok(out) = predictor.forward(&mut g, batch.x.clone(), batch.dev.clone()) else {
        return f64::NAN;
    };
    let Ok(loss) = build_loss(&mut g, out.pred, y_t, loss_kind, lambda) else {
        return f64::NAN;
    };
    let value = g.value(loss).item() as f64;
    if g.backward(loss).is_err() {
        return value;
    }
    let _ = g.write_param_grads(&mut predictor.store);
    if !clip_and_step(&mut predictor.store, opt, 5.0) {
        return f64::NAN;
    }
    value
}

/// Rows per gradient shard of [`train_step_parallel`]. Fixed — never
/// derived from the thread count — so the shard partition, and therefore
/// every floating-point reduction, is a function of the batch alone.
const SHARD_ROWS: usize = 16;

/// One shard's contribution: its weighted loss and per-parameter weighted
/// gradients (indexed by `ParamId::index`).
struct ShardOut {
    loss: f64,
    grads: Vec<Option<Tensor>>,
    failed: bool,
}

/// Runs forward + backward for batch rows `[r0, r1)` on a private tape,
/// returning gradients scaled by the shard's weight `w = (r1-r0)/n` so the
/// reduced sum equals the full-batch gradient.
fn run_shard(
    predictor: &Predictor,
    batch: &Batch,
    y_t: &[f32],
    loss_kind: LossKind,
    lambda: f32,
    rows: std::ops::Range<usize>,
    w: f32,
) -> ShardOut {
    let failed = ShardOut {
        loss: f64::NAN,
        grads: Vec::new(),
        failed: true,
    };
    let (r0, r1) = (rows.start, rows.end);
    let ns = r1 - r0;
    let x_stride = batch.x.shape()[1] * batch.x.shape()[2];
    let d_stride = batch.dev.shape()[1];
    let Ok(x) = Tensor::from_vec(
        batch.x.data()[r0 * x_stride..r1 * x_stride].to_vec(),
        &[ns, batch.x.shape()[1], batch.x.shape()[2]],
    ) else {
        return failed;
    };
    let Ok(dev) = Tensor::from_vec(
        batch.dev.data()[r0 * d_stride..r1 * d_stride].to_vec(),
        &[ns, d_stride],
    ) else {
        return failed;
    };
    let mut g = Graph::new();
    let Ok(out) = predictor.forward(&mut g, x, dev) else {
        return failed;
    };
    let Ok(loss) = build_loss(&mut g, out.pred, &y_t[r0..r1], loss_kind, lambda) else {
        return failed;
    };
    let value = g.value(loss).item() as f64 * w as f64;
    // Weight the shard in-graph: backward from `w · loss` seeds the whole
    // tape with `w`, so every parameter gradient comes out pre-weighted and
    // no post-hoc per-tensor scaling pass is needed. When w == 1.0 (a batch
    // that fits one shard) the scale node is skipped entirely, keeping the
    // single-shard case bit-identical to `train_step`.
    let root = if w == 1.0 { loss } else { g.scale(loss, w) };
    if g.backward(root).is_err() {
        return failed;
    }
    // Zero copies for the common case: gradients move out of the tape; a
    // parameter read through several leaves folds duplicates in with `+=`.
    let mut grads: Vec<Option<Tensor>> = (0..predictor.store.len()).map(|_| None).collect();
    for (pid, gt) in g.take_param_grads() {
        match &mut grads[pid.index()] {
            Some(t) => {
                let _ = t.add_assign(&gt);
            }
            slot @ None => *slot = Some(gt),
        }
    }
    ShardOut {
        loss: value,
        grads,
        failed: false,
    }
}

/// Merges shard `b` into shard `a` (`a += b`), element-wise over losses and
/// gradients. Merge order is fixed by the reduction tree, not by threads.
fn merge_shards(a: &mut ShardOut, b: ShardOut) {
    a.loss += b.loss;
    a.failed |= b.failed;
    if a.grads.is_empty() {
        a.grads = b.grads;
        return;
    }
    for (ga, gb) in a.grads.iter_mut().zip(b.grads) {
        match (ga, gb) {
            (Some(x), Some(y)) => {
                let _ = x.add_assign(&y);
            }
            (slot @ None, Some(y)) => *slot = Some(y),
            (_, None) => {}
        }
    }
}

/// One optimization step with data-parallel gradient accumulation.
///
/// The batch is cut into `SHARD_ROWS`-row (16-row) shards; each shard runs
/// forward + backward on its own tape across `pool`, and the shard
/// gradients are combined by a fixed-order binary tree reduction before
/// clipping and the optimizer step. Both the partition and the reduction
/// order depend only on the batch, so the updated weights are
/// **bit-identical for every pool size** (a 1-thread pool included, which
/// also matches [`train_step`] exactly when the batch fits in one shard).
///
/// Sharding is applied even on a 1-thread pool — a deliberate tradeoff:
/// it costs ~15% per step on one core (per-shard tapes and gradient
/// buffers), but an "unsharded when serial" fast path would give a
/// different floating-point trajectory per thread count and break the
/// determinism contract above. Callers that want the cheapest strictly
/// serial step (and don't need thread-count reproducibility) can use
/// [`train_step`] directly.
///
/// Returns the loss value, or NaN (without stepping) if any shard failed.
pub fn train_step_parallel(
    predictor: &mut Predictor,
    opt: &mut dyn Optimizer,
    batch: &Batch,
    y_t: &[f32],
    loss_kind: LossKind,
    lambda: f32,
    pool: &parallel::ThreadPool,
) -> f64 {
    let n = y_t.len();
    // Mirror train_step's graceful-NaN contract for malformed inputs: a
    // label/batch length mismatch would otherwise slice x out of bounds
    // inside a worker and panic through the scope.
    if n == 0 || n != batch.x.shape()[0] || n != batch.dev.shape()[0] {
        return f64::NAN;
    }
    predictor.store.zero_grad();
    let n_shards = n.div_ceil(SHARD_ROWS);
    let shards: Vec<ShardOut> = {
        let pred: &Predictor = predictor;
        pool.run_indexed(n_shards, |s| {
            let r0 = s * SHARD_ROWS;
            let r1 = (r0 + SHARD_ROWS).min(n);
            let w = (r1 - r0) as f32 / n as f32;
            run_shard(pred, batch, y_t, loss_kind, lambda, r0..r1, w)
        })
    };
    // Fixed-order binary tree: (0,1)(2,3)… then pairs of pairs, until one
    // accumulated shard remains.
    let mut level = shards;
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut it = level.into_iter();
        while let Some(mut a) = it.next() {
            if let Some(b) = it.next() {
                merge_shards(&mut a, b);
            }
            next.push(a);
        }
        level = next;
    }
    let total = level.pop().expect("at least one shard");
    if total.failed {
        return f64::NAN;
    }
    for (id, slot) in predictor.store.ids().zip(total.grads) {
        if let Some(g) = slot {
            let _ = predictor.store.add_to_grad(id, &g);
        }
    }
    if !clip_and_step(&mut predictor.store, opt, 5.0) {
        return f64::NAN;
    }
    total.loss
}

/// Replay state of the compiled training step: one [`TrainExec`] (arena +
/// offsets) per `(leaf count, seeded outputs, domain)` actually trained,
/// plus the seed and shard-loss buffers the loss head writes. Keep one per
/// training loop; after the first step of a shape, a step does not
/// allocate — replay, loss head, clip and optimizer update included.
#[derive(Default)]
pub struct CompiledStep {
    execs: StepExecs,
    seed: Vec<f32>,
    shard_loss: Vec<f64>,
}

/// The executors of a [`CompiledStep`], keyed `(leaf count, seeded
/// outputs, domain)`.
#[derive(Default)]
pub(crate) struct StepExecs(Vec<((usize, StepSeeds, usize), TrainExec)>);

impl StepExecs {
    /// The executor for `leaves` under `seeds`. `domain` keeps two batches
    /// of one leaf count (fine-tuning's source and target) in arenas of
    /// their own, since both forwards are live until both backwards ran.
    pub(crate) fn get(
        &mut self,
        predictor: &Predictor,
        leaves: usize,
        seeds: StepSeeds,
        domain: usize,
    ) -> PredictResult<&mut TrainExec> {
        let plan = predictor.train_plan_for(leaves, seeds)?;
        let key = (leaves, seeds, domain);
        let i = match self.0.iter().position(|(k, _)| *k == key) {
            // A stepper may outlive a model: an executor is only valid for
            // the plan it was built from.
            Some(i) if std::sync::Arc::ptr_eq(self.0[i].1.plan(), &plan) => i,
            Some(i) => {
                self.0[i].1 = TrainExec::new(plan);
                i
            }
            None => {
                self.0.push((key, TrainExec::new(plan)));
                self.0.len() - 1
            }
        };
        Ok(&mut self.0[i].1)
    }

    /// The executor [`StepExecs::get`] last handed out for this key.
    pub(crate) fn find(
        &self,
        leaves: usize,
        seeds: StepSeeds,
        domain: usize,
    ) -> Option<&TrainExec> {
        let key = (leaves, seeds, domain);
        self.0.iter().find(|(k, _)| *k == key).map(|(_, e)| e)
    }
}

impl CompiledStep {
    /// Creates an empty stepper.
    pub fn new() -> Self {
        Self::default()
    }

    /// One optimization step, bit-identical to [`train_step_parallel`] on
    /// any pool: 16-row gradient shards, `rows / n` loss weights, fixed
    /// tree reduction — on one thread, from one arena.
    pub fn step_sharded(
        &mut self,
        predictor: &mut Predictor,
        opt: &mut dyn Optimizer,
        batch: &Batch,
        y_t: &[f32],
        loss_kind: LossKind,
        lambda: f32,
    ) -> f64 {
        self.regression_step(predictor, opt, batch, y_t, loss_kind, lambda, SHARD_ROWS)
    }

    /// One optimization step, bit-identical to [`train_step`]: the whole
    /// batch is one shard.
    pub fn step(
        &mut self,
        predictor: &mut Predictor,
        opt: &mut dyn Optimizer,
        batch: &Batch,
        y_t: &[f32],
        loss_kind: LossKind,
        lambda: f32,
    ) -> f64 {
        self.regression_step(predictor, opt, batch, y_t, loss_kind, lambda, usize::MAX)
    }

    /// Returns the loss value, or NaN (without stepping) on malformed
    /// input — the taped steps' contract.
    #[allow(clippy::too_many_arguments)]
    fn regression_step(
        &mut self,
        predictor: &mut Predictor,
        opt: &mut dyn Optimizer,
        batch: &Batch,
        y_t: &[f32],
        loss_kind: LossKind,
        lambda: f32,
        shard_rows: usize,
    ) -> f64 {
        let n = y_t.len();
        if n == 0 || batch.x.shape().len() != 3 || n != batch.x.shape()[0] {
            return f64::NAN;
        }
        let shard_rows = shard_rows.min(n);
        predictor.store.zero_grad();
        let inputs = [&batch.x, &batch.dev];
        let Self {
            execs,
            seed,
            shard_loss,
        } = self;
        let Ok(exec) = execs.get(predictor, batch.x.shape()[1], StepSeeds::Pred, 0) else {
            return f64::NAN;
        };
        if exec.forward(&predictor.store, &inputs).is_err() {
            return f64::NAN;
        }
        // One loss head per shard, over the shard's replayed predictions;
        // its gradient, pre-weighted by the shard's `rows / n`, is the
        // shard's seed.
        let pred = exec.output(PLAN_OUT_PRED);
        if seed.len() < n {
            seed.resize(n, 0.0);
        }
        shard_loss.clear();
        for r0 in (0..n).step_by(shard_rows) {
            let r1 = (r0 + shard_rows).min(n);
            let w = (r1 - r0) as f32 / n as f32;
            let rows = r0..r1;
            let value = loss_head(
                loss_kind,
                lambda,
                &pred[rows.clone()],
                &y_t[rows.clone()],
                w,
                &mut seed[rows],
            );
            shard_loss.push(value as f64 * w as f64);
        }
        let seeds = [&seed[..n]];
        if exec
            .backward(&mut predictor.store, &inputs, &seeds, shard_rows)
            .is_err()
        {
            return f64::NAN;
        }
        if !clip_and_step(&mut predictor.store, opt, 5.0) {
            return f64::NAN;
        }
        // The shard losses add up in the gradients' tree order.
        let losses = shard_loss;
        let mut stride = 1;
        while stride < losses.len() {
            for i in (0..losses.len() - stride).step_by(2 * stride) {
                losses[i] += losses[i + stride];
            }
            stride *= 2;
        }
        losses[0]
    }
}

/// Pre-trains a predictor on `train_idx`, early-validating on `valid_idx`.
pub fn pretrain(
    ds: &Dataset,
    train_idx: &[usize],
    valid_idx: &[usize],
    pcfg: PredictorConfig,
    tcfg: TrainConfig,
) -> (TrainedModel, TrainStats) {
    assert!(!train_idx.is_empty(), "empty training set");
    let theta = pcfg.theta;
    let mut train = encode_records(ds, train_idx, theta, tcfg.use_pe);
    let scaler = FeatScaler::fit(&train);
    scaler.apply_all(&mut train);
    let train_labels: Vec<f64> = train.iter().map(|s| s.y_raw).collect();
    let transform = tcfg.transform.fit(&train_labels);
    let mut model = TrainedModel {
        predictor: Predictor::new(pcfg),
        transform,
        scaler,
        use_pe: tcfg.use_pe,
        train_config: tcfg.clone(),
    };
    let mut opt = make_optimizer(&tcfg);
    let schedule = CyclicLr {
        base_lr: tcfg.lr * 0.2,
        max_lr: tcfg.lr,
        step_size: ((train.len() / tcfg.batch_size.max(1)).max(1) * 2) as u64,
    };
    let mut rng = StdRng::seed_from_u64(tcfg.seed);
    let mut stepper = CompiledStep::new();
    let start = Instant::now();
    let mut samples = 0usize;
    let mut step = 0u64;
    let mut final_loss = f64::NAN;
    let mut best_val = f64::INFINITY;
    let mut best_params: Option<nn::ParamStore> = None;
    let mut y_t: Vec<f32> = Vec::new();
    for epoch in 0..tcfg.epochs {
        let batches = make_batches(&train, tcfg.batch_size, &mut rng);
        for b in &batches {
            if tcfg.cyclic_lr {
                opt.set_lr(schedule.lr_at(step));
            }
            y_t.clear();
            y_t.extend(b.y_raw.iter().map(|&y| model.transform.forward(y) as f32));
            final_loss = stepper.step_sharded(
                &mut model.predictor,
                opt.as_mut(),
                b,
                &y_t,
                tcfg.loss,
                tcfg.lambda,
            );
            samples += b.record_idx.len();
            step += 1;
        }
        // Keep the best-on-validation parameters (cheap early stopping).
        if !valid_idx.is_empty() && (epoch + 1) % 2 == 0 {
            let metrics = evaluate(&model, ds, valid_idx);
            if metrics.mape < best_val {
                best_val = metrics.mape;
                best_params = Some(model.predictor.store.clone());
            }
        }
    }
    if let Some(p) = best_params {
        model.predictor.store = p;
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let stats = TrainStats {
        throughput: samples as f64 / elapsed,
        samples,
        final_loss,
    };
    (model, stats)
}

impl TrainedModel {
    /// Predicts latencies (seconds) for dataset records.
    pub fn predict_records(&self, ds: &Dataset, idx: &[usize]) -> Vec<f64> {
        let theta = self.predictor.config().theta;
        let enc = encode_records(ds, idx, theta, self.use_pe);
        self.predict_samples(&enc)
    }

    /// Predicts latencies (seconds) for pre-encoded (unscaled) samples:
    /// group by leaf count, standardize during the batch-building copy (so
    /// samples are never cloned wholesale), replay each dense batch through
    /// its compiled plan and scatter back to input order. Batches whose leaf
    /// count the predictor does not support come back as NaN (the serving
    /// engine in `runtime` surfaces the descriptive error instead).
    pub fn predict_samples(&self, enc: &[EncodedSample]) -> Vec<f64> {
        let mut runner = crate::PlanRunner::new();
        let run = |b: &Batch| -> Result<_, Infallible> {
            let preds = self.predictor.predict_planned(&mut runner, &b.x, &b.dev);
            Ok(match preds {
                Ok(preds) => preds
                    .iter()
                    .map(|&p| self.transform.inverse(p as f64).max(1e-12))
                    .collect(),
                Err(_) => vec![f64::NAN; b.record_idx.len()],
            })
        };
        predict_by_leaf(enc, &self.scaler, run).unwrap_or_else(|e| match e {})
    }

    /// Latent representations for dataset records. A record whose leaf
    /// count the predictor does not support gets a row of NaN, as
    /// [`TrainedModel::predict_samples`] answers NaN for it (so a
    /// [`crate::latent_cmd`] over such records is NaN).
    pub fn latents(&self, ds: &Dataset, idx: &[usize]) -> Vec<Vec<f64>> {
        let theta = self.predictor.config().theta;
        let enc = encode_records(ds, idx, theta, self.use_pe);
        let d = self.predictor.config().d_emb + self.predictor.config().d_dev;
        let mut runner = crate::PlanRunner::new();
        let run = |b: &Batch| -> Result<_, Infallible> {
            Ok(self
                .predictor
                .latent_planned(&mut runner, &b.x, &b.dev)
                .unwrap_or_else(|_| vec![vec![f64::NAN; d]; b.record_idx.len()]))
        };
        predict_by_leaf(&enc, &self.scaler, run).unwrap_or_else(|e| match e {})
    }

    /// Freezes the model for serving: weights behind an `Arc`, transform
    /// and scaler cloned. The result is cheap to clone and safe to share
    /// across any number of inference threads. Its weights stay f32; see
    /// [`TrainedModel::freeze_quantized`] to pick the storage format.
    pub fn freeze(&self) -> InferenceModel {
        self.freeze_quantized(tensor::QuantMode::F32)
    }

    /// [`TrainedModel::freeze`] with the weight storage format chosen
    /// explicitly: `I8` quantizes every weight matrix once at this freeze
    /// (~4× smaller serving weights, dequantized a k-block at a time in
    /// front of the prepacked GEMM). The frozen copy's f32
    /// values hold the dequantized numbers, so all of its executors remain
    /// bit-identical to each other; predictions differ from an f32 freeze
    /// by the quantization error (bounded by the bench accuracy gate). The
    /// training-side model is untouched.
    pub fn freeze_quantized(&self, mode: tensor::QuantMode) -> InferenceModel {
        InferenceModel {
            predictor: self.predictor.share_quantized(mode),
            transform: self.transform.clone(),
            scaler: self.scaler.clone(),
            use_pe: self.use_pe,
        }
    }

    /// [`TrainedModel::freeze`] by move: the weights are transferred into
    /// the served `Arc` without the copy `freeze` pays (only the gradient
    /// buffers are dropped). Use when the training-side model is done —
    /// the CLI's train-then-serve flow and snapshot loading both do.
    pub fn into_frozen(self) -> InferenceModel {
        InferenceModel {
            predictor: self.predictor.into_shared(),
            transform: self.transform,
            scaler: self.scaler,
            use_pe: self.use_pe,
        }
    }
}

/// A frozen, thread-shareable trained model: the serving counterpart of
/// [`TrainedModel`]. Built with [`TrainedModel::freeze`]; consumed by the
/// `runtime` crate's `InferenceEngine` (and usable directly for
/// single-threaded serving).
#[derive(Clone)]
pub struct InferenceModel {
    /// The predictor with `Arc`-shared read-only weights.
    pub predictor: SharedPredictor,
    /// Fitted label transform (applied to latencies in seconds).
    pub transform: FittedTransform,
    /// Fitted input-feature standardizer.
    pub scaler: FeatScaler,
    /// Whether PE was used at training time (must match at inference).
    pub use_pe: bool,
}

impl InferenceModel {
    /// Maps one transformed-space prediction back to seconds.
    pub fn inverse_transform(&self, p: f32) -> f64 {
        self.transform.inverse(p as f64).max(1e-12)
    }

    /// Predicts latencies (seconds) for pre-encoded, unscaled samples on
    /// the current thread, bucketing by leaf count. Unlike
    /// [`TrainedModel::predict_samples`] this propagates errors (e.g.
    /// [`crate::predictor::PredictError::LeafCountOutOfRange`]) instead of
    /// yielding NaN.
    pub fn predict_samples(&self, enc: &[EncodedSample]) -> PredictResult<Vec<f64>> {
        let mut runner = crate::PlanRunner::new();
        self.predict_samples_with(&mut runner, enc)
    }

    /// [`InferenceModel::predict_samples`] through a caller-owned
    /// [`crate::PlanRunner`], so a long-lived thread replays the cached
    /// compiled plans with zero per-batch allocation. Each leaf group is one
    /// batch; the `runtime` engine instead chunks groups at its `max_batch`
    /// and replays each chunk with [`SharedPredictor::predict_planned`].
    pub fn predict_samples_with(
        &self,
        runner: &mut crate::PlanRunner,
        enc: &[EncodedSample],
    ) -> PredictResult<Vec<f64>> {
        self.predict_any(runner, enc)
    }

    /// [`InferenceModel::predict_samples_with`] over any sample view.
    pub(crate) fn predict_any<S: SampleLike>(
        &self,
        runner: &mut crate::PlanRunner,
        enc: &[S],
    ) -> PredictResult<Vec<f64>> {
        predict_by_leaf(enc, &self.scaler, |b| {
            let preds = self.predictor.predict_planned(runner, &b.x, &b.dev)?;
            Ok(preds.iter().map(|&p| self.inverse_transform(p)).collect())
        })
    }
}

/// Evaluates a trained model on record indices.
pub fn evaluate(model: &TrainedModel, ds: &Dataset, idx: &[usize]) -> EvalMetrics {
    let preds = model.predict_records(ds, idx);
    let truth = ds.latencies(idx);
    let pred_ms: Vec<f64> = preds.iter().map(|&p| p * 1e3).collect();
    let truth_ms: Vec<f64> = truth.iter().map(|&t| t * 1e3).collect();
    EvalMetrics {
        mape: mape(&preds, &truth),
        rmse_ms: rmse(&pred_ms, &truth_ms),
        acc20: accuracy_within(&preds, &truth, 0.2),
        acc10: accuracy_within(&preds, &truth, 0.1),
        acc5: accuracy_within(&preds, &truth, 0.05),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::{GenConfig, SplitIndices};
    use tir::zoo;

    fn small_setup() -> (Dataset, SplitIndices) {
        let ds = Dataset::generate_with_networks(
            GenConfig {
                batch: 1,
                schedules_per_task: 4,
                devices: vec![devsim::t4()],
                seed: 5,
                noise_sigma: 0.0,
            },
            vec![zoo::bert_tiny(1), zoo::mlp_mixer(1)],
        );
        let split = SplitIndices::for_device(&ds, "T4", &[], 1);
        (ds, split)
    }

    fn quick_train(
        ds: &Dataset,
        split: &SplitIndices,
        tcfg: TrainConfig,
    ) -> (TrainedModel, TrainStats) {
        let pcfg = PredictorConfig {
            d_model: 16,
            n_layers: 1,
            d_ff: 32,
            d_emb: 12,
            ..Default::default()
        };
        pretrain(ds, &split.train, &split.valid, pcfg, tcfg)
    }

    #[test]
    fn training_beats_trivial_baseline() {
        let (ds, split) = small_setup();
        let tcfg = TrainConfig {
            epochs: 25,
            ..Default::default()
        };
        let (model, stats) = quick_train(&ds, &split, tcfg);
        let m = evaluate(&model, &ds, &split.test);
        // Trivial baseline: predict the training median for everything.
        let mut lat = ds.latencies(&split.train);
        lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = lat[lat.len() / 2];
        let truth = ds.latencies(&split.test);
        let trivial = mape(&vec![median; truth.len()], &truth);
        assert!(
            m.mape < 0.6 * trivial,
            "model MAPE {:.3} vs trivial {:.3}",
            m.mape,
            trivial
        );
        assert!(stats.throughput > 0.0);
    }

    #[test]
    fn predictions_are_positive_seconds() {
        let (ds, split) = small_setup();
        let (model, _) = quick_train(
            &ds,
            &split,
            TrainConfig {
                epochs: 4,
                ..Default::default()
            },
        );
        let preds = model.predict_records(&ds, &split.test);
        assert!(preds.iter().all(|&p| p > 0.0 && p.is_finite()));
    }

    #[test]
    fn loss_kinds_all_train() {
        let (ds, split) = small_setup();
        for kind in [
            LossKind::Mse,
            LossKind::Mape,
            LossKind::Mspe,
            LossKind::Hybrid,
        ] {
            let tcfg = TrainConfig {
                epochs: 2,
                loss: kind,
                ..Default::default()
            };
            let (_, stats) = quick_train(&ds, &split, tcfg);
            assert!(stats.final_loss.is_finite(), "{kind:?}");
        }
    }

    #[test]
    fn eval_metrics_consistent() {
        let (ds, split) = small_setup();
        let (model, _) = quick_train(
            &ds,
            &split,
            TrainConfig {
                epochs: 10,
                ..Default::default()
            },
        );
        let m = evaluate(&model, &ds, &split.test);
        assert!(m.acc5 <= m.acc10 && m.acc10 <= m.acc20);
        assert!(m.mape >= 0.0 && m.rmse_ms >= 0.0);
    }

    #[test]
    fn latents_have_expected_dims() {
        let (ds, split) = small_setup();
        let (model, _) = quick_train(
            &ds,
            &split,
            TrainConfig {
                epochs: 2,
                ..Default::default()
            },
        );
        let zs = model.latents(&ds, &split.test[..4.min(split.test.len())]);
        let d = model.predictor.config().d_emb + model.predictor.config().d_dev;
        for z in zs {
            assert_eq!(z.len(), d);
            assert!(z.iter().all(|v| v.abs() <= 1.0));
        }
    }
}
