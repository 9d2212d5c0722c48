//! Shared experiment harness for the paper-reproduction binaries.
//!
//! Every `fig*`/`table*` binary in `src/bin/` builds on these helpers:
//! a standard seeded dataset, training wrappers for CDMPP and each
//! baseline, and plain-text table printing. Absolute numbers differ from
//! the paper (simulated devices, ~1000× smaller data, ~100× smaller
//! model); the *comparisons* are what README's "Accuracy" section tracks.

use std::collections::HashMap;
use std::time::Instant;

pub mod cross;

use baselines::{GbtConfig, GbtRegressor, TiramisuConfig, TiramisuModel};
use cdmpp_core::{
    evaluate, pretrain, EvalMetrics, PredictorConfig, TrainConfig, TrainStats, TrainedModel,
};
use dataset::{Dataset, GenConfig, SplitIndices};
use devsim::DeviceSpec;
use features::flattened_features;
use learn::{mape, rmse};

/// Seed used by every experiment unless stated otherwise.
pub const EXP_SEED: u64 = 42;

/// Experiment scale, switchable via the `CDMPP_SCALE` env var
/// (`full` = paper-shaped runs, `quick` = CI smoke runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full experiment scale (default).
    Full,
    /// Reduced scale for time-boxed runs.
    Mid,
    /// Fast smoke-test scale.
    Quick,
}

/// Reads the experiment scale from the environment.
pub fn scale() -> Scale {
    match std::env::var("CDMPP_SCALE").as_deref() {
        Ok("quick") => Scale::Quick,
        Ok("mid") => Scale::Mid,
        _ => Scale::Full,
    }
}

/// Schedules per task for single-device experiments: ≈ 31k records a
/// device at quick (240 per task over the zoo's 131 tasks) and ≈ 126k at
/// mid and full (960), the regime where CDMPP reaches the paper's < 16%
/// MAPE (README, "Accuracy"). Records on different devices share one
/// lowered program.
pub fn spt_single() -> usize {
    match scale() {
        Scale::Full | Scale::Mid => 960,
        Scale::Quick => 240,
    }
}

/// Schedules per task for multi-device experiments: a quarter of
/// [`spt_single`], because these bins hold every device's records and
/// encode several devices' training sets at once.
pub fn spt_multi() -> usize {
    spt_single() / 4
}

/// Optimizer updates a pre-training run takes, by scale: at mid, twelve
/// epochs over one device's training split at [`spt_single`].
pub fn updates() -> usize {
    match scale() {
        Scale::Full => 30_000,
        Scale::Mid => 18_000,
        Scale::Quick => 4_500,
    }
}

/// Pre-training epochs that give a training set of `train_records`
/// records [`updates`] optimizer updates at B = 64 (at least one epoch).
pub fn epochs(train_records: usize) -> usize {
    (updates() * 64).div_ceil(train_records.max(1)).max(1)
}

/// Builds the standard experiment dataset on the given devices.
pub fn standard_dataset(devices: Vec<DeviceSpec>, schedules_per_task: usize) -> Dataset {
    Dataset::generate(GenConfig {
        batch: 1,
        schedules_per_task,
        devices,
        seed: EXP_SEED,
        noise_sigma: 0.03,
    })
}

/// The default (CPU-scale) predictor architecture used by experiments —
/// the best configuration found by the auto-tuner at this scale.
pub fn default_pcfg() -> PredictorConfig {
    PredictorConfig {
        d_model: 48,
        n_layers: 3,
        heads: 4,
        d_ff: 96,
        d_emb: 32,
        ..Default::default()
    }
}

/// The default experiment training configuration.
pub fn default_tcfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 64,
        lr: 1.5e-3,
        ..Default::default()
    }
}

/// Trains CDMPP on one split.
pub fn train_cdmpp(
    ds: &Dataset,
    split: &SplitIndices,
    epochs: usize,
) -> (TrainedModel, TrainStats) {
    pretrain(
        ds,
        &split.train,
        &split.valid,
        default_pcfg(),
        default_tcfg(epochs),
    )
}

/// Result of one (method, device) cell of a comparison figure.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Method name.
    pub method: String,
    /// TIR-level MAPE (fraction).
    pub mape: f64,
    /// RMSE in milliseconds.
    pub rmse_ms: f64,
    /// Training throughput (samples/s), if measured.
    pub throughput: Option<f64>,
}

/// A fitted baseline's [`MethodResult`] from its predictions and the truth
/// (seconds).
fn method_result(method: &str, preds: &[f64], truth: &[f64], throughput: f64) -> MethodResult {
    let pred_ms: Vec<f64> = preds.iter().map(|p| p * 1e3).collect();
    let truth_ms: Vec<f64> = truth.iter().map(|t| t * 1e3).collect();
    MethodResult {
        method: method.into(),
        mape: mape(preds, truth),
        rmse_ms: rmse(&pred_ms, &truth_ms),
        throughput: Some(throughput),
    }
}

/// A fitted GBT baseline with its training throughput.
pub struct FittedGbt {
    /// The ensemble.
    pub model: GbtRegressor,
    /// Training throughput (samples × rounds / second).
    pub throughput: f64,
}

/// Fits the XGBoost-style GBT baseline on training records
/// (log-latency labels on flattened structure-free features).
pub fn fit_gbt(ds: &Dataset, train_idx: &[usize]) -> FittedGbt {
    let xs: Vec<Vec<f32>> = train_idx
        .iter()
        .map(|&i| flattened_features(&ds.records[i].program))
        .collect();
    let ys: Vec<f32> = train_idx
        .iter()
        .map(|&i| ds.records[i].latency_s.ln() as f32)
        .collect();
    let start = Instant::now();
    let model = GbtRegressor::fit(&xs, &ys, GbtConfig::default());
    let train_time = start.elapsed().as_secs_f64();
    FittedGbt {
        model,
        throughput: xs.len() as f64 * 80.0 / train_time.max(1e-9),
    }
}

impl FittedGbt {
    /// Predicts latencies (seconds) for record indices.
    pub fn predict(&self, ds: &Dataset, idx: &[usize]) -> Vec<f64> {
        idx.iter()
            .map(|&i| {
                (self
                    .model
                    .predict(&flattened_features(&ds.records[i].program)) as f64)
                    .exp()
            })
            .collect()
    }

    /// Evaluates into a [`MethodResult`].
    pub fn eval(&self, ds: &Dataset, idx: &[usize]) -> MethodResult {
        let preds = self.predict(ds, idx);
        method_result("XGBoost", &preds, &ds.latencies(idx), self.throughput)
    }
}

/// A fitted Tiramisu baseline.
pub struct FittedTiramisu {
    /// The recursive-LSTM model (labels in milliseconds).
    pub model: TiramisuModel,
    /// Training throughput (samples/s).
    pub throughput: f64,
}

impl FittedTiramisu {
    /// Predicts latencies (seconds).
    pub fn predict(&self, ds: &Dataset, idx: &[usize]) -> Vec<f64> {
        idx.iter()
            .map(|&i| self.model.predict(&ds.records[i].program) * 1e-3)
            .collect()
    }

    /// Evaluates into a [`MethodResult`].
    pub fn eval(&self, ds: &Dataset, idx: &[usize]) -> MethodResult {
        let preds = self.predict(ds, idx);
        method_result("Tiramisu", &preds, &ds.latencies(idx), self.throughput)
    }
}

/// Fits the Tiramisu baseline on (up to `max_train`) training records.
/// The cap keeps wall time sane: the recursive LSTM trains one sample per
/// step, and that slowness is what §7.2 measures.
pub fn fit_tiramisu(
    ds: &Dataset,
    train_idx: &[usize],
    max_train: usize,
    epochs: usize,
) -> FittedTiramisu {
    let train: Vec<usize> = train_idx.iter().copied().take(max_train).collect();
    let progs: Vec<&tir::TensorProgram> = train.iter().map(|&i| &*ds.records[i].program).collect();
    let labels: Vec<f64> = train
        .iter()
        .map(|&i| ds.records[i].latency_s * 1e3)
        .collect();
    let mut model = TiramisuModel::new(TiramisuConfig {
        epochs,
        ..Default::default()
    });
    let start = Instant::now();
    let processed = model.fit(&progs, &labels);
    let train_time = start.elapsed().as_secs_f64();
    FittedTiramisu {
        model,
        throughput: processed as f64 / train_time.max(1e-9),
    }
}

/// Evaluates a trained CDMPP model into a [`MethodResult`].
pub fn cdmpp_result(
    model: &TrainedModel,
    ds: &Dataset,
    eval_idx: &[usize],
    stats: Option<&TrainStats>,
) -> MethodResult {
    let m: EvalMetrics = evaluate(model, ds, eval_idx);
    MethodResult {
        method: "CDMPP".into(),
        mape: m.mape,
        rmse_ms: m.rmse_ms,
        throughput: stats.map(|s| s.throughput),
    }
}

/// A GBT-backed cost model for the schedule-search comparison (Fig 14b):
/// the fitted baseline scores a program by its predicted log latency.
pub struct GbtCost(pub FittedGbt);

impl cdmpp_core::CostModel for GbtCost {
    fn score(&self, prog: &tir::TensorProgram, _dev: &DeviceSpec) -> f64 {
        self.0.model.predict(&flattened_features(prog)) as f64
    }
}

/// Prints a computed verdict on one of the paper's claims: `PASS` when
/// `pass` holds, else `FAIL` followed by `detail` (the numbers it failed
/// on).
pub fn claim_check(claim: &str, pass: bool, detail: &str) {
    if pass {
        println!("claim check: PASS: {claim}");
    } else {
        println!("claim check: FAIL: {claim} ({detail})");
    }
}

/// Prints a fixed-width table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths.iter())
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

/// Prints a header + separator.
pub fn print_header(cells: &[&str], widths: &[usize]) {
    print_row(
        &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    println!("{}", "-".repeat(total));
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Groups record indices of one device by task for sampler experiments.
pub fn records_by_task(ds: &Dataset, idx: &[usize]) -> HashMap<u32, Vec<usize>> {
    let mut m: HashMap<u32, Vec<usize>> = HashMap::new();
    for &i in idx {
        m.entry(ds.records[i].task_id).or_default().push(i);
    }
    m
}
