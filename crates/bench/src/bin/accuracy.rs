//! The accuracy instrument at the CLI recipe: how good the served model is,
//! and how far that is from the paper.
//!
//! The recipe is the one `cdmpp train T4` and the benchmark's fixture use:
//! T4, 24 schedules per task, 12 epochs, B = 64, `lr` 1.5e-3, default
//! predictor, on the CLI's dataset (generated at seed 0). Seed s drives the
//! split and the training, so seed 0 is the CLI's model. Over seeds 0, 1
//! and 2, for CDMPP and for the
//! GBT baseline on `flattened_features`, it reports test MAPE, median APE,
//! mean |ln(pred/true)|, the share of the APE sum carried by the worst 10%
//! of records, and train vs test MAPE; and the noise floor, the noiseless
//! simulator scored against the noisy labels. Every figure is given per
//! seed and as median [min, max] over the seeds, and written to
//! `BENCH_accuracy.json` at the workspace root (override with
//! `BENCH_ACCURACY_JSON`).
//!
//! ```text
//! cargo run --release -p bench --bin accuracy   # ~10 s
//! ```
//!
//! The paper's claims this measures (< 16% MAPE on a device, and CDMPP
//! ahead of XGBoost) are printed as computed claim checks; at this data
//! scale they do not replicate (README, "Accuracy").

use bench::{claim_check, fit_gbt, pct};
use cdmpp_core::{pretrain, PredictorConfig, TrainConfig};
use dataset::{Dataset, GenConfig, SplitIndices};
use devsim::Simulator;
use learn::mape;

const SEEDS: [u64; 3] = [0, 1, 2];
const SCHEDULES_PER_TASK: usize = 24;
const EPOCHS: usize = 12;
const BATCH: usize = 64;

/// The error metrics of one method on one record set.
#[derive(Debug, Clone, Copy)]
struct Errors {
    mape: f64,
    median_ape: f64,
    mean_abs_log: f64,
    worst10_share: f64,
}

fn errors(pred: &[f64], truth: &[f64]) -> Errors {
    let mut ape: Vec<f64> = pred
        .iter()
        .zip(truth)
        .map(|(p, t)| ((p - t) / t).abs())
        .collect();
    ape.sort_by(f64::total_cmp);
    let sum: f64 = ape.iter().sum();
    let worst = ape.len().div_ceil(10);
    Errors {
        mape: mape(pred, truth),
        median_ape: ape[ape.len() / 2],
        mean_abs_log: pred
            .iter()
            .zip(truth)
            .map(|(p, t)| (p / t).ln().abs())
            .sum::<f64>()
            / pred.len() as f64,
        worst10_share: ape[ape.len() - worst..].iter().sum::<f64>() / sum,
    }
}

/// One method at one seed: test errors and train MAPE.
#[derive(Debug, Clone, Copy)]
struct MethodRun {
    test: Errors,
    train_mape: f64,
}

/// Everything measured at one seed.
struct SeedRun {
    seed: u64,
    records: [usize; 3],
    cdmpp: MethodRun,
    gbt: MethodRun,
    noise_floor: f64,
}

fn run(ds: &Dataset, seed: u64) -> SeedRun {
    let dev = devsim::t4();
    let split = SplitIndices::for_device(ds, &dev.name, &[], seed);
    let (model, _) = pretrain(
        ds,
        &split.train,
        &split.valid,
        PredictorConfig::default(),
        TrainConfig {
            epochs: EPOCHS,
            batch_size: BATCH,
            lr: 1.5e-3,
            seed,
            ..Default::default()
        },
    );
    let gbt = fit_gbt(ds, &split.train);
    let (train_truth, test_truth) = (ds.latencies(&split.train), ds.latencies(&split.test));
    let cdmpp = MethodRun {
        test: errors(&model.predict_records(ds, &split.test), &test_truth),
        train_mape: mape(&model.predict_records(ds, &split.train), &train_truth),
    };
    let gbt = MethodRun {
        test: errors(&gbt.predict(ds, &split.test), &test_truth),
        train_mape: mape(&gbt.predict(ds, &split.train), &train_truth),
    };
    let sim = Simulator::new(dev);
    let noiseless: Vec<f64> = split
        .test
        .iter()
        .map(|&i| sim.latency_seconds(&ds.records[i].program))
        .collect();
    SeedRun {
        seed,
        records: [split.train.len(), split.valid.len(), split.test.len()],
        cdmpp,
        gbt,
        noise_floor: mape(&noiseless, &test_truth),
    }
}

/// Median, min and max over the seeds.
fn spread(v: impl Iterator<Item = f64>) -> [f64; 3] {
    let mut v: Vec<f64> = v.collect();
    v.sort_by(f64::total_cmp);
    [v[v.len() / 2], v[0], v[v.len() - 1]]
}

/// The (name, per-seed value) rows of one method.
fn fields(runs: &[SeedRun], m: fn(&SeedRun) -> MethodRun) -> Vec<(&'static str, Vec<f64>)> {
    let col = |f: fn(MethodRun) -> f64| runs.iter().map(|r| f(m(r))).collect::<Vec<f64>>();
    vec![
        ("test_mape", col(|m| m.test.mape)),
        ("test_median_ape", col(|m| m.test.median_ape)),
        ("test_mean_abs_ln_ratio", col(|m| m.test.mean_abs_log)),
        ("test_worst10_ape_share", col(|m| m.test.worst10_share)),
        ("train_mape", col(|m| m.train_mape)),
    ]
}

fn json_list(v: &[f64]) -> String {
    let cells: Vec<String> = v.iter().map(|x| format!("{x:.6}")).collect();
    format!("[{}]", cells.join(", "))
}

fn json_method(runs: &[SeedRun], m: fn(&SeedRun) -> MethodRun) -> String {
    let rows: Vec<String> = fields(runs, m)
        .into_iter()
        .map(|(name, per_seed)| {
            let [med, lo, hi] = spread(per_seed.iter().copied());
            format!(
                "    \"{name}\": {{\"per_seed\": {}, \"median\": {med:.6}, \"range\": [{lo:.6}, {hi:.6}]}}",
                json_list(&per_seed)
            )
        })
        .collect();
    format!("{{\n{}\n  }}", rows.join(",\n"))
}

fn main() {
    let ds = Dataset::generate(GenConfig {
        batch: 1,
        schedules_per_task: SCHEDULES_PER_TASK,
        devices: vec![devsim::t4()],
        seed: 0,
        noise_sigma: 0.03,
    });
    let runs: Vec<SeedRun> = SEEDS.iter().map(|&s| run(&ds, s)).collect();

    println!(
        "Accuracy at the CLI recipe: T4, {SCHEDULES_PER_TASK} schedules per task, \
         {EPOCHS} epochs, B = {BATCH}; seeds {SEEDS:?}\n"
    );
    println!(
        "{:>6}  {:>8}  {:>10}  {:>9}  {:>9}  {:>9}  {:>8}  {:>10}",
        "seed", "method", "test MAPE", "med APE", "|ln r|", "worst10%", "train", "noise floor"
    );
    for r in &runs {
        for (name, m) in [("CDMPP", r.cdmpp), ("GBT", r.gbt)] {
            println!(
                "{:>6}  {:>8}  {:>10}  {:>9}  {:>9.3}  {:>9}  {:>8}  {:>10}",
                r.seed,
                name,
                pct(m.test.mape),
                pct(m.test.median_ape),
                m.test.mean_abs_log,
                pct(m.test.worst10_share),
                pct(m.train_mape),
                pct(r.noise_floor),
            );
        }
    }
    let summary = |m: fn(&SeedRun) -> MethodRun| spread(runs.iter().map(|r| m(r).test.mape));
    let (c, g) = (summary(|r| r.cdmpp), summary(|r| r.gbt));
    let line = |[med, lo, hi]: [f64; 3]| format!("{} [{}, {}]", pct(med), pct(lo), pct(hi));
    println!(
        "\ntest MAPE, median [min, max]: CDMPP {}, GBT {}",
        line(c),
        line(g)
    );
    claim_check(
        "CDMPP < 16% MAPE on the device (seed median)",
        c[0] < 0.16,
        &format!("CDMPP {}", pct(c[0])),
    );
    claim_check(
        "CDMPP more accurate than XGBoost (seed median)",
        c[0] < g[0],
        &format!("CDMPP {} vs GBT {}", pct(c[0]), pct(g[0])),
    );

    let noise = spread(runs.iter().map(|r| r.noise_floor));
    let records: Vec<String> = runs
        .iter()
        .map(|r| format!("[{}, {}, {}]", r.records[0], r.records[1], r.records[2]))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"accuracy\",\n  \"note\": \"CLI recipe: T4, {SCHEDULES_PER_TASK} \
         schedules per task, {EPOCHS} epochs, B = {BATCH}, lr 1.5e-3, default predictor, on the \
         CLI's dataset (generated at seed 0); seed s drives the split and the training (seed 0 \
         is the model `cdmpp train T4` and the benchmark fixture serve). Errors are fractions over the test split; \
         worst10_ape_share is the share of the APE sum carried by the worst 10% of test \
         records; noise_floor is the noiseless simulator against the noisy labels. GBT is the \
         XGBoost-style baseline on flattened_features.\",\n  \"device\": \"T4\",\n  \
         \"seeds\": {SEEDS:?},\n  \"records_train_valid_test\": [{}],\n  \"noise_floor\": \
         {{\"per_seed\": {}, \"median\": {:.6}, \"range\": [{:.6}, {:.6}]}},\n  \"cdmpp\": \
         {},\n  \"gbt\": {}\n}}\n",
        records.join(", "),
        json_list(&runs.iter().map(|r| r.noise_floor).collect::<Vec<_>>()),
        noise[0],
        noise[1],
        noise[2],
        json_method(&runs, |r| r.cdmpp),
        json_method(&runs, |r| r.gbt),
    );
    let path = std::env::var("BENCH_ACCURACY_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_accuracy.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("\nwrote {path}");
}
