//! The accuracy instrument: how good the served model is, and how far that
//! is from the paper, at two data scales.
//!
//! Both recipes train on T4 for 12 epochs at B = 64, `lr` 1.5e-3, default
//! predictor, on a dataset generated at seed 0; seed s drives the split and
//! the training. The **fixture** recipe (24 schedules per task) is the one
//! the benchmark's fixture trains. The **paper regime** (960 schedules per
//! task, ≈ 126k records) is the one `cdmpp train T4` trains, so its seed 0
//! is the CLI's model. Over seeds 0, 1 and 2, for CDMPP and for the GBT
//! baseline on `flattened_features`, it reports test MAPE, median APE,
//! mean |ln(pred/true)|, the share of the APE sum carried by the worst 10%
//! of records, and train vs test MAPE; and the noise floor, the noiseless
//! simulator scored against the noisy labels. Every figure is given per
//! seed and as median [min, max] over the seeds, and written to
//! `BENCH_accuracy.json` at the workspace root (override with
//! `BENCH_ACCURACY_JSON`): the fixture recipe at the top level, the paper
//! regime under `paper_regime`.
//!
//! ```text
//! cargo run --release -p bench --bin accuracy   # ~2 min
//! ```
//!
//! The paper's claims this measures (< 16% MAPE on a device, and CDMPP
//! ahead of XGBoost) are printed as computed claim checks per recipe
//! (README, "Accuracy").

use bench::{claim_check, fit_gbt, pct};
use cdmpp_core::{pretrain, PredictorConfig, TrainConfig};
use dataset::{Dataset, GenConfig, SplitIndices};
use devsim::Simulator;
use learn::mape;

const SEEDS: [u64; 3] = [0, 1, 2];
const EPOCHS: usize = 12;
const BATCH: usize = 64;

/// One data scale: schedules per task, and what trains at it.
struct Recipe {
    schedules_per_task: usize,
    who: &'static str,
}

const RECIPES: [Recipe; 2] = [
    Recipe {
        schedules_per_task: 24,
        who: "the benchmark fixture's recipe (the CLI's before it moved to 960)",
    },
    Recipe {
        schedules_per_task: 960,
        who: "the CLI's recipe (seed 0 is the model `cdmpp train T4` serves)",
    },
];

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

/// Trains and scores `recipe` at every seed, prints its table and claim
/// checks, and returns its JSON fields.
fn measure(recipe: &Recipe) -> String {
    let spt = recipe.schedules_per_task;
    let ds = Dataset::generate(GenConfig {
        batch: 1,
        schedules_per_task: spt,
        devices: vec![devsim::t4()],
        seed: 0,
        noise_sigma: 0.03,
    });
    let runs: Vec<SeedRun> = SEEDS.iter().map(|&s| run(&ds, s)).collect();

    println!(
        "\nAccuracy at {}: T4, {spt} schedules per task, {EPOCHS} epochs, B = {BATCH}; \
         seeds {SEEDS:?}\n",
        recipe.who
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
        &format!("CDMPP < 16% MAPE on the device at {spt} schedules per task (seed median)"),
        c[0] < 0.16,
        &format!("CDMPP {}", pct(c[0])),
    );
    claim_check(
        &format!("CDMPP more accurate than XGBoost at {spt} schedules per task (seed median)"),
        c[0] < g[0],
        &format!("CDMPP {} vs GBT {}", pct(c[0]), pct(g[0])),
    );

    let noise = spread(runs.iter().map(|r| r.noise_floor));
    let records: Vec<String> = runs
        .iter()
        .map(|r| format!("[{}, {}, {}]", r.records[0], r.records[1], r.records[2]))
        .collect();
    format!(
        "\"note\": \"{}: T4, {spt} schedules per task, {EPOCHS} epochs, B = {BATCH}, lr \
         1.5e-3, default predictor, on a dataset generated at seed 0; seed s drives the split \
         and the training. Errors are fractions over the test split; worst10_ape_share is the \
         share of the APE sum carried by the worst 10% of test records; noise_floor is the \
         noiseless simulator against the noisy labels. GBT is the XGBoost-style baseline on \
         flattened_features.\",\n  \"schedules_per_task\": {spt},\n  \"device\": \"T4\",\n  \
         \"seeds\": {SEEDS:?},\n  \"records_train_valid_test\": [{}],\n  \"noise_floor\": \
         {{\"per_seed\": {}, \"median\": {:.6}, \"range\": [{:.6}, {:.6}]}},\n  \"cdmpp\": \
         {},\n  \"gbt\": {}",
        recipe.who,
        records.join(", "),
        json_list(&runs.iter().map(|r| r.noise_floor).collect::<Vec<_>>()),
        noise[0],
        noise[1],
        noise[2],
        json_method(&runs, |r| r.cdmpp),
        json_method(&runs, |r| r.gbt),
    )
}

fn main() {
    let [fixture, paper] = RECIPES.each_ref().map(measure);
    let json = format!(
        "{{\n  \"bench\": \"accuracy\",\n  {fixture},\n  \"paper_regime\": {{\n    {}\n  }}\n}}\n",
        paper.replace("\n", "\n  ")
    );
    let path = std::env::var("BENCH_ACCURACY_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_accuracy.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("\nwrote {path}");
}
