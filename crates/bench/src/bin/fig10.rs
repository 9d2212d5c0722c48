//! Fig 10: cross-device prediction error at the TIR level.
//!
//! Three source→target combinations (§7.3): GPUs → a GPU (T4),
//! GPUs+CPUs → a CPU (EPYC), GPUs → the inference accelerator (HL-100).
//! CDMPP pre-trains on the sources and fine-tunes with Algorithm-1-sampled
//! target records + CMD (the tuned recipe, and the paper's beside it; each
//! the median over three fine-tuning seeds); the same pre-trained model is
//! also scored before fine-tuning (`bench::cross`). Baselines: TLP (relative-time, per-device
//! heads) and Habitat (op-level MLP + roofline scaling; GPUs only).
//!
//! The "fine-tuned < not fine-tuned" ordering is written as rows to the
//! committed `BENCH_fig10.json`:
//!
//! ```text
//! CDMPP_SCALE=quick cargo run --release -p bench --bin fig10
//! ```
//!
//! A FAIL is a non-replication of the paper's ordering at that scale,
//! reported as such (README, "Accuracy").

use baselines::{HabitatModel, MlpRegConfig, TlpConfig, TlpModel, TlpSample};
use bench::cross::{
    fig10_cdmpp, median, paper_recipe, tuned_recipe, write_rows, FIG10_CASES, FIG10_KAPPA, FT_SEEDS,
};
use bench::{claim_check, pct, print_header, print_row, standard_dataset};
use dataset::{Dataset, Record, SplitIndices};
use learn::mape;

fn tlp_cross(ds: &Dataset, sources: &[&str], target: &str) -> f64 {
    // TLP trains heads per source device on relative labels and keeps one
    // head for the target trained on the sampled target records; absolute
    // time needs a per-task scale, which only the *source* provides.
    let mut samples = Vec::new();
    for dev in sources {
        for &i in &ds.device_records(dev) {
            let r = &ds.records[i];
            samples.push(TlpSample {
                spec: ds.tasks[r.task_id as usize].spec,
                task_id: r.task_id,
                schedule: (*r.schedule).clone(),
                device: r.device.clone(),
                latency_s: r.latency_s,
            });
        }
    }
    let devices: Vec<String> = sources.iter().map(|s| s.to_string()).collect();
    let mut m = TlpModel::new(
        &devices,
        TlpConfig {
            epochs: 20,
            ..Default::default()
        },
    );
    m.fit(&samples);
    // Head + scale from the first source device (no target scale exists).
    target_mape(ds, target, |r| {
        let spec = ds.tasks[r.task_id as usize].spec;
        m.predict_absolute(&spec, &r.schedule, r.task_id, sources[0], sources[0])
    })
}

fn habitat_cross(ds: &Dataset, source: &str, target: &str) -> f64 {
    // Habitat: per-op MLP on the source device, roofline-scaled to target.
    let src_dev = devsim::device_by_name(source).expect("known device");
    let tgt_dev = devsim::device_by_name(target).expect("known device");
    let src_split = SplitIndices::from_indices(ds, ds.device_records(source), &[], bench::EXP_SEED);
    let samples: Vec<(tir::OpSpec, f64)> = src_split
        .train
        .iter()
        .map(|&i| {
            (
                ds.tasks[ds.records[i].task_id as usize].spec,
                ds.records[i].latency_s,
            )
        })
        .collect();
    let mut m = HabitatModel::new(MlpRegConfig {
        epochs: 40,
        ..Default::default()
    });
    m.fit(&samples);
    target_mape(ds, target, |r| {
        m.predict_cross_device(&ds.tasks[r.task_id as usize].spec, &src_dev, &tgt_dev)
    })
}

/// MAPE over `target`'s test split, on the records `predict` answers.
fn target_mape(ds: &Dataset, target: &str, predict: impl Fn(&Record) -> Option<f64>) -> f64 {
    let split = SplitIndices::from_indices(ds, ds.device_records(target), &[], bench::EXP_SEED);
    let (preds, truth): (Vec<f64>, Vec<f64>) = split
        .test
        .iter()
        .filter_map(|&i| predict(&ds.records[i]).map(|p| (p, ds.records[i].latency_s)))
        .unzip();
    mape(&preds, &truth)
}

fn main() {
    let ds = standard_dataset(devsim::all_devices(), bench::spt_multi());
    println!("Fig 10: cross-device TIR-level MAPE\n");
    let widths = [26, 12, 14, 14, 12, 12];
    print_header(
        &[
            "Source -> Target",
            "CDMPP",
            "CDMPP no FT",
            "CDMPP paper FT",
            "TLP",
            "Habitat",
        ],
        &widths,
    );
    // Rows where CDMPP's error is not the lowest, and where fine-tuning
    // did not lower it.
    let (mut beaten, mut no_gain, mut rows) = (Vec::new(), Vec::new(), Vec::new());
    for case in &FIG10_CASES {
        let (name, sources, target) = (case.name, case.sources, case.target);
        let (pre, [tuned, paper]) = fig10_cdmpp(&ds, case);
        let (c, c_paper) = (median(&tuned), median(&paper));
        let t = tlp_cross(&ds, sources, target);
        // Habitat supports GPUs only (§7.3).
        let h = case.habitat.then(|| habitat_cross(&ds, sources[0], target));
        if !(c <= t && h.is_none_or(|h| c <= h)) {
            let h = h.map_or("n/a".to_string(), pct);
            beaten.push(format!(
                "{name}: CDMPP {} vs TLP {} / Habitat {h}",
                pct(c),
                pct(t)
            ));
        }
        if c >= pre {
            no_gain.push(format!("{name}: {} -> {}", pct(pre), pct(c)));
        }
        for (recipe, mapes, m) in [("tuned", tuned, c), ("paper", paper, c_paper)] {
            rows.push(format!(
                "{{\"case\": \"{name}\", \"target\": \"{target}\", \"sources\": {sources:?}, \
                 \"recipe\": \"{recipe}\", \"not_fine_tuned_mape\": {pre:.6}, \
                 \"fine_tuned_mape\": {m:.6}, \"fine_tuned_mape_per_seed\": [{}], \
                 \"holds\": {}}}",
                mapes.map(|x| format!("{x:.6}")).join(", "),
                m < pre
            ));
        }
        print_row(
            &[
                name.to_string(),
                pct(c),
                pct(pre),
                pct(c_paper),
                pct(t),
                h.map_or("n/a".to_string(), pct),
            ],
            &widths,
        );
    }
    println!("\nnote: \"CDMPP\" is fine-tuned under the tuned recipe and \"CDMPP paper FT\" under");
    println!(
        "the paper's (alpha = 1, lr 5e-4), each the median over fine-tuning seeds {FT_SEEDS:?};"
    );
    println!("\"CDMPP no FT\" is the same pre-trained model before fine-tuning. TLP");
    println!("predicts relative time and has no target-device scale; Habitat is n/a on");
    println!("non-GPU targets (paper: GPUs only).");
    claim_check(
        "CDMPP lowest in every row",
        beaten.is_empty(),
        &beaten.join("; "),
    );
    let claim = "fine-tuned CDMPP below the same model not fine-tuned, on every target";
    claim_check(claim, no_gain.is_empty(), &no_gain.join("; "));
    write_rows(
        "fig10",
        &format!(
            "CDMPP only. Each target's test-split MAPE of one model pre-trained on the sources, \
             before and after fine-tuning (200 steps, CMD) on the target records of the \
             {FIG10_KAPPA} tasks Algorithm 1 picks; after = the median over fine-tuning seeds \
             {FT_SEEDS:?}. recipe tuned = alpha {}, lr {}; recipe paper = alpha {}, lr {} (a \
             non-replication row). holds = lower after than before; the claim is judged on the \
             tuned rows.",
            tuned_recipe().alpha,
            tuned_recipe().lr,
            paper_recipe().alpha,
            paper_recipe().lr
        ),
        claim,
        no_gain.is_empty(),
        &rows,
    );
}
