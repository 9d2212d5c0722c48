//! Fig 10: cross-device prediction error at the TIR level.
//!
//! Three source→target combinations (§7.3): GPUs → a GPU (T4),
//! GPUs+CPUs → a CPU (EPYC), GPUs → the inference accelerator (HL-100).
//! CDMPP pre-trains on the sources and fine-tunes with Algorithm-1-sampled
//! target records + CMD. Baselines: TLP (relative-time, per-device heads)
//! and Habitat (op-level MLP + roofline scaling; GPUs only).

use baselines::{HabitatModel, MlpRegConfig, TlpConfig, TlpModel, TlpSample};
use bench::{
    claim_check, pct, print_header, print_row, records_by_task, standard_dataset, train_cdmpp,
};
use cdmpp_core::{evaluate, finetune, select_tasks, FineTuneConfig};
use dataset::{Dataset, SplitIndices};
use learn::mape;

fn cdmpp_cross(ds: &Dataset, sources: &[&str], target: &str, kappa: usize) -> f64 {
    let mut src_idx = Vec::new();
    for s in sources {
        src_idx.extend(ds.device_records(s));
    }
    let mut src_split = SplitIndices::from_indices(ds, src_idx, &[], bench::EXP_SEED);
    src_split.train.truncate(16_000);
    let (mut model, _) = train_cdmpp(ds, &src_split, bench::epochs());
    // Algorithm 1: pick representative tasks using source-side latents.
    let tgt_all = ds.device_records(target);
    let tgt_split = SplitIndices::from_indices(ds, tgt_all, &[], bench::EXP_SEED);
    let src_dev = sources[0];
    let by_task = records_by_task(ds, &ds.device_records(src_dev));
    let mut task_feats = std::collections::HashMap::new();
    for (tid, recs) in &by_task {
        let sample: Vec<usize> = recs.iter().copied().take(8).collect();
        task_feats.insert(*tid, model.latents(ds, &sample));
    }
    let chosen = select_tasks(&task_feats, kappa, bench::EXP_SEED);
    // "Profile" the chosen tasks on the target = use their target records.
    let tgt_labeled: Vec<usize> = tgt_split
        .train
        .iter()
        .copied()
        .filter(|&i| chosen.contains(&ds.records[i].task_id))
        .collect();
    let cfg = FineTuneConfig {
        steps: 200,
        use_target_labels: true,
        ..Default::default()
    };
    finetune(&mut model, ds, &src_split.train, &tgt_labeled, &cfg);
    evaluate(&model, ds, &tgt_split.test).mape
}

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
    let tgt_split = SplitIndices::from_indices(ds, ds.device_records(target), &[], bench::EXP_SEED);
    let mut preds = Vec::new();
    let mut truth = Vec::new();
    for &i in &tgt_split.test {
        let r = &ds.records[i];
        let spec = ds.tasks[r.task_id as usize].spec;
        // Head + scale from the first source device (no target scale exists).
        if let Some(p) = m.predict_absolute(&spec, &r.schedule, r.task_id, sources[0], sources[0]) {
            preds.push(p);
            truth.push(r.latency_s);
        }
    }
    mape(&preds, &truth)
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
    let tgt_split = SplitIndices::from_indices(ds, ds.device_records(target), &[], bench::EXP_SEED);
    let mut preds = Vec::new();
    let mut truth = Vec::new();
    for &i in &tgt_split.test {
        let r = &ds.records[i];
        let spec = ds.tasks[r.task_id as usize].spec;
        if let Some(p) = m.predict_cross_device(&spec, &src_dev, &tgt_dev) {
            preds.push(p);
            truth.push(r.latency_s);
        }
    }
    mape(&preds, &truth)
}

fn main() {
    let ds = standard_dataset(devsim::all_devices(), bench::spt_multi());
    println!("Fig 10: cross-device TIR-level MAPE\n");
    let widths = [26, 12, 12, 12, 12];
    print_header(
        &["Source -> Target", "CDMPP", "TLP", "Habitat", ""],
        &widths,
    );
    let cases: Vec<(&str, Vec<&str>, &str, bool)> = vec![
        (
            "GPUs -> T4",
            vec!["K80", "P100", "V100", "A100"],
            "T4",
            true,
        ),
        (
            "GPUs -> P100",
            vec!["T4", "K80", "V100", "A100"],
            "P100",
            true,
        ),
        (
            "GPUs+CPUs -> EPYC",
            vec!["T4", "V100", "E5-2673", "Graviton2"],
            "EPYC-7452",
            false,
        ),
        (
            "GPUs -> HL-100",
            vec!["T4", "K80", "P100", "V100", "A100"],
            "HL-100",
            false,
        ),
    ];
    // Rows where CDMPP's error is not the lowest.
    let mut beaten = Vec::new();
    for (name, sources, target, habitat_applicable) in cases {
        let c = cdmpp_cross(&ds, &sources, target, 20);
        let t = tlp_cross(&ds, &sources, target);
        // Habitat supports GPUs only (§7.3).
        let h = habitat_applicable.then(|| habitat_cross(&ds, sources[0], target));
        if !(c <= t && h.is_none_or(|h| c <= h)) {
            let h = h.map_or("n/a".to_string(), pct);
            beaten.push(format!(
                "{name}: CDMPP {} vs TLP {} / Habitat {h}",
                pct(c),
                pct(t)
            ));
        }
        print_row(
            &[
                name.to_string(),
                pct(c),
                pct(t),
                h.map_or("n/a".to_string(), pct),
                String::new(),
            ],
            &widths,
        );
    }
    println!("\nnote: TLP predicts relative time and has no target-device scale; Habitat is n/a");
    println!("on non-GPU targets (paper: GPUs only).");
    claim_check(
        "CDMPP lowest in every row",
        beaten.is_empty(),
        &beaten.join("; "),
    );
}
