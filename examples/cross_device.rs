//! Cross-device adaptation (§5.3 + Algorithm 1): pre-train on GPUs, pick
//! representative tasks with KMeans sampling, "profile" them on an unseen
//! CPU, and fine-tune with the CMD objective.
//!
//! Run with: `cargo run --release --example cross_device`

use std::collections::HashMap;

use cdmpp::prelude::*;

fn main() {
    println!("generating GPUs + EPYC dataset...");
    let ds = Dataset::generate(GenConfig {
        batch: 1,
        schedules_per_task: 960,
        devices: vec![
            cdmpp::devsim::t4(),
            cdmpp::devsim::v100(),
            cdmpp::devsim::epyc_7452(),
        ],
        seed: 9,
        noise_sigma: 0.03,
    });
    let mut src_idx = ds.device_records("T4");
    src_idx.extend(ds.device_records("V100"));
    let src = SplitIndices::from_indices(&ds, src_idx, &[], 9);
    let tgt = SplitIndices::for_device(&ds, "EPYC-7452", &[], 9);

    // Two source devices at the CLI's 960 schedules per task: six epochs
    // give the CLI's ≈ 19k optimizer updates.
    println!("pre-training on GPUs ({} records)...", src.train.len());
    let (mut model, _) = pretrain(
        &ds,
        &src.train,
        &src.valid,
        PredictorConfig::default(),
        TrainConfig {
            epochs: 6,
            ..Default::default()
        },
    );
    let zero_shot = evaluate(&model, &ds, &tgt.test);
    println!("zero-shot MAPE on EPYC: {:.1}%", zero_shot.mape * 100.0);

    // Algorithm 1: select 15 representative tasks from source latents,
    // four schedules of every task.
    let probe: Vec<usize> = ds
        .device_records("V100")
        .into_iter()
        .filter(|&i| ds.records[i].schedule_id < 4)
        .collect();
    let mut task_feats: HashMap<u32, Vec<Vec<f64>>> = HashMap::new();
    for (&i, z) in probe.iter().zip(model.latents(&ds, &probe)) {
        task_feats.entry(ds.records[i].task_id).or_default().push(z);
    }
    let chosen = select_tasks(&task_feats, 15, 9);
    println!(
        "Algorithm 1 selected {} tasks to profile on the target",
        chosen.len()
    );

    // "Profile" those tasks on EPYC (the simulator stands in for the
    // device) and fine-tune with CMD regularization.
    let labeled: Vec<usize> = tgt
        .train
        .iter()
        .copied()
        .filter(|&i| chosen.contains(&ds.records[i].task_id))
        .collect();
    println!(
        "fine-tuning with {} profiled target records + CMD...",
        labeled.len()
    );
    finetune(
        &mut model,
        &ds,
        &src.train,
        &labeled,
        &FineTuneConfig {
            steps: 150,
            use_target_labels: true,
            ..Default::default()
        },
    );
    let adapted = evaluate(&model, &ds, &tgt.test);
    println!(
        "adapted MAPE on EPYC: {:.1}% (was {:.1}%)",
        adapted.mape * 100.0,
        zero_shot.mape * 100.0
    );
}
