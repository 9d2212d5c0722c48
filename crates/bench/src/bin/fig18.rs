//! Fig 18: effect of latent distribution difference (CMD) on
//! generalization — CMD between train and test subsets vs test error.
//!
//! Paper: test error grows with the CMD between the training and test
//! latent distributions, for both cross-model (a) and cross-device (b)
//! settings. We report the (CMD, error) series and their correlation.

use bench::{claim_check, standard_dataset, train_cdmpp};
use cdmpp_core::{evaluate, latent_cmd};
use dataset::SplitIndices;
use learn::spearman;

fn main() {
    // (a) Cross-model: subsets of T4 test records grouped by network.
    let ds = standard_dataset(
        vec![devsim::t4(), devsim::v100(), devsim::epyc_7452()],
        bench::spt_multi(),
    );
    let split = SplitIndices::for_device(&ds, "T4", &[], bench::EXP_SEED);
    let (model, _) = train_cdmpp(&ds, &split, bench::epochs());
    let train_sample: Vec<usize> = split.train.iter().copied().take(200).collect();
    println!("Fig 18(a): per-network test subsets on T4 (train domain = T4 mixture)\n");
    println!("{:>14}  {:>8}  {:>8}", "subset", "CMD", "MAPE");
    let mut cmds = Vec::new();
    let mut errs = Vec::new();
    for net in [
        "resnet50",
        "bert_base",
        "mobilenet_v2",
        "vgg16",
        "gpt2_small",
        "mlp_mixer",
    ] {
        let subset: Vec<usize> = split
            .test
            .iter()
            .copied()
            .filter(|&i| ds.task_in_networks(ds.records[i].task_id, &[net]))
            .collect();
        if subset.len() < 5 {
            continue;
        }
        let cmd = latent_cmd(&model, &ds, &train_sample, &subset, 3);
        let err = evaluate(&model, &ds, &subset).mape;
        println!("{net:>14}  {cmd:>8.4}  {err:>8.3}");
        cmds.push(cmd);
        errs.push(err);
    }
    println!("\nFig 18(b): per-device test subsets (train domain = T4)\n");
    println!("{:>14}  {:>8}  {:>8}", "device", "CMD", "MAPE");
    for dev in ["T4", "V100", "EPYC-7452"] {
        let subset: Vec<usize> = SplitIndices::for_device(&ds, dev, &[], 1).test;
        let cmd = latent_cmd(&model, &ds, &train_sample, &subset, 3);
        let err = evaluate(&model, &ds, &subset).mape;
        println!("{dev:>14}  {cmd:>8.4}  {err:>8.3}");
        cmds.push(cmd);
        errs.push(err);
    }
    let rho = spearman(&cmds, &errs);
    println!("\nSpearman(CMD, error) over all subsets: {rho:.3}");
    claim_check(
        "positive correlation — larger latent CMD, larger test error",
        rho > 0.0,
        &format!("Spearman {rho:.3} over {} subsets", cmds.len()),
    );
}
