//! Fig 9 (and Fig 17): end-to-end performance prediction, cross-model.
//!
//! Each network is decomposed into tasks, one random schedule is sampled
//! per task, per-program latencies are predicted and the DFG is replayed
//! (Algorithm 2). Paper: CDMPP ~12% average error, far below XGBoost
//! (63.8%) and Tiramisu (293.6%); Fig 9(c) shows HL-100 (where GEMM-class
//! nodes split across the 3 GEMM engines).

use bench::{
    claim_check, fit_gbt, fit_tiramisu, pct, print_header, print_row, standard_dataset, train_cdmpp,
};
use cdmpp_core::replayer::{build_dfg, engine_count, replay};
use cdmpp_core::sample_network_programs;
use dataset::SplitIndices;
use devsim::Simulator;
use std::collections::HashMap;
use tir::Network;

/// Replays a network with per-task durations produced by `f`.
fn replay_with(
    net: &Network,
    dev: &devsim::DeviceSpec,
    seed: u64,
    f: impl Fn(&tir::TensorProgram) -> f64,
) -> f64 {
    let (task_ids, programs) = sample_network_programs(net, seed);
    let durs: Vec<f64> = programs.iter().map(f).collect();
    let by_task: HashMap<u32, f64> = task_ids.iter().copied().zip(durs.iter().copied()).collect();
    let tasks = tir::build_tasks(std::slice::from_ref(net));
    let layer_ids = tir::layer_task_ids(net, &tasks);
    let layer_durs: Vec<f64> = layer_ids.iter().map(|id| by_task[id]).collect();
    replay(&build_dfg(net, &layer_durs, dev), engine_count(dev))
}

fn main() {
    let devices = vec![devsim::t4(), devsim::v100(), devsim::hl100()];
    let ds = standard_dataset(devices.clone(), bench::spt_multi());
    let nets: Vec<(&str, Network)> = vec![
        ("resnet50 (1)", tir::zoo::resnet50(1)),
        ("bert_base (1)", tir::zoo::bert_base(1)),
        ("inception_v3 (1)", tir::zoo::inception_v3(1)),
        ("resnet50 (4)", tir::zoo::resnet50(4)),
    ];
    println!("Fig 9: end-to-end prediction error vs measured replay\n");
    let widths = [12, 18, 12, 12, 12];
    print_header(
        &["Device", "Network", "CDMPP", "XGBoost", "Tiramisu"],
        &widths,
    );
    let mut sums = [0.0f64; 3];
    let mut n = 0.0;
    for dev in &devices {
        let split = SplitIndices::for_device(&ds, &dev.name, &[], bench::EXP_SEED);
        let (model, _) = train_cdmpp(&ds, &split, bench::epochs(split.train.len()));
        let gbt = fit_gbt(&ds, &split.train);
        let tira = fit_tiramisu(&ds, &split.train, 300, 2);
        let sim = Simulator::new(dev.clone());
        for (name, net) in &nets {
            let measured = replay_with(net, dev, 7, |p| sim.latency_seconds(p));
            let c = replay_with(net, dev, 7, |p| {
                let enc = cdmpp_core::encode_programs(
                    &[p],
                    dev,
                    model.predictor.config().theta,
                    model.use_pe,
                );
                model.predict_samples(&enc)[0]
            });
            let x = replay_with(net, dev, 7, |p| {
                (gbt.model.predict(&features::flattened_features(p)) as f64).exp()
            });
            let t = replay_with(net, dev, 7, |p| tira.model.predict(p) * 1e-3);
            let errs = [
                (c - measured).abs() / measured,
                (x - measured).abs() / measured,
                (t - measured).abs() / measured,
            ];
            for (s, e) in sums.iter_mut().zip(errs) {
                *s += e;
            }
            n += 1.0;
            print_row(
                &[
                    dev.name.clone(),
                    name.to_string(),
                    pct(errs[0]),
                    pct(errs[1]),
                    pct(errs[2]),
                ],
                &widths,
            );
        }
    }
    let [c, x, t] = sums.map(|s| s / n);
    let averages = format!(
        "average e2e error: CDMPP {}, XGBoost {}, Tiramisu {}",
        pct(c),
        pct(x),
        pct(t)
    );
    println!("\n{averages}");
    claim_check(
        "CDMPP average far below both baselines: under half of each (paper: 12.4% vs 63.8% / 293.6%)",
        c < 0.5 * x && c < 0.5 * t,
        &averages,
    );
}
