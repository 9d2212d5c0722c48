//! Fig 12: cross-device end-to-end performance prediction (targets P100
//! and V100), CDMPP vs Habitat against the measured replay.
//!
//! Paper: CDMPP 15.72% average error vs Habitat 28.01%.

use baselines::{HabitatModel, MlpRegConfig};
use bench::{pct, print_header, print_row, standard_dataset, train_cdmpp};
use cdmpp_core::replayer::{build_dfg, engine_count, replay};
use cdmpp_core::{finetune, sample_network_programs, FineTuneConfig};
use dataset::SplitIndices;
use devsim::Simulator;
use std::collections::HashMap;
use tir::Network;

fn replay_with(
    net: &Network,
    dev: &devsim::DeviceSpec,
    f: impl Fn(&tir::TensorProgram, &tir::Task) -> f64,
) -> f64 {
    let (task_ids, programs) = sample_network_programs(net, 7);
    let tasks = tir::build_tasks(std::slice::from_ref(net));
    let durs: Vec<f64> = programs
        .iter()
        .zip(tasks.iter())
        .map(|(p, t)| f(p, t))
        .collect();
    let by_task: HashMap<u32, f64> = task_ids.iter().copied().zip(durs.iter().copied()).collect();
    let layer_ids = tir::layer_task_ids(net, &tasks);
    let layer_durs: Vec<f64> = layer_ids.iter().map(|id| by_task[id]).collect();
    replay(&build_dfg(net, &layer_durs, dev), engine_count(dev))
}

fn main() {
    let ds = standard_dataset(devsim::all_devices(), bench::spt_multi());
    println!("Fig 12: cross-device end-to-end prediction error\n");
    let widths = [10, 18, 12, 12];
    print_header(&["Target", "Network", "CDMPP", "Habitat"], &widths);
    let nets: Vec<(&str, Network)> = vec![
        ("resnet50 (1)", tir::zoo::resnet50(1)),
        ("bert_tiny (1)", tir::zoo::bert_tiny(1)),
        ("vgg16 (1)", tir::zoo::vgg16(1)),
    ];
    let mut csum = 0.0;
    let mut hsum = 0.0;
    let mut n = 0.0;
    for target in ["P100", "V100"] {
        let tgt_dev = devsim::device_by_name(target).expect("known");
        let sources: Vec<&str> = ["T4", "K80", "P100", "V100", "A100"]
            .into_iter()
            .filter(|s| *s != target)
            .collect();
        let mut src_idx = Vec::new();
        for s in &sources {
            src_idx.extend(ds.device_records(s));
        }
        let mut src_split = SplitIndices::from_indices(&ds, src_idx, &[], bench::EXP_SEED);
        src_split.train.truncate(16_000);
        let tgt_split = SplitIndices::for_device(&ds, target, &[], bench::EXP_SEED);
        let (mut model, _) = train_cdmpp(&ds, &src_split, bench::epochs(src_split.train.len()));
        let sampled: Vec<usize> = tgt_split.train.iter().copied().take(400).collect();
        let cfg = FineTuneConfig {
            steps: 200,
            use_target_labels: true,
            ..Default::default()
        };
        finetune(&mut model, &ds, &src_split.train, &sampled, &cfg);
        // Habitat trains on the first source and roofline-scales to target.
        let src_dev = devsim::device_by_name(sources[0]).expect("known");
        let src_samples: Vec<(tir::OpSpec, f64)> =
            SplitIndices::for_device(&ds, sources[0], &[], 1)
                .train
                .iter()
                .map(|&i| {
                    (
                        ds.tasks[ds.records[i].task_id as usize].spec,
                        ds.records[i].latency_s,
                    )
                })
                .collect();
        let mut habitat = HabitatModel::new(MlpRegConfig {
            epochs: 40,
            ..Default::default()
        });
        habitat.fit(&src_samples);
        let sim = Simulator::new(tgt_dev.clone());
        for (name, net) in &nets {
            let measured = replay_with(net, &tgt_dev, |p, _| sim.latency_seconds(p));
            let c = replay_with(net, &tgt_dev, |p, _| {
                let enc = cdmpp_core::encode_programs(
                    &[p],
                    &tgt_dev,
                    model.predictor.config().theta,
                    model.use_pe,
                );
                model.predict_samples(&enc)[0]
            });
            let h = replay_with(net, &tgt_dev, |p, t| {
                habitat
                    .predict_cross_device(&t.spec, &src_dev, &tgt_dev)
                    .unwrap_or_else(|| Simulator::new(src_dev.clone()).latency_seconds(p))
            });
            let ce = (c - measured).abs() / measured;
            let he = (h - measured).abs() / measured;
            csum += ce;
            hsum += he;
            n += 1.0;
            print_row(
                &[target.to_string(), name.to_string(), pct(ce), pct(he)],
                &widths,
            );
        }
    }
    println!(
        "\naverage: CDMPP {} vs Habitat {} (paper: 15.72% vs 28.01%)",
        pct(csum / n),
        pct(hsum / n)
    );
}
