//! Fig 7 (and Fig 15): cross-model prediction error on hold-out networks.
//!
//! Tasks used by the hold-out networks (ResNet-50 / MobileNet-V2 /
//! BERT-tiny) are excluded from pre-training; each method then predicts
//! the hold-out tensor programs. CDMPP additionally fine-tunes with the
//! CMD objective using the target network's *input features only* (§5.3,
//! §7.6). Paper: CDMPP lowest error on both the T4 and EPYC panels.

use bench::{
    claim_check, fit_gbt, fit_tiramisu, pct, print_header, print_row, standard_dataset, train_cdmpp,
};
use cdmpp_core::{evaluate, finetune, FineTuneConfig};
use dataset::SplitIndices;
use tir::HOLD_OUT;

fn main() {
    let devices = vec![devsim::t4(), devsim::epyc_7452()];
    let ds = standard_dataset(devices.clone(), bench::spt_multi());
    println!("Fig 7: cross-model MAPE on hold-out networks\n");
    let widths = [12, 14, 12, 12, 12];
    print_header(
        &["Device", "Target net", "CDMPP", "XGBoost", "Tiramisu"],
        &widths,
    );
    // (device, target) pairs where CDMPP's error is not the lowest.
    let (mut pairs, mut beaten) = (0usize, Vec::new());
    for dev in &devices {
        let split = SplitIndices::for_device(&ds, &dev.name, &HOLD_OUT, bench::EXP_SEED);
        let (base_model, _) = train_cdmpp(&ds, &split, bench::epochs());
        let gbt = fit_gbt(&ds, &split.train);
        let tira = fit_tiramisu(&ds, &split.train, 300, 2);
        for target in HOLD_OUT {
            let tgt_idx: Vec<usize> = split
                .hold_out
                .iter()
                .copied()
                .filter(|&i| ds.task_in_networks(ds.records[i].task_id, &[target]))
                .collect();
            if tgt_idx.is_empty() {
                continue;
            }
            // CMPP fine-tuning: input features of the target network only.
            let mut model = base_model.clone();
            let cfg = FineTuneConfig {
                steps: 80,
                use_target_labels: false,
                ..Default::default()
            };
            finetune(&mut model, &ds, &split.train, &tgt_idx, &cfg);
            let c = evaluate(&model, &ds, &tgt_idx);
            let x = gbt.eval(&ds, &tgt_idx);
            let t = tira.eval(&ds, &tgt_idx);
            pairs += 1;
            if !(c.mape <= x.mape && c.mape <= t.mape) {
                beaten.push(format!(
                    "{}/{target} {} vs XGBoost {} / Tiramisu {}",
                    dev.name,
                    pct(c.mape),
                    pct(x.mape),
                    pct(t.mape)
                ));
            }
            print_row(
                &[
                    dev.name.clone(),
                    target.to_string(),
                    pct(c.mape),
                    pct(x.mape),
                    pct(t.mape),
                ],
                &widths,
            );
        }
    }
    println!();
    claim_check(
        "CDMPP achieves the lowest error for every (device, target) pair",
        pairs > 0 && beaten.is_empty(),
        &format!(
            "not lowest on {} of {pairs}: {}",
            beaten.len(),
            beaten.join("; ")
        ),
    );
}
