//! Tables 4 & 5: MAPE and RMSE under different training objectives
//! (MSE / MAPE / MSPE / hybrid MSE+MAPE), cross-model on T4/A100/K80.
//!
//! Paper: the hybrid objective wins or ties on *both* metrics; MSPE is
//! the worst MAPE.

use bench::{
    claim_check, default_pcfg, default_tcfg, pct, print_header, print_row, standard_dataset,
};
use cdmpp_core::{evaluate, pretrain, LossKind};
use dataset::SplitIndices;

fn main() {
    let devices = vec![devsim::t4(), devsim::a100(), devsim::k80()];
    let ds = standard_dataset(devices.clone(), bench::spt_multi());
    let kinds = [
        LossKind::Mse,
        LossKind::Mape,
        LossKind::Mspe,
        LossKind::Hybrid,
    ];
    let mut mape_rows = Vec::new();
    let mut rmse_rows = Vec::new();
    // Devices and metrics where the hybrid objective is beaten.
    let mut beaten = Vec::new();
    for dev in &devices {
        let split = SplitIndices::for_device(&ds, &dev.name, &[], bench::EXP_SEED);
        let mut mrow = vec![dev.name.clone()];
        let mut rrow = vec![dev.name.clone()];
        let (mut mapes, mut rmses) = (Vec::new(), Vec::new());
        for kind in kinds {
            let mut tcfg = default_tcfg(bench::epochs(split.train.len()));
            tcfg.loss = kind;
            let (model, _) = pretrain(&ds, &split.train, &split.valid, default_pcfg(), tcfg);
            let m = evaluate(&model, &ds, &split.test);
            mrow.push(pct(m.mape));
            rrow.push(format!("{:.3}", m.rmse_ms));
            mapes.push(m.mape);
            rmses.push(m.rmse_ms);
        }
        // The hybrid objective is the last column.
        for (metric, xs) in [("MAPE", &mapes), ("RMSE", &rmses)] {
            let hybrid = xs[xs.len() - 1];
            if !xs.iter().all(|&x| hybrid <= x) {
                let row: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
                beaten.push(format!("{} {metric} {}", dev.name, row.join(" / ")));
            }
        }
        mape_rows.push(mrow);
        rmse_rows.push(rrow);
    }
    let widths = [10, 12, 12, 12, 12];
    println!("Table 4: MAPE (%) with different loss functions\n");
    print_header(&["Device", "MSE", "MAPE", "MSPE", "MSE+MAPE"], &widths);
    for r in &mape_rows {
        print_row(r, &widths);
    }
    println!("\nTable 5: RMSE (ms) with different loss functions\n");
    print_header(&["Device", "MSE", "MAPE", "MSPE", "MSE+MAPE"], &widths);
    for r in &rmse_rows {
        print_row(r, &widths);
    }
    println!();
    claim_check(
        "MSE+MAPE best-or-tied on both tables",
        beaten.is_empty(),
        &format!(
            "MSE / MAPE / MSPE / MSE+MAPE where beaten: {}",
            beaten.join("; ")
        ),
    );
}
