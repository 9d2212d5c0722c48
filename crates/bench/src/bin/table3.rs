//! Table 3: MAPE under different label-normalization methods
//! (T4 / A100 / K80). Paper: Box-Cox best (14.8–17.5%), raw labels
//! catastrophic (~70%).

use bench::{
    claim_check, default_pcfg, default_tcfg, pct, print_header, print_row, standard_dataset,
};
use cdmpp_core::{evaluate, pretrain};
use dataset::SplitIndices;
use learn::TransformKind;

fn main() {
    let devices = vec![devsim::t4(), devsim::a100(), devsim::k80()];
    let ds = standard_dataset(devices.clone(), bench::spt_multi());
    println!("Table 3: MAPE (%) with different normalization methods\n");
    let widths = [10, 12, 14, 12, 12];
    print_header(
        &["Device", "Box-Cox", "Yeo-Johnson", "Quantile", "original Y"],
        &widths,
    );
    // Per device: the four MAPEs, in column order.
    let mut rows = Vec::new();
    for dev in &devices {
        let split = SplitIndices::for_device(&ds, &dev.name, &[], bench::EXP_SEED);
        let mut cells = vec![dev.name.clone()];
        let mut mape = [0.0f64; 4];
        for (m, kind) in mape.iter_mut().zip([
            TransformKind::BoxCox,
            TransformKind::YeoJohnson,
            TransformKind::Quantile,
            TransformKind::None,
        ]) {
            let mut tcfg = default_tcfg(bench::epochs());
            tcfg.transform = kind;
            let (model, _) = pretrain(&ds, &split.train, &split.valid, default_pcfg(), tcfg);
            *m = evaluate(&model, &ds, &split.test).mape;
            cells.push(pct(*m));
        }
        print_row(&cells, &widths);
        rows.push((dev.name.clone(), mape));
    }
    let table: Vec<String> = rows
        .iter()
        .map(|(d, m)| format!("{d} {}", m.map(pct).join(" / ")))
        .collect();
    let detail = format!(
        "Box-Cox / Yeo-Johnson / Quantile / original Y: {}",
        table.join("; ")
    );
    println!();
    claim_check(
        "Box-Cox lowest on every device",
        rows.iter().all(|(_, m)| m.iter().all(|&x| m[0] <= x)),
        &detail,
    );
    claim_check(
        "'original Y' much worse: at least twice Box-Cox's error on every device",
        rows.iter().all(|(_, m)| m[3] >= 2.0 * m[0]),
        &detail,
    );
}
