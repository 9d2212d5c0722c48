//! Fig 14(a): MAPE with vs without the pre-order positional encoding.
//!
//! Paper: PE reduces the prediction error on every device tested.

use bench::{
    claim_check, default_pcfg, default_tcfg, pct, print_header, print_row, standard_dataset,
};
use cdmpp_core::{evaluate, pretrain};
use dataset::SplitIndices;

fn main() {
    let devices = vec![devsim::t4(), devsim::epyc_7452()];
    let ds = standard_dataset(devices.clone(), bench::spt_multi());
    println!("Fig 14(a): MAPE with and without positional encoding\n");
    let widths = [12, 12, 12];
    print_header(&["Device", "w/ PE", "w/o PE"], &widths);
    // Devices where PE does not lower the error.
    let mut failed = Vec::new();
    for dev in &devices {
        let split = SplitIndices::for_device(&ds, &dev.name, &[], bench::EXP_SEED);
        let mut cells = vec![dev.name.clone()];
        let mut mape = [0.0; 2];
        for (m, use_pe) in mape.iter_mut().zip([true, false]) {
            let mut tcfg = default_tcfg(bench::epochs(split.train.len()));
            tcfg.use_pe = use_pe;
            let (model, _) = pretrain(&ds, &split.train, &split.valid, default_pcfg(), tcfg);
            *m = evaluate(&model, &ds, &split.test).mape;
            cells.push(pct(*m));
        }
        print_row(&cells, &widths);
        let pe_lower = mape[0] < mape[1];
        if !pe_lower {
            failed.push(format!("{} {} vs {}", dev.name, pct(mape[0]), pct(mape[1])));
        }
    }
    println!();
    claim_check(
        "the w/ PE column is lower on every device",
        failed.is_empty(),
        &format!("w/ PE vs w/o PE: {}", failed.join("; ")),
    );
}
