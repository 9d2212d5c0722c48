//! Fig 6: TIR-level cross-model prediction error per device —
//! CDMPP vs XGBoost vs Tiramisu — plus the §7.2 training-throughput claim.
//!
//! Paper: CDMPP < 16% MAPE on most devices and beats both baselines on
//! every device; CDMPP trains ~10× faster than Tiramisu; XGBoost trains
//! faster than both. Devices are split into the GPU panel (Fig 6a) and the
//! accelerator/CPU panel (Fig 6b).

use bench::{
    cdmpp_result, claim_check, pct, print_header, print_row, run_gbt, run_tiramisu,
    standard_dataset, train_cdmpp,
};
use dataset::SplitIndices;

fn main() {
    let devices = devsim::all_devices();
    let ds = standard_dataset(devices.clone(), bench::spt_single());
    let widths = [12, 10, 10, 10, 14, 14, 14];
    println!("Fig 6: TIR-level prediction MAPE per device (pre-training)\n");
    print_header(
        &[
            "Device",
            "CDMPP",
            "XGBoost",
            "Tiramisu",
            "CDMPP sps",
            "XGB sps",
            "Tiramisu sps",
        ],
        &widths,
    );
    let mut tput = (0.0, 0.0, 0.0, 0usize);
    // Devices where CDMPP's MAPE is not the lowest of the three.
    let mut beaten = Vec::new();
    for dev in &devices {
        let split = SplitIndices::for_device(&ds, &dev.name, &[], bench::EXP_SEED);
        let (model, stats) = train_cdmpp(&ds, &split, bench::epochs(split.train.len()));
        let c = cdmpp_result(&model, &ds, &split.test, Some(&stats));
        let x = run_gbt(&ds, &split, &split.test);
        let t = run_tiramisu(&ds, &split, &split.test, 300, 2);
        print_row(
            &[
                dev.name.clone(),
                pct(c.mape),
                pct(x.mape),
                pct(t.mape),
                format!("{:.0}", c.throughput.unwrap_or(0.0)),
                format!("{:.0}", x.throughput.unwrap_or(0.0)),
                format!("{:.0}", t.throughput.unwrap_or(0.0)),
            ],
            &widths,
        );
        if !(c.mape <= x.mape && c.mape <= t.mape) {
            beaten.push(format!(
                "{} {} vs XGBoost {} / Tiramisu {}",
                dev.name,
                pct(c.mape),
                pct(x.mape),
                pct(t.mape)
            ));
        }
        tput.0 += c.throughput.unwrap_or(0.0);
        tput.1 += x.throughput.unwrap_or(0.0);
        tput.2 += t.throughput.unwrap_or(0.0);
        tput.3 += 1;
    }
    let n = tput.3 as f64;
    let (c, x, t) = (tput.0 / n, tput.1 / n, tput.2 / n);
    let means = format!(
        "mean training throughput (samples/s): CDMPP {c:.0}, XGBoost {x:.0}, Tiramisu {t:.0}"
    );
    println!("\n{means}");
    claim_check(
        "CDMPP lowest MAPE on every device",
        beaten.is_empty(),
        &format!(
            "not lowest on {} of {}: {}",
            beaten.len(),
            tput.3,
            beaten.join("; ")
        ),
    );
    let ratio = c / t;
    claim_check(
        "CDMPP trains ≈10x faster than Tiramisu (within 2x of it: 5x-20x)",
        (5.0..=20.0).contains(&ratio),
        &format!("{ratio:.1}x; {means}"),
    );
    claim_check("XGBoost trains fastest", x > c && x > t, &means);
}
