//! Fig 13: effect of the sampling strategy on cross-device fine-tuning.
//!
//! KMeans-based task selection (Algorithm 1) vs random task selection at
//! equal budgets, fine-tuning a GPUs-pretrained model onto T4. Paper:
//! KMeans consistently below random; the error stops improving past ~50
//! sampled tasks.

use bench::{
    claim_check, pct, print_header, print_row, records_by_task, standard_dataset, train_cdmpp,
};
use cdmpp_core::{evaluate, finetune, select_tasks, FineTuneConfig};
use dataset::SplitIndices;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    let ds = standard_dataset(
        vec![
            devsim::t4(),
            devsim::k80(),
            devsim::p100(),
            devsim::v100(),
            devsim::a100(),
        ],
        bench::spt_multi(),
    );
    let target = "T4";
    let sources = ["K80", "P100", "V100", "A100"];
    let mut src_idx = Vec::new();
    for s in sources {
        src_idx.extend(ds.device_records(s));
    }
    let mut src_split = SplitIndices::from_indices(&ds, src_idx, &[], bench::EXP_SEED);
    src_split.train.truncate(16_000);
    let tgt_split = SplitIndices::for_device(&ds, target, &[], bench::EXP_SEED);
    let (base, _) = train_cdmpp(&ds, &src_split, bench::epochs(src_split.train.len()));
    // Task features for Algorithm 1 from a source device's latents.
    let by_task = records_by_task(&ds, &ds.device_records("V100"));
    let mut task_feats = std::collections::HashMap::new();
    for (tid, recs) in &by_task {
        let sample: Vec<usize> = recs.iter().copied().take(8).collect();
        task_feats.insert(*tid, base.latents(&ds, &sample));
    }
    let all_tasks: Vec<u32> = task_feats.keys().copied().collect();
    println!("Fig 13: MAPE on {target} after fine-tuning with sampled tasks\n");
    let widths = [10, 14, 14];
    print_header(&["#tasks", "KMeans", "Random(avg 3)"], &widths);
    let budgets = [5usize, 10, 20, 50];
    let mut rows = Vec::new();
    for kappa in budgets {
        let run = |chosen: &[u32], seed: u64| -> f64 {
            let labeled: Vec<usize> = tgt_split
                .train
                .iter()
                .copied()
                .filter(|&i| chosen.contains(&ds.records[i].task_id))
                .collect();
            if labeled.is_empty() {
                return f64::NAN;
            }
            let mut model = base.clone();
            let cfg = FineTuneConfig {
                steps: 200,
                use_target_labels: true,
                seed,
                ..Default::default()
            };
            finetune(&mut model, &ds, &src_split.train, &labeled, &cfg);
            evaluate(&model, &ds, &tgt_split.test).mape
        };
        let km = run(&select_tasks(&task_feats, kappa, bench::EXP_SEED), 0);
        // Random baseline, averaged over 3 draws (paper uses 10).
        let mut racc = 0.0;
        for rs in 0..3u64 {
            let mut pool = all_tasks.clone();
            let mut rng = StdRng::seed_from_u64(rs + 100);
            pool.shuffle(&mut rng);
            pool.truncate(kappa);
            racc += run(&pool, rs);
        }
        print_row(&[kappa.to_string(), pct(km), pct(racc / 3.0)], &widths);
        rows.push((km, racc / 3.0));
    }
    let table: Vec<String> = budgets
        .iter()
        .zip(&rows)
        .map(|(k, (km, r))| format!("{k}: {} vs {}", pct(*km), pct(*r)))
        .collect();
    println!();
    claim_check(
        "KMeans ≤ random at every budget",
        rows.iter().all(|(km, r)| km <= r),
        &format!("KMeans vs random by budget: {}", table.join(", ")),
    );
    // Error gained back by the first budget step and by the last.
    let (first, last) = (rows[0].0 - rows[1].0, rows[2].0 - rows[3].0);
    claim_check(
        "KMeans's improvement flattens at large budgets (20 -> 50 tasks gains less than 5 -> 10)",
        last < first,
        &format!(
            "MAPE drop 5 -> 10 tasks {}, 20 -> 50 tasks {}",
            pct(first),
            pct(last)
        ),
    );
}
