//! Fig 11: hidden representations before vs after cross-device
//! fine-tuning (target device: EPYC).
//!
//! Paper: before fine-tuning, per-device latents form separate regions;
//! after CMD fine-tuning the distributions overlap. Reported here as
//! t-SNE separation scores and raw CMD values per device pair.

use bench::{claim_check, standard_dataset, train_cdmpp};
use cdmpp_core::{finetune, latent_cmd, FineTuneConfig};
use dataset::SplitIndices;
use learn::tsne::{separation_score, tsne};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let sources = ["T4", "V100"];
    let target = "EPYC-7452";
    let mut devices = vec![devsim::t4(), devsim::v100(), devsim::epyc_7452()];
    devices.dedup_by(|a, b| a.name == b.name);
    let ds = standard_dataset(devices, bench::spt_multi());
    let mut src_idx = Vec::new();
    for s in sources {
        src_idx.extend(ds.device_records(s));
    }
    let src_split = SplitIndices::from_indices(&ds, src_idx, &[], bench::EXP_SEED);
    let tgt_split = SplitIndices::for_device(&ds, target, &[], bench::EXP_SEED);
    let (base, _) = train_cdmpp(&ds, &src_split, bench::epochs(src_split.train.len()));
    let mut tuned = base.clone();
    let cfg = FineTuneConfig {
        steps: 200,
        use_target_labels: true,
        ..Default::default()
    };
    finetune(&mut tuned, &ds, &src_split.train, &tgt_split.train, &cfg);
    let n = 70usize;
    let src_sample: Vec<usize> = src_split.test.iter().copied().take(n).collect();
    let tgt_sample: Vec<usize> = tgt_split.test.iter().copied().take(n).collect();
    let groups: Vec<usize> = (0..src_sample.len())
        .map(|_| 0)
        .chain((0..tgt_sample.len()).map(|_| 1))
        .collect();
    let mut rows = Vec::new();
    for (name, model) in [("before finetuning", &base), ("after finetuning", &tuned)] {
        let mut z = model.latents(&ds, &src_sample);
        z.extend(model.latents(&ds, &tgt_sample));
        let mut rng = StdRng::seed_from_u64(2);
        let emb = tsne(&z, 15.0, 300, &mut rng);
        let sep = separation_score(&emb, &groups);
        let cmd = latent_cmd(model, &ds, &src_sample, &tgt_sample, 3);
        println!("Fig 11 {name:>18}: GPU-vs-EPYC t-SNE separation {sep:.3}  CMD {cmd:.4}");
        rows.push((sep, cmd));
    }
    let [(sep0, cmd0), (sep1, cmd1)] = [rows[0], rows[1]];
    println!();
    claim_check(
        "separation and CMD both drop after fine-tuning",
        sep1 < sep0 && cmd1 < cmd0,
        &format!("separation {sep0:.3} -> {sep1:.3}, CMD {cmd0:.4} -> {cmd1:.4}"),
    );
}
