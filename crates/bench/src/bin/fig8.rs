//! Fig 8 (and Fig 16): hidden-representation comparison with vs without
//! CMD regularization, target network BERT-tiny (and MobileNet-V2).
//!
//! Paper: with CMD, source-network and target-network latents overlap in
//! the t-SNE plot (low separation); without, they form distinct regions.
//! We report both the t-SNE cluster-separation score and the raw CMD.

use bench::{claim_check, standard_dataset, train_cdmpp};
use cdmpp_core::{finetune, latent_cmd, FineTuneConfig};
use dataset::SplitIndices;
use learn::tsne::{separation_score, tsne};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let ds = standard_dataset(vec![devsim::t4()], bench::spt_multi());
    // Targets where 'w/ CMD' is not below 'w/o CMD' on both measures.
    let mut failed = Vec::new();
    for target in ["bert_tiny", "mobilenet_v2"] {
        let split = SplitIndices::for_device(&ds, "T4", &[target], bench::EXP_SEED);
        let (base, _) = train_cdmpp(&ds, &split, bench::epochs(split.train.len()));
        let mut tuned = base.clone();
        let cfg = FineTuneConfig {
            steps: 120,
            use_target_labels: false,
            ..Default::default()
        };
        finetune(&mut tuned, &ds, &split.train, &split.hold_out, &cfg);
        let n = 80usize;
        let src: Vec<usize> = split.train.iter().copied().take(n).collect();
        let tgt: Vec<usize> = split.hold_out.iter().copied().take(n).collect();
        let groups: Vec<usize> = (0..src.len())
            .map(|_| 0)
            .chain((0..tgt.len()).map(|_| 1))
            .collect();
        let mut rows = Vec::new();
        for (name, model) in [("w/o CMD", &base), ("w/ CMD", &tuned)] {
            let mut z = model.latents(&ds, &src);
            z.extend(model.latents(&ds, &tgt));
            let mut rng = StdRng::seed_from_u64(1);
            let emb = tsne(&z, 15.0, 300, &mut rng);
            let sep = separation_score(&emb, &groups);
            let cmd = latent_cmd(model, &ds, &src, &tgt, 3);
            println!(
                "Fig 8 target {target:<13} {name:>8}: t-SNE separation {sep:.3}  CMD {cmd:.4}"
            );
            rows.push((sep, cmd));
        }
        let [(sep0, cmd0), (sep1, cmd1)] = [rows[0], rows[1]];
        if !(sep1 < sep0 && cmd1 < cmd0) {
            failed.push(format!(
                "{target}: separation {sep0:.3} -> {sep1:.3}, CMD {cmd0:.4} -> {cmd1:.4}"
            ));
        }
        println!();
    }
    claim_check(
        "'w/ CMD' rows show lower separation and lower CMD than 'w/o CMD'",
        failed.is_empty(),
        &failed.join("; "),
    );
}
