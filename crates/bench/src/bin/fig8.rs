//! Fig 8 (and Fig 16): hidden-representation comparison with vs without
//! CMD regularization, target network BERT-tiny (and MobileNet-V2).
//!
//! Paper: with CMD, source-network and target-network latents overlap in
//! the t-SNE plot (low separation); without, they form distinct regions.
//! We report both the t-SNE cluster-separation score and the raw CMD, and
//! write the ordering's rows to the committed `BENCH_fig8.json`:
//!
//! ```text
//! CDMPP_SCALE=quick cargo run --release -p bench --bin fig8
//! ```
//!
//! A FAIL is a non-replication of the paper's ordering at that scale,
//! reported as such (README, "Accuracy").

use bench::cross::{fig8_row, write_rows, FIG8_TARGETS};
use bench::{claim_check, standard_dataset};

fn main() {
    let ds = standard_dataset(vec![devsim::t4()], bench::spt_multi());
    // Targets where 'w/ CMD' is not below 'w/o CMD' on both measures.
    let (mut failed, mut rows) = (Vec::new(), Vec::new());
    for target in FIG8_TARGETS {
        let row = fig8_row(&ds, target);
        for (k, name) in ["w/o CMD", "w/ CMD"].iter().enumerate() {
            println!(
                "Fig 8 target {target:<13} {name:>8}: t-SNE separation {:.3}  CMD {:.4}",
                row.separation[k], row.cmd[k]
            );
        }
        let ([sep0, sep1], [cmd0, cmd1]) = (row.separation, row.cmd);
        let holds = sep1 < sep0 && cmd1 < cmd0;
        if !holds {
            failed.push(format!(
                "{target}: separation {sep0:.3} -> {sep1:.3}, CMD {cmd0:.4} -> {cmd1:.4}"
            ));
        }
        rows.push(format!(
            "{{\"target_network\": \"{target}\", \"separation_without_cmd\": {sep0:.6}, \
             \"separation_with_cmd\": {sep1:.6}, \"cmd_without\": {cmd0:.6}, \
             \"cmd_with\": {cmd1:.6}, \"holds\": {holds}}}"
        ));
        println!();
    }
    let claim = "'w/ CMD' rows show lower separation and lower CMD than 'w/o CMD'";
    claim_check(claim, failed.is_empty(), &failed.join("; "));
    write_rows(
        "fig8",
        "CDMPP only. A model pre-trained on T4 without the target network, and the same model \
         fine-tuned with CMD on that network's unlabeled records (120 steps); t-SNE separation \
         and CMD of 80 source vs 80 target latents, without -> with CMD. holds = lower with \
         CMD on both measures.",
        claim,
        failed.is_empty(),
        &rows,
    );
}
