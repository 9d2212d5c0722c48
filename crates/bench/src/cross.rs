//! The cross-device orderings of §7.3 and §7.4, measured for `fig10` and
//! `fig8`. Those two bins, `fig11` and `fig13` each write their ordering's
//! rows to a committed `BENCH_<fig>.json` ([`write_rows`]).
//!
//! * Fig 10: CDMPP pre-trained on source devices, then fine-tuned on
//!   Algorithm-1-sampled target records with CMD, is scored on the
//!   target's test split both before and after fine-tuning.
//! * Fig 8: a model pre-trained without the target network, and the same
//!   model fine-tuned with CMD on the target network's unlabeled records:
//!   t-SNE separation and raw CMD between source and target latents.

use cdmpp_core::{evaluate, finetune, latent_cmd, select_tasks, FineTuneConfig, TrainedModel};
use dataset::{Dataset, SplitIndices};
use learn::tsne::{separation_score, tsne};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{records_by_task, train_cdmpp, EXP_SEED};

/// One Fig 10 source → target combination.
pub struct Fig10Case {
    /// Row label.
    pub name: &'static str,
    /// Devices the model pre-trains on.
    pub sources: &'static [&'static str],
    /// The device it is fine-tuned for and scored on.
    pub target: &'static str,
    /// Whether Habitat applies (GPU targets only, §7.3).
    pub habitat: bool,
}

/// Fig 10's four combinations (§7.3).
pub const FIG10_CASES: [Fig10Case; 4] = [
    Fig10Case {
        name: "GPUs -> T4",
        sources: &["K80", "P100", "V100", "A100"],
        target: "T4",
        habitat: true,
    },
    Fig10Case {
        name: "GPUs -> P100",
        sources: &["T4", "K80", "V100", "A100"],
        target: "P100",
        habitat: true,
    },
    Fig10Case {
        name: "GPUs+CPUs -> EPYC",
        sources: &["T4", "V100", "E5-2673", "Graviton2"],
        target: "EPYC-7452",
        habitat: false,
    },
    Fig10Case {
        name: "GPUs -> HL-100",
        sources: &["T4", "K80", "P100", "V100", "A100"],
        target: "HL-100",
        habitat: false,
    },
];

/// Tasks Algorithm 1 picks for fine-tuning in Fig 10.
pub const FIG10_KAPPA: usize = 20;

/// CDMPP's target-test MAPE for `case`: `[pre-trained only, fine-tuned]`,
/// the same pre-trained model before and after fine-tuning.
pub fn fig10_cdmpp(ds: &Dataset, case: &Fig10Case) -> [f64; 2] {
    let mut src_idx = Vec::new();
    for s in case.sources {
        src_idx.extend(ds.device_records(s));
    }
    let mut src_split = SplitIndices::from_indices(ds, src_idx, &[], EXP_SEED);
    src_split.train.truncate(16_000);
    let (mut model, _) = train_cdmpp(ds, &src_split, crate::epochs(src_split.train.len()));
    let tgt_split = SplitIndices::from_indices(ds, ds.device_records(case.target), &[], EXP_SEED);
    let pretrained = evaluate(&model, ds, &tgt_split.test).mape;
    // Algorithm 1: pick representative tasks using source-side latents.
    let by_task = records_by_task(ds, &ds.device_records(case.sources[0]));
    let mut task_feats = std::collections::HashMap::new();
    for (tid, recs) in &by_task {
        let sample: Vec<usize> = recs.iter().copied().take(8).collect();
        task_feats.insert(*tid, model.latents(ds, &sample));
    }
    let chosen = select_tasks(&task_feats, FIG10_KAPPA, EXP_SEED);
    // "Profile" the chosen tasks on the target = use their target records.
    let tgt_labeled: Vec<usize> = tgt_split
        .train
        .iter()
        .copied()
        .filter(|&i| chosen.contains(&ds.records[i].task_id))
        .collect();
    let cfg = FineTuneConfig {
        steps: 200,
        use_target_labels: true,
        ..Default::default()
    };
    finetune(&mut model, ds, &src_split.train, &tgt_labeled, &cfg);
    [pretrained, evaluate(&model, ds, &tgt_split.test).mape]
}

/// Writes one figure's ordering to `BENCH_<fig>.json` at the workspace
/// root: the scale it was measured at, what it measures (`note`), the
/// paper's `claim`, whether it `holds` on every row, and the `rows` (one
/// JSON object each).
pub fn write_rows(fig: &str, note: &str, claim: &str, holds: bool, rows: &[String]) {
    let scale = match crate::scale() {
        crate::Scale::Quick => "quick",
        crate::Scale::Mid => "mid",
        crate::Scale::Full => "full",
    };
    let json = format!(
        "{{\n  \"bench\": \"{fig}\",\n  \"scale\": \"{scale}\",\n  \
         \"schedules_per_task\": {},\n  \"seed\": {EXP_SEED},\n  \"note\": \"{note}\",\n  \
         \"claim\": \"{claim}\",\n  \"holds\": {holds},\n  \"rows\": [\n    {}\n  ]\n}}\n",
        crate::spt_multi(),
        rows.join(",\n    "),
    );
    let path = format!("{}/../../BENCH_{fig}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("\nwrote {path}");
}

/// Fig 8's target networks (Fig 16 is the second).
pub const FIG8_TARGETS: [&str; 2] = ["bert_tiny", "mobilenet_v2"];

/// Fig 8 for one target network: `[without CMD, with CMD]` of each
/// measure.
pub struct CmdRow {
    /// t-SNE cluster separation of source vs target latents.
    pub separation: [f64; 2],
    /// Raw CMD between source and target latents.
    pub cmd: [f64; 2],
}

/// Fig 8 on `target`, over a T4 dataset.
pub fn fig8_row(ds: &Dataset, target: &str) -> CmdRow {
    let split = SplitIndices::for_device(ds, "T4", &[target], EXP_SEED);
    let (base, _) = train_cdmpp(ds, &split, crate::epochs(split.train.len()));
    let mut tuned = base.clone();
    let cfg = FineTuneConfig {
        steps: 120,
        use_target_labels: false,
        ..Default::default()
    };
    finetune(&mut tuned, ds, &split.train, &split.hold_out, &cfg);
    let n = 80usize;
    let src: Vec<usize> = split.train.iter().copied().take(n).collect();
    let tgt: Vec<usize> = split.hold_out.iter().copied().take(n).collect();
    let groups: Vec<usize> = (0..src.len())
        .map(|_| 0)
        .chain((0..tgt.len()).map(|_| 1))
        .collect();
    let measure = |model: &TrainedModel| {
        let mut z = model.latents(ds, &src);
        z.extend(model.latents(ds, &tgt));
        let mut rng = StdRng::seed_from_u64(1);
        let emb = tsne(&z, 15.0, 300, &mut rng);
        (
            separation_score(&emb, &groups),
            latent_cmd(model, ds, &src, &tgt, 3),
        )
    };
    let [(sep0, cmd0), (sep1, cmd1)] = [measure(&base), measure(&tuned)];
    CmdRow {
        separation: [sep0, sep1],
        cmd: [cmd0, cmd1],
    }
}
