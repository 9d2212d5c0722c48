//! The cross-device orderings of §7.3 and §7.4, measured for `fig10` and
//! `fig8`. Those two bins, `fig11` and `fig13` each write their ordering's
//! rows to a committed `BENCH_<fig>.json` ([`write_rows`]), under the
//! fine-tuning recipe [`tuned_recipe`] and, beside it, the paper's
//! ([`paper_recipe`]).
//!
//! * Fig 10: CDMPP pre-trained on source devices, then fine-tuned on
//!   Algorithm-1-sampled target records with CMD, is scored on the
//!   target's test split both before and after fine-tuning (the seed
//!   median over [`FT_SEEDS`]).
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

/// Fine-tuning seeds the cross-device rows take their median over.
pub const FT_SEEDS: [u64; 3] = [0, 1, 2];

/// The fine-tuning recipe the cross-device bins run (fig8, fig10–fig13):
/// α and lr picked from the seed median of
/// `cargo run --release -p bench --example finetune_probe` (README,
/// "Accuracy"). The bins set `steps`, `use_target_labels` and `seed`.
pub fn tuned_recipe() -> FineTuneConfig {
    FineTuneConfig {
        alpha: 0.01,
        lr: 5e-5,
        ..paper_recipe()
    }
}

/// The paper's recipe, α = 1 (the auto-tuner's value, Appendix B) at lr
/// 5e-4: what `FineTuneConfig::default()` runs. Each bin reports it beside
/// [`tuned_recipe`] as a non-replication row.
pub fn paper_recipe() -> FineTuneConfig {
    FineTuneConfig {
        steps: 120,
        alpha: 1.0,
        moments: 3,
        lr: 5e-4,
        batch_size: 48,
        use_target_labels: false,
        seed: 0,
    }
}

/// Both recipes under the names the bins' json rows give them, the tuned
/// one first.
pub fn recipes() -> [(&'static str, FineTuneConfig); 2] {
    [("tuned", tuned_recipe()), ("paper", paper_recipe())]
}

/// The median of `xs` (the upper one of an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// A Fig 10 case after pre-training: the model and the record sets its
/// fine-tuning and scoring use.
pub struct Fig10Setup {
    /// The model pre-trained on the sources.
    pub model: TrainedModel,
    /// The sources' split; fine-tuning draws from its `train`.
    pub source: SplitIndices,
    /// The target's split; rows are scored on its `test`.
    pub target: SplitIndices,
    /// The target's training records of the tasks Algorithm 1 picks.
    pub labeled: Vec<usize>,
}

/// Pre-trains CDMPP on `case`'s sources and picks the target records
/// fine-tuning sees (Algorithm 1 over source-side latents).
pub fn fig10_setup(ds: &Dataset, case: &Fig10Case) -> Fig10Setup {
    let mut src_idx = Vec::new();
    for s in case.sources {
        src_idx.extend(ds.device_records(s));
    }
    let mut source = SplitIndices::from_indices(ds, src_idx, &[], EXP_SEED);
    source.train.truncate(16_000);
    let (model, _) = train_cdmpp(ds, &source, crate::epochs(source.train.len()));
    let target = SplitIndices::from_indices(ds, ds.device_records(case.target), &[], EXP_SEED);
    let by_task = records_by_task(ds, &ds.device_records(case.sources[0]));
    let mut task_feats = std::collections::HashMap::new();
    for (tid, recs) in &by_task {
        let sample: Vec<usize> = recs.iter().copied().take(8).collect();
        task_feats.insert(*tid, model.latents(ds, &sample));
    }
    let chosen = select_tasks(&task_feats, FIG10_KAPPA, EXP_SEED);
    // "Profile" the chosen tasks on the target = use their target records.
    let labeled = target
        .train
        .iter()
        .copied()
        .filter(|&i| chosen.contains(&ds.records[i].task_id))
        .collect();
    Fig10Setup {
        model,
        source,
        target,
        labeled,
    }
}

impl Fig10Setup {
    /// Fig 10's fine-tuning under `recipe`: 200 steps with the target
    /// records' labels, at `seed`.
    pub fn config(recipe: &FineTuneConfig, seed: u64) -> FineTuneConfig {
        FineTuneConfig {
            steps: 200,
            use_target_labels: true,
            seed,
            ..recipe.clone()
        }
    }

    /// A copy of the pre-trained model fine-tuned under `cfg`, and the mean
    /// CMD over its last quarter of steps.
    pub fn fine_tuned(&self, ds: &Dataset, cfg: &FineTuneConfig) -> (TrainedModel, f64) {
        let mut model = self.model.clone();
        let tail = finetune(&mut model, ds, &self.source.train, &self.labeled, cfg);
        (model, tail)
    }
}

/// CDMPP's target-test MAPE for `case`: the pre-trained model, then per
/// recipe of [`recipes`] the same model fine-tuned at each of [`FT_SEEDS`].
pub fn fig10_cdmpp(ds: &Dataset, case: &Fig10Case) -> (f64, [[f64; 3]; 2]) {
    let setup = fig10_setup(ds, case);
    let pretrained = evaluate(&setup.model, ds, &setup.target.test).mape;
    let tuned = recipes().map(|(_, recipe)| {
        FT_SEEDS.map(|seed| {
            let (model, _) = setup.fine_tuned(ds, &Fig10Setup::config(&recipe, seed));
            evaluate(&model, ds, &setup.target.test).mape
        })
    });
    (pretrained, tuned)
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

/// Fig 8 for one target network: each measure without CMD, then with it
/// under each of [`recipes`].
pub struct CmdRow {
    /// t-SNE cluster separation of source vs target latents.
    pub separation: [f64; 3],
    /// Raw CMD between source and target latents.
    pub cmd: [f64; 3],
}

/// Fig 8 on `target`, over a T4 dataset.
pub fn fig8_row(ds: &Dataset, target: &str) -> CmdRow {
    let split = SplitIndices::for_device(ds, "T4", &[target], EXP_SEED);
    let (base, _) = train_cdmpp(ds, &split, crate::epochs(split.train.len()));
    let [tuned, paper] = recipes().map(|(_, recipe)| {
        let mut model = base.clone();
        let cfg = FineTuneConfig {
            steps: 120,
            use_target_labels: false,
            ..recipe
        };
        finetune(&mut model, ds, &split.train, &split.hold_out, &cfg);
        model
    });
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
    let [(sep0, cmd0), (sep1, cmd1), (sep2, cmd2)] = [&base, &tuned, &paper].map(measure);
    CmdRow {
        separation: [sep0, sep1, sep2],
        cmd: [cmd0, cmd1, cmd2],
    }
}
