//! CMD-regularized fine-tuning (§5.3, Eqns 5–7).
//!
//! `L_fine_tune = L_pre_train + α · CMD(z_s, z_t)` where `z_s` / `z_t` are
//! latent batches from the source and target domains. For cross-model
//! adaptation (CMPP) the target provides only input features; for
//! cross-device adaptation (CDPP) the target additionally provides labels
//! for the tasks selected by Algorithm 1 and profiled on the new device.
//!
//! Each step replays the predictor's compiled forward for the source and
//! the target batch (`nn::train_plan`), runs the head as fixed kernels over
//! the replayed predictions and latents in place — the regression loss
//! ([`crate::trainer::loss_head`]) and CMD ([`nn::CmdHead`]), each
//! repeating the tape's expressions in the tape's order — and seeds the
//! two backward replays with the gradients they write: source first, then
//! target, the order one tape's parameter leaves would be written back in.
//! Each batch is one shard, so the step is bit-for-bit the single-graph
//! tape step it replaced (kept under `tests/reference/`). The update goes
//! through [`nn::clip_and_step`], so a batch with a non-finite gradient
//! norm leaves the model as it was.

use dataset::Dataset;
use learn::LabelTransform;
use nn::{clip_and_step, Adam, CmdHead, TANH_SUPPORT};
use rand::rngs::StdRng;
use rand::seq::{IndexedRandom, SliceRandom};
use rand::SeedableRng;

use crate::batch::{build_batch, encode_records, group_by_leaf};
use crate::predictor::{StepSeeds, PLAN_OUT_LATENT, PLAN_OUT_PRED};
use crate::trainer::{loss_head, StepExecs, TrainedModel};

/// Fine-tuning hyper-parameters.
#[derive(Debug, Clone)]
pub struct FineTuneConfig {
    /// Optimization steps.
    pub steps: usize,
    /// CMD coefficient α (the auto-tuner found 1.0; Appendix B).
    pub alpha: f32,
    /// Number of central moments in CMD.
    pub moments: usize,
    /// Learning rate (lower than pre-training).
    pub lr: f32,
    /// Batch size per domain.
    pub batch_size: usize,
    /// Whether target labels participate in the regression loss (CDPP).
    pub use_target_labels: bool,
    /// Seed.
    pub seed: u64,
}

impl Default for FineTuneConfig {
    fn default() -> Self {
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
}

/// Fine-tunes `model` against a target domain.
///
/// * `source_idx`: labeled records from the source domain(s).
/// * `target_idx`: records from the target domain. Labels are used only
///   when `cfg.use_target_labels` (CDPP with profiled samples); otherwise
///   only the input features drive the CMD term (CMPP).
///
/// Returns the mean CMD observed over the last quarter of the steps (a
/// convergence diagnostic used by Fig 8/11-style analyses).
pub fn finetune(
    model: &mut TrainedModel,
    ds: &Dataset,
    source_idx: &[usize],
    target_idx: &[usize],
    cfg: &FineTuneConfig,
) -> f64 {
    assert!(
        !source_idx.is_empty() && !target_idx.is_empty(),
        "empty domains"
    );
    let [src, tgt] = [source_idx, target_idx].map(|idx| {
        let mut enc = encode_records(ds, idx, model.predictor.config().theta, model.use_pe);
        model.scaler.apply_all(&mut enc);
        enc
    });
    let (src_groups, tgt_groups) = (group_by_leaf(&src), group_by_leaf(&tgt));
    // Leaf counts present in both domains (CMD compares same-shape
    // batches within one graph).
    let shared: Vec<usize> = src_groups
        .keys()
        .filter(|k| tgt_groups.contains_key(k))
        .copied()
        .collect();
    assert!(!shared.is_empty(), "no shared leaf counts between domains");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut opt = Adam::new(cfg.lr);
    let lambda = model.train_config.lambda;
    let loss_kind = model.train_config.loss;
    let mut cmd_tail = Vec::new();
    let mut execs = StepExecs::default();
    let mut cmd_head = CmdHead::new(cfg.moments, TANH_SUPPORT);
    // Per domain: the latent's seed, then the prediction's.
    let mut seeds: [[Vec<f32>; 2]; 2] = Default::default();
    let mut labels: [Vec<f32>; 2] = Default::default();
    // The target's prediction takes a seed only when its labels are used.
    let tgt_seeds = if cfg.use_target_labels {
        StepSeeds::Both
    } else {
        StepSeeds::Latent
    };
    let labeled = if cfg.use_target_labels { 2 } else { 1 };
    for step in 0..cfg.steps {
        let &l = shared.as_slice().choose(&mut rng).expect("non-empty");
        let pick = |group: &Vec<usize>, rng: &mut StdRng| -> Vec<usize> {
            let mut g = group.clone();
            g.shuffle(rng);
            g.truncate(cfg.batch_size.max(2));
            g
        };
        let si = pick(&src_groups[&l], &mut rng);
        let ti = pick(&tgt_groups[&l], &mut rng);
        let sb = build_batch(&si.iter().map(|&i| &src[i]).collect::<Vec<_>>());
        let tb = build_batch(&ti.iter().map(|&i| &tgt[i]).collect::<Vec<_>>());
        model.predictor.store.zero_grad();
        let domains = [(&sb, StepSeeds::Both), (&tb, tgt_seeds)];
        let forward = |execs: &mut StepExecs, domain: usize| -> bool {
            let (batch, seeds) = domains[domain];
            execs
                .get(&model.predictor, l, seeds, domain)
                .is_ok_and(|exec| {
                    exec.forward(&model.predictor.store, &[&batch.x, &batch.dev])
                        .is_ok()
                })
        };
        if !(forward(&mut execs, 0) && forward(&mut execs, 1)) {
            continue;
        }
        let (Some(s), Some(t)) = (
            execs.find(l, StepSeeds::Both, 0),
            execs.find(l, tgt_seeds, 1),
        ) else {
            continue;
        };
        // The head: regression on the source (always) and the target
        // (CDPP), each loss node's gradient 1, and CMD between the two
        // latent batches, whose node's gradient is α.
        let outs = [s, t].map(|e| (e.output(PLAN_OUT_LATENT), e.output(PLAN_OUT_PRED)));
        for (domain, (_, pred)) in outs.iter().enumerate().take(labeled) {
            let y = &mut labels[domain];
            y.clear();
            y.extend(
                domains[domain]
                    .0
                    .y_raw
                    .iter()
                    .map(|&y| model.transform.forward(y) as f32),
            );
            let seed = &mut seeds[domain][1];
            seed.resize(pred.len(), 0.0);
            loss_head(loss_kind, lambda, pred, y, 1.0, seed);
        }
        let [[gs, _], [gt, _]] = &mut seeds;
        gs.resize(outs[0].0.len(), 0.0);
        gt.resize(outs[1].0.len(), 0.0);
        let d = outs[0].0.len() / sb.y_raw.len();
        let c = cmd_head.run(outs[0].0, outs[1].0, d, cfg.alpha, gs, gt);
        if step >= cfg.steps * 3 / 4 {
            cmd_tail.push(c as f64);
        }
        // Source, then target: the order one tape's parameter leaves are
        // written back in, so the stored gradient is `(0 + G_s) + G_t`.
        let mut backward = |domain: usize| -> bool {
            let (batch, step_seeds) = domains[domain];
            let [latent, pred] = &seeds[domain];
            let grads = [latent.as_slice(), pred.as_slice()];
            let grads = &grads[..if domain < labeled { 2 } else { 1 }];
            execs
                .get(&model.predictor, l, step_seeds, domain)
                .is_ok_and(|exec| {
                    let inputs = [&batch.x, &batch.dev];
                    exec.backward(&mut model.predictor.store, &inputs, grads, usize::MAX)
                        .is_ok()
                })
        };
        if !(backward(0) && backward(1)) {
            continue;
        }
        clip_and_step(&mut model.predictor.store, &mut opt, 5.0);
    }
    if cmd_tail.is_empty() {
        f64::NAN
    } else {
        cmd_tail.iter().sum::<f64>() / cmd_tail.len() as f64
    }
}

/// Mean CMD between the latents of two record sets under the current model
/// (the "before/after" number behind Figs 8 and 11). NaN when a record's
/// leaf count has no embedding layer: its latent row is NaN
/// ([`TrainedModel::latents`]).
pub fn latent_cmd(
    model: &TrainedModel,
    ds: &Dataset,
    a: &[usize],
    b: &[usize],
    moments: usize,
) -> f64 {
    let za = model.latents(ds, a);
    let zb = model.latents(ds, b);
    if za.is_empty() || zb.is_empty() {
        return f64::NAN;
    }
    let to_tensor = |z: Vec<Vec<f64>>| {
        let d = z[0].len();
        let flat: Vec<f32> = z.iter().flat_map(|r| r.iter().map(|&v| v as f32)).collect();
        tensor::Tensor::from_vec(flat, &[z.len(), d]).expect("latent dims")
    };
    nn::cmd_value(&to_tensor(za), &to_tensor(zb), moments, TANH_SUPPORT).unwrap_or(f64::NAN as f32)
        as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::PredictorConfig;
    use crate::trainer::{evaluate, pretrain, TrainConfig};
    use dataset::{GenConfig, SplitIndices};
    use tir::zoo;

    /// Two-device dataset: pretrain on T4, adapt to EPYC.
    fn setup() -> (Dataset, SplitIndices, SplitIndices) {
        let ds = Dataset::generate_with_networks(
            GenConfig {
                batch: 1,
                schedules_per_task: 4,
                devices: vec![devsim::t4(), devsim::epyc_7452()],
                seed: 9,
                noise_sigma: 0.0,
            },
            vec![zoo::bert_tiny(1), zoo::mlp_mixer(1)],
        );
        let src = SplitIndices::for_device(&ds, "T4", &[], 1);
        let tgt = SplitIndices::for_device(&ds, "EPYC-7452", &[], 1);
        (ds, src, tgt)
    }

    #[test]
    fn cdpp_finetune_improves_target_error_and_reduces_cmd() {
        let (ds, src, tgt) = setup();
        let pcfg = PredictorConfig {
            d_model: 16,
            n_layers: 1,
            d_ff: 32,
            d_emb: 12,
            ..Default::default()
        };
        let (mut model, _) = pretrain(
            &ds,
            &src.train,
            &src.valid,
            pcfg,
            TrainConfig {
                epochs: 15,
                ..Default::default()
            },
        );
        let before = evaluate(&model, &ds, &tgt.test);
        let cmd_before = latent_cmd(&model, &ds, &src.test, &tgt.test, 3);
        let cfg = FineTuneConfig {
            steps: 150,
            use_target_labels: true,
            ..Default::default()
        };
        finetune(&mut model, &ds, &src.train, &tgt.train, &cfg);
        let after = evaluate(&model, &ds, &tgt.test);
        let cmd_after = latent_cmd(&model, &ds, &src.test, &tgt.test, 3);
        assert!(
            after.mape < before.mape,
            "fine-tuning must improve target MAPE: {:.3} -> {:.3}",
            before.mape,
            after.mape
        );
        assert!(
            cmd_after < cmd_before,
            "CMD must shrink: {cmd_before:.4} -> {cmd_after:.4}"
        );
    }

    #[test]
    fn cmpp_finetune_runs_without_target_labels() {
        let (ds, src, tgt) = setup();
        let pcfg = PredictorConfig {
            d_model: 16,
            n_layers: 1,
            d_ff: 32,
            d_emb: 12,
            ..Default::default()
        };
        let (mut model, _) = pretrain(
            &ds,
            &src.train,
            &src.valid,
            pcfg,
            TrainConfig {
                epochs: 5,
                ..Default::default()
            },
        );
        let cfg = FineTuneConfig {
            steps: 40,
            use_target_labels: false,
            ..Default::default()
        };
        let tail_cmd = finetune(&mut model, &ds, &src.train, &tgt.train, &cfg);
        assert!(tail_cmd.is_finite());
    }

    #[test]
    #[should_panic(expected = "empty domains")]
    fn empty_target_panics() {
        let (ds, src, _) = setup();
        let pcfg = PredictorConfig {
            d_model: 16,
            n_layers: 1,
            d_ff: 32,
            d_emb: 12,
            ..Default::default()
        };
        let (mut model, _) = pretrain(
            &ds,
            &src.train,
            &[],
            pcfg,
            TrainConfig {
                epochs: 1,
                ..Default::default()
            },
        );
        finetune(&mut model, &ds, &src.train, &[], &FineTuneConfig::default());
    }
}
