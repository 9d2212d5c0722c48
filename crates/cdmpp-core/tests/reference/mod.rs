//! The single-graph taped fine-tuning loop, as `cdmpp_core::finetune` ran
//! it before the compiled step: both domains' forwards, the losses and the
//! CMD term on one tape, one `backward`, parameter leaves written back in
//! node order. Kept as the definition the compiled loop is held equal to,
//! weight for weight and bit for bit.

use cdmpp_core::batch::{build_batch, encode_records, group_by_leaf};
use cdmpp_core::trainer::{build_loss, TrainedModel};
use cdmpp_core::FineTuneConfig;
use dataset::Dataset;
use learn::LabelTransform;
use nn::{cmd, Adam, Graph, Optimizer, TANH_SUPPORT};
use rand::rngs::StdRng;
use rand::seq::{IndexedRandom, SliceRandom};
use rand::SeedableRng;

pub fn reference_finetune(
    model: &mut TrainedModel,
    ds: &Dataset,
    source_idx: &[usize],
    target_idx: &[usize],
    cfg: &FineTuneConfig,
) -> f64 {
    let theta = model.predictor.config().theta;
    let use_pe = model.use_pe;
    let mut src = encode_records(ds, source_idx, theta, use_pe);
    let mut tgt = encode_records(ds, target_idx, theta, use_pe);
    model.scaler.apply_all(&mut src);
    model.scaler.apply_all(&mut tgt);
    let src_groups = group_by_leaf(&src);
    let tgt_groups = group_by_leaf(&tgt);
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
        let mut g = Graph::new();
        let Ok(sout) = model
            .predictor
            .forward(&mut g, sb.x.clone(), sb.dev.clone())
        else {
            continue;
        };
        let Ok(tout) = model
            .predictor
            .forward(&mut g, tb.x.clone(), tb.dev.clone())
        else {
            continue;
        };
        let sy: Vec<f32> = sb
            .y_raw
            .iter()
            .map(|&y| model.transform.forward(y) as f32)
            .collect();
        let Ok(mut loss) = build_loss(&mut g, sout.pred, &sy, loss_kind, lambda) else {
            continue;
        };
        if cfg.use_target_labels {
            let ty: Vec<f32> = tb
                .y_raw
                .iter()
                .map(|&y| model.transform.forward(y) as f32)
                .collect();
            if let Ok(tl) = build_loss(&mut g, tout.pred, &ty, loss_kind, lambda) {
                if let Ok(sum) = g.add(loss, tl) {
                    loss = sum;
                }
            }
        }
        let Ok(c) = cmd(&mut g, sout.latent, tout.latent, cfg.moments, TANH_SUPPORT) else {
            continue;
        };
        if step >= cfg.steps * 3 / 4 {
            cmd_tail.push(g.value(c).item() as f64);
        }
        let scaled = g.scale(c, cfg.alpha);
        let Ok(total) = g.add(loss, scaled) else {
            continue;
        };
        if g.backward(total).is_err() {
            continue;
        }
        let _ = g.write_param_grads(&mut model.predictor.store);
        model.predictor.store.clip_grad_norm(5.0);
        opt.step(&mut model.predictor.store);
    }
    if cmd_tail.is_empty() {
        f64::NAN
    } else {
        cmd_tail.iter().sum::<f64>() / cmd_tail.len() as f64
    }
}
