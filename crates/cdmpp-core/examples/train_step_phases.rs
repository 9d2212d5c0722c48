//! Where a compiled training step's time goes, on the `train_device`
//! recipe's shapes: the sharded pre-training step (`B = 64`, 16-row
//! gradient shards, one domain) and the two-domain CMD fine-tuning step
//! (`B = 48` per domain), each cut into its phases — the replayed forward
//! (`TrainExec::forward`), the loss head on a tape, the replayed backward
//! (`TrainExec::backward`), and zeroing, clipping and the Adam update —
//! plus the whole step as the library runs it (`CompiledStep::step_sharded`
//! per batch; `finetune`'s wall time less that of a zero-step `finetune`,
//! per step) and what a round pays once: `encode_records` over the source
//! training records and compiling a fresh predictor's training plans.
//!
//! The phase columns time the step cut open, with the loss head built on
//! a tape over copies of the replayed outputs as the library once ran it;
//! the whole-step column times whatever the library runs now.
//!
//! ```text
//! cargo run --release -p cdmpp-core --example train_step_phases            # ~20 s
//! cargo run --release -p cdmpp-core --example train_step_phases -- --quick # smoke size
//! ```
//!
//! A phase's figure is the median over rounds of its mean µs per step in
//! the round; one thread. Public API only, so the same file builds against
//! an older commit for a before/after table: the whole-step column is the
//! one that moves.

use std::time::Instant;

use cdmpp_core::batch::FeatScaler;
use cdmpp_core::trainer::build_loss;
use cdmpp_core::{
    build_batch, encode_records, finetune, group_by_leaf, make_batches, Batch, CompiledStep,
    EncodedSample, FineTuneConfig, Predictor, PredictorConfig, StepSeeds, TrainConfig,
    TrainedModel,
};
use dataset::{Dataset, GenConfig, SplitIndices};
use learn::{FittedTransform, LabelTransform, TransformKind};
use nn::{Adam, Graph, Optimizer, TrainExec};
use rand::rngs::StdRng;
use rand::seq::{IndexedRandom, SliceRandom};
use rand::SeedableRng;
use tensor::Tensor;

/// The training plans' output order: the latent, then the prediction.
const OUT_LATENT: usize = 0;
const OUT_PRED: usize = 1;
/// The pre-training step's gradient shard.
const SHARD_ROWS: usize = 16;

/// Accumulated seconds of one step kind's phases.
#[derive(Default, Clone, Copy)]
struct Phases {
    forward: f64,
    head: f64,
    backward: f64,
    update: f64,
    steps: usize,
}

impl Phases {
    /// µs per step of each phase, and of their sum.
    fn per_step_us(&self) -> [f64; 5] {
        let n = self.steps.max(1) as f64 / 1e6;
        let p = [self.forward, self.head, self.backward, self.update];
        [
            p[0] / n,
            p[1] / n,
            p[2] / n,
            p[3] / n,
            p.iter().sum::<f64>() / n,
        ]
    }
}

/// Runs `f`, adding its wall time to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// The executor of `(leaves, domain)`, built from `predictor`'s plan.
fn exec_for<'e>(
    execs: &'e mut Vec<((usize, usize), TrainExec)>,
    predictor: &Predictor,
    leaves: usize,
    seeds: StepSeeds,
    domain: usize,
) -> &'e mut TrainExec {
    let key = (leaves, domain);
    let i = match execs.iter().position(|(k, _)| *k == key) {
        Some(i) => i,
        None => {
            let plan = predictor.train_plan_for(leaves, seeds).expect("plan");
            execs.push((key, TrainExec::new(plan)));
            execs.len() - 1
        }
    };
    &mut execs[i].1
}

/// One epoch of sharded pre-training steps, as `CompiledStep::step_sharded`
/// runs them.
fn pretrain_epoch(
    predictor: &mut Predictor,
    opt: &mut Adam,
    batches: &[Batch],
    transform: &FittedTransform,
    execs: &mut Vec<((usize, usize), TrainExec)>,
) -> Phases {
    let tcfg = TrainConfig::default();
    let mut ph = Phases::default();
    let mut seed = Vec::new();
    for b in batches {
        let n = b.y_raw.len();
        let y: Vec<f32> = b
            .y_raw
            .iter()
            .map(|&y| transform.forward(y) as f32)
            .collect();
        let inputs = [&b.x, &b.dev];
        let exec = exec_for(execs, predictor, b.leaf_count, StepSeeds::Pred, 0);
        timed(&mut ph.update, || predictor.store.zero_grad());
        timed(&mut ph.forward, || exec.forward(&predictor.store, &inputs)).expect("forward");
        timed(&mut ph.head, || {
            let pred = exec.output(OUT_PRED);
            seed.clear();
            for r0 in (0..n).step_by(SHARD_ROWS) {
                let r1 = (r0 + SHARD_ROWS).min(n);
                let w = (r1 - r0) as f32 / n as f32;
                let mut g = Graph::new();
                let rows = Tensor::from_vec(pred[r0..r1].to_vec(), &[r1 - r0, 1]).unwrap();
                let leaf = g.constant(rows);
                let loss = build_loss(&mut g, leaf, &y[r0..r1], tcfg.loss, tcfg.lambda).unwrap();
                let root = if w == 1.0 { loss } else { g.scale(loss, w) };
                g.backward(root).unwrap();
                seed.extend_from_slice(g.grad(leaf).unwrap().data());
            }
        });
        let shard = SHARD_ROWS.min(n);
        timed(&mut ph.backward, || {
            exec.backward(&mut predictor.store, &inputs, &[&seed], shard)
        })
        .expect("backward");
        timed(&mut ph.update, || {
            predictor.store.clip_grad_norm(5.0);
            opt.step(&mut predictor.store);
        });
        ph.steps += 1;
    }
    ph
}

/// `steps` two-domain fine-tuning steps (target labels used), as
/// `finetune` runs them.
#[allow(clippy::too_many_arguments)]
fn finetune_steps(
    predictor: &mut Predictor,
    opt: &mut Adam,
    src: &[EncodedSample],
    tgt: &[EncodedSample],
    transform: &FittedTransform,
    steps: usize,
    rng: &mut StdRng,
    execs: &mut Vec<((usize, usize), TrainExec)>,
) -> Phases {
    let (ft, tcfg) = (FineTuneConfig::default(), TrainConfig::default());
    let (sg, tg) = (group_by_leaf(src), group_by_leaf(tgt));
    let shared: Vec<usize> = sg.keys().filter(|k| tg.contains_key(k)).copied().collect();
    let mut ph = Phases::default();
    for _ in 0..steps {
        let &l = shared.choose(rng).expect("a leaf count in both domains");
        let mut pick = |group: &Vec<usize>, samples: &[EncodedSample]| {
            let mut g = group.clone();
            g.shuffle(rng);
            g.truncate(ft.batch_size);
            build_batch(&g.iter().map(|&i| &samples[i]).collect::<Vec<_>>())
        };
        let domains = [pick(&sg[&l], src), pick(&tg[&l], tgt)];
        timed(&mut ph.update, || predictor.store.zero_grad());
        let mut outs = Vec::new();
        for (d, b) in domains.iter().enumerate() {
            let exec = exec_for(execs, predictor, l, StepSeeds::Both, d);
            timed(&mut ph.forward, || {
                exec.forward(&predictor.store, &[&b.x, &b.dev])
            })
            .expect("forward");
            let out = |i: usize| Tensor::from_vec(exec.output(i).to_vec(), &exec.output_shape(i));
            outs.push((out(OUT_LATENT).unwrap(), out(OUT_PRED).unwrap()));
        }
        let seeds: Vec<[Vec<f32>; 2]> = timed(&mut ph.head, || {
            let mut g = Graph::new();
            let leaves: Vec<_> = outs
                .into_iter()
                .map(|(z, p)| (g.constant(z), g.constant(p)))
                .collect();
            let mut loss = None;
            for ((_, p), b) in leaves.iter().zip(&domains) {
                let y: Vec<f32> = b
                    .y_raw
                    .iter()
                    .map(|&y| transform.forward(y) as f32)
                    .collect();
                let l = build_loss(&mut g, *p, &y, tcfg.loss, tcfg.lambda).unwrap();
                loss = Some(match loss {
                    Some(acc) => g.add(acc, l).unwrap(),
                    None => l,
                });
            }
            let c = nn::cmd(
                &mut g,
                leaves[0].0,
                leaves[1].0,
                ft.moments,
                nn::TANH_SUPPORT,
            );
            let scaled = g.scale(c.unwrap(), ft.alpha);
            let total = g.add(loss.unwrap(), scaled).unwrap();
            g.backward(total).unwrap();
            let grad = |v| g.grad(v).unwrap().data().to_vec();
            leaves.iter().map(|&(z, p)| [grad(z), grad(p)]).collect()
        });
        for (d, b) in domains.iter().enumerate() {
            let exec = exec_for(execs, predictor, l, StepSeeds::Both, d);
            let grads = [seeds[d][0].as_slice(), seeds[d][1].as_slice()];
            timed(&mut ph.backward, || {
                exec.backward(&mut predictor.store, &[&b.x, &b.dev], &grads, usize::MAX)
            })
            .expect("backward");
        }
        timed(&mut ph.update, || {
            predictor.store.clip_grad_norm(5.0);
            opt.step(&mut predictor.store);
        });
        ph.steps += 1;
    }
    ph
}

/// µs per step of `CompiledStep::step_sharded` over one epoch.
fn pretrain_whole(
    predictor: &mut Predictor,
    opt: &mut Adam,
    batches: &[Batch],
    transform: &FittedTransform,
    stepper: &mut CompiledStep,
) -> f64 {
    let tcfg = TrainConfig::default();
    let (mut secs, mut y) = (0.0, Vec::new());
    for b in batches {
        y.clear();
        y.extend(b.y_raw.iter().map(|&y| transform.forward(y) as f32));
        let loss = timed(&mut secs, || {
            stepper.step_sharded(predictor, opt, b, &y, tcfg.loss, tcfg.lambda)
        });
        assert!(loss.is_finite(), "a pre-training step diverged");
    }
    secs * 1e6 / batches.len() as f64
}

/// µs per step of `finetune` (target labels used): its wall time over
/// `steps` steps less that of a zero-step call (encoding and grouping).
fn finetune_whole(
    model: &TrainedModel,
    ds: &Dataset,
    (src, tgt): (&[usize], &[usize]),
    steps: usize,
    seed: u64,
) -> f64 {
    let cfg = FineTuneConfig {
        steps,
        use_target_labels: true,
        seed,
        ..Default::default()
    };
    let run = |steps| {
        let mut m = model.clone();
        let cfg = FineTuneConfig {
            steps,
            ..cfg.clone()
        };
        let mut secs = 0.0;
        timed(&mut secs, || finetune(&mut m, ds, src, tgt, &cfg));
        secs
    };
    let setup = run(0);
    (run(steps) - setup).max(0.0) * 1e6 / steps as f64
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (rounds, schedules, ft_steps) = if quick { (1, 1, 4) } else { (7, 4, 40) };
    let ds = Dataset::generate(GenConfig {
        batch: 1,
        schedules_per_task: schedules,
        devices: vec![devsim::t4(), devsim::v100(), devsim::epyc_7452()],
        seed: 1,
        noise_sigma: 0.03,
    });
    let mut src_idx = ds.device_records("T4");
    src_idx.extend(ds.device_records("V100"));
    let src_train = SplitIndices::from_indices(&ds, src_idx, &[], 1).train;
    let tgt_train = SplitIndices::for_device(&ds, "EPYC-7452", &[], 1).train;
    let (pcfg, tcfg) = (PredictorConfig::default(), TrainConfig::default());

    let mut encode_ms = Vec::new();
    let mut compile_ms = Vec::new();
    let mut rows: Vec<[Vec<f64>; 6]> = vec![Default::default(), Default::default()];
    for round in 0..rounds {
        let t = Instant::now();
        let mut src = encode_records(&ds, &src_train, pcfg.theta, tcfg.use_pe);
        encode_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let mut tgt = encode_records(&ds, &tgt_train, pcfg.theta, tcfg.use_pe);
        let scaler = FeatScaler::fit(&src);
        scaler.apply_all(&mut src);
        scaler.apply_all(&mut tgt);
        let labels: Vec<f64> = src.iter().map(|s| s.y_raw).collect();
        let transform = TransformKind::BoxCox.fit(&labels);
        let mut rng = StdRng::seed_from_u64(round as u64);
        let batches = make_batches(&src, tcfg.batch_size, &mut rng);

        // Every plan the round's steps replay, compiled cold.
        let mut predictor = Predictor::new(PredictorConfig {
            seed: round as u64,
            ..pcfg.clone()
        });
        let t = Instant::now();
        let mut leaf_counts: Vec<usize> = batches.iter().map(|b| b.leaf_count).collect();
        leaf_counts.sort_unstable();
        leaf_counts.dedup();
        for &l in &leaf_counts {
            predictor.train_plan_for(l, StepSeeds::Pred).expect("plan");
            predictor.train_plan_for(l, StepSeeds::Both).expect("plan");
        }
        compile_ms.push(t.elapsed().as_secs_f64() * 1e3);

        let mut opt = Adam::new(tcfg.lr);
        let mut execs = Vec::new();
        // A warm-up epoch sizes every arena; the next one is timed.
        pretrain_epoch(&mut predictor, &mut opt, &batches, &transform, &mut execs);
        let pre = pretrain_epoch(&mut predictor, &mut opt, &batches, &transform, &mut execs);
        let mut stepper = CompiledStep::new();
        let (p, o) = (&mut predictor, &mut opt);
        pretrain_whole(p, o, &batches, &transform, &mut stepper);
        let pre_whole = pretrain_whole(p, o, &batches, &transform, &mut stepper);
        let model = TrainedModel {
            predictor: predictor.clone(),
            transform: transform.clone(),
            scaler: scaler.clone(),
            use_pe: tcfg.use_pe,
            train_config: tcfg.clone(),
        };
        let idx = (src_train.as_slice(), tgt_train.as_slice());
        let fine_whole = finetune_whole(&model, &ds, idx, ft_steps, round as u64);
        let mut ft_opt = Adam::new(FineTuneConfig::default().lr);
        let mut ft_execs = Vec::new();
        let mut ft = |steps| {
            let (p, o, r, e) = (&mut predictor, &mut ft_opt, &mut rng, &mut ft_execs);
            finetune_steps(p, o, &src, &tgt, &transform, steps, r, e)
        };
        ft(ft_steps.min(8));
        let fine = ft(ft_steps);
        for ((row, ph), whole) in rows
            .iter_mut()
            .zip([pre, fine])
            .zip([pre_whole, fine_whole])
        {
            for (col, v) in row.iter_mut().zip(ph.per_step_us()) {
                col.push(v);
            }
            row[5].push(whole);
        }
    }

    println!(
        "{:<34} {:>9} {:>10} {:>9} {:>12} {:>8} {:>11}",
        "step (µs per step)",
        "forward",
        "loss head",
        "backward",
        "clip+update",
        "total",
        "whole step"
    );
    let ft_b = FineTuneConfig::default().batch_size;
    let names = [
        format!("pretrain, B={} in 16-row shards", tcfg.batch_size),
        format!("finetune, 2 domains x B={ft_b}"),
    ];
    for (name, row) in names.iter().zip(rows) {
        let [f, h, b, u, t, w] = row.map(median);
        println!("{name:<34} {f:>9.1} {h:>10.1} {b:>9.1} {u:>12.1} {t:>8.1} {w:>11.1}");
    }
    println!(
        "per round: encode_records {:.2} ms ({} records), plan compile {:.2} ms",
        median(encode_ms),
        src_train.len(),
        median(compile_ms)
    );
}
