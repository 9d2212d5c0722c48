//! Fine-tuning measured against its own pre-trained model (§5.3): what CMD
//! fine-tuning does to Fig 10's models, per `FineTuneConfig` cell.
//!
//! Fig 10's recipe at `CDMPP_SCALE=quick` (set here): CDMPP pre-trains on
//! the other GPUs, Algorithm 1 picks 20 tasks, and the model is fine-tuned
//! for 200 steps at batch 48 with those tasks' target labels on. Targets T4
//! and P100; α ∈ {0, 0.01, 1} × lr ∈ {5e-5, 5e-4}; fine-tuning seeds 0–2
//! over one pre-trained model per target. Per cell it prints the seed
//! median (and range) of:
//!
//! * target and source test MAPE, beside the pre-trained model's;
//! * CMD between 200 source and 200 target test latents before fine-tuning
//!   ("step 0") and after it ("end"), plus the mean CMD over the last
//!   quarter of the steps as `finetune` returns it;
//! * the global gradient norm of the regression loss and of α · CMD on the
//!   first fine-tuning batch, each alone (taped, before clipping);
//! * the latents' variance (mean over dimensions, source and target
//!   samples pooled) before and after.
//!
//! ```text
//! cargo run --release -p bench --example finetune_probe             # ~1.5 min
//! cargo run --release -p bench --example finetune_probe -- --quick  # smoke: one cell pair, small data
//! ```
//!
//! `bench::cross::tuned_recipe` is picked from this table.

use bench::cross::{median, Fig10Setup, FIG10_CASES};
use bench::pct;
use cdmpp_core::batch::{build_batch, encode_records, group_by_leaf};
use cdmpp_core::trainer::build_loss;
use cdmpp_core::{evaluate, latent_cmd, FineTuneConfig, TrainedModel};
use dataset::Dataset;
use learn::LabelTransform;
use nn::{cmd, Graph, TANH_SUPPORT};
use rand::rngs::StdRng;
use rand::seq::{IndexedRandom, SliceRandom};
use rand::SeedableRng;

/// Latent samples the CMD and variance columns are measured over.
const SAMPLE: usize = 200;

/// One seed's measurements of one cell.
struct Run {
    target_mape: f64,
    source_mape: f64,
    cmd_end: f64,
    cmd_tail: f64,
    reg_grad: f64,
    cmd_grad: f64,
    var_end: f64,
}

/// Mean over latent dimensions of each dimension's variance.
fn latent_variance(z: &[Vec<f64>]) -> f64 {
    let (n, d) = (z.len() as f64, z[0].len());
    (0..d)
        .map(|j| {
            let mean = z.iter().map(|r| r[j]).sum::<f64>() / n;
            z.iter().map(|r| (r[j] - mean).powi(2)).sum::<f64>() / n
        })
        .sum::<f64>()
        / d as f64
}

/// Gradient norms of the regression loss and of CMD, each alone, on the
/// batch pair `finetune` draws first under `cfg` (the same leaf count and
/// shuffles), taped on a copy of `model`.
fn step0_grad_norms(
    model: &TrainedModel,
    ds: &Dataset,
    setup: &Fig10Setup,
    cfg: &FineTuneConfig,
) -> (f64, f64) {
    let theta = model.predictor.config().theta;
    let [src, tgt] = [&setup.source.train, &setup.labeled].map(|idx| {
        let mut enc = encode_records(ds, idx, theta, model.use_pe);
        model.scaler.apply_all(&mut enc);
        enc
    });
    let (sg, tg) = (group_by_leaf(&src), group_by_leaf(&tgt));
    let shared: Vec<usize> = sg.keys().filter(|k| tg.contains_key(k)).copied().collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let &l = shared.choose(&mut rng).expect("shared leaf counts");
    let mut pick = |group: &Vec<usize>| {
        let mut g = group.clone();
        g.shuffle(&mut rng);
        g.truncate(cfg.batch_size.max(2));
        g
    };
    let (si, ti) = (pick(&sg[&l]), pick(&tg[&l]));
    let sb = build_batch(&si.iter().map(|&i| &src[i]).collect::<Vec<_>>());
    let tb = build_batch(&ti.iter().map(|&i| &tgt[i]).collect::<Vec<_>>());
    let tc = &model.train_config;
    let norm = |regression: bool| {
        let mut m = model.clone();
        m.predictor.store.zero_grad();
        let mut g = Graph::new();
        let s = m.predictor.forward(&mut g, sb.x.clone(), sb.dev.clone());
        let t = m.predictor.forward(&mut g, tb.x.clone(), tb.dev.clone());
        let (s, t) = (s.expect("source forward"), t.expect("target forward"));
        let root = if regression {
            let y = |b: &cdmpp_core::Batch| -> Vec<f32> {
                b.y_raw
                    .iter()
                    .map(|&y| model.transform.forward(y) as f32)
                    .collect()
            };
            let ls = build_loss(&mut g, s.pred, &y(&sb), tc.loss, tc.lambda).unwrap();
            let lt = build_loss(&mut g, t.pred, &y(&tb), tc.loss, tc.lambda).unwrap();
            g.add(ls, lt).unwrap()
        } else {
            let c = cmd(&mut g, s.latent, t.latent, cfg.moments, TANH_SUPPORT).unwrap();
            g.scale(c, cfg.alpha)
        };
        g.backward(root).unwrap();
        g.write_param_grads(&mut m.predictor.store).unwrap();
        m.predictor.store.grad_norm() as f64
    };
    (norm(true), norm(false))
}

fn main() {
    // The probe is defined at Fig 10's quick scale.
    std::env::set_var("CDMPP_SCALE", "quick");
    let quick = std::env::args().any(|a| a == "--quick");
    let t4_case = &FIG10_CASES[0];
    let (ds, cases, seeds, alphas, lrs): (Dataset, Vec<_>, &[u64], &[f32], &[f32]) = if quick {
        let devices = ["T4", "K80", "P100", "V100", "A100"]
            .map(|n| devsim::device_by_name(n).expect("known device"));
        let ds = bench::standard_dataset(devices.to_vec(), 16);
        (ds, vec![t4_case], &[0], &[0.0, 1.0], &[5e-4])
    } else {
        let ds = bench::standard_dataset(devsim::all_devices(), bench::spt_multi());
        let cases = FIG10_CASES
            .iter()
            .filter(|c| c.target == "T4" || c.target == "P100")
            .collect();
        (ds, cases, &[0, 1, 2], &[0.0, 0.01, 1.0], &[5e-5, 5e-4])
    };
    println!(
        "Fine-tuning probe: Fig 10's recipe, seeds {seeds:?}; medians over seeds, [min, max] for \
         the target\n"
    );
    for case in cases {
        let setup = bench::cross::fig10_setup(&ds, case);
        let base = &setup.model;
        let src_sample: Vec<usize> = setup.source.test.iter().copied().take(SAMPLE).collect();
        let tgt_sample: Vec<usize> = setup.target.test.iter().copied().take(SAMPLE).collect();
        let variance = |m: &TrainedModel| {
            let mut z = m.latents(&ds, &src_sample);
            z.extend(m.latents(&ds, &tgt_sample));
            latent_variance(&z)
        };
        let target0 = evaluate(base, &ds, &setup.target.test).mape;
        let source0 = evaluate(base, &ds, &setup.source.test).mape;
        let var0 = variance(base);
        let moments = bench::cross::paper_recipe().moments;
        let cmd0 = latent_cmd(base, &ds, &src_sample, &tgt_sample, moments);
        println!(
            "{}: pre-trained target {} source {}, latent variance {var0:.4}, {} labeled target \
             records",
            case.name,
            pct(target0),
            pct(source0),
            setup.labeled.len()
        );
        println!(
            "{:>6} {:>7} {:>22} {:>8} {:>8} {:>8} {:>8} {:>9} {:>10} {:>9}",
            "alpha",
            "lr",
            "target MAPE [range]",
            "source",
            "CMD 0",
            "CMD end",
            "CMD tail",
            "|g reg|0",
            "|a g CMD|0",
            "var end"
        );
        for &alpha in alphas {
            for &lr in lrs {
                let runs: Vec<Run> = seeds
                    .iter()
                    .map(|&seed| {
                        let recipe = FineTuneConfig {
                            alpha,
                            lr,
                            ..bench::cross::paper_recipe()
                        };
                        let cfg = Fig10Setup::config(&recipe, seed);
                        let (reg_grad, cmd_grad) = step0_grad_norms(base, &ds, &setup, &cfg);
                        let (m, cmd_tail) = setup.fine_tuned(&ds, &cfg);
                        Run {
                            target_mape: evaluate(&m, &ds, &setup.target.test).mape,
                            source_mape: evaluate(&m, &ds, &setup.source.test).mape,
                            cmd_end: latent_cmd(&m, &ds, &src_sample, &tgt_sample, cfg.moments),
                            cmd_tail,
                            reg_grad,
                            cmd_grad,
                            var_end: variance(&m),
                        }
                    })
                    .collect();
                let med = |f: fn(&Run) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
                let targets: Vec<f64> = runs.iter().map(|r| r.target_mape).collect();
                let (lo, hi) = targets
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(a, b), &x| (a.min(x), b.max(x)));
                println!(
                    "{alpha:>6} {lr:>7} {:>22} {:>8} {cmd0:>8.4} {:>8.4} {:>8.4} {:>9.3} {:>10.3} \
                     {:>9.4}",
                    format!("{} [{}, {}]", pct(median(&targets)), pct(lo), pct(hi)),
                    pct(med(|r| r.source_mape)),
                    med(|r| r.cmd_end),
                    med(|r| r.cmd_tail),
                    med(|r| r.reg_grad),
                    med(|r| r.cmd_grad),
                    med(|r| r.var_end),
                );
            }
        }
        println!();
    }
}
