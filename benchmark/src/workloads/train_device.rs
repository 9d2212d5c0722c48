//! `train_device`: the `examples/cross_device.rs` recipe, round after round.
//!
//! Each timed unit is one whole recipe on a seeded three-device dataset:
//! pre-train on T4+V100, take latents, pick tasks with `select_tasks`
//! (KMeans, Algorithm 1), fine-tune with CMD onto EPYC-7452, evaluate.
//! The op `ops_per_s` counts is one training-sample visit. This is
//! `tensor`/`nn` used the other way round — tape forward and backward,
//! transposed and non-prepacked GEMMs, Adam — and the `batch` layer
//! through `make_batches`, so a serving-side gain that costs training
//! shows here. Rounds share the dataset (generating it is set-up) and
//! differ in their init, shuffle, KMeans and fine-tune seeds.

use std::collections::HashMap;
use std::time::Instant;

use cdmpp_core::batch::FeatScaler;
use cdmpp_core::{
    encode_records, evaluate, finetune, make_batches, pretrain, select_tasks, train_step,
    train_step_parallel, FineTuneConfig, Predictor, PredictorConfig, TrainConfig,
};
use dataset::{Dataset, GenConfig, SplitIndices};
use learn::{LabelTransform, TransformKind};
use nn::{Adam, LossKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{
    mix, op_id, probes, BlockOut, Checks, LayerCtx, Layers, RunCfg, Workload, REFERENCE_SEED,
};
use crate::stats::median;
use crate::trace::{Tracer, OP};

const SCHEDULES_PER_TASK: usize = 4;
const EPOCHS: usize = 3;
const FINETUNE_STEPS: usize = 40;
const KAPPA: usize = 15;
const LATENT_RECORDS: usize = 600;
const TARGET: &str = "EPYC-7452";

/// A dataset with its splits, and the recipe run on it.
struct Recipe {
    ds: Dataset,
    src: SplitIndices,
    tgt: SplitIndices,
    latent_idx: Vec<usize>,
    seed: u64,
}

impl Recipe {
    fn generate(seed: u64) -> Recipe {
        let ds = Dataset::generate(GenConfig {
            batch: 1,
            schedules_per_task: SCHEDULES_PER_TASK,
            devices: vec![devsim::t4(), devsim::v100(), devsim::epyc_7452()],
            seed,
            noise_sigma: 0.03,
        });
        let mut src_idx = ds.device_records("T4");
        src_idx.extend(ds.device_records("V100"));
        let src = SplitIndices::from_indices(&ds, src_idx, &[], seed);
        let tgt = SplitIndices::for_device(&ds, TARGET, &[], seed);
        let latent_idx: Vec<usize> = ds
            .device_records("V100")
            .into_iter()
            .take(LATENT_RECORDS)
            .collect();
        Recipe {
            ds,
            src,
            tgt,
            latent_idx,
            seed,
        }
    }

    /// One round; the adapted model's test MAPE on the target device, or
    /// `None` when Algorithm 1 left nothing to fine-tune on.
    fn round(&self, index: u64, mut tracer: Option<&mut Tracer>) -> Option<f64> {
        let id = op_id(0, index);
        let op = tracer.as_deref_mut().map(|tr| tr.open(OP, None, id));
        // Runs the call as a child span of the op when tracing.
        macro_rules! layer {
            ($name:literal, $call:expr) => {
                match tracer.as_deref_mut() {
                    Some(tr) => tr.span($name, op, id, || $call),
                    None => $call,
                }
            };
        }
        let seed = |k: u64| mix(self.seed, index, k);
        let (mut model, _) = layer!(
            "trainer.pretrain",
            pretrain(
                &self.ds,
                &self.src.train,
                &self.src.valid,
                PredictorConfig {
                    seed: seed(0),
                    ..Default::default()
                },
                TrainConfig {
                    epochs: EPOCHS,
                    seed: seed(1),
                    ..Default::default()
                },
            )
        );
        let latents = layer!("trainer.latents", model.latents(&self.ds, &self.latent_idx));
        let mut task_feats: HashMap<u32, Vec<Vec<f64>>> = HashMap::new();
        for (&i, z) in self.latent_idx.iter().zip(latents) {
            task_feats
                .entry(self.ds.records[i].task_id)
                .or_default()
                .push(z);
        }
        let chosen = layer!(
            "learn.select_tasks",
            select_tasks(&task_feats, KAPPA, seed(2))
        );
        let labeled: Vec<usize> = self
            .tgt
            .train
            .iter()
            .copied()
            .filter(|&i| chosen.contains(&self.ds.records[i].task_id))
            .collect();
        let ft = FineTuneConfig {
            steps: FINETUNE_STEPS,
            use_target_labels: true,
            seed: seed(3),
            ..Default::default()
        };
        let out = if labeled.is_empty() {
            None
        } else {
            layer!(
                "finetune.finetune",
                finetune(&mut model, &self.ds, &self.src.train, &labeled, &ft)
            );
            let adapted = layer!(
                "trainer.evaluate",
                evaluate(&model, &self.ds, &self.tgt.test)
            );
            Some(adapted.mape)
        };
        if let (Some(tr), Some(op)) = (tracer, op) {
            tr.close(op);
        }
        out
    }

    fn visits_per_round(&self) -> u64 {
        let ft_batch = FineTuneConfig::default().batch_size;
        (self.src.train.len() * EPOCHS + FINETUNE_STEPS * 2 * ft_batch) as u64
    }
}

pub struct TrainDevice {
    /// The seeded dataset the timed rounds train on.
    timed: Recipe,
    /// A dataset and a round that do not depend on `--seed`: the quality
    /// sample, and the warm-up.
    reference: Recipe,
    dataset_generate_s: f64,
    quality_err: f64,
}

impl TrainDevice {
    pub fn new(cfg: &RunCfg) -> Result<TrainDevice, String> {
        let t = Instant::now();
        let timed = Recipe::generate(cfg.seed);
        let dataset_generate_s = t.elapsed().as_secs_f64();
        let reference = Recipe::generate(REFERENCE_SEED);
        let quality_err = reference
            .round(0, None)
            .ok_or("the reference round selected no target records to fine-tune on")?;
        Ok(TrainDevice {
            timed,
            reference,
            dataset_generate_s,
            quality_err,
        })
    }
}

impl Workload for TrainDevice {
    fn callers(&self) -> usize {
        1
    }

    /// A block is one round: rounds are long, and a block is the grain
    /// the deadline is checked at.
    fn block(
        &self,
        _caller: usize,
        block: u64,
        tracer: Option<&mut Tracer>,
        lat_ns: &mut Vec<u64>,
    ) -> BlockOut {
        let t0 = Instant::now();
        let mape = self.timed.round(block, tracer);
        lat_ns.push(t0.elapsed().as_nanos() as u64);
        let ops = self.timed.visits_per_round();
        let ok = matches!(mape, Some(m) if m.is_finite());
        BlockOut {
            ops,
            failed: if ok { 0 } else { ops },
        }
    }

    fn quality_err(&self) -> f64 {
        self.quality_err
    }

    fn verify(&self, checks: &mut Checks) {
        // Training is deterministic for its seeds: the reference round,
        // run again, lands on the same error bit for bit.
        let again = self.reference.round(0, None);
        checks.check(
            again.map(f64::to_bits) == Some(self.quality_err.to_bits()),
            || {
                format!(
                    "reference round repeated gives MAPE {again:?}, first gave {}",
                    self.quality_err
                )
            },
        );
    }

    fn describe(&self) -> Vec<(&'static str, f64)> {
        let r = &self.timed;
        vec![
            ("callers", 1.0),
            ("records", r.ds.records.len() as f64),
            ("source_train_records", r.src.train.len() as f64),
            ("target_test_records", r.tgt.test.len() as f64),
            ("epochs", EPOCHS as f64),
            ("finetune_steps", FINETUNE_STEPS as f64),
            ("visits_per_round", r.visits_per_round() as f64),
        ]
    }

    fn layer_metrics(&self, ctx: &LayerCtx<'_>, out: &mut Layers) {
        out.insert("dataset.generate_s", self.dataset_generate_s);
        let s = ctx.summary;
        out.insert("trainer.evaluate_ms", s.stat("trainer.evaluate").mean_ms());
        out.insert(
            "learn.select_tasks_ms",
            s.stat("learn.select_tasks").mean_ms(),
        );
        out.insert(
            "finetune.step_ms",
            s.stat("finetune.finetune").mean_ms() / FINETUNE_STEPS as f64,
        );

        // One epoch driven step by step through the public train steps,
        // serial and data-parallel at pool = nproc, set up as `pretrain`
        // sets it up.
        let r = &self.timed;
        let pcfg = PredictorConfig::default();
        let tcfg = TrainConfig::default();
        let t = Instant::now();
        let mut train = encode_records(&r.ds, &r.src.train, pcfg.theta, tcfg.use_pe);
        out.insert("batch.encode_records_ms", t.elapsed().as_secs_f64() * 1e3);
        let scaler = FeatScaler::fit(&train);
        scaler.apply_all(&mut train);
        let labels: Vec<f64> = train.iter().map(|s| s.y_raw).collect();
        let transform = TransformKind::BoxCox.fit(&labels);
        let mut rng = StdRng::seed_from_u64(mix(r.seed, 0x7103, 0));
        let t = Instant::now();
        let batches = make_batches(&train, tcfg.batch_size, &mut rng);
        out.insert("batch.make_batches_ms", t.elapsed().as_secs_f64() * 1e3);
        let targets: Vec<Vec<f32>> = batches
            .iter()
            .map(|b| {
                b.y_raw
                    .iter()
                    .map(|&y| transform.forward(y) as f32)
                    .collect()
            })
            .collect();
        let pool = parallel::ThreadPool::new(parallel::resolve_threads(0));
        let epoch = |parallel_step: bool| -> (f64, f64) {
            let mut predictor = Predictor::new(pcfg.clone());
            let mut opt = Adam::with_weight_decay(tcfg.lr, tcfg.weight_decay);
            let started = Instant::now();
            let mut step_ms = Vec::with_capacity(batches.len());
            for (b, y) in batches.iter().zip(&targets) {
                let t = Instant::now();
                let loss = if parallel_step {
                    train_step_parallel(
                        &mut predictor,
                        &mut opt,
                        b,
                        y,
                        LossKind::Hybrid,
                        tcfg.lambda,
                        &pool,
                    )
                } else {
                    train_step(
                        &mut predictor,
                        &mut opt,
                        b,
                        y,
                        LossKind::Hybrid,
                        tcfg.lambda,
                    )
                };
                std::hint::black_box(loss);
                step_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            (started.elapsed().as_secs_f64(), median(&step_ms))
        };
        let (_, serial_p50) = epoch(false);
        let (epoch_s, parallel_p50) = epoch(true);
        out.insert("trainer.step_ms_p50", serial_p50);
        out.insert("trainer.parallel_step_ms_p50", parallel_p50);
        // `pretrain` steps through `train_step_parallel`; its epoch is this one.
        out.insert("trainer.epoch_s", epoch_s);

        // Training GEMMs at a batch of 64 eight-leaf samples: the tape's
        // forward product and the weight gradient's transposed one.
        let rows = tcfg.batch_size * pcfg.max_leaves;
        out.insert(
            "gemm.train_matmul_gflops",
            probes::matmul_gflops(rows, pcfg.d_model, pcfg.d_ff),
        );
        out.insert(
            "gemm.train_matmul_t_gflops",
            probes::matmul_t_gflops(rows, pcfg.d_model, pcfg.d_ff),
        );
    }
}
