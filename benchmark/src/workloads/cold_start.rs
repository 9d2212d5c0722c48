//! `cold_start`: from a snapshot file to the first answer, and back down.
//!
//! Each op is one cycle of what `cdmpp serve --snapshot` does once: read
//! the file, `InferenceModel::from_snapshot_file`, `InferenceEngine::new`
//! at shipped defaults, one `end_to_end_opts(resnet50, T4)`, drop the
//! engine. `snapshot`/`plan`/`runtime` are used for construction rather
//! than replay — decode, weight checks, plan re-validation, cache seeding,
//! worker spawn / prewarm / join — so work moved from the hot path into
//! load shows here.

use std::time::Instant;

use cdmpp_core::{encode_programs, sample_network_programs, E2eResult, InferenceModel, Snapshot};
use devsim::DeviceSpec;
use runtime::{end_to_end_opts, EngineConfig, InferenceEngine, SubmitOptions};
use tir::{Network, TensorProgram};

use super::fixture::Fixture;
use super::{mix, op_id, BlockOut, Checks, LayerCtx, Layers, RunCfg, Workload, REFERENCE_SEED};
use crate::stats::median;
use crate::trace::{Tracer, OP};

const CYCLES_PER_BLOCK: u64 = 100;
const WARMUP_CYCLES: u64 = 50;
/// The warm-up cycles' inputs do not depend on `--seed`: their answers
/// are the quality sample.
const REFERENCE_SLOT: u64 = 1;
const CHECK_SAMPLES: usize = 1000;

pub struct ColdStart {
    fixture: Fixture,
    net: Network,
    dev: DeviceSpec,
    seed: u64,
    quality_err: f64,
}

impl ColdStart {
    pub fn new(cfg: &RunCfg) -> Result<ColdStart, String> {
        let mut w = ColdStart {
            fixture: Fixture::build(&cfg.out_dir, &cfg.workload)?,
            net: tir::zoo::resnet50(1),
            dev: devsim::t4(),
            seed: cfg.seed,
            quality_err: f64::NAN,
        };
        let mut errors = Vec::with_capacity(WARMUP_CYCLES as usize);
        for i in 0..WARMUP_CYCLES {
            let r = w
                .cycle(REFERENCE_SLOT, i)
                .map_err(|e| format!("warm-up cycle {i} failed: {e}"))?;
            errors.push(r.error());
        }
        // Quality of the restored model's answers; that they are the
        // captured model's bits is a correctness check, not a quality.
        w.quality_err = median(&errors);
        Ok(w)
    }

    /// The cycle as the CLI runs it.
    fn cycle(&self, slot: u64, index: u64) -> Result<E2eResult, String> {
        let model = InferenceModel::from_snapshot_file(&self.fixture.snapshot_path)
            .map_err(|e| e.to_string())?;
        let engine = InferenceEngine::new(model, EngineConfig::default());
        end_to_end_opts(
            &engine,
            &self.net,
            &self.dev,
            if slot == REFERENCE_SLOT {
                mix(REFERENCE_SEED, slot, index)
            } else {
                mix(self.seed, slot, index)
            },
            &SubmitOptions::default(),
        )
        .map_err(|e| e.to_string())
        // The engine drops here: shutdown and join are inside the cycle.
    }

    /// The same cycle split into its public steps, a span around each.
    fn cycle_traced(&self, tr: &mut Tracer, index: u64) -> Result<E2eResult, String> {
        let id = op_id(0, index);
        let op = tr.open(OP, None, id);
        let p = Some(op);
        let out = (|| {
            let bytes = tr
                .span("snapshot.read_file", p, id, || {
                    std::fs::read(&self.fixture.snapshot_path)
                })
                .map_err(|e| e.to_string())?;
            let snap = tr
                .span("snapshot.decode", p, id, || Snapshot::from_bytes(&bytes))
                .map_err(|e| e.to_string())?;
            let model = tr
                .span("snapshot.restore", p, id, || {
                    InferenceModel::from_snapshot(&snap)
                })
                .map_err(|e| e.to_string())?;
            let engine = tr.span("runtime.engine_new", p, id, || {
                InferenceEngine::new(model, EngineConfig::default())
            });
            let r = tr.span("runtime.first_call", p, id, || {
                end_to_end_opts(
                    &engine,
                    &self.net,
                    &self.dev,
                    mix(self.seed, 0, index),
                    &SubmitOptions::default(),
                )
            });
            tr.span("runtime.shutdown", p, id, || drop(engine));
            r.map_err(|e| e.to_string())
        })();
        tr.close(op);
        out
    }
}

impl Workload for ColdStart {
    fn callers(&self) -> usize {
        1
    }

    fn block(
        &self,
        _caller: usize,
        block: u64,
        mut tracer: Option<&mut Tracer>,
        lat_ns: &mut Vec<u64>,
    ) -> BlockOut {
        let mut out = BlockOut::default();
        for k in 0..CYCLES_PER_BLOCK {
            let index = block * CYCLES_PER_BLOCK + k;
            let t0 = Instant::now();
            let r = match tracer.as_deref_mut() {
                None => self.cycle(0, index),
                Some(tr) => self.cycle_traced(tr, index),
            };
            lat_ns.push(t0.elapsed().as_nanos() as u64);
            out.ops += 1;
            let ok = matches!(&r, Ok(r) if r.predicted_s.is_finite() && r.predicted_s > 0.0);
            out.failed += u64::from(!ok);
            std::hint::black_box(&r);
        }
        out
    }

    fn quality_err(&self) -> f64 {
        self.quality_err
    }

    fn verify(&self, checks: &mut Checks) {
        // The restored model answers with the bits of the in-memory model
        // the snapshot was captured from.
        let restored = match self.fixture.load_model() {
            Ok(m) => m,
            Err(e) => return checks.check(false, || e),
        };
        let captured = self.fixture.trained.freeze();
        let mut enc = Vec::with_capacity(CHECK_SAMPLES + 40);
        let mut i = 0;
        while enc.len() < CHECK_SAMPLES {
            let (_, programs) = sample_network_programs(&self.net, mix(self.seed, 2, i));
            let refs: Vec<&TensorProgram> = programs.iter().collect();
            enc.extend(encode_programs(
                &refs,
                &self.dev,
                restored.predictor.config().theta,
                restored.use_pe,
            ));
            i += 1;
        }
        enc.truncate(CHECK_SAMPLES);
        match (
            restored.predict_samples(&enc),
            captured.predict_samples(&enc),
        ) {
            (Ok(got), Ok(want)) => checks.bit_identical("restored vs captured", &got, &want),
            (got, want) => checks.check(false, || {
                format!(
                    "restored vs captured: restored {:?}, captured {:?}",
                    got.err(),
                    want.err()
                )
            }),
        }
        checks.check(restored.predictor.plan_compile_count() == 0, || {
            format!(
                "cold start recorded {} plans; the snapshot ships them all",
                restored.predictor.plan_compile_count()
            )
        });
        // The traced cycle is the cycle.
        let mut tr = Tracer::new(Instant::now());
        let (split, whole) = (self.cycle_traced(&mut tr, 0), self.cycle(0, 0));
        let same = matches!((&split, &whole), (Ok(a), Ok(b))
            if a.predicted_s.to_bits() == b.predicted_s.to_bits());
        checks.check(same, || {
            format!("split cycle {split:?} differs from from_snapshot_file cycle {whole:?}")
        });
    }

    fn worker_count(&self) -> usize {
        parallel::resolve_threads(EngineConfig::default().workers)
    }

    fn describe(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("callers", 1.0),
            ("cycles_per_block", CYCLES_PER_BLOCK as f64),
            ("warmup_cycles", WARMUP_CYCLES as f64),
            ("fixture_test_mape", self.fixture.test_mape),
        ]
    }

    fn layer_metrics(&self, ctx: &LayerCtx<'_>, out: &mut Layers) {
        self.fixture.setup_layers(out);
        let s = ctx.summary;
        out.insert("snapshot.decode_ms", s.stat("snapshot.decode").mean_ms());
        out.insert("snapshot.restore_ms", s.stat("snapshot.restore").mean_ms());
        out.insert("runtime.spawn_ms", s.stat("runtime.engine_new").mean_ms());
        out.insert(
            "runtime.first_call_ms",
            s.stat("runtime.first_call").mean_ms(),
        );
        out.insert("runtime.shutdown_ms", s.stat("runtime.shutdown").mean_ms());
        out.insert("runtime.call_us", s.stat("runtime.first_call").mean_us());
        // Plans recorded by the time a cold-started engine has answered.
        if let Ok(engine) = self.fixture.serve() {
            let _ = end_to_end_opts(
                &engine,
                &self.net,
                &self.dev,
                self.seed,
                &SubmitOptions::default(),
            );
            let predictor = &engine.model().predictor;
            out.insert("plan.compile_count", predictor.plan_compile_count() as f64);
            out.insert(
                "plan.serving_weights_bytes",
                predictor.serving_weights_bytes() as f64,
            );
        }
    }
}
