//! `serve_trickle`: small ragged calls of pre-encoded samples.
//!
//! Each op is one `predict_samples_opts` call of 1..=24 samples (uniform)
//! cut from a pool of one op shape (dense / softmax / bmm). Nothing is
//! sampled, lowered, encoded or replayed per call, so `runtime` admission,
//! chunking, queue wake-up, remainder promotion and small-batch `plan`
//! replay do all the work. A `runtime` or small-batch change shows here;
//! an encode change must not.
//!
//! The pool holds 512 samples per shape and calls are contiguous slices of
//! it, so single samples recur across calls while no two calls are alike.
//! The engine keeps no per-sample state, so recurrence gives it nothing.

use std::time::Instant;

use cdmpp_core::{encode_programs, EncodedSample};
use devsim::Simulator;
use rand::rngs::StdRng;
use rand::SeedableRng;
use runtime::{InferenceEngine, SubmitOptions};
use tir::{lower, sample_schedule, OpSpec, TensorProgram};

use super::fixture::Fixture;
use super::{
    mix, op_id, serving_layers, BlockOut, CallCount, Checks, Counters, LayerCtx, Layers, RunCfg,
    Workload, REFERENCE_SEED,
};
use crate::trace::{Tracer, OP};

const CALLERS: usize = 2;
/// Enough calls for a block to have a p95 of its own (25 beyond it).
const CALLS_PER_BLOCK: u64 = 500;
const WARMUP_CALLS: u64 = 1000;
const WARMUP_CALLER: usize = CALLERS;
const MAX_CALL: u64 = 24;
const POOL_PER_SHAPE: usize = 512;
const CHECK_SAMPLES: usize = 1000;

fn shapes() -> [OpSpec; 3] {
    [
        OpSpec::Dense {
            m: 128,
            n: 128,
            k: 128,
        },
        OpSpec::Softmax {
            rows: 256,
            cols: 256,
        },
        OpSpec::BatchMatmul {
            b: 4,
            m: 64,
            n: 64,
            k: 64,
        },
    ]
}

/// Samples, lowers and encodes [`POOL_PER_SHAPE`] programs per shape for
/// the T4, `y_raw` set to the simulator's latency.
fn sample_pools(engine: &InferenceEngine, seed: u64) -> Vec<Vec<EncodedSample>> {
    let model = engine.model();
    let dev = devsim::t4();
    let sim = Simulator::new(dev.clone());
    shapes()
        .into_iter()
        .enumerate()
        .map(|(s, spec)| {
            let nest = spec.canonical_nest();
            let mut rng = StdRng::seed_from_u64(mix(seed, 0x7001, s as u64));
            let mut programs: Vec<TensorProgram> = Vec::with_capacity(POOL_PER_SHAPE);
            while programs.len() < POOL_PER_SHAPE {
                if let Ok(p) = lower(&nest, &sample_schedule(&nest, &mut rng)) {
                    programs.push(p);
                }
            }
            let refs: Vec<&TensorProgram> = programs.iter().collect();
            let mut enc =
                encode_programs(&refs, &dev, model.predictor.config().theta, model.use_pe);
            for (e, p) in enc.iter_mut().zip(&programs) {
                e.y_raw = sim.latency_seconds(p);
            }
            enc
        })
        .collect()
}

pub struct ServeTrickle {
    fixture: Fixture,
    engine: InferenceEngine,
    /// Encoded samples per shape, `y_raw` holding the simulator's latency.
    pools: Vec<Vec<EncodedSample>>,
    seed: u64,
    calls: CallCount,
    quality_err: f64,
}

impl ServeTrickle {
    pub fn new(cfg: &RunCfg) -> Result<ServeTrickle, String> {
        let fixture = Fixture::build(&cfg.out_dir, &cfg.workload)?;
        let engine = fixture.serve()?;
        let pools = sample_pools(&engine, cfg.seed);
        let mut w = ServeTrickle {
            fixture,
            engine,
            pools,
            seed: cfg.seed,
            calls: CallCount::default(),
            quality_err: f64::NAN,
        };
        for idx in 0..WARMUP_CALLS {
            if w.call(WARMUP_CALLER, idx).is_none() {
                return Err(format!("warm-up call {idx} failed"));
            }
        }
        // Quality: MAPE of the engine's answers over the reference pools
        // against the simulator.
        let mut ape = Vec::new();
        for pool in sample_pools(&w.engine, REFERENCE_SEED) {
            w.calls.add(1);
            let got = w
                .engine
                .predict_samples(&pool)
                .map_err(|e| format!("scoring the reference pool failed: {e}"))?;
            ape.extend(
                got.iter()
                    .zip(&pool)
                    .map(|(p, s)| (p - s.y_raw).abs() / s.y_raw.max(1e-12)),
            );
        }
        w.quality_err = ape.iter().sum::<f64>() / ape.len() as f64;
        Ok(w)
    }

    fn input(&self, caller: usize, idx: u64) -> &[EncodedSample] {
        let r = mix(self.seed, caller as u64, idx);
        let pool = &self.pools[(r % self.pools.len() as u64) as usize];
        let len = 1 + ((r >> 8) % MAX_CALL) as usize;
        let start = ((r >> 20) % (pool.len() - len + 1) as u64) as usize;
        &pool[start..start + len]
    }

    /// One call; the answers when every sample came back with one.
    fn call(&self, caller: usize, idx: u64) -> Option<Vec<f64>> {
        let enc = self.input(caller, idx);
        self.calls.add(1);
        let per = self
            .engine
            .predict_samples_opts(enc, &SubmitOptions::default())
            .ok()?;
        per.into_iter().collect::<Result<Vec<f64>, _>>().ok()
    }
}

impl Workload for ServeTrickle {
    fn callers(&self) -> usize {
        CALLERS
    }

    fn block(
        &self,
        caller: usize,
        block: u64,
        mut tracer: Option<&mut Tracer>,
        lat_ns: &mut Vec<u64>,
    ) -> BlockOut {
        let mut out = BlockOut::default();
        for k in 0..CALLS_PER_BLOCK {
            let idx = block * CALLS_PER_BLOCK + k;
            let t0 = Instant::now();
            let answers = match tracer.as_deref_mut() {
                None => self.call(caller, idx),
                Some(tr) => {
                    let id = op_id(caller, idx);
                    let op = tr.open(OP, None, id);
                    tr.count("samples", self.input(caller, idx).len() as u64);
                    let r = tr.span("runtime.predict_samples_opts", Some(op), id, || {
                        self.call(caller, idx)
                    });
                    tr.close(op);
                    r
                }
            };
            lat_ns.push(t0.elapsed().as_nanos() as u64);
            out.ops += 1;
            let ok = matches!(&answers, Some(a) if a.iter().all(|p| p.is_finite() && *p > 0.0));
            out.failed += u64::from(!ok);
            std::hint::black_box(&answers);
        }
        out
    }

    fn quality_err(&self) -> f64 {
        self.quality_err
    }

    fn verify(&self, checks: &mut Checks) {
        let enc: Vec<EncodedSample> = self
            .pools
            .iter()
            .flatten()
            .take(CHECK_SAMPLES)
            .cloned()
            .collect();
        self.calls.add(1);
        checks.engine_matches_serial(&self.engine, &enc);
        // Ragged calls too: the chunking and promotion paths must not
        // change a bit either.
        let model = self.engine.model();
        for idx in 0..200 {
            let got = self.call(CALLERS + 1, idx);
            let want = model.predict_samples(self.input(CALLERS + 1, idx)).ok();
            let same = match (&got, &want) {
                (Some(g), Some(w)) => {
                    g.len() == w.len() && g.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits())
                }
                _ => false,
            };
            checks.check(same, || format!("ragged call {idx} differs from serial"));
        }
        checks.engine_accounting(&self.engine.stats(), self.calls.get());
    }

    fn counters(&self) -> Counters {
        Counters::of(&self.engine)
    }

    fn worker_count(&self) -> usize {
        self.engine.worker_count()
    }

    fn describe(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("callers", CALLERS as f64),
            ("calls_per_block", CALLS_PER_BLOCK as f64),
            ("warmup_calls", WARMUP_CALLS as f64),
            ("max_call_samples", MAX_CALL as f64),
            ("pool_samples", (POOL_PER_SHAPE * self.pools.len()) as f64),
            ("fixture_test_mape", self.fixture.test_mape),
        ]
    }

    fn layer_metrics(&self, ctx: &LayerCtx<'_>, out: &mut Layers) {
        self.fixture.setup_layers(out);
        let inputs: Vec<&[EncodedSample]> =
            (0..CALLS_PER_BLOCK).map(|idx| self.input(0, idx)).collect();
        serving_layers(&self.engine, &inputs, ctx, out);
        out.insert(
            "gemm.small_ns_B1_L8",
            super::probes::prepacked_ns(8, 56, 32),
        );
    }
}
