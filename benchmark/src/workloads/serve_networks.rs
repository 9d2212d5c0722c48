//! `serve_networks`: the CLI `serve` path under two closed-loop callers.
//!
//! Each op is one `runtime::end_to_end_opts` call — sample one schedule per
//! task of a zoo network, lower, encode (allocating), score through the
//! engine, replay the DFG — round-robin over the 9 networks x 9 devices
//! (6-35 tasks per call, mixed leaf counts). Calls are small, so program
//! sampling, encode, hand-off and replay outweigh plan/GEMM work.

use std::time::Instant;

use cdmpp_core::{
    encode_programs, replay_predictions, sample_network_programs, E2eResult, EncodedSample,
};
use devsim::DeviceSpec;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use runtime::{end_to_end_opts, EngineError, InferenceEngine, SubmitOptions};
use tir::{Network, TensorProgram};

use super::fixture::Fixture;
use super::{
    mix, op_id, serving_layers, BlockOut, CallCount, Checks, Counters, LayerCtx, Layers, RunCfg,
    Workload, REFERENCE_SEED,
};
use crate::stats::median;
use crate::trace::{Tracer, OP};

const CALLERS: usize = 2;
/// Three passes over the 81 (network, device) pairs.
const CALLS_PER_BLOCK: u64 = 243;
const WARMUP_CALLS: u64 = 243;
/// Caller slots whose inputs no timed caller uses. The reference slot's
/// inputs do not depend on the seed.
const REFERENCE_CALLER: usize = CALLERS;
const CHECK_CALLER: usize = CALLERS + 1;
const CHECK_SAMPLES: usize = 1000;

pub struct ServeNetworks {
    fixture: Fixture,
    engine: InferenceEngine,
    nets: Vec<Network>,
    devs: Vec<DeviceSpec>,
    /// The (network, device) pairs in seeded order.
    order: Vec<(usize, usize)>,
    seed: u64,
    calls: CallCount,
    quality_err: f64,
}

impl ServeNetworks {
    pub fn new(cfg: &RunCfg) -> Result<ServeNetworks, String> {
        let fixture = Fixture::build(&cfg.out_dir, &cfg.workload)?;
        let engine = fixture.serve()?;
        let nets = tir::all_networks(1);
        let devs = devsim::all_devices();
        let mut order: Vec<(usize, usize)> = (0..nets.len())
            .flat_map(|n| (0..devs.len()).map(move |d| (n, d)))
            .collect();
        order.shuffle(&mut StdRng::seed_from_u64(cfg.seed));
        let mut w = ServeNetworks {
            fixture,
            engine,
            nets,
            devs,
            order,
            seed: cfg.seed,
            calls: CallCount::default(),
            quality_err: f64::NAN,
        };
        // Warm-up: plan arenas, promotion histogram, allocator. Its calls
        // are the reference calls, and their answers the quality sample.
        let mut errors = Vec::with_capacity(WARMUP_CALLS as usize);
        for idx in 0..WARMUP_CALLS {
            let r = w
                .call(REFERENCE_CALLER, idx)
                .map_err(|e| format!("warm-up call {idx} failed: {e}"))?;
            errors.push(r.error());
        }
        w.quality_err = median(&errors);
        Ok(w)
    }

    fn input(&self, caller: usize, idx: u64) -> (&Network, &DeviceSpec, u64) {
        if caller == REFERENCE_CALLER {
            let slot = idx as usize % self.order.len();
            let (n, d) = (slot / self.devs.len(), slot % self.devs.len());
            return (&self.nets[n], &self.devs[d], mix(REFERENCE_SEED, 0, idx));
        }
        let slot = (idx as usize + caller * 40) % self.order.len();
        let (n, d) = self.order[slot];
        (
            &self.nets[n],
            &self.devs[d],
            mix(self.seed, caller as u64, idx),
        )
    }

    /// The op as the CLI issues it.
    fn call(&self, caller: usize, idx: u64) -> Result<E2eResult, EngineError> {
        let (net, dev, pseed) = self.input(caller, idx);
        self.calls.add(1);
        end_to_end_opts(&self.engine, net, dev, pseed, &SubmitOptions::default())
    }

    /// Samples and encodes one call's programs, as `end_to_end_opts` does.
    fn encode_call(&self, caller: usize, idx: u64) -> Vec<EncodedSample> {
        let (net, dev, pseed) = self.input(caller, idx);
        let (_, programs) = sample_network_programs(net, pseed);
        let refs: Vec<&TensorProgram> = programs.iter().collect();
        let model = self.engine.model();
        encode_programs(&refs, dev, model.predictor.config().theta, model.use_pe)
    }

    /// The same op composed from the four public calls `end_to_end_opts`
    /// itself makes, with a span around each.
    fn call_traced(
        &self,
        tr: &mut Tracer,
        caller: usize,
        idx: u64,
    ) -> Result<E2eResult, EngineError> {
        let (net, dev, pseed) = self.input(caller, idx);
        let id = op_id(caller, idx);
        let op = tr.open(OP, None, id);
        let p = Some(op);
        let (task_ids, programs) = tr.span("tir.sample_network_programs", p, id, || {
            sample_network_programs(net, pseed)
        });
        let refs: Vec<&TensorProgram> = programs.iter().collect();
        let model = self.engine.model();
        let enc = tr.span("features.encode_programs", p, id, || {
            encode_programs(&refs, dev, model.predictor.config().theta, model.use_pe)
        });
        tr.count("samples", enc.len() as u64);
        self.calls.add(1);
        let scored = tr.span("runtime.predict_samples_opts", p, id, || {
            self.engine
                .predict_samples_opts(&enc, &SubmitOptions::default())
                .and_then(|per| per.into_iter().collect::<Result<Vec<f64>, _>>())
        });
        let out = scored.map(|predicted| {
            tr.span("replayer.replay_predictions", p, id, || {
                replay_predictions(net, dev, &task_ids, &programs, &predicted)
            })
        });
        tr.close(op);
        out
    }
}

impl Workload for ServeNetworks {
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
            let r = match tracer.as_deref_mut() {
                None => self.call(caller, idx),
                Some(tr) => self.call_traced(tr, caller, idx),
            };
            lat_ns.push(t0.elapsed().as_nanos() as u64);
            out.ops += 1;
            let ok = matches!(r, Ok(r) if r.predicted_s.is_finite() && r.predicted_s > 0.0);
            out.failed += u64::from(!ok);
            std::hint::black_box(&r);
        }
        out
    }

    fn quality_err(&self) -> f64 {
        self.quality_err
    }

    fn verify(&self, checks: &mut Checks) {
        // Engine answers against the serial model on a seeded sample subset.
        let mut enc = Vec::with_capacity(CHECK_SAMPLES + 40);
        let mut idx = 0;
        while enc.len() < CHECK_SAMPLES {
            enc.extend(self.encode_call(CHECK_CALLER, idx));
            idx += 1;
        }
        enc.truncate(CHECK_SAMPLES);
        self.calls.add(1);
        checks.engine_matches_serial(&self.engine, &enc);
        // The traced run's composed op is the op: same bits as the one call.
        let mut tr = Tracer::new(Instant::now());
        for idx in 0..self.order.len() as u64 {
            let composed = self.call_traced(&mut tr, CHECK_CALLER, idx);
            let direct = self.call(CHECK_CALLER, idx);
            let same = match (&composed, &direct) {
                (Ok(a), Ok(b)) => {
                    a.predicted_s.to_bits() == b.predicted_s.to_bits()
                        && a.measured_s.to_bits() == b.measured_s.to_bits()
                }
                _ => false,
            };
            checks.check(same, || {
                format!("composed call {idx} {composed:?} differs from end_to_end_opts {direct:?}")
            });
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
            ("networks", self.nets.len() as f64),
            ("devices", self.devs.len() as f64),
            ("fixture_test_mape", self.fixture.test_mape),
        ]
    }

    fn layer_metrics(&self, ctx: &LayerCtx<'_>, out: &mut Layers) {
        self.fixture.setup_layers(out);
        let s = ctx.summary;
        out.insert(
            "tir.sample_lower_us",
            s.stat("tir.sample_network_programs").mean_us(),
        );
        out.insert(
            "features.encode_us",
            s.stat("features.encode_programs").mean_us(),
        );
        out.insert(
            "replayer.replay_us",
            s.stat("replayer.replay_predictions").mean_us(),
        );
        let inputs: Vec<Vec<EncodedSample>> = (0..CALLS_PER_BLOCK)
            .map(|idx| self.encode_call(0, idx))
            .collect();
        serving_layers(&self.engine, &inputs, ctx, out);
    }
}
