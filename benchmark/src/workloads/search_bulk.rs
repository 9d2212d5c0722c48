//! `search_bulk`: engine-backed schedule search at scale.
//!
//! Each timed unit is one `generational_search` (8 rounds x 1024
//! candidates, no oracle sweep) through one long-lived `EngineCostModel`,
//! cycling 4 nests x 3 devices; the op `ops_per_s` counts is one unique
//! candidate scored, with the search driver's own propose / lower / dedup /
//! measure inside the wall. Bulk scoring: arena encode, full-class batch
//! replay and GEMM at B=64 — where kernel and plan gains can show, bounded
//! by the share of the wall that is dispatch.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use cdmpp_core::{generational_search, CostModel, GenSearchConfig, GenSearchTrace};
use devsim::{DeviceSpec, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use runtime::{EngineCostModel, InferenceEngine};
use tir::{lower, sample_schedule, Nest, OpSpec, TensorProgram};

use super::fixture::Fixture;
use super::{
    engine_layers, mix, op_id, probes, time_per_item, BlockOut, CallCount, Checks, Counters,
    LayerCtx, Layers, RunCfg, Workload, REFERENCE_SEED,
};
use crate::trace::{Tracer, OP};

/// One search per nest, so that every block is the same mix of work; the
/// device changes from block to block.
const SEARCHES_PER_BLOCK: u64 = 4;
const WARMUP_SEARCHES: u64 = 8;
const QUALITY_SEARCHES: u64 = 4;
const ROUNDS: usize = 8;
const CANDIDATES: usize = 1024;
/// Seed slots no timed search uses. The reference slot's seeds do not
/// depend on `--seed`.
const WARMUP_SLOT: u64 = 1;
const REFERENCE_SLOT: u64 = 2;

fn nests() -> Vec<Nest> {
    [
        OpSpec::Dense {
            m: 128,
            n: 128,
            k: 128,
        },
        OpSpec::Dense {
            m: 512,
            n: 512,
            k: 512,
        },
        OpSpec::BatchMatmul {
            b: 4,
            m: 64,
            n: 64,
            k: 64,
        },
        OpSpec::Softmax {
            rows: 256,
            cols: 256,
        },
    ]
    .iter()
    .map(OpSpec::canonical_nest)
    .collect()
}

pub struct SearchBulk {
    fixture: Fixture,
    engine: Arc<InferenceEngine>,
    cost: EngineCostModel,
    nests: Vec<Nest>,
    devs: Vec<DeviceSpec>,
    seed: u64,
    /// `score_batch` calls that reached the engine.
    calls: CallCount,
    quality_err: f64,
}

impl SearchBulk {
    pub fn new(cfg: &RunCfg) -> Result<SearchBulk, String> {
        let fixture = Fixture::build(&cfg.out_dir, &cfg.workload)?;
        let engine = Arc::new(fixture.serve()?);
        let cost = EngineCostModel::new(Arc::clone(&engine), 0);
        let mut w = SearchBulk {
            fixture,
            engine,
            cost,
            nests: nests(),
            devs: vec![devsim::t4(), devsim::a100(), devsim::epyc_7452()],
            seed: cfg.seed,
            calls: CallCount::default(),
            quality_err: f64::NAN,
        };
        for i in 0..WARMUP_SEARCHES {
            w.search(WARMUP_SLOT, i, false, &w.cost);
        }
        // Quality: how far the model's measured pick trails the best
        // candidate it was shown, from an oracle sweep the timed searches
        // do not pay for.
        let mut regret = 0.0;
        for i in 0..QUALITY_SEARCHES {
            let t = w.search(REFERENCE_SLOT, i, true, &w.cost);
            regret += t.rounds.last().map_or(f64::NAN, |r| r.regret);
        }
        w.quality_err = regret / QUALITY_SEARCHES as f64;
        Ok(w)
    }

    fn input(&self, index: u64) -> (&Nest, &DeviceSpec) {
        let n = self.nests.len() as u64;
        (
            &self.nests[(index % n) as usize],
            &self.devs[((index / n) % self.devs.len() as u64) as usize],
        )
    }

    fn search(&self, slot: u64, index: u64, oracle: bool, cost: &dyn CostModel) -> GenSearchTrace {
        let (nest, dev) = self.input(index);
        let cfg = GenSearchConfig {
            rounds: ROUNDS,
            candidates_per_round: CANDIDATES,
            seed: if slot == REFERENCE_SLOT {
                mix(REFERENCE_SEED, slot, index)
            } else {
                mix(self.seed, slot, index)
            },
            oracle_regret: oracle,
            ..Default::default()
        };
        let trace = generational_search(nest, dev, cost, &cfg);
        // One engine call per round that had anything to score.
        self.calls
            .add(trace.rounds.iter().filter(|r| r.unique > 0).count() as u64);
        trace
    }
}

/// Times `score_batch` from outside and splits it by the cost model's own
/// public counters, read on both sides of the call.
struct TracedCost<'a> {
    w: &'a SearchBulk,
    tr: RefCell<&'a mut Tracer>,
    parent: u32,
    op: u64,
}

impl CostModel for TracedCost<'_> {
    fn score(&self, prog: &TensorProgram, dev: &DeviceSpec) -> f64 {
        self.score_batch(&[prog], dev)[0]
    }

    fn score_batch(&self, progs: &[&TensorProgram], dev: &DeviceSpec) -> Vec<f64> {
        let mut tr = self.tr.borrow_mut();
        let before = self.w.counters();
        let t0 = tr.now_ns();
        let id = tr.open("runtime.score_batch", Some(self.parent), self.op);
        let out = self.w.cost.score_batch(progs, dev);
        tr.close(id);
        let d = self.w.counters().since(&before);
        let encode_end = t0 + d.score.encode_ns;
        let dispatch_end = encode_end + d.score.dispatch_ns;
        tr.synth(
            "features.encode_programs_into",
            t0,
            encode_end,
            Some(id),
            self.op,
        );
        let dispatch = tr.synth(
            "runtime.dispatch",
            encode_end,
            dispatch_end,
            Some(id),
            self.op,
        );
        // Worker busy time is summed over workers; as wall it is at most
        // the dispatch it happened inside.
        let busy = d.stats.predict_ns / self.w.engine.worker_count().max(1) as u64;
        tr.synth(
            "plan.replay_busy",
            encode_end,
            encode_end + busy.min(d.score.dispatch_ns),
            Some(dispatch),
            self.op,
        );
        tr.count("samples", progs.len() as u64);
        out
    }
}

impl Workload for SearchBulk {
    fn callers(&self) -> usize {
        1
    }

    fn block(
        &self,
        caller: usize,
        block: u64,
        mut tracer: Option<&mut Tracer>,
        lat_ns: &mut Vec<u64>,
    ) -> BlockOut {
        let mut out = BlockOut::default();
        for k in 0..SEARCHES_PER_BLOCK {
            let index = block * SEARCHES_PER_BLOCK + k;
            let t0 = Instant::now();
            let trace = match tracer.as_deref_mut() {
                None => self.search(0, index, false, &self.cost),
                Some(tr) => {
                    let id = op_id(caller, index);
                    let op = tr.open(OP, None, id);
                    let span = tr.open("search.generational_search", Some(op), id);
                    let traced = TracedCost {
                        w: self,
                        tr: RefCell::new(&mut *tr),
                        parent: span,
                        op: id,
                    };
                    let trace = self.search(0, index, false, &traced);
                    tr.close(span);
                    tr.close(op);
                    trace
                }
            };
            lat_ns.push(t0.elapsed().as_nanos() as u64);
            let unique: u64 = trace.rounds.iter().map(|r| r.unique as u64).sum();
            if let Some(tr) = tracer.as_deref_mut() {
                tr.count("unique", unique);
                tr.count(
                    "proposed",
                    trace.rounds.iter().map(|r| r.proposed as u64).sum(),
                );
                tr.count("measurements", trace.measurements as u64);
            }
            out.ops += unique;
            if !trace.best_measured.is_finite() {
                out.failed += unique.max(1);
            }
            std::hint::black_box(&trace);
        }
        out
    }

    fn quality_err(&self) -> f64 {
        self.quality_err
    }

    fn verify(&self, checks: &mut Checks) {
        // The engine-backed search picks what a serially scored one picks.
        let through_engine = self.search(0, 0, false, &self.cost);
        let model = self.engine.model();
        let (nest, dev) = self.input(0);
        let cfg = GenSearchConfig {
            rounds: ROUNDS,
            candidates_per_round: CANDIDATES,
            seed: mix(self.seed, 0, 0),
            ..Default::default()
        };
        let serial = generational_search(nest, dev, &*model, &cfg);
        checks.check(
            through_engine.best_schedule.identity_hash() == serial.best_schedule.identity_hash(),
            || {
                format!(
                    "first search picked {:#x} through the engine, {:#x} scored serially",
                    through_engine.best_schedule.identity_hash(),
                    serial.best_schedule.identity_hash()
                )
            },
        );
        let stats = self.engine.stats();
        checks.check(stats.score_sheds == 0, || {
            format!("{} candidates shed to INFINITY", stats.score_sheds)
        });
        checks.engine_accounting(&stats, self.calls.get());
    }

    fn counters(&self) -> Counters {
        Counters {
            stats: self.engine.stats(),
            score: self.cost.timings(),
            arena_growth: self.cost.arena_growth() as u64,
        }
    }

    fn worker_count(&self) -> usize {
        self.engine.worker_count()
    }

    fn describe(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("callers", 1.0),
            ("searches_per_block", SEARCHES_PER_BLOCK as f64),
            ("warmup_searches", WARMUP_SEARCHES as f64),
            ("rounds", ROUNDS as f64),
            ("candidates_per_round", CANDIDATES as f64),
            ("fixture_test_mape", self.fixture.test_mape),
        ]
    }

    fn layer_metrics(&self, ctx: &LayerCtx<'_>, out: &mut Layers) {
        self.fixture.setup_layers(out);
        engine_layers(&self.engine, ctx, out);
        let scored = ctx.traced.score.scored.max(1) as f64;
        out.insert(
            "features.arena_encode_us",
            ctx.traced.score.encode_ns as f64 / scored / 1e3,
        );
        out.insert("features.arena_growth", ctx.counted.arena_growth as f64);
        out.insert(
            "runtime.dispatch_us",
            ctx.traced.score.dispatch_ns as f64 / scored / 1e3,
        );
        out.insert(
            "plan.busy_us",
            ctx.traced.stats.predict_ns as f64 / scored / 1e3,
        );
        let search = ctx.summary.stat("search.generational_search");
        let score = ctx.summary.stat("runtime.score_batch");
        out.insert(
            "search.score_share",
            score.total_ns as f64 / search.total_ns.max(1) as f64,
        );
        out.insert(
            "search.self_us",
            search.self_ns as f64 / ctx.trace.count("unique").max(1) as f64 / 1e3,
        );
        let counted = |name: &str| ctx.counted_counts.get(name).copied().unwrap_or(0) as f64;
        out.insert(
            "search.unique_share",
            counted("unique") / counted("proposed").max(1.0),
        );
        out.insert("search.measurements", counted("measurements"));

        // The driver's own per-candidate work, from outside: sample a
        // schedule and lower it, 1024 per nest as a round does.
        let mut programs: Vec<TensorProgram> = Vec::new();
        let started = Instant::now();
        let mut lowered = 0u64;
        for (i, nest) in self.nests.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(mix(self.seed, 0x7102, i as u64));
            for _ in 0..CANDIDATES {
                lowered += 1;
                if let Ok(p) = lower(nest, &sample_schedule(nest, &mut rng)) {
                    if programs.len() < 64 * (i + 1) {
                        programs.push(p);
                    }
                }
            }
        }
        out.insert(
            "tir.lower_us",
            started.elapsed().as_nanos() as f64 / lowered as f64 / 1e3,
        );
        let sim = Simulator::new(self.devs[0].clone());
        let per_latency_ns = time_per_item(&programs, std::time::Duration::from_millis(60), |p| {
            std::hint::black_box(sim.latency_seconds(p));
        });
        out.insert("devsim.latency_us", per_latency_ns / 1e3);

        // The two weight GEMMs a full batch class of 8-leaf samples runs:
        // the leaf embedding and the feed-forward up-projection.
        let cfg = self.engine.model().predictor.config().clone();
        let rows = cdmpp_core::DEFAULT_MAX_BATCH * cfg.max_leaves;
        out.insert(
            "gemm.prepacked_gflops_B64_L8",
            probes::prepacked_gflops(rows, 56, cfg.d_model),
        );
        out.insert(
            "gemm.prepacked_gflops_ffn_up",
            probes::prepacked_gflops(rows, cfg.d_model, cfg.d_ff),
        );
    }
}
