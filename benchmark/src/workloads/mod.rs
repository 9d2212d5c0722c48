//! The five workloads and the closed-loop driver they share.
//!
//! Every workload is a sequence of fixed-size **blocks** of ops per caller
//! thread. A block's inputs derive from `(seed, caller, block index)`, so a
//! seed fixes the inputs and no two blocks repeat each other. The driver
//! runs blocks until a deadline; per-block throughput and per-unit
//! latencies are what the end-to-end metrics are computed from.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use cdmpp_core::{EncodedSample, PlanRunner};
use runtime::{EngineStats, InferenceEngine, ScoreTimings};

use crate::calib::{self, HostSampler};
use crate::trace::{Summary, Trace, Tracer};

pub mod cold_start;
pub mod fixture;
pub mod probes;
pub mod search_bulk;
pub mod serve_networks;
pub mod serve_trickle;
pub mod train_device;

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where fixtures and trace files go (`benchmark/out`).
    pub out_dir: PathBuf,
}

/// Totals of one block.
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockOut {
    /// Ops completed (the unit `ops_per_s` counts).
    pub ops: u64,
    /// Ops that errored, were refused, or came back wrong.
    pub failed: u64,
}

/// Public counters read from outside the program at phase boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub stats: EngineStats,
    pub score: ScoreTimings,
    pub arena_growth: u64,
}

impl Counters {
    pub fn of(engine: &InferenceEngine) -> Counters {
        Counters {
            stats: engine.stats(),
            ..Default::default()
        }
    }

    /// Growth of the cumulative counters since `earlier` (gauges and
    /// high-water marks keep their later reading).
    pub fn since(&self, earlier: &Counters) -> Counters {
        let (a, b) = (&self.stats, &earlier.stats);
        Counters {
            stats: EngineStats {
                admitted: a.admitted - b.admitted,
                rejected: a.rejected - b.rejected,
                deadline_sheds: a.deadline_sheds - b.deadline_sheds,
                worker_panics: a.worker_panics - b.worker_panics,
                worker_restarts: a.worker_restarts - b.worker_restarts,
                chunk_retries: a.chunk_retries - b.chunk_retries,
                completed_chunks: a.completed_chunks - b.completed_chunks,
                swaps: a.swaps - b.swaps,
                class_demotions: a.class_demotions - b.class_demotions,
                score_sheds: a.score_sheds - b.score_sheds,
                window_fill_flushes: a.window_fill_flushes - b.window_fill_flushes,
                window_timer_flushes: a.window_timer_flushes - b.window_timer_flushes,
                promotions: a.promotions - b.promotions,
                predict_ns: a.predict_ns - b.predict_ns,
                queue_depth: a.queue_depth,
                queue_depth_hw: a.queue_depth_hw,
                parked: a.parked,
            },
            score: ScoreTimings {
                encode_ns: self.score.encode_ns - earlier.score.encode_ns,
                dispatch_ns: self.score.dispatch_ns - earlier.score.dispatch_ns,
                scored: self.score.scored - earlier.score.scored,
            },
            arena_growth: self.arena_growth - earlier.arena_growth,
        }
    }
}

/// Correctness checks made outside the timed regions. Every item counts
/// into `attempted`; a violated one counts into `failed` and is named.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.violations.len() < 16 {
                self.violations.push(what());
            }
        }
    }

    /// One item per pair; passes when the two are bit-identical.
    pub fn bit_identical(&mut self, what: &str, got: &[f64], want: &[f64]) {
        self.check(got.len() == want.len(), || {
            format!("{what}: {} answers for {} samples", got.len(), want.len())
        });
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            self.check(g.to_bits() == w.to_bits(), || {
                format!("{what}: sample {i} is {g:e}, serial says {w:e}")
            });
        }
    }

    /// Engine answers against the serial model on the same samples.
    pub fn engine_matches_serial(&mut self, engine: &InferenceEngine, enc: &[EncodedSample]) {
        match (
            engine.predict_samples(enc),
            engine.model().predict_samples(enc),
        ) {
            (Ok(got), Ok(want)) => self.bit_identical("engine vs serial", &got, &want),
            (got, want) => self.check(false, || {
                format!(
                    "engine vs serial: engine {:?}, serial {:?}",
                    got.err(),
                    want.err()
                )
            }),
        }
    }

    /// End-of-run accounting from `EngineStats`.
    pub fn engine_accounting(&mut self, stats: &EngineStats, calls_issued: u64) {
        self.check(stats.admitted == calls_issued, || {
            format!(
                "engine admitted {} of {calls_issued} calls issued",
                stats.admitted
            )
        });
        self.check(stats.queue_depth == 0, || {
            format!("queue_depth {} at end of run", stats.queue_depth)
        });
        self.check(stats.parked == 0, || {
            format!("parked {} at end of run", stats.parked)
        });
        self.check(stats.worker_panics == 0, || {
            format!("{} worker panics", stats.worker_panics)
        });
    }
}

/// What the traced run hands a workload to compute its layer metrics from.
pub struct LayerCtx<'a> {
    pub trace: &'a Trace,
    pub summary: &'a Summary,
    /// Counter growth over the first traced block of every caller: a fixed
    /// set of ops, so counts taken over it repeat exactly for one seed.
    pub counted: Counters,
    /// The tracers' own counts over that same first block.
    pub counted_counts: &'a BTreeMap<&'static str, u64>,
    /// Counter growth over all traced blocks, and their wall time.
    pub traced: Counters,
    pub traced_wall_ns: u64,
    /// Median over the run's blocks of the scale to reference speed.
    pub run_scale: f64,
    pub sampler: RefCell<&'a mut HostSampler>,
}

impl LayerCtx<'_> {
    /// Runs a probe that returns a time, and converts the time to the
    /// speed the host had during the run. Probes run after the run; where
    /// one is set against a time taken during it, the host's drift in
    /// between would otherwise read as a difference between the two.
    pub fn at_run_speed(&self, probe: impl FnOnce() -> f64) -> f64 {
        let mut sampler = self.sampler.borrow_mut();
        let before = sampler.sample_ns();
        let time = probe();
        time * calib::scale(before, sampler.sample_ns()) / self.run_scale
    }
}

pub type Layers = BTreeMap<&'static str, f64>;

pub trait Workload: Sync {
    /// Caller threads of the closed loop (never more than `nproc`).
    fn callers(&self) -> usize;

    /// Runs block `block` of `caller`. Pushes one latency (ns) per timed
    /// unit; records spans when `tracer` is given.
    fn block(
        &self,
        caller: usize,
        block: u64,
        tracer: Option<&mut Tracer>,
        lat_ns: &mut Vec<u64>,
    ) -> BlockOut;

    /// Output quality against simulator ground truth, from untimed ops the
    /// seed fixes.
    fn quality_err(&self) -> f64;

    /// Correctness checks, outside the timed regions.
    fn verify(&self, checks: &mut Checks);

    fn counters(&self) -> Counters {
        Counters::default()
    }

    /// Engine worker threads (0 when the workload serves through none).
    fn worker_count(&self) -> usize {
        0
    }

    /// Descriptor rows for the detail line: op counts and sizes.
    fn describe(&self) -> Vec<(&'static str, f64)>;

    /// Per-layer metrics of the traced run, probes included.
    fn layer_metrics(&self, ctx: &LayerCtx<'_>, out: &mut Layers);
}

pub fn build(cfg: &RunCfg) -> Result<Box<dyn Workload>, String> {
    Ok(match cfg.workload.as_str() {
        "serve_networks" => Box::new(serve_networks::ServeNetworks::new(cfg)?),
        "serve_trickle" => Box::new(serve_trickle::ServeTrickle::new(cfg)?),
        "search_bulk" => Box::new(search_bulk::SearchBulk::new(cfg)?),
        "train_device" => Box::new(train_device::TrainDevice::new(cfg)?),
        "cold_start" => Box::new(cold_start::ColdStart::new(cfg)?),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// One block as the driver saw it.
#[derive(Debug, Clone)]
pub struct BlockRec {
    pub ops: u64,
    pub failed: u64,
    pub wall_ns: u64,
    pub traced: bool,
    /// What the block's times are multiplied by to read at the reference
    /// host's speed; see [`crate::calib`].
    pub scale: f64,
    /// Latency of each timed unit of the block.
    pub lat_ns: Vec<u64>,
}

/// Everything one phase of the closed loop produced.
#[derive(Default)]
pub struct Phase {
    pub blocks: Vec<BlockRec>,
    pub wall_ns: u64,
    pub tracers: Vec<Tracer>,
}

impl Phase {
    pub fn absorb(&mut self, other: Phase) {
        self.blocks.extend(other.blocks);
        self.wall_ns += other.wall_ns;
        self.tracers.extend(other.tracers);
    }
}

#[derive(Clone, Copy)]
pub enum Until {
    Blocks(u64),
    Deadline(Instant),
}

/// The closed loop: each caller runs its next block as soon as its last
/// one returned, and remembers where it stopped between phases.
pub struct Driver<'a> {
    workload: &'a dyn Workload,
    next_block: Vec<u64>,
}

impl<'a> Driver<'a> {
    pub fn new(workload: &'a dyn Workload) -> Driver<'a> {
        Driver {
            workload,
            next_block: vec![0; workload.callers()],
        }
    }

    /// Runs one phase. With `trace_epoch`, every even block records spans
    /// (into tracers sharing that clock) and every odd block runs as an
    /// untraced run would: side by side in one phase, the two give the
    /// overhead of tracing without a warm-up or ordering bias.
    ///
    /// Callers meet at a checkpoint before the first block and after every
    /// block: with all of them stopped, caller 0 samples the host's speed
    /// (see [`crate::calib`]) and decides whether the phase is over, so
    /// every caller runs the same number of blocks.
    pub fn run(
        &mut self,
        until: Until,
        trace_epoch: Option<Instant>,
        sampler: &mut HostSampler,
    ) -> Phase {
        let w = self.workload;
        let started = Instant::now();
        let checkpoint = Checkpoint {
            barrier: Barrier::new(self.next_block.len()),
            pass_ns: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        };
        let checkpoint = &checkpoint;
        let mut sampler = Some(sampler);
        let per_caller: Vec<(u64, Phase)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .next_block
                .iter()
                .enumerate()
                .map(|(caller, &first)| {
                    // Caller 0 leads: it holds the sampler.
                    let mut sampler = if caller == 0 { sampler.take() } else { None };
                    s.spawn(move || {
                        let mut phase = Phase::default();
                        let mut tracer = trace_epoch.map(Tracer::new);
                        let mut block = first;
                        let mut units_hint = 0;
                        let (mut pass_before, _) = checkpoint.meet(sampler.as_deref_mut(), false);
                        loop {
                            let traced = tracer.is_some() && block % 2 == 0;
                            let mut lat_ns = Vec::with_capacity(units_hint);
                            let t0 = Instant::now();
                            let out = w.block(
                                caller,
                                block,
                                tracer.as_mut().filter(|_| traced),
                                &mut lat_ns,
                            );
                            let wall_ns = t0.elapsed().as_nanos() as u64;
                            units_hint = lat_ns.len();
                            block += 1;
                            let over = match until {
                                Until::Blocks(n) => block - first >= n,
                                Until::Deadline(at) => Instant::now() >= at,
                            };
                            let (pass_after, stop) = checkpoint.meet(sampler.as_deref_mut(), over);
                            phase.blocks.push(BlockRec {
                                ops: out.ops,
                                failed: out.failed,
                                wall_ns,
                                traced,
                                scale: calib::scale(pass_before, pass_after),
                                lat_ns,
                            });
                            pass_before = pass_after;
                            if stop {
                                break;
                            }
                        }
                        phase.tracers.extend(tracer);
                        (block, phase)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a caller thread panicked"))
                .collect()
        });
        let mut phase = Phase::default();
        for (caller, (next, p)) in per_caller.into_iter().enumerate() {
            self.next_block[caller] = next;
            phase.absorb(p);
        }
        phase.wall_ns = started.elapsed().as_nanos() as u64;
        phase
    }
}

/// Where the callers of a phase stop between blocks.
struct Checkpoint {
    barrier: Barrier,
    /// Bits of the reference pass time the leader last sampled.
    pass_ns: AtomicU64,
    stop: AtomicBool,
}

impl Checkpoint {
    /// Waits for every caller; the leader (the one holding the sampler)
    /// samples the host and says whether the phase is `over` while the
    /// others are still. Returns its findings to all of them.
    fn meet(&self, sampler: Option<&mut HostSampler>, over: bool) -> (f64, bool) {
        self.barrier.wait();
        if let Some(s) = sampler {
            self.pass_ns
                .store(s.sample_ns().to_bits(), Ordering::SeqCst);
            self.stop.store(over, Ordering::SeqCst);
        }
        self.barrier.wait();
        (
            f64::from_bits(self.pass_ns.load(Ordering::SeqCst)),
            self.stop.load(Ordering::SeqCst),
        )
    }
}

/// Seed of every workload's quality sample. Like a test set, the ops that
/// `quality_err` is measured on are the same whatever `--seed` says: the
/// metric then moves only when the program's answers move.
pub const REFERENCE_SEED: u64 = 0x00c0_ffee_5eed;

/// The `runtime` and `plan` rows every engine-backed workload reports.
pub fn engine_layers(engine: &InferenceEngine, ctx: &LayerCtx<'_>, out: &mut Layers) {
    let workers = engine.worker_count().max(1) as f64;
    out.insert(
        "runtime.busy_share",
        ctx.traced.stats.predict_ns as f64 / (ctx.traced_wall_ns.max(1) as f64 * workers),
    );
    let counted = &ctx.counted.stats;
    out.insert(
        "runtime.chunks_per_call",
        counted.completed_chunks as f64 / counted.admitted.max(1) as f64,
    );
    out.insert(
        "runtime.samples_per_chunk",
        ctx.counted_counts.get("samples").copied().unwrap_or(0) as f64
            / counted.completed_chunks.max(1) as f64,
    );
    let now = engine.stats();
    out.insert("runtime.queue_depth_hw", now.queue_depth_hw as f64);
    out.insert("runtime.promotions", now.promotions as f64);
    out.insert("runtime.class_demotions", now.class_demotions as f64);
    out.insert("runtime.rejected", now.rejected as f64);
    out.insert("runtime.chunk_retries", now.chunk_retries as f64);
    out.insert("runtime.score_sheds", now.score_sheds as f64);
    let predictor = &engine.model().predictor;
    out.insert("plan.compile_count", predictor.plan_compile_count() as f64);
    out.insert(
        "plan.serving_weights_bytes",
        predictor.serving_weights_bytes() as f64,
    );
}

/// The rows of a serving workload whose op spans `predict_samples_opts`:
/// the call, the same kind of calls (`inputs`) through the serial model
/// and a warmed runner with no engine, and what is left of a call — the
/// runtime's own admit, chunk, hand-off and collect.
pub fn serving_layers<S: AsRef<[EncodedSample]>>(
    engine: &InferenceEngine,
    inputs: &[S],
    ctx: &LayerCtx<'_>,
    out: &mut Layers,
) {
    let call_us = ctx.summary.stat("runtime.predict_samples_opts").mean_us();
    out.insert("runtime.call_us", call_us);
    let model = engine.model();
    let mut runner = PlanRunner::new();
    let mut serial = |enc: &S| {
        std::hint::black_box(model.predict_samples_with(&mut runner, enc.as_ref()).ok());
    };
    inputs.iter().for_each(&mut serial);
    let serial_us =
        ctx.at_run_speed(|| time_per_item(inputs, Duration::from_millis(200), serial)) / 1e3;
    out.insert("plan.serial_replay_us", serial_us);
    out.insert("runtime.overhead_us", call_us - serial_us);
    engine_layers(engine, ctx, out);
}

/// SplitMix64 over a seed and two indices: the one place workload inputs
/// get their randomness from.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(b.wrapping_mul(0xd1b5_4a32_d192_ed03))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Op identifier shared by the spans of one op.
pub fn op_id(caller: usize, index: u64) -> u64 {
    ((caller as u64) << 48) | index
}

/// Engine calls issued, for the end-of-run `admitted` accounting.
#[derive(Default)]
pub struct CallCount(AtomicU64);

impl CallCount {
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Mean of `f` over `items`, in nanoseconds per item, run long enough to
/// read (at least `min` of wall time, whole passes only).
pub fn time_per_item<T>(items: &[T], min: Duration, mut f: impl FnMut(&T)) -> f64 {
    assert!(!items.is_empty());
    let started = Instant::now();
    let mut done = 0u64;
    loop {
        for it in items {
            f(it);
        }
        done += items.len() as u64;
        if started.elapsed() >= min {
            return started.elapsed().as_nanos() as f64 / done as f64;
        }
    }
}
