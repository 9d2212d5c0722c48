//! One run of one workload: set-up, the timed closed loop, the checks, and
//! — in a traced run — the spans, probes and layer metrics.
//!
//! Every end-to-end time is taken per block, scaled to the reference
//! host's speed (see [`crate::calib`]), and reported as the median over
//! the run's blocks: a burst of interference shorter than half the run
//! moves nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::calib::{self, HostSampler};
use crate::json::Json;
use crate::report;
use crate::spec;
use crate::stats::{median, tail};
use crate::trace::{self, Summary, Trace};
use crate::workloads::{self, probes, Checks, Driver, LayerCtx, Layers, Phase, RunCfg, Until};

/// Set-up is done this many times and its median reported, so one slow
/// page-in does not read as a set-up regression.
const SETUP_REPEATS: usize = 3;

pub struct Outcome {
    /// The contract's result object.
    pub result: Json,
    /// What else a reader needs to interpret it.
    pub detail: Json,
    pub correct: bool,
}

/// Throughput and latency of a set of blocks.
#[derive(Debug, Clone, Copy)]
struct Speed {
    ops_per_s: f64,
    op_p50_ms: f64,
    op_tail_ms: f64,
}

/// The end-to-end numbers of the timed blocks.
struct Timed {
    ops: u64,
    failed: u64,
    units: usize,
    blocks: usize,
    wall_s: f64,
    /// At the reference host's speed: what the run reports.
    at_reference: Speed,
    /// As the clock read: what this host did while it was measured.
    as_measured: Speed,
    /// Median over blocks of the scale between the two.
    scale: f64,
    /// The percentile `op_tail_ms` is, and the units of a block it is over.
    tail_percentile: u32,
    units_per_block: usize,
}

/// Median over blocks of wall time per op in nanoseconds, scaled or not,
/// over all blocks or only the traced (or untraced) ones.
fn per_op_ns(phase: &Phase, scaled: bool, traced: Option<bool>) -> Option<f64> {
    let per_block: Vec<f64> = phase
        .blocks
        .iter()
        .filter(|b| traced.is_none_or(|t| b.traced == t))
        .map(|b| {
            let scale = if scaled { b.scale } else { 1.0 };
            b.wall_ns as f64 * scale / b.ops.max(1) as f64
        })
        .collect();
    (!per_block.is_empty()).then(|| median(&per_block))
}

fn timed(phase: &Phase, callers: usize) -> Timed {
    // Per block: the median unit latency, and the highest percentile with
    // ten units beyond it. Blocks are equal in size, so that percentile is
    // the same for all of them and for every host.
    let mut p50 = Vec::with_capacity(phase.blocks.len());
    let mut tails = Vec::with_capacity(phase.blocks.len());
    for b in &phase.blocks {
        let mut lat_ms: Vec<f64> = b.lat_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        lat_ms.sort_by(f64::total_cmp);
        p50.push((median(&lat_ms), b.scale));
        tails.push((tail(&lat_ms), b.scale));
    }
    let speed = |scaled: bool| {
        let s = |scale: f64| if scaled { scale } else { 1.0 };
        // Each caller completes ops at the median block's rate, and the
        // callers run side by side.
        let per_op = per_op_ns(phase, scaled, None).expect("a phase has blocks");
        Speed {
            ops_per_s: callers as f64 * 1e9 / per_op,
            op_p50_ms: median(&p50.iter().map(|&(v, k)| v * s(k)).collect::<Vec<_>>()),
            op_tail_ms: median(
                &tails
                    .iter()
                    .map(|&(t, k)| t.value * s(k))
                    .collect::<Vec<_>>(),
            ),
        }
    };
    Timed {
        ops: phase.blocks.iter().map(|b| b.ops).sum(),
        failed: phase.blocks.iter().map(|b| b.failed).sum(),
        units: phase.blocks.iter().map(|b| b.lat_ns.len()).sum(),
        blocks: phase.blocks.len(),
        wall_s: phase.wall_ns as f64 / 1e9,
        at_reference: speed(true),
        as_measured: speed(false),
        scale: median(&phase.blocks.iter().map(|b| b.scale).collect::<Vec<_>>()),
        tail_percentile: tails[0].0.percentile,
        units_per_block: tails[0].0.samples,
    }
}

fn speed_json(s: &Speed) -> Json {
    Json::obj([
        ("ops_per_s", Json::Num(s.ops_per_s)),
        ("op_p50_ms", Json::Num(s.op_p50_ms)),
        ("op_tail_ms", Json::Num(s.op_tail_ms)),
    ])
}

pub fn run_one(cfg: &RunCfg, git_rev: &str) -> Result<Outcome, String> {
    let mut sampler = HostSampler::new();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut setup_s_measured = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        // The previous one goes first: its engine threads and fixture file
        // must not be around while the next set-up is timed.
        drop(built.take());
        let pass_before = sampler.sample_ns();
        let t = Instant::now();
        built = Some(workloads::build(cfg)?);
        let s = t.elapsed().as_secs_f64();
        setup_s_measured.push(s);
        setup_s.push(s * calib::scale(pass_before, sampler.sample_ns()));
    }
    let w = built.expect("SETUP_REPEATS is at least one");
    let w = w.as_ref();
    let mut driver = Driver::new(w);
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);

    let epoch = cfg.trace.then(Instant::now);
    // The first block of every caller is a fixed set of ops: counters read
    // around it repeat exactly. The rest runs to the deadline.
    let c0 = w.counters();
    let mut measured = driver.run(Until::Blocks(1), epoch, &mut sampler);
    let c1 = w.counters();
    let mut trace = Trace::default();
    for t in std::mem::take(&mut measured.tracers) {
        trace.absorb(t);
    }
    let counted_counts = trace.counts.clone();
    measured.absorb(driver.run(Until::Deadline(deadline), epoch, &mut sampler));
    let c2 = w.counters();
    for t in std::mem::take(&mut measured.tracers) {
        trace.absorb(t);
    }

    let t = timed(&measured, w.callers());
    let mut checks = Checks::default();
    w.verify(&mut checks);
    let quality_err = w.quality_err();
    checks.check(quality_err.is_finite() && quality_err > 0.0, || {
        format!("quality_err is {quality_err}")
    });
    let attempted = t.ops + checks.attempted;
    let failed = t.failed + checks.failed;
    let correct = failed == 0;
    for v in &checks.violations {
        eprintln!("[benchmark] {}: check failed: {v}", cfg.workload);
    }

    let nums = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect());
    let mut detail = vec![
        ("workload", Json::str(&cfg.workload)),
        ("seed", Json::Int(cfg.seed as i64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("host", report::host(git_rev, w.worker_count())),
        (
            "sizes",
            Json::obj(w.describe().into_iter().map(|(k, v)| (k, Json::Num(v)))),
        ),
        (
            "timed",
            Json::obj([
                ("ops", Json::Int(t.ops as i64)),
                ("failed_ops", Json::Int(t.failed as i64)),
                ("units", Json::Int(t.units as i64)),
                ("blocks", Json::Int(t.blocks as i64)),
                ("wall_s", Json::Num(t.wall_s)),
                ("tail_percentile", Json::Int(t.tail_percentile as i64)),
                ("units_per_block", Json::Int(t.units_per_block as i64)),
                ("at_reference_speed", speed_json(&t.at_reference)),
                ("as_measured", speed_json(&t.as_measured)),
                ("reference_scale", Json::Num(t.scale)),
            ]),
        ),
        (
            "checks",
            Json::obj([
                ("attempted", Json::Int(checks.attempted as i64)),
                ("failed", Json::Int(checks.failed as i64)),
                (
                    "violations",
                    Json::Arr(checks.violations.iter().map(Json::str).collect()),
                ),
            ]),
        ),
        (
            "failed_share",
            Json::Num(failed as f64 / attempted.max(1) as f64),
        ),
        ("quality_err", Json::Num(quality_err)),
        ("setup_s_each", nums(&setup_s)),
        ("setup_s_each_as_measured", nums(&setup_s_measured)),
    ];

    let metrics: Vec<(&str, f64, &str)> = if cfg.trace {
        let summary = Summary::of(&trace);
        let mut layers: Layers = BTreeMap::new();
        let ctx = LayerCtx {
            trace: &trace,
            summary: &summary,
            counted: c1.since(&c0),
            counted_counts: &counted_counts,
            traced: c2.since(&c0),
            traced_wall_ns: measured.wall_ns,
            run_scale: t.scale,
            sampler: RefCell::new(&mut sampler),
        };
        w.layer_metrics(&ctx, &mut layers);
        // Traced and untraced blocks alternate within the run. A run too
        // short for an untraced block has no overhead to report.
        if let (Some(on), Some(off)) = (
            per_op_ns(&measured, true, Some(true)),
            per_op_ns(&measured, true, Some(false)),
        ) {
            layers.insert("trace.overhead_share", on / off - 1.0);
        }
        layers.insert("trace.coverage_share", summary.coverage());
        layers.insert("host.reference_scale", t.scale);
        layers.insert("process.peak_rss_mb", probes::peak_rss_mb());
        let path = cfg.out_dir.join(format!("trace-{}.json", cfg.workload));
        std::fs::create_dir_all(&cfg.out_dir)
            .and_then(|()| trace::write_file(&path, &cfg.workload, &trace, &summary))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        detail.push((
            "layer_share_of_op_wall",
            Json::obj(
                summary
                    .layer_shares()
                    .into_iter()
                    .map(|(k, v)| (k, Json::Num(v))),
            ),
        ));
        detail.push(("trace_file", Json::str(path.display().to_string())));
        for name in layers.keys() {
            debug_assert!(
                spec::PER_LAYER.iter().any(|m| m.name == *name),
                "{name} is not a per-layer metric"
            );
        }
        spec::PER_LAYER
            .iter()
            .map(|m| (m.name, layers.get(m.name).copied().unwrap_or(0.0), m.unit))
            .collect()
    } else {
        let value = |name: &str| match name {
            spec::SETUP_S => median(&setup_s),
            spec::OPS_PER_S => t.at_reference.ops_per_s,
            spec::OP_P50_MS => t.at_reference.op_p50_ms,
            spec::OP_TAIL_MS => t.at_reference.op_tail_ms,
            spec::QUALITY_ERR => quality_err,
            other => unreachable!("no value for end-to-end metric {other}"),
        };
        spec::END_TO_END
            .iter()
            .map(|m| (m.name, value(m.name), m.unit))
            .collect()
    };

    Ok(Outcome {
        result: report::result(correct, attempted, failed, &metrics),
        detail: Json::obj(detail),
        correct,
    })
}
