//! The benchmark's names: workloads, end-to-end metrics with their bounds,
//! per-layer metrics. `BENCHMARK.json` at the repository root is generated
//! from these tables (`--print-benchmark-json`); a unit test in `report`
//! keeps the committed file equal to them.

/// How long one run measures, in seconds, unless `--seconds` says otherwise.
pub const RUN_SECONDS: u64 = 12;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "serve_networks",
        why: "CLI serve path: small network-latency calls where program sampling, allocating encode, hand-off and replay outweigh plan/GEMM work",
    },
    WorkloadSpec {
        name: "serve_trickle",
        why: "pre-encoded ragged calls of 1..=24 samples: runtime admission, chunking, wake-up, promotion and small-batch replay only; encode changes must not show",
    },
    WorkloadSpec {
        name: "search_bulk",
        why: "engine-backed generational searches, 8 rounds x 1024 candidates: arena encode, full-class replay and B=64 GEMM, where kernel and plan gains can show",
    },
    WorkloadSpec {
        name: "train_device",
        why: "cross-device recipe (pretrain, select_tasks, CMD finetune, evaluate): tape forward+backward and training GEMMs, so a serving gain that costs training shows",
    },
    WorkloadSpec {
        name: "cold_start",
        why: "snapshot file to first answer and shutdown, per cycle: decode, plan re-validation, worker spawn/join, so work moved from the hot path into load shows",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Set by the inputs alone: two runs with one seed must agree exactly.
    pub exact: bool,
}

pub const SETUP_S: &str = "setup_s";
pub const OPS_PER_S: &str = "ops_per_s";
pub const OP_P50_MS: &str = "op_p50_ms";
pub const OP_TAIL_MS: &str = "op_tail_ms";
pub const QUALITY_ERR: &str = "quality_err";

/// The timing bounds are the widest the driver admits. On this host
/// `serve_trickle`, whose calls are two thread hand-offs each, spreads
/// 8-13% between identical runs even at reference speed (README, "First
/// baseline"); a tighter bound would flag the host, not the change.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: OPS_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: OP_P50_MS,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: OP_TAIL_MS,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: QUALITY_ERR,
        unit: "ratio",
        better: Better::Lower,
        bound: 0.01,
        exact: true,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count the inputs determine: it must repeat exactly for one seed.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

const fn counted(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

/// Layer = module name. A workload reports 0 for a layer it does not use.
pub const PER_LAYER: [PerLayer; 53] = [
    timed("tir.sample_lower_us", "us"),
    timed("tir.lower_us", "us"),
    timed("features.encode_us", "us"),
    timed("features.arena_encode_us", "us"),
    counted("features.arena_growth", "count", Better::Lower),
    timed("batch.encode_records_ms", "ms"),
    timed("batch.make_batches_ms", "ms"),
    timed("runtime.call_us", "us"),
    timed("runtime.overhead_us", "us"),
    rate("runtime.busy_share", "ratio"),
    counted("runtime.chunks_per_call", "ratio", Better::Lower),
    counted("runtime.samples_per_chunk", "ratio", Better::Higher),
    // Set by thread timing, not by the inputs alone.
    timed("runtime.queue_depth_hw", "count"),
    timed("runtime.promotions", "count"),
    timed("runtime.class_demotions", "count"),
    counted("runtime.rejected", "count", Better::Lower),
    counted("runtime.chunk_retries", "count", Better::Lower),
    timed("runtime.dispatch_us", "us"),
    counted("runtime.score_sheds", "count", Better::Lower),
    timed("runtime.spawn_ms", "ms"),
    timed("runtime.first_call_ms", "ms"),
    timed("runtime.shutdown_ms", "ms"),
    timed("plan.serial_replay_us", "us"),
    timed("plan.busy_us", "us"),
    counted("plan.compile_count", "count", Better::Lower),
    counted("plan.serving_weights_bytes", "bytes", Better::Lower),
    rate("gemm.prepacked_gflops_B64_L8", "gflop/s"),
    rate("gemm.prepacked_gflops_ffn_up", "gflop/s"),
    timed("gemm.small_ns_B1_L8", "ns"),
    rate("gemm.train_matmul_gflops", "gflop/s"),
    rate("gemm.train_matmul_t_gflops", "gflop/s"),
    rate("search.score_share", "ratio"),
    timed("search.self_us", "us"),
    counted("search.unique_share", "ratio", Better::Higher),
    counted("search.measurements", "count", Better::Lower),
    timed("devsim.latency_us", "us"),
    timed("replayer.replay_us", "us"),
    timed("trainer.epoch_s", "s"),
    timed("trainer.step_ms_p50", "ms"),
    timed("trainer.parallel_step_ms_p50", "ms"),
    timed("trainer.evaluate_ms", "ms"),
    timed("learn.select_tasks_ms", "ms"),
    timed("finetune.step_ms", "ms"),
    timed("snapshot.decode_ms", "ms"),
    timed("snapshot.restore_ms", "ms"),
    counted("snapshot.file_bytes", "bytes", Better::Lower),
    timed("dataset.generate_s", "s"),
    timed("trainer.fixture_train_s", "s"),
    timed("snapshot.capture_save_ms", "ms"),
    rate("host.reference_scale", "ratio"),
    timed("process.peak_rss_mb", "MB"),
    timed("trace.overhead_share", "ratio"),
    rate("trace.coverage_share", "ratio"),
];

/// Knobs that silently change the program being measured. The runner
/// refuses to start while any of them is set.
pub const FORBIDDEN_ENV: [&str; 6] = [
    "CDMPP_SIMD",
    "CDMPP_QUANT",
    "CDMPP_FAULTS",
    "CDMPP_BATCH_WINDOW_MS",
    "CDMPP_SCALE",
    "PARALLEL_THREADS",
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(is_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in &END_TO_END {
            assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in &PER_LAYER {
            assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == SETUP_S).unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s gets the largest bound");
    }
}
