//! Benchmark-side spans around the program's public entry points.
//!
//! The program under test is not instrumented: every span here is opened
//! and closed by the benchmark around a public call (or built from the
//! deltas of a public counter read on both sides of one). Each caller
//! thread owns a [`Tracer`], so recording takes no lock; the tracers are
//! merged when the run ends and written out once.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// The root span of every op. Its self time is the benchmark's own glue
/// between layer calls — time the trace cannot give to a layer.
pub const OP: &str = "op";

/// At most this many spans go into a trace file; the statistics always use
/// all of them.
const MAX_SPANS_WRITTEN: usize = 20_000;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`; the layer is the module that owns the call.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one op share this.
    pub op_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The module a span belongs to: the name up to the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// One caller thread's span and count recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// All tracers of a run share `epoch`, so their spans share a clock.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<u32>, op_id: u64) -> u32 {
        let start_ns = self.now_ns();
        self.synth(name, start_ns, start_ns, parent, op_id)
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records `f` as one span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        op_id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, op_id);
        let out = f();
        self.close(id);
        out
    }

    /// Records a span whose bounds come from counters, not from the clock.
    pub fn synth(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        op_id: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id,
        });
        (self.spans.len() - 1) as u32
    }

    /// Adds to a count taken at the same boundary as the spans.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }
}

/// Everything the tracers of one run recorded.
#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub counts: BTreeMap<&'static str, u64>,
}

impl Trace {
    pub fn absorb(&mut self, tracer: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(tracer.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        for (k, v) in tracer.counts {
            *self.counts.entry(k).or_insert(0) += v;
        }
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

/// Self time of every span: its duration minus the part of it that its
/// child spans cover. Children are clipped to the parent and overlapping
/// children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameStat {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameStat {
    /// Mean duration in microseconds (means, not medians: the parts of an
    /// op have to add up to the op).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }

    pub fn mean_ms(&self) -> f64 {
        self.mean_us() / 1e3
    }
}

/// What a traced run says about where an op's time went.
pub struct Summary {
    pub by_name: BTreeMap<&'static str, NameStat>,
    /// Total wall of the root `op` spans.
    pub op_wall_ns: u64,
    pub ops: u64,
}

impl Summary {
    pub fn of(trace: &Trace) -> Summary {
        let selfs = self_times(&trace.spans);
        let mut by_name: BTreeMap<&'static str, NameStat> = BTreeMap::new();
        for (s, self_ns) in trace.spans.iter().zip(selfs) {
            let e = by_name.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += s.dur_ns();
            e.self_ns += self_ns;
        }
        let op = by_name.get(OP).copied().unwrap_or_default();
        Summary {
            by_name,
            op_wall_ns: op.total_ns,
            ops: op.count,
        }
    }

    pub fn stat(&self, name: &str) -> NameStat {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Self time per layer as a share of the op wall, the benchmark's own
    /// glue (`op` self time) excluded.
    pub fn layer_shares(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        let wall = self.op_wall_ns.max(1) as f64;
        for (name, st) in &self.by_name {
            if *name != OP {
                *out.entry(layer_of(name)).or_insert(0.0) += st.self_ns as f64 / wall;
            }
        }
        out
    }

    /// Share of the op wall that the layers' self times add up to.
    pub fn coverage(&self) -> f64 {
        self.layer_shares().values().sum()
    }
}

/// Writes the trace (capped at [`MAX_SPANS_WRITTEN`] spans) with its
/// summary: one file per traced run, written once at exit.
pub fn write_file(
    path: &Path,
    workload: &str,
    trace: &Trace,
    summary: &Summary,
) -> std::io::Result<()> {
    let written = trace.spans.len().min(MAX_SPANS_WRITTEN);
    let spans = trace.spans[..written]
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("start_ns", Json::Int(s.start_ns as i64)),
                ("end_ns", Json::Int(s.end_ns as i64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                ),
                ("op_id", Json::Int(s.op_id as i64)),
            ])
        })
        .collect();
    let names = summary.by_name.iter().map(|(name, st)| {
        (
            *name,
            Json::obj([
                ("count", Json::Int(st.count as i64)),
                ("total_ns", Json::Int(st.total_ns as i64)),
                ("self_ns", Json::Int(st.self_ns as i64)),
            ]),
        )
    });
    let doc = Json::obj([
        ("workload", Json::str(workload)),
        ("spans_total", Json::Int(trace.spans.len() as i64)),
        ("spans_written", Json::Int(written as i64)),
        ("ops", Json::Int(summary.ops as i64)),
        ("op_wall_ns", Json::Int(summary.op_wall_ns as i64)),
        (
            "layer_share_of_op_wall",
            Json::obj(
                summary
                    .layer_shares()
                    .into_iter()
                    .map(|(k, v)| (k, Json::Num(v))),
            ),
        ),
        ("coverage_share", Json::Num(summary.coverage())),
        (
            "counts",
            Json::obj(trace.counts.iter().map(|(k, v)| (*k, Json::Int(*v as i64)))),
        ),
        ("by_name", Json::obj(names)),
        ("spans", Json::Arr(spans)),
    ]);
    std::fs::write(path, doc.to_json_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_adjacent_and_overlapping_children() {
        let spans = vec![
            span(OP, 0, 100, None),
            // Two adjacent children and one nested grandchild.
            span("a.x", 10, 40, Some(0)),
            span("b.y", 40, 70, Some(0)),
            span("a.z", 15, 25, Some(1)),
            // Overlaps b.y and sticks out of the parent: clipped to 60..100,
            // of which 60..70 is already covered.
            span("c.w", 60, 130, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![10, 20, 30, 10, 70]);
    }

    #[test]
    fn self_times_of_a_tree_add_up_to_its_root() {
        let spans = vec![
            span(OP, 5, 1005, None),
            span("tir.sample", 5, 300, Some(0)),
            span("features.encode", 310, 600, Some(0)),
            span("runtime.call", 600, 990, Some(0)),
            span("plan.busy", 700, 900, Some(3)),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 1000);
        let trace = Trace {
            spans,
            ..Default::default()
        };
        let summary = Summary::of(&trace);
        assert_eq!(summary.ops, 1);
        let shares = summary.layer_shares();
        assert!((shares["runtime"] - 0.19).abs() < 1e-12);
        assert!((shares["plan"] - 0.2).abs() < 1e-12);
        // Glue: 10 ns between sample and encode, 15 ns after the call.
        assert!((summary.coverage() - 0.975).abs() < 1e-12);
    }

    #[test]
    fn absorbing_a_tracer_rebases_its_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let op = a.open(OP, None, 1);
        a.span("x.y", Some(op), 1, || ());
        a.close(op);
        a.count("samples", 3);
        let mut b = Tracer::new(epoch);
        let op = b.open(OP, None, 2);
        b.span("x.y", Some(op), 2, || ());
        b.close(op);
        b.count("samples", 4);
        let mut trace = Trace::default();
        trace.absorb(a);
        trace.absorb(b);
        assert_eq!(trace.spans[3].parent, Some(2));
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.count("samples"), 7);
    }

    #[test]
    fn layer_is_the_name_up_to_the_first_dot() {
        assert_eq!(layer_of("runtime.predict_samples_opts"), "runtime");
        assert_eq!(layer_of(OP), "op");
    }
}
