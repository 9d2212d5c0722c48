//! The replayer (§5.5, Appendix C, Algorithm 2): end-to-end DNN latency
//! from per-tensor-program predictions.
//!
//! The network's layer DAG becomes a tensor-program data-flow graph; each
//! node carries its predicted duration; Algorithm 2 topologically simulates
//! execution over one or more device queues (engines) and reports the
//! completion time of the last node. On the HL-100, GEMM-class nodes are
//! split into three parallel sub-operators, one per GEMM engine (§5.5).
//!
//! Cost contract: a network's DFG (`Dfg::for_network`) is written straight
//! into per-node duration / gap / engine arrays and CSR successor lists, in
//! O(n + e) and eight allocations, with no dependency list per node. One
//! `simulate` over it touches every node and every distinct edge once, plus
//! a scan of the popped engine's ready queue per node (a handful of entries
//! on zoo DFGs), in buffers its caller hands it (`Scratch`): the first replay
//! sizes them and later ones reuse them.
//! Durations are read at replay time, so one `Dfg` serves any number of
//! duration vectors over the same graph; `replay` and `replay_timeline` lay
//! a `DfgNode` list out the same way and run the same `simulate`.

use devsim::DeviceSpec;
use tir::{LayerNode, Network, OpSpec};

/// One node of the replayable DFG.
#[derive(Debug, Clone)]
pub struct DfgNode {
    /// Duration in seconds (predicted or measured).
    pub duration_s: f64,
    /// Indices of producer nodes.
    pub deps: Vec<usize>,
    /// Queue (engine) this node executes on.
    pub engine: usize,
    /// Inter-op dispatch gap in seconds.
    pub gap_s: f64,
}

/// One scheduled node in a replay timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineEntry {
    /// Node index in the input DFG.
    pub node: usize,
    /// Engine the node ran on.
    pub engine: usize,
    /// Start timestamp (seconds).
    pub start_s: f64,
    /// End timestamp (seconds, includes the dispatch gap).
    pub end_s: f64,
}

/// Algorithm 2: simulates the DFG over `n_engines` device queues and
/// returns the iteration time (completion of the last node) — NaN if any
/// node's duration or gap is not finite.
pub fn replay(nodes: &[DfgNode], n_engines: usize) -> f64 {
    let dfg = Dfg::from_nodes(nodes);
    simulate(&dfg, n_engines, &mut Scratch::default(), None)
}

/// Algorithm 2 with a full execution trace: returns the per-node timeline
/// (in execution order) and the iteration time — an empty timeline and NaN
/// if any duration or gap is not finite. Useful for debugging DFG schedules,
/// in the spirit of dPRO's timeline output.
pub fn replay_timeline(nodes: &[DfgNode], n_engines: usize) -> (Vec<TimelineEntry>, f64) {
    let mut timeline = Vec::with_capacity(nodes.len());
    let dfg = Dfg::from_nodes(nodes);
    let t = simulate(
        &dfg,
        n_engines,
        &mut Scratch::default(),
        Some(&mut timeline),
    );
    (timeline, t)
}

/// A DFG laid out for Algorithm 2: per-node arrays, and the edges turned
/// around into successor lists.
pub(crate) struct Dfg {
    duration_s: Vec<f64>,
    gap_s: Vec<f64>,
    engine: Vec<usize>,
    edges: Successors,
}

impl Dfg {
    /// # Panics
    /// If a `deps` entry is not a node index.
    fn from_nodes(nodes: &[DfgNode]) -> Self {
        let edges = Successors::new(nodes.len(), || {
            (nodes.iter().enumerate()).flat_map(|(v, node)| node.deps.iter().map(move |&d| (v, d)))
        });
        Dfg {
            duration_s: nodes.iter().map(|u| u.duration_s).collect(),
            gap_s: nodes.iter().map(|u| u.gap_s).collect(),
            engine: nodes.iter().map(|u| u.engine).collect(),
            edges,
        }
    }

    /// The DFG of `net` on `dev` with every duration zero, written straight
    /// into its arrays and successor lists (no per-node dependency list),
    /// and `first`: layer `li` became nodes `first[li]..first[li + 1]`.
    pub(crate) fn for_network(net: &Network, dev: &DeviceSpec) -> (Self, Vec<usize>) {
        let first = node_ranges(net, dev);
        let n = first[net.layers.len()];
        let mut engine = Vec::with_capacity(n);
        for layer in &net.layers {
            let (split, queue) = placement(&layer.spec, dev);
            engine.extend(queue..queue + split);
        }
        let edges = Successors::new(n, || {
            let first = &first;
            net.layers.iter().enumerate().flat_map(move |(li, layer)| {
                (first[li]..first[li + 1])
                    .flat_map(move |v| layer_deps(layer, first).map(move |d| (v, d)))
            })
        });
        let dfg = Dfg {
            duration_s: vec![0.0; n],
            gap_s: vec![dispatch_gap(dev); n],
            engine,
            edges,
        };
        (dfg, first)
    }

    /// Gives each layer's nodes its duration (`durations` yields one per
    /// layer), divided evenly among them (`ŷ/engines` for a split layer;
    /// exact for a single node: `d / 1.0`).
    pub(crate) fn set_layer_durations(
        &mut self,
        first: &[usize],
        durations: impl IntoIterator<Item = f64>,
    ) {
        for (range, d) in first.windows(2).zip(durations) {
            let sub = &mut self.duration_s[range[0]..range[1]];
            let each = d / sub.len() as f64;
            sub.fill(each);
        }
    }
}

/// A DFG's edges turned around: per node, its consumers in ascending index
/// (CSR), and how many distinct producers it waits for.
struct Successors {
    /// Consumers of `u` are `succ[start[u]..start[u + 1]]`.
    start: Vec<usize>,
    succ: Vec<usize>,
    /// Distinct producers per node: a dependency listed twice is one edge.
    producers: Vec<usize>,
}

impl Successors {
    /// The successor lists of `n` nodes whose dependency edges `edges()`
    /// yields as `(consumer, producer)`, grouped by consumer, consumers
    /// ascending. `edges` is walked twice: once to count, once to fill.
    ///
    /// # Panics
    /// If a producer is not a node index.
    fn new<I: Iterator<Item = (usize, usize)>>(n: usize, edges: impl Fn() -> I) -> Self {
        let mut start = vec![0usize; n + 1];
        let mut producers = vec![0usize; n];
        // Pass 1 counts distinct edges; `cursor[d] == v` marks producer `d`
        // as already counted for consumer `v` (consumers ascend).
        let mut cursor = vec![usize::MAX; n];
        for (v, d) in edges() {
            if cursor[d] != v {
                cursor[d] = v;
                start[d + 1] += 1;
                producers[v] += 1;
            }
        }
        for u in 0..n {
            start[u + 1] += start[u];
        }
        // Pass 2 fills; a repeated edge is the one written last for `d`.
        cursor.copy_from_slice(&start[..n]);
        let mut succ = vec![0usize; start[n]];
        for (v, d) in edges() {
            if cursor[d] == start[d] || succ[cursor[d] - 1] != v {
                succ[cursor[d]] = v;
                cursor[d] += 1;
            }
        }
        Successors {
            start,
            succ,
            producers,
        }
    }
}

/// Algorithm 2's working buffers, cleared and reused by every replay they
/// are handed to.
#[derive(Default)]
pub(crate) struct Scratch {
    device_time: Vec<f64>,
    refcount: Vec<usize>,
    ready_time: Vec<f64>,
    /// Per-engine queues of ready nodes, in release order.
    queues: Vec<Vec<usize>>,
}

/// The one Algorithm 2 loop: replays `dfg` over `n_engines` queues in
/// `scratch`'s buffers, optionally recording the timeline.
pub(crate) fn simulate(
    dfg: &Dfg,
    n_engines: usize,
    scratch: &mut Scratch,
    mut timeline: Option<&mut Vec<TimelineEntry>>,
) -> f64 {
    assert!(n_engines >= 1, "need at least one engine");
    // A non-finite duration has no schedule: NaN it through instead of
    // ordering queues by it or taking `max` past it.
    if !dfg
        .duration_s
        .iter()
        .chain(&dfg.gap_s)
        .all(|t| t.is_finite())
    {
        return f64::NAN;
    }
    let n = dfg.duration_s.len();
    let edges = &dfg.edges;
    let queue_of = |u: usize| dfg.engine[u].min(n_engines - 1);
    // Lines 3-6: device times and per-device ready queues.
    let Scratch {
        device_time,
        refcount,
        ready_time,
        queues,
    } = scratch;
    device_time.clear();
    device_time.resize(n_engines, 0.0);
    refcount.clear();
    refcount.extend_from_slice(&edges.producers);
    ready_time.clear();
    ready_time.resize(n, 0.0);
    queues.iter_mut().for_each(Vec::clear);
    queues.resize_with(n_engines, Vec::new);
    for u in 0..n {
        if refcount[u] == 0 {
            queues[queue_of(u)].push(u);
        }
    }
    let mut iteration_time = 0.0f64;
    loop {
        // Line 14: select the device with the smallest deviceTime among
        // those with a non-empty queue (the first on ties).
        let waiting = (0..n_engines).filter(|&d| !queues[d].is_empty());
        let Some(d) = first_min(waiting, |d| device_time[d]) else {
            // Every node ran, or the rest sit on a cycle.
            break;
        };
        // Line 18: pop the op with the smallest readyTime.
        let pos = first_min(0..queues[d].len(), |pos| ready_time[queues[d][pos]])
            .expect("non-empty queue");
        let u = queues[d].remove(pos);
        // Lines 19-20: start and completion times.
        let start = device_time[d].max(ready_time[u]);
        let end = start + dfg.duration_s[u] + dfg.gap_s[u];
        device_time[d] = end;
        iteration_time = iteration_time.max(end);
        if let Some(timeline) = timeline.as_deref_mut() {
            timeline.push(TimelineEntry {
                node: u,
                engine: d,
                start_s: start,
                end_s: end,
            });
        }
        // Lines 22-28: release successors.
        for &v in &edges.succ[edges.start[u]..edges.start[u + 1]] {
            refcount[v] -= 1;
            ready_time[v] = ready_time[v].max(end);
            if refcount[v] == 0 {
                queues[queue_of(v)].push(v);
            }
        }
    }
    iteration_time
}

/// The first item with the smallest key (`Iterator::min_by`'s tie-break;
/// keys are never NaN here).
fn first_min<T: Copy>(items: impl Iterator<Item = T>, key: impl Fn(T) -> f64) -> Option<T> {
    items.reduce(|best, x| if key(x) < key(best) { x } else { best })
}

/// How many engines a device exposes to the replayer.
pub fn engine_count(dev: &DeviceSpec) -> usize {
    if dev.gemm_engines > 0 {
        // GEMM engines + one vector-core queue (the TPC pool).
        dev.gemm_engines as usize + 1
    } else {
        1
    }
}

fn is_gemm_class(spec: &OpSpec) -> bool {
    matches!(
        spec,
        OpSpec::Dense { .. } | OpSpec::BatchMatmul { .. } | OpSpec::Conv2d { .. }
    )
}

/// How a layer maps onto `dev`'s queues: `(sub-operators, first queue)`. A
/// GEMM-class layer is split across the GEMM engines, `ŷ/engines` each
/// (§5.5); anything else is one node on the queue after them.
fn placement(spec: &OpSpec, dev: &DeviceSpec) -> (usize, usize) {
    match dev.gemm_engines as usize {
        n_gemm if n_gemm > 0 && is_gemm_class(spec) => (n_gemm, 0),
        n_gemm => (1, n_gemm),
    }
}

/// Inter-op dispatch gap of every DFG node on `dev`, in seconds.
fn dispatch_gap(dev: &DeviceSpec) -> f64 {
    dev.launch_overhead_us * 1e-6 * 0.1
}

/// Where each layer of `net` lands in its DFG on `dev`: layer `li` becomes
/// nodes `first[li]..first[li + 1]`.
fn node_ranges(net: &Network, dev: &DeviceSpec) -> Vec<usize> {
    let mut first = Vec::with_capacity(net.layers.len() + 1);
    first.push(0);
    for layer in &net.layers {
        first.push(first[first.len() - 1] + placement(&layer.spec, dev).0);
    }
    first
}

/// The producers of each node of `layer`: every node of every layer it
/// depends on, in the layer's dependency order.
fn layer_deps<'a>(layer: &'a LayerNode, first: &'a [usize]) -> impl Iterator<Item = usize> + 'a {
    layer
        .deps
        .iter()
        .flat_map(|&dep| first[dep]..first[dep + 1])
}

/// Builds the replayable DFG for a network on a device.
///
/// `layer_durations` gives the predicted latency of each layer (seconds).
/// On accelerators with GEMM engines, GEMM-class layers are split into
/// `gemm_engines` parallel sub-operators of `ŷ/engines` each (§5.5).
pub fn build_dfg(net: &Network, layer_durations: &[f64], dev: &DeviceSpec) -> Vec<DfgNode> {
    assert_eq!(net.layers.len(), layer_durations.len());
    let first = node_ranges(net, dev);
    let gap_s = dispatch_gap(dev);
    let mut nodes = Vec::with_capacity(first[net.layers.len()]);
    for (layer, &d) in net.layers.iter().zip(layer_durations) {
        let (split, queue) = placement(&layer.spec, dev);
        nodes.extend((queue..queue + split).map(|engine| DfgNode {
            duration_s: d / split as f64,
            deps: layer_deps(layer, &first).collect(),
            engine,
            gap_s,
        }));
    }
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::zoo;

    fn chain(durations: &[f64]) -> Vec<DfgNode> {
        durations
            .iter()
            .enumerate()
            .map(|(i, &d)| DfgNode {
                duration_s: d,
                deps: if i == 0 { vec![] } else { vec![i - 1] },
                engine: 0,
                gap_s: 0.0,
            })
            .collect()
    }

    #[test]
    fn serial_chain_sums() {
        let t = replay(&chain(&[1.0, 2.0, 3.0]), 1);
        assert!((t - 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_is_zero() {
        assert_eq!(replay(&[], 1), 0.0);
    }

    #[test]
    fn parallel_branches_on_one_engine_serialize() {
        // Diamond: 0 -> {1, 2} -> 3, all on one engine.
        let nodes = vec![
            DfgNode {
                duration_s: 1.0,
                deps: vec![],
                engine: 0,
                gap_s: 0.0,
            },
            DfgNode {
                duration_s: 2.0,
                deps: vec![0],
                engine: 0,
                gap_s: 0.0,
            },
            DfgNode {
                duration_s: 3.0,
                deps: vec![0],
                engine: 0,
                gap_s: 0.0,
            },
            DfgNode {
                duration_s: 1.0,
                deps: vec![1, 2],
                engine: 0,
                gap_s: 0.0,
            },
        ];
        assert!((replay(&nodes, 1) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_branches_on_two_engines_overlap() {
        let nodes = vec![
            DfgNode {
                duration_s: 1.0,
                deps: vec![],
                engine: 0,
                gap_s: 0.0,
            },
            DfgNode {
                duration_s: 2.0,
                deps: vec![0],
                engine: 0,
                gap_s: 0.0,
            },
            DfgNode {
                duration_s: 3.0,
                deps: vec![0],
                engine: 1,
                gap_s: 0.0,
            },
            DfgNode {
                duration_s: 1.0,
                deps: vec![1, 2],
                engine: 0,
                gap_s: 0.0,
            },
        ];
        // 0 (1s) then branches overlap (max 3s) then 3 (1s) = 5s.
        assert!((replay(&nodes, 2) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn dependencies_respected_regardless_of_queue_order() {
        // Node 1 is much shorter but depends on node 0.
        let nodes = vec![
            DfgNode {
                duration_s: 5.0,
                deps: vec![],
                engine: 0,
                gap_s: 0.0,
            },
            DfgNode {
                duration_s: 0.1,
                deps: vec![0],
                engine: 1,
                gap_s: 0.0,
            },
        ];
        let t = replay(&nodes, 2);
        assert!((t - 5.1).abs() < 1e-12);
    }

    #[test]
    fn gaps_accumulate() {
        let mut nodes = chain(&[1.0, 1.0]);
        nodes[0].gap_s = 0.5;
        nodes[1].gap_s = 0.5;
        assert!((replay(&nodes, 1) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn gpu_dfg_is_one_node_per_layer() {
        let net = zoo::bert_tiny(1);
        let durations = vec![1e-4; net.layers.len()];
        let dfg = build_dfg(&net, &durations, &devsim::v100());
        assert_eq!(dfg.len(), net.layers.len());
    }

    #[test]
    fn hl100_splits_gemm_layers() {
        let net = zoo::bert_tiny(1);
        let durations = vec![1e-4; net.layers.len()];
        let dev = devsim::hl100();
        let dfg = build_dfg(&net, &durations, &dev);
        let gemm_layers = net.layers.iter().filter(|l| is_gemm_class(&l.spec)).count();
        let expected = gemm_layers * 3 + (net.layers.len() - gemm_layers);
        assert_eq!(dfg.len(), expected);
        // Splitting across 3 engines beats the single-engine replay of the
        // same graph.
        let t_split = replay(&dfg, engine_count(&dev));
        let single: Vec<DfgNode> = net
            .layers
            .iter()
            .zip(durations.iter())
            .map(|(l, &d)| DfgNode {
                duration_s: d,
                deps: l.deps.clone(),
                engine: 0,
                gap_s: 0.0,
            })
            .collect();
        let t_single = replay(&single, 1);
        assert!(t_split < t_single, "{t_split} vs {t_single}");
    }

    #[test]
    fn timeline_covers_every_node_without_overlap_per_engine() {
        let nodes = vec![
            DfgNode {
                duration_s: 1.0,
                deps: vec![],
                engine: 0,
                gap_s: 0.0,
            },
            DfgNode {
                duration_s: 2.0,
                deps: vec![0],
                engine: 0,
                gap_s: 0.0,
            },
            DfgNode {
                duration_s: 3.0,
                deps: vec![0],
                engine: 1,
                gap_s: 0.0,
            },
            DfgNode {
                duration_s: 1.0,
                deps: vec![1, 2],
                engine: 0,
                gap_s: 0.0,
            },
        ];
        let (timeline, t) = replay_timeline(&nodes, 2);
        assert_eq!(timeline.len(), 4);
        assert!((t - 5.0).abs() < 1e-12);
        // Every node appears exactly once.
        let mut seen: Vec<usize> = timeline.iter().map(|e| e.node).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        // Per engine, intervals do not overlap.
        for engine in 0..2 {
            let mut intervals: Vec<(f64, f64)> = timeline
                .iter()
                .filter(|e| e.engine == engine)
                .map(|e| (e.start_s, e.end_s))
                .collect();
            intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in intervals.windows(2) {
                assert!(w[1].0 >= w[0].1 - 1e-12);
            }
        }
        // Dependencies respected in the trace.
        for e in &timeline {
            for &d in &nodes[e.node].deps {
                let dep_end = timeline.iter().find(|x| x.node == d).unwrap().end_s;
                assert!(e.start_s >= dep_end - 1e-12);
            }
        }
    }

    #[test]
    fn inception_branches_benefit_from_engines() {
        let net = zoo::inception_v3(1);
        let durations: Vec<f64> = net
            .layers
            .iter()
            .map(|l| l.spec.flops() * 1e-12 + 1e-5)
            .collect();
        let dfg1: Vec<DfgNode> = net
            .layers
            .iter()
            .zip(durations.iter())
            .map(|(l, &d)| DfgNode {
                duration_s: d,
                deps: l.deps.clone(),
                engine: 0,
                gap_s: 0.0,
            })
            .collect();
        let t1 = replay(&dfg1, 1);
        // Same graph, branches spread round-robin over 4 engines.
        let dfg4: Vec<DfgNode> = dfg1
            .iter()
            .enumerate()
            .map(|(i, n)| DfgNode {
                engine: i % 4,
                ..n.clone()
            })
            .collect();
        let t4 = replay(&dfg4, 4);
        assert!(t4 < t1);
    }
}
