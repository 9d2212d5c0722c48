//! Algorithm 2 exactly as `cdmpp_core::replay_timeline` ran it before the
//! successor lists (PR 17): after every finished node it scans *all* nodes
//! with `deps.contains(&u)`, O(n²) a replay. Kept verbatim as the oracle the
//! linear-time loop must match — same pop order, same tie-breaks, same
//! floats. It keeps the old loop's defect too: `refcount` counts a
//! duplicated dependency edge twice but releases it once, so the properties
//! only feed it DAGs whose `deps` are distinct.

use cdmpp_core::{DfgNode, TimelineEntry};

/// Algorithm 2 with a full execution trace: returns the per-node timeline
/// (in execution order) and the iteration time. Useful for debugging DFG
/// schedules, in the spirit of dPRO's timeline output.
pub fn replay_timeline(nodes: &[DfgNode], n_engines: usize) -> (Vec<TimelineEntry>, f64) {
    assert!(n_engines >= 1, "need at least one engine");
    let n = nodes.len();
    if n == 0 {
        return (Vec::new(), 0.0);
    }
    let mut timeline = Vec::with_capacity(n);
    // Lines 3-6: device times and per-device ready queues.
    let mut device_time = vec![0.0f64; n_engines];
    let mut refcount: Vec<usize> = nodes.iter().map(|u| u.deps.len()).collect();
    let mut ready_time = vec![0.0f64; n];
    // Per-engine queues of ready nodes ordered by readyTime.
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); n_engines];
    for (i, u) in nodes.iter().enumerate() {
        if refcount[i] == 0 {
            queues[u.engine.min(n_engines - 1)].push(i);
        }
    }
    let mut finished = 0usize;
    let mut iteration_time = 0.0f64;
    while finished < n {
        // Line 14: select the first device with a non-empty queue,
        // preferring the one with the smallest deviceTime.
        let d = match (0..n_engines)
            .filter(|&d| !queues[d].is_empty())
            .min_by(|&a, &b| device_time[a].partial_cmp(&device_time[b]).expect("finite"))
        {
            Some(d) => d,
            None => break, // Cycle in the graph: stop simulation.
        };
        // Line 18: pop the op with the smallest readyTime.
        let (pos, _) = queues[d]
            .iter()
            .enumerate()
            .min_by(|(_, &a), (_, &b)| ready_time[a].partial_cmp(&ready_time[b]).expect("finite"))
            .expect("non-empty queue");
        let u = queues[d].remove(pos);
        // Lines 19-20: start and completion times.
        let start = device_time[d].max(ready_time[u]);
        let end = start + nodes[u].duration_s + nodes[u].gap_s;
        device_time[d] = end;
        iteration_time = iteration_time.max(end);
        timeline.push(TimelineEntry {
            node: u,
            engine: d,
            start_s: start,
            end_s: end,
        });
        finished += 1;
        // Lines 22-28: release successors.
        for (v, node) in nodes.iter().enumerate() {
            if node.deps.contains(&u) {
                refcount[v] -= 1;
                ready_time[v] = ready_time[v].max(end);
                if refcount[v] == 0 {
                    queues[node.engine.min(n_engines - 1)].push(v);
                }
            }
        }
    }
    (timeline, iteration_time)
}
