//! Fig 2: AST node-count vs leaf-count distributions.
//!
//! Paper claim: node counts in Tenset span a wide, irregular range
//! (Fig 2a) while leaf counts stay in a small range (Fig 2b) — the
//! observation that motivates compact ASTs.

use bench::{claim_check, standard_dataset};
use dataset::histogram;

fn main() {
    let ds = standard_dataset(vec![devsim::t4()], 16);
    let idx = ds.device_records("T4");
    let nodes: Vec<f64> = idx
        .iter()
        .map(|&i| ds.records[i].program.node_count() as f64)
        .collect();
    let leaves: Vec<f64> = idx
        .iter()
        .map(|&i| ds.records[i].program.leaf_count() as f64)
        .collect();
    println!(
        "Fig 2(a): AST node count distribution ({} programs)",
        idx.len()
    );
    for (center, count) in histogram(&nodes, 12) {
        println!(
            "  nodes ~{:>5.1}: {}",
            center,
            "#".repeat(count * 60 / idx.len().max(1))
        );
    }
    let (nmin, nmax) = (
        nodes.iter().cloned().fold(f64::MAX, f64::min),
        nodes.iter().cloned().fold(f64::MIN, f64::max),
    );
    println!("  range: {nmin:.0}..{nmax:.0}\n");
    println!("Fig 2(b): leaf node count distribution");
    for (center, count) in histogram(&leaves, 6) {
        println!(
            "  leaves ~{:>4.1}: {}",
            center,
            "#".repeat(count * 60 / idx.len().max(1))
        );
    }
    let (lmin, lmax) = (
        leaves.iter().cloned().fold(f64::MAX, f64::min),
        leaves.iter().cloned().fold(f64::MIN, f64::max),
    );
    println!("  range: {lmin:.0}..{lmax:.0}");
    let (leaf_range, node_range) = (lmax - lmin, nmax - nmin);
    println!();
    claim_check(
        "leaf range << node range (at least 10x narrower)",
        leaf_range * 10.0 <= node_range,
        &format!("leaf range {leaf_range:.0}, node range {node_range:.0}"),
    );
}
