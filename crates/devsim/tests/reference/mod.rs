//! The simulator's leaf cost model exactly as it stood before its memory
//! term read strides from one per-leaf table (PR 17): `dram_traffic_bytes`
//! rebuilds the access-independent `footprint_inside` table once per access
//! and every stride is a `MemAccess::stride` linear scan. Kept verbatim as
//! the oracle `Simulator::leaf_cost` must match bit for bit; only the
//! receiver changed (`self.spec` reads the public `DeviceSpec`), and the
//! program is read through its leaf views and `buffers()`.

use devsim::{DeviceClass, DeviceSpec, LeafCost};
use tir::{ComputeKind, LeafView, LoopKind, LoopVar, TensorProgram};

/// Cache-line size in bytes assumed for the contiguity penalty.
const CACHE_LINE_BYTES: f64 = 64.0;

/// Fraction of peak a leaf achieves with no vectorized loop at all.
fn scalar_fraction(class: DeviceClass) -> f64 {
    match class {
        DeviceClass::Gpu => 0.25,
        DeviceClass::Cpu => 0.2,
        DeviceClass::Accelerator => 0.12,
    }
}

/// The pre-PR-17 `Simulator`, reduced to the deterministic leaf model.
pub struct Reference {
    pub spec: DeviceSpec,
}

impl Reference {
    /// Cost of one leaf under its enclosing loop stack.
    pub fn leaf_cost(
        &self,
        prog: &TensorProgram,
        leaf: LeafView<'_>,
        stack: &[&LoopVar],
    ) -> LeafCost {
        let iters: f64 = stack.iter().map(|l| l.extent as f64).product();
        let par_iters: f64 = stack
            .iter()
            .filter(|l| l.kind == LoopKind::Parallel)
            .map(|l| l.extent as f64)
            .product();
        let cores_used = par_iters.min(self.spec.cores as f64).max(1.0);

        // --- Compute term ---
        let vec_extent: f64 = stack
            .iter()
            .filter(|l| l.kind == LoopKind::Vectorize)
            .map(|l| l.extent as f64)
            .product();
        let lane_util = if vec_extent > 1.0 {
            (vec_extent.min(self.spec.vector_width as f64)) / self.spec.vector_width as f64
        } else {
            scalar_fraction(self.spec.class)
        };
        let unroll_boost = if stack.iter().any(|l| l.kind == LoopKind::Unroll) {
            1.15
        } else {
            1.0
        };
        let gemm_boost = if self.spec.gemm_engines > 0 && leaf.kind == ComputeKind::Mac {
            // GEMM engines are systolic: high throughput for MACs only.
            6.0 * self.spec.gemm_engines as f64 / 3.0
        } else {
            1.0
        };
        let eff_flops =
            self.spec.peak_flops_per_core() * cores_used * lane_util * unroll_boost * gemm_boost;
        let compute_s = iters * leaf.flops_per_iter / eff_flops.max(1.0);

        // --- Memory term ---
        let traffic = self.dram_traffic_bytes(prog, leaf, stack);
        // Bandwidth bonus if the leaf's entire working set fits in L2.
        let working_set: f64 = self.leaf_working_set_bytes(prog, leaf, stack);
        let bw_boost = if working_set <= self.spec.l1_kb * 1024.0 {
            8.0
        } else if working_set <= self.spec.l2_kb * 1024.0 {
            3.0
        } else {
            1.0
        };
        // Parallel loops also spread memory requests across channels, with
        // diminishing returns.
        let bw_parallel = cores_used.sqrt().min(4.0);
        let memory_s = traffic / (self.spec.mem_bw_gbs * 1e9 * bw_boost * bw_parallel);

        // --- Loop overhead term ---
        let mut overhead_trips = 0.0;
        let mut outer = 1.0;
        for l in stack {
            let per_trip = match l.kind {
                LoopKind::Serial => 1.0,
                LoopKind::Parallel => 1.0,
                LoopKind::Unroll => 0.15,
                LoopKind::Vectorize => 1.0 / self.spec.vector_width as f64,
            };
            outer *= l.extent as f64;
            overhead_trips += outer * per_trip;
        }
        let overhead_s = overhead_trips * self.spec.loop_overhead_ns * 1e-9 / cores_used;

        LeafCost {
            compute_s,
            memory_s,
            overhead_s,
        }
    }

    /// Estimated DRAM traffic of a leaf in bytes, via stride/reuse analysis.
    fn dram_traffic_bytes(
        &self,
        prog: &TensorProgram,
        leaf: LeafView<'_>,
        stack: &[&LoopVar],
    ) -> f64 {
        let iters: f64 = stack.iter().map(|l| l.extent as f64).product();
        let elem_bytes = 4.0f64;
        let mut total = 0.0;
        for acc in &leaf.accesses {
            // Footprint of *all* accesses inside each loop level, innermost
            // first, used as the cache-capacity test for reuse.
            // footprint_inside[i] = bytes touched inside loop stack[i].
            let n = stack.len();
            let mut footprint_inside = vec![0.0f64; n + 1];
            // footprint at level n (inside the innermost loop) = one
            // element per access.
            footprint_inside[n] = leaf.accesses.len() as f64 * elem_bytes;
            for i in (0..n).rev() {
                let mut f = 0.0;
                for a2 in &leaf.accesses {
                    let mut elems = 1.0;
                    for l in &stack[i..] {
                        if a2.stride(l.axis) != 0 {
                            elems *= l.extent as f64;
                        }
                    }
                    f += elems * elem_bytes;
                }
                footprint_inside[i] = f;
            }
            // Reuse: walking outward, a loop with zero stride for this
            // access reuses the data inside it if that data fits in L2.
            let l2_bytes = self.spec.l2_kb * 1024.0;
            let mut reuse = 1.0f64;
            for i in (0..n).rev() {
                let l = stack[i];
                if acc.stride(l.axis) == 0 && footprint_inside[i + 1] <= l2_bytes {
                    reuse *= l.extent as f64;
                }
            }
            // Contiguity: penalty from the innermost moving loop's stride.
            let innermost_stride = stack
                .iter()
                .rev()
                .find_map(|l| {
                    let s = acc.stride(l.axis);
                    (s != 0).then_some(s.unsigned_abs() as f64)
                })
                .unwrap_or(1.0);
            let line_elems = CACHE_LINE_BYTES / elem_bytes;
            let penalty = innermost_stride.min(line_elems).max(1.0);
            // Compulsory floor: at least one pass over the touched data,
            // at most one line per iteration.
            let touched = footprint_inside[0].min(
                prog.buffers()
                    .get(acc.buffer as usize)
                    .map(|b| b.bytes() as f64)
                    .unwrap_or(f64::MAX),
            );
            let traffic =
                (iters / reuse * elem_bytes * penalty).max(touched.min(iters * elem_bytes));
            total += traffic;
        }
        total
    }

    /// Total bytes the leaf touches across all accesses (capped by buffer
    /// sizes).
    fn leaf_working_set_bytes(
        &self,
        prog: &TensorProgram,
        leaf: LeafView<'_>,
        stack: &[&LoopVar],
    ) -> f64 {
        let elem_bytes = 4.0f64;
        leaf.accesses
            .iter()
            .map(|acc| {
                let mut elems = 1.0f64;
                for l in stack {
                    if acc.stride(l.axis) != 0 {
                        elems *= l.extent as f64;
                    }
                }
                let cap = prog
                    .buffers()
                    .get(acc.buffer as usize)
                    .map(|b| b.bytes() as f64)
                    .unwrap_or(f64::MAX);
                (elems * elem_bytes).min(cap)
            })
            .sum()
    }
}
