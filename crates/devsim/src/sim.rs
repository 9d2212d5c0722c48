//! The analytical latency model.
//!
//! This is the ground-truth substitute for profiling tensor programs on real
//! hardware. The model is a cache-aware roofline:
//!
//! * **Compute time**: leaf FLOPs over effective throughput, where effective
//!   throughput accounts for how many cores the schedule's `Parallel` loops
//!   fill, how well the `Vectorize` loop matches the device's lanes, and
//!   (on the HL-100) whether the leaf maps to a GEMM engine.
//! * **Memory time**: per-access DRAM traffic estimated by a reuse analysis
//!   over the loop nest — an access with zero stride along a loop is reused
//!   across that loop *iff* the data touched inside the loop fits in cache —
//!   multiplied by a contiguity penalty for strided innermost accesses, over
//!   the device bandwidth (boosted when the leaf's working set fits L2).
//! * **Loop overhead**: per-trip scalar cost, discounted for unrolled and
//!   vectorized loops and amortized across parallel cores.
//!
//! The leaf time is `max(compute, memory) + overhead`; a kernel adds a fixed
//! launch cost. Measurement adds multiplicative log-normal noise.
//!
//! The point is not cycle accuracy: it is that latency depends nontrivially
//! and device-specifically on *program structure* (loop order, tiling,
//! annotations), which is exactly the signal the paper's cost model learns.
//!
//! Cost contract: a leaf makes `accesses × depth` [`AccessView::stride`] scans
//! — one dense stride table (`LeafTables`) that the reuse walk, the
//! contiguity penalty, the footprints and the working set all read — and
//! computes its per-level footprints once, not once per access, from one
//! running product per access: O(depth × accesses), not O(depth² ×
//! accesses). The stack's iteration, parallel, vector, unroll and overhead
//! products share one pass over the loops. The tables live in a per-thread
//! scratch, grown to the deepest leaf the thread has seen, so a warmed
//! [`Simulator::latency_seconds`] makes one allocation, `visit_leaves`' loop
//! stack (`tests/latency_allocations.rs`), and nothing per leaf, whose
//! accesses are borrowed views of the flat program.
//!
//! Every product keeps its multiplication order, or is exact in any order
//! (a product of integers no larger than 2⁵³; deeper stacks take the
//! ordered fold, `tests/footprint_guard.rs`), so latencies are
//! bit-identical to the per-access formulation (`tests/latency_pin.rs`).

use std::cell::RefCell;

use rand::Rng;
use rand_distr::{Distribution, LogNormal};
use tir::{AccessView, ComputeKind, LeafView, LoopKind, LoopVar, TensorProgram};

use crate::device::{DeviceClass, DeviceSpec};

/// Cache-line size in bytes assumed for the contiguity penalty.
const CACHE_LINE_BYTES: f64 = 64.0;

/// Bytes per element the memory model assumes.
const ELEM_BYTES: f64 = 4.0;

/// Fraction of peak a leaf achieves with no vectorized loop at all.
fn scalar_fraction(class: DeviceClass) -> f64 {
    match class {
        DeviceClass::Gpu => 0.25,
        DeviceClass::Cpu => 0.2,
        DeviceClass::Accelerator => 0.12,
    }
}

/// A device simulator: deterministic cost model plus measurement noise.
#[derive(Debug, Clone)]
pub struct Simulator {
    spec: DeviceSpec,
    /// σ of the multiplicative log-normal measurement noise.
    pub noise_sigma: f64,
}

/// Per-leaf cost breakdown, exposed for tests and the replayer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafCost {
    /// Compute-bound time in seconds.
    pub compute_s: f64,
    /// Memory-bound time in seconds.
    pub memory_s: f64,
    /// Loop bookkeeping overhead in seconds.
    pub overhead_s: f64,
}

impl LeafCost {
    /// Total leaf latency.
    pub fn total(&self) -> f64 {
        self.compute_s.max(self.memory_s) + self.overhead_s
    }
}

impl Simulator {
    /// Creates a simulator for a device with the default noise level (3%).
    pub fn new(spec: DeviceSpec) -> Self {
        Simulator {
            spec,
            noise_sigma: 0.03,
        }
    }

    /// The device being simulated.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Deterministic latency of a tensor program in seconds.
    pub fn latency_seconds(&self, prog: &TensorProgram) -> f64 {
        let mut total = 0.0;
        TABLES.with_borrow_mut(|tables| {
            prog.visit_leaves(|leaf, stack| {
                total += self.leaf_cost_with(prog, leaf, stack, tables).total();
            });
        });
        // One launch per root nest (fissioned nests dispatch separately on
        // GPUs; CPUs pay a smaller, but still per-nest, dispatch cost).
        total += self.spec.launch_overhead_us * 1e-6 * prog.roots().count().max(1) as f64;
        total
    }

    /// Noisy measurement (multiplicative log-normal), like a real profiler.
    pub fn measure(&self, prog: &TensorProgram, rng: &mut impl Rng) -> f64 {
        let base = self.latency_seconds(prog);
        let dist = LogNormal::new(0.0, self.noise_sigma).expect("valid sigma");
        base * dist.sample(rng)
    }

    /// Cost of one leaf under its enclosing loop stack.
    pub fn leaf_cost(
        &self,
        prog: &TensorProgram,
        leaf: LeafView<'_>,
        stack: &[&LoopVar],
    ) -> LeafCost {
        TABLES.with_borrow_mut(|tables| self.leaf_cost_with(prog, leaf, stack, tables))
    }

    fn leaf_cost_with(
        &self,
        prog: &TensorProgram,
        leaf: LeafView<'_>,
        stack: &[&LoopVar],
        tables: &mut LeafTables,
    ) -> LeafCost {
        // One pass over the stack, outermost first: every product keeps the
        // order (and so the bits) of its own fold over the stack.
        let (mut iters, mut par_iters, mut vec_extent) = (1.0f64, 1.0f64, 1.0f64);
        let (mut unrolled, mut overhead_trips) = (false, 0.0);
        for l in stack {
            let extent = l.extent as f64;
            iters *= extent;
            let per_trip = match l.kind {
                LoopKind::Serial => 1.0,
                LoopKind::Parallel => {
                    par_iters *= extent;
                    1.0
                }
                LoopKind::Unroll => {
                    unrolled = true;
                    0.15
                }
                LoopKind::Vectorize => {
                    vec_extent *= extent;
                    1.0 / self.spec.vector_width as f64
                }
            };
            // `iters` so far: the trips of this loop over all its outer ones.
            overhead_trips += iters * per_trip;
        }
        let cores_used = par_iters.min(self.spec.cores as f64).max(1.0);

        // --- Compute term ---
        let lane_util = if vec_extent > 1.0 {
            (vec_extent.min(self.spec.vector_width as f64)) / self.spec.vector_width as f64
        } else {
            scalar_fraction(self.spec.class)
        };
        let unroll_boost = if unrolled { 1.15 } else { 1.0 };
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
        tables.fill(leaf, stack);
        let traffic = self.dram_traffic_bytes(prog, leaf, stack, tables, iters);
        // Bandwidth bonus if the leaf's entire working set fits in L2.
        let working_set = leaf_working_set_bytes(prog, leaf, tables);
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
        tables: &LeafTables,
        iters: f64,
    ) -> f64 {
        let l2_bytes = self.spec.l2_kb * 1024.0;
        let footprint_inside = &tables.footprint_inside;
        let mut total = 0.0;
        for (a, acc) in leaf.accesses.iter().enumerate() {
            let strides = tables.row(a);
            // Reuse: walking outward, a loop with zero stride for this
            // access reuses the data inside it if that data fits in L2.
            let mut reuse = 1.0f64;
            for (i, l) in stack.iter().enumerate().rev() {
                if strides[i] == 0 && footprint_inside[i + 1] <= l2_bytes {
                    reuse *= l.extent as f64;
                }
            }
            // Contiguity: penalty from the innermost moving loop's stride.
            let innermost_stride = strides
                .iter()
                .rev()
                .find(|&&s| s != 0)
                .map_or(1.0, |s| s.unsigned_abs() as f64);
            let line_elems = CACHE_LINE_BYTES / ELEM_BYTES;
            let penalty = innermost_stride.min(line_elems).max(1.0);
            // Compulsory floor: at least one pass over the touched data,
            // at most one line per iteration.
            let touched = footprint_inside[0].min(buffer_bytes(prog, acc));
            let traffic =
                (iters / reuse * ELEM_BYTES * penalty).max(touched.min(iters * ELEM_BYTES));
            total += traffic;
        }
        total
    }
}

thread_local! {
    /// This thread's [`LeafTables`], kept across leaves and calls: a warmed
    /// [`Simulator::latency_seconds`] grows none of its buffers.
    static TABLES: RefCell<LeafTables> = RefCell::new(LeafTables::default());
}

/// Per-leaf tables the memory model reads, refilled for every leaf.
#[derive(Default)]
struct LeafTables {
    /// Dense `[access][loop]` element strides, row-major.
    strides: Vec<i64>,
    /// Loops enclosing the leaf (the row length of `strides`).
    depth: usize,
    /// `footprint_inside[i]` = bytes *all* accesses touch inside loop
    /// `stack[i]`; at level `depth` (inside the innermost loop) one element
    /// per access. The cache-capacity test for reuse; it does not depend on
    /// which access asks.
    footprint_inside: Vec<f64>,
    /// Elements each access touches across the whole stack.
    touched: Vec<f64>,
}

/// Every integer up to 2⁵³ is an `f64`, so a product of integers that
/// stays at or below it is exact, whatever the order of its factors.
const EXACT_PRODUCTS: u64 = 1 << f64::MANTISSA_DIGITS;

impl LeafTables {
    /// Refills the tables for one leaf: `accesses × depth` stride scans,
    /// the only ones the leaf's cost makes.
    ///
    /// `footprint_inside` comes from one running product per access, walked
    /// inward to outward, in O(depth × accesses). Each product of extents is
    /// a product of integers, and when the product of the whole stack is at
    /// most 2⁵³ every partial product is an integer no larger, so exact in
    /// any order: the running products are bit for bit the outermost-first
    /// products of the definition. Deeper stacks than that bound take the
    /// definition itself, a [`touched_elems`] fold per (access, level).
    fn fill(&mut self, leaf: LeafView<'_>, stack: &[&LoopVar]) {
        let n = stack.len();
        let accesses = leaf.accesses.len();
        self.depth = n;
        self.strides.clear();
        for acc in &leaf.accesses {
            self.strides
                .extend(stack.iter().map(|l| acc.stride(l.axis)));
        }
        self.footprint_inside.clear();
        self.footprint_inside.resize(n + 1, 0.0);
        self.footprint_inside[n] = accesses as f64 * ELEM_BYTES;
        self.touched.clear();
        self.touched.resize(accesses, 1.0);
        let exact = stack
            .iter()
            .try_fold(1u64, |p, l| {
                p.checked_mul(l.extent)
                    .filter(|&p| l.extent > 0 && p <= EXACT_PRODUCTS)
            })
            .is_some();
        if exact {
            for i in (0..n).rev() {
                let extent = stack[i].extent as f64;
                let mut f = 0.0;
                for a in 0..accesses {
                    if self.strides[a * n + i] != 0 {
                        self.touched[a] *= extent;
                    }
                    f += self.touched[a] * ELEM_BYTES;
                }
                self.footprint_inside[i] = f;
            }
        } else {
            for i in (0..n).rev() {
                let mut f = 0.0;
                for a in 0..accesses {
                    f += touched_elems(&self.row(a)[i..], &stack[i..]) * ELEM_BYTES;
                }
                self.footprint_inside[i] = f;
            }
            for a in 0..accesses {
                self.touched[a] = touched_elems(self.row(a), stack);
            }
        }
    }

    /// Strides of access `a` along each enclosing loop, outermost first.
    fn row(&self, a: usize) -> &[i64] {
        &self.strides[a * self.depth..(a + 1) * self.depth]
    }
}

/// Elements an access touches across `loops`: the product of the extents it
/// moves along, outermost first.
fn touched_elems(strides: &[i64], loops: &[&LoopVar]) -> f64 {
    let mut elems = 1.0f64;
    for (&s, l) in strides.iter().zip(loops) {
        if s != 0 {
            elems *= l.extent as f64;
        }
    }
    elems
}

/// Size of the buffer an access touches (unbounded if the id is unknown).
fn buffer_bytes(prog: &TensorProgram, acc: AccessView<'_>) -> f64 {
    prog.buffers()
        .get(acc.buffer as usize)
        .map_or(f64::MAX, |b| b.bytes() as f64)
}

/// Total bytes the leaf touches across all accesses (capped by buffer
/// sizes).
fn leaf_working_set_bytes(prog: &TensorProgram, leaf: LeafView<'_>, tables: &LeafTables) -> f64 {
    leaf.accesses
        .iter()
        .zip(&tables.touched)
        .map(|(acc, &elems)| (elems * ELEM_BYTES).min(buffer_bytes(prog, acc)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{a100, graviton2, hl100, k80, t4, v100};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tir::{lower, sample_schedule, OpSpec, Primitive, Schedule};

    fn dense_prog(m: u64, n: u64, k: u64, sched: &Schedule) -> TensorProgram {
        lower(&OpSpec::Dense { m, n, k }.canonical_nest(), sched).unwrap()
    }

    fn good_gemm_schedule() -> Schedule {
        Schedule {
            primitives: vec![
                Primitive::Split { axis: 0, factor: 8 },
                Primitive::Split {
                    axis: 1,
                    factor: 16,
                },
                Primitive::Split { axis: 2, factor: 8 },
                // order: i_o, j_o, k_o, i_i, k_i, j_i (tiled, j innermost
                // contiguous). Split of axes 0,1,2 creates (3,4),(5,6),(7,8).
                Primitive::Reorder {
                    order: vec![3, 5, 7, 4, 8, 6],
                },
                Primitive::Annotate {
                    axis: 3,
                    kind: LoopKind::Parallel,
                },
                Primitive::Annotate {
                    axis: 6,
                    kind: LoopKind::Vectorize,
                },
            ],
        }
    }

    #[test]
    fn latency_is_positive_and_finite() {
        let mut rng = StdRng::seed_from_u64(1);
        let sim = Simulator::new(v100());
        for spec in [
            OpSpec::Dense {
                m: 256,
                n: 256,
                k: 256,
            },
            OpSpec::Conv2d {
                n: 1,
                cin: 64,
                hw: 28,
                cout: 64,
                khw: 3,
                stride: 1,
            },
            OpSpec::Softmax {
                rows: 256,
                cols: 128,
            },
        ] {
            let nest = spec.canonical_nest();
            for _ in 0..20 {
                let sched = sample_schedule(&nest, &mut rng);
                let prog = lower(&nest, &sched).unwrap();
                let t = sim.latency_seconds(&prog);
                assert!(t.is_finite() && t > 0.0, "{spec:?}: {t}");
            }
        }
    }

    #[test]
    fn bigger_problems_take_longer() {
        let sim = Simulator::new(t4());
        let small = dense_prog(64, 64, 64, &Schedule::default());
        let large = dense_prog(512, 512, 512, &Schedule::default());
        assert!(sim.latency_seconds(&large) > 4.0 * sim.latency_seconds(&small));
    }

    #[test]
    fn good_schedule_beats_canonical() {
        let sim = Simulator::new(v100());
        let naive = dense_prog(512, 512, 512, &Schedule::default());
        let tuned = dense_prog(512, 512, 512, &good_gemm_schedule());
        let tn = sim.latency_seconds(&naive);
        let tt = sim.latency_seconds(&tuned);
        assert!(tt < tn, "tuned {tt} should beat naive {tn}");
    }

    #[test]
    fn loop_order_changes_latency() {
        // Hoisting the reduction axis outermost destroys output reuse and
        // fissions the nest: must be slower than the canonical order.
        let sim = Simulator::new(t4());
        let canonical = dense_prog(256, 256, 256, &Schedule::default());
        let hoisted = dense_prog(
            256,
            256,
            256,
            &Schedule {
                primitives: vec![Primitive::Reorder {
                    order: vec![2, 0, 1],
                }],
            },
        );
        let tc = sim.latency_seconds(&canonical);
        let th = sim.latency_seconds(&hoisted);
        assert!(th > tc, "hoisted reduction {th} vs canonical {tc}");
    }

    #[test]
    fn parallel_annotation_speeds_up() {
        let sim = Simulator::new(v100());
        let serial = dense_prog(512, 512, 128, &Schedule::default());
        let parallel = dense_prog(
            512,
            512,
            128,
            &Schedule {
                primitives: vec![Primitive::Annotate {
                    axis: 0,
                    kind: LoopKind::Parallel,
                }],
            },
        );
        assert!(sim.latency_seconds(&parallel) < sim.latency_seconds(&serial) * 0.2);
    }

    #[test]
    fn vectorize_contiguous_axis_speeds_up() {
        let sim = Simulator::new(t4());
        let base = Schedule {
            primitives: vec![Primitive::Annotate {
                axis: 0,
                kind: LoopKind::Parallel,
            }],
        };
        let vec = Schedule {
            primitives: vec![
                Primitive::Annotate {
                    axis: 0,
                    kind: LoopKind::Parallel,
                },
                Primitive::Annotate {
                    axis: 1,
                    kind: LoopKind::Vectorize,
                },
            ],
        };
        let t_base = sim.latency_seconds(&dense_prog(256, 64, 256, &base));
        let t_vec = sim.latency_seconds(&dense_prog(256, 64, 256, &vec));
        assert!(t_vec < t_base, "vectorized {t_vec} vs scalar {t_base}");
    }

    #[test]
    fn devices_rank_sensibly_on_compute_bound_gemm() {
        // m = 2048 so the parallel outer loop (extent 256) saturates every
        // GPU's SM count and per-device peak throughput decides the ranking.
        let prog = dense_prog(2048, 512, 512, &good_gemm_schedule());
        let t_a100 = Simulator::new(a100()).latency_seconds(&prog);
        let t_v100 = Simulator::new(v100()).latency_seconds(&prog);
        let t_k80 = Simulator::new(k80()).latency_seconds(&prog);
        let t_cpu = Simulator::new(graviton2()).latency_seconds(&prog);
        assert!(t_a100 < t_v100, "A100 {t_a100} < V100 {t_v100}");
        assert!(t_v100 < t_k80, "V100 {t_v100} < K80 {t_k80}");
        assert!(t_k80 < t_cpu, "K80 {t_k80} < Graviton2 {t_cpu}");
    }

    #[test]
    fn hl100_gemm_engines_help_macs_only() {
        let sim = Simulator::new(hl100());
        let gemm = dense_prog(256, 256, 256, &good_gemm_schedule());
        // Compare against a device identical but without GEMM engines.
        let mut no_gemm_spec = hl100();
        no_gemm_spec.gemm_engines = 0;
        let sim2 = Simulator::new(no_gemm_spec);
        assert!(sim.latency_seconds(&gemm) < sim2.latency_seconds(&gemm));
    }

    #[test]
    fn measurement_noise_is_small_and_multiplicative() {
        let sim = Simulator::new(t4());
        let prog = dense_prog(128, 128, 128, &Schedule::default());
        let base = sim.latency_seconds(&prog);
        let mut rng = StdRng::seed_from_u64(5);
        let samples: Vec<f64> = (0..200).map(|_| sim.measure(&prog, &mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean / base - 1.0).abs() < 0.03);
        assert!(samples.iter().all(|&s| (s / base - 1.0).abs() < 0.25));
    }

    #[test]
    fn strided_innermost_access_pays_penalty() {
        // Reordering so the innermost loop strides the B matrix by N makes
        // the program slower on a cache-sensitive device.
        // At 512³ the working set exceeds Graviton2's L2, so the program is
        // memory bound and the innermost loop's stride decides traffic.
        // Canonical order i,j,k leaves B strided by N in the k loop; the
        // i,k,j order makes B's innermost access contiguous.
        let sim = Simulator::new(graviton2());
        let canonical = dense_prog(512, 512, 512, &Schedule::default());
        let reordered = dense_prog(
            512,
            512,
            512,
            &Schedule {
                primitives: vec![Primitive::Reorder {
                    order: vec![0, 2, 1],
                }],
            },
        );
        let tc = sim.latency_seconds(&canonical);
        let tr = sim.latency_seconds(&reordered);
        assert!(
            tr < 0.8 * tc,
            "contiguous innermost order must be faster: canonical {tc} vs reordered {tr}"
        );
    }

    #[test]
    fn latency_magnitudes_are_plausible() {
        // A 1k×1k×1k GEMM with a good schedule on V100 should land in the
        // 0.1ms–50ms window (real: ~0.15 ms at peak; our model is slower
        // since lane_util < 1).
        let sim = Simulator::new(v100());
        let t = sim.latency_seconds(&dense_prog(1024, 1024, 1024, &good_gemm_schedule()));
        assert!(t > 1e-4 && t < 5e-2, "V100 1k GEMM = {t}s");
        // An element-wise op is micro-seconds scale.
        let ew = lower(
            &OpSpec::Elementwise {
                n: 65536,
                kind: tir::EwKind::Relu,
            }
            .canonical_nest(),
            &Schedule::default(),
        )
        .unwrap();
        let t2 = sim.latency_seconds(&ew);
        assert!(t2 > 1e-7 && t2 < 1e-2, "relu = {t2}s");
    }

    #[test]
    fn leaf_cost_components_nonnegative() {
        let sim = Simulator::new(t4());
        let prog = dense_prog(64, 64, 64, &good_gemm_schedule());
        prog.visit_leaves(|leaf, stack| {
            let c = sim.leaf_cost(&prog, leaf, stack);
            assert!(c.compute_s >= 0.0 && c.memory_s >= 0.0 && c.overhead_s >= 0.0);
            assert!(c.total() > 0.0);
        });
    }
}
