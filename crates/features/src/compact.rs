//! Compact AST extraction (§4.1).
//!
//! A tensor program's AST is reduced to (a) one fixed-length *computation
//! vector* per leaf node, which folds in the loop information (nesting
//! level, extents, annotations, reduction flags, access strides) of the
//! loops enclosing that leaf, and (b) the *ordering vector*: each leaf's
//! position in the pre-order serialization of the full AST (with the `-1`
//! marker after each leaf). Nothing about loop structure is lost — it is
//! encoded per leaf — while the representation stays regular: leaf counts
//! span a small range (Fig 2b) even though node counts vary wildly (Fig 2a).
//!
//! Both are read straight off the flat program: the ordering vector from
//! its pre-order node array, the computation vectors from the leaf views
//! and loop stacks `TensorProgram::visit_leaves` hands out, with nothing
//! copied out of the program.

use tir::{LoopVar, TensorProgram};

/// Length of each leaf's computation vector (`N_entry` in §4.2).
pub const N_ENTRY: usize = 56;

/// Maximum enclosing loops encoded individually (innermost-first); deeper
/// nests aggregate the remainder into the outermost slot.
const MAX_LOOPS: usize = 8;

/// Maximum accesses encoded individually.
const MAX_ACCESSES: usize = 4;

/// The compact-AST representation of one tensor program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompactAst {
    /// One computation vector per leaf, in pre-order.
    pub leaf_vectors: Vec<[f32; N_ENTRY]>,
    /// The ordering vector: serialized-traversal position of each leaf.
    pub ordering: Vec<u32>,
}

impl CompactAst {
    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.leaf_vectors.len()
    }

    /// Flattens to a `[n_leaves * N_ENTRY]` row-major buffer.
    pub fn flat(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.leaf_vectors.len() * N_ENTRY];
        self.flat_into(&mut out);
        out
    }

    /// Flattens into a caller-provided `[n_leaves * N_ENTRY]` slab.
    ///
    /// # Panics
    /// If `out` is not exactly `n_leaves * N_ENTRY` long.
    pub fn flat_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.leaf_vectors.len() * N_ENTRY);
        for (dst, v) in out.chunks_exact_mut(N_ENTRY).zip(&self.leaf_vectors) {
            dst.copy_from_slice(v);
        }
    }
}

fn log1p(x: f64) -> f32 {
    (x + 1.0).ln() as f32
}

/// Memoized `log1p(x as f64) as f32` over unsigned keys — extraction spends
/// most of its time in `ln` on loop extents and access strides, and a search
/// round sees the same few hundred values for every candidate. Keys below
/// [`Log1pTable::MAX_DIRECT`] are direct-indexed (filled densely on first
/// use, replayed thereafter); larger keys fall through to computing.
/// Lookups are bit-identical to the direct computation.
#[derive(Debug, Default, Clone)]
pub struct Log1pTable {
    vals: Vec<f32>,
}

impl Log1pTable {
    /// Largest direct-indexed key (the table caps at 256 KiB per worker).
    pub const MAX_DIRECT: u64 = 1 << 16;

    /// Creates an empty table (entries fill on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// `log1p(x as f64) as f32`, memoized for small `x`.
    pub fn get(&mut self, x: u64) -> f32 {
        if x >= Self::MAX_DIRECT {
            return log1p(x as f64);
        }
        while self.vals.len() <= x as usize {
            self.vals.push(log1p(self.vals.len() as f64));
        }
        self.vals[x as usize]
    }

    /// Cached capacity in entries — callers that promise zero steady-state
    /// allocation (the encode arena) watch this for growth.
    pub fn capacity(&self) -> usize {
        self.vals.capacity()
    }
}

/// Extracts the compact AST of a tensor program.
pub fn extract_compact_ast(prog: &TensorProgram) -> CompactAst {
    let mut out = CompactAst::default();
    extract_compact_ast_into(prog, &mut out);
    out
}

/// Extracts the compact AST into a reusable scratch, clearing and refilling
/// its buffers so a warmed scratch performs no allocation. Bit-identical to
/// [`extract_compact_ast`].
pub fn extract_compact_ast_into(prog: &TensorProgram, out: &mut CompactAst) {
    extract_with(prog, out, &mut |x| log1p(x as f64));
}

/// [`extract_compact_ast_into`] with integer-keyed `log1p` served from a
/// memoized [`Log1pTable`] — the encode arena's hot path. Bit-identical to
/// the uncached variants for any table state.
pub fn extract_compact_ast_into_cached(
    prog: &TensorProgram,
    out: &mut CompactAst,
    logs: &mut Log1pTable,
) {
    extract_with(prog, out, &mut |x| logs.get(x));
}

/// Shared extraction body; `log_u64` maps an integer extent/stride to
/// `log1p` (computed directly or replayed from a memo).
fn extract_with(prog: &TensorProgram, out: &mut CompactAst, log_u64: &mut impl FnMut(u64) -> f32) {
    prog.ordering_vector_into(&mut out.ordering);
    let leaf_vectors = &mut out.leaf_vectors;
    leaf_vectors.clear();
    prog.visit_leaves(|leaf, stack| {
        // Dense (access × stack-position) stride table, built in one pass:
        // the min-stride, innermost-stride and bytes-touched features below
        // would otherwise each re-run `MemAccess::stride`'s linear axis scan,
        // ~3·depth·accesses scans per leaf. Values are the identical
        // integers, so downstream bits are unchanged. Oversized leaves (not
        // seen in practice) fall back to the direct scan.
        const MAX_D: usize = 24;
        const MAX_A: usize = 8;
        let n = stack.len();
        let na = leaf.accesses.len();
        let mut lut = [[0i64; MAX_D]; MAX_A];
        let direct = n > MAX_D || na > MAX_A;
        if !direct {
            for (row, acc) in lut.iter_mut().zip(leaf.accesses) {
                for (s, l) in row.iter_mut().zip(stack) {
                    *s = acc.stride(l.axis);
                }
            }
        }
        let stride_at = |ai: usize, si: usize| {
            if direct {
                let acc = leaf
                    .accesses
                    .get(ai)
                    .expect("ai indexes the leaf's accesses");
                acc.stride(stack[si].axis)
            } else {
                lut[ai][si]
            }
        };
        let mut v = [0.0f32; N_ENTRY];
        let mut idx = 0;
        // [0..8) one-hot compute kind.
        v[leaf.kind.index()] = 1.0;
        idx += 8;
        // [8] log flops per iteration.
        v[idx] = log1p(leaf.flops_per_iter);
        idx += 1;
        // [9, 10] read / write access counts.
        v[idx] = leaf.accesses.iter().filter(|a| !a.is_write).count() as f32;
        v[idx + 1] = leaf.accesses.iter().filter(|a| a.is_write).count() as f32;
        idx += 2;
        // [11] log total iterations of this leaf.
        let iters: f64 = stack.iter().map(|l| l.extent as f64).product();
        v[idx] = log1p(iters);
        idx += 1;
        // [12] loop depth.
        v[idx] = stack.len() as f32;
        idx += 1;
        // [13..45) per-loop info, innermost first: (log extent, kind code,
        // is_reduction, log min |stride| over this leaf's accesses).
        for (slot, li) in (0..MAX_LOOPS).zip((0..n).rev()) {
            let l: &LoopVar = stack[li];
            let base = idx + slot * 4;
            // The outermost encoded slot absorbs all remaining outer loops'
            // extents so no iteration count is lost.
            if slot == MAX_LOOPS - 1 && n > MAX_LOOPS {
                let extent = stack[..=li]
                    .iter()
                    .map(|x| x.extent as f64)
                    .product::<f64>();
                v[base] = log1p(extent);
            } else {
                v[base] = log_u64(l.extent);
            };
            v[base + 1] = l.kind.code() as f32 / 3.0;
            v[base + 2] = l.is_reduction as u8 as f32;
            let min_stride = (0..na)
                .map(|ai| stride_at(ai, li).unsigned_abs())
                .filter(|&s| s > 0)
                .min()
                .unwrap_or(0);
            v[base + 3] = log_u64(min_stride);
        }
        idx += MAX_LOOPS * 4;
        // [45..53) per-access innermost stride info: (log |stride| of the
        // innermost moving loop, is_write).
        for (slot, acc) in leaf.accesses.iter().take(MAX_ACCESSES).enumerate() {
            let innermost = (0..n)
                .rev()
                .find_map(|si| {
                    let s = stride_at(slot, si);
                    (s != 0).then_some(s.unsigned_abs())
                })
                .unwrap_or(0);
            v[idx + slot * 2] = log_u64(innermost);
            v[idx + slot * 2 + 1] = acc.is_write as u8 as f32;
        }
        idx += MAX_ACCESSES * 2;
        // [53] log bytes touched per full leaf execution (approx).
        let bytes: f64 = (0..na)
            .map(|ai| {
                (0..n)
                    .filter(|&si| stride_at(ai, si) != 0)
                    .map(|si| stack[si].extent as f64)
                    .product::<f64>()
                    * 4.0
            })
            .sum();
        v[idx] = log1p(bytes);
        idx += 1;
        // [54] count of parallel/vectorize/unroll annotations in the stack.
        v[idx] = stack
            .iter()
            .filter(|l| l.kind != tir::LoopKind::Serial)
            .count() as f32;
        idx += 1;
        debug_assert!(idx <= N_ENTRY);
        leaf_vectors.push(v);
    });
    debug_assert_eq!(out.leaf_vectors.len(), out.ordering.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::{lower, sample_schedule, OpSpec, Schedule};

    fn dense_ast() -> CompactAst {
        let nest = OpSpec::Dense {
            m: 16,
            n: 16,
            k: 16,
        }
        .canonical_nest();
        let prog = lower(&nest, &Schedule::default()).unwrap();
        extract_compact_ast(&prog)
    }

    #[test]
    fn one_vector_per_leaf() {
        let ast = dense_ast();
        assert_eq!(ast.n_leaves(), 3);
        assert_eq!(ast.ordering.len(), 3);
    }

    #[test]
    fn kind_one_hot_set() {
        let ast = dense_ast();
        // Leaf order: init, mac, relu -> kinds Init(0), Mac(1), Max(3).
        assert_eq!(ast.leaf_vectors[0][0], 1.0);
        assert_eq!(ast.leaf_vectors[1][1], 1.0);
        assert_eq!(ast.leaf_vectors[2][3], 1.0);
        // Exactly one hot bit in [0..8).
        for v in &ast.leaf_vectors {
            let hot: f32 = v[..8].iter().sum();
            assert_eq!(hot, 1.0);
        }
    }

    #[test]
    fn iteration_counts_encoded() {
        let ast = dense_ast();
        // mac leaf iterates 16^3 = 4096 times; slot [11] = ln(4097).
        let expect = (4097.0f64).ln() as f32;
        assert!((ast.leaf_vectors[1][11] - expect).abs() < 1e-5);
        // init leaf iterates 256 times.
        let expect0 = (257.0f64).ln() as f32;
        assert!((ast.leaf_vectors[0][11] - expect0).abs() < 1e-5);
    }

    #[test]
    fn ordering_vector_matches_program() {
        let nest = OpSpec::Dense {
            m: 16,
            n: 16,
            k: 16,
        }
        .canonical_nest();
        let prog = lower(&nest, &Schedule::default()).unwrap();
        let ast = extract_compact_ast(&prog);
        assert_eq!(ast.ordering, prog.ordering_vector());
    }

    #[test]
    fn schedule_changes_features_but_not_leaf_count() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(9);
        let nest = OpSpec::Conv2d {
            n: 1,
            cin: 16,
            hw: 16,
            cout: 16,
            khw: 3,
            stride: 1,
        }
        .canonical_nest();
        let base = extract_compact_ast(&lower(&nest, &Schedule::default()).unwrap());
        let mut any_different = false;
        for _ in 0..10 {
            let s = sample_schedule(&nest, &mut rng);
            let ast = extract_compact_ast(&lower(&nest, &s).unwrap());
            assert_eq!(ast.n_leaves(), base.n_leaves());
            if ast.leaf_vectors != base.leaf_vectors {
                any_different = true;
            }
        }
        assert!(any_different, "schedules must be visible in features");
    }

    #[test]
    fn deep_nests_do_not_lose_iterations() {
        // Split every axis twice so depth exceeds MAX_LOOPS; the outermost
        // slot must absorb the remaining extents.
        use tir::Primitive;
        let nest = OpSpec::Conv2d {
            n: 2,
            cin: 16,
            hw: 16,
            cout: 16,
            khw: 3,
            stride: 1,
        }
        .canonical_nest();
        let mut prims = Vec::new();
        for a in 0..7u32 {
            let ext = nest.axis(a).unwrap().extent;
            if ext.is_multiple_of(2) {
                prims.push(Primitive::Split { axis: a, factor: 2 });
            }
        }
        let prog = lower(&nest, &Schedule { primitives: prims }).unwrap();
        assert!(prog.max_depth() > MAX_LOOPS);
        let ast = extract_compact_ast(&prog);
        // Recover the mac leaf's total iterations from its vector: the sum
        // of encoded log-extents should equal log of the true product
        // (within float error), because the outer slot aggregates.
        let mac = &ast.leaf_vectors[1];
        let mut encoded: f64 = 0.0;
        for slot in 0..MAX_LOOPS {
            let le = mac[13 + slot * 4] as f64;
            encoded += (le.exp() - 1.0).max(0.0).ln_1p(); // log1p-decode then re-log
        }
        let true_iters: f64 = 2.0 * 16.0 * 16.0 * 16.0 * 3.0 * 3.0 * 16.0;
        // Compare in log space loosely (log1p of each extent ≈ log extent).
        assert!((encoded - true_iters.ln()).abs() / true_iters.ln() < 0.15);
    }

    #[test]
    fn cached_extraction_bit_identical() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let mut logs = Log1pTable::new();
        let mut cached = CompactAst::default();
        for spec in [
            OpSpec::Dense {
                m: 64,
                n: 64,
                k: 64,
            },
            OpSpec::Softmax { rows: 64, cols: 64 },
            OpSpec::BatchMatmul {
                b: 2,
                m: 32,
                n: 32,
                k: 32,
            },
        ] {
            let nest = spec.canonical_nest();
            for _ in 0..8 {
                let s = sample_schedule(&nest, &mut rng);
                let prog = lower(&nest, &s).unwrap();
                let want = extract_compact_ast(&prog);
                extract_compact_ast_into_cached(&prog, &mut cached, &mut logs);
                assert_eq!(cached, want, "memoized log1p must not change bits");
            }
        }
        assert!(logs.capacity() > 0, "the table must actually have been hit");
    }

    #[test]
    fn log1p_table_matches_direct_beyond_cap() {
        let mut t = Log1pTable::new();
        for x in [0u64, 1, 7, 4096, Log1pTable::MAX_DIRECT, u64::MAX] {
            assert_eq!(t.get(x).to_bits(), log1p(x as f64).to_bits());
        }
    }

    #[test]
    fn vectors_are_finite() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        for spec in [
            OpSpec::Softmax {
                rows: 128,
                cols: 64,
            },
            OpSpec::Elementwise {
                n: 4096,
                kind: tir::EwKind::Gelu,
            },
            OpSpec::BatchMatmul {
                b: 4,
                m: 32,
                n: 32,
                k: 32,
            },
        ] {
            let nest = spec.canonical_nest();
            for _ in 0..5 {
                let s = sample_schedule(&nest, &mut rng);
                let ast = extract_compact_ast(&lower(&nest, &s).unwrap());
                for v in &ast.leaf_vectors {
                    assert!(v.iter().all(|x| x.is_finite()));
                }
            }
        }
    }
}
