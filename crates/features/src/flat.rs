//! Restricted feature sets for the baselines.
//!
//! * [`flattened_features`]: order-agnostic aggregation of the leaf
//!   computation vectors (min/mean/max + global stats). This is what a
//!   tree model like XGBoost consumes — the internal AST *structure*
//!   (leaf positions, loop order identity) is collapsed, which is exactly
//!   the information loss §2.3 argues against.
//! * [`tlp_features`]: schedule-primitive-sequence features in the spirit
//!   of TLP (counts and factor statistics of the applied primitives).
//! * [`habitat_features`]: operator-level features (op class + shape
//!   parameters) as used by Habitat's per-op MLPs.

use tir::{OpSpec, Primitive, Schedule, TensorProgram};

use crate::compact::{extract_compact_ast, N_ENTRY};

/// Length of the flattened (XGBoost) feature vector.
pub const N_FLAT: usize = 3 * N_ENTRY + 6;

/// Length of the TLP primitive-sequence feature vector.
pub const N_TLP: usize = 16;

/// Length of the Habitat op-level feature vector.
pub const N_HABITAT: usize = 15;

/// Aggregates a program's compact AST into a fixed-length vector with no
/// structural information (for tree baselines).
pub fn flattened_features(prog: &TensorProgram) -> Vec<f32> {
    let ast = extract_compact_ast(prog);
    let n = ast.n_leaves().max(1) as f32;
    let mut mins = [f32::MAX; N_ENTRY];
    let mut maxs = [f32::MIN; N_ENTRY];
    let mut sums = [0.0f32; N_ENTRY];
    for v in &ast.leaf_vectors {
        for j in 0..N_ENTRY {
            mins[j] = mins[j].min(v[j]);
            maxs[j] = maxs[j].max(v[j]);
            sums[j] += v[j];
        }
    }
    if ast.n_leaves() == 0 {
        mins = [0.0; N_ENTRY];
        maxs = [0.0; N_ENTRY];
    }
    let mut out = Vec::with_capacity(N_FLAT);
    out.extend_from_slice(&mins);
    out.extend_from_slice(&maxs);
    out.extend(sums.iter().map(|s| s / n));
    out.push(ast.n_leaves() as f32);
    out.push(prog.node_count() as f32);
    out.push(prog.max_depth() as f32);
    out.push((prog.total_iterations() + 1.0).ln() as f32);
    out.push(prog.roots().count() as f32);
    out.push(
        prog.buffers()
            .iter()
            .map(|b| b.bytes() as f64)
            .sum::<f64>()
            .ln_1p() as f32,
    );
    debug_assert_eq!(out.len(), N_FLAT);
    out
}

/// TLP-style features: statistics of the schedule-primitive sequence
/// (no tensor-program internals at all).
pub fn tlp_features(spec: &OpSpec, schedule: &Schedule) -> Vec<f32> {
    let mut out = vec![0.0f32; N_TLP];
    let mut n_split = 0.0;
    let mut log_factor_sum = 0.0;
    let mut max_factor = 0.0f32;
    let mut n_reorder = 0.0;
    let mut n_vec = 0.0;
    let mut n_par = 0.0;
    let mut n_unroll = 0.0;
    for p in &schedule.primitives {
        match p {
            Primitive::Split { factor, .. } => {
                n_split += 1.0;
                log_factor_sum += (*factor as f32 + 1.0).ln();
                max_factor = max_factor.max(*factor as f32);
            }
            Primitive::Reorder { .. } => n_reorder += 1.0,
            Primitive::Annotate { kind, .. } => match kind {
                tir::LoopKind::Vectorize => n_vec += 1.0,
                tir::LoopKind::Parallel => n_par += 1.0,
                tir::LoopKind::Unroll => n_unroll += 1.0,
                tir::LoopKind::Serial => {}
            },
        }
    }
    out[0] = n_split;
    out[1] = log_factor_sum;
    out[2] = (max_factor + 1.0).ln();
    out[3] = n_reorder;
    out[4] = n_vec;
    out[5] = n_par;
    out[6] = n_unroll;
    out[7] = schedule.primitives.len() as f32;
    // Op identity and scale, which TLP gets from the task context.
    out[8] = spec.class_id() as f32;
    out[9] = (spec.flops() + 1.0).ln() as f32;
    let params = spec.shape_params();
    for (i, p) in params.iter().take(6).enumerate() {
        out[10 + i] = (*p as f32 + 1.0).ln();
    }
    out
}

/// Habitat-style op-level features: class one-hot + log shape params +
/// log FLOPs. No schedule visibility — the limitation §7.3 discusses.
pub fn habitat_features(spec: &OpSpec) -> Vec<f32> {
    let mut out = vec![0.0f32; N_HABITAT];
    out[spec.class_id()] = 1.0;
    let params = spec.shape_params();
    for (i, p) in params.iter().take(6).enumerate() {
        out[8 + i] = (*p as f32 + 1.0).ln();
    }
    out[14] = (spec.flops() + 1.0).ln() as f32;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::{lower, sample_schedule, Schedule};

    #[test]
    fn flat_features_fixed_length() {
        let nest = OpSpec::Dense {
            m: 32,
            n: 32,
            k: 32,
        }
        .canonical_nest();
        let prog = lower(&nest, &Schedule::default()).unwrap();
        let f = flattened_features(&prog);
        assert_eq!(f.len(), N_FLAT);
        assert!(f.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn flat_features_lose_order_information() {
        // Two programs that differ only by loop order share the same leaf
        // multiset up to per-loop slots... verify at least that features
        // stay fixed-length and finite, and that a different *tiling*
        // changes them.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(2);
        let nest = OpSpec::Dense {
            m: 64,
            n: 64,
            k: 64,
        }
        .canonical_nest();
        let base = flattened_features(&lower(&nest, &Schedule::default()).unwrap());
        let mut changed = false;
        for _ in 0..10 {
            let s = sample_schedule(&nest, &mut rng);
            let f = flattened_features(&lower(&nest, &s).unwrap());
            assert_eq!(f.len(), N_FLAT);
            if f != base {
                changed = true;
            }
        }
        assert!(changed);
    }

    #[test]
    fn tlp_features_count_primitives() {
        let spec = OpSpec::Dense { m: 8, n: 8, k: 8 };
        let sched = Schedule {
            primitives: vec![
                Primitive::Split { axis: 0, factor: 4 },
                Primitive::Split { axis: 1, factor: 2 },
                Primitive::Reorder {
                    order: vec![3, 4, 5, 6, 2],
                },
                Primitive::Annotate {
                    axis: 6,
                    kind: tir::LoopKind::Vectorize,
                },
            ],
        };
        let f = tlp_features(&spec, &sched);
        assert_eq!(f.len(), N_TLP);
        assert_eq!(f[0], 2.0); // two splits
        assert_eq!(f[3], 1.0); // one reorder
        assert_eq!(f[4], 1.0); // one vectorize
    }

    #[test]
    fn habitat_features_one_hot_class() {
        let f = habitat_features(&OpSpec::Conv2d {
            n: 1,
            cin: 8,
            hw: 8,
            cout: 8,
            khw: 3,
            stride: 1,
        });
        assert_eq!(f.len(), N_HABITAT);
        assert_eq!(f[2], 1.0); // conv2d class id = 2
        let hot: f32 = f[..8].iter().sum();
        assert_eq!(hot, 1.0);
    }

    #[test]
    fn habitat_cannot_distinguish_schedules() {
        // By construction habitat features depend only on the op spec.
        let spec = OpSpec::Dense {
            m: 16,
            n: 16,
            k: 16,
        };
        assert_eq!(habitat_features(&spec), habitat_features(&spec));
    }
}
