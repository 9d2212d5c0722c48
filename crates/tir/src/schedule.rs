//! Schedule primitives and lowering to tensor programs.
//!
//! This mirrors TVM/Ansor's schedule space at the granularity the cost model
//! cares about: loop splitting (tiling), reordering, and the
//! parallel/vectorize/unroll annotations. Applying a [`Schedule`] to a
//! task's canonical [`Nest`] yields a concrete [`TensorProgram`] whose AST
//! structure (and therefore performance) depends on the schedule — one
//! subgraph can expand into thousands of distinct tensor programs, exactly
//! the space Tenset samples.
//!
//! # Cost contract
//!
//! A search lowers every unique candidate, so [`lower`] and the proposers
//! are hot paths, and what they may allocate is part of their contract:
//!
//! * **One leaf clone per candidate.** Primitives evolve axes, order and
//!   annotations only; [`lower`] writes each leaf once, with its final
//!   strides, when it places it in the AST — never once per `Split` or per
//!   nesting level.
//! * **Proposers touch no leaves.** [`sample_schedule`],
//!   [`mutate_schedule`] and [`crossover_schedule`] evolve the same
//!   leaf-free state, sized up front so that no split regrows a buffer.
//!
//! `tests/properties.rs` holds `lower` equal, program for program and error
//! for error, to the clone-per-level builder it replaced, and
//! `tests/stream_pin.rs` pins the proposers' RNG streams.

use rand::seq::{IndexedRandom, SliceRandom};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::ast::{AstNode, LoopKind, LoopVar, TensorProgram};
use crate::expr::{AxisId, LeafStmt, MemAccess};
use crate::task::{AxisInfo, Nest};

/// A single schedule transformation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Primitive {
    /// Splits `axis` into an outer and inner loop; the inner has `factor`
    /// iterations. `factor` must divide the axis extent.
    Split {
        /// Axis to split.
        axis: AxisId,
        /// Inner extent.
        factor: u64,
    },
    /// Reorders the loop nest to the given axis order (must be a
    /// permutation of the current axes).
    Reorder {
        /// New outermost-first order.
        order: Vec<AxisId>,
    },
    /// Annotates an axis with a loop kind.
    Annotate {
        /// Axis to annotate.
        axis: AxisId,
        /// The annotation.
        kind: LoopKind,
    },
}

/// An ordered list of schedule primitives.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Schedule {
    /// Primitives applied in order.
    pub primitives: Vec<Primitive>,
}

impl Schedule {
    /// A stable 64-bit identity hash over the primitive sequence (FNV-1a).
    ///
    /// Two schedules with equal primitive lists hash equally; the search
    /// uses this to dedup candidates within a round before encoding them,
    /// confirming collisions with `PartialEq`.
    pub fn identity_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn mix(h: u64, v: u64) -> u64 {
            let mut h = h;
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(PRIME);
            }
            h
        }
        let mut h = OFFSET;
        for p in &self.primitives {
            h = match p {
                Primitive::Split { axis, factor } => mix(mix(mix(h, 0), *axis as u64), *factor),
                Primitive::Reorder { order } => {
                    let mut h = mix(mix(h, 1), order.len() as u64);
                    for &a in order {
                        h = mix(h, a as u64);
                    }
                    h
                }
                Primitive::Annotate { axis, kind } => {
                    mix(mix(mix(h, 2), *axis as u64), kind.code() as u64)
                }
            };
        }
        h
    }
}

/// Errors from schedule application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// Referenced axis does not exist.
    UnknownAxis(AxisId),
    /// Split factor does not divide the extent.
    BadFactor {
        /// Offending axis.
        axis: AxisId,
        /// Extent of the axis.
        extent: u64,
        /// Requested factor.
        factor: u64,
    },
    /// Reorder list is not a permutation of the current axes.
    BadReorder,
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::UnknownAxis(a) => write!(f, "unknown axis {a}"),
            ScheduleError::BadFactor {
                axis,
                extent,
                factor,
            } => {
                write!(
                    f,
                    "factor {factor} does not divide extent {extent} of axis {axis}"
                )
            }
            ScheduleError::BadReorder => write!(f, "reorder is not a permutation"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// One axis of the evolving nest, with its lineage: the canonical axis it
/// descends from and how many iterations of that axis one step along it
/// covers (`Split` hands both down: the inner half keeps `scale`, the outer
/// half multiplies it by the factor). A leaf ranges over exactly the current
/// axes whose `root` is in its canonical `domain`, and strides `scale` times
/// its canonical stride along each, so a primitive never touches a leaf.
#[derive(Clone, Copy)]
struct Axis {
    id: AxisId,
    extent: u64,
    is_reduction: bool,
    root: AxisId,
    scale: i64,
}

/// Mutable schedule state: the axis set, the global loop order and the
/// annotations, evolved by primitives. It holds no leaves: the proposers
/// never need them, and `lower` writes each one once, in [`Self::place`].
struct LowerState {
    axes: Vec<Axis>,
    order: Vec<AxisId>,
    annotations: Vec<(AxisId, LoopKind)>,
    next_axis: AxisId,
}

impl LowerState {
    /// The canonical state of `nest`, with room for `splits` splits (each
    /// adds one axis), so that applying them never regrows a buffer.
    fn new(nest: &Nest, splits: usize) -> Self {
        let mut axes = Vec::with_capacity(nest.axes.len() + splits);
        axes.extend(nest.axes.iter().map(|a| Axis {
            id: a.id,
            extent: a.extent,
            is_reduction: a.is_reduction,
            root: a.id,
            scale: 1,
        }));
        let mut order = Vec::with_capacity(axes.capacity());
        order.extend(axes.iter().map(|a| a.id));
        LowerState {
            axes,
            order,
            annotations: Vec::new(),
            next_axis: nest.axes.iter().map(|a| a.id).max().map_or(0, |m| m + 1),
        }
    }

    fn axis(&self, id: AxisId) -> Option<&Axis> {
        self.axes.iter().find(|a| a.id == id)
    }

    fn apply(&mut self, p: &Primitive) -> Result<(), ScheduleError> {
        match p {
            Primitive::Split { axis, factor } => self.split(*axis, *factor),
            Primitive::Reorder { order } => self.reorder(order),
            Primitive::Annotate { axis, kind } => {
                if self.axis(*axis).is_none() {
                    return Err(ScheduleError::UnknownAxis(*axis));
                }
                self.annotations.retain(|&(a, _)| a != *axis);
                self.annotations.push((*axis, *kind));
                Ok(())
            }
        }
    }

    fn split(&mut self, axis: AxisId, factor: u64) -> Result<(), ScheduleError> {
        let info = *self.axis(axis).ok_or(ScheduleError::UnknownAxis(axis))?;
        if factor == 0 || info.extent % factor != 0 {
            return Err(ScheduleError::BadFactor {
                axis,
                extent: info.extent,
                factor,
            });
        }
        let outer = self.next_axis;
        let inner = self.next_axis + 1;
        self.next_axis += 2;
        // Replace the axis record.
        self.axes.retain(|a| a.id != axis);
        self.axes.push(Axis {
            id: outer,
            extent: info.extent / factor,
            scale: info.scale * factor as i64,
            ..info
        });
        self.axes.push(Axis {
            id: inner,
            extent: factor,
            ..info
        });
        // Replace in the global order: outer takes the old slot, inner
        // follows immediately (Reorder can move it later).
        let pos = self
            .order
            .iter()
            .position(|&a| a == axis)
            .expect("axis in order");
        self.order.splice(pos..=pos, [outer, inner]);
        // Annotations on the split axis transfer to the inner loop.
        for ann in &mut self.annotations {
            if ann.0 == axis {
                ann.0 = inner;
            }
        }
        Ok(())
    }

    fn reorder(&mut self, order: &[AxisId]) -> Result<(), ScheduleError> {
        // A permutation of the current order: same length, and every axis
        // it names occurs as often in both.
        let count = |xs: &[AxisId], a: AxisId| xs.iter().filter(|&&x| x == a).count();
        if order.len() != self.order.len()
            || order
                .iter()
                .any(|&a| count(order, a) != count(&self.order, a))
        {
            return Err(ScheduleError::BadReorder);
        }
        self.order.copy_from_slice(order);
        Ok(())
    }

    fn annotation(&self, axis: AxisId) -> LoopKind {
        self.annotations
            .iter()
            .find(|&&(a, _)| a == axis)
            .map(|&(_, k)| k)
            .unwrap_or(LoopKind::Serial)
    }

    /// The scheduled copy of a canonical leaf — the one leaf clone a
    /// candidate pays for. Every access entry on a canonical axis the leaf
    /// ranges over becomes one entry per current axis descending from it
    /// (what rewriting the access at each `Split` would have left), sorted
    /// by axis id as [`MemAccess::strides`] requires.
    fn place(&self, leaf: &LeafStmt) -> LeafStmt {
        let scheduled = |acc: &MemAccess| {
            // The heirs of distinct canonical axes are disjoint, so there
            // are never more entries than current axes.
            let mut strides = Vec::with_capacity(self.axes.len());
            for &(r, s) in &acc.strides {
                let ranged = leaf.domain.contains(&r);
                let heirs = self.axes.iter().filter(|a| ranged && a.root == r);
                let before = strides.len();
                strides.extend(heirs.map(|a| (a.id, s * a.scale)));
                if strides.len() == before {
                    strides.push((r, s));
                }
            }
            strides.sort_by_key(|&(a, _)| a);
            MemAccess { strides, ..*acc }
        };
        LeafStmt {
            accesses: leaf.accesses.iter().map(scheduled).collect(),
            domain: leaf.domain.clone(),
            ..*leaf
        }
    }

    /// Builds the AST forest. Leaves are placed under the loops of their
    /// domain following the global order; when the order forces a leaf
    /// apart from its neighbours (e.g. a reduction axis hoisted above an
    /// init statement's domain), the nest fissions into siblings.
    fn build(&self, leaves: &[LeafStmt]) -> Vec<AstNode> {
        let level = |&a: &AxisId| {
            let info = self.axis(a).expect("axis exists");
            let var = LoopVar {
                axis: a,
                extent: info.extent,
                kind: self.annotation(a),
                is_reduction: info.is_reduction,
            };
            Level {
                var,
                root: info.root,
                open: false,
            }
        };
        let mut levels: Vec<Level> = self.order.iter().map(level).collect();
        self.build_under(&mut levels, leaves)
    }

    /// The sibling nodes holding `leaves`, all of which sit inside the open
    /// levels. Consecutive leaves agreeing on their first needed level share
    /// that loop; a leaf that needs none is placed, exactly once.
    fn build_under(&self, levels: &mut [Level], leaves: &[LeafStmt]) -> Vec<AstNode> {
        let mut out = Vec::with_capacity(leaves.len());
        let mut i = 0;
        while i < leaves.len() {
            let Some(p) = first_needed(levels, &leaves[i]) else {
                out.push(AstNode::Leaf(self.place(&leaves[i])));
                i += 1;
                continue;
            };
            let start = i;
            while i < leaves.len() && first_needed(levels, &leaves[i]) == Some(p) {
                i += 1;
            }
            levels[p].open = true;
            let body = self.build_under(levels, &leaves[start..i]);
            levels[p].open = false;
            let var = levels[p].var.clone();
            out.push(AstNode::Loop { var, body });
        }
        out
    }
}

/// One position of the global loop order during [`LowerState::build`]: the
/// loop it becomes, the canonical axis leaves know it by, and whether the
/// leaves being placed are already inside it.
struct Level {
    var: LoopVar,
    root: AxisId,
    open: bool,
}

/// The outermost level that is not open yet and that `leaf` ranges over.
fn first_needed(levels: &[Level], leaf: &LeafStmt) -> Option<usize> {
    levels
        .iter()
        .position(|l| !l.open && leaf.domain.contains(&l.root))
}

/// Applies `schedule` to `nest`, producing a tensor program.
pub fn lower(nest: &Nest, schedule: &Schedule) -> Result<TensorProgram, ScheduleError> {
    let mut state = LowerState::new(nest, schedule.primitives.len());
    for p in &schedule.primitives {
        state.apply(p)?;
    }
    Ok(TensorProgram {
        buffers: nest.buffers.clone(),
        roots: state.build(&nest.leaves),
    })
}

/// Divisors of `n` in `[2, max]`, used by the random tiler.
fn divisors(n: u64, max: u64) -> Vec<u64> {
    (2..=n.min(max)).filter(|d| n.is_multiple_of(*d)).collect()
}

/// Samples a random Ansor-style schedule for a nest.
///
/// The sampler mixes sensible multi-level tilings with occasional bad
/// choices (hoisted reductions, missing vectorization) so the dataset spans
/// the performance range a real auto-tuner explores.
pub fn sample_schedule(nest: &Nest, rng: &mut impl Rng) -> Schedule {
    // At most one split per canonical axis plus a second-level one, one
    // reorder and three annotations.
    let max_splits = nest.axes.len() + 1;
    let mut primitives = Vec::with_capacity(max_splits + 4);
    let mut state = LowerState::new(nest, max_splits);
    // 1) Tiling: split large axes once or twice.
    for &AxisInfo { id, .. } in &nest.axes {
        let extent = state.axis(id).map(|a| a.extent).unwrap_or(1);
        if extent >= 4 && rng.random_bool(0.7) {
            let divs = divisors(extent, 64);
            if let Some(&f) = divs.as_slice().choose(rng) {
                let p = Primitive::Split {
                    axis: id,
                    factor: f,
                };
                if state.apply(&p).is_ok() {
                    primitives.push(p);
                }
            }
        }
    }
    // Occasionally add a second-level split on one inner axis.
    if rng.random_bool(0.4) {
        let candidates: Vec<(AxisId, u64)> = state
            .axes
            .iter()
            .filter(|a| a.extent >= 8)
            .map(|a| (a.id, a.extent))
            .collect();
        if let Some(&(id, extent)) = candidates.as_slice().choose(rng) {
            let divs = divisors(extent, 16);
            if let Some(&f) = divs.as_slice().choose(rng) {
                let p = Primitive::Split {
                    axis: id,
                    factor: f,
                };
                if state.apply(&p).is_ok() {
                    primitives.push(p);
                }
            }
        }
    }
    // 2) Reorder.
    let mut order = state.order.clone();
    if rng.random_bool(0.85) {
        // Mild shuffle: swap a few adjacent-ish pairs, keeping a mostly
        // sane structure.
        let swaps = rng.random_range(0..=order.len().min(4));
        for _ in 0..swaps {
            if order.len() >= 2 {
                let i = rng.random_range(0..order.len() - 1);
                let j =
                    (i + 1 + rng.random_range(0..2.min(order.len() - i - 1))).min(order.len() - 1);
                order.swap(i, j);
            }
        }
    } else {
        // Full random permutation — occasionally produces terrible
        // schedules (reduction hoisted out, strided innermost loops).
        order.shuffle(rng);
    }
    let p = Primitive::Reorder { order };
    if state.apply(&p).is_ok() {
        primitives.push(p);
    }
    // 3) Annotations.
    let (first, last) = (state.order.first().copied(), state.order.last().copied());
    if let Some(last) = last {
        let extent = state.axis(last).map(|a| a.extent).unwrap_or(1);
        if (2..=64).contains(&extent) && rng.random_bool(0.55) {
            let p = Primitive::Annotate {
                axis: last,
                kind: LoopKind::Vectorize,
            };
            if state.apply(&p).is_ok() {
                primitives.push(p);
            }
        }
    }
    if let Some(first) = first {
        let is_red = state.axis(first).map(|a| a.is_reduction).unwrap_or(false);
        if !is_red && rng.random_bool(0.7) {
            let p = Primitive::Annotate {
                axis: first,
                kind: LoopKind::Parallel,
            };
            if state.apply(&p).is_ok() {
                primitives.push(p);
            }
        }
    }
    // Unroll a random small inner axis.
    if rng.random_bool(0.4) {
        let candidates: Vec<AxisId> = state
            .axes
            .iter()
            .filter(|a| a.extent >= 2 && a.extent <= 16)
            .map(|a| a.id)
            .collect();
        if let Some(&id) = candidates.as_slice().choose(rng) {
            if state.annotation(id) == LoopKind::Serial {
                let p = Primitive::Annotate {
                    axis: id,
                    kind: LoopKind::Unroll,
                };
                if state.apply(&p).is_ok() {
                    primitives.push(p);
                }
            }
        }
    }
    Schedule { primitives }
}

/// Enumerates light mutations of a schedule (used by the Ansor-lite
/// evolutionary search in `cdmpp-core`).
pub fn mutate_schedule(nest: &Nest, schedule: &Schedule, rng: &mut impl Rng) -> Schedule {
    // Mutation = re-sampling with a bias toward keeping the old primitives:
    // with probability 0.5 keep the old schedule's splits and resample the
    // rest, otherwise sample fresh.
    if rng.random_bool(0.5) {
        let mut kept = Schedule::default();
        let mut state = LowerState::new(nest, schedule.primitives.len());
        for p in &schedule.primitives {
            if matches!(p, Primitive::Split { .. }) && state.apply(p).is_ok() {
                kept.primitives.push(p.clone());
            }
        }
        // New reorder + annotations on top of the kept splits.
        let mut order = state.order.clone();
        if rng.random_bool(0.5) {
            order.shuffle(rng);
        }
        let p = Primitive::Reorder { order };
        if state.apply(&p).is_ok() {
            kept.primitives.push(p);
        }
        if let Some(&last) = state.order.last() {
            if rng.random_bool(0.5) {
                let p = Primitive::Annotate {
                    axis: last,
                    kind: LoopKind::Vectorize,
                };
                if state.apply(&p).is_ok() {
                    kept.primitives.push(p);
                }
            }
        }
        kept
    } else {
        sample_schedule(nest, rng)
    }
}

/// Crossover by schedule stage: takes the *tiling* (all `Split`s) from one
/// parent and grafts the other parent's *order and annotations* onto the
/// resulting axis set. Deterministic — no randomness — so the generational
/// search stays reproducible.
///
/// Because the two parents evolve the nest's axis set independently, the
/// second parent's `Reorder` generally names axes that do not exist after
/// the first parent's splits. The reorder is therefore projected as an
/// order-crossover: axes shared between the two sets keep the relative
/// order the second parent gave them, while axes unique to the first
/// parent's tiling stay in their canonical slots. Annotations transfer
/// wherever their axis survived; the rest are dropped.
pub fn crossover_schedule(nest: &Nest, splits_from: &Schedule, rest_from: &Schedule) -> Schedule {
    let mut out = Schedule::default();
    let mut state = LowerState::new(nest, splits_from.primitives.len());
    for p in &splits_from.primitives {
        if matches!(p, Primitive::Split { .. }) && state.apply(p).is_ok() {
            out.primitives.push(p.clone());
        }
    }
    // Project the second parent's reorder (its last one, if any) onto the
    // current axis set via order-crossover.
    let donor_order = rest_from.primitives.iter().rev().find_map(|p| match p {
        Primitive::Reorder { order } => Some(order.as_slice()),
        _ => None,
    });
    if let Some(donor) = donor_order {
        let shared: Vec<AxisId> = donor
            .iter()
            .copied()
            .filter(|a| state.axis(*a).is_some())
            .collect();
        if !shared.is_empty() {
            let mut next_shared = shared.iter().copied();
            let order: Vec<AxisId> = state
                .order
                .iter()
                .map(|&a| {
                    if shared.contains(&a) {
                        next_shared.next().expect("one shared axis per slot")
                    } else {
                        a
                    }
                })
                .collect();
            let p = Primitive::Reorder { order };
            if state.apply(&p).is_ok() {
                out.primitives.push(p);
            }
        }
    }
    for p in &rest_from.primitives {
        if matches!(p, Primitive::Annotate { .. }) && state.apply(p).is_ok() {
            out.primitives.push(p.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::OpSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dense_nest() -> Nest {
        OpSpec::Dense {
            m: 16,
            n: 16,
            k: 16,
        }
        .canonical_nest()
    }

    #[test]
    fn lower_default_schedule_matches_canonical() {
        let nest = dense_nest();
        let p = lower(&nest, &Schedule::default()).unwrap();
        // for i { for j { init; for k { mac } ; relu } }
        assert_eq!(p.leaf_count(), 3);
        assert_eq!(p.node_count(), 3 + 3); // 3 loops + 3 leaves
        assert_eq!(p.max_depth(), 3);
        // Iterations preserved: 256 + 4096 + 256.
        assert_eq!(p.total_iterations(), nest.total_iterations());
    }

    #[test]
    fn split_preserves_iterations_and_leaf_count() {
        let nest = dense_nest();
        let s = Schedule {
            primitives: vec![
                Primitive::Split { axis: 0, factor: 4 },
                Primitive::Split { axis: 2, factor: 8 },
            ],
        };
        let p = lower(&nest, &s).unwrap();
        assert_eq!(p.leaf_count(), 3);
        assert_eq!(p.total_iterations(), nest.total_iterations());
        // Two splits add two loops: 5 loops total.
        assert_eq!(p.node_count() - p.leaf_count(), 5);
    }

    #[test]
    fn split_requires_dividing_factor() {
        let nest = dense_nest();
        let s = Schedule {
            primitives: vec![Primitive::Split { axis: 0, factor: 5 }],
        };
        assert!(matches!(
            lower(&nest, &s),
            Err(ScheduleError::BadFactor { .. })
        ));
    }

    #[test]
    fn split_unknown_axis_errors() {
        let nest = dense_nest();
        let s = Schedule {
            primitives: vec![Primitive::Split {
                axis: 99,
                factor: 2,
            }],
        };
        assert_eq!(lower(&nest, &s), Err(ScheduleError::UnknownAxis(99)));
    }

    #[test]
    fn reorder_validates_permutation() {
        let nest = dense_nest();
        let bad = Schedule {
            primitives: vec![Primitive::Reorder { order: vec![0, 1] }],
        };
        assert_eq!(lower(&nest, &bad), Err(ScheduleError::BadReorder));
        let dup = Schedule {
            primitives: vec![Primitive::Reorder {
                order: vec![0, 1, 1],
            }],
        };
        assert_eq!(lower(&nest, &dup), Err(ScheduleError::BadReorder));
    }

    #[test]
    fn hoisting_reduction_fissions_the_nest() {
        let nest = dense_nest();
        // Put the reduction axis k (=2) outermost: init/relu (domain {i,j})
        // must fission out of the k-nest.
        let s = Schedule {
            primitives: vec![Primitive::Reorder {
                order: vec![2, 0, 1],
            }],
        };
        let p = lower(&nest, &s).unwrap();
        assert_eq!(p.leaf_count(), 3);
        // Three sibling nests at the root: init-nest, k-nest, relu-nest.
        assert_eq!(p.roots.len(), 3);
        assert_eq!(p.total_iterations(), nest.total_iterations());
    }

    #[test]
    fn annotations_show_up_in_ast() {
        let nest = dense_nest();
        let s = Schedule {
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
        let p = lower(&nest, &s).unwrap();
        let mut kinds = Vec::new();
        fn walk(n: &AstNode, out: &mut Vec<LoopKind>) {
            if let AstNode::Loop { var, body } = n {
                out.push(var.kind);
                for c in body {
                    walk(c, out);
                }
            }
        }
        for r in &p.roots {
            walk(r, &mut kinds);
        }
        assert!(kinds.contains(&LoopKind::Parallel));
        assert!(kinds.contains(&LoopKind::Vectorize));
    }

    #[test]
    fn annotation_transfers_to_inner_on_split() {
        let nest = dense_nest();
        let s = Schedule {
            primitives: vec![
                Primitive::Annotate {
                    axis: 1,
                    kind: LoopKind::Vectorize,
                },
                Primitive::Split { axis: 1, factor: 4 },
            ],
        };
        let p = lower(&nest, &s).unwrap();
        // Find the vectorized loop; its extent must be the inner factor 4.
        let mut found = None;
        fn walk(n: &AstNode, found: &mut Option<u64>) {
            if let AstNode::Loop { var, body } = n {
                if var.kind == LoopKind::Vectorize {
                    *found = Some(var.extent);
                }
                for c in body {
                    walk(c, found);
                }
            }
        }
        for r in &p.roots {
            walk(r, &mut found);
        }
        assert_eq!(found, Some(4));
    }

    #[test]
    fn split_rewrites_access_strides() {
        let nest = dense_nest();
        let s = Schedule {
            primitives: vec![Primitive::Split { axis: 1, factor: 4 }],
        };
        let p = lower(&nest, &s).unwrap();
        // Find the mac leaf; its B access now strides 1 on the inner j axis
        // and 4 on the outer j axis.
        let mut checked = false;
        p.visit_leaves(|leaf, _| {
            if leaf.kind == crate::expr::ComputeKind::Mac {
                let b_acc = &leaf.accesses[1];
                let strides: Vec<i64> = b_acc.strides.iter().map(|&(_, s)| s).collect();
                assert!(strides.contains(&1));
                assert!(strides.contains(&4));
                checked = true;
            }
        });
        assert!(checked);
    }

    #[test]
    fn sampled_schedules_always_lower() {
        let mut rng = StdRng::seed_from_u64(7);
        for spec in [
            OpSpec::Dense {
                m: 64,
                n: 64,
                k: 64,
            },
            OpSpec::Conv2d {
                n: 1,
                cin: 16,
                hw: 16,
                cout: 32,
                khw: 3,
                stride: 1,
            },
            OpSpec::Softmax {
                rows: 64,
                cols: 128,
            },
            OpSpec::Elementwise {
                n: 1024,
                kind: crate::task::EwKind::Relu,
            },
        ] {
            let nest = spec.canonical_nest();
            for _ in 0..50 {
                let sched = sample_schedule(&nest, &mut rng);
                let p = lower(&nest, &sched).expect("sampled schedule lowers");
                assert_eq!(p.leaf_count(), nest.leaves.len());
                let diff = (p.total_iterations() - nest.total_iterations()).abs();
                assert!(diff < 1e-6, "iterations preserved for {spec:?}");
            }
        }
    }

    #[test]
    fn sampled_schedules_are_diverse() {
        let mut rng = StdRng::seed_from_u64(3);
        let nest = OpSpec::Dense {
            m: 64,
            n: 64,
            k: 64,
        }
        .canonical_nest();
        let mut node_counts = std::collections::HashSet::new();
        for _ in 0..100 {
            let sched = sample_schedule(&nest, &mut rng);
            let p = lower(&nest, &sched).unwrap();
            node_counts.insert(p.node_count());
        }
        assert!(
            node_counts.len() >= 4,
            "expected structural diversity, got {node_counts:?}"
        );
    }

    #[test]
    fn mutation_produces_valid_schedules() {
        let mut rng = StdRng::seed_from_u64(11);
        let nest = OpSpec::Dense {
            m: 32,
            n: 32,
            k: 32,
        }
        .canonical_nest();
        let base = sample_schedule(&nest, &mut rng);
        for _ in 0..30 {
            let m = mutate_schedule(&nest, &base, &mut rng);
            assert!(lower(&nest, &m).is_ok());
        }
    }

    #[test]
    fn divisors_helper() {
        assert_eq!(divisors(12, 64), vec![2, 3, 4, 6, 12]);
        assert_eq!(divisors(7, 64), vec![7]);
        assert!(divisors(1, 64).is_empty());
    }

    #[test]
    fn identity_hash_separates_and_matches() {
        let mut rng = StdRng::seed_from_u64(5);
        let nest = dense_nest();
        let a = sample_schedule(&nest, &mut rng);
        assert_eq!(a.identity_hash(), a.clone().identity_hash());
        // Distinct schedules should (overwhelmingly) hash apart.
        let mut hashes = std::collections::HashSet::new();
        let mut schedules = std::collections::HashSet::new();
        for _ in 0..200 {
            let s = sample_schedule(&nest, &mut rng);
            schedules.insert(format!("{s:?}"));
            hashes.insert(s.identity_hash());
        }
        assert_eq!(hashes.len(), schedules.len());
        // Order of primitives matters (it is an identity, not a set hash).
        let swapped = Schedule {
            primitives: vec![
                Primitive::Split { axis: 1, factor: 4 },
                Primitive::Split { axis: 0, factor: 2 },
            ],
        };
        let straight = Schedule {
            primitives: vec![
                Primitive::Split { axis: 0, factor: 2 },
                Primitive::Split { axis: 1, factor: 4 },
            ],
        };
        assert_ne!(swapped.identity_hash(), straight.identity_hash());
    }

    #[test]
    fn crossover_always_lowers_and_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(21);
        for spec in [
            OpSpec::Dense {
                m: 64,
                n: 64,
                k: 64,
            },
            OpSpec::Conv2d {
                n: 1,
                cin: 16,
                hw: 16,
                cout: 32,
                khw: 3,
                stride: 1,
            },
            OpSpec::Softmax {
                rows: 64,
                cols: 128,
            },
        ] {
            let nest = spec.canonical_nest();
            for _ in 0..30 {
                let a = sample_schedule(&nest, &mut rng);
                let b = sample_schedule(&nest, &mut rng);
                let c = crossover_schedule(&nest, &a, &b);
                assert_eq!(c, crossover_schedule(&nest, &a, &b));
                let p = lower(&nest, &c).expect("crossover lowers");
                assert_eq!(p.leaf_count(), nest.leaves.len());
                let diff = (p.total_iterations() - nest.total_iterations()).abs();
                assert!(diff < 1e-6);
            }
        }
    }

    #[test]
    fn crossover_takes_splits_from_first_parent() {
        let nest = dense_nest();
        let a = Schedule {
            primitives: vec![Primitive::Split { axis: 0, factor: 4 }],
        };
        let b = Schedule {
            primitives: vec![
                Primitive::Split { axis: 1, factor: 8 },
                Primitive::Reorder {
                    order: vec![2, 3, 4, 0],
                },
            ],
        };
        let c = crossover_schedule(&nest, &a, &b);
        let splits: Vec<&Primitive> = c
            .primitives
            .iter()
            .filter(|p| matches!(p, Primitive::Split { .. }))
            .collect();
        assert_eq!(splits, vec![&Primitive::Split { axis: 0, factor: 4 }]);
        lower(&nest, &c).unwrap();
    }

    #[test]
    fn crossover_projects_shared_axis_order_from_second_parent() {
        let nest = dense_nest();
        // No splits anywhere: both parents share the full axis set, so the
        // child's order must be exactly the donor's.
        let a = Schedule::default();
        let b = Schedule {
            primitives: vec![
                Primitive::Reorder {
                    order: vec![2, 0, 1],
                },
                Primitive::Annotate {
                    axis: 1,
                    kind: LoopKind::Vectorize,
                },
            ],
        };
        let c = crossover_schedule(&nest, &a, &b);
        assert!(c.primitives.contains(&Primitive::Reorder {
            order: vec![2, 0, 1]
        }));
        assert!(c.primitives.contains(&Primitive::Annotate {
            axis: 1,
            kind: LoopKind::Vectorize,
        }));
    }
}
