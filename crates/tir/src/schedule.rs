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
//! A search proposes and lowers thousands of candidates a round, so the
//! proposers and [`lower`] are hot paths, and what they allocate is part of
//! their contract, held over every zoo task by `tests/lower_allocations.rs`:
//!
//! * **[`lower`] makes at most 10 allocations, at any loop depth.** The
//!   schedule state is two buffers sized once, and primitives evolve axes,
//!   order and annotations only. The program is written in one pre-order
//!   pass into five slabs sized before the pass ([`TensorProgram`]), each
//!   leaf once, with its final strides, and it shares the nest's buffer
//!   list instead of cloning it: six heap blocks a program.
//! * **[`sample_schedule`] makes at most 5.** Divisor and candidate-axis
//!   lists are drawn from stack buffers; what is left is the schedule, its
//!   reorder list and the state. [`mutate_schedule`] and
//!   [`crossover_schedule`] evolve the same leaf-free state.
//! * **[`sample_lowered`] makes at least 2 fewer than `sample_schedule`
//!   and `lower` together.** The sampler's state has already applied every
//!   primitive it kept, so the program is built from it: no state is
//!   rebuilt and no primitive applied twice. The end-to-end path and dataset
//!   generation lower their samples this way.
//! * **A leaf's domain is read once per pass of the build**, as a bitmask
//!   over the canonical axis ids, so each of the leaves × levels membership
//!   tests is one AND; a nest with a canonical id of 64 or more tests the
//!   domain list instead.
//!
//! `tests/properties.rs` holds `lower` equal, program for program and error
//! for error, to the clone-per-level tree builder it replaced,
//! `tests/sample_lowered.rs` holds `sample_lowered` to `sample_schedule`
//! then `lower` over every zoo task, and `tests/stream_pin.rs` pins the
//! proposers' RNG streams.

use std::sync::Arc;

use rand::seq::{IndexedRandom, SliceRandom};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::ast::{LoopKind, LoopVar, TensorProgram};
use crate::expr::{AxisId, LeafStmt};
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
    /// The axis's annotation; `Split` hands it to the inner half.
    kind: LoopKind,
}

/// Mutable schedule state: the axis set (annotations included) and the
/// global loop order, evolved by primitives. It holds no leaves: the
/// proposers never need them, and `lower` writes each one once, in
/// [`Self::place`].
struct LowerState {
    axes: Vec<Axis>,
    order: Vec<AxisId>,
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
            kind: LoopKind::Serial,
        }));
        let mut order = Vec::with_capacity(axes.capacity());
        order.extend(axes.iter().map(|a| a.id));
        LowerState {
            axes,
            order,
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
                let a = self
                    .axes
                    .iter_mut()
                    .find(|a| a.id == *axis)
                    .ok_or(ScheduleError::UnknownAxis(*axis))?;
                a.kind = *kind;
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
        // Replace the axis record; its annotation transfers to the inner
        // loop.
        self.axes.retain(|a| a.id != axis);
        self.axes.push(Axis {
            id: outer,
            extent: info.extent / factor,
            scale: info.scale * factor as i64,
            kind: LoopKind::Serial,
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
        self.axis(axis).map_or(LoopKind::Serial, |a| a.kind)
    }

    /// The stride entries of `leaf` (ranging over `domain`) once scheduled:
    /// every entry on a canonical axis the leaf ranges over becomes one
    /// entry per current axis descending from it.
    fn stride_count(&self, leaf: &LeafStmt, domain: Domain<'_>) -> usize {
        let heirs = |r: AxisId| self.axes.iter().filter(|a| a.root == r).count();
        leaf.accesses
            .iter()
            .flat_map(|acc| &acc.strides)
            .map(|&(r, _)| {
                if domain.contains(r) {
                    heirs(r).max(1)
                } else {
                    1
                }
            })
            .sum()
    }

    /// Appends the scheduled copy of a canonical leaf (ranging over
    /// `domain`) to `prog`, the one write a leaf costs: every access entry
    /// on a canonical axis the leaf ranges over becomes one entry per
    /// current axis descending from it (what rewriting the access at each
    /// `Split` would have left), sorted by axis id as
    /// [`MemAccess::strides`](crate::MemAccess::strides) requires.
    fn place(&self, leaf: &LeafStmt, domain: Domain<'_>, prog: &mut TensorProgram) {
        prog.push_leaf(leaf, |acc, out| {
            let first = out.len();
            for &(r, s) in &acc.strides {
                let ranged = domain.contains(r);
                let heirs = self.axes.iter().filter(|a| ranged && a.root == r);
                let before = out.len();
                out.extend(heirs.map(|a| (a.id, s * a.scale)));
                if out.len() == before {
                    out.push((r, s));
                }
            }
            out[first..].sort_by_key(|&(a, _)| a);
        });
    }

    /// Lowers `nest` under this state. A leaf sits under the loops of the
    /// levels it ranges over, in the global order, and consecutive leaves
    /// share the loops of the longest prefix they agree on: when the order
    /// forces a leaf apart from its neighbours (e.g. a reduction axis
    /// hoisted above an init statement's domain), the nest fissions into
    /// siblings. One pass over the leaves writes the program in pre-order.
    ///
    /// Every slab of the program is sized before it is written: a leaf
    /// opens at most one loop per level it ranges over, so that count plus
    /// one per leaf bounds the nodes, and the others are exact.
    ///
    /// Each pass over the leaves reads a leaf's domain once, as a [`Domain`]
    /// mask, so the leaves × levels tests are one AND each.
    fn build(&self, nest: &Nest) -> TensorProgram {
        let masked = nest.axes.iter().all(|a| a.id < u64::BITS);
        let level = |&a: &AxisId| {
            let info = self.axis(a).expect("axis exists");
            let var = LoopVar {
                axis: a,
                extent: info.extent,
                kind: info.kind,
                is_reduction: info.is_reduction,
            };
            Level {
                var,
                root: info.root,
                open_at: None,
            }
        };
        let mut levels: Vec<Level> = self.order.iter().map(level).collect();
        let leaves = &nest.leaves;
        let mut capacity = [0, leaves.len(), 0, 0, 0];
        for leaf in leaves {
            let d = Domain::of(leaf, masked);
            capacity[0] += 1 + levels.iter().filter(|v| d.contains(v.root)).count();
            capacity[2] += leaf.accesses.len();
            capacity[3] += self.stride_count(leaf, d);
            capacity[4] += leaf.domain.len();
        }
        let mut prog = TensorProgram::with_capacity(Arc::clone(&nest.buffers), capacity);
        let mut depth = 0;
        for leaf in leaves {
            let d = Domain::of(leaf, masked);
            // The open loops stay open up to the first level where the
            // leaf's needs and the open loops differ; from there every open
            // loop closes and every needed one opens.
            let mut diverged = false;
            for l in levels.iter_mut() {
                let needed = d.contains(l.root);
                diverged |= needed != l.open_at.is_some();
                if !diverged {
                    continue;
                }
                if let Some(at) = l.open_at.take() {
                    prog.close_loop(at);
                    depth -= 1;
                }
            }
            for l in levels.iter_mut() {
                if l.open_at.is_none() && d.contains(l.root) {
                    depth += 1;
                    l.open_at = Some(prog.open_loop(l.var.clone(), depth));
                }
            }
            self.place(leaf, d, &mut prog);
        }
        for at in levels.iter().filter_map(|l| l.open_at) {
            prog.close_loop(at);
        }
        prog
    }
}

/// The canonical axes a leaf ranges over, read once per pass of
/// [`LowerState::build`]: a bitmask over canonical axis ids when every
/// canonical id of the nest is below 64, so that membership is one AND, and
/// the leaf's domain list otherwise. A domain id of 64 or more names no
/// canonical axis of a masked nest, so the mask can leave it out.
#[derive(Clone, Copy)]
enum Domain<'a> {
    Mask(u64),
    List(&'a [AxisId]),
}

impl<'a> Domain<'a> {
    /// `leaf`'s domain, as a mask if `masked` (every canonical id `< 64`).
    fn of(leaf: &'a LeafStmt, masked: bool) -> Self {
        if masked {
            let bits = leaf.domain.iter().filter(|&&a| a < u64::BITS);
            Domain::Mask(bits.fold(0, |m, &a| m | 1 << a))
        } else {
            Domain::List(&leaf.domain)
        }
    }

    /// Whether the leaf ranges over canonical axis `root`.
    fn contains(self, root: AxisId) -> bool {
        match self {
            Domain::Mask(m) => root < u64::BITS && m >> root & 1 != 0,
            Domain::List(d) => d.contains(&root),
        }
    }
}

/// One position of the global loop order during [`LowerState::build`]: the
/// loop it becomes, the canonical axis leaves know it by, and, while it is
/// open around the leaves being placed, where that loop starts.
struct Level {
    var: LoopVar,
    root: AxisId,
    open_at: Option<usize>,
}

/// Applies `schedule` to `nest`, producing a tensor program.
pub fn lower(nest: &Nest, schedule: &Schedule) -> Result<TensorProgram, ScheduleError> {
    let mut state = LowerState::new(nest, schedule.primitives.len());
    for p in &schedule.primitives {
        state.apply(p)?;
    }
    Ok(state.build(nest))
}

/// Divisors of `n` in `[2, max]`, ascending, used by the random tiler.
/// Each divisor `d ≤ √n` comes with its cofactor `n / d`, so a call tries
/// about `2√n` candidates instead of `max`.
fn divisors(n: u64, max: u64) -> impl Iterator<Item = u64> {
    let root = n.isqrt();
    let small = (2..=root).filter(move |&d| n.is_multiple_of(d));
    let large = (1..=root)
        .rev()
        .filter(move |&d| n.is_multiple_of(d) && d != n / d)
        .map(move |d| n / d);
    small.chain(large).filter(move |&d| d >= 2 && d <= max)
}

/// What `choose` picks from the slice of `items`, with the slice held in a
/// stack buffer: a slice of the same length draws the same from `rng`
/// wherever it lives.
fn choose_from<T: Copy + Default>(
    mut items: impl Iterator<Item = T>,
    rng: &mut impl Rng,
) -> Option<T> {
    const STACK: usize = 64;
    let mut buf = [T::default(); STACK];
    let mut len = 0;
    while let Some(x) = items.next() {
        if len == STACK {
            // Longer than any list a zoo nest yields: spill to the heap.
            let mut spilled = buf.to_vec();
            spilled.push(x);
            spilled.extend(items);
            return spilled.choose(rng).copied();
        }
        buf[len] = x;
        len += 1;
    }
    buf[..len].choose(rng).copied()
}

/// Samples a random Ansor-style schedule for a nest.
///
/// The sampler mixes sensible multi-level tilings with occasional bad
/// choices (hoisted reductions, missing vectorization) so the dataset spans
/// the performance range a real auto-tuner explores.
pub fn sample_schedule(nest: &Nest, rng: &mut impl Rng) -> Schedule {
    sample_state(nest, rng).0
}

/// [`sample_schedule`] and the program it lowers to: `(s, lower(nest,
/// &s).unwrap())` for the `s` that `sample_schedule` would draw from `rng`,
/// leaving `rng` in the same state.
///
/// A sampled schedule always lowers: the sampler keeps only primitives that
/// applied to its own state, and `lower` would re-apply exactly those to
/// the same canonical state. So the program is built from the sampler's
/// state instead, and no primitive is applied twice.
pub fn sample_lowered(nest: &Nest, rng: &mut impl Rng) -> (Schedule, TensorProgram) {
    let (schedule, state) = sample_state(nest, rng);
    let program = state.build(nest);
    (schedule, program)
}

/// The sampler: the schedule it draws, and the state that applying that
/// schedule to `nest`'s canonical state leaves (every primitive it keeps
/// applied once, in order).
fn sample_state(nest: &Nest, rng: &mut impl Rng) -> (Schedule, LowerState) {
    // At most one split per canonical axis plus a second-level one, one
    // reorder and three annotations.
    let max_splits = nest.axes.len() + 1;
    let mut primitives = Vec::with_capacity(max_splits + 4);
    let mut state = LowerState::new(nest, max_splits);
    // 1) Tiling: split large axes once or twice.
    for &AxisInfo { id, .. } in &nest.axes {
        let extent = state.axis(id).map(|a| a.extent).unwrap_or(1);
        if extent >= 4 && rng.random_bool(0.7) {
            if let Some(f) = choose_from(divisors(extent, 64), rng) {
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
        let candidates = state.axes.iter().filter(|a| a.extent >= 8);
        if let Some((id, extent)) = choose_from(candidates.map(|a| (a.id, a.extent)), rng) {
            if let Some(f) = choose_from(divisors(extent, 16), rng) {
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
        let candidates = state
            .axes
            .iter()
            .filter(|a| a.extent >= 2 && a.extent <= 16);
        if let Some(id) = choose_from(candidates.map(|a| a.id), rng) {
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
    (Schedule { primitives }, state)
}

/// Enumerates light mutations of a schedule (used by the Ansor-lite
/// evolutionary search in `cdmpp-core`).
pub fn mutate_schedule(nest: &Nest, schedule: &Schedule, rng: &mut impl Rng) -> Schedule {
    // Mutation = re-sampling with a bias toward keeping the old primitives:
    // with probability 0.5 keep the old schedule's splits and resample the
    // rest, otherwise sample fresh.
    if rng.random_bool(0.5) {
        // The kept splits, a reorder and a vectorize at most.
        let mut kept = Schedule {
            primitives: Vec::with_capacity(schedule.primitives.len() + 2),
        };
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
    // The first parent's splits, plus one reorder or annotation per
    // primitive of the second at most.
    let mut out = Schedule {
        primitives: Vec::with_capacity(splits_from.primitives.len() + rest_from.primitives.len()),
    };
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
        // The donor's axes that exist here, in its order. Every slot of the
        // current order is an existing axis, so it is shared iff the donor
        // names it.
        let mut shared = donor.iter().copied().filter(|&a| state.axis(a).is_some());
        if shared.clone().next().is_some() {
            let order: Vec<AxisId> = state
                .order
                .iter()
                .map(|&a| {
                    if donor.contains(&a) {
                        shared.next().expect("one shared axis per slot")
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

    /// Every loop of `p`, in pre-order, read through its tree view.
    fn loops(p: &TensorProgram) -> Vec<LoopVar> {
        fn walk(nodes: crate::ast::Nodes<'_>, out: &mut Vec<LoopVar>) {
            for n in nodes {
                if let crate::ast::NodeView::Loop { var, body } = n {
                    out.push(var.clone());
                    walk(body, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(p.roots(), &mut out);
        out
    }

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
        assert_eq!(p.roots().count(), 3);
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
        let kinds: Vec<LoopKind> = loops(&p).iter().map(|l| l.kind).collect();
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
        let vectorized: Vec<u64> = loops(&p)
            .iter()
            .filter(|l| l.kind == LoopKind::Vectorize)
            .map(|l| l.extent)
            .collect();
        assert_eq!(vectorized, [4]);
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
                let b_acc = leaf.accesses.get(1).unwrap();
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
        let divs = |n, max| divisors(n, max).collect::<Vec<u64>>();
        assert_eq!(divs(12, 64), vec![2, 3, 4, 6, 12]);
        assert_eq!(divs(7, 64), vec![7]);
        assert!(divs(1, 64).is_empty());
        // Square, prime and capped extents, against the definition.
        for (n, max) in [
            (36, 64),
            (49, 64),
            (97, 64),
            (512, 64),
            (512, 16),
            (2, 64),
            (0, 64),
        ] {
            let want: Vec<u64> = (2..=u64::min(n, max)).filter(|d| n % d == 0).collect();
            assert_eq!(divs(n, max), want, "divisors({n}, {max})");
        }
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
