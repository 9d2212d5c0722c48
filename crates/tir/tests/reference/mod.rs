//! The clone-based lowering `tir::lower` replaced in PR 13, kept verbatim as
//! the oracle `lower` is tested against: a full `(LeafStmt, domain)` copy
//! per leaf in the state, another in `build`, and one more per nesting
//! level in `build_rec`. Written against `tir`'s public types only; the
//! tree it builds is flattened by `TensorProgram::from_tree` to compare.

use tir::{
    AstNode, AxisId, AxisInfo, LeafStmt, LoopKind, LoopVar, Nest, Primitive, Schedule,
    ScheduleError, TensorProgram,
};

struct LowerState {
    axes: Vec<AxisInfo>,
    order: Vec<AxisId>,
    leaves: Vec<(LeafStmt, Vec<AxisId>)>,
    annotations: Vec<(AxisId, LoopKind)>,
    next_axis: AxisId,
}

impl LowerState {
    fn new(nest: &Nest) -> Self {
        let order = nest.axes.iter().map(|a| a.id).collect();
        let next_axis = nest.axes.iter().map(|a| a.id).max().map_or(0, |m| m + 1);
        LowerState {
            axes: nest.axes.clone(),
            order,
            leaves: nest
                .leaves
                .iter()
                .map(|l| (l.clone(), l.domain.clone()))
                .collect(),
            annotations: Vec::new(),
            next_axis,
        }
    }

    fn axis(&self, id: AxisId) -> Option<&AxisInfo> {
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
        let info = self
            .axis(axis)
            .ok_or(ScheduleError::UnknownAxis(axis))?
            .clone();
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
        self.axes.retain(|a| a.id != axis);
        self.axes.push(AxisInfo {
            id: outer,
            extent: info.extent / factor,
            is_reduction: info.is_reduction,
        });
        self.axes.push(AxisInfo {
            id: inner,
            extent: factor,
            is_reduction: info.is_reduction,
        });
        let pos = self
            .order
            .iter()
            .position(|&a| a == axis)
            .expect("axis in order");
        self.order.splice(pos..=pos, [outer, inner]);
        for (leaf, domain) in &mut self.leaves {
            if let Some(dpos) = domain.iter().position(|&a| a == axis) {
                domain.splice(dpos..=dpos, [outer, inner]);
                for acc in &mut leaf.accesses {
                    acc.split_axis(axis, outer, inner, factor as i64);
                }
            }
        }
        for ann in &mut self.annotations {
            if ann.0 == axis {
                ann.0 = inner;
            }
        }
        Ok(())
    }

    fn reorder(&mut self, order: &[AxisId]) -> Result<(), ScheduleError> {
        if order.len() != self.order.len() {
            return Err(ScheduleError::BadReorder);
        }
        let mut sorted_new: Vec<_> = order.to_vec();
        let mut sorted_old = self.order.clone();
        sorted_new.sort_unstable();
        sorted_old.sort_unstable();
        if sorted_new != sorted_old {
            return Err(ScheduleError::BadReorder);
        }
        self.order = order.to_vec();
        Ok(())
    }

    fn annotation(&self, axis: AxisId) -> LoopKind {
        self.annotations
            .iter()
            .find(|&&(a, _)| a == axis)
            .map(|&(_, k)| k)
            .unwrap_or(LoopKind::Serial)
    }

    fn build(&self) -> Vec<AstNode> {
        let leaves: Vec<(LeafStmt, Vec<AxisId>)> = self.leaves.clone();
        self.build_rec(&self.order, leaves)
    }

    fn build_rec(&self, order: &[AxisId], leaves: Vec<(LeafStmt, Vec<AxisId>)>) -> Vec<AstNode> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < leaves.len() {
            let first_needed = order.iter().copied().find(|a| leaves[i].1.contains(a));
            match first_needed {
                None => {
                    out.push(AstNode::Leaf(leaves[i].0.clone()));
                    i += 1;
                }
                Some(a) => {
                    let mut group = Vec::new();
                    while i < leaves.len() {
                        let fni = order.iter().copied().find(|x| leaves[i].1.contains(x));
                        if fni != Some(a) {
                            break;
                        }
                        let (leaf, mut dom) = leaves[i].clone();
                        dom.retain(|&x| x != a);
                        group.push((leaf, dom));
                        i += 1;
                    }
                    let sub_order: Vec<AxisId> =
                        order.iter().copied().filter(|&x| x != a).collect();
                    let info = self.axis(a).expect("axis exists");
                    let var = LoopVar {
                        axis: a,
                        extent: info.extent,
                        kind: self.annotation(a),
                        is_reduction: info.is_reduction,
                    };
                    let body = self.build_rec(&sub_order, group);
                    out.push(AstNode::Loop { var, body });
                }
            }
        }
        out
    }
}

/// What `tir::lower` returned before PR 13, for any nest and schedule.
pub fn reference_lower(nest: &Nest, schedule: &Schedule) -> Result<TensorProgram, ScheduleError> {
    let mut state = LowerState::new(nest);
    for p in &schedule.primitives {
        state.apply(p)?;
    }
    Ok(TensorProgram::from_tree(
        nest.buffers.clone(),
        &state.build(),
    ))
}
