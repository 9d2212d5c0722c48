//! Liveness-based arena slot assignment, shared by the inference planner
//! ([`crate::plan`]) and the training-step compiler ([`crate::train_plan`]).

use crate::plan::Size;

/// One buffer-defining step as the allocator sees it.
pub(crate) struct Def {
    /// Index of the step in its program (the clock `def_step` / `last_use`
    /// are expressed in).
    pub step: usize,
    /// The buffer the step writes.
    pub out: usize,
    /// Operand buffers the step may legally overwrite: element-wise steps,
    /// which read each element before writing it, and row-local ones.
    pub inplace: Vec<usize>,
}

/// The allocator's result.
pub(crate) struct Slots {
    /// Arena slot of every buffer.
    pub slot_of: Vec<usize>,
    /// Symbolic size of every slot.
    pub slot_sizes: Vec<Size>,
    /// Steps that write in place over a dying operand.
    pub inplace_steps: usize,
}

/// Walks `defs` in step order, frees each buffer's slot after its last read
/// and gives every new buffer the best-fitting free slot — or a dying
/// operand's slot itself when the step may run in place. `def_step[b]` is
/// the step that first writes `b`, `last_use[b]` the last step that reads
/// (or read-modify-writes) it; `usize::MAX` pins a buffer for good.
pub(crate) fn assign_slots(
    sizes: &[Size],
    def_step: &[usize],
    last_use: &[usize],
    defs: &[Def],
) -> Slots {
    let n = sizes.len();
    let mut slot_of = vec![usize::MAX; n];
    let mut slot_sizes: Vec<Size> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut released = vec![false; n];
    let mut inplace_steps = 0usize;
    for def in defs {
        let si = def.step;
        // Release buffers whose last read is strictly behind us.
        for b in 0..n {
            if !released[b] && def_step[b] < si && last_use[b] < si {
                released[b] = true;
                free.push(slot_of[b]);
            }
        }
        let need = sizes[def.out];
        // In-place: a step whose operand dies at this very step writes
        // straight over it.
        let mut chosen: Option<usize> = None;
        for &cb in &def.inplace {
            if last_use[cb] == si && !released[cb] && sizes[cb] == need {
                released[cb] = true; // slot ownership moves to `out`
                chosen = Some(slot_of[cb]);
                inplace_steps += 1;
                break;
            }
        }
        let slot = match chosen {
            Some(s) => s,
            None => {
                // Best fit: the smallest free slot that already holds the
                // size; otherwise grow the largest free slot; otherwise a
                // fresh slot.
                let fit = free
                    .iter()
                    .enumerate()
                    .filter(|(_, &s)| slot_sizes[s].fits(&need))
                    .min_by_key(|(_, &s)| (slot_sizes[s].coef, slot_sizes[s].fixed))
                    .map(|(pos, _)| pos);
                let pos = fit.or_else(|| {
                    free.iter()
                        .enumerate()
                        .max_by_key(|(_, &s)| (slot_sizes[s].coef, slot_sizes[s].fixed))
                        .map(|(pos, _)| pos)
                });
                match pos {
                    Some(pos) => {
                        let s = free.swap_remove(pos);
                        slot_sizes[s].grow_to(&need);
                        s
                    }
                    None => {
                        slot_sizes.push(need);
                        slot_sizes.len() - 1
                    }
                }
            }
        };
        slot_of[def.out] = slot;
    }
    debug_assert!(slot_of.iter().all(|&s| s != usize::MAX));
    Slots {
        slot_of,
        slot_sizes,
        inplace_steps,
    }
}
