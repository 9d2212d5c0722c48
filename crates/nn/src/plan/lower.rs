//! Stage 2: lower a recording — CSE, reshape elision, element-wise and
//! GEMM-epilogue fusion, then liveness-based arena slot assignment.

use super::*;

/// Whether two scalar map ops are the same function, comparing float
/// constants by **bit pattern** — merging `Scale(-0.0)` into `Scale(0.0)`
/// would flip the sign of zero outputs.
fn map_op_bits_eq(a: MapOp, b: MapOp) -> bool {
    match (a, b) {
        (MapOp::Scale(x), MapOp::Scale(y)) | (MapOp::AddScalar(x), MapOp::AddScalar(y)) => {
            x.to_bits() == y.to_bits()
        }
        _ => a == b,
    }
}

/// Whether two recorded ops (operands already canonicalized) compute the
/// same pure value — the CSE merge criterion. Structural equality except
/// float constants, which compare bitwise.
fn rop_cse_eq(a: &ROp, b: &ROp) -> bool {
    match (a, b) {
        (ROp::Map { x: xa, op: oa }, ROp::Map { x: xb, op: ob }) => {
            xa == xb && map_op_bits_eq(*oa, *ob)
        }
        (
            ROp::LayerNorm {
                x: xa,
                gamma: ga,
                beta: ba,
                eps: ea,
            },
            ROp::LayerNorm {
                x: xb,
                gamma: gb,
                beta: bb,
                eps: eb,
            },
        ) => xa == xb && ga == gb && ba == bb && ea.to_bits() == eb.to_bits(),
        _ => a == b,
    }
}

/// The op with every operand index remapped through `f`.
fn remap_rop(op: &ROp, f: impl Fn(usize) -> usize) -> ROp {
    match op {
        ROp::Input(k) => ROp::Input(*k),
        ROp::Param(id) => ROp::Param(*id),
        ROp::Map { x, op } => ROp::Map { x: f(*x), op: *op },
        ROp::Zip { a, b, kind } => ROp::Zip {
            a: f(*a),
            b: f(*b),
            kind: *kind,
        },
        ROp::RowOp { x, row, kind } => ROp::RowOp {
            x: f(*x),
            row: f(*row),
            kind: *kind,
        },
        ROp::Matmul { a, b } => ROp::Matmul { a: f(*a), b: f(*b) },
        ROp::Bmm { a, b, ta, tb } => ROp::Bmm {
            a: f(*a),
            b: f(*b),
            ta: *ta,
            tb: *tb,
        },
        ROp::SplitHeads { x, h } => ROp::SplitHeads { x: f(*x), h: *h },
        ROp::MergeHeads { x, h } => ROp::MergeHeads { x: f(*x), h: *h },
        ROp::Reshape { x } => ROp::Reshape { x: f(*x) },
        ROp::Softmax { x } => ROp::Softmax { x: f(*x) },
        ROp::Concat { parts } => ROp::Concat {
            parts: parts.iter().map(|&p| f(p)).collect(),
        },
        ROp::SliceLast { x, start, end } => ROp::SliceLast {
            x: f(*x),
            start: *start,
            end: *end,
        },
        ROp::LayerNorm {
            x,
            gamma,
            beta,
            eps,
        } => ROp::LayerNorm {
            x: f(*x),
            gamma: f(*gamma),
            beta: f(*beta),
            eps: *eps,
        },
    }
}

/// Common-subexpression elimination over the recorded program.
///
/// Every [`Exec`] op is pure, so two nodes applying the same op to the
/// same (already-deduplicated) operands hold the same value — the classic
/// case being one parameter read several times, or the same read pushed
/// through identical reshapes. Walking in recording order with hash-
/// consing semantics collapses each such family to its first occurrence.
///
/// Shape is part of the merge key: `ROp::Reshape` does not carry its
/// target shape (it is batch-dependent, so storing it would break the
/// dual-probe uniformity comparison), which makes two reshapes of one
/// value to *different* shapes structurally equal — merging them would
/// silently compute downstream row-wise ops over the wrong width. Two
/// nodes merge only when their recorded shapes agree at **both** probe
/// batch sizes (for every other op the shape is a function of the op and
/// its operands, so the check never blocks a legitimate merge).
///
/// Returns `(deduplicated ops, origin — each new op's first recorded
/// index, remapped outputs, number of ops eliminated)`.
pub(super) fn cse<'s>(
    ops: &[ROp],
    outputs: &[usize],
    shape0: impl Fn(usize) -> &'s [usize],
    shape1: impl Fn(usize) -> &'s [usize],
) -> (Vec<ROp>, Vec<usize>, Vec<usize>, usize) {
    let mut repr: Vec<usize> = Vec::with_capacity(ops.len());
    let mut new_ops: Vec<ROp> = Vec::with_capacity(ops.len());
    let mut origin: Vec<usize> = Vec::with_capacity(ops.len());
    let mut eliminated = 0usize;
    for (i, op) in ops.iter().enumerate() {
        let canon = remap_rop(op, |j| repr[j]);
        // Linear scan: recorded programs are a few hundred ops, and this
        // runs once per (model, leaf count) at compile time.
        let found = (0..new_ops.len()).find(|&j| {
            rop_cse_eq(&new_ops[j], &canon)
                && shape0(i) == shape0(origin[j])
                && shape1(i) == shape1(origin[j])
        });
        match found {
            Some(j) => {
                repr.push(j);
                eliminated += 1;
            }
            None => {
                new_ops.push(canon);
                origin.push(i);
                repr.push(new_ops.len() - 1);
            }
        }
    }
    let outs = outputs.iter().map(|&o| repr[o]).collect();
    (new_ops, origin, outs, eliminated)
}

/// Lowers a recorded program: elides reshapes, fuses element-wise chains
/// and GEMM epilogues, then assigns buffers to arena slots by liveness.
pub(super) fn lower(
    ops: &[ROp],
    shapes: &[Vec<Dim>],
    n_inputs: usize,
    output_nodes: &[usize],
    base_stats: PlanStats,
) -> Result<Plan, PlanError> {
    let n = ops.len();
    let mut users: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, op) in ops.iter().enumerate() {
        for inp in op.inputs() {
            users[inp].push(i);
        }
    }
    let mut is_output = vec![false; n];
    for &o in output_nodes {
        is_output[o] = true;
    }
    // The single consumer of node `i`, provided nothing else (including the
    // outputs list) observes `i` — the condition for fusing `i` away.
    let single_user = |i: usize| -> Option<usize> {
        if users[i].len() == 1 && !is_output[i] {
            Some(users[i][0])
        } else {
            None
        }
    };

    let mut stats = base_stats;
    let mut steps: Vec<Step> = Vec::new();
    let mut bufs: Vec<Buf> = Vec::new();
    // binding[i] = (source holding node i's value, producing step if the
    // value may still accept chained element-wise ops).
    let mut binding: Vec<Option<(Src, Option<usize>)>> = vec![None; n];
    let mut consumed = vec![false; n];

    // Resolves operands that may not have been visited yet (param / input
    // leaves recorded between a producer and its consumer, e.g. a bias
    // param pushed after the matmul it follows).
    fn resolve_ahead(
        ops: &[ROp],
        binding: &[Option<(Src, Option<usize>)>],
        j: usize,
    ) -> Option<Src> {
        if let Some((src, _)) = binding[j] {
            return Some(src);
        }
        match &ops[j] {
            ROp::Param(id) => Some(Src::Param(*id)),
            ROp::Input(k) => Some(Src::Input(*k)),
            ROp::Reshape { x } => resolve_ahead(ops, binding, *x),
            _ => None,
        }
    }

    let new_buf = |bufs: &mut Vec<Buf>, node: usize| -> Result<usize, PlanError> {
        bufs.push(Buf {
            size: size_of(&shapes[node])?,
            slot: usize::MAX,
        });
        Ok(bufs.len() - 1)
    };

    for i in 0..n {
        if consumed[i] {
            continue;
        }
        let src = |binding: &[Option<(Src, Option<usize>)>], j: usize| -> Src {
            binding[j].expect("operands are bound before use").0
        };
        let bound = match &ops[i] {
            ROp::Input(k) => (Src::Input(*k), None),
            ROp::Param(id) => (Src::Param(*id), None),
            ROp::Reshape { x } => {
                stats.elided_reshapes += 1;
                (src(&binding, *x), None)
            }
            ROp::Map { x, op } => {
                let (xsrc, xstep) = binding[*x].expect("bound");
                if let (Some(si), Some(_)) = (xstep, single_user(*x)) {
                    if steps[si].kind.accepts_chain() {
                        steps[si].kind.push_chain(*op);
                        stats.fused_elementwise += 1;
                        binding[i] = Some((xsrc, xstep));
                        continue;
                    }
                }
                let ob = new_buf(&mut bufs, i)?;
                steps.push(Step {
                    kind: StepKind::Map {
                        x: xsrc,
                        ops: vec![*op],
                        len: prod_dims(&shapes[i])?,
                    },
                    out: ob,
                });
                (Src::Buf(ob), Some(steps.len() - 1))
            }
            ROp::Zip { a, b, kind } => {
                let ob = new_buf(&mut bufs, i)?;
                steps.push(Step {
                    kind: StepKind::Zip {
                        a: src(&binding, *a),
                        b: src(&binding, *b),
                        kind: *kind,
                        ops: Vec::new(),
                        len: prod_dims(&shapes[i])?,
                    },
                    out: ob,
                });
                (Src::Buf(ob), Some(steps.len() - 1))
            }
            ROp::RowOp { x, row, kind } => {
                let d = *shapes[i].last().expect("row op output has rank >= 1");
                let ob = new_buf(&mut bufs, i)?;
                steps.push(Step {
                    kind: StepKind::RowOp {
                        x: src(&binding, *x),
                        row: src(&binding, *row),
                        kind: *kind,
                        ops: Vec::new(),
                        rows: prod_dims(&shapes[i][..shapes[i].len() - 1])?,
                        d,
                    },
                    out: ob,
                });
                (Src::Buf(ob), Some(steps.len() - 1))
            }
            ROp::Matmul { a, b } => {
                // Epilogue fusion: walk the single-use chain
                //   matmul [→ reshape]* [→ add_row(bias)] [→ relu|tanh|sigmoid]
                // and fold it into the GEMM's write-back.
                let bn = shapes[*b][1];
                let mut bias: Option<Src> = None;
                let mut act = Activation::Identity;
                let mut chain: Vec<usize> = Vec::new(); // nodes folded beyond i
                let mut cur = i;
                while let Some(next) = single_user(cur) {
                    match &ops[next] {
                        ROp::Reshape { x } if *x == cur => {
                            stats.elided_reshapes += 1;
                        }
                        ROp::RowOp {
                            x,
                            row,
                            kind: RowKind::Add,
                        } if *x == cur
                            && bias.is_none()
                            && act == Activation::Identity
                            // The epilogue adds bias[j] per output column
                            // j < n; a reshape that changed the trailing
                            // dim broadcasts along a different width, so
                            // only fuse when the row still spans n.
                            && shapes[cur].last() == Some(&bn) =>
                        {
                            match resolve_ahead(ops, &binding, *row) {
                                Some(rsrc) => {
                                    bias = Some(rsrc);
                                    stats.fused_bias += 1;
                                }
                                None => break,
                            }
                        }
                        ROp::Map { x, op } if *x == cur && act == Activation::Identity => {
                            match op.as_activation() {
                                Some(a) => {
                                    act = a;
                                    stats.fused_activations += 1;
                                }
                                None => break,
                            }
                        }
                        _ => break,
                    }
                    chain.push(next);
                    cur = next;
                }
                let (m, k) = (shapes[*a][0], shapes[*a][1]);
                let ob = new_buf(&mut bufs, cur)?;
                steps.push(Step {
                    kind: StepKind::Gemm {
                        a: src(&binding, *a),
                        b: src(&binding, *b),
                        m,
                        k,
                        n: bn,
                        bias,
                        act,
                    },
                    out: ob,
                });
                for &c in &chain {
                    consumed[c] = true;
                    binding[c] = Some((Src::Buf(ob), None));
                }
                (Src::Buf(ob), None)
            }
            ROp::Bmm { a, b, ta, tb } => {
                // Epilogue fusion: fold a single-use `scale(c)` consumer
                // (attention's `scores / sqrt(d)`) into the batched GEMM
                // write-back, same exactly-once contract as the Gemm arm.
                let sa = &shapes[*a];
                let (m, k) = if *ta { (sa[2], sa[1]) } else { (sa[1], sa[2]) };
                let nn = if *tb { shapes[*b][1] } else { shapes[*b][2] };
                let mut scale: Option<f32> = None;
                let mut chain: Vec<usize> = Vec::new();
                let mut cur = i;
                while let Some(next) = single_user(cur) {
                    match &ops[next] {
                        ROp::Map {
                            x,
                            op: MapOp::Scale(c),
                        } if *x == cur && scale.is_none() => {
                            scale = Some(*c);
                            stats.fused_bmm_scales += 1;
                        }
                        _ => break,
                    }
                    chain.push(next);
                    cur = next;
                }
                let ob = new_buf(&mut bufs, cur)?;
                steps.push(Step {
                    kind: StepKind::Bmm {
                        a: src(&binding, *a),
                        b: src(&binding, *b),
                        ta: *ta,
                        tb: *tb,
                        batch: sa[0],
                        m,
                        k,
                        n: nn,
                        scale,
                    },
                    out: ob,
                });
                for &c in &chain {
                    consumed[c] = true;
                    binding[c] = Some((Src::Buf(ob), None));
                }
                (Src::Buf(ob), None)
            }
            ROp::SplitHeads { x, h } => {
                let sx = &shapes[*x];
                let ob = new_buf(&mut bufs, i)?;
                steps.push(Step {
                    kind: StepKind::SplitHeads {
                        x: src(&binding, *x),
                        h: *h,
                        b: sx[0],
                        l: sx[1],
                        d: sx[2],
                    },
                    out: ob,
                });
                (Src::Buf(ob), None)
            }
            ROp::MergeHeads { x, h } => {
                let sx = &shapes[*x];
                let ob = new_buf(&mut bufs, i)?;
                steps.push(Step {
                    kind: StepKind::MergeHeads {
                        x: src(&binding, *x),
                        h: *h,
                        bh: sx[0],
                        l: sx[1],
                        dh: sx[2],
                    },
                    out: ob,
                });
                (Src::Buf(ob), None)
            }
            ROp::Softmax { x } => {
                let d = *shapes[i].last().expect("softmax input has rank >= 1");
                let ob = new_buf(&mut bufs, i)?;
                steps.push(Step {
                    kind: StepKind::Softmax {
                        x: src(&binding, *x),
                        rows: prod_dims(&shapes[i][..shapes[i].len() - 1])?,
                        d,
                    },
                    out: ob,
                });
                (Src::Buf(ob), None)
            }
            ROp::Concat { parts } => {
                let ob = new_buf(&mut bufs, i)?;
                let widths: Vec<(Src, Dim)> = parts
                    .iter()
                    .map(|&p| {
                        (
                            src(&binding, p),
                            *shapes[p].last().expect("concat part has rank >= 1"),
                        )
                    })
                    .collect();
                steps.push(Step {
                    kind: StepKind::Concat {
                        parts: widths,
                        rows: prod_dims(&shapes[i][..shapes[i].len() - 1])?,
                        ops: Vec::new(),
                    },
                    out: ob,
                });
                (Src::Buf(ob), Some(steps.len() - 1))
            }
            ROp::SliceLast { x, start, end } => {
                let sx = &shapes[*x];
                let ob = new_buf(&mut bufs, i)?;
                steps.push(Step {
                    kind: StepKind::SliceLast {
                        x: src(&binding, *x),
                        rows: prod_dims(&sx[..sx.len() - 1])?,
                        d: *sx.last().expect("slice input has rank >= 1"),
                        start: *start,
                        end: *end,
                    },
                    out: ob,
                });
                (Src::Buf(ob), None)
            }
            ROp::LayerNorm {
                x,
                gamma,
                beta,
                eps,
            } => {
                let d = *shapes[i].last().expect("layer norm input has rank >= 1");
                let ob = new_buf(&mut bufs, i)?;
                steps.push(Step {
                    kind: StepKind::LayerNorm {
                        x: src(&binding, *x),
                        gamma: src(&binding, *gamma),
                        beta: src(&binding, *beta),
                        eps: *eps,
                        rows: prod_dims(&shapes[i][..shapes[i].len() - 1])?,
                        d,
                    },
                    out: ob,
                });
                (Src::Buf(ob), None)
            }
        };
        binding[i] = Some(bound);
    }

    // Outputs must be readable after the run: materialize any that still
    // alias a plan input or a parameter into their own buffer.
    let mut outputs: Vec<(Src, Vec<Dim>)> = Vec::new();
    for &o in output_nodes {
        let (src, _) = binding[o].expect("all nodes bound");
        let src = match src {
            Src::Buf(_) => src,
            Src::Param(_) | Src::Input(_) => {
                let ob = new_buf(&mut bufs, o)?;
                steps.push(Step {
                    kind: StepKind::Map {
                        x: src,
                        ops: Vec::new(),
                        len: prod_dims(&shapes[o])?,
                    },
                    out: ob,
                });
                Src::Buf(ob)
            }
        };
        outputs.push((src, shapes[o].clone()));
    }

    let mut input_shapes = vec![Vec::new(); n_inputs];
    for (i, op) in ops.iter().enumerate() {
        if let ROp::Input(k) = op {
            input_shapes[*k] = shapes[i].clone();
        }
    }
    plan_memory(steps, bufs, input_shapes, outputs, stats)
}

/// Liveness analysis; slot assignment is [`assign_slots`]'s.
fn plan_memory(
    mut steps: Vec<Step>,
    mut bufs: Vec<Buf>,
    input_shapes: Vec<Vec<Dim>>,
    outputs: Vec<(Src, Vec<Dim>)>,
    mut stats: PlanStats,
) -> Result<Plan, PlanError> {
    let mut last_use = vec![0usize; bufs.len()];
    let mut def_step = vec![usize::MAX; bufs.len()];
    for (si, step) in steps.iter().enumerate() {
        for s in step.kind.sources() {
            if let Src::Buf(b) = s {
                last_use[b] = last_use[b].max(si);
            }
        }
        def_step[step.out] = si;
    }
    for (src, _) in &outputs {
        if let Src::Buf(b) = src {
            last_use[*b] = usize::MAX;
        }
    }

    let sizes: Vec<Size> = bufs.iter().map(|b| b.size).collect();
    let defs: Vec<Def> = steps
        .iter()
        .enumerate()
        .map(|(si, step)| Def {
            step: si,
            out: step.out,
            inplace: step
                .kind
                .inplace_candidates()
                .into_iter()
                .filter_map(|c| match c {
                    Src::Buf(b) => Some(b),
                    _ => None,
                })
                .collect(),
        })
        .collect();
    let Slots {
        slot_of,
        slot_sizes,
        inplace_steps,
    } = assign_slots(&sizes, &def_step, &last_use, &defs);
    for (buf, slot) in bufs.iter_mut().zip(slot_of) {
        buf.slot = slot;
    }
    stats.inplace_steps += inplace_steps;

    stats.steps = steps.len();
    stats.buffers = bufs.len();
    stats.arena_slots = slot_sizes.len();
    // Shrink fused chains' allocations.
    for s in &mut steps {
        if let StepKind::Map { ops, .. }
        | StepKind::Zip { ops, .. }
        | StepKind::RowOp { ops, .. }
        | StepKind::Concat { ops, .. } = &mut s.kind
        {
            ops.shrink_to_fit();
        }
    }
    Ok(Plan {
        steps,
        bufs,
        slot_sizes,
        inputs: input_shapes,
        outputs,
        stats,
    })
}
