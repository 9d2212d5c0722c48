//! A plan's byte form, and the validator every plan read from bytes
//! passes.
//!
//! A plan is pure data — lowered steps, symbolic (`c`/`c·B`) shapes, and a
//! slot table — so a runner that never sees the [`Recorder`] can replay a
//! pre-fused plan from a file. [`Plan::encode_into`] writes the plan's own
//! tables; [`Plan::decode`] reads them back and, because the bytes may
//! come from an untrusted file, re-validates **every** invariant the
//! planner normally guarantees before they become a plan:
//!
//! * all indices (buffers, slots, parameters, inputs, outputs) in range,
//! * every count and shape constant below a hard decode cap (no
//!   attacker-sized allocations), and no dim zero,
//! * each step's declared geometry consistent: the output buffer's symbolic
//!   size equals the step's computed output size, and every operand buffer
//!   /parameter/input exactly matches the size the kernel will read,
//! * each buffer's slot large enough for the buffer at every batch size,
//! * every float constant a step carries (`Bmm.scale`, layer-norm `eps`,
//!   `Scale` / `AddScalar` in a fused chain) finite,
//! * buffers written exactly once, read only after they are written,
//! * an operand may share the output's arena slot only where the
//!   interpreter has a sanctioned in-place path (the same rule
//!   `RunCtx`'s `assert_disjoint` enforces at replay).
//!
//! A plan that passes replays in bounds for any batch size — a hostile
//! file can yield garbage *values* at worst, never an out-of-bounds access
//! or a panic. So a [`Plan`] exists only compiled or validated, which the
//! in-place slices of both executors rely on.
//!
//! The encoding is fixed-width and little-endian, and every value has
//! exactly one form, so a plan round-trips both ways by construction.
//! What bytes alone can be wrong about — tags, counts against the caps
//! below and against the bytes left, short reads — is a typed error
//! carrying the byte offset; what the tables say is validated once they
//! are read.

use super::*;

/// Largest constant allowed in a dim / size field (elements).
pub const MAX_DIM_CONST: usize = 1 << 24;
/// Largest table length (steps, buffers, slots) accepted.
pub const MAX_TABLE: usize = 1 << 16;
/// Largest fused element-wise chain accepted.
pub const MAX_CHAIN: usize = 1 << 10;
/// Largest input/output arity accepted.
pub const MAX_PORTS: usize = 64;
/// Largest tensor rank accepted.
pub const MAX_RANK: usize = 8;
/// Cap on the total symbolic arena size (sum over slots of
/// `coef + fixed`): bounds what a loaded plan can make [`PlanExec`]
/// allocate per batch unit.
pub const MAX_ARENA: usize = 1 << 26;

/// Typed failure reading or validating a plan's bytes ([`Plan::decode`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanDecodeError {
    /// An index points outside its table.
    Index {
        /// Which table the index points into.
        what: &'static str,
        /// The offending index.
        index: usize,
        /// The table's length.
        len: usize,
    },
    /// A declared count or constant exceeds the decode cap.
    Limit {
        /// What was being counted.
        what: &'static str,
        /// The declared value.
        value: usize,
        /// The cap.
        max: usize,
    },
    /// A step's declared geometry is inconsistent or unsafe.
    Step {
        /// Index of the offending step.
        step: usize,
        /// What is wrong with it.
        reason: String,
    },
    /// An input record is invalid.
    Input {
        /// Index of the offending input.
        input: usize,
        /// What is wrong with it.
        reason: String,
    },
    /// An output record is invalid.
    Output {
        /// Index of the offending output.
        output: usize,
        /// What is wrong with it.
        reason: String,
    },
    /// The byte form ends inside a value.
    Truncated {
        /// Byte offset of the value, from where decoding started.
        offset: usize,
        /// Bytes the value needs.
        needed: usize,
        /// Bytes left.
        have: usize,
    },
    /// A one-byte tag names no variant of its enum.
    Tag {
        /// The enum being read.
        what: &'static str,
        /// Byte offset of the tag, from where decoding started.
        offset: usize,
        /// The byte found.
        tag: u8,
    },
}

impl fmt::Display for PlanDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanDecodeError::Index { what, index, len } => {
                write!(f, "{what} index {index} out of range (table has {len})")
            }
            PlanDecodeError::Limit { what, value, max } => {
                write!(f, "{what} {value} exceeds the decode cap {max}")
            }
            PlanDecodeError::Step { step, reason } => {
                write!(f, "step {step}: {reason}")
            }
            PlanDecodeError::Input { input, reason } => {
                write!(f, "input {input}: {reason}")
            }
            PlanDecodeError::Output { output, reason } => {
                write!(f, "output {output}: {reason}")
            }
            PlanDecodeError::Truncated {
                offset,
                needed,
                have,
            } => write!(
                f,
                "plan bytes end at offset {offset}: need {needed} more, have {have}"
            ),
            PlanDecodeError::Tag { what, offset, tag } => {
                write!(f, "unknown {what} tag {tag} at offset {offset}")
            }
        }
    }
}

impl std::error::Error for PlanDecodeError {}

// ---- Plan <-> bytes ----------------------------------------------------
//
// One width per kind of value and nothing variable-length, all
// little-endian: an enum is a one-byte tag and then its fields; an index
// into a table (a `Src`, `Step::out`, `Buf::slot`) a `u16`, tables being
// capped at 2^16 entries; a `Dim` one `u32`, bit 31 set for `PerBatch`
// over a constant capped at 2^24; every other integer a `u32`; an `f32`
// its bits; a `bool` or `Option` a 0/1 byte; a pair its two halves; a list
// a `u32` count and then its elements. A value has exactly one encoding,
// so decoding and encoding are inverses both ways. An integer its field
// cannot hold is written as the field's maximum, which validation refuses
// like the value it replaces (a full 2^16-entry table aside).

/// The bytes still to be read, and how many there were at the start
/// (error offsets count from there).
struct Reader<'a> {
    rest: &'a [u8],
    start: usize,
}

impl Reader<'_> {
    fn offset(&self) -> usize {
        self.start - self.rest.len()
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], PlanDecodeError> {
        match self.rest.split_first_chunk::<N>() {
            Some((head, tail)) => {
                self.rest = tail;
                Ok(*head)
            }
            None => Err(PlanDecodeError::Truncated {
                offset: self.offset(),
                needed: N,
                have: self.rest.len(),
            }),
        }
    }
}

/// A value's byte form: `put` appends it, `get` reads it back. Both
/// are written from one field list per type (`wire!`), so they cannot
/// disagree on order or width.
trait Wire: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get(r: &mut Reader<'_>) -> Result<Self, PlanDecodeError>;
}

/// `Wire` for a struct, or for an enum of unit / tuple / struct
/// variants under the tags listed, field by field in the order listed;
/// a `usize` marked `: idx` travels as a table index.
macro_rules! wire {
    (struct $ty:ident { $($f:ident $(: $as:ident)?),+ }) => {
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $(wire!(@put self.$f, out $(, $as)?);)+
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, PlanDecodeError> {
                Ok($ty { $($f: wire!(@get r $(, $as)?)),+ })
            }
        }
    };
    (enum $ty:ident as $what:literal {
        $($tag:literal => $v:ident $(($($t:ident $(: $as:ident)?),+))? $({$($s:ident),+})?),+
    }) => {
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$v $(($($t),+))? $({$($s),+})? => {
                        out.push($tag);
                        $($(wire!(@put *$t, out $(, $as)?);)+)?
                        $($($s.put(out);)+)?
                    })+
                }
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, PlanDecodeError> {
                let offset = r.offset();
                Ok(match u8::from_le_bytes(r.take()?) {
                    $($tag => $ty::$v
                        $(($(wire!(@get r $(, $as)?)),+))? $({$($s: Wire::get(r)?),+})?,)+
                    tag => return Err(PlanDecodeError::Tag { what: $what, offset, tag }),
                })
            }
        }
    };
    (@put $v:expr, $out:ident) => { $v.put($out) };
    (@put $v:expr, $out:ident, idx) => { Idx($v).put($out) };
    (@get $r:ident) => { Wire::get($r)? };
    (@get $r:ident, idx) => { Idx::get($r)?.0 };
}

wire!(enum Src as "source" { 0 => Buf(i: idx), 1 => Param(id), 2 => Input(i: idx) });
wire!(enum Activation as "activation" { 0 => Identity, 1 => Relu, 2 => Tanh, 3 => Sigmoid });
wire!(enum ZipKind as "zip kind" { 0 => Add, 1 => Sub, 2 => Mul });
wire!(enum RowKind as "row kind" { 0 => Add, 1 => Sub });
wire!(enum MapOp as "map op" {
    0 => Scale(c), 1 => AddScalar(c), 2 => Relu, 3 => Tanh, 4 => Sigmoid,
    5 => Exp, 6 => Abs, 7 => Sqrt, 8 => Square
});
wire!(enum StepKind as "step kind" {
    0 => Gemm { a, b, m, k, n, bias, act },
    1 => Bmm { a, b, ta, tb, batch, m, k, n, scale },
    2 => SplitHeads { x, h, b, l, d },
    3 => MergeHeads { x, h, bh, l, dh },
    4 => Softmax { x, rows, d },
    5 => LayerNorm { x, gamma, beta, eps, rows, d },
    6 => Map { x, ops, len },
    7 => Zip { a, b, kind, ops, len },
    8 => RowOp { x, row, kind, ops, rows, d },
    9 => Concat { parts, rows, ops },
    10 => SliceLast { x, rows, d, start, end }
});
wire!(struct Size { coef, fixed });
wire!(struct Step { kind, out: idx });
wire!(struct Buf { size, slot: idx });
wire!(struct PlanStats {
    recorded_ops, cse_deduped, steps, elided_reshapes, fused_bias, fused_activations,
    fused_bmm_scales, fused_elementwise, inplace_steps, buffers, arena_slots
});
wire!(struct Plan { steps, bufs, slot_sizes, inputs, outputs, stats });

impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) {
        let v = u32::try_from(*self).unwrap_or(u32::MAX);
        out.extend_from_slice(&v.to_le_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, PlanDecodeError> {
        Ok(u32::from_le_bytes(r.take()?) as usize)
    }
}

/// A table index on the wire.
struct Idx(usize);

impl Wire for Idx {
    fn put(&self, out: &mut Vec<u8>) {
        let v = u16::try_from(self.0).unwrap_or(u16::MAX);
        out.extend_from_slice(&v.to_le_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, PlanDecodeError> {
        Ok(Idx(u16::from_le_bytes(r.take()?) as usize))
    }
}

/// A parameter travels as its index into the store.
impl Wire for ParamId {
    fn put(&self, out: &mut Vec<u8>) {
        Idx(self.index()).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, PlanDecodeError> {
        Ok(ParamId(Idx::get(r)?.0))
    }
}

/// Bit 31 of a [`Dim`]'s word: set for `PerBatch`.
const PER_BATCH: u32 = 1 << 31;

impl Wire for Dim {
    fn put(&self, out: &mut Vec<u8>) {
        let (flag, v) = match *self {
            Dim::Fixed(n) => (0, n),
            Dim::PerBatch(c) => (PER_BATCH, c),
        };
        let v = u32::try_from(v).map_or(PER_BATCH - 1, |v| v.min(PER_BATCH - 1));
        out.extend_from_slice(&(flag | v).to_le_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, PlanDecodeError> {
        let word = u32::from_le_bytes(r.take()?);
        let v = (word & !PER_BATCH) as usize;
        Ok(if word & PER_BATCH == 0 {
            Dim::Fixed(v)
        } else {
            Dim::PerBatch(v)
        })
    }
}

impl Wire for f32 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, PlanDecodeError> {
        Ok(f32::from_bits(u32::from_le_bytes(r.take()?)))
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, PlanDecodeError> {
        let offset = r.offset();
        match u8::from_le_bytes(r.take()?) {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(PlanDecodeError::Tag {
                what: "flag",
                offset,
                tag,
            }),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(self.is_some()));
        if let Some(v) = self {
            v.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, PlanDecodeError> {
        Ok(if bool::get(r)? {
            Some(T::get(r)?)
        } else {
            None
        })
    }
}

/// A concat part `(source, width)` or an output `(source, shape)`.
impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, PlanDecodeError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// An element type of a list field: what that list is called and the cap
/// it is held to, before its count sizes an allocation.
trait Listed: Wire {
    const WHAT: &'static str;
    const MAX: usize;
}

macro_rules! listed {
    ($($ty:ty: $what:literal <= $max:expr),+) => {
        $(impl Listed for $ty {
            const WHAT: &'static str = $what;
            const MAX: usize = $max;
        })+
    };
}

listed!(
    Step: "steps" <= MAX_TABLE,
    Buf: "buffers" <= MAX_TABLE,
    Size: "slots" <= MAX_TABLE,
    Vec<Dim>: "inputs" <= MAX_PORTS,
    (Src, Vec<Dim>): "outputs" <= MAX_PORTS,
    Dim: "rank" <= MAX_RANK,
    MapOp: "element-wise chain length" <= MAX_CHAIN,
    (Src, Dim): "concat parts" <= MAX_PORTS
);

impl<T: Listed> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        self.iter().for_each(|v| v.put(out));
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, PlanDecodeError> {
        let n = usize::get(r)?;
        if n > T::MAX {
            return Err(PlanDecodeError::Limit {
                what: T::WHAT,
                value: n,
                max: T::MAX,
            });
        }
        // An element is at least one byte, so the bytes left bound
        // the count as well.
        if n > r.rest.len() {
            return Err(PlanDecodeError::Truncated {
                offset: r.offset(),
                needed: n,
                have: r.rest.len(),
            });
        }
        let mut list = Vec::with_capacity(n);
        for _ in 0..n {
            list.push(T::get(r)?);
        }
        Ok(list)
    }
}

// ---- Validation --------------------------------------------------------

/// A step's first float constant that is NaN or infinite: replaying
/// it would answer the same garbage for every sample.
fn non_finite_const(kind: &StepKind) -> Option<f32> {
    let ops = match kind {
        StepKind::Bmm { scale: Some(c), .. } | StepKind::LayerNorm { eps: c, .. } => {
            return Some(*c).filter(|c| !c.is_finite());
        }
        StepKind::Map { ops, .. }
        | StepKind::Zip { ops, .. }
        | StepKind::RowOp { ops, .. }
        | StepKind::Concat { ops, .. } => ops,
        _ => return None,
    };
    ops.iter().find_map(|op| match op {
        MapOp::Scale(c) | MapOp::AddScalar(c) if !c.is_finite() => Some(*c),
        _ => None,
    })
}

/// [`check_dim`] over every dim a step carries, each named as its
/// refusal names it.
fn check_dims(kind: &StepKind) -> Result<(), PlanDecodeError> {
    let check =
        |dims: &[(Dim, &'static str)]| dims.iter().try_for_each(|&(d, what)| check_dim(d, what));
    match *kind {
        StepKind::Gemm { m, k, n, .. } => check(&[(m, "gemm m"), (k, "gemm k"), (n, "gemm n")]),
        StepKind::Bmm { batch, m, k, n, .. } => check(&[
            (batch, "bmm batch"),
            (m, "bmm m"),
            (k, "bmm k"),
            (n, "bmm n"),
        ]),
        StepKind::SplitHeads { b, l, d, .. } => {
            check(&[(b, "split b"), (l, "split l"), (d, "split d")])
        }
        StepKind::MergeHeads { bh, l, dh, .. } => {
            check(&[(bh, "merge bh"), (l, "merge l"), (dh, "merge dh")])
        }
        StepKind::Softmax { rows, d, .. } => check(&[(rows, "softmax rows"), (d, "softmax d")]),
        StepKind::LayerNorm { rows, d, .. } => {
            check(&[(rows, "layer-norm rows"), (d, "layer-norm d")])
        }
        StepKind::Map { len, .. } => check_dim(len, "map len"),
        StepKind::Zip { len, .. } => check_dim(len, "zip len"),
        StepKind::RowOp { rows, d, .. } => check(&[(rows, "row-op rows"), (d, "row-op d")]),
        StepKind::Concat {
            ref parts, rows, ..
        } => {
            for &(_, w) in parts {
                check_dim(w, "concat width")?;
            }
            check_dim(rows, "concat rows")
        }
        StepKind::SliceLast { rows, d, .. } => check(&[(rows, "slice rows"), (d, "slice d")]),
    }
}

/// A dim's constant is nonzero and within [`MAX_DIM_CONST`].
fn check_dim(d: Dim, what: &'static str) -> Result<(), PlanDecodeError> {
    let (Dim::Fixed(v) | Dim::PerBatch(v)) = d;
    if v == 0 || v > MAX_DIM_CONST {
        return Err(PlanDecodeError::Limit {
            what,
            value: v,
            max: MAX_DIM_CONST,
        });
    }
    Ok(())
}

/// A size's two constants are within [`MAX_DIM_CONST`].
fn check_size(s: Size, what: &'static str) -> Result<(), PlanDecodeError> {
    if s.coef > MAX_DIM_CONST || s.fixed > MAX_DIM_CONST {
        return Err(PlanDecodeError::Limit {
            what,
            value: s.coef.max(s.fixed),
            max: MAX_DIM_CONST,
        });
    }
    Ok(())
}

/// Symbolic size of one dim.
fn dsize(d: Dim) -> Size {
    match d {
        Dim::Fixed(n) => Size { coef: 0, fixed: n },
        Dim::PerBatch(c) => Size { coef: c, fixed: 0 },
    }
}

/// Symbolic product; errors when the result would be quadratic in `B`
/// or overflows.
fn smul(a: Size, b: Size) -> Result<Size, String> {
    if a.coef > 0 && b.coef > 0 {
        return Err("size is quadratic in the batch size".into());
    }
    let coef = a
        .coef
        .checked_mul(b.fixed)
        .and_then(|x| b.coef.checked_mul(a.fixed).map(|y| x + y))
        .ok_or("size overflows")?;
    let fixed = a.fixed.checked_mul(b.fixed).ok_or("size overflows")?;
    Ok(Size { coef, fixed })
}

fn sprod(dims: &[Dim]) -> Result<Size, String> {
    dims.iter()
        .try_fold(Size { coef: 0, fixed: 1 }, |acc, &d| smul(acc, dsize(d)))
}

/// Whether a fixed dim (or the per-batch coefficient) divides by `h`.
fn divisible(d: Dim, h: usize) -> bool {
    match d {
        Dim::Fixed(n) => n % h == 0,
        Dim::PerBatch(c) => c % h == 0,
    }
}

/// One operand requirement: where it is read from, the exact symbolic
/// size the kernel reads, and whether the interpreter has a sanctioned
/// in-place path when it shares the output's slot.
struct Operand {
    src: Src,
    need: Size,
    may_alias_out: bool,
}

/// Computes a step's exact output size and pushes its operand
/// requirements onto `ops` (which the caller clears and reuses across
/// steps), plus kind-specific structural checks (divisibility, slice
/// bounds).
fn step_io(kind: &StepKind, ops: &mut Vec<Operand>) -> Result<Size, String> {
    let mut op = |src: Src, need: Size, may_alias_out: bool| {
        ops.push(Operand {
            src,
            need,
            may_alias_out,
        })
    };
    Ok(match kind {
        StepKind::Gemm {
            a,
            b,
            m,
            k,
            n,
            bias,
            ..
        } => {
            op(*a, sprod(&[*m, *k])?, false);
            op(*b, sprod(&[*k, *n])?, false);
            if let Some(bs) = bias {
                op(*bs, dsize(*n), false);
            }
            sprod(&[*m, *n])?
        }
        StepKind::Bmm {
            a,
            b,
            batch,
            m,
            k,
            n,
            ..
        } => {
            let out = sprod(&[*batch, *m, *n])?;
            op(*a, sprod(&[*batch, *m, *k])?, false);
            op(*b, sprod(&[*batch, *k, *n])?, false);
            out
        }
        StepKind::SplitHeads { x, h, b, l, d } => {
            if *h == 0 || !divisible(*d, *h) {
                return Err(format!("split-heads width {d:?} not divisible by {h}"));
            }
            let numel = sprod(&[*b, *l, *d])?;
            op(*x, numel, false);
            numel
        }
        StepKind::MergeHeads { x, h, bh, l, dh } => {
            if *h == 0 || !divisible(*bh, *h) {
                return Err(format!("merge-heads batch {bh:?} not divisible by {h}"));
            }
            let numel = sprod(&[*bh, *l, *dh])?;
            op(*x, numel, false);
            numel
        }
        StepKind::Softmax { x, rows, d } => {
            let numel = sprod(&[*rows, *d])?;
            op(*x, numel, true);
            numel
        }
        StepKind::LayerNorm {
            x,
            gamma,
            beta,
            rows,
            d,
            ..
        } => {
            let numel = sprod(&[*rows, *d])?;
            op(*x, numel, true);
            op(*gamma, dsize(*d), false);
            op(*beta, dsize(*d), false);
            numel
        }
        StepKind::Map { x, len, .. } => {
            let numel = dsize(*len);
            op(*x, numel, true);
            numel
        }
        StepKind::Zip { a, b, len, .. } => {
            let numel = dsize(*len);
            op(*a, numel, true);
            op(*b, numel, true);
            numel
        }
        StepKind::RowOp {
            x, row, rows, d, ..
        } => {
            let numel = sprod(&[*rows, *d])?;
            op(*x, numel, true);
            op(*row, dsize(*d), false);
            numel
        }
        StepKind::Concat { parts, rows, .. } => {
            let mut total = Size { coef: 0, fixed: 0 };
            for (s, w) in parts {
                let ws = dsize(*w);
                total.coef = total.coef.checked_add(ws.coef).ok_or("size overflows")?;
                total.fixed = total.fixed.checked_add(ws.fixed).ok_or("size overflows")?;
                op(*s, smul(dsize(*rows), ws)?, false);
            }
            smul(dsize(*rows), total)?
        }
        StepKind::SliceLast {
            x,
            rows,
            d,
            start,
            end,
        } => {
            let d_min = match d {
                Dim::Fixed(n) => *n,
                Dim::PerBatch(c) => *c,
            };
            if *start > *end || *end > d_min {
                return Err(format!(
                    "slice [{start}, {end}) out of the trailing dim {d:?}"
                ));
            }
            let out = smul(
                dsize(*rows),
                Size {
                    coef: 0,
                    fixed: end - start,
                },
            )?;
            op(*x, sprod(&[*rows, *d])?, false);
            out
        }
    })
}

/// The byte length of the plan at the front of `bytes`, read as
/// [`Plan::decode`] reads it — tags, caps, lengths — but validated no
/// further: for framing code that must tell a plan that ends early or late
/// from a fault of its own.
pub fn plan_len(bytes: &[u8]) -> Result<usize, PlanDecodeError> {
    let mut r = Reader {
        rest: bytes,
        start: bytes.len(),
    };
    Plan::get(&mut r)?;
    Ok(r.offset())
}

impl Plan {
    /// Appends the plan's byte form (fixed-width, little-endian,
    /// canonical: equal plans append equal bytes).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.put(out);
    }

    /// Reads one plan off the front of `bytes` and leaves `bytes` at what
    /// follows it (untouched on error). Every count is held to its decode
    /// cap and to the bytes left before it sizes an allocation, and the
    /// tables read are then validated (see the [`desc`] module docs).
    /// `params` must be the store the plan will replay
    /// against: its length bounds parameter references, and each
    /// referenced parameter's element count is checked against what the
    /// step kernels will read.
    pub fn decode(bytes: &mut &[u8], params: &ParamStore) -> Result<Plan, PlanDecodeError> {
        let mut r = Reader {
            rest: bytes,
            start: bytes.len(),
        };
        let plan = Plan::get(&mut r)?;
        plan.validate(params)?;
        *bytes = r.rest;
        Ok(plan)
    }

    /// Every check of the module docs over tables just read. Table
    /// lengths, ranks, chain lengths and concat arities were held to their
    /// caps as the lists were read.
    fn validate(&self, params: &ParamStore) -> Result<(), PlanDecodeError> {
        // Slot table: bounded sizes, bounded total arena.
        let mut arena_total = 0usize;
        for &s in &self.slot_sizes {
            check_size(s, "slot size")?;
            arena_total = arena_total.saturating_add(s.coef).saturating_add(s.fixed);
        }
        if arena_total > MAX_ARENA {
            return Err(PlanDecodeError::Limit {
                what: "total arena size",
                value: arena_total,
                max: MAX_ARENA,
            });
        }

        // Buffer table: every buffer's slot exists and fits it.
        for b in &self.bufs {
            let Some(slot) = self.slot_sizes.get(b.slot) else {
                return Err(PlanDecodeError::Index {
                    what: "slot",
                    index: b.slot,
                    len: self.slot_sizes.len(),
                });
            };
            check_size(b.size, "buffer size")?;
            if !slot.fits(&b.size) {
                return Err(PlanDecodeError::Limit {
                    what: "buffer size beyond its slot",
                    value: b.size.coef.max(b.size.fixed),
                    max: slot.coef.max(slot.fixed),
                });
            }
        }

        // Input shapes.
        let input_sizes = self
            .inputs
            .iter()
            .enumerate()
            .map(|(i, dims)| {
                dims.iter().try_for_each(|&d| check_dim(d, "input dim"))?;
                sprod(dims).map_err(|reason| PlanDecodeError::Input { input: i, reason })
            })
            .collect::<Result<Vec<Size>, _>>()?;

        // Steps: geometry, operand sizes, write-once/def-before-use
        // ordering, and in-place aliasing discipline.
        let bufs = &self.bufs;
        let mut defined = vec![false; bufs.len()];
        let mut operands = Vec::new();
        for (si, step) in self.steps.iter().enumerate() {
            let step_err = |reason: String| PlanDecodeError::Step { step: si, reason };
            if let Some(c) = non_finite_const(&step.kind) {
                return Err(step_err(format!("constant {c} is not finite")));
            }
            for src in step.kind.sources() {
                self.check_src(src, params)?;
            }
            check_dims(&step.kind)?;
            if step.out >= bufs.len() {
                return Err(PlanDecodeError::Index {
                    what: "output buffer",
                    index: step.out,
                    len: bufs.len(),
                });
            }
            if defined[step.out] {
                return Err(step_err(format!("buffer {} written twice", step.out)));
            }
            operands.clear();
            let out_size = step_io(&step.kind, &mut operands).map_err(step_err)?;
            if bufs[step.out].size != out_size {
                return Err(step_err(format!(
                    "output buffer size {:?} does not match the step's output {:?}",
                    bufs[step.out].size, out_size
                )));
            }
            let out_slot = bufs[step.out].slot;
            for o in &operands {
                match o.src {
                    Src::Buf(b) => {
                        if !defined[b] {
                            return Err(step_err(format!("buffer {b} read before written")));
                        }
                        if bufs[b].size != o.need {
                            return Err(step_err(format!(
                                "operand buffer {b} has size {:?}, step reads {:?}",
                                bufs[b].size, o.need
                            )));
                        }
                        if bufs[b].slot == out_slot && !o.may_alias_out {
                            return Err(step_err(format!(
                                "operand buffer {b} shares the output's arena slot without \
                                 an in-place path"
                            )));
                        }
                    }
                    Src::Param(id) => {
                        let numel = params.value(id).numel();
                        if o.need.coef != 0 || o.need.fixed != numel {
                            return Err(step_err(format!(
                                "parameter {} has {numel} elements, step reads {:?}",
                                id.index(),
                                o.need
                            )));
                        }
                    }
                    Src::Input(i) => {
                        if input_sizes[i] != o.need {
                            return Err(step_err(format!(
                                "input {i} has size {:?}, step reads {:?}",
                                input_sizes[i], o.need
                            )));
                        }
                    }
                }
            }
            defined[step.out] = true;
        }

        // Outputs must read defined buffers with consistent shapes.
        for (oi, (src, dims)) in self.outputs.iter().enumerate() {
            let out_err = |reason: String| PlanDecodeError::Output { output: oi, reason };
            dims.iter().try_for_each(|&d| check_dim(d, "output dim"))?;
            self.check_src(*src, params)?;
            let Src::Buf(bid) = *src else {
                return Err(out_err("output must read an arena buffer".into()));
            };
            if !defined[bid] {
                return Err(out_err(format!("output buffer {bid} is never written")));
            }
            let need = sprod(dims).map_err(out_err)?;
            if bufs[bid].size != need {
                return Err(out_err(format!(
                    "output shape {:?} does not match buffer {bid}'s size {:?}",
                    need, bufs[bid].size
                )));
            }
        }
        Ok(())
    }

    /// `src`'s index is within its table.
    fn check_src(&self, src: Src, params: &ParamStore) -> Result<(), PlanDecodeError> {
        let (what, index, len) = match src {
            Src::Buf(b) => ("buffer", b, self.bufs.len()),
            Src::Param(id) => ("parameter", id.index(), params.len()),
            Src::Input(i) => ("input", i, self.inputs.len()),
        };
        if index >= len {
            return Err(PlanDecodeError::Index { what, index, len });
        }
        Ok(())
    }
}
