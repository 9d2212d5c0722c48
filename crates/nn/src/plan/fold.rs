//! Batch-specialized plans: a [`Plan`] constant-folded for one batch size.

use super::exec::{map_into, row_op_into, zip_into};
use super::*;

/// A [`Plan`] constant-folded for **one fixed batch size**.
///
/// The generic plan keeps every dim in symbolic `c`/`c·B` form and
/// re-evaluates shapes, arena offsets, aliasing, and kernel dispatch on
/// every replay. Serving traffic, however, is dominated by a handful of
/// stable batch sizes (the engine's full `max_batch` chunks and
/// single-sample requests), so [`Plan::specialize`] folds all of that
/// work out once:
///
/// * every dim, element count, and arena offset becomes a concrete
///   number — replay performs **zero symbolic evaluation**;
/// * each step's operand slices (arena offset + length, parameter,
///   input) are resolved ahead of time, including the in-place aliasing
///   decision the generic interpreter re-derives per step;
/// * the trivial per-step loops of `split_heads` / `merge_heads` unroll
///   into flat block-copy span lists (no index arithmetic per copy);
/// * GEMM entry points are selected per shape at specialize time: weight
///   GEMMs large enough for the blocked kernel replay through
///   [`tensor::gemm_prepacked`] against a **prepacked** `B` panel (the
///   packing [`tensor::gemm_ep_slices`] would redo every call happens
///   exactly once, here), and row-local normalization steps run a
///   row-interleaved kernel that breaks the per-row accumulation latency
///   chain;
/// * the arena length is final, so a replay arena that holds it is never
///   re-offset;
/// * two serving-only fusions, each a strict pattern match that keeps the
///   generic steps whenever an intermediate has a reader outside the
///   pattern: `split_heads ×3 → bmm(Q·Kᵀ, scale) → softmax → bmm(·V) →
///   merge_heads` becomes one [`tensor::attention_slices`] step reading
///   heads in place by stride, and the three projections feeding it (one
///   input, three weight matrices) become one prepacked GEMM over a
///   column-concatenated panel and bias, written to a scratch region
///   behind the planned slots and read by the attention step at row
///   stride `3·d`. A fold is never serialized, so neither fusion exists
///   in a plan's byte form ([`desc`]).
///
/// Bit-identity is preserved throughout: every kernel accumulates each
/// output element in the same order as the generic interpreter, so a
/// specialized replay is **bit-identical** to [`PlanExec`] and to the tape
/// (property-tested).
///
/// **Contract:** because prepacking bakes in parameter *values* (not just
/// shapes), a `SpecializedPlan` must only replay against the exact
/// parameter store it was specialized from — freeze the weights first
/// (this is enforced by `cdmpp-core`, which only specializes behind its
/// frozen, `Arc`-shared serving handles).
pub struct SpecializedPlan {
    batch: usize,
    steps: Vec<SStep>,
    arena_len: usize,
    /// Values the fold owns ([`SpecSrc::Const`]): concatenated bias rows.
    consts: Vec<f32>,
    inputs: Vec<(Vec<usize>, usize)>,
    outputs: Vec<(usize, usize, Vec<usize>)>,
    prepacked: usize,
    quant_prepacked: usize,
    spans: usize,
    attentions: usize,
    qkv_gemms: usize,
}

/// Cap on the block copies one `split_heads` / `merge_heads` step may
/// unroll into a span list; bigger steps (only reachable through
/// adversarial plan descriptors) keep the generic loop form, so
/// specializing a hostile plan cannot demand an attacker-sized
/// allocation.
const MAX_UNROLL_SPANS: usize = 1 << 20;

/// A resolved operand source: a concrete arena offset, or a borrowed
/// parameter / input (length known from the step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpecSrc {
    Arena(usize),
    Param(ParamId),
    Input(usize),
    /// An offset into the fold's own constants.
    Const(usize),
}

/// One specialized step: the folded op plus its output slice.
struct SStep {
    op: SOp,
    out_off: usize,
    out_len: usize,
}

/// Folded step kinds. `Option<SpecSrc>` operands use `None` for "runs in
/// place over the output slice" — the decision the generic interpreter
/// makes per replay via slot comparisons is frozen here.
enum SOp {
    /// Epilogue GEMM through the generic entry (tiny shapes keep the
    /// naive kernel; non-parameter `B` operands cannot prepack).
    Gemm {
        a: SpecSrc,
        b: SpecSrc,
        m: usize,
        k: usize,
        n: usize,
        bias: Option<SpecSrc>,
        act: Activation,
    },
    /// Weight GEMM through the prepacked fixed-shape kernel. The panel is
    /// `Arc`-shared: every specialized plan of one frozen model reading
    /// the same parameter at the same `[k, n]` reuses one packing.
    GemmPrepacked {
        a: SpecSrc,
        b: Arc<tensor::PackedB>,
        m: usize,
        bias: Option<SpecSrc>,
        act: Activation,
    },
    /// Weight GEMM against quantized (i8) prepacked panels —
    /// chosen when the frozen store carries a quantized encoding for the
    /// parameter. Each k-block is dequantized into a per-thread f32
    /// scratch and runs [`SOp::GemmPrepacked`]'s kernel, so accumulation
    /// stays f32 and is bit-identical to it over the dequantized weights
    /// (which is exactly what the store's f32 values hold).
    GemmQuantPrepacked {
        a: SpecSrc,
        b: Arc<tensor::QuantizedPackedB>,
        m: usize,
        bias: Option<SpecSrc>,
        act: Activation,
    },
    Bmm {
        a: SpecSrc,
        b: SpecSrc,
        ta: bool,
        tb: bool,
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
        scale: Option<f32>,
    },
    /// `merge_heads(softmax(Q·Kᵀ·scale)·V)` in one pass: `b` sequences of
    /// `l` positions, `h` heads of width `dh`, operands read in place at
    /// row stride `rs` ([`tensor::attention_slices`]).
    Attention {
        q: SpecSrc,
        k: SpecSrc,
        v: SpecSrc,
        rs: usize,
        b: usize,
        h: usize,
        l: usize,
        dh: usize,
        scale: Option<f32>,
    },
    /// An unrolled permutation copy (`split_heads` / `merge_heads`): move
    /// `width` elements from `src` to `dst` for every span.
    Copy {
        x: SpecSrc,
        spans: Vec<(usize, usize)>,
        width: usize,
    },
    /// `split_heads` too large to unroll (bounds specialize-time memory
    /// on adversarial plans): the generic loop with concrete dims.
    SplitLoop {
        x: SpecSrc,
        h: usize,
        b: usize,
        l: usize,
        d: usize,
    },
    /// `merge_heads` too large to unroll; see [`SOp::SplitLoop`].
    MergeLoop {
        x: SpecSrc,
        h: usize,
        bh: usize,
        l: usize,
        dh: usize,
    },
    Softmax {
        x: Option<SpecSrc>,
        d: usize,
    },
    LayerNorm {
        x: Option<SpecSrc>,
        gamma: SpecSrc,
        beta: SpecSrc,
        eps: f32,
        d: usize,
    },
    Map {
        x: Option<SpecSrc>,
        ops: Vec<MapOp>,
    },
    Zip {
        a: Option<SpecSrc>,
        b: Option<SpecSrc>,
        kind: ZipKind,
        ops: Vec<MapOp>,
    },
    RowOp {
        x: Option<SpecSrc>,
        row: SpecSrc,
        kind: RowKind,
        ops: Vec<MapOp>,
        d: usize,
    },
    Concat {
        parts: Vec<(SpecSrc, usize)>,
        rows: usize,
        total: usize,
        ops: Vec<MapOp>,
    },
    SliceLast {
        x: SpecSrc,
        rows: usize,
        d: usize,
        start: usize,
        end: usize,
    },
}

/// Shared prepacked weight panels, keyed by `(parameter, k, n)`.
///
/// A model's specialized plans overlap heavily in the parameters they
/// read (every leaf count's plan shares the encoder, device-MLP, and
/// decoder weights; every batch class reuses the same `[k, n]` panels),
/// so panels are packed **once per distinct weight matrix** and
/// `Arc`-shared across folds instead of duplicated per plan.
///
/// Like [`SpecializedPlan`] itself, a cache bakes in parameter *values*:
/// keep one per frozen weight set and never mix stores.
#[derive(Default)]
pub struct WeightPackCache {
    map: std::collections::HashMap<(usize, usize, usize), Arc<tensor::PackedB>>,
    qmap: std::collections::HashMap<(usize, usize, usize), Arc<tensor::QuantizedPackedB>>,
    /// Fused `Q|K|V` panels, keyed by the three parameters and each one's
    /// `[k, n]`.
    qkv: std::collections::HashMap<QkvKey, QkvPanel>,
}

type QkvKey = ([usize; 3], usize, usize);

/// One column-concatenated `[k, 3n]` projection panel.
#[derive(Clone)]
enum QkvPanel {
    F32(Arc<tensor::PackedB>),
    Quant(Arc<tensor::QuantizedPackedB>),
}

impl QkvPanel {
    fn panel_bytes(&self) -> usize {
        match self {
            QkvPanel::F32(p) => p.panel_bytes(),
            QkvPanel::Quant(p) => p.panel_bytes(),
        }
    }
}

/// `[k, n]` row-major matrices side by side: row `i` of the result is row
/// `i` of each part in turn, `row` elements (or bytes) apiece.
fn concat_cols<T: Copy>(parts: [&[T]; 3], row: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
    if row > 0 {
        let [a, b, c] = parts.map(|p| p.chunks_exact(row));
        for ((ra, rb), rc) in a.zip(b).zip(c) {
            out.extend_from_slice(ra);
            out.extend_from_slice(rb);
            out.extend_from_slice(rc);
        }
    }
    out
}

/// The three quantized `[k, n]` encodings as one `[k, 3n]` encoding with
/// the same stored values and scales — possible when they share a shape
/// and each part's scale groups end on its last column.
fn concat_quant(parts: [&tensor::QuantizedMatrix; 3]) -> Option<tensor::QuantizedMatrix> {
    let [a, b, c] = parts;
    let (k, n) = (a.k(), a.n());
    let same = |q: &tensor::QuantizedMatrix| q.k() == k && q.n() == n;
    if !same(b) || !same(c) || n % tensor::QUANT_GROUP != 0 {
        return None;
    }
    let data = concat_cols(parts.map(|q| q.data()), n);
    let scales = parts.iter().flat_map(|q| q.scales()).copied().collect();
    tensor::QuantizedMatrix::from_parts(k, 3 * n, data, scales).ok()
}

impl WeightPackCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct `(parameter, k, n)` panels packed so far.
    pub fn len(&self) -> usize {
        self.map.len() + self.qmap.len() + self.qkv.len()
    }

    /// Whether no panel has been packed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes all cached panels occupy in memory (the serving-weights
    /// footprint of the packed representation).
    pub fn panel_bytes(&self) -> usize {
        self.map.values().map(|p| p.panel_bytes()).sum::<usize>()
            + self.qmap.values().map(|p| p.panel_bytes()).sum::<usize>()
            + self.qkv.values().map(|p| p.panel_bytes()).sum::<usize>()
    }

    /// The fused panel of three `[k, n]` projection weights: the quantized
    /// encodings when all three carry one that concatenates, the f32
    /// values when none does, `None` (no fusion) for a mix.
    fn get_or_pack_qkv(
        &mut self,
        params: &ParamStore,
        w: [ParamId; 3],
        k: usize,
        n: usize,
    ) -> Option<QkvPanel> {
        let key = (w.map(|id| id.index()), k, n);
        if let Some(panel) = self.qkv.get(&key) {
            return Some(panel.clone());
        }
        let values = w.map(|id| params.value(id).data());
        if values.iter().any(|v| v.len() != k * n) {
            return None;
        }
        let quants = w.map(|id| params.quant(id).filter(|q| q.k() == k && q.n() == n));
        let panel = match quants {
            [None, None, None] => QkvPanel::F32(Arc::new(tensor::PackedB::pack(
                &concat_cols(values, n),
                k,
                3 * n,
            ))),
            [Some(a), Some(b), Some(c)] => {
                QkvPanel::Quant(Arc::new(tensor::QuantizedPackedB::pack(&concat_quant([
                    &**a, &**b, &**c,
                ])?)))
            }
            _ => return None,
        };
        self.qkv.insert(key, panel.clone());
        Some(panel)
    }

    fn get_or_pack(
        &mut self,
        id: ParamId,
        k: usize,
        n: usize,
        data: &[f32],
    ) -> Arc<tensor::PackedB> {
        Arc::clone(
            self.map
                .entry((id.index(), k, n))
                .or_insert_with(|| Arc::new(tensor::PackedB::pack(data, k, n))),
        )
    }

    fn get_or_pack_quant(
        &mut self,
        id: ParamId,
        k: usize,
        n: usize,
        q: &tensor::QuantizedMatrix,
    ) -> Arc<tensor::QuantizedPackedB> {
        Arc::clone(
            self.qmap
                .entry((id.index(), k, n))
                .or_insert_with(|| Arc::new(tensor::QuantizedPackedB::pack(q))),
        )
    }
}

/// The seven generic steps [`SOp::Attention`] replaces, matched at one
/// batch size.
struct AttnMatch {
    q: Src,
    k: Src,
    v: Src,
    b: usize,
    h: usize,
    l: usize,
    dh: usize,
    scale: Option<f32>,
    /// The softmax output buffer (written by the training step only).
    probs: usize,
    /// The `merge_heads` output buffer — where the fused step writes.
    out: usize,
}

/// A training forward's attention block: the seven steps
/// [`Plan::match_attention`] matches, replayed as one
/// [`tensor::attention_train_slices`] step over `b` sequences that also
/// writes the probabilities where the softmax step did.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TrainAttention {
    pub(super) q: Src,
    pub(super) k: Src,
    pub(super) v: Src,
    pub(super) b: Dim,
    pub(super) h: usize,
    pub(super) l: usize,
    pub(super) dh: usize,
    pub(super) scale: Option<f32>,
    pub(super) probs: usize,
    pub(super) out: usize,
}

/// The three projection GEMMs in front of an [`AttnMatch`]: one input,
/// three `[k, n]` parameters, a bias each or none, one activation.
struct QkvMatch {
    a: Src,
    w: [ParamId; 3],
    bias: Option<[ParamId; 3]>,
    act: Activation,
    m: usize,
    k: usize,
    n: usize,
}

impl Plan {
    /// How many steps read each buffer, the outputs list counting as one
    /// more reader: a buffer with a single reader is invisible outside
    /// the step that reads it.
    pub(crate) fn reader_counts(&self) -> Vec<usize> {
        let mut readers = vec![0usize; self.bufs.len()];
        let step_reads = self.steps.iter().flat_map(|s| s.kind.sources());
        for src in step_reads.chain(self.outputs.iter().map(|(s, _)| *s)) {
            if let Src::Buf(b) = src {
                readers[b] += 1;
            }
        }
        readers
    }

    /// Matches `split_heads ×3 → bmm(Q·Kᵀ, scale) → softmax → bmm(·V) →
    /// merge_heads` in the seven consecutive steps starting at `at`, every
    /// intermediate read by the next step of the pattern and by nothing
    /// else, on a geometry the fused kernel serves. With `keep_probs` the
    /// softmax output may have other readers: the training step writes it.
    fn match_attention(
        &self,
        at: usize,
        readers: &[usize],
        bsz: usize,
        keep_probs: bool,
    ) -> Option<AttnMatch> {
        let [sq, sk, sv, qk, sm, pv, mg] = self.steps.get(at..at + 7)? else {
            return None;
        };
        let dim = |d: Dim| d.checked_at(bsz);
        let split = |st: &Step| match st.kind {
            StepKind::SplitHeads { x, h, b, l, d } => Some((x, [h, dim(b)?, dim(l)?, dim(d)?])),
            _ => None,
        };
        let ((q, geom), (k, gk), (v, gv)) = (split(sq)?, split(sk)?, split(sv)?);
        let [h, b, l, d] = geom;
        if gk != geom || gv != geom || h == 0 || d % h != 0 {
            return None;
        }
        let dh = d / h;
        let bh = b.checked_mul(h)?;
        let bmm = |st: &Step, lhs: usize, rhs: usize, t: bool| match st.kind {
            StepKind::Bmm {
                a: Src::Buf(a),
                b: Src::Buf(b),
                ta: false,
                tb,
                batch,
                m,
                k,
                n,
                scale,
            } if (a, b, tb) == (lhs, rhs, t) => {
                Some(([dim(batch)?, dim(m)?, dim(k)?, dim(n)?], scale))
            }
            _ => None,
        };
        let (qk_dims, scale) = bmm(qk, sq.out, sk.out, true)?;
        let softmax_ok = matches!(
            sm.kind,
            StepKind::Softmax { x: Src::Buf(x), rows, d }
                if x == qk.out && dim(d) == Some(l) && dim(rows) == bh.checked_mul(l)
        );
        let merge_ok = matches!(
            mg.kind,
            StepKind::MergeHeads { x: Src::Buf(x), h: mh, bh: mbh, l: ml, dh: mdh }
                if x == pv.out && mh == h && [dim(mbh), dim(ml), dim(mdh)] == [Some(bh), Some(l), Some(dh)]
        );
        let inner = [sq.out, sk.out, sv.out, qk.out, pv.out];
        let fits = qk_dims == [bh, l, dh, l]
            && softmax_ok
            && bmm(pv, sm.out, sv.out, false)? == ([bh, l, l, dh], None)
            && merge_ok
            && inner.iter().all(|&buf| readers[buf] == 1)
            && (keep_probs || readers[sm.out] == 1)
            && tensor::attention_fusable(l, dh);
        fits.then_some(AttnMatch {
            q,
            k,
            v,
            b,
            h,
            l,
            dh,
            scale,
            probs: sm.out,
            out: mg.out,
        })
    }

    /// [`Plan::match_attention`] for a training forward, at every batch
    /// size: the match must hold at two probe sizes with one geometry and
    /// a batch-linear sequence count (every dim is linear in the batch, so
    /// agreeing at two sizes is agreeing at all), and the step's two
    /// outputs must sit in slots of their own, apart from its operands.
    pub(crate) fn match_train_attention(
        &self,
        at: usize,
        readers: &[usize],
    ) -> Option<TrainAttention> {
        let [m1, m2] = [1, 2].map(|bsz| self.match_attention(at, readers, bsz, true));
        let (m1, m2) = (m1?, m2?);
        let same = (m1.q, m1.k, m1.v, m1.h, m1.l, m1.dh, m1.probs, m1.out)
            == (m2.q, m2.k, m2.v, m2.h, m2.l, m2.dh, m2.probs, m2.out)
            && m1.scale.map(f32::to_bits) == m2.scale.map(f32::to_bits);
        let slot = |b: usize| self.bufs[b].slot;
        let operand_slots = [m1.q, m1.k, m1.v].map(|s| match s {
            Src::Buf(b) => Some(slot(b)),
            _ => None,
        });
        let apart = slot(m1.probs) != slot(m1.out)
            && [m1.probs, m1.out]
                .iter()
                .all(|&w| !operand_slots.contains(&Some(slot(w))));
        (same && apart && m1.b > 0 && m2.b == 2 * m1.b).then_some(TrainAttention {
            q: m1.q,
            k: m1.k,
            v: m1.v,
            b: Dim::PerBatch(m1.b),
            h: m1.h,
            l: m1.l,
            dh: m1.dh,
            scale: m1.scale,
            probs: m1.probs,
            out: m1.out,
        })
    }

    /// Matches the three projection GEMMs at `at .. at + 3` feeding `attn`
    /// (matched at `at + 3`): one input, parameter weights of one `[k, n]`,
    /// outputs read by their `split_heads` only, and a shape where the
    /// prepacked kernel reproduces each projection's own dispatch.
    fn match_qkv(
        &self,
        at: usize,
        readers: &[usize],
        bsz: usize,
        attn: &AttnMatch,
    ) -> Option<QkvMatch> {
        /// One projection: what it writes, its weight and bias, and
        /// everything the three must agree on.
        struct Proj {
            out: Src,
            w: ParamId,
            bias: Option<ParamId>,
            shared: (Src, Activation, [usize; 3]),
        }
        let proj = |st: &Step| match st.kind {
            StepKind::Gemm {
                a,
                b: Src::Param(w),
                m,
                k,
                n,
                bias,
                act,
            } if readers[st.out] == 1 => {
                let bias = match bias {
                    None => None,
                    Some(Src::Param(id)) => Some(id),
                    Some(_) => return None,
                };
                let mkn = [m, k, n].map(|d| d.checked_at(bsz));
                Some(Proj {
                    out: Src::Buf(st.out),
                    w,
                    bias,
                    shared: (a, act, [mkn[0]?, mkn[1]?, mkn[2]?]),
                })
            }
            _ => None,
        };
        let [pq, pk, pv] = self.steps.get(at..at + 3)? else {
            return None;
        };
        let (pq, pk, pv) = (proj(pq)?, proj(pk)?, proj(pv)?);
        let (a, act, [m, k, n]) = pq.shared;
        let bias = match (pq.bias, pk.bias, pv.bias) {
            (None, None, None) => None,
            (Some(bq), Some(bk), Some(bv)) => Some([bq, bk, bv]),
            _ => return None,
        };
        let fits = pk.shared == pq.shared
            && pv.shared == pq.shared
            && (pq.out, pk.out, pv.out) == (attn.q, attn.k, attn.v)
            && Some(m) == attn.b.checked_mul(attn.l)
            && n == attn.h * attn.dh
            && tensor::gemm_prepacked_is_exact(m, k, n);
        fits.then_some(QkvMatch {
            a,
            w: [pq.w, pk.w, pv.w],
            bias,
            act,
            m,
            k,
            n,
        })
    }

    /// Folds this plan for one concrete batch size; see
    /// [`SpecializedPlan`]. `params` must be the (frozen) store the plan
    /// replays against — prepacked weight panels read their values here.
    pub fn specialize(&self, params: &ParamStore, b: usize) -> Result<SpecializedPlan, PlanError> {
        self.specialize_cached(params, b, &mut WeightPackCache::new())
    }

    /// [`Plan::specialize`] sharing prepacked weight panels through
    /// `cache` — fold every plan of one frozen model through the same
    /// cache and parameters read by several plans (or several batch
    /// classes) are packed exactly once.
    pub fn specialize_cached(
        &self,
        params: &ParamStore,
        b: usize,
        cache: &mut WeightPackCache,
    ) -> Result<SpecializedPlan, PlanError> {
        if b == 0 {
            return Err(PlanError::Input(
                "cannot specialize for batch size 0".into(),
            ));
        }
        let dim_at = |d: Dim| -> Result<usize, PlanError> {
            d.checked_at(b)
                .ok_or_else(|| PlanError::Input(format!("batch size {b} overflows plan dims")))
        };
        let size_at = |s: &Size| -> Result<usize, PlanError> {
            s.coef
                .checked_mul(b)
                .and_then(|v| v.checked_add(s.fixed))
                .ok_or_else(|| PlanError::Input(format!("batch size {b} overflows plan sizes")))
        };
        let mut offsets = Vec::with_capacity(self.slot_sizes.len());
        let mut off = 0usize;
        for s in &self.slot_sizes {
            offsets.push(off);
            off = off
                .checked_add(size_at(s)?)
                .ok_or_else(|| PlanError::Input(format!("batch size {b} overflows the arena")))?;
        }
        let arena_len = off;
        let src_of = |s: Src| -> SpecSrc {
            match s {
                Src::Buf(bid) => SpecSrc::Arena(offsets[self.bufs[bid].slot]),
                Src::Param(id) => SpecSrc::Param(id),
                Src::Input(i) => SpecSrc::Input(i),
            }
        };
        // The planner's sanctioned in-place aliasing, frozen per step.
        let aliases = |s: Src, out: usize| -> bool {
            matches!(s, Src::Buf(bb) if self.bufs[bb].slot == self.bufs[out].slot)
        };
        let inplace = |s: Src, out: usize| -> Option<SpecSrc> {
            if aliases(s, out) {
                None
            } else {
                Some(src_of(s))
            }
        };

        let mut prepacked = 0usize;
        let mut quant_prepacked = 0usize;
        let mut span_count = 0usize;
        let mut attentions = 0usize;
        let mut qkv_gemms = 0usize;
        let mut consts: Vec<f32> = Vec::new();
        // Fused `Q|K|V` outputs live behind the planned slots: one region,
        // as large as the widest projection, live from its GEMM to the
        // attention step that follows it.
        let qkv_off = arena_len;
        let mut qkv_len = 0usize;
        let readers = self.reader_counts();
        // The fused step of `attn`, its operands at `[q, k, v]` with rows
        // `rs` apart, writing where `merge_heads` did.
        let attention_step = |attn: &AttnMatch, [q, k, v]: [SpecSrc; 3], rs: usize| {
            Ok::<_, PlanError>(SStep {
                op: SOp::Attention {
                    q,
                    k,
                    v,
                    rs,
                    b: attn.b,
                    h: attn.h,
                    l: attn.l,
                    dh: attn.dh,
                    scale: attn.scale,
                },
                out_off: offsets[self.bufs[attn.out].slot],
                out_len: size_at(&self.bufs[attn.out].size)?,
            })
        };
        let mut steps = Vec::with_capacity(self.steps.len());
        let mut si = 0usize;
        while si < self.steps.len() {
            let step = &self.steps[si];
            // Projections + attention: one GEMM into the scratch region,
            // one attention step reading it at row stride `3n`.
            let fused = self
                .match_attention(si + 3, &readers, b, false)
                .and_then(|attn| {
                    let qkv = self.match_qkv(si, &readers, b, &attn)?;
                    let len = qkv.m.checked_mul(3 * qkv.n)?;
                    let panel = cache.get_or_pack_qkv(params, qkv.w, qkv.k, qkv.n)?;
                    let biases = qkv.bias.map(|ids| ids.map(|id| params.value(id).data()));
                    if biases.is_some_and(|rows| rows.iter().any(|r| r.len() != qkv.n)) {
                        return None;
                    }
                    Some((attn, qkv, len, panel, biases))
                });
            if let Some((attn, qkv, len, panel, biases)) = fused {
                let bias = biases.map(|rows| {
                    let at = consts.len();
                    rows.iter().for_each(|r| consts.extend_from_slice(r));
                    SpecSrc::Const(at)
                });
                let (a, m, act) = (src_of(qkv.a), qkv.m, qkv.act);
                let op = match panel {
                    QkvPanel::F32(b) => {
                        prepacked += 1;
                        SOp::GemmPrepacked { a, b, m, bias, act }
                    }
                    QkvPanel::Quant(b) => {
                        quant_prepacked += 1;
                        SOp::GemmQuantPrepacked { a, b, m, bias, act }
                    }
                };
                steps.push(SStep {
                    op,
                    out_off: qkv_off,
                    out_len: len,
                });
                let d = qkv.n;
                let heads = [0, d, 2 * d].map(|col| SpecSrc::Arena(qkv_off + col));
                steps.push(attention_step(&attn, heads, 3 * d)?);
                qkv_len = qkv_len.max(len);
                qkv_gemms += 1;
                attentions += 1;
                si += 10;
                continue;
            }
            // Attention alone, its operands read where they are — unless
            // the planner handed the merged output one of their slots.
            let in_place = self.match_attention(si, &readers, b, false).filter(|attn| {
                ![attn.q, attn.k, attn.v]
                    .iter()
                    .any(|&s| aliases(s, attn.out))
            });
            if let Some(attn) = in_place {
                let heads = [attn.q, attn.k, attn.v].map(src_of);
                steps.push(attention_step(&attn, heads, attn.h * attn.dh)?);
                attentions += 1;
                si += 7;
                continue;
            }
            si += 1;
            let out = step.out;
            let out_off = offsets[self.bufs[out].slot];
            let out_len = size_at(&self.bufs[out].size)?;
            let op = match &step.kind {
                StepKind::Gemm {
                    a,
                    b: bsrc,
                    m,
                    k,
                    n,
                    bias,
                    act,
                } => {
                    let (m, k, n) = (dim_at(*m)?, dim_at(*k)?, dim_at(*n)?);
                    let bias = bias.map(src_of);
                    match bsrc {
                        // Weight operand: pack the panel once, now, instead
                        // of on every replay — where the generic entry would
                        // pick the blocked kernel, and from two rows up also
                        // below that: the naive loop it picks there
                        // accumulates through memory and runs 2-5x behind a
                        // prepacked register tile at every predictor shape
                        // (README, "Where replay time goes"); one row is its
                        // best case and stays. Quantized stores pack the
                        // i8 encoding instead (the store's values are
                        // the dequantized numbers, so every entry computes
                        // identical results).
                        Src::Param(id)
                            if tensor::gemm_prefers_packed(m, k, n)
                                || (m > 1 && tensor::gemm_prepacked_is_exact(m, k, n)) =>
                        {
                            let w = params.value(*id);
                            if w.numel() != k * n {
                                return Err(PlanError::Input(format!(
                                    "parameter {} has {} elements, GEMM needs {k}x{n}",
                                    id.index(),
                                    w.numel()
                                )));
                            }
                            match params.quant(*id) {
                                Some(q) if q.k() == k && q.n() == n => {
                                    quant_prepacked += 1;
                                    SOp::GemmQuantPrepacked {
                                        a: src_of(*a),
                                        b: cache.get_or_pack_quant(*id, k, n, q),
                                        m,
                                        bias,
                                        act: *act,
                                    }
                                }
                                _ => {
                                    prepacked += 1;
                                    SOp::GemmPrepacked {
                                        a: src_of(*a),
                                        b: cache.get_or_pack(*id, k, n, w.data()),
                                        m,
                                        bias,
                                        act: *act,
                                    }
                                }
                            }
                        }
                        _ => SOp::Gemm {
                            a: src_of(*a),
                            b: src_of(*bsrc),
                            m,
                            k,
                            n,
                            bias,
                            act: *act,
                        },
                    }
                }
                StepKind::Bmm {
                    a,
                    b: bsrc,
                    ta,
                    tb,
                    batch,
                    m,
                    k,
                    n,
                    scale,
                } => SOp::Bmm {
                    a: src_of(*a),
                    b: src_of(*bsrc),
                    ta: *ta,
                    tb: *tb,
                    batch: dim_at(*batch)?,
                    m: dim_at(*m)?,
                    k: dim_at(*k)?,
                    n: dim_at(*n)?,
                    scale: *scale,
                },
                StepKind::SplitHeads { x, h, b: bb, l, d } => {
                    let (bb, l, d) = (dim_at(*bb)?, dim_at(*l)?, dim_at(*d)?);
                    let dh = d / h;
                    let blocks = bb.saturating_mul(l).saturating_mul(*h);
                    if blocks > MAX_UNROLL_SPANS {
                        SOp::SplitLoop {
                            x: src_of(*x),
                            h: *h,
                            b: bb,
                            l,
                            d,
                        }
                    } else {
                        let mut spans = Vec::with_capacity(blocks);
                        for bi in 0..bb {
                            for li in 0..l {
                                for hi in 0..*h {
                                    let src = (bi * l + li) * d + hi * dh;
                                    let dst = ((bi * h + hi) * l + li) * dh;
                                    spans.push((dst, src));
                                }
                            }
                        }
                        span_count += spans.len();
                        SOp::Copy {
                            x: src_of(*x),
                            spans,
                            width: dh,
                        }
                    }
                }
                StepKind::MergeHeads { x, h, bh, l, dh } => {
                    let (bh, l, dh) = (dim_at(*bh)?, dim_at(*l)?, dim_at(*dh)?);
                    let bb = bh / h;
                    let d = dh * h;
                    let blocks = bh.saturating_mul(l);
                    if blocks > MAX_UNROLL_SPANS {
                        SOp::MergeLoop {
                            x: src_of(*x),
                            h: *h,
                            bh,
                            l,
                            dh,
                        }
                    } else {
                        let mut spans = Vec::with_capacity(blocks);
                        for bi in 0..bb {
                            for li in 0..l {
                                for hi in 0..*h {
                                    let dst = (bi * l + li) * d + hi * dh;
                                    let src = ((bi * h + hi) * l + li) * dh;
                                    spans.push((dst, src));
                                }
                            }
                        }
                        span_count += spans.len();
                        SOp::Copy {
                            x: src_of(*x),
                            spans,
                            width: dh,
                        }
                    }
                }
                StepKind::Softmax { x, d, .. } => SOp::Softmax {
                    x: inplace(*x, out),
                    d: dim_at(*d)?,
                },
                StepKind::LayerNorm {
                    x,
                    gamma,
                    beta,
                    eps,
                    d,
                    ..
                } => SOp::LayerNorm {
                    x: inplace(*x, out),
                    gamma: src_of(*gamma),
                    beta: src_of(*beta),
                    eps: *eps,
                    d: dim_at(*d)?,
                },
                StepKind::Map { x, ops, .. } => SOp::Map {
                    x: inplace(*x, out),
                    ops: ops.clone(),
                },
                StepKind::Zip {
                    a,
                    b: bb,
                    kind,
                    ops,
                    ..
                } => SOp::Zip {
                    a: inplace(*a, out),
                    b: inplace(*bb, out),
                    kind: *kind,
                    ops: ops.clone(),
                },
                StepKind::RowOp {
                    x,
                    row,
                    kind,
                    ops,
                    d,
                    ..
                } => SOp::RowOp {
                    x: inplace(*x, out),
                    row: src_of(*row),
                    kind: *kind,
                    ops: ops.clone(),
                    d: dim_at(*d)?,
                },
                StepKind::Concat { parts, rows, ops } => {
                    let parts = parts
                        .iter()
                        .map(|(s, w)| Ok((src_of(*s), dim_at(*w)?)))
                        .collect::<Result<Vec<_>, PlanError>>()?;
                    let total = parts.iter().map(|(_, w)| w).sum();
                    SOp::Concat {
                        parts,
                        rows: dim_at(*rows)?,
                        total,
                        ops: ops.clone(),
                    }
                }
                StepKind::SliceLast {
                    x,
                    rows,
                    d,
                    start,
                    end,
                } => SOp::SliceLast {
                    x: src_of(*x),
                    rows: dim_at(*rows)?,
                    d: dim_at(*d)?,
                    start: *start,
                    end: *end,
                },
            };
            steps.push(SStep {
                op,
                out_off,
                out_len,
            });
        }

        let inputs = self
            .inputs
            .iter()
            .map(|dims| {
                let shape = dims
                    .iter()
                    .map(|&d| dim_at(d))
                    .collect::<Result<Vec<_>, _>>()?;
                let numel = shape.iter().product();
                Ok((shape, numel))
            })
            .collect::<Result<Vec<_>, PlanError>>()?;
        let outputs = self
            .outputs
            .iter()
            .map(|(src, dims)| {
                let shape = dims
                    .iter()
                    .map(|&d| dim_at(d))
                    .collect::<Result<Vec<_>, _>>()?;
                let len = shape.iter().product();
                let off = match src {
                    Src::Buf(bid) => offsets[self.bufs[*bid].slot],
                    _ => unreachable!("outputs always live in the arena"),
                };
                Ok((off, len, shape))
            })
            .collect::<Result<Vec<_>, PlanError>>()?;

        let arena_len = arena_len
            .checked_add(qkv_len)
            .ok_or_else(|| PlanError::Input(format!("batch size {b} overflows the arena")))?;
        Ok(SpecializedPlan {
            batch: b,
            steps,
            arena_len,
            consts,
            inputs,
            outputs,
            prepacked,
            quant_prepacked,
            spans: span_count,
            attentions,
            qkv_gemms,
        })
    }
}

impl SpecializedPlan {
    /// The batch size this plan was folded for.
    pub fn batch_size(&self) -> usize {
        self.batch
    }

    /// Number of replay-time inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// The exact shape input `i` must have.
    pub fn input_shape(&self, i: usize) -> &[usize] {
        &self.inputs[i].0
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// The concrete shape of output `i`.
    pub fn output_shape(&self, i: usize) -> &[usize] {
        &self.outputs[i].2
    }

    /// Steps the specialized interpreter replays per batch.
    pub fn steps(&self) -> usize {
        self.steps.len()
    }

    /// Weight GEMMs resolved to the prepacked fixed-shape kernel.
    pub fn prepacked_gemms(&self) -> usize {
        self.prepacked
    }

    /// Weight GEMMs resolved to the quantized (i8) prepacked kernel.
    pub fn quant_prepacked_gemms(&self) -> usize {
        self.quant_prepacked
    }

    /// Block copies unrolled out of `split_heads` / `merge_heads` loops.
    pub fn unrolled_copies(&self) -> usize {
        self.spans
    }

    /// Attention blocks folded into one [`tensor::attention_slices`] step.
    pub fn fused_attentions(&self) -> usize {
        self.attentions
    }

    /// `Q|K|V` projection triples folded into one prepacked GEMM.
    pub fn fused_qkv_gemms(&self) -> usize {
        self.qkv_gemms
    }

    /// Arena elements a replay needs (fixed — never re-offset).
    pub fn arena_len(&self) -> usize {
        self.arena_len
    }

    /// Executes the plan in `arena`, growing it to [`Self::arena_len`] if
    /// it is shorter (an arena that has replayed a larger fold serves a
    /// smaller one as it is). `params` must be the store the plan was
    /// specialized against; inputs must match the folded shapes exactly
    /// (the batch size is part of the plan).
    pub fn replay(
        &self,
        arena: &mut Vec<f32>,
        params: &ParamStore,
        inputs: &[&Tensor],
    ) -> Result<(), PlanError> {
        if inputs.len() != self.inputs.len() {
            return Err(PlanError::Input(format!(
                "expected {} inputs, got {}",
                self.inputs.len(),
                inputs.len()
            )));
        }
        for (i, ((shape, _), t)) in self.inputs.iter().zip(inputs).enumerate() {
            if t.shape() != shape.as_slice() {
                return Err(PlanError::Input(format!(
                    "input {i}: expected shape {shape:?} (plan specialized for batch {}), got {:?}",
                    self.batch,
                    t.shape()
                )));
            }
        }
        if arena.len() < self.arena_len {
            arena.resize(self.arena_len, 0.0);
        }
        let ctx = SpecRun {
            params,
            inputs,
            consts: &self.consts,
            arena: arena.as_mut_ptr(),
            arena_len: arena.len(),
        };
        for step in &self.steps {
            ctx.exec(step)?;
        }
        Ok(())
    }

    /// Output `i`'s data in `arena` after a successful [`Self::replay`]
    /// there.
    pub fn output<'a>(&self, arena: &'a [f32], i: usize) -> &'a [f32] {
        let (off, len, _) = self.outputs[i];
        &arena[off..off + len]
    }
}

impl fmt::Debug for SpecializedPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpecializedPlan")
            .field("batch", &self.batch)
            .field("steps", &self.steps.len())
            .field("arena_len", &self.arena_len)
            .field("prepacked_gemms", &self.prepacked)
            .field("quant_prepacked_gemms", &self.quant_prepacked)
            .field("fused_attentions", &self.attentions)
            .field("fused_qkv_gemms", &self.qkv_gemms)
            .finish()
    }
}

/// Specialized-replay context: raw arena access under the same aliasing
/// discipline as [`RunCtx`], with every offset and length precomputed.
struct SpecRun<'r> {
    params: &'r ParamStore,
    inputs: &'r [&'r Tensor],
    consts: &'r [f32],
    arena: *mut f32,
    arena_len: usize,
}

impl<'r> SpecRun<'r> {
    /// Reads a resolved source slice. Arena reads alias the output slice
    /// only where the specializer froze an in-place decision, and those
    /// paths never call `read` for the aliased operand.
    fn read(&self, src: SpecSrc, len: usize) -> &'r [f32] {
        match src {
            SpecSrc::Param(id) => self.params.value(id).data(),
            SpecSrc::Input(i) => self.inputs[i].data(),
            SpecSrc::Const(off) => &self.consts[off..off + len],
            SpecSrc::Arena(off) => {
                assert!(off + len <= self.arena_len, "arena read out of bounds");
                // SAFETY: in-bounds; disjointness from the output slice is
                // guaranteed by the specializer (same invariants as the
                // generic planner, frozen at specialize time).
                unsafe { std::slice::from_raw_parts(self.arena.add(off), len) }
            }
        }
    }

    /// The step's mutable output slice.
    #[allow(clippy::mut_from_ref)]
    fn out(&self, off: usize, len: usize) -> &'r mut [f32] {
        assert!(off + len <= self.arena_len, "arena write out of bounds");
        // SAFETY: in-bounds; exactly one output slice exists per step and
        // sanctioned in-place operands are encoded as `None` (no second
        // slice is ever created for them).
        unsafe { std::slice::from_raw_parts_mut(self.arena.add(off), len) }
    }

    fn exec(&self, step: &SStep) -> Result<(), PlanError> {
        let o = self.out(step.out_off, step.out_len);
        match &step.op {
            SOp::Gemm {
                a,
                b,
                m,
                k,
                n,
                bias,
                act,
            } => {
                let av = self.read(*a, m * k);
                let bv = self.read(*b, k * n);
                let biasv = bias.map(|s| self.read(s, *n));
                tensor::gemm_ep_slices(*m, *k, *n, av, bv, biasv, *act, o)?;
            }
            SOp::GemmPrepacked { a, b, m, bias, act } => {
                let av = self.read(*a, m * b.k());
                let biasv = bias.map(|s| self.read(s, b.n()));
                tensor::gemm_prepacked(*m, av, b, biasv, *act, o)?;
            }
            SOp::GemmQuantPrepacked { a, b, m, bias, act } => {
                let av = self.read(*a, m * b.k());
                let biasv = bias.map(|s| self.read(s, b.n()));
                tensor::gemm_prepacked_quant(*m, av, b, biasv, *act, o)?;
            }
            SOp::Bmm {
                a,
                b,
                ta,
                tb,
                batch,
                m,
                k,
                n,
                scale,
            } => {
                let av = self.read(*a, batch * m * k);
                let bv = self.read(*b, batch * k * n);
                tensor::bmm_ep_slices(*batch, *m, *k, *n, av, *ta, bv, *tb, *scale, o)?;
            }
            SOp::Attention {
                q,
                k,
                v,
                rs,
                b,
                h,
                l,
                dh,
                scale,
            } => {
                // Each operand's last row ends `h·dh` past its start.
                let len = (b * l).saturating_sub(1) * rs + h * dh;
                let (qs, ks, vs) = (self.read(*q, len), self.read(*k, len), self.read(*v, len));
                tensor::attention_slices(*b, *h, *l, *dh, qs, ks, vs, *rs, *scale, o)?;
            }
            SOp::Copy { x, spans, width } => {
                let xs = self.read(*x, step.out_len);
                let w = *width;
                for &(dst, src) in spans {
                    o[dst..dst + w].copy_from_slice(&xs[src..src + w]);
                }
            }
            SOp::SplitLoop { x, h, b, l, d } => {
                let xs = self.read(*x, step.out_len);
                let dh = d / h;
                for bi in 0..*b {
                    for li in 0..*l {
                        for hi in 0..*h {
                            let src = (bi * l + li) * d + hi * dh;
                            let dst = ((bi * h + hi) * l + li) * dh;
                            o[dst..dst + dh].copy_from_slice(&xs[src..src + dh]);
                        }
                    }
                }
            }
            SOp::MergeLoop { x, h, bh, l, dh } => {
                let xs = self.read(*x, step.out_len);
                let bb = bh / h;
                let d = dh * h;
                for bi in 0..bb {
                    for li in 0..*l {
                        for hi in 0..*h {
                            let dst = (bi * l + li) * d + hi * dh;
                            let src = ((bi * h + hi) * l + li) * dh;
                            o[dst..dst + dh].copy_from_slice(&xs[src..src + dh]);
                        }
                    }
                }
            }
            SOp::Softmax { x, d } => {
                map_into(o, x.map(|s| self.read(s, step.out_len)), &[]);
                softmax_rows(o, *d);
            }
            SOp::LayerNorm {
                x,
                gamma,
                beta,
                eps,
                d,
            } => {
                let (gv, bv) = (self.read(*gamma, *d), self.read(*beta, *d));
                layer_norm_rows(x.map(|s| self.read(s, step.out_len)), o, gv, bv, *d, *eps);
            }
            SOp::Map { x, ops } => map_into(o, x.map(|s| self.read(s, step.out_len)), ops),
            SOp::Zip { a, b, kind, ops } => {
                let av = a.map(|s| self.read(s, step.out_len));
                let bv = b.map(|s| self.read(s, step.out_len));
                zip_into(o, av, bv, *kind, ops);
            }
            SOp::RowOp {
                x,
                row,
                kind,
                ops,
                d,
            } => {
                let xs = x.map(|s| self.read(s, step.out_len));
                row_op_into(o, xs, &self.read(*row, *d)[..*d], *kind, ops);
            }
            SOp::Concat {
                parts,
                rows,
                total,
                ops,
            } => {
                for r in 0..*rows {
                    let mut at = r * total;
                    for &(src, w) in parts {
                        let ps = self.read(src, rows * w);
                        o[at..at + w].copy_from_slice(&ps[r * w..(r + 1) * w]);
                        at += w;
                    }
                }
                map_into(o, None, ops);
            }
            SOp::SliceLast {
                x,
                rows,
                d,
                start,
                end,
            } => {
                let w = end - start;
                let xs = self.read(*x, rows * d);
                for r in 0..*rows {
                    o[r * w..(r + 1) * w].copy_from_slice(&xs[r * d + start..r * d + end]);
                }
            }
        }
        Ok(())
    }
}
