//! Blocked, packed, register-tiled GEMM — the compute core behind
//! [`crate::matmul`] / [`crate::bmm`] and their `*_into` / `*_acc_into`
//! variants.
//!
//! Two layers, engaged by problem size, both on the calling thread:
//!
//! 1. **Naive strided loop** for tiny products (attention tiles, single
//!    rows): per-element dot products in ascending-`k` order. Packing would
//!    cost more than it saves here.
//! 2. **Blocked kernel**: the classic GOTO/BLIS loop nest. `B` is
//!    packed into `KC x NR` column slabs (cache-line-aligned via
//!    [`crate::aligned::AVec`], pooled per thread so steady-state calls
//!    never allocate) and an explicit register-tile micro-kernel streams
//!    them. `A` is read **in place**: row-major rows through `tile_direct`,
//!    a transposed view's strips through `tile` at the view's column
//!    stride (bitwise the same tile); only a transposed block's ragged
//!    last strip is copied into a zero-padded `KC x MR` strip.
//!
//! No kernel fans out over threads: the predictor's products (at most
//! ≈ 2.1M multiply-adds) are too small for a split to pay for its
//! dispatch, so parallelism lives in the callers that own whole units of
//! work (engine workers, search lowering, training shards).
//!
//! Every blocked path runs one loop body over its tiles (`macro_body`) and
//! finishes each tile through one trait method, `TileAcc::write_back`.
//! Each tier names the form its accumulators take (`Micro::Acc`) and
//! compiles the loop under its own target features (`Micro::macro_kernel`,
//! a `#[target_feature]` trampoline on AVX2 and AVX-512), so the
//! micro-kernel and its write-back inline into one function. The scalar
//! and NEON tiers hold a stack [`Tile`], whose write-back is the
//! per-element definition (`C` update, then `Epilogue::apply`). The AVX2
//! tier writes every full 8-column half straight from its `ymm`
//! accumulators, doing the definition's per-lane operations in registers
//! for every epilogue (`Tanh` / `Sigmoid` through [`crate::math`]'s
//! eight-lane forms), so a fused bias costs what a plain store does; only a
//! ragged `n % 8` half spills to the stack and takes the definition. The
//! AVX-512 tier does the same sixteen lanes at a time from its `zmm`
//! accumulators (`Tanh` / `Sigmoid` through the eight-lane forms on each
//! half of a register), and finishes a ragged `n % 16` half in its
//! register too, its `C` and bias lanes read and its result stored under
//! a lane mask.
//! Quantized prepacked panels have no kernel of their own: each k-block is
//! expanded to f32 (`Micro::dequant_*`) and runs the same body.
//!
//! # Kernel tiers
//!
//! The micro-kernel is selected **once** per process, by runtime feature
//! detection ([`active_tier`]):
//!
//! * **`scalar`** — always compiled, every target. A plain-Rust tile whose
//!   every multiply-add is [`f32::mul_add`]. This is the portable fallback
//!   *and* the bit-identity oracle the SIMD tiers are tested against.
//! * **`avx2+fma`** (x86_64, via `is_x86_feature_detected!`) — an explicit
//!   `std::arch` 6x16 tile built from `_mm256_fmadd_ps`.
//! * **`avx512f`** (x86_64 with `avx512f`, `avx2` and `fma`) — an 8x32
//!   tile of 16 `zmm` accumulators built from `_mm512_fmadd_ps`, chosen
//!   over `avx2+fma` where the CPU has it. Only the tile and its
//!   write-back (and, outside this module, layer norm and the fused
//!   attention forward) are 512 bits wide: the tiny-product loop, the i8
//!   dequantization, the attention backward, softmax,
//!   [`crate::math::map`] and `nn`'s Adam lanes run the AVX2 tier's code
//!   on it.
//! * **`neon`** (aarch64) — an explicit 4x8 tile built from `vfmaq_f32`.
//!
//! Setting `CDMPP_SIMD=scalar` in the environment forces the scalar tier
//! (read once, at first kernel use; any other value panics). Every tier
//! performs the **same fused multiply-add per element in the same order**:
//! one accumulator per output element, ascending-`k` within a `KC` block,
//! reassociated only at `KC` boundaries. A fused multiply-add is a single
//! correctly-rounded IEEE operation, so `f32::mul_add`, `_mm256_fmadd_ps`,
//! `_mm512_fmadd_ps` and `vfmaq_f32` agree bit-for-bit — which is what
//! keeps every executor in `nn` bitwise identical with SIMD on or off.
//! Tile *shape* (`MR x NR`) is a
//! kernel-selected constant and never affects results: it only changes
//! which elements are produced together, not any element's own sum.
//! [`supported_tiers`] lists every tier the CPU can run, and the
//! bit-identity suites hold each one to the scalar oracle.
//!
//! Transposed operands are strided [`MatRef`] views — there is no
//! materialized transpose anywhere: a transposed `B` is packed with
//! column-contiguous reads, a transposed `A` is read where it lies.

use crate::aligned::AVec;
use crate::quant::QuantizedMatrix;
use std::cell::RefCell;
use std::sync::OnceLock;

/// Activation applied by a GEMM `Epilogue` during output write-back.
///
/// The formulas are **exactly** the ones `nn`'s executors use for the
/// standalone element-wise ops (`relu = v.max(0.0)`, `tanh` and `sigmoid`
/// from [`crate::math`]), so fusing an activation into the GEMM write-back
/// produces bit-identical results to running it as a separate full-tensor
/// pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// No activation (`v`).
    #[default]
    Identity,
    /// Rectified linear unit (`v.max(0.0)`).
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid (`1 / (1 + exp(-v))`).
    Sigmoid,
}

impl Activation {
    /// Applies the activation to one value.
    #[inline(always)]
    pub fn apply(self, v: f32) -> f32 {
        match self {
            Activation::Identity => v,
            Activation::Relu => v.max(0.0),
            Activation::Tanh => crate::math::tanh(v),
            Activation::Sigmoid => crate::math::sigmoid(v),
        }
    }
}

/// A fused GEMM epilogue: optional scalar scale, optional bias row, and an
/// activation, applied to each output element **once**, at the point the
/// element's accumulation finishes (the write-back loop of whichever
/// kernel path ran).
///
/// Per element the epilogue computes `act(c[i][j] * scale + bias[j])` —
/// the same per-element operation order as separate scale / `add_row` /
/// activation passes, so fusion is bit-identical. When `scale` is `None`
/// the multiply is skipped entirely, and when `bias` is `None` the
/// addition is skipped (not replaced by `+ 0.0`, which would flip the sign
/// of negative zeros).
///
/// Epilogues only combine with overwriting stores (`acc == false`).
#[derive(Clone, Copy, Default)]
pub struct Epilogue<'a> {
    /// Scalar multiplied into every output element (attention `1/sqrt(d)`).
    pub scale: Option<f32>,
    /// Bias row of length `n`, added to every output row.
    pub bias: Option<&'a [f32]>,
    /// Activation applied after the (optional) scale and bias.
    pub act: Activation,
}

impl Epilogue<'_> {
    /// The empty epilogue (plain GEMM).
    pub const NONE: Epilogue<'static> = Epilogue {
        scale: None,
        bias: None,
        act: Activation::Identity,
    };

    /// Whether this epilogue does nothing.
    #[inline(always)]
    pub fn is_none(&self) -> bool {
        self.scale.is_none() && self.bias.is_none() && self.act == Activation::Identity
    }

    /// Applies the epilogue to the finished value of column `j`.
    #[inline(always)]
    fn apply(&self, j: usize, v: f32) -> f32 {
        let v = match self.scale {
            Some(c) => v * c,
            None => v,
        };
        let v = match self.bias {
            Some(b) => v + b[j],
            None => v,
        };
        self.act.apply(v)
    }

    /// The epilogue restricted to columns `[j0, j0 + nc)` (for blocked
    /// kernels whose `C` slice starts at column `j0`).
    fn cols(&self, j0: usize, nc: usize) -> Epilogue<'_> {
        Epilogue {
            scale: self.scale,
            bias: self.bias.map(|b| &b[j0..j0 + nc]),
            act: self.act,
        }
    }
}

/// Largest `MR` any tier uses (sizes the shared accumulator tile).
const MR_MAX: usize = 8;
/// Largest `NR` any tier uses.
const NR_MAX: usize = 32;
/// Largest `NR` of a tier that keeps its accumulators in a [`Tile`] (the
/// scalar and NEON tiers; the x86 tiers keep theirs in registers).
const TILE_NR: usize = 16;
/// A micro-kernel accumulator held in memory: a tier that keeps its tile
/// here fills the `MR x NR` prefix.
type Tile = [[f32; TILE_NR]; MR_MAX];
/// K-dimension block: sized to cover every predictor shape in one block so
/// accumulation order matches the naive kernel exactly at those sizes.
pub(crate) const KC: usize = 512;
/// M-dimension block (rows of A packed at a time).
const MC: usize = 128;
/// N-dimension block.
const NC: usize = 4096;

/// Below this many multiply-adds the naive loop wins (no packing traffic).
/// Retuned for the FMA tile: the packed kernel now pays for its packing
/// down to ~8K multiply-adds, which pulls the `B=1` serving buckets
/// (`m=8`: 14K muladds at predictor shapes) onto the fast path.
#[doc(hidden)]
pub const TINY_MULADDS: usize = 8 * 1024;

thread_local! {
    /// Per-thread packing buffers: long-lived serving and training
    /// threads reuse the same panels for every GEMM they ever run.
    static PACK: RefCell<(AVec, AVec)> = const { RefCell::new((AVec::new(), AVec::new())) };
    /// Per-thread dequantized k-block for the prepacked quant path: each
    /// k-block's quantized slabs are expanded here to f32 (`slabs x kc x
    /// NR`), then the f32 macro-kernel runs over them as over a
    /// [`PackedB`]'s block.
    static DEQ: RefCell<AVec> = const { RefCell::new(AVec::new()) };
}

/// The micro-kernel tier serving this process (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdTier {
    /// Portable `f32::mul_add` tile — fallback and bit-identity oracle.
    Scalar,
    /// x86_64 AVX2 + FMA 6x16 tile (`_mm256_fmadd_ps`).
    Avx2Fma,
    /// x86_64 AVX-512F 8x32 tile (`_mm512_fmadd_ps`), and layer norm and
    /// the fused attention forward sixteen rows to a `zmm`; every other
    /// kernel (the attention backward, `math::map`, the tiny-product
    /// loop) runs the AVX2 code.
    Avx512F,
    /// aarch64 NEON 4x8 tile (`vfmaq_f32`).
    Neon,
}

impl SimdTier {
    /// Human-readable tier name (stable — emitted into bench JSON).
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2Fma => "avx2+fma",
            SimdTier::Avx512F => "avx512f",
            SimdTier::Neon => "neon",
        }
    }
}

static TIER: OnceLock<SimdTier> = OnceLock::new();

/// The kernel tier every GEMM in this process dispatches to. Decided once:
/// `CDMPP_SIMD=scalar` forces the fallback, otherwise runtime feature
/// detection picks the widest supported tile.
///
/// # Panics
///
/// When `CDMPP_SIMD` is set to anything but `scalar` (ASCII case
/// ignored): a typo must not quietly test the auto-detected tier.
pub fn active_tier() -> SimdTier {
    *TIER.get_or_init(|| match std::env::var_os("CDMPP_SIMD") {
        None => detect_tier(),
        Some(v) if v.eq_ignore_ascii_case("scalar") => SimdTier::Scalar,
        Some(v) => panic!("invalid CDMPP_SIMD value {v:?}: the accepted value is `scalar`"),
    })
}

/// Name of the active kernel tier (`scalar` / `avx2+fma` / `avx512f` /
/// `neon`).
pub fn kernel_tier_name() -> &'static str {
    active_tier().name()
}

/// Every tier this CPU can run, the scalar oracle first and the detected
/// tier last — whatever `CDMPP_SIMD` says. The bit-identity suites hold
/// each one to the scalar oracle through the tier-pinned seams, so a
/// narrower SIMD tier stays covered on a host that detects a wider one.
#[doc(hidden)]
pub fn supported_tiers() -> Vec<SimdTier> {
    let mut tiers = vec![SimdTier::Scalar];
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
        tiers.push(SimdTier::Avx2Fma);
        if std::is_x86_feature_detected!("avx512f") {
            tiers.push(SimdTier::Avx512F);
        }
    }
    #[cfg(target_arch = "aarch64")]
    if std::arch::is_aarch64_feature_detected!("neon") {
        tiers.push(SimdTier::Neon);
    }
    tiers
}

/// The widest tier this CPU supports.
fn detect_tier() -> SimdTier {
    *supported_tiers()
        .last()
        .expect("the scalar tier is always supported")
}

/// One register-tile micro-kernel. `MR`/`NR` are per-implementation
/// constants — the blocked loop nest and the packing layout are generic
/// over them.
///
/// # Safety
///
/// Callers must only invoke an implementation whose ISA the running CPU
/// supports (guaranteed by dispatching through [`active_tier`]). Slice
/// contracts: `tile`'s `astrip` holds `(kc - 1) * lda + MR` elements (its
/// `MR` values for step `p` start at `p * lda`), `bslab` holds `kc * NR`,
/// and every row in `tile_direct`'s `ar` holds at least `kc`.
trait Micro: Sized {
    const MR: usize;
    const NR: usize;
    /// One finished `MR x NR` tile's accumulators, in the form the tier
    /// computes them: a stack [`Tile`], or the vector registers themselves.
    type Acc: TileAcc;
    unsafe fn tile(kc: usize, astrip: &[f32], lda: usize, bslab: &[f32]) -> Self::Acc;
    unsafe fn tile_direct(kc: usize, ar: &[&[f32]; MR_MAX], bslab: &[f32]) -> Self::Acc;
    #[allow(clippy::too_many_arguments)]
    unsafe fn naive(
        m: usize,
        n: usize,
        k: usize,
        a: MatRef,
        b: MatRef,
        c: &mut [f32],
        acc: bool,
        ep: Epilogue,
    );

    /// Expands one quantized `kc x NR` i8 slab into f32: per element
    /// `q as f32` (exact) times the column's scale, one correctly-rounded
    /// multiply. The f32 tile then runs over the expanded slab.
    ///
    /// # Safety
    ///
    /// ISA per the trait contract; `bslab` and `dst` hold at least
    /// `kc * NR` elements, `scales` at least `NR`.
    unsafe fn dequant_i8(kc: usize, bslab: &[i8], scales: &[f32], dst: &mut [f32]) {
        for (drow, qrow) in dst[..kc * Self::NR]
            .chunks_exact_mut(Self::NR)
            .zip(bslab.chunks_exact(Self::NR))
        {
            for ((d, &q), &s) in drow.iter_mut().zip(qrow).zip(&scales[..Self::NR]) {
                *d = q as f32 * s;
            }
        }
    }

    /// Runs [`macro_body`] for this tier. The default compiles it with the
    /// crate's baseline features; a tier whose ISA is detected at run time
    /// overrides it with a `#[target_feature]` trampoline, so the tile
    /// loop, the micro-kernel and the write-back inline into one function.
    ///
    /// # Safety
    ///
    /// As [`macro_body`].
    #[allow(clippy::too_many_arguments)]
    #[inline]
    unsafe fn macro_kernel(
        mc: usize,
        nc: usize,
        kc: usize,
        a: APanel,
        bpack: &[f32],
        c: &mut [f32],
        ldc: usize,
        store: bool,
        ep: Epilogue,
    ) {
        // SAFETY: forwarded contract.
        unsafe { macro_body::<Self>(mc, nc, kc, a, bpack, c, ldc, store, ep) }
    }
}

/// A finished tile's accumulators ([`Micro::Acc`]), and how they reach `C`.
trait TileAcc {
    /// Writes the live `mr x nr` corner of a finished tile into `c`,
    /// whose first element is the tile's top-left output (rows `ldc`
    /// apart) and sits at column `j0` of `ep`'s bias row: overwrite when
    /// `store`, accumulate otherwise, and apply the epilogue exactly once
    /// per element. The [`Tile`] impl is the definition; a tier may only
    /// reorder work across elements, never change one element's operation
    /// sequence.
    ///
    /// # Safety
    ///
    /// The running CPU supports the ISA of the tier that built `self`.
    #[allow(clippy::too_many_arguments)]
    unsafe fn write_back(
        &self,
        mr: usize,
        nr: usize,
        c: &mut [f32],
        ldc: usize,
        j0: usize,
        store: bool,
        ep: Epilogue,
    );
}

/// The write-back definition: [`write_back_row`] per row,
/// [`Epilogue::apply`] per element. The scalar tier (the oracle) and NEON
/// write back through it.
impl TileAcc for Tile {
    #[inline(always)]
    unsafe fn write_back(
        &self,
        mr: usize,
        nr: usize,
        c: &mut [f32],
        ldc: usize,
        j0: usize,
        store: bool,
        ep: Epilogue,
    ) {
        for (r, trow) in self.iter().take(mr).enumerate() {
            write_back_row(&mut c[r * ldc..r * ldc + nr], &trow[..nr], j0, store, ep);
        }
    }
}

/// A strided, read-only view of a row-major matrix (or its transpose —
/// swap the strides and a transpose costs nothing).
#[derive(Clone, Copy)]
pub(crate) struct MatRef<'a> {
    data: &'a [f32],
    /// Element distance between logical rows.
    rs: usize,
    /// Element distance between logical columns.
    cs: usize,
}

impl<'a> MatRef<'a> {
    /// View of a contiguous row-major `[rows x cols]` slice.
    pub(crate) fn dense(data: &'a [f32], cols: usize) -> Self {
        MatRef {
            data,
            rs: cols,
            cs: 1,
        }
    }

    /// Logical view of `data` stored row-major `[rows x cols]`, transposed
    /// when `t` (so the logical matrix is `[cols x rows]`).
    pub(crate) fn dense_t(data: &'a [f32], cols: usize, t: bool) -> Self {
        if t {
            MatRef {
                data,
                rs: 1,
                cs: cols,
            }
        } else {
            Self::dense(data, cols)
        }
    }

    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.rs + j * self.cs]
    }
}

/// `C = ep(A·B)` (or `C += A·B` when `acc`) for logical shapes `[m,k]·[k,n]`.
///
/// `c` must hold exactly `m * n` elements (row-major). When `acc` is false
/// every element of `c` is overwritten — callers need not (and should not)
/// pre-zero the buffer. A non-empty epilogue requires `acc == false`: the
/// scale/bias/activation apply exactly once, when each element's
/// accumulation completes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a: MatRef,
    b: MatRef,
    c: &mut [f32],
    acc: bool,
    ep: Epilogue,
) {
    gemm_dispatch(m, n, k, a, b, c, acc, ep, active_tier())
}

/// [`gemm`] with the tier pinned — the seam the bit-identity tests drive
/// directly.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_dispatch(
    m: usize,
    n: usize,
    k: usize,
    a: MatRef,
    b: MatRef,
    c: &mut [f32],
    acc: bool,
    ep: Epilogue,
    tier: SimdTier,
) {
    debug_assert_eq!(c.len(), m * n);
    debug_assert!(!acc || ep.is_none(), "epilogue cannot combine with C +=");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !acc {
            store_empty_product(c, n, ep);
        }
        return;
    }
    if m * n * k < TINY_MULADDS {
        return gemm_naive(m, n, k, a, b, c, acc, ep, tier);
    }
    gemm_blocked_tier(m, n, k, a, b, c, acc, ep, tier)
}

/// An empty product (`k == 0`) is all zeros; the epilogue still applies
/// (scale / bias / activation of zero).
fn store_empty_product(c: &mut [f32], n: usize, ep: Epilogue) {
    for crow in c.chunks_exact_mut(n) {
        for (j, o) in crow.iter_mut().enumerate() {
            *o = ep.apply(j, 0.0);
        }
    }
}

/// Tier dispatch for the tiny-product path.
#[allow(clippy::too_many_arguments)]
fn gemm_naive(
    m: usize,
    n: usize,
    k: usize,
    a: MatRef,
    b: MatRef,
    c: &mut [f32],
    acc: bool,
    ep: Epilogue,
    tier: SimdTier,
) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier was selected by runtime feature detection.
        SimdTier::Avx2Fma => unsafe { Avx2K::naive(m, n, k, a, b, c, acc, ep) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        SimdTier::Avx512F => unsafe { Avx512K::naive(m, n, k, a, b, c, acc, ep) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: as above.
        SimdTier::Neon => unsafe { NeonK::naive(m, n, k, a, b, c, acc, ep) },
        // SAFETY: the scalar kernel has no ISA requirements.
        _ => unsafe { ScalarK::naive(m, n, k, a, b, c, acc, ep) },
    }
}

/// Tier dispatch for the blocked loop nest.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked_tier(
    m: usize,
    n: usize,
    k: usize,
    a: MatRef,
    b: MatRef,
    c: &mut [f32],
    acc: bool,
    ep: Epilogue,
    tier: SimdTier,
) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the tier was selected by runtime feature detection.
        SimdTier::Avx2Fma => unsafe { gemm_blocked_t::<Avx2K>(m, n, k, a, b, c, acc, ep) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        SimdTier::Avx512F => unsafe { gemm_blocked_t::<Avx512K>(m, n, k, a, b, c, acc, ep) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: as above.
        SimdTier::Neon => unsafe { gemm_blocked_t::<NeonK>(m, n, k, a, b, c, acc, ep) },
        // SAFETY: the scalar kernel has no ISA requirements.
        _ => unsafe { gemm_blocked_t::<ScalarK>(m, n, k, a, b, c, acc, ep) },
    }
}

/// Tiny-product path, shared by every tier. Each element accumulates in
/// ascending-`k` order with one fused multiply-add per step — the same
/// sequence of operations as the register tiles — through whichever loop
/// shape gives contiguous inner slices for the operand layout at hand:
///
/// * `B` row-major (`cs == 1`): the seed's ikj kernel (stream `B` rows);
/// * `B` column-contiguous (`rs == 1`, i.e. a transposed view) with
///   row-major `A`: dot-product form over zipped slices;
/// * anything else (tiny transposed-`A` gradients): strided generic loop.
///
/// `#[inline(always)]` so each tier's `naive` wrapper re-compiles this body
/// under its own `target_feature` set — on the AVX2 tier `mul_add` becomes
/// a vectorized `vfmadd`; on the forced-scalar tier it is a (slow, exact)
/// libm call on hosts without baseline FMA.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn naive_body(
    m: usize,
    n: usize,
    k: usize,
    a: MatRef,
    b: MatRef,
    c: &mut [f32],
    acc: bool,
    ep: Epilogue,
) {
    debug_assert_eq!(c.len(), m * n);
    if b.cs == 1 {
        if !acc {
            c.fill(0.0);
        }
        for (i, crow) in c.chunks_exact_mut(n).enumerate() {
            for p in 0..k {
                let av = a.at(i, p);
                let brow = &b.data[p * b.rs..p * b.rs + n];
                for (o, &bv) in crow.iter_mut().zip(brow) {
                    *o = av.mul_add(bv, *o);
                }
            }
            // The row's accumulation is complete: apply the epilogue once.
            if !ep.is_none() {
                for (j, o) in crow.iter_mut().enumerate() {
                    *o = ep.apply(j, *o);
                }
            }
        }
        return;
    }
    if b.rs == 1 && a.cs == 1 {
        for (i, crow) in c.chunks_exact_mut(n).enumerate() {
            let arow = &a.data[i * a.rs..i * a.rs + k];
            for (j, o) in crow.iter_mut().enumerate() {
                let bcol = &b.data[j * b.cs..j * b.cs + k];
                let mut s = 0.0f32;
                for (&x, &y) in arow.iter().zip(bcol) {
                    s = x.mul_add(y, s);
                }
                if acc {
                    *o += s;
                } else {
                    *o = ep.apply(j, s);
                }
            }
        }
        return;
    }
    for (i, crow) in c.chunks_exact_mut(n).enumerate() {
        for (j, o) in crow.iter_mut().enumerate() {
            let mut s = 0.0f32;
            for p in 0..k {
                s = a.at(i, p).mul_add(b.at(p, j), s);
            }
            if acc {
                *o += s;
            } else {
                *o = ep.apply(j, s);
            }
        }
    }
}

/// The GOTO-style blocked loop nest over packed panels, generic over the
/// micro-kernel.
///
/// # Safety
///
/// The running CPU must support `K`'s ISA.
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_blocked_t<K: Micro>(
    m: usize,
    n: usize,
    k: usize,
    a: MatRef,
    b: MatRef,
    c: &mut [f32],
    acc: bool,
    ep: Epilogue,
) {
    PACK.with(|bufs| {
        let (apack, bpack) = &mut *bufs.borrow_mut();
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                // First k-block overwrites C (unless the caller wants C +=),
                // later blocks accumulate. The epilogue fires only on the
                // *final* k-block, when every element's sum is complete.
                let store = pc == 0 && !acc;
                let ep_here = if pc + kc == k {
                    ep.cols(jc, nc)
                } else {
                    Epilogue::NONE
                };
                pack_b::<K>(b, pc, kc, jc, nc, bpack);
                for ic in (0..m).step_by(MC) {
                    let mc = MC.min(m - ic);
                    // `A` is read in place: row-major rows stream into
                    // `tile_direct`, a transposed view's strips into `tile`
                    // at stride `cs` (bitwise the same tile either way);
                    // only a transposed block's ragged last strip is packed.
                    let ablock = if a.cs == 1 {
                        APanel::Rows {
                            data: &a.data[ic * a.rs + pc..],
                            rs: a.rs,
                        }
                    } else {
                        debug_assert_eq!(a.rs, 1, "a strided view is row- or column-major");
                        let full = mc - mc % K::MR;
                        if full < mc {
                            pack_a_edge::<K>(a, ic + full, mc - full, pc, kc, apack);
                        }
                        APanel::Cols {
                            data: &a.data[pc * a.cs + ic..],
                            cs: a.cs,
                            edge: apack.as_slice(),
                        }
                    };
                    // SAFETY: forwarded contract — caller vouched for the ISA.
                    unsafe {
                        K::macro_kernel(
                            mc,
                            nc,
                            kc,
                            ablock,
                            bpack.as_slice(),
                            &mut c[ic * n + jc..],
                            n,
                            store,
                            ep_here,
                        );
                    }
                }
            }
        }
    });
}

/// Whether `gemm` routes `[m, k] · [k, n]` to the blocked/packed kernel
/// — exactly the shapes where a [`PackedB`] pays for itself. Below the
/// threshold the naive loop (which reads `B` unpacked) wins, so
/// fixed-shape callers should keep the generic entry point there.
pub fn gemm_prefers_packed(m: usize, k: usize, n: usize) -> bool {
    k > 0 && m.saturating_mul(n).saturating_mul(k) >= TINY_MULADDS
}

/// Whether [`crate::gemm_prepacked`] reproduces [`crate::gemm_ep_slices`]
/// bit for bit at this shape: always where the generic entry picks the
/// blocked kernel, and on the naive loop's shapes as long as the
/// contraction fits one `KC` block (nothing is reassociated). A caller
/// that wants a prepacked panel where `gemm_prefers_packed` says no — to
/// merge several products over one `A` into one wider panel — checks this.
pub fn gemm_prepacked_is_exact(m: usize, k: usize, n: usize) -> bool {
    k <= KC || gemm_prefers_packed(m, k, n)
}

/// A `[k, n]` matrix packed **once** into the blocked kernel's slab layout
/// (`ceil(n/NR)` slabs of `kc x NR` per `KC` k-block, zero-padded), where
/// `NR` is the tile width of the tier the packing was built for.
///
/// This is the weight side of a fixed-shape GEMM: compiled inference plans
/// specialize to a known batch size, and the `B` operand of every linear
/// layer is a parameter whose values are frozen for serving — so the
/// packing that `gemm` performs per call can happen exactly once, at
/// specialize time. Replay through [`crate::gemm_prepacked`] then touches
/// no packing buffers at all. The packing remembers its tier and is always
/// consumed by the same tier's tile, so a `PackedB` built under a forced
/// tier stays valid.
pub struct PackedB {
    k: usize,
    n: usize,
    tier: SimdTier,
    /// One packed panel per `KC` k-block, in ascending-`k` order.
    blocks: Vec<AVec>,
}

impl PackedB {
    /// Packs row-major `b` (`k * n` elements) into the active tier's slab
    /// layout.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n`.
    pub fn pack(b: &[f32], k: usize, n: usize) -> PackedB {
        Self::pack_for_tier(b, k, n, active_tier())
    }

    /// [`PackedB::pack`] with the tier pinned (bit-identity test seam).
    #[doc(hidden)]
    pub fn pack_for_tier(b: &[f32], k: usize, n: usize, tier: SimdTier) -> PackedB {
        assert_eq!(b.len(), k * n, "PackedB::pack: b must be [k, n]");
        let view = MatRef::dense(b, n);
        let mut blocks = Vec::with_capacity(k.div_ceil(KC).max(1));
        let mut pc = 0;
        loop {
            let kc = KC.min(k - pc);
            let mut buf = AVec::new();
            match tier {
                #[cfg(target_arch = "x86_64")]
                SimdTier::Avx2Fma => pack_b::<Avx2K>(view, pc, kc, 0, n, &mut buf),
                #[cfg(target_arch = "x86_64")]
                SimdTier::Avx512F => pack_b::<Avx512K>(view, pc, kc, 0, n, &mut buf),
                #[cfg(target_arch = "aarch64")]
                SimdTier::Neon => pack_b::<NeonK>(view, pc, kc, 0, n, &mut buf),
                _ => pack_b::<ScalarK>(view, pc, kc, 0, n, &mut buf),
            }
            blocks.push(buf);
            pc += kc;
            if pc >= k {
                break;
            }
        }
        PackedB { k, n, tier, blocks }
    }

    /// The contraction length this packing was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The output width this packing was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes the packed panels occupy in memory — the serving-footprint
    /// column of the benches.
    pub fn panel_bytes(&self) -> usize {
        self.blocks.iter().map(|b| b.len() * 4).sum()
    }
}

impl std::fmt::Debug for PackedB {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedB")
            .field("k", &self.k)
            .field("n", &self.n)
            .field("tier", &self.tier.name())
            .finish()
    }
}

/// `C = ep(A · B)` against a prepacked `B`, reading `A` rows **directly**
/// (no A-packing pass, no per-call packing buffers, no dispatch checks).
///
/// Every output element accumulates in the blocked kernel's order:
/// ascending-`k` single-accumulator fused multiply-adds, reassociated at
/// `KC` block boundaries. That is bit-identical to [`gemm`] wherever
/// [`gemm`] picks the blocked kernel, and to every kernel for `k <= KC`
/// (single block ⇒ no reassociation); tiny `k > KC` shapes, which [`gemm`]
/// sums unblocked, may round differently — see
/// [`crate::gemm_prepacked`]'s contract. Serial by construction — the
/// callers are serving workers that already own a core each.
pub(crate) fn gemm_prepacked_impl(m: usize, a: &[f32], pb: &PackedB, c: &mut [f32], ep: Epilogue) {
    match pb.tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the packing's tier was selected by runtime detection.
        SimdTier::Avx2Fma => unsafe { gemm_prepacked_t::<Avx2K>(m, a, pb, c, ep) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        SimdTier::Avx512F => unsafe { gemm_prepacked_t::<Avx512K>(m, a, pb, c, ep) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: as above.
        SimdTier::Neon => unsafe { gemm_prepacked_t::<NeonK>(m, a, pb, c, ep) },
        // SAFETY: the scalar kernel has no ISA requirements.
        _ => unsafe { gemm_prepacked_t::<ScalarK>(m, a, pb, c, ep) },
    }
}

/// # Safety
///
/// The running CPU must support `K`'s ISA, and `pb` must have been packed
/// with `K`'s slab width.
unsafe fn gemm_prepacked_t<K: Micro>(
    m: usize,
    a: &[f32],
    pb: &PackedB,
    c: &mut [f32],
    ep: Epilogue,
) {
    let (k, n) = (pb.k, pb.n);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        return store_empty_product(c, n, ep);
    }
    for (bi, block) in pb.blocks.iter().enumerate() {
        // SAFETY: ISA and slab width vouched by this fn's caller.
        unsafe { prepacked_block::<K>(m, k, n, a, bi, block.as_slice(), c, ep) };
    }
}

/// The loop body of every prepacked product: k-block `bi` of `C = ep(A ·
/// B)`, `A`'s rows read in place against the block's f32 slabs. The first
/// block overwrites `C`, later ones accumulate onto it, and the epilogue
/// fires on the last one, when every element's sum is complete.
///
/// # Safety
///
/// The running CPU must support `K`'s ISA, and `panel` holds the block's
/// `ceil(n / NR)` slabs of `kc x NR` in `K`'s layout.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn prepacked_block<K: Micro>(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    bi: usize,
    panel: &[f32],
    c: &mut [f32],
    ep: Epilogue,
) {
    let pc = bi * KC;
    let kc = KC.min(k - pc);
    let ep_here = if pc + kc == k { ep } else { Epilogue::NONE };
    let rows = APanel::Rows {
        data: &a[pc..],
        rs: k,
    };
    // SAFETY: forwarded contract.
    unsafe { K::macro_kernel(m, n, kc, rows, panel, c, n, bi == 0, ep_here) };
}

/// Shared tile write-back: overwrite or accumulate one tile row into `C`,
/// applying the (final-k-block-only) epilogue exactly once per element.
#[inline(always)]
fn write_back_row(crow: &mut [f32], trow: &[f32], j0: usize, store: bool, ep: Epilogue) {
    if store {
        if ep.is_none() {
            crow.copy_from_slice(trow);
        } else {
            for (j, (o, &v)) in crow.iter_mut().zip(trow).enumerate() {
                *o = ep.apply(j0 + j, v);
            }
        }
    } else if ep.is_none() {
        for (o, &v) in crow.iter_mut().zip(trow) {
            *o += v;
        }
    } else {
        // Final k-block of a multi-block sum: finish the accumulation,
        // then apply the epilogue once.
        for (j, (o, &v)) in crow.iter_mut().zip(trow).enumerate() {
            *o = ep.apply(j0 + j, *o + v);
        }
    }
}

// ---------------------------------------------------------------------------
// Quantized prepacked panels.
// ---------------------------------------------------------------------------

/// A [`QuantizedMatrix`] packed into the blocked kernel's slab layout —
/// the i8 twin of [`PackedB`], a quarter of its panel bytes.
///
/// Built once per frozen model from the *stored* quantized values (never
/// by re-quantizing), so panels packed under any tier dequantize to the
/// same numbers: the scale grouping lives in the matrix
/// ([`crate::QUANT_GROUP`] columns), not the tier's slab width. Consumed
/// by [`crate::gemm_prepacked_quant`], which expands each k-block to f32
/// and runs the f32 macro-kernel over it — bit-identical to
/// [`crate::gemm_prepacked`] over a [`PackedB`] of the dequantized
/// matrix, on every tier.
pub struct QuantizedPackedB {
    k: usize,
    n: usize,
    tier: SimdTier,
    /// i8 slabs, one buffer per `KC` block.
    blocks: Vec<Vec<i8>>,
    /// Per-column dequant scales expanded to the padded slab width
    /// (`slabs * NR`; padding columns get scale 1.0 over value 0).
    scales: Vec<f32>,
}

impl QuantizedPackedB {
    /// Packs a quantized matrix into the active tier's slab layout.
    pub fn pack(q: &QuantizedMatrix) -> QuantizedPackedB {
        Self::pack_for_tier(q, active_tier())
    }

    /// [`QuantizedPackedB::pack`] with the tier pinned (bit-identity test
    /// seam).
    #[doc(hidden)]
    pub fn pack_for_tier(q: &QuantizedMatrix, tier: SimdTier) -> QuantizedPackedB {
        let nr = tier_nr(tier);
        let (k, n) = (q.k(), q.n());
        let mut scales = vec![1.0f32; n.div_ceil(nr) * nr];
        for (j, s) in scales.iter_mut().enumerate().take(n) {
            *s = q.scale_for_col(j);
        }
        QuantizedPackedB {
            k,
            n,
            tier,
            blocks: pack_q_blocks(q, nr),
            scales,
        }
    }

    /// The contraction length this packing was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The output width this packing was built for.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes the packed panels (plus expanded scales) occupy in memory —
    /// the serving-footprint column of the benches.
    pub fn panel_bytes(&self) -> usize {
        self.blocks.iter().map(|b| b.len()).sum::<usize>() + self.scales.len() * 4
    }

    /// Expands k-block `bi` (`kc` deep) into `dst` as f32, in the f32
    /// panels' slab layout: one correctly-rounded `q * scale` multiply per
    /// element.
    ///
    /// # Safety
    ///
    /// The running CPU must support `K`'s ISA, the panels were packed with
    /// `K`'s slab width, and `dst` holds the whole block.
    unsafe fn dequant_block<K: Micro>(&self, bi: usize, kc: usize, dst: &mut [f32]) {
        let slab = kc * K::NR;
        let slabs = self.blocks[bi]
            .chunks_exact(slab)
            .zip(self.scales.chunks_exact(K::NR));
        for ((q, s), d) in slabs.zip(dst.chunks_exact_mut(slab)) {
            // SAFETY: forwarded contract; every slab, its scales and its
            // destination are `chunks_exact` of the packer's sizes.
            unsafe { K::dequant_i8(kc, q, s, d) };
        }
    }
}

impl std::fmt::Debug for QuantizedPackedB {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantizedPackedB")
            .field("k", &self.k)
            .field("n", &self.n)
            .field("tier", &self.tier.name())
            .finish()
    }
}

/// The slab width of a tier's tile (its `Micro::NR`).
fn tier_nr(tier: SimdTier) -> usize {
    match tier {
        SimdTier::Scalar => 8,
        SimdTier::Avx2Fma => 16,
        SimdTier::Avx512F => 32,
        SimdTier::Neon => 8,
    }
}

/// Packs `q`'s `k x n` elements into per-`KC`-block slab layouts:
/// `ceil(n/nr)` slabs of `kc x nr`, zero-padded (0 is the encoding of 0.0).
fn pack_q_blocks(q: &QuantizedMatrix, nr: usize) -> Vec<Vec<i8>> {
    let (k, n) = (q.k(), q.n());
    let slabs = n.div_ceil(nr);
    let mut blocks = Vec::with_capacity(k.div_ceil(KC).max(1));
    let mut pc = 0;
    loop {
        let kc = KC.min(k - pc);
        let mut buf = vec![0i8; slabs * kc * nr];
        for t in 0..slabs {
            let j0 = t * nr;
            let cols = nr.min(n - j0);
            for p in 0..kc {
                let src = &q.data()[(pc + p) * n + j0..][..cols];
                let d = &mut buf[t * kc * nr + p * nr..][..cols];
                for (dj, &b) in d.iter_mut().zip(src) {
                    *dj = b as i8;
                }
            }
        }
        blocks.push(buf);
        pc += kc;
        if pc >= k {
            break;
        }
    }
    blocks
}

/// `C = ep(A · dequant(B))` against quantized prepacked panels — the
/// quantized twin of [`gemm_prepacked_impl`]: each k-block is expanded to
/// f32 in the per-thread `DEQ` scratch, then runs the same loop body
/// ([`prepacked_block`]) over it.
pub(crate) fn gemm_prepacked_quant_impl(
    m: usize,
    a: &[f32],
    qb: &QuantizedPackedB,
    c: &mut [f32],
    ep: Epilogue,
) {
    match qb.tier {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the packing's tier was selected by runtime detection.
        SimdTier::Avx2Fma => unsafe { gemm_prepacked_quant_t::<Avx2K>(m, a, qb, c, ep) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        SimdTier::Avx512F => unsafe { gemm_prepacked_quant_t::<Avx512K>(m, a, qb, c, ep) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: as above.
        SimdTier::Neon => unsafe { gemm_prepacked_quant_t::<NeonK>(m, a, qb, c, ep) },
        // SAFETY: the scalar kernel has no ISA requirements.
        _ => unsafe { gemm_prepacked_quant_t::<ScalarK>(m, a, qb, c, ep) },
    }
}

/// # Safety
///
/// The running CPU must support `K`'s ISA, and `qb` must have been packed
/// with `K`'s slab width.
unsafe fn gemm_prepacked_quant_t<K: Micro>(
    m: usize,
    a: &[f32],
    qb: &QuantizedPackedB,
    c: &mut [f32],
    ep: Epilogue,
) {
    let (k, n) = (qb.k, qb.n);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        return store_empty_product(c, n, ep);
    }
    let slabs = n.div_ceil(K::NR);
    DEQ.with(|cell| {
        let mut deq = cell.borrow_mut();
        deq.ensure_len(slabs * KC.min(k) * K::NR);
        for bi in 0..k.div_ceil(KC) {
            let kc = KC.min(k - bi * KC);
            // SAFETY: ISA and slab width vouched by this fn's caller; the
            // scratch holds a full k-block per `ensure_len` above.
            unsafe {
                qb.dequant_block::<K>(bi, kc, deq.as_mut_slice());
                prepacked_block::<K>(m, k, n, a, bi, deq.as_slice(), c, ep);
            }
        }
    });
}

/// Packs `kc` rows x `nc` columns of `B` into `ceil(nc/NR)` slabs, each
/// `kc x NR` in row-(`p`-)major order, zero-padding partial slabs. A
/// row-major `B` is copied a slab row at a time; a transposed one
/// (column-contiguous, `dx = dY·Wᵀ`) is gathered a slab row at a time from
/// the slab's column runs, each column's `kc` values read front to back.
fn pack_b<K: Micro>(b: MatRef, p0: usize, kc: usize, j0: usize, nc: usize, buf: &mut AVec) {
    let nr = K::NR;
    let slabs = nc.div_ceil(nr);
    buf.ensure_len(slabs * kc * nr);
    let dst = buf.as_mut_slice();
    for t in 0..slabs {
        let jt = j0 + t * nr;
        let cols = nr.min(nc - t * nr);
        let slab = &mut dst[t * kc * nr..(t + 1) * kc * nr];
        if b.cs == 1 {
            for (p, d) in slab.chunks_exact_mut(nr).enumerate() {
                let src = (p0 + p) * b.rs + jt;
                d[..cols].copy_from_slice(&b.data[src..src + cols]);
                d[cols..].fill(0.0);
            }
            continue;
        }
        debug_assert_eq!(b.rs, 1, "a strided view is row- or column-major");
        let col = |cj: usize| {
            let src = (jt + cj.min(cols - 1)) * b.cs + p0;
            &b.data[src..src + kc]
        };
        let srcs: [&[f32]; NR_MAX] = std::array::from_fn(col);
        for (p, d) in slab.chunks_exact_mut(nr).enumerate() {
            for (dj, src) in d[..cols].iter_mut().zip(&srcs) {
                *dj = src[p];
            }
            d[cols..].fill(0.0);
        }
    }
}

/// Packs the ragged last strip of a column-major (transposed) `A` block —
/// its `rows < MR` rows from row `i0`, columns `p0 .. p0 + kc` — into one
/// `kc x MR` strip in `p`-major order, zero-padded. Full strips are read
/// in place ([`APanel::Cols`]): at each `p` their `MR` values are
/// contiguous.
fn pack_a_edge<K: Micro>(a: MatRef, i0: usize, rows: usize, p0: usize, kc: usize, buf: &mut AVec) {
    let mr = K::MR;
    buf.ensure_len(kc * mr);
    for (p, d) in buf.as_mut_slice()[..kc * mr]
        .chunks_exact_mut(mr)
        .enumerate()
    {
        let src = (p0 + p) * a.cs + i0;
        d[..rows].copy_from_slice(&a.data[src..src + rows]);
        d[rows..].fill(0.0);
    }
}

/// Where [`macro_body`] reads its `A` block from. Either way `A` is read
/// where it lies; only a column-major block's ragged last strip is copied.
/// (Measured against packing every strip with one fixed-length copy per
/// step: reading in place was as fast or faster at every training shape,
/// `k` from 48 to 1024, on a 48 KiB-L1 host.)
#[derive(Clone, Copy)]
enum APanel<'a> {
    /// Row-major rows read in place: row `i`'s k-block is
    /// `data[i * rs..][..kc]`.
    Rows { data: &'a [f32], rs: usize },
    /// Column-major rows (a transposed view) read in place: the strip at
    /// row `i0` holds its `MR` values for step `p` at
    /// `data[p * cs + i0..][..MR]` — the packed-strip layout at stride
    /// `cs`. A strip of fewer than `MR` rows reads `edge` instead, the
    /// zero-padded `kc x MR` strip [`pack_a_edge`] made of it.
    Cols {
        data: &'a [f32],
        cs: usize,
        edge: &'a [f32],
    },
}

/// The row slices `tile_direct` streams for the strip starting at row
/// `i0` of row-major `data` (rows `rs` apart, already offset to the
/// k-block's first column). Edge strips re-read row `i0` in the dead
/// lanes `r >= mr`; those accumulator rows are never written back.
#[inline(always)]
fn a_rows(data: &[f32], rs: usize, i0: usize, mr: usize, kc: usize) -> [&[f32]; MR_MAX] {
    std::array::from_fn(|r| {
        let at = (i0 + if r < mr { r } else { 0 }) * rs;
        &data[at..at + kc]
    })
}

/// Runs the register-tile micro-kernel over every `MR x NR` tile of one
/// `A`-block x packed-`B`-panel pair. `c` points at the block's top-left
/// element inside the full output (leading dimension `ldc`). The one loop
/// body every tier runs, through its [`Micro::macro_kernel`]:
/// `#[inline(always)]`, so it compiles under that tier's target features.
///
/// # Safety
///
/// The running CPU must support `K`'s ISA; panels must be packed with
/// `K`'s dimensions.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn macro_body<K: Micro>(
    mc: usize,
    nc: usize,
    kc: usize,
    a: APanel,
    bpack: &[f32],
    c: &mut [f32],
    ldc: usize,
    store: bool,
    ep: Epilogue,
) {
    let strips = mc.div_ceil(K::MR);
    let slabs = nc.div_ceil(K::NR);
    for t in 0..slabs {
        let bslab = &bpack[t * kc * K::NR..(t + 1) * kc * K::NR];
        let j0 = t * K::NR;
        let nr = K::NR.min(nc - j0);
        for s in 0..strips {
            let i0 = s * K::MR;
            let mr = K::MR.min(mc - i0);
            // SAFETY: ISA vouched by caller; panel sizes per the packers,
            // row slices per `a_rows`.
            let acc = unsafe {
                match a {
                    APanel::Cols { data, cs, .. } if mr == K::MR => {
                        K::tile(kc, &data[i0..], cs, bslab)
                    }
                    APanel::Cols { edge, .. } => K::tile(kc, edge, K::MR, bslab),
                    APanel::Rows { data, rs } => {
                        K::tile_direct(kc, &a_rows(data, rs, i0, mr, kc), bslab)
                    }
                }
            };
            // Edge tiles: an edge strip is zero-padded and dead direct
            // lanes re-read a live row, so the full tile is always valid —
            // write back only the live corner. The epilogue (set only on
            // the final k-block) applies here, so fused scale / bias /
            // activation cost no extra pass.
            // SAFETY: ISA vouched by caller.
            unsafe {
                acc.write_back(mr, nr, &mut c[i0 * ldc + j0..], ldc, j0, store, ep);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar tier: portable fallback and bit-identity oracle.
// ---------------------------------------------------------------------------

/// The portable tier. Every multiply-add is `f32::mul_add` — a single
/// correctly-rounded fused operation, the exact op the SIMD tiles issue —
/// so this kernel *defines* the numbers every other tier must reproduce.
struct ScalarK;

impl Micro for ScalarK {
    const MR: usize = 4;
    const NR: usize = 8;
    type Acc = Tile;

    #[inline(always)]
    unsafe fn tile(kc: usize, astrip: &[f32], lda: usize, bslab: &[f32]) -> Tile {
        let mut acc = [[0.0f32; TILE_NR]; MR_MAX];
        for p in 0..kc {
            let av = &astrip[p * lda..p * lda + Self::MR];
            let bv = &bslab[p * Self::NR..(p + 1) * Self::NR];
            for (accrow, &ar) in acc.iter_mut().zip(av) {
                for (s, &bc) in accrow.iter_mut().zip(bv) {
                    *s = ar.mul_add(bc, *s);
                }
            }
        }
        acc
    }

    #[inline(always)]
    unsafe fn tile_direct(kc: usize, ar: &[&[f32]; MR_MAX], bslab: &[f32]) -> Tile {
        let mut acc = [[0.0f32; TILE_NR]; MR_MAX];
        for p in 0..kc {
            let bv = &bslab[p * Self::NR..(p + 1) * Self::NR];
            for (accrow, arow) in acc.iter_mut().zip(ar).take(Self::MR) {
                let av = arow[p];
                for (s, &bc) in accrow.iter_mut().zip(bv) {
                    *s = av.mul_add(bc, *s);
                }
            }
        }
        acc
    }

    unsafe fn naive(
        m: usize,
        n: usize,
        k: usize,
        a: MatRef,
        b: MatRef,
        c: &mut [f32],
        acc: bool,
        ep: Epilogue,
    ) {
        naive_body(m, n, k, a, b, c, acc, ep)
    }
}

// ---------------------------------------------------------------------------
// AVX2 + FMA tier (x86_64).
// ---------------------------------------------------------------------------

/// x86_64 tier: an explicit 6x16 register tile (12 `ymm` accumulators, two
/// B vectors and one broadcast in flight) built from `_mm256_fmadd_ps`.
/// Per element the operation sequence is identical to [`ScalarK`]'s:
/// one fused multiply-add per `k` step, ascending `k`.
#[cfg(target_arch = "x86_64")]
struct Avx2K;

/// The AVX2 tile's accumulators: row `r`'s columns `0..8` and `8..16`.
#[cfg(target_arch = "x86_64")]
type Avx2Acc = [[std::arch::x86_64::__m256; 2]; 6];

#[cfg(target_arch = "x86_64")]
impl TileAcc for Avx2Acc {
    #[inline]
    unsafe fn write_back(
        &self,
        mr: usize,
        nr: usize,
        c: &mut [f32],
        ldc: usize,
        j0: usize,
        store: bool,
        ep: Epilogue,
    ) {
        // SAFETY: caller guarantees AVX2+FMA.
        unsafe { avx2_write_back(self, mr, nr, c, ldc, j0, store, ep) }
    }
}

#[cfg(target_arch = "x86_64")]
impl Micro for Avx2K {
    const MR: usize = 6;
    const NR: usize = 16;
    type Acc = Avx2Acc;

    #[inline]
    unsafe fn tile(kc: usize, astrip: &[f32], lda: usize, bslab: &[f32]) -> Avx2Acc {
        // SAFETY: caller guarantees AVX2+FMA and panel sizes.
        unsafe { avx2_tile(kc, astrip, lda, bslab) }
    }

    #[inline]
    unsafe fn tile_direct(kc: usize, ar: &[&[f32]; MR_MAX], bslab: &[f32]) -> Avx2Acc {
        // SAFETY: caller guarantees AVX2+FMA and slice lengths.
        unsafe { avx2_tile_direct(kc, ar, bslab) }
    }

    #[inline]
    unsafe fn naive(
        m: usize,
        n: usize,
        k: usize,
        a: MatRef,
        b: MatRef,
        c: &mut [f32],
        acc: bool,
        ep: Epilogue,
    ) {
        // SAFETY: caller guarantees AVX2+FMA.
        unsafe { avx2_naive(m, n, k, a, b, c, acc, ep) }
    }

    #[inline]
    unsafe fn dequant_i8(kc: usize, bslab: &[i8], scales: &[f32], dst: &mut [f32]) {
        // SAFETY: caller guarantees AVX2+FMA and slice lengths.
        unsafe { avx2_dequant_i8::<16>(kc, bslab, scales, dst) }
    }

    #[inline]
    unsafe fn macro_kernel(
        mc: usize,
        nc: usize,
        kc: usize,
        a: APanel,
        bpack: &[f32],
        c: &mut [f32],
        ldc: usize,
        store: bool,
        ep: Epilogue,
    ) {
        // SAFETY: caller guarantees AVX2+FMA and panel sizes.
        unsafe { avx2_macro_kernel(mc, nc, kc, a, bpack, c, ldc, store, ep) }
    }
}

/// [`macro_body`] compiled with AVX2+FMA enabled: the FMA tile and
/// [`avx2_write_back`] inline into the tile loop, so the accumulators go
/// from the last `k` step to `C` without leaving their registers.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx2_macro_kernel(
    mc: usize,
    nc: usize,
    kc: usize,
    a: APanel,
    bpack: &[f32],
    c: &mut [f32],
    ldc: usize,
    store: bool,
    ep: Epilogue,
) {
    // SAFETY: forwarded contract.
    unsafe { macro_body::<Avx2K>(mc, nc, kc, a, bpack, c, ldc, store, ep) }
}

/// [`TileAcc::write_back`] straight from the accumulators. Every full
/// 8-column half finishes in its `ymm` ([`avx2_finish`]): `+ C` when
/// accumulating, `* scale`, `+ bias`, the activation, store — per lane the
/// ops of the [`Tile`] write-back, in its order. A full-width tile (the
/// common case) runs as straight-line code over constant indices, so the
/// accumulators never leave their registers; a ragged one goes to
/// [`avx2_write_back_halves`].
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx2_write_back(
    acc: &Avx2Acc,
    mr: usize,
    nr: usize,
    c: &mut [f32],
    ldc: usize,
    j0: usize,
    store: bool,
    ep: Epilogue,
) {
    use std::arch::x86_64::*;
    if nr != Avx2K::NR {
        // SAFETY: forwarded contract.
        return unsafe { avx2_write_back_halves(*acc, mr, nr, c, ldc, j0, store, ep) };
    }
    assert!((1..=Avx2K::MR).contains(&mr) && c.len() >= (mr - 1) * ldc + Avx2K::NR);
    let scale = ep.scale.map(|s| _mm256_set1_ps(s));
    // SAFETY: the loads read a bounds-checked 16-element slice.
    let bias = ep.bias.map(|b| {
        let b = &b[j0..j0 + Avx2K::NR];
        unsafe {
            [
                _mm256_loadu_ps(b.as_ptr()),
                _mm256_loadu_ps(b[8..].as_ptr()),
            ]
        }
    });
    for (r, accr) in acc.iter().enumerate() {
        if r == mr {
            break;
        }
        for (h, &v) in accr.iter().enumerate() {
            // SAFETY: row `r < mr`, columns `8h..8h + 8 <= NR`: inside `c`
            // per the assert above.
            unsafe {
                let cp = c.as_mut_ptr().add(r * ldc + 8 * h);
                avx2_finish(v, cp, store, scale, bias.map(|b| b[h]), ep.act);
            }
        }
    }
}

/// One `ymm` of a finished tile, written to the 8 floats at `cp`.
/// `_mm256_max_ps(v, 0)` returns its second operand for a NaN or `-0.0`
/// first one, which is what `v.max(0.0)` compiles to on this target (the
/// epilogue-oracle suite pins both against the scalar tier); `Tanh` /
/// `Sigmoid` are [`crate::math`]'s eight-lane forms, bit-equal to the
/// scalar oracles [`Activation::apply`] calls.
///
/// # Safety
///
/// AVX2+FMA; `cp` is valid for 8 reads and writes.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx2_finish(
    mut v: std::arch::x86_64::__m256,
    cp: *mut f32,
    store: bool,
    scale: Option<std::arch::x86_64::__m256>,
    bias: Option<std::arch::x86_64::__m256>,
    act: Activation,
) {
    use std::arch::x86_64::*;
    // SAFETY: `cp` per the contract.
    unsafe {
        if !store {
            v = _mm256_add_ps(_mm256_loadu_ps(cp), v);
        }
        if let Some(s) = scale {
            v = _mm256_mul_ps(v, s);
        }
        if let Some(b) = bias {
            v = _mm256_add_ps(v, b);
        }
        v = match act {
            Activation::Identity => v,
            Activation::Relu => _mm256_max_ps(v, _mm256_setzero_ps()),
            _ => avx2_transcendental(v, act),
        };
        _mm256_storeu_ps(cp, v);
    }
}

/// `Tanh` / `Sigmoid` of one `ymm`, kept out of line so the straight-line
/// `Identity` / `Relu` write-back does not carry twelve inlined copies.
#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx2_transcendental(
    v: std::arch::x86_64::__m256,
    act: Activation,
) -> std::arch::x86_64::__m256 {
    use crate::math::avx2;
    // SAFETY: AVX2+FMA, per this function's own target features.
    unsafe {
        match act {
            Activation::Sigmoid => avx2::sigmoid8(v),
            _ => avx2::tanh8(v),
        }
    }
}

/// The ragged-`nr` rest of [`avx2_write_back`], half by half. A full half
/// still finishes in its register ([`avx2_finish`]); a ragged half
/// (`nr % 8` columns) is not worth masking, so it spills to an 8-lane stack
/// row and goes through [`write_back_row`].
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[inline(never)]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx2_write_back_halves(
    acc: Avx2Acc,
    mr: usize,
    nr: usize,
    c: &mut [f32],
    ldc: usize,
    j0: usize,
    store: bool,
    ep: Epilogue,
) {
    use std::arch::x86_64::*;
    let scale = ep.scale.map(|s| _mm256_set1_ps(s));
    for (h, j) in (0..nr).step_by(8).enumerate() {
        let lanes = 8.min(nr - j);
        for (r, accr) in acc.iter().take(mr).enumerate() {
            let cv = &mut c[r * ldc + j..r * ldc + j + lanes];
            if lanes == 8 {
                // SAFETY: the load reads a bounds-checked 8-element slice.
                let bias = ep
                    .bias
                    .map(|b| unsafe { _mm256_loadu_ps(b[j0 + j..j0 + j + 8].as_ptr()) });
                // SAFETY: `cv` is a bounds-checked 8-element slice.
                unsafe { avx2_finish(accr[h], cv.as_mut_ptr(), store, scale, bias, ep.act) };
            } else {
                let mut spill = [0.0f32; 8];
                // SAFETY: `spill` holds exactly one ymm.
                unsafe { _mm256_storeu_ps(spill.as_mut_ptr(), accr[h]) };
                write_back_row(cv, &spill[..lanes], j0 + j, store, ep);
            }
        }
    }
}

/// [`Micro::dequant_i8`] on AVX2 for a slab `NR` (a multiple of 16)
/// wide: 16 bytes at a time, sign-extended to two epi32 octets, converted
/// exactly, then one `_mm256_mul_ps` by the column scales (the scalar
/// tier's correctly-rounded multiply).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx2_dequant_i8<const NR: usize>(
    kc: usize,
    bslab: &[i8],
    scales: &[f32],
    dst: &mut [f32],
) {
    use std::arch::x86_64::*;
    debug_assert!(NR.is_multiple_of(16));
    debug_assert!(bslab.len() >= kc * NR);
    debug_assert!(dst.len() >= kc * NR);
    debug_assert!(scales.len() >= NR);
    let bp = bslab.as_ptr();
    let dp = dst.as_mut_ptr();
    for j in (0..NR).step_by(16) {
        // SAFETY: `scales` holds at least NR elements.
        let (s0, s1) = unsafe {
            (
                _mm256_loadu_ps(scales.as_ptr().add(j)),
                _mm256_loadu_ps(scales.as_ptr().add(j + 8)),
            )
        };
        for p in 0..kc {
            // SAFETY: in-bounds per the slab/scratch contract.
            unsafe {
                let at = p * NR + j;
                let raw = _mm_loadu_si128(bp.add(at) as *const __m128i);
                let lo = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(raw));
                let hi = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_srli_si128::<8>(raw)));
                _mm256_storeu_ps(dp.add(at), _mm256_mul_ps(lo, s0));
                _mm256_storeu_ps(dp.add(at + 8), _mm256_mul_ps(hi, s1));
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx2_tile(kc: usize, astrip: &[f32], lda: usize, bslab: &[f32]) -> Avx2Acc {
    use std::arch::x86_64::*;
    debug_assert!(kc == 0 || astrip.len() >= (kc - 1) * lda + Avx2K::MR);
    debug_assert!(bslab.len() >= kc * Avx2K::NR);
    let mut acc = [[_mm256_setzero_ps(); 2]; 6];
    let ap = astrip.as_ptr();
    let bp = bslab.as_ptr();
    for p in 0..kc {
        // SAFETY: in-bounds per the panel-size contract.
        let (b0, b1) = unsafe {
            (
                _mm256_loadu_ps(bp.add(p * 16)),
                _mm256_loadu_ps(bp.add(p * 16 + 8)),
            )
        };
        for (r, accr) in acc.iter_mut().enumerate() {
            // SAFETY: in-bounds per the panel-size contract.
            let a = unsafe { _mm256_set1_ps(*ap.add(p * lda + r)) };
            accr[0] = _mm256_fmadd_ps(a, b0, accr[0]);
            accr[1] = _mm256_fmadd_ps(a, b1, accr[1]);
        }
    }
    acc
}

#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx2_tile_direct(kc: usize, ar: &[&[f32]; MR_MAX], bslab: &[f32]) -> Avx2Acc {
    use std::arch::x86_64::*;
    debug_assert!(bslab.len() >= kc * Avx2K::NR);
    debug_assert!(ar.iter().take(Avx2K::MR).all(|r| r.len() >= kc));
    let mut acc = [[_mm256_setzero_ps(); 2]; 6];
    let bp = bslab.as_ptr();
    let aptr: [*const f32; 6] = std::array::from_fn(|r| ar[r].as_ptr());
    for p in 0..kc {
        // SAFETY: in-bounds per the slice-length contract.
        let (b0, b1) = unsafe {
            (
                _mm256_loadu_ps(bp.add(p * 16)),
                _mm256_loadu_ps(bp.add(p * 16 + 8)),
            )
        };
        for (accr, &apr) in acc.iter_mut().zip(&aptr) {
            // SAFETY: each row holds at least `kc` elements.
            let a = unsafe { _mm256_set1_ps(*apr.add(p)) };
            accr[0] = _mm256_fmadd_ps(a, b0, accr[0]);
            accr[1] = _mm256_fmadd_ps(a, b1, accr[1]);
        }
    }
    acc
}

/// The naive body re-compiled with AVX2+FMA enabled, so `f32::mul_add`
/// lowers to vectorized `vfmadd` instead of a per-element libm call.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx2_naive(
    m: usize,
    n: usize,
    k: usize,
    a: MatRef,
    b: MatRef,
    c: &mut [f32],
    acc: bool,
    ep: Epilogue,
) {
    naive_body(m, n, k, a, b, c, acc, ep)
}

// ---------------------------------------------------------------------------
// AVX-512F tier (x86_64).
// ---------------------------------------------------------------------------

/// x86_64 tier: an explicit 8x32 register tile (16 `zmm` accumulators, two
/// B vectors and one broadcast in flight, of the 32 `zmm` registers) built
/// from `_mm512_fmadd_ps`. Per element the operation sequence is identical
/// to [`ScalarK`]'s: one fused multiply-add per `k` step, ascending `k`.
/// Everything that is not the tile — the tiny-product loop, the i8
/// dequantization, the transcendental write-back — runs the AVX2 tier's
/// code, which the CPU supports too (detection requires it).
#[cfg(target_arch = "x86_64")]
struct Avx512K;

/// The AVX-512 tile's accumulators: row `r`'s columns `0..16` and `16..32`.
#[cfg(target_arch = "x86_64")]
type Avx512Acc = [[std::arch::x86_64::__m512; 2]; Avx512K::MR];

#[cfg(target_arch = "x86_64")]
impl TileAcc for Avx512Acc {
    #[inline]
    unsafe fn write_back(
        &self,
        mr: usize,
        nr: usize,
        c: &mut [f32],
        ldc: usize,
        j0: usize,
        store: bool,
        ep: Epilogue,
    ) {
        // SAFETY: caller guarantees AVX-512F, AVX2 and FMA.
        unsafe { avx512_write_back(self, mr, nr, c, ldc, j0, store, ep) }
    }
}

#[cfg(target_arch = "x86_64")]
impl Micro for Avx512K {
    const MR: usize = 8;
    const NR: usize = 32;
    type Acc = Avx512Acc;

    #[inline]
    unsafe fn tile(kc: usize, astrip: &[f32], lda: usize, bslab: &[f32]) -> Avx512Acc {
        // SAFETY: caller guarantees AVX-512F and panel sizes.
        unsafe { avx512_tile(kc, astrip, lda, bslab) }
    }

    #[inline]
    unsafe fn tile_direct(kc: usize, ar: &[&[f32]; MR_MAX], bslab: &[f32]) -> Avx512Acc {
        // SAFETY: caller guarantees AVX-512F and slice lengths.
        unsafe { avx512_tile_direct(kc, ar, bslab) }
    }

    #[inline]
    unsafe fn naive(
        m: usize,
        n: usize,
        k: usize,
        a: MatRef,
        b: MatRef,
        c: &mut [f32],
        acc: bool,
        ep: Epilogue,
    ) {
        // SAFETY: caller guarantees AVX2+FMA (detection requires both).
        unsafe { avx2_naive(m, n, k, a, b, c, acc, ep) }
    }

    #[inline]
    unsafe fn dequant_i8(kc: usize, bslab: &[i8], scales: &[f32], dst: &mut [f32]) {
        // SAFETY: caller guarantees AVX2+FMA and slice lengths.
        unsafe { avx2_dequant_i8::<32>(kc, bslab, scales, dst) }
    }

    #[inline]
    unsafe fn macro_kernel(
        mc: usize,
        nc: usize,
        kc: usize,
        a: APanel,
        bpack: &[f32],
        c: &mut [f32],
        ldc: usize,
        store: bool,
        ep: Epilogue,
    ) {
        // SAFETY: caller guarantees AVX-512F, AVX2, FMA and panel sizes.
        unsafe { avx512_macro_kernel(mc, nc, kc, a, bpack, c, ldc, store, ep) }
    }
}

/// [`macro_body`] compiled with AVX-512F enabled: the tile and
/// [`avx512_write_back`] inline into the tile loop, so the accumulators go
/// from the last `k` step to `C` without leaving their registers.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn avx512_macro_kernel(
    mc: usize,
    nc: usize,
    kc: usize,
    a: APanel,
    bpack: &[f32],
    c: &mut [f32],
    ldc: usize,
    store: bool,
    ep: Epilogue,
) {
    // SAFETY: forwarded contract.
    unsafe { macro_body::<Avx512K>(mc, nc, kc, a, bpack, c, ldc, store, ep) }
}

/// [`TileAcc::write_back`] straight from the accumulators, as
/// [`avx2_write_back`] does with sixteen lanes: every full 16-column half
/// finishes in its `zmm` ([`avx512_finish`]). A full-width tile runs as
/// straight-line code; a ragged one goes to [`avx512_write_back_halves`].
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[inline]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn avx512_write_back(
    acc: &Avx512Acc,
    mr: usize,
    nr: usize,
    c: &mut [f32],
    ldc: usize,
    j0: usize,
    store: bool,
    ep: Epilogue,
) {
    use std::arch::x86_64::*;
    if nr != Avx512K::NR {
        // SAFETY: forwarded contract.
        return unsafe { avx512_write_back_halves(*acc, mr, nr, c, ldc, j0, store, ep) };
    }
    assert!((1..=Avx512K::MR).contains(&mr) && c.len() >= (mr - 1) * ldc + Avx512K::NR);
    let scale = ep.scale.map(|s| _mm512_set1_ps(s));
    // SAFETY: the loads read a bounds-checked 32-element slice.
    let bias = ep.bias.map(|b| {
        let b = &b[j0..j0 + Avx512K::NR];
        unsafe {
            [
                _mm512_loadu_ps(b.as_ptr()),
                _mm512_loadu_ps(b[16..].as_ptr()),
            ]
        }
    });
    for (r, accr) in acc.iter().enumerate() {
        if r == mr {
            break;
        }
        for (h, &v) in accr.iter().enumerate() {
            // SAFETY: row `r < mr`, columns `16h..16h + 16 <= NR`: inside
            // `c` per the assert above.
            unsafe {
                let cp = c.as_mut_ptr().add(r * ldc + 16 * h);
                let cv = (!store).then(|| _mm512_loadu_ps(cp));
                let v = avx512_finish(v, cv, scale, bias.map(|b| b[h]), ep.act);
                _mm512_storeu_ps(cp, v);
            }
        }
    }
}

/// One `zmm` of a finished tile, given the 16 `C` values it accumulates
/// onto (`cv`, when not storing): [`avx2_finish`]'s operations in its
/// order, sixteen lanes at a time (`_mm512_max_ps` has `_mm256_max_ps`'s
/// NaN and `-0.0` rule). `Tanh` / `Sigmoid` run [`avx2_transcendental`] on
/// each eight-lane half.
///
/// # Safety
///
/// AVX-512F, AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn avx512_finish(
    mut v: std::arch::x86_64::__m512,
    cv: Option<std::arch::x86_64::__m512>,
    scale: Option<std::arch::x86_64::__m512>,
    bias: Option<std::arch::x86_64::__m512>,
    act: Activation,
) -> std::arch::x86_64::__m512 {
    use std::arch::x86_64::*;
    if let Some(cv) = cv {
        v = _mm512_add_ps(cv, v);
    }
    if let Some(s) = scale {
        v = _mm512_mul_ps(v, s);
    }
    if let Some(b) = bias {
        v = _mm512_add_ps(v, b);
    }
    match act {
        Activation::Identity => v,
        Activation::Relu => _mm512_max_ps(v, _mm512_setzero_ps()),
        // SAFETY: AVX2+FMA, per this function's own target features.
        _ => unsafe { avx512_transcendental(v, act) },
    }
}

/// `Tanh` / `Sigmoid` of one `zmm`: [`avx2_transcendental`] on its low and
/// high eight lanes. Out of line, as on AVX2.
#[cfg(target_arch = "x86_64")]
#[inline(never)]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn avx512_transcendental(
    v: std::arch::x86_64::__m512,
    act: Activation,
) -> std::arch::x86_64::__m512 {
    // SAFETY: AVX-512F, AVX2 and FMA, per this function's own target
    // features.
    unsafe { crate::math::avx2::on_halves(v, |h| avx2_transcendental(h, act)) }
}

/// The ragged-`nr` rest of [`avx512_write_back`], half by half. A full
/// half finishes in its register as there; a ragged half (`nr % 16`
/// columns) does too, its `C` and bias lanes read and its result written
/// under a lane mask, so no lane past `nr` is touched.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[inline(never)]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn avx512_write_back_halves(
    acc: Avx512Acc,
    mr: usize,
    nr: usize,
    c: &mut [f32],
    ldc: usize,
    j0: usize,
    store: bool,
    ep: Epilogue,
) {
    use std::arch::x86_64::*;
    let scale = ep.scale.map(|s| _mm512_set1_ps(s));
    for (h, j) in (0..nr).step_by(16).enumerate() {
        let lanes = 16.min(nr - j);
        let mask: __mmask16 = ((1u32 << lanes) - 1) as __mmask16;
        // SAFETY: the masked load reads the `lanes` elements of a
        // bounds-checked slice.
        let bias = ep
            .bias
            .map(|b| unsafe { _mm512_maskz_loadu_ps(mask, b[j0 + j..j0 + j + lanes].as_ptr()) });
        for (r, accr) in acc.iter().take(mr).enumerate() {
            let cv = &mut c[r * ldc + j..r * ldc + j + lanes];
            // SAFETY: the masked load and store touch the `lanes` elements
            // of the bounds-checked slice `cv`.
            unsafe {
                let cp = cv.as_mut_ptr();
                let old = (!store).then(|| _mm512_maskz_loadu_ps(mask, cp));
                let v = avx512_finish(accr[h], old, scale, bias, ep.act);
                _mm512_mask_storeu_ps(cp, mask, v);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn avx512_tile(kc: usize, astrip: &[f32], lda: usize, bslab: &[f32]) -> Avx512Acc {
    use std::arch::x86_64::*;
    debug_assert!(kc == 0 || astrip.len() >= (kc - 1) * lda + Avx512K::MR);
    debug_assert!(bslab.len() >= kc * Avx512K::NR);
    let mut acc = [[_mm512_setzero_ps(); 2]; Avx512K::MR];
    let ap = astrip.as_ptr();
    let bp = bslab.as_ptr();
    for p in 0..kc {
        // SAFETY: in-bounds per the panel-size contract.
        let (b0, b1) = unsafe {
            (
                _mm512_loadu_ps(bp.add(p * 32)),
                _mm512_loadu_ps(bp.add(p * 32 + 16)),
            )
        };
        for (r, accr) in acc.iter_mut().enumerate() {
            // SAFETY: in-bounds per the panel-size contract.
            let a = unsafe { _mm512_set1_ps(*ap.add(p * lda + r)) };
            accr[0] = _mm512_fmadd_ps(a, b0, accr[0]);
            accr[1] = _mm512_fmadd_ps(a, b1, accr[1]);
        }
    }
    acc
}

#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn avx512_tile_direct(kc: usize, ar: &[&[f32]; MR_MAX], bslab: &[f32]) -> Avx512Acc {
    use std::arch::x86_64::*;
    debug_assert!(bslab.len() >= kc * Avx512K::NR);
    debug_assert!(ar.iter().take(Avx512K::MR).all(|r| r.len() >= kc));
    let mut acc = [[_mm512_setzero_ps(); 2]; Avx512K::MR];
    let bp = bslab.as_ptr();
    let aptr: [*const f32; Avx512K::MR] = std::array::from_fn(|r| ar[r].as_ptr());
    for p in 0..kc {
        // SAFETY: in-bounds per the slice-length contract.
        let (b0, b1) = unsafe {
            (
                _mm512_loadu_ps(bp.add(p * 32)),
                _mm512_loadu_ps(bp.add(p * 32 + 16)),
            )
        };
        for (accr, &apr) in acc.iter_mut().zip(&aptr) {
            // SAFETY: each row holds at least `kc` elements.
            let a = unsafe { _mm512_set1_ps(*apr.add(p)) };
            accr[0] = _mm512_fmadd_ps(a, b0, accr[0]);
            accr[1] = _mm512_fmadd_ps(a, b1, accr[1]);
        }
    }
    acc
}

// ---------------------------------------------------------------------------
// NEON tier (aarch64).
// ---------------------------------------------------------------------------

/// aarch64 tier: an explicit 4x8 register tile (8 `q` accumulators) built
/// from `vfmaq_f32`. Same per-element fused-op sequence as [`ScalarK`].
#[cfg(target_arch = "aarch64")]
struct NeonK;

#[cfg(target_arch = "aarch64")]
impl Micro for NeonK {
    const MR: usize = 4;
    const NR: usize = 8;
    type Acc = Tile;

    #[inline]
    unsafe fn tile(kc: usize, astrip: &[f32], lda: usize, bslab: &[f32]) -> Tile {
        // SAFETY: caller guarantees NEON and panel sizes.
        unsafe { neon_tile(kc, astrip, lda, bslab) }
    }

    #[inline]
    unsafe fn tile_direct(kc: usize, ar: &[&[f32]; MR_MAX], bslab: &[f32]) -> Tile {
        // SAFETY: caller guarantees NEON and slice lengths.
        unsafe { neon_tile_direct(kc, ar, bslab) }
    }

    #[inline]
    unsafe fn naive(
        m: usize,
        n: usize,
        k: usize,
        a: MatRef,
        b: MatRef,
        c: &mut [f32],
        acc: bool,
        ep: Epilogue,
    ) {
        // aarch64's baseline includes NEON+FMA: `mul_add` is native.
        naive_body(m, n, k, a, b, c, acc, ep)
    }

    #[inline]
    unsafe fn dequant_i8(kc: usize, bslab: &[i8], scales: &[f32], dst: &mut [f32]) {
        // SAFETY: caller guarantees NEON and slice lengths.
        unsafe { neon_dequant_i8(kc, bslab, scales, dst) }
    }
}

/// [`Micro::dequant_i8`] on NEON: 8 bytes a row, widened to two s32
/// quads, converted exactly, then one `vmulq_f32` by the column scales.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn neon_dequant_i8(kc: usize, bslab: &[i8], scales: &[f32], dst: &mut [f32]) {
    use std::arch::aarch64::*;
    debug_assert!(bslab.len() >= kc * NeonK::NR);
    debug_assert!(dst.len() >= kc * NeonK::NR);
    debug_assert!(scales.len() >= NeonK::NR);
    let bp = bslab.as_ptr();
    let dp = dst.as_mut_ptr();
    // SAFETY: `scales` holds at least NR = 8 elements.
    let (s0, s1) = unsafe {
        (
            vld1q_f32(scales.as_ptr()),
            vld1q_f32(scales.as_ptr().add(4)),
        )
    };
    for p in 0..kc {
        // SAFETY: in-bounds per the slab/scratch contract.
        unsafe {
            let wide = vmovl_s8(vld1_s8(bp.add(p * 8)));
            let b0 = vmulq_f32(vcvtq_f32_s32(vmovl_s16(vget_low_s16(wide))), s0);
            let b1 = vmulq_f32(vcvtq_f32_s32(vmovl_s16(vget_high_s16(wide))), s1);
            vst1q_f32(dp.add(p * 8), b0);
            vst1q_f32(dp.add(p * 8 + 4), b1);
        }
    }
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn neon_tile(kc: usize, astrip: &[f32], lda: usize, bslab: &[f32]) -> Tile {
    use std::arch::aarch64::*;
    debug_assert!(kc == 0 || astrip.len() >= (kc - 1) * lda + NeonK::MR);
    debug_assert!(bslab.len() >= kc * NeonK::NR);
    let mut acc = [[vdupq_n_f32(0.0); 2]; 4];
    let ap = astrip.as_ptr();
    let bp = bslab.as_ptr();
    for p in 0..kc {
        // SAFETY: in-bounds per the panel-size contract.
        let (b0, b1) = unsafe { (vld1q_f32(bp.add(p * 8)), vld1q_f32(bp.add(p * 8 + 4))) };
        for (r, accr) in acc.iter_mut().enumerate() {
            // SAFETY: in-bounds per the panel-size contract.
            let a = unsafe { vdupq_n_f32(*ap.add(p * lda + r)) };
            accr[0] = vfmaq_f32(accr[0], a, b0);
            accr[1] = vfmaq_f32(accr[1], a, b1);
        }
    }
    neon_spill(&acc)
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn neon_tile_direct(kc: usize, ar: &[&[f32]; MR_MAX], bslab: &[f32]) -> Tile {
    use std::arch::aarch64::*;
    debug_assert!(bslab.len() >= kc * NeonK::NR);
    debug_assert!(ar.iter().take(NeonK::MR).all(|r| r.len() >= kc));
    let mut acc = [[vdupq_n_f32(0.0); 2]; 4];
    let bp = bslab.as_ptr();
    let aptr: [*const f32; 4] = std::array::from_fn(|r| ar[r].as_ptr());
    for p in 0..kc {
        // SAFETY: in-bounds per the slice-length contract.
        let (b0, b1) = unsafe { (vld1q_f32(bp.add(p * 8)), vld1q_f32(bp.add(p * 8 + 4))) };
        for (accr, &apr) in acc.iter_mut().zip(&aptr) {
            // SAFETY: each row holds at least `kc` elements.
            let a = unsafe { vdupq_n_f32(*apr.add(p)) };
            accr[0] = vfmaq_f32(accr[0], a, b0);
            accr[1] = vfmaq_f32(accr[1], a, b1);
        }
    }
    neon_spill(&acc)
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn neon_spill(acc: &[[std::arch::aarch64::float32x4_t; 2]; 4]) -> Tile {
    use std::arch::aarch64::*;
    let mut out = [[0.0f32; TILE_NR]; MR_MAX];
    for (r, accr) in acc.iter().enumerate() {
        // SAFETY: each Tile row holds TILE_NR = 16 f32, more than two q regs.
        unsafe {
            vst1q_f32(out[r].as_mut_ptr(), accr[0]);
            vst1q_f32(out[r].as_mut_ptr().add(4), accr[1]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: textbook triple loop on strided views.
    fn reference(m: usize, n: usize, k: usize, a: MatRef, b: MatRef) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f64;
                for p in 0..k {
                    s += (a.at(i, p) as f64) * (b.at(p, j) as f64);
                }
                out[i * n + j] = s as f32;
            }
        }
        out
    }

    fn filled(n: usize, phase: f32) -> Vec<f32> {
        (0..n).map(|i| ((i as f32) * 0.37 + phase).sin()).collect()
    }

    fn assert_close(got: &[f32], want: &[f32], tag: &str) {
        assert_eq!(got.len(), want.len(), "{tag}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let tol = 1e-4 * (1.0 + w.abs());
            assert!((g - w).abs() <= tol, "{tag}: element {i}: {g} vs {w}");
        }
    }

    #[test]
    fn blocked_matches_reference_across_sizes() {
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (1, 17, 9),
            (5, 1, 33),
            (7, 9, 1),
            (64, 48, 56),
            (130, 33, 70),
            (512, 48, 384),
            (9, 100, 600), // k > KC: two k-blocks
        ] {
            let av = filled(m * k, 0.0);
            let bv = filled(k * n, 1.0);
            let a = MatRef::dense(&av, k);
            let b = MatRef::dense(&bv, n);
            let mut c = vec![f32::NAN; m * n]; // catches unwritten elements
            gemm(m, n, k, a, b, &mut c, false, Epilogue::NONE);
            assert_close(&c, &reference(m, n, k, a, b), &format!("{m}x{n}x{k}"));
        }
    }

    #[test]
    fn transposed_views_match_reference() {
        let (m, n, k) = (33, 29, 41);
        let at = filled(k * m, 0.2); // stored [k, m]
        let bt = filled(n * k, 0.4); // stored [n, k]
        let a = MatRef::dense_t(&at, m, true);
        let b = MatRef::dense_t(&bt, k, true);
        let mut c = vec![0.0f32; m * n];
        gemm(m, n, k, a, b, &mut c, false, Epilogue::NONE);
        assert_close(&c, &reference(m, n, k, a, b), "ta,tb");
    }

    #[test]
    fn acc_adds_onto_existing_contents() {
        let (m, n, k) = (20, 24, 31);
        let av = filled(m * k, 0.1);
        let bv = filled(k * n, 0.9);
        let a = MatRef::dense(&av, k);
        let b = MatRef::dense(&bv, n);
        let mut c: Vec<f32> = (0..m * n).map(|i| i as f32 * 0.01).collect();
        let before = c.clone();
        gemm(m, n, k, a, b, &mut c, true, Epilogue::NONE);
        let prod = reference(m, n, k, a, b);
        let want: Vec<f32> = before.iter().zip(&prod).map(|(x, y)| x + y).collect();
        assert_close(&c, &want, "acc");
    }

    #[test]
    fn k_zero_overwrites_or_preserves() {
        let mut c = vec![3.0f32; 6];
        gemm(
            2,
            3,
            0,
            MatRef::dense(&[], 0),
            MatRef::dense(&[], 3),
            &mut c,
            false,
            Epilogue::NONE,
        );
        assert_eq!(c, vec![0.0; 6]);
        let mut c2 = vec![3.0f32; 6];
        gemm(
            2,
            3,
            0,
            MatRef::dense(&[], 0),
            MatRef::dense(&[], 3),
            &mut c2,
            true,
            Epilogue::NONE,
        );
        assert_eq!(c2, vec![3.0; 6]);
    }

    /// The epilogue contract: fused scale+bias+activation must be
    /// bit-identical to running the plain GEMM followed by separate scale /
    /// bias / activation passes, on every kernel path (tiny naive, blocked,
    /// multi-k-block, and a large blocked product of many row strips).
    #[test]
    fn epilogue_bit_identical_to_separate_passes() {
        for &(m, n, k, tag) in &[
            (3usize, 5usize, 4usize, "naive-ikj"),
            (64, 48, 56, "blocked"),
            (9, 100, 600, "two-k-blocks"),
            (1536, 64, 64, "large-blocked"),
        ] {
            let av = filled(m * k, 0.0);
            let bv = filled(k * n, 1.0);
            let bias: Vec<f32> = (0..n).map(|j| ((j as f32) * 0.61).cos()).collect();
            let a = MatRef::dense(&av, k);
            let b = MatRef::dense(&bv, n);
            let mut plain = vec![0.0f32; m * n];
            gemm(m, n, k, a, b, &mut plain, false, Epilogue::NONE);
            for act in [
                Activation::Identity,
                Activation::Relu,
                Activation::Tanh,
                Activation::Sigmoid,
            ] {
                for with_bias in [false, true] {
                    for scale in [None, Some(0.125f32), Some(0.37)] {
                        let ep = Epilogue {
                            scale,
                            bias: with_bias.then_some(bias.as_slice()),
                            act,
                        };
                        let mut fused = vec![f32::NAN; m * n];
                        gemm(m, n, k, a, b, &mut fused, false, ep);
                        let want: Vec<f32> = plain
                            .iter()
                            .enumerate()
                            .map(|(i, &v)| {
                                let v = match scale {
                                    Some(c) => v * c,
                                    None => v,
                                };
                                let v = if with_bias { v + bias[i % n] } else { v };
                                act.apply(v)
                            })
                            .collect();
                        assert_eq!(
                            fused, want,
                            "{tag}: act {act:?} bias {with_bias} scale {scale:?} \
                             must match separate passes exactly"
                        );
                    }
                }
            }
        }
    }

    /// Transposed-B operands take the dot-product naive path; the epilogue
    /// must hold there too.
    #[test]
    fn epilogue_on_transposed_views() {
        let (m, n, k) = (6, 7, 9);
        let av = filled(m * k, 0.2);
        let bt = filled(n * k, 0.4); // stored [n, k]
        let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.1 - 0.3).collect();
        let a = MatRef::dense(&av, k);
        let b = MatRef::dense_t(&bt, k, true);
        let mut plain = vec![0.0f32; m * n];
        gemm(m, n, k, a, b, &mut plain, false, Epilogue::NONE);
        let mut fused = vec![f32::NAN; m * n];
        let ep = Epilogue {
            scale: None,
            bias: Some(&bias),
            act: Activation::Relu,
        };
        gemm(m, n, k, a, b, &mut fused, false, ep);
        let want: Vec<f32> = plain
            .iter()
            .enumerate()
            .map(|(i, &v)| (v + bias[i % n]).max(0.0))
            .collect();
        assert_eq!(fused, want);
    }

    /// `k == 0` still applies the epilogue (bias + activation of zero).
    #[test]
    fn epilogue_applies_on_empty_product() {
        let bias = [1.5f32, -2.0, 0.25];
        let mut c = vec![f32::NAN; 6];
        gemm(
            2,
            3,
            0,
            MatRef::dense(&[], 0),
            MatRef::dense(&[], 3),
            &mut c,
            false,
            Epilogue {
                scale: None,
                bias: Some(&bias),
                act: Activation::Relu,
            },
        );
        assert_eq!(c, vec![1.5, 0.0, 0.25, 1.5, 0.0, 0.25]);
    }

    /// The fixed-shape prepacked kernel must be bit-identical to the
    /// generic dispatch on every path it can replace: tiny shapes (where
    /// `gemm` picks the naive loop), blocked shapes, multi-k-block shapes
    /// (same `KC` reassociation boundaries), ragged edges, and every
    /// epilogue combination.
    #[test]
    fn prepacked_bit_identical_to_generic_across_shapes() {
        for &(m, n, k, tag) in &[
            (1usize, 1usize, 1usize, "scalar"),
            (3, 5, 4, "tiny-naive"),
            (5, 12, 7, "edge-nr"),
            (6, 8, 3, "exact-tiles"),
            (64, 48, 56, "blocked"),
            (130, 33, 70, "ragged"),
            (512, 32, 32, "predictor-shape"),
            (9, 100, 600, "two-k-blocks"),
        ] {
            let av = filled(m * k, 0.0);
            let bv = filled(k * n, 1.0);
            let bias: Vec<f32> = (0..n).map(|j| ((j as f32) * 0.61).cos()).collect();
            let packed = PackedB::pack(&bv, k, n);
            assert_eq!((packed.k(), packed.n()), (k, n));
            for act in [Activation::Identity, Activation::Relu, Activation::Tanh] {
                for with_bias in [false, true] {
                    let ep = Epilogue {
                        scale: None,
                        bias: with_bias.then_some(bias.as_slice()),
                        act,
                    };
                    let mut generic = vec![f32::NAN; m * n];
                    gemm(
                        m,
                        n,
                        k,
                        MatRef::dense(&av, k),
                        MatRef::dense(&bv, n),
                        &mut generic,
                        false,
                        ep,
                    );
                    let mut pre = vec![f32::NAN; m * n];
                    gemm_prepacked_impl(m, &av, &packed, &mut pre, ep);
                    assert_eq!(
                        pre, generic,
                        "{tag}: act {act:?} bias {with_bias} must match the generic kernel bit for bit"
                    );
                }
            }
        }
    }

    /// Shapes every supported tier is held to the scalar oracle at: ragged
    /// and exact tiles of every tier's `MR x NR`, and two k-blocks (the same
    /// `KC` reassociation points).
    const ORACLE_SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (5, 12, 7),
        (8, 32, 56),
        (64, 48, 56),
        (130, 33, 70),
        (512, 96, 48),
        (9, 100, 600),
    ];

    /// Every supported tier agrees bit-for-bit with the scalar oracle, on
    /// both the packed-panel and the prepacked direct-A paths. (On hosts
    /// with no SIMD tier this degenerates to self-equality — the real SIMD
    /// coverage runs wherever CI has AVX2/NEON.)
    #[test]
    fn active_tier_is_bit_identical_to_scalar_oracle() {
        for tier in supported_tiers() {
            for &(m, n, k) in ORACLE_SHAPES {
                let av = filled(m * k, 0.0);
                let bv = filled(k * n, 1.0);
                let a = MatRef::dense(&av, k);
                let b = MatRef::dense(&bv, n);
                let what = format!("{} {m}x{n}x{k}", tier.name());
                let mut oracle = vec![f32::NAN; m * n];
                let (acc, ep) = (false, Epilogue::NONE);
                gemm_blocked_tier(m, n, k, a, b, &mut oracle, acc, ep, SimdTier::Scalar);
                let mut active = vec![f32::NAN; m * n];
                gemm_blocked_tier(m, n, k, a, b, &mut active, acc, ep, tier);
                assert_eq!(oracle, active, "{what}: blocked tier mismatch");

                let oracle_pack = PackedB::pack_for_tier(&bv, k, n, SimdTier::Scalar);
                let active_pack = PackedB::pack_for_tier(&bv, k, n, tier);
                let mut pre_o = vec![f32::NAN; m * n];
                let mut pre_a = vec![f32::NAN; m * n];
                gemm_prepacked_impl(m, &av, &oracle_pack, &mut pre_o, ep);
                gemm_prepacked_impl(m, &av, &active_pack, &mut pre_a, ep);
                assert_eq!(pre_o, pre_a, "{what}: prepacked tier mismatch");
            }
        }
    }

    /// The quantized prepacked kernel is bit-identical to the f32 prepacked
    /// kernel over the *dequantized* matrix: same per-element dequant op,
    /// same FMA accumulation order, so the fused path may not drift by even
    /// one ULP from dequantize-then-pack — across epilogues, including the multi-k-block reassociation points.
    #[test]
    fn quant_prepacked_bit_identical_to_f32_over_dequantized() {
        for &(m, n, k, tag) in &[
            (1usize, 1usize, 1usize, "scalar"),
            (5, 12, 7, "edge-nr"),
            (6, 8, 3, "exact-tiles"),
            (64, 48, 56, "blocked"),
            (130, 33, 70, "ragged"),
            (512, 32, 32, "predictor-shape"),
            (9, 100, 600, "two-k-blocks"),
        ] {
            let av = filled(m * k, 0.0);
            let bv = filled(k * n, 1.0);
            let bias: Vec<f32> = (0..n).map(|j| ((j as f32) * 0.61).cos()).collect();
            let q = QuantizedMatrix::quantize(&bv, k, n);
            let deq = q.dequantize();
            let f32_pack = PackedB::pack(&deq, k, n);
            let q_pack = QuantizedPackedB::pack(&q);
            assert_eq!((q_pack.k(), q_pack.n()), (k, n));
            for act in [Activation::Identity, Activation::Relu, Activation::Tanh] {
                for with_bias in [false, true] {
                    let ep = Epilogue {
                        scale: None,
                        bias: with_bias.then_some(bias.as_slice()),
                        act,
                    };
                    let mut want = vec![f32::NAN; m * n];
                    gemm_prepacked_impl(m, &av, &f32_pack, &mut want, ep);
                    let mut got = vec![f32::NAN; m * n];
                    gemm_prepacked_quant_impl(m, &av, &q_pack, &mut got, ep);
                    assert_eq!(
                        got, want,
                        "{tag}: act {act:?} bias {with_bias} must match the \
                         f32 kernel over dequantized weights bit for bit"
                    );
                }
            }
        }
    }

    /// Quantized panels packed under every supported tier serve
    /// bit-identically to panels packed under the scalar oracle: the scale
    /// grouping is tier-independent, so repacking on a different host
    /// cannot change a single output bit.
    #[test]
    fn quant_active_tier_is_bit_identical_to_scalar_oracle() {
        for tier in supported_tiers() {
            for &(m, n, k) in ORACLE_SHAPES {
                let av = filled(m * k, 0.0);
                let bv = filled(k * n, 1.0);
                let q = QuantizedMatrix::quantize(&bv, k, n);
                let oracle_pack = QuantizedPackedB::pack_for_tier(&q, SimdTier::Scalar);
                let active_pack = QuantizedPackedB::pack_for_tier(&q, tier);
                let mut pre_o = vec![f32::NAN; m * n];
                let mut pre_a = vec![f32::NAN; m * n];
                gemm_prepacked_quant_impl(m, &av, &oracle_pack, &mut pre_o, Epilogue::NONE);
                gemm_prepacked_quant_impl(m, &av, &active_pack, &mut pre_a, Epilogue::NONE);
                let what = format!("{} {m}x{n}x{k}", tier.name());
                assert_eq!(pre_o, pre_a, "{what}: quant prepacked tier mismatch");
            }
        }
    }

    #[test]
    fn quant_prepacked_empty_product_applies_epilogue() {
        let q = QuantizedMatrix::quantize(&[], 0, 3);
        let packed = QuantizedPackedB::pack(&q);
        let bias = [1.5f32, -2.0, 0.25];
        let mut c = vec![f32::NAN; 6];
        gemm_prepacked_quant_impl(
            2,
            &[],
            &packed,
            &mut c,
            Epilogue {
                scale: None,
                bias: Some(&bias),
                act: Activation::Relu,
            },
        );
        assert_eq!(c, vec![1.5, 0.0, 0.25, 1.5, 0.0, 0.25]);
    }

    #[test]
    fn quant_panel_bytes_shrink_with_kind() {
        let (k, n) = (96, 64);
        let bv = filled(k * n, 0.7);
        let f32_pack = PackedB::pack(&bv, k, n);
        let f32_bytes = f32_pack.panel_bytes();
        let i8_pack = QuantizedPackedB::pack(&QuantizedMatrix::quantize(&bv, k, n));
        assert!(
            i8_pack.panel_bytes() * 3 < f32_bytes,
            "i8 panels ({}) should be ~4x smaller than f32 ({f32_bytes})",
            i8_pack.panel_bytes()
        );
    }

    #[test]
    fn prepacked_empty_product_applies_epilogue() {
        let packed = PackedB::pack(&[], 0, 3);
        let bias = [1.5f32, -2.0, 0.25];
        let mut c = vec![f32::NAN; 6];
        gemm_prepacked_impl(
            2,
            &[],
            &packed,
            &mut c,
            Epilogue {
                scale: None,
                bias: Some(&bias),
                act: Activation::Relu,
            },
        );
        assert_eq!(c, vec![1.5, 0.0, 0.25, 1.5, 0.0, 0.25]);
    }
}
