//! Quantized weight storage: the tier-independent side of the quantized
//! serving path.
//!
//! A frozen model's weight matrices are quantized **once** (at freeze or
//! snapshot-load time) into a [`QuantizedMatrix`] — i8 with
//! per-column-group scales, or bf16 (truncated f32, no scales). The
//! packed GEMM panels in [`crate::gemm`] are then built *from* the stored
//! quantized values per kernel tier; each call expands one k-block of
//! them at a time to f32 and runs the f32 micro-kernel over it.
//!
//! # Determinism contract
//!
//! Every consumer of a quantized matrix — [`QuantizedMatrix::dequantize`]
//! and the scalar, AVX2 and NEON k-block expansions — reconstructs element
//! `(i, j)` with the **same** operation:
//!
//! * i8: `(q as f32) * scale[j / QUANT_GROUP]` — an exact int→float
//!   conversion followed by one correctly-rounded f32 multiply;
//! * bf16: `f32::from_bits((h as u32) << 16)` — exact.
//!
//! Scale groups are fixed [`QUANT_GROUP`]-column spans — independent of
//! any tier's slab width — so the dequantized value of every element is
//! identical no matter which tier packs or consumes it. Since the expanded
//! block then runs the f32 prepacked kernel itself, the quantized GEMM is
//! **bit-identical** to an f32 GEMM over the dequantized weights, on
//! every tier.
//!
//! Quantization itself (f32 → i8/bf16) happens once and is never
//! repeated on already-dequantized values: re-deriving an i8 scale from
//! dequantized weights is not exactly idempotent in f32, so the stored
//! quantized bytes are the canonical form (snapshots serialize them
//! verbatim, which is what keeps `save(load(x)) == x`).

/// Columns per i8 scale group. Deliberately **not** a kernel tile width:
/// scalar slabs are 8 wide and AVX2 slabs 16, and the scale grouping must
/// not change when a snapshot is repacked under a different tier.
pub const QUANT_GROUP: usize = 16;

/// Storage format of a quantized weight tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantKind {
    /// Truncated f32 (upper 16 bits, round-to-nearest-even). 2 bytes per
    /// element, ~8 relative bits of mantissa, no scales.
    Bf16,
    /// Signed 8-bit with a per-column-group scale: `v ≈ q * scale`,
    /// `q ∈ [-127, 127]`. 1 byte per element.
    I8,
}

impl QuantKind {
    /// Bytes one quantized element occupies.
    pub fn bytes_per_elem(self) -> usize {
        match self {
            QuantKind::Bf16 => 2,
            QuantKind::I8 => 1,
        }
    }

    /// Stable name (serialized into snapshot headers and bench JSON).
    pub fn name(self) -> &'static str {
        match self {
            QuantKind::Bf16 => "bf16",
            QuantKind::I8 => "i8",
        }
    }

    /// Parses a [`QuantKind::name`] back.
    pub fn parse(s: &str) -> Option<QuantKind> {
        match s {
            "bf16" => Some(QuantKind::Bf16),
            "i8" => Some(QuantKind::I8),
            _ => None,
        }
    }

    /// Scale count for an `n`-column matrix of this kind.
    pub fn scale_count(self, n: usize) -> usize {
        match self {
            QuantKind::Bf16 => 0,
            QuantKind::I8 => n.div_ceil(QUANT_GROUP),
        }
    }
}

/// The serving-path quantization knob: how a frozen model stores (and
/// packs) its weight matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuantMode {
    /// Full-precision weights (the default serving path).
    #[default]
    F32,
    /// bf16 weight storage.
    Bf16,
    /// i8 weight storage with per-column-group scales.
    I8,
}

impl QuantMode {
    /// The storage format this mode quantizes into, if any.
    pub fn kind(self) -> Option<QuantKind> {
        match self {
            QuantMode::F32 => None,
            QuantMode::Bf16 => Some(QuantKind::Bf16),
            QuantMode::I8 => Some(QuantKind::I8),
        }
    }

    /// Stable name (`f32` / `bf16` / `i8`).
    pub fn name(self) -> &'static str {
        match self {
            QuantMode::F32 => "f32",
            QuantMode::Bf16 => "bf16",
            QuantMode::I8 => "i8",
        }
    }

    /// Parses a mode name (the CLI `--quant` / `CDMPP_QUANT` values).
    pub fn parse(s: &str) -> Option<QuantMode> {
        match s.to_ascii_lowercase().as_str() {
            "f32" => Some(QuantMode::F32),
            "bf16" => Some(QuantMode::Bf16),
            "i8" => Some(QuantMode::I8),
            _ => None,
        }
    }
}

/// Converts f32 to bf16 with round-to-nearest-even, saturating to the
/// largest finite bf16 instead of rounding a finite input up to infinity.
pub fn f32_to_bf16(x: f32) -> u16 {
    let bits = x.to_bits();
    let round = ((bits >> 16) & 1) + 0x7FFF;
    let mut out = (bits.wrapping_add(round) >> 16) as u16;
    if x.is_finite() && (out & 0x7FFF) == 0x7F80 {
        out -= 1;
    }
    out
}

/// Converts bf16 back to f32 — exact (bf16 is an f32 bit prefix).
#[inline(always)]
pub fn bf16_to_f32(h: u16) -> f32 {
    f32::from_bits((h as u32) << 16)
}

/// A `[k, n]` weight matrix quantized once into its storage form. This is
/// the canonical, tier-independent representation: snapshot sections
/// serialize its bytes verbatim, and per-tier GEMM panels
/// ([`crate::QuantizedPackedB`]) are derived views of it.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    k: usize,
    n: usize,
    kind: QuantKind,
    /// Row-major quantized elements: `k * n` bytes for i8, `k * n` u16
    /// little-endian pairs for bf16.
    data: Vec<u8>,
    /// Per-column-group scales (i8 only; empty for bf16).
    scales: Vec<f32>,
}

impl QuantizedMatrix {
    /// Quantizes a row-major `[k, n]` f32 matrix.
    ///
    /// i8 scales are per [`QUANT_GROUP`]-column group: `amax / 127` over
    /// the group's elements (1.0 for an all-zero group, so no scale is
    /// ever zero). Values must be finite.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != k * n`.
    pub fn quantize(values: &[f32], k: usize, n: usize, kind: QuantKind) -> QuantizedMatrix {
        assert_eq!(values.len(), k * n, "QuantizedMatrix::quantize: [k, n]");
        if n == 0 {
            return QuantizedMatrix {
                k,
                n,
                kind,
                data: Vec::new(),
                scales: Vec::new(),
            };
        }
        match kind {
            QuantKind::Bf16 => {
                let mut data = Vec::with_capacity(k * n * 2);
                for &v in values {
                    data.extend_from_slice(&f32_to_bf16(v).to_le_bytes());
                }
                QuantizedMatrix {
                    k,
                    n,
                    kind,
                    data,
                    scales: Vec::new(),
                }
            }
            QuantKind::I8 => {
                let groups = kind.scale_count(n);
                let mut scales = vec![1.0f32; groups];
                for (g, s) in scales.iter_mut().enumerate() {
                    let j0 = g * QUANT_GROUP;
                    let j1 = (j0 + QUANT_GROUP).min(n);
                    let mut amax = 0.0f32;
                    for row in values.chunks_exact(n) {
                        for &v in &row[j0..j1] {
                            amax = amax.max(v.abs());
                        }
                    }
                    if amax > 0.0 {
                        *s = amax / 127.0;
                    }
                }
                let mut data = Vec::with_capacity(k * n);
                for row in values.chunks_exact(n) {
                    for (j, &v) in row.iter().enumerate() {
                        let q = (v / scales[j / QUANT_GROUP]).round().clamp(-127.0, 127.0);
                        data.push(q as i8 as u8);
                    }
                }
                QuantizedMatrix {
                    k,
                    n,
                    kind,
                    data,
                    scales,
                }
            }
        }
    }

    /// Reassembles a matrix from stored parts (the snapshot decode path),
    /// validating every length and scale before anything downstream
    /// consumes it. Error strings name the offending field.
    pub fn from_parts(
        kind: QuantKind,
        k: usize,
        n: usize,
        data: Vec<u8>,
        scales: Vec<f32>,
    ) -> Result<QuantizedMatrix, String> {
        let need = k
            .checked_mul(n)
            .and_then(|e| e.checked_mul(kind.bytes_per_elem()))
            .ok_or_else(|| "quantized element count overflows".to_string())?;
        if data.len() != need {
            return Err(format!(
                "quantized blob holds {} bytes, [{k}, {n}] {} needs {need}",
                data.len(),
                kind.name()
            ));
        }
        let want_scales = kind.scale_count(n);
        if scales.len() != want_scales {
            return Err(format!(
                "{} scales for {n} columns, expected {want_scales}",
                scales.len()
            ));
        }
        for (g, &s) in scales.iter().enumerate() {
            if !s.is_finite() || s <= 0.0 || s > 1e30 {
                return Err(format!("scale {g} is {s} (must be finite, positive, sane)"));
            }
        }
        if kind == QuantKind::Bf16 {
            for (i, pair) in data.chunks_exact(2).enumerate() {
                let h = u16::from_le_bytes([pair[0], pair[1]]);
                if !bf16_to_f32(h).is_finite() {
                    return Err(format!("bf16 element {i} is non-finite"));
                }
            }
        }
        Ok(QuantizedMatrix {
            k,
            n,
            kind,
            data,
            scales,
        })
    }

    /// The contraction length (`B`'s row count).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The output width (`B`'s column count).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The storage format.
    pub fn kind(&self) -> QuantKind {
        self.kind
    }

    /// The raw quantized bytes (row-major; bf16 little-endian).
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// The per-column-group scales (empty for bf16).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Bytes this matrix occupies in memory (quantized data + scales).
    pub fn serving_bytes(&self) -> usize {
        self.data.len() + self.scales.len() * 4
    }

    /// Dequant scale for column `j` (1.0 for bf16 — unused).
    #[inline(always)]
    pub fn scale_for_col(&self, j: usize) -> f32 {
        match self.kind {
            QuantKind::Bf16 => 1.0,
            QuantKind::I8 => self.scales[j / QUANT_GROUP],
        }
    }

    /// Dequantized value of element `(i, j)` — the exact operation every
    /// kernel tier's dequantization performs.
    #[inline(always)]
    pub fn value(&self, i: usize, j: usize) -> f32 {
        let e = i * self.n + j;
        match self.kind {
            QuantKind::Bf16 => {
                bf16_to_f32(u16::from_le_bytes([self.data[2 * e], self.data[2 * e + 1]]))
            }
            QuantKind::I8 => (self.data[e] as i8 as f32) * self.scales[j / QUANT_GROUP],
        }
    }

    /// The full dequantized matrix, row-major — bit-identical to the f32
    /// k-blocks the quantized GEMM expands.
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.k * self.n);
        for i in 0..self.k {
            for j in 0..self.n {
                out.push(self.value(i, j));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(len: usize, phase: f32) -> Vec<f32> {
        (0..len)
            .map(|i| ((i as f32) * 0.37 + phase).sin())
            .collect()
    }

    #[test]
    fn bf16_roundtrip_error_is_bounded() {
        for &v in &[
            0.0f32, -0.0, 1.0, -1.0, 0.1, 3.25781, -123.456, 1e-20, 3.0e38,
        ] {
            let d = bf16_to_f32(f32_to_bf16(v));
            assert!(d.is_finite());
            let rel = if v == 0.0 {
                d.abs()
            } else {
                ((d - v) / v).abs()
            };
            assert!(rel <= 1.0 / 128.0, "{v} -> {d}");
        }
    }

    #[test]
    fn bf16_rounds_to_nearest_even_and_saturates() {
        // Exactly representable values pass through unchanged.
        assert_eq!(bf16_to_f32(f32_to_bf16(1.0)), 1.0);
        assert_eq!(bf16_to_f32(f32_to_bf16(-2.5)), -2.5);
        // f32::MAX would round up to infinity; it must saturate instead.
        assert!(bf16_to_f32(f32_to_bf16(f32::MAX)).is_finite());
        assert!(bf16_to_f32(f32_to_bf16(f32::MIN)).is_finite());
    }

    #[test]
    fn i8_quantization_error_is_within_half_scale() {
        let (k, n) = (13, 37);
        let v = filled(k * n, 0.2);
        let q = QuantizedMatrix::quantize(&v, k, n, QuantKind::I8);
        assert_eq!(q.scales().len(), n.div_ceil(QUANT_GROUP));
        let d = q.dequantize();
        for (i, (&orig, &deq)) in v.iter().zip(&d).enumerate() {
            let s = q.scale_for_col(i % n);
            assert!(
                (orig - deq).abs() <= 0.5 * s + 1e-12,
                "element {i}: {orig} vs {deq} (scale {s})"
            );
        }
    }

    #[test]
    fn zero_width_matrix_is_empty() {
        for kind in [QuantKind::I8, QuantKind::Bf16] {
            let q = QuantizedMatrix::quantize(&[], 5, 0, kind);
            assert_eq!((q.k(), q.n(), q.kind()), (5, 0, kind));
            assert!(q.data().is_empty() && q.scales().is_empty());
            assert!(q.dequantize().is_empty());
            let parts = QuantizedMatrix::from_parts(kind, 5, 0, Vec::new(), Vec::new());
            assert_eq!(parts, Ok(q));
        }
    }

    #[test]
    fn all_zero_group_gets_unit_scale() {
        let q = QuantizedMatrix::quantize(&[0.0; 64], 4, 16, QuantKind::I8);
        assert_eq!(q.scales(), &[1.0]);
        assert!(q.dequantize().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn bf16_requantization_is_idempotent() {
        let (k, n) = (7, 21);
        let v = filled(k * n, 0.5);
        let q = QuantizedMatrix::quantize(&v, k, n, QuantKind::Bf16);
        let again = QuantizedMatrix::quantize(&q.dequantize(), k, n, QuantKind::Bf16);
        assert_eq!(q, again, "bf16 must be a fixed point of quantization");
    }

    #[test]
    fn from_parts_validates_lengths_and_scales() {
        let v = filled(8 * 16, 0.0);
        let good = QuantizedMatrix::quantize(&v, 8, 16, QuantKind::I8);
        assert!(QuantizedMatrix::from_parts(
            QuantKind::I8,
            8,
            16,
            good.data().to_vec(),
            good.scales().to_vec()
        )
        .is_ok());
        // Truncated blob.
        assert!(QuantizedMatrix::from_parts(
            QuantKind::I8,
            8,
            16,
            good.data()[..10].to_vec(),
            good.scales().to_vec()
        )
        .is_err());
        // Wrong scale count.
        assert!(
            QuantizedMatrix::from_parts(QuantKind::I8, 8, 16, good.data().to_vec(), vec![])
                .is_err()
        );
        // Hostile scales: zero, NaN, absurd.
        for bad in [0.0f32, -1.0, f32::NAN, f32::INFINITY, 1e38] {
            assert!(
                QuantizedMatrix::from_parts(QuantKind::I8, 8, 16, good.data().to_vec(), vec![bad])
                    .is_err(),
                "scale {bad} must be rejected"
            );
        }
        // Declared-size overflow must not panic or allocate.
        assert!(
            QuantizedMatrix::from_parts(QuantKind::Bf16, usize::MAX, 2, vec![], vec![]).is_err()
        );
        // Non-finite bf16 payloads.
        let inf = f32_to_bf16(1.0f32) | 0x7F80; // force exponent all-ones
        let mut blob = Vec::new();
        blob.extend_from_slice(&inf.to_le_bytes());
        assert!(QuantizedMatrix::from_parts(QuantKind::Bf16, 1, 1, blob, vec![]).is_err());
    }

    #[test]
    fn mode_and_kind_names_parse_back() {
        for mode in [QuantMode::F32, QuantMode::Bf16, QuantMode::I8] {
            assert_eq!(QuantMode::parse(mode.name()), Some(mode));
        }
        for kind in [QuantKind::Bf16, QuantKind::I8] {
            assert_eq!(QuantKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(QuantMode::parse("int4"), None);
        assert_eq!(QuantKind::parse("f32"), None);
    }
}
