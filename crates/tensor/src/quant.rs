//! Quantized weight storage: the tier-independent side of the quantized
//! serving path.
//!
//! A frozen model's weight matrices are quantized **once** (at freeze or
//! snapshot-load time) into a [`QuantizedMatrix`]: i8 with
//! per-column-group scales, the one reduced format (README,
//! "Quantization", says why). The packed GEMM panels in [`crate::gemm`]
//! are then built *from* the stored quantized values per kernel tier; each
//! call expands one k-block of them at a time to f32 and runs the f32
//! micro-kernel over it.
//!
//! # Determinism contract
//!
//! Every consumer of a quantized matrix — [`QuantizedMatrix::dequantize`]
//! and the scalar, AVX2 and NEON k-block expansions — reconstructs element
//! `(i, j)` with the **same** operation: `(q as f32) * scale[j /
//! QUANT_GROUP]`, an exact int→float conversion followed by one
//! correctly-rounded f32 multiply.
//!
//! Scale groups are fixed [`QUANT_GROUP`]-column spans — independent of
//! any tier's slab width — so the dequantized value of every element is
//! identical no matter which tier packs or consumes it. Since the expanded
//! block then runs the f32 prepacked kernel itself, the quantized GEMM is
//! **bit-identical** to an f32 GEMM over the dequantized weights, on
//! every tier.
//!
//! Quantization itself (f32 → i8) happens once and is never repeated on
//! already-dequantized values: re-deriving an i8 scale from dequantized
//! weights is not exactly idempotent in f32, so the stored quantized bytes
//! are the canonical form (snapshots serialize them verbatim, which is
//! what keeps `save(load(x)) == x`).

/// Columns per i8 scale group. Deliberately **not** a kernel tile width:
/// scalar slabs are 8 wide and AVX2 slabs 16, and the scale grouping must
/// not change when a snapshot is repacked under a different tier.
pub const QUANT_GROUP: usize = 16;

/// The serving-path quantization knob: how a frozen model stores (and
/// packs) its weight matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuantMode {
    /// Full-precision weights (the default serving path).
    #[default]
    F32,
    /// Signed 8-bit weights with a per-column-group scale: `v ≈ q *
    /// scale`, `q ∈ [-127, 127]`. 1 byte per element.
    I8,
}

impl QuantMode {
    /// Stable name (`f32` / `i8`; `i8` is also the snapshot header's
    /// quant `kind`).
    pub fn name(self) -> &'static str {
        match self {
            QuantMode::F32 => "f32",
            QuantMode::I8 => "i8",
        }
    }

    /// Parses a mode name (the CLI `--quant` values).
    pub fn parse(s: &str) -> Option<QuantMode> {
        match s.to_ascii_lowercase().as_str() {
            "f32" => Some(QuantMode::F32),
            "i8" => Some(QuantMode::I8),
            _ => None,
        }
    }
}

/// A `[k, n]` weight matrix quantized once to i8. This is the canonical,
/// tier-independent representation: snapshot sections serialize its
/// bytes verbatim, and per-tier GEMM panels ([`crate::QuantizedPackedB`])
/// are derived views of it.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    k: usize,
    n: usize,
    /// Row-major i8 elements, `k * n` bytes, each in `[-127, 127]`.
    data: Vec<u8>,
    /// Per-column-group scales, `ceil(n / QUANT_GROUP)` of them.
    scales: Vec<f32>,
}

impl QuantizedMatrix {
    /// Quantizes a row-major `[k, n]` f32 matrix.
    ///
    /// Scales are per [`QUANT_GROUP`]-column group: `amax / 127` over the
    /// group's elements (1.0 for an all-zero group, so no scale is ever
    /// zero). Values must be finite.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != k * n`.
    pub fn quantize(values: &[f32], k: usize, n: usize) -> QuantizedMatrix {
        assert_eq!(values.len(), k * n, "QuantizedMatrix::quantize: [k, n]");
        let mut scales = vec![1.0f32; n.div_ceil(QUANT_GROUP)];
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
        if n > 0 {
            for row in values.chunks_exact(n) {
                for (j, &v) in row.iter().enumerate() {
                    let q = (v / scales[j / QUANT_GROUP]).round().clamp(-127.0, 127.0);
                    data.push(q as i8 as u8);
                }
            }
        }
        QuantizedMatrix { k, n, data, scales }
    }

    /// Reassembles a matrix from stored parts (the snapshot decode path),
    /// validating every length, element and scale before anything
    /// downstream consumes it. Error strings name the offending field.
    pub fn from_parts(
        k: usize,
        n: usize,
        data: Vec<u8>,
        scales: Vec<f32>,
    ) -> Result<QuantizedMatrix, String> {
        let need = k
            .checked_mul(n)
            .ok_or_else(|| "quantized element count overflows".to_string())?;
        if data.len() != need {
            return Err(format!(
                "quantized blob holds {} bytes, [{k}, {n}] i8 needs {need}",
                data.len()
            ));
        }
        let want_scales = n.div_ceil(QUANT_GROUP);
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
        // -128 is a valid i8 but never a quantizer output (it clamps to
        // ±127); accepting it would let a file carry values no capture does.
        if let Some(i) = data.iter().position(|&b| b as i8 == i8::MIN) {
            return Err(format!("i8 element {i} is -128 (outside [-127, 127])"));
        }
        Ok(QuantizedMatrix { k, n, data, scales })
    }

    /// The contraction length (`B`'s row count).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The output width (`B`'s column count).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The raw i8 elements as bytes (row-major).
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// The per-column-group scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Bytes this matrix occupies in memory (quantized data + scales).
    pub fn serving_bytes(&self) -> usize {
        self.data.len() + self.scales.len() * 4
    }

    /// Dequant scale for column `j`.
    #[inline(always)]
    pub fn scale_for_col(&self, j: usize) -> f32 {
        self.scales[j / QUANT_GROUP]
    }

    /// Dequantized value of element `(i, j)` — the exact operation every
    /// kernel tier's dequantization performs.
    #[inline(always)]
    pub fn value(&self, i: usize, j: usize) -> f32 {
        (self.data[i * self.n + j] as i8 as f32) * self.scale_for_col(j)
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
    fn i8_quantization_error_is_within_half_scale() {
        let (k, n) = (13, 37);
        let v = filled(k * n, 0.2);
        let q = QuantizedMatrix::quantize(&v, k, n);
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
        let q = QuantizedMatrix::quantize(&[], 5, 0);
        assert_eq!((q.k(), q.n()), (5, 0));
        assert!(q.data().is_empty() && q.scales().is_empty());
        assert!(q.dequantize().is_empty());
        let parts = QuantizedMatrix::from_parts(5, 0, Vec::new(), Vec::new());
        assert_eq!(parts, Ok(q));
    }

    #[test]
    fn all_zero_group_gets_unit_scale() {
        let q = QuantizedMatrix::quantize(&[0.0; 64], 4, 16);
        assert_eq!(q.scales(), &[1.0]);
        assert!(q.dequantize().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_parts_validates_lengths_and_scales() {
        let v = filled(8 * 16, 0.0);
        let good = QuantizedMatrix::quantize(&v, 8, 16);
        assert!(
            QuantizedMatrix::from_parts(8, 16, good.data().to_vec(), good.scales().to_vec())
                .is_ok()
        );
        // Truncated blob.
        assert!(QuantizedMatrix::from_parts(
            8,
            16,
            good.data()[..10].to_vec(),
            good.scales().to_vec()
        )
        .is_err());
        // Wrong scale count.
        assert!(QuantizedMatrix::from_parts(8, 16, good.data().to_vec(), vec![]).is_err());
        // Hostile scales: zero, NaN, absurd.
        for bad in [0.0f32, -1.0, f32::NAN, f32::INFINITY, 1e38] {
            assert!(
                QuantizedMatrix::from_parts(8, 16, good.data().to_vec(), vec![bad]).is_err(),
                "scale {bad} must be rejected"
            );
        }
        // Declared-size overflow must not panic or allocate.
        assert!(QuantizedMatrix::from_parts(usize::MAX, 2, vec![], vec![]).is_err());
    }

    /// The quantizer clamps to [-127, 127], so a stored -128 (byte 0x80)
    /// is a value no capture produces: a file carrying one is rejected,
    /// while both ends of the real range load.
    #[test]
    fn from_parts_rejects_the_byte_no_quantizer_writes() {
        let q = QuantizedMatrix::quantize(&[1.0, -1.0], 1, 2);
        assert_eq!(q.data(), &[127, (-127i8) as u8]);
        assert!(QuantizedMatrix::from_parts(1, 2, q.data().to_vec(), vec![q.scales()[0]]).is_ok());
        let err = QuantizedMatrix::from_parts(1, 2, vec![0x00, 0x80], vec![1.0]).unwrap_err();
        assert!(err.contains("element 1") && err.contains("-128"), "{err}");
    }

    #[test]
    fn mode_and_kind_names_parse_back() {
        for mode in [QuantMode::F32, QuantMode::I8] {
            assert_eq!(QuantMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(QuantMode::parse("I8"), Some(QuantMode::I8));
        assert_eq!(QuantMode::parse("int4"), None);
    }
}
