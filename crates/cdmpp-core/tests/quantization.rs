//! End-to-end properties of the quantized serving path.
//!
//! * Quantized (i8) snapshots must round trip canonically
//!   (`save(load(x)) == x`), serve **bit-identically** to an in-process
//!   quantized freeze, shrink both the file and the resident serving
//!   weights, and never trigger plan recording.
//! * Quantization accuracy is gated: predictions from a quantized freeze
//!   must stay within a small relative delta of the f32 model's.
//! * The quantized section is tier-independent: a snapshot saved on an
//!   AVX2 host must serve bit-identically in a process forced to the
//!   scalar kernel tier (panels are packed per-tier on load, from the
//!   same canonical blob).
//! * Hostile quantized sections — truncated blobs, zero or absurd
//!   scales, unknown kinds, length mismatches, out-of-range or
//!   non-ascending parameter indices, duplicated or reordered sections —
//!   must come back as typed [`SnapshotError`]s before any
//!   attacker-sized allocation.

use cdmpp_core::batch::{EncodedSample, FeatScaler};
use cdmpp_core::{
    InferenceModel, Predictor, PredictorConfig, Snapshot, SnapshotError, TrainConfig, TrainedModel,
};
use features::{N_DEVICE_FEATURES, N_ENTRY};
use learn::TransformKind;
use tensor::QuantMode;

fn tiny_config(seed: u64) -> PredictorConfig {
    PredictorConfig {
        d_model: 16,
        n_layers: 1,
        heads: 2,
        d_ff: 32,
        d_emb: 12,
        d_dev: 8,
        dec_hidden: 16,
        dec_layers: 1,
        max_leaves: 4,
        seed,
        ..Default::default()
    }
}

fn model_with(seed: u64) -> TrainedModel {
    TrainedModel {
        predictor: Predictor::new(tiny_config(seed)),
        transform: TransformKind::None.fit(&[0.4e-3, 1.1e-3, 2.5e-3, 7.0e-3, 1.9e-2]),
        scaler: FeatScaler::identity(),
        use_pe: true,
        train_config: TrainConfig::default(),
    }
}

fn sample(leaves: usize, seed: usize) -> EncodedSample {
    EncodedSample {
        record_idx: seed,
        leaf_count: leaves,
        x: (0..leaves * N_ENTRY)
            .map(|i| ((i + 7 * seed) as f32 * 0.173).sin())
            .collect(),
        dev: [0.3; N_DEVICE_FEATURES],
        y_raw: 1e-3,
    }
}

fn samples(n: usize) -> Vec<EncodedSample> {
    (0..n).map(|i| sample(1 + i % 4, i)).collect()
}

// ---------------------------------------------------------------------------
// Round trip, bit-identity, and footprint
// ---------------------------------------------------------------------------

#[test]
fn quantized_snapshots_round_trip_canonically_and_serve_bitwise() {
    let enc = samples(12);
    let f32_bytes = {
        let model = model_with(31);
        Snapshot::capture_quantized(&model, &[1, 2, 3, 4], QuantMode::F32)
            .unwrap()
            .to_bytes()
    };
    let mode = QuantMode::I8;
    let model = model_with(31);
    let snap = Snapshot::capture_quantized(&model, &[1, 2, 3, 4], mode)
        .unwrap()
        .with_batch_classes(&[1, 4])
        .unwrap();
    assert!(
        !snap.quants.is_empty(),
        "{mode:?}: rank-2 params must quantize"
    );
    let bytes = snap.to_bytes();
    assert!(
        bytes.windows(7).any(|w| w == b"\"quant\""),
        "{mode:?}: header must carry the quant section"
    );
    assert!(
        bytes.len() < f32_bytes.len(),
        "{mode:?}: file must shrink ({} vs f32's {})",
        bytes.len(),
        f32_bytes.len()
    );

    let loaded = InferenceModel::from_snapshot_bytes(&bytes).unwrap();
    assert!(loaded.predictor.is_quantized());
    assert_eq!(
        loaded.predictor.plan_compile_count(),
        0,
        "load must not record"
    );

    // In-process quantized freeze and the loaded file share the same
    // canonical blobs, so every prediction matches bit-for-bit.
    let frozen = model.freeze_quantized(mode);
    let from_file = loaded.predict_samples(&enc).unwrap();
    assert_eq!(
        from_file,
        frozen.predict_samples(&enc).unwrap(),
        "{mode:?}: loaded vs frozen"
    );

    // Canonical bytes: the blob is re-emitted verbatim, never
    // re-quantized, so save(load(x)) == x.
    assert_eq!(
        Snapshot::from_inference(&loaded).to_bytes(),
        bytes,
        "{mode:?}"
    );
}

/// Restore builds the architecture with no weights in it and installs the
/// file's tensors: every parameter must end up the captured one — a
/// tensor left at the rebuild's zero would change answers — for plain
/// and i8 snapshots alike, on every leaf count, through the folded
/// classes (1 and 4 samples a bucket) and the generic plan (2 and 3).
#[test]
fn restored_answers_are_the_captured_models_on_every_leaf_count_and_mode() {
    for mode in [QuantMode::F32, QuantMode::I8] {
        let model = model_with(34);
        let snap = Snapshot::capture_quantized(&model, &[1, 2, 3, 4], mode)
            .unwrap()
            .with_batch_classes(&[1, 4])
            .unwrap();
        let captured = model.freeze_quantized(mode);
        let restored = InferenceModel::from_snapshot(&snap).unwrap();
        assert_eq!(Snapshot::from_inference(&restored).params, snap.params);
        for leaves in 1..=4 {
            for batch in 1..=4 {
                let enc: Vec<EncodedSample> = (0..batch)
                    .map(|i| sample(leaves, 10 * leaves + i))
                    .collect();
                let got = restored.predict_samples(&enc).unwrap();
                let want = captured.predict_samples(&enc).unwrap();
                assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{mode:?}, {leaves} leaves, batch {batch}"
                );
            }
        }
        assert_eq!(restored.predictor.plan_compile_count(), 0, "{mode:?}");
    }
}

#[test]
fn quantized_serving_weights_shrink() {
    let enc = samples(8);
    let mut resident = Vec::new();
    for mode in [QuantMode::F32, QuantMode::I8] {
        let model = model_with(32);
        let frozen = model.freeze_quantized(mode);
        // Serve once so the weight-pack cache is populated in every mode.
        frozen.predict_samples(&enc).unwrap();
        resident.push(frozen.predictor.serving_weights_bytes());
    }
    let (f32b, i8b) = (resident[0], resident[1]);
    assert!(i8b < f32b, "i8 resident {i8b} must shrink vs f32 {f32b}");
}

#[test]
fn pre_quantization_snapshots_carry_no_quant_section() {
    let model = model_with(33);
    let snap = Snapshot::capture_quantized(&model, &[1, 2], QuantMode::F32).unwrap();
    assert!(snap.quants.is_empty());
    let bytes = snap.to_bytes();
    assert!(
        !bytes.windows(7).any(|w| w == b"\"quant\""),
        "empty quant section must be omitted from the header"
    );
    // And the classic path is untouched: load, serve, reserialize.
    let loaded = InferenceModel::from_snapshot_bytes(&bytes).unwrap();
    assert!(!loaded.predictor.is_quantized());
    assert_eq!(Snapshot::from_inference(&loaded).to_bytes(), bytes);
}

// ---------------------------------------------------------------------------
// Accuracy gate
// ---------------------------------------------------------------------------

/// Mean relative prediction delta of a quantized freeze vs the f32 model.
fn accuracy_delta(mode: QuantMode, enc: &[EncodedSample]) -> f64 {
    let model = model_with(34);
    let exact = model
        .freeze_quantized(QuantMode::F32)
        .predict_samples(enc)
        .unwrap();
    let quant = model.freeze_quantized(mode).predict_samples(enc).unwrap();
    let sum: f64 = exact
        .iter()
        .zip(&quant)
        .map(|(&e, &q)| (q - e).abs() / e.abs().max(1e-6))
        .sum();
    sum / exact.len() as f64
}

#[test]
fn quantized_accuracy_stays_within_gate() {
    let enc = samples(32);
    let i8_delta = accuracy_delta(QuantMode::I8, &enc);
    assert!(
        i8_delta <= 0.05,
        "i8 mean relative delta {i8_delta} above 5% gate"
    );
}

// ---------------------------------------------------------------------------
// Cross-tier repack: saved on AVX2, served under the scalar tier
// ---------------------------------------------------------------------------

#[test]
fn quantized_snapshot_serves_bit_identically_across_kernel_tiers() {
    // Child mode: forced to the scalar tier by the parent, load the
    // snapshot, predict, and dump the exact prediction bits.
    if let Ok(out_path) = std::env::var("CDMPP_CROSS_TIER_OUT") {
        let snap_path = std::env::var("CDMPP_CROSS_TIER_SNAP").unwrap();
        let loaded = InferenceModel::from_snapshot_file(&snap_path).unwrap();
        let preds = loaded.predict_samples(&samples(10)).unwrap();
        let dump: String = preds
            .iter()
            .map(|v| format!("{:016x}\n", v.to_bits()))
            .collect();
        std::fs::write(out_path, dump).unwrap();
        return;
    }

    let dir = std::env::temp_dir().join(format!("cdmpp_quant_xtier_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("quant.cdmppsnap");
    let out_path = dir.join("scalar_preds.txt");

    let model = model_with(35);
    Snapshot::capture_quantized(&model, &[1, 2, 3, 4], QuantMode::I8)
        .unwrap()
        .with_batch_classes(&[1, 4])
        .unwrap()
        .save(&snap_path)
        .unwrap();
    let enc = samples(10);
    // Served under this process's native tier (AVX2 where available):
    // panels are packed from the file's canonical blob on load.
    let native = InferenceModel::from_snapshot_file(&snap_path)
        .unwrap()
        .predict_samples(&enc)
        .unwrap();

    // The child's output is captured, not inherited: its own progress lines
    // would otherwise interleave with this harness's report.
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "quantized_snapshot_serves_bit_identically_across_kernel_tiers",
            "--exact",
            "--nocapture",
            "--test-threads=1",
        ])
        .env("CDMPP_SIMD", "scalar")
        .env("CDMPP_CROSS_TIER_SNAP", &snap_path)
        .env("CDMPP_CROSS_TIER_OUT", &out_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "scalar-tier child process failed: {}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );

    let dump = std::fs::read_to_string(&out_path).unwrap();
    let scalar: Vec<f64> = dump
        .lines()
        .map(|l| f64::from_bits(u64::from_str_radix(l, 16).unwrap()))
        .collect();
    assert_eq!(
        scalar, native,
        "scalar-tier serving must be bit-identical to the native tier"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Hostile quantized sections
// ---------------------------------------------------------------------------

fn quant_snap() -> Snapshot {
    let model = model_with(36);
    Snapshot::capture_quantized(&model, &[1, 2], QuantMode::I8)
        .unwrap()
        .with_batch_classes(&[1, 4])
        .unwrap()
}

/// Splits a snapshot file into its JSON header and binary blob, applies
/// `f` to the JSON, and reassembles a structurally valid file around the
/// mutated header (length prefix recomputed).
fn mutate_header(bytes: &[u8], f: impl FnOnce(&str) -> String) -> Vec<u8> {
    let header_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
    let json = f(std::str::from_utf8(&bytes[20..20 + header_len]).unwrap());
    let mut out = bytes[..12].to_vec();
    out.extend_from_slice(&(json.len() as u64).to_le_bytes());
    out.extend_from_slice(json.as_bytes());
    out.extend_from_slice(&bytes[20 + header_len..]);
    out
}

/// Byte span of the top-level `,"<key>":[...]` header section, found by
/// bracket matching (string contents skipped).
fn section_span(json: &str, key: &str) -> std::ops::Range<usize> {
    let pat = format!(",\"{key}\":[");
    let start = json
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} section"));
    let b = json.as_bytes();
    let mut depth = 0usize;
    let mut i = start + pat.len() - 1;
    loop {
        match b[i] {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return start..i + 1;
                }
            }
            b'"' => {
                i += 1;
                while b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
            }
            _ => {}
        }
        i += 1;
    }
}

#[test]
fn truncated_quant_blob_is_a_typed_error() {
    let bytes = quant_snap().to_bytes();
    // Cutting anywhere inside the trailing quantized blobs must surface
    // as a truncation, detected before any decode allocation.
    for cut in [bytes.len() - 1, bytes.len() - 7] {
        assert!(
            matches!(
                Snapshot::from_bytes(&bytes[..cut]).unwrap_err(),
                SnapshotError::Truncated { .. }
            ),
            "cut at {cut}"
        );
    }
    let mut longer = bytes;
    longer.extend_from_slice(&[0u8; 5]);
    assert_eq!(
        Snapshot::from_bytes(&longer).unwrap_err(),
        SnapshotError::TrailingBytes { extra: 5 }
    );
}

#[test]
fn hostile_quant_scales_and_kinds_are_typed_errors() {
    let bytes = quant_snap().to_bytes();

    // First scale forced to zero: dequantization would collapse columns.
    let zeroed = mutate_header(&bytes, |json| {
        let at = json.find("\"scales\":[").unwrap() + "\"scales\":[".len();
        let end = at + json[at..].find([',', ']']).unwrap();
        format!("{}0.0{}", &json[..at], &json[end..])
    });
    assert!(
        matches!(
            Snapshot::from_bytes(&zeroed).unwrap_err(),
            SnapshotError::Param { .. }
        ),
        "zero scale must be rejected"
    );

    // Absurd scale: numerically finite but far outside any real weight's
    // dynamic range — a corrupt or adversarial file, not a model.
    let absurd = mutate_header(&bytes, |json| {
        let at = json.find("\"scales\":[").unwrap() + "\"scales\":[".len();
        let end = at + json[at..].find([',', ']']).unwrap();
        format!("{}1e38{}", &json[..at], &json[end..])
    });
    assert!(
        matches!(
            Snapshot::from_bytes(&absurd).unwrap_err(),
            SnapshotError::Param { .. }
        ),
        "absurd scale must be rejected"
    );

    // NaN scale is not valid JSON for this format: a typed header error.
    let nan = mutate_header(&bytes, |json| {
        let at = json.find("\"scales\":[").unwrap() + "\"scales\":[".len();
        let end = at + json[at..].find([',', ']']).unwrap();
        format!("{}NaN{}", &json[..at], &json[end..])
    });
    assert!(
        matches!(
            Snapshot::from_bytes(&nan).unwrap_err(),
            SnapshotError::Header(_)
        ),
        "NaN scale must fail header parsing"
    );

    // Unknown storage kinds: only "i8" is a quantized format.
    for kind in ["\"kind\":\"i4\"", "\"kind\":\"bf16\""] {
        let unknown = mutate_header(&bytes, |json| json.replacen("\"kind\":\"i8\"", kind, 1));
        assert!(
            matches!(
                Snapshot::from_bytes(&unknown).unwrap_err(),
                SnapshotError::Param { .. }
            ),
            "unknown kind {kind} must be rejected"
        );
    }

    // Wrong scale count for the declared kind and width: drop the first
    // scale (and its comma when the array has more).
    let fewer = mutate_header(&bytes, |json| {
        let at = json.find("\"scales\":[").unwrap() + "\"scales\":[".len();
        let rel = at + json[at..].find([',', ']']).unwrap();
        let end = if json.as_bytes()[rel] == b',' {
            rel + 1
        } else {
            rel
        };
        format!("{}{}", &json[..at], &json[end..])
    });
    assert!(
        matches!(
            Snapshot::from_bytes(&fewer).unwrap_err(),
            SnapshotError::Param { .. }
        ),
        "scale-count mismatch must be rejected"
    );
}

#[test]
fn hostile_quant_entries_are_typed_errors() {
    let good = quant_snap();
    assert!(
        good.quants.len() >= 2,
        "model must have several rank-2 params"
    );

    // Non-ascending parameter indices break canonicality.
    let mut snap = good.clone();
    snap.quants.swap(0, 1);
    assert!(matches!(
        Snapshot::from_bytes(&snap.to_bytes()).unwrap_err(),
        SnapshotError::Header(_)
    ));

    // Out-of-range parameter index.
    let mut snap = good.clone();
    let last = snap.quants.len() - 1;
    snap.quants[last].param = snap.params.len();
    assert!(matches!(
        Snapshot::from_bytes(&snap.to_bytes()).unwrap_err(),
        SnapshotError::Header(_)
    ));

    // Entry pointed at a non-rank-2 parameter (a bias vector).
    let mut snap = good.clone();
    let bias_idx = snap
        .params
        .iter()
        .position(|p| p.shape.len() != 2)
        .expect("model has bias params");
    let mut moved = snap.quants.remove(0);
    moved.param = bias_idx;
    snap.quants = vec![moved];
    assert!(matches!(
        Snapshot::from_bytes(&snap.to_bytes()).unwrap_err(),
        SnapshotError::Param { .. }
    ));

    // Hand-built snapshot whose matrix shape disagrees with its
    // parameter's: typed error on load, not a set_quant panic.
    let mut snap = good.clone();
    let wrong = snap.quants[1].matrix.clone();
    assert_ne!(
        (wrong.k(), wrong.n()),
        (snap.quants[0].matrix.k(), snap.quants[0].matrix.n()),
        "first two quantized params must differ in shape for this test"
    );
    snap.quants[0].matrix = wrong;
    snap.quants.truncate(1);
    assert!(matches!(
        InferenceModel::from_snapshot(&snap).err().unwrap(),
        SnapshotError::Param { .. }
    ));

    // More quant entries than parameters (duplicate declarations can
    // never reach here because of the ascending check; the count cap is
    // the backstop before any per-entry work).
    let mut snap = good.clone();
    let extra: Vec<_> = snap.quants.to_vec();
    snap.quants.extend(extra);
    let err = Snapshot::from_bytes(&snap.to_bytes()).unwrap_err();
    assert!(
        matches!(err, SnapshotError::Limit { .. } | SnapshotError::Header(_)),
        "unexpected {err:?}"
    );
}

#[test]
fn quant_section_order_and_duplication_are_enforced() {
    let bytes = quant_snap().to_bytes();

    // `quant` must follow `spec_plans`: the canonical order is the only
    // accepted one, so equal headers always have equal bytes.
    let reordered = mutate_header(&bytes, |json| {
        let spec = section_span(json, "spec_plans");
        let quant = section_span(json, "quant");
        assert!(spec.end <= quant.start, "canonical file has spec first");
        let spec_txt = json[spec.clone()].to_string();
        let quant_txt = json[quant.clone()].to_string();
        format!(
            "{}{}{}{}{}",
            &json[..spec.start],
            quant_txt,
            &json[spec.end..quant.start],
            spec_txt,
            &json[quant.end..]
        )
    });
    assert!(matches!(
        Snapshot::from_bytes(&reordered).unwrap_err(),
        SnapshotError::Header(_)
    ));

    // A duplicated quant section is rejected, not last-one-wins.
    let duplicated = mutate_header(&bytes, |json| {
        let quant = section_span(json, "quant");
        let quant_txt = json[quant.clone()].to_string();
        format!("{}{}{}", &json[..quant.end], quant_txt, &json[quant.end..])
    });
    assert!(matches!(
        Snapshot::from_bytes(&duplicated).unwrap_err(),
        SnapshotError::Header(_)
    ));
}

#[test]
fn quant_blob_that_does_not_match_f32_weights_is_rejected_on_load() {
    // A decoded file is consistent by construction (the f32 numbers are
    // reconstructed from the blob), so the inconsistency can only be
    // hand-built: a snapshot whose f32 data drifted from the blob's
    // dequantization must be rejected, never served with ambiguous
    // weights.
    let mut snap = quant_snap();
    let p = snap.quants[0].param;
    snap.params[p].data[0] += 1.0;
    assert!(matches!(
        InferenceModel::from_snapshot(&snap).err().unwrap(),
        SnapshotError::Param { .. }
    ));

    // And flipping a byte inside a quantized blob on disk changes the
    // model's weights coherently rather than desynchronizing them: the
    // file still decodes, still loads, and still reserializes to exactly
    // the corrupted bytes (canonical even for corrupt-but-valid files).
    let bytes = quant_snap().to_bytes();
    let mut corrupt = bytes.clone();
    let n = corrupt.len();
    corrupt[n - 1] = corrupt[n - 1].wrapping_add(1);
    let loaded = InferenceModel::from_snapshot_bytes(&corrupt).unwrap();
    assert_eq!(Snapshot::from_inference(&loaded).to_bytes(), corrupt);
}
