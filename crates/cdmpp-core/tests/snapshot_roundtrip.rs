//! Snapshot round-trip and adversarial-decode properties.
//!
//! * save → load → `predict_planned` must be **bit-identical** to the
//!   in-memory model, across leaf counts, head counts, PE on/off, batch
//!   sizes, and label-transform kinds — and loading must perform **zero**
//!   plan recordings when the file carries plans.
//! * `save(load(x))` must reproduce `x`'s bytes exactly (the format is
//!   canonical).
//! * Malformed files — truncations, flipped magic, future and earlier
//!   versions, out-of-range plan indices, hostile plan-section bytes, NaN
//!   or length-mismatched weight sections, attacker-sized declared lengths
//!   — must come back as typed [`SnapshotError`]s: never a panic, never an
//!   unbounded allocation.
//! * Plans travel as bytes: for every leaf count and weight-storage kind,
//!   a recorded plan's byte form round-trips both ways and replays
//!   bit-identically.

use cdmpp_core::batch::{EncodedSample, FeatScaler};
use cdmpp_core::{
    InferenceModel, Predictor, PredictorConfig, Snapshot, SnapshotError, TrainConfig, TrainedModel,
};
use features::{N_DEVICE_FEATURES, N_ENTRY};
use learn::TransformKind;
use proptest::prelude::*;

fn tiny_config(heads: usize, seed: u64) -> PredictorConfig {
    PredictorConfig {
        d_model: 16,
        n_layers: 1,
        heads,
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

fn model_with(cfg: PredictorConfig, use_pe: bool, transform: TransformKind) -> TrainedModel {
    TrainedModel {
        predictor: Predictor::new(cfg),
        transform: transform.fit(&[0.4e-3, 1.1e-3, 2.5e-3, 7.0e-3, 1.9e-2]),
        scaler: FeatScaler::identity(),
        use_pe,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn save_load_predict_is_bit_identical_and_records_nothing(
        head_idx in 0usize..3,
        pe_idx in 0usize..2,
        kind_idx in 0usize..4,
        seed in 0u64..1_000,
        n_samples in 4usize..16,
    ) {
        let kind = [
            TransformKind::BoxCox,
            TransformKind::YeoJohnson,
            TransformKind::Quantile,
            TransformKind::None,
        ][kind_idx];
        let use_pe = pe_idx == 1;
        let model = model_with(tiny_config([1, 2, 4][head_idx], seed), use_pe, kind);
        let bytes = Snapshot::capture_all(&model).unwrap().to_bytes();

        // Mixed leaf counts and batch sizes through both paths.
        let enc: Vec<EncodedSample> = (0..n_samples)
            .map(|i| sample(1 + (i + seed as usize) % 4, i))
            .collect();
        let loaded = InferenceModel::from_snapshot_bytes(&bytes).unwrap();
        let from_file = loaded.predict_samples(&enc).unwrap();
        let in_memory = model.freeze().predict_samples(&enc).unwrap();
        prop_assert_eq!(&from_file, &in_memory, "loaded plans must replay bit-identically");
        prop_assert!(from_file.iter().all(|v| v.is_finite()));

        // The file carried every plan, so serving recorded nothing.
        prop_assert_eq!(loaded.predictor.plan_compile_count(), 0);

        // Canonical bytes: re-capturing the loaded model reproduces the
        // file exactly (save(load(x)) == x).
        let again = Snapshot::from_inference(&loaded).to_bytes();
        prop_assert_eq!(again, bytes);
    }
}

fn valid_bytes() -> Vec<u8> {
    let model = model_with(tiny_config(2, 9), true, TransformKind::BoxCox);
    Snapshot::capture_all(&model).unwrap().to_bytes()
}

/// Where the plan section's entries sit in a snapshot file: after the
/// 20-byte prelude, the JSON header and the section's own 8-byte length.
fn plan_section(bytes: &[u8]) -> std::ops::Range<usize> {
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let start = 20 + word(12) + 8;
    start..start + word(start - 8)
}

#[test]
fn weights_only_snapshot_compiles_plans_lazily() {
    let model = model_with(tiny_config(2, 3), true, TransformKind::None);
    let snap = Snapshot::capture(&model, &[]).unwrap();
    assert!(snap.plans.is_empty());
    let loaded = InferenceModel::from_snapshot_bytes(&snap.to_bytes()).unwrap();
    let enc = vec![sample(3, 0), sample(1, 1)];
    let got = loaded.predict_samples(&enc).unwrap();
    assert_eq!(got, model.freeze().predict_samples(&enc).unwrap());
    // No plans in the file: the two leaf counts served were recorded live.
    assert_eq!(loaded.predictor.plan_compile_count(), 2);
}

#[test]
fn partial_plan_sets_round_trip() {
    let model = model_with(tiny_config(2, 4), false, TransformKind::None);
    let snap = Snapshot::capture(&model, &[2, 4]).unwrap();
    assert_eq!(
        snap.plans.iter().map(|p| p.leaves).collect::<Vec<_>>(),
        vec![2, 4]
    );
    let loaded = InferenceModel::from_snapshot_bytes(&snap.to_bytes()).unwrap();
    let enc: Vec<EncodedSample> = (0..8).map(|i| sample(1 + i % 4, i)).collect();
    assert_eq!(
        loaded.predict_samples(&enc).unwrap(),
        model.freeze().predict_samples(&enc).unwrap()
    );
    // Leaf counts 1 and 3 had no serialized plan and were recorded live.
    assert_eq!(loaded.predictor.plan_compile_count(), 2);
}

#[test]
fn truncated_files_are_typed_errors_never_panics() {
    let bytes = valid_bytes();
    let plans = plan_section(&bytes);
    // Every prefix of the prelude and the start of the header, every cut
    // inside the plan section (its length field included), then a sweep
    // through the rest (strided to keep the test fast).
    let mut cuts: Vec<usize> = (0..64.min(bytes.len())).collect();
    cuts.extend((64..plans.start - 8).step_by(997));
    cuts.extend(plans.start - 8..plans.end);
    cuts.extend((plans.end..bytes.len()).step_by(997));
    cuts.push(bytes.len() - 1);
    for cut in cuts {
        let err = Snapshot::from_bytes(&bytes[..cut]).unwrap_err();
        if plans.contains(&cut) {
            // The section's declared length is checked against the bytes
            // present before any entry is read.
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated {
                        what: "plan section",
                        ..
                    }
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
        assert!(
            matches!(
                err,
                SnapshotError::Truncated { .. } | SnapshotError::Header(_)
            ),
            "cut at {cut}: unexpected {err:?}"
        );
    }
}

#[test]
fn hostile_plan_sections_are_typed_errors_naming_leaf_count_and_offset() {
    let bytes = valid_bytes();
    let plans = plan_section(&bytes);
    let load = |bytes: &[u8]| InferenceModel::from_snapshot_bytes(bytes).err().unwrap();
    let u32_at =
        |bytes: &[u8], at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    // The first entry: leaf count, byte length, then the plan.
    assert_eq!(u32_at(&bytes, plans.start), 1);
    let first_len = u32_at(&bytes, plans.start + 4) as usize;
    let second = plans.start + 8 + first_len;
    assert_eq!(u32_at(&bytes, second), 2);

    // An unknown tag inside the second entry (its first step's kind).
    let mut bad = bytes.clone();
    bad[second + 8 + 4] = 0xEE;
    match load(&bad) {
        SnapshotError::Plan { leaves: 2, reason } => {
            assert!(
                reason.contains(&format!("offset {}", second - plans.start))
                    && reason.contains("step kind tag 238 at offset 4"),
                "{reason}"
            );
        }
        other => panic!("unexpected {other:?}"),
    }

    // An entry one byte longer than its plan (the section and the next
    // entry moved along with it): trailing bytes inside the entry.
    let mut bad = bytes.clone();
    bad.insert(second, 0);
    bad[plans.start + 4..plans.start + 8].copy_from_slice(&(first_len as u32 + 1).to_le_bytes());
    let at = plans.start - 8;
    bad[at..at + 8].copy_from_slice(&(plans.len() as u64 + 1).to_le_bytes());
    match load(&bad) {
        SnapshotError::Plan { leaves: 1, reason } => {
            assert!(reason.contains("1 trailing bytes"), "{reason}")
        }
        other => panic!("unexpected {other:?}"),
    }

    // An entry one byte shorter than its plan: a short read inside it.
    let mut bad = bytes.clone();
    bad[plans.start + 4..plans.start + 8].copy_from_slice(&(first_len as u32 - 1).to_le_bytes());
    match load(&bad) {
        SnapshotError::Plan { leaves: 1, reason } => {
            assert!(reason.contains("plan bytes end at offset"), "{reason}")
        }
        other => panic!("unexpected {other:?}"),
    }

    // An entry that claims more bytes than the section has left.
    let mut bad = bytes.clone();
    bad[plans.start + 4..plans.start + 8].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(
        matches!(load(&bad), SnapshotError::Plan { leaves: 1, .. }),
        "{:?}",
        load(&bad)
    );

    // A step count above the table cap, and one the bytes cannot back:
    // both refused before they size an allocation.
    for (count, want) in [
        (u32::MAX, "exceeds the decode cap"),
        (60_000, "plan bytes end"),
    ] {
        let mut bad = bytes.clone();
        bad[plans.start + 8..plans.start + 12].copy_from_slice(&count.to_le_bytes());
        match load(&bad) {
            SnapshotError::Plan { leaves: 1, reason } => assert!(reason.contains(want), "{reason}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    // A section length beyond its cap, and beyond the file.
    let mut bad = bytes.clone();
    bad[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        load(&bad),
        SnapshotError::Limit {
            what: "plan section length",
            ..
        }
    ));
    let mut bad = bytes.clone();
    bad[at..at + 8].copy_from_slice(&(bytes.len() as u64).to_le_bytes());
    assert!(matches!(
        load(&bad),
        SnapshotError::Truncated {
            what: "plan section",
            ..
        }
    ));
}

#[test]
fn non_finite_plan_constants_are_refused_in_structs_and_in_bytes() {
    use nn::plan::desc::StepKindDesc;
    let model = model_with(tiny_config(2, 16), true, TransformKind::None);
    let mut snap = Snapshot::capture(&model, &[2]).unwrap();
    let mut poisoned = 0;
    for step in &mut snap.plans[0].plan.steps {
        if let StepKindDesc::Bmm { scale: Some(c), .. } = &mut step.kind {
            *c = f32::NAN;
            poisoned += 1;
        }
    }
    assert!(poisoned > 0, "attention scaling is fused into a Bmm");
    // Raw-bit constants carry a NaN through the file as it is, so the
    // byte path meets the same check as the struct path.
    for err in [
        InferenceModel::from_snapshot(&snap).err().unwrap(),
        InferenceModel::from_snapshot_bytes(&snap.to_bytes())
            .err()
            .unwrap(),
    ] {
        match err {
            SnapshotError::Plan { leaves: 2, reason } => {
                assert!(reason.contains("not finite"), "{reason}")
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

/// Plans of every leaf count, recorded against f32 and i8 weight
/// stores: the byte form round-trips both ways, and the plan rebuilt
/// from it replays bit-identically to the recorded one.
#[test]
fn plan_bytes_round_trip_and_replay_for_every_leaf_count_and_store_kind() {
    use nn::{Plan, PlanDesc, PlanExec};
    use std::sync::Arc;
    use tensor::{QuantMode, Tensor};
    for mode in [QuantMode::F32, QuantMode::I8] {
        let cfg = tiny_config(2, 17);
        let shared = Predictor::new(cfg.clone()).into_shared_quantized(mode);
        for leaves in 1..=cfg.max_leaves {
            let recorded = shared.plan_for(leaves).unwrap();
            let desc = recorded.to_desc();
            let mut bytes = Vec::new();
            desc.encode_into(&mut bytes);
            let mut rest = bytes.as_slice();
            let back = PlanDesc::decode(&mut rest).unwrap();
            assert!(rest.is_empty(), "{mode:?}, {leaves} leaves");
            assert_eq!(back, desc, "{mode:?}, {leaves} leaves");
            let mut again = Vec::new();
            back.encode_into(&mut again);
            assert_eq!(again, bytes, "{mode:?}, {leaves} leaves");

            let rebuilt = Plan::from_desc(&back, shared.params()).unwrap();
            let mut want = PlanExec::new(recorded);
            let mut got = PlanExec::new(Arc::new(rebuilt));
            for b in [1usize, 3] {
                let x = Tensor::from_fn(&[b, leaves, N_ENTRY], |i| (i as f32 * 0.31).sin());
                let dev = Tensor::from_fn(&[b, N_DEVICE_FEATURES], |i| (i as f32 * 0.17).cos());
                want.run(shared.params(), &[&x, &dev]).unwrap();
                got.run(shared.params(), &[&x, &dev]).unwrap();
                for out in 0..2 {
                    assert_eq!(
                        got.output(out)
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<_>>(),
                        want.output(out)
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<_>>(),
                        "{mode:?}, {leaves} leaves, batch {b}, output {out}"
                    );
                }
            }
        }
    }
}

#[test]
fn flipped_magic_is_rejected() {
    let mut bytes = valid_bytes();
    bytes[0] ^= 0xFF;
    assert_eq!(
        Snapshot::from_bytes(&bytes).unwrap_err(),
        SnapshotError::BadMagic
    );
}

#[test]
fn future_format_version_is_rejected() {
    let mut bytes = valid_bytes();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert_eq!(
        Snapshot::from_bytes(&bytes).unwrap_err(),
        SnapshotError::UnsupportedVersion {
            found: 99,
            supported: cdmpp_core::snapshot::SNAPSHOT_VERSION
        }
    );
}

#[test]
fn earlier_format_version_is_rejected_and_worded_as_older() {
    let mut bytes = valid_bytes();
    bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
    let err = Snapshot::from_bytes(&bytes).unwrap_err();
    assert_eq!(
        err,
        SnapshotError::UnsupportedVersion {
            found: 2,
            supported: 3
        }
    );
    // The wording follows the direction: an old file is not "newer".
    assert_eq!(
        err.to_string(),
        "snapshot format version 2 was written by an earlier build (this one reads version 3); \
         re-save it with `cdmpp train --save`"
    );
    let newer = SnapshotError::UnsupportedVersion {
        found: 99,
        supported: 3,
    };
    assert_eq!(
        newer.to_string(),
        "snapshot format version 99 is newer than the supported 3"
    );
}

#[test]
fn concurrent_saves_to_one_path_never_publish_a_mixed_file() {
    // Two threads of one process saving different models to the same
    // path: each save writes through a temporary of its own, so every
    // load in between reads one whole file or the other.
    let a = Snapshot::capture_all(&model_with(tiny_config(2, 30), true, TransformKind::None))
        .unwrap()
        .to_bytes();
    let b = Snapshot::capture_all(&model_with(tiny_config(2, 31), true, TransformKind::None))
        .unwrap()
        .to_bytes();
    assert_ne!(a, b);
    let dir = std::env::temp_dir().join(format!("cdmpp-save-race-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.cdmppsnap");
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for bytes in [&a, &b] {
            let (path, start, a, b) = (&path, &start, &a, &b);
            s.spawn(move || {
                let snap = Snapshot::from_bytes(bytes).unwrap();
                start.wait();
                for i in 0..50 {
                    snap.save(path).unwrap_or_else(|e| panic!("save {i}: {e}"));
                    let seen = Snapshot::load(path)
                        .unwrap_or_else(|e| panic!("load after save {i}: {e}"))
                        .to_bytes();
                    assert!(seen == *a || seen == *b, "mixed file after save {i}");
                }
            });
        }
    });
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(left, ["model.cdmppsnap"], "temporaries left behind");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn attacker_sized_header_is_capped_before_allocation() {
    let mut bytes = valid_bytes();
    bytes[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        Snapshot::from_bytes(&bytes).unwrap_err(),
        SnapshotError::Limit {
            what: "header length",
            ..
        }
    ));
}

#[test]
fn attacker_sized_weight_declaration_is_capped_before_allocation() {
    let model = model_with(tiny_config(2, 5), true, TransformKind::None);
    let mut snap = Snapshot::capture(&model, &[]).unwrap();
    // Declare a tensor far beyond the cap; its data is deliberately tiny,
    // so if decoding believed the shape it would try to allocate ~4 TiB.
    snap.params[0].shape = vec![1 << 20, 1 << 20];
    let err = Snapshot::from_bytes(&snap.to_bytes()).unwrap_err();
    assert!(
        matches!(err, SnapshotError::Limit { .. }),
        "unexpected {err:?}"
    );
}

#[test]
fn nan_weight_section_is_a_typed_error() {
    let model = model_with(tiny_config(2, 6), true, TransformKind::None);
    let snap = Snapshot::capture(&model, &[]).unwrap();
    let mut bytes = snap.to_bytes();
    // Overwrite the first weight with a NaN bit pattern. The weight blob
    // starts right after the plan section.
    let at = plan_section(&bytes).end;
    bytes[at..at + 4].copy_from_slice(&f32::NAN.to_le_bytes());
    let err = Snapshot::from_bytes(&bytes).unwrap_err();
    assert!(
        matches!(err, SnapshotError::NonFinite { index: 0, .. }),
        "unexpected {err:?}"
    );
}

#[test]
fn length_mismatched_weight_sections_are_typed_errors() {
    let bytes = valid_bytes();
    // Too short: handled by the truncation test; too long:
    let mut longer = bytes.clone();
    longer.extend_from_slice(&[0u8; 3]);
    assert_eq!(
        Snapshot::from_bytes(&longer).unwrap_err(),
        SnapshotError::TrailingBytes { extra: 3 }
    );
}

#[test]
fn out_of_range_plan_slot_is_a_typed_error() {
    let model = model_with(tiny_config(2, 7), true, TransformKind::None);
    let mut snap = Snapshot::capture(&model, &[2]).unwrap();
    snap.plans[0].plan.bufs[0].slot = 10_000;
    let err = InferenceModel::from_snapshot_bytes(&snap.to_bytes())
        .err()
        .unwrap();
    assert!(
        matches!(err, SnapshotError::Plan { leaves: 2, .. }),
        "unexpected {err:?}"
    );
}

#[test]
fn plan_for_wrong_model_shape_is_rejected() {
    // A structurally valid plan recorded for leaf count 2 smuggled into
    // the leaf-3 slot: the input-shape check must catch it.
    let model = model_with(tiny_config(2, 8), true, TransformKind::None);
    let mut snap = Snapshot::capture(&model, &[2]).unwrap();
    snap.plans[0].leaves = 3;
    let err = InferenceModel::from_snapshot_bytes(&snap.to_bytes())
        .err()
        .unwrap();
    assert!(
        matches!(err, SnapshotError::Plan { leaves: 3, .. }),
        "unexpected {err:?}"
    );
}

#[test]
fn mismatched_parameter_shape_is_a_typed_error() {
    let model = model_with(tiny_config(2, 10), true, TransformKind::None);
    let mut snap = Snapshot::capture(&model, &[]).unwrap();
    // Swap two dims: byte count still matches, the architecture doesn't.
    let shape = &mut snap.params[0].shape;
    shape.reverse();
    let err = InferenceModel::from_snapshot_bytes(&snap.to_bytes())
        .err()
        .unwrap();
    assert!(
        matches!(err, SnapshotError::Param { .. }),
        "unexpected {err:?}"
    );
}

#[test]
fn hostile_config_is_capped_before_weight_allocation() {
    let model = model_with(tiny_config(2, 11), true, TransformKind::None);
    let mut snap = Snapshot::capture(&model, &[]).unwrap();
    // A config declaring a 2^60-wide model must be rejected before
    // Predictor::new would try to allocate its weights.
    snap.config.d_model = 1 << 60;
    let err = InferenceModel::from_snapshot(&snap).err().unwrap();
    assert!(matches!(err, SnapshotError::Model(_)), "unexpected {err:?}");
}

#[test]
fn heads_not_dividing_d_model_is_a_typed_error_not_a_panic() {
    let model = model_with(tiny_config(2, 13), true, TransformKind::None);
    let mut snap = Snapshot::capture(&model, &[]).unwrap();
    // Both fields individually valid; the attention layers would assert.
    snap.config.heads = 3;
    let err = InferenceModel::from_snapshot(&snap).err().unwrap();
    assert!(matches!(err, SnapshotError::Model(_)), "unexpected {err:?}");
}

#[test]
fn terabyte_scale_config_is_rejected_before_allocation() {
    let model = model_with(tiny_config(2, 15), true, TransformKind::None);
    let mut snap = Snapshot::capture(&model, &[]).unwrap();
    // Every field individually under its cap, but together they imply
    // ~terabytes of encoder weights — must be rejected before
    // Predictor::new tries to allocate them.
    snap.config.d_model = 1 << 14;
    snap.config.d_ff = 1 << 14;
    snap.config.heads = 1;
    snap.config.n_layers = 256;
    let err = InferenceModel::from_snapshot(&snap).err().unwrap();
    assert!(
        matches!(err, SnapshotError::Limit { .. }),
        "unexpected {err:?}"
    );
}

#[test]
fn zero_std_scaler_column_is_a_typed_error() {
    let model = model_with(tiny_config(2, 14), true, TransformKind::None);
    let mut snap = Snapshot::capture(&model, &[]).unwrap();
    // Finite but division-poisoning: predictions would all become NaN.
    snap.scaler.std[0] = 0.0;
    let err = InferenceModel::from_snapshot(&snap).err().unwrap();
    assert!(
        matches!(err, SnapshotError::Header(_)),
        "unexpected {err:?}"
    );
}

#[test]
fn unsorted_plans_are_rejected_for_canonicality() {
    let model = model_with(tiny_config(2, 12), true, TransformKind::None);
    let mut snap = Snapshot::capture(&model, &[2, 3]).unwrap();
    snap.plans.swap(0, 1);
    let err = Snapshot::from_bytes(&snap.to_bytes()).unwrap_err();
    assert!(
        matches!(err, SnapshotError::Header(_)),
        "unexpected {err:?}"
    );
}

// ---------------------------------------------------------------------------
// Batch-specialization section (optional, additive)
// ---------------------------------------------------------------------------

#[test]
fn snapshot_without_spec_section_loads_and_serves_generic_only() {
    // Forward compatibility: a v-current file with no specialized-plan
    // section (exactly what every pre-specialization snapshot is) must
    // load, serve through generic plans, perform zero recordings, and
    // re-serialize byte-identically (the empty section is omitted).
    let model = model_with(tiny_config(2, 21), true, TransformKind::BoxCox);
    let snap = Snapshot::capture_all(&model).unwrap();
    assert!(snap.spec_plans.is_empty());
    let bytes = snap.to_bytes();
    assert!(
        !bytes.windows(10).any(|w| w == b"spec_plans"),
        "empty section must be omitted from the header"
    );
    let loaded = InferenceModel::from_snapshot_bytes(&bytes).unwrap();
    assert!(loaded.predictor.specialized_plans().is_empty());
    assert!(loaded.predictor.batch_classes().is_empty());
    let enc: Vec<EncodedSample> = (0..12).map(|i| sample(1 + i % 4, i)).collect();
    assert_eq!(
        loaded.predict_samples(&enc).unwrap(),
        model.freeze().predict_samples(&enc).unwrap()
    );
    assert_eq!(loaded.predictor.plan_compile_count(), 0);
    assert_eq!(Snapshot::from_inference(&loaded).to_bytes(), bytes);
}

#[test]
fn spec_section_round_trips_canonically_and_serves_specialized() {
    let model = model_with(tiny_config(2, 22), true, TransformKind::None);
    let snap = Snapshot::capture_all(&model)
        .unwrap()
        .with_batch_classes(&[1, 6])
        .unwrap();
    assert_eq!(
        snap.spec_plans.len(),
        2 * model.predictor.config().max_leaves
    );
    let bytes = snap.to_bytes();
    let loaded = InferenceModel::from_snapshot_bytes(&bytes).unwrap();
    assert_eq!(loaded.predictor.batch_classes(), vec![1, 6]);
    assert_eq!(
        loaded.predictor.specialized_plans().len(),
        snap.spec_plans.len()
    );
    assert_eq!(
        loaded.predictor.plan_compile_count(),
        0,
        "folding never records"
    );
    // Class-size and off-class batches both match the live model exactly.
    let mut runner = cdmpp_core::PlanRunner::new();
    let frozen = model.freeze();
    for b in [1usize, 3, 6] {
        let enc: Vec<EncodedSample> = (0..b).map(|i| sample(2, i)).collect();
        let got = loaded.predict_samples_with(&mut runner, &enc).unwrap();
        assert_eq!(got, frozen.predict_samples(&enc).unwrap(), "b = {b}");
    }
    assert_eq!(
        runner.spec_exec_count(),
        2,
        "class batches (1 and 6) must replay specialized plans"
    );
    // Canonical bytes: load → capture → save reproduces the file.
    assert_eq!(Snapshot::from_inference(&loaded).to_bytes(), bytes);
}

#[test]
fn hostile_spec_sections_are_typed_errors_never_panics() {
    let model = model_with(tiny_config(2, 23), true, TransformKind::None);
    let good = Snapshot::capture_all(&model)
        .unwrap()
        .with_batch_classes(&[1, 4])
        .unwrap();
    assert!(InferenceModel::from_snapshot(&good).is_ok());

    // Out-of-order entries break canonicality at decode time.
    let mut snap = good.clone();
    snap.spec_plans.swap(0, 1);
    assert!(matches!(
        Snapshot::from_bytes(&snap.to_bytes()),
        Err(SnapshotError::Header(_))
    ));

    // Leaf count outside the model's range.
    let mut snap = good.clone();
    snap.spec_plans[0].leaves = 99;
    match InferenceModel::from_snapshot(&snap).err() {
        Some(SnapshotError::Plan { leaves: 99, .. }) => {}
        other => panic!("expected Plan error, got {other:?}"),
    }

    // Batch class 0 and an attacker-sized batch class.
    for batch in [0usize, usize::MAX] {
        let mut snap = good.clone();
        snap.spec_plans[0].batch = batch;
        assert!(
            matches!(
                InferenceModel::from_snapshot(&snap),
                Err(SnapshotError::Plan { .. })
            ),
            "batch {batch} must be rejected"
        );
    }

    // A specialization request whose generic plan is not in the file
    // would force a recording on load — typed error instead.
    let mut snap = good.clone();
    snap.plans.remove(0); // drop the leaf-1 generic plan
    assert!(snap.spec_plans.iter().any(|e| e.leaves == 1));
    assert!(matches!(
        InferenceModel::from_snapshot(&snap),
        Err(SnapshotError::Plan { leaves: 1, .. })
    ));

    // More distinct classes than the serving tier allows.
    let mut snap = good.clone();
    snap.spec_plans = (1..=cdmpp_core::MAX_BATCH_CLASSES + 1)
        .map(|batch| cdmpp_core::SpecPlanEntry { leaves: 1, batch })
        .collect();
    assert!(matches!(
        InferenceModel::from_snapshot(&snap),
        Err(SnapshotError::Plan { .. })
    ));
}
