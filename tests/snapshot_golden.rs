//! Golden snapshot fixture: pins the on-disk format in CI.
//!
//! `tests/fixtures/golden.cdmppsnap` is a tiny trained checkpoint
//! committed to the repo (regenerate with
//! `cargo run --release --example golden_snapshot`). This test loads it
//! and asserts byte- and prediction-level invariants, so any change to the
//! header schema, weight encoding, or plan descriptor layout **breaks the
//! build** instead of silently orphaning users' snapshot files. An
//! intentional format change must bump `SNAPSHOT_VERSION`, regenerate the
//! fixture, keep the outgoing one as `golden_v<N>.cdmppsnap`, and repin
//! the constants below. The recipe — model, probes, hash — is
//! `tests/fixtures/golden_recipe.rs`, the file the generator runs.

use cdmpp::core::{Snapshot, SnapshotError};
use cdmpp::prelude::*;

#[path = "fixtures/golden_recipe.rs"]
mod recipe;
use recipe::{fnv1a, probes};

/// FNV-1a of the committed fixture bytes (platform-independent).
const FIXTURE_FNV1A: u64 = 0xfde92e5c5a0609af;
/// Exact predictions (seconds) for the three probe samples below.
const PINNED_PREDICTIONS: [f64; 3] = [
    4.413091913525276e-5,
    0.00011713455378271648,
    4.188172053261194e-5,
];

const FIXTURE: &[u8] = include_bytes!("fixtures/golden.cdmppsnap");

/// The fixture as format version 2 wrote it: the same model, its plans
/// still JSON in the header.
const FIXTURE_V2: &[u8] = include_bytes!("fixtures/golden_v2.cdmppsnap");
/// Bytes of the fixture's weight blob, the tail of the file.
const WEIGHT_BLOB_BYTES: usize = 23_204;

#[test]
fn golden_fixture_bytes_are_pinned() {
    assert_eq!(
        fnv1a(FIXTURE),
        FIXTURE_FNV1A,
        "the committed fixture changed; if the format change was \
         intentional, bump SNAPSHOT_VERSION and regenerate via \
         `cargo run --release --example golden_snapshot`"
    );
}

#[test]
fn golden_fixture_loads_and_predicts_exactly() {
    let snap = Snapshot::from_bytes(FIXTURE).expect(
        "the committed fixture no longer decodes: the snapshot format \
         drifted without a version bump",
    );
    assert_eq!(snap.plans.len(), snap.config.max_leaves, "full plan set");
    // The fixture predates batch specialization: the optional section must
    // decode as absent (forward compatibility of the additive format).
    assert!(
        snap.spec_plans.is_empty(),
        "pre-specialization fixture must have no spec section"
    );
    let model = InferenceModel::from_snapshot(&snap).expect("fixture must restore a model");
    assert!(model.predictor.batch_classes().is_empty());
    let preds = model.predict_samples(&probes()).unwrap();
    // The forward pass uses libm transcendentals (tanh/exp), which Rust
    // does not guarantee bit-exact across targets — so the exact pin runs
    // where CI runs (x86_64 linux), and other targets get a tight
    // tolerance instead of a false "format drift" failure.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    assert_eq!(
        preds.as_slice(),
        &PINNED_PREDICTIONS,
        "snapshot-restored predictions drifted from the pinned values"
    );
    for (got, want) in preds.iter().zip(&PINNED_PREDICTIONS) {
        assert!(
            ((got - want) / want).abs() < 1e-4,
            "prediction {got} far from pinned {want}"
        );
    }
    // The fixture ships every plan: restoring + serving records nothing.
    assert_eq!(model.predictor.plan_compile_count(), 0);
}

#[test]
fn golden_fixture_reserializes_canonically() {
    // load → save must reproduce the committed bytes exactly.
    let snap = Snapshot::from_bytes(FIXTURE).unwrap();
    let model = InferenceModel::from_snapshot(&snap).unwrap();
    assert_eq!(
        Snapshot::from_inference(&model).to_bytes(),
        FIXTURE,
        "canonical re-serialization of the fixture drifted"
    );
}

/// Training is bit-deterministic, so the recipe reproduces the committed
/// bytes — asserted where the exact prediction pin is (libm transcendentals
/// may differ elsewhere).
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
#[test]
fn golden_fixture_regenerates_from_its_recipe() {
    let model = recipe::train_fixture_model();
    let bytes = Snapshot::capture_all(&model).unwrap().to_bytes();
    assert!(
        bytes == FIXTURE,
        "the recipe no longer reproduces the committed fixture ({} bytes, FNV-1a {:#018x})",
        bytes.len(),
        fnv1a(&bytes)
    );
}

#[test]
fn version_2_fixture_is_refused_and_differs_only_in_format() {
    assert_eq!(
        Snapshot::from_bytes(FIXTURE_V2).unwrap_err(),
        SnapshotError::UnsupportedVersion {
            found: 2,
            supported: 3
        }
    );
    // Same weights, bit for bit: the version bump re-encoded the plans and
    // touched nothing a prediction is computed from.
    let blob = |bytes: &'static [u8]| &bytes[bytes.len() - WEIGHT_BLOB_BYTES..];
    assert_eq!(blob(FIXTURE), blob(FIXTURE_V2));
    // Same header, less its `plans` member (last in this fixture's header).
    let header = |bytes: &'static [u8]| {
        let len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
        std::str::from_utf8(&bytes[20..20 + len]).unwrap()
    };
    let v2 = header(FIXTURE_V2);
    let plans_at = v2.find(",\"plans\":[").expect("v2 carried plans as JSON");
    assert_eq!(header(FIXTURE), format!("{}}}", &v2[..plans_at]));
}
