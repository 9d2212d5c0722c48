//! Regenerates the committed golden snapshot fixture
//! (`tests/fixtures/golden.cdmppsnap`) and prints the pinned values the
//! CI golden test (`tests/snapshot_golden.rs`) asserts against.
//!
//! Run after an *intentional* snapshot-format change (bump
//! `SNAPSHOT_VERSION` first!):
//!
//! ```console
//! $ cargo run --release --example golden_snapshot
//! ```
//!
//! then paste the printed constants into `tests/snapshot_golden.rs`. The
//! model, the probes and the hash are `tests/fixtures/golden_recipe.rs`,
//! shared with that test. Training is bit-deterministic for any thread
//! count, so the fixture reproduces exactly on the same target —
//! `golden_fixture_regenerates_from_its_recipe` holds it to that.

use cdmpp::core::Snapshot;
use cdmpp::prelude::*;

#[path = "../tests/fixtures/golden_recipe.rs"]
mod recipe;
use recipe::{fnv1a, probes, train_fixture_model};

fn main() {
    let model = train_fixture_model();
    let snap = Snapshot::capture_all(&model).expect("capture");
    let bytes = snap.to_bytes();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/golden.cdmppsnap"
    );
    std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).expect("mkdir");
    std::fs::write(path, &bytes).expect("write fixture");

    let loaded = InferenceModel::from_snapshot_bytes(&bytes).expect("load");
    let preds = loaded.predict_samples(&probes()).expect("predict");
    println!(
        "wrote {path} ({} bytes, {} plans)",
        bytes.len(),
        snap.plans.len()
    );
    println!("const FIXTURE_FNV1A: u64 = 0x{:016x};", fnv1a(&bytes));
    println!("const PINNED_PREDICTIONS: [f64; 3] = {preds:?};");
}
