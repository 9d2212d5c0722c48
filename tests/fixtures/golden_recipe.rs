//! The golden fixture's recipe: the model `golden.cdmppsnap` holds, the
//! probe samples its pinned predictions answer, and the hash its bytes are
//! pinned by. One copy, included by path from the generator
//! (`examples/golden_snapshot.rs`) and from the tests that hold the
//! committed file to it (`tests/snapshot_golden.rs`,
//! `tests/snapshot_fuzz.rs`).

// Each includer uses a part of it.
#![allow(dead_code)]

use cdmpp::core::batch::EncodedSample;
use cdmpp::prelude::*;

/// The exact model the fixture holds: tiny, deterministic, max_leaves 4.
pub fn train_fixture_model() -> TrainedModel {
    let ds = Dataset::generate_with_networks(
        GenConfig {
            batch: 1,
            schedules_per_task: 3,
            devices: vec![cdmpp::devsim::t4()],
            seed: 7,
            noise_sigma: 0.0,
        },
        vec![cdmpp::tir::zoo::bert_tiny(1), cdmpp::tir::zoo::mlp_mixer(1)],
    );
    let split = SplitIndices::for_device(&ds, "T4", &[], 1);
    let pcfg = PredictorConfig {
        d_model: 16,
        n_layers: 1,
        heads: 2,
        d_ff: 32,
        d_emb: 12,
        d_dev: 8,
        dec_hidden: 16,
        dec_layers: 1,
        max_leaves: 4,
        ..Default::default()
    };
    let (model, _) = pretrain(
        &ds,
        &split.train,
        &split.valid,
        pcfg,
        TrainConfig {
            epochs: 4,
            ..Default::default()
        },
    );
    model
}

/// The three pinned probe samples.
pub fn probes() -> Vec<EncodedSample> {
    [1usize, 2, 4]
        .iter()
        .enumerate()
        .map(|(s, &leaves)| EncodedSample {
            record_idx: s,
            leaf_count: leaves,
            x: (0..leaves * cdmpp::features::N_ENTRY)
                .map(|i| ((i + 13 * s) as f32 * 0.157).sin())
                .collect(),
            dev: [0.4; cdmpp::features::N_DEVICE_FEATURES],
            y_raw: 1e-3,
        })
        .collect()
}

/// FNV-1a over bytes (stable, platform-independent).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}
