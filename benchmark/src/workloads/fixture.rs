//! The cost model the serving, search and cold-start workloads run on: the
//! one `cdmpp train T4 --save <file>` produces, made the same way.
//!
//! The model is the system under test, not a workload input, so its
//! training seed is the CLI's (0) whatever `--seed` says; `--seed` drives
//! the requests sent to it.

use std::path::{Path, PathBuf};
use std::time::Instant;

use cdmpp_core::{
    evaluate, pretrain, InferenceModel, PredictorConfig, Snapshot, TrainConfig, TrainedModel,
    DEFAULT_MAX_BATCH,
};
use dataset::{Dataset, GenConfig, SplitIndices};
use runtime::{EngineConfig, InferenceEngine};
use tensor::QuantMode;

/// Where setup time went; reported as layer metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixtureTimings {
    pub dataset_generate_s: f64,
    pub train_s: f64,
    pub capture_save_ms: f64,
}

/// A trained CLI-scale model and the snapshot file written from it. The
/// file is removed when the fixture is dropped.
pub struct Fixture {
    pub trained: TrainedModel,
    pub snapshot_path: PathBuf,
    pub file_bytes: u64,
    /// Test MAPE of the trained model, as `cdmpp train` prints it.
    pub test_mape: f64,
    pub timings: FixtureTimings,
}

impl Fixture {
    /// Trains as `cdmpp train T4` does and saves as `--save` does.
    pub fn build(out_dir: &Path, workload: &str) -> Result<Fixture, String> {
        let dev = devsim::t4();
        let t = Instant::now();
        let ds = Dataset::generate(GenConfig {
            batch: 1,
            schedules_per_task: 24,
            devices: vec![dev.clone()],
            seed: 0,
            noise_sigma: 0.03,
        });
        let dataset_generate_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let split = SplitIndices::for_device(&ds, &dev.name, &[], 0);
        let (trained, _) = pretrain(
            &ds,
            &split.train,
            &split.valid,
            PredictorConfig::default(),
            TrainConfig {
                epochs: 12,
                lr: 1.5e-3,
                ..Default::default()
            },
        );
        let test_mape = evaluate(&trained, &ds, &split.test).mape;
        let train_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let leaves: Vec<usize> = (1..=trained.predictor.config().max_leaves).collect();
        let snap = Snapshot::capture_quantized(&trained, &leaves, QuantMode::F32)
            .map_err(|e| format!("compiling inference plans failed: {e}"))?
            .with_batch_classes(&[1, DEFAULT_MAX_BATCH])
            .map_err(|e| format!("adding batch classes failed: {e}"))?;
        let bytes = snap.to_bytes();
        std::fs::create_dir_all(out_dir)
            .map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
        let snapshot_path = out_dir.join(format!(
            "fixture-{workload}-{}.cdmppsnap",
            std::process::id()
        ));
        std::fs::write(&snapshot_path, &bytes)
            .map_err(|e| format!("writing {}: {e}", snapshot_path.display()))?;
        let capture_save_ms = t.elapsed().as_secs_f64() * 1e3;

        Ok(Fixture {
            trained,
            file_bytes: bytes.len() as u64,
            snapshot_path,
            test_mape,
            timings: FixtureTimings {
                dataset_generate_s,
                train_s,
                capture_save_ms,
            },
        })
    }

    /// Cold-starts a serving model from the snapshot file, as `cdmpp
    /// serve --snapshot` does.
    pub fn load_model(&self) -> Result<InferenceModel, String> {
        InferenceModel::from_snapshot_file(&self.snapshot_path)
            .map_err(|e| format!("loading {}: {e}", self.snapshot_path.display()))
    }

    /// The engine at shipped defaults over the restored model.
    pub fn serve(&self) -> Result<InferenceEngine, String> {
        Ok(InferenceEngine::new(
            self.load_model()?,
            EngineConfig::default(),
        ))
    }

    pub fn setup_layers(&self, out: &mut super::Layers) {
        out.insert("dataset.generate_s", self.timings.dataset_generate_s);
        out.insert("trainer.fixture_train_s", self.timings.train_s);
        out.insert("snapshot.capture_save_ms", self.timings.capture_save_ms);
        out.insert("snapshot.file_bytes", self.file_bytes as f64);
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.snapshot_path);
    }
}
