//! Dataset persistence: JSON export/import of measured records.
//!
//! The paper open-sources its expanded Tenset records; the equivalent here
//! is a portable JSON serialization of the generated dataset so expensive
//! generations can be cached and shared across experiment runs.

use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use tir::{Network, Schedule, Task, TensorProgram};

use crate::gen::{Dataset, GenConfig, Record};

/// Serializable image of one record.
#[derive(Debug, Serialize, Deserialize)]
struct RecordImage {
    task_id: u32,
    schedule_id: u32,
    device: String,
    schedule: Schedule,
    program: TensorProgram,
    latency_s: f64,
}

/// Serializable image of a dataset.
#[derive(Debug, Serialize, Deserialize)]
struct DatasetImage {
    tasks: Vec<Task>,
    networks: Vec<Network>,
    task_networks: Vec<Vec<String>>,
    records: Vec<RecordImage>,
    seed: u64,
    batch: u64,
    schedules_per_task: usize,
    noise_sigma: f64,
}

/// Errors from dataset persistence.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// JSON (de)serialization failure.
    Json(serde_json::Error),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Json(e) => write!(f, "json error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Json(e)
    }
}

impl Dataset {
    /// Writes the dataset (including programs) to a JSON file.
    pub fn save_json(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        let image = DatasetImage {
            tasks: self.tasks.clone(),
            networks: self.networks.clone(),
            task_networks: self.task_networks.clone(),
            records: self
                .records
                .iter()
                .map(|r| RecordImage {
                    task_id: r.task_id,
                    schedule_id: r.schedule_id,
                    device: r.device.clone(),
                    schedule: (*r.schedule).clone(),
                    program: (*r.program).clone(),
                    latency_s: r.latency_s,
                })
                .collect(),
            seed: self.config.seed,
            batch: self.config.batch,
            schedules_per_task: self.config.schedules_per_task,
            noise_sigma: self.config.noise_sigma,
        };
        let file = std::fs::File::create(path)?;
        let mut w = BufWriter::new(file);
        serde_json::to_writer(&mut w, &image)?;
        w.flush()?;
        Ok(())
    }

    /// Loads a dataset previously written by [`Dataset::save_json`].
    ///
    /// Identical `(task_id, schedule_id)` programs are re-shared via `Arc`
    /// so the loaded dataset has the same memory profile as a generated
    /// one.
    pub fn load_json(path: impl AsRef<Path>) -> Result<Dataset, PersistError> {
        let file = std::fs::File::open(path)?;
        let image: DatasetImage = serde_json::from_reader(BufReader::new(file))?;
        let mut prog_cache: std::collections::HashMap<
            (u32, u32),
            (Arc<Schedule>, Arc<TensorProgram>),
        > = Default::default();
        let records = image
            .records
            .into_iter()
            .map(|r| {
                let key = (r.task_id, r.schedule_id);
                let (schedule, program) = prog_cache
                    .entry(key)
                    .or_insert_with(|| (Arc::new(r.schedule), Arc::new(r.program)))
                    .clone();
                Record {
                    task_id: r.task_id,
                    schedule_id: r.schedule_id,
                    device: r.device,
                    schedule,
                    program,
                    latency_s: r.latency_s,
                }
            })
            .collect();
        Ok(Dataset {
            tasks: image.tasks,
            networks: image.networks,
            task_networks: image.task_networks,
            records,
            config: GenConfig {
                batch: image.batch,
                schedules_per_task: image.schedules_per_task,
                devices: Vec::new(), // device list is recoverable from records
                seed: image.seed,
                noise_sigma: image.noise_sigma,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GenConfig;
    use tir::zoo;

    fn tiny() -> Dataset {
        Dataset::generate_with_networks(
            GenConfig {
                batch: 1,
                schedules_per_task: 2,
                devices: vec![devsim::t4(), devsim::epyc_7452()],
                seed: 17,
                noise_sigma: 0.0,
            },
            vec![zoo::mlp_mixer(1)],
        )
    }

    #[test]
    fn save_load_roundtrip() {
        let ds = tiny();
        let path = std::env::temp_dir().join("cdmpp_ds_roundtrip.json");
        ds.save_json(&path).unwrap();
        let back = Dataset::load_json(&path).unwrap();
        assert_eq!(back.records.len(), ds.records.len());
        assert_eq!(back.tasks, ds.tasks);
        assert_eq!(back.task_networks, ds.task_networks);
        for (a, b) in ds.records.iter().zip(back.records.iter()) {
            assert_eq!(a.task_id, b.task_id);
            assert_eq!(a.device, b.device);
            let rel = (a.latency_s - b.latency_s).abs() / a.latency_s;
            assert!(
                rel < 1e-12,
                "latency roundtrip {} vs {}",
                a.latency_s,
                b.latency_s
            );
            assert_eq!(*a.program, *b.program);
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn loaded_programs_are_shared_across_devices() {
        let ds = tiny();
        let path = std::env::temp_dir().join("cdmpp_ds_shared.json");
        ds.save_json(&path).unwrap();
        let back = Dataset::load_json(&path).unwrap();
        // Records for the same (task, schedule) on two devices share one Arc.
        let a = &back.records[0];
        let twin = back
            .records
            .iter()
            .find(|r| {
                r.task_id == a.task_id && r.schedule_id == a.schedule_id && r.device != a.device
            })
            .expect("two devices present");
        assert!(Arc::ptr_eq(&a.program, &twin.program));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn broken_program_json_is_a_typed_error() {
        let path = std::env::temp_dir().join("cdmpp_ds_broken.json");
        tiny().save_json(&path).unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        let program = json.find("\"program\":").unwrap();
        let tag = program + json[program..].find("{\"Loop\"").unwrap();
        // Cut inside the first program, misspell a node tag, and put a
        // number where a loop body holds nodes.
        for broken in [
            json[..tag + 20].to_string(),
            format!("{}{{\"Lop\"{}", &json[..tag], &json[tag + 7..]),
            json.replacen("\"body\":[", "\"body\":[7,", 1),
        ] {
            std::fs::write(&path, broken).unwrap();
            assert!(matches!(
                Dataset::load_json(&path),
                Err(PersistError::Json(_))
            ));
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(matches!(
            Dataset::load_json("/definitely/not/here.json"),
            Err(PersistError::Io(_))
        ));
    }
}
