//! Dataset generation: tasks × sampled schedules × devices.

use std::collections::HashMap;
use std::sync::Arc;

use devsim::{DeviceSpec, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tir::{all_networks, build_tasks, sample_lowered, Network, Schedule, Task, TensorProgram};

/// One measured record: a tensor program's latency on a device.
#[derive(Debug, Clone)]
pub struct Record {
    /// Task the program was scheduled from.
    pub task_id: u32,
    /// Index of the schedule within the task's sampled set.
    pub schedule_id: u32,
    /// Device name the measurement was taken on.
    pub device: String,
    /// The schedule that produced the program (for TLP-style features).
    pub schedule: Arc<Schedule>,
    /// The lowered tensor program (shared across devices).
    pub program: Arc<TensorProgram>,
    /// Measured latency in seconds (simulator + noise).
    pub latency_s: f64,
}

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Batch size the model zoo is instantiated at.
    pub batch: u64,
    /// Schedules sampled per task.
    pub schedules_per_task: usize,
    /// Devices to measure on.
    pub devices: Vec<DeviceSpec>,
    /// Master seed (schedule sampling and measurement noise derive from it).
    pub seed: u64,
    /// Measurement noise σ (0 disables noise).
    pub noise_sigma: f64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            batch: 1,
            schedules_per_task: 12,
            devices: devsim::all_devices(),
            seed: 42,
            noise_sigma: 0.03,
        }
    }
}

/// The generated dataset: tasks, networks, and measured records.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Deduplicated tasks across all networks.
    pub tasks: Vec<Task>,
    /// The source networks (the model set `M`).
    pub networks: Vec<Network>,
    /// For each task, the names of networks that use it.
    pub task_networks: Vec<Vec<String>>,
    /// All measured records.
    pub records: Vec<Record>,
    /// The config used.
    pub config: GenConfig,
}

impl Dataset {
    /// Generates the dataset from the full model zoo.
    pub fn generate(config: GenConfig) -> Self {
        let networks = all_networks(config.batch);
        Self::generate_with_networks(config, networks)
    }

    /// Generates from an explicit network list (tests use tiny zoos).
    pub fn generate_with_networks(config: GenConfig, networks: Vec<Network>) -> Self {
        let tasks = build_tasks(&networks);
        // Which networks use each task.
        let mut task_networks = vec![Vec::new(); tasks.len()];
        let spec_to_id: HashMap<_, _> = tasks.iter().map(|t| (t.spec, t.id)).collect();
        for net in &networks {
            for layer in &net.layers {
                let id = spec_to_id[&layer.spec] as usize;
                if !task_networks[id].contains(&net.name) {
                    task_networks[id].push(net.name.clone());
                }
            }
        }
        // Sample schedules per task and lower once (device-independent).
        let mut sched_rng = StdRng::seed_from_u64(config.seed);
        let mut programs: Vec<Vec<(Arc<Schedule>, Arc<TensorProgram>)>> = Vec::new();
        for task in &tasks {
            let nest = task.spec.canonical_nest();
            let per_task = (0..config.schedules_per_task)
                .map(|_| {
                    let (sched, prog) = sample_lowered(&nest, &mut sched_rng);
                    (Arc::new(sched), Arc::new(prog))
                })
                .collect();
            programs.push(per_task);
        }
        // Measure on every device.
        let mut records = Vec::new();
        for dev in &config.devices {
            let mut sim = Simulator::new(dev.clone());
            sim.noise_sigma = config.noise_sigma;
            let mut noise_rng = StdRng::seed_from_u64(config.seed ^ fxhash(dev.name.as_bytes()));
            for (task, per_task) in tasks.iter().zip(programs.iter()) {
                for (sid, (sched, prog)) in per_task.iter().enumerate() {
                    let latency = if config.noise_sigma > 0.0 {
                        sim.measure(prog, &mut noise_rng)
                    } else {
                        sim.latency_seconds(prog)
                    };
                    records.push(Record {
                        task_id: task.id,
                        schedule_id: sid as u32,
                        device: dev.name.clone(),
                        schedule: Arc::clone(sched),
                        program: Arc::clone(prog),
                        latency_s: latency,
                    });
                }
            }
        }
        Dataset {
            tasks,
            networks,
            task_networks,
            records,
            config,
        }
    }

    /// Indices of records measured on `device`.
    pub fn device_records(&self, device: &str) -> Vec<usize> {
        self.records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.device == device)
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether a task is used by any of the given (hold-out) networks.
    pub fn task_in_networks(&self, task_id: u32, networks: &[&str]) -> bool {
        self.task_networks[task_id as usize]
            .iter()
            .any(|n| networks.contains(&n.as_str()))
    }

    /// Task ids used by a specific network.
    pub fn network_task_ids(&self, network: &str) -> Vec<u32> {
        self.tasks
            .iter()
            .filter(|t| {
                self.task_networks[t.id as usize]
                    .iter()
                    .any(|n| n == network)
            })
            .map(|t| t.id)
            .collect()
    }

    /// Latencies (seconds) of a record index set.
    pub fn latencies(&self, idx: &[usize]) -> Vec<f64> {
        idx.iter().map(|&i| self.records[i].latency_s).collect()
    }
}

/// Tiny FNV-style hash for deriving per-device noise seeds.
fn fxhash(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::zoo;

    fn tiny_config() -> GenConfig {
        GenConfig {
            batch: 1,
            schedules_per_task: 3,
            devices: vec![devsim::t4(), devsim::epyc_7452()],
            seed: 7,
            noise_sigma: 0.02,
        }
    }

    fn tiny_networks() -> Vec<Network> {
        vec![zoo::bert_tiny(1), zoo::mlp_mixer(1)]
    }

    #[test]
    fn generation_produces_expected_record_count() {
        let ds = Dataset::generate_with_networks(tiny_config(), tiny_networks());
        let expect = ds.tasks.len() * 3 * 2; // tasks × schedules × devices
        assert_eq!(ds.records.len(), expect);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::generate_with_networks(tiny_config(), tiny_networks());
        let b = Dataset::generate_with_networks(tiny_config(), tiny_networks());
        assert_eq!(a.records.len(), b.records.len());
        for (ra, rb) in a.records.iter().zip(b.records.iter()) {
            assert_eq!(ra.latency_s, rb.latency_s);
            assert_eq!(ra.task_id, rb.task_id);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Dataset::generate_with_networks(tiny_config(), tiny_networks());
        let mut cfg = tiny_config();
        cfg.seed = 8;
        let b = Dataset::generate_with_networks(cfg, tiny_networks());
        assert!(a
            .records
            .iter()
            .zip(b.records.iter())
            .any(|(x, y)| x.latency_s != y.latency_s));
    }

    #[test]
    fn same_program_different_latency_across_devices() {
        let ds = Dataset::generate_with_networks(tiny_config(), tiny_networks());
        let t4_recs = ds.device_records("T4");
        let cpu_recs = ds.device_records("EPYC-7452");
        assert_eq!(t4_recs.len(), cpu_recs.len());
        // Same (task, schedule) pairs exist on both devices with different
        // latencies.
        let mut diffs = 0;
        for (&a, &b) in t4_recs.iter().zip(cpu_recs.iter()) {
            let (ra, rb) = (&ds.records[a], &ds.records[b]);
            assert_eq!(ra.task_id, rb.task_id);
            assert_eq!(ra.schedule_id, rb.schedule_id);
            if (ra.latency_s - rb.latency_s).abs() / ra.latency_s > 0.05 {
                diffs += 1;
            }
        }
        assert!(
            diffs > t4_recs.len() / 2,
            "devices must shift the distribution"
        );
    }

    #[test]
    fn latencies_positive_and_spread() {
        let ds = Dataset::generate_with_networks(tiny_config(), tiny_networks());
        let lats = ds.latencies(&ds.device_records("T4"));
        assert!(lats.iter().all(|&l| l > 0.0 && l.is_finite()));
        let max = lats.iter().cloned().fold(f64::MIN, f64::max);
        let min = lats.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min > 10.0, "latency range too narrow: {min}..{max}");
    }

    #[test]
    fn task_network_mapping() {
        let ds = Dataset::generate_with_networks(tiny_config(), tiny_networks());
        let bert_tasks = ds.network_task_ids("bert_tiny");
        assert!(!bert_tasks.is_empty());
        for tid in &bert_tasks {
            assert!(ds.task_in_networks(*tid, &["bert_tiny"]));
        }
        assert!(!ds.task_in_networks(bert_tasks[0], &["no_such_net"]));
    }
}
