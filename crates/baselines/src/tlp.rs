//! The TLP baseline (Zhai et al., ASPLOS '23).
//!
//! TLP extracts features from the *schedule primitive sequence* (avoiding
//! tensor-program feature engineering) and trains a shared trunk with one
//! prediction head per device, on **relative** cost labels (a program's
//! latency normalized by the best latency of its task on that device).
//! Predicting absolute time therefore requires an external per-task scale,
//! which is unavailable on an unseen target device — the weakness §7.3
//! observes when comparing absolute-time predictions.

use std::collections::{BTreeMap, HashMap};

use features::tlp_features;
use nn::{Adam, Graph, Linear, Mlp, ParamStore};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tensor::Tensor;
use tir::{OpSpec, Schedule};

/// One TLP training sample.
#[derive(Debug, Clone)]
pub struct TlpSample {
    /// Task operator.
    pub spec: OpSpec,
    /// Task id (for per-task normalization).
    pub task_id: u32,
    /// Schedule applied.
    pub schedule: Schedule,
    /// Device name.
    pub device: String,
    /// Absolute latency in seconds.
    pub latency_s: f64,
}

/// TLP hyper-parameters.
#[derive(Debug, Clone)]
pub struct TlpConfig {
    /// Trunk hidden width.
    pub hidden: usize,
    /// Epochs.
    pub epochs: usize,
    /// Batch size.
    pub batch: usize,
    /// Learning rate.
    pub lr: f32,
    /// Seed.
    pub seed: u64,
}

impl Default for TlpConfig {
    fn default() -> Self {
        TlpConfig {
            hidden: 64,
            epochs: 60,
            batch: 64,
            lr: 1e-3,
            seed: 0,
        }
    }
}

/// The TLP cost model: shared trunk + per-device heads, relative labels.
pub struct TlpModel {
    store: ParamStore,
    trunk: Mlp,
    heads: HashMap<String, Linear>,
    /// Per-(device, task) minimum latency seen in training — the scale
    /// needed to turn relative predictions back into absolute time.
    task_scale: HashMap<(String, u32), f64>,
    cfg: TlpConfig,
    in_dim: usize,
}

impl TlpModel {
    /// Creates a model with heads for the given devices.
    pub fn new(devices: &[String], cfg: TlpConfig) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let in_dim = features::N_TLP;
        let trunk = Mlp::new(
            &mut store,
            &mut rng,
            "tlp.trunk",
            &[in_dim, cfg.hidden, cfg.hidden],
        );
        let mut heads = HashMap::new();
        for d in devices {
            heads.insert(
                d.clone(),
                Linear::new(
                    &mut store,
                    &mut rng,
                    &format!("tlp.head.{d}"),
                    cfg.hidden,
                    1,
                ),
            );
        }
        TlpModel {
            store,
            trunk,
            heads,
            task_scale: HashMap::new(),
            cfg,
            in_dim,
        }
    }

    /// Trains on samples (relative labels computed per device × task).
    pub fn fit(&mut self, samples: &[TlpSample]) {
        // Per-(device, task) minimum latency = normalization scale.
        self.task_scale.clear();
        for s in samples {
            let key = (s.device.clone(), s.task_id);
            let e = self.task_scale.entry(key).or_insert(f64::MAX);
            *e = e.min(s.latency_s);
        }
        let rows: Vec<(Vec<f32>, f32, &str)> = samples
            .iter()
            .map(|s| {
                let scale = self.task_scale[&(s.device.clone(), s.task_id)];
                let rel = (s.latency_s / scale).ln() as f32; // log-relative cost
                (tlp_features(&s.spec, &s.schedule), rel, s.device.as_str())
            })
            .collect();
        let mut opt = Adam::new(self.cfg.lr);
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0xF17);
        let mut order: Vec<usize> = (0..rows.len()).collect();
        for _ in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            // Group consecutive picks by device so each batch uses one head,
            // visiting devices in name order so the Adam steps come in the
            // same order on every run.
            let mut by_dev: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
            for &i in &order {
                by_dev.entry(rows[i].2).or_default().push(i);
            }
            for (dev, idxs) in by_dev {
                let Some(head) = self.heads.get(dev) else {
                    continue;
                };
                for chunk in idxs.chunks(self.cfg.batch) {
                    let bx: Vec<f32> = chunk
                        .iter()
                        .flat_map(|&i| rows[i].0.iter().copied())
                        .collect();
                    let by: Vec<f32> = chunk.iter().map(|&i| rows[i].1).collect();
                    let x = Tensor::from_vec(bx, &[chunk.len(), self.in_dim]).expect("width");
                    let t = Tensor::from_vec(by, &[chunk.len()]).expect("labels");
                    let mut g = Graph::new();
                    let xv = g.constant(x);
                    let Ok(h) = self.trunk.forward(&mut g, &self.store, xv) else {
                        continue;
                    };
                    let Ok(h) = g.relu(h) else { continue };
                    let Ok(pred) = head.forward(&mut g, &self.store, h) else {
                        continue;
                    };
                    let Ok(loss) = nn::loss::mse(&mut g, pred, &t) else {
                        continue;
                    };
                    crate::tape_step(&mut self.store, &mut opt, g, loss);
                }
            }
        }
    }

    /// Predicts the **relative** log-cost of a schedule on a device, on
    /// the tape the model trains on.
    pub fn predict_relative(&self, spec: &OpSpec, sched: &Schedule, device: &str) -> Option<f64> {
        let head = self.heads.get(device)?;
        let x = Tensor::from_vec(tlp_features(spec, sched), &[1, self.in_dim]).ok()?;
        let mut g = Graph::new();
        let xv = g.constant(x);
        let h = self.trunk.forward(&mut g, &self.store, xv).ok()?;
        let h = g.relu(h).ok()?;
        let p = head.forward(&mut g, &self.store, h).ok()?;
        Some(g.value(p).item() as f64)
    }

    /// Predicts **absolute** latency, using the training-time task scale for
    /// `scale_device` (when the target device has no profiled scale, callers
    /// pass a source device here — the systematic error the paper points
    /// out for relative-time models).
    pub fn predict_absolute(
        &self,
        spec: &OpSpec,
        sched: &Schedule,
        task_id: u32,
        head_device: &str,
        scale_device: &str,
    ) -> Option<f64> {
        let rel = self.predict_relative(spec, sched, head_device)?;
        let scale = self.task_scale.get(&(scale_device.to_string(), task_id))?;
        Some(rel.exp() * scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::{sample_schedule, Primitive};

    fn make_samples(device: &str, scale: f64) -> Vec<TlpSample> {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        let spec = OpSpec::Dense {
            m: 64,
            n: 64,
            k: 64,
        };
        let nest = spec.canonical_nest();
        (0..40)
            .map(|_| {
                let sched = sample_schedule(&nest, &mut rng);
                // Pseudo-latency: more primitives = faster (toy signal).
                let quality = sched.primitives.len() as f64;
                TlpSample {
                    spec,
                    task_id: 0,
                    schedule: sched,
                    device: device.to_string(),
                    latency_s: scale * (10.0 - quality).max(1.0),
                }
            })
            .collect()
    }

    #[test]
    fn learns_relative_cost_signal() {
        let samples = make_samples("T4", 1e-3);
        let mut m = TlpModel::new(
            &["T4".into()],
            TlpConfig {
                epochs: 150,
                ..Default::default()
            },
        );
        m.fit(&samples);
        // A schedule with many primitives should be predicted cheaper
        // (relative) than a bare one.
        let spec = OpSpec::Dense {
            m: 64,
            n: 64,
            k: 64,
        };
        let rich = Schedule {
            primitives: vec![
                Primitive::Split { axis: 0, factor: 8 },
                Primitive::Split { axis: 1, factor: 8 },
                Primitive::Split { axis: 2, factor: 8 },
                Primitive::Annotate {
                    axis: 3,
                    kind: tir::LoopKind::Parallel,
                },
                Primitive::Annotate {
                    axis: 6,
                    kind: tir::LoopKind::Vectorize,
                },
                Primitive::Annotate {
                    axis: 8,
                    kind: tir::LoopKind::Unroll,
                },
            ],
        };
        let bare = Schedule::default();
        let r_rich = m.predict_relative(&spec, &rich, "T4").unwrap();
        let r_bare = m.predict_relative(&spec, &bare, "T4").unwrap();
        assert!(r_rich < r_bare, "rich {r_rich} vs bare {r_bare}");
    }

    #[test]
    fn absolute_prediction_uses_task_scale() {
        let samples = make_samples("T4", 1e-3);
        let mut m = TlpModel::new(
            &["T4".into()],
            TlpConfig {
                epochs: 50,
                ..Default::default()
            },
        );
        m.fit(&samples);
        let spec = OpSpec::Dense {
            m: 64,
            n: 64,
            k: 64,
        };
        let sched = Schedule::default();
        let abs = m.predict_absolute(&spec, &sched, 0, "T4", "T4").unwrap();
        assert!(abs > 0.0 && abs.is_finite());
    }

    #[test]
    fn wrong_scale_device_biases_absolute_time() {
        // Train on two devices whose absolute scales differ 100×; using the
        // source scale for the target mispredicts by roughly that factor.
        let mut samples = make_samples("T4", 1e-3);
        samples.extend(make_samples("CPU", 1e-1));
        let mut m = TlpModel::new(
            &["T4".into(), "CPU".into()],
            TlpConfig {
                epochs: 50,
                ..Default::default()
            },
        );
        m.fit(&samples);
        let spec = OpSpec::Dense {
            m: 64,
            n: 64,
            k: 64,
        };
        let sched = Schedule::default();
        let right = m.predict_absolute(&spec, &sched, 0, "CPU", "CPU").unwrap();
        let wrong = m.predict_absolute(&spec, &sched, 0, "CPU", "T4").unwrap();
        assert!(
            right / wrong > 10.0,
            "scale mismatch must bias: {right} vs {wrong}"
        );
    }

    #[test]
    fn two_device_fit_is_reproducible_in_one_process() {
        // Each epoch visits the devices' batches in one fixed order, so
        // the same samples fit to the same bits every time.
        let mut samples = make_samples("T4", 1e-3);
        samples.extend(make_samples("CPU", 1e-1));
        let devices = ["T4".to_string(), "CPU".to_string()];
        let spec = OpSpec::Dense {
            m: 64,
            n: 64,
            k: 64,
        };
        let fit = || {
            let mut m = TlpModel::new(
                &devices,
                TlpConfig {
                    epochs: 2,
                    ..Default::default()
                },
            );
            m.fit(&samples);
            devices.each_ref().map(|d| {
                m.predict_relative(&spec, &Schedule::default(), d)
                    .unwrap()
                    .to_bits()
            })
        };
        let first = fit();
        for _ in 0..8 {
            assert_eq!(fit(), first);
        }
    }

    #[test]
    fn unknown_device_returns_none() {
        let m = TlpModel::new(&["T4".into()], TlpConfig::default());
        let spec = OpSpec::Dense { m: 8, n: 8, k: 8 };
        assert!(m
            .predict_relative(&spec, &Schedule::default(), "A100")
            .is_none());
    }
}
