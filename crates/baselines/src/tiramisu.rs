//! The Tiramisu baseline: a recursive LSTM over the *original* AST.
//!
//! Faithful to Baghdadi et al. (MLSys '21): leaf computation vectors are
//! embedded, then each loop node aggregates its children with an LSTM pass
//! (loop features are mixed into the hidden state), recursively up to the
//! root, walking the program's `roots()` tree view. Because the recursion
//! shape follows each program's AST, samples with different AST structures
//! cannot share a batch — the training is effectively batch-size-1 per
//! distinct structure, which is exactly the inefficiency §7.2 measures.
//! Trained with a MAPE objective, Tiramisu's default.

use nn::{Adam, Graph, Linear, LstmCell, Mlp, ParamStore, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::Tensor;
use tir::{LeafView, NodeView, Nodes, TensorProgram};

use features::N_ENTRY;

/// Tiramisu model hyper-parameters.
#[derive(Debug, Clone)]
pub struct TiramisuConfig {
    /// Embedding / LSTM hidden width.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Seed for parameter init.
    pub seed: u64,
}

impl Default for TiramisuConfig {
    fn default() -> Self {
        TiramisuConfig {
            hidden: 32,
            epochs: 30,
            lr: 3e-3,
            seed: 0,
        }
    }
}

/// The recursive-LSTM cost model.
pub struct TiramisuModel {
    store: ParamStore,
    leaf_embed: Linear,
    loop_embed: Linear,
    lstm: LstmCell,
    head: Mlp,
    cfg: TiramisuConfig,
}

fn leaf_vector(leaf: LeafView<'_>) -> Tensor {
    // Per-leaf computation vector WITHOUT loop context: Tiramisu encodes
    // loop structure through the recursion itself.
    let mut v = vec![0.0f32; N_ENTRY];
    v[leaf.kind.index()] = 1.0;
    v[8] = (leaf.flops_per_iter + 1.0).ln() as f32;
    v[9] = leaf.accesses.iter().filter(|a| !a.is_write).count() as f32;
    v[10] = leaf.accesses.iter().filter(|a| a.is_write).count() as f32;
    for (i, acc) in leaf.accesses.iter().take(4).enumerate() {
        let min_stride = acc
            .strides
            .iter()
            .map(|&(_, s)| s.unsigned_abs())
            .min()
            .unwrap_or(0);
        v[11 + i] = (min_stride as f32 + 1.0).ln();
    }
    Tensor::from_vec(v, &[1, N_ENTRY]).expect("vector length fixed")
}

fn loop_vector(var: &tir::LoopVar) -> Tensor {
    Tensor::from_vec(
        vec![
            (var.extent as f32 + 1.0).ln(),
            var.kind.code() as f32 / 3.0,
            var.is_reduction as u8 as f32,
        ],
        &[1, 3],
    )
    .expect("fixed length")
}

impl TiramisuModel {
    /// Creates an untrained model.
    pub fn new(cfg: TiramisuConfig) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let h = cfg.hidden;
        let leaf_embed = Linear::new(&mut store, &mut rng, "leaf_embed", N_ENTRY, h);
        let loop_embed = Linear::new(&mut store, &mut rng, "loop_embed", 3, h);
        let lstm = LstmCell::new(&mut store, &mut rng, "lstm", h, h);
        let head = Mlp::new(&mut store, &mut rng, "head", &[h, h, 1]);
        TiramisuModel {
            store,
            leaf_embed,
            loop_embed,
            lstm,
            head,
            cfg,
        }
    }

    /// Number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.store.num_scalars()
    }

    fn embed_node(&self, g: &mut Graph, node: NodeView<'_>) -> Result<Var, tensor::TensorError> {
        match node {
            NodeView::Leaf(leaf) => {
                let x = g.constant(leaf_vector(leaf));
                let e = self.leaf_embed.forward(g, &self.store, x)?;
                g.relu(e)
            }
            NodeView::Loop { var, body } => {
                let h = self.lstm_over(g, body)?;
                // Mix the loop's own features into the hidden state.
                let lv = g.constant(loop_vector(var));
                let le = self.loop_embed.forward(g, &self.store, lv)?;
                let mixed = g.add(h, le)?;
                g.tanh(mixed)
            }
        }
    }

    /// The LSTM over `nodes`' embeddings from a zero state: its last
    /// hidden state.
    fn lstm_over(&self, g: &mut Graph, nodes: Nodes<'_>) -> Result<Var, tensor::TensorError> {
        let mut h = g.constant(Tensor::zeros(&[1, self.cfg.hidden]));
        let mut c = g.constant(Tensor::zeros(&[1, self.cfg.hidden]));
        for node in nodes {
            let e = self.embed_node(g, node)?;
            (h, c) = self.lstm.step(g, &self.store, e, h, c)?;
        }
        Ok(h)
    }

    /// Builds the prediction node for one program (batch of one — the
    /// structural constraint Tiramisu imposes).
    fn forward(&self, g: &mut Graph, prog: &TensorProgram) -> Result<Var, tensor::TensorError> {
        let h = self.lstm_over(g, prog.roots())?;
        let out = self.head.forward(g, &self.store, h)?;
        // Latencies are positive; exp keeps the MAPE objective stable.
        g.exp(out)
    }

    /// Predicted latency (in the training label unit), on the tape the
    /// model trains on.
    pub fn predict(&self, prog: &TensorProgram) -> f64 {
        let mut g = Graph::new();
        match self.forward(&mut g, prog) {
            Ok(v) => g.value(v).item() as f64,
            Err(_) => f64::NAN,
        }
    }

    /// Trains on programs with latency labels (milliseconds recommended),
    /// one sample per step (structure-bound batching). Returns the number
    /// of samples processed (for throughput accounting).
    pub fn fit(&mut self, programs: &[&TensorProgram], labels_ms: &[f64]) -> usize {
        assert_eq!(programs.len(), labels_ms.len());
        let mut opt = Adam::new(self.cfg.lr);
        let mut processed = 0;
        for _ in 0..self.cfg.epochs {
            for (prog, &y) in programs.iter().zip(labels_ms.iter()) {
                let mut g = Graph::new();
                let Ok(pred) = self.forward(&mut g, prog) else {
                    continue;
                };
                let Ok(loss) = nn::loss::mape(&mut g, pred, &Tensor::scalar(y as f32)) else {
                    continue;
                };
                crate::tape_step(&mut self.store, &mut opt, g, loss);
                processed += 1;
            }
        }
        processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::{lower, OpSpec, Schedule};

    fn programs() -> (Vec<TensorProgram>, Vec<f64>) {
        // Small programs with labels strongly correlated to total work.
        let mut progs = Vec::new();
        let mut labels = Vec::new();
        for (m, k) in [(4u64, 4u64), (8, 8), (16, 8), (16, 16), (32, 16), (32, 32)] {
            let nest = OpSpec::Dense { m, n: m, k }.canonical_nest();
            let p = lower(&nest, &Schedule::default()).unwrap();
            let work = (m * m * k) as f64;
            progs.push(p);
            labels.push(work.sqrt() / 10.0); // ms-scale pseudo-latency
        }
        (progs, labels)
    }

    #[test]
    fn prediction_is_positive_finite() {
        let model = TiramisuModel::new(TiramisuConfig::default());
        let (progs, _) = programs();
        for p in &progs {
            let y = model.predict(p);
            assert!(y.is_finite() && y > 0.0);
        }
    }

    #[test]
    fn training_reduces_mape() {
        let (progs, labels) = programs();
        let refs: Vec<&TensorProgram> = progs.iter().collect();
        let mut model = TiramisuModel::new(TiramisuConfig {
            epochs: 80,
            ..Default::default()
        });
        let before: f64 = refs
            .iter()
            .zip(labels.iter())
            .map(|(p, &y)| (model.predict(p) - y).abs() / y)
            .sum::<f64>()
            / labels.len() as f64;
        model.fit(&refs, &labels);
        let after: f64 = refs
            .iter()
            .zip(labels.iter())
            .map(|(p, &y)| (model.predict(p) - y).abs() / y)
            .sum::<f64>()
            / labels.len() as f64;
        assert!(after < before * 0.7, "MAPE {before:.3} -> {after:.3}");
    }

    #[test]
    fn distinguishes_structures() {
        let mut model = TiramisuModel::new(TiramisuConfig {
            epochs: 120,
            ..Default::default()
        });
        let (progs, labels) = programs();
        let refs: Vec<&TensorProgram> = progs.iter().collect();
        model.fit(&refs, &labels);
        // After training, the biggest program should predict larger than
        // the smallest.
        let small = model.predict(&progs[0]);
        let large = model.predict(&progs[5]);
        assert!(large > small, "{large} vs {small}");
    }

    #[test]
    fn fit_returns_sample_count() {
        let (progs, labels) = programs();
        let refs: Vec<&TensorProgram> = progs.iter().collect();
        let mut model = TiramisuModel::new(TiramisuConfig {
            epochs: 2,
            ..Default::default()
        });
        let n = model.fit(&refs, &labels);
        assert_eq!(n, 2 * progs.len());
    }
}
