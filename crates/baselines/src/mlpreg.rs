//! A small MLP regressor: Habitat's per-op-class model.

use nn::{Adam, Graph, Mlp, ParamStore};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tensor::Tensor;

/// MLP regressor hyper-parameters.
#[derive(Debug, Clone)]
pub struct MlpRegConfig {
    /// Hidden widths (input/output added automatically).
    pub hidden: Vec<usize>,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Learning rate.
    pub lr: f32,
    /// Seed.
    pub seed: u64,
}

impl Default for MlpRegConfig {
    fn default() -> Self {
        MlpRegConfig {
            hidden: vec![64, 64],
            epochs: 60,
            batch: 64,
            lr: 1e-3,
            seed: 0,
        }
    }
}

/// A trainable MLP mapping feature rows to a scalar.
pub struct MlpRegressor {
    store: ParamStore,
    mlp: Mlp,
    in_dim: usize,
    cfg: MlpRegConfig,
}

impl MlpRegressor {
    /// Creates an untrained regressor for `in_dim` features.
    pub fn new(in_dim: usize, cfg: MlpRegConfig) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut widths = vec![in_dim];
        widths.extend_from_slice(&cfg.hidden);
        widths.push(1);
        let mlp = Mlp::new(&mut store, &mut rng, "mlpreg", &widths);
        MlpRegressor {
            store,
            mlp,
            in_dim,
            cfg,
        }
    }

    /// Trains with MSE on (rows, targets). Returns final training loss.
    pub fn fit(&mut self, xs: &[Vec<f32>], ys: &[f32]) -> f32 {
        assert_eq!(xs.len(), ys.len());
        assert!(!xs.is_empty());
        let mut opt = Adam::new(self.cfg.lr);
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x5EED);
        let mut order: Vec<usize> = (0..xs.len()).collect();
        let mut last = f32::NAN;
        for _ in 0..self.cfg.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(self.cfg.batch) {
                let bx: Vec<f32> = chunk.iter().flat_map(|&i| xs[i].iter().copied()).collect();
                let by: Vec<f32> = chunk.iter().map(|&i| ys[i]).collect();
                let x = Tensor::from_vec(bx, &[chunk.len(), self.in_dim]).expect("row width");
                let t = Tensor::from_vec(by, &[chunk.len()]).expect("labels");
                let mut g = Graph::new();
                let xv = g.constant(x);
                let Ok(pred) = self.mlp.forward(&mut g, &self.store, xv) else {
                    continue;
                };
                let Ok(loss) = nn::loss::mse(&mut g, pred, &t) else {
                    continue;
                };
                last = crate::tape_step(&mut self.store, &mut opt, g, loss);
            }
        }
        last
    }

    /// Predicts a batch of rows on the tape it trains on.
    pub fn predict(&self, xs: &[Vec<f32>]) -> Vec<f32> {
        if xs.is_empty() {
            return Vec::new();
        }
        let flat: Vec<f32> = xs.iter().flat_map(|x| x.iter().copied()).collect();
        let x = Tensor::from_vec(flat, &[xs.len(), self.in_dim]).expect("row width");
        let mut g = Graph::new();
        let xv = g.constant(x);
        match self.mlp.forward(&mut g, &self.store, xv) {
            Ok(p) => g.value(p).data().to_vec(),
            Err(_) => vec![f32::NAN; xs.len()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_linear_function() {
        let xs: Vec<Vec<f32>> = (0..200).map(|i| vec![(i as f32) / 100.0 - 1.0]).collect();
        let ys: Vec<f32> = xs.iter().map(|x| 2.0 * x[0] + 0.5).collect();
        let mut m = MlpRegressor::new(
            1,
            MlpRegConfig {
                epochs: 150,
                ..Default::default()
            },
        );
        m.fit(&xs, &ys);
        let preds = m.predict(&xs);
        let mse: f32 = preds
            .iter()
            .zip(ys.iter())
            .map(|(&p, &y)| (p - y) * (p - y))
            .sum::<f32>()
            / ys.len() as f32;
        assert!(mse < 0.01, "mse {mse}");
    }

    #[test]
    fn predict_before_fit_is_finite() {
        let m = MlpRegressor::new(3, MlpRegConfig::default());
        let p = m.predict(&[vec![0.1, 0.2, 0.3]]);
        assert!(p[0].is_finite());
    }
}
