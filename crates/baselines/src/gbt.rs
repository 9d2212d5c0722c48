//! Gradient-boosted regression trees: the XGBoost baseline.
//!
//! Histogram-based gradient boosting with squared loss — the same algorithm
//! family AutoTVM/Ansor use as their cost model. Consumes the *flattened*
//! (structure-free) features from the `features` crate.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// GBT hyper-parameters.
#[derive(Debug, Clone)]
pub struct GbtConfig {
    /// Number of boosting rounds.
    pub n_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f32,
    /// Minimum samples in a leaf.
    pub min_samples_leaf: usize,
    /// Histogram bins per feature (at most 256: a bin is a `u8`).
    pub n_bins: usize,
    /// Fraction of features considered per split (column subsampling).
    pub colsample: f32,
    /// RNG seed for column subsampling.
    pub seed: u64,
}

impl Default for GbtConfig {
    fn default() -> Self {
        GbtConfig {
            n_trees: 80,
            max_depth: 6,
            learning_rate: 0.1,
            min_samples_leaf: 4,
            n_bins: 32,
            colsample: 0.8,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Split {
        feature: usize,
        threshold: f32,
        left: usize,
        right: usize,
    },
    Leaf(f32),
}

#[derive(Debug, Clone)]
struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    fn predict(&self, x: &[f32]) -> f32 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf(v) => return *v,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// A fitted gradient-boosted tree ensemble.
#[derive(Debug, Clone)]
pub struct GbtRegressor {
    trees: Vec<Tree>,
    base: f32,
    config: GbtConfig,
}

impl GbtRegressor {
    /// Fits the ensemble on rows `xs` and targets `ys`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty, if row lengths differ from each other, or
    /// if `config.n_bins` is above 256.
    pub fn fit(xs: &[Vec<f32>], ys: &[f32], config: GbtConfig) -> Self {
        assert!(!xs.is_empty(), "GBT fit on empty data");
        assert_eq!(xs.len(), ys.len());
        assert!(
            config.n_bins <= 256,
            "GBT bins are u8: n_bins {} above 256",
            config.n_bins
        );
        let n_features = xs[0].len();
        let base = ys.iter().sum::<f32>() / ys.len() as f32;
        let mut residuals: Vec<f32> = ys.iter().map(|&y| y - base).collect();
        // Global histogram bin edges per feature (quantile binning), and
        // every row's bin of every feature, found once.
        let edges = build_bins(xs, n_features, config.n_bins);
        let bins = Binned::new(xs, &edges);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut trees = Vec::with_capacity(config.n_trees);
        let all_idx: Vec<usize> = (0..xs.len()).collect();
        for _ in 0..config.n_trees {
            let n_cols = ((n_features as f32 * config.colsample) as usize).max(1);
            let mut cols: Vec<usize> = (0..n_features).collect();
            cols.shuffle(&mut rng);
            cols.truncate(n_cols);
            let mut tree = Tree { nodes: Vec::new() };
            grow(
                &mut tree,
                &bins,
                &residuals,
                &all_idx,
                &edges,
                &cols,
                config.max_depth,
                config.min_samples_leaf,
            );
            for (i, x) in xs.iter().enumerate() {
                residuals[i] -= config.learning_rate * tree.predict(x);
            }
            trees.push(tree);
        }
        GbtRegressor {
            trees,
            base,
            config,
        }
    }

    /// Predicts a single row.
    pub fn predict(&self, x: &[f32]) -> f32 {
        self.base + self.config.learning_rate * self.trees.iter().map(|t| t.predict(x)).sum::<f32>()
    }

    /// Predicts a batch of rows.
    pub fn predict_batch(&self, xs: &[Vec<f32>]) -> Vec<f32> {
        xs.iter().map(|x| self.predict(x)).collect()
    }

    /// Number of trees in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

fn build_bins(xs: &[Vec<f32>], n_features: usize, n_bins: usize) -> Vec<Vec<f32>> {
    let mut bins = Vec::with_capacity(n_features);
    for f in 0..n_features {
        let mut vals: Vec<f32> = xs.iter().map(|x| x[f]).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
        vals.dedup();
        let mut edges = Vec::new();
        if vals.len() > 1 {
            for b in 1..n_bins.min(vals.len()) {
                let q = b * (vals.len() - 1) / n_bins.min(vals.len());
                let e = vals[q];
                if edges.last() != Some(&e) {
                    edges.push(e);
                }
            }
        }
        bins.push(edges);
    }
    bins
}

/// Every row's bin of every feature, row-major: the number of the
/// feature's edges strictly below the value. Edges strictly increase, so a
/// row's value is `<= edges[b]` exactly when its bin is `<= b`.
struct Binned {
    bins: Vec<u8>,
    n_features: usize,
}

impl Binned {
    fn new(xs: &[Vec<f32>], edges: &[Vec<f32>]) -> Binned {
        let bins = xs
            .iter()
            .flat_map(|x| {
                assert_eq!(x.len(), edges.len(), "GBT rows differ in length");
                x.iter()
                    .zip(edges)
                    .map(|(&v, e)| e.partition_point(|&e| e < v) as u8)
            })
            .collect();
        Binned {
            bins,
            n_features: edges.len(),
        }
    }

    fn row(&self, i: usize) -> &[u8] {
        &self.bins[i * self.n_features..(i + 1) * self.n_features]
    }
}

#[allow(clippy::too_many_arguments)]
fn grow(
    tree: &mut Tree,
    bins: &Binned,
    ys: &[f32],
    idx: &[usize],
    edges: &[Vec<f32>],
    cols: &[usize],
    depth: usize,
    min_leaf: usize,
) -> usize {
    let sum: f64 = idx.iter().map(|&i| ys[i] as f64).sum();
    let mean = (sum / idx.len().max(1) as f64) as f32;
    if depth == 0 || idx.len() < 2 * min_leaf {
        tree.nodes.push(Node::Leaf(mean));
        return tree.nodes.len() - 1;
    }
    // (count, sum) histograms of the sampled columns that have edges, all
    // built in one pass over the rows in `idx` order — so each bin adds
    // the same values in the same order as a pass per column would.
    let split_cols: Vec<usize> = cols
        .iter()
        .copied()
        .filter(|&f| !edges[f].is_empty())
        .collect();
    let width = edges.iter().map(|e| e.len() + 1).max().unwrap_or(1);
    let mut hist = vec![(0f64, 0f64); split_cols.len() * width];
    for &i in idx {
        let row = bins.row(i);
        let y = ys[i] as f64;
        for (h, &f) in hist.chunks_exact_mut(width).zip(&split_cols) {
            let (cnt, s) = &mut h[row[f] as usize];
            *cnt += 1.0;
            *s += y;
        }
    }
    // Find the best split over the sampled columns.
    let mut best: Option<(usize, usize, f64)> = None; // (feature, bin, gain)
    let total_sum = sum;
    let total_cnt = idx.len() as f64;
    let parent_score = total_sum * total_sum / total_cnt;
    for (h, &f) in hist.chunks_exact(width).zip(&split_cols) {
        let mut lcnt = 0.0;
        let mut lsum = 0.0;
        for (b, &(cnt, s)) in h[..edges[f].len()].iter().enumerate() {
            lcnt += cnt;
            lsum += s;
            let rcnt = total_cnt - lcnt;
            let rsum = total_sum - lsum;
            if lcnt < min_leaf as f64 || rcnt < min_leaf as f64 {
                continue;
            }
            let gain = lsum * lsum / lcnt + rsum * rsum / rcnt - parent_score;
            if best.is_none_or(|(_, _, g)| gain > g) && gain > 1e-12 {
                best = Some((f, b, gain));
            }
        }
    }
    match best {
        None => {
            tree.nodes.push(Node::Leaf(mean));
            tree.nodes.len() - 1
        }
        Some((feature, bin, _)) => {
            let (li, ri): (Vec<usize>, Vec<usize>) = idx
                .iter()
                .partition(|&&i| bins.row(i)[feature] as usize <= bin);
            let node = tree.nodes.len();
            tree.nodes.push(Node::Leaf(0.0)); // placeholder
            let left = grow(tree, bins, ys, &li, edges, cols, depth - 1, min_leaf);
            let right = grow(tree, bins, ys, &ri, edges, cols, depth - 1, min_leaf);
            tree.nodes[node] = Node::Split {
                feature,
                threshold: edges[feature][bin],
                left,
                right,
            };
            node
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> (Vec<Vec<f32>>, Vec<f32>) {
        // y = 3*x0 + x1^2 - 2*x2, a smooth nonlinear target.
        let xs: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let a = (i as f32 * 0.71).sin();
                let b = (i as f32 * 0.37).cos();
                let c = ((i * 7) % 13) as f32 / 13.0;
                vec![a, b, c]
            })
            .collect();
        let ys: Vec<f32> = xs
            .iter()
            .map(|x| 3.0 * x[0] + x[1] * x[1] - 2.0 * x[2])
            .collect();
        (xs, ys)
    }

    #[test]
    fn fits_nonlinear_function() {
        let (xs, ys) = toy(400);
        let model = GbtRegressor::fit(&xs, &ys, GbtConfig::default());
        let preds = model.predict_batch(&xs);
        let mse: f32 = preds
            .iter()
            .zip(ys.iter())
            .map(|(&p, &y)| (p - y) * (p - y))
            .sum::<f32>()
            / ys.len() as f32;
        let var: f32 = {
            let m = ys.iter().sum::<f32>() / ys.len() as f32;
            ys.iter().map(|&y| (y - m) * (y - m)).sum::<f32>() / ys.len() as f32
        };
        assert!(mse < 0.05 * var, "R² too low: mse {mse} var {var}");
    }

    #[test]
    fn generalizes_to_unseen_points() {
        let (xs, ys) = toy(600);
        let (train_x, test_x) = xs.split_at(500);
        let (train_y, test_y) = ys.split_at(500);
        let model = GbtRegressor::fit(train_x, train_y, GbtConfig::default());
        let preds = model.predict_batch(test_x);
        let mse: f32 = preds
            .iter()
            .zip(test_y.iter())
            .map(|(&p, &y)| (p - y) * (p - y))
            .sum::<f32>()
            / test_y.len() as f32;
        assert!(mse < 0.5, "test mse {mse}");
    }

    #[test]
    fn constant_target_predicts_constant() {
        let xs: Vec<Vec<f32>> = (0..50).map(|i| vec![i as f32]).collect();
        let ys = vec![7.5f32; 50];
        let model = GbtRegressor::fit(&xs, &ys, GbtConfig::default());
        for x in &xs {
            assert!((model.predict(x) - 7.5).abs() < 1e-4);
        }
    }

    #[test]
    fn respects_min_samples_leaf() {
        let (xs, ys) = toy(20);
        let cfg = GbtConfig {
            min_samples_leaf: 10,
            n_trees: 5,
            ..GbtConfig::default()
        };
        // With min leaf 10 of 20 points, trees are very shallow — model
        // still runs and predicts finite values.
        let model = GbtRegressor::fit(&xs, &ys, cfg);
        assert!(model.predict(&xs[0]).is_finite());
    }

    #[test]
    fn more_trees_fit_better() {
        let (xs, ys) = toy(300);
        let small = GbtRegressor::fit(
            &xs,
            &ys,
            GbtConfig {
                n_trees: 3,
                ..Default::default()
            },
        );
        let large = GbtRegressor::fit(
            &xs,
            &ys,
            GbtConfig {
                n_trees: 100,
                ..Default::default()
            },
        );
        let mse = |m: &GbtRegressor| {
            m.predict_batch(&xs)
                .iter()
                .zip(ys.iter())
                .map(|(&p, &y)| (p - y) * (p - y))
                .sum::<f32>()
        };
        assert!(mse(&large) < mse(&small));
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = toy(100);
        let a = GbtRegressor::fit(&xs, &ys, GbtConfig::default());
        let b = GbtRegressor::fit(&xs, &ys, GbtConfig::default());
        for x in xs.iter().take(10) {
            assert_eq!(a.predict(x), b.predict(x));
        }
    }
}
