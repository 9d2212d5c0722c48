//! Neural-network layers used by the CDMPP predictor and the baselines.
//!
//! Layers own [`ParamId`]s into a shared [`ParamStore`]; their `forward`
//! methods take `(&mut Graph, &ParamStore, input Var)` and return an output
//! `Var`, so a fresh tape can be built per step while parameters persist.

use tensor::{Result, Tensor};

use crate::{
    exec::Exec,
    init::Init,
    tape::{ParamId, ParamStore, Var},
};

/// A dense layer `y = x W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    /// Input feature dimension.
    pub in_dim: usize,
    /// Output feature dimension.
    pub out_dim: usize,
}

impl Linear {
    /// Creates a new layer with weights from `init` (Xavier-uniform when it
    /// is a random generator) and zero bias.
    pub fn new(
        store: &mut ParamStore,
        init: &mut impl Init,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        let w = store.add(format!("{name}.w"), init.weight(in_dim, out_dim));
        let b = store.add(format!("{name}.b"), Tensor::zeros(&[out_dim]));
        Linear {
            w,
            b: Some(b),
            in_dim,
            out_dim,
        }
    }

    /// Creates a layer without a bias term.
    pub fn new_no_bias(
        store: &mut ParamStore,
        init: &mut impl Init,
        name: &str,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        let w = store.add(format!("{name}.w"), init.weight(in_dim, out_dim));
        Linear {
            w,
            b: None,
            in_dim,
            out_dim,
        }
    }

    /// Applies the layer to a rank-2 `[n, in]` or rank-3 `[b, l, in]` input.
    pub fn forward<E: Exec>(&self, g: &mut E, store: &ParamStore, x: Var) -> Result<Var> {
        let shape = g.value(x).shape().to_vec();
        let w = g.param(store, self.w);
        let out = if shape.len() == 3 {
            let flat = g.reshape(x, &[shape[0] * shape[1], shape[2]])?;
            let y = g.matmul(flat, w)?;
            g.reshape(y, &[shape[0], shape[1], self.out_dim])?
        } else {
            g.matmul(x, w)?
        };
        match self.b {
            Some(b) => {
                let bv = g.param(store, b);
                g.add_row(out, bv)
            }
            None => Ok(out),
        }
    }
}

/// Layer normalization over the trailing axis with learned scale and shift.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: ParamId,
    beta: ParamId,
    eps: f32,
}

impl LayerNorm {
    /// Creates a layer norm over a `dim`-sized trailing axis.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gamma = store.add(format!("{name}.gamma"), Tensor::full(&[dim], 1.0));
        let beta = store.add(format!("{name}.beta"), Tensor::zeros(&[dim]));
        LayerNorm {
            gamma,
            beta,
            eps: 1e-5,
        }
    }

    /// Applies normalization.
    pub fn forward<E: Exec>(&self, g: &mut E, store: &ParamStore, x: Var) -> Result<Var> {
        let gamma = g.param(store, self.gamma);
        let beta = g.param(store, self.beta);
        g.layer_norm(x, gamma, beta, self.eps)
    }
}

/// Multi-head self-attention over `[B, L, D]` sequences.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    d_model: usize,
}

impl MultiHeadAttention {
    /// Creates a self-attention block; `d_model` must be divisible by `heads`.
    pub fn new(
        store: &mut ParamStore,
        init: &mut impl Init,
        name: &str,
        d_model: usize,
        heads: usize,
    ) -> Self {
        assert!(
            d_model.is_multiple_of(heads),
            "d_model must be divisible by heads"
        );
        MultiHeadAttention {
            wq: Linear::new(store, init, &format!("{name}.wq"), d_model, d_model),
            wk: Linear::new(store, init, &format!("{name}.wk"), d_model, d_model),
            wv: Linear::new(store, init, &format!("{name}.wv"), d_model, d_model),
            wo: Linear::new(store, init, &format!("{name}.wo"), d_model, d_model),
            heads,
            d_model,
        }
    }

    /// Scaled dot-product self-attention.
    pub fn forward<E: Exec>(&self, g: &mut E, store: &ParamStore, x: Var) -> Result<Var> {
        let q = self.wq.forward(g, store, x)?;
        let k = self.wk.forward(g, store, x)?;
        let v = self.wv.forward(g, store, x)?;
        let qh = g.split_heads(q, self.heads)?;
        let kh = g.split_heads(k, self.heads)?;
        let vh = g.split_heads(v, self.heads)?;
        let dh = (self.d_model / self.heads) as f32;
        let scores = g.bmm(qh, kh, false, true)?;
        let scaled = g.scale(scores, 1.0 / dh.sqrt());
        let probs = g.softmax_last(scaled)?;
        let ctx = g.bmm(probs, vh, false, false)?;
        let merged = g.merge_heads(ctx, self.heads)?;
        self.wo.forward(g, store, merged)
    }
}

/// One post-norm Transformer encoder layer (attention + feed-forward).
#[derive(Debug, Clone)]
pub struct TransformerEncoderLayer {
    attn: MultiHeadAttention,
    ln1: LayerNorm,
    ln2: LayerNorm,
    ff1: Linear,
    ff2: Linear,
}

impl TransformerEncoderLayer {
    /// Creates an encoder layer with hidden feed-forward width `d_ff`.
    pub fn new(
        store: &mut ParamStore,
        init: &mut impl Init,
        name: &str,
        d_model: usize,
        heads: usize,
        d_ff: usize,
    ) -> Self {
        TransformerEncoderLayer {
            attn: MultiHeadAttention::new(store, init, &format!("{name}.attn"), d_model, heads),
            ln1: LayerNorm::new(store, &format!("{name}.ln1"), d_model),
            ln2: LayerNorm::new(store, &format!("{name}.ln2"), d_model),
            ff1: Linear::new(store, init, &format!("{name}.ff1"), d_model, d_ff),
            ff2: Linear::new(store, init, &format!("{name}.ff2"), d_ff, d_model),
        }
    }

    /// `x -> LN(x + Attn(x)) -> LN(.. + FF(..))`.
    pub fn forward<E: Exec>(&self, g: &mut E, store: &ParamStore, x: Var) -> Result<Var> {
        let a = self.attn.forward(g, store, x)?;
        let res1 = g.add(x, a)?;
        let n1 = self.ln1.forward(g, store, res1)?;
        let h = self.ff1.forward(g, store, n1)?;
        let h = g.relu(h)?;
        let h = self.ff2.forward(g, store, h)?;
        let res2 = g.add(n1, h)?;
        self.ln2.forward(g, store, res2)
    }
}

/// A stack of Transformer encoder layers.
#[derive(Debug, Clone)]
pub struct TransformerEncoder {
    layers: Vec<TransformerEncoderLayer>,
}

impl TransformerEncoder {
    /// Creates `n_layers` encoder layers.
    pub fn new(
        store: &mut ParamStore,
        init: &mut impl Init,
        name: &str,
        n_layers: usize,
        d_model: usize,
        heads: usize,
        d_ff: usize,
    ) -> Self {
        let layers = (0..n_layers)
            .map(|i| {
                TransformerEncoderLayer::new(
                    store,
                    init,
                    &format!("{name}.{i}"),
                    d_model,
                    heads,
                    d_ff,
                )
            })
            .collect();
        TransformerEncoder { layers }
    }

    /// Applies all layers in order.
    pub fn forward<E: Exec>(&self, g: &mut E, store: &ParamStore, mut x: Var) -> Result<Var> {
        for l in &self.layers {
            x = l.forward(g, store, x)?;
        }
        Ok(x)
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }
}

/// A plain multi-layer perceptron with ReLU activations between layers.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Creates an MLP from a list of layer widths, e.g. `[in, h, h, out]`.
    pub fn new(store: &mut ParamStore, init: &mut impl Init, name: &str, widths: &[usize]) -> Self {
        assert!(
            widths.len() >= 2,
            "MLP needs at least input and output widths"
        );
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, init, &format!("{name}.{i}"), w[0], w[1]))
            .collect();
        Mlp { layers }
    }

    /// Forward pass; ReLU after every layer except the last.
    pub fn forward<E: Exec>(&self, g: &mut E, store: &ParamStore, mut x: Var) -> Result<Var> {
        let n = self.layers.len();
        for (i, l) in self.layers.iter().enumerate() {
            x = l.forward(g, store, x)?;
            if i + 1 < n {
                x = g.relu(x)?;
            }
        }
        Ok(x)
    }
}

/// A single LSTM cell (used by the Tiramisu baseline's recursive model).
#[derive(Debug, Clone)]
pub struct LstmCell {
    w_ih: Linear,
    w_hh: Linear,
    hidden: usize,
}

impl LstmCell {
    /// Creates an LSTM cell with the given input and hidden sizes.
    pub fn new(
        store: &mut ParamStore,
        init: &mut impl Init,
        name: &str,
        input: usize,
        hidden: usize,
    ) -> Self {
        LstmCell {
            w_ih: Linear::new(store, init, &format!("{name}.w_ih"), input, 4 * hidden),
            w_hh: Linear::new_no_bias(store, init, &format!("{name}.w_hh"), hidden, 4 * hidden),
            hidden,
        }
    }

    /// One step: `(x [B, in], h [B, H], c [B, H]) -> (h', c')`.
    pub fn step<E: Exec>(
        &self,
        g: &mut E,
        store: &ParamStore,
        x: Var,
        h: Var,
        c: Var,
    ) -> Result<(Var, Var)> {
        let gi = self.w_ih.forward(g, store, x)?;
        let gh = self.w_hh.forward(g, store, h)?;
        let gates = g.add(gi, gh)?;
        let hsz = self.hidden;
        let i_gate = g.slice_last(gates, 0, hsz)?;
        let f_gate = g.slice_last(gates, hsz, 2 * hsz)?;
        let g_gate = g.slice_last(gates, 2 * hsz, 3 * hsz)?;
        let o_gate = g.slice_last(gates, 3 * hsz, 4 * hsz)?;
        let i = g.sigmoid(i_gate)?;
        let f = g.sigmoid(f_gate)?;
        let gg = g.tanh(g_gate)?;
        let o = g.sigmoid(o_gate)?;
        let fc = g.mul(f, c)?;
        let ig = g.mul(i, gg)?;
        let c_new = g.add(fc, ig)?;
        let tc = g.tanh(c_new)?;
        let h_new = g.mul(o, tc)?;
        Ok((h_new, c_new))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;
    use rand::{rngs::StdRng, SeedableRng};

    fn setup() -> (ParamStore, StdRng) {
        (ParamStore::new(), StdRng::seed_from_u64(42))
    }

    #[test]
    fn linear_shapes_rank2_and_rank3() {
        let (mut store, mut rng) = setup();
        let l = Linear::new(&mut store, &mut rng, "l", 4, 6);
        let mut g = Graph::new();
        let x2 = g.constant(Tensor::zeros(&[5, 4]));
        let y2 = l.forward(&mut g, &store, x2).unwrap();
        assert_eq!(g.value(y2).shape(), &[5, 6]);
        let x3 = g.constant(Tensor::zeros(&[2, 3, 4]));
        let y3 = l.forward(&mut g, &store, x3).unwrap();
        assert_eq!(g.value(y3).shape(), &[2, 3, 6]);
    }

    #[test]
    fn linear_bias_is_applied() {
        let (mut store, mut rng) = setup();
        let l = Linear::new(&mut store, &mut rng, "l", 2, 2);
        // Zero the weights so output equals the bias.
        *store.value_mut(ParamId(0)) = Tensor::zeros(&[2, 2]);
        *store.value_mut(ParamId(1)) = Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap();
        let mut g = Graph::new();
        let x = g.constant(Tensor::full(&[3, 2], 5.0));
        let y = l.forward(&mut g, &store, x).unwrap();
        assert_eq!(g.value(y).data(), &[1.0, -1.0, 1.0, -1.0, 1.0, -1.0]);
    }

    #[test]
    fn layer_norm_normalizes_rows() {
        let (mut store, _) = setup();
        let ln = LayerNorm::new(&mut store, "ln", 4);
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_fn(&[2, 4], |i| i as f32 * 3.0));
        let y = ln.forward(&mut g, &store, x).unwrap();
        for row in g.value(y).data().chunks(4) {
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn attention_preserves_shape_and_differentiates() {
        let (mut store, mut rng) = setup();
        let attn = MultiHeadAttention::new(&mut store, &mut rng, "a", 8, 2);
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_fn(&[2, 3, 8], |i| (i as f32 * 0.13).sin()));
        let y = attn.forward(&mut g, &store, x).unwrap();
        assert_eq!(g.value(y).shape(), &[2, 3, 8]);
        let s = g.square(y).unwrap();
        let loss = g.mean(s).unwrap();
        g.backward(loss).unwrap();
        g.write_param_grads(&mut store).unwrap();
        // All attention weights should receive nonzero gradient.
        let total: f32 = store.ids().map(|id| store.grad(id).norm2()).sum();
        assert!(total > 0.0);
    }

    #[test]
    fn transformer_encoder_stack_runs() {
        let (mut store, mut rng) = setup();
        let enc = TransformerEncoder::new(&mut store, &mut rng, "enc", 2, 8, 2, 16);
        assert_eq!(enc.depth(), 2);
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_fn(&[3, 4, 8], |i| (i as f32 * 0.07).cos()));
        let y = enc.forward(&mut g, &store, x).unwrap();
        assert_eq!(g.value(y).shape(), &[3, 4, 8]);
        assert!(g.value(y).data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn mlp_reduces_to_output_width() {
        let (mut store, mut rng) = setup();
        let mlp = Mlp::new(&mut store, &mut rng, "mlp", &[6, 12, 1]);
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_fn(&[5, 6], |i| i as f32 * 0.01));
        let y = mlp.forward(&mut g, &store, x).unwrap();
        assert_eq!(g.value(y).shape(), &[5, 1]);
    }

    #[test]
    fn lstm_cell_step_shapes_and_gradients() {
        let (mut store, mut rng) = setup();
        let cell = LstmCell::new(&mut store, &mut rng, "lstm", 4, 3);
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_fn(&[2, 4], |i| (i as f32 * 0.21).sin()));
        let h0 = g.constant(Tensor::zeros(&[2, 3]));
        let c0 = g.constant(Tensor::zeros(&[2, 3]));
        let (h1, c1) = cell.step(&mut g, &store, x, h0, c0).unwrap();
        assert_eq!(g.value(h1).shape(), &[2, 3]);
        assert_eq!(g.value(c1).shape(), &[2, 3]);
        // Two chained steps must still backprop.
        let (h2, _c2) = cell.step(&mut g, &store, x, h1, c1).unwrap();
        let s = g.square(h2).unwrap();
        let loss = g.mean(s).unwrap();
        g.backward(loss).unwrap();
        g.write_param_grads(&mut store).unwrap();
        assert!(store.grad_norm() > 0.0);
    }

    #[test]
    fn training_reduces_loss_on_toy_regression() {
        // End-to-end sanity: an MLP fit to y = 2x + 1 should reduce the loss.
        let (mut store, mut rng) = setup();
        let mlp = Mlp::new(&mut store, &mut rng, "mlp", &[1, 8, 1]);
        let xs = Tensor::from_fn(&[16, 1], |i| i as f32 / 8.0 - 1.0);
        let ys = xs.map(|v| 2.0 * v + 1.0);
        use crate::optim::Optimizer;
        let mut opt = crate::optim::Adam::new(0.01);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..200 {
            store.zero_grad();
            let mut g = Graph::new();
            let x = g.constant(xs.clone());
            let pred = mlp.forward(&mut g, &store, x).unwrap();
            let t = g.constant(ys.clone());
            let d = g.sub(pred, t).unwrap();
            let sq = g.square(d).unwrap();
            let loss = g.mean(sq).unwrap();
            last = g.value(loss).item();
            first.get_or_insert(last);
            g.backward(loss).unwrap();
            g.write_param_grads(&mut store).unwrap();
            opt.step(&mut store);
        }
        assert!(
            last < 0.05 * first.unwrap(),
            "loss {last} vs first {first:?}"
        );
    }
}
