//! The compiled regression head is the taped one: `loss_head` returns
//! `build_loss`'s value and writes the gradient its prediction leaf gets
//! on the tape, bit for bit — for every `LossKind`, one-shard and in the
//! data-parallel step's 16-row shards (the loss node's gradient then being
//! the shard's `rows / n`), over the awkward inputs: `d == 0` exactly,
//! signed zeros, labels on and under the relative losses' 0.1 clamp, and
//! λ = 0. (The CMD head's twin is `nn::cmd`'s `cmd_head_is_the_tape_bit_for_bit`.)

use cdmpp_core::trainer::{build_loss, loss_head};
use cdmpp_core::LossKind;
use nn::Graph;
use tensor::Tensor;

const KINDS: [LossKind; 4] = [
    LossKind::Mse,
    LossKind::Mape,
    LossKind::Mspe,
    LossKind::Hybrid,
];

/// Predictions and labels for `n` rows; row `i`'s case is `i % 8`.
fn rows(n: usize, salt: usize) -> (Vec<f32>, Vec<f32>) {
    (0..n)
        .map(|i| {
            let smooth = ((i + salt) as f32 * 0.73).sin() * 1.5;
            match (i + salt) % 8 {
                // A perfect prediction: d == 0 exactly.
                0 => (smooth, smooth),
                // Signed zeros: d = +0 - (-0) = +0 and -0 - (+0) = -0.
                1 => (0.0, -0.0),
                2 => (-0.0, 0.0),
                // Labels at and under the clamp, both signs.
                3 => (0.4, 0.1),
                4 => (smooth, -0.1),
                5 => (-0.3, 0.05),
                6 => (smooth * 0.5, 0.0),
                _ => (smooth, smooth * 0.8 + 0.2),
            }
        })
        .unzip()
}

/// The tape's `(loss, ∂root/∂pred)` for one shard, `root` being the loss
/// scaled by `w` when `w != 1` (as the data-parallel step builds it).
fn taped(kind: LossKind, lambda: f32, pred: &[f32], y: &[f32], w: f32) -> (f32, Vec<f32>) {
    let mut g = Graph::new();
    let leaf = g.constant(Tensor::from_vec(pred.to_vec(), &[pred.len(), 1]).unwrap());
    let loss = build_loss(&mut g, leaf, y, kind, lambda).unwrap();
    let root = if w == 1.0 { loss } else { g.scale(loss, w) };
    g.backward(root).unwrap();
    (g.value(loss).item(), g.grad(leaf).unwrap().data().to_vec())
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn loss_head_is_build_loss_on_the_tape_bit_for_bit() {
    // (batch, shard rows): one shard each, then 64 rows in 16-row shards.
    let cases = [(1, 1), (7, 7), (16, 16), (48, 48), (64, 16)];
    for kind in KINDS {
        for lambda in [0.0f32, 1e-3] {
            for (salt, &(n, shard)) in cases.iter().enumerate() {
                let (pred, y) = rows(n, salt);
                let mut seed = vec![f32::NAN; n];
                for r0 in (0..n).step_by(shard) {
                    let r = r0..(r0 + shard).min(n);
                    let w = r.len() as f32 / n as f32;
                    let ctx = format!("{kind:?} λ={lambda} n={n} rows {r:?}");
                    let (value, want) = taped(kind, lambda, &pred[r.clone()], &y[r.clone()], w);
                    let got = loss_head(
                        kind,
                        lambda,
                        &pred[r.clone()],
                        &y[r.clone()],
                        w,
                        &mut seed[r.clone()],
                    );
                    assert_eq!(got.to_bits(), value.to_bits(), "{ctx}: value");
                    assert_eq!(bits(&seed[r]), bits(&want), "{ctx}: seed");
                }
            }
        }
    }
}
