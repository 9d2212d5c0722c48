//! Weight initializers.

use rand::Rng;
use tensor::Tensor;

/// What a layer constructor fills the weight matrices it registers with.
///
/// Every random generator is one: `Linear::new(store, &mut rng, ..)` draws
/// Xavier-uniform weights from it. [`ShapeOnly`] is the other.
pub trait Init {
    /// A `[fan_in, fan_out]` weight matrix.
    fn weight(&mut self, fan_in: usize, fan_out: usize) -> Tensor;
}

impl<R: Rng> Init for R {
    fn weight(&mut self, fan_in: usize, fan_out: usize) -> Tensor {
        xavier_uniform(self, fan_in, fan_out)
    }
}

/// Registers every parameter under its name and shape, in order, and
/// leaves the weights zero: for a caller about to install stored weights
/// (a snapshot restore), which would only overwrite the random ones. It
/// holds no generator, so construction draws no random numbers.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShapeOnly;

impl Init for ShapeOnly {
    fn weight(&mut self, fan_in: usize, fan_out: usize) -> Tensor {
        Tensor::zeros(&[fan_in, fan_out])
    }
}

/// Xavier/Glorot uniform initialization for a `[fan_in, fan_out]` matrix.
pub fn xavier_uniform(rng: &mut impl Rng, fan_in: usize, fan_out: usize) -> Tensor {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    Tensor::from_fn(&[fan_in, fan_out], |_| rng.random_range(-limit..limit))
}

/// Kaiming/He uniform initialization (good for ReLU networks).
pub fn kaiming_uniform(rng: &mut impl Rng, fan_in: usize, fan_out: usize) -> Tensor {
    let limit = (3.0f32).sqrt() * (2.0 / fan_in as f32).sqrt();
    Tensor::from_fn(&[fan_in, fan_out], |_| rng.random_range(-limit..limit))
}

/// Uniform initialization in `[-limit, limit]` with an arbitrary shape.
pub fn uniform(rng: &mut impl Rng, shape: &[usize], limit: f32) -> Tensor {
    Tensor::from_fn(shape, |_| rng.random_range(-limit..limit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn xavier_respects_limit() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = xavier_uniform(&mut rng, 10, 10);
        let limit = (6.0f32 / 20.0).sqrt();
        assert!(t.data().iter().all(|&v| v.abs() <= limit));
        assert_eq!(t.shape(), &[10, 10]);
    }

    #[test]
    fn init_is_deterministic_given_seed() {
        let a = xavier_uniform(&mut StdRng::seed_from_u64(7), 4, 4);
        let b = xavier_uniform(&mut StdRng::seed_from_u64(7), 4, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn kaiming_nonzero_spread() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = kaiming_uniform(&mut rng, 64, 32);
        let mean = t.mean();
        assert!(mean.abs() < 0.05, "mean should be near zero, got {mean}");
        assert!(t.data().iter().any(|&v| v.abs() > 1e-3));
    }
}
