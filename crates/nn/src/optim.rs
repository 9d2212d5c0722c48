//! Optimizers and learning-rate schedulers.
//!
//! The paper's auto-tuner searches over Adam vs SGD, weight decay and a
//! cyclic learning-rate scheduler (Appendix B); all three are provided.

use tensor::{SimdTier, Tensor};

use crate::tape::ParamStore;

/// A first-order optimizer over a [`ParamStore`].
pub trait Optimizer {
    /// Applies one update step using the store's accumulated gradients.
    fn step(&mut self, store: &mut ParamStore);
    /// Sets the learning rate (used by schedulers).
    fn set_lr(&mut self, lr: f32);
    /// Current learning rate.
    fn lr(&self) -> f32;
}

/// The guarded end of every training step: clip the gradients to
/// `max_norm`, then one `opt` step.
///
/// A step whose gradient norm is not finite — a NaN or infinite loss or
/// label upstream — changes nothing: weights, the optimizer's moments and
/// its step count stay as they were, and `false` comes back (the caller's
/// step then reports a NaN loss). Without the check one bad batch writes
/// NaN into every weight and both Adam moments for good.
pub fn clip_and_step(store: &mut ParamStore, opt: &mut dyn Optimizer, max_norm: f32) -> bool {
    if !store.clip_grad_norm(max_norm) {
        return false;
    }
    opt.step(store);
    true
}

/// Stochastic gradient descent with optional momentum and weight decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates plain SGD.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Creates SGD with momentum and decoupled weight decay.
    pub fn with_momentum(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    /// One in-place pass per parameter; per element the expression is
    /// `p -= wd·lr·p`, `v = μ·v + g`, `p += -lr·v`, in that order.
    fn step(&mut self, store: &mut ParamStore) {
        if self.velocity.is_empty() && self.momentum != 0.0 {
            self.velocity = store
                .ids()
                .map(|id| Tensor::zeros(store.value(id).shape()))
                .collect();
        }
        let (lr, momentum) = (self.lr, self.momentum);
        let decay = self.weight_decay * self.lr;
        for i in 0..store.len() {
            let (value, grad) = store.value_and_grad_mut(i);
            let ps = value.data_mut();
            if self.weight_decay != 0.0 {
                for p in ps.iter_mut() {
                    *p += -(*p * decay);
                }
            }
            if momentum != 0.0 {
                let vel = self.velocity[i].data_mut();
                for ((p, v), &g) in ps.iter_mut().zip(vel).zip(grad.data()) {
                    *v = *v * momentum + g;
                    *p += -lr * *v;
                }
            } else {
                for (p, &g) in ps.iter_mut().zip(grad.data()) {
                    *p += -lr * g;
                }
            }
        }
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn lr(&self) -> f32 {
        self.lr
    }
}

/// Adam with decoupled (AdamW-style) weight decay.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with default betas `(0.9, 0.999)` and no weight decay.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Creates Adam with decoupled weight decay (the paper tunes this).
    pub fn with_weight_decay(lr: f32, weight_decay: f32) -> Self {
        Adam {
            weight_decay,
            ..Adam::new(lr)
        }
    }
}

impl Optimizer for Adam {
    /// One in-place pass per parameter. Per element, in this order:
    /// `m = β₁·m + (1-β₁)·g`, `v = β₂·v + (1-β₂)·g²`,
    /// `u = (m/bc₁) / (sqrt(v/bc₂) + ε)`, `p -= wd·lr·p`, `p += -lr·u` —
    /// every product and sum rounded where the nine full-tensor passes
    /// this replaces rounded it, so the update is bit-identical to them.
    /// On the AVX2 and AVX-512 tiers the pass runs eight elements wide,
    /// each multiply, add, square root and division its own IEEE
    /// operation; every tier returns the scalar pass's bits.
    fn step(&mut self, store: &mut ParamStore) {
        self.step_on(tensor::active_tier(), store);
    }

    fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn lr(&self) -> f32 {
        self.lr
    }
}

impl Adam {
    /// [`Optimizer::step`] with the kernel tier pinned.
    fn step_on(&mut self, tier: SimdTier, store: &mut ParamStore) {
        if self.m.is_empty() {
            let zeros = |store: &ParamStore| -> Vec<Tensor> {
                store
                    .ids()
                    .map(|id| Tensor::zeros(store.value(id).shape()))
                    .collect()
            };
            self.m = zeros(store);
            self.v = zeros(store);
        }
        self.t += 1;
        let (inv_bc1, inv_bc2) = (
            1.0 / (1.0 - self.beta1.powi(self.t as i32)),
            1.0 / (1.0 - self.beta2.powi(self.t as i32)),
        );
        let (b1, b2) = (self.beta1, self.beta2);
        let pass = AdamPass {
            b1,
            b2,
            c1: 1.0 - b1,
            c2: 1.0 - b2,
            inv_bc1,
            inv_bc2,
            eps: self.eps,
            lr: self.lr,
            decay: self.weight_decay * self.lr,
            decays: self.weight_decay != 0.0,
        };
        for i in 0..store.len() {
            let (value, grad) = store.value_and_grad_mut(i);
            let (p, g) = (value.data_mut(), grad.data());
            let (m, v) = (self.m[i].data_mut(), self.v[i].data_mut());
            assert!(g.len() == p.len() && m.len() == p.len() && v.len() == p.len());
            match tier {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: the tier is only ever `Avx2Fma` or `Avx512F` on
                // a host with AVX2 (runtime detection); the lengths are
                // asserted equal.
                SimdTier::Avx2Fma | SimdTier::Avx512F => unsafe { pass.avx2(p, g, m, v) },
                _ => pass.scalar(p, g, m, v),
            }
        }
    }
}

/// One Adam step's constants, and the per-element pass over a parameter.
///
/// The AVX2 pass is the scalar one eight lanes at a time: each multiply,
/// add, square root and division a separate correctly rounded IEEE
/// operation (no fused multiply-add), in the scalar expression's order,
/// so the two agree bit for bit on every input; a tail shorter than a
/// vector runs the scalar pass.
#[derive(Debug, Clone, Copy)]
struct AdamPass {
    b1: f32,
    b2: f32,
    c1: f32,
    c2: f32,
    inv_bc1: f32,
    inv_bc2: f32,
    eps: f32,
    lr: f32,
    decay: f32,
    decays: bool,
}

impl AdamPass {
    /// The definition, one element at a time.
    fn scalar(&self, p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32]) {
        let state = m.iter_mut().zip(v.iter_mut());
        for ((p, &g), (m, v)) in p.iter_mut().zip(g).zip(state) {
            *m = *m * self.b1 + self.c1 * g;
            *v = *v * self.b2 + self.c2 * (g * g);
            let update = (*m * self.inv_bc1) / ((*v * self.inv_bc2).sqrt() + self.eps);
            if self.decays {
                *p += -(*p * self.decay);
            }
            *p += -self.lr * update;
        }
    }

    /// [`AdamPass::scalar`], eight elements per step.
    ///
    /// # Safety
    ///
    /// AVX2; all four slices have the same length.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn avx2(&self, p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32]) {
        use std::arch::x86_64::*;
        let n = p.len();
        let whole = n - n % 8;
        let (b1, b2) = (_mm256_set1_ps(self.b1), _mm256_set1_ps(self.b2));
        let (c1, c2) = (_mm256_set1_ps(self.c1), _mm256_set1_ps(self.c2));
        let inv_bc1 = _mm256_set1_ps(self.inv_bc1);
        let inv_bc2 = _mm256_set1_ps(self.inv_bc2);
        let eps = _mm256_set1_ps(self.eps);
        let neg_lr = _mm256_set1_ps(-self.lr);
        let decay = _mm256_set1_ps(self.decay);
        let sign = _mm256_set1_ps(-0.0);
        let (pp, gp, mp, vp) = (p.as_mut_ptr(), g.as_ptr(), m.as_mut_ptr(), v.as_mut_ptr());
        for i in (0..whole).step_by(8) {
            // SAFETY: `i + 8 <= whole <= n`, the length of every slice.
            unsafe {
                let gi = _mm256_loadu_ps(gp.add(i));
                let mi = _mm256_add_ps(
                    _mm256_mul_ps(_mm256_loadu_ps(mp.add(i)), b1),
                    _mm256_mul_ps(c1, gi),
                );
                let g2 = _mm256_mul_ps(gi, gi);
                let vi = _mm256_add_ps(
                    _mm256_mul_ps(_mm256_loadu_ps(vp.add(i)), b2),
                    _mm256_mul_ps(c2, g2),
                );
                _mm256_storeu_ps(mp.add(i), mi);
                _mm256_storeu_ps(vp.add(i), vi);
                let den = _mm256_add_ps(_mm256_sqrt_ps(_mm256_mul_ps(vi, inv_bc2)), eps);
                let update = _mm256_div_ps(_mm256_mul_ps(mi, inv_bc1), den);
                let mut pi = _mm256_loadu_ps(pp.add(i));
                if self.decays {
                    // `p += -(p·decay)`: the negation flips the sign bit.
                    pi = _mm256_add_ps(pi, _mm256_xor_ps(_mm256_mul_ps(pi, decay), sign));
                }
                pi = _mm256_add_ps(pi, _mm256_mul_ps(neg_lr, update));
                _mm256_storeu_ps(pp.add(i), pi);
            }
        }
        self.scalar(
            &mut p[whole..],
            &g[whole..],
            &mut m[whole..],
            &mut v[whole..],
        );
    }
}

/// Learning-rate schedule evaluated per step.
pub trait LrSchedule {
    /// Learning rate at step `step` (0-based).
    fn lr_at(&self, step: u64) -> f32;
}

/// Constant learning rate.
#[derive(Debug, Clone)]
pub struct ConstantLr(pub f32);

impl LrSchedule for ConstantLr {
    fn lr_at(&self, _step: u64) -> f32 {
        self.0
    }
}

/// Triangular cyclic learning rate (the paper's `CyclicLR`).
///
/// Ramps linearly from `base_lr` to `max_lr` over `step_size` steps and back
/// down over the next `step_size` steps, repeating forever.
#[derive(Debug, Clone)]
pub struct CyclicLr {
    /// Lower bound of the cycle.
    pub base_lr: f32,
    /// Upper bound of the cycle.
    pub max_lr: f32,
    /// Half-period in steps.
    pub step_size: u64,
}

impl LrSchedule for CyclicLr {
    fn lr_at(&self, step: u64) -> f32 {
        let cycle_pos = step % (2 * self.step_size);
        let frac = if cycle_pos < self.step_size {
            cycle_pos as f32 / self.step_size as f32
        } else {
            1.0 - (cycle_pos - self.step_size) as f32 / self.step_size as f32
        };
        self.base_lr + (self.max_lr - self.base_lr) * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::{Graph, ParamStore};

    /// Minimizes `(w - 3)^2` and checks the optimizer converges near 3.
    fn run_quadratic(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut store = ParamStore::new();
        let p = store.add("w", Tensor::scalar(0.0));
        for _ in 0..steps {
            store.zero_grad();
            let mut g = Graph::new();
            let w = g.param(&store, p);
            let c = g.add_scalar(w, -3.0);
            let loss = g.square(c).unwrap();
            g.backward(loss).unwrap();
            g.write_param_grads(&mut store).unwrap();
            opt.step(&mut store);
        }
        store.value(p).item()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let w = run_quadratic(&mut Sgd::new(0.1), 100);
        assert!((w - 3.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn sgd_momentum_converges() {
        let w = run_quadratic(&mut Sgd::with_momentum(0.05, 0.9, 0.0), 200);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let w = run_quadratic(&mut Adam::new(0.1), 300);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        // With a zero gradient objective, decay alone should shrink weights.
        let mut store = ParamStore::new();
        let p = store.add("w", Tensor::scalar(1.0));
        let mut opt = Adam::with_weight_decay(0.1, 0.5);
        for _ in 0..10 {
            store.zero_grad();
            opt.step(&mut store);
        }
        assert!(store.value(p).item() < 1.0);
    }

    /// The nine full-tensor passes per parameter `Adam::step` used to be —
    /// kept here as the definition the fused pass must match bit for bit.
    fn adam_nine_pass(
        store: &mut ParamStore,
        (m, v): (&mut [Tensor], &mut [Tensor]),
        t: i32,
        (lr, wd): (f32, f32),
    ) {
        let (beta1, beta2, eps) = (0.9f32, 0.999f32, 1e-8f32);
        let bc1 = 1.0 - beta1.powi(t);
        let bc2 = 1.0 - beta2.powi(t);
        for (i, id) in store.ids().collect::<Vec<_>>().into_iter().enumerate() {
            let g = store.grad(id).clone();
            m[i] = m[i].scale(beta1);
            m[i].axpy(1.0 - beta1, &g).unwrap();
            v[i] = v[i].scale(beta2);
            v[i].axpy(1.0 - beta2, &g.map(|x| x * x)).unwrap();
            let mhat = m[i].scale(1.0 / bc1);
            let vhat = v[i].scale(1.0 / bc2);
            let update = mhat
                .zip(&vhat, "adam_update", |mi, vi| mi / (vi.sqrt() + eps))
                .unwrap();
            if wd != 0.0 {
                let decay = store.value(id).scale(wd * lr);
                store.value_mut(id).axpy(-1.0, &decay).unwrap();
            }
            store.value_mut(id).axpy(-lr, &update).unwrap();
        }
    }

    /// Likewise for SGD with momentum and decoupled decay.
    fn sgd_full_pass(store: &mut ParamStore, vel: &mut [Tensor], lr: f32, mom: f32, wd: f32) {
        for (i, id) in store.ids().collect::<Vec<_>>().into_iter().enumerate() {
            let g = store.grad(id).clone();
            if wd != 0.0 {
                let decay = store.value(id).scale(wd * lr);
                store.value_mut(id).axpy(-1.0, &decay).unwrap();
            }
            if mom != 0.0 {
                vel[i] = vel[i].scale(mom);
                vel[i].add_assign(&g).unwrap();
                let step = vel[i].clone();
                store.value_mut(id).axpy(-lr, &step).unwrap();
            } else {
                store.value_mut(id).axpy(-lr, &g).unwrap();
            }
        }
    }

    /// Values and gradients with the awkward cases in: signed zeros on
    /// both sides, a parameter whose gradient stays all-zero under weight
    /// decay (an unused `leaf_embed.*` layer), denormals, large values.
    fn awkward_store(step: usize) -> ParamStore {
        let mut store = ParamStore::new();
        let w = store.add(
            "w",
            Tensor::from_fn(&[7, 5], |i| ((i as f32) * 0.37).sin() * 3.0),
        );
        let unused = store.add(
            "leaf_embed.unused",
            Tensor::from_vec(vec![0.5, -0.0, 0.0, -2.0e-39, 7.0e8], &[5]).unwrap(),
        );
        let _ = unused; // gradient stays zero
        let gw = Tensor::from_fn(&[7, 5], |i| match (i + step) % 6 {
            0 => -0.0,
            1 => 0.0,
            2 => 1.0e-41,
            _ => ((i * (step + 1)) as f32 * 0.91).cos() * 10f32.powi((i % 7) as i32 - 3),
        });
        // Written raw: `add_to_grad` onto a zeroed slot would turn `-0.0`
        // into `+0.0`.
        store.values_and_grads_mut().1[w.index()] = gw;
        store
    }

    fn assert_values_bit_equal(a: &ParamStore, b: &ParamStore, ctx: &str) {
        for id in a.ids() {
            let (x, y) = (a.value(id).data(), b.value(id).data());
            assert!(
                x.iter()
                    .map(|v| v.to_bits())
                    .eq(y.iter().map(|v| v.to_bits())),
                "{ctx}: {} differs",
                a.name(id)
            );
        }
    }

    #[test]
    fn fused_adam_is_the_nine_pass_formula_bit_for_bit() {
        for wd in [0.0f32, 1e-3] {
            let mut fused = awkward_store(0);
            let mut reference = fused.clone();
            let mut opt = Adam::with_weight_decay(2e-3, wd);
            let zeros = |s: &ParamStore| -> Vec<Tensor> {
                s.ids()
                    .map(|id| Tensor::zeros(s.value(id).shape()))
                    .collect()
            };
            let (mut m, mut v) = (zeros(&reference), zeros(&reference));
            for step in 0..6 {
                let lr = 2e-3 * (1.0 + step as f32 * 0.25);
                // Fresh gradients each step, same on both sides.
                for s in [&mut fused, &mut reference] {
                    let fresh = awkward_store(step);
                    for id in fresh.ids() {
                        s.values_and_grads_mut().1[id.index()] = fresh.grad(id).clone();
                    }
                }
                opt.set_lr(lr);
                opt.step(&mut fused);
                adam_nine_pass(&mut reference, (&mut m, &mut v), step as i32 + 1, (lr, wd));
                assert_values_bit_equal(&fused, &reference, &format!("wd={wd} step={step}"));
            }
        }
    }

    #[test]
    fn fused_sgd_is_the_full_pass_formula_bit_for_bit() {
        for (mom, wd) in [(0.9f32, 1e-3f32), (0.0, 1e-3), (0.9, 0.0), (0.0, 0.0)] {
            let mut fused = awkward_store(0);
            let mut reference = fused.clone();
            let mut opt = Sgd::with_momentum(1e-2, mom, wd);
            let mut vel: Vec<Tensor> = reference
                .ids()
                .map(|id| Tensor::zeros(reference.value(id).shape()))
                .collect();
            for step in 0..6 {
                for s in [&mut fused, &mut reference] {
                    let fresh = awkward_store(step);
                    for id in fresh.ids() {
                        s.values_and_grads_mut().1[id.index()] = fresh.grad(id).clone();
                    }
                }
                opt.step(&mut fused);
                sgd_full_pass(&mut reference, &mut vel, 1e-2, mom, wd);
                assert_values_bit_equal(&fused, &reference, &format!("mom={mom} wd={wd}"));
            }
        }
    }

    /// [`awkward_store`] plus a parameter long enough for many vectors,
    /// its gradient as awkward: signed zeros and denormals of both signs.
    fn wide_store(step: usize) -> ParamStore {
        let mut store = awkward_store(step);
        let scale = |i: usize| 10f32.powi((i % 9) as i32 - 4);
        let long = store.add(
            "long",
            Tensor::from_fn(&[203], |i| ((i as f32) * 0.53).cos() * scale(i)),
        );
        store.values_and_grads_mut().1[long.index()] =
            Tensor::from_fn(&[203], |i| match (i + step) % 7 {
                0 => -0.0,
                1 => 0.0,
                2 => 1.0e-41,
                3 => -3.0e-39,
                _ => ((i * (step + 3)) as f32 * 0.71).sin() * scale(i),
            });
        store
    }

    /// Gives `store` the gradients of `wide_store(step)`.
    fn fresh_grads(store: &mut ParamStore, step: usize) {
        let fresh = wide_store(step);
        for id in fresh.ids() {
            store.values_and_grads_mut().1[id.index()] = fresh.grad(id).clone();
        }
    }

    fn bits(ts: &[Tensor]) -> Vec<u32> {
        ts.iter()
            .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
            .collect()
    }

    /// Both passes pinned, whatever `CDMPP_SIMD` selects.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn wide_adam_is_the_scalar_pass_bit_for_bit() {
        if !std::is_x86_feature_detected!("avx2") {
            return;
        }
        for wd in [0.0f32, 1e-3] {
            let mut wide = wide_store(0);
            let mut scalar = wide.clone();
            let mut a = Adam::with_weight_decay(2e-3, wd);
            let mut b = a.clone();
            for step in 0..2000 {
                let lr = 2e-3 * (1.0 + (step % 13) as f32 * 0.25);
                for s in [&mut wide, &mut scalar] {
                    fresh_grads(s, step);
                }
                a.set_lr(lr);
                b.set_lr(lr);
                a.step_on(SimdTier::Avx2Fma, &mut wide);
                b.step_on(SimdTier::Scalar, &mut scalar);
                let ctx = format!("wd={wd} step={step}");
                assert_values_bit_equal(&wide, &scalar, &ctx);
                assert_eq!(bits(&a.m), bits(&b.m), "{ctx}: m");
                assert_eq!(bits(&a.v), bits(&b.v), "{ctx}: v");
            }
        }
    }

    #[test]
    fn a_non_finite_step_changes_nothing() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut store = wide_store(0);
            let mut opt = Adam::with_weight_decay(2e-3, 1e-3);
            let (mut clean_store, mut clean) = (store.clone(), opt.clone());
            assert!(clip_and_step(&mut store, &mut opt, 5.0));
            assert!(clip_and_step(&mut clean_store, &mut clean, 5.0));

            // A bad batch on one side only: nothing moves.
            fresh_grads(&mut store, 1);
            let w = store.ids().next().expect("a parameter");
            store.values_and_grads_mut().1[w.index()].data_mut()[3] = bad;
            let (values, t) = (store.clone(), opt.t);
            let (m, v) = (bits(&opt.m), bits(&opt.v));
            assert!(!clip_and_step(&mut store, &mut opt, 5.0), "{bad}");
            assert_values_bit_equal(&store, &values, &format!("{bad}: weights"));
            assert_eq!((bits(&opt.m), bits(&opt.v), opt.t), (m, v, t), "{bad}");

            // The next finite step lands where a run that never saw the
            // bad batch does.
            for (s, o) in [(&mut store, &mut opt), (&mut clean_store, &mut clean)] {
                fresh_grads(s, 2);
                assert!(clip_and_step(s, o, 5.0));
            }
            assert_values_bit_equal(&store, &clean_store, &format!("{bad}: next step"));
            assert_eq!(bits(&opt.m), bits(&clean.m), "{bad}: m");
            assert_eq!(bits(&opt.v), bits(&clean.v), "{bad}: v");
        }
    }

    #[test]
    fn cyclic_lr_triangle_shape() {
        let s = CyclicLr {
            base_lr: 0.0,
            max_lr: 1.0,
            step_size: 10,
        };
        assert_eq!(s.lr_at(0), 0.0);
        assert_eq!(s.lr_at(10), 1.0);
        assert!((s.lr_at(5) - 0.5).abs() < 1e-6);
        assert!((s.lr_at(15) - 0.5).abs() < 1e-6);
        assert_eq!(s.lr_at(20), 0.0); // Period is 2 * step_size.
    }

    #[test]
    fn constant_lr_is_constant() {
        let s = ConstantLr(0.3);
        assert_eq!(s.lr_at(0), 0.3);
        assert_eq!(s.lr_at(1_000_000), 0.3);
    }
}
