//! Layer norm alone, through every executor, against a per-row definition
//! written out here: the tape's forward and backward, the generic plan
//! ([`PlanExec`]), a fold ([`SpecializedPlan`]) and the compiled training
//! step ([`TrainExec`]), bit for bit.
//!
//! The row counts straddle every row-block size a kernel might use (1 to
//! 33, then 192), the widths straddle every lane and tile width (1 to 65),
//! and the rows include the values whose bits a reordered chain would
//! change: constant rows (variance 0), `±0`, `NaN`, `±inf` and `±1e30`
//! (whose squares overflow the variance).

use nn::{Exec, Graph, ParamId, ParamStore, Plan, PlanError, PlanExec, TrainExec, TrainPlan};
use std::sync::Arc;
use tensor::Tensor;

const ROWS: [usize; 34] = {
    let mut r = [192; 34];
    let mut i = 0;
    while i < 33 {
        r[i] = i + 1;
        i += 1;
    }
    r
};
const WIDTHS: [usize; 9] = [1, 7, 8, 16, 24, 32, 33, 64, 65];
const EPS: f32 = 1e-5;

/// Row `r` of width `d`: ordinary values, or one of the special patterns.
fn row(r: usize, d: usize, salt: f32) -> Vec<f32> {
    let wave = |j: usize| ((r * 31 + j) as f32 * 0.377 + salt).sin() * 2.5;
    (0..d)
        .map(|j| match r % 11 {
            1 => 0.75,               // constant: variance 0
            3 => 0.0,                // all +0
            4 => -0.0,               // all -0
            5 if j % 2 == 0 => -0.0, // ±0 mixed
            5 => 0.0,
            6 if j == d / 2 => f32::NAN,      // one NaN
            7 if j == d - 1 => f32::INFINITY, // one +inf
            8 if j == 0 => f32::NEG_INFINITY, // one -inf
            9 if j % 3 == 0 => 1e30,          // squares overflow
            10 if j % 2 == 1 => -1e30,
            _ => wave(j),
        })
        .collect()
}

fn input(rows: usize, d: usize, salt: f32) -> Vec<f32> {
    (0..rows).flat_map(|r| row(r, d, salt)).collect()
}

/// The per-row definition of the forward: mean and variance are plain
/// ascending sums from `-0.0` (what `Iterator::sum` does).
fn want_fwd(x: &[f32], gamma: &[f32], beta: &[f32], d: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(x.len());
    for xr in x.chunks(d) {
        let mut s = -0.0f32;
        for &v in xr {
            s += v;
        }
        let mean = s / d as f32;
        let mut vs = -0.0f32;
        for &v in xr {
            vs += (v - mean) * (v - mean);
        }
        let inv = 1.0 / (vs / d as f32 + EPS).sqrt();
        for j in 0..d {
            out.push((xr[j] - mean) * inv * gamma[j] + beta[j]);
        }
    }
    out
}

/// The per-row definition of the backward: `(dx, dgamma, dbeta)`, the two
/// dot chains from `0.0`, the column sums from `0.0` in row order.
fn want_bwd(x: &[f32], gamma: &[f32], g: &[f32], d: usize) -> [Vec<f32>; 3] {
    let mut dx = Vec::with_capacity(x.len());
    let (mut dgamma, mut dbeta) = (vec![0.0f32; d], vec![0.0f32; d]);
    for (xr, gr) in x.chunks(d).zip(g.chunks(d)) {
        let mut s = -0.0f32;
        for &v in xr {
            s += v;
        }
        let mean = s / d as f32;
        let mut vs = -0.0f32;
        for &v in xr {
            vs += (v - mean) * (v - mean);
        }
        let inv = 1.0 / (vs / d as f32 + EPS).sqrt();
        let (mut mean_gg, mut mean_ggx) = (0.0f32, 0.0f32);
        for j in 0..d {
            let xhat = (xr[j] - mean) * inv;
            let gg = gr[j] * gamma[j];
            mean_gg += gg;
            mean_ggx += gg * xhat;
            dgamma[j] += gr[j] * xhat;
            dbeta[j] += gr[j];
        }
        mean_gg /= d as f32;
        mean_ggx /= d as f32;
        for j in 0..d {
            let xhat = (xr[j] - mean) * inv;
            dx.push(inv * (gr[j] * gamma[j] - mean_gg - xhat * mean_ggx));
        }
    }
    [dx, dgamma, dbeta]
}

/// Bit equality, except that any `NaN` equals any other: which operand's
/// `NaN` an IEEE operation passes on is up to the instruction (and the
/// compiler's operand order), so a `NaN`'s sign and payload are not part
/// of the definition.
#[track_caller]
fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    let bits = |v: f32| {
        if v.is_nan() {
            f32::NAN.to_bits()
        } else {
            v.to_bits()
        }
    };
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert_eq!(bits(g), bits(w), "{what}: element {i}: {g} vs {w}");
    }
}

/// `v` as it lands in a zeroed gradient accumulator (`+0.0 + v`, which
/// turns `-0.0` into `+0.0`).
fn accumulated(v: &[f32]) -> Vec<f32> {
    v.iter().map(|&x| 0.0 + x).collect()
}

struct Params {
    store: ParamStore,
    gamma: ParamId,
    beta: ParamId,
}

fn params(d: usize) -> Params {
    let mut store = ParamStore::new();
    let gamma = store.add(
        "gamma".to_string(),
        Tensor::from_fn(&[d], |j| 1.0 + (j as f32 * 0.61).cos() * 0.4),
    );
    let beta = store.add(
        "beta".to_string(),
        Tensor::from_fn(&[d], |j| (j as f32 * 0.29).sin() * 0.2),
    );
    Params { store, gamma, beta }
}

fn ln_program<E: Exec>(e: &mut E, p: &Params, x: Tensor) -> tensor::Result<nn::Var> {
    let x = e.constant(x);
    let (gamma, beta) = (e.param(&p.store, p.gamma), e.param(&p.store, p.beta));
    e.layer_norm(x, gamma, beta, EPS)
}

#[test]
fn tape_forward_and_backward_match_the_row_definition() {
    for d in WIDTHS {
        let p = params(d);
        let (gv, bv) = (p.store.value(p.gamma).data(), p.store.value(p.beta).data());
        for rows in ROWS {
            let x = input(rows, d, 0.3);
            let seed = input(rows, d, 1.9);
            let mut g = Graph::new();
            let xv = g.constant(Tensor::from_vec(x.clone(), &[rows, d]).unwrap());
            let (gamma, beta) = (g.param(&p.store, p.gamma), g.param(&p.store, p.beta));
            let y = g.layer_norm(xv, gamma, beta, EPS).unwrap();
            let ctx = format!("tape rows={rows} d={d}");
            assert_bits(g.value(y).data(), &want_fwd(&x, gv, bv, d), &ctx);
            // `sum(y * seed)` hands the layer norm exactly `seed`.
            let weighted = g
                .mul_const(y, Tensor::from_vec(seed.clone(), &[rows, d]).unwrap())
                .unwrap();
            let loss = g.sum(weighted).unwrap();
            g.backward(loss).unwrap();
            let [dx, dgamma, dbeta] = want_bwd(&x, gv, &seed, d);
            assert_bits(g.grad(xv).unwrap().data(), &dx, &format!("{ctx}: dx"));
            assert_bits(
                g.grad(gamma).unwrap().data(),
                &dgamma,
                &format!("{ctx}: dgamma"),
            );
            assert_bits(
                g.grad(beta).unwrap().data(),
                &dbeta,
                &format!("{ctx}: dbeta"),
            );
        }
    }
}

#[test]
fn generic_plan_and_fold_match_the_row_definition() {
    for d in WIDTHS {
        let p = params(d);
        let (gv, bv) = (p.store.value(p.gamma).data(), p.store.value(p.beta).data());
        let plan = Arc::new(
            Plan::compile(&p.store, |rec, b| {
                let x = Tensor::from_vec(input(b, d, 0.3), &[b, d]).unwrap();
                Ok(vec![ln_program(rec, &p, x).map_err(PlanError::from)?])
            })
            .unwrap(),
        );
        let mut generic = PlanExec::new(Arc::clone(&plan));
        let mut arena = Vec::new();
        for rows in ROWS {
            let x = input(rows, d, 0.3);
            let want = want_fwd(&x, gv, bv, d);
            let xt = Tensor::from_vec(x, &[rows, d]).unwrap();
            generic.run(&p.store, &[&xt]).unwrap();
            assert_bits(generic.output(0), &want, &format!("plan rows={rows} d={d}"));
            let fold = plan.specialize(&p.store, rows).unwrap();
            fold.replay(&mut arena, &p.store, &[&xt]).unwrap();
            assert_bits(
                fold.output(&arena, 0),
                &want,
                &format!("fold rows={rows} d={d}"),
            );
        }
    }
}

#[test]
fn compiled_step_matches_the_row_definition() {
    for d in WIDTHS {
        for rows in ROWS {
            // One sample of `rows × d` plus a `-0.0` row parameter (adding
            // it keeps every bit), reshaped to `rows` rows: the step's `dx`
            // is then that parameter's gradient, where it can be read.
            let mut p = params(d);
            let shift = p
                .store
                .add("shift".to_string(), Tensor::full(&[rows * d], -0.0));
            let (gv, bv) = (
                p.store.value(p.gamma).data().to_vec(),
                p.store.value(p.beta).data().to_vec(),
            );
            let plan = Arc::new(
                TrainPlan::compile(&p.store, &[true], |rec, b| {
                    let x = Tensor::from_vec(input(b * rows, d, 0.3), &[b, rows * d]).unwrap();
                    let x = rec.constant(x);
                    let s = rec.param(&p.store, shift);
                    let x = rec.add_row(x, s).map_err(PlanError::from)?;
                    let x = rec.reshape(x, &[b * rows, d]).map_err(PlanError::from)?;
                    let (gamma, beta) = (rec.param(&p.store, p.gamma), rec.param(&p.store, p.beta));
                    Ok(vec![rec
                        .layer_norm(x, gamma, beta, EPS)
                        .map_err(PlanError::from)?])
                })
                .unwrap(),
            );
            let mut exec = TrainExec::new(plan);
            let ctx = format!("compiled step rows={rows} d={d}");
            let x = input(rows, d, 0.3);
            let xt = Tensor::from_vec(x.clone(), &[1, rows * d]).unwrap();
            p.store.zero_grad();
            exec.forward(&p.store, &[&xt]).unwrap();
            assert_bits(exec.output(0), &want_fwd(&x, &gv, &bv, d), &ctx);
            let seed = input(rows, d, 1.9);
            exec.backward(&mut p.store, &[&xt], &[&seed], 1).unwrap();
            let [dx, dgamma, dbeta] = want_bwd(&x, &gv, &seed, d);
            let dx = accumulated(&dx);
            assert_bits(p.store.grad(shift).data(), &dx, &format!("{ctx}: dx"));
            let dgamma = accumulated(&dgamma);
            assert_bits(
                p.store.grad(p.gamma).data(),
                &dgamma,
                &format!("{ctx}: dgamma"),
            );
            let dbeta = accumulated(&dbeta);
            assert_bits(
                p.store.grad(p.beta).data(),
                &dbeta,
                &format!("{ctx}: dbeta"),
            );
        }
    }
}
