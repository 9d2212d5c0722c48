//! `tensor::math` bit-identity suite.
//!
//! Every tier's slice kernel must return the scalar oracle's bits for
//! every input, in place and out of place, whole vectors and tails alike.
//! The tier-1 tests sweep every 65 537th bit pattern plus the inputs on
//! each branch edge of the oracles; the ignored tests sweep all 2³² inputs
//! (run them in release):
//!
//! ```text
//! cargo test --release -p tensor --test math_bit_identity -- --ignored exhaustive
//! ```
//!
//! `oracle_matches_host_libm` holds the oracles to the host's `f32::tanh`
//! / `f32::exp`. It is ignored and only built for x86_64 glibc: another
//! `libm` (or another glibc release) may round differently, and the
//! oracles, not the host, define the model's bits.

use tensor::math::{self, Func};
use tensor::{active_tier, SimdTier};

const FUNCS: [Func; 3] = [Func::Tanh, Func::Exp, Func::Sigmoid];

/// The tiers to check: the oracle's own and the active one.
fn tiers() -> Vec<SimdTier> {
    let mut t = vec![SimdTier::Scalar];
    if active_tier() != SimdTier::Scalar {
        t.push(active_tier());
    }
    t
}

/// Inputs on the oracles' branch edges, each with its neighbours one ulp
/// away, its half (`tanh` hands `expm1` twice its argument) and all of
/// their negations.
fn edge_inputs() -> Vec<f32> {
    let ln2 = std::f32::consts::LN_2;
    let mut base = vec![
        0.0,
        f32::INFINITY,
        f32::NAN,
        f32::from_bits(1),
        f32::from_bits(2),
        f32::MIN_POSITIVE,
        2f32.powi(-55),
        2f32.powi(-25),
        0.5 * ln2,
        1.5 * ln2,
        1.0,
        22.0,
        27.0 * ln2,
        88.72,
        88.0,
        f32::from_bits(0x42b1_7217),
        103.97,
        f32::from_bits(0x42cf_f1b4),
        f32::MAX,
        f32::from_bits(0x4202_422f),
        f32::from_bits(0x427c_65d9),
    ];
    // `expm1` moves from `k` to `k + 1` at `(k + 1/2)·ln2`.
    for k in [1, 2, 22, 23, 56, 57] {
        base.push((k as f32 - 0.5) * ln2);
        base.push((k as f32 + 0.5) * ln2);
    }
    let mut out = Vec::new();
    for v in base {
        for w in [v, 0.5 * v] {
            let b = w.to_bits();
            for n in [b.wrapping_sub(1), b, b.wrapping_add(1)] {
                let x = f32::from_bits(n);
                out.extend([x, -x]);
            }
        }
    }
    out
}

/// Every 65 537th bit pattern, then the edges.
fn sample_inputs() -> Vec<f32> {
    let mut v: Vec<f32> = (0..=u32::MAX).step_by(65_537).map(f32::from_bits).collect();
    v.extend(edge_inputs());
    v
}

fn assert_bits(f: Func, xs: &[f32], got: &[f32], what: &str) {
    for (&x, &y) in xs.iter().zip(got) {
        let want = f.eval(x);
        assert_eq!(
            y.to_bits(),
            want.to_bits(),
            "{what}: {f:?}({x:e} = {:#010x}) = {y:e}, oracle {want:e}",
            x.to_bits()
        );
    }
}

#[test]
fn slice_kernels_match_the_oracle_in_and_out_of_place() {
    let xs = sample_inputs();
    for tier in tiers() {
        for f in FUNCS {
            for len in 0..=17usize {
                let what = format!("{tier:?} len {len}");
                let chunks: Vec<&[f32]> = if len == 0 {
                    vec![&[]]
                } else {
                    xs.chunks(len).collect()
                };
                for c in chunks {
                    let mut out = vec![f32::NAN; c.len()];
                    math::map_with_tier(tier, f, Some(c), &mut out);
                    assert_bits(f, c, &out, &format!("{what} out of place"));
                    let mut io = c.to_vec();
                    math::map_with_tier(tier, f, None, &mut io);
                    assert_bits(f, c, &io, &format!("{what} in place"));
                }
            }
        }
    }
}

#[test]
fn oracle_special_values() {
    assert_eq!(math::tanh(0.0).to_bits(), 0.0f32.to_bits());
    assert_eq!(math::tanh(-0.0).to_bits(), (-0.0f32).to_bits());
    assert_eq!(math::tanh(f32::INFINITY), 1.0);
    assert_eq!(math::tanh(f32::NEG_INFINITY), -1.0);
    assert_eq!(math::tanh(30.0), 1.0);
    assert!(math::tanh(f32::NAN).is_nan());
    assert_eq!(math::exp(0.0), 1.0);
    assert_eq!(math::exp(f32::NEG_INFINITY).to_bits(), 0);
    assert_eq!(math::exp(f32::INFINITY), f32::INFINITY);
    assert_eq!(math::exp(89.0), f32::INFINITY);
    assert_eq!(math::exp(-104.0).to_bits(), 0);
    assert!(math::exp(f32::NAN).is_nan());
    assert_eq!(math::sigmoid(0.0), 0.5);
    assert_eq!(math::sigmoid(-200.0).to_bits(), 0);
    assert_eq!(math::sigmoid(200.0), 1.0);
    // Near-identities that hold to the last bit.
    assert_eq!(math::tanh(1e-30), 1e-30);
    assert_eq!(math::exp(1.0), std::f32::consts::E);
}

/// All 2³² bit patterns, a chunk at a time: `got` rewrites each chunk in
/// place, and every result must have `want`'s bits. Returns the mismatch
/// count, printing the first few.
fn sweep(what: &str, got: impl Fn(&mut [f32]) + Sync, want: impl Fn(f32) -> f32 + Sync) -> u64 {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let per = (1u64 << 32).div_ceil(threads);
    let (got, want) = (&got, &want);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut bad = 0u64;
                    let mut buf = vec![0.0f32; 4096];
                    let end = ((t + 1) * per).min(1 << 32);
                    let mut start = t * per;
                    while start < end {
                        let n = (end - start).min(buf.len() as u64) as usize;
                        let buf = &mut buf[..n];
                        let x = |i: usize| f32::from_bits((start + i as u64) as u32);
                        for (i, v) in buf.iter_mut().enumerate() {
                            *v = x(i);
                        }
                        got(buf);
                        for (i, &y) in buf.iter().enumerate() {
                            let w = want(x(i));
                            if y.to_bits() != w.to_bits() {
                                bad += 1;
                                if bad <= 4 {
                                    eprintln!(
                                        "{what}({:#010x}) = {:#010x}, want {:#010x}",
                                        x(i).to_bits(),
                                        y.to_bits(),
                                        w.to_bits()
                                    );
                                }
                            }
                        }
                        start += n as u64;
                    }
                    bad
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

/// All 2³² inputs of `f` through the active tier's slice kernel, in
/// place, against the oracle.
fn exhaustive(f: Func) {
    let bad = sweep(&format!("{f:?}"), |b| math::map(f, None, b), |x| f.eval(x));
    println!(
        "{f:?}: {bad} mismatches over 2^32 inputs ({})",
        active_tier().name()
    );
    assert_eq!(bad, 0);
}

#[test]
#[ignore = "2^32 inputs; run in release"]
fn exhaustive_tanh() {
    exhaustive(Func::Tanh);
}

#[test]
#[ignore = "2^32 inputs; run in release"]
fn exhaustive_exp() {
    exhaustive(Func::Exp);
}

#[test]
#[ignore = "2^32 inputs; run in release"]
fn exhaustive_sigmoid() {
    exhaustive(Func::Sigmoid);
}

/// The oracles against the host `libm` over all 2³² inputs.
#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
#[test]
#[ignore = "host libm dependent; 2^32 inputs; run in release"]
fn oracle_matches_host_libm() {
    if !std::is_x86_feature_detected!("fma") {
        println!("skipped: glibc's expf has a different build without FMA");
        return;
    }
    for (f, host) in [
        (Func::Tanh, f32::tanh as fn(f32) -> f32),
        (Func::Exp, f32::exp),
    ] {
        let oracle = |b: &mut [f32]| b.iter_mut().for_each(|v| *v = f.eval(*v));
        let bad = sweep(&format!("{f:?} oracle"), oracle, host);
        println!("{f:?} oracle vs host libm: {bad} mismatches over 2^32 inputs");
        assert_eq!(bad, 0);
    }
}
