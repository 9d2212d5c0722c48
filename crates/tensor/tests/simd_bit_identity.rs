//! SIMD-vs-scalar bit-identity suite.
//!
//! Every SIMD micro-kernel tier (AVX2+FMA on x86_64, NEON on aarch64)
//! must reproduce the scalar kernel's exact accumulation order:
//! fused multiply-adds ascending in `k` within each `KC` block,
//! reassociation only at `KC` boundaries. That makes the scalar kernel a
//! bitwise *oracle* for every other tier — this suite runs every tier the
//! CPU supports ([`supported_tiers`], whichever one is active) through the
//! tier-pinned seams and compares each against a forced-scalar run with
//! `assert_eq!` on the raw `f32`
//! bits across transpose flags, accumulate variants, fused epilogues
//! (scale / bias / activation), threshold-crossing and degenerate shapes,
//! and the prepacked-B path. The tiers that finish the write-back epilogue
//! in vector registers get a dedicated oracle run over operands built to
//! land `-0.0`, `+0.0`, `NaN` and `±inf` in front of every epilogue.
//!
//! On a host with no SIMD tier the comparisons are trivially true. The
//! entry points that take no tier (`gemm_t_slices`, `bmm_slices`) run on
//! the active one, which CI also forces to scalar (`CDMPP_SIMD=scalar`).

use proptest::prelude::*;
use tensor::{
    active_tier, bmm_acc_slices, bmm_slices, gemm_prepacked, gemm_prepacked_quant,
    gemm_slices_with_tier, gemm_t_slices, supported_tiers, Activation, PackedB, QuantizedMatrix,
    QuantizedPackedB, SimdTier, QUANT_GROUP, TINY_MULADDS,
};

fn fill(numel: usize, seed: f32) -> Vec<f32> {
    (0..numel)
        .map(|i| ((i as f32) * 0.417 + seed).sin() * 1.5)
        .collect()
}

/// Runs one GEMM configuration under `tier`, returning the output buffer.
#[allow(clippy::too_many_arguments)]
fn run(
    tier: SimdTier,
    m: usize,
    k: usize,
    n: usize,
    ta: bool,
    tb: bool,
    acc: bool,
    scale: Option<f32>,
    bias: Option<&[f32]>,
    act: Activation,
) -> Vec<f32> {
    let a = fill(m * k, 0.3);
    let b = fill(k * n, 1.7);
    // A non-trivial starting buffer so `acc` is actually exercised.
    let mut out = fill(m * n, 2.9);
    if !acc {
        // Still deterministic, but prove the kernel fully overwrites.
        out.fill(f32::NAN);
    }
    gemm_slices_with_tier(
        tier, m, k, n, &a, ta, &b, tb, acc, scale, bias, act, &mut out,
    );
    out
}

fn assert_bits_equal(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {i} differs: {g} vs {w}"
        );
    }
}

/// Shapes chosen to straddle every dispatch boundary: the naive/blocked
/// threshold (derived from `TINY_MULADDS`, so it moves with the constant),
/// partial register tiles in both dimensions for every tier's MR×NR,
/// multiple KC blocks (k > 512), and degenerate empty dims.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (3, 5, 7),
    (8, TINY_MULADDS / (8 * 32) - 1, 32), // last shape on the naive loop
    (8, TINY_MULADDS / (8 * 32), 32),     // first shape on the blocked kernel
    (8, 56, 32),                          // the small_bucket_B1_L8 predictor shape
    (13, 17, 19),                         // partial tiles everywhere
    (16, 600, 24),                        // k crosses one KC boundary
    (33, 40, 48),
    (64, 96, 80),
    (0, 8, 8),
    (8, 0, 8), // k == 0: epilogue on a zero accumulator
    (8, 8, 0),
];

#[test]
fn active_tier_matches_scalar_across_variants() {
    let tiers = supported_tiers();
    let bias_store = fill(128, 4.2);
    for &(m, k, n) in SHAPES {
        for ta in [false, true] {
            for tb in [false, true] {
                for acc in [false, true] {
                    for scale in [None, Some(0.125f32), Some(0.577)] {
                        // The epilogue (scale/bias/act) only applies on
                        // non-accumulating stores.
                        if acc && scale.is_some() {
                            continue;
                        }
                        for (bias, act) in [
                            (None, Activation::Identity),
                            (Some(&bias_store[..n]), Activation::Identity),
                            (Some(&bias_store[..n]), Activation::Relu),
                            (None, Activation::Tanh),
                        ] {
                            if acc && (bias.is_some() || act != Activation::Identity) {
                                continue;
                            }
                            let want =
                                run(SimdTier::Scalar, m, k, n, ta, tb, acc, scale, bias, act);
                            for &tier in &tiers {
                                let got = run(tier, m, k, n, ta, tb, acc, scale, bias, act);
                                assert_bits_equal(
                                    &got,
                                    &want,
                                    &format!(
                                        "{} m={m} k={k} n={n} ta={ta} tb={tb} acc={acc} \
                                         scale={scale:?} bias={} act={act:?}",
                                        tier.name(),
                                        bias.is_some()
                                    ),
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn prepacked_matches_scalar_oracle() {
    for tier in supported_tiers() {
        for &(m, k, n) in SHAPES {
            if k == 0 || n == 0 {
                continue; // PackedB requires a non-empty [k, n]
            }
            let a = fill(m * k, 0.9);
            let b = fill(k * n, 3.1);
            let pb_active = PackedB::pack_for_tier(&b, k, n, tier);
            let pb_scalar = PackedB::pack_for_tier(&b, k, n, SimdTier::Scalar);
            let bias = fill(n, 5.0);
            for (biasv, act) in [
                (None, Activation::Identity),
                (Some(&bias[..]), Activation::Relu),
            ] {
                let mut got = vec![0.0f32; m * n];
                let mut want = vec![0.0f32; m * n];
                gemm_prepacked(m, &a, &pb_active, biasv, act, &mut got).unwrap();
                gemm_prepacked(m, &a, &pb_scalar, biasv, act, &mut want).unwrap();
                let what = format!("{} prepacked m={m} k={k} n={n}", tier.name());
                assert_bits_equal(&got, &want, &what);
            }
        }
    }
}

#[test]
fn forced_scalar_env_is_respected() {
    // Meaningful in the CI job that exports CDMPP_SIMD=scalar; vacuous
    // (but cheap) elsewhere — the override is latched before first use.
    if std::env::var("CDMPP_SIMD").is_ok_and(|v| v.eq_ignore_ascii_case("scalar")) {
        assert_eq!(tensor::kernel_tier_name(), "scalar");
        assert_eq!(active_tier(), SimdTier::Scalar);
    }
}

#[test]
fn misspelled_simd_tier_fails_loudly() {
    const TYPO: &str = "scalr";
    // Child mode: the parent re-ran this test under the misspelled value,
    // so reading the tier must panic.
    if std::env::var_os("CDMPP_SIMD").is_some_and(|v| v == TYPO) {
        active_tier();
        return;
    }
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "misspelled_simd_tier_fails_loudly",
            "--exact",
            "--nocapture",
            "--test-threads=1",
        ])
        .env("CDMPP_SIMD", TYPO)
        .output()
        .unwrap();
    let log = String::from_utf8_lossy(&out.stderr) + String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "CDMPP_SIMD={TYPO} must not run: {log}"
    );
    assert!(
        log.contains("invalid CDMPP_SIMD value \"scalr\"") && log.contains("`scalar`"),
        "the panic must name the variable and its accepted value: {log}"
    );
}

/// Which special value a row of `A` / a column of `B` is built to produce.
/// Row kinds: 0 ordinary, 1 all `1e-30`, 2 `+inf` in the first k slot,
/// 3 `+inf` in the first and `-inf` in the last k slot (so `k > KC` meets
/// `inf + -inf` in the write-back's own `C + tile` add). Column kinds:
/// 0 ordinary, 1 all `-1e-30`, 2 all `+1e-30` — against a kind-1 row every
/// product underflows to `-0.0` / `+0.0`, and the accumulator keeps it.
/// Column kinds are constant over `group` columns so an i8 scale group
/// never mixes magnitudes.
fn special_operands(
    m: usize,
    k: usize,
    n: usize,
    shift: usize,
    group: usize,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let col_kind = |j: usize| (j / group + shift) % 3;
    let mut a = fill(m * k, 0.3);
    for i in 0..m {
        let row = &mut a[i * k..(i + 1) * k];
        match (i + shift) % 4 {
            1 => row.fill(1e-30),
            2 => row[0] = f32::INFINITY,
            3 => {
                row[0] = f32::INFINITY;
                row[k - 1] = f32::NEG_INFINITY;
            }
            _ => {}
        }
    }
    let mut b = fill(k * n, 1.7);
    let mut bias = fill(n, 4.2);
    for j in 0..n {
        let tiny = match col_kind(j) {
            1 => -1e-30f32,
            2 => 1e-30,
            _ => continue,
        };
        for p in 0..k {
            b[p * n + j] = tiny;
        }
        // A signed-zero bias keeps the zero's sign alive up to the ReLU.
        bias[j] = tiny * 0.0;
    }
    (a, b, bias)
}

/// Tallies which special values a buffer holds: `[-0.0, +0.0, NaN, +inf, -inf]`.
fn tally(seen: &mut [bool; 5], vals: &[f32]) {
    for v in vals {
        match v.to_bits() {
            0x8000_0000 => seen[0] = true,
            0 => seen[1] = true,
            _ if v.is_nan() => seen[2] = true,
            _ if *v == f32::INFINITY => seen[3] = true,
            _ if *v == f32::NEG_INFINITY => seen[4] = true,
            _ => {}
        }
    }
}

/// The write-back oracle: every path whose epilogue a SIMD tier may
/// finish in vector registers — naive, blocked over packed `A` (forced by
/// `ta`), blocked over direct `A`, prepacked f32, prepacked i8 — is
/// compared bit for bit with the scalar tier on every supported tier,
/// the scalar tier's per-element
/// `Epilogue::apply` defines the answer (`v.max(0.0)` included: if a vector
/// `max` ever disagrees on `NaN` / `-0.0`, the override is what changes).
/// Widths cover full 16- and 8-column groups, several full tiles and every
/// ragged remainder; rows cross the `MC` = 128 row-block edge (127 ends in
/// a 1-row strip, 134 starts a second block); `k = 600` crosses a `KC`
/// boundary, so the accumulate-then-epilogue branch runs too. The
/// prepacked entry points take no `scale` or `acc`, so those cases run
/// through the generic dispatch only.
///
/// The third family reads its operands in place: transposed `A`
/// (`dW = Aᵀ·dY`, strips read at the view's stride, a ragged last strip
/// packed) and transposed `B` (`dx = dY·Wᵀ`, packed a column at a time),
/// with rows around `MR` and across `MC`, `k` from 1 to across `KC`. Its
/// plain and accumulating products also run through the entry points the
/// compiled training step calls, `gemm_t_slices` and `bmm_slices` /
/// `bmm_acc_slices` (two matrices a batch), on the active tier, and must
/// land on the scalar tier's bits.
#[test]
fn vector_write_back_matches_scalar_epilogue() {
    let tiers = supported_tiers();
    let mut seen = [[false; 5]; 3];
    let mut shapes = Vec::new();
    for (ks, ms, ns) in [
        // Short strips at every ragged width.
        (
            &[32usize, 320, 600][..],
            &[1usize, 5, 6, 7, 13][..],
            &[1usize, 7, 8, 9, 15, 16, 17, 24, 33][..],
        ),
        // Row counts across the `MC` row-block edge at full-tile widths.
        (&[32, 600], &[127, 128, 129, 134], &[8, 16, 24, 32, 96]),
        // Operands read in place, transposed either side.
        (&[1, 48, 513], &[1, 5, 6, 7, 127, 134], &[8, 16, 24, 96]),
    ] {
        let in_place = ks[0] == 1;
        for &k in ks {
            for &m in ms {
                for &n in ns {
                    shapes.push((m, k, n, in_place));
                }
            }
        }
    }
    for (m, k, n, in_place) in shapes {
        let shift = m + n + k / 300;
        let (a, b, bias) = special_operands(m, k, n, shift, 1);
        let at: Vec<f32> = (0..k * m).map(|e| a[(e % m) * k + e / m]).collect();
        let bt: Vec<f32> = (0..n * k).map(|e| b[(e % k) * n + e / k]).collect();
        let (qa, qb, qbias) = special_operands(m, k, n, shift, QUANT_GROUP);
        // (scale, acc, bias, activation)
        let cases = [
            (None, false, false, Activation::Identity),
            (None, false, true, Activation::Identity),
            (None, false, true, Activation::Relu),
            (Some(0.577f32), false, false, Activation::Identity),
            (Some(0.577), false, true, Activation::Relu),
            (None, false, false, Activation::Tanh),
            (None, false, true, Activation::Sigmoid),
            (None, true, false, Activation::Identity),
        ];
        for (ci, (scale, acc, with_bias, act)) in cases.into_iter().enumerate() {
            let plain = scale.is_none() && !with_bias && act == Activation::Identity;
            if in_place && !plain {
                continue;
            }
            let what =
                format!("m={m} k={k} n={n} scale={scale:?} acc={acc} bias={with_bias} {act:?}");
            let start = || {
                if acc {
                    fill(m * n, 2.9)
                } else {
                    vec![f32::NAN; m * n]
                }
            };
            let generic = |t: SimdTier, (av, ta): (&[f32], bool), (bv, tb): (&[f32], bool)| {
                let mut out = start();
                let bias = with_bias.then_some(&bias[..]);
                gemm_slices_with_tier(t, m, k, n, av, ta, bv, tb, acc, scale, bias, act, &mut out);
                out
            };
            let bs: &[(&[f32], bool)] = if in_place {
                &[(&b, false), (&bt, true)]
            } else {
                &[(&b, false)]
            };
            for &(av, ta) in &[(&a[..], false), (&at[..], true)] {
                for &(bv, tb) in bs {
                    let what = format!("ta={ta} tb={tb} {what}");
                    let want = generic(SimdTier::Scalar, (av, ta), (bv, tb));
                    for &tier in &tiers {
                        let what = format!("{} {what}", tier.name());
                        assert_bits_equal(&generic(tier, (av, ta), (bv, tb)), &want, &what);
                    }
                    if ci == 0 && !tb {
                        tally(&mut seen[0], &want);
                    }
                    if !in_place {
                        continue;
                    }
                    let mut out = start();
                    gemm_t_slices(m, k, n, av, ta, bv, tb, acc, &mut out).unwrap();
                    assert_bits_equal(&out, &want, &format!("gemm_t_slices {what}"));
                    let two = |x: &[f32]| [x, x].concat();
                    let (a2, b2) = (two(av), two(bv));
                    let mut out = two(&start());
                    if acc {
                        bmm_acc_slices(2, m, k, n, &a2, ta, &b2, tb, &mut out).unwrap();
                    } else {
                        bmm_slices(2, m, k, n, &a2, ta, &b2, tb, &mut out).unwrap();
                    }
                    assert_bits_equal(&out, &two(&want), &format!("bmm {what}"));
                }
            }
            if in_place {
                continue;
            }
            if scale.is_some() || acc {
                continue;
            }
            let pre = |t: SimdTier| {
                let mut out = vec![f32::NAN; m * n];
                let pb = PackedB::pack_for_tier(&b, k, n, t);
                let bv = with_bias.then_some(&bias[..]);
                gemm_prepacked(m, &a, &pb, bv, act, &mut out).unwrap();
                out
            };
            let want = pre(SimdTier::Scalar);
            for &tier in &tiers {
                let what = format!("{} prepacked {what}", tier.name());
                assert_bits_equal(&pre(tier), &want, &what);
            }
            if ci == 0 {
                tally(&mut seen[1], &want);
            }
            let q = QuantizedMatrix::quantize(&qb, k, n);
            let quant = |t: SimdTier| {
                let mut out = vec![f32::NAN; m * n];
                let pb = QuantizedPackedB::pack_for_tier(&q, t);
                let bv = with_bias.then_some(&qbias[..]);
                gemm_prepacked_quant(m, &qa, &pb, bv, act, &mut out).unwrap();
                out
            };
            let want = quant(SimdTier::Scalar);
            for &tier in &tiers {
                let what = format!("{} i8 {what}", tier.name());
                assert_bits_equal(&quant(tier), &want, &what);
            }
            if ci == 0 {
                tally(&mut seen[2], &want);
            }
        }
    }
    // The operands did what they were built for: every path's plain
    // outputs (the values its epilogues then consume) held all five.
    for (path, s) in ["generic", "prepacked", "i8"].iter().zip(seen) {
        assert_eq!(
            s, [true; 5],
            "{path}: [-0.0, +0.0, NaN, +inf, -inf] reached the write-back"
        );
    }
}

/// Shapes for the fused-attention oracle, `(b, h, l, dh)`. The `avx512f`
/// tier runs sixteen (sample, head, query) rows to a vector, whole
/// (sample, head) groups of `l` rows to a block, so the list covers its
/// block geometry: the serving shapes (`h = 2`, `dh = 16`, `l` 2–4, with
/// ragged last blocks at every `b`), `l = 16` (one group a block), `l` 5
/// and 9 (dead lanes past the last group), and heads that are not whole
/// vectors or span several (`dh` 17, 40, 64).
const ATTENTION_SHAPES: &[(usize, usize, usize, usize)] = &[
    (1, 1, 1, 1),
    (2, 2, 8, 16),
    (3, 4, 5, 8),
    (1, 2, 11, 40),
    (1, 2, 2, 16),
    (7, 2, 2, 16),
    (13, 2, 2, 16),
    (24, 2, 2, 16),
    (1, 2, 3, 16),
    (7, 2, 3, 16),
    (13, 2, 3, 16),
    (24, 2, 3, 16),
    (1, 2, 4, 16),
    (7, 2, 4, 16),
    (13, 2, 4, 16),
    (24, 2, 4, 16),
    (2, 2, 16, 16),
    (3, 2, 5, 16),
    (2, 3, 9, 16),
    (5, 2, 3, 17),
    (7, 1, 3, 40),
    (3, 2, 4, 64),
    (2, 1, 7, 64),
];

/// A fused `[b·l, 3d]` `Q | K | V` projection, with `special` (when given)
/// written into the first row's first query head and into the last row's
/// last query head and first key element (the last lane block), and a
/// `-0.0` value in each of those rows.
fn attention_operands(b: usize, h: usize, l: usize, dh: usize, special: Option<f32>) -> Vec<f32> {
    let d = h * dh;
    let rs = 3 * d;
    let mut qkv = fill(b * l * rs, 0.7);
    if let Some(v) = special {
        let last = (b * l - 1) * rs;
        qkv[..dh].fill(v);
        qkv[last + (h - 1) * dh..last + d].fill(v);
        qkv[last + d] = v;
        qkv[2 * d] = -0.0;
        qkv[last + 2 * d + d - 1] = -0.0;
    }
    qkv
}

#[test]
fn fused_attention_matches_scalar_oracle() {
    // One body per tier, like the naive GEMM loop: the scalar compile is
    // the oracle for every other tier's. Heads read out of one fused
    // `[rows, 3d]` projection (row stride past the heads); a score row of
    // all-equal values, `-0.0` operands, and rows driven to ±inf, NaN and
    // 1e30, in the first and the last lane block. The training forward
    // (which also writes `P`) runs at the same shapes over dense operands.
    let tiers = supported_tiers();
    for &(b, h, l, dh) in ATTENTION_SHAPES {
        let d = h * dh;
        for special in [
            None,
            Some(0.0f32),
            Some(-0.0),
            Some(f32::INFINITY),
            Some(f32::NEG_INFINITY),
            Some(f32::NAN),
            Some(1e30),
        ] {
            let qkv = attention_operands(b, h, l, dh, special);
            // Column block `c` (0 = Q, 1 = K, 2 = V) as a dense `[b·l, d]`.
            let dense = |c: usize| -> Vec<f32> {
                qkv.chunks(3 * d)
                    .flat_map(|r| r[c * d..(c + 1) * d].to_vec())
                    .collect()
            };
            let (q, k, v) = (dense(0), dense(1), dense(2));
            for scale in [None, Some(0.25f32)] {
                let run = |tier: SimdTier| {
                    let mut out = vec![f32::NAN; b * l * d];
                    tensor::attention_slices_with_tier(
                        tier,
                        b,
                        h,
                        l,
                        dh,
                        &qkv,
                        &qkv[d..],
                        &qkv[2 * d..],
                        3 * d,
                        scale,
                        &mut out,
                    )
                    .unwrap();
                    let mut train = vec![f32::NAN; b * l * d];
                    let mut p = vec![f32::NAN; b * h * l * l];
                    tensor::attention_train_slices_with_tier(
                        tier, b, h, l, dh, &q, &k, &v, scale, &mut train, &mut p,
                    )
                    .unwrap();
                    [out, train, p]
                };
                let want = run(SimdTier::Scalar);
                for &tier in &tiers {
                    let got = run(tier);
                    for (name, (got, want)) in ["out", "train out", "probs"]
                        .iter()
                        .zip(got.iter().zip(&want))
                    {
                        assert_bits_equal(
                            got,
                            want,
                            &format!(
                                "{} attention {name} b={b} h={h} l={l} dh={dh} \
                                 scale={scale:?} special={special:?}",
                                tier.name()
                            ),
                        );
                    }
                }
            }
        }
    }
    // The compiled training step's pair at the predictor's sequence lengths
    // and head width: the forward that keeps `P`, and the backward from it.
    for l in 1..=8 {
        let (b, h, dh) = (3usize, 2usize, 16usize);
        let n = b * l * h * dh;
        for special in [None, Some(-0.0f32), Some(f32::INFINITY), Some(f32::NAN)] {
            let (mut q, k, mut v, g) = (fill(n, 0.7), fill(n, 1.3), fill(n, 2.9), fill(n, 0.4));
            if let Some(x) = special {
                q[..dh].fill(x);
                v[dh] = -0.0;
            }
            for scale in [None, Some(0.25f32)] {
                let run = |tier: SimdTier| {
                    let mut out = vec![f32::NAN; n];
                    let mut p = vec![f32::NAN; b * h * l * l];
                    tensor::attention_train_slices_with_tier(
                        tier, b, h, l, dh, &q, &k, &v, scale, &mut out, &mut p,
                    )
                    .unwrap();
                    let mut grads = [vec![f32::NAN; n], vec![f32::NAN; n], vec![f32::NAN; n]];
                    let [dq, dk, dv] = &mut grads;
                    tensor::attention_bwd_slices_with_tier(
                        tier, b, h, l, dh, &q, &k, &v, &p, &g, scale, dq, dk, dv,
                    )
                    .unwrap();
                    let [dq, dk, dv] = grads;
                    [out, p, dq, dk, dv]
                };
                let want = run(SimdTier::Scalar);
                for &tier in &tiers {
                    let got = run(tier);
                    for (name, (got, want)) in ["out", "probs", "dq", "dk", "dv"]
                        .iter()
                        .zip(got.iter().zip(&want))
                    {
                        let what = format!(
                            "{} training attention {name} l={l} special={special:?}",
                            tier.name()
                        );
                        assert_bits_equal(got, want, &what);
                    }
                }
            }
        }
    }
}

/// Rows for the layer-norm oracle: a wave, with every eleventh-row pattern
/// a reordered chain would change the bits of — a constant row (variance
/// 0), all `+0`, all `-0`, mixed `±0`, one `NaN`, one `±inf`, and `±1e30`
/// (whose squares overflow the variance).
fn norm_rows(rows: usize, d: usize, seed: f32) -> Vec<f32> {
    let mut x = fill(rows * d, seed);
    for (r, row) in x.chunks_mut(d).enumerate() {
        match r % 11 {
            1 => row.fill(0.75),
            3 => row.fill(0.0),
            4 => row.fill(-0.0),
            5 => row.iter_mut().step_by(2).for_each(|v| *v = -0.0),
            6 => row[d / 2] = f32::NAN,
            7 => row[d - 1] = f32::INFINITY,
            8 => row[0] = f32::NEG_INFINITY,
            9 => row.iter_mut().step_by(3).for_each(|v| *v = 1e30),
            10 => row.iter_mut().skip(1).step_by(2).for_each(|v| *v = -1e30),
            _ => {}
        }
    }
    x
}

/// `v` with every `NaN` made `f32::NAN`. When both operands of an add or
/// a multiply are `NaN`, which one the result carries depends on the
/// operand order the compiler picks for a commutative operation, so a
/// `NaN`'s sign and payload are not part of the layer norm's definition
/// (in a column accumulator, one row's `NaN` meets another's).
fn canonical_nan(v: &[f32]) -> Vec<f32> {
    v.iter()
        .map(|&x| if x.is_nan() { f32::NAN } else { x })
        .collect()
}

#[test]
fn layer_norm_matches_scalar_oracle() {
    // Every row count up to two lane blocks and one past, then a large
    // one; widths around every vector and the lanes form's 64-column
    // tile. Forward in place and out of place; backward onto non-zero
    // column accumulators.
    let tiers = supported_tiers();
    let eps = 1e-5f32;
    for d in [1usize, 7, 8, 16, 24, 32, 33, 64, 65] {
        let gamma = fill(d, 0.9);
        let beta = fill(d, 2.2);
        for rows in (0..=33).chain([192]) {
            let x = norm_rows(rows, d, 0.3);
            let g = norm_rows(rows, d, 1.1);
            let run = |tier: SimdTier| {
                let mut out = vec![f32::NAN; rows * d];
                tensor::layer_norm_rows_with_tier(tier, Some(&x), &mut out, &gamma, &beta, d, eps);
                let mut inplace = x.clone();
                tensor::layer_norm_rows_with_tier(tier, None, &mut inplace, &gamma, &beta, d, eps);
                let mut dx = g.clone();
                let (mut dgamma, mut dbeta) = (fill(d, 0.5), fill(d, 1.5));
                tensor::layer_norm_bwd_rows_with_tier(
                    tier,
                    &x,
                    &gamma,
                    eps,
                    d,
                    &mut dx,
                    &mut dgamma,
                    &mut dbeta,
                );
                [out, inplace, dx, dgamma, dbeta]
            };
            let want = run(SimdTier::Scalar);
            for &tier in &tiers {
                let got = run(tier);
                for (name, (got, want)) in ["out", "in place", "dx", "dgamma", "dbeta"]
                    .iter()
                    .zip(got.iter().zip(&want))
                {
                    let what = format!("{} layer norm {name} rows={rows} d={d}", tier.name());
                    assert_bits_equal(&canonical_nan(got), &canonical_nan(want), &what);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_shapes_match_scalar(
        m in 1usize..40,
        k in 1usize..70,
        n in 1usize..40,
        flags in 0usize..16,
    ) {
        let (ta, tb, acc, scale_on) =
            (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0, flags & 8 != 0);
        let scale = if scale_on && !acc { Some(0.31f32) } else { None };
        let want = run(SimdTier::Scalar, m, k, n, ta, tb, acc, scale, None, Activation::Identity);
        for tier in supported_tiers() {
            let got = run(tier, m, k, n, ta, tb, acc, scale, None, Activation::Identity);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(
                    g.to_bits(), w.to_bits(), "{}: element {} of {}x{}x{}", tier.name(), i, m, k, n
                );
            }
        }
    }
}
