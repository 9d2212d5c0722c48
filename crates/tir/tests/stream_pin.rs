//! Pins the proposers' RNG streams.
//!
//! `sample_schedule`, `mutate_schedule` and `crossover_schedule` decide what
//! the dataset, the golden snapshot and every search contain. The folds
//! below were recorded before the proposers stopped carrying leaves (PR 13)
//! and must never move: a changed value means a proposer drew differently
//! from its RNG or emitted a different primitive.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tir::{crossover_schedule, mutate_schedule, sample_schedule, EwKind, OpSpec, Schedule};

fn fold(h: u64, s: &Schedule) -> u64 {
    (h ^ s.identity_hash()).wrapping_mul(0x0000_0100_0000_01b3)
}

/// One spec per operator kind, with the fold of its first 1 024 samples
/// (seed 13) and of a 256-step mutate / crossover chain (seed 14).
fn pinned() -> [(OpSpec, u64, u64); 8] {
    [
        (
            OpSpec::Dense {
                m: 128,
                n: 128,
                k: 128,
            },
            0x932b_3241_fbfa_47f3,
            0x273f_15af_1bb8_a4c2,
        ),
        (
            OpSpec::BatchMatmul {
                b: 4,
                m: 64,
                n: 64,
                k: 64,
            },
            0x7b0c_e47a_4637_4524,
            0x6acd_f2e4_055e_1e16,
        ),
        (
            OpSpec::Conv2d {
                n: 1,
                cin: 16,
                hw: 16,
                cout: 32,
                khw: 3,
                stride: 1,
            },
            0xe2c4_8c91_1fc3_d614,
            0xf072_9f5e_6cf1_063c,
        ),
        (
            OpSpec::DepthwiseConv {
                n: 1,
                c: 32,
                hw: 16,
                khw: 3,
                stride: 1,
            },
            0x05d9_8212_62ee_7e8e,
            0x1f36_1bab_cb3e_ac89,
        ),
        (
            OpSpec::Pool {
                n: 1,
                c: 16,
                hw: 32,
                khw: 2,
                stride: 2,
            },
            0xea8a_c32d_3afb_7847,
            0x9a9b_b932_f86e_42b3,
        ),
        (
            OpSpec::Softmax {
                rows: 256,
                cols: 256,
            },
            0x7fae_0e6f_52ca_edf8,
            0x8290_bd7c_3855_05cf,
        ),
        (
            OpSpec::LayerNorm {
                rows: 64,
                cols: 128,
            },
            0x9189_f7e7_ba3d_7518,
            0x0abd_d909_f5da_2d49,
        ),
        (
            OpSpec::Elementwise {
                n: 4096,
                kind: EwKind::Gelu,
            },
            0x18ab_a6ef_c1b8_f606,
            0xeb20_b3ae_f691_6066,
        ),
    ]
}

fn sample_fold(spec: &OpSpec) -> u64 {
    let nest = spec.canonical_nest();
    let mut rng = StdRng::seed_from_u64(13);
    (0..1024).fold(0u64, |h, _| fold(h, &sample_schedule(&nest, &mut rng)))
}

fn chain_fold(spec: &OpSpec) -> u64 {
    let nest = spec.canonical_nest();
    let mut rng = StdRng::seed_from_u64(14);
    let mut a = sample_schedule(&nest, &mut rng);
    let mut b = sample_schedule(&nest, &mut rng);
    let mut h = 0u64;
    for _ in 0..256 {
        let m = mutate_schedule(&nest, &a, &mut rng);
        let c = crossover_schedule(&nest, &m, &b);
        h = fold(fold(h, &m), &c);
        b = m;
        a = c;
    }
    h
}

#[test]
fn sample_stream_is_pinned() {
    let got: Vec<u64> = pinned().iter().map(|(s, ..)| sample_fold(s)).collect();
    let want: Vec<u64> = pinned().iter().map(|&(_, w, _)| w).collect();
    assert_eq!(got, want, "sample stream moved: {got:#018x?}");
}

#[test]
fn mutate_crossover_chain_is_pinned() {
    let got: Vec<u64> = pinned().iter().map(|(s, ..)| chain_fold(s)).collect();
    let want: Vec<u64> = pinned().iter().map(|&(.., w)| w).collect();
    assert_eq!(got, want, "mutate/crossover chain moved: {got:#018x?}");
}
