//! Inference values of the baselines, pinned bit for bit.
//!
//! Seeded, untrained `TiramisuModel`, `TlpModel` and `MlpRegressor` models
//! predict a few fixed programs / rows, and each answer's `to_bits` is
//! compared against a committed constant. Inference runs the same kernels
//! in the same order on every SIMD tier, so these pins hold under
//! `CDMPP_SIMD=scalar` too; a change to the eager executor, a layer's
//! forward or a kernel's arithmetic moves them. The GBT is fitted (it has
//! no kernels, only f64 histogram sums), and its pin is a hash of every
//! answer over a few hundred rows: a change to binning, split search or
//! row partitioning that moves one tree moves it.
//!
//! The `fitted_*` pins train each taped baseline (the MLP regressor,
//! Tiramisu, TLP, and Habitat's per-class regressors) for a few epochs on
//! fixed data and pin an FNV-1a hash of its predictions' bits, with what
//! `fit` returns: a change to a training loop, a loss or the optimizer
//! step moves them. The clip and Adam update are bit-identical on every
//! SIMD tier, so these hold under `CDMPP_SIMD=scalar` and in release too.

use baselines::{
    GbtConfig, GbtRegressor, HabitatModel, MlpRegConfig, MlpRegressor, TiramisuConfig,
    TiramisuModel, TlpConfig, TlpModel, TlpSample,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tir::{lower, sample_schedule, OpSpec, Schedule};

/// Fixed task specs: a dense layer, a convolution and a row softmax.
fn specs() -> [OpSpec; 3] {
    [
        OpSpec::Dense { m: 16, n: 16, k: 8 },
        OpSpec::Conv2d {
            n: 1,
            cin: 8,
            hw: 14,
            cout: 16,
            khw: 3,
            stride: 1,
        },
        OpSpec::Softmax {
            rows: 64,
            cols: 128,
        },
    ]
}

/// Per spec: the default schedule, then one sampled from a fixed seed.
fn schedules(spec: &OpSpec) -> [Schedule; 2] {
    let mut rng = StdRng::seed_from_u64(17);
    [
        Schedule::default(),
        sample_schedule(&spec.canonical_nest(), &mut rng),
    ]
}

#[test]
fn tiramisu_predictions_are_pinned() {
    let model = TiramisuModel::new(TiramisuConfig {
        seed: 5,
        ..Default::default()
    });
    let got: Vec<u64> = specs()
        .iter()
        .flat_map(|spec| {
            schedules(spec).map(|s| {
                let prog = lower(&spec.canonical_nest(), &s).expect("sampled schedules lower");
                model.predict(&prog).to_bits()
            })
        })
        .collect();
    assert_eq!(got, TIRAMISU, "{got:#x?}");
}

#[test]
fn tlp_relative_predictions_are_pinned() {
    let model = TlpModel::new(
        &["T4".into(), "CPU".into()],
        TlpConfig {
            seed: 9,
            ..Default::default()
        },
    );
    let mut got = Vec::new();
    for dev in ["T4", "CPU"] {
        for spec in specs() {
            for s in schedules(&spec) {
                let rel = model.predict_relative(&spec, &s, dev);
                got.push(rel.expect("device has a head").to_bits());
            }
        }
    }
    assert_eq!(got, TLP, "{got:#x?}");
}

#[test]
fn mlpreg_predictions_are_pinned() {
    let model = MlpRegressor::new(
        5,
        MlpRegConfig {
            seed: 13,
            ..Default::default()
        },
    );
    let rows: Vec<Vec<f32>> = (0..6)
        .map(|r| (0..5).map(|c| ((r * 5 + c) as f32 * 0.37).sin()).collect())
        .collect();
    let batched: Vec<u32> = model.predict(&rows).iter().map(|v| v.to_bits()).collect();
    assert_eq!(batched, MLPREG, "{batched:#x?}");
    // One row at a time: a batch of one runs other GEMM shapes, same values.
    let single: Vec<u32> = rows
        .iter()
        .map(|r| model.predict(std::slice::from_ref(r))[0].to_bits())
        .collect();
    assert_eq!(single, MLPREG, "{single:#x?}");
}

#[test]
fn gbt_predictions_are_pinned() {
    // 400 rows of 12 features: smooth, stepped and constant columns, and a
    // target with interactions, so trees split on several features.
    let xs: Vec<Vec<f32>> = (0..400)
        .map(|r| {
            (0..12)
                .map(|c| match c % 4 {
                    0 => ((r * 12 + c) as f32 * 0.137).sin(),
                    1 => ((r * 7 + c * 3) % 23) as f32,
                    2 => (r as f32 * 0.01 + c as f32).ln(),
                    _ => 1.5,
                })
                .collect()
        })
        .collect();
    let ys: Vec<f32> = xs
        .iter()
        .map(|x| x[0] * x[1] - 0.3 * x[2] + (x[4] * 0.2).cos() * x[5])
        .collect();
    let model = GbtRegressor::fit(&xs, &ys, GbtConfig::default());
    // FNV-1a over every answer's bits.
    let hash = model
        .predict_batch(&xs)
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
        });
    assert_eq!(hash, GBT_HASH, "{hash:#x}");
}

/// FNV-1a over a sequence of answers' bits.
fn fnv1a(bits: impl IntoIterator<Item = u64>) -> u64 {
    bits.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `n` schedules sampled for a dense layer from a fixed seed, with a
/// latency (seconds) that falls as the schedule gains primitives.
fn dense_schedules(n: usize) -> Vec<(OpSpec, Schedule, f64)> {
    let spec = OpSpec::Dense {
        m: 32,
        n: 32,
        k: 16,
    };
    let mut rng = StdRng::seed_from_u64(23);
    (0..n)
        .map(|_| {
            let s = sample_schedule(&spec.canonical_nest(), &mut rng);
            let y = 1e-4 * (12.0 - s.primitives.len() as f64).max(1.0);
            (spec, s, y)
        })
        .collect()
}

#[test]
fn fitted_mlpreg_are_pinned() {
    let mut model = MlpRegressor::new(
        5,
        MlpRegConfig {
            hidden: vec![16, 16],
            epochs: 3,
            batch: 8,
            seed: 13,
            ..Default::default()
        },
    );
    let rows: Vec<Vec<f32>> = (0..40)
        .map(|r| (0..5).map(|c| ((r * 5 + c) as f32 * 0.37).sin()).collect())
        .collect();
    let ys: Vec<f32> = rows.iter().map(|x| x[0] * x[1] - 0.5 * x[3]).collect();
    let loss = model.fit(&rows, &ys);
    let hash = fnv1a(model.predict(&rows).iter().map(|v| u64::from(v.to_bits())));
    assert_eq!(
        (hash, loss.to_bits()),
        FITTED_MLPREG,
        "{hash:#x} {:#x}",
        loss.to_bits()
    );
}

#[test]
fn fitted_tiramisu_are_pinned() {
    let data = dense_schedules(8);
    let progs: Vec<_> = data
        .iter()
        .map(|(spec, s, _)| lower(&spec.canonical_nest(), s).expect("sampled schedules lower"))
        .collect();
    let refs: Vec<_> = progs.iter().collect();
    let labels_ms: Vec<f64> = data.iter().map(|d| d.2 * 1e3).collect();
    let mut model = TiramisuModel::new(TiramisuConfig {
        epochs: 2,
        seed: 5,
        ..Default::default()
    });
    let processed = model.fit(&refs, &labels_ms);
    let hash = fnv1a(progs.iter().map(|p| model.predict(p).to_bits()));
    assert_eq!((hash, processed), FITTED_TIRAMISU, "{hash:#x} {processed}");
}

#[test]
fn fitted_tlp_are_pinned() {
    let devices = ["T4".to_string(), "CPU".to_string()];
    let samples: Vec<TlpSample> = devices
        .iter()
        .zip([1.0, 30.0])
        .flat_map(|(dev, scale)| {
            dense_schedules(24)
                .into_iter()
                .map(move |(spec, schedule, y)| TlpSample {
                    spec,
                    task_id: 0,
                    schedule,
                    device: dev.clone(),
                    latency_s: y * scale,
                })
        })
        .collect();
    let mut model = TlpModel::new(
        &devices,
        TlpConfig {
            hidden: 16,
            epochs: 3,
            batch: 8,
            seed: 9,
            ..Default::default()
        },
    );
    model.fit(&samples);
    let hash = fnv1a(devices.iter().flat_map(|dev| {
        samples.iter().take(24).map(|s| {
            let rel = model.predict_relative(&s.spec, &s.schedule, dev);
            rel.expect("device has a head").to_bits()
        })
    }));
    assert_eq!(hash, FITTED_TLP, "{hash:#x}");
}

#[test]
fn fitted_habitat_are_pinned() {
    let samples: Vec<(OpSpec, f64)> = (1..=12u64)
        .flat_map(|i| {
            let dense = OpSpec::Dense {
                m: 8 * i,
                n: 8 * i,
                k: 4 * i,
            };
            let softmax = OpSpec::Softmax {
                rows: 16 * i,
                cols: 64,
            };
            [dense, softmax].map(|s| (s, s.flops() * 1e-10 + 1e-6))
        })
        .collect();
    let mut model = HabitatModel::new(MlpRegConfig {
        hidden: vec![16, 16],
        epochs: 3,
        batch: 8,
        seed: 3,
        ..Default::default()
    });
    model.fit(&samples);
    let hash = fnv1a(
        samples
            .iter()
            .map(|(spec, _)| model.predict(spec).expect("class was fitted").to_bits()),
    );
    assert_eq!(hash, FITTED_HABITAT, "{hash:#x}");
}

/// Per spec, default then sampled schedule.
const TIRAMISU: [u64; 6] = [
    0x3feeaeafc0000000,
    0x3fef2d7e60000000,
    0x3ff0209a60000000,
    0x3ff070fa40000000,
    0x3feea1c240000000,
    0x3feea53c60000000,
];

/// The T4 head over every (spec, schedule), then the CPU head.
const TLP: [u64; 12] = [
    0xbff6f8b620000000,
    0xbffb2756e0000000,
    0xbffcc26ea0000000,
    0xc00146d260000000,
    0xc0030f0120000000,
    0xc00ba1f9e0000000,
    0xbfe6454360000000,
    0xbfeb0d80a0000000,
    0xbf8f3ad280000000,
    0xbfecbf80c0000000,
    0xbffc4c1ee0000000,
    0xc007416e20000000,
];

const MLPREG: [u32; 6] = [
    0xbec0aee2, 0xbcd49c4d, 0xbec7e5e2, 0xbe394548, 0xbe11b0f7, 0xbea9d0e0,
];

/// FNV-1a over `predict_batch`'s bits for the 400 fitted rows.
const GBT_HASH: u64 = 0xd541_db44_8fb8_2450;

/// FNV-1a over the fitted rows' predictions, and the loss `fit` returned.
const FITTED_MLPREG: (u64, u32) = (0x362c_7222_489d_80b9, 0x3eab_3006);

/// FNV-1a over the fitted programs' predictions, and `fit`'s sample count.
const FITTED_TIRAMISU: (u64, usize) = (0x8f6d_ffd4_c81a_39c5, 16);

/// FNV-1a over the T4 head on the 24 schedules, then the CPU head.
const FITTED_TLP: u64 = 0xe5d6_f049_7cd8_d6e5;

/// FNV-1a over the fitted Dense and Softmax specs' predictions.
const FITTED_HABITAT: u64 = 0x5bb2_27ab_6241_b48e;
