//! Layer probes that need no workload state: GEMM entry points at the
//! shapes the model runs them at, and the process's peak memory.
//!
//! GEMM rates are computed from the shapes (2·m·k·n flops per call), not
//! counted by hardware.

use std::hint::black_box;
use std::time::Duration;

use super::time_per_item;
use tensor::{gemm_prepacked, matmul_into, matmul_t_into, Activation, PackedB, Tensor};

const PROBE: Duration = Duration::from_millis(60);

/// Nanoseconds per call of `f`, over at least [`PROBE`] of wall time.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    for _ in 0..8 {
        f();
    }
    time_per_item(&[(); 32], PROBE, |()| f())
}

fn ramp(len: usize, step: f32) -> Vec<f32> {
    (0..len).map(|i| (i as f32 * step).sin()).collect()
}

fn gflops(m: usize, k: usize, n: usize, ns: f64) -> f64 {
    2.0 * (m * k * n) as f64 / ns
}

/// `tensor::gemm_prepacked` on `[m,k] x [k,n]` with a bias and ReLU, as a
/// specialized plan's weight GEMM runs it.
pub fn prepacked_ns(m: usize, k: usize, n: usize) -> f64 {
    let a = ramp(m * k, 0.37);
    let packed = PackedB::pack(&ramp(k * n, 0.11), k, n);
    let bias = ramp(n, 0.5);
    let mut out = vec![0.0f32; m * n];
    ns_per_call(|| {
        gemm_prepacked(
            m,
            black_box(&a),
            &packed,
            Some(&bias),
            Activation::Relu,
            &mut out,
        )
        .expect("probe shapes agree");
        black_box(&out);
    })
}

pub fn prepacked_gflops(m: usize, k: usize, n: usize) -> f64 {
    gflops(m, k, n, prepacked_ns(m, k, n))
}

/// `tensor::matmul_into` (non-prepacked, the tape's forward GEMM).
pub fn matmul_gflops(m: usize, k: usize, n: usize) -> f64 {
    let a = Tensor::from_vec(ramp(m * k, 0.37), &[m, k]).expect("shape");
    let b = Tensor::from_vec(ramp(k * n, 0.11), &[k, n]).expect("shape");
    let mut out = Vec::new();
    let ns = ns_per_call(|| {
        matmul_into(black_box(&a), black_box(&b), &mut out).expect("probe shapes agree");
        black_box(&out);
    });
    gflops(m, k, n, ns)
}

/// `tensor::matmul_t_into` as the backward pass runs it: `dB = A^T · dC`
/// with `A` `[rows, m]` and `dC` `[rows, n]`.
pub fn matmul_t_gflops(rows: usize, m: usize, n: usize) -> f64 {
    let a = Tensor::from_vec(ramp(rows * m, 0.37), &[rows, m]).expect("shape");
    let dc = Tensor::from_vec(ramp(rows * n, 0.11), &[rows, n]).expect("shape");
    let mut out = Vec::new();
    let ns = ns_per_call(|| {
        matmul_t_into(black_box(&a), true, black_box(&dc), false, &mut out)
            .expect("probe shapes agree");
        black_box(&out);
    });
    gflops(m, rows, n, ns)
}

/// `VmHWM` of this process in MB (0 where `/proc` does not say).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
