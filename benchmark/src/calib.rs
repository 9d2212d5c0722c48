//! Host-speed calibration.
//!
//! The sandbox this benchmark runs in is a small virtual machine on a
//! shared host: the speed of its CPUs moves between discrete levels up to
//! 2x apart, each held for a second or more, and two runs of identical
//! work differ by 15-25% in wall time. No statistic taken inside a run
//! removes that, because whole runs land on a slow level.
//!
//! So the benchmark measures the host too. Between blocks, with every
//! caller stopped, it times a fixed piece of its own work — the reference
//! pass — on as many threads as the host has CPUs, all at once: the host's
//! speed with every CPU in use, which is the state the workloads keep it
//! in. Each block's times are scaled by `REFERENCE_PASS_NS / pass time
//! around that block`: they read as they would on a host where the pass
//! takes exactly [`REFERENCE_PASS_NS`]. On an undisturbed host the scale is
//! a constant; between two commits on one host it cancels. The pass is
//! benchmark code, so no change to the program can move it. Unscaled times
//! stay in the detail line.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

/// The reference host: one pass takes this long there.
pub const REFERENCE_PASS_NS: f64 = 250_000.0;

const FLOATS: usize = 4 * 1024;
const TABLE: usize = 16 * 1024;
const FLOAT_SWEEPS: usize = 24;
const CHASES: usize = 24 * 1024;

/// The reference pass: dense f32 arithmetic the compiler can vectorize
/// (as the GEMM kernels are) plus a dependent chain of table lookups and
/// branches (as lowering, hashing and bucketing are).
struct Calibrator {
    floats: Vec<f32>,
    table: Vec<u32>,
}

impl Calibrator {
    fn new() -> Calibrator {
        let mut state = 0x9e37_79b9_u32;
        let table = (0..TABLE)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                state >> 8
            })
            .collect();
        Calibrator {
            floats: (0..FLOATS).map(|i| 1.0 + i as f32 * 1e-4).collect(),
            table,
        }
    }

    fn pass(&mut self) -> u64 {
        let mut acc = 0.0f32;
        for sweep in 0..FLOAT_SWEEPS {
            let bias = sweep as f32 * 1e-6;
            for v in self.floats.iter_mut() {
                *v = v.mul_add(0.999, bias);
                acc += *v;
            }
        }
        let mut at = acc.to_bits() as usize % TABLE;
        let mut odd = 0u64;
        for _ in 0..CHASES {
            let next = self.table[at];
            if next & 1 == 1 {
                odd += 1;
            }
            at = (next as usize ^ at.rotate_left(5)) % TABLE;
        }
        odd ^ at as u64
    }

    /// Time of one pass in nanoseconds: the median of three, so that one
    /// preemption inside the sample does not read as a slow host.
    fn sample_ns(&mut self) -> f64 {
        let mut ns = [0u64; 3];
        for slot in &mut ns {
            let t = Instant::now();
            black_box(self.pass());
            *slot = t.elapsed().as_nanos() as u64;
        }
        ns.sort_unstable();
        ns[1] as f64
    }
}

/// Samples the reference pass on every CPU of the host at once. Its helper
/// threads sleep on a barrier between samples and end with the sampler.
pub struct HostSampler {
    own: Calibrator,
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
}

struct Shared {
    barrier: Barrier,
    /// Bits of the pass time each thread last sampled.
    pass_ns: Vec<AtomicU64>,
    quit: AtomicBool,
}

impl HostSampler {
    pub fn new() -> HostSampler {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let shared = Arc::new(Shared {
            barrier: Barrier::new(cpus),
            pass_ns: (0..cpus).map(|_| AtomicU64::new(0)).collect(),
            quit: AtomicBool::new(false),
        });
        let helpers = (1..cpus)
            .map(|slot| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let mut calibrator = Calibrator::new();
                    loop {
                        shared.barrier.wait();
                        if shared.quit.load(Ordering::SeqCst) {
                            return;
                        }
                        let ns = calibrator.sample_ns();
                        shared.pass_ns[slot].store(ns.to_bits(), Ordering::SeqCst);
                        shared.barrier.wait();
                    }
                })
            })
            .collect();
        HostSampler {
            own: Calibrator::new(),
            shared,
            helpers,
        }
    }

    /// Mean pass time over all CPUs, sampled now, in nanoseconds.
    pub fn sample_ns(&mut self) -> f64 {
        self.shared.barrier.wait();
        let ns = self.own.sample_ns();
        self.shared.pass_ns[0].store(ns.to_bits(), Ordering::SeqCst);
        self.shared.barrier.wait();
        let sum: f64 = self
            .shared
            .pass_ns
            .iter()
            .map(|p| f64::from_bits(p.load(Ordering::SeqCst)))
            .sum();
        sum / self.shared.pass_ns.len() as f64
    }
}

impl Drop for HostSampler {
    fn drop(&mut self) {
        self.shared.quit.store(true, Ordering::SeqCst);
        self.shared.barrier.wait();
        for h in self.helpers.drain(..) {
            // A helper only samples; it has nothing to report.
            let _ = h.join();
        }
    }
}

/// What to multiply a time by to read it at the reference host's speed,
/// given the pass times sampled around it.
pub fn scale(pass_ns_before: f64, pass_ns_after: f64) -> f64 {
    REFERENCE_PASS_NS / ((pass_ns_before + pass_ns_after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slower_host_scales_times_down_by_as_much() {
        assert_eq!(scale(REFERENCE_PASS_NS, REFERENCE_PASS_NS), 1.0);
        assert_eq!(scale(2.0 * REFERENCE_PASS_NS, 2.0 * REFERENCE_PASS_NS), 0.5);
        assert_eq!(scale(REFERENCE_PASS_NS, 3.0 * REFERENCE_PASS_NS), 0.5);
    }

    #[test]
    fn the_pass_is_deterministic_work() {
        let (mut a, mut b) = (Calibrator::new(), Calibrator::new());
        assert_eq!(a.pass(), b.pass());
    }

    #[test]
    fn the_sampler_samples_and_ends_its_helpers() {
        let mut sampler = HostSampler::new();
        assert!(sampler.sample_ns() > 0.0);
        assert!(sampler.sample_ns() > 0.0);
        drop(sampler);
    }
}
