//! GEMM kernel sweep over predictor-relevant shapes, plus the
//! training-step and engine-throughput deltas the kernels buy.
//!
//! Two outputs:
//!
//! * criterion-style console timings (`cargo bench -p bench --bench gemm`),
//! * a machine-readable `BENCH_gemm.json` at the workspace root (override
//!   the path with the `BENCH_GEMM_JSON` env var) recording
//!   naive-vs-blocked GEMM timings per shape (plain and with the fused
//!   bias / bias+ReLU epilogues plans run) and serial-vs-parallel
//!   training-step timings, for the repo's perf trajectory.
//!
//! The "naive" baseline is a faithful replica of the seed's ikj
//! `mm_kernel` (transposed-B dot-product form included), so speedups are
//! measured against exactly what the blocked kernel replaced.

use cdmpp_core::batch::FeatScaler;
use cdmpp_core::{
    encode_programs, encode_records, make_batches, train_step, train_step_parallel, Batch,
    LossKind, Predictor, PredictorConfig, TrainConfig, TrainedModel,
};
use criterion::{criterion_group, criterion_main, Criterion};
use dataset::{Dataset, GenConfig};
use nn::Adam;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;
use tensor::Tensor;

/// The seed's `matmul_into` (buffer contract included: `clear` + zeroed
/// `resize`, then the ikj kernel), kept verbatim as the measurement
/// baseline so naive-vs-blocked timings compare kernels, not allocators —
/// both sides reuse a hoisted output buffer.
fn naive_matmul_into(a: &Tensor, b: &Tensor, out: &mut Vec<f32>) {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let n = b.shape()[1];
    out.clear();
    out.resize(m * n, 0.0);
    for i in 0..m {
        let arow = &a.data()[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &b.data()[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// A replica of the pre-SIMD blocked kernel: same GOTO loop nest and
/// packing (KC=512 / MC=128, 4×8 register tile) but a plain `+ a*b`
/// accumulation the compiler autovectorizes — exactly what the explicit
/// SIMD micro-kernels replaced. `simd_vs_autovec` in the JSON is measured
/// against this, so the speedup isolates the micro-kernel change from the
/// blocking/packing wins of earlier PRs.
fn autovec_matmul_into(a: &Tensor, b: &Tensor, out: &mut Vec<f32>) {
    const KC: usize = 512;
    const MC: usize = 128;
    const MR: usize = 4;
    const NR: usize = 8;
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let n = b.shape()[1];
    out.clear();
    out.resize(m * n, 0.0);
    let (ad, bd) = (a.data(), b.data());
    let mut bpack = vec![0.0f32; KC * n.next_multiple_of(NR)];
    let mut apack = vec![0.0f32; MC * KC];
    let mut pc = 0;
    while pc < k {
        let kc = KC.min(k - pc);
        let slabs = n.div_ceil(NR);
        for s in 0..slabs {
            let j0 = s * NR;
            let w = NR.min(n - j0);
            for p in 0..kc {
                let dst = &mut bpack[(s * KC + p) * NR..(s * KC + p + 1) * NR];
                let src = &bd[(pc + p) * n + j0..(pc + p) * n + j0 + w];
                dst[..w].copy_from_slice(src);
                dst[w..].fill(0.0);
            }
        }
        let mut ic = 0;
        while ic < m {
            let mc = MC.min(m - ic);
            for r0 in (0..mc).step_by(MR) {
                let h = MR.min(mc - r0);
                for p in 0..kc {
                    for r in 0..MR {
                        apack[(r0 / MR * KC + p) * MR + r] = if r < h {
                            ad[(ic + r0 + r) * k + pc + p]
                        } else {
                            0.0
                        };
                    }
                }
            }
            for r0 in (0..mc).step_by(MR) {
                let h = MR.min(mc - r0);
                let astrip = &apack[r0 / MR * KC * MR..];
                for s in 0..slabs {
                    let j0 = s * NR;
                    let w = NR.min(n - j0);
                    let bslab = &bpack[s * KC * NR..];
                    let mut acc = [[0.0f32; NR]; MR];
                    for p in 0..kc {
                        let brow = &bslab[p * NR..(p + 1) * NR];
                        for (r, accr) in acc.iter_mut().enumerate() {
                            let av = astrip[p * MR + r];
                            for (o, &bv) in accr.iter_mut().zip(brow.iter()) {
                                *o += av * bv;
                            }
                        }
                    }
                    for r in 0..h {
                        let crow = &mut out[(ic + r0 + r) * n + j0..(ic + r0 + r) * n + j0 + w];
                        if pc == 0 {
                            crow.copy_from_slice(&acc[r][..w]);
                        } else {
                            for (o, &v) in crow.iter_mut().zip(acc[r].iter()) {
                                *o += v;
                            }
                        }
                    }
                }
            }
            ic += mc;
        }
        pc += kc;
    }
}

/// Predictor-relevant GEMM shapes `(m, k, n, label)`: a 64-sample batch at
/// 8 leaves flowing through input projection, encoder linears,
/// feed-forward, leaf embedding, and decoder — plus a single-sample bucket.
const SHAPES: &[(usize, usize, usize, &str)] = &[
    (512, 56, 32, "input_proj_B64_L8"),
    (512, 48, 48, "attn_proj_d48"),
    (512, 48, 96, "ffn_up_d48"),
    (512, 96, 48, "ffn_down_d48"),
    (64, 384, 32, "leaf_embed_L8_d48"),
    (64, 256, 24, "leaf_embed_L8_d32"),
    (64, 32, 32, "decoder_hidden"),
    (8, 56, 32, "small_bucket_B1_L8"),
];

fn mk(m: usize, k: usize, phase: f32) -> Tensor {
    Tensor::from_fn(&[m, k], |i| ((i as f32) * 0.173 + phase).sin())
}

/// Median wall time (ns) of `f`, auto-calibrated to ~`budget_ms` total.
fn median_ns(budget_ms: u64, mut f: impl FnMut()) -> f64 {
    // Calibrate an iteration count that takes ~1/10 of the budget.
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let el = t.elapsed();
        if el.as_millis() as u64 >= budget_ms / 10 || iters > 1 << 24 {
            break;
        }
        iters *= 2;
    }
    let mut samples: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

fn training_fixture() -> (Batch, Vec<f32>) {
    let ds = Dataset::generate_with_networks(
        GenConfig {
            batch: 1,
            schedules_per_task: 4,
            devices: vec![devsim::t4()],
            seed: 1,
            noise_sigma: 0.0,
        },
        vec![tir::zoo::bert_tiny(1), tir::zoo::mlp_mixer(1)],
    );
    let idx = ds.device_records("T4");
    let enc = encode_records(&ds, &idx, features::DEFAULT_THETA, true);
    let mut rng = StdRng::seed_from_u64(2);
    let batches = make_batches(&enc, 64, &mut rng);
    let batch = batches
        .iter()
        .max_by_key(|b| b.record_idx.len())
        .expect("non-empty")
        .clone();
    let y: Vec<f32> = batch.y_raw.iter().map(|&v| (v * 1e3) as f32).collect();
    (batch, y)
}

fn bench_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm");
    g.sample_size(15);
    for &(m, k, n, label) in SHAPES {
        let a = mk(m, k, 0.0);
        let b = mk(k, n, 1.0);
        g.throughput(criterion::Throughput::Elements((m * k * n) as u64));
        let mut nbuf = Vec::new();
        g.bench_function(&format!("naive/{label}"), |bch| {
            bch.iter(|| {
                naive_matmul_into(black_box(&a), black_box(&b), &mut nbuf);
                black_box(&nbuf);
            })
        });
        let mut avbuf = Vec::new();
        g.bench_function(&format!("autovec/{label}"), |bch| {
            bch.iter(|| {
                autovec_matmul_into(black_box(&a), black_box(&b), &mut avbuf);
                black_box(&avbuf);
            })
        });
        let mut bbuf = Vec::new();
        g.bench_function(&format!("blocked/{label}"), |bch| {
            bch.iter(|| {
                tensor::matmul_into(black_box(&a), black_box(&b), &mut bbuf).unwrap();
                black_box(&bbuf);
            })
        });
        let packed = tensor::PackedB::pack(b.data(), k, n);
        let qi8 =
            tensor::QuantizedPackedB::pack(&tensor::QuantizedMatrix::quantize(b.data(), k, n));
        let mut pbuf = vec![0.0f32; m * n];
        g.bench_function(&format!("prepacked_f32/{label}"), |bch| {
            bch.iter(|| {
                tensor::gemm_prepacked(
                    m,
                    black_box(a.data()),
                    black_box(&packed),
                    None,
                    tensor::Activation::Identity,
                    &mut pbuf,
                )
                .unwrap();
                black_box(&pbuf);
            })
        });
        g.bench_function(&format!("prepacked_i8/{label}"), |bch| {
            bch.iter(|| {
                tensor::gemm_prepacked_quant(
                    m,
                    black_box(a.data()),
                    black_box(&qi8),
                    None,
                    tensor::Activation::Identity,
                    &mut pbuf,
                )
                .unwrap();
                black_box(&pbuf);
            })
        });
    }
    g.finish();
    emit_json();
}

/// Measures everything again with plain `Instant` medians and writes
/// `BENCH_gemm.json`.
fn emit_json() {
    let mut gemm_rows = Vec::new();
    for &(m, k, n, label) in SHAPES {
        let a = mk(m, k, 0.0);
        let b = mk(k, n, 1.0);
        let mut nbuf = Vec::new();
        let naive = median_ns(150, || {
            naive_matmul_into(black_box(&a), black_box(&b), &mut nbuf);
            black_box(&nbuf);
        });
        let mut abuf = Vec::new();
        let autovec = median_ns(150, || {
            autovec_matmul_into(black_box(&a), black_box(&b), &mut abuf);
            black_box(&abuf);
        });
        let mut out = Vec::new();
        let blocked = median_ns(150, || {
            tensor::matmul_into(black_box(&a), black_box(&b), &mut out).unwrap();
            black_box(&out);
        });
        // What compiled plans actually run: 19 of the predictor's 20
        // GEMMs carry a fused bias and 5 an activation, so the epilogue
        // columns sit beside the plain one for both entry points.
        let bias: Vec<f32> = (0..n).map(|j| ((j as f32) * 0.61).cos()).collect();
        let packed = tensor::PackedB::pack(b.data(), k, n);
        let mut obuf = vec![0.0f32; m * n];
        let mut with_ep = |prepacked: bool, bias: Option<&[f32]>, act: tensor::Activation| {
            median_ns(150, || {
                let a = black_box(a.data());
                if prepacked {
                    tensor::gemm_prepacked(m, a, black_box(&packed), bias, act, &mut obuf)
                } else {
                    tensor::gemm_ep_slices(m, k, n, a, black_box(b.data()), bias, act, &mut obuf)
                }
                .unwrap();
                black_box(&obuf);
            })
        };
        let (id, relu) = (tensor::Activation::Identity, tensor::Activation::Relu);
        let blocked_bias = with_ep(false, Some(&bias), id);
        let blocked_bias_relu = with_ep(false, Some(&bias), relu);
        let prepacked = with_ep(true, None, id);
        let prepacked_bias = with_ep(true, Some(&bias), id);
        let prepacked_bias_relu = with_ep(true, Some(&bias), relu);
        let gflops = |ns: f64| 2.0 * (m * k * n) as f64 / ns;
        gemm_rows.push(format!(
            "    {{\"shape\": \"{label}\", \"m\": {m}, \"k\": {k}, \"n\": {n}, \
             \"naive_ns\": {naive:.0}, \"autovec_ns\": {autovec:.0}, \
             \"blocked_ns\": {blocked:.0}, \"blocked_bias_ns\": {blocked_bias:.0}, \
             \"blocked_bias_relu_ns\": {blocked_bias_relu:.0}, \
             \"prepacked_ns\": {prepacked:.0}, \"prepacked_bias_ns\": {prepacked_bias:.0}, \
             \"prepacked_bias_relu_ns\": {prepacked_bias_relu:.0}, \
             \"naive_gflops\": {:.2}, \"blocked_gflops\": {:.2}, \
             \"prepacked_bias_relu_gflops\": {:.2}, \
             \"speedup\": {:.2}, \"simd_vs_autovec\": {:.2}}}",
            gflops(naive),
            gflops(blocked),
            gflops(prepacked_bias_relu),
            naive / blocked,
            autovec / blocked
        ));
    }

    // Quantized serving GEMM: f32 vs i8 prepacked panels, the
    // fixed-shape weight-GEMM path specialized plans dispatch to. Both
    // run the same f32 macro-kernel; the i8 path first expands each
    // k-block of panels to f32 in a per-thread scratch. Two regimes per
    // shape:
    //
    //  * `*_resident_ns`: one weight matrix reused back-to-back, panels
    //    pinned in L1/L2. Compute-bound, so quantization can at best tie
    //    f32 (same kernel + a small dequant pass).
    //  * `*_prepacked_ns` (headline): successive calls rotate over enough
    //    distinct weight matrices that the f32 panel working set exceeds
    //    the LLC — the serving regime where a layer's panels have been
    //    swept from cache between uses (layer stacks, multi-model
    //    fleets). The 4x smaller i8 panels cut the B-side
    //    memory traffic that dominates here.
    let rot_bytes: usize = match bench::scale() {
        bench::Scale::Full => 384 << 20,
        bench::Scale::Mid => 128 << 20,
        bench::Scale::Quick => 64 << 20,
    };
    let mut quant_rows = Vec::new();
    for &(m, k, n, label) in SHAPES {
        let a = mk(m, k, 0.0);
        let b = mk(k, n, 1.0);
        let mut out = vec![0.0f32; m * n];
        let rot = (rot_bytes / (k * n * 4)).max(2);

        let resident_f32;
        let rot_f32;
        {
            let packs: Vec<tensor::PackedB> = (0..rot)
                .map(|_| tensor::PackedB::pack(b.data(), k, n))
                .collect();
            resident_f32 = median_ns(150, || {
                tensor::gemm_prepacked(
                    m,
                    black_box(a.data()),
                    black_box(&packs[0]),
                    None,
                    tensor::Activation::Identity,
                    &mut out,
                )
                .unwrap();
                black_box(&out);
            });
            let mut i = 0usize;
            rot_f32 = median_ns(300, || {
                i = (i + 1) % rot;
                tensor::gemm_prepacked(
                    m,
                    black_box(a.data()),
                    black_box(&packs[i]),
                    None,
                    tensor::Activation::Identity,
                    &mut out,
                )
                .unwrap();
                black_box(&out);
            });
        }
        let resident_i8;
        let rot_i8;
        {
            let packs: Vec<tensor::QuantizedPackedB> = (0..rot)
                .map(|_| {
                    tensor::QuantizedPackedB::pack(&tensor::QuantizedMatrix::quantize(
                        b.data(),
                        k,
                        n,
                    ))
                })
                .collect();
            resident_i8 = median_ns(150, || {
                tensor::gemm_prepacked_quant(
                    m,
                    black_box(a.data()),
                    black_box(&packs[0]),
                    None,
                    tensor::Activation::Identity,
                    &mut out,
                )
                .unwrap();
                black_box(&out);
            });
            let mut i = 0usize;
            rot_i8 = median_ns(300, || {
                i = (i + 1) % rot;
                tensor::gemm_prepacked_quant(
                    m,
                    black_box(a.data()),
                    black_box(&packs[i]),
                    None,
                    tensor::Activation::Identity,
                    &mut out,
                )
                .unwrap();
                black_box(&out);
            });
        }
        quant_rows.push(format!(
            "    {{\"shape\": \"{label}\", \"m\": {m}, \"k\": {k}, \"n\": {n}, \
             \"weight_matrices\": {rot}, \
             \"f32_prepacked_ns\": {rot_f32:.0}, \"i8_prepacked_ns\": {rot_i8:.0}, \
             \"i8_vs_f32\": {:.2}, \
             \"f32_resident_ns\": {resident_f32:.0}, \"i8_resident_ns\": {resident_i8:.0}, \
             \"i8_vs_f32_resident\": {:.2}}}",
            rot_f32 / rot_i8,
            resident_f32 / resident_i8
        ));
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let (batch, y) = training_fixture();
    let bs = batch.record_idx.len();
    let mut predictor = Predictor::new(PredictorConfig::default());
    let mut opt = Adam::new(1e-3);
    let serial = median_ns(400, || {
        black_box(train_step(
            &mut predictor,
            &mut opt,
            &batch,
            &y,
            LossKind::Hybrid,
            1e-3,
        ));
    });
    let mut step_rows = vec![format!(
        "    {{\"variant\": \"serial_train_step\", \"threads\": 1, \"ns_per_step\": {serial:.0}, \
         \"samples_per_s\": {:.0}}}",
        bs as f64 * 1e9 / serial
    )];
    for threads in [1usize, 2, 4] {
        let pool = parallel::ThreadPool::new(threads);
        let mut predictor = Predictor::new(PredictorConfig::default());
        let mut opt = Adam::new(1e-3);
        let t = median_ns(400, || {
            black_box(train_step_parallel(
                &mut predictor,
                &mut opt,
                &batch,
                &y,
                LossKind::Hybrid,
                1e-3,
                &pool,
            ));
        });
        step_rows.push(format!(
            "    {{\"variant\": \"parallel_train_step\", \"threads\": {threads}, \
             \"ns_per_step\": {t:.0}, \"samples_per_s\": {:.0}, \
             \"speedup_vs_serial\": {:.2}}}",
            bs as f64 * 1e9 / t,
            serial / t
        ));
    }

    let engine_rows = engine_section();
    let json = format!(
        "{{\n  \"bench\": \"gemm\",\n  \"host_cores\": {cores},\n  \"kernel_tier\": \"{tier}\",\n  \"batch_rows\": {bs},\n  \"note\": \"gemm rows are single-core kernel-vs-kernel (both sides reuse output buffers; every kernel runs on its calling thread); simd_vs_autovec compares the runtime-selected micro-kernel against a replica of the pre-SIMD autovectorized 4x8 tile over the same blocking. gemm_quant rows compare the prepacked serving GEMM over f32 panels against i8 quantized panels (each k-block dequantized into a per-thread f32 scratch, then the same f32 macro-kernel; f32 accumulation). Headline *_prepacked_ns columns rotate each call over weight_matrices distinct matrices so the f32 panel working set exceeds the LLC - the cold-weights serving regime (layer stacks, multi-model fleets) where B-panel memory traffic binds and the 4x smaller i8 panels stay cache-resident; i8_vs_f32 > 1 means i8 is faster there. *_resident_ns columns reuse one cache-hot matrix back-to-back - compute-bound, so quantized at best ties f32 (same kernel plus a dequant pass); i8_vs_f32_resident reports that regime. blocked_bias*/prepacked* columns time the same product with the fused epilogues compiled plans run (bias on 19 of the predictor's 20 GEMMs, an activation on 5); the write-back finishes them in vector registers, so they should read within noise of the plain column. parallel_train_step rows compare data-parallel sharding at explicit pool sizes; on a 1-core host they measure dispatch overhead only.\",\n  \
         \"gemm\": [\n{}\n  ],\n  \"gemm_quant\": [\n{}\n  ],\n  \"training_step\": [\n{}\n  ],\n  \
         \"engine_throughput\": [\n{}\n  ]\n}}\n",
        gemm_rows.join(",\n"),
        quant_rows.join(",\n"),
        step_rows.join(",\n"),
        engine_rows.join(",\n"),
        tier = tensor::kernel_tier_name(),
    );
    let path = std::env::var("BENCH_GEMM_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_gemm.json", env!("CARGO_MANIFEST_DIR")));
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}

/// Serving throughput over a heterogeneous request stream: forward-only
/// serial vs the worker-pool engine (1 worker and one-per-core).
fn engine_section() -> Vec<String> {
    use learn::TransformKind;
    use runtime::{EngineConfig, InferenceEngine};
    use tir::{lower, sample_schedule, OpSpec};

    let model = TrainedModel {
        predictor: Predictor::new(PredictorConfig::default()),
        transform: TransformKind::None.fit(&[1.0, 2.0, 3.0]),
        scaler: FeatScaler::identity(),
        use_pe: true,
        train_config: TrainConfig::default(),
    };
    let mut rng = StdRng::seed_from_u64(7);
    let specs = [
        OpSpec::Dense {
            m: 128,
            n: 128,
            k: 128,
        },
        OpSpec::Softmax { rows: 64, cols: 64 },
        OpSpec::Elementwise {
            n: 4096,
            kind: tir::EwKind::Relu,
        },
    ];
    let dev = devsim::t4();
    let mut progs = Vec::new();
    for spec in specs {
        let nest = spec.canonical_nest();
        for _ in 0..64 {
            progs.push(lower(&nest, &sample_schedule(&nest, &mut rng)).unwrap());
        }
    }
    let refs: Vec<&tir::TensorProgram> = progs.iter().collect();
    let enc = encode_programs(&refs, &dev, model.predictor.config().theta, model.use_pe);
    let n = enc.len();
    let frozen = model.freeze();
    let serial = median_ns(300, || {
        black_box(frozen.predict_samples(black_box(&enc)).unwrap());
    });
    let mut rows = vec![format!(
        "    {{\"variant\": \"forward_only_serial\", \"workers\": 1, \"ns_per_stream\": {serial:.0}, \
         \"requests_per_s\": {:.0}}}",
        n as f64 * 1e9 / serial
    )];
    // Explicit worker counts: 1 and one per core.
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let mut worker_counts = vec![1usize];
    if cores > 1 {
        worker_counts.push(cores);
    }
    for workers in worker_counts {
        let engine = InferenceEngine::new(
            frozen.clone(),
            EngineConfig {
                workers,
                max_batch: 64,
                ..Default::default()
            },
        );
        let t = median_ns(300, || {
            black_box(engine.predict_samples(black_box(&enc)).unwrap());
        });
        rows.push(format!(
            "    {{\"variant\": \"engine\", \"workers\": {}, \"ns_per_stream\": {t:.0}, \
             \"requests_per_s\": {:.0}, \"speedup_vs_serial\": {:.2}}}",
            engine.worker_count(),
            n as f64 * 1e9 / t,
            serial / t
        ));
    }
    rows
}

criterion_group!(benches, bench_gemm);
criterion_main!(benches);
