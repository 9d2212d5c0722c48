//! The `cdmpp` command-line interface (§6 of the paper):
//!
//! ```console
//! $ cdmpp train T4 --save model.cdmppsnap       # fit + checkpoint
//! $ cdmpp serve --snapshot model.cdmppsnap resnet50 1 T4
//! $ cdmpp predict --snapshot model.cdmppsnap bert_tiny 1 T4
//! $ cdmpp resnet50 1 T4                         # legacy: train + serve
//! ```
//!
//! The paper serves predictions from a pre-trained checkpoint; `train
//! --save` writes that checkpoint (trained weights **plus** the compiled
//! per-leaf-count inference plans in one snapshot file), and `serve` /
//! `predict` cold-start from it — a file load instead of a training run,
//! with zero plan recording. The legacy positional form still trains on
//! the fly and serves in the same process.

use cdmpp::core::{end_to_end_frozen, generational_search, GenSearchConfig, Snapshot};
use cdmpp::prelude::*;
use cdmpp::runtime::{
    end_to_end_opts, EngineConfig, EngineCostModel, InferenceEngine, SnapshotWatcher, SubmitOptions,
};
use cdmpp::tensor::QuantMode;
use cdmpp::tir::{lower, Nest, OpSpec, Schedule};

fn usage() -> ! {
    eprintln!("usage: cdmpp <network> <batch_size> <device>");
    eprintln!("       cdmpp train <device> --save <snapshot> [--epochs N] [--quant f32|i8]");
    eprintln!(
        "       cdmpp serve --snapshot <snapshot> <network> <batch_size> <device> \
         [--queue-cap N] [--deadline-ms N] [--watch <snapshot>] [--iters N]"
    );
    eprintln!("       cdmpp predict --snapshot <snapshot> <network> <batch_size> <device>");
    eprintln!(
        "       cdmpp search <device> [--nest dense:MxNxK|bmm:BxMxNxK|softmax:RxC] \
         [--rounds N] [--candidates N] [--snapshot <snapshot>] [--engine]"
    );
    eprintln!("  networks: resnet50 resnet18 mobilenet_v2 bert_tiny bert_base vgg16 inception_v3 gpt2_small mlp_mixer");
    eprintln!(
        "  devices:  {}",
        cdmpp::devsim::all_devices()
            .iter()
            .map(|d| d.name.clone())
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(2);
}

fn network_by_name(name: &str, batch: u64) -> Option<Network> {
    cdmpp::tir::all_networks(batch)
        .into_iter()
        .find(|n| n.name == name)
}

fn parse_batch(arg: &str) -> u64 {
    match arg.parse() {
        Ok(b) if b >= 1 => b,
        _ => usage(),
    }
}

fn device_or_usage(name: &str) -> DeviceSpec {
    match cdmpp::devsim::device_by_name(name) {
        Some(d) => d,
        None => {
            eprintln!("unknown device '{name}'");
            usage();
        }
    }
}

fn network_or_usage(name: &str, batch: u64) -> Network {
    match network_by_name(name, batch) {
        Some(n) => n,
        None => {
            eprintln!("unknown network '{name}'");
            usage();
        }
    }
}

/// Trains the standard CLI cost model for one device, at the paper's data
/// regime: 960 schedules per task (≈ 126k records), where the model reaches
/// the paper's < 16% MAPE on most devices (README, "Accuracy").
fn train_model(dev: &DeviceSpec, epochs: usize) -> TrainedModel {
    eprintln!("[cdmpp] training cost model for {}...", dev.name);
    let ds = Dataset::generate(GenConfig {
        batch: 1,
        schedules_per_task: 960,
        devices: vec![dev.clone()],
        seed: 0,
        noise_sigma: 0.03,
    });
    let split = SplitIndices::for_device(&ds, &dev.name, &[], 0);
    let (model, _) = pretrain(
        &ds,
        &split.train,
        &split.valid,
        PredictorConfig::default(),
        TrainConfig {
            epochs,
            lr: 1.5e-3,
            ..Default::default()
        },
    );
    let m = evaluate(&model, &ds, &split.test);
    eprintln!("[cdmpp] cost model test MAPE: {:.1}%", m.mape * 100.0);
    model
}

fn print_result(net: &Network, batch: u64, dev: &DeviceSpec, r: &cdmpp::core::E2eResult) {
    println!(
        "{} (batch {}) on {}: predicted {:.3} ms / iteration (simulated ground truth {:.3} ms, error {:.1}%)",
        net.name,
        batch,
        dev.name,
        r.predicted_s * 1e3,
        r.measured_s * 1e3,
        r.error() * 100.0
    );
}

/// `cdmpp train <device> --save <path> [--epochs N] [--quant f32|i8]`
fn cmd_train(args: &[String]) -> ! {
    let mut device: Option<String> = None;
    let mut save: Option<String> = None;
    let mut epochs = 12usize;
    let mut quant = QuantMode::F32;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--save" => save = it.next().cloned().or_else(|| usage()),
            "--epochs" => {
                epochs = match it.next().and_then(|v| v.parse().ok()) {
                    Some(e) if e >= 1 => e,
                    _ => usage(),
                }
            }
            "--quant" => {
                quant = match it.next().and_then(|v| QuantMode::parse(v)) {
                    Some(m) => m,
                    None => {
                        eprintln!("--quant takes f32 or i8");
                        usage();
                    }
                }
            }
            _ if device.is_none() => device = Some(a.clone()),
            _ => usage(),
        }
    }
    let (Some(device), Some(save)) = (device, save) else {
        usage();
    };
    let dev = device_or_usage(&device);
    let model = train_model(&dev, epochs);
    // Ship the engine's default batch classes so `serve --snapshot`
    // cold-starts with shape-final specialized plans too. `--quant`
    // stores the weight matrices in the requested reduced precision;
    // `serve`/`predict` auto-detect it from the file.
    let snap = match Snapshot::capture_quantized(
        &model,
        &(1..=model.predictor.config().max_leaves).collect::<Vec<_>>(),
        quant,
    )
    .map_err(|e| e.to_string())
    .and_then(|s| {
        s.with_batch_classes(&[1, cdmpp::core::DEFAULT_MAX_BATCH])
            .map_err(|e| e.to_string())
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("[cdmpp] compiling inference plans failed: {e}");
            std::process::exit(1);
        }
    };
    let bytes = snap.to_bytes();
    if let Err(e) = std::fs::write(&save, &bytes) {
        eprintln!("[cdmpp] writing {save} failed: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "[cdmpp] wrote {save}: {} bytes, {} weight tensors ({} storage), \
         {} pre-compiled plans, {} batch specializations",
        bytes.len(),
        snap.params.len(),
        quant.name(),
        snap.plans.len(),
        snap.spec_plans.len()
    );
    std::process::exit(0);
}

/// Parses `--snapshot <path> <network> <batch> <device>`.
fn parse_snapshot_args(args: &[String]) -> (String, Network, u64, DeviceSpec) {
    let [flag, path, net, batch, device] = args else {
        usage();
    };
    if flag != "--snapshot" {
        usage();
    }
    let batch = parse_batch(batch);
    let net = network_or_usage(net, batch);
    let dev = device_or_usage(device);
    (path.clone(), net, batch, dev)
}

fn load_model(path: &str) -> InferenceModel {
    match InferenceModel::from_snapshot_file(path) {
        Ok(m) => {
            let storage = if m.predictor.is_quantized() {
                "i8"
            } else {
                "f32"
            };
            eprintln!(
                "[cdmpp] loaded {path} ({storage} weights, {} serving bytes, \
                 plan recordings performed: {})",
                m.predictor.serving_weights_bytes(),
                m.predictor.plan_compile_count()
            );
            m
        }
        Err(e) => {
            eprintln!("[cdmpp] loading snapshot {path} failed: {e}");
            std::process::exit(1);
        }
    }
}

/// `cdmpp serve --snapshot <path> <network> <batch> <device>
///  [--queue-cap N] [--deadline-ms N] [--watch <snapshot>] [--iters N]`:
/// cold-start the concurrent engine from the checkpoint and serve
/// predictions through it — a call of at most one batch class on this
/// thread, a larger one across the worker pool.
///
/// `--queue-cap` bounds the submission queue (0 = unbounded),
/// `--deadline-ms` gives each iteration a completion deadline (expired
/// work is shed with a typed error instead of served late), `--watch`
/// hot-swaps the engine onto `<snapshot>` whenever the file changes
/// between iterations — zero downtime, no restart — and `--iters` serves
/// that many iterations (default 1).
fn cmd_serve(args: &[String]) -> ! {
    let mut positional: Vec<String> = Vec::new();
    let mut queue_cap: Option<usize> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut watch: Option<String> = None;
    let mut iters = 1usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--queue-cap" => {
                queue_cap = match it.next().and_then(|v| v.parse().ok()) {
                    Some(c) => Some(c),
                    None => usage(),
                }
            }
            "--deadline-ms" => {
                deadline_ms = match it.next().and_then(|v| v.parse().ok()) {
                    Some(ms) if ms >= 1 => Some(ms),
                    _ => usage(),
                }
            }
            "--watch" => watch = it.next().cloned().or_else(|| usage()),
            "--iters" => {
                iters = match it.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => usage(),
                }
            }
            _ => positional.push(a.clone()),
        }
    }
    let (path, net, batch, dev) = parse_snapshot_args(&positional);
    let model = load_model(&path);
    let mut cfg = EngineConfig::default();
    if let Some(cap) = queue_cap {
        cfg.queue_capacity = cap;
    }
    let engine = InferenceEngine::new(model, cfg);
    eprintln!(
        "[cdmpp] serving with {} inference workers (zero training, zero recording)",
        engine.worker_count()
    );
    // The watcher compares (mtime, len) and advances its state only after
    // a successful swap, so half-written files retry instead of being
    // recorded as seen.
    let mut watcher = watch.as_deref().map(SnapshotWatcher::new);
    let mut failures = 0usize;
    for i in 0..iters {
        // Watched-path hot swap: a new checkpoint published between
        // iterations cuts the engine over without dropping in-flight work.
        if let Some(w) = watcher.as_mut() {
            match w.poll(&engine) {
                Some(Ok(generation)) => eprintln!(
                    "[cdmpp] hot-swapped onto {} (generation {generation})",
                    w.path().display()
                ),
                Some(Err(e)) => {
                    eprintln!("[cdmpp] hot swap of {} failed: {e}", w.path().display())
                }
                None => {}
            }
        }
        let opts = match deadline_ms {
            Some(ms) => SubmitOptions::deadline_within(std::time::Duration::from_millis(ms)),
            None => SubmitOptions::default(),
        };
        match end_to_end_opts(&engine, &net, &dev, i as u64, &opts) {
            Ok(r) => print_result(&net, batch, &dev, &r),
            Err(e) => {
                eprintln!("[cdmpp] iteration {i} failed: {e}");
                failures += 1;
            }
        }
    }
    eprintln!(
        "[cdmpp] engine stats: {} caller_chunks={}",
        engine.stats(),
        engine.caller_chunks()
    );
    std::process::exit(if failures == iters { 1 } else { 0 });
}

/// `cdmpp predict --snapshot <path> <network> <batch> <device>`:
/// single-threaded prediction from the checkpoint (no worker pool — the
/// minimal cold-start path).
fn cmd_predict(args: &[String]) -> ! {
    let (path, net, batch, dev) = parse_snapshot_args(args);
    let model = load_model(&path);
    match end_to_end_frozen(&model, &net, &dev, 0) {
        Ok(r) => {
            print_result(&net, batch, &dev, &r);
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("[cdmpp] inference failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Parses a task-nest spec: `dense:MxNxK`, `bmm:BxMxNxK`, `softmax:RxC`.
fn parse_nest(spec: &str) -> Option<Nest> {
    let (kind, dims) = spec.split_once(':')?;
    let d: Vec<u64> = dims
        .split('x')
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    // A zero extent is an empty nest: nothing to search.
    if d.contains(&0) {
        return None;
    }
    let op = match (kind, d.as_slice()) {
        ("dense", &[m, n, k]) => OpSpec::Dense { m, n, k },
        ("bmm", &[b, m, n, k]) => OpSpec::BatchMatmul { b, m, n, k },
        ("softmax", &[rows, cols]) => OpSpec::Softmax { rows, cols },
        _ => return None,
    };
    Some(op.canonical_nest())
}

/// `cdmpp search <device> [--nest <spec>] [--rounds N] [--candidates N]
///  [--snapshot <snapshot>] [--engine]`: generational schedule search on
/// one task nest, driven by the cost model — serially (`InferenceModel`
/// scoring on the calling thread), or with `--engine` through the
/// concurrent serving engine's zero-alloc scoring front end
/// ([`EngineCostModel`]). Each round reports the search-quality regret of
/// the model's pick against the in-round simulator optimum. Without
/// `--snapshot`, a cost model is trained on the fly first.
fn cmd_search(args: &[String]) -> ! {
    let mut device: Option<String> = None;
    let mut snapshot: Option<String> = None;
    let mut nest_spec = "dense:128x128x128".to_string();
    let mut rounds = 6usize;
    let mut candidates = 1024usize;
    let mut engine_backed = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--snapshot" => snapshot = it.next().cloned().or_else(|| usage()),
            "--nest" => nest_spec = it.next().cloned().unwrap_or_else(|| usage()),
            "--rounds" => {
                rounds = match it.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => usage(),
                }
            }
            "--candidates" => {
                candidates = match it.next().and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => usage(),
                }
            }
            "--engine" => engine_backed = true,
            _ if device.is_none() => device = Some(a.clone()),
            _ => usage(),
        }
    }
    let Some(device) = device else { usage() };
    let dev = device_or_usage(&device);
    let Some(nest) = parse_nest(&nest_spec) else {
        eprintln!(
            "invalid --nest '{nest_spec}': expected dense:MxNxK, bmm:BxMxNxK, or softmax:RxC"
        );
        usage();
    };
    let model = match &snapshot {
        Some(p) => load_model(p),
        None => train_model(&dev, 12).into_frozen(),
    };
    let cfg = GenSearchConfig {
        rounds,
        candidates_per_round: candidates,
        oracle_regret: true,
        ..Default::default()
    };
    let canonical = Simulator::new(dev.clone())
        .latency_seconds(&lower(&nest, &Schedule::default()).expect("canonical schedule lowers"));
    let started = std::time::Instant::now();
    let trace = if engine_backed {
        let engine = std::sync::Arc::new(InferenceEngine::new(model, EngineConfig::default()));
        let cost = EngineCostModel::new(std::sync::Arc::clone(&engine), 0);
        let trace = generational_search(&nest, &dev, &cost, &cfg);
        let t = cost.timings();
        let s = engine.stats();
        eprintln!(
            "[cdmpp] engine scoring: {} candidates scored, encode {:.1} ms, \
             dispatch {:.1} ms (worker busy {:.1} ms)",
            t.scored,
            t.encode_ns as f64 / 1e6,
            t.dispatch_ns as f64 / 1e6,
            s.predict_ns as f64 / 1e6
        );
        eprintln!(
            "[cdmpp] engine stats: {s} caller_chunks={}",
            engine.caller_chunks()
        );
        trace
    } else {
        generational_search(&nest, &dev, &model, &cfg)
    };
    let wall = started.elapsed();
    for (i, r) in trace.rounds.iter().enumerate() {
        println!(
            "round {i}: {} unique of {} proposed, best predicted {:.3e}, \
             measured {:.4} ms, best so far {:.4} ms, regret {:.2}%",
            r.unique,
            r.proposed,
            r.best_predicted,
            r.round_measured * 1e3,
            r.best_measured * 1e3,
            r.regret * 100.0
        );
    }
    println!(
        "{nest_spec} on {}: best {:.4} ms vs canonical {:.4} ms ({:.2}x), \
         {} simulator measurements, {:.2} s wall",
        dev.name,
        trace.best_measured * 1e3,
        canonical * 1e3,
        canonical / trace.best_measured,
        trace.measurements,
        wall.as_secs_f64()
    );
    std::process::exit(0);
}

/// Legacy flow: train on the fly, then serve in the same process.
fn cmd_legacy(args: &[String]) -> ! {
    let [net_name, batch, device] = args else {
        usage();
    };
    let batch = parse_batch(batch);
    let net = network_or_usage(net_name, batch);
    let dev = device_or_usage(device);
    let model = train_model(&dev, 12);
    // Serve inference through the forward-only engine (one worker per
    // core). Training is done with the model, so the weights move into
    // the served Arc without a copy.
    let engine = InferenceEngine::new(model.into_frozen(), EngineConfig::default());
    eprintln!(
        "[cdmpp] serving with {} inference workers",
        engine.worker_count()
    );
    match cdmpp::runtime::end_to_end(&engine, &net, &dev, 0) {
        Ok(r) => {
            print_result(&net, batch, &dev, &r);
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("[cdmpp] inference failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("train") => cmd_train(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("predict") => cmd_predict(&args[1..]),
        Some("search") => cmd_search(&args[1..]),
        Some(_) if args.len() == 3 => cmd_legacy(&args),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_nest_accepts_the_three_kinds_and_rejects_zero_extents() {
        for spec in ["dense:128x128x128", "bmm:4x64x64x64", "softmax:256x256"] {
            assert!(parse_nest(spec).is_some(), "{spec}");
        }
        for spec in [
            "dense:0x128x128",
            "dense:128x128x0",
            "bmm:0x64x64x64",
            "softmax:256x0",
            "dense:128x128",
            "conv:1x2x3",
            "dense:-1x128x128",
            "dense128x128x128",
        ] {
            assert!(parse_nest(spec).is_none(), "{spec}");
        }
    }
}
