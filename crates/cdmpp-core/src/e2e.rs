//! End-to-end model latency prediction: network → tensor programs →
//! per-program cost-model predictions → Algorithm-2 replay.

use std::cell::RefCell;
use std::convert::Infallible;

use devsim::{DeviceSpec, Simulator};
use features::{
    device_features, extract_compact_ast_into_cached, CompactAst, Log1pTable, PeTable,
    N_DEVICE_FEATURES, N_ENTRY,
};
use parallel::ThreadPool;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tir::{sample_lowered, task_indices, Network, TensorProgram};

use crate::batch::{EncodedSample, SampleRef};
use crate::replayer::{engine_count, simulate, Dfg, Scratch};
use crate::trainer::TrainedModel;

/// Outcome of an end-to-end prediction against the simulated ground truth.
#[derive(Debug, Clone, Copy)]
pub struct E2eResult {
    /// Replayed latency using cost-model predictions (seconds).
    pub predicted_s: f64,
    /// Replayed latency using simulator-measured durations (seconds).
    pub measured_s: f64,
}

impl E2eResult {
    /// Relative prediction error `|pred − meas| / meas`.
    pub fn error(&self) -> f64 {
        (self.predicted_s - self.measured_s).abs() / self.measured_s.max(1e-12)
    }
}

/// One encoder's state: a compact-AST scratch and the `log1p` and PE
/// memos, each a pure-function cache that replays its direct computation
/// bit for bit. Every thread owns one for [`encode_programs`] and
/// [`crate::batch::encode_records`], and every [`EncodeArena`] worker slot
/// another, so all three encode paths run [`Encoder::encode`].
#[derive(Debug, Default)]
struct Encoder {
    ast: CompactAst,
    logs: Log1pTable,
    pe: PeTable,
}

impl Encoder {
    /// The one per-program encode: `p`'s compact AST, then its leaf rows
    /// with PE added (`use_pe`) or bare, into `dst`
    /// (`p.leaf_count() * N_ENTRY` floats).
    fn encode(&mut self, p: &TensorProgram, theta: f32, use_pe: bool, dst: &mut [f32]) {
        extract_compact_ast_into_cached(p, &mut self.ast, &mut self.logs);
        if use_pe {
            self.ast.encoded_flat_into_cached(theta, &mut self.pe, dst);
        } else {
            self.ast.flat_into(dst);
        }
    }

    /// Capacities of the buffers [`Encoder::encode`] grows, for the
    /// arena's growth counter.
    fn capacities(&self) -> [usize; 4] {
        [
            self.ast.leaf_vectors.capacity(),
            self.ast.ordering.capacity(),
            self.pe.capacity_rows(),
            self.logs.capacity(),
        ]
    }
}

thread_local! {
    /// This thread's [`Encoder`]: filled once up to the largest ordering
    /// value (224 bytes a PE row, a few dozen rows; the rows drop on a Θ
    /// change) and extent or stride (at most 256 KiB of `log1p`) seen.
    static ENCODER: RefCell<Encoder> = RefCell::default();
}

/// Encodes `(record index, program, device row, label)` items into owned
/// samples on this thread's [`Encoder`].
pub(crate) fn encode_owned<'p>(
    items: impl Iterator<Item = (usize, &'p TensorProgram, [f32; N_DEVICE_FEATURES], f64)>,
    theta: f32,
    use_pe: bool,
) -> Vec<EncodedSample> {
    ENCODER.with_borrow_mut(|encoder| {
        items
            .map(|(record_idx, p, dev, y_raw)| {
                let mut x = vec![0.0; p.leaf_count() * N_ENTRY];
                encoder.encode(p, theta, use_pe, &mut x);
                EncodedSample {
                    record_idx,
                    leaf_count: p.leaf_count(),
                    x,
                    dev,
                    y_raw,
                }
            })
            .collect()
    })
}

/// Encodes standalone tensor programs (not dataset records) for inference.
pub fn encode_programs(
    programs: &[&TensorProgram],
    dev: &DeviceSpec,
    theta: f32,
    use_pe: bool,
) -> Vec<EncodedSample> {
    let dev = device_features(dev);
    let items = programs.iter().enumerate().map(|(i, &p)| (i, p, dev, 0.0));
    encode_owned(items, theta, use_pe)
}

/// Pooled output of batch feature encoding: one flat `f32` slab holding
/// every sample's `[L × N_ENTRY]` row block plus a span table, instead of
/// one owned `Vec<f32>` per sample.
///
/// Like the plan replayer's arena, growth is observable: every buffer
/// expansion bumps [`growth_count`](Self::growth_count), and the search
/// tests assert the counter stays flat once the arena has been warmed at a
/// workload's high-water mark — the encode hot path is
/// zero-steady-state-alloc.
#[derive(Debug, Default)]
pub struct EncodeArena {
    /// Concatenated feature rows of all samples.
    xs: Vec<f32>,
    /// Per-sample `(float offset into xs, leaf count)`.
    spans: Vec<(usize, usize)>,
    /// Device feature row shared by every sample of the request.
    dev: [f32; N_DEVICE_FEATURES],
    /// Per-worker encoders, reused across calls.
    encoders: Vec<Encoder>,
    /// High-water [`Encoder::capacities`] of each.
    encoder_caps: Vec<[usize; 4]>,
    /// Buffer-growth events since construction.
    growth: usize,
}

impl EncodeArena {
    /// Creates an empty arena (all buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of encoded samples held.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the arena holds no samples.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Leaf count of sample `i`.
    pub fn leaf_count(&self, i: usize) -> usize {
        self.spans[i].1
    }

    /// Feature row block of sample `i` (`[leaf_count * N_ENTRY]`).
    pub fn x(&self, i: usize) -> &[f32] {
        let (off, lc) = self.spans[i];
        &self.xs[off..off + lc * N_ENTRY]
    }

    /// Borrowed sample view `i`, usable anywhere a
    /// [`SampleLike`](crate::batch::SampleLike) is accepted.
    pub fn sample(&self, i: usize) -> SampleRef<'_> {
        SampleRef {
            record_idx: i,
            leaf_count: self.leaf_count(i),
            x: self.x(i),
            dev: &self.dev,
            y_raw: 0.0,
        }
    }

    /// Iterates all held samples in request order.
    pub fn samples(&self) -> impl Iterator<Item = SampleRef<'_>> {
        (0..self.len()).map(|i| self.sample(i))
    }

    /// Buffer-growth events since the arena was created. Flat across two
    /// identical workloads ⇒ the second one allocated nothing here.
    pub fn growth_count(&self) -> usize {
        self.growth
    }
}

/// Encodes standalone tensor programs into a pooled [`EncodeArena`],
/// in parallel over `pool` — the schedule search's encode hot path.
///
/// Bit-identical to [`encode_programs`] for every program, any `use_pe`,
/// and **any thread count**: each worker writes a disjoint, pre-computed
/// byte range of the slab, so the partition never influences the values
/// (the PR 2 determinism contract). A warmed arena performs no allocation;
/// see [`EncodeArena::growth_count`].
pub fn encode_programs_into(
    programs: &[&TensorProgram],
    dev: &DeviceSpec,
    theta: f32,
    use_pe: bool,
    pool: &ThreadPool,
    arena: &mut EncodeArena,
) {
    arena.dev = device_features(dev);
    let n = programs.len();
    // Serial pre-pass: leaf counts fix every sample's slab offset up front.
    let spans_cap = arena.spans.capacity();
    arena.spans.clear();
    let mut offset = 0usize;
    for p in programs {
        let lc = p.leaf_count();
        arena.spans.push((offset, lc));
        offset += lc * N_ENTRY;
    }
    if arena.spans.capacity() > spans_cap {
        arena.growth += 1;
    }
    let xs_cap = arena.xs.capacity();
    arena.xs.clear();
    arena.xs.resize(offset, 0.0);
    if arena.xs.capacity() > xs_cap {
        arena.growth += 1;
    }
    if n == 0 {
        return;
    }
    let jobs = pool.threads().min(n).max(1);
    while arena.encoders.len() < jobs {
        arena.encoders.push(Encoder::default());
        arena.encoder_caps.push([0; 4]);
        arena.growth += 1;
    }
    let per = n.div_ceil(jobs);
    let spans = &arena.spans;
    let mut rest: &mut [f32] = &mut arena.xs;
    let mut encoders = arena.encoders.iter_mut();
    pool.scope(|s| {
        for j in 0..jobs {
            let lo = j * per;
            let hi = ((j + 1) * per).min(n);
            if lo >= hi {
                break;
            }
            let floats: usize = spans[lo..hi].iter().map(|&(_, lc)| lc * N_ENTRY).sum();
            let (mine, tail) = std::mem::take(&mut rest).split_at_mut(floats);
            rest = tail;
            let encoder = encoders.next().expect("encoders sized to jobs");
            s.spawn(move || {
                let mut cur = 0usize;
                for &p in &programs[lo..hi] {
                    let row = p.leaf_count() * N_ENTRY;
                    encoder.encode(p, theta, use_pe, &mut mine[cur..cur + row]);
                    cur += row;
                }
                debug_assert_eq!(cur, mine.len());
            });
        }
    });
    // Encoders grow lazily inside the workers; surface that as arena
    // growth so the zero-alloc assertion covers them.
    for (encoder, caps) in arena.encoders.iter().zip(&mut arena.encoder_caps) {
        for (cap, now) in caps.iter_mut().zip(encoder.capacities()) {
            if now > *cap {
                arena.growth += 1;
                *cap = now;
            }
        }
    }
}

/// Per-task program selection for a network: one randomly sampled schedule
/// per task (§7.2's end-to-end protocol), seeded deterministically.
pub fn sample_network_programs(net: &Network, seed: u64) -> (Vec<u32>, Vec<TensorProgram>) {
    let (_, tasks) = task_indices(net.layers.iter().map(|l| &l.spec));
    let mut rng = StdRng::seed_from_u64(seed);
    let programs = tasks
        .iter()
        .map(|spec| sample_lowered(&spec.canonical_nest(), &mut rng).1)
        .collect();
    ((0..tasks.len() as u32).collect(), programs)
}

/// Predicts the end-to-end latency of `net` on `dev` with the cost model,
/// and replays the same programs with simulator durations as ground truth.
///
/// Note: cost-model inference is done **once per distinct task** and the
/// result shared across layers using the same kernel — the de-duplication
/// optimization §5.5 describes.
pub fn end_to_end(model: &TrainedModel, net: &Network, dev: &DeviceSpec, seed: u64) -> E2eResult {
    let (theta, use_pe) = (model.predictor.config().theta, model.use_pe);
    let predict = |enc: &[EncodedSample]| Ok(model.predict_samples(enc));
    predict_network(net, dev, seed, theta, use_pe, predict)
        .unwrap_or_else(|e: Infallible| match e {})
}

/// [`end_to_end`] for a frozen / snapshot-restored model: predictions run
/// through the compiled-plan replay path and errors propagate instead of
/// NaN-ing (a snapshot that cannot serve the network should be loud).
pub fn end_to_end_frozen(
    model: &crate::trainer::InferenceModel,
    net: &Network,
    dev: &DeviceSpec,
    seed: u64,
) -> crate::predictor::PredictResult<E2eResult> {
    let (theta, use_pe) = (model.predictor.config().theta, model.use_pe);
    predict_network(net, dev, seed, theta, use_pe, |enc| {
        model.predict_samples(enc)
    })
}

/// The network front end of every end-to-end prediction ([`end_to_end`],
/// [`end_to_end_frozen`] and the `runtime` crate's engine-served one): one
/// sampled program per task, encoded once with the model's `theta` and
/// `use_pe`, scored by `predict` in task order, and replayed through
/// [`replay_predictions`]. An error from `predict` is returned as is.
pub fn predict_network<E>(
    net: &Network,
    dev: &DeviceSpec,
    seed: u64,
    theta: f32,
    use_pe: bool,
    predict: impl FnOnce(&[EncodedSample]) -> Result<Vec<f64>, E>,
) -> Result<E2eResult, E> {
    let (task_ids, programs) = sample_network_programs(net, seed);
    let refs: Vec<&TensorProgram> = programs.iter().collect();
    let predicted = predict(&encode_programs(&refs, dev, theta, use_pe))?;
    Ok(replay_predictions(
        net, dev, &task_ids, &programs, &predicted,
    ))
}

/// Replays per-task predictions (and the simulator ground truth of the
/// same programs) through Algorithm 2 — the shared back half of
/// [`end_to_end`] and the `runtime` crate's engine-served variant.
///
/// `task_ids[i]` identifies the task whose sampled program is
/// `programs[i]` with predicted latency `predicted[i]` (seconds). A
/// non-finite prediction makes `predicted_s` NaN.
pub fn replay_predictions(
    net: &Network,
    dev: &DeviceSpec,
    task_ids: &[u32],
    programs: &[TensorProgram],
    predicted: &[f64],
) -> E2eResult {
    let [predicted_s, measured_s] =
        replay_tasks(net, dev, task_ids, [predicted, &measure(dev, programs)]);
    E2eResult {
        predicted_s,
        measured_s,
    }
}

/// Ground-truth end-to-end latency only (no cost model) — used for
/// device-selection examples.
pub fn measured_end_to_end(net: &Network, dev: &DeviceSpec, seed: u64) -> f64 {
    let (task_ids, programs) = sample_network_programs(net, seed);
    let [measured_s] = replay_tasks(net, dev, &task_ids, [&measure(dev, &programs)]);
    measured_s
}

/// Ground-truth durations from the simulator (deterministic).
fn measure(dev: &DeviceSpec, programs: &[TensorProgram]) -> Vec<f64> {
    let sim = Simulator::new(dev.clone());
    programs.iter().map(|p| sim.latency_seconds(p)).collect()
}

/// Per-task values → layer durations → Algorithm 2, once per value set:
/// the DFG is built once and every set replays over it, in the same
/// scratch buffers. `per_task[k][i]` belongs to task `task_ids[i]`.
fn replay_tasks<const N: usize>(
    net: &Network,
    dev: &DeviceSpec,
    task_ids: &[u32],
    per_task: [&[f64]; N],
) -> [f64; N] {
    let (layer_task, _) = task_indices(net.layers.iter().map(|l| &l.spec));
    let mut by_task = vec![0.0; task_ids.len()];
    let (mut dfg, first) = Dfg::for_network(net, dev);
    let mut scratch = Scratch::default();
    per_task.map(|values| {
        for (&task, &v) in task_ids.iter().zip(values) {
            by_task[task as usize] = v;
        }
        dfg.set_layer_durations(&first, layer_task.iter().map(|&t| by_task[t as usize]));
        simulate(&dfg, engine_count(dev), &mut scratch, None)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::PredictorConfig;
    use crate::trainer::{pretrain, TrainConfig};
    use dataset::{Dataset, GenConfig, SplitIndices};
    use tir::zoo;
    use tir::{lower, sample_schedule};

    fn quick_model(devices: Vec<DeviceSpec>) -> (Dataset, TrainedModel) {
        let ds = Dataset::generate_with_networks(
            GenConfig {
                batch: 1,
                schedules_per_task: 4,
                devices,
                seed: 13,
                noise_sigma: 0.0,
            },
            vec![zoo::bert_tiny(1), zoo::mlp_mixer(1)],
        );
        let split = SplitIndices::from_indices(&ds, (0..ds.records.len()).collect(), &[], 1);
        let pcfg = PredictorConfig {
            d_model: 16,
            n_layers: 1,
            d_ff: 32,
            d_emb: 12,
            ..Default::default()
        };
        let (model, _) = pretrain(
            &ds,
            &split.train,
            &split.valid,
            pcfg,
            TrainConfig {
                epochs: 12,
                ..Default::default()
            },
        );
        (ds, model)
    }

    #[test]
    fn e2e_prediction_in_same_ballpark_as_ground_truth() {
        let (_, model) = quick_model(vec![devsim::t4()]);
        let net = zoo::bert_tiny(1);
        let r = end_to_end(&model, &net, &devsim::t4(), 3);
        assert!(r.predicted_s > 0.0 && r.measured_s > 0.0);
        assert!(r.error() < 1.0, "e2e error {:.2} too large", r.error());
    }

    #[test]
    fn sampled_programs_cover_all_tasks() {
        let net = zoo::bert_tiny(1);
        let (ids, programs) = sample_network_programs(&net, 1);
        assert_eq!(ids.len(), programs.len());
        let tasks = tir::build_tasks(std::slice::from_ref(&net));
        assert_eq!(ids.len(), tasks.len());
    }

    #[test]
    fn sampling_is_deterministic() {
        let net = zoo::mlp_mixer(1);
        let (_, a) = sample_network_programs(&net, 9);
        let (_, b) = sample_network_programs(&net, 9);
        assert_eq!(a, b);
    }

    fn candidate_programs(seed: u64, count: usize) -> Vec<TensorProgram> {
        let mut rng = StdRng::seed_from_u64(seed);
        let specs = [
            tir::OpSpec::Dense {
                m: 32,
                n: 32,
                k: 32,
            },
            tir::OpSpec::Softmax { rows: 32, cols: 64 },
            tir::OpSpec::BatchMatmul {
                b: 2,
                m: 16,
                n: 16,
                k: 16,
            },
        ];
        let mut out = Vec::new();
        'outer: loop {
            for spec in specs {
                let nest = spec.canonical_nest();
                let s = sample_schedule(&nest, &mut rng);
                out.push(lower(&nest, &s).unwrap());
                if out.len() == count {
                    break 'outer;
                }
            }
        }
        out
    }

    #[test]
    fn arena_encoding_matches_owned_encoding_across_threads_and_pe() {
        let programs = candidate_programs(17, 31);
        let refs: Vec<&TensorProgram> = programs.iter().collect();
        let dev = devsim::t4();
        for use_pe in [true, false] {
            let expect = encode_programs(&refs, &dev, features::DEFAULT_THETA, use_pe);
            for threads in [1, 2, 3, 8] {
                let pool = ThreadPool::new(threads);
                let mut arena = EncodeArena::new();
                encode_programs_into(
                    &refs,
                    &dev,
                    features::DEFAULT_THETA,
                    use_pe,
                    &pool,
                    &mut arena,
                );
                assert_eq!(arena.len(), expect.len());
                for (i, e) in expect.iter().enumerate() {
                    let s = arena.sample(i);
                    assert_eq!(s.record_idx, e.record_idx);
                    assert_eq!(s.leaf_count, e.leaf_count);
                    assert_eq!(s.x, e.x.as_slice(), "use_pe={use_pe} threads={threads}");
                    assert_eq!(s.dev, &e.dev);
                }
            }
        }
    }

    #[test]
    fn arena_encoding_handles_empty_request() {
        let pool = ThreadPool::new(2);
        let mut arena = EncodeArena::new();
        encode_programs_into(
            &[],
            &devsim::t4(),
            features::DEFAULT_THETA,
            true,
            &pool,
            &mut arena,
        );
        assert!(arena.is_empty());
        assert_eq!(arena.samples().count(), 0);
    }

    #[test]
    fn warmed_arena_does_not_grow() {
        let programs = candidate_programs(5, 48);
        let refs: Vec<&TensorProgram> = programs.iter().collect();
        let dev = devsim::t4();
        let pool = ThreadPool::new(4);
        let mut arena = EncodeArena::new();
        // Warmup establishes the high-water mark.
        encode_programs_into(
            &refs,
            &dev,
            features::DEFAULT_THETA,
            true,
            &pool,
            &mut arena,
        );
        let warmed = arena.growth_count();
        assert!(warmed > 0, "cold arena must have grown");
        // Steady state: same-or-smaller workloads reuse every buffer.
        for round in 0..10 {
            let take = refs.len() - round % 3;
            encode_programs_into(
                &refs[..take],
                &dev,
                features::DEFAULT_THETA,
                true,
                &pool,
                &mut arena,
            );
            assert_eq!(
                arena.growth_count(),
                warmed,
                "steady-state encode must not allocate (round {round})"
            );
        }
    }

    #[test]
    fn measured_e2e_orders_devices_sensibly() {
        // One schedule sample can be unluckily GPU-hostile, and at batch 1
        // launch overhead dominates every device equally; compare at batch
        // 4 over several independent samples so compute differences show.
        let net = zoo::bert_tiny(4);
        let fast: f64 = (0..5)
            .map(|s| measured_end_to_end(&net, &devsim::a100(), s))
            .sum();
        let slow: f64 = (0..5)
            .map(|s| measured_end_to_end(&net, &devsim::graviton2(), s))
            .sum();
        assert!(fast < slow, "A100 {fast} vs Graviton2 {slow}");
    }
}
