//! Leaf-count-homogeneous batching (§5.1).
//!
//! Compact ASTs have variable leaf counts; rather than padding, records are
//! grouped by leaf count so each minibatch is a dense `[B, L, N_ENTRY]`
//! tensor routed through the `L`-specific embedding layer.

use std::collections::BTreeMap;

use dataset::Dataset;
use devsim::device_by_name;
use features::{device_features, N_DEVICE_FEATURES, N_ENTRY};

use crate::e2e::encode_owned;
use rand::seq::SliceRandom;
use rand::Rng;
use tensor::Tensor;

/// One encoded sample: flattened leaf features + device features + label.
#[derive(Debug, Clone)]
pub struct EncodedSample {
    /// Index into `Dataset::records`.
    pub record_idx: usize,
    /// Leaf count `L`.
    pub leaf_count: usize,
    /// `[L × N_ENTRY]` features (PE added unless disabled).
    pub x: Vec<f32>,
    /// Device feature row.
    pub dev: [f32; N_DEVICE_FEATURES],
    /// Raw latency label (seconds).
    pub y_raw: f64,
}

/// Read access to one encoded sample, however it is stored.
///
/// [`EncodedSample`] owns its feature row; [`SampleRef`] borrows it from an
/// [`EncodeArena`](crate::e2e::EncodeArena) slab. Batch building and
/// leaf-count grouping are generic over this trait so the serving engine's
/// dispatch path works on either without copying features into owned
/// samples first.
pub trait SampleLike {
    /// Index identifying the sample to its producer (dataset record index,
    /// or position in an inference request).
    fn record_idx(&self) -> usize;
    /// Leaf count `L`.
    fn leaf_count(&self) -> usize;
    /// `[L × N_ENTRY]` features.
    fn x(&self) -> &[f32];
    /// Device feature row.
    fn dev(&self) -> &[f32; N_DEVICE_FEATURES];
    /// Raw latency label (seconds); 0 for pure-inference samples.
    fn y_raw(&self) -> f64;
}

impl SampleLike for EncodedSample {
    fn record_idx(&self) -> usize {
        self.record_idx
    }
    fn leaf_count(&self) -> usize {
        self.leaf_count
    }
    fn x(&self) -> &[f32] {
        &self.x
    }
    fn dev(&self) -> &[f32; N_DEVICE_FEATURES] {
        &self.dev
    }
    fn y_raw(&self) -> f64 {
        self.y_raw
    }
}

impl<T: SampleLike + ?Sized> SampleLike for &T {
    fn record_idx(&self) -> usize {
        (**self).record_idx()
    }
    fn leaf_count(&self) -> usize {
        (**self).leaf_count()
    }
    fn x(&self) -> &[f32] {
        (**self).x()
    }
    fn dev(&self) -> &[f32; N_DEVICE_FEATURES] {
        (**self).dev()
    }
    fn y_raw(&self) -> f64 {
        (**self).y_raw()
    }
}

/// A borrowed view of one encoded sample whose features live in an arena
/// slab — what [`EncodeArena`](crate::e2e::EncodeArena) hands out.
#[derive(Debug, Clone, Copy)]
pub struct SampleRef<'a> {
    /// Index of the sample within its producing request.
    pub record_idx: usize,
    /// Leaf count `L`.
    pub leaf_count: usize,
    /// `[L × N_ENTRY]` features, borrowed from the arena slab.
    pub x: &'a [f32],
    /// Device feature row.
    pub dev: &'a [f32; N_DEVICE_FEATURES],
    /// Raw latency label; 0 for inference-only samples.
    pub y_raw: f64,
}

impl SampleLike for SampleRef<'_> {
    fn record_idx(&self) -> usize {
        self.record_idx
    }
    fn leaf_count(&self) -> usize {
        self.leaf_count
    }
    fn x(&self) -> &[f32] {
        self.x
    }
    fn dev(&self) -> &[f32; N_DEVICE_FEATURES] {
        self.dev
    }
    fn y_raw(&self) -> f64 {
        self.y_raw
    }
}

/// Encodes dataset records into samples.
///
/// `use_pe` toggles positional encoding (the Fig 14a ablation). Each
/// program goes through this thread's encoder (one compact-AST scratch,
/// `log1p` and PE memos), and device features are looked up once per
/// device name: each replays its direct computation bit for bit.
pub fn encode_records(ds: &Dataset, idx: &[usize], theta: f32, use_pe: bool) -> Vec<EncodedSample> {
    let mut devs: Vec<(&str, [f32; N_DEVICE_FEATURES])> = Vec::new();
    let items = idx.iter().map(|&i| {
        let rec = &ds.records[i];
        let dev = match devs.iter().find(|(name, _)| *name == rec.device) {
            Some((_, feats)) => *feats,
            None => {
                let feats = device_by_name(&rec.device)
                    .map(|d| device_features(&d))
                    .unwrap_or([0.0; N_DEVICE_FEATURES]);
                devs.push((&rec.device, feats));
                feats
            }
        };
        (i, &*rec.program, dev, rec.latency_s)
    });
    encode_owned(items, theta, use_pe)
}

/// Per-column feature standardizer fitted on the training set.
///
/// Compact-AST entries mix one-hots with log-scale magnitudes (iteration
/// counts up to e²⁰); standardizing each of the `N_ENTRY` columns over all
/// training leaves keeps the Transformer's optimization well-conditioned.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FeatScaler {
    /// Per-column mean.
    pub mean: Vec<f32>,
    /// Per-column standard deviation (floored at 1e-6).
    pub std: Vec<f32>,
}

impl FeatScaler {
    /// Identity scaler (no-op).
    pub fn identity() -> Self {
        FeatScaler {
            mean: vec![0.0; N_ENTRY],
            std: vec![1.0; N_ENTRY],
        }
    }

    /// Fits column statistics over every leaf row of the given samples.
    pub fn fit(samples: &[EncodedSample]) -> Self {
        let mut mean = vec![0.0f64; N_ENTRY];
        let mut m2 = vec![0.0f64; N_ENTRY];
        let mut n = 0f64;
        for s in samples {
            for row in s.x.chunks(N_ENTRY) {
                n += 1.0;
                for (j, &v) in row.iter().enumerate() {
                    let d = v as f64 - mean[j];
                    mean[j] += d / n;
                    m2[j] += d * (v as f64 - mean[j]);
                }
            }
        }
        let std = m2
            .iter()
            .map(|&v| ((v / n.max(1.0)).sqrt() as f32).max(1e-6))
            .collect();
        FeatScaler {
            mean: mean.into_iter().map(|v| v as f32).collect(),
            std,
        }
    }

    /// Standardizes a sample's leaf rows in place.
    pub fn apply(&self, s: &mut EncodedSample) {
        for row in s.x.chunks_mut(N_ENTRY) {
            for (j, v) in row.iter_mut().enumerate() {
                *v = (*v - self.mean[j]) / self.std[j];
            }
        }
    }

    /// Standardizes a whole slice of samples in place.
    pub fn apply_all(&self, samples: &mut [EncodedSample]) {
        for s in samples {
            self.apply(s);
        }
    }
}

/// A dense minibatch of samples sharing one leaf count.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Leaf count `L` of every sample in the batch.
    pub leaf_count: usize,
    /// `[B, L, N_ENTRY]` input features.
    pub x: Tensor,
    /// `[B, N_DEVICE_FEATURES]` device features.
    pub dev: Tensor,
    /// Raw latency labels (seconds).
    pub y_raw: Vec<f64>,
    /// Record indices of the batch members.
    pub record_idx: Vec<usize>,
}

/// Builds a batch from a homogeneous slice of sample references.
pub fn build_batch(samples: &[&EncodedSample]) -> Batch {
    build(samples.iter(), None)
}

/// Builds a batch while standardizing features with `scaler` during the
/// copy. One pass instead of clone-all + `FeatScaler::apply_all` +
/// `build_batch`. Element-for-element the math matches
/// [`FeatScaler::apply`], so results are bit-identical.
pub fn build_scaled_batch(samples: &[&EncodedSample], scaler: &FeatScaler) -> Batch {
    build(samples.iter(), Some(scaler))
}

/// [`build_scaled_batch`] straight from `idxs` (indices into `samples`) —
/// the engine's dispatch path, which must not materialize a fresh
/// `Vec<&EncodedSample>` per chunk.
///
/// # Panics
///
/// Panics if `idxs` is empty.
pub fn build_scaled_batch_idx<S: SampleLike>(
    samples: &[S],
    idxs: &[usize],
    scaler: &FeatScaler,
) -> Batch {
    build(idxs.iter().map(|&i| &samples[i]), Some(scaler))
}

/// The one batch builder: copies `members`, all of one leaf count, into a
/// dense batch, standardizing each feature with `scaler` when given.
fn build<S: SampleLike>(
    members: impl ExactSizeIterator<Item = S>,
    scaler: Option<&FeatScaler>,
) -> Batch {
    let b = members.len();
    let mut members = members.peekable();
    let l = members.peek().expect("a batch has members").leaf_count();
    let mut xs = Vec::with_capacity(b * l * N_ENTRY);
    let mut devs = Vec::with_capacity(b * N_DEVICE_FEATURES);
    let mut y_raw = Vec::with_capacity(b);
    let mut record_idx = Vec::with_capacity(b);
    for s in members {
        debug_assert_eq!(s.leaf_count(), l);
        match scaler {
            Some(sc) => xs.extend(s.x().iter().enumerate().map(|(j, &v)| {
                let col = j % N_ENTRY;
                (v - sc.mean[col]) / sc.std[col]
            })),
            None => xs.extend_from_slice(s.x()),
        }
        devs.extend_from_slice(s.dev());
        y_raw.push(s.y_raw());
        record_idx.push(s.record_idx());
    }
    Batch {
        leaf_count: l,
        x: Tensor::from_vec(xs, &[b, l, N_ENTRY]).expect("sample widths"),
        dev: Tensor::from_vec(devs, &[b, N_DEVICE_FEATURES]).expect("device widths"),
        y_raw,
        record_idx,
    }
}

/// Groups sample indices by leaf count, as a map: what training batching
/// ([`make_batches`]) and fine-tuning's per-domain grouping iterate. The
/// predict paths and the serving engine group with [`group_by_leaf_into`],
/// the same policy into reusable buffers.
pub fn group_by_leaf(samples: &[EncodedSample]) -> BTreeMap<usize, Vec<usize>> {
    // BTreeMap, deliberately: callers iterate the groups while drawing from
    // seeded RNGs (batch shuffling, fine-tuning's domain sampling), so the
    // iteration order must be deterministic for runs to be reproducible.
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, s) in samples.iter().enumerate() {
        groups.entry(s.leaf_count).or_default().push(i);
    }
    groups
}

/// Flat, reusable output of leaf-count grouping: the one allocation-free
/// representation the serving engine's dispatcher keeps as per-call
/// scratch (a `BTreeMap<usize, Vec<usize>>` costs one `Vec` per leaf
/// count per request).
#[derive(Debug, Default, Clone)]
pub struct LeafGroups {
    /// Sample indices, grouped by ascending leaf count, input order
    /// preserved within each group.
    pub order: Vec<usize>,
    /// One `(leaf_count, start, end)` half-open span per group, indexing
    /// [`LeafGroups::order`].
    pub spans: Vec<(usize, usize, usize)>,
}

/// [`group_by_leaf`] over any [`SampleLike`], into caller-owned scratch.
/// Exactly the same grouping policy (ascending leaf counts, stable input
/// order within a group — asserted against the map-based grouping in
/// tests), but writing into reusable buffers so a serving hot path
/// allocates nothing per request once warmed.
pub fn group_by_leaf_into<S: SampleLike>(samples: &[S], out: &mut LeafGroups) {
    out.order.clear();
    out.spans.clear();
    out.order.extend(0..samples.len());
    out.order
        .sort_unstable_by_key(|&i| (samples[i].leaf_count(), i));
    let mut start = 0usize;
    while start < out.order.len() {
        let leaf = samples[out.order[start]].leaf_count();
        let mut end = start + 1;
        while end < out.order.len() && samples[out.order[end]].leaf_count() == leaf {
            end += 1;
        }
        out.spans.push((leaf, start, end));
        start = end;
    }
}

/// The one leaf-bucket driver of the serial predict paths: groups `enc`
/// by leaf count ([`group_by_leaf_into`]), builds each group's batch
/// standardized by `scaler`, hands it to `run`, and scatters `run`'s rows
/// back to input order. A leaf group is one batch, whatever its size; the
/// first error `run` returns ends the call.
pub(crate) fn predict_by_leaf<S: SampleLike, T: Clone + Default, E>(
    enc: &[S],
    scaler: &FeatScaler,
    mut run: impl FnMut(&Batch) -> Result<Vec<T>, E>,
) -> Result<Vec<T>, E> {
    let mut groups = LeafGroups::default();
    group_by_leaf_into(enc, &mut groups);
    let mut out = vec![T::default(); enc.len()];
    for &(_, start, end) in &groups.spans {
        let idxs = &groups.order[start..end];
        let rows = run(&build_scaled_batch_idx(enc, idxs, scaler))?;
        for (&i, row) in idxs.iter().zip(rows) {
            out[i] = row;
        }
    }
    Ok(out)
}

/// Splits samples into shuffled leaf-count-homogeneous minibatches.
pub fn make_batches<'a>(
    samples: &'a [EncodedSample],
    batch_size: usize,
    rng: &mut impl Rng,
) -> Vec<Batch> {
    let mut batches = Vec::new();
    for (_, mut idxs) in group_by_leaf(samples) {
        idxs.shuffle(rng);
        for chunk in idxs.chunks(batch_size) {
            let refs: Vec<&'a EncodedSample> = chunk.iter().map(|&i| &samples[i]).collect();
            batches.push(build_batch(&refs));
        }
    }
    batches.shuffle(rng);
    batches
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::GenConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tir::zoo;

    fn ds() -> Dataset {
        Dataset::generate_with_networks(
            GenConfig {
                batch: 1,
                schedules_per_task: 2,
                devices: vec![devsim::t4()],
                seed: 1,
                noise_sigma: 0.0,
            },
            vec![zoo::bert_tiny(1)],
        )
    }

    #[test]
    fn encoding_covers_all_records() {
        let d = ds();
        let idx = d.device_records("T4");
        let enc = encode_records(&d, &idx, features::DEFAULT_THETA, true);
        assert_eq!(enc.len(), idx.len());
        for s in &enc {
            assert_eq!(s.x.len(), s.leaf_count * N_ENTRY);
            assert!(s.y_raw > 0.0);
        }
    }

    #[test]
    fn encoding_replays_the_direct_computation_bit_for_bit() {
        // Two devices, and two Θ in a row on one thread (the PE memo drops
        // its rows on a change): each sample as computed from scratch.
        let d = Dataset::generate_with_networks(
            GenConfig {
                batch: 1,
                schedules_per_task: 2,
                devices: vec![devsim::t4(), devsim::v100()],
                seed: 3,
                noise_sigma: 0.0,
            },
            vec![zoo::bert_tiny(1)],
        );
        let idx: Vec<usize> = (0..d.records.len()).rev().collect();
        for (theta, use_pe) in [
            (features::DEFAULT_THETA, true),
            (500.0, true),
            (500.0, false),
        ] {
            for (s, &i) in encode_records(&d, &idx, theta, use_pe).iter().zip(&idx) {
                let rec = &d.records[i];
                let ast = features::extract_compact_ast(&rec.program);
                let x = if use_pe {
                    ast.encoded_flat(theta)
                } else {
                    ast.flat()
                };
                let dev = device_features(&device_by_name(&rec.device).unwrap());
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&s.x), bits(&x), "record {i} theta {theta}");
                assert_eq!(bits(&s.dev), bits(&dev), "record {i}");
                assert_eq!((s.record_idx, s.leaf_count), (i, ast.n_leaves()));
            }
        }
    }

    #[test]
    fn pe_toggle_changes_features() {
        let d = ds();
        let idx = d.device_records("T4");
        let with = encode_records(&d, &idx[..4], features::DEFAULT_THETA, true);
        let without = encode_records(&d, &idx[..4], features::DEFAULT_THETA, false);
        assert!(with.iter().zip(&without).any(|(a, b)| a.x != b.x));
    }

    #[test]
    fn flat_grouping_matches_map_grouping_exactly() {
        // group_by_leaf_into is the serving engine's allocation-free twin
        // of the map-based grouping: same leaf order, same input order
        // within each group, same partition.
        let d = ds();
        let idx = d.device_records("T4");
        let enc = encode_records(&d, &idx, features::DEFAULT_THETA, true);
        let refs: Vec<&EncodedSample> = enc.iter().collect();
        let map = group_by_leaf(&enc);
        let mut flat = LeafGroups::default();
        group_by_leaf_into(&refs, &mut flat);
        assert_eq!(flat.spans.len(), map.len());
        for ((leaf, start, end), (map_leaf, map_idxs)) in flat.spans.iter().zip(&map) {
            assert_eq!(leaf, map_leaf);
            assert_eq!(&flat.order[*start..*end], map_idxs.as_slice());
        }
        // Reusing the scratch for a different request produces the same
        // result as a fresh grouping (buffers fully overwritten).
        let subset: Vec<&EncodedSample> = enc.iter().rev().take(7).collect();
        group_by_leaf_into(&subset, &mut flat);
        let mut fresh = LeafGroups::default();
        group_by_leaf_into(&subset, &mut fresh);
        assert_eq!(flat.order, fresh.order);
        assert_eq!(flat.spans, fresh.spans);
    }

    #[test]
    fn indexed_batch_building_matches_ref_building() {
        let d = ds();
        let idx = d.device_records("T4");
        let enc = encode_records(&d, &idx, features::DEFAULT_THETA, true);
        let scaler = FeatScaler::fit(&enc);
        let all: Vec<&EncodedSample> = enc.iter().collect();
        let (leaf, idxs) = group_by_leaf(&enc)
            .into_iter()
            .max_by_key(|(_, v)| v.len())
            .expect("non-empty dataset");
        let refs: Vec<&EncodedSample> = idxs.iter().map(|&i| all[i]).collect();
        let via_refs = build_scaled_batch(&refs, &scaler);
        let via_idx = build_scaled_batch_idx(&all, &idxs, &scaler);
        assert_eq!(via_idx.leaf_count, leaf);
        assert_eq!(via_idx.x.data(), via_refs.x.data());
        assert_eq!(via_idx.dev.data(), via_refs.dev.data());
        assert_eq!(via_idx.record_idx, via_refs.record_idx);
    }

    #[test]
    fn batches_are_homogeneous_and_cover_everything() {
        let d = ds();
        let idx = d.device_records("T4");
        let enc = encode_records(&d, &idx, features::DEFAULT_THETA, true);
        let mut rng = StdRng::seed_from_u64(3);
        let batches = make_batches(&enc, 8, &mut rng);
        let covered: usize = batches.iter().map(|b| b.record_idx.len()).sum();
        assert_eq!(covered, enc.len());
        for b in &batches {
            assert_eq!(b.x.shape(), &[b.record_idx.len(), b.leaf_count, N_ENTRY]);
            assert!(b.record_idx.len() <= 8);
        }
    }
}
