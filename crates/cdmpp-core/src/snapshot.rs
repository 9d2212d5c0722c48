//! Model + plan snapshots: one file that cold-starts a serving model.
//!
//! The paper serves predictions from a pre-trained checkpoint; this module
//! is that checkpoint format. A snapshot persists everything inference
//! needs — architecture hyper-parameters, the fitted label transform and
//! feature scaler, every named weight tensor, and (optionally) the
//! compiled per-leaf-count inference plans — so a runner restores a warm
//! [`InferenceModel`] with a single file load: **no training, no plan
//! recording** (counter-asserted by [`crate::SharedPredictor::plan_compile_count`]
//! staying at zero).
//!
//! ## File layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"CDMPSNAP"
//! 8       4     format version, u32 little-endian
//! 12      8     header length H, u64 little-endian
//! 20      H     JSON header (UTF-8): config, use_pe, transform, scaler,
//!               parameter names + shapes, and the optional trailing
//!               sections `spec_plans` and `quant` — a few KB, readable
//!               with `jq`
//! 20+H    8     plan section length P, u64 little-endian
//! 28+H    P     plan section: per plan, ascending by leaf count,
//!               `leaves: u32`, `len: u32`, then `len` bytes of
//!               [`Plan::encode_into`]; the entries fill P exactly
//! 28+H+P  4·Σ   weight blob: each *non-quantized* parameter's f32 data,
//!               little-endian, concatenated in header order
//! …       Σq    quantized blobs (only when `quant` is present): each
//!               entry's raw i8 elements, row-major, concatenated in
//!               `quant` order; one byte per element of the param shape
//! ```
//!
//! The header's optional sections are emitted only when non-empty, in a
//! fixed canonical order, so equal snapshots have equal bytes. When
//! `quant` is present, each entry carries a parameter's canonical
//! quantized encoding (i8 with per-column-group scales), which
//! **replaces** that parameter's f32 data in the weight blob — the f32
//! numbers are reconstructed as the blob's exact dequantization on decode,
//! which is both the file-size win and what keeps every executor bitwise
//! consistent. On load the encoding is installed into the store so serving
//! packs GEMM panels straight from the quantized bytes.
//!
//! Weights and plans travel as bytes, not JSON: raw little-endian f32 bits
//! and the fixed-width plan encoding of [`nn::plan::desc`], in which every
//! value has exactly one form. So a save → load round trip is bit-exact
//! and `save(load(x))` reproduces `x`'s bytes by construction. Plans are
//! pure data (steps + symbolic shapes + slot table). [`Snapshot::from_bytes`]
//! checks only how the plan section frames them; restore reads each one
//! with [`nn::Plan::decode`], which checks its tags, counts and lengths
//! against their caps and the bytes present, then validates what they say
//! — indices, slot capacities, per-step geometry, finite constants,
//! write-once ordering, and in-place aliasing discipline — so a hostile
//! file can never alias the replay arena out of bounds or trigger a panic.
//!
//! ## Versioning policy
//!
//! The version is bumped whenever the header schema, the weight encoding,
//! or the plan encoding changes shape. Loaders accept exactly the one
//! version they know ([`SNAPSHOT_VERSION`]); any other — newer, or written
//! by an earlier build — is a typed [`SnapshotError::UnsupportedVersion`]
//! whose message says which and what to do, never a garbled model. There
//! is no reader for an old version: a checkpoint is re-saved from its
//! model (`cdmpp train --save`). A golden fixture committed under
//! `tests/fixtures/` pins the format in CI so accidental drift breaks the
//! build instead of silently orphaning old snapshot files; the fixture of
//! the previous version stays next to it, pinned to that error.
//!
//! Every declared length is capped *before* any allocation happens
//! (header bytes, plan-section bytes, parameter count, tensor ranks and
//! dims, plan tables), so decoding a malicious file cannot balloon memory
//! either.
//!
//! ## What a load costs
//!
//! Restore draws no random numbers and holds each tensor once: the
//! architecture is rebuilt for its parameter names, shapes and order only
//! (`Predictor::shape_only`, the one constructor with `nn::ShapeOnly` as
//! its initializer) into a values-only store ([`nn::ParamStore::values_only`],
//! no gradient per weight), and the file's tensors are copied into it
//! once. Plan validation reuses one operand list across a plan's steps
//! and compares port shapes in place. Decode parses the
//! small header without allocating for its structure (object keys are
//! compared in place, enum tags borrowed), reads each plan off its bytes
//! with one allocation per list it holds — no text to scan, which was
//! most of a v2 decode — and reads the weight blob four bytes at a time
//! off one slice. Every check above still runs on every load.
//! `cargo run --release -p runtime --example cold_start_probe` prints
//! what each step costs.

use std::sync::Arc;

use learn::FittedTransform;
use nn::Plan;
use serde::{Deserialize, Serialize};
use tensor::{QuantMode, QuantizedMatrix, QUANT_GROUP};

use crate::batch::FeatScaler;
use crate::predictor::{PredictResult, Predictor, PredictorConfig};
use crate::trainer::{InferenceModel, TrainedModel};
use features::{N_DEVICE_FEATURES, N_ENTRY};

/// Magic bytes at offset 0 of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"CDMPSNAP";
/// The (only) format version this build reads and writes.
///
/// v3: plans left the JSON header for a binary plan section between the
/// header and the weight blob ([`Plan::encode_into`]). v2: plan
/// descriptors gained `Bmm.scale` and `fused_bmm_scales`, and numerics
/// moved to fused multiply-add accumulation, so v1 weights would no longer
/// reproduce the predictions they were snapshotted with.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Byte cap on the JSON header.
const MAX_HEADER_BYTES: usize = 1 << 26;
/// Byte cap on the plan section.
const MAX_PLAN_BYTES: usize = 1 << 26;
/// Cap on the number of parameters.
const MAX_PARAMS: usize = 1 << 16;
/// Cap on a tensor rank.
const MAX_RANK: usize = 8;
/// Cap on one tensor dimension.
const MAX_TENSOR_DIM: usize = 1 << 24;
/// Cap on one tensor's element count.
const MAX_TENSOR_NUMEL: usize = 1 << 26;
/// Cap on the total element count across all parameters.
const MAX_TOTAL_NUMEL: usize = 1 << 28;
/// Cap on the number of serialized plans.
const MAX_PLANS: usize = 1 << 10;
/// Cap on the number of specialization requests a file may carry.
const MAX_SPEC_PLANS: usize = 1 << 12;
/// Cap on a specialization request's batch class.
const MAX_SPEC_BATCH: usize = 1 << 12;
/// Cap on a loaded specialized plan's concrete arena (elements): bounds
/// what serving a file-declared batch class can make a worker allocate.
const MAX_SPEC_ARENA: usize = 1 << 28;
/// Caps on architecture hyper-parameters a snapshot may declare, so a
/// hostile config cannot make the architecture rebuild allocate absurd
/// weights before the parameter tables are even compared.
const MAX_CFG_WIDTH: usize = 1 << 14;
const MAX_CFG_LAYERS: usize = 256;
const MAX_CFG_LEAVES: usize = 1 << 10;

/// Typed failure reading, validating, or restoring a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// Filesystem failure (path carried in the message).
    Io(String),
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The file's format version is not the one this build reads (newer,
    /// or written by an earlier build).
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// The version this build reads.
        supported: u32,
    },
    /// The file ends before a declared section does.
    Truncated {
        /// Which section was being read.
        what: &'static str,
        /// Bytes the section needs.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// Bytes remain after the last declared section.
    TrailingBytes {
        /// How many extra bytes.
        extra: usize,
    },
    /// A declared length or constant exceeds its decode cap (checked
    /// before allocating).
    Limit {
        /// What was being counted.
        what: &'static str,
        /// The declared value.
        value: usize,
        /// The cap.
        max: usize,
    },
    /// The JSON header failed to parse or violates the schema.
    Header(String),
    /// A weight tensor is inconsistent with its declaration or with the
    /// architecture being restored.
    Param {
        /// The parameter's name.
        name: String,
        /// What is wrong with it.
        reason: String,
    },
    /// A weight value is NaN or infinite.
    NonFinite {
        /// The parameter's name.
        name: String,
        /// Index of the offending element.
        index: usize,
    },
    /// A serialized plan failed to decode or validate.
    Plan {
        /// The plan's leaf count.
        leaves: usize,
        /// What is wrong with it.
        reason: String,
    },
    /// The snapshot as a whole cannot restore a model (bad config, plan
    /// compilation failure while capturing, ...).
    Model(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(m) => write!(f, "snapshot I/O failed: {m}"),
            SnapshotError::BadMagic => write!(f, "not a cdmpp snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } if found < supported => write!(
                f,
                "snapshot format version {found} was written by an earlier build (this one \
                 reads version {supported}); re-save it with `cdmpp train --save`"
            ),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is newer than the supported {supported}"
            ),
            SnapshotError::Truncated { what, needed, have } => {
                write!(
                    f,
                    "snapshot truncated in {what}: need {needed} bytes, have {have}"
                )
            }
            SnapshotError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the weight section")
            }
            SnapshotError::Limit { what, value, max } => {
                write!(f, "declared {what} {value} exceeds the cap {max}")
            }
            SnapshotError::Header(m) => write!(f, "snapshot header invalid: {m}"),
            SnapshotError::Param { name, reason } => {
                write!(f, "parameter '{name}': {reason}")
            }
            SnapshotError::NonFinite { name, index } => {
                write!(
                    f,
                    "parameter '{name}' has a non-finite weight at index {index}"
                )
            }
            SnapshotError::Plan { leaves, reason } => {
                write!(f, "serialized plan for leaf count {leaves}: {reason}")
            }
            SnapshotError::Model(m) => write!(f, "snapshot cannot restore a model: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One parameter's declaration in the JSON header (its data lives in the
/// binary weight section).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ParamMeta {
    name: String,
    shape: Vec<usize>,
}

/// One serialized plan with the leaf count it serves.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanEntry {
    /// The leaf count this plan's embedding layer serves.
    pub leaves: usize,
    /// The plan's byte form ([`Plan::encode_into`]), decoded and
    /// validated on restore.
    pub plan: Vec<u8>,
}

impl PlanEntry {
    fn new(leaves: usize, plan: &Plan) -> PlanEntry {
        let mut bytes = Vec::new();
        plan.encode_into(&mut bytes);
        PlanEntry {
            leaves,
            plan: bytes,
        }
    }
}

/// One quantized weight declaration in the JSON header: which parameter,
/// which storage kind, and its dequantization scales. The quantized
/// element blob itself rides in the binary section, appended after the
/// f32 weight data in header order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct QuantMeta {
    /// Index into the header's `params`, strictly ascending.
    param: usize,
    /// Storage kind name: always `"i8"` ([`QuantMode::name`]); any other
    /// value is rejected on load.
    kind: String,
    /// Per-column-group dequantization scales.
    scales: Vec<f32>,
}

/// One parameter's canonical quantized encoding, as carried by a
/// [`Snapshot`]. The matrix is the source of truth: its blob is written
/// verbatim on save and re-installed verbatim on load (never
/// re-quantized — i8 re-quantization of dequantized values would drift),
/// and the parameter's f32 [`ParamTensor`] data must equal its
/// dequantization exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantTensor {
    /// Index of the parameter this encoding belongs to, strictly
    /// ascending across the snapshot's `quants`.
    pub param: usize,
    /// The canonical quantized values + scales.
    pub matrix: QuantizedMatrix,
}

/// One batch-specialization request: the restored model serves `leaves`
/// at batch size `batch` through a fold, and `batch` is one of its
/// registered classes.
///
/// Specialized plans bake in parameter *values* (prepacked weight
/// panels), so the snapshot does **not** ship their bytes — it records
/// the `(leaf count, batch class)` pairs. The loader validates each pair
/// against the (already validated) generic plan and registers the class;
/// the fold itself is built from the restored weights by the first replay
/// of its shape. Folding is pure constant propagation: no recording
/// happens and the result is bit-identical to specializing a live model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpecPlanEntry {
    /// The leaf count of the generic plan to specialize.
    pub leaves: usize,
    /// The batch class to fold it for.
    pub batch: usize,
}

/// The JSON header (everything but the plans and the weight data).
///
/// Serde impls are hand-written because `spec_plans` and `quant` are
/// **optional trailing sections**: each decodes as absent when missing and
/// is emitted only when non-empty, so a snapshot without them
/// re-serializes byte-identically.
#[derive(Debug, Clone)]
struct Header {
    config: PredictorConfig,
    use_pe: bool,
    transform: FittedTransform,
    scaler: FeatScaler,
    params: Vec<ParamMeta>,
    spec_plans: Vec<SpecPlanEntry>,
    quants: Vec<QuantMeta>,
}

impl Serialize for Header {
    fn serialize_json(&self, out: &mut String) {
        out.push_str("{\"config\":");
        self.config.serialize_json(out);
        out.push_str(",\"use_pe\":");
        self.use_pe.serialize_json(out);
        out.push_str(",\"transform\":");
        self.transform.serialize_json(out);
        out.push_str(",\"scaler\":");
        self.scaler.serialize_json(out);
        out.push_str(",\"params\":");
        self.params.serialize_json(out);
        if !self.spec_plans.is_empty() {
            out.push_str(",\"spec_plans\":");
            self.spec_plans.serialize_json(out);
        }
        if !self.quants.is_empty() {
            out.push_str(",\"quant\":");
            self.quants.serialize_json(out);
        }
        out.push('}');
    }
}

impl serde::Deserialize for Header {
    fn deserialize_json(p: &mut serde::de::Parser<'_>) -> Result<Self, serde::de::Error> {
        p.expect_byte(b'{')?;
        p.expect_key("config")?;
        let config = serde::Deserialize::deserialize_json(p)?;
        p.expect_byte(b',')?;
        p.expect_key("use_pe")?;
        let use_pe = serde::Deserialize::deserialize_json(p)?;
        p.expect_byte(b',')?;
        p.expect_key("transform")?;
        let transform = serde::Deserialize::deserialize_json(p)?;
        p.expect_byte(b',')?;
        p.expect_key("scaler")?;
        let scaler = serde::Deserialize::deserialize_json(p)?;
        p.expect_byte(b',')?;
        p.expect_key("params")?;
        let params = serde::Deserialize::deserialize_json(p)?;
        // Optional trailing sections. Canonical order is `spec_plans`
        // then `quant`, each at most once and each emitted only when
        // non-empty — the dispatch below enforces the order, so equal
        // headers always have equal bytes.
        let mut spec_plans: Vec<SpecPlanEntry> = Vec::new();
        let mut quants: Vec<QuantMeta> = Vec::new();
        let mut seen_quant = false;
        let mut seen_spec = false;
        while p.peek() == Some(b',') {
            p.expect_byte(b',')?;
            let key = p.parse_str()?;
            p.expect_byte(b':')?;
            match &*key {
                "spec_plans" if !seen_spec && !seen_quant => {
                    spec_plans = serde::Deserialize::deserialize_json(p)?;
                    seen_spec = true;
                }
                "quant" if !seen_quant => {
                    quants = serde::Deserialize::deserialize_json(p)?;
                    seen_quant = true;
                }
                other => {
                    return Err(p.error(format!("unexpected header field '{other}'")));
                }
            }
        }
        p.expect_byte(b'}')?;
        Ok(Header {
            config,
            use_pe,
            transform,
            scaler,
            params,
            spec_plans,
            quants,
        })
    }
}

/// One named weight tensor of a decoded snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamTensor {
    /// The parameter's name (must match the rebuilt architecture's).
    pub name: String,
    /// The tensor's shape.
    pub shape: Vec<usize>,
    /// Row-major f32 data, `shape.iter().product()` elements.
    pub data: Vec<f32>,
}

/// A decoded (or about-to-be-written) snapshot: the paper's "pre-trained
/// checkpoint" as plain data.
///
/// Produced by [`Snapshot::capture`] / [`Snapshot::from_inference`] on the
/// save side and [`Snapshot::from_bytes`] on the load side; consumed by
/// [`InferenceModel::from_snapshot`]. Serialization is canonical: the same
/// snapshot always produces the same bytes, and `from_bytes` requires
/// plans in strictly ascending leaf order, so
/// `Snapshot::from_inference(&load(x)).to_bytes() == x`.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Architecture hyper-parameters.
    pub config: PredictorConfig,
    /// Whether positional encoding was used at training time.
    pub use_pe: bool,
    /// The fitted label transform.
    pub transform: FittedTransform,
    /// The fitted input-feature standardizer.
    pub scaler: FeatScaler,
    /// Named weight tensors, in parameter-store order.
    pub params: Vec<ParamTensor>,
    /// Serialized inference plans, ascending by leaf count. May be empty
    /// (weights-only snapshot): missing plans are recorded lazily on first
    /// use after load, exactly like a freshly trained model.
    pub plans: Vec<PlanEntry>,
    /// Batch-specialization requests, ascending by `(leaves, batch)`.
    /// Optional (older files have none): each entry names a shipped
    /// generic plan and a batch class the restored model registers — what
    /// a hot swap folds before it publishes the model.
    pub spec_plans: Vec<SpecPlanEntry>,
    /// Canonical quantized encodings for a subset of the parameters,
    /// ascending by param index. Optional (pre-quantization files have
    /// none). Each entry's parameter must be rank-2 and its f32 data in
    /// `params` must equal the matrix's dequantization bit-for-bit; on
    /// disk the quantized blob **replaces** the parameter's f32 data (the
    /// f32 numbers are reconstructed by dequantizing on decode), which is
    /// where the file-size reduction comes from.
    pub quants: Vec<QuantTensor>,
}

impl Snapshot {
    /// Captures a trained model plus compiled plans for the given leaf
    /// counts (compiling any that are not cached yet, so the snapshot ships
    /// pre-fused plans to runners that never see the recorder).
    /// Its weights stay f32, like [`TrainedModel::freeze`]'s; see
    /// [`Snapshot::capture_quantized`].
    pub fn capture(model: &TrainedModel, plan_leaves: &[usize]) -> PredictResult<Snapshot> {
        Snapshot::capture_quantized(model, plan_leaves, QuantMode::F32)
    }

    /// [`Snapshot::capture`] with an explicit weight-storage mode. With
    /// [`QuantMode::F32`] the snapshot is the classic full-precision
    /// checkpoint; with `I8` every rank-2 parameter is quantized
    /// once here and the snapshot carries both the canonical quantized
    /// blob and its exact dequantization as the f32 weights — so loading
    /// the file and freezing the model in-process produce bitwise
    /// identical serving weights, and the file round-trips canonically.
    pub fn capture_quantized(
        model: &TrainedModel,
        plan_leaves: &[usize],
        mode: QuantMode,
    ) -> PredictResult<Snapshot> {
        let p = &model.predictor;
        let mut plans = Vec::with_capacity(plan_leaves.len());
        let mut leaves: Vec<usize> = plan_leaves.to_vec();
        leaves.sort_unstable();
        leaves.dedup();
        for l in leaves {
            plans.push(PlanEntry::new(l, &*p.plan_for(l)?));
        }
        let mut params = store_params(&p.store);
        let mut quants = Vec::new();
        if mode == QuantMode::I8 {
            // Quantize rank-2 parameters exactly like
            // `ParamStore::quantize_weights` does at freeze time, and
            // overwrite the captured f32 data with the dequantization so
            // the two sections agree bit-for-bit.
            for (idx, pt) in params.iter_mut().enumerate() {
                if pt.shape.len() != 2 {
                    continue;
                }
                let q = QuantizedMatrix::quantize(&pt.data, pt.shape[0], pt.shape[1]);
                pt.data = q.dequantize();
                quants.push(QuantTensor {
                    param: idx,
                    matrix: q,
                });
            }
        }
        Ok(Snapshot {
            config: p.config().clone(),
            use_pe: model.use_pe,
            transform: model.transform.clone(),
            scaler: model.scaler.clone(),
            params,
            plans,
            spec_plans: Vec::new(),
            quants,
        })
    }

    /// Adds specialization requests for every captured plan × every given
    /// batch class (deduplicated, canonical order), so a model loaded
    /// from the snapshot has those classes registered. The serving
    /// default is [`crate::DEFAULT_MAX_BATCH`] plus single-sample batches.
    ///
    /// The loader's constraints are enforced here too — classes must be
    /// in `1..=4096` and at most [`crate::predictor::MAX_BATCH_CLASSES`]
    /// distinct — so a snapshot that saves is a snapshot that loads.
    pub fn with_batch_classes(mut self, classes: &[usize]) -> Result<Snapshot, SnapshotError> {
        let mut distinct: Vec<usize> = classes.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        for &batch in &distinct {
            if batch == 0 || batch > MAX_SPEC_BATCH {
                return Err(SnapshotError::Limit {
                    what: "batch class",
                    value: batch,
                    max: MAX_SPEC_BATCH,
                });
            }
        }
        if distinct.len() > crate::predictor::MAX_BATCH_CLASSES {
            return Err(SnapshotError::Limit {
                what: "distinct batch classes",
                value: distinct.len(),
                max: crate::predictor::MAX_BATCH_CLASSES,
            });
        }
        // The loader also caps the total entry count; enforce it here so
        // a snapshot that saves is a snapshot that loads (reachable with
        // many-leaf models × several classes).
        let total = self.plans.len().saturating_mul(distinct.len());
        if total > MAX_SPEC_PLANS {
            return Err(SnapshotError::Limit {
                what: "specialized-plan count",
                value: total,
                max: MAX_SPEC_PLANS,
            });
        }
        let mut entries: Vec<SpecPlanEntry> = self
            .plans
            .iter()
            .flat_map(|p| {
                distinct.iter().map(move |&batch| SpecPlanEntry {
                    leaves: p.leaves,
                    batch,
                })
            })
            .collect();
        entries.sort_unstable_by_key(|e| (e.leaves, e.batch));
        self.spec_plans = entries;
        Ok(self)
    }

    /// [`Snapshot::capture`] with plans for **every** supported leaf count
    /// — the full "one-file cold start" checkpoint.
    pub fn capture_all(model: &TrainedModel) -> PredictResult<Snapshot> {
        let all: Vec<usize> = (1..=model.predictor.config().max_leaves).collect();
        Snapshot::capture(model, &all)
    }

    /// Captures a frozen model, including whichever plans its shared cache
    /// holds (for a snapshot-loaded model: exactly the plans of the file
    /// it came from).
    pub fn from_inference(model: &InferenceModel) -> Snapshot {
        // Re-emit the store's quantized encodings verbatim — never
        // re-quantize (i8 quantization of already-dequantized values is
        // not idempotent), so a loaded file reserializes byte-identically.
        let store = model.predictor.params();
        let quants = store
            .ids()
            .enumerate()
            .filter_map(|(idx, id)| {
                store.quant(id).map(|q| QuantTensor {
                    param: idx,
                    matrix: (**q).clone(),
                })
            })
            .collect();
        Snapshot {
            config: model.predictor.config().clone(),
            use_pe: model.use_pe,
            transform: model.transform.clone(),
            scaler: model.scaler.clone(),
            params: store_params(store),
            plans: model
                .predictor
                .compiled_plans()
                .into_iter()
                .map(|(leaves, plan)| PlanEntry::new(leaves, &plan))
                .collect(),
            spec_plans: model
                .predictor
                .specialized_plans()
                .into_iter()
                .map(|(leaves, batch)| SpecPlanEntry { leaves, batch })
                .collect(),
            quants,
        }
    }

    /// Serializes to the versioned byte format (deterministic: equal
    /// snapshots produce equal bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let header = Header {
            config: self.config.clone(),
            use_pe: self.use_pe,
            transform: self.transform.clone(),
            scaler: self.scaler.clone(),
            params: self
                .params
                .iter()
                .map(|p| ParamMeta {
                    name: p.name.clone(),
                    shape: p.shape.clone(),
                })
                .collect(),
            spec_plans: self.spec_plans.clone(),
            quants: self
                .quants
                .iter()
                .map(|q| QuantMeta {
                    param: q.param,
                    kind: QuantMode::I8.name().to_string(),
                    scales: q.matrix.scales().to_vec(),
                })
                .collect(),
        };
        let json = serde_json::to_string(&header).expect("header serialization is infallible");
        let weight_bytes: usize = self.params.iter().map(|p| p.data.len() * 4).sum();
        let mut out = Vec::with_capacity(20 + json.len() + weight_bytes);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(json.len() as u64).to_le_bytes());
        out.extend_from_slice(json.as_bytes());
        // The plan section: its byte length, then per plan the leaf count,
        // the entry's byte length and the entry. Lengths are patched in
        // once known; a count no `u32` holds is written as `u32::MAX`,
        // which no loader accepts.
        let wire_u32 = |v: usize| u32::try_from(v).unwrap_or(u32::MAX).to_le_bytes();
        let section_at = out.len();
        out.extend_from_slice(&[0; 8]);
        for entry in &self.plans {
            out.extend_from_slice(&wire_u32(entry.leaves));
            let entry_at = out.len() + 4;
            out.extend_from_slice(&[0; 4]);
            out.extend_from_slice(&entry.plan);
            let len = wire_u32(out.len() - entry_at);
            out[entry_at - 4..entry_at].copy_from_slice(&len);
        }
        let section_len = (out.len() - section_at - 8) as u64;
        out[section_at..section_at + 8].copy_from_slice(&section_len.to_le_bytes());
        // A quantized parameter's f32 data is *replaced* on disk by its
        // quantized blob (the f32 numbers are its exact dequantization,
        // reconstructed on decode) — that substitution is the file-size
        // win. Non-quantized parameters write f32 as always.
        let quantized: std::collections::HashSet<usize> =
            self.quants.iter().map(|q| q.param).collect();
        for (idx, p) in self.params.iter().enumerate() {
            if quantized.contains(&idx) {
                continue;
            }
            for v in &p.data {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        // Quantized element blobs ride after the f32 weights, in header
        // order; lengths are implied by each entry's (kind, shape).
        for q in &self.quants {
            out.extend_from_slice(q.matrix.data());
        }
        out
    }

    /// Decodes the byte format, validating structure and every declared
    /// length **before** allocating for it. Plans are carried through as
    /// bytes here, their framing checked (section and entry lengths, leaf
    /// order); [`InferenceModel::from_snapshot`] decodes and validates
    /// each against the rebuilt architecture.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        let need = |what, needed, have| {
            if needed > have {
                Err(SnapshotError::Truncated { what, needed, have })
            } else {
                Ok(())
            }
        };
        need("fixed prelude", 20, bytes.len())?;
        if bytes[..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let header_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        if header_len > MAX_HEADER_BYTES as u64 {
            return Err(SnapshotError::Limit {
                what: "header length",
                value: header_len.min(usize::MAX as u64) as usize,
                max: MAX_HEADER_BYTES,
            });
        }
        let header_len = header_len as usize;
        need("header", 20 + header_len, bytes.len())?;
        let json = std::str::from_utf8(&bytes[20..20 + header_len])
            .map_err(|e| SnapshotError::Header(format!("header is not UTF-8: {e}")))?;
        let header: Header =
            serde_json::from_str(json).map_err(|e| SnapshotError::Header(e.to_string()))?;

        // Parameter declarations: cap everything before touching the blob.
        if header.params.len() > MAX_PARAMS {
            return Err(SnapshotError::Limit {
                what: "parameter count",
                value: header.params.len(),
                max: MAX_PARAMS,
            });
        }
        let mut total_numel = 0usize;
        for p in &header.params {
            if p.shape.len() > MAX_RANK {
                return Err(SnapshotError::Limit {
                    what: "tensor rank",
                    value: p.shape.len(),
                    max: MAX_RANK,
                });
            }
            let mut numel = 1usize;
            for &d in &p.shape {
                if d == 0 || d > MAX_TENSOR_DIM {
                    return Err(SnapshotError::Limit {
                        what: "tensor dim",
                        value: d,
                        max: MAX_TENSOR_DIM,
                    });
                }
                numel = numel.saturating_mul(d);
            }
            if numel > MAX_TENSOR_NUMEL {
                return Err(SnapshotError::Limit {
                    what: "tensor elements",
                    value: numel,
                    max: MAX_TENSOR_NUMEL,
                });
            }
            total_numel += numel;
        }
        if total_numel > MAX_TOTAL_NUMEL {
            return Err(SnapshotError::Limit {
                what: "total weight elements",
                value: total_numel,
                max: MAX_TOTAL_NUMEL,
            });
        }
        if header.spec_plans.len() > MAX_SPEC_PLANS {
            return Err(SnapshotError::Limit {
                what: "specialized-plan count",
                value: header.spec_plans.len(),
                max: MAX_SPEC_PLANS,
            });
        }
        if header
            .spec_plans
            .windows(2)
            .any(|w| (w[0].leaves, w[0].batch) >= (w[1].leaves, w[1].batch))
        {
            return Err(SnapshotError::Header(
                "specialized plans must be in strictly ascending (leaves, batch) order".into(),
            ));
        }

        // Quantization declarations: every blob length is derived from an
        // already-capped parameter shape and checked here, before any
        // allocation sized by the file.
        if header.quants.len() > header.params.len() {
            return Err(SnapshotError::Limit {
                what: "quantized-parameter count",
                value: header.quants.len(),
                max: header.params.len(),
            });
        }
        if header.quants.windows(2).any(|w| w[0].param >= w[1].param) {
            return Err(SnapshotError::Header(
                "quantized parameters must be in strictly ascending index order".into(),
            ));
        }
        // One byte per quantized element.
        let mut quant_numel = 0usize;
        let mut quant_dims = Vec::with_capacity(header.quants.len());
        for q in &header.quants {
            let param_err = |name: &str, reason: String| SnapshotError::Param {
                name: name.to_string(),
                reason,
            };
            let meta = header.params.get(q.param).ok_or_else(|| {
                SnapshotError::Header(format!(
                    "quant entry references parameter {} of {}",
                    q.param,
                    header.params.len()
                ))
            })?;
            if meta.shape.len() != 2 {
                return Err(param_err(
                    &meta.name,
                    format!(
                        "quantized but rank {} (only rank-2 supported)",
                        meta.shape.len()
                    ),
                ));
            }
            if q.kind != QuantMode::I8.name() {
                return Err(param_err(
                    &meta.name,
                    format!("unknown quant kind '{}'", q.kind),
                ));
            }
            let (k, n) = (meta.shape[0], meta.shape[1]);
            let want_scales = n.div_ceil(QUANT_GROUP);
            if q.scales.len() != want_scales {
                return Err(param_err(
                    &meta.name,
                    format!(
                        "{} scales declared, i8 kind needs {want_scales} for n = {n}",
                        q.scales.len()
                    ),
                ));
            }
            let blob_len = k.checked_mul(n).ok_or(SnapshotError::Limit {
                what: "quantized blob bytes",
                value: usize::MAX,
                max: MAX_TENSOR_NUMEL * 4,
            })?;
            quant_numel += blob_len;
            quant_dims.push((k, n));
        }

        // The binary section must match the declarations exactly: the f32
        // data of every *non-quantized* parameter first (a quantized
        // parameter's f32 data lives only as its blob's dequantization),
        // then each quantized blob in header order.
        let quantized: std::collections::HashSet<usize> =
            header.quants.iter().map(|q| q.param).collect();
        let (plans, blob) = decode_plan_section(&bytes[20 + header_len..])?;
        let needed = (total_numel - quant_numel) * 4 + quant_numel;
        need("weight data", needed, blob.len())?;
        if blob.len() > needed {
            return Err(SnapshotError::TrailingBytes {
                extra: blob.len() - needed,
            });
        }
        let mut params = Vec::with_capacity(header.params.len());
        let mut at = 0usize;
        for (idx, meta) in header.params.into_iter().enumerate() {
            if quantized.contains(&idx) {
                // Filled in below, from the dequantized blob.
                params.push(ParamTensor {
                    name: meta.name,
                    shape: meta.shape,
                    data: Vec::new(),
                });
                continue;
            }
            let numel: usize = meta.shape.iter().product();
            let data: Vec<f32> = blob[at..at + numel * 4]
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes")))
                .collect();
            if let Some(index) = data.iter().position(|v| !v.is_finite()) {
                return Err(SnapshotError::NonFinite {
                    name: meta.name,
                    index,
                });
            }
            at += numel * 4;
            params.push(ParamTensor {
                name: meta.name,
                shape: meta.shape,
                data,
            });
        }
        let mut quants = Vec::with_capacity(header.quants.len());
        for (q, (k, n)) in header.quants.into_iter().zip(quant_dims) {
            let data = blob[at..at + k * n].to_vec();
            at += k * n;
            // `from_parts` bounds every scale and every element, so the
            // dequantization below is always finite — the quantized path
            // has no NaN smuggling lane.
            let matrix = QuantizedMatrix::from_parts(k, n, data, q.scales).map_err(|reason| {
                SnapshotError::Param {
                    name: params[q.param].name.clone(),
                    reason,
                }
            })?;
            params[q.param].data = matrix.dequantize();
            quants.push(QuantTensor {
                param: q.param,
                matrix,
            });
        }
        Ok(Snapshot {
            config: header.config,
            use_pe: header.use_pe,
            transform: header.transform,
            scaler: header.scaler,
            params,
            plans,
            spec_plans: header.spec_plans,
            quants,
        })
    }

    /// Writes the snapshot to a file, atomically: the bytes go to a
    /// temporary sibling first and are renamed over the destination, so a
    /// crash or full disk mid-write can never destroy an existing good
    /// checkpoint or leave a truncated file at the path. The sibling's
    /// name is unique per call, so threads saving to one path at once
    /// each rename a whole file into place.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), SnapshotError> {
        static SAVES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = path.as_ref();
        let io_err =
            |e: std::io::Error| SnapshotError::Io(format!("writing {}: {e}", path.display()));
        // Relaxed: the counter only has to hand out distinct numbers.
        let nth = SAVES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}.{nth}", std::process::id()));
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.to_bytes()).map_err(io_err)?;
        std::fs::rename(&tmp, path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            io_err(e)
        })
    }

    /// Reads and decodes a snapshot file.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Snapshot, SnapshotError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| SnapshotError::Io(format!("reading {}: {e}", path.display())))?;
        Snapshot::from_bytes(&bytes)
    }
}

/// Reads the plan section off the front of `rest` (everything after the
/// JSON header) and returns its plans with what follows it. Every length
/// is checked against its cap and the bytes present before it is used;
/// an entry's bytes stay bytes — [`Plan::decode`] reads them at restore.
fn decode_plan_section(rest: &[u8]) -> Result<(Vec<PlanEntry>, &[u8]), SnapshotError> {
    let truncated = |what, needed, have| SnapshotError::Truncated { what, needed, have };
    let (len, rest) = rest
        .split_first_chunk::<8>()
        .ok_or_else(|| truncated("plan section length", 8, rest.len()))?;
    let len = u64::from_le_bytes(*len);
    if len > MAX_PLAN_BYTES as u64 {
        return Err(SnapshotError::Limit {
            what: "plan section length",
            value: len.min(usize::MAX as u64) as usize,
            max: MAX_PLAN_BYTES,
        });
    }
    let (mut section, blob) = rest
        .split_at_checked(len as usize)
        .ok_or_else(|| truncated("plan section", len as usize, rest.len()))?;
    let mut plans: Vec<PlanEntry> = Vec::new();
    let mut prev_at = 0;
    while !section.is_empty() {
        let at = len as usize - section.len();
        let (entry, next) = next_entry(section, at, &plans).map_err(|e| match plans.last() {
            // An entry that declares the wrong length misframes the next
            // one: it is the one to name when its bytes are not one plan.
            Some(prev) => plan_bytes_fault(&prev.plan).map_or(e, |reason| SnapshotError::Plan {
                leaves: prev.leaves,
                reason: format!("entry at plan-section offset {prev_at}: {reason}"),
            }),
            None => e,
        })?;
        plans.push(entry);
        prev_at = at;
        section = next;
    }
    Ok((plans, blob))
}

/// Frames the plan-section entry at the front of `section`, `at` bytes
/// into the section: the plan count, the entry's declared length and the
/// leaf order after `plans`.
fn next_entry<'a>(
    section: &'a [u8],
    at: usize,
    plans: &[PlanEntry],
) -> Result<(PlanEntry, &'a [u8]), SnapshotError> {
    if plans.len() == MAX_PLANS {
        return Err(SnapshotError::Limit {
            what: "plan count",
            value: MAX_PLANS + 1,
            max: MAX_PLANS,
        });
    }
    let (head, body) = section
        .split_first_chunk::<8>()
        .ok_or(SnapshotError::Truncated {
            what: "plan entry",
            needed: 8,
            have: section.len(),
        })?;
    let word = |i: usize| u32::from_le_bytes(head[i..i + 4].try_into().expect("4 bytes"));
    let (leaves, entry_len) = (word(0) as usize, word(4) as usize);
    let (plan, next) = body
        .split_at_checked(entry_len)
        .ok_or_else(|| SnapshotError::Plan {
            leaves,
            reason: format!(
                "entry at plan-section offset {at}: declares {entry_len} bytes, {} remain",
                body.len()
            ),
        })?;
    if plans.last().is_some_and(|prev| prev.leaves >= leaves) {
        return Err(SnapshotError::Header(
            "plans must be in strictly ascending leaf order".into(),
        ));
    }
    let plan = plan.to_vec();
    Ok((PlanEntry { leaves, plan }, next))
}

/// Why an entry's bytes are not exactly one plan's byte form, if they are
/// not: what [`Plan::decode`] would refuse in the bytes alone, or bytes
/// left after the plan.
fn plan_bytes_fault(bytes: &[u8]) -> Option<String> {
    match nn::plan::desc::plan_len(bytes) {
        Err(e) => Some(e.to_string()),
        Ok(n) if n < bytes.len() => Some(trailing_bytes(bytes.len() - n)),
        Ok(_) => None,
    }
}

/// Why a plan's port does not have the shape this model needs at batch
/// size `b`, if it does not; compared dim by dim, in place.
fn port_fault(
    what: &str,
    got: impl Iterator<Item = usize> + Clone,
    want: &[usize],
    b: usize,
) -> Option<String> {
    (!got.clone().eq(want.iter().copied())).then(|| {
        let got: Vec<usize> = got.collect();
        format!("{what} has shape {got:?} at B={b}, this model needs {want:?}")
    })
}

/// The index of `v`'s first NaN or infinity, if it has one. The common,
/// all-finite case is one branch-free pass the compiler vectorizes.
fn first_non_finite(v: &[f32]) -> Option<usize> {
    if v.iter().fold(true, |ok, x| ok & x.is_finite()) {
        return None;
    }
    v.iter().position(|x| !x.is_finite())
}

fn trailing_bytes(n: usize) -> String {
    format!("{n} trailing bytes after the plan")
}

fn store_params(store: &nn::ParamStore) -> Vec<ParamTensor> {
    store
        .ids()
        .map(|id| ParamTensor {
            name: store.name(id).to_string(),
            shape: store.value(id).shape().to_vec(),
            data: store.value(id).data().to_vec(),
        })
        .collect()
}

/// Sanity caps on a deserialized config so the architecture rebuild cannot
/// be made to allocate attacker-sized weight tensors.
fn validate_config(cfg: &PredictorConfig) -> Result<(), SnapshotError> {
    let widths = [
        ("d_model", cfg.d_model),
        ("d_ff", cfg.d_ff),
        ("d_emb", cfg.d_emb),
        ("d_dev", cfg.d_dev),
        ("dec_hidden", cfg.dec_hidden),
        ("heads", cfg.heads),
    ];
    for (name, v) in widths {
        if v == 0 || v > MAX_CFG_WIDTH {
            return Err(SnapshotError::Model(format!(
                "config {name} = {v} outside 1..={MAX_CFG_WIDTH}"
            )));
        }
    }
    for (name, v) in [("n_layers", cfg.n_layers), ("dec_layers", cfg.dec_layers)] {
        if v == 0 || v > MAX_CFG_LAYERS {
            return Err(SnapshotError::Model(format!(
                "config {name} = {v} outside 1..={MAX_CFG_LAYERS}"
            )));
        }
    }
    if cfg.max_leaves == 0 || cfg.max_leaves > MAX_CFG_LEAVES {
        return Err(SnapshotError::Model(format!(
            "config max_leaves = {} outside 1..={MAX_CFG_LEAVES}",
            cfg.max_leaves
        )));
    }
    // The attention layers assert this; a hostile config must become a
    // typed error here, not a panic inside the rebuild.
    if !cfg.d_model.is_multiple_of(cfg.heads) {
        return Err(SnapshotError::Model(format!(
            "config d_model = {} is not divisible by heads = {}",
            cfg.d_model, cfg.heads
        )));
    }
    if !cfg.theta.is_finite() {
        return Err(SnapshotError::Model("config theta is not finite".into()));
    }
    // Per-field caps still compose into terabyte-scale architectures
    // (d_model and n_layers maxed together); bound the *total* scalar
    // count the config implies before the rebuild allocates it. The
    // estimate overshoots slightly, which is fine: any architecture it
    // rejects could never match a weight section that fits
    // `MAX_TOTAL_NUMEL` anyway.
    let scalars = approx_arch_scalars(cfg);
    if scalars > MAX_TOTAL_NUMEL {
        return Err(SnapshotError::Limit {
            what: "config-implied weight elements",
            value: scalars,
            max: MAX_TOTAL_NUMEL,
        });
    }
    Ok(())
}

/// Upper bound on the scalar parameter count the architecture in `cfg`
/// would allocate (saturating, so hostile configs cannot overflow it).
fn approx_arch_scalars(cfg: &PredictorConfig) -> usize {
    let m = usize::saturating_mul;
    let (d, ff) = (cfg.d_model, cfg.d_ff);
    // Attention (4 d² + 4d) + feed-forward (2 d·ff + ff + d) + layer
    // norms (4d), rounded up.
    let enc_layer = m(4, m(d, d)) + m(2, m(d, ff)) + m(16, d) + m(2, ff);
    let leaf_embed = m(m(cfg.max_leaves, cfg.max_leaves + 1), m(d, cfg.d_emb + 1));
    let dev_mlp = m(N_DEVICE_FEATURES + cfg.d_dev + 4, m(2, cfg.d_dev));
    let dec_in = cfg.d_emb + cfg.d_dev + cfg.dec_hidden;
    let decoder = m(cfg.dec_layers + 1, m(dec_in, cfg.dec_hidden + 1));
    m(N_ENTRY + 2, d)
        .saturating_add(m(cfg.n_layers, enc_layer))
        .saturating_add(leaf_embed)
        .saturating_add(dev_mlp)
        .saturating_add(decoder)
}

impl TrainedModel {
    /// Saves this model as a snapshot with pre-compiled plans for every
    /// supported leaf count, plus specialization requests for the default
    /// serving batch classes (`1` and [`crate::DEFAULT_MAX_BATCH`]) — the
    /// paper's checkpoint workflow. Loading it back
    /// ([`InferenceModel::from_snapshot_file`]) restores a serving model
    /// with zero training and zero plan recording, the engine's stable
    /// chunk sizes registered as its classes.
    pub fn save_snapshot(&self, path: impl AsRef<std::path::Path>) -> Result<(), SnapshotError> {
        Snapshot::capture_all(self)
            .map_err(|e| SnapshotError::Model(format!("capturing plans failed: {e}")))?
            .with_batch_classes(&[1, crate::DEFAULT_MAX_BATCH])?
            .save(path)
    }
}

impl InferenceModel {
    /// Restores a serving model from a decoded snapshot.
    ///
    /// Rebuilds the architecture from the snapshot's config, checks every
    /// declared weight tensor against it (name, shape, element count,
    /// finiteness — the snapshot may be hand-built rather than decoded, so
    /// weights are re-checked here; mismatches are typed
    /// [`SnapshotError::Param`]s), copies each tensor into the
    /// values-only store exactly once, and hands the store to the served
    /// `Arc` by move
    /// ([`Predictor::into_shared`] — no `freeze()`-style second weight
    /// copy). It also seeds the shared plan cache from the file's plans,
    /// each decoded and validated here; leaf counts without a serialized plan
    /// fall back to lazy recording on first use, exactly like a freshly
    /// trained model.
    pub fn from_snapshot(snap: &Snapshot) -> Result<InferenceModel, SnapshotError> {
        validate_config(&snap.config)?;
        snap.transform
            .validate()
            .map_err(|e| SnapshotError::Header(format!("label transform: {e}")))?;
        if snap.scaler.mean.len() != N_ENTRY || snap.scaler.std.len() != N_ENTRY {
            return Err(SnapshotError::Header(format!(
                "feature scaler has {} / {} columns, expected {N_ENTRY}",
                snap.scaler.mean.len(),
                snap.scaler.std.len()
            )));
        }
        let has_bad = |v: &[f32]| v.iter().any(|x| !x.is_finite());
        if has_bad(&snap.scaler.mean) || has_bad(&snap.scaler.std) {
            return Err(SnapshotError::Header(
                "feature scaler has non-finite statistics".into(),
            ));
        }
        // `FeatScaler::fit` floors std at 1e-6, so a zero or negative
        // column can only come from a corrupt file — and would divide
        // every feature into NaN/inf.
        if snap.scaler.std.iter().any(|&s| s <= 0.0) {
            return Err(SnapshotError::Header(
                "feature scaler has a non-positive std column".into(),
            ));
        }

        // Rebuild the architecture — names, shapes and order only, no
        // weights drawn, no gradients — then copy the snapshot's tensors
        // into the architecture's own, so each tensor is held once.
        let mut predictor = Predictor::shape_only(snap.config.clone());
        if predictor.store.len() != snap.params.len() {
            return Err(SnapshotError::Model(format!(
                "architecture has {} parameters, snapshot declares {}",
                predictor.store.len(),
                snap.params.len()
            )));
        }
        let ids: Vec<nn::ParamId> = predictor.store.ids().collect();
        for (&id, pt) in ids.iter().zip(&snap.params) {
            let mismatch = |reason: String| SnapshotError::Param {
                name: pt.name.clone(),
                reason,
            };
            let expect = predictor.store.value(id);
            if predictor.store.name(id) != pt.name {
                return Err(mismatch(format!(
                    "expected parameter '{}' at this position",
                    predictor.store.name(id)
                )));
            }
            if expect.shape() != pt.shape.as_slice() {
                return Err(mismatch(format!(
                    "shape {:?} does not match the architecture's {:?}",
                    pt.shape,
                    expect.shape()
                )));
            }
            if let Some(index) = first_non_finite(&pt.data) {
                return Err(SnapshotError::NonFinite {
                    name: pt.name.clone(),
                    index,
                });
            }
            if pt.data.len() != expect.numel() {
                return Err(mismatch(format!(
                    "data length {} does not match shape {:?}",
                    pt.data.len(),
                    pt.shape
                )));
            }
            predictor
                .store
                .value_mut(id)
                .data_mut()
                .copy_from_slice(&pt.data);
        }

        // Install the file's canonical quantized encodings. The snapshot
        // may be hand-built rather than decoded, so each entry is
        // re-checked here; the f32 section must be the blob's exact
        // dequantization — that is what keeps reserialization
        // byte-canonical and every executor (quantized GEMMs and the
        // generic f32 fallbacks alike) bitwise consistent.
        let mut last_q: Option<usize> = None;
        for q in &snap.quants {
            if last_q.is_some_and(|prev| prev >= q.param) {
                return Err(SnapshotError::Header(
                    "quantized parameters must be in strictly ascending index order".into(),
                ));
            }
            last_q = Some(q.param);
            let (&id, pt) = ids
                .get(q.param)
                .zip(snap.params.get(q.param))
                .ok_or_else(|| {
                    SnapshotError::Header(format!(
                        "quant entry references parameter {} of {}",
                        q.param,
                        ids.len()
                    ))
                })?;
            let qerr = |reason: String| SnapshotError::Param {
                name: pt.name.clone(),
                reason,
            };
            if pt.shape != [q.matrix.k(), q.matrix.n()] {
                return Err(qerr(format!(
                    "quantized as {}x{} but the parameter is {:?}",
                    q.matrix.k(),
                    q.matrix.n(),
                    pt.shape
                )));
            }
            if q.matrix.dequantize() != pt.data {
                return Err(qerr(
                    "i8 blob does not dequantize to the stored f32 weights".to_string(),
                ));
            }
            predictor.store.set_quant(id, Arc::new(q.matrix.clone()));
        }

        // Seed the plan cache from the file's plans: each one is decoded
        // and validated against the freshly rebuilt parameter store, then
        // checked to actually be a plan *of this model* (ports + shapes).
        // Errors name an entry by its offset in the plan section, which
        // the entries fill in order.
        let latent = snap.config.d_emb + snap.config.d_dev;
        let mut next_at = 0;
        for entry in &snap.plans {
            let at = next_at;
            next_at += 8 + entry.plan.len();
            let plan_err = |reason: String| SnapshotError::Plan {
                leaves: entry.leaves,
                reason,
            };
            if entry.leaves == 0 || entry.leaves > snap.config.max_leaves {
                return Err(plan_err(format!(
                    "leaf count outside the model's 1..={}",
                    snap.config.max_leaves
                )));
            }
            let in_entry =
                |reason: String| plan_err(format!("entry at plan-section offset {at}: {reason}"));
            let mut bytes = entry.plan.as_slice();
            let plan =
                Plan::decode(&mut bytes, &predictor.store).map_err(|e| in_entry(e.to_string()))?;
            if !bytes.is_empty() {
                return Err(in_entry(trailing_bytes(bytes.len())));
            }
            if plan.num_inputs() != 2 || plan.num_outputs() != 2 {
                return Err(plan_err(format!(
                    "expected 2 inputs / 2 outputs, found {} / {}",
                    plan.num_inputs(),
                    plan.num_outputs()
                )));
            }
            for b in [1usize, 3] {
                let x = &[b, entry.leaves, N_ENTRY];
                let fault = port_fault("input x", plan.input_shape(0, b), x, b)
                    .or_else(|| {
                        port_fault(
                            "input dev",
                            plan.input_shape(1, b),
                            &[b, N_DEVICE_FEATURES],
                            b,
                        )
                    })
                    .or_else(|| {
                        port_fault("latent output", plan.output_shape(0, b), &[b, latent], b)
                    })
                    .or_else(|| {
                        port_fault("prediction output", plan.output_shape(1, b), &[b, 1], b)
                    });
                if let Some(reason) = fault {
                    return Err(plan_err(reason));
                }
            }
            if !predictor.seed_plan(entry.leaves, Arc::new(plan)) {
                return Err(plan_err("duplicate plan for this leaf count".into()));
            }
        }

        // Hand the store to the served `Arc`, then check the file's
        // specialization requests and register their classes. Nothing is
        // folded here: a fold is built by the first replay of its shape
        // (`SharedPredictor::spec_plan_for`), like every other size, so a
        // restore costs no folds its traffic never asks for. Everything a
        // fold could be refused for is checked now — `Plan::decode`
        // above leaves `specialize_cached` nothing to reject at an
        // in-range batch — so a hostile file fails at load, never at a
        // first replay. The file alone decides quantization: encodings
        // installed from it are kept, never re-quantized.
        let shared = predictor.into_shared();
        for entry in &snap.spec_plans {
            let spec_err = |reason: String| SnapshotError::Plan {
                leaves: entry.leaves,
                reason: format!("specialization for batch {}: {reason}", entry.batch),
            };
            if entry.leaves == 0 || entry.leaves > snap.config.max_leaves {
                return Err(spec_err(format!(
                    "leaf count outside the model's 1..={}",
                    snap.config.max_leaves
                )));
            }
            if entry.batch == 0 || entry.batch > MAX_SPEC_BATCH {
                return Err(spec_err(format!(
                    "batch class outside 1..={MAX_SPEC_BATCH}"
                )));
            }
            // Folding needs the generic plan; without it in the file the
            // lookup would fall back to recording, which cold starts must
            // never do.
            if !snap.plans.iter().any(|p| p.leaves == entry.leaves) {
                return Err(spec_err(
                    "no generic plan for this leaf count in the snapshot".into(),
                ));
            }
            if !shared.register_batch_class(entry.batch) {
                return Err(spec_err(format!(
                    "more than {} distinct batch classes",
                    crate::predictor::MAX_BATCH_CLASSES
                )));
            }
            // Seeded above (its presence was just checked): no recording.
            let generic = shared
                .plan_for(entry.leaves)
                .map_err(|e| spec_err(e.to_string()))?;
            let arena = generic.arena_len(entry.batch);
            if arena > MAX_SPEC_ARENA {
                return Err(spec_err(format!(
                    "specialized arena {arena} exceeds the cap {MAX_SPEC_ARENA}"
                )));
            }
        }
        shared.request_folds(
            snap.spec_plans
                .iter()
                .map(|e| (e.leaves, e.batch))
                .collect(),
        );

        Ok(InferenceModel {
            predictor: shared,
            transform: snap.transform.clone(),
            scaler: snap.scaler.clone(),
            use_pe: snap.use_pe,
        })
    }

    /// Decodes snapshot bytes and restores a serving model (the one-call
    /// cold-start path for in-memory bytes).
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<InferenceModel, SnapshotError> {
        InferenceModel::from_snapshot(&Snapshot::from_bytes(bytes)?)
    }

    /// Loads a snapshot file and restores a serving model (the one-call
    /// cold-start path).
    pub fn from_snapshot_file(
        path: impl AsRef<std::path::Path>,
    ) -> Result<InferenceModel, SnapshotError> {
        InferenceModel::from_snapshot(&Snapshot::load(path)?)
    }
}
