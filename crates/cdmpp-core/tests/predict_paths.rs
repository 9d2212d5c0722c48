//! The serial predict paths over one mixed-leaf request, held to the
//! per-leaf tape references: `TrainedModel::{predict_samples, latents}`
//! and `InferenceModel::predict_samples` against `predict_batch` /
//! `latent_batch` on each leaf group's scaled batch. And what each path
//! answers for a leaf count the predictor has no embedding layer for.

use std::collections::BTreeMap;

use cdmpp_core::batch::FeatScaler;
use cdmpp_core::{
    build_scaled_batch, encode_programs, encode_records, sample_network_programs, CostModel,
    EncodedSample, PredictError, Predictor, PredictorConfig, TrainConfig, TrainedModel,
};
use dataset::{Dataset, GenConfig};
use learn::LabelTransform;
use learn::TransformKind;
use tir::{zoo, TensorProgram};

fn dataset() -> Dataset {
    Dataset::generate_with_networks(
        GenConfig {
            batch: 1,
            schedules_per_task: 2,
            devices: vec![devsim::t4()],
            seed: 21,
            noise_sigma: 0.0,
        },
        vec![zoo::bert_tiny(1), zoo::mlp_mixer(1)],
    )
}

/// An untrained predictor behind a scaler and transform fitted on `ds`.
fn model(ds: &Dataset, max_leaves: usize) -> TrainedModel {
    let idx: Vec<usize> = (0..ds.records.len()).collect();
    let enc = encode_records(ds, &idx, features::DEFAULT_THETA, true);
    TrainedModel {
        predictor: Predictor::new(PredictorConfig {
            max_leaves,
            ..Default::default()
        }),
        transform: TransformKind::BoxCox.fit(&ds.latencies(&idx)),
        scaler: FeatScaler::fit(&enc),
        use_pe: true,
        train_config: TrainConfig::default(),
    }
}

/// Sample positions by leaf count, ascending, input order within each.
fn by_leaf(enc: &[EncodedSample]) -> BTreeMap<usize, Vec<usize>> {
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, s) in enc.iter().enumerate() {
        groups.entry(s.leaf_count).or_default().push(i);
    }
    groups
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn mixed_leaf_request_matches_the_per_leaf_tape_references() {
    let ds = dataset();
    // Reversed, so leaf groups interleave in request order.
    let idx: Vec<usize> = (0..ds.records.len()).rev().collect();
    let trained = model(&ds, 8);
    let frozen = trained.freeze();
    let enc = encode_records(&ds, &idx, features::DEFAULT_THETA, true);
    let groups = by_leaf(&enc);
    assert!(groups.len() >= 3, "request must mix leaf counts");

    let d = trained.predictor.config().d_emb + trained.predictor.config().d_dev;
    let mut want_pred = vec![f64::NAN; enc.len()];
    let mut want_latent = vec![Vec::new(); enc.len()];
    for idxs in groups.values() {
        let refs: Vec<&EncodedSample> = idxs.iter().map(|&i| &enc[i]).collect();
        let batch = build_scaled_batch(&refs, &trained.scaler);
        let preds = trained
            .predictor
            .predict_batch(batch.x.clone(), batch.dev.clone())
            .unwrap();
        let zs = trained.predictor.latent_batch(batch.x, batch.dev).unwrap();
        for ((&i, &p), z) in idxs.iter().zip(&preds).zip(zs) {
            want_pred[i] = trained.transform.inverse(p as f64).max(1e-12);
            assert_eq!(z.len(), d);
            want_latent[i] = z;
        }
    }

    assert_eq!(bits(&trained.predict_samples(&enc)), bits(&want_pred));
    assert_eq!(
        bits(&frozen.predict_samples(&enc).unwrap()),
        bits(&want_pred)
    );
    let latents = trained.latents(&ds, &idx);
    assert_eq!(latents.len(), want_latent.len());
    for (got, want) in latents.iter().zip(&want_latent) {
        assert_eq!(bits(got), bits(want));
    }
}

#[test]
fn leaf_count_out_of_range_is_nan_typed_or_infinite_by_path() {
    let ds = dataset();
    let idx: Vec<usize> = (0..ds.records.len()).collect();
    let max_leaves = 2;
    let trained = model(&ds, max_leaves);
    let frozen = trained.freeze();
    let enc = encode_records(&ds, &idx, features::DEFAULT_THETA, true);
    let too_many = |l: usize| l > max_leaves;
    let smallest_bad = enc
        .iter()
        .map(|s| s.leaf_count)
        .filter(|&l| too_many(l))
        .min()
        .expect("some record above max_leaves");
    assert!(enc.iter().any(|s| !too_many(s.leaf_count)));

    // The training-side model answers NaN for exactly those samples.
    let preds = trained.predict_samples(&enc);
    for (s, p) in enc.iter().zip(&preds) {
        assert_eq!(p.is_nan(), too_many(s.leaf_count), "leaf {}", s.leaf_count);
    }

    // The frozen model fails the request with the typed error of the
    // smallest leaf count it cannot serve.
    assert_eq!(
        frozen.predict_samples(&enc).unwrap_err(),
        PredictError::LeafCountOutOfRange {
            leaves: smallest_bad,
            max_leaves
        }
    );

    // As a cost model it ranks those programs INFINITY and scores the
    // rest as a request of the servable ones alone would.
    let refs: Vec<&TensorProgram> = idx.iter().map(|&i| &*ds.records[i].program).collect();
    let dev = devsim::t4();
    let scores = frozen.score_batch(&refs, &dev);
    let owned = encode_programs(&refs, &dev, features::DEFAULT_THETA, true);
    let servable: Vec<EncodedSample> = owned
        .iter()
        .filter(|s| !too_many(s.leaf_count))
        .cloned()
        .collect();
    let mut want = frozen.predict_samples(&servable).unwrap().into_iter();
    for (s, score) in owned.iter().zip(&scores) {
        if too_many(s.leaf_count) {
            assert_eq!(*score, f64::INFINITY);
        } else {
            assert_eq!(score.to_bits(), want.next().unwrap().to_bits());
        }
    }
    assert!(want.next().is_none());

    // A network that has such a task: the serial front end NaNs, the
    // frozen one fails typed.
    let net = zoo::mlp_mixer(1);
    let (_, programs) = sample_network_programs(&net, 0);
    assert!(programs.iter().any(|p| too_many(p.leaf_count())));
    assert!(cdmpp_core::end_to_end(&trained, &net, &dev, 0)
        .predicted_s
        .is_nan());
    assert!(matches!(
        cdmpp_core::end_to_end_frozen(&frozen, &net, &dev, 0),
        Err(PredictError::LeafCountOutOfRange { .. })
    ));
}

#[test]
fn latents_of_an_unsupported_leaf_count_are_nan_rows_and_latent_cmd_is_nan() {
    let ds = dataset();
    let idx: Vec<usize> = (0..ds.records.len()).collect();
    let max_leaves = 2;
    let trained = model(&ds, max_leaves);
    let d = trained.predictor.config().d_emb + trained.predictor.config().d_dev;
    let enc = encode_records(&ds, &idx, features::DEFAULT_THETA, true);
    let zs = trained.latents(&ds, &idx);
    assert_eq!(zs.len(), enc.len());
    for (s, z) in enc.iter().zip(&zs) {
        assert_eq!(z.len(), d, "leaf {}", s.leaf_count);
        if s.leaf_count > max_leaves {
            assert!(z.iter().all(|v| v.is_nan()), "leaf {}", s.leaf_count);
        } else {
            assert!(z.iter().all(|v| v.is_finite()), "leaf {}", s.leaf_count);
        }
    }
    let (a, b) = idx.split_at(idx.len() / 2);
    assert!(cdmpp_core::latent_cmd(&trained, &ds, a, b, 3).is_nan());
}
