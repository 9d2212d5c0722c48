//! The end-to-end path around the model — sample, encode, replay — held to
//! its definitions bit for bit.

use std::sync::Barrier;

use cdmpp_core::{
    encode_programs, measured_end_to_end, replay_predictions, sample_network_programs,
};
use devsim::all_devices;
use features::{device_features, extract_compact_ast, DEFAULT_THETA};
use tir::{all_networks, zoo, TensorProgram};

/// `encode_programs` against its definition: `extract_compact_ast`, then
/// `encoded_flat(theta)` or `flat()`.
fn assert_encodes_by_definition(programs: &[TensorProgram], theta: f32, use_pe: bool) {
    let dev = devsim::t4();
    let refs: Vec<&TensorProgram> = programs.iter().collect();
    let enc = encode_programs(&refs, &dev, theta, use_pe);
    assert_eq!(enc.len(), programs.len());
    for (i, (e, p)) in enc.iter().zip(programs).enumerate() {
        let ast = extract_compact_ast(p);
        let want = if use_pe {
            ast.encoded_flat(theta)
        } else {
            ast.flat()
        };
        assert_eq!(e.record_idx, i);
        assert_eq!(e.leaf_count, ast.n_leaves());
        assert_eq!(e.dev, device_features(&dev));
        assert_eq!(e.y_raw, 0.0);
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&e.x), bits(&want), "theta={theta} use_pe={use_pe}");
    }
}

#[test]
fn encode_programs_matches_its_definition_across_theta_switches() {
    let (_, bert) = sample_network_programs(&zoo::bert_tiny(1), 3);
    let (_, incep) = sample_network_programs(&zoo::inception_v3(1), 4);
    // One thread, so one memo: Θ switches away and back, with and without
    // PE, and a larger program set after a smaller one.
    for (theta, use_pe, programs) in [
        (DEFAULT_THETA, true, &bert),
        (DEFAULT_THETA, false, &bert),
        (50.0, true, &incep),
        (DEFAULT_THETA, true, &incep),
        (50.0, false, &bert),
        (50.0, true, &bert),
    ] {
        assert_encodes_by_definition(programs, theta, use_pe);
    }
}

#[test]
fn encode_programs_is_per_thread_state_only() {
    let (_, programs) = sample_network_programs(&zoo::resnet18(1), 5);
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for theta in [DEFAULT_THETA, 123.0] {
            let (programs, start) = (&programs, &start);
            s.spawn(move || {
                start.wait();
                for round in 0..8 {
                    assert_encodes_by_definition(programs, theta, round % 3 != 2);
                }
            });
        }
    });
}

/// Deterministic stand-in for model output: task `i`'s latency in seconds.
fn synthetic_durations(n: usize, salt: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 1e-5 * (1 + (i * 7 + salt * 3) % 11) as f64 + 1e-7 * i as f64)
        .collect()
}

#[test]
fn replay_predictions_bits_are_pinned() {
    // Recorded from a build of the commit before the successor lists, the
    // shared topology and the task table (PR 17); must never move.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut pair = 0usize;
    for net in all_networks(1) {
        for dev in all_devices() {
            let (task_ids, programs) = sample_network_programs(&net, 100 + pair as u64);
            let predicted = synthetic_durations(programs.len(), pair);
            let r = replay_predictions(&net, &dev, &task_ids, &programs, &predicted);
            assert!(r.predicted_s > 0.0 && r.measured_s > 0.0);
            for bits in [r.predicted_s.to_bits(), r.measured_s.to_bits()] {
                h = (h ^ bits).wrapping_mul(0x0000_0100_0000_01b3);
            }
            pair += 1;
        }
    }
    assert_eq!((pair, h), (81, PINNED_FOLD), "fold {h:#018x}");
}

const PINNED_FOLD: u64 = 0xec0e_389c_9adf_972f;

#[test]
fn measured_end_to_end_is_the_measured_half() {
    for (net, dev, seed) in [
        (zoo::bert_tiny(1), devsim::hl100(), 3),
        (zoo::mobilenet_v2(1), devsim::t4(), 4),
    ] {
        let (task_ids, programs) = sample_network_programs(&net, seed);
        let predicted = synthetic_durations(programs.len(), 0);
        let r = replay_predictions(&net, &dev, &task_ids, &programs, &predicted);
        let m = measured_end_to_end(&net, &dev, seed);
        assert_eq!(m.to_bits(), r.measured_s.to_bits());
    }
}

#[test]
fn task_ids_name_the_task_not_the_position() {
    // `task_ids[i]` says whose program and prediction sit at position `i`;
    // handing the three slices over in another order changes nothing.
    let (net, dev) = (zoo::resnet18(1), devsim::hl100());
    let (task_ids, programs) = sample_network_programs(&net, 6);
    let predicted = synthetic_durations(programs.len(), 1);
    let want = replay_predictions(&net, &dev, &task_ids, &programs, &predicted);
    let rev = |n: usize| (0..n).rev();
    let n = task_ids.len();
    let got = replay_predictions(
        &net,
        &dev,
        &rev(n).map(|i| task_ids[i]).collect::<Vec<_>>(),
        &rev(n).map(|i| programs[i].clone()).collect::<Vec<_>>(),
        &rev(n).map(|i| predicted[i]).collect::<Vec<_>>(),
    );
    assert_eq!(got.predicted_s.to_bits(), want.predicted_s.to_bits());
    assert_eq!(got.measured_s.to_bits(), want.measured_s.to_bits());
}

#[test]
fn non_finite_prediction_nans_the_result_on_every_device() {
    // `TrainedModel::predict_samples` answers NaN for a leaf count it
    // cannot serve. On the HL-100 that used to panic as soon as two queues
    // were compared; on one queue `max` stepped past it to a finite number.
    let net = zoo::bert_tiny(1);
    for dev in [devsim::hl100(), devsim::t4()] {
        let (task_ids, programs) = sample_network_programs(&net, 2);
        for bad in [f64::NAN, f64::INFINITY] {
            let mut predicted = synthetic_durations(programs.len(), 2);
            predicted[1] = bad;
            let r = replay_predictions(&net, &dev, &task_ids, &programs, &predicted);
            assert!(r.predicted_s.is_nan(), "{}: {}", dev.name, r.predicted_s);
            assert!(r.measured_s.is_finite() && r.measured_s > 0.0);
        }
    }
}
