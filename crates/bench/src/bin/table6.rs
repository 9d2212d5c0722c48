//! Table 6 / Appendix B: the auto-tuner's search over architecture and
//! hyper-parameters (§5.3 "NAS and automatic hyper-parameter tuning"). The
//! paper runs ~1000 Optuna trials; here a seeded random search with a small
//! trial budget and a short training budget per trial demonstrates the
//! machinery and prints the best configuration found.

use bench::standard_dataset;
use cdmpp_core::{evaluate, pretrain, OptKind, PredictorConfig, TrainConfig};
use dataset::{Dataset, SplitIndices};
use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};

fn main() {
    let ds = standard_dataset(vec![devsim::t4()], bench::spt_multi());
    let split = SplitIndices::for_device(&ds, "T4", &[], bench::EXP_SEED);
    let trials = match bench::scale() {
        bench::Scale::Full => 8,
        bench::Scale::Mid => 4,
        bench::Scale::Quick => 2,
    };
    println!("Table 6 (Appendix B): auto-tuner random search, {trials} trials x 6 epochs\n");
    let res = autotune(&ds, &split.train, &split.valid, trials, 6, bench::EXP_SEED);
    println!(
        "{:>6}  {:>8}  {:>8}  {:>6}  {:>8}  {:>10}  {:>10}",
        "trial", "d_model", "layers", "heads", "batch", "lr", "val MAPE"
    );
    for (i, t) in res.trials.iter().enumerate() {
        println!(
            "{:>6}  {:>8}  {:>8}  {:>6}  {:>8}  {:>10.2e}  {:>9.1}%",
            i + 1,
            t.pcfg.d_model,
            t.pcfg.n_layers,
            t.pcfg.heads,
            t.tcfg.batch_size,
            t.tcfg.lr,
            t.val_mape * 100.0
        );
    }
    let b = &res.best;
    println!(
        "\nbest: d_model {} x {} layers, {} heads, d_ff {}, decoder {}x{}, lr {:.2e}, wd {:.2e}, batch {}, optimizer {:?}, cyclic_lr {}",
        b.pcfg.d_model,
        b.pcfg.n_layers,
        b.pcfg.heads,
        b.pcfg.d_ff,
        b.pcfg.dec_hidden,
        b.pcfg.dec_layers,
        b.tcfg.lr,
        b.tcfg.weight_decay,
        b.tcfg.batch_size,
        b.tcfg.optimizer,
        b.tcfg.cyclic_lr,
    );
    println!("(the experiment harness's default_pcfg() is the best config found by a longer offline search)");
}

/// One auto-tuner trial's outcome.
#[derive(Debug, Clone)]
struct Trial {
    /// Sampled architecture.
    pcfg: PredictorConfig,
    /// Sampled training setup.
    tcfg: TrainConfig,
    /// Validation MAPE achieved.
    val_mape: f64,
}

/// Auto-tuning result.
#[derive(Debug, Clone)]
struct AutoTuneResult {
    /// The best trial.
    best: Trial,
    /// All trials, in execution order.
    trials: Vec<Trial>,
}

/// Samples one configuration from the search space of Appendix B
/// (widths/depths scaled to CPU training).
fn sample_config(
    rng: &mut impl Rng,
    trial_epochs: usize,
    seed: u64,
) -> (PredictorConfig, TrainConfig) {
    let d_model = *[16usize, 32, 48].choose(rng).expect("non-empty");
    let heads = *[2usize, 4].choose(rng).expect("non-empty");
    let pcfg = PredictorConfig {
        d_model,
        n_layers: rng.random_range(1..=3),
        heads,
        d_ff: d_model * *[2usize, 4].choose(rng).expect("non-empty"),
        d_emb: *[16usize, 24, 32].choose(rng).expect("non-empty"),
        d_dev: 8,
        dec_hidden: *[16usize, 32, 64].choose(rng).expect("non-empty"),
        dec_layers: rng.random_range(1..=3),
        max_leaves: 8,
        theta: features::DEFAULT_THETA,
        seed,
    };
    let lr = 10f32.powf(rng.random_range(-3.5..-2.3));
    let tcfg = TrainConfig {
        epochs: trial_epochs,
        batch_size: *[32usize, 64, 128].choose(rng).expect("non-empty"),
        lr,
        weight_decay: 10f32.powf(rng.random_range(-4.0..-2.0)),
        lambda: 1e-3,
        optimizer: if rng.random_bool(0.8) {
            OptKind::Adam
        } else {
            OptKind::Sgd
        },
        cyclic_lr: rng.random_bool(0.7),
        seed,
        ..TrainConfig::default()
    };
    (pcfg, tcfg)
}

/// Runs `n_trials` random-search trials with `trial_epochs` training each.
fn autotune(
    ds: &Dataset,
    train_idx: &[usize],
    valid_idx: &[usize],
    n_trials: usize,
    trial_epochs: usize,
    seed: u64,
) -> AutoTuneResult {
    assert!(n_trials >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trials = Vec::with_capacity(n_trials);
    for t in 0..n_trials {
        let (pcfg, tcfg) = sample_config(&mut rng, trial_epochs, seed ^ t as u64);
        let (model, _) = pretrain(ds, train_idx, valid_idx, pcfg.clone(), tcfg.clone());
        let val = evaluate(&model, ds, valid_idx);
        trials.push(Trial {
            pcfg,
            tcfg,
            val_mape: val.mape,
        });
    }
    let best = trials
        .iter()
        .min_by(|a, b| a.val_mape.partial_cmp(&b.val_mape).expect("finite MAPE"))
        .expect("n_trials >= 1")
        .clone();
    AutoTuneResult { best, trials }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::GenConfig;
    use tir::zoo;

    #[test]
    fn sampled_configs_are_in_space() {
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..50 {
            let (pcfg, tcfg) = sample_config(&mut rng, 3, i);
            assert_eq!(pcfg.d_model % pcfg.heads, 0, "d_model divisible by heads");
            assert!(pcfg.n_layers >= 1 && pcfg.n_layers <= 3);
            assert!(tcfg.lr > 0.0 && tcfg.lr < 0.01);
        }
    }

    #[test]
    fn autotune_returns_best_of_trials() {
        let ds = Dataset::generate_with_networks(
            GenConfig {
                batch: 1,
                schedules_per_task: 3,
                devices: vec![devsim::t4()],
                seed: 2,
                noise_sigma: 0.0,
            },
            vec![zoo::mlp_mixer(1)],
        );
        let split = SplitIndices::for_device(&ds, "T4", &[], 1);
        let res = autotune(&ds, &split.train, &split.valid, 3, 2, 7);
        assert_eq!(res.trials.len(), 3);
        let min = res
            .trials
            .iter()
            .map(|t| t.val_mape)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(res.best.val_mape, min);
    }
}
