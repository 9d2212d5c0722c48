//! Where a fold replay's time goes, by step kind, over `serve_trickle`'s
//! mix: the default predictor's folds at L = 2, 3 and 4 leaves and every
//! batch size B = 1..=24, one thread, no engine.
//!
//! ```text
//! cargo run --release -p runtime --example replay_step_shares            # ~15 s
//! cargo run --release -p runtime --example replay_step_shares -- --quick # smoke size
//! ```
//!
//! Each pass replays every one of the 72 folds once, each step run through
//! a timing probe (`SpecializedPlan::replay_with`); the shares are of the
//! summed step time, and the last line says how much of the wall the
//! steps are (the rest is the probe's own clock reads and the loop). The
//! model is untrained at the CLI's shape: replay cost does not depend on
//! the weights' values. README's "Where replay time goes" quotes it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use cdmpp_core::{Predictor, PredictorConfig};
use features::{N_DEVICE_FEATURES, N_ENTRY};
use nn::ReplayProbe;
use tensor::Tensor;

const LEAVES: [usize; 3] = [2, 3, 4];
const MAX_BATCH: usize = 24;

/// Time and count per step kind, and per (leaf count, step kind).
#[derive(Default)]
struct StepTimer {
    by_kind: BTreeMap<&'static str, (Duration, u64)>,
    by_leaves: BTreeMap<(usize, &'static str), Duration>,
    leaves: usize,
}

impl ReplayProbe for StepTimer {
    fn step<R>(&mut self, kind: &'static str, run: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = run();
        let dt = t0.elapsed();
        let e = self.by_kind.entry(kind).or_default();
        e.0 += dt;
        e.1 += 1;
        *self.by_leaves.entry((self.leaves, kind)).or_default() += dt;
        r
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let passes = if quick { 3 } else { 400 };
    let shared = Predictor::new(PredictorConfig::default()).share();
    let params = shared.params();
    let mut cells = Vec::new();
    for l in LEAVES {
        for b in 1..=MAX_BATCH {
            let x = Tensor::from_fn(&[b, l, N_ENTRY], |i| ((i as f32) * 0.0231).sin());
            let dev = Tensor::from_fn(&[b, N_DEVICE_FEATURES], |i| ((i as f32) * 0.311).cos());
            let fold = shared
                .spec_plan_for(l, b)
                .expect("fold")
                .expect("B ≤ the fold limit");
            cells.push((l, fold, x, dev));
        }
    }
    let mut arena = Vec::new();
    // One untimed pass: the arena reaches its largest size.
    for (_, fold, x, dev) in &cells {
        fold.replay(&mut arena, params, &[x, dev]).expect("replay");
    }
    let mut timer = StepTimer::default();
    let t0 = Instant::now();
    for _ in 0..passes {
        for (l, fold, x, dev) in &cells {
            timer.leaves = *l;
            fold.replay_with(&mut arena, params, &[x, dev], &mut timer)
                .expect("replay");
            black_box(&arena);
        }
    }
    let wall = t0.elapsed();
    let replays = (passes * cells.len()) as f64;
    let total: Duration = timer.by_kind.values().map(|&(t, _)| t).sum();
    println!(
        "kernel tier {}, one thread; {passes} passes over {} folds (L = 2..=4, B = 1..={MAX_BATCH})",
        tensor::kernel_tier_name(),
        cells.len()
    );
    println!();
    println!("| step kind | share | µs a step | steps a replay |");
    println!("|---|---:|---:|---:|");
    let mut kinds: Vec<_> = timer.by_kind.iter().collect();
    kinds.sort_by_key(|&(_, &(t, _))| std::cmp::Reverse(t));
    for (kind, &(t, n)) in kinds {
        println!(
            "| {kind} | {:.1}% | {:.2} | {:.2} |",
            100.0 * t.as_secs_f64() / total.as_secs_f64(),
            t.as_secs_f64() * 1e6 / n as f64,
            n as f64 / replays
        );
    }
    println!();
    let att = |l: usize| {
        let of = |k: &'static str| timer.by_leaves.get(&(l, k)).copied().unwrap_or_default();
        let all: Duration = timer
            .by_leaves
            .iter()
            .filter(|((ll, _), _)| *ll == l)
            .map(|(_, &t)| t)
            .sum();
        100.0 * of("fused attention").as_secs_f64() / all.as_secs_f64()
    };
    let by_l: Vec<String> = LEAVES
        .iter()
        .map(|&l| format!("L = {l}: {:.1}%", att(l)))
        .collect();
    println!("fused attention share by leaf count: {}", by_l.join(", "));
    println!(
        "µs a replay: {:.2} in steps, {:.2} wall (steps are {:.0}% of the wall)",
        total.as_secs_f64() * 1e6 / replays,
        wall.as_secs_f64() * 1e6 / replays,
        100.0 * total.as_secs_f64() / wall.as_secs_f64()
    );
}
