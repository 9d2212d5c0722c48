//! Where a `search_bulk` search's time goes, per unique candidate, in two
//! views over the benchmark's four nests and three devices (8 rounds × 1024
//! proposals, one long-lived `EngineCostModel` on the CLI's model):
//!
//! * a **serial re-enactment** of `generational_search`'s rounds, each
//!   phase timed on its own: propose (mutations, crossovers, fresh samples
//!   in the search's RNG order), dedup by schedule identity, lower each
//!   distinct schedule, encode and dispatch (split by the cost model's own
//!   `timings()`), measure the top picks and select the next population,
//!   and free the round's programs. Its unique counts are checked against
//!   the library's traces, so it runs the same rounds;
//! * the **whole `generational_search`** through the same cost model, where
//!   the search's own time is the wall minus encode and dispatch — what is
//!   left of propose + dedup + lower + measure + free once the library
//!   overlaps or parallelizes them.
//!
//! ```text
//! cargo run --release -p runtime --example search_round_phases            # ~10 s
//! cargo run --release -p runtime --example search_round_phases -- --quick # smoke size
//! ```
//!
//! Every figure is the median over passes, the two views alternating pass
//! by pass. Public API only, so the same file builds against an older
//! commit for a before/after table (README, "Schedule search").

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use cdmpp_core::{
    generational_search, pretrain, CostModel, GenSearchConfig, PredictorConfig, TrainConfig,
};
use dataset::{Dataset, GenConfig, SplitIndices};
use devsim::{DeviceSpec, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use runtime::{EngineConfig, EngineCostModel, InferenceEngine};
use tir::{
    crossover_schedule, lower, mutate_schedule, sample_schedule, Nest, OpSpec, Schedule,
    TensorProgram,
};

const PHASES: [&str; 7] = [
    "propose",
    "dedup",
    "lower",
    "encode",
    "dispatch",
    "measure + select",
    "free",
];

/// Nanoseconds per phase, and the unique candidates they were spent on.
#[derive(Default)]
struct Tally {
    ns: [u64; PHASES.len()],
    unique: u64,
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// One search, round by round as `generational_search` runs it, each phase
/// timed alone and serial. Returns the unique count of every round.
fn reenact(
    nest: &Nest,
    dev: &DeviceSpec,
    cost: &EngineCostModel,
    cfg: &GenSearchConfig,
    tally: &mut Tally,
) -> Vec<usize> {
    let sim = Simulator::new(dev.clone());
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut population: Vec<Schedule> = Vec::new();
    let mut uniques = Vec::with_capacity(cfg.rounds);
    let target = cfg.candidates_per_round;
    let mix = &cfg.mix;
    for _ in 0..cfg.rounds {
        let t = Instant::now();
        let weight = (mix.mutation + mix.crossover + mix.fresh).max(1);
        let (n_mut, n_cross) = if population.is_empty() {
            (0, 0)
        } else {
            (
                target * mix.mutation / weight,
                target * mix.crossover / weight,
            )
        };
        let len = population.len();
        let mut proposals: Vec<Schedule> = Vec::with_capacity(target);
        for i in 0..n_mut {
            proposals.push(mutate_schedule(nest, &population[i % len], &mut rng));
        }
        for i in 0..n_cross {
            let a = i % len;
            let mut b = (a + 1 + i / len) % len;
            if b == a {
                b = (b + 1) % len;
            }
            proposals.push(crossover_schedule(nest, &population[a], &population[b]));
        }
        while proposals.len() < target {
            proposals.push(sample_schedule(nest, &mut rng));
        }
        tally.ns[0] += elapsed_ns(t);

        let t = Instant::now();
        let mut slots: HashMap<u64, usize> = HashMap::with_capacity(target);
        let mut distinct: Vec<Schedule> = Vec::with_capacity(target);
        'next: for sched in proposals {
            let mut key = sched.identity_hash();
            while let Some(&i) = slots.get(&key) {
                if distinct[i] == sched {
                    continue 'next;
                }
                key = key.wrapping_add(1);
            }
            slots.insert(key, distinct.len());
            distinct.push(sched);
        }
        tally.ns[1] += elapsed_ns(t);

        let t = Instant::now();
        let unique: Vec<(Schedule, TensorProgram)> = distinct
            .into_iter()
            .filter_map(|s| lower(nest, &s).ok().map(|p| (s, p)))
            .collect();
        tally.ns[2] += elapsed_ns(t);
        uniques.push(unique.len());
        tally.unique += unique.len() as u64;
        if unique.is_empty() {
            continue;
        }

        let before = cost.timings();
        let progs: Vec<&TensorProgram> = unique.iter().map(|(_, p)| p).collect();
        let scores = cost.score_batch(&progs, dev);
        let after = cost.timings();
        tally.ns[3] += after.encode_ns - before.encode_ns;
        tally.ns[4] += after.dispatch_ns - before.dispatch_ns;

        let t = Instant::now();
        let mut scored: Vec<(f64, usize)> = scores
            .into_iter()
            .enumerate()
            .map(|(i, s)| (s, i))
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        for &(_, ci) in scored.iter().take(cfg.measure_per_round) {
            std::hint::black_box(sim.latency_seconds(&unique[ci].1));
        }
        population.clear();
        for &(_, ci) in scored.iter().take(cfg.population) {
            population.push(unique[ci].0.clone());
        }
        tally.ns[5] += elapsed_ns(t);

        let t = Instant::now();
        drop(progs);
        drop(unique);
        tally.ns[6] += elapsed_ns(t);
    }
    uniques
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (schedules_per_task, epochs, rounds, candidates, passes) = if quick {
        (4, 1, 2, 256, 1)
    } else {
        (24, 12, 8, 1024, 5)
    };
    // The CLI's model (`cdmpp train T4`): the search's population, and so
    // its unique share, follow the model's ranking.
    let dev = devsim::t4();
    let ds = Dataset::generate(GenConfig {
        batch: 1,
        schedules_per_task,
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
    let engine = Arc::new(InferenceEngine::new(
        model.freeze(),
        EngineConfig::default(),
    ));
    let cost = EngineCostModel::new(Arc::clone(&engine), 0);
    let nests: Vec<Nest> = [
        OpSpec::Dense {
            m: 128,
            n: 128,
            k: 128,
        },
        OpSpec::Dense {
            m: 512,
            n: 512,
            k: 512,
        },
        OpSpec::BatchMatmul {
            b: 4,
            m: 64,
            n: 64,
            k: 64,
        },
        OpSpec::Softmax {
            rows: 256,
            cols: 256,
        },
    ]
    .iter()
    .map(OpSpec::canonical_nest)
    .collect();
    let devs = [devsim::t4(), devsim::a100(), devsim::epyc_7452()];
    let searches: Vec<(&Nest, &DeviceSpec, GenSearchConfig)> = devs
        .iter()
        .flat_map(|d| nests.iter().map(move |n| (n, d)))
        .enumerate()
        .map(|(i, (n, d))| {
            let cfg = GenSearchConfig {
                rounds,
                candidates_per_round: candidates,
                seed: 1000 + i as u64,
                ..Default::default()
            };
            (n, d, cfg)
        })
        .collect();

    // Warm the engine, its arena and the allocator; check the re-enactment
    // runs the library's rounds.
    let mut warm = Tally::default();
    for (nest, dev, cfg) in &searches {
        let trace = generational_search(nest, dev, &cost, cfg);
        let library: Vec<usize> = trace.rounds.iter().map(|r| r.unique).collect();
        assert_eq!(reenact(nest, dev, &cost, cfg, &mut warm), library);
    }

    let mut phase_us: Vec<Vec<f64>> = vec![Vec::new(); PHASES.len()];
    let mut serial_us = Vec::new();
    let (mut wall_us, mut encode_us, mut dispatch_us, mut self_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut unique_share = 0.0;
    for _ in 0..passes {
        let mut tally = Tally::default();
        for (nest, dev, cfg) in &searches {
            reenact(nest, dev, &cost, cfg, &mut tally);
        }
        let per = |ns: u64| ns as f64 / tally.unique as f64 / 1e3;
        for (k, &ns) in tally.ns.iter().enumerate() {
            phase_us[k].push(per(ns));
        }
        serial_us.push(per(tally.ns.iter().sum()));

        let before = cost.timings();
        let (mut unique, mut proposed) = (0u64, 0u64);
        let t = Instant::now();
        for (nest, dev, cfg) in &searches {
            let trace = generational_search(nest, dev, &cost, cfg);
            unique += trace.rounds.iter().map(|r| r.unique as u64).sum::<u64>();
            proposed += trace.rounds.iter().map(|r| r.proposed as u64).sum::<u64>();
        }
        let wall = elapsed_ns(t);
        let after = cost.timings();
        let (enc, disp) = (
            after.encode_ns - before.encode_ns,
            after.dispatch_ns - before.dispatch_ns,
        );
        let per = |ns: u64| ns as f64 / unique as f64 / 1e3;
        wall_us.push(per(wall));
        encode_us.push(per(enc));
        dispatch_us.push(per(disp));
        self_us.push(per(wall - enc - disp));
        unique_share = unique as f64 / proposed as f64;
    }

    println!(
        "{} searches ({} nests x {} devices), {rounds} rounds x {candidates} proposals, \
         unique share {unique_share:.3}, {} engine workers, {} cores; \
         µs per unique candidate, median of {passes} passes",
        searches.len(),
        nests.len(),
        devs.len(),
        engine.worker_count(),
        parallel::resolve_threads(0),
    );
    println!();
    println!("| serial re-enactment, phase | µs |");
    println!("|---|---:|");
    for (name, us) in PHASES.iter().zip(phase_us) {
        println!("| {name} | {:.2} |", median(us));
    }
    println!("| total | {:.2} |", median(serial_us));
    println!();
    println!("| `generational_search` | µs |");
    println!("|---|---:|");
    println!("| wall | {:.2} |", median(wall_us));
    println!("| encode | {:.2} |", median(encode_us));
    println!("| dispatch | {:.2} |", median(dispatch_us));
    println!(
        "| search self (wall − encode − dispatch) | {:.2} |",
        median(self_us)
    );
}
