//! Fig 14(b): schedule-search quality with different cost models on T4.
//!
//! Paper: searching with the CDMPP cost model finds better schedules than
//! searching with XGBoost at the same round budget; both beat random.
//!
//! Per task and per arm (CDMPP, XGBoost, random) this bin records how well
//! the arm ranks candidates and what that buys a search:
//!
//! * over a pool of distinct fresh candidates, every one measured: the
//!   Kendall τ-b of the arm's scores against the simulator's latencies,
//!   the recall of the true top-k among the arm's top-k, and the pool's
//!   best-of-top-k regret (the best latency among the arm's top-k over
//!   the pool's best, minus one), with k = `measure_per_round`;
//! * a generational search guided by the arm with `oracle_regret` on:
//!   the mean over rounds of the same regret against each round's own
//!   candidates, and the best latency it measured.
//!
//! Two claim checks: the best latency found on the first task (CDMPP's
//! the lowest, or tied), and the mean search regret over tasks, CDMPP
//! against XGBoost, which `BENCH_fig14b.json` at the workspace root
//! records with the rows. A FAIL is a non-replication at that scale, reported as such
//! (README, "Accuracy").

use bench::cross::write_rows;
use bench::{claim_check, fit_gbt, standard_dataset, train_cdmpp, GbtCost};
use std::cell::RefCell;

use cdmpp_core::{generational_search, CostModel, GenSearchConfig, ProposerMix};
use dataset::SplitIndices;
use devsim::{DeviceSpec, Simulator};
use learn::kendall_tau;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tir::{OpSpec, Schedule, TensorProgram};

/// The random arm: every candidate scored is given the next draw of a
/// seeded RNG, so no two candidates tie and a rerun draws the same scores.
struct DrawnCost(RefCell<StdRng>);

impl DrawnCost {
    fn new(seed: u64) -> Self {
        DrawnCost(RefCell::new(StdRng::seed_from_u64(seed)))
    }
}

impl CostModel for DrawnCost {
    fn score(&self, _prog: &TensorProgram, _dev: &DeviceSpec) -> f64 {
        self.0.borrow_mut().random_range(0.0..1.0)
    }
}

/// Fresh candidates drawn per task for the rank metrics (before dedup).
const POOL: usize = 256;

/// The tasks searched: BERT-tiny's attention-projection dense task, then
/// the other nests the benchmark's `search_bulk` searches.
const TASKS: [(&str, OpSpec); 4] = [
    (
        "dense 128^3 (bert_tiny)",
        OpSpec::Dense {
            m: 128,
            n: 128,
            k: 128,
        },
    ),
    (
        "dense 512^3",
        OpSpec::Dense {
            m: 512,
            n: 512,
            k: 512,
        },
    ),
    (
        "bmm 4x64^3",
        OpSpec::BatchMatmul {
            b: 4,
            m: 64,
            n: 64,
            k: 64,
        },
    ),
    (
        "softmax 256^2",
        OpSpec::Softmax {
            rows: 256,
            cols: 256,
        },
    ),
];

/// Indices of the `k` smallest of `v` (stable: ties keep pool order).
fn top_k(v: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..v.len()).collect();
    idx.sort_by(|&a, &b| v[a].total_cmp(&v[b]));
    idx.truncate(k);
    idx
}

/// `(τ, top-k recall, best-of-top-k regret)` of `scores` against `truth`.
fn rank_metrics(scores: &[f64], truth: &[f64], k: usize) -> (f64, f64, f64) {
    let picked = top_k(scores, k);
    let best = top_k(truth, k);
    let recall = picked.iter().filter(|i| best.contains(i)).count() as f64 / k as f64;
    let picked_best = picked
        .iter()
        .map(|&i| truth[i])
        .fold(f64::INFINITY, f64::min);
    let oracle = truth[best[0]];
    (
        kendall_tau(scores, truth),
        recall,
        picked_best / oracle - 1.0,
    )
}

/// Up to `POOL` distinct lowered fresh candidates of `nest`.
fn pool(nest: &tir::Nest, seed: u64) -> Vec<TensorProgram> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen: Vec<Schedule> = Vec::new();
    let mut progs = Vec::new();
    for _ in 0..POOL {
        let s = tir::sample_schedule(nest, &mut rng);
        if seen.contains(&s) {
            continue;
        }
        if let Ok(p) = tir::lower(nest, &s) {
            seen.push(s);
            progs.push(p);
        }
    }
    progs
}

fn main() {
    let ds = standard_dataset(vec![devsim::t4()], bench::spt_multi());
    let split = SplitIndices::for_device(&ds, "T4", &[], bench::EXP_SEED);
    let (model, _) = train_cdmpp(&ds, &split, bench::epochs(split.train.len()));
    let gbt = GbtCost(fit_gbt(&ds, &split.train));
    let cdmpp = model.freeze();
    let random = DrawnCost::new(1);
    let arms: [(&str, &dyn CostModel); 3] =
        [("CDMPP", &cdmpp), ("XGBoost", &gbt), ("random", &random)];
    let dev = devsim::t4();
    let sim = Simulator::new(dev.clone());
    let cfg = GenSearchConfig {
        rounds: 40,
        candidates_per_round: 24,
        measure_per_round: 2,
        population: 8,
        mix: ProposerMix {
            mutation: 1,
            crossover: 0,
            fresh: 1,
        },
        oracle_regret: true,
        ..Default::default()
    };
    let k = cfg.measure_per_round;
    println!("Fig 14(b): search quality by cost model on T4, k = {k}\n");
    println!(
        "{:<24} {:<8} {:>6} {:>6} {:>9} {:>8} {:>10} {:>10}",
        "task", "arm", "pool", "tau", "recall@k", "regret", "search rg", "best (us)"
    );
    let mut rows = Vec::new();
    let mut search_regret = [0.0f64; 3];
    // The best latency each arm's search measured on the first task.
    let mut first_best = [0.0f64; 3];
    for (ti, (name, spec)) in TASKS.iter().enumerate() {
        let nest = spec.canonical_nest();
        let progs = pool(&nest, bench::EXP_SEED + ti as u64);
        let refs: Vec<&TensorProgram> = progs.iter().collect();
        let truth: Vec<f64> = progs.iter().map(|p| sim.latency_seconds(p)).collect();
        for (ai, (arm, cost)) in arms.iter().enumerate() {
            let (tau, recall, regret) = rank_metrics(&cost.score_batch(&refs, &dev), &truth, k);
            let trace = generational_search(&nest, &dev, *cost, &cfg);
            let finite: Vec<f64> = trace
                .rounds
                .iter()
                .map(|r| r.regret)
                .filter(|r| r.is_finite())
                .collect();
            let sr = finite.iter().sum::<f64>() / finite.len().max(1) as f64;
            search_regret[ai] += sr / TASKS.len() as f64;
            let best_us = trace.best_measured * 1e6;
            if ti == 0 {
                first_best[ai] = best_us;
            }
            println!(
                "{name:<24} {arm:<8} {:>6} {tau:>6.3} {recall:>9.2} {regret:>8.3} {sr:>10.3} {best_us:>10.2}",
                progs.len()
            );
            rows.push(format!(
                "{{\"task\": \"{name}\", \"arm\": \"{arm}\", \"pool\": {}, \"k\": {k}, \
                 \"kendall_tau\": {tau:.6}, \"top_k_recall\": {recall:.6}, \
                 \"pool_regret\": {regret:.6}, \"search_regret\": {sr:.6}, \
                 \"best_measured_us\": {best_us:.4}}}",
                progs.len()
            ));
        }
    }
    let [c, x, r] = search_regret;
    let detail = format!(
        "mean search regret over {} tasks: CDMPP {c:.4}, XGBoost {x:.4}, random {r:.4}",
        TASKS.len()
    );
    println!("\n{detail}");
    let [cb, xb, rb] = first_best;
    claim_check(
        "CDMPP-guided search finds the fastest (or tied) schedule",
        cb <= xb && cb <= rb,
        &format!(
            "final on {}: CDMPP {cb:.2}us  XGBoost {xb:.2}us  random {rb:.2}us",
            TASKS[0].0
        ),
    );
    let claim = "CDMPP-guided search regret <= XGBoost-guided search regret";
    claim_check(claim, c <= x, &detail);
    write_rows(
        "fig14b",
        &format!(
            "Search quality by cost model on T4 (CDMPP trained on the T4 training split, \
             XGBoost on the same records, random = one uniform draw per scored candidate from \
             a StdRng seeded 1, shared by all tasks in order). Per task and arm: \
             over a pool of up to {POOL} distinct fresh candidates, all measured, the Kendall \
             tau-b of scores against simulator latency, the recall of the true top-{k} among \
             the arm's top-{k}, and the best-of-top-{k} regret (best latency among the arm's \
             top-{k} / pool best - 1); then a {}-round search of {} candidates a round, {k} \
             measured, with oracle_regret on: search_regret is the mean over rounds of the same \
             regret against the round's own candidates. holds = CDMPP's mean search regret \
             over tasks <= XGBoost's ({detail}).",
            cfg.rounds, cfg.candidates_per_round
        ),
        claim,
        c <= x,
        &rows,
    );
}
