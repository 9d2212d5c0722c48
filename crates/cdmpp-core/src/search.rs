//! Ansor-lite schedule search (§7.5, Fig 14b).
//!
//! Evolutionary search over the schedule space of one task: each round
//! proposes candidates (mutations and crossovers of the population plus
//! fresh samples, in a configurable mix), a cost model ranks them, the top
//! few are "measured" (on the device simulator — standing in for
//! real-hardware measurement in Ansor's loop), and measurements refresh
//! the population. Better cost models prune the space better and find
//! faster schedules in the same number of rounds.
//!
//! A round's proposals are deduped on the calling thread as they are
//! drawn, and lowering overlaps proposing: each chunk of first occurrences
//! is lowered on `parallel::global()` while the caller draws the next, so
//! the proposer, which is serial, no longer leaves the pool idle.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use devsim::{DeviceSpec, Simulator};
use parallel::{Scope, ThreadPool};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tir::{
    crossover_schedule, lower, mutate_schedule, sample_schedule, Nest, Schedule, ScheduleError,
    TensorProgram,
};

use crate::e2e::encode_programs;
use crate::trainer::InferenceModel;

/// A cost model usable by the search: lower score = predicted faster.
pub trait CostModel {
    /// Scores a lowered program for a device.
    fn score(&self, prog: &TensorProgram, dev: &DeviceSpec) -> f64;

    /// Scores many candidate programs at once. The default loops over
    /// [`CostModel::score`]; batched models override this so the search
    /// pays one dense forward pass per leaf-count bucket instead of one
    /// tape per candidate.
    fn score_batch(&self, progs: &[&TensorProgram], dev: &DeviceSpec) -> Vec<f64> {
        progs.iter().map(|p| self.score(p, dev)).collect()
    }
}

/// The learned cost model: a search freezes its trained model once
/// ([`crate::TrainedModel::freeze`]) or restores one from a snapshot (the
/// CLI `search` subcommand), and scores every round on the calling thread.
/// Invalid leaf counts and prediction failures rank INFINITY, matching the
/// serving engine's `CostModel` convention.
impl CostModel for InferenceModel {
    fn score(&self, prog: &TensorProgram, dev: &DeviceSpec) -> f64 {
        self.score_batch(&[prog], dev)[0]
    }

    fn score_batch(&self, progs: &[&TensorProgram], dev: &DeviceSpec) -> Vec<f64> {
        let enc = encode_programs(progs, dev, self.predictor.config().theta, self.use_pe);
        let max_leaves = self.predictor.config().max_leaves;
        let valid_idx: Vec<usize> = enc
            .iter()
            .enumerate()
            .filter(|(_, s)| (1..=max_leaves).contains(&s.leaf_count))
            .map(|(i, _)| i)
            .collect();
        let mut out = vec![f64::INFINITY; progs.len()];
        if valid_idx.is_empty() {
            return out;
        }
        if valid_idx.len() == enc.len() {
            if let Ok(per) = self.predict_samples(&enc) {
                return per;
            }
            return out;
        }
        let valid: Vec<crate::batch::EncodedSample> =
            valid_idx.iter().map(|&i| enc[i].clone()).collect();
        if let Ok(per) = self.predict_samples(&valid) {
            for (&i, p) in valid_idx.iter().zip(per) {
                out[i] = p;
            }
        }
        out
    }
}

/// An oracle cost model (the simulator itself) — upper bound for search
/// quality comparisons.
pub struct OracleCost;

impl CostModel for OracleCost {
    fn score(&self, prog: &TensorProgram, dev: &DeviceSpec) -> f64 {
        Simulator::new(dev.clone()).latency_seconds(prog)
    }
}

/// A random cost model — lower bound for search quality comparisons.
pub struct RandomCost {
    /// Seed for the pseudo-random scores.
    pub seed: u64,
}

impl CostModel for RandomCost {
    fn score(&self, prog: &TensorProgram, _dev: &DeviceSpec) -> f64 {
        // Deterministic hash-based pseudo-random score.
        let mut h = self.seed ^ prog.node_count() as u64;
        h ^= (prog.total_iterations() as u64).wrapping_mul(0x9E3779B97F4A7C15);
        h = h.wrapping_mul(0xBF58476D1CE4E5B9);
        (h >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// How a generational round's candidates are proposed, as integer weights.
///
/// Out of every `mutation + crossover + fresh` candidates, `mutation` are
/// mutations of round-robin population parents, `crossover` graft one
/// parent's tiling onto another's order/annotations
/// ([`tir::crossover_schedule`]), and `fresh` are new random samples.
/// Round 0 (empty population) is always all-fresh.
#[derive(Debug, Clone)]
pub struct ProposerMix {
    /// Weight of population mutations.
    pub mutation: usize,
    /// Weight of crossover-by-stage children.
    pub crossover: usize,
    /// Weight of fresh random samples.
    pub fresh: usize,
}

impl Default for ProposerMix {
    fn default() -> Self {
        ProposerMix {
            mutation: 2,
            crossover: 1,
            fresh: 1,
        }
    }
}

/// Configuration of the generational large-scale search.
#[derive(Debug, Clone)]
pub struct GenSearchConfig {
    /// Search rounds (generations).
    pub rounds: usize,
    /// Candidates proposed per round (before dedup).
    pub candidates_per_round: usize,
    /// Top-ranked candidates measured on the simulator per round.
    pub measure_per_round: usize,
    /// Population carried between rounds.
    pub population: usize,
    /// Proposer mix.
    pub mix: ProposerMix,
    /// Seed for the proposal RNG.
    pub seed: u64,
    /// When set, every round additionally sweeps the simulator over **all**
    /// unique candidates to report the per-round regret of the model's
    /// pick against the in-round oracle optimum. O(candidates) simulator
    /// evaluations per round — for benches and quality reports, not for
    /// tuning runs where measurements are the budget.
    pub oracle_regret: bool,
}

impl Default for GenSearchConfig {
    fn default() -> Self {
        GenSearchConfig {
            rounds: 8,
            candidates_per_round: 1024,
            measure_per_round: 4,
            population: 16,
            mix: ProposerMix::default(),
            seed: 0,
            oracle_regret: false,
        }
    }
}

/// Per-round record of a generational search.
#[derive(Debug, Clone, Copy)]
pub struct GenRound {
    /// Candidates proposed (incl. duplicates and non-lowering ones).
    pub proposed: usize,
    /// Unique lowered candidates actually encoded + scored.
    pub unique: usize,
    /// Best model score in the round.
    pub best_predicted: f64,
    /// Best simulator latency among this round's measured top-k (seconds).
    pub round_measured: f64,
    /// Best measured latency so far, after this round (seconds).
    pub best_measured: f64,
    /// In-round oracle optimum over all unique candidates (NaN unless
    /// `oracle_regret`).
    pub oracle_best: f64,
    /// `round_measured / oracle_best − 1` (NaN unless `oracle_regret`):
    /// how much the model's pick trails the best candidate it was shown.
    pub regret: f64,
}

/// Trace of a generational search run.
#[derive(Debug, Clone)]
pub struct GenSearchTrace {
    /// One record per round.
    pub rounds: Vec<GenRound>,
    /// The best schedule found.
    pub best_schedule: Schedule,
    /// Its measured latency (seconds).
    pub best_measured: f64,
    /// Total simulator measurements spent (excluding oracle sweeps).
    pub measurements: usize,
}

/// First occurrences handed to the pool together. A chunk is large enough
/// that its hand-off is a small share of its lowering, and small enough that
/// the pool starts lowering while the round is still being proposed.
const CHUNK: usize = 64;

/// One chunk of first occurrences, in proposal order, and, once the task
/// lowering it has run, their programs in the same order.
struct Chunk {
    schedules: Vec<Schedule>,
    programs: OnceLock<Vec<Result<TensorProgram, ScheduleError>>>,
}

/// One round's distinct candidates. The table and the output buffers live
/// across rounds, so a round allocates for the schedules and programs it
/// keeps and for the pool hand-off of its chunks, nothing else.
#[derive(Default)]
struct RoundCandidates {
    /// Identity hash → proposal-order index of the first occurrence that
    /// claimed it (chunk `i / CHUNK`, slot `i % CHUNK`). A different
    /// schedule with the same hash (confirmed by `PartialEq`) claims
    /// `hash + 1`, …
    slots: HashMap<u64, usize>,
    /// First occurrences that lowered, in proposal order.
    unique: Vec<(Schedule, TensorProgram)>,
    /// First occurrences that did not, in proposal order.
    failed: Vec<Schedule>,
}

impl RoundCandidates {
    /// [`RoundCandidates::dedup_then_lower_on`] on `parallel::global()`.
    fn dedup_then_lower(&mut self, nest: &Nest, proposals: impl Iterator<Item = Schedule>) {
        self.dedup_then_lower_on(parallel::global(), nest, proposals);
    }

    /// Dedups `proposals` by schedule identity on the calling thread,
    /// keeping first occurrences in order, and lowers each distinct schedule
    /// exactly once while it proposes: every `CHUNK` first occurrences are
    /// spawned on `pool` as soon as they are found, so the pool lowers chunk
    /// k while the caller draws chunk k + 1. After the scope the chunks are
    /// split into `unique` / `failed` in proposal order, so the round is
    /// bit-identical for any pool size, and on a pool worker, where the
    /// spawns run inline.
    fn dedup_then_lower_on(
        &mut self,
        pool: &ThreadPool,
        nest: &Nest,
        proposals: impl Iterator<Item = Schedule>,
    ) {
        self.slots.clear();
        // The previous round's programs are freed here, while the pool is
        // idle: freed while the pool lowers, they contend with its
        // allocations for the same allocator arenas.
        self.unique.clear();
        self.failed.clear();
        let slots = &mut self.slots;
        // Handed-off chunks stay readable here: a duplicate is confirmed
        // against its first occurrence while the pool lowers it.
        let mut chunks: Vec<Arc<Chunk>> = Vec::new();
        pool.scope(|s| {
            let mut open: Vec<Schedule> = Vec::with_capacity(CHUNK);
            'next: for sched in proposals {
                let mut key = sched.identity_hash();
                while let Some(&i) = slots.get(&key) {
                    let first = match chunks.get(i / CHUNK) {
                        Some(chunk) => &chunk.schedules[i % CHUNK],
                        None => &open[i % CHUNK],
                    };
                    if *first == sched {
                        continue 'next;
                    }
                    key = key.wrapping_add(1);
                }
                slots.insert(key, chunks.len() * CHUNK + open.len());
                open.push(sched);
                if open.len() == CHUNK {
                    let full = std::mem::replace(&mut open, Vec::with_capacity(CHUNK));
                    chunks.push(lower_chunk(s, nest, full));
                }
            }
            if !open.is_empty() {
                chunks.push(lower_chunk(s, nest, open));
            }
        });
        for chunk in chunks {
            let Chunk {
                schedules,
                programs,
            } = Arc::into_inner(chunk).expect("a finished task has dropped its chunk");
            let programs = programs.into_inner().expect("the scope ran every task");
            for (sched, prog) in schedules.into_iter().zip(programs) {
                match prog {
                    Ok(prog) => self.unique.push((sched, prog)),
                    Err(_) => self.failed.push(sched),
                }
            }
        }
    }
}

/// Spawns the lowering of `schedules` on `s` and returns the chunk, which
/// the task fills with their programs.
fn lower_chunk<'env>(
    s: &Scope<'_, 'env>,
    nest: &'env Nest,
    schedules: Vec<Schedule>,
) -> Arc<Chunk> {
    let chunk = Arc::new(Chunk {
        schedules,
        programs: OnceLock::new(),
    });
    let task = Arc::clone(&chunk);
    s.spawn(move || {
        let programs = task.schedules.iter().map(|s| lower(nest, s)).collect();
        let _ = task.programs.set(programs);
    });
    chunk
}

/// A round's proposals as a lazy stream, drawn in a fixed RNG order:
/// mutations of round-robin population parents, then crossovers, then
/// fresh samples up to `target`. Round 0 (empty population) is all fresh.
fn proposals<'a>(
    nest: &'a Nest,
    population: &'a [Schedule],
    mix: &ProposerMix,
    target: usize,
    rng: &'a mut StdRng,
) -> impl Iterator<Item = Schedule> + 'a {
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
    (0..target).map(move |i| {
        if i < n_mut {
            mutate_schedule(nest, &population[i % len], rng)
        } else if i < n_mut + n_cross {
            let i = i - n_mut;
            let a = i % len;
            let mut b = (a + 1 + i / len) % len;
            if b == a {
                b = (b + 1) % len;
            }
            crossover_schedule(nest, &population[a], &population[b])
        } else {
            sample_schedule(nest, rng)
        }
    })
}

/// Large-scale generational search: thousands of candidates per round from
/// a configurable proposer mix, deduped by schedule identity so identical
/// programs are lowered, encoded and scored once, lowered on every core
/// while the round is still being proposed, and ranked by **one**
/// `score_batch` call per round (the engine-backed cost model turns that
/// into saturating serving traffic).
///
/// Deterministic for a fixed `(nest, dev, cost, cfg)`, whatever the pool
/// size: proposals draw from a seeded RNG in a fixed order, crossover is
/// deterministic, dedup keeps first occurrences, lowered programs come back
/// in proposal order, and ranking uses a stable sort on `total_cmp`.
pub fn generational_search(
    nest: &Nest,
    dev: &DeviceSpec,
    cost: &dyn CostModel,
    cfg: &GenSearchConfig,
) -> GenSearchTrace {
    let sim = Simulator::new(dev.clone());
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut population: Vec<Schedule> = Vec::new();
    let mut best_measured = f64::INFINITY;
    let mut best_schedule = Schedule::default();
    let mut rounds = Vec::with_capacity(cfg.rounds);
    let mut measurements = 0usize;
    let target = cfg.candidates_per_round;
    // Round buffers, reused: only the lowering's chunks, `progs` (it
    // borrows the round's programs) and the cost model's score vector are
    // built per round.
    let mut candidates = RoundCandidates::default();
    let mut scored: Vec<(f64, usize)> = Vec::new();
    for _ in 0..cfg.rounds {
        // --- Propose, dedup by schedule identity, and lower what is
        // distinct, chunk by chunk as it is found. ---
        let stream = proposals(nest, &population, &cfg.mix, target, &mut rng);
        candidates.dedup_then_lower(nest, stream);
        let unique = &candidates.unique;
        if unique.is_empty() {
            rounds.push(GenRound {
                proposed: target,
                unique: 0,
                best_predicted: f64::INFINITY,
                round_measured: f64::INFINITY,
                best_measured,
                oracle_best: f64::NAN,
                regret: f64::NAN,
            });
            continue;
        }
        // --- Rank: one batched cost-model call for the whole round. ---
        let progs: Vec<&TensorProgram> = unique.iter().map(|(_, p)| p).collect();
        scored.clear();
        scored.extend(
            cost.score_batch(&progs, dev)
                .into_iter()
                .enumerate()
                .map(|(i, s)| (s, i)),
        );
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        // --- Measure the model's top-k. ---
        let mut round_measured = f64::INFINITY;
        for &(_, ci) in scored.iter().take(cfg.measure_per_round) {
            let t = sim.latency_seconds(&unique[ci].1);
            measurements += 1;
            round_measured = round_measured.min(t);
            if t < best_measured {
                best_measured = t;
                best_schedule = unique[ci].0.clone();
            }
        }
        // --- Optional oracle sweep for the regret metric. ---
        let (oracle_best, regret) = if cfg.oracle_regret {
            let ob = progs
                .iter()
                .map(|p| sim.latency_seconds(p))
                .fold(f64::INFINITY, f64::min);
            (ob, round_measured / ob - 1.0)
        } else {
            (f64::NAN, f64::NAN)
        };
        rounds.push(GenRound {
            proposed: target,
            unique: unique.len(),
            best_predicted: scored.first().map(|&(s, _)| s).unwrap_or(f64::INFINITY),
            round_measured,
            best_measured,
            oracle_best,
            regret,
        });
        // --- Refresh the population (already unique within the round). ---
        population.clear();
        for &(_, ci) in scored.iter().take(cfg.population) {
            population.push(unique[ci].0.clone());
        }
    }
    GenSearchTrace {
        rounds,
        best_schedule,
        best_measured,
        measurements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tir::OpSpec;

    fn nest() -> Nest {
        OpSpec::Dense {
            m: 128,
            n: 128,
            k: 128,
        }
        .canonical_nest()
    }

    fn gen_cfg() -> GenSearchConfig {
        GenSearchConfig {
            rounds: 4,
            candidates_per_round: 200,
            measure_per_round: 3,
            population: 8,
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn oracle_beats_random_cost_model() {
        let oracle = generational_search(&nest(), &devsim::t4(), &OracleCost, &gen_cfg());
        let random =
            generational_search(&nest(), &devsim::t4(), &RandomCost { seed: 3 }, &gen_cfg());
        assert!(
            oracle.best_measured <= random.best_measured,
            "oracle {} vs random {}",
            oracle.best_measured,
            random.best_measured
        );
    }

    #[test]
    fn measurement_budget_respected() {
        let cfg = gen_cfg();
        let trace = generational_search(&nest(), &devsim::t4(), &OracleCost, &cfg);
        // Every round lowers more candidates than it measures, so each one
        // spends exactly its budget.
        assert!(trace
            .rounds
            .iter()
            .all(|r| r.unique >= cfg.measure_per_round));
        assert_eq!(trace.measurements, cfg.rounds * cfg.measure_per_round);
    }

    #[test]
    fn generational_search_is_deterministic_and_dedups() {
        let a = generational_search(&nest(), &devsim::t4(), &RandomCost { seed: 1 }, &gen_cfg());
        let b = generational_search(&nest(), &devsim::t4(), &RandomCost { seed: 1 }, &gen_cfg());
        assert_eq!(a.best_schedule, b.best_schedule);
        assert_eq!(a.measurements, b.measurements);
        for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
            assert_eq!(ra.unique, rb.unique);
            assert_eq!(ra.best_measured, rb.best_measured);
        }
        // At 200 proposals over a small schedule space, collisions are
        // certain: dedup must have collapsed some, and each round's scored
        // count must never exceed its proposal count.
        assert!(a.rounds.iter().any(|r| r.unique < r.proposed));
        for r in &a.rounds {
            assert!(r.unique <= r.proposed);
            assert!(r.best_measured.is_finite());
        }
        // best_measured is the running minimum of round_measured.
        let mut running = f64::INFINITY;
        for r in &a.rounds {
            running = running.min(r.round_measured);
            assert_eq!(r.best_measured, running);
        }
    }

    #[test]
    fn dedup_then_lower_keeps_first_occurrences_and_lowers_each_schedule_once() {
        use tir::Primitive;
        let split = |axis, factor| Schedule {
            primitives: vec![Primitive::Split { axis, factor }],
        };
        let (a, b, c) = (split(0, 4), split(1, 8), Schedule::default());
        // 128 is not a multiple of 5: never lowers, proposed twice.
        let bad = split(0, 5);
        let proposals = [&a, &bad, &b, &a, &bad, &c, &b, &a];
        let mut round = RoundCandidates::default();
        // The buffers are reused: a second fill starts from a clean table.
        for _ in 0..2 {
            round.dedup_then_lower(&nest(), proposals.iter().map(|&s| s.clone()));
            let kept: Vec<&Schedule> = round.unique.iter().map(|(s, _)| s).collect();
            assert_eq!(kept, [&a, &b, &c]);
            for (s, prog) in &round.unique {
                assert_eq!(*prog, lower(&nest(), s).unwrap());
            }
            // One lowering attempt per distinct schedule: the failing one
            // is remembered once, not retried for its duplicate.
            assert_eq!(round.failed, std::slice::from_ref(&bad));
            assert_eq!(round.slots.len(), 4);
        }
    }

    /// `n` distinct schedules of `nest()`: fresh samples, with one that
    /// never lowers at index `min(CHUNK - 1, n / 2)`.
    fn distinct_schedules(n: usize) -> Vec<Schedule> {
        use tir::Primitive;
        // 128 is not a multiple of 5.
        let bad = Schedule {
            primitives: vec![Primitive::Split { axis: 0, factor: 5 }],
        };
        let mut rng = StdRng::seed_from_u64(11);
        let mut out: Vec<Schedule> = Vec::with_capacity(n);
        while out.len() < n {
            let s = if out.len() == (CHUNK - 1).min(n / 2) {
                bad.clone()
            } else {
                sample_schedule(&nest(), &mut rng)
            };
            if !out.contains(&s) {
                out.push(s);
            }
        }
        out
    }

    /// `distinct` with repeats: after every third schedule, one that is
    /// `CHUNK - 1` places back (or the first), so repeats reach back across
    /// chunk boundaries, and the failing schedule proposed twice.
    fn with_repeats(distinct: &[Schedule]) -> Vec<Schedule> {
        let mut out = Vec::new();
        for (i, s) in distinct.iter().enumerate() {
            out.push(s.clone());
            if i % 3 == 2 {
                out.push(distinct[i.saturating_sub(CHUNK - 1)].clone());
            }
            if i == (CHUNK - 1).min(distinct.len() / 2) + 1 {
                out.push(distinct[i - 1].clone());
            }
        }
        out
    }

    #[test]
    fn chunked_lowering_matches_serial_dedup_then_lower_at_any_pool_size() {
        let pools: Vec<ThreadPool> = (1..=3).map(ThreadPool::new).collect();
        let mut round = RoundCandidates::default();
        for n in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 1024] {
            let distinct = distinct_schedules(n);
            for proposals in [distinct.clone(), with_repeats(&distinct)] {
                // The serial reference: dedup, then lower each first
                // occurrence in order.
                let mut firsts: Vec<&Schedule> = Vec::new();
                for s in &proposals {
                    if !firsts.contains(&s) {
                        firsts.push(s);
                    }
                }
                let (mut unique, mut failed) = (Vec::new(), Vec::new());
                for &s in &firsts {
                    match lower(&nest(), s) {
                        Ok(p) => unique.push((s.clone(), p)),
                        Err(_) => failed.push(s.clone()),
                    }
                }
                assert_eq!(firsts.len(), n);
                assert_eq!(failed.len(), usize::from(n > 0), "n = {n}");
                for pool in &pools {
                    round.dedup_then_lower_on(pool, &nest(), proposals.iter().cloned());
                    let at = format!(
                        "n = {n}, {} proposals, pool {}",
                        proposals.len(),
                        pool.threads()
                    );
                    assert!(round.unique == unique, "unique differs at {at}");
                    assert_eq!(round.failed, failed, "at {at}");
                    assert_eq!(round.slots.len(), firsts.len(), "at {at}");
                }
            }
        }
    }

    #[test]
    fn generational_search_on_a_pool_worker_matches_the_caller() {
        let from_caller =
            generational_search(&nest(), &devsim::t4(), &RandomCost { seed: 1 }, &gen_cfg());
        // On a worker the chunk spawns run inline, one after another.
        let from_worker = parallel::global().run_indexed(1, |_| {
            generational_search(&nest(), &devsim::t4(), &RandomCost { seed: 1 }, &gen_cfg())
        });
        assert_eq!(format!("{:?}", from_worker[0]), format!("{from_caller:?}"));
    }

    #[test]
    fn generational_trace_is_pinned() {
        // Recorded before the round loop and the proposers were made
        // allocation-lean (PR 13): the proposal stream, the dedup and the
        // lowered programs must stay bit-for-bit what they were.
        let trace =
            generational_search(&nest(), &devsim::t4(), &RandomCost { seed: 1 }, &gen_cfg());
        let unique: Vec<usize> = trace.rounds.iter().map(|r| r.unique).collect();
        assert_eq!(unique, [199, 188, 173, 167]);
        assert_eq!(trace.best_schedule.identity_hash(), 0x5c08_38e5_0c5e_b239);
        assert_eq!(trace.best_measured.to_bits(), 0x3f22_d0db_010e_413a);
        assert_eq!(trace.measurements, 12);
    }

    #[test]
    fn generational_oracle_regret_is_zero_for_oracle_model() {
        // When the cost model *is* the simulator, its top pick is the
        // in-round optimum, so regret must be exactly zero every round.
        let cfg = GenSearchConfig {
            oracle_regret: true,
            rounds: 3,
            candidates_per_round: 60,
            ..gen_cfg()
        };
        let trace = generational_search(&nest(), &devsim::t4(), &OracleCost, &cfg);
        for r in &trace.rounds {
            assert!(r.oracle_best.is_finite());
            assert_eq!(r.regret, 0.0);
        }
    }

    #[test]
    fn generational_random_model_has_positive_regret() {
        let cfg = GenSearchConfig {
            oracle_regret: true,
            measure_per_round: 1,
            ..gen_cfg()
        };
        let trace = generational_search(&nest(), &devsim::t4(), &RandomCost { seed: 5 }, &cfg);
        // A random ranking almost surely misses the in-round optimum when
        // measuring only its top-1 out of hundreds.
        assert!(trace.rounds.iter().any(|r| r.regret > 0.0));
        for r in &trace.rounds {
            assert!(r.regret >= 0.0, "regret can never be negative");
        }
    }

    #[test]
    fn generational_search_finds_good_schedules() {
        // The oracle-driven generational search must beat the canonical
        // schedule comfortably at this scale.
        let n = nest();
        let dev = devsim::t4();
        let canonical =
            Simulator::new(dev.clone()).latency_seconds(&lower(&n, &Schedule::default()).unwrap());
        let trace = generational_search(&n, &dev, &OracleCost, &gen_cfg());
        assert!(
            trace.best_measured < canonical,
            "search best {} vs canonical {canonical}",
            trace.best_measured
        );
        // And the reported best schedule reproduces the reported latency.
        let t = Simulator::new(dev).latency_seconds(&lower(&n, &trace.best_schedule).unwrap());
        assert!((t - trace.best_measured).abs() / trace.best_measured < 1e-9);
    }
}
