//! Ansor-lite schedule search (§7.5) driven by a learned cost model:
//! tune a convolution task on a simulated T4 and compare against the
//! untuned canonical schedule.
//!
//! Run with: `cargo run --release --example schedule_search`

use cdmpp::core::{generational_search, GenSearchConfig, ProposerMix};
use cdmpp::prelude::*;

fn main() {
    println!("generating dataset + training cost model...");
    let ds = Dataset::generate(GenConfig {
        batch: 1,
        schedules_per_task: 16,
        devices: vec![cdmpp::devsim::t4()],
        seed: 5,
        noise_sigma: 0.03,
    });
    let split = SplitIndices::for_device(&ds, "T4", &[], 5);
    let (model, _) = pretrain(
        &ds,
        &split.train,
        &split.valid,
        PredictorConfig::default(),
        TrainConfig {
            epochs: 12,
            ..Default::default()
        },
    );

    let spec = OpSpec::Conv2d {
        n: 1,
        cin: 64,
        hw: 28,
        cout: 64,
        khw: 3,
        stride: 1,
    };
    let nest = spec.canonical_nest();
    let dev = cdmpp::devsim::t4();
    let sim = Simulator::new(dev.clone());
    let naive = sim.latency_seconds(&lower(&nest, &Schedule::default()).expect("lowers"));
    println!("canonical schedule: {:.1} us", naive * 1e6);

    let cfg = GenSearchConfig {
        rounds: 30,
        candidates_per_round: 24,
        measure_per_round: 2,
        population: 8,
        mix: ProposerMix {
            mutation: 1,
            crossover: 0,
            fresh: 1,
        },
        ..Default::default()
    };
    let trace = generational_search(&nest, &dev, &model.freeze(), &cfg);
    println!("search trace (best measured so far):");
    for (i, r) in trace.rounds.iter().enumerate().step_by(5) {
        println!("  round {:>3}: {:.1} us", i + 1, r.best_measured * 1e6);
    }
    let best = trace.best_measured;
    println!(
        "\nbest found: {:.1} us ({:.1}x speedup over canonical, {} measurements)",
        best * 1e6,
        naive / best,
        trace.measurements
    );
    println!("best schedule: {:?}", trace.best_schedule);
}
