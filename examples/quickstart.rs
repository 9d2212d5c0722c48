//! Quickstart: train a CDMPP cost model on one simulated device and
//! predict latencies of unseen tensor programs.
//!
//! Run with: `cargo run --release --example quickstart`

use cdmpp::prelude::*;

fn main() {
    // 1. Generate a synthetic-Tenset dataset: the model zoo's tasks, 960
    //    random Ansor-style schedules each (the paper's data regime, as the
    //    CLI trains), measured on a simulated T4.
    println!("generating dataset...");
    let ds = Dataset::generate(GenConfig {
        batch: 1,
        schedules_per_task: 960,
        devices: vec![cdmpp::devsim::t4()],
        seed: 0,
        noise_sigma: 0.03,
    });
    println!("  {} tasks, {} records", ds.tasks.len(), ds.records.len());

    // 2. Split 8:1:1 (§7.1).
    let split = SplitIndices::for_device(&ds, "T4", &[], 0);

    // 3. Pre-train the Fig 4 predictor with Box-Cox labels and the hybrid
    //    MSE+MAPE objective (§5.2, §5.4).
    println!("training predictor...");
    let (model, stats) = pretrain(
        &ds,
        &split.train,
        &split.valid,
        PredictorConfig::default(),
        TrainConfig {
            epochs: 12,
            lr: 1.5e-3,
            ..Default::default()
        },
    );
    println!(
        "  {:.0} samples/s, {} parameters",
        stats.throughput,
        model.predictor.num_params()
    );

    // 4. Evaluate on held-out tensor programs.
    let m = evaluate(&model, &ds, &split.test);
    println!(
        "test MAPE {:.1}%  |  within 20%: {:.0}%  within 10%: {:.0}%",
        m.mape * 100.0,
        m.acc20 * 100.0,
        m.acc10 * 100.0
    );

    // 5. Predict a single fresh tensor program.
    let nest = OpSpec::Dense {
        m: 256,
        n: 256,
        k: 256,
    }
    .canonical_nest();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
    let sched = sample_schedule(&nest, &mut rng);
    let prog = lower(&nest, &sched).expect("sampled schedule lowers");
    let dev = cdmpp::devsim::t4();
    let enc =
        cdmpp::core::encode_programs(&[&prog], &dev, model.predictor.config().theta, model.use_pe);
    let pred = model.predict_samples(&enc)[0];
    let truth = Simulator::new(dev).latency_seconds(&prog);
    println!(
        "fresh 256^3 GEMM: predicted {:.1} us, simulated {:.1} us",
        pred * 1e6,
        truth * 1e6
    );
}
