//! Fig 14(b): schedule-search quality with different cost models
//! (BERT-tiny's dominant dense task on T4).
//!
//! Paper: searching with the CDMPP cost model finds better schedules than
//! searching with XGBoost at the same round budget; both beat random.

use bench::{claim_check, fit_gbt, standard_dataset, train_cdmpp, GbtCost};
use cdmpp_core::{generational_search, GenSearchConfig, ProposerMix, RandomCost};
use dataset::SplitIndices;

fn main() {
    let ds = standard_dataset(vec![devsim::t4()], bench::spt_multi());
    let split = SplitIndices::for_device(&ds, "T4", &[], bench::EXP_SEED);
    let (model, _) = train_cdmpp(&ds, &split, bench::epochs());
    let gbt = GbtCost(fit_gbt(&ds, &split.train));
    // BERT-tiny's attention-projection dense task.
    let nest = tir::OpSpec::Dense {
        m: 128,
        n: 128,
        k: 128,
    }
    .canonical_nest();
    let dev = devsim::t4();
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
        ..Default::default()
    };
    let c = generational_search(&nest, &dev, &model.freeze(), &cfg);
    let x = generational_search(&nest, &dev, &gbt, &cfg);
    let r = generational_search(&nest, &dev, &RandomCost { seed: 1 }, &cfg);
    println!("Fig 14(b): best measured latency (us) over search rounds, BERT-tiny dense on T4\n");
    println!(
        "{:>6}  {:>10}  {:>10}  {:>10}",
        "round", "CDMPP", "XGBoost", "random"
    );
    for i in (0..cfg.rounds).step_by(5) {
        println!(
            "{:>6}  {:>10.2}  {:>10.2}  {:>10.2}",
            i + 1,
            c.rounds[i].best_measured * 1e6,
            x.rounds[i].best_measured * 1e6,
            r.rounds[i].best_measured * 1e6,
        );
    }
    let (c, x, r) = (c.best_measured, x.best_measured, r.best_measured);
    let finals = format!(
        "final: CDMPP {:.2}us  XGBoost {:.2}us  random {:.2}us",
        c * 1e6,
        x * 1e6,
        r * 1e6
    );
    println!("\n{finals}");
    claim_check(
        "CDMPP-guided search finds the fastest (or tied) schedule",
        c <= x && c <= r,
        &finals,
    );
}
