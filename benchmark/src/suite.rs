//! The all-workloads mode: every workload in a process of its own,
//! untraced first, then traced, with every metric printed by name and
//! unit — and, with `--repeat K`, a check of the benchmark against its
//! own bounds.

use std::process::{Command, Stdio};

use crate::json::Json;
use crate::spec;
use crate::stats::{quartile_spread, quartiles};
use crate::Args;

/// One child run, parsed back.
struct Run {
    detail: Json,
    result: Json,
}

impl Run {
    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn correct(&self) -> bool {
        self.result.get("correct").and_then(Json::as_bool) == Some(true)
    }

    fn int(&self, key: &str) -> i64 {
        self.result.get(key).and_then(Json::as_i64).unwrap_or(-1)
    }
}

fn child(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the runner: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--git-rev", &args.git_rev])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev().filter(|l| !l.trim().is_empty());
    let (Some(result), Some(detail)) = (lines.next(), lines.next()) else {
        return Err(format!(
            "the {workload} run ({}) printed no result",
            out.status
        ));
    };
    Ok(Run {
        result: Json::parse(result).map_err(|e| format!("{workload} result line: {e}"))?,
        detail: Json::parse(detail).map_err(|e| format!("{workload} detail line: {e}"))?,
    })
}

fn print_run(run: &Run, workload: &str, seed: u64, seconds: f64, trace: bool) {
    let mode = if trace { "traced" } else { "untraced" };
    println!("== {workload} (seed {seed}, {seconds} s, {mode}) ==");
    if let Some(metrics) = run.result.get("metrics").and_then(Json::as_obj) {
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            // A layer the workload does not use reads 0; leave it out.
            if !trace || value != 0.0 {
                println!("  {name:<32} {value:>16.6} {unit}");
            }
        }
    }
    let share = run.detail.get("failed_share").and_then(Json::as_f64);
    println!(
        "  {:<32} {:>16.6} ratio   ({} of {} attempted; correct: {})",
        "failed_share",
        share.unwrap_or(f64::NAN),
        run.int("failed"),
        run.int("attempted"),
        run.correct()
    );
    if let Some(t) = run.detail.get("timed") {
        let int = |k: &str| t.get(k).and_then(Json::as_i64).unwrap_or(-1);
        println!(
            "  op_tail_ms is the median block's p{} ({} units a block); {} ops in {} blocks; \
             times scaled by {:.3} to the reference host's speed",
            int("tail_percentile"),
            int("units_per_block"),
            int("ops"),
            int("blocks"),
            t.get("reference_scale")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN)
        );
    }
    if let Some(host) = run.detail.get("host") {
        println!("  host {}", host.to_json_string());
    }
    if let Some(shares) = run
        .detail
        .get("layer_share_of_op_wall")
        .and_then(Json::as_obj)
    {
        let row: Vec<String> = shares
            .iter()
            .map(|(k, v)| format!("{k} {:.1}%", v.as_f64().unwrap_or(0.0) * 100.0))
            .collect();
        println!("  layer self time as share of op wall: {}", row.join(", "));
    }
    if let Some(f) = run.detail.get("trace_file").and_then(Json::as_str) {
        println!("  trace written to {f}");
    }
}

/// Checks `runs` of one workload against the bounds; prints a row per
/// metric and returns whether every row passed.
fn check_spread(workload: &str, runs: &[Run]) -> bool {
    let mut pass = true;
    for m in &spec::END_TO_END {
        let values: Vec<f64> = runs.iter().filter_map(|r| r.metric(m.name)).collect();
        if values.len() < 2 {
            continue;
        }
        let [q1, q2, q3] = quartiles(&values);
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let max_rel = (hi - lo) / q2.abs().max(f64::MIN_POSITIVE);
        let ok = if m.exact {
            values.iter().all(|v| v.to_bits() == values[0].to_bits())
        } else {
            quartile_spread(&values) <= m.bound
        };
        pass &= ok;
        println!(
            "  {:<12} {workload:<15} median {q2:>14.6} q1 {q1:>14.6} q3 {q3:>14.6} \
             max-spread {:>6.2}% bound {:>5.1}%{} {}",
            m.name,
            max_rel * 100.0,
            m.bound * 100.0,
            if m.exact { " exact" } else { "" },
            if ok { "PASS" } else { "FAIL" }
        );
    }
    pass
}

/// Metrics the inputs alone determine must agree bit for bit.
fn check_exact(what: &str, workload: &str, names: &[&str], a: &Run, b: &Run) -> bool {
    let mut pass = true;
    for name in names {
        let (x, y) = (a.metric(name), b.metric(name));
        if x.map(f64::to_bits) != y.map(f64::to_bits) {
            pass = false;
            println!("  {what}: {workload} {name} differs: {x:?} vs {y:?} FAIL");
        }
    }
    pass &= a.int("failed") == b.int("failed");
    pass
}

pub fn run_all(args: &Args) -> Result<bool, String> {
    let sets = args.repeat.max(1);
    let mut all_ok = true;
    let mut untraced: Vec<Vec<Run>> = Vec::new();
    for w in &spec::WORKLOADS {
        let mut runs = Vec::with_capacity(sets);
        for _ in 0..sets {
            let run = child(args, w.name, args.seed, false)?;
            print_run(&run, w.name, args.seed, args.seconds, false);
            all_ok &= run.correct();
            runs.push(run);
        }
        untraced.push(runs);
    }
    let mut traced: Vec<Run> = Vec::new();
    if args.trace {
        for w in &spec::WORKLOADS {
            let run = child(args, w.name, args.seed, true)?;
            print_run(&run, w.name, args.seed, args.seconds, true);
            all_ok &= run.correct();
            traced.push(run);
        }
    }
    if args.repeat >= 2 {
        println!(
            "== self-check: {} untraced sets at seed {} ==",
            sets, args.seed
        );
        for (w, runs) in spec::WORKLOADS.iter().zip(&untraced) {
            all_ok &= check_spread(w.name, runs);
        }
        let exact_e2e: Vec<&str> = spec::END_TO_END
            .iter()
            .filter(|m| m.exact)
            .map(|m| m.name)
            .collect();
        let exact_layers: Vec<&str> = spec::PER_LAYER
            .iter()
            .filter(|m| m.exact)
            .map(|m| m.name)
            .collect();
        let other = args.seed + 1;
        println!("== self-check: exact metrics, two runs at seed {other} ==");
        for w in &spec::WORKLOADS {
            let (a, b) = (
                child(args, w.name, other, false)?,
                child(args, w.name, other, false)?,
            );
            let ok = check_exact("second seed", w.name, &exact_e2e, &a, &b);
            println!(
                "  {:<15} quality_err {:?} twice, failed {} and {}: {}",
                w.name,
                a.metric(spec::QUALITY_ERR),
                a.int("failed"),
                b.int("failed"),
                if ok { "PASS" } else { "FAIL" }
            );
            all_ok &= ok && a.correct() && b.correct();
        }
        if args.trace {
            println!(
                "== self-check: count-type layer metrics, second traced run at seed {} ==",
                args.seed
            );
            for (w, first) in spec::WORKLOADS.iter().zip(&traced) {
                let second = child(args, w.name, args.seed, true)?;
                let ok = check_exact("traced repeat", w.name, &exact_layers, first, &second);
                println!(
                    "  {:<15} {} count-type layer metrics repeat: {}",
                    w.name,
                    exact_layers.len(),
                    if ok { "PASS" } else { "FAIL" }
                );
                all_ok &= ok && second.correct();
            }
        }
    }
    println!(
        "== {} ==",
        if all_ok {
            "all runs correct, all checks passed"
        } else {
            "FAILED: see above"
        }
    );
    Ok(all_ok)
}
