//! The cdmpp benchmark runner. `benchmark/run.sh` builds and starts it.
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` — one run, the
//!   driver's contract: the last line of standard output is one JSON
//!   object with `correct`, `attempted`, `failed` and `metrics` (every
//!   end-to-end metric with `--trace 0`, every per-layer metric with
//!   `--trace 1`). The line before it describes the run (host, op counts,
//!   tail percentile, layer shares).
//! * no `--workload` — every workload untraced, then traced, each in a
//!   process of its own, with the metrics printed by name and unit.
//!   `--repeat K` runs the untraced set K times and checks the run-to-run
//!   spread of every metric against its bound.

mod calib;
mod json;
mod report;
mod run;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::RunCfg;

const USAGE: &str = "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--repeat K] [--git-rev REV] [--out-dir DIR]
  workloads: serve_networks serve_trickle search_bulk train_device cold_start
  --workload NAME   one run; the last line of stdout is the result object
  (no --workload)   every workload untraced, then (unless --trace 0) traced
  --repeat K        the untraced set K times, with a spread check per metric
  --print-benchmark-json   write the tables BENCHMARK.json must state";

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat: usize,
    pub git_rev: String,
    pub out_dir: PathBuf,
    pub print_benchmark_json: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: spec::RUN_SECONDS as f64,
        // One run traces only when told to; the all-workloads mode makes
        // its traced pass unless told not to.
        trace: true,
        repeat: 0,
        git_rev: "unknown".to_string(),
        out_dir: PathBuf::from("benchmark/out"),
        print_benchmark_json: false,
    };
    let mut trace: Option<bool> = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if spec::workload(&name).is_none() {
                    return Err(format!("unknown workload '{name}'"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                args.seconds = match value()?.parse::<f64>() {
                    Ok(s) if s > 0.0 && s <= 3600.0 => s,
                    _ => return Err("--seconds takes a number in (0, 3600]".to_string()),
                }
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--repeat" => {
                args.repeat = match value()?.parse::<usize>() {
                    Ok(k) if (2..=64).contains(&k) => k,
                    _ => return Err("--repeat takes a count from 2 to 64".to_string()),
                }
            }
            "--git-rev" => args.git_rev = value()?,
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    args.trace = trace.unwrap_or(args.workload.is_none());
    Ok(args)
}

/// The knobs of [`spec::FORBIDDEN_ENV`] that are set, if any.
fn forbidden_env_set() -> Vec<&'static str> {
    spec::FORBIDDEN_ENV
        .into_iter()
        .filter(|k| std::env::var_os(k).is_some())
        .collect()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("[benchmark] {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        println!("{}", report::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let set = forbidden_env_set();
    if !set.is_empty() {
        eprintln!(
            "[benchmark] refusing to start: {} set in the environment. Each of {} silently \
             changes the program being measured; unset them and run again.",
            set.join(", "),
            spec::FORBIDDEN_ENV.join(", ")
        );
        return ExitCode::from(3);
    }
    let outcome = match &args.workload {
        Some(workload) => run::run_one(
            &RunCfg {
                workload: workload.clone(),
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
                out_dir: args.out_dir.clone(),
            },
            &args.git_rev,
        )
        .map(|out| {
            println!("{}", out.detail.to_json_string());
            println!("{}", out.result.to_json_string());
            out.correct
        }),
        None => suite::run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("[benchmark] {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_args(&argv(
            "--workload serve_trickle --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_trickle"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        // One run is untraced unless asked; the suite traces unless told not to.
        assert!(!parse_args(&argv("--workload cold_start")).unwrap().trace);
        assert!(parse_args(&argv("--seed 3")).unwrap().trace);
        assert!(!parse_args(&argv("--trace 0")).unwrap().trace);
    }

    #[test]
    fn bad_arguments_are_refused_with_a_message() {
        for bad in [
            "--workload nope",
            "--trace yes",
            "--seconds 0",
            "--seed -1",
            "--repeat 1",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
