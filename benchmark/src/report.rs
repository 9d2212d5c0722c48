//! The JSON the runner prints: the contract's result object, the host
//! descriptor, and the tables `BENCHMARK.json` states.

use crate::json::Json;
use crate::spec;

/// `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
pub fn result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> Json {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted.max(1) as i64)),
        ("failed", Json::Int(failed as i64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|&(name, value, unit)| {
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })),
        ),
    ])
}

/// Where and on what a result was measured.
pub fn host(git_rev: &str, engine_workers: usize) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("nproc", Json::Int(nproc as i64)),
        ("kernel_tier", Json::str(tensor::kernel_tier_name())),
        ("git_rev", Json::str(git_rev)),
        ("engine_workers", Json::Int(engine_workers as i64)),
    ])
}

/// The text of `BENCHMARK.json`, from the tables in [`spec`].
pub fn benchmark_json() -> String {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let workloads = spec::WORKLOADS
        .iter()
        .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
        .collect();
    let end_to_end = spec::END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = spec::PER_LAYER
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
            ])
        })
        .collect();
    let rows = [
        ("command", strs(&["bash", "benchmark/run.sh"])),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Int(spec::RUN_SECONDS as i64)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ];
    // One row of a table per line: readable, and diffs stay small.
    let mut out = String::from("{\n");
    for (i, (key, value)) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        match value {
            Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let sep = if j + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {}{sep}\n", item.to_json_string()));
                }
                out.push_str(&format!("  ]{sep}\n"));
            }
            other => out.push_str(&format!("  \"{key}\": {}{sep}\n", other.to_json_string())),
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_parses_and_has_exactly_the_contract_keys() {
        let metrics: Vec<(&str, f64, &str)> = spec::END_TO_END
            .iter()
            .map(|m| (m.name, 1.2034, m.unit))
            .collect();
        let text = result(true, 1000, 0, &metrics).to_json_string();
        assert!(!text.contains('\n'));
        let doc = Json::parse(&text).expect("parses with the vendored serde_json");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted"), Some(&Json::Int(1000)));
        assert_eq!(doc.get("failed"), Some(&Json::Int(0)));
        let got: Vec<&str> = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let want: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(got, want);
        let m = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.2034));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn generated_benchmark_json_is_the_committed_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        assert!(committed.len() <= 64 * 1024);
        assert_eq!(committed.trim_end(), benchmark_json());
    }
}
