//! The ordering ratchet: holds the seven regenerated `BENCH_<fig>.json`
//! files (fig8, fig10, fig11, fig12, fig13, fig14b, fig18) to the ones
//! committed at `HEAD`.
//!
//! ```text
//! for fig in fig8 fig10 fig11 fig12 fig13 fig14b fig18; do
//!     CDMPP_SCALE=quick cargo run --release -p bench --bin $fig
//! done
//! cargo run --release -p bench --bin ratchet
//! ```
//!
//! Each bin rewrites its file at the workspace root; this bin then reads
//! each one next to `git show HEAD:BENCH_<fig>.json` and fails (exit 1)
//! when
//!
//! * the file's scale differs from the committed one's, or its rows
//!   changed in number;
//! * a `holds` that is `true` at `HEAD` — the file's own or a row's —
//!   reads `false`;
//! * a headline error (below, per figure) rises by more than
//!   `MARGIN` (1%) of its committed value.
//!
//! A claim that `HEAD` does not hold (a `holds: false` there) never fails
//! the check, whatever the fresh file says.

use std::fmt;
use std::process::{Command, ExitCode};

use serde::de::{Error, Parser};
use serde::Deserialize;

/// The figures, and each one's headline errors: `(field, row filter)`,
/// where a filter `(key, value)` keeps the rows whose `key` is `value`.
/// fig8 and fig11 report separations and CMDs, not errors, and are held
/// by their `holds` alone.
#[allow(clippy::type_complexity)]
const FIGS: &[(&str, &[(&str, Option<(&str, &str)>)])] = &[
    ("fig8", &[]),
    ("fig10", &[("fine_tuned_mape", None)]),
    ("fig11", &[]),
    ("fig12", &[("cdmpp_err", None)]),
    ("fig13", &[("kmeans_mape", None)]),
    (
        "fig14b",
        &[
            ("search_regret", Some(("arm", "CDMPP"))),
            ("pool_regret", Some(("arm", "CDMPP"))),
        ],
    ),
    ("fig18", &[("mape", None)]),
];

/// How far a headline error may rise, relative to its committed value.
/// The seven files regenerate byte-identical on one host at quick scale,
/// so any rise is a change in the program; the margin leaves room for a
/// host whose libm rounds one training run differently.
const MARGIN: f64 = 0.01;
/// Absolute slack on top of [`MARGIN`]: the files print six decimals.
const ROUNDING: f64 = 1e-6;

fn main() -> ExitCode {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut failures = Vec::new();
    for &(fig, errors) in FIGS {
        let file = format!("BENCH_{fig}.json");
        let fresh = std::fs::read_to_string(format!("{root}/{file}"))
            .unwrap_or_else(|e| panic!("reading {file}: {e}"));
        let head = Command::new("git")
            .args(["show", &format!("HEAD:{file}")])
            .current_dir(root)
            .output()
            .unwrap_or_else(|e| panic!("running git show HEAD:{file}: {e}"));
        assert!(
            head.status.success(),
            "git show HEAD:{file}: {}",
            String::from_utf8_lossy(&head.stderr)
        );
        let parse = |text: &str, what: &str| -> Value {
            let mut p = Parser::new(text);
            Value::deserialize_json(&mut p)
                .and_then(|v| p.finish().map(|()| v))
                .unwrap_or_else(|e| panic!("{what} {file}: {e}"))
        };
        let head = String::from_utf8(head.stdout).expect("HEAD's file is UTF-8");
        let (head, fresh) = (parse(&head, "HEAD's"), parse(&fresh, "fresh"));
        let before = failures.len();
        check(fig, errors, &head, &fresh, &mut failures);
        let verdict = if failures.len() == before {
            "ok"
        } else {
            "FAIL"
        };
        println!(
            "{fig:>7}: {verdict} (holds {} at HEAD, {} now)",
            head.get("holds"),
            fresh.get("holds")
        );
    }
    if failures.is_empty() {
        println!("ratchet holds: no claim lost, no headline error up by more than {MARGIN:.0e}");
        return ExitCode::SUCCESS;
    }
    for f in &failures {
        eprintln!("ratchet: {f}");
    }
    ExitCode::FAILURE
}

/// Appends to `failures` every way `fresh` falls behind `head`.
fn check(
    fig: &str,
    errors: &[(&str, Option<(&str, &str)>)],
    head: &Value,
    fresh: &Value,
    failures: &mut Vec<String>,
) {
    if head.get("scale") != fresh.get("scale") {
        failures.push(format!(
            "{fig}: scale {} against {} at HEAD; regenerate at HEAD's scale",
            fresh.get("scale"),
            head.get("scale")
        ));
        return;
    }
    if lost(head.get("holds"), fresh.get("holds")) {
        failures.push(format!(
            "{fig}: the figure's claim held at HEAD and fails now"
        ));
    }
    let (head_rows, fresh_rows) = (head.get("rows").items(), fresh.get("rows").items());
    if head_rows.len() != fresh_rows.len() {
        failures.push(format!(
            "{fig}: {} rows against {} at HEAD",
            fresh_rows.len(),
            head_rows.len()
        ));
        return;
    }
    for (i, (h, f)) in head_rows.iter().zip(fresh_rows).enumerate() {
        if lost(h.get("holds"), f.get("holds")) {
            failures.push(format!("{fig}: row {i} held at HEAD and fails now: {f}"));
        }
        for &(field, filter) in errors {
            if filter.is_some_and(|(key, value)| *h.get(key) != Value::Str(value.into())) {
                continue;
            }
            let (Value::Num(was), Value::Num(now)) = (h.get(field), f.get(field)) else {
                failures.push(format!("{fig}: row {i} has no number `{field}`"));
                continue;
            };
            if now > &(was * (1.0 + MARGIN) + ROUNDING) {
                failures.push(format!(
                    "{fig}: row {i} `{field}` rose {was} -> {now} (more than {MARGIN:.0e} of it)"
                ));
            }
        }
    }
}

/// Whether a claim that held at `HEAD` no longer does.
fn lost(head: &Value, fresh: &Value) -> bool {
    *head == Value::Bool(true) && *fresh != Value::Bool(true)
}

/// A JSON value, as much of one as the figure files hold.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

const NULL: Value = Value::Null;

impl Value {
    /// Member `key` of an object; `null` when absent or not an object.
    fn get(&self, key: &str) -> &Value {
        match self {
            Value::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map_or(&NULL, |(_, v)| v),
            _ => &NULL,
        }
    }

    /// The elements of an array; none when not an array.
    fn items(&self) -> &[Value] {
        match self {
            Value::Arr(items) => items,
            _ => &[],
        }
    }
}

impl Deserialize for Value {
    fn deserialize_json(p: &mut Parser<'_>) -> Result<Self, Error> {
        // Members and elements, `open` already consumed, up to `close`.
        fn items<T>(
            p: &mut Parser<'_>,
            close: u8,
            mut item: impl FnMut(&mut Parser<'_>) -> Result<T, Error>,
        ) -> Result<Vec<T>, Error> {
            let mut out = Vec::new();
            if p.peek() != Some(close) {
                loop {
                    out.push(item(p)?);
                    if p.peek() != Some(b',') {
                        break;
                    }
                    p.expect_byte(b',')?;
                }
            }
            p.expect_byte(close)?;
            Ok(out)
        }
        match p.peek() {
            Some(b'{') => {
                p.expect_byte(b'{')?;
                let fields = items(p, b'}', |p| {
                    let key = p.parse_string()?;
                    p.expect_byte(b':')?;
                    Ok((key, Value::deserialize_json(p)?))
                })?;
                Ok(Value::Obj(fields))
            }
            Some(b'[') => {
                p.expect_byte(b'[')?;
                Ok(Value::Arr(items(p, b']', Value::deserialize_json)?))
            }
            Some(b'"') => Ok(Value::Str(p.parse_string()?)),
            _ if p.eat_keyword("true") => Ok(Value::Bool(true)),
            _ if p.eat_keyword("false") => Ok(Value::Bool(false)),
            _ if p.eat_keyword("null") => Ok(Value::Null),
            _ => Ok(Value::Num(p.parse_num()?)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Arr(items) => write!(f, "[{} items]", items.len()),
            Value::Obj(fields) => {
                let parts: Vec<String> = fields.iter().map(|(k, v)| format!("{k}: {v}")).collect();
                write!(f, "{{{}}}", parts.join(", "))
            }
        }
    }
}
