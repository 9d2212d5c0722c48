//! A JSON value over the vendored `serde` traits.
//!
//! The vendored `serde_json` has no `Value` type and its derive has no
//! maps, but the runner's result line carries a map of metric names. This
//! is the one dynamic value the benchmark needs, for everything it writes
//! (result line, detail line, trace files) and reads back (child runs in
//! the all-workloads mode, `BENCHMARK.json` in the unit tests).

use serde::de::{Error, Parser};

/// One JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A whole number, written without a fraction.
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }

    pub fn to_json_string(&self) -> String {
        serde_json::to_string(self).expect("the vendored writer is infallible")
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

impl serde::Serialize for Json {
    fn serialize_json(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => b.serialize_json(out),
            Json::Int(v) => v.serialize_json(out),
            Json::Num(v) => v.serialize_json(out),
            Json::Str(s) => s.serialize_json(out),
            Json::Arr(items) => items.serialize_json(out),
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    k.serialize_json(out);
                    out.push(':');
                    v.serialize_json(out);
                }
                out.push('}');
            }
        }
    }
}

impl serde::Deserialize for Json {
    fn deserialize_json(p: &mut Parser<'_>) -> Result<Self, Error> {
        match p.peek() {
            Some(b'{') => {
                p.expect_byte(b'{')?;
                let mut pairs = Vec::new();
                if p.peek() == Some(b'}') {
                    p.expect_byte(b'}')?;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    let key = p.parse_string()?;
                    p.expect_byte(b':')?;
                    pairs.push((key, Json::deserialize_json(p)?));
                    if p.peek() == Some(b',') {
                        p.expect_byte(b',')?;
                    } else {
                        break;
                    }
                }
                p.expect_byte(b'}')?;
                Ok(Json::Obj(pairs))
            }
            Some(b'[') => Ok(Json::Arr(Vec::<Json>::deserialize_json(p)?)),
            Some(b'"') => Ok(Json::Str(p.parse_string()?)),
            Some(b't') | Some(b'f') => Ok(Json::Bool(bool::deserialize_json(p)?)),
            Some(b'n') if p.eat_keyword("null") => Ok(Json::Null),
            Some(_) => {
                let text = p.parse_number_str()?;
                if let Ok(v) = text.parse::<i64>() {
                    return Ok(Json::Int(v));
                }
                text.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| p.error(format!("invalid number '{text}'")))
            }
            None => Err(p.error("unexpected end of input")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values_and_keeps_whole_numbers_whole() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            (
                "metrics",
                Json::obj([(
                    "latency_ms",
                    Json::obj([("value", Json::Num(1.2034e-5)), ("unit", Json::str("ms"))]),
                )]),
            ),
            ("list", Json::Arr(vec![Json::Null, Json::Int(-3)])),
        ]);
        let text = v.to_json_string();
        assert!(text.contains("\"attempted\":1000,"), "{text}");
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert!(Json::parse("").is_err());
    }
}
