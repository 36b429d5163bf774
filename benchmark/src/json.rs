//! The little JSON this benchmark needs: an order-preserving value tree and
//! a writer, plus a scanner that reads single numbers back out of a child
//! run's result line.  (`vendor/serde` is a derive-only stand-in with no
//! JSON back-end.)

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Keys keep their insertion order, so output is deterministic.
    Obj(Vec<(String, Json)>),
    /// Already-rendered JSON, embedded verbatim (a child run's result line).
    Raw(String),
}

impl Json {
    pub fn obj<K: Into<String>>(pairs: Vec<(K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Single-line rendering (the result line).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indented rendering (`BENCHMARK.json`, snapshots).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(n) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', n * depth));
            }
        };
        match self {
            Json::Raw(text) => out.push_str(text),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                // Arrays of scalars stay on one line even when pretty.
                let flat = items
                    .iter()
                    .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_) | Json::Raw(_)));
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if indent.is_some() && flat { ", " } else { "," });
                    }
                    if !flat {
                        newline(out, depth + 1);
                    }
                    item.write(out, indent, depth + 1);
                }
                if !flat && !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                // Leaf objects (a metric row) stay on one line.
                let flat = pairs
                    .iter()
                    .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_) | Json::Raw(_)))
                    && depth > 0;
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if indent.is_some() && flat { ", " } else { "," });
                    }
                    if !flat {
                        newline(out, depth + 1);
                    }
                    write_str(out, k);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, indent, depth + 1);
                }
                if !flat && !pairs.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no NaN/inf; a metric that is undefined is reported null.
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        // Shortest representation that round-trips: every measured digit.
        let _ = write!(out, "{n}");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The value of metric `name` in a compact result line this program wrote
/// (`"name":{"value":1.25,"unit":…}`); `None` when it is absent or `null`.
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":{{\"value\":");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Whether a compact result line reports `"correct":true`.
pub fn is_correct(line: &str) -> bool {
    line.contains("\"correct\":true")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(1_234_567.0)),
            (
                "metrics",
                Json::obj(vec![
                    (
                        "throughput_eps",
                        Json::obj(vec![
                            ("value", Json::Num(1_203_441.332_211)),
                            ("unit", Json::str("events/s")),
                        ]),
                    ),
                    (
                        "obs.attached_overhead_pct",
                        Json::obj(vec![
                            ("value", Json::Num(f64::NAN)),
                            ("unit", Json::str("%")),
                        ]),
                    ),
                ]),
            ),
        ])
    }

    #[test]
    fn compact_is_one_line_and_the_scanner_reads_it_back() {
        let line = sample().compact();
        assert!(!line.contains('\n'));
        assert!(is_correct(&line));
        assert_eq!(
            metric_value(&line, "throughput_eps"),
            Some(1_203_441.332_211)
        );
        assert_eq!(metric_value(&line, "obs.attached_overhead_pct"), None);
        assert_eq!(metric_value(&line, "eps"), None);
    }

    #[test]
    fn raw_is_embedded_verbatim_and_strings_are_escaped() {
        let line = sample().compact();
        let doc = Json::obj(vec![
            ("note", Json::str("a \"quoted\"\tline\n")),
            ("run", Json::Raw(line.clone())),
        ]);
        assert_eq!(
            doc.compact(),
            format!("{{\"note\":\"a \\\"quoted\\\"\\tline\\n\",\"run\":{line}}}")
        );
        assert!(doc.pretty().ends_with("}\n"));
    }

    #[test]
    fn numbers_keep_every_digit_and_integers_stay_integers() {
        assert_eq!(Json::Num(3.0).compact(), "3");
        assert_eq!(Json::Num(0.1 + 0.2).compact(), "0.30000000000000004");
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
    }
}
