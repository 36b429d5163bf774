//! A small Prometheus text-exposition-format (0.0.4) checker.
//!
//! Used by CI to lint a live scrape of `/metrics` and by the test suite to
//! validate the renderer.  It checks structural well-formedness — metric
//! name syntax, `# HELP`/`# TYPE` comment shape, label syntax, sample
//! value parseability, and that samples of a `TYPE`d metric match the
//! declared type's naming (histogram series use the `_bucket`/`_sum`/
//! `_count` suffixes, and only counters end in `_total`) — not semantic
//! monotonicity.

use std::collections::HashMap;

/// Returns `Ok(sample_count)` if `input` is well-formed Prometheus text
/// exposition format, or a message naming the first offending line.
pub fn check_prometheus_text(input: &str) -> Result<usize, String> {
    let mut types: HashMap<String, String> = HashMap::new();
    let mut samples = 0usize;
    for (lineno, raw) in input.lines().enumerate() {
        let line = raw.trim_end();
        let at = |msg: &str| format!("line {}: {msg}: {line:?}", lineno + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("HELP ") {
                let mut parts = rest.splitn(2, ' ');
                let name = parts.next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(at("HELP line names an invalid metric"));
                }
            } else if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().unwrap_or("");
                let ty = parts.next().unwrap_or("");
                if !valid_metric_name(name) {
                    return Err(at("TYPE line names an invalid metric"));
                }
                if !matches!(
                    ty,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(at("TYPE line declares an unknown type"));
                }
                if parts.next().is_some() {
                    return Err(at("TYPE line has trailing tokens"));
                }
                if name.ends_with("_total") && ty != "counter" {
                    return Err(at("only a counter family may end in _total"));
                }
                types.insert(name.to_string(), ty.to_string());
            }
            // Other comments are free-form and legal.
            continue;
        }
        // A sample: name[{labels}] value [timestamp]
        let (name_and_labels, rest) = match line.find([' ', '{']) {
            Some(i) if line.as_bytes()[i] == b'{' => {
                let close = line.find('}').ok_or_else(|| at("unterminated label set"))?;
                (line[..=close].to_string(), line[close + 1..].trim_start())
            }
            Some(i) => (line[..i].to_string(), line[i..].trim_start()),
            None => return Err(at("sample line has no value")),
        };
        let (name, labels) = match name_and_labels.find('{') {
            Some(i) => (
                &name_and_labels[..i],
                Some(&name_and_labels[i + 1..name_and_labels.len() - 1]),
            ),
            None => (name_and_labels.as_str(), None),
        };
        if !valid_metric_name(name) {
            return Err(at("invalid metric name"));
        }
        let label_names = match labels {
            Some(labels) => check_labels(labels).map_err(|m| at(&m))?,
            None => Vec::new(),
        };
        let mut value_parts = rest.split_whitespace();
        let value = value_parts.next().ok_or_else(|| at("missing value"))?;
        if !valid_sample_value(value) {
            return Err(at("unparseable sample value"));
        }
        if let Some(ts) = value_parts.next() {
            if ts.parse::<i64>().is_err() {
                return Err(at("unparseable timestamp"));
            }
        }
        if value_parts.next().is_some() {
            return Err(at("trailing tokens after sample"));
        }
        // A histogram-typed family must only be exposed through its
        // _bucket/_sum/_count series, and _bucket needs an `le` label.
        let base = histogram_base(name);
        if let Some(base_name) = base {
            if types.get(base_name).map(String::as_str) == Some("histogram")
                && name.ends_with("_bucket")
                && !label_names.iter().any(|n| n == "le")
            {
                return Err(at("histogram _bucket sample lacks an le label"));
            }
        } else if types.get(name).map(String::as_str) == Some("histogram") {
            return Err(at(
                "histogram family exposed without _bucket/_sum/_count suffix",
            ));
        }
        samples += 1;
    }
    Ok(samples)
}

fn histogram_base(name: &str) -> Option<&str> {
    name.strip_suffix("_bucket")
        .or_else(|| name.strip_suffix("_sum"))
        .or_else(|| name.strip_suffix("_count"))
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn valid_sample_value(value: &str) -> bool {
    matches!(value, "NaN" | "+Inf" | "-Inf" | "Inf") || value.parse::<f64>().is_ok()
}

/// Validates the label pairs and returns their names.
fn check_labels(labels: &str) -> Result<Vec<String>, String> {
    let mut names = Vec::new();
    if labels.is_empty() {
        return Ok(names);
    }
    // Split on commas outside quotes.
    let mut rest = labels;
    loop {
        let eq = rest
            .find('=')
            .ok_or_else(|| "label pair lacks '='".to_string())?;
        let name = &rest[..eq];
        if !valid_label_name(name) {
            return Err(format!("invalid label name {name:?}"));
        }
        names.push(name.to_string());
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err("label value is not quoted".to_string());
        }
        // Find the closing quote, honouring backslash escapes.
        let bytes = after.as_bytes();
        let mut i = 1;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => break,
                _ => i += 1,
            }
        }
        if i >= bytes.len() {
            return Err("unterminated label value".to_string());
        }
        let tail = after[i + 1..].trim_start();
        if tail.is_empty() {
            return Ok(names);
        }
        rest = tail
            .strip_prefix(',')
            .ok_or_else(|| "label pairs not comma-separated".to_string())?
            .trim_start();
        if rest.is_empty() {
            // A trailing comma is tolerated by Prometheus parsers.
            return Ok(names);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_the_renderers_own_output() {
        let t = crate::Telemetry::new();
        t.session().k_ms.set(100.0);
        t.session().kslack_delay_ms.record(5);
        t.shard(0).queue_depth.set(3.0);
        let n = check_prometheus_text(&t.render_prometheus()).expect("well-formed");
        assert!(n > 30, "expected many samples, got {n}");
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(check_prometheus_text("1bad_name 3\n").is_err());
        assert!(check_prometheus_text("ok_name notanumber\n").is_err());
        assert!(check_prometheus_text("ok{le=\"unterminated} 1\n").is_err());
        assert!(check_prometheus_text("ok{9bad=\"x\"} 1\n").is_err());
        assert!(check_prometheus_text("# TYPE ok widget\nok 1\n").is_err());
        assert!(
            check_prometheus_text("# TYPE h histogram\nh 1\n").is_err(),
            "histogram family must use _bucket/_sum/_count"
        );
        assert!(check_prometheus_text("# TYPE h histogram\nh_bucket{notle=\"1\"} 1\n").is_err());
    }

    #[test]
    fn rejects_the_counter_suffix_on_a_non_counter_family() {
        let bad = "# TYPE routed_total gauge\nrouted_total{shard=\"0\"} 43\n";
        let err = check_prometheus_text(bad).unwrap_err();
        assert!(err.contains("_total"), "{err}");
        let good = "# TYPE routed_total counter\nrouted_total{shard=\"0\"} 43\n";
        assert_eq!(check_prometheus_text(good), Ok(1));
    }

    #[test]
    fn accepts_specials_and_timestamps() {
        let ok = "g NaN\ng2 +Inf\ng3{a=\"b\",c=\"d\"} 1.5 1700000000\n";
        assert_eq!(check_prometheus_text(ok).unwrap(), 3);
    }
}
