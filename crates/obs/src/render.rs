//! Snapshot rendering: Prometheus text exposition format and JSON.
//!
//! Both renderers read the registry with relaxed loads — a scrape observes
//! a near-instantaneous, not strictly atomic, picture of the instruments,
//! which is all a monitoring system expects.  Rendering allocates freely;
//! it runs on the exporter thread (or at process exit for
//! `--metrics-out`), never on the ingestion path.  Both are loops over the
//! family tables in `registry.rs`, which name every metric.

use crate::instruments::Histogram;
use crate::registry::{
    Family, Telemetry, EVENTS_BUFFERED, SESSION_COUNTERS, SESSION_GAUGES, SESSION_HISTOGRAMS,
    SHARD_GAUGES,
};
use std::fmt::Write as _;

/// Formats one sample value the way the Prometheus text format expects:
/// integral values without a fractional part, specials as `NaN`/`+Inf`/
/// `-Inf`.
fn prom_value(v: f64) -> String {
    match v {
        f64::INFINITY => "+Inf".to_string(),
        f64::NEG_INFINITY => "-Inf".to_string(),
        _ if v.is_nan() => "NaN".to_string(),
        _ if v == v.trunc() && v.abs() < 9e15 => (v as i64).to_string(),
        _ => v.to_string(),
    }
}

fn prom_header<S, I>(out: &mut String, f: &Family<S, I>) {
    let _ = writeln!(out, "# HELP {} {}", f.name, f.help);
    let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind);
}

fn prom_histogram(out: &mut String, name: &str, h: &Histogram) {
    let mut cumulative = 0u64;
    for (idx, count) in h.bucket_counts().iter().enumerate() {
        cumulative += count;
        let le = Histogram::bucket_upper_bound(idx).map_or("+Inf".to_string(), |le| le.to_string());
        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{name}_sum {}", h.sum());
    let _ = writeln!(out, "{name}_count {}", h.count());
}

/// A JSON string literal: quoted, with quotes, backslash and control
/// characters escaped.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON has no `NaN`/`Inf`: map non-finite gauges to `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        prom_value(v)
    } else {
        "null".to_string()
    }
}

fn json_object(fields: impl IntoIterator<Item = (&'static str, String)>) -> String {
    let fields = fields
        .into_iter()
        .map(|(key, value)| format!("\"{key}\":{value}"));
    json_list('{', fields, '}')
}

/// Comma-joined items between `open` and `close`.
fn json_list(open: char, items: impl Iterator<Item = String>, close: char) -> String {
    format!("{open}{}{close}", items.collect::<Vec<_>>().join(","))
}

fn json_histogram(h: &Histogram) -> String {
    let counts = h.bucket_counts().into_iter().enumerate();
    let buckets = counts.map(|(idx, count)| {
        let le = Histogram::bucket_upper_bound(idx).map_or("null".to_string(), |le| le.to_string());
        json_object([("le", le), ("count", count.to_string())])
    });
    json_object([
        ("count", h.count().to_string()),
        ("sum", h.sum().to_string()),
        ("buckets", json_list('[', buckets, ']')),
    ])
}

impl Telemetry {
    /// Renders the whole registry in the Prometheus text exposition
    /// format (version 0.0.4), the payload of `GET /metrics`.
    pub fn render_prometheus(&self) -> String {
        let s = self.session();
        let mut out = String::with_capacity(4096);
        for f in &SESSION_GAUGES {
            prom_header(&mut out, f);
            let _ = writeln!(out, "{} {}", f.name, prom_value((f.field)(s).get()));
        }
        for f in &SESSION_COUNTERS {
            prom_header(&mut out, f);
            let _ = writeln!(out, "{} {}", f.name, (f.field)(s).get());
        }
        for f in &SESSION_HISTOGRAMS {
            prom_header(&mut out, f);
            prom_histogram(&mut out, f.name, (f.field)(s));
        }
        let shards = self.shards_snapshot();
        if !shards.is_empty() {
            for f in &SHARD_GAUGES {
                prom_header(&mut out, f);
                for (i, sh) in shards.iter().enumerate() {
                    let value = prom_value((f.field)(sh).get());
                    let _ = writeln!(out, "{}{{shard=\"{i}\"}} {value}", f.name);
                }
            }
        }
        let f = &EVENTS_BUFFERED;
        prom_header(&mut out, f);
        let _ = writeln!(out, "{} {}", f.name, (f.field)(self).len());
        out
    }

    /// Renders the whole registry (including the event ring) as a single
    /// JSON object, the payload of `GET /metrics.json` and of
    /// `--metrics-out`.
    pub fn render_json(&self) -> String {
        let s = self.session();
        let gauges = SESSION_GAUGES.map(|f| (f.key, json_number((f.field)(s).get())));
        let counters = SESSION_COUNTERS.map(|f| (f.key, (f.field)(s).get().to_string()));
        let histograms = SESSION_HISTOGRAMS.map(|f| (f.key, json_histogram((f.field)(s))));
        let shards = self.shards_snapshot().into_iter().enumerate();
        let shards = shards.map(|(i, sh)| {
            let gauges = SHARD_GAUGES.map(|f| (f.key, json_number((f.field)(&sh).get())));
            json_object(std::iter::once(("shard", i.to_string())).chain(gauges))
        });
        let events = self.recent_events().into_iter().map(|ev| {
            json_object([
                ("at_ms", ev.at_ms.to_string()),
                ("kind", json_string(ev.kind.as_str())),
                ("message", json_string(&ev.message)),
            ])
        });
        json_object([
            ("gauges", json_object(gauges)),
            ("counters", json_object(counters)),
            ("histograms", json_object(histograms)),
            ("shards", json_list('[', shards, ']')),
            ("events", json_list('[', events, ']')),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{EventKind, TelemetryEvent};

    #[test]
    fn prometheus_output_carries_the_quality_gauges() {
        let t = Telemetry::new();
        t.session().k_ms.set(250.0);
        t.session().gamma_prime.set(f64::NAN);
        t.session().recall_observed.set(0.97);
        t.session().kslack_delay_ms.record(12);
        t.shard(1).window_bytes.set(4096.0);
        let text = t.render_prometheus();
        assert!(text.contains("# TYPE mswj_k_ms gauge"));
        assert!(text.contains("mswj_k_ms 250"));
        assert!(text.contains("mswj_recall_observed 0.97"));
        assert!(text.contains("# TYPE mswj_kslack_delay_ms histogram"));
        assert!(text.contains("mswj_kslack_delay_ms_count 1"));
        assert!(text.contains("mswj_kslack_delay_ms_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("mswj_shard_window_bytes{shard=\"1\"} 4096"));
        // NaN quality gauges render as the text format's NaN literal.
        assert!(text.contains("mswj_gamma_prime NaN"));
    }

    #[test]
    fn json_output_is_parseable_shape_and_escapes_messages() {
        let t = Telemetry::new();
        t.session().gamma_prime.set(f64::NAN);
        t.emit(TelemetryEvent {
            at_ms: 7,
            kind: EventKind::Checkpoint,
            message: "split \"hot\" key\n".into(),
        });
        let json = t.render_json();
        assert!(json.contains("\"mswj_gamma_prime\":null"));
        assert!(json.contains("\"kind\":\"checkpoint\""));
        assert!(json.contains("split \\\"hot\\\" key\\n"));
        assert!(json.starts_with('{') && json.ends_with('}'));
        // Balanced braces/brackets as a cheap structural check.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn prom_value_formats_specials() {
        assert_eq!(prom_value(f64::NAN), "NaN");
        assert_eq!(prom_value(f64::INFINITY), "+Inf");
        assert_eq!(prom_value(1.0), "1");
        assert_eq!(prom_value(0.5), "0.5");
    }
}
