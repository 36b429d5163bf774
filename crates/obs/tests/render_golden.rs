//! Golden pin of both renderers: the Prometheus text and the JSON snapshot
//! of a fully populated registry and of a fresh one must match the files
//! under `tests/golden/` byte for byte.
//!
//! The populated registry sets every instrument: `NaN`, `+Inf` and `-Inf`
//! gauges, an integral gauge above 9e15 (the `{v}` formatting path), a
//! histogram sample in the overflow bucket and a sum above 2^62, three shard
//! scopes, and two events whose messages need JSON escaping.  A renderer
//! change that is meant to change the output re-records the files from the
//! output the failing test prints, and says which lines moved.

use mswj_obs::{EventKind, Telemetry, TelemetryEvent};

fn populated() -> Telemetry {
    let t = Telemetry::new();
    let s = t.session();
    s.k_ms.set(250.0);
    s.gamma_prime.set(f64::NAN);
    s.recall_estimated.set(f64::INFINITY);
    s.recall_observed.set(f64::NEG_INFINITY);
    s.drop_rate.set(0.125);
    s.checkpoints.add(3);
    s.events_ingested.add(1_200);
    s.results_emitted.add(987_654_321);
    s.tuples_dropped.add(u64::MAX);
    for v in [0, 1, 12, 1 << 40] {
        s.kslack_delay_ms.record(v);
    }
    for v in [3, 1 << 62, 1 << 62] {
        s.ingest_emit_latency_nanos.record(v);
    }
    for i in 0..3 {
        let sh = t.shard(i);
        let f = (i + 1) as f64;
        sh.queue_depth.set(40.0 * f);
        sh.busy_share.set(0.25 * f);
        sh.window_bytes.set(4096.0 * f);
        sh.window_segments.set(3.0 * f);
        sh.routed.set(43.0 * f);
        sh.epochs_executed.set(2.0 * f);
        sh.frames_sent.set(7.0 * f);
        sh.frames_received.set(6.0 * f);
        sh.bytes_sent.set(1e16 * f);
        sh.bytes_received.set(f64::NAN);
        sh.rtt_nanos.set(131_072.5 * f);
    }
    t.emit(TelemetryEvent {
        at_ms: 7,
        kind: EventKind::Checkpoint,
        message: "split \"hot\" key\n\tshard 1\u{1}".into(),
    });
    t.emit(TelemetryEvent {
        at_ms: 1_500,
        kind: EventKind::Checkpoint,
        message: "tab\there, quote \" and newline\nthen \u{1} and \\ done".into(),
    });
    t
}

fn check(name: &str, got: &str, expected: &str) {
    if got != expected {
        let line = got
            .lines()
            .zip(expected.lines())
            .position(|(g, e)| g != e)
            .map_or_else(
                || "a trailing line".to_string(),
                |i| format!("line {}", i + 1),
            );
        panic!("{name}: output differs from the golden file at {line}\n--- got ---\n{got}");
    }
}

#[test]
fn populated_prometheus() {
    check(
        "populated.prom",
        &populated().render_prometheus(),
        include_str!("golden/populated.prom"),
    );
}

#[test]
fn populated_json() {
    check(
        "populated.json",
        &populated().render_json(),
        include_str!("golden/populated.json"),
    );
}

#[test]
fn fresh_prometheus() {
    check(
        "fresh.prom",
        &Telemetry::new().render_prometheus(),
        include_str!("golden/fresh.prom"),
    );
}

#[test]
fn fresh_json() {
    check(
        "fresh.json",
        &Telemetry::new().render_json(),
        include_str!("golden/fresh.json"),
    );
}
