//! Integration tests of the telemetry subsystem: observe-only semantics
//! (byte-identical results with telemetry on and off, on every backend),
//! quality-gauge and event-ring population, the HTTP exporter, and the
//! remote window-footprint regression (`ShardRuntimeStats::window_bytes`
//! must be non-zero on the `Remote` backend).

use mswj::core::engine::transport::serve_uds;
use mswj::prelude::*;
use std::io::{Read, Write};

fn schema() -> Schema {
    Schema::new(vec![("a1", FieldType::Int)])
}

/// A disordered 2-stream workload: tuples every 10 ms on both streams over
/// a small shared key domain, with every 4th tuple of stream 0 arriving
/// 180 ms late — enough disorder for checkpoints to move K.
fn workload(n: u64) -> Vec<ArrivalEvent> {
    let mut events = Vec::new();
    for i in 1..=n {
        let arrival = i * 10;
        let ts0 = if i % 4 == 0 {
            arrival.saturating_sub(180)
        } else {
            arrival
        };
        let key = (i % 4) as i64;
        events.push(ArrivalEvent::new(
            Timestamp::from_millis(arrival),
            Tuple::new(
                StreamIndex(0),
                i,
                Timestamp::from_millis(ts0),
                vec![Value::Int(key)],
            ),
        ));
        events.push(ArrivalEvent::new(
            Timestamp::from_millis(arrival),
            Tuple::new(
                StreamIndex(1),
                i,
                Timestamp::from_millis(arrival),
                vec![Value::Int(key)],
            ),
        ));
    }
    events
}

fn session(backend: ExecutionBackend, telemetry: Option<Telemetry>) -> Pipeline {
    let mut builder = Pipeline::builder()
        .streams(2, schema(), 500)
        .on_common_key("a1")
        .policy(BufferPolicy::QualityDriven(
            DisorderConfig::with_gamma(0.9).period(2_000).interval(500),
        ))
        .materialize_results()
        .parallelism(backend);
    if let Some(t) = telemetry {
        builder = builder.telemetry(t);
    }
    builder.build().unwrap()
}

#[test]
fn telemetry_is_observe_only_on_every_backend() {
    // The differential guarantee: attaching telemetry must not change a
    // single materialized result, checkpoint or counter, on any backend.
    for backend in [
        ExecutionBackend::Sequential,
        ExecutionBackend::Pool { workers: 2 },
        ExecutionBackend::remote_inproc(2),
    ] {
        let mut plain_sink = CollectSink::default();
        let mut plain = session(backend.clone(), None);
        for e in workload(600) {
            plain.push_into(e, &mut plain_sink);
        }
        let plain_report = plain.finish_into(&mut plain_sink);

        let telemetry = Telemetry::new();
        let mut wired_sink = CollectSink::default();
        let mut wired = session(backend.clone(), Some(telemetry.clone()));
        for e in workload(600) {
            wired.push_into(e, &mut wired_sink);
        }
        let wired_report = wired.finish_into(&mut wired_sink);

        assert_eq!(
            plain_sink.results, wired_sink.results,
            "{backend}: telemetry changed the materialized results"
        );
        assert_eq!(plain_report.total_produced, wired_report.total_produced);
        assert_eq!(plain_report.operator_stats, wired_report.operator_stats);
        assert_eq!(
            plain_report.checkpoints.len(),
            wired_report.checkpoints.len()
        );
        // And the instrumented run really observed the workload.
        assert_eq!(
            telemetry.session().events_ingested.get(),
            1_200,
            "{backend}"
        );
        assert!(telemetry.session().checkpoints.get() > 0, "{backend}");
    }
}

#[test]
fn quality_gauges_and_event_ring_populate_after_checkpoints() {
    // Every 100th arrival also brings a stream-0 tuple 900 ms late, past
    // the 500 ms window, so the join drops it; the 180 ms late tuples of
    // `workload` stay in scope and are inserted.
    let mut events = workload(600);
    for i in (1..=6u64).rev().map(|k| k * 100) {
        let late = Tuple::new(
            StreamIndex(0),
            10_000 + i,
            Timestamp::from_millis(i * 10 - 900),
            vec![Value::Int(1)],
        );
        let at = 2 * i as usize;
        events.insert(at, ArrivalEvent::new(Timestamp::from_millis(i * 10), late));
    }
    let telemetry = Telemetry::new();
    let mut pipeline = session(ExecutionBackend::Sequential, Some(telemetry.clone()));
    let s = telemetry.session();
    // The drop-rate gauge is set at a checkpoint.  Where a push takes one
    // and leaves the join's counters as they were, they are the ones the
    // gauge read.
    let mut exact = 0;
    for e in events {
        let (before, checkpoints) = (pipeline.engine().stats(), s.checkpoints.get());
        pipeline.push(e);
        if s.checkpoints.get() > checkpoints && pipeline.engine().stats() == before {
            let arrived = before.in_order + before.out_of_order;
            let rate = before.dropped as f64 / arrived as f64;
            assert_eq!(s.drop_rate.get(), rate, "{before:?}");
            exact += 1;
        }
    }
    assert!(
        exact > 0,
        "no checkpoint left the join's counters unchanged"
    );
    assert!(s.checkpoints.get() > 0);
    assert!(s.k_ms.get() >= 0.0, "K gauge must be set");
    assert!(
        s.drop_rate.get() > 0.0,
        "tuples past the window are dropped"
    );
    assert!(
        s.recall_observed.get() > 0.0,
        "a joining workload must observe recall"
    );
    assert!(s.kslack_delay_ms.count() > 0);
    assert!(s.ingest_emit_latency_nanos.count() > 0);
    assert!(s.results_emitted.get() > 0);

    let events = telemetry.recent_events();
    assert!(
        events.iter().any(|e| e.kind == EventKind::Checkpoint),
        "checkpoints must land in the event ring, got {events:?}"
    );
    let report = pipeline.finish();
    assert!(report.total_produced > 0);
    // The dropped counter counts dropped tuples, not every late one.
    let stats = report.operator_stats;
    assert!(
        stats.dropped > 0 && stats.dropped < stats.out_of_order,
        "{stats:?}"
    );
    assert_eq!(s.tuples_dropped.get(), stats.dropped);
}

#[test]
fn event_callback_fires_synchronously() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let seen = Arc::new(AtomicU64::new(0));
    let counter = seen.clone();
    let telemetry = Telemetry::new();
    telemetry.set_event_callback(Arc::new(move |event: &TelemetryEvent| {
        assert!(!event.message.is_empty());
        counter.fetch_add(1, Ordering::Relaxed);
    }));
    let mut pipeline = Pipeline::builder()
        .streams(2, schema(), 500)
        .on_common_key("a1")
        .policy(BufferPolicy::QualityDriven(
            DisorderConfig::with_gamma(0.9).period(2_000).interval(500),
        ))
        .telemetry(telemetry)
        .build()
        .unwrap();
    for e in workload(400) {
        pipeline.push(e);
    }
    assert!(
        seen.load(Ordering::Relaxed) > 0,
        "checkpoint events must reach the registered callback"
    );
    let _ = pipeline.finish();
}

#[test]
fn remote_uds_backend_reports_window_footprint() {
    // Satellite regression: the barrier reply carries the server-side
    // window footprint, so `ShardRuntimeStats::window_bytes` is non-zero
    // on the `Remote` backend exactly like on local ones.
    let path = std::env::temp_dir().join(format!("mswj-obs-test-{}.sock", std::process::id()));
    let serve_path = path.clone();
    std::thread::spawn(move || {
        let _ = serve_uds(&serve_path, None);
    });
    // Wait for the listener to bind.
    for _ in 0..200 {
        if path.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    let telemetry = Telemetry::new();
    let backend = ExecutionBackend::Remote {
        endpoints: vec![Endpoint::Uds(path.clone())],
    };
    let mut pipeline = session(backend, Some(telemetry.clone()));
    let mut events = workload(432);
    let batch = events.split_off(800);
    for e in events {
        pipeline.push(e);
    }
    // A batch leaves an epoch in flight, so the read below takes the
    // busy-shard path over the socket on every run.
    pipeline.push_batch_into(batch, &mut NullSink);
    assert!(pipeline.engine().has_outstanding());
    // Mid-run, with windows populated: the barrier-time shard stats must
    // carry the remote operator's live footprint.
    let stats = pipeline.shard_stats();
    assert_eq!(stats.len(), 1);
    assert!(
        stats[0].runtime.window_bytes > 0,
        "remote shard reported zero window bytes: {:?}",
        stats[0].runtime
    );
    assert!(stats[0].runtime.window_segments > 0);
    // The per-shard telemetry gauges mirror the same figures after a
    // checkpoint barrier published them.
    let shard = telemetry.shard(0);
    assert!(shard.window_bytes.get() > 0.0);
    assert!(shard.frames_sent.get() > 0.0);
    let report = pipeline.finish();
    assert!(report.total_produced > 0);
    let _ = std::fs::remove_file(&path);
}

/// Issues one HTTP GET against the exporter and returns the full response.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

#[test]
fn exporter_serves_live_session_metrics() {
    let telemetry = Telemetry::new();
    let exporter = MetricsExporter::serve("127.0.0.1:0", telemetry.clone()).unwrap();
    let mut pipeline = session(
        ExecutionBackend::Pool { workers: 2 },
        Some(telemetry.clone()),
    );
    for e in workload(600) {
        pipeline.push(e);
    }

    let response = http_get(exporter.local_addr(), "/metrics");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    let body = response
        .split_once("\r\n\r\n")
        .expect("header/body split")
        .1;
    for required in [
        "mswj_k_ms",
        "mswj_gamma_prime",
        "mswj_recall_observed",
        "mswj_drop_rate",
        "mswj_checkpoints_total",
        "mswj_kslack_delay_ms_bucket",
        "mswj_ingest_emit_latency_nanos_count",
        "mswj_shard_queue_depth",
        "mswj_shard_busy_share",
        "mswj_shard_window_bytes",
    ] {
        assert!(body.contains(required), "scrape misses {required}:\n{body}");
    }
    // The scrape passes the repo's own Prometheus text-format checker.
    let samples = mswj::core::check_prometheus_text(body)
        .unwrap_or_else(|e| panic!("scrape is not well-formed: {e}"));
    assert!(
        samples > 20,
        "expected a full scrape, got {samples} samples"
    );
    // The latency histogram is populated, not just registered.
    assert!(telemetry.session().ingest_emit_latency_nanos.count() > 0);

    let json = http_get(exporter.local_addr(), "/metrics.json");
    assert!(json.starts_with("HTTP/1.1 200 OK"));
    let json_body = json.split_once("\r\n\r\n").unwrap().1;
    assert!(json_body.contains("\"mswj_k_ms\""), "{json_body}");
    assert!(json_body.contains("\"shards\""), "{json_body}");

    assert!(http_get(exporter.local_addr(), "/nope").starts_with("HTTP/1.1 404"));
    let _ = pipeline.finish();
}
