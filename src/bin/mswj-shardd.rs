//! `mswj-shardd` — a standalone shard server for the remote execution
//! backend.
//!
//! Serves shard operators over the versioned `mswj-wire` protocol: each
//! accepted connection gets its own operator (configured by the client's
//! setup frame) and its own thread, so one daemon can back several shards
//! of one engine, or several engines at once.
//!
//! ```text
//! mswj-shardd --uds /tmp/mswj-shard.sock   # Unix-domain socket
//! mswj-shardd --tcp 127.0.0.1:7400         # localhost TCP
//! mswj-shardd --uds /tmp/s.sock --metrics 127.0.0.1:9090
//! ```
//!
//! Point `ExecutionBackend::Remote` at the same endpoint to use it.  With
//! `--metrics <addr>` the daemon additionally serves live Prometheus text
//! at `GET http://<addr>/metrics` (and a JSON snapshot at
//! `/metrics.json`): one `mswj_shard_*` set per accepted connection,
//! refreshed at every client barrier by the publisher the client engine
//! uses, so each name means what it means client-side — the queue depth is
//! the connection's lifetime high-water, `mswj_shard_routed_total` and
//! `mswj_shard_epochs_total` are lifetime counters, and the session's
//! quality gauges read `NaN` (the daemon takes no checkpoints).

use mswj_core::engine::transport::{serve_tcp, serve_uds};
use mswj_obs::{MetricsExporter, Telemetry};
use std::path::PathBuf;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: mswj-shardd (--uds <socket-path> | --tcp <host:port>) [--metrics <host:port>]\n\n\
         Serves mswj shard operators over the versioned wire protocol; one\n\
         operator and one thread per accepted connection.  Runs until killed.\n\
         With --metrics, exposes Prometheus text at GET /metrics and a JSON\n\
         snapshot at GET /metrics.json on the given address."
    );
    exit(2);
}

/// One transport endpoint to listen on.
enum Listen {
    Uds(PathBuf),
    Tcp(String),
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut listen = None;
    let mut metrics = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--uds" if listen.is_none() => listen = Some(Listen::Uds(PathBuf::from(value))),
            "--tcp" if listen.is_none() => listen = Some(Listen::Tcp(value.clone())),
            "--metrics" if metrics.is_none() => metrics = Some(value.clone()),
            _ => usage(),
        }
    }
    let Some(listen) = listen else { usage() };

    let telemetry = metrics.is_some().then(Telemetry::new);
    // Held for the daemon's lifetime; dropped (and joined) only on exit.
    let _exporter = match (&metrics, &telemetry) {
        (Some(addr), Some(t)) => match MetricsExporter::serve(addr.as_str(), t.clone()) {
            Ok(exporter) => {
                eprintln!(
                    "mswj-shardd: metrics on http://{}/metrics",
                    exporter.local_addr()
                );
                Some(exporter)
            }
            Err(e) => {
                eprintln!("mswj-shardd: cannot serve metrics on {addr}: {e}");
                exit(1);
            }
        },
        _ => None,
    };

    let result = match listen {
        Listen::Uds(path) => serve_uds(&path, telemetry),
        Listen::Tcp(addr) => serve_tcp(&addr, telemetry),
    };
    if let Err(e) = result {
        eprintln!("mswj-shardd: {e}");
        exit(1);
    }
}
