//! # mswj-obs — live telemetry for the m-way stream join
//!
//! The paper's contribution is a *runtime* quality/latency trade-off: the
//! buffer size K, the instant recall requirement Γ′, the observed recall
//! and the drop rate all evolve every adaptation interval.  This crate
//! makes those signals (plus the executor/transport runtime the parallel
//! backends add) observable **while the join runs**, without perturbing
//! it:
//!
//! * [`Telemetry`] — a cheap-to-clone handle over a lock-light registry of
//!   pre-registered [`Counter`]s, [`Gauge`]s and fixed-bucket log₂
//!   [`Histogram`]s.  Hot-path recording is a few relaxed atomics: no
//!   locks, no allocation, no map lookups.
//! * A bounded ring of recent structured [`TelemetryEvent`]s
//!   (checkpoints) with
//!   an optional synchronous callback — the replacement for ad-hoc
//!   `eprintln!` diagnostics.
//! * Renderers for the Prometheus text exposition format and JSON, and a
//!   dependency-free HTTP [`MetricsExporter`] serving both on a
//!   background thread (`GET /metrics`, `GET /metrics.json`).
//! * [`check_prometheus_text`] — a small text-format linter (also shipped
//!   as the `promlint` binary) used by CI to validate live scrapes.
//!
//! Telemetry is strictly observe-only: instruments are updated outside
//! the sequential-equivalent merge path, so enabling it cannot change a
//! single produced byte.
//!
//! ```
//! use mswj_obs::{MetricsExporter, Telemetry};
//!
//! let telemetry = Telemetry::new();
//! telemetry.session().k_ms.set(250.0);
//! telemetry.session().kslack_delay_ms.record(12);
//!
//! // Serve it (ephemeral port) and scrape once.
//! let exporter = MetricsExporter::serve("127.0.0.1:0", telemetry.clone()).unwrap();
//! assert!(telemetry.render_prometheus().contains("mswj_k_ms 250"));
//! drop(exporter); // stops the background thread
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod events;
mod exporter;
mod instruments;
mod promcheck;
mod registry;
mod render;

pub use events::{EventKind, TelemetryEvent, EVENT_RING_CAPACITY};
pub use exporter::MetricsExporter;
pub use instruments::{Counter, Gauge, Histogram, HISTOGRAM_BUCKETS};
pub use promcheck::check_prometheus_text;
pub use registry::{EventCallback, SessionInstruments, ShardInstruments, Telemetry};
