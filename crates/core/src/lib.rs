//! # mswj-core — quality-driven disorder handling for m-way stream joins
//!
//! This crate is the reproduction of the primary contribution of
//! *"Quality-Driven Disorder Handling for M-way Sliding Window Stream
//! Joins"* (Ji et al., ICDE 2016): a buffer-based disorder-handling
//! framework that minimizes the result latency of an m-way sliding window
//! join while honouring a user-specified requirement `Γ` on the recall of
//! the produced join results.
//!
//! ## Components (Fig. 2 of the paper)
//!
//! | Module | Paper concept |
//! |---|---|
//! | [`kslack`] | K-slack intra-stream sorting buffers (Sec. III-A) |
//! | [`synchronizer`] | Inter-stream Synchronizer, Alg. 1 |
//! | [`statistics`] | Statistics Manager: delay histograms, `K_sync`, rates (Sec. IV-A) |
//! | [`profiler`] | Tuple-Productivity Profiler: DPcorr, Eq. 6 (Sec. IV-B) |
//! | [`result_monitor`] | Result-Size Monitor feeding Eq. 7 (Sec. IV-C) |
//! | [`model`] | Analytical recall model `γ(L, K)`, Eqs. 1–5 |
//! | [`adaptation`] | Buffer-Size Manager, model-based K search, Alg. 3 |
//! | [`policy`] | Quality-driven policy plus the paper's baselines |
//! | [`engine`] | Key-partitioned sharded join stage behind the sequential front-end |
//! | [`pipeline`] | End-to-end wiring driven by arrival events |
//! | [`builder`] | Fluent [`SessionBuilder`] assembling a whole session |
//! | [`output`] | Typed [`OutputEvent`]s, [`Checkpoint`], [`RunReport`] |
//! | [`sink`] | [`Sink`] trait and the built-in event sinks |
//!
//! ## Quick example
//!
//! ```
//! use mswj_core::{CountingSink, Pipeline};
//! use mswj_types::{ArrivalEvent, FieldType, Schema, Timestamp, Tuple, Value};
//!
//! // A 2-way equi-join with 1-second windows and quality-driven disorder
//! // handling targeting 95% recall, declared in one chain.
//! let mut pipeline = Pipeline::builder()
//!     .name("example")
//!     .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 1_000)
//!     .on_common_key("a1")
//!     .quality_driven(0.95)
//!     .period(5_000)
//!     .interval(1_000)
//!     .build()
//!     .unwrap();
//!
//! // Drive it event by event; the sink observes checkpoints and progress.
//! let mut sink = CountingSink::default();
//! for i in 1..=100u64 {
//!     let ts = Timestamp::from_millis(i * 10);
//!     pipeline.push_into(ArrivalEvent::new(ts, Tuple::new(0.into(), i, ts, vec![Value::Int(1)])), &mut sink);
//!     pipeline.push_into(ArrivalEvent::new(ts, Tuple::new(1.into(), i, ts, vec![Value::Int(1)])), &mut sink);
//! }
//! let report = pipeline.finish();
//! assert!(report.total_produced > 0);
//! assert!(sink.last_progress.is_some());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod adaptation;
pub mod builder;
pub mod config;
pub mod engine;
pub mod kslack;
pub mod model;
mod ordered_buffer;
pub mod output;
pub mod pipeline;
pub mod policy;
pub mod profiler;
pub mod result_monitor;
pub mod sink;
pub mod statistics;
pub mod synchronizer;

pub use adaptation::{AdaptationOutcome, BufferSizeManager};
pub use builder::SessionBuilder;
pub use config::{DisorderConfig, ProbePlan, ProbeStrategy, SelectivityStrategy};
pub use engine::{
    Endpoint, EngineError, EngineEvent, ExecutionBackend, JoinEngine, PlanAction, PlanTransition,
    ReplanConfig, ShardRuntimeStats, ShardStats, SkewConfig, SkewTransition,
};
pub use kslack::{KSlack, KSlackStats};
pub use model::{ModelInputs, RecallModel};
pub use mswj_obs::{
    check_prometheus_text, EventCallback, EventKind, MetricsExporter, Telemetry, TelemetryEvent,
};
pub use output::{Checkpoint, OutputEvent, RunReport};
pub use pipeline::Pipeline;
pub use policy::BufferPolicy;
pub use profiler::{ProductivityProfiler, SelectivityTable};
pub use result_monitor::ResultSizeMonitor;
pub use sink::{sink_fn, CollectSink, CountingSink, FnSink, NullSink, Sink};
pub use statistics::{DelayHistogram, StatisticsManager};
pub use synchronizer::{Synchronizer, SynchronizerStats};
