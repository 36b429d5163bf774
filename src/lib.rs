//! # mswj — quality-driven disorder handling for m-way stream joins
//!
//! Facade crate re-exporting the whole workspace: the stream substrate
//! (`mswj-types`), the m-way sliding window join operator (`mswj-join`),
//! ADWIN change detection (`mswj-adwin`), the quality-driven
//! disorder-handling framework (`mswj-core`), workload generators
//! (`mswj-datasets`) and result-quality metrics (`mswj-metrics`).
//!
//! This is a from-scratch Rust reproduction of
//! *"Quality-Driven Disorder Handling for M-way Sliding Window Stream
//! Joins"* (Ji, Sun, Nica, Jerzak, Hackenbroich, Fetzer — ICDE 2016).
//! See `README.md` for a walkthrough, `docs/ARCHITECTURE.md` for the
//! architecture and the `mswj-experiments` crate for the reproduced tables
//! and figures.
//!
//! ## Quickstart
//!
//! A session is declared with the fluent builder
//! ([`Pipeline::builder`](prelude::Pipeline::builder)) and driven
//! event by event; output streams into a [`Sink`](prelude::Sink) with zero
//! per-event allocation in counting mode:
//!
//! ```
//! use mswj::prelude::*;
//!
//! // Two streams joined on equality of attribute "a1", 1-second windows,
//! // quality-driven disorder handling: ≥95% recall measured over 5 s.
//! let mut pipeline = Pipeline::builder()
//!     .name("quickstart")
//!     .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 1_000)
//!     .on_common_key("a1")
//!     .policy(BufferPolicy::QualityDriven(
//!         DisorderConfig::with_gamma(0.95).period(5_000).interval(1_000),
//!     ))
//!     .build()
//!     .unwrap();
//!
//! let mut sink = CountingSink::default();
//! for i in 1..=500u64 {
//!     let ts = Timestamp::from_millis(i * 10);
//!     pipeline.push_into(ArrivalEvent::new(ts, Tuple::new(0.into(), i, ts, vec![Value::Int(1)])), &mut sink);
//!     pipeline.push_into(ArrivalEvent::new(ts, Tuple::new(1.into(), i, ts, vec![Value::Int(1)])), &mut sink);
//! }
//! let report = pipeline.finish();
//! assert!(report.total_produced > 0);
//! assert!(sink.checkpoints > 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use mswj_adwin as adwin;
pub use mswj_core as core;
pub use mswj_datasets as datasets;
pub use mswj_join as join;
pub use mswj_metrics as metrics;
pub use mswj_obs as obs;
pub use mswj_types as types;

pub use mswj_core::SessionBuilder;

/// Convenient glob-import of the most frequently used items.
pub mod prelude {
    pub use mswj_adwin::Adwin;
    pub use mswj_core::{
        sink_fn, BufferPolicy, Checkpoint, CollectSink, CountingSink, DisorderConfig, Endpoint,
        EngineError, ExecutionBackend, FnSink, JoinEngine, KSlack, NullSink, OutputEvent, Pipeline,
        RunReport, SelectivityStrategy, SessionBuilder, ShardRuntimeStats, ShardStats, Sink,
        Synchronizer,
    };
    pub use mswj_datasets::{
        q2_query, q3_query, q4_query, Dataset, SoccerConfig, SoccerDataset, SyntheticConfig,
        SyntheticDataset,
    };
    pub use mswj_join::{
        BandJoin, CommonKeyEquiJoin, CrossJoin, DistanceWithin, JoinCondition, JoinQuery,
        JoinResult, MswjOperator, PredicateFn, ProbePlan, ProbeStrategy, StarEquiJoin, Window,
    };
    pub use mswj_metrics::{evaluate_recall, ground_truth_counts, CountSeries, RecallEvaluation};
    pub use mswj_obs::{EventKind, MetricsExporter, Telemetry, TelemetryEvent};
    pub use mswj_types::{
        ArrivalEvent, ArrivalLog, Duration, FieldType, Interleaver, Schema, StreamIndex, StreamSet,
        StreamSpec, Timestamp, Tuple, Value,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exports_compile() {
        use crate::prelude::*;
        let schema = Schema::new(vec![("a1", FieldType::Int)]);
        let streams = StreamSet::homogeneous(2, schema, 1_000).unwrap();
        assert_eq!(streams.arity(), 2);
        let _ = DisorderConfig::default();
    }
}
