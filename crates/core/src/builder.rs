//! Fluent construction of disorder-handling sessions.
//!
//! A [`SessionBuilder`] declares everything a session needs — streams with
//! schemas and windows, the join condition and the buffer-size policy (whose
//! [`DisorderConfig`] carries Γ, P, L, b, g and the selectivity strategy) —
//! in one chain, and validates the whole declaration at
//! [`SessionBuilder::build`].  It replaces the former
//! `StreamSet::homogeneous` + `Arc::new(CommonKeyEquiJoin::…)` +
//! `JoinQuery::new` + constructor-variant ceremony.
//!
//! # Examples
//!
//! ```
//! use mswj_core::{BufferPolicy, DisorderConfig, Pipeline};
//! use mswj_types::{FieldType, Schema};
//!
//! // Two streams joined on equality of "a1" within 1-second windows,
//! // quality-driven disorder handling with a 95% recall requirement.
//! let pipeline = Pipeline::builder()
//!     .name("quickstart")
//!     .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 1_000)
//!     .on_common_key("a1")
//!     .policy(BufferPolicy::QualityDriven(
//!         DisorderConfig::with_gamma(0.95).period(5_000).interval(1_000),
//!     ))
//!     .build()
//!     .unwrap();
//! assert_eq!(pipeline.query().arity(), 2);
//! assert_eq!(pipeline.policy().name(), "quality-driven");
//! ```

use crate::config::DisorderConfig;
use crate::engine::ExecutionBackend;
use crate::pipeline::Pipeline;
use crate::policy::BufferPolicy;
use mswj_join::{CommonKeyEquiJoin, JoinCondition, JoinQuery, PredicateFn, ProbeStrategy};
use mswj_obs::Telemetry;
use mswj_types::{Duration, Error, Result, Schema, StreamSet, StreamSpec, Tuple};
use std::sync::Arc;

/// A join-condition declaration whose construction is deferred until the
/// stream set is known (at [`SessionBuilder::build`]).
type ConditionFactory = Box<dyn FnOnce(&StreamSet) -> Result<Arc<dyn JoinCondition>>>;

/// Fluent builder for a disorder-handling session (a configured
/// [`Pipeline`]).
///
/// Entry point: [`Pipeline::builder`].  See the [crate docs](crate) for a
/// complete example.
#[must_use = "a SessionBuilder does nothing until .build() is called"]
pub struct SessionBuilder {
    name: String,
    specs: Vec<StreamSpec>,
    query: Option<JoinQuery>,
    condition: Option<ConditionFactory>,
    policy: BufferPolicy,
    materialize: bool,
    probe: ProbeStrategy,
    backend: ExecutionBackend,
    telemetry: Option<Telemetry>,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder::new()
    }
}

impl std::fmt::Debug for SessionBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionBuilder")
            .field("name", &self.name)
            .field("streams", &self.specs.len())
            .field("has_query", &self.query.is_some())
            .field("has_condition", &self.condition.is_some())
            .field("policy", &self.policy.name())
            .field("materialize", &self.materialize)
            .field("probe", &self.probe)
            .field("backend", &self.backend)
            .finish()
    }
}

impl SessionBuilder {
    /// Starts an empty declaration.  Its policy is quality-driven
    /// disorder handling with [`DisorderConfig::default`] — the crate's
    /// reason to exist — until [`SessionBuilder::policy`] says otherwise.
    pub(crate) fn new() -> Self {
        SessionBuilder {
            name: "session".to_owned(),
            specs: Vec::new(),
            query: None,
            condition: None,
            policy: BufferPolicy::QualityDriven(DisorderConfig::default()),
            materialize: false,
            probe: ProbeStrategy::default(),
            backend: ExecutionBackend::default(),
            telemetry: None,
        }
    }

    /// Names the session (used in experiment reports, e.g. `"Qx3"`).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Declares `m` homogeneous streams (`S1 … Sm`) sharing one schema and
    /// window size — the shape of the paper's synthetic workloads.
    pub fn streams(mut self, m: usize, schema: Schema, window: Duration) -> Self {
        for i in 0..m {
            self.specs.push(StreamSpec::new(
                format!("S{}", i + 1),
                schema.clone(),
                window,
            ));
        }
        self
    }

    /// Uses a prebuilt [`JoinQuery`] (e.g. from a dataset generator) instead
    /// of declaring streams and a condition.  Mutually exclusive with
    /// [`SessionBuilder::streams`] and the condition methods.
    pub fn query(mut self, query: JoinQuery) -> Self {
        self.query = Some(query);
        self
    }

    /// Joins all streams on equality of the shared attribute `attr`
    /// (the paper's Q×3 shape).
    pub fn on_common_key(mut self, attr: impl Into<String>) -> Self {
        let attr = attr.into();
        self.condition = Some(Box::new(move |streams| {
            Ok(Arc::new(CommonKeyEquiJoin::new(streams, &attr)?) as Arc<dyn JoinCondition>)
        }));
        self
    }

    /// Joins the streams with an arbitrary user predicate over one tuple per
    /// stream — the escape hatch for conditions no synopsis can model.
    pub fn on_predicate(
        mut self,
        name: impl Into<String>,
        f: impl Fn(&[&Tuple]) -> bool + Send + Sync + 'static,
    ) -> Self {
        let name = name.into();
        self.condition = Some(Box::new(move |streams| {
            Ok(Arc::new(PredicateFn::new(streams.arity(), name, f)) as Arc<dyn JoinCondition>)
        }));
        self
    }

    /// Sets the buffer-size policy.  Quality-driven disorder handling
    /// carries its Γ, P, L, b, g and selectivity strategy in the
    /// [`DisorderConfig`] of [`BufferPolicy::QualityDriven`]; the baselines
    /// are [`BufferPolicy::NoKSlack`], [`BufferPolicy::MaxKSlack`] and
    /// [`BufferPolicy::FixedK`].
    pub fn policy(mut self, policy: BufferPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Materializes join results: the session's sink receives one
    /// [`OutputEvent::Result`](crate::OutputEvent::Result) per result.
    /// Without this, the session runs in counting mode — results are
    /// tallied in the [`RunReport`](crate::RunReport) with zero per-event
    /// allocation, which is what the paper-scale experiments use.
    pub fn materialize_results(mut self) -> Self {
        self.materialize = true;
        self
    }

    /// Chooses how the join operator probes the other streams' windows.
    ///
    /// The default, [`ProbeStrategy::Auto`], plans hash-indexed bucket
    /// lookups whenever the condition exposes an equi structure — the
    /// indexed columns are derived at `build()` time with no further user
    /// ceremony — and falls back to the exhaustive scan per probe when
    /// index soundness cannot be guaranteed.  [`ProbeStrategy::NestedLoop`]
    /// forces the reference scan unconditionally.
    pub fn probe(mut self, strategy: ProbeStrategy) -> Self {
        self.probe = strategy;
        self
    }

    /// Chooses the execution backend of the sharded join stage.
    ///
    /// The default, [`ExecutionBackend::Sequential`], runs one shard on the
    /// calling thread — byte-identical to the pre-engine pipeline.
    /// [`ExecutionBackend::Pool`] hash-partitions the join state by
    /// equi-join key across `workers` shards, each executed by a
    /// **resident** worker alive for the session's lifetime (spawned at
    /// `build()`, joined on drop), merging outputs in deterministic shard
    /// order; batched ingestion ([`Pipeline::push_batch_into`]) is
    /// pipelined against front-end routing, and sub-threshold batches run
    /// inline, so `push_into` never pays an enqueue round-trip.
    /// Conditions without a partitionable equi structure fall back to one
    /// broadcast shard transparently.
    ///
    /// [`ExecutionBackend::Remote`] places one shard behind each listed
    /// [`Endpoint`](crate::Endpoint): an in-process server thread for
    /// `Endpoint::InProc`, or an `mswj-shardd` process reached over a
    /// Unix-domain/TCP socket, all speaking the versioned `mswj-wire`
    /// protocol.  It requires a declarative join condition (closure
    /// predicates have no wire form) and reports connection or `Setup`
    /// failures as [`Error::InvalidConfig`] from `build()`.
    pub fn parallelism(mut self, backend: ExecutionBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Attaches a live [`Telemetry`] handle to the session.
    ///
    /// The handle is shared: the pipeline front-end records quality gauges
    /// and latency histograms into it, publishes the per-shard runtime
    /// gauges at every checkpoint, and checkpoint notices land in its
    /// bounded event ring (and reach the callback set by [`Telemetry::set_event_callback`]).  Hand a clone
    /// of the same handle to a
    /// [`MetricsExporter`](mswj_obs::MetricsExporter) to scrape it over
    /// HTTP.  Telemetry is strictly observe-only — results are
    /// byte-identical with and without it, on every backend.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Validates the declaration and constructs the [`Pipeline`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the declaration is incomplete
    /// or inconsistent: fewer than two streams, duplicate stream names, a
    /// missing join condition, both a prebuilt query and inline streams, a
    /// zero-worker [`ExecutionBackend::Pool`], or a [`DisorderConfig`]
    /// violating `0 < Γ ≤ 1`, `0 < L ≤ P`, `b > 0`, `g > 0`.  An
    /// [`ExecutionBackend::Remote`] backend additionally fails here when
    /// its endpoint list is empty, the join condition has no wire form, or
    /// connecting/handshaking with a shard server fails.
    pub fn build(self) -> Result<Pipeline> {
        let query = match self.query {
            Some(query) => {
                if !self.specs.is_empty() || self.condition.is_some() {
                    return Err(Error::InvalidConfig(
                        "a prebuilt query and inline stream/condition declarations are mutually \
                         exclusive; declare one or the other"
                            .into(),
                    ));
                }
                query
            }
            None => {
                // Arity and name-uniqueness are StreamSet invariants and are
                // checked there, for every construction path.
                let streams = StreamSet::new(self.specs)?;
                let condition = self.condition.ok_or_else(|| {
                    Error::InvalidConfig(
                        "no join condition declared; use on_common_key(..) or on_predicate(..), \
                         or query(JoinQuery::new(..)) for any other condition"
                            .into(),
                    )
                })?;
                let condition = condition(&streams)?;
                JoinQuery::new(self.name, streams, condition)?
            }
        };
        Pipeline::construct(
            query,
            self.policy,
            self.materialize,
            self.probe,
            self.backend,
            self.telemetry,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SelectivityStrategy;
    use mswj_join::CrossJoin;
    use mswj_types::{ArrivalEvent, FieldType, Timestamp, Value};

    impl SessionBuilder {
        /// Declares one input stream with its own name, schema and window
        /// `W_i` (ms) — the fixture for the heterogeneous and invalid
        /// stream sets below.
        fn stream(mut self, name: &str, schema: Schema, window: Duration) -> Self {
            self.specs.push(StreamSpec::new(name, schema, window));
            self
        }
    }

    fn schema() -> Schema {
        Schema::new(vec![("a1", FieldType::Int)])
    }

    fn assert_invalid(result: Result<Pipeline>, needle: &str) {
        match result {
            Err(Error::InvalidConfig(msg)) => {
                assert!(msg.contains(needle), "message `{msg}` misses `{needle}`")
            }
            Err(other) => panic!("expected InvalidConfig, got {other:?}"),
            Ok(_) => panic!("expected InvalidConfig({needle}), got Ok"),
        }
    }

    #[test]
    fn full_chain_builds_and_runs() {
        let mut p = SessionBuilder::new()
            .name("builder-test")
            .streams(2, schema(), 1_000)
            .on_common_key("a1")
            .policy(BufferPolicy::QualityDriven(
                DisorderConfig::with_gamma(0.9)
                    .period(2_000)
                    .interval(500)
                    .granularity(20)
                    .basic_window(20)
                    .selectivity_strategy(SelectivityStrategy::EqSel),
            ))
            .build()
            .unwrap();
        assert_eq!(p.query().name(), "builder-test");
        let config = *p.policy().config().unwrap();
        assert_eq!(config.gamma, 0.9);
        assert_eq!(config.period_p, 2_000);
        assert_eq!(config.interval_l, 500);
        assert_eq!(config.granularity_g, 20);
        assert_eq!(config.basic_window_b, 20);
        assert_eq!(config.selectivity, SelectivityStrategy::EqSel);
        for i in 1..=50u64 {
            let ts = Timestamp::from_millis(i * 10);
            p.push(ArrivalEvent::new(
                ts,
                Tuple::new(0.into(), i, ts, vec![Value::Int(1)]),
            ));
            p.push(ArrivalEvent::new(
                ts,
                Tuple::new(1.into(), i, ts, vec![Value::Int(1)]),
            ));
        }
        let report = p.finish();
        assert!(report.total_produced > 0);
    }

    #[test]
    fn heterogeneous_streams_and_predicate() {
        let p = SessionBuilder::new()
            .stream("left", schema(), 2_000)
            .stream("right", schema(), 500)
            .on_predicate("always", |_| true)
            .policy(BufferPolicy::NoKSlack)
            .build()
            .unwrap();
        assert_eq!(p.query().windows(), vec![2_000, 500]);
        assert_eq!(p.policy().name(), "no-k-slack");
    }

    #[test]
    fn cross_join_and_fixed_k() {
        let streams = StreamSet::homogeneous(3, schema(), 1_000).unwrap();
        let query = JoinQuery::new("cross", streams, Arc::new(CrossJoin::new(3))).unwrap();
        let p = SessionBuilder::new()
            .query(query)
            .policy(BufferPolicy::FixedK(250))
            .build()
            .unwrap();
        assert_eq!(p.query().arity(), 3);
        // An empty session's average K is the K it applies.
        assert_eq!(p.finish().avg_k_ms, 250.0);
    }

    #[test]
    fn prebuilt_condition_via_query() {
        let streams = StreamSet::homogeneous(2, schema(), 1_000).unwrap();
        let cond = Arc::new(CommonKeyEquiJoin::new(&streams, "a1").unwrap());
        let p = SessionBuilder::new()
            .query(JoinQuery::new("prebuilt", streams, cond).unwrap())
            .policy(BufferPolicy::MaxKSlack)
            .build()
            .unwrap();
        assert_eq!(p.policy().name(), "max-k-slack");
    }

    #[test]
    fn default_policy_is_quality_driven_with_the_default_config() {
        let p = SessionBuilder::new()
            .streams(2, schema(), 1_000)
            .on_common_key("a1")
            .build()
            .unwrap();
        assert_eq!(p.policy().name(), "quality-driven");
        assert_eq!(p.policy().config(), Some(&DisorderConfig::default()));
    }

    #[test]
    fn rejects_gamma_out_of_range() {
        for gamma in [0.0, -0.5, 1.5] {
            let r = SessionBuilder::new()
                .streams(2, schema(), 1_000)
                .on_common_key("a1")
                .policy(BufferPolicy::QualityDriven(DisorderConfig::with_gamma(
                    gamma,
                )))
                .build();
            assert_invalid(r, "Γ");
        }
    }

    #[test]
    fn rejects_interval_exceeding_period() {
        let r = SessionBuilder::new()
            .streams(2, schema(), 1_000)
            .on_common_key("a1")
            .policy(BufferPolicy::QualityDriven(
                DisorderConfig::with_gamma(0.9).period(500).interval(1_000),
            ))
            .build();
        assert_invalid(r, "must not exceed");
    }

    #[test]
    fn rejects_zero_system_parameters() {
        let build = |config: DisorderConfig| {
            SessionBuilder::new()
                .streams(2, schema(), 1_000)
                .on_common_key("a1")
                .policy(BufferPolicy::QualityDriven(config))
                .build()
        };
        let base = DisorderConfig::with_gamma(0.9);
        assert_invalid(build(base.interval(0)), "adaptation interval L");
        assert_invalid(build(base.basic_window(0)), "basic window size b");
        assert_invalid(build(base.granularity(0)), "granularity g");
    }

    #[test]
    fn rejects_duplicate_stream_names() {
        let r = SessionBuilder::new()
            .stream("S1", schema(), 1_000)
            .stream("S1", schema(), 1_000)
            .on_common_key("a1")
            .policy(BufferPolicy::NoKSlack)
            .build();
        assert_invalid(r, "duplicate stream name `S1`");
    }

    #[test]
    fn rejects_fewer_than_two_streams() {
        let r = SessionBuilder::new()
            .stream("only", schema(), 1_000)
            .on_common_key("a1")
            .policy(BufferPolicy::NoKSlack)
            .build();
        assert_invalid(r, "at least 2 input streams");
        let r = SessionBuilder::new()
            .on_common_key("a1")
            .policy(BufferPolicy::NoKSlack)
            .build();
        assert_invalid(r, "at least 2 input streams");
    }

    #[test]
    fn rejects_missing_condition() {
        let r = SessionBuilder::new()
            .streams(2, schema(), 1_000)
            .policy(BufferPolicy::NoKSlack)
            .build();
        assert_invalid(r, "no join condition");
    }

    #[test]
    fn rejects_unknown_join_attribute() {
        let r = SessionBuilder::new()
            .streams(2, schema(), 1_000)
            .on_common_key("missing")
            .policy(BufferPolicy::NoKSlack)
            .build();
        assert!(r.is_err(), "unknown attribute must fail at build()");
    }

    #[test]
    fn rejects_query_mixed_with_inline_declarations() {
        let streams = StreamSet::homogeneous(2, schema(), 1_000).unwrap();
        let cond = Arc::new(CommonKeyEquiJoin::new(&streams, "a1").unwrap());
        let query = JoinQuery::new("q", streams, cond).unwrap();
        let r = SessionBuilder::new()
            .query(query)
            .stream("extra", schema(), 1_000)
            .policy(BufferPolicy::NoKSlack)
            .build();
        assert_invalid(r, "mutually exclusive");
    }

    #[test]
    fn probe_strategy_is_wired_through_build() {
        let base = || {
            SessionBuilder::new()
                .streams(2, schema(), 1_000)
                .on_common_key("a1")
                .policy(BufferPolicy::NoKSlack)
        };
        let indexed = base().build().unwrap();
        assert!(
            indexed.probe_plan().is_indexed(),
            "equi-joins default to the hash-indexed probe"
        );
        let scan = base().probe(ProbeStrategy::NestedLoop).build().unwrap();
        assert!(!scan.probe_plan().is_indexed());
        let explicit = base().probe(ProbeStrategy::Auto).build().unwrap();
        assert!(explicit.probe_plan().is_indexed());
        // A UDF condition has no equi structure to plan from.
        let udf = SessionBuilder::new()
            .streams(2, schema(), 1_000)
            .on_predicate("always", |_| true)
            .policy(BufferPolicy::NoKSlack)
            .build()
            .unwrap();
        assert!(!udf.probe_plan().is_indexed());
    }
}
