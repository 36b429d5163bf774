//! Fluent construction of disorder-handling sessions.
//!
//! A [`SessionBuilder`] declares everything a session needs — streams with
//! schemas and windows, the join condition, the buffer-size policy and any
//! [`DisorderConfig`] overrides — in one chain, and validates the whole
//! declaration at [`SessionBuilder::build`].  It replaces the former
//! `StreamSet::homogeneous` + `Arc::new(CommonKeyEquiJoin::…)` +
//! `JoinQuery::new` + constructor-variant ceremony.
//!
//! # Examples
//!
//! ```
//! use mswj_core::Pipeline;
//! use mswj_types::{FieldType, Schema};
//!
//! // Two streams joined on equality of "a1" within 1-second windows,
//! // quality-driven disorder handling with a 95% recall requirement.
//! let pipeline = Pipeline::builder()
//!     .name("quickstart")
//!     .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 1_000)
//!     .on_common_key("a1")
//!     .quality_driven(0.95)
//!     .period(5_000)
//!     .interval(1_000)
//!     .build()
//!     .unwrap();
//! assert_eq!(pipeline.query().arity(), 2);
//! assert_eq!(pipeline.policy().name(), "quality-driven");
//! ```

use crate::config::{DisorderConfig, SelectivityStrategy};
use crate::engine::{ExecutionBackend, ReplanConfig, SkewConfig};
use crate::pipeline::Pipeline;
use crate::policy::BufferPolicy;
use mswj_join::{
    CommonKeyEquiJoin, CrossJoin, JoinCondition, JoinQuery, PredicateFn, ProbeStrategy,
};
use mswj_obs::{EventCallback, Telemetry};
use mswj_types::{Duration, Error, Result, Schema, StreamSet, StreamSpec, Tuple};
use std::sync::Arc;

/// A join-condition declaration whose construction is deferred until the
/// stream set is known (at [`SessionBuilder::build`]).
type ConditionFactory = Box<dyn FnOnce(&StreamSet) -> Result<Arc<dyn JoinCondition>>>;

/// `DisorderConfig` overrides accumulated by the chain; applied to the
/// policy's configuration at build time.
#[derive(Default, Clone, Copy)]
struct ConfigOverrides {
    gamma: Option<f64>,
    period: Option<Duration>,
    interval: Option<Duration>,
    basic_window: Option<Duration>,
    granularity: Option<Duration>,
    selectivity: Option<SelectivityStrategy>,
}

impl ConfigOverrides {
    fn any(&self) -> bool {
        self.gamma.is_some()
            || self.period.is_some()
            || self.interval.is_some()
            || self.basic_window.is_some()
            || self.granularity.is_some()
            || self.selectivity.is_some()
    }

    fn apply(&self, mut config: DisorderConfig) -> DisorderConfig {
        if let Some(g) = self.gamma {
            config.gamma = g;
        }
        if let Some(p) = self.period {
            config.period_p = p;
        }
        if let Some(l) = self.interval {
            config.interval_l = l;
        }
        if let Some(b) = self.basic_window {
            config.basic_window_b = b;
        }
        if let Some(g) = self.granularity {
            config.granularity_g = g;
        }
        if let Some(s) = self.selectivity {
            config.selectivity = s;
        }
        config
    }
}

/// Fluent builder for a disorder-handling session (a configured
/// [`Pipeline`]).
///
/// Entry points: [`Pipeline::builder`] or `mswj::session()` from the facade
/// crate.  See the [module docs](self) for a complete example.
#[must_use = "a SessionBuilder does nothing until .build() is called"]
pub struct SessionBuilder {
    name: String,
    specs: Vec<StreamSpec>,
    query: Option<JoinQuery>,
    condition: Option<ConditionFactory>,
    policy: Option<BufferPolicy>,
    overrides: ConfigOverrides,
    materialize: bool,
    probe: ProbeStrategy,
    backend: ExecutionBackend,
    skew: Option<SkewConfig>,
    replan: Option<ReplanConfig>,
    telemetry: Option<Telemetry>,
    on_event: Option<EventCallback>,
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
            .field("policy", &self.policy.as_ref().map(|p| p.name()))
            .field("materialize", &self.materialize)
            .field("probe", &self.probe)
            .field("backend", &self.backend)
            .finish()
    }
}

impl SessionBuilder {
    /// Starts an empty declaration.
    pub fn new() -> Self {
        SessionBuilder {
            name: "session".to_owned(),
            specs: Vec::new(),
            query: None,
            condition: None,
            policy: None,
            overrides: ConfigOverrides::default(),
            materialize: false,
            probe: ProbeStrategy::default(),
            backend: ExecutionBackend::default(),
            skew: None,
            replan: None,
            telemetry: None,
            on_event: None,
        }
    }

    /// Names the session (used in experiment reports, e.g. `"Qx3"`).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Declares one input stream with its schema and window size `W_i` (ms).
    pub fn stream(mut self, name: impl Into<String>, schema: Schema, window: Duration) -> Self {
        self.specs.push(StreamSpec::new(name, schema, window));
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
    /// [`SessionBuilder::stream`]/[`SessionBuilder::streams`] and the
    /// condition methods.
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

    /// Joins every combination of one tuple per stream (no predicate).
    pub fn cross_join(mut self) -> Self {
        self.condition = Some(Box::new(|streams| {
            Ok(Arc::new(CrossJoin::new(streams.arity())) as Arc<dyn JoinCondition>)
        }));
        self
    }

    /// Uses an already-constructed join condition (band joins, star joins,
    /// distance predicates, custom [`JoinCondition`] implementations …).
    pub fn on(mut self, condition: impl JoinCondition + 'static) -> Self {
        let condition: Arc<dyn JoinCondition> = Arc::new(condition);
        self.condition = Some(Box::new(move |_| Ok(condition)));
        self
    }

    /// Sets the buffer-size policy explicitly.
    pub fn policy(mut self, policy: BufferPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Quality-driven disorder handling (the paper's approach) with recall
    /// requirement `Γ = gamma`; refine with [`SessionBuilder::period`],
    /// [`SessionBuilder::interval`] and friends.
    pub fn quality_driven(mut self, gamma: f64) -> Self {
        self.policy = Some(BufferPolicy::QualityDriven(DisorderConfig::default()));
        self.overrides.gamma = Some(gamma);
        self
    }

    /// Baseline: no intra-stream disorder handling (`K = 0`).
    pub fn no_k_slack(mut self) -> Self {
        self.policy = Some(BufferPolicy::NoKSlack);
        self
    }

    /// Baseline: `K` tracks the largest delay observed so far.
    pub fn max_k_slack(mut self) -> Self {
        self.policy = Some(BufferPolicy::MaxKSlack);
        self
    }

    /// A constant, user-chosen buffer size in milliseconds.
    pub fn fixed_k(mut self, k: Duration) -> Self {
        self.policy = Some(BufferPolicy::FixedK(k));
        self
    }

    /// Overrides the recall requirement `Γ` of the policy's configuration.
    pub fn gamma(mut self, gamma: f64) -> Self {
        self.overrides.gamma = Some(gamma);
        self
    }

    /// Overrides the result-quality measurement period `P` (ms).
    pub fn period(mut self, p: Duration) -> Self {
        self.overrides.period = Some(p);
        self
    }

    /// Overrides the adaptation interval `L` (ms).
    pub fn interval(mut self, l: Duration) -> Self {
        self.overrides.interval = Some(l);
        self
    }

    /// Overrides the basic-window size `b` (ms) of the completeness model.
    pub fn basic_window(mut self, b: Duration) -> Self {
        self.overrides.basic_window = Some(b);
        self
    }

    /// Overrides the K-search granularity `g` (ms).
    pub fn granularity(mut self, g: Duration) -> Self {
        self.overrides.granularity = Some(g);
        self
    }

    /// Overrides the selectivity modelling strategy (EqSel vs NonEqSel).
    pub fn selectivity(mut self, s: SelectivityStrategy) -> Self {
        self.overrides.selectivity = Some(s);
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
    /// predicates have no wire form) and reports connection or handshake
    /// failures as [`Error::InvalidConfig`] from `build()`.
    pub fn parallelism(mut self, backend: ExecutionBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Arms adaptive hot-key splitting on the sharded join stage with the
    /// default [`SkewConfig`] thresholds.
    ///
    /// Plain hash routing pins each key class — its build state *and* its
    /// probe work — to one shard, so a Zipf-hot key degrades an `n`-shard
    /// stage to one shard.  With splitting armed, the engine watches the
    /// routed traffic in windows between barriers; a key class exceeding
    /// [`SkewConfig::split_share`] of a window switches to
    /// *replicated-build / split-probe* routing (its state is replicated to
    /// every shard and its probes spread round-robin), and reverts once its
    /// share falls below [`SkewConfig::unsplit_share`].  Results stay
    /// byte-identical to a run without splitting, on every backend.
    ///
    /// The knob is inert when the plan cannot split soundly: a single
    /// shard, or a condition that leaves some stream broadcast-routed.
    pub fn skew_splitting(self) -> Self {
        self.skew_splitting_with(SkewConfig::default())
    }

    /// Arms adaptive hot-key splitting with explicit thresholds — see
    /// [`SessionBuilder::skew_splitting`].  The config is validated at
    /// [`SessionBuilder::build`].
    pub fn skew_splitting_with(mut self, config: SkewConfig) -> Self {
        self.skew = Some(config);
        self
    }

    /// Arms runtime probe re-planning on the sharded join stage with the
    /// default [`ReplanConfig`] thresholds.
    ///
    /// The probe plan is chosen from the query shape alone, before any
    /// data has been seen.  With re-planning armed, the engine revisits
    /// three of its decisions at the same idle barriers the skew layer
    /// uses, from observed window statistics: the star partition pair is
    /// re-selected so the heaviest satellite is key-routed and only light
    /// streams stay on the broadcast path (migrating the affected window
    /// state between shards), the m-way probe chain is
    /// reordered by observed match rates, and the hash index is demoted to
    /// the nested-loop scan when the fallback share shows maintenance
    /// stopped paying.  Every revision is recorded in
    /// [`RunReport::plan_transitions`](crate::RunReport::plan_transitions);
    /// decisions come from engine-global statistics, so the result
    /// multiset stays identical across execution backends — and identical
    /// to a run without re-planning.
    pub fn runtime_replanning(self) -> Self {
        self.runtime_replanning_with(ReplanConfig::default())
    }

    /// Arms runtime probe re-planning with explicit thresholds — see
    /// [`SessionBuilder::runtime_replanning`].  The config is validated at
    /// [`SessionBuilder::build`].
    pub fn runtime_replanning_with(mut self, config: ReplanConfig) -> Self {
        self.replan = Some(config);
        self
    }

    /// Attaches a live [`Telemetry`] handle to the session.
    ///
    /// The handle is shared: the pipeline front-end records quality gauges
    /// and latency histograms into it, the join stage publishes per-shard
    /// runtime gauges at its idle barriers, and operational notices
    /// (checkpoints, skew splits, plan revisions, heavy-hitter warnings)
    /// land in its bounded event ring instead of on stderr.  Hand a clone
    /// of the same handle to a
    /// [`MetricsExporter`](mswj_obs::MetricsExporter) to scrape it over
    /// HTTP.  Telemetry is strictly observe-only — results are
    /// byte-identical with and without it, on every backend.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Registers a callback invoked synchronously for every
    /// [`TelemetryEvent`](mswj_obs::TelemetryEvent) the session emits
    /// (implies [`SessionBuilder::telemetry`] with a fresh handle when none
    /// was attached).  The callback runs on the pipeline thread — keep it
    /// cheap.
    pub fn on_event(
        mut self,
        callback: impl Fn(&mswj_obs::TelemetryEvent) + Send + Sync + 'static,
    ) -> Self {
        self.on_event = Some(Arc::new(callback));
        self
    }

    /// Validates the declaration and constructs the [`Pipeline`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the declaration is incomplete
    /// or inconsistent: fewer than two streams, duplicate stream names, a
    /// missing join condition, a condition whose arity disagrees with the
    /// stream count, both a prebuilt query and inline streams, disorder
    /// overrides on a policy without a configuration, a zero-worker
    /// [`ExecutionBackend::Pool`], a
    /// [`DisorderConfig`] violating `0 < Γ ≤ 1`, `0 < L ≤ P`, `b > 0`,
    /// `g > 0`, or a [`SkewConfig`] whose thresholds are out of range or
    /// lack a hysteresis band.  An [`ExecutionBackend::Remote`] backend
    /// additionally fails here when its endpoint list is empty, the join
    /// condition has no wire form, or connecting/handshaking with a shard
    /// server fails.
    pub fn build(self) -> Result<Pipeline> {
        if self.backend == (ExecutionBackend::Pool { workers: 0 }) {
            return Err(Error::InvalidConfig(
                "parallelism(Pool { workers: 0 }) has no workers to run on; use \
                 Pool { workers: 1.. } or the Sequential backend"
                    .into(),
            ));
        }
        if let Some(skew) = &self.skew {
            skew.validate().map_err(Error::InvalidConfig)?;
        }
        if let Some(replan) = &self.replan {
            replan.validate().map_err(Error::InvalidConfig)?;
        }
        let policy = Self::resolve_policy(self.policy, self.overrides)?;
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
                        "no join condition declared; use on_common_key(..), on_predicate(..), \
                         cross_join() or on(..)"
                            .into(),
                    )
                })?;
                let condition = condition(&streams)?;
                JoinQuery::new(self.name, streams, condition)?
            }
        };
        let telemetry = match (self.telemetry, self.on_event) {
            (telemetry, None) => telemetry,
            (telemetry, Some(callback)) => {
                let telemetry = telemetry.unwrap_or_default();
                telemetry.set_event_callback(callback);
                Some(telemetry)
            }
        };
        Pipeline::construct(
            query,
            policy,
            self.materialize,
            self.probe,
            self.backend,
            self.skew,
            self.replan,
            telemetry,
        )
    }

    /// Resolves the effective policy from the explicit choice plus the
    /// accumulated configuration overrides.
    fn resolve_policy(
        policy: Option<BufferPolicy>,
        overrides: ConfigOverrides,
    ) -> Result<BufferPolicy> {
        match policy {
            Some(BufferPolicy::QualityDriven(c)) => {
                Ok(BufferPolicy::QualityDriven(overrides.apply(c)))
            }
            Some(other) => {
                if overrides.any() {
                    return Err(Error::InvalidConfig(format!(
                        "policy `{}` has no disorder configuration to override; drop the \
                         gamma/period/interval/… calls or choose quality_driven(..)",
                        other.name()
                    )));
                }
                Ok(other)
            }
            // No explicit policy: quality-driven disorder handling is the
            // crate's reason to exist, so it is the default.
            None => Ok(BufferPolicy::QualityDriven(
                overrides.apply(DisorderConfig::default()),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mswj_types::{ArrivalEvent, FieldType, Timestamp, Value};

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
            .quality_driven(0.9)
            .period(2_000)
            .interval(500)
            .granularity(20)
            .basic_window(20)
            .selectivity(SelectivityStrategy::EqSel)
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
            .no_k_slack()
            .build()
            .unwrap();
        assert_eq!(p.query().windows(), vec![2_000, 500]);
        assert_eq!(p.policy().name(), "no-k-slack");
    }

    #[test]
    fn cross_join_and_fixed_k() {
        let p = SessionBuilder::new()
            .streams(3, schema(), 1_000)
            .cross_join()
            .fixed_k(250)
            .build()
            .unwrap();
        assert_eq!(p.current_k(), 250);
        assert_eq!(p.query().arity(), 3);
    }

    #[test]
    fn prebuilt_condition_via_on() {
        let streams = StreamSet::homogeneous(2, schema(), 1_000).unwrap();
        let cond = CommonKeyEquiJoin::new(&streams, "a1").unwrap();
        let p = SessionBuilder::new()
            .streams(2, schema(), 1_000)
            .on(cond)
            .max_k_slack()
            .build()
            .unwrap();
        assert_eq!(p.policy().name(), "max-k-slack");
    }

    #[test]
    fn default_policy_is_quality_driven_with_overrides() {
        let p = SessionBuilder::new()
            .streams(2, schema(), 1_000)
            .on_common_key("a1")
            .gamma(0.8)
            .period(10_000)
            .build()
            .unwrap();
        let config = p.policy().config().unwrap();
        assert_eq!(p.policy().name(), "quality-driven");
        assert_eq!(config.gamma, 0.8);
        assert_eq!(config.period_p, 10_000);
    }

    #[test]
    fn rejects_gamma_out_of_range() {
        for gamma in [0.0, -0.5, 1.5] {
            let r = SessionBuilder::new()
                .streams(2, schema(), 1_000)
                .on_common_key("a1")
                .quality_driven(gamma)
                .build();
            assert_invalid(r, "Γ");
        }
    }

    #[test]
    fn rejects_interval_exceeding_period() {
        let r = SessionBuilder::new()
            .streams(2, schema(), 1_000)
            .on_common_key("a1")
            .quality_driven(0.9)
            .period(500)
            .interval(1_000)
            .build();
        assert_invalid(r, "must not exceed");
    }

    #[test]
    fn rejects_zero_system_parameters() {
        let base = || {
            SessionBuilder::new()
                .streams(2, schema(), 1_000)
                .on_common_key("a1")
                .quality_driven(0.9)
        };
        assert_invalid(base().interval(0).build(), "adaptation interval L");
        assert_invalid(base().basic_window(0).build(), "basic window size b");
        assert_invalid(base().granularity(0).build(), "granularity g");
    }

    #[test]
    fn rejects_duplicate_stream_names() {
        let r = SessionBuilder::new()
            .stream("S1", schema(), 1_000)
            .stream("S1", schema(), 1_000)
            .on_common_key("a1")
            .no_k_slack()
            .build();
        assert_invalid(r, "duplicate stream name `S1`");
    }

    #[test]
    fn rejects_fewer_than_two_streams() {
        let r = SessionBuilder::new()
            .stream("only", schema(), 1_000)
            .on_common_key("a1")
            .no_k_slack()
            .build();
        assert_invalid(r, "at least 2 input streams");
        let r = SessionBuilder::new()
            .on_common_key("a1")
            .no_k_slack()
            .build();
        assert_invalid(r, "at least 2 input streams");
    }

    #[test]
    fn rejects_missing_condition() {
        let r = SessionBuilder::new()
            .streams(2, schema(), 1_000)
            .no_k_slack()
            .build();
        assert_invalid(r, "no join condition");
    }

    #[test]
    fn rejects_unknown_join_attribute() {
        let r = SessionBuilder::new()
            .streams(2, schema(), 1_000)
            .on_common_key("missing")
            .no_k_slack()
            .build();
        assert!(r.is_err(), "unknown attribute must fail at build()");
    }

    #[test]
    fn rejects_overrides_without_config_carrying_policy() {
        let r = SessionBuilder::new()
            .streams(2, schema(), 1_000)
            .on_common_key("a1")
            .max_k_slack()
            .gamma(0.9)
            .build();
        assert_invalid(r, "no disorder configuration");
    }

    #[test]
    fn rejects_query_mixed_with_inline_declarations() {
        let streams = StreamSet::homogeneous(2, schema(), 1_000).unwrap();
        let cond = Arc::new(CommonKeyEquiJoin::new(&streams, "a1").unwrap());
        let query = JoinQuery::new("q", streams, cond).unwrap();
        let r = SessionBuilder::new()
            .query(query)
            .stream("extra", schema(), 1_000)
            .no_k_slack()
            .build();
        assert_invalid(r, "mutually exclusive");
    }

    #[test]
    fn probe_strategy_is_wired_through_build() {
        let base = || {
            SessionBuilder::new()
                .streams(2, schema(), 1_000)
                .on_common_key("a1")
                .no_k_slack()
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
            .no_k_slack()
            .build()
            .unwrap();
        assert!(!udf.probe_plan().is_indexed());
    }

    #[test]
    fn rejects_condition_arity_mismatch() {
        let r = SessionBuilder::new()
            .streams(3, schema(), 1_000)
            .on(CrossJoin::new(2))
            .no_k_slack()
            .build();
        assert_invalid(r, "arity");
    }
}
