//! The MJoin-style m-way sliding window join operator (Alg. 2).
//!
//! The operator receives the (partially) sorted and synchronized stream
//! produced by the disorder-handling front-end and processes each tuple as
//! follows:
//!
//! 1. If the tuple is **in order** (its timestamp is not smaller than the
//!    maximum timestamp `onT` seen so far): advance `onT`, invalidate
//!    expired tuples in the windows of every *other* stream, probe those
//!    windows, emit the qualifying result tuples, and insert the tuple into
//!    its own window.
//! 2. If the tuple is **out of order**: skip invalidation and probing (its
//!    results are lost), but still insert it into its own window if it is
//!    within the window's current scope so that it can contribute to future
//!    results.
//!
//! The responsibilities are split across four submodules so that
//! shard-local and global concerns stay visible in the module tree:
//! [`insert`] owns window maintenance (expiry, in-order and out-of-order
//! insertion, including the engine-driven [`MswjOperator::insert_late`]),
//! [`probe`] owns the one read-only probe walk, [`surgery`] owns the
//! barrier-time state migration and plan revision a sharded engine applies
//! to a shard, and [`stats`] owns the [`ProbeOutcome`]/[`OperatorStats`]
//! records.
//!
//! ## Probe access paths
//!
//! How step 1 searches the other windows is decided by a [`ProbePlan`]
//! (see [`planner`](crate::planner)): equi-join conditions probe through
//! the windows' value→tuple hash indexes — each lookup touches only the
//! bucket of tuples that can still satisfy the join — while generic
//! conditions (and any probe whose index soundness cannot be guaranteed)
//! use the exhaustive nested-loop scan.  Both paths are proven equivalent
//! by the differential harness in `tests/differential_probe.rs`.  Every
//! shape is the same walk — a per-probe gate, an optional root, and a fan
//! of per-stream sources whose sizes multiply — written once for counting
//! and enumerating operators (see [`probe`]).
//!
//! Nested-loop plans whose condition exposes a
//! [`ScanStructure`] (distance and band joins) run
//! that scan as a *typed-column kernel*: the windows keep the predicate's
//! columns as `f64` arrays and the probe evaluates it over those, never
//! touching a tuple it does not emit.  The tuple-at-a-time scan stays as
//! the path of conditions without a structure and of
//! [`ProbeStrategy::NestedLoop`], which makes it the differential oracle
//! (`tests/differential_scan.rs`).
//!
//! ## Sharded execution
//!
//! An operator can also serve as **one shard** of a key-partitioned engine
//! (`mswj-core`'s `engine` module): the engine routes tuples by their
//! equi-join key, keeps the *global* high-water mark itself, and drives
//! each shard through [`MswjOperator::push_with`] (globally in-order
//! tuples, which are in-order for the shard too) and
//! [`MswjOperator::insert_late`] (globally late tuples the shard must
//! absorb without probing).
//!
//! For every processed tuple the operator reports the number of produced
//! join results `n_on(e)` and the corresponding cross-join size `n_x(e)`;
//! the Tuple-Productivity Profiler consumes these to learn the
//! delay-productivity correlation (Sec. IV-B).

pub mod insert;
pub mod probe;
pub mod stats;
pub mod surgery;

pub use stats::{OperatorStats, ProbeOutcome};

use crate::condition::{JoinCondition, ScanStructure};
use crate::planner::{plan_scan, scan_columns, ProbePlan, ProbeStrategy};
use crate::query::JoinQuery;
use crate::result::JoinResult;
use crate::window::{squared_limit, Window};
use mswj_types::{StreamIndex, Timestamp, Tuple};
use std::sync::Arc;

/// The m-way sliding window join operator.
pub struct MswjOperator {
    query: JoinQuery,
    condition: Arc<dyn JoinCondition>,
    plan: ProbePlan,
    /// The typed-column scan a nested-loop plan runs instead of the
    /// tuple-at-a-time walk, when the condition has a scan structure.
    scan: Option<ScanStructure>,
    /// [`squared_limit`] of a distance scan's threshold, computed once so a
    /// probe compares squared distances and never takes a `sqrt` (NaN —
    /// unread — without a distance scan).
    distance_limit: f64,
    windows: Vec<Window>,
    /// The order in which indexed probes visit the other streams' windows
    /// (a permutation of `0..m`; own-stream entries are skipped per probe).
    /// Stream order by default; runtime re-planning rotates low-match-rate
    /// windows to the front so empty buckets short-circuit early.  Purely
    /// an access-path choice: the produced result multiset is unaffected.
    order: Vec<usize>,
    on_t: Timestamp,
    started: bool,
    enumerate: bool,
    stats: OperatorStats,
}

impl std::fmt::Debug for MswjOperator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MswjOperator")
            .field("query", &self.query)
            .field("plan", &self.plan.describe())
            .field("on_t", &self.on_t)
            .field("enumerate", &self.enumerate)
            .field("stats", &self.stats)
            .finish()
    }
}

impl MswjOperator {
    /// Creates an operator that **counts** join results without
    /// materializing them.  Counting uses the windows' hash indexes when
    /// the join condition is an equi-join, which makes the paper-scale
    /// workloads tractable.
    pub fn new(query: JoinQuery) -> Self {
        Self::build(query, false, ProbeStrategy::Auto)
    }

    /// Creates an operator that additionally **materializes** every result
    /// tuple.  Intended for small-scale runs, examples and tests.
    pub fn enumerating(query: JoinQuery) -> Self {
        Self::build(query, true, ProbeStrategy::Auto)
    }

    /// Creates an operator with an explicit [`ProbeStrategy`] —
    /// [`ProbeStrategy::NestedLoop`] forces the exhaustive scan even for
    /// equi-joins, which is what the differential test harness compares
    /// the indexed path against.
    pub fn with_probe(query: JoinQuery, strategy: ProbeStrategy, enumerate: bool) -> Self {
        Self::build(query, enumerate, strategy)
    }

    fn build(query: JoinQuery, enumerate: bool, strategy: ProbeStrategy) -> Self {
        let condition = Arc::clone(query.condition());
        let equi = condition.equi_structure();
        let plan = ProbePlan::new(strategy, equi.as_ref());
        let m = query.arity();
        let scan = plan_scan(strategy, &plan, condition.scan_structure(), m);
        let distance_limit = match &scan {
            Some(ScanStructure::DistanceWithin { threshold, .. }) => squared_limit(*threshold),
            _ => f64::NAN,
        };
        let mut windows = Vec::with_capacity(m);
        for i in 0..m {
            let size = query.window(StreamIndex(i));
            let scanned = scan
                .as_ref()
                .map(|s| scan_columns(s, i))
                .unwrap_or_default();
            windows.push(Window::with_scan_columns(
                size,
                &plan.indexed_columns(i),
                &scanned,
            ));
        }
        MswjOperator {
            query,
            condition,
            plan,
            scan,
            distance_limit,
            windows,
            order: (0..m).collect(),
            on_t: Timestamp::ZERO,
            started: false,
            enumerate,
            stats: OperatorStats::default(),
        }
    }

    /// The query this operator executes.
    pub fn query(&self) -> &JoinQuery {
        &self.query
    }

    /// The probe access path planned from the condition's equi structure.
    pub fn probe_plan(&self) -> &ProbePlan {
        &self.plan
    }

    /// The order in which indexed probes visit the other streams' windows.
    pub fn probe_order(&self) -> &[usize] {
        &self.order
    }

    /// Re-orders the indexed probe chain: windows are visited in `order`
    /// (a permutation of `0..m`), so placing low-match-rate streams first
    /// lets empty buckets short-circuit a probe before the expensive
    /// levels are touched.  The result multiset is unaffected — only the
    /// access path (and the emission order within one probe) changes.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..m`.
    pub fn set_probe_order(&mut self, order: Vec<usize>) {
        if let Err(why) = self.check_probe_order(&order) {
            panic!("{why}");
        }
        self.order = order;
    }

    /// Demotes every window's hash index to the nested-loop scan, for the
    /// operator's lifetime (see [`Window::demote_index`]).  Runtime
    /// re-planning applies this when the observed indexed-vs-fallback
    /// ratio shows index maintenance stopped paying.
    pub fn demote_index(&mut self) {
        for w in &mut self.windows {
            w.demote_index();
        }
    }

    /// The maximum timestamp among tuples received so far (`onT`).
    pub fn on_t(&self) -> Timestamp {
        self.on_t
    }

    /// The window of stream `i`.
    pub fn window(&self, i: StreamIndex) -> &Window {
        &self.windows[i.as_usize()]
    }

    /// Lifetime counters.
    pub fn stats(&self) -> OperatorStats {
        self.stats
    }

    /// Estimated heap bytes of all live window state held by this operator
    /// (see [`crate::WindowStats::live_bytes_est`]).
    pub fn window_bytes(&self) -> u64 {
        self.windows.iter().map(|w| w.stats().live_bytes_est).sum()
    }

    /// Number of columnar storage segments held across all of this
    /// operator's windows (see [`crate::WindowStats::segments`]).
    pub fn window_segments(&self) -> u64 {
        self.windows.iter().map(|w| w.stats().segments as u64).sum()
    }

    /// Whether the operator materializes result tuples.
    pub fn is_enumerating(&self) -> bool {
        self.enumerate
    }

    /// Clears every window and resets `onT`, keeping the query and plan.
    pub fn reset(&mut self) {
        for w in &mut self.windows {
            w.clear();
        }
        self.on_t = Timestamp::ZERO;
        self.started = false;
        self.stats = OperatorStats::default();
    }

    /// Processes one tuple according to Alg. 2 and reports what happened.
    ///
    /// In enumerating mode the materialized results are computed and
    /// discarded; use [`MswjOperator::push_with`] to receive them.
    pub fn push(&mut self, tuple: Tuple) -> ProbeOutcome {
        self.push_with(tuple, &mut |_| {})
    }

    /// Processes one tuple according to Alg. 2, invoking `emit` once per
    /// materialized join result (enumerating operators only — a counting
    /// operator never calls `emit`) and reporting what happened.
    ///
    /// This is the event-driven hot path used by the pipeline's sink-based
    /// output: results stream out through the callback instead of being
    /// collected into a per-push `Vec`.
    pub fn push_with(&mut self, tuple: Tuple, emit: &mut dyn FnMut(JoinResult)) -> ProbeOutcome {
        let i = tuple.stream.as_usize();
        debug_assert!(i < self.windows.len(), "tuple references unknown stream");
        let in_order = !self.started || tuple.ts >= self.on_t;
        let mut outcome = ProbeOutcome {
            ts: tuple.ts,
            delay: tuple.delay_or_zero(),
            in_order,
            ..ProbeOutcome::default()
        };
        if in_order {
            self.on_t = tuple.ts;
            self.started = true;
            // Step 1: invalidate expired tuples in windows of other streams.
            outcome.expired = self.expire_others(i, &tuple);
            // Step 2: probe remaining tuples in all other windows.
            outcome.n_cross = self.cross_size(i);
            (outcome.n_join, outcome.indexed) = self.probe(i, &tuple, emit);
            // Step 3: insert into own window.
            self.windows[i].insert(tuple);
            outcome.inserted = true;
            self.stats.in_order += 1;
            if outcome.indexed {
                self.stats.indexed_probes += 1;
            } else {
                self.stats.fallback_probes += 1;
            }
            self.stats.results += outcome.n_join;
            self.stats.cross_results += outcome.n_cross;
            self.stats.expired += outcome.expired as u64;
        } else {
            // Out-of-order tuple: no probing; insert only if still in scope
            // (e.ts >= onT - W_i, Sec. III-A).
            outcome.inserted = self.insert_out_of_order(tuple);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::{CommonKeyEquiJoin, CrossJoin, DistanceWithin, StarEquiJoin};
    use mswj_types::{FieldType, Schema, StreamSet, StreamSpec, Value};

    fn equi_query(m: usize, window: u64) -> JoinQuery {
        let streams =
            StreamSet::homogeneous(m, Schema::new(vec![("a1", FieldType::Int)]), window).unwrap();
        let cond = Arc::new(CommonKeyEquiJoin::new(&streams, "a1").unwrap());
        JoinQuery::new("equi", streams, cond).unwrap()
    }

    fn tup(stream: usize, seq: u64, ts: u64, key: i64) -> Tuple {
        Tuple::new(
            stream.into(),
            seq,
            Timestamp::from_millis(ts),
            vec![Value::Int(key)],
        )
    }

    fn star_query() -> JoinQuery {
        let streams = StreamSet::new(vec![
            StreamSpec::new(
                "S1",
                Schema::new(vec![
                    ("a1", FieldType::Int),
                    ("a2", FieldType::Int),
                    ("a3", FieldType::Int),
                ]),
                10_000,
            ),
            StreamSpec::new("S2", Schema::new(vec![("a1", FieldType::Int)]), 10_000),
            StreamSpec::new("S3", Schema::new(vec![("a2", FieldType::Int)]), 10_000),
            StreamSpec::new("S4", Schema::new(vec![("a3", FieldType::Int)]), 10_000),
        ])
        .unwrap();
        let cond = Arc::new(
            StarEquiJoin::new(
                &streams,
                0,
                &[(1, "a1", "a1"), (2, "a2", "a2"), (3, "a3", "a3")],
            )
            .unwrap(),
        );
        JoinQuery::new("star", streams, cond).unwrap()
    }

    /// xorshift64: the deterministic draw the generated workloads share.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn fig1_missed_result_without_disorder_handling() {
        // Reproduces the motivating example of Fig. 1: a 2-way join with
        // W1 = W2 = 2 time units; the out-of-order tuple C4 misses its match
        // c3 because B6 already advanced the windows.
        let streams = StreamSet::homogeneous(
            2,
            Schema::new(vec![("v", FieldType::Int)]),
            2, // 2 "time units" = 2 ms in our clock
        )
        .unwrap();
        let cond = Arc::new(CommonKeyEquiJoin::new(&streams, "v").unwrap());
        let query = JoinQuery::new("fig1", streams, cond).unwrap();
        let mut op = MswjOperator::enumerating(query);

        // Arrival order from Fig. 1 (values renamed to integers):
        // A1, b2, B3, c3, a4, E5, B6, C4(out of order), e5, D8, d6, e7, B7
        // We only check the C4/c3 part: after B6 arrives, c3 (ts=3) expires
        // from S2's window, so the late C4 derives nothing.
        op.push(tup(0, 0, 1, 10)); // A1
        op.push(tup(1, 0, 2, 11)); // b2
        let r_b3 = op.push(tup(0, 1, 3, 11)); // B3 joins b2
        assert_eq!(r_b3.n_join, 1);
        op.push(tup(1, 1, 3, 12)); // c3
        op.push(tup(0, 2, 5, 13)); // E5
        let r_b6 = op.push(tup(0, 3, 6, 11)); // B6 advances onT to 6, expires c3 (3 < 6-2=4)
        assert_eq!(r_b6.n_join, 0);
        // C4 arrives late (ts 4 < onT 6): no probing, so its result with c3 is missed.
        let r_c4 = op.push(tup(0, 4, 4, 12));
        assert!(!r_c4.in_order);
        assert_eq!(r_c4.n_join, 0);
        assert!(r_c4.inserted, "C4 is still within S1's window scope");
        assert_eq!(op.stats().out_of_order, 1);
    }

    #[test]
    fn forced_nested_loop_produces_identical_results() {
        let query = equi_query(3, 5_000);
        let mut indexed = MswjOperator::with_probe(query.clone(), ProbeStrategy::Auto, true);
        let mut scan = MswjOperator::with_probe(query, ProbeStrategy::NestedLoop, true);
        assert!(indexed.probe_plan().is_indexed());
        assert_eq!(*scan.probe_plan(), ProbePlan::NestedLoop);
        for s in 0..60u64 {
            let t = tup((s % 3) as usize, s, s * 7, (s % 4) as i64);
            let mut a = Vec::new();
            let mut b = Vec::new();
            let ra = indexed.push_with(t.clone(), &mut |r| a.push(r.to_string()));
            let rb = scan.push_with(t, &mut |r| b.push(r.to_string()));
            assert_eq!(ra.n_join, rb.n_join);
            a.sort();
            b.sort();
            assert_eq!(a, b, "indexed and scan probes must emit the same multiset");
        }
        assert!(indexed.stats().indexed_probes > 0);
        assert_eq!(indexed.stats().fallback_probes, 0);
        assert_eq!(scan.stats().indexed_probes, 0);
        assert!(scan.stats().results > 0);
    }

    #[test]
    fn float_keys_fall_back_and_keep_numeric_equality() {
        // join_eq equates Int(4) with Float(4.0); the hash index cannot see
        // that, so such probes must fall back to the scan — on both sides.
        let query = equi_query(2, 10_000);
        let mut op = MswjOperator::enumerating(query);
        let float_tuple = Tuple::new(
            1.into(),
            0,
            Timestamp::from_millis(10),
            vec![Value::Float(4.0)],
        );
        let r = op.push(float_tuple);
        assert!(!r.indexed, "a float probe key cannot use the index");
        // The float tuple now poisons S2's window: an Int(4) probe must
        // fall back and still find the numeric match.
        let r = op.push(tup(0, 0, 20, 4));
        assert!(!r.indexed);
        assert_eq!(r.n_join, 1, "Int(4) joins Float(4.0) numerically");
        // Once the float expires, integer probes engage the index again.
        op.push(tup(1, 1, 30_000, 4));
        let r = op.push(tup(0, 1, 30_010, 4));
        assert!(r.indexed);
        assert_eq!(r.n_join, 1);
        assert_eq!(op.stats().fallback_probes, 2);
    }

    #[test]
    fn null_probe_keys_short_circuit() {
        let query = equi_query(2, 10_000);
        let mut indexed = MswjOperator::enumerating(query.clone());
        let mut scan = MswjOperator::with_probe(query, ProbeStrategy::NestedLoop, true);
        for op in [&mut indexed, &mut scan] {
            op.push(tup(1, 0, 0, 1));
        }
        let null_probe = Tuple::new(0.into(), 0, Timestamp::from_millis(10), vec![Value::Null]);
        let ra = indexed.push(null_probe.clone());
        let rb = scan.push(null_probe);
        assert_eq!(ra.n_join, 0);
        assert_eq!(rb.n_join, 0);
        assert!(ra.indexed, "a barren probe is answered without scanning");
        // Null tuples sit inertly in the window without disabling the index.
        let r = indexed.push(tup(1, 1, 20, 1));
        assert!(r.indexed);
        assert_eq!(r.n_join, 0, "Null never joins");
    }

    #[test]
    fn out_of_order_tuple_produces_nothing_but_contributes_later() {
        let query = equi_query(2, 1_000);
        let mut op = MswjOperator::new(query);
        op.push(tup(0, 0, 100, 7));
        op.push(tup(1, 0, 500, 7)); // joins -> 1 result
                                    // Late S2 tuple (ts 200 < onT 500) is inserted silently.
        let late = op.push(tup(1, 1, 200, 7));
        assert!(!late.in_order);
        assert_eq!(late.n_join, 0);
        assert!(!late.indexed, "non-probing arrivals are not indexed probes");
        assert!(late.inserted);
        // A later S1 tuple joins both S2 tuples.
        let r = op.push(tup(0, 1, 600, 7));
        assert_eq!(r.n_join, 2);
        assert_eq!(op.stats().results, 3);
        let s = op.stats();
        assert_eq!(s.indexed_probes + s.fallback_probes, s.in_order);
    }

    #[test]
    fn too_old_out_of_order_tuple_is_dropped() {
        let query = equi_query(2, 1_000);
        let mut op = MswjOperator::new(query);
        op.push(tup(0, 0, 5_000, 1));
        let r = op.push(tup(1, 0, 1_000, 1)); // 1000 < 5000 - 1000 => dropped
        assert!(!r.in_order);
        assert!(!r.inserted);
        assert_eq!(op.stats().dropped, 1);
        assert_eq!(op.window(StreamIndex(1)).len(), 0);
    }

    #[test]
    fn insert_late_bypasses_probing_and_the_scope_check() {
        // The sharded engine decides ordering and scope globally; the shard
        // must absorb the tuple as-is — no probing even when the tuple looks
        // in-order to this (lagging) shard, no local scope veto.
        let query = equi_query(2, 1_000);
        let mut op = MswjOperator::new(query);
        op.push(tup(0, 0, 100, 7));
        // Locally in-order (ts 400 >= onT 100) but globally late: must not
        // probe, must not advance onT, must still land in the window.
        op.insert_late(tup(1, 0, 400, 7));
        assert_eq!(op.on_t(), Timestamp::from_millis(100));
        assert_eq!(op.stats().results, 0, "a late insert never probes");
        assert_eq!(op.stats().out_of_order, 1);
        assert_eq!(op.window(StreamIndex(1)).len(), 1);
        // The absorbed tuple contributes to future probes.
        let r = op.push(tup(0, 1, 500, 7));
        assert_eq!(r.n_join, 1);
    }

    #[test]
    fn window_expiration_follows_probing_timestamp() {
        let query = equi_query(2, 1_000);
        let mut op = MswjOperator::new(query);
        op.push(tup(0, 0, 0, 1));
        op.push(tup(0, 1, 500, 1));
        // S2 tuple at t=1400 expires the S1 tuple at t=0 (0 < 1400-1000).
        let r = op.push(tup(1, 0, 1_400, 1));
        assert_eq!(r.expired, 1);
        assert_eq!(op.window(StreamIndex(0)).len(), 1);
        assert_eq!(r.n_join, 1); // joins only the surviving S1 tuple
        assert_eq!(op.on_t(), Timestamp::from_millis(1_400));
    }

    #[test]
    fn cross_join_counts_are_window_products() {
        let streams =
            StreamSet::homogeneous(3, Schema::new(vec![("a1", FieldType::Int)]), 10_000).unwrap();
        let cond = Arc::new(CrossJoin::new(3));
        let query = JoinQuery::new("cross", streams, cond).unwrap();
        let mut op = MswjOperator::new(query);
        assert_eq!(*op.probe_plan(), ProbePlan::NestedLoop);
        op.push(tup(0, 0, 0, 1));
        op.push(tup(0, 1, 1, 2));
        op.push(tup(1, 0, 2, 3));
        // Probing S3 tuple sees |W1| = 2, |W2| = 1 -> 2 cross results.
        let r = op.push(tup(2, 0, 3, 4));
        assert_eq!(r.n_cross, 2);
        assert_eq!(r.n_join, 2);
        assert!(!r.indexed);
        assert_eq!(op.stats().indexed_probes, 0);
    }

    #[test]
    fn count_equals_emitted_push_for_push() {
        use crate::condition::{BandJoin, PredicateFn};

        /// How many probes the stream-order operator answers through the
        /// index: every one, none, or some but not all (gate fallbacks).
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Indexed {
            All,
            None,
            Some,
        }
        struct Row {
            name: &'static str,
            query: JoinQuery,
            tuples: Vec<Tuple>,
            indexed: Indexed,
            /// Whether some probing keys are `Null`: barren probes, which
            /// count as indexed even after a demotion.
            nulls: bool,
        }

        let row = |stream: usize, seq: u64, ts: u64, values: Vec<Value>| {
            Tuple::new(stream.into(), seq, Timestamp::from_millis(ts), values)
        };
        // Mostly ascending timestamps with late rows mixed in.
        let ts_of =
            |s: u64, draw: u64| s * 10 - draw.is_multiple_of(4) as u64 * (draw % 40).min(s * 10);
        let band = |m: usize| {
            let schema = Schema::new(vec![("id", FieldType::Int), ("v", FieldType::Float)]);
            let streams = StreamSet::homogeneous(m, schema, 400).unwrap();
            let cond = Arc::new(BandJoin::new(&streams, "v", 1.0).unwrap());
            JoinQuery::new("band", streams, cond).unwrap()
        };
        // One `[id, v]` row per draw over every value class a scan column
        // images: floats, integers, NaN and Null.
        let scanned = |m: usize, n: u64, seed: u64| -> Vec<Tuple> {
            let mut next = xorshift(seed);
            (0..n)
                .map(|s| {
                    let stream = (next() % m as u64) as usize;
                    let v = match next() % 9 {
                        0 => Value::Null,
                        1 => Value::Int((next() % 4) as i64),
                        2 => Value::Float(f64::NAN),
                        _ => Value::Float((next() % 8) as f64 * 0.5),
                    };
                    row(stream, s, ts_of(s, next()), vec![Value::Int(s as i64), v])
                })
                .collect()
        };
        // Common-key rows whose key is drawn by `key(draw, k)`.
        let common = |m: usize, n: u64, key: &dyn Fn(u64, i64) -> Value| -> Vec<Tuple> {
            let mut next = xorshift(0x2545_F491);
            (0..n)
                .map(|s| {
                    let stream = (next() % m as u64) as usize;
                    let k = (next() % 4) as i64;
                    row(stream, s, ts_of(s, next()), vec![key(next(), k)])
                })
                .collect()
        };
        // Star rows: anchors carry three pair keys, satellites one.
        let star = |n: u64, key: &dyn Fn(u64, i64) -> Value| -> Vec<Tuple> {
            let mut next = xorshift(0x1234_5678);
            (0..n)
                .map(|s| {
                    let stream = (next() % 4) as usize;
                    let width = if stream == 0 { 3 } else { 1 };
                    let values = (0..width)
                        .map(|_| key(next(), (next() % 3) as i64))
                        .collect();
                    row(stream, s, s * 5, values)
                })
                .collect()
        };
        let int = |_: u64, k: i64| Value::Int(k);
        let anchor = |seq: u64, ts: u64, a: [i64; 3]| {
            row(0, seq, ts, a.iter().map(|&v| Value::Int(v)).collect())
        };
        let distance = {
            let schema = Schema::new(vec![
                ("sID", FieldType::Int),
                ("xCoord", FieldType::Float),
                ("yCoord", FieldType::Float),
            ]);
            let streams = StreamSet::homogeneous(2, schema, 400).unwrap();
            let cond = Arc::new(DistanceWithin::new(&streams, "xCoord", "yCoord", 1.5).unwrap());
            JoinQuery::new("dist", streams, cond).unwrap()
        };
        let udf = {
            let streams =
                StreamSet::homogeneous(3, Schema::new(vec![("a1", FieldType::Int)]), 150).unwrap();
            let even_sum = |ts: &[&Tuple]| {
                let keys = ts.iter().filter_map(|t| t.value(0).and_then(Value::as_int));
                keys.sum::<i64>() % 2 == 0
            };
            let cond = Arc::new(PredicateFn::new(3, "even-sum", even_sum));
            JoinQuery::new("udf", streams, cond).unwrap()
        };

        let rows = vec![
            Row {
                // Formerly `in_order_equi_join_counts_and_results_agree`.
                name: "common key m=2, in order",
                query: equi_query(2, 10_000),
                tuples: vec![
                    tup(0, 0, 0, 1),
                    tup(1, 0, 10, 1),
                    tup(0, 1, 20, 2),
                    tup(1, 1, 30, 2),
                    tup(0, 2, 40, 1),
                    tup(1, 2, 50, 1),
                ],
                indexed: Indexed::All,
                nulls: false,
            },
            Row {
                name: "common key m=3",
                query: equi_query(3, 200),
                tuples: common(3, 90, &int),
                indexed: Indexed::All,
                nulls: false,
            },
            Row {
                // Formerly `star_join_counts_match_enumeration`.
                name: "star m=4, anchor and satellite probes",
                query: star_query(),
                tuples: vec![
                    tup(1, 0, 0, 1),
                    tup(2, 0, 1, 2),
                    tup(3, 0, 2, 3),
                    anchor(0, 3, [1, 2, 3]), // matches all satellites -> 1 result
                    tup(1, 1, 4, 1),         // satellite probing anchor -> 1 result
                    anchor(1, 5, [1, 2, 9]), // a3 mismatch -> 0
                    tup(3, 1, 6, 9),         // second anchor only -> 2 (two S2 with a1=1)
                    tup(2, 1, 7, 2),         // probes both anchors
                ],
                indexed: Indexed::All,
                nulls: false,
            },
            Row {
                name: "star m=4, generated",
                query: star_query(),
                tuples: star(80, &int),
                indexed: Indexed::All,
                nulls: false,
            },
            Row {
                // Null and Float pair keys on both sides: barren probes,
                // gate fallbacks and inert root rows.
                name: "star m=4, mixed pair keys",
                query: star_query(),
                tuples: star(100, &|draw, k| match draw % 12 {
                    0 => Value::Null,
                    1 => Value::Float(k as f64),
                    _ => Value::Int(k),
                }),
                indexed: Indexed::Some,
                nulls: true,
            },
            Row {
                name: "band m=2",
                query: band(2),
                tuples: scanned(2, 100, 0x9E37_79B9),
                indexed: Indexed::None,
                nulls: false,
            },
            Row {
                name: "band m=3, probes from stream 0 and from the others",
                query: band(3),
                tuples: scanned(3, 150, 0x9E37_79B9),
                indexed: Indexed::None,
                nulls: false,
            },
            Row {
                name: "distance",
                query: distance,
                tuples: {
                    let mut next = xorshift(0xD157_A2CE);
                    let mut coord = move || match next() % 10 {
                        0 => Value::Null,
                        d => Value::Float((d % 6) as f64 * 0.5),
                    };
                    let mut draw = xorshift(7);
                    (0..100u64)
                        .map(|s| {
                            let values = vec![Value::Int(s as i64), coord(), coord()];
                            row((draw() % 2) as usize, s, ts_of(s, draw()), values)
                        })
                        .collect()
                },
                indexed: Indexed::None,
                nulls: false,
            },
            Row {
                name: "user-defined predicate (no plan)",
                query: udf,
                tuples: common(3, 60, &int),
                indexed: Indexed::None,
                nulls: false,
            },
            Row {
                name: "common key m=3, mixed Int/Float keys",
                query: equi_query(3, 200),
                tuples: common(3, 120, &|draw, k| match draw % 8 {
                    0 => Value::Float(k as f64),
                    _ => Value::Int(k),
                }),
                indexed: Indexed::Some,
                nulls: false,
            },
            Row {
                name: "common key m=3, Null keys",
                query: equi_query(3, 200),
                tuples: common(3, 90, &|draw, k| match draw % 4 {
                    0 => Value::Null,
                    _ => Value::Int(k),
                }),
                indexed: Indexed::All,
                nulls: true,
            },
        ];

        for Row {
            name,
            query,
            tuples,
            indexed,
            nulls,
        } in rows
        {
            let m = query.arity();
            let stream_order: Vec<usize> = (0..m).collect();
            let rotated: Vec<usize> = (1..m).chain(0..1).collect();
            let reversed: Vec<usize> = (0..m).rev().collect();
            // `None`: stream order after `demote_index`.
            let variants = [
                Some(stream_order.clone()),
                Some(rotated),
                Some(reversed),
                None,
            ];
            for order in variants {
                let case = format!("{name}, order {order:?}");
                let mut counting = MswjOperator::new(query.clone());
                let mut enumerating = MswjOperator::enumerating(query.clone());
                let mut reference =
                    MswjOperator::with_probe(query.clone(), ProbeStrategy::NestedLoop, true);
                let demoted = order.is_none();
                // Hash plans walk in probe order; everything else binds
                // streams in ascending order, as the reference does.
                let same_order = demoted
                    || !enumerating.probe_plan().is_indexed()
                    || order.as_ref() == Some(&stream_order);
                for op in [&mut counting, &mut enumerating] {
                    match &order {
                        Some(order) => op.set_probe_order(order.clone()),
                        None => op.demote_index(),
                    }
                }
                for t in &tuples {
                    let counted = counting.push(t.clone());
                    let (mut emitted, mut expected) = (Vec::new(), Vec::new());
                    let walked =
                        enumerating.push_with(t.clone(), &mut |r| emitted.push(r.to_string()));
                    let scanned =
                        reference.push_with(t.clone(), &mut |r| expected.push(r.to_string()));
                    assert_eq!(counted, walked, "{case}: count vs walk at {t:?}");
                    assert_eq!(
                        ProbeOutcome {
                            indexed: false,
                            ..walked
                        },
                        scanned,
                        "{case}: walk vs reference at {t:?}"
                    );
                    assert_eq!(walked.n_join, emitted.len() as u64, "{case}: {t:?}");
                    if !same_order {
                        emitted.sort();
                        expected.sort();
                    }
                    assert_eq!(emitted, expected, "{case}: combinations at {t:?}");
                    if demoted {
                        assert!(!walked.indexed || walked.n_join == 0, "{case}: {t:?}");
                    }
                }
                let stats = enumerating.stats();
                assert_eq!(stats, counting.stats(), "{case}");
                assert!(
                    stats.results > 0,
                    "{case}: the workload must derive results"
                );
                assert_eq!(stats.indexed_probes + stats.fallback_probes, stats.in_order);
                let expect = match (demoted, nulls) {
                    (false, _) => indexed,
                    (true, false) => Indexed::None,
                    (true, true) => continue, // only the barren probes stay indexed
                };
                let observed = match (stats.indexed_probes, stats.fallback_probes) {
                    (_, 0) => Indexed::All,
                    (0, _) => Indexed::None,
                    _ => Indexed::Some,
                };
                assert_eq!(observed, expect, "{case}: {stats:?}");
            }
        }
    }

    #[test]
    fn star_probes_match_forced_nested_loop() {
        let query = star_query();
        let mut indexed = MswjOperator::with_probe(query.clone(), ProbeStrategy::Auto, true);
        let mut scan = MswjOperator::with_probe(query, ProbeStrategy::NestedLoop, true);
        let mut next = xorshift(0x1234_5678);
        for s in 0..120u64 {
            let stream = (next() % 4) as usize;
            let ts = s * 5;
            let t = if stream == 0 {
                Tuple::new(
                    0.into(),
                    s,
                    Timestamp::from_millis(ts),
                    vec![
                        Value::Int((next() % 3) as i64),
                        Value::Int((next() % 3) as i64),
                        Value::Int((next() % 3) as i64),
                    ],
                )
            } else {
                tup(stream, s, ts, (next() % 3) as i64)
            };
            let mut a = Vec::new();
            let mut b = Vec::new();
            indexed.push_with(t.clone(), &mut |r| a.push(r.to_string()));
            scan.push_with(t, &mut |r| b.push(r.to_string()));
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
        assert!(indexed.stats().results > 0, "workload must derive results");
        assert_eq!(indexed.stats().fallback_probes, 0);
    }

    #[test]
    fn udf_condition_uses_nested_loop_counting() {
        let schema = Schema::new(vec![
            ("sID", FieldType::Int),
            ("xCoord", FieldType::Float),
            ("yCoord", FieldType::Float),
        ]);
        let streams = StreamSet::homogeneous(2, schema, 5_000).unwrap();
        let cond = Arc::new(DistanceWithin::new(&streams, "xCoord", "yCoord", 5.0).unwrap());
        let query = JoinQuery::new("dist", streams, cond).unwrap();
        let mut op = MswjOperator::new(query);
        assert_eq!(*op.probe_plan(), ProbePlan::NestedLoop);
        let pos = |stream: usize, seq: u64, ts: u64, x: f64, y: f64| {
            Tuple::new(
                stream.into(),
                seq,
                Timestamp::from_millis(ts),
                vec![Value::Int(seq as i64), Value::Float(x), Value::Float(y)],
            )
        };
        op.push(pos(0, 0, 0, 0.0, 0.0));
        op.push(pos(0, 1, 10, 50.0, 50.0));
        let r = op.push(pos(1, 0, 20, 1.0, 1.0)); // near the first only
        assert_eq!(r.n_join, 1);
        assert_eq!(r.n_cross, 2);
    }

    #[test]
    fn scan_kernel_emits_what_the_tuple_walk_emits_in_the_same_order() {
        use crate::condition::BandJoin;
        let schema = Schema::new(vec![("id", FieldType::Int), ("v", FieldType::Float)]);
        let streams = StreamSet::homogeneous(3, schema, 400).unwrap();
        let cond = Arc::new(BandJoin::new(&streams, "v", 1.0).unwrap());
        let query = JoinQuery::new("band3", streams, cond).unwrap();
        let mut kernel = MswjOperator::with_probe(query.clone(), ProbeStrategy::Auto, true);
        let mut counting = MswjOperator::new(query.clone());
        let mut walk = MswjOperator::with_probe(query, ProbeStrategy::NestedLoop, true);
        assert_eq!(*kernel.probe_plan(), ProbePlan::NestedLoop);
        let mut next = xorshift(0x9E37_79B9);
        for s in 0..150u64 {
            let stream = (next() % 3) as usize;
            // Mostly ascending timestamps with late rows mixed in.
            let ts = s * 10 - next().is_multiple_of(4) as u64 * (next() % 40).min(s * 10);
            let v = match next() % 9 {
                0 => Value::Null,
                1 => Value::Int((next() % 4) as i64),
                2 => Value::Float(f64::NAN),
                _ => Value::Float((next() % 8) as f64 * 0.5),
            };
            let t = Tuple::new(
                stream.into(),
                s,
                Timestamp::from_millis(ts),
                vec![Value::Int(s as i64), v],
            );
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let ra = kernel.push_with(t.clone(), &mut |r| a.push(r.to_string()));
            let rb = walk.push_with(t.clone(), &mut |r| b.push(r.to_string()));
            assert_eq!(a, b, "same combinations, same emission order");
            assert_eq!(ra, rb, "same probe outcome, scan probes included");
            assert_eq!(counting.push(t), rb, "counting agrees with enumeration");
        }
        assert!(kernel.stats().results > 0, "workload must derive results");
        assert!(
            kernel.stats().out_of_order > 0,
            "workload must include late rows"
        );
        assert_eq!(kernel.stats(), walk.stats());
        assert_eq!(
            kernel.stats().indexed_probes,
            0,
            "a scan is a fallback probe"
        );
        // The kernel's only footprint: one f64 per live row and scan column.
        let live: usize = (0..3).map(|i| kernel.window(StreamIndex(i)).len()).sum();
        assert_eq!(kernel.window_bytes(), walk.window_bytes() + 8 * live as u64);
    }

    #[test]
    fn reset_clears_state_but_keeps_query() {
        let query = equi_query(2, 1_000);
        let mut op = MswjOperator::new(query);
        op.push(tup(0, 0, 100, 1));
        op.push(tup(1, 0, 200, 1));
        assert!(op.stats().results > 0);
        op.reset();
        assert_eq!(op.on_t(), Timestamp::ZERO);
        assert_eq!(op.stats(), OperatorStats::default());
        assert_eq!(op.window(StreamIndex(0)).len(), 0);
        // Operator is usable again after reset, index included.
        let r = op.push(tup(0, 0, 50, 1));
        assert!(r.in_order);
        assert!(op.probe_plan().is_indexed());
    }

    #[test]
    fn cross_size_saturates_instead_of_overflowing() {
        // Regression: `n_x(e)` is the headline quality quantity, and with 8
        // streams of 1 000 live tuples its cross-join size is 1000^7 = 10^21
        // — far past u64::MAX.  The old unchecked `.product()` panicked in
        // debug and wrapped in release; it must saturate.
        let query = equi_query(8, 10_000);
        let mut op = MswjOperator::new(query);
        for stream in 1..8usize {
            for s in 0..1_000u64 {
                // `adopt` fills windows without probing, so building the
                // state is O(n) instead of O(n^7).
                op.adopt(tup(stream, s, s % 100, 0));
            }
        }
        let r = op.push(tup(0, 0, 500, -1)); // absent key: no results
        assert!(r.in_order);
        assert_eq!(r.n_join, 0);
        assert_eq!(
            r.n_cross,
            u64::MAX,
            "an overflowing cross size must saturate"
        );
        assert_eq!(op.stats().cross_results, u64::MAX);
        assert_eq!(op.stats().adopted, 7_000);
    }

    #[test]
    fn probe_order_changes_access_path_not_results() {
        let query = equi_query(3, 10_000);
        let mut default_order = MswjOperator::enumerating(query.clone());
        let mut reordered = MswjOperator::enumerating(query);
        reordered.set_probe_order(vec![2, 0, 1]);
        assert_eq!(reordered.probe_order(), &[2, 0, 1]);
        for s in 0..60u64 {
            let t = tup((s % 3) as usize, s, s * 7, (s % 4) as i64);
            let mut a = Vec::new();
            let mut b = Vec::new();
            let ra = default_order.push_with(t.clone(), &mut |r| a.push(r.to_string()));
            let rb = reordered.push_with(t, &mut |r| b.push(r.to_string()));
            assert_eq!(ra.n_join, rb.n_join);
            assert_eq!(ra.indexed, rb.indexed);
            a.sort();
            b.sort();
            assert_eq!(a, b, "probe order must not change the result multiset");
        }
        assert!(default_order.stats().results > 0);
        assert_eq!(default_order.stats(), reordered.stats());
    }

    #[test]
    fn star_probe_order_changes_access_path_not_results() {
        let query = star_query();
        let mut default_order = MswjOperator::enumerating(query.clone());
        let mut reordered = MswjOperator::enumerating(query);
        reordered.set_probe_order(vec![3, 1, 0, 2]);
        for s in 0..80u64 {
            let stream = (s % 4) as usize;
            let t = if stream == 0 {
                Tuple::new(
                    0.into(),
                    s,
                    Timestamp::from_millis(s * 5),
                    vec![
                        Value::Int((s % 3) as i64),
                        Value::Int((s % 2) as i64),
                        Value::Int((s % 3) as i64),
                    ],
                )
            } else {
                tup(stream, s, s * 5, ((s * 7) % 3) as i64)
            };
            let mut a = Vec::new();
            let mut b = Vec::new();
            default_order.push_with(t.clone(), &mut |r| a.push(r.to_string()));
            reordered.push_with(t, &mut |r| b.push(r.to_string()));
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
        assert!(default_order.stats().results > 0);
        assert_eq!(default_order.stats(), reordered.stats());
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn probe_order_rejects_non_permutations() {
        let mut op = MswjOperator::new(equi_query(3, 1_000));
        op.set_probe_order(vec![0, 0, 1]);
    }

    #[test]
    fn demote_index_falls_back_with_identical_results() {
        let query = equi_query(2, 10_000);
        let mut indexed = MswjOperator::enumerating(query.clone());
        let mut demoted = MswjOperator::enumerating(query);
        demoted.demote_index();
        for s in 0..40u64 {
            let t = tup((s % 2) as usize, s, s * 9, (s % 3) as i64);
            let mut a = Vec::new();
            let mut b = Vec::new();
            let ra = indexed.push_with(t.clone(), &mut |r| a.push(r.to_string()));
            let rb = demoted.push_with(t, &mut |r| b.push(r.to_string()));
            assert_eq!(ra.n_join, rb.n_join);
            a.sort();
            b.sort();
            assert_eq!(a, b, "demotion must not change the result multiset");
        }
        assert!(indexed.stats().results > 0);
        assert_eq!(indexed.stats().fallback_probes, 0);
        assert_eq!(
            demoted.stats().indexed_probes,
            0,
            "every probe scans after demotion"
        );
    }

    #[test]
    fn first_tuple_is_always_in_order() {
        let query = equi_query(2, 1_000);
        let mut op = MswjOperator::new(query);
        let r = op.push(tup(0, 0, 999, 1));
        assert!(r.in_order);
        assert_eq!(r.n_cross, 0);
        assert_eq!(r.n_join, 0);
    }
}
