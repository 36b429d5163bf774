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
//! 2. If the tuple is **out of order**: its results are lost.  The other
//!    windows are expired to the bound `onT − W_j` and the results it would
//!    have derived are *counted* (the probe walk in counting mode, reported
//!    as [`ProbeOutcome::n_lost`]).  If it is still within its window's
//!    current scope it is then kept, so that it can contribute to future
//!    results; otherwise it is dropped.
//!
//! The responsibilities are split across three submodules so that
//! shard-local and global concerns stay visible in the module tree:
//! [`insert`] owns window maintenance (expiry, in-order and out-of-order
//! insertion, including the out-of-order path
//! [`MswjOperator::insert_late`] the sharded engine drives),
//! [`probe`] owns the one read-only probe walk, and [`stats`] owns the
//! [`ProbeOutcome`]/[`OperatorStats`] records.
//!
//! ## Probe access paths
//!
//! How step 1 searches the other windows is decided by a [`ProbePlan`]
//! (see [`planner`](crate::planner)): equi-join conditions probe through
//! the windows' value→tuple hash indexes — each lookup touches only the
//! bucket of tuples that can still satisfy the join — while generic
//! conditions (and any probe whose index soundness cannot be guaranteed)
//! use the exhaustive nested-loop scan.  Both paths are proven equivalent
//! by the differential harness in `tests/differential.rs`.  Every
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
//! (`tests/differential.rs`).
//!
//! ## Sharded execution
//!
//! An operator can also serve as **one shard** of a key-partitioned engine
//! (`mswj-core`'s `engine` module): the engine routes tuples by their
//! equi-join key, keeps the *global* high-water mark itself, and drives
//! each shard through [`MswjOperator::push_with`] (globally in-order
//! tuples, which are in-order for the shard too) and
//! [`MswjOperator::insert_late`] (globally late tuples the shard must
//! absorb without producing results: it counts their loss against the
//! global `onT` the engine hands it, and keeps or drops them under that
//! `onT`'s scope).
//!
//! For every processed tuple the operator reports the number of produced
//! join results `n_on(e)` and the corresponding cross-join size `n_x(e)`;
//! the Tuple-Productivity Profiler consumes these to learn the
//! delay-productivity correlation (Sec. IV-B).  For an out-of-order tuple,
//! kept or dropped, it reports the counted loss `n_lost(e)` instead, which
//! the profiler adds to its `N_true(L)` estimate.

mod insert;
mod probe;
mod stats;

pub use stats::{OperatorStats, ProbeOutcome};

use crate::condition::{JoinCondition, ScanStructure};
use crate::planner::{plan_scan, scan_columns, ProbePlan, ProbeStrategy};
use crate::query::JoinQuery;
use crate::result::JoinResult;
use crate::window::{squared_limit, IndexKind, Window};
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
            windows.push(Window::with_columns(
                size,
                &plan.indexed_columns(i),
                &scanned,
                query.segment_capacity(),
                Self::index_kind(&plan, enumerate, m, i),
            ));
        }
        MswjOperator {
            query,
            condition,
            plan,
            scan,
            distance_limit,
            windows,
            on_t: Timestamp::ZERO,
            started: false,
            enumerate,
            stats: OperatorStats::default(),
        }
    }

    /// The one index kind window `i` keeps, fixed here for the operator's
    /// lifetime: postings where a probe walks the window — every window of
    /// an enumerating operator, and the star anchor when `m > 2`, whose
    /// buckets a satellite probe walks as its root — and key counts where
    /// the plan only counts it.  Which windows a probe walks depends on the
    /// plan alone, so the choice never needs revisiting.
    fn index_kind(plan: &ProbePlan, enumerate: bool, m: usize, i: usize) -> IndexKind {
        let star_root = matches!(plan, ProbePlan::Star { anchor, .. } if *anchor == i && m > 2);
        if enumerate || star_root {
            IndexKind::Postings
        } else {
            IndexKind::Counts
        }
    }

    /// The query this operator executes.
    pub fn query(&self) -> &JoinQuery {
        &self.query
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
        if self.started && tuple.ts < self.on_t {
            // Out-of-order tuple: no results; its loss is counted, and it
            // is inserted only if still in scope (e.ts >= onT - W_i,
            // Sec. III-A).
            return self.absorb_late(tuple, self.on_t);
        }
        self.on_t = tuple.ts;
        self.started = true;
        let mut outcome = ProbeOutcome {
            ts: tuple.ts,
            delay: tuple.delay_or_zero(),
            in_order: true,
            inserted: true,
            ..ProbeOutcome::default()
        };
        // Step 1: invalidate expired tuples in windows of other streams.
        outcome.expired = self.expire_others(i, tuple.ts);
        // Step 2: probe remaining tuples in all other windows.
        outcome.n_cross = self.cross_size(i);
        (outcome.n_join, outcome.indexed) = self.probe(i, &tuple, self.enumerate, emit);
        // Step 3: insert into own window.
        self.windows[i].insert(tuple);
        self.stats.record(&outcome);
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
        let mut op = MswjOperator::with_probe(query, ProbeStrategy::Auto, true);

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
        assert!(indexed.plan.is_indexed());
        assert_eq!(scan.plan, ProbePlan::NestedLoop);
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
        let mut op = MswjOperator::with_probe(query, ProbeStrategy::Auto, true);
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
        let mut indexed = MswjOperator::with_probe(query.clone(), ProbeStrategy::Auto, true);
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
        assert_eq!(late.n_lost, 1, "it would have joined the S1 row at 100");
        assert!(!late.indexed, "a late count is not an indexed probe");
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
    fn late_in_scope_tuple_counts_its_loss_against_the_expired_windows() {
        use crate::condition::BandJoin;
        let band = {
            let streams =
                StreamSet::homogeneous(3, Schema::new(vec![("v", FieldType::Float)]), 300).unwrap();
            let cond = Arc::new(BandJoin::new(&streams, "v", 1.0).unwrap());
            JoinQuery::new("band", streams, cond).unwrap()
        };
        // (query, lateness range, row of `stream` from a draw)
        type RowOf = fn(usize, &mut dyn FnMut() -> u64) -> Vec<Value>;
        let int_key: RowOf = |_, next| vec![Value::Int((next() % 3) as i64)];
        let star_row: RowOf = |stream, next| {
            let width = if stream == 0 { 3 } else { 1 };
            (0..width)
                .map(|_| Value::Int((next() % 3) as i64))
                .collect()
        };
        let band_row: RowOf = |_, next| vec![Value::Float((next() % 6) as f64 * 0.5)];
        let cases: [(&str, JoinQuery, u64, RowOf); 3] = [
            ("common key m=3", equi_query(3, 200), 400, int_key),
            ("star m=4", star_query(), 15_000, star_row),
            ("band m=3", band, 600, band_row),
        ];
        for (name, query, max_lateness, row_of) in cases {
            let m = query.arity();
            let mut ops = [
                MswjOperator::new(query.clone()),
                MswjOperator::with_probe(query.clone(), ProbeStrategy::Auto, true),
                MswjOperator::with_probe(query.clone(), ProbeStrategy::NestedLoop, true),
            ];
            // Every row kept so far, per stream, and the high-water mark.
            let mut kept: Vec<Vec<Tuple>> = vec![Vec::new(); m];
            let mut on_t: Option<Timestamp> = None;
            let (mut late_kept, mut lost_total, mut dropped, mut dropped_lost) = (0, 0, 0, 0);
            let mut next = xorshift(0x5DEE_CE66);
            for s in 0..400u64 {
                let stream = (next() % m as u64) as usize;
                let lateness = if next().is_multiple_of(3) {
                    next() % max_lateness
                } else {
                    0
                };
                let ts = Timestamp::from_millis((1_000 + s * 40).saturating_sub(lateness));
                let t = Tuple::new(stream.into(), s, ts, row_of(stream, &mut next));
                let late = on_t.is_some_and(|on| ts < on);
                // The nested-loop oracle: every combination of kept rows at
                // or above `onT − W_j`, one per other stream.
                let expected = on_t.filter(|_| late).map(|on| {
                    let live: Vec<Vec<&Tuple>> = (0..m)
                        .map(|j| {
                            let bound = on.saturating_sub_duration(query.window(StreamIndex(j)));
                            kept[j].iter().filter(|r| r.ts >= bound).collect()
                        })
                        .collect();
                    let mut slots = vec![&t; m];
                    fn count<'a>(
                        j: usize,
                        i: usize,
                        live: &[Vec<&'a Tuple>],
                        slots: &mut Vec<&'a Tuple>,
                        cond: &dyn JoinCondition,
                    ) -> u64 {
                        if j == live.len() {
                            return u64::from(cond.matches(slots));
                        }
                        if j == i {
                            return count(j + 1, i, live, slots, cond);
                        }
                        let mut n = 0;
                        for &r in &live[j] {
                            slots[j] = r;
                            n += count(j + 1, i, live, slots, cond);
                        }
                        n
                    }
                    let n = count(0, stream, &live, &mut slots, query.condition().as_ref());
                    (n, live.iter().map(Vec::len).collect::<Vec<_>>())
                });
                let own_before: Vec<usize> =
                    ops.iter().map(|op| op.window(t.stream).len()).collect();
                let outcomes: Vec<ProbeOutcome> = ops
                    .iter_mut()
                    .map(|op| {
                        let mut emitted = 0u64;
                        let o = op.push_with(t.clone(), &mut |_| emitted += 1);
                        if late {
                            assert_eq!(emitted, 0, "{name}: a late tuple emits nothing");
                        }
                        o
                    })
                    .collect();
                let o = outcomes[0];
                if let Some(on) = on_t.filter(|_| late) {
                    let scope = on.saturating_sub_duration(query.window(t.stream));
                    assert_eq!(o.inserted, ts >= scope, "{name}: scope of seq {s}");
                }
                for other in &outcomes[1..] {
                    assert_eq!(other.n_lost, o.n_lost, "{name}: seq {s}");
                    assert_eq!(other.expired, o.expired, "{name}: seq {s}");
                }
                match expected {
                    // Kept or dropped, a late tuple counts its loss against
                    // the windows expired to `onT − W_j`; only a kept one
                    // lands in its own window.
                    Some((lost, live)) => {
                        assert_eq!(o.n_lost, lost, "{name}: loss of seq {s}");
                        assert_eq!((o.n_join, o.n_cross), (0, 0), "{name}: seq {s}");
                        for (op, &before) in ops.iter().zip(&own_before) {
                            for (j, &len) in live.iter().enumerate().filter(|&(j, _)| j != stream) {
                                assert_eq!(op.window(StreamIndex(j)).len(), len, "{name}: {j}");
                            }
                            let own = op.window(t.stream).len();
                            assert_eq!(own, before + usize::from(o.inserted), "{name}: seq {s}");
                        }
                        if o.inserted {
                            late_kept += 1;
                            lost_total += lost;
                        } else {
                            dropped += 1;
                            dropped_lost += lost;
                        }
                    }
                    None => assert_eq!(o.n_lost, 0, "{name}: in-order seq {s}"),
                }
                if o.inserted {
                    kept[stream].push(t);
                }
                if !late {
                    on_t = Some(ts);
                }
            }
            assert!(
                late_kept > 20 && lost_total > 0,
                "{name}: {late_kept} / {lost_total}"
            );
            assert!(
                dropped > 0 && dropped_lost > 0,
                "{name}: the workload must drop tuples that lost results too: \
                 {dropped} / {dropped_lost}"
            );
        }
    }

    #[test]
    fn dropped_tuple_counts_its_loss_and_lands_in_no_window() {
        // W = 1 000.  Four S1 rows end at onT = 5 000; S1 arrivals expire
        // only the S2 window, so all four are still held.  An S2 row at
        // 3 800 is out of scope (3 800 < 5 000 − 1 000) and dropped — after
        // the S1 window is expired to 4 000 (the row at 3 500 goes) and its
        // loss counted against what is left: the two key-7 rows at 4 500
        // and 5 000.
        let query = equi_query(2, 1_000);
        let rows = [(3_500, 7), (4_500, 7), (4_600, 8), (5_000, 7)];
        let late = tup(1, 9, 3_800, 7);
        for strategy in [ProbeStrategy::Auto, ProbeStrategy::NestedLoop] {
            for enumerate in [false, true] {
                let mut op = MswjOperator::with_probe(query.clone(), strategy, enumerate);
                for (seq, &(ts, key)) in rows.iter().enumerate() {
                    op.push(tup(0, seq as u64, ts, key));
                }
                let mut emitted = 0;
                let o = op.push_with(late.clone(), &mut |_| emitted += 1);
                let want = ProbeOutcome {
                    ts: late.ts,
                    n_lost: 2,
                    expired: 1,
                    ..ProbeOutcome::default()
                };
                assert_eq!(o, want, "{strategy:?} enumerate {enumerate}");
                assert_eq!(emitted, 0, "a dropped tuple emits nothing");
                assert_eq!(op.window(StreamIndex(0)).len(), 3);
                assert_eq!(op.window(StreamIndex(1)).len(), 0, "dropped, not inserted");
                let s = op.stats();
                assert_eq!((s.out_of_order, s.dropped, s.expired), (1, 1, 1));
            }
        }
        // A shard whose own onT lags the global one counts and scope-checks
        // under the global onT it is handed and leaves its own alone: it
        // holds the rows at 3 500 and 4 500, expires the first, counts the
        // second, and drops the tuple its own onT would keep.
        let mut shard = MswjOperator::new(query);
        shard.push(tup(0, 0, 3_500, 7));
        shard.push(tup(0, 1, 4_500, 7));
        assert_eq!(shard.insert_late(late, Timestamp::from_millis(5_000)), 1);
        assert_eq!(shard.on_t(), Timestamp::from_millis(4_500));
        assert_eq!(shard.window(StreamIndex(0)).len(), 1);
        assert_eq!(
            shard.window(StreamIndex(1)).len(),
            0,
            "dropped, not inserted"
        );
        let s = shard.stats();
        assert_eq!(
            (s.out_of_order, s.dropped, s.expired, s.results),
            (1, 1, 1, 0)
        );
    }

    #[test]
    fn insert_late_bypasses_probing_and_the_scope_check() {
        // The sharded engine decides ordering globally and hands the shard
        // the global onT; the shard must absorb the tuple under it — no
        // probing even when the tuple looks in-order to this (lagging)
        // shard, and the scope is the global onT's, not the shard's own.
        let query = equi_query(2, 1_000);
        let mut op = MswjOperator::new(query);
        op.push(tup(0, 0, 100, 7));
        // Locally in-order (ts 400 >= onT 100) but globally late under a
        // global onT of 600: must not produce, must not advance onT, must
        // still land in the window — and counts the one result it lost.
        let lost = op.insert_late(tup(1, 0, 400, 7), Timestamp::from_millis(600));
        assert_eq!(lost, 1, "the S1 row at 100 is above 600 - 1000");
        assert_eq!(op.on_t(), Timestamp::from_millis(100));
        assert_eq!(op.stats().results, 0, "a late insert never produces");
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
        assert_eq!(op.plan, ProbePlan::NestedLoop);
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

        /// How many probes the operator answers through the index: every
        /// one, none, or some but not all (gate fallbacks).
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
            },
            Row {
                name: "common key m=3",
                query: equi_query(3, 200),
                tuples: common(3, 90, &int),
                indexed: Indexed::All,
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
            },
            Row {
                name: "star m=4, generated",
                query: star_query(),
                tuples: star(80, &int),
                indexed: Indexed::All,
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
            },
            Row {
                name: "band m=2",
                query: band(2),
                tuples: scanned(2, 100, 0x9E37_79B9),
                indexed: Indexed::None,
            },
            Row {
                name: "band m=3, probes from stream 0 and from the others",
                query: band(3),
                tuples: scanned(3, 150, 0x9E37_79B9),
                indexed: Indexed::None,
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
            },
            Row {
                name: "user-defined predicate (no plan)",
                query: udf,
                tuples: common(3, 60, &int),
                indexed: Indexed::None,
            },
            Row {
                name: "common key m=3, mixed Int/Float keys",
                query: equi_query(3, 200),
                tuples: common(3, 120, &|draw, k| match draw % 8 {
                    0 => Value::Float(k as f64),
                    _ => Value::Int(k),
                }),
                indexed: Indexed::Some,
            },
            Row {
                name: "common key m=3, Null keys",
                query: equi_query(3, 200),
                tuples: common(3, 90, &|draw, k| match draw % 4 {
                    0 => Value::Null,
                    _ => Value::Int(k),
                }),
                indexed: Indexed::All,
            },
        ];

        for Row {
            name,
            query,
            tuples,
            indexed,
        } in rows
        {
            let mut counting = MswjOperator::new(query.clone());
            let mut enumerating =
                MswjOperator::with_probe(query.clone(), ProbeStrategy::Auto, true);
            let mut reference = MswjOperator::with_probe(query, ProbeStrategy::NestedLoop, true);
            for t in &tuples {
                let counted = counting.push(t.clone());
                let (mut emitted, mut expected) = (Vec::new(), Vec::new());
                let walked = enumerating.push_with(t.clone(), &mut |r| emitted.push(r.to_string()));
                let scanned = reference.push_with(t.clone(), &mut |r| expected.push(r.to_string()));
                assert_eq!(counted, walked, "{name}: count vs walk at {t:?}");
                assert_eq!(
                    ProbeOutcome {
                        indexed: false,
                        ..walked
                    },
                    scanned,
                    "{name}: walk vs reference at {t:?}"
                );
                assert_eq!(walked.n_join, emitted.len() as u64, "{name}: {t:?}");
                assert_eq!(emitted, expected, "{name}: combinations at {t:?}");
            }
            let stats = enumerating.stats();
            assert_eq!(stats, counting.stats(), "{name}");
            assert!(
                stats.results > 0,
                "{name}: the workload must derive results"
            );
            assert_eq!(stats.indexed_probes + stats.fallback_probes, stats.in_order);
            let observed = match (stats.indexed_probes, stats.fallback_probes) {
                (_, 0) => Indexed::All,
                (0, _) => Indexed::None,
                _ => Indexed::Some,
            };
            assert_eq!(observed, indexed, "{name}: {stats:?}");
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
        assert_eq!(op.plan, ProbePlan::NestedLoop);
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
        assert_eq!(kernel.plan, ProbePlan::NestedLoop);
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
    fn cross_size_saturates_instead_of_overflowing() {
        // Regression: `n_x(e)` is the headline quality quantity, and with 8
        // streams of 1 000 live tuples its cross-join size is 1000^7 = 10^21
        // — far past u64::MAX.  The old unchecked `.product()` panicked in
        // debug and wrapped in release; it must saturate.
        let query = equi_query(8, 10_000);
        let mut op = MswjOperator::new(query);
        for stream in 1..8usize {
            for s in 0..1_000u64 {
                // Filling the windows directly skips the probes, so
                // building the state is O(n) instead of O(n^7).
                op.windows[stream].insert(tup(stream, s, s % 100, 0));
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
    }

    #[test]
    fn each_window_keeps_the_one_index_kind_its_probes_read() {
        use IndexKind::{Counts, Postings};
        let star2 = {
            let schema = Schema::new(vec![("a1", FieldType::Int)]);
            let streams = StreamSet::homogeneous(2, schema, 1_000).unwrap();
            let cond = Arc::new(StarEquiJoin::new(&streams, 1, &[(0, "a1", "a1")]).unwrap());
            JoinQuery::new("star2", streams, cond).unwrap()
        };
        let cross = {
            let schema = Schema::new(vec![("a1", FieldType::Int)]);
            let streams = StreamSet::homogeneous(3, schema, 1_000).unwrap();
            JoinQuery::new("cross", streams, Arc::new(CrossJoin::new(3))).unwrap()
        };
        let (auto, nested) = (ProbeStrategy::Auto, ProbeStrategy::NestedLoop);
        // Per row: the kinds of a counting and of an enumerating operator.
        let table = [
            (
                "common key",
                equi_query(3, 1_000),
                auto,
                vec![Counts; 3],
                vec![Postings; 3],
            ),
            // A satellite probe of a two-way star counts the anchor bucket.
            (
                "star m = 2",
                star2,
                auto,
                vec![Counts; 2],
                vec![Postings; 2],
            ),
            // Satellite probes walk the anchor's buckets as their root.
            (
                "star m = 4",
                star_query(),
                auto,
                vec![Postings, Counts, Counts, Counts],
                vec![Postings; 4],
            ),
            (
                "forced nested loop",
                equi_query(3, 1_000),
                nested,
                vec![],
                vec![],
            ),
            ("cross join", cross, auto, vec![], vec![]),
        ];
        for (name, query, strategy, counting, enumerating) in table {
            let m = query.arity();
            for (enumerate, kinds) in [(false, counting), (true, enumerating)] {
                // An empty row: the plan indexes no column at all.
                let expect: Vec<Option<IndexKind>> = match kinds.is_empty() {
                    true => vec![None; m],
                    false => kinds.into_iter().map(Some).collect(),
                };
                let op = MswjOperator::with_probe(query.clone(), strategy, enumerate);
                let got: Vec<_> = (0..m)
                    .map(|i| op.window(StreamIndex(i)).index_kind())
                    .collect();
                assert_eq!(got, expect, "{name}, enumerating: {enumerate}");
            }
        }
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
