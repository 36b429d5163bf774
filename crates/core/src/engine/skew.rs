//! Runtime skew detection for the sharded join stage.
//!
//! Hash routing sends a key class's entire build state *and* probe work to
//! one shard, so a Zipf hot key degrades an `n`-shard engine to one shard.
//! The `SkewDetector` watches the key classes flowing through the
//! sequential routing front and decides — only at epoch barriers, where no
//! shard work is in flight — which classes to switch to *replicated-build /
//! split-probe* routing and which to revert.
//!
//! Detection is **windowed**: every evaluation looks at the traffic since
//! the previous evaluation, not at lifetime counters, so a hot key that
//! emerges late is still caught (lifetime shares would dilute it into
//! invisibility).  A window only counts once it holds at least
//! [`SkewConfig::min_routed`] observations; thinner windows are carried
//! forward so sparse traffic accumulates evidence instead of resetting it.
//!
//! Per-window key shares come from a deterministic *space-saving* sketch
//! over [`join_key_hash`](mswj_join::join_key_hash) classes: bounded
//! memory, at most `capacity` tracked classes, and an overestimate of at
//! most `window / capacity` per class — far below the split threshold, so
//! no splittable key is ever missed and only keys already near the
//! threshold could be overestimated into a split (which is safe, just
//! eager).  All tie-breaks are positional, so two engines fed the same
//! tuple sequence make byte-identical decisions — the backbone of the
//! cross-backend differential contract.
//!
//! Hysteresis keeps routing from flapping: a class splits above
//! [`SkewConfig::split_share`] and only reverts below the strictly smaller
//! [`SkewConfig::unsplit_share`].

use super::JoinEngine;
use mswj_join::RoutingTable;
use mswj_obs::EventKind;
use mswj_types::Timestamp;
use std::collections::HashMap;

/// Thresholds of the adaptive hot-key splitting detector, set through
/// `SessionBuilder::skew_splitting` /
/// `SessionBuilder::skew_splitting_with`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewConfig {
    /// A key class whose share of the evaluation window's routed traffic
    /// exceeds this splits (replicated build / split probe).  Default 0.5:
    /// the windowed analogue of the heavy-hitter majority warning.
    pub split_share: f64,
    /// A split key class whose windowed share falls below this reverts to
    /// plain hash routing.  Must be strictly below
    /// [`split_share`](SkewConfig::split_share) — the gap is the hysteresis
    /// band that keeps borderline keys from flapping.  Default 0.25.
    pub unsplit_share: f64,
    /// Minimum routed observations before a window is judged at all;
    /// thinner windows carry forward to the next barrier.  Default 1024.
    pub min_routed: u64,
}

impl Default for SkewConfig {
    fn default() -> Self {
        SkewConfig {
            split_share: 0.5,
            unsplit_share: 0.25,
            min_routed: 1_024,
        }
    }
}

impl SkewConfig {
    /// Validates the thresholds: shares must satisfy
    /// `0 < unsplit_share < split_share <= 1` and `min_routed` must be
    /// positive.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.split_share > 0.0 && self.split_share <= 1.0) {
            return Err(format!(
                "skew split_share must be in (0, 1], got {}",
                self.split_share
            ));
        }
        if !(self.unsplit_share > 0.0 && self.unsplit_share < self.split_share) {
            return Err(format!(
                "skew unsplit_share must be in (0, split_share): got {} against {}",
                self.unsplit_share, self.split_share
            ));
        }
        if self.min_routed == 0 {
            return Err("skew min_routed must be at least 1".into());
        }
        Ok(())
    }
}

/// One routing transition taken by the skew detector, in decision order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewTransition {
    /// The [`join_key_hash`](mswj_join::join_key_hash) class that changed
    /// routing.
    pub key_hash: u64,
    /// `true` → the class switched to replicated-build / split-probe;
    /// `false` → it reverted to plain hash routing.
    pub split: bool,
    /// The class's share of the evaluation window that triggered the
    /// transition.
    pub share: f64,
    /// The engine's global high-water mark `onT` at the decision barrier.
    pub at: Timestamp,
}

/// Key classes with the windowed share that triggered their transition.
type ClassShares = Vec<(u64, f64)>;

/// Tracked classes of the space-saving sketch: enough room that a class
/// at any realistic split threshold cannot be evicted, tiny enough that
/// the eviction scan is cheap.
const SKETCH_CAPACITY: usize = 64;

/// Windowed top-key detector: a space-saving sketch per evaluation window
/// plus the hysteresis rules of [`SkewConfig`].
#[derive(Debug)]
pub(super) struct SkewDetector {
    config: SkewConfig,
    /// `(key class, windowed count)`, positionally stable so eviction
    /// tie-breaks are deterministic.
    entries: Vec<(u64, u64)>,
    /// Key class → index into `entries`.
    index: HashMap<u64, usize>,
    /// Observations in the current window (tracked or not).
    window: u64,
}

impl SkewDetector {
    pub(super) fn new(config: SkewConfig) -> Self {
        debug_assert!(config.validate().is_ok(), "unvalidated skew config");
        SkewDetector {
            config,
            entries: Vec::with_capacity(SKETCH_CAPACITY),
            index: HashMap::with_capacity(SKETCH_CAPACITY),
            window: 0,
        }
    }

    pub(super) fn config(&self) -> SkewConfig {
        self.config
    }

    /// Records one routed key-class observation (space-saving update).
    pub(super) fn observe(&mut self, hash: u64) {
        self.window += 1;
        if let Some(&at) = self.index.get(&hash) {
            self.entries[at].1 += 1;
            return;
        }
        if self.entries.len() < SKETCH_CAPACITY {
            self.index.insert(hash, self.entries.len());
            self.entries.push((hash, 1));
            return;
        }
        // Replace the first minimal entry, inheriting its count — the
        // classic space-saving overestimate, bounded by window / capacity.
        let (at, _) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, count))| *count)
            .expect("sketch is non-empty at capacity");
        let (old, count) = self.entries[at];
        self.index.remove(&old);
        self.index.insert(hash, at);
        self.entries[at] = (hash, count + 1);
    }

    /// Observations accumulated in the current window.
    #[cfg(test)]
    pub(super) fn window_total(&self) -> u64 {
        self.window
    }

    /// Judges the current window against `table`: returns the classes to
    /// split and to unsplit, each with the windowed share that triggered
    /// it.  The caller applies the transitions and then calls
    /// [`SkewDetector::reset`]; the decision order is deterministic
    /// (sketch insertion order for splits, sorted class order for
    /// unsplits).
    pub(super) fn evaluate(&self, table: &RoutingTable) -> (ClassShares, ClassShares) {
        let total = self.window as f64;
        let share_of = |hash: u64| -> f64 {
            self.index
                .get(&hash)
                .map(|&at| self.entries[at].1 as f64 / total)
                .unwrap_or(0.0)
        };
        let to_split = self
            .entries
            .iter()
            .filter(|(hash, count)| {
                !table.is_split(*hash) && *count as f64 / total > self.config.split_share
            })
            .map(|&(hash, count)| (hash, count as f64 / total))
            .collect();
        let to_unsplit = table
            .split_classes()
            .iter()
            .filter(|&&hash| share_of(hash) < self.config.unsplit_share)
            .map(|&hash| (hash, share_of(hash)))
            .collect();
        (to_split, to_unsplit)
    }

    /// Starts a fresh evaluation window.
    pub(super) fn reset(&mut self) {
        self.entries.clear();
        self.index.clear();
        self.window = 0;
    }
}

/// The skew driver: what the engine does with the detector's verdicts at an
/// idle barrier.  Lives here, next to the detector, as an `impl` block on
/// the engine (a child module sees its parent's private fields).
impl JoinEngine {
    /// The shard holding the majority of the routed events in the current
    /// *detection window*, if any — `Some(s)` once shard `s` has received
    /// more than half of the (at least 1 024, or the configured
    /// [`SkewConfig::min_routed`]) items routed since the last
    /// [`JoinEngine::sync`] barrier that closed a window.
    ///
    /// Windowed, not lifetime: a hot key that emerges after a long balanced
    /// phase still trips this, because earlier balanced traffic was retired
    /// with its window.  A warning is logged when a window closes on a
    /// heavy hitter and re-arms once a window comes back balanced, so a
    /// *new* hot shard is reported even late in a run.
    pub fn heavy_hitter(&self) -> Option<usize> {
        if self.shard_count() <= 1 {
            return None;
        }
        let total = self.windowed_total();
        if total < self.skew_min_routed() {
            return None;
        }
        let s = (0..self.runtime.len()).max_by_key(|&s| self.windowed(s))?;
        (self.windowed(s) * 2 > total).then_some(s)
    }

    /// Items routed to shard `s` in the open detection window.
    fn windowed(&self, s: usize) -> u64 {
        self.runtime[s].routed - self.hh_base[s]
    }

    /// Items routed to all shards in the open detection window.
    fn windowed_total(&self) -> u64 {
        (0..self.runtime.len()).map(|s| self.windowed(s)).sum()
    }

    /// The evidence floor of the skew-detection window: the configured
    /// [`SkewConfig::min_routed`] when splitting is armed, its default
    /// otherwise.
    fn skew_min_routed(&self) -> u64 {
        self.detector
            .as_ref()
            .map_or(SkewConfig::default().min_routed, |d| d.config().min_routed)
    }

    /// Closes the current skew-detection window if it holds enough
    /// evidence: logs/re-arms the heavy-hitter warning and, when splitting
    /// is armed, applies the detector's split/unsplit transitions —
    /// migrating or purging the affected key classes' build state.  Runs
    /// from `JoinEngine::at_idle_barrier` only.
    pub(super) fn evaluate_skew(&mut self) {
        if self.shard_count() <= 1 {
            return;
        }
        if self.windowed_total() < self.skew_min_routed() {
            return; // Too thin to judge: carry the window forward.
        }
        self.note_heavy_hitter();
        if self.detector.is_some() {
            self.apply_split_transitions();
        }
        // Start a fresh window.
        for s in 0..self.runtime.len() {
            self.hh_base[s] = self.runtime[s].routed;
        }
        if let Some(det) = &mut self.detector {
            det.reset();
        }
    }

    /// Reports the heavy-hitter warning when the closing window put a
    /// majority of its routed events on one shard; re-arms when a window
    /// comes back balanced, so a late-emerging hot key is reported even
    /// after an earlier warning.
    ///
    /// With telemetry attached the warning goes through the structured
    /// event ring (and its optional callback) — embedding applications are
    /// never written to on stderr.  Without telemetry the warning goes to
    /// stderr (the signal stays available through
    /// [`JoinEngine::heavy_hitter`] and the per-shard `routed` counters
    /// either way).
    fn note_heavy_hitter(&mut self) {
        let Some(s) = self.heavy_hitter() else {
            self.hh_warned = None;
            return;
        };
        if self.hh_warned == Some(s) {
            return;
        }
        self.hh_warned = Some(s);
        let (held, total) = (self.windowed(s), self.windowed_total());
        let hint = if self.detector.is_some() {
            "hot-key splitting is armed and will redistribute it"
        } else {
            "consider arming skew_splitting() on the session builder"
        };
        let message = format!(
            "heavy hitter detected — shard {s} took {held} of {total} routed \
             events (> 50%) in the current detection window; the key distribution \
             pins this shard's bucket, {hint}"
        );
        if self.telemetry.is_some() {
            self.telemetry_event(EventKind::HeavyHitter, message);
        } else {
            eprintln!("mswj: {message}");
        }
    }

    /// Applies the detector's verdict on the closing window: reverts split
    /// classes that went cold (purging their replicas), then splits new hot
    /// classes (replicating their build state), recording every transition.
    fn apply_split_transitions(&mut self) {
        let det = self.detector.as_ref().expect("caller checked");
        let (to_split, to_unsplit) = det.evaluate(&self.table);
        for (hash, share) in to_unsplit {
            if self.table.unsplit(hash) {
                self.purge_replicas(hash);
                self.record_skew_transition(hash, false, share);
            }
        }
        for (hash, share) in to_split {
            if self.table.split(hash) {
                self.replicate_build_state(hash);
                self.record_skew_transition(hash, true, share);
            }
        }
    }

    fn record_skew_transition(&mut self, key_hash: u64, split: bool, share: f64) {
        let at = self.on_t;
        self.transitions.push(SkewTransition {
            key_hash,
            split,
            share,
            at,
        });
        let (kind, what) = if split {
            let what = "switched to replicated-build / split-probe routing";
            (EventKind::SkewSplit, what)
        } else {
            (EventKind::SkewUnsplit, "went cold; replicas purged")
        };
        self.telemetry_event(
            kind,
            format!("key class {key_hash:#018x} (share {share:.3}) {what}"),
        );
    }

    /// Copies the live build state of key class `hash` from its home shard
    /// into every other shard, so any shard can answer a split probe with
    /// the full class.  Runs at a barrier; copies are *adopted* (no
    /// operator statistics) and land in timestamp order, so replica windows
    /// enumerate the class exactly as the home shard does.
    fn replicate_build_state(&mut self, hash: u64) {
        let n = self.shard_count();
        let home = self.partitioner.home_shard(hash);
        for i in 0..self.query.arity() {
            let Some(col) = self.partitioner.column(i) else {
                // supports_splitting() guarantees key-routed streams.
                debug_assert!(false, "split routing requires key-routed streams");
                continue;
            };
            let class = self.shards.fetch_class(home, i, col, hash);
            if class.is_empty() {
                continue;
            }
            for s in (0..n).filter(|&s| s != home) {
                self.shards.adopt(s, &class);
            }
        }
    }

    /// Removes the replicated build state of key class `hash` from every
    /// non-home shard.  The home shard keeps the full class (it received
    /// every fan-out insert), so plain hash routing resumes losslessly —
    /// and a later re-split starts from replica-free shards, which is what
    /// keeps re-replication from duplicating state.
    fn purge_replicas(&mut self, hash: u64) {
        let n = self.shard_count();
        let home = self.partitioner.home_shard(hash);
        for s in (0..n).filter(|&s| s != home) {
            for i in 0..self.query.arity() {
                let Some(col) = self.partitioner.column(i) else {
                    continue;
                };
                self.shards.purge_class(s, i, col, hash);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates_and_bad_ones_do_not() {
        assert!(SkewConfig::default().validate().is_ok());
        let c = SkewConfig {
            split_share: 1.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = SkewConfig {
            unsplit_share: SkewConfig::default().split_share,
            ..Default::default()
        };
        assert!(c.validate().is_err(), "hysteresis band must be non-empty");
        let c = SkewConfig {
            min_routed: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn hot_keys_split_and_revert_with_hysteresis() {
        let mut det = SkewDetector::new(SkewConfig {
            split_share: 0.5,
            unsplit_share: 0.25,
            min_routed: 16,
        });
        let mut table = RoutingTable::new();
        // 60% of the window on one class: split.
        for i in 0..100u64 {
            det.observe(if i % 10 < 6 { 7 } else { 1_000 + i });
        }
        let (split, unsplit) = det.evaluate(&table);
        assert_eq!(split.len(), 1);
        assert_eq!(split[0].0, 7);
        assert!(split[0].1 > 0.5);
        assert!(unsplit.is_empty());
        table.split(7);
        det.reset();
        // 40% next window: inside the hysteresis band, no transition.
        for i in 0..100u64 {
            det.observe(if i % 10 < 4 { 7 } else { 1_000 + i });
        }
        let (split, unsplit) = det.evaluate(&table);
        assert!(split.is_empty() && unsplit.is_empty(), "hysteresis holds");
        det.reset();
        // 10% next window: revert.
        for i in 0..100u64 {
            det.observe(if i % 10 < 1 { 7 } else { 1_000 + i });
        }
        let (split, unsplit) = det.evaluate(&table);
        assert!(split.is_empty());
        assert_eq!(unsplit, vec![(7, 0.1)]);
    }

    #[test]
    fn sketch_eviction_keeps_heavy_classes() {
        let mut det = SkewDetector::new(SkewConfig::default());
        // A flood of distinct cold classes around one hot class: the hot
        // class must survive eviction with a near-exact count.
        for i in 0..10_000u64 {
            det.observe(if i % 2 == 0 { 42 } else { 1_000 + i });
        }
        let table = RoutingTable::new();
        let (split, _) = det.evaluate(&table);
        assert_eq!(det.window_total(), 10_000);
        assert!(
            split.is_empty(),
            "a 50% class must not exceed the 0.5 split threshold: {split:?}"
        );
        let mut det = SkewDetector::new(SkewConfig {
            split_share: 0.4,
            unsplit_share: 0.2,
            min_routed: 16,
        });
        for i in 0..10_000u64 {
            det.observe(if i % 2 == 0 { 42 } else { 1_000 + i });
        }
        let (split, _) = det.evaluate(&table);
        assert_eq!(split.len(), 1, "the hot class must survive the sketch");
        assert_eq!(split[0].0, 42);
    }
}
