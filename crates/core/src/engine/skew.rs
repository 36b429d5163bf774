//! Heavy-hitter detection for the sharded join stage — observability only.
//!
//! Hash routing sends a key class's entire build state *and* probe work to
//! its home shard for the whole session, so a Zipf hot key concentrates
//! an `n`-shard engine's work on one shard.  The engine does not move key
//! classes; it reports the imbalance.
//!
//! Detection is **windowed**: every evaluation looks at the per-shard
//! routing volume since the previous evaluation, not at lifetime counters,
//! so a hot key that emerges late is still caught (lifetime shares would
//! dilute it into invisibility).  A window only counts once it holds at
//! least [`MIN_ROUTED`] routed items; thinner windows are carried forward
//! so sparse traffic accumulates evidence instead of resetting it.

use super::JoinEngine;
use mswj_obs::EventKind;

/// Minimum routed items before a detection window is judged at all;
/// thinner windows carry forward to the next barrier.
const MIN_ROUTED: u64 = 1_024;

impl JoinEngine {
    /// The shard holding the majority of the routed events in the current
    /// *detection window*, if any — `Some(s)` once shard `s` has received
    /// more than half of the (at least 1 024) items routed since the last
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
        if total < MIN_ROUTED {
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

    /// Closes the current detection window if it holds enough evidence:
    /// reports the heavy-hitter warning when the window put a majority of
    /// its routed events on one shard, re-arms when a window comes back
    /// balanced (so a late-emerging hot key is reported even after an
    /// earlier warning), and starts a fresh window.  Runs from
    /// `JoinEngine::at_idle_barrier` only.
    ///
    /// With telemetry attached the warning goes through the structured
    /// event ring (and its optional callback) — embedding applications are
    /// never written to on stderr.  Without telemetry the warning goes to
    /// stderr (the signal stays available through
    /// [`JoinEngine::heavy_hitter`] and the per-shard `routed` counters
    /// either way).
    pub(super) fn note_heavy_hitter(&mut self) {
        if self.shard_count() <= 1 || self.windowed_total() < MIN_ROUTED {
            return; // Too thin to judge: carry the window forward.
        }
        let hot = self.heavy_hitter();
        if hot != self.hh_warned {
            self.hh_warned = hot;
            if let Some(s) = hot {
                let (held, total) = (self.windowed(s), self.windowed_total());
                let message = format!(
                    "heavy hitter detected — shard {s} took {held} of {total} routed \
                     events (> 50%) in the current detection window; the key \
                     distribution pins this shard's bucket"
                );
                if self.telemetry.is_some() {
                    self.telemetry_event(EventKind::HeavyHitter, message);
                } else {
                    eprintln!("mswj: {message}");
                }
            }
        }
        for s in 0..self.runtime.len() {
            self.hh_base[s] = self.runtime[s].routed;
        }
    }
}
