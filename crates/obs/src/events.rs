//! Bounded ring of recent structured runtime events.
//!
//! Checkpoints are *rare* (one per adaptation interval), so the ring may
//! lock a mutex and allocate its message strings — none of that touches the per-event
//! ingestion hot path.  The ring keeps the most recent
//! [`EVENT_RING_CAPACITY`] events; older ones fall off the front.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Maximum number of events retained by the ring.
pub const EVENT_RING_CAPACITY: usize = 128;

/// What kind of runtime transition an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A periodic adaptation checkpoint was taken.
    Checkpoint,
}

impl EventKind {
    /// Stable lower-snake identifier used by both exporters.
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            EventKind::Checkpoint => "checkpoint",
        }
    }
}

/// One structured runtime event.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryEvent {
    /// Arrival-axis timestamp of the transition, in milliseconds.
    pub at_ms: u64,
    /// Transition category.
    pub kind: EventKind,
    /// Human-readable one-line description.
    pub message: String,
}

/// The bounded ring itself (interior-mutable, shared behind `Telemetry`).
#[derive(Debug, Default)]
pub(crate) struct EventRing {
    events: Mutex<VecDeque<TelemetryEvent>>,
}

impl EventRing {
    pub(crate) fn push(&self, event: TelemetryEvent) {
        let mut ring = self.events.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == EVENT_RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    pub(crate) fn snapshot(&self) -> Vec<TelemetryEvent> {
        let ring = self.events.lock().unwrap_or_else(|e| e.into_inner());
        ring.iter().cloned().collect()
    }

    pub(crate) fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> TelemetryEvent {
        TelemetryEvent {
            at_ms: i,
            kind: EventKind::Checkpoint,
            message: format!("event {i}"),
        }
    }

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let ring = EventRing::default();
        for i in 0..(EVENT_RING_CAPACITY as u64 + 10) {
            ring.push(ev(i));
        }
        let events = ring.snapshot();
        assert_eq!(events.len(), EVENT_RING_CAPACITY);
        assert_eq!(events.first().unwrap().at_ms, 10);
        assert_eq!(events.last().unwrap().at_ms, EVENT_RING_CAPACITY as u64 + 9);
    }

    #[test]
    fn kinds_have_stable_identifiers() {
        assert_eq!(EventKind::Checkpoint.as_str(), "checkpoint");
    }
}
