//! Event sinks: where a running session delivers its output.
//!
//! A [`Sink`] is the receiving end of the pipeline's event-driven hot path:
//! [`Pipeline::push_into`](crate::Pipeline::push_into) and
//! [`Pipeline::finish_into`](crate::Pipeline::finish_into) hand every
//! [`OutputEvent`] to the sink as it happens, instead of materializing a
//! `Vec` of results per push.  Because events borrow from the pipeline, a
//! counting session's hot path performs **no per-event heap allocation** —
//! the property the `zero_alloc` integration test asserts.
//!
//! Three sinks ship with the crate — [`CountingSink`] (tallies events),
//! [`CollectSink`] (clones results and checkpoints for inspection) and
//! [`NullSink`] (discards everything) — plus [`sink_fn`] to adapt a closure.
//!
//! # Examples
//!
//! ```
//! use mswj_core::{sink_fn, OutputEvent, Sink};
//! use mswj_types::Timestamp;
//!
//! let mut watermarks = Vec::new();
//! let mut sink = sink_fn(|ev| {
//!     if let OutputEvent::Progress(ts) = ev {
//!         watermarks.push(ts);
//!     }
//! });
//! sink.event(OutputEvent::Progress(Timestamp::from_millis(100)));
//! sink.event(OutputEvent::Progress(Timestamp::from_millis(250)));
//! drop(sink);
//! assert_eq!(watermarks.len(), 2);
//! ```

use crate::output::{Checkpoint, OutputEvent};
use mswj_join::JoinResult;
use mswj_types::Timestamp;

/// The receiving end of a session's event stream.
///
/// Implementations must be cheap: `event` is called on the pipeline's hot
/// path, once per output event, with a borrowed payload.
pub trait Sink {
    /// Handles one output event.
    fn event(&mut self, ev: OutputEvent<'_>);
}

impl<S: Sink + ?Sized> Sink for &mut S {
    fn event(&mut self, ev: OutputEvent<'_>) {
        (**self).event(ev)
    }
}

/// A sink that discards every event — the counting hot path in its purest
/// form ([`Pipeline::push`](crate::Pipeline::push) uses it internally).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn event(&mut self, _ev: OutputEvent<'_>) {}
}

/// A sink that tallies events without keeping any payload — zero allocation
/// by construction.
#[derive(Debug, Clone, Copy, Default)]
#[must_use = "a CountingSink's tallies are its whole point; inspect them after the run"]
pub struct CountingSink {
    /// Number of [`OutputEvent::Result`] events received.
    pub results: u64,
    /// Number of [`OutputEvent::Checkpoint`] events received.
    pub checkpoints: u64,
    /// Number of [`OutputEvent::KChanged`] events received.
    pub k_changes: u64,
    /// The latest watermark seen via [`OutputEvent::Progress`], if any.
    pub last_progress: Option<Timestamp>,
}

impl Sink for CountingSink {
    fn event(&mut self, ev: OutputEvent<'_>) {
        match ev {
            OutputEvent::Result(_) => self.results += 1,
            OutputEvent::Checkpoint(_) => self.checkpoints += 1,
            OutputEvent::KChanged { .. } => self.k_changes += 1,
            OutputEvent::Progress(ts) => self.last_progress = Some(ts),
        }
    }
}

/// A sink that clones every result and checkpoint for later inspection.
///
/// Intended for tests, examples and small workloads — cloning a
/// [`JoinResult`] copies its component tuples.
#[derive(Debug, Clone, Default)]
#[must_use = "a CollectSink's collected results are its whole point; inspect them after the run"]
pub struct CollectSink {
    /// Every materialized join result, in emission order.
    pub results: Vec<JoinResult>,
    /// Every checkpoint, in emission order.
    pub checkpoints: Vec<Checkpoint>,
}

impl Sink for CollectSink {
    fn event(&mut self, ev: OutputEvent<'_>) {
        match ev {
            OutputEvent::Result(r) => self.results.push(r.clone()),
            OutputEvent::Checkpoint(c) => self.checkpoints.push(*c),
            OutputEvent::KChanged { .. } | OutputEvent::Progress(_) => {}
        }
    }
}

/// A [`Sink`] backed by a closure; build one with [`sink_fn`].
#[derive(Debug, Clone)]
pub struct FnSink<F>(F);

impl<F: FnMut(OutputEvent<'_>)> Sink for FnSink<F> {
    fn event(&mut self, ev: OutputEvent<'_>) {
        (self.0)(ev)
    }
}

/// Adapts a closure into a [`Sink`]:
/// `sink_fn(|ev| ...)` handles each [`OutputEvent`] inline.
pub fn sink_fn<F: FnMut(OutputEvent<'_>)>(f: F) -> FnSink<F> {
    FnSink(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mswj_types::{StreamIndex, Timestamp, Tuple};

    fn checkpoint(k: u64) -> Checkpoint {
        Checkpoint::baseline(
            Timestamp::from_millis(1_000),
            Timestamp::from_millis(990),
            k,
        )
    }

    fn result() -> JoinResult {
        JoinResult::new(vec![
            Tuple::marker(StreamIndex(0), 0, Timestamp::from_millis(10)),
            Tuple::marker(StreamIndex(1), 0, Timestamp::from_millis(20)),
        ])
    }

    #[test]
    fn counting_sink_tallies_every_kind() {
        let mut s = CountingSink::default();
        let r = result();
        let cp = checkpoint(50);
        s.event(OutputEvent::Result(&r));
        s.event(OutputEvent::Result(&r));
        s.event(OutputEvent::Checkpoint(&cp));
        s.event(OutputEvent::KChanged {
            stream: StreamIndex(0),
            old: 0,
            new: 50,
        });
        s.event(OutputEvent::Progress(Timestamp::from_millis(123)));
        assert_eq!(s.results, 2);
        assert_eq!(s.checkpoints, 1);
        assert_eq!(s.k_changes, 1);
        assert_eq!(s.last_progress, Some(Timestamp::from_millis(123)));
    }

    #[test]
    fn collect_sink_keeps_results_and_checkpoints() {
        let mut s = CollectSink::default();
        let r = result();
        s.event(OutputEvent::Result(&r));
        s.event(OutputEvent::Checkpoint(&checkpoint(75)));
        s.event(OutputEvent::Progress(Timestamp::from_millis(1)));
        assert_eq!(s.results.len(), 1);
        assert_eq!(s.results[0], r);
        assert_eq!(s.checkpoints.len(), 1);
        assert_eq!(s.checkpoints[0].k, 75);
    }

    #[test]
    fn null_sink_and_mut_ref_forwarding() {
        fn accepts_any_sink(sink: &mut impl Sink) {
            sink.event(OutputEvent::Progress(Timestamp::from_millis(9)));
        }
        let mut inner = CountingSink::default();
        accepts_any_sink(&mut &mut inner); // &mut S forwards to S
        assert_eq!(inner.last_progress, Some(Timestamp::from_millis(9)));
        NullSink.event(OutputEvent::Progress(Timestamp::from_millis(1)));
    }

    #[test]
    fn fn_sink_invokes_closure() {
        let mut seen = 0u32;
        {
            let mut s = sink_fn(|_| seen += 1);
            s.event(OutputEvent::Progress(Timestamp::from_millis(5)));
            s.event(OutputEvent::Progress(Timestamp::from_millis(6)));
        }
        assert_eq!(seen, 2);
    }
}
