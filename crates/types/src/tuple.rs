//! Stream tuples and their delay annotations.
//!
//! A tuple `e_{i,j}` is the j-th arrival on stream `S_i`; it carries an
//! application timestamp `e.ts` and a vector of attribute values.  The
//! K-slack component later annotates each tuple with its observed delay
//! `delay(e) = iT - e.ts`, which the Tuple-Productivity Profiler uses to
//! learn the delay↔productivity correlation (Sec. IV-B).

use crate::stream::StreamIndex;
use crate::timestamp::{Duration, Timestamp};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A single stream tuple.
///
/// The attribute values are one shared `Arc<[Value]>` allocation — the
/// reference counts and the values side by side — so cloning a tuple while
/// it travels through K-slack buffers, the synchronizer and join windows
/// never re-allocates the payload, and reading an attribute follows one
/// pointer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tuple {
    /// The stream this tuple belongs to.
    pub stream: StreamIndex,
    /// Arrival sequence number within its stream (the `j` of `e_{i,j}`).
    pub seq: u64,
    /// Application timestamp assigned at the data source.
    pub ts: Timestamp,
    /// Attribute values (excluding the timestamp).
    values: Arc<[Value]>,
    /// Delay annotation `delay(e) = iT - e.ts`, filled in by the K-slack
    /// component when the tuple is first observed (Sec. IV-B).
    delay: Option<Duration>,
}

impl Tuple {
    /// Creates a tuple with the given stream, sequence number, timestamp and
    /// attribute values (moved into the tuple's one payload allocation).
    pub fn new(stream: StreamIndex, seq: u64, ts: Timestamp, values: Vec<Value>) -> Self {
        Tuple {
            stream,
            seq,
            ts,
            values: Arc::from(values),
            delay: None,
        }
    }

    /// Creates a tuple carrying no attributes (useful in unit tests that only
    /// exercise ordering logic).
    pub fn marker(stream: StreamIndex, seq: u64, ts: Timestamp) -> Self {
        Tuple::new(stream, seq, ts, Vec::new())
    }

    /// The attribute values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of live references to this tuple's attribute-value allocation
    /// (its own included).  A memory-accounting diagnostic: a tuple held by
    /// exactly one window and one caller reports 2; anything higher means
    /// some structure cloned the tuple rather than referencing its row.
    pub fn payload_refs(&self) -> usize {
        Arc::strong_count(&self.values)
    }

    /// The attribute at position `idx`, if present.
    pub fn value(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// The delay annotation, if the tuple has passed a K-slack component.
    pub fn delay(&self) -> Option<Duration> {
        self.delay
    }

    /// The delay annotation, defaulting to zero for unannotated tuples.
    pub fn delay_or_zero(&self) -> Duration {
        self.delay.unwrap_or(0)
    }

    /// Annotates the tuple with its observed delay (builder style).
    pub fn with_delay(mut self, delay: Duration) -> Self {
        self.delay = Some(delay);
        self
    }

    /// Annotates the tuple with its observed delay in place.
    pub fn set_delay(&mut self, delay: Duration) {
        self.delay = Some(delay);
    }

    /// Number of attribute values.
    pub fn arity(&self) -> usize {
        self.values.len()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}@{}(", self.stream, self.seq, self.ts)?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{FieldType, Schema};

    #[test]
    fn construction_and_accessors() {
        let t = Tuple::new(
            StreamIndex(1),
            3,
            Timestamp::from_millis(500),
            vec![Value::Int(7), Value::Float(0.25)],
        );
        assert_eq!(t.stream, StreamIndex(1));
        assert_eq!(t.seq, 3);
        assert_eq!(t.ts.as_millis(), 500);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.value(0), Some(&Value::Int(7)));
        assert_eq!(t.value(9), None);
        assert_eq!(t.delay(), None);
        assert_eq!(t.delay_or_zero(), 0);
    }

    #[test]
    fn delay_annotation() {
        let t = Tuple::marker(StreamIndex(0), 0, Timestamp::from_millis(10)).with_delay(250);
        assert_eq!(t.delay(), Some(250));
        assert_eq!(t.delay_or_zero(), 250);
        let mut t2 = Tuple::marker(StreamIndex(0), 1, Timestamp::ZERO);
        t2.set_delay(42);
        assert_eq!(t2.delay(), Some(42));
    }

    #[test]
    fn lookup_by_schema_name() {
        let schema = Schema::new(vec![("a1", FieldType::Int), ("x", FieldType::Float)]);
        let t = Tuple::new(
            StreamIndex(0),
            0,
            Timestamp::ZERO,
            vec![Value::Int(5), Value::Float(9.0)],
        );
        let x = schema.require("x").unwrap();
        assert_eq!(t.value(x), Some(&Value::Float(9.0)));
        assert!(schema.require("missing").is_err());
    }

    #[test]
    fn cloning_shares_payload() {
        let t = Tuple::new(
            StreamIndex(0),
            0,
            Timestamp::ZERO,
            vec![Value::Str("payload".into())],
        );
        let c = t.clone();
        assert!(Arc::ptr_eq(&t.values, &c.values));
    }

    #[test]
    fn display_contains_stream_and_values() {
        let t = Tuple::new(
            StreamIndex(0),
            0,
            Timestamp::from_millis(9),
            vec![Value::Int(3)],
        );
        let s = t.to_string();
        assert!(s.contains("S1"));
        assert!(s.contains("9ms"));
        assert!(s.contains('3'));
    }
}
