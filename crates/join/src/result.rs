//! Join result tuples.

use mswj_types::{Timestamp, Tuple};
use std::fmt;

/// One m-way join result `⟨e_1, e_2, …, e_m⟩`.
///
/// The timestamp assigned to a result tuple is the maximum timestamp among
/// its deriving input tuples (Sec. I / II-A); under Alg. 2 that is always
/// the timestamp of the in-order tuple whose arrival triggered the probe.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinResult {
    /// Result timestamp (maximum of the deriving tuples' timestamps).
    pub ts: Timestamp,
    /// The deriving tuples, one per stream, in stream order.
    pub components: Vec<Tuple>,
}

impl JoinResult {
    /// Builds a result from its deriving tuples, computing the timestamp.
    pub fn new(components: Vec<Tuple>) -> Self {
        let ts = components
            .iter()
            .map(|t| t.ts)
            .max()
            .unwrap_or(Timestamp::ZERO);
        JoinResult { ts, components }
    }

    /// Number of deriving streams.
    pub fn arity(&self) -> usize {
        self.components.len()
    }
}

impl fmt::Display for JoinResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, t) in self.components.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "⟩@{}", self.ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mswj_types::{StreamIndex, Value};

    fn t(stream: usize, ts: u64, v: i64) -> Tuple {
        Tuple::new(
            StreamIndex(stream),
            0,
            Timestamp::from_millis(ts),
            vec![Value::Int(v)],
        )
    }

    #[test]
    fn timestamp_is_max_of_components() {
        let r = JoinResult::new(vec![t(0, 10, 1), t(1, 40, 1), t(2, 25, 1)]);
        assert_eq!(r.ts, Timestamp::from_millis(40));
        assert_eq!(r.arity(), 3);
        assert_eq!(r.components.get(1).unwrap().ts.as_millis(), 40);
        assert!(r.components.get(5).is_none());
    }

    #[test]
    fn empty_result_defaults_to_zero_timestamp() {
        let r = JoinResult::new(vec![]);
        assert_eq!(r.ts, Timestamp::ZERO);
        assert_eq!(r.arity(), 0);
    }

    #[test]
    fn display_mentions_components() {
        let r = JoinResult::new(vec![t(0, 10, 3), t(1, 20, 3)]);
        let s = r.to_string();
        assert!(s.contains("S1"));
        assert!(s.contains("S2"));
        assert!(s.contains("20ms"));
    }
}
