//! Join query description: streams, windows and the join condition.

use crate::condition::JoinCondition;
use crate::window::{DEFAULT_SEGMENT_ROWS, MAX_SEGMENT_ROWS};
use mswj_types::{Duration, Result, StreamIndex, StreamSet};
use std::sync::Arc;

/// A complete m-way sliding window join query: the input streams with their
/// window sizes plus the join condition `p_on`.
///
/// `JoinQuery` is cheap to clone; operators, pipelines and experiment
/// harnesses all hold one.
#[derive(Clone)]
pub struct JoinQuery {
    streams: StreamSet,
    condition: Arc<dyn JoinCondition>,
    name: String,
    /// Arena rows a window's tail segment absorbs before it seals.
    segment_capacity: usize,
}

impl std::fmt::Debug for JoinQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinQuery")
            .field("name", &self.name)
            .field("arity", &self.streams.arity())
            .field("windows", &self.streams.windows())
            .field("condition", &self.condition.describe())
            .finish()
    }
}

impl JoinQuery {
    /// Builds a query; the condition's arity must match the stream count.
    pub fn new(
        name: impl Into<String>,
        streams: StreamSet,
        condition: Arc<dyn JoinCondition>,
    ) -> Result<Self> {
        if condition.arity() != streams.arity() {
            return Err(mswj_types::Error::InvalidConfig(format!(
                "join condition arity {} does not match stream count {}",
                condition.arity(),
                streams.arity()
            )));
        }
        Ok(JoinQuery {
            streams,
            condition,
            name: name.into(),
            segment_capacity: DEFAULT_SEGMENT_ROWS,
        })
    }

    /// Sets the most rows a window segment absorbs before it seals
    /// (default 1 024; values below 2 are clamped to 2, values above
    /// 2³¹ to 2³¹).  It is an upper bound: a sliding window seals its tail
    /// earlier, once the tail has expired a row and holds as many rows as
    /// the window holds live (64 at the least), so that expired rows pin
    /// about one window's worth of memory.  Every operator built from this
    /// query, on every shard of every backend, stores its windows under
    /// this bound.  It changes the storage layout only, never a result:
    /// tests set a tiny capacity so that ordinary workloads cross segment
    /// boundaries.
    pub fn with_segment_capacity(mut self, capacity: usize) -> Self {
        self.segment_capacity = capacity.clamp(2, MAX_SEGMENT_ROWS);
        self
    }

    /// The most rows a window segment absorbs before it seals (see
    /// [`JoinQuery::with_segment_capacity`]).
    pub fn segment_capacity(&self) -> usize {
        self.segment_capacity
    }

    /// The query name (used in experiment reports, e.g. `"Qx3"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The input streams.
    pub fn streams(&self) -> &StreamSet {
        &self.streams
    }

    /// Number of input streams `m`.
    pub fn arity(&self) -> usize {
        self.streams.arity()
    }

    /// The join condition.
    pub fn condition(&self) -> &Arc<dyn JoinCondition> {
        &self.condition
    }

    /// The window size of stream `i`.
    pub fn window(&self, i: StreamIndex) -> Duration {
        self.streams
            .window(i)
            .expect("stream index validated at construction")
    }

    /// All window sizes in stream order.
    pub fn windows(&self) -> Vec<Duration> {
        self.streams.windows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::{CommonKeyEquiJoin, CrossJoin};
    use mswj_types::{FieldType, Schema, StreamSet};

    fn streams(m: usize) -> StreamSet {
        StreamSet::homogeneous(m, Schema::new(vec![("a1", FieldType::Int)]), 5_000).unwrap()
    }

    #[test]
    fn query_construction_checks_arity() {
        let s = streams(3);
        let cond = Arc::new(CrossJoin::new(2));
        assert!(JoinQuery::new("bad", s.clone(), cond).is_err());
        let cond = Arc::new(CrossJoin::new(3));
        let q = JoinQuery::new("ok", s, cond).unwrap();
        assert_eq!(q.arity(), 3);
        assert_eq!(q.name(), "ok");
        assert_eq!(q.windows(), vec![5_000; 3]);
        assert_eq!(q.window(StreamIndex(1)), 5_000);
        assert!(format!("{q:?}").contains("cross"));
    }

    #[test]
    fn query_exposes_condition() {
        let s = streams(2);
        let cond = Arc::new(CommonKeyEquiJoin::new(&s, "a1").unwrap());
        let q = JoinQuery::new("q", s, cond).unwrap();
        assert!(q.condition().equi_structure().is_some());
        assert_eq!(q.streams().arity(), 2);
    }
}
