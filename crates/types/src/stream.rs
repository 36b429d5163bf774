//! Stream identities and per-query stream metadata.
//!
//! An m-way sliding window join has `m ≥ 2` input streams `S_1 … S_m`, each
//! with its own schema and user-specified window size `W_i` (Sec. II-A).
//! [`StreamSpec`] captures that per-stream metadata and [`StreamSet`] the
//! full query-side view of all inputs.

use crate::timestamp::Duration;
use crate::value::Schema;
use crate::{Error, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of an input stream within a query (`0 ..= m-1`).
///
/// The paper numbers streams `S_1 … S_m`; we use zero-based indices
/// internally and render them one-based in [`fmt::Display`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct StreamIndex(pub usize);

impl StreamIndex {
    /// Returns the underlying zero-based index.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0
    }
}

impl fmt::Display for StreamIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0 + 1)
    }
}

impl From<usize> for StreamIndex {
    fn from(i: usize) -> Self {
        StreamIndex(i)
    }
}

/// Static description of one input stream of an MSWJ query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamSpec {
    /// Human-readable stream name (`"S1"`, `"team_a"`, …).
    pub name: String,
    /// Schema of the non-timestamp attributes.
    pub schema: Schema,
    /// User-specified sliding window size `W_i` in milliseconds.
    pub window: Duration,
}

impl StreamSpec {
    /// Creates a stream description.
    pub fn new(name: impl Into<String>, schema: Schema, window: Duration) -> Self {
        StreamSpec {
            name: name.into(),
            schema,
            window,
        }
    }
}

/// The ordered collection of all input streams of one query.
///
/// # Examples
///
/// ```
/// use mswj_types::{StreamSet, StreamSpec, Schema, FieldType};
/// let set = StreamSet::new(vec![
///     StreamSpec::new("S1", Schema::new(vec![("a1", FieldType::Int)]), 5_000),
///     StreamSpec::new("S2", Schema::new(vec![("a1", FieldType::Int)]), 5_000),
/// ]).unwrap();
/// assert_eq!(set.arity(), 2);
/// assert_eq!(set.window(0.into()).unwrap(), 5_000);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamSet {
    specs: Vec<StreamSpec>,
}

impl StreamSet {
    /// Builds a stream set; a join needs at least two input streams with
    /// pairwise-distinct names.
    pub fn new(specs: Vec<StreamSpec>) -> Result<Self> {
        if specs.len() < 2 {
            return Err(Error::InvalidConfig(format!(
                "an m-way join needs at least 2 input streams, got {}",
                specs.len()
            )));
        }
        for (i, a) in specs.iter().enumerate() {
            if specs[..i].iter().any(|b| b.name == a.name) {
                return Err(Error::InvalidConfig(format!(
                    "duplicate stream name `{}`",
                    a.name
                )));
            }
        }
        Ok(StreamSet { specs })
    }

    /// Builds a stream set of `m` identical streams, convenient for tests and
    /// synthetic workloads.
    pub fn homogeneous(m: usize, schema: Schema, window: Duration) -> Result<Self> {
        StreamSet::new(
            (0..m)
                .map(|i| StreamSpec::new(format!("S{}", i + 1), schema.clone(), window))
                .collect(),
        )
    }

    /// Number of input streams `m`.
    pub fn arity(&self) -> usize {
        self.specs.len()
    }

    /// The specification of stream `i`.
    pub fn spec(&self, i: StreamIndex) -> Result<&StreamSpec> {
        self.specs.get(i.as_usize()).ok_or(Error::UnknownStream {
            index: i.as_usize(),
            streams: self.specs.len(),
        })
    }

    /// The window size `W_i` of stream `i`.
    pub fn window(&self, i: StreamIndex) -> Result<Duration> {
        Ok(self.spec(i)?.window)
    }

    /// All window sizes in stream order.
    pub fn windows(&self) -> Vec<Duration> {
        self.specs.iter().map(|s| s.window).collect()
    }

    /// Iterates over `(index, spec)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (StreamIndex, &StreamSpec)> + '_ {
        self.specs
            .iter()
            .enumerate()
            .map(|(i, s)| (StreamIndex(i), s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::FieldType;

    fn schema() -> Schema {
        Schema::new(vec![("a1", FieldType::Int)])
    }

    #[test]
    fn stream_index_display_is_one_based() {
        assert_eq!(StreamIndex(0).to_string(), "S1");
        assert_eq!(StreamIndex(3).to_string(), "S4");
        assert_eq!(StreamIndex::from(2).as_usize(), 2);
    }

    #[test]
    fn stream_set_requires_two_streams() {
        let err = StreamSet::new(vec![StreamSpec::new("S1", schema(), 100)]);
        assert!(err.is_err());
        let ok = StreamSet::homogeneous(2, schema(), 100);
        assert!(ok.is_ok());
    }

    #[test]
    fn stream_set_rejects_duplicate_names() {
        let err = StreamSet::new(vec![
            StreamSpec::new("S1", schema(), 100),
            StreamSpec::new("S2", schema(), 100),
            StreamSpec::new("S1", schema(), 100),
        ]);
        assert!(matches!(
            err,
            Err(Error::InvalidConfig(msg)) if msg.contains("duplicate stream name `S1`")
        ));
    }

    #[test]
    fn homogeneous_set_has_identical_windows() {
        let set = StreamSet::homogeneous(4, schema(), 3_000).unwrap();
        assert_eq!(set.arity(), 4);
        assert_eq!(set.windows(), vec![3_000; 4]);
        for (i, spec) in set.iter() {
            assert_eq!(spec.name, format!("S{}", i.as_usize() + 1));
        }
    }

    #[test]
    fn out_of_range_lookup_errors() {
        let set = StreamSet::homogeneous(2, schema(), 100).unwrap();
        assert!(set.spec(StreamIndex(0)).is_ok());
        assert!(matches!(
            set.spec(StreamIndex(2)),
            Err(Error::UnknownStream {
                index: 2,
                streams: 2
            })
        ));
        assert!(set.window(StreamIndex(5)).is_err());
    }

    #[test]
    fn heterogeneous_windows_are_preserved() {
        let set = StreamSet::new(vec![
            StreamSpec::new("A", schema(), 5_000),
            StreamSpec::new("B", schema(), 2_000),
            StreamSpec::new("C", schema(), 7_000),
        ])
        .unwrap();
        assert_eq!(set.window(StreamIndex(1)).unwrap(), 2_000);
        assert_eq!(set.windows(), vec![5_000, 2_000, 7_000]);
    }
}
