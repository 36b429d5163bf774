//! Join conditions `p_on`.
//!
//! The framework is generic over the join condition (the paper stresses
//! support for *arbitrary* conditions, including user-defined functions such
//! as the `dist()` predicate of query Q×2).  A condition is an m-ary
//! predicate over one tuple per stream.  Conditions that are structurally
//! equi-joins additionally expose an [`EquiStructure`] so that the operator
//! can compute result *counts* through window count-indexes instead of
//! enumerating every combination — which is what makes the paper-scale
//! workloads (Q×3, Q×4) tractable.  Conditions that are structurally a
//! *numeric scan* — a distance or band predicate over `f64` images —
//! expose a [`ScanStructure`] instead, which lets the operator evaluate
//! them over the windows' typed scan columns without walking tuples.

use mswj_types::{Error, Result, StreamSet, Tuple, Value};
use std::fmt;
use std::sync::Arc;

/// Structural description of an equi-join, used for index-based counting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquiStructure {
    /// Every stream must agree on one key column:
    /// `S_1.c_1 = S_2.c_2 = … = S_m.c_m` (query Q×3).
    /// `columns[i]` is the key column position in stream `i`.
    CommonKey {
        /// Key column position per stream.
        columns: Vec<usize>,
    },
    /// A star-shaped conjunction anchored at one stream (query Q×4):
    /// `anchor.a_j = S_j.b_j` for every non-anchor stream `j`.
    Star {
        /// Index of the anchor stream.
        anchor: usize,
        /// For every stream `j != anchor`, `anchor_cols[j]` is the anchor
        /// column compared against stream `j` (ignored at `j == anchor`).
        anchor_cols: Vec<usize>,
        /// For every stream `j != anchor`, `other_cols[j]` is the column of
        /// stream `j` compared against the anchor (ignored at `j == anchor`).
        other_cols: Vec<usize>,
    },
}

/// Structural description of a non-equi condition that is a pure function
/// of the `f64` images ([`Value::as_float`]) of a few columns — the
/// non-equi counterpart of [`EquiStructure`].  The operator plans typed
/// *scan columns* from it and evaluates the predicate over those arrays
/// instead of calling [`JoinCondition::matches`] per candidate.
#[derive(Debug, Clone, PartialEq)]
pub enum ScanStructure {
    /// 2-way Euclidean distance ([`DistanceWithin`]): with `x_i`/`y_i` the
    /// images of stream `i`'s `x_cols[i]`/`y_cols[i]`, a pair matches iff
    /// all four images exist and
    /// `((x_0 - x_1)² + (y_0 - y_1)²).sqrt() < threshold`.
    DistanceWithin {
        /// X-coordinate column in each stream.
        x_cols: [usize; 2],
        /// Y-coordinate column in each stream.
        y_cols: [usize; 2],
        /// Distance threshold (exclusive).
        threshold: f64,
    },
    /// m-way band around stream 0 ([`BandJoin`]): with `v_i` the image of
    /// stream `i`'s `columns[i]`, a combination matches iff every image
    /// exists and `(v_j - v_0).abs() <= band` for every `j >= 1`.
    Band {
        /// Band column position per stream.
        columns: Vec<usize>,
        /// Band width (inclusive).
        band: f64,
    },
}

/// A serializable, data-only description of a join condition.
///
/// This is what crosses a process boundary: every built-in condition can
/// describe itself as resolved column positions plus scalar parameters, and
/// [`ConditionDescriptor::instantiate`] rebuilds an equivalent condition on
/// the other side.  Closure-backed conditions ([`PredicateFn`]) have no
/// descriptor and therefore cannot run on remote shards.
#[derive(Debug, Clone, PartialEq)]
pub enum ConditionDescriptor {
    /// [`CrossJoin`] over `arity` streams.
    Cross {
        /// Number of input streams.
        arity: usize,
    },
    /// [`CommonKeyEquiJoin`] on one resolved key column per stream.
    CommonKey {
        /// Key column position per stream.
        columns: Vec<usize>,
    },
    /// [`StarEquiJoin`] anchored at `anchor`.
    Star {
        /// Index of the anchor stream.
        anchor: usize,
        /// Anchor-side column per non-anchor stream (ignored at the anchor).
        anchor_cols: Vec<usize>,
        /// Other-side column per non-anchor stream (ignored at the anchor).
        other_cols: Vec<usize>,
    },
    /// [`BandJoin`] of width `band` on one column per stream.
    Band {
        /// Band column position per stream.
        columns: Vec<usize>,
        /// Band width.
        band: f64,
    },
    /// [`DistanceWithin`] over two position streams.
    DistanceWithin {
        /// X-coordinate column in each stream.
        x_cols: [usize; 2],
        /// Y-coordinate column in each stream.
        y_cols: [usize; 2],
        /// Distance threshold.
        threshold: f64,
    },
}

impl ConditionDescriptor {
    /// Rebuilds the concrete condition this descriptor came from.
    ///
    /// The reconstruction is exact: the rebuilt condition evaluates
    /// [`JoinCondition::matches`] identically and exposes the same
    /// [`EquiStructure`] and [`ScanStructure`], so probe plans, scan
    /// columns and shard routing derived from it agree byte-for-byte with
    /// the originating process.
    pub fn instantiate(&self) -> Arc<dyn JoinCondition> {
        match self {
            ConditionDescriptor::Cross { arity } => Arc::new(CrossJoin::new(*arity)),
            ConditionDescriptor::CommonKey { columns } => {
                Arc::new(CommonKeyEquiJoin::from_columns(columns.clone()))
            }
            ConditionDescriptor::Star {
                anchor,
                anchor_cols,
                other_cols,
            } => Arc::new(StarEquiJoin::from_columns(
                *anchor,
                anchor_cols.clone(),
                other_cols.clone(),
            )),
            ConditionDescriptor::Band { columns, band } => {
                Arc::new(BandJoin::from_columns(columns.clone(), *band))
            }
            ConditionDescriptor::DistanceWithin {
                x_cols,
                y_cols,
                threshold,
            } => Arc::new(DistanceWithin::from_columns(*x_cols, *y_cols, *threshold)),
        }
    }
}

/// An m-ary join predicate over one tuple per input stream.
///
/// Implementations must be cheap to clone behind an `Arc` and side-effect
/// free; the operator may evaluate them many times per arriving tuple.
pub trait JoinCondition: Send + Sync {
    /// Number of input streams the condition expects.
    fn arity(&self) -> usize;

    /// Evaluates the predicate on one tuple per stream (`tuples[i]` belongs
    /// to stream `i`).
    fn matches(&self, tuples: &[&Tuple]) -> bool;

    /// Structural equi-join description, if the condition has one.
    ///
    /// # Contract
    ///
    /// A returned structure must characterize [`JoinCondition::matches`]
    /// **exactly**: a combination satisfies `matches` if and only if it
    /// satisfies the described equalities (under
    /// [`Value::join_eq`](mswj_types::Value::join_eq) semantics).  The
    /// operator plans hash-indexed probes and index-based result counting
    /// from this structure without re-evaluating `matches`, so a condition
    /// that checks anything beyond the described equalities must return
    /// `None` here and accept nested-loop evaluation.
    fn equi_structure(&self) -> Option<EquiStructure> {
        None
    }

    /// Structural numeric-scan description, if the condition has one.
    ///
    /// # Contract
    ///
    /// The mirror of [`JoinCondition::equi_structure`] for non-equi
    /// conditions: a returned structure must characterize
    /// [`JoinCondition::matches`] **exactly** — same columns, same `f64`
    /// images, same floating-point operations in the same order, and
    /// `false` whenever an image does not exist (`Null`, missing, string or
    /// boolean).  The operator evaluates the described predicate over the
    /// windows' scan columns without calling `matches`, and results must
    /// stay byte-identical to the tuple-at-a-time scan; a condition that
    /// checks anything else must return `None` here.
    fn scan_structure(&self) -> Option<ScanStructure> {
        None
    }

    /// Short human-readable description for reports.
    fn describe(&self) -> String {
        "join condition".to_owned()
    }

    /// A serializable description of this condition, if one exists.
    ///
    /// # Contract
    ///
    /// When `Some`, [`ConditionDescriptor::instantiate`] on the returned
    /// descriptor must rebuild a condition whose `matches`,
    /// `equi_structure` and `scan_structure` behave identically to `self`
    /// — remote shards evaluate the rebuilt condition and their results
    /// must stay byte-identical to local execution.  Conditions that cannot be
    /// described as data (e.g. closures) return `None` and are rejected by
    /// remote execution backends at build time.
    fn descriptor(&self) -> Option<ConditionDescriptor> {
        None
    }
}

/// The trivial condition that accepts every combination (cross join).
///
/// The paper's analytical model uses the cross-join result size
/// `N×` as the normalizing quantity; this condition also doubles as the
/// `EqSel` modelling assumption in tests.
#[derive(Debug, Clone)]
pub struct CrossJoin {
    arity: usize,
}

impl CrossJoin {
    /// A cross join over `m` streams.
    pub fn new(arity: usize) -> Self {
        CrossJoin { arity }
    }
}

impl JoinCondition for CrossJoin {
    fn arity(&self) -> usize {
        self.arity
    }
    fn matches(&self, _tuples: &[&Tuple]) -> bool {
        true
    }
    fn describe(&self) -> String {
        format!("cross join over {} streams", self.arity)
    }
    fn descriptor(&self) -> Option<ConditionDescriptor> {
        Some(ConditionDescriptor::Cross { arity: self.arity })
    }
}

/// Equi-join on a single attribute shared by every stream
/// (`S1.a1 = S2.a1 AND S2.a1 = S3.a1`, query Q×3).
#[derive(Debug, Clone)]
pub struct CommonKeyEquiJoin {
    columns: Vec<usize>,
}

impl CommonKeyEquiJoin {
    /// Resolves the named attribute in every stream's schema.
    pub fn new(streams: &StreamSet, attribute: &str) -> Result<Self> {
        let mut columns = Vec::with_capacity(streams.arity());
        for (_, spec) in streams.iter() {
            columns.push(spec.schema.require(attribute)?);
        }
        Ok(CommonKeyEquiJoin { columns })
    }

    /// Builds the condition from already-resolved column positions.
    pub(crate) fn from_columns(columns: Vec<usize>) -> Self {
        CommonKeyEquiJoin { columns }
    }
}

impl JoinCondition for CommonKeyEquiJoin {
    fn arity(&self) -> usize {
        self.columns.len()
    }

    fn matches(&self, tuples: &[&Tuple]) -> bool {
        debug_assert_eq!(tuples.len(), self.columns.len());
        let first = match tuples[0].value(self.columns[0]) {
            Some(v) => v,
            None => return false,
        };
        tuples
            .iter()
            .zip(&self.columns)
            .skip(1)
            .all(|(t, &c)| t.value(c).map(|v| v.join_eq(first)).unwrap_or(false))
    }

    fn equi_structure(&self) -> Option<EquiStructure> {
        Some(EquiStructure::CommonKey {
            columns: self.columns.clone(),
        })
    }

    fn describe(&self) -> String {
        format!("common-key equi-join on columns {:?}", self.columns)
    }

    fn descriptor(&self) -> Option<ConditionDescriptor> {
        Some(ConditionDescriptor::CommonKey {
            columns: self.columns.clone(),
        })
    }
}

/// Star-shaped equi-join anchored at one stream
/// (`S1.a1 = S2.a1 AND S1.a2 = S3.a2 AND S1.a3 = S4.a3`, query Q×4).
#[derive(Debug, Clone)]
pub struct StarEquiJoin {
    anchor: usize,
    anchor_cols: Vec<usize>,
    other_cols: Vec<usize>,
}

impl StarEquiJoin {
    /// Builds the condition from attribute-name pairs.
    ///
    /// `pairs[j]` (for every non-anchor stream `j`, in ascending stream
    /// order, skipping the anchor) gives `(anchor_attribute, other_attribute)`.
    pub fn new(streams: &StreamSet, anchor: usize, pairs: &[(usize, &str, &str)]) -> Result<Self> {
        let m = streams.arity();
        if anchor >= m {
            return Err(Error::UnknownStream {
                index: anchor,
                streams: m,
            });
        }
        let anchor_schema = &streams.spec(anchor.into())?.schema;
        let mut anchor_cols = vec![0usize; m];
        let mut other_cols = vec![0usize; m];
        let mut covered = vec![false; m];
        covered[anchor] = true;
        for &(other, anchor_attr, other_attr) in pairs {
            if other >= m || other == anchor {
                return Err(Error::InvalidConfig(format!(
                    "invalid star-join pair referencing stream {other}"
                )));
            }
            anchor_cols[other] = anchor_schema.require(anchor_attr)?;
            other_cols[other] = streams.spec(other.into())?.schema.require(other_attr)?;
            covered[other] = true;
        }
        if !covered.iter().all(|&c| c) {
            return Err(Error::InvalidConfig(
                "star-join pairs must cover every non-anchor stream".to_owned(),
            ));
        }
        Ok(StarEquiJoin {
            anchor,
            anchor_cols,
            other_cols,
        })
    }

    /// Builds the condition from already-resolved column positions.
    pub(crate) fn from_columns(
        anchor: usize,
        anchor_cols: Vec<usize>,
        other_cols: Vec<usize>,
    ) -> Self {
        StarEquiJoin {
            anchor,
            anchor_cols,
            other_cols,
        }
    }
}

impl JoinCondition for StarEquiJoin {
    fn arity(&self) -> usize {
        self.anchor_cols.len()
    }

    fn matches(&self, tuples: &[&Tuple]) -> bool {
        let anchor_tuple = tuples[self.anchor];
        (0..tuples.len()).filter(|&j| j != self.anchor).all(|j| {
            let a = anchor_tuple.value(self.anchor_cols[j]);
            let b = tuples[j].value(self.other_cols[j]);
            match (a, b) {
                (Some(a), Some(b)) => a.join_eq(b),
                _ => false,
            }
        })
    }

    fn equi_structure(&self) -> Option<EquiStructure> {
        Some(EquiStructure::Star {
            anchor: self.anchor,
            anchor_cols: self.anchor_cols.clone(),
            other_cols: self.other_cols.clone(),
        })
    }

    fn describe(&self) -> String {
        format!("star equi-join anchored at stream {}", self.anchor)
    }

    fn descriptor(&self) -> Option<ConditionDescriptor> {
        Some(ConditionDescriptor::Star {
            anchor: self.anchor,
            anchor_cols: self.anchor_cols.clone(),
            other_cols: self.other_cols.clone(),
        })
    }
}

/// Euclidean-distance predicate for 2-way joins over position streams
/// (`dist(S1.x, S1.y, S2.x, S2.y) < threshold`, query Q×2).
#[derive(Debug, Clone)]
pub struct DistanceWithin {
    x_cols: [usize; 2],
    y_cols: [usize; 2],
    threshold: f64,
}

impl DistanceWithin {
    /// Resolves coordinate attribute names in both schemas.
    pub fn new(streams: &StreamSet, x_attr: &str, y_attr: &str, threshold: f64) -> Result<Self> {
        if streams.arity() != 2 {
            return Err(Error::InvalidConfig(format!(
                "DistanceWithin is a binary predicate, query has {} streams",
                streams.arity()
            )));
        }
        let s0 = &streams.spec(0.into())?.schema;
        let s1 = &streams.spec(1.into())?.schema;
        Ok(DistanceWithin {
            x_cols: [s0.require(x_attr)?, s1.require(x_attr)?],
            y_cols: [s0.require(y_attr)?, s1.require(y_attr)?],
            threshold,
        })
    }

    /// Builds the predicate from resolved column positions.
    pub(crate) fn from_columns(x_cols: [usize; 2], y_cols: [usize; 2], threshold: f64) -> Self {
        DistanceWithin {
            x_cols,
            y_cols,
            threshold,
        }
    }
}

impl JoinCondition for DistanceWithin {
    fn arity(&self) -> usize {
        2
    }

    fn matches(&self, tuples: &[&Tuple]) -> bool {
        let coord = |t: &Tuple, col: usize| t.value(col).and_then(Value::as_float);
        match (
            coord(tuples[0], self.x_cols[0]),
            coord(tuples[0], self.y_cols[0]),
            coord(tuples[1], self.x_cols[1]),
            coord(tuples[1], self.y_cols[1]),
        ) {
            (Some(x0), Some(y0), Some(x1), Some(y1)) => {
                let dx = x0 - x1;
                let dy = y0 - y1;
                (dx * dx + dy * dy).sqrt() < self.threshold
            }
            _ => false,
        }
    }

    fn scan_structure(&self) -> Option<ScanStructure> {
        Some(ScanStructure::DistanceWithin {
            x_cols: self.x_cols,
            y_cols: self.y_cols,
            threshold: self.threshold,
        })
    }

    fn describe(&self) -> String {
        format!("dist() < {}", self.threshold)
    }

    fn descriptor(&self) -> Option<ConditionDescriptor> {
        Some(ConditionDescriptor::DistanceWithin {
            x_cols: self.x_cols,
            y_cols: self.y_cols,
            threshold: self.threshold,
        })
    }
}

/// Band join on an integer/float attribute: `|S1.a - S2.a| <= band`.
#[derive(Debug, Clone)]
pub struct BandJoin {
    columns: Vec<usize>,
    band: f64,
}

impl BandJoin {
    /// Resolves the named attribute in every stream's schema.
    pub fn new(streams: &StreamSet, attribute: &str, band: f64) -> Result<Self> {
        let mut columns = Vec::with_capacity(streams.arity());
        for (_, spec) in streams.iter() {
            columns.push(spec.schema.require(attribute)?);
        }
        Ok(BandJoin { columns, band })
    }

    /// Builds the condition from already-resolved column positions.
    pub(crate) fn from_columns(columns: Vec<usize>, band: f64) -> Self {
        BandJoin { columns, band }
    }
}

impl JoinCondition for BandJoin {
    fn arity(&self) -> usize {
        self.columns.len()
    }

    fn matches(&self, tuples: &[&Tuple]) -> bool {
        let mut values = tuples
            .iter()
            .zip(&self.columns)
            .map(|(t, &c)| t.value(c).and_then(Value::as_float));
        let first = match values.next().flatten() {
            Some(v) => v,
            None => return false,
        };
        // Every stream must lie within the band of the first one.
        tuples.iter().zip(&self.columns).skip(1).all(|(t, &c)| {
            match t.value(c).and_then(Value::as_float) {
                Some(v) => (v - first).abs() <= self.band,
                None => false,
            }
        })
    }

    fn scan_structure(&self) -> Option<ScanStructure> {
        Some(ScanStructure::Band {
            columns: self.columns.clone(),
            band: self.band,
        })
    }

    fn describe(&self) -> String {
        format!("band join (width {})", self.band)
    }

    fn descriptor(&self) -> Option<ConditionDescriptor> {
        Some(ConditionDescriptor::Band {
            columns: self.columns.clone(),
            band: self.band,
        })
    }
}

/// The boxed m-ary predicate closure wrapped by [`PredicateFn`].
pub(crate) type PredicateClosure = Arc<dyn Fn(&[&Tuple]) -> bool + Send + Sync>;

/// A user-defined m-ary predicate backed by a closure.
///
/// This is the catch-all escape hatch the paper insists on ("arbitrary join
/// conditions, e.g., conditions involving user-defined functions").
#[derive(Clone)]
pub struct PredicateFn {
    arity: usize,
    name: String,
    f: PredicateClosure,
}

impl PredicateFn {
    /// Wraps a closure as a join condition over `arity` streams.
    pub fn new(
        arity: usize,
        name: impl Into<String>,
        f: impl Fn(&[&Tuple]) -> bool + Send + Sync + 'static,
    ) -> Self {
        PredicateFn {
            arity,
            name: name.into(),
            f: Arc::new(f),
        }
    }
}

impl fmt::Debug for PredicateFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PredicateFn")
            .field("arity", &self.arity)
            .field("name", &self.name)
            .finish()
    }
}

impl JoinCondition for PredicateFn {
    fn arity(&self) -> usize {
        self.arity
    }
    fn matches(&self, tuples: &[&Tuple]) -> bool {
        (self.f)(tuples)
    }
    fn describe(&self) -> String {
        format!("udf({})", self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mswj_types::{FieldType, Schema, StreamSpec, Timestamp};

    fn int_tuple(stream: usize, values: Vec<i64>) -> Tuple {
        Tuple::new(
            stream.into(),
            0,
            Timestamp::ZERO,
            values.into_iter().map(Value::Int).collect(),
        )
    }

    fn common_key_streams(m: usize) -> StreamSet {
        StreamSet::homogeneous(m, Schema::new(vec![("a1", FieldType::Int)]), 5_000).unwrap()
    }

    #[test]
    fn cross_join_accepts_everything() {
        let c = CrossJoin::new(3);
        assert_eq!(c.arity(), 3);
        let t0 = int_tuple(0, vec![1]);
        let t1 = int_tuple(1, vec![2]);
        let t2 = int_tuple(2, vec![3]);
        assert!(c.matches(&[&t0, &t1, &t2]));
        assert!(c.equi_structure().is_none());
        assert!(c.describe().contains("cross"));
    }

    #[test]
    fn common_key_equi_join_matches_equal_keys() {
        let streams = common_key_streams(3);
        let c = CommonKeyEquiJoin::new(&streams, "a1").unwrap();
        assert_eq!(c.arity(), 3);
        assert_eq!(c.columns[2], 0);
        let a = int_tuple(0, vec![7]);
        let b = int_tuple(1, vec![7]);
        let d = int_tuple(2, vec![7]);
        let e = int_tuple(2, vec![8]);
        assert!(c.matches(&[&a, &b, &d]));
        assert!(!c.matches(&[&a, &b, &e]));
        match c.equi_structure() {
            Some(EquiStructure::CommonKey { columns }) => assert_eq!(columns, vec![0, 0, 0]),
            other => panic!("unexpected structure {other:?}"),
        }
    }

    #[test]
    fn common_key_requires_attribute_in_every_schema() {
        let streams = common_key_streams(2);
        assert!(CommonKeyEquiJoin::new(&streams, "missing").is_err());
    }

    #[test]
    fn star_equi_join_q4_shape() {
        // S1:(a1,a2,a3), S2:(a1), S3:(a2), S4:(a3)
        let streams = StreamSet::new(vec![
            StreamSpec::new(
                "S1",
                Schema::new(vec![
                    ("a1", FieldType::Int),
                    ("a2", FieldType::Int),
                    ("a3", FieldType::Int),
                ]),
                3_000,
            ),
            StreamSpec::new("S2", Schema::new(vec![("a1", FieldType::Int)]), 3_000),
            StreamSpec::new("S3", Schema::new(vec![("a2", FieldType::Int)]), 3_000),
            StreamSpec::new("S4", Schema::new(vec![("a3", FieldType::Int)]), 3_000),
        ])
        .unwrap();
        let c = StarEquiJoin::new(
            &streams,
            0,
            &[(1, "a1", "a1"), (2, "a2", "a2"), (3, "a3", "a3")],
        )
        .unwrap();
        assert_eq!(c.arity(), 4);
        assert_eq!(c.anchor, 0);
        let s1 = int_tuple(0, vec![1, 2, 3]);
        let s2 = int_tuple(1, vec![1]);
        let s3 = int_tuple(2, vec![2]);
        let s4 = int_tuple(3, vec![3]);
        assert!(c.matches(&[&s1, &s2, &s3, &s4]));
        let s4_bad = int_tuple(3, vec![9]);
        assert!(!c.matches(&[&s1, &s2, &s3, &s4_bad]));
        assert!(matches!(
            c.equi_structure(),
            Some(EquiStructure::Star { anchor: 0, .. })
        ));
    }

    #[test]
    fn star_join_validates_coverage_and_indices() {
        let streams = common_key_streams(3);
        // Missing stream 2 in the pairs.
        assert!(StarEquiJoin::new(&streams, 0, &[(1, "a1", "a1")]).is_err());
        // Anchor out of range.
        assert!(StarEquiJoin::new(&streams, 9, &[]).is_err());
        // Pair referencing the anchor itself.
        assert!(StarEquiJoin::new(&streams, 0, &[(0, "a1", "a1"), (1, "a1", "a1")]).is_err());
    }

    #[test]
    fn distance_within_matches_close_points() {
        let schema = Schema::new(vec![
            ("sID", FieldType::Int),
            ("xCoord", FieldType::Float),
            ("yCoord", FieldType::Float),
        ]);
        let streams = StreamSet::homogeneous(2, schema, 5_000).unwrap();
        let c = DistanceWithin::new(&streams, "xCoord", "yCoord", 5.0).unwrap();
        assert_eq!(c.arity(), 2);
        assert!((c.threshold - 5.0).abs() < f64::EPSILON);
        let make = |stream: usize, x: f64, y: f64| {
            Tuple::new(
                stream.into(),
                0,
                Timestamp::ZERO,
                vec![Value::Int(1), Value::Float(x), Value::Float(y)],
            )
        };
        let a = make(0, 10.0, 10.0);
        let near = make(1, 12.0, 13.0); // dist = sqrt(4+9) ≈ 3.6
        let far = make(1, 20.0, 10.0); // dist = 10
        assert!(c.matches(&[&a, &near]));
        assert!(!c.matches(&[&a, &far]));
    }

    #[test]
    fn distance_within_requires_two_streams() {
        let schema = Schema::new(vec![
            ("xCoord", FieldType::Float),
            ("yCoord", FieldType::Float),
        ]);
        let streams = StreamSet::homogeneous(3, schema, 5_000).unwrap();
        assert!(DistanceWithin::new(&streams, "xCoord", "yCoord", 5.0).is_err());
    }

    #[test]
    fn band_join_width_semantics() {
        let streams = common_key_streams(2);
        let c = BandJoin::new(&streams, "a1", 2.0).unwrap();
        let a = int_tuple(0, vec![10]);
        let near = int_tuple(1, vec![12]);
        let far = int_tuple(1, vec![13]);
        assert!(c.matches(&[&a, &near]));
        assert!(!c.matches(&[&a, &far]));
        assert!(c.describe().contains("band"));
    }

    #[test]
    fn predicate_fn_wraps_closures() {
        let c = PredicateFn::new(2, "sum_lt_10", |ts: &[&Tuple]| {
            let sum: i64 = ts
                .iter()
                .filter_map(|t| t.value(0).and_then(Value::as_int))
                .sum();
            sum < 10
        });
        let a = int_tuple(0, vec![3]);
        let b = int_tuple(1, vec![4]);
        let big = int_tuple(1, vec![9]);
        assert!(c.matches(&[&a, &b]));
        assert!(!c.matches(&[&a, &big]));
        assert_eq!(c.arity(), 2);
        assert!(format!("{c:?}").contains("sum_lt_10"));
        assert!(c.describe().contains("udf"));
    }

    #[test]
    fn descriptors_rebuild_equivalent_conditions() {
        let streams = common_key_streams(3);
        let originals: Vec<Arc<dyn JoinCondition>> = vec![
            Arc::new(CrossJoin::new(3)),
            Arc::new(CommonKeyEquiJoin::new(&streams, "a1").unwrap()),
            Arc::new(StarEquiJoin::new(&streams, 0, &[(1, "a1", "a1"), (2, "a1", "a1")]).unwrap()),
            Arc::new(BandJoin::new(&streams, "a1", 2.0).unwrap()),
        ];
        let probes = [
            vec![
                int_tuple(0, vec![7]),
                int_tuple(1, vec![7]),
                int_tuple(2, vec![7]),
            ],
            vec![
                int_tuple(0, vec![7]),
                int_tuple(1, vec![8]),
                int_tuple(2, vec![7]),
            ],
            vec![
                int_tuple(0, vec![1]),
                int_tuple(1, vec![2]),
                int_tuple(2, vec![9]),
            ],
        ];
        for original in &originals {
            let descriptor = original
                .descriptor()
                .expect("built-in must describe itself");
            let rebuilt = descriptor.instantiate();
            assert_eq!(rebuilt.arity(), original.arity());
            assert_eq!(rebuilt.equi_structure(), original.equi_structure());
            assert_eq!(rebuilt.scan_structure(), original.scan_structure());
            assert_eq!(rebuilt.descriptor(), Some(descriptor));
            for combo in &probes {
                let refs: Vec<&Tuple> = combo.iter().collect();
                assert_eq!(rebuilt.matches(&refs), original.matches(&refs));
            }
        }
    }

    #[test]
    fn distance_descriptor_roundtrips() {
        let schema = Schema::new(vec![
            ("xCoord", FieldType::Float),
            ("yCoord", FieldType::Float),
        ]);
        let streams = StreamSet::homogeneous(2, schema, 5_000).unwrap();
        let original = DistanceWithin::new(&streams, "xCoord", "yCoord", 5.0).unwrap();
        let rebuilt = original.descriptor().unwrap().instantiate();
        assert_eq!(rebuilt.scan_structure(), original.scan_structure());
        assert!(matches!(
            rebuilt.scan_structure(),
            Some(ScanStructure::DistanceWithin {
                x_cols: [0, 0],
                y_cols: [1, 1],
                ..
            })
        ));
        let make = |stream: usize, x: f64, y: f64| {
            Tuple::new(
                stream.into(),
                0,
                Timestamp::ZERO,
                vec![Value::Float(x), Value::Float(y)],
            )
        };
        let a = make(0, 10.0, 10.0);
        let near = make(1, 12.0, 13.0);
        let far = make(1, 20.0, 10.0);
        assert!(rebuilt.matches(&[&a, &near]));
        assert!(!rebuilt.matches(&[&a, &far]));
    }

    #[test]
    fn scan_structures_mirror_the_numeric_conditions_only() {
        let streams = common_key_streams(3);
        let band = BandJoin::new(&streams, "a1", 2.0).unwrap();
        assert_eq!(
            band.scan_structure(),
            Some(ScanStructure::Band {
                columns: vec![0, 0, 0],
                band: 2.0
            })
        );
        assert!(band.equi_structure().is_none());
        // Everything else keeps the tuple-at-a-time scan (or its index).
        assert!(CrossJoin::new(3).scan_structure().is_none());
        assert!(CommonKeyEquiJoin::new(&streams, "a1")
            .unwrap()
            .scan_structure()
            .is_none());
        let udf = PredicateFn::new(3, "opaque", |_: &[&Tuple]| true);
        assert!(udf.scan_structure().is_none());
    }

    #[test]
    fn closures_have_no_descriptor() {
        let c = PredicateFn::new(2, "opaque", |_: &[&Tuple]| true);
        assert!(c.descriptor().is_none());
    }

    #[test]
    fn missing_values_never_match() {
        let streams = common_key_streams(2);
        let c = CommonKeyEquiJoin::new(&streams, "a1").unwrap();
        let empty = Tuple::marker(0.into(), 0, Timestamp::ZERO);
        let other = int_tuple(1, vec![1]);
        assert!(!c.matches(&[&empty, &other]));
    }
}
