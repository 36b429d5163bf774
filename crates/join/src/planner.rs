//! Probe planning: how the operator searches the other windows.
//!
//! The windows of an equi-join maintain value→tuple hash indexes on their
//! key columns (see [`Window`](crate::Window)), so a probing tuple can look
//! up exactly the bucket of candidates that can still satisfy the join
//! instead of scanning every live tuple.  Which lookups are legal is decided
//! in two stages:
//!
//! 1. **Statically**, at operator construction: the join condition's
//!    [`EquiStructure`] is turned into a [`ProbePlan`] that names, per
//!    stream, the columns to index and the shape of the indexed probe
//!    (common-key or star).  Conditions without an equi structure (cross
//!    joins, band joins, user-defined predicates) plan a
//!    [`ProbePlan::NestedLoop`].
//! 2. **Dynamically**, per probing tuple: the indexed path engages only when
//!    it is provably equivalent to the exhaustive nested-loop scan — the
//!    probing key is an integer and every probed window is *index-sound* on
//!    its key column (it holds no live float/string/bool value there, which
//!    could join an integer key through [`Value::join_eq`]'s numeric
//!    coercion without being hashable to the same bucket).  Otherwise the
//!    operator transparently falls back to the nested loop for that probe.
//!
//! [`Value::join_eq`]: mswj_types::Value::join_eq
//!
//! Nested-loop plans get a second, orthogonal refinement: when the
//! condition exposes a [`ScanStructure`] (distance and band predicates),
//! `plan_scan` turns it into per-stream *scan columns* and the operator
//! evaluates the predicate over the windows' typed `f64` arrays instead of
//! walking tuples.  The probe still counts as a fallback scan — it visits
//! every live candidate — only the per-candidate cost changes.
//!
//! The strategy knob exists so that the equivalence can be *tested*: the
//! differential harness (`tests/differential.rs`) runs every workload
//! through a [`NestedLoop`](ProbeStrategy::NestedLoop) oracle and
//! [`Auto`](ProbeStrategy::Auto) sessions and asserts identical results.

use crate::condition::{EquiStructure, ScanStructure};

/// User-selectable probe strategy, wired through
/// `SessionBuilder::probe(..)` in `mswj-core`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProbeStrategy {
    /// Plan hash-indexed probes from the condition's [`EquiStructure`],
    /// falling back to the nested loop per probe when index soundness
    /// cannot be guaranteed.  This is the default.
    #[default]
    Auto,
    /// Always probe by exhaustively scanning every other window, one tuple
    /// and one `matches` call at a time (no hash index, no typed-column
    /// scan).  Exists as the reference implementation for the differential
    /// test harnesses and for debugging; never faster.
    NestedLoop,
}

impl std::fmt::Display for ProbeStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProbeStrategy::Auto => write!(f, "auto"),
            ProbeStrategy::NestedLoop => write!(f, "nested-loop"),
        }
    }
}

/// The probe access path chosen at operator construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbePlan {
    /// Hash-bucket lookups on one shared key column per stream
    /// (`S_1.c_1 = … = S_m.c_m`, query Q×3).
    CommonKey {
        /// Key column position per stream.
        columns: Vec<usize>,
    },
    /// Star-shaped bucket lookups anchored at one stream (query Q×4).
    /// Anchor probes look up one satellite bucket per pair; satellite probes
    /// look up the matching anchor bucket first and fan out from there.
    Star {
        /// Index of the anchor stream.
        anchor: usize,
        /// For every stream `j != anchor`, the anchor column compared
        /// against stream `j` (ignored at `j == anchor`).
        anchor_cols: Vec<usize>,
        /// For every stream `j != anchor`, the column of stream `j`
        /// compared against the anchor (ignored at `j == anchor`).
        other_cols: Vec<usize>,
    },
    /// Exhaustive scan over every combination of live tuples; the only
    /// correct plan for conditions without an [`EquiStructure`].
    NestedLoop,
}

impl ProbePlan {
    /// Plans the probe path for a condition's equi structure under the
    /// given strategy.
    pub fn new(strategy: ProbeStrategy, equi: Option<&EquiStructure>) -> Self {
        match (strategy, equi) {
            (ProbeStrategy::NestedLoop, _) | (_, None) => ProbePlan::NestedLoop,
            (ProbeStrategy::Auto, Some(EquiStructure::CommonKey { columns })) => {
                ProbePlan::CommonKey {
                    columns: columns.clone(),
                }
            }
            (
                ProbeStrategy::Auto,
                Some(EquiStructure::Star {
                    anchor,
                    anchor_cols,
                    other_cols,
                }),
            ) => ProbePlan::Star {
                anchor: *anchor,
                anchor_cols: anchor_cols.clone(),
                other_cols: other_cols.clone(),
            },
        }
    }

    /// The column positions stream `i`'s window must index for this plan.
    ///
    /// Common-key plans index the key column of every stream.  Star plans
    /// index each satellite on its pair column and the anchor on every
    /// (deduplicated) anchor-side column, so that satellite probes can look
    /// up matching anchor tuples directly.
    pub fn indexed_columns(&self, i: usize) -> Vec<usize> {
        match self {
            ProbePlan::CommonKey { columns } => vec![columns[i]],
            ProbePlan::Star {
                anchor,
                anchor_cols,
                other_cols,
            } => {
                if i == *anchor {
                    let mut cols: Vec<usize> = (0..anchor_cols.len())
                        .filter(|&j| j != *anchor)
                        .map(|j| anchor_cols[j])
                        .collect();
                    cols.sort_unstable();
                    cols.dedup();
                    cols
                } else {
                    vec![other_cols[i]]
                }
            }
            ProbePlan::NestedLoop => Vec::new(),
        }
    }

    /// Whether the plan ever uses hash-bucket lookups.
    pub fn is_indexed(&self) -> bool {
        !matches!(self, ProbePlan::NestedLoop)
    }

    /// Short human-readable description for reports.
    pub fn describe(&self) -> String {
        match self {
            ProbePlan::CommonKey { columns } => {
                format!("hash-indexed common-key probe on columns {columns:?}")
            }
            ProbePlan::Star { anchor, .. } => {
                // 0-indexed, matching `shard_stats`, plan transitions and
                // every error message.
                format!("hash-indexed star probe anchored at stream {anchor}")
            }
            ProbePlan::NestedLoop => "nested-loop probe".to_owned(),
        }
    }
}

/// Plans the typed-column scan of a nested-loop operator: the condition's
/// scan structure, when the strategy allows access paths at all, the plan
/// has no hash index to prefer, and the structure is well-formed for
/// `arity` streams (a malformed one from a user-defined condition is
/// ignored rather than trusted).
pub(crate) fn plan_scan(
    strategy: ProbeStrategy,
    plan: &ProbePlan,
    scan: Option<ScanStructure>,
    arity: usize,
) -> Option<ScanStructure> {
    if strategy != ProbeStrategy::Auto || plan.is_indexed() {
        return None;
    }
    scan.filter(|s| match s {
        ScanStructure::DistanceWithin { .. } => arity == 2,
        ScanStructure::Band { columns, .. } => arity >= 2 && columns.len() == arity,
    })
}

/// The scan columns stream `i`'s window must maintain for `scan`, in the
/// positional order the scan kernel addresses them: `[x, y]` for a distance
/// join, `[band column]` for a band join.
pub(crate) fn scan_columns(scan: &ScanStructure, i: usize) -> Vec<usize> {
    match scan {
        ScanStructure::DistanceWithin { x_cols, y_cols, .. } => vec![x_cols[i], y_cols[i]],
        ScanStructure::Band { columns, .. } => vec![columns[i]],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_plans_need_auto_a_nested_loop_plan_and_a_well_formed_structure() {
        let band = |n: usize| ScanStructure::Band {
            columns: vec![1; n],
            band: 2.0,
        };
        let dist = ScanStructure::DistanceWithin {
            x_cols: [1, 3],
            y_cols: [2, 4],
            threshold: 5.0,
        };
        let nl = ProbePlan::NestedLoop;
        let auto = ProbeStrategy::Auto;
        assert_eq!(plan_scan(auto, &nl, Some(band(3)), 3), Some(band(3)));
        assert_eq!(
            plan_scan(auto, &nl, Some(dist.clone()), 2),
            Some(dist.clone())
        );
        assert_eq!(plan_scan(auto, &nl, None, 2), None);
        // The oracle strategy never plans a scan.
        assert_eq!(
            plan_scan(ProbeStrategy::NestedLoop, &nl, Some(band(2)), 2),
            None
        );
        // A hash-indexed plan keeps its own access path.
        let indexed = ProbePlan::CommonKey {
            columns: vec![0, 0],
        };
        assert_eq!(plan_scan(auto, &indexed, Some(band(2)), 2), None);
        // Malformed structures are ignored.
        assert_eq!(plan_scan(auto, &nl, Some(band(2)), 3), None);
        assert_eq!(plan_scan(auto, &nl, Some(band(1)), 1), None);
        assert_eq!(plan_scan(auto, &nl, Some(dist.clone()), 3), None);
        assert_eq!(scan_columns(&dist, 1), vec![3, 4]);
        assert_eq!(scan_columns(&band(3), 2), vec![1]);
    }

    #[test]
    fn nested_loop_strategy_overrides_equi_structure() {
        let equi = EquiStructure::CommonKey {
            columns: vec![0, 0],
        };
        let plan = ProbePlan::new(ProbeStrategy::NestedLoop, Some(&equi));
        assert_eq!(plan, ProbePlan::NestedLoop);
        assert!(!plan.is_indexed());
        assert!(plan.indexed_columns(0).is_empty());
    }

    #[test]
    fn auto_plans_common_key() {
        let equi = EquiStructure::CommonKey {
            columns: vec![1, 0, 2],
        };
        let plan = ProbePlan::new(ProbeStrategy::Auto, Some(&equi));
        assert!(plan.is_indexed());
        assert_eq!(plan.indexed_columns(0), vec![1]);
        assert_eq!(plan.indexed_columns(2), vec![2]);
        assert!(plan.describe().contains("common-key"));
    }

    #[test]
    fn auto_plans_star_with_deduplicated_anchor_columns() {
        // Anchor stream 0 joins satellites 1 and 2 through the *same* anchor
        // column 3, and satellite 3 through column 5.
        let equi = EquiStructure::Star {
            anchor: 0,
            anchor_cols: vec![0, 3, 3, 5],
            other_cols: vec![0, 1, 2, 0],
        };
        let plan = ProbePlan::new(ProbeStrategy::Auto, Some(&equi));
        assert_eq!(plan.indexed_columns(0), vec![3, 5]);
        assert_eq!(plan.indexed_columns(1), vec![1]);
        assert_eq!(plan.indexed_columns(3), vec![0]);
        assert!(plan.describe().contains("star"));
    }

    #[test]
    fn describe_numbers_streams_zero_indexed() {
        // Stream numbering is 0-indexed everywhere a human can read it
        // (shard stats, plan transitions, error messages); the condition's
        // and the plan's `describe` must follow the same convention.  The
        // anchor is stream 1, so an off-by-one shows on either side.
        use crate::condition::{JoinCondition, StarEquiJoin};
        use mswj_types::{FieldType, Schema, StreamSet};
        let schema = Schema::new(vec![("a", FieldType::Int), ("b", FieldType::Int)]);
        let streams = StreamSet::homogeneous(3, schema, 1_000).unwrap();
        let cond = StarEquiJoin::new(&streams, 1, &[(0, "a", "a"), (2, "b", "b")]).unwrap();
        let plan = ProbePlan::new(ProbeStrategy::Auto, cond.equi_structure().as_ref());
        assert_eq!(cond.describe(), "star equi-join anchored at stream 1");
        assert_eq!(
            plan.describe(),
            "hash-indexed star probe anchored at stream 1"
        );
    }

    #[test]
    fn conditions_without_structure_plan_nested_loop() {
        let plan = ProbePlan::new(ProbeStrategy::Auto, None);
        assert_eq!(plan, ProbePlan::NestedLoop);
        assert!(plan.describe().contains("nested-loop"));
        assert_eq!(ProbeStrategy::default(), ProbeStrategy::Auto);
        assert_eq!(ProbeStrategy::NestedLoop.to_string(), "nested-loop");
        assert_eq!(ProbeStrategy::Auto.to_string(), "auto");
    }
}
