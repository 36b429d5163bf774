//! # mswj-metrics — result-quality metrics and reporting
//!
//! The paper evaluates disorder handling with two metrics (Sec. VI):
//!
//! * the **average K-slack buffer size** (a direct proxy for the result
//!   latency incurred by disorder handling), reported by the pipeline
//!   itself; and
//! * the **period-based recall** `γ(P)` — the fraction of true join results
//!   (those produced when the streams are perfectly ordered and
//!   synchronized) whose timestamps fall within the last `P` time units
//!   that were actually produced — aggregated into the *requirement
//!   fulfilment percentage* `Φ(Γ)` and its relaxed variant `Φ(.99Γ)`.
//!
//! This crate computes the ground-truth result counts by replaying a
//! dataset in sorted order through the same join operator, measures `γ(P)`
//! at every pipeline checkpoint and formats the text tables printed by the
//! experiment binaries.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod ground_truth;
mod recall;
mod report;

pub use ground_truth::{ground_truth_counts, CountSeries};
pub use recall::{evaluate_recall, RecallEvaluation, RecallSample};
pub use report::{format_table, TableRow};
