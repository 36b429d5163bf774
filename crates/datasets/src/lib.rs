//! # mswj-datasets — workloads and queries of the paper's evaluation
//!
//! The evaluation of the ICDE'16 paper (Sec. VI) uses three datasets and one
//! join query per dataset:
//!
//! * **D×2real / Q×2** — a real-world soccer-game dataset (DEBS 2013 grand
//!   challenge): two streams of player positions, joined on a distance
//!   predicate within 5-second windows.  The original sensor data is not
//!   redistributable, so this crate ships a *simulator* that reproduces its
//!   relevant characteristics (rates, delay bounds, low and time-varying
//!   predicate selectivity); the notes of its source,
//!   `crates/datasets/src/soccer.rs`, give the substitution rationale.
//! * **D×3syn / Q×3** — three synthetic streams `(ts, a1)` with Zipf delays
//!   and Zipf attribute values whose skew changes over time, joined on
//!   `a1` equality within 5-second windows.
//! * **D×4syn / Q×4** — four synthetic streams joined by a star-shaped
//!   conjunction of equalities within 3-second windows.
//!
//! All generators are deterministic for a given seed and expose scale knobs
//! (duration, rate) so experiments can run at paper scale or at bench scale.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod queries;
mod soccer;
mod synthetic;
mod zipf;

pub use queries::{q2_query, q3_query, q4_query};
pub use soccer::{SoccerConfig, SoccerDataset};
pub use synthetic::{SyntheticConfig, SyntheticDataset};
pub use zipf::Zipf;

use mswj_join::JoinQuery;
use mswj_types::ArrivalLog;

/// A fully materialized workload: a join query plus the arrival-ordered
/// tuple log of all its input streams.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Short name used in reports (e.g. `"Dx3syn"`).
    pub name: String,
    /// The join query evaluated on this dataset.
    pub query: JoinQuery,
    /// The interleaved arrival log of all input streams.
    pub log: ArrivalLog,
}

impl Dataset {
    /// Creates a dataset wrapper.
    pub(crate) fn new(name: impl Into<String>, query: JoinQuery, log: ArrivalLog) -> Self {
        Dataset {
            name: name.into(),
            query,
            log,
        }
    }

    /// Number of tuples across all streams.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// `true` when the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_wrapper_reports_size() {
        let cfg = SyntheticConfig::three_way().duration_secs(5);
        let d = SyntheticDataset::generate(&cfg, 7);
        let ds = Dataset::new("toy", d.query.clone(), d.log.clone());
        assert_eq!(ds.len(), d.log.len());
        assert!(!ds.is_empty());
        assert_eq!(ds.name, "toy");
    }
}
