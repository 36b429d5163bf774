//! # mswj-types — stream substrate types
//!
//! Foundational types shared by every other crate in the workspace:
//! timestamps, attribute values, schemas, stream tuples, arrival events and
//! stream sources.  They model the data-stream environment of Sec. II-A of
//! *"Quality-Driven Disorder Handling for M-way Sliding Window Stream
//! Joins"* (ICDE 2016):
//!
//! * every tuple carries an **application timestamp** assigned at the data
//!   source ([`Timestamp`], milliseconds),
//! * tuples reach the system in an **arrival order** that may disagree with
//!   the timestamp order (intra-stream disorder) and in which different
//!   streams may progress at different speeds (inter-stream disorder),
//! * the **delay** of a tuple is the difference between the local current
//!   time of its stream observed at its arrival and its own timestamp.
//!
//! The crate is deliberately free of any join or disorder-handling logic so
//! that the substrate can be reused by generators, operators and metrics
//! alike.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod arrival;
mod error;
mod progress;
mod stream;
mod timestamp;
mod tuple;
mod value;

pub use arrival::{ArrivalEvent, ArrivalLog, Interleaver};
pub use error::{Error, Result};
pub use progress::{LocalClock, SkewTracker};
pub use stream::{StreamIndex, StreamSet, StreamSpec};
pub use timestamp::{Duration, Timestamp};
pub use tuple::Tuple;
pub use value::{FieldType, Schema, Value};
