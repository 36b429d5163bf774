//! # mswj-wire — the shard-boundary wire protocol
//!
//! A hand-rolled, versioned, length-prefixed binary codec for everything
//! that crosses a shard boundary in the partitioned join engine: routed
//! task batches ([`WireTask`], with the late items' bounds in
//! [`WireLate`]), epoch results and statistics
//! ([`WireOutput`]), and the control plane — setup, barriers and
//! error/panic propagation ([`Frame`]); a connection ends with EOF.
//!
//! Design constraints (see `docs/ARCHITECTURE.md` for the full contract):
//!
//! * **Versioned.** Every frame header carries [`PROTOCOL_VERSION`]; a
//!   peer speaking another revision is rejected on its first frame
//!   (`Setup`) with
//!   [`WireError::VersionMismatch`] — never interpreted.
//! * **Bounded.** Payload lengths are capped at [`MAX_PAYLOAD`] and every
//!   collection length is validated against the bytes actually present
//!   before allocation, so hostile input cannot trigger OOM.
//! * **Total decoding.** `decode ∘ encode = id` for every frame (pinned by
//!   a proptest suite), and decoding arbitrary bytes returns an error —
//!   it never panics and never reads past the declared payload.
//! * **Bit-exact.** Floats travel as IEEE-754 bit patterns, so results
//!   computed by a remote shard are byte-identical to local execution.
//!
//! The crate deliberately knows nothing about sockets or threads; framed
//! I/O over any `Read + Write` pair is provided by [`read_frame`] /
//! [`write_frame`], and the execution engine layers its socket
//! `Connection` on top.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod codec;
mod error;
mod frame;

pub use error::WireError;
pub use frame::{
    read_frame, write_frame, Frame, WireItem, WireLate, WireOutput, WireQuery, WireStream, WireSub,
    WireTask, HEADER_LEN, MAGIC, MAX_PAYLOAD, PROTOCOL_VERSION,
};
