//! The shard transport subsystem: how epochs, barriers and hot-key state
//! migrations cross a shard boundary.
//!
//! The resident pool (`ExecutionBackend::Pool`) moves epoch-tagged tasks
//! through in-memory SPSC channels; this module generalizes that exchange to a
//! peer that lives behind a byte stream, using the versioned frame codec
//! of the `mswj-wire` crate.  Three layers:
//!
//! * [`Transport`] — a blocking, bidirectional frame channel to one shard
//!   server, with [`TransportCounters`] (frames/bytes both ways, reconnect
//!   count) maintained by every implementation.  [`Framed`] adapts any
//!   `Read + Write` byte stream into the frame layer and is the shared
//!   substance of both implementations:
//!   - [`inproc::InProc`] hosts the shard server on a **local thread**
//!     connected through in-memory duplex pipes — every message still
//!     round-trips through the full encode/decode path, which is what lets
//!     the differential test matrix prove serialization without sockets.
//!   - [`socket::Socket`] connects over a Unix-domain socket or TCP to an
//!     `mswj-shardd` shard-server process, with connect retry (bounded by
//!     [`CONNECT_TIMEOUT`]) and a [`DEFAULT_READ_TIMEOUT`] so a silent
//!     peer surfaces as an error, never as a hang.
//! * [`server`] — the passive side: one [`MswjOperator`] per connection,
//!   driven by Setup/Task/Barrier/surgery frames (the `mswj-shardd` binary
//!   is a thin accept-loop around [`server::serve_stream`]).
//! * `remote` (engine-internal) — the active side: one link per shard,
//!   reusing the engine's epoch/barrier pipeline so checkpoints, K-changes
//!   and skew transitions stay byte-identical to local execution.
//!
//! ## Failure model
//!
//! A remote panic travels back as an error frame and is re-raised on the
//! caller thread as [`EngineError::RemotePanic`] — the same surface the
//! pool gives via `resume_unwind`.  A dead or silent peer becomes
//! [`EngineError::ShardLost`] within the read timeout; a peer speaking a
//! different protocol revision is rejected on its first frame with
//! [`EngineError::VersionMismatch`].  See `docs/ARCHITECTURE.md` for the
//! full contract.
//!
//! [`MswjOperator`]: mswj_join::MswjOperator

pub mod inproc;
pub mod server;
pub mod socket;

mod remote;

pub(in crate::engine) use remote::RemoteShards;
pub use server::{
    serve_stream, serve_stream_with, serve_tcp, serve_tcp_with, serve_uds, serve_uds_with,
};

use mswj_wire::{read_frame, write_frame, Frame, WireError};
use std::io::{Read, Write};
use std::time::Duration;

/// How long a transport waits for the peer's next frame before declaring
/// the shard lost.  Epoch execution is bounded by batch size, so a silent
/// peer past this deadline is gone, not slow.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Deadline for establishing a socket connection, including retries —
/// generous enough to cover a shard server that is still binding.
pub const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Read timeout applied to the best-effort shutdown handshake; a peer that
/// never acks is abandoned rather than waited on.
pub(in crate::engine) const SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(1);

/// Where a remote shard lives.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A shard server hosted on a thread of this process, connected
    /// through in-memory duplex buffers.  Frames still travel through the
    /// full wire codec, so this proves serialization on any workload
    /// without touching the network stack.
    InProc,
    /// A Unix-domain socket path served by `mswj-shardd --uds <path>`.
    Uds(std::path::PathBuf),
    /// A TCP address (`host:port`) served by `mswj-shardd --tcp <addr>`.
    Tcp(String),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::InProc => write!(f, "inproc"),
            Endpoint::Uds(path) => write!(f, "uds:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// Typed failures of the remote execution backend.
///
/// Mid-stream failures are raised as panics carrying this type (mirroring
/// how the resident pool re-raises a worker panic via `resume_unwind`), so
/// a harness can `catch_unwind` and downcast to tell a lost shard from a
/// remote operator panic.  Connection-time failures surface as
/// `Error::InvalidConfig` from the engine constructor instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The peer disconnected, timed out or sent undecodable bytes while an
    /// operation was in flight.
    ShardLost {
        /// Index of the affected shard.
        shard: usize,
        /// Human-readable cause (endpoint plus the transport error).
        detail: String,
    },
    /// The remote shard operator panicked; the panic text crossed the wire
    /// as an error frame.
    RemotePanic {
        /// Index of the affected shard.
        shard: usize,
        /// The remote panic payload, rendered to text.
        message: String,
    },
    /// The peer speaks a different protocol revision.
    VersionMismatch {
        /// The protocol version this build speaks.
        ours: u16,
        /// The version the peer declared.
        theirs: u16,
    },
    /// The peer answered with a frame the protocol does not allow in the
    /// current state.
    Protocol {
        /// Index of the affected shard.
        shard: usize,
        /// What was expected and what arrived.
        detail: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ShardLost { shard, detail } => {
                write!(f, "shard {shard} lost: {detail}")
            }
            EngineError::RemotePanic { shard, message } => {
                write!(f, "shard {shard} panicked remotely: {message}")
            }
            EngineError::VersionMismatch { ours, theirs } => write!(
                f,
                "protocol version mismatch: we speak {ours}, the peer speaks {theirs}"
            ),
            EngineError::Protocol { shard, detail } => {
                write!(f, "protocol violation on shard {shard}: {detail}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Frame and byte counters every [`Transport`] maintains, surfaced through
/// the engine's per-shard `ShardRuntimeStats`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TransportCounters {
    /// Frames written to the peer.
    pub frames_sent: u64,
    /// Frames read from the peer.
    pub frames_received: u64,
    /// Encoded bytes written, headers included.
    pub bytes_sent: u64,
    /// Encoded bytes read, headers included.
    pub bytes_received: u64,
    /// Connection attempts beyond the first while establishing the link.
    pub reconnects: u64,
}

/// A blocking, bidirectional frame channel to one shard server.
pub trait Transport: Send {
    /// Writes one frame and flushes it.
    fn send(&mut self, frame: &Frame) -> Result<(), WireError>;
    /// Reads the next frame, honouring the configured read timeout.
    fn recv(&mut self) -> Result<Frame, WireError>;
    /// (Re)configures the read timeout; `None` blocks indefinitely.
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), WireError>;
    /// Snapshot of the frame/byte counters.
    fn counters(&self) -> TransportCounters;
    /// Human-readable endpoint description for diagnostics.
    fn describe(&self) -> String;
}

/// Frame-layer adapter over any blocking byte stream: encodes into (and
/// decodes out of) one reused scratch buffer and counts traffic.  Both
/// transport implementations and the shard server are built on it.
pub struct Framed<S> {
    stream: S,
    scratch: Vec<u8>,
    counters: TransportCounters,
}

impl<S: Read + Write> Framed<S> {
    /// Wraps a connected byte stream.
    pub fn new(stream: S) -> Self {
        Framed {
            stream,
            scratch: Vec::new(),
            counters: TransportCounters::default(),
        }
    }

    /// Writes one frame and flushes the stream.
    pub fn send(&mut self, frame: &Frame) -> Result<(), WireError> {
        let n = write_frame(&mut self.stream, frame, &mut self.scratch)?;
        self.counters.frames_sent += 1;
        self.counters.bytes_sent += n as u64;
        Ok(())
    }

    /// Reads exactly one frame.
    pub fn recv(&mut self) -> Result<Frame, WireError> {
        let (frame, n) = read_frame(&mut self.stream, &mut self.scratch)?;
        self.counters.frames_received += 1;
        self.counters.bytes_received += n as u64;
        Ok(frame)
    }

    /// Snapshot of the traffic counters.
    pub fn counters(&self) -> TransportCounters {
        self.counters
    }

    /// Mutable access to the underlying stream (timeout configuration).
    pub fn stream_mut(&mut self) -> &mut S {
        &mut self.stream
    }
}

/// Opens a transport to `endpoint`: an [`inproc::InProc`] server thread for
/// [`Endpoint::InProc`], a retrying [`socket::Socket`] otherwise.  The
/// protocol handshake (hello + setup) is the caller's job.
pub fn connect(endpoint: &Endpoint) -> Result<Box<dyn Transport>, WireError> {
    match endpoint {
        Endpoint::InProc => Ok(Box::new(inproc::InProc::spawn())),
        Endpoint::Uds(_) | Endpoint::Tcp(_) => Ok(Box::new(socket::Socket::connect(
            endpoint,
            CONNECT_TIMEOUT,
        )?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mswj_join::{ConditionDescriptor, ProbeStrategy};
    use mswj_types::{FieldType, Timestamp, Tuple, Value};
    use mswj_wire::{WireQuery, WireStream, WireTask, PROTOCOL_VERSION};

    #[test]
    fn inproc_transport_answers_hello_and_counts_traffic() {
        let mut t = connect(&Endpoint::InProc).unwrap();
        t.send(&Frame::Hello).unwrap();
        assert!(matches!(t.recv().unwrap(), Frame::HelloAck));
        let c = t.counters();
        assert_eq!((c.frames_sent, c.frames_received), (1, 1));
        assert!(c.bytes_sent >= 12 && c.bytes_received >= 12, "{c:?}");
        assert_eq!(t.describe(), "inproc");
    }

    #[test]
    fn server_rejects_a_foreign_protocol_version() {
        let (mut client, server_end) = inproc::duplex();
        let handle = std::thread::spawn(move || serve_stream(server_end));
        // A hand-built hello header claiming a protocol version one past ours.
        let foreign = PROTOCOL_VERSION + 1;
        let mut raw = Vec::new();
        raw.extend_from_slice(b"MSWJ");
        raw.extend_from_slice(&foreign.to_le_bytes());
        raw.push(0x01); // hello
        raw.push(0);
        raw.extend_from_slice(&0u32.to_le_bytes());
        client.write_all(&raw).unwrap();
        let mut framed = Framed::new(client);
        match framed.recv().unwrap() {
            Frame::Error { message } => {
                assert!(message.contains("version mismatch"), "{message}");
                assert!(
                    message.contains(&format!("client sent {foreign}")),
                    "{message}"
                );
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
        match handle.join().unwrap() {
            Err(WireError::VersionMismatch { ours, theirs }) => {
                assert_eq!(ours, PROTOCOL_VERSION);
                assert_eq!(theirs, foreign);
            }
            other => panic!("expected a version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn server_errors_on_a_task_before_setup() {
        let (client, server_end) = inproc::duplex();
        let handle = std::thread::spawn(move || serve_stream(server_end));
        let mut framed = Framed::new(client);
        framed
            .send(&Frame::Task(WireTask {
                epoch: 1,
                routing_epoch: 0,
                items: Vec::new(),
            }))
            .unwrap();
        match framed.recv().unwrap() {
            Frame::Error { message } => assert!(message.contains("before setup"), "{message}"),
            other => panic!("expected an error frame, got {other:?}"),
        }
        assert!(
            handle.join().unwrap().is_ok(),
            "client errors close cleanly"
        );
    }

    fn two_stream_query() -> WireQuery {
        let stream = |name: &str| WireStream {
            name: name.into(),
            fields: vec![("a1".into(), FieldType::Int)],
            window: 1_000,
        };
        WireQuery {
            name: "malformed".into(),
            streams: vec![stream("S1"), stream("S2")],
            condition: ConditionDescriptor::CommonKey {
                columns: vec![0, 0],
            },
            strategy: ProbeStrategy::Auto,
            enumerate: false,
        }
    }

    #[test]
    fn server_answers_out_of_range_surgery_frames_with_an_error_frame() {
        let tuple = |stream: usize| {
            Tuple::new(
                stream.into(),
                0,
                Timestamp::from_millis(5),
                vec![Value::Int(1)],
            )
        };
        // (malformed frame, what the error must name)
        let cases = [
            (Frame::FetchWindow { stream: 9 }, "stream index 9"),
            (
                Frame::FetchClass {
                    stream: 9,
                    column: 0,
                    key_hash: 1,
                },
                "stream index 9",
            ),
            (
                Frame::PurgeClass {
                    stream: 2,
                    column: 0,
                    key_hash: 1,
                },
                "stream index 2",
            ),
            (
                Frame::Retain {
                    stream: 9,
                    column: 0,
                    shards: 2,
                    keep: 0,
                },
                "stream index 9",
            ),
            (
                Frame::Retain {
                    stream: 0,
                    column: 0,
                    shards: 0,
                    keep: 0,
                },
                "keep 0 of 0 shards",
            ),
            (
                Frame::Retain {
                    stream: 0,
                    column: 0,
                    shards: 2,
                    keep: 2,
                },
                "keep 2 of 2 shards",
            ),
            (
                Frame::Adopt {
                    tuples: vec![tuple(1), tuple(7)],
                },
                "adopted tuple",
            ),
            (
                Frame::Revise {
                    order: vec![0, 0],
                    demote: false,
                },
                "probe order",
            ),
            (
                Frame::Revise {
                    order: vec![0, 1, 2],
                    demote: true,
                },
                "probe order",
            ),
        ];
        for (frame, names) in cases {
            let label = format!("{frame:?}");
            let (client, server_end) = inproc::duplex();
            let handle = std::thread::spawn(move || serve_stream(server_end));
            let mut framed = Framed::new(client);
            framed.send(&Frame::Setup(two_stream_query())).unwrap();
            assert!(matches!(framed.recv().unwrap(), Frame::SetupAck));
            framed.send(&frame).unwrap();
            match framed.recv() {
                Ok(Frame::Error { message }) => {
                    assert!(message.contains(names), "[{label}] {message}")
                }
                other => panic!("[{label}] expected an error frame, got {other:?}"),
            }
            let served = handle
                .join()
                .unwrap_or_else(|_| panic!("[{label}] the connection thread panicked"));
            assert!(served.is_ok(), "[{label}] client errors close cleanly");
        }
    }

    #[test]
    fn shutdown_handshake_ends_the_session() {
        let mut t = connect(&Endpoint::InProc).unwrap();
        t.send(&Frame::Shutdown).unwrap();
        assert!(matches!(t.recv().unwrap(), Frame::ShutdownAck));
    }
}
