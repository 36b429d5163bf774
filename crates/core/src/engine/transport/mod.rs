//! The shard transport subsystem: how epochs, barriers and hot-key state
//! migrations cross a shard boundary.
//!
//! The resident pool (`ExecutionBackend::Pool`) moves epoch-tagged tasks
//! through std channels; this module generalizes that exchange to a peer
//! that lives behind a socket, using the versioned frame codec of the
//! `mswj-wire` crate.  Three layers:
//!
//! * [`Connection`] — a blocking, bidirectional frame channel to one shard
//!   server, with [`TransportCounters`] (frames/bytes both ways, reconnect
//!   count).  Every [`Endpoint`] is a socket: [`Endpoint::InProc`] is one
//!   end of a `UnixStream::pair()` whose other end a local
//!   `mswj-inproc-shard` thread serves, the others a Unix-domain or TCP
//!   socket to an `mswj-shardd` process, dialled with retry (bounded by
//!   [`CONNECT_TIMEOUT`]).  Reads carry a [`DEFAULT_READ_TIMEOUT`], so a
//!   silent peer surfaces as an error, never as a hang.  [`Framed`]
//!   adapts any `Read + Write` byte stream into the frame layer; it is
//!   generic so a stream wrapper (a fault injector, say) can slot under it.
//! * [`server`] — the passive side: one [`MswjOperator`] per connection,
//!   driven by Setup/Task/Barrier/surgery frames.  [`serve_stream`] serves
//!   the in-process thread and every connection `mswj-shardd` accepts.
//! * `remote` (engine-internal) — the active side: one link per shard,
//!   reusing the engine's epoch/barrier pipeline so checkpoints, K-changes
//!   and skew transitions stay byte-identical to local execution.
//!
//! ## Failure model
//!
//! A remote panic travels back as an error frame and is re-raised on the
//! caller thread as [`EngineError::RemotePanic`] — the same surface the
//! pool gives via `resume_unwind`.  A dead or silent peer becomes
//! [`EngineError::ShardLost`] within the read timeout, on every endpoint
//! alike: EOF, `EPIPE` or a timed-out read.  A peer speaking a different
//! protocol revision is rejected on its first frame with
//! [`EngineError::VersionMismatch`].  See `docs/ARCHITECTURE.md` for the
//! full contract.
//!
//! [`MswjOperator`]: mswj_join::MswjOperator

pub mod server;

mod remote;

pub(in crate::engine) use remote::RemoteShards;
pub use server::{serve_stream, serve_tcp, serve_uds};

use mswj_wire::{read_frame, write_frame, Frame, WireError};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
    /// through a Unix socket pair.  Frames travel through the full wire
    /// codec and the kernel, so this proves serialization on any workload
    /// without a listener, a socket file or a second process.
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

/// Frame and byte counters every [`Connection`] maintains, surfaced through
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

/// Frame-layer adapter over any blocking byte stream: encodes into (and
/// decodes out of) one reused scratch buffer and counts traffic.  Both
/// [`Connection`] and the shard server are built on it.
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

/// The socket under a [`Connection`].
enum Stream {
    Uds(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Uds(s) => s.set_read_timeout(timeout),
            Stream::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    fn shutdown(&self) -> io::Result<()> {
        match self {
            Stream::Uds(s) => s.shutdown(Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Uds(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Uds(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Uds(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// A blocking, bidirectional frame channel to one shard server — the
/// client half of every [`Endpoint`], opened by [`connect`].
pub struct Connection {
    framed: Framed<Stream>,
    endpoint: Endpoint,
    /// The `mswj-inproc-shard` thread serving the other end of an
    /// [`Endpoint::InProc`] socket pair; shut down and joined on drop.
    server: Option<JoinHandle<()>>,
    /// Connection attempts beyond the first.
    reconnects: u64,
}

impl Connection {
    /// Writes one frame and flushes it.
    pub fn send(&mut self, frame: &Frame) -> Result<(), WireError> {
        self.framed.send(frame)
    }

    /// Reads the next frame, honouring the configured read timeout.
    pub fn recv(&mut self) -> Result<Frame, WireError> {
        self.framed.recv()
    }

    /// (Re)configures the read timeout; `None` blocks indefinitely.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), WireError> {
        Ok(self.framed.stream_mut().set_read_timeout(timeout)?)
    }

    /// Snapshot of the frame/byte counters.
    pub fn counters(&self) -> TransportCounters {
        TransportCounters {
            reconnects: self.reconnects,
            ..self.framed.counters()
        }
    }

    /// The endpoint this connection reaches, for diagnostics.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        // Shutting the socket down hands the in-process server EOF on its
        // next read and `EPIPE` on a blocked write, so the join cannot
        // hang; a panicking server thread is swallowed — the engine
        // already surfaced its failure as an error frame, if any.
        if let Some(server) = self.server.take() {
            let _ = self.framed.stream_mut().shutdown();
            let _ = server.join();
        }
    }
}

/// Opens a connection to `endpoint` — spawning the in-process server for
/// [`Endpoint::InProc`], dialling otherwise — retrying until
/// [`CONNECT_TIMEOUT`] and starting with the [`DEFAULT_READ_TIMEOUT`].
/// Every failure, a failed server spawn included, is an `Err`.  The
/// protocol handshake (hello + setup) is the caller's job.
pub fn connect(endpoint: &Endpoint) -> Result<Connection, WireError> {
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    let mut reconnects = 0;
    let (stream, server) = loop {
        let opened = match endpoint {
            Endpoint::InProc => {
                spawn_in_process().map(|(s, server)| (Stream::Uds(s), Some(server)))
            }
            Endpoint::Uds(path) => UnixStream::connect(path).map(|s| (Stream::Uds(s), None)),
            Endpoint::Tcp(addr) => TcpStream::connect(addr).map(|s| (Stream::Tcp(s), None)),
        };
        match opened {
            Ok(opened) => break opened,
            Err(_) if Instant::now() < deadline => {
                reconnects += 1;
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(WireError::Io(e)),
        }
    };
    let mut connection = Connection {
        framed: Framed::new(stream),
        endpoint: endpoint.clone(),
        server,
        reconnects,
    };
    connection.set_read_timeout(Some(DEFAULT_READ_TIMEOUT))?;
    Ok(connection)
}

/// One end of a fresh socket pair, and the `mswj-inproc-shard` thread
/// serving the other end with [`serve_stream`] — the body every
/// `mswj-shardd` connection runs.
fn spawn_in_process() -> io::Result<(UnixStream, JoinHandle<()>)> {
    let (client, served) = UnixStream::pair()?;
    let server = std::thread::Builder::new()
        .name("mswj-inproc-shard".into())
        .spawn(move || {
            let _ = serve_stream(served, None);
        })?;
    Ok((client, server))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mswj_join::{ConditionDescriptor, ProbeStrategy};
    use mswj_types::{FieldType, Timestamp, Tuple, Value};
    use mswj_wire::{WireItem, WireQuery, WireStream, WireTask, PROTOCOL_VERSION};

    /// A socket pair with [`serve_stream`] on a thread behind one end.
    fn served_pair() -> (UnixStream, std::thread::JoinHandle<Result<(), WireError>>) {
        let (client, server_end) = UnixStream::pair().unwrap();
        (
            client,
            std::thread::spawn(move || serve_stream(server_end, None)),
        )
    }

    #[test]
    fn inproc_transport_answers_hello_and_counts_traffic() {
        let mut t = connect(&Endpoint::InProc).unwrap();
        t.send(&Frame::Hello).unwrap();
        assert!(matches!(t.recv().unwrap(), Frame::HelloAck));
        let c = t.counters();
        assert_eq!((c.frames_sent, c.frames_received), (1, 1));
        assert!(c.bytes_sent >= 12 && c.bytes_received >= 12, "{c:?}");
        assert_eq!(c.reconnects, 0);
        assert_eq!(t.endpoint().to_string(), "inproc");
    }

    #[test]
    fn server_rejects_a_foreign_protocol_version() {
        let (mut client, handle) = served_pair();
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
        let (client, handle) = served_pair();
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
            // A task is validated whole before its first item is applied.
            (
                Frame::Task(WireTask {
                    epoch: 1,
                    routing_epoch: 0,
                    items: [tuple(0), tuple(5)]
                        .into_iter()
                        .zip(7..)
                        .map(|(tuple, seq)| WireItem {
                            seq,
                            probe: true,
                            tuple,
                        })
                        .collect(),
                }),
                "task item 1 (seq 8): stream index 5",
            ),
        ];
        for (frame, names) in cases {
            let label = format!("{frame:?}");
            let (client, handle) = served_pair();
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
    fn server_gauges_keep_the_lifetime_queue_high_water() {
        let telemetry = mswj_obs::Telemetry::new();
        let scope = telemetry.shard(0);
        let (client, server_end) = UnixStream::pair().unwrap();
        let handle = std::thread::spawn(move || serve_stream(server_end, Some(scope)));
        let mut framed = Framed::new(client);
        framed.send(&Frame::Setup(two_stream_query())).unwrap();
        assert!(matches!(framed.recv().unwrap(), Frame::SetupAck));
        let mut ts = 0;
        for (token, len) in [(1, 40), (2, 3)] {
            let items = (0..len)
                .map(|seq: u32| {
                    ts += 1;
                    let tuple = Tuple::new(
                        (seq as usize % 2).into(),
                        ts,
                        Timestamp::from_millis(ts),
                        vec![Value::Int(1)],
                    );
                    WireItem {
                        seq,
                        probe: true,
                        tuple,
                    }
                })
                .collect();
            framed
                .send(&Frame::Task(WireTask {
                    epoch: token,
                    routing_epoch: 0,
                    items,
                }))
                .unwrap();
            assert!(matches!(framed.recv().unwrap(), Frame::Output(_)));
            framed.send(&Frame::Barrier { token }).unwrap();
            assert!(matches!(framed.recv().unwrap(), Frame::BarrierAck { .. }));
        }
        let shard = telemetry.shard(0);
        assert_eq!(shard.queue_depth.get(), 40.0, "lifetime, not per-barrier");
        assert_eq!(shard.routed.get(), 43.0);
        assert_eq!(shard.epochs_executed.get(), 2.0);
        assert!(shard.window_bytes.get() > 0.0);
        framed.send(&Frame::Shutdown).unwrap();
        assert!(matches!(framed.recv().unwrap(), Frame::ShutdownAck));
        assert!(handle.join().unwrap().is_ok());
    }

    #[test]
    fn shutdown_handshake_ends_the_session() {
        let mut t = connect(&Endpoint::InProc).unwrap();
        t.send(&Frame::Shutdown).unwrap();
        assert!(matches!(t.recv().unwrap(), Frame::ShutdownAck));
        // The server has hung up: EOF on a read, `EPIPE` on a write.
        assert!(t.recv().unwrap_err().is_disconnect());
        assert!(t.send(&Frame::Hello).unwrap_err().is_disconnect());
    }

    #[test]
    fn a_silent_inproc_peer_times_out() {
        let mut t = connect(&Endpoint::InProc).unwrap();
        t.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
        assert!(t.recv().unwrap_err().is_timeout(), "nothing was asked");
    }
}
