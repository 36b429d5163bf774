//! The shard transport subsystem: how epochs and barriers cross a shard
//! boundary.
//!
//! The resident pool (`ExecutionBackend::Pool`) moves epoch-tagged tasks
//! through std channels; this module generalizes that exchange to a peer
//! that lives behind a socket, using the versioned frame codec of the
//! `mswj-wire` crate.  Three layers:
//!
//! * [`Connection`] — a blocking, bidirectional frame channel to one shard
//!   server, with transport counters (frames and bytes both ways).
//!   Every [`Endpoint`] is a socket: [`Endpoint::InProc`] is one end of
//!   a `UnixStream::pair()` whose other end a local
//!   `mswj-inproc-shard` thread serves, the others a Unix-domain or TCP
//!   socket to an `mswj-shardd` process, dialled with retry (bounded by
//!   a connect timeout).  Reads carry a [`DEFAULT_READ_TIMEOUT`], so a
//!   silent peer surfaces as an error, never as a hang.  The private
//!   `Framed` adapter turns any `Read + Write` byte stream into frames; it
//!   is generic so a stream wrapper (a fault injector, say) can slot under
//!   it.
//! * `server` — the passive side: one [`MswjOperator`] per connection,
//!   driven by Setup/Task/Barrier frames.  [`serve_stream`] serves
//!   the in-process thread and every connection `mswj-shardd` accepts.
//! * `remote` (engine-internal) — the active side: one link per shard,
//!   reusing the engine's epoch/barrier pipeline so checkpoints and
//!   K-changes stay byte-identical to local execution.
//!
//! ## Failure model
//!
//! A remote panic travels back as an error frame and is re-raised on the
//! caller thread as [`EngineError::RemotePanic`] — the same surface the
//! pool gives via `resume_unwind`.  A dead or silent peer becomes
//! [`EngineError::ShardLost`] within the read timeout, on every endpoint
//! alike: EOF, `EPIPE` or a timed-out read.  Every frame header carries
//! the protocol version, so a peer speaking a different revision is
//! rejected on its first frame (`Setup`) with
//! [`EngineError::VersionMismatch`].  See `docs/ARCHITECTURE.md` for the
//! full contract.
//!
//! [`MswjOperator`]: mswj_join::MswjOperator

mod server;

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
pub(crate) const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

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
pub(crate) struct TransportCounters {
    /// Frames written to the peer.
    pub(crate) frames_sent: u64,
    /// Frames read from the peer.
    pub(crate) frames_received: u64,
    /// Encoded bytes written, headers included.
    pub(crate) bytes_sent: u64,
    /// Encoded bytes read, headers included.
    pub(crate) bytes_received: u64,
}

/// Frame-layer adapter over any blocking byte stream: encodes into (and
/// decodes out of) one reused scratch buffer and counts traffic.  Both
/// [`Connection`] and the shard server are built on it.
pub(crate) struct Framed<S> {
    stream: S,
    scratch: Vec<u8>,
    counters: TransportCounters,
}

impl<S: Read + Write> Framed<S> {
    /// Wraps a connected byte stream.
    pub(crate) fn new(stream: S) -> Self {
        Framed {
            stream,
            scratch: Vec::new(),
            counters: TransportCounters::default(),
        }
    }

    /// Writes one frame and flushes the stream.
    pub(crate) fn send(&mut self, frame: &Frame) -> Result<(), WireError> {
        let n = write_frame(&mut self.stream, frame, &mut self.scratch)?;
        self.counters.frames_sent += 1;
        self.counters.bytes_sent += n as u64;
        Ok(())
    }

    /// Reads exactly one frame.
    pub(crate) fn recv(&mut self) -> Result<Frame, WireError> {
        let (frame, n) = read_frame(&mut self.stream, &mut self.scratch)?;
        self.counters.frames_received += 1;
        self.counters.bytes_received += n as u64;
        Ok(frame)
    }

    /// Snapshot of the traffic counters.
    pub(crate) fn counters(&self) -> TransportCounters {
        self.counters
    }

    /// Mutable access to the underlying stream (timeout configuration).
    pub(crate) fn stream_mut(&mut self) -> &mut S {
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
    pub(crate) fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), WireError> {
        Ok(self.framed.stream_mut().set_read_timeout(timeout)?)
    }

    /// Snapshot of the frame/byte counters.
    pub(crate) fn counters(&self) -> TransportCounters {
        self.framed.counters()
    }

    /// The endpoint this connection reaches, for diagnostics.
    pub(crate) fn endpoint(&self) -> &Endpoint {
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
/// [`Endpoint::InProc`], dialling otherwise — retrying until the connect
/// timeout and starting with the [`DEFAULT_READ_TIMEOUT`].
/// Every failure, a failed server spawn included, is an `Err`.  Sending
/// `Setup` is the caller's job.
pub fn connect(endpoint: &Endpoint) -> Result<Connection, WireError> {
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    let (stream, server) = loop {
        let opened = match endpoint {
            Endpoint::InProc => {
                spawn_in_process().map(|(s, server)| (Stream::Uds(s), Some(server)))
            }
            Endpoint::Uds(path) => UnixStream::connect(path).map(|s| (Stream::Uds(s), None)),
            Endpoint::Tcp(addr) => TcpStream::connect(addr).map(|s| {
                // See `serve_tcp`: without it every frame waits out a
                // delayed ACK; a failure costs latency, not correctness.
                let _ = s.set_nodelay(true);
                (Stream::Tcp(s), None)
            }),
        };
        match opened {
            Ok(opened) => break opened,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => return Err(WireError::Io(e)),
        }
    };
    let mut connection = Connection {
        framed: Framed::new(stream),
        endpoint: endpoint.clone(),
        server,
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
    use mswj_wire::{
        WireItem, WireLate, WireQuery, WireStream, WireSub, WireTask, PROTOCOL_VERSION,
    };

    /// A socket pair with [`serve_stream`] on a thread behind one end.
    fn served_pair() -> (UnixStream, std::thread::JoinHandle<Result<(), WireError>>) {
        let (client, server_end) = UnixStream::pair().unwrap();
        (
            client,
            std::thread::spawn(move || serve_stream(server_end, None)),
        )
    }

    #[test]
    fn inproc_transport_answers_setup_and_counts_traffic() {
        let mut t = connect(&Endpoint::InProc).unwrap();
        t.send(&Frame::Setup(two_stream_query())).unwrap();
        assert!(matches!(t.recv().unwrap(), Frame::SetupAck));
        let c = t.counters();
        assert_eq!((c.frames_sent, c.frames_received), (1, 1));
        assert!(c.bytes_sent > 12 && c.bytes_received >= 12, "{c:?}");
        assert_eq!(t.endpoint().to_string(), "inproc");
    }

    #[test]
    fn server_rejects_a_foreign_protocol_version() {
        // A `Setup` frame whose header claims another protocol version —
        // one past ours, or the version before the greeting left (10) —
        // gets the version-mismatch error frame, and nothing is built.
        for foreign in [PROTOCOL_VERSION + 1, 10] {
            let (mut client, handle) = served_pair();
            let mut raw = Vec::new();
            Frame::Setup(two_stream_query()).encode(&mut raw);
            raw[4..6].copy_from_slice(&foreign.to_le_bytes());
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
                other => panic!("[{foreign}] expected an error frame, got {other:?}"),
            }
            match handle.join().unwrap() {
                Err(WireError::VersionMismatch { ours, theirs }) => {
                    assert_eq!(ours, PROTOCOL_VERSION);
                    assert_eq!(theirs, foreign);
                }
                other => panic!("[{foreign}] expected a version mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_client_gone_before_its_output_is_an_orderly_close() {
        // A client dropped mid-epoch: it sends `Setup` and a task whose
        // `Output` (13 bytes an item) outgrows the socket buffer, then
        // closes without reading it.  The server's write fails on the
        // disconnect, and that is the end of the session, not a failure.
        let (client, handle) = served_pair();
        let mut framed = Framed::new(client);
        framed.send(&Frame::Setup(two_stream_query())).unwrap();
        assert!(matches!(framed.recv().unwrap(), Frame::SetupAck));
        let items = (0..50_000u32)
            .map(|seq| WireItem {
                seq,
                probe: true,
                tuple: Tuple::new(
                    (seq as usize % 2).into(),
                    u64::from(seq),
                    Timestamp::from_millis(u64::from(seq / 2)),
                    vec![Value::Int(i64::from(seq % 64))],
                ),
            })
            .collect();
        framed
            .send(&Frame::Task(WireTask {
                epoch: 1,
                routing_epoch: 0,
                items,
            }))
            .unwrap();
        drop(framed);
        assert!(
            matches!(handle.join().expect("connection thread"), Ok(())),
            "a disconnect mid-reply closes cleanly"
        );
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
            segment_capacity: 1_024,
        }
    }

    #[test]
    fn server_answers_a_retired_frame_type_with_an_error_frame() {
        // The star pair switch's frame types (class data, adopt, ack,
        // window fetch, retain) left the protocol in version 7.  A
        // current-version header carrying one, sent to a live server, is
        // undecodable: the server names the type byte in an error frame and
        // returns from the connection instead of panicking.
        // So are the greeting and the close handshake (hello, hello-ack,
        // shutdown, shutdown-ack), gone since version 11.
        for retired in [0x0Au8, 0x0B, 0x0D, 0x11, 0x12, 0x01, 0x02, 0x0F, 0x10] {
            let (mut client, handle) = served_pair();
            let mut scratch = Vec::new();
            write_frame(&mut client, &Frame::Setup(two_stream_query()), &mut scratch).unwrap();
            let (ack, _) = read_frame(&mut client, &mut scratch).unwrap();
            assert!(matches!(ack, Frame::SetupAck), "{retired:#04x}: {ack:?}");
            let mut raw = Vec::new();
            Frame::SetupAck.encode(&mut raw);
            raw[6] = retired;
            client.write_all(&raw).unwrap();
            match read_frame(&mut client, &mut scratch) {
                Ok((Frame::Error { message }, _)) => assert!(
                    message.contains(&format!("unknown frame type {retired:#04x}")),
                    "{retired:#04x}: {message}"
                ),
                other => panic!("{retired:#04x}: expected an error frame, got {other:?}"),
            }
            let served = handle
                .join()
                .unwrap_or_else(|_| panic!("{retired:#04x}: the connection thread panicked"));
            assert!(
                matches!(served, Err(WireError::Corrupt(_))),
                "{retired:#04x}: {served:?}"
            );
        }
    }

    #[test]
    fn server_validates_a_whole_task_before_draining_it() {
        let tuple = |stream: usize| {
            Tuple::new(
                stream.into(),
                0,
                Timestamp::from_millis(5),
                vec![Value::Int(1)],
            )
        };
        let (client, handle) = served_pair();
        let mut framed = Framed::new(client);
        framed.send(&Frame::Setup(two_stream_query())).unwrap();
        assert!(matches!(framed.recv().unwrap(), Frame::SetupAck));
        let items = [tuple(0), tuple(5)]
            .into_iter()
            .zip(7..)
            .map(|(tuple, seq)| WireItem {
                seq,
                probe: true,
                tuple,
            })
            .collect();
        framed
            .send(&Frame::Task(WireTask {
                epoch: 1,
                routing_epoch: 0,
                items,
            }))
            .unwrap();
        match framed.recv() {
            Ok(Frame::Error { message }) => assert!(
                message.contains("task item 1 (seq 8): stream index 5"),
                "{message}"
            ),
            other => panic!("expected an error frame, got {other:?}"),
        }
        let served = handle.join().expect("the connection thread panicked");
        assert!(served.is_ok(), "client errors close cleanly");
    }

    #[test]
    fn server_counts_late_items_under_their_bounds_and_refuses_unpaired_ones() {
        let tuple = |stream: usize, ts: u64| {
            Tuple::new(
                stream.into(),
                0,
                Timestamp::from_millis(ts),
                vec![Value::Int(1)],
            )
        };
        let item = |seq: u32, probe: bool, tuple: Tuple| WireItem { seq, probe, tuple };
        let task = |epoch: u64, items: Vec<WireItem>| {
            Frame::Task(WireTask {
                epoch,
                routing_epoch: 0,
                items,
            })
        };
        let bounds = |epoch: u64, seq: u32, on_t: u64| Frame::LateBounds {
            epoch,
            late: vec![WireLate {
                seq,
                on_t: Timestamp::from_millis(on_t),
            }],
        };
        let setup = || {
            let (client, handle) = served_pair();
            let mut framed = Framed::new(client);
            framed.send(&Frame::Setup(two_stream_query())).unwrap();
            assert!(matches!(framed.recv().unwrap(), Frame::SetupAck));
            (framed, handle)
        };
        let refused = |framed: &mut Framed<UnixStream>, want: &str| match framed.recv() {
            Ok(Frame::Error { message }) => assert!(message.contains(want), "{message}"),
            other => panic!("expected an error frame naming {want:?}, got {other:?}"),
        };

        // Two S1 rows at 100 and 200; an S2 row at 250, late under a global
        // onT of 1 150, counts the one S1 row at or above 1 150 − 1 000.
        let (mut framed, handle) = setup();
        let rows = vec![item(0, true, tuple(0, 100)), item(1, true, tuple(0, 200))];
        framed.send(&task(1, rows)).unwrap();
        assert!(matches!(framed.recv().unwrap(), Frame::Output(_)));
        framed.send(&bounds(2, 0, 1_150)).unwrap();
        framed
            .send(&task(2, vec![item(0, false, tuple(1, 250))]))
            .unwrap();
        match framed.recv().unwrap() {
            Frame::Output(out) => assert_eq!(
                out.sub,
                [WireSub {
                    seq: 0,
                    n_join: 1,
                    indexed: false
                }]
            ),
            other => panic!("expected an output frame, got {other:?}"),
        }
        // An S2 row at 130 is out of scope under the same onT
        // (130 < 1 150 − 1 000): the shard makes the scope check itself,
        // counts the same S1 row, and drops the tuple.
        framed.send(&bounds(3, 0, 1_150)).unwrap();
        framed
            .send(&task(3, vec![item(0, false, tuple(1, 130))]))
            .unwrap();
        match framed.recv().unwrap() {
            Frame::Output(out) => {
                assert_eq!(out.sub.iter().map(|s| s.n_join).collect::<Vec<_>>(), [1])
            }
            other => panic!("expected an output frame, got {other:?}"),
        }
        framed.send(&Frame::Barrier { token: 3 }).unwrap();
        match framed.recv().unwrap() {
            Frame::BarrierAck { stats, .. } => {
                assert_eq!((stats.out_of_order, stats.dropped), (2, 1));
            }
            other => panic!("expected a barrier ack, got {other:?}"),
        }
        // A late item whose bound never came is refused.
        framed
            .send(&task(4, vec![item(4, false, tuple(1, 260))]))
            .unwrap();
        refused(
            &mut framed,
            "task item 0 (seq 4): a late item without its onT bound",
        );
        assert!(handle.join().expect("connection thread").is_ok());

        // So are a bound naming no late item, bounds of another epoch, and
        // a second set of bounds before the first one's task.
        let cases: [(Vec<Frame>, &str); 3] = [
            (
                vec![bounds(1, 9, 500), task(1, vec![item(9, true, tuple(0, 5))])],
                "a late bound for seq 9 names no late item",
            ),
            (
                vec![
                    bounds(2, 0, 500),
                    task(1, vec![item(0, false, tuple(1, 5))]),
                ],
                "late bounds of epoch 2 ahead of a task of epoch 1",
            ),
            (
                vec![bounds(1, 0, 500), bounds(1, 0, 500)],
                "while an earlier set awaits its task",
            ),
        ];
        for (frames, want) in cases {
            let (mut framed, handle) = setup();
            for frame in &frames {
                framed.send(frame).unwrap();
            }
            refused(&mut framed, want);
            assert!(handle.join().expect("connection thread").is_ok(), "{want}");
        }
    }

    #[test]
    fn server_answers_an_out_of_range_segment_capacity_with_an_error_frame() {
        // The capacity is a Setup field like any other: a value the query
        // setter would clamp is refused with an error frame, the bounds
        // themselves are accepted.
        for (capacity, accepted) in [(0, false), (1, false), (2, true), (1 << 31, true)]
            .into_iter()
            .chain([((1 << 31) + 1, false), (u32::MAX, false)])
        {
            let (client, handle) = served_pair();
            let mut framed = Framed::new(client);
            let setup = WireQuery {
                segment_capacity: capacity,
                ..two_stream_query()
            };
            framed.send(&Frame::Setup(setup)).unwrap();
            match framed.recv() {
                Ok(Frame::SetupAck) if accepted => drop(framed),
                Ok(Frame::Error { message }) if !accepted => assert!(
                    message.contains(&format!("segment capacity {capacity} out of range")),
                    "[{capacity}] {message}"
                ),
                other => panic!("[{capacity}] accepted {accepted}, got {other:?}"),
            }
            let served = handle
                .join()
                .unwrap_or_else(|_| panic!("[{capacity}] the connection thread panicked"));
            assert!(served.is_ok(), "[{capacity}] the connection closes cleanly");
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
        drop(framed);
        assert!(handle.join().unwrap().is_ok(), "EOF ends the session");
    }

    #[test]
    fn a_refused_request_ends_the_session() {
        let mut t = connect(&Endpoint::InProc).unwrap();
        t.send(&Frame::Barrier { token: 1 }).unwrap();
        assert!(matches!(t.recv().unwrap(), Frame::BarrierAck { .. }));
        t.send(&Frame::SetupAck).unwrap();
        assert!(matches!(t.recv().unwrap(), Frame::Error { .. }));
        // The server has hung up: EOF on a read, `EPIPE` on a write.
        assert!(t.recv().unwrap_err().is_disconnect());
        assert!(t
            .send(&Frame::Barrier { token: 2 })
            .unwrap_err()
            .is_disconnect());
    }

    #[test]
    fn a_silent_inproc_peer_times_out() {
        let mut t = connect(&Endpoint::InProc).unwrap();
        t.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
        assert!(t.recv().unwrap_err().is_timeout(), "nothing was asked");
    }
}
