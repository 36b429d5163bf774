//! The shard-server side of the wire protocol: one shard operator per
//! connection, driven entirely by frames.
//!
//! A connection's lifecycle is `Hello → Setup → (Task | Barrier | surgery
//! frames)* → Shutdown`.  The server is passive — it never initiates — and
//! every request gets exactly one reply, so the client can keep at most
//! one epoch in flight per connection and collect deterministically.  An
//! operator panic while draining a task is caught and shipped back as an
//! error frame (the connection then closes: after a panic the shard state
//! is unreliable, exactly like a retired pool worker).
//!
//! Surgery frames (`FetchClass`, `FetchWindow`, `Adopt`, `PurgeClass`,
//! `Retain`, `Revise`) take one path, `apply_surgery`: **validate, then
//! apply**.  Every index a frame carries is checked against the operator
//! built at `Setup` before anything is touched, and the body that runs is
//! the same `MswjOperator` method the engine's local backends call.  A
//! frame that fails validation — like any request before `Setup` — is
//! answered with an error frame naming the offending field, followed by an
//! orderly close; it never panics the connection thread.
//!
//! A `Task` frame follows the same rule: every item's stream index is
//! checked before the first item is drained.
//!
//! [`serve_stream`] serves one connection over any byte stream — the
//! in-process endpoint runs it over one end of a socket pair, the
//! `mswj-shardd` binary and benches over every connection [`serve_uds`] /
//! [`serve_tcp`] accept, one thread per connection.

use super::Framed;
use crate::engine::{exec, Item, ShardPublisher, ShardRuntimeStats, SubOutcome};
use mswj_join::{JoinQuery, JoinResult, MswjOperator};
use mswj_obs::{ShardInstruments, Telemetry};
use mswj_types::{Schema, StreamIndex, StreamSet, StreamSpec};
use mswj_wire::{Frame, WireError, WireOutput, WireQuery, WireTask};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Renders a caught panic payload the way `std::thread` would print it.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "shard operator panicked (non-string payload)".to_string()
    }
}

/// Instantiates the shard operator a [`Frame::Setup`] describes.
fn build_operator(q: &WireQuery) -> Result<MswjOperator, String> {
    let specs: Vec<StreamSpec> = q
        .streams
        .iter()
        .map(|s| StreamSpec::new(s.name.clone(), Schema::new(s.fields.clone()), s.window))
        .collect();
    let streams = StreamSet::new(specs).map_err(|e| e.to_string())?;
    let condition = q.condition.instantiate();
    let query = JoinQuery::new(q.name.clone(), streams, condition).map_err(|e| e.to_string())?;
    Ok(MswjOperator::with_probe(query, q.strategy, q.enumerate))
}

/// A wire stream index, checked against the operator's arity.
fn stream_of(op: &MswjOperator, stream: u64) -> Result<StreamIndex, String> {
    let m = op.query().arity();
    match usize::try_from(stream) {
        Ok(s) if s < m => Ok(StreamIndex(s)),
        _ => Err(format!(
            "stream index {stream} out of range for a {m}-stream query"
        )),
    }
}

/// A wire column index.  Any `usize` is safe — a column a tuple does not
/// have reads as a missing value — so only the conversion can fail.
fn column_of(column: u64) -> Result<usize, String> {
    usize::try_from(column).map_err(|_| format!("column index {column} overflows"))
}

/// Validates one surgery frame against `op`, applies it through the
/// operator's own surgery method, and returns the reply.  `Err` carries the
/// message of the error frame that ends the connection — for an index out
/// of range, or a frame no client may send — and nothing has been applied
/// when it is returned.
fn apply_surgery(op: &mut MswjOperator, frame: Frame) -> Result<Frame, String> {
    Ok(match frame {
        Frame::FetchClass {
            stream,
            column,
            key_hash,
        } => Frame::ClassData {
            tuples: op.fetch_class(stream_of(op, stream)?, column_of(column)?, key_hash),
        },
        Frame::FetchWindow { stream } => Frame::ClassData {
            tuples: op.fetch_window(stream_of(op, stream)?),
        },
        Frame::Adopt { tuples } => {
            for t in &tuples {
                stream_of(op, t.stream.as_usize() as u64)
                    .map_err(|why| format!("adopted tuple {t}: {why}"))?;
            }
            op.adopt_all(tuples);
            Frame::Ack
        }
        Frame::PurgeClass {
            stream,
            column,
            key_hash,
        } => {
            op.purge_class(stream_of(op, stream)?, column_of(column)?, key_hash);
            Frame::Ack
        }
        Frame::Retain {
            stream,
            column,
            shards,
            keep,
        } => {
            let (stream, column) = (stream_of(op, stream)?, column_of(column)?);
            match (usize::try_from(shards), usize::try_from(keep)) {
                (Ok(shards), Ok(keep)) if keep < shards => {
                    op.retain_home(stream, column, shards, keep);
                }
                _ => {
                    return Err(format!(
                        "retain needs keep < shards, got keep {keep} of {shards} shards"
                    ))
                }
            }
            Frame::Ack
        }
        Frame::Revise { order, demote } => {
            if !order.is_empty() {
                op.check_probe_order(&order)
                    .map_err(|why| format!("revise: {why}"))?;
            }
            op.revise(&order, demote);
            Frame::Ack
        }
        other => {
            return Err(format!(
                "unexpected frame type {:#04x} on the server side",
                other.frame_type()
            ))
        }
    })
}

/// Serves one client connection until a shutdown handshake, EOF, or a
/// terminal protocol error.  Returns `Ok(())` on every orderly close
/// (including after reporting a client error or an operator panic as an
/// error frame); `Err` only for transport-level failures mid-reply.
///
/// The connection keeps its own [`ShardRuntimeStats`] (epochs, routed
/// items, lifetime queue high-water, busy time, window footprint); with a
/// telemetry `scope`, it publishes them into the scope's gauges at every
/// barrier frame, the way the engine publishes its shards.  Pure
/// observation — the framing and replies are identical without it.
pub fn serve_stream<S: Read + Write>(
    stream: S,
    scope: Option<Arc<ShardInstruments>>,
) -> Result<(), WireError> {
    let mut publisher = scope.map(ShardPublisher::new);
    let mut runtime = ShardRuntimeStats::default();
    let mut framed = Framed::new(stream);
    let mut op: Option<MswjOperator> = None;
    let mut buffers = EpochBuffers::default();
    loop {
        let frame = match framed.recv() {
            Ok(frame) => frame,
            Err(e) if e.is_disconnect() => return Ok(()),
            Err(WireError::VersionMismatch { ours, theirs }) => {
                // Our reply frame carries *our* version, which the foreign
                // peer will reject in turn — but the message text gets
                // through to same-version clients talking to a stale file
                // and is invaluable in logs.
                let _ = framed.send(&Frame::Error {
                    message: format!(
                        "protocol version mismatch: server speaks {ours}, client sent {theirs}"
                    ),
                });
                return Err(WireError::VersionMismatch { ours, theirs });
            }
            Err(e) => {
                let _ = framed.send(&Frame::Error {
                    message: format!("undecodable frame: {e}"),
                });
                return Err(e);
            }
        };
        match frame {
            Frame::Hello => framed.send(&Frame::HelloAck)?,
            Frame::Setup(q) => match build_operator(&q) {
                Ok(built) => {
                    op = Some(built);
                    framed.send(&Frame::SetupAck)?;
                }
                Err(message) => return refuse(&mut framed, message),
            },
            Frame::Barrier { token } => {
                let stats = op.as_ref().map(MswjOperator::stats).unwrap_or_default();
                runtime.window_bytes = op.as_ref().map_or(0, MswjOperator::window_bytes);
                runtime.window_segments = op.as_ref().map_or(0, MswjOperator::window_segments);
                if let Some(publisher) = &mut publisher {
                    publisher.publish(&runtime);
                }
                framed.send(&Frame::BarrierAck {
                    token,
                    stats,
                    window_bytes: runtime.window_bytes,
                    window_segments: runtime.window_segments,
                })?;
            }
            Frame::Shutdown => {
                framed.send(&Frame::ShutdownAck)?;
                return Ok(());
            }
            // Everything else must be a request against the operator: one
            // decode → validate → apply → reply path, one way to fail.
            request => {
                let reply = match op.as_mut() {
                    None => Err(format!(
                        "frame type {:#04x} before setup",
                        request.frame_type()
                    )),
                    Some(op) => match request {
                        Frame::Task(task) => run_task(op, task, &mut buffers, &mut runtime),
                        surgery => apply_surgery(op, surgery),
                    },
                };
                match reply {
                    Ok(reply) => framed.send(&reply)?,
                    Err(message) => return refuse(&mut framed, message),
                }
            }
        }
    }
}

/// Answers a request the server cannot serve — a client error or an
/// operator panic — with an error frame, then closes in an orderly way.
fn refuse<S: Read + Write>(framed: &mut Framed<S>, message: String) -> Result<(), WireError> {
    framed.send(&Frame::Error { message })?;
    Ok(())
}

/// Recycled epoch buffers, mirroring the pool worker's steady state.
#[derive(Default)]
struct EpochBuffers {
    items: VecDeque<Item>,
    sub: Vec<SubOutcome>,
    mat: Vec<(u32, JoinResult)>,
}

/// Validates every item of one task frame, then drains it against the
/// operator and builds its output frame.  An item naming a stream the
/// operator does not have comes back as the `Err` text with nothing
/// applied; a caught operator panic comes back the same way, the shard
/// state unreliable after it.  Either way the caller closes the connection.
fn run_task(
    op: &mut MswjOperator,
    task: WireTask,
    buffers: &mut EpochBuffers,
    runtime: &mut ShardRuntimeStats,
) -> Result<Frame, String> {
    for (i, item) in task.items.iter().enumerate() {
        stream_of(op, item.tuple.stream.as_usize() as u64)
            .map_err(|why| format!("task item {i} (seq {}): {why}", item.seq))?;
    }
    let EpochBuffers { items, sub, mat } = buffers;
    items.clear();
    items.extend(task.items);
    sub.clear();
    mat.clear();
    let queued = items.len();
    let started = Instant::now();
    let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| {
        exec::drain_queue(op, items, sub, mat);
    }))
    .err();
    let busy_nanos = started.elapsed().as_nanos() as u64;
    runtime.routed += queued as u64;
    runtime.max_queue_depth = runtime.max_queue_depth.max(queued);
    runtime.epochs_executed += 1;
    runtime.busy_nanos += busy_nanos;
    if let Some(payload) = panicked {
        return Err(panic_text(payload.as_ref()));
    }
    Ok(Frame::Output(WireOutput {
        epoch: task.epoch,
        routing_epoch: task.routing_epoch,
        busy_nanos,
        sub: sub.clone(),
        mat: std::mem::take(mat),
    }))
}

/// The accept loop both listeners share: serves every incoming connection
/// on its own thread until an accept error.  With daemon telemetry,
/// connection `i` publishes into `telemetry.shard(i)`, so an exporter
/// scraping the handle sees one gauge set per accepted connection.
fn serve_each<S>(
    incoming: impl Iterator<Item = io::Result<S>>,
    telemetry: Option<Telemetry>,
) -> Result<(), WireError>
where
    S: Read + Write + Send + 'static,
{
    for (index, conn) in incoming.enumerate() {
        let stream = conn?;
        let scope = telemetry.as_ref().map(|t| t.shard(index));
        let _ = std::thread::Builder::new()
            .name(format!("mswj-shardd-conn-{index}"))
            .spawn(move || {
                if let Err(e) = serve_stream(stream, scope) {
                    eprintln!("mswj-shardd: connection {index} failed: {e}");
                }
            });
    }
    Ok(())
}

/// Binds a Unix-domain socket (replacing any stale socket file) and serves
/// every incoming connection on its own thread, publishing into the
/// optional `telemetry` (see [`serve_stream`]).  Never returns except on a
/// bind/accept error — this is the `mswj-shardd --uds` main loop.
pub fn serve_uds(path: &Path, telemetry: Option<Telemetry>) -> Result<(), WireError> {
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)?;
    eprintln!("mswj-shardd: listening on uds {}", path.display());
    serve_each(listener.incoming(), telemetry)
}

/// Binds a TCP listener and serves it like [`serve_uds`] — this is the
/// `mswj-shardd --tcp` main loop.
pub fn serve_tcp(addr: &str, telemetry: Option<Telemetry>) -> Result<(), WireError> {
    let listener = std::net::TcpListener::bind(addr)?;
    eprintln!(
        "mswj-shardd: listening on tcp {}",
        listener.local_addr().map_err(WireError::Io)?
    );
    serve_each(listener.incoming(), telemetry)
}
