//! The engine-facing side of the transport: one link per shard, speaking
//! the request/reply protocol that `server` answers.
//!
//! `RemoteShards` plugs into the same depth-1 epoch pipeline as the
//! resident pool — `submit` ships a routed queue as a task frame, `collect`
//! blocks for the matching output frame — so the engine's staging-order
//! merge replays results identically whether shards are local or remote.
//! A read of a busy shard (a barrier for its stats) first receives the
//! in-flight output and parks it on the link for the next `collect`,
//! exactly as the pool parks a busy worker's output, so the barrier's
//! reply is its own.
//! Mid-stream failures are raised as panics carrying
//! [`EngineError`](super::EngineError), mirroring the pool's
//! `resume_unwind` surface.  A connection ends with EOF: dropping the
//! links closes their sockets, and a server returns on the disconnect.

use super::{Connection, Endpoint, EngineError};
use crate::engine::{Item, ShardRuntimeStats, SubOutcome};
use mswj_join::{JoinQuery, JoinResult, OperatorStats, ProbeStrategy};
use mswj_types::Error;
use mswj_wire::{
    Frame, WireError, WireItem, WireLate, WireOutput, WireQuery, WireStream, WireTask,
};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::panic_any;
use std::time::Instant;

struct Link {
    connection: Connection,
    /// Cumulative submit→receipt wall time, the epoch round-trip counter.
    rtt_nanos: u64,
    /// When the in-flight task was sent; `Some` until its output is received.
    submitted_at: Option<Instant>,
    /// The in-flight epoch's output, received early by a read of the busy
    /// shard and kept for the next `collect`.
    parked: Option<WireOutput>,
    barrier_token: u64,
}

impl Link {
    /// Raises a transport failure as the matching typed panic.
    fn raise(&self, shard: usize, err: WireError) -> ! {
        match err {
            WireError::VersionMismatch { ours, theirs } => {
                panic_any(EngineError::VersionMismatch { ours, theirs })
            }
            e if e.is_disconnect() || e.is_timeout() => panic_any(EngineError::ShardLost {
                shard,
                detail: format!("{}: {e}", self.connection.endpoint()),
            }),
            e => panic_any(EngineError::Protocol {
                shard,
                detail: format!("{}: {e}", self.connection.endpoint()),
            }),
        }
    }

    fn send(&mut self, shard: usize, frame: &Frame) {
        if let Err(e) = self.connection.send(frame) {
            self.raise(shard, e);
        }
    }

    /// Receives a reply; an error frame (remote panic or protocol
    /// complaint) is re-raised on this thread like a pool-worker panic.
    fn reply(&mut self, shard: usize) -> Frame {
        match self.connection.recv() {
            Ok(Frame::Error { message }) => panic_any(EngineError::RemotePanic { shard, message }),
            Ok(frame) => frame,
            Err(e) => self.raise(shard, e),
        }
    }

    /// Receives the in-flight epoch's output, adding its round-trip time.
    fn receive_output(&mut self, shard: usize) -> WireOutput {
        let out = match self.reply(shard) {
            Frame::Output(out) => out,
            other => self.unexpected(shard, "output", &other),
        };
        if let Some(at) = self.submitted_at.take() {
            self.rtt_nanos += at.elapsed().as_nanos() as u64;
        }
        out
    }

    /// Sends `request` and returns its reply, first parking the output of
    /// an epoch still in flight so that the reply is the request's own.
    fn exchange(&mut self, shard: usize, request: &Frame) -> Frame {
        if self.submitted_at.is_some() {
            self.parked = Some(self.receive_output(shard));
        }
        self.send(shard, request);
        self.reply(shard)
    }

    /// Raises a protocol violation for a reply of the wrong type.
    fn unexpected(&self, shard: usize, want: &str, got: &Frame) -> ! {
        panic_any(EngineError::Protocol {
            shard,
            detail: format!(
                "{}: expected {want}, got frame type {:#04x}",
                self.connection.endpoint(),
                got.frame_type()
            ),
        })
    }
}

/// The set of transport links backing `ExecutionBackend::Remote` — the
/// engine's counterpart to the resident `ShardPool`.
///
/// Links sit in `RefCell`s so the read-only engine surfaces (barrier stats,
/// runtime folding) reach them through `&self`, as the pool's reads reach
/// its shard slots.
pub(in crate::engine) struct RemoteShards {
    links: Vec<RefCell<Link>>,
}

impl RemoteShards {
    /// Connects to every endpoint and sends it `Setup`, leaving each peer
    /// with an instantiated shard operator.
    pub(in crate::engine) fn connect(
        endpoints: &[Endpoint],
        query: &JoinQuery,
        descriptor: &mswj_join::ConditionDescriptor,
        strategy: ProbeStrategy,
        enumerate: bool,
    ) -> Result<Self, Error> {
        let wire_query = WireQuery {
            name: query.name().to_string(),
            streams: query
                .streams()
                .iter()
                .map(|(_, spec)| WireStream {
                    name: spec.name.clone(),
                    fields: spec
                        .schema
                        .iter()
                        .map(|(n, t)| (n.to_string(), t))
                        .collect(),
                    window: spec.window,
                })
                .collect(),
            condition: descriptor.clone(),
            strategy,
            enumerate,
            // `JoinQuery` clamps its capacity to at most 2³¹.
            segment_capacity: query.segment_capacity() as u32,
        };
        let mut links = Vec::with_capacity(endpoints.len());
        for (shard, endpoint) in endpoints.iter().enumerate() {
            let link = handshake(endpoint, &wire_query).map_err(|msg| {
                Error::InvalidConfig(format!("remote shard {shard} ({endpoint}): {msg}"))
            })?;
            links.push(RefCell::new(link));
        }
        Ok(RemoteShards { links })
    }

    /// Number of connected shard servers.
    pub(in crate::engine) fn count(&self) -> usize {
        self.links.len()
    }

    /// Ships a routed item queue to `shard` as one task frame, preceded by
    /// a late-bounds frame when the queue holds late items, draining the
    /// queue (its capacity is preserved for recycling).  Routing never
    /// changes after construction, so the frame's routing epoch is 0.
    pub(in crate::engine) fn submit(
        &mut self,
        shard: usize,
        epoch: u64,
        queue: &mut VecDeque<Item>,
    ) {
        let mut late = Vec::new();
        let items = queue
            .drain(..)
            .map(|item| {
                if let Some(on_t) = item.late {
                    late.push(WireLate {
                        seq: item.seq,
                        on_t,
                    });
                }
                WireItem {
                    seq: item.seq,
                    probe: item.late.is_none(),
                    tuple: item.tuple,
                }
            })
            .collect();
        let link = self.links[shard].get_mut();
        link.submitted_at = Some(Instant::now());
        if !late.is_empty() {
            link.send(shard, &Frame::LateBounds { epoch, late });
        }
        link.send(
            shard,
            &Frame::Task(WireTask {
                epoch,
                routing_epoch: 0,
                items,
            }),
        );
    }

    /// Takes the output of the epoch previously submitted to `shard` —
    /// parked, or blocking for it — appending its sub-outcomes and
    /// materialized results to `sub` / `mat`, and returns the server's busy
    /// nanoseconds.
    pub(in crate::engine) fn collect(
        &mut self,
        shard: usize,
        expected_epoch: u64,
        sub: &mut Vec<SubOutcome>,
        mat: &mut Vec<(u32, JoinResult)>,
    ) -> u64 {
        let link = self.links[shard].get_mut();
        let out = match link.parked.take() {
            Some(out) => out,
            None => link.receive_output(shard),
        };
        debug_assert_eq!(out.epoch, expected_epoch, "epochs collect in submit order");
        sub.extend(out.sub);
        mat.extend(out.mat);
        out.busy_nanos
    }

    /// Runs a barrier round-trip against `shard` and returns its operator
    /// counters plus the live window footprint (estimated bytes and
    /// columnar segment count) held in the server process — after its
    /// in-flight epoch, if any.
    pub(in crate::engine) fn barrier_stats(&self, shard: usize) -> (OperatorStats, u64, u64) {
        let mut link = self.links[shard].borrow_mut();
        link.barrier_token += 1;
        let token = link.barrier_token;
        match link.exchange(shard, &Frame::Barrier { token }) {
            Frame::BarrierAck {
                token: acked,
                stats,
                window_bytes,
                window_segments,
            } => {
                if acked != token {
                    panic_any(EngineError::Protocol {
                        shard,
                        detail: format!("barrier token mismatch: sent {token}, acked {acked}"),
                    });
                }
                (stats, window_bytes, window_segments)
            }
            other => link.unexpected(shard, "barrier-ack", &other),
        }
    }

    /// Folds the link's transport counters into a shard's runtime stats.
    pub(in crate::engine) fn fold_runtime(&self, shard: usize, rt: &mut ShardRuntimeStats) {
        let link = self.links[shard].borrow();
        let c = link.connection.counters();
        rt.frames_sent = c.frames_sent;
        rt.frames_received = c.frames_received;
        rt.bytes_sent = c.bytes_sent;
        rt.bytes_received = c.bytes_received;
        rt.epoch_rtt_nanos = link.rtt_nanos;
    }
}

/// Connects one endpoint and sends it `Setup`, mapping every failure to
/// a human-readable message (connection time is the one phase where remote
/// failures are `Result`s, not panics).  A peer of another protocol
/// version answers the `Setup` header with an error frame.
fn handshake(endpoint: &Endpoint, query: &WireQuery) -> Result<Link, String> {
    let mut connection = super::connect(endpoint).map_err(|e| e.to_string())?;
    connection
        .send(&Frame::Setup(query.clone()))
        .map_err(|e| e.to_string())?;
    match connection.recv().map_err(|e| e.to_string())? {
        Frame::SetupAck => {}
        Frame::Error { message } => return Err(message),
        other => {
            return Err(format!(
                "expected setup-ack, got frame type {:#04x}",
                other.frame_type()
            ))
        }
    }
    Ok(Link {
        connection,
        rtt_nanos: 0,
        submitted_at: None,
        parked: None,
        barrier_token: 0,
    })
}
