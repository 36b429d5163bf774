//! The frame layer: message types, header layout, and framed I/O.
//!
//! ## Frame layout
//!
//! ```text
//! ┌─────────────┬──────────────┬────────────┬──────────┬───────────────┬─────────┐
//! │ magic (u32) │ version(u16) │ type (u8)  │ reserved │ payload (u32) │ payload │
//! │ "MSWJ" LE   │ PROTOCOL_VER │ FrameType  │ 0x00     │ length, LE    │ bytes   │
//! └─────────────┴──────────────┴────────────┴──────────┴───────────────┴─────────┘
//!   4 bytes       2 bytes        1 byte       1 byte     4 bytes         ≤ 64 MiB
//! ```
//!
//! The header is validated before any payload byte is trusted: bad magic
//! and unknown types are [`WireError::Corrupt`], a foreign version is
//! [`WireError::VersionMismatch`] (so incompatible peers are rejected on
//! the very first frame), and a length above [`MAX_PAYLOAD`] is
//! [`WireError::TooLarge`].  Payloads must decode to exactly their declared
//! length — trailing bytes are corruption, never silently ignored.

use crate::codec::{
    get_field_type, get_value, put_bool, put_f64, put_field_type, put_len, put_str, put_u32,
    put_u64, put_u8, put_value, Cursor,
};
use crate::error::WireError;
use mswj_join::{ConditionDescriptor, JoinResult, OperatorStats, ProbeStrategy};
use mswj_types::{FieldType, StreamIndex, Timestamp, Tuple};
use std::io::{Read, Write};

/// Protocol revision; bumped on any incompatible layout change.
///
/// v2: `BarrierAck` stats grew the `adopted`/`evicted` migration counters,
/// and the runtime re-planning frames (window fetch, retain, `Revise`)
/// joined the protocol.
///
/// v3: `BarrierAck` grew the shard's live window footprint
/// (`window_bytes`/`window_segments`), so remote shard stats report the
/// same window gauges as local ones.
///
/// v4: `Revise` (type `0x13`, probe reorder and index demotion) left the
/// protocol; a window's access path is fixed when its operator is built.
///
/// v5: the hot-key splitting frames (types `0x09` and `0x0C`, a key
/// class's replica copy and teardown) left the protocol; a key class stays
/// on its home shard for the whole session.
///
/// v6: `Setup` carries the query's window segment capacity
/// (`WireQuery::segment_capacity`), so a shard server stores its windows
/// at the capacity the client's query sets.
///
/// v7: the star pair switch's window-migration frames (types `0x0A`
/// class data, `0x0B` adopt, `0x0D` ack, `0x11` window fetch and `0x12`
/// retain) left the protocol, and `BarrierAck` stats lost the
/// `adopted`/`evicted` migration counters; a star plan's routing is fixed
/// when the engine is built.
///
/// v8: a shard counts the results each late item lost, against its windows
/// expired to the global `onT` the item was staged under: that bound
/// travels in the new `LateBounds` frame (type `0x14`) ahead of the task,
/// and the output carries one `WireSub` per late item too, its count in
/// `n_join`.
///
/// v9: every out-of-order tuple is a late item, a dropped one included:
/// the shard counts its loss, then makes the scope check itself under the
/// item's bound (`e.ts >= onT − W_i`) and inserts it only if still in
/// scope.  A v8 shard would insert every late item.
///
/// v10: `Output` lost its echo of the task's routing epoch, which was
/// always 0; an output is the epoch, the busy time, the sub-outcomes and
/// the materialized results.
///
/// v11: the `Hello`/`HelloAck` greeting (types `0x01`, `0x02`) and the
/// `Shutdown`/`ShutdownAck` close (types `0x0F`, `0x10`) left the
/// protocol.  A connection is `Setup`, then work, then EOF: every header's
/// version check rejects a foreign peer at its `Setup`, and closing the
/// socket ends the session.
pub const PROTOCOL_VERSION: u16 = 11;

/// Frame magic: the ASCII bytes `MSWJ`, read little-endian.
pub const MAGIC: u32 = u32::from_le_bytes(*b"MSWJ");

/// Fixed frame header length in bytes.
pub const HEADER_LEN: usize = 12;

/// Hard cap on a single frame payload; decoding refuses anything larger.
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

const FT_SETUP: u8 = 0x03;
const FT_SETUP_ACK: u8 = 0x04;
const FT_TASK: u8 = 0x05;
const FT_OUTPUT: u8 = 0x06;
const FT_BARRIER: u8 = 0x07;
const FT_BARRIER_ACK: u8 = 0x08;
const FT_ERROR: u8 = 0x0E;
const FT_LATE_BOUNDS: u8 = 0x14;

/// One routed tuple inside a [`WireTask`]: the front-end's staging sequence
/// number, whether this shard should probe (vs. count the late tuple's loss
/// and insert it if in scope), and the tuple itself.
#[derive(Debug, Clone, PartialEq)]
pub struct WireItem {
    /// Position in the epoch's staging order (drives deterministic merge).
    pub seq: u32,
    /// `true` → probe and produce results; `false` → a late item: count
    /// what it lost under its [`WireLate`] bound, then insert it if it is
    /// still in scope under that bound (drop it otherwise).
    pub probe: bool,
    /// The routed tuple.
    pub tuple: Tuple,
}

/// One epoch of routed work for a single shard.
#[derive(Debug, Clone, PartialEq)]
pub struct WireTask {
    /// Monotonic epoch number assigned by the front-end.
    pub epoch: u64,
    /// Routing version the batch was routed under.  Routing is fixed
    /// when the engine is built, so the engine always sends 0 and a shard
    /// ignores it; since v10 no output echoes it.
    pub routing_epoch: u64,
    /// Routed items in staging order.
    pub items: Vec<WireItem>,
}

/// The global high-water mark a late item of a [`WireTask`] was staged
/// under: the shard expires its other windows to `on_t − W_j` and counts
/// the results the item lost against what is left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireLate {
    /// Staging sequence number of the late item (`probe == false`).
    pub seq: u32,
    /// The engine's global `onT` when the item was staged.
    pub on_t: Timestamp,
}

/// Per-item outcome inside a [`WireOutput`]: one for every item of the
/// task, probing or late.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireSub {
    /// Staging sequence number this outcome belongs to.
    pub seq: u32,
    /// For a probing item, the join results this shard produced for it;
    /// for a late item, the results this shard counted it lost.
    pub n_join: u64,
    /// Whether the probe was answered through the hash-index path (`false`
    /// for a late item).
    pub indexed: bool,
}

/// A shard's reply to one [`WireTask`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireOutput {
    /// Echo of the task's epoch.
    pub epoch: u64,
    /// Wall-clock nanoseconds the shard spent draining the epoch.
    pub busy_nanos: u64,
    /// Per-item outcomes in staging order.
    pub sub: Vec<WireSub>,
    /// Materialized results tagged with their staging sequence number
    /// (empty when the session runs in counting mode).
    pub mat: Vec<(u32, JoinResult)>,
}

/// One input stream of a [`WireQuery`]: name, schema and window size.
#[derive(Debug, Clone, PartialEq)]
pub struct WireStream {
    /// Stream name.
    pub name: String,
    /// Schema fields as `(name, type)` pairs in attribute order.
    pub fields: Vec<(String, FieldType)>,
    /// Window size in milliseconds.
    pub window: u64,
}

/// Everything a shard server needs to instantiate its join operator.
#[derive(Debug, Clone, PartialEq)]
pub struct WireQuery {
    /// Query name (diagnostics only).
    pub name: String,
    /// The input streams in index order.
    pub streams: Vec<WireStream>,
    /// Serializable description of the join condition.
    pub condition: ConditionDescriptor,
    /// Probe strategy (`Auto` or `NestedLoop`).
    pub strategy: ProbeStrategy,
    /// Whether results are materialized (enumerating mode) or counted.
    pub enumerate: bool,
    /// Rows a window segment absorbs before it seals
    /// (`JoinQuery::segment_capacity`); the server rejects a value outside
    /// the range `JoinQuery::with_segment_capacity` accepts.
    pub segment_capacity: u32,
}

/// Every message that crosses a shard boundary.
///
/// `Setup`/`SetupAck` open a connection and instantiate the remote
/// operator (every header's version field does the compatibility check),
/// `Task`/`Output` carry the epoch pipeline (a task with late items is
/// preceded by its `LateBounds`), `Barrier`/`BarrierAck` fence it and
/// return operator statistics, and `Error` carries remote panics and
/// protocol complaints.  The client ends a connection by closing it.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Operator instantiation request, the first frame of a connection.
    Setup(WireQuery),
    /// Acknowledges a successful [`Frame::Setup`].
    SetupAck,
    /// One epoch of routed work.
    Task(WireTask),
    /// The global `onT` of every late item of the next [`Frame::Task`],
    /// which must carry the same epoch: one entry per late item, in item
    /// order.  Sent only ahead of a task that has late items.
    LateBounds {
        /// The epoch of the task these bounds belong to.
        epoch: u64,
        /// One bound per late item, in item order.
        late: Vec<WireLate>,
    },
    /// The shard's reply to a [`Frame::Task`].
    Output(WireOutput),
    /// Pipeline fence; `token` is echoed in the ack.
    Barrier {
        /// Caller-chosen token echoed by the ack.
        token: u64,
    },
    /// Reply to [`Frame::Barrier`], carrying the shard's operator counters
    /// and its live window footprint.
    BarrierAck {
        /// Echo of the barrier token.
        token: u64,
        /// The shard operator's lifetime counters.
        stats: OperatorStats,
        /// Estimated live window bytes held by the shard operator.
        window_bytes: u64,
        /// Columnar storage segments held across the shard's windows.
        window_segments: u64,
    },
    /// A remote failure — typically a panic caught in the shard worker.
    Error {
        /// Human-readable failure description (panic payload text).
        message: String,
    },
}

fn put_tuple(buf: &mut Vec<u8>, t: &Tuple) {
    put_u64(buf, t.stream.as_usize() as u64);
    put_u64(buf, t.seq);
    put_u64(buf, t.ts.as_millis());
    put_len(buf, t.values().len());
    for v in t.values() {
        put_value(buf, v);
    }
    match t.delay() {
        Some(d) => {
            put_u8(buf, 1);
            put_u64(buf, d);
        }
        None => put_u8(buf, 0),
    }
}

fn get_tuple(c: &mut Cursor<'_>) -> Result<Tuple, WireError> {
    let stream = c.u64()?;
    let stream = usize::try_from(stream)
        .map_err(|_| WireError::Corrupt(format!("stream index {stream} overflows usize")))?;
    let seq = c.u64()?;
    let ts = Timestamp::from_millis(c.u64()?);
    let n = c.len(1)?;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(get_value(c)?);
    }
    let mut tuple = Tuple::new(StreamIndex(stream), seq, ts, values);
    match c.u8()? {
        0 => {}
        1 => tuple.set_delay(c.u64()?),
        tag => {
            return Err(WireError::Corrupt(format!(
                "invalid delay-option tag {tag:#04x}"
            )))
        }
    }
    Ok(tuple)
}

fn put_tuples(buf: &mut Vec<u8>, tuples: &[Tuple]) {
    put_len(buf, tuples.len());
    for t in tuples {
        put_tuple(buf, t);
    }
}

fn get_tuples(c: &mut Cursor<'_>) -> Result<Vec<Tuple>, WireError> {
    // A tuple takes at least 25 bytes (3×u64 + count + delay tag).
    let n = c.len(25)?;
    let mut tuples = Vec::with_capacity(n);
    for _ in 0..n {
        tuples.push(get_tuple(c)?);
    }
    Ok(tuples)
}

fn put_result(buf: &mut Vec<u8>, r: &JoinResult) {
    put_u64(buf, r.ts.as_millis());
    put_tuples(buf, &r.components);
}

fn get_result(c: &mut Cursor<'_>) -> Result<JoinResult, WireError> {
    let ts = Timestamp::from_millis(c.u64()?);
    let components = get_tuples(c)?;
    Ok(JoinResult { ts, components })
}

fn put_stats(buf: &mut Vec<u8>, s: &OperatorStats) {
    put_u64(buf, s.in_order);
    put_u64(buf, s.out_of_order);
    put_u64(buf, s.dropped);
    put_u64(buf, s.indexed_probes);
    put_u64(buf, s.fallback_probes);
    put_u64(buf, s.results);
    put_u64(buf, s.cross_results);
    put_u64(buf, s.expired);
}

fn get_stats(c: &mut Cursor<'_>) -> Result<OperatorStats, WireError> {
    Ok(OperatorStats {
        in_order: c.u64()?,
        out_of_order: c.u64()?,
        dropped: c.u64()?,
        indexed_probes: c.u64()?,
        fallback_probes: c.u64()?,
        results: c.u64()?,
        cross_results: c.u64()?,
        expired: c.u64()?,
    })
}

fn put_cols(buf: &mut Vec<u8>, cols: &[usize]) {
    put_len(buf, cols.len());
    for &c in cols {
        put_u64(buf, c as u64);
    }
}

fn get_cols(c: &mut Cursor<'_>) -> Result<Vec<usize>, WireError> {
    let n = c.len(8)?;
    let mut cols = Vec::with_capacity(n);
    for _ in 0..n {
        let raw = c.u64()?;
        cols.push(
            usize::try_from(raw)
                .map_err(|_| WireError::Corrupt(format!("column index {raw} overflows usize")))?,
        );
    }
    Ok(cols)
}

const COND_CROSS: u8 = 0;
const COND_COMMON_KEY: u8 = 1;
const COND_STAR: u8 = 2;
const COND_BAND: u8 = 3;
const COND_DISTANCE: u8 = 4;

fn put_condition(buf: &mut Vec<u8>, d: &ConditionDescriptor) {
    match d {
        ConditionDescriptor::Cross { arity } => {
            put_u8(buf, COND_CROSS);
            put_u64(buf, *arity as u64);
        }
        ConditionDescriptor::CommonKey { columns } => {
            put_u8(buf, COND_COMMON_KEY);
            put_cols(buf, columns);
        }
        ConditionDescriptor::Star {
            anchor,
            anchor_cols,
            other_cols,
        } => {
            put_u8(buf, COND_STAR);
            put_u64(buf, *anchor as u64);
            put_cols(buf, anchor_cols);
            put_cols(buf, other_cols);
        }
        ConditionDescriptor::Band { columns, band } => {
            put_u8(buf, COND_BAND);
            put_cols(buf, columns);
            put_f64(buf, *band);
        }
        ConditionDescriptor::DistanceWithin {
            x_cols,
            y_cols,
            threshold,
        } => {
            put_u8(buf, COND_DISTANCE);
            put_u64(buf, x_cols[0] as u64);
            put_u64(buf, x_cols[1] as u64);
            put_u64(buf, y_cols[0] as u64);
            put_u64(buf, y_cols[1] as u64);
            put_f64(buf, *threshold);
        }
    }
}

fn get_usize(c: &mut Cursor<'_>) -> Result<usize, WireError> {
    let raw = c.u64()?;
    usize::try_from(raw).map_err(|_| WireError::Corrupt(format!("index {raw} overflows usize")))
}

fn get_condition(c: &mut Cursor<'_>) -> Result<ConditionDescriptor, WireError> {
    match c.u8()? {
        COND_CROSS => Ok(ConditionDescriptor::Cross {
            arity: get_usize(c)?,
        }),
        COND_COMMON_KEY => Ok(ConditionDescriptor::CommonKey {
            columns: get_cols(c)?,
        }),
        COND_STAR => Ok(ConditionDescriptor::Star {
            anchor: get_usize(c)?,
            anchor_cols: get_cols(c)?,
            other_cols: get_cols(c)?,
        }),
        COND_BAND => Ok(ConditionDescriptor::Band {
            columns: get_cols(c)?,
            band: c.f64()?,
        }),
        COND_DISTANCE => Ok(ConditionDescriptor::DistanceWithin {
            x_cols: [get_usize(c)?, get_usize(c)?],
            y_cols: [get_usize(c)?, get_usize(c)?],
            threshold: c.f64()?,
        }),
        tag => Err(WireError::Corrupt(format!(
            "unknown condition-descriptor tag {tag:#04x}"
        ))),
    }
}

fn put_strategy(buf: &mut Vec<u8>, s: ProbeStrategy) {
    put_u8(
        buf,
        match s {
            ProbeStrategy::Auto => 0,
            ProbeStrategy::NestedLoop => 1,
        },
    );
}

fn get_strategy(c: &mut Cursor<'_>) -> Result<ProbeStrategy, WireError> {
    match c.u8()? {
        0 => Ok(ProbeStrategy::Auto),
        1 => Ok(ProbeStrategy::NestedLoop),
        tag => Err(WireError::Corrupt(format!(
            "unknown probe-strategy tag {tag:#04x}"
        ))),
    }
}

impl Frame {
    /// The one-byte frame type written into the header.
    pub fn frame_type(&self) -> u8 {
        match self {
            Frame::Setup(_) => FT_SETUP,
            Frame::SetupAck => FT_SETUP_ACK,
            Frame::Task(_) => FT_TASK,
            Frame::LateBounds { .. } => FT_LATE_BOUNDS,
            Frame::Output(_) => FT_OUTPUT,
            Frame::Barrier { .. } => FT_BARRIER,
            Frame::BarrierAck { .. } => FT_BARRIER_ACK,
            Frame::Error { .. } => FT_ERROR,
        }
    }

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            Frame::SetupAck => {}
            Frame::Setup(q) => {
                put_str(buf, &q.name);
                put_len(buf, q.streams.len());
                for s in &q.streams {
                    put_str(buf, &s.name);
                    put_len(buf, s.fields.len());
                    for (name, ty) in &s.fields {
                        put_str(buf, name);
                        put_field_type(buf, *ty);
                    }
                    put_u64(buf, s.window);
                }
                put_condition(buf, &q.condition);
                put_strategy(buf, q.strategy);
                put_bool(buf, q.enumerate);
                put_u32(buf, q.segment_capacity);
            }
            Frame::Task(t) => {
                put_u64(buf, t.epoch);
                put_u64(buf, t.routing_epoch);
                put_len(buf, t.items.len());
                for item in &t.items {
                    put_u32(buf, item.seq);
                    put_bool(buf, item.probe);
                    put_tuple(buf, &item.tuple);
                }
            }
            Frame::LateBounds { epoch, late } => {
                put_u64(buf, *epoch);
                put_len(buf, late.len());
                for l in late {
                    put_u32(buf, l.seq);
                    put_u64(buf, l.on_t.as_millis());
                }
            }
            Frame::Output(o) => {
                put_u64(buf, o.epoch);
                put_u64(buf, o.busy_nanos);
                put_len(buf, o.sub.len());
                for s in &o.sub {
                    put_u32(buf, s.seq);
                    put_u64(buf, s.n_join);
                    put_bool(buf, s.indexed);
                }
                put_len(buf, o.mat.len());
                for (seq, r) in &o.mat {
                    put_u32(buf, *seq);
                    put_result(buf, r);
                }
            }
            Frame::Barrier { token } => put_u64(buf, *token),
            Frame::BarrierAck {
                token,
                stats,
                window_bytes,
                window_segments,
            } => {
                put_u64(buf, *token);
                put_stats(buf, stats);
                put_u64(buf, *window_bytes);
                put_u64(buf, *window_segments);
            }
            Frame::Error { message } => put_str(buf, message),
        }
    }

    fn decode_payload(frame_type: u8, payload: &[u8]) -> Result<Frame, WireError> {
        let mut c = Cursor::new(payload);
        let frame = match frame_type {
            FT_SETUP_ACK => Frame::SetupAck,
            FT_SETUP => {
                let name = c.str()?;
                let n = c.len(1)?;
                let mut streams = Vec::with_capacity(n);
                for _ in 0..n {
                    let sname = c.str()?;
                    let nf = c.len(1)?;
                    let mut fields = Vec::with_capacity(nf);
                    for _ in 0..nf {
                        let fname = c.str()?;
                        let ty = get_field_type(&mut c)?;
                        fields.push((fname, ty));
                    }
                    let window = c.u64()?;
                    streams.push(WireStream {
                        name: sname,
                        fields,
                        window,
                    });
                }
                let condition = get_condition(&mut c)?;
                let strategy = get_strategy(&mut c)?;
                let enumerate = c.bool()?;
                let segment_capacity = c.u32()?;
                Frame::Setup(WireQuery {
                    name,
                    streams,
                    condition,
                    strategy,
                    enumerate,
                    segment_capacity,
                })
            }
            FT_TASK => {
                let epoch = c.u64()?;
                let routing_epoch = c.u64()?;
                // An item takes at least 30 bytes (u32 + bool + minimal tuple).
                let n = c.len(30)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    let seq = c.u32()?;
                    let probe = c.bool()?;
                    let tuple = get_tuple(&mut c)?;
                    items.push(WireItem { seq, probe, tuple });
                }
                Frame::Task(WireTask {
                    epoch,
                    routing_epoch,
                    items,
                })
            }
            FT_LATE_BOUNDS => {
                let epoch = c.u64()?;
                let n = c.len(12)?;
                let mut late = Vec::with_capacity(n);
                for _ in 0..n {
                    let seq = c.u32()?;
                    let on_t = Timestamp::from_millis(c.u64()?);
                    late.push(WireLate { seq, on_t });
                }
                Frame::LateBounds { epoch, late }
            }
            FT_OUTPUT => {
                let epoch = c.u64()?;
                let busy_nanos = c.u64()?;
                let n = c.len(13)?;
                let mut sub = Vec::with_capacity(n);
                for _ in 0..n {
                    let seq = c.u32()?;
                    let n_join = c.u64()?;
                    let indexed = c.bool()?;
                    sub.push(WireSub {
                        seq,
                        n_join,
                        indexed,
                    });
                }
                let nm = c.len(20)?;
                let mut mat = Vec::with_capacity(nm);
                for _ in 0..nm {
                    let seq = c.u32()?;
                    let r = get_result(&mut c)?;
                    mat.push((seq, r));
                }
                Frame::Output(WireOutput {
                    epoch,
                    busy_nanos,
                    sub,
                    mat,
                })
            }
            FT_BARRIER => Frame::Barrier { token: c.u64()? },
            FT_BARRIER_ACK => Frame::BarrierAck {
                token: c.u64()?,
                stats: get_stats(&mut c)?,
                window_bytes: c.u64()?,
                window_segments: c.u64()?,
            },
            FT_ERROR => Frame::Error { message: c.str()? },
            tag => return Err(WireError::Corrupt(format!("unknown frame type {tag:#04x}"))),
        };
        c.finish()?;
        Ok(frame)
    }

    /// Appends the fully framed encoding (header + payload) to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let header_at = buf.len();
        put_u32(buf, MAGIC);
        crate::codec::put_u16(buf, PROTOCOL_VERSION);
        put_u8(buf, self.frame_type());
        put_u8(buf, 0); // reserved
        put_u32(buf, 0); // payload length back-patched below
        let payload_at = buf.len();
        self.encode_payload(buf);
        let len = (buf.len() - payload_at) as u32;
        buf[header_at + 8..header_at + 12].copy_from_slice(&len.to_le_bytes());
    }

    /// Decodes one frame from the front of `bytes`, returning it together
    /// with the number of bytes consumed.
    ///
    /// [`WireError::Truncated`] means more bytes are needed; every other
    /// error is terminal for the connection. Never panics and never reads
    /// past the declared payload length.
    pub fn decode(bytes: &[u8]) -> Result<(Frame, usize), WireError> {
        if bytes.len() < HEADER_LEN {
            return Err(WireError::Truncated {
                needed: HEADER_LEN,
                available: bytes.len(),
            });
        }
        let mut header = Cursor::new(&bytes[..HEADER_LEN]);
        let (frame_type, len) = decode_header(&mut header)?;
        let total = HEADER_LEN + len;
        if bytes.len() < total {
            return Err(WireError::Truncated {
                needed: total,
                available: bytes.len(),
            });
        }
        let frame = Frame::decode_payload(frame_type, &bytes[HEADER_LEN..total])?;
        Ok((frame, total))
    }
}

fn decode_header(header: &mut Cursor<'_>) -> Result<(u8, usize), WireError> {
    let magic = header.u32()?;
    if magic != MAGIC {
        return Err(WireError::Corrupt(format!(
            "bad magic {magic:#010x}, expected {MAGIC:#010x}"
        )));
    }
    let version = header.u16()?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::VersionMismatch {
            ours: PROTOCOL_VERSION,
            theirs: version,
        });
    }
    let frame_type = header.u8()?;
    let _reserved = header.u8()?;
    let len = header.u32()?;
    if len > MAX_PAYLOAD {
        return Err(WireError::TooLarge {
            len: u64::from(len),
            max: u64::from(MAX_PAYLOAD),
        });
    }
    Ok((frame_type, len as usize))
}

/// Encodes `frame` into `scratch` and writes it to `w`, returning the
/// number of bytes written.
pub fn write_frame<W: Write>(
    w: &mut W,
    frame: &Frame,
    scratch: &mut Vec<u8>,
) -> Result<usize, WireError> {
    scratch.clear();
    frame.encode(scratch);
    w.write_all(scratch)?;
    w.flush()?;
    Ok(scratch.len())
}

/// Reads exactly one frame from `r` (blocking, honouring any read timeout
/// configured on the stream), returning it with its total encoded size.
pub fn read_frame<R: Read>(r: &mut R, scratch: &mut Vec<u8>) -> Result<(Frame, usize), WireError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let mut cursor = Cursor::new(&header);
    let (frame_type, len) = decode_header(&mut cursor)?;
    scratch.clear();
    scratch.resize(len, 0);
    r.read_exact(scratch)?;
    let frame = Frame::decode_payload(frame_type, scratch)?;
    Ok((frame, HEADER_LEN + len))
}
