//! Codec correctness: `decode ∘ encode = id` over every frame kind, plus
//! adversarial decoding — truncated, corrupted, hostile-length and
//! wrong-version inputs must return errors, never panic, and never read
//! past the declared payload.

use mswj_join::{ConditionDescriptor, JoinResult, OperatorStats, ProbeStrategy};
use mswj_types::{FieldType, StreamIndex, Timestamp, Tuple, Value};
use mswj_wire::{
    read_frame, write_frame, Frame, WireError, WireItem, WireLate, WireOutput, WireQuery,
    WireStream, WireSub, WireTask, HEADER_LEN, PROTOCOL_VERSION,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0usize..5) {
        0 => Value::Int(rng.gen::<u64>() as i64),
        // Finite floats only: NaN breaks `PartialEq`-based comparison, and
        // its bit-exactness is pinned by a dedicated test below.
        1 => Value::Float(rng.gen::<f64>() * 2e9 - 1e9),
        2 => {
            let len = rng.gen_range(0usize..6);
            Value::Str(
                (0..len)
                    .map(|_| (b'a' + rng.gen_range(0u64..26) as u8) as char)
                    .collect(),
            )
        }
        3 => Value::Bool(rng.gen::<bool>()),
        _ => Value::Null,
    }
}

fn arb_tuple(rng: &mut StdRng) -> Tuple {
    let arity = rng.gen_range(0usize..4);
    let values = (0..arity).map(|_| arb_value(rng)).collect();
    let mut t = Tuple::new(
        StreamIndex(rng.gen_range(0usize..8)),
        rng.gen::<u64>(),
        Timestamp::from_millis(rng.gen_range(0u64..1 << 40)),
        values,
    );
    if rng.gen_bool(0.5) {
        t.set_delay(rng.gen_range(0u64..100_000));
    }
    t
}

fn arb_result(rng: &mut StdRng) -> JoinResult {
    let m = rng.gen_range(1usize..4);
    let components: Vec<Tuple> = (0..m).map(|_| arb_tuple(rng)).collect();
    JoinResult {
        ts: Timestamp::from_millis(rng.gen_range(0u64..1 << 40)),
        components,
    }
}

fn arb_stats(rng: &mut StdRng) -> OperatorStats {
    OperatorStats {
        in_order: rng.gen(),
        out_of_order: rng.gen(),
        dropped: rng.gen(),
        indexed_probes: rng.gen(),
        fallback_probes: rng.gen(),
        results: rng.gen(),
        cross_results: rng.gen(),
        expired: rng.gen(),
    }
}

fn arb_cols(rng: &mut StdRng) -> Vec<usize> {
    (0..rng.gen_range(1usize..5))
        .map(|_| rng.gen_range(0usize..16))
        .collect()
}

fn arb_condition(rng: &mut StdRng) -> ConditionDescriptor {
    match rng.gen_range(0usize..5) {
        0 => ConditionDescriptor::Cross {
            arity: rng.gen_range(2usize..6),
        },
        1 => ConditionDescriptor::CommonKey {
            columns: arb_cols(rng),
        },
        2 => ConditionDescriptor::Star {
            anchor: rng.gen_range(0usize..4),
            anchor_cols: arb_cols(rng),
            other_cols: arb_cols(rng),
        },
        3 => ConditionDescriptor::Band {
            columns: arb_cols(rng),
            band: rng.gen::<f64>() * 100.0,
        },
        _ => ConditionDescriptor::DistanceWithin {
            x_cols: [rng.gen_range(0usize..8), rng.gen_range(0usize..8)],
            y_cols: [rng.gen_range(0usize..8), rng.gen_range(0usize..8)],
            threshold: rng.gen::<f64>() * 50.0,
        },
    }
}

fn arb_query(rng: &mut StdRng) -> WireQuery {
    let m = rng.gen_range(2usize..5);
    let streams = (0..m)
        .map(|i| WireStream {
            name: format!("S{i}"),
            fields: (0..rng.gen_range(1usize..4))
                .map(|f| {
                    let ty = match rng.gen_range(0usize..5) {
                        0 => FieldType::Int,
                        1 => FieldType::Float,
                        2 => FieldType::Str,
                        3 => FieldType::Bool,
                        _ => FieldType::Null,
                    };
                    (format!("a{f}"), ty)
                })
                .collect(),
            window: rng.gen_range(1u64..1 << 30),
        })
        .collect();
    WireQuery {
        name: format!("q{}", rng.gen_range(0u64..1000)),
        streams,
        condition: arb_condition(rng),
        strategy: if rng.gen::<bool>() {
            ProbeStrategy::Auto
        } else {
            ProbeStrategy::NestedLoop
        },
        enumerate: rng.gen(),
        segment_capacity: rng.gen_range(0u64..1 << 32) as u32,
    }
}

fn arb_task(rng: &mut StdRng) -> WireTask {
    WireTask {
        epoch: rng.gen(),
        routing_epoch: rng.gen(),
        items: (0..rng.gen_range(0usize..6))
            .map(|_| WireItem {
                seq: rng.gen_range(0u64..1 << 32) as u32,
                probe: rng.gen(),
                tuple: arb_tuple(rng),
            })
            .collect(),
    }
}

fn arb_output(rng: &mut StdRng) -> WireOutput {
    WireOutput {
        epoch: rng.gen(),
        busy_nanos: rng.gen(),
        sub: (0..rng.gen_range(0usize..6))
            .map(|_| WireSub {
                seq: rng.gen_range(0u64..1 << 32) as u32,
                n_join: rng.gen(),
                indexed: rng.gen(),
            })
            .collect(),
        mat: (0..rng.gen_range(0usize..4))
            .map(|_| (rng.gen_range(0u64..1 << 32) as u32, arb_result(rng)))
            .collect(),
    }
}

fn arb_late(rng: &mut StdRng) -> Frame {
    Frame::LateBounds {
        epoch: rng.gen(),
        late: (0..rng.gen_range(0usize..6))
            .map(|_| WireLate {
                seq: rng.gen_range(0u64..1 << 32) as u32,
                on_t: Timestamp::from_millis(rng.gen()),
            })
            .collect(),
    }
}

fn arb_frame(rng: &mut StdRng) -> Frame {
    match rng.gen_range(0usize..8) {
        0 => arb_late(rng),
        1 => Frame::Setup(arb_query(rng)),
        2 => Frame::SetupAck,
        3 => Frame::Task(arb_task(rng)),
        4 => Frame::Output(arb_output(rng)),
        5 => Frame::Barrier { token: rng.gen() },
        6 => Frame::BarrierAck {
            token: rng.gen(),
            stats: arb_stats(rng),
            window_bytes: rng.gen(),
            window_segments: rng.gen(),
        },
        _ => Frame::Error {
            message: format!("panic #{}", rng.gen_range(0u64..1000)),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encode_then_decode_is_identity(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let frame = arb_frame(&mut rng);
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        let (decoded, consumed) = Frame::decode(&buf).expect("valid frame must decode");
        prop_assert_eq!(consumed, buf.len());
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn decode_never_reads_past_one_frame(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let first = arb_frame(&mut rng);
        let second = arb_frame(&mut rng);
        let mut buf = Vec::new();
        first.encode(&mut buf);
        let first_len = buf.len();
        second.encode(&mut buf);
        // Decoding from the front of the concatenation must consume exactly
        // the first frame; the remainder must decode to the second.
        let (a, consumed) = Frame::decode(&buf).expect("first frame");
        prop_assert_eq!(consumed, first_len);
        prop_assert_eq!(a, first);
        let (b, rest) = Frame::decode(&buf[consumed..]).expect("second frame");
        prop_assert_eq!(rest, buf.len() - first_len);
        prop_assert_eq!(b, second);
    }

    #[test]
    fn every_truncation_errors_and_never_panics(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let frame = arb_frame(&mut rng);
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        for cut in 0..buf.len() {
            match Frame::decode(&buf[..cut]) {
                Err(WireError::Truncated { needed, available }) => {
                    prop_assert!(available < needed);
                    prop_assert!(needed <= buf.len());
                }
                other => panic!("prefix of {cut} bytes must be Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupted_bytes_error_or_decode_but_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let frame = arb_frame(&mut rng);
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        let pos = rng.gen_range(0usize..buf.len());
        let flip = 1u8 << rng.gen_range(0u64..8) as u8;
        buf[pos] ^= flip;
        // Whatever the corruption hits — magic, version, type, length or
        // payload — decoding must return, not panic or over-read.
        let _ = Frame::decode(&buf);
    }

    #[test]
    fn arbitrary_garbage_never_panics(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.gen_range(0usize..96);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0u64..256) as u8).collect();
        let _ = Frame::decode(&bytes);
    }
}

#[test]
fn foreign_version_is_rejected_cleanly() {
    let mut buf = Vec::new();
    Frame::SetupAck.encode(&mut buf);
    // Patch the version field (bytes 4..6) to a future revision.
    let future = (PROTOCOL_VERSION + 1).to_le_bytes();
    buf[4..6].copy_from_slice(&future);
    match Frame::decode(&buf) {
        Err(WireError::VersionMismatch { ours, theirs }) => {
            assert_eq!(ours, PROTOCOL_VERSION);
            assert_eq!(theirs, PROTOCOL_VERSION + 1);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

#[test]
fn retired_frames_are_rejected_cleanly() {
    // Types 0x09 and 0x0C carried hot-key splitting's class copy and purge
    // up to protocol version 4; 0x13 was `Revise` (probe reorder / index
    // demotion) up to version 3; 0x0A, 0x0B, 0x0D, 0x11 and 0x12 were the
    // star pair switch's class data, adopt, ack, window fetch and retain
    // frames up to version 6; 0x01, 0x02, 0x0F and 0x10 were the hello,
    // hello-ack, shutdown and shutdown-ack frames up to version 10.  A
    // current-version header carrying any of them is corrupt.
    for retired in [
        0x01u8, 0x02, 0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x0F, 0x10, 0x11, 0x12, 0x13,
    ] {
        let mut buf = Vec::new();
        Frame::SetupAck.encode(&mut buf);
        buf[6] = retired;
        match Frame::decode(&buf) {
            Err(WireError::Corrupt(why)) => {
                assert!(why.contains(&format!("{retired:#04x}")), "{why}")
            }
            other => panic!("expected Corrupt for {retired:#04x}, got {other:?}"),
        }
        // A version-4, -6, -7, -8, -9 or -10 peer is told which versions
        // disagree, whatever it sends.
        for old in [4u16, 6, 7, 8, 9, 10] {
            buf[4..6].copy_from_slice(&old.to_le_bytes());
            match Frame::decode(&buf) {
                Err(WireError::VersionMismatch { ours, theirs }) => {
                    assert_eq!((ours, theirs), (PROTOCOL_VERSION, old));
                }
                other => panic!("expected VersionMismatch, got {other:?}"),
            }
        }
    }
}

#[test]
fn late_bounds_round_trip_to_the_last_bit() {
    // The late-bound carrier: empty, and with bounds at the extremes of
    // both fields, each frame decodes to itself and consumes exactly its
    // bytes, which are the header, the epoch, the count and 12 bytes a
    // bound.
    let bound = |seq: u32, ms: u64| WireLate {
        seq,
        on_t: Timestamp::from_millis(ms),
    };
    for late in [
        vec![],
        vec![bound(0, 0)],
        vec![bound(7, 1_700_000_000_123), bound(u32::MAX, u64::MAX)],
    ] {
        let n = late.len();
        let frame = Frame::LateBounds {
            epoch: u64::MAX - 1,
            late,
        };
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        assert_eq!(buf.len(), HEADER_LEN + 8 + 8 + 12 * n);
        assert_eq!(buf[6], 0x14, "the late-bounds frame type");
        assert_eq!(Frame::decode(&buf).unwrap(), (frame, buf.len()));
        // A count that promises more bounds than the payload holds is
        // corrupt before anything is allocated for them.
        buf[HEADER_LEN + 8..HEADER_LEN + 16].copy_from_slice(&(n as u64 + 1).to_le_bytes());
        assert!(matches!(Frame::decode(&buf), Err(WireError::Corrupt(_))));
    }
}

#[test]
fn oversized_payload_declaration_is_rejected_before_allocation() {
    let mut buf = Vec::new();
    Frame::SetupAck.encode(&mut buf);
    buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Frame::decode(&buf),
        Err(WireError::TooLarge { .. })
    ));
}

#[test]
fn bad_magic_is_corrupt() {
    let mut buf = Vec::new();
    Frame::SetupAck.encode(&mut buf);
    buf[0] ^= 0xFF;
    assert!(matches!(Frame::decode(&buf), Err(WireError::Corrupt(_))));
}

#[test]
fn trailing_payload_bytes_are_corrupt() {
    let mut buf = Vec::new();
    Frame::SetupAck.encode(&mut buf);
    // Declare one payload byte and append it: SetupAck has an empty payload, so
    // the decoder must flag the excess instead of ignoring it.
    buf[8..12].copy_from_slice(&1u32.to_le_bytes());
    buf.push(0xAA);
    assert!(matches!(Frame::decode(&buf), Err(WireError::Corrupt(_))));
}

#[test]
fn nan_and_negative_zero_floats_cross_bit_exactly() {
    let weird = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
    let tuple = Tuple::new(
        StreamIndex(0),
        1,
        Timestamp::from_millis(5),
        vec![Value::Float(weird), Value::Float(-0.0)],
    );
    let frame = Frame::Task(WireTask {
        epoch: 1,
        routing_epoch: 0,
        items: vec![WireItem {
            seq: 0,
            probe: true,
            tuple,
        }],
    });
    let mut buf = Vec::new();
    frame.encode(&mut buf);
    let (decoded, _) = Frame::decode(&buf).unwrap();
    let Frame::Task(task) = decoded else {
        panic!("frame type changed in flight");
    };
    match (
        &task.items[0].tuple.values()[0],
        &task.items[0].tuple.values()[1],
    ) {
        (Value::Float(a), Value::Float(b)) => {
            assert_eq!(a.to_bits(), weird.to_bits());
            assert_eq!(b.to_bits(), (-0.0f64).to_bits());
        }
        other => panic!("values changed type: {other:?}"),
    }
}

#[test]
fn framed_io_roundtrips_over_read_write() {
    let mut rng = StdRng::seed_from_u64(0xF4A3);
    let frames: Vec<Frame> = (0..32).map(|_| arb_frame(&mut rng)).collect();
    let mut pipe = Vec::new();
    let mut scratch = Vec::new();
    for f in &frames {
        write_frame(&mut pipe, f, &mut scratch).unwrap();
    }
    let mut reader = std::io::Cursor::new(pipe);
    for f in &frames {
        let (got, size) = read_frame(&mut reader, &mut scratch).unwrap();
        assert!(size >= HEADER_LEN);
        assert_eq!(&got, f);
    }
    // EOF at a frame boundary is a disconnect, not corruption.
    match read_frame(&mut reader, &mut scratch) {
        Err(e) => assert!(e.is_disconnect(), "expected disconnect, got {e:?}"),
        Ok(f) => panic!("read past the last frame: {f:?}"),
    }
}
