//! The star flood scenario shared by the differential harness
//! (`tests/differential.rs`) and the per-shard work counts
//! (`tests/shard_work.rs`).
//!
//! A star plan key-routes its anchor with the lowest-numbered satellite
//! for the whole session and broadcasts the other one.  One satellite
//! floods while the other trickles: declared first, the flood is
//! key-routed and stored once across the shards; declared second, it is
//! broadcast and held whole on every shard.

use mswj::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The 3-way star S1(a1, a2) ⋈ S2(a1) ⋈ S3(a2) on the anchor S1; the
/// partitioner key-routes the (S1, S2) pair and broadcasts S3.
pub fn star_query(window: u64) -> JoinQuery {
    let streams = StreamSet::new(vec![
        StreamSpec::new(
            "S1",
            Schema::new(vec![("a1", FieldType::Int), ("a2", FieldType::Int)]),
            window,
        ),
        StreamSpec::new("S2", Schema::new(vec![("a1", FieldType::Int)]), window),
        StreamSpec::new("S3", Schema::new(vec![("a2", FieldType::Int)]), window),
    ])
    .unwrap();
    let cond =
        Arc::new(StarEquiJoin::new(&streams, 0, &[(1, "a1", "a1"), (2, "a2", "a2")]).unwrap());
    JoinQuery::new("star-flood", streams, cond).unwrap()
}

/// One arrival with a bounded random delay — the hand-rolled workloads
/// need per-stream rate asymmetry a uniform generator cannot express.
pub fn event(
    stream: usize,
    seq: u64,
    arrival: u64,
    delay: u64,
    values: Vec<Value>,
) -> ArrivalEvent {
    ArrivalEvent::new(
        Timestamp::from_millis(arrival),
        Tuple::new(
            stream.into(),
            seq,
            Timestamp::from_millis(arrival.saturating_sub(delay)),
            values,
        ),
    )
}

/// The quality-driven policy the scenario runs under.
pub fn policy() -> BufferPolicy {
    BufferPolicy::QualityDriven(
        DisorderConfig::with_gamma(0.9)
            .period(1_000)
            .interval(250)
            .granularity(20)
            .basic_window(20),
    )
}

/// The arrivals over [`star_query`], in arrival order: 120 rounds of one
/// S1 tuple, a tuple of the other satellite every fourth round and four
/// tuples of the `flood` satellite (1 or 2).  `star_events(2)` puts the
/// flood on the broadcast path.
pub fn star_events(flood: usize) -> Vec<ArrivalEvent> {
    let trickle = 3 - flood;
    // A satellite's key lives in the anchor column it joins: a1 on S2
    // (8 values), a2 on S3 (6 values).
    let key = |stream: usize, round: u64| match stream {
        1 => (round % 8) as i64,
        _ => (round % 6) as i64,
    };
    let mut rng = StdRng::seed_from_u64(0x9E9A_A417);
    let mut events = Vec::new();
    let mut seqs = [0u64; 3];
    for round in 0..120u64 {
        let arrival = (round + 1) * 10;
        events.push(event(
            0,
            seqs[0],
            arrival,
            rng.gen_range(0u64..40),
            vec![Value::Int(key(1, round)), Value::Int(key(2, round))],
        ));
        seqs[0] += 1;
        if round % 4 == 0 {
            events.push(event(
                trickle,
                seqs[trickle],
                arrival,
                rng.gen_range(0u64..40),
                vec![Value::Int(key(trickle, round))],
            ));
            seqs[trickle] += 1;
        }
        for burst in 0..4u64 {
            events.push(event(
                flood,
                seqs[flood],
                arrival,
                rng.gen_range(0u64..40),
                vec![Value::Int(key(flood, round + burst))],
            ));
            seqs[flood] += 1;
        }
    }
    ArrivalLog::from_events(events).events().to_vec()
}
