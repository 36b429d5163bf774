//! The star pair-switch scenario shared by the differential suites
//! (`tests/differential_backends.rs`, `tests/segment_boundary.rs`).
//!
//! The star default partitions (S1, S2), but S3 floods while S2 trickles —
//! broadcasting the flood replicates it to every shard, so the runtime
//! re-planner (at its built-in thresholds) must move the pair to S3,
//! re-keying the anchor and migrating all three windows between shards.

use mswj::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// The arrivals over a 3-way star S1(a1, a2) ⋈ S2(a1) ⋈ S3(a2), in arrival
/// order: 120 rounds of one S1 tuple, an S2 tuple every fourth round and
/// four S3 tuples.
pub fn switch_events() -> Vec<ArrivalEvent> {
    let mut rng = StdRng::seed_from_u64(0x9E9A_A417);
    let mut switch_events = Vec::new();
    let mut seqs = [0u64; 3];
    for round in 0..120u64 {
        let arrival = (round + 1) * 10;
        let a1 = (round % 8) as i64;
        let a2 = (round % 6) as i64;
        switch_events.push(event(
            0,
            seqs[0],
            arrival,
            rng.gen_range(0u64..40),
            vec![Value::Int(a1), Value::Int(a2)],
        ));
        seqs[0] += 1;
        if round % 4 == 0 {
            switch_events.push(event(
                1,
                seqs[1],
                arrival,
                rng.gen_range(0u64..40),
                vec![Value::Int(a1)],
            ));
            seqs[1] += 1;
        }
        for burst in 0..4u64 {
            switch_events.push(event(
                2,
                seqs[2],
                arrival,
                rng.gen_range(0u64..40),
                vec![Value::Int(((round + burst) % 6) as i64)],
            ));
            seqs[2] += 1;
        }
    }
    ArrivalLog::from_events(switch_events).events().to_vec()
}

/// Tuples adopted into shard windows by pair-switch migration, summed over
/// the shards of a finished run.
pub fn migrated_tuples(report: &RunReport) -> u64 {
    report
        .shard_stats
        .iter()
        .map(|s| s.runtime.migrated_tuples)
        .sum()
}
