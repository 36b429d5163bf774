//! Per-shard work counts: the two structural claims of key-partitioned
//! execution, stated as counts instead of timings.
//!
//! A partitioned join is judged by per-node load (Chakraborty, arXiv
//! 1307.6574): which shard holds which tuples, and which shard's probes
//! fall back to a scan.  Both are deterministic, so they are asserted
//! exactly here.
//!
//! * A star plan's placement is fixed at construction: the anchor and the
//!   lowest-numbered satellite are key-routed, each live tuple stored once
//!   across the shards, and the other satellite is broadcast, held whole
//!   on every shard — so a flooding satellite belongs first.
//! * A live non-integral `Float` key disables the hash index of the one
//!   shard it routes to; the other shards keep probing through theirs.

mod star_flood;

use mswj::prelude::*;
use star_flood::{star_events, star_query};
use std::sync::Arc;

const SHARDS: usize = 4;

/// Live tuples of `stream` in each shard window of `pipeline`.  Shards
/// expire lazily, so a tuple only counts if it is inside the window as of
/// the engine's global `onT`.
fn live_per_shard(pipeline: &Pipeline, stream: usize, window: u64) -> Vec<usize> {
    let engine = pipeline.engine();
    let bound = engine.on_t().saturating_sub_duration(window);
    (0..engine.shard_count())
        .map(|s| {
            engine
                .shard(s)
                .window(StreamIndex(stream))
                .iter()
                .filter(|t| t.ts >= bound)
                .count()
        })
        .collect()
}

/// Asserts the star placement of `sharded` against the single-shard
/// `reference` at the same point of the same input: the anchor (stream 0)
/// and the key-routed satellite 1 hold each live tuple once across the
/// shards, the broadcast satellite 2 holds all of its live tuples on every
/// shard.
fn assert_star_placement(reference: &Pipeline, sharded: &Pipeline, window: u64, at: &str) {
    for stream in 0..3 {
        let live = live_per_shard(reference, stream, window)[0];
        let held = live_per_shard(sharded, stream, window);
        if stream == 2 {
            assert!(
                held.iter().all(|&n| n == live),
                "{at}: broadcast stream {stream} holds {held:?} of its {live} live tuples"
            );
        } else {
            assert_eq!(
                held.iter().sum::<usize>(),
                live,
                "{at}: key-routed stream {stream} holds {held:?} of its {live} live tuples"
            );
        }
    }
}

#[test]
fn star_placement_is_fixed_at_construction() {
    const WINDOW: u64 = 240;
    // (arm, flooding satellite): the partitioner key-routes satellite 1
    // with the anchor for the whole session.  Declared first, the flood is
    // stored once across the shards; declared second, it is broadcast and
    // held whole on every shard.
    for (arm, flood) in [
        ("flood declared first", 1usize),
        ("flood declared second", 2),
    ] {
        let build = |backend: ExecutionBackend| {
            Pipeline::builder()
                .query(star_query(WINDOW))
                .policy(star_flood::policy())
                .parallelism(backend)
                .build()
                .unwrap()
        };
        let mut reference = build(ExecutionBackend::Sequential);
        let mut sharded = build(ExecutionBackend::Pool { workers: SHARDS });
        assert_eq!(sharded.engine().shard_count(), SHARDS, "[{arm}]");
        // The placement holds after every batch.
        let mut flood_live = 0;
        for (i, chunk) in star_events(flood).chunks(64).enumerate() {
            reference.push_batch_into(chunk.iter().cloned(), &mut NullSink);
            sharded.push_batch_into(chunk.iter().cloned(), &mut NullSink);
            assert_star_placement(
                &reference,
                &sharded,
                WINDOW,
                &format!("[{arm}] after batch {i}"),
            );
            flood_live = flood_live.max(live_per_shard(&reference, flood, WINDOW)[0]);
        }
        assert!(flood_live > 0, "[{arm}] the flood must be live");
        assert_eq!(
            sharded.finish().total_produced,
            reference.finish().total_produced,
            "[{arm}]"
        );
    }
}

#[test]
fn a_live_float_key_poisons_only_its_home_shard() {
    let streams =
        StreamSet::homogeneous(2, Schema::new(vec![("a1", FieldType::Int)]), 10_000).unwrap();
    let cond = Arc::new(CommonKeyEquiJoin::new(&streams, "a1").unwrap());
    let query = JoinQuery::new("float-poison", streams, cond).unwrap();
    let mut engine = JoinEngine::new(
        query,
        ProbeStrategy::Auto,
        false,
        ExecutionBackend::Pool { workers: SHARDS },
    );
    // In-order pairs (one tuple per stream per millisecond) over 16 integer
    // keys, which spread over every shard.  Pair 100 carries the one
    // non-integral key on stream 0; nothing expires in a 10 s window, so
    // it stays live while the next 200 pairs probe.
    const POISON_AT: u64 = 100;
    let tuple = |t: u64, stream: usize| {
        let value = if t == POISON_AT && stream == 0 {
            Value::Float(3.5)
        } else {
            Value::Int((t % 16) as i64)
        };
        Tuple::new(stream.into(), t, Timestamp::from_millis(t), vec![value])
    };
    for from in (1..=300u64).step_by(50) {
        let batch = (from..from + 50).flat_map(|t| [tuple(t, 0), tuple(t, 1)]);
        engine.push_batch(batch, &mut |_| {});
    }
    engine.sync(&mut |_| {});

    let unusable: Vec<usize> = (0..SHARDS)
        .filter(|&s| !engine.shard(s).window(StreamIndex(0)).index_usable(0))
        .collect();
    assert_eq!(unusable.len(), 1, "poisoned shards: {unusable:?}");
    let home = unusable[0];
    assert!(
        engine
            .shard(home)
            .window(StreamIndex(0))
            .iter()
            .any(|t| matches!(t.values()[0], Value::Float(_))),
        "shard {home} reports the poison but does not hold the float"
    );
    for s in 0..SHARDS {
        assert!(
            engine.shard(s).window(StreamIndex(1)).index_usable(0),
            "stream 1 holds only integers, shard {s}"
        );
    }

    for (s, stats) in engine.shard_stats().iter().enumerate() {
        let op = &stats.operator;
        assert!(op.indexed_probes > 0, "shard {s} never probed its index");
        assert_eq!(
            op.fallback_probes > 0,
            s == home,
            "shard {s}: {} fallback probe(s), poisoned shard {home}",
            op.fallback_probes
        );
    }
}
