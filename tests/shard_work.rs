//! Per-shard work counts: the two structural claims of key-partitioned
//! execution, stated as counts instead of timings.
//!
//! A partitioned join is judged by per-node load (Chakraborty, arXiv
//! 1307.6574): which shard holds which tuples, and which shard's probes
//! fall back to a scan.  Both are deterministic, so they are asserted
//! exactly here.
//!
//! * The star pair switch recovers the best static placement: a key-routed
//!   stream is stored once across the shards, a broadcast one once per
//!   shard, and the switch ends with the flood key-routed.
//! * A live non-integral `Float` key disables the hash index of the one
//!   shard it routes to; the other shards keep probing through theirs.

mod pair_switch;

use mswj::prelude::*;
use pair_switch::{star_events, star_query};
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

/// Asserts the star placement `sharded` is in, against the single-shard
/// `reference` at the same point of the same input: the anchor and the
/// key-routed partner hold each live tuple once across the shards, the
/// broadcast satellite holds all of its live tuples on every shard.
/// Returns the partner.
fn assert_star_placement(reference: &Pipeline, sharded: &Pipeline, window: u64, at: &str) -> usize {
    let partner = sharded.engine().star_partner().expect("a star plan");
    let broadcast = 3 - partner;
    for stream in [0, partner, broadcast] {
        let live = live_per_shard(reference, stream, window)[0];
        let held = live_per_shard(sharded, stream, window);
        if stream == broadcast {
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
    partner
}

#[test]
fn pair_switch_recovers_the_best_static_placement() {
    const WINDOW: u64 = 240;
    // (arm, flooding satellite, pair switches): the planner blindly
    // key-routes satellite 1 with the anchor.  The best static placement
    // declares the flood as satellite 1; the adaptive arm declares the
    // trickle there and must switch once.
    for (arm, flood, switches) in [("best static", 1usize, 0usize), ("adaptive", 2, 1)] {
        let build = |backend: ExecutionBackend| {
            Pipeline::builder()
                .query(star_query(WINDOW))
                .policy(pair_switch::policy())
                .parallelism(backend)
                .build()
                .unwrap()
        };
        let mut reference = build(ExecutionBackend::Sequential);
        let mut sharded = build(ExecutionBackend::Pool { workers: SHARDS });
        assert_eq!(sharded.engine().shard_count(), SHARDS, "[{arm}]");
        // The placement holds after every batch, across the switch and its
        // state migration too.
        let mut on_the_flood = 0;
        for (i, chunk) in star_events(flood).chunks(64).enumerate() {
            reference.push_batch_into(chunk.iter().cloned(), &mut NullSink);
            sharded.push_batch_into(chunk.iter().cloned(), &mut NullSink);
            let at = format!("[{arm}] after batch {i}");
            if assert_star_placement(&reference, &sharded, WINDOW, &at) == flood {
                on_the_flood += 1;
            }
        }
        assert_eq!(sharded.engine().star_partner(), Some(flood), "[{arm}]");
        assert!(on_the_flood > 0, "[{arm}]");

        let report = sharded.finish();
        assert_eq!(
            report.plan_transitions.len(),
            switches,
            "[{arm}] {:?}",
            report.plan_transitions
        );
        assert_eq!(
            pair_switch::migrated_tuples(&report) > 0,
            switches > 0,
            "[{arm}] only a switch migrates window state"
        );
        assert_eq!(
            report.total_produced,
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
