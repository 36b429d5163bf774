//! Asserts the sink contract of the event-driven hot path: a counting-mode
//! session's `push_into` performs **no per-event heap allocation** in steady
//! state.
//!
//! A counting global allocator tallies every allocation made by the test
//! binary.  After a warm-up phase (internal scratch buffers, windows,
//! histograms and buffers acquire their capacity), a measured phase pushes
//! hundreds of pre-materialized events and checks that the allocation count
//! stays far below one per event — the old `push(..) -> Vec<JoinResult>`
//! surface allocated several times per event on the same workload.
//!
//! The allocator also keeps a per-thread live-byte balance, which pins the
//! windows' byte estimate to what the allocator really handed out.

use mswj::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocations made by *this* thread — what a strict "zero" assertion
    /// needs, since the test harness's own threads allocate concurrently.
    static THREAD_ALLOCATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed, by requested size.
    static THREAD_LIVE_BYTES: std::cell::Cell<i64> = const { std::cell::Cell::new(0) };
}

fn count_allocation() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

fn count_bytes(delta: i64) {
    let _ = THREAD_LIVE_BYTES.try_with(|c| c.set(c.get() + delta));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        count_bytes(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        count_bytes(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(|c| c.get())
}

fn thread_live_bytes() -> i64 {
    THREAD_LIVE_BYTES.with(|c| c.get())
}

/// A session that runs only on the calling thread (`Sequential`) is
/// measured with [`thread_allocations`], which no other test thread can
/// move.  The `Pool` fallback test reads the process-global counter, whose
/// workers allocate off the calling thread, so every measuring test holds
/// this lock across its measured phase.
static MEASURE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// In-order events on two streams, 1 ms apart, with keys chosen so the two
/// streams never join (the probe path runs, `produced` stays untouched).
fn events(from_ms: u64, to_ms: u64) -> Vec<ArrivalEvent> {
    (from_ms..to_ms)
        .map(|t| {
            let stream = (t % 2) as usize;
            // Stream 0 uses keys {1, 2}, stream 1 uses {11, 12}: no matches,
            // and the windows' key indexes stay at a constant, tiny size.
            let key = (stream as i64) * 10 + 1 + (t as i64 % 2);
            let ts = Timestamp::from_millis(t);
            ArrivalEvent::new(ts, Tuple::new(stream.into(), t, ts, vec![Value::Int(key)]))
        })
        .collect()
}

#[test]
fn counting_push_into_does_not_allocate_per_event() {
    let _guard = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut pipeline = Pipeline::builder()
        .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 100)
        .on_common_key("a1")
        .policy(BufferPolicy::NoKSlack)
        .build()
        .unwrap();

    // Warm up: scratch buffers, window deques, key indexes, delay
    // histograms and ADWIN state acquire their steady-state capacity.
    // All arrivals stay below the first adaptation checkpoint (L = 1 s by
    // default), so no checkpoint bookkeeping runs mid-measurement.
    let warmup = events(1, 400);
    let measured = events(400, 800);
    let n = measured.len() as u64;
    let mut sink = CountingSink::default();
    for e in warmup {
        pipeline.push_into(e, &mut sink);
    }

    let before = thread_allocations();
    for e in measured {
        pipeline.push_into(e, &mut sink);
    }
    let during = thread_allocations() - before;

    // The watermark advanced through the measured phase without a single
    // Result event (counting mode, non-joining keys).  The synchronizer
    // holds back the newest tuple per stream, so progress trails the last
    // arrival by a tick or two.
    assert_eq!(sink.results, 0);
    assert!(sink.last_progress.unwrap() >= Timestamp::from_millis(790));

    // Strict bound: far below one allocation per event.  The only growth
    // allowed is amortized history-window expansion (ADWIN/statistics),
    // which is O(log n), not O(n).
    assert!(
        during <= n / 8,
        "hot path allocated {during} times for {n} events (> 1 per {} events)",
        n / during.max(1)
    );

    let report = pipeline.finish();
    assert_eq!(report.total_produced, 0);
    assert_eq!(report.operator_stats.in_order, 799);
}

#[test]
fn telemetry_enabled_push_into_does_not_allocate_per_event() {
    // The instrumented hot path: events-ingested counter, K-slack delay
    // histogram and batch-latency histogram all record on every push.
    // Counters and histogram buckets are fixed-size atomics registered at
    // build time, so enabling telemetry must not add a single per-event
    // allocation.
    let _guard = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let telemetry = Telemetry::new();
    let mut pipeline = Pipeline::builder()
        .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 100)
        .on_common_key("a1")
        .policy(BufferPolicy::NoKSlack)
        .telemetry(telemetry.clone())
        .build()
        .unwrap();

    let warmup = events(1, 400);
    let measured = events(400, 800);
    let n = measured.len() as u64;
    let mut sink = CountingSink::default();
    for e in warmup {
        pipeline.push_into(e, &mut sink);
    }

    let before = thread_allocations();
    for e in measured {
        pipeline.push_into(e, &mut sink);
    }
    let during = thread_allocations() - before;
    assert!(
        during <= n / 8,
        "instrumented hot path allocated {during} times for {n} events (> 1 per {} events)",
        n / during.max(1)
    );

    // The instruments saw every event.
    let session = telemetry.session();
    assert_eq!(session.events_ingested.get(), 799);
    assert_eq!(session.kslack_delay_ms.count(), 799);
    assert!(session.ingest_emit_latency_nanos.count() > 0);

    let report = pipeline.finish();
    assert_eq!(report.total_produced, 0);
    assert_eq!(report.operator_stats.in_order, 799);
}

#[test]
fn joining_counting_session_still_stays_allocation_free_per_event() {
    // Same shape but with matching keys: the index-assisted counting path
    // runs (results are tallied, never materialized) and `produced`
    // bookkeeping appends amortized — still no per-event allocation.
    let _guard = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut pipeline = Pipeline::builder()
        .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 50)
        .on_common_key("a1")
        .policy(BufferPolicy::NoKSlack)
        .build()
        .unwrap();
    let shared_key = |t: u64, stream: usize| {
        let ts = Timestamp::from_millis(t);
        ArrivalEvent::new(ts, Tuple::new(stream.into(), t, ts, vec![Value::Int(7)]))
    };
    let warmup: Vec<ArrivalEvent> = (1..400u64)
        .map(|t| shared_key(t, (t % 2) as usize))
        .collect();
    let measured: Vec<ArrivalEvent> = (400..800u64)
        .map(|t| shared_key(t, (t % 2) as usize))
        .collect();
    let n = measured.len() as u64;
    for e in warmup {
        pipeline.push(e);
    }
    let before = thread_allocations();
    for e in measured {
        pipeline.push(e);
    }
    let during = thread_allocations() - before;
    assert!(
        during <= n / 8,
        "joining hot path allocated {during} times for {n} events"
    );
    let report = pipeline.finish();
    assert!(report.total_produced > 0);
    // The constant-key workload is answered entirely by the hash-indexed
    // probe path: every in-order arrival is an indexed probe.
    let stats = report.operator_stats;
    assert_eq!(stats.fallback_probes, 0);
    assert_eq!(stats.indexed_probes, stats.in_order);
}

#[test]
fn parallel_backends_small_batch_fallback_stays_allocation_free() {
    // Single-event `push_into` on the `Pool` backend takes the
    // sub-threshold inline fallback: no epoch enqueue — and, like the
    // sequential path, no per-event heap allocation once the scratch
    // buffers have their capacity.  The pool's resident workers are idle
    // the whole time (every batch is far below the threshold), so the
    // fallback locks uncontended shard mutexes.
    let _guard = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for backend in [
        ExecutionBackend::Pool { workers: 1 },
        ExecutionBackend::Pool { workers: 4 },
    ] {
        let mut pipeline = Pipeline::builder()
            .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 100)
            .on_common_key("a1")
            .policy(BufferPolicy::NoKSlack)
            .parallelism(backend.clone())
            .build()
            .unwrap();
        let warmup = events(1, 400);
        let measured = events(400, 800);
        let n = measured.len() as u64;
        for e in warmup {
            pipeline.push(e);
        }
        let before = allocations();
        for e in measured {
            pipeline.push(e);
        }
        let during = allocations() - before;
        assert!(
            during <= n / 8,
            "{backend} fallback path allocated {during} times for {n} events"
        );
        let report = pipeline.finish();
        assert_eq!(report.operator_stats.in_order, 799, "{backend}");
        // Proof the fallback really ran: no epochs were ever enqueued.
        assert!(
            report
                .shard_stats
                .iter()
                .all(|s| s.runtime.epochs_enqueued == 0),
            "{backend} sub-threshold batches must never enqueue an epoch"
        );
    }
}

#[test]
fn late_loss_count_allocates_nothing_on_counting_sessions() {
    // Counting engines fed in arrival order, one arrival in four 15 ms late
    // (inside the 60 ms windows): each such tuple expires the other windows
    // to onT − W and counts the results it lost before it is inserted — an
    // index lookup per level on the common key, a walk of the anchor's
    // bucket on the 3-way star — on the sequential shard and on Pool{2}'s
    // caller-thread inline path alike.
    let _guard = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let schema = || Schema::new(vec![("a1", FieldType::Int), ("a2", FieldType::Int)]);
    let common = {
        let streams = StreamSet::homogeneous(3, schema(), 60).unwrap();
        let cond = std::sync::Arc::new(CommonKeyEquiJoin::new(&streams, "a1").unwrap());
        JoinQuery::new("late-common", streams, cond).unwrap()
    };
    let star = {
        let streams = StreamSet::homogeneous(3, schema(), 60).unwrap();
        let pairs = [(1, "a1", "a1"), (2, "a2", "a2")];
        let cond = std::sync::Arc::new(StarEquiJoin::new(&streams, 0, &pairs).unwrap());
        JoinQuery::new("late-star", streams, cond).unwrap()
    };
    let tuple = |t: u64| {
        let ts = Timestamp::from_millis(t - if t.is_multiple_of(4) { 15 } else { 0 });
        let keys = vec![
            Value::Int((t / 3 % 2) as i64),
            Value::Int((t / 3 % 3) as i64),
        ];
        Tuple::new(((t % 3) as usize).into(), t, ts, keys)
    };
    for query in [common, star] {
        for backend in [
            ExecutionBackend::Sequential,
            ExecutionBackend::Pool { workers: 2 },
        ] {
            let mut engine = JoinEngine::new(query.clone(), ProbeStrategy::Auto, false, backend);
            // (late tuples kept, losses counted) so far.
            let counts = std::cell::Cell::new((0u64, 0u64));
            let mut handler = |ev: mswj::core::EngineEvent<'_>| {
                if let mswj::core::EngineEvent::Done(o) = ev {
                    let (late, lost) = counts.get();
                    let kept = u64::from(!o.in_order && o.inserted);
                    counts.set((late + kept, lost + o.n_lost));
                }
            };
            let warmup: Vec<Tuple> = (20..1_400).map(tuple).collect();
            let measured: Vec<Tuple> = (1_400..2_200).map(tuple).collect();
            let n = measured.len() as u64;
            for t in warmup {
                engine.stage(t);
                engine.flush(&mut handler);
            }
            let (late_before, lost_before) = counts.get();
            let before = thread_allocations();
            for t in measured {
                engine.stage(t);
                engine.flush(&mut handler);
            }
            let during = thread_allocations() - before;
            let label = format!("{} on {} shard(s)", query.name(), engine.shard_count());
            assert!(
                during <= n / 8,
                "{label}: the late count allocated {during} times for {n} events"
            );
            let (late, lost) = counts.get();
            assert!(
                late - late_before >= n / 8,
                "{label}: {late} late tuples kept"
            );
            assert!(
                lost > lost_before,
                "{label}: the late tuples must count losses"
            );
        }
    }
}

#[test]
fn dropped_loss_count_allocates_nothing_on_counting_sessions() {
    // The late test's queries and arrivals, but one arrival in four 90 ms
    // late: out of the 60 ms windows' scope, so dropped — after the other
    // windows are expired to onT − W and the results it lost are counted.
    // The sequential shard's operator counts it itself; on Pool{2} the
    // front routes it as a late item that the caller thread drains inline,
    // where the shard's own scope check drops it.  A dropped tuple inserts
    // nothing, so its stage and flush
    // allocate nothing — not even a segment seal — and the whole stream
    // allocates no more than its in-order tuples alone do.
    let _guard = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let schema = || Schema::new(vec![("a1", FieldType::Int), ("a2", FieldType::Int)]);
    let common = {
        let streams = StreamSet::homogeneous(3, schema(), 60).unwrap();
        let cond = std::sync::Arc::new(CommonKeyEquiJoin::new(&streams, "a1").unwrap());
        JoinQuery::new("drop-common", streams, cond).unwrap()
    };
    let star = {
        let streams = StreamSet::homogeneous(3, schema(), 60).unwrap();
        let pairs = [(1, "a1", "a1"), (2, "a2", "a2")];
        let cond = std::sync::Arc::new(StarEquiJoin::new(&streams, 0, &pairs).unwrap());
        JoinQuery::new("drop-star", streams, cond).unwrap()
    };
    let dropped = |t: u64| t.is_multiple_of(4);
    let tuple = |t: u64| {
        let ts = Timestamp::from_millis(t - if dropped(t) { 90 } else { 0 });
        let keys = vec![
            Value::Int((t / 3 % 2) as i64),
            Value::Int((t / 3 % 3) as i64),
        ];
        Tuple::new(((t % 3) as usize).into(), t, ts, keys)
    };
    for query in [common, star] {
        for backend in [
            ExecutionBackend::Sequential,
            ExecutionBackend::Pool { workers: 2 },
        ] {
            // Allocations of the measured stream's dropped tuples and of
            // the whole measured stream, with and without the drops.
            let mut totals = [0u64; 2];
            let mut on_drops = 0u64;
            for (run, with_drops) in [true, false].into_iter().enumerate() {
                let mut engine =
                    JoinEngine::new(query.clone(), ProbeStrategy::Auto, false, backend.clone());
                // (tuples dropped, losses they counted) so far.
                let counts = std::cell::Cell::new((0u64, 0u64));
                let mut handler = |ev: mswj::core::EngineEvent<'_>| {
                    if let mswj::core::EngineEvent::Done(o) = ev {
                        let (drops, lost) = counts.get();
                        let drop = u64::from(!o.inserted);
                        counts.set((drops + drop, lost + drop * o.n_lost));
                    }
                };
                let keep = |&t: &u64| with_drops || !dropped(t);
                for t in (100..1_400).filter(keep) {
                    engine.stage(tuple(t));
                    engine.flush(&mut handler);
                }
                let (drops_before, lost_before) = counts.get();
                let measured: Vec<(u64, Tuple)> =
                    (1_400..2_200).filter(keep).map(|t| (t, tuple(t))).collect();
                for (t, tuple) in measured {
                    let before = thread_allocations();
                    engine.stage(tuple);
                    engine.flush(&mut handler);
                    let spent = thread_allocations() - before;
                    totals[run] += spent;
                    if dropped(t) {
                        on_drops += spent;
                    }
                }
                let (drops, lost) = counts.get();
                let label = format!("{} on {} shard(s)", query.name(), engine.shard_count());
                if with_drops {
                    assert_eq!(drops - drops_before, 200, "{label}");
                    assert!(lost > lost_before, "{label}: drops must count losses");
                } else {
                    assert_eq!(drops, 0, "{label}");
                }
            }
            let label = format!("{} on {backend}", query.name());
            assert_eq!(on_drops, 0, "{label}: counting 200 drops allocated");
            assert!(
                totals[0] <= totals[1],
                "{label}: {} allocations with the drops, {} without",
                totals[0],
                totals[1]
            );
        }
    }
}

#[test]
fn pipelined_pool_epochs_allocate_nothing_on_the_caller_thread() {
    // 64-event batches stage 64 tuples each — above the inline threshold —
    // so every flush collects the previous epoch from the resident workers,
    // merges it and submits the next one.  Routing, submission, collection
    // and the merge all run on this thread and recycle their buffers; the
    // workers' own allocations are not counted here.  Warm-up and
    // measurement stay below the first checkpoint (L = 1 s by default).
    let _guard = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut pipeline = Pipeline::builder()
        .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 100)
        .on_common_key("a1")
        .policy(BufferPolicy::NoKSlack)
        .parallelism(ExecutionBackend::Pool { workers: 2 })
        .build()
        .unwrap();
    let batches = |events: Vec<ArrivalEvent>| -> Vec<Vec<ArrivalEvent>> {
        events.chunks(64).map(<[ArrivalEvent]>::to_vec).collect()
    };
    let warmup = batches(events(1, 385));
    let measured = batches(events(385, 961));
    let n = measured.len() as u64;
    let mut sink = CountingSink::default();
    for batch in warmup {
        pipeline.push_batch_into(batch, &mut sink);
    }

    let before = thread_allocations();
    for batch in measured {
        pipeline.push_batch_into(batch, &mut sink);
    }
    let during = thread_allocations() - before;

    // Amortized statistics-history growth is all that may remain: fewer
    // allocations than epochs.
    assert!(
        during < n,
        "{n} pipelined epochs allocated {during} times on the caller thread"
    );
    // Proof the epochs really ran through the workers.  Summed over shards:
    // the four keys may all home on one.
    let epochs: u64 = pipeline
        .shard_stats()
        .iter()
        .map(|s| s.runtime.epochs_enqueued)
        .sum();
    assert!(epochs >= n, "{epochs} epochs enqueued for {n} batches");
    assert_eq!(sink.results, 0);
}

#[test]
fn fixed_k_buffers_stay_allocation_free_on_mixed_disorder() {
    // K-slack (K = 10 ms) really buffers here, and its input mixes on-time
    // and late tuples in the warm phase and in the measured phase alike:
    // every fourth arrival is 7 ms late, behind three newer tuples of its
    // own stream that are still buffered — so the buffer's sorted run and
    // its late heap are both exercised, both acquire their capacity during
    // warm-up, and neither allocates afterwards.  Stream 1 runs a constant
    // 3 ms behind stream 0, so its K-slack releases land below stream 0's
    // in the Synchronizer's buffer, which sees the same mix.
    let _guard = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    const K: u64 = 10;
    let mixed = |from_ms: u64, to_ms: u64| -> Vec<ArrivalEvent> {
        (from_ms..to_ms)
            .map(|t| {
                let stream = (t % 2) as usize;
                let key = (stream as i64) * 10 + 1 + (t as i64 / 2 % 2);
                let late = if t % 4 < 2 && t / 4 % 2 == 0 { 7 } else { 0 };
                let ts = Timestamp::from_millis(t - 3 * stream as u64 - late);
                let tuple = Tuple::new(stream.into(), t, ts, vec![Value::Int(key)]);
                ArrivalEvent::new(Timestamp::from_millis(t), tuple)
            })
            .collect()
    };
    let mut pipeline = Pipeline::builder()
        .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 100)
        .on_common_key("a1")
        .policy(BufferPolicy::FixedK(K))
        .build()
        .unwrap();
    let warmup = mixed(12, 400);
    let measured = mixed(400, 800);
    let n = measured.len() as u64;

    // The same arrivals through bare components: the late heap is taken in
    // both phases, by K-slack and by the Synchronizer, and so is the run.
    let mut kslacks = [KSlack::new(K), KSlack::new(K)];
    let mut synchronizer = Synchronizer::new(2);
    let (mut released, mut synced) = (Vec::new(), Vec::new());
    let mut late_inserts_after = |events: &[ArrivalEvent]| {
        for e in events {
            kslacks[e.stream().as_usize()].push_into(e.tuple.clone(), &mut released);
            for t in released.drain(..) {
                synchronizer.push_into(t, &mut synced);
            }
        }
        let ks = kslacks[0].stats();
        assert_eq!(ks.residual_out_of_order, 0, "K covers every delay");
        (ks.late_inserts, synchronizer.stats().late_inserts)
    };
    let (ks_warm, sync_warm) = late_inserts_after(&warmup);
    let (ks_all, sync_all) = late_inserts_after(&measured);
    assert!(ks_warm > 0 && ks_all > ks_warm && ks_all < kslacks[0].stats().received / 2);
    assert!(sync_warm > 0 && sync_all > sync_warm && sync_all < synchronizer.stats().received);

    let mut sink = CountingSink::default();
    for e in warmup {
        pipeline.push_into(e, &mut sink);
    }
    let before = thread_allocations();
    for e in measured {
        pipeline.push_into(e, &mut sink);
    }
    let during = thread_allocations() - before;
    assert!(
        during <= n / 8,
        "buffering hot path allocated {during} times for {n} events (> 1 per {} events)",
        n / during.max(1)
    );

    let report = pipeline.finish();
    // 7 ms behind its arrival is 5 ms behind its stream's previous tuple.
    assert_eq!(report.max_observed_delay, 5);
    assert_eq!(report.kslack_residual_out_of_order, 0);
    assert_eq!(report.operator_stats.in_order, 788);
}

#[test]
fn counting_common_key_session_allocates_no_posting_map() {
    // Every tuple carries a key no other tuple shares, so a posting map
    // would open — and allocate — a fresh bucket on every insert.  The
    // windows of a counting common-key session keep live key counts
    // instead: one tally per live key, added and removed within the map's
    // warmed capacity, and no per-insert allocation at all.
    let _guard = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut pipeline = Pipeline::builder()
        .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 100)
        .on_common_key("a1")
        .policy(BufferPolicy::NoKSlack)
        .build()
        .unwrap();
    let unique = |t: u64| {
        let ts = Timestamp::from_millis(t);
        let tuple = Tuple::new(((t % 2) as usize).into(), t, ts, vec![Value::Int(t as i64)]);
        ArrivalEvent::new(ts, tuple)
    };
    let warmup: Vec<ArrivalEvent> = (1..400u64).map(unique).collect();
    let measured: Vec<ArrivalEvent> = (400..800u64).map(unique).collect();
    let n = measured.len() as u64;
    for e in warmup {
        pipeline.push(e);
    }
    let before = thread_allocations();
    for e in measured {
        pipeline.push(e);
    }
    let during = thread_allocations() - before;
    assert!(
        during <= n / 8,
        "distinct-key counting session allocated {during} times for {n} events"
    );
    let report = pipeline.finish();
    assert_eq!(report.total_produced, 0, "no key is ever shared");
    let stats = report.operator_stats;
    assert_eq!(stats.indexed_probes, stats.in_order);
}

#[test]
fn window_byte_estimate_is_the_payload_allocation() {
    // `WindowStats::live_bytes_est` is, per live tuple, its arena slot plus
    // its payload: the `Arc` allocation (header and values) and its string
    // buffers.  The payload part must be exactly what the allocator still
    // holds for freshly built tuples — every value class, empty tuples and
    // empty strings included.
    let _guard = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    const N: usize = 64;
    let values = |i: usize| match i % 4 {
        0 => Vec::new(),
        1 => vec![Value::Int(i as i64)],
        2 => vec![
            Value::Int(i as i64),
            Value::Float(0.5),
            Value::Str("x".repeat(i)),
        ],
        _ => vec![Value::Str(String::new()), Value::Null, Value::Bool(true)],
    };
    let mut tuples: Vec<Tuple> = Vec::with_capacity(N);
    let before = thread_live_bytes();
    for i in 0..N {
        let ts = Timestamp::from_millis(i as u64);
        tuples.push(Tuple::new(0.into(), i as u64, ts, values(i)));
    }
    let payload = thread_live_bytes() - before;
    assert!(payload > 0);

    let mut w = Window::new(10_000);
    for t in &tuples {
        w.insert(t.clone());
    }
    let slots = (N * std::mem::size_of::<Tuple>()) as i64;
    assert_eq!(w.stats().live_bytes_est as i64 - slots, payload);
}

#[test]
fn indexed_probe_path_reuses_buckets_without_allocating() {
    // The indexed probe path in steady state: keys rotate through a small
    // domain, so every probe walks a different hash bucket and every insert
    // and expiration updates one.  Buckets acquired their capacity during
    // warm-up; afterwards bucket reuse keeps the hot path allocation-free —
    // no per-probe and no per-maintenance allocation.
    let _guard = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut pipeline = Pipeline::builder()
        .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 100)
        .on_common_key("a1")
        .policy(BufferPolicy::NoKSlack)
        .build()
        .unwrap();
    assert!(pipeline.probe_plan().is_indexed());
    let rotating = |t: u64| {
        let stream = (t % 2) as usize;
        // Eight keys shared by both streams: each window holds every bucket
        // non-empty in steady state (window 100 ms, per-stream key period
        // 16 ms), so expirations shrink buckets without ever dropping and
        // re-creating them.
        let key = ((t / 2) % 8) as i64;
        let ts = Timestamp::from_millis(t);
        ArrivalEvent::new(ts, Tuple::new(stream.into(), t, ts, vec![Value::Int(key)]))
    };
    let warmup: Vec<ArrivalEvent> = (1..400u64).map(rotating).collect();
    let measured: Vec<ArrivalEvent> = (400..800u64).map(rotating).collect();
    let n = measured.len() as u64;
    for e in warmup {
        pipeline.push(e);
    }
    let before = thread_allocations();
    for e in measured {
        pipeline.push(e);
    }
    let during = thread_allocations() - before;
    assert!(
        during <= n / 8,
        "indexed probe path allocated {during} times for {n} events"
    );
    let report = pipeline.finish();
    assert!(report.total_produced > 0, "rotating keys must join");
    let stats = report.operator_stats;
    assert_eq!(stats.fallback_probes, 0, "integer keys never fall back");
    assert_eq!(stats.indexed_probes, stats.in_order);
}

/// One position report per millisecond on alternating streams, `late` ms
/// behind the clock.  Both teams walk the same diagonal, a few metres
/// apart: roughly half of each 50-row window lies within a 5 m threshold.
fn position(t: u64, late: u64) -> ArrivalEvent {
    let stream = (t % 2) as usize;
    let at = (t % 20) as f64 * 0.5 + stream as f64;
    let values = vec![Value::Int(t as i64), Value::Float(at), Value::Float(at)];
    let ts = Timestamp::from_millis(t - late);
    ArrivalEvent::new(
        Timestamp::from_millis(t),
        Tuple::new(stream.into(), t, ts, values),
    )
}

/// [`position`] with one arrival in eight 20 ms late: without K-slack it
/// reaches the operator out of order and lands mid-segment, shifting the
/// scan-column images behind it — a `Vec::insert` within warmed capacity.
fn position_with_late(t: u64) -> ArrivalEvent {
    position(t, if t.is_multiple_of(8) { 20 } else { 0 })
}

#[test]
fn distance_scan_kernel_does_not_allocate_per_event() {
    // A non-equi session: every in-order arrival scans the opposite window
    // through the typed-column kernel.  Counting touches no tuple and no
    // heap — the tuple-at-a-time scan it replaces allocated a combination
    // buffer per probe — and the windows' scan columns grow with the row
    // arenas during warm-up, then recycle with their segments.
    let _guard = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let query = q2_query(100, 5.0);
    let mut pipeline = Pipeline::builder()
        .query(query)
        .policy(BufferPolicy::NoKSlack)
        .build()
        .unwrap();
    assert!(!pipeline.probe_plan().is_indexed());
    let warmup: Vec<ArrivalEvent> = (1..400u64).map(|t| position(t, 0)).collect();
    let in_order: Vec<ArrivalEvent> = (400..600u64).map(|t| position(t, 0)).collect();
    let with_late: Vec<ArrivalEvent> = (600..800u64).map(position_with_late).collect();
    for e in warmup {
        pipeline.push(e);
    }
    for (phase, events) in [("in-order", in_order), ("late-insert", with_late)] {
        let n = events.len() as u64;
        let before = thread_allocations();
        for e in events {
            pipeline.push(e);
        }
        let during = thread_allocations() - before;
        assert!(
            during <= n / 8,
            "distance scan path allocated {during} times for {n} {phase} events"
        );
    }
    let report = pipeline.finish();
    assert!(report.total_produced > 0, "close positions must join");
    let stats = report.operator_stats;
    assert_eq!(stats.indexed_probes, 0, "a scan is not an indexed probe");
    assert_eq!(stats.fallback_probes, stats.in_order);
    assert!(
        stats.out_of_order >= 200 / 20,
        "at least 5 % of the last phase must insert late, saw {}",
        stats.out_of_order
    );
}

#[test]
fn distance_scan_visit_pass_allocates_only_the_emitted_results() {
    // The same session, materialising: the kernel's second pass walks the
    // hits and hands each row to the emitter, which allocates one tuple
    // vector per `JoinResult` — and nothing else may.
    let _guard = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut pipeline = Pipeline::builder()
        .query(q2_query(100, 5.0))
        .policy(BufferPolicy::NoKSlack)
        .materialize_results()
        .build()
        .unwrap();
    let mut sink = CountingSink::default();
    for t in 1..400u64 {
        pipeline.push_into(position(t, 0), &mut sink);
    }
    let measured: Vec<ArrivalEvent> = (400..800u64).map(position_with_late).collect();
    let n = measured.len() as u64;
    let (results_before, before) = (sink.results, thread_allocations());
    for e in measured {
        pipeline.push_into(e, &mut sink);
    }
    let during = thread_allocations() - before;
    let emitted = sink.results - results_before;
    assert!(emitted > n, "close positions must join, saw {emitted}");
    assert!(
        during <= emitted + n / 8,
        "materialising scan allocated {during} times for {emitted} results of {n} events"
    );
}

#[test]
fn adaptation_step_does_not_allocate_once_warm() {
    // State shaped like the `d2_dist_seq` benchmark workload: 2 streams,
    // g = b = 10 ms, 5 s windows, ~20 k history samples per stream with a
    // delay tail of up to 1.2 s, and a profiler interval with evidence in
    // many delay buckets (so the NonEqSel cursor really walks a table).
    // The manager owns the model's cumulative tables, the selectivity table
    // and the walk's scratch; one warm-up call sizes them, after which a
    // checkpoint touches the heap zero times — strictly, not amortized.
    use mswj::core::{
        BufferSizeManager, ProductivityProfiler, ResultSizeMonitor, StatisticsManager,
    };
    // Held from the start: this test's set-up allocates, which would land in
    // the other tests' process-wide counts.
    let _guard = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut stats = StatisticsManager::new(2, 10);
    for stream in 0..2usize {
        for i in 0..20_000u64 {
            let delay = if i % 3 == 0 { (i * 7) % 1_200 } else { 0 };
            let ts = Timestamp::from_millis((2_000 + i * 10).saturating_sub(delay));
            stats.observe(stream.into(), ts);
        }
    }
    let mut profiler = ProductivityProfiler::new(10);
    for i in 0..2_000u64 {
        let delay = if i % 3 == 0 { (i * 7) % 1_200 } else { 0 };
        profiler.record_processed(delay, 500, 1 + i % 5);
    }
    profiler.roll_interval();
    let mut monitor = ResultSizeMonitor::new(59_000);
    let now = Timestamp::from_millis(200_000);
    monitor.record_true_estimate(now, profiler.n_true_estimate());
    let mut manager = BufferSizeManager::new(DisorderConfig::with_gamma(0.95), vec![5_000; 2]);

    let warm = manager.adapt(&stats, &profiler, &mut monitor, now);
    assert!(warm.steps > 10, "the walk must examine many candidates");

    let before = thread_allocations();
    for _ in 0..64 {
        let outcome = manager.adapt(&stats, &profiler, &mut monitor, now);
        assert_eq!((outcome.k, outcome.steps), (warm.k, warm.steps));
    }
    let during = thread_allocations() - before;
    assert_eq!(
        during, 0,
        "64 warm adaptation steps allocated {during} times"
    );
}
