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

use mswj::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocations made by *this* thread — what a strict "zero" assertion
    /// needs, since the test harness's own threads allocate concurrently.
    static THREAD_ALLOCATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn count_allocation() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
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

/// The counter is process-global, so the two measuring tests must not run
/// concurrently: each holds this lock across its measured phase.
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
    let mut pipeline = mswj::session()
        .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 100)
        .on_common_key("a1")
        .no_k_slack()
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

    let before = allocations();
    for e in measured {
        pipeline.push_into(e, &mut sink);
    }
    let during = allocations() - before;

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
    let mut pipeline = mswj::session()
        .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 100)
        .on_common_key("a1")
        .no_k_slack()
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

    let before = allocations();
    for e in measured {
        pipeline.push_into(e, &mut sink);
    }
    let during = allocations() - before;
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
    let mut pipeline = mswj::session()
        .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 50)
        .on_common_key("a1")
        .no_k_slack()
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
    let before = allocations();
    for e in measured {
        pipeline.push(e);
    }
    let during = allocations() - before;
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
        let mut pipeline = mswj::session()
            .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 100)
            .on_common_key("a1")
            .no_k_slack()
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
fn pipelined_pool_epochs_allocate_nothing_on_the_caller_thread() {
    // 64-event batches stage 64 tuples each — above the inline threshold —
    // so every flush collects the previous epoch from the resident workers,
    // merges it and submits the next one.  Routing, submission, collection
    // and the merge all run on this thread and recycle their buffers; the
    // workers' own allocations are not counted here.  Warm-up and
    // measurement stay below the first checkpoint (L = 1 s by default).
    let _guard = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut pipeline = mswj::session()
        .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 100)
        .on_common_key("a1")
        .no_k_slack()
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
    let mut pipeline = mswj::session()
        .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 100)
        .on_common_key("a1")
        .fixed_k(K)
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
    let before = allocations();
    for e in measured {
        pipeline.push_into(e, &mut sink);
    }
    let during = allocations() - before;
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
fn indexed_probe_path_reuses_buckets_without_allocating() {
    // The indexed probe path in steady state: keys rotate through a small
    // domain, so every probe walks a different hash bucket and every insert
    // and expiration updates one.  Buckets acquired their capacity during
    // warm-up; afterwards bucket reuse keeps the hot path allocation-free —
    // no per-probe and no per-maintenance allocation.
    let _guard = MEASURE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut pipeline = mswj::session()
        .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 100)
        .on_common_key("a1")
        .no_k_slack()
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
    let before = allocations();
    for e in measured {
        pipeline.push(e);
    }
    let during = allocations() - before;
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
    let mut pipeline = mswj::session().query(query).no_k_slack().build().unwrap();
    assert!(!pipeline.probe_plan().is_indexed());
    let warmup: Vec<ArrivalEvent> = (1..400u64).map(|t| position(t, 0)).collect();
    let in_order: Vec<ArrivalEvent> = (400..600u64).map(|t| position(t, 0)).collect();
    let with_late: Vec<ArrivalEvent> = (600..800u64).map(position_with_late).collect();
    for e in warmup {
        pipeline.push(e);
    }
    for (phase, events) in [("in-order", in_order), ("late-insert", with_late)] {
        let n = events.len() as u64;
        let before = allocations();
        for e in events {
            pipeline.push(e);
        }
        let during = allocations() - before;
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
    let mut pipeline = mswj::session()
        .query(q2_query(100, 5.0))
        .no_k_slack()
        .materialize_results()
        .build()
        .unwrap();
    let mut sink = CountingSink::default();
    for t in 1..400u64 {
        pipeline.push_into(position(t, 0), &mut sink);
    }
    let measured: Vec<ArrivalEvent> = (400..800u64).map(position_with_late).collect();
    let n = measured.len() as u64;
    let (results_before, before) = (sink.results, allocations());
    for e in measured {
        pipeline.push_into(e, &mut sink);
    }
    let during = allocations() - before;
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
