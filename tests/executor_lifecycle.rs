//! Lifecycle tests for the resident worker pool
//! (`ExecutionBackend::Pool`) and the remote backend: workers must join
//! cleanly when a session is dropped mid-stream (even with a pipelined
//! epoch still in flight), a panicking worker must surface as a panic on
//! the caller thread instead of a hang, repeated build/finish cycles must
//! not leak threads, killing a shard-server process mid-epoch must
//! surface a typed [`EngineError::ShardLost`] within the read timeout, and
//! reading a busy shard's statistics must see its executed epoch while the
//! epoch's events still wait for the next flush or sync.
//!
//! Thread-count assertions count the *engine's* threads — the tasks under
//! `/proc/self/task` whose name starts with `mswj-` (pool workers are
//! `mswj-shard-*`, in-proc shard servers `mswj-inproc-shard`, daemon
//! connections `mswj-shardd-conn-*`) — and therefore only run on Linux;
//! everywhere else the tests still assert the behavioural part (no hang,
//! clean drop, surfaced panic).  The process-wide `Threads:` total is the
//! wrong quantity: libtest spawns the *next* test's thread while this one
//! runs, and that thread — parked on the lock below — would read as a
//! leaked worker for the whole deadline.  The counting tests serialize on
//! a file-local lock — integration tests share one process, and a pool
//! spawned by a concurrently running test would skew the count.

use mswj::core::EngineEvent;
use mswj::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

static THREAD_COUNT_LOCK: Mutex<()> = Mutex::new(());

/// Live engine threads (`mswj-*`) of this process, if the platform exposes
/// per-task names.  A task that exits between the listing and the read of
/// its name is simply not counted.
fn thread_count() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let engine = tasks.flatten().filter(|task| {
        std::fs::read_to_string(task.path().join("comm")).is_ok_and(|c| c.starts_with("mswj-"))
    });
    Some(engine.count())
}

/// Polls the engine thread count until `settled` accepts it: a spawned
/// thread names itself, and an exited one is reaped, asynchronously to the
/// caller.  Fails with `what` after 10 s.
fn await_thread_count(settled: impl Fn(usize) -> bool, what: &str) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let Some(now) = thread_count() else { return };
        if settled(now) {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "engine thread count stuck at {now} — {what}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// Waits for the engine thread count to drop back to `baseline`.
fn assert_threads_return_to(baseline: usize) {
    await_thread_count(
        |now| now <= baseline,
        &format!("leaked pool workers (baseline {baseline})"),
    );
}

fn pool_session(workers: usize) -> Pipeline {
    session(ExecutionBackend::Pool { workers })
}

fn session(backend: ExecutionBackend) -> Pipeline {
    mswj::session()
        .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 500)
        .on_common_key("a1")
        .no_k_slack()
        .parallelism(backend)
        .build()
        .unwrap()
}

fn events(n: u64) -> Vec<ArrivalEvent> {
    (1..=n)
        .map(|i| {
            let ts = Timestamp::from_millis(i * 2);
            ArrivalEvent::new(
                ts,
                Tuple::new(
                    ((i % 2) as usize).into(),
                    i,
                    ts,
                    vec![Value::Int(((i / 2) % 8) as i64)],
                ),
            )
        })
        .collect()
}

#[test]
fn workers_join_cleanly_on_drop_mid_stream() {
    let _guard = THREAD_COUNT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Resident pool workers (`mswj-shard-*`) and in-process shard servers
    // (`mswj-inproc-shard`, one per socket pair) alike.
    for backend in [
        ExecutionBackend::Pool { workers: 4 },
        ExecutionBackend::remote_inproc(4),
    ] {
        let baseline = thread_count();
        {
            let mut pipeline = session(backend.clone());
            // One large batch, short enough (800 ms of arrival axis, below
            // the default 1 s checkpoint interval) that no checkpoint
            // barrier runs: the epoch MUST still be outstanding when the
            // session drops.
            pipeline.push_batch_into(events(400), &mut NullSink);
            assert!(
                pipeline.engine().has_outstanding(),
                "[{backend}] the batch must leave a pipelined epoch in flight at drop time"
            );
            // The counter must see the four shard threads, or the
            // assertion below proves nothing.
            if let Some(base) = baseline {
                await_thread_count(
                    |now| now == base + 4,
                    &format!("[{backend}] four shard threads must be visible"),
                );
            }
            // A mid-epoch read parks the epoch's output; the drop below
            // must still release every thread.
            assert_eq!(pipeline.shard_stats().len(), 4);
            assert!(pipeline.engine().has_outstanding(), "[{backend}]");
        }
        if let Some(base) = baseline {
            assert_threads_return_to(base);
        }
    }
}

/// Records an engine event stream as comparable strings.
fn log_into(log: &mut Vec<String>) -> impl FnMut(EngineEvent<'_>) + '_ {
    move |ev| {
        log.push(match ev {
            EngineEvent::Result(r) => format!("R {r}"),
            EngineEvent::Done(o) => format!("D {o:?}"),
        })
    }
}

#[test]
fn busy_shard_reads_see_the_executed_epoch_and_defer_its_events() {
    // Spawns pool workers and in-process shard servers, so it must not
    // overlap a counting test's baseline.
    let _guard = THREAD_COUNT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let streams =
        StreamSet::homogeneous(2, Schema::new(vec![("a1", FieldType::Int)]), 500).unwrap();
    let cond = Arc::new(CommonKeyEquiJoin::new(&streams, "a1").unwrap());
    let query = JoinQuery::new("busy-shard", streams, cond).unwrap();
    let tuples: Vec<Tuple> = events(200).into_iter().map(|e| e.tuple).collect();
    assert!(tuples.len() >= JoinEngine::SMALL_BATCH_THRESHOLD);

    let mut want = Vec::new();
    let backend = ExecutionBackend::Sequential;
    let mut reference = JoinEngine::new(query.clone(), ProbeStrategy::Auto, true, backend);
    reference.push_batch(tuples.iter().cloned(), &mut log_into(&mut want));
    reference.sync(&mut log_into(&mut want));

    let operator =
        |stats: Vec<ShardStats>| stats.into_iter().map(|s| s.operator).collect::<Vec<_>>();
    for backend in [
        ExecutionBackend::Pool { workers: 2 },
        ExecutionBackend::remote_inproc(2),
    ] {
        let mut engine = JoinEngine::new(query.clone(), ProbeStrategy::Auto, true, backend.clone());
        let mut got = Vec::new();
        engine.push_batch(tuples.iter().cloned(), &mut log_into(&mut got));
        assert!(
            engine.has_outstanding(),
            "[{backend}] the batch must leave an epoch in flight"
        );
        let first = operator(engine.shard_stats());
        let second = operator(engine.shard_stats());
        assert_eq!(first, second, "[{backend}] a repeated read");
        assert!(
            got.is_empty(),
            "[{backend}] a parked epoch's events wait for the next flush or sync"
        );
        engine.sync(&mut log_into(&mut got));
        assert_eq!(
            first,
            operator(engine.shard_stats()),
            "[{backend}] the mid-epoch read must see the executed epoch"
        );
        let results: u64 = first.iter().map(|o| o.results).sum();
        assert!(results > 0);
        assert_eq!(results, engine.stats().results, "[{backend}]");
        assert_eq!(got, want, "[{backend}] event stream vs Sequential");
    }
}

#[test]
fn repeated_finish_and_rebuild_cycles_leak_no_threads() {
    let _guard = THREAD_COUNT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let baseline = thread_count();
    for round in 0..16 {
        let mut pipeline = pool_session(1 + round % 4);
        let mut sink = CountingSink::default();
        for chunk in events(200).chunks(64) {
            pipeline.push_batch_into(chunk.iter().cloned(), &mut sink);
        }
        let report = pipeline.finish_into(&mut sink);
        assert!(report.total_produced > 0, "round {round} produced results");
    }
    if let Some(base) = baseline {
        assert_threads_return_to(base);
    }
}

#[test]
fn panicking_worker_surfaces_as_error_not_hang() {
    let _guard = THREAD_COUNT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let baseline = thread_count();
    {
        // A predicate condition is unpartitionable (one broadcast shard),
        // so the poisoned tuple reliably reaches the pool's single resident
        // worker once the batch crosses the inline threshold.
        let pipeline = mswj::session()
            .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 500)
            .on_predicate("explodes-on-13", |tuples| {
                if tuples.iter().any(|t| t.value(0) == Some(&Value::Int(13))) {
                    panic!("synthetic shard-worker failure");
                }
                true
            })
            .no_k_slack()
            .parallelism(ExecutionBackend::Pool { workers: 2 })
            .build()
            .unwrap();
        let poisoned: Vec<ArrivalEvent> = (1..=256u64)
            .map(|i| {
                let ts = Timestamp::from_millis(i * 2);
                let key = if i == 200 { 13 } else { (i % 5) as i64 };
                ArrivalEvent::new(
                    ts,
                    Tuple::new(((i % 2) as usize).into(), i, ts, vec![Value::Int(key)]),
                )
            })
            .collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut pipeline = pipeline;
            pipeline.push_batch_into(poisoned, &mut NullSink);
            // The poisoned epoch is still away: reading the shard receives
            // its output (payload included) without hanging...
            assert!(pipeline.engine().has_outstanding());
            assert_eq!(pipeline.shard_stats().len(), 1);
            // ...and the end-of-stream barrier must re-raise the worker's
            // panic on this thread.
            let _ = pipeline.finish_into(&mut NullSink);
        }));
        let payload = result.expect_err("the worker panic must surface to the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("synthetic shard-worker failure"),
            "the original panic payload must be preserved, got: {msg:?}"
        );
    }
    // The pool (dropped during the unwind) must still have joined its
    // workers — a panicked worker, and its healthy siblings, all exit.
    if let Some(base) = baseline {
        assert_threads_return_to(base);
    }
}

#[test]
fn killed_shard_server_surfaces_shard_lost_not_a_hang() {
    let _guard = THREAD_COUNT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let baseline = thread_count();
    let elapsed;
    {
        // A real shard-server process over a Unix-domain socket.
        let sock = std::env::temp_dir().join(format!("mswj-lifecycle-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_mswj-shardd"))
            .arg("--uds")
            .arg(&sock)
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawning mswj-shardd");
        let mut pipeline = mswj::session()
            .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 500)
            .on_common_key("a1")
            .no_k_slack()
            .parallelism(ExecutionBackend::Remote {
                endpoints: vec![Endpoint::Uds(sock.clone()); 2],
            })
            .build()
            .unwrap();
        // Leave an epoch in flight (800 ms of arrival axis, below the 1 s
        // checkpoint interval, so no barrier has collected it yet)...
        pipeline.push_batch_into(events(400), &mut NullSink);
        assert!(
            pipeline.engine().has_outstanding(),
            "the batch must leave a remote epoch in flight"
        );
        // ...then kill the daemon under it.
        child.kill().expect("killing mswj-shardd");
        child.wait().expect("reaping mswj-shardd");
        let _ = std::fs::remove_file(&sock);
        let start = std::time::Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut pipeline = pipeline;
            pipeline.push_batch_into(events(400), &mut NullSink);
            let _ = pipeline.finish_into(&mut NullSink);
        }));
        elapsed = start.elapsed();
        let payload = result.expect_err("a dead shard server must surface as a panic");
        match payload.downcast_ref::<EngineError>() {
            Some(EngineError::ShardLost { shard, detail }) => {
                assert!(*shard < 2, "shard index in range, got {shard}");
                assert!(
                    detail.contains("uds:"),
                    "detail names the endpoint: {detail}"
                );
            }
            Some(other) => panic!("expected ShardLost, got {other}"),
            None => panic!("the panic payload must be a typed EngineError"),
        }
    }
    // A killed peer fails fast (EOF/EPIPE), far inside the 10 s read
    // timeout that bounds even a silent-but-alive peer.
    assert!(
        elapsed < std::time::Duration::from_secs(10),
        "ShardLost must surface within the read timeout, took {elapsed:?}"
    );
    // The session (dropped during the unwind, with a dead peer and a
    // best-effort shutdown handshake that cannot complete) must still
    // release every local thread.
    if let Some(base) = baseline {
        assert_threads_return_to(base);
    }
}

#[test]
fn sync_after_drop_boundary_is_idempotent() {
    // `finish_into` after heavy pipelined traffic: every deferred epoch is
    // collected exactly once, the report's counters reconcile, and a fresh
    // session can be built immediately after.  Counts no threads itself,
    // but spawns pool workers, so it must not overlap a counting test's
    // baseline.
    let _guard = THREAD_COUNT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for _ in 0..3 {
        let mut pipeline = pool_session(3);
        let mut sink = CountingSink::default();
        for chunk in events(600).chunks(150) {
            pipeline.push_batch_into(chunk.iter().cloned(), &mut sink);
        }
        let report = pipeline.finish_into(&mut sink);
        let shard_results: u64 = report.shard_stats.iter().map(|s| s.operator.results).sum();
        assert_eq!(shard_results, report.total_produced);
        let enqueued: u64 = report
            .shard_stats
            .iter()
            .map(|s| s.runtime.epochs_enqueued)
            .sum();
        let executed: u64 = report
            .shard_stats
            .iter()
            .map(|s| s.runtime.epochs_executed)
            .sum();
        assert_eq!(enqueued, executed, "every submitted epoch was collected");
        assert!(executed > 0, "150-event batches run through the pool");
    }
}

#[test]
fn shardd_answers_a_malformed_surgery_frame_and_keeps_serving() {
    // A client that sends an out-of-range surgery frame gets an error
    // frame and an orderly close — its connection thread returns instead
    // of panicking — and the daemon's other connections, open or new,
    // are unaffected.
    use mswj::core::engine::transport::{connect, Connection, Endpoint};
    use mswj_wire::{Frame, WireQuery, WireStream};

    let path = std::env::temp_dir().join(format!("mswj-{}-malformed.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut daemon = std::process::Command::new(env!("CARGO_BIN_EXE_mswj-shardd"))
        .arg("--uds")
        .arg(&path)
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawning mswj-shardd");
    let endpoint = Endpoint::Uds(path.clone());
    let hello = |t: &mut Connection| {
        t.send(&Frame::Hello).unwrap();
        assert!(matches!(t.recv().unwrap(), Frame::HelloAck));
    };

    let mut bystander = connect(&endpoint).expect("the daemon accepts connections");
    hello(&mut bystander);
    let mut offender = connect(&endpoint).unwrap();
    let stream = |name: &str| WireStream {
        name: name.into(),
        fields: vec![("a1".into(), FieldType::Int)],
        window: 1_000,
    };
    offender
        .send(&Frame::Setup(WireQuery {
            name: "malformed".into(),
            streams: vec![stream("S1"), stream("S2")],
            condition: mswj_join::ConditionDescriptor::CommonKey {
                columns: vec![0, 0],
            },
            strategy: ProbeStrategy::Auto,
            enumerate: false,
        }))
        .unwrap();
    assert!(matches!(offender.recv().unwrap(), Frame::SetupAck));
    offender.send(&Frame::FetchWindow { stream: 9 }).unwrap();
    match offender.recv().unwrap() {
        Frame::Error { message } => assert!(message.contains("stream index 9"), "{message}"),
        other => panic!("expected an error frame, got {other:?}"),
    }
    let closed = offender
        .recv()
        .expect_err("the server closes after the error frame");
    assert!(closed.is_disconnect(), "orderly close, got {closed}");

    hello(&mut bystander);
    hello(&mut connect(&endpoint).expect("the daemon still accepts connections"));

    let _ = daemon.kill();
    let _ = daemon.wait();
    let _ = std::fs::remove_file(&path);
}
