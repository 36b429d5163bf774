//! Resident shard workers: the executor behind
//! [`ExecutionBackend::Pool`](super::ExecutionBackend::Pool).
//!
//! One worker thread per shard is spawned **once** (at
//! `Pipeline::construct`) and stays resident, fed through a bounded
//! per-shard [`sync_channel`] of epoch-tagged [`Task`]s — no per-batch
//! spawn, and no hard barrier between front-end routing and shard
//! execution.
//!
//! ## Protocol
//!
//! * The engine submits one epoch — one routed batch — as at most one task
//!   per shard, then returns to its caller while the workers crunch; the
//!   *next* flush collects the epoch's outputs in shard order and merges
//!   them deterministically (see `exec::merge_epoch`).  At most one epoch
//!   is in flight, which is exactly the two-stage pipeline: the front-end
//!   routes batch *t + 1* while the shards execute batch *t*.
//! * Shard operators live in `Arc<Mutex<_>>` cells.  A worker locks its
//!   shard only while executing an epoch; between epochs the engine may
//!   lock any shard to inspect it ([`ShardPool::lock_shard`]), or to drain
//!   a sub-threshold batch's queue on the caller thread
//!   ([`ShardPool::drain`]: the worker's own `exec::drain_queue`, merged the
//!   same way) without paying the enqueue round-trip.
//! * Shutdown is `Drop`: closing the task channels makes every worker drain
//!   and exit, and the pool joins them — no detached threads survive the
//!   engine.  Either side closing wakes the other (a worker blocked on a
//!   full result channel sees the engine's receiver go away), which is the
//!   `sync_channel` contract.  A worker that panics mid-epoch ships the
//!   payload back through its result channel; the engine re-raises it on
//!   the caller thread at collection, so a poisoned run surfaces as a
//!   panic, never as a hang.

mod task;

pub(super) use task::Epoch;
use task::{EpochOutput, Task};

use super::shards::CollectedEpoch;
use super::{exec, Item, SubOutcome};
use mswj_join::{JoinResult, MswjOperator};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// In-flight epochs per shard the task channel can hold.  The engine keeps
/// at most one epoch outstanding, so 2 means submission never blocks.
const TASK_CAPACITY: usize = 2;
/// Result-channel slack; sized so a worker finishing its last epoch during
/// shutdown can always park the output and exit.
const RESULT_CAPACITY: usize = TASK_CAPACITY + 2;

/// Progress a worker publishes outside its channels, so the engine can wait
/// for quiescence (`&self` inspection) without consuming result buffers.
#[derive(Debug, Default, Clone, Copy)]
struct WorkerState {
    /// Last epoch this worker finished (executed or abandoned by panic).
    completed: Epoch,
    /// The worker is gone or will produce no further outputs.
    poisoned: bool,
}

struct PoolShared {
    state: Mutex<Vec<WorkerState>>,
    idle: Condvar,
}

impl PoolShared {
    fn lock(&self) -> MutexGuard<'_, Vec<WorkerState>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Marks the worker poisoned even if it dies outside the `catch_unwind`
/// window (e.g. a send on a closed channel during teardown), so that
/// `wait_idle` can never block on a thread that will not report back.
struct PoisonOnExit<'a> {
    shared: &'a PoolShared,
    index: usize,
    armed: bool,
}

impl Drop for PoisonOnExit<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.shared.lock()[self.index].poisoned = true;
            self.shared.idle.notify_all();
        }
    }
}

struct Worker {
    /// `Some` while the pool accepts work; taken (closed) at shutdown.
    tasks: Option<SyncSender<Task>>,
    results: Receiver<EpochOutput>,
    handle: Option<JoinHandle<()>>,
}

/// The resident executor: one worker thread per shard, each owning exclusive
/// runtime access to its shard operator.
pub(super) struct ShardPool {
    shards: Vec<Arc<Mutex<MswjOperator>>>,
    workers: Vec<Worker>,
    shared: Arc<PoolShared>,
    /// Last epoch submitted per shard — what quiescence waits for.
    submitted: Vec<Epoch>,
    /// Per-shard drained item queues returned by the workers, handed back
    /// to the engine at the next submission so queue capacity is recycled.
    spare_items: Vec<VecDeque<Item>>,
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("workers", &self.workers.len())
            .field("submitted", &self.submitted)
            .finish()
    }
}

impl ShardPool {
    /// Spawns one resident worker per shard operator.
    pub(super) fn new(operators: Vec<MswjOperator>) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(vec![WorkerState::default(); operators.len()]),
            idle: Condvar::new(),
        });
        let shards: Vec<Arc<Mutex<MswjOperator>>> = operators
            .into_iter()
            .map(|op| Arc::new(Mutex::new(op)))
            .collect();
        let workers = shards
            .iter()
            .enumerate()
            .map(|(index, shard)| {
                let (task_tx, task_rx) = sync_channel::<Task>(TASK_CAPACITY);
                let (result_tx, result_rx) = sync_channel::<EpochOutput>(RESULT_CAPACITY);
                let shard = Arc::clone(shard);
                let shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name(format!("mswj-shard-{index}"))
                    .spawn(move || worker_loop(index, shard, task_rx, result_tx, shared))
                    .expect("spawning a shard worker");
                Worker {
                    tasks: Some(task_tx),
                    results: result_rx,
                    handle: Some(handle),
                }
            })
            .collect();
        let submitted = vec![Epoch::default(); shards.len()];
        let spare_items = shards.iter().map(|_| VecDeque::new()).collect();
        ShardPool {
            shards,
            workers,
            shared,
            submitted,
            spare_items,
        }
    }

    /// Number of shards (== resident workers).
    pub(super) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Drains `queue` against shard `s` on the caller thread, as its worker
    /// would.  Only called with no epoch in flight: the lock is uncontended.
    pub(super) fn drain(
        &self,
        s: usize,
        queue: &mut VecDeque<Item>,
        sub: &mut Vec<SubOutcome>,
        mat: &mut Vec<(u32, JoinResult)>,
    ) {
        let mut op = self.shards[s].lock().unwrap_or_else(|e| e.into_inner());
        exec::drain_queue(&mut op, queue, sub, mat);
    }

    /// Locks shard `s` for caller-thread use, waiting first until its worker
    /// has finished every submitted epoch (workers lock only while
    /// executing, so this never waits on an idle pool).
    pub(super) fn lock_shard(&self, s: usize) -> MutexGuard<'_, MswjOperator> {
        self.wait_shard_idle(s);
        self.shards[s].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks until shard `s` has executed (or abandoned, on panic) every
    /// epoch submitted to it.
    fn wait_shard_idle(&self, s: usize) {
        let target = self.submitted[s];
        let mut state = self.shared.lock();
        while state[s].completed < target && !state[s].poisoned {
            state = self
                .shared
                .idle
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Submits shard `s`'s routed `queue` as its task of `epoch`, swapping
    /// a recycled (empty) queue in and sending the `sub` / `mat` buffers
    /// along for the worker to fill.  The caller must collect every
    /// submitted task (in shard order per epoch) before submitting the next
    /// epoch; with at most one epoch in flight this never blocks.
    pub(super) fn submit(
        &mut self,
        s: usize,
        epoch: Epoch,
        routing_epoch: u64,
        queue: &mut VecDeque<Item>,
        sub: &mut Vec<SubOutcome>,
        mat: &mut Vec<(u32, JoinResult)>,
    ) {
        debug_assert!(epoch > self.submitted[s], "epochs must increase");
        self.submitted[s] = epoch;
        let task = Task {
            epoch,
            items: std::mem::replace(queue, std::mem::take(&mut self.spare_items[s])),
            sub: std::mem::take(sub),
            mat: std::mem::take(mat),
            routing_epoch,
        };
        let sender = self.workers[s]
            .tasks
            .as_ref()
            .expect("submit after shutdown");
        if sender.send(task).is_err() {
            // The worker is gone; its parting output (with the panic
            // payload) is parked in the result channel — re-raise it.
            self.raise_worker_failure(s);
        }
    }

    /// Receives shard `s`'s output for `expected` — blocking until the
    /// worker delivers it — and hands the filled `sub` / `mat` buffers
    /// back.  A worker panic is resumed on this thread, and a dead worker
    /// surfaces as a panic too (with the original payload when one was
    /// captured), never as a hang.
    pub(super) fn collect(
        &mut self,
        s: usize,
        expected: Epoch,
        sub: &mut Vec<SubOutcome>,
        mat: &mut Vec<(u32, JoinResult)>,
    ) -> CollectedEpoch {
        let Ok(out) = self.workers[s].results.recv() else {
            panic!("shard worker {s} terminated before delivering epoch {expected:?}");
        };
        debug_assert_eq!(out.epoch, expected, "epochs collect in order");
        self.spare_items[s] = out.items;
        *sub = out.sub;
        *mat = out.mat;
        if let Some(payload) = out.panic {
            std::panic::resume_unwind(payload);
        }
        CollectedEpoch {
            busy_nanos: out.busy_nanos,
            routing_epoch: out.routing_epoch,
        }
    }

    /// Re-raises the failure that killed worker `s`.
    fn raise_worker_failure(&mut self, s: usize) -> ! {
        if let Ok(output) = self.workers[s].results.recv() {
            if let Some(payload) = output.panic {
                std::panic::resume_unwind(payload);
            }
        }
        panic!("shard worker {s} terminated unexpectedly");
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        // Close every task channel first (workers drain and exit), then
        // join.  Joining never panics — a worker's own panic was either
        // already re-raised at collection or is deliberately swallowed here
        // because the stream is being torn down.
        for worker in &mut self.workers {
            worker.tasks = None;
        }
        for worker in &mut self.workers {
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// The resident worker: drains epoch tasks in submission order against its
/// shard operator until the task channel closes.
fn worker_loop(
    index: usize,
    shard: Arc<Mutex<MswjOperator>>,
    tasks: Receiver<Task>,
    results: SyncSender<EpochOutput>,
    shared: Arc<PoolShared>,
) {
    let mut exit_guard = PoisonOnExit {
        shared: &shared,
        index,
        armed: true,
    };
    while let Ok(mut task) = tasks.recv() {
        let started = Instant::now();
        let panic = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut op = shard.lock().unwrap_or_else(|e| e.into_inner());
            exec::drain_queue(&mut op, &mut task.items, &mut task.sub, &mut task.mat);
        }))
        .err();
        let poisoned = panic.is_some();
        let busy_nanos = started.elapsed().as_nanos() as u64;
        {
            let mut state = shared.lock();
            state[index].completed = task.epoch;
            state[index].poisoned |= poisoned;
            shared.idle.notify_all();
        }
        let output = EpochOutput {
            epoch: task.epoch,
            items: task.items,
            sub: task.sub,
            mat: task.mat,
            busy_nanos,
            routing_epoch: task.routing_epoch,
            panic,
        };
        // A failed send means the engine is gone (mid-stream drop): just
        // exit.  After a panic the shard state is unreliable, so the worker
        // retires either way — the engine re-raises at collection.
        if results.send(output).is_err() || poisoned {
            break;
        }
    }
    // Normal exit path: quiescence bookkeeping is complete, disarm the
    // poison marker (the sender drop below closes the result channel).
    exit_guard.armed = false;
    drop(exit_guard);
}
