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
//! * Ownership is the only synchronisation.  A shard's operator rides its
//!   epoch's task to the worker and comes back in the output, so it is
//!   either **home** — reached with plain `&mut` for a sub-threshold batch
//!   drained on the caller thread (the worker's own `exec::drain_queue`,
//!   merged the same way) and for barrier surgery — or **away** on exactly
//!   one task.  Reading an away shard ([`ShardPool::operator`]) receives
//!   its output early and parks it in the shard's slot; the next
//!   [`ShardPool::collect`] takes it from there, so the epoch's events
//!   still arrive at the next `flush` or `sync`.
//! * Shutdown is `Drop`: closing the task channels makes every worker drain
//!   and exit, and the pool joins them — no detached threads survive the
//!   engine.  A worker that panics mid-epoch ships the payload back with
//!   the operator; the engine re-raises it on the caller thread at
//!   collection, so a poisoned run surfaces as a panic, never as a hang.  A
//!   worker that died without answering is a closed result channel, which
//!   `recv` reports.

mod task;

use task::{EpochOutput, Task};

use super::shards::CollectedEpoch;
use super::{exec, Item, SubOutcome};
use mswj_join::{JoinResult, MswjOperator};
use std::cell::{Ref, RefCell};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;
use std::time::Instant;

/// In-flight epochs per shard the task channel can hold.  The engine keeps
/// at most one epoch outstanding, so 2 means submission never blocks.
const TASK_CAPACITY: usize = 2;
/// Result-channel slack; sized so a worker finishing its last epoch during
/// shutdown can always park the output and exit.
const RESULT_CAPACITY: usize = TASK_CAPACITY + 2;

/// Where one shard's operator is.
enum Slot {
    /// Home: idle, reached with plain `&mut`.
    Home(Box<MswjOperator>),
    /// Riding a task of the in-flight epoch.
    Away,
    /// Back early, received by a read of the busy shard, inside the output
    /// the next collection takes.
    Parked(EpochOutput),
}

struct Worker {
    slot: RefCell<Slot>,
    /// `Some` while the pool accepts work; taken (closed) at shutdown.
    tasks: Option<SyncSender<Task>>,
    results: Receiver<EpochOutput>,
    handle: Option<JoinHandle<()>>,
    /// The item queue the last collected task drained, handed back at the
    /// next submission so queue capacity is recycled.
    spare_items: VecDeque<Item>,
}

impl Worker {
    /// Blocks for this worker's output of the in-flight epoch.
    fn receive(&self, s: usize) -> EpochOutput {
        self.results
            .recv()
            .unwrap_or_else(|_| panic!("shard worker {s} terminated before delivering its epoch"))
    }
}

/// The resident executor: one worker thread per shard, and each shard's
/// operator in exactly one place — home, or away on its worker's task.
pub(super) struct ShardPool {
    workers: Vec<Worker>,
}

impl ShardPool {
    /// Spawns one resident worker per shard operator.
    pub(super) fn new(operators: Vec<MswjOperator>) -> Self {
        let workers = operators
            .into_iter()
            .enumerate()
            .map(|(index, op)| {
                let (task_tx, task_rx) = sync_channel::<Task>(TASK_CAPACITY);
                let (result_tx, result_rx) = sync_channel::<EpochOutput>(RESULT_CAPACITY);
                let handle = std::thread::Builder::new()
                    .name(format!("mswj-shard-{index}"))
                    .spawn(move || worker_loop(task_rx, result_tx))
                    .expect("spawning a shard worker");
                Worker {
                    slot: RefCell::new(Slot::Home(Box::new(op))),
                    tasks: Some(task_tx),
                    results: result_rx,
                    handle: Some(handle),
                    spare_items: VecDeque::new(),
                }
            })
            .collect();
        ShardPool { workers }
    }

    /// Number of shards (== resident workers).
    pub(super) fn shard_count(&self) -> usize {
        self.workers.len()
    }

    /// Shard `s`'s operator, for reading.  If it is away, its in-flight
    /// output is received first — blocking until the worker delivers it —
    /// and parked for the next [`ShardPool::collect`].
    pub(super) fn operator(&self, s: usize) -> Ref<'_, MswjOperator> {
        let worker = &self.workers[s];
        if matches!(*worker.slot.borrow(), Slot::Away) {
            let out = worker.receive(s);
            *worker.slot.borrow_mut() = Slot::Parked(out);
        }
        Ref::map(worker.slot.borrow(), |slot| match slot {
            Slot::Home(op)
            | Slot::Parked(EpochOutput {
                task: Task { op, .. },
                ..
            }) => &**op,
            Slot::Away => unreachable!("an away shard was just parked"),
        })
    }

    /// Shard `s`'s operator, for an inline drain or barrier surgery; only
    /// called with no epoch in flight, so it is home.
    pub(super) fn operator_mut(&mut self, s: usize) -> &mut MswjOperator {
        match self.workers[s].slot.get_mut() {
            Slot::Home(op) => op,
            _ => unreachable!("shard {s} is changed only with no epoch in flight"),
        }
    }

    /// Submits shard `s`'s routed `queue` as its task of `epoch`: the
    /// operator rides along, a recycled (empty) queue is swapped in, and
    /// the `sub` / `mat` buffers travel for the worker to fill.  The caller
    /// must collect every submitted task (in shard order per epoch) before
    /// submitting the next epoch; with at most one epoch in flight this
    /// never blocks.
    pub(super) fn submit(
        &mut self,
        s: usize,
        epoch: u64,
        routing_epoch: u64,
        queue: &mut VecDeque<Item>,
        sub: &mut Vec<SubOutcome>,
        mat: &mut Vec<(u32, JoinResult)>,
    ) {
        let worker = &mut self.workers[s];
        let Slot::Home(op) = std::mem::replace(worker.slot.get_mut(), Slot::Away) else {
            unreachable!("one epoch in flight at most");
        };
        let task = Task {
            op,
            epoch,
            items: std::mem::replace(queue, std::mem::take(&mut worker.spare_items)),
            sub: std::mem::take(sub),
            mat: std::mem::take(mat),
            routing_epoch,
        };
        let sender = worker.tasks.as_ref().expect("submit after shutdown");
        if sender.send(task).is_err() {
            // Only a panicked worker exits early, and its epoch — re-raising
            // the panic — was collected before this one was submitted.
            panic!("shard worker {s} terminated after a panic");
        }
    }

    /// Takes shard `s`'s output for `expected` — parked, or blocking until
    /// the worker delivers it — brings the operator home and hands the
    /// filled `sub` / `mat` buffers back.  A worker panic is resumed on
    /// this thread, and a dead worker surfaces as a panic too, never as a
    /// hang.
    pub(super) fn collect(
        &mut self,
        s: usize,
        expected: u64,
        sub: &mut Vec<SubOutcome>,
        mat: &mut Vec<(u32, JoinResult)>,
    ) -> CollectedEpoch {
        let worker = &mut self.workers[s];
        let out = match std::mem::replace(worker.slot.get_mut(), Slot::Away) {
            Slot::Parked(out) => out,
            Slot::Away => worker.receive(s),
            Slot::Home(_) => unreachable!("collect without a submitted epoch"),
        };
        let EpochOutput {
            task,
            busy_nanos,
            panic,
        } = out;
        debug_assert_eq!(task.epoch, expected, "epochs collect in order");
        *worker.slot.get_mut() = Slot::Home(task.op);
        worker.spare_items = task.items;
        *sub = task.sub;
        *mat = task.mat;
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        CollectedEpoch {
            busy_nanos,
            routing_epoch: task.routing_epoch,
        }
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

/// The resident worker: drains epoch tasks in submission order against the
/// operator each one carries, until the task channel closes.
fn worker_loop(tasks: Receiver<Task>, results: SyncSender<EpochOutput>) {
    while let Ok(mut task) = tasks.recv() {
        let started = Instant::now();
        let panic = std::panic::catch_unwind(AssertUnwindSafe(|| {
            exec::drain_queue(&mut task.op, &mut task.items, &mut task.sub, &mut task.mat);
        }))
        .err();
        let retire = panic.is_some();
        let output = EpochOutput {
            task,
            busy_nanos: started.elapsed().as_nanos() as u64,
            panic,
        };
        // A failed send means the engine is gone (mid-stream drop): just
        // exit.  After a panic the shard state is unreliable, so the worker
        // retires either way — the engine re-raises at collection.
        if results.send(output).is_err() || retire {
            break;
        }
    }
}
