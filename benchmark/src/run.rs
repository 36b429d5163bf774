//! The timed passes: set-up, closed-loop replay, the correctness gate and
//! the six end-to-end metrics.

use crate::workloads::{Input, Workload};
use crate::{alloc, cpu, stats};
use mswj_core::{CountingSink, ExecutionBackend, RunReport, Telemetry};
use mswj_metrics::{evaluate_recall, ground_truth_counts, CountSeries};
use mswj_types::{ArrivalEvent, Timestamp, Tuple};
use std::time::{Duration, Instant};

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    /// Busy-wait this many nanoseconds per event inside the timed loop
    /// (the sensitivity self-check; 0 in every measured run).
    pub handicap_ns: u64,
}

impl RunArgs {
    /// At least this many timed passes, however long they take.
    pub fn min_passes(&self) -> usize {
        if self.quick {
            3
        } else {
            10
        }
    }
}

/// One replay of the whole log through a fresh session.
pub struct Pass {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub report: RunReport,
    pub sink: CountingSink,
}

impl Pass {
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint::of(&self.report, &self.sink)
    }
}

/// What every pass of one input must reproduce exactly.
#[derive(Debug, PartialEq)]
pub struct Fingerprint {
    total_produced: u64,
    sink_results: u64,
    /// `(at, measure_ts, K)` of every checkpoint.
    trajectory: Vec<(Timestamp, Timestamp, u64)>,
}

impl Fingerprint {
    pub fn of(report: &RunReport, sink: &CountingSink) -> Fingerprint {
        Fingerprint {
            total_produced: report.total_produced,
            sink_results: sink.results,
            trajectory: report
                .checkpoints
                .iter()
                .map(|c| (c.at, c.measure_ts, c.k))
                .collect(),
        }
    }
}

fn spin(nanos: u64) {
    let until = Instant::now() + Duration::from_nanos(nanos);
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

/// Events per caller-stall sample of a chunk-timed pass.
pub const STALL_CHUNK: usize = 64;

/// A copy of `event` that owns its payload.  The log's tuples share their
/// attribute vectors behind an `Arc`; a real caller hands the pipeline a
/// tuple nobody else holds, so every pass gets its own allocations and the
/// pipeline pays for dropping them.
pub fn owned(event: &ArrivalEvent) -> ArrivalEvent {
    let t = &event.tuple;
    ArrivalEvent::new(
        event.arrival,
        Tuple::new(t.stream, t.seq, t.ts, t.values().to_vec()),
    )
}

/// Replays `input` once.  The pass's input is materialised — every payload
/// an allocation of its own — and the session built before the clock
/// starts; the timed region is `push_into` per event plus `finish_into`,
/// into a counting sink.  With `stalls`, the wall time of every
/// [`STALL_CHUNK`] consecutive pushes is appended to it in microseconds
/// (one clock read per chunk, < 1 ns per event).
pub fn run_pass(
    workload: Workload,
    input: &Input,
    backend: ExecutionBackend,
    telemetry: Option<Telemetry>,
    handicap_ns: u64,
    stalls: Option<&mut Vec<f64>>,
) -> Pass {
    let events: Vec<ArrivalEvent> = input.log.events().iter().map(owned).collect();
    let mut pipeline = workload.session(&input.query, backend, telemetry);
    let mut sink = CountingSink::default();
    let cpu0 = cpu::process_cpu_seconds();
    let t0 = Instant::now();
    if let Some(stalls) = stalls {
        let mut events = events.into_iter().peekable();
        while events.peek().is_some() {
            let chunk_start = Instant::now();
            for event in events.by_ref().take(STALL_CHUNK) {
                pipeline.push_into(event, &mut sink);
            }
            stalls.push(chunk_start.elapsed().as_secs_f64() * 1e6);
        }
    } else if handicap_ns == 0 {
        for event in events {
            pipeline.push_into(event, &mut sink);
        }
    } else {
        for event in events {
            pipeline.push_into(event, &mut sink);
            spin(handicap_ns);
        }
    }
    let report = pipeline.finish_into(&mut sink);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu::process_cpu_seconds() - cpu0;
    Pass {
        wall_s,
        cpu_s,
        report: std::hint::black_box(report),
        sink,
    }
}

/// The warm-up pass, which is also the memory pass: each event's payload is
/// allocated just before its push, as a caller reading from a socket would,
/// so the live bytes above the level before the session was built are
/// exactly what the session holds — its own structures *and* every payload
/// buffered in K-slack, the Synchronizer and the windows.  Returns the pass
/// and that high-water mark.  (Payloads allocated up front would sit below
/// the baseline and be *subtracted* as the windows drop them; payloads
/// shared with the harness's log would never be counted at all.)
pub fn warm_up(workload: Workload, input: &Input) -> (Pass, usize) {
    let baseline = alloc::reset_peak();
    let mut pipeline = workload.session(&input.query, workload.backend(), None);
    let mut sink = CountingSink::default();
    let cpu0 = cpu::process_cpu_seconds();
    let t0 = Instant::now();
    for event in input.log.events() {
        pipeline.push_into(owned(event), &mut sink);
    }
    let report = pipeline.finish_into(&mut sink);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu::process_cpu_seconds() - cpu0;
    let peak = alloc::peak_bytes().saturating_sub(baseline);
    (
        Pass {
            wall_s,
            cpu_s,
            report,
            sink,
        },
        peak,
    )
}

/// Everything set-up produces.
pub struct Setup {
    pub input: Input,
    pub truth: CountSeries,
    /// The discarded first pass; its report is the reference every timed
    /// pass is compared against.
    pub warm: Pass,
    /// High-water mark of the bytes the warm-up session held (see
    /// [`warm_up`]).
    pub peak_heap: usize,
    pub fingerprint: Fingerprint,
    /// Median process CPU seconds of one set-up.
    pub cpu_s: f64,
    /// Median wall seconds of one set-up.
    pub wall_s: f64,
}

/// Set-up is performed this many times per run and `setup_s` is the median:
/// one-shot set-up times — wall or CPU — spread 5–12 % between runs on the
/// box this was defined on.
const SETUP_REPEATS: usize = 3;

/// Generates the log, computes the ground truth and runs the warm-up pass —
/// [`SETUP_REPEATS`] times over (once in `quick` mode).  The first
/// repetition is measured from process start.
pub fn set_up(args: &RunArgs, process_start: Instant) -> Setup {
    let repeats = if args.quick { 1 } else { SETUP_REPEATS };
    let (mut cpus, mut walls) = (Vec::new(), Vec::new());
    let (mut cpu0, mut wall0) = (0.0, process_start);
    loop {
        let input = args.workload.generate(args.seed, args.quick);
        let truth = ground_truth_counts(&input.query, &input.log);
        let (warm, peak_heap) = warm_up(args.workload, &input);
        cpus.push(cpu::process_cpu_seconds() - cpu0);
        walls.push(wall0.elapsed().as_secs_f64());
        if cpus.len() == repeats {
            eprintln!("  set-ups: cpu {cpus:.3?} s, wall {walls:.3?} s");
            return Setup {
                cpu_s: stats::median(&cpus),
                wall_s: stats::median(&walls),
                fingerprint: warm.fingerprint(),
                peak_heap,
                input,
                truth,
                warm,
            };
        }
        drop((input, truth, warm));
        (cpu0, wall0) = (cpu::process_cpu_seconds(), Instant::now());
    }
}

/// Timing and agreement of a set of timed passes.
pub struct Timed {
    pub passes: usize,
    pub events_per_pass: u64,
    /// The pass time `throughput_eps` is computed from: the lower decile of
    /// the timed passes (the fourth-fastest of 35).  Interference on a
    /// shared box only ever adds time, and arrives in phases that outlast
    /// half a run, so a low quantile repeats where the median does not: over
    /// ten seeds at 20 s the median pass time spread 5–14 % per workload and
    /// the lower decile 2–7 % (README, "Why the lower decile").
    pub p10_wall_s: f64,
    /// Reported beside it (`harness.pass_median_ms`, the progress line).
    pub median_wall_s: f64,
    pub walls_s: Vec<f64>,
    pub spread: f64,
    pub cpu_wall_ratio: f64,
    /// Events of passes whose fingerprint disagreed with the warm-up's.
    pub failed_events: u64,
}

/// Accumulates timed passes of the workload's own configuration.
#[derive(Default)]
pub struct TimedPasses {
    walls: Vec<f64>,
    cpu_s: f64,
    wall_s: f64,
    disagreeing: u64,
}

impl TimedPasses {
    pub fn push(&mut self, pass: &Pass, reference: &Fingerprint) {
        self.walls.push(pass.wall_s);
        self.cpu_s += pass.cpu_s;
        self.wall_s += pass.wall_s;
        if pass.fingerprint() != *reference {
            self.disagreeing += 1;
        }
    }

    pub fn len(&self) -> usize {
        self.walls.len()
    }

    pub fn finish(self, events_per_pass: u64) -> Timed {
        Timed {
            passes: self.walls.len(),
            events_per_pass,
            p10_wall_s: stats::lower_decile(&self.walls),
            median_wall_s: stats::median(&self.walls),
            spread: stats::iqr_over_median(&self.walls),
            cpu_wall_ratio: self.cpu_s / self.wall_s,
            failed_events: self.disagreeing * events_per_pass,
            walls_s: self.walls,
        }
    }
}

/// Runs whole passes until `seconds` have elapsed and at least
/// `min_passes` are in.
pub fn timed_passes(args: &RunArgs, setup: &Setup) -> Timed {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut timed = TimedPasses::default();
    while timed.len() < args.min_passes() || Instant::now() < deadline {
        let pass = run_pass(
            args.workload,
            &setup.input,
            args.workload.backend(),
            None,
            args.handicap_ns,
            None,
        );
        timed.push(&pass, &setup.fingerprint);
    }
    timed.finish(setup.input.log.len() as u64)
}

/// `(correct, failed)` of a run: passes that disagreed with the warm-up pass
/// fail their own events; a broken run-wide gate (produced > truth, a
/// sharded run differing from `Sequential`, a mirror mismatch) fails them all.
pub fn verdict(attempted: u64, disagreeing_events: u64, gates_hold: bool) -> (bool, u64) {
    let failed = if gates_hold {
        disagreeing_events
    } else {
        attempted
    };
    (failed == 0, failed)
}

/// The seed-deterministic outcome metrics plus the checks that gate them.
pub struct Quality {
    pub avg_k_ms: f64,
    pub recall_overall: f64,
    pub recall_worst_period: f64,
    pub periods: usize,
    /// Produced ≤ truth in every period and in total.
    pub within_truth: bool,
    /// A sharded workload matched the `Sequential` run of the same log.
    pub matches_sequential: bool,
}

/// Scores the warm-up report against the ground truth, and — for a sharded
/// workload — replays the log on `Sequential` as the byte-for-byte
/// reference.  Runs after the timed passes, outside `setup_s`.
pub fn quality(args: &RunArgs, setup: &Setup) -> Quality {
    let period = args.workload.config().period_p;
    let eval = evaluate_recall(&setup.warm.report, &setup.truth, period);
    let produced_total: u64 = setup.warm.report.produced.iter().map(|&(_, n)| n).sum();
    let within_truth = produced_total <= setup.truth.total()
        && produced_total == setup.warm.report.total_produced
        && eval.samples.iter().all(|s| s.produced <= s.true_results);
    let matches_sequential = args.workload.backend() == ExecutionBackend::Sequential || {
        let reference = run_pass(
            args.workload,
            &setup.input,
            ExecutionBackend::Sequential,
            None,
            0,
            None,
        );
        reference.fingerprint() == setup.fingerprint
            && reference.report.produced == setup.warm.report.produced
    };
    Quality {
        avg_k_ms: setup.warm.report.avg_k_ms,
        recall_overall: eval.overall_recall,
        recall_worst_period: eval.min_recall(),
        periods: eval.samples.len(),
        within_truth,
        matches_sequential,
    }
}
