//! Whole-set modes: `--all`, `--aa` and `--check-sensitivity`.
//!
//! Every run is a child process of this binary, exactly as the driver
//! makes it: `setup_s` counts CPU time from process start and
//! `peak_heap_mb` reads a process-wide allocator, so two workloads must
//! never share a process.

use crate::json::{self, Json};
use crate::manifest::{self, END_TO_END};
use crate::stats;
use crate::trace;
use crate::workloads::Workload;
use std::process::{Command, Stdio};

struct Child {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    handicap_ns: u64,
}

impl Child {
    /// Spawns the run, waits for it to end and returns its result line (the
    /// last line of its stdout).
    fn run(&self) -> Result<String, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["--workload", self.workload.name()])
            .args(["--seed", &self.seed.to_string()])
            .args(["--seconds", &self.seconds.to_string()])
            .args(["--trace", if self.trace { "1" } else { "0" }])
            .args(["--handicap-ns", &self.handicap_ns.to_string()]);
        if self.quick {
            cmd.arg("--quick");
        }
        // The child's progress lines go straight to our stderr; `output()`
        // waits for it to exit.
        let out = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start a run: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "{} exited with {}",
                self.workload.name(),
                out.status
            ));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().ok_or("the run printed no result")?;
        Ok(line.to_owned())
    }
}

fn capture(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `--all`: every workload untraced, then traced, into one snapshot on
/// stdout, with the commit, seed, `nproc` and rustc version recorded.
pub fn all(seed: u64, seconds: f64, quick: bool) -> i32 {
    let mut ok = true;
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        let mut row = vec![("why".to_owned(), Json::str(workload.why()))];
        for (key, trace) in [("end_to_end", false), ("traced", true)] {
            let child = Child {
                workload,
                seed,
                seconds,
                trace,
                quick,
                handicap_ns: 0,
            };
            match child.run() {
                Ok(line) => {
                    ok &= json::is_correct(&line);
                    if trace {
                        row.push(("layer_shares".to_owned(), trace::layer_shares(&line)));
                    }
                    row.push((key.to_owned(), Json::Raw(line)));
                }
                Err(e) => {
                    eprintln!("{} ({key}): {e}", workload.name());
                    return 1;
                }
            }
        }
        rows.push((workload.name().to_owned(), Json::Obj(row)));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let snapshot = Json::obj(vec![
        ("commit", Json::str(capture("git", &["rev-parse", "HEAD"]))),
        ("rustc", Json::str(capture("rustc", &["--version"]))),
        ("nproc", Json::Num(nproc as f64)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("quick", Json::Bool(quick)),
        ("workloads", Json::Obj(rows)),
    ]);
    print!("{}", snapshot.pretty());
    i32::from(!ok)
}

/// Untraced sets per side of an A/A comparison.  One run a side trips on
/// single-run noise (`setup_s` moves 5–15 % between back-to-back runs); the
/// driver compares medians, so the self-check does too.
const AA_SETS: usize = 3;

/// `--aa`: the untraced set [`AA_SETS`] times a side — side A in workload
/// order, side B in reverse, alternating A B A B … — then each metric's gap
/// between the two sides' medians beside its bound; exits non-zero on any
/// excess (`--quick` runs one set a side and applies no bounds).
pub fn aa(seed: u64, seconds: f64, quick: bool) -> i32 {
    let run_set = |order: &[Workload]| -> Result<Vec<(Workload, String)>, String> {
        order
            .iter()
            .map(|&workload| {
                let child = Child {
                    workload,
                    seed,
                    seconds,
                    trace: false,
                    quick,
                    handicap_ns: 0,
                };
                child.run().map(|line| (workload, line))
            })
            .collect()
    };
    let forward = Workload::ALL;
    let mut backward = Workload::ALL;
    backward.reverse();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for _ in 0..if quick { 1 } else { AA_SETS } {
        match run_set(&forward).and_then(|x| Ok((x, run_set(&backward)?))) {
            Ok((x, y)) => {
                a.extend(x);
                b.extend(y);
            }
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        }
    }
    let mut excess = 0;
    println!(
        "{:22} {:20} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "A (median)", "B (median)", "gap %", "bound %"
    );
    for workload in Workload::ALL {
        let lines = |side: &[(Workload, String)]| -> Vec<String> {
            side.iter()
                .filter(|(w, _)| *w == workload)
                .map(|(_, line)| line.clone())
                .collect()
        };
        let (xs, ys) = (lines(&a), lines(&b));
        if !xs.iter().chain(&ys).all(|line| json::is_correct(line)) {
            println!("{:22} a run reported correct: false", workload.name());
            excess += 1;
        }
        for m in &END_TO_END {
            let values = |lines: &[String]| -> Vec<f64> {
                lines
                    .iter()
                    .map(|line| json::metric_value(line, m.name).unwrap_or(f64::NAN))
                    .collect()
            };
            let (xs, ys) = (values(&xs), values(&ys));
            let over = if xs.iter().chain(&ys).any(|v| v.is_nan()) {
                true
            } else if manifest::DETERMINISTIC.contains(&m.name) {
                // The same seed must give the same bits on every run.
                xs.iter().chain(&ys).any(|v| v.to_bits() != xs[0].to_bits())
            } else {
                // A/A has no "worse" side: the gap is symmetric.
                let (x, y) = (stats::median(&xs), stats::median(&ys));
                !quick && (x - y).abs() / x.min(y) > m.bound
            };
            let (x, y) = (stats::median(&xs), stats::median(&ys));
            println!(
                "{:22} {:20} {:>16.6} {:>16.6} {:>9.3} {:>7.1}{}",
                workload.name(),
                m.name,
                x,
                y,
                (x - y).abs() / x.min(y) * 100.0,
                m.bound * 100.0,
                if over { "  EXCEEDED" } else { "" }
            );
            excess += i32::from(over);
        }
    }
    println!(
        "{}",
        if excess == 0 {
            "A/A: every gap within its bound; K and recall bit-identical"
        } else {
            "A/A: FAILED"
        }
    );
    i32::from(excess > 0)
}

/// The handicap of the sensitivity check, and the tolerance on the
/// predicted throughput.
const HANDICAP_NS: u64 = 2_000;
const SENSITIVITY_TOLERANCE: f64 = 0.10;

/// `--check-sensitivity`: a busy-wait of N ns per event inside the timed
/// loop must take `throughput_eps` from T to within 10 % of 1/(1/T + N) on
/// `d3_qd_seq` and `d2_dist_seq` — the clock brackets the work, and a
/// slowdown on the path reaches the metric.
pub fn check_sensitivity(seed: u64, seconds: f64) -> i32 {
    let mut failures = 0;
    for workload in [Workload::D3QdSeq, Workload::D2DistSeq] {
        let throughput = |handicap_ns: u64| -> Result<f64, String> {
            let child = Child {
                workload,
                seed,
                seconds,
                trace: false,
                quick: false,
                handicap_ns,
            };
            let line = child.run()?;
            json::metric_value(&line, "throughput_eps").ok_or("no throughput_eps".to_owned())
        };
        let (plain, slowed) = match throughput(0).and_then(|t| Ok((t, throughput(HANDICAP_NS)?))) {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        };
        let predicted = 1.0 / (1.0 / plain + HANDICAP_NS as f64 * 1e-9);
        let off = (slowed - predicted).abs() / predicted;
        let ok = off <= SENSITIVITY_TOLERANCE;
        println!(
            "{:14} T = {:.0} events/s; +{} ns/event predicts {:.0}, measured {:.0} ({:+.2} %) {}",
            workload.name(),
            plain,
            HANDICAP_NS,
            predicted,
            slowed,
            (slowed / predicted - 1.0) * 100.0,
            if ok { "ok" } else { "FAILED" }
        );
        failures += i32::from(!ok);
    }
    i32::from(failures > 0)
}
