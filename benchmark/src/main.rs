//! The repo benchmark.  One run is
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`; the last line
//! of stdout is the JSON result.  See `benchmark/README.md`.

mod alloc;
mod cpu;
mod json;
mod manifest;
mod modes;
mod run;
mod stats;
mod trace;
mod workloads;

use json::Json;
use run::RunArgs;
use std::time::Instant;
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
mswj-benchmark — the repo benchmark (see benchmark/README.md)

One run (the last stdout line is the JSON result):
    --workload NAME      d3_qd_seq | d2_dist_seq | zipf_mat_seq | d4_qd_shard2_inline
    --seed N             input seed (default 42; 7 is the held-out seed)
    --seconds S          how long to measure (default 24)
    --trace 0|1          0: end-to-end metrics; 1: per-layer metrics from a traced run
    --quick              a tenth of each log, at least 3 passes, no bounds
    --handicap-ns N      busy-wait N ns per event inside the timed loop
    --spans-out PATH     with --trace 1: write the raw spans as JSON lines

Whole-set modes (each run is a child process of this binary):
    --all                every workload untraced, then traced, into one snapshot
    --aa                 the untraced set twice in alternating order; non-zero exit
                         when a metric's gap exceeds its bound
    --check-sensitivity  assert throughput falls as predicted under --handicap-ns
    --print-benchmark-json
                         print BENCHMARK.json as generated from the metric tables
    -h, --help";

/// Parsed command line.
struct Cli {
    mode: Mode,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    handicap_ns: u64,
    spans_out: Option<std::path::PathBuf>,
}

#[derive(PartialEq)]
enum Mode {
    Single,
    All,
    Aa,
    CheckSensitivity,
    PrintBenchmarkJson,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        mode: Mode::Single,
        workload: None,
        seed: manifest::DEFAULT_SEED,
        seconds: manifest::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        handicap_ns: 0,
        spans_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                cli.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                let v = value("a number")?;
                cli.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                cli.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace `{v}` (expected 0 or 1)")),
                };
            }
            "--handicap-ns" => {
                let v = value("a number")?;
                cli.handicap_ns = v.parse().map_err(|_| format!("bad --handicap-ns `{v}`"))?;
            }
            "--spans-out" => cli.spans_out = Some(value("a path")?.into()),
            "--quick" => cli.quick = true,
            "--all" => cli.mode = Mode::All,
            "--aa" => cli.mode = Mode::Aa,
            "--check-sensitivity" => cli.mode = Mode::CheckSensitivity,
            "--print-benchmark-json" => cli.mode = Mode::PrintBenchmarkJson,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if cli.mode == Mode::Single && cli.workload.is_none() {
        return Err("--workload is required (or one of --all, --aa, --check-sensitivity)".into());
    }
    Ok(cli)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Vec<(&str, f64)>) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(
                metrics
                    .into_iter()
                    .map(|(name, value)| {
                        (
                            name,
                            Json::obj(vec![
                                ("value", Json::Num(value)),
                                ("unit", Json::str(manifest::unit_of(name))),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .compact()
}

/// One untraced run: the result line with the six end-to-end metrics.
fn run_untraced(args: &RunArgs, process_start: Instant) -> String {
    let setup = run::set_up(args, process_start);
    let timed = run::timed_passes(args, &setup);
    let quality = run::quality(args, &setup);
    let attempted = timed.passes as u64 * timed.events_per_pass;
    let (correct, failed) = run::verdict(
        attempted,
        timed.failed_events,
        quality.within_truth && quality.matches_sequential,
    );
    eprintln!(
        "[{} seed {}] {} passes of {} events, {} results per pass, lower decile {:.1} ms, \
         median {:.1} ms (IQR {:.2} %), cpu/wall {:.3}{}, set-up {:.2} s wall, {} recall periods",
        args.workload.name(),
        args.seed,
        timed.passes,
        timed.events_per_pass,
        setup.warm.report.total_produced,
        timed.p10_wall_s * 1e3,
        timed.median_wall_s * 1e3,
        timed.spread * 100.0,
        timed.cpu_wall_ratio,
        if timed.cpu_wall_ratio < trace::CONTENDED_BELOW {
            " CONTENDED"
        } else {
            ""
        },
        setup.wall_s,
        quality.periods,
    );
    eprintln!(
        "  passes_ms {:?}; adaptation: {} checkpoints, mean {:.0} us, {:.1} % of a pass",
        timed
            .walls_s
            .iter()
            .map(|w| (w * 1e4).round() / 10.0)
            .collect::<Vec<_>>(),
        setup.warm.report.checkpoints.len(),
        setup.warm.report.avg_adaptation_nanos / 1e3,
        setup.warm.report.avg_adaptation_nanos * setup.warm.report.checkpoints.len() as f64
            / (timed.median_wall_s * 1e9)
            * 100.0
    );
    if !correct {
        eprintln!(
            "correctness gate: {} events in disagreeing passes, produced<=truth {}, \
             sequential match {}",
            timed.failed_events, quality.within_truth, quality.matches_sequential
        );
    }
    result_line(
        correct,
        attempted,
        failed,
        vec![
            ("setup_s", setup.cpu_s),
            (
                "throughput_eps",
                timed.events_per_pass as f64 / timed.p10_wall_s,
            ),
            ("peak_heap_mb", setup.peak_heap as f64 / (1024.0 * 1024.0)),
            ("avg_k_ms", quality.avg_k_ms),
            ("recall_overall", quality.recall_overall),
            ("recall_worst_period", quality.recall_worst_period),
        ],
    )
}

fn main() {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }
    let cli = parse_cli(&args).unwrap_or_else(|e| {
        eprintln!("{e}\n\n{USAGE}");
        std::process::exit(2);
    });
    let code = match cli.mode {
        Mode::PrintBenchmarkJson => {
            print!("{}", manifest::benchmark_json());
            0
        }
        Mode::Single => {
            let run_args = RunArgs {
                workload: cli.workload.expect("checked by parse_cli"),
                seed: cli.seed,
                seconds: cli.seconds,
                quick: cli.quick,
                handicap_ns: cli.handicap_ns,
            };
            let line = if cli.trace {
                trace::run_traced(&run_args, process_start, cli.spans_out.as_deref())
            } else {
                run_untraced(&run_args, process_start)
            };
            // A wrong answer is still a result: the driver reads `correct`
            // from the line, so the exit code stays 0.
            println!("{line}");
            0
        }
        Mode::All => modes::all(cli.seed, cli.seconds, cli.quick),
        Mode::Aa => modes::aa(cli.seed, cli.seconds, cli.quick),
        Mode::CheckSensitivity => modes::check_sensitivity(cli.seed, cli.seconds),
    };
    std::process::exit(code);
}
