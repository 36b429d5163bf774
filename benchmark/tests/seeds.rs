//! Seeds: the whole input is drawn from `--seed`, so two seeds derive
//! different results and settle on different K and recall; one seed repeats
//! K and recall bit for bit and the heap peak to within 0.1 % (the parked
//! pool workers of `d4_qd_shard2_inline` allocate at their own pace and
//! move it by tens of bytes).  Every run is a child process, because
//! `peak_heap_mb` reads a process-wide allocator.
//!
//! The generators emit at fixed rates, so every seed pushes the same number
//! of events per pass; `attempted` differs between runs only through the
//! number of passes that fit into `--seconds`.

use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "d3_qd_seq",
    "d2_dist_seq",
    "zipf_mat_seq",
    "d4_qd_shard2_inline",
];
const DETERMINISTIC: [&str; 3] = ["avg_k_ms", "recall_overall", "recall_worst_period"];

/// One `--quick` untraced run: its result line and progress line.
struct Run {
    result: String,
    progress: String,
}

fn run(workload: &str, seed: u64) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_mswj-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.1", "--trace", "0", "--quick"])
        .output()
        .expect("the benchmark binary starts");
    assert!(out.status.success(), "{workload} seed {seed} failed");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let result = stdout.lines().last().expect("a result line").to_owned();
    assert!(result.contains("\"correct\":true"), "{result}");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 progress");
    let progress = stderr
        .lines()
        .find(|l| l.starts_with('['))
        .expect("a progress line")
        .to_owned();
    Run { result, progress }
}

/// The raw text of a metric's value in the compact result line.
fn metric<'a>(line: &'a str, name: &str) -> &'a str {
    let key = format!("\"{name}\":{{\"value\":");
    let rest = &line[line.find(&key).expect("metric present") + key.len()..];
    &rest[..rest.find(',').expect("value ends")]
}

/// The integer before " results per pass" in the progress line.
fn results_per_pass(progress: &str) -> u64 {
    let head = &progress[..progress.find(" results per pass").expect("count present")];
    head.rsplit(' ')
        .next()
        .expect("a word")
        .parse()
        .expect("an integer")
}

#[test]
fn seeds_differ_and_one_seed_repeats_exactly() {
    for workload in WORKLOADS {
        let (a, again, b) = (run(workload, 42), run(workload, 42), run(workload, 7));
        for name in DETERMINISTIC {
            assert_eq!(
                metric(&a.result, name),
                metric(&again.result, name),
                "{workload}: {name} must repeat bit for bit for one seed"
            );
        }
        let heap =
            |r: &Run| -> f64 { metric(&r.result, "peak_heap_mb").parse().expect("a number") };
        assert!(
            (heap(&a) / heap(&again) - 1.0).abs() < 1e-3,
            "{workload}: peak_heap_mb must repeat for one seed"
        );
        assert_eq!(
            results_per_pass(&a.progress),
            results_per_pass(&again.progress)
        );
        assert_ne!(
            results_per_pass(&a.progress),
            results_per_pass(&b.progress),
            "{workload}: seeds 42 and 7 must derive different results"
        );
        assert_ne!(
            metric(&a.result, "avg_k_ms"),
            metric(&b.result, "avg_k_ms"),
            "{workload}: seeds 42 and 7 must settle on different K"
        );
    }
}
