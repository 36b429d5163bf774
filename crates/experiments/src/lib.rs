//! # mswj-experiments — the paper's evaluation, experiment by experiment
//!
//! Each binary in `src/bin/` regenerates one table or figure of Sec. VI of
//! the paper:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig6` | Fig. 6 — recall over time of the No-K-slack baseline |
//! | `table2` | Table II — Max-K-slack average K and average γ(P) |
//! | `fig7` | Fig. 7 — avg K and Φ(Γ)/Φ(.99Γ) vs Γ, EqSel vs NonEqSel |
//! | `fig8` | Fig. 8 — effect of the measurement period P |
//! | `fig9` | Fig. 9 — effect of the adaptation interval L |
//! | `fig10` | Fig. 10 — effect of the K-search granularity g |
//! | `fig11` | Fig. 11 — adaptation-step time vs g |
//! | `run_all` | every experiment above, in sequence |
//!
//! All binaries accept `--duration-secs N`, `--seed N`, `--quick` and the
//! session flags `--backend`, `--probe` and `--metrics-out` (and reject
//! anything else with the usage text and exit status 2), parsed once by
//! [`Scale::from_args`] into a [`Scale`] and the [`Session`] every run of
//! the figure goes through; the defaults run a scaled-down but
//! shape-preserving version of the paper's 23–30-minute workloads.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use mswj_core::{
    BufferPolicy, DisorderConfig, Endpoint, ExecutionBackend, ProbeStrategy, RunReport, Telemetry,
};
use mswj_datasets::{Dataset, SoccerConfig, SoccerDataset, SyntheticConfig, SyntheticDataset};
use mswj_metrics::{evaluate_recall, ground_truth_counts, CountSeries, RecallEvaluation};
use mswj_types::Duration;
use std::path::PathBuf;

/// Scale knobs shared by every experiment binary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Simulated duration of every dataset (seconds).
    pub duration_secs: u64,
    /// RNG seed for the workload generators.
    pub(crate) seed: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            duration_secs: 240,
            seed: 42,
        }
    }
}

impl Scale {
    /// The simulated duration `--quick` selects for smoke tests; the seed
    /// is left as given.
    const QUICK_DURATION_SECS: u64 = 60;

    /// Parses the process arguments: `--duration-secs N`, `--seed N` and
    /// `--quick` into the scale, `--backend SPEC`, `--probe SPEC` and
    /// `--metrics-out PATH` into the [`Session`] every run of the figure
    /// goes through.  Any other argument, and a flag with a missing or
    /// malformed value, prints the error plus usage and exits 2 — never a
    /// silent run at the defaults.  `--help`/`-h` prints the shared usage
    /// text and exits, so every experiment binary has a cheap smoke path
    /// that never touches a workload.
    pub fn from_args() -> (Self, Session) {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("{}", Self::usage());
            std::process::exit(0);
        }
        Self::from_arg_slice(&args).unwrap_or_else(|e| {
            eprintln!("{e}\n\n{}", Self::usage());
            std::process::exit(2);
        })
    }

    /// The usage text shared by every experiment binary.
    pub(crate) fn usage() -> String {
        let d = Scale::default();
        format!(
            "Regenerates one table/figure of the ICDE'16 evaluation.\n\
             \n\
             Options:\n\
             \x20   --duration-secs N  simulated seconds per dataset (default {})\n\
             \x20   --seed N           workload generator seed (default {})\n\
             \x20   --quick            fast smoke-test scale ({} s)\n\
             \x20   --backend SPEC     join-stage backend: seq (default),\n\
             \x20                      pool:N, inproc:N,\n\
             \x20                      uds:PATH[,PATH…], tcp:ADDR[,ADDR…]\n\
             \x20                      (uds/tcp need running mswj-shardd\n\
             \x20                      servers; results are byte-identical\n\
             \x20                      across backends)\n\
             \x20   --probe SPEC       probe strategy: auto (default,\n\
             \x20                      planner-chosen indexed plan) or\n\
             \x20                      nested-loop (exhaustive reference;\n\
             \x20                      results are identical)\n\
             \x20   --metrics-out PATH write the final telemetry snapshot\n\
             \x20                      (quality gauges, latency histograms,\n\
             \x20                      per-shard runtime) as JSON to PATH\n\
             \x20   -h, --help         print this help and exit",
            d.duration_secs,
            d.seed,
            Scale::QUICK_DURATION_SECS
        )
    }

    /// Parses the same flags from an explicit argument slice (testable,
    /// without the program name).
    pub(crate) fn from_arg_slice(args: &[String]) -> Result<(Self, Session), String> {
        let mut scale = Scale::default();
        let mut session = Session::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
            let number = |v: &String| {
                v.parse::<u64>()
                    .map_err(|_| format!("{arg} needs a non-negative integer, got `{v}`"))
            };
            match arg.as_str() {
                "--quick" => scale.duration_secs = Scale::QUICK_DURATION_SECS,
                "--duration-secs" => scale.duration_secs = number(value()?)?,
                "--seed" => scale.seed = number(value()?)?,
                "--backend" => session.backend = parse_backend(value()?)?,
                "--probe" => session.probe = parse_probe(value()?)?,
                "--metrics-out" => {
                    session.metrics = Some((PathBuf::from(value()?), Telemetry::new()))
                }
                _ => return Err(format!("unknown argument `{arg}`")),
            }
        }
        Ok((scale, session))
    }
}

/// How every session of an experiment runs — the `--backend`, `--probe`
/// and `--metrics-out` flags.  The default is the paper's configuration:
/// the sequential backend, the planner-chosen probe, no telemetry.  The
/// measurements are the same under every setting.
#[derive(Debug, Clone, Default)]
pub struct Session {
    /// Execution backend of the join stage.
    pub backend: ExecutionBackend,
    /// Probe strategy; `nested-loop` pins the exhaustive reference path.
    pub probe: ProbeStrategy,
    /// Where [`Session::finish`] writes the final telemetry snapshot, and
    /// the observe-only handle attached to every session run until then.
    metrics: Option<(PathBuf, Telemetry)>,
}

impl Session {
    /// Runs `policy` over `dataset`, measuring `γ(P)` with period
    /// `period_p` against a pre-computed ground truth.
    pub fn run(
        &self,
        dataset: &Dataset,
        policy: BufferPolicy,
        period_p: Duration,
        truth: &CountSeries,
    ) -> PolicyEval {
        let mut builder = mswj_core::Pipeline::builder()
            .query(dataset.query.clone())
            .policy(policy)
            .parallelism(self.backend.clone())
            .probe(self.probe);
        if let Some((_, telemetry)) = &self.metrics {
            builder = builder.telemetry(telemetry.clone());
        }
        let mut pipeline = builder
            .build()
            .expect("experiment configurations are valid");
        for event in dataset.log.iter() {
            pipeline.push(event.clone());
        }
        let report = pipeline.finish();
        let recall = evaluate_recall(&report, truth, period_p);
        PolicyEval { report, recall }
    }

    /// Ends the experiment `binary`: writes the `--metrics-out` snapshot
    /// (the handle's JSON rendering over every session that was run), when
    /// one was asked for, and exits 1 if it cannot be written.
    pub fn finish(&self, binary: &str) {
        let Some((path, telemetry)) = &self.metrics else {
            return;
        };
        match std::fs::write(path, telemetry.render_json()) {
            Ok(()) => eprintln!("{binary}: telemetry snapshot written to {}", path.display()),
            Err(e) => {
                eprintln!("{binary}: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}

/// Parses a `--backend` specification: `seq`, `pool:N`,
/// `inproc:N` (remote shards on in-process server threads), or
/// `uds:`/`tcp:` followed by a comma-separated endpoint list (one shard
/// per endpoint, served by `mswj-shardd`).  A zero count and an empty
/// endpoint entry are errors, so the binary prints its usage instead of
/// failing at engine setup.
pub(crate) fn parse_backend(spec: &str) -> Result<ExecutionBackend, String> {
    let workers = |rest: &str| -> Result<usize, String> {
        match rest.parse() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!("`{spec}` needs a positive worker count")),
        }
    };
    let endpoints = |rest: &str, endpoint: fn(&str) -> Endpoint| {
        rest.split(',')
            .map(|e| match e {
                "" => Err(format!("`{spec}` has an empty endpoint")),
                e => Ok(endpoint(e)),
            })
            .collect::<Result<Vec<_>, String>>()
            .map(|endpoints| ExecutionBackend::Remote { endpoints })
    };
    if spec == "seq" {
        return Ok(ExecutionBackend::Sequential);
    }
    if let Some(rest) = spec.strip_prefix("pool:") {
        return Ok(ExecutionBackend::Pool {
            workers: workers(rest)?,
        });
    }
    if let Some(rest) = spec.strip_prefix("inproc:") {
        return Ok(ExecutionBackend::remote_inproc(workers(rest)?));
    }
    if let Some(rest) = spec.strip_prefix("uds:") {
        return endpoints(rest, |p| Endpoint::Uds(p.into()));
    }
    if let Some(rest) = spec.strip_prefix("tcp:") {
        return endpoints(rest, |a| Endpoint::Tcp(a.to_string()));
    }
    Err(format!(
        "unknown backend `{spec}` (expected seq, pool:N, inproc:N, uds:…, tcp:…)"
    ))
}

/// Parses a `--probe` specification: `auto` (the planner picks the
/// indexed probe plan) or `nested-loop` (the exhaustive reference path —
/// identical results, no index maintenance).
pub(crate) fn parse_probe(spec: &str) -> Result<ProbeStrategy, String> {
    match spec {
        "auto" => Ok(ProbeStrategy::Auto),
        "nested-loop" => Ok(ProbeStrategy::NestedLoop),
        _ => Err(format!(
            "unknown probe strategy `{spec}` (expected auto or nested-loop)"
        )),
    }
}

/// Builds the (simulated) soccer dataset D×2real at the given scale.
pub fn dataset_d2(scale: Scale) -> Dataset {
    let cfg = SoccerConfig::default().duration_secs(scale.duration_secs);
    SoccerDataset::generate(&cfg, scale.seed).into_dataset()
}

/// Builds the synthetic 3-way dataset D×3syn at the given scale.
pub fn dataset_d3(scale: Scale) -> Dataset {
    let cfg = SyntheticConfig::three_way().duration_secs(scale.duration_secs);
    SyntheticDataset::generate(&cfg, scale.seed).into_dataset()
}

/// Builds the synthetic 4-way dataset D×4syn at the given scale.
pub(crate) fn dataset_d4(scale: Scale) -> Dataset {
    let cfg = SyntheticConfig::four_way().duration_secs(scale.duration_secs);
    SyntheticDataset::generate(&cfg, scale.seed).into_dataset()
}

/// All three (dataset, query) pairs of the evaluation, in paper order.
pub fn all_datasets(scale: Scale) -> Vec<Dataset> {
    vec![dataset_d2(scale), dataset_d3(scale), dataset_d4(scale)]
}

/// The paper's default disorder-handling configuration with recall
/// requirement `gamma`:
/// `P` = 1 min, `L` = 1 s, `b` = `g` = 10 ms, NonEqSel.
pub fn paper_default_config(gamma: f64) -> DisorderConfig {
    DisorderConfig::with_gamma(gamma)
}

/// Result of running one policy over one dataset and measuring it against
/// the dataset's ground truth.
#[derive(Debug, Clone)]
pub struct PolicyEval {
    /// The raw pipeline report.
    pub(crate) report: RunReport,
    /// Recall measurements against the ground truth.
    pub recall: RecallEvaluation,
}

impl PolicyEval {
    /// Average buffer size in seconds (the unit the paper plots).
    pub fn avg_k_secs(&self) -> f64 {
        self.report.avg_k_secs()
    }
}

/// Computes the ground-truth result counts of a dataset.
pub fn ground_truth(dataset: &Dataset) -> CountSeries {
    ground_truth_counts(&dataset.query, &dataset.log)
}

/// The recall requirements swept by Fig. 7 and Fig. 11.
pub const GAMMA_SWEEP: [f64; 4] = [0.9, 0.95, 0.99, 0.999];

/// The measurement periods swept by Fig. 8 (seconds).
pub const PERIOD_SWEEP_SECS: [u64; 4] = [30, 60, 180, 300];

/// The adaptation intervals swept by Fig. 9 (milliseconds).
pub const INTERVAL_SWEEP_MS: [u64; 5] = [100, 500, 1_000, 5_000, 10_000];

/// The K-search granularities swept by Fig. 10 and Fig. 11 (milliseconds).
pub const GRANULARITY_SWEEP_MS: [u64; 4] = [1, 10, 100, 1_000];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_mentions_every_flag() {
        let usage = Scale::usage();
        for flag in [
            "--duration-secs",
            "--seed",
            "--quick",
            "--backend",
            "--probe",
            "--metrics-out",
            "--help",
        ] {
            assert!(usage.contains(flag), "usage text misses {flag}");
        }
    }

    #[test]
    fn probe_specs_parse() {
        assert_eq!(parse_probe("auto").unwrap(), ProbeStrategy::Auto);
        assert_eq!(
            parse_probe("nested-loop").unwrap(),
            ProbeStrategy::NestedLoop
        );
        assert!(parse_probe("hash").is_err());
        assert!(parse_probe("").is_err());
    }

    #[test]
    fn forced_nested_loop_probes_agree_with_auto() {
        let scale = Scale {
            duration_secs: 15,
            seed: 9,
        };
        let d2 = dataset_d2(scale);
        let truth = ground_truth(&d2);
        let period = 10_000;
        let auto = Session::default().run(&d2, BufferPolicy::FixedK(200), period, &truth);
        let nested = Session {
            probe: ProbeStrategy::NestedLoop,
            ..Session::default()
        }
        .run(&d2, BufferPolicy::FixedK(200), period, &truth);
        assert_eq!(auto.report.total_produced, nested.report.total_produced);
        assert_eq!(auto.recall.overall_recall, nested.recall.overall_recall);
        assert_eq!(
            nested.report.operator_stats.indexed_probes, 0,
            "a forced nested-loop run never touches an index"
        );
    }

    #[test]
    fn backend_specs_parse() {
        assert_eq!(parse_backend("seq").unwrap(), ExecutionBackend::Sequential);
        assert!(parse_backend("threads:4").is_err());
        assert_eq!(
            parse_backend("pool:2").unwrap(),
            ExecutionBackend::Pool { workers: 2 }
        );
        assert_eq!(
            parse_backend("inproc:3").unwrap(),
            ExecutionBackend::remote_inproc(3)
        );
        assert_eq!(
            parse_backend("uds:/tmp/a.sock,/tmp/b.sock").unwrap(),
            ExecutionBackend::Remote {
                endpoints: vec![
                    Endpoint::Uds("/tmp/a.sock".into()),
                    Endpoint::Uds("/tmp/b.sock".into()),
                ],
            }
        );
        assert_eq!(
            parse_backend("tcp:127.0.0.1:7400").unwrap(),
            ExecutionBackend::Remote {
                endpoints: vec![Endpoint::Tcp("127.0.0.1:7400".to_string())],
            }
        );
        assert!(parse_backend("pool:x").is_err());
        assert!(parse_backend("quantum").is_err());
    }

    #[test]
    fn run_policy_backends_agree_on_an_experiment_workload() {
        // The experiment harness itself must be backend-invariant: the
        // same dataset + policy on sequential, pooled and remote-inproc
        // backends produces identical reports and recall series.
        let scale = Scale {
            duration_secs: 15,
            seed: 9,
        };
        let d2 = dataset_d2(scale);
        let truth = ground_truth(&d2);
        let period = 10_000;
        let policy = || BufferPolicy::FixedK(200);
        let seq = Session::default().run(&d2, policy(), period, &truth);
        for backend in [
            ExecutionBackend::Pool { workers: 2 },
            ExecutionBackend::remote_inproc(2),
        ] {
            let session = Session {
                backend: backend.clone(),
                ..Session::default()
            };
            let eval = session.run(&d2, policy(), period, &truth);
            assert_eq!(
                eval.report.total_produced, seq.report.total_produced,
                "{backend} diverged from sequential"
            );
            assert_eq!(eval.recall.overall_recall, seq.recall.overall_recall);
        }
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    fn parse(args: &[&str]) -> Result<(Scale, Session), String> {
        Scale::from_arg_slice(&strings(args))
    }

    #[test]
    fn scale_parsing() {
        let (d, session) = parse(&[]).unwrap();
        assert_eq!(d, Scale::default());
        assert_eq!(session.backend, ExecutionBackend::Sequential);
        assert_eq!(session.probe, ProbeStrategy::Auto);
        assert!(session.metrics.is_none());
        let quick = Scale {
            duration_secs: Scale::QUICK_DURATION_SECS,
            ..Scale::default()
        };
        assert_eq!(parse(&["--quick"]).unwrap().0, quick);
        // `--quick` sets the duration only: a seed given first survives it.
        let (quick_seeded, _) = parse(&["--seed", "7", "--quick"]).unwrap();
        assert_eq!(quick_seeded.seed, 7);
        assert_eq!(quick_seeded.duration_secs, Scale::QUICK_DURATION_SECS);
        let (custom, _) = parse(&["--duration-secs", "33", "--seed", "7"]).unwrap();
        assert_eq!(custom.duration_secs, 33);
        assert_eq!(custom.seed, 7);
    }

    #[test]
    fn parsing_rejects_unknown_arguments() {
        for args in [
            &["--unknown"][..],
            // A misspelt flag must not silently run the 240 s default.
            &["--duration-sec", "3"],
            &["--seed", "7", "stray"],
            &["--probes", "auto"],
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("unknown argument"), "{err}");
        }
    }

    #[test]
    fn session_flags_parse_in_the_same_pass_as_the_scale() {
        let (scale, session) = parse(&[
            "--backend",
            "pool:2",
            "--seed",
            "7",
            "--probe",
            "nested-loop",
            "--metrics-out",
            "--quick", // a path, however odd: not the flag
        ])
        .unwrap();
        assert_eq!(
            scale,
            Scale {
                seed: 7,
                ..Scale::default()
            }
        );
        assert_eq!(session.backend, ExecutionBackend::Pool { workers: 2 });
        assert_eq!(session.probe, ProbeStrategy::NestedLoop);
        let (path, _) = session.metrics.expect("--metrics-out was given");
        assert_eq!(path, PathBuf::from("--quick"));
    }

    #[test]
    fn parsing_rejects_missing_values() {
        for flag in [
            "--duration-secs",
            "--seed",
            "--backend",
            "--probe",
            "--metrics-out",
        ] {
            let err = parse(&[flag]).unwrap_err();
            assert!(err.contains(flag) && err.contains("needs a value"), "{err}");
        }
    }

    #[test]
    fn parsing_rejects_malformed_values() {
        for (flag, value) in [
            ("--duration-secs", "3s"),
            ("--duration-secs", "-1"),
            ("--seed", "forty-two"),
            // The next flag is not a value: it must not be swallowed either.
            ("--seed", "--quick"),
            ("--backend", "threads:4"),
            // A zero count or an empty endpoint is a usage error, not an
            // engine that fails (or silently shrinks) at setup.
            ("--backend", "pool:0"),
            ("--backend", "inproc:0"),
            ("--backend", "uds:"),
            ("--backend", "uds:/tmp/a.sock,"),
            ("--backend", "tcp:a,,b"),
            ("--probe", "hash"),
        ] {
            let err = parse(&[flag, value]).unwrap_err();
            assert!(err.contains(value), "{err}");
        }
    }

    #[test]
    fn datasets_are_generated_at_scale() {
        let scale = Scale {
            duration_secs: 10,
            seed: 1,
        };
        let d2 = dataset_d2(scale);
        let d3 = dataset_d3(scale);
        let d4 = dataset_d4(scale);
        assert_eq!(d2.query.arity(), 2);
        assert_eq!(d3.query.arity(), 3);
        assert_eq!(d4.query.arity(), 4);
        assert!(!d2.is_empty() && !d3.is_empty() && !d4.is_empty());
        assert_eq!(all_datasets(scale).len(), 3);
    }

    #[test]
    fn run_policy_produces_consistent_eval() {
        let scale = Scale {
            duration_secs: 20,
            seed: 3,
        };
        let d3 = dataset_d3(scale);
        let config = paper_default_config(0.95).period(10_000).interval(1_000);
        let truth = ground_truth(&d3);
        assert!(truth.total() > 0, "Qx3 must produce results");
        let eval = Session::default().run(
            &d3,
            BufferPolicy::QualityDriven(config),
            config.period_p,
            &truth,
        );
        assert!(eval.report.total_produced > 0);
        assert!(eval.recall.overall_recall > 0.0 && eval.recall.overall_recall <= 1.0);
        assert!(eval.avg_k_secs() >= 0.0);
    }

    #[test]
    fn no_k_slack_recall_is_below_max_k_slack() {
        let scale = Scale {
            duration_secs: 30,
            seed: 5,
        };
        let d3 = dataset_d3(scale);
        let truth = ground_truth(&d3);
        let period = 10_000;
        let session = Session::default();
        let none = session.run(&d3, BufferPolicy::NoKSlack, period, &truth);
        let max = session.run(&d3, BufferPolicy::MaxKSlack, period, &truth);
        assert!(max.recall.overall_recall >= none.recall.overall_recall);
        assert!(max.avg_k_secs() > none.avg_k_secs());
    }
}
