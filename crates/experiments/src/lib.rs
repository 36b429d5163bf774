//! # mswj-experiments — the paper's evaluation, experiment by experiment
//!
//! Each table and figure of Sec. VI of the paper is a function of one
//! [`Context`] (the [`Scale`], the [`Session`] and the three datasets with
//! their ground truths, built once) returning the text it prints; they are
//! listed in [`FIGURES`], and the `mswj-experiments` binary runs them:
//!
//! | figure | paper artifact |
//! |---|---|
//! | `fig6` | Fig. 6 — recall over time of the No-K-slack baseline |
//! | `table2` | Table II — Max-K-slack average K and average γ(P) |
//! | `fig7` | Fig. 7 — avg K and Φ(Γ)/Φ(.99Γ) vs Γ, EqSel vs NonEqSel |
//! | `fig8` | Fig. 8 — effect of the measurement period P |
//! | `fig9` | Fig. 9 — effect of the adaptation interval L |
//! | `fig10` | Fig. 10 — effect of the K-search granularity g |
//! | `fig11` | Fig. 11 — adaptation-step time vs g |
//!
//! `mswj-experiments [FIGURE...]` accepts `--duration-secs N`, `--seed N`,
//! `--quick` and the session flags `--backend`, `--probe` and
//! `--metrics-out` (and rejects anything else with the usage text and exit
//! status 2), parsed once by [`Context::from_args`], which also exits 1 on
//! a backend it cannot set up; without a figure name it runs all seven in
//! the order above.  The defaults run a scaled-down but shape-preserving
//! version of the paper's 23–30-minute workloads.
//!
//! A cell whose quantity no measured period backs — Φ and the average and
//! minimum γ(P) of a run shorter than its first period `P`, and Φ of the
//! Max-K-slack reference row, which belongs to no Γ — prints `-`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use mswj_core::{
    BufferPolicy, DisorderConfig, Endpoint, ExecutionBackend, ProbeStrategy, RunReport,
    SelectivityStrategy, Telemetry,
};
use mswj_datasets::{
    q3_query, Dataset, SoccerConfig, SoccerDataset, SyntheticConfig, SyntheticDataset,
};
use mswj_metrics::{
    evaluate_recall, format_table, ground_truth_counts, CountSeries, RecallEvaluation, TableRow,
};
use mswj_types::Duration;
use std::path::PathBuf;

/// Scale knobs shared by every experiment.
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
    /// The simulated duration `--quick` selects for smoke tests: three of
    /// the paper's measurement periods P, so a quick run measures γ(P)
    /// after the excluded first period.  The seed is left as given.
    const QUICK_DURATION_SECS: u64 = 180;

    /// The usage text.
    pub(crate) fn usage() -> String {
        let d = Scale::default();
        let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        format!(
            "Usage: mswj-experiments [FIGURE...] [OPTIONS]\n\
             \n\
             Regenerates tables/figures of the ICDE'16 evaluation.\n\
             FIGURE: {} (default: all, in that order).\n\
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
             \x20                      per-shard runtime) of every session\n\
             \x20                      run as JSON to PATH\n\
             \x20   -h, --help         print this help and exit",
            names.join(", "),
            d.duration_secs,
            d.seed,
            Scale::QUICK_DURATION_SECS
        )
    }

    /// Parses the arguments (without the program name): figure names, and
    /// `--duration-secs N`, `--seed N` and `--quick` into the scale,
    /// `--backend SPEC`, `--probe SPEC` and `--metrics-out PATH` into the
    /// [`Session`].  No figure name selects all of [`FIGURES`].
    pub(crate) fn from_arg_slice(args: &[String]) -> Result<(Self, Session, Vec<Figure>), String> {
        let mut scale = Scale::default();
        let mut session = Session::default();
        let mut figures = Vec::new();
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
                name => match FIGURES.iter().find(|(known, _)| *known == name) {
                    Some(figure) => figures.push(*figure),
                    None => return Err(format!("unknown argument `{arg}`")),
                },
            }
        }
        if figures.is_empty() {
            figures = FIGURES.to_vec();
        }
        Ok((scale, session, figures))
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
    /// Where [`Context::finish`] writes the final telemetry snapshot, and
    /// the observe-only handle attached to every session run until then.
    metrics: Option<(PathBuf, Telemetry)>,
}

impl Session {
    /// Builds one pipeline under this session's backend and probe and drops
    /// it, so a backend that cannot be set up — an unreachable shard server
    /// — is named before any dataset is generated.
    pub(crate) fn check(&self) -> Result<(), String> {
        mswj_core::Pipeline::builder()
            .query(q3_query(1_000))
            .parallelism(self.backend.clone())
            .probe(self.probe)
            .build()
            .map(drop)
            .map_err(|e| format!("--backend {}: {e}", self.backend))
    }

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
            .expect("the session builds: a valid configuration, reachable shard servers");
        for event in dataset.log.iter() {
            pipeline.push(event.clone());
        }
        let report = pipeline.finish();
        let recall = evaluate_recall(&report, truth, period_p);
        PolicyEval { report, recall }
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
    match spec.split_once(':') {
        _ if spec == "seq" => Ok(ExecutionBackend::Sequential),
        Some(("pool", n)) => Ok(ExecutionBackend::Pool {
            workers: workers(n)?,
        }),
        Some(("inproc", n)) => Ok(ExecutionBackend::remote_inproc(workers(n)?)),
        Some(("uds", paths)) => endpoints(paths, |p| Endpoint::Uds(p.into())),
        Some(("tcp", addrs)) => endpoints(addrs, |a| Endpoint::Tcp(a.to_string())),
        _ => Err(format!(
            "unknown backend `{spec}` (expected seq, pool:N, inproc:N, uds:…, tcp:…)"
        )),
    }
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

/// The evaluation's three datasets at `scale`, in paper order: the
/// (simulated) soccer D×2real and the synthetic D×3syn and D×4syn.
fn datasets(scale: Scale) -> [Dataset; 3] {
    let synthetic = |cfg: SyntheticConfig| {
        let cfg = cfg.duration_secs(scale.duration_secs);
        SyntheticDataset::generate(&cfg, scale.seed).into_dataset()
    };
    let soccer = SoccerConfig::default().duration_secs(scale.duration_secs);
    [
        SoccerDataset::generate(&soccer, scale.seed).into_dataset(),
        synthetic(SyntheticConfig::three_way()),
        synthetic(SyntheticConfig::four_way()),
    ]
}

/// What every figure reads: the scale, the session, and the three
/// datasets with their ground truths, built once per process.
#[derive(Debug)]
pub struct Context {
    scale: Scale,
    session: Session,
    datasets: [(Dataset, CountSeries); 3],
}

impl Context {
    /// Generates the datasets at `scale` and computes their ground truths.
    pub fn new(scale: Scale, session: Session) -> Self {
        let datasets = datasets(scale).map(|dataset| {
            let truth = ground_truth_counts(&dataset.query, &dataset.log);
            (dataset, truth)
        });
        Context {
            scale,
            session,
            datasets,
        }
    }

    /// Parses the process arguments into a context and the figures to run.
    /// Any unknown argument, and a flag with a missing or malformed value,
    /// prints the error plus usage and exits 2 — never a silent run at the
    /// defaults.  A backend that cannot be set up (an unreachable shard
    /// server) prints the `--backend` error and exits 1 before any dataset
    /// is generated.  `--help`/`-h` prints the usage text and exits before
    /// any workload is generated.
    pub fn from_args() -> (Self, Vec<Figure>) {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("{}", Scale::usage());
            std::process::exit(0);
        }
        let (scale, session, figures) = Scale::from_arg_slice(&args).unwrap_or_else(|e| {
            eprintln!("{e}\n\n{}", Scale::usage());
            std::process::exit(2);
        });
        if let Err(e) = session.check() {
            eprintln!("{e}");
            std::process::exit(1);
        }
        (Context::new(scale, session), figures)
    }

    /// Writes the `--metrics-out` snapshot (the handle's JSON rendering
    /// over every session run), when one was asked for, and exits 1 if it
    /// cannot be written.
    pub fn finish(&self) {
        let Some((path, telemetry)) = &self.session.metrics else {
            return;
        };
        match std::fs::write(path, telemetry.render_json()) {
            Ok(()) => eprintln!("telemetry snapshot written to {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    /// A figure's title line, the scale line and a blank line.
    fn head(&self, title: &str) -> String {
        format!("{title}\nscale: {:?}\n\n", self.scale)
    }

    /// Runs `policy` over one dataset, measuring `γ(P)` over the policy's
    /// own P, or over the paper's for a baseline.
    fn run(&self, (dataset, truth): &(Dataset, CountSeries), policy: BufferPolicy) -> PolicyEval {
        let period_p = match policy {
            BufferPolicy::QualityDriven(config) => config.period_p,
            _ => PERIOD_P,
        };
        self.session.run(dataset, policy, period_p, truth)
    }
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

    /// A sweep row: `avg K (s)`, `Φ(Γ) %` and `Φ(.99Γ) %`.
    fn phi_row(&self, label: String, gamma: f64) -> TableRow {
        TableRow::new(label)
            .cell("avg K (s)", self.avg_k_secs())
            .cell("Φ(Γ) %", self.recall.fulfilment_pct(gamma))
            .cell("Φ(.99Γ) %", self.recall.fulfilment_pct_relaxed(gamma))
    }
}

/// A table as a figure prints it: [`format_table`] plus a blank line.
fn table(title: &str, rows: &[TableRow]) -> String {
    format_table(title, rows) + "\n"
}

/// `"<dataset> / <query>"`, the label of a dataset's section or row.
fn label(dataset: &Dataset) -> String {
    format!("{} / {}", dataset.name, dataset.query.name())
}

/// One figure: its command-line name and the function rendering it.
type Figure = (&'static str, fn(&Context) -> String);

/// The paper's tables and figures, in the order a run without figure
/// names prints them.
pub const FIGURES: [Figure; 7] = [
    ("fig6", fig6),
    ("table2", table2),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
];

/// The measurement period of the baselines (Fig. 6, Table II, Fig. 7's
/// reference row): the paper's P = 1 min.
const PERIOD_P: Duration = 60_000;

/// The recall requirements swept by Fig. 7 and Fig. 11.
const GAMMA_SWEEP: [f64; 4] = [0.9, 0.95, 0.99, 0.999];

/// The measurement periods swept by Fig. 8 (seconds).
const PERIOD_SWEEP_SECS: [u64; 4] = [30, 60, 180, 300];

/// The adaptation intervals swept by Fig. 9 (milliseconds).
const INTERVAL_SWEEP_MS: [u64; 5] = [100, 500, 1_000, 5_000, 10_000];

/// The K-search granularities swept by Fig. 10 and Fig. 11 (milliseconds).
const GRANULARITY_SWEEP_MS: [u64; 4] = [1, 10, 100, 1_000];

/// Fig. 6 — recall of join results produced by the **No-K-slack** baseline:
/// `γ(P = 1 min)` over time when only the Synchronizer handles disorder
/// (`K_i = 0`), one sample per adaptation interval thinned to about 20 per
/// dataset, plus its summary statistics.
fn fig6(ctx: &Context) -> String {
    let session = &ctx.session;
    let mut out = format!(
        "Fig. 6 — recall over time of the No-K-slack baseline (P = 1 min)\n\
         scale: {:?}, backend: {}, probe: {:?}\n\n",
        ctx.scale, session.backend, session.probe
    );
    let mut summary = Vec::new();
    for data @ (dataset, _) in &ctx.datasets {
        let eval = ctx.run(data, BufferPolicy::NoKSlack);
        out += &format!("── {} ──\n", label(dataset));
        let stride = (eval.recall.samples.len() / 20).max(1);
        for sample in eval.recall.samples.iter().step_by(stride) {
            let at = sample.at.as_secs_f64();
            out += &format!("  t = {at:>7.1}s   recall γ(P) = {:.3}\n", sample.recall);
        }
        out.push('\n');
        summary.push(
            TableRow::new(label(dataset))
                .cell("avg recall", eval.recall.avg_recall)
                .cell("min recall", eval.recall.min_recall())
                .cell("overall recall", eval.recall.overall_recall),
        );
    }
    out + &table("Fig. 6 summary (No-K-slack)", &summary)
}

/// Table II — the **Max-K-slack** baseline: per dataset, the average buffer
/// size K (seconds) and the average recall `γ(P)` when K always tracks the
/// maximum delay observed so far.
fn table2(ctx: &Context) -> String {
    let rows: Vec<TableRow> = ctx
        .datasets
        .iter()
        .map(|data| {
            let eval = ctx.run(data, BufferPolicy::MaxKSlack);
            TableRow::new(label(&data.0))
                .cell("avg K (s)", eval.avg_k_secs())
                .cell("avg recall", eval.recall.avg_recall)
                .cell("overall recall", eval.recall.overall_recall)
        })
        .collect();
    ctx.head("Table II — Max-K-slack baseline (P = 1 min)") + &table("Table II", &rows)
}

/// Fig. 7 — the quality-driven approach under Γ ∈ {0.9, 0.95, 0.99, 0.999}:
/// per dataset and selectivity model (EqSel, NonEqSel), the average K,
/// Φ(Γ) and Φ(.99Γ), with Max-K-slack's average K as a reference row.
fn fig7(ctx: &Context) -> String {
    let mut out = ctx.head("Fig. 7 — effectiveness under varying recall requirements Γ");
    for data @ (dataset, _) in &ctx.datasets {
        let max_k = ctx.run(data, BufferPolicy::MaxKSlack);
        let mut rows = Vec::new();
        for gamma in GAMMA_SWEEP {
            for strategy in [SelectivityStrategy::EqSel, SelectivityStrategy::NonEqSel] {
                let config = DisorderConfig::with_gamma(gamma).selectivity_strategy(strategy);
                let eval = ctx.run(data, BufferPolicy::QualityDriven(config));
                rows.push(
                    eval.phi_row(format!("Γ={gamma} {strategy}"), gamma)
                        .cell("avg recall", eval.recall.avg_recall),
                );
            }
        }
        rows.push(
            TableRow::new("Max-K-slack (reference)")
                .cell("avg K (s)", max_k.avg_k_secs())
                .cell("avg recall", max_k.recall.avg_recall),
        );
        out += &table(&format!("Fig. 7 — {}", label(dataset)), &rows);
    }
    out
}

/// Fig. 8–10: one quality-driven run per sweep point and Γ ∈ {0.95, 0.99}
/// over D×2real and D×3syn, the paper's defaults but for the swept
/// parameter, which `set` applies; `name` labels a point, and `what`
/// completes the title line.
fn qd_sweep(
    ctx: &Context,
    fig: &str,
    what: &str,
    points: &[u64],
    name: impl Fn(u64) -> String,
    set: fn(DisorderConfig, Duration) -> DisorderConfig,
) -> String {
    let mut out = ctx.head(&format!("{fig} — {what}"));
    for data @ (dataset, _) in &ctx.datasets[..2] {
        let mut rows = Vec::new();
        for &point in points {
            for gamma in [0.95, 0.99] {
                let config = set(DisorderConfig::with_gamma(gamma), point);
                let eval = ctx.run(data, BufferPolicy::QualityDriven(config));
                rows.push(eval.phi_row(format!("{} Γ={gamma}", name(point)), gamma));
            }
        }
        out += &table(&format!("{fig} — {}", label(dataset)), &rows);
    }
    out
}

/// Fig. 8 — effect of the measurement period P ∈ {30, 60, 180, 300} s.
/// A period beyond half the (scaled-down) run would leave every
/// measurement in the excluded first period, so P is clamped into
/// [2 s, half the run]; each row names the P it ran, and one line names
/// the requested periods that were clamped.
fn fig8(ctx: &Context) -> String {
    let half_run = (ctx.scale.duration_secs * 500).max(2_000);
    let clamp = |p_secs: u64| (p_secs * 1_000).clamp(2_000, half_run);
    let secs = |p_ms: u64| p_ms as f64 / 1_000.0;
    let clamped: Vec<String> = PERIOD_SWEEP_SECS
        .iter()
        .filter(|&&p| clamp(p) != p * 1_000)
        .map(|&p| format!("{p}s → {}s", secs(clamp(p))))
        .collect();
    let mut what = "effect of the measurement period P".to_string();
    if !clamped.is_empty() {
        let clamped = clamped.join(", ");
        what += &format!("\nP clamped into [2 s, half the run]: {clamped}");
    }
    let mut periods = PERIOD_SWEEP_SECS.map(clamp).to_vec();
    periods.dedup();
    let name = |p_ms| format!("P={}s", secs(p_ms));
    let set = DisorderConfig::period;
    qd_sweep(ctx, "Fig. 8", &what, &periods, name, set)
}

/// Fig. 9 — effect of the adaptation interval L ∈ {0.1, 0.5, 1, 5, 10} s.
fn fig9(ctx: &Context) -> String {
    let what = "effect of the adaptation interval L";
    let name = |l_ms| format!("L={}s", l_ms as f64 / 1_000.0);
    let set = DisorderConfig::interval;
    qd_sweep(ctx, "Fig. 9", what, &INTERVAL_SWEEP_MS, name, set)
}

/// Fig. 10 — effect of the K-search granularity g ∈ {1, 10, 100, 1000} ms.
fn fig10(ctx: &Context) -> String {
    let what = "effect of the K-search granularity g";
    let name = |g_ms| format!("g={g_ms}ms");
    let set = DisorderConfig::granularity;
    qd_sweep(ctx, "Fig. 10", what, &GRANULARITY_SWEEP_MS, name, set)
}

/// Fig. 11 — time to determine the optimal K in one adaptation step, as a
/// function of the K-search granularity g and Γ, for all three datasets.
fn fig11(ctx: &Context) -> String {
    let mut out = ctx.head("Fig. 11 — average adaptation-step time (ms)");
    for data in &ctx.datasets {
        let rows: Vec<TableRow> = GAMMA_SWEEP
            .iter()
            .map(|&gamma| {
                let row = TableRow::new(format!("Γ={gamma}"));
                GRANULARITY_SWEEP_MS.iter().fold(row, |row, &g_ms| {
                    let config = DisorderConfig::with_gamma(gamma).granularity(g_ms);
                    let eval = ctx.run(data, BufferPolicy::QualityDriven(config));
                    let step_ms = eval.recall.avg_adaptation_ms;
                    row.cell(format!("g={g_ms}ms (ms/step)"), step_ms)
                })
            })
            .collect();
        out += &table(&format!("Fig. 11 — {}", label(&data.0)), &rows);
    }
    out
}

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
        for (name, _) in FIGURES {
            assert!(usage.contains(name), "usage text misses {name}");
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
        let [d2, ..] = datasets(scale);
        let truth = truth_of(&d2);
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
        let [d2, ..] = datasets(scale);
        let truth = truth_of(&d2);
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
        Scale::from_arg_slice(&strings(args)).map(|(scale, session, _)| (scale, session))
    }

    fn truth_of(dataset: &Dataset) -> CountSeries {
        ground_truth_counts(&dataset.query, &dataset.log)
    }

    fn names(figures: &[Figure]) -> Vec<&'static str> {
        figures.iter().map(|(name, _)| *name).collect()
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
            // A figure name is matched exactly.
            &["fig12"],
            &["Fig6"],
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
        let [d2, d3, d4] = datasets(scale);
        assert_eq!(d2.query.arity(), 2);
        assert_eq!(d3.query.arity(), 3);
        assert_eq!(d4.query.arity(), 4);
        assert!(!d2.is_empty() && !d3.is_empty() && !d4.is_empty());
    }

    #[test]
    fn run_policy_produces_consistent_eval() {
        let scale = Scale {
            duration_secs: 20,
            seed: 3,
        };
        let [_, d3, _] = datasets(scale);
        let config = DisorderConfig::with_gamma(0.95)
            .period(10_000)
            .interval(1_000);
        let truth = truth_of(&d3);
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
        let [_, d3, _] = datasets(scale);
        let truth = truth_of(&d3);
        let period = 10_000;
        let session = Session::default();
        let none = session.run(&d3, BufferPolicy::NoKSlack, period, &truth);
        let max = session.run(&d3, BufferPolicy::MaxKSlack, period, &truth);
        assert!(max.recall.overall_recall >= none.recall.overall_recall);
        assert!(max.avg_k_secs() > none.avg_k_secs());
    }

    #[test]
    fn figure_names_select_figures_in_the_given_order() {
        let figures = |args: &[&str]| names(&Scale::from_arg_slice(&strings(args)).unwrap().2);
        assert_eq!(
            figures(&[]),
            ["fig6", "table2", "fig7", "fig8", "fig9", "fig10", "fig11"]
        );
        assert_eq!(figures(&["--quick"]), names(&FIGURES));
        assert_eq!(
            figures(&["fig8", "--seed", "7", "table2"]),
            ["fig8", "table2"]
        );
    }

    /// The cells of the column `name` in every table of `text`, trimmed.
    fn column<'a>(text: &'a str, name: &str) -> Vec<&'a str> {
        let mut index = None;
        let mut cells = Vec::new();
        for line in text.lines() {
            let fields: Vec<&str> = line.split('|').map(str::trim).collect();
            if fields.len() == 1 {
                continue;
            }
            // A header row has an empty label cell.
            if fields[0].is_empty() {
                index = fields.iter().position(|f| *f == name);
            } else if let Some(i) = index {
                cells.push(fields[i]);
            }
        }
        cells
    }

    #[test]
    fn every_figure_runs_in_process() {
        let scale = Scale {
            duration_secs: 3,
            seed: 1,
        };
        let context = Context::new(scale, Session::default());
        let titles = [
            "Fig. 6 — recall over time of the No-K-slack baseline (P = 1 min)\n",
            "Table II — Max-K-slack baseline (P = 1 min)\n",
            "Fig. 7 — effectiveness under varying recall requirements Γ\n",
            "Fig. 8 — effect of the measurement period P\n",
            "Fig. 9 — effect of the adaptation interval L\n",
            "Fig. 10 — effect of the K-search granularity g\n",
            "Fig. 11 — average adaptation-step time (ms)\n",
        ];
        let mut outputs = Vec::new();
        for ((name, figure), title) in FIGURES.iter().zip(titles) {
            let text = figure(&context);
            assert!(text.starts_with(title), "{name} printed:\n{text}");
            outputs.push(text);
        }
        // A 3 s run ends inside its first period P = 60 s: nothing was
        // measured, so no Φ or average/minimum recall cell shows a number.
        let (fig6, table2, fig7, fig8) = (&outputs[0], &outputs[1], &outputs[2], &outputs[3]);
        for (text, column_name, rows) in [
            (fig7, "Φ(Γ) %", 3 * 9),
            (fig7, "Φ(.99Γ) %", 3 * 9),
            (fig7, "avg recall", 3 * 9),
            (fig6, "avg recall", 3),
            (fig6, "min recall", 3),
            (table2, "avg recall", 3),
            (fig8, "Φ(Γ) %", 2 * 2),
        ] {
            let cells = column(text, column_name);
            assert_eq!(cells.len(), rows, "{column_name} in\n{text}");
            assert!(cells.iter().all(|c| *c == "-"), "{column_name} in\n{text}");
        }
        // Every requested period clamps to the 2 s floor: one P, labelled
        // as it ran, and a line naming the clamped requests.
        assert!(fig8.contains(
            "P clamped into [2 s, half the run]: 30s → 2s, 60s → 2s, 180s → 2s, 300s → 2s\n"
        ));
        assert!(fig8.contains("P=2s Γ=0.95") && !fig8.contains("P=30s"));
    }

    #[test]
    fn quick_scale_measures_a_period_at_the_papers_p() {
        let (scale, session) = parse(&["--quick"]).unwrap();
        let [d2, ..] = datasets(scale);
        let eval = session.run(&d2, BufferPolicy::NoKSlack, PERIOD_P, &truth_of(&d2));
        assert!(!eval.recall.samples.is_empty());
    }
}
