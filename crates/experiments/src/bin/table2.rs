//! Table II — results of the **Max-K-slack** baseline.
//!
//! The paper reports, per (dataset, query) pair, the average buffer size K
//! (seconds) and the average recall `γ(P)` achieved when K always tracks the
//! maximum delay observed so far.

use mswj_core::BufferPolicy;
use mswj_experiments::{all_datasets, ground_truth, Scale};
use mswj_metrics::{format_table, TableRow};

fn main() {
    let (scale, session) = Scale::from_args();
    let period_p = 60_000;
    println!("Table II — Max-K-slack baseline (P = 1 min)");
    println!("scale: {:?}\n", scale);

    let mut rows = Vec::new();
    for dataset in all_datasets(scale) {
        let truth = ground_truth(&dataset);
        let eval = session.run(&dataset, BufferPolicy::MaxKSlack, period_p, &truth);
        rows.push(
            TableRow::new(format!("{} / {}", dataset.name, dataset.query.name()))
                .cell("avg K (s)", eval.avg_k_secs())
                .cell("avg recall", eval.recall.avg_recall)
                .cell("overall recall", eval.recall.overall_recall),
        );
    }
    println!("{}", format_table("Table II", &rows));
    session.finish("table2");
}
