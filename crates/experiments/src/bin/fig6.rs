//! Fig. 6 — recall of join results produced by the **No-K-slack** baseline.
//!
//! For each (dataset, query) pair the paper plots `γ(P = 1 min)` over time
//! when only the Synchronizer handles disorder (`K_i = 0`).  This binary
//! prints the same series (one sample per adaptation interval, thinned for
//! readability) plus its summary statistics.

use mswj_core::BufferPolicy;
use mswj_experiments::{all_datasets, ground_truth, Scale};
use mswj_metrics::{format_table, TableRow};

fn main() {
    let (scale, session) = Scale::from_args();
    let period_p = 60_000;
    println!("Fig. 6 — recall over time of the No-K-slack baseline (P = 1 min)");
    println!(
        "scale: {:?}, backend: {}, probe: {:?}\n",
        scale, session.backend, session.probe
    );

    let mut summary = Vec::new();
    for dataset in all_datasets(scale) {
        let truth = ground_truth(&dataset);
        let eval = session.run(&dataset, BufferPolicy::NoKSlack, period_p, &truth);
        println!("── {} / {} ──", dataset.name, dataset.query.name());
        let stride = (eval.recall.samples.len() / 20).max(1);
        for sample in eval.recall.samples.iter().step_by(stride) {
            println!(
                "  t = {:>7.1}s   recall γ(P) = {:.3}",
                sample.at.as_secs_f64(),
                sample.recall
            );
        }
        summary.push(
            TableRow::new(format!("{} / {}", dataset.name, dataset.query.name()))
                .cell("avg recall", eval.recall.avg_recall)
                .cell("min recall", eval.recall.min_recall())
                .cell("overall recall", eval.recall.overall_recall),
        );
        println!();
    }
    println!("{}", format_table("Fig. 6 summary (No-K-slack)", &summary));
    session.finish("fig6");
}
