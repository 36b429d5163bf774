//! Fig. 7 — effectiveness of the quality-driven approach under varying
//! recall requirements Γ ∈ {0.9, 0.95, 0.99, 0.999}.
//!
//! For every (dataset, query) pair and both selectivity-modelling strategies
//! (EqSel, NonEqSel) the paper plots the average K, Φ(Γ) and Φ(.99Γ), with
//! the Max-K-slack average K as a reference line.

use mswj_core::{BufferPolicy, SelectivityStrategy};
use mswj_experiments::{all_datasets, ground_truth, paper_default_config, Scale, GAMMA_SWEEP};
use mswj_metrics::{format_table, TableRow};

fn main() {
    let (scale, session) = Scale::from_args();
    println!("Fig. 7 — effectiveness under varying recall requirements Γ");
    println!("scale: {:?}\n", scale);

    for dataset in all_datasets(scale) {
        let truth = ground_truth(&dataset);
        let config_ref = paper_default_config(0.99);
        let max_k = session.run(
            &dataset,
            BufferPolicy::MaxKSlack,
            config_ref.period_p,
            &truth,
        );
        let mut rows = Vec::new();
        for &gamma in &GAMMA_SWEEP {
            for strategy in [SelectivityStrategy::EqSel, SelectivityStrategy::NonEqSel] {
                let config = paper_default_config(gamma).selectivity_strategy(strategy);
                let eval = session.run(
                    &dataset,
                    BufferPolicy::QualityDriven(config),
                    config.period_p,
                    &truth,
                );
                rows.push(
                    TableRow::new(format!("Γ={gamma} {strategy}"))
                        .cell("avg K (s)", eval.avg_k_secs())
                        .cell("Φ(Γ) %", eval.recall.fulfilment_pct(gamma))
                        .cell("Φ(.99Γ) %", eval.recall.fulfilment_pct_relaxed(gamma))
                        .cell("avg recall", eval.recall.avg_recall),
                );
            }
        }
        rows.push(
            TableRow::new("Max-K-slack (reference)")
                .cell("avg K (s)", max_k.avg_k_secs())
                .cell("Φ(Γ) %", 100.0)
                .cell("Φ(.99Γ) %", 100.0)
                .cell("avg recall", max_k.recall.avg_recall),
        );
        println!(
            "{}",
            format_table(
                &format!("Fig. 7 — {} / {}", dataset.name, dataset.query.name()),
                &rows
            )
        );
    }
    session.finish("fig7");
}
