//! Fig. 11 — time needed to determine the optimal K in one adaptation step,
//! as a function of the K-search granularity g and the recall requirement Γ,
//! for all three (dataset, query) pairs.

use mswj_core::BufferPolicy;
use mswj_experiments::{
    all_datasets, ground_truth, paper_default_config, Scale, GAMMA_SWEEP, GRANULARITY_SWEEP_MS,
};
use mswj_metrics::{format_table, TableRow};

fn main() {
    let (scale, session) = Scale::from_args();
    println!("Fig. 11 — average adaptation-step time (ms)");
    println!("scale: {:?}\n", scale);

    for dataset in all_datasets(scale) {
        let truth = ground_truth(&dataset);
        let mut rows = Vec::new();
        for &gamma in &GAMMA_SWEEP {
            let mut row = TableRow::new(format!("Γ={gamma}"));
            for &g_ms in &GRANULARITY_SWEEP_MS {
                let config = paper_default_config(gamma).granularity(g_ms);
                let eval = session.run(
                    &dataset,
                    BufferPolicy::QualityDriven(config),
                    config.period_p,
                    &truth,
                );
                row = row.cell(
                    format!("g={g_ms}ms (ms/step)"),
                    eval.recall.avg_adaptation_ms,
                );
            }
            rows.push(row);
        }
        println!(
            "{}",
            format_table(
                &format!("Fig. 11 — {} / {}", dataset.name, dataset.query.name()),
                &rows
            )
        );
    }
    session.finish("fig11");
}
