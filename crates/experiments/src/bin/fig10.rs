//! Fig. 10 — effect of the K-search granularity g ∈ {1, 10, 100, 1000} ms on
//! the quality-driven approach, for (D×2real, Q×2) and (D×3syn, Q×3) under
//! Γ ∈ {0.95, 0.99}.

use mswj_core::BufferPolicy;
use mswj_experiments::{
    dataset_d2, dataset_d3, ground_truth, paper_default_config, Scale, GRANULARITY_SWEEP_MS,
};
use mswj_metrics::{format_table, TableRow};

fn main() {
    let (scale, session) = Scale::from_args();
    println!("Fig. 10 — effect of the K-search granularity g");
    println!("scale: {:?}\n", scale);

    for dataset in [dataset_d2(scale), dataset_d3(scale)] {
        let truth = ground_truth(&dataset);
        let mut rows = Vec::new();
        for &g_ms in &GRANULARITY_SWEEP_MS {
            for gamma in [0.95, 0.99] {
                let config = paper_default_config(gamma).granularity(g_ms);
                let eval = session.run(
                    &dataset,
                    BufferPolicy::QualityDriven(config),
                    config.period_p,
                    &truth,
                );
                rows.push(
                    TableRow::new(format!("g={g_ms}ms Γ={gamma}"))
                        .cell("avg K (s)", eval.avg_k_secs())
                        .cell("Φ(Γ) %", eval.recall.fulfilment_pct(gamma))
                        .cell("Φ(.99Γ) %", eval.recall.fulfilment_pct_relaxed(gamma)),
                );
            }
        }
        println!(
            "{}",
            format_table(
                &format!("Fig. 10 — {} / {}", dataset.name, dataset.query.name()),
                &rows
            )
        );
    }
    session.finish("fig10");
}
