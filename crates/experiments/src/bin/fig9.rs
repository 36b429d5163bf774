//! Fig. 9 — effect of the adaptation interval L ∈ {0.1, 0.5, 1, 5, 10} s on
//! the quality-driven approach, for (D×2real, Q×2) and (D×3syn, Q×3) under
//! Γ ∈ {0.95, 0.99}.

use mswj_core::BufferPolicy;
use mswj_experiments::{
    dataset_d2, dataset_d3, ground_truth, paper_default_config, Scale, INTERVAL_SWEEP_MS,
};
use mswj_metrics::{format_table, TableRow};

fn main() {
    let (scale, session) = Scale::from_args();
    println!("Fig. 9 — effect of the adaptation interval L");
    println!("scale: {:?}\n", scale);

    for dataset in [dataset_d2(scale), dataset_d3(scale)] {
        let truth = ground_truth(&dataset);
        let mut rows = Vec::new();
        for &l_ms in &INTERVAL_SWEEP_MS {
            for gamma in [0.95, 0.99] {
                let config = paper_default_config(gamma).interval(l_ms);
                let eval = session.run(
                    &dataset,
                    BufferPolicy::QualityDriven(config),
                    config.period_p,
                    &truth,
                );
                rows.push(
                    TableRow::new(format!("L={}s Γ={gamma}", l_ms as f64 / 1_000.0))
                        .cell("avg K (s)", eval.avg_k_secs())
                        .cell("Φ(Γ) %", eval.recall.fulfilment_pct(gamma))
                        .cell("Φ(.99Γ) %", eval.recall.fulfilment_pct_relaxed(gamma)),
                );
            }
        }
        println!(
            "{}",
            format_table(
                &format!("Fig. 9 — {} / {}", dataset.name, dataset.query.name()),
                &rows
            )
        );
    }
    session.finish("fig9");
}
