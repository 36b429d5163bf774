//! Fig. 8 — effect of the user-specified result-quality measurement period
//! P ∈ {30, 60, 180, 300} s on the quality-driven approach, for
//! (D×2real, Q×2) and (D×3syn, Q×3) under Γ ∈ {0.95, 0.99}.

use mswj_core::BufferPolicy;
use mswj_experiments::{
    dataset_d2, dataset_d3, ground_truth, paper_default_config, Scale, PERIOD_SWEEP_SECS,
};
use mswj_metrics::{format_table, TableRow};

fn main() {
    let (scale, session) = Scale::from_args();
    println!("Fig. 8 — effect of the measurement period P");
    println!("scale: {:?}\n", scale);

    for dataset in [dataset_d2(scale), dataset_d3(scale)] {
        let truth = ground_truth(&dataset);
        let mut rows = Vec::new();
        for &p_secs in &PERIOD_SWEEP_SECS {
            // Periods longer than the (scaled-down) run would make every
            // measurement fall into the excluded warm-up; clamp them.
            let p_ms = (p_secs * 1_000)
                .min(scale.duration_secs * 1_000 / 2)
                .max(2_000);
            for gamma in [0.95, 0.99] {
                let config = paper_default_config(gamma).period(p_ms);
                let eval = session.run(
                    &dataset,
                    BufferPolicy::QualityDriven(config),
                    config.period_p,
                    &truth,
                );
                rows.push(
                    TableRow::new(format!("P={p_secs}s Γ={gamma}"))
                        .cell("avg K (s)", eval.avg_k_secs())
                        .cell("Φ(Γ) %", eval.recall.fulfilment_pct(gamma))
                        .cell("Φ(.99Γ) %", eval.recall.fulfilment_pct_relaxed(gamma)),
                );
            }
        }
        println!(
            "{}",
            format_table(
                &format!("Fig. 8 — {} / {}", dataset.name, dataset.query.name()),
                &rows
            )
        );
    }
    session.finish("fig8");
}
