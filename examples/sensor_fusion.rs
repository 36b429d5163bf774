//! A 3-way sensor-fusion scenario (the D×3syn / Q×3 workload): three sensor
//! streams are correlated on a shared reading identifier within 5-second
//! windows, while each stream suffers bursty network delays.
//!
//! The example sweeps the user recall requirement Γ and shows the
//! latency/quality trade-off the paper's Fig. 7 reports.
//!
//! Run with `cargo run --release --example sensor_fusion`.

use mswj::prelude::*;

fn main() {
    let cfg = SyntheticConfig::three_way().duration_secs(90);
    let dataset = SyntheticDataset::generate(&cfg, 7).into_dataset();
    println!("generated {} tuples across 3 streams", dataset.len());

    let truth = ground_truth_counts(&dataset.query, &dataset.log);
    println!("true join results: {}", truth.total());

    const PERIOD_MS: u64 = 30_000;
    println!("\n  Γ        avg K (s)   Φ(Γ) %    overall recall");
    for gamma in [0.9, 0.95, 0.99, 0.999] {
        let mut pipeline = Pipeline::builder()
            .query(dataset.query.clone())
            .policy(BufferPolicy::QualityDriven(
                DisorderConfig::with_gamma(gamma).period(PERIOD_MS),
            ))
            .build()
            .unwrap();
        for event in dataset.log.iter() {
            pipeline.push(event.clone());
        }
        let report = pipeline.finish();
        let eval = evaluate_recall(&report, &truth, PERIOD_MS);
        println!(
            "  {gamma:<7}  {:>9.2}   {:>6.1}    {:.4}",
            report.avg_k_secs(),
            eval.fulfilment_pct(gamma),
            eval.overall_recall
        );
    }

    // Baselines for reference.
    for policy in [BufferPolicy::NoKSlack, BufferPolicy::MaxKSlack] {
        let name = policy.name();
        let mut pipeline = Pipeline::builder()
            .query(dataset.query.clone())
            .policy(policy)
            .build()
            .unwrap();
        for event in dataset.log.iter() {
            pipeline.push(event.clone());
        }
        let report = pipeline.finish();
        let eval = evaluate_recall(&report, &truth, PERIOD_MS);
        println!(
            "  {name:<12} avg K = {:>6.2} s, overall recall = {:.4}",
            report.avg_k_secs(),
            eval.overall_recall
        );
    }
}
