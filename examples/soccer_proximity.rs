//! The paper's motivating real-world scenario: find all moments when two
//! opposing soccer players come within 5 metres of each other, over two
//! out-of-order streams of player positions (query Q×2 on the simulated
//! D×2real dataset).
//!
//! Run with `cargo run --release --example soccer_proximity`.

use mswj::prelude::*;

fn main() {
    // 90 simulated seconds of play at the default sensor rate.
    let config = SoccerConfig::default().duration_secs(90);
    let dataset = SoccerDataset::generate(&config, 2024).into_dataset();
    println!(
        "generated {} position tuples across two team streams",
        dataset.len()
    );

    let truth = ground_truth_counts(&dataset.query, &dataset.log);
    println!("true proximity events (dist < 5 m): {}", truth.total());

    const PERIOD_MS: u64 = 30_000;
    for gamma in [0.9, 0.99] {
        let mut pipeline = Pipeline::builder()
            .query(dataset.query.clone())
            .policy(BufferPolicy::QualityDriven(
                DisorderConfig::with_gamma(gamma)
                    .period(PERIOD_MS)
                    .interval(1_000),
            ))
            .build()
            .unwrap();
        for event in dataset.log.iter() {
            pipeline.push(event.clone());
        }
        let report = pipeline.finish();
        let eval = evaluate_recall(&report, &truth, PERIOD_MS);
        println!(
            "Γ = {gamma:<5} -> avg K = {:6.2} s, recall Φ(Γ) = {:5.1}%, overall recall = {:.3}",
            report.avg_k_secs(),
            eval.fulfilment_pct(gamma),
            eval.overall_recall
        );
    }

    let mut max_k = Pipeline::builder()
        .query(dataset.query.clone())
        .policy(BufferPolicy::MaxKSlack)
        .build()
        .unwrap();
    for event in dataset.log.iter() {
        max_k.push(event.clone());
    }
    let report = max_k.finish();
    println!(
        "Max-K-slack reference -> avg K = {:6.2} s (the latency the paper's approach avoids)",
        report.avg_k_secs()
    );
}
