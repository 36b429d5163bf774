//! Demonstrates the framework's support for **arbitrary join conditions**:
//! a user-defined predicate (the difference of two readings must exceed a
//! threshold *and* their sum must be even) is plugged into the same
//! quality-driven pipeline used for the paper's equi-joins — straight from
//! the session builder, with materialized results streamed into a
//! [`CollectSink`].
//!
//! Run with `cargo run --example custom_udf_join`.

use mswj::prelude::*;

fn main() {
    // A join condition no input-synopsis-based estimator could handle: the
    // profiler of the quality-driven framework learns its selectivity from
    // the join output instead (Sec. IV-B of the paper).
    let mut pipeline = Pipeline::builder()
        .name("udf-join")
        .streams(2, Schema::new(vec![("reading", FieldType::Int)]), 2_000)
        .on_predicate("diff>3 && even-sum", |tuples| {
            let a = tuples[0].value(0).and_then(Value::as_int).unwrap_or(0);
            let b = tuples[1].value(0).and_then(Value::as_int).unwrap_or(0);
            (a - b).abs() > 3 && (a + b) % 2 == 0
        })
        .policy(BufferPolicy::QualityDriven(
            DisorderConfig::with_gamma(0.95).period(5_000),
        ))
        .materialize_results()
        .build()
        .expect("declaration is valid");

    // A small out-of-order workload; every result is delivered to the sink
    // the moment it is derived — including results released by a buffer
    // shrink at an adaptation step.
    let mut results = CollectSink::default();
    for i in 1..=600u64 {
        let t = i * 25;
        // Stream 0 is occasionally late by 300 ms.
        let ts0 = if i % 7 == 0 { t.saturating_sub(300) } else { t };
        pipeline.push_into(
            ArrivalEvent::new(
                Timestamp::from_millis(t),
                Tuple::new(
                    0.into(),
                    i,
                    Timestamp::from_millis(ts0),
                    vec![Value::Int((i % 17) as i64)],
                ),
            ),
            &mut results,
        );
        pipeline.push_into(
            ArrivalEvent::new(
                Timestamp::from_millis(t),
                Tuple::new(
                    1.into(),
                    i,
                    Timestamp::from_millis(t),
                    vec![Value::Int((i % 11) as i64)],
                ),
            ),
            &mut results,
        );
    }
    let report = pipeline.finish_into(&mut results);

    println!(
        "materialized {} UDF-join results ({} counted by the report); a few of them:",
        results.results.len(),
        report.total_produced
    );
    for r in results.results.iter().take(5) {
        println!("  {r}");
    }
    println!(
        "pipeline used an average K-slack buffer of {:.0} ms to honour Γ = 0.95",
        report.avg_k_ms
    );
}
