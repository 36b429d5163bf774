//! Quickstart: a tiny 2-way equi-join with out-of-order input, declared
//! with the fluent session builder and run once without disorder handling
//! and once with the quality-driven framework, with output events observed
//! through a [`Sink`].
//!
//! Run with `cargo run --example quickstart`.

use mswj::prelude::*;

fn workload() -> Vec<ArrivalEvent> {
    // Two streams, a tuple every 20 ms on each; every 5th tuple of stream 0
    // is delayed by 400 ms (so it arrives out of order).
    let mut events = Vec::new();
    for i in 1..=1_000u64 {
        let t = i * 20;
        let ts0 = if i % 5 == 0 { t.saturating_sub(400) } else { t };
        events.push(ArrivalEvent::new(
            Timestamp::from_millis(t),
            Tuple::new(
                0.into(),
                i,
                Timestamp::from_millis(ts0),
                vec![Value::Int((i % 10) as i64)],
            ),
        ));
        events.push(ArrivalEvent::new(
            Timestamp::from_millis(t),
            Tuple::new(
                1.into(),
                i,
                Timestamp::from_millis(t),
                vec![Value::Int((i % 10) as i64)],
            ),
        ));
    }
    events
}

/// One chain declares the whole session: streams, join condition and
/// buffer-size policy — no `StreamSet`/`Arc<…>`/`JoinQuery` assembly.
fn session(policy: BufferPolicy) -> Pipeline {
    Pipeline::builder()
        .name("quickstart")
        .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 1_000)
        .on_common_key("a1")
        .policy(policy)
        .build()
        .expect("declaration is valid")
}

/// Counting hot path: events are pushed through a `CountingSink`, which
/// tallies checkpoints and buffer-size changes without any allocation.
fn run(policy: BufferPolicy) -> (RunReport, CountingSink) {
    let mut pipeline = session(policy);
    let mut sink = CountingSink::default();
    for event in workload() {
        pipeline.push_into(event, &mut sink);
    }
    (pipeline.finish(), sink)
}

fn main() {
    let log = ArrivalLog::from_events(workload());
    let truth = ground_truth_counts(session(BufferPolicy::NoKSlack).query(), &log);
    println!("true join results: {}", truth.total());

    let (no_handling, _) = run(BufferPolicy::NoKSlack);
    println!(
        "No-K-slack     : produced {:>6} results ({:.1}% of the truth), avg K = {:.0} ms",
        no_handling.total_produced,
        100.0 * no_handling.total_produced as f64 / truth.total() as f64,
        no_handling.avg_k_ms
    );

    let config = DisorderConfig::with_gamma(0.95)
        .period(5_000)
        .interval(1_000);
    let (quality, events) = run(BufferPolicy::QualityDriven(config));
    println!(
        "Quality-driven : produced {:>6} results ({:.1}% of the truth), avg K = {:.0} ms \
         ({} checkpoints, {} K-changes observed via the sink)",
        quality.total_produced,
        100.0 * quality.total_produced as f64 / truth.total() as f64,
        quality.avg_k_ms,
        events.checkpoints,
        events.k_changes,
    );

    let (max_k, _) = run(BufferPolicy::MaxKSlack);
    println!(
        "Max-K-slack    : produced {:>6} results ({:.1}% of the truth), avg K = {:.0} ms",
        max_k.total_produced,
        100.0 * max_k.total_produced as f64 / truth.total() as f64,
        max_k.avg_k_ms
    );
}
