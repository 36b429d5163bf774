//! Workspace smoke test: every member crate's top-level API must be
//! reachable through `mswj::prelude` (or the facade's module aliases) and
//! minimally functional. This is the cheap end-to-end guard CI runs on
//! every push; deeper behaviour is covered by the per-crate unit tests and
//! the other integration tests.

use mswj::prelude::*;
use std::sync::Arc;

fn tiny_query() -> JoinQuery {
    let streams =
        StreamSet::homogeneous(2, Schema::new(vec![("a1", FieldType::Int)]), 1_000).unwrap();
    let condition = Arc::new(CommonKeyEquiJoin::new(&streams, "a1").unwrap());
    JoinQuery::new("smoke", streams, condition).unwrap()
}

#[test]
fn types_substrate_is_reachable() {
    let ts = Timestamp::from_millis(42);
    assert_eq!(ts.as_millis(), 42);
    let tuple = Tuple::new(StreamIndex(0), 1, ts, vec![Value::Int(7)]);
    assert_eq!(tuple.ts, ts);
    let event = ArrivalEvent::new(ts, tuple);
    let log = ArrivalLog::from_events(vec![event]);
    assert_eq!(log.len(), 1);
}

#[test]
fn join_operator_is_reachable() {
    let mut op = MswjOperator::new(tiny_query());
    let t0 = Tuple::new(0.into(), 1, Timestamp::from_millis(10), vec![Value::Int(1)]);
    let t1 = Tuple::new(1.into(), 1, Timestamp::from_millis(20), vec![Value::Int(1)]);
    op.push(t0);
    let outcome = op.push(t1);
    assert_eq!(
        outcome.n_join, 1,
        "matching keys inside the window must join"
    );
}

#[test]
fn adwin_detector_is_reachable() {
    let mut adwin = Adwin::default_detector();
    for _ in 0..256 {
        adwin.insert(0.0);
    }
    assert!(!adwin.is_empty());
    // A drastic mean shift must eventually shrink the window.
    let mut changed = false;
    for _ in 0..512 {
        changed |= adwin.insert(100.0);
    }
    assert!(changed, "ADWIN missed an obvious change");
}

#[test]
fn core_pipeline_is_reachable() {
    let config = DisorderConfig::with_gamma(0.95).period(2_000).interval(500);
    let mut pipeline = Pipeline::builder()
        .query(tiny_query())
        .policy(BufferPolicy::QualityDriven(config))
        .build()
        .unwrap();
    for i in 1..=200u64 {
        let ts = Timestamp::from_millis(i * 10);
        pipeline.push(ArrivalEvent::new(
            ts,
            Tuple::new(0.into(), i, ts, vec![Value::Int(1)]),
        ));
        pipeline.push(ArrivalEvent::new(
            ts,
            Tuple::new(1.into(), i, ts, vec![Value::Int(1)]),
        ));
    }
    let report: RunReport = pipeline.finish();
    assert!(report.total_produced > 0);

    // The standalone building blocks are exported too.
    let mut ks = KSlack::new(100);
    let mut released = Vec::new();
    ks.push_into(
        Tuple::marker(0.into(), 0, Timestamp::from_millis(5)),
        &mut released,
    );
    assert!(released.is_empty());
    let _sync = Synchronizer::new(2);
}

#[test]
fn session_builder_and_sinks_are_reachable() {
    let mut pipeline = Pipeline::builder()
        .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 1_000)
        .on_common_key("a1")
        .policy(BufferPolicy::QualityDriven(
            DisorderConfig::with_gamma(0.95).period(2_000).interval(500),
        ))
        .materialize_results()
        .build()
        .unwrap();
    let mut collected = CollectSink::default();
    for i in 1..=300u64 {
        let ts = Timestamp::from_millis(i * 10);
        let ev = ArrivalEvent::new(
            ts,
            Tuple::new(((i % 2) as usize).into(), i, ts, vec![Value::Int(1)]),
        );
        pipeline.push_into(ev, &mut collected);
    }
    let report = pipeline.finish_into(&mut collected);
    assert!(report.total_produced > 0);
    assert_eq!(collected.results.len() as u64, report.total_produced);
    assert!(!collected.checkpoints.is_empty());

    // The closure adapter is part of the facade surface too.
    let mut seen = 0u32;
    {
        let mut tee = sink_fn(|ev: OutputEvent<'_>| {
            if matches!(ev, OutputEvent::Progress(_)) {
                seen += 1;
            }
        });
        tee.event(OutputEvent::Progress(Timestamp::from_millis(1)));
    }
    assert_eq!(seen, 1);
}

#[test]
fn datasets_generators_are_reachable() {
    let cfg = SyntheticConfig::three_way().duration_secs(2);
    let dataset = SyntheticDataset::generate(&cfg, 7).into_dataset();
    assert_eq!(dataset.query.arity(), 3);
    assert!(!dataset.is_empty());
}

#[test]
fn metrics_are_reachable() {
    let cfg = SyntheticConfig::three_way().duration_secs(2);
    let dataset = SyntheticDataset::generate(&cfg, 7).into_dataset();
    let truth: CountSeries = ground_truth_counts(&dataset.query, &dataset.log);
    assert!(truth.total() > 0);

    let mut pipeline = Pipeline::builder()
        .query(dataset.query.clone())
        .policy(BufferPolicy::MaxKSlack)
        .build()
        .unwrap();
    for event in dataset.log.iter() {
        pipeline.push(event.clone());
    }
    let report = pipeline.finish();
    let eval: RecallEvaluation = evaluate_recall(&report, &truth, 1_000);
    assert!(eval.overall_recall > 0.0 && eval.overall_recall <= 1.0);
}

#[test]
fn facade_module_aliases_match_member_crates() {
    // The facade also exposes whole crates as modules for items the prelude
    // deliberately leaves out.
    let _zipf = mswj::datasets::Zipf::new(10, 1.0);
    let _table = mswj::metrics::format_table("t", &[]);
    let delta = mswj::adwin::DEFAULT_DELTA;
    let _detector_with_default = mswj::adwin::Adwin::new(delta);
    let _e: mswj::types::Error = mswj::types::Error::InvalidConfig("smoke".into());
    let _cross = mswj::join::CrossJoin::new(2);
    let _policy = mswj::core::BufferPolicy::NoKSlack;
}
