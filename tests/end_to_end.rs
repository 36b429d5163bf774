//! Cross-crate integration tests: full pipelines over the paper's workloads
//! at reduced scale, checked against ground truth.

use mswj::prelude::*;

fn run(dataset: &Dataset, policy: BufferPolicy) -> RunReport {
    let mut pipeline = Pipeline::builder()
        .query(dataset.query.clone())
        .policy(policy)
        .build()
        .unwrap();
    for event in dataset.log.iter() {
        pipeline.push(event.clone());
    }
    pipeline.finish()
}

fn d3(duration_secs: u64, seed: u64) -> Dataset {
    SyntheticDataset::generate(
        &SyntheticConfig::three_way().duration_secs(duration_secs),
        seed,
    )
    .into_dataset()
}

fn d2(duration_secs: u64, seed: u64) -> Dataset {
    SoccerDataset::generate(&SoccerConfig::default().duration_secs(duration_secs), seed)
        .into_dataset()
}

#[test]
fn complete_disorder_handling_reproduces_ground_truth() {
    // A fixed K larger than the maximum possible delay sorts every stream
    // perfectly, so the pipeline must produce exactly the true result count.
    let cfg = SyntheticConfig::three_way()
        .duration_secs(30)
        .max_delay(2_000);
    let dataset = SyntheticDataset::generate(&cfg, 17).into_dataset();
    let truth = ground_truth_counts(&dataset.query, &dataset.log);
    let report = run(&dataset, BufferPolicy::FixedK(2_500));
    assert_eq!(
        report.total_produced,
        truth.total(),
        "a buffer covering every delay must recover every result"
    );
}

#[test]
fn no_k_slack_loses_results_on_disordered_input() {
    let dataset = d3(40, 3);
    let truth = ground_truth_counts(&dataset.query, &dataset.log);
    let report = run(&dataset, BufferPolicy::NoKSlack);
    assert!(truth.total() > 0);
    assert!(
        report.total_produced < truth.total(),
        "without intra-stream disorder handling some results must be missed"
    );
}

#[test]
fn quality_driven_meets_requirement_with_smaller_buffers_than_max_k() {
    let dataset = d3(60, 42);
    let truth = ground_truth_counts(&dataset.query, &dataset.log);
    let gamma = 0.9;
    let config = DisorderConfig::with_gamma(gamma).period(20_000);

    let qd = run(&dataset, BufferPolicy::QualityDriven(config));
    let maxk = run(&dataset, BufferPolicy::MaxKSlack);

    let qd_eval = evaluate_recall(&qd, &truth, config.period_p);
    // The shape result of the paper: the quality-driven buffers are no larger
    // than Max-K-slack's, and the recall requirement is (almost always) met.
    assert!(qd.avg_k_ms <= maxk.avg_k_ms + 1.0);
    assert!(!qd_eval.samples.is_empty(), "the run must measure periods");
    assert!(
        qd_eval.fulfilment_pct_relaxed(gamma) >= 90.0,
        "Φ(.99Γ) = {:.1}%",
        qd_eval.fulfilment_pct_relaxed(gamma)
    );
}

#[test]
fn higher_gamma_costs_more_latency() {
    let dataset = d3(60, 5);
    let truth = ground_truth_counts(&dataset.query, &dataset.log);
    let low = run(
        &dataset,
        BufferPolicy::QualityDriven(DisorderConfig::with_gamma(0.9).period(20_000)),
    );
    let high = run(
        &dataset,
        BufferPolicy::QualityDriven(DisorderConfig::with_gamma(0.999).period(20_000)),
    );
    let _ = truth;
    assert!(
        high.avg_k_ms >= low.avg_k_ms,
        "Γ=0.999 ({:.0} ms) should need at least as much buffer as Γ=0.9 ({:.0} ms)",
        high.avg_k_ms,
        low.avg_k_ms
    );
}

#[test]
fn soccer_workload_end_to_end() {
    let dataset = d2(45, 9);
    let truth = ground_truth_counts(&dataset.query, &dataset.log);
    assert!(truth.total() > 0, "Q×2 must find proximity events");
    let config = DisorderConfig::with_gamma(0.95).period(20_000);
    let report = run(&dataset, BufferPolicy::QualityDriven(config));
    let eval = evaluate_recall(&report, &truth, config.period_p);
    assert!(eval.overall_recall > 0.5);
    assert!(!report.checkpoints.is_empty());
}

#[test]
fn four_way_star_join_end_to_end() {
    let cfg = SyntheticConfig::four_way().duration_secs(30);
    let dataset = SyntheticDataset::generate(&cfg, 8).into_dataset();
    let truth = ground_truth_counts(&dataset.query, &dataset.log);
    assert!(truth.total() > 0);
    let report = run(
        &dataset,
        BufferPolicy::QualityDriven(DisorderConfig::with_gamma(0.95).period(15_000)),
    );
    let eval = evaluate_recall(&report, &truth, 15_000);
    assert!(eval.overall_recall > 0.5);
}

#[test]
fn materializing_and_counting_pipelines_agree_exactly() {
    let cfg = SyntheticConfig::three_way()
        .duration_secs(10)
        .max_delay(1_000);
    let dataset = SyntheticDataset::generate(&cfg, 23).into_dataset();
    let counting = run(&dataset, BufferPolicy::MaxKSlack);

    let mut materializing = Pipeline::builder()
        .query(dataset.query.clone())
        .policy(BufferPolicy::MaxKSlack)
        .materialize_results()
        .build()
        .unwrap();
    let mut sink = CollectSink::default();
    for event in dataset.log.iter() {
        materializing.push_into(event.clone(), &mut sink);
    }
    let report = materializing.finish_into(&mut sink);
    assert_eq!(report.total_produced, counting.total_produced);
    // The sink sees *every* result the report counts: results derived while
    // pushing and results derived by the final flush alike.  (The former
    // push-Vec surface silently dropped the flush-derived ones.)
    assert_eq!(sink.results.len() as u64, report.total_produced);
    assert!(sink.results.iter().all(|r| r.arity() == 3));
}

/// Regression test for the `pending_results` drain hazard of the old
/// push-Vec surface: a materializing run whose *last* adaptation shrinks K
/// (releasing buffered tuples, deriving results outside any further push)
/// must still deliver every result to the sink by the time `finish_into`
/// returns.
#[test]
fn k_shrink_at_last_adaptation_still_reports_every_result() {
    let build = || {
        Pipeline::builder()
            .name("shrink-regression")
            .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 500)
            .on_common_key("a1")
            .policy(BufferPolicy::QualityDriven(
                DisorderConfig::with_gamma(0.9)
                    .period(4_000)
                    .interval(500)
                    .granularity(50),
            ))
            .materialize_results()
            .build()
            .unwrap()
    };
    // Phase 1 (0–2 s): every other stream-0 tuple is 400 ms late, so the
    // quality-driven manager grows K.  Phase 2 (2 s+): perfectly ordered
    // input, so the manager eventually shrinks K back down.
    let workload = |until_arrival: u64| {
        let mut events = Vec::new();
        for i in 1..=1_200u64 {
            let t = i * 10;
            if t > until_arrival {
                break;
            }
            let ts0 = if t <= 2_000 && i % 2 == 0 {
                t.saturating_sub(400)
            } else {
                t
            };
            events.push(ArrivalEvent::new(
                Timestamp::from_millis(t),
                Tuple::new(
                    0.into(),
                    i,
                    Timestamp::from_millis(ts0),
                    vec![Value::Int(1)],
                ),
            ));
            events.push(ArrivalEvent::new(
                Timestamp::from_millis(t),
                Tuple::new(1.into(), i, Timestamp::from_millis(t), vec![Value::Int(1)]),
            ));
        }
        events
    };

    // Pass 1: find the first checkpoint that shrinks K.
    let mut probe = build();
    for event in workload(u64::MAX) {
        probe.push(event);
    }
    let full = probe.finish();
    let shrink_at = full
        .checkpoints
        .windows(2)
        .find(|w| w[1].k < w[0].k)
        .map(|w| w[1].at)
        .expect("workload must trigger a K shrink");

    // Pass 2: stop pushing right at the arrival that triggers that shrink,
    // so the shrinking adaptation is the run's last one.
    let mut p = build();
    let mut sink = CollectSink::default();
    for event in workload(shrink_at.as_millis()) {
        p.push_into(event, &mut sink);
    }
    let report = p.finish_into(&mut sink);
    let last = *report.checkpoints.last().expect("checkpoints exist");
    let peak_k = report.checkpoints.iter().map(|c| c.k).max().unwrap();
    assert!(
        last.k < peak_k,
        "last adaptation (K = {}) must be a shrink from the peak {}",
        last.k,
        peak_k
    );
    assert!(report.total_produced > 0);
    assert_eq!(
        sink.results.len() as u64,
        report.total_produced,
        "results released by the final K shrink must reach the sink"
    );
}
