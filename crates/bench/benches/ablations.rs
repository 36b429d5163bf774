//! Ablation benchmarks for the design choices of the reproduction:
//! EqSel vs NonEqSel selectivity modelling, the basic-window size `b`, the
//! Same-K policy vs fixed configurations, and index-assisted vs nested-loop
//! probing in the join operator.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mswj_bench::{bench_config, bench_d3, run_for_avg_k};
use mswj_core::{BufferPolicy, SelectivityStrategy};
use mswj_experiments::ground_truth;
use mswj_join::{CrossJoin, JoinQuery, MswjOperator};
use mswj_types::{FieldType, Schema, StreamSet, Timestamp, Tuple, Value};
use std::sync::Arc;

fn eqsel_vs_noneqsel(c: &mut Criterion) {
    let d3 = bench_d3();
    let truth = ground_truth(&d3);
    let mut group = c.benchmark_group("ablation_selectivity_strategy");
    for strategy in [SelectivityStrategy::EqSel, SelectivityStrategy::NonEqSel] {
        group.bench_function(format!("{strategy}"), |b| {
            b.iter(|| {
                let config = bench_config(0.95).selectivity_strategy(strategy);
                black_box(run_for_avg_k(
                    &d3,
                    BufferPolicy::QualityDriven(config),
                    &truth,
                ))
            })
        });
    }
    group.finish();
}

fn basic_window_size(c: &mut Criterion) {
    let d3 = bench_d3();
    let truth = ground_truth(&d3);
    let mut group = c.benchmark_group("ablation_basic_window");
    for b_ms in [10u64, 100, 5_000] {
        group.bench_function(format!("b={b_ms}ms"), |b| {
            b.iter(|| {
                let config = bench_config(0.95).basic_window(b_ms);
                black_box(run_for_avg_k(
                    &d3,
                    BufferPolicy::QualityDriven(config),
                    &truth,
                ))
            })
        });
    }
    group.finish();
}

fn probe_strategy(c: &mut Criterion) {
    // Index-assisted counting (equi structure) vs generic nested-loop
    // counting (a cross join forced through the enumeration path).
    let mut group = c.benchmark_group("ablation_probe_strategy");
    group.bench_function("equi_indexed_counting", |b| {
        b.iter(|| {
            let mut op = MswjOperator::new(mswj_datasets::q3_query(2_000));
            let mut acc = 0u64;
            for i in 0..600u64 {
                let t = Tuple::new(
                    ((i % 3) as usize).into(),
                    i,
                    Timestamp::from_millis(i * 10),
                    vec![Value::Int((i % 20) as i64)],
                );
                acc += op.push(t).n_join;
            }
            black_box(acc)
        })
    });
    group.bench_function("nested_loop_counting", |b| {
        let streams =
            StreamSet::homogeneous(3, Schema::new(vec![("a1", FieldType::Int)]), 2_000).unwrap();
        let query = JoinQuery::new("cross", streams, Arc::new(CrossJoin::new(3))).unwrap();
        b.iter(|| {
            let mut op = MswjOperator::new(query.clone());
            let mut acc = 0u64;
            for i in 0..600u64 {
                let t = Tuple::new(
                    ((i % 3) as usize).into(),
                    i,
                    Timestamp::from_millis(i * 10),
                    vec![Value::Int((i % 20) as i64)],
                );
                acc += op.push(t).n_join;
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn same_k_vs_fixed(c: &mut Criterion) {
    // The Same-K policy says one common adaptive K suffices; this ablation
    // contrasts the quality-driven common K with the two fixed extremes.
    let d3 = bench_d3();
    let truth = ground_truth(&d3);
    let mut group = c.benchmark_group("ablation_same_k");
    group.bench_function("quality_driven_common_k", |b| {
        b.iter(|| {
            black_box(run_for_avg_k(
                &d3,
                BufferPolicy::QualityDriven(bench_config(0.95)),
                &truth,
            ))
        })
    });
    group.bench_function("fixed_k_2s", |b| {
        b.iter(|| black_box(run_for_avg_k(&d3, BufferPolicy::FixedK(2_000), &truth)))
    });
    group.bench_function("fixed_k_0", |b| {
        b.iter(|| black_box(run_for_avg_k(&d3, BufferPolicy::NoKSlack, &truth)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = eqsel_vs_noneqsel, basic_window_size, probe_strategy, same_k_vs_fixed
}
criterion_main!(benches);
