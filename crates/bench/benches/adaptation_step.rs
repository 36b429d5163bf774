//! Fig. 11 at micro-benchmark precision: the time of one model-based
//! adaptation step (Alg. 3) as a function of the K-search granularity `g`
//! and the recall requirement `Γ` — plus a history-length axis: the
//! Statistics Manager maintains its delay histograms on admit/evict, so a
//! step over 50 k history samples per stream must cost what one over 5 k
//! does.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use mswj_core::{
    BufferSizeManager, DisorderConfig, ProductivityProfiler, ResultSizeMonitor, StatisticsManager,
};
use mswj_types::Timestamp;

/// Builds statistics resembling the synthetic workloads: three streams with
/// mostly in-order tuples and a heavy tail of delays up to 20 s.
fn build_statistics(granularity: u64, samples: u64) -> StatisticsManager {
    let mut stats = StatisticsManager::new(3, granularity);
    for stream in 0..3usize {
        let mut t = 0u64;
        for i in 0..samples {
            t += 10;
            let delay = if i % 10 == 0 { (i % 2_000) * 10 } else { 0 };
            stats.observe(
                stream.into(),
                Timestamp::from_millis(t.saturating_sub(delay)),
            );
        }
    }
    stats
}

fn build_profiler(granularity: u64) -> ProductivityProfiler {
    let mut profiler = ProductivityProfiler::new(granularity);
    for i in 0..2_000u64 {
        let delay = if i % 10 == 0 { (i % 2_000) * 10 } else { 0 };
        profiler.record_processed(delay, 100, (i % 7) + 1);
    }
    profiler.roll_interval();
    profiler
}

/// Times `adapt` on a session-lived manager, as the pipeline runs it.
fn bench_step(b: &mut criterion::Bencher, g: u64, gamma: f64, samples: u64) {
    let stats = build_statistics(g, samples);
    let profiler = build_profiler(g);
    let config = DisorderConfig::with_gamma(gamma).granularity(g);
    let mut manager = BufferSizeManager::new(config, vec![5_000; 3]);
    let mut monitor = ResultSizeMonitor::new(59_000);
    b.iter(|| {
        let outcome = manager.adapt(
            &stats,
            &profiler,
            &mut monitor,
            Timestamp::from_millis(50_000),
        );
        black_box(outcome.k)
    })
}

fn adaptation_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("adaptation_step");
    for &g in &[1u64, 10, 100, 1_000] {
        for &gamma in &[0.9f64, 0.99, 0.999] {
            group.bench_with_input(
                BenchmarkId::new(format!("g={g}ms"), format!("gamma={gamma}")),
                &gamma,
                |b, _| bench_step(b, g, gamma, 5_000),
            );
        }
    }
    group.finish();

    // History-length axis at the paper's default g = 10 ms, at a Γ whose
    // walk is short enough for a per-sample cost to show.
    let mut group = c.benchmark_group("adaptation_step_history");
    for &samples in &[5_000u64, 50_000] {
        group.bench_with_input(
            BenchmarkId::new("g=10ms/gamma=0.9", format!("samples={samples}")),
            &samples,
            |b, _| bench_step(b, 10, 0.9, samples),
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = adaptation_step
}
criterion_main!(benches);
