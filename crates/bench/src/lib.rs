//! # mswj-bench — shared fixtures for the Criterion benchmarks
//!
//! The benches regenerate the paper's tables and figures at a reduced,
//! bench-friendly scale (seconds of simulated time instead of tens of
//! minutes) and additionally micro-benchmark the framework's components
//! (K-slack, Synchronizer, recall model, adaptation step).  This module
//! centralises the workload fixtures so every bench file uses identical
//! inputs.

use mswj_core::{BufferPolicy, DisorderConfig};
use mswj_datasets::Dataset;
use mswj_experiments::{dataset_d2, dataset_d3, dataset_d4, Scale};
use mswj_metrics::CountSeries;

/// The scale used by every benchmark workload (kept small so that a full
/// `cargo bench` run finishes in minutes).
pub fn bench_scale() -> Scale {
    Scale {
        duration_secs: 20,
        seed: 42,
    }
}

/// A bench-scale D×2real (simulated soccer) workload.
pub fn bench_d2() -> Dataset {
    dataset_d2(bench_scale())
}

/// A bench-scale D×3syn workload.
pub fn bench_d3() -> Dataset {
    dataset_d3(bench_scale())
}

/// A bench-scale D×4syn workload.
pub fn bench_d4() -> Dataset {
    dataset_d4(bench_scale())
}

/// A disorder-handling configuration suitable for the bench scale
/// (P = 10 s so that recall measurements exist within 20 s of data).
pub fn bench_config(gamma: f64) -> DisorderConfig {
    DisorderConfig::with_gamma(gamma).period(10_000)
}

/// Runs `policy` over `dataset` (bench-scale period) and returns the average
/// K in seconds — a cheap scalar to keep Criterion from optimising the run
/// away.
pub fn run_for_avg_k(dataset: &Dataset, policy: BufferPolicy, truth: &CountSeries) -> f64 {
    let eval = mswj_experiments::Session::default().run(dataset, policy, 10_000, truth);
    eval.avg_k_secs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_generated() {
        assert_eq!(bench_scale().duration_secs, 20);
        assert!(!bench_d3().is_empty());
        assert!(bench_config(0.9).validate().is_ok());
    }
}
