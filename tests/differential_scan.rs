//! Differential harness for the typed-column scan kernel, at the default
//! segment capacity: 64 randomized distance and band workloads, kernel
//! (`ProbeStrategy::Auto`) against the tuple-at-a-time oracle
//! (`ProbeStrategy::NestedLoop`) — see `tests/scan_harness/mod.rs`.

mod scan_harness;

#[test]
fn distance_kernel_equals_tuple_at_a_time_scan() {
    scan_harness::distance_workloads();
}

#[test]
fn band_kernel_equals_tuple_at_a_time_scan() {
    scan_harness::band_workloads();
}
