//! Differential harness for the typed-column scan kernel: 64 randomized
//! distance and band workloads, kernel (`ProbeStrategy::Auto`) against the
//! tuple-at-a-time oracle (`ProbeStrategy::NestedLoop`) at the default
//! segment capacity — see `tests/scan_harness/mod.rs`.  Each suite runs
//! twice: with the kernel's windows at the default capacity, and at
//! capacity 4, where windows span many small segments, so scans constantly
//! cross seal/drop boundaries, late rows land in sealed segments (shifting
//! their live-order scan columns) and recycled spares carry their columns
//! along.

mod scan_harness;

/// `JoinQuery`'s default segment capacity.
const DEFAULT_CAPACITY: usize = 1_024;

/// A capacity at which ordinary workloads seal a tail every four rows.
const TINY_CAPACITY: usize = 4;

#[test]
fn distance_kernel_equals_tuple_at_a_time_scan() {
    scan_harness::distance_workloads(DEFAULT_CAPACITY);
}

#[test]
fn band_kernel_equals_tuple_at_a_time_scan() {
    scan_harness::band_workloads(DEFAULT_CAPACITY);
}

#[test]
fn distance_kernel_equals_tuple_at_a_time_scan_at_capacity_4() {
    scan_harness::distance_workloads(TINY_CAPACITY);
}

#[test]
fn band_kernel_equals_tuple_at_a_time_scan_at_capacity_4() {
    scan_harness::band_workloads(TINY_CAPACITY);
}
