//! The typed-column scan differential suite with the segment capacity
//! forced to 4: windows span many small segments, so scans constantly cross
//! seal/drop boundaries, late rows land in sealed segments (shifting their
//! live-order scan columns) and recycled spares carry their columns along.
//!
//! Its own test binary on purpose, like `segment_boundary.rs`:
//! [`set_default_segment_capacity`] is process-wide.  Both tests set the
//! same value first, so concurrent test threads are fine.

mod scan_harness;

use mswj::prelude::set_default_segment_capacity;

const TINY_CAPACITY: usize = 4;

#[test]
fn distance_kernel_equals_tuple_at_a_time_scan_at_capacity_4() {
    set_default_segment_capacity(TINY_CAPACITY);
    scan_harness::distance_workloads();
}

#[test]
fn band_kernel_equals_tuple_at_a_time_scan_at_capacity_4() {
    set_default_segment_capacity(TINY_CAPACITY);
    scan_harness::band_workloads();
}
