//! Pins how fast a long-running session's memory grows: once its windows,
//! buffers and statistics histories have reached their steady-state size,
//! the only state left that grows with the stream is the result series
//! behind `RunReport::produced` — a few bytes per result-producing tuple.
//! A second case pins that steady-state size for the statistics histories:
//! a few bytes per retained delay sample.
//!
//! A counting global allocator keeps a per-thread live-byte balance (bytes
//! allocated minus bytes freed, by requested size, as `tests/zero_alloc.rs`
//! does), so the harness's own threads do not disturb the measurement.

use mswj::core::StatisticsManager;
use mswj::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};

struct CountingAllocator;

thread_local! {
    /// Bytes this thread allocated minus bytes it freed, by requested size.
    static THREAD_LIVE_BYTES: std::cell::Cell<i64> = const { std::cell::Cell::new(0) };
}

fn count_bytes(delta: i64) {
    let _ = THREAD_LIVE_BYTES.try_with(|c| c.set(c.get() + delta));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_bytes(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_bytes(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn thread_live_bytes() -> i64 {
    THREAD_LIVE_BYTES.with(|c| c.get())
}

/// The `t`-th arrival: streams alternate, one tuple per millisecond, all on
/// key 1 and in order, so every tuple after the first joins the ~50 tuples
/// of the other stream's 100 ms window.  Built just before its push, as a
/// caller reading from a socket would, so a payload counts while the
/// session holds it.
fn arrival(t: u64) -> ArrivalEvent {
    let ts = Timestamp::from_millis(t);
    let stream = (t % 2) as usize;
    ArrivalEvent::new(ts, Tuple::new(stream.into(), t, ts, vec![Value::Int(1)]))
}

/// Growth allowed per result-producing tuple.  The series needs about 2 B
/// for one here (a one-byte timestamp delta and a one-byte count); a
/// `Vec<(Timestamp, u64)>` series takes 16 B plus up to as much again of
/// doubling slack.
const BUDGET_BYTES_PER_RESULT_TUPLE: f64 = 8.0;

#[test]
fn stationary_session_grows_by_its_result_series_only() {
    // Past the warm-up every stream has more than the 50 000 samples its
    // statistics history is capped at, so the histories are saturated.
    const N: u64 = 120_000;
    let mut pipeline = Pipeline::builder()
        .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 100)
        .on_common_key("a1")
        .policy(BufferPolicy::NoKSlack)
        .build()
        .unwrap();

    for t in 1..=N {
        pipeline.push(arrival(t));
    }
    let at_n = thread_live_bytes();
    for t in N + 1..=4 * N {
        pipeline.push(arrival(t));
    }
    let at_4n = thread_live_bytes();

    let report = pipeline.finish();
    let result_tuples = report
        .produced
        .iter()
        .filter(|&&(ts, _)| ts > Timestamp::from_millis(N))
        .count();
    assert_eq!(result_tuples as u64, 3 * N, "every measured tuple joins");
    let per_tuple = (at_4n - at_n) as f64 / result_tuples as f64;
    eprintln!(
        "live bytes {at_n} -> {at_4n} over {result_tuples} result-producing tuples: \
         {per_tuple:.2} B each"
    );
    assert!(
        per_tuple <= BUDGET_BYTES_PER_RESULT_TUPLE,
        "session grew {per_tuple:.2} B per result-producing tuple \
         (budget {BUDGET_BYTES_PER_RESULT_TUPLE} B)"
    );
}

/// Bytes a saturated statistics history may hold per retained sample.  A
/// sample is two `u16` lanes, 4 B; the ADWIN buckets, the delay histogram
/// and the skew tracker add little at the cap.  Samples of 8 or 24 B fail
/// it.
const BUDGET_BYTES_PER_HISTORY_SAMPLE: f64 = 4.2;

#[test]
fn saturated_statistics_history_holds_four_bytes_a_sample() {
    /// `MAX_HISTORY` in `crates/core/src/statistics.rs`.
    const HISTORY_CAP: usize = 50_000;
    let before = thread_live_bytes();
    let mut stats = StatisticsManager::new(2, 10);
    // Both streams in step, every fifth tuple 20 ms late: a stationary
    // pattern ADWIN does not cut, with narrow delays and K_sync.
    for n in 1..=(HISTORY_CAP as u64 + 10_000) {
        for stream in 0..2 {
            let late = if n % 5 == 0 { 30 } else { 0 };
            let ts = Timestamp::from_millis(1_000_000 + 10 * n - late);
            stats.observe(StreamIndex(stream), ts);
        }
    }
    let held = thread_live_bytes() - before;
    let retained: usize = (0..2).map(|i| stats.history_len(StreamIndex(i))).sum();
    assert_eq!(retained, 2 * HISTORY_CAP, "both histories saturated");
    let per_sample = held as f64 / retained as f64;
    eprintln!("statistics manager holds {held} B for {retained} samples: {per_sample:.2} B each");
    assert!(
        per_sample <= BUDGET_BYTES_PER_HISTORY_SAMPLE,
        "statistics history holds {per_sample:.2} B per retained sample \
         (budget {BUDGET_BYTES_PER_HISTORY_SAMPLE} B)"
    );
}
