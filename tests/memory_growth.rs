//! Pins how fast a long-running session's memory grows: once its windows,
//! buffers and statistics histories have reached their steady-state size,
//! the only state left that grows with the stream is the result series
//! behind `RunReport::produced` — a few bytes per result-producing tuple.
//! A second case pins that steady-state size for the statistics histories:
//! a few bytes per retained delay sample.  A third pins what end of stream
//! costs on top: the buffered tuples are staged for the join stage once,
//! not copied through intermediate vectors, and the windows' arenas stay
//! at their live size.
//!
//! A counting global allocator keeps a per-thread live-byte balance (bytes
//! allocated minus bytes freed, by requested size, as `tests/zero_alloc.rs`
//! does) and its high-water mark, so the harness's own threads do not
//! disturb the measurement.

use mswj::core::StatisticsManager;
use mswj::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};

struct CountingAllocator;

thread_local! {
    /// Bytes this thread allocated minus bytes it freed, by requested size.
    static THREAD_LIVE_BYTES: std::cell::Cell<i64> = const { std::cell::Cell::new(0) };
    /// The largest `THREAD_LIVE_BYTES` since the last `reset_thread_peak`.
    static THREAD_PEAK_BYTES: std::cell::Cell<i64> = const { std::cell::Cell::new(0) };
}

fn count_bytes(delta: i64) {
    let _ = THREAD_LIVE_BYTES.try_with(|c| {
        let live = c.get() + delta;
        c.set(live);
        let _ = THREAD_PEAK_BYTES.try_with(|p| p.set(p.get().max(live)));
    });
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

/// Restarts the high-water mark at the current balance, which it returns.
fn reset_thread_peak() -> i64 {
    let live = thread_live_bytes();
    THREAD_PEAK_BYTES.with(|p| p.set(live));
    live
}

fn thread_peak_bytes() -> i64 {
    THREAD_PEAK_BYTES.with(|p| p.get())
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

/// What `finish_into` may add to the peak beyond the one `staged` batch,
/// however many tuples were buffered.  21 864 B measured at N = 8 192: two
/// 64-row segment arenas of 56-B slots per stream (14 KiB: a tail seals at
/// the window's live size, 64 rows at the least), the result-size
/// monitor's first 4 KiB, the result series' first two chunks (256 B and
/// 512 B: no tuple produced a result before the flush) and ~2 KiB of small
/// buffers.  A series opening with a 64 KiB chunk read 86 632 B here (then
/// budget 96 KiB), and a tail sealing only at 1 024 rows 347 KB.
const END_OF_STREAM_SLACK_BYTES: i64 = 32 * 1024;

#[test]
fn end_of_stream_stages_each_buffered_tuple_once() {
    // A power of two, so the engine's `staged` batch grows by doubling to
    // exactly N slots.
    const N: u64 = 8_192;
    let mut pipeline = Pipeline::builder()
        .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 100)
        .on_common_key("a1")
        .policy(BufferPolicy::FixedK(3_600_000))
        .build()
        .unwrap();
    // K exceeds the stream's span: every tuple is still buffered in its
    // K-slack component when the stream ends.
    for t in 1..=N {
        pipeline.push(arrival(t));
    }
    let before = reset_thread_peak();
    let report = pipeline.finish();
    let rise = thread_peak_bytes() - before;
    assert_eq!(
        report.operator_stats.in_order, N,
        "the flush ran every tuple"
    );
    let batch = N as i64 * std::mem::size_of::<Tuple>() as i64;
    eprintln!("finish raised the peak by {rise} B; one staged batch is {batch} B");
    assert!(
        rise <= batch + END_OF_STREAM_SLACK_BYTES,
        "finish raised the peak by {rise} B for {N} buffered tuples \
         (budget {batch} + {END_OF_STREAM_SLACK_BYTES} B)"
    );
}
