//! Columnar segmented window vs the row-oriented baseline it replaced.
//!
//! Three scenarios, matching the costs the segmentation targets:
//!
//! * **expiry** (stream): a steady stream slides a 10 000-tuple window
//!   forward one tuple at a time — the worst case for segmentation, since
//!   each expiry call retires a single row through the boundary segment
//!   and the drop path never batches anything.
//! * **expiry_drop**: a whole window goes out of scope in one call (a
//!   stream stall, a window shrink, a lagging slow stream).  The row
//!   baseline pays per-tuple bucket maintenance for all 10 000 tuples; the
//!   segmented window forgets each sealed segment in O(distinct keys),
//!   regardless of row count — the amortized-constant segment-drop path.
//! * **scan**: fallback probes (a float key defeats the hash index) over
//!   time-correlated keys, so each sealed segment covers a narrow key
//!   range.  The row baseline walks all 10 000 tuples per probe; the
//!   segmented window consults the zone maps and touches only the
//!   segments whose range contains the probe key's numeric image.
//!
//! * **scan_kernel**: a non-equi probe over a 500-row window — the
//!   `d2_dist_seq` shape — through `MswjOperator::push`, once as the
//!   tuple-at-a-time `matches` walk (`ProbeStrategy::NestedLoop`) and once
//!   as the typed-column kernel (`ProbeStrategy::Auto`), with the window
//!   filled in order, with 5 % late inserts, and fully reversed (`late100`:
//!   every insert late).  Scan columns are kept in live order, so the three
//!   `kernel_*` rows read the same.  Counting mode, except the `_enumerate`
//!   rows (which also build and drop every result, pricing the kernel's
//!   visit pass); each push also pays the operator's fixed costs (expiry
//!   check, own-window append), the same on both sides.  The two `fill_*`
//!   rows time filling the window itself: 500 appends against 500 late
//!   inserts at the front of the live order (the `Vec::insert` path).
//!
//! `RowWindow` below is a faithful miniature of the pre-segmentation
//! storage — `VecDeque<Tuple>` plus `HashMap<i64, VecDeque<Tuple>>` buckets
//! holding *clones* — so the comparison isolates the storage layout.
//!
//! Reference numbers (containerized CI host, release, default sampling):
//!
//! | group       | row baseline | columnar | ratio |
//! |-------------|--------------|----------|-------|
//! | expiry      | 121 µs       | 126 µs   | ~1×   |
//! | expiry_drop | 584 µs       | 171 µs   | 3.4×  |
//! | scan        | 439 µs       | 49 µs    | 8.9×  |
//!
//! (expiry = 1 000 push+expire cycles; expiry_drop = one expiry of all
//! 10 000 tuples, input rebuilt outside the timing; scan = 16 fallback
//! probes.  The stream numbers bounce ±15% run to run on this host —
//! read them as parity: per-tuple maintenance costs the same as the row
//! layout, while drops and scans are several times cheaper.  The scan
//! ratio is layout-dependent: time-correlated keys prune ~62/64 of the
//! candidate rows; uniform keys would prune nothing and tie the
//! baseline.)
//!
//! `scan_kernel`, per 64 probes of 500 rows (fills: per 500 inserts), same
//! host:
//!
//! | row                      | time   |
//! |--------------------------|--------|
//! | walk_inorder             | 332 µs |
//! | walk_late5               | 379 µs |
//! | kernel_inorder           | 21 µs  |
//! | kernel_late5             | 21 µs  |
//! | kernel_late100           | 20 µs  |
//! | kernel_inorder_enumerate | 181 µs |
//! | kernel_late5_enumerate   | 177 µs |
//! | fill_inorder             | 24 µs  |
//! | fill_late100             | 195 µs |
//!
//! (How the window was filled does not show in a scan; it shows in the
//! fill itself, where a reversed feed pays the backwards timestamp search
//! plus one `memmove` per scan column per insert.  The `_enumerate` rows
//! are dominated by building ≈ 45 results per probe.)

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use mswj_datasets::q2_query;
use mswj_join::{MswjOperator, ProbeStrategy, Window};
use mswj_types::{StreamIndex, Timestamp, Tuple, Value};
use std::collections::{HashMap, VecDeque};

const WINDOW_TUPLES: u64 = 10_000;
const WINDOW_MS: u64 = WINDOW_TUPLES; // one tuple per millisecond

/// Faithful miniature of the row-oriented storage this PR replaced: a
/// timestamp-ordered `VecDeque<Tuple>` plus per-key buckets holding full
/// tuple clones, maintained tuple-at-a-time on insert and expiry.
#[derive(Clone)]
struct RowWindow {
    tuples: VecDeque<Tuple>,
    buckets: HashMap<i64, VecDeque<Tuple>>,
}

impl RowWindow {
    fn new() -> Self {
        RowWindow {
            tuples: VecDeque::new(),
            buckets: HashMap::new(),
        }
    }

    fn insert(&mut self, tuple: Tuple) {
        if let Some(Value::Int(k)) = tuple.value(0) {
            self.buckets.entry(*k).or_default().push_back(tuple.clone());
        }
        self.tuples.push_back(tuple); // bench feed is in order
    }

    fn expire_before(&mut self, bound: Timestamp) -> usize {
        let mut n = 0;
        while let Some(front) = self.tuples.front() {
            if front.ts >= bound {
                break;
            }
            let t = self.tuples.pop_front().unwrap();
            if let Some(Value::Int(k)) = t.value(0) {
                if let Some(bucket) = self.buckets.get_mut(k) {
                    bucket.pop_front();
                    if bucket.is_empty() {
                        self.buckets.remove(k);
                    }
                }
            }
            n += 1;
        }
        n
    }

    fn scan_matching(&self, key: &Value) -> usize {
        self.tuples
            .iter()
            .filter(|t| t.value(0).map(|v| v.join_eq(key)).unwrap_or(false))
            .count()
    }
}

fn tuple_at(t: u64) -> Tuple {
    // Time-correlated keys: consecutive tuples carry nearby keys, so each
    // sealed segment covers a narrow key range — the zone maps' best case,
    // and the realistic shape for monotone-ish attributes (ids, counters).
    Tuple::new(
        0.into(),
        t,
        Timestamp::from_millis(t),
        vec![Value::Int((t / 4) as i64)],
    )
}

/// Slides the window forward by `steps` tuples, expiring as it goes.
fn slide_columnar(w: &mut Window, from: u64, steps: u64) -> usize {
    let mut expired = 0;
    for t in from..from + steps {
        w.insert(tuple_at(t));
        expired += w.expire_before(Timestamp::from_millis(t.saturating_sub(WINDOW_MS)));
    }
    expired
}

fn slide_row(w: &mut RowWindow, from: u64, steps: u64) -> usize {
    let mut expired = 0;
    for t in from..from + steps {
        w.insert(tuple_at(t));
        expired += w.expire_before(Timestamp::from_millis(t.saturating_sub(WINDOW_MS)));
    }
    expired
}

fn expiry_heavy(c: &mut Criterion) {
    const STEPS: u64 = 1_000;
    let mut group = c.benchmark_group("columnar_window/expiry");

    let mut row = RowWindow::new();
    let mut columnar = Window::with_indexed_columns(WINDOW_MS, &[0]);
    // Pre-fill to steady state: every measured push expires one tuple.
    let mut clock = WINDOW_TUPLES;
    slide_row(&mut row, 0, WINDOW_TUPLES);
    slide_columnar(&mut columnar, 0, WINDOW_TUPLES);

    group.bench_function("row", |b| {
        b.iter(|| {
            let expired = slide_row(&mut row, clock, STEPS);
            clock += STEPS;
            black_box(expired)
        })
    });
    group.bench_function("columnar", |b| {
        b.iter(|| {
            let expired = slide_columnar(&mut columnar, clock, STEPS);
            clock += STEPS;
            black_box(expired)
        })
    });
    group.finish();
}

fn expiry_drop(c: &mut Criterion) {
    // Pure expiry of a whole out-of-scope window in one call — what a
    // stream stall, a window shrink or a lagging slow stream does.  The
    // row baseline pays per-tuple bucket maintenance for all 10 000
    // tuples; the segmented window drops ten sealed segments, each
    // forgotten in O(distinct keys) regardless of how many rows carried
    // them — the amortized-constant segment-drop path.  Setup (rebuilding
    // the full window by clone) is excluded from the measurement.
    let mut group = c.benchmark_group("columnar_window/expiry_drop");

    let mut row = RowWindow::new();
    let mut columnar = Window::with_indexed_columns(WINDOW_MS, &[0]);
    slide_row(&mut row, 0, WINDOW_TUPLES);
    slide_columnar(&mut columnar, 0, WINDOW_TUPLES);
    let horizon = Timestamp::from_millis(2 * WINDOW_TUPLES);

    group.bench_function("row", |b| {
        b.iter_batched(
            || row.clone(),
            |mut w| {
                black_box(w.expire_before(horizon));
                w
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("columnar", |b| {
        b.iter_batched(
            || columnar.clone(),
            |mut w| {
                black_box(w.expire_before(horizon));
                w
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn scan_heavy(c: &mut Criterion) {
    const PROBES: u64 = 16;
    let mut group = c.benchmark_group("columnar_window/scan");

    let mut row = RowWindow::new();
    let mut columnar = Window::with_indexed_columns(WINDOW_MS, &[0]);
    slide_row(&mut row, 0, WINDOW_TUPLES);
    slide_columnar(&mut columnar, 0, WINDOW_TUPLES);

    // Float probe keys: joinable numerically but not answerable from the
    // i64 buckets — exactly the fallback-scan case.
    let probe_keys: Vec<Value> = (0..PROBES)
        .map(|i| Value::Float(((i * 149) % (WINDOW_TUPLES / 4)) as f64))
        .collect();

    group.bench_function("row", |b| {
        b.iter(|| {
            let mut matches = 0usize;
            for key in &probe_keys {
                matches += row.scan_matching(key);
            }
            black_box(matches)
        })
    });
    group.bench_function("columnar", |b| {
        b.iter(|| {
            let mut matches = 0usize;
            for key in &probe_keys {
                matches += columnar
                    .scan_candidates(0, key)
                    .filter(|t| t.value(0).map(|v| v.join_eq(key)).unwrap_or(false))
                    .count();
            }
            black_box(matches)
        })
    });
    group.finish();
}

fn scan_kernel(c: &mut Criterion) {
    const ROWS: u64 = 500;
    const PROBES: u64 = 64;
    let position = |stream: usize, seq: u64, ts: u64| {
        // A slow drift across the pitch: roughly a tenth of the window lies
        // within the 5 m threshold of any probe.
        let along = (seq % 100) as f64;
        let values = vec![
            Value::Int(seq as i64),
            Value::Float(along),
            Value::Float(along * 0.5),
        ];
        Tuple::new(stream.into(), seq, Timestamp::from_millis(ts), values)
    };
    // The window's rows in feed order: ascending timestamps; one row in
    // twenty 75 ms late; or fully reversed, so that every insert is late and
    // shifts the whole live scan column.
    let fill_rows = |fill: &str| -> Vec<Tuple> {
        (0..ROWS)
            .map(|i| {
                let ts = match fill {
                    "inorder" => 10 * i + 100,
                    "late5" => 10 * i + 100 - if i % 20 == 19 { 75 } else { 0 },
                    _ => 10 * (ROWS - 1 - i) + 100,
                };
                position(1, i, ts)
            })
            .collect()
    };
    let operator = |strategy, enumerate| {
        MswjOperator::with_probe(q2_query(10 * ROWS, 5.0), strategy, enumerate)
    };
    let mut group = c.benchmark_group("columnar_window/scan_kernel");
    for (path, strategy, enumerate, fills) in [
        (
            "walk",
            ProbeStrategy::NestedLoop,
            false,
            &["inorder", "late5"][..],
        ),
        (
            "kernel",
            ProbeStrategy::Auto,
            false,
            &["inorder", "late5", "late100"],
        ),
        ("kernel", ProbeStrategy::Auto, true, &["inorder", "late5"]),
    ] {
        for fill in fills {
            let suffix = if enumerate { "_enumerate" } else { "" };
            group.bench_function(format!("{path}_{fill}{suffix}"), |b| {
                let mut op = operator(strategy, enumerate);
                for row in fill_rows(fill) {
                    op.adopt(row);
                }
                let mut seq = 0u64;
                b.iter(|| {
                    let mut hits = 0u64;
                    for _ in 0..PROBES {
                        seq += 1;
                        // Every probe arrives at the window's newest instant:
                        // nothing expires, all 500 rows are scanned.  (An
                        // enumerating operator also builds and drops every
                        // result.)
                        hits += op.push(position(0, seq, 10 * ROWS + 100)).n_join;
                    }
                    // Shed the probes' own-window inserts (amortised, and the
                    // same on both paths) so the operator stays at its size.
                    op.evict_where(StreamIndex(0), |_| false);
                    black_box(hits)
                })
            });
        }
    }
    // What filling the window costs: 500 appends against 500 late inserts at
    // the front of the live order (operator construction and buffer growth
    // included, the same on both rows).
    for fill in ["inorder", "late100"] {
        group.bench_function(format!("fill_{fill}"), |b| {
            b.iter_batched(
                || fill_rows(fill),
                |rows| {
                    let mut op = operator(ProbeStrategy::Auto, false);
                    for row in rows {
                        op.adopt(row);
                    }
                    op
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, expiry_heavy, expiry_drop, scan_heavy, scan_kernel);
criterion_main!(benches);
