//! Time-based sliding windows over one input stream, stored as
//! timestamp-ordered columnar segments.
//!
//! Each input stream `S_i` of an MSWJ carries a user-specified, time-based
//! sliding window of `W_i` milliseconds (Sec. II-A).  The window holds the
//! tuples whose timestamps are still within scope, supports expiration
//! driven by the timestamp of a newly processed tuple (Alg. 2, line 6) and
//! maintains, per indexed column, **one hash index** of the kind its
//! readers need.
//!
//! ## One index kind per window
//!
//! A window's indexed columns carry exactly one kind of hash index, fixed
//! when the window is built (`IndexKind`):
//!
//! * **Counts** — one window-level map `key → live count` per column.
//!   [`Window::count_key`] is one lookup, and there is no bucket to walk.
//!   The operator gives this kind to every window its plan only counts.
//! * **Postings** — per segment, `key → live row ids` in timestamp order:
//!   buckets an enumerating probe or a star root walk can iterate.
//!   `count_key` sums the per-segment posting lengths.  The public
//!   constructors build this kind.
//!
//! Either way an insert touches one map per indexed column and an expired
//! row at most one.  A counts window answers [`Window::matching`] with the
//! filtered scan; the crate-internal bucket walks are never asked of it.
//!
//! ## Segmented storage
//!
//! Live state is a deque of `Segment`s covering disjoint, ascending
//! timestamp ranges.  A segment owns a row arena (`rows`), the
//! timestamp-ordered ids of its live rows (`order`), — per indexed
//! column — a live count of the values a hash bucket cannot represent
//! plus, on a postings window, a posting map (`key → live row ids`), and —
//! per *scan column* — a `Vec<f64>` in live order (see *Scan columns and
//! scan soundness* below).  The back segment is the mutable *tail*: it
//! absorbs in-order appends and slightly-late out-of-order inserts.  Older
//! segments only ever *lose* rows.
//!
//! *When the tail seals.*  Expiry pops a row's id off `order` but leaves
//! the row itself — its arena slot, its payload and its scan-column
//! entries — until the whole segment drops, so the tail decides how many
//! expired rows a window pins.  An in-order row starts a new tail once the
//! current one has expired a row and holds at least as many rows as the
//! window holds live (64 at the least), or once it reaches the segment
//! *capacity*.  A sliding window therefore holds at most about twice its
//! live rows: 201 for the 101 of a 100 ms window fed once a millisecond.
//! A window that has expired nothing from its tail seals only at the
//! capacity.  The capacity is an upper bound fixed when the window is
//! built: 1 024 rows, unless the query sets another
//! ([`JoinQuery::with_segment_capacity`](crate::JoinQuery::with_segment_capacity)),
//! which reaches every shard's operator with the query.  Neither rule
//! reads anything but the window, so every backend seals alike, and both
//! shape the layout only: any two capacities hold the same content.
//!
//! The layout buys two things:
//!
//! * **Segment-drop expiry.**  `expire_before` drops whole leading segments
//!   whose maximum live timestamp is out of scope — a postings window's
//!   postings leave with the segment, a counts window takes each live
//!   row's keys off its tallies — and walks rows only in the single
//!   boundary segment, where the posting fronts align with the expiry
//!   order and pop in O(1).  Dropped segments park their buffers in a
//!   one-slot spare so steady-state seal/drop cycles do not allocate.
//! * **Single-copy state.**  Postings hold row ids, not tuple clones, so
//!   indexed window state exists exactly once ([`Tuple::payload_refs`]
//!   observes this).
//!
//! ## Index soundness
//!
//! Both index kinds are keyed by `i64`, so only [`Value::Int`] attributes
//! are hashable.  [`Value::join_eq`] additionally equates integers with floats
//! numerically (`Int(4) == Float(4.0)`), which a hash lookup cannot see —
//! so every index tracks, per column, the number of live tuples whose value
//! there is a float, string or boolean ([`Window::unindexable_count`]).
//! The probe planner consults [`Window::index_usable`] and falls back to
//! the exhaustive scan whenever that count is non-zero.  `Null` and missing
//! values never satisfy `join_eq` at all; they are simply left out of the
//! postings without compromising soundness.
//!
//! ## Scan columns and scan soundness
//!
//! What is columnar here is the *metadata* — row ids and postings — and,
//! for conditions that expose a
//! [`ScanStructure`](crate::condition::ScanStructure), the few columns the
//! predicate reads.  The tuples themselves still live in a row arena
//! (`Vec<Tuple>`, each payload one `Arc<[Value]>` allocation): a generic
//! `matches` walk chases one pointer and one enum tag per candidate.  A *scan column*
//! removes that from non-equi probes: per segment, one `Vec<f64>` holding
//! each live row's [`Value::as_float`] image of that column, with **NaN as
//! the sentinel** for values that have no image (`Null`, missing, string,
//! boolean).  The scan entry point evaluates the distance or band
//! predicate straight over those arrays and touches a `Tuple` only to hand
//! out a match.
//!
//! *Live order, always contiguous.*  A scan column is parallel to `order`
//! positions, not to arena row ids: with `base = rows.len() - order.len()`,
//! entry `base + p` is the image of `rows[order[p]]`, so every segment —
//! sealed or tail, with or without late rows — scans as the one slice
//! `column[base..]` in timestamp order.  An append pushes, expiry pops
//! `order`'s front and thereby advances `base` for free (the entries before
//! `base` are dead), and a late insert at live position `pos` is a
//! `Vec::insert` at `base + pos`: one `memmove` of the images of the
//! segment's live rows after `pos`, per scan column — the complexity class
//! of the `order.insert` beside it.  A tail seals by about the window's
//! live size (see *When the tail seals*), so that is at most a few KiB for
//! the windows of hundreds of rows the non-equi workloads keep.
//!
//! *The NaN sentinel is sound* because the scan predicates are written so
//! that NaN fails them exactly as a missing image does: `matches` returns
//! `false` when any image is missing, and a NaN operand propagates through
//! `-`, `*`, `+` and `abs` into a final `<` / `<=` that is `false` for NaN.
//! A genuine `Float(NaN)` attribute takes the same route in `matches`
//! itself, so the sentinel cannot be told apart from the one value it
//! collides with.  Everything else is image-for-image the computation
//! `matches` performs — same operands, same IEEE operations — with exactly
//! one rewrite: the distance test `s.sqrt() < t` over `s = dx² + dy²` is
//! evaluated as `s < squared_limit(t)`.  IEEE `sqrt` is correctly rounded,
//! hence monotone, so `{s ≥ 0 : s.sqrt() < t}` is a down-set of the
//! non-negative floats and `squared_limit` — the smallest `f64` whose
//! `sqrt` reaches `t` — is its exact boundary: `s < limit` implies
//! `s.sqrt() < t` by minimality, `s ≥ limit` implies `s.sqrt() ≥
//! limit.sqrt() ≥ t` by monotonicity.  `s` is a sum of squares, so it is
//! never negative; a NaN `s` fails both forms, a NaN threshold has a NaN
//! limit, `t ≤ 0` (`-∞` included) admits nothing and has limit `0`, and
//! `t = +∞` has limit `+∞` (`s = +∞` fails both).  The kernel's verdicts are
//! therefore bit-identical, not merely close.  (The operand order of a
//! difference may be mirrored: `a - b == -(b - a)` exactly, and squaring or
//! `abs` erases the sign.)
//!
//! *One count body, two vector widths.*  The count pass is one generic
//! `#[inline(always)]` body, `count_portable`, called directly as the
//! portable path and from `count_avx2`, a `#[target_feature(enable =
//! "avx2")]` wrapper around it; `count_hits` picks one with a runtime
//! `is_x86_feature_detected!("avx2")` check on x86-64, and the call under
//! that check is the crate's one `unsafe` block.  Only `avx2` is enabled,
//! never `fma`, and Rust never contracts `a * b + c` on its own, so every
//! lane performs the scalar code's IEEE subtract, multiply, add and
//! compare: the verdicts, and the integer count, are the same bits at
//! either width.  The body counts whole 16-row blocks in one loop and the
//! rest by re-testing the last block with the counted rows masked off, so
//! no loop's trip count varies below a block from probe to probe.
//!
//! The `ScanStructure` exactness contract is what makes all of this an
//! access-path choice: the structure must describe `matches` exactly (see
//! [`JoinCondition::scan_structure`](crate::JoinCondition::scan_structure)),
//! and `tests/differential.rs` holds the kernel to the tuple-at-a-time
//! scan byte for byte.

use mswj_types::{Duration, Timestamp, Tuple, Value};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::AtomicUsize;

/// Fibonacci-multiply hasher for the `i64`-keyed index maps.
///
/// Postings and key counts are touched once or twice per tuple on the
/// insert and expiry hot paths; the default SipHash costs more than the
/// rest of the maintenance combined.  Join keys are data, not
/// attacker-chosen hash-flood inputs, so the non-keyed multiply hash is an
/// acceptable trade — the same one interning tables in production query
/// engines make.
#[derive(Default)]
struct KeyHasher {
    hash: u64,
}

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        // Golden-ratio multiply with a pre-rotation so low-entropy high
        // bits still disperse across the table index bits.
        self.hash = (self.hash.rotate_left(5) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_i64(&mut self, n: i64) {
        self.write_u64(n as u64);
    }
}

/// An `i64`-keyed map using [`KeyHasher`].
type KeyMap<V> = HashMap<i64, V, BuildHasherDefault<KeyHasher>>;

/// The most rows a tail segment's arena absorbs before it seals, unless the
/// query sets another capacity ([`JoinQuery::with_segment_capacity`](crate::JoinQuery::with_segment_capacity)).
pub(crate) const DEFAULT_SEGMENT_ROWS: usize = 1024;

/// The fewest rows a tail holding an expired row seals at below the
/// capacity: small windows then still seal every few dozen rows, not every
/// few, so their seal/drop cycles stay rare.
const SEAL_FLOOR_ROWS: usize = 64;

/// The largest segment capacity: a full tail's row ids then use at most
/// half the `u32` id space, leaving the rest to late rows inserted into the
/// segment after it seals.  The smallest is 2: a tail must be able to hold
/// a tuple and still accept a late sibling.
pub(crate) const MAX_SEGMENT_ROWS: usize = 1 << 31;

/// Aggregate statistics about a window's lifetime behaviour, plus a
/// snapshot of its current storage shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Total number of tuples ever inserted.
    pub inserted: u64,
    /// Total number of tuples expired.
    pub expired: u64,
    /// Number of inserts that were not appended at the tail (i.e. the tuple
    /// was out of timestamp order with respect to the window content).
    pub(crate) unordered_inserts: u64,
    /// Largest number of tuples simultaneously held.
    pub peak_len: usize,
    /// Estimated heap bytes of the currently live tuples: each tuple's slot
    /// in its segment's arena plus its payload allocation (`Arc` header and
    /// values) and string buffers, and the live rows' scan-column entries.
    /// Payloads shared with other holders via `Arc` are counted in full.
    /// Expired rows still in an arena until their segment drops are not
    /// counted; the seal rule keeps them to about the live rows' number.
    /// Summed over the live rows when [`Window::stats`] is read, so inserts
    /// and expiry never pay for it.
    pub live_bytes_est: u64,
    /// Number of storage segments currently held.
    pub segments: usize,
    /// Segments no longer accepting in-order appends (all but the tail).
    pub sealed_segments: usize,
}

/// Classification of one attribute value with respect to the hash index.
///
/// The same classification drives both index maintenance (here) and the
/// operator's per-probe soundness gate — they must agree case-for-case for
/// the indexed probe to stay equivalent to the nested-loop scan.
pub(crate) enum KeyClass {
    /// Hashable integer key.
    Key(i64),
    /// `Null` or missing: can never satisfy `join_eq`, safe to omit.
    Inert,
    /// Float / string / bool: joinable but not hashable to an `i64` bucket.
    Unindexable,
}

pub(crate) fn classify(v: Option<&Value>) -> KeyClass {
    match v {
        None | Some(Value::Null) => KeyClass::Inert,
        Some(Value::Int(i)) => KeyClass::Key(*i),
        Some(_) => KeyClass::Unindexable,
    }
}

/// The two reference counts an `Arc` allocation carries ahead of its value.
const ARC_HEADER: usize = 2 * std::mem::size_of::<AtomicUsize>();

/// Heap bytes of one live tuple: its slot in a row arena plus what the
/// allocator handed out for its payload — the `Arc<[Value]>` allocation
/// (header and values) and every string buffer.  Shared payloads are
/// counted in full.
fn estimated_bytes(t: &Tuple) -> u64 {
    let strings: usize = t
        .values()
        .iter()
        .map(|v| match v {
            Value::Str(s) => s.capacity(),
            _ => 0,
        })
        .sum();
    (std::mem::size_of::<Tuple>() + ARC_HEADER + std::mem::size_of_val(t.values()) + strings) as u64
}

/// Which hash index a window keeps on its indexed columns — one kind per
/// window, fixed when it is built (see *One index kind per window* in the
/// module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IndexKind {
    /// Window-level `key → live count`: O(1) counts, no bucket walks.
    Counts,
    /// Per-segment `key → live row ids`: walkable buckets.
    Postings,
}

/// The window-level side of a window's hash index.
#[derive(Debug, Clone)]
struct KeyIndex {
    kind: IndexKind,
    /// Per indexed column, on a `Counts` window (empty on a `Postings`
    /// one): live count per key across all segments, live keys only.
    counts: Vec<KeyMap<u64>>,
    /// Per indexed column: live unindexable count across all segments.
    unindexable: Vec<u64>,
}

/// Takes one live row of `key` off a `Counts` tally, dropping the key at
/// zero so the map holds live keys only.
fn uncount(counts: &mut KeyMap<u64>, key: i64) {
    match counts.entry(key) {
        Entry::Occupied(mut c) if *c.get() > 1 => *c.get_mut() -= 1,
        Entry::Occupied(c) => {
            c.remove();
        }
        Entry::Vacant(_) => debug_assert!(false, "expired key missing from counts"),
    }
}

/// The [`Value::as_float`] image a scan column stores for one attribute,
/// NaN standing in for values without one (`Null`, missing, string,
/// boolean) — see *Scan columns and scan soundness* in the module docs.
pub(crate) fn scan_image(v: Option<&Value>) -> f64 {
    v.and_then(Value::as_float).unwrap_or(f64::NAN)
}

/// A numeric predicate over one window's scan columns with the probing
/// side's images already bound: what [`Window::scan`] evaluates per live
/// row.  Column positions are those of
/// [`planner::scan_columns`](crate::planner::scan_columns).
#[derive(Debug, Clone, Copy)]
pub(crate) enum ScanPredicate {
    /// `(px - x)² + (py - y)² < limit` over scan columns 0 (`x`) and 1
    /// (`y`): the distance test `….sqrt() < threshold`, exactly, when
    /// `limit` is [`squared_limit`]`(threshold)`.
    Distance {
        /// The probing side's x image.
        px: f64,
        /// The probing side's y image.
        py: f64,
        /// Exclusive bound on the squared distance.
        limit: f64,
    },
    /// `(v - center).abs() <= band` over scan column 0.
    Band {
        /// The image every scanned value must lie within `band` of.
        center: f64,
        /// Inclusive band width.
        band: f64,
    },
}

/// The smallest `f64` whose `sqrt` is `>= threshold`, so that for every
/// non-negative or NaN `s`, `s.sqrt() < threshold` exactly when
/// `s < squared_limit(threshold)` — see *Scan columns and scan soundness*
/// in the module docs.  NaN maps to NaN, `threshold <= 0` to `0.0` and
/// `+∞` to `+∞`; otherwise the boundary sits within a few ulps of
/// `threshold * threshold`, where the search starts.
pub(crate) fn squared_limit(threshold: f64) -> f64 {
    if threshold <= 0.0 {
        return 0.0;
    }
    let mut limit = threshold * threshold;
    while limit.sqrt() < threshold {
        limit = limit.next_up();
    }
    while limit.next_down().sqrt() >= threshold {
        limit = limit.next_down();
    }
    limit
}

/// The distance test of [`ScanPredicate::Distance`] on one row's images.
#[inline(always)]
fn distance_test(px: f64, py: f64, limit: f64) -> impl Fn(f64, f64) -> bool {
    move |x, y| {
        let dx = px - x;
        let dy = py - y;
        dx * dx + dy * dy < limit
    }
}

/// The band test of [`ScanPredicate::Band`] on one row's image (the second
/// argument is ignored).
#[inline(always)]
fn band_test(center: f64, band: f64) -> impl Fn(f64, f64) -> bool {
    move |v, _| (v - center).abs() <= band
}

/// Rows per block of the count pass: four 4-lane AVX2 vectors, the width
/// the compiler unrolls the pass's loop to.
const COUNT_BLOCK: usize = 16;

/// The number of pairs of `xs.zip(ys)` that pass `test`: the count pass of
/// a scan, with no per-row branch, so it vectorises.  This body is the
/// portable kernel and, compiled once more under `avx2`, the wide one —
/// see *Scan columns and scan soundness*.
///
/// Whole blocks of [`COUNT_BLOCK`] rows go through one loop; the rest is
/// the last block once more, masked to its rows the loop did not count.
/// A plain loop over any length would end in a narrower loop and a scalar
/// one whose trip counts change from probe to probe, and their
/// mispredicted exits cost a window whose live rows straddle two segments
/// ~40 ns a probe on d2's 500 rows.
#[inline(always)]
fn count_portable(xs: &[f64], ys: &[f64], test: impl Fn(f64, f64) -> bool) -> usize {
    let pass = |xs: &[f64], ys: &[f64]| xs.iter().zip(ys).filter(|&(&x, &y)| test(x, y)).count();
    let n = xs.len().min(ys.len());
    if n < COUNT_BLOCK {
        return pass(&xs[..n], &ys[..n]);
    }
    let whole = n & !(COUNT_BLOCK - 1);
    let counted = COUNT_BLOCK - (n - whole);
    let (last_xs, last_ys) = (&xs[n - COUNT_BLOCK..n], &ys[n - COUNT_BLOCK..n]);
    let rest = last_xs
        .iter()
        .zip(last_ys)
        .zip(0..COUNT_BLOCK)
        .filter(|&((&x, &y), row)| test(x, y) & (row >= counted))
        .count();
    pass(&xs[..whole], &ys[..whole]) + rest
}

/// [`count_portable`] compiled with AVX2 enabled: four `f64` lanes per
/// instruction.  `fma` stays off, so no `a * b + c` is fused.
///
/// # Safety
///
/// Outside an `avx2` context a call is `unsafe`: the caller must have
/// checked that the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn count_avx2(xs: &[f64], ys: &[f64], test: impl Fn(f64, f64) -> bool) -> usize {
    count_portable(xs, ys, test)
}

/// [`count_portable`] at the widest vector width this CPU runs.
#[inline]
fn count_hits(xs: &[f64], ys: &[f64], test: impl Fn(f64, f64) -> bool) -> usize {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: `count_avx2`'s only precondition is that the CPU
        // supports AVX2, which the runtime check above just established.
        return unsafe { count_avx2(xs, ys, test) };
    }
    count_portable(xs, ys, test)
}

/// One timestamp-contiguous storage segment.
///
/// `rows` is an append-only arena; expiry removes ids from `order` (and the
/// postings) but leaves the arena untouched until the whole segment is
/// dropped, so the hot paths never shift rows.
#[derive(Debug, Clone, Default)]
struct Segment {
    /// Row arena: every tuple ever inserted here, live and expired alike.
    rows: Vec<Tuple>,
    /// Timestamp-ordered (ties insertion-ordered) ids of the live rows.
    order: VecDeque<u32>,
    /// Per indexed column (parallel to `Window::cols`) of a `Postings`
    /// window, empty on a `Counts` one: key → live row ids, in the same
    /// timestamp order as `order`.
    postings: Vec<KeyMap<VecDeque<u32>>>,
    /// Per indexed column: live floats, strings and booleans — the
    /// segment's contribution to [`Window::unindexable_count`].
    unindexable: Vec<u64>,
    /// Per scan column (parallel to `Window::scan_cols`): `rows.len()`
    /// entries whose suffix from `base = rows.len() - order.len()` is the
    /// [`scan_image`] of the live rows in `order`'s order — entry `base + p`
    /// images `rows[order[p]]`; the entries before `base` are dead.
    scan: Vec<Vec<f64>>,
}

/// Inserts `rid` into a timestamp-ordered id deque, searching from the back
/// (late tuples are usually only a little late); ties keep insertion order.
fn ordered_insert(ids: &mut VecDeque<u32>, rows: &[Tuple], rid: u32, ts: Timestamp) {
    let mut pos = ids.len();
    while pos > 0 && rows[ids[pos - 1] as usize].ts > ts {
        pos -= 1;
    }
    if pos == ids.len() {
        ids.push_back(rid);
    } else {
        ids.insert(pos, rid);
    }
}

impl Segment {
    fn with_cols(kind: IndexKind, n: usize, n_scan: usize) -> Self {
        let n_postings = if kind == IndexKind::Postings { n } else { 0 };
        Segment {
            rows: Vec::new(),
            order: VecDeque::new(),
            postings: vec![KeyMap::default(); n_postings],
            unindexable: vec![0; n],
            scan: vec![Vec::new(); n_scan],
        }
    }

    /// Estimated heap bytes one live row accounts for: the tuple plus its
    /// entry in every scan column.
    fn row_bytes(&self, t: &Tuple) -> u64 {
        estimated_bytes(t) + (self.scan.len() * std::mem::size_of::<f64>()) as u64
    }

    fn live_len(&self) -> usize {
        self.order.len()
    }

    /// Smallest live timestamp.
    fn min_ts(&self) -> Option<Timestamp> {
        self.order.front().map(|&r| self.rows[r as usize].ts)
    }

    /// Largest live timestamp.
    fn max_ts(&self) -> Option<Timestamp> {
        self.order.back().map(|&r| self.rows[r as usize].ts)
    }

    /// Live rows in timestamp order.
    fn live(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.order.iter().map(move |&r| &self.rows[r as usize])
    }

    /// Live rows of one posting, in timestamp order.
    fn posting_tuples(&self, ci: usize, key: i64) -> impl Iterator<Item = &Tuple> + '_ {
        self.postings[ci]
            .get(&key)
            .into_iter()
            .flatten()
            .map(move |&rid| &self.rows[rid as usize])
    }

    /// Appends a row to the arena, maintaining order, the index (postings
    /// or the window's key counts), the unindexable tallies and the scan
    /// columns.
    fn insert(&mut self, cols: &[usize], scan_cols: &[usize], index: &mut KeyIndex, tuple: Tuple) {
        let rid = u32::try_from(self.rows.len()).expect("segment row id overflow");
        for (ci, &col) in cols.iter().enumerate() {
            match classify(tuple.value(col)) {
                KeyClass::Key(key) => match index.kind {
                    IndexKind::Counts => *index.counts[ci].entry(key).or_insert(0) += 1,
                    IndexKind::Postings => ordered_insert(
                        self.postings[ci].entry(key).or_default(),
                        &self.rows,
                        rid,
                        tuple.ts,
                    ),
                },
                KeyClass::Inert => {}
                KeyClass::Unindexable => {
                    self.unindexable[ci] += 1;
                    index.unindexable[ci] += 1;
                }
            }
        }
        let mut pos = self.order.len();
        while pos > 0 && self.rows[self.order[pos - 1] as usize].ts > tuple.ts {
            pos -= 1;
        }
        for (column, &col) in self.scan.iter_mut().zip(scan_cols) {
            // Live position `pos` is entry `base + pos`: a push for an
            // append, a shift of the later images for a late row.
            let base = column.len() - self.order.len();
            column.insert(base + pos, scan_image(tuple.value(col)));
        }
        self.rows.push(tuple);
        if pos == self.order.len() {
            self.order.push_back(rid);
        } else {
            self.order.insert(pos, rid);
        }
    }

    /// Evaluates `test` over scan columns `a` and `b` of the live rows in
    /// timestamp order, calling `visit` with each passing row; returns the
    /// number of passing rows.
    ///
    /// Counting is [`count_hits`], a pure reduction over the two live
    /// slices, and the hits are walked (and re-tested) for `visit` only
    /// when there are any, through accessors that cannot panic, so a no-op
    /// `visit` leaves nothing of that walk.
    fn scan_with<'a>(
        &'a self,
        a: usize,
        b: usize,
        test: impl Fn(f64, f64) -> bool,
        visit: &mut impl FnMut(&'a Tuple),
    ) -> u64 {
        let base = self.rows.len() - self.order.len();
        let (xs, ys) = (&self.scan[a][base..], &self.scan[b][base..]);
        let hits = count_hits(xs, ys, &test);
        if hits > 0 {
            for ((&rid, &x), &y) in self.order.iter().zip(xs).zip(ys) {
                if test(x, y) {
                    if let Some(row) = self.rows.get(rid as usize) {
                        visit(row);
                    }
                }
            }
        }
        hits as u64
    }

    /// Empties the segment, retaining every buffer's capacity (the spare
    /// slot recycles segments through this).
    fn reset(&mut self) {
        self.rows.clear();
        self.order.clear();
        for m in &mut self.postings {
            m.clear();
        }
        self.unindexable.fill(0);
        for column in &mut self.scan {
            column.clear();
        }
    }
}

/// A hash bucket resolved to per-segment arena slices: cheaply re-iterable,
/// which the indexed enumeration's cross-product walk needs — without
/// cloning a single tuple.
pub(crate) struct Bucket<'a> {
    /// `(row arena, live ids)` per segment with a non-empty posting, in
    /// segment (= timestamp) order.
    parts: Vec<(&'a [Tuple], &'a VecDeque<u32>)>,
}

impl<'a> Bucket<'a> {
    /// The bucket's live tuples in timestamp order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &'a Tuple> + '_ {
        self.parts
            .iter()
            .flat_map(|(rows, ids)| ids.iter().map(move |&rid| &rows[rid as usize]))
    }
}

/// A time-based sliding window holding the live tuples of one stream.
///
/// Tuples are kept ordered by timestamp (ties broken by insertion order)
/// across a deque of columnar segments, so that expiration drops whole
/// segments in the common case.  Optionally, integer columns can be
/// indexed; the index built by the public constructors maintains, for each
/// distinct value, the row ids of the live tuples carrying it.
///
/// # Examples
///
/// ```
/// use mswj_join::Window;
/// use mswj_types::{Tuple, Timestamp, Value};
/// let mut w = Window::new(1_000);
/// w.insert(Tuple::new(0.into(), 0, Timestamp::from_millis(100), vec![Value::Int(7)]));
/// w.insert(Tuple::new(0.into(), 1, Timestamp::from_millis(600), vec![Value::Int(7)]));
/// assert_eq!(w.len(), 2);
/// // A tuple at t=1200 expires everything with ts < 1200 - 1000 = 200.
/// let expired = w.expire_before(Timestamp::from_millis(200));
/// assert_eq!(expired, 1);
/// assert_eq!(w.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Window {
    size: Duration,
    /// The most arena rows a tail segment absorbs before sealing.
    capacity: usize,
    /// Indexed column positions (sorted, deduped).
    cols: Vec<usize>,
    /// Scan column positions, in the order the scan kernel addresses them
    /// (not deduplicated: position, not column, identifies a scan column).
    scan_cols: Vec<usize>,
    /// Storage segments in ascending, disjoint timestamp ranges; the back
    /// one is the mutable tail.  Every present segment has live rows.
    segments: VecDeque<Segment>,
    /// Total live rows across all segments.
    len: usize,
    /// The index kind and its window-level aggregates.
    index: KeyIndex,
    /// One recycled segment: dropped segments park their buffers here so
    /// steady-state seal/drop cycles do not allocate.
    spare: Option<Segment>,
    /// Lifetime counters (the live-shape fields stay zero here and are
    /// filled by [`Window::stats`]).
    counters: WindowStats,
}

impl Window {
    /// Creates a window of `size` milliseconds with no indexed columns.
    pub fn new(size: Duration) -> Self {
        Self::with_segment_capacity(size, &[], DEFAULT_SEGMENT_ROWS)
    }

    /// Creates a window that maintains value→row hash indexes on the given
    /// integer column positions.
    pub fn with_indexed_columns(size: Duration, columns: &[usize]) -> Self {
        Self::with_segment_capacity(size, columns, DEFAULT_SEGMENT_ROWS)
    }

    /// Creates a window with an explicit segment capacity: the most arena
    /// rows a tail segment absorbs before it seals (default 1 024).  A tail
    /// that has expired a row seals earlier, at the window's live size (see
    /// *When the tail seals* in the module docs).  Capacities outside
    /// [2, 2³¹] are clamped.  The capacity changes the storage layout only,
    /// never the window's content or a probe's answer.
    pub fn with_segment_capacity(size: Duration, columns: &[usize], capacity: usize) -> Self {
        Self::with_columns(size, columns, &[], capacity, IndexKind::Postings)
    }

    /// [`Window::with_segment_capacity`] with a *counts* index instead of
    /// postings — the kind an operator gives the windows it only counts
    /// (see *One index kind per window* in the module docs).
    ///
    /// A test hook for the property suites `tests/index_properties.rs` and
    /// `tests/segment_properties.rs`, not part of the API.
    #[doc(hidden)]
    pub fn with_key_counts(size: Duration, columns: &[usize], capacity: usize) -> Self {
        Self::with_columns(size, columns, &[], capacity, IndexKind::Counts)
    }

    /// Creates a window keeping a `kind` index on `columns` and typed scan
    /// columns on `scan_columns` (see *Scan columns and scan soundness* in
    /// the module docs), sealing its tail segments by `capacity` rows.
    pub(crate) fn with_columns(
        size: Duration,
        columns: &[usize],
        scan_columns: &[usize],
        capacity: usize,
        kind: IndexKind,
    ) -> Self {
        let mut cols = columns.to_vec();
        cols.sort_unstable();
        cols.dedup();
        let n = cols.len();
        let n_counts = if kind == IndexKind::Counts { n } else { 0 };
        Window {
            size,
            capacity: capacity.clamp(2, MAX_SEGMENT_ROWS),
            cols,
            scan_cols: scan_columns.to_vec(),
            segments: VecDeque::new(),
            len: 0,
            index: KeyIndex {
                kind,
                counts: vec![KeyMap::default(); n_counts],
                unindexable: vec![0; n],
            },
            spare: None,
            counters: WindowStats::default(),
        }
    }

    /// The window size `W_i` in milliseconds.
    pub fn size(&self) -> Duration {
        self.size
    }

    /// Number of live tuples `|S_i[W_i]|`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the window holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lifetime statistics plus the current storage shape.
    pub fn stats(&self) -> WindowStats {
        WindowStats {
            live_bytes_est: self
                .segments
                .iter()
                .flat_map(|s| s.live().map(|t| s.row_bytes(t)))
                .sum(),
            segments: self.segments.len(),
            sealed_segments: self.segments.len().saturating_sub(1),
            ..self.counters
        }
    }

    /// Iterates over live tuples in timestamp order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.segments.iter().flat_map(Segment::live)
    }

    /// The smallest timestamp currently held, if any.
    pub fn min_ts(&self) -> Option<Timestamp> {
        self.segments.front().and_then(Segment::min_ts)
    }

    /// The largest timestamp currently held, if any.
    pub fn max_ts(&self) -> Option<Timestamp> {
        self.segments.back().and_then(Segment::max_ts)
    }

    /// A segment to start a new tail with: the spare if one is parked.
    fn fresh_segment(&mut self) -> Segment {
        match self.spare.take() {
            Some(seg) => seg,
            None => Segment::with_cols(self.index.kind, self.cols.len(), self.scan_cols.len()),
        }
    }

    /// Parks a dropped segment's buffers for reuse (one-slot).
    fn recycle(&mut self, mut seg: Segment) {
        if self.spare.is_none() {
            seg.reset();
            self.spare = Some(seg);
        }
    }

    /// The segment `ts` belongs in — the last one whose live minimum does
    /// not exceed `ts` (so a timestamp tie lands *after* every earlier
    /// sibling, preserving insertion order), clamped to the front segment
    /// for tuples older than everything.  `None` when a new tail segment
    /// must be started instead: the window is empty, or the tuple extends a
    /// tail at (or past) its live maximum that is due to seal.
    fn target_segment(&self, ts: Timestamp) -> Option<usize> {
        let last = self.segments.len().checked_sub(1)?;
        let pick = self
            .segments
            .iter()
            .rposition(|seg| seg.min_ts().map(|m| m <= ts).unwrap_or(false));
        match pick {
            None => Some(0),
            Some(k) if k == last => {
                let tail = &self.segments[last];
                let extends = tail.max_ts().map(|m| ts >= m).unwrap_or(true);
                if extends && self.tail_due(tail) {
                    None // seal: start a new tail
                } else {
                    Some(k)
                }
            }
            Some(k) => Some(k),
        }
    }

    /// Whether `tail` seals before its next in-order row: its arena has
    /// reached the capacity, or it already holds an expired row and at
    /// least as many rows as the window holds live (and [`SEAL_FLOOR_ROWS`]).
    /// The second case keeps a sliding window's expired rows to about its
    /// live size, however large the capacity.
    fn tail_due(&self, tail: &Segment) -> bool {
        let rows = tail.rows.len();
        rows >= self.capacity || (rows > tail.live_len() && rows >= self.len.max(SEAL_FLOOR_ROWS))
    }

    /// Inserts a tuple, keeping the content ordered by timestamp.
    pub fn insert(&mut self, tuple: Tuple) {
        if let Some(max) = self.max_ts() {
            if tuple.ts < max {
                self.counters.unordered_inserts += 1;
            }
        }
        let target = match self.target_segment(tuple.ts) {
            Some(k) => k,
            None => {
                let seg = self.fresh_segment();
                self.segments.push_back(seg);
                self.segments.len() - 1
            }
        };
        self.segments[target].insert(&self.cols, &self.scan_cols, &mut self.index, tuple);
        self.len += 1;
        self.counters.inserted += 1;
        if self.len > self.counters.peak_len {
            self.counters.peak_len = self.len;
        }
    }

    /// Subtracts a whole segment's live rows from the window aggregates —
    /// the segment-drop expiry path.  A `Postings` window's postings leave
    /// with the segment; a `Counts` window takes each live row's key off
    /// its tallies.
    fn forget_segment(seg: &Segment, cols: &[usize], index: &mut KeyIndex) {
        for (ci, &col) in cols.iter().enumerate() {
            if index.kind == IndexKind::Counts {
                for t in seg.live() {
                    if let KeyClass::Key(key) = classify(t.value(col)) {
                        uncount(&mut index.counts[ci], key);
                    }
                }
            }
            let unindexable = &mut index.unindexable[ci];
            *unindexable = unindexable.saturating_sub(seg.unindexable[ci]);
        }
    }

    /// Expires the boundary segment's leading rows with `ts < bound`.  The
    /// posting fronts align with the expiry order (both are timestamp plus
    /// insertion ordered), so each row pops in O(1).
    fn expire_segment_prefix(
        seg: &mut Segment,
        cols: &[usize],
        index: &mut KeyIndex,
        bound: Timestamp,
    ) -> usize {
        let mut n = 0usize;
        while let Some(&rid) = seg.order.front() {
            if seg.rows[rid as usize].ts >= bound {
                break;
            }
            seg.order.pop_front();
            let t = &seg.rows[rid as usize];
            for (ci, &col) in cols.iter().enumerate() {
                match classify(t.value(col)) {
                    KeyClass::Key(key) => match index.kind {
                        IndexKind::Counts => uncount(&mut index.counts[ci], key),
                        IndexKind::Postings => match seg.postings[ci].entry(key) {
                            Entry::Occupied(mut posting) => {
                                let popped = posting.get_mut().pop_front();
                                debug_assert_eq!(
                                    popped,
                                    Some(rid),
                                    "posting front must align with expiry order"
                                );
                                if posting.get().is_empty() {
                                    posting.remove();
                                }
                            }
                            Entry::Vacant(_) => {
                                debug_assert!(false, "expired tuple missing from posting")
                            }
                        },
                    },
                    KeyClass::Unindexable => {
                        let live = &mut seg.unindexable[ci];
                        debug_assert!(*live > 0, "unindexable count underflow");
                        *live = live.saturating_sub(1);
                        index.unindexable[ci] = index.unindexable[ci].saturating_sub(1);
                    }
                    KeyClass::Inert => {}
                }
            }
            n += 1;
        }
        n
    }

    /// Removes every tuple with `ts < bound` (Alg. 2, line 6, where
    /// `bound = e_i.ts - W_j`).  Returns the number of expired tuples.
    ///
    /// Expired rows form a prefix of the global timestamp order, so whole
    /// leading segments drop in O(distinct keys) each; only the single
    /// boundary segment is walked row by row.
    pub fn expire_before(&mut self, bound: Timestamp) -> usize {
        let mut expired = 0usize;
        while let Some(front) = self.segments.front() {
            match front.max_ts() {
                Some(max) if max < bound => {
                    let seg = self.segments.pop_front().expect("front checked above");
                    expired += seg.live_len();
                    Self::forget_segment(&seg, &self.cols, &mut self.index);
                    self.recycle(seg);
                }
                Some(_) => {
                    let seg = self.segments.front_mut().expect("front checked above");
                    expired += Self::expire_segment_prefix(seg, &self.cols, &mut self.index, bound);
                    break;
                }
                None => {
                    debug_assert!(false, "windows never hold empty segments");
                    let seg = self.segments.pop_front().expect("front checked above");
                    self.recycle(seg);
                }
            }
        }
        self.len -= expired;
        self.counters.expired += expired as u64;
        expired
    }

    /// Position of `col` in the indexed-column set.
    fn col_pos(&self, col: usize) -> Option<usize> {
        self.cols.iter().position(|&c| c == col)
    }

    /// Position of `col` in the indexed-column set of a `Postings` window:
    /// where a bucket of `col` can be walked.
    fn posting_pos(&self, col: usize) -> Option<usize> {
        self.col_pos(col)
            .filter(|_| self.index.kind == IndexKind::Postings)
    }

    /// The window's index kind; `None` when no column is indexed.
    #[cfg(test)]
    pub(crate) fn index_kind(&self) -> Option<IndexKind> {
        (!self.cols.is_empty()).then_some(self.index.kind)
    }

    /// Number of live tuples whose indexed column `col` is `Int(key)`: one
    /// lookup on a counts window, the per-segment posting lengths summed on
    /// a postings window.
    ///
    /// Falls back to a scan when the column is not indexed.
    pub fn count_key(&self, col: usize, key: i64) -> u64 {
        match (self.col_pos(col), self.index.kind) {
            (Some(ci), IndexKind::Counts) => self.index.counts[ci].get(&key).copied().unwrap_or(0),
            (Some(ci), IndexKind::Postings) => self
                .segments
                .iter()
                .map(|seg| seg.postings[ci].get(&key).map_or(0, |p| p.len() as u64))
                .sum(),
            (None, _) => self
                .iter()
                .filter(|t| t.value(col).and_then(Value::as_int) == Some(key))
                .count() as u64,
        }
    }

    /// The posting chain of live tuples whose column `ci` (an indexed-set
    /// position) is `Int(key)`, across segments in timestamp order.
    fn bucket_chain(&self, ci: usize, key: i64) -> impl Iterator<Item = &Tuple> + '_ {
        self.segments
            .iter()
            .flat_map(move |seg| seg.posting_tuples(ci, key))
    }

    /// Iterates over live tuples whose column `col` is `Int(key)`, in
    /// timestamp order — through the postings when `col` is indexed on a
    /// postings window, by scanning otherwise.  Both paths yield the
    /// identical tuple sequence (the property harnesses in
    /// `tests/index_properties.rs` and `tests/segment_properties.rs` pin
    /// this).
    pub fn matching<'a>(&'a self, col: usize, key: i64) -> impl Iterator<Item = &'a Tuple> + 'a {
        let (indexed, scan) = match self.posting_pos(col) {
            Some(ci) => (Some(ci), None),
            None => (None, Some(self.iter())),
        };
        scan.into_iter()
            .flatten()
            .filter(move |t| t.value(col).and_then(Value::as_int) == Some(key))
            .chain(
                indexed
                    .into_iter()
                    .flat_map(move |ci| self.bucket_chain(ci, key)),
            )
    }

    /// Single-pass, allocation-free walk of the live tuples whose indexed
    /// column `col` is `Int(key)`; empty when the column is not indexed.
    /// Never asked of a counts window, which has no buckets.
    pub(crate) fn bucket_iter(&self, col: usize, key: i64) -> impl Iterator<Item = &Tuple> + '_ {
        self.assert_walkable(col);
        self.posting_pos(col)
            .into_iter()
            .flat_map(move |ci| self.bucket_chain(ci, key))
    }

    /// The hash bucket of live tuples whose column `col` is `Int(key)`,
    /// resolved to re-iterable per-segment slices; `None` when the column
    /// is not indexed or the key has no live tuples.  Never asked of a
    /// counts window, which has no buckets.
    pub(crate) fn bucket(&self, col: usize, key: i64) -> Option<Bucket<'_>> {
        self.assert_walkable(col);
        let ci = self.posting_pos(col)?;
        let mut parts = Vec::new();
        for seg in &self.segments {
            if let Some(posting) = seg.postings[ci].get(&key) {
                if !posting.is_empty() {
                    parts.push((seg.rows.as_slice(), posting));
                }
            }
        }
        if parts.is_empty() {
            None
        } else {
            Some(Bucket { parts })
        }
    }

    /// The operator picks each window's index kind from the probes its
    /// plan runs, so a bucket walk of a counted column is a planning bug.
    fn assert_walkable(&self, col: usize) {
        debug_assert!(
            self.index.kind == IndexKind::Postings || self.col_pos(col).is_none(),
            "bucket walk of column {col} on a counts window"
        );
    }

    /// The live tuples a fallback probe of `key` in column `col` must
    /// test against the join condition: every one, in timestamp order.
    pub fn scan_candidates<'a>(
        &'a self,
        _col: usize,
        _key: &'a Value,
    ) -> impl Iterator<Item = &'a Tuple> + 'a {
        self.iter()
    }

    /// Evaluates `pred` over the scan columns of every live row, in
    /// timestamp order, without touching a tuple: returns the number of
    /// rows satisfying it and hands each of them to `visit` (counting
    /// callers pass a no-op).
    ///
    /// Equivalent, verdict for verdict and in the same order, to walking
    /// [`Window::iter`] and evaluating the condition the predicate was
    /// derived from — see *Scan columns and scan soundness*.
    pub(crate) fn scan<'a>(&'a self, pred: ScanPredicate, mut visit: impl FnMut(&'a Tuple)) -> u64 {
        let mut hits = 0u64;
        for seg in &self.segments {
            hits += match pred {
                ScanPredicate::Distance { px, py, limit } => {
                    seg.scan_with(0, 1, distance_test(px, py, limit), &mut visit)
                }
                ScanPredicate::Band { center, band } => {
                    seg.scan_with(0, 0, band_test(center, band), &mut visit)
                }
            };
        }
        hits
    }

    /// Checks the scan-column invariant the kernel relies on — every scan
    /// column has one entry per arena row, and its suffix from `base =
    /// rows.len() - order.len()` is, bit for bit, the NaN-sentinel image of
    /// the live rows in timestamp order — and describes the first violation.
    ///
    /// A test hook for `tests/segment_properties.rs`, not part of the API.
    #[doc(hidden)]
    pub fn check_scan_invariants(&self) -> Result<(), String> {
        for (si, seg) in self.segments.iter().enumerate() {
            if seg.scan.len() != self.scan_cols.len() {
                return Err(format!("segment {si}: {} scan columns", seg.scan.len()));
            }
            let base = seg.rows.len() - seg.order.len();
            for (column, &col) in seg.scan.iter().zip(&self.scan_cols) {
                let image = seg.live().map(|t| scan_image(t.value(col)).to_bits());
                if column.len() != seg.rows.len()
                    || !column[base..].iter().map(|v| v.to_bits()).eq(image)
                {
                    return Err(format!(
                        "segment {si}: scan column {col} is not the live-order row image"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Number of live tuples whose value in indexed column `col` is
    /// joinable but not hashable (float, string or bool); 0 for unindexed
    /// columns.
    pub fn unindexable_count(&self, col: usize) -> u64 {
        self.col_pos(col)
            .map(|ci| self.index.unindexable[ci])
            .unwrap_or(0)
    }

    /// Whether the hash index on `col` is *sound* to probe: the column is
    /// indexed and every live value in it is either an integer key or inert
    /// (`Null`/missing).  When this returns `false` the operator must use
    /// the nested-loop scan for probes touching this column.
    pub fn index_usable(&self, col: usize) -> bool {
        self.col_pos(col)
            .map(|ci| self.index.unindexable[ci] == 0)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mswj_types::StreamIndex;

    fn tup(seq: u64, ts: u64, key: i64) -> Tuple {
        Tuple::new(
            StreamIndex(0),
            seq,
            Timestamp::from_millis(ts),
            vec![Value::Int(key)],
        )
    }

    #[test]
    fn insert_keeps_timestamp_order() {
        let mut w = Window::new(1_000);
        w.insert(tup(0, 100, 1));
        w.insert(tup(1, 300, 2));
        w.insert(tup(2, 200, 3)); // out of order
        let ts: Vec<u64> = w.iter().map(|t| t.ts.as_millis()).collect();
        assert_eq!(ts, vec![100, 200, 300]);
        assert_eq!(w.stats().unordered_inserts, 1);
        assert_eq!(w.min_ts(), Some(Timestamp::from_millis(100)));
        assert_eq!(w.max_ts(), Some(Timestamp::from_millis(300)));
    }

    #[test]
    fn expiration_removes_only_old_tuples() {
        let mut w = Window::new(500);
        for (i, ts) in [100u64, 200, 300, 400].iter().enumerate() {
            w.insert(tup(i as u64, *ts, 1));
        }
        let removed = w.expire_before(Timestamp::from_millis(250));
        assert_eq!(removed, 2);
        assert_eq!(w.len(), 2);
        assert_eq!(w.min_ts(), Some(Timestamp::from_millis(300)));
        assert_eq!(w.stats().expired, 2);
        // Expiring with an older bound is a no-op.
        assert_eq!(w.expire_before(Timestamp::from_millis(100)), 0);
    }

    #[test]
    fn expiration_bound_is_exclusive() {
        // Tuples with ts == bound stay: the paper removes ts < ei.ts - Wj.
        let mut w = Window::new(500);
        w.insert(tup(0, 100, 1));
        w.insert(tup(1, 200, 1));
        assert_eq!(w.expire_before(Timestamp::from_millis(200)), 1);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn key_index_tracks_inserts_and_expirations() {
        let mut w = Window::with_indexed_columns(1_000, &[0]);
        assert!(w.col_pos(0).is_some());
        assert!(w.col_pos(1).is_none());
        w.insert(tup(0, 100, 7));
        w.insert(tup(1, 200, 7));
        w.insert(tup(2, 300, 9));
        assert_eq!(w.count_key(0, 7), 2);
        assert_eq!(w.count_key(0, 9), 1);
        assert_eq!(w.count_key(0, 5), 0);
        w.expire_before(Timestamp::from_millis(250));
        assert_eq!(w.count_key(0, 7), 0);
        assert_eq!(w.count_key(0, 9), 1);
    }

    #[test]
    fn count_key_without_index_scans() {
        let mut w = Window::new(1_000);
        w.insert(tup(0, 100, 4));
        w.insert(tup(1, 200, 4));
        assert_eq!(w.count_key(0, 4), 2);
        assert_eq!(w.count_key(0, 1), 0);
    }

    #[test]
    fn matching_iterates_only_matching_tuples() {
        let mut w = Window::with_indexed_columns(1_000, &[0]);
        w.insert(tup(0, 100, 4));
        w.insert(tup(1, 150, 5));
        w.insert(tup(2, 200, 4));
        let seqs: Vec<u64> = w.matching(0, 4).map(|t| t.seq).collect();
        assert_eq!(seqs, vec![0, 2]);
        // Unindexed columns scan and yield the same answer.
        let mut scan = Window::new(1_000);
        scan.insert(tup(0, 100, 4));
        scan.insert(tup(1, 150, 5));
        scan.insert(tup(2, 200, 4));
        let seqs: Vec<u64> = scan.matching(0, 4).map(|t| t.seq).collect();
        assert_eq!(seqs, vec![0, 2]);
    }

    #[test]
    fn buckets_mirror_out_of_order_inserts() {
        let mut w = Window::with_indexed_columns(1_000, &[0]);
        w.insert(tup(0, 300, 4));
        w.insert(tup(1, 100, 4)); // late
        w.insert(tup(2, 200, 4)); // late
        let seqs: Vec<u64> = w.matching(0, 4).map(|t| t.seq).collect();
        assert_eq!(seqs, vec![1, 2, 0], "bucket must stay timestamp-ordered");
        // Expiring the two oldest removes exactly them from the bucket.
        assert_eq!(w.expire_before(Timestamp::from_millis(250)), 2);
        let seqs: Vec<u64> = w.matching(0, 4).map(|t| t.seq).collect();
        assert_eq!(seqs, vec![0]);
    }

    #[test]
    fn peak_len_and_clear() {
        let mut w = Window::with_indexed_columns(1_000, &[0]);
        for i in 0..5 {
            w.insert(tup(i, 100 * (i + 1), 1));
        }
        assert_eq!(w.stats().peak_len, 5);
        w.expire_before(Timestamp::from_millis(1_000));
        assert!(w.is_empty());
        assert_eq!(w.count_key(0, 1), 0);
        assert!(w.index_usable(0));
        // Peak is a lifetime statistic and survives emptying the window.
        assert_eq!(w.stats().peak_len, 5);
        assert_eq!(w.stats().live_bytes_est, 0);
    }

    #[test]
    fn unindexable_values_disable_the_index_while_live() {
        let mut w = Window::with_indexed_columns(1_000, &[0]);
        w.insert(tup(0, 100, 2));
        assert!(w.index_usable(0));
        w.insert(Tuple::new(
            StreamIndex(0),
            1,
            Timestamp::from_millis(200),
            vec![Value::Float(2.5)],
        ));
        assert_eq!(w.unindexable_count(0), 1);
        assert!(!w.index_usable(0), "a live float must disable the index");
        assert_eq!(w.count_key(0, 2), 1, "the integer tuple stays bucketed");
        // Expiring the float restores soundness without touching buckets.
        w.expire_before(Timestamp::from_millis(300));
        assert!(w.is_empty());
        assert_eq!(w.unindexable_count(0), 0);
        assert!(w.index_usable(0));
    }

    #[test]
    fn null_and_missing_values_stay_inert() {
        let mut w = Window::with_indexed_columns(1_000, &[1]);
        // Column 1 missing entirely, and explicitly Null: neither can ever
        // satisfy join_eq, so the index stays sound.
        w.insert(Tuple::new(
            StreamIndex(0),
            0,
            Timestamp::from_millis(10),
            vec![Value::Int(1)],
        ));
        w.insert(Tuple::new(
            StreamIndex(0),
            1,
            Timestamp::from_millis(20),
            vec![Value::Int(1), Value::Null],
        ));
        assert_eq!(w.unindexable_count(1), 0);
        assert!(w.index_usable(1));
        assert_eq!(w.count_key(1, 0), 0);
        w.expire_before(Timestamp::from_millis(100));
        assert!(w.is_empty());
        assert!(w.index_usable(1));
    }

    #[test]
    fn nan_attributes_do_not_break_bucket_expiration() {
        // Regression: a Float(NaN) payload attribute (NaN != NaN) must not
        // leave a phantom index entry behind at expiration.
        let mut w = Window::with_indexed_columns(1_000, &[0]);
        w.insert(Tuple::new(
            StreamIndex(0),
            0,
            Timestamp::from_millis(100),
            vec![Value::Int(7), Value::Float(f64::NAN)],
        ));
        assert_eq!(w.count_key(0, 7), 1);
        assert_eq!(w.expire_before(Timestamp::from_millis(200)), 1);
        assert!(w.is_empty());
        assert_eq!(w.count_key(0, 7), 0, "no phantom tuple may survive");
        assert_eq!(w.matching(0, 7).count(), 0);
    }

    #[test]
    fn unindexed_column_is_never_usable() {
        let w = Window::new(1_000);
        assert!(!w.index_usable(0));
        assert_eq!(w.unindexable_count(0), 0);
    }

    // ------------------------------------------------------------------
    // Segmented-storage specifics
    // ------------------------------------------------------------------

    #[test]
    fn tail_seals_at_capacity_and_whole_segments_drop() {
        let mut w = Window::with_segment_capacity(1_000, &[0], 4);
        for i in 0..10u64 {
            w.insert(tup(i, 100 * (i + 1), (i % 3) as i64));
        }
        let s = w.stats();
        assert_eq!(s.segments, 3, "10 rows at capacity 4 span 3 segments");
        assert_eq!(s.sealed_segments, 2);
        assert!(s.live_bytes_est > 0);
        // Expiring past the first two segments drops them wholesale.
        let removed = w.expire_before(Timestamp::from_millis(850));
        assert_eq!(removed, 8);
        assert_eq!(w.stats().segments, 1);
        let ts: Vec<u64> = w.iter().map(|t| t.ts.as_millis()).collect();
        assert_eq!(ts, vec![900, 1_000]);
        for key in 0..3 {
            let via_index = w.count_key(0, key);
            let via_scan = w
                .iter()
                .filter(|t| t.value(0) == Some(&Value::Int(key)))
                .count() as u64;
            assert_eq!(via_index, via_scan, "counts survive segment drops");
        }
    }

    #[test]
    fn a_sliding_tail_seals_at_the_live_size_not_the_capacity() {
        let held = |w: &Window| w.segments.iter().map(|s| s.rows.len()).sum::<usize>();
        for size in [100u64, 30, 1_000] {
            // One row a millisecond, each arrival expiring to `t - W` first.
            let mut w = Window::with_indexed_columns(size, &[0]);
            for t in 0..10 * size.max(200) {
                w.expire_before(Timestamp::from_millis(t.saturating_sub(size)));
                w.insert(tup(t, t, (t % 7) as i64));
                if t >= 2 * size {
                    let bound = 2 * w.len().max(SEAL_FLOOR_ROWS) + 1;
                    assert!(held(&w) <= bound, "W = {size}: {} rows held", held(&w));
                }
            }
            assert_eq!(w.len(), size as usize + 1);
        }
        // A window that is only ever inserted into never seals below the
        // capacity: the from-scratch rebuild oracle of the property suite
        // stays one segment.
        let mut w = Window::with_segment_capacity(1_000, &[0], 1 << 20);
        for t in 0..5_000u64 {
            w.insert(tup(t, t / 3, (t % 7) as i64));
        }
        assert_eq!(w.stats().segments, 1);
    }

    #[test]
    fn capacity_is_an_access_path_choice_only() {
        // Identical content and index answers for capacities 2 and 1024,
        // under out-of-order inserts and expiry.
        let mut tiny = Window::with_segment_capacity(10_000, &[0], 2);
        let mut big = Window::with_segment_capacity(10_000, &[0], 1024);
        let script: &[(u64, u64, i64)] = &[
            (0, 500, 1),
            (1, 100, 2),
            (2, 700, 1),
            (3, 300, 3),
            (4, 700, 2),
            (5, 650, 1),
            (6, 900, 3),
            (7, 200, 1),
        ];
        for &(seq, ts, key) in script {
            tiny.insert(tup(seq, ts, key));
            big.insert(tup(seq, ts, key));
        }
        assert_eq!(tiny.expire_before(Timestamp::from_millis(310)), 3);
        assert_eq!(big.expire_before(Timestamp::from_millis(310)), 3);
        let seq = |w: &Window| w.iter().map(|t| t.seq).collect::<Vec<_>>();
        assert_eq!(seq(&tiny), seq(&big));
        assert_eq!(tiny.len(), big.len());
        for key in 0..4 {
            assert_eq!(tiny.count_key(0, key), big.count_key(0, key));
            let a: Vec<u64> = tiny.matching(0, key).map(|t| t.seq).collect();
            let b: Vec<u64> = big.matching(0, key).map(|t| t.seq).collect();
            assert_eq!(a, b);
        }
        assert_eq!(tiny.min_ts(), big.min_ts());
        assert_eq!(tiny.max_ts(), big.max_ts());
        assert!(tiny.stats().segments > big.stats().segments);
    }

    #[test]
    fn indexed_window_stores_each_tuple_exactly_once() {
        // Memory regression: the old index cloned every tuple into its
        // bucket, so indexed windows held the payload twice.  Postings hold
        // row ids now — each live tuple's payload allocation must be
        // referenced exactly twice: our clone here and the window's row.
        let mut w = Window::with_segment_capacity(100_000, &[0], 4);
        let mine: Vec<Tuple> = (0..20).map(|i| tup(i, 100 * (i + 1), 7)).collect();
        for t in &mine {
            w.insert(t.clone());
        }
        assert_eq!(w.count_key(0, 7), 20, "everything sits in one bucket");
        for t in &mine {
            assert_eq!(
                t.payload_refs(),
                2,
                "a live tuple must be stored exactly once"
            );
        }
        // Dropping whole segments releases the rows' references.
        w.expire_before(Timestamp::from_millis(100 * 20 + 1));
        assert!(w.is_empty());
        // The one recycled spare segment is reset, so nothing lingers.
        for t in &mine {
            assert_eq!(t.payload_refs(), 1, "expiry must release the payload");
        }
    }

    // ------------------------------------------------------------------
    // Scan columns
    // ------------------------------------------------------------------

    fn point(seq: u64, ts: u64, x: Value, y: Value) -> Tuple {
        Tuple::new(
            StreamIndex(0),
            seq,
            Timestamp::from_millis(ts),
            vec![Value::Int(seq as i64), x, y],
        )
    }

    /// The distance predicate evaluated the way `DistanceWithin::matches`
    /// does, on the tuple.
    fn near(t: &Tuple, px: f64, py: f64, threshold: f64) -> bool {
        let coord = |c: usize| t.value(c).and_then(Value::as_float);
        match (coord(1), coord(2)) {
            (Some(x), Some(y)) => {
                let (dx, dy) = (px - x, py - y);
                (dx * dx + dy * dy).sqrt() < threshold
            }
            _ => false,
        }
    }

    /// The band predicate evaluated the way `BandJoin::matches` does.
    fn within(t: &Tuple, center: f64, band: f64) -> bool {
        let image = t.value(1).and_then(Value::as_float);
        image.is_some_and(|v| (v - center).abs() <= band)
    }

    fn distance(px: f64, py: f64, threshold: f64) -> ScanPredicate {
        ScanPredicate::Distance {
            px,
            py,
            limit: squared_limit(threshold),
        }
    }

    fn scan_seqs(w: &Window, pred: ScanPredicate) -> Vec<u64> {
        let mut seqs = Vec::new();
        let hits = w.scan(pred, |t| seqs.push(t.seq));
        assert_eq!(hits, seqs.len() as u64, "count and visits must agree");
        seqs
    }

    /// Asserts the live-order invariant, and that distance and band scans
    /// are the `iter()` + `matches` walk, verdict for verdict and in order.
    fn assert_scan_is_the_walk(w: &Window) {
        assert_eq!(w.check_scan_invariants(), Ok(()));
        for threshold in [5.0, 5.000001, 0.5, 0.0, f64::INFINITY, f64::NAN] {
            for (px, py) in [(1.0, 1.0), (f64::NAN, 1.0), (0.0, -0.0)] {
                let walk: Vec<u64> = w
                    .iter()
                    .filter(|t| near(t, px, py, threshold))
                    .map(|t| t.seq)
                    .collect();
                assert_eq!(
                    scan_seqs(w, distance(px, py, threshold)),
                    walk,
                    "threshold {threshold} at ({px}, {py})"
                );
            }
        }
        for (center, band) in [(2.0, 1.0), (0.0, 0.0), (f64::NAN, 1.0), (3.0, f64::NAN)] {
            let walk: Vec<u64> = w
                .iter()
                .filter(|t| within(t, center, band))
                .map(|t| t.seq)
                .collect();
            let pred = ScanPredicate::Band { center, band };
            assert_eq!(scan_seqs(w, pred), walk, "band {band} around {center}");
        }
    }

    #[test]
    fn squared_limit_is_the_exact_boundary_of_the_sqrt_test() {
        fn step(mut v: f64, by: i32) -> f64 {
            for _ in 0..by.abs() {
                v = if by > 0 { v.next_up() } else { v.next_down() };
            }
            v
        }
        let mut thresholds = vec![
            f64::NAN,
            0.0,
            -0.0,
            -1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            1e-162,
            1.3407807929942596e154,
            1.3407807929942597e154,
            1e200,
            0.1,
            2.5,
            3.0,
            5.0,
        ];
        let mut state = 0x5EED_5EED_5EED_5EEDu64;
        thresholds.extend((0..100_000).map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            f64::from_bits(state)
        }));
        let mut boundaries = 0usize;
        for t in thresholds {
            let limit = squared_limit(t);
            let square = t * t;
            if t > 0.0 {
                // Non-negative floats order like their bit patterns, +∞
                // included, so this is the number of steps the search took.
                let steps = limit.to_bits().abs_diff(square.to_bits());
                assert!(steps <= 8, "threshold {t:e}: {steps} steps to {limit:e}");
                assert!(limit.sqrt() >= t && limit.next_down().sqrt() < t);
                boundaries += 1;
            }
            let fixed = [0.0, 5e-324, square, f64::MAX, f64::INFINITY, f64::NAN];
            let near_limit = (-4..=4).map(|by| step(limit, by));
            let near_square = (-4..=4).map(|by| step(square, by));
            for s in fixed.into_iter().chain(near_limit).chain(near_square) {
                // A sum of squares is never negative (nor -0.0).
                if s.is_sign_negative() && !s.is_nan() {
                    continue;
                }
                assert_eq!(
                    s.sqrt() < t,
                    s < limit,
                    "threshold {t:e} (limit {limit:e}) at s = {s:e}"
                );
            }
        }
        assert!(boundaries > 40_000, "random patterns must hit positive t");
    }

    #[test]
    fn dispatched_count_kernel_is_the_portable_one() {
        // Images of every IEEE class, plus the coordinates whose squared
        // distance from the origin lands on, or one ulp off, a boundary.
        let mut images = vec![
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE / 2.0,
            f64::MAX,
            1.0,
            -3.0,
        ];
        let thresholds = [5.0f64, 0.5, 1e-160, 3.0];
        for t in thresholds {
            images.extend([t, t.next_up(), t.next_down(), -t]);
        }
        let mut distances = Vec::new();
        for t in thresholds.into_iter().chain([0.0, f64::INFINITY, f64::NAN]) {
            let limit = squared_limit(t);
            for l in [limit, limit.next_up(), limit.next_down()] {
                for (px, py) in [(0.0, 0.0), (-0.0, 1.0), (f64::NAN, 0.0), (2.0, -1.0)] {
                    distances.push(distance_test(px, py, l));
                }
            }
        }
        let mut bands = Vec::new();
        for center in [0.0, -0.0, 1.0, f64::NAN, f64::INFINITY, 5e-324] {
            for band in [0.0, 1.0, 5e-324, f64::INFINITY, f64::NAN, 4.0] {
                bands.push(band_test(center, band));
            }
        }
        let mut state = 0x0DD5_EED5_0DD5_EED5u64;
        let mut pick = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            images[(state % images.len() as u64) as usize]
        };
        // Three bases per length shift the slices against the vector lanes;
        // the lengths cover short slices, whole blocks and every remainder
        // the masked last block must count exactly once.
        let xs: Vec<f64> = (0..70).map(|_| pick()).collect();
        let ys: Vec<f64> = (0..70).map(|_| pick()).collect();
        let row_by_row = |xs: &[f64], ys: &[f64], test: &dyn Fn(f64, f64) -> bool| {
            xs.iter().zip(ys).filter(|&(&x, &y)| test(x, y)).count()
        };
        for len in 0..=67 {
            for base in 0..3 {
                let (xs, ys) = (&xs[base..base + len], &ys[base..base + len]);
                for test in &distances {
                    let rows = row_by_row(xs, ys, test);
                    assert_eq!(count_portable(xs, ys, test), rows, "{len} rows");
                    assert_eq!(count_hits(xs, ys, test), rows);
                }
                for test in &bands {
                    let rows = row_by_row(xs, ys, test);
                    assert_eq!(count_portable(xs, ys, test), rows, "{len} rows");
                    assert_eq!(count_hits(xs, ys, test), rows);
                }
            }
        }
    }

    #[test]
    fn scan_matches_the_tuple_walk_over_every_value_class() {
        let mut w = Window::with_columns(10_000, &[], &[1, 2], 4, IndexKind::Postings);
        let rows = [
            (100, Value::Float(1.0), Value::Float(1.0)),
            (200, Value::Int(4), Value::Int(5)), // exactly 5 away from (1, 1)
            (300, Value::Float(f64::NAN), Value::Float(1.0)),
            (150, Value::Float(2.0), Value::Float(2.0)), // late
            (400, Value::Null, Value::Float(1.0)),
            (500, Value::Str("x".into()), Value::Bool(true)),
            (600, Value::Float(-0.0), Value::Float(0.0)),
            (350, Value::Float(f64::INFINITY), Value::Float(0.0)), // late, sealed segment
            (700, Value::Float(3.0), Value::Float(1.5)),
        ];
        for (seq, (ts, x, y)) in rows.into_iter().enumerate() {
            w.insert(point(seq as u64, ts, x, y));
        }
        // A short tuple: both scan columns missing.
        w.insert(Tuple::new(
            StreamIndex(0),
            9,
            Timestamp::from_millis(800),
            vec![Value::Int(9)],
        ));
        assert!(w.stats().segments > 1);
        assert_scan_is_the_walk(&w);
        assert_eq!(
            scan_seqs(&w, distance(1.0, 1.0, 5.0)),
            vec![0, 3, 6, 8],
            "the pair exactly at the threshold stays out"
        );
        // Band over scan column 0, inclusive at the band.
        let band = ScanPredicate::Band {
            center: 2.0,
            band: 1.0,
        };
        assert_eq!(scan_seqs(&w, band), vec![0, 3, 8]);
        // Expiry keeps the columns aligned with the rows.
        w.expire_before(Timestamp::from_millis(160));
        assert_scan_is_the_walk(&w);
        assert_eq!(scan_seqs(&w, band), vec![8]);
    }

    #[test]
    fn scan_columns_stay_in_live_order_under_late_inserts_and_expiry() {
        // Rows on a half-unit diagonal, so every row has its own verdicts.
        fn feed(w: &mut Window, seq: u64, ts: u64) {
            let at = seq as f64 * 0.5;
            w.insert(point(seq, ts, Value::Float(at), Value::Float(at - 1.0)));
            assert_scan_is_the_walk(w);
        }
        let seqs = |w: &Window| w.iter().map(|t| t.seq).collect::<Vec<_>>();
        for capacity in [4, 1024] {
            // A fully reversed feed: every insert after the first is late.
            let mut w = Window::with_columns(10_000, &[], &[1, 2], capacity, IndexKind::Postings);
            for seq in 0..12u64 {
                feed(&mut w, seq, 1_200 - 100 * seq);
            }
            assert_eq!(seqs(&w), (0..12).rev().collect::<Vec<_>>());
            assert_eq!(w.stats().unordered_inserts, 11);

            // Late rows into a sealed front segment, with expiry in between:
            // the dead prefix grows while the live suffix keeps shifting.
            let mut w = Window::with_columns(10_000, &[], &[1, 2], capacity, IndexKind::Postings);
            for seq in 0..12u64 {
                feed(&mut w, seq, 100 * (seq + 1));
            }
            assert_eq!(w.stats().segments > 1, capacity == 4);
            feed(&mut w, 12, 250);
            feed(&mut w, 13, 150);
            assert_eq!(w.expire_before(Timestamp::from_millis(200)), 2);
            assert_scan_is_the_walk(&w);
            feed(&mut w, 14, 350);
            feed(&mut w, 15, 200); // older than every live row of the front
            assert_eq!(w.expire_before(Timestamp::from_millis(260)), 3);
            assert_scan_is_the_walk(&w);
            feed(&mut w, 16, 1_150);
            assert_eq!(seqs(&w), vec![2, 14, 3, 4, 5, 6, 7, 8, 9, 10, 16, 11]);
            feed(&mut w, 17, 450);

            // Duplicate timestamps: ties keep insertion order, appended or
            // late, and the columns follow.
            let mut w = Window::with_columns(10_000, &[], &[1, 2], capacity, IndexKind::Postings);
            for (seq, ts) in [100, 300, 300, 200, 300, 200, 100, 400, 300]
                .into_iter()
                .enumerate()
            {
                feed(&mut w, seq as u64, ts);
            }
            assert_eq!(seqs(&w), vec![0, 6, 3, 5, 1, 2, 4, 8, 7]);
        }
    }

    #[test]
    fn live_bytes_count_scan_columns_only_where_they_are_planned() {
        let rows: Vec<Tuple> = (0..10u64)
            .map(|i| {
                point(
                    i,
                    100 * (i + 1),
                    Value::Float(i as f64),
                    Value::Str("ab".into()),
                )
            })
            .collect();
        let tuple_bytes: u64 = rows.iter().map(estimated_bytes).sum();
        assert_eq!(
            tuple_bytes,
            10 * (std::mem::size_of::<Tuple>() + ARC_HEADER + 3 * std::mem::size_of::<Value>() + 2)
                as u64,
            "an arena slot plus one payload allocation and its string buffer"
        );
        // Plain and hash-indexed windows allocate and account nothing new.
        let mut plain = Window::new(10_000);
        let mut indexed = Window::with_indexed_columns(10_000, &[0]);
        let mut scanned = Window::with_columns(
            10_000,
            &[],
            &[1, 2],
            DEFAULT_SEGMENT_ROWS,
            IndexKind::Postings,
        );
        for t in &rows {
            plain.insert(t.clone());
            indexed.insert(t.clone());
            scanned.insert(t.clone());
        }
        assert_eq!(plain.stats().live_bytes_est, tuple_bytes);
        assert_eq!(indexed.stats().live_bytes_est, tuple_bytes);
        assert!(plain.segments.iter().all(|s| s.scan.is_empty()));
        assert!(indexed.segments.iter().all(|s| s.scan.is_empty()));
        // Two f64 columns: 16 bytes per live row, released on expiry.
        assert_eq!(scanned.stats().live_bytes_est, tuple_bytes + 10 * 16);
        scanned.expire_before(Timestamp::from_millis(450));
        let left: u64 = rows[4..].iter().map(estimated_bytes).sum();
        assert_eq!(scanned.stats().live_bytes_est, left + 6 * 16);
        scanned.expire_before(Timestamp::from_millis(5_000));
        assert_eq!(scanned.stats().live_bytes_est, 0);
    }

    #[test]
    fn counts_and_postings_windows_keep_one_map_each_and_agree() {
        let mut counts = Window::with_key_counts(1_000, &[0], 4);
        let mut postings = Window::with_segment_capacity(1_000, &[0], 4);
        assert_eq!(counts.index_kind(), Some(IndexKind::Counts));
        assert_eq!(postings.index_kind(), Some(IndexKind::Postings));
        for i in 0..14u64 {
            // Every fifth row lands late, behind its predecessor.
            let ts = 100 * (i + 1) - 150 * (i % 5 == 4) as u64;
            counts.insert(tup(i, ts, (i % 3) as i64));
            postings.insert(tup(i, ts, (i % 3) as i64));
        }
        for bound in [0, 250, 850, 1_201, 1_500] {
            let bound = Timestamp::from_millis(bound);
            assert_eq!(counts.expire_before(bound), postings.expire_before(bound));
            assert!(counts.segments.iter().all(|s| s.postings.is_empty()));
            assert!(postings.index.counts.is_empty());
            for key in 0..3 {
                assert_eq!(counts.count_key(0, key), postings.count_key(0, key));
                let a: Vec<u64> = counts.matching(0, key).map(|t| t.seq).collect();
                let b: Vec<u64> = postings.matching(0, key).map(|t| t.seq).collect();
                assert_eq!(a, b, "the counts window's scan is the bucket walk");
            }
            // A counts window tallies live keys only.
            assert_eq!(
                counts.index.counts[0].values().sum::<u64>(),
                counts.len() as u64
            );
        }
        assert_eq!(counts.stats().segments, postings.stats().segments);
    }

    #[test]
    fn spare_segment_recycles_dropped_buffers() {
        let mut w = Window::with_segment_capacity(1_000, &[0], 4);
        for round in 0..5u64 {
            for i in 0..4u64 {
                let seq = round * 4 + i;
                w.insert(tup(seq, 100 * (seq + 1), 1));
            }
            // Expire everything inserted so far; the dropped segment's
            // buffers come back for the next round's tail.
            w.expire_before(Timestamp::from_millis(100 * ((round + 1) * 4) + 1));
            assert!(w.is_empty());
        }
        assert_eq!(w.stats().expired, 20);
        assert_eq!(w.stats().segments, 0);
    }
}
