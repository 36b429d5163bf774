//! The probe walk: per probing tuple, **gate → root + fan of sources →
//! count or walk**.
//!
//! Alg. 2 has one "probe the other windows" step, and so does this module:
//! `probe`, called once per in-order arrival — and once per out-of-order
//! tuple, kept or dropped, in counting mode, to count the results it lost.
//! Everything here is *read-only* over the windows (expiry and insertion
//! live in [`insert`](super::insert)).
//!
//! 1. **Gate.**  `resolve` matches plan × role of the probing stream once
//!    and asks that shape's soundness gate (documented in
//!    [`planner`](crate::planner)) whether the access path is provably
//!    equivalent to the exhaustive scan for *this* tuple: `Engage` it,
//!    answer zero without touching a window (`Barren`: a `Null` key), or
//!    run the tuple-at-a-time reference scan (`Fallback`, also the whole
//!    of a nested-loop plan without a scan structure).
//! 2. **Root + fan.**  An engaged probe visits every other stream exactly
//!    once, as one `Level` each — "the hash bucket of `(window, col)` under
//!    the key the binding row carries in column `from`" or "the rows
//!    passing the predicate the binding row imposes".  The binding row is
//!    the probing tuple, except under a *root*: the first level is then
//!    bound to the probe and walked, and each of its rows binds the rest.
//!    Levels bound to the same row are mutually independent, so a probe
//!    derives `Σ_root ∏_level |source|` results:
//!
//!    | plan × role | root | level source (visiting order) | key origin |
//!    |---|---|---|---|
//!    | common key, any stream | — | bucket `(W_j, columns[j])` (ascending) | probe's `columns[i]` |
//!    | star, anchor | — | bucket `(W_j, other_cols[j])` (ascending) | probe's `anchor_cols[j]` |
//!    | star, satellite `i` | bucket `(W_anchor, anchor_cols[i])` under the probe's `other_cols[i]` | bucket `(W_k, other_cols[k])` (ascending) | root row's `anchor_cols[k]` |
//!    | band, stream 0 (or `m = 2`) | — | scan of `W_j` (ascending) | probe's band image |
//!    | band, stream `i ≠ 0` | scan of `W_0` under the probe's image | scan of `W_j` (ascending) | root row's band image |
//!    | distance | — | scan of `W_{1-i}` | probe's `(x, y)` image |
//!
//!    A root with nothing to fan out to is just a level (`m = 2`), so it
//!    is counted, not walked.
//! 3. **Count or walk.**  A count multiplies the levels'
//!    `Source::count`s (saturating, stopping at the first zero) — O(levels)
//!    work, no allocation, no tuple touched: every probe of a counting
//!    operator, and every out-of-order tuple's loss.  An enumerating operator's
//!    in-order probe pins each level's bucket to its per-segment postings once per binding row
//!    and nests the walks into one combination buffer, in visiting order.
//!
//! Every probe binds the other streams in ascending order, behind its root
//! if it has one, and walks each window in timestamp order: `recurse`'s
//! emission order wherever the root is stream 0, which the differential
//! suites compare verbatim.  Band joins root at stream 0 because every
//! other stream is compared against stream 0's image only: once it is
//! known the remaining windows filter independently.

use super::MswjOperator;
use crate::condition::ScanStructure;
use crate::planner::ProbePlan;
use crate::result::JoinResult;
use crate::window::{classify, scan_image, Bucket, KeyClass, ScanPredicate, Window};
use mswj_types::{Tuple, Value};

/// Per-probe decision of the access path.
enum Gate {
    /// The plan's access path is provably equivalent to the exhaustive
    /// scan for this probe.
    Engage,
    /// The probing tuple's key is `Null` or missing: no combination can
    /// satisfy the equi-join, so the probe derives zero results without
    /// touching any window.
    Barren,
    /// Equivalence cannot be guaranteed (non-integer key values in play):
    /// the probe must use the exhaustive nested-loop scan.
    Fallback,
}

/// The two column maps of a star plan, bundled to keep signatures short.
struct StarCols<'a> {
    anchor_cols: &'a [usize],
    other_cols: &'a [usize],
}

/// What one other stream contributes to a probe, before it is bound to a
/// row (the probing tuple, or a root row).
#[derive(Clone, Copy)]
enum Level<'p> {
    /// The hash bucket of the stream's column `col` under the integer the
    /// binding row carries in its column `from`.
    Key { col: usize, from: usize },
    /// The stream's rows passing the predicate the binding row imposes.
    Scan(&'p ScanStructure),
}

/// A [`Level`] bound to a row: the rows of one window that complete a
/// combination, independently of every other level bound to the same row.
#[derive(Clone, Copy)]
enum Source<'a> {
    /// The live rows of `window` whose column `col` is `Int(key)`.
    Bucket {
        window: &'a Window,
        col: usize,
        key: i64,
    },
    /// The live rows of `window` satisfying `pred` over its scan columns.
    Scan {
        window: &'a Window,
        pred: ScanPredicate,
    },
}

impl<'a> Source<'a> {
    /// Number of rows, without touching one: an O(1) index lookup, or a
    /// pure count pass over the scan columns.
    // Inlined with `source` into `product`, a counting fan never builds a
    // `Source` in memory: per binding row it is a key read and an index
    // lookup per level (measured: the star-satellite root loop of Dx4syn).
    #[inline(always)]
    fn count(&self) -> u64 {
        match *self {
            Source::Bucket { window, col, key } => window.count_key(col, key),
            Source::Scan { window, pred } => window.scan(pred, |_| {}),
        }
    }

    /// Readies the source, as stream `j`'s level, for the repeated walks of
    /// a nested fan: a bucket is resolved once, here, not once per outer
    /// combination; a scan walks as it is.  `None` for an empty bucket.
    fn pin(self, j: usize) -> Option<Pinned<'a>> {
        let bucket = match self {
            Source::Bucket { window, col, key } => Some(window.bucket(col, key)?),
            Source::Scan { .. } => None,
        };
        Some((j, self, bucket))
    }

    /// Hands `visit` every row in timestamp order, in one pass that
    /// allocates nothing.
    fn walk(&self, mut visit: impl FnMut(&'a Tuple)) {
        match *self {
            Source::Bucket { window, col, key } => window.bucket_iter(col, key).for_each(visit),
            Source::Scan { window, pred } => {
                window.scan(pred, &mut visit);
            }
        }
    }
}

/// One level of a walked fan: its stream, its source and — for a bucket,
/// which the nesting re-walks once per outer combination — the bucket
/// resolved to its per-segment postings.
type Pinned<'a> = (usize, Source<'a>, Option<Bucket<'a>>);

impl MswjOperator {
    /// Product of the other windows' cardinalities: the cross-join size at
    /// the arrival of a probing tuple of stream `i`.
    pub(super) fn cross_size(&self, i: usize) -> u64 {
        self.windows
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, w)| w.len() as u64)
            .fold(1u64, u64::saturating_mul)
    }

    // ------------------------------------------------------------------
    // Per-probe gates: when is the indexed path provably equivalent?
    // ------------------------------------------------------------------

    /// Classifies the probing tuple's own key value, with the same
    /// [`KeyClass`] rules the windows use for index maintenance — the gate
    /// is only sound because the two sides agree case-for-case.
    fn classify_probe(v: Option<&Value>) -> Gate {
        match classify(v) {
            // Null/missing keys fail every join_eq comparison.
            KeyClass::Inert => Gate::Barren,
            KeyClass::Key(_) => Gate::Engage,
            // Floats can equal integers under join_eq's numeric coercion,
            // and strings/bools can equal their own kind in other windows —
            // neither is answerable from the i64 buckets.
            KeyClass::Unindexable => Gate::Fallback,
        }
    }

    fn common_key_gate(&self, i: usize, tuple: &Tuple, columns: &[usize]) -> Gate {
        match Self::classify_probe(tuple.value(columns[i])) {
            Gate::Engage => {}
            other => return other,
        }
        for (j, w) in self.windows.iter().enumerate() {
            if j != i && !w.index_usable(columns[j]) {
                return Gate::Fallback;
            }
        }
        Gate::Engage
    }

    fn star_anchor_gate(&self, anchor: usize, tuple: &Tuple, cols: &StarCols<'_>) -> Gate {
        let mut fallback = false;
        for j in 0..self.windows.len() {
            if j == anchor {
                continue;
            }
            match Self::classify_probe(tuple.value(cols.anchor_cols[j])) {
                // A Null/missing pair key fails every combination outright,
                // regardless of any soundness concern elsewhere.
                Gate::Barren => return Gate::Barren,
                Gate::Fallback => fallback = true,
                Gate::Engage => {}
            }
            if !self.windows[j].index_usable(cols.other_cols[j]) {
                fallback = true;
            }
        }
        if fallback {
            Gate::Fallback
        } else {
            Gate::Engage
        }
    }

    #[inline(always)] // like `resolve`, its one caller
    fn star_satellite_gate(
        &self,
        i: usize,
        anchor: usize,
        tuple: &Tuple,
        cols: &StarCols<'_>,
    ) -> Gate {
        match Self::classify_probe(tuple.value(cols.other_cols[i])) {
            Gate::Engage => {}
            other => return other,
        }
        // The anchor window must be sound on *every* anchor-side column:
        // on anchor_cols[i] for the bucket lookup itself, and on the other
        // pair columns so that skipping non-integer anchor values (which
        // are then provably inert) is equivalent to the scan.
        for j in 0..self.windows.len() {
            if j == anchor {
                continue;
            }
            if !self.windows[anchor].index_usable(cols.anchor_cols[j]) {
                return Gate::Fallback;
            }
            if j != i && !self.windows[j].index_usable(cols.other_cols[j]) {
                return Gate::Fallback;
            }
        }
        Gate::Engage
    }

    // ------------------------------------------------------------------
    // The probe walk
    // ------------------------------------------------------------------

    /// Derives the join results of a probing tuple of stream `i`: their
    /// number, and whether the probe avoided scanning a window.  With
    /// `enumerate` (an enumerating operator's in-order probe) every
    /// combination also goes to `emit` as an owned [`JoinResult`]; without
    /// it — a counting operator, or any operator counting an out-of-order
    /// tuple's loss — `emit` is never called and nothing is allocated.
    // Inlined into both callers, with `resolve`, `walk`, `product` and the
    // satellite gate: once the late count became a second caller, the
    // compiler left all of them out of line (`nm -S` on a release binary),
    // and every in-order push paid the calls.
    #[inline(always)]
    pub(super) fn probe(
        &self,
        i: usize,
        tuple: &Tuple,
        enumerate: bool,
        emit: &mut dyn FnMut(JoinResult),
    ) -> (u64, bool) {
        let mut out =
            |combo: &[&Tuple]| emit(JoinResult::new(combo.iter().map(|&t| t.clone()).collect()));
        let unbound = (0, Level::Key { col: 0, from: 0 });
        let (mut inline, mut spill) = ([unbound; INLINE], Vec::new());
        let levels = buffer(&mut inline, &mut spill, self.windows.len() - 1, || unbound);
        let (gate, rooted) = self.resolve(i, tuple, levels);
        match gate {
            Gate::Engage => {
                let n = self.walk(i, tuple, levels, rooted, enumerate, &mut out);
                (n, self.plan.is_indexed())
            }
            Gate::Barren => (0, true),
            Gate::Fallback => {
                let mut n = 0u64;
                self.for_each_combination(i, tuple, &mut |combo| {
                    n += 1;
                    if enumerate {
                        out(combo);
                    }
                });
                (n, false)
            }
        }
    }

    /// `Σ_root ∏_level |source|` for a probing tuple of stream `i`: the fan
    /// of `levels` bound to the probe itself, or — `rooted` — the first
    /// level bound to the probe and walked, each of its rows binding the
    /// fan of the rest.
    #[inline(always)] // with `resolve`, into each inlined copy of `probe`
    fn walk<'a>(
        &'a self,
        i: usize,
        tuple: &'a Tuple,
        levels: &[(usize, Level<'_>)],
        rooted: bool,
        enumerate: bool,
        out: &mut dyn FnMut(&[&'a Tuple]),
    ) -> u64 {
        // One fan: a count multiplies, an enumeration nests.
        let mut fan = |by, row: &'a Tuple, levels: &[(usize, Level<'_>)]| {
            if enumerate {
                self.nested(tuple, by, row, levels, out)
            } else {
                self.product(by, row, levels)
            }
        };
        let Some((&(r, root), rest)) = levels.split_first().filter(|_| rooted) else {
            return fan(i, tuple, levels);
        };
        let mut total = 0u64;
        if let Some(source) = self.source(r, root, i, tuple) {
            source.walk(|row| total = total.saturating_add(fan(r, row, rest)));
        }
        total
    }

    /// The one place plan × role is matched: writes the level of every
    /// stream other than `i` into `levels` (one slot each) in visiting
    /// order — ascending, behind the root if there is one — and returns
    /// the shape's gate verdict and whether the first level is a root:
    /// bound to the probe and walked, each of its rows binding the rest.
    /// A root with nothing to fan out to is just a level, so it is counted
    /// rather than walked.
    #[inline(always)]
    fn resolve<'p>(
        &'p self,
        i: usize,
        tuple: &Tuple,
        levels: &mut [(usize, Level<'p>)],
    ) -> (Gate, bool) {
        // Out of line, each probe paid a call and its iterator and closure
        // state spilled to the stack (measured: d3_qd_seq, d4_qd_shard2_inline).
        #[inline(always)]
        fn fill<'p>(
            levels: &mut [(usize, Level<'p>)],
            streams: impl Iterator<Item = usize>,
            level: impl Fn(usize) -> Level<'p>,
        ) {
            for (slot, j) in levels.iter_mut().zip(streams) {
                *slot = (j, level(j));
            }
        }
        let m = self.windows.len();
        let order = (0..m).filter(|&j| j != i);
        match &self.plan {
            ProbePlan::CommonKey { columns } => {
                let from = columns[i];
                fill(levels, order, |j| Level::Key {
                    col: columns[j],
                    from,
                });
                (self.common_key_gate(i, tuple, columns), false)
            }
            ProbePlan::Star {
                anchor,
                anchor_cols,
                other_cols,
            } => {
                let cols = StarCols {
                    anchor_cols,
                    other_cols,
                };
                // A satellite's bucket hangs off the anchor row's pair key.
                let pair = |j: usize| Level::Key {
                    col: other_cols[j],
                    from: anchor_cols[j],
                };
                if i == *anchor {
                    fill(levels, order, pair);
                    (self.star_anchor_gate(i, tuple, &cols), false)
                } else {
                    // The anchor rows pairing with the probe are the root:
                    // each binds the buckets of the other satellites.
                    let root = Level::Key {
                        col: anchor_cols[i],
                        from: other_cols[i],
                    };
                    let streams = std::iter::once(*anchor).chain(order.filter(|j| j != anchor));
                    let level = |j| if j == *anchor { root } else { pair(j) };
                    fill(levels, streams, level);
                    (self.star_satellite_gate(i, *anchor, tuple, &cols), m > 2)
                }
            }
            ProbePlan::NestedLoop => match &self.scan {
                // A band compares every stream against stream 0 only: from
                // any other stream, window 0's matches are the root.
                Some(scan) => {
                    fill(levels, order, |_| Level::Scan(scan));
                    (Gate::Engage, i != 0 && m > 2)
                }
                None => (Gate::Fallback, false),
            },
        }
    }

    /// Binds stream `j`'s `level` to `row`, a tuple of stream `by`.  `None`
    /// when the row carries no integer key: the gates rule that out for
    /// the probing tuple, and prove a root row's window sound on the
    /// column, so such a value is inert and the row joins nothing.
    #[inline(always)]
    fn source<'a>(
        &'a self,
        j: usize,
        level: Level<'_>,
        by: usize,
        row: &Tuple,
    ) -> Option<Source<'a>> {
        let window = &self.windows[j];
        Some(match level {
            Level::Key { col, from } => Source::Bucket {
                window,
                col,
                key: row.value(from).and_then(Value::as_int)?,
            },
            Level::Scan(scan) => Source::Scan {
                window,
                pred: self.probe_predicate(scan, by, row),
            },
        })
    }

    /// How many combinations `row` (of stream `by`) completes across
    /// `levels`, whose sources are mutually independent: the product of
    /// their counts.
    #[inline(always)] // into the root loop of `walk`, once per root row
    fn product(&self, by: usize, row: &Tuple, levels: &[(usize, Level<'_>)]) -> u64 {
        let mut product = 1u64;
        for &(j, level) in levels {
            let count = self.source(j, level, by, row).map_or(0, |s| s.count());
            if count == 0 {
                return 0; // one empty source kills every combination
            }
            product = product.saturating_mul(count);
        }
        product
    }

    /// Hands `out` every combination the probing `tuple` and `row` (of
    /// stream `by`: the probe itself, or a root row) complete across
    /// `levels` — their sources pinned, their walks nested into one
    /// combination buffer — and returns how many there were.
    fn nested<'a>(
        &'a self,
        tuple: &'a Tuple,
        by: usize,
        row: &'a Tuple,
        levels: &[(usize, Level<'_>)],
        out: &mut dyn FnMut(&[&'a Tuple]),
    ) -> u64 {
        let (mut inline, mut spill) = ([const { None }; INLINE], Vec::new());
        let pinned = buffer(&mut inline, &mut spill, levels.len(), || None);
        for (slot, &(j, level)) in pinned.iter_mut().zip(levels) {
            *slot = self.source(j, level, by, row).and_then(|s| s.pin(j));
            if slot.is_none() {
                return 0; // an empty bucket: nothing to walk the others for
            }
        }
        let (mut inline, mut spill) = ([tuple; INLINE], Vec::new());
        let slots = buffer(&mut inline, &mut spill, self.windows.len(), || tuple);
        slots[by] = row;
        nest(pinned, slots, out)
    }

    /// The predicate a tuple of stream `i` imposes on the windows bound to
    /// it: the other window of a distance join; for a band join, window 0
    /// — or, when the tuple *is* of stream 0, every window.
    fn probe_predicate(&self, scan: &ScanStructure, i: usize, tuple: &Tuple) -> ScanPredicate {
        match scan {
            ScanStructure::DistanceWithin { x_cols, y_cols, .. } => ScanPredicate::Distance {
                px: scan_image(tuple.value(x_cols[i])),
                py: scan_image(tuple.value(y_cols[i])),
                limit: self.distance_limit,
            },
            ScanStructure::Band { columns, band } => ScanPredicate::Band {
                center: scan_image(tuple.value(columns[i])),
                band: *band,
            },
        }
    }

    // ------------------------------------------------------------------
    // Tuple-at-a-time reference scan
    // ------------------------------------------------------------------

    /// Invokes `f` for every combination of one live tuple per other stream
    /// (plus the probing tuple at position `i`) that satisfies the join
    /// condition.  Combinations are presented in stream order.
    fn for_each_combination<'a>(
        &'a self,
        i: usize,
        tuple: &'a Tuple,
        f: &mut dyn FnMut(&[&'a Tuple]),
    ) {
        let (mut inline, mut spill) = ([tuple; INLINE], Vec::new());
        let slots = buffer(&mut inline, &mut spill, self.windows.len(), || tuple);
        self.recurse(0, i, tuple, slots, f);
    }

    fn recurse<'a>(
        &'a self,
        j: usize,
        probe: usize,
        tuple: &'a Tuple,
        slots: &mut [&'a Tuple],
        f: &mut dyn FnMut(&[&'a Tuple]),
    ) {
        if j == self.windows.len() {
            if self.condition.matches(slots) {
                f(slots);
            }
            return;
        }
        if j == probe {
            slots[j] = tuple;
            self.recurse(j + 1, probe, tuple, slots, f);
        } else {
            for candidate in self.windows[j].iter() {
                slots[j] = candidate;
                self.recurse(j + 1, probe, tuple, slots, f);
            }
        }
    }
}

/// Entries a probe's level list and combination hold on the stack: every
/// arity a query plausibly has, so neither allocates.
const INLINE: usize = 8;

/// A buffer of `n` preset entries: the first `n` of `inline` when they fit,
/// else `spill`, grown to `n` entries by `fill`.  The caller presets
/// `inline` in place (an array literal): returning it by value from here
/// would copy it once per probe.
#[inline]
fn buffer<'b, T>(
    inline: &'b mut [T; INLINE],
    spill: &'b mut Vec<T>,
    n: usize,
    fill: impl Fn() -> T,
) -> &'b mut [T] {
    match inline.get_mut(..n) {
        Some(entries) => entries,
        None => {
            spill.resize_with(n, fill);
            spill
        }
    }
}

/// Nests the walks of the pinned `levels` (one per stream position) into
/// `slots`, handing `out` every complete combination, and returns how many
/// there were.  The gates guarantee every combination reached here
/// satisfies the condition, so it is not re-evaluated.
fn nest<'a>(
    levels: &[Option<Pinned<'a>>],
    slots: &mut [&'a Tuple],
    out: &mut dyn FnMut(&[&'a Tuple]),
) -> u64 {
    let Some((level, rest)) = levels.split_first() else {
        out(slots);
        return 1;
    };
    let (j, source, bucket) = level.as_ref().expect("`fan` pins every level it nests");
    let mut n = 0u64;
    let step = |row: &'a Tuple| {
        slots[*j] = row;
        n += nest(rest, slots, out);
    };
    match bucket {
        Some(bucket) => bucket.iter().for_each(step),
        None => source.walk(step),
    }
    n
}
