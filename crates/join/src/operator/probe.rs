//! Probe access paths: the per-probe soundness gates, index-assisted
//! counting, indexed enumeration, the typed-column scan kernel and the
//! exhaustive tuple-at-a-time reference scan.
//!
//! Everything here is *read-only* over the windows: a probe never mutates
//! operator state (expiry and insertion live in
//! [`insert`](super::insert)).  The two entry points —
//! `probe_count` and `probe_enumerate` — choose between the hash-indexed
//! bucket walks and the nested-loop scan per probing tuple, according to
//! the plan and the dynamic soundness gates documented in
//! [`planner`](crate::planner).

use super::MswjOperator;
use crate::condition::ScanStructure;
use crate::result::JoinResult;
use crate::window::{classify, scan_image, Bucket, KeyClass, ScanPredicate};
use mswj_types::{Tuple, Value};

/// Per-probe decision of the indexed access path.
enum Gate {
    /// Hash lookups are provably equivalent to the scan for this probe.
    /// Carries the probe's own bucket key (0 for anchor probes, which read
    /// one key per satellite from the probing tuple instead).
    Engage(i64),
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

use crate::planner::ProbePlan;

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
            KeyClass::Key(k) => Gate::Engage(k),
            // Floats can equal integers under join_eq's numeric coercion,
            // and strings/bools can equal their own kind in other windows —
            // neither is answerable from the i64 buckets.
            KeyClass::Unindexable => Gate::Fallback,
        }
    }

    fn common_key_gate(&self, i: usize, tuple: &Tuple, columns: &[usize]) -> Gate {
        let key = match Self::classify_probe(tuple.value(columns[i])) {
            Gate::Engage(k) => k,
            other => return other,
        };
        for (j, w) in self.windows.iter().enumerate() {
            if j != i && !w.index_usable(columns[j]) {
                return Gate::Fallback;
            }
        }
        Gate::Engage(key)
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
                Gate::Engage(_) => {}
            }
            if !self.windows[j].index_usable(cols.other_cols[j]) {
                fallback = true;
            }
        }
        if fallback {
            Gate::Fallback
        } else {
            Gate::Engage(0)
        }
    }

    fn star_satellite_gate(
        &self,
        i: usize,
        anchor: usize,
        tuple: &Tuple,
        cols: &StarCols<'_>,
    ) -> Gate {
        let key = match Self::classify_probe(tuple.value(cols.other_cols[i])) {
            Gate::Engage(k) => k,
            other => return other,
        };
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
        Gate::Engage(key)
    }

    // ------------------------------------------------------------------
    // Counting probes
    // ------------------------------------------------------------------

    /// Index-assisted (or enumerated) count of the join results derived by
    /// a probing tuple of stream `i`; the flag reports whether the probe
    /// avoided a window scan.
    pub(super) fn probe_count(&self, i: usize, tuple: &Tuple) -> (u64, bool) {
        match &self.plan {
            ProbePlan::CommonKey { columns } => match self.common_key_gate(i, tuple, columns) {
                Gate::Engage(key) => {
                    let mut product = 1u64;
                    for &j in &self.order {
                        if j == i {
                            continue;
                        }
                        let c = self.windows[j].count_key(columns[j], key);
                        if c == 0 {
                            return (0, true);
                        }
                        product = product.saturating_mul(c);
                    }
                    (product, true)
                }
                Gate::Barren => (0, true),
                Gate::Fallback => (self.enumerate_count(i, tuple), false),
            },
            ProbePlan::Star {
                anchor,
                anchor_cols,
                other_cols,
            } => {
                let cols = StarCols {
                    anchor_cols,
                    other_cols,
                };
                if i == *anchor {
                    match self.star_anchor_gate(*anchor, tuple, &cols) {
                        Gate::Engage(_) => {
                            let mut product = 1u64;
                            for &j in &self.order {
                                if j == *anchor {
                                    continue;
                                }
                                let key = tuple
                                    .value(anchor_cols[j])
                                    .and_then(Value::as_int)
                                    .expect("gate guarantees integer pair keys");
                                let c = self.windows[j].count_key(other_cols[j], key);
                                if c == 0 {
                                    return (0, true);
                                }
                                product = product.saturating_mul(c);
                            }
                            (product, true)
                        }
                        Gate::Barren => (0, true),
                        Gate::Fallback => (self.enumerate_count(i, tuple), false),
                    }
                } else {
                    match self.star_satellite_gate(i, *anchor, tuple, &cols) {
                        Gate::Engage(own_key) => {
                            (self.count_star_satellite(i, *anchor, own_key, &cols), true)
                        }
                        Gate::Barren => (0, true),
                        Gate::Fallback => (self.enumerate_count(i, tuple), false),
                    }
                }
            }
            ProbePlan::NestedLoop => match &self.scan {
                Some(scan) => (self.scan_count(scan, i, tuple), false),
                None => (self.enumerate_count(i, tuple), false),
            },
        }
    }

    /// Satellite-probe counting: walk only the anchor tuples in the
    /// matching bucket and multiply the other satellites' bucket sizes.
    fn count_star_satellite(
        &self,
        i: usize,
        anchor: usize,
        own_key: i64,
        cols: &StarCols<'_>,
    ) -> u64 {
        let mut total = 0u64;
        'anchor: for a in self.windows[anchor].bucket_iter(cols.anchor_cols[i], own_key) {
            let mut product = 1u64;
            for &k in &self.order {
                if k == anchor || k == i {
                    continue;
                }
                // The gate proved the anchor window sound on this column,
                // so a non-integer value here is inert and never joins.
                let key = match a.value(cols.anchor_cols[k]).and_then(Value::as_int) {
                    Some(v) => v,
                    None => continue 'anchor,
                };
                let c = self.windows[k].count_key(cols.other_cols[k], key);
                if c == 0 {
                    continue 'anchor;
                }
                product = product.saturating_mul(c);
            }
            total = total.saturating_add(product);
        }
        total
    }

    /// Nested-loop count of matching combinations for arbitrary conditions.
    fn enumerate_count(&self, i: usize, tuple: &Tuple) -> u64 {
        let mut count = 0u64;
        self.for_each_combination(i, tuple, &mut |_| count += 1);
        count
    }

    // ------------------------------------------------------------------
    // Enumerating probes
    // ------------------------------------------------------------------

    /// Invokes `f` for every matching combination (one live tuple per other
    /// stream plus the probing tuple at position `i`), choosing the indexed
    /// bucket walk when the gate allows it and the exhaustive scan
    /// otherwise.  Returns whether a window scan was avoided.
    pub(super) fn probe_enumerate<'a>(
        &'a self,
        i: usize,
        tuple: &'a Tuple,
        f: &mut dyn FnMut(&[&'a Tuple]),
    ) -> bool {
        match &self.plan {
            ProbePlan::CommonKey { columns } => match self.common_key_gate(i, tuple, columns) {
                Gate::Engage(key) => {
                    self.enumerate_common_key(i, tuple, columns, key, f);
                    true
                }
                Gate::Barren => true,
                Gate::Fallback => {
                    self.for_each_combination(i, tuple, f);
                    false
                }
            },
            ProbePlan::Star {
                anchor,
                anchor_cols,
                other_cols,
            } => {
                let cols = StarCols {
                    anchor_cols,
                    other_cols,
                };
                let gate = if i == *anchor {
                    self.star_anchor_gate(*anchor, tuple, &cols)
                } else {
                    self.star_satellite_gate(i, *anchor, tuple, &cols)
                };
                match gate {
                    Gate::Engage(own_key) => {
                        if i == *anchor {
                            self.enumerate_star_anchor(i, tuple, &cols, f);
                        } else {
                            self.enumerate_star_satellite(i, *anchor, tuple, own_key, &cols, f);
                        }
                        true
                    }
                    Gate::Barren => true,
                    Gate::Fallback => {
                        self.for_each_combination(i, tuple, f);
                        false
                    }
                }
            }
            ProbePlan::NestedLoop => {
                match &self.scan {
                    Some(scan) => self.scan_enumerate(scan, i, tuple, f),
                    None => self.for_each_combination(i, tuple, f),
                }
                false
            }
        }
    }

    fn enumerate_common_key<'a>(
        &'a self,
        i: usize,
        tuple: &'a Tuple,
        columns: &[usize],
        key: i64,
        f: &mut dyn FnMut(&[&'a Tuple]),
    ) {
        let m = self.windows.len();
        let mut levels: Vec<(usize, Bucket<'a>)> = Vec::with_capacity(m - 1);
        for &j in &self.order {
            if j == i {
                continue;
            }
            match self.windows[j].bucket(columns[j], key) {
                Some(bucket) => levels.push((j, bucket)),
                None => return, // one empty bucket kills every combination
            }
        }
        let mut slots: Vec<&Tuple> = vec![tuple; m];
        emit_product(&levels, &mut slots, f);
    }

    fn enumerate_star_anchor<'a>(
        &'a self,
        anchor: usize,
        tuple: &'a Tuple,
        cols: &StarCols<'_>,
        f: &mut dyn FnMut(&[&'a Tuple]),
    ) {
        let m = self.windows.len();
        let mut levels: Vec<(usize, Bucket<'a>)> = Vec::with_capacity(m - 1);
        for &j in &self.order {
            if j == anchor {
                continue;
            }
            let key = tuple
                .value(cols.anchor_cols[j])
                .and_then(Value::as_int)
                .expect("gate guarantees integer pair keys");
            match self.windows[j].bucket(cols.other_cols[j], key) {
                Some(bucket) => levels.push((j, bucket)),
                None => return,
            }
        }
        let mut slots: Vec<&Tuple> = vec![tuple; m];
        emit_product(&levels, &mut slots, f);
    }

    fn enumerate_star_satellite<'a>(
        &'a self,
        i: usize,
        anchor: usize,
        tuple: &'a Tuple,
        own_key: i64,
        cols: &StarCols<'_>,
        f: &mut dyn FnMut(&[&'a Tuple]),
    ) {
        let m = self.windows.len();
        let mut slots: Vec<&Tuple> = vec![tuple; m];
        let mut levels: Vec<(usize, Bucket<'a>)> = Vec::with_capacity(m.saturating_sub(2));
        'anchor: for a in self.windows[anchor].bucket_iter(cols.anchor_cols[i], own_key) {
            levels.clear();
            for &k in &self.order {
                if k == anchor || k == i {
                    continue;
                }
                // Sound anchor column: non-integer values are inert here.
                let key = match a.value(cols.anchor_cols[k]).and_then(Value::as_int) {
                    Some(v) => v,
                    None => continue 'anchor,
                };
                match self.windows[k].bucket(cols.other_cols[k], key) {
                    Some(bucket) => levels.push((k, bucket)),
                    None => continue 'anchor,
                }
            }
            slots[anchor] = a;
            emit_product(&levels, &mut slots, f);
        }
    }

    // ------------------------------------------------------------------
    // Typed-column scan kernel (nested-loop plans with a scan structure)
    // ------------------------------------------------------------------
    //
    // Both entry points reproduce `recurse` verdict for verdict and in its
    // emission order — streams bound in ascending order, each window walked
    // in timestamp order — but evaluate the predicate over the windows'
    // scan columns.  Band joins bind stream 0 first: every other stream is
    // compared against stream 0's image only, so once it is known (it is
    // the probe, or the stream-0 row picked at the outermost level) the
    // remaining windows filter independently of each other.

    /// The predicate a probing tuple of stream `i` imposes on the first
    /// window its scan visits: the other window of a distance join; for a
    /// band join, window 0 — or, when the probe *is* stream 0, every window.
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

    /// Number of matching combinations for a probing tuple of stream `i`,
    /// computed without touching a window tuple or the heap.
    fn scan_count(&self, scan: &ScanStructure, i: usize, tuple: &Tuple) -> u64 {
        match self.probe_predicate(scan, i, tuple) {
            pred @ ScanPredicate::Distance { .. } => self.windows[1 - i].scan(pred, |_, _| {}),
            ScanPredicate::Band { center, band } if i == 0 => self.band_product(i, center, band),
            // Two streams: window 0's count has nothing to be multiplied
            // with, so the scan stays a pure count (no visit pass).
            pred @ ScanPredicate::Band { .. } if self.windows.len() == 2 => {
                self.windows[0].scan(pred, |_, _| {})
            }
            pred @ ScanPredicate::Band { band, .. } => {
                let mut total = 0u64;
                self.windows[0].scan(pred, |_, first| {
                    total = total.saturating_add(self.band_product(i, first, band));
                });
                total
            }
        }
    }

    /// Product over every stream other than 0 and `probe` of its window's
    /// count of rows within `band` of `center` (1 when there is none).
    fn band_product(&self, probe: usize, center: f64, band: f64) -> u64 {
        let mut product = 1u64;
        for (j, w) in self.windows.iter().enumerate().skip(1) {
            if j == probe {
                continue;
            }
            let c = w.scan(ScanPredicate::Band { center, band }, |_, _| {});
            if c == 0 {
                return 0;
            }
            product = product.saturating_mul(c);
        }
        product
    }

    /// Invokes `f` for every matching combination of a probing tuple of
    /// stream `i`, in the order `recurse` would.
    fn scan_enumerate<'a>(
        &'a self,
        scan: &ScanStructure,
        i: usize,
        tuple: &'a Tuple,
        f: &mut dyn FnMut(&[&'a Tuple]),
    ) {
        let pred = self.probe_predicate(scan, i, tuple);
        with_slots(self.windows.len(), tuple, |slots| match pred {
            ScanPredicate::Distance { .. } => {
                self.windows[1 - i].scan(pred, |row, _| {
                    slots[1 - i] = row;
                    f(slots);
                });
            }
            ScanPredicate::Band { center, band } if i == 0 => {
                self.band_levels(1, i, center, band, slots, f);
            }
            ScanPredicate::Band { band, .. } => {
                self.windows[0].scan(pred, |row, first| {
                    slots[0] = row;
                    self.band_levels(1, i, first, band, slots, f);
                });
            }
        });
    }

    /// Binds streams `j..m` except `probe` to every row within `band` of
    /// `center`, invoking `f` once per complete combination.
    fn band_levels<'a>(
        &'a self,
        j: usize,
        probe: usize,
        center: f64,
        band: f64,
        slots: &mut [&'a Tuple],
        f: &mut dyn FnMut(&[&'a Tuple]),
    ) {
        if j == self.windows.len() {
            f(slots);
        } else if j == probe {
            self.band_levels(j + 1, probe, center, band, slots, f);
        } else {
            self.windows[j].scan(ScanPredicate::Band { center, band }, |row, _| {
                slots[j] = row;
                self.band_levels(j + 1, probe, center, band, slots, f);
            });
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
        with_slots(self.windows.len(), tuple, |slots| {
            self.recurse(0, i, tuple, slots, f);
        });
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
            // Zone-map pruning: skip whole segments the plan's equi-join
            // proves barren for this probing tuple.  Pruned tuples would
            // fail `condition.matches` at the leaves anyway, so the emitted
            // combinations (and their order) are unchanged.
            let prune = self.prune_spec(probe, tuple, j);
            for candidate in self.windows[j].iter_pruned(prune) {
                slots[j] = candidate;
                self.recurse(j + 1, probe, tuple, slots, f);
            }
        }
    }

    /// The `(column, probe key)` pair the plan's equi-join imposes on
    /// window `j` when stream `probe` contributes `tuple` — the zone-map
    /// prune spec for the fallback scan.  `None` when the plan ties the two
    /// streams by no direct equality (nested-loop plans, star pairs not
    /// involving the anchor): those scans stay exhaustive.
    fn prune_spec<'a>(
        &self,
        probe: usize,
        tuple: &'a Tuple,
        j: usize,
    ) -> Option<(usize, &'a Value)> {
        match &self.plan {
            ProbePlan::CommonKey { columns } => Some((columns[j], tuple.value(columns[probe])?)),
            ProbePlan::Star {
                anchor,
                anchor_cols,
                other_cols,
            } => {
                if probe == *anchor {
                    Some((other_cols[j], tuple.value(anchor_cols[j])?))
                } else if j == *anchor {
                    Some((anchor_cols[probe], tuple.value(other_cols[probe])?))
                } else {
                    None
                }
            }
            ProbePlan::NestedLoop => None,
        }
    }

    /// Materializes the probe of an enumerating operator, forwarding each
    /// combination to `emit` as an owned [`JoinResult`]; returns the result
    /// count and whether the probe stayed indexed.
    pub(super) fn probe_materialize(
        &self,
        i: usize,
        tuple: &Tuple,
        emit: &mut dyn FnMut(JoinResult),
    ) -> (u64, bool) {
        let mut n_join = 0u64;
        let indexed = self.probe_enumerate(i, tuple, &mut |combo| {
            n_join += 1;
            emit(JoinResult::new(combo.iter().map(|&t| t.clone()).collect()));
        });
        (n_join, indexed)
    }
}

/// Runs `body` over a combination buffer of `m` slots, each preset to
/// `fill` — on the stack for every arity a query plausibly has, so a scan
/// probe allocates nothing.
fn with_slots<'a, R>(m: usize, fill: &'a Tuple, body: impl FnOnce(&mut [&'a Tuple]) -> R) -> R {
    const INLINE: usize = 8;
    if m <= INLINE {
        body(&mut [fill; INLINE][..m])
    } else {
        body(&mut vec![fill; m])
    }
}

/// Emits the cross product of the given buckets into `slots` (one level per
/// stream position), invoking `f` once per complete combination.  The plan
/// gates guarantee every combination reached here satisfies the equi-join,
/// so the condition is not re-evaluated.
fn emit_product<'a>(
    levels: &[(usize, Bucket<'a>)],
    slots: &mut Vec<&'a Tuple>,
    f: &mut dyn FnMut(&[&'a Tuple]),
) {
    match levels.split_first() {
        None => f(slots),
        Some(((j, bucket), rest)) => {
            for t in bucket.iter() {
                slots[*j] = t;
                emit_product(rest, slots, f);
            }
        }
    }
}
