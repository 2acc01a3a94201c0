//! The retained report store — the library form of the paper's report
//! database behind the query/front-end layer (Fig. 3(f)).
//!
//! [`ReportStore`] replaces the linear-scan `Vec` the result path used
//! to end in. Events are kept in `(unit, path)` merge order over a flat
//! arena addressed by **global sequence numbers** (stable across
//! eviction), with two secondary indexes maintained on insert:
//!
//! * **per-unit blocks** — one `(unit, start_seq)` mark per closed
//!   timeunit with events, so [`ReportStore::in_time_range`] binary
//!   searches to a contiguous slice: O(log n + k);
//! * **a path-prefix index** reusing the hierarchy interner — the store
//!   owns a report [`Tree`]; every inserted event is re-homed onto it
//!   and appended to its node's posting list, so
//!   [`ReportStore::under`] resolves the prefix to a subtree and merges
//!   postings instead of scanning every event.
//!
//! The store is **bounded**: [`ReportStore::set_retention`] caps how
//! many closed timeunits of history are retained; closing a unit
//! ([`ReportStore::note_closed`]) evicts the oldest blocks beyond the
//! budget. Sequence numbers keep advancing across eviction, so
//! broadcast cursors ([`ReportStore::events_from`]) detect exactly how
//! much history they missed. Retained history serialises with the rest
//! of the engine state and survives a checkpoint round-trip (the
//! indexes rebuild on load).

use serde::{Deserialize, Serialize, Value};

use tiresias_hierarchy::{CategoryPath, Tree};

use crate::anomaly::AnomalyEvent;

/// Queryable, bounded store of detected anomalies.
///
/// # Example
///
/// ```
/// use tiresias_core::{AnomalyEvent, ReportStore};
///
/// let mut store = ReportStore::new();
/// store.insert(AnomalyEvent {
///     node: tiresias_hierarchy::Tree::new("All").root(), // re-homed on insert
///     path: "VHO-1/IO-2".parse().unwrap(),
///     level: 2,
///     unit: 10,
///     time_secs: 9000,
///     actual: 60.0,
///     forecast: 10.0,
///     kind: tiresias_core::AnomalyKind::Spike,
/// });
/// assert_eq!(store.len(), 1);
/// assert_eq!(store.in_time_range(9, 11).count(), 1);
/// let prefix: tiresias_hierarchy::CategoryPath = "VHO-1".parse().unwrap();
/// assert_eq!(store.under(&prefix).count(), 1);
/// assert_eq!(store.query(0, 20, Some(&prefix), None, 10).len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ReportStore {
    /// The report tree: interner of every retained reported path. Event
    /// node ids refer to this tree.
    tree: Tree,
    /// Retained events in `(unit, path)` merge order; index `i` holds
    /// global sequence `first_seq + i`.
    events: Vec<AnomalyEvent>,
    /// Global sequence number of `events[0]` (seqs below it were
    /// evicted).
    first_seq: u64,
    /// One `(unit, start_seq)` mark per retained unit with events,
    /// ascending by unit.
    units: Vec<(u64, u64)>,
    /// Posting lists, parallel to the tree arena: ascending global seqs
    /// of the events reported at that exact node.
    postings: Vec<Vec<u64>>,
    /// Newest timeunit recorded as closed (drives retention).
    last_closed: Option<u64>,
    /// Retention budget in closed timeunits (`None` = unbounded).
    retain_units: Option<u64>,
    /// Events evicted so far (monotone gauge).
    evicted_events: u64,
    /// First unit whose events are guaranteed retained: everything
    /// older was (or would have been) evicted.
    evicted_before: u64,
}

impl Default for ReportStore {
    fn default() -> Self {
        ReportStore::new()
    }
}

impl ReportStore {
    /// Creates an empty, unbounded store (report-tree root `All`).
    pub fn new() -> Self {
        ReportStore::with_root("All")
    }

    /// Creates an empty store whose report tree uses the given root
    /// label.
    pub fn with_root(root_label: impl Into<String>) -> Self {
        ReportStore {
            tree: Tree::new(root_label),
            events: Vec::new(),
            first_seq: 0,
            units: Vec::new(),
            postings: Vec::new(),
            last_closed: None,
            retain_units: None,
            evicted_events: 0,
            evicted_before: 0,
        }
    }

    /// Sets the retention budget: how many closed timeunits of history
    /// to keep (`None` = unbounded). Applies immediately.
    pub fn set_retention(&mut self, units: Option<u64>) {
        self.retain_units = units;
        self.evict_over_budget();
    }

    /// Sets the retention budget **without** applying it — the
    /// spill-aware variant of [`ReportStore::set_retention`] for the
    /// two-phase handoff: any immediately over-budget history stays in
    /// place until [`ReportStore::over_budget_prefix`] has been
    /// persisted elsewhere and [`ReportStore::apply_retention`] frees
    /// it.
    pub fn set_retention_deferred(&mut self, units: Option<u64>) {
        self.retain_units = units;
    }

    /// The configured retention budget.
    pub fn retention(&self) -> Option<u64> {
        self.retain_units
    }

    /// The tree the stored events' node ids refer to (reported paths
    /// only, grown in insertion order).
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Appends an event, re-homing its node id onto the report tree and
    /// updating both indexes. Events must arrive in nondecreasing unit
    /// order (the merge order every engine produces).
    pub fn insert(&mut self, mut event: AnomalyEvent) {
        event.node = self.tree.insert_category(&event.path);
        if self.units.last().is_some_and(|&(u, _)| event.unit < u) {
            // Out-of-order insert — impossible through the engines,
            // which merge in unit order, but reachable through direct
            // store use. Restore the sorted-blocks invariant the
            // binary-searched queries rely on: stable-resort by unit
            // (within-unit insertion order is preserved) and rebuild
            // the indexes. Sequence cursors taken before this call
            // are invalidated.
            self.events.push(event);
            self.events.sort_by_key(|e| e.unit);
            self.rebuild_index();
            return;
        }
        if self.postings.len() < self.tree.len() {
            self.postings.resize(self.tree.len(), Vec::new());
        }
        let seq = self.next_seq();
        if self.units.last().map(|&(u, _)| u) != Some(event.unit) {
            self.units.push((event.unit, seq));
        }
        self.postings[event.node.index()].push(seq);
        self.events.push(event);
    }

    /// Records that every unit up to and including `unit` is closed,
    /// then evicts the oldest blocks beyond the retention budget.
    pub fn note_closed(&mut self, unit: u64) {
        if self.last_closed.is_none_or(|c| unit > c) {
            self.last_closed = Some(unit);
        }
        self.evict_over_budget();
    }

    /// The close half of [`ReportStore::note_closed`] **without** the
    /// eviction: advances the close watermark and nothing else. The
    /// durable pipeline uses it for the two-phase spill handoff —
    /// record the close, stage the over-budget prefix with
    /// [`ReportStore::over_budget_prefix`], hand it to the segment
    /// tier, and only then free it with
    /// [`ReportStore::apply_retention`] — so an evicted event is never
    /// dropped before it is durably archived.
    pub fn record_closed(&mut self, unit: u64) {
        if self.last_closed.is_none_or(|c| unit > c) {
            self.last_closed = Some(unit);
        }
    }

    /// Stages the eviction the current budget calls for, without
    /// performing it: the global sequence of the first over-budget
    /// event and the contiguous run of whole-unit blocks that
    /// [`ReportStore::apply_retention`] would free right now. Empty
    /// when the store is within budget.
    pub fn over_budget_prefix(&self) -> (u64, &[AnomalyEvent]) {
        let (Some(budget), Some(closed)) = (self.retain_units, self.last_closed) else {
            return (self.first_seq, &[]);
        };
        let cutoff = (closed + 1).saturating_sub(budget);
        let k = self.units.partition_point(|&(u, _)| u < cutoff);
        let boundary = self.units.get(k).map_or_else(|| self.next_seq(), |&(_, s)| s);
        (self.first_seq, &self.events[..(boundary - self.first_seq) as usize])
    }

    /// Applies the retention budget: evicts the blocks
    /// [`ReportStore::over_budget_prefix`] reported (the second phase
    /// of the spill handoff; equivalent to the eviction
    /// [`ReportStore::note_closed`] performs inline).
    pub fn apply_retention(&mut self) {
        self.evict_over_budget();
    }

    /// The newest timeunit recorded as closed.
    pub fn last_closed_unit(&self) -> Option<u64> {
        self.last_closed
    }

    /// The earliest unit whose events are guaranteed retained; queries
    /// below it may observe evicted (missing) history.
    pub fn retained_from(&self) -> u64 {
        self.evicted_before
    }

    /// Number of retained units that hold at least one event.
    pub fn retained_unit_count(&self) -> usize {
        self.units.len()
    }

    /// Events evicted by the retention budget so far.
    pub fn evicted_events(&self) -> u64 {
        self.evicted_events
    }

    /// Global sequence number of the oldest retained event.
    pub fn first_seq(&self) -> u64 {
        self.first_seq
    }

    /// Global sequence number the next inserted event will get (equals
    /// the lifetime event count).
    pub fn next_seq(&self) -> u64 {
        self.first_seq + self.events.len() as u64
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` iff no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All retained events in `(unit, path)` order.
    pub fn events(&self) -> &[AnomalyEvent] {
        &self.events
    }

    /// Drops every event below global sequence `seq` — the "consumed"
    /// truncation a pipeline stage applies after it has copied a
    /// prefix elsewhere (the sharded merge uses it to keep the
    /// shard-internal stores bounded by construction: a shard store
    /// holds only the events its merge has not yet collected,
    /// independent of any retention budget). Unlike retention
    /// eviction this needs no unit alignment; a partially consumed
    /// unit block keeps its tail.
    pub fn discard_through(&mut self, seq: u64) {
        let seq = seq.clamp(self.first_seq, self.next_seq());
        let n = (seq - self.first_seq) as usize;
        if n == 0 {
            return;
        }
        // A mark's block ends where the next one starts (the append
        // horizon for the last); it is fully consumed iff that end is
        // at or below `seq`. Computed before anything mutates.
        let block_end = |i: usize, units: &[(u64, u64)], next_seq: u64| {
            units.get(i + 1).map_or(next_seq, |&(_, s)| s)
        };
        let next_seq = self.next_seq();
        let fully_dropped = (0..self.units.len())
            .take_while(|&i| block_end(i, &self.units, next_seq) <= seq)
            .count();
        if let Some(&(unit, _)) = fully_dropped.checked_sub(1).and_then(|i| self.units.get(i)) {
            self.evicted_before = self.evicted_before.max(unit + 1);
        }
        let mut affected: Vec<usize> = self.events[..n].iter().map(|e| e.node.index()).collect();
        affected.sort_unstable();
        affected.dedup();
        for idx in affected {
            let cut = self.postings[idx].partition_point(|&s| s < seq);
            self.postings[idx].drain(..cut);
        }
        self.events.drain(..n);
        self.first_seq = seq;
        self.evicted_events += n as u64;
        self.units.drain(..fully_dropped);
        // A partially consumed block's mark advances to its first
        // surviving event.
        if let Some(first) = self.units.first_mut() {
            first.1 = first.1.max(seq);
        }
    }

    /// The global sequence of the first retained event at or after
    /// `unit` (the store's append horizon when no such block exists) —
    /// lets a unit-scoped cursor skip the non-matching prefix instead
    /// of scanning it.
    pub fn seq_lower_bound(&self, unit: u64) -> u64 {
        let idx = self.units.partition_point(|&(u, _)| u < unit);
        self.units.get(idx).map_or_else(|| self.next_seq(), |&(_, s)| s)
    }

    /// The retained events at or after global sequence `seq`, plus how
    /// many requested events were already evicted (`0` in the common
    /// case). The cursor primitive behind live broadcast and catch-up.
    pub fn events_from(&self, seq: u64) -> (u64, &[AnomalyEvent]) {
        let skipped = self.first_seq.saturating_sub(seq);
        let start = (seq.max(self.first_seq) - self.first_seq) as usize;
        (skipped, &self.events[start.min(self.events.len())..])
    }

    /// The retained global-seq window `[lo, hi)` covering units
    /// `[from_unit, to_unit)`.
    fn seq_range(&self, from_unit: u64, to_unit: u64) -> (u64, u64) {
        let lo_idx = self.units.partition_point(|&(u, _)| u < from_unit);
        let hi_idx = self.units.partition_point(|&(u, _)| u < to_unit);
        let lo = self.units.get(lo_idx).map_or_else(|| self.next_seq(), |&(_, s)| s);
        let hi = self.units.get(hi_idx).map_or_else(|| self.next_seq(), |&(_, s)| s);
        (lo, hi)
    }

    fn by_seq(&self, seq: u64) -> &AnomalyEvent {
        &self.events[(seq - self.first_seq) as usize]
    }

    /// Events whose timeunit lies in `[from_unit, to_unit)` — a binary
    /// search to a contiguous block range, O(log n + k).
    pub fn in_time_range(
        &self,
        from_unit: u64,
        to_unit: u64,
    ) -> impl Iterator<Item = &AnomalyEvent> {
        let (lo, hi) = self.seq_range(from_unit, to_unit);
        let lo = (lo - self.first_seq) as usize;
        let hi = (hi - self.first_seq) as usize;
        self.events[lo..hi].iter()
    }

    /// Events at or under the given category prefix (the drill-down
    /// query an operator runs on a suspicious region), answered from
    /// the prefix index: the prefix resolves to a report-tree node and
    /// the subtree's posting lists merge in sequence order.
    pub fn under<'a>(
        &'a self,
        prefix: &CategoryPath,
    ) -> impl Iterator<Item = &'a AnomalyEvent> + 'a {
        self.subtree_seqs(prefix, 0, u64::MAX).into_iter().map(|seq| self.by_seq(seq))
    }

    /// Ascending seqs of every event under `prefix` within the seq
    /// window `[lo, hi)`; empty when the prefix was never reported.
    fn subtree_seqs(&self, prefix: &CategoryPath, lo: u64, hi: u64) -> Vec<u64> {
        let Some(node) = self.tree.find_category(prefix) else {
            return Vec::new();
        };
        let mut seqs: Vec<u64> = Vec::new();
        for n in self.tree.subtree(node) {
            if let Some(list) = self.postings.get(n.index()) {
                let a = list.partition_point(|&s| s < lo);
                let b = list.partition_point(|&s| s < hi);
                seqs.extend_from_slice(&list[a..b]);
            }
        }
        seqs.sort_unstable();
        seqs
    }

    /// Events at an exact hierarchy level (1 = first level below the
    /// root).
    pub fn at_level(&self, level: usize) -> impl Iterator<Item = &AnomalyEvent> {
        self.events.iter().filter(move |e| e.level == level)
    }

    /// The combined read-path query: events with unit in
    /// `[from_unit, to_unit]` (inclusive, the wire convention), at or
    /// under `prefix` if given, at exactly `level` if given, truncated
    /// to `limit`. Results come back in `(unit, path)` order.
    pub fn query(
        &self,
        from_unit: u64,
        to_unit: u64,
        prefix: Option<&CategoryPath>,
        level: Option<usize>,
        limit: usize,
    ) -> Vec<&AnomalyEvent> {
        let to_excl = to_unit.saturating_add(1);
        let level_ok = |e: &AnomalyEvent| level.is_none_or(|l| e.level == l);
        match prefix {
            Some(p) if !p.is_root() => {
                let (lo, hi) = self.seq_range(from_unit, to_excl);
                self.subtree_seqs(p, lo, hi)
                    .into_iter()
                    .map(|seq| self.by_seq(seq))
                    .filter(|e| level_ok(e))
                    .take(limit)
                    .collect()
            }
            _ => {
                self.in_time_range(from_unit, to_excl).filter(|e| level_ok(e)).take(limit).collect()
            }
        }
    }

    /// Removes events that have an ancestor event in the same timeunit
    /// (the "simple data aggregation" the paper applies to new-anomaly
    /// cases in §VII-B), returning the number removed. Rebuilds the
    /// indexes; sequence-number cursors taken before the call are
    /// invalidated.
    pub fn dedup_ancestors(&mut self) -> usize {
        let before = self.events.len();
        let events = std::mem::take(&mut self.events);
        self.events = events
            .iter()
            .filter(|e| {
                !events.iter().any(|other| {
                    other.unit == e.unit
                        && other.path != e.path
                        && e.path.is_ancestor_or_equal(&other.path)
                })
            })
            .cloned()
            .collect();
        self.rebuild_index();
        before - self.events.len()
    }

    /// Iterates over all retained events.
    pub fn iter(&self) -> std::slice::Iter<'_, AnomalyEvent> {
        self.events.iter()
    }

    /// Evicts whole unit blocks older than `last_closed + 1 − budget`.
    fn evict_over_budget(&mut self) {
        let (Some(budget), Some(closed)) = (self.retain_units, self.last_closed) else {
            return;
        };
        let cutoff = (closed + 1).saturating_sub(budget);
        if cutoff <= self.evicted_before && self.units.first().is_none_or(|&(u, _)| u >= cutoff) {
            self.evicted_before = self.evicted_before.max(cutoff);
            return;
        }
        let k = self.units.partition_point(|&(u, _)| u < cutoff);
        let boundary = self.units.get(k).map_or_else(|| self.next_seq(), |&(_, s)| s);
        let n = (boundary - self.first_seq) as usize;
        if n > 0 {
            // Trim each affected node's posting-list head: the drained
            // events' seqs are exactly the postings below `boundary`.
            let mut affected: Vec<usize> =
                self.events[..n].iter().map(|e| e.node.index()).collect();
            affected.sort_unstable();
            affected.dedup();
            for idx in affected {
                let cut = self.postings[idx].partition_point(|&s| s < boundary);
                self.postings[idx].drain(..cut);
            }
            self.events.drain(..n);
            self.units.drain(..k);
            self.first_seq = boundary;
            self.evicted_events += n as u64;
        }
        self.evicted_before = self.evicted_before.max(cutoff);
    }

    /// Recomputes the unit blocks and posting lists from the retained
    /// event list (used by deserialisation and
    /// [`ReportStore::dedup_ancestors`]).
    fn rebuild_index(&mut self) {
        self.units.clear();
        self.postings = vec![Vec::new(); self.tree.len()];
        for (i, e) in self.events.iter().enumerate() {
            let seq = self.first_seq + i as u64;
            if self.units.last().map(|&(u, _)| u) != Some(e.unit) {
                self.units.push((e.unit, seq));
            }
            self.postings[e.node.index()].push(seq);
        }
    }
}

impl PartialEq for ReportStore {
    /// Observable-state equality: retained events (paths compare, node
    /// ids are store-local), sequence position, close/retention state.
    /// The tree is derived from the event history and not compared.
    fn eq(&self, other: &Self) -> bool {
        self.first_seq == other.first_seq
            && self.last_closed == other.last_closed
            && self.retain_units == other.retain_units
            && self.evicted_events == other.evicted_events
            && self.evicted_before == other.evicted_before
            && self.events.len() == other.events.len()
            && self.events.iter().zip(&other.events).all(|(a, b)| {
                (&a.path, a.unit, a.time_secs, a.level, a.actual, a.forecast, a.kind)
                    == (&b.path, b.unit, b.time_secs, b.level, b.actual, b.forecast, b.kind)
            })
    }
}

impl Extend<AnomalyEvent> for ReportStore {
    fn extend<I: IntoIterator<Item = AnomalyEvent>>(&mut self, iter: I) {
        for event in iter {
            self.insert(event);
        }
    }
}

impl<'a> IntoIterator for &'a ReportStore {
    type Item = &'a AnomalyEvent;
    type IntoIter = std::slice::Iter<'a, AnomalyEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl Serialize for ReportStore {
    fn to_value(&self) -> Value {
        let opt = |v: Option<u64>| v.map_or(Value::Null, Value::U64);
        Value::Map(vec![
            ("tree".to_string(), self.tree.to_value()),
            ("events".to_string(), self.events.to_value()),
            ("first_seq".to_string(), Value::U64(self.first_seq)),
            ("last_closed".to_string(), opt(self.last_closed)),
            ("retain_units".to_string(), opt(self.retain_units)),
            ("evicted_events".to_string(), Value::U64(self.evicted_events)),
            ("evicted_before".to_string(), Value::U64(self.evicted_before)),
        ])
    }
}

impl<'de> Deserialize<'de> for ReportStore {
    /// Rebuilds the store from its serialised form. The indexes are
    /// never serialised; they rebuild here.
    fn from_value(value: &Value) -> Result<Self, serde::DeError> {
        let events: Vec<AnomalyEvent> = Deserialize::from_value(value.field("events")?)?;
        let opt_u64 = |name: &str| -> Result<Option<u64>, serde::DeError> {
            match value.field(name) {
                Ok(Value::Null) | Err(_) => Ok(None),
                Ok(Value::U64(v)) => Ok(Some(*v)),
                Ok(Value::I64(v)) if *v >= 0 => Ok(Some(*v as u64)),
                Ok(other) => {
                    Err(serde::DeError::new(format!("{name}: expected unit, got {}", other.kind())))
                }
            }
        };
        let mut tree = Tree::from_value(value.field("tree")?)?;
        // Re-homing is idempotent on a serialised tree: every path is
        // already interned.
        let mut events = events;
        for e in &mut events {
            e.node = tree.insert_category(&e.path);
        }
        let mut store = ReportStore {
            tree,
            events,
            first_seq: opt_u64("first_seq")?.unwrap_or(0),
            units: Vec::new(),
            postings: Vec::new(),
            last_closed: opt_u64("last_closed")?,
            retain_units: opt_u64("retain_units")?,
            evicted_events: opt_u64("evicted_events")?.unwrap_or(0),
            evicted_before: opt_u64("evicted_before")?.unwrap_or(0),
        };
        store.rebuild_index();
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(path: &str, unit: u64) -> AnomalyEvent {
        let p: CategoryPath = path.parse().unwrap();
        AnomalyEvent {
            node: Tree::new("r").root(), // re-homed by insert
            path: p,
            level: path.split('/').count(),
            unit,
            time_secs: unit * 900,
            actual: 50.0,
            forecast: 5.0,
            kind: crate::anomaly::AnomalyKind::Spike,
        }
    }

    #[test]
    fn time_range_query() {
        let mut s = ReportStore::new();
        for u in 0..10 {
            s.insert(event("a", u));
        }
        assert_eq!(s.in_time_range(3, 6).count(), 3);
        assert_eq!(s.in_time_range(10, 20).count(), 0);
        assert_eq!(s.retained_unit_count(), 10);
    }

    #[test]
    fn prefix_query_covers_descendants() {
        let mut s = ReportStore::new();
        s.insert(event("vho1/io2", 1));
        s.insert(event("vho1", 2));
        s.insert(event("vho2", 3));
        let prefix: CategoryPath = "vho1".parse().unwrap();
        assert_eq!(s.under(&prefix).count(), 2);
        let root = CategoryPath::root();
        assert_eq!(s.under(&root).count(), 3);
        let unseen: CategoryPath = "never-reported".parse().unwrap();
        assert_eq!(s.under(&unseen).count(), 0);
        // Events are re-homed onto the store's own tree.
        for e in s.iter() {
            assert_eq!(s.tree().path_of(e.node), e.path);
        }
    }

    #[test]
    fn level_query() {
        let mut s = ReportStore::new();
        s.insert(event("a", 1));
        s.insert(event("a/b", 1));
        s.insert(event("a/b/c", 1));
        assert_eq!(s.at_level(1).count(), 1);
        assert_eq!(s.at_level(2).count(), 1);
        assert_eq!(s.at_level(9).count(), 0);
    }

    #[test]
    fn combined_query_filters_and_limits() {
        let mut s = ReportStore::new();
        for u in 0..6u64 {
            s.insert(event("tv/no-service", u));
            s.insert(event("tv/pixelation", u));
            s.insert(event("net/slow", u));
        }
        let tv: CategoryPath = "tv".parse().unwrap();
        assert_eq!(s.query(1, 2, Some(&tv), None, 100).len(), 4, "inclusive unit range");
        assert_eq!(s.query(1, 2, Some(&tv), Some(2), 100).len(), 4);
        assert_eq!(s.query(1, 2, Some(&tv), Some(1), 100).len(), 0);
        assert_eq!(s.query(0, 99, None, None, 5).len(), 5, "limit truncates");
        let ordered = s.query(0, 99, Some(&tv), None, 100);
        assert!(ordered.windows(2).all(|w| (w[0].unit, &w[0].path) <= (w[1].unit, &w[1].path)));
    }

    #[test]
    fn dedup_keeps_most_specific() {
        let mut s = ReportStore::new();
        s.insert(event("a", 1)); // ancestor of a/b at same unit
        s.insert(event("a/b", 1));
        s.insert(event("a", 2)); // different unit: kept
        let removed = s.dedup_ancestors();
        assert_eq!(removed, 1);
        assert_eq!(s.len(), 2);
        assert!(s.iter().any(|e| e.path.to_string() == "a/b"));
        assert!(s.iter().any(|e| e.unit == 2));
        // Indexes were rebuilt.
        assert_eq!(s.in_time_range(1, 2).count(), 1);
        let a: CategoryPath = "a".parse().unwrap();
        assert_eq!(s.under(&a).count(), 2);
    }

    #[test]
    fn retention_evicts_oldest_closed_units() {
        let mut s = ReportStore::new();
        s.set_retention(Some(3));
        for u in 0..10u64 {
            s.insert(event("a/x", u));
            s.insert(event("b/y", u));
            s.note_closed(u);
        }
        assert_eq!(s.last_closed_unit(), Some(9));
        assert_eq!(s.retained_from(), 7, "units 7..=9 retained under a 3-unit budget");
        assert_eq!(s.len(), 6);
        assert_eq!(s.evicted_events(), 14);
        assert_eq!(s.first_seq(), 14);
        assert_eq!(s.next_seq(), 20);
        assert_eq!(s.in_time_range(0, 7).count(), 0, "evicted history is gone");
        assert_eq!(s.in_time_range(7, 10).count(), 6);
        let a: CategoryPath = "a".parse().unwrap();
        assert_eq!(s.under(&a).count(), 3, "prefix index pruned with the events");
        // Cursor behind the eviction horizon reports what it missed.
        let (skipped, tail) = s.events_from(10);
        assert_eq!(skipped, 4);
        assert_eq!(tail.len(), 6);
    }

    #[test]
    fn zero_budget_retains_nothing_closed() {
        let mut s = ReportStore::new();
        s.set_retention(Some(0));
        s.insert(event("a", 0));
        s.note_closed(0);
        assert!(s.is_empty());
        assert_eq!(s.retained_from(), 1);
    }

    #[test]
    fn two_phase_eviction_never_makes_events_unreachable() {
        // The spill handoff: record the close, stage the over-budget
        // prefix, archive it elsewhere, then free it. At every step
        // each event must be reachable — in the staged slice or
        // through a query — and the staged slice must be exactly what
        // apply_retention later frees.
        let mut s = ReportStore::new();
        s.set_retention(Some(2));
        let mut archived: Vec<AnomalyEvent> = Vec::new();
        for u in 0..8u64 {
            s.insert(event("a/x", u));
            s.insert(event("b/y", u));
            s.record_closed(u);
            // Between record_closed and apply_retention nothing was
            // freed yet: the full history minus prior evictions is
            // still queryable.
            let (first, staged) = s.over_budget_prefix();
            assert_eq!(first, s.first_seq());
            let visible = s.query(0, 99, None, None, 1000).len() as u64 + archived.len() as u64;
            assert_eq!(visible, (u + 1) * 2, "no event unreachable during the handoff");
            // Hand the staged prefix to the archive...
            archived.extend(staged.iter().cloned());
            let staged_len = staged.len();
            let next_first = first + staged_len as u64;
            // ...and only then free it.
            s.apply_retention();
            assert_eq!(s.first_seq(), next_first, "exactly the staged slice was freed");
            // Archive + RAM still cover every event ever inserted,
            // with no overlap.
            assert_eq!(archived.len() as u64, s.first_seq());
            assert_eq!(archived.len() + s.len(), ((u + 1) * 2) as usize);
        }
        // The staged/applied pair behaves identically to note_closed.
        let mut reference = ReportStore::new();
        reference.set_retention(Some(2));
        for u in 0..8u64 {
            reference.insert(event("a/x", u));
            reference.insert(event("b/y", u));
            reference.note_closed(u);
        }
        assert_eq!(s, reference);
    }

    #[test]
    fn over_budget_prefix_is_empty_within_budget() {
        let mut s = ReportStore::new();
        s.insert(event("a", 0));
        s.record_closed(0);
        let (first, staged) = s.over_budget_prefix();
        assert_eq!((first, staged.len()), (0, 0), "unbounded store stages nothing");
        s.set_retention(Some(8));
        let (_, staged) = s.over_budget_prefix();
        assert!(staged.is_empty(), "within budget stages nothing");
    }

    #[test]
    fn retention_change_applies_immediately() {
        let mut s = ReportStore::new();
        for u in 0..8u64 {
            s.insert(event("a", u));
            s.note_closed(u);
        }
        assert_eq!(s.len(), 8);
        s.set_retention(Some(2));
        assert_eq!(s.retention(), Some(2));
        assert_eq!(s.len(), 2);
        assert_eq!(s.retained_from(), 6);
    }

    #[test]
    fn discard_through_truncates_consumed_prefix() {
        let mut s = ReportStore::new();
        for u in 0..4u64 {
            s.insert(event("a/x", u));
            s.insert(event("b/y", u));
        }
        // Consume 3 events: units 0 fully, unit 1 partially.
        s.discard_through(3);
        assert_eq!(s.first_seq(), 3);
        assert_eq!(s.next_seq(), 8);
        assert_eq!(s.len(), 5);
        assert_eq!(s.retained_from(), 1, "unit 0 fully consumed");
        assert_eq!(s.in_time_range(0, 1).count(), 0);
        assert_eq!(s.in_time_range(1, 2).count(), 1, "unit 1 keeps its tail");
        assert_eq!(s.in_time_range(2, 4).count(), 4);
        let b: CategoryPath = "b".parse().unwrap();
        assert_eq!(s.under(&b).count(), 3, "postings pruned with the prefix");
        assert_eq!(s.seq_lower_bound(2), 4);
        // Idempotent / out-of-range tolerant.
        s.discard_through(1);
        assert_eq!(s.len(), 5);
        s.discard_through(u64::MAX);
        assert!(s.is_empty());
        assert_eq!(s.first_seq(), 8);
        // Appending continues with fresh unit blocks.
        s.insert(event("a/x", 9));
        assert_eq!(s.in_time_range(9, 10).count(), 1);
    }

    #[test]
    fn out_of_order_insert_keeps_queries_correct() {
        // Only reachable through direct store use — the engines merge
        // in unit order — but it must degrade to a resort, not to a
        // corrupted binary-search index.
        let mut s = ReportStore::new();
        s.insert(event("a", 5));
        s.insert(event("b", 3));
        s.insert(event("a", 7));
        assert_eq!(s.in_time_range(3, 4).count(), 1);
        assert_eq!(s.in_time_range(0, 8).count(), 3);
        assert_eq!(s.seq_lower_bound(4), 1, "unit-5 block starts after the resorted unit-3 event");
        let a: CategoryPath = "a".parse().unwrap();
        assert_eq!(s.under(&a).count(), 2);
        assert_eq!(s.query(5, 7, Some(&a), None, 10).len(), 2);
    }

    #[test]
    fn extend_and_iterate() {
        let mut s = ReportStore::new();
        s.extend([event("a", 1), event("b", 2)]);
        assert_eq!(s.len(), 2);
        assert_eq!((&s).into_iter().count(), 2);
    }

    #[test]
    fn serde_round_trips_retained_history() {
        let mut s = ReportStore::new();
        s.set_retention(Some(4));
        for u in 0..9u64 {
            s.insert(event("tv/no-service", u));
            s.note_closed(u);
        }
        let json = serde_json::to_string(&s).expect("serialises");
        let restored: ReportStore = serde_json::from_str(&json).expect("deserialises");
        assert_eq!(restored, s);
        assert_eq!(restored.first_seq(), s.first_seq());
        assert_eq!(restored.retention(), Some(4));
        assert_eq!(restored.last_closed_unit(), Some(8));
        let tv: CategoryPath = "tv".parse().unwrap();
        assert_eq!(restored.under(&tv).count(), 4);
    }
}
