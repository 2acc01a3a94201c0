use std::time::Instant;

use tiresias_hhh::{
    Ada, AdaSlice, HhhConfig, MemoryReport, ModelSpec, Sta, StaSlice, StageTimings,
};
use tiresias_hierarchy::{MovedNode, NodeId, Tree};
use tiresias_spectral::SeasonalityAnalysis;
use tiresias_timeseries::SeasonalFactor;

use crate::anomaly::{is_anomalous, is_drop, AnomalyEvent, AnomalyKind};
use crate::builder::{Algorithm, TiresiasBuilder};
use crate::counts::DenseCounts;
use crate::error::CoreError;
use crate::record::Record;
use crate::store::ReportStore;

/// The running heavy hitter tracker.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
enum Tracker {
    Ada(Box<Ada>),
    Sta(Box<Sta>),
}

/// Detector lifecycle: buffering warm-up history, then running.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
enum State {
    Warmup { units: Vec<Vec<f64>> },
    Running { tracker: Tracker },
}

/// Tracker-phase half of a [`SubtreeState`]: either the moved nodes'
/// columns of every buffered warm-up unit, or a running tracker's
/// per-node slice.
#[derive(Debug)]
enum TrackerSlice {
    /// One column vector per buffered warm-up unit, aligned with the
    /// moved-node list.
    Warmup(Vec<Vec<f64>>),
    Ada(Box<AdaSlice>),
    Sta(Box<StaSlice>),
}

/// Detached detector state of a set of top-level subtrees, produced by
/// [`Tiresias::extract_subtrees`] and consumed by
/// [`Tiresias::adopt_subtrees`] — the unit of work the skew-adaptive
/// rebalancer moves between shards at an epoch barrier.
///
/// Under root isolation a depth ≥ 1 subtree's tracker state is a pure
/// function of its own records, so transplanting this state into
/// another detector at the same point of the global timeline leaves the
/// merged output stream byte-identical to having routed the subtree's
/// records there from the start.
#[derive(Debug)]
pub struct SubtreeState {
    /// The moved arena nodes (subtree roots plus descendants).
    moved: Vec<MovedNode>,
    tracker: TrackerSlice,
    /// Pending open-unit counts of the moved nodes, as
    /// (moved-slot, count) pairs.
    open: Vec<(u32, f64)>,
    open_unit: Option<u64>,
    units_processed: u64,
}

impl SubtreeState {
    /// `true` when nothing matched the extraction selector — adopting
    /// an empty state is a no-op.
    pub fn is_empty(&self) -> bool {
        self.moved.is_empty()
    }

    /// Labels of the moved top-level subtrees.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.moved.iter().filter(|m| m.parent.is_none()).map(|m| m.label.as_str())
    }
}

/// The Tiresias online anomaly detector (Fig. 3 of the paper).
///
/// Feed timestamped [`Record`]s with [`Tiresias::push`], `/`-separated
/// borrowed paths with the allocation-free [`Tiresias::push_str`], or
/// whole timeunits with [`Tiresias::ingest_unit`]; closed timeunits
/// flow through heavy hitter tracking, seasonal forecasting and the
/// Definition-4 decision rule, and detected [`AnomalyEvent`]s accumulate
/// in the queryable [`ReportStore`].
///
/// See the crate-level example for end-to-end usage.
///
/// The whole detector state is serialisable (serde): checkpoint it with
/// any serde format and resume the stream after a restart — warm-up
/// buffers, tracker state, forecaster models and the anomaly store all
/// round-trip.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Tiresias {
    builder: TiresiasBuilder,
    tree: Tree,
    state: State,
    /// Index of the currently open timeunit (`None` until the first
    /// record or advance).
    open_unit: Option<u64>,
    /// Dense per-node counts of the open timeunit; doubles as the
    /// reusable dense buffer of the close sweep, so steady-state
    /// ingestion allocates nothing.
    open_counts: DenseCounts,
    store: ReportStore,
    warmup_target: usize,
    resolved_model: ModelSpec,
    units_processed: u64,
    reading: std::time::Duration,
    detecting: std::time::Duration,
}

/// Validates that a batch is in timeunit order relative to `open` and
/// internally, returning the batch's final watermark unit (`open` for
/// an empty batch). Shared by [`Tiresias::push_batch`] and
/// [`crate::ShardedTiresias::push_batch`], whose byte-identical-results
/// contract requires one definition of "in order".
pub(crate) fn validate_batch_order<S>(
    open: Option<u64>,
    timeunit_secs: u64,
    records: &[(S, u64)],
) -> Result<Option<u64>, CoreError> {
    let mut watermark = open;
    for &(_, t) in records {
        let unit = t / timeunit_secs;
        match watermark {
            Some(open) if unit < open => {
                return Err(CoreError::OutOfOrder {
                    timestamp: t,
                    open_unit_start: open * timeunit_secs,
                });
            }
            Some(open) if unit > open => watermark = Some(unit),
            Some(_) => {}
            None => watermark = Some(unit),
        }
    }
    Ok(watermark)
}

/// Remaps one buffered warm-up unit through a tree compaction,
/// dropping moved slots and padding to the survivor count (warm-up
/// units are dense but may lag a tree that grew after they closed).
fn compact_warmup_unit(unit: &mut Vec<f64>, old_to_new: &[Option<NodeId>]) {
    let new_len = old_to_new.iter().flatten().count();
    let old = std::mem::take(unit);
    unit.resize(new_len, 0.0);
    for (i, slot) in old_to_new.iter().enumerate() {
        if let Some(new) = slot {
            if i < old.len() {
                unit[new.index()] = old[i];
            }
        }
    }
}

impl Tiresias {
    pub(crate) fn from_builder(builder: TiresiasBuilder) -> Self {
        let warmup_target =
            builder.warmup_units.unwrap_or_else(|| builder.base_model().preferred_history());
        let resolved_model = builder.base_model();
        let tree = Tree::new(builder.root_label.clone());
        let store = ReportStore::with_root(builder.root_label.clone());
        Tiresias {
            builder,
            tree,
            state: State::Warmup { units: Vec::new() },
            open_unit: None,
            open_counts: DenseCounts::default(),
            store,
            warmup_target,
            resolved_model,
            units_processed: 0,
            reading: std::time::Duration::ZERO,
            detecting: std::time::Duration::ZERO,
        }
    }

    /// The classification tree built from the categories seen so far.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Timeunits fully processed (including warm-up).
    pub fn units_processed(&self) -> u64 {
        self.units_processed
    }

    /// `true` once the warm-up buffer is converted into a running
    /// tracker and detection is active.
    pub fn is_warmed_up(&self) -> bool {
        matches!(self.state, State::Running { .. })
    }

    /// The forecasting model in use (after any auto-seasonality
    /// resolution).
    pub fn model_spec(&self) -> &ModelSpec {
        &self.resolved_model
    }

    /// The currently open (not yet closed) timeunit index.
    pub fn current_unit(&self) -> Option<u64> {
        self.open_unit
    }

    /// Timeunit size Δ in seconds.
    pub fn timeunit_secs(&self) -> u64 {
        self.builder.timeunit_secs
    }

    /// Number of records counted into the currently open timeunit —
    /// a non-blocking accounting hook for schedulers and metrics.
    pub fn open_records(&self) -> f64 {
        self.open_counts.total()
    }

    /// All anomalies detected so far, oldest first.
    pub fn anomalies(&self) -> &[AnomalyEvent] {
        self.store.events()
    }

    /// The queryable anomaly store.
    pub fn store(&self) -> &ReportStore {
        &self.store
    }

    /// Mutable access to the anomaly store (e.g. for
    /// [`ReportStore::dedup_ancestors`]).
    pub fn store_mut(&mut self) -> &mut ReportStore {
        &mut self.store
    }

    /// The current heavy hitter set (empty during warm-up).
    pub fn heavy_hitters(&self) -> Vec<NodeId> {
        match &self.state {
            State::Warmup { .. } => Vec::new(),
            State::Running { tracker } => match tracker {
                Tracker::Ada(a) => a.heavy_hitters().to_vec(),
                Tracker::Sta(s) => s.heavy_hitters().to_vec(),
            },
        }
    }

    /// Cumulative stage timings across the detector's lifetime.
    pub fn timings(&self) -> StageTimings {
        let mut t = match &self.state {
            State::Warmup { .. } => StageTimings::default(),
            State::Running { tracker } => match tracker {
                Tracker::Ada(a) => a.timings(),
                Tracker::Sta(s) => s.timings(),
            },
        };
        t.reading_traces += self.reading;
        t.detecting_anomalies += self.detecting;
        t
    }

    /// Memory accounting of the running tracker (zeros during warm-up).
    pub fn memory_report(&self) -> MemoryReport {
        match &self.state {
            State::Warmup { .. } => MemoryReport::default(),
            State::Running { tracker } => match tracker {
                Tracker::Ada(a) => a.memory_report(&self.tree),
                Tracker::Sta(s) => s.memory_report(&self.tree),
            },
        }
    }

    /// Ingests one record, closing earlier timeunits as the stream
    /// advances past them.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfOrder`] if the record's timestamp falls
    /// before the open timeunit, and propagates tracker construction
    /// errors at the warm-up boundary.
    pub fn push(&mut self, record: Record) -> Result<(), CoreError> {
        let t0 = Instant::now();
        let unit = record.unit(self.builder.timeunit_secs);
        match self.open_unit {
            None => self.open_unit = Some(unit),
            Some(open) if unit < open => {
                return Err(CoreError::OutOfOrder {
                    timestamp: record.timestamp_secs,
                    open_unit_start: open * self.builder.timeunit_secs,
                });
            }
            Some(open) if unit > open => {
                self.reading += t0.elapsed();
                self.close_until(unit)?;
                let t1 = Instant::now();
                let node = self.tree.insert_category(&record.path);
                self.open_counts.add(node.index(), 1.0);
                self.reading += t1.elapsed();
                return Ok(());
            }
            Some(_) => {}
        }
        let node = self.tree.insert_category(&record.path);
        self.open_counts.add(node.index(), 1.0);
        self.reading += t0.elapsed();
        Ok(())
    }

    /// Ingests one record given as a borrowed `/`-separated category
    /// path — the zero-allocation fast path.
    ///
    /// Semantically identical to
    /// `push(Record::new(path, t_secs))`: empty path segments are
    /// skipped the same way, timeunits close the same way, and the
    /// resulting tree, heavy hitter set and anomaly stream are
    /// byte-identical. The difference is purely mechanical: no
    /// [`Record`] (and no per-label `String`) is materialised, and once
    /// every label of `path` has been seen before, the whole call
    /// performs no heap allocation.
    ///
    /// Per-record wall-clock accounting is also skipped (two
    /// `Instant::now` calls cost more than the resolve itself), so
    /// `reading_traces` stays zero on this path; the unit-close sweeps
    /// are still accounted by the tracker's own stage timers, exactly
    /// as on the [`Tiresias::push`] path.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfOrder`] if `t_secs` falls before the
    /// open timeunit, and propagates tracker construction errors at the
    /// warm-up boundary.
    pub fn push_str(&mut self, path: &str, t_secs: u64) -> Result<(), CoreError> {
        self.push_count(path, t_secs, 1)
    }

    /// Ingests `n` records of one category path and one timestamp in a
    /// single step — a **count cell**, the unit the live engine's
    /// shard workers apply.
    ///
    /// Exactly equivalent to calling [`Tiresias::push_str`]`(path,
    /// t_secs)` `n` times (`n = 0` does nothing at all): the same
    /// timeunits close, the path's node is created at the same point,
    /// and the open unit ends up with the same count — sums of whole
    /// numbers are exact in `f64`, so adding `n` once equals adding
    /// `1.0` `n` times.
    ///
    /// # Errors
    ///
    /// As [`Tiresias::push_str`].
    #[inline]
    pub fn push_count(&mut self, path: &str, t_secs: u64, n: u64) -> Result<(), CoreError> {
        if n == 0 {
            return Ok(());
        }
        let unit = t_secs / self.builder.timeunit_secs;
        match self.open_unit {
            None => self.open_unit = Some(unit),
            Some(open) if unit < open => {
                return Err(CoreError::OutOfOrder {
                    timestamp: t_secs,
                    open_unit_start: open * self.builder.timeunit_secs,
                });
            }
            Some(open) if unit > open => self.close_until(unit)?,
            Some(_) => {}
        }
        let node = self.tree.insert_str(path);
        self.open_counts.add(node.index(), n as f64);
        Ok(())
    }

    /// Ingests a batch of `(path, timestamp)` records through the
    /// [`Tiresias::push_str`] fast path.
    ///
    /// The whole batch is validated first — timestamps must not precede
    /// the open timeunit or an earlier record of the batch — and on a
    /// validation error *nothing* is ingested, so callers never deal
    /// with half-applied batches. This is the single-shard counterpart
    /// of [`crate::ShardedTiresias::push_batch`] and produces
    /// byte-identical results to the equivalent `push_str` loop.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfOrder`] (before ingesting anything) on
    /// a non-monotone batch, and propagates tracker construction errors
    /// at the warm-up boundary.
    pub fn push_batch<S: AsRef<str>>(&mut self, records: &[(S, u64)]) -> Result<(), CoreError> {
        validate_batch_order(self.open_unit, self.builder.timeunit_secs, records)?;
        for (path, t) in records {
            self.push_str(path.as_ref(), *t)?;
        }
        Ok(())
    }

    /// Advances the clock to `t_secs`, closing every timeunit that ends
    /// at or before it (including empty ones — gaps become zero-count
    /// units, which matters for the time series).
    ///
    /// # Errors
    ///
    /// Propagates tracker construction errors at the warm-up boundary.
    pub fn advance_to(&mut self, t_secs: u64) -> Result<(), CoreError> {
        let target = t_secs / self.builder.timeunit_secs;
        if self.open_unit.is_none() {
            self.open_unit = Some(target);
            return Ok(());
        }
        self.close_until(target)
    }

    /// Ingests one whole pre-aggregated timeunit of direct counts
    /// (indexed by [`NodeId::index`] over the current tree) — the bulk
    /// API used by experiments that generate counts directly. Returns
    /// the anomalies detected in that unit as a slice borrowed from the
    /// store (no copy; clone it if you need to hold it across calls).
    ///
    /// When `direct` covers the whole tree — the common case — it is
    /// passed straight through to the tracker with no copy at all;
    /// shorter vectors are zero-padded into a reusable scratch buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if record-level pushes are
    /// pending in the open unit (the two APIs cannot be mixed within a
    /// unit), and propagates tracker errors.
    pub fn ingest_unit(&mut self, direct: &[f64]) -> Result<&[AnomalyEvent], CoreError> {
        if !self.open_counts.is_empty() {
            return Err(CoreError::InvalidConfig(
                "ingest_unit cannot be mixed with pending record-level pushes".into(),
            ));
        }
        let before_seq = self.store.next_seq();
        let unit = self.open_unit.unwrap_or(0);
        if direct.len() >= self.tree.len() {
            self.process_closed_unit(unit, direct, None)?;
        } else {
            // Zero-pad into the (empty, recycled) open-counts buffer.
            let mut scratch = self.open_counts.take();
            scratch.ensure_len(self.tree.len());
            for (i, &w) in direct.iter().enumerate() {
                if w != 0.0 {
                    scratch.add(i, w);
                }
            }
            let result = self.process_closed_unit(unit, scratch.dense(), Some(scratch.touched()));
            scratch.reset();
            self.open_counts = scratch;
            result?;
        }
        self.open_unit = Some(unit + 1);
        // Seq-addressed rather than index-addressed: a retention budget
        // may have evicted older events when the unit closed.
        Ok(self.store.events_from(before_seq).1)
    }

    /// Extends the tree with a category without recording data (useful
    /// to pre-build a known hierarchy before bulk ingestion).
    pub fn register_category(&mut self, path: &str) -> NodeId {
        let p: tiresias_hierarchy::CategoryPath =
            path.parse().expect("category paths parse infallibly");
        self.tree.insert_category(&p)
    }

    /// Replaces the detector's (still empty) tree with a pre-built
    /// hierarchy, preserving its [`NodeId`] assignment — required when
    /// [`Tiresias::ingest_unit`] vectors are indexed by an external
    /// tree's node ids.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if any data was already
    /// ingested or categories registered.
    pub fn adopt_tree(&mut self, tree: Tree) -> Result<(), CoreError> {
        if self.units_processed > 0 || !self.open_counts.is_empty() || self.tree.len() > 1 {
            return Err(CoreError::InvalidConfig(
                "adopt_tree must be called before any data or categories".into(),
            ));
        }
        self.tree = tree;
        Ok(())
    }

    /// Extracts every top-level subtree whose label matches `select`,
    /// detaching its tree nodes, tracker state and pending open-unit
    /// counts into a transplantable [`SubtreeState`] and compacting this
    /// detector down to the survivors.
    ///
    /// Must only be called at a timeunit barrier alignment point — the
    /// extracted state carries the detector's `open_unit` and
    /// `units_processed`, and [`Tiresias::adopt_subtrees`] asserts they
    /// match the adopter's. Anomaly events already emitted for the
    /// moved subtrees stay in this detector's store; a merging caller
    /// orders events by `(unit, path)`, so the merged stream is
    /// unaffected by which store holds them.
    pub fn extract_subtrees(&mut self, select: impl FnMut(&str) -> bool) -> SubtreeState {
        let surgery = self.tree.extract_top_subtrees(select);
        let mut slot_of = vec![None; surgery.old_to_new.len()];
        for (slot, m) in surgery.moved.iter().enumerate() {
            slot_of[m.old_id.index()] = Some(slot as u32);
        }
        let tracker = match &mut self.state {
            State::Warmup { units } => {
                let mut cols = Vec::with_capacity(units.len());
                for unit in units.iter_mut() {
                    let col: Vec<f64> = surgery
                        .moved
                        .iter()
                        .map(|m| unit.get(m.old_id.index()).copied().unwrap_or(0.0))
                        .collect();
                    compact_warmup_unit(unit, &surgery.old_to_new);
                    cols.push(col);
                }
                TrackerSlice::Warmup(cols)
            }
            State::Running { tracker } => match tracker {
                Tracker::Ada(a) => {
                    TrackerSlice::Ada(Box::new(a.extract_nodes(&self.tree, &surgery)))
                }
                Tracker::Sta(s) => {
                    TrackerSlice::Sta(Box::new(s.extract_nodes(&self.tree, &surgery)))
                }
            },
        };
        let open = self
            .open_counts
            .extract_remap(|i| slot_of.get(i).copied().flatten(), &surgery.old_to_new);
        SubtreeState {
            moved: surgery.moved,
            tracker,
            open,
            open_unit: self.open_unit,
            units_processed: self.units_processed,
        }
    }

    /// Grafts subtrees extracted from an equally-advanced detector
    /// (same open unit, same processed-unit count, same lifecycle
    /// phase) into this one. Inverse of [`Tiresias::extract_subtrees`];
    /// adopting an empty state is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if the timelines are unaligned, the detectors are in
    /// different lifecycle phases (one still warming up), or a moved
    /// top-level label already exists here — all contract violations of
    /// the epoch-barrier rebalancing protocol.
    pub fn adopt_subtrees(&mut self, state: SubtreeState) {
        if state.is_empty() {
            return;
        }
        assert_eq!(
            state.units_processed, self.units_processed,
            "adopting subtree state across unaligned timelines"
        );
        assert_eq!(
            state.open_unit, self.open_unit,
            "adopting subtree state across different open units"
        );
        let ids = self.tree.adopt_top_subtrees(&state.moved);
        match (&mut self.state, state.tracker) {
            (State::Warmup { units }, TrackerSlice::Warmup(cols)) => {
                assert_eq!(
                    units.len(),
                    cols.len(),
                    "adopting subtree state across different warm-up depths"
                );
                let tree_len = self.tree.len();
                for (unit, col) in units.iter_mut().zip(cols) {
                    if unit.len() < tree_len {
                        unit.resize(tree_len, 0.0);
                    }
                    for (slot, v) in col.into_iter().enumerate() {
                        if v != 0.0 {
                            unit[ids[slot].index()] = v;
                        }
                    }
                }
            }
            (State::Running { tracker: Tracker::Ada(a) }, TrackerSlice::Ada(slice)) => {
                a.adopt_nodes(&self.tree, &ids, *slice);
            }
            (State::Running { tracker: Tracker::Sta(s) }, TrackerSlice::Sta(slice)) => {
                s.adopt_nodes(&self.tree, &ids, *slice);
            }
            _ => panic!("adopting subtree state across mismatched detector phases"),
        }
        for (slot, w) in state.open {
            self.open_counts.add(ids[slot as usize].index(), w);
        }
    }

    /// Per-top-level-label load of the most recent timeunit, as
    /// `(label, aggregate record count)` pairs in child order — the
    /// measurement the skew-adaptive rebalancer feeds on.
    pub fn top_level_unit_loads(&self) -> Vec<(String, f64)> {
        let children = self.tree.children(self.tree.root());
        if children.is_empty() {
            return Vec::new();
        }
        let load_of: Vec<f64> = match &self.state {
            State::Running { tracker: Tracker::Ada(a) } => {
                children.iter().map(|&c| a.aggregate_weight(c)).collect()
            }
            State::Running { tracker: Tracker::Sta(s) } => {
                let agg = s.latest_aggregates(&self.tree);
                children.iter().map(|&c| agg.get(c.index()).copied().unwrap_or(0.0)).collect()
            }
            State::Warmup { units } => match units.last() {
                None => vec![0.0; children.len()],
                Some(unit) => children
                    .iter()
                    .map(|&c| {
                        self.tree
                            .subtree(c)
                            .map(|n| unit.get(n.index()).copied().unwrap_or(0.0))
                            .sum()
                    })
                    .collect(),
            },
        };
        children
            .iter()
            .zip(load_of)
            .map(|(&c, load)| (self.tree.label(c).to_string(), load))
            .collect()
    }

    /// Closes units `[open, target)`.
    ///
    /// The open-counts buffer is already dense, so closing a unit is a
    /// hand-off, not a copy: the buffer is lent to the pipeline, its
    /// touched slots are zeroed in O(records), and the allocation is
    /// recycled for the next unit (gap units reuse the same all-zero
    /// buffer).
    fn close_until(&mut self, target: u64) -> Result<(), CoreError> {
        let Some(mut open) = self.open_unit else {
            self.open_unit = Some(target);
            return Ok(());
        };
        while open < target {
            let mut counts = self.open_counts.take();
            counts.ensure_len(self.tree.len());
            let result = self.process_closed_unit(open, counts.dense(), Some(counts.touched()));
            counts.reset();
            self.open_counts = counts;
            result?;
            open += 1;
        }
        self.open_unit = Some(open.max(target));
        Ok(())
    }

    /// Pipeline for one closed timeunit (Steps 2–5 of Fig. 3).
    /// `touched`, when known, lists every node index with a non-zero
    /// count in `dense`, which lets ADA close the unit over its frontier
    /// without scanning the tree.
    fn process_closed_unit(
        &mut self,
        unit: u64,
        dense: &[f64],
        touched: Option<&[u32]>,
    ) -> Result<(), CoreError> {
        match &mut self.state {
            State::Warmup { units } => {
                units.push(dense.to_vec());
                if units.len() >= self.warmup_target.max(1) {
                    self.finish_warmup()?;
                }
            }
            State::Running { tracker } => {
                match tracker {
                    Tracker::Ada(a) => match touched {
                        Some(touched) => a.push_timeunit_touched(&self.tree, dense, touched),
                        None => a.push_timeunit(&self.tree, dense),
                    },
                    Tracker::Sta(s) => s.push_timeunit(&self.tree, dense),
                }
                let t0 = Instant::now();
                let (rt, dt) = (self.builder.rt, self.builder.dt);
                let mut new_events = Vec::new();
                let candidates: Vec<(NodeId, f64, f64)> = match tracker {
                    Tracker::Ada(a) => a
                        .heavy_hitters()
                        .iter()
                        .filter_map(|&n| a.view(n).map(|v| (n, v.latest_actual, v.latest_forecast)))
                        .collect(),
                    Tracker::Sta(s) => s
                        .heavy_hitters()
                        .iter()
                        .filter_map(|&n| s.latest(n).map(|(a, f)| (n, a, f)))
                        .collect(),
                };
                for (n, actual, forecast) in candidates {
                    let kind = if is_anomalous(actual, forecast, rt, dt) {
                        Some(AnomalyKind::Spike)
                    } else if self.builder.detect_drops && is_drop(actual, forecast, rt, dt) {
                        Some(AnomalyKind::Drop)
                    } else {
                        None
                    };
                    if let Some(kind) = kind {
                        new_events.push(AnomalyEvent {
                            node: n,
                            path: self.tree.path_of(n),
                            level: self.tree.depth(n),
                            unit,
                            time_secs: unit * self.builder.timeunit_secs,
                            actual,
                            forecast,
                            kind,
                        });
                    }
                }
                self.store.extend(new_events);
                self.detecting += t0.elapsed();
            }
        }
        self.units_processed += 1;
        // Record the close so the store's retention budget (if any)
        // can evict and its last-closed watermark stays truthful.
        self.store.note_closed(unit);
        Ok(())
    }

    /// Converts the warm-up buffer into a running tracker, resolving
    /// auto-seasonality if requested (Fig. 3, Step 3).
    fn finish_warmup(&mut self) -> Result<(), CoreError> {
        let State::Warmup { units } = &mut self.state else {
            return Ok(());
        };
        let units = std::mem::take(units);
        // Auto-seasonality: analyse the root aggregate (= total count per
        // unit, since the hierarchy is additive).
        if let Some(max_factors) = self.builder.auto_seasonality {
            let totals: Vec<f64> = units.iter().map(|u| u.iter().sum()).collect();
            let analysis = SeasonalityAnalysis::analyze(&totals, max_factors.max(1));
            let seasons = analysis.seasons();
            if !seasons.is_empty() {
                self.resolved_model = if seasons.len() == 1 {
                    ModelSpec::HoltWinters {
                        alpha: self.builder.hw_alpha,
                        beta: self.builder.hw_beta,
                        gamma: self.builder.hw_gamma,
                        season: (seasons[0].period_units.round() as usize).max(2),
                    }
                } else {
                    ModelSpec::MultiSeasonal {
                        alpha: self.builder.hw_alpha,
                        beta: self.builder.hw_beta,
                        gamma: self.builder.hw_gamma,
                        factors: seasons
                            .iter()
                            .map(|s| {
                                SeasonalFactor::new(
                                    (s.period_units.round() as usize).max(2),
                                    s.weight,
                                )
                            })
                            .collect(),
                    }
                };
            }
        }
        let config: HhhConfig = self.builder.hhh_config(self.resolved_model.clone());
        let tracker = match self.builder.algorithm {
            Algorithm::Ada => {
                Tracker::Ada(Box::new(Ada::with_history(config, &self.tree, &units)?))
            }
            Algorithm::Sta => {
                let mut sta = Sta::new(config)?;
                let mut padded = units;
                for u in &mut padded {
                    u.resize(self.tree.len(), 0.0);
                    sta.push_timeunit(&self.tree, u);
                }
                Tracker::Sta(Box::new(sta))
            }
        };
        self.state = State::Running { tracker };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TiresiasBuilder;

    fn small_detector(warmup: usize) -> Tiresias {
        TiresiasBuilder::new()
            .timeunit_secs(900)
            .window_len(32)
            .threshold(5.0)
            .season_length(4)
            .sensitivity(2.0, 5.0)
            .warmup_units(warmup)
            .ref_levels(0)
            .build()
            .unwrap()
    }

    fn feed_unit(d: &mut Tiresias, unit: u64, path: &str, count: u64) {
        for i in 0..count {
            d.push(Record::new(path, unit * 900 + i)).unwrap();
        }
        d.advance_to((unit + 1) * 900).unwrap();
    }

    #[test]
    fn warmup_then_detection() {
        let mut d = small_detector(8);
        for u in 0..8 {
            feed_unit(&mut d, u, "TV/NoService", 10);
        }
        assert!(d.is_warmed_up());
        assert!(d.anomalies().is_empty());
        // Steady traffic: still nothing.
        feed_unit(&mut d, 8, "TV/NoService", 10);
        assert!(d.anomalies().is_empty());
        // Burst: detected at the leaf.
        feed_unit(&mut d, 9, "TV/NoService", 100);
        assert_eq!(d.anomalies().len(), 1);
        let e = &d.anomalies()[0];
        assert_eq!(e.path.to_string(), "TV/NoService");
        assert_eq!(e.unit, 9);
        assert!(e.actual >= 100.0 - 1e-9);
    }

    #[test]
    fn push_str_matches_record_path() {
        let mut a = small_detector(4);
        let mut b = small_detector(4);
        let stream = [
            ("TV/NoService", 0u64),
            ("TV/NoService", 10),
            ("/TV//Pixelation/", 20),
            ("Internet/Slow", 950),
            ("TV/NoService", 1000),
        ];
        for &(path, t) in &stream {
            a.push(Record::new(path, t)).unwrap();
            b.push_str(path, t).unwrap();
        }
        a.advance_to(40 * 900).unwrap();
        b.advance_to(40 * 900).unwrap();
        assert_eq!(a.units_processed(), b.units_processed());
        assert_eq!(a.tree().len(), b.tree().len());
        for n in a.tree().iter() {
            assert_eq!(a.tree().label(n), b.tree().label(n));
        }
        assert_eq!(a.heavy_hitters(), b.heavy_hitters());
        assert_eq!(a.anomalies(), b.anomalies());
    }

    #[test]
    fn push_count_equals_repeated_push_str() {
        let mut a = small_detector(4);
        let mut b = small_detector(4);
        // (path, unit, n): repeats, a gap (unit 5 → 9), a zero cell
        // that must not even create its node, and a burst to detect.
        let cells = [
            ("TV/NoService", 0u64, 7u64),
            ("Net/Slow", 0, 3),
            ("TV/NoService", 0, 2),
            ("Ghost/Never", 1, 0),
            ("TV/NoService", 1, 9),
            ("TV/NoService", 2, 9),
            ("TV/NoService", 3, 9),
            ("TV/NoService", 4, 9),
            ("TV/NoService", 5, 9),
            ("Net/Slow", 9, 1),
            ("TV/NoService", 9, 120),
        ];
        for &(path, unit, n) in &cells {
            for _ in 0..n {
                a.push_str(path, unit * 900).unwrap();
            }
            b.push_count(path, unit * 900, n).unwrap();
        }
        // The whole serialised state must agree, wall-clock stage
        // timers aside.
        fn state(d: &Tiresias) -> String {
            let mut d = d.clone();
            (d.reading, d.detecting) = Default::default();
            let json = serde_json::to_string(&d).unwrap();
            let (head, rest) = json.split_once("\"timings\":{").expect("running tracker");
            let (_, tail) = rest.split_once("}}").expect("four durations");
            format!("{head}{tail}")
        }
        // Mid-unit: open counts and their first-touch order included.
        assert_eq!(state(&a), state(&b));
        a.advance_to(10 * 900).unwrap();
        b.advance_to(10 * 900).unwrap();
        assert!(!a.anomalies().is_empty(), "the burst is detected");
        assert_eq!(state(&a), state(&b));
        assert!(b.tree().resolve_str("Ghost/Never").is_none());
        let err = b.push_count("TV/NoService", 0, 4).unwrap_err();
        assert!(matches!(err, CoreError::OutOfOrder { .. }));
    }

    #[test]
    fn push_str_rejects_out_of_order() {
        let mut d = small_detector(2);
        d.push_str("a", 5000).unwrap();
        d.advance_to(9000).unwrap();
        let err = d.push_str("a", 100).unwrap_err();
        assert!(matches!(err, CoreError::OutOfOrder { .. }));
    }

    #[test]
    fn out_of_order_records_are_rejected() {
        let mut d = small_detector(2);
        d.push(Record::new("a", 5000)).unwrap();
        d.advance_to(9000).unwrap();
        let err = d.push(Record::new("a", 100)).unwrap_err();
        assert!(matches!(err, CoreError::OutOfOrder { .. }));
    }

    #[test]
    fn gaps_produce_zero_units() {
        let mut d = small_detector(2);
        feed_unit(&mut d, 0, "a", 10);
        feed_unit(&mut d, 1, "a", 10);
        // Jump 5 units ahead: 4 empty units close silently.
        d.push(Record::new("a", 6 * 900)).unwrap();
        assert_eq!(d.units_processed(), 6);
    }

    #[test]
    fn push_auto_advances_units() {
        let mut d = small_detector(2);
        d.push(Record::new("a", 0)).unwrap();
        d.push(Record::new("a", 950)).unwrap(); // next unit
        assert_eq!(d.units_processed(), 1);
        assert_eq!(d.current_unit(), Some(1));
    }

    #[test]
    fn ingest_unit_bulk_api() {
        let mut d = small_detector(2);
        let leaf = d.register_category("x/y");
        let mut unit = vec![0.0; d.tree().len()];
        unit[leaf.index()] = 10.0;
        for _ in 0..4 {
            let events = d.ingest_unit(&unit).unwrap();
            assert!(events.is_empty());
        }
        let mut burst = unit.clone();
        burst[leaf.index()] = 90.0;
        let events = d.ingest_unit(&burst).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].node, leaf);
    }

    #[test]
    fn mixing_apis_within_a_unit_is_rejected() {
        let mut d = small_detector(2);
        d.push(Record::new("a", 0)).unwrap();
        assert!(d.ingest_unit(&[0.0]).is_err());
    }

    #[test]
    fn sta_algorithm_detects_too() {
        let mut d = TiresiasBuilder::new()
            .timeunit_secs(900)
            .window_len(16)
            .threshold(5.0)
            .season_length(4)
            .sensitivity(2.0, 5.0)
            .warmup_units(8)
            .algorithm(Algorithm::Sta)
            .build()
            .unwrap();
        for u in 0..9 {
            feed_unit(&mut d, u, "TV", 10);
        }
        feed_unit(&mut d, 9, "TV", 100);
        assert_eq!(d.anomalies().len(), 1);
    }

    #[test]
    fn new_categories_grow_the_tree() {
        let mut d = small_detector(2);
        feed_unit(&mut d, 0, "a/b", 6);
        let before = d.tree().len();
        feed_unit(&mut d, 1, "c/d/e", 6);
        assert!(d.tree().len() > before);
    }

    #[test]
    fn auto_seasonality_resolves_period() {
        let mut d = TiresiasBuilder::new()
            .timeunit_secs(900)
            .window_len(64)
            .threshold(3.0)
            .season_length(99) // wrong on purpose; auto should fix it
            .auto_seasonality(1)
            .warmup_units(48)
            .build()
            .unwrap();
        let leaf = d.register_category("x");
        // Period-8 pattern during warm-up.
        for u in 0..48u64 {
            let count = 10.0 + 8.0 * ((u % 8) as f64 / 8.0 * std::f64::consts::TAU).sin();
            let mut unit = vec![0.0; d.tree().len()];
            unit[leaf.index()] = count.max(0.0).round();
            d.ingest_unit(&unit).unwrap();
        }
        assert!(d.is_warmed_up());
        match d.model_spec() {
            ModelSpec::HoltWinters { season, .. } => {
                assert!((6..=10).contains(season), "detected season {season}");
            }
            other => panic!("expected single-season model, got {other:?}"),
        }
    }

    #[test]
    fn heavy_hitters_visible_after_warmup() {
        let mut d = small_detector(3);
        for u in 0..5 {
            feed_unit(&mut d, u, "hot/leaf", 20);
        }
        let hh = d.heavy_hitters();
        assert!(!hh.is_empty());
        let leaf = d.tree().find(&["hot", "leaf"]).unwrap();
        assert!(hh.contains(&leaf));
    }

    /// A root-isolated detector, as the shards of a `ShardedTiresias`
    /// run — the configuration under which subtree surgery is exact.
    fn isolated_detector(warmup: usize) -> Tiresias {
        let mut b = TiresiasBuilder::new()
            .timeunit_secs(900)
            .window_len(32)
            .threshold(5.0)
            .season_length(4)
            .sensitivity(2.0, 5.0)
            .warmup_units(warmup)
            .ref_levels(1);
        b.root_isolation = true;
        b.build().unwrap()
    }

    fn feed(d: &mut Tiresias, unit: u64, paths: &[(&str, u64)]) {
        for &(path, count) in paths {
            for i in 0..count {
                d.push_str(path, unit * 900 + i).unwrap();
            }
        }
        d.advance_to((unit + 1) * 900).unwrap();
    }

    fn hh_paths(d: &Tiresias) -> Vec<String> {
        let mut p: Vec<String> =
            d.heavy_hitters().iter().map(|&n| d.tree().path_of(n).to_string()).collect();
        p.sort();
        p
    }

    /// Events after `unit` in `(unit, path)` order — the order the
    /// sharded merge normalises to. Within one detector, same-unit
    /// events surface in tree-node order, which adoption legitimately
    /// permutes (the adopted subtree's nodes append last).
    fn events_after(d: &Tiresias, unit: u64) -> Vec<(u64, String, f64, f64)> {
        let mut events: Vec<(u64, String, f64, f64)> = d
            .anomalies()
            .iter()
            .filter(|e| e.unit > unit)
            .map(|e| (e.unit, e.path.to_string(), e.actual, e.forecast))
            .collect();
        events.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        events
    }

    #[test]
    fn extract_adopt_matches_native_routing_while_running() {
        let mut src = isolated_detector(4);
        let mut dst = isolated_detector(4);
        let mut native = isolated_detector(4);
        for u in 0..10 {
            feed(&mut src, u, &[("a/x", 12), ("b/y", 30)]);
            feed(&mut dst, u, &[("c/z", 12)]);
            feed(&mut native, u, &[("b/y", 30), ("c/z", 12)]);
        }
        assert!(src.is_warmed_up() && dst.is_warmed_up());

        // Loads reflect the last closed unit, per top-level label.
        let loads = src.top_level_unit_loads();
        assert_eq!(loads, vec![("a".to_string(), 12.0), ("b".to_string(), 30.0)]);

        // Pending open-unit records move with the subtree.
        for d in [&mut src, &mut native] {
            for i in 0..3 {
                d.push_str("b/y", 10 * 900 + i).unwrap();
            }
        }

        let state = src.extract_subtrees(|l| l == "b");
        assert!(!state.is_empty());
        assert_eq!(state.labels().collect::<Vec<_>>(), vec!["b"]);
        assert!(src.tree().find(&["b"]).is_none(), "source no longer owns b");
        dst.adopt_subtrees(state);
        assert!(dst.tree().find(&["b", "y"]).is_some());

        // Steady, then burst both the adopted and the resident subtree.
        for u in 10..13 {
            feed(&mut dst, u, &[("b/y", 30), ("c/z", 12)]);
            feed(&mut native, u, &[("b/y", 30), ("c/z", 12)]);
        }
        feed(&mut dst, 13, &[("b/y", 200), ("c/z", 150)]);
        feed(&mut native, 13, &[("b/y", 200), ("c/z", 150)]);

        assert_eq!(hh_paths(&dst), hh_paths(&native));
        let dst_events = events_after(&dst, 10);
        assert_eq!(dst_events, events_after(&native, 10));
        assert!(dst_events.iter().any(|(_, p, ..)| p == "b/y"), "burst detected post-move");
        assert!(dst_events.iter().any(|(_, p, ..)| p == "c/z"));
    }

    #[test]
    fn extract_adopt_matches_native_routing_during_warmup() {
        let mut src = isolated_detector(6);
        let mut dst = isolated_detector(6);
        let mut native = isolated_detector(6);
        for u in 0..3 {
            feed(&mut src, u, &[("a/x", 12), ("b/y", 30)]);
            feed(&mut dst, u, &[("c/z", 12)]);
            feed(&mut native, u, &[("b/y", 30), ("c/z", 12)]);
        }
        assert!(!src.is_warmed_up());
        let state = src.extract_subtrees(|l| l == "b");
        dst.adopt_subtrees(state);
        for u in 3..10 {
            feed(&mut dst, u, &[("b/y", 30), ("c/z", 12)]);
            feed(&mut native, u, &[("b/y", 30), ("c/z", 12)]);
        }
        assert!(dst.is_warmed_up());
        feed(&mut dst, 10, &[("b/y", 200), ("c/z", 12)]);
        feed(&mut native, 10, &[("b/y", 200), ("c/z", 12)]);
        assert_eq!(hh_paths(&dst), hh_paths(&native));
        assert_eq!(events_after(&dst, 0), events_after(&native, 0));
        assert!(dst.anomalies().iter().any(|e| e.path.to_string() == "b/y"));
    }

    #[test]
    #[should_panic(expected = "unaligned timelines")]
    fn adopting_across_unaligned_timelines_panics() {
        let mut src = isolated_detector(2);
        let mut dst = isolated_detector(2);
        feed(&mut src, 0, &[("b/y", 10)]);
        feed(&mut src, 1, &[("b/y", 10)]);
        feed(&mut dst, 0, &[("c/z", 10)]);
        let state = src.extract_subtrees(|l| l == "b");
        dst.adopt_subtrees(state);
    }

    #[test]
    fn timings_track_stages() {
        let mut d = small_detector(2);
        for u in 0..6 {
            feed_unit(&mut d, u, "a", 10);
        }
        let t = d.timings();
        assert!(t.reading_traces > std::time::Duration::ZERO);
    }
}
