use std::time::Instant;

use tiresias_hierarchy::{NodeId, Tree};
use tiresias_timeseries::Series;

use crate::config::HhhConfig;
use crate::error::HhhError;
use crate::memory::MemoryReport;
use crate::model::Model;
use crate::shhh::{aggregate_weights, aggregate_weights_into, compute_shhh, series_values};
use crate::split_rule::{SplitRule, SplitStats, StatRow};
use crate::surgery::compact_vec;
use crate::timings::StageTimings;

use tiresias_hierarchy::TreeSurgery;

/// Detached per-node ADA state for an extracted set of top-level
/// subtrees, aligned with [`TreeSurgery::moved`]. Produced by
/// [`Ada::extract_nodes`] on the shard losing the subtrees and consumed
/// by [`Ada::adopt_nodes`] on the shard gaining them.
#[derive(Debug)]
pub struct AdaSlice {
    nodes: Vec<AdaNode>,
    series_len: usize,
    instances: u64,
}

#[derive(Debug)]
struct AdaNode {
    in_shhh: bool,
    ishh: bool,
    weight: f64,
    agg: f64,
    series: Option<NodeSeries>,
    ref_actual: Option<Series>,
    stats: StatRow,
}

/// The time-series state bound to a live heavy hitter node.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct NodeSeries {
    /// Modified-weight history (`n.actual`), oldest → newest.
    actual: Series,
    /// One-step forecasts aligned with `actual` (`n.forecast`).
    forecast: Series,
    /// The forecasting model, positioned to predict the next timeunit.
    model: Model,
}

/// Read-only view of one live heavy hitter, produced by [`Ada::view`].
#[derive(Debug)]
pub struct HeavyHitterView<'a> {
    /// The heavy hitter node.
    pub node: NodeId,
    /// Modified-weight history, oldest → newest.
    pub actual: &'a Series,
    /// One-step forecasts aligned with `actual`.
    pub forecast: &'a Series,
    /// The node's modified weight in the newest timeunit (`T[n, 1]`).
    pub latest_actual: f64,
    /// The forecast that was made for the newest timeunit (`F[n, 1]`).
    pub latest_forecast: f64,
}

/// The frontier `D` of one unit close: the ancestor closure of the
/// nodes counted this unit, the nodes counted last unit and last unit's
/// heavy hitters. Outside `D` every per-node column of [`Ada`] is zero
/// (or `false`, or `None`) before the close and stays so after it, so
/// the close visits `D` only. Any superset of `D` gives the same result;
/// a close whose `D` would span most of the tree takes all of it.
///
/// Pure scratch: never serialised, and its buffers are recycled across
/// units.
#[derive(Debug, Clone, Default)]
struct Frontier {
    /// `D` grouped by depth, each level sorted by node id. `Tree` only
    /// ever appends to a level and compaction keeps arena order, so this
    /// is the tree's level order restricted to `D`.
    levels: Vec<Vec<NodeId>>,
    /// `in_d[i]` iff node index `i` is in `D`.
    in_d: Vec<bool>,
    /// The node indices counted last unit (duplicates allowed).
    last_counted: Vec<u32>,
    /// `false` while `last_counted` is unknown — after a restore (it is
    /// not serialised) or a migration (node ids changed) — so the next
    /// close rebuilds it once from the per-node columns.
    primed: bool,
    /// `ids[i]` is the [`NodeId`] of arena index `i` (ids come only from
    /// a `Tree`, and the counted nodes arrive as indices). Index `i`
    /// always names the same id, so entries never go stale; the table
    /// only grows.
    ids: Vec<NodeId>,
    /// Recycled buffer of [`Ada::push_timeunit`]'s non-zero scan.
    scan: Vec<u32>,
}

impl Frontier {
    /// Sizes the buffers for `tree`, independently of the serialised
    /// columns.
    fn fit(&mut self, tree: &Tree) {
        if self.in_d.len() < tree.len() {
            self.in_d.resize(tree.len(), false);
        }
        if self.levels.len() <= tree.max_depth() {
            self.levels.resize_with(tree.max_depth() + 1, Vec::new);
        }
        // New nodes have the largest ids, so they sit at the tail of
        // their (id-sorted) level.
        let known = self.ids.len();
        if known < tree.len() {
            self.ids.resize(tree.len(), tree.root());
            for depth in 0..=tree.max_depth() {
                for &n in tree.nodes_at_depth(depth).iter().rev() {
                    if n.index() < known {
                        break;
                    }
                    self.ids[n.index()] = n;
                }
            }
        }
    }

    /// Adds `n` and its ancestors, stopping at the first one already in
    /// `D` (whose ancestors are then in `D` too).
    fn add_with_ancestors(&mut self, tree: &Tree, n: NodeId) {
        let mut cur = Some(n);
        while let Some(n) = cur {
            if self.in_d[n.index()] {
                return;
            }
            self.in_d[n.index()] = true;
            self.levels[tree.depth(n)].push(n);
            cur = tree.parent(n);
        }
    }

    /// Makes `D` the whole tree.
    fn take_all(&mut self, tree: &Tree) {
        for (depth, level) in self.levels.iter_mut().enumerate() {
            level.clear();
            level.extend_from_slice(tree.nodes_at_depth(depth));
        }
        self.in_d[..tree.len()].fill(true);
    }

    /// Adds node `n`, whose parent is in `D`, at its sorted position.
    fn insert(&mut self, tree: &Tree, n: NodeId) {
        if !self.in_d[n.index()] {
            self.in_d[n.index()] = true;
            let level = &mut self.levels[tree.depth(n)];
            let at = level.binary_search(&n).unwrap_or_else(|at| at);
            level.insert(at, n);
        }
    }

    /// `D` in top-down level order.
    fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.levels.iter().flatten().copied()
    }

    /// `D` in bottom-up level order (deepest level first, ascending ids
    /// within a level), the order of [`Tree::rev_level_order`].
    fn iter_rev(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.levels.iter().rev().flatten().copied()
    }

    /// Empties `D`, keeping every allocation.
    fn clear(&mut self) {
        for level in &mut self.levels {
            for &n in level.iter() {
                self.in_d[n.index()] = false;
            }
            level.clear();
        }
    }
}

/// The adaptive algorithm **ADA** (Fig. 5–8 of the paper).
///
/// ADA maintains a *single* tree. Every heavy hitter node owns its
/// bounded time series and forecaster state; when the heavy hitter set
/// drifts between timeunits, that state is moved through the hierarchy
/// rather than rebuilt:
///
/// * `SPLIT` (Fig. 7, §V-B4) hands a node's series down to its
///   non-heavy-hitter children, apportioned by a [`crate::SplitRule`],
///   when a new heavy hitter emerged below it;
/// * `MERGE` (Fig. 8) sums the series of heavy hitters that fell below θ
///   into their parent;
/// * **reference time series** (§V-B5), kept for nodes in the top `h`
///   levels, replace a freshly split child's approximate series with the
///   exact `T_REF − Σ T(heavy-hitter descendants)` whenever available.
///
/// Heavy-hitter *membership* is always exact (Lemma 1) — it is recomputed
/// from Definition 2 every timeunit — only the series *contents*
/// inherited through splits are approximate, with error decaying
/// exponentially under the forecaster's smoothing (Fig. 9).
///
/// # Cost of a timeunit
///
/// Only the unit's *frontier* `D` can change state: the nodes counted
/// this unit, the nodes counted last unit, last unit's heavy hitters,
/// and their ancestors. Every other node has a zero aggregate, a zero
/// weight and no membership before and after the unit. A close therefore
/// computes aggregates, Definition-2 weights, mark/split/merge and the
/// member list over `D` alone, in level order, which costs
/// O(|D| log |D|) instead of O(|tree|) and produces bit-identical state
/// (the skipped nodes would only add `+0.0` terms); a split's reference
/// correction likewise walks only the part of `D` below the split child.
/// What still scales with the tree: the reference-series appends
/// (O(nodes in the top `h` levels)) and, under [`SplitRule::Ewma`] only,
/// the EWMA decay of the split statistic (O(|tree|)).
///
/// # Example
///
/// ```
/// use tiresias_hierarchy::Tree;
/// use tiresias_hhh::{Ada, HhhConfig, ModelSpec};
///
/// let mut tree = Tree::new("All");
/// let leaf = tree.insert_path(&["TV", "No Service"]);
/// let cfg = HhhConfig::new(5.0, 16).with_model(ModelSpec::Ewma { alpha: 0.5 });
/// let mut ada = Ada::new(cfg)?;
/// for _ in 0..10 {
///     let mut direct = vec![0.0; tree.len()];
///     direct[leaf.index()] = 7.0;
///     ada.push_timeunit(&tree, &direct);
/// }
/// assert!(ada.is_heavy_hitter(leaf));
/// let view = ada.view(leaf).unwrap();
/// assert_eq!(view.latest_actual, 7.0);
/// # Ok::<(), tiresias_hhh::HhhError>(())
/// ```
///
/// `Ada` is fully serialisable (serde), so a long-running deployment can
/// checkpoint its tracker state and resume after a restart without
/// replaying the window.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Ada {
    config: HhhConfig,
    /// Current SHHH membership (the paper's `SHHH` set).
    in_shhh: Vec<bool>,
    /// Definition-2 flags of the current timeunit (`n.ishh`).
    ishh: Vec<bool>,
    /// Definition-2 modified weights of the current timeunit
    /// (`n.weight`).
    weight: Vec<f64>,
    /// Aggregate (original) weights `A_n` of the current timeunit.
    agg: Vec<f64>,
    /// Per-node series state; `Some` iff the node is in SHHH (plus a
    /// transient exception for the root between instances).
    series: Vec<Option<NodeSeries>>,
    /// Reference time series of `A_n` for nodes in levels `1..=h`.
    ref_actual: Vec<Option<Series>>,
    /// Statistics feeding the split-ratio heuristics.
    stats: SplitStats,
    /// Current aligned length of every live series (≤ ℓ).
    series_len: usize,
    /// Global timeunits processed (including any initialisation
    /// history).
    instances: u64,
    members: Vec<NodeId>,
    timings: StageTimings,
    /// Split propagation marks (`n.tosplit`): set inside one close and
    /// cleared before it returns, so pure scratch.
    #[serde(skip)]
    tosplit: Vec<bool>,
    #[serde(skip)]
    frontier: Frontier,
}

impl Ada {
    /// Creates an ADA tracker with no history. The first timeunits cold-
    /// start heavy hitters with zero series; prefer
    /// [`Ada::with_history`] when a warm-up window is available.
    ///
    /// # Errors
    ///
    /// Returns [`HhhError::InvalidConfig`] if the configuration fails
    /// validation.
    pub fn new(config: HhhConfig) -> Result<Self, HhhError> {
        config.validate().map_err(HhhError::InvalidConfig)?;
        Ok(Ada {
            config,
            in_shhh: Vec::new(),
            ishh: Vec::new(),
            weight: Vec::new(),
            agg: Vec::new(),
            series: Vec::new(),
            ref_actual: Vec::new(),
            stats: SplitStats::with_len(0),
            series_len: 0,
            instances: 0,
            members: Vec::new(),
            timings: StageTimings::default(),
            tosplit: Vec::new(),
            frontier: Frontier::default(),
        })
    }

    /// Creates an ADA tracker warm-started from a window of historical
    /// timeunits (the paper's first-instance STA-style initialisation,
    /// Fig. 5 lines 2–5): heavy hitters are detected on the newest unit
    /// and their series reconstructed exactly over the whole window.
    ///
    /// # Errors
    ///
    /// Returns [`HhhError::InvalidConfig`] for invalid configurations or
    /// [`HhhError::Model`] if the forecasting model cannot be built.
    ///
    /// # Panics
    ///
    /// Panics if any history unit is shorter than the tree.
    pub fn with_history(
        config: HhhConfig,
        tree: &Tree,
        history: &[Vec<f64>],
    ) -> Result<Self, HhhError> {
        let mut ada = Ada::new(config)?;
        ada.ensure_capacity(tree);
        let keep = history.len().min(ada.config.ell);
        if keep == 0 {
            return Ok(ada);
        }
        let window = &history[history.len() - keep..];
        // Older units may predate tree growth; one scratch buffer pads
        // each unit to the current tree size as it is visited (absent
        // nodes had zero counts) instead of cloning the whole window.
        let mut padded = vec![0.0; tree.len()];
        fn pad_into(padded: &mut [f64], unit: &[f64]) {
            let n = unit.len().min(padded.len());
            padded[..n].copy_from_slice(&unit[..n]);
            for v in &mut padded[n..] {
                *v = 0.0;
            }
        }

        // Membership from the newest unit (Definition 2).
        pad_into(&mut padded, window.last().expect("window non-empty"));
        let shhh = compute_shhh(tree, &padded, ada.config.theta);
        ada.ishh = shhh.is_member.clone();
        // The adaptation choreography keeps these two in sync, so the
        // second copy can take the buffer by value instead of cloning.
        ada.in_shhh = shhh.is_member;
        ada.weight = shhh.modified;
        ada.members = shhh.members;
        ada.agg = aggregate_weights(tree, &padded);
        ada.series_len = window.len();
        ada.instances = history.len() as u64;
        let start_unit = ada.instances - window.len() as u64;

        // Exact series reconstruction with membership held fixed.
        let mut histories: Vec<Vec<f64>> = vec![Vec::new(); tree.len()];
        for unit in window {
            pad_into(&mut padded, unit);
            let values = series_values(tree, &padded, &ada.in_shhh);
            for &m in &ada.members {
                histories[m.index()].push(values[m.index()]);
            }
        }
        for &m in &ada.members {
            let hist = &histories[m.index()];
            let (model, forecasts) = Model::replay(&ada.config.model, hist, start_unit)?;
            ada.series[m.index()] = Some(NodeSeries {
                actual: Series::from_values(ada.config.ell, hist),
                forecast: Series::from_values(ada.config.ell, &forecasts),
                model,
            });
        }

        // Reference series and split statistics from the full window.
        let mut agg = Vec::new();
        let ewma_alpha = ada.ewma_alpha();
        for unit in window {
            pad_into(&mut padded, unit);
            aggregate_weights_into(tree, &padded, &mut agg);
            ada.stats.record_unit(&agg, ewma_alpha);
            for n in tree.iter() {
                let depth = tree.depth(n);
                if depth >= 1 && depth <= ada.config.ref_levels {
                    ada.ref_actual[n.index()]
                        .get_or_insert_with(|| Series::with_capacity(ada.config.ell))
                        .push(agg[n.index()]);
                }
            }
        }
        Ok(ada)
    }

    /// The configuration in use.
    pub fn config(&self) -> &HhhConfig {
        &self.config
    }

    /// Global timeunits processed so far.
    pub fn instances(&self) -> u64 {
        self.instances
    }

    /// The EWMA split statistic's rate, when the split rule reads it.
    fn ewma_alpha(&self) -> Option<f64> {
        matches!(self.config.split_rule, SplitRule::Ewma { .. })
            .then_some(self.config.stat_ewma_alpha)
    }

    /// Grows the per-node state to cover a tree that gained nodes.
    fn ensure_capacity(&mut self, tree: &Tree) {
        let len = tree.len();
        if self.in_shhh.len() < len {
            self.in_shhh.resize(len, false);
            self.ishh.resize(len, false);
            self.weight.resize(len, 0.0);
            self.agg.resize(len, 0.0);
            self.series.resize_with(len, || None);
            self.ref_actual.resize_with(len, || None);
            self.stats.resize(len);
        }
        // Scratch is sized on its own: after a restore it is empty while
        // the columns above are full-size.
        if self.tosplit.len() < len {
            self.tosplit.resize(len, false);
        }
    }

    /// A zero series of the current aligned length, with a phase-aligned
    /// zero-state model — the cold-start state of a heavy hitter no
    /// adaptation could supply with history.
    fn zero_series(&self) -> NodeSeries {
        let zeros = vec![0.0; self.series_len];
        let start = self.instances - self.series_len as u64;
        let (model, forecasts) = Model::replay(&self.config.model, &zeros, start)
            .expect("model spec validated at construction");
        NodeSeries {
            actual: Series::from_values(self.config.ell, &zeros),
            forecast: Series::from_values(self.config.ell, &forecasts),
            model,
        }
    }

    /// Feeds the direct (pre-aggregation) counts of one closed timeunit:
    /// updates weights and membership, adapts series via split/merge,
    /// then appends the new observations (Fig. 5, lines 6–29).
    ///
    /// Scans `direct` for the counted nodes, then closes the unit like
    /// [`Ada::push_timeunit_touched`]; callers that already know which
    /// nodes they counted should call that instead.
    ///
    /// # Panics
    ///
    /// Panics if `direct.len() < tree.len()`.
    pub fn push_timeunit(&mut self, tree: &Tree, direct: &[f64]) {
        assert!(direct.len() >= tree.len(), "direct counts must cover the tree");
        let mut scan = std::mem::take(&mut self.frontier.scan);
        scan.clear();
        scan.extend(
            direct[..tree.len()]
                .iter()
                .enumerate()
                .filter(|(_, w)| w.to_bits() != 0)
                .map(|(i, _)| i as u32),
        );
        self.push_timeunit_touched(tree, direct, &scan);
        self.frontier.scan = scan;
    }

    /// [`Ada::push_timeunit`] for a caller that knows which nodes it
    /// counted: `touched` must list every node index whose `direct`
    /// count is non-zero (duplicates and zero entries are allowed), and
    /// every index must be below `tree.len()`. The close then costs
    /// O(frontier) rather than O(tree) (see [`Ada`]).
    ///
    /// # Panics
    ///
    /// Panics if `direct.len() < tree.len()` or an index is out of range.
    pub fn push_timeunit_touched(&mut self, tree: &Tree, direct: &[f64], touched: &[u32]) {
        assert!(direct.len() >= tree.len(), "direct counts must cover the tree");
        let t0 = Instant::now();
        self.ensure_capacity(tree);
        let mut fr = std::mem::take(&mut self.frontier);
        fr.fit(tree);
        if !fr.primed {
            fr.last_counted.clear();
            fr.last_counted
                .extend((0..tree.len()).filter(|&i| self.holds_unit_state(i)).map(|i| i as u32));
            fr.primed = true;
        }

        // The frontier D. The root always belongs (the root rule runs
        // every unit). Last unit's heavy hitters already lie below last
        // unit's counted nodes when θ > 0; seeding them too keeps D
        // correct without leaning on that. When the seeds cover a good
        // part of the tree, D is most of it, and taking the whole tree
        // (exact too: any superset of D is) is cheaper than the walk.
        let mut counted = std::mem::take(&mut fr.last_counted);
        if 4 * (touched.len() + counted.len()) >= tree.len() {
            fr.take_all(tree);
        } else {
            fr.add_with_ancestors(tree, tree.root());
            for &i in touched.iter().chain(&counted) {
                let n = fr.ids[i as usize];
                fr.add_with_ancestors(tree, n);
            }
            for &m in &self.members {
                fr.add_with_ancestors(tree, m);
            }
            for level in &mut fr.levels {
                level.sort_unstable();
            }
        }

        // Initialisation (lines 6–12): aggregates and Definition-2
        // weights/flags of this unit, in one bottom-up pass that adds
        // each node into its parent once the node is final. A parent
        // thus sums its children in child order, as the full-tree sweeps
        // do, and the skipped children would only add `+0.0`: every sum
        // is bit-identical.
        for n in fr.iter() {
            let i = n.index();
            self.agg[i] = direct[i];
            self.weight[i] = direct[i];
        }
        for n in fr.iter_rev() {
            let i = n.index();
            let w = self.weight[i];
            let member = w >= self.config.theta;
            self.ishh[i] = member;
            if let Some(p) = tree.parent(n) {
                self.agg[p.index()] += self.agg[i];
                if !member {
                    self.weight[p.index()] += w;
                }
            }
        }
        for n in fr.iter_rev() {
            self.mark(tree, n);
        }
        let t1 = Instant::now();

        // SHHH and series adaptation (lines 13–25). A split hands
        // membership to children that may lie outside D (zero counts
        // this unit and last); they join D at their sorted position in
        // the next level so the merge pass below folds them back.
        for depth in 0..fr.levels.len() {
            let mut k = 0;
            while let Some(&n) = fr.levels[depth].get(k) {
                for c in self.split_if_marked(tree, n, Some(&fr.in_d)) {
                    fr.insert(tree, c);
                }
                k += 1;
            }
        }
        for n in fr.iter_rev() {
            self.merge_if_dropped(tree, n);
        }
        self.apply_root_rule(tree);
        for n in fr.iter() {
            self.reconcile(tree, n, Some(&fr.in_d));
        }
        let t2 = Instant::now();

        // Lemma 1: after adaptation, membership equals the Definition-2
        // flags everywhere (outside D both are `false`).
        debug_assert!(
            fr.iter().all(|n| self.in_shhh[n.index()] == self.ishh[n.index()]),
            "SHHH membership diverged from Definition 2"
        );
        let mut members = std::mem::take(&mut self.members);
        members.clear();
        members.extend(fr.iter().filter(|n| self.in_shhh[n.index()]));
        self.members = members;
        let ewma_alpha = self.ewma_alpha();
        self.stats.record_nodes(&self.agg, fr.iter().map(NodeId::index), ewma_alpha);
        for n in fr.iter() {
            self.tosplit[n.index()] = false;
        }
        fr.clear();
        counted.clear();
        counted.extend_from_slice(touched);
        fr.last_counted = counted;
        self.frontier = fr;
        let t3 = Instant::now();

        self.append_observations(tree);
        self.instances += 1;
        let t4 = Instant::now();
        self.timings.updating_hierarchies += (t1 - t0) + (t3 - t2);
        self.timings.creating_time_series += (t2 - t1) + (t4 - t3);
    }

    /// Whether node index `i` carries per-unit state a close must
    /// revisit: membership, a Definition-2 flag, a series, or a non-zero
    /// aggregate, weight or previous-unit statistic.
    fn holds_unit_state(&self, i: usize) -> bool {
        self.in_shhh[i]
            || self.ishh[i]
            || self.series[i].is_some()
            || self.agg[i].to_bits() != 0
            || self.weight[i].to_bits() != 0
            || self.stats.row(i).prev.to_bits() != 0
    }

    /// Mark: a node that is (or passes through) a new heavy hitter and
    /// is not yet in SHHH asks its parent to split. Run bottom-up.
    fn mark(&mut self, tree: &Tree, n: NodeId) {
        let i = n.index();
        if (self.ishh[i] || self.tosplit[i]) && !self.in_shhh[i] {
            if let Some(p) = tree.parent(n) {
                self.tosplit[p.index()] = true;
            }
        }
    }

    /// Top-down split step: splits a marked member (or the root) and
    /// returns the children that joined SHHH. `frontier`: see
    /// [`Ada::reference_correction`].
    fn split_if_marked(
        &mut self,
        tree: &Tree,
        n: NodeId,
        frontier: Option<&[bool]>,
    ) -> Vec<NodeId> {
        let is_root = tree.parent(n).is_none();
        if (self.in_shhh[n.index()] || is_root) && self.tosplit[n.index()] {
            self.split(tree, n, frontier)
        } else {
            Vec::new()
        }
    }

    /// Bottom-up merge step: a non-root member that fell below θ merges
    /// its group into the parent.
    fn merge_if_dropped(&mut self, tree: &Tree, n: NodeId) {
        if tree.parent(n).is_some() && self.in_shhh[n.index()] && !self.ishh[n.index()] {
            self.merge_group(tree, n);
        }
    }

    /// Root rule (lines 24–25).
    fn apply_root_rule(&mut self, tree: &Tree) {
        let root = tree.root();
        if self.ishh[root.index()] {
            if !self.in_shhh[root.index()] {
                self.in_shhh[root.index()] = true;
                if self.series[root.index()].is_none() {
                    self.series[root.index()] = Some(self.zero_series());
                }
            }
        } else {
            // Also drops the series a root-isolated split left in place
            // when the root fell out of membership in the same unit —
            // a stale (shorter) series must never survive to a later
            // merge or re-join.
            self.in_shhh[root.index()] = false;
            self.series[root.index()] = None;
        }
    }

    /// Reconciliation, run top-down: with leaf-only data the split/merge
    /// choreography already leaves membership equal to the Definition-2
    /// flags (Lemma 1). Direct counts on *interior* nodes — an extension
    /// the paper does not consider — admit one extra case: a node whose
    /// residual stays ≥ θ while every child became a heavy hitter has
    /// nothing to merge back after its split. Enforce exactness for that
    /// case too, seeding from the reference series if available.
    fn reconcile(&mut self, tree: &Tree, n: NodeId, frontier: Option<&[bool]>) {
        let i = n.index();
        if self.ishh[i] && !self.in_shhh[i] {
            let series =
                self.reference_correction(tree, n, frontier).unwrap_or_else(|| self.zero_series());
            self.series[i] = Some(series);
            self.in_shhh[i] = true;
        } else if !self.ishh[i] && self.in_shhh[i] && tree.parent(n).is_some() {
            // Fold the stale state into the parent's slot so nothing
            // leaks; membership follows Definition 2.
            self.in_shhh[i] = false;
            self.series[i] = None;
        }
    }

    /// Time series update (lines 26–29): constant-time appends for the
    /// members, then the reference series of the top `h` levels
    /// (§V-B5).
    fn append_observations(&mut self, tree: &Tree) {
        for &n in &self.members {
            let w = self.weight[n.index()];
            let s = self.series[n.index()].as_mut().expect("member owns series");
            let f = s.model.forecast();
            s.forecast.push(f);
            s.actual.push(w);
            s.model.observe(w);
        }
        if self.config.ref_levels > 0 {
            for depth in 1..=self.config.ref_levels.min(tree.max_depth()) {
                for &n in tree.nodes_at_depth(depth) {
                    let cap = self.config.ell;
                    let agg = self.agg[n.index()];
                    let len = self.series_len;
                    self.ref_actual[n.index()]
                        .get_or_insert_with(|| Series::from_values(cap, &vec![0.0; len]))
                        .push(agg);
                }
            }
        }
        self.series_len = (self.series_len + 1).min(self.config.ell);
    }

    /// `SPLIT(n)` (Fig. 7): hand `n`'s series down to its non-member
    /// children, apportioned by the split rule, and move membership from
    /// `n` to those children. Reference series override the apportioned
    /// copy where available. Returns the children that joined SHHH.
    fn split(&mut self, tree: &Tree, n: NodeId, frontier: Option<&[bool]>) -> Vec<NodeId> {
        let children: Vec<NodeId> =
            tree.children(n).iter().copied().filter(|c| !self.in_shhh[c.index()]).collect();
        // Guard (Fig. 7 line 2): only split when a genuine heavy hitter
        // is hiding below — checked on aggregates so hidden hitters
        // deeper than one level still trigger the cascade.
        if !children.iter().any(|c| self.agg[c.index()] >= self.config.theta) {
            return Vec::new();
        }
        let ratios = self.stats.ratios(self.config.split_rule, &children);
        // Root isolation: the root's series stays put and the children
        // seed from their reference series or zeros, so nothing that
        // depends on sibling top-level subtrees flows downwards.
        let isolate = self.config.root_isolation && tree.parent(n).is_none();
        let mut parent_series = if isolate { None } else { self.series[n.index()].take() };
        let last = children.len() - 1;
        for (k, (&c, &ratio)) in children.iter().zip(ratios.iter()).enumerate() {
            // The last child takes the parent's series by value; earlier
            // children clone it. One clone per extra child is inherent
            // (each inherits its own scaled copy), but the final
            // padding copy of the seed implementation is gone.
            let taken = if k == last { parent_series.take() } else { parent_series.clone() };
            let inherited = match taken {
                Some(mut s) => {
                    s.actual.scale(ratio);
                    s.forecast.scale(ratio);
                    s.model.scale(ratio);
                    s
                }
                // A splitting node without a series (the root before it
                // ever joined SHHH) hands down zeros.
                None => self.zero_series(),
            };
            let series = self.reference_correction(tree, c, frontier).unwrap_or(inherited);
            self.series[c.index()] = Some(series);
            self.in_shhh[c.index()] = true;
        }
        self.in_shhh[n.index()] = false;
        children
    }

    /// The §V-B5 correction: if `c` has a reference series, rebuild its
    /// series exactly as `T_REF(c) − Σ T(d)` over `c`'s descendants `d`
    /// currently holding series, instead of trusting the split ratio.
    ///
    /// Inside a frontier close, `frontier` is `D`'s membership bitset:
    /// every member lies in `D` and `D` is closed under ancestors, so the
    /// walk descends into `D` only and meets the same members in the same
    /// order as a walk over the whole subtree.
    fn reference_correction(
        &self,
        tree: &Tree,
        c: NodeId,
        frontier: Option<&[bool]>,
    ) -> Option<NodeSeries> {
        let reference = self.ref_actual[c.index()].as_ref()?;
        if reference.len() != self.series_len {
            return None;
        }
        let mut corrected: Vec<f64> = reference.to_vec();
        self.subtract_member_series(tree, c, frontier, &mut corrected);
        let start = self.instances - self.series_len as u64;
        let (model, forecasts) = Model::replay(&self.config.model, &corrected, start).ok()?;
        Some(NodeSeries {
            actual: Series::from_values(self.config.ell, &corrected),
            forecast: Series::from_values(self.config.ell, &forecasts),
            model,
        })
    }

    /// Subtracts from `acc` the series of every member strictly below
    /// `n`, in depth-first pre-order (children in child order), visiting
    /// only nodes inside `frontier` when one is given.
    fn subtract_member_series(
        &self,
        tree: &Tree,
        n: NodeId,
        frontier: Option<&[bool]>,
        acc: &mut [f64],
    ) {
        for &d in tree.children(n) {
            if frontier.is_some_and(|in_d| !in_d[d.index()]) {
                continue;
            }
            if self.in_shhh[d.index()] {
                if let Some(ds) = &self.series[d.index()] {
                    for (a, v) in acc.iter_mut().zip(ds.actual.iter()) {
                        *a -= v;
                    }
                }
            }
            self.subtract_member_series(tree, d, frontier, acc);
        }
    }

    /// `MERGE` (Fig. 8): `n` is a member that fell below θ. Gather every
    /// sibling (and `n` itself) in the same state and fold their series
    /// into the parent, which joins SHHH in their stead. A parent still
    /// below θ afterwards is merged further up when the bottom-up sweep
    /// reaches its level.
    fn merge_group(&mut self, tree: &Tree, n: NodeId) {
        let np = tree.parent(n).expect("merge_group is never called on the root");
        let group: Vec<NodeId> = tree
            .children(np)
            .iter()
            .copied()
            .filter(|c| self.in_shhh[c.index()] && !self.ishh[c.index()])
            .collect();
        debug_assert!(group.contains(&n));
        // Sum the group's series into the parent's (creating it from
        // zeros if the parent was not a member).
        let mut acc = match self.series[np.index()].take() {
            Some(s) => s,
            None => self.zero_series(),
        };
        for &c in &group {
            if let Some(cs) = self.series[c.index()].take() {
                acc.actual
                    .add_assign_series(&cs.actual)
                    .expect("live series share one aligned length");
                acc.forecast
                    .add_assign_series(&cs.forecast)
                    .expect("live series share one aligned length");
                acc.model.merge(&cs.model).expect("models share one spec and phase");
            }
            self.in_shhh[c.index()] = false;
        }
        self.series[np.index()] = Some(acc);
        self.in_shhh[np.index()] = true;
    }

    /// The current succinct heavy hitter set, in top-down level order.
    pub fn heavy_hitters(&self) -> &[NodeId] {
        &self.members
    }

    /// `true` iff `n` is currently a heavy hitter.
    pub fn is_heavy_hitter(&self, n: NodeId) -> bool {
        self.in_shhh.get(n.index()).copied().unwrap_or(false)
    }

    /// The modified (Definition-2) weight of `n` in the newest timeunit.
    pub fn modified_weight(&self, n: NodeId) -> f64 {
        self.weight.get(n.index()).copied().unwrap_or(0.0)
    }

    /// The aggregate weight `A_n` of the newest timeunit.
    pub fn aggregate_weight(&self, n: NodeId) -> f64 {
        self.agg.get(n.index()).copied().unwrap_or(0.0)
    }

    /// Read-only view of heavy hitter `n`, or `None` if `n` is not a
    /// member (or has not observed a timeunit yet).
    pub fn view(&self, n: NodeId) -> Option<HeavyHitterView<'_>> {
        if !self.is_heavy_hitter(n) {
            return None;
        }
        let s = self.series[n.index()].as_ref()?;
        Some(HeavyHitterView {
            node: n,
            actual: &s.actual,
            forecast: &s.forecast,
            latest_actual: s.actual.latest()?,
            latest_forecast: s.forecast.latest()?,
        })
    }

    /// The reference series of `n` (`A_n` history), if one is kept.
    pub fn reference_series(&self, n: NodeId) -> Option<&Series> {
        self.ref_actual.get(n.index()).and_then(Option::as_ref)
    }

    /// The forecast for the *next* (not yet observed) timeunit of heavy
    /// hitter `n`.
    pub fn next_forecast(&self, n: NodeId) -> Option<f64> {
        if !self.is_heavy_hitter(n) {
            return None;
        }
        self.series[n.index()].as_ref().map(|s| s.model.forecast())
    }

    /// Cumulative stage timings: building the frontier, weights and
    /// membership count as `updating_hierarchies`; split, merge,
    /// reconciliation (with its reference corrections) and the series
    /// and reference appends as `creating_time_series`.
    pub fn timings(&self) -> StageTimings {
        self.timings
    }

    /// Detaches the tracker state of the nodes removed from the tree by
    /// `surgery` and compacts the per-node vectors to match `tree` (the
    /// post-[`Tree::extract_top_subtrees`] tree).
    ///
    /// Under `root_isolation`, a depth-1 subtree's membership, series,
    /// reference series and split statistics are pure functions of its
    /// own record stream, so carrying this slice to another shard's
    /// tracker reproduces exactly the state that shard would hold had
    /// the subtree's records been routed there from the start. Root-node
    /// state (which reflects the grouping) stays behind; it is output-
    /// irrelevant in isolated mode.
    pub fn extract_nodes(&mut self, tree: &Tree, surgery: &TreeSurgery) -> AdaSlice {
        let nodes = surgery
            .moved
            .iter()
            .map(|m| {
                let i = m.old_id.index();
                AdaNode {
                    in_shhh: self.in_shhh.get(i).copied().unwrap_or(false),
                    ishh: self.ishh.get(i).copied().unwrap_or(false),
                    weight: self.weight.get(i).copied().unwrap_or(0.0),
                    agg: self.agg.get(i).copied().unwrap_or(0.0),
                    series: self.series.get_mut(i).and_then(Option::take),
                    ref_actual: self.ref_actual.get_mut(i).and_then(Option::take),
                    stats: self.stats.row(i),
                }
            })
            .collect();
        compact_vec(&mut self.in_shhh, &surgery.old_to_new);
        compact_vec(&mut self.ishh, &surgery.old_to_new);
        compact_vec(&mut self.weight, &surgery.old_to_new);
        compact_vec(&mut self.agg, &surgery.old_to_new);
        compact_vec(&mut self.series, &surgery.old_to_new);
        compact_vec(&mut self.ref_actual, &surgery.old_to_new);
        self.stats.compact(&surgery.old_to_new);
        self.rebuild_members(tree);
        AdaSlice { nodes, series_len: self.series_len, instances: self.instances }
    }

    /// Grafts a detached slice at `new_ids` (the node ids returned by
    /// [`Tree::adopt_top_subtrees`] for the same moved list).
    ///
    /// # Panics
    ///
    /// Panics if the slice was cut at a different global timeline
    /// position than this tracker's (shards rebalance only at epoch
    /// barriers, where `instances` and the aligned series length agree
    /// everywhere), or if `new_ids` does not match the slice.
    pub fn adopt_nodes(&mut self, tree: &Tree, new_ids: &[NodeId], slice: AdaSlice) {
        assert_eq!(slice.instances, self.instances, "adopting across unaligned timelines");
        assert_eq!(slice.series_len, self.series_len, "adopting across unaligned windows");
        assert_eq!(new_ids.len(), slice.nodes.len(), "ids must align with the moved list");
        self.ensure_capacity(tree);
        for (&id, node) in new_ids.iter().zip(slice.nodes) {
            let i = id.index();
            self.in_shhh[i] = node.in_shhh;
            self.ishh[i] = node.ishh;
            self.weight[i] = node.weight;
            self.agg[i] = node.agg;
            self.series[i] = node.series;
            self.ref_actual[i] = node.ref_actual;
            self.stats.set_row(i, node.stats);
        }
        self.rebuild_members(tree);
    }

    /// Recomputes the member list from the membership flags, in the
    /// top-down level order [`Ada::push_timeunit`] produces. Called after
    /// a migration renumbered nodes, so it also has the next close
    /// rebuild last unit's counted nodes from the columns.
    fn rebuild_members(&mut self, tree: &Tree) {
        let mut members = std::mem::take(&mut self.members);
        members.clear();
        members.extend(tree.level_order().filter(|n| self.in_shhh[n.index()]));
        self.members = members;
        self.frontier.primed = false;
    }

    /// Memory accounting (see [`MemoryReport`]).
    pub fn memory_report(&self, tree: &Tree) -> MemoryReport {
        MemoryReport {
            tree_nodes: tree.len(),
            history_cells: 0,
            series_cells: self
                .series
                .iter()
                .flatten()
                .map(|s| s.actual.len() + s.forecast.len())
                .sum(),
            reference_cells: self.ref_actual.iter().flatten().map(Series::len).sum(),
            heavy_hitters: self.members.len(),
        }
    }
}

/// The full-tree close, kept as the test oracle of the frontier close:
/// the same steps over every node in tree order, with Definition 2 and
/// the aggregates from the standalone sweeps of [`crate::shhh`], and the
/// EWMA statistic maintained under every split rule.
#[cfg(test)]
impl Ada {
    fn push_timeunit_full(&mut self, tree: &Tree, direct: &[f64]) {
        self.ensure_capacity(tree);
        self.tosplit.iter_mut().for_each(|b| *b = false);
        aggregate_weights_into(tree, direct, &mut self.agg);
        let shhh = compute_shhh(tree, direct, self.config.theta);
        self.ishh = shhh.is_member;
        self.weight = shhh.modified;
        for n in tree.rev_level_order() {
            self.mark(tree, n);
        }
        for n in tree.level_order() {
            self.split_if_marked(tree, n, None);
        }
        for n in tree.rev_level_order() {
            self.merge_if_dropped(tree, n);
        }
        self.apply_root_rule(tree);
        for n in tree.level_order() {
            self.reconcile(tree, n, None);
        }
        assert!(
            tree.iter().all(|n| self.in_shhh[n.index()] == self.ishh[n.index()]),
            "SHHH membership diverged from Definition 2"
        );
        self.rebuild_members(tree);
        self.stats.record_unit(&self.agg, Some(self.config.stat_ewma_alpha));
        self.append_observations(tree);
        self.instances += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelSpec;

    fn cfg(theta: f64, ell: usize) -> HhhConfig {
        HhhConfig::new(theta, ell).with_model(ModelSpec::Ewma { alpha: 0.5 }).with_ref_levels(0)
    }

    /// root → {a → {x, y}, b}
    fn tree() -> Tree {
        let mut t = Tree::new("root");
        t.insert_path(&["a", "x"]);
        t.insert_path(&["a", "y"]);
        t.insert_path(&["b"]);
        t
    }

    fn unit(t: &Tree, pairs: &[(&[&str], f64)]) -> Vec<f64> {
        let mut d = vec![0.0; t.len()];
        for (path, w) in pairs {
            d[t.find(path).unwrap().index()] = *w;
        }
        d
    }

    #[test]
    fn membership_matches_definition_every_instance() {
        let t = tree();
        let mut ada = Ada::new(cfg(10.0, 8)).unwrap();
        let patterns: Vec<Vec<f64>> = vec![
            unit(&t, &[(&["a", "x"], 20.0)]),
            unit(&t, &[(&["a", "x"], 3.0), (&["a", "y"], 4.0), (&["b"], 5.0)]),
            unit(&t, &[(&["a", "x"], 30.0), (&["a", "y"], 30.0)]),
            unit(&t, &[(&["b"], 11.0)]),
            unit(&t, &[]),
        ];
        for d in &patterns {
            ada.push_timeunit(&t, d);
            let expected = compute_shhh(&t, d, 10.0);
            let mut got: Vec<NodeId> = ada.heavy_hitters().to_vec();
            let mut want = expected.members.clone();
            got.sort();
            want.sort();
            assert_eq!(got, want, "membership must equal Definition 2");
        }
    }

    #[test]
    fn stable_leaf_series_matches_exactly() {
        let t = tree();
        let x = t.find(&["a", "x"]).unwrap();
        let mut ada = Ada::new(cfg(5.0, 8)).unwrap();
        for i in 0..6 {
            ada.push_timeunit(&t, &unit(&t, &[(&["a", "x"], 10.0 + i as f64)]));
        }
        let view = ada.view(x).unwrap();
        let vals: Vec<f64> = view.actual.iter().collect();
        assert_eq!(vals, vec![10.0, 11.0, 12.0, 13.0, 14.0, 15.0]);
        assert_eq!(view.latest_actual, 15.0);
    }

    #[test]
    fn split_moves_series_down_when_leaf_emerges() {
        let t = tree();
        let a = t.find(&["a"]).unwrap();
        let x = t.find(&["a", "x"]).unwrap();
        let mut ada = Ada::new(cfg(10.0, 8)).unwrap();
        // Phase 1: mass spread across a's children — only `a` is heavy.
        for _ in 0..4 {
            ada.push_timeunit(&t, &unit(&t, &[(&["a", "x"], 6.0), (&["a", "y"], 6.0)]));
        }
        assert!(ada.is_heavy_hitter(a));
        assert!(!ada.is_heavy_hitter(x));
        // Phase 2: x spikes — membership must move to x, inheriting
        // series state from a.
        ada.push_timeunit(&t, &unit(&t, &[(&["a", "x"], 20.0), (&["a", "y"], 1.0)]));
        assert!(ada.is_heavy_hitter(x));
        assert!(!ada.is_heavy_hitter(a), "a's residual (1.0) is below θ");
        let view = ada.view(x).unwrap();
        assert_eq!(view.latest_actual, 20.0);
        // x's inherited history is a scaled copy of a's 12s: positive and
        // bounded by the original.
        let older: Vec<f64> = view.actual.iter().collect();
        for v in &older[..older.len() - 1] {
            assert!(*v > 0.0 && *v <= 12.0, "inherited value {v}");
        }
    }

    #[test]
    fn merge_returns_series_up_when_leaf_cools() {
        let t = tree();
        let a = t.find(&["a"]).unwrap();
        let x = t.find(&["a", "x"]).unwrap();
        let mut ada = Ada::new(cfg(10.0, 8)).unwrap();
        // x is heavy for a while.
        for _ in 0..4 {
            ada.push_timeunit(&t, &unit(&t, &[(&["a", "x"], 15.0), (&["a", "y"], 4.0)]));
        }
        assert!(ada.is_heavy_hitter(x));
        // x cools; the combined mass keeps `a` heavy.
        ada.push_timeunit(&t, &unit(&t, &[(&["a", "x"], 6.0), (&["a", "y"], 6.0)]));
        assert!(!ada.is_heavy_hitter(x));
        assert!(ada.is_heavy_hitter(a));
        let view = ada.view(a).unwrap();
        // a's merged history = x's tracked 15s. The residual 4s of y
        // belonged to no heavy hitter and were never tracked — exactly
        // the approximation the reference-series add-on (§V-B5) repairs.
        let vals: Vec<f64> = view.actual.iter().collect();
        assert_eq!(*vals.last().unwrap(), 12.0);
        for v in &vals[..vals.len() - 1] {
            assert!((*v - 15.0).abs() < 1e-9, "merged history value {v}");
        }
    }

    #[test]
    fn deep_hidden_hitter_is_reached_by_cascading_splits() {
        // root → a → b → leaf: leaf becomes heavy while only root was a
        // member. Splits must cascade root → a → b → leaf.
        let mut t = Tree::new("root");
        let leaf = t.insert_path(&["a", "b", "leaf"]);
        let other = t.insert_path(&["c"]);
        let mut ada = Ada::new(cfg(10.0, 8)).unwrap();
        // Only diffuse mass: root is the sole member.
        let mut d = vec![0.0; t.len()];
        d[leaf.index()] = 6.0;
        d[other.index()] = 6.0;
        ada.push_timeunit(&t, &d);
        assert!(ada.is_heavy_hitter(t.root()));
        // The leaf spikes.
        let mut d = vec![0.0; t.len()];
        d[leaf.index()] = 25.0;
        d[other.index()] = 6.0;
        ada.push_timeunit(&t, &d);
        assert!(ada.is_heavy_hitter(leaf), "cascade must reach the leaf");
        assert!(!ada.is_heavy_hitter(t.root()), "root residual is 6 < θ");
        assert_eq!(ada.view(leaf).unwrap().latest_actual, 25.0);
    }

    #[test]
    fn root_rule_adds_and_removes_membership() {
        let t = tree();
        let mut ada = Ada::new(cfg(10.0, 8)).unwrap();
        // Diffuse mass → root member.
        ada.push_timeunit(&t, &unit(&t, &[(&["a", "x"], 4.0), (&["b"], 7.0)]));
        assert!(ada.is_heavy_hitter(t.root()));
        // Everything quiet → root leaves.
        ada.push_timeunit(&t, &unit(&t, &[(&["b"], 2.0)]));
        assert!(!ada.is_heavy_hitter(t.root()));
        assert!(ada.heavy_hitters().is_empty());
    }

    #[test]
    fn with_history_reconstructs_exact_series() {
        let t = tree();
        let x = t.find(&["a", "x"]).unwrap();
        let history: Vec<Vec<f64>> =
            (0..6).map(|i| unit(&t, &[(&["a", "x"], 10.0 + i as f64)])).collect();
        let ada = Ada::with_history(cfg(5.0, 8), &t, &history).unwrap();
        let view = ada.view(x).unwrap();
        let vals: Vec<f64> = view.actual.iter().collect();
        assert_eq!(vals, vec![10.0, 11.0, 12.0, 13.0, 14.0, 15.0]);
        assert_eq!(ada.instances(), 6);
    }

    #[test]
    fn ada_agrees_with_sta_on_stationary_stream() {
        // When membership is stable, ADA's incremental series must equal
        // STA's reconstruction exactly.
        use crate::sta::Sta;
        let t = tree();
        let x = t.find(&["a", "x"]).unwrap();
        let mut ada = Ada::new(cfg(5.0, 8)).unwrap();
        let mut sta = Sta::new(cfg(5.0, 8)).unwrap();
        for i in 0..8 {
            let d = unit(&t, &[(&["a", "x"], 8.0 + (i % 3) as f64)]);
            ada.push_timeunit(&t, &d);
            sta.push_timeunit(&t, &d);
        }
        let ada_vals: Vec<f64> = ada.view(x).unwrap().actual.iter().collect();
        assert_eq!(ada_vals.as_slice(), sta.actual_series(x).unwrap());
        let (sa, sf) = sta.latest(x).unwrap();
        let v = ada.view(x).unwrap();
        assert_eq!(v.latest_actual, sa);
        assert!((v.latest_forecast - sf).abs() < 1e-9);
    }

    #[test]
    fn reference_series_corrects_split_bias() {
        // With h = 1 reference levels, a split onto a depth-1 node must
        // restore the exact series instead of the ratio approximation.
        let t = tree();
        let a = t.find(&["a"]).unwrap();
        let config = cfg(10.0, 16).with_ref_levels(1);
        let mut ada = Ada::new(config).unwrap();
        // Phase 1: diffuse mass — only root is a member; `a`'s true
        // aggregate history is 9, 9, ...
        for _ in 0..5 {
            ada.push_timeunit(
                &t,
                &unit(&t, &[(&["a", "x"], 5.0), (&["a", "y"], 4.0), (&["b"], 3.0)]),
            );
        }
        assert!(ada.is_heavy_hitter(t.root()));
        // Phase 2: `a` spikes (spread so no single child is heavy); the
        // root splits, and the reference series gives `a` its exact 9s
        // history (not a ratio of root's 12s).
        ada.push_timeunit(&t, &unit(&t, &[(&["a", "x"], 7.0), (&["a", "y"], 6.0)]));
        assert!(ada.is_heavy_hitter(a));
        let vals: Vec<f64> = ada.view(a).unwrap().actual.iter().collect();
        for v in &vals[..vals.len() - 1] {
            assert!((*v - 9.0).abs() < 1e-9, "reference-corrected value {v}");
        }
        assert_eq!(*vals.last().unwrap(), 13.0);
    }

    #[test]
    fn series_lengths_stay_aligned_across_adaptations() {
        let t = tree();
        let mut ada = Ada::new(cfg(10.0, 4)).unwrap();
        // Keep flipping which node is heavy to force splits and merges.
        for i in 0..12 {
            let d = if i % 2 == 0 {
                unit(&t, &[(&["a", "x"], 20.0)])
            } else {
                unit(&t, &[(&["a", "x"], 4.0), (&["a", "y"], 4.0), (&["b"], 4.0)])
            };
            ada.push_timeunit(&t, &d);
            for &m in ada.heavy_hitters() {
                let v = ada.view(m).unwrap();
                assert_eq!(v.actual.len(), v.forecast.len());
                assert_eq!(v.actual.len(), 4.min(i + 1), "instance {i}");
            }
        }
    }

    #[test]
    fn memory_is_bounded_by_live_state() {
        let t = tree();
        let mut ada = Ada::new(cfg(5.0, 4)).unwrap();
        for _ in 0..20 {
            ada.push_timeunit(&t, &unit(&t, &[(&["a", "x"], 9.0)]));
        }
        let r = ada.memory_report(&t);
        assert_eq!(r.history_cells, 0, "ADA keeps no raw history");
        // One heavy hitter, two series of ≤ 4 cells each.
        assert!(r.series_cells <= 8);
        assert_eq!(r.heavy_hitters, 1);
    }

    #[test]
    fn split_rules_produce_valid_series() {
        for rule in [
            SplitRule::Uniform,
            SplitRule::LastTimeUnit,
            SplitRule::LongTermHistory,
            SplitRule::Ewma { alpha: 0.4 },
        ] {
            let t = tree();
            let x = t.find(&["a", "x"]).unwrap();
            let config = cfg(10.0, 8).with_split_rule(rule);
            let mut ada = Ada::new(config).unwrap();
            for _ in 0..3 {
                ada.push_timeunit(&t, &unit(&t, &[(&["a", "x"], 6.0), (&["a", "y"], 5.0)]));
            }
            ada.push_timeunit(&t, &unit(&t, &[(&["a", "x"], 30.0)]));
            assert!(ada.is_heavy_hitter(x), "{rule}");
            let v = ada.view(x).unwrap();
            assert!(v.actual.iter().all(|x| x >= 0.0), "{rule}");
        }
    }

    #[test]
    fn interior_direct_counts_are_reconciled() {
        // A record stream that classifies at an *interior* category: the
        // node can stay heavy while every child is heavy too, a case the
        // paper's leaf-only choreography never produces. Membership must
        // still match Definition 2 exactly.
        let t = tree();
        let a = t.find(&["a"]).unwrap();
        let mut ada = Ada::new(cfg(10.0, 8)).unwrap();
        // Children both heavy AND interior direct weight heavy.
        let mut d = unit(&t, &[(&["a", "x"], 12.0), (&["a", "y"], 12.0)]);
        d[a.index()] = 15.0; // direct interior mass
        ada.push_timeunit(&t, &d);
        let x = t.find(&["a", "x"]).unwrap();
        let y = t.find(&["a", "y"]).unwrap();
        assert!(ada.is_heavy_hitter(x));
        assert!(ada.is_heavy_hitter(y));
        assert!(ada.is_heavy_hitter(a), "interior residual 15 ≥ θ");
        assert_eq!(ada.modified_weight(a), 15.0);
        // And the next unit still reconciles when the residual drops.
        let mut d = unit(&t, &[(&["a", "x"], 12.0)]);
        d[a.index()] = 3.0;
        ada.push_timeunit(&t, &d);
        assert!(!ada.is_heavy_hitter(a));
        assert!(ada.is_heavy_hitter(x));
    }

    #[test]
    fn next_forecast_tracks_model() {
        let t = tree();
        let x = t.find(&["a", "x"]).unwrap();
        let mut ada = Ada::new(cfg(5.0, 8)).unwrap();
        for _ in 0..4 {
            ada.push_timeunit(&t, &unit(&t, &[(&["a", "x"], 10.0)]));
        }
        let f = ada.next_forecast(x).unwrap();
        assert!(f > 5.0 && f <= 10.0, "forecast {f} approaches the stable 10");
        assert!(ada.next_forecast(t.root()).is_none());
    }

    #[test]
    fn invalid_config_is_rejected() {
        assert!(matches!(Ada::new(HhhConfig::new(-1.0, 8)), Err(HhhError::InvalidConfig(_))));
    }

    #[test]
    fn extract_adopt_matches_native_routing() {
        // Two isolated subtrees tracked together, then `b` migrates to a
        // tracker that only ever saw `c`. After the transplant, both
        // trackers must behave exactly as if the routing had been
        // (a)/(b, c) from the start.
        let config = cfg(10.0, 8).with_ref_levels(1).with_root_isolation(true);
        let mut src_tree = Tree::new("root");
        src_tree.insert_path(&["a", "x"]);
        src_tree.insert_path(&["b", "y"]);
        let mut dst_tree = Tree::new("root");
        dst_tree.insert_path(&["c", "z"]);
        // Native reference: b and c together from the start.
        let mut native_tree = Tree::new("root");
        native_tree.insert_path(&["b", "y"]);
        native_tree.insert_path(&["c", "z"]);

        let mut src = Ada::new(config.clone()).unwrap();
        let mut dst = Ada::new(config.clone()).unwrap();
        let mut native = Ada::new(config).unwrap();
        let feed = |tree: &Tree, ada: &mut Ada, pairs: &[(&[&str], f64)]| {
            let mut d = vec![0.0; tree.len()];
            for (path, w) in pairs {
                if let Some(n) = tree.find(path) {
                    d[n.index()] = *w;
                }
            }
            ada.push_timeunit(tree, &d);
        };
        for i in 0..6 {
            let by = 12.0 + i as f64;
            feed(&src_tree, &mut src, &[(&["a", "x"], 20.0), (&["b", "y"], by)]);
            feed(&dst_tree, &mut dst, &[(&["c", "z"], 15.0)]);
            feed(&native_tree, &mut native, &[(&["b", "y"], by), (&["c", "z"], 15.0)]);
        }

        let surgery = src_tree.extract_top_subtrees(|l| l == "b");
        let slice = src.extract_nodes(&src_tree, &surgery);
        let ids = dst_tree.adopt_top_subtrees(&surgery.moved);
        dst.adopt_nodes(&dst_tree, &ids, slice);

        // Membership and series carried over verbatim.
        let by_dst = dst_tree.find(&["b", "y"]).unwrap();
        let by_native = native_tree.find(&["b", "y"]).unwrap();
        assert!(dst.is_heavy_hitter(by_dst));
        let got: Vec<f64> = dst.view(by_dst).unwrap().actual.iter().collect();
        let want: Vec<f64> = native.view(by_native).unwrap().actual.iter().collect();
        assert_eq!(got, want);
        // The source no longer tracks b.
        assert!(src_tree.find(&["b"]).is_none());
        assert!(src.heavy_hitters().iter().all(|&n| src_tree.find(&["a", "x"]) == Some(n)));

        // Future units evolve identically on both sides of the move.
        for i in 0..6 {
            let by = if i % 2 == 0 { 25.0 } else { 3.0 };
            feed(&src_tree, &mut src, &[(&["a", "x"], 20.0)]);
            feed(&dst_tree, &mut dst, &[(&["b", "y"], by), (&["c", "z"], 15.0)]);
            feed(&native_tree, &mut native, &[(&["b", "y"], by), (&["c", "z"], 15.0)]);
            for (path, tree, other_tree) in
                [(["b", "y"], &dst_tree, &native_tree), (["c", "z"], &dst_tree, &native_tree)]
            {
                let n = tree.find(&path).unwrap();
                let m = other_tree.find(&path).unwrap();
                assert_eq!(dst.is_heavy_hitter(n), native.is_heavy_hitter(m), "unit {i}");
                assert_eq!(dst.modified_weight(n), native.modified_weight(m), "unit {i}");
                match (dst.view(n), native.view(m)) {
                    (Some(a), Some(b)) => {
                        let av: Vec<f64> = a.actual.iter().collect();
                        let bv: Vec<f64> = b.actual.iter().collect();
                        assert_eq!(av, bv, "unit {i}");
                        let af: Vec<f64> = a.forecast.iter().collect();
                        let bf: Vec<f64> = b.forecast.iter().collect();
                        assert_eq!(af, bf, "unit {i}");
                    }
                    (None, None) => {}
                    (a, b) => panic!("view divergence at unit {i}: {a:?} vs {b:?}"),
                }
            }
        }
    }
}

/// The frontier close against the full-tree oracle on random sparse
/// trees, under every split rule, reference depth and isolation mode,
/// across tree growth, migrations and checkpoint round trips.
#[cfg(test)]
mod frontier_tests {
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::model::ModelSpec;

    const RULES: [SplitRule; 4] = [
        SplitRule::Uniform,
        SplitRule::LastTimeUnit,
        SplitRule::LongTermHistory,
        SplitRule::Ewma { alpha: 0.3 },
    ];

    /// A path of depth 1..=5 whose labels pick one of `fanout` names per
    /// level.
    fn random_path(rng: &mut StdRng, fanout: usize) -> Vec<String> {
        let depth = rng.gen_range(1..=5usize);
        (0..depth).map(|_| format!("n{}", rng.gen_range(0..fanout))).collect()
    }

    /// One unit of direct counts on at most 5 % of the leaves (at least
    /// one), plus sometimes a count on an interior node. Counts are
    /// fractional so that sums are inexact and a changed summation order
    /// shows in the bits. One unit in eight counts up to half the leaves
    /// instead, which takes the close's whole-tree path.
    fn random_unit(rng: &mut StdRng, tree: &Tree, theta: f64) -> Vec<f64> {
        let mut direct = vec![0.0; tree.len()];
        let (leaves, interior): (Vec<NodeId>, Vec<NodeId>) =
            tree.iter().skip(1).partition(|&n| tree.is_leaf(n));
        let share = if rng.gen_bool(0.125) { 2 } else { 20 };
        for _ in 0..rng.gen_range(1..=(leaves.len() / share).max(1)) {
            let leaf = leaves[rng.gen_range(0..leaves.len())];
            direct[leaf.index()] += rng.gen_range(0.1..3.0 * theta);
        }
        if !interior.is_empty() && rng.gen_bool(0.25) {
            let n = interior[rng.gen_range(0..interior.len())];
            direct[n.index()] += rng.gen_range(0.1..3.0 * theta);
        }
        direct
    }

    /// Bit-equality of two optional values through their `Debug` form.
    fn same_debug<T: std::fmt::Debug>(a: &Option<T>, b: &Option<T>) -> bool {
        match (a, b) {
            (None, None) => true,
            _ => format!("{a:?}") == format!("{b:?}"),
        }
    }

    /// The first node whose state differs between the two trackers, if
    /// any. Floats are compared by bits (series and models through their
    /// `Debug` form, which prints every value round-trippably); the EWMA
    /// statistic only under the rule that reads it.
    fn divergence(fast: &Ada, full: &Ada, tree: &Tree) -> Option<String> {
        if fast.members != full.members {
            return Some(format!("members {:?} vs {:?}", fast.members, full.members));
        }
        if (fast.series_len, fast.instances) != (full.series_len, full.instances) {
            return Some("series length or instance count".into());
        }
        let ewma = matches!(fast.config.split_rule, SplitRule::Ewma { .. });
        for n in tree.iter() {
            let i = n.index();
            let (a, b) = (fast.stats.row(i), full.stats.row(i));
            let same = fast.in_shhh[i] == full.in_shhh[i]
                && fast.ishh[i] == full.ishh[i]
                && fast.weight[i].to_bits() == full.weight[i].to_bits()
                && fast.agg[i].to_bits() == full.agg[i].to_bits()
                && a.prev.to_bits() == b.prev.to_bits()
                && a.total.to_bits() == b.total.to_bits()
                && (!ewma || (a.ewma.to_bits() == b.ewma.to_bits() && a.seeded == b.seeded))
                && same_debug(&fast.series[i], &full.series[i])
                && same_debug(&fast.ref_actual[i], &full.ref_actual[i]);
            if !same {
                return Some(format!("node {n} `{}`", tree.path_of(n)));
            }
        }
        None
    }

    /// Moves a random top-level subtree out of `tree` and back in (to
    /// the end of the arena), renumbering its nodes, in both trackers.
    fn migrate(rng: &mut StdRng, tree: &mut Tree, fast: &mut Ada, full: &mut Ada) {
        let tops = tree.children(tree.root());
        if tops.is_empty() {
            return;
        }
        let label = tree.label(tops[rng.gen_range(0..tops.len())]).to_string();
        let surgery = tree.extract_top_subtrees(|l| l == label);
        let fast_slice = fast.extract_nodes(tree, &surgery);
        let full_slice = full.extract_nodes(tree, &surgery);
        let ids = tree.adopt_top_subtrees(&surgery.moved);
        fast.adopt_nodes(tree, &ids, fast_slice);
        full.adopt_nodes(tree, &ids, full_slice);
    }

    /// Replays one seeded stream through the frontier close and the
    /// oracle under `config`, comparing after every unit.
    fn run(seed: u64, rule: SplitRule, ref_levels: usize, isolation: bool) -> Result<(), String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let fanout = rng.gen_range(2..=30usize);
        let theta = rng.gen_range(3.0..12.0);
        let model = if rng.gen_bool(0.5) {
            ModelSpec::Ewma { alpha: 0.5 }
        } else {
            ModelSpec::HoltWinters { alpha: 0.5, beta: 0.1, gamma: 0.3, season: 3 }
        };
        let config = HhhConfig::new(theta, 12)
            .with_model(model)
            .with_split_rule(rule)
            .with_ref_levels(ref_levels)
            .with_root_isolation(isolation);
        let mut tree = Tree::new("root");
        for _ in 0..rng.gen_range(10..300usize) {
            tree.insert_path(&random_path(&mut rng, fanout));
        }
        let (mut fast, mut full) = if rng.gen_bool(0.5) {
            let history: Vec<Vec<f64>> = (0..rng.gen_range(1..6usize))
                .map(|_| random_unit(&mut rng, &tree, theta))
                .collect();
            let ada = || Ada::with_history(config.clone(), &tree, &history).expect("valid");
            (ada(), ada())
        } else {
            (Ada::new(config.clone()).expect("valid"), Ada::new(config.clone()).expect("valid"))
        };
        for unit in 0..rng.gen_range(10..40usize) {
            for _ in 0..rng.gen_range(0..4usize) {
                tree.insert_path(&random_path(&mut rng, fanout));
            }
            let direct = random_unit(&mut rng, &tree, theta);
            if rng.gen_bool(0.5) {
                fast.push_timeunit(&tree, &direct);
            } else {
                // The detector's shape: every counted index, here with a
                // repeat and an uncounted one thrown in.
                let mut touched: Vec<u32> =
                    (0..tree.len()).filter(|&i| direct[i] != 0.0).map(|i| i as u32).collect();
                touched.reverse();
                touched.push(touched[0]);
                touched.push(rng.gen_range(0..tree.len()) as u32);
                fast.push_timeunit_touched(&tree, &direct, &touched);
            }
            full.push_timeunit_full(&tree, &direct);
            if let Some(d) = divergence(&fast, &full, &tree) {
                return Err(format!("unit {unit}: {d}"));
            }
            match rng.gen_range(0..8usize) {
                0 => {
                    let json = serde_json::to_string(&fast).expect("serialises");
                    fast = serde_json::from_str(&json).expect("restores");
                }
                1 => {
                    migrate(&mut rng, &mut tree, &mut fast, &mut full);
                    if let Some(d) = divergence(&fast, &full, &tree) {
                        return Err(format!("after migration at unit {unit}: {d}"));
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn frontier_close_matches_the_full_sweep(seed in 0u64..u64::MAX) {
            for rule in RULES {
                for ref_levels in 0..=2 {
                    for isolation in [false, true] {
                        let outcome = run(seed, rule, ref_levels, isolation);
                        prop_assert!(
                            outcome.is_ok(),
                            "seed {seed}, {rule}, h = {ref_levels}, isolation {isolation}: {}",
                            outcome.unwrap_err()
                        );
                    }
                }
            }
        }
    }

    /// The trap case: `a` (heavy through its own direct count) splits
    /// because `x` spiked, handing membership to its never-counted
    /// siblings too. Those lie outside the unit's frontier as built, and
    /// the merge pass must still fold them back.
    #[test]
    fn split_children_outside_the_frontier_merge_back() {
        let mut t = Tree::new("root");
        let x = t.insert_path(&["a", "x"]);
        let quiet: Vec<NodeId> = (0..5).map(|k| t.insert_path(&["a", &format!("q{k}")])).collect();
        let a = t.find(&["a"]).unwrap();
        let config = HhhConfig::new(10.0, 8).with_model(ModelSpec::Ewma { alpha: 0.5 });
        let mut fast = Ada::new(config.clone()).unwrap();
        let mut full = Ada::new(config).unwrap();
        let mut units = vec![vec![0.0; t.len()]; 3];
        units[0][a.index()] = 12.0;
        units[1][a.index()] = 12.0;
        units[2][x.index()] = 20.0;
        for direct in &units {
            fast.push_timeunit(&t, direct);
            full.push_timeunit_full(&t, direct);
            assert_eq!(divergence(&fast, &full, &t), None);
        }
        assert_eq!(fast.heavy_hitters(), &[x]);
        for q in quiet {
            assert!(!fast.is_heavy_hitter(q), "never-counted child folded back");
        }
        assert!(fast.timings().creating_time_series > std::time::Duration::ZERO);
        assert!(fast.timings().updating_hierarchies > std::time::Duration::ZERO);
    }

    /// Old checkpoints carry the removed per-unit columns; fields are
    /// looked up by name, so they load and are ignored.
    #[test]
    fn checkpoints_with_removed_columns_still_load() {
        let t = Tree::new("root");
        let ada = Ada::new(HhhConfig::new(5.0, 4)).unwrap();
        let json = serde_json::to_string(&ada).unwrap();
        assert!(!json.contains("washh") && !json.contains("tosplit"));
        let legacy = json.replacen('{', r#"{"washh":[false],"tosplit":[true],"#, 1);
        let mut back: Ada = serde_json::from_str(&legacy).expect("legacy fields are ignored");
        back.push_timeunit(&t, &[12.0]);
        assert_eq!(back.heavy_hitters(), &[t.root()]);
    }
}
