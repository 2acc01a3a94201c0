use serde::{Deserialize, Serialize};

use tiresias_hierarchy::NodeId;

/// The heuristic deriving the scale ratio `F(n_c, C_n)` used by ADA's
/// `SPLIT` operation to apportion a parent's time series among its
/// children (§V-B4).
///
/// Each rule assigns every node a weight-related property `X_n`; the
/// ratio for child `n_c` is `X_{n_c} / Σ_{m ∈ C_n} X_m`. If every
/// property in the set is zero the split degenerates to uniform.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SplitRule {
    /// `X_n = 1`: split evenly across the children.
    Uniform,
    /// `X_n` = the node's aggregate count in the previous timeunit.
    LastTimeUnit,
    /// `X_n` = the node's total aggregate count over all past timeunits.
    LongTermHistory,
    /// `X_n` = an exponentially smoothed aggregate count with rate
    /// `alpha`.
    Ewma {
        /// Smoothing rate in `(0, 1]`.
        alpha: f64,
    },
}

impl Default for SplitRule {
    /// `LongTermHistory`, the rule the paper found slightly more accurate
    /// than the alternatives (Fig. 12).
    fn default() -> Self {
        SplitRule::LongTermHistory
    }
}

impl std::fmt::Display for SplitRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SplitRule::Uniform => write!(f, "Uniform"),
            SplitRule::LastTimeUnit => write!(f, "Last-Time-Unit"),
            SplitRule::LongTermHistory => write!(f, "Long-Term-History"),
            SplitRule::Ewma { alpha } => write!(f, "EWMA(α={alpha})"),
        }
    }
}

/// Per-node statistics backing the split rules: previous-unit, cumulative
/// and exponentially smoothed aggregate counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SplitStats {
    prev: Vec<f64>,
    total: Vec<f64>,
    ewma: Vec<f64>,
    ewma_seeded: Vec<bool>,
}

/// One node's detached statistics row, used when a subtree (and the
/// split-ratio history that shapes its future splits) migrates between
/// shard detectors.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StatRow {
    /// Previous-unit aggregate (`LastTimeUnit` property).
    pub prev: f64,
    /// Cumulative aggregate (`LongTermHistory` property).
    pub total: f64,
    /// Smoothed aggregate (`Ewma` property).
    pub ewma: f64,
    /// Whether the EWMA has observed its seeding unit.
    pub seeded: bool,
}

impl SplitStats {
    /// Creates zeroed statistics for a tree of `len` nodes.
    pub fn with_len(len: usize) -> Self {
        SplitStats {
            prev: vec![0.0; len],
            total: vec![0.0; len],
            ewma: vec![0.0; len],
            ewma_seeded: vec![false; len],
        }
    }

    /// Grows the statistics to cover a tree that gained nodes.
    pub fn resize(&mut self, len: usize) {
        if self.prev.len() < len {
            self.prev.resize(len, 0.0);
            self.total.resize(len, 0.0);
            self.ewma.resize(len, 0.0);
            self.ewma_seeded.resize(len, false);
        }
    }

    /// Number of tracked nodes.
    pub fn len(&self) -> usize {
        self.prev.len()
    }

    /// `true` if no nodes are tracked.
    pub fn is_empty(&self) -> bool {
        self.prev.is_empty()
    }

    /// Folds one timeunit's aggregate weights `A_n` into the statistics.
    /// `ewma_alpha` is the smoothing rate of the EWMA property; `None`
    /// leaves the EWMA untouched (only [`SplitRule::Ewma`] reads it).
    ///
    /// # Panics
    ///
    /// Panics if `aggregates` is shorter than the tracked node count.
    pub fn record_unit(&mut self, aggregates: &[f64], ewma_alpha: Option<f64>) {
        assert!(aggregates.len() >= self.prev.len());
        self.record_nodes(aggregates, 0..self.prev.len(), ewma_alpha);
    }

    /// [`SplitStats::record_unit`] with the previous-unit and cumulative
    /// properties updated at node indices `nodes` only. Equal to
    /// `record_unit` whenever every other node's aggregate is zero in
    /// this unit and was zero in the previous one. The EWMA, when
    /// requested, still decays over every node.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range of `aggregates` or of the
    /// statistics.
    pub fn record_nodes(
        &mut self,
        aggregates: &[f64],
        nodes: impl IntoIterator<Item = usize>,
        ewma_alpha: Option<f64>,
    ) {
        for i in nodes {
            let a = aggregates[i];
            self.prev[i] = a;
            self.total[i] += a;
        }
        let Some(alpha) = ewma_alpha else {
            return;
        };
        for i in 0..self.ewma.len() {
            let a = aggregates[i];
            if self.ewma_seeded[i] {
                self.ewma[i] = alpha * a + (1.0 - alpha) * self.ewma[i];
            } else {
                self.ewma[i] = a;
                self.ewma_seeded[i] = true;
            }
        }
    }

    /// The detached row of node index `i` (zeros when the statistics
    /// have not grown to cover `i` yet).
    pub fn row(&self, i: usize) -> StatRow {
        StatRow {
            prev: self.prev.get(i).copied().unwrap_or(0.0),
            total: self.total.get(i).copied().unwrap_or(0.0),
            ewma: self.ewma.get(i).copied().unwrap_or(0.0),
            seeded: self.ewma_seeded.get(i).copied().unwrap_or(false),
        }
    }

    /// Writes `row` at node index `i`, growing the statistics as needed.
    pub fn set_row(&mut self, i: usize, row: StatRow) {
        self.resize(i + 1);
        self.prev[i] = row.prev;
        self.total[i] = row.total;
        self.ewma[i] = row.ewma;
        self.ewma_seeded[i] = row.seeded;
    }

    /// Remaps the statistics through a tree compaction: entry `i` moves
    /// to `old_to_new[i]`, entries mapped to `None` are dropped, and the
    /// vectors shrink to the surviving count. Indices past the current
    /// length are treated as zero rows.
    pub fn compact(&mut self, old_to_new: &[Option<NodeId>]) {
        let new_len = old_to_new.iter().flatten().count();
        let mut prev = vec![0.0; new_len];
        let mut total = vec![0.0; new_len];
        let mut ewma = vec![0.0; new_len];
        let mut seeded = vec![false; new_len];
        for (i, slot) in old_to_new.iter().enumerate() {
            if let Some(new) = slot {
                if i < self.prev.len() {
                    prev[new.index()] = self.prev[i];
                    total[new.index()] = self.total[i];
                    ewma[new.index()] = self.ewma[i];
                    seeded[new.index()] = self.ewma_seeded[i];
                }
            }
        }
        self.prev = prev;
        self.total = total;
        self.ewma = ewma;
        self.ewma_seeded = seeded;
    }

    /// The property `X_n` of `node` under `rule`.
    pub fn property(&self, rule: SplitRule, node: NodeId) -> f64 {
        match rule {
            SplitRule::Uniform => 1.0,
            SplitRule::LastTimeUnit => self.prev[node.index()],
            SplitRule::LongTermHistory => self.total[node.index()],
            SplitRule::Ewma { .. } => self.ewma[node.index()],
        }
    }

    /// The split ratios `F(n_c, C_n)` for the child set `children`,
    /// in the same order. Ratios are non-negative and sum to 1 (falling
    /// back to uniform when every property is zero).
    pub fn ratios(&self, rule: SplitRule, children: &[NodeId]) -> Vec<f64> {
        if children.is_empty() {
            return Vec::new();
        }
        let props: Vec<f64> = children.iter().map(|&c| self.property(rule, c).max(0.0)).collect();
        let sum: f64 = props.iter().sum();
        if sum <= 0.0 {
            return vec![1.0 / children.len() as f64; children.len()];
        }
        props.iter().map(|p| p / sum).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiresias_hierarchy::Tree;

    fn setup() -> (Tree, Vec<NodeId>) {
        let mut t = Tree::new("r");
        let a = t.insert_path(&["a"]);
        let b = t.insert_path(&["b"]);
        let c = t.insert_path(&["c"]);
        (t, vec![a, b, c])
    }

    #[test]
    fn uniform_splits_evenly() {
        let (t, kids) = setup();
        let stats = SplitStats::with_len(t.len());
        let r = stats.ratios(SplitRule::Uniform, &kids);
        for x in &r {
            assert!((x - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn last_time_unit_uses_previous_aggregates() {
        let (t, kids) = setup();
        let mut stats = SplitStats::with_len(t.len());
        let mut agg = vec![0.0; t.len()];
        agg[kids[0].index()] = 6.0;
        agg[kids[1].index()] = 2.0;
        agg[kids[2].index()] = 0.0;
        stats.record_unit(&agg, Some(0.5));
        let r = stats.ratios(SplitRule::LastTimeUnit, &kids);
        assert!((r[0] - 0.75).abs() < 1e-12);
        assert!((r[1] - 0.25).abs() < 1e-12);
        assert_eq!(r[2], 0.0);
    }

    #[test]
    fn long_term_history_accumulates() {
        let (t, kids) = setup();
        let mut stats = SplitStats::with_len(t.len());
        for unit in 0..4 {
            let mut agg = vec![0.0; t.len()];
            agg[kids[0].index()] = 1.0;
            agg[kids[1].index()] = if unit == 3 { 9.0 } else { 0.0 };
            stats.record_unit(&agg, Some(0.5));
        }
        // totals: a = 4, b = 9 → LTH favours b, LTU favours b even more.
        let lth = stats.ratios(SplitRule::LongTermHistory, &kids);
        assert!((lth[0] - 4.0 / 13.0).abs() < 1e-12);
        assert!((lth[1] - 9.0 / 13.0).abs() < 1e-12);
    }

    #[test]
    fn ewma_interpolates_between_last_and_history() {
        let (t, kids) = setup();
        let mut stats = SplitStats::with_len(t.len());
        let mut agg = vec![0.0; t.len()];
        agg[kids[0].index()] = 8.0;
        stats.record_unit(&agg, Some(0.25));
        agg[kids[0].index()] = 0.0;
        agg[kids[1].index()] = 8.0;
        stats.record_unit(&agg, Some(0.25));
        // a: seeded 8 then 0.75·8 = 6; b: seeded... b was seeded at 0 on
        // the first unit, then 0.25·8 = 2.
        assert!((stats.property(SplitRule::Ewma { alpha: 0.25 }, kids[0]) - 6.0).abs() < 1e-12);
        assert!((stats.property(SplitRule::Ewma { alpha: 0.25 }, kids[1]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn record_nodes_matches_record_unit_where_the_rest_is_zero() {
        let (t, kids) = setup();
        let (mut full, mut sparse) = (SplitStats::with_len(t.len()), SplitStats::with_len(t.len()));
        for unit in 0..3 {
            let mut agg = vec![0.0; t.len()];
            agg[kids[unit % 2].index()] = 2.5 + unit as f64;
            // Last unit's nodes are revisited so their `prev` resets.
            let nodes = [kids[0].index(), kids[1].index()];
            full.record_unit(&agg, Some(0.3));
            sparse.record_nodes(&agg, nodes, Some(0.3));
            assert_eq!(full, sparse, "unit {unit}");
        }
        // Without a rate the EWMA is left alone.
        let before = sparse.row(kids[0].index());
        sparse.record_unit(&vec![7.0; t.len()], None);
        let after = sparse.row(kids[0].index());
        assert_eq!((after.ewma, after.seeded), (before.ewma, before.seeded));
        assert_eq!(after.prev, 7.0);
    }

    #[test]
    fn zero_properties_fall_back_to_uniform() {
        let (t, kids) = setup();
        let stats = SplitStats::with_len(t.len());
        let r = stats.ratios(SplitRule::LongTermHistory, &kids);
        for x in &r {
            assert!((x - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn ratios_always_sum_to_one() {
        let (t, kids) = setup();
        let mut stats = SplitStats::with_len(t.len());
        let mut agg = vec![0.0; t.len()];
        agg[kids[0].index()] = 3.0;
        agg[kids[1].index()] = 5.0;
        agg[kids[2].index()] = 11.0;
        stats.record_unit(&agg, Some(0.5));
        for rule in [
            SplitRule::Uniform,
            SplitRule::LastTimeUnit,
            SplitRule::LongTermHistory,
            SplitRule::Ewma { alpha: 0.5 },
        ] {
            let r = stats.ratios(rule, &kids);
            assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-12, "{rule}");
        }
    }

    #[test]
    fn empty_child_set_is_empty() {
        let (_, _) = setup();
        let stats = SplitStats::with_len(4);
        assert!(stats.ratios(SplitRule::Uniform, &[]).is_empty());
    }

    #[test]
    fn resize_preserves_existing() {
        let mut stats = SplitStats::with_len(2);
        stats.record_unit(&[1.0, 2.0], Some(0.5));
        stats.resize(4);
        assert_eq!(stats.len(), 4);
        assert_eq!(stats.prev[1], 2.0);
        assert_eq!(stats.prev[3], 0.0);
    }
}
