use serde::{Deserialize, Serialize};

/// Dense per-node counts of the open timeunit.
///
/// The ingest hot path increments one slot per record; a *touched-index
/// list* makes the end-of-unit reset O(records) instead of O(tree), and
/// the buffer itself is recycled across timeunits so steady-state
/// ingestion performs no allocation (the vector only grows when the
/// tree does).
///
/// Serialises as sparse `(index, count)` pairs, so checkpoints stay
/// small and the format matches what the old `HashMap<NodeId, f64>`
/// field produced in spirit.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(from = "CountsRepr", into = "CountsRepr")]
pub(crate) struct DenseCounts {
    /// Per-node counts, indexed by `NodeId::index`; may lag the tree
    /// (absent slots are zero).
    counts: Vec<f64>,
    /// Indices with non-zero counts, in first-touch order.
    touched: Vec<u32>,
}

/// Sparse serialised form of [`DenseCounts`].
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CountsRepr {
    pairs: Vec<(u32, f64)>,
}

impl From<DenseCounts> for CountsRepr {
    fn from(c: DenseCounts) -> Self {
        CountsRepr { pairs: c.touched.iter().map(|&i| (i, c.counts[i as usize])).collect() }
    }
}

impl From<CountsRepr> for DenseCounts {
    fn from(r: CountsRepr) -> Self {
        let mut c = DenseCounts::default();
        for (i, w) in r.pairs {
            c.add(i as usize, w);
        }
        c
    }
}

impl DenseCounts {
    /// `true` iff no counts are pending.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Adds `w` to the count of node index `i`, growing the buffer if
    /// the tree grew past it.
    #[inline]
    pub fn add(&mut self, i: usize, w: f64) {
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0.0);
        }
        let slot = &mut self.counts[i];
        if *slot == 0.0 {
            self.touched.push(i as u32);
        }
        *slot += w;
    }

    /// Sum of all pending counts — the number of records in the open
    /// timeunit when every record contributes weight 1.
    pub fn total(&self) -> f64 {
        self.touched.iter().map(|&i| self.counts[i as usize]).sum()
    }

    /// Moves the buffers out for a close sweep. The protocol is
    /// `take()` → read [`DenseCounts::dense`] → [`DenseCounts::reset`]
    /// → assign back, which recycles both allocations.
    pub fn take(&mut self) -> DenseCounts {
        std::mem::take(self)
    }

    /// Grows the dense buffer to cover `len` slots.
    pub fn ensure_len(&mut self, len: usize) {
        if self.counts.len() < len {
            self.counts.resize(len, 0.0);
        }
    }

    /// The dense count vector (covers at least every touched slot).
    pub fn dense(&self) -> &[f64] {
        &self.counts
    }

    /// Every slot index that received a count, in first-touch order — a
    /// superset of the slots with a non-zero count.
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Splits the pending counts along a tree compaction (subtree
    /// rebalancing): entries whose index maps to a moved slot through
    /// `slot_of` are returned as `(slot, count)` pairs, and the
    /// surviving entries are remapped in place through `old_to_new`.
    pub fn extract_remap(
        &mut self,
        slot_of: impl Fn(usize) -> Option<u32>,
        old_to_new: &[Option<tiresias_hierarchy::NodeId>],
    ) -> Vec<(u32, f64)> {
        let old = self.take();
        let mut moved = Vec::new();
        for &i in &old.touched {
            let idx = i as usize;
            let w = old.counts[idx];
            match slot_of(idx) {
                Some(slot) => moved.push((slot, w)),
                None => {
                    let new = old_to_new
                        .get(idx)
                        .and_then(|s| *s)
                        .expect("unmoved touched count survives compaction");
                    self.add(new.index(), w);
                }
            }
        }
        moved
    }

    /// Zeroes all touched slots in O(touched) and clears the touch
    /// list, keeping both allocations for reuse.
    pub fn reset(&mut self) {
        for &i in &self.touched {
            self.counts[i as usize] = 0.0;
        }
        self.touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_tracks_touched_once() {
        let mut c = DenseCounts::default();
        c.add(5, 1.0);
        c.add(5, 1.0);
        c.add(2, 3.0);
        assert_eq!(c.touched, vec![5, 2]);
        assert_eq!(c.dense()[5], 2.0);
        assert_eq!(c.dense()[2], 3.0);
        assert!(!c.is_empty());
    }

    #[test]
    fn reset_is_sparse_and_reusable() {
        let mut c = DenseCounts::default();
        c.add(7, 4.0);
        let cap = {
            c.reset();
            assert!(c.is_empty());
            assert!(c.dense().iter().all(|&v| v == 0.0));
            c.counts.capacity()
        };
        c.add(3, 1.0);
        assert_eq!(c.counts.capacity(), cap, "buffer is recycled");
    }

    #[test]
    fn serde_round_trips_sparsely() {
        let mut c = DenseCounts::default();
        c.ensure_len(100);
        c.add(9, 2.5);
        c.add(41, 1.0);
        let json = serde_json::to_string(&c).unwrap();
        assert!(json.len() < 80, "sparse encoding, got {json}");
        let back: DenseCounts = serde_json::from_str(&json).unwrap();
        assert_eq!(back.dense()[9], 2.5);
        assert_eq!(back.dense()[41], 1.0);
        assert_eq!(back.touched.len(), 2);
    }
}
