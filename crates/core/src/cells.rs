//! The record currency of the served path: one flat batch from the
//! wire to the shard worker, and the count cells it folds into.
//!
//! A detector consumes exactly one thing per record — "+1 for this
//! category in this timeunit" — so nothing between the socket and the
//! shard's open-unit counts needs an owned path per record:
//!
//! * [`RecordBatch`] is what a session fills (the text batcher through
//!   [`RecordBatch::push_str`], the wire-v2 frame loop through
//!   [`RecordBatch::add_path`] + [`RecordBatch::push`]): a byte arena
//!   of the batch's **distinct** paths in first-seen order, each with
//!   its first-segment hash computed once, plus a `(path index,
//!   timestamp)` column. A record costs eight bytes of column and no
//!   allocation.
//! * admission folds the accepted records into per-shard `CellChunk`s
//!   of **count cells** `(path, unit, n)` in first-appearance order —
//!   what travels through a shard ring;
//! * a worker applies a cell of the open unit with one
//!   [`Tiresias::push_count`](crate::Tiresias::push_count) and parks
//!   cells of future units in its `CellStash`, a `BTreeMap` keyed by
//!   unit whose size is bounded by distinct paths × units ahead, not
//!   by records, and which a close drains in key order with no sort.
//!
//! # Why folding preserves the output
//!
//! A cell `(p, u, n)` stands for `n` records of path `p` in unit `u`
//! and is processed where the **first** of them stood. Moving the
//! later ones up to that position changes nothing a shard can
//! observe: `p`'s tree node is created by the first counted record
//! either way (so node-id order — and with it the order of ADA's
//! floating-point sums — is untouched), and counting is commutative
//! (integer-valued `f64` sums are exact). The same argument lets the
//! stash merge a cell into an earlier cell of the same path and unit.

use std::collections::BTreeMap;
use std::hash::Hasher as _;

use tiresias_hierarchy::{first_segment_hash, FxHashMap, FxHasher};

use crate::error::CoreError;
use crate::wal::encode_record;

/// Fx hash of a whole path spelling (the dedupe key of the batch's and
/// the stash's path tables; hits are verified against the bytes).
fn path_hash(path: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(path.as_bytes());
    h.finish()
}

/// The path spelling stored at `off..off + len` of an arena.
fn spelling(arena: &str, off: usize, len: u16) -> &str {
    &arena[off..off + usize::from(len)]
}

/// "No cell yet" in [`PathSlot::cell`].
const NO_CELL: u32 = u32::MAX;

/// One distinct path of a [`RecordBatch`], plus the scratch admission
/// keeps per path while it folds the batch into cells.
#[derive(Debug, Clone)]
struct PathSlot {
    /// Byte range of the spelling in the batch arena.
    off: usize,
    len: u16,
    /// [`first_segment_hash`] of the spelling — the routing and
    /// top-label key, computed once when the path enters the batch.
    seg_hash: u64,
    /// Owning shard, valid once `cell != NO_CELL`.
    shard: u32,
    /// This path's most recent cell in `chunks[shard]`.
    cell: u32,
    /// Offset of the spelling's copy in `chunks[shard]`'s arena.
    chunk_off: usize,
    /// Records of this path the last admission accepted.
    accepted: u32,
}

/// A flat batch of `(category path, timestamp)` records — the unit of
/// admission into a live engine ([`IngestHandle::admit_batch`]).
///
/// The batch interns paths: each distinct spelling is stored once, in
/// first-seen order, and records refer to it by index. Reuse one batch
/// per session — [`RecordBatch::clear`] keeps every allocation — and
/// steady-state filling allocates nothing.
///
/// Paths longer than [`MAX_PATH_BYTES`](crate::MAX_PATH_BYTES) (the longest the write-ahead
/// log's record format can hold) are refused where they enter, so no
/// admitted record can ever be logged truncated.
///
/// [`IngestHandle::admit_batch`]: crate::IngestHandle::admit_batch
#[derive(Debug, Default)]
pub struct RecordBatch {
    arena: String,
    paths: Vec<PathSlot>,
    recs: Vec<(u32, u64)>,
    /// Full-spelling hash → path index, for [`RecordBatch::push_str`].
    by_hash: FxHashMap<u64, u32>,
    /// Admission scratch: the per-shard chunks being assembled and the
    /// WAL encoding of the accepted records.
    chunks: Vec<CellChunk>,
    wal_buf: Vec<u8>,
}

impl RecordBatch {
    /// An empty batch.
    pub fn new() -> RecordBatch {
        RecordBatch::default()
    }

    /// Records in the batch.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// `true` when the batch holds no record.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Distinct path entries in the batch.
    pub fn distinct_paths(&self) -> usize {
        self.paths.len()
    }

    /// Empties the batch, keeping its allocations.
    pub fn clear(&mut self) {
        self.arena.clear();
        self.paths.clear();
        self.recs.clear();
        self.by_hash.clear();
    }

    /// Appends one record, storing `path` only if the batch has not
    /// seen the spelling before (one hash of the path per call).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::PathTooLong`] — and appends nothing — when
    /// `path` exceeds [`MAX_PATH_BYTES`](crate::MAX_PATH_BYTES).
    pub fn push_str(&mut self, path: &str, t_secs: u64) -> Result<(), CoreError> {
        let h = path_hash(path);
        let idx = match self.by_hash.get(&h) {
            Some(&idx) if self.path(idx) == path => idx,
            // A different spelling with the same 64-bit hash keeps its
            // own (unindexed) entry: duplicates are harmless, a wrong
            // merge would not be.
            Some(_) => self.add_path(path)?,
            None => {
                let idx = self.add_path(path)?;
                self.by_hash.insert(h, idx);
                idx
            }
        };
        self.recs.push((idx, t_secs));
        Ok(())
    }

    /// Stores `path` as a new entry **without** looking for an earlier
    /// copy and returns its index for [`RecordBatch::push`] — for
    /// callers that already know their distinct paths (wire v2 maps
    /// each dictionary id to an entry once per frame, so its records
    /// cost no hash at all).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::PathTooLong`] when `path` exceeds
    /// [`MAX_PATH_BYTES`](crate::MAX_PATH_BYTES).
    pub fn add_path(&mut self, path: &str) -> Result<u32, CoreError> {
        // `MAX_PATH_BYTES` is the `u16` range of the WAL's length field.
        let len =
            u16::try_from(path.len()).map_err(|_| CoreError::PathTooLong { len: path.len() })?;
        let idx = u32::try_from(self.paths.len()).expect("fewer than 2^32 paths fit in memory");
        self.paths.push(PathSlot {
            off: self.arena.len(),
            len,
            seg_hash: first_segment_hash(path),
            shard: 0,
            cell: NO_CELL,
            chunk_off: 0,
            accepted: 0,
        });
        self.arena.push_str(path);
        Ok(idx)
    }

    /// Appends one record of the path entry `path_idx`.
    ///
    /// # Panics
    ///
    /// Panics if `path_idx` was not returned by this batch's
    /// [`RecordBatch::add_path`] since the last [`RecordBatch::clear`].
    pub fn push(&mut self, path_idx: u32, t_secs: u64) {
        assert!((path_idx as usize) < self.paths.len(), "path index from another batch");
        self.recs.push((path_idx, t_secs));
    }

    /// The spelling of path entry `idx`.
    fn path(&self, idx: u32) -> &str {
        let slot = &self.paths[idx as usize];
        spelling(&self.arena, slot.off, slot.len)
    }

    /// The records in order, as `(path, timestamp)`.
    pub fn records(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.recs.iter().map(|&(idx, t)| (self.path(idx), t))
    }

    /// After an admission: every distinct path entry with its
    /// first-segment hash and how many of its records were accepted —
    /// the per-path table hot-label gauges read instead of the records.
    pub fn accepted_by_path(&self) -> impl Iterator<Item = (&str, u64, u32)> + '_ {
        self.paths
            .iter()
            .map(|slot| (spelling(&self.arena, slot.off, slot.len), slot.seg_hash, slot.accepted))
    }

    /// Readies the admission scratch for one pass over `shards` shards
    /// (dropping whatever a failed earlier pass left behind).
    pub(crate) fn begin_admission(&mut self, shards: usize) {
        for slot in &mut self.paths {
            slot.cell = NO_CELL;
            slot.accepted = 0;
        }
        self.chunks.clear();
        self.chunks.resize_with(shards, CellChunk::default);
        self.wal_buf.clear();
    }

    /// The `(path index, timestamp)` column.
    pub(crate) fn columns(&self) -> &[(u32, u64)] {
        &self.recs
    }

    /// Appends one accepted record's WAL block to the admission's log
    /// buffer.
    pub(crate) fn log_record(&mut self, idx: u32, t_secs: u64) {
        let slot = &self.paths[idx as usize];
        encode_record(&mut self.wal_buf, spelling(&self.arena, slot.off, slot.len), t_secs);
    }

    /// The WAL blocks of the records accepted so far, in order.
    pub(crate) fn logged(&self) -> &[u8] {
        &self.wal_buf
    }

    /// Moves the assembled non-empty chunks out, as `(shard, chunk)`.
    pub(crate) fn take_chunks(&mut self) -> impl Iterator<Item = (usize, CellChunk)> + '_ {
        self.chunks
            .iter_mut()
            .enumerate()
            .filter(|(_, chunk)| !chunk.is_empty())
            .map(|(shard, chunk)| (shard, std::mem::take(chunk)))
    }

    /// Counts one accepted record of path `idx` in `unit` into the
    /// owning shard's chunk, opening a new cell when the path's latest
    /// cell is for another unit. `route` is consulted once per distinct
    /// path per admission.
    #[inline]
    pub(crate) fn count_accepted(&mut self, idx: u32, unit: u64, route: impl FnOnce(u64) -> usize) {
        let slot = &mut self.paths[idx as usize];
        slot.accepted += 1;
        let first = slot.cell == NO_CELL;
        if first {
            slot.shard = route(slot.seg_hash) as u32;
        }
        let chunk = &mut self.chunks[slot.shard as usize];
        chunk.records += 1;
        if first {
            slot.chunk_off = chunk.arena.len();
            chunk.arena.push_str(spelling(&self.arena, slot.off, slot.len));
        } else if chunk.cells[slot.cell as usize].unit == unit {
            chunk.cells[slot.cell as usize].n += 1;
            return;
        }
        slot.cell = chunk.open_cell(slot.chunk_off, slot.len, unit);
    }
}

/// `n` records of one path in one timeunit.
#[derive(Debug, Clone, Copy)]
struct Cell {
    unit: u64,
    /// Byte range of the path in the owning arena.
    off: usize,
    n: u32,
    len: u16,
}

/// One admission's accepted records for one shard, folded into count
/// cells in first-appearance order — the payload of a ring message.
#[derive(Debug, Default)]
pub(crate) struct CellChunk {
    arena: String,
    cells: Vec<Cell>,
    /// Records the cells stand for (`Σ n`).
    records: u64,
}

impl CellChunk {
    fn open_cell(&mut self, off: usize, len: u16, unit: u64) -> u32 {
        let at = u32::try_from(self.cells.len()).expect("fewer cells than records in a batch");
        self.cells.push(Cell { unit, off, n: 1, len });
        at
    }

    /// Records this chunk stands for.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// `true` when admission routed nothing here.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cells in first-appearance order, as `(path, unit, n)`.
    pub fn cells(&self) -> impl Iterator<Item = (&str, u64, u64)> + '_ {
        self.cells.iter().map(|c| (spelling(&self.arena, c.off, c.len), c.unit, u64::from(c.n)))
    }
}

/// A stashed cell: `n` records of one path, in the bucket's unit.
#[derive(Debug, Clone, Copy)]
struct StashCell {
    off: usize,
    n: u64,
    len: u16,
}

/// The stashed cells of one future unit, in first-arrival order, one
/// per distinct path.
#[derive(Debug, Default)]
pub(crate) struct Bucket {
    arena: String,
    cells: Vec<StashCell>,
    /// Full-spelling hash → cell index (hits verified on the bytes).
    by_hash: FxHashMap<u64, u32>,
}

impl Bucket {
    fn path(&self, cell: &StashCell) -> &str {
        spelling(&self.arena, cell.off, cell.len)
    }

    fn add(&mut self, path: &str, n: u64) {
        let h = path_hash(path);
        let indexed = self.by_hash.get(&h).copied();
        if let Some(at) = indexed {
            if self.path(&self.cells[at as usize]) == path {
                self.cells[at as usize].n += n;
                return;
            }
        }
        let at = u32::try_from(self.cells.len()).expect("fewer than 2^32 paths fit in memory");
        let len = u16::try_from(path.len()).expect("batch paths are capped at MAX_PATH_BYTES");
        self.cells.push(StashCell { off: self.arena.len(), n, len });
        self.arena.push_str(path);
        if indexed.is_none() {
            self.by_hash.insert(h, at);
        }
    }

    /// The cells in first-arrival order, as `(path, n)`.
    pub fn cells(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.cells.iter().map(|c| (self.path(c), c.n))
    }
}

/// A shard worker's hold-back of cells whose unit is not open yet.
#[derive(Debug, Default)]
pub(crate) struct CellStash {
    units: BTreeMap<u64, Bucket>,
    /// Records the stashed cells stand for.
    records: u64,
}

impl CellStash {
    /// Parks `n` records of `path` until `unit` opens, merging into the
    /// path's earlier cell of that unit if there is one.
    pub fn add(&mut self, unit: u64, path: &str, n: u64) {
        self.units.entry(unit).or_default().add(path, n);
        self.records += n;
    }

    /// Removes and returns the earliest bucket whose unit is at or
    /// below `target`.
    pub fn pop_due(&mut self, target: u64) -> Option<(u64, Bucket)> {
        let entry = self.units.first_entry().filter(|e| *e.key() <= target)?;
        let (unit, bucket) = entry.remove_entry();
        self.records -= bucket.cells.iter().map(|c| c.n).sum::<u64>();
        Some((unit, bucket))
    }

    /// Records held back.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// `true` when nothing is held back.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Largest unit with a stashed cell.
    pub fn max_unit(&self) -> Option<u64> {
        self.units.last_key_value().map(|(&unit, _)| unit)
    }

    /// Splits off every cell whose path's first-segment hash is `hash`
    /// (a migrating top-level label), keeping arrival order on both
    /// sides.
    pub fn split_off_label(&mut self, hash: u64) -> CellStash {
        let mut moved = CellStash::default();
        let mut kept = CellStash::default();
        for (unit, bucket) in std::mem::take(&mut self.units) {
            for (path, n) in bucket.cells() {
                let side = if first_segment_hash(path) == hash { &mut moved } else { &mut kept };
                side.add(unit, path, n);
            }
        }
        *self = kept;
        moved
    }

    /// Appends another stash's cells behind this one's, unit by unit.
    pub fn absorb(&mut self, other: CellStash) {
        for (unit, bucket) in other.units {
            for (path, n) in bucket.cells() {
                self.add(unit, path, n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::MAX_PATH_BYTES;

    #[test]
    fn batch_stores_each_spelling_once_in_first_seen_order() {
        let mut batch = RecordBatch::new();
        for (p, t) in [("a/x", 1), ("b/y", 2), ("a/x", 3), ("a/x/", 4), ("b/y", 5)] {
            batch.push_str(p, t).unwrap();
        }
        assert_eq!(batch.len(), 5);
        assert_eq!(batch.distinct_paths(), 3, "`a/x/` is its own spelling");
        let got: Vec<(&str, u64)> = batch.records().collect();
        assert_eq!(got, [("a/x", 1), ("b/y", 2), ("a/x", 3), ("a/x/", 4), ("b/y", 5)]);
        let paths: Vec<&str> = batch.accepted_by_path().map(|(p, _, _)| p).collect();
        assert_eq!(paths, ["a/x", "b/y", "a/x/"]);
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.distinct_paths(), 0);
    }

    #[test]
    fn batch_refuses_paths_the_wal_cannot_hold() {
        let mut batch = RecordBatch::new();
        let long = "é".repeat(MAX_PATH_BYTES / 2 + 1);
        assert_eq!(
            batch.push_str(&long, 1),
            Err(CoreError::PathTooLong { len: MAX_PATH_BYTES + 1 })
        );
        assert!(batch.is_empty(), "nothing half-appended");
        assert_eq!(batch.distinct_paths(), 0);
        let fits = "x".repeat(MAX_PATH_BYTES);
        batch.push_str(&fits, 1).unwrap();
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn admission_scratch_folds_runs_into_cells() {
        let mut batch = RecordBatch::new();
        for (p, t) in [("a/x", 0), ("b/y", 0), ("a/x", 0), ("a/x", 1), ("a/x", 1), ("b/y", 0)] {
            batch.push_str(p, t).unwrap();
        }
        batch.begin_admission(2);
        let recs: Vec<(u32, u64)> = batch.columns().to_vec();
        let mut routed = 0;
        for (idx, unit) in recs {
            batch.count_accepted(idx, unit, |_| {
                routed += 1;
                1
            });
        }
        assert_eq!(routed, 2, "one routing decision per distinct path");
        assert!(batch.chunks[0].is_empty());
        let chunk = &batch.chunks[1];
        assert_eq!(chunk.records(), 6);
        let cells: Vec<(&str, u64, u64)> = chunk.cells().collect();
        assert_eq!(cells, [("a/x", 0, 2), ("b/y", 0, 2), ("a/x", 1, 2)]);
        let accepted: Vec<u32> = batch.accepted_by_path().map(|(_, _, n)| n).collect();
        assert_eq!(accepted, [4, 2]);
    }

    #[test]
    fn stash_merges_per_path_and_drains_in_unit_order() {
        let mut stash = CellStash::default();
        stash.add(7, "a/x", 2);
        stash.add(5, "b/y", 1);
        stash.add(7, "c/z", 1);
        stash.add(7, "a/x", 3);
        assert_eq!(stash.records(), 7);
        assert_eq!(stash.max_unit(), Some(7));
        assert!(stash.pop_due(4).is_none());
        let (unit, bucket) = stash.pop_due(7).unwrap();
        assert_eq!(unit, 5);
        assert_eq!(bucket.cells().collect::<Vec<_>>(), [("b/y", 1)]);
        let (unit, bucket) = stash.pop_due(7).unwrap();
        assert_eq!(unit, 7);
        assert_eq!(bucket.cells().collect::<Vec<_>>(), [("a/x", 5), ("c/z", 1)]);
        assert!(stash.is_empty());
        assert_eq!(stash.records(), 0);
    }

    #[test]
    fn stash_splits_and_absorbs_by_top_level_label() {
        let mut stash = CellStash::default();
        stash.add(3, "a/x", 1);
        stash.add(3, "b/y", 2);
        stash.add(4, "a/z", 4);
        let moved = stash.split_off_label(first_segment_hash("a"));
        assert_eq!(moved.records(), 5);
        assert_eq!(stash.records(), 2);
        let mut dest = CellStash::default();
        dest.add(3, "c/w", 1);
        dest.absorb(moved);
        assert_eq!(dest.records(), 6);
        let (_, bucket) = dest.pop_due(3).unwrap();
        assert_eq!(bucket.cells().collect::<Vec<_>>(), [("c/w", 1), ("a/x", 1)]);
    }
}
