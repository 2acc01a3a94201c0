//! Disk-backed retention tier: closed timeunits evicted from the RAM
//! [`crate::ReportStore`] spill here instead of vanishing.
//!
//! The store keeps the newest `--retain-units` closed units in RAM;
//! everything older moves into append-only **segment files**, one
//! frame per evicted unit, preserving the store's global `(unit, path)`
//! event order. Queries and `SUBSCRIBE FROM` replays reach this tier
//! through the same [`crate::ReportReader`] API — history past the RAM
//! budget is served transparently, just slower.
//!
//! # On-disk layout
//!
//! ```text
//! segments/
//!   seg-<first_seq:016x>.log   frames, append-only
//!   seg-<first_seq:016x>.idx   JSON block index (rebuildable)
//! ```
//!
//! Each `.log` frame is `[len: u32 LE][crc32: u32 LE][payload]` — the
//! same envelope as the WAL — with payload
//! `unit: u64 LE, first_seq: u64 LE, count: u32 LE, events JSON`. The
//! sidecar `.idx` persists the per-block metadata **including the
//! distinct category paths of the block** (the path-posting index), so
//! a prefix query prunes whole blocks without touching their JSON; a
//! missing or stale sidecar is rebuilt from the log on open.
//!
//! # Sequence discipline
//!
//! Events carry their position in the store's global sequence: a block
//! tagged `first_seq = s` holds the events at sequences
//! `s .. s + count`. The tier tracks `next_seq` — everything below it
//! is durably archived — and silently skips re-spills of already
//! archived sequences, which makes crash-replay idempotent: RAM and
//! disk coverage stay disjoint (`segments own [.., next_seq)`, RAM owns
//! `[next_seq, ..)`), so merged reads never duplicate an event.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

use tiresias_telemetry::Histogram;

use serde::{Deserialize, Serialize};

use crate::anomaly::AnomalyEvent;
use crate::wal::{crc32, sync_dir, FRAME_HEADER_BYTES};

/// Default segment-file rotation threshold.
pub const DEFAULT_SEGMENT_BYTES: u64 = 64 << 20;

/// Per-block metadata, persisted in the `.idx` sidecar.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct BlockMeta {
    /// Frame offset in the `.log` file.
    off: u64,
    /// Whole frame length (header + payload).
    len: u64,
    /// The evicted timeunit this block holds.
    unit: u64,
    /// Store sequence of the block's first event.
    first_seq: u64,
    /// Event count.
    count: u64,
    /// Distinct category paths in the block (the posting index).
    paths: Vec<String>,
}

/// The `.idx` sidecar body.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct IdxFile {
    blocks: Vec<BlockMeta>,
}

#[derive(Debug)]
struct SegFile {
    path: PathBuf,
    len: u64,
    blocks: Vec<BlockMeta>,
}

#[derive(Debug, Default)]
struct SegInner {
    files: Vec<SegFile>,
    /// Everything below this store sequence is durably archived.
    next_seq: u64,
    bytes: u64,
}

/// The on-disk retention tier (see the module docs). Shared as
/// `Arc<SegmentStore>`: spills serialize on the write lock, queries
/// run under the read lock.
#[derive(Debug)]
pub struct SegmentStore {
    dir: PathBuf,
    segment_bytes: u64,
    inner: RwLock<SegInner>,
    /// Spill-latency histogram, set once by
    /// [`SegmentStore::set_telemetry`]. Unset = untelemetered.
    t_spill: OnceLock<Arc<Histogram>>,
}

fn log_name(first_seq: u64) -> String {
    format!("seg-{first_seq:016x}.log")
}

fn parse_log_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("seg-")?.strip_suffix(".log")?;
    u64::from_str_radix(hex, 16).ok()
}

fn idx_path(log: &Path) -> PathBuf {
    log.with_extension("idx")
}

/// One scanned frame: block metadata minus the paths (which need the
/// JSON body) plus the payload byte range.
struct ScannedFrame {
    off: u64,
    len: u64,
    unit: u64,
    first_seq: u64,
    count: u64,
    json_start: usize,
    json_end: usize,
}

/// Walks a `.log` file verifying every frame header and CRC. Returns
/// the intact frames and the valid prefix length (shorter than the
/// file when the tail is torn).
fn scan_log(raw: &[u8]) -> (Vec<ScannedFrame>, u64) {
    let mut frames = Vec::new();
    let mut off = 0usize;
    loop {
        if raw.len() - off < FRAME_HEADER_BYTES as usize {
            return (frames, off as u64);
        }
        let len = u32::from_le_bytes(raw[off..off + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(raw[off + 4..off + 8].try_into().unwrap());
        let body = off + FRAME_HEADER_BYTES as usize;
        if len < 20 || raw.len() - body < len {
            return (frames, off as u64);
        }
        let payload = &raw[body..body + len];
        if crc32(payload) != crc {
            return (frames, off as u64);
        }
        frames.push(ScannedFrame {
            off: off as u64,
            len: (FRAME_HEADER_BYTES as usize + len) as u64,
            unit: u64::from_le_bytes(payload[0..8].try_into().unwrap()),
            first_seq: u64::from_le_bytes(payload[8..16].try_into().unwrap()),
            count: u32::from_le_bytes(payload[16..20].try_into().unwrap()) as u64,
            json_start: body + 20,
            json_end: body + len,
        });
        off = body + len;
    }
}

fn decode_events(json: &[u8]) -> io::Result<Vec<AnomalyEvent>> {
    let text = std::str::from_utf8(json)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "segment block is not UTF-8"))?;
    serde_json::from_str::<Vec<AnomalyEvent>>(text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("segment block JSON: {e}")))
}

/// `true` when `path` is `prefix` itself or below it in the hierarchy
/// (the same subtree rule the RAM store's `PREFIX` queries apply).
fn under_prefix(path: &str, prefix: &str) -> bool {
    path == prefix
        || (path.len() > prefix.len()
            && path.starts_with(prefix)
            && path.as_bytes()[prefix.len()] == b'/')
}

impl SegmentStore {
    /// Opens (creating if needed) the segment directory: every frame's
    /// CRC is verified, a torn tail left by a crash mid-spill is
    /// truncated away, and missing or stale `.idx` sidecars are rebuilt
    /// from the log bodies.
    pub fn open(dir: &Path, segment_bytes: u64) -> io::Result<SegmentStore> {
        fs::create_dir_all(dir)?;
        let mut names = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if let Some(first) = entry.file_name().to_str().and_then(parse_log_name) {
                names.push((first, entry.path()));
            }
        }
        names.sort_unstable();
        let mut inner = SegInner::default();
        for (_first_seq, path) in names {
            let mut raw = Vec::new();
            File::open(&path)?.read_to_end(&mut raw)?;
            let (frames, valid_len) = scan_log(&raw);
            if valid_len < raw.len() as u64 {
                // Torn spill tail: the evicting store kept those events
                // in RAM (spill errors never free), so dropping the
                // tail loses nothing that was promised durable.
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(valid_len)?;
                f.sync_all()?;
            }
            if frames.is_empty() {
                fs::remove_file(&path)?;
                let _ = fs::remove_file(idx_path(&path));
                continue;
            }
            let blocks = load_or_rebuild_idx(&path, &raw, &frames)?;
            inner.bytes += valid_len;
            inner.next_seq = inner.next_seq.max(blocks.last().map_or(0, |b| b.first_seq + b.count));
            inner.files.push(SegFile { path, len: valid_len, blocks });
        }
        sync_dir(dir);
        Ok(SegmentStore {
            dir: dir.to_path_buf(),
            segment_bytes: segment_bytes.max(1),
            inner: RwLock::new(inner),
            t_spill: OnceLock::new(),
        })
    }

    /// Attaches a spill-latency histogram (each non-empty [`Self::spill`]
    /// call observes its whole duration, fsync included). First call
    /// wins; later calls are no-ops.
    pub fn set_telemetry(&self, spill: Arc<Histogram>) {
        let _ = self.t_spill.set(spill);
    }

    /// Archives an evicted, `(unit, path)`-ordered event run whose
    /// first event sits at store sequence `first_seq`. Already archived
    /// sequences (below the tier's `next_seq`) are skipped, making
    /// replayed evictions idempotent. Returns the number of events
    /// newly written; the data is fsynced before this returns.
    pub fn spill(&self, first_seq: u64, events: &[AnomalyEvent]) -> io::Result<usize> {
        let t0 = self.t_spill.get().map(|_| Instant::now());
        let result = self.spill_inner(first_seq, events);
        if let (Some(t0), Some(hist)) = (t0, self.t_spill.get()) {
            // An all-skipped (idempotent replay) spill is a no-op and
            // would only skew the latency profile downwards.
            if !matches!(result, Ok(0)) {
                hist.record_duration(t0.elapsed());
            }
        }
        result
    }

    fn spill_inner(&self, first_seq: u64, events: &[AnomalyEvent]) -> io::Result<usize> {
        let mut inner = self.inner.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        let skip = inner.next_seq.saturating_sub(first_seq).min(events.len() as u64) as usize;
        let events = &events[skip..];
        let first_seq = first_seq + skip as u64;
        if events.is_empty() {
            return Ok(0);
        }
        // One frame per unit: split the run at unit boundaries.
        let mut groups: Vec<(u64, u64, &[AnomalyEvent])> = Vec::new();
        let mut start = 0usize;
        for i in 1..=events.len() {
            if i == events.len() || events[i].unit != events[start].unit {
                groups.push((events[start].unit, first_seq + start as u64, &events[start..i]));
                start = i;
            }
        }
        // Pick the write target: the newest file while it has budget,
        // else a fresh one named after the run's first sequence.
        let rotate = inner.files.last().is_none_or(|f| f.len >= self.segment_bytes);
        if rotate {
            let path = self.dir.join(log_name(first_seq));
            File::create(&path)?.sync_all()?;
            sync_dir(&self.dir);
            inner.files.push(SegFile { path, len: 0, blocks: Vec::new() });
        }
        let file = inner.files.last_mut().expect("write target exists");
        let mut handle = OpenOptions::new().append(true).open(&file.path)?;
        let mut written = 0u64;
        for (unit, seq, group) in &groups {
            let json = serde_json::to_string(*group)
                .map_err(|e| io::Error::other(format!("event serialisation: {e}")))?;
            let mut payload = Vec::with_capacity(20 + json.len());
            payload.extend_from_slice(&unit.to_le_bytes());
            payload.extend_from_slice(&seq.to_le_bytes());
            payload.extend_from_slice(&(group.len() as u32).to_le_bytes());
            payload.extend_from_slice(json.as_bytes());
            let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES as usize + payload.len());
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&crc32(&payload).to_le_bytes());
            frame.extend_from_slice(&payload);
            handle.write_all(&frame)?;
            let mut paths: Vec<String> = group.iter().map(|e| e.path.to_string()).collect();
            paths.dedup(); // (unit, path) order ⇒ duplicates adjacent
            file.blocks.push(BlockMeta {
                off: file.len + written,
                len: frame.len() as u64,
                unit: *unit,
                first_seq: *seq,
                count: group.len() as u64,
                paths,
            });
            written += frame.len() as u64;
        }
        handle.sync_all()?;
        file.len += written;
        // The sidecar is a rebuildable cache: persist best-effort.
        let _ = write_idx(&file.path, &file.blocks);
        inner.bytes += written;
        inner.next_seq = first_seq + events.len() as u64;
        Ok(events.len())
    }

    /// Queries the archived history: events with `unit` in
    /// `[from, to]`, optionally restricted to a category subtree and an
    /// exact level, capped at `limit`. Blocks are pruned by the
    /// persisted unit tags and path postings before any JSON decode.
    pub fn query(
        &self,
        from: u64,
        to: u64,
        prefix: Option<&str>,
        level: Option<usize>,
        limit: usize,
    ) -> io::Result<Vec<AnomalyEvent>> {
        let inner = self.inner.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out = Vec::new();
        'files: for file in &inner.files {
            for block in &file.blocks {
                if block.unit < from || block.unit > to {
                    continue;
                }
                if let Some(p) = prefix {
                    if !block.paths.iter().any(|bp| under_prefix(bp, p)) {
                        continue;
                    }
                }
                for e in read_block(&file.path, block)? {
                    if let Some(p) = prefix {
                        if !under_prefix(&e.path.to_string(), p) {
                            continue;
                        }
                    }
                    if level.is_some_and(|l| e.level != l) {
                        continue;
                    }
                    out.push(e);
                    if out.len() >= limit {
                        break 'files;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Reads up to `max` archived events starting at store sequence
    /// `seq` (skipping forward if `seq` predates the archive). Returns
    /// the actual starting sequence and the events — the
    /// `SUBSCRIBE FROM` replay path for history the RAM store already
    /// evicted. Empty when `seq` is at or past the archived horizon.
    pub fn read_from_seq(&self, seq: u64, max: usize) -> io::Result<(u64, Vec<AnomalyEvent>)> {
        let inner = self.inner.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut out = Vec::new();
        let mut start = None;
        'files: for file in &inner.files {
            for block in &file.blocks {
                if block.first_seq + block.count <= seq {
                    continue;
                }
                let events = read_block(&file.path, block)?;
                let skip = seq.saturating_sub(block.first_seq) as usize;
                for (i, e) in events.into_iter().enumerate().skip(skip) {
                    start.get_or_insert(block.first_seq + i as u64);
                    out.push(e);
                    if out.len() >= max {
                        break 'files;
                    }
                }
            }
        }
        Ok((start.unwrap_or(seq), out))
    }

    /// The oldest archived timeunit (`None` = empty archive).
    pub fn first_unit(&self) -> Option<u64> {
        let inner = self.inner.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.files.first().and_then(|f| f.blocks.first()).map(|b| b.unit)
    }

    /// One past the highest archived store sequence (0 = empty).
    pub fn next_seq(&self) -> u64 {
        self.inner.read().unwrap_or_else(std::sync::PoisonError::into_inner).next_seq
    }

    /// Segment files on disk.
    pub fn file_count(&self) -> usize {
        self.inner.read().unwrap_or_else(std::sync::PoisonError::into_inner).files.len()
    }

    /// Archived unit blocks (each evicted unit is exactly one block).
    pub fn block_count(&self) -> usize {
        let inner = self.inner.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.files.iter().map(|f| f.blocks.len()).sum()
    }

    /// Total log bytes on disk.
    pub fn bytes(&self) -> u64 {
        self.inner.read().unwrap_or_else(std::sync::PoisonError::into_inner).bytes
    }
}

/// Reads and CRC-verifies one block's events.
fn read_block(path: &Path, block: &BlockMeta) -> io::Result<Vec<AnomalyEvent>> {
    let mut f = File::open(path)?;
    f.seek(SeekFrom::Start(block.off))?;
    let mut frame = vec![0u8; block.len as usize];
    f.read_exact(&mut frame)?;
    let crc = u32::from_le_bytes(frame[4..8].try_into().unwrap());
    let payload = &frame[FRAME_HEADER_BYTES as usize..];
    if crc32(payload) != crc {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("segment block at {}:{} failed its CRC", path.display(), block.off),
        ));
    }
    decode_events(&payload[20..])
}

/// Uses the `.idx` sidecar when it matches the scanned log exactly;
/// otherwise rebuilds the metadata (decoding each block's JSON for the
/// path postings) and rewrites the sidecar.
fn load_or_rebuild_idx(
    log: &Path,
    raw: &[u8],
    frames: &[ScannedFrame],
) -> io::Result<Vec<BlockMeta>> {
    let sidecar = idx_path(log);
    if let Ok(text) = fs::read_to_string(&sidecar) {
        if let Ok(idx) = serde_json::from_str::<IdxFile>(&text) {
            let matches = idx.blocks.len() == frames.len()
                && idx.blocks.iter().zip(frames).all(|(b, f)| {
                    b.off == f.off
                        && b.len == f.len
                        && b.unit == f.unit
                        && b.first_seq == f.first_seq
                        && b.count == f.count
                });
            if matches {
                return Ok(idx.blocks);
            }
        }
    }
    let mut blocks = Vec::with_capacity(frames.len());
    for f in frames {
        let events = decode_events(&raw[f.json_start..f.json_end])?;
        let mut paths: Vec<String> = events.iter().map(|e| e.path.to_string()).collect();
        paths.dedup();
        blocks.push(BlockMeta {
            off: f.off,
            len: f.len,
            unit: f.unit,
            first_seq: f.first_seq,
            count: f.count,
            paths,
        });
    }
    let _ = write_idx(log, &blocks);
    Ok(blocks)
}

/// Atomically replaces the `.idx` sidecar (tmp + rename).
fn write_idx(log: &Path, blocks: &[BlockMeta]) -> io::Result<()> {
    let idx = IdxFile { blocks: blocks.to_vec() };
    let json = serde_json::to_string(&idx)
        .map_err(|e| io::Error::other(format!("index serialisation: {e}")))?;
    let path = idx_path(log);
    let tmp = path.with_extension("idx.tmp");
    fs::write(&tmp, json)?;
    fs::rename(&tmp, &path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anomaly::AnomalyKind;
    use crate::fault::FaultFs;
    use crate::testutil::TempDir;

    fn event(unit: u64, path: &str) -> AnomalyEvent {
        AnomalyEvent {
            node: tiresias_hierarchy::Tree::new("All").root(),
            path: path.parse().unwrap(),
            level: path.split('/').count(),
            unit,
            time_secs: unit * 900,
            actual: 50.0,
            forecast: 5.0,
            kind: AnomalyKind::Spike,
        }
    }

    /// Three units' worth of ordered evicted events.
    fn run() -> Vec<AnomalyEvent> {
        vec![
            event(0, "a/x"),
            event(0, "b/y"),
            event(1, "a/x"),
            event(2, "TV/No Service"),
            event(2, "b/y"),
        ]
    }

    #[test]
    fn spill_query_and_reopen_round_trip() {
        let dir = TempDir::new("seg-roundtrip");
        let seg = SegmentStore::open(&dir, 1 << 20).unwrap();
        assert_eq!(seg.spill(0, &run()).unwrap(), 5);
        assert_eq!(seg.next_seq(), 5);
        assert_eq!(seg.block_count(), 3, "one block per unit");
        assert_eq!(seg.first_unit(), Some(0));

        let all = seg.query(0, 10, None, None, 100).unwrap();
        assert_eq!(all, run(), "order and content preserved");
        let ranged = seg.query(1, 2, None, None, 100).unwrap();
        assert_eq!(ranged.len(), 3);
        let pruned = seg.query(0, 10, Some("b"), None, 100).unwrap();
        assert_eq!(pruned.iter().map(|e| e.unit).collect::<Vec<_>>(), vec![0, 2]);
        let leveled = seg.query(0, 10, None, Some(2), 2).unwrap();
        assert_eq!(leveled.len(), 2, "limit respected");
        drop(seg);

        let seg = SegmentStore::open(&dir, 1 << 20).unwrap();
        assert_eq!(seg.next_seq(), 5);
        assert_eq!(seg.query(0, 10, None, None, 100).unwrap(), run());
    }

    #[test]
    fn respills_below_next_seq_are_skipped() {
        let dir = TempDir::new("seg-dedupe");
        let seg = SegmentStore::open(&dir, 1 << 20).unwrap();
        seg.spill(0, &run()).unwrap();
        // A crash-replay re-evicts the same prefix plus one new unit.
        let mut again = run();
        again.push(event(3, "a/x"));
        assert_eq!(seg.spill(0, &again).unwrap(), 1, "only the new event lands");
        assert_eq!(seg.next_seq(), 6);
        assert_eq!(seg.query(0, 10, None, None, 100).unwrap().len(), 6);
    }

    #[test]
    fn rotation_splits_spills_across_files() {
        let dir = TempDir::new("seg-rotate");
        let seg = SegmentStore::open(&dir, 1).unwrap(); // rotate every spill
        seg.spill(0, &run()[0..2]).unwrap();
        seg.spill(2, &run()[2..]).unwrap();
        assert_eq!(seg.file_count(), 2);
        drop(seg);
        let seg = SegmentStore::open(&dir, 1).unwrap();
        assert_eq!(seg.file_count(), 2);
        assert_eq!(seg.query(0, 10, None, None, 100).unwrap(), run());
    }

    #[test]
    fn read_from_seq_replays_the_archive() {
        let dir = TempDir::new("seg-replay");
        let seg = SegmentStore::open(&dir, 1 << 20).unwrap();
        seg.spill(0, &run()).unwrap();
        let (start, events) = seg.read_from_seq(0, 100).unwrap();
        assert_eq!((start, events.len()), (0, 5));
        let (start, events) = seg.read_from_seq(3, 100).unwrap();
        assert_eq!(start, 3);
        assert_eq!(events, run()[3..].to_vec());
        let (start, events) = seg.read_from_seq(2, 2).unwrap();
        assert_eq!((start, events.len()), (2, 2), "max respected");
        let (_, events) = seg.read_from_seq(99, 10).unwrap();
        assert!(events.is_empty(), "past the horizon");
    }

    #[test]
    fn torn_spill_tail_is_truncated_on_open() {
        let dir = TempDir::new("seg-torn");
        let seg = SegmentStore::open(&dir, 1 << 20).unwrap();
        seg.spill(0, &run()).unwrap();
        drop(seg);
        let log = dir.join(log_name(0));
        let frames = FaultFs::frame_offsets(&log).unwrap();
        assert_eq!(frames.len(), 3);
        // Tear mid-way through the last block's frame.
        FaultFs::truncate_at(&log, frames[2].0 + 5).unwrap();
        let seg = SegmentStore::open(&dir, 1 << 20).unwrap();
        assert_eq!(seg.block_count(), 2, "the torn block is gone");
        assert_eq!(seg.next_seq(), 3);
        // The unit-2 events can be spilled again afterwards.
        assert_eq!(seg.spill(0, &run()).unwrap(), 2);
        assert_eq!(seg.query(0, 10, None, None, 100).unwrap(), run());
    }

    #[test]
    fn stale_idx_is_rebuilt_from_the_log() {
        let dir = TempDir::new("seg-idx");
        let seg = SegmentStore::open(&dir, 1 << 20).unwrap();
        seg.spill(0, &run()).unwrap();
        drop(seg);
        let idx = idx_path(&dir.join(log_name(0)));
        fs::write(&idx, "{\"blocks\":[]}").unwrap(); // stale
        let seg = SegmentStore::open(&dir, 1 << 20).unwrap();
        assert_eq!(seg.block_count(), 3, "rebuilt from the log");
        let pruned = seg.query(0, 10, Some("TV"), None, 100).unwrap();
        assert_eq!(pruned, vec![event(2, "TV/No Service")]);
        drop(seg);
        fs::remove_file(&idx).unwrap(); // missing entirely
        let seg = SegmentStore::open(&dir, 1 << 20).unwrap();
        assert_eq!(seg.block_count(), 3);
    }

    #[test]
    fn corrupt_block_fails_its_read_loudly() {
        let dir = TempDir::new("seg-crc");
        let seg = SegmentStore::open(&dir, 1 << 20).unwrap();
        seg.spill(0, &run()).unwrap();
        let log = dir.join(log_name(0));
        let frames = FaultFs::frame_offsets(&log).unwrap();
        // Flip a payload bit *after* open: the startup scan passed, the
        // read must still catch it.
        FaultFs::flip_bit(&log, frames[0].0 + FRAME_HEADER_BYTES + 25, 1).unwrap();
        let err = seg.query(0, 0, None, None, 100).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn prefix_rule_matches_subtrees_not_string_prefixes() {
        assert!(under_prefix("a", "a"));
        assert!(under_prefix("a/b", "a"));
        assert!(under_prefix("a/b/c", "a/b"));
        assert!(!under_prefix("ab", "a"));
        assert!(!under_prefix("a", "a/b"));
    }
}
