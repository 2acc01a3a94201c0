//! Crash-safe write-ahead log of admitted work.
//!
//! Every record batch the live front-end **acknowledges** — and every
//! timeunit close the scheduler performs — is appended here as one
//! length-prefixed, CRC32-guarded frame *before* the acknowledgement
//! becomes observable. Restart therefore replays exactly the acked
//! prefix: `checkpoint + WAL replay = the engine state the clients were
//! promised`.
//!
//! # Frame format
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE] [payload: len bytes]
//! ```
//!
//! `crc32` is the IEEE CRC-32 of the payload. The payload starts with a
//! kind byte:
//!
//! * `0x01` **Batch** — `seq: u64 LE`, `count: u32 LE`, then per
//!   record `t_secs: u64 LE`, `path_len: u16 LE`, `path: UTF-8 bytes`.
//! * `0x02` **Close** — `seq: u64 LE`, `target_unit: u64 LE` (the
//!   `close_to` argument: close every unit `< target`).
//!
//! Sequence numbers start at 1 and increase by one per frame, across
//! segment rotations; a gap or regression is treated as corruption.
//!
//! # Ordering contract
//!
//! Batch frames are appended while the admission path still holds the
//! front-end's **read gate**, and close frames while `close_to` holds
//! the **write gate** — so the log order is consistent with the
//! watermark-flip order the engine actually executed, and replaying
//! the frames through a live engine reproduces the same late/ahead
//! classification, the same unit placement and the same anomalies.
//!
//! # Recovery
//!
//! [`Wal::open`] scans the `wal-<first_seq>.log` segments in order and
//! stops at the first frame whose length, CRC or sequence number does
//! not check out: the file is truncated at that offset and any later
//! segment files are deleted. A torn tail write (the expected artifact
//! of `kill -9` mid-append) therefore costs at most the frames that
//! were never durably acknowledged — it is tolerated, not fatal.
//!
//! # Sync policy
//!
//! [`WalSyncPolicy`] trades acked throughput against the data-loss
//! window: `every` fsyncs per appended frame (no acked record is ever
//! lost), `interval:<ms>` fsyncs at most that often plus on every
//! rotation (bounded loss window), `none` leaves flushing to the OS.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use tiresias_telemetry::Histogram;

/// Frame kind byte of a batch frame.
const KIND_BATCH: u8 = 0x01;
/// Frame kind byte of a close frame.
const KIND_CLOSE: u8 = 0x02;
/// Byte length of a frame header (`len` + `crc`).
pub const FRAME_HEADER_BYTES: u64 = 8;
/// Upper bound on a single frame payload; anything larger is treated
/// as corruption during recovery (a real batch frame is bounded by the
/// server's flush size, far below this).
const MAX_FRAME_BYTES: u32 = 64 << 20;

/// Longest category path a batch frame can hold: the record block's
/// length field is a `u16`. [`crate::RecordBatch`] refuses longer
/// paths where they enter, so [`encode_record`] never has to cut one.
pub const MAX_PATH_BYTES: usize = u16::MAX as usize;

/// The CRC-32 lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC-32 (the zlib/PNG polynomial), table-driven — the one
/// checksum of the WAL, the segment tier and wire protocol v2.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// When the WAL flushes appended frames to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalSyncPolicy {
    /// `fsync` after every appended frame: an acknowledged record is
    /// never lost, at the cost of one disk flush per batch.
    EveryBatch,
    /// `fsync` at most once per interval (and on segment rotation):
    /// bounded data-loss window, near-`none` throughput.
    Interval(Duration),
    /// Never `fsync` explicitly; the OS flushes when it pleases.
    Never,
}

impl WalSyncPolicy {
    /// Default flush interval of the `interval` policy.
    pub const DEFAULT_INTERVAL: Duration = Duration::from_millis(200);
}

impl std::str::FromStr for WalSyncPolicy {
    type Err = String;

    /// Parses the CLI spelling: `every`, `none`, `interval` or
    /// `interval:<ms>`.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "every" => Ok(WalSyncPolicy::EveryBatch),
            "none" => Ok(WalSyncPolicy::Never),
            "interval" => Ok(WalSyncPolicy::Interval(Self::DEFAULT_INTERVAL)),
            other => match other.strip_prefix("interval:") {
                Some(ms) => ms
                    .parse::<u64>()
                    .map(|ms| WalSyncPolicy::Interval(Duration::from_millis(ms)))
                    .map_err(|_| format!("invalid interval `{ms}` (milliseconds expected)")),
                None => {
                    Err(format!("unknown sync policy `{other}` (every | interval[:ms] | none)"))
                }
            },
        }
    }
}

impl std::fmt::Display for WalSyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalSyncPolicy::EveryBatch => write!(f, "every"),
            WalSyncPolicy::Interval(d) => write!(f, "interval:{}", d.as_millis()),
            WalSyncPolicy::Never => write!(f, "none"),
        }
    }
}

/// One recovered (or dumped) WAL frame.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEntry {
    /// An acknowledged record batch, in admission order.
    Batch {
        /// Frame sequence number.
        seq: u64,
        /// The acked records: `(category path, timestamp seconds)`.
        records: Vec<(String, u64)>,
    },
    /// A timeunit close the scheduler performed.
    Close {
        /// Frame sequence number.
        seq: u64,
        /// The `close_to` target: every unit `< target` closed.
        target: u64,
    },
}

impl WalEntry {
    /// The frame's sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            WalEntry::Batch { seq, .. } | WalEntry::Close { seq, .. } => *seq,
        }
    }
}

/// What [`Wal::open`] found on disk: the intact frame prefix plus an
/// account of any torn tail it repaired.
#[derive(Debug, Default)]
pub struct WalRecovery {
    /// Every intact frame, in log order.
    pub entries: Vec<WalEntry>,
    /// Bytes truncated off the first corrupt frame's file (0 = clean).
    pub torn_bytes: u64,
    /// The file that carried the corruption, if any.
    pub corrupt_file: Option<PathBuf>,
    /// Segment files deleted because they followed the corruption.
    pub dropped_files: usize,
}

impl WalRecovery {
    /// Highest intact sequence number (0 = empty log).
    pub fn last_seq(&self) -> u64 {
        self.entries.last().map_or(0, WalEntry::seq)
    }

    /// True when recovery repaired a torn tail or dropped files.
    pub fn repaired(&self) -> bool {
        self.corrupt_file.is_some()
    }
}

/// Mutable tail state, guarded by one mutex: append-side only — the
/// hot admission path takes it briefly per *batch*, never per record.
#[derive(Debug)]
struct WalInner {
    file: File,
    /// Bytes written to the current segment file.
    segment_len: u64,
    /// First sequence number of the current segment (names the file).
    segment_first_seq: u64,
    /// Next frame sequence number to assign.
    next_seq: u64,
    /// Last explicit fsync, for the interval policy.
    last_sync: Instant,
    /// Frames appended since the last fsync.
    dirty: bool,
    /// The frame being assembled, recycled across appends.
    frame: Vec<u8>,
}

/// The append-only write-ahead log. Cheap to share (`Arc<Wal>`);
/// appends serialize on an internal mutex, counters are atomic.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    policy: WalSyncPolicy,
    /// Rotate to a fresh segment file once the current one exceeds
    /// this many bytes.
    segment_bytes: u64,
    inner: Mutex<WalInner>,
    /// Total frame bytes on disk across segments (seeded from the
    /// existing files at open, then grown per append).
    bytes: AtomicU64,
    /// Explicit fsyncs performed.
    fsyncs: AtomicU64,
    /// Highest sequence number appended (0 = nothing yet).
    last_seq: AtomicU64,
    /// Segment files created over the log's lifetime that still exist.
    segments: AtomicU64,
    /// While true, appends are no-ops: set during startup replay so
    /// re-admitting recovered frames does not duplicate them.
    replaying: AtomicBool,
    /// Append-latency histogram (whole frame, including any inline
    /// policy fsync), set once by [`Wal::set_telemetry`]. Unset =
    /// untelemetered: the append path pays nothing.
    t_append: OnceLock<Arc<Histogram>>,
    /// Fsync-latency histogram (every explicit `sync_all`, wherever it
    /// happens: per-batch policy, interval tick, rotation, shutdown).
    t_fsync: OnceLock<Arc<Histogram>>,
}

/// Default WAL segment rotation threshold.
pub const DEFAULT_WAL_SEGMENT_BYTES: u64 = 64 << 20;

fn segment_name(first_seq: u64) -> String {
    format!("wal-{first_seq:016x}.log")
}

/// Parses `wal-<hex>.log` back into its first sequence number.
fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    u64::from_str_radix(hex, 16).ok()
}

/// Best-effort directory fsync so file creations/renames survive a
/// crash (ignored on filesystems that refuse to sync directories).
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// The WAL segment files under `dir`, sorted by first sequence number.
fn segment_files(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(first) = entry.file_name().to_str().and_then(parse_segment_name) {
            files.push((first, entry.path()));
        }
    }
    files.sort_unstable();
    Ok(files)
}

/// Scans one segment file, appending intact frames to `entries`.
/// Returns `Ok(len)` when the whole file checks out, or
/// `Err(valid_prefix_len)` at the first corrupt frame.
fn scan_segment(
    path: &Path,
    expect_seq: &mut u64,
    entries: &mut Vec<WalEntry>,
) -> io::Result<Result<u64, u64>> {
    let mut raw = Vec::new();
    File::open(path)?.read_to_end(&mut raw)?;
    let mut off = 0usize;
    loop {
        if off == raw.len() {
            return Ok(Ok(off as u64));
        }
        if raw.len() - off < FRAME_HEADER_BYTES as usize {
            return Ok(Err(off as u64));
        }
        let len = u32::from_le_bytes(raw[off..off + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(raw[off + 4..off + 8].try_into().unwrap());
        let body_start = off + FRAME_HEADER_BYTES as usize;
        if len > MAX_FRAME_BYTES || raw.len() - body_start < len as usize {
            return Ok(Err(off as u64));
        }
        let payload = &raw[body_start..body_start + len as usize];
        if crc32(payload) != crc {
            return Ok(Err(off as u64));
        }
        match decode_payload(payload) {
            Some(entry) if entry.seq() == *expect_seq => {
                *expect_seq += 1;
                entries.push(entry);
                off = body_start + len as usize;
            }
            _ => return Ok(Err(off as u64)),
        }
    }
}

/// Decodes one CRC-verified frame payload; `None` = structurally bad.
fn decode_payload(payload: &[u8]) -> Option<WalEntry> {
    let (&kind, rest) = payload.split_first()?;
    let read_u64 = |b: &[u8], at: usize| -> Option<u64> {
        Some(u64::from_le_bytes(b.get(at..at + 8)?.try_into().ok()?))
    };
    match kind {
        KIND_BATCH => {
            let seq = read_u64(rest, 0)?;
            let count = u32::from_le_bytes(rest.get(8..12)?.try_into().ok()?) as usize;
            let mut records = Vec::with_capacity(count);
            let mut at = 12usize;
            for _ in 0..count {
                let t = read_u64(rest, at)?;
                let path_len =
                    u16::from_le_bytes(rest.get(at + 8..at + 10)?.try_into().ok()?) as usize;
                let path = rest.get(at + 10..at + 10 + path_len)?;
                records.push((String::from_utf8(path.to_vec()).ok()?, t));
                at += 10 + path_len;
            }
            (at == rest.len()).then_some(WalEntry::Batch { seq, records })
        }
        KIND_CLOSE => {
            let seq = read_u64(rest, 0)?;
            let target = read_u64(rest, 8)?;
            (rest.len() == 16).then_some(WalEntry::Close { seq, target })
        }
        _ => None,
    }
}

/// Reads a WAL directory without repairing it: the intact frame prefix
/// plus the torn-tail report, files untouched. This is what
/// `tiresias wal-dump` uses.
pub fn read_wal(dir: &Path) -> io::Result<WalRecovery> {
    scan_dir(dir, false)
}

fn scan_dir(dir: &Path, repair: bool) -> io::Result<WalRecovery> {
    let mut recovery = WalRecovery::default();
    let files = segment_files(dir)?;
    let mut expect_seq = match files.first() {
        Some(&(first, _)) => first,
        None => return Ok(recovery),
    };
    for (i, (first, path)) in files.iter().enumerate() {
        // A segment must start where the previous one ended; a gap
        // means the tail files are from a lost future — drop them.
        let boundary_ok = *first == expect_seq;
        let scan = if boundary_ok {
            scan_segment(path, &mut expect_seq, &mut recovery.entries)?
        } else {
            Err(0)
        };
        match scan {
            Ok(_) => {}
            Err(valid_len) => {
                let total = fs::metadata(path)?.len();
                recovery.torn_bytes = total - valid_len;
                recovery.corrupt_file = Some(path.clone());
                recovery.dropped_files = files.len() - i - 1;
                if repair {
                    if valid_len == 0 && !boundary_ok {
                        fs::remove_file(path)?;
                    } else {
                        let f = OpenOptions::new().write(true).open(path)?;
                        f.set_len(valid_len)?;
                        f.sync_all()?;
                    }
                    for (_, later) in &files[i + 1..] {
                        fs::remove_file(later)?;
                    }
                    sync_dir(dir);
                }
                break;
            }
        }
    }
    Ok(recovery)
}

impl Wal {
    /// Opens (creating if needed) the WAL under `dir`, repairing any
    /// torn tail, and returns the log handle plus everything intact on
    /// disk for replay. New appends continue after the last intact
    /// frame.
    pub fn open(
        dir: &Path,
        policy: WalSyncPolicy,
        segment_bytes: u64,
    ) -> io::Result<(Wal, WalRecovery)> {
        fs::create_dir_all(dir)?;
        let recovery = scan_dir(dir, true)?;
        let next_seq = recovery.last_seq() + 1;
        let files = segment_files(dir)?;
        let (segment_first_seq, path, fresh) = match files.last() {
            Some((first, path)) => (*first, path.clone(), false),
            None => (next_seq, dir.join(segment_name(next_seq)), true),
        };
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        if fresh {
            sync_dir(dir);
        }
        let segment_len = file.seek(SeekFrom::End(0))?;
        let mut on_disk = 0u64;
        for (_, path) in &files {
            on_disk += fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        }
        let wal = Wal {
            dir: dir.to_path_buf(),
            policy,
            segment_bytes: segment_bytes.max(1),
            inner: Mutex::new(WalInner {
                file,
                segment_len,
                segment_first_seq,
                next_seq,
                last_sync: Instant::now(),
                dirty: false,
                frame: Vec::new(),
            }),
            bytes: AtomicU64::new(on_disk),
            fsyncs: AtomicU64::new(0),
            last_seq: AtomicU64::new(next_seq - 1),
            segments: AtomicU64::new(files.len().max(1) as u64),
            replaying: AtomicBool::new(false),
            t_append: OnceLock::new(),
            t_fsync: OnceLock::new(),
        };
        Ok((wal, recovery))
    }

    /// While `true`, every append is a silent no-op — set around the
    /// startup replay so re-admitting recovered frames through the live
    /// engine does not write them a second time.
    pub fn set_replaying(&self, on: bool) {
        self.replaying.store(on, Ordering::SeqCst);
    }

    /// Attaches latency histograms to the log: `append` observes every
    /// frame append (including any policy-driven inline fsync),
    /// `fsync` every explicit flush. First call wins; later calls are
    /// no-ops — the log is shared by `Arc` and instrumented once by
    /// whoever assembles the telemetry registry.
    pub fn set_telemetry(&self, append: Arc<Histogram>, fsync: Arc<Histogram>) {
        let _ = self.t_append.set(append);
        let _ = self.t_fsync.set(fsync);
    }

    /// Appends one batch frame from pre-encoded record bytes (the
    /// admission path encodes records while classifying them, then
    /// logs with a single call). `records` is the concatenation of
    /// `t: u64 LE, path_len: u16 LE, path bytes` blocks. Returns the
    /// frame's sequence number (0 while replaying).
    pub fn append_batch_raw(&self, records: &[u8], count: u32) -> io::Result<u64> {
        if self.replaying.load(Ordering::SeqCst) {
            return Ok(0);
        }
        let mut inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let seq = inner.next_seq;
        let mut frame = begin_frame(&mut inner, KIND_BATCH, seq);
        frame.extend_from_slice(&count.to_le_bytes());
        frame.extend_from_slice(records);
        self.append_frame(&mut inner, frame)?;
        Ok(seq)
    }

    /// Appends one batch of `(path, t_secs)` records (convenience for
    /// tests and recovery tooling; the server path uses
    /// [`Wal::append_batch_raw`]).
    ///
    /// # Errors
    ///
    /// Besides I/O failures, refuses (`InvalidInput`, nothing written)
    /// a batch holding a path longer than [`MAX_PATH_BYTES`].
    pub fn append_batch(&self, records: &[(String, u64)]) -> io::Result<u64> {
        if let Some((path, _)) = records.iter().find(|(path, _)| path.len() > MAX_PATH_BYTES) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("category path of {} bytes exceeds {MAX_PATH_BYTES}", path.len()),
            ));
        }
        let mut buf = Vec::new();
        for (path, t) in records {
            encode_record(&mut buf, path, *t);
        }
        self.append_batch_raw(&buf, records.len() as u32)
    }

    /// Appends one close frame (`close_to(target)` is about to flip the
    /// watermark). Returns the frame's sequence number (0 while
    /// replaying).
    pub fn append_close(&self, target: u64) -> io::Result<u64> {
        if self.replaying.load(Ordering::SeqCst) {
            return Ok(0);
        }
        let mut inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let seq = inner.next_seq;
        let mut frame = begin_frame(&mut inner, KIND_CLOSE, seq);
        frame.extend_from_slice(&target.to_le_bytes());
        self.append_frame(&mut inner, frame)?;
        Ok(seq)
    }

    /// Seals `frame` (header space + payload, from [`begin_frame`]) and
    /// appends it, handing the buffer back to `inner` for the next one.
    fn append_frame(&self, inner: &mut WalInner, mut frame: Vec<u8>) -> io::Result<()> {
        let t0 = self.t_append.get().map(|_| Instant::now());
        let result = self.append_frame_inner(inner, &mut frame);
        inner.frame = frame;
        if let (Some(t0), Some(hist)) = (t0, self.t_append.get()) {
            hist.record_duration(t0.elapsed());
        }
        result
    }

    fn append_frame_inner(&self, inner: &mut WalInner, frame: &mut [u8]) -> io::Result<()> {
        if inner.segment_len >= self.segment_bytes {
            self.rotate(inner)?;
        }
        // The payload was written once, behind the reserved header;
        // length and CRC are patched in place.
        let (header, payload) = frame.split_at_mut(FRAME_HEADER_BYTES as usize);
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&len| len <= MAX_FRAME_BYTES)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "WAL frame too large"))?;
        header[..4].copy_from_slice(&len.to_le_bytes());
        header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        inner.file.write_all(frame)?;
        inner.segment_len += frame.len() as u64;
        inner.dirty = true;
        self.bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.last_seq.store(inner.next_seq, Ordering::SeqCst);
        inner.next_seq += 1;
        match self.policy {
            WalSyncPolicy::EveryBatch => self.sync(inner)?,
            WalSyncPolicy::Interval(d) => {
                if inner.last_sync.elapsed() >= d {
                    self.sync(inner)?;
                }
            }
            WalSyncPolicy::Never => {}
        }
        Ok(())
    }

    /// Closes the current segment (flushed durably regardless of
    /// policy — rotation is rare) and starts `wal-<next_seq>.log`.
    fn rotate(&self, inner: &mut WalInner) -> io::Result<()> {
        self.timed_sync_all(inner)?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        let first = inner.next_seq;
        let path = self.dir.join(segment_name(first));
        inner.file = OpenOptions::new().create(true).append(true).open(&path)?;
        sync_dir(&self.dir);
        inner.segment_first_seq = first;
        inner.segment_len = 0;
        inner.last_sync = Instant::now();
        inner.dirty = false;
        self.segments.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn sync(&self, inner: &mut WalInner) -> io::Result<()> {
        self.timed_sync_all(inner)?;
        inner.last_sync = Instant::now();
        inner.dirty = false;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// `sync_all` with the fsync histogram around it (when attached).
    fn timed_sync_all(&self, inner: &mut WalInner) -> io::Result<()> {
        match self.t_fsync.get() {
            Some(hist) => {
                let t0 = Instant::now();
                let result = inner.file.sync_all();
                hist.record_duration(t0.elapsed());
                result
            }
            None => inner.file.sync_all(),
        }
    }

    /// Interval-policy housekeeping: flushes pending frames if the
    /// interval elapsed. The server's scheduler calls this every tick
    /// so a quiet log still hits its loss-window bound.
    pub fn maybe_sync(&self) -> io::Result<()> {
        if let WalSyncPolicy::Interval(d) = self.policy {
            let mut inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if inner.dirty && inner.last_sync.elapsed() >= d {
                self.sync(&mut inner)?;
            }
        }
        Ok(())
    }

    /// Flushes everything to stable storage regardless of policy.
    pub fn sync_now(&self) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if inner.dirty {
            self.sync(&mut inner)?;
        }
        Ok(())
    }

    /// Drops WAL segments whose every frame is `≤ upto` — they are
    /// covered by a durably saved checkpoint. The live tail segment is
    /// reset (deleted and recreated empty) when fully consumed.
    pub fn truncate_consumed(&self, upto: u64) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let files = segment_files(&self.dir)?;
        let mut removed = 0u64;
        for window in files.windows(2) {
            let (_, ref path) = window[0];
            let (next_first, _) = window[1];
            // This segment's last frame is next_first - 1.
            if next_first <= upto + 1 {
                fs::remove_file(path)?;
                removed += 1;
            } else {
                break;
            }
        }
        if inner.next_seq <= upto + 1 && inner.segment_len > 0 {
            // The tail itself is fully consumed: restart it empty.
            let old = self.dir.join(segment_name(inner.segment_first_seq));
            let first = inner.next_seq;
            let path = self.dir.join(segment_name(first));
            fs::remove_file(&old)?;
            inner.file = OpenOptions::new().create(true).append(true).open(&path)?;
            inner.segment_first_seq = first;
            inner.segment_len = 0;
            inner.dirty = false;
        }
        sync_dir(&self.dir);
        self.segments.fetch_sub(removed, Ordering::Relaxed);
        Ok(())
    }

    /// Total frame bytes appended by this handle.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Explicit fsyncs performed by this handle.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// Highest sequence number ever appended (0 = empty log).
    pub fn last_seq(&self) -> u64 {
        self.last_seq.load(Ordering::SeqCst)
    }

    /// Live WAL segment files.
    pub fn segment_count(&self) -> u64 {
        self.segments.load(Ordering::Relaxed)
    }

    /// The configured sync policy.
    pub fn policy(&self) -> WalSyncPolicy {
        self.policy
    }
}

/// Starts a frame in `inner`'s recycled buffer: the reserved header
/// bytes, then the payload's kind byte and sequence number.
fn begin_frame(inner: &mut WalInner, kind: u8, seq: u64) -> Vec<u8> {
    let mut frame = std::mem::take(&mut inner.frame);
    frame.clear();
    frame.extend_from_slice(&[0u8; FRAME_HEADER_BYTES as usize]);
    frame.push(kind);
    frame.extend_from_slice(&seq.to_le_bytes());
    frame
}

/// Encodes one record as the batch-frame body block
/// (`t: u64 LE, path_len: u16 LE, path bytes`). The admission path
/// calls this while classifying records so logging is one append.
///
/// # Panics
///
/// Panics if `path` is longer than [`MAX_PATH_BYTES`]. Every way into
/// the engine refuses such a path first ([`crate::RecordBatch`], the
/// wire parsers' 4 KiB cap), so the log can never hold a different
/// path than the one that was acknowledged.
pub fn encode_record(buf: &mut Vec<u8>, path: &str, t_secs: u64) {
    let len = u16::try_from(path.len()).expect("paths are capped at MAX_PATH_BYTES on entry");
    buf.extend_from_slice(&t_secs.to_le_bytes());
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(path.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultFs;
    use crate::testutil::TempDir;

    fn batch(records: &[(&str, u64)]) -> Vec<(String, u64)> {
        records.iter().map(|(p, t)| (p.to_string(), *t)).collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn sync_policy_parses_and_displays() {
        let parse = |s: &str| s.parse::<WalSyncPolicy>();
        assert_eq!(parse("every").unwrap(), WalSyncPolicy::EveryBatch);
        assert_eq!(parse("none").unwrap(), WalSyncPolicy::Never);
        assert_eq!(
            parse("interval").unwrap(),
            WalSyncPolicy::Interval(WalSyncPolicy::DEFAULT_INTERVAL)
        );
        assert_eq!(
            parse("interval:50").unwrap(),
            WalSyncPolicy::Interval(Duration::from_millis(50))
        );
        assert!(parse("interval:x").is_err());
        assert!(parse("sometimes").is_err());
        assert_eq!(parse("interval:50").unwrap().to_string(), "interval:50");
        assert_eq!(WalSyncPolicy::EveryBatch.to_string(), "every");
    }

    #[test]
    fn round_trips_batches_and_closes() {
        let dir = TempDir::new("wal-roundtrip");
        let (wal, rec) = Wal::open(&dir, WalSyncPolicy::EveryBatch, 1 << 20).unwrap();
        assert!(rec.entries.is_empty());
        assert_eq!(wal.append_batch(&batch(&[("a/x", 5), ("b/y", 7)])).unwrap(), 1);
        assert_eq!(wal.append_close(1).unwrap(), 2);
        assert_eq!(wal.append_batch(&batch(&[("TV/No Service", 900)])).unwrap(), 3);
        assert_eq!(wal.last_seq(), 3);
        assert!(wal.fsyncs() >= 3, "every-batch policy fsyncs per frame");
        drop(wal);

        let (wal, rec) = Wal::open(&dir, WalSyncPolicy::EveryBatch, 1 << 20).unwrap();
        assert!(!rec.repaired());
        assert_eq!(
            rec.entries,
            vec![
                WalEntry::Batch { seq: 1, records: batch(&[("a/x", 5), ("b/y", 7)]) },
                WalEntry::Close { seq: 2, target: 1 },
                WalEntry::Batch { seq: 3, records: batch(&[("TV/No Service", 900)]) },
            ]
        );
        // Appends continue the sequence.
        assert_eq!(wal.append_close(2).unwrap(), 4);
    }

    #[test]
    fn rotates_segments_and_recovers_across_them() {
        let dir = TempDir::new("wal-rotate");
        // Tiny segment budget: every frame rotates.
        let (wal, _) = Wal::open(&dir, WalSyncPolicy::Never, 8).unwrap();
        for i in 0..5u64 {
            wal.append_batch(&batch(&[("cat/x", i * 10)])).unwrap();
        }
        assert!(wal.segment_count() >= 4, "rotated: {}", wal.segment_count());
        drop(wal);
        let (_, rec) = Wal::open(&dir, WalSyncPolicy::Never, 8).unwrap();
        assert_eq!(rec.entries.len(), 5);
        assert_eq!(rec.last_seq(), 5);
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = TempDir::new("wal-torn");
        let (wal, _) = Wal::open(&dir, WalSyncPolicy::EveryBatch, 1 << 20).unwrap();
        wal.append_batch(&batch(&[("a/x", 1)])).unwrap();
        wal.append_batch(&batch(&[("a/y", 2)])).unwrap();
        drop(wal);
        let file = segment_files(&dir).unwrap()[0].1.clone();
        let full = fs::metadata(&file).unwrap().len();
        // Tear the last frame mid-payload, as a crash mid-write would.
        FaultFs::truncate_at(&file, full - 3).unwrap();

        let (wal, rec) = Wal::open(&dir, WalSyncPolicy::EveryBatch, 1 << 20).unwrap();
        assert!(rec.repaired());
        assert_eq!(rec.entries.len(), 1, "only the intact frame survives");
        assert!(rec.torn_bytes > 0, "torn bytes accounted: {rec:?}");
        assert_eq!(rec.corrupt_file.as_deref(), Some(file.as_path()));
        // The log continues from the surviving prefix.
        assert_eq!(wal.append_batch(&batch(&[("a/z", 3)])).unwrap(), 2);
        drop(wal);
        let (_, rec) = Wal::open(&dir, WalSyncPolicy::EveryBatch, 1 << 20).unwrap();
        assert_eq!(rec.entries.len(), 2);
        assert!(!rec.repaired());
    }

    #[test]
    fn bit_flip_truncates_at_corrupt_frame() {
        let dir = TempDir::new("wal-flip");
        let (wal, _) = Wal::open(&dir, WalSyncPolicy::EveryBatch, 1 << 20).unwrap();
        wal.append_batch(&batch(&[("a/x", 1)])).unwrap();
        wal.append_batch(&batch(&[("a/y", 2)])).unwrap();
        wal.append_batch(&batch(&[("a/z", 3)])).unwrap();
        drop(wal);
        let file = segment_files(&dir).unwrap()[0].1.clone();
        let frames = FaultFs::frame_offsets(&file).unwrap();
        assert_eq!(frames.len(), 3);
        // Corrupt the second frame's payload: frames 2 and 3 are lost,
        // frame 1 survives.
        FaultFs::flip_bit(&file, frames[1].0 + FRAME_HEADER_BYTES + 2, 4).unwrap();
        let (_, rec) = Wal::open(&dir, WalSyncPolicy::EveryBatch, 1 << 20).unwrap();
        assert!(rec.repaired());
        assert_eq!(rec.entries, vec![WalEntry::Batch { seq: 1, records: batch(&[("a/x", 1)]) }]);
    }

    #[test]
    fn replaying_suppresses_appends() {
        let dir = TempDir::new("wal-replay");
        let (wal, _) = Wal::open(&dir, WalSyncPolicy::EveryBatch, 1 << 20).unwrap();
        wal.set_replaying(true);
        assert_eq!(wal.append_batch(&batch(&[("a/x", 1)])).unwrap(), 0);
        assert_eq!(wal.append_close(1).unwrap(), 0);
        assert_eq!(wal.last_seq(), 0);
        wal.set_replaying(false);
        assert_eq!(wal.append_batch(&batch(&[("a/x", 1)])).unwrap(), 1);
    }

    #[test]
    fn truncate_consumed_drops_checkpointed_segments() {
        let dir = TempDir::new("wal-consume");
        let (wal, _) = Wal::open(&dir, WalSyncPolicy::Never, 8).unwrap();
        for i in 0..4u64 {
            wal.append_batch(&batch(&[("cat/x", i)])).unwrap();
        }
        let files_before = segment_files(&dir).unwrap().len();
        assert!(files_before >= 3);
        // A checkpoint consumed everything: the dir resets to one
        // empty tail segment and recovery finds nothing to replay.
        wal.truncate_consumed(wal.last_seq()).unwrap();
        assert_eq!(segment_files(&dir).unwrap().len(), 1);
        assert_eq!(wal.append_batch(&batch(&[("cat/y", 99)])).unwrap(), 5);
        drop(wal);
        let (_, rec) = Wal::open(&dir, WalSyncPolicy::Never, 8).unwrap();
        assert_eq!(rec.entries, vec![WalEntry::Batch { seq: 5, records: batch(&[("cat/y", 99)]) }]);
    }

    #[test]
    fn partial_truncate_keeps_unconsumed_tail() {
        let dir = TempDir::new("wal-partial");
        let (wal, _) = Wal::open(&dir, WalSyncPolicy::Never, 8).unwrap();
        for i in 0..4u64 {
            wal.append_batch(&batch(&[("cat/x", i)])).unwrap();
        }
        wal.truncate_consumed(2).unwrap();
        drop(wal);
        let (_, rec) = Wal::open(&dir, WalSyncPolicy::Never, 8).unwrap();
        let seqs: Vec<u64> = rec.entries.iter().map(WalEntry::seq).collect();
        assert_eq!(seqs, vec![3, 4], "frames past the checkpoint survive");
    }

    #[test]
    fn read_wal_reports_without_repairing() {
        let dir = TempDir::new("wal-readonly");
        let (wal, _) = Wal::open(&dir, WalSyncPolicy::EveryBatch, 1 << 20).unwrap();
        wal.append_batch(&batch(&[("a/x", 1)])).unwrap();
        wal.append_batch(&batch(&[("a/y", 2)])).unwrap();
        drop(wal);
        let file = segment_files(&dir).unwrap()[0].1.clone();
        let full = fs::metadata(&file).unwrap().len();
        FaultFs::truncate_at(&file, full - 1).unwrap();
        let rec = read_wal(&dir).unwrap();
        assert!(rec.repaired());
        assert_eq!(rec.entries.len(), 1);
        // The file was not modified by the read-only scan.
        assert_eq!(fs::metadata(&file).unwrap().len(), full - 1);
    }
}
