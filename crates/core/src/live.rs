//! The live split of the sharded engine: a concurrently shareable
//! ingest front-end plus a serialized close/report back-end.
//!
//! [`ShardedTiresias`] is an exclusive (`&mut self`) engine: one caller
//! feeds batches, boundaries close inside the call. That shape is right
//! for replays and wrong for serving — a daemon admitting records from
//! many client sessions would serialise every record through one lock
//! around the whole engine. [`ShardedTiresias::into_live`] therefore
//! splits the engine in two:
//!
//! * [`IngestHandle`] — the **front-end**: cloneable, `Send + Sync`,
//!   admits [`RecordBatch`]es with `&self` from any number of session
//!   threads. It validates against an atomic timeunit **watermark**,
//!   counts late/ahead/admitted records atomically, routes once per
//!   distinct path, and hands the accepted records — folded into count
//!   cells — to per-shard [`ShardRing`]s consumed by long-running
//!   worker threads (one per shard, each owning its [`Tiresias`]
//!   exclusively). No engine-wide lock is taken anywhere on this path.
//! * [`LiveSharded`] — the **back-end**: exclusive, owns the workers,
//!   the merged report tree/store and the checkpoint lifecycle.
//!   Timeunit closes, anomaly merging and metrics stay here.
//!
//! # Admission: one pass, count cells out
//!
//! A detector consumes one thing per record — "+1 for this category in
//! this timeunit" — so the record currency of this path is not an owned
//! `(String, u64)` but the flat [`RecordBatch`] a session fills (the
//! batch's distinct paths once, a `(path index, timestamp)` pair per
//! record) and, past admission, the **count cell** `(path, unit, n)`.
//! [`IngestHandle::admit_batch`] makes one pass over the records under
//! one shared gate acquisition: classify each against the watermark
//! (one [`Admission`] per record, in order), append each accepted
//! record's bytes to the batch's write-ahead-log frame (so **WAL order
//! == admission order**, in the unchanged on-disk format), and count it
//! into its path's current cell in the owning shard's chunk — the
//! routing table is consulted once per distinct path per batch. The
//! chunks, cells in first-appearance order, are what the rings carry;
//! their queue gauges still count records.
//!
//! A worker applies a cell of its open unit with one
//! [`Tiresias::push_count`] — proven equal to `n` single pushes — and a
//! cell is processed where the *first* of its records stood. That is
//! what keeps the output byte-identical to per-record ingestion: a
//! path's tree node is created when its first record is **counted**
//! (never when it is merely stashed), so each shard hands out node ids
//! in the same order as before, and node ids are what order ADA's
//! floating-point sums (the argument is spelled out in the `cells`
//! module docs).
//!
//! # The epoch barrier: how timeunits close under concurrent admission
//!
//! The open timeunit is an atomic watermark read by every admission.
//! Flipping it is the one moment that needs exclusivity, and it is
//! guarded by a tiny `RwLock<()>` **gate** (not the engine): admissions
//! hold it shared while they validate against the watermark *and*
//! enqueue into the shard rings; [`LiveSharded::close_to`] holds it
//! exclusively while it advances the watermark and enqueues a barrier
//! message into every ring. Because both the watermark read and the
//! ring write happen under the same gate acquisition, every record
//! admitted against watermark `W` is **in its ring before the barrier
//! that closes `W`** — in-flight pushes land in a well-defined unit, by
//! construction. Workers process their backlog, apply any held-back
//! future cells whose unit is now due, close through the barrier's
//! target in parallel, and acknowledge with their newly final
//! anomalies, which the back-end merges in `(unit, path)` order exactly
//! like the offline engine.
//!
//! # The stash: future units, keyed by unit
//!
//! Records of units *ahead* of the watermark (within the configured
//! bound) are admitted, and their cells are held back by the owning
//! worker until a barrier opens their unit. The stash is a
//! `BTreeMap<unit, bucket>`; a bucket keeps one cell per distinct path
//! in first-arrival order, merging later arrivals into it. Its size is
//! therefore bounded by distinct paths × units ahead — not by records,
//! however far ahead of the grace window a bulk client runs — and a
//! close simply drains the buckets `..= target` in key order: no sort,
//! and the same unit-then-arrival order the per-record stash replayed.
//! A label migrating between shards takes its stashed cells along.
//! `stashed_records` still reports records (`Σ n`).
//!
//! [`LiveSharded::finish`] drains every ring and stash, joins the
//! workers and reassembles a plain [`ShardedTiresias`] — so a live
//! deployment checkpoints byte-compatibly with the offline engine and a
//! restart resumes mid-unit.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::anomaly::AnomalyEvent;
use crate::builder::TiresiasBuilder;
use crate::cells::{CellChunk, CellStash, RecordBatch};
use crate::detector::{SubtreeState, Tiresias};
use crate::error::CoreError;
use crate::ring::ShardRing;
use crate::segments::SegmentStore;
use crate::sharded::{Balancer, RebalanceConfig, ShardRouter, ShardedParts, ShardedTiresias};
use crate::store::ReportStore;
use crate::telem::EngineTelemetry;
use crate::wal::Wal;

use tiresias_hierarchy::{first_segment_hash, CategoryPath};

/// Default bound on how many timeunits ahead of the open unit a record
/// may be. Catches unit confusion (e.g. millisecond timestamps where
/// seconds belong) and bounds how many intermediate units one absurd
/// timestamp can force a close to sweep through.
pub const DEFAULT_MAX_AHEAD_UNITS: u64 = 1_000;

/// Messages a shard ring buffers before producers block (backpressure).
/// Each message is a whole admission chunk, so the bound is on batches,
/// not records.
const LIVE_RING_CAPACITY: usize = 64;

/// Sentinel for "no watermark yet" in the atomic. Unreachable as a
/// real unit: admission caps admissible units at `FrontShared::
/// max_unit`, which is far below the sentinel (and low enough that no
/// derived close target overflows `unit * timeunit`).
const UNSET: u64 = u64::MAX;

/// Outcome of admitting one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Counted into the open unit or stashed for a future one.
    Accepted,
    /// The record's timeunit is already closed; dropped and counted.
    Late,
    /// The record's timeunit is further ahead of the open unit than the
    /// configured bound; dropped and counted.
    TooFarAhead,
}

/// What travels through a shard's ring: admission chunks, and the
/// serialized control messages that give in-flight records a
/// well-defined home (see the module docs).
enum ShardMsg {
    /// One admission's accepted records for this shard, folded into
    /// count cells, admitted under watermark `wm` (every cell's unit is
    /// in `[wm, wm + max_ahead]`).
    Cells { wm: u64, chunk: CellChunk },
    /// Close every unit in `[from, target)` and leave `target` open.
    Barrier { seq: u64, from: u64, target: u64 },
    /// Final drain: feed the whole stash (closing what the data
    /// closes), align to `align`, acknowledge and exit.
    Drain { seq: u64, from: u64, align: Option<u64> },
    /// Rebalancing, step 1: extract the top-level subtrees whose
    /// first-segment hash is `hash` — detector state *and* stashed
    /// future cells — and reply with them. Sent only under the held
    /// write gate, right after a barrier ack: the shard is aligned and
    /// no admission can race the transplant.
    Extract { hash: u64, reply: Sender<Migration> },
    /// Rebalancing, step 2: adopt a migration extracted from another
    /// shard at the same (gate-held) barrier.
    Adopt { migration: Migration },
}

/// A top-level subtree in flight between two shard workers: its
/// detector state plus the stashed future cells that belong to it.
struct Migration {
    state: SubtreeState,
    stash: CellStash,
}

/// A worker's reply to a `Barrier` or `Drain`.
struct ShardAck {
    seq: u64,
    /// Newly final anomalies (level ≥ 1) since the last ack.
    events: Vec<AnomalyEvent>,
    /// Largest stashed future unit still held back (`None` if none) —
    /// lets the back-end rebuild its ahead-of-watermark tracking after
    /// a close consumed part of the stash.
    stash_max: Option<u64>,
    units_processed: u64,
    /// Per-top-level-label subtree load of the last closed unit — the
    /// rebalancer's epoch measurement. Empty on drains, on poisoned
    /// shards, and whenever adaptive rebalancing is off (nobody would
    /// read it).
    loads: Vec<(String, f64)>,
    error: Option<CoreError>,
}

/// State shared between every [`IngestHandle`] clone, the shard
/// workers and the back-end.
struct FrontShared {
    /// The label→shard routing table. Read-mostly: admissions take the
    /// read side once per batch; only an epoch-barrier rebalance (which
    /// already holds the write gate, so no admission is in flight)
    /// takes the write side to repoint a pinned label.
    router: RwLock<ShardRouter>,
    timeunit: u64,
    max_ahead: u64,
    /// Largest admissible (and anchorable) unit. Keeps every close
    /// target the scheduler can derive (`watermark + 1`,
    /// `watermark + max_ahead`) below the [`UNSET`] sentinel *and*
    /// below `u64::MAX / timeunit`, so `target * timeunit` never
    /// overflows. Units beyond it read as too far ahead.
    max_unit: u64,
    /// The epoch gate: admissions hold it shared, watermark flips hold
    /// it exclusively. Guards ordering only — never engine state.
    gate: RwLock<()>,
    /// The open (not yet closed) timeunit; [`UNSET`] until the first
    /// record anchors the stream.
    watermark: AtomicU64,
    /// Set under the write gate by drain/teardown: admissions error.
    closed: AtomicBool,
    /// Set (lock-free) by a worker the moment a shard error poisons
    /// it, together with `closed` — so admissions fail fast instead of
    /// acknowledging records a broken shard would silently drop, and
    /// the serving layer can react before the next barrier surfaces
    /// the error itself.
    poisoned: AtomicBool,
    /// Set by the serving layer when a WAL fsync fails (and by a
    /// failed append here): admissions are refused with
    /// [`CoreError::WalUnavailable`] — never acknowledged records the
    /// log cannot persist — until the serving layer clears it after a
    /// successful sync. Unlike `closed`/`poisoned` this is a pause,
    /// not a teardown: the engine, its workers and its watermark all
    /// stay live.
    wal_paused: AtomicBool,
    /// Batches refused because the WAL could not append or was paused
    /// (`STATS wal_errors=`).
    wal_errors: AtomicU64,
    admitted: AtomicU64,
    late: AtomicU64,
    ahead: AtomicU64,
    /// Label moves applied at epoch barriers (mirror of the
    /// scheduler-owned counter, readable lock-free by exporters).
    rebalances: AtomicU64,
    /// Worst/mean shard-load ratio of the last measured epoch in
    /// thousandths (`0` = not yet measured) — fixed-point so the
    /// exporters need no float atomic.
    balance_milli: AtomicU64,
    /// Mirror of `RebalanceConfig::enabled` where the workers can read
    /// it: they measure per-label loads for their barrier acks only
    /// while it is set. A statistic-free flag that publishes no other
    /// data, hence `Relaxed`; a worker that reads a stale value skips
    /// or adds one epoch's measurement.
    rebalance_on: AtomicBool,
    /// `max(future unit admitted) + 1`, `0` when none — drives the
    /// serving layer's data-watermark close rule.
    ahead_max: AtomicU64,
    /// Nanos since `t0` when the oldest outstanding future record
    /// arrived (`0` = none) — starts the grace timer.
    first_future_nanos: AtomicU64,
    /// Nanos since `t0` of the first accepted record (`0` = none).
    first_admit_nanos: AtomicU64,
    t0: Instant,
    rings: Vec<ShardRing<ShardMsg>>,
    /// Records currently queued per ring (gauge).
    queued: Vec<AtomicU64>,
    /// Records counted into each shard's open unit (gauge, maintained
    /// by the workers).
    open_records: Vec<AtomicU64>,
    /// Future records stashed per shard (gauge).
    stashed: Vec<AtomicU64>,
    /// Write-ahead log of admitted batches and close barriers, `None`
    /// when the engine runs without durability. Appends happen under
    /// the same gate acquisition as the watermark read / ring write,
    /// so WAL order agrees with barrier order: every batch frame
    /// admitted against watermark `W` precedes the close frame that
    /// closes `W`.
    wal: Option<Arc<Wal>>,
    /// Hot-path latency histograms.
    telem: EngineTelemetry,
}

impl FrontShared {
    fn nanos_now(&self) -> u64 {
        // `.max(1)` keeps 0 free as the "unset" sentinel.
        (self.t0.elapsed().as_nanos() as u64).max(1)
    }

    fn age_of(&self, marker: &AtomicU64) -> Option<Duration> {
        match marker.load(Ordering::SeqCst) {
            0 => None,
            then => Some(Duration::from_nanos(self.t0.elapsed().as_nanos() as u64 - then)),
        }
    }
}

/// The cloneable ingest front-end: admits records from any thread with
/// `&self`, no engine-wide lock. Obtain one per session thread from
/// [`LiveSharded::handle`].
///
/// Handles outlive the back-end gracefully: once the engine is drained
/// ([`LiveSharded::finish`]) or dropped, every admission returns
/// [`CoreError::Closed`].
#[derive(Clone)]
pub struct IngestHandle {
    shared: Arc<FrontShared>,
}

impl std::fmt::Debug for IngestHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestHandle")
            .field("shards", &self.shared.rings.len())
            .field("watermark", &self.watermark())
            .finish()
    }
}

impl IngestHandle {
    /// Admits a [`RecordBatch`], writing one [`Admission`] per record
    /// (in order) to `outcomes`. Accepted records are folded into
    /// per-shard count cells and enqueued to their shard workers; late
    /// and too-far-ahead records are dropped and counted. The whole
    /// batch is admitted under **one** gate acquisition and one pass:
    /// a record costs a watermark comparison and a counter increment,
    /// a *distinct path* costs one routing decision and one copy of its
    /// bytes.
    ///
    /// The batch is left filled — [`RecordBatch::accepted_by_path`]
    /// reports what this call accepted — and is the caller's to
    /// [`RecordBatch::clear`].
    ///
    /// Blocks only when a shard's ring is full (bounded backpressure
    /// from a worker that cannot keep up).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Closed`] once the engine is draining,
    /// poisoned by a shard error, or gone, and
    /// [`CoreError::WalUnavailable`] when the write-ahead log cannot
    /// take the batch. Either way nothing of the batch counts as
    /// admitted and `outcomes` is meaningless.
    pub fn admit_batch(
        &self,
        batch: &mut RecordBatch,
        outcomes: &mut Vec<Admission>,
    ) -> Result<(), CoreError> {
        outcomes.clear();
        if batch.is_empty() {
            return Ok(());
        }
        let s = &*self.shared;
        // One clock read per batch.
        let t_admit = Instant::now();
        let _gate = s.gate.read().expect("gate never poisoned");
        if s.closed.load(Ordering::SeqCst) {
            return Err(CoreError::Closed);
        }
        if s.wal.is_some() && s.wal_paused.load(Ordering::SeqCst) {
            // An earlier append or fsync failed and the serving layer
            // has not yet observed a successful sync: refuse the whole
            // batch up front (nothing enqueued, nothing acknowledged).
            s.wal_errors.fetch_add(1, Ordering::SeqCst);
            return Err(CoreError::WalUnavailable(
                "a write-ahead log write failed; admission is paused".to_string(),
            ));
        }
        let tu = s.timeunit;
        let mut wm = s.watermark.load(Ordering::SeqCst);
        if wm == UNSET {
            // First record ever: its unit anchors the stream's
            // data-time epoch unchecked (timestamps are abstract;
            // there is nothing yet to bound them against — except the
            // overflow-proof `max_unit` ceiling). Concurrent anchor
            // attempts race benignly — one wins, the rest validate
            // against the winner.
            if let Some(anchor) =
                batch.columns().iter().map(|&(_, t)| t / tu).find(|&u| u <= s.max_unit)
            {
                wm = match s.watermark.compare_exchange(
                    UNSET,
                    anchor,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ) {
                    Ok(_) => anchor,
                    Err(won) => won,
                };
            }
        }
        batch.begin_admission(s.rings.len());
        outcomes.reserve(batch.len());
        let (mut n_accepted, mut n_late, mut n_ahead) = (0u64, 0u64, 0u64);
        let mut future_max: Option<u64> = None;
        let log = s.wal.is_some();
        let ahead_limit = wm.saturating_add(s.max_ahead).min(s.max_unit);
        // One routing-table read lock per batch, one table lookup per
        // *distinct* path within it.
        let router = s.router.read().expect("router lock never poisoned");
        // Feeds are near time order, so a record is almost always in
        // the previous record's unit: divide only when it is not.
        let mut unit = batch.columns()[0].1 / tu;
        let mut unit_start = unit * tu;
        for i in 0..batch.len() {
            let (path, t) = batch.columns()[i];
            if t.wrapping_sub(unit_start) >= tu {
                unit = t / tu;
                unit_start = unit * tu;
            }
            let outcome = if wm == UNSET || unit > ahead_limit {
                n_ahead += 1;
                Admission::TooFarAhead
            } else if unit < wm {
                n_late += 1;
                Admission::Late
            } else {
                n_accepted += 1;
                if unit > wm {
                    future_max = Some(future_max.map_or(unit, |m| m.max(unit)));
                }
                if log {
                    // WAL order == admission order, record by record.
                    batch.log_record(path, t);
                }
                batch.count_accepted(path, unit, |h| router.route_hash(h));
                Admission::Accepted
            };
            outcomes.push(outcome);
        }
        drop(router);
        // Log the accepted records before any ring sees them: a record
        // a worker processed but the WAL missed could be acknowledged
        // yet lost on restart. The append fails the whole batch before
        // anything was enqueued, so nothing half-durable leaks — the
        // batch is refused whole and admission pauses (not closes)
        // until a later append or fsync succeeds, so a disk hiccup
        // degrades to `ERR wal` replies instead of ending the daemon.
        if n_accepted > 0 {
            if let Some(wal) = &s.wal {
                if let Err(e) = wal.append_batch_raw(batch.logged(), n_accepted as u32) {
                    s.wal_paused.store(true, Ordering::SeqCst);
                    s.wal_errors.fetch_add(1, Ordering::SeqCst);
                    return Err(CoreError::WalUnavailable(format!("WAL append failed: {e}")));
                }
            }
        }
        // Enqueue while still holding the gate: this is what guarantees
        // records admitted against watermark `wm` precede any barrier
        // that closes `wm` in ring order (see the module docs).
        for (idx, chunk) in batch.take_chunks() {
            s.queued[idx].fetch_add(chunk.records(), Ordering::SeqCst);
            let msg = ShardMsg::Cells { wm, chunk };
            match s.rings[idx].push_timing_stall(msg) {
                // Only backpressure stalls are interesting; an
                // uncontended hand-off records nothing.
                Some(stall) if stall > 0 => s.telem.ring_stall.record(stall),
                Some(_) => {}
                // Only an abandoned ring (engine torn down mid-push)
                // refuses; report the closure.
                None => return Err(CoreError::Closed),
            }
        }
        if n_accepted > 0 {
            s.admitted.fetch_add(n_accepted, Ordering::SeqCst);
            let _ = s.first_admit_nanos.compare_exchange(
                0,
                s.nanos_now(),
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
        }
        if n_late > 0 {
            s.late.fetch_add(n_late, Ordering::SeqCst);
        }
        if n_ahead > 0 {
            s.ahead.fetch_add(n_ahead, Ordering::SeqCst);
        }
        if let Some(fm) = future_max {
            s.ahead_max.fetch_max(fm + 1, Ordering::SeqCst);
            let _ = s.first_future_nanos.compare_exchange(
                0,
                s.nanos_now(),
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
        }
        s.telem.admit.record_duration(t_admit.elapsed());
        Ok(())
    }

    /// Admits one record (see [`IngestHandle::admit_batch`], which the
    /// hot path should prefer).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Closed`] once the engine is draining or
    /// gone, and [`CoreError::PathTooLong`] for a path no batch holds.
    pub fn admit(&self, path: &str, t_secs: u64) -> Result<Admission, CoreError> {
        let mut batch = RecordBatch::new();
        batch.push_str(path, t_secs)?;
        let mut outcomes = Vec::with_capacity(1);
        self.admit_batch(&mut batch, &mut outcomes)?;
        Ok(outcomes[0])
    }

    /// The open (not yet closed) timeunit, `None` until the first
    /// record anchors the stream.
    pub fn watermark(&self) -> Option<u64> {
        match self.shared.watermark.load(Ordering::SeqCst) {
            UNSET => None,
            wm => Some(wm),
        }
    }

    /// Timeunit size Δ in seconds.
    pub fn timeunit_secs(&self) -> u64 {
        self.shared.timeunit
    }

    /// Number of shards records are routed over.
    pub fn shard_count(&self) -> usize {
        self.shared.rings.len()
    }

    /// The configured ahead-of-watermark admission bound in units.
    pub fn max_ahead_units(&self) -> u64 {
        self.shared.max_ahead
    }

    /// `true` once the engine is draining or gone (admissions error).
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::SeqCst)
    }

    /// `true` once a shard error poisoned a worker (admissions are
    /// closed; the serving layer should drain and checkpoint — the
    /// poisoned shard keeps its last good state).
    pub fn is_poisoned(&self) -> bool {
        self.shared.poisoned.load(Ordering::SeqCst)
    }

    /// Pauses (`true`) or resumes (`false`) admission on WAL trouble:
    /// while paused every batch is refused with
    /// [`CoreError::WalUnavailable`]. A failed append sets the pause
    /// itself; the serving layer sets it on a failed fsync and clears
    /// it once a sync succeeds again. No-op teardown-wise — the engine
    /// stays live throughout.
    pub fn set_wal_paused(&self, paused: bool) {
        self.shared.wal_paused.store(paused, Ordering::SeqCst);
    }

    /// `true` while admission is refusing batches over WAL trouble.
    pub fn is_wal_paused(&self) -> bool {
        self.shared.wal_paused.load(Ordering::SeqCst)
    }

    /// Batches refused because the WAL could not append or admission
    /// was WAL-paused.
    pub fn wal_errors(&self) -> u64 {
        self.shared.wal_errors.load(Ordering::SeqCst)
    }

    /// Counts one WAL failure observed outside the admission path (the
    /// serving layer's fsync tick), so `wal_errors` reflects every
    /// refusal-causing incident in one gauge.
    pub fn count_wal_error(&self) {
        self.shared.wal_errors.fetch_add(1, Ordering::SeqCst);
    }

    /// Records accepted so far.
    pub fn admitted(&self) -> u64 {
        self.shared.admitted.load(Ordering::SeqCst)
    }

    /// Records dropped as late (unit already closed).
    pub fn late(&self) -> u64 {
        self.shared.late.load(Ordering::SeqCst)
    }

    /// Records dropped for exceeding the ahead-of-watermark bound.
    pub fn ahead(&self) -> u64 {
        self.shared.ahead.load(Ordering::SeqCst)
    }

    /// Largest future (ahead-of-watermark) unit with an admitted record
    /// still held back, `None` if none — the serving layer's
    /// data-watermark close target.
    pub fn ahead_max_unit(&self) -> Option<u64> {
        match self.shared.ahead_max.load(Ordering::SeqCst) {
            0 => None,
            v => Some(v - 1),
        }
    }

    /// How long ago the oldest outstanding future record arrived —
    /// `None` when nothing is held back. Drives the grace window.
    pub fn first_future_age(&self) -> Option<Duration> {
        self.shared.age_of(&self.shared.first_future_nanos)
    }

    /// How long ago the first record was accepted (`None` before any).
    pub fn first_admit_age(&self) -> Option<Duration> {
        self.shared.age_of(&self.shared.first_admit_nanos)
    }

    /// Records queued in each shard's ring, not yet ingested by its
    /// worker (the per-shard backlog gauge).
    pub fn ring_depths(&self) -> Vec<u64> {
        self.shared.queued.iter().map(|q| q.load(Ordering::SeqCst)).collect()
    }

    /// Records counted into each shard's open unit so far.
    pub fn shard_open_records(&self) -> Vec<u64> {
        self.shared.open_records.iter().map(|q| q.load(Ordering::SeqCst)).collect()
    }

    /// Future records stashed per shard awaiting their unit.
    pub fn stashed_records(&self) -> Vec<u64> {
        self.shared.stashed.iter().map(|q| q.load(Ordering::SeqCst)).collect()
    }

    /// Label moves (explicit pins plus adaptive rebalances) applied at
    /// epoch barriers so far.
    pub fn rebalances(&self) -> u64 {
        self.shared.rebalances.load(Ordering::SeqCst)
    }

    /// Labels currently pinned in the routing table (the adaptive
    /// override count; hash-routed labels are not counted).
    pub fn pinned_labels(&self) -> u64 {
        self.shared.router.read().expect("router lock never poisoned").pinned_count() as u64
    }

    /// Worst/mean per-shard load ratio of the last measured epoch
    /// (`1.0` = perfectly balanced, `0.0` = not yet measured). Epochs
    /// are measured only while adaptive rebalancing is enabled.
    pub fn shard_balance(&self) -> f64 {
        self.shared.balance_milli.load(Ordering::SeqCst) as f64 / 1000.0
    }
}

/// A cloneable, read-only handle onto a live engine's merged
/// [`ReportStore`] — the read path of the serving stack.
///
/// Obtained from [`LiveSharded::reader`] and safe to hand to any
/// number of query threads: readers share a read-mostly `RwLock` whose
/// write side is taken only for the brief per-close merge, and the
/// admission hot path never touches the lock at all. The handle keeps
/// working after the engine is drained ([`LiveSharded::finish`]),
/// still serving the retained history.
#[derive(Clone)]
pub struct ReportReader {
    store: Arc<RwLock<ReportStore>>,
    /// Disk-backed archive of evicted history (`None` without a data
    /// dir): events the retention budget spilled out of RAM, still
    /// reachable through [`ReportReader::query_merged`].
    segments: Option<Arc<SegmentStore>>,
}

impl ReportReader {
    /// Runs `f` against the store under the read lock. Keep `f` short
    /// (collect what you need and return); the lock is held for its
    /// duration and blocks the next close merge — though never record
    /// admission.
    pub fn with<R>(&self, f: impl FnOnce(&ReportStore) -> R) -> R {
        f(&self.store.read().expect("report lock never poisoned"))
    }

    /// The disk-backed archive tier, if this reader has one.
    pub fn archive(&self) -> Option<&SegmentStore> {
        self.segments.as_deref()
    }

    /// The combined read-path query across both tiers: archived
    /// segments answer the portion of `[from_unit, to_unit]`
    /// (inclusive) older than the RAM store's retained range, the RAM
    /// store answers the rest, and the concatenation preserves
    /// `(unit, path)` order. Without an archive this is exactly
    /// [`ReportStore::query`]. The tiers are disjoint by construction
    /// — the archive is only consulted below
    /// [`ReportStore::retained_from`], and retention evicts whole unit
    /// blocks only after they were spilled — so no event is returned
    /// twice or silently lost during the handoff.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Durability`] when reading the archive
    /// fails (missing file, CRC mismatch).
    pub fn query_merged(
        &self,
        from_unit: u64,
        to_unit: u64,
        prefix: Option<&CategoryPath>,
        level: Option<usize>,
        limit: usize,
    ) -> Result<Vec<AnomalyEvent>, CoreError> {
        let mut out: Vec<AnomalyEvent> = Vec::new();
        if let Some(seg) = &self.segments {
            let ram_from = self.with(|s| s.retained_from());
            if from_unit < ram_from {
                let pfx = prefix.map(|p| p.to_string());
                out = seg
                    .query(
                        from_unit,
                        to_unit.min(ram_from.saturating_sub(1)),
                        pfx.as_deref(),
                        level,
                        limit,
                    )
                    .map_err(|e| CoreError::Durability(format!("segment query failed: {e}")))?;
            }
        }
        if out.len() < limit {
            let room = limit - out.len();
            out.extend(self.with(|s| {
                s.query(from_unit, to_unit, prefix, level, room)
                    .into_iter()
                    .cloned()
                    .collect::<Vec<_>>()
            }));
        }
        Ok(out)
    }
}

impl std::fmt::Debug for ReportReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (len, next_seq) = self.with(|s| (s.len(), s.next_seq()));
        f.debug_struct("ReportReader").field("retained", &len).field("next_seq", &next_seq).finish()
    }
}

/// Owned state of a running live engine (present until
/// [`LiveSharded::finish`] or drop tears it down).
struct LiveInner {
    shared: Arc<FrontShared>,
    workers: Vec<JoinHandle<Box<Tiresias>>>,
    acks: Receiver<ShardAck>,
    builder: TiresiasBuilder,
    /// The merged report store, shared with every [`ReportReader`]:
    /// the back-end writes at closes, readers query concurrently.
    store: Arc<RwLock<ReportStore>>,
    /// Disk-backed archive the retention budget spills into (`None`
    /// without a data dir). With a spill tier, eviction is two-phase:
    /// stage the over-budget prefix, persist it, only then free it.
    spill: Option<Arc<SegmentStore>>,
    pending: Vec<AnomalyEvent>,
    busy_nanos: Vec<u64>,
    router_nanos: u64,
    seq: u64,
    units_done: u64,
    /// Skew-adaptive rebalancer policy (runtime configuration, carried
    /// back into the reassembled engine by `finish`).
    rebalance: RebalanceConfig,
    /// The hot-label sketch, move counter and balance gauge.
    bal: Balancer,
    /// Explicit `pin_label` requests awaiting the next close.
    pending_pins: Vec<(String, u32)>,
    /// Per-label loads gathered from the latest barrier's acks.
    epoch_loads: Vec<(String, f64)>,
    /// `units_done` at the last epoch measurement, so a close that
    /// advanced nothing does not re-measure.
    measured_units: u64,
}

/// The serialized close/report back-end of a live sharded engine.
///
/// All methods take `&mut self` (or `self`): closes, merges, metrics
/// snapshots and the final drain are exclusive by design — only record
/// **admission** is concurrent, through [`LiveSharded::handle`]'s
/// cloneable [`IngestHandle`]s.
///
/// # Example
///
/// ```
/// use tiresias_core::{RecordBatch, TiresiasBuilder, DEFAULT_MAX_AHEAD_UNITS};
///
/// let engine = TiresiasBuilder::new()
///     .timeunit_secs(900)
///     .window_len(96)
///     .threshold(5.0)
///     .season_length(4)
///     .sensitivity(2.8, 8.0)
///     .warmup_units(8)
///     .shards(4)
///     .build_sharded()?
///     .into_live(DEFAULT_MAX_AHEAD_UNITS, None)?;
/// let handle = engine.handle();
///
/// // Session threads clone `handle` and admit concurrently; a
/// // scheduler thread owns `engine` and flips timeunit boundaries.
/// let mut engine = engine;
/// let mut batch = RecordBatch::new();
/// for t in 0..12u64 {
///     let burst = if t == 11 { 80 } else { 8 };
///     for i in 0..burst {
///         batch.push_str("TV/No Service", t * 900 + i)?;
///     }
/// }
/// let mut outcomes = Vec::new();
/// handle.admit_batch(&mut batch, &mut outcomes)?;
/// engine.close_to(12)?;
/// assert!(engine.anomalies().iter().any(|a| a.path.to_string() == "TV/No Service"));
/// let checkpointable = engine.finish()?; // a plain ShardedTiresias again
/// assert_eq!(checkpointable.current_unit(), Some(12));
/// # Ok::<(), tiresias_core::CoreError>(())
/// ```
pub struct LiveSharded {
    inner: Option<LiveInner>,
}

impl std::fmt::Debug for LiveSharded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.as_ref();
        f.debug_struct("LiveSharded")
            .field("shards", &inner.map_or(0, |i| i.workers.len()))
            .field("units_done", &inner.map_or(0, |i| i.units_done))
            .finish()
    }
}

impl LiveSharded {
    /// Splits `engine` into the live front-end/back-end pair (the
    /// implementation behind [`ShardedTiresias::into_live`]).
    pub(crate) fn from_engine(
        mut engine: ShardedTiresias,
        max_ahead_units: u64,
        wal: Option<Arc<Wal>>,
    ) -> Result<LiveSharded, CoreError> {
        // Every unit the scheduler can derive from an admissible
        // watermark must stay below the sentinel and multiply by the
        // timeunit without overflow.
        let timeunit = engine.timeunit_secs().max(1);
        let max_unit = (u64::MAX / timeunit).saturating_sub(max_ahead_units.saturating_add(2));
        if engine.current_unit().is_some_and(|open| open > max_unit) {
            return Err(CoreError::InvalidConfig(format!(
                "engine watermark exceeds the largest admissible timeunit {max_unit} \
                 (timeunit {timeunit} s, max_ahead {max_ahead_units}); the stream was \
                 anchored on an absurd timestamp — restart without the checkpoint"
            )));
        }
        // Align every shard to the engine watermark so the workers
        // resume from one well-defined open unit (a no-op for engines
        // checkpointed by a drain, which always aligns).
        if let Some(open) = engine.current_unit() {
            engine.advance_to(open * engine.timeunit_secs())?;
        }
        let units_done = engine.units_processed();
        let parts = engine.into_parts();
        let n = parts.shards.len();
        let telem = EngineTelemetry::new();
        if let Some(wal) = &wal {
            wal.set_telemetry(Arc::clone(&telem.wal_append), Arc::clone(&telem.wal_fsync));
        }
        let shared = Arc::new(FrontShared {
            router: RwLock::new(parts.router),
            timeunit: parts.builder.timeunit_secs,
            max_ahead: max_ahead_units,
            max_unit,
            gate: RwLock::new(()),
            watermark: AtomicU64::new(parts.open_unit.unwrap_or(UNSET)),
            closed: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            wal_paused: AtomicBool::new(false),
            wal_errors: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            late: AtomicU64::new(0),
            ahead: AtomicU64::new(0),
            rebalances: AtomicU64::new(0),
            balance_milli: AtomicU64::new(0),
            rebalance_on: AtomicBool::new(parts.rebalance.enabled),
            ahead_max: AtomicU64::new(0),
            first_future_nanos: AtomicU64::new(0),
            first_admit_nanos: AtomicU64::new(0),
            t0: Instant::now(),
            rings: (0..n).map(|_| ShardRing::new(LIVE_RING_CAPACITY)).collect(),
            queued: (0..n).map(|_| AtomicU64::new(0)).collect(),
            open_records: parts
                .shards
                .iter()
                .map(|s| AtomicU64::new(s.open_records() as u64))
                .collect(),
            stashed: (0..n).map(|_| AtomicU64::new(0)).collect(),
            wal,
            telem,
        });
        let (tx, rx) = channel();
        let workers = parts
            .shards
            .into_iter()
            .enumerate()
            .map(|(idx, shard)| {
                let shared = Arc::clone(&shared);
                let tx: Sender<ShardAck> = tx.clone();
                std::thread::spawn(move || run_worker(idx, Box::new(shard), &shared, &tx))
            })
            .collect();
        Ok(LiveSharded {
            inner: Some(LiveInner {
                shared,
                workers,
                acks: rx,
                builder: parts.builder,
                store: Arc::new(RwLock::new(parts.store)),
                spill: None,
                pending: parts.pending,
                busy_nanos: parts.busy_nanos,
                router_nanos: parts.router_nanos,
                seq: 0,
                units_done,
                rebalance: parts.rebalance,
                bal: Balancer::default(),
                pending_pins: Vec::new(),
                epoch_loads: Vec::new(),
                measured_units: units_done,
            }),
        })
    }

    fn inner(&self) -> &LiveInner {
        self.inner.as_ref().expect("live engine present until finish")
    }

    /// A new front-end handle (clone one per session thread).
    pub fn handle(&self) -> IngestHandle {
        IngestHandle { shared: Arc::clone(&self.inner().shared) }
    }

    /// The engine's hot-path latency histograms. Cheap to clone (a
    /// handful of `Arc`s); the serving layer registers them into its
    /// exported [`tiresias_telemetry::Registry`].
    pub fn telemetry(&self) -> EngineTelemetry {
        self.inner().shared.telem.clone()
    }

    /// The open (not yet closed) timeunit.
    pub fn watermark(&self) -> Option<u64> {
        match self.inner().shared.watermark.load(Ordering::SeqCst) {
            UNSET => None,
            wm => Some(wm),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.inner().workers.len()
    }

    /// Timeunits fully processed, as of the last close (every shard
    /// agrees between barriers — closes only happen at barriers).
    pub fn units_processed(&self) -> u64 {
        self.inner().units_done
    }

    /// A snapshot of the retained merged anomaly stream,
    /// `(unit, path)`-ordered, complete through the last
    /// [`LiveSharded::close_to`]. Event node ids refer to the store's
    /// report tree, exactly as in the offline engine. For lock-held
    /// querying without the copy, use [`LiveSharded::reader`].
    pub fn anomalies(&self) -> Vec<AnomalyEvent> {
        self.inner().store.read().expect("report lock never poisoned").events().to_vec()
    }

    /// A cloneable read handle onto the merged report store. Readers
    /// (query sessions, subscribers catching up, metrics) take the
    /// read side of a read-mostly lock; only timeunit closes take the
    /// write side, and record admission never touches it — queries
    /// never stall admission. The handle stays valid (and keeps
    /// serving the retained history) after [`LiveSharded::finish`].
    pub fn reader(&self) -> ReportReader {
        ReportReader {
            store: Arc::clone(&self.inner().store),
            segments: self.inner().spill.clone(),
        }
    }

    /// Attaches a disk-backed archive tier: from now on, retention
    /// eviction is two-phase (spill the over-budget prefix into `seg`,
    /// then free it from RAM), and readers obtained **after** this
    /// call answer queries across both tiers. Call before handing out
    /// [`LiveSharded::reader`]s.
    pub fn set_spill(&mut self, seg: Arc<SegmentStore>) {
        let inner = self.inner.as_mut().expect("live engine present until finish");
        seg.set_telemetry(Arc::clone(&inner.shared.telem.spill));
        inner.spill = Some(seg);
    }

    /// Sets the report store's retention budget, spill-aware: with an
    /// archive tier attached, any immediately over-budget history is
    /// spilled to disk before it is freed (the plain
    /// [`ReportStore::set_retention`] would evict it inline and drop
    /// it).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Durability`] when the spill fails; the
    /// over-budget history then stays in RAM.
    pub fn set_retention(&mut self, units: Option<u64>) -> Result<(), CoreError> {
        let inner = self.inner.as_mut().expect("live engine present until finish");
        let mut store = inner.store.write().expect("report lock never poisoned");
        store.set_retention_deferred(units);
        spill_and_apply(inner.spill.as_deref(), &mut store)
    }

    /// Flips the epoch barrier: every unit in `[watermark, target)`
    /// closes on all shards (in parallel), `target` becomes the open
    /// unit, and the newly final anomalies are merged into
    /// [`LiveSharded::anomalies`]. Clamped — `target` at or below the
    /// watermark closes nothing. Returns the new open unit (`None`
    /// while no record ever anchored the stream).
    ///
    /// Admissions stall only for the microseconds the gate is held to
    /// flip the watermark and enqueue barrier messages; the shard
    /// closes themselves run without the gate, concurrently with new
    /// admissions (which now land in `target` or later).
    ///
    /// # Errors
    ///
    /// Propagates the first shard error (the engine keeps serving
    /// metrics but that shard stops ingesting; callers should drain).
    pub fn close_to(&mut self, target: u64) -> Result<Option<u64>, CoreError> {
        let inner = self.inner.as_mut().expect("live engine present until finish");
        let seq = {
            let s = &*inner.shared;
            let _g = s.gate.write().expect("gate never poisoned");
            let wm = s.watermark.load(Ordering::SeqCst);
            if wm == UNSET {
                return Ok(None);
            }
            if target <= wm {
                return Ok(Some(wm));
            }
            // Log the barrier before flipping the watermark: replay
            // must close exactly the units the original run closed
            // (closing an empty unit can itself emit Drop anomalies),
            // and a close the WAL missed would diverge. On failure the
            // watermark stays put — the close simply did not happen,
            // and like a failed batch append it pauses admission
            // (recoverable) rather than ending the engine: the
            // scheduler retries the close on a later tick.
            if let Some(wal) = &s.wal {
                if let Err(e) = wal.append_close(target) {
                    s.wal_paused.store(true, Ordering::SeqCst);
                    s.wal_errors.fetch_add(1, Ordering::SeqCst);
                    return Err(CoreError::WalUnavailable(format!("WAL close append failed: {e}")));
                }
            }
            inner.seq += 1;
            s.watermark.store(target, Ordering::SeqCst);
            // Ahead-of-watermark tracking restarts: stashes at or below
            // `target` are about to be fed; workers report what remains
            // in their acks, and admissions concurrently re-add.
            s.ahead_max.store(0, Ordering::SeqCst);
            s.first_future_nanos.store(0, Ordering::SeqCst);
            for ring in &s.rings {
                ring.push(ShardMsg::Barrier { seq: inner.seq, from: wm, target });
            }
            inner.seq
        };
        // Every unit below `target` is now closed on every shard.
        match collect_acks(inner, seq, Some(target - 1))? {
            Some(shard_err) => Err(shard_err),
            None => {
                // All shards are aligned on `target` and their acks
                // carried the closed epoch's loads: the one safe point
                // to apply pins and adaptive moves, exactly like the
                // offline engine's barrier hook.
                rebalance_at_barrier(inner)?;
                Ok(Some(target))
            }
        }
    }

    /// Sets the skew-adaptive rebalancer policy (takes effect at the
    /// next [`LiveSharded::close_to`] barrier). Policy is runtime
    /// configuration and is not checkpointed — only the learned
    /// placement (the router's override table) persists.
    pub fn set_rebalance(&mut self, config: RebalanceConfig) {
        let inner = self.inner.as_mut().expect("live engine present until finish");
        inner.shared.rebalance_on.store(config.enabled, Ordering::Relaxed);
        inner.rebalance = config;
    }

    /// Requests that top-level label `label` be owned by `shard`. The
    /// move — routing-table pin plus subtree state transplant between
    /// the owning workers — happens inside the next
    /// [`LiveSharded::close_to`], under the admission gate. Output is
    /// unaffected: the moved subtree's detector state and stashed
    /// future records move with it.
    pub fn pin_label(&mut self, label: &str, shard: usize) {
        self.inner
            .as_mut()
            .expect("live engine present until finish")
            .pending_pins
            .push((label.to_string(), shard as u32));
    }

    /// Label moves applied so far (explicit pins that changed ownership
    /// plus automatic rebalances).
    pub fn rebalances(&self) -> u64 {
        self.inner().bal.rebalances
    }

    /// Worst/mean per-shard load ratio of the last measured epoch
    /// (1.0 = perfectly balanced, 0.0 = not yet measured). Epochs are
    /// measured only while adaptive rebalancing is enabled.
    pub fn shard_balance(&self) -> f64 {
        self.inner().bal.last_balance
    }

    /// Labels currently pinned in the routing table.
    pub fn pinned_labels(&self) -> usize {
        self.inner().shared.router.read().expect("router lock never poisoned").pinned_count()
    }

    /// Stops admissions without draining: every handle starts
    /// returning [`CoreError::Closed`], while metrics and the final
    /// [`LiveSharded::finish`] keep working. A serving layer calls
    /// this on a fatal shard error so no more records are
    /// acknowledged against an engine that can no longer ingest them.
    pub fn close_admissions(&mut self) {
        let inner = self.inner.as_ref().expect("live engine present until finish");
        let _g = inner.shared.gate.write().expect("gate never poisoned");
        inner.shared.closed.store(true, Ordering::SeqCst);
    }

    /// Drains and dissolves the live engine: every ring and stash is
    /// fed (closing exactly the units the data itself closes — the
    /// last unit stays **open**, so a checkpoint resumes mid-unit),
    /// workers exit returning their shards, and a plain
    /// [`ShardedTiresias`] is reassembled for checkpointing or further
    /// offline use. Admissions return [`CoreError::Closed`] from the
    /// moment the drain begins — an accepted record is never lost.
    ///
    /// A shard that errors while feeding its stash (or that was
    /// already poisoned) keeps its **last good state** and the
    /// reassembly still succeeds — a serving layer checkpointing on
    /// shutdown keeps everything every healthy shard ingested instead
    /// of losing the whole engine.
    ///
    /// # Errors
    ///
    /// Fails only on protocol-level breakage (a worker vanished
    /// without acknowledging the drain); the engine state is dropped
    /// in that case.
    pub fn finish(mut self) -> Result<ShardedTiresias, CoreError> {
        let mut inner = self.inner.take().expect("finish called once");
        let (seq, align) = {
            let s = &*inner.shared;
            let _g = s.gate.write().expect("gate never poisoned");
            s.closed.store(true, Ordering::SeqCst);
            let wm = s.watermark.load(Ordering::SeqCst);
            inner.seq += 1;
            let align = (wm != UNSET).then(|| match s.ahead_max.load(Ordering::SeqCst) {
                0 => wm,
                v => (v - 1).max(wm),
            });
            for ring in &s.rings {
                ring.push(ShardMsg::Drain { seq: inner.seq, from: wm, align });
            }
            (inner.seq, align)
        };
        // Shard errors reported by the drain acks leave those shards at
        // their last good state; only protocol failures abort. The
        // drain leaves `align` open, so units below it are closed.
        let ack_result =
            collect_acks(&mut inner, seq, align.and_then(|a| a.checked_sub(1))).map(|_| ());
        let mut shards: Vec<Tiresias> = Vec::with_capacity(inner.workers.len());
        let mut worker_vanished = false;
        for handle in inner.workers.drain(..) {
            match handle.join() {
                Ok(shard) => shards.push(*shard),
                Err(_) => worker_vanished = true,
            }
        }
        ack_result?;
        if worker_vanished {
            return Err(CoreError::Closed);
        }
        let open_unit = match inner.shared.watermark.load(Ordering::SeqCst) {
            UNSET => None,
            wm => {
                // The drain may have advanced past the watermark (held
                // future records define the final open unit, exactly
                // like the offline drain).
                Some(shards.iter().filter_map(Tiresias::current_unit).max().unwrap_or(wm))
            }
        };
        // Clone the store out rather than unwrapping the Arc: readers
        // obtained before the drain stay valid and keep serving the
        // retained history after the engine dissolves.
        let store = inner.store.read().expect("report lock never poisoned").clone();
        let router = inner.shared.router.read().expect("router lock never poisoned").clone();
        Ok(ShardedTiresias::from_parts(ShardedParts {
            builder: inner.builder,
            router,
            shards,
            store,
            pending: Vec::new(),
            open_unit,
            busy_nanos: inner.busy_nanos,
            router_nanos: inner.router_nanos,
            rebalance: inner.rebalance,
        }))
    }
}

impl Drop for LiveSharded {
    /// Tears down an unfinished engine without feeding stashes: rings
    /// are finished (workers drain their backlog and exit) and joined,
    /// and handles start returning [`CoreError::Closed`]. Prefer
    /// [`LiveSharded::finish`], which also feeds held-back records and
    /// returns the checkpointable engine.
    fn drop(&mut self) {
        let Some(mut inner) = self.inner.take() else { return };
        {
            let _g = inner.shared.gate.write().expect("gate never poisoned");
            inner.shared.closed.store(true, Ordering::SeqCst);
            for ring in &inner.shared.rings {
                ring.finish();
            }
        }
        for h in inner.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// How long the back-end waits for one shard's barrier ack before
/// giving up. A healthy worker acks as soon as its backlog is
/// processed; only a vanished (panicked) worker ever exhausts this, in
/// which case an error beats the alternative — blocking the scheduler
/// forever.
const ACK_TIMEOUT: Duration = Duration::from_secs(60);

/// Collects one ack per shard for barrier `seq`, merges their events
/// into the store in `(unit, path)` order, records the close (driving
/// retention eviction) and rebuilds the ahead tracking from the
/// surviving stashes. The outer `Result` is protocol health (a worker
/// vanished); the inner `Option` is the first shard error reported by
/// an ack.
fn collect_acks(
    inner: &mut LiveInner,
    seq: u64,
    closed_to: Option<u64>,
) -> Result<Option<CoreError>, CoreError> {
    let mut first_err: Option<CoreError> = None;
    let mut min_units = u64::MAX;
    let mut seen = 0;
    while seen < inner.workers.len() {
        let ack = inner.acks.recv_timeout(ACK_TIMEOUT).map_err(|_| CoreError::Closed)?;
        // A stale ack (an earlier barrier that timed out before its
        // slow worker answered) still carries real events and errors —
        // merge and latch them — but only acks of *this* barrier count
        // toward completion, or a drain would mistake leftovers for
        // its own acknowledgements and leave real ones unread.
        inner.pending.extend(ack.events);
        if let Some(e) = ack.error {
            first_err.get_or_insert(e);
        }
        if ack.seq != seq {
            continue;
        }
        seen += 1;
        min_units = min_units.min(ack.units_processed);
        inner.epoch_loads.extend(ack.loads);
        if let Some(u) = ack.stash_max {
            inner.shared.ahead_max.fetch_max(u + 1, Ordering::SeqCst);
            let now = inner.shared.nanos_now();
            let _ = inner.shared.first_future_nanos.compare_exchange(
                0,
                now,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
        }
    }
    inner.units_done = min_units;
    // Every pending event's unit is now closed on every shard, so the
    // whole buffer releases — in the same deterministic order as the
    // offline merge; the store re-homes each event onto its report
    // tree. The write lock is held only for this merge; readers
    // resume the moment it drops.
    let t_merge = Instant::now();
    inner.pending.sort_by(|a, b| (a.unit, &a.path).cmp(&(b.unit, &b.path)));
    {
        let mut store = inner.store.write().expect("report lock never poisoned");
        for event in inner.pending.drain(..) {
            store.insert(event);
        }
        if let Some(unit) = closed_to {
            store.record_closed(unit);
            if let Err(e) = spill_and_apply(inner.spill.as_deref(), &mut store) {
                // The over-budget history stays in RAM (never
                // drop-then-spill); admissions close so no further
                // records are acknowledged against a store that can no
                // longer bound itself durably.
                inner.shared.poisoned.store(true, Ordering::SeqCst);
                inner.shared.closed.store(true, Ordering::SeqCst);
                first_err.get_or_insert(e);
            }
        }
    }
    inner.shared.telem.merge.record_duration(t_merge.elapsed());
    Ok(first_err)
}

/// Applies pending pins and — when adaptive rebalancing is enabled —
/// the greedy plan for the epoch the just-collected barrier acks
/// measured. Each move transplants a top-level subtree (detector state
/// plus stashed future cells) between its two worker threads through
/// an [`ShardMsg::Extract`]/[`ShardMsg::Adopt`] pair, then repoints the
/// routing table.
///
/// The whole transplant runs under the **write gate**: no admission is
/// in flight, so a record can never reach the old owner after its
/// subtree left (which would re-seed the label there and split its
/// series). Records admitted *before* the gate was acquired precede the
/// `Extract` in ring order and land in the source shard's open unit or
/// stash — both of which migrate with the subtree — so the merged
/// output stays byte-identical to static routing.
fn rebalance_at_barrier(inner: &mut LiveInner) -> Result<(), CoreError> {
    let mut moves = std::mem::take(&mut inner.pending_pins);
    let loads = std::mem::take(&mut inner.epoch_loads);
    if inner.units_done > inner.measured_units && inner.workers.len() > 1 {
        inner.measured_units = inner.units_done;
        let router = inner.shared.router.read().expect("router lock never poisoned");
        moves.extend(inner.bal.measure(loads, &router, &inner.rebalance));
        drop(router);
        inner
            .shared
            .balance_milli
            .store((inner.bal.last_balance * 1000.0).round() as u64, Ordering::SeqCst);
    }
    if moves.is_empty() {
        return Ok(());
    }
    let s = &*inner.shared;
    let _g = s.gate.write().expect("gate never poisoned");
    if s.poisoned.load(Ordering::SeqCst) {
        // A shard that stopped advancing is no longer aligned with the
        // others; transplanting against it could only corrupt the last
        // good state the final checkpoint wants to keep.
        return Ok(());
    }
    for (label, shard) in moves {
        let h = first_segment_hash(&label);
        if h == 0 {
            continue;
        }
        let to = (shard as usize).min(inner.workers.len() - 1);
        let from = {
            let mut router = s.router.write().expect("router lock never poisoned");
            let from = router.route_hash(h);
            router.pin(&label, to as u32);
            from
        };
        if from == to {
            continue;
        }
        let (tx, rx) = channel();
        if !s.rings[from].push(ShardMsg::Extract { hash: h, reply: tx }) {
            return Err(CoreError::Closed);
        }
        let migration = rx.recv_timeout(ACK_TIMEOUT).map_err(|_| CoreError::Closed)?;
        if migration.state.is_empty() && migration.stash.is_empty() {
            continue;
        }
        let moved_state = !migration.state.is_empty();
        if !s.rings[to].push(ShardMsg::Adopt { migration }) {
            return Err(CoreError::Closed);
        }
        if moved_state {
            inner.bal.rebalances += 1;
        }
    }
    s.rebalances.store(inner.bal.rebalances, Ordering::SeqCst);
    Ok(())
}

/// The two-phase retention handoff: persist the over-budget prefix
/// into the spill tier (if any), and free it from RAM only once the
/// spill succeeded. Without a spill tier this is plain retention
/// eviction. On spill failure the prefix stays in RAM — an event is
/// never unreachable during the handoff.
fn spill_and_apply(spill: Option<&SegmentStore>, store: &mut ReportStore) -> Result<(), CoreError> {
    if let Some(seg) = spill {
        let staged = {
            let (first_seq, slice) = store.over_budget_prefix();
            if slice.is_empty() {
                Ok(0)
            } else {
                seg.spill(first_seq, slice)
            }
        };
        if let Err(e) = staged {
            return Err(CoreError::Durability(format!("segment spill failed: {e}")));
        }
    }
    store.apply_retention();
    Ok(())
}

/// One shard's worker loop: apply admitted cells, stash future ones,
/// close at barriers, drain and exit. The worker owns its [`Tiresias`]
/// outright — no lock is ever taken around shard state.
///
/// A shard error **poisons** the worker: further cells are dropped,
/// every subsequent ack repeats the error (the back-end latches the
/// first), and the shard's last good state survives for the final
/// checkpoint — mirroring the serving layer's fatal-error policy.
fn run_worker(
    idx: usize,
    mut shard: Box<Tiresias>,
    shared: &FrontShared,
    acks: &Sender<ShardAck>,
) -> Box<Tiresias> {
    let ring = &shared.rings[idx];
    // Any exit — normal drain, teardown, or a panic unwinding out of a
    // shard call — abandons the ring, so a producer blocked on a full
    // ring (possibly holding the gate's read lock) always unblocks
    // with `false` instead of wedging the whole engine.
    let _unblock_producers = crate::ring::AbandonOnDrop(ring);
    let timeunit = shared.timeunit;
    let mut stash = CellStash::default();
    let mut cursor = shard.store().next_seq();
    let mut poison: Option<CoreError> = None;
    // An error is acknowledged exactly once: the back-end latches it as
    // fatal, and the *next* barrier (typically the shutdown drain) then
    // completes cleanly so the shard's last good state still reaches
    // the checkpoint.
    let mut reported = false;
    // `pop` returns `None` only when the back-end was dropped without
    // a drain.
    while let Some(msg) = ring.pop() {
        match msg {
            ShardMsg::Cells { wm, chunk } => {
                if poison.is_none() && shard.current_unit().is_none() {
                    // First traffic on this shard: `wm` is the stream
                    // anchor (any later watermark would have been
                    // preceded by an aligning barrier in ring order).
                    if let Err(e) = shard.advance_to(wm * timeunit) {
                        poison_shard(shared, &mut poison, e);
                    }
                }
                if poison.is_none() {
                    let open = shard.current_unit().expect("aligned above");
                    for (path, unit, n) in chunk.cells() {
                        if unit > open {
                            stash.add(unit, path, n);
                        } else if let Err(e) = shard.push_count(path, unit * timeunit, n) {
                            poison_shard(shared, &mut poison, e);
                            break;
                        }
                    }
                }
                shared.queued[idx].fetch_sub(chunk.records(), Ordering::SeqCst);
                update_gauges(idx, &shard, &stash, shared);
            }
            ShardMsg::Barrier { seq, from, target } => {
                if poison.is_none() {
                    let t0 = Instant::now();
                    if let Err(e) = close_shard(&mut shard, &mut stash, from, target, timeunit) {
                        poison_shard(shared, &mut poison, e);
                    }
                    shared.telem.close.record_duration(t0.elapsed());
                }
                update_gauges(idx, &shard, &stash, shared);
                let error = if reported { None } else { poison.clone() };
                reported = poison.is_some();
                // While adaptive rebalancing is on, a healthy shard
                // reports the closed epoch's per-label loads with its
                // ack — the rebalancer's measurement. Nobody reads them
                // otherwise, so they are not computed.
                let loads = if poison.is_none() && shared.rebalance_on.load(Ordering::Relaxed) {
                    shard.top_level_unit_loads()
                } else {
                    Vec::new()
                };
                let _ = acks.send(make_ack(seq, &mut shard, &stash, &mut cursor, loads, error));
            }
            ShardMsg::Extract { hash, reply } => {
                // Sent only under the held write gate after this
                // shard's barrier ack: aligned, and nothing in flight.
                // A poisoned shard keeps its last good state instead —
                // it may no longer be aligned with the adopter.
                let (state, moved) = if poison.is_none() {
                    (
                        shard.extract_subtrees(|l| first_segment_hash(l) == hash),
                        stash.split_off_label(hash),
                    )
                } else {
                    (shard.extract_subtrees(|_| false), CellStash::default())
                };
                update_gauges(idx, &shard, &stash, shared);
                let _ = reply.send(Migration { state, stash: moved });
            }
            ShardMsg::Adopt { migration } => {
                if !migration.state.is_empty() {
                    shard.adopt_subtrees(migration.state);
                }
                stash.absorb(migration.stash);
                update_gauges(idx, &shard, &stash, shared);
            }
            ShardMsg::Drain { seq, from, align } => {
                if poison.is_none() {
                    if let Some(align) = align {
                        if let Err(e) = close_shard(&mut shard, &mut stash, from, align, timeunit) {
                            poison_shard(shared, &mut poison, e);
                        }
                    }
                }
                update_gauges(idx, &shard, &stash, shared);
                let error = if reported { None } else { poison.clone() };
                let _ =
                    acks.send(make_ack(seq, &mut shard, &stash, &mut cursor, Vec::new(), error));
                break;
            }
        }
    }
    shard
}

/// Records a shard error and closes admissions engine-wide: a broken
/// shard must not keep acknowledging records it will silently drop, so
/// every handle starts returning [`CoreError::Closed`] immediately —
/// the serving layer sees [`IngestHandle::is_poisoned`] and drains.
/// (Lock-free on purpose: a worker must never wait on the gate, or a
/// producer blocked on this worker's full ring would deadlock it.)
fn poison_shard(shared: &FrontShared, slot: &mut Option<CoreError>, e: CoreError) {
    if slot.is_none() {
        *slot = Some(e);
        shared.poisoned.store(true, Ordering::SeqCst);
        shared.closed.store(true, Ordering::SeqCst);
    }
}

/// Closes units `[from, target)` on one shard: align a never-touched
/// shard to `from`, apply the stashed cells whose unit is due — in
/// unit order, which the stash's map already is, letting the data
/// close intermediate units exactly as the offline engine's
/// `push_batch` would — then advance to `target`.
fn close_shard(
    shard: &mut Tiresias,
    stash: &mut CellStash,
    from: u64,
    target: u64,
    timeunit: u64,
) -> Result<(), CoreError> {
    if shard.current_unit().is_none() {
        shard.advance_to(from * timeunit)?;
    }
    while let Some((unit, bucket)) = stash.pop_due(target) {
        for (path, n) in bucket.cells() {
            shard.push_count(path, unit * timeunit, n)?;
        }
    }
    shard.advance_to(target * timeunit)
}

fn update_gauges(idx: usize, shard: &Tiresias, stash: &CellStash, shared: &FrontShared) {
    shared.open_records[idx].store(shard.open_records() as u64, Ordering::SeqCst);
    shared.stashed[idx].store(stash.records(), Ordering::SeqCst);
}

fn make_ack(
    seq: u64,
    shard: &mut Tiresias,
    stash: &CellStash,
    cursor: &mut u64,
    loads: Vec<(String, f64)>,
    error: Option<CoreError>,
) -> ShardAck {
    // Per-shard synthetic root events (level 0) are dropped, exactly as
    // the offline merge drops them (the shard root is not invariant).
    let (_skipped, tail) = shard.store().events_from(*cursor);
    let new: Vec<AnomalyEvent> = tail.iter().filter(|e| e.level >= 1).cloned().collect();
    *cursor = shard.store().next_seq();
    // This ack is the shard store's only consumer: truncate behind the
    // cursor so worker-owned stores stay bounded however long the
    // daemon runs.
    shard.store_mut().discard_through(*cursor);
    ShardAck {
        seq,
        events: new,
        stash_max: stash.max_unit(),
        units_processed: shard.units_processed(),
        loads,
        error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{builder, burst_batch, TempDir};

    /// Admits `records` as one [`RecordBatch`].
    fn admit_all(handle: &IngestHandle, records: &[(String, u64)], outcomes: &mut Vec<Admission>) {
        let mut batch = RecordBatch::new();
        for (path, t) in records {
            batch.push_str(path, *t).unwrap();
        }
        handle.admit_batch(&mut batch, outcomes).unwrap();
    }

    fn offline_replay(records: &[(String, u64)], shards: usize, close_to: u64) -> ShardedTiresias {
        let mut engine = builder().shards(shards).build_sharded().unwrap();
        engine.push_batch(records).unwrap();
        engine.advance_to(close_to * 900).unwrap();
        engine
    }

    #[test]
    fn live_matches_offline_replay() {
        let paths = ["TV/NoService", "Net/Slow", "Phone/Dead", "Mail/Bounce"];
        let records = burst_batch(&paths, 10, 9);
        let offline = offline_replay(&records, 4, 10);
        assert!(!offline.anomalies().is_empty(), "the burst is detected");

        let mut live = builder()
            .shards(4)
            .build_sharded()
            .unwrap()
            .into_live(DEFAULT_MAX_AHEAD_UNITS, None)
            .unwrap();
        let handle = live.handle();
        let mut outcomes = Vec::new();
        // Admit in small chunks, closing progressively like a
        // scheduler would.
        for (i, chunk) in records.chunks(97).enumerate() {
            admit_all(&handle, chunk, &mut outcomes);
            assert!(outcomes.iter().all(|&o| o == Admission::Accepted));
            if i % 3 == 2 {
                let target = chunk.last().unwrap().1 / 900;
                live.close_to(target).unwrap();
            }
        }
        live.close_to(10).unwrap();
        assert_eq!(live.anomalies(), offline.anomalies());
        assert_eq!(live.units_processed(), offline.units_processed());
        assert_eq!(live.watermark(), Some(10));

        let finished = live.finish().unwrap();
        assert_eq!(finished.anomalies(), offline.anomalies());
        assert_eq!(finished.heavy_hitter_paths(), offline.heavy_hitter_paths());
        assert_eq!(finished.tree_paths(), offline.tree_paths());
        assert_eq!(finished.current_unit(), Some(10));
    }

    #[test]
    fn future_records_stash_until_their_unit_opens() {
        let mut live = builder()
            .shards(2)
            .build_sharded()
            .unwrap()
            .into_live(DEFAULT_MAX_AHEAD_UNITS, None)
            .unwrap();
        let handle = live.handle();
        assert_eq!(handle.admit("a/x", 10).unwrap(), Admission::Accepted);
        assert_eq!(handle.admit("a/x", 5 * 900).unwrap(), Admission::Accepted, "5 units ahead");
        assert_eq!(handle.ahead_max_unit(), Some(5));
        assert!(handle.first_future_age().is_some());
        // Nothing closed yet: the future record is stashed, not fed.
        assert_eq!(live.units_processed(), 0);
        // Closing through the future unit feeds it; intermediate units
        // close as zero-count units exactly like the offline engine.
        live.close_to(5).unwrap();
        assert_eq!(live.units_processed(), 5);
        assert_eq!(handle.ahead_max_unit(), None, "stash fully consumed");
        let offline =
            offline_replay(&[("a/x".to_string(), 10), ("a/x".to_string(), 5 * 900)], 2, 5);
        let finished = live.finish().unwrap();
        assert_eq!(finished.anomalies(), offline.anomalies());
        assert_eq!(finished.units_processed(), offline.units_processed());
    }

    #[test]
    fn late_and_ahead_records_are_counted_exactly() {
        let mut live = builder().shards(2).build_sharded().unwrap().into_live(100, None).unwrap();
        let handle = live.handle();
        assert_eq!(handle.max_ahead_units(), 100);
        assert_eq!(handle.admit("a/x", 900).unwrap(), Admission::Accepted, "anchors at unit 1");
        assert_eq!(handle.admit("a/x", 10).unwrap(), Admission::Late, "unit 0 precedes anchor");
        assert_eq!(
            handle.admit("a/x", 102 * 900).unwrap(),
            Admission::TooFarAhead,
            "101 units ahead of the open unit exceeds the bound"
        );
        assert_eq!(handle.admit("a/x", 101 * 900).unwrap(), Admission::Accepted, "the boundary");
        live.close_to(2).unwrap();
        assert_eq!(handle.admit("a/x", 950).unwrap(), Admission::Late, "unit 1 closed now");
        assert_eq!(handle.admitted(), 2);
        assert_eq!(handle.late(), 2);
        assert_eq!(handle.ahead(), 1);
        // u64::MAX never anchors and never admits.
        assert_eq!(handle.admit("a/x", u64::MAX).unwrap(), Admission::TooFarAhead);
        drop(live);
        assert!(handle.is_closed());
        assert!(matches!(handle.admit("a/x", 2000), Err(CoreError::Closed)));
    }

    #[test]
    fn idle_shard_aligns_to_the_stream_anchor() {
        // Find two labels on different shards of a 2-shard router.
        let router = ShardRouter::new(2);
        let a = (0..64).map(|i| format!("a{i}/x")).find(|p| router.route(p) == 0).unwrap();
        let b = (0..64).map(|i| format!("b{i}/x")).find(|p| router.route(p) == 1).unwrap();
        let mut records: Vec<(String, u64)> = Vec::new();
        for u in 0..6u64 {
            for i in 0..8 {
                records.push((a.clone(), u * 900 + i));
            }
        }
        // Shard 1 sees nothing until unit 6: it must still have closed
        // units 0..6 as zero-count units, like the offline replay.
        for u in 6..10u64 {
            for i in 0..8 {
                records.push((a.clone(), u * 900 + i));
                records.push((b.clone(), u * 900 + i));
            }
        }
        let offline = offline_replay(&records, 2, 10);

        let mut live = builder()
            .shards(2)
            .build_sharded()
            .unwrap()
            .into_live(DEFAULT_MAX_AHEAD_UNITS, None)
            .unwrap();
        let handle = live.handle();
        let mut outcomes = Vec::new();
        let split = records.iter().position(|&(_, t)| t >= 6 * 900).unwrap();
        admit_all(&handle, &records[..split], &mut outcomes);
        live.close_to(6).unwrap();
        admit_all(&handle, &records[split..], &mut outcomes);
        live.close_to(10).unwrap();

        let finished = live.finish().unwrap();
        assert_eq!(finished.anomalies(), offline.anomalies());
        assert_eq!(finished.units_processed(), offline.units_processed());
        assert_eq!(finished.tree_paths(), offline.tree_paths());
    }

    #[test]
    fn finished_engine_checkpoints_and_resumes_identically() {
        let paths = ["TV/NoService", "Net/Slow", "Phone/Dead"];
        let records = burst_batch(&paths, 10, 8);
        let split = records.iter().position(|&(_, t)| t >= 6 * 900).unwrap();
        let offline = offline_replay(&records, 4, 10);

        // Phase one: live, drained mid-stream, serialised.
        let mut live = builder()
            .shards(4)
            .build_sharded()
            .unwrap()
            .into_live(DEFAULT_MAX_AHEAD_UNITS, None)
            .unwrap();
        let handle = live.handle();
        let mut outcomes = Vec::new();
        admit_all(&handle, &records[..split], &mut outcomes);
        live.close_to(4).unwrap();
        let drained = live.finish().unwrap();
        let json = serde_json::to_string(&drained).expect("serialises");
        drop(drained);

        // Phase two: resumed live, fed the rest.
        let resumed: ShardedTiresias = serde_json::from_str(&json).expect("deserialises");
        let mut live = resumed.into_live(DEFAULT_MAX_AHEAD_UNITS, None).unwrap();
        let handle = live.handle();
        admit_all(&handle, &records[split..], &mut outcomes);
        live.close_to(10).unwrap();
        let finished = live.finish().unwrap();

        assert_eq!(finished.anomalies(), offline.anomalies());
        assert_eq!(finished.heavy_hitter_paths(), offline.heavy_hitter_paths());
        assert_eq!(finished.units_processed(), offline.units_processed());
        assert!(!finished.anomalies().is_empty(), "the burst is detected");
    }

    #[test]
    fn concurrent_handles_agree_with_offline_replay() {
        let paths = ["a/x", "b/y", "c/z", "d/w", "e/v", "f/u"];
        let records = burst_batch(&paths, 8, 7);
        let mut live = builder()
            .shards(4)
            .build_sharded()
            .unwrap()
            .into_live(DEFAULT_MAX_AHEAD_UNITS, None)
            .unwrap();
        // Anchor deterministically before the race.
        assert_eq!(live.handle().admit(&records[0].0, records[0].1).unwrap(), Admission::Accepted);
        std::thread::scope(|scope| {
            for c in 0..8usize {
                let handle = live.handle();
                let records = &records[1..];
                scope.spawn(move || {
                    let mut outcomes = Vec::new();
                    for chunk in records.iter().skip(c).step_by(8).collect::<Vec<_>>().chunks(13) {
                        let owned: Vec<(String, u64)> = chunk.iter().map(|&r| r.clone()).collect();
                        admit_all(&handle, &owned, &mut outcomes);
                        assert!(outcomes.iter().all(|&o| o == Admission::Accepted));
                    }
                });
            }
        });
        assert_eq!(live.handle().admitted(), records.len() as u64);
        live.close_to(8).unwrap();
        let finished = live.finish().unwrap();
        let offline = offline_replay(&records, 4, 8);
        assert_eq!(finished.anomalies(), offline.anomalies());
        assert_eq!(finished.heavy_hitter_paths(), offline.heavy_hitter_paths());
        assert_eq!(finished.tree_paths(), offline.tree_paths());
    }

    #[test]
    fn gauges_track_rings_and_open_units() {
        let mut live = builder()
            .shards(2)
            .build_sharded()
            .unwrap()
            .into_live(DEFAULT_MAX_AHEAD_UNITS, None)
            .unwrap();
        let handle = live.handle();
        assert_eq!(handle.shard_count(), 2);
        assert_eq!(handle.timeunit_secs(), 900);
        assert_eq!(handle.ring_depths(), vec![0, 0]);
        handle.admit("a/x", 10).unwrap();
        handle.admit("b/y", 20).unwrap();
        handle.admit("a/x", 2 * 900).unwrap(); // future: stashed
        live.close_to(1).unwrap(); // barrier ⇒ workers fully caught up
        assert_eq!(handle.ring_depths(), vec![0, 0], "rings drained past the barrier");
        assert_eq!(handle.shard_open_records().iter().sum::<u64>(), 0, "open unit reset");
        assert_eq!(handle.stashed_records().iter().sum::<u64>(), 1, "future record held");
        assert!(handle.first_admit_age().is_some());
        assert_eq!(handle.admitted(), 3);
        assert_eq!(live.units_processed(), 1);
        let finished = live.finish().unwrap();
        assert_eq!(finished.current_unit(), Some(2), "drain opened the stashed unit");
    }

    #[test]
    fn absurd_first_timestamps_cannot_anchor_or_overflow() {
        // timeunit 1 s makes unit == timestamp, the worst case for the
        // sentinel/overflow guards.
        let mut live = TiresiasBuilder::new()
            .timeunit_secs(1)
            .window_len(8)
            .threshold(5.0)
            .season_length(4)
            .sensitivity(2.0, 5.0)
            .warmup_units(2)
            .shards(2)
            .build_sharded()
            .unwrap()
            .into_live(10, None)
            .unwrap();
        let handle = live.handle();
        assert_eq!(
            handle.admit("a/x", u64::MAX).unwrap(),
            Admission::TooFarAhead,
            "a sentinel-range timestamp must not anchor the stream"
        );
        assert_eq!(handle.watermark(), None);
        assert_eq!(handle.ahead(), 1);
        // A sane record then anchors normally and closes still work.
        assert_eq!(handle.admit("a/x", 5).unwrap(), Admission::Accepted);
        assert_eq!(handle.watermark(), Some(5));
        assert_eq!(live.close_to(6).unwrap(), Some(6));
        assert_eq!(live.units_processed(), 1);
    }

    #[test]
    fn empty_engine_finishes_clean() {
        let live = builder()
            .shards(3)
            .build_sharded()
            .unwrap()
            .into_live(DEFAULT_MAX_AHEAD_UNITS, None)
            .unwrap();
        assert_eq!(live.watermark(), None);
        let finished = live.finish().unwrap();
        assert_eq!(finished.current_unit(), None);
        assert_eq!(finished.units_processed(), 0);
        assert!(finished.anomalies().is_empty());
    }

    #[test]
    fn wal_replay_reconstructs_the_acked_stream() {
        use crate::wal::{read_wal, WalEntry, WalSyncPolicy, DEFAULT_WAL_SEGMENT_BYTES};

        let paths = ["TV/NoService", "Net/Slow", "Phone/Dead"];
        let records = burst_batch(&paths, 10, 9);
        let dir = TempDir::new("live-wal-replay");

        // First life: a durable live engine admits in chunks with
        // interleaved closes, then is dropped without a drain — the
        // crash shape. Everything acked is in the WAL.
        let (wal, rec) =
            Wal::open(&dir, WalSyncPolicy::EveryBatch, DEFAULT_WAL_SEGMENT_BYTES).unwrap();
        assert!(rec.entries.is_empty());
        let mut live = builder()
            .shards(4)
            .build_sharded()
            .unwrap()
            .into_live(DEFAULT_MAX_AHEAD_UNITS, Some(Arc::new(wal)))
            .unwrap();
        let handle = live.handle();
        let mut outcomes = Vec::new();
        for (i, chunk) in records.chunks(101).enumerate() {
            admit_all(&handle, chunk, &mut outcomes);
            if i % 2 == 1 {
                live.close_to(chunk.last().unwrap().1 / 900).unwrap();
            }
        }
        live.close_to(10).unwrap();
        let expected = live.anomalies();
        assert!(!expected.is_empty(), "the burst is detected");
        drop(live);

        // Second life: replay the recovered WAL entries through a
        // fresh live engine, in order — batches re-admit, closes
        // re-close. The merged stream must match exactly.
        let recovered = read_wal(&dir).unwrap();
        assert!(!recovered.repaired(), "clean log");
        let mut live = builder()
            .shards(4)
            .build_sharded()
            .unwrap()
            .into_live(DEFAULT_MAX_AHEAD_UNITS, None)
            .unwrap();
        let handle = live.handle();
        for entry in recovered.entries {
            match entry {
                WalEntry::Batch { records, .. } => {
                    admit_all(&handle, &records, &mut outcomes);
                    assert!(outcomes.iter().all(|&o| o == Admission::Accepted));
                }
                WalEntry::Close { target, .. } => {
                    live.close_to(target).unwrap();
                }
            }
        }
        assert_eq!(live.anomalies(), expected);
    }

    #[test]
    fn wal_append_failure_pauses_admission_without_closing_the_engine() {
        use crate::wal::WalSyncPolicy;

        let dir = TempDir::new("live-wal-pause");
        // 1-byte segments force a rotation (a new file in `dir`) on
        // every append, so deleting the directory makes the next
        // append fail like a dying disk would.
        let (wal, _) = Wal::open(&dir, WalSyncPolicy::Never, 1).unwrap();
        let mut live = builder()
            .shards(2)
            .build_sharded()
            .unwrap()
            .into_live(DEFAULT_MAX_AHEAD_UNITS, Some(Arc::new(wal)))
            .unwrap();
        let handle = live.handle();
        let mut outcomes = Vec::new();
        let mut batch = RecordBatch::new();
        batch.push_str("TV/NoService", 5).unwrap();
        handle.admit_batch(&mut batch, &mut outcomes).unwrap();

        std::fs::remove_dir_all(&dir).unwrap();
        let mut batch = RecordBatch::new();
        batch.push_str("TV/NoService", 6).unwrap();
        let err = handle.admit_batch(&mut batch, &mut outcomes).unwrap_err();
        assert!(matches!(err, CoreError::WalUnavailable(_)), "{err}");
        assert!(!handle.is_closed(), "a WAL hiccup is not a teardown");
        assert!(!handle.is_poisoned());
        assert!(handle.is_wal_paused());
        assert_eq!(handle.wal_errors(), 1);

        // While paused, batches refuse up front without touching the
        // log (and keep counting).
        let mut batch = RecordBatch::new();
        batch.push_str("TV/NoService", 7).unwrap();
        let err = handle.admit_batch(&mut batch, &mut outcomes).unwrap_err();
        assert!(matches!(err, CoreError::WalUnavailable(_)), "{err}");
        assert_eq!(handle.wal_errors(), 2);

        // The disk comes back and the serving layer clears the pause:
        // admission resumes on the same live engine — nothing was
        // drained or restarted.
        std::fs::create_dir_all(&dir).unwrap();
        handle.set_wal_paused(false);
        let mut batch = RecordBatch::new();
        batch.push_str("TV/NoService", 8).unwrap();
        handle.admit_batch(&mut batch, &mut outcomes).unwrap();
        assert_eq!(outcomes, [Admission::Accepted]);
        assert_eq!(handle.admitted(), 2, "only the logged records were acknowledged");
        live.close_to(1).unwrap();
    }

    #[test]
    fn retention_spills_to_segments_and_reader_merges_tiers() {
        let paths = ["TV/NoService", "Net/Slow", "Phone/Dead", "Mail/Bounce"];
        // Burst early (unit 6) so its events age past the 2-unit
        // retention budget by the time unit 12 closes — forcing a
        // spill to the archive tier.
        let records = burst_batch(&paths, 12, 6);
        let dir = TempDir::new("live-spill");

        // Unbounded reference: every event the stream produces.
        let offline = offline_replay(&records, 4, 12);
        let all_events = offline.anomalies().to_vec();
        assert!(!all_events.is_empty());

        let mut live = builder()
            .shards(4)
            .build_sharded()
            .unwrap()
            .into_live(DEFAULT_MAX_AHEAD_UNITS, None)
            .unwrap();
        let seg =
            Arc::new(SegmentStore::open(&dir, crate::segments::DEFAULT_SEGMENT_BYTES).unwrap());
        live.set_spill(Arc::clone(&seg));
        live.set_retention(Some(2)).unwrap();
        let reader = live.reader();
        let handle = live.handle();
        let mut outcomes = Vec::new();
        for chunk in records.chunks(257) {
            admit_all(&handle, chunk, &mut outcomes);
            live.close_to(chunk.last().unwrap().1 / 900).unwrap();
        }
        live.close_to(12).unwrap();

        // RAM holds only the retention budget; the rest was spilled,
        // not dropped.
        let (ram_from, ram_len) = reader.with(|s| (s.retained_from(), s.len()));
        assert!(ram_from > 0, "eviction happened");
        assert!(seg.next_seq() > 0, "spill happened");
        assert!(ram_len < all_events.len());

        // The merged query sees the full history, in order, across
        // both tiers — byte-identical to the unbounded replay.
        let merged = reader.query_merged(0, 12, None, None, usize::MAX).unwrap();
        assert_eq!(merged, all_events);

        // Tier boundary is clean: the archive answers only below
        // `retained_from`, RAM only at or above it.
        assert!(merged.iter().filter(|e| e.unit < ram_from).count() > 0);
        let disk_only = reader.query_merged(0, ram_from - 1, None, None, usize::MAX).unwrap();
        assert!(disk_only.iter().all(|e| e.unit < ram_from));
    }

    #[test]
    fn live_rebalancing_matches_offline_replay() {
        let paths = ["TV/NoService", "Net/Slow", "Phone/Dead", "Mail/Bounce", "Web/500"];
        // Skewed: the first label dominates, so the adaptive rebalancer
        // has real moves to make at nearly every barrier.
        let mut records: Vec<(String, u64)> = Vec::new();
        for u in 0..12u64 {
            for (k, p) in paths.iter().enumerate() {
                let count = if k == 0 {
                    60
                } else if u == 10 && k == 1 {
                    90
                } else {
                    6
                };
                for i in 0..count {
                    records.push((p.to_string(), u * 900 + i));
                }
            }
        }
        let offline = offline_replay(&records, 4, 12);
        assert!(!offline.anomalies().is_empty(), "the burst is detected");

        let mut live = builder()
            .shards(4)
            .build_sharded()
            .unwrap()
            .into_live(DEFAULT_MAX_AHEAD_UNITS, None)
            .unwrap();
        live.set_rebalance(RebalanceConfig::enabled().with_threshold(1.05));
        let handle = live.handle();
        let mut outcomes = Vec::new();
        for (i, chunk) in records.chunks(151).enumerate() {
            admit_all(&handle, chunk, &mut outcomes);
            assert!(outcomes.iter().all(|&o| o == Admission::Accepted));
            if i % 2 == 1 {
                live.close_to(chunk.last().unwrap().1 / 900).unwrap();
            }
        }
        live.close_to(12).unwrap();
        assert!(live.rebalances() > 0, "the skew forced moves");
        assert!(live.pinned_labels() > 0);
        assert!(live.shard_balance() >= 1.0);
        assert_eq!(live.anomalies(), offline.anomalies());

        // The reassembled engine checkpoints with the learned placement.
        let finished = live.finish().unwrap();
        assert!(finished.router().pinned_count() > 0);
        assert_eq!(finished.anomalies(), offline.anomalies());
        assert_eq!(finished.heavy_hitter_paths(), offline.heavy_hitter_paths());
        assert_eq!(finished.tree_paths(), offline.tree_paths());
    }

    #[test]
    fn barrier_acks_carry_loads_only_while_rebalancing_is_on() {
        // `shard_balance` is computed from the loads the barrier acks
        // carry and stays at its "never measured" 0.0 while they carry
        // none — so it shows, from outside the workers, whether they
        // computed `top_level_unit_loads`.
        let paths = ["TV/NoService", "Net/Slow", "Phone/Dead", "Mail/Bounce", "Web/500"];
        let records = burst_batch(&paths, 6, 5);
        let mut live = builder()
            .shards(4)
            .build_sharded()
            .unwrap()
            .into_live(DEFAULT_MAX_AHEAD_UNITS, None)
            .unwrap();
        let handle = live.handle();
        let mut outcomes = Vec::new();
        let split = records.iter().position(|&(_, t)| t >= 3 * 900).unwrap();
        admit_all(&handle, &records[..split], &mut outcomes);
        live.close_to(3).unwrap();
        assert_eq!(live.units_processed(), 3);
        assert_eq!(live.shard_balance(), 0.0, "off: three barriers, no loads in any ack");
        assert_eq!(handle.shard_balance(), 0.0);

        live.set_rebalance(RebalanceConfig::enabled());
        admit_all(&handle, &records[split..], &mut outcomes);
        live.close_to(6).unwrap();
        assert!(live.shard_balance() >= 1.0, "on: the acks carried the epoch's loads");

        live.set_rebalance(RebalanceConfig::default());
        let before = live.shard_balance();
        handle.admit("TV/NoService", 6 * 900).unwrap();
        live.close_to(7).unwrap();
        assert_eq!(live.shard_balance(), before, "off again: nothing new measured");
    }

    #[test]
    fn live_pins_transplant_subtrees_and_stashes() {
        let paths = ["TV/NoService", "Net/Slow", "Phone/Dead", "Mail/Bounce"];
        let records = burst_batch(&paths, 10, 9);
        // The reference stream includes the future record the live run
        // admits out of band below (inserted in unit order, as the
        // offline batch contract requires).
        let mut offline_records = records.clone();
        let pos = offline_records.iter().position(|&(_, t)| t >= 7 * 900).unwrap();
        offline_records.insert(pos, ("TV/NoService".to_string(), 7 * 900));
        let offline = offline_replay(&offline_records, 2, 10);

        let mut live = builder()
            .shards(2)
            .build_sharded()
            .unwrap()
            .into_live(DEFAULT_MAX_AHEAD_UNITS, None)
            .unwrap();
        let handle = live.handle();
        let mut outcomes = Vec::new();
        let split = records.iter().position(|&(_, t)| t >= 5 * 900).unwrap();
        admit_all(&handle, &records[..split], &mut outcomes);
        // A stashed future record for a label about to move migrates
        // with its subtree.
        assert_eq!(handle.admit("TV/NoService", 7 * 900).unwrap(), Admission::Accepted);
        // Consolidate everything onto shard 1 mid-stream.
        for label in ["TV", "Net", "Phone", "Mail"] {
            live.pin_label(label, 1);
        }
        live.close_to(5).unwrap();
        assert!(live.rebalances() > 0);
        assert_eq!(live.pinned_labels(), 4);
        admit_all(&handle, &records[split..], &mut outcomes);
        live.close_to(10).unwrap();

        let finished = live.finish().unwrap();
        assert_eq!(finished.anomalies(), offline.anomalies());
        assert_eq!(finished.heavy_hitter_paths(), offline.heavy_hitter_paths());
        assert_eq!(finished.tree_paths(), offline.tree_paths());
        assert!(!finished.anomalies().is_empty(), "the burst is detected");
    }

    #[test]
    fn close_before_any_record_is_a_noop() {
        let mut live = builder()
            .shards(2)
            .build_sharded()
            .unwrap()
            .into_live(DEFAULT_MAX_AHEAD_UNITS, None)
            .unwrap();
        assert_eq!(live.close_to(5).unwrap(), None);
        let handle = live.handle();
        handle.admit("a/x", 0).unwrap();
        assert_eq!(live.close_to(0).unwrap(), Some(0), "clamped: nothing below the watermark");
        assert_eq!(live.units_processed(), 0);
    }
}
