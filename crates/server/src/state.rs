//! Serving state around the live engine: the wall-clock close
//! scheduler, the drain/checkpoint lifecycle and the `STATS` snapshot.
//!
//! Since the lock-free-admission refactor the `PUSH` hot path does not
//! live here at all: sessions admit records straight through a cloned
//! [`tiresias_core::IngestHandle`] — routing, late/ahead validation
//! against the atomic timeunit watermark and the per-shard ring
//! hand-off all happen in `tiresias-core` without any server lock.
//! The **read path** is lock-light too: `QUERY` sessions and
//! `SUBSCRIBE FROM` replays read the engine's retained
//! [`tiresias_core::ReportStore`] through a [`ReportReader`] — the
//! read side of a read-mostly lock whose write side is taken only for
//! the per-close merge, so queries never stall admission. What remains
//! behind the [`Inner`] mutex is exactly the serialized back-end work:
//! timeunit closes, event broadcasting, `STATS` composition, the
//! shutdown drain and the checkpoint.
//!
//! # How live timeunits close
//!
//! The offline engines close a timeunit when a record of a *later*
//! unit arrives — correct for replays, useless for live traffic where
//! concurrent clients interleave and traffic may simply stop. The
//! scheduler instead closes the engine's open unit (its **watermark**)
//! under two rules, both guarded by a configurable **grace window**
//! for late records:
//!
//! 1. **Data watermark** — a record of a later unit arrived at least
//!    `grace` ago: every unit up to that record's unit closes (the
//!    grace window gives slower clients time to deliver stragglers of
//!    the closing unit). The front-end tracks the newest future unit
//!    and the age of the oldest outstanding future record atomically.
//! 2. **Wall-clock cadence** — the open unit has been open for
//!    `timeunit + grace` of real time: it closes even with no newer
//!    traffic, so silence produces the zero-count units the
//!    forecasters need and anomalies are still reported on time.
//!
//! Each close is one [`LiveSharded::close_to`] epoch flip: admissions
//! stall only for the microseconds the watermark barrier is held, and
//! records admitted before the flip land in their unit exactly (see
//! the `tiresias_core::live` module docs for the barrier argument).
//! The newly final events land in the retained store and are broadcast
//! by **global store sequence**: the broadcast cursor is a sequence
//! number, which is also what lets a `SUBSCRIBE FROM` replay hand over
//! to the live stream with no gap and no duplicate.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tiresias_core::{
    save_sharded_checkpoint, save_sharded_checkpoint_with_wal, CoreError, IngestHandle,
    LiveSharded, ReportReader, SegmentStore, ShardedTiresias, Wal,
};
use tiresias_telemetry::{Field, RateMeter};

use crate::hub::Hub;
use crate::protocol::format_event;
use crate::telemetry::ServerTelemetry;

/// The durability attachments of a `--data-dir` deployment: the WAL
/// the live engine appends to, the segment archive retention spills
/// into, and what startup recovery replayed (both zero after a clean
/// restart).
pub(crate) struct Durability {
    pub wal: Arc<Wal>,
    pub segments: Arc<SegmentStore>,
    pub recovered_batches: u64,
    pub recovered_units: u64,
}

impl std::fmt::Debug for Durability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Durability")
            .field("recovered_batches", &self.recovered_batches)
            .field("recovered_units", &self.recovered_units)
            .finish_non_exhaustive()
    }
}

/// The serialized back-end state, locked as one unit — never touched
/// by the `PUSH` hot path.
#[derive(Debug)]
pub(crate) struct Inner {
    /// The running engine; taken by the shutdown drain.
    live: Option<LiveSharded>,
    /// The reassembled offline engine after the drain (checkpoint
    /// source).
    drained: Option<ShardedTiresias>,
    handle: IngestHandle,
    /// Read handle onto the retained report store (stays valid across
    /// the drain).
    reader: ReportReader,
    timeunit: u64,
    grace: Duration,
    /// Wall-clock instant the current open unit became current.
    open_since: Option<Instant>,
    /// Watermark as of the last tick, to spot the first record (and
    /// any close) and re-anchor `open_since`.
    last_watermark: Option<u64>,
    /// Broadcast cursor: the store sequence number up to which events
    /// were already broadcast.
    event_seq: u64,
    /// A non-recoverable engine error: reported to every client and
    /// surfaced through [`Inner::tick`] so the scheduler initiates the
    /// graceful shutdown (the final checkpoint then keeps the last
    /// good engine state).
    fatal: Option<String>,
    /// WAL + segment archive of a `--data-dir` deployment (`None`
    /// without one).
    durability: Option<Durability>,
    /// Windowed `STATS rps` meter over the monotone admitted total —
    /// a rate since the last `STATS`, not a lifetime average, and
    /// immune to the divide-by-zero / negative-window edge cases of
    /// wall-clock arithmetic.
    rate: RateMeter,
    /// Back-end telemetry hooks (broadcast histogram, slow-op log);
    /// `None` until the server wires its registry in.
    telem: Option<ServerTelemetry>,
}

impl Inner {
    pub fn new(live: LiveSharded, grace: Duration) -> Self {
        let handle = live.handle();
        let reader = live.reader();
        let timeunit = handle.timeunit_secs();
        // A resumed checkpoint has an open unit already; anchor its
        // wall-clock window at construction time.
        let last_watermark = handle.watermark();
        Inner {
            live: Some(live),
            drained: None,
            handle,
            reader,
            timeunit,
            grace,
            open_since: last_watermark.map(|_| Instant::now()),
            last_watermark,
            event_seq: 0,
            fatal: None,
            durability: None,
            rate: RateMeter::new(),
            telem: None,
        }
    }

    /// Attaches the server's telemetry (broadcast timing, slow-op log)
    /// once the registry is assembled.
    pub fn set_telemetry(&mut self, telem: ServerTelemetry) {
        self.telem = Some(telem);
    }

    /// Attaches the durability tier (WAL, segment archive, recovery
    /// counters) so ticks drive the interval fsync policy, `STATS`
    /// reports the gauges and the shutdown checkpoint records the WAL
    /// watermark.
    pub fn set_durability(&mut self, durability: Durability) {
        self.durability = Some(durability);
    }

    /// A front-end handle for a session thread (cheap clone).
    pub fn handle(&self) -> IngestHandle {
        self.handle.clone()
    }

    /// A read handle onto the retained report store (cheap clone; used
    /// by `QUERY` sessions without ever taking the state lock).
    pub fn reader(&self) -> ReportReader {
        self.reader.clone()
    }

    /// Resuming from a checkpoint: events stored before the restart
    /// were already delivered in the previous incarnation — only
    /// broadcast what this run produces. The retained history stays
    /// queryable and replayable.
    pub fn skip_stored_events(&mut self) {
        self.event_seq = self.reader.with(|s| s.next_seq());
    }

    pub fn fatal(&self) -> Option<&str> {
        self.fatal.as_deref()
    }

    /// Scheduler tick: applies the two close rules from the module
    /// docs. Returns the fatal error so the scheduler can begin the
    /// shutdown.
    pub fn tick(&mut self, now: Instant, hub: &Hub) -> Result<(), String> {
        if let Some(why) = &self.fatal {
            return Err(why.clone());
        }
        if self.live.is_none() {
            return Ok(());
        }
        if self.handle.is_poisoned() {
            // A shard worker hit an engine error and closed admissions
            // itself; don't wait for the next barrier to learn the
            // detail — shut down now so the drain checkpoints the last
            // good state.
            let why = "engine error: a shard failed; draining".to_string();
            self.fatal = Some(why.clone());
            return Err(why);
        }
        if let Some(d) = &self.durability {
            // The interval fsync policy piggybacks on the scheduler
            // tick; `every`/`none` make this a no-op. A WAL failure is
            // NOT fatal: admission pauses (every batch refused with
            // `ERR wal`, nothing acknowledged that the log can't
            // persist) and each tick probes the log with a sync until
            // the disk recovers — a hiccup degrades service instead of
            // ending the daemon.
            if self.handle.is_wal_paused() {
                match d.wal.sync_now() {
                    Ok(()) => {
                        self.handle.set_wal_paused(false);
                        eprintln!("tiresias-server: WAL recovered; admission resumed");
                    }
                    Err(_) => return Ok(()), // still down; keep refusing
                }
            } else {
                let slow = self.telem.as_ref().and_then(|t| t.slow.as_deref());
                let t0 = slow.map(|_| Instant::now());
                if let Err(e) = d.wal.maybe_sync() {
                    eprintln!("tiresias-server: WAL fsync failed: {e}; admission paused");
                    self.handle.count_wal_error();
                    self.handle.set_wal_paused(true);
                    return Ok(());
                }
                if let (Some(slow), Some(t0)) = (slow, t0) {
                    slow.record(
                        "fsync",
                        t0.elapsed(),
                        &[("wal_seq", Field::from(d.wal.last_seq()))],
                    );
                }
            }
        }
        let Some(watermark) = self.handle.watermark() else {
            return Ok(());
        };
        if self.last_watermark != Some(watermark) {
            // First record ever (or a close we didn't anchor yet):
            // start the open unit's wall-clock window.
            self.last_watermark = Some(watermark);
            self.open_since = Some(now);
        }
        // Rule 1: data watermark + grace. The front-end tracks the
        // newest admitted future unit and the arrival age of the
        // oldest one still outstanding.
        if let (Some(target), Some(age)) =
            (self.handle.ahead_max_unit(), self.handle.first_future_age())
        {
            if age >= self.grace {
                self.close_to(target, now, hub)?;
                return Ok(());
            }
        }
        // Rule 2: wall-clock cadence.
        if let Some(since) = self.open_since {
            let window = Duration::from_secs(self.timeunit) + self.grace;
            if now.duration_since(since) >= window {
                self.close_to(watermark + 1, now, hub)?;
            }
        }
        Ok(())
    }

    /// One epoch flip: close through `target`, re-anchor the
    /// wall-clock window and broadcast the newly merged events.
    fn close_to(&mut self, target: u64, now: Instant, hub: &Hub) -> Result<(), String> {
        let from = self.last_watermark;
        let t0 = self.telem.as_ref().map(|_| Instant::now());
        let live = self.live.as_mut().expect("tick checked the engine is live");
        let result = live.close_to(target);
        self.last_watermark = self.handle.watermark();
        self.open_since = Some(now);
        // Merged events (if any) are broadcast even when a shard
        // failed: the healthy shards' anomalies still reached the
        // store.
        self.broadcast_new(hub);
        if let (Some(t0), Some(slow)) = (t0, self.telem.as_ref().and_then(|t| t.slow.as_deref())) {
            slow.record(
                "close",
                t0.elapsed(),
                &[
                    ("target", Field::from(target)),
                    ("from", Field::from(from.unwrap_or(0))),
                    ("events", Field::from(self.event_seq)),
                ],
            );
        }
        match result {
            Ok(_) => Ok(()),
            // The close's WAL frame could not append: the watermark
            // never flipped and admission is now WAL-paused — the
            // close retries on a later tick once the log recovers.
            Err(CoreError::WalUnavailable(_)) => Ok(()),
            Err(e) => Err(self.mark_fatal(&e)),
        }
    }

    /// Broadcasts events the engine finalised since the last call,
    /// advancing the sequence cursor. Events evicted before they could
    /// broadcast (a retention budget smaller than one close sweep)
    /// are skipped; the store's eviction counter accounts for them.
    fn broadcast_new(&mut self, hub: &Hub) {
        let (frames, next_seq) = self.reader.with(|s| {
            let (_skipped, tail) = s.events_from(self.event_seq);
            let frames: Vec<(u64, String)> =
                tail.iter().map(|e| (e.unit, format_event(e))).collect();
            (frames, s.next_seq())
        });
        self.event_seq = next_seq;
        if frames.is_empty() {
            return;
        }
        let t0 = self.telem.as_ref().map(|_| Instant::now());
        hub.broadcast(&frames);
        if let (Some(t0), Some(t)) = (t0, &self.telem) {
            t.broadcast.record_duration(t0.elapsed());
        }
    }

    fn mark_fatal(&mut self, e: &CoreError) -> String {
        let why = format!("engine error: {e}");
        self.fatal = Some(why.clone());
        // Stop acknowledging records the engine may no longer ingest.
        if let Some(live) = self.live.as_mut() {
            live.close_admissions();
        }
        why
    }

    /// The unit a fresh subscription resumes from, for the
    /// `OK subscribed from=<unit>` reply: the requested unit clamped to
    /// the retained horizon, or the next unit to close for a live-only
    /// subscribe.
    pub fn resume_unit(&self, from: Option<u64>) -> u64 {
        match from {
            Some(f) => {
                // With a segment archive the replayable horizon reaches
                // past RAM retention, down to the oldest archived unit.
                let floor = self
                    .reader
                    .archive()
                    .and_then(SegmentStore::first_unit)
                    .unwrap_or_else(|| self.reader.with(|s| s.retained_from()));
                f.max(floor)
            }
            None => self.reader.with(|s| s.last_closed_unit().map_or(0, |u| u + 1)),
        }
    }

    /// Copies up to `max` retained replay frames for a `SUBSCRIBE FROM`
    /// catch-up: events at store sequence `≥ pos` that were already
    /// broadcast (sequence below the broadcast cursor) and belong to
    /// units `≥ from_unit`. Returns the frames, the next cursor
    /// position, and whether the replay has caught up with the live
    /// broadcast horizon — at which point registering with the hub
    /// under the same state lock splices the streams gap-free.
    pub fn replay_chunk(&self, pos: u64, from_unit: u64, max: usize) -> (Vec<String>, u64, bool) {
        // Archive tier first: sequences the RAM store already evicted
        // replay straight from the segment files, then the cursor
        // crosses seamlessly into the RAM path below (the tiers
        // partition the sequence space). Only consulted when the
        // requested unit actually predates RAM retention.
        if let Some(seg) = self.reader.archive() {
            let ram_first = self.reader.with(|s| s.first_seq());
            let ram_retained_from = self.reader.with(|s| s.retained_from());
            if pos < ram_first && pos < seg.next_seq() && from_unit < ram_retained_from {
                match seg.read_from_seq(pos, max) {
                    Ok((start, events)) if !events.is_empty() => {
                        let next = start + events.len() as u64;
                        let lines = events
                            .iter()
                            .filter(|e| e.unit >= from_unit)
                            .map(format_event)
                            .collect();
                        return (lines, next, false);
                    }
                    // Empty or unreadable archive: fall through to the
                    // RAM path, which skips the missing prefix.
                    _ => {}
                }
            }
        }
        self.reader.with(|s| {
            // Skip the non-matching prefix via the store's unit index
            // instead of scanning it — the state lock is held here.
            let pos = pos.max(s.seq_lower_bound(from_unit));
            let (skipped, tail) = s.events_from(pos);
            let mut next = pos + skipped;
            let mut lines = Vec::new();
            for e in tail {
                if next >= self.event_seq || lines.len() >= max {
                    break;
                }
                if e.unit >= from_unit {
                    lines.push(format_event(e));
                }
                next += 1;
            }
            (lines, next, next >= self.event_seq)
        })
    }

    /// Shutdown drain: admission stops (anything accepted after the
    /// final checkpoint would be acknowledged and then silently lost),
    /// every ring and held-back future record is fed — closing exactly
    /// the units the data itself closes, the last unit staying open so
    /// a restarted server resumes mid-unit — the final events are
    /// broadcast, and the engine reassembles into its offline form for
    /// the checkpoint. The report store stays readable: `QUERY` keeps
    /// answering from the retained history after the drain.
    pub fn drain(&mut self, hub: &Hub) -> Result<(), CoreError> {
        let Some(live) = self.live.take() else {
            return Ok(());
        };
        match live.finish() {
            Ok(engine) => {
                self.drained = Some(engine);
                self.broadcast_new(hub);
                Ok(())
            }
            Err(e) => {
                self.fatal.get_or_insert(format!("engine error: {e}"));
                Err(e)
            }
        }
    }

    /// Serialises the drained engine into the versioned checkpoint
    /// envelope — stamped with the WAL watermark when durability is on,
    /// so recovery replays only entries the checkpoint doesn't already
    /// contain. `None` before [`Inner::drain`] succeeded.
    pub fn checkpoint_json(&self) -> Option<String> {
        self.drained.as_ref().map(|engine| match &self.durability {
            Some(d) => save_sharded_checkpoint_with_wal(engine, d.wal.last_seq()),
            None => save_sharded_checkpoint(engine),
        })
    }

    /// After the checkpoint durably landed: drops the WAL segments it
    /// made redundant. Best-effort — a failure leaves extra (harmless)
    /// replay work for the next start.
    pub fn truncate_consumed_wal(&self) {
        if let Some(d) = &self.durability {
            let _ = d.wal.truncate_consumed(d.wal.last_seq());
        }
    }

    /// One-line `STATS` reply (see the protocol docs). Reads only the
    /// front-end's atomic gauges, the report store's read lock and the
    /// back-end merge cursor — it never stalls admission. `top_paths`
    /// is the server's Space-Saving hot-path gauge, `session_dropped`
    /// the requesting session's lost-event counter, `reaped_sessions`
    /// the server's idle-session reap counter and `proto` the
    /// wire-protocol accounting (live sessions per protocol, v2 frame
    /// and dictionary totals).
    pub fn stats_line(
        &self,
        hub: &Hub,
        top_paths: &str,
        session_dropped: u64,
        reaped_sessions: u64,
        proto: &crate::telemetry::ProtoCounters,
    ) -> String {
        let handle = &self.handle;
        let records = handle.admitted();
        // Windowed rate since the previous STATS, off the monotonic
        // clock — the first call (no window yet) reports 0.
        let rps = self.rate.observe(records);
        let rings = handle.ring_depths();
        let shard_open = handle.shard_open_records();
        let stashed = handle.stashed_records();
        let pending: u64 = rings.iter().sum::<u64>() + stashed.iter().sum::<u64>();
        let joined = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join("|");
        let open_unit = handle.watermark().map_or_else(|| "-".to_string(), |u| u.to_string());
        let units = match (&self.live, &self.drained) {
            (Some(live), _) => live.units_processed(),
            (None, Some(engine)) => engine.units_processed(),
            _ => 0,
        };
        let (events, evicted, retained_units, retain, last_closed) = self.reader.with(|s| {
            (
                s.len(),
                s.evicted_events(),
                s.retained_unit_count(),
                s.retention().map_or_else(|| "-".to_string(), |u| u.to_string()),
                s.last_closed_unit().map_or_else(|| "-".to_string(), |u| u.to_string()),
            )
        });
        // Durability gauges: all-zero without a `--data-dir` (the
        // fields stay present so parsers need no branching).
        let (wal_seq, wal_bytes, wal_fsyncs, segments, segment_units, rec_batches, rec_units) =
            match &self.durability {
                Some(d) => (
                    d.wal.last_seq(),
                    d.wal.bytes(),
                    d.wal.fsyncs(),
                    d.segments.file_count() as u64,
                    d.segments.block_count() as u64,
                    d.recovered_batches,
                    d.recovered_units,
                ),
                None => (0, 0, 0, 0, 0, 0, 0),
            };
        format!(
            "STATS records={} late={} ahead={} rps={:.1} pending={} open_unit={} open_records={} \
             units={} shards={} shard_open={} rings={} events={} events_evicted={} \
             retained_units={} retain={} last_closed={} subscribers={} dropped_slow={} \
             dropped_events={} wal_seq={} wal_bytes={} wal_fsyncs={} wal_errors={} segments={} \
             segment_units={} recovered_batches={} recovered_units={} reaped_sessions={} \
             proto_text={} proto_v2={} v2_frames={} v2_dict_entries={} rebalances={} \
             pinned_labels={} shard_balance={:.3} top_paths={}",
            records,
            handle.late(),
            handle.ahead(),
            rps,
            pending,
            open_unit,
            shard_open.iter().sum::<u64>(),
            units,
            handle.shard_count(),
            joined(&shard_open),
            joined(&rings),
            events,
            evicted,
            retained_units,
            retain,
            last_closed,
            hub.subscriber_count(),
            hub.dropped_slow(),
            session_dropped,
            wal_seq,
            wal_bytes,
            wal_fsyncs,
            handle.wal_errors(),
            segments,
            segment_units,
            rec_batches,
            rec_units,
            reaped_sessions,
            proto.text_sessions.load(std::sync::atomic::Ordering::Relaxed),
            proto.v2_sessions.load(std::sync::atomic::Ordering::Relaxed),
            proto.v2_frames.load(std::sync::atomic::Ordering::Relaxed),
            proto.v2_dict_entries.load(std::sync::atomic::Ordering::Relaxed),
            handle.rebalances(),
            handle.pinned_labels(),
            handle.shard_balance(),
            if top_paths.is_empty() { "-" } else { top_paths },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiresias_core::{Admission, TiresiasBuilder, DEFAULT_MAX_AHEAD_UNITS};

    fn live() -> LiveSharded {
        TiresiasBuilder::new()
            .timeunit_secs(60)
            .window_len(16)
            .threshold(5.0)
            .season_length(4)
            .sensitivity(2.0, 5.0)
            .warmup_units(2)
            .shards(2)
            .build_sharded()
            .unwrap()
            .into_live(DEFAULT_MAX_AHEAD_UNITS, None)
            .unwrap()
    }

    fn inner(grace_ms: u64) -> Inner {
        Inner::new(live(), Duration::from_millis(grace_ms))
    }

    #[test]
    fn watermark_close_waits_for_grace() {
        let hub = Hub::default();
        let mut s = inner(400);
        let handle = s.handle();
        let t0 = Instant::now();
        assert_eq!(handle.admit("a/x", 0).unwrap(), Admission::Accepted);
        // Unit 1: starts the (real-time) grace timer.
        assert_eq!(handle.admit("b/y", 65).unwrap(), Admission::Accepted);
        // Within the grace window nothing closes.
        s.tick(t0, &hub).unwrap();
        assert_eq!(handle.watermark(), Some(0));
        // After grace, unit 0 closes and unit 1 becomes open; the
        // held-back unit-1 record is fed to its shard.
        std::thread::sleep(Duration::from_millis(500));
        s.tick(Instant::now(), &hub).unwrap();
        assert_eq!(handle.watermark(), Some(1));
        assert_eq!(handle.ahead_max_unit(), None, "unit-1 record released");
        assert_eq!(handle.stashed_records().iter().sum::<u64>(), 0);
        // The close landed in the retained store.
        assert_eq!(s.reader().with(|store| store.last_closed_unit()), Some(0));
    }

    #[test]
    fn wall_clock_cadence_closes_idle_units() {
        let hub = Hub::default();
        let mut s = inner(100);
        let handle = s.handle();
        let t0 = Instant::now();
        handle.admit("a/x", 0).unwrap();
        s.tick(t0, &hub).unwrap(); // anchors open_since
        assert_eq!(handle.watermark(), Some(0));
        // No newer traffic at all: the unit closes after Δ + grace of
        // wall time (timeunit 60 s + 0.1 s grace), simulated through
        // the tick clock.
        s.tick(t0 + Duration::from_millis(60_200), &hub).unwrap();
        assert_eq!(handle.watermark(), Some(1));
    }

    #[test]
    fn late_records_are_dropped_and_counted() {
        let hub = Hub::default();
        let mut s = inner(0);
        let handle = s.handle();
        let t0 = Instant::now();
        handle.admit("a/x", 0).unwrap();
        handle.admit("a/x", 65).unwrap();
        s.tick(t0, &hub).unwrap(); // grace 0: closes unit 0 immediately
        assert_eq!(handle.watermark(), Some(1));
        assert_eq!(handle.admit("a/x", 30).unwrap(), Admission::Late);
        assert_eq!(handle.late(), 1);
        assert!(s.stats_line(&hub, "", 0, 0, &Default::default()).contains("late=1"));
    }

    #[test]
    fn stats_reports_per_shard_gauges_and_read_path_fields() {
        let hub = Hub::default();
        let s = inner(10_000);
        let handle = s.handle();
        handle.admit("a/x", 5).unwrap();
        handle.admit("a/x", 600).unwrap(); // unit 10: stashed ahead
        let stats = s.stats_line(&hub, "a:2", 3, 0, &Default::default());
        assert!(stats.contains("records=2"), "{stats}");
        assert!(stats.contains("shards=2"), "{stats}");
        assert!(stats.contains("shard_open="), "{stats}");
        assert!(stats.contains("rings="), "{stats}");
        assert!(stats.contains("open_unit=0"), "{stats}");
        assert!(stats.contains("subscribers=0"), "{stats}");
        assert!(stats.contains("dropped_slow=0"), "{stats}");
        assert!(stats.contains("dropped_events=3"), "{stats}");
        assert!(stats.contains("top_paths=a:2"), "{stats}");
        assert!(stats.contains("retain=-"), "{stats}");
        assert!(stats.contains("last_closed=-"), "{stats}");
        let depths = stats.split("rings=").nth(1).unwrap().split(' ').next().unwrap();
        assert_eq!(depths.split('|').count(), 2, "one ring depth per shard: {stats}");
    }

    #[test]
    fn stats_rps_is_a_window_rate_not_a_lifetime_average() {
        let hub = Hub::default();
        let s = inner(10_000);
        let handle = s.handle();
        handle.admit("a/x", 5).unwrap();
        let rps = |stats: &str| {
            stats.split("rps=").nth(1).unwrap().split(' ').next().unwrap().parse::<f64>().unwrap()
        };
        // First STATS: no window exists yet — 0.0, never a division by
        // a zero-or-tiny uptime.
        assert_eq!(rps(&s.stats_line(&hub, "", 0, 0, &Default::default())), 0.0);
        // A real window with fresh records reports their rate over it.
        std::thread::sleep(Duration::from_millis(80));
        for i in 0..50 {
            handle.admit("a/x", 6 + i % 3).unwrap();
        }
        let windowed = rps(&s.stats_line(&hub, "", 0, 0, &Default::default()));
        assert!(windowed > 0.0, "fresh records over a real window: {windowed}");
        // An idle window decays to 0 — a lifetime average would not.
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(rps(&s.stats_line(&hub, "", 0, 0, &Default::default())), 0.0);
    }

    #[test]
    fn resume_unit_clamps_to_retained_history() {
        let s = inner(10_000);
        assert_eq!(s.resume_unit(None), 0, "nothing closed yet");
        assert_eq!(s.resume_unit(Some(7)), 7, "nothing evicted yet");
    }

    #[test]
    fn drain_stops_admission_and_checkpoints() {
        let hub = Hub::default();
        let mut s = inner(100);
        let handle = s.handle();
        handle.admit("a/x", 0).unwrap();
        assert!(s.checkpoint_json().is_none(), "no checkpoint before the drain");
        s.drain(&hub).unwrap();
        assert!(matches!(handle.admit("a/x", 10), Err(CoreError::Closed)));
        let json = s.checkpoint_json().expect("drained engine serialises");
        assert!(json.starts_with("{\"version\":4,\"kind\":\"sharded\""));
        // STATS and the report reader still answer after the drain.
        assert!(s.stats_line(&hub, "", 0, 0, &Default::default()).starts_with("STATS "));
        let _ = s.reader().with(|store| store.len());
    }

    #[test]
    fn drain_replays_everything_and_keeps_last_unit_open() {
        let hub = Hub::default();
        let mut s = inner(10_000);
        let handle = s.handle();
        let mut outcomes = Vec::new();
        let mut records = tiresias_core::RecordBatch::new();
        for u in 0..5u64 {
            for i in 0..8 {
                records.push_str("a/x", u * 60 + i).unwrap();
            }
        }
        handle.admit_batch(&mut records, &mut outcomes).unwrap();
        s.drain(&hub).unwrap();
        let engine = s.drained.as_ref().expect("drained engine present");
        assert_eq!(engine.units_processed(), 4, "units 0..3 closed");
        assert_eq!(engine.current_unit(), Some(4), "unit 4 left open");
    }
}
