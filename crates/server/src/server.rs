//! The daemon itself: listener, per-client session threads, the
//! wall-clock scheduler and the graceful-shutdown choreography.
//!
//! # The lock-free admission hot path
//!
//! Every session thread owns a clone of the live engine's
//! [`IngestHandle`]: a `PUSH` is parsed, batched with its pipelined
//! neighbours and admitted straight into the engine's per-shard rings
//! — validation, routing and the late/ahead counters are all atomic in
//! `tiresias-core`, and **no server-wide lock is taken**. The
//! [`Inner`] mutex guards only the serialized back-end work (timeunit
//! closes on the scheduler thread, `STATS` snapshots, the shutdown
//! drain + checkpoint), so a thousand concurrent pushers never queue
//! behind a `STATS` reader or a closing timeunit — and vice versa: a
//! close stalls admissions only for the microseconds its watermark
//! barrier is held.

use std::collections::{HashMap, HashSet};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tiresias_core::{
    load_checkpoint_meta, Admission, AnomalyEvent, CheckpointEngine, IngestHandle, LiveSharded,
    RebalanceConfig, RecordBatch, ReportReader, SegmentStore, TiresiasBuilder, Wal, WalEntry,
    WalSyncPolicy, DEFAULT_MAX_AHEAD_UNITS, DEFAULT_SEGMENT_BYTES, DEFAULT_WAL_SEGMENT_BYTES,
};
use tiresias_hierarchy::{first_segment, CategoryPath, FxHashMap};
use tiresias_sketch::SpaceSaving;
use tiresias_telemetry::{Field, MetricsServer, SlowLog};

use crate::error::ServerError;
use crate::hub::Hub;
use crate::protocol::{
    parse_push, parse_request, v2, Request, DEFAULT_QUERY_LIMIT, MAX_LINE_BYTES, MAX_QUERY_LIMIT,
};
use crate::signal;
use crate::state::{Durability, Inner};
use crate::telemetry::{self, ProtoCounters, ServerTelemetry};

/// How often blocked session reads wake up to check the stop flag.
const READ_POLL: Duration = Duration::from_millis(50);

/// How often the scheduler thread reaps finished session threads.
const SESSION_SWEEP: Duration = Duration::from_secs(1);

/// Replay frames copied per state-lock acquisition during a
/// `SUBSCRIBE FROM` catch-up (the lock is released between chunks so a
/// long replay never stalls the scheduler).
const REPLAY_CHUNK: usize = 256;

/// Monitored top-level labels in the Space-Saving hot-path gauge.
const TOP_PATHS_CAPACITY: usize = 32;
/// Labels reported in `STATS top_paths=`.
const TOP_PATHS_REPORTED: usize = 5;

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7171` (`:0` picks an ephemeral
    /// port, reported by [`Server::local_addr`]).
    pub addr: String,
    /// Detector configuration; must include `.shards(n)` as desired.
    /// Ignored when a checkpoint is resumed (the checkpoint carries its
    /// own configuration).
    pub builder: TiresiasBuilder,
    /// Grace window for late records (see the state-module docs).
    pub grace: Duration,
    /// Scheduler tick interval.
    pub tick: Duration,
    /// Upper bound on the records one session admits per engine call
    /// (pipelined `PUSH` lines batch up to this many under a single
    /// admission).
    pub flush_records: usize,
    /// Per-session outbound queue bound (replies + subscribed events).
    pub subscriber_queue: usize,
    /// How many timeunits ahead of the open unit a record may be;
    /// records further ahead are refused with `ERR` and counted
    /// (`--max-ahead`, default [`DEFAULT_MAX_AHEAD_UNITS`]).
    pub max_ahead_units: u64,
    /// Retention budget of the report store in closed timeunits
    /// (`--retain-units`): the oldest units evict once exceeded.
    /// `None` keeps whatever the engine (or a resumed checkpoint)
    /// already has — unbounded for a fresh engine.
    pub retain_units: Option<u64>,
    /// Checkpoint file: loaded on start if present, written on
    /// graceful shutdown. With a [`ServerConfig::data_dir`] this
    /// defaults to `<data_dir>/checkpoint.json`; setting it explicitly
    /// overrides that location.
    pub checkpoint: Option<PathBuf>,
    /// Durable data directory (`--data-dir`): holds the write-ahead
    /// log (`wal/`), the spilled retention segments (`segments/`) and
    /// the graceful-shutdown checkpoint (`checkpoint.json`). On start
    /// the WAL frames newer than the checkpoint's watermark are
    /// replayed through the live engine, so acked admissions survive
    /// a crash. `None` runs fully in memory, exactly as before.
    pub data_dir: Option<PathBuf>,
    /// WAL fsync policy (`--wal-sync`): `every` batch, a background
    /// `interval` flush, or `none` (rely on the OS page cache). Only
    /// meaningful with a [`ServerConfig::data_dir`].
    pub wal_sync: WalSyncPolicy,
    /// Install `SIGTERM`/`SIGINT` handlers and shut down gracefully on
    /// either (the CLI sets this; tests drive `SHUTDOWN` instead).
    pub handle_signals: bool,
    /// Reap sessions with no inbound traffic for this long
    /// (`--idle-timeout-ms`; `None` disables). A half-open client — a
    /// crashed router, a peer that vanished without a FIN — would
    /// otherwise park its session thread forever. Sessions holding a
    /// live subscription are exempt (they are legitimately quiet);
    /// every other long-lived client keeps its session alive by
    /// sending `PING` within the window. Reaped sessions are counted
    /// in `STATS reaped_sessions=`.
    pub idle_timeout: Option<Duration>,
    /// Prometheus endpoint address (`--metrics-addr`): serves
    /// `GET /metrics` on its own listener thread, fully separate from
    /// the wire-protocol port. `None` disables the endpoint (`STATS
    /// JSON` still works — the registry is always assembled).
    pub metrics_addr: Option<String>,
    /// Structured slow-op log path (`--slow-log`): operations slower
    /// than [`ServerConfig::slow_ms`] append one NDJSON line each.
    /// `None` disables the log.
    pub slow_log: Option<PathBuf>,
    /// Slow-op threshold in milliseconds (`--slow-ms`); only meaningful
    /// with a [`ServerConfig::slow_log`].
    pub slow_ms: u64,
    /// Skew-adaptive shard rebalancing policy (`--rebalance`,
    /// `--balance-threshold`). Disabled by default: labels stay on
    /// their hash-assigned shard. When enabled, per-epoch load
    /// measurements repin hot top-level labels at close barriers until
    /// the worst/mean shard-load ratio falls under the threshold —
    /// with byte-identical output either way.
    pub rebalance: RebalanceConfig,
}

impl ServerConfig {
    /// Defaults around the given detector configuration: ephemeral
    /// loopback port, 2 s grace, 50 ms tick, 8192-record batches,
    /// 1024-line subscriber queues, 1000-unit ahead bound, no
    /// checkpoint, no signal handlers.
    pub fn new(builder: TiresiasBuilder) -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            builder,
            grace: Duration::from_secs(2),
            tick: Duration::from_millis(50),
            flush_records: 8192,
            subscriber_queue: 1024,
            max_ahead_units: DEFAULT_MAX_AHEAD_UNITS,
            retain_units: None,
            checkpoint: None,
            data_dir: None,
            wal_sync: WalSyncPolicy::Interval(WalSyncPolicy::DEFAULT_INTERVAL),
            handle_signals: false,
            idle_timeout: Some(DEFAULT_IDLE_TIMEOUT),
            metrics_addr: None,
            slow_log: None,
            slow_ms: DEFAULT_SLOW_MS,
            rebalance: RebalanceConfig::default(),
        }
    }
}

/// Default [`ServerConfig::idle_timeout`]: generous enough that no
/// interactive client ever notices, short enough that leaked half-open
/// connections don't accumulate threads for days.
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(600);

/// Default [`ServerConfig::slow_ms`]: well above every healthy
/// close/query/fsync, low enough to catch a stalling disk or a
/// pathological query early.
pub const DEFAULT_SLOW_MS: u64 = 100;

/// The Space-Saving top-k gauge over top-level path labels: a cheap
/// answer to "what is hot right now" that costs one sketch update per
/// distinct top-level label per admission batch, reported as `STATS
/// top_paths=label:count|…`.
struct TopPaths {
    sketch: SpaceSaving,
    /// Label text per monitored key hash (pruned alongside the
    /// sketch's monitored set so churn cannot grow it unboundedly).
    labels: HashMap<u64, String>,
}

impl TopPaths {
    fn new() -> Self {
        TopPaths { sketch: SpaceSaving::new(TOP_PATHS_CAPACITY), labels: HashMap::new() }
    }
}

/// Shared flags and shutdown choreography.
struct Control {
    /// All loops (accept, scheduler, sessions) exit when set.
    stop: AtomicBool,
    /// Guards the drain + checkpoint so it runs exactly once.
    shutdown_started: AtomicBool,
    addr: SocketAddr,
    checkpoint: Option<PathBuf>,
}

/// Everything session threads need.
struct Shared {
    /// The concurrently shareable ingest front-end — the `PUSH` path.
    front: IngestHandle,
    /// The read path: retained report store behind a read-mostly lock.
    /// `QUERY` sessions read here directly — never through `inner` —
    /// so queries contend only with the per-close merge, never with
    /// admission.
    reader: ReportReader,
    /// The serialized back-end (closes, drain, checkpoint, `STATS`).
    inner: Mutex<Inner>,
    /// `Arc` so the telemetry registry's derived gauges can read
    /// subscriber counts without touching `inner`.
    hub: Arc<Hub>,
    /// The assembled metric registry plus the request-path histograms
    /// and the optional slow-op log.
    telem: ServerTelemetry,
    /// Hot-path gauge (see [`TopPaths`]).
    top: Mutex<TopPaths>,
    control: Control,
    queue_bound: usize,
    batch_cap: usize,
    idle_timeout: Option<Duration>,
    /// Sessions closed by the idle reaper (`STATS reaped_sessions=`).
    reaped_sessions: AtomicU64,
    /// Wire-protocol accounting: per-protocol session gauges and v2
    /// frame/dictionary totals, shared with the telemetry registry.
    proto: ProtoCounters,
}

impl Shared {
    /// Runs the graceful shutdown exactly once: stop admissions, drain
    /// every ring and held-back record into the engine, broadcast the
    /// final events, write the checkpoint, then stop all threads.
    /// Subscribers receive the drained events before their sessions
    /// close because the events are already queued when the stop flag
    /// is set.
    fn initiate_shutdown(&self) -> Result<(), ServerError> {
        if self.control.shutdown_started.swap(true, Ordering::SeqCst) {
            return Ok(());
        }
        let result = (|| {
            let mut inner = self.inner.lock().expect("state lock never poisoned");
            inner.drain(&self.hub).map_err(ServerError::Core)?;
            if let Some(path) = &self.control.checkpoint {
                let json = inner.checkpoint_json().expect("drain succeeded, engine present");
                write_atomically(path, json.as_bytes()).map_err(ServerError::Io)?;
                // The checkpoint's watermark covers every frame ever
                // logged (the drain bypasses the WAL but is itself
                // captured by the checkpoint), so the whole log is
                // consumed and its segments can go.
                inner.truncate_consumed_wal();
            }
            Ok(())
        })();
        self.control.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.control.addr);
        result
    }

    /// Folds one admitted batch into the top-paths gauge, reading the
    /// batch's per-distinct-path table instead of its records: only
    /// what the engine actually **accepted** counts (late/ahead/refused
    /// records must not climb the hot-path gauge), and the shared
    /// sketch takes one update per distinct top-level label, all under
    /// one lock acquisition.
    fn note_accepted(&self, batch: &RecordBatch) {
        let mut agg: FxHashMap<u64, (u64, &str)> = FxHashMap::default();
        for (path, key, accepted) in batch.accepted_by_path() {
            if accepted > 0 {
                agg.entry(key).or_insert((0, path)).0 += u64::from(accepted);
            }
        }
        if agg.is_empty() {
            return;
        }
        let mut top = self.top.lock().expect("top-paths lock never poisoned");
        for (key, (count, path)) in agg {
            top.sketch.add(key, count);
            top.labels.entry(key).or_insert_with(|| first_segment(path).unwrap_or("").to_string());
        }
        if top.labels.len() > TOP_PATHS_CAPACITY * 8 {
            let keep: HashSet<u64> =
                top.sketch.top(TOP_PATHS_CAPACITY).iter().map(|e| e.key).collect();
            top.labels.retain(|key, _| keep.contains(key));
        }
    }

    /// The `STATS top_paths=` value: the estimated-heaviest labels,
    /// heaviest first.
    fn top_paths_gauge(&self) -> String {
        let top = self.top.lock().expect("top-paths lock never poisoned");
        top.sketch
            .top(TOP_PATHS_REPORTED)
            .iter()
            .map(|e| format!("{}:{}", top.labels.get(&e.key).map_or("?", String::as_str), e.count))
            .collect::<Vec<_>>()
            .join("|")
    }

    /// Why admissions are refused right now, for `ERR` replies.
    fn refusal_reason(&self) -> String {
        let inner = self.inner.lock().expect("state lock never poisoned");
        if let Some(why) = inner.fatal() {
            return why.to_string();
        }
        if self.front.is_poisoned() {
            // A shard just failed; the scheduler hasn't surfaced the
            // fatal detail yet but the front-end already refuses.
            return "engine error: a shard failed; server is shutting down".to_string();
        }
        "server is shutting down".to_string()
    }
}

/// A running daemon. Dropping the handle does **not** stop it; call
/// [`Server::shutdown`] (or send `SHUTDOWN` / a signal) and then
/// [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: JoinHandle<()>,
    scheduler: JoinHandle<()>,
    monitor: Option<JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
    shutdown_result: Arc<Mutex<Option<ServerError>>>,
    /// The `/metrics` endpoint, when configured; stopped on join.
    metrics: Option<MetricsServer>,
}

impl Server {
    /// Builds the engine (resuming the configured checkpoint if one
    /// exists), splits it into the live ingest front-end + serialized
    /// back-end, binds the listener and starts the accept, scheduler
    /// and (optionally) signal-monitor threads.
    ///
    /// # Errors
    ///
    /// Fails on an invalid detector configuration, an unloadable
    /// checkpoint, or a bind error.
    pub fn start(config: ServerConfig) -> Result<Server, ServerError> {
        // An explicit checkpoint path wins; otherwise a durable data
        // dir supplies its own `checkpoint.json`.
        let checkpoint_path = match (&config.checkpoint, &config.data_dir) {
            (Some(path), _) => Some(path.clone()),
            (None, Some(dir)) => Some(dir.join("checkpoint.json")),
            (None, None) => None,
        };
        let mut ckpt_wal_seq: u64 = 0;
        let resumed = match &checkpoint_path {
            Some(path) if path.exists() => {
                let json = std::fs::read_to_string(path).map_err(ServerError::Io)?;
                let (engine, wal_seq) = load_checkpoint_meta(&json).map_err(ServerError::Core)?;
                ckpt_wal_seq = wal_seq.unwrap_or(0);
                match engine {
                    CheckpointEngine::Sharded(engine) => Some(*engine),
                    CheckpointEngine::Single(_) => {
                        return Err(ServerError::Config(format!(
                            "checkpoint {} holds a single-instance detector; the server \
                             requires a sharded engine",
                            path.display()
                        )));
                    }
                }
            }
            _ => None,
        };
        let was_resumed = resumed.is_some();
        let mut engine = match resumed {
            Some(engine) => engine,
            None => config.builder.clone().build_sharded().map_err(ServerError::Core)?,
        };

        // Open the durable state and split out the WAL entries newer
        // than the checkpoint's watermark: those are the acked
        // admissions and closes a crash lost from memory.
        let mut durable = None;
        let mut replay: Vec<WalEntry> = Vec::new();
        if let Some(dir) = &config.data_dir {
            let wal_dir = dir.join("wal");
            let seg_dir = dir.join("segments");
            std::fs::create_dir_all(&wal_dir).map_err(ServerError::Io)?;
            std::fs::create_dir_all(&seg_dir).map_err(ServerError::Io)?;
            let segments = Arc::new(
                SegmentStore::open(&seg_dir, DEFAULT_SEGMENT_BYTES).map_err(ServerError::Io)?,
            );
            let (wal, recovery) = Wal::open(&wal_dir, config.wal_sync, DEFAULT_WAL_SEGMENT_BYTES)
                .map_err(ServerError::Io)?;
            if recovery.repaired() {
                eprintln!(
                    "tiresias-server: WAL repaired: {} torn byte(s) truncated in {}, {} later \
                     file(s) dropped",
                    recovery.torn_bytes,
                    recovery
                        .corrupt_file
                        .as_deref()
                        .map_or_else(|| "-".to_string(), |p| p.display().to_string()),
                    recovery.dropped_files,
                );
            }
            replay = recovery.entries.into_iter().filter(|e| e.seq() > ckpt_wal_seq).collect();
            // Pre-anchor a FRESH engine at the earliest recovered
            // record's unit. The crashed run anchored at the minimum
            // unit over every admitted record, but the WAL's batch
            // order need not surface that record first (a batch
            // validated against the true anchor can be logged ahead of
            // the batch that set it) — replaying without the anchor
            // could misclassify the earliest records as late.
            if engine.current_unit().is_none() {
                let timeunit = engine.timeunit_secs();
                let anchor = replay
                    .iter()
                    .filter_map(|entry| match entry {
                        WalEntry::Batch { records, .. } => {
                            records.iter().map(|&(_, t)| t / timeunit).min()
                        }
                        WalEntry::Close { .. } => None,
                    })
                    .min();
                if let Some(unit) = anchor {
                    engine.advance_to(unit * timeunit).map_err(ServerError::Core)?;
                }
            }
            durable = Some((Arc::new(wal), segments));
        }

        if config.retain_units.is_some() && durable.is_none() {
            // In-memory retention: the oldest closed units simply drop
            // once over budget. With a data dir the bound is applied
            // *after* the spill hook is attached (below), so no event
            // is ever dropped before it reaches a segment.
            engine.store_mut().set_retention(config.retain_units);
        }
        let wal = durable.as_ref().map(|(wal, _)| Arc::clone(wal));
        let segments_arc = durable.as_ref().map(|(_, seg)| Arc::clone(seg));
        let wal_arc = wal.clone();
        let mut live = engine.into_live(config.max_ahead_units, wal).map_err(ServerError::Core)?;
        live.set_rebalance(config.rebalance);
        let mut recovered_batches = 0u64;
        let mut recovered_units = 0u64;
        if let Some((wal, segments)) = &durable {
            live.set_spill(Arc::clone(segments));
            if config.retain_units.is_some() {
                live.set_retention(config.retain_units).map_err(ServerError::Core)?;
            }
            if !replay.is_empty() {
                let units_before = live.units_processed();
                wal.set_replaying(true);
                let result = replay_wal_entries(
                    &mut live,
                    std::mem::take(&mut replay),
                    &mut recovered_batches,
                );
                wal.set_replaying(false);
                result?;
                recovered_units = live.units_processed().saturating_sub(units_before);
            }
        }

        let listener = TcpListener::bind(&config.addr).map_err(ServerError::Io)?;
        let addr = listener.local_addr().map_err(ServerError::Io)?;

        // Capture the engine's histograms before `Inner` takes the
        // engine.
        let engine_telem = live.telemetry();
        let mut inner = Inner::new(live, config.grace);
        if let Some((wal, segments)) = durable {
            inner.set_durability(Durability { wal, segments, recovered_batches, recovered_units });
        }
        if was_resumed || recovered_batches > 0 {
            // Checkpointed and replayed events are history: the hub
            // only broadcasts events from new traffic onward (QUERY
            // and SUBSCRIBE FROM still reach them).
            inner.skip_stored_events();
        }
        let front = inner.handle();
        let reader = inner.reader();
        let hub = Arc::new(Hub::default());
        let slow = match &config.slow_log {
            Some(path) => Some(Arc::new(
                SlowLog::open(path, Duration::from_millis(config.slow_ms))
                    .map_err(ServerError::Io)?,
            )),
            None => None,
        };
        let proto = ProtoCounters::default();
        let telem = telemetry::build(
            &engine_telem,
            &front,
            &reader,
            &hub,
            wal_arc.as_ref(),
            segments_arc.as_ref(),
            slow,
            &proto,
        );
        inner.set_telemetry(telem.clone());
        let metrics = match &config.metrics_addr {
            Some(addr) => Some(
                MetricsServer::start(addr, Arc::clone(&telem.registry)).map_err(ServerError::Io)?,
            ),
            None => None,
        };
        let shared = Arc::new(Shared {
            front,
            reader,
            inner: Mutex::new(inner),
            hub,
            telem,
            top: Mutex::new(TopPaths::new()),
            control: Control {
                stop: AtomicBool::new(false),
                shutdown_started: AtomicBool::new(false),
                addr,
                checkpoint: checkpoint_path,
            },
            queue_bound: config.subscriber_queue,
            batch_cap: config.flush_records.max(1),
            idle_timeout: config.idle_timeout,
            reaped_sessions: AtomicU64::new(0),
            proto,
        });
        let shutdown_result: Arc<Mutex<Option<ServerError>>> = Arc::new(Mutex::new(None));
        let sessions: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept = {
            let shared = Arc::clone(&shared);
            let sessions = Arc::clone(&sessions);
            let shutdown_result = Arc::clone(&shutdown_result);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.control.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let shared = Arc::clone(&shared);
                    let shutdown_result = Arc::clone(&shutdown_result);
                    let handle = std::thread::spawn(move || {
                        run_session(stream, &shared, &shutdown_result);
                    });
                    // Only append here: finished sessions are reaped by
                    // the scheduler thread's periodic sweep, so a burst
                    // of connects never stalls behind joins.
                    sessions.lock().expect("session list lock never poisoned").push(handle);
                }
            })
        };

        let scheduler = {
            let shared = Arc::clone(&shared);
            let sessions = Arc::clone(&sessions);
            let shutdown_result = Arc::clone(&shutdown_result);
            let tick = config.tick;
            std::thread::spawn(move || {
                let mut last_sweep = Instant::now();
                while !shared.control.stop.load(Ordering::SeqCst) {
                    std::thread::sleep(tick);
                    let result = {
                        let mut inner = shared.inner.lock().expect("state lock never poisoned");
                        inner.tick(Instant::now(), &shared.hub)
                    };
                    if let Err(why) = result {
                        // A fatal engine error: stop serving errors
                        // forever and shut down gracefully instead —
                        // the checkpoint keeps the last good state.
                        eprintln!("tiresias-server: fatal: {why}; shutting down");
                        record_shutdown(&shared, &shutdown_result);
                        break;
                    }
                    if last_sweep.elapsed() >= SESSION_SWEEP {
                        last_sweep = Instant::now();
                        reap_finished_sessions(&sessions);
                    }
                }
            })
        };

        let monitor = if config.handle_signals {
            signal::install();
            let shared = Arc::clone(&shared);
            let shutdown_result = Arc::clone(&shutdown_result);
            Some(std::thread::spawn(move || {
                while !shared.control.stop.load(Ordering::SeqCst) {
                    if signal::signalled() {
                        record_shutdown(&shared, &shutdown_result);
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            }))
        } else {
            None
        };

        Ok(Server { shared, addr, accept, scheduler, monitor, sessions, shutdown_result, metrics })
    }

    /// The bound listen address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound `/metrics` address, when the endpoint is configured
    /// (resolves `:0` ephemeral ports).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(MetricsServer::local_addr)
    }

    /// Begins a graceful shutdown (drain + checkpoint + stop), as the
    /// `SHUTDOWN` command or a signal would. Idempotent.
    pub fn shutdown(&self) {
        record_shutdown(&self.shared, &self.shutdown_result);
    }

    /// Waits for the daemon to finish. Returns once a `SHUTDOWN`
    /// command, a signal, or [`Server::shutdown`] has completed the
    /// graceful stop and every thread has exited.
    ///
    /// # Errors
    ///
    /// Surfaces a failed drain or checkpoint write.
    pub fn join(self) -> Result<(), ServerError> {
        let _ = self.accept.join();
        let _ = self.scheduler.join();
        if let Some(monitor) = self.monitor {
            let _ = monitor.join();
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.sessions.lock().expect("session list lock never poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
        if let Some(mut metrics) = self.metrics {
            metrics.shutdown();
        }
        match self.shutdown_result.lock().expect("result lock never poisoned").take() {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }
}

/// Replays recovered WAL entries through the live engine in log
/// order: batches re-admit through an [`IngestHandle`] (the WAL is in
/// replay mode, so nothing is re-appended) and closes re-run the
/// original watermark flips — reproducing the same unit placement,
/// late/ahead classification and anomalies the crashed run acked.
fn replay_wal_entries(
    live: &mut LiveSharded,
    entries: Vec<WalEntry>,
    recovered_batches: &mut u64,
) -> Result<(), ServerError> {
    let handle = live.handle();
    let mut batch = RecordBatch::new();
    let mut outcomes: Vec<Admission> = Vec::new();
    for entry in entries {
        match entry {
            WalEntry::Batch { records, .. } => {
                batch.clear();
                for (path, t_secs) in &records {
                    batch.push_str(path, *t_secs).map_err(ServerError::Core)?;
                }
                handle.admit_batch(&mut batch, &mut outcomes).map_err(ServerError::Core)?;
                *recovered_batches += 1;
            }
            WalEntry::Close { target, .. } => {
                live.close_to(target).map_err(ServerError::Core)?;
            }
        }
    }
    Ok(())
}

/// Writes `path` atomically and durably: the bytes go to `<path>.tmp`,
/// are fsynced, renamed over the target, and the parent directory is
/// fsynced so the rename itself survives a crash. A torn `.tmp` left
/// behind by a crash mid-write is simply ignored on the next load —
/// the target name always holds either the complete old file or the
/// complete new one.
fn write_atomically(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => std::path::Path::new("."),
    };
    if let Ok(dir) = std::fs::File::open(parent) {
        let _ = dir.sync_all();
    }
    Ok(())
}

/// Joins every finished session thread without blocking on live ones,
/// off the accept path (a long-lived daemon would otherwise accumulate
/// one handle per connection ever accepted).
pub(crate) fn reap_finished_sessions(sessions: &Mutex<Vec<JoinHandle<()>>>) {
    let finished: Vec<JoinHandle<()>> = {
        let mut sessions = sessions.lock().expect("session list lock never poisoned");
        let mut finished = Vec::new();
        let mut i = 0;
        while i < sessions.len() {
            if sessions[i].is_finished() {
                finished.push(sessions.swap_remove(i));
            } else {
                i += 1;
            }
        }
        finished
    };
    // Join outside the lock: these threads have already returned, so
    // each join is immediate, but the accept loop stays unblocked
    // regardless.
    for handle in finished {
        let _ = handle.join();
    }
}

/// Runs the shutdown and records its error (first one wins) for
/// [`Server::join`].
fn record_shutdown(shared: &Shared, shutdown_result: &Mutex<Option<ServerError>>) {
    if let Err(e) = shared.initiate_shutdown() {
        let mut slot = shutdown_result.lock().expect("result lock never poisoned");
        slot.get_or_insert(e);
    }
}

/// One client session: a reader loop on this thread plus a single
/// writer thread draining the session's outbound queue, so replies and
/// broadcast events never interleave mid-line.
fn run_session(stream: TcpStream, shared: &Shared, shutdown_result: &Mutex<Option<ServerError>>) {
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    // Replies and event frames are small; Nagle + delayed ACK would
    // add ~40 ms stalls per interactive round trip.
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else { return };
    let (tx, rx) = sync_channel::<String>(shared.queue_bound);
    let writer = std::thread::spawn(move || {
        let mut out = BufWriter::new(write_half);
        while let Ok(line) = rx.recv() {
            if out
                .write_all(line.as_bytes())
                .and_then(|()| out.write_all(b"\n"))
                .and_then(|()| out.flush())
                .is_err()
            {
                break;
            }
        }
    });

    let mut subscription: Option<u64> = None;
    let mut ack = true;
    shared.proto.text_sessions.fetch_add(1, Ordering::Relaxed);
    // The session's v2 label dictionary: per connection, append-only,
    // surviving `END`/`UPGRADE` round trips (see the codec docs).
    let mut v2_state = V2Session::default();
    let mut in_v2 = false;
    // Frames this session's subscriptions failed to receive when
    // lag-dropped from the hub (surfaced as `STATS dropped_events=`).
    let dropped_events = Arc::new(AtomicU64::new(0));
    let mut reader = BufReader::new(stream);
    let mut line = LineBuf::default();
    // Consecutive `PUSH` lines already sitting in the read buffer are
    // parsed straight into ONE flat batch and admitted under one
    // front-end call (amortising its gate acquisition and ring
    // hand-off). Replies stay per-record and in order: the batch is
    // flushed before any non-`PUSH` reply is produced, so pipelined
    // requests observe everything before them.
    let mut batch = RecordBatch::new();
    let mut outcomes: Vec<Admission> = Vec::new();
    let mut scratch = PushScratch { batch: &mut batch, outcomes: &mut outcomes };
    // Idle reaping: any inbound byte (a complete line, or partial-line
    // progress across read timeouts) counts as activity. Subscribed
    // sessions are exempt — their inbound side is legitimately quiet
    // while events stream out.
    let mut last_activity = Instant::now();
    let mut partial_len = 0usize;
    'session: loop {
        if shared.control.stop.load(Ordering::SeqCst) {
            break;
        }
        let overlong = match line.read_from(&mut reader) {
            Ok(LineRead::Eof) => break,
            Ok(LineRead::Line) => false,
            Ok(LineRead::Overlong) => true,
            // A timeout may leave a partial line buffered; keep it and
            // continue appending on the next read.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if line.bytes.len() > partial_len {
                    // A partial line grew: the peer is mid-write.
                    partial_len = line.bytes.len();
                    last_activity = Instant::now();
                }
                if let Some(limit) = shared.idle_timeout {
                    if subscription.is_none() && last_activity.elapsed() >= limit {
                        shared.reaped_sessions.fetch_add(1, Ordering::Relaxed);
                        break 'session;
                    }
                }
                continue;
            }
            Err(_) => break,
        };
        last_activity = Instant::now();
        partial_len = 0;
        // A `PUSH` joins the batch; anything else first admits the
        // buffered pushes: the request's side effects (a `STATS`
        // snapshot, an `ack` flip, a subscription) must observe — and
        // its reply must follow — everything the client pipelined
        // before it.
        let step = if overlong {
            if !flush_push_batch(&mut scratch, shared, &tx, ack) {
                break 'session;
            }
            Some(SessionStep::Reply(Some(format!(
                "ERR line exceeds the {MAX_LINE_BYTES}-byte bound"
            ))))
        } else {
            // Like `read_line`, a line that is not UTF-8 ends the
            // session.
            let Ok(text) = std::str::from_utf8(&line.bytes) else { break 'session };
            match parse_push(text) {
                Some(Ok((path, t_secs))) => {
                    scratch
                        .batch
                        .push_str(path, t_secs)
                        .expect("the parser caps paths far below the batch's own bound");
                    if scratch.batch.len() >= shared.batch_cap
                        && !flush_push_batch(&mut scratch, shared, &tx, ack)
                    {
                        break 'session;
                    }
                    None
                }
                other => {
                    if !flush_push_batch(&mut scratch, shared, &tx, ack) {
                        break 'session;
                    }
                    let parsed = match other {
                        Some(Err(why)) => Err(why),
                        _ => parse_request(text),
                    };
                    Some(handle_request(
                        parsed,
                        shared,
                        &tx,
                        &mut subscription,
                        &mut ack,
                        &dropped_events,
                    ))
                }
            }
        };
        line.bytes.clear();
        match step {
            None | Some(SessionStep::Reply(None)) => {}
            Some(SessionStep::Reply(Some(text))) => {
                if tx.send(text).is_err() {
                    break 'session;
                }
            }
            Some(SessionStep::Disconnect) => break 'session,
            Some(SessionStep::Close(farewell)) => {
                let _ = tx.send(farewell);
                break 'session;
            }
            Some(SessionStep::Shutdown) => {
                let _ = tx.send("OK shutting down".to_string());
                record_shutdown(shared, shutdown_result);
                break 'session;
            }
            Some(SessionStep::Upgrade) => {
                if tx.send("OK upgraded".to_string()).is_err() {
                    break 'session;
                }
                shared.proto.text_sessions.fetch_sub(1, Ordering::Relaxed);
                shared.proto.v2_sessions.fetch_add(1, Ordering::Relaxed);
                in_v2 = true;
                let exit = run_v2_frames(
                    &mut reader,
                    shared,
                    &tx,
                    &mut v2_state,
                    &mut scratch,
                    ack,
                    subscription.is_some(),
                );
                match exit {
                    V2Exit::BackToText => {
                        shared.proto.v2_sessions.fetch_sub(1, Ordering::Relaxed);
                        shared.proto.text_sessions.fetch_add(1, Ordering::Relaxed);
                        in_v2 = false;
                        last_activity = Instant::now();
                    }
                    V2Exit::Close => break 'session,
                }
            }
        }
        // Keep batching while another complete line is already
        // buffered; otherwise admit what we have before the next
        // (possibly blocking) read.
        if !reader.buffer().contains(&b'\n') && !flush_push_batch(&mut scratch, shared, &tx, ack) {
            break 'session;
        }
    }
    if in_v2 {
        shared.proto.v2_sessions.fetch_sub(1, Ordering::Relaxed);
    } else {
        shared.proto.text_sessions.fetch_sub(1, Ordering::Relaxed);
    }
    if let Some(id) = subscription {
        shared.hub.unsubscribe(id);
    }
    drop(tx);
    let _ = writer.join();
}

/// Outcome of [`LineBuf::read_from`].
enum LineRead {
    /// A complete line (or the unterminated tail before EOF) is
    /// buffered.
    Line,
    /// A line longer than [`MAX_LINE_BYTES`] was consumed through its
    /// newline and dropped.
    Overlong,
    /// The peer closed the connection.
    Eof,
}

/// A session's text line buffer: `read_line` with a bound. A request
/// line is never buffered past [`MAX_LINE_BYTES`] — a peer streaming an
/// endless line costs the session no memory — and the rest of an
/// over-long line is skipped, so the session survives it.
#[derive(Default)]
struct LineBuf {
    bytes: Vec<u8>,
    /// The current line already overflowed; its remainder is being
    /// discarded (survives read timeouts, like the partial line).
    skipping: bool,
}

impl LineBuf {
    /// Appends to the buffered partial line until a newline arrives.
    /// An `Err` (including the session socket's poll timeout) leaves
    /// all progress in place for the next call.
    fn read_from(&mut self, reader: &mut BufReader<TcpStream>) -> io::Result<LineRead> {
        loop {
            let available = reader.fill_buf()?;
            if available.is_empty() {
                return Ok(match (std::mem::take(&mut self.skipping), self.bytes.is_empty()) {
                    (true, _) => LineRead::Overlong,
                    (false, false) => LineRead::Line,
                    (false, true) => LineRead::Eof,
                });
            }
            let newline = crate::scan::find_newline(available);
            let chunk = &available[..newline.map_or(available.len(), |at| at + 1)];
            if !self.skipping {
                if self.bytes.len() + chunk.len() > MAX_LINE_BYTES {
                    self.skipping = true;
                    self.bytes.clear();
                } else {
                    self.bytes.extend_from_slice(chunk);
                }
            }
            let used = chunk.len();
            reader.consume(used);
            if newline.is_some() {
                return Ok(if std::mem::take(&mut self.skipping) {
                    LineRead::Overlong
                } else {
                    LineRead::Line
                });
            }
        }
    }
}

/// Admits buffered `PUSH`es through the lock-free front-end and sends
/// their per-record replies in order. Returns `false` if the session's
/// outbound queue is gone.
fn flush_push_batch(
    scratch: &mut PushScratch<'_>,
    shared: &Shared,
    tx: &SyncSender<String>,
    ack: bool,
) -> bool {
    if scratch.batch.is_empty() {
        return true;
    }
    // Every buffered record gets exactly one reply, whatever happens.
    let buffered = scratch.batch.len();
    match scratch.admit(shared) {
        Ok(()) => {
            for outcome in scratch.outcomes.drain(..) {
                let reply = match outcome {
                    Admission::Accepted => {
                        if !ack {
                            continue;
                        }
                        "OK".to_string()
                    }
                    Admission::Late => "LATE".to_string(),
                    Admission::TooFarAhead => TOO_FAR_AHEAD.to_string(),
                };
                if tx.send(reply).is_err() {
                    return false;
                }
            }
            true
        }
        Err(tiresias_core::CoreError::WalUnavailable(why)) => {
            // The WAL refused the batch: nothing was admitted or
            // acknowledged, the engine stays live, and admission
            // resumes once the log recovers — tell the producer so it
            // can retry, and always (even under `NOACK`) since like
            // `LATE` this reports dropped records.
            let reply = format!("ERR wal {why}");
            (0..buffered).all(|_| tx.send(reply.clone()).is_ok())
        }
        Err(_closed) => {
            // Draining or fatal: every buffered record is refused with
            // the reason.
            let reply = format!("ERR {}", shared.refusal_reason());
            (0..buffered).all(|_| tx.send(reply.clone()).is_ok())
        }
    }
}

/// Reply for records beyond the future-unit bound (always sent, even
/// under `NOACK` — like `LATE`, it reports a dropped record).
const TOO_FAR_AHEAD: &str = "ERR record timestamp too far ahead of the open timeunit";

/// A session's v2 decode state: the per-connection label dictionary
/// (inside the decoder) plus reusable header/payload scratch, all
/// surviving `END`/`UPGRADE` round trips on the same connection.
#[derive(Default)]
struct V2Session {
    decoder: v2::FrameDecoder,
    hdr: [u8; v2::HEADER_BYTES],
    payload: Vec<u8>,
}

/// The session's push scratch, shared between the text batcher and the
/// v2 frame loop so neither reallocates per flush.
struct PushScratch<'a> {
    batch: &'a mut RecordBatch,
    outcomes: &'a mut Vec<Admission>,
}

impl PushScratch<'_> {
    /// Admits the batch through the lock-free front-end — leaving one
    /// outcome per record in `outcomes` — feeds what was accepted to
    /// the top-paths gauge, and empties the batch for the next fill.
    fn admit(&mut self, shared: &Shared) -> Result<(), tiresias_core::CoreError> {
        let admitted = shared.front.admit_batch(self.batch, self.outcomes);
        if admitted.is_ok() {
            shared.note_accepted(self.batch);
        }
        self.batch.clear();
        admitted
    }
}

/// Why the v2 frame loop handed control back.
pub(crate) enum V2Exit {
    /// An `END` frame: the inbound stream is text again.
    BackToText,
    /// Disconnect, malformed frame, stop flag, or idle reap — the
    /// session is over.
    Close,
}

/// Outcome of [`read_full`].
enum ReadFull {
    /// The buffer is filled.
    Done,
    /// EOF, a hard read error, the stop flag, or the idle reaper.
    Closed,
}

/// Fills `buf` exactly, riding out the 50 ms poll timeouts the session
/// socket runs under — checking the stop flag and the idle reaper
/// between polls, exactly like the text loop (any byte of progress
/// counts as activity; `reap_exempt` carries the text loop's
/// subscribed-session exemption).
fn read_full(
    reader: &mut BufReader<TcpStream>,
    buf: &mut [u8],
    shared: &Shared,
    last_activity: &mut Instant,
    reap_exempt: bool,
) -> ReadFull {
    let mut filled = 0;
    while filled < buf.len() {
        if shared.control.stop.load(Ordering::SeqCst) {
            return ReadFull::Closed;
        }
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return ReadFull::Closed,
            Ok(n) => {
                filled += n;
                *last_activity = Instant::now();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                if let Some(limit) = shared.idle_timeout {
                    if !reap_exempt && last_activity.elapsed() >= limit {
                        shared.reaped_sessions.fetch_add(1, Ordering::Relaxed);
                        return ReadFull::Closed;
                    }
                }
            }
            Err(_) => return ReadFull::Closed,
        }
    }
    ReadFull::Done
}

/// The binary inbound loop a session runs after `UPGRADE`: reads v2
/// frames, decodes DATA frames straight into the session's flat batch
/// (one `admit_batch` call per frame — the per-record reply formatting
/// and per-line parsing of the text path are gone, and a record is a
/// dictionary id plus a timestamp all the way to admission), and
/// answers with
/// one text line per frame. Replies stay text in v2 mode, so broadcast
/// `EVENT` frames keep flowing through the same writer thread.
///
/// Error policy: a frame that fails its header or payload checks gets
/// one `ERR` line and **closes the session** — the client's encoder
/// has already interned any labels the bad frame carried, so skipping
/// it would silently desync the label dictionary; a fresh connection
/// is the resync point. Admission refusals (`ERR frame=<seq> wal …`
/// and engine refusals) are not decode errors: the dictionaries agree,
/// so the session stays open for a retry.
fn run_v2_frames(
    reader: &mut BufReader<TcpStream>,
    shared: &Shared,
    tx: &SyncSender<String>,
    v2s: &mut V2Session,
    scratch: &mut PushScratch<'_>,
    ack: bool,
    reap_exempt: bool,
) -> V2Exit {
    let mut last_activity = Instant::now();
    loop {
        if let ReadFull::Closed =
            read_full(reader, &mut v2s.hdr, shared, &mut last_activity, reap_exempt)
        {
            return V2Exit::Close;
        }
        let header = match v2::decode_header(&v2s.hdr) {
            Ok(h) => h,
            Err(why) => {
                let _ = tx.send(format!("ERR {why}"));
                return V2Exit::Close;
            }
        };
        shared.proto.v2_frames.fetch_add(1, Ordering::Relaxed);
        match header.kind {
            v2::FrameKind::Ping => {
                // Always answered, even under NOACK — the producer's
                // liveness fence between unacked DATA frames.
                if tx.send(format!("PONG frame={}", header.seq)).is_err() {
                    return V2Exit::Close;
                }
            }
            v2::FrameKind::End => {
                if tx.send("OK text".to_string()).is_err() {
                    return V2Exit::Close;
                }
                return V2Exit::BackToText;
            }
            v2::FrameKind::Data => {
                v2s.payload.resize(header.payload_len as usize, 0);
                if let ReadFull::Closed =
                    read_full(reader, &mut v2s.payload, shared, &mut last_activity, reap_exempt)
                {
                    return V2Exit::Close;
                }
                let decode_started = Instant::now();
                if v2::crc32(&v2s.payload) != header.payload_crc {
                    let _ = tx.send(format!("ERR frame={} payload CRC mismatch", header.seq));
                    return V2Exit::Close;
                }
                let decoded = v2s.decoder.decode_data(&v2s.payload, scratch.batch);
                shared.telem.v2_decode.record_duration(decode_started.elapsed());
                match decoded {
                    Ok(new_entries) => {
                        shared
                            .proto
                            .v2_dict_entries
                            .fetch_add(new_entries as u64, Ordering::Relaxed);
                    }
                    Err(why) => {
                        scratch.batch.clear();
                        let _ = tx.send(format!("ERR frame={} {why}", header.seq));
                        return V2Exit::Close;
                    }
                }
                if !flush_v2_frame(scratch, shared, tx, ack, header.seq) {
                    return V2Exit::Close;
                }
            }
        }
    }
}

/// Admits one decoded DATA frame through the lock-free front-end and
/// sends its frame-level ack: `OK frame=<seq> n=<accepted> late=<l>
/// ahead=<a>`. Under `NOACK` the ack is suppressed unless late/ahead
/// records were dropped (the same drop-reporting contract as the text
/// path's per-record `LATE`/`ERR`). Returns `false` if the session's
/// outbound queue is gone.
fn flush_v2_frame(
    scratch: &mut PushScratch<'_>,
    shared: &Shared,
    tx: &SyncSender<String>,
    ack: bool,
    seq: u32,
) -> bool {
    if scratch.batch.is_empty() {
        return !ack || tx.send(format!("OK frame={seq} n=0 late=0 ahead=0")).is_ok();
    }
    match scratch.admit(shared) {
        Ok(()) => {
            let (mut n, mut late, mut ahead) = (0u64, 0u64, 0u64);
            for outcome in scratch.outcomes.drain(..) {
                match outcome {
                    Admission::Accepted => n += 1,
                    Admission::Late => late += 1,
                    Admission::TooFarAhead => ahead += 1,
                }
            }
            if ack || late + ahead > 0 {
                tx.send(format!("OK frame={seq} n={n} late={late} ahead={ahead}")).is_ok()
            } else {
                true
            }
        }
        Err(tiresias_core::CoreError::WalUnavailable(why)) => {
            // Nothing was admitted; the dictionaries still agree, so
            // the session survives for a retry once the log recovers.
            tx.send(format!("ERR frame={seq} wal {why}")).is_ok()
        }
        Err(_closed) => tx.send(format!("ERR frame={seq} {}", shared.refusal_reason())).is_ok(),
    }
}

/// What the reader loop does after one line.
enum SessionStep {
    /// Send the reply (if any) and keep reading.
    Reply(Option<String>),
    /// The session's outbound queue is gone: stop without a farewell.
    Disconnect,
    /// Send the farewell and close the session.
    Close(String),
    /// Acknowledge, start the daemon-wide graceful shutdown, close.
    Shutdown,
    /// Acknowledge `UPGRADE` and switch the inbound stream to binary
    /// [v2 frames](crate::protocol::v2).
    Upgrade,
}

fn handle_request(
    parsed: Result<Option<Request>, String>,
    shared: &Shared,
    tx: &SyncSender<String>,
    subscription: &mut Option<u64>,
    ack: &mut bool,
    dropped_events: &Arc<AtomicU64>,
) -> SessionStep {
    let request = match parsed {
        Ok(Some(request)) => request,
        Ok(None) => return SessionStep::Reply(None),
        Err(why) => return SessionStep::Reply(Some(format!("ERR {why}"))),
    };
    match request {
        Request::Push { .. } => {
            unreachable!("PUSH is routed into the session batch by the caller")
        }
        Request::Subscribe { from } => {
            match subscribe_with_replay(from, shared, tx, subscription, dropped_events) {
                Ok(()) => SessionStep::Reply(None),
                Err(()) => SessionStep::Disconnect,
            }
        }
        Request::Query { from_unit, to_unit, prefix, level, limit } => {
            match answer_query(shared, tx, from_unit, to_unit, prefix, level, limit) {
                Ok(()) => SessionStep::Reply(None),
                Err(()) => SessionStep::Disconnect,
            }
        }
        Request::Stats { json } => {
            let top_paths = if json { String::new() } else { shared.top_paths_gauge() };
            let line = {
                let inner = shared.inner.lock().expect("state lock never poisoned");
                match inner.fatal() {
                    Some(why) => Some(format!("ERR {why}")),
                    None if json => None,
                    None => Some(inner.stats_line(
                        &shared.hub,
                        &top_paths,
                        dropped_events.load(Ordering::Relaxed),
                        shared.reaped_sessions.load(Ordering::Relaxed),
                        &shared.proto,
                    )),
                }
            };
            // The JSON snapshot renders AFTER the state lock drops:
            // registry closures read the report store and the hub,
            // never `inner` (the deadlock-freedom invariant).
            let line = line.unwrap_or_else(|| shared.telem.registry.render_json());
            SessionStep::Reply(Some(line))
        }
        Request::Noack => {
            *ack = false;
            SessionStep::Reply(Some("OK".to_string()))
        }
        Request::Ping => SessionStep::Reply(Some("PONG".to_string())),
        Request::Hello => SessionStep::Reply(Some("OK v2".to_string())),
        Request::Upgrade => SessionStep::Upgrade,
        Request::Quit => SessionStep::Close("BYE".to_string()),
        Request::Shutdown => SessionStep::Shutdown,
    }
}

/// Handles `SUBSCRIBE [FROM <unit>]`: re-registers the session with
/// the hub — reviving a lag-dropped stream — after replaying retained
/// history for a `FROM` catch-up.
///
/// The gap-free splice works in chunks: under the state lock (which
/// serialises all broadcasts) a bounded slice of already-broadcast
/// retained events is copied out; the lock is released while the
/// chunk is written to the session queue (a slow client stalls only
/// its own session thread); and once a chunk comes back empty with
/// the replay caught up to the broadcast cursor, the subscription is
/// registered **under that same lock acquisition** — no event can be
/// broadcast between "replay is complete" and "live frames flow", and
/// none is delivered twice.
///
/// Errs when the session's outbound queue is gone.
fn subscribe_with_replay(
    from: Option<u64>,
    shared: &Shared,
    tx: &SyncSender<String>,
    subscription: &mut Option<u64>,
    dropped_events: &Arc<AtomicU64>,
) -> Result<(), ()> {
    if let Some(old) = subscription.take() {
        shared.hub.unsubscribe(old);
    }
    let Some(from_unit) = from else {
        // Live-only: the advertised resume unit and the hub
        // registration must come from ONE lock acquisition (broadcasts
        // run under the same lock), or a unit could close in between
        // and its events — promised by `from=` — silently miss this
        // subscriber. The floor doubles as a belt-and-braces filter.
        let resume = {
            let inner = shared.inner.lock().expect("state lock never poisoned");
            let resume = inner.resume_unit(None);
            *subscription =
                Some(shared.hub.subscribe(tx.clone(), resume, Arc::clone(dropped_events)));
            resume
        };
        return tx.send(format!("OK subscribed from={resume}")).map_err(drop);
    };
    let resume = {
        let inner = shared.inner.lock().expect("state lock never poisoned");
        inner.resume_unit(Some(from_unit))
    };
    // The reply leads so the client knows its actual resume point —
    // later than requested when older history was already evicted —
    // before the first replayed frame arrives. (The replay cursor is
    // seq-based, so a close between this reply and the replay loop
    // loses nothing.)
    tx.send(format!("OK subscribed from={resume}")).map_err(drop)?;
    let t0 = Instant::now();
    let mut pos = 0u64;
    let mut replayed = 0u64;
    loop {
        let chunk = {
            let inner = shared.inner.lock().expect("state lock never poisoned");
            let (lines, next, done) = inner.replay_chunk(pos, from_unit, REPLAY_CHUNK);
            if done && lines.is_empty() {
                *subscription =
                    Some(shared.hub.subscribe(tx.clone(), from_unit, Arc::clone(dropped_events)));
                None
            } else {
                Some((lines, next))
            }
        };
        let Some((lines, next)) = chunk else {
            let elapsed = t0.elapsed();
            shared.telem.catchup.record_duration(elapsed);
            if let Some(slow) = &shared.telem.slow {
                slow.record(
                    "subscribe_catchup",
                    elapsed,
                    &[("from", Field::from(from_unit)), ("frames", Field::from(replayed))],
                );
            }
            return Ok(());
        };
        pos = next;
        for line in lines {
            replayed += 1;
            tx.send(line).map_err(drop)?;
        }
    }
}

/// Answers a `QUERY` straight off the report reader: `EVENT` frames
/// for the matching events — spilled segment history first, then the
/// retained in-memory tail — then `OK n=<count>`. Never takes the
/// state lock, so queries contend only with the per-close merge —
/// never with admission or each other.
///
/// Errs when the session's outbound queue is gone.
fn answer_query(
    shared: &Shared,
    tx: &SyncSender<String>,
    from_unit: u64,
    to_unit: u64,
    prefix: Option<String>,
    level: Option<usize>,
    limit: Option<usize>,
) -> Result<(), ()> {
    let t0 = Instant::now();
    let prefix: Option<CategoryPath> =
        prefix.map(|p| p.parse().expect("CategoryPath parsing is infallible"));
    let limit = limit.unwrap_or(DEFAULT_QUERY_LIMIT).clamp(1, MAX_QUERY_LIMIT);
    // Matches are cloned out and formatted AFTER the read lock drops:
    // a large reply must not hold the lock against the scheduler's
    // close merge for the formatting duration.
    let events: Vec<AnomalyEvent> =
        match shared.reader.query_merged(from_unit, to_unit, prefix.as_ref(), level, limit) {
            Ok(events) => events,
            Err(why) => return tx.send(format!("ERR {why}")).map_err(drop),
        };
    let count = events.len();
    for event in &events {
        tx.send(crate::protocol::format_event(event)).map_err(drop)?;
    }
    // Record before the final OK is enqueued: a client that scrapes
    // the moment its reply lands must already see this query counted.
    let elapsed = t0.elapsed();
    shared.telem.query.record_duration(elapsed);
    let result = tx.send(format!("OK n={count}")).map_err(drop);
    if let Some(slow) = &shared.telem.slow {
        slow.record(
            "query",
            elapsed,
            &[
                ("from", Field::from(from_unit)),
                ("to", Field::from(to_unit)),
                ("frames", Field::from(count)),
            ],
        );
    }
    result
}
