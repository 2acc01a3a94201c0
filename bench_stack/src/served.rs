//! The served workloads: an in-process `Server` (optionally behind a
//! `Router`) on loopback, driven only through its sockets.
//!
//! Closed-loop workloads run in rounds — a fresh deployment per round,
//! the same pre-encoded bytes — for the run's duration. A round's timed
//! window opens at the first byte handed to the system and closes when
//! the last unit is closed and its events final: the sentinel records
//! one unit past the end trigger that close, so the constant grace tail
//! is inside the window.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use tiresias_core::{load_checkpoint, CheckpointEngine, RebalanceConfig, WalSyncPolicy};
use tiresias_server::{Router, RouterConfig, Server, ServerConfig};

use crate::client::{parse_frame_ack, query_all, thread_cpu_s, wait_closed, LineConn, Stats};
use crate::gen::{detector, Stream, UnitChunk};
use crate::oracle::{describe_mismatch, event_key, event_keys, Expected};
use crate::stats::{median, quantile, tail_quantile};
use crate::trace::{SpanGuard, Tracer};
use crate::Measured;

/// How long any single wait (a unit closing, nodes coming up) may take
/// before the run is failed instead of hanging.
const WAIT_LIMIT: Duration = Duration::from_secs(60);

/// Outbound queue bound of every session (replies + subscribed events).
const SUBSCRIBER_QUEUE: usize = 1 << 16;

/// How the system under test is deployed for a workload.
#[derive(Debug, Clone, Copy)]
pub struct Deploy {
    /// Shards of the one server; ignored when `routed`.
    pub shards: usize,
    pub grace: Duration,
    pub tick: Duration,
    /// `data_dir` + `WalSyncPolicy::Interval`; otherwise memory-only
    /// with a graceful-stop checkpoint.
    pub durable: bool,
    pub rebalance: bool,
    /// A `Router` in front of two one-shard servers.
    pub routed: bool,
}

/// A running deployment. Stopping it is graceful: every node drains and
/// writes its checkpoint, so the same directory restarts where it left
/// off.
pub struct Deployment {
    nodes: Vec<Server>,
    router: Option<Router>,
    /// Where clients connect.
    pub addr: SocketAddr,
    pub node_addrs: Vec<SocketAddr>,
}

fn node_config(stream: &Stream, deploy: &Deploy, shards: usize, dir: &Path) -> ServerConfig {
    let mut config = ServerConfig::new(detector(&stream.root_label).shards(shards));
    config.grace = deploy.grace;
    config.tick = deploy.tick;
    // A bulk replay closes dozens of units per barrier and broadcasts
    // their events at once; the default 1024-line queue would drop the
    // router's own fan-in subscription as a laggard.
    config.subscriber_queue = SUBSCRIBER_QUEUE;
    if deploy.durable {
        config.data_dir = Some(dir.to_path_buf());
        config.wal_sync = WalSyncPolicy::Interval(WalSyncPolicy::DEFAULT_INTERVAL);
    } else {
        config.checkpoint = Some(checkpoint_path(dir));
    }
    if deploy.rebalance {
        config.rebalance = RebalanceConfig::enabled();
    }
    config
}

/// Where a node's graceful stop leaves its checkpoint: the durable
/// data dir's default, and the explicit path of a memory-only node.
fn checkpoint_path(dir: &Path) -> PathBuf {
    dir.join("checkpoint.json")
}

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

impl Deployment {
    /// Starts the deployment on `dir` (resuming whatever a previous
    /// graceful stop left there) and returns once it accepts traffic.
    pub fn start(stream: &Stream, deploy: &Deploy, dir: &Path) -> io::Result<Deployment> {
        if !deploy.routed {
            std::fs::create_dir_all(dir)?;
            let server =
                Server::start(node_config(stream, deploy, deploy.shards, dir)).map_err(other)?;
            let addr = server.local_addr();
            return Ok(Deployment {
                nodes: vec![server],
                router: None,
                addr,
                node_addrs: vec![addr],
            });
        }
        let mut nodes = Vec::new();
        for i in 0..2 {
            let node_dir = dir.join(format!("node{i}"));
            std::fs::create_dir_all(&node_dir)?;
            nodes.push(Server::start(node_config(stream, deploy, 1, &node_dir)).map_err(other)?);
        }
        let node_addrs: Vec<SocketAddr> = nodes.iter().map(Server::local_addr).collect();
        let mut config = RouterConfig::new(node_addrs.iter().map(ToString::to_string).collect());
        config.probe_interval = Duration::from_millis(100);
        config.queue_bound = SUBSCRIBER_QUEUE;
        let router = Router::start(config).map_err(other)?;
        let deployment =
            Deployment { nodes, addr: router.local_addr(), router: Some(router), node_addrs };
        // Traffic sent before the supervisors' first probe would park in
        // the outage buffers; wait until both nodes are up.
        let mut conn = LineConn::connect(deployment.addr)?;
        let deadline = Instant::now() + WAIT_LIMIT;
        while conn.stats()?.scalar_each("tiresias_node_state") != [2.0, 2.0] {
            if Instant::now() >= deadline {
                return Err(other("routed nodes never came up"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(deployment)
    }

    pub fn stop(self) -> io::Result<()> {
        // Flag the router first, stop the nodes, then join the router:
        // its fan-in readers notice the flag when their node connection
        // closes, instead of after a full request timeout.
        if let Some(router) = &self.router {
            router.shutdown();
        }
        let mut result = Ok(());
        for node in self.nodes {
            node.shutdown();
            if let Err(e) = node.join() {
                result = Err(other(e));
            }
        }
        if let Some(router) = self.router {
            router.join();
        }
        result
    }

    /// `STATS JSON` of every node, waiting until each node that holds
    /// records has closed everything below `unit`.
    pub fn await_closed(&self, unit: u64) -> io::Result<Vec<Stats>> {
        let deadline = Instant::now() + WAIT_LIMIT;
        let mut all = Vec::new();
        for &addr in &self.node_addrs {
            let stats = LineConn::connect(addr)?.stats()?;
            if stats.scalar("tiresias_admitted_records_total") == 0.0 {
                all.push(stats);
            } else {
                all.push(wait_closed(addr, unit, deadline)?);
            }
        }
        Ok(all)
    }

    /// Runs `drive`; when `watch` is set (the traced run), a monitor
    /// polls every node's `STATS JSON` every 10 ms meanwhile and the
    /// deepest backlog it saw — records queued in the shard rings plus
    /// records stashed ahead of the watermark — is returned as well.
    fn watching_backlog<T>(&self, watch: bool, drive: impl FnOnce() -> T) -> (T, f64) {
        if !watch {
            return (drive(), 0.0);
        }
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let monitor = scope.spawn(|| {
                let mut conns: Vec<LineConn> =
                    self.node_addrs.iter().filter_map(|&a| LineConn::connect(a).ok()).collect();
                let mut deepest = 0.0f64;
                while !done.load(Ordering::SeqCst) {
                    for conn in &mut conns {
                        if let Ok(stats) = conn.stats() {
                            deepest = deepest.max(
                                stats.scalar("tiresias_ring_queued_records")
                                    + stats.scalar("tiresias_stashed_records"),
                            );
                        }
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                deepest
            });
            let result = drive();
            done.store(true, Ordering::SeqCst);
            (result, monitor.join().expect("monitor thread never panics"))
        })
    }

    fn router_stats(&self) -> io::Result<Option<Stats>> {
        match self.router {
            Some(_) => Ok(Some(LineConn::connect(self.addr)?.stats()?)),
            None => Ok(None),
        }
    }
}

/// What the graceful stop of a deployment persisted, read back from
/// its nodes' checkpoints: detector state in cells, checkpoint bytes,
/// and the milliseconds `load_checkpoint` took.
fn checkpointed_state(deploy: &Deploy, dir: &Path) -> io::Result<(f64, f64, f64)> {
    let dirs: Vec<PathBuf> = if deploy.routed {
        (0..2).map(|i| dir.join(format!("node{i}"))).collect()
    } else {
        vec![dir.to_path_buf()]
    };
    let (mut cells, mut bytes, mut load) = (0usize, 0usize, Duration::ZERO);
    for dir in dirs {
        let json = std::fs::read_to_string(checkpoint_path(&dir))?;
        bytes += json.len();
        let t0 = Instant::now();
        let engine = load_checkpoint(&json).map_err(other)?;
        load += t0.elapsed();
        match engine {
            CheckpointEngine::Sharded(engine) => {
                cells += engine
                    .shards()
                    .iter()
                    .map(|shard| shard.memory_report().total_cells())
                    .sum::<usize>();
            }
            CheckpointEngine::Single(_) => return Err(other("served checkpoint is not sharded")),
        }
    }
    Ok((cells as f64, bytes as f64, load.as_secs_f64() * 1e3))
}

/// The operator's routine question: the first 50 anomalies of the most
/// recent 16 units. The cap keeps the reply the same size whatever the
/// seed, so the round trip measures the server, not the anomaly count.
fn recent_query(last_unit: u64) -> String {
    format!("QUERY {} {last_unit} LIMIT 50", last_unit.saturating_sub(16))
}

/// The reply to [`recent_query`] as sorted event keys.
fn query_recent(conn: &mut LineConn, last_unit: u64) -> io::Result<Vec<String>> {
    let request = recent_query(last_unit);
    let (events, tail) = conn.query(&request)?;
    if tail != format!("OK n={}", events.len()) {
        return Err(other(format!("`{request}` answered `{tail}`")));
    }
    Ok(event_keys(&events))
}

/// Where the spans of one round go: the round's root span and number.
#[derive(Clone, Copy)]
struct Spans<'a> {
    tracer: &'a Tracer,
    run: u32,
    parent: u64,
}

impl<'a> Spans<'a> {
    fn span(&self, name: &'static str) -> SpanGuard<'a> {
        self.tracer.span(name, self.parent, self.run)
    }
}

/// What one load-generating connection observed.
#[derive(Debug, Default, Clone)]
struct ClientLog {
    /// Time blocked on each reply the client waited for, ms.
    waits_ms: Vec<f64>,
    accepted: u64,
    late: u64,
    ahead: u64,
    errors: u64,
    cpu_s: f64,
}

/// What one round produced.
struct Round {
    window_s: f64,
    clients: Vec<ClientLog>,
    /// Sorted keys of every retained anomaly afterwards.
    events: Vec<String>,
    /// The reply to [`query_recent`] afterwards.
    recent: Vec<String>,
    node_stats: Vec<Stats>,
    router_stats: Option<Stats>,
    /// Deepest ring + stash backlog the monitor saw (traced rounds).
    backlog_max: f64,
    /// Round trips of the concurrent `QUERY` reader, µs.
    query_us: Vec<f64>,
    bad_queries: u64,
}

/// Closed loop over wire v2: each client writes one acked DATA frame
/// per unit and waits for its ack; a barrier keeps the clients within
/// one unit of each other (live feeds are time-aligned; unbounded skew
/// would only measure the grace window dropping stragglers).
fn drive_v2(
    d: &Deployment,
    stream: &Stream,
    chunks: &[Vec<UnitChunk>],
    at: Spans<'_>,
) -> io::Result<Round> {
    let units = stream.units.len();
    let barrier = Barrier::new(chunks.len());
    let abort = AtomicBool::new(false);
    let started: std::sync::Mutex<Option<Instant>> = std::sync::Mutex::new(None);
    let logs: Vec<io::Result<ClientLog>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .enumerate()
            .map(|(c, chunks)| {
                let (barrier, abort, started) = (&barrier, &abort, &started);
                scope.spawn(move || -> io::Result<ClientLog> {
                    let mut log = ClientLog::default();
                    let mut conn = LineConn::connect(d.addr)
                        .and_then(|mut conn| conn.expect("UPGRADE", "OK upgraded").map(|()| conn));
                    if conn.is_err() {
                        abort.store(true, Ordering::SeqCst);
                    }
                    barrier.wait();
                    if c == 0 {
                        *started.lock().expect("start lock never poisoned") = Some(Instant::now());
                    }
                    let cpu0 = thread_cpu_s();
                    let mut send = |chunk: &UnitChunk, log: &mut ClientLog| -> io::Result<()> {
                        let conn = conn.as_mut().map_err(|e| other(&*e))?;
                        {
                            let _s = at.span("datagen.write_frame");
                            conn.write_all(&chunk.bytes)?;
                        }
                        let _s = at.span("server.await_ack");
                        let w0 = Instant::now();
                        let reply = conn.read_line()?;
                        log.waits_ms.push(w0.elapsed().as_secs_f64() * 1e3);
                        match parse_frame_ack(reply) {
                            Some((n, late, ahead)) => {
                                log.accepted += n;
                                log.late += late;
                                log.ahead += ahead;
                            }
                            None => log.errors += chunk.records as u64,
                        }
                        Ok(())
                    };
                    let mut result = Ok(());
                    for chunk in &chunks[..units] {
                        if result.is_ok() && !abort.load(Ordering::SeqCst) {
                            result = send(chunk, &mut log);
                            if result.is_err() {
                                abort.store(true, Ordering::SeqCst);
                            }
                        }
                        let _s = at.span("datagen.lockstep_barrier");
                        barrier.wait();
                    }
                    for sentinel in &chunks[units..] {
                        if result.is_ok() && !abort.load(Ordering::SeqCst) {
                            result = send(sentinel, &mut log);
                        }
                    }
                    log.cpu_s = thread_cpu_s() - cpu0;
                    result.map(|()| log)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread never panics")).collect()
    });
    let clients = logs.into_iter().collect::<io::Result<Vec<ClientLog>>>()?;
    let t0 = started.lock().expect("start lock never poisoned").expect("client 0 started");
    finish_round(d, stream, t0, clients, Vec::new(), 0, at)
}

/// Lines per text flush: the writer sends this many `PUSH` lines and a
/// `PING`, then waits for the `PONG` before sending more.
pub const TEXT_FLUSH_LINES: usize = 1024;

/// Closed loop over the text protocol: one `NOACK` writer with one ack
/// per flush (the `PONG` of the `PING` that ends it; anything before it
/// reports a dropped record), beside one reader issuing `QUERY` for the
/// most recent units in a closed loop with 1 ms think time.
fn drive_text(
    d: &Deployment,
    stream: &Stream,
    chunks: &[UnitChunk],
    expected: &Expected,
    at: Spans<'_>,
) -> io::Result<Round> {
    let progress = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let mut writer_conn = LineConn::connect(d.addr)?;
    writer_conn.expect("NOACK", "OK")?;
    let mut reader_conn = LineConn::connect(d.addr)?;
    let t0 = Instant::now();
    let (writer, reader) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| -> io::Result<ClientLog> {
            let mut log = ClientLog::default();
            let cpu0 = thread_cpu_s();
            let result = (|| -> io::Result<()> {
                for chunk in chunks {
                    {
                        let _s = at.span("datagen.write_lines");
                        writer_conn.write_all(&chunk.bytes)?;
                    }
                    let _s = at.span("server.await_ack");
                    let w0 = Instant::now();
                    let mut dropped = 0;
                    loop {
                        match writer_conn.read_line()? {
                            "PONG" => break,
                            "LATE" => log.late += 1,
                            reply if reply.contains("too far ahead") => log.ahead += 1,
                            _ => log.errors += 1,
                        }
                        dropped += 1;
                    }
                    log.accepted += (chunk.records as u64).saturating_sub(dropped);
                    log.waits_ms.push(w0.elapsed().as_secs_f64() * 1e3);
                    progress.store(chunk.unit, Ordering::Relaxed);
                }
                Ok(())
            })();
            log.cpu_s = thread_cpu_s() - cpu0;
            done.store(true, Ordering::SeqCst);
            result.map(|()| log)
        });
        let reader = scope.spawn(|| -> io::Result<(Vec<f64>, u64, f64)> {
            let (mut rtts, mut bad) = (Vec::new(), 0u64);
            let cpu0 = thread_cpu_s();
            while !done.load(Ordering::SeqCst) {
                let to = progress.load(Ordering::Relaxed) as u64;
                let request = recent_query(to);
                let q0 = Instant::now();
                let (events, tail) = {
                    let _s = at.span("server.query");
                    reader_conn.query(&request)?
                };
                rtts.push(q0.elapsed().as_secs_f64() * 1e6);
                let known = |e: &String| expected.events.binary_search(&event_key(e)).is_ok();
                if tail != format!("OK n={}", events.len()) || !events.iter().all(known) {
                    bad += 1;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok((rtts, bad, thread_cpu_s() - cpu0))
        });
        (
            writer.join().expect("writer thread never panics"),
            reader.join().expect("reader thread never panics"),
        )
    });
    let (query_us, bad_queries, reader_cpu) = reader?;
    let reader_log = ClientLog { cpu_s: reader_cpu, ..ClientLog::default() };
    finish_round(d, stream, t0, vec![writer?, reader_log], query_us, bad_queries, at)
}

/// Closes a round's window (last unit closed, events final), then reads
/// back what the deployment retained and its own statistics.
fn finish_round(
    d: &Deployment,
    stream: &Stream,
    t0: Instant,
    clients: Vec<ClientLog>,
    query_us: Vec<f64>,
    bad_queries: u64,
    at: Spans<'_>,
) -> io::Result<Round> {
    let node_stats = {
        let _s = at.span("server.await_close");
        d.await_closed(stream.units.len() as u64)?
    };
    let window_s = t0.elapsed().as_secs_f64();
    let (events, recent) = {
        let _s = at.span("server.query_all");
        let mut conn = LineConn::connect(d.addr)?;
        let last_unit = stream.units.len() as u64;
        (query_all(&mut conn, last_unit)?, query_recent(&mut conn, last_unit)?)
    };
    Ok(Round {
        window_s,
        clients,
        events,
        recent,
        node_stats,
        router_stats: d.router_stats()?,
        backlog_max: 0.0,
        query_us,
        bad_queries,
    })
}

/// The pre-encoded traffic of a closed-loop workload.
pub enum Traffic {
    /// Per client, one v2 frame per unit (+ the sentinel chunk on
    /// client 0).
    V2(Vec<Vec<UnitChunk>>),
    /// One text writer's flushes, beside a `QUERY` reader.
    TextWithReader(Vec<UnitChunk>),
    /// The open-loop schedule and its frames ([`encode_paced`]).
    Paced(Pace, Vec<UnitChunk>),
}

/// A served workload: what is sent, what must come out, where it runs.
pub struct Served<'a> {
    pub stream: &'a Stream,
    pub expected: &'a Expected,
    pub deploy: &'a Deploy,
    /// Scratch directory for data dirs and checkpoints.
    pub work: &'a Path,
    /// How often the restart is repeated (the median is reported).
    pub restart_reps: usize,
    pub tracer: &'a Tracer,
}

impl Served<'_> {
    /// Runs the workload `traffic` belongs to for `seconds`.
    pub fn run(&self, traffic: &Traffic, seconds: f64) -> io::Result<Measured> {
        let Served { stream, expected, .. } = *self;
        match traffic {
            Traffic::V2(chunks) => {
                self.run_rounds(seconds, |d, at| drive_v2(d, stream, chunks, at))
            }
            Traffic::TextWithReader(chunks) => {
                self.run_rounds(seconds, |d, at| drive_text(d, stream, chunks, expected, at))
            }
            Traffic::Paced(pace, chunks) => self.run_paced(pace, chunks),
        }
    }

    /// Runs a closed-loop workload in rounds of `drive` for `seconds`,
    /// then measures restart on the last round's directory.
    fn run_rounds(
        &self,
        seconds: f64,
        drive: impl Fn(&Deployment, Spans<'_>) -> io::Result<Round>,
    ) -> io::Result<Measured> {
        let Served { stream, expected, deploy, work, tracer, .. } = *self;
        let mut m = Measured::default();
        let off = Tracer::new(false);
        // End-to-end figures come from the untraced rounds only; the traced
        // ones feed the per-layer figures and the tracing overhead.
        let (mut rounds, mut traced_rounds): (Vec<Round>, Vec<Round>) = (Vec::new(), Vec::new());
        let started = Instant::now();
        let mut n = 0u32;
        let mut dir = work.join("round0");
        while n == 0 || started.elapsed().as_secs_f64() < seconds {
            let traced = tracer.enabled() && n % 2 == 1;
            let tr = if traced { tracer } else { &off };
            dir = work.join(format!("round{n}"));
            let root = tr.span("run.round", 0, n);
            let at = Spans { tracer: tr, run: n, parent: root.id() };
            let d = {
                let _s = at.span("server.start");
                Deployment::start(stream, deploy, &dir)?
            };
            let (round, backlog_max) = d.watching_backlog(traced, || drive(&d, at));
            {
                let _s = at.span("server.stop");
                d.stop()?;
            }
            drop(root);
            let round = Round { backlog_max, ..round? };
            if traced {
                traced_rounds.push(round);
            } else {
                rounds.push(round);
            }
            n += 1;
        }
        let traced_windows: Vec<f64> = traced_rounds.iter().map(|r| r.window_s).collect();

        let sent = (stream.records + stream.sentinels.len()) as u64;
        // Per round: the median and the tail of its headline latency (ack
        // waits in ms, or QUERY round trips in µs when a reader ran). The
        // run reports the median over rounds, so one disturbed round cannot
        // populate the tail.
        let (mut p50s, mut tails): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
        let (mut ack_waits, mut ack_wait_ms, mut queries) = (0usize, 0.0f64, 0usize);
        let mut cpu_shares: Vec<f64> = Vec::new();
        for r in &rounds {
            m.attempted += sent + r.query_us.len() as u64;
            let accepted: u64 = r.clients.iter().map(|c| c.accepted).sum();
            // Every record not acknowledged as accepted failed, whatever
            // the reason (late, ahead, ERR, degraded frame).
            m.failed += sent.saturating_sub(accepted) + r.bad_queries;
            if accepted != sent || r.bad_queries > 0 {
                let count = |f: fn(&ClientLog) -> u64| r.clients.iter().map(f).sum::<u64>();
                m.notes.push(format!(
                    "FAILED operations in a round: sent={sent} accepted={accepted} late={} ahead={} \
                     refused={} bad_queries={}",
                    count(|c| c.late),
                    count(|c| c.ahead),
                    count(|c| c.errors),
                    r.bad_queries,
                ));
            }
            let dropped: f64 =
                r.node_stats.iter().map(|s| s.scalar("tiresias_subscriber_dropped_total")).sum();
            if dropped > 0.0 {
                m.failed += dropped as u64;
                m.notes.push(format!("FAILED: {dropped} subscriber(s) dropped as slow in a round"));
            }
            if let Some(why) = describe_mismatch("round", &expected.events, &r.events) {
                m.correct = false;
                m.notes.push(why);
            }
            let waits: Vec<f64> =
                r.clients.iter().flat_map(|c| c.waits_ms.iter().copied()).collect();
            ack_waits += waits.len();
            ack_wait_ms += waits.iter().sum::<f64>();
            queries += r.query_us.len();
            if r.query_us.is_empty() {
                // Headline latency: how long a bulk loader waits for a
                // frame's ack.
                p50s.push(median(&waits));
                tails.push(quantile(&waits, tail_quantile(waits.len())));
            } else {
                // Headline latency: QUERY round trip while ingest runs.
                p50s.push(median(&r.query_us) / 1e3);
                tails.push(quantile(&r.query_us, tail_quantile(r.query_us.len())) / 1e3);
            }
            cpu_shares.push(r.clients.iter().map(|c| c.cpu_s).sum::<f64>() / r.window_s);
        }
        let windows: Vec<f64> = rounds.iter().map(|r| r.window_s).collect();
        let window = median(&windows);
        let v = &mut m.values;
        v.set("records_per_s", sent as f64 / window);
        v.set("latency_p50_ms", median(&p50s));
        v.set("latency_tail_ms", median(&tails));

        let last = rounds.last().expect("at least one untraced round ran");
        let observed = traced_rounds.last().unwrap_or(last);
        set_live_values(
            v,
            &observed.node_stats,
            observed.router_stats.as_ref(),
            observed.backlog_max,
        );
        v.set("detector.anomalies", last.events.len() as f64);
        v.set("datagen.client_cpu_share", median(&cpu_shares));
        v.set(
            "server.fence_wait_ms_per_unit",
            ack_wait_ms / (rounds.len() * stream.units.len()) as f64,
        );
        if !traced_windows.is_empty() {
            v.set("trace.overhead_pct", (median(&traced_windows) / window - 1.0) * 100.0);
        }
        m.notes.push(format!(
            "rounds={} window_s={:.4} (untraced rounds: {}) load_threads={} ack_waits={} queries={} \
             records_per_round={}",
            rounds.len() + traced_windows.len(),
            window,
            windows.iter().map(|w| format!("{w:.3}")).collect::<Vec<_>>().join(" "),
            last.clients.len(),
            ack_waits,
            queries,
            sent,
        ));

        let recent = last.recent.clone();
        self.measure_restart(&mut m, &recent, &dir)?;
        Ok(m)
    }

    /// Restart: after a graceful stop, `start` on the same directory until
    /// the first `QUERY` reply, which must equal the pre-stop reply to the
    /// same query; the full history is then checked against the oracle,
    /// untimed.
    fn measure_restart(
        &self,
        m: &mut Measured,
        pre_stop_recent: &[String],
        dir: &Path,
    ) -> io::Result<()> {
        let Served { stream, expected, deploy, tracer, restart_reps: reps, .. } = *self;
        let last_unit = stream.units.len() as u64;
        let mut restarts = Vec::new();
        for _ in 0..reps {
            let span = tracer.span("server.restart", 0, 0);
            let r0 = Instant::now();
            let d = Deployment::start(stream, deploy, dir)?;
            let mut conn = LineConn::connect(d.addr)?;
            let recent = query_recent(&mut conn, last_unit);
            restarts.push(r0.elapsed().as_secs_f64());
            drop(span);
            let events = query_all(&mut conn, last_unit);
            d.stop()?;
            m.attempted += 1;
            let mismatch =
                describe_mismatch("first query after restart", pre_stop_recent, &recent?)
                    .or(describe_mismatch("history after restart", &expected.events, &events?));
            if let Some(why) = mismatch {
                m.failed += 1;
                m.correct = false;
                m.notes.push(why);
            }
        }
        m.values.set("restart_s", median(&restarts));
        let (cells, bytes, load_ms) = checkpointed_state(deploy, dir)?;
        m.values.set("state_cells", cells);
        m.values.set("checkpoint.bytes", bytes);
        m.values.set("checkpoint.load_ms", load_ms);
        Ok(())
    }
}

/// Per-layer values read off the deployment's own `STATS JSON`.
fn set_live_values(
    v: &mut crate::report::Values,
    nodes: &[Stats],
    router: Option<&Stats>,
    backlog_max: f64,
) {
    let sum = |name: &str| nodes.iter().map(|s| s.scalar(name)).sum::<f64>();
    let p50_max = |name: &str| nodes.iter().map(|s| s.hist(name).p50_ms).fold(0.0f64, f64::max);
    v.set("live.admit_p50_us", p50_max("tiresias_admit_batch_seconds") * 1e3);
    v.set("live.close_p50_ms", p50_max("tiresias_close_unit_seconds"));
    v.set("live.ring_depth_max", backlog_max);
    v.set(
        "live.pending_end",
        sum("tiresias_ring_queued_records") + sum("tiresias_stashed_records"),
    );
    v.set("live.late", sum("tiresias_late_records_total"));
    v.set("live.ahead", sum("tiresias_ahead_records_total"));
    v.set("sharded.rebalances", sum("tiresias_rebalances_total"));
    v.set("segments.units", sum("tiresias_segment_blocks"));
    v.set("store.events", sum("tiresias_retained_events"));
    v.set("hub.dropped_slow", sum("tiresias_subscriber_dropped_total"));
    if let Some(r) = router {
        v.set("route.buffered", r.scalar("tiresias_node_buffered_records_total"));
        v.set("route.replayed", r.scalar("tiresias_node_replayed_records_total"));
        v.set("route.degraded_queries", r.scalar("tiresias_degraded_queries_total"));
    }
}

/// The open-loop schedule of `serve_paced`.
#[derive(Debug, Clone, Copy)]
pub struct Pace {
    /// Wall time per detector unit.
    pub unit_wall: Duration,
    /// DATA frames a unit's records are spread over, evenly in time.
    pub frames_per_unit: usize,
}

/// The paced stream as NOACK v2 frames: per unit, `frames_per_unit`
/// consecutive slices of its time-ordered records, then the sentinel
/// frame.
pub fn encode_paced(stream: &Stream, pace: &Pace) -> Vec<UnitChunk> {
    use tiresias_server::protocol::v2::FrameEncoder;
    let mut enc = FrameEncoder::new();
    let mut chunks = Vec::new();
    let mut seq = 0u32;
    let mut finish = |enc: &mut FrameEncoder, unit: usize, records: usize| {
        let mut bytes = Vec::new();
        enc.finish(seq, &mut bytes);
        seq += 1;
        chunks.push(UnitChunk { bytes, records, unit });
    };
    for (u, unit) in stream.units.iter().enumerate() {
        let per_frame = unit.len().div_ceil(pace.frames_per_unit).max(1);
        for f in 0..pace.frames_per_unit {
            let slice = unit.iter().skip(f * per_frame).take(per_frame);
            let mut records = 0;
            for &(id, t) in slice {
                enc.add(stream.path(id), t);
                records += 1;
            }
            finish(&mut enc, u, records);
        }
    }
    for (path, t) in stream.sentinel_records() {
        enc.add(path, t);
    }
    finish(&mut enc, stream.units.len(), stream.sentinels.len());
    chunks
}

/// One paced run's observations.
struct PacedRun {
    /// Per unit with at least one event: first event's arrival minus
    /// (the next unit's first frame's due time + grace), ms.
    lags_ms: Vec<f64>,
    /// How late each frame left the generator, ms.
    late_ms: Vec<f64>,
    events: Vec<String>,
    node_stats: Vec<Stats>,
    backlog_max: f64,
    window_s: f64,
    sender_cpu_s: f64,
}

/// Open loop: one v2 sender on a fixed wall-clock schedule that does
/// not slow when the system slows, one subscriber timing each unit's
/// first event against when that unit was over.
fn drive_paced(
    d: &Deployment,
    stream: &Stream,
    chunks: &[UnitChunk],
    pace: &Pace,
    grace: Duration,
    at: Spans<'_>,
) -> io::Result<PacedRun> {
    let frame_gap = pace.unit_wall / pace.frames_per_unit as u32;
    let mut sender = LineConn::connect(d.addr)?;
    sender.expect("NOACK", "OK")?;
    sender.expect("UPGRADE", "OK upgraded")?;
    let mut sub = LineConn::connect(d.addr)?;
    sub.send_line("SUBSCRIBE")?;
    if !sub.read_line()?.starts_with("OK subscribed") {
        return Err(other("SUBSCRIBE refused"));
    }
    sub.set_read_timeout(Duration::from_millis(20))?;
    let done = AtomicBool::new(false);
    // A short lead so the first frame is not already late.
    let t0 = Instant::now() + Duration::from_millis(5);
    let (sent, arrivals) = std::thread::scope(|scope| {
        let subscriber = scope.spawn(|| {
            let mut arrivals: Vec<(u64, Instant, String)> = Vec::new();
            loop {
                match sub.read_line() {
                    Ok(line) => {
                        let now = Instant::now();
                        if let Some(unit) = line
                            .strip_prefix("EVENT unit=")
                            .and_then(|rest| rest.split(' ').next())
                            .and_then(|u| u.parse().ok())
                        {
                            arrivals.push((unit, now, line.to_string()));
                        }
                    }
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                    {
                        if done.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
            arrivals
        });
        let sent = (|| -> io::Result<(Vec<f64>, f64)> {
            let cpu0 = thread_cpu_s();
            let mut late_ms = Vec::with_capacity(chunks.len());
            for (i, chunk) in chunks.iter().enumerate() {
                let due = t0 + frame_gap * i as u32;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                let _s = at.span("datagen.write_frame");
                sender.write_all(&chunk.bytes)?;
            }
            Ok((late_ms, thread_cpu_s() - cpu0))
        })();
        let closed = {
            let _s = at.span("server.await_close");
            d.await_closed(stream.units.len() as u64)
        };
        let window_s = t0.elapsed().as_secs_f64();
        // Events of the last close are queued before STATS reports it;
        // give the subscriber one read timeout to drain them.
        std::thread::sleep(Duration::from_millis(30));
        done.store(true, Ordering::SeqCst);
        let arrivals = subscriber.join().expect("subscriber thread never panics");
        (sent.and_then(|s| closed.map(|c| (s, c, window_s))), arrivals)
    });
    let ((late_ms, sender_cpu_s), node_stats, window_s) = sent?;
    let mut lags_ms = Vec::new();
    let mut seen_units: Vec<u64> = Vec::new();
    for (unit, at, _) in &arrivals {
        if seen_units.contains(unit) {
            continue;
        }
        seen_units.push(*unit);
        let over = t0 + pace.unit_wall * (*unit as u32 + 1) + grace;
        lags_ms.push(at.saturating_duration_since(over).as_secs_f64() * 1e3);
    }
    let lines: Vec<String> = arrivals.into_iter().map(|(_, _, line)| line).collect();
    let events = event_keys(&lines);
    Ok(PacedRun { lags_ms, late_ms, events, node_stats, backlog_max: 0.0, window_s, sender_cpu_s })
}

impl Served<'_> {
    /// Runs `serve_paced`: one open-loop pass (two half-length passes, the
    /// second traced, when tracing).
    fn run_paced(&self, pace: &Pace, chunks: &[UnitChunk]) -> io::Result<Measured> {
        let Served { stream, expected, deploy, work, tracer, .. } = *self;
        let mut m = Measured::default();
        let off = Tracer::new(false);
        let mut runs: Vec<PacedRun> = Vec::new();
        let passes = if tracer.enabled() { 2 } else { 1 };
        let mut dir = work.join("paced0");
        let mut recent = Ok(Vec::new());
        for n in 0..passes {
            let tr = if n == 1 { tracer } else { &off };
            dir = work.join(format!("paced{n}"));
            let root = tr.span("run.round", 0, n);
            let at = Spans { tracer: tr, run: n, parent: root.id() };
            let d = Deployment::start(stream, deploy, &dir)?;
            let (run, backlog_max) = d.watching_backlog(n == 1, || {
                drive_paced(&d, stream, chunks, pace, deploy.grace, at)
            });
            // The subscriber and QUERY must agree: what was broadcast is
            // what is retained.
            let last_unit = stream.units.len() as u64;
            let mut conn = LineConn::connect(d.addr)?;
            let retained = query_all(&mut conn, last_unit);
            recent = query_recent(&mut conn, last_unit);
            d.stop()?;
            drop(root);
            let run = PacedRun { backlog_max, ..run? };
            if let Some(why) = describe_mismatch("retained", &expected.events, &retained?) {
                m.correct = false;
                m.notes.push(why);
            }
            runs.push(run);
        }
        let sent = (stream.records + stream.sentinels.len()) as u64;
        let run = &runs[0];
        let admitted =
            run.node_stats.iter().map(|s| s.scalar("tiresias_admitted_records_total")).sum::<f64>();
        let dropped = run
            .node_stats
            .iter()
            .map(|s| s.scalar("tiresias_subscriber_dropped_total"))
            .sum::<f64>();
        let missing =
            expected.events.iter().filter(|e| run.events.binary_search(e).is_err()).count();
        m.attempted = sent + expected.events.len() as u64;
        m.failed = sent.saturating_sub(admitted as u64) + missing as u64 + dropped as u64;
        if let Some(why) = describe_mismatch("subscribed", &expected.events, &run.events) {
            m.correct = false;
            m.notes.push(why);
        }
        let v = &mut m.values;
        v.set("records_per_s", sent as f64 / run.window_s);
        v.set("latency_p50_ms", median(&run.lags_ms));
        v.set("latency_tail_ms", quantile(&run.lags_ms, tail_quantile(run.lags_ms.len())));
        let observed = runs.last().expect("at least one pass ran");
        set_live_values(v, &observed.node_stats, None, observed.backlog_max);
        v.set("detector.anomalies", run.events.len() as f64);
        v.set("hub.events_delivered", run.events.len() as f64);
        v.set("datagen.late_p90_ms", quantile(&run.late_ms, 0.9));
        v.set("datagen.client_cpu_share", run.sender_cpu_s / run.window_s);
        if let Some(traced) = runs.get(1) {
            v.set(
                "trace.overhead_pct",
                (median(&traced.lags_ms) / median(&run.lags_ms) - 1.0) * 100.0,
            );
        }
        m.notes.push(format!(
            "open loop: unit_wall_ms={} frames_per_unit={} units={} window_s={:.3} lag_samples={} \
         expected_events={} offered_records_per_s={:.0} load_threads=1",
            pace.unit_wall.as_millis(),
            pace.frames_per_unit,
            stream.units.len(),
            run.window_s,
            run.lags_ms.len(),
            expected.events.len(),
            sent as f64 / (pace.unit_wall.as_secs_f64() * stream.units.len() as f64),
        ));
        self.measure_restart(&mut m, &recent?, &dir)?;
        Ok(m)
    }
}
