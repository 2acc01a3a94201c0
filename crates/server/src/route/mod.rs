//! The fault-tolerant routing tier: a thin daemon that
//! consistent-hashes top-level category labels over N downstream
//! `tiresias serve` nodes, speaking the existing newline protocol on
//! both sides.
//!
//! # Routing
//!
//! Label→node assignment reuses the engine's own
//! [`tiresias_core::ShardRouter`] (the `first_segment_hash` +
//! splitmix64 finaliser), so it is total, deterministic across router
//! restarts, and keyed by the *top-level* label only — every record of
//! a category subtree lands on one node, which is what makes per-node
//! detection output equal to a single engine's (the `root_isolation`
//! proof) and per-node `QUERY` streams disjoint.
//!
//! # Failure semantics
//!
//! Each downstream gets a connection supervisor ([`supervisor`]) with
//! per-request timeouts, exponential-backoff + jitter reconnects, and
//! periodic `PING` probes driving an up/degraded/down state machine.
//! While a node is not up, `PUSH` records routed to it park in a
//! bounded per-node outage buffer ([`buffer`]) with their acks
//! *withheld* — the client's reply arrives only when the reconnected
//! node actually answers the replay — and overflow is an explicit
//! `ERR`, so producers always see backpressure, never silent loss.
//! This composes with the node's own WAL: records acked before a node
//! crash reappear from the node's recovery, not from the router, so
//! the router holds no durable state and is itself restartable at the
//! cost of only its (unacked) parked records.
//!
//! `QUERY` scatter-gathers over up nodes with per-node deadlines and
//! merges the `(unit, path)`-ordered streams exactly ([`merge`]);
//! replies from a fleet with unreachable nodes carry a
//! `degraded=<nodes>` tag so partial answers are never mistaken for
//! complete ones. `SUBSCRIBE` fans in per-node event streams through
//! the hub's per-unit frame sequencing. `STATS` aggregates node gauges
//! plus router-level `node_state=` / `buffered=` / `replayed=` /
//! `degraded_queries=` counters.

mod buffer;
mod merge;
mod supervisor;

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use tiresias_core::ShardRouter;
use tiresias_telemetry::{MetricsServer, Registry, SlowLog};

use crate::error::ServerError;
use crate::hub::Hub;
use crate::protocol::{parse_request, v2, Request, DEFAULT_QUERY_LIMIT, MAX_QUERY_LIMIT};
use crate::scan::find_newline;
use crate::server::{V2Exit, DEFAULT_SLOW_MS};
use crate::signal;

use buffer::{BatchTicket, Parked};
use merge::{aggregate_stats, merge_query_frames};
use supervisor::{
    is_timeout, run_fanin, run_supervisor, state_name, Conn, Node, NodeTelemetry, RpcError,
    STATE_UP,
};

/// How often blocking session reads time out to re-check the stop flag.
const READ_POLL: Duration = Duration::from_millis(50);

/// Pipelined `PUSH` lines admitted per routed sub-batch.
const BATCH_CAP: usize = 256;

/// How often the sweeper joins finished session threads.
const SESSION_SWEEP: Duration = Duration::from_secs(1);

/// Configuration for [`Router::start`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Downstream `tiresias serve` addresses, in shard order. The
    /// list's length and order ARE the routing table: restarting the
    /// router with the same list reproduces the same label→node
    /// assignment.
    pub nodes: Vec<String>,
    /// Per-request deadline on downstream connections: connects,
    /// per-reply reads, probe round trips.
    pub request_timeout: Duration,
    /// Interval between `PING` health probes to an up node.
    pub probe_interval: Duration,
    /// Ceiling for the exponential reconnect backoff (jitter adds up to
    /// one extra backoff on top).
    pub backoff_max: Duration,
    /// Per-node outage buffer budget in records; overflow refuses the
    /// batch with an explicit `ERR`.
    pub buffer_records: usize,
    /// Bound of each session's outbound reply/event queue.
    pub queue_bound: usize,
    /// Install `SIGTERM`/`SIGINT` handlers that shut the router down.
    pub handle_signals: bool,
    /// Address for the Prometheus `GET /metrics` listener; `None`
    /// leaves the exporter off (`STATS JSON` still works).
    pub metrics_addr: Option<String>,
    /// Structured NDJSON slow-op log path; `None` disables it.
    pub slow_log: Option<PathBuf>,
    /// Threshold in milliseconds above which an op hits the slow log.
    pub slow_ms: u64,
}

impl RouterConfig {
    /// Defaults: ephemeral listen port, 2 s request deadline, 1 s probe
    /// cadence, 5 s max backoff, 65 536 parked records per node.
    pub fn new(nodes: Vec<String>) -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            nodes,
            request_timeout: Duration::from_secs(2),
            probe_interval: Duration::from_secs(1),
            backoff_max: Duration::from_secs(5),
            buffer_records: 65_536,
            queue_bound: 1024,
            handle_signals: false,
            metrics_addr: None,
            slow_log: None,
            slow_ms: DEFAULT_SLOW_MS,
        }
    }
}

/// Everything router session threads share.
struct RouterShared {
    nodes: Vec<Arc<Node>>,
    shards: ShardRouter,
    hub: Arc<Hub>,
    stop: Arc<AtomicBool>,
    shutdown_started: AtomicBool,
    addr: SocketAddr,
    /// Every exported router metric; rendered by `STATS JSON` and the
    /// optional `/metrics` listener. Registered closures read node
    /// atomics and buffer depths only — never a session lock.
    registry: Arc<Registry>,
    /// Queries answered while at least one node was unreachable
    /// (shared with a registry closure, hence the `Arc`).
    degraded_queries: Arc<AtomicU64>,
    /// High-water mark: one past the highest unit seen on any fan-in
    /// stream (the `from=` a new subscriber is quoted).
    next_unit: Arc<AtomicU64>,
    queue_bound: usize,
    request_timeout: Duration,
}

impl RouterShared {
    /// Stops the daemon exactly once: flips the stop flag, closes every
    /// outage buffer (resolving parked tickets with an error so no
    /// writer thread waits forever), and unblocks the accept loop.
    fn initiate_shutdown(&self) {
        if self.shutdown_started.swap(true, Ordering::SeqCst) {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        for node in &self.nodes {
            node.buffer
                .lock()
                .expect("buffer lock never poisoned")
                .close("ERR router shutting down; record not delivered");
        }
        let _ = TcpStream::connect(self.addr);
    }
}

/// The routing daemon. See the `route` module docs for semantics.
pub struct Router {
    shared: Arc<RouterShared>,
    accept: JoinHandle<()>,
    sweeper: JoinHandle<()>,
    monitor: Option<JoinHandle<()>>,
    supervisors: Vec<JoinHandle<()>>,
    fanins: Vec<JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
    metrics: Option<MetricsServer>,
}

impl Router {
    /// Binds the listener and starts the accept loop plus, per
    /// downstream node, a connection supervisor and a `SUBSCRIBE`
    /// fan-in reader.
    ///
    /// # Errors
    ///
    /// Fails on an empty node list or a bind error. Unreachable nodes
    /// are *not* an error — they start `down` and are adopted by their
    /// supervisor whenever they appear.
    pub fn start(config: RouterConfig) -> Result<Router, ServerError> {
        if config.nodes.is_empty() {
            return Err(ServerError::Config("route needs at least one --node".to_string()));
        }
        let listener = TcpListener::bind(&config.addr).map_err(ServerError::Io)?;
        let addr = listener.local_addr().map_err(ServerError::Io)?;
        let stop = Arc::new(AtomicBool::new(false));
        let hub = Arc::new(Hub::default());
        let next_unit = Arc::new(AtomicU64::new(0));
        let registry = Arc::new(Registry::new());
        let slow = match &config.slow_log {
            Some(path) => Some(Arc::new(
                SlowLog::open(path, Duration::from_millis(config.slow_ms))
                    .map_err(ServerError::Io)?,
            )),
            None => None,
        };
        let nodes: Vec<Arc<Node>> = config
            .nodes
            .iter()
            .map(|addr| {
                let telem = NodeTelemetry::register(&registry, addr, slow.clone());
                Node::new(addr.clone(), config.buffer_records, config.request_timeout, telem)
            })
            .collect();
        let degraded_queries = Arc::new(AtomicU64::new(0));
        register_router_metrics(&registry, &nodes, &hub, &next_unit, &degraded_queries);
        let metrics = match &config.metrics_addr {
            Some(addr) => {
                Some(MetricsServer::start(addr, Arc::clone(&registry)).map_err(ServerError::Io)?)
            }
            None => None,
        };

        let supervisors: Vec<JoinHandle<()>> = nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                let node = Arc::clone(node);
                let stop = Arc::clone(&stop);
                let probe = config.probe_interval;
                let backoff_max = config.backoff_max;
                std::thread::spawn(move || {
                    run_supervisor(node, stop, probe, backoff_max, 0x9e37 + i as u64 * 2)
                })
            })
            .collect();
        let fanins: Vec<JoinHandle<()>> = nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                let addr = node.addr.clone();
                let stop = Arc::clone(&stop);
                let hub = Arc::clone(&hub);
                let next_unit = Arc::clone(&next_unit);
                let timeout = config.request_timeout;
                let backoff_max = config.backoff_max;
                std::thread::spawn(move || {
                    run_fanin(
                        addr,
                        stop,
                        hub,
                        next_unit,
                        timeout,
                        backoff_max,
                        0xc2b2 + i as u64 * 2,
                    )
                })
            })
            .collect();

        let shared = Arc::new(RouterShared {
            shards: ShardRouter::new(nodes.len()),
            nodes,
            hub,
            stop: Arc::clone(&stop),
            shutdown_started: AtomicBool::new(false),
            addr,
            registry,
            degraded_queries,
            next_unit,
            queue_bound: config.queue_bound,
            request_timeout: config.request_timeout,
        });

        let sessions: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let sessions = Arc::clone(&sessions);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let shared = Arc::clone(&shared);
                    let handle = std::thread::spawn(move || run_router_session(stream, &shared));
                    sessions.lock().expect("session list lock never poisoned").push(handle);
                }
            })
        };
        let sweeper = {
            let stop = Arc::clone(&stop);
            let sessions = Arc::clone(&sessions);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    supervisor::sleep_interruptible(SESSION_SWEEP, &stop);
                    crate::server::reap_finished_sessions(&sessions);
                }
            })
        };
        let monitor = if config.handle_signals {
            signal::install();
            let shared = Arc::clone(&shared);
            Some(std::thread::spawn(move || {
                while !shared.stop.load(Ordering::SeqCst) {
                    if signal::signalled() {
                        shared.initiate_shutdown();
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            }))
        } else {
            None
        };

        Ok(Router { shared, accept, sweeper, monitor, supervisors, fanins, sessions, metrics })
    }

    /// The bound listen address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The bound `/metrics` listen address, when the exporter is on.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(MetricsServer::local_addr)
    }

    /// Begins shutdown, as the `SHUTDOWN` command or a signal would.
    /// Idempotent. Downstream nodes are NOT shut down — they are
    /// independent daemons.
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// Waits for the daemon to finish (a `SHUTDOWN` command, a signal,
    /// or [`Router::shutdown`]) and joins every thread.
    pub fn join(self) {
        let _ = self.accept.join();
        let _ = self.sweeper.join();
        if let Some(monitor) = self.monitor {
            let _ = monitor.join();
        }
        for handle in self.supervisors.into_iter().chain(self.fanins) {
            let _ = handle.join();
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.sessions.lock().expect("session list lock never poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
        // Last: the exporter outlives the protocol threads, so a final
        // scrape during drain still answers.
        if let Some(mut metrics) = self.metrics {
            metrics.shutdown();
        }
    }
}

/// Registers the router's derived metrics: per-node health, buffer and
/// replay accounting (labeled `node="<addr>"`), plus the router-level
/// fan-in and degradation counters. Everything reads lock-free atomics
/// or the per-node buffer lock — never a session lock — so rendering
/// can happen from any thread.
fn register_router_metrics(
    registry: &Registry,
    nodes: &[Arc<Node>],
    hub: &Arc<Hub>,
    next_unit: &Arc<AtomicU64>,
    degraded_queries: &Arc<AtomicU64>,
) {
    for node in nodes {
        let labels: &[(&str, &str)] = &[("node", &node.addr)];
        let n = Arc::clone(node);
        registry.gauge_fn(
            "tiresias_node_state",
            "Downstream node health: 2 up, 1 degraded, 0 down.",
            labels,
            move || n.state() as f64,
        );
        let n = Arc::clone(node);
        registry.gauge_fn(
            "tiresias_node_buffered_records",
            "Records currently parked in the node's outage buffer.",
            labels,
            move || n.parked_records() as f64,
        );
        let n = Arc::clone(node);
        registry.counter_fn(
            "tiresias_node_buffered_records_total",
            "Records ever parked in the node's outage buffer.",
            labels,
            move || n.buffered_total.load(Ordering::SeqCst),
        );
        let n = Arc::clone(node);
        registry.counter_fn(
            "tiresias_node_replayed_records_total",
            "Records replayed from the outage buffer after reconnects.",
            labels,
            move || n.replayed.load(Ordering::SeqCst),
        );
    }
    let d = Arc::clone(degraded_queries);
    registry.counter_fn(
        "tiresias_degraded_queries_total",
        "Queries answered while at least one node was unreachable.",
        &[],
        move || d.load(Ordering::SeqCst),
    );
    let h = Arc::clone(hub);
    registry.gauge_fn(
        "tiresias_router_subscribers",
        "Live SUBSCRIBE sessions fanning in through the router.",
        &[],
        move || h.subscriber_count() as f64,
    );
    let h = Arc::clone(hub);
    registry.counter_fn(
        "tiresias_router_subscriber_dropped_total",
        "Router subscribers dropped for lagging behind the fan-in.",
        &[],
        move || h.dropped_slow(),
    );
    let u = Arc::clone(next_unit);
    registry.gauge_fn(
        "tiresias_router_next_unit",
        "One past the highest timeunit seen on any fan-in stream.",
        &[],
        move || u.load(Ordering::SeqCst) as f64,
    );
}

/// What the session writer thread drains: either a ready reply line or
/// a withheld ack that resolves when a parked sub-batch replays.
enum Outbound {
    Line(String),
    Pending { ticket: Arc<BatchTicket>, idx: usize },
}

/// Outcome of routing one per-node sub-batch of `PUSH` lines.
enum SubOutcome {
    /// The node answered: one reply per line, in order.
    Replies(Vec<String>),
    /// The sub-batch parked; replies resolve through the ticket.
    Parked(Arc<BatchTicket>),
    /// The whole sub-batch failed with this reply per line.
    Refused(String),
}

/// A per-session bulk connection for `NOACK` forwarding: the write
/// half stays with the session; a drainer thread forwards the node's
/// unsolicited `LATE`/`ERR` replies into the session's outbound queue.
struct BulkConn {
    write: TcpStream,
    drainer: JoinHandle<()>,
}

impl BulkConn {
    fn open(
        addr: &str,
        timeout: Duration,
        tx: SyncSender<Outbound>,
        stop: Arc<AtomicBool>,
        done: Arc<AtomicBool>,
        v2: bool,
    ) -> std::io::Result<BulkConn> {
        let mut conn = Conn::connect(addr, timeout)?;
        conn.send_line("NOACK")?;
        let ack = conn.read_line()?;
        if ack != "OK" {
            return Err(std::io::Error::other("node refused NOACK"));
        }
        if v2 {
            conn.send_line("UPGRADE")?;
            let ack = conn.read_line()?;
            if ack != "OK upgraded" {
                return Err(std::io::Error::other("node refused UPGRADE"));
            }
        }
        let write = conn.write_half()?;
        let drainer = std::thread::spawn(move || loop {
            match conn.read_line() {
                Ok(line) => {
                    if tx.send(Outbound::Line(line)).is_err() {
                        break;
                    }
                }
                Err(e) if is_timeout(&e) => {
                    if stop.load(Ordering::SeqCst) || done.load(Ordering::SeqCst) {
                        break;
                    }
                }
                Err(_) => break,
            }
        });
        Ok(BulkConn { write, drainer })
    }

    fn close(self) {
        let _ = self.write.shutdown(Shutdown::Both);
        let _ = self.drainer.join();
    }
}

/// One router client session: reader loop on this thread, one writer
/// thread draining [`Outbound`] (blocking on withheld acks in order),
/// plus on demand a hub forwarder (for `SUBSCRIBE`) and per-node bulk
/// connections (for `NOACK`).
fn run_router_session(stream: TcpStream, shared: &RouterShared) {
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else { return };
    let (tx, rx) = sync_channel::<Outbound>(shared.queue_bound);
    let writer = std::thread::spawn(move || {
        let mut out = BufWriter::new(write_half);
        while let Ok(item) = rx.recv() {
            let line = match item {
                Outbound::Line(line) => line,
                // A withheld ack: block until the parked sub-batch
                // replays (or shutdown resolves it). Later queue items
                // wait behind it — replies stay in request order.
                Outbound::Pending { ticket, idx } => ticket.wait(idx),
            };
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

    let done = Arc::new(AtomicBool::new(false));
    let mut ack = true;
    let mut subscription: Option<(u64, JoinHandle<()>)> = None;
    let dropped_events = Arc::new(AtomicU64::new(0));
    let mut bulk: Vec<Option<BulkConn>> = shared.nodes.iter().map(|_| None).collect();
    let mut noack_bufs: Vec<Vec<u8>> = shared.nodes.iter().map(|_| Vec::new()).collect();
    // A large read buffer: the bulk-forwarding path is syscall-bound,
    // and a routed session relays entire feeds, not chatty requests.
    let mut reader = BufReader::with_capacity(128 * 1024, stream);
    let mut line = String::new();
    let mut batch: Vec<(String, u64)> = Vec::new();
    let mut rv2 = RouterV2::new(shared.nodes.len());
    'session: loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        // `NOACK` fast drain: one pass per refill routes every
        // complete `PUSH` line straight out of the reader's buffer —
        // no copy into `line`, no `Request`, no per-record allocation —
        // then consumes them in one step and forwards each node's
        // accumulated bytes in one write (so a buffer never outgrows a
        // reader refill between flushes). Anything else (a non-`PUSH`
        // request, a non-canonical or non-UTF-8 line, a line spanning
        // the buffer boundary) falls through to the generic path below.
        if !ack {
            let mut consumed = 0;
            {
                let buf = reader.buffer();
                while let Some(pos) = find_newline(&buf[consumed..]) {
                    if noack_route_push_bytes(
                        &buf[consumed..consumed + pos],
                        shared,
                        &mut noack_bufs,
                    ) {
                        consumed += pos + 1;
                    } else {
                        break;
                    }
                }
            }
            reader.consume(consumed);
            // Forward before blocking on input (and, for a slow line
            // that is about to park or refuse, keep arrival order).
            if !flush_noack_bufs(shared, &mut noack_bufs, &tx, &mut bulk, &done) {
                break 'session;
            }
        }
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => loop {
                // The `NOACK` re-check covers lines the fast drain
                // could not see whole: the one spanning the buffer
                // boundary, and the first after a blocking read.
                if !ack && noack_route_push(&line, shared, &mut noack_bufs) {
                    line.clear();
                } else {
                    let parsed = parse_request(&line);
                    line.clear();
                    match parsed {
                        Ok(Some(Request::Push { path, t_secs })) => {
                            if ack {
                                batch.push((path, t_secs));
                                if batch.len() >= BATCH_CAP
                                    && !flush_routed_batch(&mut batch, shared, &tx)
                                {
                                    break 'session;
                                }
                            } else {
                                // A valid `PUSH` the byte matcher was
                                // too strict for (tabs, signed
                                // timestamp, …): canonicalise and
                                // forward unacked like the rest.
                                let node_idx = shared.shards.route(&path);
                                let canonical = format!("PUSH {path} {t_secs}\n");
                                noack_bufs[node_idx].extend_from_slice(canonical.as_bytes());
                            }
                        }
                        other => {
                            if !flush_routed_batch(&mut batch, shared, &tx)
                                || !flush_noack_bufs(shared, &mut noack_bufs, &tx, &mut bulk, &done)
                            {
                                break 'session;
                            }
                            match other {
                                Ok(None) => {}
                                Ok(Some(Request::Hello)) => {
                                    if tx.send(Outbound::Line("OK v2".to_string())).is_err() {
                                        break 'session;
                                    }
                                }
                                Ok(Some(Request::Upgrade)) => {
                                    if tx.send(Outbound::Line("OK upgraded".to_string())).is_err() {
                                        break 'session;
                                    }
                                    match run_router_v2_frames(
                                        &mut reader,
                                        shared,
                                        &tx,
                                        &mut rv2,
                                        ack,
                                        &done,
                                    ) {
                                        V2Exit::BackToText => {}
                                        V2Exit::Close => break 'session,
                                    }
                                }
                                Ok(Some(request)) => {
                                    if !handle_router_request(
                                        request,
                                        shared,
                                        &tx,
                                        &mut ack,
                                        &mut subscription,
                                        &dropped_events,
                                    ) {
                                        break 'session;
                                    }
                                }
                                Err(why) => {
                                    if tx.send(Outbound::Line(format!("ERR {why}"))).is_err() {
                                        break 'session;
                                    }
                                }
                            }
                        }
                    }
                }
                // In `NOACK` mode, hand remaining buffered lines back
                // to the fast drain instead of looping here.
                if !ack {
                    break;
                }
                if !reader.buffer().contains(&b'\n') {
                    if !flush_routed_batch(&mut batch, shared, &tx)
                        || !flush_noack_bufs(shared, &mut noack_bufs, &tx, &mut bulk, &done)
                    {
                        break 'session;
                    }
                    break;
                }
                if reader.read_line(&mut line).is_err() {
                    break;
                }
            },
            Err(e) if is_timeout(&e) || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    // Best effort on an abrupt exit; the normal paths flushed already.
    let _ = flush_noack_bufs(shared, &mut noack_bufs, &tx, &mut bulk, &done);
    done.store(true, Ordering::SeqCst);
    if let Some((id, forwarder)) = subscription {
        shared.hub.unsubscribe(id);
        drop(tx);
        let _ = forwarder.join();
    } else {
        drop(tx);
    }
    for conn in bulk.into_iter().flatten() {
        conn.close();
    }
    rv2.close();
    let _ = writer.join();
}

/// Handles one non-`PUSH` request. Returns `false` to end the session.
fn handle_router_request(
    request: Request,
    shared: &RouterShared,
    tx: &SyncSender<Outbound>,
    ack: &mut bool,
    subscription: &mut Option<(u64, JoinHandle<()>)>,
    dropped_events: &Arc<AtomicU64>,
) -> bool {
    let send = |line: String| tx.send(Outbound::Line(line)).is_ok();
    match request {
        Request::Push { .. } => unreachable!("PUSH is batched by the caller"),
        Request::Hello | Request::Upgrade => {
            unreachable!("HELLO/UPGRADE are handled by the session loop")
        }
        Request::Ping => send("PONG".to_string()),
        Request::Quit => {
            let _ = send("BYE".to_string());
            false
        }
        Request::Noack => {
            *ack = false;
            send("OK".to_string())
        }
        Request::Shutdown => {
            let _ = send("OK shutting down".to_string());
            shared.initiate_shutdown();
            false
        }
        Request::Stats { json } => {
            if json {
                // The router's own registry: node health, RTT
                // histograms, buffer depths. Node engine internals
                // live behind each node's own `STATS JSON`.
                send(shared.registry.render_json())
            } else {
                send(routed_stats(shared))
            }
        }
        Request::Subscribe { from: Some(_) } => send(
            "ERR SUBSCRIBE FROM is not supported through the router; \
             connect to a node for catch-up replay"
                .to_string(),
        ),
        Request::Subscribe { from: None } => {
            if subscription.is_some() {
                return send("ERR already subscribed".to_string());
            }
            // Live-only fan-in: frames from every node flow through the
            // router hub; a dedicated forwarder bridges the hub's
            // line queue into this session's Outbound queue.
            let (etx, erx) = sync_channel::<String>(shared.queue_bound);
            let out = tx.clone();
            let forwarder = std::thread::spawn(move || {
                while let Ok(line) = erx.recv() {
                    if out.send(Outbound::Line(line)).is_err() {
                        break;
                    }
                }
            });
            let from = shared.next_unit.load(Ordering::SeqCst);
            let id = shared.hub.subscribe(etx, 0, Arc::clone(dropped_events));
            *subscription = Some((id, forwarder));
            send(format!("OK subscribed from={from}"))
        }
        Request::Query { from_unit, to_unit, prefix, level, limit } => {
            let limit = limit.unwrap_or(DEFAULT_QUERY_LIMIT).clamp(1, MAX_QUERY_LIMIT);
            let mut request_line = format!("QUERY {from_unit} {to_unit}");
            if let Some(prefix) = &prefix {
                request_line.push_str(&format!(" PREFIX {prefix}"));
            }
            if let Some(level) = level {
                request_line.push_str(&format!(" LEVEL {level}"));
            }
            request_line.push_str(&format!(" LIMIT {limit}"));
            let (frames, degraded) = scatter_query(shared, &request_line);
            let merged = merge_query_frames(frames, limit);
            for frame in &merged {
                if !send(frame.clone()) {
                    return false;
                }
            }
            let tail = if degraded.is_empty() {
                format!("OK n={}", merged.len())
            } else {
                shared.degraded_queries.fetch_add(1, Ordering::SeqCst);
                format!("OK n={} degraded={}", merged.len(), degraded.join(","))
            };
            send(tail)
        }
    }
}

/// Scatters one `QUERY` to every up node in parallel (each leg bounded
/// by the per-request deadline) and gathers the per-node frame streams.
/// Nodes that are not up, fail mid-query, or answer `ERR` are reported
/// in the degraded list instead of silently shrinking the answer.
fn scatter_query(shared: &RouterShared, request_line: &str) -> (Vec<Vec<String>>, Vec<String>) {
    let mut frames: Vec<Vec<String>> = Vec::with_capacity(shared.nodes.len());
    let mut degraded: Vec<String> = Vec::new();
    let results: Vec<Result<Vec<String>, ()>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shared
            .nodes
            .iter()
            .map(|node| {
                scope.spawn(move || {
                    if node.state() != STATE_UP {
                        return Err(());
                    }
                    match node.exchange_stream(request_line) {
                        Ok((frames, tail)) if tail.starts_with("OK") => Ok(frames),
                        _ => Err(()),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("query leg never panics")).collect()
    });
    for (node, result) in shared.nodes.iter().zip(results) {
        match result {
            Ok(node_frames) => frames.push(node_frames),
            Err(()) => degraded.push(node.addr.clone()),
        }
    }
    (frames, degraded)
}

/// Aggregated `STATS`: per-node gauges (scattered in parallel, absent
/// for unreachable nodes) plus the router's own counters.
fn routed_stats(shared: &RouterShared) -> String {
    let lines: Vec<Option<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = shared
            .nodes
            .iter()
            .map(|node| {
                scope.spawn(move || {
                    if node.state() != STATE_UP {
                        return None;
                    }
                    node.request_line("STATS").ok()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("stats leg never panics")).collect()
    });
    let states: Vec<(String, &'static str)> =
        shared.nodes.iter().map(|n| (n.addr.clone(), state_name(n.state()))).collect();
    let buffered: u64 = shared.nodes.iter().map(|n| n.parked_records() as u64).sum();
    let replayed: u64 = shared.nodes.iter().map(|n| n.replayed.load(Ordering::SeqCst)).sum();
    aggregate_stats(
        &lines,
        &states,
        buffered,
        replayed,
        shared.degraded_queries.load(Ordering::SeqCst),
    )
}

/// Routes the buffered acked `PUSH` batch: partitions by top-level
/// label, exchanges each sub-batch with its node (or parks it), and
/// emits the per-record replies **in the client's original record
/// order** — ready replies as lines, withheld acks as tickets the
/// writer thread blocks on. Returns `false` if the session's outbound
/// queue is gone. (`NOACK` traffic never reaches this batch; it takes
/// the [`noack_route_push`] fast path.)
fn flush_routed_batch(
    batch: &mut Vec<(String, u64)>,
    shared: &RouterShared,
    tx: &SyncSender<Outbound>,
) -> bool {
    if batch.is_empty() {
        return true;
    }
    let node_count = shared.nodes.len();
    let mut per_node: Vec<Vec<String>> = vec![Vec::new(); node_count];
    let mut origin: Vec<(usize, usize)> = Vec::with_capacity(batch.len());
    for (path, t_secs) in batch.drain(..) {
        let node_idx = shared.shards.route(&path);
        origin.push((node_idx, per_node[node_idx].len()));
        per_node[node_idx].push(format!("PUSH {path} {t_secs}"));
    }
    let mut outcomes: Vec<Option<SubOutcome>> = Vec::with_capacity(node_count);
    for (idx, lines) in per_node.into_iter().enumerate() {
        if lines.is_empty() {
            outcomes.push(None);
            continue;
        }
        outcomes.push(Some(route_acked_sub_batch(&shared.nodes[idx], lines)));
    }
    for (node_idx, sub_idx) in origin {
        let outcome = outcomes[node_idx].as_ref().expect("routed above");
        let sent = match outcome {
            SubOutcome::Replies(replies) => {
                tx.send(Outbound::Line(replies[sub_idx].clone())).is_ok()
            }
            SubOutcome::Parked(ticket) => {
                tx.send(Outbound::Pending { ticket: Arc::clone(ticket), idx: sub_idx }).is_ok()
            }
            SubOutcome::Refused(reply) => tx.send(Outbound::Line(reply.clone())).is_ok(),
        };
        if !sent {
            return false;
        }
    }
    true
}

/// The `NOACK` fast path over raw bytes: if `line` (newline already
/// stripped) is a *canonical* `PUSH <path> <ts>` — single-space
/// prefix, no whitespace at the path's edges, pure-digit timestamp —
/// routes it on the borrowed path slice and appends the raw bytes to
/// its node's outgoing buffer. Everything the generic parser would
/// treat differently (leading whitespace, tabs around the split, a
/// `+`-signed or oversized timestamp, a path whose edge byte is
/// non-ASCII and could be Unicode whitespace the parser trims) returns
/// `false` and takes the slow path, so the two paths never disagree on
/// routing or replies. Timestamp *range* checking needs no parse here:
/// ≤ 19 digits always fit `u64`.
fn noack_route_push_bytes(line: &[u8], shared: &RouterShared, bufs: &mut [Vec<u8>]) -> bool {
    let Some(rest) = line.strip_prefix(b"PUSH ") else {
        return false;
    };
    let Some(sep) = rest.iter().rposition(|&b| b == b' ') else {
        return false;
    };
    let (path, ts) = (&rest[..sep], &rest[sep + 1..]);
    let edge_ok = |b: u8| b.is_ascii() && !b.is_ascii_whitespace();
    if path.is_empty()
        || !edge_ok(path[0])
        || !edge_ok(path[path.len() - 1])
        || ts.is_empty()
        || ts.len() > 19
        || !ts.iter().all(u8::is_ascii_digit)
    {
        return false;
    }
    let Ok(path) = std::str::from_utf8(path) else {
        return false;
    };
    let node_idx = shared.shards.route(path);
    bufs[node_idx].extend_from_slice(line);
    bufs[node_idx].push(b'\n');
    true
}

/// The `&str` twin of [`noack_route_push_bytes`] for lines that arrive
/// through `read_line` (buffer-boundary stragglers): same contract,
/// reached rarely enough that it just trims and delegates.
fn noack_route_push(line: &str, shared: &RouterShared, bufs: &mut [Vec<u8>]) -> bool {
    noack_route_push_bytes(line.trim_end_matches(['\r', '\n']).as_bytes(), shared, bufs)
}

/// Flushes every non-empty `NOACK` buffer. Returns `false` when the
/// session's outbound queue is gone.
fn flush_noack_bufs(
    shared: &RouterShared,
    bufs: &mut [Vec<u8>],
    tx: &SyncSender<Outbound>,
    bulk: &mut [Option<BulkConn>],
    done: &Arc<AtomicBool>,
) -> bool {
    for idx in 0..bufs.len() {
        if !flush_noack_buf(shared, idx, bufs, tx, bulk, done) {
            return false;
        }
    }
    true
}

/// Flushes one node's accumulated `NOACK` bytes: a single bulk write
/// over the per-session forwarding connection while the node is up
/// (the node's unsolicited `LATE`/`ERR` replies flow back through the
/// drainer), parking the lines without reply tracking while it is not.
/// A mid-send failure loses the buffer — unacked traffic is
/// fire-and-forget, exactly as against a dying node directly, and
/// re-sending could duplicate the prefix that did arrive. Only buffer
/// overflow answers per-record `ERR`: `NOACK` suppresses `OK`s, not
/// refusals. Returns `false` when the session's outbound queue is gone.
fn flush_noack_buf(
    shared: &RouterShared,
    node_idx: usize,
    bufs: &mut [Vec<u8>],
    tx: &SyncSender<Outbound>,
    bulk: &mut [Option<BulkConn>],
    done: &Arc<AtomicBool>,
) -> bool {
    if bufs[node_idx].is_empty() {
        return true;
    }
    let node = &shared.nodes[node_idx];
    if node.state() == STATE_UP {
        if bulk[node_idx].is_none() {
            bulk[node_idx] = BulkConn::open(
                &node.addr,
                shared.request_timeout,
                tx.clone(),
                Arc::clone(&shared.stop),
                Arc::clone(done),
                false,
            )
            .ok();
        }
        if let Some(conn) = &mut bulk[node_idx] {
            if conn.write.write_all(&bufs[node_idx]).is_err() {
                if let Some(conn) = bulk[node_idx].take() {
                    conn.close();
                }
            }
            bufs[node_idx].clear();
            return true;
        }
    }
    // Fast-path buffers only ever hold validated UTF-8 lines.
    let lines: Vec<String> =
        String::from_utf8_lossy(&bufs[node_idx]).lines().map(str::to_string).collect();
    bufs[node_idx].clear();
    let count = lines.len();
    let parked = {
        let mut buf = node.buffer.lock().expect("buffer lock never poisoned");
        buf.park(Parked { lines, ticket: None })
    };
    if parked {
        node.buffered_total.fetch_add(count as u64, Ordering::SeqCst);
        return true;
    }
    let refusal = format!("ERR node {} down and outage buffer full", node.addr);
    for _ in 0..count {
        if tx.send(Outbound::Line(refusal.clone())).is_err() {
            return false;
        }
    }
    true
}

/// The router session's v2 state: the client-side label dictionary
/// with one route decision per label (computed once, at intern time —
/// cheaper than the text path's route-per-record), per-node scratch,
/// and the per-node forwarding connections with their own encoders.
struct RouterV2 {
    dict: Vec<String>,
    /// Target node per dictionary id, parallel to `dict`.
    node_for: Vec<u32>,
    hdr: [u8; v2::HEADER_BYTES],
    payload: Vec<u8>,
    /// Per-frame record partition, indexed by node.
    per_node: Vec<Vec<(u32, u64)>>,
    conns: Vec<Option<V2NodeConn>>,
}

/// One downstream v2 connection: its own [`v2::FrameEncoder`] — the
/// node-side dictionary is per *connection*, so the encoder's lifetime
/// is tied to the socket and a reconnect starts both afresh, which is
/// what keeps the two sides in sync — plus a frame-sequence counter
/// and the assembled-frame scratch.
struct V2NodeConn {
    enc: v2::FrameEncoder,
    seq: u32,
    out: Vec<u8>,
    transport: V2Transport,
}

/// How a [`V2NodeConn`] talks to its node: fire-and-forget bulk writes
/// with a reply drainer (`NOACK` sessions), or synchronous
/// frame-in/ack-out RPC (acked sessions).
enum V2Transport {
    Bulk(BulkConn),
    Rpc(Conn),
}

impl RouterV2 {
    fn new(nodes: usize) -> RouterV2 {
        RouterV2 {
            dict: Vec::new(),
            node_for: Vec::new(),
            hdr: [0; v2::HEADER_BYTES],
            payload: Vec::new(),
            per_node: (0..nodes).map(|_| Vec::new()).collect(),
            conns: (0..nodes).map(|_| None).collect(),
        }
    }

    fn close(self) {
        for conn in self.conns.into_iter().flatten() {
            if let V2Transport::Bulk(bulk) = conn.transport {
                bulk.close();
            }
        }
    }
}

/// Fills `buf` exactly from the router session socket, riding out the
/// poll timeouts and checking the stop flag between them. `false` on
/// EOF, a hard error, or shutdown.
fn router_read_full(reader: &mut BufReader<TcpStream>, buf: &mut [u8], stop: &AtomicBool) -> bool {
    let mut filled = 0;
    while filled < buf.len() {
        if stop.load(Ordering::SeqCst) {
            return false;
        }
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return false,
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    true
}

/// The router's binary inbound loop after `UPGRADE`: client v2 frames
/// are decoded once, partitioned per node by dictionary id (the route
/// is computed when a label is first interned, then reused for every
/// record carrying its id), and re-framed per node through each
/// connection's own encoder — records never round-trip through text.
///
/// Same decode-error policy as the server: one `ERR` line, close the
/// session. Delivery semantics per mode are documented on
/// [`forward_v2_frame`].
fn run_router_v2_frames(
    reader: &mut BufReader<TcpStream>,
    shared: &RouterShared,
    tx: &SyncSender<Outbound>,
    rv2: &mut RouterV2,
    ack: bool,
    done: &Arc<AtomicBool>,
) -> V2Exit {
    let send = |line: String| tx.send(Outbound::Line(line)).is_ok();
    loop {
        if !router_read_full(reader, &mut rv2.hdr, &shared.stop) {
            return V2Exit::Close;
        }
        let header = match v2::decode_header(&rv2.hdr) {
            Ok(h) => h,
            Err(why) => {
                let _ = send(format!("ERR {why}"));
                return V2Exit::Close;
            }
        };
        match header.kind {
            v2::FrameKind::Ping => {
                // Frames are forwarded per DATA frame, so nothing is
                // pending router-side when the fence arrives.
                if !send(format!("PONG frame={}", header.seq)) {
                    return V2Exit::Close;
                }
            }
            v2::FrameKind::End => {
                if !send("OK text".to_string()) {
                    return V2Exit::Close;
                }
                return V2Exit::BackToText;
            }
            v2::FrameKind::Data => {
                rv2.payload.resize(header.payload_len as usize, 0);
                if !router_read_full(reader, &mut rv2.payload, &shared.stop) {
                    return V2Exit::Close;
                }
                if v2::crc32(&rv2.payload) != header.payload_crc {
                    let _ = send(format!("ERR frame={} payload CRC mismatch", header.seq));
                    return V2Exit::Close;
                }
                let decoded = (|| -> Result<(), String> {
                    let (new_entries, offset) = v2::decode_dict(&rv2.payload, &mut rv2.dict)?;
                    for label in &rv2.dict[rv2.dict.len() - new_entries..] {
                        rv2.node_for.push(shared.shards.route(label) as u32);
                    }
                    for item in v2::records(&rv2.payload, offset, rv2.dict.len())? {
                        let (id, t_secs) = item?;
                        rv2.per_node[rv2.node_for[id as usize] as usize].push((id, t_secs));
                    }
                    Ok(())
                })();
                if let Err(why) = decoded {
                    for bucket in &mut rv2.per_node {
                        bucket.clear();
                    }
                    let _ = send(format!("ERR frame={} {why}", header.seq));
                    return V2Exit::Close;
                }
                if !forward_v2_frame(shared, tx, rv2, ack, header.seq, done) {
                    return V2Exit::Close;
                }
            }
        }
    }
}

/// Forwards one partitioned client frame, one sub-frame per involved
/// node, and answers the client:
///
/// * **acked**: each sub-frame is a synchronous RPC; the per-node
///   `OK frame=… n=… late=… ahead=…` acks are summed into one client
///   ack. A down node, a failed exchange, or a node-side refusal marks
///   the frame *degraded* — the client gets `ERR frame=<seq>
///   degraded=<addrs> n=… late=… ahead=…` with the counts that did
///   confirm. Degraded records are **not** re-sent (at-most-once: their
///   fate is unknown, and a duplicate admission would skew counts).
/// * **`NOACK`**: sub-frames are fire-and-forget bulk writes; node drop
///   reports flow back through the reply drainer. Records for a down
///   node are parked **as text lines** in its outage buffer — the
///   failover replay path is shared with the text protocol — and only
///   buffer overflow answers per-record `ERR`s.
///
/// Returns `false` when the session's outbound queue is gone.
fn forward_v2_frame(
    shared: &RouterShared,
    tx: &SyncSender<Outbound>,
    rv2: &mut RouterV2,
    ack: bool,
    client_seq: u32,
    done: &Arc<AtomicBool>,
) -> bool {
    let (mut n, mut late, mut ahead) = (0u64, 0u64, 0u64);
    let mut degraded: Vec<&str> = Vec::new();
    for idx in 0..rv2.per_node.len() {
        if rv2.per_node[idx].is_empty() {
            continue;
        }
        let node = &shared.nodes[idx];
        if !ensure_v2_conn(shared, idx, &mut rv2.conns, ack, tx, done) {
            if ack {
                rv2.per_node[idx].clear();
                degraded.push(&node.addr);
            } else if !park_v2_records(&rv2.dict, &mut rv2.per_node[idx], node, tx) {
                return false;
            }
            continue;
        }
        let conn = rv2.conns[idx].as_mut().expect("ensured above");
        for &(id, t_secs) in &rv2.per_node[idx] {
            conn.enc.add(&rv2.dict[id as usize], t_secs);
        }
        rv2.per_node[idx].clear();
        conn.out.clear();
        let sub_seq = conn.seq;
        conn.seq = conn.seq.wrapping_add(1);
        conn.enc.finish(sub_seq, &mut conn.out);
        match &mut conn.transport {
            V2Transport::Bulk(bulk) => {
                // Fire-and-forget, like the text bulk path: a mid-send
                // failure loses the sub-frame (re-sending could
                // duplicate the prefix that arrived) and drops the
                // connection so the next frame reopens cleanly.
                if bulk.write.write_all(&conn.out).is_err() {
                    if let Some(conn) = rv2.conns[idx].take() {
                        if let V2Transport::Bulk(bulk) = conn.transport {
                            bulk.close();
                        }
                    }
                }
            }
            V2Transport::Rpc(rpc) => {
                let reply = rpc
                    .send_bytes(&conn.out)
                    .and_then(|()| rpc.read_line())
                    .ok()
                    .filter(|line| line.starts_with("OK frame="));
                match reply {
                    Some(line) => {
                        n += ack_field(&line, "n=");
                        late += ack_field(&line, "late=");
                        ahead += ack_field(&line, "ahead=");
                    }
                    None => {
                        degraded.push(&node.addr);
                        rv2.conns[idx] = None;
                    }
                }
            }
        }
    }
    if !ack {
        return true;
    }
    let line = if degraded.is_empty() {
        format!("OK frame={client_seq} n={n} late={late} ahead={ahead}")
    } else {
        format!(
            "ERR frame={client_seq} degraded={} n={n} late={late} ahead={ahead}",
            degraded.join(",")
        )
    };
    tx.send(Outbound::Line(line)).is_ok()
}

/// Extracts one `key=<u64>` field from a node's frame ack.
fn ack_field(line: &str, key: &str) -> u64 {
    line.split(' ').find_map(|kv| kv.strip_prefix(key)).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Makes sure `conns[idx]` holds a live v2 connection of the session's
/// current mode, reopening across mode flips (an `END` / `NOACK` /
/// `UPGRADE` round trip) since the node-side dictionary cannot migrate
/// between connections. `false` when the node is down or refuses the
/// handshake.
fn ensure_v2_conn(
    shared: &RouterShared,
    idx: usize,
    conns: &mut [Option<V2NodeConn>],
    ack: bool,
    tx: &SyncSender<Outbound>,
    done: &Arc<AtomicBool>,
) -> bool {
    let mode_matches = match &conns[idx] {
        Some(conn) => matches!(conn.transport, V2Transport::Rpc(_)) == ack,
        None => false,
    };
    if mode_matches {
        return true;
    }
    if let Some(conn) = conns[idx].take() {
        if let V2Transport::Bulk(bulk) = conn.transport {
            bulk.close();
        }
    }
    let node = &shared.nodes[idx];
    if node.state() != STATE_UP {
        return false;
    }
    let transport = if ack {
        let opened = Conn::connect(&node.addr, shared.request_timeout).and_then(|mut conn| {
            conn.send_line("UPGRADE")?;
            if conn.read_line()? != "OK upgraded" {
                return Err(std::io::Error::other("node refused UPGRADE"));
            }
            Ok(conn)
        });
        match opened {
            Ok(conn) => V2Transport::Rpc(conn),
            Err(_) => return false,
        }
    } else {
        match BulkConn::open(
            &node.addr,
            shared.request_timeout,
            tx.clone(),
            Arc::clone(&shared.stop),
            Arc::clone(done),
            true,
        ) {
            Ok(bulk) => V2Transport::Bulk(bulk),
            Err(_) => return false,
        }
    };
    conns[idx] =
        Some(V2NodeConn { enc: v2::FrameEncoder::new(), seq: 0, out: Vec::new(), transport });
    true
}

/// Parks one down node's share of a `NOACK` v2 frame as text lines in
/// its outage buffer (failover replay is shared with the text
/// protocol); overflow answers one `ERR` per record. Returns `false`
/// when the session's outbound queue is gone.
fn park_v2_records(
    dict: &[String],
    records: &mut Vec<(u32, u64)>,
    node: &Node,
    tx: &SyncSender<Outbound>,
) -> bool {
    let lines: Vec<String> =
        records.drain(..).map(|(id, t)| format!("PUSH {} {t}", dict[id as usize])).collect();
    let count = lines.len();
    let parked = {
        let mut buf = node.buffer.lock().expect("buffer lock never poisoned");
        buf.park(Parked { lines, ticket: None })
    };
    if parked {
        node.buffered_total.fetch_add(count as u64, Ordering::SeqCst);
        return true;
    }
    let refusal = format!("ERR node {} down and outage buffer full", node.addr);
    (0..count).all(|_| tx.send(Outbound::Line(refusal.clone())).is_ok())
}

/// Routes one acked sub-batch: RPC while the node is up, park with a
/// reply ticket while it is not, explicit `ERR` on buffer overflow or
/// an unconfirmed in-flight failure (at-most-once: records whose fate
/// the router cannot know are *never* re-sent — a duplicate admission
/// would silently skew the node's counts).
fn route_acked_sub_batch(node: &Node, lines: Vec<String>) -> SubOutcome {
    // One retry when the up/park race flips under us, then refuse.
    for _ in 0..2 {
        if node.state() == STATE_UP {
            match node.push_batch(&lines) {
                Ok(replies) => return SubOutcome::Replies(replies),
                Err(RpcError::Unknown) => {
                    return SubOutcome::Refused(format!(
                        "ERR node {} unavailable; delivery unknown",
                        node.addr
                    ));
                }
                // Nothing was sent: fall through to parking.
                Err(RpcError::NotSent) => {}
            }
        }
        let ticket = BatchTicket::new();
        {
            let mut buf = node.buffer.lock().expect("buffer lock never poisoned");
            if node.state() != STATE_UP {
                let count = lines.len();
                return if buf.park(Parked { lines, ticket: Some(Arc::clone(&ticket)) }) {
                    node.buffered_total.fetch_add(count as u64, Ordering::SeqCst);
                    SubOutcome::Parked(ticket)
                } else {
                    SubOutcome::Refused(format!(
                        "ERR node {} down and outage buffer full",
                        node.addr
                    ))
                };
            }
            // The replay finished while we prepared to park (the up
            // flip happens under this buffer lock): retry the RPC.
        }
    }
    SubOutcome::Refused(format!("ERR node {} flapping; record refused", node.addr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::Instant;
    use tiresias_core::TiresiasBuilder;

    use crate::server::{Server, ServerConfig};

    fn node_config() -> ServerConfig {
        let builder = TiresiasBuilder::new()
            .timeunit_secs(60)
            .window_len(16)
            .threshold(5.0)
            .season_length(4)
            .sensitivity(2.0, 5.0)
            .warmup_units(2)
            .shards(1);
        let mut config = ServerConfig::new(builder);
        config.grace = Duration::from_millis(100);
        config.tick = Duration::from_millis(20);
        config
    }

    struct Client {
        stream: TcpStream,
        reader: BufReader<TcpStream>,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            Client { stream, reader }
        }

        fn send(&mut self, line: &str) {
            self.stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        }

        fn recv(&mut self) -> String {
            let mut line = String::new();
            self.reader.read_line(&mut line).unwrap();
            line.trim_end().to_string()
        }

        fn roundtrip(&mut self, line: &str) -> String {
            self.send(line);
            self.recv()
        }
    }

    /// Polls routed `STATS` until `predicate` holds (10 s deadline).
    fn wait_for_stats(addr: SocketAddr, predicate: impl Fn(&str) -> bool) -> String {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut client = Client::connect(addr);
            let stats = client.roundtrip("STATS");
            if predicate(&stats) {
                return stats;
            }
            assert!(Instant::now() < deadline, "deadline waiting on STATS; last: {stats}");
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Two distinct top-level labels, one routed to each of two nodes.
    fn split_labels() -> (String, String) {
        let shards = ShardRouter::new(2);
        let mut labels = [None, None];
        for i in 0.. {
            let label = format!("label-{i}/leaf");
            let node = shards.route(&label);
            if labels[node].is_none() {
                labels[node] = Some(label);
                if labels.iter().all(Option::is_some) {
                    break;
                }
            }
        }
        (labels[0].take().unwrap(), labels[1].take().unwrap())
    }

    #[test]
    fn router_fans_out_and_degrades_when_a_node_stops() {
        let node_a = Server::start(node_config()).unwrap();
        let node_b = Server::start(node_config()).unwrap();
        let mut config = RouterConfig::new(vec![
            node_a.local_addr().to_string(),
            node_b.local_addr().to_string(),
        ]);
        config.probe_interval = Duration::from_millis(100);
        config.request_timeout = Duration::from_millis(500);
        config.backoff_max = Duration::from_millis(500);
        let router = Router::start(config).unwrap();
        let addr = router.local_addr();

        wait_for_stats(addr, |s| s.matches(":up").count() == 2);
        let (label_a, label_b) = split_labels();

        let mut client = Client::connect(addr);
        assert_eq!(client.roundtrip("PING"), "PONG");
        for t in [0u64, 10, 60, 70] {
            assert_eq!(client.roundtrip(&format!("PUSH {label_a} {t}")), "OK");
            assert_eq!(client.roundtrip(&format!("PUSH {label_b} {t}")), "OK");
        }
        assert_eq!(client.roundtrip("QUERY 0 100"), "OK n=0", "no anomalies during warmup");
        let stats = wait_for_stats(addr, |s| s.contains("STATS records=8 "));
        assert!(stats.contains(" nodes=2 "), "{stats}");
        assert!(stats.contains(" buffered=0 replayed=0 degraded_queries=0"), "{stats}");

        // Stop one node: the router degrades instead of failing.
        let b_addr = node_b.local_addr().to_string();
        node_b.shutdown();
        node_b.join().unwrap();
        wait_for_stats(addr, |s| s.contains(&format!("{b_addr}:down")));
        let reply = client.roundtrip("QUERY 0 100");
        assert_eq!(reply, format!("OK n=0 degraded={b_addr}"), "partial answers are tagged");

        // Acked records for the dead node park with their ack withheld;
        // records for the live node keep flowing.
        assert_eq!(client.roundtrip(&format!("PUSH {label_a} 80")), "OK");
        let mut parked = Client::connect(addr);
        parked.stream.set_read_timeout(Some(Duration::from_millis(400))).unwrap();
        parked.send(&format!("PUSH {label_b} 80"));
        let mut withheld = String::new();
        assert!(
            parked.reader.read_line(&mut withheld).is_err(),
            "ack must be withheld while the record is parked, got {withheld:?}"
        );
        let stats = wait_for_stats(addr, |s| s.contains(" buffered=1 "));
        assert!(stats.contains(" degraded_queries=1"), "{stats}");

        // Shutdown resolves the withheld ack with an explicit ERR.
        let mut shut = Client::connect(addr);
        assert_eq!(shut.roundtrip("SHUTDOWN"), "OK shutting down");
        router.join();
        parked.stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut resolved = String::new();
        parked.reader.read_line(&mut resolved).unwrap();
        assert_eq!(resolved.trim_end(), "ERR router shutting down; record not delivered");

        node_a.shutdown();
        node_a.join().unwrap();
    }

    #[test]
    fn router_replays_parked_records_when_the_node_returns() {
        let node_a = Server::start(node_config()).unwrap();
        // A fixed port for the second node so it can come back at the
        // same address after a stop.
        let placeholder = TcpListener::bind("127.0.0.1:0").unwrap();
        let b_addr = placeholder.local_addr().unwrap();
        drop(placeholder);
        let mut b_config = node_config();
        b_config.addr = b_addr.to_string();
        let node_b = Server::start(b_config.clone()).unwrap();

        let mut config =
            RouterConfig::new(vec![node_a.local_addr().to_string(), b_addr.to_string()]);
        config.probe_interval = Duration::from_millis(100);
        config.request_timeout = Duration::from_millis(500);
        config.backoff_max = Duration::from_millis(300);
        let router = Router::start(config).unwrap();
        let addr = router.local_addr();
        wait_for_stats(addr, |s| s.matches(":up").count() == 2);
        let (_, label_b) = split_labels();

        node_b.shutdown();
        node_b.join().unwrap();
        wait_for_stats(addr, |s| s.contains(&format!("{b_addr}:down")));

        // Park two acked records, then bring the node back: the replay
        // resolves the withheld acks with the node's real replies.
        let mut parked = Client::connect(addr);
        parked.send(&format!("PUSH {label_b} 0"));
        parked.send(&format!("PUSH {label_b} 10"));
        wait_for_stats(addr, |s| s.contains(" buffered=2 "));
        let node_b = Server::start(b_config).unwrap();
        assert_eq!(parked.recv(), "OK");
        assert_eq!(parked.recv(), "OK");
        let stats = wait_for_stats(addr, |s| s.contains(" replayed=2"));
        assert!(stats.contains(" buffered=0 "), "{stats}");
        assert!(stats.contains(&format!("{b_addr}:up")), "{stats}");

        let mut shut = Client::connect(addr);
        assert_eq!(shut.roundtrip("SHUTDOWN"), "OK shutting down");
        router.join();
        for node in [node_a, node_b] {
            node.shutdown();
            node.join().unwrap();
        }
    }
}
