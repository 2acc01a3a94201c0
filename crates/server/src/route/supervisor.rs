//! Per-downstream connection supervision: the up/degraded/down state
//! machine, timed request/reply exchanges, exponential-backoff + jitter
//! reconnects, periodic `PING` health probes, outage-buffer replay, and
//! the `SUBSCRIBE` fan-in reader.
//!
//! Each downstream node owns one RPC connection (serialized by a
//! mutex — `PUSH` sub-batches, `QUERY` scatter legs, `STATS` and probes
//! all share it) plus, while any router client is subscribed, one
//! dedicated subscribe connection drained by the fan-in thread. All
//! socket reads carry the per-request timeout, so a slow or wedged node
//! costs a bounded wait, never a parked router thread.
//!
//! State machine: a node starts **down**, becomes **up** once a
//! connection exchanges a `PING`/`PONG` *and* the outage buffer has
//! fully replayed, drops to **degraded** when a request times out
//! (the node is alive but slow — new work parks rather than queueing
//! behind it), and to **down** on connection errors. Only the `up`
//! state accepts live RPCs; everything else parks into the
//! [`OutageBuffer`](super::buffer::OutageBuffer).

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tiresias_telemetry::{Counter, Field, Histogram, Registry, SlowLog};

use crate::hub::Hub;

use super::buffer::OutageBuffer;

/// Node state: unreachable (connect/IO failure).
pub(crate) const STATE_DOWN: u8 = 0;
/// Node state: reachable but missed a request deadline.
pub(crate) const STATE_DEGRADED: u8 = 1;
/// Node state: healthy; live RPCs flow.
pub(crate) const STATE_UP: u8 = 2;

/// Initial reconnect backoff; doubles per failed attempt up to the
/// configured maximum, with multiplicative jitter on top.
pub(crate) const INITIAL_BACKOFF: Duration = Duration::from_millis(100);

/// Granularity at which blocking waits re-check the stop flag.
const STOP_POLL: Duration = Duration::from_millis(25);

pub(crate) fn state_name(state: u8) -> &'static str {
    match state {
        STATE_UP => "up",
        STATE_DEGRADED => "degraded",
        _ => "down",
    }
}

/// Why an RPC failed — determines whether at-most-once forces an error
/// reply or the records may still be parked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RpcError {
    /// Nothing was written to the node (no connection): the caller may
    /// safely park the records for replay.
    NotSent,
    /// Bytes may have reached the node but replies are unconfirmed: the
    /// caller must answer `ERR` rather than risk duplicate admission.
    Unknown,
}

/// One buffered duplex connection to a downstream node with a read
/// deadline on every reply.
#[derive(Debug)]
pub(crate) struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: &str, timeout: Duration) -> io::Result<Conn> {
        let sockaddr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "address resolves to nothing")
        })?;
        let stream = TcpStream::connect_timeout(&sockaddr, timeout)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(Some(timeout))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    pub fn send_lines(&mut self, lines: &[String]) -> io::Result<()> {
        let mut out = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines {
            out.push_str(line);
            out.push('\n');
        }
        self.stream.write_all(out.as_bytes())
    }

    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.stream.write_all(format!("{line}\n").as_bytes())
    }

    /// Writes raw bytes — the v2 binary frame path (framing is the
    /// caller's problem; replies still arrive as text lines).
    pub fn send_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// A clone of the write half, letting a drainer thread own the
    /// reading side while the session keeps writing.
    pub fn write_half(&self) -> io::Result<TcpStream> {
        self.stream.try_clone()
    }

    /// Reads one reply line (trimmed). EOF surfaces as
    /// [`io::ErrorKind::UnexpectedEof`]; a missed deadline as the
    /// platform's timeout kind.
    pub fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "node closed connection")),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(e),
        }
    }
}

pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock)
}

/// Per-node instrumentation the RPC paths feed, all registered with a
/// `node="<addr>"` label: the request round-trip histogram, the probe
/// outcome counters, and the router's slow-op log (shared across
/// nodes; the `node` field in each slow entry disambiguates).
#[derive(Debug, Clone)]
pub(crate) struct NodeTelemetry {
    /// Round-trip latency of completed RPC exchanges (probes included).
    pub rtt: Arc<Histogram>,
    /// `PING` probes answered `PONG` in time.
    pub probe_ok: Arc<Counter>,
    /// `PING` probes that timed out, erred, or answered garbage.
    pub probe_fail: Arc<Counter>,
    /// The router's structured slow-op log, when configured.
    pub slow: Option<Arc<SlowLog>>,
}

impl NodeTelemetry {
    pub fn register(registry: &Registry, addr: &str, slow: Option<Arc<SlowLog>>) -> NodeTelemetry {
        let labels: &[(&str, &str)] = &[("node", addr)];
        NodeTelemetry {
            rtt: registry.histogram(
                "tiresias_node_request_seconds",
                "Round-trip latency of RPC exchanges with a downstream node.",
                labels,
            ),
            probe_ok: registry.counter(
                "tiresias_node_probe_ok_total",
                "PING health probes the node answered in time.",
                labels,
            ),
            probe_fail: registry.counter(
                "tiresias_node_probe_fail_total",
                "PING health probes that timed out, erred, or answered garbage.",
                labels,
            ),
            slow,
        }
    }
}

/// One downstream `tiresias serve` node as seen by the router.
#[derive(Debug)]
pub(crate) struct Node {
    pub addr: String,
    state: AtomicU8,
    conn: Mutex<Option<Conn>>,
    pub buffer: Mutex<OutageBuffer>,
    /// Records ever parked in the outage buffer (monotone counter).
    pub buffered_total: AtomicU64,
    /// Records replayed from the outage buffer after reconnects.
    pub replayed: AtomicU64,
    /// A clone of the `SUBSCRIBE` fan-in reader's live stream, which
    /// shutdown closes to wake the reader.
    pub fanin: Mutex<Option<TcpStream>>,
    request_timeout: Duration,
    telem: NodeTelemetry,
}

impl Node {
    pub fn new(
        addr: String,
        buffer_records: usize,
        request_timeout: Duration,
        telem: NodeTelemetry,
    ) -> Arc<Node> {
        Arc::new(Node {
            addr,
            state: AtomicU8::new(STATE_DOWN),
            conn: Mutex::new(None),
            buffer: Mutex::new(OutageBuffer::new(buffer_records)),
            buffered_total: AtomicU64::new(0),
            replayed: AtomicU64::new(0),
            fanin: Mutex::new(None),
            request_timeout,
            telem,
        })
    }

    /// Records one finished RPC exchange into the node's round-trip
    /// histogram and, over threshold, the slow-op log. `NotSent`
    /// failures never reach here — no bytes moved, so there is no
    /// round trip to measure.
    fn observe_rpc(&self, rpc: &str, elapsed: Duration, lines: usize) {
        self.telem.rtt.record_duration(elapsed);
        if let Some(slow) = &self.telem.slow {
            slow.record(
                "node_request",
                elapsed,
                &[
                    ("node", Field::from(self.addr.as_str())),
                    ("rpc", Field::from(rpc)),
                    ("lines", Field::from(lines)),
                ],
            );
        }
    }

    pub fn state(&self) -> u8 {
        self.state.load(Ordering::SeqCst)
    }

    fn set_state(&self, state: u8) {
        self.state.store(state, Ordering::SeqCst);
    }

    /// Drops the connection and downgrades the state: a timeout means
    /// degraded (alive but slow), anything else means down.
    fn fail(&self, conn: &mut Option<Conn>, e: &io::Error) {
        *conn = None;
        self.set_state(if is_timeout(e) { STATE_DEGRADED } else { STATE_DOWN });
    }

    fn install(&self, conn: Conn) {
        *self.conn.lock().expect("conn lock never poisoned") = Some(conn);
    }

    /// Sends `lines` and reads exactly one reply per line. At-most-once
    /// discipline: on [`RpcError::Unknown`] the records must not be
    /// retried (the node may have admitted them).
    pub fn push_batch(&self, lines: &[String]) -> Result<Vec<String>, RpcError> {
        let t0 = Instant::now();
        let result = self.push_batch_inner(lines);
        if !matches!(result, Err(RpcError::NotSent)) {
            self.observe_rpc("push", t0.elapsed(), lines.len());
        }
        result
    }

    fn push_batch_inner(&self, lines: &[String]) -> Result<Vec<String>, RpcError> {
        let mut guard = self.conn.lock().expect("conn lock never poisoned");
        let Some(conn) = guard.as_mut() else {
            return Err(RpcError::NotSent);
        };
        if let Err(e) = conn.send_lines(lines) {
            self.fail(&mut guard, &e);
            return Err(RpcError::Unknown);
        }
        let mut replies = Vec::with_capacity(lines.len());
        for _ in lines {
            match guard.as_mut().expect("present above").read_line() {
                Ok(reply) => replies.push(reply),
                Err(e) => {
                    self.fail(&mut guard, &e);
                    return Err(RpcError::Unknown);
                }
            }
        }
        Ok(replies)
    }

    /// Sends one request and reads `EVENT` frames until a terminal
    /// `OK`/`ERR` line; returns `(frames, terminal)`.
    pub fn exchange_stream(&self, request: &str) -> Result<(Vec<String>, String), RpcError> {
        let t0 = Instant::now();
        let result = self.exchange_stream_inner(request);
        if !matches!(result, Err(RpcError::NotSent)) {
            let frames = result.as_ref().map_or(0, |(frames, _)| frames.len());
            self.observe_rpc("stream", t0.elapsed(), frames);
        }
        result
    }

    fn exchange_stream_inner(&self, request: &str) -> Result<(Vec<String>, String), RpcError> {
        let mut guard = self.conn.lock().expect("conn lock never poisoned");
        let Some(conn) = guard.as_mut() else {
            return Err(RpcError::NotSent);
        };
        if let Err(e) = conn.send_line(request) {
            self.fail(&mut guard, &e);
            return Err(RpcError::Unknown);
        }
        let mut frames = Vec::new();
        loop {
            match guard.as_mut().expect("present above").read_line() {
                Ok(line) if line.starts_with("OK") || line.starts_with("ERR") => {
                    return Ok((frames, line));
                }
                Ok(line) => frames.push(line),
                Err(e) => {
                    self.fail(&mut guard, &e);
                    return Err(RpcError::Unknown);
                }
            }
        }
    }

    /// One reply line for a one-line request (`STATS`, probes).
    pub fn request_line(&self, request: &str) -> Result<String, RpcError> {
        let t0 = Instant::now();
        let result = self.request_line_inner(request);
        if !matches!(result, Err(RpcError::NotSent)) {
            self.observe_rpc("line", t0.elapsed(), 1);
        }
        result
    }

    fn request_line_inner(&self, request: &str) -> Result<String, RpcError> {
        let mut guard = self.conn.lock().expect("conn lock never poisoned");
        let Some(conn) = guard.as_mut() else {
            return Err(RpcError::NotSent);
        };
        if let Err(e) = conn.send_line(request) {
            self.fail(&mut guard, &e);
            return Err(RpcError::Unknown);
        }
        match guard.as_mut().expect("present above").read_line() {
            Ok(reply) => Ok(reply),
            Err(e) => {
                self.fail(&mut guard, &e);
                Err(RpcError::Unknown)
            }
        }
    }

    /// Health probe: `PING` must answer `PONG`.
    fn ping(&self) -> bool {
        let healthy = match self.request_line("PING") {
            Ok(reply) if reply == "PONG" => true,
            Ok(_) => {
                // Protocol violation — treat the peer as down.
                let mut guard = self.conn.lock().expect("conn lock never poisoned");
                *guard = None;
                self.set_state(STATE_DOWN);
                false
            }
            Err(_) => false,
        };
        if healthy {
            self.telem.probe_ok.inc();
        } else {
            self.telem.probe_fail.inc();
        }
        healthy
    }

    /// Replays every parked sub-batch in admission order over the
    /// (fresh) RPC connection, resolving tickets with the node's real
    /// replies. Flips the node **up** — under the buffer lock, so no
    /// concurrent park can slip behind the replay — once the buffer is
    /// drained. Returns `false` if the connection failed mid-replay
    /// (unconfirmed records resolve `ERR`; the rest stay parked).
    pub fn replay_parked(&self) -> bool {
        loop {
            let parked = {
                let mut buf = self.buffer.lock().expect("buffer lock never poisoned");
                match buf.pop() {
                    Some(parked) => parked,
                    None => {
                        self.set_state(STATE_UP);
                        return true;
                    }
                }
            };
            let count = parked.lines.len();
            match self.push_batch(&parked.lines) {
                Ok(replies) => {
                    self.replayed.fetch_add(count as u64, Ordering::SeqCst);
                    if let Some(ticket) = parked.ticket {
                        ticket.resolve(replies);
                    }
                }
                Err(_) => {
                    // At-most-once: the lines may have reached the node;
                    // answering ERR is safe, re-sending could duplicate.
                    if let Some(ticket) = parked.ticket {
                        let reply =
                            format!("ERR node {} lost mid-replay; delivery unknown", self.addr);
                        ticket.resolve(vec![reply; count]);
                    }
                    return false;
                }
            }
        }
    }

    /// Records currently parked for this node.
    pub fn parked_records(&self) -> usize {
        self.buffer.lock().expect("buffer lock never poisoned").records()
    }
}

/// Deterministic xorshift64* jitter source (no wall clock, no global
/// state): each supervisor gets its own stream so reconnect storms
/// desynchronize.
#[derive(Debug)]
pub(crate) struct Jitter(u64);

impl Jitter {
    pub fn new(seed: u64) -> Jitter {
        Jitter(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// `base` scaled by a uniform factor in `[1.0, 2.0)`: full backoff
    /// plus up to one extra backoff of jitter.
    pub fn spread(&mut self, base: Duration) -> Duration {
        let frac = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        base.mul_f64(1.0 + frac)
    }
}

/// Sleeps `total` in small slices, returning early when `stop` flips.
pub(crate) fn sleep_interruptible(total: Duration, stop: &AtomicBool) {
    let mut remaining = total;
    while !remaining.is_zero() && !stop.load(Ordering::SeqCst) {
        let slice = remaining.min(STOP_POLL);
        std::thread::sleep(slice);
        remaining = remaining.saturating_sub(slice);
    }
}

/// The per-node supervisor loop: reconnect with exponential backoff +
/// jitter while the node is not up, replay the outage buffer on
/// reconnect, and probe with `PING` at `probe_interval` while up.
pub(crate) fn run_supervisor(
    node: Arc<Node>,
    stop: Arc<AtomicBool>,
    probe_interval: Duration,
    backoff_max: Duration,
    seed: u64,
) {
    let mut jitter = Jitter::new(seed);
    let mut backoff = INITIAL_BACKOFF;
    while !stop.load(Ordering::SeqCst) {
        if node.state() == STATE_UP {
            sleep_interruptible(probe_interval, &stop);
            if stop.load(Ordering::SeqCst) {
                break;
            }
            // A failed probe downgrades the state (inside fail()); the
            // next loop iteration takes the reconnect path. A node that
            // went up-with-parked-work between probes cannot happen —
            // parking only occurs while not up.
            node.ping();
            continue;
        }
        match Conn::connect(&node.addr, node.request_timeout) {
            Ok(conn) => {
                node.install(conn);
                if node.ping() && node.replay_parked() {
                    backoff = INITIAL_BACKOFF;
                    continue;
                }
            }
            Err(_) => node.set_state(STATE_DOWN),
        }
        sleep_interruptible(jitter.spread(backoff), &stop);
        backoff = (backoff * 2).min(backoff_max);
    }
}

/// Parses the timeunit out of an `EVENT unit=<n> …` frame.
pub(crate) fn frame_unit(frame: &str) -> Option<u64> {
    let rest = frame.strip_prefix("EVENT ")?;
    let unit = rest.split_whitespace().find_map(|kv| kv.strip_prefix("unit="))?;
    unit.parse().ok()
}

/// The `SUBSCRIBE` fan-in reader for one node: maintains a dedicated
/// subscribe connection (independent reconnect loop), re-subscribes
/// with `FROM <last unit>` after an outage, dedups the overlap by
/// counting frames per unit (a node replays a unit's retained events in
/// a deterministic order, so "skip the first `k` frames of unit `u`"
/// resumes exactly), and broadcasts fresh frames into the router's hub.
///
/// Each live subscribe connection is published in [`Node::fanin`], so
/// shutdown can close it and wake a read that would otherwise wait out
/// its full timeout before seeing the stop flag.
pub(crate) fn run_fanin(
    node: Arc<Node>,
    stop: Arc<AtomicBool>,
    hub: Arc<Hub>,
    next_unit: Arc<AtomicU64>,
    backoff_max: Duration,
    seed: u64,
) {
    let mut jitter = Jitter::new(seed);
    let mut backoff = INITIAL_BACKOFF;
    // Highest unit forwarded and how many of its frames went out.
    let mut pos: Option<(u64, usize)> = None;
    'reconnect: while !stop.load(Ordering::SeqCst) {
        let mut conn = match Conn::connect(&node.addr, node.request_timeout) {
            Ok(conn) => conn,
            Err(_) => {
                sleep_interruptible(jitter.spread(backoff), &stop);
                backoff = (backoff * 2).min(backoff_max);
                continue;
            }
        };
        *node.fanin.lock().expect("fan-in lock never poisoned") = conn.write_half().ok();
        // Shutdown flips the flag before it closes the published
        // streams, so a stream published after that pass is caught here.
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let request = match pos {
            Some((unit, _)) => format!("SUBSCRIBE FROM {unit}"),
            None => "SUBSCRIBE".to_string(),
        };
        if conn.send_line(&request).is_err() {
            continue;
        }
        // The subscribe ack, waited for across read-timeout polls.
        loop {
            match conn.read_line() {
                Ok(line) if line.starts_with("OK subscribed") => break,
                Ok(_) | Err(_) if stop.load(Ordering::SeqCst) => break 'reconnect,
                Ok(_) => continue 'reconnect,
                Err(e) if is_timeout(&e) => continue,
                Err(_) => {
                    sleep_interruptible(jitter.spread(backoff), &stop);
                    backoff = (backoff * 2).min(backoff_max);
                    continue 'reconnect;
                }
            }
        }
        backoff = INITIAL_BACKOFF;
        // Frames of the resume unit already forwarded before the
        // outage: skip that many before forwarding again.
        let mut replay_skip = match pos {
            Some((_, seen)) => seen,
            None => 0,
        };
        loop {
            let line = match conn.read_line() {
                Ok(line) => line,
                Err(e) if is_timeout(&e) => {
                    if stop.load(Ordering::SeqCst) {
                        break 'reconnect;
                    }
                    continue;
                }
                Err(_) => continue 'reconnect,
            };
            let Some(unit) = frame_unit(&line) else {
                continue;
            };
            match &mut pos {
                Some((current, _)) if unit < *current => continue,
                Some((current, seen)) if unit == *current => {
                    if replay_skip > 0 {
                        replay_skip -= 1;
                        continue;
                    }
                    *seen += 1;
                }
                other => {
                    *other = Some((unit, 1));
                    replay_skip = 0;
                }
            }
            next_unit.fetch_max(unit + 1, Ordering::SeqCst);
            hub.broadcast(&[(unit, line)]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_spreads_within_one_extra_backoff_and_streams_differ() {
        let base = Duration::from_millis(100);
        let mut a = Jitter::new(3);
        let mut b = Jitter::new(4);
        let mut diverged = false;
        for _ in 0..32 {
            let da = a.spread(base);
            let db = b.spread(base);
            for d in [da, db] {
                assert!(d >= base && d < base * 2, "{d:?} outside [base, 2*base)");
            }
            diverged |= da != db;
        }
        assert!(diverged, "two seeds never diverging would re-synchronize reconnect storms");
    }

    #[test]
    fn frame_unit_parses_events_and_rejects_noise() {
        assert_eq!(frame_unit("EVENT unit=9 time=8100 level=2 path=TV/No Service"), Some(9));
        assert_eq!(frame_unit("OK n=3"), None);
        assert_eq!(frame_unit("EVENT time=8100"), None);
    }

    #[test]
    fn node_without_connection_reports_not_sent() {
        let registry = Registry::new();
        let telem = NodeTelemetry::register(&registry, "127.0.0.1:1", None);
        let node = Node::new("127.0.0.1:1".to_string(), 8, Duration::from_millis(50), telem);
        assert_eq!(node.push_batch(&["PUSH a 1".to_string()]).unwrap_err(), RpcError::NotSent);
        assert_eq!(node.request_line("STATS").unwrap_err(), RpcError::NotSent);
        assert_eq!(node.state(), STATE_DOWN);
        assert_eq!(node.telem.rtt.snapshot().count(), 0, "NotSent must not record a round trip");
    }
}
