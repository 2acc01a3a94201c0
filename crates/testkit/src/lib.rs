//! Helpers shared by the workspace's integration tests.
//!
//! The rule for what lives here: an item earns a place only when at
//! least two integration-test files use it. A helper with one user
//! stays in that file. The crate is `publish = false` and is only ever
//! a `[dev-dependencies]` entry; no production crate depends on it.
//!
//! `tiresias-core`'s own unit tests cannot use it. A `#[cfg(test)]`
//! build of core is a different crate instance from the core this kit
//! links, so the kit's types would not be theirs. Core keeps a small
//! `testutil` module of its own for that reason.
//!
//! * [`served`] and [`SERVED_FLAGS`]: the detector configuration the
//!   served tests run, as a builder and as `tiresias serve` flags.
//! * [`workload`] and [`with_sentinels`]: steady traffic with a burst,
//!   in [`served`] units, and the records that close it.
//! * [`offline_engine`] and [`offline_events`]: the replay oracle that
//!   served, routed and recovered output is compared against.
//! * [`Client`]: one line-protocol client, for an address or a running
//!   [`Server`], [`Router`] or [`Daemon`].
//! * [`Daemon`]: a spawned binary, killed on drop.
//! * [`Stats`], [`stats`] and [`wait_until`]: the one place that knows
//!   the `STATS` reply format.
//! * [`TempDir`]: a directory removed on drop, panics included.
//! * [`CountingAlloc`] and [`allocations`]: an allocator that counts,
//!   for tests that pin how often a hot path allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ffi::OsStr;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use tiresias_core::{ShardedTiresias, TiresiasBuilder};
use tiresias_server::protocol::format_event;
use tiresias_server::{Router, Server};

/// Seconds per timeunit in [`served`].
pub const TIMEUNIT: u64 = 60;

/// How long a [`Client`] read or a [`wait_until`] poll may take.
const DEADLINE: Duration = Duration::from_secs(30);

/// The detector configuration every served test runs: small windows
/// and a short warm-up so a dozen units of traffic produce anomalies.
pub fn served() -> TiresiasBuilder {
    TiresiasBuilder::new()
        .timeunit_secs(TIMEUNIT)
        .window_len(16)
        .threshold(5.0)
        .season_length(4)
        .sensitivity(2.0, 5.0)
        .warmup_units(4)
        .shards(2)
}

/// [`served`] as `tiresias serve` flags. A spawned daemon and the
/// offline replay it is compared with must agree on every one.
pub const SERVED_FLAGS: &[&str] = &[
    "--timeunit",
    "60",
    "--window",
    "16",
    "--theta",
    "5",
    "--season",
    "4",
    "--rt",
    "2",
    "--dt",
    "5",
    "--warmup",
    "4",
    "--shards",
    "2",
];

/// Steady, unit-ordered traffic for [`served`]: every unit of
/// `0..units`, each label `cat<k>/leaf` for `k` in `0..categories`
/// sends 8 records, except that the labels in `burst_cats` send
/// `burst` records in `burst_unit`.
pub fn workload(
    units: u64,
    categories: u64,
    burst_unit: u64,
    burst_cats: &[u64],
    burst: u64,
) -> Vec<(String, u64)> {
    let mut records = Vec::new();
    for u in 0..units {
        for k in 0..categories {
            let count = if u == burst_unit && burst_cats.contains(&k) { burst } else { 8 };
            for i in 0..count {
                records.push((format!("cat{k}/leaf"), u * TIMEUNIT + (i % TIMEUNIT)));
            }
        }
    }
    records
}

/// `records` plus one sentinel record per label in `labels`, at the
/// start of the unit after the last record's. On a server the sentinels
/// drive the watermark past every unit of `records`; in the offline
/// replay they close the same units. Returns the extended records and
/// the sentinel timestamp.
pub fn with_sentinels(records: &[(String, u64)], labels: &[&str]) -> (Vec<(String, u64)>, u64) {
    let last_unit = records.iter().map(|&(_, t)| t / TIMEUNIT).max().unwrap_or(0);
    let sentinel = (last_unit + 1) * TIMEUNIT;
    let mut extended = records.to_vec();
    extended.extend(labels.iter().map(|label| (label.to_string(), sentinel)));
    (extended, sentinel)
}

/// The offline oracle: `records`, already in unit order, replayed
/// through a fresh sharded engine.
pub fn offline_engine(builder: TiresiasBuilder, records: &[(String, u64)]) -> ShardedTiresias {
    let mut engine = builder.build_sharded().expect("valid test config");
    engine.push_batch(records).expect("replay ingests");
    engine
}

/// The oracle's anomaly stream as `EVENT` frames in store
/// (`(unit, path)`) order, the order `QUERY` answers in.
pub fn offline_events(builder: TiresiasBuilder, records: &[(String, u64)]) -> Vec<String> {
    offline_engine(builder, records).anomalies().iter().map(format_event).collect()
}

/// Something a [`Client`] can connect to.
pub trait Endpoint {
    /// The socket address, as `host:port`.
    fn addr(&self) -> String;
}

impl Endpoint for str {
    fn addr(&self) -> String {
        self.to_string()
    }
}

impl Endpoint for SocketAddr {
    fn addr(&self) -> String {
        self.to_string()
    }
}

impl Endpoint for Server {
    fn addr(&self) -> String {
        self.local_addr().to_string()
    }
}

impl Endpoint for Router {
    fn addr(&self) -> String {
        self.local_addr().to_string()
    }
}

impl Endpoint for Daemon {
    fn addr(&self) -> String {
        self.addr.clone()
    }
}

impl<T: Endpoint + ?Sized> Endpoint for &T {
    fn addr(&self) -> String {
        (**self).addr()
    }
}

/// A line-protocol session. Reads time out after 30 s, so a missing
/// reply fails the test instead of hanging it.
pub struct Client {
    stream: TcpStream,
    /// The buffered read half, for tests that read below the line level.
    pub reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to `to`.
    pub fn connect(to: impl Endpoint) -> Client {
        let stream = TcpStream::connect(to.addr()).expect("connects");
        stream.set_read_timeout(Some(DEADLINE)).expect("timeout set");
        let reader = BufReader::new(stream.try_clone().expect("clones"));
        Client { stream, reader }
    }

    /// Sends `line` and its newline.
    pub fn send(&mut self, line: &str) {
        self.send_bytes(format!("{line}\n").as_bytes());
    }

    /// Sends raw bytes: a pipelined payload or a binary frame.
    pub fn send_bytes(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("writes");
    }

    /// Reads one reply line, without its line ending.
    pub fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("reads a reply line");
        line.trim_end().to_string()
    }

    /// Sends `line` and reads one reply line.
    pub fn roundtrip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }

    /// Pushes `records` one round trip at a time and returns those the
    /// server acknowledged `OK`: the set a durability contract covers.
    pub fn push_acked(&mut self, records: &[(String, u64)]) -> Vec<(String, u64)> {
        let mut acked = Vec::new();
        for (path, t) in records {
            if self.roundtrip(&format!("PUSH {path} {t}")) == "OK" {
                acked.push((path.clone(), *t));
            }
        }
        acked
    }

    /// Sends a `QUERY` and reads the answer: the `EVENT` frames and the
    /// closing `OK n=…` line (a router may tag it `degraded=`). Panics
    /// on any other reply line, and when `n` is not the frame count.
    pub fn query(&mut self, request: &str) -> (Vec<String>, String) {
        self.send(request);
        let mut frames = Vec::new();
        loop {
            let line = self.recv();
            if let Some(tail) = line.strip_prefix("OK n=") {
                let n = tail.split_whitespace().next().and_then(|n| n.parse::<usize>().ok());
                assert_eq!(n, Some(frames.len()), "QUERY count disagrees with its frames: {line}");
                return (frames, line);
            }
            assert!(line.starts_with("EVENT "), "unexpected QUERY reply: {line}");
            frames.push(line);
        }
    }

    /// Reads `EVENT` frames on a subscribed session until `expected`
    /// arrived, the server closed the session, or `deadline` passed.
    pub fn collect_events(&mut self, expected: usize, deadline: Duration) -> Vec<String> {
        let start = Instant::now();
        let mut frames = Vec::new();
        while frames.len() < expected && start.elapsed() < deadline {
            let mut line = String::new();
            match self.reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => {
                    let line = line.trim_end();
                    if line.starts_with("EVENT ") {
                        frames.push(line.to_string());
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => panic!("subscriber read failed: {e}"),
            }
        }
        frames
    }

    /// This session's `STATS`, read past any `EVENT` frames a
    /// subscription interleaves. Panics on an `ERR` reply.
    pub fn stats(&mut self) -> Stats {
        Stats::parse(self.stats_reply())
    }

    fn stats_reply(&mut self) -> String {
        self.send("STATS");
        loop {
            let line = self.recv();
            assert!(!line.is_empty(), "the session closed before its STATS reply");
            if line.starts_with("STATS ") || line.starts_with("ERR ") {
                return line;
            }
        }
    }
}

/// One `STATS` reply. Its [`Display`](fmt::Display) is the raw reply,
/// for assertion messages.
#[derive(Debug)]
pub struct Stats {
    line: String,
}

impl Stats {
    fn parse(line: String) -> Stats {
        assert!(line.starts_with("STATS "), "not a STATS reply: {line}");
        Stats { line }
    }

    /// The value of `key`. Panics, naming the key and the reply, when
    /// the reply has no such field.
    pub fn field(&self, key: &str) -> &str {
        self.line
            .split_whitespace()
            .find_map(|pair| pair.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
            .unwrap_or_else(|| panic!("{key}= missing from {}", self.line))
    }

    /// [`field`](Stats::field) as a number.
    pub fn num(&self, key: &str) -> u64 {
        let value = self.field(key);
        value.parse().unwrap_or_else(|_| panic!("{key}={value} is not a number in {}", self.line))
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.line)
    }
}

/// One `STATS` reply from `at`, over a fresh connection.
pub fn stats(at: impl Endpoint) -> Stats {
    let mut client = Client::connect(at);
    let stats = client.stats();
    client.send("QUIT");
    stats
}

/// Polls `STATS` on `at` every 50 ms until `predicate` holds, and
/// returns the reply that satisfied it. `ERR` replies count as not
/// yet; after 30 s the test fails with the last reply.
pub fn wait_until(at: impl Endpoint, predicate: impl Fn(&Stats) -> bool) -> Stats {
    let mut client = Client::connect(at);
    let deadline = Instant::now() + DEADLINE;
    loop {
        let reply = client.stats_reply();
        if reply.starts_with("STATS ") {
            let stats = Stats::parse(reply);
            if predicate(&stats) {
                client.send("QUIT");
                return stats;
            }
            assert!(Instant::now() < deadline, "STATS never converged: {stats}");
        } else {
            assert!(Instant::now() < deadline, "STATS never converged: {reply}");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// A spawned daemon (`tiresias serve`, `tiresias route`), killed on
/// drop so a failing assertion never leaks a listener.
pub struct Daemon {
    child: Child,
    /// The address from the daemon's `LISTENING <addr>` banner.
    pub addr: String,
}

impl Daemon {
    /// Runs `bin` with `args` and waits for its `LISTENING` line. Pass
    /// `env!("CARGO_BIN_EXE_tiresias")`, which only the root package's
    /// tests can name.
    pub fn spawn<S: AsRef<OsStr>>(bin: &str, args: impl IntoIterator<Item = S>) -> Daemon {
        let mut child = Command::new(bin)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("daemon spawns");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut lines = BufReader::new(stdout).lines();
        let banner = lines.next().expect("daemon prints LISTENING").expect("stdout reads");
        let addr = banner
            .strip_prefix("LISTENING ")
            .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
            .to_string();
        Daemon { child, addr }
    }

    /// `kill -9`: no drain, no checkpoint.
    pub fn kill9(&mut self) {
        let _ = self.child.kill(); // SIGKILL on unix
        let _ = self.child.wait();
    }

    /// A graceful `SHUTDOWN`, then waits for the process to exit.
    pub fn shutdown(mut self) {
        if let Ok(mut stream) = TcpStream::connect(&self.addr) {
            let _ = stream.write_all(b"SHUTDOWN\n");
        }
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A fresh, empty directory under the system temp dir, removed with
/// everything in it when dropped, including while a failed assertion
/// unwinds. Derefs to its [`Path`].
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `tiresias-<tag>-<pid>-<n>`, unique within the process.
    pub fn new(tag: &str) -> TempDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "tiresias-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("temp dir creates");
        TempDir { path }
    }
}

impl Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// The system allocator, counting every allocation and reallocation.
/// A test binary opts in with
/// `#[global_allocator] static GLOBAL: CountingAlloc = CountingAlloc;`
/// and reads the count with [`allocations`]. The count is process-wide,
/// so such a binary should hold one test: nothing else may allocate
/// while it counts.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Allocations and reallocations made so far through [`CountingAlloc`].
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed counter increment, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System.alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, plus the caller's guarantee that
        // `new_size` is valid for `layout`'s alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn temp_dir_is_removed_on_drop() {
        let dir = TempDir::new("kit-drop");
        std::fs::write(dir.join("file"), b"x").expect("writes");
        let path = dir.to_path_buf();
        assert!(path.is_dir());
        drop(dir);
        assert!(!path.exists(), "{} survived its guard", path.display());
    }

    #[test]
    fn temp_dir_is_removed_when_a_test_panics() {
        let mut path = PathBuf::new();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let dir = TempDir::new("kit-panic");
            std::fs::create_dir_all(dir.join("nested")).expect("creates");
            path = dir.to_path_buf();
            panic!("a failing assertion");
        }));
        assert!(outcome.is_err());
        assert!(path.starts_with(std::env::temp_dir()), "{}", path.display());
        assert!(!path.exists(), "{} survived the unwind", path.display());
    }

    #[test]
    fn stats_fields_read_by_exact_key() {
        let stats = Stats::parse("STATS events=3 events_evicted=1 last_closed=- top=a:2".into());
        assert_eq!(stats.field("events"), "3");
        assert_eq!(stats.num("events_evicted"), 1);
        assert_eq!(stats.field("last_closed"), "-");
        assert_eq!(stats.to_string(), "STATS events=3 events_evicted=1 last_closed=- top=a:2");
    }

    #[test]
    #[should_panic(expected = "wal_seq= missing from STATS records=1 late=0")]
    fn stats_field_names_the_missing_key_and_the_line() {
        Stats::parse("STATS records=1 late=0".into()).field("wal_seq");
    }

    /// A one-connection server that reads one request line and answers
    /// with `reply`.
    fn answering(reply: &'static str) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("local addr");
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accepts");
            let mut reader = BufReader::new(stream.try_clone().expect("clones"));
            let mut request = String::new();
            reader.read_line(&mut request).expect("reads the request");
            (&stream).write_all(reply.as_bytes()).expect("answers");
        });
        addr
    }

    #[test]
    fn query_returns_frames_and_the_ok_line() {
        let addr = answering("EVENT unit=1 path=a\nEVENT unit=2 path=b\nOK n=2 degraded=x\n");
        let (frames, ok) = Client::connect(addr).query("QUERY 0 9");
        assert_eq!(frames, ["EVENT unit=1 path=a", "EVENT unit=2 path=b"]);
        assert_eq!(ok, "OK n=2 degraded=x");
    }

    #[test]
    #[should_panic(expected = "unexpected QUERY reply: ERR no such thing")]
    fn query_panics_on_a_line_that_is_neither_event_nor_ok() {
        let addr = answering("EVENT unit=1 path=a\nERR no such thing\n");
        Client::connect(addr).query("QUERY 0 9");
    }
}
