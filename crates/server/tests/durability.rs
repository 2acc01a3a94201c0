//! End-to-end tests of the durability layer: a crash image (WAL, no
//! checkpoint) must replay into exactly the acked anomaly stream; a
//! clean shutdown's checkpoint must make the replay set empty and
//! survive torn `.tmp` leftovers; and the retention budget must spill
//! to segments that `QUERY`/`SUBSCRIBE FROM` serve transparently.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tiresias_core::{TiresiasBuilder, WalSyncPolicy};
use tiresias_server::protocol::format_event;
use tiresias_server::{Server, ServerConfig};

const TIMEUNIT: u64 = 60;

fn builder() -> TiresiasBuilder {
    TiresiasBuilder::new()
        .timeunit_secs(TIMEUNIT)
        .window_len(16)
        .threshold(5.0)
        .season_length(4)
        .sensitivity(2.0, 5.0)
        .warmup_units(4)
        .shards(2)
}

fn config(data_dir: &Path) -> ServerConfig {
    let mut config = ServerConfig::new(builder());
    config.grace = Duration::from_millis(400);
    config.tick = Duration::from_millis(20);
    config.data_dir = Some(data_dir.to_path_buf());
    // Every acked batch is on disk before its reply: the crash image
    // taken below must contain everything a client saw acknowledged.
    config.wal_sync = WalSyncPolicy::EveryBatch;
    config
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tiresias-durability-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id(),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir creates");
    dir
}

/// Copies a data directory recursively — the moral equivalent of the
/// on-disk state a `kill -9` leaves behind, taken while the daemon is
/// still live (quiescent: all pushes acked, closes converged).
fn snapshot(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("snapshot dir creates");
    for entry in std::fs::read_dir(src).expect("source dir lists") {
        let entry = entry.expect("dir entry reads");
        let to = dst.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            snapshot(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).expect("file copies");
        }
    }
}

/// Steady traffic over `categories` top-level labels for `units`
/// timeunits; every category in `burst_cats` bursts at `burst_unit`.
fn workload(
    units: u64,
    categories: u64,
    burst_unit: u64,
    burst_cats: &[u64],
) -> Vec<(String, u64)> {
    let mut records = Vec::new();
    for u in 0..units {
        for k in 0..categories {
            let count = if u == burst_unit && burst_cats.contains(&k) { 80 } else { 8 };
            for i in 0..count {
                records.push((format!("cat{k}/leaf"), u * TIMEUNIT + (i % TIMEUNIT)));
            }
        }
    }
    // A sentinel one unit past the workload drives the data watermark
    // so every workload unit closes deterministically — included here
    // so the offline ground truth closes the same units the server
    // does.
    records.push(("cat0/leaf".to_string(), units * TIMEUNIT));
    records
}

/// The offline ground truth: the same records through a fresh,
/// unbounded sharded engine, as `EVENT` frames in `(unit, path)` order.
fn offline_event_frames(records: &[(String, u64)]) -> Vec<String> {
    let mut engine = builder().build_sharded().expect("valid test config");
    engine.push_batch(records).expect("replay ingests");
    engine.anomalies().iter().map(format_event).collect()
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.local_addr()).expect("connects");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout set");
        let reader = BufReader::new(stream.try_clone().expect("clones"));
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).expect("writes");
        self.stream.write_all(b"\n").expect("writes");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("reads a reply line");
        line.trim_end().to_string()
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }

    fn stats(&mut self) -> String {
        self.send("STATS");
        loop {
            let line = self.recv();
            if line.starts_with("STATS ") || line.starts_with("ERR ") {
                return line;
            }
        }
    }

    fn query(&mut self, request: &str) -> (Vec<String>, usize) {
        self.send(request);
        let mut frames = Vec::new();
        loop {
            let line = self.recv();
            if let Some(n) = line.strip_prefix("OK n=") {
                return (frames, n.parse().expect("count parses"));
            }
            assert!(line.starts_with("EVENT "), "unexpected QUERY reply: {line}");
            frames.push(line);
        }
    }

    fn collect_events(&mut self, expected: usize, deadline: Duration) -> Vec<String> {
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
}

fn wait_for_stats(server: &Server, predicate: impl Fn(&str) -> bool) -> String {
    let mut client = Client::connect(server);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = client.stats();
        if predicate(&stats) {
            client.send("QUIT");
            return stats;
        }
        assert!(Instant::now() < deadline, "STATS never converged: {stats}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn stats_field(stats: &str, key: &str) -> String {
    stats
        .split_whitespace()
        .find_map(|pair| pair.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("{key} missing from {stats}"))
        .to_string()
}

/// Feeds every record (the workload's trailing sentinel drives the
/// closes); `PING` serialises behind the pushes before returning.
fn feed(server: &Server, records: &[(String, u64)]) {
    let mut feeder = Client::connect(server);
    assert_eq!(feeder.roundtrip("NOACK"), "OK");
    let mut payload = String::new();
    for (path, t) in records {
        payload.push_str(&format!("PUSH {path} {t}\n"));
    }
    feeder.stream.write_all(payload.as_bytes()).expect("bulk push");
    assert_eq!(feeder.roundtrip("PING"), "PONG");
    feeder.send("QUIT");
}

/// Feeds and waits until the in-memory store holds the full offline
/// event count (only valid without a retention budget).
fn feed_and_settle(server: &Server, records: &[(String, u64)], expected_events: usize) {
    feed(server, records);
    let needle = format!("events={expected_events} ");
    wait_for_stats(server, |s| s.contains(&needle));
}

#[test]
fn crash_image_replays_the_wal_into_the_acked_stream() {
    let live_dir = tempdir("crash-live");
    let crash_dir = tempdir("crash-image");
    let records = workload(10, 6, 8, &[0, 3]);
    let expected = offline_event_frames(&records);
    assert!(expected.len() >= 2, "the workload produces anomalies: {expected:?}");

    let server = Server::start(config(&live_dir)).expect("server starts");
    feed_and_settle(&server, &records, expected.len());
    let stats = wait_for_stats(&server, |s| s.contains("wal_seq="));
    assert!(stats_field(&stats, "wal_seq").parse::<u64>().expect("number") > 0, "{stats}");

    // The crash image: WAL segments only, no shutdown checkpoint —
    // exactly what `kill -9` would leave.
    snapshot(&live_dir, &crash_dir);
    assert!(!crash_dir.join("checkpoint.json").exists(), "no checkpoint before shutdown");
    let mut killer = Client::connect(&server);
    killer.send("SHUTDOWN");
    server.join().expect("clean shutdown");

    // Restart from the image: the full acked stream comes back from
    // WAL replay alone.
    let revived = Server::start(config(&crash_dir)).expect("server recovers");
    let stats = wait_for_stats(&revived, |s| s.contains(&format!("events={} ", expected.len())));
    assert!(
        stats_field(&stats, "recovered_batches").parse::<u64>().expect("number") > 0,
        "recovery replayed WAL batches: {stats}"
    );
    assert!(
        stats_field(&stats, "recovered_units").parse::<u64>().expect("number") > 0,
        "recovery re-closed timeunits: {stats}"
    );
    let mut client = Client::connect(&revived);
    let (frames, n) = client.query("QUERY 0 9999");
    assert_eq!(n, frames.len());
    assert_eq!(frames, expected, "post-crash QUERY equals the offline replay exactly");

    client.send("SHUTDOWN");
    revived.join().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&live_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

#[test]
fn oversized_paths_are_refused_and_later_records_survive_a_restart() {
    let live_dir = tempdir("oversize-live");
    let crash_dir = tempdir("oversize-image");
    let records = workload(10, 6, 8, &[0, 3]);
    let expected = offline_event_frames(&records);
    assert!(expected.len() >= 2, "the workload produces anomalies: {expected:?}");
    let (before, after) = records.split_at(records.len() / 2);

    let server = Server::start(config(&live_dir)).expect("server starts");
    feed(&server, before);

    // A path of two-byte characters past the WAL record format's
    // 65 535-byte length field: logged truncated, the cut would land
    // inside a character, the frame would fail to decode at recovery
    // and take every later acked frame with it. It is refused at the
    // door instead — as a line too long to buffer — and so is a path
    // that fits a line but not the 4 KiB label cap.
    let mut client = Client::connect(&server);
    let t = after[0].1;
    let reply = client.roundtrip(&format!("PUSH {} {t}", "é".repeat(35_000)));
    assert!(reply.starts_with("ERR line exceeds"), "{reply}");
    let reply = client.roundtrip(&format!("PUSH {} {t}", "é".repeat(2_049)));
    assert!(reply.starts_with("ERR PUSH category path of 4098 bytes exceeds"), "{reply}");
    // The session survives both and keeps admitting.
    assert_eq!(client.roundtrip(&format!("PUSH {} {t}", after[0].0)), "OK");
    client.send("QUIT");
    feed_and_settle(&server, &after[1..], expected.len());

    snapshot(&live_dir, &crash_dir);
    let mut killer = Client::connect(&server);
    killer.send("SHUTDOWN");
    server.join().expect("clean shutdown");

    // Everything acked after the refused paths is still there after a
    // crash: the WAL holds exactly the acked records.
    let revived = Server::start(config(&crash_dir)).expect("server recovers");
    wait_for_stats(&revived, |s| s.contains(&format!("events={} ", expected.len())));
    let mut client = Client::connect(&revived);
    let (frames, _) = client.query("QUERY 0 9999");
    assert_eq!(frames, expected, "post-crash QUERY equals the offline replay exactly");

    client.send("SHUTDOWN");
    revived.join().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&live_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

#[test]
fn clean_shutdown_checkpoints_atomically_and_ignores_torn_tmp() {
    let dir = tempdir("clean");
    let records = workload(10, 6, 8, &[1]);
    let expected = offline_event_frames(&records);
    assert!(!expected.is_empty(), "the workload produces anomalies");

    let server = Server::start(config(&dir)).expect("server starts");
    feed_and_settle(&server, &records, expected.len());
    let mut client = Client::connect(&server);
    client.send("SHUTDOWN");
    server.join().expect("clean shutdown");

    let checkpoint = dir.join("checkpoint.json");
    assert!(checkpoint.exists(), "graceful shutdown wrote the checkpoint");
    assert!(!dir.join("checkpoint.tmp").exists(), "the tmp file was renamed away");

    // A torn `.tmp` from a hypothetical crash mid-write must be
    // ignored: only the rename publishes a checkpoint.
    let torn = &std::fs::read(&checkpoint).expect("checkpoint reads")
        [..std::fs::metadata(&checkpoint).expect("metadata").len() as usize / 2];
    std::fs::write(dir.join("checkpoint.tmp"), torn).expect("torn tmp writes");

    let revived = Server::start(config(&dir)).expect("server resumes");
    let stats = wait_for_stats(&revived, |s| s.starts_with("STATS "));
    assert_eq!(
        stats_field(&stats, "recovered_batches"),
        "0",
        "the checkpoint covered the whole WAL — nothing to replay: {stats}"
    );
    let mut client = Client::connect(&revived);
    let (frames, _) = client.query("QUERY 0 9999");
    assert_eq!(frames, expected, "the resumed store equals the offline replay");

    client.send("SHUTDOWN");
    revived.join().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retention_spills_to_segments_and_serves_history_from_disk() {
    let dir = tempdir("spill");
    let mut config = config(&dir);
    config.retain_units = Some(2);
    let server = Server::start(config).expect("server starts");

    // The burst sits at unit 6 of 12 so its events age well past the
    // two-unit RAM budget and must be answered from segments.
    let records = workload(12, 6, 6, &[0, 3]);
    let expected = offline_event_frames(&records);
    let evicted_expected: Vec<&String> =
        expected.iter().filter(|f| f.contains("unit=6 ")).collect();
    assert!(!evicted_expected.is_empty(), "the burst unit produces anomalies: {expected:?}");

    // All 12 workload units close (the sentinel sits in unit 12); with
    // a 2-unit budget, everything older has been evicted from RAM.
    feed(&server, &records);
    let stats = wait_for_stats(&server, |s| {
        s.contains("last_closed=11 ")
            && stats_field(s, "events_evicted").parse::<u64>().unwrap_or(0) > 0
    });
    assert!(
        stats_field(&stats, "segments").parse::<u64>().expect("number") >= 1,
        "evicted events reached a segment file: {stats}"
    );

    // QUERY spans both tiers: the full offline stream answers, with
    // the evicted burst served from disk.
    let mut client = Client::connect(&server);
    let (frames, _) = client.query("QUERY 0 9999");
    assert_eq!(frames, expected, "QUERY reaches past the RAM budget into segments");

    // SUBSCRIBE FROM 0 resumes at the archive's first spilled unit —
    // not the (much later) RAM horizon — and the catch-up covers both
    // tiers gap-free. No event precedes that unit, so nothing is lost.
    let first_event_unit: u64 = expected
        .iter()
        .filter_map(|f| {
            f.split_whitespace().find_map(|p| p.strip_prefix("unit=")).map(|u| u.parse().unwrap())
        })
        .min()
        .expect("events exist");
    assert_eq!(
        client.roundtrip("SUBSCRIBE FROM 0"),
        format!("OK subscribed from={first_event_unit}"),
        "the resume floor is the archive's first unit, not the RAM horizon"
    );
    let replayed = client.collect_events(expected.len(), Duration::from_secs(10));
    assert_eq!(replayed, expected, "the catch-up replays disk history then RAM");

    client.send("SHUTDOWN");
    server.join().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
