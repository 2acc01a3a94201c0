//! End-to-end tests of the durability layer: a crash image (WAL, no
//! checkpoint) must replay into exactly the acked anomaly stream; a
//! clean shutdown's checkpoint must make the replay set empty and
//! survive torn `.tmp` leftovers; and the retention budget must spill
//! to segments that `QUERY`/`SUBSCRIBE FROM` serve transparently.

use std::path::Path;
use std::time::Duration;

use tiresias_core::WalSyncPolicy;
use tiresias_server::{Server, ServerConfig};
use tiresias_testkit::{offline_events, served, stats, wait_until, Client, TempDir, TIMEUNIT};

fn config(data_dir: &Path) -> ServerConfig {
    let mut config = ServerConfig::new(served());
    config.grace = Duration::from_millis(400);
    config.tick = Duration::from_millis(20);
    config.data_dir = Some(data_dir.to_path_buf());
    // Every acked batch is on disk before its reply: the crash image
    // taken below must contain everything a client saw acknowledged.
    config.wal_sync = WalSyncPolicy::EveryBatch;
    config
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

/// [`tiresias_testkit::workload`] plus a sentinel one unit past it,
/// which drives the data watermark so every workload unit closes
/// deterministically — included here so the offline ground truth
/// closes the same units the server does.
fn workload(
    units: u64,
    categories: u64,
    burst_unit: u64,
    burst_cats: &[u64],
) -> Vec<(String, u64)> {
    let mut records = tiresias_testkit::workload(units, categories, burst_unit, burst_cats, 80);
    records.push(("cat0/leaf".to_string(), units * TIMEUNIT));
    records
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
    feeder.send_bytes(payload.as_bytes());
    assert_eq!(feeder.roundtrip("PING"), "PONG");
    feeder.send("QUIT");
}

/// Feeds and waits until the in-memory store holds the full offline
/// event count (only valid without a retention budget).
fn feed_and_settle(server: &Server, records: &[(String, u64)], expected_events: usize) {
    feed(server, records);
    wait_until(server, |s| s.num("events") == expected_events as u64);
}

#[test]
fn crash_image_replays_the_wal_into_the_acked_stream() {
    let live_dir = TempDir::new("durability-crash-live");
    let crash_dir = TempDir::new("durability-crash-image");
    let records = workload(10, 6, 8, &[0, 3]);
    let expected = offline_events(served(), &records);
    assert!(expected.len() >= 2, "the workload produces anomalies: {expected:?}");

    let server = Server::start(config(&live_dir)).expect("server starts");
    feed_and_settle(&server, &records, expected.len());
    let stats = stats(&server);
    assert!(stats.num("wal_seq") > 0, "{stats}");

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
    let stats = wait_until(&revived, |s| s.num("events") == expected.len() as u64);
    assert!(stats.num("recovered_batches") > 0, "recovery replayed WAL batches: {stats}");
    assert!(stats.num("recovered_units") > 0, "recovery re-closed timeunits: {stats}");
    let mut client = Client::connect(&revived);
    let (frames, _) = client.query("QUERY 0 9999");
    assert_eq!(frames, expected, "post-crash QUERY equals the offline replay exactly");

    client.send("SHUTDOWN");
    revived.join().expect("clean shutdown");
}

#[test]
fn oversized_paths_are_refused_and_later_records_survive_a_restart() {
    let live_dir = TempDir::new("durability-oversize-live");
    let crash_dir = TempDir::new("durability-oversize-image");
    let records = workload(10, 6, 8, &[0, 3]);
    let expected = offline_events(served(), &records);
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
    wait_until(&revived, |s| s.num("events") == expected.len() as u64);
    let mut client = Client::connect(&revived);
    let (frames, _) = client.query("QUERY 0 9999");
    assert_eq!(frames, expected, "post-crash QUERY equals the offline replay exactly");

    client.send("SHUTDOWN");
    revived.join().expect("clean shutdown");
}

#[test]
fn clean_shutdown_checkpoints_atomically_and_ignores_torn_tmp() {
    let dir = TempDir::new("durability-clean");
    let records = workload(10, 6, 8, &[1]);
    let expected = offline_events(served(), &records);
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
    let stats = stats(&revived);
    assert_eq!(
        stats.num("recovered_batches"),
        0,
        "the checkpoint covered the whole WAL — nothing to replay: {stats}"
    );
    let mut client = Client::connect(&revived);
    let (frames, _) = client.query("QUERY 0 9999");
    assert_eq!(frames, expected, "the resumed store equals the offline replay");

    client.send("SHUTDOWN");
    revived.join().expect("clean shutdown");
}

#[test]
fn retention_spills_to_segments_and_serves_history_from_disk() {
    let dir = TempDir::new("durability-spill");
    let mut config = config(&dir);
    config.retain_units = Some(2);
    let server = Server::start(config).expect("server starts");

    // The burst sits at unit 6 of 12 so its events age well past the
    // two-unit RAM budget and must be answered from segments.
    let records = workload(12, 6, 6, &[0, 3]);
    let expected = offline_events(served(), &records);
    let evicted_expected: Vec<&String> =
        expected.iter().filter(|f| f.contains("unit=6 ")).collect();
    assert!(!evicted_expected.is_empty(), "the burst unit produces anomalies: {expected:?}");

    // All 12 workload units close (the sentinel sits in unit 12); with
    // a 2-unit budget, everything older has been evicted from RAM.
    feed(&server, &records);
    let stats =
        wait_until(&server, |s| s.field("last_closed") == "11" && s.num("events_evicted") > 0);
    assert!(stats.num("segments") >= 1, "evicted events reached a segment file: {stats}");

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
}
