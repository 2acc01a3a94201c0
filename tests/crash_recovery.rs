//! Crash-recovery equivalence against the real binary: `kill -9` a
//! `tiresias serve --data-dir` daemon at randomized points in the
//! acked stream, restart it from the same directory, and the restarted
//! daemon's `QUERY` must equal an offline `ShardedTiresias` replay of
//! exactly the records that were acknowledged — the WAL's durability
//! contract, end to end through the process boundary. A torn WAL tail
//! (FaultFs truncation after the kill) must degrade to the surviving
//! frame prefix, never to a refusal to start; and the `query`
//! subcommand's reconnect backoff must exit 1 naming the address once
//! its retries are spent.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use tiresias::core::{read_wal, FaultFs, WalEntry};
use tiresias_testkit::{
    offline_events, served, stats, wait_until, with_sentinels, workload, Client, Daemon, TempDir,
    SERVED_FLAGS, TIMEUNIT,
};

const BIN: &str = env!("CARGO_BIN_EXE_tiresias");

/// Spawns `tiresias serve --data-dir <dir> --wal-sync every` on an
/// ephemeral port.
fn serve(data_dir: &Path) -> Daemon {
    let dir = data_dir.to_str().expect("utf-8 temp path");
    let mut args = vec!["serve"];
    args.extend_from_slice(SERVED_FLAGS);
    args.extend_from_slice(&["--addr", "127.0.0.1:0", "--grace-ms", "400", "--tick-ms", "20"]);
    args.extend_from_slice(&["--wal-sync", "every", "--data-dir", dir]);
    Daemon::spawn(BIN, args)
}

/// Restarts from `data_dir`, drives the recovered stream closed with
/// the same sentinel the offline replay used, and returns the full
/// `QUERY` result.
fn recover_and_query(data_dir: &Path, sentinel: u64) -> Vec<String> {
    let revived = serve(data_dir);
    let stats = stats(&revived);
    assert!(stats.num("recovered_batches") > 0, "the restart replayed WAL batches: {stats}");
    let mut client = Client::connect(&revived);
    client.send(&format!("PUSH cat0/leaf {sentinel}"));
    let reply = client.recv();
    assert!(reply == "OK" || reply == "LATE", "sentinel admits: {reply}");
    let closed = (sentinel / TIMEUNIT - 1).to_string();
    wait_until(&revived, |s| s.field("last_closed") == closed);
    let (frames, _) = client.query("QUERY 0 9999");
    client.send("QUIT");
    revived.shutdown();
    frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The headline contract: at ANY kill point, restarting from the
    /// data dir reproduces exactly the anomalies of the acked prefix.
    #[test]
    fn kill9_recovery_equals_offline_replay_of_acked_records(kill_after in 40usize..440) {
        let dir = TempDir::new("crash-kill");
        let records = workload(12, 4, 6, &[0, 2], 40);
        let mut daemon = serve(&dir);
        let acked = Client::connect(&daemon).push_acked(&records[..kill_after]);
        prop_assert!(!acked.is_empty(), "some records were acked");
        daemon.kill9();

        let (replayed, sentinel) = with_sentinels(&acked, &["cat0/leaf"]);
        let frames = recover_and_query(&dir, sentinel);
        let expected = offline_events(served(), &replayed);
        prop_assert_eq!(frames, expected, "recovered QUERY equals the acked-prefix replay");
    }
}

/// A torn WAL tail after the kill: recovery truncates at the first
/// bad frame and serves the surviving prefix — it never refuses to
/// start, and the result equals the offline replay of exactly the
/// records in the surviving frames.
#[test]
fn torn_wal_tail_recovers_the_surviving_prefix() {
    let dir = TempDir::new("crash-torn");
    let records = workload(12, 4, 6, &[0, 2], 40);
    let mut daemon = serve(&dir);
    let acked = Client::connect(&daemon).push_acked(&records[..300]);
    assert_eq!(acked.len(), 300, "all pushes acked");
    daemon.kill9();

    // Tear the newest WAL segment mid-frame: drop the last intact
    // frame's second half.
    let wal_dir = dir.join("wal");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&wal_dir)
        .expect("wal dir lists")
        .map(|e| e.expect("entry").path())
        .collect();
    files.sort();
    let last = files.last().expect("a WAL segment exists");
    let frames = FaultFs::frame_offsets(last).expect("frames walk");
    let (offset, len) = *frames.last().expect("frames exist");
    FaultFs::truncate_at(last, offset + len / 2).expect("tear applies");

    // What survives on disk is the ground truth now.
    let surviving: Vec<(String, u64)> = read_wal(&wal_dir)
        .expect("torn log still reads")
        .entries
        .into_iter()
        .filter_map(|e| match e {
            WalEntry::Batch { records, .. } => Some(records),
            WalEntry::Close { .. } => None,
        })
        .flatten()
        .collect();
    assert!(!surviving.is_empty() && surviving.len() < acked.len(), "the tear dropped a tail");

    let (replayed, sentinel) = with_sentinels(&surviving, &["cat0/leaf"]);
    let frames = recover_and_query(&dir, sentinel);
    let expected = offline_events(served(), &replayed);
    assert_eq!(frames, expected, "recovery serves exactly the surviving frame prefix");
}

/// `tiresias query` retries with backoff and, once its retries are
/// spent, exits 1 with an error naming the unreachable address.
#[test]
fn query_backoff_exits_one_naming_the_address() {
    let started = Instant::now();
    let output = Command::new(BIN)
        .args(["query", "127.0.0.1:9", "0", "10", "--retries", "2", "--retry-max-ms", "50"])
        .output()
        .expect("query subcommand runs");
    assert_eq!(output.status.code(), Some(1), "runtime failure exits 1");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("127.0.0.1:9"), "the error names the address: {stderr}");
    assert!(stderr.contains("retry 1/2") && stderr.contains("retry 2/2"), "retries ran: {stderr}");
    assert!(started.elapsed() >= Duration::from_millis(100), "backoff actually waited");
}
