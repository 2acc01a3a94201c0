//! Ingestion-path equivalence against the real binary: the same
//! workload admitted over the text protocol, over wire-protocol-v2
//! frames, and replayed from a CSV file via `tiresias load` must leave
//! three daemons in byte-identical states — the same `QUERY` anomaly
//! stream, the same record count, and the same heavy-hitter gauge.
//! The encoding never changes what the detector sees.

use std::path::{Path, PathBuf};
use std::process::Command;

use tiresias::server::protocol::v2;
use tiresias_testkit::{wait_until, workload, Client, Daemon, TempDir, SERVED_FLAGS};

const BIN: &str = env!("CARGO_BIN_EXE_tiresias");

fn serve() -> Daemon {
    let mut args = vec!["serve"];
    args.extend_from_slice(SERVED_FLAGS);
    args.extend_from_slice(&["--addr", "127.0.0.1:0", "--grace-ms", "400", "--tick-ms", "20"]);
    Daemon::spawn(BIN, args)
}

/// Drives the daemon's stream closed and snapshots the observable
/// state: the full anomaly stream plus the record count and
/// heavy-hitter gauge out of `STATS`.
fn snapshot(daemon: &Daemon, records: usize) -> (Vec<String>, String, String) {
    // Units close up to one behind the stream head — the newest unit
    // stays open awaiting more records.
    let stats = wait_until(daemon, |s| s.field("last_closed") == "10");
    assert_eq!(stats.num("records"), records as u64, "every record admitted: {stats}");
    assert_eq!(stats.num("late"), 0, "{stats}");
    let mut client = Client::connect(daemon);
    let (frames, _) = client.query("QUERY 0 9999");
    client.send("QUIT");
    (frames, stats.field("records").to_string(), stats.field("top_paths").to_string())
}

fn ingest_text(addr: &str, records: &[(String, u64)]) {
    let mut client = Client::connect(addr);
    assert_eq!(client.roundtrip("NOACK"), "OK");
    let mut payload = String::new();
    for (path, t) in records {
        payload.push_str(&format!("PUSH {path} {t}\n"));
    }
    client.send_bytes(payload.as_bytes());
    assert_eq!(client.roundtrip("QUIT"), "BYE");
}

fn ingest_v2(addr: &str, records: &[(String, u64)]) {
    let mut client = Client::connect(addr);
    assert_eq!(client.roundtrip("NOACK"), "OK");
    assert_eq!(client.roundtrip("HELLO v2"), "OK v2");
    assert_eq!(client.roundtrip("UPGRADE"), "OK upgraded");
    let mut enc = v2::FrameEncoder::new();
    for (seq, batch) in records.chunks(113).enumerate() {
        let mut frame = Vec::new();
        enc.encode_data(seq as u32, batch, &mut frame);
        client.send_bytes(&frame);
    }
    // PING fences behind every prior frame, even under NOACK.
    let fence = v2::control_frame(v2::FrameKind::Ping, u32::MAX);
    client.send_bytes(&fence);
    assert_eq!(client.recv(), format!("PONG frame={}", u32::MAX));
    client.send_bytes(&v2::control_frame(v2::FrameKind::End, 0));
    assert_eq!(client.recv(), "OK text");
    assert_eq!(client.roundtrip("QUIT"), "BYE");
}

/// Writes the workload into `dir` as the CSV/TSV file `tiresias load`
/// reads — alternating delimiters per line, with a header, a comment,
/// and blank lines the loader must skip.
fn write_csv(dir: &Path, records: &[(String, u64)]) -> PathBuf {
    let path = dir.join("workload.csv");
    let mut text = String::from("timestamp,category\n# synthetic workload\n\n");
    for (i, (path, t)) in records.iter().enumerate() {
        let delim = if i % 2 == 0 { ',' } else { '\t' };
        text.push_str(&format!("{t}{delim}{path}\n"));
    }
    std::fs::write(&path, text).expect("csv writes");
    path
}

fn ingest_load(addr: &str, csv: &Path, records: usize) {
    let output = Command::new(BIN)
        .arg("load")
        .arg(csv)
        .args(["--addr", addr, "--batch", "157", "--ack"])
        .output()
        .expect("load subcommand runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "load exits 0: {stderr}");
    assert!(stderr.contains(&format!("accepted={records}")), "every record accepted: {stderr}");
    assert!(stderr.contains("late=0"), "{stderr}");
}

/// The headline contract: text, v2, and `tiresias load` replay of one
/// workload are indistinguishable to the detector.
#[test]
fn text_v2_and_load_ingestion_are_byte_identical() {
    // Steady traffic with a burst: 12 units × 4 categories, categories
    // 0 and 2 bursting at unit 6.
    let records = workload(12, 4, 6, &[0, 2], 40);
    let dir = TempDir::new("load-eq");
    let csv = write_csv(&dir, &records);

    let text_daemon = serve();
    ingest_text(&text_daemon.addr, &records);
    let v2_daemon = serve();
    ingest_v2(&v2_daemon.addr, &records);
    let load_daemon = serve();
    ingest_load(&load_daemon.addr, &csv, records.len());

    let text_state = snapshot(&text_daemon, records.len());
    let v2_state = snapshot(&v2_daemon, records.len());
    let load_state = snapshot(&load_daemon, records.len());

    assert!(!text_state.0.is_empty(), "the workload produces anomalies");
    assert_eq!(text_state, v2_state, "v2 framing changes nothing the detector sees");
    assert_eq!(text_state, load_state, "CSV replay changes nothing the detector sees");

    text_daemon.shutdown();
    v2_daemon.shutdown();
    load_daemon.shutdown();
}

/// `tiresias load` on a file that does not exist exits 1 and names
/// the path; a daemon that never learned v2 is reported as such.
#[test]
fn load_failures_exit_one_with_the_reason() {
    let output = Command::new(BIN)
        .args(["load", "/nonexistent/tiresias.csv", "--addr", "127.0.0.1:9"])
        .output()
        .expect("load subcommand runs");
    assert_eq!(output.status.code(), Some(1), "runtime failure exits 1");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("/nonexistent/tiresias.csv"), "the error names the file: {stderr}");
}
