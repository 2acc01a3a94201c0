//! End-to-end tests of the streaming daemon: concurrent clients over
//! real sockets, live-vs-replay equivalence of the anomaly stream,
//! protocol robustness, and the checkpoint-on-shutdown lifecycle.

use std::time::Duration;

use tiresias_core::CHECKPOINT_VERSION;
use tiresias_server::{Server, ServerConfig};
use tiresias_testkit::{offline_events, served, workload, Client, TempDir, TIMEUNIT};

fn config() -> ServerConfig {
    let mut config = ServerConfig::new(served());
    config.grace = Duration::from_millis(600);
    config.tick = Duration::from_millis(20);
    config
}

#[test]
fn live_stream_matches_offline_replay() {
    let server = Server::start(config()).expect("server starts");
    let records = workload(10, 6, 8, &[0, 3], 80);
    // Sorted: live frames arrive in close order, not store order.
    let mut expected = offline_events(served(), &records);
    expected.sort();
    assert!(!expected.is_empty(), "the workload produces anomalies");

    let mut subscriber = Client::connect(&server);
    assert!(subscriber.roundtrip("SUBSCRIBE").starts_with("OK subscribed from="));

    // Three concurrent clients, records dealt round-robin so every
    // client's stream interleaves with the others mid-unit.
    std::thread::scope(|scope| {
        for c in 0..3usize {
            let records = &records;
            let server = &server;
            scope.spawn(move || {
                let mut client = Client::connect(server);
                assert_eq!(client.roundtrip("NOACK"), "OK");
                let mut payload = String::new();
                for (path, t) in records.iter().skip(c).step_by(3) {
                    payload.push_str(&format!("PUSH {path} {t}\n"));
                }
                client.send_bytes(payload.as_bytes());
                // Graceful close: QUIT flushes the session before EOF.
                assert_eq!(client.roundtrip("QUIT"), "BYE");
            });
        }
    });

    // The grace window expires, units close, events stream out live.
    let mut got = subscriber.collect_events(expected.len(), Duration::from_secs(30));
    got.sort();
    assert_eq!(got, expected, "live anomaly stream equals the offline replay");

    let mut control = Client::connect(&server);
    let stats = control.stats();
    assert_eq!(stats.num("records"), records.len() as u64, "{stats}");
    assert_eq!(stats.num("late"), 0, "{stats}");
    assert_eq!(stats.num("subscribers"), 1, "{stats}");
    assert_eq!(control.roundtrip("SHUTDOWN"), "OK shutting down");
    server.join().expect("clean shutdown");
}

#[test]
fn malformed_lines_get_err_and_never_wedge_the_session() {
    let server = Server::start(config()).expect("server starts");
    let mut client = Client::connect(&server);

    assert!(client.roundtrip("FLY me to the moon").starts_with("ERR "));
    assert!(client.roundtrip("PUSH").starts_with("ERR "));
    assert!(client.roundtrip("PUSH cat/leaf notanumber").starts_with("ERR "));
    assert!(client.roundtrip("push lowercase 1").starts_with("ERR "));
    assert!(client.roundtrip("STATS please").starts_with("ERR "));
    // Protocol-valid but absurd: a timestamp astronomically far ahead
    // must be refused, not buffered as a future close target.
    assert_eq!(client.roundtrip("PUSH cat/leaf 0"), "OK");
    let reply = client.roundtrip("PUSH cat/leaf 18446744073709551615");
    assert!(reply.starts_with("ERR ") && reply.contains("ahead"), "{reply}");

    // The same session still works afterwards…
    assert_eq!(client.roundtrip("PING"), "PONG");
    assert_eq!(client.roundtrip("PUSH cat/leaf 30"), "OK");
    let stats = client.stats();
    assert_eq!(stats.num("records"), 2, "{stats}");
    assert_eq!(stats.num("ahead"), 1, "{stats}");

    // …and so does a second, concurrent session (the shard rings never
    // saw the malformed lines).
    let mut other = Client::connect(&server);
    assert_eq!(other.roundtrip("PUSH cat/other 40"), "OK");
    let stats = other.stats();
    assert_eq!(stats.num("records"), 3, "{stats}");

    // Subscribing twice re-registers (reviving a lag-dropped stream)
    // rather than stacking duplicate subscriptions.
    assert!(other.roundtrip("SUBSCRIBE").starts_with("OK subscribed from="));
    assert!(other.roundtrip("SUBSCRIBE").starts_with("OK subscribed from="));
    let stats = other.stats();
    assert_eq!(stats.num("subscribers"), 1, "{stats}");

    other.send("SHUTDOWN");
    server.join().expect("clean shutdown");
}

#[test]
fn pipelined_commands_observe_prior_pushes() {
    let server = Server::start(config()).expect("server starts");
    let mut client = Client::connect(&server);
    // One write: two pushes then STATS. The STATS snapshot (and its
    // reply position) must come after both records were admitted.
    client.send("PUSH a/x 5\nPUSH b/y 6\nSTATS");
    assert_eq!(client.recv(), "OK");
    assert_eq!(client.recv(), "OK");
    let stats = client.recv();
    assert!(stats.starts_with("STATS "), "{stats}");
    assert!(stats.contains("records=2"), "pipelined STATS sees both records: {stats}");
    client.send("SHUTDOWN");
    server.join().expect("clean shutdown");
}

#[test]
fn late_records_get_late_replies_and_are_counted() {
    let mut config = config();
    config.grace = Duration::from_millis(100);
    let server = Server::start(config).expect("server starts");
    let mut client = Client::connect(&server);

    assert_eq!(client.roundtrip("PUSH cat/leaf 10"), "OK");
    // A unit-2 record starts the watermark grace timer for unit 0.
    assert_eq!(client.roundtrip(&format!("PUSH cat/leaf {}", 2 * TIMEUNIT + 5)), "OK");
    std::thread::sleep(Duration::from_millis(400));
    // Units 0 and 1 are closed now: a unit-0 straggler is late.
    assert_eq!(client.roundtrip("PUSH cat/leaf 20"), "LATE");
    let stats = client.stats();
    assert_eq!(stats.num("late"), 1, "{stats}");
    assert_eq!(stats.num("open_unit"), 2, "{stats}");

    client.send("SHUTDOWN");
    server.join().expect("clean shutdown");
}

#[test]
fn shutdown_checkpoint_resumes_mid_unit() {
    let dir = TempDir::new("live-resume");
    let ckpt = dir.join("resume.ckpt");

    let records = workload(10, 6, 8, &[0, 3], 80);
    // Sorted: live frames arrive in close order, not store order.
    let mut expected = offline_events(served(), &records);
    expected.sort();
    // Split mid-unit-6: phase one gets everything before unit 6 plus
    // half of unit 6's records, phase two the rest.
    let unit6_start = records.iter().position(|&(_, t)| t / TIMEUNIT == 6).unwrap();
    let unit7_start = records.iter().position(|&(_, t)| t / TIMEUNIT == 7).unwrap();
    let split = unit6_start + (unit7_start - unit6_start) / 2;

    let mut phase_one_events = {
        let mut config = config();
        config.checkpoint = Some(ckpt.clone());
        let server = Server::start(config).expect("server starts");
        let mut subscriber = Client::connect(&server);
        assert!(subscriber.roundtrip("SUBSCRIBE").starts_with("OK subscribed from="));
        let mut client = Client::connect(&server);
        assert_eq!(client.roundtrip("NOACK"), "OK");
        for (path, t) in &records[..split] {
            client.send(&format!("PUSH {path} {t}"));
        }
        assert_eq!(client.roundtrip("PING"), "PONG"); // fence: all pushes ingested
        client.send("SHUTDOWN");
        server.join().expect("clean shutdown");
        subscriber.collect_events(usize::MAX, Duration::from_millis(300))
    };

    let json = std::fs::read_to_string(&ckpt).expect("checkpoint written on shutdown");
    assert!(json.contains(&format!("\"version\":{CHECKPOINT_VERSION}")), "versioned envelope");
    assert!(json.contains("\"kind\":\"sharded\""));

    let mut phase_two_events = {
        let mut config = config();
        config.checkpoint = Some(ckpt.clone());
        let server = Server::start(config).expect("server resumes from checkpoint");
        let mut subscriber = Client::connect(&server);
        assert!(subscriber.roundtrip("SUBSCRIBE").starts_with("OK subscribed from="));
        let mut client = Client::connect(&server);
        assert_eq!(client.roundtrip("NOACK"), "OK");
        for (path, t) in &records[split..] {
            client.send(&format!("PUSH {path} {t}"));
        }
        assert_eq!(client.roundtrip("PING"), "PONG");
        // Let the watermark close through the burst unit so the events
        // stream live, before shutdown.
        let got = subscriber.collect_events(expected.len(), Duration::from_secs(30));
        client.send("SHUTDOWN");
        server.join().expect("clean shutdown");
        got
    };

    let mut all = Vec::new();
    all.append(&mut phase_one_events);
    all.append(&mut phase_two_events);
    all.sort();
    assert_eq!(all, expected, "events across restart equal one uninterrupted offline replay");
}
