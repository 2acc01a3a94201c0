//! End-to-end tests of the server's read path: `QUERY` and
//! `SUBSCRIBE FROM` answered from the retained report store must equal
//! the offline `ShardedTiresias` replay exactly; the retention budget
//! must evict; and a lag-dropped subscriber must be able to recover
//! precisely what it missed.

use std::time::Duration;

use tiresias_server::protocol::format_event;
use tiresias_server::{Server, ServerConfig};
use tiresias_testkit::{
    offline_engine, offline_events, served, wait_until, workload, Client, TIMEUNIT,
};

fn config() -> ServerConfig {
    let mut config = ServerConfig::new(served());
    config.grace = Duration::from_millis(400);
    config.tick = Duration::from_millis(20);
    config
}

#[test]
fn query_and_subscribe_from_catch_up_equal_offline_replay() {
    let server = Server::start(config()).expect("server starts");
    let records = workload(10, 6, 8, &[0, 3], 80);
    let expected = offline_events(served(), &records);
    assert!(expected.len() >= 2, "the workload produces anomalies: {expected:?}");

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
                assert_eq!(client.roundtrip("QUIT"), "BYE");
            });
        }
    });

    // The grace window expires, units close, events land in the store.
    wait_until(&server, |s| s.num("events") == expected.len() as u64);

    // QUERY returns the offline replay exactly — same units, paths and
    // counters, in the same `(unit, path)` order.
    let mut client = Client::connect(&server);
    let (frames, _) = client.query("QUERY 0 9999");
    assert_eq!(frames, expected, "QUERY equals the offline replay exactly");

    // Narrowing clauses agree with the offline stream too.
    let (cat0, _) = client.query("QUERY 0 9999 PREFIX cat0");
    let offline_cat0: Vec<String> =
        expected.iter().filter(|f| f.contains("path=cat0")).cloned().collect();
    assert_eq!(cat0, offline_cat0, "PREFIX narrows to the subtree");
    let (level2, _) = client.query("QUERY 0 9999 LEVEL 2");
    let offline_level2: Vec<String> =
        expected.iter().filter(|f| f.contains("level=2")).cloned().collect();
    assert_eq!(level2, offline_level2, "LEVEL filters exactly");
    let (limited, ok) = client.query("QUERY 0 9999 LIMIT 2");
    assert_eq!((limited.len(), ok.as_str()), (2, "OK n=2"), "LIMIT bounds the batch");
    assert_eq!(limited[..], expected[..2]);
    let (ranged, _) = client.query("QUERY 8 8");
    let offline_unit8: Vec<String> =
        expected.iter().filter(|f| f.contains("unit=8 ")).cloned().collect();
    assert_eq!(ranged, offline_unit8, "the unit range is inclusive");

    // A fresh subscriber catching up FROM 0 replays the whole retained
    // history in order — equal to the offline replay, gap-free.
    let mut late_subscriber = Client::connect(&server);
    assert_eq!(late_subscriber.roundtrip("SUBSCRIBE FROM 0"), "OK subscribed from=0");
    let replayed = late_subscriber.collect_events(expected.len(), Duration::from_secs(10));
    assert_eq!(replayed, expected, "SUBSCRIBE FROM catch-up equals the offline replay");

    client.send("SHUTDOWN");
    server.join().expect("clean shutdown");
}

#[test]
fn retention_budget_evicts_oldest_units() {
    let mut config = config();
    config.retain_units = Some(2);
    let server = Server::start(config).expect("server starts");

    // Bursts in two separate units: cat0 at unit 6, cat1 at unit 9.
    let mut records = workload(8, 4, 6, &[0], 80);
    records.extend(workload(12, 4, 9, &[1], 80).into_iter().filter(|&(_, t)| t / TIMEUNIT >= 8));
    let offline = offline_events(served(), &records);
    let unit6: Vec<&String> = offline.iter().filter(|f| f.contains("unit=6 ")).collect();
    let unit9: Vec<String> = offline.iter().filter(|f| f.contains("unit=9 ")).cloned().collect();
    assert!(!unit6.is_empty() && !unit9.is_empty(), "bursts in both units: {offline:?}");

    let mut feeder = Client::connect(&server);
    assert_eq!(feeder.roundtrip("NOACK"), "OK");
    let mut payload = String::new();
    for (path, t) in &records {
        payload.push_str(&format!("PUSH {path} {t}\n"));
    }
    // A unit-11 record drives the data watermark so units 0..=10 close
    // deterministically once the grace window expires.
    payload.push_str(&format!("PUSH cat0/leaf {}\n", 11 * TIMEUNIT));
    feeder.send_bytes(payload.as_bytes());
    assert_eq!(feeder.roundtrip("PING"), "PONG");

    let stats = wait_until(&server, |s| s.field("last_closed") == "10");
    // retain=2 over last_closed=10 keeps units 9..=10 only.
    assert_eq!(stats.field("retain"), "2");
    assert!(stats.num("events_evicted") >= unit6.len() as u64, "unit-6 events evicted: {stats}");

    let mut client = Client::connect(&server);
    let (frames, _) = client.query("QUERY 0 9999");
    assert_eq!(frames, unit9, "only retained units answer; evicted history is gone");

    // A catch-up from evicted history resumes at the retained horizon
    // and replays exactly what is left.
    assert_eq!(client.roundtrip("SUBSCRIBE FROM 0"), "OK subscribed from=9");
    let replayed = client.collect_events(unit9.len(), Duration::from_secs(10));
    assert_eq!(replayed, unit9);

    client.send("SHUTDOWN");
    server.join().expect("clean shutdown");
}

#[test]
fn stalled_subscriber_is_dropped_counted_and_recovers_missed_events() {
    let mut config = config();
    // A two-line outbound queue: the burst unit's broadcast (a dozen-
    // plus frames enqueued back to back) overflows it deterministically.
    config.subscriber_queue = 2;
    let server = Server::start(config).expect("server starts");

    // Every category bursts at unit 8: one broadcast of 16 frames,
    // enqueued back to back far faster than the stalled session's
    // writer drains them.
    let records = workload(10, 16, 8, &(0..16).collect::<Vec<u64>>(), 80);
    let expected = offline_events(served(), &records);
    assert!(expected.len() >= 12, "a broad burst: {expected:?}");

    let mut subscriber = Client::connect(&server);
    assert!(subscriber.roundtrip("SUBSCRIBE").starts_with("OK subscribed from="));
    // The subscriber now stalls: it reads nothing while the burst unit
    // closes and its frames flood the two-line queue.

    let mut feeder = Client::connect(&server);
    assert_eq!(feeder.roundtrip("NOACK"), "OK");
    let mut payload = String::new();
    for (path, t) in &records {
        payload.push_str(&format!("PUSH {path} {t}\n"));
    }
    feeder.send_bytes(payload.as_bytes());
    assert_eq!(feeder.roundtrip("PING"), "PONG");

    // The hub drops the laggard and counts it.
    let stats = wait_until(&server, |s| {
        s.num("dropped_slow") == 1 && s.num("events") == expected.len() as u64
    });
    assert_eq!(stats.num("subscribers"), 0, "the laggard left the hub: {stats}");

    // The stalled subscriber wakes up, drains what it did receive and
    // learns from its own STATS how many frames its subscription lost.
    let received = subscriber.collect_events(usize::MAX, Duration::from_millis(500));
    assert!(received.len() < expected.len(), "the stall lost events");
    let dropped = subscriber.stats().num("dropped_events");
    assert!(dropped >= 1, "the session knows it lost events");

    // Recovery: SUBSCRIBE FROM its last seen unit replays the exact
    // missed events (last seen unit included, so nothing can fall in a
    // gap) and splices onto the live stream.
    let last_seen = received
        .iter()
        .filter_map(|f| {
            f.split_whitespace().find_map(|p| p.strip_prefix("unit=")).map(|u| u.parse().unwrap())
        })
        .max()
        .unwrap_or(0u64);
    let reply = subscriber.roundtrip(&format!("SUBSCRIBE FROM {last_seen}"));
    assert_eq!(reply, format!("OK subscribed from={last_seen}"));
    let expected_replay: Vec<String> = offline_engine(served(), &records)
        .anomalies()
        .iter()
        .filter(|e| e.unit >= last_seen)
        .map(format_event)
        .collect();
    let replayed = subscriber.collect_events(expected_replay.len(), Duration::from_secs(10));
    assert_eq!(replayed, expected_replay, "the catch-up replays the exact missed events");
    // Union check: everything the offline replay produced was seen.
    let mut seen: Vec<&String> = received.iter().chain(&replayed).collect();
    seen.sort();
    seen.dedup();
    let mut all: Vec<&String> = expected.iter().collect();
    all.sort();
    assert_eq!(seen, all, "received ∪ replayed covers the whole stream");

    // The revived subscription is live again: a fresh burst in unit 10
    // reaches it without another SUBSCRIBE.
    let mut tail = String::new();
    for i in 0..80 {
        tail.push_str(&format!("PUSH cat0/leaf {}\n", 10 * TIMEUNIT + (i % TIMEUNIT)));
    }
    for k in 1..16 {
        for i in 0..8 {
            tail.push_str(&format!("PUSH cat{k}/leaf {}\n", 10 * TIMEUNIT + i));
        }
    }
    tail.push_str(&format!("PUSH cat1/leaf {}\n", 11 * TIMEUNIT));
    feeder.send_bytes(tail.as_bytes());
    assert_eq!(feeder.roundtrip("PING"), "PONG");
    let live = subscriber.collect_events(1, Duration::from_secs(15));
    assert!(
        live.iter().all(|f| f.contains("unit=10 ")),
        "the spliced stream continues with unit-10 events only (no duplicates): {live:?}"
    );
    assert!(!live.is_empty(), "the revived subscription receives live events");

    feeder.send("SHUTDOWN");
    server.join().expect("clean shutdown");
}
