//! Stress test of the lock-free concurrent admission path: eight
//! client threads push interleaved in-order, late and ahead records
//! across forced unit closes while a ninth hammers `STATS`
//! continuously. The `PUSH` path acquires no global engine lock, so
//! admission must keep flowing regardless of the `STATS` traffic; the
//! merged event stream must equal an offline replay of exactly the
//! accepted records; and the late/ahead counters must be exact.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use tiresias_server::{Server, ServerConfig};
use tiresias_testkit::{offline_events, served, wait_until, workload, Client, TIMEUNIT};

const CLIENTS: usize = 8;
const CATEGORIES: u64 = 8;
const UNITS: u64 = 10;
const BURST_UNIT: u64 = 8;
/// Deliberately small ahead bound (instead of the default 1000) so the
/// test exercises the configurable `max_ahead_units` plumbing.
const MAX_AHEAD: u64 = 50;
const LATE_PER_CLIENT: usize = 5;
const AHEAD_PER_CLIENT: usize = 3;

#[test]
fn eight_clients_admit_concurrently_with_exact_accounting() {
    let mut config = ServerConfig::new(served());
    // The grace window must outlast the whole in-order push phase (so
    // no straggler is closed out from under a slow client thread) but
    // stay short enough that the forced closes actually happen.
    config.grace = Duration::from_millis(3_000);
    config.tick = Duration::from_millis(20);
    config.max_ahead_units = MAX_AHEAD;
    let server = Server::start(config).expect("server starts");

    // Unit-ordered records: steady traffic over eight top-level
    // categories with bursts at `BURST_UNIT` on two of them.
    let records = workload(UNITS, CATEGORIES, BURST_UNIT, &[0, 3], 80);
    let expected_events = {
        // The fence record below is admitted too, so the replay
        // includes it. Sorted: live frames arrive in close order.
        let mut all = records.clone();
        all.push(("fence/advance".to_string(), UNITS * TIMEUNIT + 1));
        let mut frames = offline_events(served(), &all);
        frames.sort();
        frames
    };
    assert!(!expected_events.is_empty(), "the workload produces anomalies");

    let mut subscriber = Client::connect(&server);
    assert!(subscriber.roundtrip("SUBSCRIBE").starts_with("OK subscribed from="));

    // A competing STATS hammer: runs for the whole push phase, proving
    // the serialized back-end lock never gates admission.
    let stop_stats = AtomicBool::new(false);
    let stats_snapshots = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let stats_thread = {
            let server = &server;
            let stop = &stop_stats;
            let snapshots = &stats_snapshots;
            scope.spawn(move || {
                let mut client = Client::connect(server);
                while !stop.load(Ordering::SeqCst) {
                    client.stats();
                    snapshots.fetch_add(1, Ordering::SeqCst);
                }
            })
        };

        // Phase 1: eight clients push the whole in-order workload,
        // dealt round-robin so their streams interleave mid-unit, with
        // per-record `OK` acknowledgements. Forced unit closes fire on
        // the scheduler (grace expiry) while later units are still
        // being pushed.
        std::thread::scope(|push_scope| {
            for c in 0..CLIENTS {
                let records = &records;
                let server = &server;
                push_scope.spawn(move || {
                    let mut client = Client::connect(server);
                    let mine: Vec<&(String, u64)> =
                        records.iter().skip(c).step_by(CLIENTS).collect();
                    let mut payload = String::new();
                    for (path, t) in &mine {
                        payload.push_str(&format!("PUSH {path} {t}\n"));
                    }
                    client.send_bytes(payload.as_bytes());
                    for i in 0..mine.len() {
                        assert_eq!(client.recv(), "OK", "record {i} of client {c} admitted");
                    }
                    assert_eq!(client.roundtrip("QUIT"), "BYE");
                });
            }
        });

        // Phase 2: force the remaining closes — a fence record one
        // unit past the workload starts the grace timer; when it
        // expires, the watermark closes through the burst unit and the
        // events stream out.
        let mut control = Client::connect(&server);
        assert_eq!(
            control.roundtrip(&format!("PUSH fence/advance {}", UNITS * TIMEUNIT + 1)),
            "OK"
        );
        // Closes are grace-driven: this outwaits the grace window.
        wait_until(&server, |s| s.field("open_unit") == UNITS.to_string());

        // Phase 3: exact late/ahead accounting. Every client pushes
        // LATE_PER_CLIENT records of the long-closed unit 0 and
        // AHEAD_PER_CLIENT records beyond the max-ahead bound, checking
        // each individual reply.
        std::thread::scope(|late_scope| {
            for c in 0..CLIENTS {
                let server = &server;
                late_scope.spawn(move || {
                    let mut client = Client::connect(server);
                    for i in 0..LATE_PER_CLIENT {
                        let reply = client.roundtrip(&format!("PUSH cat{}/leaf {}", c % 8, i));
                        assert_eq!(reply, "LATE", "client {c} late record {i}");
                    }
                    let too_far = (UNITS + MAX_AHEAD + 1 + c as u64) * TIMEUNIT;
                    for i in 0..AHEAD_PER_CLIENT {
                        let reply = client.roundtrip(&format!("PUSH cat{}/leaf {too_far}", c % 8));
                        assert!(
                            reply.starts_with("ERR ") && reply.contains("ahead"),
                            "client {c} ahead record {i}: {reply}"
                        );
                    }
                    assert_eq!(client.roundtrip("QUIT"), "BYE");
                });
            }
        });

        stop_stats.store(true, Ordering::SeqCst);
        stats_thread.join().expect("stats hammer finishes");
    });
    assert!(
        stats_snapshots.load(Ordering::SeqCst) > 0,
        "STATS kept answering concurrently with the pushes"
    );

    // Exact accounting: every workload record plus the fence was
    // admitted; every phase-3 record was dropped and counted.
    let mut control = Client::connect(&server);
    let stats = control.stats();
    let accepted = records.len() + 1;
    assert_eq!(stats.num("records"), accepted as u64, "{stats}");
    assert_eq!(stats.num("late"), (CLIENTS * LATE_PER_CLIENT) as u64, "{stats}");
    assert_eq!(stats.num("ahead"), (CLIENTS * AHEAD_PER_CLIENT) as u64, "{stats}");
    // The new per-shard gauges are present, one slot per shard.
    for field in ["shard_open", "rings"] {
        let slots = stats.field(field).split('|').count();
        assert_eq!(slots, 2, "{field}= has one slot per shard: {stats}");
    }

    // The live event stream equals the offline replay of exactly the
    // accepted records — late/ahead drops included in neither.
    let mut got = subscriber.collect_events(expected_events.len(), Duration::from_secs(30));
    got.sort();
    assert_eq!(got, expected_events, "live anomaly stream equals the offline replay");

    assert_eq!(control.roundtrip("SHUTDOWN"), "OK shutting down");
    server.join().expect("clean shutdown");
}
