//! Failover equivalence for the routing tier against the real binary:
//! two `tiresias serve --data-dir` nodes behind a `tiresias route`
//! daemon, `kill -9` one node mid-acked-stream, and the system must
//! keep the routed contract honest end to end — acked records survive
//! (each node's WAL), queries during the outage answer with an explicit
//! `degraded=` tag, records routed at the dead node park in the outage
//! buffer with their acks withheld, and after the node restarts the
//! parked records replay in admission order so a routed `QUERY` equals
//! an offline single-engine replay of exactly the acked records.
//!
//! Also here: property tests pinning the consistent-hash routing
//! contract (total, deterministic across router restarts, never
//! interleaving one label across nodes), and the serve-side idle-session
//! reaper satellite.

use std::io::BufRead;
use std::net::TcpListener;
use std::path::Path;

use proptest::prelude::*;

use tiresias::core::ShardRouter;
use tiresias_testkit::{
    offline_events, served, wait_until, with_sentinels, Client, Daemon, Stats, TempDir,
    SERVED_FLAGS, TIMEUNIT,
};

const BIN: &str = env!("CARGO_BIN_EXE_tiresias");

/// Reserves an address for a node that must come back on the same port
/// after a kill (the router's routing table is fixed at startup).
fn reserve_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    drop(listener);
    addr
}

/// Spawns `tiresias serve` on `addr` with the served detector flags, a
/// WAL under `data_dir` and `extra` flags.
fn serve(data_dir: &Path, addr: &str, extra: &[&str]) -> Daemon {
    let dir = data_dir.to_str().expect("utf-8 temp path");
    let mut args = vec!["serve"];
    args.extend_from_slice(SERVED_FLAGS);
    args.extend_from_slice(&["--addr", addr, "--grace-ms", "400", "--tick-ms", "20"]);
    args.extend_from_slice(&["--data-dir", dir]);
    args.extend_from_slice(extra);
    Daemon::spawn(BIN, args)
}

/// Spawns `tiresias route` over `nodes` (order = routing table) with
/// fast probe/backoff so outages are detected in test time.
fn route(nodes: &[&str]) -> Daemon {
    let mut args = vec!["route", "--addr", "127.0.0.1:0"];
    for node in nodes {
        args.extend_from_slice(&["--node", node]);
    }
    args.extend_from_slice(&["--probe-ms", "100", "--node-timeout-ms", "1000"]);
    args.extend_from_slice(&["--backoff-max-ms", "300"]);
    Daemon::spawn(BIN, args)
}

/// Whether the router's `node_state` reports `node` in `state`.
fn node_is(stats: &Stats, node: &str, state: &str) -> bool {
    stats.field("node_state").split('|').any(|entry| entry == format!("{node}:{state}"))
}

/// Picks two labels per node from the real routing hash, so the
/// workload provably exercises both downstreams and the kill provably
/// strands exactly the victim's labels.
fn labels_per_node() -> [Vec<String>; 2] {
    let shards = ShardRouter::new(2);
    let mut per_node: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    for k in 0.. {
        let label = format!("cat{k}/leaf");
        let node = shards.route(&label);
        if per_node[node].len() < 2 {
            per_node[node].push(label);
        }
        if per_node[0].len() == 2 && per_node[1].len() == 2 {
            return per_node;
        }
    }
    unreachable!("the routing hash is not degenerate over all labels");
}

/// Steady traffic with a burst: `units` timeunits over 4 labels (2 per
/// node), the first label of each node bursting at unit 6.
fn workload(labels: &[&str; 4], units: std::ops::Range<u64>) -> Vec<(String, u64)> {
    let mut records = Vec::new();
    for u in units {
        for (k, label) in labels.iter().enumerate() {
            let count = if u == 6 && k < 2 { 40 } else { 8 };
            for i in 0..count {
                records.push((label.to_string(), u * TIMEUNIT + (i % TIMEUNIT)));
            }
        }
    }
    records
}

/// The headline contract: kill -9 a downstream mid-acked-stream, serve
/// degraded answers during the outage, park new records for the dead
/// node with acks withheld, replay them on restart, and end up with a
/// routed QUERY equal to the offline replay of exactly the acked
/// records.
#[test]
fn kill9_failover_replays_parked_records_and_preserves_acked_history() {
    let [labels_a, labels_b] = labels_per_node();
    const WAL_EVERY: &[&str] = &["--wal-sync", "every"];
    let labels: [&str; 4] = [&labels_a[0], &labels_b[0], &labels_a[1], &labels_b[1]];
    let dir_a = TempDir::new("route-node-a");
    let dir_b = TempDir::new("route-node-b");
    let addr_b = reserve_addr();

    let node_a = serve(&dir_a, "127.0.0.1:0", WAL_EVERY);
    let mut node_b = serve(&dir_b, &addr_b, WAL_EVERY);
    let router = route(&[&node_a.addr, &node_b.addr]);
    wait_until(&router, |s| node_is(s, &node_a.addr, "up") && node_is(s, &addr_b, "up"));

    // Phase 1: both nodes up; every record acks through the router.
    let mut client = Client::connect(&router);
    let phase1 = workload(&labels, 0..8);
    let acked = client.push_acked(&phase1);
    assert_eq!(acked.len(), phase1.len(), "all phase-1 records acked");

    // Kill node B mid-stream. Its acked records are on its WAL.
    node_b.kill9();
    wait_until(&router, |s| node_is(s, &addr_b, "down"));

    // Queries during the outage answer from the surviving node and say
    // so explicitly.
    let (_, ok) = client.query("QUERY 0 9999");
    assert!(ok.contains(&format!("degraded={addr_b}")), "outage answers are tagged: {ok}");

    // Phase 2: keep pushing. The survivor's records ack immediately on
    // their own connection; the victim's park with acks withheld, so
    // the parked client sees no replies yet.
    let phase2 = workload(&labels, 8..10);
    let to_a: Vec<(String, u64)> =
        phase2.iter().filter(|(p, _)| labels_a.contains(p)).cloned().collect();
    let to_b: Vec<(String, u64)> =
        phase2.iter().filter(|(p, _)| labels_b.contains(p)).cloned().collect();
    let mut parked_client = Client::connect(&router);
    for (path, t) in &to_b {
        parked_client.send(&format!("PUSH {path} {t}"));
    }
    let survivor_acked = client.push_acked(&to_a);
    assert_eq!(survivor_acked.len(), to_a.len(), "the survivor kept acking during the outage");
    let stats = wait_until(&router, |s| s.num("buffered") > 0);
    assert_eq!(stats.num("buffered"), to_b.len() as u64, "all victim records parked");

    // Restart the victim from its data dir on the same address. The
    // supervisor replays the parked records in admission order and only
    // then releases the withheld acks.
    node_b = serve(&dir_b, &addr_b, WAL_EVERY);
    let stats = wait_until(&router, |s| node_is(s, &addr_b, "up") && s.num("buffered") == 0);
    assert!(stats.num("replayed") > 0, "replay was counted: {stats}");
    for (path, t) in &to_b {
        assert_eq!(parked_client.recv(), "OK", "withheld ack released for {path} {t}");
    }
    let recovered = tiresias_testkit::stats(&node_b);
    assert!(
        recovered.num("recovered_batches") > 0,
        "the restarted node replayed its WAL: {recovered}"
    );

    // Every record in both phases is now acked, so the ground truth is
    // the full stream in its original (unit-nondecreasing) order —
    // exactly what each node admitted, unioned. Drive both nodes' open
    // units closed with one sentinel each, then the routed QUERY must
    // equal the offline single-engine replay of the acked records.
    let mut acked = phase1;
    acked.extend(phase2.iter().cloned());
    let (replayed, sentinel) = with_sentinels(&acked, &labels[..2]);
    let expected = offline_events(served(), &replayed);
    for label in &labels[..2] {
        client.send(&format!("PUSH {label} {sentinel}"));
        let reply = client.recv();
        assert!(reply == "OK" || reply == "LATE", "sentinel admits: {reply}");
    }
    let closed = (sentinel / TIMEUNIT - 1).to_string();
    wait_until(&node_a, |s| s.field("last_closed") == closed);
    wait_until(&node_b, |s| s.field("last_closed") == closed);
    let (frames, ok) = client.query("QUERY 0 9999");
    assert!(!ok.contains("degraded"), "full answer after recovery: {ok}");
    assert_eq!(frames, expected, "routed QUERY equals the acked-records replay");
    assert!(!frames.is_empty(), "the bursts produced anomalies");

    client.send("QUIT");
    router.shutdown();
    node_b.shutdown();
    node_a.shutdown();
}

/// Satellite: idle sessions are reaped after `--idle-timeout-ms`, while
/// subscribers (legitimately silent) are exempt.
#[test]
fn idle_sessions_are_reaped_but_subscribers_are_exempt() {
    let dir = TempDir::new("route-idle");
    let node = serve(&dir, "127.0.0.1:0", &["--idle-timeout-ms", "300"]);

    let mut subscriber = Client::connect(&node);
    subscriber.send("SUBSCRIBE");
    assert!(subscriber.recv().starts_with("OK subscribed"), "subscription opens");
    let mut idle = Client::connect(&node);

    let stats = wait_until(&node, |s| s.num("reaped_sessions") >= 1);
    assert_eq!(stats.num("reaped_sessions"), 1, "only the idle session: {stats}");
    assert_eq!(stats.num("subscribers"), 1, "the subscriber survived: {stats}");

    // The reaped connection is actually closed: reads see EOF.
    let mut line = String::new();
    let n = idle.reader.read_line(&mut line).expect("read returns");
    assert_eq!(n, 0, "reaped session's socket is closed, got: {line}");

    node.shutdown();
}

/// Slash-joined category paths over a small alphabet, so distinct
/// top-level labels collide onto the same node often enough to
/// exercise grouping.
fn category_path() -> impl Strategy<Value = String> {
    prop::collection::vec((0u32..5, 0u32..26, 0usize..7), 1..4).prop_map(|segments| {
        segments
            .into_iter()
            .map(|(head, start, len)| {
                let mut segment = String::new();
                segment.push((b'a' + head as u8) as char);
                for i in 0..len {
                    segment.push((b'a' + ((start as usize + i) % 26) as u8) as char);
                }
                segment
            })
            .collect::<Vec<_>>()
            .join("/")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The routing function is total and deterministic across router
    /// restarts: any path routes to a valid node, and a freshly built
    /// router (a restart — the table is rebuilt from the same `--node`
    /// list) agrees with the original on every path.
    #[test]
    fn routing_is_total_and_stable_across_restarts(
        paths in prop::collection::vec(category_path(), 1..64),
        nodes in 1usize..8,
    ) {
        let before = ShardRouter::new(nodes);
        let after = ShardRouter::new(nodes); // the restarted router's table
        for path in &paths {
            let node = before.route(path);
            prop_assert!(node < nodes, "{path} routed out of range: {node}");
            prop_assert_eq!(node, after.route(path), "restart moved {}", path);
        }
    }

    /// One label never interleaves across nodes: every record of a
    /// top-level label lands on the same node regardless of the rest of
    /// the path or where in the stream it appears, so each node sees a
    /// gap-free substream and per-node admission order is global
    /// admission order restricted to that node.
    #[test]
    fn a_label_never_interleaves_across_nodes(
        records in prop::collection::vec((category_path(), 0u64..10_000), 1..256),
        nodes in 1usize..8,
    ) {
        let router = ShardRouter::new(nodes);
        let mut owner: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        for (path, _) in &records {
            let label = path.split('/').next().expect("split yields a first segment");
            let node = router.route(path);
            let claimed = *owner.entry(label).or_insert(node);
            prop_assert_eq!(claimed, node, "label {} split across nodes", label);
        }
    }
}
