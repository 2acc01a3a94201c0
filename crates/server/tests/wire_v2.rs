//! Binary wire-protocol v2 tests: codec round-trip and corruption
//! properties, session negotiation and ack semantics over real
//! sockets, hostile-frame handling (every corrupt frame answers `ERR`
//! and closes the session without wedging the daemon), and
//! text-versus-v2 admission equivalence including the heavy-hitter
//! gauge, and v2 forwarding through the router (routed output equals
//! the offline replay; a frame a down node misses answers `degraded=`).

use std::io::Read;
use std::net::TcpListener;
use std::time::Duration;

use proptest::prelude::*;
use tiresias_core::{ShardRouter, TiresiasBuilder};
use tiresias_server::protocol::v2;
use tiresias_server::{Router, RouterConfig, Server, ServerConfig};
use tiresias_testkit::{
    offline_events, served, wait_until, with_sentinels, workload, Client, Stats, TIMEUNIT,
};

fn config() -> ServerConfig {
    config_for(served())
}

fn config_for(builder: TiresiasBuilder) -> ServerConfig {
    let mut config = ServerConfig::new(builder);
    config.grace = Duration::from_millis(600);
    config.tick = Duration::from_millis(20);
    config
}

/// A hand-assembled DATA frame (kind byte 0) with self-consistent
/// CRCs — for payloads [`v2::FrameEncoder`] would refuse to produce.
fn raw_data_frame(seq: u32, payload: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(v2::HEADER_BYTES + payload.len());
    f.extend_from_slice(&v2::MAGIC);
    f.push(v2::VERSION);
    f.push(0);
    f.extend_from_slice(&seq.to_le_bytes());
    f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    f.extend_from_slice(&v2::crc32(payload).to_le_bytes());
    let hcrc = v2::crc32(&f[0..16]);
    f.extend_from_slice(&hcrc.to_le_bytes());
    f.extend_from_slice(payload);
    f
}

/// Runs one frame's bytes through the same decode stages the server
/// uses: header, payload CRC, dictionary, records.
fn decode_frame(frame: &[u8], dict: &mut Vec<String>) -> Result<Vec<(String, u64)>, String> {
    if frame.len() < v2::HEADER_BYTES {
        return Err("short header".to_string());
    }
    let header: [u8; v2::HEADER_BYTES] =
        frame[..v2::HEADER_BYTES].try_into().expect("header slice");
    let header = v2::decode_header(&header)?;
    let payload = &frame[v2::HEADER_BYTES..];
    if payload.len() != header.payload_len as usize {
        return Err("payload length mismatch".to_string());
    }
    if v2::crc32(payload) != header.payload_crc {
        return Err("payload CRC mismatch".to_string());
    }
    let (_, offset) = v2::decode_dict(payload, dict)?;
    let mut out = Vec::new();
    for rec in v2::records(payload, offset, dict.len())? {
        let (id, t_secs) = rec?;
        out.push((dict[id as usize].clone(), t_secs));
    }
    Ok(out)
}

const LABELS: &[&str] = &[
    "tv/no-service",
    "internet/slow",
    "region-3/pop-1/service 42",
    "a",
    "phone/drop/long-tail-label-with-some-length-to-it",
    "日本/漢字/ラベル",
    "x/y/z",
    "tv/audio",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Encoding any record stream into frames of arbitrary size and
    /// decoding them back through one shared dictionary reproduces the
    /// records exactly — labels, order and timestamps (including
    /// extreme timestamps exercising the wrapping delta coding).
    #[test]
    fn round_trip_identity(
        recs in prop::collection::vec(
            (0usize..LABELS.len(), 0u64..=u64::MAX), 0..300),
        chunk in 1usize..64,
    ) {
        let recs: Vec<(String, u64)> =
            recs.into_iter().map(|(i, t)| (LABELS[i].to_string(), t)).collect();
        let mut enc = v2::FrameEncoder::new();
        let mut frames: Vec<Vec<u8>> = Vec::new();
        for (seq, batch) in recs.chunks(chunk).enumerate() {
            let mut out = Vec::new();
            enc.encode_data(seq as u32, batch, &mut out);
            frames.push(out);
        }
        let mut dict = Vec::new();
        let mut decoded = Vec::new();
        for frame in &frames {
            decoded.extend(decode_frame(frame, &mut dict).expect("valid frame decodes"));
        }
        prop_assert_eq!(decoded, recs);
        prop_assert!(dict.len() <= LABELS.len(), "labels are interned once");
    }

    /// Any single bit flip anywhere in a frame is caught by one of the
    /// two CRCs (or an earlier header check) — it never decodes
    /// cleanly and never panics.
    #[test]
    fn single_bit_flips_never_decode(
        recs in prop::collection::vec((0usize..LABELS.len(), 0u64..100_000), 1..40),
        flip_bit in 0usize..8,
        flip_pos in 0u64..=u64::MAX,
    ) {
        let recs: Vec<(String, u64)> =
            recs.into_iter().map(|(i, t)| (LABELS[i].to_string(), t)).collect();
        let mut enc = v2::FrameEncoder::new();
        let mut frame = Vec::new();
        enc.encode_data(7, &recs, &mut frame);
        let pos = (flip_pos % frame.len() as u64) as usize;
        frame[pos] ^= 1 << flip_bit;
        let mut dict = Vec::new();
        prop_assert!(decode_frame(&frame, &mut dict).is_err(), "flip at byte {} bit {}", pos, flip_bit);
    }

    /// A truncated payload re-wrapped in a self-consistent header (a
    /// hostile peer, not line noise — both CRCs check out) still fails
    /// structurally: declared dictionary/record counts can never match
    /// a strict prefix. Decode errors, never panics, never over-reads.
    #[test]
    fn truncated_payloads_always_error(
        recs in prop::collection::vec((0usize..LABELS.len(), 0u64..100_000), 1..40),
        cut in 0u64..=u64::MAX,
    ) {
        let recs: Vec<(String, u64)> =
            recs.into_iter().map(|(i, t)| (LABELS[i].to_string(), t)).collect();
        let mut enc = v2::FrameEncoder::new();
        let mut frame = Vec::new();
        enc.encode_data(0, &recs, &mut frame);
        let payload = &frame[v2::HEADER_BYTES..];
        let cut = (cut % payload.len() as u64) as usize;
        let rewrapped = raw_data_frame(0, &payload[..cut]);
        let mut dict = Vec::new();
        prop_assert!(decode_frame(&rewrapped, &mut dict).is_err(), "cut at {}", cut);
    }
}

/// Negotiates the session into binary mode.
fn upgrade(client: &mut Client) {
    assert_eq!(client.roundtrip("HELLO v2"), "OK v2");
    assert_eq!(client.roundtrip("UPGRADE"), "OK upgraded");
}

/// True once the server closed this session (EOF on the reader).
fn closed(client: &mut Client) -> bool {
    let mut buf = [0u8; 1];
    matches!(client.reader.read(&mut buf), Ok(0))
}

#[test]
fn negotiation_acks_and_end_round_trip() {
    let server = Server::start(config()).expect("server starts");
    let mut client = Client::connect(&server);

    // The probe is stateless: the session still speaks text after it.
    assert_eq!(client.roundtrip("HELLO v2"), "OK v2");
    assert_eq!(client.roundtrip("PING"), "PONG");
    assert!(client.roundtrip("HELLO v3").starts_with("ERR "), "unknown capability refused");

    upgrade(&mut client);
    let mut enc = v2::FrameEncoder::new();
    let mut frame = Vec::new();
    enc.encode_data(0, &[("tv/no-service", 5u64), ("internet/slow", 9)], &mut frame);
    client.send_bytes(&frame);
    assert_eq!(client.recv(), "OK frame=0 n=2 late=0 ahead=0");

    // PING frames answer PONG with the echoed seq.
    client.send_bytes(&v2::control_frame(v2::FrameKind::Ping, 41));
    assert_eq!(client.recv(), "PONG frame=41");

    // While the session is in binary mode the proto gauges say so.
    let mut control = Client::connect(&server);
    let stats = control.stats();
    assert_eq!(stats.num("proto_v2"), 1, "{stats}");
    assert_eq!(stats.num("v2_frames"), 2, "{stats}");
    assert_eq!(stats.num("v2_dict_entries"), 2, "{stats}");

    // An absurdly-ahead timestamp is dropped and reported in the
    // frame ack — it never poisons the session, and the dictionaries
    // still agree afterwards.
    frame.clear();
    enc.encode_data(1, &[("tv/no-service", u64::MAX)], &mut frame);
    client.send_bytes(&frame);
    assert_eq!(client.recv(), "OK frame=1 n=0 late=0 ahead=1");

    // END drops back to text; the dictionary survives for the next
    // UPGRADE on this connection, so a dictionary-less frame still
    // resolves ids interned before the END.
    client.send_bytes(&v2::control_frame(v2::FrameKind::End, 2));
    assert_eq!(client.recv(), "OK text");
    assert_eq!(client.roundtrip("PING"), "PONG");
    assert_eq!(client.roundtrip("UPGRADE"), "OK upgraded");
    frame.clear();
    enc.encode_data(3, &[("tv/no-service", 11u64), ("internet/slow", 14)], &mut frame);
    assert_eq!(enc.dict_len(), 2, "the encoder resent no labels");
    client.send_bytes(&frame);
    assert_eq!(client.recv(), "OK frame=3 n=2 late=0 ahead=0");

    let stats = control.stats();
    assert_eq!(stats.num("records"), 4, "{stats}");
    assert_eq!(control.roundtrip("SHUTDOWN"), "OK shutting down");
    server.join().expect("clean shutdown");
}

#[test]
fn corrupt_frames_answer_err_close_the_session_and_spare_the_daemon() {
    let server = Server::start(config()).expect("server starts");

    // Each hostile frame gets its own session; after the ERR the
    // session must be closed (the byte stream can't be trusted), and
    // the daemon must keep serving everyone else.
    let mut valid = Vec::new();
    v2::FrameEncoder::new().encode_data(0, &[("tv/no-service", 5u64)], &mut valid);

    // Garbage magic.
    let mut garbage = valid.clone();
    garbage[0] = b'X';
    // A payload bit flip behind an intact header.
    let mut flipped = valid.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x40;
    // An oversized payload claim with self-consistent CRCs.
    let mut oversized = raw_data_frame(9, &[]);
    oversized[8..12].copy_from_slice(&(v2::MAX_PAYLOAD_BYTES + 1).to_le_bytes());
    let hcrc = v2::crc32(&oversized[0..16]);
    oversized[16..20].copy_from_slice(&hcrc.to_le_bytes());
    // A record referencing a dictionary id that was never interned.
    let mut bad_id = Vec::new();
    v2::put_uvarint(&mut bad_id, 0); // no new dictionary entries
    v2::put_uvarint(&mut bad_id, 1); // one record …
    v2::put_uvarint(&mut bad_id, 7); // … naming id 7 of an empty dict
    v2::put_uvarint(&mut bad_id, 0);
    let bad_id = raw_data_frame(3, &bad_id);
    // A control frame smuggling a payload.
    let ping_payload = {
        let mut f = raw_data_frame(4, &[0x00]);
        f[3] = 2; // PING
        let hcrc = v2::crc32(&f[0..16]);
        f[16..20].copy_from_slice(&hcrc.to_le_bytes());
        f
    };

    for (what, frame) in [
        ("garbage magic", &garbage),
        ("payload bit flip", &flipped),
        ("oversized payload claim", &oversized),
        ("unknown dictionary id", &bad_id),
        ("ping with payload", &ping_payload),
    ] {
        let mut client = Client::connect(&server);
        upgrade(&mut client);
        client.send_bytes(frame);
        let reply = client.recv();
        assert!(reply.starts_with("ERR "), "{what}: {reply}");
        assert!(closed(&mut client), "{what}: session must close after a corrupt frame");
    }

    // The daemon survived all of it.
    let mut survivor = Client::connect(&server);
    assert_eq!(survivor.roundtrip("PUSH tv/no-service 3"), "OK");
    let stats = survivor.stats();
    assert_eq!(stats.num("records"), 1, "only the survivor's record admitted: {stats}");
    assert_eq!(survivor.roundtrip("SHUTDOWN"), "OK shutting down");
    server.join().expect("clean shutdown");
}

/// The same workload admitted over text on one daemon and over v2
/// frames on another — with a text and a v2 session *coexisting* on
/// the latter — must produce byte-identical anomaly streams and
/// heavy-hitter gauges.
#[test]
fn text_and_v2_admission_are_equivalent_and_coexist() {
    let records = workload(10, 6, 8, &[0, 3], 80);
    // Sorted: live frames arrive in close order, not store order.
    let mut expected = offline_events(served(), &records);
    expected.sort();
    assert!(!expected.is_empty(), "the workload produces anomalies");

    // Daemon A: everything over text.
    let server_a = Server::start(config()).expect("server starts");
    let mut sub_a = Client::connect(&server_a);
    assert!(sub_a.roundtrip("SUBSCRIBE").starts_with("OK subscribed from="));
    {
        let mut client = Client::connect(&server_a);
        assert_eq!(client.roundtrip("NOACK"), "OK");
        let mut payload = String::new();
        for (path, t) in &records {
            payload.push_str(&format!("PUSH {path} {t}\n"));
        }
        client.send_bytes(payload.as_bytes());
        assert_eq!(client.roundtrip("QUIT"), "BYE");
    }

    // Daemon B: the even-indexed records over a v2 session, the odd
    // ones over a concurrent text session on the same daemon.
    let server_b = Server::start(config()).expect("server starts");
    let mut sub_b = Client::connect(&server_b);
    assert!(sub_b.roundtrip("SUBSCRIBE").starts_with("OK subscribed from="));
    std::thread::scope(|scope| {
        let recs = &records;
        let server = &server_b;
        scope.spawn(move || {
            let mut client = Client::connect(server);
            assert_eq!(client.roundtrip("NOACK"), "OK");
            upgrade(&mut client);
            let mut enc = v2::FrameEncoder::new();
            let even: Vec<(String, u64)> = recs.iter().step_by(2).cloned().collect();
            for (seq, batch) in even.chunks(97).enumerate() {
                let mut frame = Vec::new();
                enc.encode_data(seq as u32, batch, &mut frame);
                client.send_bytes(&frame);
            }
            let fence = v2::control_frame(v2::FrameKind::Ping, 1_000_000);
            client.send_bytes(&fence);
            assert_eq!(client.recv(), "PONG frame=1000000");
        });
        scope.spawn(move || {
            let mut client = Client::connect(server);
            assert_eq!(client.roundtrip("NOACK"), "OK");
            let mut payload = String::new();
            for (path, t) in recs.iter().skip(1).step_by(2) {
                payload.push_str(&format!("PUSH {path} {t}\n"));
            }
            client.send_bytes(payload.as_bytes());
            assert_eq!(client.roundtrip("QUIT"), "BYE");
        });
    });

    let deadline = Duration::from_secs(30);
    let mut got_a = sub_a.collect_events(expected.len(), deadline);
    let mut got_b = sub_b.collect_events(expected.len(), deadline);
    got_a.sort();
    got_b.sort();
    assert_eq!(got_a, expected, "text admission equals the offline replay");
    assert_eq!(got_b, expected, "mixed text+v2 admission equals the offline replay");

    let mut control_a = Client::connect(&server_a);
    let mut control_b = Client::connect(&server_b);
    let stats_a = control_a.stats();
    let stats_b = control_b.stats();
    for stats in [&stats_a, &stats_b] {
        assert_eq!(stats.num("records"), records.len() as u64, "{stats}");
        assert_eq!(stats.num("late"), 0, "{stats}");
    }
    assert_eq!(
        stats_a.field("top_paths"),
        stats_b.field("top_paths"),
        "the heavy-hitter gauge is protocol-independent"
    );

    assert_eq!(control_a.roundtrip("SHUTDOWN"), "OK shutting down");
    assert_eq!(control_b.roundtrip("SHUTDOWN"), "OK shutting down");
    server_a.join().expect("clean shutdown");
    server_b.join().expect("clean shutdown");
}

/// Under `NOACK`, a frame whose records were (partially) dropped still
/// reports the drops: the ack line is suppressed only when nothing was
/// lost.
#[test]
fn noack_v2_reports_dropped_records_unsolicited() {
    let server = Server::start(config()).expect("server starts");
    let mut client = Client::connect(&server);
    assert_eq!(client.roundtrip("NOACK"), "OK");
    upgrade(&mut client);

    let mut enc = v2::FrameEncoder::new();
    let mut frame = Vec::new();
    // Anchor the stream and advance far enough that unit 0 closes once
    // the grace window expires.
    let recs: Vec<(String, u64)> =
        (0..8u64).map(|u| ("tv/no-service".to_string(), u * TIMEUNIT)).collect();
    enc.encode_data(0, &recs, &mut frame);
    client.send_bytes(&frame);
    client.send_bytes(&v2::control_frame(v2::FrameKind::Ping, 1));
    assert_eq!(client.recv(), "PONG frame=1");

    // Wait for the grace window so early units are closed.
    wait_until(&server, |s| s.field("last_closed") == "6");

    // A frame landing in a closed unit is dropped as late — and the
    // drop is reported even though the session never asked for acks.
    frame.clear();
    enc.encode_data(2, &[("tv/no-service", 1u64)], &mut frame);
    client.send_bytes(&frame);
    assert_eq!(client.recv(), "OK frame=2 n=0 late=1 ahead=0");

    assert_eq!(Client::connect(&server).roundtrip("SHUTDOWN"), "OK shutting down");
    server.join().expect("clean shutdown");
}

/// A router with fast probes over `nodes` (order = routing table),
/// returned once it reports every node up.
fn router_over(nodes: &[String]) -> Router {
    router_probing_every(nodes, Duration::from_millis(100))
}

fn router_probing_every(nodes: &[String], probe_interval: Duration) -> Router {
    let mut config = RouterConfig::new(nodes.to_vec());
    config.probe_interval = probe_interval;
    config.request_timeout = Duration::from_secs(2);
    config.backoff_max = Duration::from_millis(300);
    let router = Router::start(config).expect("router starts");
    wait_until(&router, |s| nodes.iter().all(|n| node_is(s, n, "up")));
    router
}

/// Whether the router's `node_state` reports `node` in `state`.
fn node_is(stats: &Stats, node: &str, state: &str) -> bool {
    stats.field("node_state").split('|').any(|entry| entry == format!("{node}:{state}"))
}

/// `count` labels per node of a two-node router, from the real routing
/// hash.
fn labels_per_node(count: usize) -> [Vec<String>; 2] {
    let shards = ShardRouter::new(2);
    let mut per_node: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    for k in 0.. {
        let label = format!("cat{k}/leaf");
        let node = shards.route(&label);
        if per_node[node].len() < count {
            per_node[node].push(label);
        }
        if per_node.iter().all(|labels| labels.len() == count) {
            return per_node;
        }
    }
    unreachable!("the routing hash is not degenerate over all labels");
}

/// A client-side v2 dictionary assembled by hand, so a frame can list a
/// label the dictionary already holds (which [`v2::FrameEncoder`] never
/// does).
#[derive(Default)]
struct ClientDict {
    labels: Vec<String>,
}

impl ClientDict {
    /// One DATA frame: first `relist` (appended to the dictionary even
    /// if already present), then every label of `records` not yet in
    /// it. A record whose label has several ids takes them in turn, so
    /// every id of a relisted label is used.
    fn frame(&mut self, seq: u32, relist: &[&str], records: &[(String, u64)]) -> Vec<u8> {
        let before = self.labels.len();
        self.labels.extend(relist.iter().map(|l| l.to_string()));
        for (label, _) in records {
            if !self.labels.contains(label) {
                self.labels.push(label.clone());
            }
        }
        let mut payload = Vec::new();
        v2::put_uvarint(&mut payload, (self.labels.len() - before) as u64);
        for label in &self.labels[before..] {
            v2::put_uvarint(&mut payload, label.len() as u64);
            payload.extend_from_slice(label.as_bytes());
        }
        v2::put_uvarint(&mut payload, records.len() as u64);
        let mut prev = 0u64;
        for (i, (label, t)) in records.iter().enumerate() {
            let ids: Vec<usize> =
                (0..self.labels.len()).filter(|&j| self.labels[j] == *label).collect();
            v2::put_uvarint(&mut payload, ids[i % ids.len()] as u64);
            let delta = t.wrapping_sub(prev) as i64;
            v2::put_uvarint(&mut payload, ((delta << 1) ^ (delta >> 63)) as u64);
            prev = *t;
        }
        raw_data_frame(seq, &payload)
    }
}

/// The router's v2 forward path against the offline oracle: acked
/// frames that reuse labels across frames, introduce one mid-stream and
/// list one twice in the client dictionary, then an `END` → `NOACK` →
/// `UPGRADE` flip (fresh node connections, fresh remaps) and more
/// frames behind a `PING` fence. The two nodes' `QUERY` answers,
/// together, equal the offline replay of every record sent.
#[test]
fn routed_v2_equals_the_offline_replay_across_a_mode_flip() {
    let [on_a, on_b] = labels_per_node(3);
    let steady = [&on_a[0], &on_b[0], &on_a[1], &on_b[1]];
    let late_comer = &on_a[2]; // first sent at unit 3
    let units = |range: std::ops::Range<u64>| -> Vec<Vec<(String, u64)>> {
        range
            .map(|u| {
                let mut unit = Vec::new();
                for (k, label) in steady.iter().enumerate() {
                    let count = if u == 6 && k < 2 { 40 } else { 8 };
                    unit.extend(
                        (0..count).map(|i| (label.to_string(), u * TIMEUNIT + i % TIMEUNIT)),
                    );
                }
                if u >= 3 {
                    unit.extend((0..6).map(|i| (late_comer.clone(), u * TIMEUNIT + 2 * i)));
                }
                unit
            })
            .collect()
    };
    let acked_units = units(0..6);
    let bulk_units = units(6..10);

    let nodes = [
        Server::start(config_for(served().shards(1))).expect("node starts"),
        Server::start(config_for(served().shards(1))).expect("node starts"),
    ];
    let addrs: Vec<String> = nodes.iter().map(|n| n.local_addr().to_string()).collect();
    let router = router_over(&addrs);
    let mut client = Client::connect(&router);
    upgrade(&mut client);
    let mut dict = ClientDict::default();
    let mut seq = 0u32;
    for (u, records) in acked_units.iter().enumerate() {
        // Unit 4 relists one label per node that the dictionary holds.
        let relist: &[&str] = if u == 4 { &[&on_a[0], &on_b[0]] } else { &[] };
        client.send_bytes(&dict.frame(seq, relist, records));
        assert_eq!(client.recv(), format!("OK frame={seq} n={} late=0 ahead=0", records.len()));
        seq += 1;
    }
    assert_eq!(dict.labels.len(), 7, "five labels plus two relisted");

    client.send_bytes(&v2::control_frame(v2::FrameKind::End, seq));
    assert_eq!(client.recv(), "OK text");
    assert_eq!(client.roundtrip("NOACK"), "OK");
    assert_eq!(client.roundtrip("UPGRADE"), "OK upgraded");
    let mut sent: Vec<(String, u64)> = acked_units.concat();
    sent.extend(bulk_units.concat());
    let (replayed, sentinel) = with_sentinels(&sent, &[&on_a[0], &on_b[0]]);
    let sentinels = replayed[sent.len()..].to_vec();
    for records in bulk_units.iter().chain([&sentinels]) {
        seq += 1;
        client.send_bytes(&dict.frame(seq, &[], records));
    }
    client.send_bytes(&v2::control_frame(v2::FrameKind::Ping, 1_000));
    assert_eq!(client.recv(), "PONG frame=1000");

    let closed = (sentinel / TIMEUNIT - 1).to_string();
    let mut got = Vec::new();
    let mut admitted = 0;
    for node in &nodes {
        admitted += wait_until(node, |s| s.field("last_closed") == closed).num("records");
        let (frames, _) = Client::connect(node).query("QUERY 0 9999");
        got.extend(frames);
    }
    assert_eq!(admitted, replayed.len() as u64, "every record reached its node once");
    let mut expected = offline_events(served(), &replayed);
    assert!(!expected.is_empty(), "the bursts produced anomalies");
    expected.sort();
    got.sort();
    assert_eq!(got, expected, "routed v2 output equals the offline replay");

    client.send("QUIT");
    router.shutdown();
    router.join();
    for node in nodes {
        node.shutdown();
        node.join().expect("clean shutdown");
    }
}

/// An acked frame whose records span a down node answers `ERR …
/// degraded=<addr>` with the live node's confirmed count — first
/// through the dead connection left from before the outage, then
/// without a connection, since the router knows the node is down.
/// Nothing is re-sent, and once the node is back the next frame acks
/// `OK`.
#[test]
fn a_frame_missing_a_down_node_is_degraded_then_recovers() {
    let [on_a, on_b] = labels_per_node(1);
    let node_a = Server::start(config_for(served().shards(1))).expect("node starts");
    let (node_b, b_config) = restartable_node();
    let addr_b = b_config.addr.clone();
    let router = router_over(&[node_a.local_addr().to_string(), addr_b.clone()]);

    let mut client = Client::connect(&router);
    upgrade(&mut client);
    let mut enc = v2::FrameEncoder::new();
    let frame = |enc: &mut v2::FrameEncoder, seq: u32, t: u64| {
        two_node_frame(enc, seq, t, &on_a[0], &on_b[0])
    };
    client.send_bytes(&frame(&mut enc, 0, 10));
    assert_eq!(client.recv(), "OK frame=0 n=3 late=0 ahead=0");

    node_b.shutdown();
    node_b.join().expect("clean shutdown");
    wait_until(&router, |s| node_is(s, &addr_b, "down"));
    for seq in [1, 2] {
        client.send_bytes(&frame(&mut enc, seq, 20));
        let want = format!("ERR frame={seq} degraded={addr_b} n=2 late=0 ahead=0");
        assert_eq!(client.recv(), want);
    }

    let node_b = Server::start(b_config).expect("node restarts");
    wait_until(&router, |s| node_is(s, &addr_b, "up"));
    client.send_bytes(&frame(&mut enc, 3, 30));
    assert_eq!(client.recv(), "OK frame=3 n=3 late=0 ahead=0");
    assert_eq!(
        tiresias_testkit::stats(&node_b).num("records"),
        1,
        "the missed record was not re-sent"
    );

    client.send("QUIT");
    router.shutdown();
    router.join();
    for node in [node_a, node_b] {
        node.shutdown();
        node.join().expect("clean shutdown");
    }
}

/// A node that dies between probes, while the router still counts it
/// up, fails inside the acked exchange itself (the send or the ack
/// read): the frame is `degraded=` that node with the live node's
/// count, the dead connection is dropped, and the next frame reopens it.
#[test]
fn a_node_that_dies_between_probes_degrades_the_frame_then_reconnects() {
    let [on_a, on_b] = labels_per_node(1);
    let node_a = Server::start(config_for(served().shards(1))).expect("node starts");
    let (node_b, b_config) = restartable_node();
    let addr_b = b_config.addr.clone();
    // No probe runs after start-up, so the router still counts B up
    // when frame 1 arrives (and nothing here asks it for STATS, whose
    // fan-out to the nodes would notice).
    let router = router_probing_every(
        &[node_a.local_addr().to_string(), addr_b.clone()],
        Duration::from_secs(600),
    );

    let mut client = Client::connect(&router);
    upgrade(&mut client);
    let mut enc = v2::FrameEncoder::new();
    client.send_bytes(&two_node_frame(&mut enc, 0, 10, &on_a[0], &on_b[0]));
    assert_eq!(client.recv(), "OK frame=0 n=3 late=0 ahead=0");

    node_b.shutdown();
    node_b.join().expect("clean shutdown");
    client.send_bytes(&two_node_frame(&mut enc, 1, 20, &on_a[0], &on_b[0]));
    assert_eq!(client.recv(), format!("ERR frame=1 degraded={addr_b} n=2 late=0 ahead=0"));

    let node_b = Server::start(b_config).expect("node restarts");
    client.send_bytes(&two_node_frame(&mut enc, 2, 30, &on_a[0], &on_b[0]));
    assert_eq!(client.recv(), "OK frame=2 n=3 late=0 ahead=0");
    assert_eq!(
        tiresias_testkit::stats(&node_b).num("records"),
        1,
        "the missed record was not re-sent"
    );

    client.send("QUIT");
    router.shutdown();
    router.join();
    for node in [node_a, node_b] {
        node.shutdown();
        node.join().expect("clean shutdown");
    }
}

/// A 1-shard node on a fixed port, with the config to restart it there.
fn restartable_node() -> (Server, ServerConfig) {
    let placeholder = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let mut config = config_for(served().shards(1));
    config.addr = placeholder.local_addr().expect("local addr").to_string();
    drop(placeholder);
    (Server::start(config.clone()).expect("node starts"), config)
}

/// One DATA frame of three records at `t`, `t` and `t + 1`: two for
/// `on_a`'s node and one for `on_b`'s.
fn two_node_frame(enc: &mut v2::FrameEncoder, seq: u32, t: u64, on_a: &str, on_b: &str) -> Vec<u8> {
    let mut out = Vec::new();
    enc.encode_data(seq, &[(on_a, t), (on_b, t), (on_a, t + 1)], &mut out);
    out
}
