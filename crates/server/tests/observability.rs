//! End-to-end tests of the telemetry surface: the Prometheus
//! `/metrics` listener, the `STATS JSON` protocol variant, the slow-op
//! NDJSON log, and the router's per-node metrics — all over real
//! sockets against running daemons.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use serde::Value;
use tiresias_server::{Router, RouterConfig, Server, ServerConfig};
use tiresias_testkit::{served, wait_until, Client, TempDir, TIMEUNIT};

fn config() -> ServerConfig {
    let mut config = ServerConfig::new(served());
    config.grace = Duration::from_millis(300);
    config.tick = Duration::from_millis(20);
    config
}

/// One plain-HTTP scrape of a `/metrics` listener.
fn scrape(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("metrics listener up");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout set");
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect("writes");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("reads");
    let (head, body) = response.split_once("\r\n\r\n").expect("has a header/body split");
    assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");
    body.to_string()
}

fn counter_value(stats: &Value, name: &str) -> Option<f64> {
    let Ok(Value::Seq(counters)) = stats.field("counters") else { return None };
    counters.iter().find_map(|c| match (c.field("name"), c.field("value")) {
        (Ok(Value::Str(n)), Ok(Value::U64(v))) if n == name => Some(*v as f64),
        (Ok(Value::Str(n)), Ok(Value::I64(v))) if n == name => Some(*v as f64),
        (Ok(Value::Str(n)), Ok(Value::F64(v))) if n == name => Some(*v),
        _ => None,
    })
}

#[test]
fn metrics_endpoint_and_stats_json_track_a_serve_workload() {
    let dir = TempDir::new("obs");
    let slow_path = dir.join("slow.ndjson");
    let mut config = config();
    config.metrics_addr = Some("127.0.0.1:0".to_string());
    config.slow_log = Some(slow_path.clone());
    config.slow_ms = 0; // every close/query becomes a slow-op entry
    let server = Server::start(config).expect("starts");
    let metrics_addr = server.metrics_addr().expect("exporter configured");

    // An untouched exporter scrapes clean.
    let body = scrape(metrics_addr);
    assert!(body.contains("tiresias_admitted_records_total 0\n"), "{body}");

    let mut client = Client::connect(server.local_addr());
    let mut pushed = 0u64;
    for unit in 0..3u64 {
        for i in 0..10u64 {
            let reply = client.roundtrip(&format!("PUSH cat{i}/leaf {}", unit * TIMEUNIT + i));
            assert_eq!(reply, "OK");
            pushed += 1;
        }
    }
    // A query to feed the query histogram + slow log.
    assert!(client.roundtrip("QUERY 0 100").starts_with("OK"), "query answers");

    // The scrape sees the admissions, and histogram series are well
    // formed (cumulative buckets, +Inf == count).
    let body = scrape(metrics_addr);
    assert!(
        body.contains(&format!("tiresias_admitted_records_total {pushed}\n")),
        "admitted counter must advance:\n{body}",
    );
    assert!(body.contains("# TYPE tiresias_admit_batch_seconds histogram"), "{body}");
    assert!(body.contains("tiresias_query_seconds_count 1"), "{body}");
    let inf_lines: Vec<&str> = body
        .lines()
        .filter(|l| l.starts_with("tiresias_admit_batch_seconds_bucket{le=\"+Inf\"}"))
        .collect();
    assert_eq!(inf_lines.len(), 1, "{body}");

    // Non-/metrics paths 404 without killing the listener.
    let mut stream = TcpStream::connect(metrics_addr).expect("connects");
    stream.write_all(b"GET /other HTTP/1.0\r\n\r\n").expect("writes");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("reads");
    assert!(response.starts_with("HTTP/1.0 404"), "{response}");

    // STATS JSON is machine-parseable and agrees with the scrape; the
    // legacy one-liner still answers beside it.
    let json_line = client.roundtrip("STATS JSON");
    let stats = serde_json::parse_value(&json_line).expect("STATS JSON parses");
    assert_eq!(counter_value(&stats, "tiresias_admitted_records_total"), Some(pushed as f64));
    let legacy = client.roundtrip("STATS");
    assert!(legacy.starts_with("STATS "), "{legacy}");
    assert!(legacy.contains(&format!("records={pushed}")), "{legacy}");
    assert_eq!(client.roundtrip("STATS NOW"), "ERR STATS takes no arguments except JSON");

    // Wall-clock closes (grace 300 ms) eventually land "close" ops in
    // the slow log with the 0 ms threshold.
    let deadline = Instant::now() + Duration::from_secs(10);
    let slow = loop {
        let text = std::fs::read_to_string(&slow_path).unwrap_or_default();
        if text.lines().any(|l| l.contains("\"op\":\"close\"")) {
            break text;
        }
        assert!(Instant::now() < deadline, "no close op in slow log; have: {text}");
        std::thread::sleep(Duration::from_millis(50));
    };
    for line in slow.lines() {
        let entry = serde_json::parse_value(line).expect("slow log line parses");
        assert!(entry.field("ts_ms").is_ok(), "{line}");
        assert!(matches!(entry.field("op"), Ok(Value::Str(_))), "{line}");
        assert!(entry.field("ms").is_ok(), "{line}");
    }
    assert!(slow.lines().any(|l| l.contains("\"op\":\"query\"")), "{slow}");

    server.shutdown();
    server.join().expect("clean shutdown");
}

#[test]
fn rebalancing_gauges_reach_stats_and_metrics() {
    let mut config = config();
    config.metrics_addr = Some("127.0.0.1:0".to_string());
    config.rebalance = tiresias_core::RebalanceConfig::enabled();
    let server = Server::start(config).expect("starts");
    let metrics_addr = server.metrics_addr().expect("exporter configured");

    // Untouched engine: all three series exist and read zero.
    let body = scrape(metrics_addr);
    assert!(body.contains("tiresias_rebalances_total 0\n"), "{body}");
    assert!(body.contains("tiresias_pinned_labels 0\n"), "{body}");
    assert!(body.contains("tiresias_shard_balance 0\n"), "{body}");

    // Skewed pushes: one hot label, a few light ones, two timeunits so
    // the wall-clock close crosses an epoch barrier and the balancer
    // measures the epoch it just sealed.
    let mut client = Client::connect(server.local_addr());
    for unit in 0..2u64 {
        for i in 0..40u64 {
            let reply = client.roundtrip(&format!("PUSH hot/leaf {}", unit * TIMEUNIT + i % 50));
            assert_eq!(reply, "OK");
            let reply =
                client.roundtrip(&format!("PUSH cold{}/leaf {}", i % 4, unit * TIMEUNIT + i % 50));
            assert_eq!(reply, "OK");
        }
    }

    // The measured worst/mean ratio lands in the gauge once the barrier
    // passes (grace-driven, so poll). Two shards with one dominant
    // label: the ratio is strictly above 1.
    let deadline = Instant::now() + Duration::from_secs(10);
    let balance = loop {
        let body = scrape(metrics_addr);
        let value = body
            .lines()
            .find_map(|l| l.strip_prefix("tiresias_shard_balance "))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .expect("gauge always present");
        if value > 0.0 {
            break value;
        }
        assert!(Instant::now() < deadline, "no epoch ever measured:\n{body}");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(balance > 1.0 && balance < 2.0 + f64::EPSILON, "2-shard worst/mean: {balance}");

    // The legacy STATS one-liner carries the same fields.
    let legacy = client.roundtrip("STATS");
    assert!(legacy.contains("rebalances="), "{legacy}");
    assert!(legacy.contains("pinned_labels="), "{legacy}");
    assert!(legacy.contains(&format!("shard_balance={balance:.3}")), "{legacy}");

    // And STATS JSON exposes the rebalance counter to scrapers that
    // prefer the socket protocol.
    let stats = serde_json::parse_value(&client.roundtrip("STATS JSON")).expect("parses");
    assert!(counter_value(&stats, "tiresias_rebalances_total").is_some(), "{stats:?}");

    server.shutdown();
    server.join().expect("clean shutdown");
}

#[test]
fn router_exports_per_node_metrics_and_stats_json() {
    let node = Server::start(config()).expect("node starts");
    let node_addr = node.local_addr().to_string();
    let mut rconfig = RouterConfig::new(vec![node_addr.clone()]);
    rconfig.probe_interval = Duration::from_millis(100);
    rconfig.request_timeout = Duration::from_millis(500);
    rconfig.metrics_addr = Some("127.0.0.1:0".to_string());
    let router = Router::start(rconfig).expect("router starts");
    let metrics_addr = router.metrics_addr().expect("exporter configured");

    // Wait until the supervisor adopts the node.
    wait_until(&router, |s| s.field("node_state") == format!("{node_addr}:up"));

    let body = scrape(metrics_addr);
    let state_line = format!("tiresias_node_state{{node=\"{node_addr}\"}} 2\n");
    assert!(body.contains(&state_line), "node must export as up:\n{body}");
    assert!(body.contains("tiresias_node_request_seconds_bucket{node=\""), "{body}");
    assert!(body.contains("tiresias_degraded_queries_total 0\n"), "{body}");

    // Probes have been flowing, so the ok counter is positive already.
    let mut client = Client::connect(router.local_addr());
    let stats = serde_json::parse_value(&client.roundtrip("STATS JSON")).expect("parses");
    let Ok(Value::Seq(counters)) = stats.field("counters") else { panic!("counters") };
    let probe_ok = counters
        .iter()
        .find(
            |c| matches!(c.field("name"), Ok(Value::Str(n)) if n == "tiresias_node_probe_ok_total"),
        )
        .expect("probe counter registered");
    let Ok(Value::Map(labels)) = probe_ok.field("labels") else { panic!("labels") };
    assert_eq!(labels, &[("node".to_string(), Value::Str(node_addr.clone()))]);
    match probe_ok.field("value") {
        Ok(Value::U64(v)) => assert!(*v >= 1, "probe_ok never incremented"),
        other => panic!("probe_ok value: {other:?}"),
    }

    let mut shut = Client::connect(router.local_addr());
    assert_eq!(shut.roundtrip("SHUTDOWN"), "OK shutting down");
    router.join();
    node.shutdown();
    node.join().expect("node joins");
}
