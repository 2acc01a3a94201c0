//! The replay oracle: the expected anomalies and heavy-hitter paths of
//! a stream, computed once per seed by an offline single-engine replay
//! of exactly the records the workload will send, through a different
//! entry point than the one being measured (`push_batch` rather than
//! per-record `push_str`; one shard, inline executor, rather than
//! worker threads behind sockets).

use tiresias_core::{AnomalyEvent, ShardedTiresias, Tiresias};
use tiresias_server::protocol::format_event;

use crate::gen::{detector, Stream};

/// What a run must reproduce.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Expected {
    /// Every anomaly as its [`event_key`], sorted.
    pub events: Vec<String>,
    /// Heavy-hitter paths after the last unit, sorted.
    pub heavy_hitters: Vec<String>,
}

/// What identifies an anomaly: its wire `EVENT` line — unit, time,
/// level, kind, observed count, path — without the `forecast=` field.
/// The forecast is left out because its last digits depend on the order
/// in which labels were first seen (node ids order the floating-point
/// sums of ADA's split and merge), and that order legitimately differs
/// between one offline engine and two clients racing into two shards.
pub fn event_key(line: &str) -> String {
    match (line.find(" forecast="), line.find(" path=")) {
        (Some(a), Some(b)) if a < b => format!("{}{}", &line[..a], &line[b..]),
        _ => line.to_string(),
    }
}

/// Sorted keys of a set of `EVENT` lines.
pub fn event_keys<S: AsRef<str>>(lines: &[S]) -> Vec<String> {
    let mut keys: Vec<String> = lines.iter().map(|l| event_key(l.as_ref())).collect();
    keys.sort_unstable();
    keys
}

fn keys_of(events: &[AnomalyEvent]) -> Vec<String> {
    event_keys(&events.iter().map(format_event).collect::<Vec<String>>())
}

/// The output of a finished single-engine detector.
pub fn of_detector(t: &Tiresias) -> Expected {
    let mut heavy_hitters: Vec<String> =
        t.heavy_hitters().iter().map(|&n| t.tree().path_of(n).to_string()).collect();
    heavy_hitters.sort_unstable();
    Expected { events: keys_of(t.anomalies()), heavy_hitters }
}

/// The output of a finished sharded engine.
pub fn of_sharded(e: &ShardedTiresias) -> Expected {
    let mut heavy_hitters: Vec<String> =
        e.heavy_hitter_paths().iter().map(ToString::to_string).collect();
    heavy_hitters.sort_unstable();
    Expected { events: keys_of(e.anomalies()), heavy_hitters }
}

fn unit_batch(stream: &Stream, unit: usize) -> Vec<(&str, u64)> {
    stream.client_unit(unit, 0, 1).collect()
}

/// Offline replay through one plain `Tiresias` — the reference for the
/// offline workloads.
pub fn single_engine(stream: &Stream) -> Expected {
    let mut t = detector(&stream.root_label).build().expect("static config is valid");
    for unit in 0..stream.units.len() {
        t.push_batch(&unit_batch(stream, unit)).expect("generated stream is in order");
    }
    t.advance_to(stream.end_secs()).expect("close last unit");
    of_detector(&t)
}

/// Offline replay through a one-shard `ShardedTiresias` on the inline
/// executor — the reference for everything served: the serving engine
/// isolates top-level subtrees (no root-level series), and its output
/// is shard-count and node-count invariant, so one shard offline is
/// what two shards, or two routed nodes, must reproduce. The sentinel
/// records one unit past the end close the last unit, as they do live.
pub fn single_shard(stream: &Stream) -> Expected {
    let mut e =
        detector(&stream.root_label).shards(1).build_sharded().expect("static config is valid");
    e.set_threaded(false);
    for unit in 0..stream.units.len() {
        e.push_batch(&unit_batch(stream, unit)).expect("generated stream is in order");
    }
    let sentinels: Vec<(&str, u64)> = stream.sentinel_records().collect();
    e.push_batch(&sentinels).expect("sentinels are in order");
    of_sharded(&e)
}

/// A short description of how `got` differs from `expected` (both
/// sorted), for the run's notes; `None` when they are equal.
pub fn describe_mismatch(what: &str, expected: &[String], got: &[String]) -> Option<String> {
    if expected == got {
        return None;
    }
    let missing: Vec<&String> = expected.iter().filter(|e| got.binary_search(e).is_err()).collect();
    let extra: Vec<&String> = got.iter().filter(|e| expected.binary_search(e).is_err()).collect();
    Some(format!(
        "MISMATCH {what}: expected {} events, got {}; {} missing (first: {:?}), {} unexpected \
         (first: {:?})",
        expected.len(),
        got.len(),
        missing.len(),
        missing.first(),
        extra.len(),
        extra.first(),
    ))
}
