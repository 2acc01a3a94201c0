//! Versioned checkpoint envelope for detector state.
//!
//! Serialising a [`Tiresias`] or [`ShardedTiresias`] with serde yields
//! a bare state object whose schema drifts as the structs evolve, and
//! the vendored mini-serde has no `#[serde(default)]` to paper over a
//! missing field. This module wraps checkpoints in an explicit envelope
//! instead, so a loader knows which schema it holds before it reads a
//! single engine field:
//!
//! ```json
//! {"version": 4, "kind": "sharded", "engine": { ...detector state... }}
//! ```
//!
//! * `version` is [`CHECKPOINT_VERSION`], the only version
//!   [`load_checkpoint`] accepts. An older envelope, a bare engine state
//!   with no envelope, and a version from the future are each refused
//!   with an error naming what was found, instead of a field-by-field
//!   puzzle.
//! * `kind` is `"single"` ([`Tiresias`]) or `"sharded"`
//!   ([`ShardedTiresias`]), so one load entry point restores either
//!   engine.
//! * `engine` is the detector's ordinary serde state.

use serde::Value;

use crate::detector::Tiresias;
use crate::error::CoreError;
use crate::sharded::ShardedTiresias;

/// Current checkpoint envelope version, the only one
/// [`load_checkpoint`] accepts. v4 added the [`crate::ShardRouter`]'s
/// pinned-override table (`overrides`), the skew-adaptive rebalancer's
/// learned placement; v3 moved the merged report store to the indexed,
/// retention-aware [`crate::ReportStore`] schema; v2 introduced the
/// envelope itself.
pub const CHECKPOINT_VERSION: u64 = 4;

/// A checkpointed engine of either flavour, as restored by
/// [`load_checkpoint`].
#[derive(Debug, Clone)]
pub enum CheckpointEngine {
    /// A single-instance [`Tiresias`] detector.
    Single(Box<Tiresias>),
    /// A [`ShardedTiresias`] multi-core engine.
    Sharded(Box<ShardedTiresias>),
}

impl From<Tiresias> for CheckpointEngine {
    fn from(t: Tiresias) -> Self {
        CheckpointEngine::Single(Box::new(t))
    }
}

impl From<ShardedTiresias> for CheckpointEngine {
    fn from(s: ShardedTiresias) -> Self {
        CheckpointEngine::Sharded(Box::new(s))
    }
}

/// Serialises an engine into the versioned checkpoint envelope
/// (compact JSON).
///
/// # Example
///
/// ```
/// use tiresias_core::{load_checkpoint, save_checkpoint, CheckpointEngine, TiresiasBuilder};
///
/// let detector = TiresiasBuilder::new().season_length(4).window_len(16).build()?;
/// let json = save_checkpoint(&CheckpointEngine::from(detector));
/// assert!(json.starts_with("{\"version\":4,"));
/// assert!(matches!(load_checkpoint(&json)?, CheckpointEngine::Single(_)));
/// # Ok::<(), tiresias_core::CoreError>(())
/// ```
pub fn save_checkpoint(engine: &CheckpointEngine) -> String {
    match engine {
        CheckpointEngine::Single(t) => save_single_checkpoint(t),
        CheckpointEngine::Sharded(s) => save_sharded_checkpoint(s),
    }
}

/// [`save_checkpoint`] for a borrowed single-instance detector — no
/// clone, so a serving layer can checkpoint in place.
pub fn save_single_checkpoint(detector: &Tiresias) -> String {
    envelope("single", &serde_json::to_string(detector).expect("detector state serialises"))
}

/// [`save_checkpoint`] for a borrowed sharded engine — no clone, so a
/// serving layer can checkpoint in place.
pub fn save_sharded_checkpoint(engine: &ShardedTiresias) -> String {
    envelope("sharded", &serde_json::to_string(engine).expect("engine state serialises"))
}

/// [`save_sharded_checkpoint`] with a WAL watermark recorded in the
/// envelope: `wal_seq` is the last WAL sequence whose effects this
/// checkpoint already contains, so recovery replays only entries
/// **after** it. Loaders without WAL support ignore the extra field
/// (the envelope is read key-by-key), so this needs no version bump.
pub fn save_sharded_checkpoint_with_wal(engine: &ShardedTiresias, wal_seq: u64) -> String {
    let engine_json = serde_json::to_string(engine).expect("engine state serialises");
    format!(
        "{{\"version\":{CHECKPOINT_VERSION},\"kind\":\"sharded\",\"wal_seq\":{wal_seq},\
         \"engine\":{engine_json}}}"
    )
}

/// [`load_checkpoint`] plus the durability metadata: the restored
/// engine and the envelope's `wal_seq` watermark (`None` for
/// checkpoints written without a WAL).
///
/// # Errors
///
/// Exactly as [`load_checkpoint`], plus a malformed `wal_seq` field.
pub fn load_checkpoint_meta(json: &str) -> Result<(CheckpointEngine, Option<u64>), CoreError> {
    let value = serde_json::parse_value(json)
        .map_err(|e| CoreError::Checkpoint(format!("malformed checkpoint JSON: {e}")))?;
    let wal_seq = match map_get(&value, "wal_seq") {
        None => None,
        Some(Value::U64(v)) => Some(*v),
        Some(Value::I64(v)) if *v >= 0 => Some(*v as u64),
        Some(other) => {
            return Err(CoreError::Checkpoint(format!(
                "checkpoint `wal_seq` must be a non-negative integer, found {}",
                other.kind()
            )));
        }
    };
    Ok((load_checkpoint(json)?, wal_seq))
}

fn envelope(kind: &str, engine_json: &str) -> String {
    // The envelope is spliced as text: the vendored mini-serde `Value`
    // has no `Serialize` impl of its own, and the engine body is
    // already valid compact JSON.
    format!("{{\"version\":{CHECKPOINT_VERSION},\"kind\":\"{kind}\",\"engine\":{engine_json}}}")
}

/// Restores an engine from a [`CHECKPOINT_VERSION`] envelope.
///
/// # Errors
///
/// Returns [`CoreError::Checkpoint`] on malformed JSON, a missing or
/// non-integer `version`, any version other than [`CHECKPOINT_VERSION`],
/// an unknown `kind`, or engine state that fails to deserialise.
pub fn load_checkpoint(json: &str) -> Result<CheckpointEngine, CoreError> {
    let value = serde_json::parse_value(json)
        .map_err(|e| CoreError::Checkpoint(format!("malformed checkpoint JSON: {e}")))?;
    let version = match map_get(&value, "version") {
        Some(Value::U64(v)) => *v,
        Some(Value::I64(v)) if *v >= 0 => *v as u64,
        Some(other) => {
            return Err(CoreError::Checkpoint(format!(
                "checkpoint version must be an integer, found {}",
                other.kind()
            )));
        }
        None => {
            return Err(CoreError::Checkpoint(format!(
                "checkpoint has no `version` field (a bare pre-envelope v1 engine state?); \
                 only version {CHECKPOINT_VERSION} loads"
            )));
        }
    };
    if version > CHECKPOINT_VERSION {
        return Err(CoreError::Checkpoint(format!(
            "checkpoint version {version} is newer than the supported \
             version {CHECKPOINT_VERSION}; upgrade tiresias to load it"
        )));
    }
    if version < CHECKPOINT_VERSION {
        return Err(CoreError::Checkpoint(format!(
            "checkpoint version {version} is older than the supported \
             version {CHECKPOINT_VERSION}; only version {CHECKPOINT_VERSION} loads"
        )));
    }
    let kind = match map_get(&value, "kind") {
        Some(Value::Str(kind)) => kind.as_str(),
        Some(other) => {
            return Err(CoreError::Checkpoint(format!(
                "checkpoint `kind` must be a string, found {}",
                other.kind()
            )));
        }
        None => {
            return Err(CoreError::Checkpoint(
                "checkpoint envelope is missing the `kind` field".into(),
            ));
        }
    };
    let engine = map_get(&value, "engine").ok_or_else(|| {
        CoreError::Checkpoint("checkpoint envelope is missing the `engine` field".into())
    })?;
    engine_from_value(kind, engine)
}

/// Restores the concrete engine from its serde state value.
fn engine_from_value(kind: &str, engine: &Value) -> Result<CheckpointEngine, CoreError> {
    use serde::Deserialize;
    match kind {
        "single" => Tiresias::from_value(engine)
            .map(|t| CheckpointEngine::Single(Box::new(t)))
            .map_err(|e| CoreError::Checkpoint(format!("invalid single-detector state: {e}"))),
        "sharded" => ShardedTiresias::from_value(engine)
            .map(|s| CheckpointEngine::Sharded(Box::new(s)))
            .map_err(|e| CoreError::Checkpoint(format!("invalid sharded-engine state: {e}"))),
        other => Err(CoreError::Checkpoint(format!(
            "unknown checkpoint kind `{other}` (expected `single` or `sharded`)"
        ))),
    }
}

/// Looks up a key in a map value (`None` for non-maps or absent keys).
fn map_get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TiresiasBuilder;

    fn builder() -> TiresiasBuilder {
        TiresiasBuilder::new()
            .timeunit_secs(900)
            .window_len(16)
            .threshold(5.0)
            .season_length(4)
            .sensitivity(2.0, 5.0)
            .warmup_units(4)
    }

    fn fed_detector() -> Tiresias {
        let mut d = builder().build().unwrap();
        for u in 0..6u64 {
            for i in 0..10 {
                d.push_str("TV/NoService", u * 900 + i).unwrap();
            }
        }
        d
    }

    #[test]
    fn envelope_round_trips_single() {
        let d = fed_detector();
        let json = save_checkpoint(&CheckpointEngine::from(d.clone()));
        assert!(json.contains("\"version\":4"));
        assert!(json.contains("\"kind\":\"single\""));
        let CheckpointEngine::Single(restored) = load_checkpoint(&json).unwrap() else {
            panic!("expected a single detector");
        };
        assert_eq!(restored.units_processed(), d.units_processed());
        assert_eq!(restored.anomalies(), d.anomalies());
    }

    #[test]
    fn envelope_round_trips_sharded() {
        let mut engine = builder().shards(3).build_sharded().unwrap();
        let batch: Vec<(String, u64)> =
            (0..5u64).flat_map(|u| (0..8).map(move |i| ("a/x".to_string(), u * 900 + i))).collect();
        engine.push_batch(&batch).unwrap();
        let json = save_checkpoint(&CheckpointEngine::from(engine.clone()));
        assert!(json.contains("\"kind\":\"sharded\""));
        let CheckpointEngine::Sharded(restored) = load_checkpoint(&json).unwrap() else {
            panic!("expected a sharded engine");
        };
        assert_eq!(restored.units_processed(), engine.units_processed());
        assert_eq!(restored.shard_count(), 3);
    }

    #[test]
    fn wal_watermark_round_trips_and_stays_optional() {
        let engine = builder().shards(2).build_sharded().unwrap();
        let json = save_sharded_checkpoint_with_wal(&engine, 42);
        assert!(json.contains("\"wal_seq\":42"));
        // Plain load ignores the extra field entirely.
        assert!(matches!(load_checkpoint(&json).unwrap(), CheckpointEngine::Sharded(_)));
        let (restored, wal_seq) = load_checkpoint_meta(&json).unwrap();
        assert!(matches!(restored, CheckpointEngine::Sharded(_)));
        assert_eq!(wal_seq, Some(42));
        // A WAL-less checkpoint reports no watermark.
        let plain = save_sharded_checkpoint(&engine);
        let (_, wal_seq) = load_checkpoint_meta(&plain).unwrap();
        assert_eq!(wal_seq, None);
    }

    /// One barrier-aligned sharded engine with a non-trivial pinned
    /// override table, plus the batch that fed it.
    fn pinned_engine() -> (ShardedTiresias, Vec<(String, u64)>) {
        let mut engine = builder().shards(4).build_sharded().unwrap();
        let paths = ["TV/NoService", "Net/Slow", "Phone/Dead"];
        let batch: Vec<(String, u64)> = (0..6u64)
            .flat_map(|u| {
                paths.iter().flat_map(move |p| (0..10).map(move |i| (p.to_string(), u * 900 + i)))
            })
            .collect();
        engine.push_batch(&batch).unwrap();
        for (i, label) in ["TV", "Net", "Phone"].iter().enumerate() {
            engine.pin_label(label, i);
        }
        engine.advance_to(6 * 900).unwrap();
        assert_eq!(engine.router().pinned_count(), 3);
        (engine, batch)
    }

    #[test]
    fn v4_envelope_round_trips_the_pinned_override_table() {
        let (engine, _) = pinned_engine();
        let json = save_checkpoint(&CheckpointEngine::from(engine.clone()));
        assert!(json.contains("\"version\":4"));
        assert!(json.contains("\"overrides\""));
        let CheckpointEngine::Sharded(restored) = load_checkpoint(&json).unwrap() else {
            panic!("expected a sharded engine");
        };
        assert_eq!(restored.router(), engine.router(), "learned placement survives");
        for label in ["TV/x", "Net/x", "Phone/x", "Unpinned/x"] {
            assert_eq!(restored.router().route(label), engine.router().route(label));
        }
    }

    #[test]
    fn pre_v4_checkpoints_are_refused_naming_the_version() {
        // A v1 checkpoint: the bare engine state, with no envelope.
        let v1 = serde_json::to_string(&fed_detector()).unwrap();
        let err = load_checkpoint(&v1).unwrap_err();
        assert!(matches!(err, CoreError::Checkpoint(_)), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("no `version`") && msg.contains("v1"), "{msg}");

        // A v3 envelope: the router carries no pinned-override table.
        let mut engine = builder().shards(3).build_sharded().unwrap();
        let batch: Vec<(String, u64)> =
            (0..5u64).flat_map(|u| (0..8).map(move |i| ("a/x".to_string(), u * 900 + i))).collect();
        engine.push_batch(&batch).unwrap();
        let json = save_checkpoint(&CheckpointEngine::from(engine));
        let v3 = json.replace("\"version\":4", "\"version\":3").replace(",\"overrides\":[]", "");
        assert_ne!(v3, json, "both replacements took effect");
        let err = load_checkpoint(&v3).unwrap_err();
        assert!(matches!(err, CoreError::Checkpoint(_)), "{err}");
        assert!(err.to_string().contains("version 3"), "{err}");
    }

    #[test]
    fn future_versions_are_rejected_with_a_clear_error() {
        let err =
            load_checkpoint("{\"version\":99,\"kind\":\"single\",\"engine\":{}}").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("version 99"), "{msg}");
        assert!(msg.contains("upgrade"), "{msg}");
    }

    #[test]
    fn malformed_checkpoints_error_cleanly() {
        assert!(matches!(load_checkpoint("not json"), Err(CoreError::Checkpoint(_))));
        assert!(matches!(load_checkpoint("{\"version\":4}"), Err(CoreError::Checkpoint(_))));
        assert!(matches!(
            load_checkpoint("{\"version\":4,\"kind\":\"weird\",\"engine\":{}}"),
            Err(CoreError::Checkpoint(_))
        ));
        assert!(matches!(
            load_checkpoint("{\"version\":4,\"kind\":\"single\",\"engine\":{\"nope\":1}}"),
            Err(CoreError::Checkpoint(_))
        ));
    }
}
