//! The engine's runtime-telemetry bundle: one histogram per hot-path
//! stage, shared by `Arc` between the stage that records and the
//! serving layer that exports.
//!
//! Recording is lock-free (`tiresias-telemetry`'s contract) and every
//! stage is timed at *batch* or *unit* granularity — one `Instant`
//! pair per admitted batch, closed unit, WAL append or segment spill —
//! never per record.

use std::sync::Arc;

use tiresias_telemetry::{Histogram, Registry};

/// Per-stage latency histograms of one live engine. Cheap to clone
/// (a handful of `Arc`s); values are nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct EngineTelemetry {
    /// Whole-batch admission latency ([`crate::IngestHandle`]'s
    /// `admit_batch`: gate acquire, validation, WAL append, routing
    /// and ring hand-off).
    pub admit: Arc<Histogram>,
    /// Time admission spent blocked on a full shard ring (the
    /// backpressure slow path only; unstalled hand-offs record
    /// nothing).
    pub ring_stall: Arc<Histogram>,
    /// Per-shard timeunit close duration (stash replay + detector
    /// advance on the worker thread).
    pub close: Arc<Histogram>,
    /// Merge duration of one close barrier's acks into the ordered
    /// report store.
    pub merge: Arc<Histogram>,
    /// WAL append latency (batch and close frames, under the admission
    /// gate).
    pub wal_append: Arc<Histogram>,
    /// WAL fsync latency (every policy-driven or explicit sync).
    pub wal_fsync: Arc<Histogram>,
    /// Segment spill latency (evicted report events reaching disk).
    pub spill: Arc<Histogram>,
}

impl EngineTelemetry {
    /// Creates a fresh (all-empty) telemetry bundle.
    pub fn new() -> EngineTelemetry {
        EngineTelemetry::default()
    }

    /// Registers every engine histogram into `registry` under its
    /// exported name.
    pub fn register_into(&self, registry: &Registry) {
        registry.register_histogram(
            "tiresias_admit_batch_seconds",
            "Whole-batch admission latency through the lock-free front-end.",
            &[],
            Arc::clone(&self.admit),
        );
        registry.register_histogram(
            "tiresias_ring_stall_seconds",
            "Time admission spent blocked on a full shard ring (backpressure).",
            &[],
            Arc::clone(&self.ring_stall),
        );
        registry.register_histogram(
            "tiresias_close_unit_seconds",
            "Per-shard timeunit close duration on the worker threads.",
            &[],
            Arc::clone(&self.close),
        );
        registry.register_histogram(
            "tiresias_merge_seconds",
            "Merge duration of closed units into the ordered report store.",
            &[],
            Arc::clone(&self.merge),
        );
        registry.register_histogram(
            "tiresias_wal_append_seconds",
            "Write-ahead-log append latency under the admission gate.",
            &[],
            Arc::clone(&self.wal_append),
        );
        registry.register_histogram(
            "tiresias_wal_fsync_seconds",
            "Write-ahead-log fsync latency.",
            &[],
            Arc::clone(&self.wal_fsync),
        );
        registry.register_histogram(
            "tiresias_spill_seconds",
            "Segment-store spill latency for evicted report events.",
            &[],
            Arc::clone(&self.spill),
        );
    }
}
