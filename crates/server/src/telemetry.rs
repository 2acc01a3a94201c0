//! Server-side telemetry assembly: one [`Registry`] per daemon,
//! populated from the engine's hot-path histograms plus derived
//! counters and gauges read straight off state the server already
//! maintains (atomic totals, ring depths, WAL/segment accounting).
//!
//! The registry is rendered on two cold paths — `GET /metrics`
//! (Prometheus text) and `STATS JSON` — by threads that may or may not
//! hold the server's session locks, so **no registered closure may
//! take the scheduler's `inner` mutex**. Closures only read lock-free
//! atomics, the report store's read-mostly lock, or the hub's
//! subscriber list (both of which no render caller ever holds).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tiresias_core::{EngineTelemetry, IngestHandle, ReportReader, SegmentStore, Wal};
use tiresias_telemetry::{Histogram, Registry, SlowLog};

use crate::hub::Hub;

/// Wire-protocol accounting shared between the session threads (which
/// bump the atomics) and the registry (whose closures read them):
/// per-protocol live-session gauges plus v2 frame/dictionary totals.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProtoCounters {
    /// Sessions currently speaking the text protocol.
    pub text_sessions: Arc<AtomicU64>,
    /// Sessions currently in binary v2 frame mode.
    pub v2_sessions: Arc<AtomicU64>,
    /// v2 frames decoded (all kinds) since start.
    pub v2_frames: Arc<AtomicU64>,
    /// Dictionary entries interned across all v2 sessions since start.
    pub v2_dict_entries: Arc<AtomicU64>,
}

/// The server's assembled telemetry: the registry both exporters
/// render, the request-path histograms the session threads feed, and
/// the optional slow-op log.
#[derive(Debug, Clone)]
pub(crate) struct ServerTelemetry {
    /// Every exported metric, in registration order.
    pub registry: Arc<Registry>,
    /// `QUERY` end-to-end latency (store read + reply formatting).
    pub query: Arc<Histogram>,
    /// `SUBSCRIBE FROM` catch-up latency (retained-history replay up
    /// to the live splice).
    pub catchup: Arc<Histogram>,
    /// Hub broadcast latency per closed-unit event flush (the lag a
    /// slow subscriber inflicts on the scheduler).
    pub broadcast: Arc<Histogram>,
    /// v2 DATA-frame decode latency (payload bytes to batch records,
    /// admission excluded).
    pub v2_decode: Arc<Histogram>,
    /// Structured NDJSON slow-op log, `None` unless `--slow-log` is
    /// configured.
    pub slow: Option<Arc<SlowLog>>,
}

/// Builds the daemon's registry: the engine's hot-path histograms
/// first, then the derived counters and gauges.
#[allow(clippy::too_many_arguments)] // a one-caller assembly function: every arg is one metric source
pub(crate) fn build(
    engine: &EngineTelemetry,
    front: &IngestHandle,
    reader: &ReportReader,
    hub: &Arc<Hub>,
    wal: Option<&Arc<Wal>>,
    segments: Option<&Arc<SegmentStore>>,
    slow: Option<Arc<SlowLog>>,
    proto: &ProtoCounters,
) -> ServerTelemetry {
    let registry = Arc::new(Registry::new());
    engine.register_into(&registry);
    let query = registry.histogram(
        "tiresias_query_seconds",
        "QUERY request latency over the retained report store.",
        &[],
    );
    let catchup = registry.histogram(
        "tiresias_subscribe_catchup_seconds",
        "SUBSCRIBE FROM catch-up replay latency until the live splice.",
        &[],
    );
    let broadcast = registry.histogram(
        "tiresias_broadcast_seconds",
        "Hub broadcast latency per closed-unit event flush.",
        &[],
    );
    let v2_decode = registry.histogram(
        "tiresias_v2_decode_seconds",
        "v2 DATA-frame decode latency, payload bytes to batch records.",
        &[],
    );

    // Wire-protocol accounting: session threads bump the atomics, the
    // registry only reads them (no lock, per the closure invariant).
    let p = Arc::clone(&proto.text_sessions);
    registry.gauge_fn(
        "tiresias_sessions",
        "Live sessions by wire protocol.",
        &[("proto", "text")],
        move || p.load(Ordering::Relaxed) as f64,
    );
    let p = Arc::clone(&proto.v2_sessions);
    registry.gauge_fn(
        "tiresias_sessions",
        "Live sessions by wire protocol.",
        &[("proto", "v2")],
        move || p.load(Ordering::Relaxed) as f64,
    );
    let p = Arc::clone(&proto.v2_frames);
    registry.counter_fn(
        "tiresias_v2_frames_total",
        "v2 frames decoded, all kinds.",
        &[],
        move || p.load(Ordering::Relaxed),
    );
    let p = Arc::clone(&proto.v2_dict_entries);
    registry.counter_fn(
        "tiresias_v2_dict_entries_total",
        "Label-dictionary entries interned across v2 sessions.",
        &[],
        move || p.load(Ordering::Relaxed),
    );

    // Admission totals: shared atomics the front-end already counts.
    let f = front.clone();
    registry.counter_fn(
        "tiresias_admitted_records_total",
        "Records accepted into the engine.",
        &[],
        move || f.admitted(),
    );
    let f = front.clone();
    registry.counter_fn(
        "tiresias_late_records_total",
        "Records dropped because their timeunit was already closed.",
        &[],
        move || f.late(),
    );
    let f = front.clone();
    registry.counter_fn(
        "tiresias_ahead_records_total",
        "Records dropped as further ahead than the admission bound.",
        &[],
        move || f.ahead(),
    );
    let f = front.clone();
    registry.counter_fn(
        "tiresias_wal_refusals_total",
        "Batches refused because the write-ahead log was unavailable.",
        &[],
        move || f.wal_errors(),
    );
    let f = front.clone();
    registry.gauge_fn(
        "tiresias_watermark_unit",
        "The open (not yet closed) timeunit; -1 until the stream anchors.",
        &[],
        move || f.watermark().map_or(-1.0, |w| w as f64),
    );
    let f = front.clone();
    registry.gauge_fn(
        "tiresias_ring_queued_records",
        "Records queued in the shard rings, summed over shards.",
        &[],
        move || f.ring_depths().iter().sum::<u64>() as f64,
    );
    let f = front.clone();
    registry.gauge_fn(
        "tiresias_open_records",
        "Records counted into the open timeunit, summed over shards.",
        &[],
        move || f.shard_open_records().iter().sum::<u64>() as f64,
    );
    let f = front.clone();
    registry.gauge_fn(
        "tiresias_stashed_records",
        "Future records stashed ahead of the watermark, summed over shards.",
        &[],
        move || f.stashed_records().iter().sum::<u64>() as f64,
    );

    // Skew-adaptive routing: barrier-applied label moves, the live
    // override-table size and the last measured worst/mean shard-load
    // ratio (1.0 = balanced, 0 = not yet measured).
    let f = front.clone();
    registry.counter_fn(
        "tiresias_rebalances_total",
        "Label reassignments applied at epoch barriers.",
        &[],
        move || f.rebalances(),
    );
    let f = front.clone();
    registry.gauge_fn(
        "tiresias_pinned_labels",
        "Labels pinned in the adaptive routing table.",
        &[],
        move || f.pinned_labels() as f64,
    );
    let f = front.clone();
    registry.gauge_fn(
        "tiresias_shard_balance",
        "Worst/mean per-shard load ratio of the last measured epoch.",
        &[],
        move || f.shard_balance(),
    );

    // Report store, behind its read-mostly lock (safe: render callers
    // never hold it).
    let r = reader.clone();
    registry.gauge_fn(
        "tiresias_retained_events",
        "Anomaly events retained in the in-memory report store.",
        &[],
        move || r.with(|s| s.len()) as f64,
    );
    let r = reader.clone();
    registry.counter_fn(
        "tiresias_evicted_events_total",
        "Anomaly events evicted from RAM by the retention budget.",
        &[],
        move || r.with(|s| s.evicted_events()),
    );

    // Subscriber hub.
    let h = Arc::clone(hub);
    registry.gauge_fn("tiresias_subscribers", "Live SUBSCRIBE sessions.", &[], move || {
        h.subscriber_count() as f64
    });
    let h = Arc::clone(hub);
    registry.counter_fn(
        "tiresias_subscriber_dropped_total",
        "Subscribers dropped for lagging behind the broadcast queue.",
        &[],
        move || h.dropped_slow(),
    );

    // Durability tier, when configured.
    if let Some(wal) = wal {
        let w = Arc::clone(wal);
        registry.counter_fn(
            "tiresias_wal_appended_frames_total",
            "Frames appended to the write-ahead log.",
            &[],
            move || w.last_seq(),
        );
        let w = Arc::clone(wal);
        registry.counter_fn(
            "tiresias_wal_fsyncs_total",
            "fsync calls issued by the write-ahead log.",
            &[],
            move || w.fsyncs(),
        );
        let w = Arc::clone(wal);
        registry.gauge_fn(
            "tiresias_wal_bytes",
            "Bytes in the live write-ahead-log segment chain.",
            &[],
            move || w.bytes() as f64,
        );
        let w = Arc::clone(wal);
        registry.gauge_fn(
            "tiresias_wal_segments",
            "Write-ahead-log segment files on disk.",
            &[],
            move || w.segment_count() as f64,
        );
    }
    if let Some(seg) = segments {
        let s = Arc::clone(seg);
        registry.gauge_fn(
            "tiresias_segment_files",
            "Retention-segment files on disk.",
            &[],
            move || s.file_count() as f64,
        );
        let s = Arc::clone(seg);
        registry.gauge_fn(
            "tiresias_segment_blocks",
            "Unit blocks archived across the retention segments.",
            &[],
            move || s.block_count() as f64,
        );
        let s = Arc::clone(seg);
        registry.gauge_fn(
            "tiresias_segment_bytes",
            "Bytes archived across the retention segments.",
            &[],
            move || s.bytes() as f64,
        );
    }

    ServerTelemetry { registry, query, catchup, broadcast, v2_decode, slow }
}
