//! Tiresias — online anomaly detection for hierarchical operational
//! network data (the end-to-end system of the paper's §IV, Fig. 3).
//!
//! The [`Tiresias`] detector consumes a stream of timestamped
//! [`Record`]s whose categories live in an additive hierarchy, and:
//!
//! 1. classifies them into **timeunits** of size Δ on a sliding window of
//!    ℓ units (Step 1),
//! 2. tracks the **succinct hierarchical heavy hitters** and their time
//!    series with the adaptive ADA algorithm (or the exact STA strawman)
//!    — Step 2, §V,
//! 3. optionally derives **seasonality** from the observed stream via
//!    FFT + wavelet analysis during warm-up (Step 3, §VI),
//! 4. forecasts each heavy hitter with an additive **Holt-Winters**
//!    model and flags an anomaly when the observed count exceeds the
//!    forecast by both a relative (`RT`) and an absolute (`DT`)
//!    threshold (Steps 4–5, Definition 4),
//! 5. records events in a queryable, retention-bounded [`ReportStore`]
//!    (Step 5's database + front-end, reduced to a library API), and
//! 6. keeps consuming new data online (Step 6).
//!
//! The crate also ships the **reference method** the paper compares
//! against in §VII-B — [`ControlChartDetector`], a Shewhart control
//! chart over first-level aggregates — plus the comparison metrics
//! ([`ComparisonReport`], [`ConfusionCounts`]) used by Tables V and VI.
//!
//! # Ingest APIs
//!
//! Three ways in, one pipeline behind them:
//!
//! * [`Tiresias::push_str`] — the **zero-allocation fast path** for
//!   operational feeds: a borrowed `/`-separated category plus a
//!   timestamp. Labels are interned in the tree, warm paths resolve
//!   with a single hash probe, and the open unit is counted into a
//!   recycled dense buffer — no heap allocation per record in steady
//!   state.
//! * [`Tiresias::push`] — the same semantics from an owned [`Record`]
//!   (byte-identical results; convenient when paths are already
//!   parsed).
//! * [`Tiresias::ingest_unit`] — whole pre-aggregated timeunits, for
//!   experiments that generate counts directly.
//! * [`Tiresias::push_batch`] — a validated batch of `(path, t)` pairs
//!   through the fast path; the natural unit for operational feeds.
//!
//! # Scaling out: the sharded engine
//!
//! [`ShardedTiresias`] (built with [`TiresiasBuilder::shards`] +
//! [`TiresiasBuilder::build_sharded`]) partitions the detector across N
//! worker shards by a deterministic hash of each record's top-level
//! label, ingests batches through per-shard SPSC ring buffers on scoped
//! worker threads, closes timeunits in parallel, and merges anomalies
//! into one deterministically ordered store. Its output is
//! **shard-count invariant**: 1, 2, 4 or 8 shards produce byte-identical
//! heavy hitter paths and anomaly streams (see the [`sharded`
//! module](ShardedTiresias) docs for the argument).
//!
//! # Serving: lock-free concurrent admission
//!
//! For live traffic, [`ShardedTiresias::into_live`] splits the engine
//! into a concurrently shareable front-end — cloneable
//! [`IngestHandle`]s that admit records with `&self` from any number
//! of threads, no engine-wide lock — and the serialized
//! [`LiveSharded`] back-end owning timeunit closes, anomaly merging
//! and the checkpoint lifecycle. An epoch/watermark barrier gives
//! every in-flight push a well-defined timeunit (see the
//! [`live` module](LiveSharded) docs); `tiresias-server` serves its
//! `PUSH` hot path through exactly this split.
//!
//! # Example
//!
//! ```
//! use tiresias_core::{Record, TiresiasBuilder};
//!
//! let mut detector = TiresiasBuilder::new()
//!     .timeunit_secs(900)       // 15-minute units, as in the paper
//!     .window_len(96)
//!     .threshold(5.0)
//!     .season_length(4)
//!     .sensitivity(2.8, 8.0)    // the paper's RT and DT
//!     .build()?;
//!
//! for t in 0..12u64 {
//!     let burst = if t == 11 { 80 } else { 8 };
//!     for i in 0..burst {
//!         detector.push(Record::new("TV/No Service", t * 900 + i))?;
//!     }
//!     detector.advance_to((t + 1) * 900)?;
//! }
//! assert!(detector.anomalies().iter().any(|a| a.path.to_string() == "TV/No Service"));
//! # Ok::<(), tiresias_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anomaly;
mod builder;
mod cells;
mod checkpoint;
mod counts;
mod detector;
mod error;
mod export;
mod fault;
mod live;
pub mod quality;
mod record;
mod reference_method;
mod ring;
mod segments;
mod sharded;
mod store;
mod telem;
#[cfg(test)]
mod testutil;
mod wal;

pub use anomaly::{is_anomalous, is_drop, AnomalyEvent, AnomalyKind};
pub use builder::{Algorithm, TiresiasBuilder};
pub use cells::RecordBatch;
pub use checkpoint::{
    load_checkpoint, load_checkpoint_meta, save_checkpoint, save_sharded_checkpoint,
    save_sharded_checkpoint_with_wal, save_single_checkpoint, CheckpointEngine, CHECKPOINT_VERSION,
};
pub use detector::{SubtreeState, Tiresias};
pub use error::CoreError;
pub use export::{events_to_csv, CSV_HEADER};
pub use fault::FaultFs;
pub use live::{Admission, IngestHandle, LiveSharded, ReportReader, DEFAULT_MAX_AHEAD_UNITS};
pub use quality::{ComparisonReport, ConfusionCounts};
pub use record::Record;
pub use reference_method::{ControlChartConfig, ControlChartDetector};
pub use segments::{SegmentStore, DEFAULT_SEGMENT_BYTES};
pub use sharded::{RebalanceConfig, ShardRouter, ShardedTiresias};
pub use store::ReportStore;
pub use telem::EngineTelemetry;
pub use wal::{
    crc32, encode_record, read_wal, Wal, WalEntry, WalRecovery, WalSyncPolicy,
    DEFAULT_WAL_SEGMENT_BYTES, FRAME_HEADER_BYTES, MAX_PATH_BYTES,
};

// Re-export the pieces callers need to configure the detector.
pub use tiresias_hhh::{HhhConfig, MemoryReport, ModelSpec, SplitRule, StageTimings};
pub use tiresias_timeseries::SeasonalFactor;
