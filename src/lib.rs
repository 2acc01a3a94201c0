//! # Tiresias
//!
//! Online anomaly detection for hierarchical operational network data — a
//! from-scratch Rust reproduction of *Hong, Caesar, Duffield, Wang:
//! "Tiresias: Online Anomaly Detection for Hierarchical Operational
//! Network Data", ICDCS 2012*.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`hierarchy`] — additive category hierarchies ([`Tree`],
//!   [`CategoryPath`], [`HierarchySpec`]),
//! * [`timeseries`] — ring-buffer series, EWMA and Holt-Winters seasonal
//!   forecasting,
//! * [`spectral`] — FFT periodograms and à-trous wavelet seasonality
//!   analysis,
//! * [`sketch`] — the Space-Saving top-k summary for very large leaf
//!   spaces,
//! * [`hhh`] — succinct hierarchical heavy hitters, the strawman `Sta`
//!   and the adaptive `Ada` maintenance algorithms,
//! * [`datagen`] — synthetic CCD/SCD operational-data generators with
//!   ground-truth anomaly injection,
//! * [`core`] — the end-to-end streaming detector ([`Tiresias`]),
//! * [`server`] — the live streaming-ingestion TCP daemon over the
//!   sharded engine (`tiresias serve`).
//!
//! # Quickstart
//!
//! ```
//! use tiresias::core::{Record, TiresiasBuilder};
//!
//! // A tiny detector: 8 timeunits of history, 1-hour timeunits,
//! // heavy-hitter threshold 5, and a short daily season of 4 units.
//! let mut detector = TiresiasBuilder::new()
//!     .timeunit_secs(3600)
//!     .window_len(8)
//!     .threshold(5.0)
//!     .season_length(4)
//!     .sensitivity(2.0, 4.0)
//!     .build()?;
//!
//! // Feed steady history, then a burst in the most recent timeunit.
//! for t in 0..16u64 {
//!     let n = if t == 15 { 60 } else { 6 };
//!     for i in 0..n {
//!         detector.push(Record::new("TV/No Service", t * 3600 + i))?;
//!     }
//!     detector.advance_to((t + 1) * 3600)?;
//! }
//! let anomalies = detector.anomalies();
//! assert!(!anomalies.is_empty(), "the burst is flagged");
//! # Ok::<(), tiresias::core::CoreError>(())
//! ```

pub use tiresias_core as core;
pub use tiresias_datagen as datagen;
pub use tiresias_hhh as hhh;
pub use tiresias_hierarchy as hierarchy;
pub use tiresias_server as server;
pub use tiresias_sketch as sketch;
pub use tiresias_spectral as spectral;
pub use tiresias_timeseries as timeseries;

pub use tiresias_core::{Tiresias, TiresiasBuilder};
pub use tiresias_hierarchy::{CategoryPath, HierarchySpec, Tree};
