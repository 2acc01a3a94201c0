//! Streaming sketch substrate for Tiresias.
//!
//! The paper's lineage (§VIII) is the streaming heavy-hitter literature:
//! count-min sketches (Cormode & Muthukrishnan), sketch-based change
//! detection (Krishnamurthy et al.) and hierarchical heavy hitter
//! mining. This crate provides the candidate generator from that line,
//! implemented from scratch, for deployments whose leaf spaces are too
//! large to keep exact per-leaf counters (the full-scale SCD hierarchy
//! has ≈360 000 set-top boxes):
//!
//! * [`SpaceSaving`] — the top-k counter that answers *which* keys are
//!   currently heavy, with deterministic error bounds.
//!
//! Space-Saving proposes the candidate heavy leaves per timeunit, the
//! exact stream scores them, and the resulting sparse count vector
//! feeds the exact SHHH machinery of `tiresias-hhh` — approximating only
//! the leaf tail that cannot matter to any θ-heavy hitter.
//!
//! # Example
//!
//! ```
//! use tiresias_sketch::SpaceSaving;
//!
//! let mut top = SpaceSaving::new(8);
//! for (key, count) in [(10u64, 500), (77, 300), (3, 4), (9, 2)] {
//!     for _ in 0..count {
//!         top.add(key, 1);
//!     }
//! }
//! assert!(top.estimate(10) >= 500); // never under-estimates
//! let heavy: Vec<u64> = top.top(2).iter().map(|e| e.key).collect();
//! assert_eq!(heavy, vec![10, 77]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod space_saving;

pub use space_saving::{SpaceSaving, TopEntry};
