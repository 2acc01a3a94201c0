//! Hierarchical heavy hitter detection — the algorithmic core of Tiresias
//! (§III and §V of the paper).
//!
//! Given a stream of operational records classified against an additive
//! hierarchy, Tiresias tracks the set of **Succinct Hierarchical Heavy
//! Hitters** (SHHH, Definition 2): nodes whose *modified weight* — the
//! count remaining after discounting descendants that are themselves
//! heavy hitters — reaches a threshold θ. Each heavy hitter carries a
//! bounded time series of its modified weights plus a forecasting model;
//! anomalies are spikes of the observed count over the forecast.
//!
//! Two maintenance algorithms are provided:
//!
//! * [`Sta`] — the strawman (Fig. 4): keep all ℓ per-timeunit count
//!   vectors and rebuild every heavy hitter's time series from scratch at
//!   each time instance. Exact, but Θ(ℓ·|tree|) per instance.
//! * [`Ada`] — the adaptive scheme (Fig. 5–8): keep a single tree whose
//!   heavy hitter nodes own their series and forecaster state, and move
//!   that state through the hierarchy with `SPLIT` (scale down to
//!   children, §V-B4) and `MERGE` (sum into the parent) operations as the
//!   heavy hitter set drifts. Each instance touches only its frontier —
//!   the nodes counted this unit or the last, last unit's heavy hitters
//!   and their ancestors — and each series update is Θ(1) amortised, at
//!   the cost of small, exponentially decaying series error (Fig. 9) —
//!   reducible further with **reference time series** kept for the top
//!   `h` levels (§V-B5).
//!
//! The heavy-hitter membership produced by [`Ada`] is always exactly the
//! Definition-2 set (the paper's Lemma 1); only the *series contents* are
//! approximate after splits.
//!
//! # Example
//!
//! ```
//! use tiresias_hierarchy::Tree;
//! use tiresias_hhh::{compute_shhh, ShhhResult};
//!
//! let mut tree = Tree::new("All");
//! let a = tree.insert_path(&["TV", "No Service"]);
//! let b = tree.insert_path(&["TV", "Pixelation"]);
//! let mut direct = vec![0.0; tree.len()];
//! direct[a.index()] = 30.0; // heavy leaf
//! direct[b.index()] = 4.0;
//! let ShhhResult { members, modified, .. } = compute_shhh(&tree, &direct, 10.0);
//! let tv = tree.find(&["TV"]).unwrap();
//! assert!(members.contains(&a));
//! // TV's modified weight discounts the heavy child: only 4 remains.
//! assert_eq!(modified[tv.index()], 4.0);
//! assert!(!members.contains(&tv));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ada;
mod config;
mod error;
mod memory;
mod model;
mod multiscale;
mod shhh;
mod split_rule;
mod sta;
mod surgery;
mod timings;

pub use ada::{Ada, AdaSlice, HeavyHitterView};
pub use config::HhhConfig;
pub use error::HhhError;
pub use memory::MemoryReport;
pub use model::{Model, ModelSpec};
pub use multiscale::{MultiScaleAda, MultiScaleConfig};
pub use shhh::{
    aggregate_weights, aggregate_weights_into, compute_shhh, compute_shhh_into, series_values,
    ShhhResult,
};
pub use split_rule::{SplitRule, SplitStats, StatRow};
pub use sta::{Sta, StaSlice};
pub use timings::StageTimings;
