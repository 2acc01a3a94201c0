//! Time-series substrate for Tiresias.
//!
//! Every heavy hitter tracked by Tiresias carries a bounded history of
//! observed counts plus a seasonal forecasting model. This crate provides
//! those pieces:
//!
//! * [`Series`] — a fixed-capacity ring buffer of `f64` samples with the
//!   elementwise linear operations (`scale`, `add`) that the ADA
//!   algorithm's split/merge adaptations rely on,
//! * [`Ewma`] — exponentially weighted moving-average forecasting,
//!   including the closed-form biased-split error decay of the paper's
//!   Eq. (1)–(2) / Fig. 9,
//! * [`HoltWinters`] / [`MultiSeasonalHoltWinters`] — the additive
//!   Holt-Winters seasonal model of §VI, with the 2υ-cycle initialisation
//!   and the linearity operations justified by the paper's Lemma 2,
//! * [`stats`] — small numeric helpers (mean, variance, quantiles,
//!   normalisation) shared across the workspace.
//!
//! # Example
//!
//! ```
//! use tiresias_timeseries::{Forecaster, HoltWinters};
//!
//! // A 4-sample season observed for two full cycles initialises the model.
//! let history = [10.0, 20.0, 30.0, 20.0, 12.0, 22.0, 32.0, 22.0];
//! let mut hw = HoltWinters::from_history(0.5, 0.1, 0.2, 4, &history)?;
//! let f = hw.forecast();
//! assert!((f - 11.0).abs() < 5.0, "forecast tracks the seasonal shape");
//! hw.observe(14.0);
//! # Ok::<(), tiresias_timeseries::TimeSeriesError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod ewma;
mod forecast;
mod holt_winters;
mod series;
pub mod stats;

pub use error::TimeSeriesError;
pub use ewma::{split_bias_relative_error, Ewma};
pub use forecast::{Forecaster, LinearForecaster};
pub use holt_winters::{HoltWinters, MultiSeasonalHoltWinters, SeasonalFactor};
pub use series::Series;
