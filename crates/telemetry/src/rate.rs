//! Monotonic-clock rate windows for `<something>/sec` readouts.
//!
//! [`RateMeter::observe`] turns a monotone total (e.g. records admitted
//! so far) into a rate over the window since the previous observation.
//! The clock is [`std::time::Instant`] — never the wall clock, which
//! steps under NTP — and the edge cases that used to corrupt `STATS
//! rps` are guarded explicitly: the first call has no window and
//! reports 0, a window shorter than [`MIN_WINDOW`] re-reports the last
//! rate instead of amplifying noise (or dividing by zero), and a
//! counter that appears to move backwards (a restarted source) resets
//! the window rather than reporting a negative rate.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Observations closer together than this re-report the previous rate:
/// below ~50 ms the quotient is mostly scheduling jitter.
pub const MIN_WINDOW: Duration = Duration::from_millis(50);

#[derive(Debug, Clone, Copy)]
struct RateState {
    prev_total: u64,
    prev_at: Instant,
    last_rate: f64,
}

/// A thread-safe windowed rate meter. See the `rate` module docs.
#[derive(Debug, Default)]
pub struct RateMeter {
    state: Mutex<Option<RateState>>,
}

impl RateMeter {
    /// Creates a meter with no observations yet.
    pub fn new() -> RateMeter {
        RateMeter::default()
    }

    /// Observes the current monotone `total` now and returns the rate
    /// per second over the window since the previous observation.
    pub fn observe(&self, total: u64) -> f64 {
        self.observe_at(total, Instant::now())
    }

    /// [`RateMeter::observe`] with an explicit clock reading, for
    /// tests. `now` readings must be monotone non-decreasing.
    pub fn observe_at(&self, total: u64, now: Instant) -> f64 {
        let mut state = self.state.lock().expect("rate meter lock never poisoned");
        let Some(prev) = *state else {
            // First call: no window exists yet, so there is no rate —
            // not a divide-by-zero.
            *state = Some(RateState { prev_total: total, prev_at: now, last_rate: 0.0 });
            return 0.0;
        };
        if total < prev.prev_total {
            // The source restarted (total regressed): restart the
            // window instead of reporting a negative rate.
            *state = Some(RateState { prev_total: total, prev_at: now, last_rate: 0.0 });
            return 0.0;
        }
        let elapsed = now.saturating_duration_since(prev.prev_at);
        if elapsed < MIN_WINDOW {
            // Too narrow to divide by: keep the previous window open
            // and re-report its rate.
            return prev.last_rate;
        }
        let rate = (total - prev.prev_total) as f64 / elapsed.as_secs_f64();
        *state = Some(RateState { prev_total: total, prev_at: now, last_rate: rate });
        rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_call_reports_zero_not_a_division() {
        let m = RateMeter::new();
        assert_eq!(m.observe_at(1_000_000, Instant::now()), 0.0);
    }

    #[test]
    fn rate_is_delta_over_window() {
        let m = RateMeter::new();
        let t0 = Instant::now();
        m.observe_at(1000, t0);
        let rate = m.observe_at(3000, t0 + Duration::from_secs(2));
        assert!((rate - 1000.0).abs() < 1e-9, "rate {rate}");
    }

    #[test]
    fn sub_window_calls_reuse_the_last_rate() {
        let m = RateMeter::new();
        let t0 = Instant::now();
        m.observe_at(0, t0);
        let rate = m.observe_at(500, t0 + Duration::from_secs(1));
        assert!((rate - 500.0).abs() < 1e-9);
        // 1 ms later: far under MIN_WINDOW — the previous rate holds,
        // and the open window is not consumed.
        let again = m.observe_at(501, t0 + Duration::from_secs(1) + Duration::from_millis(1));
        assert_eq!(again, rate);
        // The next full window measures from the last *accepted*
        // observation.
        let later = m.observe_at(700, t0 + Duration::from_secs(2));
        assert!((later - 200.0).abs() < 1e-9, "rate {later}");
    }

    #[test]
    fn identical_instants_do_not_divide_by_zero() {
        let m = RateMeter::new();
        let t0 = Instant::now();
        m.observe_at(10, t0);
        let rate = m.observe_at(20, t0);
        assert_eq!(rate, 0.0, "zero-width window re-reports the last rate");
    }

    #[test]
    fn regressing_totals_reset_instead_of_going_negative() {
        let m = RateMeter::new();
        let t0 = Instant::now();
        m.observe_at(1000, t0);
        let rate = m.observe_at(10, t0 + Duration::from_secs(1));
        assert_eq!(rate, 0.0);
        let next = m.observe_at(510, t0 + Duration::from_secs(2));
        assert!(next > 0.0, "the meter recovers after a reset");
    }
}
