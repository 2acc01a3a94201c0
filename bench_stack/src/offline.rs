//! The offline workloads: `Tiresias::push_str` + `advance_to` over a
//! generated stream, repeated in rounds (a fresh detector per round)
//! for the run's duration.

use std::time::{Duration, Instant};

use tiresias_core::{load_checkpoint, save_single_checkpoint, CheckpointEngine, Tiresias};

use crate::gen::{detector, Stream, TIMEUNIT};
use crate::oracle::{of_detector, Expected};
use crate::stats::{median, quantile, tail_quantile};
use crate::trace::Tracer;
use crate::Measured;

/// One round: the whole stream through a fresh detector. Returns the
/// detector, the timed window and each unit's close time.
fn round(
    stream: &Stream,
    tracer: &Tracer,
    run: u32,
    failed: &mut u64,
) -> (Tiresias, f64, Vec<f64>) {
    let mut t = detector(&stream.root_label).build().expect("static config is valid");
    let mut closes = Vec::with_capacity(stream.units.len());
    let root = tracer.span("run.round", 0, run);
    let w0 = Instant::now();
    for (u, unit) in stream.units.iter().enumerate() {
        {
            let _s = tracer.span("detector.push_unit", root.id(), run);
            for &(id, ts) in unit {
                if t.push_str(stream.path(id), ts).is_err() {
                    *failed += 1;
                }
            }
        }
        let _s = tracer.span("detector.close_unit", root.id(), run);
        let c0 = Instant::now();
        if t.advance_to((u as u64 + 1) * TIMEUNIT).is_err() {
            *failed += 1;
        }
        closes.push(c0.elapsed().as_secs_f64() * 1e3);
    }
    let window = w0.elapsed().as_secs_f64();
    drop(root);
    (t, window, closes)
}

/// Runs rounds until `seconds` of timed windows have accumulated (at
/// least one), alternating traced and untraced rounds when tracing so
/// the two can be compared, and checks every round against `expected`.
pub fn run(
    stream: &Stream,
    expected: &Expected,
    seconds: f64,
    restart_reps: usize,
    tracer: &Tracer,
) -> Measured {
    let mut m = Measured::default();
    let tail_q = tail_quantile(stream.units.len());
    let off = Tracer::new(false);
    let mut windows: Vec<f64> = Vec::new();
    let mut traced_windows: Vec<f64> = Vec::new();
    // Per untraced round: median and tail of its close times. The run
    // reports the median over rounds, so one disturbed round cannot
    // populate the tail.
    let (mut close_p50s, mut close_tails): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut close_shares: Vec<f64> = Vec::new();
    let mut last: Option<Tiresias> = None;
    let mut restart: Option<Restart> = None;
    let started = Instant::now();
    let mut n = 0u32;
    while n == 0 || started.elapsed().as_secs_f64() < seconds {
        let traced = tracer.enabled() && n % 2 == 1;
        let (t, window, round_closes) =
            round(stream, if traced { tracer } else { &off }, n, &mut m.failed);
        m.attempted += stream.records as u64;
        m.correct &= of_detector(&t) == *expected;
        // Measured once, after the first round: every round ends in the
        // same state, and the heap is then as every run finds it —
        // after many rounds its layout, and with it the time of an
        // allocation-heavy load, differs from process to process.
        if restart.is_none() {
            restart = Some(measure_restart(&t, expected, restart_reps, tracer, &mut m.correct));
        }
        close_shares.push(round_closes.iter().sum::<f64>() / 1e3 / window);
        if traced {
            traced_windows.push(window);
        } else {
            windows.push(window);
            close_p50s.push(median(&round_closes));
            close_tails.push(quantile(&round_closes, tail_q));
        }
        last = Some(t);
        n += 1;
    }
    let t = last.expect("at least one round ran");
    let window = median(&windows);
    let v = &mut m.values;
    v.set("records_per_s", stream.records as f64 / window);
    v.set("latency_p50_ms", median(&close_p50s));
    v.set("latency_tail_ms", median(&close_tails));
    let memory = t.memory_report();
    v.set("state_cells", memory.total_cells() as f64);
    let restart = restart.expect("measured after the first round");
    v.set("restart_s", median(&restart.loads_s));

    let close_share = median(&close_shares);
    let units = stream.units.len() as f64;
    v.set("detector.close_share", close_share);
    v.set("detector.close_ms_per_unit", window * close_share * 1e3 / units);
    v.set(
        "detector.push_ns_per_record",
        window * (1.0 - close_share) * 1e9 / stream.records as f64,
    );
    v.set("detector.heavy_hitters", memory.heavy_hitters as f64);
    v.set("detector.anomalies", t.anomalies().len() as f64);
    v.set("store.events", t.store().len() as f64);
    v.set("checkpoint.save_ms", restart.save_ms);
    v.set("checkpoint.load_ms", median(&restart.loads_s) * 1e3);
    v.set("checkpoint.bytes", restart.bytes as f64);
    if !traced_windows.is_empty() {
        v.set("trace.overhead_pct", (median(&traced_windows) / window - 1.0) * 100.0);
    }
    let timings = t.timings();
    m.notes.push(format!(
        "rounds={} window_s={:.4} (untraced rounds: min {:.4} max {:.4}) closes_per_round={} \
         tail=p{:.0} restarts_ms=[{}] stage_ms update_hierarchies={:.1} create_series={:.1} \
         detect={:.1}",
        windows.len() + traced_windows.len(),
        window,
        windows.iter().copied().fold(f64::MAX, f64::min),
        windows.iter().copied().fold(0.0, f64::max),
        stream.units.len(),
        tail_q * 100.0,
        restart.loads_s.iter().map(|r| format!("{:.1}", r * 1e3)).collect::<Vec<_>>().join(" "),
        ms(timings.updating_hierarchies),
        ms(timings.creating_time_series),
        ms(timings.detecting_anomalies),
    ));
    m
}

/// One checkpoint round trip of a finished detector.
struct Restart {
    save_ms: f64,
    bytes: usize,
    /// Seconds from the persisted JSON to the first answered query, per
    /// repetition.
    loads_s: Vec<f64>,
}

/// Restart: restore the persisted detector and answer the first query
/// from it, `reps` times.
fn measure_restart(
    t: &Tiresias,
    expected: &Expected,
    reps: usize,
    tracer: &Tracer,
    correct: &mut bool,
) -> Restart {
    let save0 = Instant::now();
    let json = save_single_checkpoint(t);
    let save_ms = save0.elapsed().as_secs_f64() * 1e3;
    let mut loads_s = Vec::new();
    for _ in 0..reps {
        let _s = tracer.span("checkpoint.load", 0, 0);
        let r0 = Instant::now();
        let Ok(CheckpointEngine::Single(restored)) = load_checkpoint(&json) else {
            *correct = false;
            break;
        };
        let events = restored.store().query(0, u64::MAX, None, None, usize::MAX).len();
        loads_s.push(r0.elapsed().as_secs_f64());
        *correct &= events == expected.events.len() && of_detector(&restored) == *expected;
    }
    Restart { save_ms, bytes: json.len(), loads_s }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
