//! `selfcheck`: runs every workload several times on this build, each
//! time with another seed and in alternating order, and applies the
//! regression driver's own acceptance rule to what it sees — the
//! interquartile distance of every end-to-end metric, as a share of its
//! median, must stay within the metric's bound.

use crate::report::END_TO_END;
use crate::stats::{iqr_share, median, quartiles_exclusive};
use crate::{run_workload, RunOpts, Workload};

/// Runs the check; `false` if any run failed, any output mismatched,
/// one seed gave two different inputs, or a spread exceeded its bound.
pub fn run(runs: usize, opts: &RunOpts) -> bool {
    let runs = runs.max(2);
    let mut ok = true;
    // values[workload][metric] = one value per run.
    let mut values = vec![vec![Vec::<f64>::new(); END_TO_END.len()]; Workload::ALL.len()];
    // Exact counts of the first seed, to compare with its repeat.
    let mut first_counts = vec![(0.0, 0.0); Workload::ALL.len()];
    // One extra pass repeats the first seed: same seed, same inputs.
    for pass in 0..=runs {
        let repeat = pass == runs;
        let seed = opts.seed + if repeat { 0 } else { pass as u64 };
        let mut order: Vec<usize> = (0..Workload::ALL.len()).collect();
        if pass % 2 == 1 {
            order.reverse();
        }
        for wi in order {
            let w = Workload::ALL[wi];
            let run_opts = RunOpts { seed, trace: false, trace_out: None, ..opts.clone() };
            let outcome = match run_workload(w, &run_opts) {
                Ok(outcome) => outcome,
                Err(e) => {
                    eprintln!("selfcheck: {} seed {seed}: {e}", w.name());
                    ok = false;
                    continue;
                }
            };
            eprintln!(
                "selfcheck: pass {pass} {} seed {seed}: output_match={} failed={}",
                w.name(),
                u8::from(outcome.correct),
                outcome.failed
            );
            ok &= outcome.correct && outcome.failed == 0;
            let counts = (outcome.values.get("state_cells"), outcome.values.get("datagen.records"));
            if pass == 0 {
                first_counts[wi] = counts;
            }
            if repeat {
                if counts != first_counts[wi] {
                    println!(
                        "{}: seed {seed} gave state_cells/records {:?} then {:?}",
                        w.name(),
                        first_counts[wi],
                        counts
                    );
                    ok = false;
                }
                continue;
            }
            for (mi, metric) in END_TO_END.iter().enumerate() {
                values[wi][mi].push(outcome.values.get(metric.name));
            }
        }
    }

    println!(
        "{:<20} {:<16} {:>14} {:>14} {:>14} {:>8} {:>9} {:>6}  verdict",
        "workload", "metric", "median", "q1", "q3", "iqr/med", "range/med", "bound"
    );
    let mut widest = vec![0.0f64; END_TO_END.len()];
    for (wi, w) in Workload::ALL.iter().enumerate() {
        for (mi, metric) in END_TO_END.iter().enumerate() {
            let xs = &values[wi][mi];
            if xs.is_empty() {
                continue;
            }
            let m = median(xs);
            let (q1, q3) = quartiles_exclusive(xs);
            let spread = iqr_share(xs);
            let (lo, hi) =
                xs.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            let range = if m == 0.0 { 0.0 } else { (hi - lo) / m.abs() };
            // `setup_s` is exempt from the spread rule (its median must
            // still not drift by more than its bound).
            let within = spread <= metric.bound || metric.name == "setup_s";
            ok &= within;
            widest[mi] = widest[mi].max(spread);
            println!(
                "{:<20} {:<16} {:>14.4} {:>14.4} {:>14.4} {:>8.4} {:>9.4} {:>6.2}  {}",
                w.name(),
                metric.name,
                m,
                q1,
                q3,
                spread,
                range,
                metric.bound,
                if within { "ok" } else { "SPREAD EXCEEDS BOUND" }
            );
        }
    }
    println!("bounds to paste into BENCHMARK.json (three times the widest spread seen, at least 0.05, at most 0.25):");
    for (mi, metric) in END_TO_END.iter().enumerate() {
        let suggested = ((widest[mi] * 3.0 * 100.0).ceil() / 100.0).clamp(0.05, 0.25);
        println!(
            "  {:<16} widest iqr/median {:.4} -> bound {:.2}{}",
            metric.name,
            widest[mi],
            suggested,
            if widest[mi] * 3.0 > 0.25 {
                "  (spread above a third of the cap: steady it or demote it)"
            } else {
                ""
            }
        );
    }
    ok
}
