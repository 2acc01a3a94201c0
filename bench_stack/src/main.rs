//! `bench_stack` — one benchmark for the whole record path.
//!
//! ```text
//! bench_stack --workload <name> --seed <n> --seconds <s> --trace <0|1>   (the regression driver's form)
//! bench_stack run --workload <name> --seed <n> [--seconds <s>] [--trace [--trace-out <file>]]
//! bench_stack all [--seed <n>] [--seconds <s>] [--trace]
//! bench_stack selfcheck [--runs 5] [--seconds <s>]
//! bench_stack manifest
//! ```
//!
//! See `README.md` beside this package for the workloads, the metrics
//! and how to read the ledger and the trace.

mod client;
mod gen;
mod offline;
mod oracle;
mod probes;
mod report;
mod selfcheck;
mod served;
mod stats;
mod trace;

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gen::{Stream, StreamSpec, TreeKind};
use oracle::Expected;
use report::{Outcome, Values};
use served::{Deploy, Deployment, Pace, Served, Traffic};
use trace::Tracer;

/// How often set-up is repeated in a run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;
/// How often restart is repeated in a run; `restart_s` is the median.
pub const RESTART_REPS: usize = 7;
/// Seconds one run measures unless `--seconds` says otherwise (the
/// `run_seconds` of `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 10.0;
/// Fixed offered rate of `serve_paced`, records per second of wall
/// time — roughly 40% of what `serve_v2_bulk` absorbs on the 2-core
/// reference host.
pub const PACED_RECORDS_PER_S: f64 = 1_000_000.0;

/// The six workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReplayDense,
    ReplayWide,
    ServeV2Bulk,
    ServeTextDurable,
    ServePaced,
    RoutedV2,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::ReplayDense,
        Workload::ReplayWide,
        Workload::ServeV2Bulk,
        Workload::ServeTextDurable,
        Workload::ServePaced,
        Workload::RoutedV2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayDense => "replay_dense",
            Workload::ReplayWide => "replay_wide",
            Workload::ServeV2Bulk => "serve_v2_bulk",
            Workload::ServeTextDurable => "serve_text_durable",
            Workload::ServePaced => "serve_paced",
            Workload::RoutedV2 => "routed_v2",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: which layers it stresses and which it
    /// bypasses (one line, recorded in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ReplayDense => {
                "Offline push_str+advance_to, small dense CCD trouble tree: per-record ingest (path \
                 scan, intern, count) is >80% of the time, so hierarchy/ingest work shows and \
                 ADA/forecast work does not."
            }
            Workload::ReplayWide => {
                "Offline replay, sparse 46k-node location tree at low rate: unit closes (ADA \
                 split/merge, series, Holt-Winters) are >90% of the time, the mirror of \
                 replay_dense; restart loads a 46k-node checkpoint."
            }
            Workload::ServeV2Bulk => {
                "The replay_dense stream into a 2-shard Server on loopback, 2 closed-loop wire-v2 \
                 clients, WAL off: adds socket, v2 decode, admission, rings, scheduler closes; \
                 bypasses text parsing and the WAL."
            }
            Workload::ServeTextDurable => {
                "Text writer with per-flush fences into a durable Server (WAL, interval sync) \
                 beside a QUERY reader with 1 ms think time: text parse, WAL, reads beside writes; \
                 latency is the QUERY round trip."
            }
            Workload::ServePaced => {
                "Open loop: 1.0M records/s on a fixed wall-clock schedule (50 ms a unit), Zipf 0.9 \
                 skew, rebalance on, one subscriber: the only workload whose result is latency, \
                 timed from when records were due."
            }
            Workload::RoutedV2 => {
                "The serve_v2_bulk stream through a Router over two 1-shard Servers: isolates \
                 per-label forwarding and per-node re-framing in server::route, which every other \
                 workload bypasses."
            }
        }
    }

    /// What `latency_p50_ms` / `latency_tail_ms` measure on this
    /// workload: its headline latency, as the median and the highest
    /// percentile one round's sample supports with ten samples beyond
    /// it ([`stats::tail_quantile`]); both are medians over rounds.
    pub fn latency_meaning(self) -> &'static str {
        match self {
            Workload::ReplayDense => {
                "wall time of each advance_to that closes a unit (p50; tail p95 of 200 a round)"
            }
            Workload::ReplayWide => {
                "wall time of each advance_to that closes a unit (p50; tail p99 of 1056 a round)"
            }
            Workload::ServeV2Bulk | Workload::RoutedV2 => {
                "time a bulk client waits for a DATA frame's ack (p50; tail p95 of ~400 a round)"
            }
            Workload::ServeTextDurable => {
                "QUERY round trip while ingest runs (p50; tail p95 of ~700 a round)"
            }
            Workload::ServePaced => {
                "detect lag: event arrival at the subscriber minus (the next unit's first \
                 record's due time + grace) (p50; tail p90 of ~190 units with events)"
            }
        }
    }

    /// The stream this workload sends at full scale; `paced_seconds`
    /// is how long one open-loop pass of `serve_paced` lasts.
    fn stream_spec(self, paced_seconds: f64) -> StreamSpec {
        let dense = StreamSpec {
            tree: TreeKind::Trouble,
            units: 200,
            base_rate: 32_000.0,
            top_skew: 0.0,
            burst_every: 24,
            burst_share: 0.25,
        };
        match self {
            Workload::ReplayDense | Workload::ServeV2Bulk | Workload::RoutedV2 => dense,
            Workload::ReplayWide => StreamSpec {
                tree: TreeKind::Location(1.0),
                units: 1056,
                base_rate: 300.0,
                top_skew: 0.0,
                burst_every: 40,
                burst_share: 0.5,
            },
            Workload::ServeTextDurable => StreamSpec {
                tree: TreeKind::Location(0.2),
                units: 200,
                base_rate: 8_000.0,
                top_skew: 0.0,
                burst_every: 24,
                burst_share: 0.25,
            },
            Workload::ServePaced => StreamSpec {
                tree: TreeKind::Trouble,
                units: (paced_seconds / PACE.unit_wall.as_secs_f64()).round().max(16.0) as usize,
                // The seasonal curve averages ~0.87 of its base rate.
                base_rate: PACED_RECORDS_PER_S * PACE.unit_wall.as_secs_f64() / 0.87,
                top_skew: 0.9,
                burst_every: 1,
                burst_share: 0.1,
            },
        }
    }

    fn deploy(self) -> Option<Deploy> {
        let bulk = Deploy {
            shards: 2,
            grace: Duration::from_millis(50),
            tick: Duration::from_millis(5),
            durable: false,
            rebalance: false,
            routed: false,
        };
        match self {
            Workload::ReplayDense | Workload::ReplayWide => None,
            Workload::ServeV2Bulk => Some(bulk),
            Workload::ServeTextDurable => Some(Deploy { durable: true, ..bulk }),
            Workload::ServePaced => Some(Deploy {
                grace: Duration::from_millis(20),
                tick: Duration::from_millis(2),
                rebalance: true,
                ..bulk
            }),
            Workload::RoutedV2 => Some(Deploy { routed: true, ..bulk }),
        }
    }
}

/// The open-loop schedule of `serve_paced`: one detector unit per 50 ms
/// of wall time, sent as five frames 10 ms apart. The grace window
/// (20 ms) plus a scheduler tick (2 ms) fits inside a unit, so a close
/// never reaches into a unit that is still being sent.
pub const PACE: Pace = Pace { unit_wall: Duration::from_millis(50), frames_per_unit: 5 };

/// How to run one workload once.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
    /// Share of the full input size; below 1 only in the smoke tests.
    pub scale: f64,
}

impl RunOpts {
    /// How often a repeated measurement (set-up, restart) is taken:
    /// `full` times, once in the scaled-down smoke tests.
    fn reps(&self, full: usize) -> usize {
        if self.scale < 1.0 {
            1
        } else {
            full
        }
    }
}

/// What a workload's measured phase reports back.
pub struct Measured {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    pub notes: Vec<String>,
}

impl Default for Measured {
    fn default() -> Self {
        Measured {
            correct: true,
            attempted: 0,
            failed: 0,
            values: Values::default(),
            notes: Vec::new(),
        }
    }
}

fn scaled(spec: StreamSpec, scale: f64) -> StreamSpec {
    if scale >= 1.0 {
        return spec;
    }
    let k = scale.sqrt();
    StreamSpec {
        tree: match spec.tree {
            TreeKind::Location(s) => TreeKind::Location((s * k).max(0.05)),
            tree => tree,
        },
        units: ((spec.units as f64 * k).round() as usize).max(gen::WARMUP_UNITS + 24),
        base_rate: (spec.base_rate * k).max(150.0),
        ..spec
    }
}

/// Everything before the timed window, built from the seed.
struct Inputs {
    stream: Stream,
    /// The pre-encoded wire bytes of a served workload.
    traffic: Option<Traffic>,
}

/// One set-up: generate the inputs, pre-encode the wire bytes, bring a
/// deployment up. Returns the inputs and the seconds it took (the
/// deployment's stop is not set-up and is not timed).
fn set_up(w: Workload, opts: &RunOpts, dir: &Path) -> io::Result<(Inputs, f64)> {
    let t0 = Instant::now();
    // Traced, `serve_paced` runs two passes (untraced, then traced) of
    // half the length each.
    let paced_seconds = if opts.trace { opts.seconds / 2.0 } else { opts.seconds };
    let spec = scaled(w.stream_spec(paced_seconds), opts.scale);
    let stream = gen::generate(&spec, opts.seed);
    let traffic = match w {
        Workload::ReplayDense | Workload::ReplayWide => None,
        Workload::ServeV2Bulk | Workload::RoutedV2 => Some(Traffic::V2(gen::encode_v2(&stream, 2))),
        Workload::ServeTextDurable => {
            Some(Traffic::TextWithReader(gen::encode_text(&stream, served::TEXT_FLUSH_LINES, true)))
        }
        Workload::ServePaced => Some(Traffic::Paced(PACE, served::encode_paced(&stream, &PACE))),
    };
    let inputs = Inputs { stream, traffic };
    let deployment = match w.deploy() {
        Some(deploy) => Some(Deployment::start(&inputs.stream, &deploy, dir)?),
        None => None,
    };
    let setup_s = t0.elapsed().as_secs_f64();
    if let Some(d) = deployment {
        d.stop()?;
    }
    Ok((inputs, setup_s))
}

/// A scratch directory inside the build tree (so inside the checkout),
/// removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> io::Result<WorkDir> {
        use std::sync::atomic::{AtomicU32, Ordering};
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let base = match std::env::current_exe()?.parent() {
            Some(dir) => dir.to_path_buf(),
            None => std::env::current_dir()?,
        };
        let dir = base.join("bench_stack_work").join(format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload once: set-up (several times, median reported),
/// the oracle, the measured phase, and — traced — the layer probes.
pub fn run_workload(w: Workload, opts: &RunOpts) -> io::Result<Outcome> {
    let work = WorkDir::create()?;
    let tracer = Tracer::new(opts.trace);

    let mut setups = Vec::new();
    let mut inputs = None;
    for rep in 0..opts.reps(SETUP_REPS) {
        let _s = tracer.span("datagen.set_up", 0, rep as u32);
        let (built, setup_s) = set_up(w, opts, &work.0.join(format!("setup{rep}")))?;
        setups.push(setup_s);
        inputs.get_or_insert(built);
    }
    let inputs = inputs.expect("at least one set-up ran");
    let stream = &inputs.stream;

    let expected: Expected = {
        let _s = tracer.span("oracle.replay", 0, 0);
        match w.deploy() {
            None => oracle::single_engine(stream),
            Some(_) => oracle::single_shard(stream),
        }
    };

    let restart_reps = opts.reps(RESTART_REPS);
    let mut m = match (w.deploy(), &inputs.traffic) {
        (Some(deploy), Some(traffic)) => Served {
            stream,
            expected: &expected,
            deploy: &deploy,
            work: &work.0,
            restart_reps,
            tracer: &tracer,
        }
        .run(traffic, opts.seconds)?,
        _ => offline::run(stream, &expected, opts.seconds, restart_reps, &tracer),
    };

    m.values.set("setup_s", stats::median(&setups));
    m.values.set("datagen.records", stream.records as f64);
    m.values.set("datagen.gen_s", stream.gen_s);
    m.values.set("hierarchy.nodes", stream.tree_nodes as f64);
    m.values.set("hierarchy.labels", stream.top_labels as f64);
    m.notes.insert(
        0,
        format!(
            "records={} units={} paths={} tree_nodes={} top_labels={} expected_events={} \
             expected_heavy_hitters={} latency={}",
            stream.records,
            stream.units.len(),
            stream.paths.len(),
            stream.tree_nodes,
            stream.top_labels,
            expected.events.len(),
            expected.heavy_hitters.len(),
            w.latency_meaning(),
        ),
    );

    if opts.trace {
        m.values.extend(probes::run(opts.seed, opts.scale, &work.0, &tracer)?);
        let spans = tracer.spans();
        m.values.set("trace.spans", spans.len() as f64);
        m.notes.push(format!("self-time table:\n{}", trace::render_table(&spans)));
        if let Some(path) = &opts.trace_out {
            std::fs::write(path, trace::chrome_json(&spans))?;
            m.notes.push(format!("trace written to {}", path.display()));
        }
    }

    Ok(Outcome {
        workload: w.name(),
        seed: opts.seed,
        traced: opts.trace,
        correct: m.correct && m.failed == 0,
        attempted: m.attempted,
        failed: m.failed,
        values: m.values,
        notes: m.notes,
    })
}

const USAGE: &str = "usage:
  bench_stack --workload <name> --seed <n> --seconds <s> --trace <0|1>
  bench_stack run --workload <name> --seed <n> [--seconds <s>] [--trace [--trace-out <file>]]
  bench_stack all [--seed <n>] [--seconds <s>] [--trace]
  bench_stack selfcheck [--runs <n>] [--seconds <s>]
  bench_stack manifest        (prints BENCHMARK.json from the metric tables)
workloads: replay_dense replay_wide serve_v2_bulk serve_text_durable serve_paced routed_v2";

struct Cli {
    command: String,
    workload: Option<Workload>,
    opts: RunOpts,
    runs: usize,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: "run".to_string(),
        workload: None,
        opts: RunOpts {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            trace_out: None,
            scale: 1.0,
        },
        runs: 5,
    };
    let mut i = 0;
    if let Some(first) = args.first() {
        if ["run", "all", "selfcheck", "manifest"].contains(&first.as_str()) {
            cli.command = first.clone();
            i = 1;
        }
    }
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let name = value(&mut i, "--workload")?;
                cli.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                cli.opts.seed =
                    value(&mut i, "--seed")?.parse().map_err(|_| "--seed needs an integer")?;
            }
            "--seconds" => {
                cli.opts.seconds =
                    value(&mut i, "--seconds")?.parse().map_err(|_| "--seconds needs a number")?;
                if !(cli.opts.seconds > 0.0 && cli.opts.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--runs" => {
                cli.runs =
                    value(&mut i, "--runs")?.parse().map_err(|_| "--runs needs an integer")?;
            }
            "--trace" => {
                // `--trace 0|1` (the driver's form) or a bare `--trace`.
                cli.opts.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--trace-out" => cli.opts.trace_out = Some(value(&mut i, "--trace-out")?.into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if cli.command == "run" && cli.workload.is_none() {
        return Err("--workload is required".to_string());
    }
    Ok(cli)
}

/// Runs `w`, prints its report and its JSON line; `false` on a failed
/// or incorrect run.
fn run_and_print(w: Workload, opts: &RunOpts) -> bool {
    match run_workload(w, opts) {
        Ok(outcome) => {
            print!("{}", outcome.render());
            println!("{}", outcome.json_line());
            outcome.correct
        }
        Err(e) => {
            eprintln!("bench_stack: {}: {e}", w.name());
            false
        }
    }
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("bench_stack: {why}\n{USAGE}");
            return std::process::ExitCode::from(2);
        }
    };
    let ok = match cli.command.as_str() {
        "run" => run_and_print(cli.workload.expect("checked by parse_cli"), &cli.opts),
        "all" => {
            // Every workload runs even after one fails.
            Workload::ALL.map(|w| run_and_print(w, &cli.opts)).iter().all(|&ok| ok)
        }
        "manifest" => {
            print!("{}", report::manifest_json());
            true
        }
        _ => selfcheck::run(cli.runs, &cli.opts),
    };
    if ok {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_form_and_subcommands_parse() {
        let cli =
            parse_cli(&args("--workload replay_wide --seed 7 --seconds 3 --trace 0")).unwrap();
        assert_eq!((cli.command.as_str(), cli.workload), ("run", Some(Workload::ReplayWide)));
        assert_eq!((cli.opts.seed, cli.opts.seconds, cli.opts.trace), (7, 3.0, false));
        let cli =
            parse_cli(&args("run --workload serve_paced --trace --trace-out t.json")).unwrap();
        assert!(cli.opts.trace && cli.opts.trace_out.is_some());
        assert!(parse_cli(&args("--workload routed_v2 --trace 1")).unwrap().opts.trace);
        assert_eq!(parse_cli(&args("selfcheck --runs 3")).unwrap().runs, 3);
        assert!(parse_cli(&args("run")).is_err());
        assert!(parse_cli(&args("--workload nope")).is_err());
        assert!(parse_cli(&args("--workload replay_wide --seconds 0")).is_err());
    }

    fn smoke(w: Workload, seed: u64) -> Outcome {
        let opts = RunOpts { seed, seconds: 0.05, trace: false, trace_out: None, scale: 0.01 };
        run_workload(w, &opts).expect("the workload runs")
    }

    /// One workload at ~1% scale: the oracle holds, nothing fails, and
    /// the inputs are a function of the seed alone. One test per
    /// workload, so the harness runs them side by side.
    fn smoke_matches_the_oracle_and_follows_the_seed(w: Workload) {
        let [a, b, c] = std::thread::scope(|scope| {
            [11, 11, 12]
                .map(|seed| scope.spawn(move || smoke(w, seed)))
                .map(|run| run.join().unwrap())
        });
        for o in [&a, &b, &c] {
            assert!(o.correct, "{}: output_match = 0\n{}", w.name(), o.render());
            assert_eq!(o.failed, 0, "{}: failed_share > 0\n{}", w.name(), o.render());
        }
        for name in ["datagen.records", "state_cells"] {
            assert_eq!(a.values.get(name), b.values.get(name), "{} {name}", w.name());
            assert_ne!(a.values.get(name), c.values.get(name), "{} {name}", w.name());
            assert!(a.values.get(name) > 0.0, "{} {name}", w.name());
        }
    }

    #[test]
    fn smoke_replay_dense() {
        smoke_matches_the_oracle_and_follows_the_seed(Workload::ReplayDense);
    }

    #[test]
    fn smoke_replay_wide() {
        smoke_matches_the_oracle_and_follows_the_seed(Workload::ReplayWide);
    }

    #[test]
    fn smoke_serve_v2_bulk() {
        smoke_matches_the_oracle_and_follows_the_seed(Workload::ServeV2Bulk);
    }

    #[test]
    fn smoke_serve_text_durable() {
        smoke_matches_the_oracle_and_follows_the_seed(Workload::ServeTextDurable);
    }

    #[test]
    fn smoke_serve_paced() {
        smoke_matches_the_oracle_and_follows_the_seed(Workload::ServePaced);
    }

    #[test]
    fn smoke_routed_v2() {
        smoke_matches_the_oracle_and_follows_the_seed(Workload::RoutedV2);
    }
}
