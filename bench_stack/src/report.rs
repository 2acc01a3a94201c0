//! The metric tables (mirrored in `BENCHMARK.json`), the per-run
//! outcome, and its rendering: a readable report followed by the one
//! JSON line the regression driver parses.

use std::collections::BTreeMap;

/// One end-to-end metric: name, unit, direction and the share of the
/// parent's median by which it may worsen before a change is rejected.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// The end-to-end metrics, reported by every workload on the untraced
/// run. `latency_p50_ms`/`latency_tail_ms` are the workload's headline
/// latency and its tail — see [`crate::Workload::latency_meaning`].
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "records_per_s", unit: "1/s", better: "higher", bound: 0.15 },
    EndToEnd { name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "latency_tail_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "restart_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "state_cells", unit: "cells", better: "lower", bound: 0.25 },
];

/// The per-layer metrics, reported by every workload on the traced
/// run; a metric a workload cannot observe reads 0. `probe` marks the
/// ones measured by the layer probes on a slice of the dense stream
/// (identical procedure on every workload) rather than read off the
/// traced workload run itself.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub probe: bool,
    /// Costs, backlogs and failures are better lower; only useful work
    /// delivered is better higher. Counts that merely describe the
    /// input (records, nodes) carry "lower" and no judgement.
    pub better: &'static str,
}

const fn run(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, probe: false, better: "lower" }
}

const fn probe(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, probe: true, better: "lower" }
}

impl PerLayer {
    const fn higher(self) -> PerLayer {
        PerLayer { better: "higher", ..self }
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    run("datagen.records", "count"),
    run("datagen.gen_s", "s"),
    run("datagen.late_p90_ms", "ms"),
    run("datagen.client_cpu_share", "ratio"),
    probe("hierarchy.resolve_ns_per_record", "ns"),
    probe("hierarchy.insert_ns_per_node", "ns"),
    run("hierarchy.nodes", "count"),
    run("hierarchy.labels", "count"),
    probe("protocol.text_parse_ns_per_record", "ns"),
    probe("protocol.text_bytes_per_record", "B"),
    probe("v2.encode_ns_per_record", "ns"),
    probe("v2.decode_ns_per_record", "ns"),
    probe("v2.bytes_per_record", "B"),
    probe("v2.dict_entries", "count"),
    probe("v2.frames", "count"),
    run("detector.push_ns_per_record", "ns"),
    run("detector.close_ms_per_unit", "ms"),
    run("detector.close_share", "ratio"),
    run("detector.heavy_hitters", "count"),
    run("detector.anomalies", "count"),
    probe("hhh.push_timeunit_us", "us"),
    probe("hhh.update_hierarchies_us_per_unit", "us"),
    probe("hhh.create_series_us_per_unit", "us"),
    probe("hhh.detect_us_per_unit", "us"),
    probe("hhh.series_cells", "cells"),
    probe("hhh.reference_cells", "cells"),
    probe("timeseries.hw_step_ns", "ns"),
    probe("spectral.seasonality_ms", "ms"),
    probe("sketch.space_saving_ns_per_update", "ns"),
    probe("telemetry.hist_record_ns", "ns"),
    probe("sharded.push_ns_per_record", "ns"),
    probe("sharded.close_ms_per_unit", "ms"),
    probe("sharded.router_busy_s", "s"),
    probe("sharded.shard_busy_max_s", "s"),
    probe("sharded.busy_ratio", "ratio"),
    probe("sharded.critical_path_s_modeled", "s"),
    run("sharded.rebalances", "count"),
    run("live.admit_p50_us", "us"),
    run("live.close_p50_ms", "ms"),
    run("live.ring_depth_max", "count"),
    run("live.pending_end", "count"),
    run("live.late", "count"),
    run("live.ahead", "count"),
    probe("wal.append_ns_per_record", "ns"),
    probe("wal.bytes_per_record", "B"),
    probe("wal.replay_ns_per_record", "ns"),
    probe("wal.fsyncs", "count"),
    probe("wal.errors", "count"),
    run("checkpoint.save_ms", "ms"),
    run("checkpoint.load_ms", "ms"),
    run("checkpoint.bytes", "B"),
    probe("store.query_ns", "ns"),
    run("store.events", "count"),
    run("segments.units", "count"),
    run("server.fence_wait_ms_per_unit", "ms"),
    probe("server.serve_tax_ns_per_record", "ns"),
    run("hub.dropped_slow", "count"),
    run("hub.events_delivered", "count").higher(),
    probe("route.forward_ns_per_record", "ns"),
    run("route.buffered", "count"),
    run("route.replayed", "count"),
    run("route.degraded_queries", "count"),
    run("trace.spans", "count"),
    run("trace.overhead_pct", "%"),
    probe("ledger.parse_text_ns", "ns"),
    probe("ledger.decode_v2_ns", "ns"),
    probe("ledger.hierarchy_ns", "ns"),
    probe("ledger.detector_ns", "ns"),
    probe("ledger.sharded_ns", "ns"),
    probe("ledger.wal_none_ns", "ns"),
    probe("ledger.wal_interval_ns", "ns"),
    probe("ledger.serve_text_ns", "ns"),
    probe("ledger.serve_v2_ns", "ns"),
    probe("ledger.routed_v2_ns", "ns"),
    probe("ledger.unaccounted_ns", "ns"),
];

/// How the regression driver invokes the benchmark, from the root of a
/// checkout (it appends `--workload … --seed … --seconds … --trace …`).
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "bench_stack/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, rendered from the tables above so the file and the
/// program cannot drift apart (a test compares them).
pub fn manifest_json() -> String {
    let quoted =
        |items: &[&str]| items.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(", ");
    let workloads: Vec<String> = crate::Workload::ALL
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why()))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"bench_stack\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(COMMAND),
        crate::DEFAULT_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

/// Named values, filled in as a run measures them.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "metric `{name}` is not in the tables"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn extend(&mut self, other: Values) {
        self.0.extend(other.0);
    }
}

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Outputs equal the offline single-engine replay of the same
    /// records (`output_match`).
    pub correct: bool,
    /// Operations attempted: records sent, queries issued, events
    /// expected.
    pub attempted: u64,
    /// Operations that failed: late or refused records, `ERR` replies,
    /// failed or mismatched queries, expected events never received,
    /// subscribers dropped as slow.
    pub failed: u64,
    pub values: Values,
    /// Context lines for the readable report (counts, config, notes).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The readable report: every metric of this run by name, with its
    /// unit.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} seed={} trace={} host_cores={}",
            self.workload,
            self.seed,
            u8::from(self.traced),
            host_cores()
        );
        for note in &self.notes {
            let _ = writeln!(out, "   {note}");
        }
        let _ = writeln!(out, "   {:<40} {:>16} 0/1", "output_match", u8::from(self.correct));
        let _ = writeln!(
            out,
            "   {:<40} {:>16.6} ratio ({} of {})",
            "failed_share",
            self.failed_share(),
            self.failed,
            self.attempted
        );
        if self.traced {
            for m in PER_LAYER {
                let source = if m.probe { "probe" } else { "run" };
                let _ = writeln!(
                    out,
                    "   {:<40} {:>16.4} {:<6} [{source}]",
                    m.name,
                    self.values.get(m.name),
                    m.unit
                );
            }
        } else {
            for m in END_TO_END {
                let _ = writeln!(
                    out,
                    "   {:<40} {:>16.4} {:<6} [{} is better, bound {:.0}%]",
                    m.name,
                    self.values.get(m.name),
                    m.unit,
                    m.better,
                    m.bound * 100.0
                );
            }
        }
        out
    }

    /// The last line of standard output: exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = if self.traced {
            PER_LAYER.iter().map(|m| metric_json(m.name, self.values.get(m.name), m.unit)).collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| metric_json(m.name, self.values.get(m.name), m.unit))
                .collect()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    // JSON has no NaN/inf; a metric that could not be computed reads 0.
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_carries_exactly_the_contract_keys() {
        let mut values = Values::default();
        values.set("setup_s", 0.5);
        let outcome = Outcome {
            workload: "replay_dense",
            seed: 1,
            traced: false,
            correct: true,
            attempted: 10,
            failed: 0,
            values,
            notes: vec![],
        };
        let parsed = serde_json::parse_value(&outcome.json_line()).expect("valid JSON");
        let serde::Value::Map(entries) = parsed else { panic!("object expected") };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let serde::Value::Map(metrics) = &entries[3].1 else { panic!("metrics object") };
        assert_eq!(metrics.len(), END_TO_END.len());
    }

    /// `BENCHMARK.json` at the repository root is what `manifest` prints,
    /// and stays inside the contract's limits.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(on_disk, manifest_json(), "regenerate it with `bench_stack manifest`");
        assert!(on_disk.len() <= 64 * 1024);
        let parsed = serde_json::parse_value(&on_disk).expect("valid JSON");
        let serde::Value::Map(entries) = parsed else { panic!("object expected") };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        for w in crate::Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{}", w.name());
        }
        for m in END_TO_END {
            assert!(m.bound <= 0.25 && m.unit.len() <= 16);
        }
        assert!(END_TO_END.iter().any(|m| (m.name, m.unit, m.better) == ("setup_s", "s", "lower")));
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
        for name in &names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(PER_LAYER.len() <= 128);
    }
}
