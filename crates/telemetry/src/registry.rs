//! Metric registry: named counters, gauges and histograms with label
//! sets, rendered as Prometheus text or a JSON snapshot.
//!
//! A [`Registry`] is **per instance**, not process-global: every
//! `Server` or `Router` owns one, so tests can run several daemons in
//! one process without name collisions or cross-contamination. The hot
//! path never touches the registry — it holds `Arc`s to the metrics it
//! updates; the registry is only walked on the cold readout paths
//! (`GET /metrics`, `STATS JSON`).
//!
//! Derived metrics register as closures ([`Registry::counter_fn`] /
//! [`Registry::gauge_fn`]) over state the daemon already maintains
//! (atomic totals, queue depths), so exporting them needs no second
//! bookkeeping. Closures must not take locks a render caller could
//! already hold.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hist::{Histogram, HistogramSnapshot};
use crate::json;

/// A monotonically increasing counter. Lock-free: `inc`/`add` are one
/// relaxed atomic add.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge. Lock-free.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Sets the current value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The value half of a registered metric.
enum Metric {
    Counter(Arc<Counter>),
    CounterFn(Box<dyn Fn() -> u64 + Send + Sync>),
    Gauge(Arc<Gauge>),
    GaugeFn(Box<dyn Fn() -> f64 + Send + Sync>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) | Metric::CounterFn(_) => "counter",
            Metric::Gauge(_) | Metric::GaugeFn(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    name: &'static str,
    help: &'static str,
    labels: Vec<(String, String)>,
    metric: Metric,
}

/// Inclusive histogram exposition boundaries in nanoseconds: 1 µs to
/// 16 s in powers of four, a ladder wide enough for both sub-µs ring
/// hand-offs and multi-second fsync stalls. (Quantile readout uses the
/// full internal bucket resolution; these only shape the Prometheus
/// `le` series.)
const EXPO_BOUNDS_NS: [u64; 13] = [
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_000_000,
    4_000_000,
    16_000_000,
    64_000_000,
    256_000_000,
    1_000_000_000,
    4_000_000_000,
    16_000_000_000,
];

/// A per-instance metric registry. See the `registry` module docs.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entries = self.entries.lock().expect("registry lock never poisoned");
        f.debug_struct("Registry").field("metrics", &entries.len()).finish()
    }
}

fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn push(&self, entry: Entry) {
        self.entries.lock().expect("registry lock never poisoned").push(entry);
    }

    /// Registers and returns a new counter.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Counter> {
        let c = Arc::new(Counter::new());
        self.register_counter(name, help, labels, Arc::clone(&c));
        c
    }

    /// Registers an existing counter (shared with a hot path).
    pub fn register_counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        counter: Arc<Counter>,
    ) {
        self.push(Entry {
            name,
            help,
            labels: owned_labels(labels),
            metric: Metric::Counter(counter),
        });
    }

    /// Registers a derived counter read from a closure at render time.
    pub fn counter_fn(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.push(Entry {
            name,
            help,
            labels: owned_labels(labels),
            metric: Metric::CounterFn(Box::new(f)),
        });
    }

    /// Registers and returns a new gauge.
    pub fn gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Gauge> {
        let g = Arc::new(Gauge::new());
        self.push(Entry {
            name,
            help,
            labels: owned_labels(labels),
            metric: Metric::Gauge(Arc::clone(&g)),
        });
        g
    }

    /// Registers a derived gauge read from a closure at render time.
    pub fn gauge_fn(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        f: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        self.push(Entry {
            name,
            help,
            labels: owned_labels(labels),
            metric: Metric::GaugeFn(Box::new(f)),
        });
    }

    /// Registers and returns a new histogram.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        let h = Arc::new(Histogram::new());
        self.register_histogram(name, help, labels, Arc::clone(&h));
        h
    }

    /// Registers an existing histogram (shared with a hot path).
    pub fn register_histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        hist: Arc<Histogram>,
    ) {
        self.push(Entry {
            name,
            help,
            labels: owned_labels(labels),
            metric: Metric::Histogram(hist),
        });
    }

    /// Renders every metric in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` once per family, escaped
    /// label values, histograms as cumulative `_bucket{le=…}` series
    /// (ending at `+Inf`) plus `_sum` (seconds) and `_count`.
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries.lock().expect("registry lock never poisoned");
        let mut out = String::with_capacity(4096);
        // Families render together in first-registration order.
        let mut families: Vec<&'static str> = Vec::new();
        for e in entries.iter() {
            if !families.contains(&e.name) {
                families.push(e.name);
            }
        }
        for family in families {
            let mut first = true;
            for e in entries.iter().filter(|e| e.name == family) {
                if first {
                    out.push_str(&format!(
                        "# HELP {family} {}\n# TYPE {family} {}\n",
                        escape_help(e.help),
                        e.metric.type_name()
                    ));
                    first = false;
                }
                render_prometheus_entry(&mut out, e);
            }
        }
        out
    }

    /// Renders a JSON snapshot of every metric — the machine-parseable
    /// twin of the Prometheus text (the `STATS JSON` reply is exactly
    /// this line). Histogram latencies are reported in milliseconds.
    pub fn render_json(&self) -> String {
        let entries = self.entries.lock().expect("registry lock never poisoned");
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut hists = Vec::new();
        for e in entries.iter() {
            let head = format!(
                "{{\"name\":{},\"labels\":{}",
                json::string(e.name),
                labels_json(&e.labels)
            );
            match &e.metric {
                Metric::Counter(c) => counters.push(format!("{head},\"value\":{}}}", c.get())),
                Metric::CounterFn(f) => counters.push(format!("{head},\"value\":{}}}", f())),
                Metric::Gauge(g) => gauges.push(format!("{head},\"value\":{}}}", g.get())),
                Metric::GaugeFn(f) => {
                    gauges.push(format!("{head},\"value\":{}}}", json::number(f())));
                }
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    hists.push(format!(
                        "{head},\"count\":{},\"mean_ms\":{},\"p50_ms\":{},\"p90_ms\":{},\
                         \"p99_ms\":{},\"p999_ms\":{},\"max_ms\":{}}}",
                        s.count(),
                        json::number(s.mean() / 1e6),
                        json::number(ms(&s, 0.50)),
                        json::number(ms(&s, 0.90)),
                        json::number(ms(&s, 0.99)),
                        json::number(ms(&s, 0.999)),
                        json::number(s.max() as f64 / 1e6),
                    ));
                }
            }
        }
        format!(
            "{{\"counters\":[{}],\"gauges\":[{}],\"histograms\":[{}]}}",
            counters.join(","),
            gauges.join(","),
            hists.join(",")
        )
    }
}

fn ms(s: &HistogramSnapshot, q: f64) -> f64 {
    s.quantile(q) as f64 / 1e6
}

fn labels_json(labels: &[(String, String)]) -> String {
    let body: Vec<String> =
        labels.iter().map(|(k, v)| format!("{}:{}", json::string(k), json::string(v))).collect();
    format!("{{{}}}", body.join(","))
}

/// `# HELP` text escaping: backslash and newline.
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Label *value* escaping: backslash, double quote, newline.
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// `{k="v",…}` rendering of a label set, with `extra` appended (for
/// the histogram `le` label); empty when there are no labels.
fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn render_prometheus_entry(out: &mut String, e: &Entry) {
    let labels = label_block(&e.labels, None);
    match &e.metric {
        Metric::Counter(c) => out.push_str(&format!("{}{labels} {}\n", e.name, c.get())),
        Metric::CounterFn(f) => out.push_str(&format!("{}{labels} {}\n", e.name, f())),
        Metric::Gauge(g) => out.push_str(&format!("{}{labels} {}\n", e.name, g.get())),
        Metric::GaugeFn(f) => {
            out.push_str(&format!("{}{labels} {}\n", e.name, json::number(f())));
        }
        Metric::Histogram(h) => {
            let s = h.snapshot();
            let cum = s.cumulative_le(&EXPO_BOUNDS_NS);
            for (&bound, &c) in EXPO_BOUNDS_NS.iter().zip(&cum) {
                let le = json::number(bound as f64 / 1e9);
                let lb = label_block(&e.labels, Some(("le", &le)));
                out.push_str(&format!("{}_bucket{lb} {c}\n", e.name));
            }
            let lb = label_block(&e.labels, Some(("le", "+Inf")));
            out.push_str(&format!("{}_bucket{lb} {}\n", e.name, s.count()));
            out.push_str(&format!(
                "{}_sum{labels} {}\n",
                e.name,
                json::number(s.sum() as f64 / 1e9)
            ));
            out.push_str(&format!("{}_count{labels} {}\n", e.name, s.count()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render() {
        let reg = Registry::new();
        let c = reg.counter("t_ops_total", "Ops so far.", &[]);
        c.add(3);
        let g = reg.gauge("t_depth", "Queue depth.", &[("node", "a:1")]);
        g.set(7);
        reg.gauge_fn("t_derived", "Derived.", &[], || 1.5);
        let text = reg.render_prometheus();
        assert!(text.contains("# HELP t_ops_total Ops so far.\n"), "{text}");
        assert!(text.contains("# TYPE t_ops_total counter\n"), "{text}");
        assert!(text.contains("t_ops_total 3\n"), "{text}");
        assert!(text.contains("t_depth{node=\"a:1\"} 7\n"), "{text}");
        assert!(text.contains("t_derived 1.5\n"), "{text}");
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("t_lat_seconds", "Latency.", &[]);
        h.record(2_000); // 2µs
        h.record(2_000_000); // 2ms
        h.record(2_000_000_000); // 2s
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE t_lat_seconds histogram\n"), "{text}");
        assert!(text.contains("t_lat_seconds_bucket{le=\"0.000004\"} 1\n"), "{text}");
        assert!(text.contains("t_lat_seconds_bucket{le=\"+Inf\"} 3\n"), "{text}");
        assert!(text.contains("t_lat_seconds_count 3\n"), "{text}");
    }

    #[test]
    fn label_values_escape() {
        let reg = Registry::new();
        reg.counter("t_esc_total", "Escapes.", &[("p", "a\"b\\c\nd")]);
        let text = reg.render_prometheus();
        assert!(text.contains("t_esc_total{p=\"a\\\"b\\\\c\\nd\"} 0\n"), "{text}");
    }

    #[test]
    fn json_snapshot_has_all_sections() {
        let reg = Registry::new();
        reg.counter("t_a_total", "A.", &[]).inc();
        reg.gauge("t_b", "B.", &[]).set(2);
        reg.histogram("t_c_seconds", "C.", &[]).record(1_000_000);
        let json = reg.render_json();
        assert!(json.contains("\"counters\":[{\"name\":\"t_a_total\""), "{json}");
        assert!(json.contains("\"value\":1"), "{json}");
        assert!(json.contains("\"histograms\":[{\"name\":\"t_c_seconds\""), "{json}");
        assert!(json.contains("\"p99_ms\":"), "{json}");
    }
}
