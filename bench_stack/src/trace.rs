//! In-memory span recorder for the `--trace` run.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer — never inside the crates. They are kept in memory and
//! written out once the run ends, as Chrome trace-event JSON plus a
//! self-time table (a span's duration minus the part its child spans
//! cover). Offline spans are per unit, never per record, so the traced
//! run stays within a few percent of the untraced one; that overhead is
//! itself reported (`trace.overhead_pct`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root span.
    pub parent: u64,
    /// Which round of the run the span belongs to: spans of one round
    /// share it.
    pub run: u32,
    pub tid: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The recorder. A disabled tracer hands out inert guards, so the
/// untraced run pays one branch per would-be span.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);
thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str, parent: u64, run: u32) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { tracer: self, id: 0, parent, run, name, start_ns: 0 };
        }
        SpanGuard {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            run,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
        }
    }

    /// All spans recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock never poisoned").clone()
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    run: u32,
    name: &'static str,
    start_ns: u64,
}

impl SpanGuard<'_> {
    /// The id child spans name as their parent (0 when tracing is off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            run: self.run,
            tid: TID.with(|t| *t),
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.tracer.epoch.elapsed().as_nanos() as u64,
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Count, total and self time of every span of one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameRow {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self-time table by span name: a span's self time is its duration
/// minus the part of that interval its direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameRow> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    let bounds: BTreeMap<u64, (u64, u64)> =
        spans.iter().map(|s| (s.id, (s.start_ns, s.end_ns))).collect();
    for s in spans {
        if let Some(&(ps, pe)) = bounds.get(&s.parent) {
            let covered = s.end_ns.min(pe).saturating_sub(s.start_ns.max(ps));
            *child_ns.entry(s.parent).or_default() += covered;
        }
    }
    let mut rows: BTreeMap<&'static str, NameRow> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let row = rows.entry(s.name).or_default();
        row.count += 1;
        row.total_ns += dur;
        row.self_ns += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    rows
}

/// The layer a span belongs to: its name up to the last dot.
pub fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// Renders the self-time table, per span name and summed per layer.
pub fn render_table(spans: &[Span]) -> String {
    use std::fmt::Write;
    let rows = self_times(spans);
    let mut out = String::new();
    let _ = writeln!(out, "{:<34} {:>9} {:>12} {:>12}", "span", "count", "total_ms", "self_ms");
    let mut layers: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, row) in &rows {
        let _ = writeln!(
            out,
            "{:<34} {:>9} {:>12.3} {:>12.3}",
            name,
            row.count,
            row.total_ns as f64 / 1e6,
            row.self_ns as f64 / 1e6
        );
        *layers.entry(layer_of(name)).or_default() += row.self_ns;
    }
    let _ = writeln!(out, "{:<34} {:>35}", "layer", "self_ms");
    for (layer, self_ns) in layers {
        let _ = writeln!(out, "{:<34} {:>35.3}", layer, self_ns as f64 / 1e6);
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one
/// complete (`"ph":"X"`) event per span, timestamps in microseconds.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 120 + 32);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"run\":{}}}}}",
            s.name,
            layer_of(s.name),
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.tid,
            s.id,
            s.parent,
            s.run
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, run: 0, tid: 1, name, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(1, 0, "run.round", 0, 100),
            span(2, 1, "detector.push_unit", 10, 40),
            span(3, 1, "detector.close_unit", 40, 70),
            span(4, 3, "hhh.detect", 50, 60),
        ];
        let rows = self_times(&spans);
        assert_eq!(rows["run.round"], NameRow { count: 1, total_ns: 100, self_ns: 40 });
        assert_eq!(rows["detector.close_unit"].self_ns, 20);
        assert_eq!(rows["hhh.detect"].self_ns, 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let g = t.span("a.b", 0, 0);
            assert_eq!(g.id(), 0);
        }
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_links_children_and_renders_chrome_json() {
        let t = Tracer::new(true);
        {
            let root = t.span("run.round", 0, 3);
            let _child = t.span("detector.push_unit", root.id(), 3);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        // Children finish first.
        assert_eq!(spans[0].parent, spans[1].id);
        let json = chrome_json(&spans);
        assert!(serde_json::parse_value(&json).is_ok(), "{json}");
        assert!(json.contains("\"cat\":\"detector\""));
        assert_eq!(layer_of("core.detector.push_unit"), "core.detector");
    }
}
