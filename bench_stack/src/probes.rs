//! Layer probes and the ns/record ledger of the `--trace` run.
//!
//! Every probe times one layer's public calls on the same input: the
//! first [`SLICE_UNITS`] units of the dense stream of this seed. The
//! ledger pushes that slice through each boundary of the record path in
//! turn — parse, decode, hierarchy, detector, sharded engine, WAL,
//! loopback socket, router — and reports ns/record per rung, so the
//! delta a rung adds is the difference of two numbers measured the same
//! way. Figures labelled `modeled` are computed from measured busy
//! times, not observed as wall time.

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use tiresias_core::{encode_record, read_wal, Tiresias, Wal, WalSyncPolicy};
use tiresias_hhh::{Ada, HhhConfig, ModelSpec};
use tiresias_hierarchy::{first_segment_hash, Tree};
use tiresias_server::protocol::{parse_request, v2, Request};
use tiresias_sketch::SpaceSaving;
use tiresias_spectral::SeasonalityAnalysis;
use tiresias_telemetry::Histogram;
use tiresias_timeseries::{Forecaster, HoltWinters};

use crate::client::{parse_frame_ack, LineConn};
use crate::gen::{self, detector, Stream, StreamSpec, TreeKind, TIMEUNIT, WARMUP_UNITS};
use crate::report::Values;
use crate::served::{Deploy, Deployment};
use crate::trace::Tracer;

/// Units of the dense stream the probes run on (half a day).
pub const SLICE_UNITS: usize = 48;

fn ns_per(d: Duration, n: usize) -> f64 {
    d.as_secs_f64() * 1e9 / n.max(1) as f64
}

/// Runs every probe and the ledger.
pub fn run(seed: u64, scale: f64, work: &Path, tracer: &Tracer) -> io::Result<Values> {
    let spec = StreamSpec {
        tree: TreeKind::Trouble,
        units: SLICE_UNITS,
        base_rate: (32_000.0 * scale.sqrt()).max(150.0),
        top_skew: 0.0,
        burst_every: 0,
        burst_share: 0.0,
    };
    let stream = gen::generate(&spec, seed);
    let mut v = Values::default();

    let hierarchy_ns = probe_hierarchy(&stream, &mut v, tracer);
    let parse_ns = probe_text(&stream, &mut v, tracer);
    let decode_ns = probe_v2(&stream, &mut v, tracer);
    let (detector_ns, finished) = probe_detector(&stream, tracer);
    probe_hhh(&stream, &mut v, tracer);
    probe_micro(&stream, &mut v, tracer);
    let sharded_ns = probe_sharded(&stream, &mut v, tracer);
    let wal_none_ns =
        probe_wal(&stream, WalSyncPolicy::Never, &work.join("wal-none"), None, tracer)?;
    let wal_interval_ns = probe_wal(
        &stream,
        WalSyncPolicy::Interval(WalSyncPolicy::DEFAULT_INTERVAL),
        &work.join("wal-interval"),
        Some(&mut v),
        tracer,
    )?;
    probe_store(&finished, &mut v, tracer);

    let serve_text_ns =
        ledger_served(&stream, Wire::Text, false, &work.join("ledger-text"), tracer)?;
    let serve_v2_ns = ledger_served(&stream, Wire::V2, false, &work.join("ledger-v2"), tracer)?;
    let routed_v2_ns = ledger_served(&stream, Wire::V2, true, &work.join("ledger-routed"), tracer)?;

    v.set("ledger.parse_text_ns", parse_ns);
    v.set("ledger.decode_v2_ns", decode_ns);
    v.set("ledger.hierarchy_ns", hierarchy_ns);
    v.set("ledger.detector_ns", detector_ns);
    v.set("ledger.sharded_ns", sharded_ns);
    v.set("ledger.wal_none_ns", wal_none_ns);
    v.set("ledger.wal_interval_ns", wal_interval_ns);
    v.set("ledger.serve_text_ns", serve_text_ns);
    v.set("ledger.serve_v2_ns", serve_v2_ns);
    v.set("ledger.routed_v2_ns", routed_v2_ns);
    // End to end (v2 into the served two-shard engine) minus the parts
    // measured on their own: what sockets, admission, rings and thread
    // hand-offs cost beyond decoding and the offline engine.
    v.set("ledger.unaccounted_ns", serve_v2_ns - decode_ns - sharded_ns);
    v.set("server.serve_tax_ns_per_record", serve_v2_ns - sharded_ns);
    v.set("route.forward_ns_per_record", routed_v2_ns - serve_v2_ns);
    Ok(v)
}

/// `Tree::insert_str` on a growing tree, `resolve_str` on the built one.
fn probe_hierarchy(stream: &Stream, v: &mut Values, tracer: &Tracer) -> f64 {
    let _s = tracer.span("hierarchy.insert_resolve", 0, 0);
    let mut tree = Tree::new(stream.root_label.as_str());
    let t0 = Instant::now();
    for path in &stream.paths {
        black_box(tree.insert_str(path));
    }
    v.set("hierarchy.insert_ns_per_node", ns_per(t0.elapsed(), tree.len() - 1));

    // The ledger rung: every record interned into a fresh tree, as the
    // detector's ingest path does.
    let mut fresh = Tree::new(stream.root_label.as_str());
    let t0 = Instant::now();
    for unit in &stream.units {
        for &(id, _) in unit {
            black_box(fresh.insert_str(stream.path(id)));
        }
    }
    let insert_ns = ns_per(t0.elapsed(), stream.records);

    let t0 = Instant::now();
    for unit in &stream.units {
        for &(id, _) in unit {
            black_box(tree.resolve_str(stream.path(id)));
        }
    }
    v.set("hierarchy.resolve_ns_per_record", ns_per(t0.elapsed(), stream.records));
    insert_ns
}

/// `parse_request` over the stream as `PUSH` lines.
fn probe_text(stream: &Stream, v: &mut Values, tracer: &Tracer) -> f64 {
    let chunks = gen::encode_text(stream, usize::MAX, false);
    let bytes: usize = chunks.iter().map(|c| c.bytes.len()).sum();
    let lines: usize = chunks.iter().map(|c| c.records).sum();
    let _s = tracer.span("protocol.parse_request", 0, 0);
    let t0 = Instant::now();
    let mut pushes = 0usize;
    for chunk in &chunks {
        let text = std::str::from_utf8(&chunk.bytes).expect("generated lines are UTF-8");
        for line in text.lines() {
            if let Ok(Some(Request::Push { .. })) = black_box(parse_request(line)) {
                pushes += 1;
            }
        }
    }
    let parse_ns = ns_per(t0.elapsed(), lines);
    assert_eq!(pushes, lines, "every generated line parses as a PUSH");
    v.set("protocol.text_parse_ns_per_record", parse_ns);
    v.set("protocol.text_bytes_per_record", bytes as f64 / lines as f64);
    parse_ns
}

/// `FrameEncoder` one way, `decode_header` + CRC + `decode_dict` +
/// `records` the other, one DATA frame per unit.
fn probe_v2(stream: &Stream, v: &mut Values, tracer: &Tracer) -> f64 {
    let t0 = Instant::now();
    let frames = {
        let _s = tracer.span("protocol.v2.encode", 0, 0);
        gen::encode_v2(stream, 1).pop().expect("one client")
    };
    let sent: usize = frames.iter().map(|f| f.records).sum();
    v.set("v2.encode_ns_per_record", ns_per(t0.elapsed(), sent));
    let bytes: usize = frames.iter().map(|f| f.bytes.len()).sum();

    let _s = tracer.span("protocol.v2.decode", 0, 0);
    let mut dict: Vec<String> = Vec::new();
    let mut decoded = 0usize;
    let t0 = Instant::now();
    for frame in &frames {
        let (head, payload) = frame.bytes.split_at(v2::HEADER_BYTES);
        let header = v2::decode_header(head.try_into().expect("header-sized slice"))
            .expect("generated header is valid");
        assert_eq!(v2::crc32(payload), header.payload_crc, "generated payload CRC");
        let (_, offset) = v2::decode_dict(payload, &mut dict).expect("generated dictionary");
        for item in v2::records(payload, offset, dict.len()).expect("generated records") {
            let (id, t) = item.expect("generated record");
            black_box((&dict[id as usize], t));
            decoded += 1;
        }
    }
    let decode_ns = ns_per(t0.elapsed(), decoded);
    assert_eq!(decoded, sent);
    v.set("v2.decode_ns_per_record", decode_ns);
    v.set("v2.bytes_per_record", bytes as f64 / sent as f64);
    v.set("v2.dict_entries", dict.len() as f64);
    v.set("v2.frames", frames.len() as f64);
    decode_ns
}

/// The detector rung: `push_str` + `advance_to` over the slice.
fn probe_detector(stream: &Stream, tracer: &Tracer) -> (f64, Tiresias) {
    let _s = tracer.span("core.detector.replay", 0, 0);
    let mut t = detector(&stream.root_label).build().expect("static config is valid");
    let t0 = Instant::now();
    for (u, unit) in stream.units.iter().enumerate() {
        for &(id, ts) in unit {
            t.push_str(stream.path(id), ts).expect("generated stream is in order");
        }
        t.advance_to((u as u64 + 1) * TIMEUNIT).expect("close");
    }
    (ns_per(t0.elapsed(), stream.records), t)
}

/// `Ada::push_timeunit` on pre-aggregated units, with the tracker's own
/// stage timings.
fn probe_hhh(stream: &Stream, v: &mut Values, tracer: &Tracer) {
    let mut tree = Tree::new(stream.root_label.as_str());
    let nodes: Vec<usize> = stream.paths.iter().map(|p| tree.insert_str(p).index()).collect();
    let units: Vec<Vec<f64>> = stream
        .units
        .iter()
        .map(|unit| {
            let mut direct = vec![0.0; tree.len()];
            for &(id, _) in unit {
                direct[nodes[id as usize]] += 1.0;
            }
            direct
        })
        .collect();
    let config = HhhConfig::new(10.0, 96)
        .with_model(ModelSpec::HoltWinters { alpha: 0.5, beta: 0.05, gamma: 0.3, season: 24 })
        .with_ref_levels(2);
    let (warm, live) = units.split_at(WARMUP_UNITS.min(units.len()));
    let mut ada = Ada::with_history(config, &tree, warm).expect("static config is valid");
    let before = ada.timings();
    let _s = tracer.span("hhh.push_timeunit", 0, 0);
    let t0 = Instant::now();
    for unit in live {
        ada.push_timeunit(&tree, unit);
    }
    let elapsed = t0.elapsed();
    let after = ada.timings();
    let per_unit = |d: Duration| d.as_secs_f64() * 1e6 / live.len().max(1) as f64;
    v.set("hhh.push_timeunit_us", per_unit(elapsed));
    v.set(
        "hhh.update_hierarchies_us_per_unit",
        per_unit(after.updating_hierarchies - before.updating_hierarchies),
    );
    v.set(
        "hhh.create_series_us_per_unit",
        per_unit(after.creating_time_series - before.creating_time_series),
    );
    v.set(
        "hhh.detect_us_per_unit",
        per_unit(after.detecting_anomalies.saturating_sub(before.detecting_anomalies)),
    );
    let memory = ada.memory_report(&tree);
    v.set("hhh.series_cells", memory.series_cells as f64);
    v.set("hhh.reference_cells", memory.reference_cells as f64);
}

/// The one call each of the small layers contributes to the path.
fn probe_micro(stream: &Stream, v: &mut Values, tracer: &Tracer) {
    const STEPS: usize = 200_000;
    let totals: Vec<f64> = stream.units.iter().map(|u| u.len() as f64).collect();
    {
        let _s = tracer.span("timeseries.hw_step", 0, 0);
        let mut hw = HoltWinters::new(0.5, 0.05, 0.3, totals[0], 0.0, vec![0.0; 24])
            .expect("static parameters are valid");
        let t0 = Instant::now();
        for i in 0..STEPS {
            black_box(hw.forecast());
            hw.observe(totals[i % totals.len()]);
        }
        v.set("timeseries.hw_step_ns", ns_per(t0.elapsed(), STEPS));
    }
    {
        let _s = tracer.span("spectral.seasonality", 0, 0);
        let series: Vec<f64> = (0..2048).map(|i| totals[i % totals.len()]).collect();
        let t0 = Instant::now();
        black_box(SeasonalityAnalysis::analyze(&series, 3));
        v.set("spectral.seasonality_ms", t0.elapsed().as_secs_f64() * 1e3);
    }
    {
        let _s = tracer.span("sketch.space_saving", 0, 0);
        let hashes: Vec<u64> = stream.paths.iter().map(|p| first_segment_hash(p)).collect();
        let mut sketch = SpaceSaving::new(32);
        let t0 = Instant::now();
        for i in 0..STEPS {
            sketch.add(hashes[i % hashes.len()], 1);
        }
        black_box(sketch.total());
        v.set("sketch.space_saving_ns_per_update", ns_per(t0.elapsed(), STEPS));
    }
    {
        let _s = tracer.span("telemetry.hist_record", 0, 0);
        let hist = Histogram::new();
        let t0 = Instant::now();
        for i in 0..STEPS {
            hist.record(black_box(1_000 + i as u64 * 37));
        }
        black_box(hist.count());
        v.set("telemetry.hist_record_ns", ns_per(t0.elapsed(), STEPS));
    }
}

/// `ShardedTiresias` with two shards: the threaded engine for wall
/// time, the inline executor for per-shard busy time.
fn probe_sharded(stream: &Stream, v: &mut Values, tracer: &Tracer) -> f64 {
    let batches: Vec<Vec<(&str, u64)>> =
        (0..stream.units.len()).map(|u| stream.client_unit(u, 0, 1).collect()).collect();
    let replay = |threaded: bool| {
        let mut e =
            detector(&stream.root_label).shards(2).build_sharded().expect("static config is valid");
        e.set_threaded(threaded);
        let (mut push, mut close) = (Duration::ZERO, Duration::ZERO);
        for (u, batch) in batches.iter().enumerate() {
            let t0 = Instant::now();
            e.push_batch(batch).expect("generated stream is in order");
            push += t0.elapsed();
            let t0 = Instant::now();
            e.advance_to((u as u64 + 1) * TIMEUNIT).expect("close");
            close += t0.elapsed();
        }
        (e, push, close)
    };
    let (threaded, push, close) = {
        let _s = tracer.span("core.sharded.threaded", 0, 0);
        replay(true)
    };
    v.set("sharded.push_ns_per_record", ns_per(push, stream.records));
    v.set("sharded.close_ms_per_unit", close.as_secs_f64() * 1e3 / stream.units.len() as f64);
    black_box(&threaded);
    let (inline, _, _) = {
        let _s = tracer.span("core.sharded.inline", 0, 0);
        replay(false)
    };
    let busy: Vec<f64> = inline.shard_busy().iter().map(Duration::as_secs_f64).collect();
    let worst = busy.iter().copied().fold(0.0, f64::max);
    let router = inline.router_busy().as_secs_f64();
    v.set("sharded.router_busy_s", router);
    v.set("sharded.shard_busy_max_s", worst);
    v.set("sharded.busy_ratio", worst / (busy.iter().sum::<f64>() / busy.len() as f64));
    // Modeled: the wall time a host with a core per shard would need —
    // the slower of the router and the busiest shard.
    v.set("sharded.critical_path_s_modeled", worst.max(router));
    ns_per(push + close, stream.records)
}

/// `Wal::open`, one `append_batch_raw` per unit (records encoded with
/// `encode_record`, as admission does), the policy's sync hook per
/// unit, a final `sync_now`, then `read_wal`.
fn probe_wal(
    stream: &Stream,
    policy: WalSyncPolicy,
    dir: &Path,
    v: Option<&mut Values>,
    tracer: &Tracer,
) -> io::Result<f64> {
    let _s = tracer.span("core.wal.append", 0, 0);
    let (wal, _) = Wal::open(dir, policy, tiresias_core::DEFAULT_WAL_SEGMENT_BYTES)?;
    let mut buf = Vec::new();
    let mut errors = 0u64;
    let t0 = Instant::now();
    for unit in &stream.units {
        buf.clear();
        for &(id, t) in unit {
            encode_record(&mut buf, stream.path(id), t);
        }
        if wal.append_batch_raw(&buf, unit.len() as u32).is_err() || wal.maybe_sync().is_err() {
            errors += 1;
        }
    }
    wal.sync_now()?;
    let append_ns = ns_per(t0.elapsed(), stream.records);
    if let Some(v) = v {
        v.set("wal.append_ns_per_record", append_ns);
        v.set("wal.bytes_per_record", wal.bytes() as f64 / stream.records as f64);
        let t0 = Instant::now();
        let recovered = read_wal(dir)?;
        v.set("wal.replay_ns_per_record", ns_per(t0.elapsed(), stream.records));
        if recovered.entries.len() != stream.units.len() {
            errors += 1;
        }
        v.set("wal.errors", errors as f64);
        v.set("wal.fsyncs", wal.fsyncs() as f64);
    }
    Ok(append_ns)
}

/// `ReportStore::query` over the detector rung's finished store: the
/// last eight units, the shape the `QUERY` reader asks for.
fn probe_store(t: &Tiresias, v: &mut Values, tracer: &Tracer) {
    const QUERIES: usize = 2_000;
    let _s = tracer.span("core.store.query", 0, 0);
    let last = t.units_processed();
    let t0 = Instant::now();
    for i in 0..QUERIES as u64 {
        let to = last.saturating_sub(i % 8);
        black_box(t.store().query(to.saturating_sub(8), to, None, None, 200).len());
    }
    v.set("store.query_ns", ns_per(t0.elapsed(), QUERIES));
}

#[derive(Clone, Copy, PartialEq)]
enum Wire {
    Text,
    V2,
}

/// A served ledger rung: one client pushes the slice into a fresh
/// two-shard deployment (optionally routed), WAL off, one fence per
/// unit; ns/record over first byte → last unit closed. Grace and tick
/// are short so the constant tail stays small against the slice.
fn ledger_served(
    stream: &Stream,
    wire: Wire,
    routed: bool,
    dir: &Path,
    tracer: &Tracer,
) -> io::Result<f64> {
    let deploy = Deploy {
        shards: 2,
        grace: Duration::from_millis(10),
        tick: Duration::from_millis(1),
        durable: false,
        rebalance: false,
        routed,
    };
    let chunks = match wire {
        Wire::Text => gen::encode_text(stream, usize::MAX, true),
        Wire::V2 => gen::encode_v2(stream, 1).pop().expect("one client"),
    };
    let name = match (wire, routed) {
        (Wire::Text, _) => "server.ledger_text",
        (Wire::V2, false) => "server.ledger_v2",
        (Wire::V2, true) => "server.route.ledger_v2",
    };
    let d = Deployment::start(stream, &deploy, dir)?;
    let run = (|| -> io::Result<f64> {
        let mut conn = LineConn::connect(d.addr)?;
        match wire {
            Wire::Text => conn.expect("NOACK", "OK")?,
            Wire::V2 => conn.expect("UPGRADE", "OK upgraded")?,
        }
        let _s = tracer.span(name, 0, 0);
        let t0 = Instant::now();
        for chunk in &chunks {
            conn.write_all(&chunk.bytes)?;
            match wire {
                // NOACK text: the unit ends in a PING fence; anything
                // before its PONG reports a dropped record.
                Wire::Text => {
                    if conn.read_line()? != "PONG" {
                        return Err(io::Error::other("ledger text rung dropped a record"));
                    }
                }
                Wire::V2 => match parse_frame_ack(conn.read_line()?) {
                    Some((n, 0, 0)) if n == chunk.records as u64 => {}
                    _ => return Err(io::Error::other("ledger v2 rung dropped a record")),
                },
            }
        }
        d.await_closed(stream.units.len() as u64)?;
        Ok(ns_per(t0.elapsed(), stream.records))
    })();
    d.stop()?;
    run
}
