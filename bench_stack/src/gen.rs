//! Seeded input generation: every record, byte and schedule the system
//! under test sees is derived here from `--seed`, through the
//! repository's own `tiresias-datagen` generators.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tiresias_core::TiresiasBuilder;
use tiresias_datagen::{
    ccd_location_spec, ccd_trouble_tree_with_mix, InjectedAnomaly, Workload, WorkloadConfig,
};
use tiresias_hierarchy::NodeId;
use tiresias_server::protocol::v2;

/// Timeunit size Δ of every workload, seconds.
pub const TIMEUNIT: u64 = 900;
/// Warm-up units of the detector configuration.
pub const WARMUP_UNITS: usize = 8;

/// The detector configuration `bench_sharded` uses: Δ = 900 s, ℓ = 96,
/// θ = 10, RT/DT = 2.8/8, 8 warm-up units, ADA with two reference
/// levels.
pub fn detector(root_label: &str) -> TiresiasBuilder {
    TiresiasBuilder::new()
        .timeunit_secs(TIMEUNIT)
        .window_len(96)
        .threshold(10.0)
        .season_length(24)
        .sensitivity(2.8, 8.0)
        .warmup_units(WARMUP_UNITS)
        .ref_levels(2)
        .root_label(root_label)
}

/// Which hierarchy a stream is generated over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TreeKind {
    /// CCD trouble-ticket tree with the Table-I first-level mix
    /// (9/6/3/5 fan-out, ~1k nodes): small and dense.
    Trouble,
    /// CCD network-location tree (61·s/5/6/24·s fan-out) at the given
    /// scale: ~46k nodes at 1.0, long four-level paths.
    Location(f64),
}

/// What to generate.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    pub tree: TreeKind,
    pub units: usize,
    /// Mean records per unit at a neutral moment of the seasonal curve.
    pub base_rate: f64,
    /// Zipf exponent over top-level labels (0 = off).
    pub top_skew: f64,
    /// A one-unit burst is injected every this many units after the
    /// warm-up, on a seed-chosen second-level node.
    pub burst_every: usize,
    /// Extra records a burst adds, as a share of `base_rate`.
    pub burst_share: f64,
}

/// A generated record stream. Records reference paths by index so the
/// stream stays compact; the system under test is always handed the
/// path text.
pub struct Stream {
    pub root_label: String,
    /// Category path text per path id.
    pub paths: Vec<String>,
    /// Per unit, `(path id, timestamp secs)` in timestamp order.
    pub units: Vec<Vec<(u32, u64)>>,
    pub records: usize,
    /// One path id per top-level label: a record of each, one unit
    /// past the end, is the sentinel that closes the last unit on every
    /// shard and every routed node, however labels are placed.
    pub sentinels: Vec<u32>,
    pub tree_nodes: usize,
    pub top_labels: usize,
    /// Seconds spent inside the datagen crate producing the records.
    pub gen_s: f64,
}

impl Stream {
    /// Timestamp one unit past the end: advancing (or pushing the
    /// sentinel records) here closes the last unit.
    pub fn end_secs(&self) -> u64 {
        self.units.len() as u64 * TIMEUNIT
    }

    /// The sentinel records (see [`Stream::sentinels`]).
    pub fn sentinel_records(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.sentinels.iter().map(|&id| (self.path(id), self.end_secs()))
    }

    pub fn path(&self, id: u32) -> &str {
        &self.paths[id as usize]
    }

    /// The records of `unit` that client `client` of `clients` sends
    /// (dealt round-robin so client streams interleave mid-unit).
    pub fn client_unit(
        &self,
        unit: usize,
        client: usize,
        clients: usize,
    ) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.units[unit].iter().skip(client).step_by(clients).map(|&(id, t)| (self.path(id), t))
    }
}

/// Per-unit lognormal rate noise. The CCD preset's 0.25 makes the last
/// unit's volume — and with it the heavy-hitter count, the state size
/// and the restart time a run ends on — swing by a third from seed to
/// seed; 0.1 (the SCD preset's value) keeps the seasonal shape and the
/// Poisson arrivals but lets ten seeds agree within a few percent.
const NOISE_SIGMA: f64 = 0.1;

fn build_workload(spec: &StreamSpec, seed: u64) -> Workload {
    let config = |base: f64| WorkloadConfig {
        noise_sigma: NOISE_SIGMA,
        ..WorkloadConfig::ccd(base).with_top_level_skew(spec.top_skew)
    };
    match spec.tree {
        TreeKind::Trouble => {
            let (tree, mix) = ccd_trouble_tree_with_mix(1.0);
            Workload::with_popularity(tree, config(spec.base_rate), &mix, seed)
        }
        TreeKind::Location(scale) => {
            let tree = ccd_location_spec(scale).build().expect("static spec is valid");
            Workload::new(tree, config(spec.base_rate), seed)
        }
    }
}

/// Generates the stream for `spec` from `seed`.
pub fn generate(spec: &StreamSpec, seed: u64) -> Stream {
    let t0 = std::time::Instant::now();
    let mut workload = build_workload(spec, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb0b5_7ac4);
    // Bursts land on second-level nodes: narrow enough that a burst
    // stands out against the node's own history, wide enough to be a
    // heavy hitter.
    let targets: Vec<NodeId> = workload.tree().nodes_at_depth(2).to_vec();
    if spec.burst_every > 0 {
        let mut unit = WARMUP_UNITS + 2 * spec.burst_every.max(4);
        while unit < spec.units {
            let node = targets[rng.gen_range(0..targets.len())];
            workload.inject(InjectedAnomaly::new(
                node,
                unit as u64,
                1,
                spec.base_rate * spec.burst_share,
            ));
            unit += spec.burst_every;
        }
    }
    let tree = workload.tree();
    let mut path_of_node: Vec<u32> = vec![u32::MAX; tree.len()];
    let mut paths: Vec<String> = Vec::new();
    let mut units = Vec::with_capacity(spec.units);
    let mut records = 0usize;
    for unit in 0..spec.units as u64 {
        let raw = workload.generate_records(unit);
        let mut out = Vec::with_capacity(raw.len());
        for (node, t) in raw {
            let slot = &mut path_of_node[node.index()];
            if *slot == u32::MAX {
                *slot = paths.len() as u32;
                paths.push(tree.path_of(node).to_string());
            }
            out.push((*slot, t));
        }
        records += out.len();
        units.push(out);
    }
    let mut sentinels: Vec<u32> = Vec::new();
    let mut seen_tops: Vec<&str> = Vec::new();
    for (id, path) in paths.iter().enumerate() {
        let top = path.split('/').next().unwrap_or("");
        if !seen_tops.contains(&top) {
            seen_tops.push(top);
            sentinels.push(id as u32);
        }
    }
    Stream {
        root_label: tree.label(tree.root()).to_string(),
        sentinels,
        paths,
        units,
        records,
        tree_nodes: tree.len(),
        top_labels: tree.children(tree.root()).len(),
        gen_s: t0.elapsed().as_secs_f64(),
    }
}

/// One unit of pre-encoded wire traffic for one client.
pub struct UnitChunk {
    pub bytes: Vec<u8>,
    pub records: usize,
    /// The unit the chunk's records belong to.
    pub unit: usize,
}

/// The stream as wire-v2 DATA frames: one frame per unit per client
/// through a per-client dictionary. Client 0 gets one more chunk, the
/// sentinel records.
pub fn encode_v2(stream: &Stream, clients: usize) -> Vec<Vec<UnitChunk>> {
    (0..clients)
        .map(|c| {
            let mut enc = v2::FrameEncoder::new();
            let mut chunks: Vec<UnitChunk> = (0..stream.units.len())
                .map(|u| {
                    let mut records = 0;
                    for (path, t) in stream.client_unit(u, c, clients) {
                        enc.add(path, t);
                        records += 1;
                    }
                    let mut bytes = Vec::new();
                    enc.finish(u as u32, &mut bytes);
                    UnitChunk { bytes, records, unit: u }
                })
                .collect();
            if c == 0 {
                let mut bytes = Vec::new();
                for (path, t) in stream.sentinel_records() {
                    enc.add(path, t);
                }
                enc.finish(stream.units.len() as u32, &mut bytes);
                chunks.push(UnitChunk {
                    bytes,
                    records: stream.sentinels.len(),
                    unit: stream.units.len(),
                });
            }
            chunks
        })
        .collect()
}

/// The stream as text `PUSH` lines for one client, in flushes of at
/// most `flush_lines` lines that never span a unit, the sentinel
/// records last. With `fence`, every flush ends in a `PING`, whose
/// `PONG` is the flush's ack under `NOACK`.
pub fn encode_text(stream: &Stream, flush_lines: usize, fence: bool) -> Vec<UnitChunk> {
    use std::fmt::Write;
    let mut chunks = Vec::new();
    let mut flush = |unit: usize, records: &mut dyn Iterator<Item = (&str, u64)>| {
        let mut text = String::new();
        let mut lines = 0;
        for (path, t) in records {
            let _ = writeln!(text, "PUSH {path} {t}");
            lines += 1;
            if lines == flush_lines {
                if fence {
                    text.push_str("PING\n");
                }
                let bytes = std::mem::take(&mut text).into_bytes();
                chunks.push(UnitChunk { bytes, records: lines, unit });
                lines = 0;
            }
        }
        if lines > 0 {
            if fence {
                text.push_str("PING\n");
            }
            chunks.push(UnitChunk { bytes: text.into_bytes(), records: lines, unit });
        }
    };
    for unit in 0..stream.units.len() {
        flush(unit, &mut stream.client_unit(unit, 0, 1));
    }
    flush(stream.units.len(), &mut stream.sentinel_records());
    chunks
}
