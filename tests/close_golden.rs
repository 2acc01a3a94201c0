//! Pins the detector's output on a wide, sparse hierarchy — the shape
//! where a unit close touches a few hundred of ~46k nodes — to a digest
//! of every event's bits and of the final heavy hitter set.
//!
//! The digest was recorded with the full-tree ADA close, before the
//! close was restricted to the unit's frontier, so it proves that the
//! frontier close changes no event, no forecast ulp and no membership.
//! A second run checkpoints the detector mid-stream and must reproduce
//! the same digest after the restore (which empties the tracker's
//! per-unit scratch and forces the frontier to be rebuilt).

use tiresias::core::{Tiresias, TiresiasBuilder};
use tiresias::datagen::{ccd_location_spec, InjectedAnomaly, Workload, WorkloadConfig};

const TIMEUNIT: u64 = 900;
const UNITS: u64 = 150;
/// Digest of [`digest`] over the run below, recorded with the
/// full-sweep close.
const GOLDEN: u64 = 0x06af_aae2_c7db_d511;

/// The detector configuration of the repository benchmark: Δ = 900 s,
/// ℓ = 96, θ = 10, Holt-Winters season 24, two reference levels.
fn detector(root: &str) -> Tiresias {
    TiresiasBuilder::new()
        .timeunit_secs(TIMEUNIT)
        .window_len(96)
        .threshold(10.0)
        .season_length(24)
        .sensitivity(2.8, 8.0)
        .warmup_units(8)
        .ref_levels(2)
        .root_label(root)
        .build()
        .expect("static config is valid")
}

/// ~300 records a unit over the 46 117-node CCD location tree, with a
/// one-unit burst every 12 units on a second- or third-level node.
fn workload() -> Workload {
    let tree = ccd_location_spec(1.0).build().expect("static spec is valid");
    let config = WorkloadConfig { noise_sigma: 0.1, ..WorkloadConfig::ccd(300.0) };
    let mut w = Workload::new(tree, config, 25);
    let mut unit = 20u64;
    let mut k = 0usize;
    while unit < UNITS {
        let depth = if k % 3 == 2 { 3 } else { 2 };
        let targets = w.tree().nodes_at_depth(depth);
        let node = targets[(k * 7919 + 13) % targets.len()];
        w.inject(InjectedAnomaly::new(node, unit, 1, 150.0));
        unit += 12;
        k += 1;
    }
    w
}

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Every event's (unit, path, kind, actual bits, forecast bits), then
/// the final heavy hitters' paths.
fn digest(t: &Tiresias) -> u64 {
    let mut h = Fnv::new();
    for e in t.anomalies() {
        h.bytes(&e.unit.to_le_bytes());
        h.bytes(e.path.to_string().as_bytes());
        h.bytes(&[0xff]);
        h.bytes(e.kind.to_string().as_bytes());
        h.bytes(&e.actual.to_bits().to_le_bytes());
        h.bytes(&e.forecast.to_bits().to_le_bytes());
    }
    h.bytes(b"heavy hitters");
    for n in t.heavy_hitters() {
        h.bytes(t.tree().path_of(n).to_string().as_bytes());
        h.bytes(&[0xff]);
    }
    h.0
}

/// Replays the stream; with `restore_at`, the detector is checkpointed
/// to JSON and restored before that unit.
fn run(restore_at: Option<u64>) -> Tiresias {
    let w = workload();
    let tree = w.tree();
    let mut t = detector(tree.label(tree.root()));
    for unit in 0..UNITS {
        if restore_at == Some(unit) {
            let json = serde_json::to_string(&t).expect("serialises");
            t = serde_json::from_str(&json).expect("restores");
        }
        for (node, ts) in w.generate_records(unit) {
            t.push_str(&tree.path_of(node).to_string(), ts).expect("in order");
        }
        t.advance_to((unit + 1) * TIMEUNIT).expect("in order");
    }
    t
}

#[test]
fn wide_tree_output_matches_the_full_sweep_digest() {
    let t = run(None);
    assert!(t.anomalies().len() >= 5, "bursts are detected: {}", t.anomalies().len());
    assert!(!t.heavy_hitters().is_empty());
    assert_eq!(
        digest(&t),
        GOLDEN,
        "digest {:#018x} over {} events",
        digest(&t),
        t.anomalies().len()
    );
}

#[test]
fn restored_detector_continues_with_the_same_digest() {
    assert_eq!(digest(&run(Some(70))), digest(&run(None)));
}
