//! Shard-count invariance of the sharded ingest engine: for any shard
//! count, the same record stream must produce a byte-identical union of
//! shard trees, heavy hitter path set, and merged `AnomalyEvent` stream
//! (ids, order and all) — and a sharded checkpoint taken mid-stream
//! must resume into exactly the behaviour of an uninterrupted run.

use proptest::prelude::*;

use tiresias::core::{
    load_checkpoint, save_checkpoint, CheckpointEngine, RebalanceConfig, ShardedTiresias,
    TiresiasBuilder,
};
use tiresias::datagen::{ccd_location_spec, InjectedAnomaly, Workload, WorkloadConfig};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn builder() -> TiresiasBuilder {
    TiresiasBuilder::new()
        .timeunit_secs(900)
        .window_len(64)
        .threshold(8.0)
        .season_length(8)
        .sensitivity(2.0, 5.0)
        .warmup_units(4)
        .ref_levels(2)
}

/// Renders a workload's record stream for `units` timeunits as
/// `(path, timestamp)` pairs, exactly as an operational feed would
/// deliver them.
fn rendered_stream(workload: &Workload, units: u64) -> Vec<(String, u64)> {
    let tree = workload.tree();
    let mut out = Vec::new();
    for unit in 0..units {
        for (node, t) in workload.generate_records(unit) {
            out.push((tree.path_of(node).to_string(), t));
        }
    }
    out
}

/// Streams `records` through a fresh engine with the given shard count,
/// in batches, and closes everything up to `end_secs`.
fn run_sharded(shards: usize, records: &[(String, u64)], end_secs: u64) -> ShardedTiresias {
    run_sharded_with(shards, records, end_secs, RebalanceConfig::default())
}

/// [`run_sharded`] under the given rebalancer policy.
fn run_sharded_with(
    shards: usize,
    records: &[(String, u64)],
    end_secs: u64,
    rebalance: RebalanceConfig,
) -> ShardedTiresias {
    let mut engine = builder().shards(shards).build_sharded().expect("valid config");
    // Sequential processing: byte-identical to threaded (asserted by
    // the engine's own tests) and much faster on the CI box.
    engine.set_threaded(false);
    engine.set_rebalance(rebalance);
    for batch in records.chunks(4096) {
        engine.push_batch(batch).expect("in-order stream");
    }
    engine.advance_to(end_secs).expect("close");
    engine
}

fn assert_invariant(reference: &ShardedTiresias, other: &ShardedTiresias, label: &str) {
    assert_eq!(reference.tree_paths(), other.tree_paths(), "{label}: shard tree unions diverged");
    assert_eq!(
        reference.heavy_hitter_paths(),
        other.heavy_hitter_paths(),
        "{label}: heavy hitter sets diverged"
    );
    assert_eq!(reference.anomalies(), other.anomalies(), "{label}: event streams diverged");
    assert_eq!(reference.units_processed(), other.units_processed(), "{label}: units diverged");
    // Byte-identical serialised stores (events re-homed onto the report
    // tree, so node ids must agree too).
    let store_a = serde_json::to_string(reference.store()).expect("serialises");
    let store_b = serde_json::to_string(other.store()).expect("serialises");
    assert_eq!(store_a, store_b, "{label}: serialised stores diverged");
}

#[test]
fn shard_counts_produce_identical_output_on_ccd_workload() {
    let tree = ccd_location_spec(0.12).build().expect("static spec");
    let mut workload = Workload::new(tree, WorkloadConfig::ccd(150.0), 11);
    let target = workload.tree().nodes_at_depth(1)[2];
    workload.inject(InjectedAnomaly::new(target, 16, 3, 600.0));
    let stream = rendered_stream(&workload, 24);
    let end = 24 * 900;

    let reference = run_sharded(SHARD_COUNTS[0], &stream, end);
    assert!(reference.is_warmed_up());
    assert!(!reference.anomalies().is_empty(), "the injected burst must be detected");
    for &n in &SHARD_COUNTS[1..] {
        let engine = run_sharded(n, &stream, end);
        assert_invariant(&reference, &engine, &format!("{n} shards"));
    }
}

#[test]
fn root_split_onto_first_level_node_stays_invariant() {
    // The adversarial case for grouping independence: diffuse traffic
    // keeps every synthetic root a heavy hitter (holding a series
    // summed over whichever top-level labels share the shard); then one
    // first-level node's *residual* turns heavy — spread over sub-θ
    // leaves so the node itself joins SHHH through a split *from the
    // root*. With `ref_levels(0)` there is no reference series to
    // repair the split, so without root isolation the node would
    // inherit a scaled copy of its shard root's series — a
    // grouping-dependent value that surfaces in the forecast of the
    // later burst's anomaly event.
    let mut stream: Vec<(String, u64)> = Vec::new();
    for u in 0..12u64 {
        for label in 0..8 {
            // 3 per label per unit: diffuse (below θ = 8) but every
            // possible shard root aggregate is heavy.
            for i in 0..3 {
                stream.push((format!("top-{label}/leaf-{i}"), u * 900 + label * 90 + i));
            }
        }
        if u >= 6 {
            // top-3's residual ramps to 20 (≥ θ) spread over 4 leaves
            // of 5 (each < θ): the node joins SHHH via a root split.
            for leaf in 0..4 {
                for i in 0..5 {
                    stream.push((format!("top-3/ramp-{leaf}"), u * 900 + 700 + leaf * 10 + i));
                }
            }
        }
        if u == 11 {
            // Burst: the anomaly's recorded forecast exposes whatever
            // series top-3 inherited at the split.
            for i in 0..200 {
                stream.push((format!("top-3/ramp-{}", i % 4), u * 900 + 800 + i % 90));
            }
        }
    }
    stream.sort_by_key(|&(_, t)| t);
    let end = 12 * 900;

    let run = |shards: usize| {
        let mut engine =
            builder().ref_levels(0).shards(shards).build_sharded().expect("valid config");
        engine.set_threaded(false);
        engine.push_batch(&stream).expect("in-order stream");
        engine.advance_to(end).expect("close");
        engine
    };
    let reference = run(SHARD_COUNTS[0]);
    assert!(
        reference.anomalies().iter().any(|e| e.path.to_string() == "top-3"),
        "the ramp+burst must surface a first-level anomaly: {:?}",
        reference.anomalies()
    );
    for &n in &SHARD_COUNTS[1..] {
        let engine = run(n);
        assert_invariant(&reference, &engine, &format!("root-split case, {n} shards"));
    }
}

#[test]
fn sharded_checkpoint_resumes_identically_mid_stream() {
    let tree = ccd_location_spec(0.1).build().expect("static spec");
    let mut workload = Workload::new(tree, WorkloadConfig::ccd(120.0), 7);
    let target = workload.tree().nodes_at_depth(1)[1];
    workload.inject(InjectedAnomaly::new(target, 14, 2, 500.0));
    let stream = rendered_stream(&workload, 20);
    let split_at = stream.iter().position(|&(_, t)| t >= 10 * 900).expect("second half exists");

    let reference = run_sharded(4, &stream, 20 * 900);

    let mut first_half = builder().shards(4).build_sharded().expect("valid config");
    first_half.set_threaded(false);
    first_half.push_batch(&stream[..split_at]).expect("in-order stream");
    let checkpoint = serde_json::to_string(&first_half).expect("serialises");
    drop(first_half);
    let mut resumed: ShardedTiresias = serde_json::from_str(&checkpoint).expect("deserialises");
    resumed.push_batch(&stream[split_at..]).expect("in-order stream");
    resumed.advance_to(20 * 900).expect("close");

    assert_invariant(&reference, &resumed, "checkpoint resume");
    assert!(!reference.anomalies().is_empty(), "the injected burst survives the restart");
    // The restored engine also keeps the configuration: another
    // checkpoint still deserialises into a working engine.
    let again = serde_json::to_string(&resumed).expect("serialises");
    let engine: ShardedTiresias = serde_json::from_str(&again).expect("deserialises");
    assert_eq!(engine.shard_count(), 4);
    assert_eq!(engine.anomalies(), resumed.anomalies());
}

/// Adaptive rebalancing on a Zipf-skewed load: the worst/mean shard load
/// drops under 1.3 while the output stays identical to static routing.
/// Shard balance counts records per shard in the last closed unit, so
/// the check is deterministic (no wall-clock time).
#[test]
fn adaptive_rebalancing_evens_out_a_skewed_load() {
    // Zipfian mass over the 12 VHO labels of the 0.2-scale location
    // tree (the hottest carries ~29 % of all records). Under seed 3 the
    // hash-routed hot labels collide onto one shard — the failure mode
    // rebalancing exists for. ~8.7k records: static balance ≈ 2.7,
    // adaptive ≈ 1.1 after 4 moves.
    let tree = ccd_location_spec(0.2).build().expect("static spec");
    let workload = Workload::new(tree, WorkloadConfig::ccd(1000.0).with_top_level_skew(0.9), 3);
    let units = 24;
    let stream = rendered_stream(&workload, units);
    let end = units * 900;

    let fixed = run_sharded(4, &stream, end);
    let adaptive =
        run_sharded_with(4, &stream, end, RebalanceConfig::enabled().with_threshold(1.15));
    assert!(fixed.shard_balance() > 1.3, "static routing is skewed: {}", fixed.shard_balance());
    assert!(
        adaptive.shard_balance() <= 1.3,
        "rebalancing evens the shards out: {}",
        adaptive.shard_balance()
    );
    assert!(adaptive.rebalances() > 0, "at least one label moved");
    assert_invariant(&fixed, &adaptive, "adaptive vs static routing");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomised workloads (seed, rate, span, injection site) keep
    /// every shard count byte-identical to the single-shard engine.
    #[test]
    fn random_workloads_are_shard_count_invariant(
        seed in 0u64..500,
        rate in 40.0f64..160.0,
        units in 8u64..18,
        inject_at in 0usize..6,
    ) {
        let tree = ccd_location_spec(0.08).build().expect("static spec");
        let mut workload = Workload::new(tree, WorkloadConfig::ccd(rate), seed);
        let site = workload.tree().nodes_at_depth(1)[inject_at % 5];
        workload.inject(InjectedAnomaly::new(site, units / 2, 2, rate * 4.0));
        let stream = rendered_stream(&workload, units);
        let end = units * 900;

        let reference = run_sharded(1, &stream, end);
        for &n in &SHARD_COUNTS[1..] {
            let engine = run_sharded(n, &stream, end);
            assert_invariant(&reference, &engine, &format!("seed {seed}, {n} shards"));
        }
    }

    /// Forced label reassignments at random epoch boundaries leave the
    /// output byte-identical to static routing and to the unsharded
    /// replay — and a checkpoint of the repinned engine (a non-trivial
    /// override table, envelope v4) round-trips into the same engine.
    #[test]
    fn random_reassignments_at_epoch_boundaries_stay_invariant(
        seed in 0u64..500,
        rate in 40.0f64..120.0,
        units in 8u64..16,
        moves in proptest::collection::vec((0u64..16, 0usize..8, 0usize..4), 1..6),
    ) {
        let tree = ccd_location_spec(0.08).build().expect("static spec");
        // Zipfian top-level mass: reassignments actually move load.
        let workload = Workload::new(
            tree,
            WorkloadConfig::ccd(rate).with_top_level_skew(1.0),
            seed,
        );
        let labels: Vec<String> = workload
            .tree()
            .nodes_at_depth(1)
            .iter()
            .map(|&n| workload.tree().path_of(n).to_string())
            .collect();
        let stream = rendered_stream(&workload, units);
        let end = units * 900;

        let reference = run_sharded(4, &stream, end);

        // Replay unit by unit, pinning at the drawn epoch boundaries.
        let mut engine = builder().shards(4).build_sharded().expect("valid config");
        engine.set_threaded(false);
        for u in 0..units {
            let batch: Vec<(String, u64)> = stream
                .iter()
                .filter(|&&(_, t)| t / 900 == u)
                .cloned()
                .collect();
            engine.push_batch(&batch).expect("in-order stream");
            for &(at, label, shard) in &moves {
                if at % units == u {
                    engine.pin_label(&labels[label % labels.len()], shard);
                }
            }
            engine.advance_to((u + 1) * 900).expect("close epoch");
        }
        prop_assert!(engine.router().pinned_count() > 0, "at least one pin applied");
        assert_invariant(&reference, &engine, &format!("seed {seed}, repinned"));

        // Against the unsharded detector (level ≥ 1; the engines differ
        // at the root by design).
        let mut plain = builder().build().expect("valid config");
        for batch in stream.chunks(4096) {
            plain.push_batch(batch).expect("in-order stream");
        }
        plain.advance_to(end).expect("close");
        let mut plain_level1: Vec<(String, u64)> = plain
            .anomalies()
            .iter()
            .filter(|e| e.level >= 1)
            .map(|e| (e.path.to_string(), e.unit))
            .collect();
        plain_level1.sort();
        let mut sharded_events: Vec<(String, u64)> =
            engine.anomalies().iter().map(|e| (e.path.to_string(), e.unit)).collect();
        sharded_events.sort();
        prop_assert_eq!(plain_level1, sharded_events, "unsharded replay diverged");

        // Checkpoint round-trip carrying the learned override table.
        let json = save_checkpoint(&CheckpointEngine::from(engine.clone()));
        prop_assert!(json.contains("\"version\":4"));
        prop_assert!(json.contains("\"overrides\""));
        let CheckpointEngine::Sharded(restored) = load_checkpoint(&json).expect("loads") else {
            panic!("expected a sharded engine");
        };
        prop_assert_eq!(restored.router(), engine.router(), "override table survives");
        assert_invariant(&engine, &restored, &format!("seed {seed}, restored"));
    }
}
