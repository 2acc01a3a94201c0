//! Checkpoint/restore: the trackers and the whole detector serialise
//! with serde, and a restored instance continues the stream exactly
//! where the original would have — warm-up buffers, forecaster state,
//! heavy hitter series and the anomaly store all round-trip — and the
//! versioned envelope that carries either engine to disk.

use tiresias::core::{
    load_checkpoint, save_checkpoint, CheckpointEngine, CoreError, Record, TiresiasBuilder,
};
use tiresias::datagen::{ccd_location_spec, InjectedAnomaly, Workload, WorkloadConfig};
use tiresias::hhh::{Ada, HhhConfig, ModelSpec};
use tiresias::hierarchy::Tree;

fn small_tree() -> (Tree, tiresias::hierarchy::NodeId) {
    let mut t = Tree::new("root");
    let leaf = t.insert_path(&["a", "x"]);
    t.insert_path(&["a", "y"]);
    t.insert_path(&["b"]);
    (t, leaf)
}

#[test]
fn ada_round_trips_and_continues_identically() {
    let (tree, leaf) = small_tree();
    let cfg = HhhConfig::new(5.0, 16).with_model(ModelSpec::HoltWinters {
        alpha: 0.5,
        beta: 0.05,
        gamma: 0.3,
        season: 4,
    });
    let mut original = Ada::new(cfg).expect("valid config");
    for i in 0..10u64 {
        let mut d = vec![0.0; tree.len()];
        d[leaf.index()] = 8.0 + (i % 4) as f64;
        original.push_timeunit(&tree, &d);
    }

    // Checkpoint mid-stream.
    let json = serde_json::to_string(&original).expect("serialises");
    let mut restored: Ada = serde_json::from_str(&json).expect("deserialises");

    // Both continue with the same data and must stay identical.
    for i in 10..20u64 {
        let mut d = vec![0.0; tree.len()];
        d[leaf.index()] = 8.0 + (i % 4) as f64;
        original.push_timeunit(&tree, &d);
        restored.push_timeunit(&tree, &d);
        let (vo, vr) = (original.view(leaf).unwrap(), restored.view(leaf).unwrap());
        assert_eq!(vo.latest_actual, vr.latest_actual, "unit {i}");
        assert!(
            (vo.latest_forecast - vr.latest_forecast).abs() < 1e-12,
            "forecast diverged at unit {i}"
        );
    }
    let vo: Vec<f64> = original.view(leaf).unwrap().actual.iter().collect();
    let vr: Vec<f64> = restored.view(leaf).unwrap().actual.iter().collect();
    assert_eq!(vo, vr);
}

#[test]
fn detector_round_trips_mid_stream() {
    let tree = ccd_location_spec(0.03).build().expect("valid spec");
    let target = tree.find(&["VHO-0", "IO-1"]).expect("exists");
    let mut workload = Workload::new(tree.clone(), WorkloadConfig::ccd(120.0), 42);
    workload.inject(InjectedAnomaly::new(target, 70, 3, 300.0));

    let build = || {
        let mut d = TiresiasBuilder::new()
            .timeunit_secs(900)
            .window_len(96)
            .threshold(8.0)
            .season_length(24)
            .warmup_units(48)
            .root_label("SHO")
            .build()
            .expect("valid configuration");
        d.adopt_tree(tree.clone()).expect("fresh detector");
        d
    };

    // Uninterrupted reference run.
    let mut reference = build();
    for unit in 0..90u64 {
        reference.ingest_unit(&workload.generate_unit(unit)).expect("bulk ingest");
    }

    // Interrupted run: checkpoint at unit 60 (after warm-up, before the
    // injected anomaly), restore, continue.
    let mut first_half = build();
    for unit in 0..60u64 {
        first_half.ingest_unit(&workload.generate_unit(unit)).expect("bulk ingest");
    }
    let checkpoint = serde_json::to_string(&first_half).expect("serialises");
    drop(first_half);
    let mut resumed: tiresias::Tiresias = serde_json::from_str(&checkpoint).expect("deserialises");
    for unit in 60..90u64 {
        resumed.ingest_unit(&workload.generate_unit(unit)).expect("bulk ingest");
    }

    // Identical anomaly history, including the injected event.
    let key = |d: &tiresias::Tiresias| -> Vec<(String, u64)> {
        d.anomalies().iter().map(|e| (e.path.to_string(), e.unit)).collect()
    };
    assert_eq!(key(&reference), key(&resumed));
    assert!(
        resumed.store().under(&tree.path_of(target)).any(|e| (70..73).contains(&e.unit)),
        "the injected anomaly survives the restart"
    );
}

#[test]
fn checkpoint_during_warmup_preserves_buffer() {
    let mut original = TiresiasBuilder::new()
        .timeunit_secs(60)
        .window_len(32)
        .threshold(3.0)
        .season_length(4)
        .warmup_units(8)
        .build()
        .expect("valid configuration");
    for unit in 0..5u64 {
        for i in 0..6 {
            original.push(Record::new("x", unit * 60 + i)).expect("in order");
        }
        original.advance_to((unit + 1) * 60).expect("advance");
    }
    assert!(!original.is_warmed_up());
    let json = serde_json::to_string(&original).expect("serialises");
    let mut restored: tiresias::Tiresias = serde_json::from_str(&json).expect("deserialises");
    assert!(!restored.is_warmed_up());
    assert_eq!(restored.units_processed(), 5);
    // Finish the warm-up after restore; detection works.
    for unit in 5..9u64 {
        let n = if unit == 8 { 100 } else { 6 };
        for i in 0..n {
            restored.push(Record::new("x", unit * 60 + i % 60)).expect("in order");
        }
        restored.advance_to((unit + 1) * 60).expect("advance");
    }
    assert!(restored.is_warmed_up());
    assert!(!restored.anomalies().is_empty());
}

#[test]
fn anomaly_events_serialise_to_json() {
    let mut d = TiresiasBuilder::new()
        .timeunit_secs(60)
        .window_len(16)
        .threshold(3.0)
        .season_length(4)
        .warmup_units(4)
        .sensitivity(2.0, 5.0)
        .build()
        .expect("valid configuration");
    for unit in 0..8u64 {
        let n = if unit == 7 { 120 } else { 6 };
        for i in 0..n {
            d.push(Record::new("tv/a", unit * 60 + i % 60)).expect("in order");
        }
        d.advance_to((unit + 1) * 60).expect("advance");
    }
    assert!(!d.anomalies().is_empty());
    let json = serde_json::to_string_pretty(d.store()).expect("serialises");
    assert!(json.contains("\"path\""));
    let restored: tiresias::core::ReportStore = serde_json::from_str(&json).expect("deserialises");
    assert_eq!(&restored, d.store());
}

fn envelope_builder() -> TiresiasBuilder {
    TiresiasBuilder::new()
        .timeunit_secs(900)
        .window_len(32)
        .threshold(5.0)
        .season_length(4)
        .sensitivity(2.0, 5.0)
        .warmup_units(4)
}

#[test]
fn sharded_envelope_round_trips_mid_stream() {
    let records: Vec<(String, u64)> = (0..8u64)
        .flat_map(|u| {
            (0..10u64).flat_map(move |i| {
                [("TV/NoService".to_string(), u * 900 + i), ("Net/Slow".to_string(), u * 900 + i)]
            })
        })
        .collect();
    let split = records.len() / 2;

    let mut reference = envelope_builder().shards(4).build_sharded().unwrap();
    reference.push_batch(&records).unwrap();

    let mut engine = envelope_builder().shards(4).build_sharded().unwrap();
    engine.push_batch(&records[..split]).unwrap();
    let json = save_checkpoint(&CheckpointEngine::from(engine));
    assert!(json.contains("\"kind\":\"sharded\""));
    let CheckpointEngine::Sharded(mut resumed) = load_checkpoint(&json).unwrap() else {
        panic!("expected a sharded engine");
    };
    resumed.push_batch(&records[split..]).unwrap();

    assert_eq!(reference.anomalies(), resumed.anomalies());
    assert_eq!(reference.heavy_hitter_paths(), resumed.heavy_hitter_paths());
    assert_eq!(reference.units_processed(), resumed.units_processed());
}

#[test]
fn unsupported_and_malformed_checkpoints_fail_clearly() {
    let err = load_checkpoint("{\"version\":5,\"kind\":\"single\",\"engine\":{}}").unwrap_err();
    assert!(matches!(err, CoreError::Checkpoint(_)));
    assert!(err.to_string().contains("version 5"));
    assert!(matches!(load_checkpoint("{nope"), Err(CoreError::Checkpoint(_))));
}
