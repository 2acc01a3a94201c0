//! The flat-batch admission path against its two oracles.
//!
//! A single producer feeds a live engine random batches — open-unit,
//! future, late and too-far-ahead records, hot and never-seen paths,
//! runs of repeats — through [`RecordBatch`] (filled like the text
//! batcher, or like a wire-v2 frame), interleaved with closes and
//! forced label moves while the stashes are non-empty. Then:
//!
//! * every record's [`Admission`] must equal what a plain watermark
//!   model predicts, and
//! * the drained engine must equal an **offline** `ShardedTiresias`
//!   replay of exactly the accepted records — trees, heavy hitters and
//!   the merged anomaly stream, `forecast` included (with one producer
//!   the per-shard node order is deterministic, so even the last digit
//!   of ADA's sums must agree).
//!
//! A separate property pins the new detector entry point down:
//! `push_count(p, t, n)` ≡ `n × push_str(p, t)`.

use std::collections::BTreeMap;

use proptest::prelude::*;

use tiresias::core::{
    Admission, IngestHandle, RecordBatch, ShardedTiresias, Tiresias, TiresiasBuilder,
};
use tiresias_testkit::offline_engine;

const TIMEUNIT: u64 = 900;
const MAX_AHEAD: u64 = 4;
const SHARDS: usize = 3;
/// First unit the generator aims at, so there is room below it for
/// late records.
const BASE_UNIT: u64 = 6;

fn builder() -> TiresiasBuilder {
    TiresiasBuilder::new()
        .timeunit_secs(TIMEUNIT)
        .window_len(32)
        .threshold(5.0)
        .season_length(4)
        .sensitivity(2.0, 5.0)
        .warmup_units(4)
        .ref_levels(2)
}

/// 6 top-level labels × 3 × 4: a pool large enough that some paths are
/// first seen late in a run, or never.
fn path(idx: usize) -> String {
    format!("top{}/mid{}/leaf{}", idx % 6, (idx / 6) % 3, idx / 18)
}
const POOL: usize = 72;

/// One generated record spec: which path, where relative to the open
/// unit (0..=1 late, 2 open, 3..=6 future, 7.. too far ahead), the
/// offset inside the unit, and how many times it repeats.
type Spec = (usize, u64, u64, usize);
/// One step: the batch, whether it is filled v2-style, how far the
/// following close advances (0 = no close), and an optional label move
/// `(label, shard)` requested before that close.
type Step = (Vec<Spec>, bool, u64, (usize, usize));

/// Fills `batch` either like the text batcher (`push_str` interns) or
/// like a wire-v2 frame (the caller maps ids to entries itself).
fn fill(batch: &mut RecordBatch, records: &[(String, u64)], v2_style: bool) {
    batch.clear();
    if !v2_style {
        for (path, t) in records {
            batch.push_str(path, *t).expect("short paths");
        }
        return;
    }
    let mut entries: Vec<(&str, u32)> = Vec::new();
    for (path, t) in records {
        let idx = match entries.iter().find(|(p, _)| p == path) {
            Some(&(_, idx)) => idx,
            None => {
                let idx = batch.add_path(path).expect("short paths");
                entries.push((path, idx));
                idx
            }
        };
        batch.push(idx, *t);
    }
}

/// The watermark model of admission: the first admissible record
/// anchors the stream; after that a record is late below the open
/// unit, too far ahead beyond `MAX_AHEAD` units past it.
fn expected_outcomes(open: &mut Option<u64>, records: &[(String, u64)]) -> Vec<Admission> {
    if open.is_none() {
        *open = records.first().map(|&(_, t)| t / TIMEUNIT);
    }
    let wm = open.expect("batches are never empty");
    records
        .iter()
        .map(|&(_, t)| match t / TIMEUNIT {
            unit if unit < wm => Admission::Late,
            unit if unit > wm + MAX_AHEAD => Admission::TooFarAhead,
            _ => Admission::Accepted,
        })
        .collect()
}

fn admit(
    handle: &IngestHandle,
    batch: &mut RecordBatch,
    records: &[(String, u64)],
    v2_style: bool,
) -> Vec<Admission> {
    fill(batch, records, v2_style);
    assert_eq!(batch.len(), records.len());
    let mut outcomes = Vec::new();
    handle.admit_batch(batch, &mut outcomes).expect("engine is live");
    outcomes
}

/// Per top-level label, its subtree's paths in node-id order on the
/// shard that owns it. Node ids are handed out as paths are first
/// *counted*, and they order ADA's floating-point sums — so this is
/// the part of a shard's state that the order of application decides.
/// (Whole subtrees move between shards with their relative order
/// intact, so the signature does not depend on placement.)
fn subtree_orders(engine: &ShardedTiresias) -> BTreeMap<String, Vec<String>> {
    let mut orders: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for shard in engine.shards() {
        let tree = shard.tree();
        for node in tree.iter().filter(|&n| n != tree.root()) {
            let path = tree.path_of(node).to_string();
            let top = path.split('/').next().expect("non-root path").to_string();
            orders.entry(top).or_default().push(path);
        }
    }
    orders
}

fn assert_same_engine(live: &ShardedTiresias, offline: &ShardedTiresias, label: &str) {
    assert_eq!(subtree_orders(live), subtree_orders(offline), "{label}: node-id order");
    assert_eq!(live.units_processed(), offline.units_processed(), "{label}: units");
    assert_eq!(live.current_unit(), offline.current_unit(), "{label}: open unit");
    assert_eq!(live.tree_paths(), offline.tree_paths(), "{label}: trees");
    assert_eq!(live.heavy_hitter_paths(), offline.heavy_hitter_paths(), "{label}: heavy hitters");
    // `AnomalyEvent: PartialEq` compares `forecast` bit for bit.
    assert_eq!(live.anomalies(), offline.anomalies(), "{label}: anomaly streams");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_batches_match_the_model_and_the_offline_replay(
        steps in prop::collection::vec(
            (
                prop::collection::vec((0usize..POOL, 0u64..9, 0u64..TIMEUNIT, 1usize..24), 1..24),
                0u8..2,
                0u64..4,
                (0usize..12, 0usize..SHARDS),
            ),
            6..40,
        ),
    ) {
        let steps: Vec<Step> =
            steps.into_iter().map(|(specs, v2, close, pin)| (specs, v2 == 1, close, pin)).collect();
        let mut live = builder()
            .shards(SHARDS)
            .build_sharded()
            .expect("valid config")
            .into_live(MAX_AHEAD, None)
            .expect("goes live");
        let handle = live.handle();
        let mut batch = RecordBatch::new();
        let mut open: Option<u64> = None;
        let mut accepted: Vec<(String, u64)> = Vec::new();
        let mut seen = [0usize; 3];

        for (specs, v2_style, close, (label, shard)) in &steps {
            let at = open.unwrap_or(BASE_UNIT);
            let mut records: Vec<(String, u64)> = Vec::new();
            for &(idx, place, offset, repeat) in specs {
                // `place` 2 is the open unit; below it late, above it
                // future, from 7 on too far ahead.
                let unit = (at + place).saturating_sub(2);
                for r in 0..repeat as u64 {
                    records.push((path(idx), unit * TIMEUNIT + (offset + r) % TIMEUNIT));
                }
            }
            let expected = expected_outcomes(&mut open, &records);
            let outcomes = admit(&handle, &mut batch, &records, *v2_style);
            prop_assert_eq!(&outcomes, &expected, "per-record outcomes");
            for (record, outcome) in records.iter().zip(&outcomes) {
                match outcome {
                    Admission::Accepted => {
                        seen[0] += 1;
                        accepted.push(record.clone());
                    }
                    Admission::Late => seen[1] += 1,
                    Admission::TooFarAhead => seen[2] += 1,
                }
            }
            if *close > 0 {
                let wm = open.expect("anchored by the batch above");
                if *label < 6 {
                    // A forced move applied at this barrier, usually
                    // with that label's future cells still stashed.
                    live.pin_label(&format!("top{label}"), *shard);
                }
                live.close_to(wm + close).expect("closes");
                open = Some(wm + close);
            }
        }
        prop_assert_eq!(handle.admitted(), seen[0] as u64);
        prop_assert_eq!(handle.late(), seen[1] as u64);
        prop_assert_eq!(handle.ahead(), seen[2] as u64);
        let finished = live.finish().expect("drains");

        // Offline: the accepted records in unit order (arrival order
        // within a unit — what each shard saw), static routing.
        accepted.sort_by_key(|&(_, t)| t / TIMEUNIT);
        let mut offline = offline_engine(builder().shards(SHARDS), &accepted);
        let end = finished.current_unit().expect("anchored");
        offline.advance_to(end * TIMEUNIT).expect("aligns");
        assert_same_engine(&finished, &offline, "live vs offline");
    }

    /// `push_count(p, t, n)` is `n × push_str(p, t)`: same tree, same
    /// node order, same closes, same events.
    #[test]
    fn push_count_is_repeated_push_str(
        cells in prop::collection::vec((0usize..POOL, 0u64..3, 0u64..TIMEUNIT, 0u64..40), 1..120),
    ) {
        let mut by_record: Tiresias = builder().build().expect("valid config");
        let mut by_cell: Tiresias = builder().build().expect("valid config");
        let mut unit = 0u64;
        for &(idx, advance, offset, n) in &cells {
            // Mostly stay in the unit, sometimes jump ahead (gaps close
            // as empty units).
            unit += advance.saturating_sub(1) * 2;
            let t = unit * TIMEUNIT + offset;
            for _ in 0..n {
                by_record.push_str(&path(idx), t).expect("in order");
            }
            by_cell.push_count(&path(idx), t, n).expect("in order");
            prop_assert_eq!(by_record.open_records(), by_cell.open_records());
        }
        let end = (unit + 1) * TIMEUNIT;
        by_record.advance_to(end).expect("closes");
        by_cell.advance_to(end).expect("closes");
        prop_assert_eq!(by_record.units_processed(), by_cell.units_processed());
        let nodes = |d: &Tiresias| -> Vec<String> {
            d.tree().iter().map(|n| d.tree().path_of(n).to_string()).collect()
        };
        prop_assert_eq!(nodes(&by_record), nodes(&by_cell), "node-id order");
        prop_assert_eq!(by_record.heavy_hitters(), by_cell.heavy_hitters());
        prop_assert_eq!(by_record.anomalies(), by_cell.anomalies());
    }
}

/// The generated runs above are only worth something if they detect
/// anomalies, move labels with cells in the stash, and hit every
/// admission outcome: one fixed, dense scenario asserts all of it.
#[test]
fn scenario_with_moves_stash_and_every_outcome_detects_and_matches() {
    let mut live = builder()
        .shards(SHARDS)
        .build_sharded()
        .expect("valid config")
        .into_live(MAX_AHEAD, None)
        .expect("goes live");
    let handle = live.handle();
    let mut batch = RecordBatch::new();
    let mut open: Option<u64> = None;
    let mut accepted: Vec<(String, u64)> = Vec::new();
    let mut outcomes_seen = [false; 3];
    for unit in BASE_UNIT..BASE_UNIT + 14 {
        let mut records: Vec<(String, u64)> = Vec::new();
        for idx in 0..24 {
            let burst = if unit == BASE_UNIT + 11 && idx % 6 == 1 { 60 } else { 6 };
            for i in 0..burst {
                records.push((path(idx), unit * TIMEUNIT + i));
            }
            // Traffic two units ahead arrives early: it is still in
            // the stash when this unit's barrier moves labels.
            records.push((path(idx), (unit + 2) * TIMEUNIT + 1));
        }
        records.push((path(3), (unit - 1) * TIMEUNIT)); // late
        records.push((path(4), (unit + MAX_AHEAD + 1) * TIMEUNIT)); // too far ahead
        let expected = expected_outcomes(&mut open, &records);
        let outcomes = admit(&handle, &mut batch, &records, unit % 2 == 0);
        assert_eq!(outcomes, expected);
        for (record, outcome) in records.iter().zip(&outcomes) {
            match outcome {
                Admission::Accepted => accepted.push(record.clone()),
                Admission::Late => outcomes_seen[1] = true,
                Admission::TooFarAhead => outcomes_seen[2] = true,
            }
            outcomes_seen[0] = true;
        }
        // Shuffle every label across the shards as the run goes.
        live.pin_label(&format!("top{}", unit % 6), (unit as usize / 2) % SHARDS);
        live.close_to(unit + 1).expect("closes");
        open = Some(unit + 1);
        assert!(handle.stashed_records().iter().sum::<u64>() > 0, "the barrier left cells behind");
    }
    assert_eq!(outcomes_seen, [true; 3]);
    assert!(live.rebalances() > 0, "labels moved, stashed cells with them");
    let finished = live.finish().expect("drains");
    assert!(!finished.anomalies().is_empty(), "the burst is detected");

    accepted.sort_by_key(|&(_, t)| t / TIMEUNIT);
    let mut offline = offline_engine(builder().shards(SHARDS), &accepted);
    offline.advance_to(finished.current_unit().expect("anchored") * TIMEUNIT).expect("aligns");
    assert_same_engine(&finished, &offline, "scenario");
}
