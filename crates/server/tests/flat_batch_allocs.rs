//! The served path allocates per *batch* and per *distinct path*,
//! never per record: decoding a wire-v2 DATA frame into a flat
//! [`RecordBatch`], admitting it and having the shard workers apply it
//! costs the same number of heap allocations for 10 000 records as for
//! 1 000 over the same paths.
//!
//! The whole test binary runs on a counting allocator, so this file
//! holds exactly one test (nothing else may allocate while it counts).

use tiresias_core::{Admission, RecordBatch, TiresiasBuilder, DEFAULT_MAX_AHEAD_UNITS};
use tiresias_server::protocol::v2::{decode_header, FrameDecoder, FrameEncoder, HEADER_BYTES};
use tiresias_testkit::{allocations, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const TIMEUNIT: u64 = 900;
const PATHS: usize = 64;

/// One pre-encoded DATA frame payload of `records` records spread over
/// the known paths, all in timeunit `unit`.
fn frame(enc: &mut FrameEncoder, paths: &[String], unit: u64, records: usize) -> Vec<u8> {
    let batch: Vec<(&str, u64)> = (0..records)
        .map(|i| (paths[(i * 7) % PATHS].as_str(), unit * TIMEUNIT + (i as u64 % TIMEUNIT)))
        .collect();
    let mut bytes = Vec::new();
    enc.encode_data(0, &batch, &mut bytes);
    let header = decode_header(bytes[..HEADER_BYTES].try_into().expect("a whole header"))
        .expect("the encoder's own header");
    assert_eq!(header.payload_len as usize, bytes.len() - HEADER_BYTES);
    bytes.split_off(HEADER_BYTES)
}

#[test]
fn allocations_do_not_grow_with_the_record_count() {
    // A warm-up far longer than the test keeps unit closes down to
    // buffering the unit's counts: no forecasts, no anomaly events,
    // whose allocations would depend on the counts.
    let mut live = TiresiasBuilder::new()
        .timeunit_secs(TIMEUNIT)
        .window_len(32)
        .threshold(5.0)
        .season_length(4)
        .sensitivity(2.0, 5.0)
        .warmup_units(100_000)
        .shards(2)
        .build_sharded()
        .expect("valid config")
        .into_live(DEFAULT_MAX_AHEAD_UNITS, None)
        .expect("goes live");
    let handle = live.handle();
    let paths: Vec<String> =
        (0..PATHS).map(|i| format!("top{}/mid{}/leaf{i}", i % 5, i % 11)).collect();
    let mut enc = FrameEncoder::new();
    let mut dec = FrameDecoder::new();
    let mut batch = RecordBatch::new();
    let mut outcomes: Vec<Admission> = Vec::new();

    // Decode + admit one frame of `open`-unit records and one of
    // records two units ahead (parked in the workers' stashes), then
    // close the open unit — the barrier's acks prove the workers
    // applied every cell — and report the allocations that took.
    let mut open = 0u64;
    let mut serve = |records: usize| -> u64 {
        let now = frame(&mut enc, &paths, open, records);
        let ahead = frame(&mut enc, &paths, open + 2, records);
        let before = allocations();
        for payload in [&now, &ahead] {
            batch.clear();
            dec.decode_data(payload, &mut batch).expect("well-formed frame");
            assert_eq!(batch.len(), records);
            assert_eq!(batch.distinct_paths(), PATHS.min(records));
            handle.admit_batch(&mut batch, &mut outcomes).expect("engine is live");
            assert!(outcomes.iter().all(|&o| o == Admission::Accepted));
        }
        open += 1;
        live.close_to(open).expect("closes");
        allocations() - before
    };

    // Warm-up: every path known to the dictionary, the trees and the
    // path memo; every reusable buffer grown to the larger frame.
    for _ in 0..4 {
        serve(10_000);
        serve(1_000);
    }
    let small = (0..5).map(|_| serve(1_000)).min().expect("five runs");
    let large = (0..5).map(|_| serve(10_000)).min().expect("five runs");
    assert_eq!(handle.admitted(), 2 * (4 * 11_000 + 5 * 11_000));
    // 20 000 records against 2 000: ten times the records, the same
    // handful of per-batch and per-path allocations (chunk buffers,
    // stash buckets, ring and ack messages).
    assert!(
        large <= small + 8,
        "allocations grew with the record count: {small} for 2×1 000 records, \
         {large} for 2×10 000"
    );
    assert!(large < 400, "{large} allocations to serve two 64-path frames");
}
