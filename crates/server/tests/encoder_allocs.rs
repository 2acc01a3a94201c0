//! The wire-v2 encoder allocates per *new label*, never per record or
//! per frame: once every label of a stream is interned and the output
//! buffer has grown to a frame's size, staging and finishing another
//! frame over those labels makes no heap allocation at all, whether the
//! records are staged by label or by dictionary id.
//!
//! The whole test binary runs on a counting allocator, so this file
//! holds exactly one test (nothing else may allocate while it counts).

use tiresias_server::protocol::v2::FrameEncoder;
use tiresias_testkit::{allocations, CountingAlloc};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const RECORDS: usize = 4_096;

#[test]
fn a_frame_over_interned_labels_allocates_nothing() {
    let labels: Vec<String> =
        (0..64).map(|i| format!("top{}/mid{}/leaf{i}", i % 5, i % 11)).collect();
    let mut enc = FrameEncoder::new();
    let mut out = Vec::new();
    let stage = |enc: &mut FrameEncoder, by_id: bool, unit: u64| {
        for i in 0..RECORDS {
            let label = &labels[(i * 7) % labels.len()];
            let t = unit * 900 + (i as u64 % 900);
            if by_id {
                let id = enc.intern(label);
                enc.add_id(id, t);
            } else {
                enc.add(label, t);
            }
        }
    };

    // The first frame interns every label and grows every buffer.
    stage(&mut enc, false, 0);
    enc.finish(0, &mut out);
    let first_len = out.len();

    for (seq, by_id) in [(1u32, false), (2, true)] {
        out.clear();
        let before = allocations();
        stage(&mut enc, by_id, u64::from(seq));
        enc.finish(seq, &mut out);
        let made = allocations() - before;
        assert_eq!(made, 0, "frame {seq} (by_id={by_id}) made {made} allocations");
        assert!(out.len() < first_len, "later frames ship no dictionary entries");
    }
    assert_eq!(enc.dict_len(), labels.len());
}
