//! Wire protocol v2: length-prefixed binary frames with per-session
//! label dictionaries and varint delta timestamps.
//!
//! The text protocol ([the parent module](super)) stays the default —
//! v2 is negotiated by capability: a client probes with `HELLO v2`
//! (text), switches with `UPGRADE`, and from the next byte the inbound
//! stream is a sequence of frames. **Replies stay text lines** in both
//! directions' framing: the server acknowledges a whole DATA frame
//! with one `OK frame=<seq> n=<accepted> late=<l> ahead=<a>` line
//! instead of per-record `OK`s, which is what lets acked bulk feeds
//! stop paying a reply round per flush.
//!
//! # Frame layout
//!
//! ```text
//! offset  bytes  field
//! 0       2      magic "T2"
//! 2       1      version (2)
//! 3       1      kind: 0 DATA, 1 END, 2 PING
//! 4       4      seq (u32 LE, per-session, client-assigned)
//! 8       4      payload length (u32 LE; 0 for END/PING)
//! 12      4      payload CRC-32 (IEEE, LE; CRC of b"" for empty)
//! 16      4      header CRC-32 over bytes 0..16 (LE)
//! 20      —      payload
//! ```
//!
//! DATA payload:
//!
//! ```text
//! uvarint  new dictionary entries
//!   repeat: uvarint label byte length, then the UTF-8 label bytes
//!           (ids assigned sequentially: first entry ever = id 0)
//! uvarint  record count
//!   repeat: uvarint label id, uvarint zigzag(timestamp delta)
//! ```
//!
//! Timestamps are delta-coded against the previous record **of the
//! same frame** (the first record's delta is against 0), zigzag-coded
//! so mildly out-of-order feeds stay compact, with wrapping `u64`
//! arithmetic so every timestamp value round-trips. Frames are
//! therefore independently decodable given the session dictionary.
//!
//! # Dictionary lifecycle
//!
//! The label dictionary is **per connection and append-only**: the
//! encoder assigns the next id to each label it has not sent before
//! and ships the label bytes once, in the same frame that first
//! references it; the decoder appends entries in order. It survives
//! `END`/`UPGRADE` round trips on the same connection and dies with
//! it. Because a skipped or rejected DATA frame would leave the two
//! sides' dictionaries disagreeing, any malformed frame is answered
//! with one `ERR` line and the session is closed — a fresh connection
//! is the resync point. [`MAX_DICT_ENTRIES`] bounds a session's
//! dictionary; a frame pushing past it is malformed.

use tiresias_core::RecordBatch;
use tiresias_hierarchy::FxHashMap;

/// Frame magic: `"T2"`.
pub const MAGIC: [u8; 2] = *b"T2";
/// Protocol version carried in every frame header.
pub const VERSION: u8 = 2;
/// Fixed byte length of a frame header.
pub const HEADER_BYTES: usize = 20;
/// Upper bound on a frame payload; larger lengths are refused before
/// any allocation (a real DATA frame is bounded by the sender's batch
/// size, far below this).
pub const MAX_PAYLOAD_BYTES: u32 = 4 << 20;
/// Upper bound on one label's byte length.
pub const MAX_LABEL_BYTES: u64 = 4096;
/// Upper bound on a session dictionary (distinct labels per
/// connection).
pub const MAX_DICT_ENTRIES: usize = 1 << 20;

/// IEEE CRC-32 (the zlib/PNG polynomial) — the same function the WAL
/// and segment tiers checksum with on disk.
pub use tiresias_core::crc32;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A batch of records (dictionary entries + delta-coded records).
    Data,
    /// Return the session to the text protocol (`OK text` reply).
    End,
    /// Liveness fence; answered `PONG frame=<seq>` even under `NOACK`.
    Ping,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Data => 0,
            FrameKind::End => 1,
            FrameKind::Ping => 2,
        }
    }

    fn from_byte(b: u8) -> Option<FrameKind> {
        match b {
            0 => Some(FrameKind::Data),
            1 => Some(FrameKind::End),
            2 => Some(FrameKind::Ping),
            _ => None,
        }
    }
}

/// A validated frame header.
#[derive(Debug, Clone, Copy)]
pub struct FrameHeader {
    /// What the frame carries.
    pub kind: FrameKind,
    /// Client-assigned sequence number, echoed in the ack line.
    pub seq: u32,
    /// Payload byte length (already bounded by [`MAX_PAYLOAD_BYTES`]).
    pub payload_len: u32,
    /// Expected CRC-32 of the payload bytes.
    pub payload_crc: u32,
}

/// Writes the header of a frame carrying `payload` into `h`.
fn fill_header(h: &mut [u8], kind: FrameKind, seq: u32, payload: &[u8]) {
    h[0..2].copy_from_slice(&MAGIC);
    h[2] = VERSION;
    h[3] = kind.to_byte();
    h[4..8].copy_from_slice(&seq.to_le_bytes());
    h[8..12].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    h[12..16].copy_from_slice(&crc32(payload).to_le_bytes());
    let hcrc = crc32(&h[0..16]);
    h[16..20].copy_from_slice(&hcrc.to_le_bytes());
}

/// A complete END or PING frame (empty payload) as fixed bytes.
pub fn control_frame(kind: FrameKind, seq: u32) -> [u8; HEADER_BYTES] {
    let mut h = [0u8; HEADER_BYTES];
    fill_header(&mut h, kind, seq, &[]);
    h
}

/// Validates and decodes a frame header. The error text is sent back
/// verbatim in the `ERR` reply; after any header error the byte stream
/// can no longer be trusted and the session must close.
pub fn decode_header(h: &[u8; HEADER_BYTES]) -> Result<FrameHeader, String> {
    if h[0..2] != MAGIC {
        return Err("bad frame magic".to_string());
    }
    let expected = u32::from_le_bytes(h[16..20].try_into().expect("4 bytes"));
    if crc32(&h[0..16]) != expected {
        return Err("frame header CRC mismatch".to_string());
    }
    if h[2] != VERSION {
        return Err(format!("unsupported frame version {}", h[2]));
    }
    let Some(kind) = FrameKind::from_byte(h[3]) else {
        return Err(format!("unknown frame kind {}", h[3]));
    };
    let payload_len = u32::from_le_bytes(h[8..12].try_into().expect("4 bytes"));
    if payload_len > MAX_PAYLOAD_BYTES {
        return Err(format!(
            "frame payload of {payload_len} bytes exceeds the {MAX_PAYLOAD_BYTES}-byte bound"
        ));
    }
    if kind != FrameKind::Data && payload_len != 0 {
        return Err("control frame with a payload".to_string());
    }
    Ok(FrameHeader {
        kind,
        seq: u32::from_le_bytes(h[4..8].try_into().expect("4 bytes")),
        payload_len,
        payload_crc: u32::from_le_bytes(h[12..16].try_into().expect("4 bytes")),
    })
}

/// Appends `v` as a LEB128 unsigned varint.
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads a LEB128 unsigned varint at `*pos`, advancing it.
pub fn get_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        let Some(&b) = buf.get(*pos) else {
            return Err("truncated varint".to_string());
        };
        *pos += 1;
        v |= u64::from(b & 0x7F) << shift;
        if b < 0x80 {
            return Ok(v);
        }
    }
    Err("varint overflows 64 bits".to_string())
}

fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// The sending half: interns labels into the per-connection dictionary
/// and assembles DATA frames.
///
/// A record is staged either by label ([`add`](FrameEncoder::add)) or,
/// when the caller already holds the label's id, by id
/// ([`intern`](FrameEncoder::intern) once, then
/// [`add_id`](FrameEncoder::add_id) per record: two varints, no hash,
/// no allocation). [`finish`](FrameEncoder::finish) ships everything
/// staged since the last frame. Labels interned into a frame are part
/// of it even if no record uses them, so dropping staged work instead
/// of finishing would desync the dictionary from the receiver.
#[derive(Debug, Default)]
pub struct FrameEncoder {
    ids: FxHashMap<String, u32>,
    dict_buf: Vec<u8>,
    rec_buf: Vec<u8>,
    pending_entries: u64,
    pending_records: u64,
    prev_ts: u64,
}

impl FrameEncoder {
    /// A fresh encoder with an empty dictionary (one per connection).
    pub fn new() -> FrameEncoder {
        FrameEncoder::default()
    }

    /// Distinct labels interned so far.
    pub fn dict_len(&self) -> usize {
        self.ids.len()
    }

    /// Records staged for the current frame.
    pub fn pending(&self) -> usize {
        self.pending_records as usize
    }

    /// The dictionary id of `label`. A label this connection has not
    /// sent before gets the next id and is staged into the current
    /// frame's dictionary section; a known label costs one lookup and
    /// no allocation.
    pub fn intern(&mut self, label: &str) -> u32 {
        if let Some(&id) = self.ids.get(label) {
            return id;
        }
        let id = self.ids.len() as u32;
        self.ids.insert(label.to_string(), id);
        put_uvarint(&mut self.dict_buf, label.len() as u64);
        self.dict_buf.extend_from_slice(label.as_bytes());
        self.pending_entries += 1;
        id
    }

    /// Stages one record by an id [`intern`](FrameEncoder::intern)
    /// returned.
    pub fn add_id(&mut self, id: u32, t_secs: u64) {
        debug_assert!((id as usize) < self.ids.len(), "id {id} was never interned");
        put_uvarint(&mut self.rec_buf, u64::from(id));
        put_uvarint(&mut self.rec_buf, zigzag(t_secs.wrapping_sub(self.prev_ts) as i64));
        self.prev_ts = t_secs;
        self.pending_records += 1;
    }

    /// Stages one record into the current frame.
    pub fn add(&mut self, label: &str, t_secs: u64) {
        let id = self.intern(label);
        self.add_id(id, t_secs);
    }

    /// Assembles the staged records into one DATA frame appended to
    /// `out` and resets the staging area for the next frame. The
    /// payload is written in place behind a reserved header, so a
    /// frame allocates nothing once `out` has the capacity.
    pub fn finish(&mut self, seq: u32, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + HEADER_BYTES, 0);
        put_uvarint(out, self.pending_entries);
        out.extend_from_slice(&self.dict_buf);
        put_uvarint(out, self.pending_records);
        out.extend_from_slice(&self.rec_buf);
        let (header, payload) = out[start..].split_at_mut(HEADER_BYTES);
        fill_header(header, FrameKind::Data, seq, payload);
        self.dict_buf.clear();
        self.rec_buf.clear();
        self.pending_entries = 0;
        self.pending_records = 0;
        self.prev_ts = 0;
    }

    /// Convenience: one DATA frame carrying `records`, appended to
    /// `out`.
    pub fn encode_data<S: AsRef<str>>(
        &mut self,
        seq: u32,
        records: &[(S, u64)],
        out: &mut Vec<u8>,
    ) {
        debug_assert_eq!(self.pending(), 0, "staged records from an unfinished frame");
        for (label, t_secs) in records {
            self.add(label.as_ref(), *t_secs);
        }
        self.finish(seq, out);
    }
}

/// The receiving half: owns the per-connection label dictionary and
/// decodes DATA payloads straight into a flat [`RecordBatch`].
///
/// A record reaches the batch as `(path index, timestamp)` without a
/// hash or an allocation: the decoder keeps one slot per dictionary id
/// that maps it to the label's entry in the batch being filled, so
/// only the *first* use of a label in a frame copies its bytes.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    dict: Vec<String>,
    /// Per dictionary id: 1 + the label's path index in the batch being
    /// filled, 0 while the current frame has not used the label.
    slots: Vec<u32>,
    /// The ids whose slot the current frame set (reset afterwards).
    used: Vec<u32>,
}

impl FrameDecoder {
    /// A fresh decoder with an empty dictionary (one per connection).
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Distinct labels received so far.
    pub fn dict_len(&self) -> usize {
        self.dict.len()
    }

    /// Decodes one DATA payload: appends its new dictionary entries,
    /// then appends every record to `batch`. Returns how many entries
    /// the dictionary grew by.
    ///
    /// # Errors
    ///
    /// Any malformed input, with the reason for the `ERR` reply. The
    /// dictionary and `batch` may then hold part of the frame — the
    /// connection is desynchronised and must close (see the module
    /// docs), and the caller discards the batch.
    pub fn decode_data(
        &mut self,
        payload: &[u8],
        batch: &mut RecordBatch,
    ) -> Result<usize, String> {
        let (new_entries, offset) = decode_dict(payload, &mut self.dict)?;
        self.slots.resize(self.dict.len(), 0);
        let decoded = self.decode_records(payload, offset, batch);
        for id in self.used.drain(..) {
            self.slots[id as usize] = 0;
        }
        decoded.map(|()| new_entries)
    }

    /// The record section: each record's id goes through its slot to
    /// the label's entry in `batch` (made on the frame's first use).
    fn decode_records(
        &mut self,
        payload: &[u8],
        offset: usize,
        batch: &mut RecordBatch,
    ) -> Result<(), String> {
        for item in records(payload, offset, self.dict.len())? {
            let (id, t_secs) = item?;
            let slot = &mut self.slots[id as usize];
            if *slot == 0 {
                let path = batch
                    .add_path(&self.dict[id as usize])
                    .expect("labels are capped at MAX_LABEL_BYTES, below the batch's own bound");
                *slot = path + 1;
                self.used.push(id);
            }
            batch.push(*slot - 1, t_secs);
        }
        Ok(())
    }
}

/// Consumes a DATA payload's dictionary section, appending the new
/// entries to `dict` (ids are implicit: entry order). Returns the
/// number of new entries and the offset where the record section
/// starts.
pub fn decode_dict(payload: &[u8], dict: &mut Vec<String>) -> Result<(usize, usize), String> {
    let mut pos = 0usize;
    let count = get_uvarint(payload, &mut pos)?;
    if count as usize > MAX_DICT_ENTRIES.saturating_sub(dict.len()) {
        return Err(format!(
            "dictionary would exceed {MAX_DICT_ENTRIES} entries ({} + {count} new)",
            dict.len()
        ));
    }
    for _ in 0..count {
        let len = get_uvarint(payload, &mut pos)?;
        if len > MAX_LABEL_BYTES {
            return Err(format!("label of {len} bytes exceeds the {MAX_LABEL_BYTES}-byte bound"));
        }
        let len = len as usize;
        let Some(bytes) = payload.get(pos..pos + len) else {
            return Err("truncated dictionary entry".to_string());
        };
        pos += len;
        let label =
            std::str::from_utf8(bytes).map_err(|_| "dictionary label is not UTF-8".to_string())?;
        if label.is_empty() {
            return Err("empty dictionary label".to_string());
        }
        dict.push(label.to_string());
    }
    Ok((count as usize, pos))
}

/// Iterates a DATA payload's record section: `(label id, timestamp)`
/// pairs, ids validated against the (already extended) dictionary
/// length, deltas resolved to absolute timestamps. Yields one `Err`
/// and stops on malformed input, including trailing bytes after the
/// declared record count.
pub struct RecordIter<'a> {
    buf: &'a [u8],
    pos: usize,
    remaining: u64,
    prev_ts: u64,
    dict_len: u64,
    failed: bool,
}

/// Starts iterating the record section at `offset` (as returned by
/// [`decode_dict`]).
pub fn records(payload: &[u8], offset: usize, dict_len: usize) -> Result<RecordIter<'_>, String> {
    let mut pos = offset;
    let remaining = get_uvarint(payload, &mut pos)?;
    Ok(RecordIter {
        buf: payload,
        pos,
        remaining,
        prev_ts: 0,
        dict_len: dict_len as u64,
        failed: false,
    })
}

impl Iterator for RecordIter<'_> {
    type Item = Result<(u32, u64), String>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        if self.remaining == 0 {
            if self.pos != self.buf.len() {
                self.failed = true;
                return Some(Err(format!(
                    "{} trailing bytes after the last record",
                    self.buf.len() - self.pos
                )));
            }
            return None;
        }
        self.remaining -= 1;
        let mut step = || -> Result<(u32, u64), String> {
            let id = get_uvarint(self.buf, &mut self.pos)?;
            if id >= self.dict_len {
                return Err(format!(
                    "label id {id} outside the {}-entry dictionary",
                    self.dict_len
                ));
            }
            let delta = unzigzag(get_uvarint(self.buf, &mut self.pos)?);
            self.prev_ts = self.prev_ts.wrapping_add(delta as u64);
            Ok((id as u32, self.prev_ts))
        };
        let item = step();
        if item.is_err() {
            self.failed = true;
        }
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_all(payload: &[u8], dict: &mut Vec<String>) -> Result<Vec<(String, u64)>, String> {
        let (_, offset) = decode_dict(payload, dict)?;
        let mut out = Vec::new();
        for item in records(payload, offset, dict.len())? {
            let (id, ts) = item?;
            out.push((dict[id as usize].clone(), ts));
        }
        Ok(out)
    }

    /// Splits a byte stream of frames into (header, payload) pairs.
    fn split_frames(mut bytes: &[u8]) -> Vec<(FrameHeader, Vec<u8>)> {
        let mut frames = Vec::new();
        while !bytes.is_empty() {
            let header: [u8; HEADER_BYTES] = bytes[..HEADER_BYTES].try_into().unwrap();
            let header = decode_header(&header).unwrap();
            let end = HEADER_BYTES + header.payload_len as usize;
            let payload = bytes[HEADER_BYTES..end].to_vec();
            assert_eq!(crc32(&payload), header.payload_crc);
            frames.push((header, payload));
            bytes = &bytes[end..];
        }
        frames
    }

    #[test]
    fn uvarint_round_trips() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_uvarint(&buf, &mut pos), Ok(v));
            assert_eq!(pos, buf.len());
        }
        let mut pos = 0;
        assert!(get_uvarint(&[0x80], &mut pos).unwrap_err().contains("truncated"));
        let mut pos = 0;
        assert!(get_uvarint(&[0xFF; 10], &mut pos).unwrap_err().contains("overflows"));
    }

    #[test]
    fn zigzag_round_trips() {
        for d in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(d)), d);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn frames_round_trip_with_a_shared_dictionary() {
        let mut enc = FrameEncoder::new();
        let mut bytes = Vec::new();
        let batch1: Vec<(&str, u64)> = vec![("a/x", 100), ("b/y", 90), ("a/x", 110)];
        let batch2: Vec<(&str, u64)> = vec![("a/x", 120), ("c/z", 0), ("b/y", u64::MAX)];
        enc.encode_data(7, &batch1, &mut bytes);
        enc.encode_data(8, &batch2, &mut bytes);
        assert_eq!(enc.dict_len(), 3);

        let frames = split_frames(&bytes);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].0.seq, 7);
        assert_eq!(frames[1].0.seq, 8);
        let mut dict = Vec::new();
        let got1 = decode_all(&frames[0].1, &mut dict).unwrap();
        assert_eq!(dict, vec!["a/x", "b/y"], "labels ship once, in first-use order");
        let got2 = decode_all(&frames[1].1, &mut dict).unwrap();
        assert_eq!(dict.len(), 3, "second frame only adds the new label");
        let want =
            |b: &[(&str, u64)]| b.iter().map(|&(l, t)| (l.to_string(), t)).collect::<Vec<_>>();
        assert_eq!(got1, want(&batch1));
        assert_eq!(got2, want(&batch2));
    }

    #[test]
    fn decoder_fills_a_flat_batch_with_one_entry_per_label_per_frame() {
        let mut enc = FrameEncoder::new();
        let mut dec = FrameDecoder::new();
        let mut batch = RecordBatch::new();
        let frame1: Vec<(&str, u64)> = vec![("a/x", 100), ("b/y", 90), ("a/x", 110), ("a/x", 5)];
        let frame2: Vec<(&str, u64)> = vec![("b/y", 7), ("c/z", 0), ("b/y", u64::MAX)];
        for (frame, new_entries, distinct) in [(&frame1, 2, 2), (&frame2, 1, 2)] {
            let mut bytes = Vec::new();
            enc.encode_data(0, frame, &mut bytes);
            let (_, payload) = split_frames(&bytes).pop().unwrap();
            batch.clear();
            assert_eq!(dec.decode_data(&payload, &mut batch), Ok(new_entries));
            assert_eq!(batch.records().collect::<Vec<_>>(), *frame);
            assert_eq!(batch.distinct_paths(), distinct);
        }
        assert_eq!(dec.dict_len(), 3);
        // A malformed record section errors without wedging the slots.
        let mut raw = Vec::new();
        put_uvarint(&mut raw, 0);
        put_uvarint(&mut raw, 2);
        put_uvarint(&mut raw, 1);
        put_uvarint(&mut raw, 0);
        put_uvarint(&mut raw, 9); // unknown id
        put_uvarint(&mut raw, 0);
        batch.clear();
        assert!(dec.decode_data(&raw, &mut batch).unwrap_err().contains("label id"));
        assert!(dec.slots.iter().all(|&s| s == 0));
    }

    #[test]
    fn intern_and_add_id_encode_what_add_does() {
        let mut by_label = FrameEncoder::new();
        let mut by_id = FrameEncoder::new();
        let (mut want, mut got) = (Vec::new(), Vec::new());
        by_label.encode_data(4, &[("a/x", 9u64), ("b/y", 2), ("a/x", 11)], &mut want);
        let a = by_id.intern("a/x");
        let b = by_id.intern("b/y");
        assert_eq!(by_id.intern("a/x"), a, "a known label keeps its id and ships once");
        for (id, t) in [(a, 9u64), (b, 2), (a, 11)] {
            by_id.add_id(id, t);
        }
        by_id.finish(4, &mut got);
        assert_eq!(got, want);
        assert_eq!(by_id.dict_len(), 2);
    }

    #[test]
    fn empty_data_frame_round_trips() {
        let mut enc = FrameEncoder::new();
        let mut bytes = Vec::new();
        enc.encode_data::<&str>(0, &[], &mut bytes);
        let frames = split_frames(&bytes);
        let mut dict = Vec::new();
        assert_eq!(decode_all(&frames[0].1, &mut dict), Ok(vec![]));
    }

    #[test]
    fn header_rejects_corruption() {
        let good = control_frame(FrameKind::Ping, 3);
        assert_eq!(decode_header(&good).unwrap().seq, 3);

        let mut bad = good;
        bad[0] = b'X';
        assert!(decode_header(&bad).unwrap_err().contains("magic"));

        // Any single corrupt bit inside the protected region trips the
        // header CRC (or the magic check).
        for bit in 0..(16 * 8) {
            let mut bad = good;
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(decode_header(&bad).is_err(), "bit {bit} must not pass");
        }

        // A wrong version/kind with a *recomputed* CRC is still refused.
        let mut bad = good;
        bad[2] = 3;
        let crc = crc32(&bad[0..16]).to_le_bytes();
        bad[16..20].copy_from_slice(&crc);
        assert!(decode_header(&bad).unwrap_err().contains("version"));
        let mut bad = good;
        bad[3] = 9;
        let crc = crc32(&bad[0..16]).to_le_bytes();
        bad[16..20].copy_from_slice(&crc);
        assert!(decode_header(&bad).unwrap_err().contains("kind"));
    }

    #[test]
    fn header_rejects_oversized_payloads() {
        let mut h = [0u8; HEADER_BYTES];
        fill_header(&mut h, FrameKind::Data, 0, &[]);
        h[8..12].copy_from_slice(&(MAX_PAYLOAD_BYTES + 1).to_le_bytes());
        let crc = crc32(&h[0..16]).to_le_bytes();
        h[16..20].copy_from_slice(&crc);
        assert!(decode_header(&h).unwrap_err().contains("exceeds"));
    }

    #[test]
    fn payload_rejects_bad_ids_and_trailing_bytes() {
        let mut enc = FrameEncoder::new();
        let mut bytes = Vec::new();
        enc.encode_data(0, &[("a", 1u64)], &mut bytes);
        let (_, payload) = split_frames(&bytes).pop().unwrap();

        // Truncation anywhere in the payload errors, never panics.
        for cut in 0..payload.len() {
            let mut dict = Vec::new();
            assert!(decode_all(&payload[..cut], &mut dict).is_err(), "cut {cut}");
        }
        // Trailing garbage is refused.
        let mut long = payload.clone();
        long.push(0);
        let mut dict = Vec::new();
        assert!(decode_all(&long, &mut dict).unwrap_err().contains("trailing"));
        // A record referencing an unknown id is refused.
        let mut raw = Vec::new();
        put_uvarint(&mut raw, 0); // no dict entries
        put_uvarint(&mut raw, 1); // one record
        put_uvarint(&mut raw, 5); // id 5 — unknown
        put_uvarint(&mut raw, 0);
        let mut dict = Vec::new();
        assert!(decode_all(&raw, &mut dict).unwrap_err().contains("label id"));
    }

    #[test]
    fn dictionary_bounds_are_enforced() {
        let mut raw = Vec::new();
        put_uvarint(&mut raw, 1);
        put_uvarint(&mut raw, MAX_LABEL_BYTES + 1);
        let mut dict = Vec::new();
        assert!(decode_dict(&raw, &mut dict).unwrap_err().contains("label of"));

        let mut raw = Vec::new();
        put_uvarint(&mut raw, MAX_DICT_ENTRIES as u64 + 1);
        let mut dict = Vec::new();
        assert!(decode_dict(&raw, &mut dict).unwrap_err().contains("dictionary"));

        let mut raw = Vec::new();
        put_uvarint(&mut raw, 1);
        put_uvarint(&mut raw, 0); // empty label
        let mut dict = Vec::new();
        assert!(decode_dict(&raw, &mut dict).unwrap_err().contains("empty"));
    }

    /// Locks the exact control-frame bytes: CI's `/dev/tcp` smoke
    /// writes these via `printf`, so a codec change that would break
    /// the handshake constants must fail here first.
    #[test]
    fn control_frame_bytes_are_stable() {
        let hex = |frame: [u8; HEADER_BYTES]| {
            frame.iter().map(|b| format!("\\x{b:02x}")).collect::<String>()
        };
        assert_eq!(
            hex(control_frame(FrameKind::Ping, 0)),
            "\\x54\\x32\\x02\\x02\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x00\
             \\x10\\xae\\xc0\\x15"
        );
        assert_eq!(
            hex(control_frame(FrameKind::End, 1)),
            "\\x54\\x32\\x02\\x01\\x01\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x00\
             \\xb1\\x8e\\xaf\\x33"
        );
    }

    /// Locks the exact bytes of a DATA frame that ships one new label,
    /// reuses a label from an earlier frame and one from its own, and
    /// codes a negative and a two-byte timestamp delta.
    #[test]
    fn data_frame_bytes_are_stable() {
        let mut enc = FrameEncoder::new();
        let mut out = Vec::new();
        enc.encode_data(0, &[("a/x", 5u64)], &mut out);
        out.clear();
        enc.encode_data(1, &[("b/y", 7u64), ("a/x", 3), ("b/y", 300)], &mut out);
        let hex = out.iter().map(|b| format!("{b:02x}")).collect::<String>();
        let (header, payload) = hex.split_at(2 * HEADER_BYTES);
        assert_eq!(header, "54320200010000000d000000f01316750f79cdd1");
        // 1 new entry "b/y" (id 1); 3 records: (1, +7), (0, -4), (1, +297).
        assert_eq!(payload, ["01", "03622f79", "03", "010e", "0007", "01d204"].concat());
    }
}
