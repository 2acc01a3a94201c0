//! Deterministic fault injection for the durability tests.
//!
//! Real crashes corrupt files in a small number of ways: a torn tail
//! (the write reached the page cache but only a prefix reached the
//! platter), flipped bits (media errors), and lost writes (an fsync
//! that never happened). [`FaultFs`] reproduces each of those at a
//! **chosen byte offset**, so recovery tests are exact rather than
//! probabilistic: truncate the WAL three bytes into its last frame and
//! the test knows precisely which acked prefix must survive.
//!
//! A dropped fsync is emulated deterministically rather than hooked:
//! run the writer with [`crate::WalSyncPolicy::Never`] and then
//! truncate at a frame boundary of your choosing — byte-for-byte the
//! state a crash leaves when the page cache never flushed.

use std::fs::OpenOptions;
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::Path;

use crate::wal::FRAME_HEADER_BYTES;

/// Deterministic file-corruption toolbox (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct FaultFs;

impl FaultFs {
    /// Truncates `path` to exactly `len` bytes — the torn-tail shape a
    /// crash mid-append leaves behind.
    pub fn truncate_at(path: &Path, len: u64) -> io::Result<()> {
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(len)?;
        f.sync_all()
    }

    /// Flips bit `bit` (0..=7) of the byte at `offset` — a media
    /// corruption the CRC must catch.
    pub fn flip_bit(path: &Path, offset: u64, bit: u8) -> io::Result<()> {
        let mut f = OpenOptions::new().read(true).write(true).open(path)?;
        let mut byte = [0u8; 1];
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(&mut byte)?;
        byte[0] ^= 1 << (bit & 7);
        f.seek(SeekFrom::Start(offset))?;
        f.write_all(&byte)?;
        f.sync_all()
    }

    /// Overwrites `len` bytes at `offset` with zeros — a lost sector.
    pub fn zero_range(path: &Path, offset: u64, len: u64) -> io::Result<()> {
        let mut f = OpenOptions::new().write(true).open(path)?;
        f.seek(SeekFrom::Start(offset))?;
        f.write_all(&vec![0u8; len as usize])?;
        f.sync_all()
    }

    /// Lists the frame boundaries of a length-prefixed log file as
    /// `(offset, total_frame_len)` pairs, walking the `[len][crc]`
    /// headers without validating payloads. Lets a test aim a fault at
    /// "3 bytes into frame k" instead of guessing offsets. Stops at
    /// the first header that runs past the end of the file.
    pub fn frame_offsets(path: &Path) -> io::Result<Vec<(u64, u64)>> {
        let mut raw = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut raw)?;
        let mut frames = Vec::new();
        let mut off = 0usize;
        while raw.len() - off >= FRAME_HEADER_BYTES as usize {
            let len = u32::from_le_bytes(raw[off..off + 4].try_into().unwrap()) as usize;
            let total = FRAME_HEADER_BYTES as usize + len;
            if raw.len() - off < total {
                break;
            }
            frames.push((off as u64, total as u64));
            off += total;
        }
        Ok(frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    #[test]
    fn truncate_flip_and_zero_are_exact() {
        let dir = TempDir::new("fault-ops");
        let path = dir.join("file");
        std::fs::write(&path, [0u8; 16]).unwrap();
        FaultFs::truncate_at(&path, 10).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 10);
        FaultFs::flip_bit(&path, 3, 0).unwrap();
        FaultFs::flip_bit(&path, 3, 7).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[3], 0b1000_0001);
        FaultFs::zero_range(&path, 2, 4).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[2..6], &[0, 0, 0, 0]);
    }

    #[test]
    fn frame_offsets_walk_headers() {
        // Two frames: payloads of 3 and 5 bytes, bogus CRCs (the
        // walker reads lengths only).
        let mut raw = Vec::new();
        raw.extend_from_slice(&3u32.to_le_bytes());
        raw.extend_from_slice(&0u32.to_le_bytes());
        raw.extend_from_slice(b"abc");
        raw.extend_from_slice(&5u32.to_le_bytes());
        raw.extend_from_slice(&0u32.to_le_bytes());
        raw.extend_from_slice(b"defgh");
        raw.extend_from_slice(&9u32.to_le_bytes()); // torn header
        let dir = TempDir::new("fault-frames");
        let path = dir.join("file");
        std::fs::write(&path, &raw).unwrap();
        let frames = FaultFs::frame_offsets(&path).unwrap();
        assert_eq!(frames, vec![(0, 11), (11, 13)]);
    }
}
