//! The sync-message WAL: one record per tick, segmented at snapshot
//! barriers.
//!
//! ## Format
//!
//! Each segment file is:
//!
//! ```text
//! "KSWL" | version:u16 | reserved:u16
//! record*
//! ```
//!
//! and each record is:
//!
//! ```text
//! payload_len:u32 | tick:u64 | crc:u32 | payload
//! ```
//!
//! where `payload` is **exactly** one tick's framed wire batch — the same
//! bytes `IngestPipeline::ingest_tick` consumes, captured *before* they
//! are applied. The tick barrier is the natural truncation point: the
//! protocol already delimits ticks on the wire (`TICK_MARKER_STREAM`), so
//! a record boundary never splits a message, and replaying records in
//! order reproduces the exact `ingest_tick` call sequence.
//!
//! `crc` covers `tick || payload`. A record that fails its length, CRC, or
//! tick-continuity check ends the readable prefix of the segment: the
//! append-before-apply discipline means a torn tail is a tick that was
//! **never applied** by the crashed process, so discarding it is not data
//! loss — the client's ack/timeout machinery re-sends anything the server
//! never saw (the PR 7 loss-recovery path, unchanged).

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use bytes::BufMut;

use crate::crc::{crc32, crc32_update};

/// First bytes of every WAL segment ("KalStream WAL").
pub const WAL_MAGIC: [u8; 4] = *b"KSWL";

/// Current WAL format version.
pub const WAL_VERSION: u16 = 1;

/// Bytes of a segment header: magic, version, reserved.
const SEGMENT_HEADER_BYTES: usize = 4 + 2 + 2;

/// Fixed bytes per record before the payload.
const RECORD_HEADER_BYTES: usize = 4 + 8 + 4;

/// Appender over one open segment file. Records are written with a single
/// `write_all` each, so a crash tears at most the final record — which the
/// reader detects and discards. Each record is assembled in a buffer the
/// writer keeps (across [`WalWriter::rotate`] too), so a steady-state
/// append does not allocate.
pub struct WalWriter {
    file: File,
    path: PathBuf,
    records: u64,
    bytes: u64,
    record: Vec<u8>,
}

/// Creates a segment file at `path` and writes its header.
fn create_segment(path: &Path) -> io::Result<File> {
    let mut file = File::create(path)?;
    let mut header = [0u8; SEGMENT_HEADER_BYTES];
    header[..4].copy_from_slice(&WAL_MAGIC);
    header[4..6].copy_from_slice(&WAL_VERSION.to_le_bytes());
    file.write_all(&header)?;
    Ok(file)
}

impl WalWriter {
    /// Creates a fresh segment at `path` and writes its header.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(WalWriter {
            file: create_segment(path)?,
            path: path.to_path_buf(),
            records: 0,
            bytes: SEGMENT_HEADER_BYTES as u64,
            record: Vec::new(),
        })
    }

    /// Closes this segment and continues in a fresh one at `path`, keeping
    /// the record buffer.
    pub fn rotate(&mut self, path: &Path) -> io::Result<()> {
        self.file = create_segment(path)?;
        self.path = path.to_path_buf();
        self.records = 0;
        self.bytes = SEGMENT_HEADER_BYTES as u64;
        Ok(())
    }

    /// Appends one tick's wire batch as a single record. The CRC streams
    /// over `tick` and then the payload.
    pub fn append(&mut self, tick: u64, payload: &[u8]) -> io::Result<()> {
        let tick_bytes = tick.to_le_bytes();
        let record = &mut self.record;
        record.clear();
        record.put_u32_le(payload.len() as u32);
        record.put_slice(&tick_bytes);
        record.put_u32_le(crc32_update(crc32(&tick_bytes), payload));
        record.put_slice(payload);
        self.file.write_all(record)?;
        self.records += 1;
        self.bytes += record.len() as u64;
        Ok(())
    }

    /// Records appended to this segment.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes written to this segment (header included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The segment's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Everything read back from one segment.
pub struct SegmentRead {
    /// Intact records, in file order: `(tick, payload)`.
    pub records: Vec<(u64, Vec<u8>)>,
    /// 1 when the segment ended in a torn or corrupt record (everything
    /// after it is discarded), 0 for a clean tail.
    pub torn: u64,
}

/// Reads a segment, returning its intact record prefix. A missing or
/// malformed header yields an empty, torn read rather than an error: the
/// recovery path treats any unreadable tail state as "the crash got here".
pub fn read_segment(path: &Path) -> io::Result<SegmentRead> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    if buf.len() < SEGMENT_HEADER_BYTES || buf[..4] != WAL_MAGIC {
        return Ok(SegmentRead {
            records: Vec::new(),
            torn: 1,
        });
    }
    let version = u16::from_le_bytes([buf[4], buf[5]]);
    if version != WAL_VERSION {
        return Ok(SegmentRead {
            records: Vec::new(),
            torn: 1,
        });
    }
    let mut records = Vec::new();
    let mut pos = SEGMENT_HEADER_BYTES;
    let mut torn = 0u64;
    while pos < buf.len() {
        if buf.len() - pos < RECORD_HEADER_BYTES {
            torn = 1;
            break;
        }
        let len = u32::from_le_bytes([buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]]) as usize;
        let tick = u64::from_le_bytes([
            buf[pos + 4],
            buf[pos + 5],
            buf[pos + 6],
            buf[pos + 7],
            buf[pos + 8],
            buf[pos + 9],
            buf[pos + 10],
            buf[pos + 11],
        ]);
        let stored_crc =
            u32::from_le_bytes([buf[pos + 12], buf[pos + 13], buf[pos + 14], buf[pos + 15]]);
        let body_start = pos + RECORD_HEADER_BYTES;
        if buf.len() - body_start < len {
            torn = 1;
            break;
        }
        let payload = &buf[body_start..body_start + len];
        if crc32_update(crc32(&buf[pos + 4..pos + 12]), payload) != stored_crc {
            torn = 1;
            break;
        }
        records.push((tick, payload.to_vec()));
        pos = body_start + len;
    }
    Ok(SegmentRead { records, torn })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kalstream-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    #[test]
    fn roundtrip_preserves_records_in_order() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("wal-0.log");
        let mut w = WalWriter::create(&path).unwrap();
        for tick in 0..10u64 {
            w.append(tick, format!("tick-{tick}-payload").as_bytes())
                .unwrap();
        }
        assert_eq!(w.records(), 10);
        drop(w);
        let read = read_segment(&path).unwrap();
        assert_eq!(read.torn, 0);
        assert_eq!(read.records.len(), 10);
        for (i, (tick, payload)) in read.records.iter().enumerate() {
            assert_eq!(*tick, i as u64);
            assert_eq!(payload, format!("tick-{i}-payload").as_bytes());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_payloads_roundtrip() {
        // Quiet ticks are empty batches; they still must be recorded (the
        // predict step advances state even with no messages).
        let dir = tmp_dir("empty");
        let path = dir.join("wal-0.log");
        let mut w = WalWriter::create(&path).unwrap();
        for tick in 0..3u64 {
            w.append(tick, &[]).unwrap();
        }
        drop(w);
        let read = read_segment(&path).unwrap();
        assert_eq!(read.torn, 0);
        assert_eq!(
            read.records,
            vec![(0, Vec::new()), (1, Vec::new()), (2, Vec::new())]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded_at_every_truncation_point() {
        let dir = tmp_dir("torn");
        let path = dir.join("wal-0.log");
        let mut w = WalWriter::create(&path).unwrap();
        for tick in 0..3u64 {
            w.append(tick, &[0xAB; 20]).unwrap();
        }
        drop(w);
        let full = std::fs::read(&path).unwrap();
        let record_bytes = RECORD_HEADER_BYTES + 20;
        // Truncate anywhere inside the last record: the first two records
        // must survive, the tail must be counted torn.
        let second_end = 8 + 2 * record_bytes;
        for cut in second_end + 1..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let read = read_segment(&path).unwrap();
            assert_eq!(read.torn, 1, "cut at {cut}");
            assert_eq!(read.records.len(), 2, "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_ends_the_readable_prefix() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("wal-0.log");
        let mut w = WalWriter::create(&path).unwrap();
        for tick in 0..3u64 {
            w.append(tick, &[0xCD; 16]).unwrap();
        }
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte in the middle record.
        let record_bytes = RECORD_HEADER_BYTES + 16;
        bytes[8 + record_bytes + RECORD_HEADER_BYTES + 3] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let read = read_segment(&path).unwrap();
        assert_eq!(read.torn, 1);
        assert_eq!(
            read.records.len(),
            1,
            "only the record before the corruption survives"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unreadable_header_yields_empty_torn_read() {
        let dir = tmp_dir("header");
        let path = dir.join("wal-0.log");
        std::fs::write(&path, b"junk").unwrap();
        let read = read_segment(&path).unwrap();
        assert_eq!(read.torn, 1);
        assert!(read.records.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
