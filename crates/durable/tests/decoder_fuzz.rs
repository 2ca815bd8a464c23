//! Decoder fuzzing: `decode_snapshot` and `read_segment` never panic on
//! any input, and never reserve memory out of proportion to the bytes
//! they were given. Inputs are arbitrary bytes plus valid files that are
//! truncated, carry a flipped byte, or claim an oversized `count`,
//! `pending_count` or `len` (with the checksum fixed up so the claim is
//! actually parsed).
//!
//! The allocator below tracks live heap bytes per thread, so each case
//! measures its own decode's peak without interference from tests running
//! on other threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use kalstream_core::wire::{SyncMessage, WireMessage};
use kalstream_core::{ProtocolConfig, ServerEndpoint, SessionSpec};
use kalstream_durable::{crc32, decode_snapshot, encode_snapshot, read_segment, WalWriter};
use kalstream_linalg::{Matrix, Vector};
use kalstream_sim::Consumer;
use proptest::prelude::*;

struct PeakAllocator;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + size;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

fn note_free(size: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(size)));
}

// SAFETY: a pass-through to `System`; the bookkeeping touches only
// const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        note_free(layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: PeakAllocator = PeakAllocator;

/// Runs `f` and returns its result with the peak heap growth (bytes) on
/// this thread while it ran.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = f();
    (out, PEAK.with(Cell::get) - base)
}

/// What decoding `len` input bytes may legitimately hold at its peak: the
/// smallest pending sync is 9 bytes and decodes to one `SyncMessage`, and
/// nothing else in a snapshot is denser, so a decoder that only reserves
/// what the remaining bytes could hold stays within this.
fn snapshot_budget(len: usize) -> usize {
    2 * (len / 9 + 1) * std::mem::size_of::<SyncMessage>() + 2 * len + (64 << 10)
}

/// A snapshot of `streams` live endpoints, each with one pending sync and
/// a bound directive queued.
fn valid_snapshot(streams: u32) -> Vec<u8> {
    let states: Vec<_> = (0..streams)
        .map(|id| {
            let config = ProtocolConfig::new(0.5).expect("valid delta");
            let mut server: ServerEndpoint = SessionSpec::default_scalar(0.1, config)
                .expect("valid spec")
                .build()
                .server;
            let mut out = [0.0];
            server.receive(
                0,
                &WireMessage::Sync {
                    seq: Some(1),
                    msg: SyncMessage::State {
                        x: Vector::from_slice(&[f64::from(id)]),
                        p: Matrix::scalar(1, 0.3),
                    },
                }
                .encode(),
            );
            server.estimate(0, &mut out);
            server.push_bound_directive(0.25);
            server.enqueue(SyncMessage::Measurement {
                z: Vector::from_slice(&[1.5]),
            });
            (id, server.state())
        })
        .collect();
    encode_snapshot(9, &states)
}

/// Rewrites the trailing CRC so the decoder gets past the checksum and
/// parses the (doctored) structure.
fn fix_crc(bytes: &mut [u8]) {
    let n = bytes.len();
    let crc = crc32(&bytes[..n - 4]).to_le_bytes();
    bytes[n - 4..].copy_from_slice(&crc);
}

/// Offset of the snapshot's `count` field.
const COUNT_AT: usize = 16;
/// Offset of the first record's `body_len` field.
const FIRST_BODY_LEN_AT: usize = 24;

/// Offset of the first record's `pending_count` field.
fn pending_count_at(snapshot: &[u8]) -> usize {
    // Body: filter_len | filter | 8 | 1 | 8 | 1 | 1 | 8 | 7 × 8, then
    // pending_count.
    let body = FIRST_BODY_LEN_AT + 4;
    let filter_len =
        u32::from_le_bytes(snapshot[body..body + 4].try_into().expect("4 bytes")) as usize;
    body + 4 + filter_len + 8 + 1 + 8 + 1 + 1 + 8 + 7 * 8
}

fn check_snapshot(bytes: &[u8]) -> Result<(), TestCaseError> {
    let ((), peak) = peak_growth(|| drop(decode_snapshot(bytes)));
    prop_assert!(
        peak <= snapshot_budget(bytes.len()),
        "decoding {} bytes peaked at {} heap bytes",
        bytes.len(),
        peak
    );
    Ok(())
}

/// A fresh file path per call (tests run on several threads at once).
fn tmp_path(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!("kalstream-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir.join(format!("{}-{name}", NEXT.fetch_add(1, Ordering::Relaxed)))
}

/// A WAL segment of `records` small records.
fn valid_segment(records: u64) -> Vec<u8> {
    let path = tmp_path("seed.log");
    let mut w = WalWriter::create(&path).expect("create segment");
    for tick in 0..records {
        w.append(tick, &vec![tick as u8; (tick % 7) as usize * 5])
            .expect("append");
    }
    drop(w);
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).expect("remove");
    bytes
}

fn check_segment(bytes: &[u8], name: &str) -> Result<(), TestCaseError> {
    let path = tmp_path(name);
    std::fs::write(&path, bytes).expect("write case");
    let (read, peak) = peak_growth(|| read_segment(&path).expect("readable file"));
    std::fs::remove_file(&path).expect("remove case");
    // The file itself, plus at most one copied payload and one 32-byte
    // record entry per 16-byte record header.
    let budget = 4 * bytes.len() + (bytes.len() / 16 + 1) * 64 + (64 << 10);
    prop_assert!(
        peak <= budget,
        "reading {} bytes peaked at {} heap bytes",
        bytes.len(),
        peak
    );
    prop_assert!(read.torn <= 1);
    let payload_bytes: usize = read.records.iter().map(|(_, p)| p.len()).sum();
    prop_assert!(payload_bytes + 16 * read.records.len() + 8 <= bytes.len().max(8));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn snapshot_decoder_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        magic in any::<bool>(),
        fix in any::<bool>(),
    ) {
        let mut bytes = bytes;
        if magic && bytes.len() >= 4 {
            bytes[..4].copy_from_slice(b"KSD1");
        }
        if fix && bytes.len() >= 24 {
            bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
            fix_crc(&mut bytes);
        }
        check_snapshot(&bytes)?;
    }

    #[test]
    fn snapshot_decoder_survives_damaged_valid_files(
        streams in 1u32..6,
        cut in any::<u64>(),
        flip_at in any::<u64>(),
        flip in 1u8..255,
        refix in any::<bool>(),
    ) {
        let file = valid_snapshot(streams);
        let (ticks, states) = decode_snapshot(&file).expect("valid file decodes");
        prop_assert_eq!((ticks, states.len()), (9, streams as usize));

        let cut = (cut % file.len() as u64) as usize;
        prop_assert!(decode_snapshot(&file[..cut]).is_err());
        check_snapshot(&file[..cut])?;

        let mut flipped = file.clone();
        flipped[(flip_at % file.len() as u64) as usize] ^= flip;
        if refix {
            fix_crc(&mut flipped);
        }
        check_snapshot(&flipped)?;
    }

    #[test]
    fn snapshot_decoder_rejects_oversized_claims_within_budget(
        streams in 1u32..6,
        claim in any::<u32>(),
        field in 0usize..3,
    ) {
        let mut file = valid_snapshot(streams);
        let at = match field {
            0 => COUNT_AT,
            1 => FIRST_BODY_LEN_AT,
            _ => pending_count_at(&file),
        };
        let honest = u32::from_le_bytes(file[at..at + 4].try_into().expect("4 bytes"));
        prop_assume!(claim > honest);
        file[at..at + 4].copy_from_slice(&claim.to_le_bytes());
        fix_crc(&mut file);
        prop_assert!(decode_snapshot(&file).is_err());
        check_snapshot(&file)?;
    }

    #[test]
    fn wal_reader_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        header in any::<bool>(),
    ) {
        let mut bytes = bytes;
        if header && bytes.len() >= 8 {
            bytes[..8].copy_from_slice(b"KSWL\x01\x00\x00\x00");
        }
        check_segment(&bytes, "arbitrary.log")?;
    }

    #[test]
    fn wal_reader_survives_damaged_valid_segments(
        records in 1u64..12,
        cut in any::<u64>(),
        flip_at in any::<u64>(),
        flip in 1u8..255,
        claim in any::<u32>(),
    ) {
        let segment = valid_segment(records);
        let cut = (cut % segment.len() as u64) as usize;
        check_segment(&segment[..cut], "cut.log")?;

        let mut flipped = segment.clone();
        flipped[(flip_at % segment.len() as u64) as usize] ^= flip;
        check_segment(&flipped, "flipped.log")?;

        // An oversized `len` on the first record: the reader must stop at
        // the torn record without trusting the claim.
        let mut oversized = segment.clone();
        oversized[8..12].copy_from_slice(&claim.max(1 << 20).to_le_bytes());
        let path = tmp_path("oversized.log");
        std::fs::write(&path, &oversized).expect("write case");
        let read = read_segment(&path).expect("readable file");
        std::fs::remove_file(&path).expect("remove case");
        prop_assert_eq!(read.torn, 1);
        prop_assert!(read.records.is_empty());
        check_segment(&oversized, "oversized.log")?;
    }
}
