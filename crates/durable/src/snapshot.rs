//! Snapshot encoding: a versioned, checksummed capture of every endpoint's
//! [`EndpointState`] at one tick barrier.
//!
//! ## Format
//!
//! ```text
//! "KSD1" | version:u16 | reserved:u16 | ticks_applied:u64 | count:u32
//! count × ( stream_id:u32 | body_len:u32 | body )
//! crc:u32                                  (CRC-32/IEEE over all prior bytes)
//! ```
//!
//! and each entry `body` is:
//!
//! ```text
//! filter_len:u32 | filter                  (wire-v3 Model sync: model, x, p)
//! steps_since_update:u64 | cov_update:u8
//! last_seq:u64 | ack_due:u8
//! bound_flag:u8 | bound_bits:u64           (f64 bits; zero when flag = 0)
//! syncs_applied:u64 | decode_failures:u64 | predict_failures:u64 | bounds_sent:u64
//! stale_drops:u64 | seq_gaps:u64 | shed:u64
//! pending_count:u32 | pending_count × ( len:u32 | sync_message )
//! ```
//!
//! All integers little-endian, floats carried as raw bits — the decoder
//! reconstructs every f64 with `from_bits`, which is what lets a recovered
//! server be *bit*-identical rather than merely close. The filter triplet
//! rides inside a [`SyncMessage::Model`] wire body: the exact encoding the
//! protocol already trusts to move models and covariances losslessly
//! (triangle-packed symmetric matrices included), so the snapshot format
//! inherits wire-v3's packing and its tests instead of inventing a second
//! matrix codec.
//!
//! The record encoder lives in `kalstream-core`, next to the state it
//! encodes ([`EndpointState::encode_record`]): live shards run the same
//! function over their endpoints and fleet-batch lanes, so the records a
//! [`kalstream_core::SnapshotSource`] emits are byte-identical to encoding
//! its captured states. This module frames records into a file
//! ([`encode_snapshot_records`]) and decodes files.

use bytes::BufMut;
use kalstream_core::wire::SyncMessage;
use kalstream_core::EndpointState;
use kalstream_filter::CovarianceUpdate;
use kalstream_sim::DeliveryStats;

use crate::crc::crc32;

/// First bytes of every snapshot file ("KalStream Durable v1").
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"KSD1";

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u16 = 1;

/// Snapshot decode failures. Any of them invalidates the *whole* snapshot
/// file — recovery falls back to an older snapshot rather than trusting a
/// partially readable one.
#[derive(Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// File does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// Version field is newer than this build understands.
    BadVersion(u16),
    /// The trailing CRC does not match the bytes on disk.
    BadChecksum,
    /// The file ends mid-structure.
    Truncated,
    /// An entry body failed to decode (bad sync payload, bad enum tag).
    BadEntry,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "snapshot does not start with KSD1"),
            SnapshotError::BadVersion(v) => {
                write!(
                    f,
                    "snapshot version {v} (this build reads {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::BadChecksum => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Truncated => write!(f, "snapshot file is truncated"),
            SnapshotError::BadEntry => write!(f, "snapshot entry failed to decode"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Fixed bytes of a snapshot file around its records: magic, version,
/// reserved, `ticks_applied`, `count`, and the trailing CRC.
const FRAME_BYTES: usize = 4 + 2 + 2 + 8 + 4 + 4;

/// Fewest bytes one record can occupy: its `id | body_len` header plus a
/// body's fixed fields (an empty filter and no pending syncs). Bounds how
/// many entries a claimed `count` may pre-allocate.
const MIN_RECORD_BYTES: usize = 4 + 4 + 4 + 8 + 1 + 8 + 1 + 1 + 8 + 7 * 8 + 4;

/// Frames `count` snapshot records — `records` as
/// [`kalstream_core::SnapshotSource::snapshot_records`] writes them,
/// ascending by stream id — into one snapshot file taken after
/// `ticks_applied` ticks.
pub fn encode_snapshot_records(ticks_applied: u64, count: u32, records: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(FRAME_BYTES + records.len());
    buf.put_slice(&SNAPSHOT_MAGIC);
    buf.put_u16_le(SNAPSHOT_VERSION);
    buf.put_u16_le(0);
    buf.put_u64_le(ticks_applied);
    buf.put_u32_le(count);
    buf.put_slice(records);
    let crc = crc32(&buf);
    buf.put_u32_le(crc);
    buf
}

/// Encodes one snapshot: the fleet's states as captured at a tick barrier
/// after `ticks_applied` ticks (the framing of
/// [`encode_snapshot_records`] over each state's
/// [`EndpointState::encode_record`]).
pub fn encode_snapshot(ticks_applied: u64, states: &[(u32, EndpointState)]) -> Vec<u8> {
    let mut records = Vec::new();
    for (id, state) in states {
        state.encode_record(*id, &mut records);
    }
    encode_snapshot_records(ticks_applied, states.len() as u32, &records)
}

/// A little-endian read cursor over a byte slice; every read is
/// bounds-checked so corrupt input surfaces as [`SnapshotError::Truncated`]
/// instead of a panic.
struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.buf.len() < n {
            return Err(SnapshotError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SnapshotError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn remaining(&self) -> usize {
        self.buf.len()
    }
}

fn read_endpoint_state(cur: &mut Cursor<'_>) -> Result<EndpointState, SnapshotError> {
    let filter_len = cur.u32()? as usize;
    let filter_wire = cur.take(filter_len)?;
    let (model, x, p) = match SyncMessage::decode(filter_wire) {
        Ok(SyncMessage::Model { model, x, p }) => (model, x, p),
        _ => return Err(SnapshotError::BadEntry),
    };
    let steps_since_update = cur.u64()?;
    let cov_update = match cur.u8()? {
        0 => CovarianceUpdate::Joseph,
        1 => CovarianceUpdate::Simple,
        _ => return Err(SnapshotError::BadEntry),
    };
    let last_seq = cur.u64()?;
    let ack_due = match cur.u8()? {
        0 => false,
        1 => true,
        _ => return Err(SnapshotError::BadEntry),
    };
    let bound_flag = cur.u8()?;
    let bound_bits = cur.u64()?;
    let bound_due = match bound_flag {
        0 => None,
        1 => Some(f64::from_bits(bound_bits)),
        _ => return Err(SnapshotError::BadEntry),
    };
    let syncs_applied = cur.u64()?;
    let decode_failures = cur.u64()?;
    let predict_failures = cur.u64()?;
    let bounds_sent = cur.u64()?;
    let delivery = DeliveryStats {
        stale_drops: cur.u64()?,
        seq_gaps: cur.u64()?,
        shed: cur.u64()?,
    };
    let pending_count = cur.u32()? as usize;
    // Every pending entry carries at least its 4-byte length: a corrupt
    // count may not reserve more entries than the bytes left could hold.
    let mut pending = Vec::with_capacity(pending_count.min(cur.remaining() / 4));
    for _ in 0..pending_count {
        let len = cur.u32()? as usize;
        let wire = cur.take(len)?;
        pending.push(SyncMessage::decode(wire).map_err(|_| SnapshotError::BadEntry)?);
    }
    Ok(EndpointState {
        model,
        x,
        p,
        steps_since_update,
        cov_update,
        pending,
        syncs_applied,
        decode_failures,
        predict_failures,
        last_seq,
        ack_due,
        bound_due,
        bounds_sent,
        delivery,
    })
}

/// Decodes a snapshot file, verifying magic, version, structure, and CRC.
/// Returns `(ticks_applied, states)`.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(u64, Vec<(u32, EndpointState)>), SnapshotError> {
    if bytes.len() < FRAME_BYTES {
        return Err(SnapshotError::Truncated);
    }
    if bytes[..4] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    // Checksum first: a corrupt version/count field must not steer parsing.
    let (payload, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    if crc32(payload) != stored {
        return Err(SnapshotError::BadChecksum);
    }
    let mut cur = Cursor { buf: &payload[4..] };
    let version = cur.u16()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    let _reserved = cur.u16()?;
    let ticks_applied = cur.u64()?;
    let count = cur.u32()? as usize;
    let mut states = Vec::with_capacity(count.min(cur.remaining() / MIN_RECORD_BYTES));
    for _ in 0..count {
        let id = cur.u32()?;
        let body_len = cur.u32()? as usize;
        let body = cur.take(body_len)?;
        let mut body_cur = Cursor { buf: body };
        let state = read_endpoint_state(&mut body_cur)?;
        if !body_cur.is_empty() {
            return Err(SnapshotError::BadEntry);
        }
        states.push((id, state));
    }
    if !cur.is_empty() {
        return Err(SnapshotError::BadEntry);
    }
    Ok((ticks_applied, states))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalstream_core::{ProtocolConfig, ServerEndpoint, SessionSpec};
    use kalstream_linalg::Vector;

    /// A non-trivial endpoint: driven through real traffic so every state
    /// field is exercised by the roundtrip.
    fn endpoint() -> ServerEndpoint {
        use kalstream_sim::Consumer;
        let config = ProtocolConfig::new(0.5).expect("valid delta");
        let mut server = SessionSpec::default_scalar(0.25, config)
            .expect("valid spec")
            .build()
            .server;
        let mut out = [0.0];
        for tick in 0..5u64 {
            server.receive(
                tick,
                &kalstream_core::wire::WireMessage::Sync {
                    seq: Some(tick + 1),
                    msg: SyncMessage::State {
                        x: Vector::from_slice(&[tick as f64 * 0.3]),
                        p: kalstream_linalg::Matrix::scalar(1, 0.4),
                    },
                }
                .encode(),
            );
            server.estimate(tick, &mut out);
        }
        server.push_bound_directive(0.125);
        // Leave one sync pending: snapshots must capture mid-tick queues.
        server.enqueue(SyncMessage::Measurement {
            z: Vector::from_slice(&[1.5]),
        });
        server
    }

    #[test]
    fn snapshot_roundtrip_is_bit_identical() {
        let states: Vec<(u32, EndpointState)> =
            vec![(3, endpoint().state()), (9, endpoint().state())];
        let wire = encode_snapshot(42, &states);
        let (ticks, decoded) = decode_snapshot(&wire).expect("decode");
        assert_eq!(ticks, 42);
        assert_eq!(decoded, states);
    }

    #[test]
    fn every_corrupted_byte_is_detected() {
        let states = vec![(0u32, endpoint().state())];
        let wire = encode_snapshot(7, &states);
        // Flip one bit at a time across the whole file: the CRC (or, for
        // bytes inside the CRC itself, the mismatch) must catch each one.
        for pos in 0..wire.len() {
            let mut bad = wire.clone();
            bad[pos] ^= 0x40;
            assert!(
                decode_snapshot(&bad).is_err(),
                "single-bit corruption at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let states = vec![(0u32, endpoint().state())];
        let wire = encode_snapshot(7, &states);
        for len in 0..wire.len() {
            assert!(
                decode_snapshot(&wire[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn future_version_is_rejected() {
        let states = vec![(0u32, endpoint().state())];
        let mut wire = encode_snapshot(7, &states);
        wire[4] = 9; // version field
        let fixed = crc32(&wire[..wire.len() - 4]).to_le_bytes();
        let n = wire.len();
        wire[n - 4..].copy_from_slice(&fixed);
        assert_eq!(decode_snapshot(&wire), Err(SnapshotError::BadVersion(9)));
    }
}
