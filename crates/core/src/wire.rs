//! Binary wire format for sync messages.
//!
//! A hand-rolled little-endian codec rather than a serde format: the
//! sanctioned crate set has no serde *format* crate, and experiment T3
//! reports exact bytes-on-the-wire per policy, so the encoding must be
//! explicit and minimal. Layout (all integers little-endian):
//!
//! ```text
//! message   := tag:u8 body
//! tag       := 1 (State) | 2 (Model) | 3 (Measurement)
//! State     := vec(x) utri(P)            — P is x.dim() × x.dim()
//! Model     := name_len:u16 name:utf8 flags:u8 n:u16 m:u16
//!              F:(utri|full) Q:utri H:full(m×n) R:utri x:f64[n] P:utri
//! Measurement := vec(z)
//! vec(v)    := len:u32 f64[len]
//! utri(M)   := f64[n(n+1)/2]             — upper triangle, row-major
//! full(M)   := f64[rows·cols]            — row-major, headerless
//! flags     := bit 0: F is upper-triangular and sent as utri(F)
//! ```
//!
//! **Triangle packing.** Covariance matrices (`P`, `Q`, `R`) are symmetric,
//! so only the upper triangle travels — `n(n+1)/2` instead of `n²` doubles —
//! and the decoder mirrors it back. The Kalman layer re-symmetrises after
//! every covariance update ([`kalstream_linalg::Matrix::symmetrize_mut`]
//! writes the *same* f64 to both halves), so for every message the protocol
//! produces the round trip is bit-exact. For hand-built messages the
//! contract is: the wire carries the **upper triangle**; a bitwise
//! asymmetric lower triangle is discarded in transit. Kinematic transition
//! matrices (`F` for random-walk/CV/CA models) are upper-triangular, so `F`
//! is triangle-packed too when (and only when) its sub-diagonal entries are
//! bitwise `+0.0`, signalled by a flags bit. Matrix dimensions implied by
//! context (P's by `x`, the model's by one `n:u16 m:u16` pair) are not
//! re-sent. Experiment T3 and `bench_ingest` report the measured savings;
//! [`SyncMessage::encoded_len_unpacked`] preserves the naive-format cost
//! for that accounting.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use kalstream_filter::StateModel;
use kalstream_linalg::{Matrix, Vector};

use crate::{CoreError, Result};

/// A protocol sync message.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // inline-storage matrices make variants big,
                                     // but a message is built once per sync and immediately encoded — boxing would
                                     // put an allocation back on that path for no win
pub enum SyncMessage {
    /// Corrected state and covariance; model unchanged.
    State {
        /// Corrected (pinned) state estimate.
        x: Vector,
        /// State covariance at the source.
        p: Matrix,
    },
    /// Model replacement plus corrected state — sent when the source's
    /// adaptive layer changed the model since the last sync.
    Model {
        /// The new model (including adapted `Q`/`R`).
        model: StateModel,
        /// Corrected (pinned) state estimate under the new model.
        x: Vector,
        /// State covariance under the new model.
        p: Matrix,
    },
    /// Raw measurement; the server runs a standard filter update
    /// ([`crate::ResyncPayload::MeasurementOnly`] mode).
    Measurement {
        /// The observation.
        z: Vector,
    },
}

const TAG_STATE: u8 = 1;
const TAG_MODEL: u8 = 2;
const TAG_MEASUREMENT: u8 = 3;
/// v3: a sequenced sync — `seq:u64` followed by an ordinary v2 body.
const TAG_SEQ: u8 = 4;
/// v3: a cumulative acknowledgement — `seq:u64`, travelling server→source.
const TAG_ACK: u8 = 5;
/// v3: a precision-bound directive — `delta:f64`, travelling server→source
/// on the feedback link (the query runtime's downstream-bound propagation).
const TAG_BOUND: u8 = 6;

/// Flags bit 0: the model's `F` is upper-triangular and triangle-packed.
const FLAG_F_UPPER_TRIANGULAR: u8 = 1;

/// Number of f64s in the upper triangle of an `n × n` matrix.
fn tri_elems(n: usize) -> usize {
    n * (n + 1) / 2
}

/// `true` when every sub-diagonal entry is bitwise `+0.0` — the exact
/// condition under which triangle-packing `F` round-trips losslessly
/// (`-0.0` would not survive, so it disables packing).
fn is_upper_triangular(m: &Matrix) -> bool {
    let zero = 0.0_f64.to_bits();
    (1..m.rows()).all(|r| (0..r).all(|c| m.get(r, c).to_bits() == zero))
}

impl SyncMessage {
    /// Encodes to a freshly allocated wire buffer (thin wrapper over
    /// [`SyncMessage::encode_into`]).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Appends the wire encoding to `buf` — the allocation-free kernel the
    /// frame layer batches through (mirroring the `_into` convention of the
    /// linear-algebra kernels). Exactly [`SyncMessage::encoded_len`] bytes
    /// are written.
    pub fn encode_into<B: BufMut>(&self, buf: &mut B) {
        match self {
            SyncMessage::State { x, p } => {
                buf.put_u8(TAG_STATE);
                put_vec(buf, x);
                put_upper_triangle(buf, p);
            }
            SyncMessage::Model { model, x, p } => encode_model_into(buf, model, x, p),
            SyncMessage::Measurement { z } => {
                buf.put_u8(TAG_MEASUREMENT);
                put_vec(buf, z);
            }
        }
    }

    /// Exact encoded size in bytes, used to pre-size buffers, by the frame
    /// layer's length prefixes, and by experiment T3's byte accounting.
    pub fn encoded_len(&self) -> usize {
        match self {
            SyncMessage::State { x, p } => 1 + vec_len(x) + 8 * tri_elems(p.rows()),
            SyncMessage::Model { model, x, p } => {
                let n = model.state_dim();
                let m = model.measurement_dim();
                let f_elems = if is_upper_triangular(model.f()) {
                    tri_elems(n)
                } else {
                    n * n
                };
                1 + 2
                    + model.name().len()
                    + 1 // flags
                    + 2 // n
                    + 2 // m
                    + 8 * (f_elems + tri_elems(n) + m * n + tri_elems(m) + x.dim() + tri_elems(p.rows()))
            }
            SyncMessage::Measurement { z } => 1 + vec_len(z),
        }
    }

    /// What this message would cost in the pre-packing format (full `n²`
    /// matrices, each with its own `rows:u32 cols:u32` header) — kept so T3
    /// and `bench_ingest` can report measured savings without re-encoding.
    pub fn encoded_len_unpacked(&self) -> usize {
        let mat = |m: &Matrix| 8 + 8 * m.rows() * m.cols();
        match self {
            SyncMessage::State { x, p } => 1 + vec_len(x) + mat(p),
            SyncMessage::Model { model, x, p } => {
                1 + 2
                    + model.name().len()
                    + mat(model.f())
                    + mat(model.q())
                    + mat(model.h())
                    + mat(model.r())
                    + vec_len(x)
                    + mat(p)
            }
            SyncMessage::Measurement { z } => 1 + vec_len(z),
        }
    }

    /// Decodes a wire buffer.
    ///
    /// # Errors
    /// [`CoreError::Decode`] on truncation, unknown tags, bad UTF-8,
    /// reserved flag bits, or an inconsistent embedded model.
    pub fn decode(mut buf: &[u8]) -> Result<Self> {
        let tag = get_u8(&mut buf)?;
        let msg = match tag {
            TAG_STATE => {
                let x = get_vec(&mut buf)?;
                let p = get_symmetric(&mut buf, x.dim())?;
                SyncMessage::State { x, p }
            }
            TAG_MODEL => {
                let name_len = get_u16(&mut buf)? as usize;
                if buf.remaining() < name_len {
                    return Err(decode_err("truncated model name"));
                }
                let name = std::str::from_utf8(&buf[..name_len])
                    .map_err(|e| decode_err(&format!("model name not utf-8: {e}")))?
                    .to_string();
                buf.advance(name_len);
                let flags = get_u8(&mut buf)?;
                if flags & !FLAG_F_UPPER_TRIANGULAR != 0 {
                    return Err(decode_err(&format!("reserved flag bits set: {flags:#x}")));
                }
                let n = get_u16(&mut buf)? as usize;
                let m = get_u16(&mut buf)? as usize;
                check_dims(n, n)?;
                check_dims(m, n.max(m))?;
                let f = if flags & FLAG_F_UPPER_TRIANGULAR != 0 {
                    // Kinematic F: mirror-free reconstruction with exact
                    // +0.0 below the diagonal (the encoder only sets the
                    // flag when that is bit-exact).
                    get_upper_triangular(&mut buf, n)?
                } else {
                    get_full(&mut buf, n, n)?
                };
                let q = get_symmetric(&mut buf, n)?;
                let h = get_full(&mut buf, m, n)?;
                let r = get_symmetric(&mut buf, m)?;
                let x = get_fixed_vec(&mut buf, n)?;
                let p = get_symmetric(&mut buf, n)?;
                let model = StateModel::new(name, f, q, h, r)
                    .map_err(|e| decode_err(&format!("inconsistent model: {e}")))?;
                SyncMessage::Model { model, x, p }
            }
            TAG_MEASUREMENT => SyncMessage::Measurement {
                z: get_vec(&mut buf)?,
            },
            other => return Err(decode_err(&format!("unknown tag {other}"))),
        };
        if buf.has_remaining() {
            return Err(decode_err(&format!("{} trailing bytes", buf.remaining())));
        }
        Ok(msg)
    }
}

/// Appends a `Model` sync body for `(model, x, p)` to `buf` — exactly the
/// bytes [`SyncMessage::Model`] encodes to, written from references, so a
/// caller holding the triplet (a snapshot of a live endpoint) need not
/// clone it into a message first.
pub(crate) fn encode_model_into<B: BufMut>(
    buf: &mut B,
    model: &StateModel,
    x: &Vector,
    p: &Matrix,
) {
    buf.put_u8(TAG_MODEL);
    let name = model.name().as_bytes();
    buf.put_u16_le(name.len() as u16);
    buf.put_slice(name);
    let f_tri = is_upper_triangular(model.f());
    buf.put_u8(if f_tri { FLAG_F_UPPER_TRIANGULAR } else { 0 });
    buf.put_u16_le(model.state_dim() as u16);
    buf.put_u16_le(model.measurement_dim() as u16);
    if f_tri {
        put_upper_triangle(buf, model.f());
    } else {
        put_full(buf, model.f());
    }
    put_upper_triangle(buf, model.q());
    put_full(buf, model.h());
    put_upper_triangle(buf, model.r());
    for &v in x.iter() {
        buf.put_f64_le(v);
    }
    put_upper_triangle(buf, p);
}

/// A v3 wire message: everything that can travel on a link.
///
/// The loss-tolerant delivery layer wraps sync messages in an optional
/// **sequence header** (tag 4) and adds two reverse-direction messages: the
/// **ack** (tag 5) and the **bound directive** (tag 6).
/// Decoding is backward compatible with v2: a buffer starting with tags 1–3
/// is an unsequenced legacy sync, bit-identical to what
/// [`SyncMessage::decode`] accepts, and `Sync { seq: None, .. }` encodes to
/// exactly the v2 bytes — sessions that never enable recovery produce and
/// consume v2 traffic unchanged.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // same rationale as SyncMessage: built
                                     // once per sync and immediately encoded
pub enum WireMessage {
    /// A sync message, optionally carrying a delivery sequence number
    /// (assigned by the source when ack-based recovery is enabled; `None`
    /// encodes the legacy v2 format).
    Sync {
        /// Monotonically increasing per-stream sequence number, starting
        /// at 1. `None` for legacy unsequenced traffic.
        seq: Option<u64>,
        /// The sync payload.
        msg: SyncMessage,
    },
    /// Cumulative acknowledgement: the server has applied every sync it
    /// will ever apply up to and including `seq` (later-delivered lower
    /// sequence numbers are dropped as stale, so the watermark is exact).
    Ack {
        /// Highest sequence number applied by the server.
        seq: u64,
    },
    /// Precision-bound directive, travelling server→source on the feedback
    /// link: the consumer side (query runtime / fleet allocator) instructs
    /// the producer to adopt a new suppression bound `δ`. Last writer wins;
    /// a lost directive leaves the previous (by construction still sound)
    /// bound in force, so no retransmission machinery is needed.
    Bound {
        /// The new suppression bound. Must be finite and strictly positive;
        /// the decoder rejects anything else so a corrupted directive can
        /// never loosen a producer to a nonsensical bound.
        delta: f64,
    },
}

impl WireMessage {
    /// Encodes to a freshly allocated wire buffer.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Appends the wire encoding to `buf`. Exactly
    /// [`WireMessage::encoded_len`] bytes are written.
    pub fn encode_into<B: BufMut>(&self, buf: &mut B) {
        match self {
            WireMessage::Sync { seq: None, msg } => msg.encode_into(buf),
            WireMessage::Sync {
                seq: Some(seq),
                msg,
            } => {
                buf.put_u8(TAG_SEQ);
                buf.put_u64_le(*seq);
                msg.encode_into(buf);
            }
            WireMessage::Ack { seq } => {
                buf.put_u8(TAG_ACK);
                buf.put_u64_le(*seq);
            }
            WireMessage::Bound { delta } => {
                buf.put_u8(TAG_BOUND);
                buf.put_f64_le(*delta);
            }
        }
    }

    /// Exact encoded size in bytes. An unsequenced sync costs exactly its
    /// [`SyncMessage::encoded_len`]; a sequence header adds 9 bytes; acks
    /// and bound directives are 9 bytes total.
    pub fn encoded_len(&self) -> usize {
        match self {
            WireMessage::Sync { seq: None, msg } => msg.encoded_len(),
            WireMessage::Sync { seq: Some(_), msg } => 1 + 8 + msg.encoded_len(),
            WireMessage::Ack { .. } | WireMessage::Bound { .. } => 1 + 8,
        }
    }

    /// Decodes a wire buffer, accepting both v3 (tags 4–6) and legacy v2
    /// (tags 1–3, decoded as an unsequenced sync).
    ///
    /// # Errors
    /// [`CoreError::Decode`] on truncation, trailing bytes, or a malformed
    /// inner sync body.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        match buf.first() {
            Some(&TAG_SEQ) => {
                let mut rest = &buf[1..];
                let seq = get_u64(&mut rest)?;
                let msg = SyncMessage::decode(rest)?;
                Ok(WireMessage::Sync {
                    seq: Some(seq),
                    msg,
                })
            }
            Some(&TAG_ACK) => {
                let mut rest = &buf[1..];
                let seq = get_u64(&mut rest)?;
                if rest.has_remaining() {
                    return Err(decode_err(&format!("{} trailing bytes", rest.remaining())));
                }
                Ok(WireMessage::Ack { seq })
            }
            Some(&TAG_BOUND) => {
                let mut rest = &buf[1..];
                let delta = f64::from_bits(get_u64(&mut rest)?);
                if rest.has_remaining() {
                    return Err(decode_err(&format!("{} trailing bytes", rest.remaining())));
                }
                if !delta.is_finite() || delta <= 0.0 {
                    return Err(decode_err(&format!("bound delta {delta} not positive")));
                }
                Ok(WireMessage::Bound { delta })
            }
            _ => SyncMessage::decode(buf).map(|msg| WireMessage::Sync { seq: None, msg }),
        }
    }
}

/// Largest state dimension [`parse_state`] reads — the largest fleet-batch
/// lane shape.
pub(crate) const MAX_VIEW_DIM: usize = 8;

/// Parses `body` as a `[seq] State` sync whose state has exactly `n`
/// components (`1 ≤ n ≤ MAX_VIEW_DIM`): writes the state into `x[..n]` and
/// `P`'s row-major upper triangle into `p_upper[..n (n + 1) / 2]`, and
/// returns the sequence number (`Some(None)` when unsequenced). Anything
/// else — another tag, another dimension, truncation, trailing bytes — is
/// `None`, with nothing written. Every body this accepts,
/// [`WireMessage::decode`] decodes to `Sync { seq, msg: State { x, p } }`
/// with exactly these values (the decoder mirrors the same upper triangle),
/// so a caller can apply the parse in place of the decoded message and hand
/// every `None` to the decoder.
pub(crate) fn parse_state(
    body: &[u8],
    n: usize,
    x: &mut [f64],
    p_upper: &mut [f64],
) -> Option<Option<u64>> {
    if n == 0 || n > MAX_VIEW_DIM {
        return None;
    }
    let (seq, rest) = match body.split_first()? {
        (&TAG_SEQ, mut rest) if rest.len() >= 8 => (Some(rest.get_u64_le()), rest),
        _ => (None, body),
    };
    let (&TAG_STATE, mut rest) = rest.split_first()? else {
        return None;
    };
    if rest.len() != 4 + 8 * (n + tri_elems(n)) || rest.get_u32_le() as usize != n {
        return None;
    }
    for v in x[..n].iter_mut().chain(&mut p_upper[..tri_elems(n)]) {
        *v = rest.get_f64_le();
    }
    Some(seq)
}

fn decode_err(reason: &str) -> CoreError {
    CoreError::Decode {
        reason: reason.to_string(),
    }
}

fn vec_len(v: &Vector) -> usize {
    4 + 8 * v.dim()
}

fn put_vec<B: BufMut>(buf: &mut B, v: &Vector) {
    buf.put_u32_le(v.dim() as u32);
    for &x in v.iter() {
        buf.put_f64_le(x);
    }
}

/// Writes the upper triangle of a square matrix, row-major
/// (row `i` contributes columns `i..n`).
fn put_upper_triangle<B: BufMut>(buf: &mut B, m: &Matrix) {
    debug_assert!(m.is_square());
    let n = m.rows();
    for r in 0..n {
        for c in r..n {
            buf.put_f64_le(m.get(r, c));
        }
    }
}

/// Writes a full matrix row-major, without a dimension header.
fn put_full<B: BufMut>(buf: &mut B, m: &Matrix) {
    for &x in m.as_slice() {
        buf.put_f64_le(x);
    }
}

fn get_u8(buf: &mut &[u8]) -> Result<u8> {
    if buf.remaining() < 1 {
        return Err(decode_err("truncated tag"));
    }
    Ok(buf.get_u8())
}

fn get_u16(buf: &mut &[u8]) -> Result<u16> {
    if buf.remaining() < 2 {
        return Err(decode_err("truncated u16"));
    }
    Ok(buf.get_u16_le())
}

fn get_u32(buf: &mut &[u8]) -> Result<u32> {
    if buf.remaining() < 4 {
        return Err(decode_err("truncated u32"));
    }
    Ok(buf.get_u32_le())
}

fn get_u64(buf: &mut &[u8]) -> Result<u64> {
    if buf.remaining() < 8 {
        return Err(decode_err("truncated u64"));
    }
    Ok(buf.get_u64_le())
}

/// Guard against adversarial length prefixes: no legitimate message in this
/// system has vectors/matrices beyond a few dozen elements.
const MAX_ELEMS: u64 = 1 << 16;

/// Rejects matrix dimensions whose full form would exceed [`MAX_ELEMS`]
/// (matches the old per-matrix-header guard: at most 256 × 256).
fn check_dims(rows: usize, cols: usize) -> Result<()> {
    if (rows as u64) * (cols as u64) > MAX_ELEMS {
        return Err(decode_err(&format!("matrix {rows}x{cols} exceeds limit")));
    }
    Ok(())
}

fn get_vec(buf: &mut &[u8]) -> Result<Vector> {
    let n = get_u32(buf)? as u64;
    if n > MAX_ELEMS {
        return Err(decode_err(&format!("vector length {n} exceeds limit")));
    }
    get_fixed_vec(buf, n as usize)
}

/// Reads `n` f64s into a `Vector` without an intermediate `Vec` — at Kalman
/// sizes the inline `SmallBuf` storage makes this allocation-free, which is
/// what keeps a drained ingest batch at zero heap traffic.
fn get_fixed_vec(buf: &mut &[u8], n: usize) -> Result<Vector> {
    if (buf.remaining() as u64) < 8 * n as u64 {
        return Err(decode_err("truncated vector body"));
    }
    let mut v = Vector::zeros(n);
    for x in v.as_mut_slice() {
        *x = buf.get_f64_le();
    }
    Ok(v)
}

/// Reads an upper triangle and mirrors it into a full symmetric matrix.
fn get_symmetric(buf: &mut &[u8], n: usize) -> Result<Matrix> {
    check_dims(n, n)?;
    if (buf.remaining() as u64) < 8 * tri_elems(n) as u64 {
        return Err(decode_err("truncated symmetric matrix body"));
    }
    let mut m = Matrix::zeros(n, n);
    for r in 0..n {
        for c in r..n {
            let v = buf.get_f64_le();
            m.set(r, c, v);
            m.set(c, r, v);
        }
    }
    Ok(m)
}

/// Reads an upper triangle into an upper-triangular matrix (zeros below).
fn get_upper_triangular(buf: &mut &[u8], n: usize) -> Result<Matrix> {
    check_dims(n, n)?;
    if (buf.remaining() as u64) < 8 * tri_elems(n) as u64 {
        return Err(decode_err("truncated triangular matrix body"));
    }
    let mut m = Matrix::zeros(n, n);
    for r in 0..n {
        for c in r..n {
            m.set(r, c, buf.get_f64_le());
        }
    }
    Ok(m)
}

/// Reads a headerless `rows × cols` matrix.
fn get_full(buf: &mut &[u8], rows: usize, cols: usize) -> Result<Matrix> {
    check_dims(rows, cols)?;
    if (buf.remaining() as u64) < 8 * (rows * cols) as u64 {
        return Err(decode_err("truncated matrix body"));
    }
    let mut m = Matrix::zeros(rows, cols);
    for x in m.as_mut_slice() {
        *x = buf.get_f64_le();
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kalstream_filter::models;

    fn state_msg() -> SyncMessage {
        SyncMessage::State {
            x: Vector::from_slice(&[1.5, -2.5]),
            p: Matrix::from_rows(&[&[1.0, 0.1], &[0.1, 2.0]]),
        }
    }

    #[test]
    fn state_roundtrip() {
        let msg = state_msg();
        let bytes = msg.encode();
        assert_eq!(bytes.len(), msg.encoded_len());
        assert_eq!(SyncMessage::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn parse_state_reads_exactly_what_decode_accepts() {
        let (mut x, mut p) = ([0.0; MAX_VIEW_DIM], [0.0; 36]);
        for seq in [None, Some(7)] {
            let body = WireMessage::Sync {
                seq,
                msg: state_msg(),
            }
            .encode();
            assert_eq!(parse_state(&body, 2, &mut x, &mut p), Some(seq));
            assert_eq!((&x[..2], &p[..3]), (&[1.5, -2.5][..], &[1.0, 0.1, 2.0][..]));
            // Wrong dimension, truncation and trailing bytes are left to the
            // decoder, which reports the latter two as failures.
            assert_eq!(parse_state(&body, 1, &mut x, &mut p), None);
            assert_eq!(
                parse_state(&body[..body.len() - 1], 2, &mut x, &mut p),
                None
            );
            assert!(WireMessage::decode(&body[..body.len() - 1]).is_err());
            let mut long = body.to_vec();
            long.push(0);
            assert_eq!(parse_state(&long, 2, &mut x, &mut p), None);
            assert!(WireMessage::decode(&long).is_err());
        }
        let measurement = SyncMessage::Measurement {
            z: Vector::from_slice(&[1.0]),
        }
        .encode();
        assert_eq!(parse_state(&measurement, 1, &mut x, &mut p), None);
        assert_eq!(parse_state(&[], 1, &mut x, &mut p), None);
        assert_eq!(parse_state(&[TAG_SEQ, 1, 2], 1, &mut x, &mut p), None);
    }

    #[test]
    fn model_roundtrip() {
        let msg = SyncMessage::Model {
            model: models::constant_velocity(1.0, 0.01, 0.5),
            x: Vector::from_slice(&[1.0, 0.2]),
            p: Matrix::scalar(2, 0.3),
        };
        let bytes = msg.encode();
        assert_eq!(bytes.len(), msg.encoded_len());
        assert_eq!(SyncMessage::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn model_roundtrip_non_triangular_f() {
        // A harmonic-oscillator style F has a non-zero sub-diagonal: the
        // triangle flag must stay clear and the full matrix must survive.
        let f = Matrix::from_rows(&[&[0.9, 0.4], &[-0.4, 0.9]]);
        let model = StateModel::new(
            "rotation",
            f,
            Matrix::scalar(2, 0.01),
            Matrix::from_rows(&[&[1.0, 0.0]]),
            Matrix::scalar(1, 0.1),
        )
        .unwrap();
        let msg = SyncMessage::Model {
            model,
            x: Vector::from_slice(&[1.0, 0.0]),
            p: Matrix::scalar(2, 1.0),
        };
        let bytes = msg.encode();
        assert_eq!(bytes.len(), msg.encoded_len());
        assert_eq!(SyncMessage::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn measurement_roundtrip() {
        let msg = SyncMessage::Measurement {
            z: Vector::from_slice(&[3.25]),
        };
        let bytes = msg.encode();
        assert_eq!(bytes.len(), msg.encoded_len());
        assert_eq!(SyncMessage::decode(&bytes).unwrap(), msg);
        // Measurement messages are the smallest: tag + len + one f64.
        assert_eq!(bytes.len(), 1 + 4 + 8);
    }

    #[test]
    fn encode_into_appends_to_caller_buffer() {
        // The pooled-buffer kernel: successive messages append, lengths are
        // exact, and the concatenation splits back into the originals.
        let a = state_msg();
        let b = SyncMessage::Measurement {
            z: Vector::from_slice(&[7.0]),
        };
        let mut buf = BytesMut::with_capacity(a.encoded_len() + b.encoded_len());
        a.encode_into(&mut buf);
        assert_eq!(buf.len(), a.encoded_len());
        b.encode_into(&mut buf);
        assert_eq!(buf.len(), a.encoded_len() + b.encoded_len());
        assert_eq!(SyncMessage::decode(&buf[..a.encoded_len()]).unwrap(), a);
        assert_eq!(SyncMessage::decode(&buf[a.encoded_len()..]).unwrap(), b);
        // And the allocating spelling is the same bytes.
        assert_eq!(&a.encode()[..], &buf[..a.encoded_len()]);
    }

    #[test]
    fn encoded_len_exact_for_all_tags() {
        let msgs = [
            state_msg(),
            SyncMessage::Model {
                model: models::constant_velocity_2d(1.0, 0.05, 3.0),
                x: Vector::from_slice(&[1.0, 0.1, 2.0, -0.1]),
                p: Matrix::scalar(4, 0.5),
            },
            SyncMessage::Measurement {
                z: Vector::from_slice(&[1.0, 2.0]),
            },
        ];
        for msg in &msgs {
            let mut buf = BytesMut::new();
            msg.encode_into(&mut buf);
            assert_eq!(
                buf.len(),
                msg.encoded_len(),
                "encoded_len drift for {msg:?}"
            );
        }
    }

    #[test]
    fn triangle_packing_shrinks_covariances() {
        // 4-state state sync: P travels as 10 f64s instead of a 16-f64
        // matrix with an 8-byte header.
        let msg = SyncMessage::State {
            x: Vector::zeros(4),
            p: Matrix::scalar(4, 1.0),
        };
        assert_eq!(msg.encoded_len(), 1 + (4 + 32) + 80);
        assert_eq!(msg.encoded_len_unpacked(), 1 + (4 + 32) + (8 + 128));
        // Model sync on the scalar walk: ≥ 30% below the unpacked format.
        let model_msg = SyncMessage::Model {
            model: models::random_walk(0.1, 0.1),
            x: Vector::zeros(1),
            p: Matrix::scalar(1, 1.0),
        };
        let packed = model_msg.encoded_len() as f64;
        let unpacked = model_msg.encoded_len_unpacked() as f64;
        assert!(
            packed / unpacked < 0.7,
            "model sync only shrank to {:.0}% ({packed} / {unpacked})",
            100.0 * packed / unpacked
        );
    }

    #[test]
    fn asymmetric_lower_triangle_is_discarded_in_transit() {
        // The wire contract: symmetric slots carry the upper triangle; a
        // hand-built asymmetric P comes back mirrored.
        let msg = SyncMessage::State {
            x: Vector::from_slice(&[0.0, 0.0]),
            p: Matrix::from_rows(&[&[1.0, 0.5], &[999.0, 2.0]]),
        };
        match SyncMessage::decode(&msg.encode()).unwrap() {
            SyncMessage::State { p, .. } => {
                assert_eq!(p.get(1, 0), 0.5);
                assert_eq!(p.get(0, 1), 0.5);
            }
            other => panic!("expected State, got {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_tag() {
        assert!(matches!(
            SyncMessage::decode(&[99]),
            Err(CoreError::Decode { .. })
        ));
    }

    #[test]
    fn rejects_truncation_at_every_prefix() {
        for msg in [
            state_msg(),
            SyncMessage::Model {
                model: models::constant_velocity(1.0, 0.01, 0.5),
                x: Vector::from_slice(&[1.0, 0.2]),
                p: Matrix::scalar(2, 0.3),
            },
        ] {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                assert!(
                    SyncMessage::decode(&bytes[..cut]).is_err(),
                    "prefix of {cut} bytes decoded successfully"
                );
            }
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = state_msg().encode().to_vec();
        bytes.push(0);
        assert!(matches!(
            SyncMessage::decode(&bytes),
            Err(CoreError::Decode { reason }) if reason.contains("trailing")
        ));
    }

    #[test]
    fn rejects_huge_length_prefix() {
        // Tag State + vector claiming u32::MAX elements.
        let mut buf = vec![TAG_STATE];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            SyncMessage::decode(&buf),
            Err(CoreError::Decode { reason }) if reason.contains("limit")
        ));
    }

    #[test]
    fn rejects_huge_symmetric_dim() {
        // A 1024-dim state would imply a 1024² covariance: over the element
        // limit, rejected before any allocation.
        let mut buf = vec![TAG_STATE];
        buf.extend_from_slice(&1024u32.to_le_bytes());
        buf.extend(std::iter::repeat_n(0u8, 8 * 1024));
        assert!(matches!(
            SyncMessage::decode(&buf),
            Err(CoreError::Decode { reason }) if reason.contains("limit")
        ));
    }

    #[test]
    fn rejects_reserved_flag_bits() {
        let msg = SyncMessage::Model {
            model: models::random_walk(0.1, 0.2),
            x: Vector::from_slice(&[0.0]),
            p: Matrix::scalar(1, 1.0),
        };
        let mut bytes = msg.encode().to_vec();
        // name "random_walk" is 11 bytes; flags live at 1 (tag) + 2 (len)
        // + 11 = offset 14.
        bytes[14] |= 0x80;
        assert!(matches!(
            SyncMessage::decode(&bytes),
            Err(CoreError::Decode { reason }) if reason.contains("flag")
        ));
    }

    #[test]
    fn rejects_inconsistent_model() {
        // Encode a model message, then corrupt the state dimension: every
        // body length downstream of the header stops matching.
        let msg = SyncMessage::Model {
            model: models::random_walk(0.1, 0.2),
            x: Vector::from_slice(&[0.0]),
            p: Matrix::scalar(1, 1.0),
        };
        let bytes = msg.encode().to_vec();
        // Layout: tag 1 + name_len 2 + name 11 + flags 1 → n:u16 at 15.
        let mut corrupt = bytes.clone();
        corrupt[15] = 2; // n := 2 — but the body is sized for n = 1.
        assert!(SyncMessage::decode(&corrupt).is_err());
    }

    #[test]
    fn state_message_size_scales_with_dim() {
        let small = SyncMessage::State {
            x: Vector::zeros(1),
            p: Matrix::scalar(1, 1.0),
        };
        let large = SyncMessage::State {
            x: Vector::zeros(4),
            p: Matrix::scalar(4, 1.0),
        };
        assert!(large.encoded_len() > small.encoded_len());
        // Scalar: tag + vec(x) + one-element triangle.
        assert_eq!(small.encoded_len(), 1 + (4 + 8) + 8);
    }

    #[test]
    fn sequenced_sync_roundtrip() {
        let wire = WireMessage::Sync {
            seq: Some(42),
            msg: state_msg(),
        };
        let bytes = wire.encode();
        assert_eq!(bytes.len(), wire.encoded_len());
        assert_eq!(bytes.len(), 9 + state_msg().encoded_len());
        assert_eq!(WireMessage::decode(&bytes).unwrap(), wire);
    }

    #[test]
    fn ack_roundtrip() {
        let wire = WireMessage::Ack { seq: u64::MAX };
        let bytes = wire.encode();
        assert_eq!(bytes.len(), 9);
        assert_eq!(bytes.len(), wire.encoded_len());
        assert_eq!(WireMessage::decode(&bytes).unwrap(), wire);
    }

    #[test]
    fn bound_roundtrip() {
        let wire = WireMessage::Bound { delta: 0.25 };
        let bytes = wire.encode();
        assert_eq!(bytes.len(), 9);
        assert_eq!(bytes.len(), wire.encoded_len());
        assert_eq!(WireMessage::decode(&bytes).unwrap(), wire);
    }

    #[test]
    fn bound_rejects_non_positive_and_non_finite_delta() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bytes = vec![TAG_BOUND];
            bytes.extend_from_slice(&bad.to_le_bytes());
            assert!(
                WireMessage::decode(&bytes).is_err(),
                "delta {bad} decoded successfully"
            );
        }
    }

    #[test]
    fn bound_rejects_truncation_and_trailing_bytes() {
        let bytes = WireMessage::Bound { delta: 1.5 }.encode();
        for cut in 0..bytes.len() {
            assert!(
                WireMessage::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        let mut long = bytes.to_vec();
        long.push(0);
        assert!(WireMessage::decode(&long).is_err());
    }

    #[test]
    fn legacy_decoder_rejects_bound_tag() {
        // A v2-only peer must not misinterpret a bound directive.
        let bytes = WireMessage::Bound { delta: 1.0 }.encode();
        assert!(SyncMessage::decode(&bytes).is_err());
    }

    #[test]
    fn unsequenced_sync_encodes_exact_v2_bytes() {
        // `seq: None` must be bit-identical to the legacy encoding so that
        // recovery-off sessions produce byte-for-byte v2 traffic.
        let msg = state_msg();
        let wire = WireMessage::Sync {
            seq: None,
            msg: msg.clone(),
        };
        assert_eq!(wire.encode(), msg.encode());
        assert_eq!(wire.encoded_len(), msg.encoded_len());
    }

    #[test]
    fn legacy_v2_bytes_decode_as_unsequenced_sync() {
        let msg = state_msg();
        let decoded = WireMessage::decode(&msg.encode()).unwrap();
        assert_eq!(decoded, WireMessage::Sync { seq: None, msg });
    }

    #[test]
    fn legacy_decoder_rejects_v3_tags() {
        // A v2-only peer must not misinterpret sequenced traffic.
        let seq = WireMessage::Sync {
            seq: Some(7),
            msg: state_msg(),
        }
        .encode();
        assert!(SyncMessage::decode(&seq).is_err());
        let ack = WireMessage::Ack { seq: 7 }.encode();
        assert!(SyncMessage::decode(&ack).is_err());
    }

    #[test]
    fn wire_decode_rejects_truncation_at_every_prefix() {
        for wire in [
            WireMessage::Sync {
                seq: Some(9),
                msg: state_msg(),
            },
            WireMessage::Ack { seq: 9 },
        ] {
            let bytes = wire.encode();
            for cut in 0..bytes.len() {
                assert!(
                    WireMessage::decode(&bytes[..cut]).is_err(),
                    "prefix of {cut} bytes decoded"
                );
            }
        }
    }

    #[test]
    fn wire_decode_rejects_trailing_bytes() {
        for wire in [
            WireMessage::Sync {
                seq: Some(3),
                msg: state_msg(),
            },
            WireMessage::Ack { seq: 3 },
        ] {
            let mut bytes = wire.encode().to_vec();
            bytes.push(0);
            assert!(WireMessage::decode(&bytes).is_err());
        }
    }

    #[test]
    fn wire_decode_rejects_unknown_tag() {
        assert!(WireMessage::decode(&[99, 0, 0, 0]).is_err());
        assert!(WireMessage::decode(&[]).is_err());
    }
}
