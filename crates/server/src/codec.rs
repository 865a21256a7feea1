//! Byte-level framing: encode/decode requests and responses.
//!
//! Every frame is `[payload_len: u32 LE][crc32(payload): u32 LE][payload]`
//! with `payload = [opcode: u8][fields, little-endian]`. The CRC is
//! [`csv_common::crc`]'s sliced CRC-32 — the kernel the durability crate
//! guards its WAL records with — so a flipped bit anywhere in the payload is
//! caught before the opcode is even looked at.
//!
//! Frames are built in place: an encoder reserves the 8-byte header at the
//! end of the caller's buffer, appends the payload behind it, and `seal`
//! backpatches length and checksum — the payload is written once and never
//! moved. Fixed-stride arrays (`MultiGet` keys, `Records`) are bounds-checked
//! once as a whole and then walked in exact chunks.
//!
//! Decoding is incremental: [`decode_request`]/[`decode_response`] take
//! whatever bytes have arrived so far and either report
//! [`Decoded::Incomplete`] (keep reading), a complete frame plus how many
//! bytes it consumed, or a typed [`ProtocolError`] — never a panic, no
//! matter what the bytes are. Oversized length prefixes are rejected
//! *before* any buffering decision, so a hostile header cannot make the
//! server allocate.

use crate::errors::ProtocolError;
use crate::protocol::{opcode, Request, Response, ServerStats, WriteOp, HEADER_LEN, MAX_FRAME_LEN};
use csv_common::crc::crc32;
use csv_common::key::{Key, KeyValue, Value};

/// Outcome of feeding buffered bytes to a decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decoded<T> {
    /// Not enough bytes for a whole frame yet; read more and retry.
    Incomplete,
    /// One complete frame.
    Frame {
        /// The decoded value.
        value: T,
        /// Bytes consumed from the front of the buffer (header + payload);
        /// the caller drains these before decoding the next frame.
        consumed: usize,
    },
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Starts a frame at the end of `buf`: reserves the header, to be filled
/// in by [`seal`] once the payload stands behind it. Returns the frame's
/// start.
fn begin(buf: &mut Vec<u8>) -> usize {
    let start = buf.len();
    buf.extend_from_slice(&[0; HEADER_LEN]);
    start
}

/// Backpatches the `[len][crc]` header of the frame [`begin`] started at
/// `start`; everything behind the header is its payload.
fn seal(buf: &mut [u8], start: usize) {
    let (header, payload) = buf[start..].split_at_mut(HEADER_LEN);
    debug_assert!(
        payload.len() <= MAX_FRAME_LEN,
        "encoder produced an oversized frame"
    );
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_opt_value(buf: &mut Vec<u8>, v: Option<Value>) {
    match v {
        Some(v) => {
            put_u8(buf, 1);
            put_u64(buf, v);
        }
        None => put_u8(buf, 0),
    }
}

/// The payload of a [`Request::MultiGet`].
fn put_multi_get(buf: &mut Vec<u8>, keys: &[Key]) {
    put_u8(buf, opcode::MULTI_GET);
    put_u32(buf, keys.len() as u32);
    for &key in keys {
        put_u64(buf, key);
    }
}

/// The payload of a [`Request::WriteBatch`].
fn put_write_batch(buf: &mut Vec<u8>, ops: &[WriteOp]) {
    put_u8(buf, opcode::WRITE_BATCH);
    put_u32(buf, ops.len() as u32);
    for op in ops {
        match *op {
            WriteOp::Insert { key, value } => {
                put_u8(buf, 0);
                put_u64(buf, key);
                put_u64(buf, value);
            }
            WriteOp::Remove { key } => {
                put_u8(buf, 1);
                put_u64(buf, key);
            }
        }
    }
}

/// [`encode_request`] of a [`Request::MultiGet`], from a borrowed slice.
pub(crate) fn encode_multi_get(keys: &[Key], buf: &mut Vec<u8>) {
    let start = begin(buf);
    put_multi_get(buf, keys);
    seal(buf, start);
}

/// [`encode_request`] of a [`Request::WriteBatch`], from a borrowed slice.
pub(crate) fn encode_write_batch(ops: &[WriteOp], buf: &mut Vec<u8>) {
    let start = begin(buf);
    put_write_batch(buf, ops);
    seal(buf, start);
}

/// Appends one encoded request frame to `buf`.
pub fn encode_request(req: &Request, buf: &mut Vec<u8>) {
    let start = begin(buf);
    match req {
        Request::Get { key } => {
            put_u8(buf, opcode::GET);
            put_u64(buf, *key);
        }
        Request::MultiGet { keys } => put_multi_get(buf, keys),
        Request::Range { lo, hi, limit } => {
            put_u8(buf, opcode::RANGE);
            put_u64(buf, *lo);
            put_u64(buf, *hi);
            put_u32(buf, *limit);
        }
        Request::Insert { key, value } => {
            put_u8(buf, opcode::INSERT);
            put_u64(buf, *key);
            put_u64(buf, *value);
        }
        Request::Remove { key } => {
            put_u8(buf, opcode::REMOVE);
            put_u64(buf, *key);
        }
        Request::WriteBatch { ops } => put_write_batch(buf, ops),
        Request::Stats => put_u8(buf, opcode::STATS),
        Request::Shutdown => put_u8(buf, opcode::SHUTDOWN),
    }
    seal(buf, start);
}

/// Appends one encoded response frame to `buf`.
pub fn encode_response(resp: &Response, buf: &mut Vec<u8>) {
    let start = begin(buf);
    match resp {
        Response::Value(v) => {
            put_u8(buf, opcode::R_VALUE);
            put_opt_value(buf, *v);
        }
        Response::Values(values) => {
            put_u8(buf, opcode::R_VALUES);
            put_u32(buf, values.len() as u32);
            for &v in values {
                put_opt_value(buf, v);
            }
        }
        Response::Records { records, truncated } => {
            let mut stream = RecordStream::behind_header(buf, start);
            for r in records {
                if !stream.push(r.key, r.value) {
                    break;
                }
            }
            if *truncated {
                stream.mark_truncated();
            }
            return stream.finish();
        }
        Response::Inserted(fresh) => {
            put_u8(buf, opcode::R_INSERTED);
            put_u8(buf, u8::from(*fresh));
        }
        Response::Removed(v) => {
            put_u8(buf, opcode::R_REMOVED);
            put_opt_value(buf, *v);
        }
        Response::BatchApplied {
            fresh_inserts,
            hits,
        } => {
            put_u8(buf, opcode::R_BATCH);
            put_u32(buf, *fresh_inserts);
            put_u32(buf, *hits);
        }
        Response::Stats(stats) => {
            put_u8(buf, opcode::R_STATS);
            put_u64(buf, stats.keys);
            put_u32(buf, stats.shards);
            put_u32(buf, stats.workers);
            put_u8(buf, u8::from(stats.rcu));
            put_u64(buf, stats.connections);
            put_u64(buf, stats.ops);
            put_u8(buf, u8::from(stats.engine_healthy));
            put_u8(buf, u8::from(stats.maintenance));
        }
        Response::ShuttingDown => put_u8(buf, opcode::R_SHUTDOWN),
        Response::Error(msg) => {
            put_u8(buf, opcode::R_ERROR);
            // An error message is advisory; truncate rather than overflow
            // the frame limit — at a char boundary, or the peer's decoder
            // would reject the whole frame as not UTF-8.
            let mut take = msg.len().min(MAX_ERROR_MESSAGE_LEN);
            while !msg.is_char_boundary(take) {
                take -= 1;
            }
            put_u32(buf, take as u32);
            buf.extend_from_slice(&msg.as_bytes()[..take]);
        }
    }
    seal(buf, start);
}

/// Longest error message (in bytes) a [`Response::Error`] frame carries;
/// [`encode_response`] cuts a longer one at the last char boundary below it.
const MAX_ERROR_MESSAGE_LEN: usize = MAX_FRAME_LEN - 16;

/// Largest number of records a [`Response::Records`] frame can carry:
/// `MAX_FRAME_LEN` minus the opcode, truncation flag and count, in 16-byte
/// records.
pub const MAX_RECORDS_PER_FRAME: usize = (MAX_FRAME_LEN - 6) / 16;

/// Streaming encoder for a [`Response::Records`] frame: records are
/// appended to the wire buffer as the index scan produces them — the
/// server never materialises the result set. `push` refuses the record
/// that would overflow [`MAX_FRAME_LEN`] and marks the frame truncated;
/// `finish` backpatches the truncation flag and record count and seals
/// the `[len][crc]` header. Dropping the stream without calling `finish`
/// leaves a partial frame in the buffer — always finish it.
pub struct RecordStream<'a> {
    buf: &'a mut Vec<u8>,
    /// Frame start in `buf` (where the reserved header sits).
    start: usize,
    count: u32,
    truncated: bool,
}

impl<'a> RecordStream<'a> {
    /// Starts a records frame at the current end of `buf`.
    pub fn begin(buf: &'a mut Vec<u8>) -> Self {
        let start = begin(buf);
        Self::behind_header(buf, start)
    }

    /// Starts the records payload of the frame [`begin`] started at `start`.
    fn behind_header(buf: &'a mut Vec<u8>, start: usize) -> Self {
        put_u8(buf, opcode::R_RECORDS);
        put_u8(buf, 0); // truncation flag, backpatched by `finish`
        put_u32(buf, 0); // record count, backpatched by `finish`
        Self {
            buf,
            start,
            count: 0,
            truncated: false,
        }
    }

    /// Appends one record. Returns `false` — and marks the frame truncated
    /// — when the record would push the payload past [`MAX_FRAME_LEN`];
    /// the caller must stop pushing.
    pub fn push(&mut self, key: Key, value: Value) -> bool {
        if self.buf.len() - (self.start + HEADER_LEN) + 16 > MAX_FRAME_LEN {
            self.truncated = true;
            return false;
        }
        put_u64(self.buf, key);
        put_u64(self.buf, value);
        self.count += 1;
        true
    }

    /// Records pushed so far.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// `true` while no record has been pushed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Flags the frame as truncated (also set automatically when `push`
    /// hits the frame cap).
    pub fn mark_truncated(&mut self) {
        self.truncated = true;
    }

    /// Backpatches the truncation flag and record count, then seals the
    /// frame header.
    pub fn finish(self) {
        let payload = self.start + HEADER_LEN;
        self.buf[payload + 1] = u8::from(self.truncated);
        self.buf[payload + 2..payload + 6].copy_from_slice(&self.count.to_le_bytes());
        seal(self.buf, self.start);
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A bounds-checked little-endian reader over one payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(ProtocolError::Truncated)?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn opt_value(&mut self) -> Result<Option<Value>, ProtocolError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(ProtocolError::Malformed("option tag must be 0 or 1")),
        }
    }

    /// Reads a `u32` element count and the `count × STRIDE` bytes of a
    /// fixed-stride array behind it: one bounds check for the whole array,
    /// made before anything is allocated for it.
    fn array<const STRIDE: usize>(&mut self) -> Result<&'a [[u8; STRIDE]], ProtocolError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n.checked_mul(STRIDE).ok_or(ProtocolError::Truncated)?)?;
        Ok(bytes.as_chunks().0)
    }

    /// Reads the `u32` element count of a variable-stride array and
    /// sanity-checks it against the bytes actually left, so a hostile count
    /// cannot drive a huge `Vec::with_capacity` before the per-element reads
    /// fail.
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, ProtocolError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes) > self.bytes.len() - self.pos {
            return Err(ProtocolError::Truncated);
        }
        Ok(n)
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(ProtocolError::Malformed(
                "trailing bytes after the last field",
            ))
        }
    }
}

/// Extracts the next complete, CRC-verified payload from the buffer front.
fn next_payload(buf: &[u8]) -> Result<Decoded<&[u8]>, ProtocolError> {
    if buf.len() < HEADER_LEN {
        return Ok(Decoded::Incomplete);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::Oversized {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    if len == 0 {
        // Even control frames carry at least the opcode byte.
        return Err(ProtocolError::Malformed("empty payload"));
    }
    let expected = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    let Some(payload) = buf[HEADER_LEN..].get(..len) else {
        return Ok(Decoded::Incomplete);
    };
    let found = crc32(payload);
    if found != expected {
        return Err(ProtocolError::BadCrc { expected, found });
    }
    Ok(Decoded::Frame {
        value: payload,
        consumed: HEADER_LEN + len,
    })
}

/// Decodes the next request frame from the front of `buf`.
pub fn decode_request(buf: &[u8]) -> Result<Decoded<Request>, ProtocolError> {
    let (payload, consumed) = match next_payload(buf)? {
        Decoded::Incomplete => return Ok(Decoded::Incomplete),
        Decoded::Frame { value, consumed } => (value, consumed),
    };
    let mut r = Reader::new(&payload[1..]);
    let value = match payload[0] {
        opcode::GET => Request::Get { key: r.u64()? },
        opcode::MULTI_GET => Request::MultiGet {
            keys: r
                .array::<8>()?
                .iter()
                .map(|key| Key::from_le_bytes(*key))
                .collect(),
        },
        opcode::RANGE => {
            let lo = r.u64()?;
            let hi = r.u64()?;
            let limit = r.u32()?;
            if lo > hi {
                return Err(ProtocolError::Malformed("range lower bound above upper"));
            }
            Request::Range { lo, hi, limit }
        }
        opcode::INSERT => Request::Insert {
            key: r.u64()?,
            value: r.u64()?,
        },
        opcode::REMOVE => Request::Remove { key: r.u64()? },
        opcode::WRITE_BATCH => {
            let n = r.count(9)?;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                ops.push(match r.u8()? {
                    0 => WriteOp::Insert {
                        key: r.u64()?,
                        value: r.u64()?,
                    },
                    1 => WriteOp::Remove { key: r.u64()? },
                    _ => return Err(ProtocolError::Malformed("write-op tag must be 0 or 1")),
                });
            }
            Request::WriteBatch { ops }
        }
        opcode::STATS => Request::Stats,
        opcode::SHUTDOWN => Request::Shutdown,
        other => return Err(ProtocolError::UnknownOpcode(other)),
    };
    r.finish()?;
    Ok(Decoded::Frame { value, consumed })
}

/// Decodes the next response frame from the front of `buf`.
pub fn decode_response(buf: &[u8]) -> Result<Decoded<Response>, ProtocolError> {
    let (payload, consumed) = match next_payload(buf)? {
        Decoded::Incomplete => return Ok(Decoded::Incomplete),
        Decoded::Frame { value, consumed } => (value, consumed),
    };
    let mut r = Reader::new(&payload[1..]);
    let value = match payload[0] {
        opcode::R_VALUE => Response::Value(r.opt_value()?),
        opcode::R_VALUES => {
            let n = r.count(1)?;
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(r.opt_value()?);
            }
            Response::Values(values)
        }
        opcode::R_RECORDS => {
            let truncated = match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(ProtocolError::Malformed("truncation flag must be 0 or 1")),
            };
            let records = r
                .array::<16>()?
                .iter()
                .map(|record| {
                    let (key, value) = record.split_at(8);
                    KeyValue {
                        key: Key::from_le_bytes(key.try_into().expect("8 of 16 bytes")),
                        value: Value::from_le_bytes(value.try_into().expect("8 of 16 bytes")),
                    }
                })
                .collect();
            Response::Records { records, truncated }
        }
        opcode::R_INSERTED => match r.u8()? {
            0 => Response::Inserted(false),
            1 => Response::Inserted(true),
            _ => return Err(ProtocolError::Malformed("bool must be 0 or 1")),
        },
        opcode::R_REMOVED => Response::Removed(r.opt_value()?),
        opcode::R_BATCH => Response::BatchApplied {
            fresh_inserts: r.u32()?,
            hits: r.u32()?,
        },
        opcode::R_STATS => {
            let keys = r.u64()?;
            let shards = r.u32()?;
            let workers = r.u32()?;
            let rcu = r.u8()? != 0;
            let connections = r.u64()?;
            let ops = r.u64()?;
            let engine_healthy = r.u8()? != 0;
            let maintenance = r.u8()? != 0;
            Response::Stats(ServerStats {
                keys,
                shards,
                workers,
                rcu,
                connections,
                ops,
                engine_healthy,
                maintenance,
            })
        }
        opcode::R_SHUTDOWN => Response::ShuttingDown,
        opcode::R_ERROR => {
            let n = r.count(1)?;
            let bytes = r.take(n)?;
            let msg = std::str::from_utf8(bytes)
                .map_err(|_| ProtocolError::Malformed("error message is not UTF-8"))?;
            Response::Error(msg.to_string())
        }
        other => return Err(ProtocolError::UnknownOpcode(other)),
    };
    r.finish()?;
    Ok(Decoded::Frame { value, consumed })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let mut buf = Vec::new();
        encode_request(&req, &mut buf);
        match decode_request(&buf).unwrap() {
            Decoded::Frame { value, consumed } => {
                assert_eq!(value, req);
                assert_eq!(consumed, buf.len());
            }
            Decoded::Incomplete => panic!("complete frame decoded as incomplete"),
        }
    }

    fn round_trip_response(resp: Response) {
        let mut buf = Vec::new();
        encode_response(&resp, &mut buf);
        match decode_response(&buf).unwrap() {
            Decoded::Frame { value, consumed } => {
                assert_eq!(value, resp);
                assert_eq!(consumed, buf.len());
            }
            Decoded::Incomplete => panic!("complete frame decoded as incomplete"),
        }
    }

    #[test]
    fn every_frame_kind_round_trips() {
        round_trip_request(Request::Get { key: 42 });
        round_trip_request(Request::MultiGet {
            keys: vec![1, u64::MAX, 0],
        });
        round_trip_request(Request::Range {
            lo: 5,
            hi: 500,
            limit: 0,
        });
        round_trip_request(Request::Insert { key: 7, value: 9 });
        round_trip_request(Request::Remove { key: 7 });
        round_trip_request(Request::WriteBatch {
            ops: vec![
                WriteOp::Insert { key: 1, value: 2 },
                WriteOp::Remove { key: 3 },
            ],
        });
        round_trip_request(Request::Stats);
        round_trip_request(Request::Shutdown);
        round_trip_response(Response::Value(Some(9)));
        round_trip_response(Response::Value(None));
        round_trip_response(Response::Values(vec![Some(1), None, Some(u64::MAX)]));
        round_trip_response(Response::Records {
            records: vec![KeyValue { key: 1, value: 2 }],
            truncated: false,
        });
        round_trip_response(Response::Records {
            records: vec![KeyValue { key: 3, value: 4 }],
            truncated: true,
        });
        round_trip_response(Response::Inserted(true));
        round_trip_response(Response::Removed(None));
        round_trip_response(Response::BatchApplied {
            fresh_inserts: 3,
            hits: 1,
        });
        round_trip_response(Response::Stats(ServerStats {
            keys: 10,
            shards: 4,
            workers: 2,
            rcu: true,
            connections: 5,
            ops: 999,
            engine_healthy: true,
            maintenance: false,
        }));
        round_trip_response(Response::ShuttingDown);
        round_trip_response(Response::Error("nope".to_string()));
    }

    #[test]
    fn two_frames_back_to_back_decode_in_order() {
        let mut buf = Vec::new();
        encode_request(&Request::Get { key: 1 }, &mut buf);
        encode_request(&Request::Stats, &mut buf);
        let Decoded::Frame { value, consumed } = decode_request(&buf).unwrap() else {
            panic!("first frame must decode");
        };
        assert_eq!(value, Request::Get { key: 1 });
        let Decoded::Frame {
            value,
            consumed: c2,
        } = decode_request(&buf[consumed..]).unwrap()
        else {
            panic!("second frame must decode");
        };
        assert_eq!(value, Request::Stats);
        assert_eq!(consumed + c2, buf.len());
    }

    #[test]
    fn every_strict_prefix_is_incomplete() {
        let mut buf = Vec::new();
        encode_request(
            &Request::MultiGet {
                keys: vec![3, 1, 4, 1, 5],
            },
            &mut buf,
        );
        for cut in 0..buf.len() {
            assert_eq!(
                decode_request(&buf[..cut]).unwrap(),
                Decoded::Incomplete,
                "prefix of {cut} bytes"
            );
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_buffering() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            decode_request(&buf),
            Err(ProtocolError::Oversized {
                len: MAX_FRAME_LEN + 1,
                max: MAX_FRAME_LEN,
            })
        );
    }

    #[test]
    fn flipped_bits_fail_the_crc() {
        let mut buf = Vec::new();
        encode_request(&Request::Insert { key: 1, value: 2 }, &mut buf);
        for bit in 0..8 {
            let mut evil = buf.clone();
            let last = evil.len() - 1;
            evil[last] ^= 1 << bit;
            assert!(
                matches!(decode_request(&evil), Err(ProtocolError::BadCrc { .. })),
                "bit {bit}"
            );
        }
    }

    #[test]
    fn unknown_opcodes_and_bad_tags_are_typed_errors() {
        // Hand-build a frame with a bogus opcode but a valid CRC.
        let payload = [0x7Fu8, 0, 0, 0, 0, 0, 0, 0, 0];
        let mut buf = Vec::new();
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        assert_eq!(
            decode_request(&buf),
            Err(ProtocolError::UnknownOpcode(0x7F))
        );

        // A Get whose payload is one byte short of its key: Truncated.
        let payload = [opcode::GET, 1, 2, 3];
        let mut buf = Vec::new();
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        assert_eq!(decode_request(&buf), Err(ProtocolError::Truncated));

        // A MultiGet whose count promises more keys than the payload holds.
        let mut payload = vec![opcode::MULTI_GET];
        payload.extend_from_slice(&1000u32.to_le_bytes());
        payload.extend_from_slice(&7u64.to_le_bytes());
        let mut buf = Vec::new();
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        assert_eq!(decode_request(&buf), Err(ProtocolError::Truncated));
    }

    #[test]
    fn record_stream_truncates_exactly_at_the_frame_cap() {
        let mut buf = Vec::new();
        let mut stream = RecordStream::begin(&mut buf);
        // Every record below the cap is accepted, the cap-crossing one is
        // refused and flags truncation — never a mid-frame error.
        for i in 0..MAX_RECORDS_PER_FRAME {
            assert!(stream.push(i as Key, i as Value), "record {i} fits");
        }
        assert!(!stream.push(u64::MAX, 0), "cap-crossing record refused");
        assert_eq!(stream.len(), MAX_RECORDS_PER_FRAME);
        stream.finish();
        // The sealed frame respects the cap and decodes with the
        // truncation reported typed.
        assert!(buf.len() <= HEADER_LEN + MAX_FRAME_LEN);
        match decode_response(&buf).unwrap() {
            Decoded::Frame {
                value: Response::Records { records, truncated },
                consumed,
            } => {
                assert_eq!(consumed, buf.len());
                assert!(truncated);
                assert_eq!(records.len(), MAX_RECORDS_PER_FRAME);
                assert_eq!(records[0], KeyValue { key: 0, value: 0 });
            }
            other => panic!("expected a Records frame, got {other:?}"),
        }
    }

    #[test]
    fn oversized_records_response_encodes_as_truncated_frame() {
        // The materialising encoder is bounded by the same cap: a Vec too
        // large for one frame encodes as a truncated (valid) frame rather
        // than an oversized one.
        let records: Vec<KeyValue> = (0..MAX_RECORDS_PER_FRAME as u64 + 500)
            .map(|i| KeyValue { key: i, value: i })
            .collect();
        let mut buf = Vec::new();
        encode_response(
            &Response::Records {
                records,
                truncated: false,
            },
            &mut buf,
        );
        assert!(buf.len() <= HEADER_LEN + MAX_FRAME_LEN);
        match decode_response(&buf).unwrap() {
            Decoded::Frame {
                value: Response::Records { records, truncated },
                ..
            } => {
                assert!(truncated);
                assert_eq!(records.len(), MAX_RECORDS_PER_FRAME);
            }
            other => panic!("expected a Records frame, got {other:?}"),
        }
    }

    #[test]
    fn bad_truncation_flag_is_a_typed_error() {
        let mut payload = vec![opcode::R_RECORDS, 2];
        payload.extend_from_slice(&0u32.to_le_bytes());
        let mut buf = Vec::new();
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        assert!(matches!(
            decode_response(&buf),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn trailing_garbage_inside_a_frame_is_malformed() {
        let mut payload = vec![opcode::GET];
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.push(0xEE);
        let mut buf = Vec::new();
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        assert!(matches!(
            decode_request(&buf),
            Err(ProtocolError::Malformed(_))
        ));
    }
}
