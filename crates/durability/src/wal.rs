//! The per-shard write-ahead log.
//!
//! File layout:
//!
//! ```text
//! header:  "CSVWAL01" | start_seq u64 LE | crc32(start_seq bytes) u32 LE
//! record:  len u32 LE | crc32(body) u32 LE | body
//! body:    seq u64 LE | op u8 (0 tombstone, 1 upsert) | key u64 LE | [value u64 LE]
//! batch:   seq u64 LE | op u8 (2) | count u32 LE | count × (op u8, key u64 LE, [value u64 LE])
//! ```
//!
//! Records are length-prefixed and individually checksummed, and their
//! sequence numbers continue monotonically from the header's `start_seq`
//! (the owning checkpoint's last durable sequence). A batch frame (op 2,
//! written by [`WalWriter::append_batch`]) carries a whole group commit
//! under a *single* checksum: its `seq` names the first sub-record and the
//! group occupies `count` consecutive sequence numbers, so a torn or
//! corrupt batch frame drops the entire group — recovery sees all of a
//! group commit or none of it, never a proper subset. The reader
//! ([`read_wal`]) is the graceful-degradation half of the design: it
//! replays the longest valid prefix and *stops* — never panics — at the
//! first torn, truncated, corrupt or out-of-sequence record, reporting why
//! in [`WalEnd`]. Since every record is an absolute upsert/tombstone,
//! replay is idempotent, which is what makes "checkpoint then truncate the
//! log" crash-safe without a distributed transaction between the two files.

use crate::fault::{Fault, FaultFile};
use csv_common::crc::crc32;
use csv_common::{Key, Value};
use csv_concurrent::WriteRecord;
use std::io::{self, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"CSVWAL01";
const HEADER_LEN: usize = 8 + 8 + 4;
/// Bytes of a record's `len u32 | crc32 u32` prefix.
const RECORD_PREFIX: usize = 4 + 4;
/// Body length of a tombstone record (`seq + op + key`).
const TOMBSTONE_BODY: usize = 8 + 1 + 8;
/// Body length of an upsert record (`seq + op + key + value`).
const UPSERT_BODY: usize = TOMBSTONE_BODY + 8;
/// Op byte of a group-commit batch frame.
const BATCH_OP: u8 = 2;
/// Leading bytes of a batch frame body (`seq + op + count`).
const BATCH_PREFIX: usize = 8 + 1 + 4;
/// Bytes of a tombstone sub-record inside a batch body (`op + key`).
const TOMBSTONE_SUB: usize = 1 + 8;
/// Bytes of an upsert sub-record inside a batch body (`op + key + value`).
const UPSERT_SUB: usize = TOMBSTONE_SUB + 8;

/// One decoded log record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalRecord {
    /// The record's sequence number (`start_seq`-relative position is
    /// `seq - start_seq`).
    pub seq: u64,
    /// The written key.
    pub key: Key,
    /// `Some` for an upsert, `None` for a tombstone.
    pub value: Option<Value>,
}

/// Why replay stopped where it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalEnd {
    /// The file ended exactly at a record boundary: nothing was lost.
    Clean,
    /// The file ended inside a record — a torn append. The record was
    /// never acknowledged, so stopping loses nothing durable.
    TornTail,
    /// A record failed its checksum or framing — bit rot or a torn
    /// overwrite. Replay stops at the last intact record.
    CorruptRecord,
    /// A record's sequence number broke monotonic continuity.
    SequenceGap,
    /// The header was missing or corrupt; nothing was replayed.
    CorruptHeader,
    /// The file does not exist; nothing was replayed.
    Missing,
}

impl WalEnd {
    /// `true` when replay stopped early for any reason other than a clean
    /// end-of-file.
    pub fn is_torn(&self) -> bool {
        !matches!(self, WalEnd::Clean)
    }
}

/// The result of reading a log: the longest valid record prefix and why it
/// ended.
#[derive(Debug, Clone)]
pub struct WalReplay {
    /// The header's starting sequence (0 when the header was unreadable).
    pub start_seq: u64,
    /// The valid prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Why replay stopped.
    pub end: WalEnd,
}

impl WalReplay {
    /// The last durable sequence number: the final replayed record's, or
    /// the checkpoint's own (`start_seq`) when nothing replayed.
    pub fn last_seq(&self) -> u64 {
        self.records.last().map_or(self.start_seq, |r| r.seq)
    }
}

/// Appends records to one shard's log. Writes go straight to the file (a
/// record is a single `write`), so a crash tears at most the final record —
/// exactly what [`read_wal`] tolerates.
#[derive(Debug)]
pub struct WalWriter {
    file: FaultFile,
    seq: u64,
    /// The record being built, reused across appends: an 8-byte
    /// `len | crc` hole, then the body, checksummed and backpatched in
    /// place by [`WalWriter::write_record`].
    record: Vec<u8>,
}

impl WalWriter {
    /// Creates (truncating) the log at `path`, sequenced from `start_seq`,
    /// with an optional injected fault.
    pub fn create(path: &Path, start_seq: u64, fault: Option<Fault>) -> io::Result<Self> {
        let mut file = FaultFile::create(path, fault)?;
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&start_seq.to_le_bytes());
        let crc = crc32(&start_seq.to_le_bytes());
        header.extend_from_slice(&crc.to_le_bytes());
        file.write_all(&header)?;
        Ok(Self {
            file,
            seq: start_seq,
            record: Vec::new(),
        })
    }

    /// Clears the record buffer down to its empty `len | crc` hole.
    fn begin_record(&mut self) {
        self.record.clear();
        self.record.extend_from_slice(&[0; RECORD_PREFIX]);
    }

    /// Backpatches the body's length and checksum into the hole and hands
    /// the finished record to the file as one `write`.
    fn write_record(&mut self) -> io::Result<()> {
        let (prefix, body) = self.record.split_at_mut(RECORD_PREFIX);
        prefix[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
        prefix[4..].copy_from_slice(&crc32(body).to_le_bytes());
        self.file.write_all(&self.record)
    }

    /// The sequence number of the last appended record (or the starting
    /// sequence when none was).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Appends one record and returns its sequence number. The bytes are
    /// handed to the OS before this returns; pair with [`WalWriter::sync`]
    /// for power-loss durability.
    pub fn append(&mut self, key: Key, value: Option<Value>) -> io::Result<u64> {
        self.seq += 1;
        self.begin_record();
        self.record.extend_from_slice(&self.seq.to_le_bytes());
        push_sub_record(&mut self.record, key, value);
        self.write_record()?;
        Ok(self.seq)
    }

    /// Appends a whole group commit as one checksummed batch frame — a
    /// single `write` — and returns the final sequence number. The group
    /// occupies `records.len()` consecutive sequence numbers but shares one
    /// checksum, so replay recovers it all-or-nothing. Appending an empty
    /// batch writes nothing.
    pub fn append_batch(&mut self, records: &[WriteRecord]) -> io::Result<u64> {
        if records.is_empty() {
            return Ok(self.seq);
        }
        self.begin_record();
        self.record.extend_from_slice(&(self.seq + 1).to_le_bytes());
        self.record.push(BATCH_OP);
        self.record
            .extend_from_slice(&(records.len() as u32).to_le_bytes());
        for record in records {
            push_sub_record(&mut self.record, record.key, record.value);
        }
        self.write_record()?;
        self.seq += records.len() as u64;
        Ok(self.seq)
    }

    /// Flushes the log to stable storage (`fsync`).
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync()
    }
}

/// Appends `op u8 (0 tombstone, 1 upsert) | key | [value]` — a point
/// record's body after its `seq`, and a batch frame's sub-record.
fn push_sub_record(out: &mut Vec<u8>, key: Key, value: Option<Value>) {
    out.push(u8::from(value.is_some()));
    out.extend_from_slice(&key.to_le_bytes());
    if let Some(value) = value {
        out.extend_from_slice(&value.to_le_bytes());
    }
}

/// Reads the longest valid record prefix of the log at `path` (see the
/// module docs for the tolerance contract). I/O errors other than "file
/// not found" are returned; corruption never is — it ends the replay.
pub fn read_wal(path: &Path) -> io::Result<WalReplay> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok(WalReplay {
                start_seq: 0,
                records: Vec::new(),
                end: WalEnd::Missing,
            })
        }
        Err(e) => return Err(e),
    };
    if bytes.len() < HEADER_LEN || &bytes[..8] != MAGIC {
        return Ok(WalReplay {
            start_seq: 0,
            records: Vec::new(),
            end: WalEnd::CorruptHeader,
        });
    }
    let start_seq = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let header_crc = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
    if crc32(&bytes[8..16]) != header_crc {
        return Ok(WalReplay {
            start_seq: 0,
            records: Vec::new(),
            end: WalEnd::CorruptHeader,
        });
    }
    let mut records = Vec::new();
    let mut expected_seq = start_seq;
    let mut at = HEADER_LEN;
    let end = loop {
        if at == bytes.len() {
            break WalEnd::Clean;
        }
        if bytes.len() - at < 8 {
            break WalEnd::TornTail;
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
        if len < TOMBSTONE_BODY {
            break WalEnd::CorruptRecord;
        }
        if bytes.len() - at - 8 < len {
            break WalEnd::TornTail;
        }
        let body = &bytes[at + 8..at + 8 + len];
        if crc32(body) != crc {
            break WalEnd::CorruptRecord;
        }
        let seq = u64::from_le_bytes(body[..8].try_into().expect("8 bytes"));
        let op = body[8];
        match (op, len) {
            (0, TOMBSTONE_BODY) | (1, UPSERT_BODY) => {
                if seq != expected_seq + 1 {
                    break WalEnd::SequenceGap;
                }
                let key = Key::from_le_bytes(body[9..17].try_into().expect("8 bytes"));
                let value = (op == 1)
                    .then(|| Value::from_le_bytes(body[17..25].try_into().expect("8 bytes")));
                expected_seq = seq;
                records.push(WalRecord { seq, key, value });
            }
            (BATCH_OP, _) => {
                let Some(group) = decode_batch(seq, body) else {
                    break WalEnd::CorruptRecord;
                };
                if seq != expected_seq + 1 {
                    break WalEnd::SequenceGap;
                }
                expected_seq = seq + group.len() as u64 - 1;
                records.extend(group);
            }
            _ => break WalEnd::CorruptRecord,
        }
        at += 8 + len;
    };
    Ok(WalReplay {
        start_seq,
        records,
        end,
    })
}

/// Decodes a batch frame body (op 2) into its sub-records, sequenced
/// consecutively from `first_seq`, or `None` when the framing is
/// inconsistent (bad count, bad sub-op, or trailing/missing bytes). The
/// caller has already verified the checksum; a `None` here means the frame
/// never round-trips through [`WalWriter::append_batch`] and is treated as
/// corrupt — dropping the whole group.
fn decode_batch(first_seq: u64, body: &[u8]) -> Option<Vec<WalRecord>> {
    if body.len() < BATCH_PREFIX {
        return None;
    }
    let count = u32::from_le_bytes(body[9..13].try_into().expect("4 bytes")) as usize;
    if count == 0 {
        return None;
    }
    let mut group = Vec::with_capacity(count);
    let mut at = BATCH_PREFIX;
    for i in 0..count {
        let op = *body.get(at)?;
        let sub = match op {
            0 => TOMBSTONE_SUB,
            1 => UPSERT_SUB,
            _ => return None,
        };
        if body.len() - at < sub {
            return None;
        }
        let key = Key::from_le_bytes(body[at + 1..at + 9].try_into().expect("8 bytes"));
        let value = (op == 1)
            .then(|| Value::from_le_bytes(body[at + 9..at + 17].try_into().expect("8 bytes")));
        group.push(WalRecord {
            seq: first_seq + i as u64,
            key,
            value,
        });
        at += sub;
    }
    (at == body.len()).then_some(group)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;

    fn sample_records() -> Vec<(Key, Option<Value>)> {
        vec![
            (10, Some(100)),
            (20, Some(200)),
            (10, None),
            (30, Some(300)),
            (20, Some(201)),
        ]
    }

    fn write_sample(path: &Path, start_seq: u64) -> u64 {
        let mut writer = WalWriter::create(path, start_seq, None).unwrap();
        for (key, value) in sample_records() {
            writer.append(key, value).unwrap();
        }
        writer.sync().unwrap();
        writer.seq()
    }

    #[test]
    fn roundtrip_preserves_records_and_sequence() {
        let dir = test_dir("wal-roundtrip");
        let path = dir.join("wal");
        let last = write_sample(&path, 41);
        assert_eq!(last, 46);
        let replay = read_wal(&path).unwrap();
        assert_eq!(replay.start_seq, 41);
        assert_eq!(replay.end, WalEnd::Clean);
        assert_eq!(replay.last_seq(), 46);
        let decoded: Vec<(Key, Option<Value>)> =
            replay.records.iter().map(|r| (r.key, r.value)).collect();
        assert_eq!(decoded, sample_records());
        assert_eq!(
            replay.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![42, 43, 44, 45, 46]
        );
    }

    /// Truncating the file at *every* possible byte length must yield a
    /// valid prefix — never a panic, never a record the writer did not
    /// acknowledge.
    #[test]
    fn every_truncation_point_degrades_to_a_prefix() {
        let dir = test_dir("wal-truncation");
        let full_path = dir.join("full");
        write_sample(&full_path, 0);
        let full = std::fs::read(&full_path).unwrap();
        // Stream offsets where the file ends exactly between records — a
        // cut there reads as a shorter-but-clean log, not a torn one.
        let mut boundaries = vec![HEADER_LEN];
        for (_, value) in sample_records() {
            let body = if value.is_some() {
                UPSERT_BODY
            } else {
                TOMBSTONE_BODY
            };
            boundaries.push(boundaries.last().unwrap() + 8 + body);
        }
        assert_eq!(*boundaries.last().unwrap(), full.len());
        for cut in 0..=full.len() {
            let path = dir.join("cut");
            std::fs::write(&path, &full[..cut]).unwrap();
            let replay = read_wal(&path).unwrap();
            if cut < HEADER_LEN {
                assert_eq!(replay.end, WalEnd::CorruptHeader, "cut={cut}");
                assert!(replay.records.is_empty());
                continue;
            }
            // The replayed prefix must match the written one record for
            // record.
            let expected: Vec<(Key, Option<Value>)> = sample_records()
                .into_iter()
                .take(replay.records.len())
                .collect();
            let decoded: Vec<(Key, Option<Value>)> =
                replay.records.iter().map(|r| (r.key, r.value)).collect();
            assert_eq!(decoded, expected, "cut={cut}");
            if boundaries.contains(&cut) {
                assert_eq!(replay.end, WalEnd::Clean, "cut={cut} is a boundary");
                assert_eq!(
                    replay.records.len(),
                    boundaries.iter().position(|&b| b == cut).unwrap()
                );
            } else {
                assert!(replay.end.is_torn(), "cut={cut} must be torn");
            }
        }
    }

    /// Flipping any single bit of any record must stop replay at (or
    /// before) that record — corrupt data is never replayed.
    #[test]
    fn bit_flips_never_replay_corrupt_records() {
        let dir = test_dir("wal-bitflip");
        let full_path = dir.join("full");
        write_sample(&full_path, 0);
        let full = std::fs::read(&full_path).unwrap();
        let samples = sample_records();
        for offset in (HEADER_LEN..full.len()).step_by(3) {
            for bit in [0u8, 5] {
                let path = dir.join("flipped");
                std::fs::write(&path, &full).unwrap();
                Fault::BitFlip {
                    offset: offset as u64,
                    bit,
                }
                .apply_to(&path)
                .unwrap();
                let replay = read_wal(&path).unwrap();
                // Whatever prefix survives must be uncorrupted records.
                for (record, expected) in replay.records.iter().zip(&samples) {
                    assert_eq!((record.key, record.value), *expected);
                }
                assert!(
                    replay.records.len() < samples.len(),
                    "a flip at {offset} must lose at least the record it hit"
                );
                assert!(replay.end.is_torn());
            }
        }
    }

    #[test]
    fn missing_file_reads_as_empty() {
        let dir = test_dir("wal-missing");
        let replay = read_wal(&dir.join("nope")).unwrap();
        assert_eq!(replay.end, WalEnd::Missing);
        assert!(replay.records.is_empty());
    }

    fn batch(records: &[(Key, Option<Value>)]) -> Vec<WriteRecord> {
        records
            .iter()
            .map(|&(key, value)| WriteRecord { key, value })
            .collect()
    }

    #[test]
    fn batch_frames_roundtrip_interleaved_with_point_records() {
        let dir = test_dir("wal-batch-roundtrip");
        let path = dir.join("wal");
        {
            let mut writer = WalWriter::create(&path, 10, None).unwrap();
            assert_eq!(writer.append(1, Some(11)).unwrap(), 11);
            let group = batch(&[(2, Some(22)), (3, None), (4, Some(44))]);
            assert_eq!(writer.append_batch(&group).unwrap(), 14);
            assert_eq!(
                writer.append_batch(&[]).unwrap(),
                14,
                "empty batch is a no-op"
            );
            assert_eq!(writer.append(5, None).unwrap(), 15);
        }
        let replay = read_wal(&path).unwrap();
        assert_eq!(replay.end, WalEnd::Clean);
        assert_eq!(replay.last_seq(), 15);
        let decoded: Vec<(u64, Key, Option<Value>)> = replay
            .records
            .iter()
            .map(|r| (r.seq, r.key, r.value))
            .collect();
        assert_eq!(
            decoded,
            vec![
                (11, 1, Some(11)),
                (12, 2, Some(22)),
                (13, 3, None),
                (14, 4, Some(44)),
                (15, 5, None),
            ]
        );
    }

    /// Truncating or corrupting a batch frame must drop the *whole* group —
    /// recovery sees all of a group commit or none of it, never a subset.
    #[test]
    fn batch_frames_recover_all_or_nothing() {
        let dir = test_dir("wal-batch-atomic");
        let full_path = dir.join("full");
        {
            let mut writer = WalWriter::create(&full_path, 0, None).unwrap();
            writer.append(1, Some(1)).unwrap();
            writer
                .append_batch(&batch(&[(2, Some(2)), (3, None), (4, Some(4))]))
                .unwrap();
            writer.append(5, Some(5)).unwrap();
        }
        let full = std::fs::read(&full_path).unwrap();
        let batch_body = BATCH_PREFIX + 2 * UPSERT_SUB + TOMBSTONE_SUB;
        let expected_len = HEADER_LEN + (8 + UPSERT_BODY) * 2 + 8 + batch_body;
        assert_eq!(full.len(), expected_len);
        for cut in HEADER_LEN..=full.len() {
            let path = dir.join("cut");
            std::fs::write(&path, &full[..cut]).unwrap();
            let replay = read_wal(&path).unwrap();
            assert!(
                [0, 1, 4, 5].contains(&replay.records.len()),
                "cut={cut} replayed a proper subset of the batch: {} records",
                replay.records.len()
            );
        }
        let batch_start = HEADER_LEN + 8 + UPSERT_BODY;
        for offset in batch_start..batch_start + 8 + batch_body {
            let path = dir.join("flipped");
            std::fs::write(&path, &full).unwrap();
            Fault::BitFlip {
                offset: offset as u64,
                bit: 3,
            }
            .apply_to(&path)
            .unwrap();
            let replay = read_wal(&path).unwrap();
            assert!(
                replay.end.is_torn(),
                "flip at {offset} must end replay early"
            );
            assert!(
                replay.records.len() <= 1,
                "flip at {offset} replayed part of the batch"
            );
        }
    }

    /// A sequence gap (a record lost in the middle, not at the tail) stops
    /// replay even though later records checksum correctly.
    #[test]
    fn sequence_gaps_stop_replay() {
        let dir = test_dir("wal-seqgap");
        let path = dir.join("wal");
        {
            let mut writer = WalWriter::create(&path, 0, None).unwrap();
            writer.append(1, Some(1)).unwrap();
            writer.append(2, Some(2)).unwrap();
            writer.append(3, Some(3)).unwrap();
        }
        // Excise the middle record (8 + UPSERT_BODY framed bytes).
        let bytes = std::fs::read(&path).unwrap();
        let record = 8 + UPSERT_BODY;
        let mut gapped = bytes[..HEADER_LEN + record].to_vec();
        gapped.extend_from_slice(&bytes[HEADER_LEN + 2 * record..]);
        std::fs::write(&path, &gapped).unwrap();
        let replay = read_wal(&path).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.end, WalEnd::SequenceGap);
    }
}
