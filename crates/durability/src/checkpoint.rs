//! Atomic per-shard checkpoint files.
//!
//! A checkpoint is one shard's folded base — every live record — plus the
//! bookkeeping recovery needs: the shard's lower bound, the last durable
//! WAL sequence the checkpoint covers, and the staleness seed that re-arms
//! the maintenance engine. The file is written to a temporary name, fsynced,
//! then renamed into place (and the directory fsynced), so a crash leaves
//! either the old checkpoint or the new one — never a half-written file
//! under the live name. The whole body is covered by a trailing CRC32, so
//! recovery can tell a checkpoint it must not trust.
//!
//! ```text
//! "CSVCKPT1" | body | crc32(body) u32 LE
//! body: lower_bound u64 | last_seq u64 | stale_writes u64 | maintained u8
//!     | mean_level f64-bits u64 | num_records u64 | (key u64, value u64)*
//! ```

use crate::store::DurabilityError;
use csv_common::crc::crc32;
use csv_common::{Key, KeyValue, Value};
use csv_concurrent::StaleSeed;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"CSVCKPT1";
const FIXED_BODY: usize = 8 + 8 + 8 + 1 + 8 + 8;

/// One decoded checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The shard's lower bound.
    pub lower_bound: Key,
    /// The last WAL sequence this checkpoint covers; the shard's log starts
    /// here.
    pub last_seq: u64,
    /// Staleness seed to re-arm on recovery.
    pub stale: StaleSeed,
    /// Every live record of the shard, ascending.
    pub records: Vec<KeyValue>,
}

/// Serializes `checkpoint` into `path` atomically: write `path` + `.tmp`,
/// fsync, rename over `path`, fsync the parent directory.
pub fn write_checkpoint(path: &Path, checkpoint: &Checkpoint) -> io::Result<()> {
    write_checkpoint_parts(
        path,
        checkpoint.lower_bound,
        checkpoint.last_seq,
        checkpoint.stale,
        &checkpoint.records,
    )
}

/// [`write_checkpoint`] over borrowed parts, so callers holding a records
/// slice need not assemble an owning [`Checkpoint`].
pub fn write_checkpoint_parts(
    path: &Path,
    lower_bound: Key,
    last_seq: u64,
    stale: StaleSeed,
    records: &[KeyValue],
) -> io::Result<()> {
    let checkpoint = (lower_bound, last_seq, stale);
    let mut body = Vec::with_capacity(FIXED_BODY + 16 * records.len());
    body.extend_from_slice(&checkpoint.0.to_le_bytes());
    body.extend_from_slice(&checkpoint.1.to_le_bytes());
    body.extend_from_slice(&(checkpoint.2.writes as u64).to_le_bytes());
    body.push(u8::from(checkpoint.2.maintained));
    body.extend_from_slice(&checkpoint.2.mean_level.to_bits().to_le_bytes());
    body.extend_from_slice(&(records.len() as u64).to_le_bytes());
    for record in records {
        body.extend_from_slice(&record.key.to_le_bytes());
        body.extend_from_slice(&record.value.to_le_bytes());
    }
    let tmp = path.with_extension("tmp");
    {
        let mut file = File::create(&tmp)?;
        file.write_all(MAGIC)?;
        file.write_all(&body)?;
        file.write_all(&crc32(&body).to_le_bytes())?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path)
}

/// Fsyncs `path`'s parent directory so the rename itself is durable.
pub fn sync_parent_dir(path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        File::open(parent)?.sync_all()?;
    }
    Ok(())
}

/// Reads and verifies the checkpoint at `path`. Unlike a WAL tail, a
/// corrupt checkpoint is not degradable — it is the shard's base state — so
/// every defect is a typed error.
pub fn read_checkpoint(path: &Path) -> Result<Checkpoint, DurabilityError> {
    let corrupt = |reason: &str| DurabilityError::CorruptCheckpoint {
        path: PathBuf::from(path),
        reason: reason.to_string(),
    };
    let bytes = std::fs::read(path).map_err(|source| DurabilityError::Io {
        context: format!("reading checkpoint {}", path.display()),
        source,
    })?;
    if bytes.len() < 8 + FIXED_BODY + 4 || &bytes[..8] != MAGIC {
        return Err(corrupt("missing or truncated header"));
    }
    let body = &bytes[8..bytes.len() - 4];
    let stored_crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    if crc32(body) != stored_crc {
        return Err(corrupt("checksum mismatch"));
    }
    let u64_at = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().expect("8 bytes"));
    let lower_bound = u64_at(0);
    let last_seq = u64_at(8);
    let stale_writes = u64_at(16);
    let maintained = match body[24] {
        0 => false,
        1 => true,
        _ => return Err(corrupt("invalid maintained flag")),
    };
    let mean_level = f64::from_bits(u64_at(25));
    let num_records = u64_at(33) as usize;
    if body.len() != FIXED_BODY + 16 * num_records {
        return Err(corrupt("record count disagrees with file length"));
    }
    let mut records = Vec::with_capacity(num_records);
    for i in 0..num_records {
        let at = FIXED_BODY + 16 * i;
        records.push(KeyValue::new(u64_at(at) as Key, u64_at(at + 8) as Value));
    }
    Ok(Checkpoint {
        lower_bound,
        last_seq,
        stale: StaleSeed {
            writes: stale_writes as usize,
            maintained,
            mean_level,
        },
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;
    use crate::test_dir;

    fn sample() -> Checkpoint {
        Checkpoint {
            lower_bound: 7,
            last_seq: 99,
            stale: StaleSeed {
                writes: 12,
                maintained: true,
                mean_level: 2.25,
            },
            records: (0..100u64).map(|i| KeyValue::new(7 + i * 3, i)).collect(),
        }
    }

    #[test]
    fn roundtrip() {
        let dir = test_dir("ckpt-roundtrip");
        let path = dir.join("ckpt-1.ckpt");
        write_checkpoint(&path, &sample()).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap(), sample());
        assert!(
            !path.with_extension("tmp").exists(),
            "the temp file must be renamed away"
        );
    }

    #[test]
    fn corruption_is_a_typed_error_not_data() {
        let dir = test_dir("ckpt-corrupt");
        let path = dir.join("ckpt-1.ckpt");
        write_checkpoint(&path, &sample()).unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        // A flip anywhere — header, body, trailer — must be detected.
        for offset in [0u64, 9, len / 2, len - 1] {
            Fault::BitFlip { offset, bit: 3 }.apply_to(&path).unwrap();
            assert!(matches!(
                read_checkpoint(&path),
                Err(DurabilityError::CorruptCheckpoint { .. })
            ));
            Fault::BitFlip { offset, bit: 3 }.apply_to(&path).unwrap();
        }
        // Restored: reads clean again.
        assert_eq!(read_checkpoint(&path).unwrap(), sample());
        // A truncated tail is equally fatal for a checkpoint.
        Fault::DropTail(5).apply_to(&path).unwrap();
        assert!(read_checkpoint(&path).is_err());
    }

    #[test]
    fn empty_shard_checkpoints_fine() {
        let dir = test_dir("ckpt-empty");
        let path = dir.join("ckpt-0.ckpt");
        let empty = Checkpoint {
            lower_bound: 0,
            last_seq: 0,
            stale: StaleSeed::fresh(0),
            records: Vec::new(),
        };
        write_checkpoint(&path, &empty).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap(), empty);
    }
}
