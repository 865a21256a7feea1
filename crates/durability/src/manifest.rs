//! The store manifest: the single source of truth for which checkpoint
//! epoch is live for each shard.
//!
//! Checkpoint and WAL files are named by a monotonically increasing epoch
//! (`ckpt-<epoch>.ckpt` / `wal-<epoch>.wal`) and are immutable once the
//! manifest references them (LSM-style). A durable layout transition is:
//! write the new epoch files, then atomically replace `MANIFEST`, then
//! delete the files the new manifest no longer references. A crash anywhere
//! in that sequence leaves either the old manifest (stray new-epoch files
//! are garbage-collected on the next transition or on recovery) or the new
//! one — recovery reads the manifest and nothing else decides what is live.
//!
//! ```text
//! "CSVMAN01" | num u64 LE | (lower_bound u64 LE, epoch u64 LE)* | crc32(body) u32 LE
//! ```

use crate::checkpoint::sync_parent_dir;
use crate::store::DurabilityError;
use csv_common::crc::crc32;
use csv_common::Key;
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"CSVMAN01";

/// The manifest's file name inside the data directory.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// The live `(lower_bound, epoch)` pairs, sorted by lower bound.
pub type ManifestEntries = Vec<(Key, u64)>;

/// Atomically replaces the manifest at `path` (write temp + fsync + rename
/// + directory fsync).
pub fn write_manifest(path: &Path, entries: &ManifestEntries) -> io::Result<()> {
    let mut body = Vec::with_capacity(8 + 16 * entries.len());
    body.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for &(lower, epoch) in entries {
        body.extend_from_slice(&lower.to_le_bytes());
        body.extend_from_slice(&epoch.to_le_bytes());
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

/// Reads and verifies the manifest. `Ok(None)` when the file does not exist
/// (an uninitialized store); any other defect is a typed error — the
/// manifest is written atomically, so corruption means media failure, not a
/// crash window.
pub fn read_manifest(path: &Path) -> Result<Option<ManifestEntries>, DurabilityError> {
    let corrupt =
        |reason: &str| DurabilityError::CorruptManifest(format!("{}: {reason}", path.display()));
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(source) => {
            return Err(DurabilityError::Io {
                context: format!("reading manifest {}", path.display()),
                source,
            })
        }
    };
    if bytes.len() < 8 + 8 + 4 || &bytes[..8] != MAGIC {
        return Err(corrupt("missing or truncated header"));
    }
    let body = &bytes[8..bytes.len() - 4];
    let stored_crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
    if crc32(body) != stored_crc {
        return Err(corrupt("checksum mismatch"));
    }
    let num = u64::from_le_bytes(body[..8].try_into().expect("8 bytes")) as usize;
    if body.len() != 8 + 16 * num {
        return Err(corrupt("entry count disagrees with file length"));
    }
    let mut entries = Vec::with_capacity(num);
    for i in 0..num {
        let at = 8 + 16 * i;
        let lower = Key::from_le_bytes(body[at..at + 8].try_into().expect("8 bytes"));
        let epoch = u64::from_le_bytes(body[at + 8..at + 16].try_into().expect("8 bytes"));
        entries.push((lower, epoch));
    }
    if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
        return Err(corrupt("lower bounds not strictly ascending"));
    }
    Ok(Some(entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;
    use crate::test_dir;

    #[test]
    fn roundtrip_and_replacement() {
        let dir = test_dir("manifest");
        let path = dir.join(MANIFEST_NAME);
        assert_eq!(read_manifest(&path).unwrap(), None);
        let first = vec![(0u64, 1u64), (500, 2), (900, 3)];
        write_manifest(&path, &first).unwrap();
        assert_eq!(read_manifest(&path).unwrap(), Some(first));
        let second = vec![(0u64, 4u64), (700, 5)];
        write_manifest(&path, &second).unwrap();
        assert_eq!(read_manifest(&path).unwrap(), Some(second));
    }

    #[test]
    fn corruption_is_fatal_and_typed() {
        let dir = test_dir("manifest-corrupt");
        let path = dir.join(MANIFEST_NAME);
        write_manifest(&path, &vec![(0u64, 1u64), (10, 2)]).unwrap();
        Fault::BitFlip { offset: 20, bit: 1 }
            .apply_to(&path)
            .unwrap();
        assert!(matches!(
            read_manifest(&path),
            Err(DurabilityError::CorruptManifest(_))
        ));
    }
}
