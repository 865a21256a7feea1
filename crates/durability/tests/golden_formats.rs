//! The durable formats, byte for byte as the commit before the sliced CRC
//! kernel and the in-place WAL record builder wrote them (captured by
//! running that commit's writers on these inputs): "format unchanged" is
//! asserted, not assumed, and files written by the old code still read back.

use csv_common::KeyValue;
use csv_concurrent::{StaleSeed, WriteRecord};
use csv_durability::{
    read_checkpoint, read_manifest, read_wal, write_checkpoint, write_manifest, Checkpoint, WalEnd,
    WalWriter,
};
use std::path::PathBuf;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("csv-golden-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Header, an upsert point record, a tombstone point record, and a
/// three-record batch frame.
const GOLDEN_WAL: &str = "43535657414c3031290000000000000014a61b83\
    19000000972a38c22a00000000000000010a000000000000006400000000000000\
    1100000095cb06c32b00000000000000000a00000000000000\
    38000000278695652c000000000000000203000000\
    0102000000000000001600000000000000\
    000300000000000000\
    0104000000000000002c00000000000000";

const GOLDEN_CHECKPOINT: &str = "435356434b505431\
    070000000000000063000000000000000c000000000000000100000000000002400200000000000000\
    070000000000000046000000000000000a000000000000006400000000000000\
    0eee7c3f";

const GOLDEN_MANIFEST: &str = "4353564d414e3031\
    0200000000000000\
    00000000000000000100000000000000f4010000000000000200000000000000\
    a6b44541";

#[test]
fn wal_point_records_and_batch_frames_are_byte_identical() {
    let dir = test_dir("wal");
    let path = dir.join("wal");
    {
        let mut writer = WalWriter::create(&path, 41, None).unwrap();
        assert_eq!(writer.append(10, Some(100)).unwrap(), 42);
        assert_eq!(writer.append(10, None).unwrap(), 43);
        let group = [
            WriteRecord {
                key: 2,
                value: Some(22),
            },
            WriteRecord {
                key: 3,
                value: None,
            },
            WriteRecord {
                key: 4,
                value: Some(44),
            },
        ];
        assert_eq!(writer.append_batch(&group).unwrap(), 46);
        writer.sync().unwrap();
    }
    assert_eq!(hex(&std::fs::read(&path).unwrap()), GOLDEN_WAL);

    // And the old bytes replay to the same records under the new reader.
    std::fs::write(&path, unhex(GOLDEN_WAL)).unwrap();
    let replay = read_wal(&path).unwrap();
    assert_eq!(replay.end, WalEnd::Clean);
    assert_eq!(replay.start_seq, 41);
    let decoded: Vec<_> = replay
        .records
        .iter()
        .map(|r| (r.seq, r.key, r.value))
        .collect();
    assert_eq!(
        decoded,
        vec![
            (42, 10, Some(100)),
            (43, 10, None),
            (44, 2, Some(22)),
            (45, 3, None),
            (46, 4, Some(44)),
        ]
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_and_manifest_files_are_byte_identical() {
    let dir = test_dir("ckpt-manifest");
    let checkpoint = Checkpoint {
        lower_bound: 7,
        last_seq: 99,
        stale: StaleSeed {
            writes: 12,
            maintained: true,
            mean_level: 2.25,
        },
        records: vec![KeyValue::new(7, 70), KeyValue::new(10, 100)],
    };
    let path = dir.join("c.ckpt");
    write_checkpoint(&path, &checkpoint).unwrap();
    assert_eq!(hex(&std::fs::read(&path).unwrap()), GOLDEN_CHECKPOINT);
    std::fs::write(&path, unhex(GOLDEN_CHECKPOINT)).unwrap();
    assert_eq!(read_checkpoint(&path).unwrap(), checkpoint);

    let entries = vec![(0u64, 1u64), (500, 2)];
    let path = dir.join("MANIFEST");
    write_manifest(&path, &entries).unwrap();
    assert_eq!(hex(&std::fs::read(&path).unwrap()), GOLDEN_MANIFEST);
    std::fs::write(&path, unhex(GOLDEN_MANIFEST)).unwrap();
    assert_eq!(read_manifest(&path).unwrap(), Some(entries));
    std::fs::remove_dir_all(&dir).ok();
}
