//! The sharded index has one read path (RCU snapshots) and one overlay (the
//! persistent map), so `csv-index` has no flag to choose either: the old
//! `--read-path` and `--overlay` flags are unknown flags, rejected with a
//! non-zero exit before anything is built.

use std::process::Command;

#[test]
fn read_path_and_overlay_flags_are_unknown_flags() {
    for args in [["--read-path", "rcu"], ["--overlay", "persistent"]] {
        let output = Command::new(env!("CARGO_BIN_EXE_csv-index"))
            .args(args)
            .output()
            .expect("csv-index must run");
        assert!(!output.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("unknown flag '{}'", args[0])),
            "{args:?}: {stderr}"
        );
    }
}
