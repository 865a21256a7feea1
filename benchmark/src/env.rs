//! What a result file records about where it was measured.

use crate::inputs::Sizes;
use crate::json::Json;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
}

fn cpu_model() -> Option<String> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = cpuinfo.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split(':').nth(1)?.trim().to_string())
}

/// Commit (`+dirty` when the work tree differs from it), cores, CPU model,
/// compiler and sizes. A checkout that is not a git repository (the
/// acceptance driver's) records `"unknown"`.
pub fn describe(sizes: &Sizes) -> Json {
    let unknown = || "unknown".to_string();
    let commit = command_line("git", &["rev-parse", "HEAD"]).map(|head| {
        let dirty = command_line("git", &["status", "--porcelain"]).is_some();
        if dirty {
            head + "+dirty"
        } else {
            head
        }
    });
    Json::obj([
        ("commit", Json::str(commit.unwrap_or_else(unknown))),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("cpu_model", Json::str(cpu_model().unwrap_or_else(unknown))),
        (
            "rustc",
            Json::str(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        (
            "sizes",
            Json::obj([
                ("loaded_keys", Json::Num(sizes.loaded as f64)),
                ("held_out_keys", Json::Num(sizes.held_out as f64)),
                ("shards", Json::Num(sizes.shards as f64)),
                ("passes", Json::Num(sizes.passes as f64)),
                ("lookup_pass", Json::Num(sizes.lookup_pass as f64)),
                ("closed_batch", Json::Num(sizes.closed_batch as f64)),
                ("pipelined_round", Json::Num(sizes.pipelined_round as f64)),
                ("mixed_rate_ops_s", Json::Num(sizes.mixed_rate as f64)),
                ("overwrite_round", Json::Num(sizes.overwrite_round as f64)),
                ("bursts", Json::Num(sizes.bursts as f64)),
                ("burst_inserts", Json::Num(sizes.burst_inserts as f64)),
                ("tail_writes", Json::Num(sizes.tail_writes as f64)),
                ("recoveries", Json::Num(sizes.recoveries as f64)),
            ]),
        ),
    ])
}
