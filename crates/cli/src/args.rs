//! Hand-rolled argument parsing for the `csv-index` tool (no external
//! dependencies beyond the workspace crates).

use csv_concurrent::ShardingConfig;
use csv_core::GreedyMode;
use csv_datasets::Dataset;
use std::fmt;
use std::path::PathBuf;

/// Which index implementation to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexChoice {
    /// ALEX (gapped arrays + exponential search).
    Alex,
    /// LIPP (precise positions).
    Lipp,
    /// SALI (LIPP + workload-aware flattening).
    Sali,
    /// PGM baseline.
    Pgm,
    /// B+-tree baseline.
    Btree,
}

impl IndexChoice {
    /// Parses an index name (case-insensitive).
    pub fn parse(s: &str) -> Result<Self, CliError> {
        match s.to_ascii_lowercase().as_str() {
            "alex" => Ok(Self::Alex),
            "lipp" => Ok(Self::Lipp),
            "sali" => Ok(Self::Sali),
            "pgm" => Ok(Self::Pgm),
            "btree" | "b+tree" => Ok(Self::Btree),
            other => Err(CliError::new(format!(
                "unknown index '{other}' (expected alex|lipp|sali|pgm|btree)"
            ))),
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Alex => "ALEX",
            Self::Lipp => "LIPP",
            Self::Sali => "SALI",
            Self::Pgm => "PGM",
            Self::Btree => "B+Tree",
        }
    }

    /// `true` when CSV (Algorithm 2) can be applied to the index.
    pub fn supports_csv(&self) -> bool {
        matches!(self, Self::Alex | Self::Lipp | Self::Sali)
    }
}

/// Which workload to replay after construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadChoice {
    /// Point lookups over every loaded key (uniform).
    ReadOnly,
    /// YCSB-A: 50% reads / 50% updates, Zipfian popularity.
    YcsbA,
    /// YCSB-B: 95% reads / 5% updates, Zipfian popularity.
    YcsbB,
    /// YCSB-E: 95% short scans / 5% inserts.
    YcsbE,
    /// Mixed churn: reads, inserts, removes and scans.
    Churn,
}

impl WorkloadChoice {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Result<Self, CliError> {
        match s.to_ascii_lowercase().as_str() {
            "read-only" | "readonly" | "ycsb-c" => Ok(Self::ReadOnly),
            "ycsb-a" => Ok(Self::YcsbA),
            "ycsb-b" => Ok(Self::YcsbB),
            "ycsb-e" => Ok(Self::YcsbE),
            "churn" => Ok(Self::Churn),
            other => Err(CliError::new(format!(
                "unknown workload '{other}' (expected read-only|ycsb-a|ycsb-b|ycsb-e|churn)"
            ))),
        }
    }
}

/// A parse/validation error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// The message printed to stderr.
    pub message: String,
}

impl CliError {
    /// Creates an error from any displayable message.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// Parsed command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct CliArgs {
    /// Index to build.
    pub index: IndexChoice,
    /// Synthetic dataset analogue (ignored when `dataset_file` is given).
    pub dataset: Dataset,
    /// Optional SOSD file to load keys from instead of generating them.
    pub dataset_file: Option<PathBuf>,
    /// Number of keys to generate.
    pub size: usize,
    /// Smoothing threshold α; 0 disables CSV.
    pub alpha: f64,
    /// Workload to replay.
    pub workload: WorkloadChoice,
    /// Number of workload operations.
    pub ops: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for the CSV optimisation sweep (0 = one per core).
    pub threads: usize,
    /// Greedy driver for Algorithm 1: the lazy heap (default) or the
    /// paper-faithful full rescan.
    pub greedy: GreedyMode,
    /// Diminishing-returns drift the lazy driver tolerates before its exact
    /// fallback rescan (0 = exact behaviour).
    pub drift_tolerance: f64,
    /// Plan-only mode: print the CSV plan as JSON without applying it (and
    /// without replaying any workload).
    pub dry_run: bool,
    /// Maintenance mode: run the workload over the sharded index twice —
    /// once interleaved with background maintenance ticks, once without —
    /// and report the lookup-latency comparison.
    pub maintain: bool,
    /// Shard count for the sharded index in `--maintain`/`--recover` modes.
    pub shards: usize,
    /// How many buffered writes a shard snapshot holds before folding into
    /// its base index.
    pub overlay_capacity: usize,
    /// Directory backing the durable store (`--durability` creates it,
    /// `--recover` reads it).
    pub data_dir: Option<PathBuf>,
    /// Attach the per-shard WAL + checkpoint sink to the maintained run,
    /// persisting every acknowledged write into `--data-dir`.
    pub durability: bool,
    /// Recover a durable store from `--data-dir`, report recovery time and
    /// replayed-record counts, and exit.
    pub recover: bool,
    /// Serving mode: build + optimise the sharded index, then listen on
    /// `--port` with `--workers` thread-per-core workers (plus the
    /// background maintenance engine) until a client sends `Shutdown`.
    pub serve: bool,
    /// Loopback port `--serve` listens on.
    pub port: u16,
    /// Worker threads for `--serve` (`None` = one per core).
    pub workers: Option<usize>,
}

impl Default for CliArgs {
    fn default() -> Self {
        Self {
            index: IndexChoice::Lipp,
            dataset: Dataset::Genome,
            dataset_file: None,
            size: 200_000,
            alpha: 0.1,
            workload: WorkloadChoice::ReadOnly,
            ops: 100_000,
            seed: 42,
            threads: 0,
            greedy: GreedyMode::Lazy,
            drift_tolerance: 0.0,
            dry_run: false,
            maintain: false,
            shards: 16,
            overlay_capacity: ShardingConfig::default().overlay_capacity,
            data_dir: None,
            durability: false,
            recover: false,
            serve: false,
            port: 4711,
            workers: None,
        }
    }
}

impl CliArgs {
    /// The usage string printed on `--help` or a parse error.
    pub fn usage() -> &'static str {
        "csv-index [--index alex|lipp|sali|pgm|btree] [--dataset facebook|covid|osm|genome]\n\
         \u{20}         [--dataset-file PATH.sosd] [--size N] [--alpha A] [--threads T]\n\
         \u{20}         [--greedy lazy|rescan] [--drift-tolerance D]\n\
         \u{20}         [--workload read-only|ycsb-a|ycsb-b|ycsb-e|churn]\n\
         \u{20}         [--ops N] [--seed S] [--dry-run] [--maintain]\n\
         \u{20}         [--shards N] [--overlay-capacity N]\n\
         \u{20}         [--data-dir PATH] [--durability] [--recover]\n\
         \u{20}         [--serve] [--port P] [--workers W]\n\
         \n\
         Builds the chosen index over a synthetic or SOSD dataset, optionally applies CSV\n\
         smoothing (alpha > 0) using T worker threads (0 = one per core) and the chosen\n\
         greedy driver (drift tolerance D > 0 lets the lazy driver skip exact fallback\n\
         rescans on bounded invariant violations), replays the workload and prints\n\
         structure and latency reports.\n\
         With --dry-run the CSV plan is printed as JSON and nothing is applied or replayed\n\
         (exact for lipp/sali; for alex's multi-level sweep the upper levels are planned\n\
         against the un-rebuilt structure, so a real run can decide those levels differently).\n\
         With --maintain the workload runs over the sharded index twice — interleaved with\n\
         background maintenance ticks, then without — and the lookup-latency comparison\n\
         (p50/p99) is reported alongside the usual output; --shards sets the sharded\n\
         index's shard count and --overlay-capacity its per-snapshot fold threshold.\n\
         With --durability (requires --maintain and --data-dir) the\n\
         maintained run persists every acknowledged write through per-shard checkpoints\n\
         plus a write-ahead log in --data-dir; --recover (requires --data-dir) rebuilds\n\
         the index from such a store, reports recovery time and replayed-record counts,\n\
         and exits.\n\
         With --serve the optimised sharded index is served over a loopback TCP socket\n\
         on --port (default 4711) by --workers thread-per-core workers (default: one per\n\
         core) with the maintenance engine ticking behind the socket, until a client\n\
         sends the protocol's Shutdown operation (csv-loadgen --shutdown does). --serve\n\
         is standalone (no --dry-run/--maintain/--recover) and honours --shards,\n\
         --overlay-capacity and --durability."
    }

    /// Parses `--flag value` style arguments (anything after the program
    /// name). Returns an error carrying a user-facing message on unknown
    /// flags, missing values or malformed numbers.
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut out = Self::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if flag == "--help" || flag == "-h" {
                return Err(CliError::new(Self::usage()));
            }
            if flag == "--dry-run" {
                out.dry_run = true;
                continue;
            }
            if flag == "--maintain" {
                out.maintain = true;
                continue;
            }
            if flag == "--durability" {
                out.durability = true;
                continue;
            }
            if flag == "--recover" {
                out.recover = true;
                continue;
            }
            if flag == "--serve" {
                out.serve = true;
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| CliError::new(format!("flag {flag} expects a value")))?;
            match flag.as_str() {
                "--index" => out.index = IndexChoice::parse(value)?,
                "--dataset" => out.dataset = parse_dataset(value)?,
                "--dataset-file" => out.dataset_file = Some(PathBuf::from(value)),
                "--size" => out.size = parse_number(flag, value)? as usize,
                "--ops" => out.ops = parse_number(flag, value)? as usize,
                "--seed" => out.seed = parse_number(flag, value)?,
                "--threads" => out.threads = parse_number(flag, value)? as usize,
                "--shards" => {
                    out.shards = parse_number(flag, value)? as usize;
                    if out.shards == 0 {
                        return Err(CliError::new("--shards must be at least 1"));
                    }
                }
                "--overlay-capacity" => {
                    let capacity = parse_number(flag, value)? as usize;
                    if capacity == 0 {
                        return Err(CliError::new("--overlay-capacity must be at least 1"));
                    }
                    out.overlay_capacity = capacity;
                }
                "--data-dir" => out.data_dir = Some(PathBuf::from(value)),
                "--port" => {
                    let port = parse_number(flag, value)?;
                    if port == 0 || port > u16::MAX as u64 {
                        return Err(CliError::new("--port must be in 1..=65535"));
                    }
                    out.port = port as u16;
                }
                "--workers" => {
                    let workers = parse_number(flag, value)? as usize;
                    if workers == 0 {
                        return Err(CliError::new("--workers must be at least 1"));
                    }
                    out.workers = Some(workers);
                }
                "--greedy" => {
                    out.greedy = match value.to_ascii_lowercase().as_str() {
                        "rescan" => GreedyMode::Rescan,
                        "lazy" => GreedyMode::Lazy,
                        other => {
                            return Err(CliError::new(format!(
                                "unknown greedy driver '{other}' (expected rescan|lazy)"
                            )))
                        }
                    }
                }
                "--alpha" => {
                    out.alpha = value.parse::<f64>().map_err(|_| {
                        CliError::new(format!("--alpha expects a number, got '{value}'"))
                    })?;
                    if !(0.0..=1.0).contains(&out.alpha) {
                        return Err(CliError::new("--alpha must be in [0, 1]"));
                    }
                }
                "--drift-tolerance" => {
                    out.drift_tolerance = value.parse::<f64>().map_err(|_| {
                        CliError::new(format!("--drift-tolerance expects a number, got '{value}'"))
                    })?;
                    if !out.drift_tolerance.is_finite() || out.drift_tolerance < 0.0 {
                        return Err(CliError::new("--drift-tolerance must be >= 0"));
                    }
                }
                "--workload" => out.workload = WorkloadChoice::parse(value)?,
                other => {
                    return Err(CliError::new(format!(
                        "unknown flag '{other}'\n\n{}",
                        Self::usage()
                    )))
                }
            }
        }
        if out.size < 2 && out.dataset_file.is_none() {
            return Err(CliError::new("--size must be at least 2"));
        }
        if out.serve {
            if out.dry_run || out.maintain || out.recover {
                return Err(CliError::new(
                    "--serve is a standalone mode (drop --dry-run/--maintain/--recover)",
                ));
            }
        } else if out.port != Self::default().port {
            return Err(CliError::new("--port only applies with --serve"));
        } else if out.workers.is_some() {
            return Err(CliError::new("--workers only applies with --serve"));
        }
        if out.durability {
            if !out.maintain && !out.serve {
                return Err(CliError::new(
                    "--durability requires --maintain or --serve (the sink rides the sharded run)",
                ));
            }
            if out.data_dir.is_none() {
                return Err(CliError::new(
                    "--durability requires --data-dir to place the store in",
                ));
            }
        }
        if out.recover {
            if out.data_dir.is_none() {
                return Err(CliError::new(
                    "--recover requires --data-dir pointing at an existing store",
                ));
            }
            if out.maintain || out.dry_run {
                return Err(CliError::new(
                    "--recover is a standalone mode (drop --maintain/--dry-run)",
                ));
            }
        }
        Ok(out)
    }
}

fn parse_dataset(value: &str) -> Result<Dataset, CliError> {
    match value.to_ascii_lowercase().as_str() {
        "facebook" | "fb" => Ok(Dataset::Facebook),
        "covid" => Ok(Dataset::Covid),
        "osm" => Ok(Dataset::Osm),
        "genome" => Ok(Dataset::Genome),
        other => Err(CliError::new(format!(
            "unknown dataset '{other}' (expected facebook|covid|osm|genome)"
        ))),
    }
}

fn parse_number(flag: &str, value: &str) -> Result<u64, CliError> {
    value
        .replace('_', "")
        .parse::<u64>()
        .map_err(|_| CliError::new(format!("{flag} expects an integer, got '{value}'")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliArgs, CliError> {
        CliArgs::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_when_no_flags_given() {
        let args = parse(&[]).unwrap();
        assert_eq!(args, CliArgs::default());
    }

    #[test]
    fn full_flag_set_round_trips() {
        let args = parse(&[
            "--index",
            "alex",
            "--dataset",
            "osm",
            "--size",
            "50_000",
            "--alpha",
            "0.4",
            "--workload",
            "ycsb-b",
            "--ops",
            "9000",
            "--seed",
            "7",
            "--threads",
            "4",
        ])
        .unwrap();
        assert_eq!(args.index, IndexChoice::Alex);
        assert_eq!(args.dataset, Dataset::Osm);
        assert_eq!(args.size, 50_000);
        assert!((args.alpha - 0.4).abs() < 1e-12);
        assert_eq!(args.workload, WorkloadChoice::YcsbB);
        assert_eq!(args.ops, 9_000);
        assert_eq!(args.seed, 7);
        assert_eq!(args.threads, 4);
    }

    #[test]
    fn threads_defaults_to_auto() {
        assert_eq!(parse(&[]).unwrap().threads, 0);
        assert!(parse(&["--threads", "x"])
            .unwrap_err()
            .message
            .contains("integer"));
    }

    #[test]
    fn greedy_driver_parses() {
        assert_eq!(parse(&[]).unwrap().greedy, GreedyMode::Lazy);
        assert_eq!(
            parse(&["--greedy", "rescan"]).unwrap().greedy,
            GreedyMode::Rescan
        );
        assert_eq!(
            parse(&["--greedy", "LAZY"]).unwrap().greedy,
            GreedyMode::Lazy
        );
        assert!(parse(&["--greedy", "eager"])
            .unwrap_err()
            .message
            .contains("rescan|lazy"));
    }

    #[test]
    fn every_index_and_workload_name_parses() {
        for (name, expected) in [
            ("alex", IndexChoice::Alex),
            ("LIPP", IndexChoice::Lipp),
            ("sali", IndexChoice::Sali),
            ("pgm", IndexChoice::Pgm),
            ("b+tree", IndexChoice::Btree),
        ] {
            assert_eq!(IndexChoice::parse(name).unwrap(), expected);
            assert!(!expected.name().is_empty());
        }
        for (name, expected) in [
            ("read-only", WorkloadChoice::ReadOnly),
            ("ycsb-a", WorkloadChoice::YcsbA),
            ("YCSB-B", WorkloadChoice::YcsbB),
            ("ycsb-e", WorkloadChoice::YcsbE),
            ("churn", WorkloadChoice::Churn),
        ] {
            assert_eq!(WorkloadChoice::parse(name).unwrap(), expected);
        }
        assert!(IndexChoice::Alex.supports_csv());
        assert!(!IndexChoice::Btree.supports_csv());
    }

    #[test]
    fn errors_carry_useful_messages() {
        assert!(parse(&["--index", "nope"])
            .unwrap_err()
            .message
            .contains("unknown index"));
        assert!(parse(&["--bogus", "1"])
            .unwrap_err()
            .message
            .contains("unknown flag"));
        assert!(parse(&["--size"])
            .unwrap_err()
            .message
            .contains("expects a value"));
        assert!(parse(&["--alpha", "3.0"])
            .unwrap_err()
            .message
            .contains("[0, 1]"));
        assert!(parse(&["--size", "1"])
            .unwrap_err()
            .message
            .contains("at least 2"));
        assert!(parse(&["--help"])
            .unwrap_err()
            .message
            .contains("csv-index"));
        assert!(parse(&["--ops", "abc"])
            .unwrap_err()
            .message
            .contains("integer"));
        assert!(parse(&["--dataset", "mars"])
            .unwrap_err()
            .message
            .contains("unknown dataset"));
    }

    #[test]
    fn dry_run_is_a_valueless_flag() {
        assert!(!parse(&[]).unwrap().dry_run);
        assert!(parse(&["--dry-run"]).unwrap().dry_run);
        // It must not consume the following flag as its value.
        let args = parse(&["--dry-run", "--size", "5000"]).unwrap();
        assert!(args.dry_run);
        assert_eq!(args.size, 5_000);
    }

    #[test]
    fn maintain_is_a_valueless_flag() {
        assert!(!parse(&[]).unwrap().maintain);
        let args = parse(&["--maintain", "--ops", "777"]).unwrap();
        assert!(args.maintain);
        assert_eq!(args.ops, 777);
    }

    #[test]
    fn drift_tolerance_parses_and_validates() {
        assert_eq!(parse(&[]).unwrap().drift_tolerance, 0.0);
        assert!(
            (parse(&["--drift-tolerance", "0.25"])
                .unwrap()
                .drift_tolerance
                - 0.25)
                .abs()
                < 1e-12
        );
        assert!(parse(&["--drift-tolerance", "-1"])
            .unwrap_err()
            .message
            .contains(">= 0"));
        assert!(parse(&["--drift-tolerance", "x"])
            .unwrap_err()
            .message
            .contains("number"));
    }

    #[test]
    fn dataset_file_flag_is_recorded() {
        let args = parse(&["--dataset-file", "/tmp/keys.sosd"]).unwrap();
        assert_eq!(args.dataset_file, Some(PathBuf::from("/tmp/keys.sosd")));
    }

    #[test]
    fn drift_tolerance_rejects_nan_and_infinity() {
        assert!(parse(&["--drift-tolerance", "NaN"])
            .unwrap_err()
            .message
            .contains(">= 0"));
        assert!(parse(&["--drift-tolerance", "inf"])
            .unwrap_err()
            .message
            .contains(">= 0"));
    }

    #[test]
    fn shards_and_overlay_capacity_reject_zero() {
        assert_eq!(parse(&[]).unwrap().shards, 16);
        assert_eq!(parse(&["--shards", "4"]).unwrap().shards, 4);
        assert!(parse(&["--shards", "0"])
            .unwrap_err()
            .message
            .contains("at least 1"));
        assert_eq!(parse(&[]).unwrap().overlay_capacity, 4096);
        assert_eq!(
            parse(&["--overlay-capacity", "64"])
                .unwrap()
                .overlay_capacity,
            64
        );
        assert!(parse(&["--overlay-capacity", "0"])
            .unwrap_err()
            .message
            .contains("at least 1"));
        assert!(parse(&["--shards", "x"])
            .unwrap_err()
            .message
            .contains("integer"));
    }

    #[test]
    fn durability_requires_maintain_data_dir_and_rcu() {
        let args = parse(&["--durability", "--maintain", "--data-dir", "/tmp/store"]).unwrap();
        assert!(args.durability);
        assert_eq!(args.data_dir, Some(PathBuf::from("/tmp/store")));
        assert!(parse(&["--durability", "--data-dir", "/tmp/store"])
            .unwrap_err()
            .message
            .contains("--maintain"));
        assert!(parse(&["--durability", "--maintain"])
            .unwrap_err()
            .message
            .contains("--data-dir"));
    }

    #[test]
    fn serve_flags_parse_and_validate() {
        let args = parse(&["--serve"]).unwrap();
        assert!(args.serve);
        assert_eq!(args.port, 4711);
        assert_eq!(args.workers, None);
        let args = parse(&["--serve", "--port", "47113", "--workers", "8"]).unwrap();
        assert_eq!(args.port, 47_113);
        assert_eq!(args.workers, Some(8));
        // Zero and out-of-range values are rejected with typed errors.
        assert!(parse(&["--serve", "--port", "0"])
            .unwrap_err()
            .message
            .contains("1..=65535"));
        assert!(parse(&["--serve", "--port", "70000"])
            .unwrap_err()
            .message
            .contains("1..=65535"));
        assert!(parse(&["--serve", "--workers", "0"])
            .unwrap_err()
            .message
            .contains("at least 1"));
        assert!(parse(&["--serve", "--port", "x"])
            .unwrap_err()
            .message
            .contains("integer"));
        // --port/--workers are serve-only knobs.
        assert!(parse(&["--port", "9000"])
            .unwrap_err()
            .message
            .contains("--serve"));
        assert!(parse(&["--workers", "4"])
            .unwrap_err()
            .message
            .contains("--serve"));
        // --serve is standalone.
        for conflicting in ["--dry-run", "--maintain"] {
            assert!(parse(&["--serve", conflicting])
                .unwrap_err()
                .message
                .contains("standalone"));
        }
        assert!(parse(&["--serve", "--recover", "--data-dir", "/tmp/x"])
            .unwrap_err()
            .message
            .contains("standalone"));
        // --durability accepts --serve as its host mode.
        let args = parse(&["--serve", "--durability", "--data-dir", "/tmp/x"]).unwrap();
        assert!(args.durability && args.serve);
        // --serve composes with the sharding knobs.
        let args = parse(&["--serve", "--shards", "8", "--overlay-capacity", "64"]).unwrap();
        assert_eq!(args.shards, 8);
        assert_eq!(args.overlay_capacity, 64);
    }

    #[test]
    fn recover_is_a_standalone_mode_anchored_to_a_data_dir() {
        let args = parse(&["--recover", "--data-dir", "/tmp/store"]).unwrap();
        assert!(args.recover);
        assert!(parse(&["--recover"])
            .unwrap_err()
            .message
            .contains("--data-dir"));
        assert!(
            parse(&["--recover", "--data-dir", "/tmp/store", "--maintain"])
                .unwrap_err()
                .message
                .contains("standalone")
        );
        assert!(
            parse(&["--recover", "--data-dir", "/tmp/store", "--dry-run"])
                .unwrap_err()
                .message
                .contains("standalone")
        );
    }
}
