//! The repository's benchmark: four workloads over one service lifecycle,
//! end-to-end metrics with tracing off, per-layer metrics from a traced
//! layer replay. See `benchmark/README.md` and `BENCHMARK.json`.
//!
//! ```text
//! csv_benchmark [run] --workload <name|all> [--seed N] [--seconds S] [--trace [0|1]]
//!                     [--smoke] [--repeat N] [--save FILE] [--out DIR]
//! csv_benchmark compare --a <binary|results.json> --b <binary|results.json>
//!                     [--workload <name|all>] [--seed N] [--seconds S] [--repeat N]
//!                     [--smoke] [--benchmark-json FILE] [--out DIR]
//! ```
//!
//! A single-workload `run` prints, as the last line of standard output, one
//! JSON object with exactly the keys `correct`, `attempted`, `failed` and
//! `metrics`; everything meant for people goes to standard error.

pub mod cli;
pub mod compare;
pub mod env;
pub mod fixture;
pub mod inputs;
pub mod json;
pub mod lifecycle;
pub mod names;
pub mod oracle;
pub mod placement;
pub mod probe;
pub mod replay;
pub mod segments;
pub mod stats;
pub mod trace;
