//! One run: several passes, each a fresh set-up followed by the four
//! segments in lifecycle order; then (traced) the layer replay; then one
//! value per metric.

use crate::fixture::Fixture;
use crate::inputs::{Inputs, Sizes};
use crate::json::Json;
use crate::names;
use crate::oracle::Oracle;
use crate::replay::layer_replay;
use crate::segments::{ingest_recover, lookup_bare, serve_mixed, serve_read, Run};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// How `--seconds` is divided among the four segments. Every segment runs
/// in every run — the driver wants every metric from every run — but the
/// one the workload names weighs four times as much and is measured for
/// longest. `serve-mixed` always weighs double: its client races a
/// background thread, and its quiet tenth needs about twice the operations
/// of the others to repeat as well as theirs.
const NAMED_WEIGHT: f64 = 4.0;

fn weight(segment: &str, workload: &str) -> f64 {
    let base = if segment == "serve-mixed" { 2.0 } else { 1.0 };
    if segment == workload {
        base * NAMED_WEIGHT
    } else {
        base
    }
}

/// What a finished run reports.
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
}

pub fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    sizes: Sizes,
    out_dir: &Path,
) -> Result<Outcome, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let mut run = Run::new();
    let passes = sizes.passes.max(1);
    let total_weight: f64 = names::WORKLOADS.iter().map(|s| weight(s, workload)).sum();
    let slice = |segment: &str| {
        let share = weight(segment, workload) / total_weight;
        Duration::from_secs_f64(seconds * share / passes as f64)
    };
    eprintln!("{workload}: seed {seed}, {seconds} s measured over {passes} passes");

    for pass in 0..passes {
        let last = pass + 1 == passes;
        // Spans and the per-layer extras are taken on the last pass only.
        if traced && last {
            run.tracer = Some(Tracer::new());
        }
        let mut clock = Instant::now();
        let mut lap = |segment: &str| {
            eprintln!(
                "  pass {pass} {segment:<15} {:>6.2} s",
                clock.elapsed().as_secs_f64()
            );
            clock = Instant::now();
        };

        // Set-up: dataset generation, bulk loads, CSV optimise, store,
        // engine and server start.
        let t = Instant::now();
        let inputs = Inputs::generate(seed, sizes);
        let Fixture { bare, stack } = Fixture::build(&inputs, &out_dir.join("served-store"))?;
        run.sample("setup_s", t.elapsed().as_secs_f64());
        lap("set-up");

        lookup_bare(&mut run, &inputs, &bare, slice("lookup-bare"));
        lap("lookup-bare");
        let mut oracle = Oracle::from_records(&inputs.records);
        serve_read(
            &mut run,
            &inputs,
            &bare,
            &stack,
            &mut oracle,
            slice("serve-read"),
        )?;
        lap("serve-read");
        serve_mixed(&mut run, &inputs, &stack, &mut oracle, slice("serve-mixed"))?;
        lap("serve-mixed");
        let report = stack.teardown();
        run.tally.absorb(oracle.tally);
        // A protocol error or a dead engine is a failure no answer showed.
        run.tally
            .record(report.protocol_errors == 0 && report.engine_healthy);
        run.sample(
            "server.mixed.engine_passes",
            report
                .engine_stats
                .map_or(0.0, |stats| stats.maintain_passes as f64),
        );
        ingest_recover(&mut run, &inputs, out_dir, slice("ingest-recover"))?;
        lap("ingest-recover");

        if traced && last {
            layer_replay(&mut run, &inputs, &bare, out_dir)?;
            lap("layer replay");
        }
    }

    let mut metrics = run.reduce();
    if traced {
        derive(&mut metrics);
        if let Some(tracer) = &run.tracer {
            let header = Json::obj([
                ("workload", Json::str(workload)),
                ("seed", Json::Num(seed as f64)),
                ("seconds", Json::Num(seconds)),
            ]);
            let path = out_dir
                .parent()
                .unwrap_or(out_dir)
                .join(format!("{workload}.trace.json"));
            tracer
                .write(&path, header)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
    }
    // The stores were removed as each segment finished; on success nothing
    // of the run is left behind but the span file.
    let _ = std::fs::remove_dir_all(out_dir);
    Ok(Outcome {
        metrics,
        attempted: run.tally.attempted,
        failed: run.tally.failed,
    })
}

/// Per-layer metrics that are differences of measured ones.
fn derive(metrics: &mut BTreeMap<&'static str, f64>) {
    let get = |metrics: &BTreeMap<&'static str, f64>, name: &str| metrics.get(name).copied();
    // What sharding adds to a point read over the bare index walk.
    if let (Some(view), Some(bare)) = (
        get(metrics, "concurrent.view_get_ns"),
        get(metrics, "index.lipp.get_ns"),
    ) {
        metrics.insert("concurrent.route_overhead_ns", view - bare);
    }
    // What pipelining cannot amortise away: the per-operation time not
    // spent in the codec or under `ReadView::get`.
    if let (Some(ops_s), Some(codec), Some(view)) = (
        get(metrics, "pipelined_get_ops_s"),
        get(metrics, "server.codec.get_roundtrip_ns"),
        get(metrics, "concurrent.view_get_ns"),
    ) {
        metrics.insert(
            "server.wire.pipelined_overhead_ns_per_op",
            (1e9 / ops_s - codec - view).max(0.0),
        );
    }
}
