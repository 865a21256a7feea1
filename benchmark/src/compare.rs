//! `compare`: two sets of runs, side A (the parent) and side B (the change),
//! judged per (workload, end-to-end metric) with the bounds of
//! `BENCHMARK.json` and the pairing rule of the choosing-metrics guide §8.
//!
//! Each side is either a benchmark binary, which is then run `--repeat`
//! times per workload in interleaved pairs (alternating which side goes
//! first, so slow drift of the box hits both alike), or a result file a
//! `run --save` wrote earlier.

use crate::cli::{run_child, save, tagged, Options};
use crate::json::Json;
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

pub fn gates(benchmark: &Json) -> Result<Vec<Gate>, String> {
    let declared = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    declared
        .iter()
        .map(|metric| {
            Ok(Gate {
                name: metric
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("an end_to_end metric has no name")?
                    .to_string(),
                higher_is_better: metric.get("better").and_then(Json::as_str) == Some("higher"),
                bound: metric
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("an end_to_end metric has no bound")?,
            })
        })
        .collect()
}

fn median_and_quartiles(values: &[f64]) -> (f64, f64, f64) {
    match values {
        [] => (f64::NAN, f64::NAN, f64::NAN),
        [only] => (*only, *only, *only),
        _ => quartiles(values),
    }
}

/// Pairs needed before a gain may be claimed: three wins out of three happen
/// by chance one time in eight.
pub const MIN_PAIRS_FOR_A_GAIN: usize = 10;

/// The verdict on one metric of one workload; `a[i]` and `b[i]` are a pair.
///
/// * **improved** — there are at least [`MIN_PAIRS_FOR_A_GAIN`] pairs, B
///   wins at least nine tenths of them (ties count for neither side) and
///   the medians differ by more than the spread of A's own runs (the
///   distance between its quartiles);
/// * **regressed** — B's median is worse than A's by more than the bound;
/// * **unresolved** — no regression shows, but A's own spread is wider than
///   the bound, so "unchanged" cannot be told from a regression that size —
///   unless every run of B reads better than every run of A;
/// * **unchanged** — otherwise.
pub fn verdict(gate: &Gate, a: &[f64], b: &[f64]) -> Verdict {
    let pairs = a.len().min(b.len());
    if pairs == 0 {
        return Verdict::Unresolved;
    }
    let better = |x: f64, y: f64| if gate.higher_is_better { x > y } else { x < y };
    let (a_q1, a_median, a_q3) = median_and_quartiles(a);
    let (_, b_median, _) = median_and_quartiles(b);
    let spread = a_q3 - a_q1;
    let wins = (0..pairs).filter(|&i| better(b[i], a[i])).count();
    if pairs >= MIN_PAIRS_FOR_A_GAIN
        && wins as f64 >= 0.9 * pairs as f64
        && better(b_median, a_median)
        && (b_median - a_median).abs() > spread
    {
        return Verdict::Improved;
    }
    let worse_by = if gate.higher_is_better {
        (a_median - b_median) / a_median
    } else {
        (b_median - a_median) / a_median
    };
    if worse_by > gate.bound {
        return Verdict::Regressed;
    }
    let b_always_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if spread / a_median.abs() > gate.bound && !b_always_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// `workload -> metric -> values in run order` of one side.
type Side = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn add_run(side: &mut Side, workload: &str, result: &Json) {
    let Some(metrics) = result.get("metrics").and_then(Json::as_obj) else {
        return;
    };
    let per_workload = side.entry(workload.to_string()).or_default();
    for (name, metric) in metrics {
        if let Some(value) = metric.get("value").and_then(Json::as_f64) {
            per_workload.entry(name.clone()).or_default().push(value);
        }
    }
}

fn load_side(path: &Path) -> Result<Side, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut side = Side::new();
    for run in doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("a result file has no runs")?
    {
        // Traced runs carry per-layer metrics, which have no bounds.
        if run.get("trace").and_then(Json::as_bool) == Some(true) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("a run has no workload")?;
        add_run(&mut side, workload, run);
    }
    Ok(side)
}

fn is_result_file(path: &Path) -> bool {
    path.extension().is_some_and(|e| e == "json")
}

pub fn compare_command(options: &Options) -> Result<bool, String> {
    let (Some(a_path), Some(b_path)) = (&options.a, &options.b) else {
        return Err(
            "compare needs --a and --b (a benchmark binary or a saved result file each)".into(),
        );
    };
    let text = std::fs::read_to_string(&options.benchmark_json)
        .map_err(|e| format!("reading {}: {e}", options.benchmark_json.display()))?;
    let gates = gates(&Json::parse(&text)?)?;

    let (a, b) = match (is_result_file(a_path), is_result_file(b_path)) {
        (true, true) => (load_side(a_path)?, load_side(b_path)?),
        (false, false) => {
            let mut options = options.clone();
            options.trace = false;
            let (mut a, mut b) = (Side::new(), Side::new());
            let (mut a_runs, mut b_runs) = (Vec::new(), Vec::new());
            for pair in 0..options.repeat {
                for workload in options.workloads() {
                    // Alternate which side goes first.
                    let a_first = pair % 2 == 0;
                    for on_a in [a_first, !a_first] {
                        let (binary, side, runs) = if on_a {
                            (a_path, &mut a, &mut a_runs)
                        } else {
                            (b_path, &mut b, &mut b_runs)
                        };
                        eprintln!(
                            "pair {} of {}: {workload} on {}",
                            pair + 1,
                            options.repeat,
                            binary.display()
                        );
                        let result = run_child(binary, workload, &options)?;
                        add_run(side, workload, &result);
                        runs.push(tagged(result, workload, &options));
                    }
                }
            }
            save(&options.out.join("compare-a.json"), a_runs, &options)?;
            save(&options.out.join("compare-b.json"), b_runs, &options)?;
            (a, b)
        }
        _ => return Err("compare needs two binaries or two result files, not one of each".into()),
    };

    println!(
        "{:<15} {:<20} {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12} | {:>7} {:>5}  verdict",
        "workload",
        "metric",
        "A q1",
        "A median",
        "A q3",
        "B q1",
        "B median",
        "B q3",
        "change",
        "pairs"
    );
    let mut regressed = false;
    for (workload, a_metrics) in &a {
        for gate in &gates {
            let (Some(a_values), Some(b_values)) = (
                a_metrics.get(&gate.name),
                b.get(workload).and_then(|m| m.get(&gate.name)),
            ) else {
                continue;
            };
            let (a_q1, a_median, a_q3) = median_and_quartiles(a_values);
            let (b_q1, b_median, b_q3) = median_and_quartiles(b_values);
            let verdict = verdict(gate, a_values, b_values);
            regressed |= verdict == Verdict::Regressed;
            println!(
                "{workload:<15} {:<20} {a_q1:>12.4} {a_median:>12.4} {a_q3:>12.4} | {b_q1:>12.4} {b_median:>12.4} {b_q3:>12.4} | {:>+6.1}% {:>5}  {}",
                gate.name,
                100.0 * (b_median - a_median) / a_median,
                a_values.len().min(b_values.len()),
                match verdict {
                    Verdict::Improved => "improved",
                    Verdict::Unchanged => "unchanged",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Gate {
        Gate {
            name: "lookup_ns".into(),
            higher_is_better: false,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_pairing_rule() {
        let a = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5,
        ];
        // Every pair won, medians 10 apart, A's spread ~1.5: improved.
        let faster: Vec<f64> = a.iter().map(|x| x - 10.0).collect();
        assert_eq!(verdict(&lower(0.10), &a, &faster), Verdict::Improved);
        // Same numbers: unchanged.
        assert_eq!(verdict(&lower(0.10), &a, &a), Verdict::Unchanged);
        // 15 % slower against a 10 % bound: regressed.
        let slower: Vec<f64> = a.iter().map(|x| x * 1.15).collect();
        assert_eq!(verdict(&lower(0.10), &a, &slower), Verdict::Regressed);
        // 5 % slower: within the bound.
        let slightly: Vec<f64> = a.iter().map(|x| x * 1.05).collect();
        assert_eq!(verdict(&lower(0.10), &a, &slightly), Verdict::Unchanged);
        // Wins only 8 of 10 pairs: not improved, whatever the medians.
        let mut mostly = faster.clone();
        mostly[0] = 120.0;
        mostly[1] = 120.0;
        assert_ne!(verdict(&lower(0.10), &a, &mostly), Verdict::Improved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [
            80.0, 120.0, 90.0, 110.0, 85.0, 115.0, 95.0, 105.0, 100.0, 100.0,
        ];
        assert_eq!(verdict(&lower(0.10), &noisy, &noisy), Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        let clearly = [70.0; 10];
        assert_ne!(verdict(&lower(0.10), &noisy, &clearly), Verdict::Unresolved);
        // Direction is respected for higher-is-better metrics.
        let gate = Gate {
            name: "write_ops_s".into(),
            higher_is_better: true,
            bound: 0.10,
        };
        let a = [1000.0, 1010.0, 990.0];
        assert_eq!(
            verdict(&gate, &a, &[800.0, 805.0, 795.0]),
            Verdict::Regressed
        );
        // Three pairs are too few to claim a gain, however clear.
        assert_eq!(
            verdict(&gate, &a, &[1300.0, 1310.0, 1290.0]),
            Verdict::Unchanged
        );
        let a: Vec<f64> = (0..10).map(|i| 1000.0 + f64::from(i)).collect();
        let b: Vec<f64> = a.iter().map(|x| x * 1.3).collect();
        assert_eq!(verdict(&gate, &a, &b), Verdict::Improved);
        assert_eq!(verdict(&gate, &[], &[]), Verdict::Unresolved);
    }

    #[test]
    fn gates_come_from_benchmark_json() {
        let doc = Json::parse(
            r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                               {"name": "write_ops_s", "unit": "ops/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let gates = gates(&doc).unwrap();
        assert_eq!(gates.len(), 2);
        assert!(!gates[0].higher_is_better && gates[1].higher_is_better);
        assert_eq!(gates[0].bound, 0.25);
        assert!(super::gates(&Json::Null).is_err());
    }
}
