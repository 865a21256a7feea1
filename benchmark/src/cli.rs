//! The command line: `run` (one workload in this process, or several in
//! child processes) and `compare`.

use crate::inputs::Sizes;
use crate::json::Json;
use crate::lifecycle::Outcome;
use crate::names::Metric;
use crate::{compare, env, lifecycle, names, placement};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

/// Seconds measured when `--seconds` is not given; `BENCHMARK.json`'s
/// `run_seconds` is what the acceptance driver passes.
const DEFAULT_SECONDS: f64 = 14.0;
const SMOKE_SECONDS: f64 = 0.6;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub repeat: usize,
    pub save: Option<PathBuf>,
    pub out: PathBuf,
    pub a: Option<PathBuf>,
    pub b: Option<PathBuf>,
    pub benchmark_json: PathBuf,
}

impl Options {
    pub fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }

    pub fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes::smoke()
        } else {
            Sizes::full()
        }
    }

    /// The workloads `--workload` names.
    pub fn workloads(&self) -> Vec<&str> {
        if self.workload == "all" {
            names::WORKLOADS.to_vec()
        } else {
            vec![self.workload.as_str()]
        }
    }
}

fn parse(args: &[String]) -> Result<(String, Options), String> {
    let mut options = Options {
        workload: "all".into(),
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
        save: None,
        out: PathBuf::from("benchmark/out"),
        a: None,
        b: None,
        benchmark_json: PathBuf::from("BENCHMARK.json"),
    };
    let mut command = "run".to_string();
    let mut i = 0;
    if let Some(first) = args.first().filter(|a| !a.starts_with("--")) {
        command = first.clone();
        i = 1;
    }
    if command != "run" && command != "compare" {
        return Err(format!(
            "unknown command {command:?} (expected run or compare)"
        ));
    }
    while i < args.len() {
        let flag = args[i].as_str();
        let operand = args.get(i + 1).filter(|a| !a.starts_with("--"));
        let value = || {
            operand
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let mut took_operand = true;
        match flag {
            "--workload" => options.workload = value()?,
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(format!("--seconds {seconds} outside (0, 60]"));
                }
                options.seconds = Some(seconds);
            }
            "--repeat" => {
                options.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if options.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--save" => options.save = Some(value()?.into()),
            "--out" => options.out = value()?.into(),
            "--a" => options.a = Some(value()?.into()),
            "--b" => options.b = Some(value()?.into()),
            "--benchmark-json" => options.benchmark_json = value()?.into(),
            // `--trace 0|1` as the driver passes it; a bare `--trace` is on.
            "--trace" => match operand.map(String::as_str) {
                Some("0") => options.trace = false,
                Some("1") => options.trace = true,
                Some(other) => return Err(format!("--trace {other:?} (expected 0 or 1)")),
                None => {
                    options.trace = true;
                    took_operand = false;
                }
            },
            "--smoke" => {
                options.smoke = true;
                took_operand = false;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += if took_operand { 2 } else { 1 };
    }
    if options.workload != "all" && !names::WORKLOADS.contains(&options.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (expected one of {:?} or all)",
            options.workload,
            names::WORKLOADS
        ));
    }
    Ok((command, options))
}

/// Aborts a run that hangs: after three times the expected wall-clock the
/// process reports the workload as failed and exits, so that neither a
/// person nor the driver waits on it forever.
fn arm_guard(options: &Options) {
    let seconds = options.seconds();
    let expected = if options.trace {
        25.0 + 1.5 * seconds
    } else {
        8.0 + 1.3 * seconds
    };
    let limit = Duration::from_secs_f64((3.0 * expected).min(170.0));
    let workload = options.workload.clone();
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!(
            "benchmark: workload {workload} exceeded its wall-clock guard of {:.0} s; reporting it as failed",
            limit.as_secs_f64()
        );
        std::process::exit(3);
    });
}

/// The result object of one run: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_json(run: &Outcome, declared: &[Metric]) -> Result<Json, String> {
    let mut metrics = Vec::with_capacity(declared.len());
    for &(name, unit, _) in declared {
        let value = *run
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was declared but not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        metrics.push((
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        ));
    }
    Ok(Json::obj([
        ("correct", Json::Bool(run.failed == 0)),
        ("attempted", Json::Num(run.attempted as f64)),
        ("failed", Json::Num(run.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]))
}

fn describe(result: &Json) {
    let Some(metrics) = result.get("metrics").and_then(Json::as_obj) else {
        return;
    };
    for (name, metric) in metrics {
        let value = metric
            .get("value")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
        eprintln!("  {name:<46} {value:>16.4} {unit}");
    }
}

/// One workload, in this process.
fn run_single(options: &Options) -> Result<Json, String> {
    arm_guard(options);
    placement::pin_main_thread();
    let out_dir = options
        .out
        .join(format!("{}-{}", options.workload, std::process::id()));
    let run = lifecycle::run_workload(
        &options.workload,
        options.seed,
        options.seconds(),
        options.trace,
        options.sizes(),
        &out_dir,
    )?;
    let declared = if options.trace {
        names::PER_LAYER
    } else {
        names::END_TO_END
    };
    result_json(&run, declared)
}

/// Runs `binary run` for one workload in a child process — a fresh heap per
/// run, as the acceptance driver measures — and returns its result object.
pub fn run_child(binary: &Path, workload: &str, options: &Options) -> Result<Json, String> {
    let mut command = Command::new(binary);
    command
        .arg("run")
        .args(["--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds().to_string()])
        .args(["--trace", if options.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&options.out);
    if options.smoke {
        command.arg("--smoke");
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("starting {}: {e}", binary.display()))?;
    if !output.status.success() {
        return Err(format!(
            "{} {workload}: {}",
            binary.display(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("the run printed no result")?;
    Json::parse(line).map_err(|e| format!("{workload}: unreadable result line: {e}"))
}

/// A result object tagged with what produced it, as saved files hold it.
pub fn tagged(result: Json, workload: &str, options: &Options) -> Json {
    let Json::Obj(mut fields) = result else {
        return result;
    };
    fields.insert("workload".into(), Json::str(workload));
    fields.insert("seed".into(), Json::Num(options.seed as f64));
    fields.insert("seconds".into(), Json::Num(options.seconds()));
    fields.insert("trace".into(), Json::Bool(options.trace));
    fields.insert("smoke".into(), Json::Bool(options.smoke));
    Json::Obj(fields)
}

pub fn save(path: &Path, runs: Vec<Json>, options: &Options) -> Result<(), String> {
    let doc = Json::obj([
        ("env", env::describe(&options.sizes())),
        ("runs", Json::Arr(runs)),
    ]);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn run_command(options: &Options) -> Result<bool, String> {
    let workloads = options.workloads();
    let mut runs = Vec::new();
    let mut all_correct = true;
    if workloads.len() == 1 && options.repeat == 1 {
        let result = run_single(options)?;
        describe(&result);
        println!("{}", result.render());
        all_correct = result.get("correct").and_then(Json::as_bool) == Some(true);
        runs.push(tagged(result, workloads[0], options));
    } else {
        // Several runs: one child process each, in sets (every workload
        // once per set), so that all runs start from a fresh heap.
        let me = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
        for set in 0..options.repeat {
            for &workload in &workloads {
                eprintln!("set {} of {}: {workload}", set + 1, options.repeat);
                match run_child(&me, workload, options) {
                    Ok(result) => {
                        describe(&result);
                        all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
                        let result = tagged(result, workload, options);
                        println!("{}", result.render());
                        runs.push(result);
                    }
                    Err(error) => {
                        eprintln!("benchmark: {error}");
                        all_correct = false;
                    }
                }
            }
        }
    }
    if let Some(path) = &options.save {
        save(path, runs, options)?;
    }
    Ok(all_correct)
}

pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|(command, options)| match command.as_str() {
        "compare" => compare::compare_command(&options),
        _ => run_command(&options),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // Operations failed, or a comparison found a regression.
        Ok(false) => ExitCode::from(1),
        Err(error) => {
            eprintln!("benchmark: {error}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let (command, options) = parse(&args(
            "run --workload serve-read --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(command, "run");
        assert_eq!(options.workload, "serve-read");
        assert_eq!(
            (options.seed, options.seconds(), options.trace),
            (7, 12.0, true)
        );
        let (_, options) = parse(&args("--workload all --trace --smoke")).unwrap();
        assert!(options.trace && options.smoke);
        assert_eq!(options.workloads().len(), 4);
        let (_, options) = parse(&args("--trace 0 --workload lookup-bare")).unwrap();
        assert!(!options.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "run --workload nope",
            "run --seconds 0",
            "run --seconds 61",
            "run --seed",
            "run --trace 2",
            "run --frobnicate",
            "destroy",
            "run --repeat 0",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn a_missing_metric_fails_the_run() {
        use crate::names::Better::Lower;
        let mut run = Outcome {
            metrics: [("setup_s", 1.5)].into_iter().collect(),
            attempted: 10,
            failed: 0,
        };
        assert!(result_json(&run, &[("setup_s", "s", Lower)]).is_ok());
        assert!(result_json(&run, &[("setup_s", "s", Lower), ("lookup_ns", "ns", Lower)]).is_err());
        run.failed = 1;
        let result = result_json(&run, &[("setup_s", "s", Lower)]).unwrap();
        assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(result.get("failed").and_then(Json::as_f64), Some(1.0));
    }
}
