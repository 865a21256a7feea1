//! Runs the smoke-sized set — every workload, untraced and traced — through
//! the built binary, and holds the emitted names to `BENCHMARK.json`:
//! no metric declared but not emitted, none emitted but not declared.

use csv_benchmark::json::Json;
use csv_benchmark::names;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

fn declared() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_of(list: &Json) -> BTreeSet<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|item| {
            item.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One smoke run; returns the result object of its last output line.
fn smoke_run(workload: &str, traced: bool, out: &Path) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_csv_benchmark"))
        .args(["run", "--workload", workload, "--seed", "42", "--smoke"])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .output()
        .expect("the benchmark binary starts");
    assert!(
        output.status.success(),
        "{workload} (trace {traced}) exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    Json::parse(stdout.lines().last().expect("a result line")).expect("the result line parses")
}

#[test]
fn emitted_names_equal_declared_names() {
    let declared = declared();
    let workloads = names_of(declared.get("workloads").expect("workloads"));
    assert_eq!(
        workloads,
        names::WORKLOADS
            .iter()
            .map(|w| w.to_string())
            .collect::<BTreeSet<_>>()
    );
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");

    for (traced, key, table) in [
        (false, "end_to_end", names::END_TO_END),
        (true, "per_layer", names::PER_LAYER),
    ] {
        let declared_list = declared.get(key).expect("the metric list");
        let declared_names = names_of(declared_list);
        assert!(
            declared_names.iter().all(|n| well_formed(n)),
            "a {key} name is malformed"
        );
        // Units and directions agree between the code's table and BENCHMARK.json.
        for item in declared_list.as_arr().expect("a list") {
            let name = item.get("name").and_then(Json::as_str).expect("a name");
            let unit = item.get("unit").and_then(Json::as_str).expect("a unit");
            let better = match item
                .get("better")
                .and_then(Json::as_str)
                .expect("a direction")
            {
                "higher" => names::Better::Higher,
                "lower" => names::Better::Lower,
                other => panic!("direction {other:?} of {name}"),
            };
            let in_code = table
                .iter()
                .find(|(n, _, _)| *n == name)
                .map(|&(_, u, b)| (u, b));
            assert_eq!(
                in_code,
                Some((unit, better)),
                "unit and direction of {name}"
            );
        }
        for workload in names::WORKLOADS {
            let result = smoke_run(workload, traced, &out);
            let keys: BTreeSet<&str> = result
                .as_obj()
                .expect("an object")
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(
                keys,
                BTreeSet::from(["attempted", "correct", "failed", "metrics"])
            );
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(
                result.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{workload}"
            );
            assert!(
                result
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .expect("attempted")
                    >= 1.0
            );
            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics");
            let emitted: BTreeSet<String> = metrics.keys().cloned().collect();
            assert_eq!(emitted, declared_names, "{workload} (trace {traced})");
            for (name, metric) in metrics {
                let value = metric.get("value").and_then(Json::as_f64).expect("a value");
                assert!(value.is_finite(), "{name} is not finite");
                if !traced {
                    assert!(value > 0.0, "end-to-end metric {name} must never be 0");
                }
            }
        }
    }

    // The traced serve-read run left a span file whose children cover their
    // parents: residuals are non-negative and nothing is double-counted.
    let text = std::fs::read_to_string(out.join("serve-read.trace.json")).expect("the span file");
    let trace = Json::parse(&text).expect("the span file parses");
    let spans = trace.get("spans").and_then(Json::as_arr).expect("spans");
    assert!(!spans.is_empty());
    let field =
        |span: &Json, key: &str| span.get(key).and_then(Json::as_f64).expect("a span field");
    let mut covered = vec![0.0; spans.len()];
    let mut wire_spans = 0;
    for span in spans {
        let (start, end) = (field(span, "start_ns"), field(span, "end_ns"));
        assert!(end >= start, "a span ends before it starts");
        wire_spans += usize::from(span.get("name").and_then(Json::as_str) == Some("server.wire"));
        if let Some(parent) = span.get("parent").and_then(Json::as_f64) {
            let parent_span = &spans[parent as usize];
            assert!(start >= field(parent_span, "start_ns") && end <= field(parent_span, "end_ns"));
            covered[parent as usize] += end - start;
        }
    }
    assert!(wire_spans > 0, "no server.wire residual was recorded");
    for (span, covered) in spans.iter().zip(covered) {
        if span.get("parent") == Some(&Json::Null) {
            let duration = field(span, "end_ns") - field(span, "start_ns");
            assert!(
                (duration - covered).abs() <= 0.10 * duration,
                "children do not sum to a request span"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&out);
}
