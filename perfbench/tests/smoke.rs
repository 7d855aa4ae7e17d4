//! Tiny-size smoke runs of every workload, untraced and traced: every
//! metric `BENCHMARK.json` declares is emitted with its unit, every
//! output check passes, and the counts `metrics.json` marks exact repeat
//! across two runs with one seed.

use serde_json::Value;
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["plan-sweep", "fct-3m", "serve-rw"];

fn manifest(name: &str) -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    let text = std::fs::read_to_string(&path).expect("manifest readable");
    serde_json::from_str(&text).expect("manifest parses")
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key).and_then(Value::as_array).expect("metric list")
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).expect("string field")
}

/// The summary line of one tiny run. Tests that run at once use
/// distinct seeds, so their span files differ.
fn run(workload: &str, seed: u64, trace: u8) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_iris-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", &trace.to_string(), "--size", "tiny"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a summary line");
    serde_json::from_str(last).expect("summary parses")
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let bench = manifest("../BENCHMARK.json");
    let catalogue = manifest("metrics.json");
    for (key, trace) in [("end_to_end", 0u8), ("per_layer", 1)] {
        let declared = list(&bench, key);
        let catalogued = list(&catalogue, key);
        assert_eq!(declared.len(), catalogued.len(), "{key} lists differ");
        for (d, c) in declared.iter().zip(catalogued) {
            for field in ["name", "unit", "better"] {
                assert_eq!(d.get(field), c.get(field), "{key} {field}");
            }
        }
        for workload in WORKLOADS {
            let summary = run(workload, 3, trace);
            assert_eq!(summary.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(summary.get("failed").and_then(Value::as_u64), Some(0));
            let metrics = summary
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics");
            assert_eq!(metrics.len(), declared.len(), "{workload} {key}");
            for d in declared {
                let name = text(d, "name");
                let m = summary
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .unwrap_or_else(|| panic!("{workload} did not emit {name}"));
                assert_eq!(m.get("unit"), d.get("unit"), "{workload} {name}");
                assert!(
                    m.get("value").and_then(Value::as_f64).is_some(),
                    "{workload} {name} has no numeric value"
                );
            }
        }
    }
}

#[test]
fn exact_counts_repeat_across_runs() {
    let catalogue = manifest("metrics.json");
    for workload in WORKLOADS {
        let (a, b) = (run(workload, 4, 1), run(workload, 4, 1));
        for m in list(&catalogue, "per_layer") {
            if m.get("deterministic").and_then(Value::as_bool) != Some(true) {
                continue;
            }
            let name = text(m, "name");
            let value = |s: &Value| s.get("metrics").and_then(|x| x.get(name)).cloned();
            assert_eq!(value(&a), value(&b), "{workload} {name}");
        }
    }
}
