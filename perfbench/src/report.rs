//! Metric catalogue, provenance, and the output of one run.
//!
//! Every number the benchmark prints is a row naming its workload,
//! metric, unit, sample count and the machine, toolchain and code that
//! produced it. The last line of standard output is the summary object
//! the benchmark contract asks for: `correct`, `attempted`, `failed`
//! and `metrics`.

use crate::Workload;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// The catalogue of every metric (`perfbench/metrics.json`).
pub const CATALOGUE: &str = include_str!("../metrics.json");

/// One catalogue entry.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// The workload a per-layer metric belongs to (`all` for every
    /// workload); `None` for end-to-end metrics, which every workload
    /// reports.
    pub workload: Option<String>,
    /// The workload-specific name of an end-to-end metric.
    pub alias: BTreeMap<String, String>,
    pub deterministic: bool,
}

impl MetricSpec {
    /// Whether a run of `w` measures this metric (the rest read 0: the
    /// layer does no work in that workload).
    pub fn applies_to(&self, w: Workload) -> bool {
        self.workload
            .as_deref()
            .is_none_or(|name| name == "all" || name == w.name())
    }
}

/// Parse the catalogue: `(end_to_end, per_layer)`.
///
/// # Panics
///
/// Panics if the embedded catalogue is malformed (a build-time input).
pub fn catalogue() -> (Vec<MetricSpec>, Vec<MetricSpec>) {
    let root: Value = serde_json::from_str(CATALOGUE).expect("metrics.json parses");
    let list = |key: &str| -> Vec<MetricSpec> {
        root.get(key)
            .and_then(Value::as_array)
            .expect("metrics.json lists metrics")
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_owned);
                MetricSpec {
                    name: text("name").expect("metric name"),
                    unit: text("unit").expect("metric unit"),
                    workload: text("workload"),
                    alias: m
                        .get("as")
                        .and_then(Value::as_object)
                        .map(|pairs| {
                            pairs
                                .iter()
                                .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_owned())))
                                .collect()
                        })
                        .unwrap_or_default(),
                    deterministic: m
                        .get("deterministic")
                        .and_then(Value::as_bool)
                        .unwrap_or(false),
                }
            })
            .collect()
    };
    (list("end_to_end"), list("per_layer"))
}

/// Where, on what and from which code a number was measured.
#[derive(Debug, Clone)]
pub struct Provenance {
    fields: Vec<(&'static str, Value)>,
}

impl Provenance {
    pub fn collect(seed: u64, threads: usize, repo: &Path) -> Self {
        let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned());
        let rustc = command_output("rustc", &["--version"], repo);
        let commit = command_output("git", &["rev-parse", "HEAD"], repo);
        let dirty = if commit == "unknown" {
            Value::Null
        } else {
            Value::Bool(!command_output("git", &["status", "--porcelain"], repo).is_empty())
        };
        Self {
            fields: vec![
                ("nproc", Value::from(nproc as u64)),
                ("cpu", Value::from(cpu)),
                ("kernel", Value::from(kernel)),
                ("rustc", Value::from(rustc)),
                ("commit", Value::from(commit)),
                ("dirty", dirty),
                ("source_digest", Value::from(source_digest(repo))),
                (
                    "command",
                    Value::from(std::env::args().collect::<Vec<_>>().join(" ")),
                ),
                ("seed", Value::from(seed)),
                ("threads", Value::from(threads as u64)),
            ],
        }
    }

    fn to_value(&self) -> Value {
        Value::Object(
            self.fields
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
        )
    }
}

/// Trimmed standard output of a short command run in `dir`, or
/// `unknown`. Git is kept from searching above `dir`, so a checkout
/// that is not a repository reads as `unknown`.
fn command_output(program: &str, args: &[&str], dir: &Path) -> String {
    let ceiling = dir
        .canonicalize()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// FNV-1a over the workspace sources (paths and contents): identifies
/// the code under test even where no git metadata exists.
fn source_digest(repo: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml" | "lock" | "json")
            ) {
                out.push(path);
            }
        }
    }
    let mut files = vec![repo.join("Cargo.toml"), repo.join("Cargo.lock")];
    for sub in ["crates", "vendor", "perfbench/src"] {
        walk(&repo.join(sub), &mut files);
    }
    files.sort();
    let mut d = crate::stats::Digest::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            d.bytes(
                f.strip_prefix(repo)
                    .unwrap_or(f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            d.bytes(&bytes);
        }
    }
    format!("{:016x}", d.finish())
}

/// One output check and whether it held.
#[derive(Debug, Clone)]
struct Check {
    name: String,
    ok: bool,
    detail: String,
    times: u64,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, (f64, u64)>,
    checks: Vec<Check>,
    /// Operations attempted and failed (error or Overloaded replies,
    /// transport errors, `Err` returns).
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Record `name = value`, measured over `samples` samples.
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        self.values.insert(name.to_owned(), (value, samples));
    }

    /// Record an output check. Repeats of one check fold into a single
    /// row that holds only if every repeat held, and keeps the first
    /// failure's detail.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        let detail = detail.into();
        if !ok {
            eprintln!("check failed: {name}: {detail}");
        }
        match self.checks.iter_mut().find(|c| c.name == name) {
            Some(c) => {
                c.times += 1;
                if c.ok && !ok {
                    c.ok = false;
                    c.detail = detail;
                }
            }
            None => self.checks.push(Check {
                name: name.to_owned(),
                ok,
                detail,
                times: 1,
            }),
        }
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Print one row per check and per metric of `specs`, then the
    /// summary line.
    ///
    /// # Panics
    ///
    /// Panics if a metric the workload measures was not recorded (a bug
    /// in the benchmark, caught by its smoke test).
    pub fn emit(&self, workload: Workload, specs: &[MetricSpec], prov: &Provenance) {
        let provenance = prov.to_value();
        let row = |fields: Vec<(&str, Value)>| {
            let mut all: Vec<(String, Value)> =
                vec![("workload".to_owned(), workload.name().into())];
            all.extend(fields.into_iter().map(|(k, v)| (k.to_owned(), v)));
            all.push(("provenance".to_owned(), provenance.clone()));
            println!(
                "{}",
                serde_json::to_string(&Value::Object(all)).expect("row serializes")
            );
        };
        for c in &self.checks {
            row(vec![
                ("row", "check".into()),
                ("name", c.name.clone().into()),
                ("ok", c.ok.into()),
                ("times", c.times.into()),
                ("detail", c.detail.clone().into()),
            ]);
        }
        let mut metrics = Vec::new();
        for spec in specs {
            let (value, samples) = if spec.applies_to(workload) {
                *self
                    .values
                    .get(&spec.name)
                    .unwrap_or_else(|| panic!("{} did not record {}", workload.name(), spec.name))
            } else {
                (0.0, 0)
            };
            let layer = if spec.workload.is_some() {
                spec.name.split('.').next().unwrap_or("").to_owned()
            } else {
                "end_to_end".to_owned()
            };
            let alias = spec
                .alias
                .get(workload.name())
                .map_or(Value::Null, |a| a.clone().into());
            row(vec![
                ("row", "metric".into()),
                ("layer", layer.into()),
                ("name", spec.name.clone().into()),
                ("as", alias),
                ("unit", spec.unit.clone().into()),
                ("value", value.into()),
                ("samples", samples.into()),
                ("deterministic", spec.deterministic.into()),
            ]);
            metrics.push((
                spec.name.clone(),
                Value::Object(vec![
                    ("value".to_owned(), value.into()),
                    ("unit".to_owned(), spec.unit.clone().into()),
                ]),
            ));
        }
        let summary = Value::Object(vec![
            ("correct".to_owned(), self.correct().into()),
            ("attempted".to_owned(), self.attempted.max(1).into()),
            ("failed".to_owned(), self.failed.into()),
            ("metrics".to_owned(), Value::Object(metrics)),
        ]);
        println!(
            "{}",
            serde_json::to_string(&summary).expect("summary serializes")
        );
    }
}
