//! `iris-perfbench` — the repository's benchmark.
//!
//! ```text
//! iris-perfbench --workload <plan-sweep|fct-3m|serve-rw> --seed <n>
//!                --seconds <s> --trace <0|1> [--size full|tiny]
//! ```
//!
//! One process runs one workload. With `--trace 0` it measures the
//! end-to-end metrics with the benchmark's span recorder off; with
//! `--trace 1` it runs the same work untraced and traced, reports the
//! per-layer metrics from the traced pass, and writes the spans to
//! `.bench_run/`. Every run checks the workload's outputs. Standard
//! output carries one JSON row per check and metric, each with its
//! provenance, and ends with the summary object. See `README.md` and
//! `metrics.json` beside this crate.

mod fct;
mod plan_sweep;
mod probe;
mod report;
mod serve_rw;
mod spans;
mod stats;

use report::{Provenance, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Planner and flow-simulation worker threads, and the number of load
/// generator threads of `serve-rw`.
pub const THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PlanSweep,
    Fct3m,
    ServeRw,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::PlanSweep => "plan-sweep",
            Workload::Fct3m => "fct-3m",
            Workload::ServeRw => "serve-rw",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        [Workload::PlanSweep, Workload::Fct3m, Workload::ServeRw]
            .into_iter()
            .find(|w| w.name() == s)
    }
}

/// Input scale: `full` is the benchmark; `tiny` is the smoke test's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// What a workload needs to run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// The repository root (the checkout the benchmark was built in).
    pub repo: PathBuf,
    /// Scratch directory for WAL files and span dumps.
    pub run_dir: PathBuf,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut size) =
        (None, None, None, false, Size::Full);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad()),
                }
            }
            _ => {
                return Err(format!(
                    "unknown flag {flag} (expected --workload, --seed, --seconds, --trace, --size)"
                ))
            }
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        size,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("iris-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The thread count is part of the benchmark's definition: the
    // environment must not change it, nor shrink the sweep.
    std::env::remove_var("IRIS_THREADS");
    std::env::remove_var("IRIS_QUICK");
    iris_planner::set_default_threads(THREADS);

    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf();
    let run_dir = PathBuf::from(".bench_run");
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("iris-perfbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        size: args.size,
        repo,
        run_dir,
    };
    eprintln!(
        "# {} seed {} for {} s, trace {}, {THREADS} threads",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result: Result<Report, String> = match args.workload {
        Workload::PlanSweep => plan_sweep::run(&ctx),
        Workload::Fct3m => fct::run(&ctx),
        Workload::ServeRw => serve_rw::run(&ctx),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("iris-perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::from(2);
        }
    };
    if !ctx.trace {
        report.set("peak_rss_mb", stats::peak_rss_mb(), 1);
    }
    let ratio = report.failed as f64 / report.attempted.max(1) as f64;
    report.set("accounting.failed_ops_ratio", ratio, report.attempted);
    report.check(
        "no_failed_ops",
        report.failed == 0,
        format!(
            "{} of {} operations failed",
            report.failed, report.attempted
        ),
    );

    let (end_to_end, per_layer) = report::catalogue();
    let specs = if ctx.trace { &per_layer } else { &end_to_end };
    let prov = Provenance::collect(ctx.seed, THREADS, &ctx.repo);
    report.emit(args.workload, specs, &prov);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
