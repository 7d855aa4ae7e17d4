//! `plan-sweep`: the §6.1 cost study. Every one of the 240 points of
//! `iris_bench::sweep_points()` runs `DesignStudy::run` at cut
//! tolerance 1, fanned out with `iris_bench::par_map`. Between those
//! sweeps, the Fig. 12(d) path — EPS planned with no failure tolerance,
//! then priced — sweeps the same points: it skips amplifier and
//! cut-through placement, so a change to those stages should leave it
//! unchanged. The seed sets the order the points are handed out in; the
//! regions are built in set-up.
//!
//! Checks: every EPS/Iris cost ratio equals, bit for bit, the `eps_iris`
//! series of the committed `results/fig12_cost_cdf.json`, every Fig.
//! 12(d) ratio its `resilience_adjusted` series, and the planner's work
//! counters repeat exactly in every sweep of a kind, at 1 and at 2
//! threads, traced or not.

use crate::probe;
use crate::report::Report;
use crate::spans::{aggregate, Local, Tracer};
use crate::stats::{self, median, Rng};
use crate::{Ctx, Size, THREADS};
use iris_bench::{build_region, par_map, sweep_points};
use iris_core::DesignStudy;
use iris_cost::{eps_cost, hybrid_cost, iris_cost, PriceBook};
use iris_fibermap::Region;
use iris_planner::amplifiers::place_amplifiers;
use iris_planner::cutthrough::place_cutthroughs;
use iris_planner::plan::validate_iris;
use iris_planner::residual::{hybrid_aggregate, residual_pairs_per_edge};
use iris_planner::{plan_eps, provision, DesignGoals, IrisPlan};
use iris_telemetry::Snapshot;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Time spent on Fig. 12(d) sweeps per unit of time on study sweeps.
const AUX_PER_STUDY: f64 = 0.5;
/// The stages of `DesignStudy::run`, timed one by one in a traced sweep.
const STAGES: [&str; 8] = [
    "planner.provision",
    "planner.amplifiers",
    "planner.cutthrough",
    "planner.residual",
    "planner.validate",
    "planner.eps",
    "planner.hybrid",
    "cost.price",
];

/// The planner's work in one sweep, read from the telemetry registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Work {
    provision_calls: u64,
    scenarios: u64,
    hose_maxflow: u64,
    hose_memo_hits: u64,
    paircache_hits: u64,
    paircache_invalidations: u64,
}

impl Work {
    fn between(before: &Snapshot, after: &Snapshot) -> Self {
        let c = |name| stats::counter_delta(before, after, name);
        Self {
            provision_calls: stats::HistDelta::between(
                before,
                after,
                "iris_planner_provision_wall_ms",
            )
            .count,
            scenarios: c("iris_planner_scenarios_total"),
            hose_maxflow: c("iris_planner_hose_maxflow_total"),
            hose_memo_hits: c("iris_planner_hose_memo_hits_total"),
            paircache_hits: c("iris_planner_paircache_hits_total"),
            paircache_invalidations: c("iris_planner_paircache_invalidations_total"),
        }
    }
}

/// One pass over every region.
struct Sweep {
    /// Per point: the figure compared with `results/fig12_cost_cdf.json`.
    ratios: Vec<f64>,
    /// Per point: the Iris plan's total cost (study sweeps only).
    iris_totals: Vec<f64>,
    point_ms: Vec<f64>,
    /// Probe units run between points (see [`probe`]).
    unit_ms: Vec<f64>,
    /// Wall time without the probe units' share.
    wall_s: f64,
    work: Work,
}

/// What a sweep runs per point.
#[derive(Clone, Copy)]
enum Pass<'a> {
    /// `DesignStudy::run` at cut tolerance 1.
    Study,
    /// The same study stage by stage, each stage in a span.
    Traced(&'a Tracer),
    /// Fig. 12(d): EPS with no failure tolerance, priced, over the Iris
    /// totals of a study sweep.
    NoResilienceEps(&'a [f64]),
}

/// Throughput, p50 and p95 of a part's points at the probe's reference
/// speed (a sweep's p95 has 12 points above it).
fn figures(point_ms: &[f64], wall_s: f64, unit_ms: &[f64]) -> [f64; 3] {
    let slow = probe::slowdown(unit_ms);
    let mut ms = point_ms.to_vec();
    ms.sort_by(f64::total_cmp);
    [
        ms.len() as f64 / wall_s * slow,
        stats::sorted_quantile(&ms, 0.5) / slow,
        stats::sorted_quantile(&ms, 0.95) / slow,
    ]
}

thread_local! {
    static PACER: std::cell::RefCell<probe::Pacer> = std::cell::RefCell::default();
}

fn sweep(regions: &[Region], pass: Pass<'_>) -> Sweep {
    let goals = DesignGoals::with_cuts(1);
    let before = stats::registry();
    let start = Instant::now();
    let rows = par_map(regions, |i, region| {
        // A probe unit before the point, if one is due on this thread
        // (untraced passes only).
        let unit = match pass {
            Pass::Traced(_) => None,
            _ => PACER.with(|p| p.borrow_mut().tick()),
        };
        let t = Instant::now();
        let (ratio, iris_total) = match pass {
            Pass::Study => {
                let study = DesignStudy::run(region, &goals);
                (study.eps_iris_cost_ratio(), study.iris_cost.total())
            }
            Pass::Traced(tracer) => {
                let mut local = tracer.local(0);
                local.enter("plan.point");
                let out = staged_study(region, &goals, &mut local);
                local.exit();
                out
            }
            Pass::NoResilienceEps(iris_totals) => {
                let eps = plan_eps(region, &DesignGoals::no_resilience());
                let total = eps_cost(&eps, &PriceBook::paper_2020()).total();
                (total / iris_totals[i], f64::NAN)
            }
        };
        (ratio, iris_total, t.elapsed().as_secs_f64() * 1e3, unit)
    });
    let unit_ms: Vec<f64> = rows.iter().filter_map(|r| r.3).collect();
    let lanes = iris_planner::thread_count().clamp(1, regions.len().max(1)) as f64;
    let wall_s = start.elapsed().as_secs_f64() - unit_ms.iter().sum::<f64>() / 1e3 / lanes;
    let after = stats::registry();
    Sweep {
        ratios: rows.iter().map(|r| r.0).collect(),
        iris_totals: rows.iter().map(|r| r.1).collect(),
        point_ms: rows.iter().map(|r| r.2).collect(),
        unit_ms,
        wall_s,
        work: Work::between(&before, &after),
    }
}

/// `DesignStudy::run` stage by stage, each stage in its own span;
/// returns the EPS/Iris cost ratio and the Iris total cost.
fn staged_study(region: &Region, goals: &DesignGoals, l: &mut Local<'_>) -> (f64, f64) {
    let prices = PriceBook::paper_2020();
    let provisioning = l.span("planner.provision", || provision(region, goals));
    let amps = l.span("planner.amplifiers", || place_amplifiers(region, goals));
    let cuts = l.span("planner.cutthrough", || {
        place_cutthroughs(region, goals, &amps)
    });
    let lambda = region.wavelengths_per_fiber;
    let (base_fiber_pairs, residual_fiber_pairs) = l.span("planner.residual", || {
        (
            provisioning.edge_fiber_pairs(lambda),
            residual_pairs_per_edge(region, goals),
        )
    });
    let mut iris = IrisPlan {
        provisioning,
        amps,
        cuts,
        base_fiber_pairs,
        residual_fiber_pairs,
        lambda,
        dc_transceivers: (0..region.dcs.len())
            .map(|i| region.capacity_wavelengths(i))
            .sum(),
        violations: Vec::new(),
    };
    iris.violations = l.span("planner.validate", || validate_iris(region, goals, &iris));
    let eps = l.span("planner.eps", || plan_eps(region, goals));
    let hybrid = l.span("planner.hybrid", || hybrid_aggregate(region, goals));
    let (iris_total, eps_total) = l.span("cost.price", || {
        std::hint::black_box(hybrid_cost(&iris, &hybrid, &prices));
        (
            iris_cost(&iris, &prices).total(),
            eps_cost(&eps, &prices).total(),
        )
    });
    (eps_total / iris_total, iris_total)
}

/// One committed Fig. 12 series, in sweep-point order.
fn fig12_series(repo: &std::path::Path, key: &str, points: usize) -> Result<Vec<f64>, String> {
    let path = repo.join("results/fig12_cost_cdf.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let root: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let ratios: Vec<f64> = root
        .get(key)
        .and_then(serde_json::Value::as_array)
        .ok_or_else(|| format!("fig12_cost_cdf.json has no {key} series"))?
        .iter()
        .filter_map(serde_json::Value::as_f64)
        .collect();
    if ratios.len() != points {
        return Err(format!(
            "fig12_cost_cdf.json has {} {key} ratios for {points} sweep points",
            ratios.len()
        ));
    }
    Ok(ratios)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let points = sweep_points();
    let eps_iris = fig12_series(&ctx.repo, "eps_iris", points.len())?;
    let no_resilience = fig12_series(&ctx.repo, "resilience_adjusted", points.len())?;
    let mut order: Vec<usize> = (0..points.len()).collect();
    Rng::new(ctx.seed).shuffle(&mut order);
    if ctx.size == Size::Tiny {
        order.truncate(12);
    }
    let mut report = Report::default();

    // Set-up: build every region, several times.
    let mut setup_s = Vec::new();
    let mut build_busy_s = Vec::new();
    let mut regions = Vec::new();
    for _ in 0..SETUPS {
        let start = Instant::now();
        let built = par_map(&order, |_, &i| {
            let t = ctx.trace.then(Instant::now);
            let region = build_region(&points[i]);
            (region, t.map_or(0.0, |t| t.elapsed().as_secs_f64()))
        });
        setup_s.push(start.elapsed().as_secs_f64());
        build_busy_s.push(built.iter().map(|b| b.1).sum::<f64>());
        regions = built.into_iter().map(|b| b.0).collect();
    }

    let mut first_work: Vec<(&str, Work)> = Vec::new();
    let mut check = |report: &mut Report, s: &Sweep, kind: &'static str, label: &str| {
        let expected = if kind == "study" {
            &eps_iris
        } else {
            &no_resilience
        };
        let wrong = s
            .ratios
            .iter()
            .zip(&order)
            .filter(|(got, &i)| got.to_bits() != expected[i].to_bits())
            .count();
        report.check(
            &format!("fig12_ratios_bitwise.{label}"),
            wrong == 0,
            format!(
                "{wrong} of {} ratios differ from results/fig12_cost_cdf.json",
                s.ratios.len()
            ),
        );
        let work = match first_work.iter().find(|(k, _)| *k == kind) {
            Some(&(_, w)) => w,
            None => {
                first_work.push((kind, s.work));
                s.work
            }
        };
        report.check(
            &format!("planner_counts_repeat.{label}"),
            s.work == work,
            format!("{:?} vs the first {kind} sweep {:?}", s.work, work),
        );
        report.attempted += s.ratios.len() as u64;
    };

    let tracer = Tracer::new();
    let start = Instant::now();
    // Each study sweep, and each batch of Fig. 12(d) sweeps that follows
    // it, is a part of the run. Only each part's figures are kept, so
    // memory does not grow with the number of sweeps that fit in the
    // window.
    let (mut plain, mut aux) = (Vec::new(), Vec::new());
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let (mut plain_s, mut aux_s, mut aux_sweeps) = (0.0, 0.0, 0);
    let mut iris_totals = Vec::new();
    loop {
        let s = sweep(&regions, Pass::Study);
        check(&mut report, &s, "study", "study");
        plain_s += s.wall_s;
        if iris_totals.is_empty() {
            iris_totals.clone_from(&s.iris_totals);
        }
        plain.push(figures(&s.point_ms, s.wall_s, &s.unit_ms));
        plain_walls.push(s.wall_s);
        if ctx.trace {
            let s = sweep(&regions, Pass::Traced(&tracer));
            check(&mut report, &s, "study", "study_traced");
            traced_walls.push(s.wall_s);
        } else {
            let (mut point_ms, mut unit_ms, mut wall_s) = (Vec::new(), Vec::new(), 0.0);
            while aux_s < plain_s * AUX_PER_STUDY {
                let s = sweep(&regions, Pass::NoResilienceEps(&iris_totals));
                check(&mut report, &s, "eps0", "fig12d");
                aux_s += s.wall_s;
                aux_sweeps += 1;
                wall_s += s.wall_s;
                point_ms.extend_from_slice(&s.point_ms);
                unit_ms.extend_from_slice(&s.unit_ms);
            }
            if !point_ms.is_empty() {
                aux.push(figures(&point_ms, wall_s, &unit_ms));
            }
        }
        if start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    // The cross-thread half of the determinism check, outside the
    // measured window.
    iris_planner::set_default_threads(1);
    let s = sweep(&regions, Pass::Study);
    check(&mut report, &s, "study", "study_1thread");
    iris_planner::set_default_threads(THREADS);

    if !ctx.trace {
        // Each figure is the median over the run's parts, each part at
        // the probe's reference speed.
        let summary = |parts: &[[f64; 3]], sweeps: usize| -> (f64, f64, f64, u64) {
            let of = |i: usize| median(&parts.iter().map(|f| f[i]).collect::<Vec<_>>());
            (of(0), of(1), of(2), (regions.len() * sweeps) as u64)
        };
        let (rate, p50, p95, n) = summary(&plain, plain.len());
        report.set("setup_s", median(&setup_s), SETUPS as u64);
        report.set("ops_per_s", rate, n);
        report.set("op_p50_ms", p50, n);
        report.set("op_tail_ms", p95, n);
        let (rate, p50, p95, n) = summary(&aux, aux_sweeps);
        report.set("aux_ops_per_s", rate, n);
        report.set("aux_op_p50_ms", p50, n);
        report.set("aux_op_tail_ms", p95, n);
        return Ok(report);
    }

    let spans = tracer.take();
    let agg = aggregate(&spans);
    let sweeps = traced_walls.len() as u64;
    let stage_s = |name: &str| agg.get(name).map_or(0.0, |a| a.total_s) / sweeps as f64;
    for stage in STAGES {
        report.set(&format!("{stage}.s"), stage_s(stage), sweeps);
    }
    report.set(
        "fibermap.build_region.s",
        median(&build_busy_s),
        SETUPS as u64,
    );
    let w = first_work[0].1;
    let n = 1;
    report.set("planner.provision.calls", w.provision_calls as f64, n);
    report.set("planner.scenarios", w.scenarios as f64, n);
    report.set("planner.hose_maxflow", w.hose_maxflow as f64, n);
    report.set(
        "planner.hose_memo_hit_ratio",
        w.hose_memo_hits as f64 / (w.hose_memo_hits + w.hose_maxflow).max(1) as f64,
        n,
    );
    report.set(
        "planner.paircache_hit_ratio",
        w.paircache_hits as f64 / (w.paircache_hits + w.paircache_invalidations).max(1) as f64,
        n,
    );
    report.set(
        "planner.paircache_invalidations",
        w.paircache_invalidations as f64,
        n,
    );

    report.set(
        "accounting.trace_overhead",
        median(&traced_walls) / median(&plain_walls) - 1.0,
        sweeps,
    );
    // Blocking path: every worker thread for the whole sweep. Whatever
    // the stage spans do not cover is fan-out overhead and idle tails.
    let lanes = THREADS.min(regions.len()) as f64;
    let staged: f64 = STAGES.iter().map(|s| stage_s(s)).sum::<f64>() * sweeps as f64;
    let capacity: f64 = traced_walls.iter().map(|w| w * lanes).sum();
    report.set(
        "accounting.uncovered_share",
        1.0 - staged / capacity,
        sweeps,
    );

    let out = ctx
        .run_dir
        .join(format!("plan-sweep-seed{}.spans.jsonl", ctx.seed));
    Tracer::write(&spans, &out).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    Ok(report)
}
