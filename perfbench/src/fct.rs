//! `fct-3m`: the §6.3 flow-completion-time verdict path at scale.
//!
//! The `iris simd` topology — `simple_region(3, 12)` provisioned at
//! k = 0 — runs at 90 % utilization for 20 simulated seconds with
//! pFabric web-search flow sizes and the Iris fabric reconfiguring
//! every second. Set-up scales capacity so that about 3×10⁶ flows are
//! admitted; each repetition calls `iris_flowsim::estimate` (trace
//! generation included) and replays a trace of about 3×10⁵ flows on the
//! same topology through the exact engine, the accuracy reference.
//!
//! The traffic matrix is `iris simd`'s default (seed 42); `--seed` draws
//! the arrivals, flow sizes and matrix changes.
//!
//! Checks: the estimate's record digest and the exact replay's repeat in
//! every repetition and at 1 thread; the stage-by-stage pipeline of a
//! traced run rebuilds `estimate`'s records exactly; and the accuracy
//! EXPERIMENTS.md claims — `iris simd`'s validation cell, decomposed
//! against exact — is reproduced bit for bit from the ratios committed
//! in `results/flowsim_scale.json`. The decomposed/exact p50 and p99 FCT
//! ratios at this workload's own operating point are reported.

use crate::probe::{self, Sampler};
use crate::report::Report;
use crate::spans::{aggregate, Tracer};
use crate::stats::{self, median, records_digest};
use crate::{Ctx, Size, THREADS};
use iris_flowsim::cluster::estimate_member;
use iris_flowsim::{
    cluster_links, combine, estimate, estimate_with_trace, Decomposition, EstimateConfig,
    SlowdownTable, WorkSpec,
};
use iris_planner::{provision, DesignGoals};
use iris_simnet::engine::FabricModel;
use iris_simnet::experiment::fct_quantile;
use iris_simnet::traffic::ChangeModel;
use iris_simnet::TrafficMatrix;
use iris_simnet::{FlowRecord, FlowSizeDist, FlowTrace, SimConfig, SimTopology, Simulator};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const SETUPS: usize = 9;
const DURATION_S: f64 = 20.0;
/// `iris simd`'s default seed, which draws its traffic matrix.
const MATRIX_SEED: u64 = 42;

/// The `iris simd` recipe: `simple_region(3, n)` provisioned at k = 0,
/// with the largest link at 2 Gbps as the base capacity scale.
struct Recipe {
    topo_at: Box<dyn Fn(f64) -> SimTopology>,
    base_scale: f64,
}

impl Recipe {
    fn new(n_dcs: usize) -> Self {
        let region = iris_bench::simple_region(3, n_dcs);
        let goals = DesignGoals::with_cuts(0);
        let prov = provision(&region, &goals);
        let raw = SimTopology::from_provisioning(&region, &goals, &prov, 1.0);
        let max_cap = raw
            .links
            .iter()
            .map(|l| l.capacity_gbps)
            .fold(0.0, f64::max);
        Self {
            topo_at: Box::new(move |scale| {
                SimTopology::from_provisioning(&region, &goals, &prov, scale)
            }),
            base_scale: 2.0 / max_cap,
        }
    }

    /// The spec at `scale` times the base capacity: pFabric web-search
    /// flows, Iris reconfiguring every second under bounded changes.
    fn spec(&self, scale: f64, utilization: f64, seed: u64) -> WorkSpec {
        let topo = (self.topo_at)(self.base_scale * scale);
        WorkSpec {
            matrix: TrafficMatrix::heavy_tailed(topo.n_dcs, MATRIX_SEED),
            topo,
            config: SimConfig {
                duration_s: DURATION_S,
                utilization,
                flow_sizes: FlowSizeDist::pfabric_web_search(),
                change_interval_s: Some(1.0),
                change_model: ChangeModel::Bounded(0.5),
                fabric: FabricModel::Iris { outage_s: 0.07 },
                capacity_events: Vec::new(),
                seed,
            },
        }
    }
}

/// The measured spec and the exact engine's reference input.
struct Setup {
    spec: WorkSpec,
    reference: WorkSpec,
    reference_trace: FlowTrace,
}

fn setup(seed: u64, size: Size) -> Result<Setup, String> {
    let (flows, reference_flows) = match size {
        Size::Full => (3.0e6, 3.0e5),
        Size::Tiny => (3.0e4, 3.0e3),
    };
    let recipe = Recipe::new(12);
    // Probe the admitted-flow rate at base scale; the Poisson rate is
    // linear in capacity, so one division gives the scale for a target.
    let probe = recipe.spec(1.0, 0.9, seed);
    let rate = Simulator::new(
        probe.topo.clone(),
        probe.matrix.clone(),
        probe.config.clone(),
    )
    .arrival_rate();
    let probe_trace = probe.trace();
    let offered = probe_trace.arrivals.len() as f64;
    let admitted = probe_trace.flow_count() as f64;
    if admitted == 0.0 {
        return Err("the scale probe admitted no flows".to_owned());
    }
    let admitted_rate = rate * admitted / offered;
    let scale_for = |target: f64| target / (admitted_rate * DURATION_S);
    let reference = recipe.spec(scale_for(reference_flows), 0.9, seed);
    Ok(Setup {
        spec: recipe.spec(scale_for(flows), 0.9, seed),
        reference_trace: reference.trace(),
        reference,
    })
}

/// Decomposed over exact FCT at quantile `q` (NaN without flows).
fn fct_ratio(decomposed: &[FlowRecord], exact: &[FlowRecord], q: f64) -> f64 {
    match (
        fct_quantile(decomposed, q, false),
        fct_quantile(exact, q, false),
    ) {
        (Some(d), Some(e)) if e > 0.0 => d / e,
        _ => f64::NAN,
    }
}

/// EXPERIMENTS.md's accuracy claim, reproduced: `iris simd`'s
/// validation cell (8 DCs, 40 % utilization, base scale, seed 42)
/// through both engines must give exactly the flow counts and
/// decomposed/exact ratios committed in `results/flowsim_scale.json`.
fn check_accuracy_claim(
    repo: &std::path::Path,
    cfg: &EstimateConfig,
    report: &mut Report,
) -> Result<(), String> {
    let path = repo.join("results/flowsim_scale.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let root: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let committed = |key: &str| {
        root.get("validation")
            .and_then(|v| v.get(key))
            .and_then(serde_json::Value::as_f64)
            .ok_or_else(|| format!("{} has no validation.{key}", path.display()))
    };
    let spec = Recipe::new(8).spec(1.0, 0.4, MATRIX_SEED);
    let trace = spec.trace();
    let exact = trace.replay(&spec.topo);
    report.attempted += 2;
    let est = estimate_with_trace(&spec, &trace, cfg).map_err(|e| e.to_string())?;
    let got = [
        exact.len() as f64,
        est.records.len() as f64,
        fct_ratio(&est.records, &exact, 0.5),
        fct_ratio(&est.records, &exact, 0.99),
    ];
    let want = [
        committed("flows_exact")?,
        committed("flows_estimated")?,
        committed("p50_ratio")?,
        committed("p99_ratio")?,
    ];
    report.check(
        "accuracy_claim_reproduced",
        got.iter()
            .zip(&want)
            .all(|(g, w)| g.to_bits() == w.to_bits()),
        format!("flows exact/estimated, p50 and p99 ratios: {got:?}, committed {want:?}"),
    );
    Ok(())
}

/// What the stage-by-stage pipeline produced.
struct Staged {
    digest: u64,
    flows: usize,
    occupied: usize,
    simulated: usize,
    estimated: usize,
    wall_s: f64,
    /// Stage spans on the blocking path: the sequential stages plus the
    /// busiest link-simulation thread.
    blocking_s: f64,
}

/// `estimate` one public call at a time, each in its own span.
fn staged_estimate(spec: &WorkSpec, cfg: &EstimateConfig, tracer: &Tracer) -> Staged {
    let start = Instant::now();
    let mut l = tracer.local(0);
    l.enter("fct.estimate");
    let trace = l.span("simnet.trace_gen", || spec.trace());
    let (dec, occupied) = l.span("flowsim.decompose", || {
        let dec = Decomposition::build(&spec.topo, &trace);
        let occupied = dec.occupied_links();
        (dec, occupied)
    });
    let clusters = l.span("flowsim.cluster", || {
        cluster_links(&spec.topo, &dec, &occupied, cfg.epsilon)
    });
    let reps: Vec<usize> = clusters.iter().map(|c| c.rep).collect();

    // The representatives on a pool of THREADS workers, as the
    // in-process backend runs them; the slowest lane sets the time.
    let parallel = l.enter("flowsim.link_sim.parallel");
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Vec<f64>>>> = reps.iter().map(|_| Mutex::new(None)).collect();
    let lanes = THREADS.clamp(1, reps.len().max(1));
    let lane_busy: Vec<f64> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..lanes)
            .map(|_| {
                s.spawn(|| {
                    let mut local = tracer.local(parallel);
                    let mut busy = 0.0;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&link) = reps.get(i) else { break };
                        let t = Instant::now();
                        let finishes =
                            local.span("flowsim.link_sim", || dec.simulate(&spec.topo, link));
                        busy += t.elapsed().as_secs_f64();
                        *slots[i].lock().expect("slot lock") = Some(finishes);
                    }
                    busy
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("link simulation thread"))
            .collect()
    });
    l.exit();
    let finishes: Vec<Vec<f64>> = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot lock")
                .expect("every link simulated")
        })
        .collect();

    let (results, estimated) = l.span("flowsim.member_estimate", || {
        let mut results = Vec::new();
        let mut estimated = 0;
        for (cluster, finishes) in clusters.iter().zip(finishes) {
            if !cluster.members.is_empty() {
                let table = SlowdownTable::build(&spec.topo, &dec, cluster.rep, &finishes);
                for &m in &cluster.members {
                    results.push((m, estimate_member(&spec.topo, &dec, m, &table)));
                    estimated += 1;
                }
            }
            results.push((cluster.rep, finishes));
        }
        (results, estimated)
    });
    let records = l.span("flowsim.combine", || combine(&spec.topo, &dec, results));
    l.exit();
    let wall_s = start.elapsed().as_secs_f64();
    let sequential: f64 = [
        "simnet.trace_gen",
        "flowsim.decompose",
        "flowsim.cluster",
        "flowsim.member_estimate",
        "flowsim.combine",
    ]
    .iter()
    .map(|name| l.secs_of(name))
    .sum();
    let digest = records_digest(&records);
    drop(records);
    Staged {
        digest,
        flows: dec.flows.len(),
        occupied: occupied.len(),
        simulated: reps.len(),
        estimated,
        wall_s,
        blocking_s: sequential + lane_busy.iter().copied().fold(0.0, f64::max),
    }
}

/// One repetition's outcome.
struct Rep {
    estimate_s: f64,
    /// Probe slowdowns during `estimate` and the replay (see [`probe`]).
    estimate_slowdown: f64,
    replay_slowdown: f64,
    flows: usize,
    occupied: usize,
    simulated: usize,
    digest: u64,
    replay_s: f64,
    replay_digest: u64,
}

/// One untraced repetition: `estimate`, then the exact replay, whose
/// records it also returns. `sampler` gives the machine's speed during
/// each.
fn plain_rep(
    s: &Setup,
    cfg: &EstimateConfig,
    sampler: Option<&Sampler>,
    report: &mut Report,
) -> Option<(Rep, Vec<FlowRecord>)> {
    let slowdown = |from: Instant, to: Instant| {
        sampler.map_or(1.0, |sampler| probe::slowdown(&sampler.take(from, to)))
    };
    report.attempted += 1;
    let start = Instant::now();
    let est = match estimate(&s.spec, cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("estimate failed: {e}");
            report.failed += 1;
            return None;
        }
    };
    let estimate_s = start.elapsed().as_secs_f64();
    let estimate_slowdown = slowdown(start, Instant::now());
    let digest = records_digest(&est.records);
    drop(est.records);
    report.attempted += 1;
    let start = Instant::now();
    let exact = s.reference_trace.replay(&s.reference.topo);
    let replay_s = start.elapsed().as_secs_f64();
    let replay_slowdown = slowdown(start, Instant::now());
    let rep = Rep {
        estimate_s,
        estimate_slowdown,
        replay_slowdown,
        flows: est.flows,
        occupied: est.links_occupied,
        simulated: est.links_simulated,
        digest,
        replay_s,
        replay_digest: records_digest(&exact),
    };
    Some((rep, exact))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let cfg = EstimateConfig::default();
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut s = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        s = Some(setup(ctx.seed, ctx.size)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let s = s.expect("at least one set-up");

    let tracer = Tracer::new();
    // The timed repetitions run with the probe's sampler; a traced run
    // compares traced with untraced work and keeps it out.
    let sampler = (!ctx.trace).then(Sampler::start);
    let mut exact: Vec<FlowRecord> = Vec::new();
    let mut plain: Vec<Rep> = Vec::new();
    let mut staged: Vec<Staged> = Vec::new();
    let mut estimated_links = Vec::new();
    let start = Instant::now();
    loop {
        let before = stats::registry();
        if let Some((rep, records)) = plain_rep(&s, &cfg, sampler.as_ref(), &mut report) {
            eprintln!(
                "# estimate {:.3} s, exact replay {:.3} s; probe slowdown {:.3}, {:.3}",
                rep.estimate_s, rep.replay_s, rep.estimate_slowdown, rep.replay_slowdown
            );
            plain.push(rep);
            exact = records;
        }
        estimated_links.push(stats::counter_delta(
            &before,
            &stats::registry(),
            "iris_flowsim_links_estimated_total",
        ));
        if ctx.trace {
            report.attempted += 2;
            let st = staged_estimate(&s.spec, &cfg, &tracer);
            eprintln!("# staged estimate {:.3} s", st.wall_s);
            staged.push(st);
            let mut l = tracer.local(0);
            let replayed = l.span("simnet.exact_replay", || {
                s.reference_trace.replay(&s.reference.topo)
            });
            report.check(
                "exact_replay_traced_repeats",
                records_digest(&replayed) == records_digest(&exact),
                "digest of the traced exact replay against the untraced one",
            );
        }
        if start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    drop(sampler);
    let first = plain.first().ok_or("no estimate completed")?;

    // Determinism: every repetition, and one more at 1 thread.
    iris_planner::set_default_threads(1);
    report.attempted += 1;
    let single = estimate(&s.spec, &cfg).map_err(|e| e.to_string())?;
    iris_planner::set_default_threads(THREADS);
    report.check(
        "estimate_digest_repeats",
        plain.iter().all(|r| r.digest == first.digest),
        format!("{} repetitions", plain.len()),
    );
    report.check(
        "estimate_digest_1_vs_2_threads",
        records_digest(&single.records) == first.digest
            && single.links_simulated == first.simulated,
        "record digest and links simulated of a 1-thread estimate against the 2-thread ones",
    );
    drop(single);
    report.check(
        "exact_replay_digest_repeats",
        plain.iter().all(|r| r.replay_digest == first.replay_digest),
        format!("{} repetitions", plain.len()),
    );
    report.check(
        "links_estimated_repeat",
        estimated_links.iter().all(|&n| n == estimated_links[0]),
        format!("{estimated_links:?}"),
    );

    check_accuracy_claim(&ctx.repo, &cfg, &mut report)?;
    // The same comparison at this workload's operating point: reported.
    report.attempted += 1;
    let vest =
        estimate_with_trace(&s.reference, &s.reference_trace, &cfg).map_err(|e| e.to_string())?;
    let (p50_ratio, p99_ratio) = (
        fct_ratio(&vest.records, &exact, 0.5),
        fct_ratio(&vest.records, &exact, 0.99),
    );
    eprintln!("# decomposed/exact FCT at 90 % utilization: p50 {p50_ratio:.4}, p99 {p99_ratio:.4}");
    drop(vest);

    if !ctx.trace {
        // Each repetition at the probe's reference speed.
        let est_ms: Vec<f64> = plain
            .iter()
            .map(|r| r.estimate_s * 1e3 / r.estimate_slowdown)
            .collect();
        let replay_ms: Vec<f64> = plain
            .iter()
            .map(|r| r.replay_s * 1e3 / r.replay_slowdown)
            .collect();
        let n = plain.len() as u64;
        let replayed = s.reference_trace.flow_count() as f64;
        report.set("setup_s", median(&setup_s), SETUPS as u64);
        report.set("ops_per_s", first.flows as f64 / median(&est_ms) * 1e3, n);
        report.set("op_p50_ms", median(&est_ms), n);
        report.set("op_tail_ms", stats::quantile(&est_ms, 1.0), n);
        report.set("aux_ops_per_s", replayed / median(&replay_ms) * 1e3, n);
        report.set("aux_op_p50_ms", median(&replay_ms), n);
        report.set("aux_op_tail_ms", stats::quantile(&replay_ms, 1.0), n);
        return Ok(report);
    }

    for st in &staged {
        report.check(
            "staged_records_equal_estimate",
            st.digest == first.digest,
            "digest of the records assembled stage by stage against estimate's",
        );
        report.check(
            "staged_counts_equal_estimate",
            st.flows == first.flows
                && st.occupied == first.occupied
                && st.simulated == first.simulated
                && st.estimated as u64 == estimated_links[0],
            format!(
                "staged {}/{}/{}/{} vs estimate {}/{}/{}/{}",
                st.flows,
                st.occupied,
                st.simulated,
                st.estimated,
                first.flows,
                first.occupied,
                first.simulated,
                estimated_links[0]
            ),
        );
    }
    let spans = tracer.take();
    let agg = aggregate(&spans);
    let passes = staged.len() as u64;
    let per_pass = |name: &str| agg.get(name).map_or(0.0, |a| a.total_s) / passes as f64;
    for stage in [
        "simnet.trace_gen",
        "flowsim.decompose",
        "flowsim.cluster",
        "flowsim.link_sim",
        "flowsim.member_estimate",
        "flowsim.combine",
        "simnet.exact_replay",
    ] {
        report.set(&format!("{stage}.s"), per_pass(stage), passes);
    }
    report.set(
        "flowsim.link_sim.max_s",
        agg.get("flowsim.link_sim").map_or(0.0, |a| a.max_s),
        agg.get("flowsim.link_sim").map_or(0, |a| a.count),
    );
    let st = &staged[0];
    report.set("flowsim.flows", st.flows as f64, 1);
    report.set("flowsim.links_occupied", st.occupied as f64, 1);
    report.set("flowsim.links_simulated", st.simulated as f64, 1);
    report.set("flowsim.links_estimated", st.estimated as f64, 1);
    report.set(
        "flowsim.simulated_ratio",
        st.simulated as f64 / st.occupied.max(1) as f64,
        1,
    );
    report.set("flowsim.accuracy.p50_ratio", p50_ratio, exact.len() as u64);
    report.set("flowsim.accuracy.p99_ratio", p99_ratio, exact.len() as u64);
    report.set(
        "simnet.exact_replay.flows",
        s.reference_trace.flow_count() as f64,
        1,
    );
    let traced_s: Vec<f64> = staged.iter().map(|st| st.wall_s).collect();
    let plain_s: Vec<f64> = plain.iter().map(|r| r.estimate_s).collect();
    report.set(
        "accounting.trace_overhead",
        median(&traced_s) / median(&plain_s) - 1.0,
        passes,
    );
    let covered: f64 = staged.iter().map(|st| st.blocking_s).sum();
    report.set(
        "accounting.uncovered_share",
        1.0 - covered / traced_s.iter().sum::<f64>(),
        passes,
    );
    let out = ctx
        .run_dir
        .join(format!("fct-3m-seed{}.spans.jsonl", ctx.seed));
    Tracer::write(&spans, &out).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    Ok(report)
}
