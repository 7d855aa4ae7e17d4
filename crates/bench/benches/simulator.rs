//! Criterion benches for the flow-level simulator engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iris_simnet::engine::{FabricModel, SimConfig, Simulator};
use iris_simnet::traffic::ChangeModel;
use iris_simnet::workloads::{FlowSizeDist, SizeSampler};
use iris_simnet::{SimTopology, TrafficMatrix};
use std::hint::black_box;

fn config(duration_s: f64, utilization: f64, fabric: FabricModel) -> SimConfig {
    SimConfig {
        duration_s,
        utilization,
        flow_sizes: FlowSizeDist::pfabric_web_search(),
        change_interval_s: Some(2.0),
        change_model: ChangeModel::Bounded(0.5),
        fabric,
        capacity_events: Vec::new(),
        seed: 11,
    }
}

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("fluid_simulation_10s");
    for util in [0.4f64, 0.7] {
        for (name, fabric) in [
            ("eps", FabricModel::Eps),
            ("iris", FabricModel::Iris { outage_s: 0.07 }),
        ] {
            group.bench_with_input(
                BenchmarkId::new(name, format!("util{util}")),
                &util,
                |b, &util| {
                    b.iter(|| {
                        let topo = SimTopology::hub_and_spoke(8, 1.0);
                        let matrix = TrafficMatrix::heavy_tailed(8, 5);
                        let sim = Simulator::new(topo, matrix, config(10.0, util, fabric));
                        black_box(sim.run())
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_workload_sampling(c: &mut Criterion) {
    use rand::SeedableRng;
    let mut group = c.benchmark_group("flow_size_sampling");
    for dist in FlowSizeDist::all_paper_workloads() {
        let sampler = SizeSampler::new(&dist);
        group.bench_function(dist.name.clone(), |b| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            b.iter(|| black_box(sampler.sample(&mut rng)))
        });
    }
    group.finish();
}

fn bench_matrix_change(c: &mut Criterion) {
    c.bench_function("traffic_matrix_bounded_change_20dc", |b| {
        let mut m = TrafficMatrix::heavy_tailed(20, 3);
        b.iter(|| black_box(m.change(ChangeModel::Bounded(0.5))))
    });
}

fn bench_waterfill(c: &mut Criterion) {
    use iris_simnet::engine::{max_min_rates, WaterfillScratch};
    // The engine recomputes max-min rates at every event; this measures
    // one recompute over a congested 16-DC population, with the scratch
    // allocated fresh per call (the pre-reuse engine's behaviour) vs
    // carried across calls (what the event loop now does).
    let topo = SimTopology::hub_and_spoke(16, 1.0);
    let pairs: Vec<(usize, usize)> = (0..16usize)
        .flat_map(|i| ((i + 1)..16).map(move |j| (i, j)))
        .cycle()
        .take(480)
        .collect();
    let scale = vec![1.0f64; topo.links.len()];
    let mut group = c.benchmark_group("waterfill_recompute_480flows");
    group.bench_function("fresh_scratch", |b| {
        b.iter(|| {
            let mut scratch = WaterfillScratch::new();
            black_box(max_min_rates(&topo, &scale, &pairs, &mut scratch))
        })
    });
    group.bench_function("reused_scratch", |b| {
        let mut scratch = WaterfillScratch::new();
        b.iter(|| black_box(max_min_rates(&topo, &scale, &pairs, &mut scratch)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_simulation, bench_workload_sampling, bench_matrix_change, bench_waterfill
}
criterion_main!(benches);
