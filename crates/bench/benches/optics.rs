//! Criterion benches for the physical-layer models and the control
//! plane's hot paths.

use criterion::{criterion_group, criterion_main, Criterion};
use iris_control::controller::{Allocation, Controller};
use iris_control::messages::Command;
use iris_control::SpaceSwitch;
use iris_optics::{ber, evaluate_path, osnr, PathElement, SwitchElement};
use std::hint::black_box;

fn bench_budget_evaluation(c: &mut Criterion) {
    let path = vec![
        PathElement::default_amp(),
        PathElement::fiber_km(40.0),
        PathElement::Switch(SwitchElement::Oss),
        PathElement::fiber_km(30.0),
        PathElement::Switch(SwitchElement::Oss),
        PathElement::default_amp(),
        PathElement::fiber_km(45.0),
        PathElement::default_amp(),
    ];
    c.bench_function("evaluate_path_6_elements", |b| {
        b.iter(|| black_box(evaluate_path(&path)))
    });
}

fn bench_ber_and_osnr(c: &mut Criterion) {
    c.bench_function("ber_16qam", |b| {
        b.iter(|| black_box(ber::ber_16qam(black_box(28.3))))
    });
    c.bench_function("osnr_cascade_penalty", |b| {
        b.iter(|| black_box(osnr::cascade_penalty_default_db(black_box(3))))
    });
}

fn bench_controller_reconfigure(c: &mut Criterion) {
    c.bench_function("controller_reconfigure_20_sites", |b| {
        b.iter(|| {
            let switches = (0..20)
                .map(|i| SpaceSwitch::new(&format!("S{i}"), 128))
                .collect();
            let hops = (0..10)
                .flat_map(|i| ((i + 1)..10).map(move |j| ((i, j), 2u32)))
                .collect();
            let controller = Controller::new(switches, hops);
            let target: Allocation = (0..10)
                .flat_map(|i| ((i + 1)..10).map(move |j| ((i, j), 3u32)))
                .collect();
            black_box(controller.reconfigure(&target))
        })
    });
}

fn bench_message_codec(c: &mut Criterion) {
    let cmd = Command::SetCross {
        switch: 7,
        input: 12,
        output: 40,
    };
    c.bench_function("command_encode_decode", |b| {
        b.iter(|| {
            let frame = black_box(&cmd).encode();
            black_box(Command::decode(&mut frame.as_slice()).unwrap())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_budget_evaluation, bench_ber_and_osnr, bench_controller_reconfigure, bench_message_codec
}
criterion_main!(benches);
