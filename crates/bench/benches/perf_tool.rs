//! Criterion performance benches of the tool itself: decomposition, C3P
//! evaluation, per-layer search and the discrete-event simulator.

use criterion::{criterion_group, criterion_main, Criterion};
use nn_baton::c3p;
use nn_baton::mapping::{decompose, enumerate};
use nn_baton::prelude::*;
use std::hint::black_box;

fn setup() -> (PackageConfig, Technology, ConvSpec, Mapping) {
    let arch = presets::case_study_accelerator();
    let tech = Technology::paper_16nm();
    let layer = zoo::resnet50(224).layer("res2a_branch2b").cloned().unwrap();
    let mapping = search_layer(&layer, &arch, &tech, Objective::Energy)
        .unwrap()
        .mapping;
    (arch, tech, layer, mapping)
}

fn bench_decompose(c: &mut Criterion) {
    let (arch, _, layer, mapping) = setup();
    c.bench_function("decompose_common_layer", |b| {
        b.iter(|| decompose(black_box(&layer), black_box(&arch), black_box(&mapping)).unwrap())
    });
}

fn bench_evaluate(c: &mut Criterion) {
    let (arch, tech, layer, mapping) = setup();
    c.bench_function("c3p_evaluate_common_layer", |b| {
        b.iter(|| c3p::evaluate(&layer, &arch, &tech, black_box(&mapping)).unwrap())
    });
}

fn bench_verdicts_and_knobs(c: &mut Criterion) {
    let (arch, tech, layer, mapping) = setup();
    let d = decompose(&layer, &arch, &mapping).unwrap();
    c.bench_function("c3p_buffer_verdicts", |b| {
        b.iter(|| c3p::buffer_verdicts(black_box(&d), &arch))
    });
    c.bench_function("c3p_knob_effects", |b| {
        b.iter(|| c3p::knob_effects(black_box(&d), &arch, &tech))
    });
}

fn bench_enumerate(c: &mut Criterion) {
    let (arch, _, layer, _) = setup();
    c.bench_function("enumerate_candidates", |b| {
        b.iter(|| enumerate::candidates(black_box(&layer), black_box(&arch)).len())
    });
}

fn bench_search(c: &mut Criterion) {
    let (arch, tech, layer, _) = setup();
    c.bench_function("search_layer_exhaustive", |b| {
        b.iter(|| search_layer(black_box(&layer), &arch, &tech, Objective::Energy).unwrap())
    });
}

fn bench_simulate(c: &mut Criterion) {
    let (arch, tech, layer, mapping) = setup();
    c.bench_function("des_simulate_layer", |b| {
        b.iter(|| simulate(&layer, &arch, &tech, black_box(&mapping)).unwrap())
    });
}

fn bench_simba(c: &mut Criterion) {
    let (arch, tech, layer, _) = setup();
    c.bench_function("simba_baseline_evaluate", |b| {
        b.iter(|| evaluate_simba(black_box(&layer), &arch, &tech))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_decompose, bench_evaluate, bench_verdicts_and_knobs,
              bench_enumerate, bench_search, bench_simulate, bench_simba
}
criterion_main!(benches);
