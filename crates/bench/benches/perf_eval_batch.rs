//! Criterion micro-benches of the batched struct-of-arrays evaluation
//! engine against the scalar reference scan — the speedup figure the
//! `results/BENCH_soa.json` CI gate pins at the macro level.
//!
//! Three views of the same AlexNet conv2-shaped layer:
//!
//! * `eval_batch_search` — the production path: visitor enumeration into
//!   reused buffers, geometry memo, SoA floor lanes, streaming penalty
//!   resolution, branch-and-bound pruning;
//! * `eval_scalar_reference` — one `decompose` + materialized profile
//!   build per candidate, no pruning (the pre-batch engine's cost shape);
//! * `eval_batch_k_best` — the bounded k-best ranking at k = 9, the
//!   largest ranking the `serve_cold` benchmark's `/map` keys request
//!   (`top` 8 plus the winner): per-chunk top-k lists pruned against the
//!   k-th score instead of the incumbent.
//!
//! Thread count follows `BATON_THREADS`; run with `BATON_THREADS=1` for
//! the steady-state single-worker comparison the allocation gate measures.

use criterion::{criterion_group, criterion_main, Criterion};
use nn_baton::c3p::{search_layer_k_best, search_layer_reference};
use nn_baton::mapping::enumerate::EnumOptions;
use nn_baton::model::ConvSpec;
use nn_baton::prelude::*;
use std::hint::black_box;

fn setup() -> (PackageConfig, Technology, ConvSpec) {
    (
        presets::case_study_accelerator(),
        Technology::paper_16nm(),
        ConvSpec::new("conv2", 27, 27, 64, 5, 1, 2, 192).expect("valid layer"),
    )
}

/// The production batched branch-and-bound search.
fn bench_batch_search(c: &mut Criterion) {
    let (arch, tech, layer) = setup();
    c.bench_function("eval_batch_search", |b| {
        b.iter(|| search_layer(black_box(&layer), &arch, &tech, Objective::Energy).unwrap())
    });
}

/// The scalar ground-truth scan the batched engine is gated against.
fn bench_scalar_reference(c: &mut Criterion) {
    let (arch, tech, layer) = setup();
    c.bench_function("eval_scalar_reference", |b| {
        b.iter(|| {
            search_layer_reference(
                black_box(&layer),
                &arch,
                &tech,
                Objective::Energy,
                EnumOptions::default(),
            )
            .unwrap()
        })
    });
}

/// The bounded branch-and-bound k-best ranking `/map` and `explain` run.
fn bench_batch_k_best(c: &mut Criterion) {
    let (arch, tech, layer) = setup();
    c.bench_function("eval_batch_k_best", |b| {
        b.iter(|| {
            search_layer_k_best(black_box(&layer), &arch, &tech, Objective::Energy, 9).unwrap()
        })
    });
}

criterion_group!(
    benches,
    bench_batch_search,
    bench_scalar_reference,
    bench_batch_k_best
);
criterion_main!(benches);
