//! Property test: the batched struct-of-arrays search engine is
//! bit-identical to the scalar reference scan.
//!
//! [`search_layer_with`] runs the production path — visitor enumeration
//! into reused buffers, per-geometry memoization, struct-of-arrays floor
//! lanes, streaming penalty resolution, branch-and-bound pruning against a
//! shared incumbent, chunked fan-out. [`search_layer_reference`] is the
//! naive ground truth: materialize candidates, `decompose` + full profile
//! build each, first-wins argmin. For every generated layer, enumeration
//! option set, objective, and thread count, winner and score must agree
//! exactly (`Evaluation` equality is field-wise over exact `u64`/`f64`
//! values — no tolerance), and the infeasible case must produce the same
//! `SearchError`.
//!
//! The k-best ranking gets its own differential: [`search_layer_k_best`]
//! prunes against per-chunk and shared `k`-th scores, and must still equal
//! the stable sort of every feasible candidate's scalar evaluation,
//! truncated to `k.max(1)`, at every `k`, objective and thread count.

use baton_arch::{presets, PackageConfig, Technology};
use baton_c3p::{
    evaluate_decomposition, search_layer_k_best, search_layer_reference, search_layer_with,
    Evaluation, Objective,
};
use baton_mapping::enumerate::{candidates, EnumOptions};
use baton_mapping::{decompose, RotationMode};
use baton_model::{zoo, ConvSpec};
use proptest::prelude::*;

/// Enumeration option sets with `'static` ladders, exercising sparse and
/// dense tilings and both rotation-membership shapes.
const OPTION_SETS: [EnumOptions; 3] = [
    EnumOptions {
        plane_fractions: &[1, 2, 4, 8, 16, 32],
        co_fractions: &[1, 2, 4],
        rotations: &[RotationMode::Ring, RotationMode::DramOnly],
    },
    EnumOptions {
        plane_fractions: &[1, 4],
        co_fractions: &[1, 2],
        rotations: &[RotationMode::Ring],
    },
    EnumOptions {
        plane_fractions: &[1, 2, 8],
        co_fractions: &[1],
        rotations: &[RotationMode::DramOnly],
    },
];

const OBJECTIVES: [Objective; 3] = [Objective::Energy, Objective::Edp, Objective::Runtime];

/// Bounded random conv layers: planes 7..=40, kernels 1/3/5, strides 1..=2,
/// channel counts that cross the lane/vector boundaries of the case-study
/// machine. Invalid shapes (kernel exceeding the padded input) are
/// rejected by `ConvSpec::new` and filtered out of the draw.
fn layers() -> impl Strategy<Value = ConvSpec> {
    (
        7u32..=40,  // hi == wi
        1u32..=96,  // ci
        0usize..3,  // kernel index -> {1, 3, 5}
        1u32..=2,   // stride
        0u32..=2,   // pad
        1u32..=128, // co
    )
        .prop_filter_map("valid conv shape", |(hw, ci, ki, stride, pad, co)| {
            let k = [1u32, 3, 5][ki];
            ConvSpec::new("prop", hw, hw, ci, k, stride, pad, co).ok()
        })
}

fn setup() -> (PackageConfig, Technology) {
    (presets::case_study_accelerator(), Technology::paper_16nm())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn batched_search_is_bit_identical_to_the_reference(
        layer in layers(),
        opt_idx in 0usize..3,
        obj_idx in 0usize..3,
    ) {
        let (arch, tech) = setup();
        let opts = OPTION_SETS[opt_idx];
        let objective = OBJECTIVES[obj_idx];
        let want = search_layer_reference(&layer, &arch, &tech, objective, opts);
        for threads in [1usize, 4] {
            baton_parallel::configure_threads(Some(threads));
            let got = search_layer_with(&layer, &arch, &tech, objective, opts);
            baton_parallel::configure_threads(None);
            prop_assert_eq!(
                &want, &got,
                "threads={} objective={:?} opts={} layer={:?}",
                threads, objective, opt_idx, layer
            );
        }
    }

    #[test]
    fn k_best_head_matches_the_reference_winner(
        layer in layers(),
    ) {
        // The k-best ranking prunes against its own k-th score, not the
        // incumbent; its head must still be the reference winner whenever
        // one exists.
        let (arch, tech) = setup();
        let objective = Objective::Energy;
        let want = search_layer_reference(
            &layer, &arch, &tech, objective, EnumOptions::default(),
        );
        for threads in [1usize, 4] {
            baton_parallel::configure_threads(Some(threads));
            let got = baton_c3p::search_layer_k_best(&layer, &arch, &tech, objective, 3);
            baton_parallel::configure_threads(None);
            match (&want, &got) {
                (Ok(w), Ok(g)) => {
                    prop_assert!(!g.is_empty());
                    prop_assert_eq!(w, &g[0], "threads={}", threads);
                }
                (Err(w), Err(g)) => prop_assert_eq!(w, g),
                (w, g) => prop_assert!(
                    false,
                    "feasibility disagreement: reference={:?} k_best={:?}",
                    w.is_ok(), g.is_ok()
                ),
            }
        }
    }
}

/// The infeasible-machine path must agree too: same `SearchError` fields
/// (layer name and candidate count) from both engines.
#[test]
fn infeasible_machines_return_identical_errors() {
    let (mut arch, tech) = setup();
    arch.chiplet.o_l2_bytes = 1;
    let layer = ConvSpec::new("tiny", 14, 14, 32, 3, 1, 1, 64).unwrap();
    let want = search_layer_reference(&layer, &arch, &tech, Objective::Energy, {
        EnumOptions::default()
    })
    .unwrap_err();
    for threads in [1usize, 4] {
        baton_parallel::configure_threads(Some(threads));
        let got = search_layer_with(&layer, &arch, &tech, Objective::Energy, {
            EnumOptions::default()
        })
        .unwrap_err();
        baton_parallel::configure_threads(None);
        assert_eq!(want, got, "threads={threads}");
    }
}

/// Ranking sizes for the k-best differential: `0` (treated as 1), the
/// winner alone, short lists, the `serve_cold` benchmark's largest ranking
/// (`top` 8 plus the winner) and `/map`'s largest (`top` 100 plus the
/// winner).
const KS: [usize; 6] = [0, 1, 2, 5, 9, 101];

/// The k-best oracle: every feasible candidate of the default enumeration,
/// priced by the scalar path and stable-sorted by exact score, so ties stay
/// in candidate order. `None` when no candidate is feasible.
fn full_ranking(
    layer: &ConvSpec,
    arch: &PackageConfig,
    tech: &Technology,
    objective: Objective,
) -> Option<Vec<Evaluation>> {
    let mut scored: Vec<(f64, Evaluation)> = candidates(layer, arch)
        .iter()
        .filter_map(|m| {
            let d = decompose(layer, arch, m).ok()?;
            let ev = evaluate_decomposition(&d, arch, tech, m);
            Some((objective.score(&ev, tech), ev))
        })
        .collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0));
    (!scored.is_empty()).then(|| scored.into_iter().map(|(_, ev)| ev).collect())
}

/// Checks `search_layer_k_best` against [`full_ranking`] for every `k` in
/// [`KS`], every objective and 1, 2 and 4 threads.
fn assert_k_best_matches_the_full_sort(layer: &ConvSpec) {
    let (arch, tech) = setup();
    for objective in OBJECTIVES {
        let ranking = full_ranking(layer, &arch, &tech, objective);
        for threads in [1usize, 2, 4] {
            baton_parallel::configure_threads(Some(threads));
            for k in KS {
                let got = search_layer_k_best(layer, &arch, &tech, objective, k);
                match &ranking {
                    Some(all) => {
                        let want = &all[..all.len().min(k.max(1))];
                        assert_eq!(
                            got.as_deref(),
                            Ok(want),
                            "k={k} threads={threads} objective={objective:?} layer={layer:?}"
                        );
                    }
                    None => assert!(got.is_err(), "k={k}: {layer:?} has no feasible mapping"),
                }
            }
            baton_parallel::configure_threads(None);
        }
    }
}

#[test]
fn k_best_equals_the_full_stable_sort_on_zoo_layers() {
    for name in ["conv4", "conv9"] {
        let layer = zoo::darknet19(224).layer(name).cloned().unwrap();
        assert_k_best_matches_the_full_sort(&layer);
    }
}

proptest! {
    // Each case runs 54 ranked searches against one scalar ranking per
    // objective; the release `determinism` CI job runs more cases.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 8 } else { 32 }))]
    #[test]
    fn k_best_equals_the_full_stable_sort_on_random_layers(layer in layers()) {
        assert_k_best_matches_the_full_sort(&layer);
    }
}
