//! Counter identity of the mapping search.
//!
//! Every speed change to the search claims to do the same work in less
//! time: the same candidates enumerated, deduplicated and rejected, the
//! same decompositions replayed, the same candidates pruned and priced.
//! The counters are that claim's witness, so this binary pins them exactly
//! for two fixed workloads on the case-study accelerator, at one thread
//! (where the branch-and-bound sees its bound in candidate order): every
//! AlexNet layer searched for energy, as `baton profile alexnet --threads 1`
//! runs it, and every AlexNet layer ranked for energy at `k = 9`, the
//! largest ranking the `serve_cold` benchmark's `/map` keys request. Its own
//! binary: the counters are process-global, so its tests hold one lock.

use std::sync::{Mutex, MutexGuard, PoisonError};

use baton_arch::{presets, Technology};
use baton_c3p::{search_layer, search_layer_k_best, Objective};
use baton_model::zoo;
use baton_telemetry::{counters, Counter};

/// Serializes the tests: each measures the process-global counters.
fn exclusive_counters() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn alexnet_search_counters_are_pinned() {
    let _counters = exclusive_counters();
    baton_parallel::configure_threads(Some(1));
    let _session = baton_telemetry::attach_with_sink(&Default::default(), None);
    let arch = presets::case_study_accelerator();
    let tech = Technology::paper_16nm();

    let before = counters::snapshot();
    for layer in zoo::alexnet(224).layers() {
        search_layer(layer, &arch, &tech, Objective::Energy).expect("feasible layer");
    }
    let delta = counters::snapshot().since(&before);

    // Pruning on the order-free penalty floor leaves the improvements
    // those of a full scan: a pruned candidate could not have placed.
    let want = [
        (Counter::CandidatesGenerated, 67_800),
        (Counter::CandidatesDeduped, 20_664),
        (Counter::CandidatesStructurallyRejected, 17_022),
        (Counter::DecomposeCalls, 67_800),
        (Counter::RejectOL2Overflow, 816),
        (Counter::Evaluations, 492),
        (Counter::SearchPruned, 66_492),
        (Counter::BestImprovements, 123),
        (Counter::PenaltyAL2, 0),
        (Counter::PenaltyAL1, 361),
        (Counter::PenaltyWL1, 261),
    ];
    let got: Vec<(Counter, u64)> = want.iter().map(|&(c, _)| (c, delta.get(c))).collect();
    assert_eq!(got, want);
    // No other rejection kind fires on this workload.
    for c in [
        Counter::RejectGridMismatch,
        Counter::RejectPlaneTooFine,
        Counter::RejectChannelsTooFew,
        Counter::RejectOL1Overflow,
        Counter::RejectAL1Overflow,
        Counter::RejectWL1Overflow,
    ] {
        assert_eq!(delta.get(c), 0, "{c:?}");
    }
    baton_parallel::configure_threads(None);
}

#[test]
fn alexnet_k_best_counters_are_pinned() {
    let _counters = exclusive_counters();
    baton_parallel::configure_threads(Some(1));
    let _session = baton_telemetry::attach_with_sink(&Default::default(), None);
    let arch = presets::case_study_accelerator();
    let tech = Technology::paper_16nm();

    let before = counters::snapshot();
    for layer in zoo::alexnet(224).layers() {
        let top =
            search_layer_k_best(layer, &arch, &tech, Objective::Energy, 9).expect("feasible layer");
        assert_eq!(top.len(), 9, "{}", layer.name());
    }
    let delta = counters::snapshot().since(&before);

    // `BestImprovements` counts the inserts that lowered the `k`-th score.
    let want = [
        (Counter::DecomposeCalls, 67_800),
        (Counter::Evaluations, 1_151),
        (Counter::SearchPruned, 65_833),
        (Counter::BestImprovements, 392),
    ];
    let got: Vec<(Counter, u64)> = want.iter().map(|&(c, _)| (c, delta.get(c))).collect();
    assert_eq!(got, want);
    baton_parallel::configure_threads(None);
}
