//! Differential property test: the streaming struct-of-arrays sweep engine
//! is bit-identical to the materialized reference path.
//!
//! [`full_sweep`] re-prices every design point through pooled
//! [`baton_c3p::SweepLanes`] rung lanes; [`full_sweep_reference`] is the
//! retained ground truth — per-candidate `LayerProfiles` re-resolved at
//! every grid cell. For random models, geometry subsets, memory ladders,
//! and pruning budgets, at 1 and 4 worker threads, the two must agree on
//! everything observable: the `DesignPoint` vectors (exact `f64`/`u64`
//! equality), the rendered CSV bytes, the audit record streams (`unit`,
//! `point`, `summary` — wall clocks aside), and the telemetry counter
//! deltas including `sweep_points`.

use baton_arch::Technology;
use baton_dse::audit::{AuditRecord, SweepAudit};
use baton_dse::csv::design_points_csv;
use baton_dse::{full_sweep_audited, full_sweep_reference_audited, SweepOptions};
use baton_model::{ConvSpec, Model};
use baton_telemetry::{counters, Counter};
use proptest::prelude::*;
use std::sync::Mutex;

/// Counters are process-global while a telemetry session is attached, so
/// every test in this binary serializes on one lock (poison-tolerant: an
/// assert failure in one test must not mask the others).
static TELEMETRY: Mutex<()> = Mutex::new(());

/// Fixed geometry tuples `(N_P, N_C, L, P)` with their MAC budgets — a
/// spread over chiplet counts and lane/vector splits. Restricting the
/// compute space to one tuple keeps each sweep at a handful of units.
const GEOMETRIES: [(u32, u32, u32, u32); 5] = [
    (4, 8, 8, 8),
    (2, 4, 8, 8),
    (1, 8, 16, 4),
    (4, 4, 4, 4),
    (2, 8, 8, 16),
];

/// Memory-ladder variants: full-ish, skewed small, and single-rung.
const A_L1_LADDERS: [&[u64]; 3] = [&[1024, 4 * 1024, 32 * 1024], &[800, 2048], &[8 * 1024]];
const W_L1_LADDERS: [&[u64]; 2] = [&[18 * 1024], &[4 * 1024, 144 * 1024]];
const A_L2_LADDERS: [&[u64]; 2] = [&[64 * 1024, 256 * 1024], &[32 * 1024, 128 * 1024]];
/// O-L1 ladders. Rungs share a class (one core-plane side, so one grid
/// walk) in `[96, 144]` at 8 lanes and `[48, 96, 144]` at 16; the last
/// ladder is out of order, its class `{144, 96}` at 8 lanes is split by
/// another rung, and its 12 B rung cannot hold a psum per lane at 8 or 16.
const O_L1_LADDERS: [&[u64]; 5] = [
    &[144],
    &[48, 144],
    &[96, 144],
    &[48, 96, 144],
    &[144, 12, 96, 48],
];

/// Bounded random conv layers (same envelope as the batch-equivalence
/// harness): shapes that cross the lane/vector boundaries of the swept
/// machines, invalid kernel/pad combinations filtered by `ConvSpec::new`.
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

/// 1-2 random layers assembled into a model.
fn models() -> impl Strategy<Value = Model> {
    proptest::collection::vec(layers(), 1..3).prop_map(|ls| {
        let named: Vec<ConvSpec> = ls
            .into_iter()
            .enumerate()
            .map(|(i, l)| l.renamed(format!("conv{i}")))
            .collect();
        Model::new("prop-model", 64, named)
    })
}

/// Sweep options for one drawn case: a single-geometry compute space and a
/// small memory grid.
fn case_opts(geo: usize, a1: usize, w1: usize, a2: usize, o1: usize, keep: usize) -> SweepOptions {
    let (np, nc, l, p) = GEOMETRIES[geo];
    let mut opts = SweepOptions {
        total_macs: u64::from(np) * u64::from(nc) * u64::from(l) * u64::from(p),
        keep_per_corner: keep,
        ..SweepOptions::default()
    };
    opts.space.compute.chiplets = vec![np];
    opts.space.compute.cores = vec![nc];
    opts.space.compute.lanes = vec![l];
    opts.space.compute.vector = vec![p];
    opts.space.memory.a_l1 = A_L1_LADDERS[a1].to_vec();
    opts.space.memory.w_l1 = W_L1_LADDERS[w1].to_vec();
    opts.space.memory.a_l2 = A_L2_LADDERS[a2].to_vec();
    opts.space.memory.o_l1 = O_L1_LADDERS[o1].to_vec();
    opts
}

/// Audit stream with wall clocks stripped — everything else must be
/// byte-identical between engines and across thread counts.
fn strip_walls(audit: &SweepAudit) -> Vec<String> {
    audit
        .recent()
        .iter()
        .map(|r| {
            let mut line = r.to_json();
            if let Some(i) = line.find(",\"wall_us\"") {
                line.truncate(i);
            }
            line
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn streaming_sweep_is_bit_identical_to_the_reference(
        model in models(),
        geo in 0usize..GEOMETRIES.len(),
        a1 in 0usize..A_L1_LADDERS.len(),
        w1 in 0usize..W_L1_LADDERS.len(),
        a2 in 0usize..A_L2_LADDERS.len(),
        o1 in 0usize..O_L1_LADDERS.len(),
        keep in 1usize..=3,
    ) {
        let _guard = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
        let tech = Technology::paper_16nm();
        let opts = case_opts(geo, a1, w1, a2, o1, keep);

        let ref_audit = SweepAudit::in_memory();
        let want = full_sweep_reference_audited(&model, &tech, &opts, &ref_audit);
        let want_csv = design_points_csv(&want, &tech);
        let want_stream = strip_walls(&ref_audit);

        for threads in [1usize, 4] {
            baton_parallel::configure_threads(Some(threads));
            let audit = SweepAudit::in_memory();
            let got = full_sweep_audited(&model, &tech, &opts, &audit);
            baton_parallel::configure_threads(None);
            prop_assert_eq!(&want, &got, "points diverge at threads={}", threads);
            prop_assert_eq!(
                &want_csv,
                &design_points_csv(&got, &tech),
                "CSV bytes diverge at threads={}",
                threads
            );
            prop_assert_eq!(
                &want_stream,
                &strip_walls(&audit),
                "audit streams diverge at threads={}",
                threads
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// A sweep over several O-L1 rungs reports what one single-rung sweep
    /// per rung reports, concatenated: the rungs that share a class walk
    /// its grid once, and each still emits its own points, CSV rows and
    /// audit records. Only the closing summaries differ, one per sweep.
    #[test]
    fn multi_rung_sweep_is_the_concatenation_of_single_rung_sweeps(
        model in models(),
        geo in 0usize..GEOMETRIES.len(),
        a1 in 0usize..A_L1_LADDERS.len(),
        w1 in 0usize..W_L1_LADDERS.len(),
        a2 in 0usize..A_L2_LADDERS.len(),
        o1 in 1usize..O_L1_LADDERS.len(),
        keep in 1usize..=3,
    ) {
        let _guard = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
        let tech = Technology::paper_16nm();
        let opts = case_opts(geo, a1, w1, a2, o1, keep);
        let unit_records = |audit: &SweepAudit| {
            let mut lines = strip_walls(audit);
            let summary = lines.pop();
            prop_assert!(summary.is_some_and(|l| l.contains("\"summary\"")));
            Ok(lines)
        };

        let mut want = Vec::new();
        let mut want_stream = Vec::new();
        for &o_l1 in &opts.space.memory.o_l1 {
            let mut single = opts.clone();
            single.space.memory.o_l1 = vec![o_l1];
            let audit = SweepAudit::in_memory();
            want.extend(full_sweep_audited(&model, &tech, &single, &audit));
            want_stream.extend(unit_records(&audit)?);
        }
        let want_csv = design_points_csv(&want, &tech);

        for threads in [1usize, 4] {
            baton_parallel::configure_threads(Some(threads));
            let audit = SweepAudit::in_memory();
            let got = full_sweep_audited(&model, &tech, &opts, &audit);
            baton_parallel::configure_threads(None);
            prop_assert_eq!(&want, &got, "points diverge at threads={}", threads);
            prop_assert_eq!(
                &want_csv,
                &design_points_csv(&got, &tech),
                "CSV bytes diverge at threads={}",
                threads
            );
            prop_assert_eq!(
                &want_stream,
                &unit_records(&audit)?,
                "audit records diverge at threads={}",
                threads
            );
        }
    }
}

/// With a telemetry session attached, the full counter delta of a sweep —
/// `sweep_points`, the infeasible tally, decompose/reject replay, shape
/// memo hits/misses, and the C3P penalty activations — must be identical
/// between the streaming and reference engines, at 1 and 4 threads.
#[test]
fn counter_deltas_match_between_engines_and_thread_counts() {
    let _guard = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
    let tech = Technology::paper_16nm();
    let model = Model::new(
        "counter-model",
        64,
        vec![
            ConvSpec::new("c0", 28, 28, 32, 3, 1, 1, 64).unwrap(),
            ConvSpec::new("c1", 14, 14, 64, 1, 1, 0, 96).unwrap(),
        ],
    );
    let opts = case_opts(0, 0, 1, 0, 1, 2);
    let _session = baton_telemetry::attach_with_sink(&Default::default(), None);

    let watched = [
        Counter::SweepPoints,
        Counter::SweepPointsInfeasible,
        Counter::SweepGeometries,
        Counter::DecomposeCalls,
        Counter::CandidatesGenerated,
        Counter::CacheHit,
        Counter::CacheMiss,
        Counter::PenaltyAL1,
        Counter::PenaltyAL2,
        Counter::PenaltyWL1,
    ];
    let run = |reference: bool, threads: usize| -> Vec<(&'static str, u64)> {
        baton_parallel::configure_threads(Some(threads));
        let before = counters::snapshot();
        let points = if reference {
            full_sweep_reference_audited(&model, &tech, &opts, &SweepAudit::disabled())
        } else {
            full_sweep_audited(&model, &tech, &opts, &SweepAudit::disabled())
        };
        let delta = counters::snapshot().since(&before);
        baton_parallel::configure_threads(None);
        assert_eq!(
            delta.get(Counter::SweepPoints),
            points.len() as u64,
            "sweep_points must count the returned vector (reference={reference})"
        );
        watched.iter().map(|&c| (c.name(), delta.get(c))).collect()
    };

    let want = run(true, 1);
    assert!(
        want.iter().any(|&(n, v)| n == "sweep_points" && v > 0),
        "fixture must produce points: {want:?}"
    );
    for threads in [1usize, 4] {
        assert_eq!(want, run(true, threads), "reference@{threads}");
        assert_eq!(want, run(false, threads), "streaming@{threads}");
    }
}

/// The audit `unit` records of both engines agree field-by-field on the
/// exploration tallies (candidates, kept, memo hits/misses, skip and
/// infeasible splits) — a sharper check than stream equality alone, since
/// it pins where a divergence would live.
#[test]
fn unit_tallies_agree_between_engines() {
    let _guard = TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
    let tech = Technology::paper_16nm();
    let model = Model::new(
        "tally-model",
        64,
        vec![
            ConvSpec::new("c0", 28, 28, 32, 3, 1, 1, 64).unwrap(),
            // Repeated shape: must be a memo hit for both engines.
            ConvSpec::new("c0b", 28, 28, 32, 3, 1, 1, 64).unwrap(),
        ],
    );
    let opts = case_opts(1, 0, 0, 0, 0, 3);
    let units = |audit: &SweepAudit| -> Vec<(u64, u64, u64, u64, u64, u64, bool)> {
        audit
            .recent()
            .iter()
            .filter_map(|r| match r {
                AuditRecord::Unit {
                    points,
                    infeasible,
                    skipped,
                    memo_hits,
                    memo_misses,
                    candidates,
                    feasible,
                    ..
                } => Some((
                    *points,
                    *infeasible,
                    *skipped,
                    *memo_hits,
                    *memo_misses,
                    *candidates,
                    *feasible,
                )),
                _ => None,
            })
            .collect()
    };
    let fast = SweepAudit::in_memory();
    full_sweep_audited(&model, &tech, &opts, &fast);
    let slow = SweepAudit::in_memory();
    full_sweep_reference_audited(&model, &tech, &opts, &slow);
    let got = units(&fast);
    assert!(!got.is_empty());
    assert_eq!(got, units(&slow));
    // The repeated shape memoized: some unit saw a hit.
    assert!(
        got.iter().any(|u| u.3 > 0),
        "repeated layer shape should hit the shape memo: {got:?}"
    );
}
