//! Pins the telemetry counters and audit tallies of one fixed small
//! pre-design sweep.
//!
//! The sweep's corner selection decides which candidates are walked into
//! rung lanes and which corner points are scored. What it must not change
//! is what the sweep reports: every counter pinned here except the three
//! penalty counters is a function of the enumeration and the
//! decompositions alone, and the audit's per-unit `candidates`/`kept`
//! tallies are the decomposable candidates and the corner-pruned survivors.
//! The penalty counters count the corner and grid points scored, so they
//! pin the skip rule itself. Both hold at any worker count.

use std::sync::{Mutex, MutexGuard, PoisonError};

use baton_arch::Technology;
use baton_dse::audit::{AuditRecord, SweepAudit};
use baton_dse::{full_sweep_audited, SweepOptions};
use baton_model::{ConvSpec, Model};
use baton_telemetry::{counters, Counter};

/// Counters are process-global while a telemetry session is attached, so
/// every test in this binary holds this lock.
static TELEMETRY: Mutex<()> = Mutex::new(());

fn exclusive_telemetry() -> MutexGuard<'static, ()> {
    TELEMETRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Three layers, one a repeated shape (a shape-memo hit), on two
/// geometries x two O-L1 rungs, over a grid with starved rungs (A-L1
/// 320 B, A-L2 2 KiB, W-L1 2 KiB) where the C³P penalties fire. At 8 lanes
/// the 48 B and 144 B rungs have different core-plane sides, so every unit
/// is its own class and builds its own candidates.
fn fixture() -> (Model, SweepOptions) {
    let model = Model::new(
        "counter-model",
        64,
        vec![
            ConvSpec::new("c0", 28, 28, 32, 3, 1, 1, 64).unwrap(),
            ConvSpec::new("c1", 14, 14, 64, 1, 1, 0, 96).unwrap(),
            ConvSpec::new("c0b", 28, 28, 32, 3, 1, 1, 64).unwrap(),
            ConvSpec::new("c2", 63, 63, 3, 11, 4, 0, 96).unwrap(),
        ],
    );
    let mut opts = SweepOptions {
        total_macs: 2048,
        o_l2_bytes: 8 * 1024,
        ..SweepOptions::default()
    };
    opts.space.compute.chiplets = vec![2, 4];
    opts.space.compute.cores = vec![8, 16];
    opts.space.compute.lanes = vec![8];
    opts.space.compute.vector = vec![8];
    opts.space.memory.o_l1 = vec![48, 144];
    opts.space.memory.a_l1 = vec![320, 2 * 1024];
    opts.space.memory.w_l1 = vec![2 * 1024, 18 * 1024];
    opts.space.memory.a_l2 = vec![2 * 1024, 64 * 1024];
    (model, opts)
}

/// [`fixture`] on the rungs 96 B and 144 B, which share a core-plane side
/// at 8 lanes: each geometry's two units form one class, which enumerates,
/// selects and walks its grid once for both.
fn shared_fixture() -> (Model, SweepOptions) {
    let (model, mut opts) = fixture();
    opts.space.memory.o_l1 = vec![96, 144];
    (model, opts)
}

const WATCHED: [Counter; 17] = [
    Counter::DecomposeCalls,
    Counter::CandidatesGenerated,
    Counter::CandidatesDeduped,
    Counter::CandidatesStructurallyRejected,
    Counter::RejectGridMismatch,
    Counter::RejectPlaneTooFine,
    Counter::RejectChannelsTooFew,
    Counter::RejectOL1Overflow,
    Counter::RejectOL2Overflow,
    Counter::RejectAL1Overflow,
    Counter::RejectWL1Overflow,
    Counter::CacheMiss,
    Counter::SweepPoints,
    Counter::SweepPointsInfeasible,
    Counter::PenaltyAL1,
    Counter::PenaltyAL2,
    Counter::PenaltyWL1,
];

/// What one run of the fixture reports.
struct Observed {
    /// The watched counters' deltas, by name.
    counts: Vec<(&'static str, u64)>,
    /// Each unit's `(candidates, kept)` audit tallies, in unit order.
    tallies: Vec<(u64, u64)>,
}

/// Runs a fixture at `threads` workers.
fn run((model, opts): (Model, SweepOptions), threads: usize) -> Observed {
    let tech = Technology::paper_16nm();
    let _session = baton_telemetry::attach_with_sink(&Default::default(), None);
    baton_parallel::configure_threads(Some(threads));
    let before = counters::snapshot();
    let audit = SweepAudit::in_memory();
    let points = full_sweep_audited(&model, &tech, &opts, &audit);
    let delta = counters::snapshot().since(&before);
    baton_parallel::configure_threads(None);
    assert!(!points.is_empty(), "the fixture must produce points");
    let counts = WATCHED.iter().map(|&c| (c.name(), delta.get(c))).collect();
    let tallies = audit
        .recent()
        .iter()
        .filter_map(|r| match r {
            AuditRecord::Unit {
                candidates, kept, ..
            } => Some((*candidates, *kept)),
            _ => None,
        })
        .collect();
    Observed { counts, tallies }
}

#[test]
fn sweep_counters_match_the_pinned_values() {
    let _guard = exclusive_telemetry();
    let want = [
        ("decompose_calls", 32000),
        ("candidates_generated", 32000),
        ("candidates_deduped", 1024),
        ("candidates_structurally_rejected", 5052),
        ("reject_grid_mismatch", 0),
        ("reject_plane_too_fine", 0),
        ("reject_channels_too_few", 0),
        ("reject_o_l1_overflow", 0),
        ("reject_o_l2_overflow", 2416),
        ("reject_a_l1_overflow", 0),
        ("reject_w_l1_overflow", 0),
        ("cache_miss", 12),
        ("sweep_points", 8),
        ("sweep_points_infeasible", 16),
        // Scored corner and grid points whose paths exceed their base
        // volumes; scoring every candidate at all eight corners counted
        // 83424, 54532 and 9346, and skipping on penalty-free pair floors
        // 9444, 8723 and 1246.
        ("penalty_a_l1", 1195),
        ("penalty_a_l2", 593),
        ("penalty_w_l1", 47),
    ];
    for threads in [1, 4] {
        assert_eq!(run(fixture(), threads).counts, want, "threads={threads}");
    }
}

#[test]
fn audit_tallies_match_the_pinned_values() {
    let _guard = exclusive_telemetry();
    let want = [(7328, 21), (7328, 19), (7464, 33), (7464, 29)];
    for threads in [1, 4] {
        assert_eq!(run(fixture(), threads).tallies, want, "threads={threads}");
    }
}

#[test]
fn shared_class_counters_match_the_pinned_values() {
    let _guard = exclusive_telemetry();
    // Each class counts its enumeration, decompositions, shape-memo misses
    // and corner penalties once; per-unit sweeps counted them twice (32000
    // decompositions, 12 misses, penalties 1010, 382 and 38). Points and
    // infeasible cells are each rung's own.
    let want = [
        ("decompose_calls", 16000),
        ("candidates_generated", 16000),
        ("candidates_deduped", 512),
        ("candidates_structurally_rejected", 2526),
        ("reject_grid_mismatch", 0),
        ("reject_plane_too_fine", 0),
        ("reject_channels_too_few", 0),
        ("reject_o_l1_overflow", 0),
        ("reject_o_l2_overflow", 1208),
        ("reject_a_l1_overflow", 0),
        ("reject_w_l1_overflow", 0),
        ("cache_miss", 6),
        ("sweep_points", 8),
        ("sweep_points_infeasible", 16),
        ("penalty_a_l1", 505),
        ("penalty_a_l2", 191),
        ("penalty_w_l1", 19),
    ];
    for threads in [1, 4] {
        assert_eq!(
            run(shared_fixture(), threads).counts,
            want,
            "threads={threads}"
        );
    }
}

#[test]
fn shared_class_audit_tallies_match_the_pinned_values() {
    let _guard = exclusive_telemetry();
    // Every rung reports its class's tallies, as if swept alone.
    let want = [(7328, 19), (7328, 19), (7464, 29), (7464, 29)];
    for threads in [1, 4] {
        assert_eq!(
            run(shared_fixture(), threads).tallies,
            want,
            "threads={threads}"
        );
    }
}
