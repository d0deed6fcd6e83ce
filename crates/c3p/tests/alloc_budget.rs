//! Allocation-budget gate on the search hot path.
//!
//! This test binary installs the counting allocator for real — unlike the
//! library unit tests — and holds the steady-state `search_layer` inner
//! loop to a committed allocations-per-evaluation budget. The ROADMAP's
//! batched SoA evaluation rewrite is expected to drive this number toward
//! zero; this gate is the tripwire that (a) stops regressions sneaking in
//! before that rewrite lands and (b) will prove the rewrite's claim when
//! it does.
//!
//! Methodology: run once to warm every lazy structure, then measure
//! repeated searches on a single worker thread and divide by the
//! evaluations counted. Single-threaded, so the whole search runs on the
//! calling thread and an [`AllocScope`] on it sees all of its churn and
//! nothing else. The process-global ledger is not used for the counts: it
//! is flushed in batches of `FLUSH_OPS` operations, so a window read off
//! it also picks up whatever other threads (earlier tests' workers) flush
//! while it is open. It still backs the leak-balance checks.

use std::sync::{Mutex, MutexGuard, PoisonError};

use baton_arch::{presets, Technology};
use baton_c3p::sweep::Corner;
use baton_c3p::{search_layer, search_layer_k_best, sweep_lanes_for, Objective};
use baton_mapping::enumerate::EnumOptions;
use baton_model::{zoo, ConvSpec};
use baton_telemetry::alloc::{totals, AllocScope, CountingAlloc};
use baton_telemetry::{counters, Counter};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The committed budget: with the batched SoA engine the steady state
/// measures well under one allocation per evaluation (the thread-local
/// candidate space, geometry memo, and nest scratch are all reused across
/// searches, and the space's partition lists are iterators; only
/// telemetry events and the returned `Evaluation` remain: 10 allocations
/// over 5 searches of 42 evaluations each). The budget sits far above the
/// measured ~0.05 so incidental
/// telemetry/allocator churn never flakes the gate, yet two orders of
/// magnitude below the pre-batch ~891 — any return of per-candidate
/// allocation trips it immediately. Never loosen it to paper over a
/// regression.
const ALLOCS_PER_EVAL_BUDGET: f64 = 50.0;

/// The sweep-loop counterpart (mirrored by `baton bench --sweep`'s
/// `alloc.allocs_per_point`): a steady-state sweep unit checks its lanes
/// out of the thread-local pool, runs the corner selection (pair floors,
/// then a walk into retained-capacity rung lanes for each candidate that
/// can still place) and reprices the full grid with lane lookups —
/// nothing on that path allocates once the pool is warm, the candidate
/// space's fill included. The measured steady state is 0 allocs/point (0
/// over 120 points); the budget leaves room
/// for allocator/telemetry jitter while still catching any return of
/// per-point or per-candidate materialization (the pre-streaming path
/// paid ~15 allocations per candidate just building profiles).
const SWEEP_ALLOCS_PER_POINT_BUDGET: f64 = 5.0;

/// Bytes one warm k = 9 `search_layer_k_best` may allocate (k = 9 is the
/// largest ranking the `serve_cold` benchmark's `/map` keys request). The
/// one shared ranking keeps at most `k` evaluations and measures ~2.1 KB on
/// resnet50 `res3a_branch2b`; collecting and sorting every feasible
/// candidate's `Evaluation` instead allocated ~20.5 MB, so any return of
/// that materialization trips this at once.
const K_BEST_BYTES_BUDGET: u64 = 1 << 20;

/// The ledger is process-global and the test harness runs tests on
/// parallel threads, so every test here that allocates or reads the
/// ledger holds this lock: a measurement window must see only its own
/// test's allocations.
static LEDGER: Mutex<()> = Mutex::new(());

fn exclusive_ledger() -> MutexGuard<'static, ()> {
    LEDGER.lock().unwrap_or_else(PoisonError::into_inner)
}

fn bench_layer() -> ConvSpec {
    // AlexNet conv2-shaped: big enough for a few thousand evaluations,
    // small enough that five repeats stay under a second in debug builds.
    ConvSpec::new("conv2", 27, 27, 64, 5, 1, 2, 192).expect("valid layer")
}

#[test]
fn steady_state_search_stays_within_the_allocation_budget() {
    let _ledger = exclusive_ledger();
    // One worker: the sequential fast path runs the whole search on this
    // thread, so the process-global ledger delta is exactly the search's.
    baton_parallel::configure_threads(Some(1));
    // Counters only advance while a session is attached.
    let _session = baton_telemetry::attach_with_sink(&Default::default(), None);

    let layer = bench_layer();
    let arch = presets::case_study_accelerator();
    let tech = Technology::paper_16nm();

    // Warm-up: first-use lazy init (thread pool, candidate tables) must
    // not bill the steady state.
    search_layer(&layer, &arch, &tech, Objective::Energy).expect("feasible layer");

    const REPS: u64 = 5;
    let counters_before = counters::snapshot();
    let alloc_before = totals();
    let scope = AllocScope::start();
    for _ in 0..REPS {
        search_layer(&layer, &arch, &tech, Objective::Energy).expect("feasible layer");
    }
    let allocs = scope.delta().allocs;
    let alloc_after = totals();
    let evals = counters::snapshot()
        .since(&counters_before)
        .get(Counter::Evaluations);
    assert!(evals > 0, "the gate needs a real search to measure");

    let per_eval = allocs as f64 / evals as f64;
    println!("allocs/eval: {per_eval:.2} ({allocs} allocs / {evals} evals over {REPS} reps)");
    assert!(
        per_eval <= ALLOCS_PER_EVAL_BUDGET,
        "search_layer allocation budget exceeded: {per_eval:.2} allocs/eval \
         (budget {ALLOCS_PER_EVAL_BUDGET}). If this is an intentional trade, \
         re-measure and adjust the committed budget with the reviewers."
    );

    // Leak balance: repeated searches must not accumulate live heap — the
    // results were dropped, so net growth is bounded by allocator noise
    // (memo-free path; 1 MB is orders of magnitude above observed jitter).
    let net_live = alloc_after.live_bytes - alloc_before.live_bytes;
    assert!(
        net_live.abs() < 1_048_576,
        "search leaked {net_live} live bytes across {REPS} dropped runs"
    );
}

#[test]
fn steady_state_sweep_repricing_stays_within_the_allocation_budget() {
    let _ledger = exclusive_ledger();
    // Single worker, session attached: same methodology as the search
    // gate, but driving the sweep's streaming repricer directly — one
    // `(geometry, O-L1)` unit's worth of work per layer shape per rep:
    // check lanes out of the pool, select the corner-pruned candidates
    // (enumeration, pair floors, walks), score the full memory grid. A
    // "point" is one `(A-L1, W-L1, A-L2)` cell, the unit of the pre-design
    // sweep's `sweep_points` counter.
    baton_parallel::configure_threads(Some(1));
    let _session = baton_telemetry::attach_with_sink(&Default::default(), None);

    let layer = bench_layer();
    let mut arch = presets::case_study_accelerator();
    let tech = Technology::paper_16nm();
    let min_w = u64::from(arch.chiplet.core.lanes) * u64::from(arch.chiplet.core.vector) * 8;
    const A_L1: [u64; 4] = [1024, 4 * 1024, 32 * 1024, 128 * 1024];
    const W_L1: [u64; 3] = [4 * 1024, 18 * 1024, 144 * 1024];
    const A_L2: [u64; 2] = [64 * 1024, 256 * 1024];
    /// Candidates kept per corner (the sweep's default).
    const KEEP: usize = 3;

    // The unit's reference machine carries the largest rungs; the corners
    // are its first/last-rung cells.
    let mut reference = arch;
    reference.chiplet.core.a_l1_bytes = A_L1[A_L1.len() - 1];
    reference.chiplet.core.w_l1_bytes = W_L1[W_L1.len() - 1];
    reference.chiplet.a_l2_bytes = A_L2[A_L2.len() - 1];
    let mut corners = Vec::new();
    for a1 in [0, A_L1.len() - 1] {
        for w1 in [0, W_L1.len() - 1] {
            for a2 in [0, A_L2.len() - 1] {
                let mut arch = reference;
                arch.chiplet.core.a_l1_bytes = A_L1[a1];
                arch.chiplet.core.w_l1_bytes = W_L1[w1];
                arch.chiplet.a_l2_bytes = A_L2[a2];
                corners.push(Corner {
                    cell: (a1, w1, a2),
                    arch,
                });
            }
        }
    }

    let run_unit = |arch: &mut baton_arch::PackageConfig| -> u64 {
        let mut lanes = sweep_lanes_for(&A_L1, &W_L1, &A_L2, min_w);
        let opts = EnumOptions::default();
        let decomposable = lanes.select(&layer, &reference, &tech, opts, &corners, KEEP);
        assert!(decomposable > 0 && !lanes.is_empty());
        let mut points = 0u64;
        for (a1, &a_l1) in A_L1.iter().enumerate() {
            for (w1, &w_l1) in W_L1.iter().enumerate() {
                for (a2, &a_l2) in A_L2.iter().enumerate() {
                    arch.chiplet.core.a_l1_bytes = a_l1;
                    arch.chiplet.core.w_l1_bytes = w_l1;
                    arch.chiplet.a_l2_bytes = a_l2;
                    let mut best = f64::INFINITY;
                    for i in 0..lanes.len() {
                        if let Some((e, _)) = lanes.score(i, (a1, w1, a2), arch, &tech) {
                            if e < best {
                                best = e;
                            }
                        }
                    }
                    assert!(best.is_finite(), "cell ({a1},{w1},{a2}) scored nothing");
                    points += 1;
                }
            }
        }
        points
    };

    // Warm-up: the first unit pays the pool's lane/memo growth.
    run_unit(&mut arch);

    const REPS: u64 = 5;
    let alloc_before = totals();
    let scope = AllocScope::start();
    let mut points = 0u64;
    for _ in 0..REPS {
        points += run_unit(&mut arch);
    }
    let allocs = scope.delta().allocs;
    let alloc_after = totals();
    assert!(points > 0);

    let per_point = allocs as f64 / points as f64;
    println!("allocs/point: {per_point:.3} ({allocs} allocs / {points} points over {REPS} reps)");
    assert!(
        per_point <= SWEEP_ALLOCS_PER_POINT_BUDGET,
        "sweep repricing allocation budget exceeded: {per_point:.3} allocs/point \
         (budget {SWEEP_ALLOCS_PER_POINT_BUDGET}). If this is an intentional \
         trade, re-measure and adjust the committed budget with the reviewers."
    );

    let net_live = alloc_after.live_bytes - alloc_before.live_bytes;
    assert!(
        net_live.abs() < 1_048_576,
        "sweep repricing leaked {net_live} live bytes across {REPS} dropped units"
    );
}

#[test]
fn warm_k_best_ranking_stays_within_the_byte_budget() {
    let _ledger = exclusive_ledger();
    // One worker, so the whole ranking runs on this thread.
    baton_parallel::configure_threads(Some(1));
    let layer = zoo::resnet50(224)
        .layer("res3a_branch2b")
        .cloned()
        .expect("zoo layer");
    let arch = presets::case_study_accelerator();
    let tech = Technology::paper_16nm();
    let rank = || search_layer_k_best(&layer, &arch, &tech, Objective::Energy, 9).unwrap();

    // Warm-up: the pooled enumeration buffers and batch scratch grow once.
    rank();
    let scope = AllocScope::start();
    let top = rank();
    let bytes = scope.delta().bytes_allocated;
    assert_eq!(top.len(), 9);
    println!("k-best bytes allocated: {bytes}");
    assert!(
        bytes <= K_BEST_BYTES_BUDGET,
        "warm k = 9 ranking allocated {bytes} bytes (budget {K_BEST_BYTES_BUDGET})"
    );
}

#[test]
fn alloc_scope_attributes_this_threads_churn() {
    let _ledger = exclusive_ledger();
    // With the allocator actually installed, a scope must see exactly the
    // churn this thread performs — the library unit tests can only assert
    // the inert (uninstalled) behavior.
    let scope = AllocScope::start();
    let v: Vec<u64> = (0..4096).collect();
    let mid = scope.delta();
    assert!(mid.allocs >= 1, "the Vec allocation was not observed");
    assert!(
        mid.bytes_allocated >= 4096 * 8,
        "observed only {} bytes",
        mid.bytes_allocated
    );
    drop(v);
    let end = scope.delta();
    assert!(end.frees > mid.frees, "the drop was not observed");
    assert!(
        end.net_bytes() < mid.net_bytes(),
        "net bytes must fall after the free"
    );

    // And the global ledger is live: any Rust process allocates plenty.
    let t = totals();
    assert!(baton_telemetry::alloc::active());
    assert!(t.allocs > 0 && t.bytes_allocated > 0);
    assert!(t.peak_live_bytes >= t.live_bytes);
    assert!(t.outstanding() >= 0, "more frees than allocs?");
}

#[test]
fn a_disabled_span_carrying_an_event_and_a_metric_allocates_nothing() {
    use baton_telemetry::metrics::{self, kind, Family};
    const FAMILY: Family<kind::Histogram> =
        Family::histogram("baton_budget_seconds", "Budget test latency.");
    let _ledger = exclusive_ledger();
    // No session (every test that attaches one holds the ledger lock), no
    // metrics and no request tracing in this binary: the span is one
    // load and a branch, and neither its label nor its fields run.
    assert!(!baton_telemetry::enabled() && !metrics::enabled());
    let scope = AllocScope::start();
    for i in 0..100u64 {
        let mut span = baton_telemetry::span_labeled("budget", || format!("unit{i}"))
            .observe(&FAMILY, ("flow", "full"));
        span.event("budget_unit", |ev| ev.u64("i", i).str("s", &i.to_string()));
    }
    let delta = scope.delta();
    assert_eq!(
        (delta.allocs, delta.bytes_allocated),
        (0, 0),
        "a disabled span allocated"
    );
}
