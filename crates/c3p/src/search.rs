//! Exhaustive per-layer mapping search (the post-design flow's inner loop).
//!
//! The search is a parallel bounded ranking over batched struct-of-arrays
//! scratch: the layer's [`CandidateSpace`] is filled into the thread's
//! pooled one, its index range is fanned out in chunks over
//! [`baton_parallel::map_chunks`] workers that share one top-`k` ranking,
//! and each worker memoizes geometry per `geom_id`, prunes candidates whose
//! [`Floors`](crate::bounds::Floors) lower bounds (penalty-free, then with
//! the C³P penalties at the least any loop order pays) already score worse
//! than the shared `k`-th score, and prices each survivor with the C³P kernel
//! the memory sweep uses, as a one-rung resolve at the machine's own
//! capacities. Only survivors are built as
//! [`Mapping`](baton_mapping::Mapping)s. The winner search
//! is the `k = 1` ranking and the k-best ranking the same scan at `k`. All
//! mechanisms are exact — the floor never exceeds the true score and the
//! ranking breaks score ties by candidate index — so the winner is
//! bit-identical to [`search_layer_reference`], the plain scalar scan, and
//! the ranking to a stable sort of every feasible candidate, for any thread
//! count.

use std::fmt;

use baton_arch::{PackageConfig, Technology};
use baton_mapping::decompose;
use baton_mapping::enumerate::{candidates_with, CandidateSpace, EnumOptions};
use baton_model::ConvSpec;
use baton_parallel::TopK;
use baton_telemetry::metrics::{kind, Family};
use baton_telemetry::{count, count_n, span_labeled, stage_span, Counter};
use serde::{Deserialize, Serialize};

use crate::batch::{self, Ranking};
use crate::evaluate::Evaluation;
use crate::kernel::Pooled;
use crate::reference;

/// Optimization objective for the mapping search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Objective {
    /// Minimize total energy (the paper's per-layer objective).
    Energy,
    /// Minimize energy-delay product.
    Edp,
    /// Minimize runtime cycles.
    Runtime,
}

impl Objective {
    /// Scalar score (lower is better).
    pub fn score(&self, ev: &Evaluation, tech: &Technology) -> f64 {
        match self {
            Objective::Energy => ev.energy.total_pj(),
            Objective::Edp => ev.edp(tech),
            Objective::Runtime => ev.cycles as f64,
        }
    }

    /// Stable lowercase name, used as the `objective` metric label and in
    /// report output.
    pub fn label(&self) -> &'static str {
        match self {
            Objective::Energy => "energy",
            Objective::Edp => "edp",
            Objective::Runtime => "runtime",
        }
    }
}

/// The per-layer search latency histogram, observed by the `search_layer`
/// span.
const SEARCH_SECONDS: Family<kind::Histogram> = Family::histogram(
    "baton_search_duration_seconds",
    "Per-layer mapping search latency by objective.",
);

/// The search found no feasible mapping for a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchError {
    /// The layer that could not be mapped.
    pub layer: String,
    /// Candidates generated before feasibility filtering.
    pub candidates: usize,
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no feasible mapping for layer `{}` ({} candidates tried)",
            self.layer, self.candidates
        )
    }
}

impl std::error::Error for SearchError {}

/// Searches the default candidate set for the best mapping of `layer`.
///
/// # Errors
///
/// Returns [`SearchError`] if every candidate is infeasible on this machine.
pub fn search_layer(
    layer: &ConvSpec,
    arch: &PackageConfig,
    tech: &Technology,
    objective: Objective,
) -> Result<Evaluation, SearchError> {
    search_layer_with(layer, arch, tech, objective, EnumOptions::default())
}

/// Ranks the `k` best candidates of `layer` by `objective` (`k >= 1`), the
/// one scan behind both search entry points.
///
/// Fills `layer`'s candidate space into the thread's pooled one and scans
/// its index range in chunks on the search workers, each worker with a
/// pooled [`BatchScratch`](batch::BatchScratch), into one shared
/// [`Ranking`]. Then records the prune and completed/failed counters; its
/// `search_layer` span closes into the `search_layer` event and the
/// labelled latency histogram.
fn rank(
    layer: &ConvSpec,
    arch: &PackageConfig,
    tech: &Technology,
    objective: Objective,
    opts: EnumOptions,
    k: usize,
) -> Result<Pooled<TopK<Evaluation>>, SearchError> {
    let mut span = span_labeled("search_layer", || layer.name().to_string())
        .observe(&SEARCH_SECONDS, ("objective", objective.label()));
    let ranking = Ranking::new(k);
    let (candidates, chunks) = CandidateSpace::pooled(|space| {
        let stats = {
            let _enumerate = stage_span("search_enumerate");
            space.fill(layer, arch, opts)
        };
        let space = &*space;
        let workers = baton_parallel::threads();
        let chunk = baton_parallel::chunk_size(stats.emitted, workers);
        let init = || batch::scratch(stats.geoms);
        let chunks = baton_parallel::map_chunks(stats.emitted, workers, chunk, init, |s, range| {
            s.rank_chunk(layer, arch, tech, objective, &ranking, space, range)
        });
        (stats.emitted, chunks)
    });
    let (feasible, pruned) = chunks.iter().fold((0, 0), |(f, p), c| (f + c.0, p + c.1));
    let top = ranking.into_top();
    let best_score = top.entries().first().map(|e| e.0);

    count_n(Counter::SearchPruned, pruned);
    count(if best_score.is_some() {
        Counter::SearchesCompleted
    } else {
        Counter::SearchesFailed
    });
    span.event("search_layer", |ev| {
        let ev = ev
            .str("layer", layer.name())
            .u64("candidates", candidates as u64)
            .u64("feasible", feasible)
            .u64("pruned", pruned);
        match best_score {
            Some(score) => ev.f64("best_score", score),
            None => ev,
        }
    });
    best_score.map(|_| top).ok_or_else(|| SearchError {
        layer: layer.name().to_string(),
        candidates,
    })
}

/// Searches with explicit enumeration options: the `k = 1` ranking, whose
/// tie rule makes it the earliest-index argmin.
///
/// # Errors
///
/// Returns [`SearchError`] if every candidate is infeasible on this machine.
pub fn search_layer_with(
    layer: &ConvSpec,
    arch: &PackageConfig,
    tech: &Technology,
    objective: Objective,
    opts: EnumOptions,
) -> Result<Evaluation, SearchError> {
    let top = rank(layer, arch, tech, objective, opts, 1)?;
    Ok(top.entries()[0].2.clone())
}

/// The scalar reference search: a plain first-wins sequential scan with no
/// floor pruning, no incumbent, no batching — one `decompose` + full
/// profile build per candidate.
///
/// This is the ground truth the equivalence proptests pin
/// [`search_layer_with`] against (winner and score must match bit for bit
/// at any thread count), and the baseline the `perf_eval_batch` benchmark
/// measures the batched engine's speedup over. Not used on any production
/// path.
///
/// # Errors
///
/// Returns [`SearchError`] if every candidate is infeasible on this machine.
pub fn search_layer_reference(
    layer: &ConvSpec,
    arch: &PackageConfig,
    tech: &Technology,
    objective: Objective,
    opts: EnumOptions,
) -> Result<Evaluation, SearchError> {
    let cands = candidates_with(layer, arch, opts);
    let n = cands.len();
    let mut best: Option<(f64, Evaluation)> = None;
    for m in &cands {
        let Ok(d) = decompose(layer, arch, m) else {
            continue;
        };
        let ev = reference::evaluate_decomposition(&d, arch, tech, m);
        let score = objective.score(&ev, tech);
        if best.as_ref().map(|(s, _)| score < *s).unwrap_or(true) {
            best = Some((score, ev));
        }
    }
    best.map(|(_, ev)| ev).ok_or_else(|| SearchError {
        layer: layer.name().to_string(),
        candidates: n,
    })
}

/// Returns the `k` best evaluations by the objective, best first — useful
/// for robustness studies (how much worse is the runner-up?) and for
/// handing a compiler several near-optimal schedules to choose from.
/// `k = 0` is treated as 1.
///
/// The same bounded branch-and-bound as [`search_layer_with`], at `k`: a
/// candidate whose floor exceeds the shared `k`-th score is never priced,
/// and the ranking orders by exact score with ties in candidate order, so
/// it is bit-identical to a stable sort of every feasible candidate for any
/// thread count.
///
/// # Errors
///
/// Returns [`SearchError`] if every candidate is infeasible.
pub fn search_layer_k_best(
    layer: &ConvSpec,
    arch: &PackageConfig,
    tech: &Technology,
    objective: Objective,
    k: usize,
) -> Result<Vec<Evaluation>, SearchError> {
    let top = rank(
        layer,
        arch,
        tech,
        objective,
        EnumOptions::default(),
        k.max(1),
    )?;
    Ok(top.entries().iter().map(|(_, _, ev)| ev.clone()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use baton_arch::presets;
    use baton_model::zoo;

    fn setup() -> (PackageConfig, Technology) {
        (presets::case_study_accelerator(), Technology::paper_16nm())
    }

    /// One candidate priced by the materialized oracle, `None` if illegal.
    fn try_evaluate(
        layer: &ConvSpec,
        arch: &PackageConfig,
        tech: &Technology,
        mapping: &baton_mapping::Mapping,
    ) -> Option<Evaluation> {
        let d = decompose(layer, arch, mapping).ok()?;
        Some(reference::evaluate_decomposition(&d, arch, tech, mapping))
    }

    #[test]
    fn finds_a_mapping_for_every_representative_layer() {
        let (arch, tech) = setup();
        for (bucket, layer) in zoo::representative_layers(224) {
            let ev = search_layer(&layer, &arch, &tech, Objective::Energy)
                .unwrap_or_else(|e| panic!("{bucket}: {e}"));
            assert!(ev.energy.total_pj() > 0.0, "{bucket}");
        }
    }

    #[test]
    fn best_energy_is_no_worse_than_any_probe() {
        let (arch, tech) = setup();
        let layer = zoo::resnet50(224).layer("res2a_branch2b").cloned().unwrap();
        let best = search_layer(&layer, &arch, &tech, Objective::Energy).unwrap();
        // Probe a handful of candidates directly.
        for m in baton_mapping::enumerate::candidates(&layer, &arch)
            .into_iter()
            .take(32)
        {
            if let Some(ev) = try_evaluate(&layer, &arch, &tech, &m) {
                assert!(best.energy.total_pj() <= ev.energy.total_pj() + 1e-6);
            }
        }
    }

    #[test]
    fn objectives_disagree_in_general() {
        let (arch, tech) = setup();
        let layer = zoo::vgg16(224).layer("conv1_1").cloned().unwrap();
        let e = search_layer(&layer, &arch, &tech, Objective::Energy).unwrap();
        let r = search_layer(&layer, &arch, &tech, Objective::Runtime).unwrap();
        assert!(r.cycles <= e.cycles);
        assert!(e.energy.total_pj() <= r.energy.total_pj() + 1e-6);
    }

    #[test]
    fn k_best_is_sorted_and_consistent_with_the_winner() {
        let (arch, tech) = setup();
        let layer = zoo::darknet19(224).layer("conv9").cloned().unwrap();
        let best = search_layer(&layer, &arch, &tech, Objective::Energy).unwrap();
        let top = search_layer_k_best(&layer, &arch, &tech, Objective::Energy, 5).unwrap();
        assert!(top.len() <= 5 && !top.is_empty());
        assert!((top[0].energy.total_pj() - best.energy.total_pj()).abs() < 1e-6);
        for w in top.windows(2) {
            assert!(w[0].energy.total_pj() <= w[1].energy.total_pj() + 1e-6);
        }
    }

    #[test]
    fn thread_count_never_changes_the_result() {
        // The tentpole invariant: chunked fan-out + shared incumbent +
        // floor pruning must return the same Evaluation — bit for bit —
        // whatever the worker count.
        let (arch, tech) = setup();
        let layer = zoo::resnet50(224).layer("res2a_branch2b").cloned().unwrap();
        for obj in [Objective::Energy, Objective::Edp, Objective::Runtime] {
            baton_parallel::configure_threads(Some(1));
            let seq = search_layer(&layer, &arch, &tech, obj);
            baton_parallel::configure_threads(Some(4));
            let par4 = search_layer(&layer, &arch, &tech, obj);
            baton_parallel::configure_threads(Some(7));
            let par7 = search_layer(&layer, &arch, &tech, obj);
            baton_parallel::configure_threads(None);
            assert_eq!(seq, par4, "{obj:?}");
            assert_eq!(seq, par7, "{obj:?}");
        }
    }

    #[test]
    fn pruning_never_changes_the_winner() {
        // Reference: a plain first-wins scan with no bounds and no
        // incumbent. The branch-and-bound search must agree exactly.
        let (arch, tech) = setup();
        let layer = zoo::vgg16(224).layer("conv4_1").cloned().unwrap();
        for obj in [Objective::Energy, Objective::Edp, Objective::Runtime] {
            let mut reference: Option<(f64, Evaluation)> = None;
            for m in baton_mapping::enumerate::candidates(&layer, &arch) {
                let Some(ev) = try_evaluate(&layer, &arch, &tech, &m) else {
                    continue;
                };
                let score = obj.score(&ev, &tech);
                if reference.as_ref().map(|(s, _)| score < *s).unwrap_or(true) {
                    reference = Some((score, ev));
                }
            }
            let got = search_layer(&layer, &arch, &tech, obj).unwrap();
            assert_eq!(reference.unwrap().1, got, "{obj:?}");
        }
    }

    #[test]
    fn batched_search_agrees_with_the_reference_scan() {
        // The batched engine's contract: winner and score bit-identical to
        // the plain scalar scan, for every objective.
        let (arch, tech) = setup();
        let layer = zoo::darknet19(224).layer("conv9").cloned().unwrap();
        for obj in [Objective::Energy, Objective::Edp, Objective::Runtime] {
            let reference =
                search_layer_reference(&layer, &arch, &tech, obj, EnumOptions::default()).unwrap();
            let got = search_layer(&layer, &arch, &tech, obj).unwrap();
            assert_eq!(reference, got, "{obj:?}");
        }
    }

    #[test]
    fn k_best_records_failed_searches_and_its_prunes() {
        use baton_telemetry::metrics::{self, SeriesValue};
        // Samples in this objective's `baton_search_duration_seconds`
        // series. Other tests search concurrently while the layer is on,
        // so counts are compared as lower bounds.
        let observed = |objective: Objective| -> u64 {
            let snap = metrics::registry().snapshot();
            let family = snap
                .iter()
                .find(|f| f.name == "baton_search_duration_seconds");
            family
                .and_then(|f| {
                    f.series
                        .iter()
                        .find(|(labels, _)| labels.iter().any(|(_, v)| v == objective.label()))
                })
                .map_or(0, |(_, v)| match v {
                    SeriesValue::Histogram(h) => h.count(),
                    _ => panic!("search duration must be a histogram"),
                })
        };
        let (mut arch, tech) = setup();
        let layer = zoo::vgg16(224).layer("conv5_2").cloned().unwrap();
        metrics::enable();
        let _session = baton_telemetry::attach_with_sink(&Default::default(), None);

        let counter = |c: Counter| baton_telemetry::counters::snapshot().get(c);

        let pruned_before = counter(Counter::SearchPruned);
        let completed_before = counter(Counter::SearchesCompleted);
        let before = observed(Objective::Edp);
        let top = search_layer_k_best(&layer, &arch, &tech, Objective::Edp, 3).unwrap();
        assert_eq!(top.len(), 3);
        assert!(
            counter(Counter::SearchPruned) > pruned_before,
            "the k-th score bound pruned nothing"
        );
        assert!(
            counter(Counter::SearchesCompleted) > completed_before,
            "a k-best search was not counted as completed"
        );
        assert!(
            observed(Objective::Edp) > before,
            "a k-best search was not observed"
        );

        // An O-L2 too small for any candidate: the failed search must be
        // counted and observed too.
        arch.chiplet.o_l2_bytes = 1;
        let failed_before = counter(Counter::SearchesFailed);
        let before = observed(Objective::Edp);
        let err = search_layer_k_best(&layer, &arch, &tech, Objective::Edp, 3).unwrap_err();
        assert!(err.to_string().contains("conv5_2"));
        assert!(
            counter(Counter::SearchesFailed) > failed_before,
            "an infeasible k-best search was not counted as failed"
        );
        assert!(
            observed(Objective::Edp) > before,
            "an infeasible k-best search was not observed"
        );
        metrics::reset();
    }

    #[test]
    fn search_error_for_impossible_machine() {
        let (mut arch, tech) = setup();
        // An O-L2 too small for even a 1x1xCO_t tile of any candidate.
        arch.chiplet.o_l2_bytes = 1;
        let layer = zoo::vgg16(224).layer("conv5_2").cloned().unwrap();
        let err = search_layer(&layer, &arch, &tech, Objective::Energy).unwrap_err();
        assert!(err.to_string().contains("conv5_2"));
    }
}
