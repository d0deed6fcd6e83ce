//! Batched struct-of-arrays branch-and-bound over one search's candidates.
//!
//! Each search worker checks a [`BatchScratch`] out of a thread-local pool
//! and scans its candidate chunks in two phases. Phase A resolves each
//! candidate's geometry through the [`GeomMemo`] (once per enumerator
//! `geom_id`, replayed for the up-to-8 order/rotation siblings that share
//! it), then computes each `(geometry, rotation)` branch-and-bound floor
//! once, kept in the memo beside the geometry, through
//! [`Floors::from_volumes`], the same `f64` path the scalar search uses, so
//! prune decisions are bit-identical. Phase B prices every candidate whose
//! floor does not exceed its bound with the C³P kernel ([`crate::kernel`])
//! as a one-rung resolve at the machine's own capacities, into reusable
//! scratch, so a steady-state search allocates nothing. Two phase-B scans
//! share phase A: the winner-only search bounds by the shared incumbent,
//! and the k-best ranking keeps a bounded top-`k` list per chunk and
//! bounds by the `k`-th score.
//!
//! Counter semantics match the scalar path exactly at one thread:
//! `DecomposeCalls` and the reject counters are bumped per *candidate*
//! (memo hits replay the cached error), `Evaluations`/`BestImprovements`/
//! penalty counters fire per evaluated survivor, and prune checks observe
//! the shared incumbent at the same point in candidate order as the scalar
//! scan.

use std::cell::RefCell;

use baton_arch::{PackageConfig, Technology};
use baton_mapping::{Mapping, MappingGeometry, NestScratch};
use baton_model::ConvSpec;
use baton_parallel::AtomicBest;
use baton_telemetry::{count, stage_span, Counter};

use crate::bounds::Floors;
use crate::evaluate::{price, runtime_bound, Evaluation};
use crate::kernel::{GeomMemo, Pooled, Rung, Staircases};
use crate::search::Objective;

/// Reusable struct-of-arrays buffers for one search worker; every buffer
/// is cleared with capacity kept.
#[derive(Debug, Default)]
pub(crate) struct BatchScratch {
    /// Geometry memo, indexed by the enumerator's dense `geom_id`, with
    /// the branch-and-bound floor of each `(geometry, rotation)`.
    memo: GeomMemo,
    /// Reusable nest/footprint buffers for the survivor walks.
    nest: NestScratch,
}

/// Aggregated result of one chunk of candidates.
#[derive(Debug, Default)]
pub(crate) struct ChunkOutcome {
    /// Best `(score, evaluation)` in this chunk, earliest candidate wins
    /// score ties (the cross-chunk ordered reduce extends that rule).
    pub best: Option<(f64, Evaluation)>,
    /// Candidates that were evaluated (decomposable, not pruned).
    pub feasible: u64,
    /// Candidates discarded because their floor exceeded the incumbent.
    pub pruned: u64,
}

/// One chunk's share of a k-best ranking.
#[derive(Debug, Default)]
pub(crate) struct ChunkTopK {
    /// At most `k` `(score, evaluation)` pairs, sorted by score with ties
    /// in candidate order.
    pub best: Vec<(f64, Evaluation)>,
    /// Candidates that were priced (decomposable, not pruned).
    pub feasible: u64,
    /// Candidates skipped because their floor exceeded the `k`-th score.
    pub pruned: u64,
}

thread_local! {
    /// Retired scratches, reused by later searches on the same thread. The
    /// sequential fan-out fast path runs on the calling thread, so repeated
    /// searches there (the steady state `baton bench` measures) hit this
    /// pool and allocate nothing.
    static SCRATCH_POOL: RefCell<Vec<BatchScratch>> = const { RefCell::new(Vec::new()) };
}

/// Checks a scratch out of the thread-local pool with an empty geometry
/// memo sized for a search whose enumeration produced `n_geoms` ids.
pub(crate) fn scratch(n_geoms: usize) -> Pooled<BatchScratch> {
    let mut s = Pooled::checkout(&SCRATCH_POOL);
    s.memo.reset(n_geoms);
    s
}

impl BatchScratch {
    /// Phase A: resolves every candidate's geometry through the memo,
    /// then each `(geometry, rotation)` floor the memo does not hold yet
    /// (shared floor math). Both scans below start here, so they prune on
    /// the same bit-identical floors.
    fn fill_floors(
        &mut self,
        layer: &ConvSpec,
        arch: &PackageConfig,
        tech: &Technology,
        objective: Objective,
        cands: &[Mapping],
        geom_ids: &[u32],
    ) {
        debug_assert_eq!(cands.len(), geom_ids.len());
        {
            let _geometry = stage_span("search_geometry");
            for (m, &gid) in cands.iter().zip(geom_ids) {
                let _ = self.memo.get(layer, arch, m, gid);
            }
        }
        let _floor = stage_span("search_floor");
        for (m, &gid) in cands.iter().zip(geom_ids) {
            self.memo.floor(gid, m.rotation, |geom| {
                let (v, _, _) = geom.volumes_for(m.rotation);
                let (streams, cycles) = (geom.weight_streams(), geom.compute_cycles());
                Floors::from_volumes(&v, streams, cycles, arch, tech).score(objective, tech)
            });
        }
    }

    /// Branch-and-bound scan of one candidate chunk.
    ///
    /// Phase A fills the memo's floors; phase B reads them in candidate
    /// order, pruning against the shared `incumbent` and evaluating
    /// survivors with the C³P kernel. `geom_ids[i]` must be the
    /// enumerator's id for `cands[i]`.
    #[allow(clippy::too_many_arguments)] // the full search context, passed flat
    pub(crate) fn evaluate_chunk(
        &mut self,
        layer: &ConvSpec,
        arch: &PackageConfig,
        tech: &Technology,
        objective: Objective,
        incumbent: &AtomicBest,
        cands: &[Mapping],
        geom_ids: &[u32],
    ) -> ChunkOutcome {
        self.fill_floors(layer, arch, tech, objective, cands, geom_ids);
        let _price = stage_span("search_price");
        let mut out = ChunkOutcome::default();
        for (m, &gid) in cands.iter().zip(geom_ids) {
            let Some((geom, floor)) = self.memo.resolved(gid, m.rotation) else {
                continue;
            };
            // Strict `>`: a floor that merely ties the incumbent may still
            // BE the incumbent-quality candidate (floors are exact when no
            // capacity penalty triggers).
            if floor > incumbent.get() {
                out.pruned += 1;
                continue;
            }
            let ev = evaluate_survivor(&mut self.nest, layer, arch, tech, m, geom);
            let score = objective.score(&ev, tech);
            let prev = incumbent.offer(score);
            if score < prev {
                count(Counter::BestImprovements);
            }
            out.feasible += 1;
            // Strict `<`: first candidate index wins ties, exactly like the
            // sequential scan.
            if out.best.as_ref().map(|(s, _)| score < *s).unwrap_or(true) {
                out.best = Some((score, ev));
            }
        }
        out
    }

    /// Bounded top-`k` scan of one candidate chunk (`k >= 1`).
    ///
    /// Phase A fills the memo's floors; phase B keeps the chunk's `k` best
    /// `(score, evaluation)` pairs sorted by score, ties in candidate
    /// order. A candidate is skipped unpriced when its floor is strictly
    /// above the chunk's own `k`-th score or the shared `kth` threshold,
    /// which every chunk holding `k` entries lowers to its `k`-th score.
    /// Any chunk's `k`-th score bounds the global `k`-th from above and a
    /// floor never exceeds its score, so a skipped candidate scores
    /// strictly worse than `k` others and cannot make the global top `k`.
    #[allow(clippy::too_many_arguments)] // the full search context, passed flat
    pub(crate) fn top_k_chunk(
        &mut self,
        layer: &ConvSpec,
        arch: &PackageConfig,
        tech: &Technology,
        objective: Objective,
        k: usize,
        kth: &AtomicBest,
        cands: &[Mapping],
        geom_ids: &[u32],
    ) -> ChunkTopK {
        debug_assert!(k >= 1);
        self.fill_floors(layer, arch, tech, objective, cands, geom_ids);
        let _price = stage_span("search_price");
        // Grows as entries arrive: `k` is caller-chosen and may be huge.
        let mut out = ChunkTopK::default();
        for (m, &gid) in cands.iter().zip(geom_ids) {
            let Some((geom, floor)) = self.memo.resolved(gid, m.rotation) else {
                continue;
            };
            let own = out.best.get(k - 1).map_or(f64::INFINITY, |(s, _)| *s);
            // Strict `>`: a floor tying the `k`-th score may still place.
            if floor > own.min(kth.get()) {
                out.pruned += 1;
                continue;
            }
            let ev = evaluate_survivor(&mut self.nest, layer, arch, tech, m, geom);
            let score = objective.score(&ev, tech);
            out.feasible += 1;
            // After every equal score: the earlier candidate wins ties.
            let at = out
                .best
                .partition_point(|(s, _)| s.total_cmp(&score).is_le());
            if at < k {
                out.best.truncate(k - 1);
                out.best.insert(at, (score, ev));
                if out.best.len() == k {
                    kth.observe(out.best[k - 1].0);
                }
            }
        }
        out
    }
}

/// Prices one survivor as a one-rung kernel resolve at the machine's own
/// capacities. Bit-identical to `evaluate_decomposition` on the same
/// mapping (pinned below and by the equivalence proptest in `tests/`).
fn evaluate_survivor(
    nest: &mut NestScratch,
    layer: &ConvSpec,
    arch: &PackageConfig,
    tech: &Technology,
    mapping: &Mapping,
    geom: &MappingGeometry,
) -> Evaluation {
    count(Counter::Evaluations);
    let (v, rot_in, rot_w) = geom.volumes_for(mapping.rotation);
    geom.build_nest_into(layer, mapping, rot_in, rot_w, nest);
    let rung = Rung {
        a_l1_bits: Some(arch.chiplet.core.a_l1_bytes * 8),
        a_l2_bits: Some(arch.chiplet.a_l2_bytes * 8),
        w_eff_bits: Some(geom.effective_w_l1_bits()),
    };
    let paths = Staircases::walk(nest, geom.n_p(), (rot_in, rot_w)).at(&v, rung);
    paths.count_penalties(&v);
    let access = paths.access(&v, u64::from(geom.weight_streams()));
    let energy = price(&access, arch, tech);
    let (cycles, utilization) = runtime_bound(geom.compute_cycles(), &access, arch, tech);
    Evaluation {
        mapping: *mapping,
        access,
        energy,
        compute_cycles: geom.compute_cycles(),
        cycles,
        utilization,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::{evaluate_decomposition, resolve, LayerProfiles};
    use baton_arch::presets;
    use baton_mapping::enumerate::{enumerate_into, EnumOptions};
    use baton_model::zoo;

    #[test]
    fn streaming_evaluation_matches_the_scalar_path_bit_for_bit() {
        // The search's survivor evaluation (a one-rung kernel resolve at
        // the machine's capacities) against the materialized scalar path.
        let arch = presets::case_study_accelerator();
        let tech = Technology::paper_16nm();
        for (bucket, layer) in zoo::representative_layers(224) {
            let (mut cands, mut ids) = (Vec::new(), Vec::new());
            enumerate_into(&layer, &arch, EnumOptions::default(), &mut cands, &mut ids);
            let mut scratch = scratch(0);
            let mut checked = 0u32;
            for (m, &gid) in cands.iter().zip(&ids).take(512) {
                let Ok(geom) = scratch.memo.get(&layer, &arch, m, gid).copied() else {
                    assert!(
                        baton_mapping::decompose(&layer, &arch, m).is_err(),
                        "{bucket}"
                    );
                    continue;
                };
                let d = baton_mapping::decompose(&layer, &arch, m).unwrap();
                let got = evaluate_survivor(&mut scratch.nest, &layer, &arch, &tech, m, &geom);
                let want = evaluate_decomposition(&d, &arch, &tech, m);
                assert_eq!(got, want, "{bucket}: {m:?}");
                checked += 1;
            }
            assert!(checked > 32, "{bucket}: only {checked} candidates compared");
        }
    }

    #[test]
    fn streaming_resolve_agrees_with_profiles_on_starved_buffers() {
        // Penalties must trigger identically: a tiny A-L2 forces the
        // capacity-dependent multipliers above 1 on most candidates.
        let mut arch = presets::case_study_accelerator();
        arch.chiplet.a_l2_bytes = 2 * 1024;
        arch.chiplet.core.a_l1_bytes = 320;
        let tech = Technology::paper_16nm();
        let layer = zoo::resnet50(224).layer("res2a_branch2b").cloned().unwrap();
        let (mut cands, mut ids) = (Vec::new(), Vec::new());
        enumerate_into(&layer, &arch, EnumOptions::default(), &mut cands, &mut ids);
        let mut scratch = scratch(0);
        let mut penalized = 0u32;
        for (m, &gid) in cands.iter().zip(&ids).take(512) {
            let Ok(geom) = scratch.memo.get(&layer, &arch, m, gid).copied() else {
                continue;
            };
            let d = baton_mapping::decompose(&layer, &arch, m).unwrap();
            let got = evaluate_survivor(&mut scratch.nest, &layer, &arch, &tech, m, &geom);
            let want = resolve(&d, &LayerProfiles::build(&d), &arch);
            assert_eq!(got.access, want, "{m:?}");
            if want.dram_input_bits > d.volumes.dram_input_base {
                penalized += 1;
            }
        }
        assert!(penalized > 0, "starved machine should trigger penalties");
    }

    #[test]
    fn every_siblings_memoized_floor_is_floors_of_its_decomposition() {
        // Phase A computes one floor per `(geometry, rotation)` and every
        // order sibling reads it back: each must still be exactly the
        // floor of the candidate's own decomposition.
        let arch = presets::case_study_accelerator();
        let tech = Technology::paper_16nm();
        for (bucket, layer) in zoo::representative_layers(224) {
            let (mut cands, mut ids) = (Vec::new(), Vec::new());
            let n_geoms =
                enumerate_into(&layer, &arch, EnumOptions::default(), &mut cands, &mut ids).geoms;
            let floors: Vec<Option<Floors>> = cands
                .iter()
                .map(|m| {
                    let d = baton_mapping::decompose(&layer, &arch, m).ok()?;
                    Some(Floors::of(&d, &arch, &tech))
                })
                .collect();
            for objective in [Objective::Energy, Objective::Edp, Objective::Runtime] {
                let mut scratch = scratch(n_geoms);
                // Uneven chunks, so siblings of one geometry land in
                // different chunks, as on the search workers.
                for (c, i) in cands.chunks(700).zip(ids.chunks(700)) {
                    scratch.fill_floors(&layer, &arch, &tech, objective, c, i);
                }
                for ((m, &gid), want) in cands.iter().zip(&ids).zip(&floors) {
                    let got = scratch.memo.resolved(gid, m.rotation).map(|(_, f)| f);
                    let want = want.map(|f| f.score(objective, &tech));
                    assert_eq!(
                        got.map(f64::to_bits),
                        want.map(f64::to_bits),
                        "{bucket} {objective:?}: {m:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_pool_round_trips() {
        let arch = presets::case_study_accelerator();
        let layer = zoo::resnet50(224).layer("res2a_branch2b").cloned().unwrap();
        let m = baton_mapping::enumerate::candidates(&layer, &arch)[0];
        let mut a = scratch(16);
        assert!(a.memo.get(&layer, &arch, &m, 15).is_ok());
        assert_eq!(a.memo.floor(15, m.rotation, |_| 1.0), Some(1.0));
        assert_eq!(a.memo.floor(15, m.rotation, |_| 2.0), Some(1.0));
        drop(a);
        let b = scratch(4);
        assert!(
            b.memo.resolved(15, m.rotation).is_none(),
            "checkout must reset the memo"
        );
        assert!(b.memo.capacity() >= 16, "pool must keep capacity");
    }
}
