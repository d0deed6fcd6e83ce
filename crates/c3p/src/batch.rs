//! Batched struct-of-arrays branch-and-bound over one search's candidates.
//!
//! Each search worker checks a [`BatchScratch`] out of a thread-local pool
//! and scans index ranges of the search's [`CandidateSpace`] in two phases.
//! Phase A visits each `(geometry, rotation)` pair the range touches once:
//! it resolves the geometry through the [`GeomMemo`] (once per enumerator
//! `geom_id`, shared by the up-to-8 order/rotation siblings), then computes
//! the pair's branch-and-bound floor into the memo's dense floor lane,
//! through [`Floors::from_volumes`], the same `f64` path the scalar search
//! uses, so prune decisions are bit-identical. Phase B walks the range in
//! canonical order against that lane. A candidate whose floor does not
//! exceed the search's shared `k`-th score meets a second floor, its pair's
//! order-free penalty floor ([`PairFloor`] read at the machine): each C³P
//! path's reload multiplier at the machine's capacities, minimised over the
//! pair's four temporal orders. Phase B computes it on a pair's first such
//! candidate and caches it in the memo's second lane; computing it in
//! phase A for every pair measured slower, because only about a fifth of
//! the pairs ever pass the penalty-free floor. Only a candidate that passes
//! both floors is priced: its nest is built into reusable scratch (no
//! `Decomposition`) and priced through the one evaluator body
//! `evaluate_decomposition` runs ([`crate::evaluate::evaluate_nest`]), so a
//! steady-state search allocates nothing. Every priced candidate is offered
//! to the search's one [`Ranking`]; the winner search is its `k = 1` case.
//!
//! Counter semantics match a per-candidate decompose exactly: phase A adds
//! the range's length to `DecomposeCalls`, phase B bumps a rejected
//! candidate's reject counter as it passes it, `Evaluations` and penalty
//! counters fire per evaluated survivor, `BestImprovements` per insert that
//! lowers the `k`-th score, and prune checks observe that score at the same
//! point in candidate order as the scalar scan.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

use baton_arch::{PackageConfig, Technology};
use baton_mapping::enumerate::CandidateSpace;
use baton_mapping::NestScratch;
use baton_model::ConvSpec;
use baton_parallel::{AtomicBest, TopK};
use baton_telemetry::{count, count_n, stage_span, Counter};

use crate::bounds::{Floors, PairFloor};
use crate::evaluate::{evaluate_nest, Evaluation};
use crate::kernel::{GeomMemo, NestView, Pooled};
use crate::search::Objective;

/// Reusable struct-of-arrays buffers for one search worker; every buffer
/// is cleared with capacity kept.
#[derive(Debug, Default)]
pub(crate) struct BatchScratch {
    /// Geometry memo, indexed by the enumerator's dense `geom_id`, with
    /// the dense lane of each `(geometry, rotation)` floor.
    memo: GeomMemo,
    /// Reusable nest/footprint buffers for the survivor walks.
    nest: NestScratch,
}

/// One search's shared ranking: the `k` best `(score, candidate index,
/// evaluation)` entries priced so far, and their `k`-th score mirrored in
/// an atomic so the prune check reads it without the lock.
#[derive(Debug)]
pub(crate) struct Ranking {
    top: Mutex<Pooled<TopK<Evaluation>>>,
    kth: AtomicBest,
}

impl Ranking {
    /// An empty ranking of the `k` best (`k >= 1`), its storage checked out
    /// of the thread-local pool.
    pub(crate) fn new(k: usize) -> Self {
        let mut top = Pooled::checkout(&RANKING_POOL);
        top.reset(k);
        Self {
            top: Mutex::new(top),
            kth: AtomicBest::new(),
        }
    }

    /// The ranked entries, best first; the storage returns to the pool when
    /// the result is dropped.
    pub(crate) fn into_top(self) -> Pooled<TopK<Evaluation>> {
        self.top
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Offers a priced candidate. The lock is taken only when the score
    /// could place; an insert that strictly lowers the `k`-th score counts
    /// as a best improvement and lowers the mirror.
    fn offer(&self, score: f64, index: usize, ev: Evaluation) {
        if score > self.kth.get() {
            return;
        }
        let mut top = self.top.lock().unwrap_or_else(PoisonError::into_inner);
        let before = top.kth();
        top.offer(score, index, ev);
        let after = top.kth();
        if after < before {
            count(Counter::BestImprovements);
            self.kth.observe(after);
        }
    }
}

thread_local! {
    /// Retired scratches, reused by later searches on the same thread. The
    /// sequential fan-out fast path runs on the calling thread, so repeated
    /// searches there (the steady state `baton bench` measures) hit this
    /// pool and allocate nothing.
    static SCRATCH_POOL: RefCell<Vec<BatchScratch>> = const { RefCell::new(Vec::new()) };
    /// Retired ranking storage, reused the same way by the calling thread.
    static RANKING_POOL: RefCell<Vec<TopK<Evaluation>>> = const { RefCell::new(Vec::new()) };
}

/// Checks a scratch out of the thread-local pool with an empty geometry
/// memo sized for a search whose enumeration produced `n_geoms` ids.
pub(crate) fn scratch(n_geoms: usize) -> Pooled<BatchScratch> {
    let mut s = Pooled::checkout(&SCRATCH_POOL);
    s.memo.reset(n_geoms);
    s
}

impl BatchScratch {
    /// Phase A: resolves each geometry the candidates of `range` use
    /// through the memo, then each of their `(geometry, rotation)` floors
    /// the lane does not hold yet (shared floor math), so the scan prunes
    /// on bit-identical floors.
    fn fill_floors(
        &mut self,
        layer: &ConvSpec,
        arch: &PackageConfig,
        tech: &Technology,
        objective: Objective,
        space: &CandidateSpace,
        range: Range<usize>,
    ) {
        // One decompose per candidate, as the scalar scan counts them; the
        // memo replays each sibling's outcome.
        count_n(Counter::DecomposeCalls, range.len() as u64);
        {
            let _geometry = stage_span("search_geometry");
            space.touched(range.clone()).for_each(|s| {
                let _ = self.memo.resolve(layer, arch, s.geom, || space.mapping(s));
            });
        }
        let _floor = stage_span("search_floor");
        space.touched(range).for_each(|s| {
            self.memo.floor(s, |geom| {
                let (v, _, _) = geom.volumes_for(s.rotation);
                let (streams, cycles) = (geom.weight_streams(), geom.compute_cycles());
                Floors::from_volumes(&v, streams, cycles, arch, tech).score(objective, tech)
            });
        });
    }

    /// Branch-and-bound scan of the candidates of `range` into `ranking`;
    /// returns how many it priced and how many it pruned.
    ///
    /// Phase A fills the memo's floors; phase B reads them in candidate
    /// order and skips a candidate unpriced when its floor, or then its
    /// pair's order-free penalty floor, is strictly above the shared `k`-th
    /// score. That score belongs to `k` priced candidates and neither floor
    /// exceeds the candidate's score, so a skipped candidate scores strictly
    /// worse than `k` others and cannot place.
    #[allow(clippy::too_many_arguments)] // the full search context, passed flat
    pub(crate) fn rank_chunk(
        &mut self,
        layer: &ConvSpec,
        arch: &PackageConfig,
        tech: &Technology,
        objective: Objective,
        ranking: &Ranking,
        space: &CandidateSpace,
        range: Range<usize>,
    ) -> (u64, u64) {
        self.fill_floors(layer, arch, tech, objective, space, range.clone());
        let _price = stage_span("search_price");
        let (mut feasible, mut pruned) = (0u64, 0u64);
        // The index in the space of each run's first candidate.
        let mut first = range.start;
        for run in space.runs(range) {
            for pair in run.pairs() {
                // Strict `>`: a floor tying the `k`-th score may still place
                // (floors are exact when no capacity penalty triggers). A
                // rejected geometry's NaN lane never prunes; it is skipped
                // below.
                if self.memo.lane(pair) > ranking.kth.get() {
                    pruned += 1;
                    continue;
                }
                let s = run.slot(pair);
                let m = space.mapping(s);
                let Some((geom, floor)) = self.memo.replayed_with_penalty_floor(s, |geom| {
                    PairFloor::of(geom, layer, &m)
                        .at(arch, tech)
                        .score(objective, tech)
                }) else {
                    continue;
                };
                if floor > ranking.kth.get() {
                    pruned += 1;
                    continue;
                }
                let survivor = NestView::build(geom, layer, &m, &mut self.nest);
                let ev = evaluate_nest(&survivor, arch, tech, &m);
                feasible += 1;
                ranking.offer(objective.score(&ev, tech), first + run.position(pair), ev);
            }
            first += run.pairs().len();
        }
        (feasible, pruned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, LayerProfiles};
    use baton_arch::presets;
    use baton_mapping::enumerate::{enumerate_into, EnumOptions};
    use baton_model::zoo;

    #[test]
    fn streaming_evaluation_matches_the_scalar_path_bit_for_bit() {
        // The search's survivor evaluation (a one-rung kernel resolve at
        // the machine's capacities) against the materialized oracle.
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
                let survivor = NestView::build(&geom, &layer, m, &mut scratch.nest);
                let got = evaluate_nest(&survivor, &arch, &tech, m);
                let want = reference::evaluate_decomposition(&d, &arch, &tech, m);
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
            let survivor = NestView::build(&geom, &layer, m, &mut scratch.nest);
            let got = evaluate_nest(&survivor, &arch, &tech, m);
            let (a_l1, a_l2) = (
                arch.chiplet.core.a_l1_bytes * 8,
                arch.chiplet.a_l2_bytes * 8,
            );
            let p = LayerProfiles::build(&d);
            let want = reference::resolve_at_capacities(&d, &p, a_l1, a_l2, d.effective_w_l1_bits);
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
            let mut space = CandidateSpace::default();
            let stats = space.fill(&layer, &arch, EnumOptions::default());
            let floors: Vec<Option<Floors>> = space
                .slots(0..stats.emitted)
                .map(|s| {
                    let d = baton_mapping::decompose(&layer, &arch, &space.mapping(s)).ok()?;
                    Some(Floors::of(&d, &arch, &tech))
                })
                .collect();
            for objective in [Objective::Energy, Objective::Edp, Objective::Runtime] {
                let mut scratch = scratch(stats.geoms);
                // Uneven chunks, so siblings of one geometry land in
                // different chunks, as on the search workers.
                for start in (0..stats.emitted).step_by(700) {
                    let end = (start + 700).min(stats.emitted);
                    scratch.fill_floors(&layer, &arch, &tech, objective, &space, start..end);
                }
                for (s, want) in space.slots(0..stats.emitted).zip(&floors) {
                    let got = scratch
                        .memo
                        .replayed(s.geom)
                        .map(|_| scratch.memo.lane(s.pair()));
                    let want = want.map(|f| f.score(objective, &tech));
                    assert_eq!(
                        got.map(f64::to_bits),
                        want.map(f64::to_bits),
                        "{bucket} {objective:?}: {:?}",
                        space.mapping(s)
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_pool_round_trips() {
        let arch = presets::case_study_accelerator();
        let layer = zoo::resnet50(224).layer("res2a_branch2b").cloned().unwrap();
        let mut space = CandidateSpace::default();
        space.fill(&layer, &arch, EnumOptions::default());
        let s = space.slots(0..1).next().unwrap();
        let mut a = scratch(16);
        assert!(a.memo.get(&layer, &arch, &space.mapping(s), s.geom).is_ok());
        assert_eq!(a.memo.floor(s, |_| 1.0), Some(1.0));
        assert_eq!(a.memo.floor(s, |_| 2.0), Some(1.0));
        assert_eq!(a.memo.lane(s.pair()), 1.0);
        let penalty = |memo: &mut GeomMemo, f: f64| {
            memo.replayed_with_penalty_floor(s, |_| f)
                .map(|(_, floor)| floor)
        };
        assert_eq!(penalty(&mut a.memo, 3.0), Some(3.0));
        assert_eq!(penalty(&mut a.memo, 4.0), Some(3.0));
        drop(a);
        let mut b = scratch(4);
        assert!(
            b.memo.replayed(s.geom).is_none() && b.memo.lane(s.pair()).is_nan(),
            "checkout must reset the memo"
        );
        assert!(b.memo.get(&layer, &arch, &space.mapping(s), s.geom).is_ok());
        assert_eq!(penalty(&mut b.memo, 5.0), Some(5.0), "and its penalty lane");
        assert!(b.memo.capacity() >= 16, "pool must keep capacity");
    }
}
