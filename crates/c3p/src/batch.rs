//! Batched struct-of-arrays branch-and-bound over one search's candidates.
//!
//! Each search worker checks a [`BatchScratch`] out of a thread-local pool
//! and scans index ranges of the search's [`CandidateSpace`] in two phases.
//! Phase A walks each channel [`Ladder`] the range touches once: the
//! geometries of one tile plane, one per tile depth. Every rung runs its
//! structural and buffer-feasibility checks, and a rejected rung keeps its
//! error in the [`GeomMemo`]. Then, before any products, each rotation
//! meets a prefix floor: the plane's own H and W terms with every
//! channel-dependent factor at its least over the group's rungs
//! ([`ChannelFloor`]), priced through the floors' `f64` path. A rotation
//! whose prefix floor is strictly above the shared `k`-th score has it
//! written into each valid rung's lane; if every rotation does, the ladder
//! is never resolved. Otherwise each valid rung's geometry is resolved
//! (once per enumerator `geom_id`, shared by the up-to-8 order/rotation
//! siblings) and its open pairs get their branch-and-bound floors in the
//! memo's dense floor lane, through [`Floors::from_volumes`], the same
//! `f64` path the scalar search uses, so prune decisions are bit-identical.
//! The prefix floor never exceeds a rung's floor, and the `k`-th score only
//! falls, so a pair it bounds is one phase B prunes anyway.
//!
//! Phase B walks the range in canonical order against that lane. A
//! candidate whose floor does not exceed the `k`-th score meets a second
//! floor, its pair's order-free penalty floor ([`PairFloor`] read at the
//! machine): each C³P path's reload multiplier at the machine's
//! capacities, minimised over the pair's four temporal orders. Phase B
//! computes it on a pair's first such candidate and caches it in the
//! memo's second lane; computing it in phase A for every pair measured
//! slower, because only about a fifth of the pairs ever pass the
//! penalty-free floor. Only a candidate that passes both floors is priced:
//! its nest is built into reusable scratch (no `Decomposition`) and priced
//! through the one evaluator body `evaluate_decomposition` runs
//! ([`crate::evaluate::evaluate_nest`]), so a steady-state search allocates
//! nothing. Every priced candidate is offered to the search's one
//! [`Ranking`]; the winner search is its `k = 1` case. Until the ranking
//! has a `k`-th score, a chunk runs both phases on pieces that double in
//! length, so its first ladders already face a bound.
//!
//! Counter semantics match a per-candidate decompose exactly: phase A adds
//! the range's length to `DecomposeCalls` and runs the checks of every
//! geometry, phase B bumps a rejected candidate's reject counter as it
//! passes it, `Evaluations` and penalty counters fire per evaluated
//! survivor, `BestImprovements` per insert that lowers the `k`-th score,
//! and prune checks observe that score at the same point in candidate
//! order as the scalar scan.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

use baton_arch::{PackageConfig, Technology};
use baton_mapping::enumerate::{CandidateSpace, Ladder, Slot};
use baton_mapping::{
    ChannelFloor, CheckedGeometry, Mapping, MappingGeometry, NestScratch, RotationMode,
};
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
    /// The checked rungs of the ladder being walked.
    checked: Vec<(u32, Mapping, CheckedGeometry)>,
    /// Pairs of resolved geometries whose floors phase A still computes.
    open: Vec<Slot>,
}

/// What one chunk's scan did: candidates priced and pruned, and
/// geometries resolved (products and floors computed).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tally {
    pub feasible: u64,
    pub pruned: u64,
    pub resolved: u64,
}

impl std::ops::Add for Tally {
    type Output = Self;

    fn add(self, o: Self) -> Self {
        Self {
            feasible: self.feasible + o.feasible,
            pruned: self.pruned + o.pruned,
            resolved: self.resolved + o.resolved,
        }
    }
}

/// Candidates in a chunk's first piece while no `k`-th score exists yet.
const FIRST_PIECE: usize = 64;

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
    /// Phase A: walks each channel ladder the candidates of `range` touch
    /// and this scratch has not walked yet, then computes the floors of the
    /// pairs the walk left open (shared floor math, so the scan prunes on
    /// bit-identical floors). Returns how many geometries it resolved.
    #[allow(clippy::too_many_arguments)] // the full search context, passed flat
    fn fill_floors(
        &mut self,
        layer: &ConvSpec,
        arch: &PackageConfig,
        tech: &Technology,
        objective: Objective,
        ranking: &Ranking,
        space: &CandidateSpace,
        range: Range<usize>,
    ) -> u64 {
        // One decompose per candidate, as the scalar scan counts them; the
        // memo replays each sibling's outcome.
        count_n(Counter::DecomposeCalls, range.len() as u64);
        let mut resolved = 0;
        {
            let _geometry = stage_span("search_geometry");
            // The ladders of one group share their channel rungs, so they
            // share the rungs' least channel factors.
            let mut channel: Option<(u32, ChannelFloor)> = None;
            for ladder in space.ladders(range) {
                if self.memo.seen(ladder.geoms().start) {
                    continue;
                }
                let floor = match channel {
                    Some((group, floor)) if group == ladder.group() => floor,
                    _ => {
                        let rung = |g| space.mapping(ladder.rung(g));
                        let first = rung(ladder.geoms().start);
                        let depths = ladder.geoms().map(|g| rung(g).chiplet_tile.co);
                        let terms = self.memo.terms();
                        let floor = ChannelFloor::of(layer, arch, &first, depths, terms);
                        channel.insert((ladder.group(), floor)).1
                    }
                };
                resolved += self.walk(ladder, &floor, layer, arch, tech, objective, ranking, space);
            }
        }
        let _floor = stage_span("search_floor");
        for s in self.open.drain(..) {
            self.memo.floor(s, |geom| {
                pair_floor(geom, s.rotation, arch, tech, objective)
            });
        }
        resolved
    }

    /// Walks one channel ladder: every rung runs its checks, in rung
    /// order, and a rejected rung keeps its error. Then each rotation's
    /// prefix floor prices the tile plane with every channel factor at its
    /// least over the group's rungs (`channel`). A rotation whose prefix
    /// floor is strictly above the shared `k`-th score has that floor
    /// written into each valid rung's lane. If every rotation does, no
    /// rung is resolved; otherwise every valid rung is, and its open pairs
    /// are queued for their own floors. Returns how many rungs it resolved.
    ///
    /// Exact: the prefix floor is the floor's own assembly on per-factor
    /// lower bounds, monotone on non-negative values, so it never exceeds a
    /// rung's floor; and the `k`-th score only falls, so phase B prunes a
    /// bounded pair as it would on the pair's own floor.
    #[allow(clippy::too_many_arguments)] // the full search context, passed flat
    fn walk(
        &mut self,
        ladder: Ladder,
        channel: &ChannelFloor,
        layer: &ConvSpec,
        arch: &PackageConfig,
        tech: &Technology,
        objective: Objective,
        ranking: &Ranking,
        space: &CandidateSpace,
    ) -> u64 {
        self.checked.clear();
        for geom in ladder.geoms() {
            let m = space.mapping(ladder.rung(geom));
            if let Some(checked) = self.memo.check(layer, arch, geom, &m) {
                self.checked.push((geom, m, checked));
            }
        }
        let Some(&(_, m, checked)) = self.checked.first() else {
            return 0;
        };
        let bound = checked.ladder_bound(layer, arch, &m, channel, self.memo.terms());
        let kth = ranking.kth.get();
        let rotations = ladder.rotations();
        let mut prefix = [f64::NAN; 2];
        for (p, &rotation) in prefix.iter_mut().zip(rotations) {
            let floor = pair_floor(&bound, rotation, arch, tech, objective);
            // Strict `>`, as phase B prunes; a NaN never prunes.
            if floor > kth {
                *p = floor;
            }
        }
        let open = prefix[..rotations.len()].iter().any(|p| p.is_nan());
        for &(geom, m, checked) in &self.checked {
            if open {
                self.memo.resolve_checked(layer, arch, geom, &m, checked);
            } else {
                self.memo.bound(geom);
            }
            for (&p, &rotation) in prefix.iter().zip(rotations) {
                let s = ladder.slot(geom, rotation);
                if p.is_nan() {
                    self.open.push(s);
                } else {
                    self.memo.set_floor(s.pair(), p);
                }
            }
        }
        if open {
            self.checked.len() as u64
        } else {
            0
        }
    }

    /// Branch-and-bound scan of the candidates of `range` into `ranking`;
    /// returns how many it priced, pruned and resolved.
    ///
    /// While the ranking holds fewer than `k` candidates, its `k`-th score
    /// is infinite and no prefix floor prunes, so the range is scanned in
    /// pieces that double from [`FIRST_PIECE`] candidates until one prices
    /// enough; the rest is one piece. Each piece's candidates are the same
    /// in the same order, so the pieces scan exactly as the whole range.
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
    ) -> Tally {
        let mut tally = Tally::default();
        let (mut start, mut piece) = (range.start, FIRST_PIECE);
        while start < range.end {
            let end = if ranking.kth.get().is_finite() {
                range.end
            } else {
                range.end.min(start + piece)
            };
            tally = tally + self.scan(layer, arch, tech, objective, ranking, space, start..end);
            (start, piece) = (end, 2 * piece);
        }
        tally
    }

    /// One piece of [`Self::rank_chunk`].
    ///
    /// Phase A fills the memo's floors; phase B reads them in candidate
    /// order and skips a candidate unpriced when its floor, or then its
    /// pair's order-free penalty floor, is strictly above the shared `k`-th
    /// score. That score belongs to `k` priced candidates and neither floor
    /// exceeds the candidate's score, so a skipped candidate scores strictly
    /// worse than `k` others and cannot place.
    #[allow(clippy::too_many_arguments)] // the full search context, passed flat
    fn scan(
        &mut self,
        layer: &ConvSpec,
        arch: &PackageConfig,
        tech: &Technology,
        objective: Objective,
        ranking: &Ranking,
        space: &CandidateSpace,
        range: Range<usize>,
    ) -> Tally {
        let resolved =
            self.fill_floors(layer, arch, tech, objective, ranking, space, range.clone());
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
        Tally {
            feasible,
            pruned,
            resolved,
        }
    }
}

/// The penalty-free floor of `geom` under `rotation`, scored: the
/// `f64` path of [`Floors::from_volumes`].
#[inline]
fn pair_floor(
    geom: &MappingGeometry,
    rotation: RotationMode,
    arch: &PackageConfig,
    tech: &Technology,
    objective: Objective,
) -> f64 {
    let (v, _, _) = geom.volumes_for(rotation);
    let (streams, cycles) = (geom.weight_streams(), geom.compute_cycles());
    Floors::from_volumes(&v, streams, cycles, arch, tech).score(objective, tech)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::tests::starved;
    use crate::kernel::tests::{layers, machines};
    use crate::reference::{self, LayerProfiles};
    use baton_arch::presets;
    use baton_mapping::enumerate::{enumerate_into, EnumOptions};
    use baton_mapping::mapping_geometry;
    use baton_model::zoo;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// On random layers and machines, half of them starved, each
        /// ladder's prefix floor, as the walk computes it, is at or under
        /// the penalty-free floor of every valid rung under the same
        /// rotation, for every objective: a ladder it prunes holds no pair
        /// that phase B would keep.
        #[test]
        fn a_ladders_prefix_floor_never_exceeds_a_rungs_floor(
            layer in layers(),
            arch in machines(),
            starve in 0u8..2,
        ) {
            let arch = if starve == 1 { starved(arch) } else { arch };
            let tech = Technology::paper_16nm();
            let mut space = CandidateSpace::default();
            let stats = space.fill(&layer, &arch, EnumOptions::default());
            let mut memo = GeomMemo::default();
            memo.reset(stats.geoms);
            let mut bounded = 0;
            for ladder in space.ladders(0..stats.emitted) {
                let rung = |g| space.mapping(ladder.rung(g));
                let depths = ladder.geoms().map(|g| rung(g).chiplet_tile.co);
                let first = rung(ladder.geoms().start);
                let channel = ChannelFloor::of(&layer, &arch, &first, depths, memo.terms());
                let Some((m, checked)) = ladder
                    .geoms()
                    .find_map(|g| memo.check(&layer, &arch, g, &rung(g)).map(|c| (rung(g), c)))
                else {
                    continue;
                };
                let bound = checked.ladder_bound(&layer, &arch, &m, &channel, memo.terms());
                for g in ladder.geoms() {
                    let Ok(geom) = mapping_geometry(&layer, &arch, &rung(g)) else {
                        continue;
                    };
                    for &rotation in ladder.rotations() {
                        let (v, _, _) = geom.volumes_for(rotation);
                        let rung_floor = Floors::from_volumes(
                            &v,
                            geom.weight_streams(),
                            geom.compute_cycles(),
                            &arch,
                            &tech,
                        );
                        for objective in [Objective::Energy, Objective::Edp, Objective::Runtime] {
                            let prefix = pair_floor(&bound, rotation, &arch, &tech, objective);
                            let floor = rung_floor.score(objective, &tech);
                            prop_assert!(
                                prefix <= floor,
                                "{:?} {:?}: prefix {} above {} for {:?}",
                                objective, rotation, prefix, floor, rung(g)
                            );
                        }
                        bounded += 1;
                    }
                }
            }
            prop_assert!(bounded > 0, "no valid rung");
        }
    }

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
                // No incumbent: the `k`-th score stays infinite.
                let none = Ranking::new(1);
                let mut scratch = scratch(stats.geoms);
                // Uneven chunks, so siblings of one geometry land in
                // different chunks, as on the search workers.
                for start in (0..stats.emitted).step_by(700) {
                    let end = (start + 700).min(stats.emitted);
                    let range = start..end;
                    scratch.fill_floors(&layer, &arch, &tech, objective, &none, &space, range);
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
