//! Theoretical lower bounds: the compulsory-traffic floor every mapping is
//! measured against.
//!
//! C3P tells us what a *given* mapping costs; these bounds say what *any*
//! mapping must cost — each unique tensor element crosses the DRAM pins at
//! least once, and the MACs take at least `macs / peak` cycles. The ratio
//! between a search result and its bound (the *optimality gap*) is how the
//! tests and reports judge whether the exhaustive search is doing its job.
//!
//! [`Floors`] are the mapping search's per-candidate bounds. The
//! penalty-free floor prices every C³P path at its base volume. The
//! order-free penalty floor ([`PairFloor`]) adds each path's reload
//! multiplier at a machine's capacities, at the least any temporal order
//! of the candidate's `(geometry, rotation)` pair pays. It is one set of
//! staircases per pair, read at the searched machine by the mapping
//! search and at each pruning corner by the pre-design sweep. The orders
//! permute loops only within a nest level (the rotation loop, the three
//! core-level loops, the three chiplet-level loops), so an order can open
//! a loop's reuse region no earlier than at its level's entry, where the
//! footprint is the smallest any order gives it. Hence each loop that does
//! not index a path's tensor multiplies the path by its trip count exactly
//! when the capacity is below the footprint on entry to its level:
//!
//! - input paths (DRAM and D2D at A-L2, the A-L2 read at A-L1): a weight
//!   rotation loop (CO, `N_P`) at position 0, the core CO loop after the
//!   rotation loop, the chiplet CO loop after the core level;
//! - weight paths (at the effective W-L1): the core HO·WO loops after the
//!   rotation loop, the chiplet HO·WO loops after the core level. The
//!   rotation loop slices CI or CO, which both index weights, so it adds
//!   no weight step;
//! - a rotated tensor's DRAM path applies the home slice `1/N_P` from the
//!   core level up, as the walk does above the rotation loop.
//!
//! The order that puts each such loop first in its level pays exactly this,
//! so the floor is the per-path minimum over the four orders, and it costs
//! three coverage states instead of four nests.

use baton_arch::{PackageConfig, Technology};
use baton_mapping::{Decomposition, Mapping, MappingGeometry, Volumes};
use baton_model::{ConvSpec, ACT_BITS, WGT_BITS};
use serde::{Deserialize, Serialize};

use crate::evaluate::{price, runtime_bound, AccessCounts, Evaluation};
use crate::kernel::{Paths, Rung, Staircases};
use crate::search::Objective;

/// Compulsory traffic and compute floors for one layer on one machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficBounds {
    /// Minimum DRAM input reads in bits (touched elements only; subsampling
    /// layers touch less than the full tensor).
    pub dram_input_bits: u64,
    /// Minimum DRAM weight reads in bits (each weight once).
    pub dram_weight_bits: u64,
    /// Minimum DRAM output writes in bits (each output once).
    pub dram_output_bits: u64,
    /// Minimum runtime in cycles at perfect MAC utilization.
    pub compute_cycles: u64,
}

impl TrafficBounds {
    /// Computes the floors for `layer` on `arch`.
    pub fn of(layer: &ConvSpec, arch: &PackageConfig) -> Self {
        // Touched input extent per axis: overlapping windows touch the whole
        // clipped span; disjoint (subsampling) windows touch `out * k`.
        let touched = |out: u32, k: u32, s: u32, input: u32| -> u64 {
            if s <= k {
                u64::from(input.min((out - 1) * s + k))
            } else {
                u64::from(input).min(u64::from(out) * u64::from(k))
            }
        };
        let rows = touched(layer.ho(), layer.kh(), layer.stride_h(), layer.hi());
        let cols = touched(layer.wo(), layer.kw(), layer.stride_w(), layer.wi());
        Self {
            dram_input_bits: rows * cols * u64::from(layer.ci()) * ACT_BITS,
            dram_weight_bits: layer.weight_elems() * WGT_BITS,
            dram_output_bits: layer.output_elems() * ACT_BITS,
            compute_cycles: layer.macs().div_ceil(arch.total_macs().max(1)),
        }
    }

    /// Total DRAM floor in bits.
    pub fn dram_total_bits(&self) -> u64 {
        self.dram_input_bits + self.dram_weight_bits + self.dram_output_bits
    }

    /// DRAM-traffic optimality gap of an evaluation (1.0 = at the floor).
    pub fn dram_gap(&self, ev: &Evaluation) -> f64 {
        ev.access.dram_total_bits() as f64 / self.dram_total_bits().max(1) as f64
    }

    /// Runtime optimality gap of an evaluation (1.0 = perfect utilization).
    pub fn runtime_gap(&self, ev: &Evaluation) -> f64 {
        ev.cycles as f64 / self.compute_cycles.max(1) as f64
    }
}

/// Per-candidate score floors for the branch-and-bound mapping search.
///
/// For one decomposition, this is the evaluation the candidate would get if
/// every buffer were adequately sized: each capacity-dependent access
/// profile resolves at its *base* volume, which is the profile's lower
/// limit. Access counts, energy and runtime are all monotone in those
/// volumes, so the floor score never exceeds the candidate's true score —
/// and *equals* it exactly (same `f64` path) whenever no capacity penalty
/// triggers. A candidate whose floor is already worse than the search
/// incumbent can therefore be discarded before the expensive profile build.
///
/// [`PairFloor::at`] is the second, tighter floor the search prunes on:
/// the same assembly with each path's C³P penalty included, at the least
/// any temporal order of the candidate's `(geometry, rotation)` pair pays,
/// read in closed form off the nest's three levels (see the module
/// documentation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Floors {
    /// The penalty-free access counts (every profile at its base volume).
    pub access: AccessCounts,
    /// Energy floor in pJ.
    pub energy_pj: f64,
    /// Runtime floor in cycles.
    pub cycles: u64,
}

impl Floors {
    /// Computes the floor evaluation of one decomposition.
    pub fn of(d: &Decomposition, arch: &PackageConfig, tech: &Technology) -> Self {
        Self::from_volumes(&d.volumes, d.weight_streams, d.compute_cycles, arch, tech)
    }

    /// Computes the floor from base volumes alone — the batched evaluator's
    /// entry point, which has a [`baton_mapping::MappingGeometry`] rather
    /// than a full `Decomposition`. [`Floors::of`] delegates here, so both
    /// search paths share the identical `f64` arithmetic (the prune rule and
    /// the bit-identity guarantee depend on that).
    pub fn from_volumes(
        v: &Volumes,
        weight_streams: u32,
        compute_cycles: u64,
        arch: &PackageConfig,
        tech: &Technology,
    ) -> Self {
        // The kernel's assembly with every path at its base volume.
        Self::from_paths(
            &Paths::base(v),
            v,
            weight_streams,
            compute_cycles,
            arch,
            tech,
        )
    }

    /// The floor of one resolve of the paths: the kernel's access assembly,
    /// the energy price and the runtime bound.
    fn from_paths(
        paths: &Paths,
        v: &Volumes,
        weight_streams: u32,
        compute_cycles: u64,
        arch: &PackageConfig,
        tech: &Technology,
    ) -> Self {
        let access = paths.access(v, u64::from(weight_streams));
        let energy_pj = price(&access, arch, tech).total_pj();
        let (cycles, _) = runtime_bound(compute_cycles, &access, arch, tech);
        Self {
            access,
            energy_pj,
            cycles,
        }
    }

    /// The floor mapped through a search objective (lower is better).
    pub fn score(&self, objective: Objective, tech: &Technology) -> f64 {
        match objective {
            Objective::Energy => self.energy_pj,
            Objective::Runtime => self.cycles as f64,
            Objective::Edp => self.energy_pj * 1e-12 * tech.cycles_to_seconds(self.cycles),
        }
    }
}

/// The order-free C³P staircases of one `(geometry, rotation)` pair (the
/// kernel's `Staircases::order_free`): each path's smallest reload
/// multiplier over the pair's temporal orders, at every capacity. Built
/// once per pair and read at any machine's buffer capacities: the mapping
/// search reads it at its machine, the pre-design sweep at each pruning
/// corner.
///
/// Read at a machine, it is [`Floors::from_volumes`] with each C³P path at
/// its base volume times that multiplier. Access counts, energy and
/// runtime are monotone in the paths, so it never exceeds the score of
/// any of the pair's candidates at the same capacities, and it is never
/// below the penalty-free floor, which it equals bit for bit when no
/// capacity penalty fires.
#[derive(Debug, Clone, Copy)]
pub struct PairFloor {
    stairs: Staircases,
    volumes: Volumes,
    /// Cores sharing one weight stream (effective W-L1 pool share).
    plane_ways: u64,
    weight_streams: u32,
    compute_cycles: u64,
}

impl PairFloor {
    /// The order-free staircases of `mapping`'s `(geometry, rotation)`
    /// pair on `geom`.
    pub fn of(geom: &MappingGeometry, layer: &ConvSpec, mapping: &Mapping) -> Self {
        let (volumes, rot_in, rot_w) = geom.volumes_for(mapping.rotation);
        let levels = geom.nest_levels(layer, mapping, rot_in, rot_w);
        Self {
            stairs: Staircases::order_free(&levels, geom.n_p(), (rot_in, rot_w)),
            volumes,
            plane_ways: u64::from(geom.plane_ways()),
            weight_streams: geom.weight_streams(),
            compute_cycles: geom.compute_cycles(),
        }
    }

    /// The paths at `arch`'s A-L1, A-L2 and W-L1 capacities, the W-L1 as
    /// the pair's pool share (on the geometry's own machine, its
    /// [`MappingGeometry::effective_w_l1_bits`]).
    #[inline]
    pub(crate) fn paths(&self, arch: &PackageConfig) -> Paths {
        let w_eff_bits = self.plane_ways * arch.chiplet.core.w_l1_bytes * 8;
        self.stairs
            .at(&self.volumes, Rung::machine(arch, w_eff_bits))
    }

    /// The floor's energy in pJ on `arch`: the same `f64` as
    /// [`Self::at`]`(arch, tech).energy_pj`, without the runtime bound.
    #[inline]
    pub fn energy_pj(&self, arch: &PackageConfig, tech: &Technology) -> f64 {
        let access = self
            .paths(arch)
            .access(&self.volumes, u64::from(self.weight_streams));
        price(&access, arch, tech).total_pj()
    }

    /// The floor on `arch`, whose buffer capacities are the rung it is
    /// read at.
    pub fn at(&self, arch: &PackageConfig, tech: &Technology) -> Floors {
        Floors::from_paths(
            &self.paths(arch),
            &self.volumes,
            self.weight_streams,
            self.compute_cycles,
            arch,
            tech,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    use crate::evaluate::evaluate_decomposition;
    use crate::kernel::tests::{layers, machines};
    use crate::kernel::NestView;
    use crate::{reference, search_layer, Objective};
    use baton_arch::{presets, Technology};
    use baton_mapping::enumerate::{CandidateSpace, EnumOptions, Slot};
    use baton_mapping::{decompose, mapping_geometry, NestScratch};
    use baton_model::zoo;
    use proptest::prelude::*;

    const OBJECTIVES: [Objective; 3] = [Objective::Energy, Objective::Edp, Objective::Runtime];

    /// `arch` with its A-L1, A-L2 and W-L1 starved (320 B, 2 KiB, 2 KiB),
    /// so that capacity penalties fire on most candidates.
    fn starved(mut arch: PackageConfig) -> PackageConfig {
        arch.chiplet.core.a_l1_bytes = 320;
        arch.chiplet.a_l2_bytes = 2 * 1024;
        arch.chiplet.core.w_l1_bytes = 2 * 1024;
        arch
    }

    fn path_bits(p: Paths) -> [u64; 5] {
        [
            p.dram_input,
            p.d2d_input,
            p.a_l2_read,
            p.dram_weight,
            p.d2d_weight,
        ]
    }

    /// The order-free paths of `slot`'s pair at the machine's capacities.
    fn order_free_paths(
        geom: &MappingGeometry,
        layer: &ConvSpec,
        slot: Slot,
        space: &CandidateSpace,
        arch: &PackageConfig,
    ) -> (Paths, Volumes) {
        let floor = PairFloor::of(geom, layer, &space.mapping(slot));
        (floor.paths(arch), floor.volumes)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// On random layers and machines, starved or not, the order-free
        /// penalty floor is the same from every order of a pair, never
        /// exceeds a candidate's access counts or score under the oracle
        /// evaluator, never falls below the penalty-free floor, and equals
        /// it bit for bit when no step fires.
        #[test]
        fn order_free_floor_never_exceeds_a_candidates_score(
            layer in layers(),
            arch in machines(),
            starve in 0u8..2,
        ) {
            let arch = if starve == 1 { starved(arch) } else { arch };
            let tech = Technology::paper_16nm();
            let mut space = CandidateSpace::default();
            let emitted = space.fill(&layer, &arch, EnumOptions::default()).emitted;
            let mut pairs: HashMap<usize, Floors> = HashMap::new();
            for s in space.slots(0..emitted) {
                let m = space.mapping(s);
                let Ok(geom) = mapping_geometry(&layer, &arch, &m) else {
                    continue;
                };
                let pair = PairFloor::of(&geom, &layer, &m);
                let fl = pair.at(&arch, &tech);
                prop_assert_eq!(pair.energy_pj(&arch, &tech).to_bits(), fl.energy_pj.to_bits());
                prop_assert_eq!(*pairs.entry(s.pair()).or_insert(fl), fl, "{:?}", m);
                let d = decompose(&layer, &arch, &m).expect("the geometry decomposed");
                let ev = reference::evaluate_decomposition(&d, &arch, &tech, &m);
                let (f, a) = (fl.access, ev.access);
                prop_assert!(
                    f.dram_input_bits <= a.dram_input_bits
                        && f.dram_weight_bits <= a.dram_weight_bits
                        && f.d2d_bits <= a.d2d_bits
                        && f.a_l2_bits <= a.a_l2_bits
                        && f.a_l1_bits <= a.a_l1_bits
                        && f.w_l1_bits <= a.w_l1_bits,
                    "{:?}: floor {:?} above {:?}", m, f, a
                );
                let base = Floors::of(&d, &arch, &tech);
                for obj in OBJECTIVES {
                    let floor = fl.score(obj, &tech);
                    prop_assert!(floor <= obj.score(&ev, &tech), "{:?} {:?}", obj, m);
                    prop_assert!(base.score(obj, &tech) <= floor, "{:?} {:?}", obj, m);
                }
                let (paths, v) = order_free_paths(&geom, &layer, s, &space, &arch);
                if paths == Paths::base(&v) {
                    prop_assert_eq!(fl, base);
                }
            }
        }
    }

    /// Buffer capacities in bytes, from starved to generous.
    const CAPACITIES: [u64; 9] = [
        256,
        320,
        1024,
        2048,
        4096,
        16 << 10,
        64 << 10,
        256 << 10,
        1 << 20,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A pair floor's paths never grow with a buffer: raising any one of
        /// A-L1, A-L2 or W-L1 a rung, the others held, leaves every path at
        /// most where it was. A floor over a box of capacities can read
        /// each path at the box's largest corner on this.
        #[test]
        fn pair_floor_paths_do_not_increase_with_capacity(
            layer in layers(),
            arch in machines(),
            rungs in (0..CAPACITIES.len() - 1, 0..CAPACITIES.len() - 1, 0..CAPACITIES.len() - 1),
        ) {
            let at = |(a1, a2, w1): (usize, usize, usize)| {
                let mut m = arch;
                m.chiplet.core.a_l1_bytes = CAPACITIES[a1];
                m.chiplet.a_l2_bytes = CAPACITIES[a2];
                m.chiplet.core.w_l1_bytes = CAPACITIES[w1];
                m
            };
            let base = at(rungs);
            let (a1, a2, w1) = rungs;
            let raised = [at((a1 + 1, a2, w1)), at((a1, a2 + 1, w1)), at((a1, a2, w1 + 1))];
            let mut space = CandidateSpace::default();
            let emitted = space.fill(&layer, &arch, EnumOptions::default()).emitted;
            let mut seen = std::collections::HashSet::new();
            for s in space.slots(0..emitted) {
                if !seen.insert(s.pair()) {
                    continue;
                }
                let m = space.mapping(s);
                let Ok(geom) = mapping_geometry(&layer, &arch, &m) else {
                    continue;
                };
                let floor = PairFloor::of(&geom, &layer, &m);
                let low = path_bits(floor.paths(&base));
                for (axis, machine) in raised.iter().enumerate() {
                    let high = path_bits(floor.paths(machine));
                    prop_assert!(
                        high.iter().zip(low).all(|(h, l)| *h <= l),
                        "axis {}: {:?} above {:?} for {:?}", axis, high, low, m
                    );
                }
            }
        }
    }

    #[test]
    fn order_free_paths_are_the_per_path_minimum_over_the_orders() {
        // The floor is tight: on zoo layers, each path's order-free volume
        // is the least that any order of its pair pays, on the case-study
        // machine and on a starved one.
        let case_study = presets::case_study_accelerator();
        let mut nest = NestScratch::default();
        let mut pairs = 0;
        for arch in [case_study, starved(case_study)] {
            for (bucket, layer) in zoo::representative_layers(224) {
                let mut space = CandidateSpace::default();
                let emitted = space.fill(&layer, &arch, EnumOptions::default()).emitted;
                let mut least: HashMap<usize, (Slot, [u64; 5])> = HashMap::new();
                for s in space.slots(0..emitted) {
                    let m = space.mapping(s);
                    let Ok(geom) = mapping_geometry(&layer, &arch, &m) else {
                        continue;
                    };
                    let n = NestView::build(&geom, &layer, &m, &mut nest);
                    let rung = Rung::machine(&arch, n.w_eff_bits);
                    let got = path_bits(n.stairs().at(&n.volumes, rung));
                    let (_, min) = least.entry(s.pair()).or_insert((s, got));
                    for (m, g) in min.iter_mut().zip(got) {
                        *m = (*m).min(g);
                    }
                }
                for (s, min) in least.into_values() {
                    let geom = mapping_geometry(&layer, &arch, &space.mapping(s)).unwrap();
                    let (p, _) = order_free_paths(&geom, &layer, s, &space, &arch);
                    assert_eq!(path_bits(p), min, "{bucket}: {:?}", space.mapping(s));
                    pairs += 1;
                }
            }
        }
        assert!(pairs > 1000, "only {pairs} pairs compared");
    }

    #[test]
    fn search_results_respect_the_floors() {
        let arch = presets::case_study_accelerator();
        let tech = Technology::paper_16nm();
        for (bucket, layer) in zoo::representative_layers(224) {
            let b = TrafficBounds::of(&layer, &arch);
            let ev = search_layer(&layer, &arch, &tech, Objective::Energy).unwrap();
            assert!(
                ev.access.dram_total_bits() >= b.dram_total_bits(),
                "{bucket}"
            );
            assert!(ev.cycles >= b.compute_cycles, "{bucket}");
            assert!(b.dram_gap(&ev) >= 1.0);
            assert!(b.runtime_gap(&ev) >= 1.0);
        }
    }

    #[test]
    fn good_mappings_land_close_to_the_dram_floor() {
        // On the case-study machine with its 64 KB A-L2, the search should
        // stay within ~2.5x of compulsory DRAM traffic on every
        // representative layer (halo duplication and tile reloads are the
        // remaining gap).
        let arch = presets::case_study_accelerator();
        let tech = Technology::paper_16nm();
        for (bucket, layer) in zoo::representative_layers(224) {
            let b = TrafficBounds::of(&layer, &arch);
            let ev = search_layer(&layer, &arch, &tech, Objective::Energy).unwrap();
            let gap = b.dram_gap(&ev);
            assert!(gap < 2.5, "{bucket}: DRAM gap {gap}");
        }
    }

    #[test]
    fn subsampling_layers_have_a_smaller_input_floor() {
        let arch = presets::case_study_accelerator();
        // ResNet downsample: 1x1 stride-2 touches a quarter of the plane.
        let ds = zoo::resnet50(224).layer("res3a_branch1").cloned().unwrap();
        let b = TrafficBounds::of(&ds, &arch);
        assert!(b.dram_input_bits < ds.input_bits());
        assert_eq!(
            b.dram_input_bits,
            u64::from(ds.ho()) * u64::from(ds.wo()) * u64::from(ds.ci()) * 8
        );
        // A same-padding 3x3 touches (almost) everything.
        let full = zoo::resnet50(224).layer("res2a_branch2b").cloned().unwrap();
        let bf = TrafficBounds::of(&full, &arch);
        assert_eq!(bf.dram_input_bits, full.input_bits());
    }

    #[test]
    fn runtime_floor_matches_peak_throughput() {
        let arch = presets::case_study_accelerator();
        let layer = zoo::vgg16(224).layer("conv3_2").cloned().unwrap();
        let b = TrafficBounds::of(&layer, &arch);
        assert_eq!(b.compute_cycles, layer.macs().div_ceil(2048));
    }

    #[test]
    fn candidate_floors_never_exceed_the_true_score() {
        // The branch-and-bound invariant: for every decomposable candidate
        // and every objective, `Floors` is a true lower bound — otherwise
        // pruning could discard the optimum.
        let arch = presets::case_study_accelerator();
        let tech = Technology::paper_16nm();
        let layer = zoo::resnet50(224).layer("res2a_branch2b").cloned().unwrap();
        let mut checked = 0u32;
        for m in baton_mapping::enumerate::candidates(&layer, &arch) {
            let Ok(d) = baton_mapping::decompose(&layer, &arch, &m) else {
                continue;
            };
            let fl = Floors::of(&d, &arch, &tech);
            let ev = evaluate_decomposition(&d, &arch, &tech, &m);
            for obj in [Objective::Energy, Objective::Edp, Objective::Runtime] {
                let floor = fl.score(obj, &tech);
                let actual = obj.score(&ev, &tech);
                assert!(
                    floor <= actual,
                    "{obj:?}: floor {floor} > actual {actual} for {m:?}"
                );
            }
            assert!(fl.access.dram_total_bits() <= ev.access.dram_total_bits());
            assert!(fl.cycles <= ev.cycles);
            checked += 1;
        }
        assert!(checked > 100, "only {checked} candidates decomposed");
    }

    #[test]
    fn floors_are_exact_when_no_penalty_triggers() {
        // With generously oversized buffers every profile resolves at its
        // base volume, so the floor *is* the evaluation — bit for bit. This
        // is what makes the strict `floor > incumbent` prune rule safe on
        // score ties.
        let mut arch = presets::case_study_accelerator();
        arch.chiplet.a_l2_bytes *= 64;
        arch.chiplet.core.a_l1_bytes *= 64;
        arch.chiplet.core.w_l1_bytes *= 64;
        let tech = Technology::paper_16nm();
        let layer = zoo::vgg16(224).layer("conv3_2").cloned().unwrap();
        let mut exact = 0u32;
        for m in baton_mapping::enumerate::candidates(&layer, &arch)
            .into_iter()
            .take(64)
        {
            let Ok(d) = baton_mapping::decompose(&layer, &arch, &m) else {
                continue;
            };
            let fl = Floors::of(&d, &arch, &tech);
            let ev = evaluate_decomposition(&d, &arch, &tech, &m);
            if fl.access == ev.access {
                assert_eq!(fl.energy_pj, ev.energy.total_pj());
                assert_eq!(fl.cycles, ev.cycles);
                exact += 1;
            }
        }
        assert!(exact > 0, "oversized buffers should hit the floor exactly");
    }
}
