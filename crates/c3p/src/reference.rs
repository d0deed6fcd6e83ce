//! The materialized C³P oracle: each data path as an [`AccessProfile`]
//! (base traffic plus a `Vec` of capacity [`Breakpoint`]s), resolved at
//! explicit capacities.
//!
//! Production reads every path off the C³P kernel's inline staircases;
//! this module is the second, independent resolve the equivalence
//! harnesses hold it to ([`evaluate_decomposition`] behind
//! `search_layer_reference` and the k-best oracle, [`LayerProfiles`] +
//! [`resolve_at_capacities`] behind the sweep's reference engine). Only
//! the region walk and the final access assembly are shared.

use baton_arch::{PackageConfig, Technology};
use baton_mapping::{Decomposition, Dim, LoopLevel, LoopNest, Mapping};
use baton_telemetry::{count, Counter};
use serde::{Deserialize, Serialize};

use crate::evaluate::{price, runtime_bound, AccessCounts, Evaluation};
use crate::kernel::Paths;
use crate::walk::walk_regions;

/// One critical capacity of a buffer (Equation (2) of the paper): if the
/// buffer is smaller than `min_capacity_bits`, the enclosing reuse region
/// reloads the working set `multiplier` times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Breakpoint {
    /// Critical capacity `Cc_k` in bits.
    pub min_capacity_bits: u64,
    /// Reuse-region loop-count product `P_k`.
    pub multiplier: u64,
}

/// The total access of one data path as a function of the buffer capacity:
/// `A_tot = A0 * prod_k P_k` over the breakpoints whose critical capacity
/// exceeds the buffer size (Equation (1); see DESIGN.md for the `1 +`
/// reading).
///
/// ```
/// use baton_c3p::reference::{AccessProfile, Breakpoint};
///
/// let p = AccessProfile::new(100, vec![
///     Breakpoint { min_capacity_bits: 1024, multiplier: 4 },
///     Breakpoint { min_capacity_bits: 8192, multiplier: 3 },
/// ]);
/// assert_eq!(p.access_bits(16 * 1024), 100);      // everything fits
/// assert_eq!(p.access_bits(2048), 300);            // outer region reloads
/// assert_eq!(p.access_bits(512), 1200);            // both regions reload
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AccessProfile {
    base_bits: u64,
    breakpoints: Vec<Breakpoint>,
}

impl AccessProfile {
    /// Creates a profile; breakpoints are sorted by capacity and merged when
    /// they share a critical capacity.
    pub fn new(base_bits: u64, mut breakpoints: Vec<Breakpoint>) -> Self {
        breakpoints.retain(|b| b.multiplier > 1);
        breakpoints.sort_by_key(|b| b.min_capacity_bits);
        let mut merged: Vec<Breakpoint> = Vec::with_capacity(breakpoints.len());
        for b in breakpoints {
            match merged.last_mut() {
                Some(last) if last.min_capacity_bits == b.min_capacity_bits => {
                    last.multiplier *= b.multiplier;
                }
                _ => merged.push(b),
            }
        }
        Self {
            base_bits,
            breakpoints: merged,
        }
    }

    /// The intrinsic access `A0` in bits.
    pub fn base_bits(&self) -> u64 {
        self.base_bits
    }

    /// The capacity breakpoints, sorted ascending.
    pub fn breakpoints(&self) -> &[Breakpoint] {
        &self.breakpoints
    }

    /// Penalty multiplier at a given buffer capacity.
    pub fn multiplier(&self, capacity_bits: u64) -> u64 {
        self.breakpoints
            .iter()
            .filter(|b| capacity_bits < b.min_capacity_bits)
            .map(|b| b.multiplier)
            .product()
    }

    /// Total access in bits at a given buffer capacity.
    pub fn access_bits(&self, capacity_bits: u64) -> u64 {
        self.base_bits
            .saturating_mul(self.multiplier(capacity_bits))
    }
}

/// Capacity-dependent access profiles of one `(layer, mapping)` pair: the
/// five paths the kernel walks into staircases, materialized.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerProfiles {
    /// DRAM input reads vs. A-L2 capacity.
    pub dram_input: AccessProfile,
    /// Ring (D2D) input rotation traffic vs. A-L2 capacity.
    pub d2d_input: AccessProfile,
    /// A-L2 to bus reads vs. A-L1 capacity.
    pub a_l2_read: AccessProfile,
    /// DRAM weight reads vs. effective W-L1 (pool share) capacity.
    pub dram_weight: AccessProfile,
    /// Ring (D2D) weight rotation traffic vs. effective W-L1 capacity.
    pub d2d_weight: AccessProfile,
    /// Cores receiving each A-L2 multicast (A-L1 fill factor).
    pub fill_streams: u64,
}

impl LayerProfiles {
    /// Derives the profiles from a decomposition.
    pub fn build(d: &Decomposition) -> Self {
        let nest = &d.nest;
        let n_p = u64::from(d.n_p).max(1);
        // Position of the rotation loop, if it survived unit-loop dropping.
        let rot_pos = nest
            .loops()
            .iter()
            .position(|l| l.level == LoopLevel::Rotation);

        // Home-slice tier: above the rotation loop, only 1/N_P of the shared
        // working set must stay resident to avoid *DRAM* reloads (the rest
        // re-arrives over the ring, which the D2D profile prices).
        let sliced = |fp: &[u64], rotated: bool| -> Vec<u64> {
            if !rotated {
                return fp.to_vec();
            }
            let cut = rot_pos.map(|p| p + 1).unwrap_or(0);
            fp.iter()
                .enumerate()
                .map(|(i, &v)| if i >= cut { v / n_p } else { v })
                .collect()
        };

        let chip_in = &d.footprints.chiplet_input;
        let chip_in_dram = sliced(chip_in, d.rotate_inputs);
        let stream_w = &d.footprints.stream_weight;
        let stream_w_dram = sliced(stream_w, d.rotate_weights);

        let dram_input = AccessProfile::new(
            d.volumes.dram_input_base,
            c3p_breakpoints(nest, &chip_in_dram, Dim::input_relevant),
        );
        let d2d_input = AccessProfile::new(
            d.volumes.d2d_input_base,
            c3p_breakpoints(nest, chip_in, Dim::input_relevant),
        );
        let a_l2_read = AccessProfile::new(
            d.volumes.a_l2_read_base,
            c3p_breakpoints(nest, &d.footprints.core_input, Dim::input_relevant),
        );
        let dram_weight = AccessProfile::new(
            d.volumes.dram_weight_base,
            c3p_breakpoints(nest, &stream_w_dram, Dim::weight_relevant),
        );
        let d2d_weight = AccessProfile::new(
            d.volumes.d2d_weight_base,
            c3p_breakpoints(nest, stream_w, Dim::weight_relevant),
        );
        Self {
            dram_input,
            d2d_input,
            a_l2_read,
            dram_weight,
            d2d_weight,
            fill_streams: u64::from(d.weight_streams),
        }
    }
}

/// Computes the C3P breakpoints of a tensor over `nest`.
///
/// `footprints[i]` must give the tensor working set (bits) covering
/// everything strictly inside nest position `i` (`footprints.len() ==
/// nest.len() + 1`), and `relevant` classifies loop dimensions as critical
/// (indexing the tensor) or reusable.
///
/// # Panics
///
/// Panics if `footprints` is not exactly one longer than the nest.
pub fn c3p_breakpoints(
    nest: &LoopNest,
    footprints: &[u64],
    relevant: impl Fn(Dim) -> bool,
) -> Vec<Breakpoint> {
    assert_eq!(
        footprints.len(),
        nest.len() + 1,
        "footprint table must align with nest positions"
    );
    let mut out = Vec::new();
    walk_regions(
        nest.loops(),
        |i| footprints[i],
        relevant,
        |min_capacity_bits, multiplier| {
            out.push(Breakpoint {
                min_capacity_bits,
                multiplier,
            })
        },
    );
    out
}

/// Resolves the profiles at explicit buffer capacities (bits): each path's
/// breakpoint-vector multiplier, then the kernel's penalty counters and
/// access assembly.
pub fn resolve_at_capacities(
    d: &Decomposition,
    p: &LayerProfiles,
    a_l1_bits: u64,
    a_l2_bits: u64,
    w_eff_bits: u64,
) -> AccessCounts {
    let paths = Paths {
        dram_input: p.dram_input.access_bits(a_l2_bits),
        d2d_input: p.d2d_input.access_bits(a_l2_bits),
        a_l2_read: p.a_l2_read.access_bits(a_l1_bits),
        dram_weight: p.dram_weight.access_bits(w_eff_bits),
        d2d_weight: p.d2d_weight.access_bits(w_eff_bits),
    };
    paths.count_penalties(&d.volumes);
    paths.access(&d.volumes, p.fill_streams)
}

/// The oracle of [`crate::evaluate_decomposition`]: the profiles resolved
/// at the machine's own capacities, priced, and bounded in runtime, with
/// the same counters.
pub fn evaluate_decomposition(
    d: &Decomposition,
    arch: &PackageConfig,
    tech: &Technology,
    mapping: &Mapping,
) -> Evaluation {
    count(Counter::Evaluations);
    let access = resolve_at_capacities(
        d,
        &LayerProfiles::build(d),
        arch.chiplet.core.a_l1_bytes * 8,
        arch.chiplet.a_l2_bytes * 8,
        d.effective_w_l1_bits,
    );
    let energy = price(&access, arch, tech);
    let (cycles, utilization) = runtime_bound(d.compute_cycles, &access, arch, tech);
    Evaluation {
        mapping: *mapping,
        access,
        energy,
        compute_cycles: d.compute_cycles,
        cycles,
        utilization,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{self, NestView};
    use crate::sensitivity::{knob_effects, Knob, KnobEffect};
    use crate::verdict::{buffer_verdicts, BreakpointVerdict, BufferVerdict};
    use baton_arch::presets;
    use baton_mapping::enumerate::candidates;
    use baton_mapping::{decompose, Loop};
    use proptest::prelude::TestRng;
    use proptest::test_runner::{fnv1a, sample_with_retries};

    fn profile() -> AccessProfile {
        AccessProfile::new(
            10,
            vec![
                Breakpoint {
                    min_capacity_bits: 100,
                    multiplier: 2,
                },
                Breakpoint {
                    min_capacity_bits: 1000,
                    multiplier: 5,
                },
            ],
        )
    }

    #[test]
    fn multiplier_is_monotone_nonincreasing_in_capacity() {
        let p = profile();
        let mut last = u64::MAX;
        for cap in [0u64, 50, 100, 500, 1000, 5000] {
            let m = p.multiplier(cap);
            assert!(m <= last, "capacity {cap}");
            last = m;
        }
        assert_eq!(p.multiplier(0), 10);
        assert_eq!(p.multiplier(100), 5);
        assert_eq!(p.multiplier(1000), 1);
    }

    #[test]
    fn unit_multipliers_are_dropped() {
        let p = AccessProfile::new(
            7,
            vec![Breakpoint {
                min_capacity_bits: 10,
                multiplier: 1,
            }],
        );
        assert!(p.breakpoints().is_empty());
        assert_eq!(p.access_bits(0), 7);
    }

    #[test]
    fn equal_capacities_merge_multiplicatively() {
        let p = AccessProfile::new(
            1,
            vec![
                Breakpoint {
                    min_capacity_bits: 64,
                    multiplier: 3,
                },
                Breakpoint {
                    min_capacity_bits: 64,
                    multiplier: 4,
                },
            ],
        );
        assert_eq!(p.breakpoints().len(), 1);
        assert_eq!(p.multiplier(0), 12);
    }

    #[test]
    fn boundary_is_inclusive() {
        // A buffer exactly at Cc_k incurs no penalty (`buf >= Cc` in Eq. 2).
        let p = profile();
        assert_eq!(p.access_bits(99), 100);
        assert_eq!(p.access_bits(100), 50);
    }

    /// The verdicts judged from the materialized profiles: what
    /// `buffer_verdicts` must return.
    fn oracle_verdicts(d: &Decomposition, arch: &PackageConfig) -> Vec<BufferVerdict> {
        let p = LayerProfiles::build(d);
        let judge = |buffer, path, profile: &AccessProfile, capacity_bits: u64| BufferVerdict {
            buffer,
            path,
            capacity_bits,
            base_bits: profile.base_bits(),
            resolved_bits: profile.access_bits(capacity_bits),
            fired_multiplier: profile.multiplier(capacity_bits),
            breakpoints: profile
                .breakpoints()
                .iter()
                .map(|b| BreakpointVerdict {
                    cc_bits: b.min_capacity_bits,
                    multiplier: b.multiplier,
                    fired: capacity_bits < b.min_capacity_bits,
                })
                .collect(),
        };
        let a_l1 = arch.chiplet.core.a_l1_bytes * 8;
        let a_l2 = arch.chiplet.a_l2_bytes * 8;
        let w_eff = d.effective_w_l1_bits;
        vec![
            judge("A-L2", "DRAM input reads", &p.dram_input, a_l2),
            judge("A-L2", "ring input rotation", &p.d2d_input, a_l2),
            judge("A-L1", "A-L2 bus reads", &p.a_l2_read, a_l1),
            judge("W-L1 pool", "DRAM weight reads", &p.dram_weight, w_eff),
            judge("W-L1 pool", "ring weight rotation", &p.d2d_weight, w_eff),
        ]
    }

    /// The knob effects computed from the materialized profiles: what
    /// `knob_effects` must return.
    fn oracle_knob_effects(
        d: &Decomposition,
        arch: &PackageConfig,
        tech: &Technology,
    ) -> Vec<KnobEffect> {
        let p = LayerProfiles::build(d);
        let a_l1 = arch.chiplet.core.a_l1_bytes;
        let a_l2 = arch.chiplet.a_l2_bytes;
        let w_l1 = arch.chiplet.core.w_l1_bytes;
        let plane_ways = u64::from(d.plane_ways).max(1);
        let energy_at = |a1: u64, a2: u64, w1: u64| -> f64 {
            let access = resolve_at_capacities(d, &p, a1 * 8, a2 * 8, plane_ways * w1 * 8);
            let mut sized = *arch;
            sized.chiplet.core.a_l1_bytes = a1;
            sized.chiplet.a_l2_bytes = a2;
            sized.chiplet.core.w_l1_bytes = w1;
            price(&access, &sized, tech).total_pj()
        };
        let now = energy_at(a_l1, a_l2, w_l1);
        let next_above = |profiles: &[&AccessProfile], cur_bits: u64| -> Option<u64> {
            let ccs: Vec<u64> = profiles
                .iter()
                .flat_map(|p| p.breakpoints())
                .map(|b| b.min_capacity_bits)
                .collect();
            ccs.into_iter().filter(|&b| b > cur_bits).min()
        };
        let a_l1_next = next_above(&[&p.a_l2_read], a_l1 * 8).map(|bits| bits.div_ceil(8));
        let a_l2_next =
            next_above(&[&p.dram_input, &p.d2d_input], a_l2 * 8).map(|bits| bits.div_ceil(8));
        let w_l1_next = next_above(&[&p.dram_weight, &p.d2d_weight], plane_ways * w_l1 * 8)
            .map(|bits| bits.div_ceil(8 * plane_ways));
        let effect = |knob, current_bytes, next: Option<u64>, at: &dyn Fn(u64) -> f64| KnobEffect {
            knob,
            current_bytes,
            next_cc_bytes: next,
            energy_now_pj: now,
            energy_next_pj: next.map(at).unwrap_or(now),
        };
        vec![
            effect(Knob::AL1, a_l1, a_l1_next, &|n| energy_at(n, a_l2, w_l1)),
            effect(Knob::AL2, a_l2, a_l2_next, &|n| energy_at(a_l1, n, w_l1)),
            effect(Knob::WL1, w_l1, w_l1_next, &|n| energy_at(a_l1, a_l2, n)),
        ]
    }

    /// Checks `d`'s staircase verdicts and knob effects against the
    /// oracle's on `arch`; returns how many of its paths the walk leaves
    /// out of capacity order and how many have steps the sorted view
    /// merges.
    fn assert_matches_oracle(d: &Decomposition, arch: &PackageConfig) -> (u32, u32) {
        let tech = Technology::paper_16nm();
        let nest = d.nest.render();
        assert_eq!(buffer_verdicts(d, arch), oracle_verdicts(d, arch), "{nest}");
        let knobs = knob_effects(d, arch, &tech);
        assert_eq!(knobs, oracle_knob_effects(d, arch, &tech), "{nest}");
        let s = NestView::of(d).stairs();
        let (mut out_of_order, mut merged) = (0, 0);
        for path in [
            s.dram_input,
            s.d2d_input,
            s.a_l2_read,
            s.dram_weight,
            s.d2d_weight,
        ] {
            let ccs: Vec<u64> = path.capacities().collect();
            out_of_order += u32::from(ccs.windows(2).any(|w| w[0] > w[1]));
            merged += u32::from(path.sorted().count() < ccs.len());
        }
        (out_of_order, merged)
    }

    #[test]
    fn staircase_verdicts_and_knob_effects_match_the_oracle_on_generated_shapes() {
        // Generated `(layer, machine)` pairs, each on its own capacities and
        // on a starved copy (A-L2 2 KiB, A-L1 320 B), over an evenly
        // strided sample of every pair's candidates.
        let strategy = (kernel::tests::layers(), kernel::tests::machines());
        let mut rng = TestRng::new(fnv1a("staircase_verdicts_and_knob_effects"));
        let (mut compared, mut merged) = (0u32, 0u32);
        for _ in 0..24 {
            let (layer, machine) = sample_with_retries(&strategy, &mut rng).expect("a case");
            let mut starved = machine;
            starved.chiplet.a_l2_bytes = 2 * 1024;
            starved.chiplet.core.a_l1_bytes = 320;
            let cands = candidates(&layer, &machine);
            let stride = (cands.len() / 64).max(1);
            for m in cands.iter().step_by(stride) {
                for arch in [&machine, &starved] {
                    if let Ok(d) = decompose(&layer, arch, m) {
                        let (out_of_order, merged_paths) = assert_matches_oracle(&d, arch);
                        // An enumerated nest keeps every path in capacity
                        // order: the rotation loop is innermost and
                        // critical for the tensor it rotates, so every
                        // region of a sliced path lies above the cut.
                        assert_eq!(out_of_order, 0);
                        merged += merged_paths;
                        compared += 1;
                    }
                }
            }
        }
        assert!(
            compared > 500 && merged > 0,
            "{compared} decompositions compared, {merged} paths with merged steps"
        );
    }

    #[test]
    fn staircase_verdicts_match_the_oracle_on_a_hand_built_out_of_order_nest() {
        // A nest no enumerated mapping builds: a reuse region below the
        // rotation loop, so the home-slice cut divides only the outer
        // region's footprint and the sliced DRAM input path's walk order
        // (1000, then 3000 / 4 twice) is not its capacity order; the outer
        // two regions of every input path share one critical capacity and
        // merge.
        let arch = presets::case_study_accelerator();
        let layer = baton_model::zoo::resnet50(224)
            .layer("res2a_branch2b")
            .cloned()
            .unwrap();
        let m = candidates(&layer, &arch)
            .into_iter()
            .find(|m| decompose(&layer, &arch, m).is_ok_and(|d| d.rotate_inputs && d.n_p == 4))
            .expect("a ring-rotated candidate");
        let mut d = decompose(&layer, &arch, &m).unwrap();
        let l = |dim, count, level| Loop { dim, count, level };
        d.nest = LoopNest::new([
            l(Dim::Co, 4, LoopLevel::Core),
            l(Dim::Ci, 4, LoopLevel::Rotation),
            l(Dim::Ho, 2, LoopLevel::Core),
            l(Dim::Co, 3, LoopLevel::Chiplet),
            l(Dim::Wo, 2, LoopLevel::Chiplet),
            l(Dim::Co, 5, LoopLevel::Chiplet),
        ]);
        d.footprints.chiplet_input = vec![1000, 1000, 2000, 3000, 3000, 3000, 6000];
        d.footprints.core_input = vec![100, 100, 200, 300, 300, 300, 600];
        d.footprints.stream_weight = vec![10, 40, 40, 40, 120, 120, 600];
        // Starved and roomy machines, so steps fire on one and not the
        // other.
        let mut starved = arch;
        starved.chiplet.a_l2_bytes = 100;
        starved.chiplet.core.a_l1_bytes = 40;
        let (out_of_order, merged) = assert_matches_oracle(&d, &arch);
        assert_eq!(assert_matches_oracle(&d, &starved), (out_of_order, merged));
        assert!(out_of_order > 0 && merged > 0, "{out_of_order} {merged}");
    }
}
