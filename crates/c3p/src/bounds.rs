//! Theoretical lower bounds: the compulsory-traffic floor every mapping is
//! measured against.
//!
//! C3P tells us what a *given* mapping costs; these bounds say what *any*
//! mapping must cost — each unique tensor element crosses the DRAM pins at
//! least once, and the MACs take at least `macs / peak` cycles. The ratio
//! between a search result and its bound (the *optimality gap*) is how the
//! tests and reports judge whether the exhaustive search is doing its job.

use baton_arch::{PackageConfig, Technology};
use baton_mapping::Decomposition;
use baton_model::{ConvSpec, ACT_BITS, WGT_BITS};
use serde::{Deserialize, Serialize};

use crate::evaluate::{price, runtime_bound, AccessCounts, Evaluation};
use crate::kernel::Paths;
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

/// Per-candidate score floor for the branch-and-bound mapping search.
///
/// For one decomposition, this is the evaluation the candidate would get if
/// every buffer were adequately sized: each capacity-dependent access
/// profile resolves at its *base* volume, which is the profile's lower
/// limit. Access counts, energy and runtime are all monotone in those
/// volumes, so the floor score never exceeds the candidate's true score —
/// and *equals* it exactly (same `f64` path) whenever no capacity penalty
/// triggers. A candidate whose floor is already worse than the search
/// incumbent can therefore be discarded before the expensive profile build.
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
        v: &baton_mapping::Volumes,
        weight_streams: u32,
        compute_cycles: u64,
        arch: &PackageConfig,
        tech: &Technology,
    ) -> Self {
        // The kernel's assembly with every path at its base volume.
        let access = Paths::base(v).access(v, u64::from(weight_streams));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate_decomposition;
    use crate::{search_layer, Objective};
    use baton_arch::{presets, Technology};
    use baton_model::zoo;

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
