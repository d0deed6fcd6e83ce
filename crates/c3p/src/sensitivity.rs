//! Buffer-sizing sensitivity: which capacity is worth growing next?
//!
//! Because the C3P accesses are piecewise-constant in each buffer
//! capacity, the exact energy effect of growing a buffer to its *next
//! critical capacity* can be computed without re-running any search: jump
//! each capacity to its next breakpoint, re-resolve, re-price. The result is
//! the discrete analogue of a gradient, and the honest version of the
//! question architects ask the pre-design flow ("would a bigger A-L2 help
//! *this* model?").

use baton_arch::{PackageConfig, Technology};
use baton_mapping::Decomposition;
use serde::{Deserialize, Serialize};

use crate::evaluate::price;
use crate::kernel::{NestView, Rung};
use crate::walk::Staircase;

/// The buffers whose capacity the analysis can move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Knob {
    /// Per-core activation buffer.
    AL1,
    /// Shared chiplet activation buffer.
    AL2,
    /// Per-core weight buffer (scales the pool share).
    WL1,
}

impl Knob {
    /// All knobs, for iteration.
    pub const ALL: [Knob; 3] = [Knob::AL1, Knob::AL2, Knob::WL1];
}

/// The effect of growing one buffer to its next critical capacity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KnobEffect {
    /// Which buffer.
    pub knob: Knob,
    /// Current capacity in bytes.
    pub current_bytes: u64,
    /// The next critical capacity in bytes (`None` when the buffer already
    /// covers every breakpoint: growing it further cannot reduce traffic).
    pub next_cc_bytes: Option<u64>,
    /// Energy at the current size in pJ.
    pub energy_now_pj: f64,
    /// Energy with the buffer grown to the next critical capacity, in pJ
    /// (equals `energy_now_pj` when saturated). Includes the higher
    /// per-access energy of the larger buffer.
    pub energy_next_pj: f64,
}

impl KnobEffect {
    /// Energy saved per extra byte, pJ/B (0 when saturated or when growth
    /// costs more than it saves).
    pub fn saving_per_byte(&self) -> f64 {
        match self.next_cc_bytes {
            Some(next) if next > self.current_bytes => ((self.energy_now_pj - self.energy_next_pj)
                / (next - self.current_bytes) as f64)
                .max(0.0),
            _ => 0.0,
        }
    }
}

/// Computes the next-breakpoint effect of every knob for one layer's
/// decomposition on `arch`.
pub fn knob_effects(d: &Decomposition, arch: &PackageConfig, tech: &Technology) -> Vec<KnobEffect> {
    let a_l1 = arch.chiplet.core.a_l1_bytes;
    let a_l2 = arch.chiplet.a_l2_bytes;
    let w_l1 = arch.chiplet.core.w_l1_bytes;
    let plane_ways = u64::from(d.plane_ways).max(1);
    let n = NestView::of(d);
    let stairs = n.stairs();

    let energy_at = |a1: u64, a2: u64, w1: u64| -> f64 {
        let rung = Rung {
            a_l1_bits: Some(a1 * 8),
            a_l2_bits: Some(a2 * 8),
            w_eff_bits: Some(plane_ways * w1 * 8),
        };
        let paths = stairs.at(&n.volumes, rung);
        paths.count_penalties(&n.volumes);
        let access = paths.access(&n.volumes, n.fill_streams);
        let mut sized = *arch;
        sized.chiplet.core.a_l1_bytes = a1;
        sized.chiplet.a_l2_bytes = a2;
        sized.chiplet.core.w_l1_bytes = w1;
        price(&access, &sized, tech).total_pj()
    };
    let now = energy_at(a_l1, a_l2, w_l1);

    // Next critical capacity strictly above the current one, per knob.
    let next_above = |paths: &[&Staircase], cur_bits: u64| -> Option<u64> {
        paths
            .iter()
            .flat_map(|s| s.capacities())
            .filter(|&b| b > cur_bits)
            .min()
    };
    let a_l1_next = next_above(&[&stairs.a_l2_read], a_l1 * 8).map(|bits| bits.div_ceil(8));
    let a_l2_next =
        next_above(&[&stairs.dram_input, &stairs.d2d_input], a_l2 * 8).map(|bits| bits.div_ceil(8));
    let w_l1_next = next_above(
        &[&stairs.dram_weight, &stairs.d2d_weight],
        plane_ways * w_l1 * 8,
    )
    .map(|bits| bits.div_ceil(8 * plane_ways));

    vec![
        KnobEffect {
            knob: Knob::AL1,
            current_bytes: a_l1,
            next_cc_bytes: a_l1_next,
            energy_now_pj: now,
            energy_next_pj: a_l1_next.map(|n| energy_at(n, a_l2, w_l1)).unwrap_or(now),
        },
        KnobEffect {
            knob: Knob::AL2,
            current_bytes: a_l2,
            next_cc_bytes: a_l2_next,
            energy_now_pj: now,
            energy_next_pj: a_l2_next.map(|n| energy_at(a_l1, n, w_l1)).unwrap_or(now),
        },
        KnobEffect {
            knob: Knob::WL1,
            current_bytes: w_l1,
            next_cc_bytes: w_l1_next,
            energy_now_pj: now,
            energy_next_pj: w_l1_next.map(|n| energy_at(a_l1, a_l2, n)).unwrap_or(now),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{search_layer, Objective};
    use baton_arch::presets;
    use baton_mapping::decompose;
    use baton_model::zoo;

    fn effects_for(layer_name: &str, shrink_a_l2: bool) -> (Vec<KnobEffect>, PackageConfig) {
        let mut arch = presets::case_study_accelerator();
        if shrink_a_l2 {
            arch.chiplet.a_l2_bytes = 4 * 1024;
        }
        let tech = Technology::paper_16nm();
        let layer = zoo::resnet50(224).layer(layer_name).cloned().unwrap();
        let best = search_layer(&layer, &arch, &tech, Objective::Energy).unwrap();
        let d = decompose(&layer, &arch, &best.mapping).unwrap();
        (knob_effects(&d, &arch, &tech), arch)
    }

    #[test]
    fn saturated_buffers_report_no_gain() {
        // On the generously sized case-study machine the best mapping keeps
        // inputs resident: the remaining knob savings are ~0.
        let (effects, _) = effects_for("res2a_branch2b", false);
        for e in &effects {
            assert!(e.energy_next_pj <= e.energy_now_pj + 1e-6);
            assert!(e.saving_per_byte() >= 0.0);
        }
    }

    #[test]
    fn starved_a_l2_shows_a_breakpoint_and_a_saving() {
        let (effects, arch) = effects_for("res2a_branch2b", true);
        let a_l2 = effects.iter().find(|e| e.knob == Knob::AL2).unwrap();
        assert_eq!(a_l2.current_bytes, arch.chiplet.a_l2_bytes);
        // The 4 KB A-L2 sits below some critical capacity...
        if let Some(next) = a_l2.next_cc_bytes {
            assert!(next > a_l2.current_bytes);
            // ...and jumping there cannot increase DRAM traffic; energy may
            // only rise through per-access cost, which the breakpoint saving
            // dominates for DRAM-bound layers.
            assert!(a_l2.energy_next_pj <= a_l2.energy_now_pj * 1.05);
        }
    }

    #[test]
    fn effects_cover_all_knobs_once() {
        let (effects, _) = effects_for("conv1", false);
        assert_eq!(effects.len(), 3);
        let knobs: std::collections::BTreeSet<_> =
            effects.iter().map(|e| format!("{:?}", e.knob)).collect();
        assert_eq!(knobs.len(), 3);
    }
}
