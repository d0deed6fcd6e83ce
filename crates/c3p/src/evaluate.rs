//! Full evaluation of one mapping: access counts, energy, runtime.

use baton_arch::{PackageConfig, Technology};
use baton_mapping::{decompose, Decomposition, Mapping, MappingError};
use baton_model::ConvSpec;
use baton_telemetry::{count, Counter};
use serde::{Deserialize, Serialize};

use crate::energy::EnergyBreakdown;
use crate::kernel::{NestView, Rung};

/// Resolved access counts in bits (and MAC ops), per data path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AccessCounts {
    /// DRAM input reads.
    pub dram_input_bits: u64,
    /// DRAM weight reads.
    pub dram_weight_bits: u64,
    /// DRAM output writes.
    pub dram_output_bits: u64,
    /// Die-to-die ring traffic (inputs + weights).
    pub d2d_bits: u64,
    /// A-L2 accesses (fills + reads).
    pub a_l2_bits: u64,
    /// O-L2 accesses (writes + read-backs).
    pub o_l2_bits: u64,
    /// A-L1 accesses (fills + PE reads).
    pub a_l1_bits: u64,
    /// W-L1 accesses (fills + PE reads).
    pub w_l1_bits: u64,
    /// O-L1 register-file read-modify-write bits.
    pub o_l1_rmw_bits: u64,
    /// MAC operations.
    pub mac_ops: u64,
}

impl AccessCounts {
    /// Total DRAM traffic in bits.
    pub fn dram_total_bits(&self) -> u64 {
        self.dram_input_bits + self.dram_weight_bits + self.dram_output_bits
    }
}

/// The outcome of evaluating one mapping on one machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// The evaluated mapping.
    pub mapping: Mapping,
    /// Resolved access counts.
    pub access: AccessCounts,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Runtime in cycles: max of the compute critical path and the
    /// bandwidth bounds (DRAM, ring, per-chiplet bus).
    pub cycles: u64,
    /// Pure compute critical path in cycles.
    pub compute_cycles: u64,
    /// End-to-end MAC utilization (`mac_ops / (cycles * total MACs)`).
    pub utilization: f64,
}

impl Evaluation {
    /// Runtime in seconds at the technology clock.
    pub fn runtime_s(&self, tech: &Technology) -> f64 {
        tech.cycles_to_seconds(self.cycles)
    }

    /// Energy-delay product in joule-seconds.
    pub fn edp(&self, tech: &Technology) -> f64 {
        self.energy.total_pj() * 1e-12 * self.runtime_s(tech)
    }
}

/// Evaluates one mapping end to end.
///
/// # Errors
///
/// Returns [`MappingError`] if the mapping is illegal for the layer/machine
/// pair.
pub fn evaluate(
    layer: &ConvSpec,
    arch: &PackageConfig,
    tech: &Technology,
    mapping: &Mapping,
) -> Result<Evaluation, MappingError> {
    let d = decompose(layer, arch, mapping)?;
    Ok(evaluate_decomposition(&d, arch, tech, mapping))
}

/// Evaluates a pre-computed decomposition.
pub fn evaluate_decomposition(
    d: &Decomposition,
    arch: &PackageConfig,
    tech: &Technology,
    mapping: &Mapping,
) -> Evaluation {
    evaluate_nest(&NestView::of(d), arch, tech, mapping)
}

/// The one evaluator body, behind [`evaluate_decomposition`] and the
/// search's survivors: the candidate's staircases read at the machine's own
/// capacities, the penalty counters, the access assembly, the energy price
/// and the runtime bound.
#[inline]
pub(crate) fn evaluate_nest(
    n: &NestView<'_>,
    arch: &PackageConfig,
    tech: &Technology,
    mapping: &Mapping,
) -> Evaluation {
    count(Counter::Evaluations);
    let rung = Rung {
        a_l1_bits: Some(arch.chiplet.core.a_l1_bytes * 8),
        a_l2_bits: Some(arch.chiplet.a_l2_bytes * 8),
        w_eff_bits: Some(n.w_eff_bits),
    };
    let paths = n.stairs().at(&n.volumes, rung);
    paths.count_penalties(&n.volumes);
    let access = paths.access(&n.volumes, n.fill_streams);
    let energy = price(&access, arch, tech);
    let (cycles, utilization) = runtime_bound(n.compute_cycles, &access, arch, tech);
    Evaluation {
        mapping: *mapping,
        access,
        energy,
        compute_cycles: n.compute_cycles,
        cycles,
        utilization,
    }
}

/// Prices the access counts with the Table I energy model.
pub fn price(a: &AccessCounts, arch: &PackageConfig, tech: &Technology) -> EnergyBreakdown {
    let e = &tech.energy;
    let core = &arch.chiplet.core;
    EnergyBreakdown {
        dram_pj: e.dram_pj(a.dram_total_bits()),
        d2d_pj: e.d2d_pj(a.d2d_bits),
        l2_pj: e.sram_pj(a.a_l2_bits, arch.chiplet.a_l2_bytes)
            + e.sram_pj(a.o_l2_bits, arch.chiplet.o_l2_bytes),
        l1_pj: e.sram_pj(a.a_l1_bits, core.a_l1_bytes) + e.sram_pj(a.w_l1_bits, core.w_l1_bytes),
        rf_pj: e.rf_rmw_pj(a.o_l1_rmw_bits),
        mac_pj: e.mac_pj(a.mac_ops),
    }
}

/// Runtime bound: compute critical path vs. bandwidth bounds, plus the
/// resulting end-to-end utilization.
pub fn runtime_bound(
    compute_cycles: u64,
    a: &AccessCounts,
    arch: &PackageConfig,
    tech: &Technology,
) -> (u64, f64) {
    let n_p = u64::from(arch.chiplets).max(1);
    let bw = &tech.bandwidth;
    let dram_cycles = a
        .dram_total_bits()
        .div_ceil(bw.dram_bits_per_cycle * u64::from(arch.dram_channels.max(1)));
    let d2d_cycles = if n_p > 1 {
        a.d2d_bits.div_ceil(bw.d2d_bits_per_cycle * n_p)
    } else {
        0
    };
    // Per-chiplet central bus carries A-L2/O-L2 traffic.
    let bus_bits = (a.a_l2_bits + a.o_l2_bits) / n_p;
    let bus_cycles = bus_bits.div_ceil(bw.bus_bits_per_cycle);
    let cycles = compute_cycles
        .max(dram_cycles)
        .max(d2d_cycles)
        .max(bus_cycles)
        .max(1);
    let units = arch.total_macs().max(1);
    let utilization = a.mac_ops as f64 / (cycles as f64 * units as f64);
    (cycles, utilization)
}

#[cfg(test)]
mod tests {
    use super::*;
    use baton_arch::presets;
    use baton_mapping::{ChipletPartition, PackagePartition, RotationMode, TemporalOrder, Tile};
    use baton_model::zoo;

    fn arch() -> PackageConfig {
        presets::case_study_accelerator()
    }

    fn tech() -> Technology {
        Technology::paper_16nm()
    }

    fn mapping() -> Mapping {
        Mapping {
            package: PackagePartition::Channel,
            chiplet: ChipletPartition::Channel,
            package_order: TemporalOrder::ChannelPriority,
            chiplet_order: TemporalOrder::ChannelPriority,
            chiplet_tile: Tile::new(28, 28, 16),
            core_plane: (8, 8),
            rotation: RotationMode::Ring,
        }
    }

    fn common_layer() -> ConvSpec {
        zoo::resnet50(224).layer("res2a_branch2b").cloned().unwrap()
    }

    #[test]
    fn evaluation_smoke() {
        let ev = evaluate(&common_layer(), &arch(), &tech(), &mapping()).unwrap();
        assert!(ev.energy.total_pj() > 0.0);
        assert!(ev.cycles >= ev.compute_cycles);
        assert!(ev.utilization > 0.0 && ev.utilization <= 1.0);
        assert!(ev.edp(&tech()) > 0.0);
    }

    #[test]
    fn dram_reads_never_below_unique_volumes() {
        let layer = common_layer();
        let ev = evaluate(&layer, &arch(), &tech(), &mapping()).unwrap();
        assert!(ev.access.dram_input_bits >= layer.input_bits());
        assert!(ev.access.dram_weight_bits >= layer.weight_bits());
        assert_eq!(ev.access.dram_output_bits, layer.output_bits());
    }

    #[test]
    fn bigger_buffers_never_increase_access() {
        let layer = common_layer();
        let small = evaluate(&layer, &arch(), &tech(), &mapping()).unwrap();
        let mut big = arch();
        big.chiplet.a_l2_bytes *= 8;
        big.chiplet.core.w_l1_bytes *= 8;
        big.chiplet.core.a_l1_bytes *= 8;
        let big_ev = evaluate(&layer, &big, &tech(), &mapping()).unwrap();
        assert!(big_ev.access.dram_input_bits <= small.access.dram_input_bits);
        assert!(big_ev.access.dram_weight_bits <= small.access.dram_weight_bits);
        assert!(big_ev.access.d2d_bits <= small.access.d2d_bits);
        assert!(big_ev.access.a_l2_bits <= small.access.a_l2_bits);
    }

    #[test]
    fn starved_a_l2_pays_dram_penalties() {
        let layer = common_layer();
        let mut starved = arch();
        starved.chiplet.a_l2_bytes = 2 * 1024; // 2 KB
        starved.chiplet.core.a_l1_bytes = 320;
        // Tile CO of 8 leaves two CO revisits per plane tile (t_co = 2), the
        // reuse region an adequate A-L2 covers.
        let m = Mapping {
            core_plane: (4, 4),
            chiplet_tile: baton_mapping::Tile::new(28, 28, 8),
            ..mapping()
        };
        let ok = evaluate(&layer, &arch(), &tech(), &m).unwrap();
        let bad = evaluate(&layer, &starved, &tech(), &m).unwrap();
        assert!(bad.access.dram_input_bits > ok.access.dram_input_bits);
        assert!(bad.energy.dram_pj > ok.energy.dram_pj);
    }

    #[test]
    fn energy_totals_are_consistent_with_buckets() {
        let ev = evaluate(&common_layer(), &arch(), &tech(), &mapping()).unwrap();
        let s: f64 = ev.energy.buckets().iter().map(|(_, v)| v).sum();
        assert!((s - ev.energy.total_pj()).abs() < 1e-6);
        // MAC energy is exact: ops x 0.024 pJ.
        assert!((ev.energy.mac_pj - ev.access.mac_ops as f64 * 0.024).abs() < 1e-6);
    }

    #[test]
    fn channel_priority_reuses_inputs_plane_priority_reuses_weights() {
        // The signature C3P trade-off (Section IV-A.2): channel-priority
        // unrolling keeps the input tile resident across CO revisits;
        // plane-priority favours weight residence.
        let layer = common_layer();
        let cp = evaluate(&layer, &arch(), &tech(), &mapping()).unwrap();
        let pp = evaluate(
            &layer,
            &arch(),
            &tech(),
            &Mapping {
                package_order: TemporalOrder::PlanePriority,
                ..mapping()
            },
        )
        .unwrap();
        // With channel-priority, the 28x28x64-input tile fits the 64 KB A-L2
        // so inputs are loaded once; plane-priority would need the whole
        // 56x56x64 part resident, which does not fit, so it reloads.
        assert!(cp.access.dram_input_bits <= pp.access.dram_input_bits);
    }

    #[test]
    fn rotation_trades_dram_for_d2d() {
        let layer = common_layer();
        let ring = evaluate(&layer, &arch(), &tech(), &mapping()).unwrap();
        let noring = evaluate(
            &layer,
            &arch(),
            &tech(),
            &Mapping {
                rotation: RotationMode::DramOnly,
                ..mapping()
            },
        )
        .unwrap();
        assert!(ring.access.dram_input_bits < noring.access.dram_input_bits);
        assert!(ring.access.d2d_bits > noring.access.d2d_bits);
        // And the trade is profitable: DRAM costs 8.75 pJ/bit vs 1.17 for
        // the ring.
        assert!(ring.energy.total_pj() < noring.energy.total_pj());
    }

    #[test]
    fn runtime_is_bandwidth_bound_when_starved() {
        let layer = common_layer();
        let mut slow = tech();
        slow.bandwidth.dram_bits_per_cycle = 1;
        let ev = evaluate(&layer, &arch(), &slow, &mapping()).unwrap();
        assert!(ev.cycles > ev.compute_cycles);
        assert!(ev.utilization < 1.0);
    }

    #[test]
    fn profiles_match_direct_evaluation() {
        // The materialized oracle resolved at the machine's capacities must
        // agree with the end-to-end evaluation.
        let layer = common_layer();
        let a = arch();
        let d = decompose(&layer, &a, &mapping()).unwrap();
        let p = crate::reference::LayerProfiles::build(&d);
        let (a_l1, a_l2) = (a.chiplet.core.a_l1_bytes * 8, a.chiplet.a_l2_bytes * 8);
        let oracle =
            crate::reference::resolve_at_capacities(&d, &p, a_l1, a_l2, d.effective_w_l1_bits);
        let full = evaluate(&layer, &a, &tech(), &mapping()).unwrap();
        assert_eq!(oracle, full.access);
    }
}
