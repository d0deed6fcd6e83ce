//! Energy per operation: Table I constants plus the Figure 10 size-dependent
//! SRAM access energy.

use serde::{Deserialize, Serialize};

use super::memory::LinearFit;

/// Energies of the typical operations in the 16 nm multichip system
/// (Table I), with the SRAM energy generalized to a linear function of the
/// buffer size (Figure 10).
///
/// All figures are per *bit* except the MAC, which is per 8-bit operation;
/// this matches the paper's table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// DRAM access energy, pJ/bit (8.75 in Table I).
    pub dram_pj_per_bit: f64,
    /// Die-to-die (GRS) transfer energy through a pair of D2D PHYs, pJ/bit
    /// (1.17 in Table I).
    pub d2d_pj_per_bit: f64,
    /// SRAM access energy as a linear function of the buffer size in KB.
    /// Anchored at Table I's two points: 1 KB -> 0.3 pJ/bit (L1) and
    /// 32 KB -> 0.81 pJ/bit (L2).
    pub sram_pj_per_bit: LinearFit,
    /// Register-file read-modify-write energy, pJ/bit (0.104 in Table I).
    pub rf_rmw_pj_per_bit: f64,
    /// 8-bit MAC energy, pJ/op (0.024 in Table I).
    pub mac_pj_per_op: f64,
}

impl EnergyModel {
    /// The Table I energy point.
    pub fn paper_16nm() -> Self {
        Self {
            dram_pj_per_bit: 8.75,
            d2d_pj_per_bit: 1.17,
            sram_pj_per_bit: LinearFit::through((1.0, 0.3), (32.0, 0.81)),
            rf_rmw_pj_per_bit: 0.104,
            mac_pj_per_op: 0.024,
        }
    }

    /// SRAM access energy in pJ/bit for a buffer of `bytes` capacity.
    ///
    /// The fit is clamped below at the 256 B point so extrapolation to tiny
    /// buffers stays physical.
    pub fn sram_access_pj_per_bit(&self, bytes: u64) -> f64 {
        let kb = (bytes as f64 / 1024.0).max(0.25);
        self.sram_pj_per_bit.eval(kb)
    }

    /// Energy in pJ for `bits` of DRAM traffic.
    pub fn dram_pj(&self, bits: u64) -> f64 {
        self.dram_pj_per_bit * bits as f64
    }

    /// Energy in pJ for `bits` crossing one die-to-die link hop.
    pub fn d2d_pj(&self, bits: u64) -> f64 {
        self.d2d_pj_per_bit * bits as f64
    }

    /// Energy in pJ for `bits` of accesses to an SRAM of `buffer_bytes`.
    pub fn sram_pj(&self, bits: u64, buffer_bytes: u64) -> f64 {
        self.sram_access_pj_per_bit(buffer_bytes) * bits as f64
    }

    /// Energy in pJ for `bits` of register-file read-modify-writes.
    pub fn rf_rmw_pj(&self, bits: u64) -> f64 {
        self.rf_rmw_pj_per_bit * bits as f64
    }

    /// Energy in pJ for `ops` MAC operations.
    pub fn mac_pj(&self, ops: u64) -> f64 {
        self.mac_pj_per_op * ops as f64
    }

    /// Relative cost of an operation with respect to one 8-bit MAC, the
    /// right-hand column of Table I.
    pub fn relative_cost(&self, pj: f64) -> f64 {
        pj / self.mac_pj_per_op
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::paper_16nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_anchor_points() {
        let e = EnergyModel::paper_16nm();
        assert!((e.sram_access_pj_per_bit(1024) - 0.3).abs() < 1e-9);
        assert!((e.sram_access_pj_per_bit(32 * 1024) - 0.81).abs() < 1e-9);
    }

    proptest::proptest! {
        /// A bigger SRAM never costs less per bit (Fig. 10), over the whole
        /// `u64` range of capacities and below the 256 B clamp.
        #[test]
        fn sram_energy_does_not_decrease_with_capacity(
            bytes in 0u64..u64::MAX,
            more in 0u64..u64::MAX,
            small in 0u64..4096,
        ) {
            let e = crate::Technology::paper_16nm().energy;
            for (lo, hi) in [(bytes, bytes.saturating_add(more)), (small, small + more % 4096)] {
                let (a, b) = (e.sram_access_pj_per_bit(lo), e.sram_access_pj_per_bit(hi));
                proptest::prop_assert!(a <= b, "{} B: {} pJ/bit, {} B: {} pJ/bit", lo, a, hi, b);
            }
        }
    }

    #[test]
    fn table1_relative_costs() {
        // DRAM: 8.75 / 0.024 = 364.58x; L2: 33.75x; L1: 12.5x; RF: 4.33x.
        let e = EnergyModel::paper_16nm();
        assert!((e.relative_cost(e.dram_pj_per_bit) - 364.58).abs() < 0.01);
        assert!((e.relative_cost(0.81) - 33.75).abs() < 1e-9);
        assert!((e.relative_cost(0.3) - 12.5).abs() < 1e-9);
        assert!((e.relative_cost(e.rf_rmw_pj_per_bit) - 4.33).abs() < 0.01);
    }

    #[test]
    fn energy_hierarchy_ordering() {
        // DRAM > D2D > L2 > L1 > RF-per-bit > MAC-per-op: the whole premise
        // of locality-aware mapping.
        let e = EnergyModel::paper_16nm();
        let l2 = e.sram_access_pj_per_bit(32 * 1024);
        let l1 = e.sram_access_pj_per_bit(1024);
        assert!(e.dram_pj_per_bit > e.d2d_pj_per_bit);
        assert!(e.d2d_pj_per_bit > l2);
        assert!(l2 > l1);
        assert!(l1 > e.rf_rmw_pj_per_bit);
        assert!(e.rf_rmw_pj_per_bit > e.mac_pj_per_op);
    }

    #[test]
    fn tiny_buffers_clamp_instead_of_extrapolating_negative() {
        let e = EnergyModel::paper_16nm();
        assert!(e.sram_access_pj_per_bit(16) > 0.28);
    }

    #[test]
    fn bulk_energy_helpers_scale_linearly() {
        let e = EnergyModel::paper_16nm();
        assert!((e.dram_pj(1000) - 8750.0).abs() < 1e-9);
        assert!((e.d2d_pj(1000) - 1170.0).abs() < 1e-9);
        assert!((e.mac_pj(1000) - 24.0).abs() < 1e-9);
        assert!((e.rf_rmw_pj(1000) - 104.0).abs() < 1e-9);
    }
}
