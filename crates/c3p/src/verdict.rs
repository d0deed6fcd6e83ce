//! Per-buffer C³P verdicts: *why* a mapping pays the traffic it pays.
//!
//! The analytical engine prices each data path as its base traffic times
//! the penalty multipliers of every capacity breakpoint the buffer fails to
//! cover (the path's staircase in the C³P kernel). The numbers are what the
//! search optimizes; the *verdicts* — which critical capacity `Cc_k` each
//! buffer was measured against and which penalty `P_k` actually fired — are
//! what a person needs to understand the winner. This module extracts them
//! in a renderer-ready form for `baton explain`.

use baton_arch::PackageConfig;
use baton_mapping::Decomposition;

use crate::kernel::NestView;
use crate::walk::Staircase;

/// One capacity breakpoint of a path, judged at a concrete buffer size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakpointVerdict {
    /// Critical capacity `Cc_k` in bits (Equation (2) of the paper).
    pub cc_bits: u64,
    /// Reuse-region penalty multiplier `P_k`.
    pub multiplier: u64,
    /// True when the buffer is below `Cc_k`, so `P_k` fired.
    pub fired: bool,
}

/// The C³P verdict of one data path against one buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferVerdict {
    /// The buffer the path was judged against (e.g. `"A-L2"`).
    pub buffer: &'static str,
    /// The data path (e.g. `"DRAM input reads"`).
    pub path: &'static str,
    /// The configured buffer capacity in bits.
    pub capacity_bits: u64,
    /// Intrinsic (penalty-free) traffic `A0` in bits.
    pub base_bits: u64,
    /// Traffic after the fired penalties, in bits.
    pub resolved_bits: u64,
    /// Product of the fired multipliers (1 = penalty-free).
    pub fired_multiplier: u64,
    /// Every breakpoint of the path, smallest `Cc` first; breakpoints that
    /// share a `Cc` are merged into the product of their multipliers.
    pub breakpoints: Vec<BreakpointVerdict>,
}

impl BufferVerdict {
    fn judge(
        (buffer, capacity_bits): (&'static str, u64),
        path: &'static str,
        stairs: &Staircase,
        base_bits: u64,
    ) -> Self {
        let breakpoints = stairs
            .sorted()
            .map(|(cc_bits, multiplier)| BreakpointVerdict {
                cc_bits,
                multiplier,
                fired: capacity_bits < cc_bits,
            })
            .collect();
        let fired_multiplier = stairs.at(capacity_bits);
        Self {
            buffer,
            path,
            capacity_bits,
            base_bits,
            resolved_bits: base_bits.saturating_mul(fired_multiplier),
            fired_multiplier,
            breakpoints,
        }
    }

    /// True when no penalty fired (the buffer covers every reuse region).
    pub fn penalty_free(&self) -> bool {
        self.fired_multiplier == 1
    }
}

/// Judges every capacity-dependent data path of a `(layer, mapping)` pair at
/// the machine's configured buffer sizes, in the fixed path order the C³P
/// engine resolves them: DRAM/ring inputs against the A-L2, A-L2 reads
/// against the A-L1, DRAM/ring weights against the effective W-L1 pool
/// share.
pub fn buffer_verdicts(d: &Decomposition, arch: &PackageConfig) -> Vec<BufferVerdict> {
    let l2 = ("A-L2", arch.chiplet.a_l2_bytes * 8);
    let l1 = ("A-L1", arch.chiplet.core.a_l1_bytes * 8);
    let w1 = ("W-L1 pool", d.effective_w_l1_bits);
    let (s, v) = (NestView::of(d).stairs(), &d.volumes);
    let judge = BufferVerdict::judge;
    vec![
        judge(l2, "DRAM input reads", &s.dram_input, v.dram_input_base),
        judge(l2, "ring input rotation", &s.d2d_input, v.d2d_input_base),
        judge(l1, "A-L2 bus reads", &s.a_l2_read, v.a_l2_read_base),
        judge(w1, "DRAM weight reads", &s.dram_weight, v.dram_weight_base),
        judge(w1, "ring weight rotation", &s.d2d_weight, v.d2d_weight_base),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use baton_arch::{presets, Technology};
    use baton_mapping::decompose;
    use baton_model::zoo;

    fn fixture() -> (Decomposition, PackageConfig) {
        let arch = presets::case_study_accelerator();
        let tech = Technology::paper_16nm();
        let layer = zoo::resnet50(224).layer("res2a_branch2b").cloned().unwrap();
        let best = crate::search_layer(&layer, &arch, &tech, crate::Objective::Energy).unwrap();
        let d = decompose(&layer, &arch, &best.mapping).unwrap();
        (d, arch)
    }

    #[test]
    fn verdicts_cover_the_five_capacity_paths() {
        let (d, arch) = fixture();
        let v = buffer_verdicts(&d, &arch);
        assert_eq!(v.len(), 5);
        let buffers: Vec<_> = v.iter().map(|b| b.buffer).collect();
        assert_eq!(buffers, ["A-L2", "A-L2", "A-L1", "W-L1 pool", "W-L1 pool"]);
    }

    #[test]
    fn verdicts_agree_with_the_resolved_access_counts() {
        let (d, arch) = fixture();
        let v = buffer_verdicts(&d, &arch);
        // Against the materialized oracle's resolve at the same capacities.
        let p = crate::reference::LayerProfiles::build(&d);
        let (a_l1, a_l2) = (
            arch.chiplet.core.a_l1_bytes * 8,
            arch.chiplet.a_l2_bytes * 8,
        );
        let access =
            crate::reference::resolve_at_capacities(&d, &p, a_l1, a_l2, d.effective_w_l1_bits);
        assert_eq!(v[0].resolved_bits, access.dram_input_bits);
        assert_eq!(v[3].resolved_bits, access.dram_weight_bits);
        for b in &v {
            assert_eq!(
                b.fired_multiplier,
                b.breakpoints
                    .iter()
                    .filter(|bp| bp.fired)
                    .map(|bp| bp.multiplier)
                    .product::<u64>()
            );
            assert_eq!(b.resolved_bits, b.base_bits * b.fired_multiplier);
            assert_eq!(b.penalty_free(), b.resolved_bits == b.base_bits);
        }
    }

    #[test]
    fn starving_a_buffer_fires_its_breakpoints() {
        let (d, mut arch) = fixture();
        arch.chiplet.a_l2_bytes = 16; // 128 bits: below any input Cc
        let v = buffer_verdicts(&d, &arch);
        let dram_in = &v[0];
        if dram_in.breakpoints.is_empty() {
            return; // path is flat for this winner; nothing can fire
        }
        assert!(!dram_in.penalty_free());
        assert!(dram_in.breakpoints.iter().all(|bp| bp.fired));
        assert!(dram_in.resolved_bits > dram_in.base_bits);
    }
}
