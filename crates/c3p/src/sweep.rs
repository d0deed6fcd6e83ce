//! Streaming struct-of-arrays repricer for the pre-design memory sweep.
//!
//! The materialized sweep path builds a full [`LayerProfiles`] per candidate
//! (five breakpoint vectors plus two sliced footprint copies — ~15
//! allocations) and then re-scans the breakpoints at every `(A-L1, W-L1,
//! A-L2)` grid cell. But a sweep unit only ever asks for accesses at the
//! *rungs of its capacity ladders*. [`SweepLanes`] therefore walks a
//! candidate's nest once per tensor into the C³P kernel's inline
//! staircases (`c3p::kernel::Staircases`, one `(Cc_k, P_k)` list per path)
//! and reads every ladder rung off them as a threshold product into
//! pooled, thread-local lanes. Repricing a design point then costs five lane
//! lookups, the kernel's assembly, and the energy model (plus the runtime
//! model for [`SweepLanes::score`]; corner pruning ranks by
//! [`SweepLanes::energy`] alone); steady-state sweep units allocate
//! nothing.
//!
//! Bit-identity with the materialized chain (`LayerProfiles::build` +
//! [`resolve_at_capacities`]) is pinned by the tests below and by the
//! differential sweep-equivalence harness in `tests/`; counter semantics
//! match one [`baton_mapping::decompose`] call per pushed candidate
//! (geometry memo replay, as in the search) and one penalty-counter check
//! per scored point.
//!
//! [`LayerProfiles`]: crate::evaluate::LayerProfiles
//! [`resolve_at_capacities`]: crate::evaluate::resolve_at_capacities

use std::cell::RefCell;

use baton_arch::{PackageConfig, Technology};
use baton_mapping::{Mapping, NestScratch, Volumes};
use baton_model::ConvSpec;

use crate::evaluate::{price, runtime_bound, AccessCounts};
use crate::kernel::{GeomMemo, Paths, Pooled, Rung, Staircases};

/// Per-candidate scalar metadata, kept alongside the resolved lanes.
#[derive(Debug, Clone, Copy)]
struct CandMeta {
    /// Package-wide base volumes under the candidate's rotation mode.
    v: Volumes,
    /// Cores receiving each A-L2 multicast (A-L1 fill factor).
    fill_streams: u64,
    /// Cores sharing one weight stream (effective W-L1 pool share).
    plane_ways: u64,
    /// Ideal compute cycles of the candidate.
    compute_cycles: u64,
    /// A-L1 feasibility floor in bytes.
    a_l1_floor: u64,
    /// O-L2 feasibility floor in bytes.
    o_l2_floor: u64,
}

/// Struct-of-arrays rung lanes for one sweep unit's candidate set.
///
/// Acquire via [`sweep_lanes_for`]; every buffer is cleared with capacity
/// kept, so a worker that processes many `(geometry, O-L1)` units reaches a
/// zero-allocation steady state. Candidate-major layout: candidate `i`'s
/// paths resolved at ladder rung `r` live at `i * rungs + r`.
#[derive(Debug, Default)]
pub struct SweepLanes {
    /// A-L1 capacity ladder in bytes.
    a_l1: Vec<u64>,
    /// W-L1 capacity ladder in bytes.
    w_l1: Vec<u64>,
    /// A-L2 capacity ladder in bytes.
    a_l2: Vec<u64>,
    /// Lane stride: the rung count of the longest ladder.
    rungs: usize,
    /// `lanes * vector * 8` of the machine: the minimum effective W-L1
    /// capacity in bits below which a stream cannot hold one weight chunk.
    min_w_bits: u64,
    /// Per-candidate metadata.
    meta: Vec<CandMeta>,
    /// Resolved paths per candidate and rung; a path whose ladder is
    /// shorter than the rung index stays 0 there and is never read.
    paths: Vec<Paths>,
    /// Geometry memo, indexed by the enumerator's dense `geom_id`.
    memo: GeomMemo,
    /// Reusable nest/footprint buffers for the resolution walks.
    nest: NestScratch,
}

impl SweepLanes {
    /// Prepares the lanes for a new unit: installs the capacity ladders and
    /// clears candidates and the geometry memo, keeping every capacity.
    fn reset(&mut self, a_l1: &[u64], w_l1: &[u64], a_l2: &[u64], min_w_bits: u64) {
        self.a_l1.clear();
        self.a_l1.extend_from_slice(a_l1);
        self.w_l1.clear();
        self.w_l1.extend_from_slice(w_l1);
        self.a_l2.clear();
        self.a_l2.extend_from_slice(a_l2);
        self.rungs = a_l1.len().max(w_l1.len()).max(a_l2.len());
        self.min_w_bits = min_w_bits;
        self.meta.clear();
        self.paths.clear();
        self.memo.reset(0);
    }

    /// Number of candidates currently held.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether no candidate has been pushed (or all were rejected).
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Decomposes one enumerated candidate (through the geometry memo),
    /// walks its five capacity-dependent paths into staircases once, and
    /// resolves them at every ladder rung from those. Returns `false` if
    /// the mapping is illegal for the layer/machine pair.
    ///
    /// The per-rung values are bit-identical to
    /// [`resolve_at_capacities`](crate::evaluate::resolve_at_capacities) on
    /// the materialized profiles: same sliced footprints, same walk, same
    /// saturating products.
    pub fn push_candidate(
        &mut self,
        layer: &ConvSpec,
        arch: &PackageConfig,
        mapping: &Mapping,
        geom_id: u32,
        a_l1_floor: u64,
        o_l2_floor: u64,
    ) -> bool {
        let Ok(geom) = self.memo.get(layer, arch, mapping, geom_id) else {
            return false;
        };
        let (v, rot_in, rot_w) = geom.volumes_for(mapping.rotation);
        geom.build_nest_into(layer, mapping, rot_in, rot_w, &mut self.nest);
        let plane_ways = u64::from(geom.plane_ways());
        let stairs = Staircases::walk(&self.nest, geom.n_p(), (rot_in, rot_w));
        for r in 0..self.rungs {
            let rung = Rung {
                a_l1_bits: self.a_l1.get(r).map(|b| b * 8),
                a_l2_bits: self.a_l2.get(r).map(|b| b * 8),
                w_eff_bits: self.w_l1.get(r).map(|b| plane_ways * b * 8),
            };
            self.paths.push(stairs.at(&v, rung));
        }
        self.meta.push(CandMeta {
            v,
            fill_streams: u64::from(geom.weight_streams()),
            plane_ways,
            compute_cycles: geom.compute_cycles(),
            a_l1_floor,
            o_l2_floor,
        });
        true
    }

    /// Compacts the candidate set to the `keep`-flagged subset, preserving
    /// order (the corner-pruning survivor filter). In place, no allocation.
    pub fn retain(&mut self, keep: &[bool]) {
        assert_eq!(keep.len(), self.meta.len(), "one flag per candidate");
        let n = self.rungs;
        let mut w = 0usize;
        for (r, &k) in keep.iter().enumerate() {
            if !k {
                continue;
            }
            if w != r {
                self.meta[w] = self.meta[r];
                self.paths.copy_within(r * n..(r + 1) * n, w * n);
            }
            w += 1;
        }
        self.meta.truncate(w);
        self.paths.truncate(w * n);
    }

    /// Scores candidate `i` at the grid cell addressed by ladder rung
    /// indices `(a1, w1, a2)`, on a machine whose buffer capacities already
    /// match those rungs. Returns `(total energy pJ, cycles)`, or `None` if
    /// the candidate is infeasible at this cell.
    ///
    /// The check order (floors, then stream width, then resolution) and the
    /// penalty-counter conditions replicate the materialized scoring chain
    /// exactly, so the counter stream is identical point for point.
    #[inline]
    pub fn score(
        &self,
        i: usize,
        cell: (usize, usize, usize),
        arch: &PackageConfig,
        tech: &Technology,
    ) -> Option<(f64, u64)> {
        let access = self.access(i, cell, arch)?;
        let energy = price(&access, arch, tech);
        let (cycles, _) = runtime_bound(self.meta[i].compute_cycles, &access, arch, tech);
        Some((energy.total_pj(), cycles))
    }

    /// The energy half of [`Self::score`], bit for bit and with the same
    /// feasibility checks and penalty counters, without the runtime model:
    /// what corner pruning ranks by.
    #[inline]
    pub fn energy(
        &self,
        i: usize,
        cell: (usize, usize, usize),
        arch: &PackageConfig,
        tech: &Technology,
    ) -> Option<f64> {
        let access = self.access(i, cell, arch)?;
        Some(price(&access, arch, tech).total_pj())
    }

    /// Candidate `i`'s feasibility checks, lane lookups, penalty counters
    /// and access assembly at one cell, shared by [`Self::score`] and
    /// [`Self::energy`].
    #[inline]
    fn access(
        &self,
        i: usize,
        (a1, w1, a2): (usize, usize, usize),
        arch: &PackageConfig,
    ) -> Option<AccessCounts> {
        let m = &self.meta[i];
        let a_l1 = self.a_l1[a1];
        let w_l1 = self.w_l1[w1];
        debug_assert_eq!(a_l1, arch.chiplet.core.a_l1_bytes);
        debug_assert_eq!(w_l1, arch.chiplet.core.w_l1_bytes);
        debug_assert_eq!(self.a_l2[a2], arch.chiplet.a_l2_bytes);
        if m.a_l1_floor > a_l1 || m.o_l2_floor > arch.chiplet.o_l2_bytes {
            return None;
        }
        if self.min_w_bits > m.plane_ways * w_l1 * 8 {
            return None;
        }
        let lane = &self.paths[i * self.rungs..(i + 1) * self.rungs];
        let paths = Paths {
            dram_input: lane[a2].dram_input,
            d2d_input: lane[a2].d2d_input,
            a_l2_read: lane[a1].a_l2_read,
            dram_weight: lane[w1].dram_weight,
            d2d_weight: lane[w1].d2d_weight,
        };
        paths.count_penalties(&m.v);
        Some(paths.access(&m.v, m.fill_streams))
    }
}

thread_local! {
    /// Retired lane sets, reused by later sweep units on the same thread.
    /// One worker holds one checked-out `SweepLanes` per distinct layer
    /// shape of its current unit, so the pool depth settles at the shape
    /// count and steady-state units allocate nothing.
    static LANES_POOL: RefCell<Vec<SweepLanes>> = const { RefCell::new(Vec::new()) };
}

/// Checks a lane set out of the thread-local pool (allocating a fresh one
/// only if the pool is empty) and installs the unit's capacity ladders
/// (bytes) and minimum stream width (`lanes * vector * 8` bits).
pub fn sweep_lanes_for(
    a_l1: &[u64],
    w_l1: &[u64],
    a_l2: &[u64],
    min_w_bits: u64,
) -> Pooled<SweepLanes> {
    let mut s = Pooled::checkout(&LANES_POOL);
    s.reset(a_l1, w_l1, a_l2, min_w_bits);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::{resolve_at_capacities, LayerProfiles};
    use baton_arch::presets;
    use baton_mapping::enumerate::{enumerate_into, EnumOptions};
    use baton_model::zoo;

    const A_L1: [u64; 3] = [1024, 8 * 1024, 128 * 1024];
    const W_L1: [u64; 3] = [2 * 1024, 18 * 1024, 256 * 1024];
    const A_L2: [u64; 2] = [32 * 1024, 256 * 1024];
    /// The starved machine of the search's penalty test (A-L2 2 KiB, A-L1
    /// 320 B), where the C³P penalties fire on most candidates.
    const STARVED: ([u64; 1], [u64; 1], [u64; 1]) = ([320], [18 * 1024], [2 * 1024]);

    #[test]
    fn lane_scores_match_the_materialized_chain_bit_for_bit() {
        // The pinned contract: per-rung lane resolution + `score` ==
        // `LayerProfiles::build` + `resolve_at_capacities` + `price` +
        // `runtime_bound`, exactly, at every grid cell — on the regular
        // ladders and on the starved rungs, where the penalties fire.
        let ladders: [(&[u64], &[u64], &[u64]); 2] =
            [(&A_L1, &W_L1, &A_L2), (&STARVED.0, &STARVED.1, &STARVED.2)];
        // Candidates decompose on the unmodified machine; `arch` carries
        // each scored cell's capacities.
        let base = presets::case_study_accelerator();
        let mut arch = base;
        let tech = Technology::paper_16nm();
        let min_w = u64::from(arch.chiplet.core.lanes) * u64::from(arch.chiplet.core.vector) * 8;
        let mut penalized = 0u32;
        for (bucket, layer) in zoo::representative_layers(224) {
            for (a_l1s, w_l1s, a_l2s) in ladders {
                let (mut cands, mut ids) = (Vec::new(), Vec::new());
                enumerate_into(&layer, &base, EnumOptions::default(), &mut cands, &mut ids);
                let mut lanes = sweep_lanes_for(a_l1s, w_l1s, a_l2s, min_w);
                let mut kept: Vec<Mapping> = Vec::new();
                for (m, &gid) in cands.iter().zip(&ids).take(256) {
                    if lanes.push_candidate(&layer, &base, m, gid, 0, 0) {
                        kept.push(*m);
                    } else {
                        assert!(
                            baton_mapping::decompose(&layer, &base, m).is_err(),
                            "{bucket}"
                        );
                    }
                }
                assert!(!kept.is_empty(), "{bucket}: no decomposable candidates");
                let mut checked = 0u32;
                for (i, m) in kept.iter().enumerate() {
                    let d = baton_mapping::decompose(&layer, &base, m).unwrap();
                    let p = LayerProfiles::build(&d);
                    for (a1, &a_l1) in a_l1s.iter().enumerate() {
                        for (w1, &w_l1) in w_l1s.iter().enumerate() {
                            for (a2, &a_l2) in a_l2s.iter().enumerate() {
                                arch.chiplet.core.a_l1_bytes = a_l1;
                                arch.chiplet.core.w_l1_bytes = w_l1;
                                arch.chiplet.a_l2_bytes = a_l2;
                                let eff_w = u64::from(d.plane_ways) * w_l1 * 8;
                                let got = lanes.score(i, (a1, w1, a2), &arch, &tech);
                                assert_eq!(
                                    lanes.energy(i, (a1, w1, a2), &arch, &tech),
                                    got.map(|(e, _)| e),
                                    "{bucket}: energy-only score"
                                );
                                if min_w > eff_w {
                                    assert!(got.is_none(), "{bucket}: {m:?}");
                                    continue;
                                }
                                let access =
                                    resolve_at_capacities(&d, &p, a_l1 * 8, a_l2 * 8, eff_w);
                                let energy = price(&access, &arch, &tech);
                                let (cycles, _) =
                                    runtime_bound(d.compute_cycles, &access, &arch, &tech);
                                assert_eq!(
                                    got,
                                    Some((energy.total_pj(), cycles)),
                                    "{bucket}: {m:?} cell ({a1},{w1},{a2})"
                                );
                                let v = &d.volumes;
                                if access.dram_input_bits > v.dram_input_base
                                    || access.a_l1_bits
                                        > v.a_l2_read_base * p.fill_streams + v.a_l1_read
                                    || access.dram_weight_bits > v.dram_weight_base
                                {
                                    penalized += 1;
                                }
                                checked += 1;
                            }
                        }
                    }
                }
                assert!(checked > 64, "{bucket}: only {checked} cells compared");
            }
        }
        assert!(penalized > 0, "no penalized cell was compared");
    }

    #[test]
    fn floors_gate_scoring() {
        let arch = presets::case_study_accelerator();
        let tech = Technology::paper_16nm();
        let layer = zoo::resnet50(224).layer("res2a_branch2b").cloned().unwrap();
        let (mut cands, mut ids) = (Vec::new(), Vec::new());
        enumerate_into(&layer, &arch, EnumOptions::default(), &mut cands, &mut ids);
        let ladder = [arch.chiplet.core.a_l1_bytes];
        let w = [arch.chiplet.core.w_l1_bytes];
        let a2 = [arch.chiplet.a_l2_bytes];
        let mut lanes = sweep_lanes_for(&ladder, &w, &a2, 0);
        let (m, gid) = (cands[0], ids[0]);
        // An A-L1 floor above the rung makes the cell infeasible; an O-L2
        // floor above the machine's O-L2 does too.
        assert!(lanes.push_candidate(&layer, &arch, &m, gid, ladder[0] + 1, 0));
        assert!(lanes.push_candidate(&layer, &arch, &m, gid, 0, arch.chiplet.o_l2_bytes + 1));
        assert!(lanes.push_candidate(&layer, &arch, &m, gid, 0, 0));
        assert!(lanes.score(0, (0, 0, 0), &arch, &tech).is_none());
        assert!(lanes.score(1, (0, 0, 0), &arch, &tech).is_none());
        assert!(lanes.score(2, (0, 0, 0), &arch, &tech).is_some());
    }

    #[test]
    fn retain_compacts_in_order() {
        let arch = presets::case_study_accelerator();
        let tech = Technology::paper_16nm();
        let layer = zoo::resnet50(224).layer("res2a_branch2b").cloned().unwrap();
        let (mut cands, mut ids) = (Vec::new(), Vec::new());
        enumerate_into(&layer, &arch, EnumOptions::default(), &mut cands, &mut ids);
        let ladder = [arch.chiplet.core.a_l1_bytes];
        let w = [arch.chiplet.core.w_l1_bytes];
        let a2 = [arch.chiplet.a_l2_bytes];
        let mut lanes = sweep_lanes_for(&ladder, &w, &a2, 0);
        let mut pushed = 0usize;
        for (m, &gid) in cands.iter().zip(&ids) {
            if lanes.push_candidate(&layer, &arch, m, gid, 0, 0) {
                pushed += 1;
            }
            if pushed == 5 {
                break;
            }
        }
        assert_eq!(lanes.len(), 5);
        let scores: Vec<_> = (0..5)
            .map(|i| lanes.score(i, (0, 0, 0), &arch, &tech))
            .collect();
        lanes.retain(&[false, true, false, true, true]);
        assert_eq!(lanes.len(), 3);
        for (new_i, old_i) in [1usize, 3, 4].iter().enumerate() {
            assert_eq!(lanes.score(new_i, (0, 0, 0), &arch, &tech), scores[*old_i]);
        }
    }

    #[test]
    fn lanes_pool_round_trips() {
        let a = sweep_lanes_for(&A_L1, &W_L1, &A_L2, 64);
        assert_eq!(a.a_l1.len(), 3);
        drop(a);
        let b = sweep_lanes_for(&A_L2, &A_L2, &A_L2, 64);
        assert_eq!(b.a_l1.len(), 2);
        assert!(b.a_l1.capacity() >= 3, "pool must keep capacity");
    }
}
