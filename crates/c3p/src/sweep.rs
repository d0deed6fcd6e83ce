//! Streaming struct-of-arrays repricer for the pre-design memory sweep.
//!
//! A sweep unit only ever asks for accesses at the *rungs of its capacity
//! ladders*, and of a layer's candidates it keeps only those that rank
//! among the best `k` by energy at one of the memory grid's pruning
//! corners. [`SweepLanes::select`] builds that kept set as a two-phase
//! branch-and-bound over the layer's [`CandidateSpace`], shaped like the
//! search's batched scan (`crate::batch`):
//!
//! * Phase A (span `sweep_floor`) resolves each `(geometry, rotation)`
//!   pair once through the geometry memo and prices its penalty-free
//!   volumes (`Paths::base`) at every corner into a per-pair floor lane:
//!   the same `f64` as [`Floors`](crate::Floors)`::energy_pj` on that
//!   corner's machine, or NaN where the corner's A-L1, O-L2 or W-L1 stream
//!   check rejects the geometry. Each corner needs its own floor because
//!   per-access SRAM energy grows with capacity.
//! * Phase B (span `sweep_corners`) visits the candidates in canonical
//!   order against one [`TopK`] per corner. A candidate whose floor is NaN
//!   or strictly above the corner's `k`-th score at every corner is
//!   skipped: no mapping, nest, walk or lane. Otherwise its nest is walked
//!   once per tensor into the C³P kernel's inline staircases
//!   (`c3p::kernel::Staircases`, one `(Cc_k, P_k)` list per path), every
//!   ladder rung is read off them as a threshold product into pooled,
//!   thread-local lanes, and it is scored at and offered to each corner
//!   where its floor can still place. The kept set is the union of the
//!   corners' selections, compacted in place.
//!
//! A floor never exceeds its candidate's score at the same corner (every
//! reload multiplier is at least 1 and pricing is monotone in the access
//! counts), so a skipped candidate scores above `k` candidates a corner
//! already holds. Offers still arrive in index order, so each corner's
//! selection is exactly the first `k` of a stable sort over every
//! candidate. Repricing a kept candidate at a design point then costs five
//! lane lookups, the kernel's assembly, and the energy model (plus the
//! runtime model for [`SweepLanes::score`]); steady-state sweep units
//! allocate nothing.
//!
//! Bit-identity with the materialized oracle
//! ([`LayerProfiles`](crate::reference::LayerProfiles) resolved through
//! [`resolve_at_capacities`](crate::reference::resolve_at_capacities)) is
//! pinned by the tests below and by the differential sweep-equivalence
//! harness in `tests/`. Counter semantics match one `decompose` call per
//! enumerated candidate (geometry memo replay, as in the search) and one
//! penalty-counter check per scored point; the skip rule decides which
//! corner points are scored, and the reference engine applies the same
//! rule from its own data.

use std::cell::RefCell;

use baton_arch::{PackageConfig, Technology};
use baton_mapping::enumerate::{CandidateSpace, EnumOptions, EnumStats};
use baton_mapping::{Mapping, MappingGeometry, NestScratch, Volumes};
use baton_model::{ConvSpec, ACT_BITS};
use baton_parallel::TopK;
use baton_telemetry::{count_n, span, Counter};

use crate::evaluate::{price, runtime_bound, AccessCounts};
use crate::kernel::{GeomMemo, NestView, Paths, Pooled, Rung};

/// Per-candidate scalar metadata, kept alongside the resolved lanes.
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// One pruning corner of a sweep unit's memory grid.
#[derive(Debug, Clone, Copy)]
pub struct Corner {
    /// Ladder rung indices `(A-L1, W-L1, A-L2)` of the corner's cell.
    pub cell: (usize, usize, usize),
    /// The unit's machine with the cell's buffer capacities installed.
    pub arch: PackageConfig,
}

/// Feasibility floors of one candidate: the minimum A-L1 bytes that hold
/// the core's input window, and the minimum O-L2 bytes that hold the
/// chiplet tile's outputs. Both depend on the candidate's geometry only.
pub fn feasibility_floors(layer: &ConvSpec, arch: &PackageConfig, mapping: &Mapping) -> (u64, u64) {
    let (ho_c, wo_c) = mapping.core_plane;
    let win = |t: u32, s: u32, k: u32| u64::from((t - 1) * s + k);
    let chunk = u64::from(arch.chiplet.core.vector.min(layer.ci_per_group().max(1)));
    let a_l1_floor = win(ho_c, layer.stride_h(), layer.kh())
        * win(wo_c, layer.stride_w(), layer.kw())
        * chunk
        * ACT_BITS
        / 8;
    let o_l2_floor = mapping.chiplet_tile.elems() * ACT_BITS / 8;
    (a_l1_floor, o_l2_floor)
}

/// The capacity ladders and the candidate-major rung lanes of one unit's
/// walked candidates.
#[derive(Debug, Default)]
struct Lanes {
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
    /// Reusable nest/footprint buffers for the resolution walks.
    nest: NestScratch,
}

/// Struct-of-arrays rung lanes for one sweep unit's corner-pruned
/// candidate set, with the pooled scratch of the selection that fills them.
///
/// Acquire via [`sweep_lanes_for`] and fill with [`Self::select`]; every
/// buffer is cleared with capacity kept, so a worker that processes many
/// `(geometry, O-L1)` units reaches a zero-allocation steady state.
/// Candidate-major layout: kept candidate `i`'s paths resolved at ladder
/// rung `r` live at `i * rungs + r`.
#[derive(Debug, Default)]
pub struct SweepLanes {
    lanes: Lanes,
    /// Geometry memo, indexed by the enumerator's dense `geom_id`.
    memo: GeomMemo,
    /// Phase A's floor of each `(geometry, rotation)` pair at each corner,
    /// pair-major (`pair * corners + corner`); NaN for a rejected geometry
    /// and where the corner's feasibility checks fail.
    floors: Vec<f64>,
    /// Phase B's selection per corner, the lane index as the item.
    tops: Vec<TopK<u32>>,
    /// One flag per walked lane: held by some corner's selection.
    keep: Vec<bool>,
}

impl Lanes {
    /// Installs the unit's capacity ladders and clears the candidates,
    /// keeping every capacity.
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
    }

    /// Whether a candidate with these feasibility floors and plane ways
    /// passes the A-L1, O-L2 and W-L1 stream checks at the cell `(a1, w1)`
    /// of a machine `arch`.
    #[inline]
    fn fits(
        &self,
        (a_l1_floor, o_l2_floor): (u64, u64),
        plane_ways: u64,
        (a1, w1): (usize, usize),
        arch: &PackageConfig,
    ) -> bool {
        a_l1_floor <= self.a_l1[a1]
            && o_l2_floor <= arch.chiplet.o_l2_bytes
            && self.min_w_bits <= plane_ways * self.w_l1[w1] * 8
    }

    /// Walks one candidate's five capacity-dependent paths into staircases
    /// once, and appends a lane of them resolved at every ladder rung. The
    /// per-rung values are bit-identical to the materialized oracle
    /// ([`crate::reference`]) at the same capacities.
    fn push(
        &mut self,
        geom: &MappingGeometry,
        layer: &ConvSpec,
        mapping: &Mapping,
        (a_l1_floor, o_l2_floor): (u64, u64),
    ) {
        let plane_ways = u64::from(geom.plane_ways());
        let n = NestView::build(geom, layer, mapping, &mut self.nest);
        let stairs = n.stairs();
        for r in 0..self.rungs {
            let rung = Rung {
                a_l1_bits: self.a_l1.get(r).map(|b| b * 8),
                a_l2_bits: self.a_l2.get(r).map(|b| b * 8),
                w_eff_bits: self.w_l1.get(r).map(|b| plane_ways * b * 8),
            };
            self.paths.push(stairs.at(&n.volumes, rung));
        }
        self.meta.push(CandMeta {
            v: n.volumes,
            fill_streams: n.fill_streams,
            plane_ways,
            compute_cycles: n.compute_cycles,
            a_l1_floor,
            o_l2_floor,
        });
    }

    /// Compacts the candidate set to the `keep`-flagged subset, preserving
    /// order. In place, no allocation.
    fn retain(&mut self, keep: &[bool]) {
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

    /// The energy half of [`SweepLanes::score`], bit for bit and with the
    /// same feasibility checks and penalty counters, without the runtime
    /// model: what corner pruning ranks by.
    #[inline]
    fn energy(
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
    /// and access assembly at one cell, shared by [`SweepLanes::score`] and
    /// [`Self::energy`].
    #[inline]
    fn access(
        &self,
        i: usize,
        (a1, w1, a2): (usize, usize, usize),
        arch: &PackageConfig,
    ) -> Option<AccessCounts> {
        let m = &self.meta[i];
        debug_assert_eq!(self.a_l1[a1], arch.chiplet.core.a_l1_bytes);
        debug_assert_eq!(self.w_l1[w1], arch.chiplet.core.w_l1_bytes);
        debug_assert_eq!(self.a_l2[a2], arch.chiplet.a_l2_bytes);
        if !self.fits((m.a_l1_floor, m.o_l2_floor), m.plane_ways, (a1, w1), arch) {
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

impl SweepLanes {
    /// Number of candidates currently held.
    pub fn len(&self) -> usize {
        self.lanes.meta.len()
    }

    /// Whether no candidate is held.
    pub fn is_empty(&self) -> bool {
        self.lanes.meta.is_empty()
    }

    /// Fills the lanes with the corner-pruned candidate set of `layer` on
    /// the unit's machine `reference`: the union of the `k` best candidates
    /// by energy (ties to the earliest) at each of `corners`, in canonical
    /// order. Returns how many enumerated candidates decompose on
    /// `reference`, before pruning; 0 means none does.
    ///
    /// Counts the space's enumeration counters, one `DecomposeCalls` and,
    /// for a rejected candidate, its reject counter per enumerated
    /// candidate, and the penalty counters of every corner point scored.
    pub fn select(
        &mut self,
        layer: &ConvSpec,
        reference: &PackageConfig,
        tech: &Technology,
        enum_options: EnumOptions,
        corners: &[Corner],
        k: usize,
    ) -> u64 {
        CandidateSpace::pooled(|space| {
            let stats = {
                let _floor = span("sweep_floor");
                let stats = space.fill(layer, reference, enum_options);
                self.fill_floors(layer, reference, tech, space, stats, corners);
                stats
            };
            let _corners = span("sweep_corners");
            self.rank(layer, reference, tech, space, stats.emitted, corners, k)
        })
    }

    /// Phase A: resolves each `(geometry, rotation)` pair of the space once
    /// and stores its floor at every corner.
    fn fill_floors(
        &mut self,
        layer: &ConvSpec,
        reference: &PackageConfig,
        tech: &Technology,
        space: &CandidateSpace,
        stats: EnumStats,
        corners: &[Corner],
    ) {
        // One decompose per candidate, as a per-candidate scan counts them;
        // phase B replays each rejected candidate's reject counter.
        count_n(Counter::DecomposeCalls, stats.emitted as u64);
        self.memo.reset(stats.geoms);
        let width = corners.len();
        self.floors.clear();
        self.floors.resize(2 * stats.geoms * width, f64::NAN);
        for s in space.touched(0..stats.emitted) {
            let m = space.mapping(s);
            let Ok(geom) = self.memo.resolve(layer, reference, s.geom, || m) else {
                continue;
            };
            let (v, _, _) = geom.volumes_for(s.rotation);
            let base = Paths::base(&v).access(&v, u64::from(geom.weight_streams()));
            let bytes = feasibility_floors(layer, reference, &m);
            let plane_ways = u64::from(geom.plane_ways());
            let lane = &mut self.floors[s.pair() * width..][..width];
            for (floor, c) in lane.iter_mut().zip(corners) {
                if self
                    .lanes
                    .fits(bytes, plane_ways, (c.cell.0, c.cell.1), &c.arch)
                {
                    *floor = price(&base, &c.arch, tech).total_pj();
                }
            }
        }
    }

    /// Phase B: the canonical-order scan that walks, scores and offers only
    /// the candidates whose floor can still place at some corner, then
    /// keeps the union of the corners' selections. Returns the number of
    /// decomposable candidates.
    #[allow(clippy::too_many_arguments)] // the full selection context, passed flat
    fn rank(
        &mut self,
        layer: &ConvSpec,
        reference: &PackageConfig,
        tech: &Technology,
        space: &CandidateSpace,
        n: usize,
        corners: &[Corner],
        k: usize,
    ) -> u64 {
        let width = corners.len();
        self.tops.resize_with(width, TopK::default);
        self.tops.iter_mut().for_each(|top| top.reset(k));
        self.lanes.meta.clear();
        self.lanes.paths.clear();
        let mut decomposable = 0u64;
        // The index in the space of each run's first candidate.
        let mut first = 0;
        for run in space.runs(0..n) {
            for pair in run.pairs() {
                let s = run.slot(pair);
                let Some(geom) = self.memo.replayed(s.geom) else {
                    continue;
                };
                decomposable += 1;
                let floors = &self.floors[pair * width..][..width];
                // Skip on a floor strictly above the `k`-th score, as the
                // search does; a NaN floor (infeasible corner) never
                // places.
                let places = |(&floor, top): (&f64, &TopK<u32>)| floor <= top.kth();
                if !floors.iter().zip(&self.tops).any(places) {
                    continue;
                }
                let m = space.mapping(s);
                let lane = self.lanes.meta.len();
                self.lanes
                    .push(geom, layer, &m, feasibility_floors(layer, reference, &m));
                let index = first + run.position(pair);
                for ((&floor, top), c) in floors.iter().zip(&mut self.tops).zip(corners) {
                    if floor <= top.kth() {
                        if let Some(e) = self.lanes.energy(lane, c.cell, &c.arch, tech) {
                            top.offer(e, index, lane as u32);
                        }
                    }
                }
            }
            first += run.pairs().len();
        }
        self.keep.clear();
        self.keep.resize(self.lanes.meta.len(), false);
        for top in &self.tops {
            for &(_, _, lane) in top.entries() {
                self.keep[lane as usize] = true;
            }
        }
        self.lanes.retain(&self.keep);
        decomposable
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
        let access = self.lanes.access(i, cell, arch)?;
        let energy = price(&access, arch, tech);
        let (cycles, _) = runtime_bound(self.lanes.meta[i].compute_cycles, &access, arch, tech);
        Some((energy.total_pj(), cycles))
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
    s.lanes.reset(a_l1, w_l1, a_l2, min_w_bits);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::tests::{layers, machines};
    use crate::reference::{resolve_at_capacities, LayerProfiles};
    use baton_arch::presets;
    use baton_mapping::enumerate::enumerate_into;
    use baton_model::zoo;
    use proptest::prelude::*;

    const A_L1: [u64; 3] = [1024, 8 * 1024, 128 * 1024];
    const W_L1: [u64; 3] = [2 * 1024, 18 * 1024, 256 * 1024];
    const A_L2: [u64; 2] = [32 * 1024, 256 * 1024];
    /// The starved machine of the search's penalty test (A-L2 2 KiB, A-L1
    /// 320 B), where the C³P penalties fire on most candidates.
    const STARVED: ([u64; 1], [u64; 1], [u64; 1]) = ([320], [18 * 1024], [2 * 1024]);

    /// A pooled lane set with the geometry memo cleared, for tests that
    /// walk candidates into it directly.
    fn lanes_for(a_l1: &[u64], w_l1: &[u64], a_l2: &[u64], min_w: u64) -> Pooled<SweepLanes> {
        let mut lanes = sweep_lanes_for(a_l1, w_l1, a_l2, min_w);
        lanes.memo.reset(0);
        lanes
    }

    /// Walks one enumerated candidate into `lanes` through the geometry
    /// memo, as phase B walks a candidate that can place; `false` if the
    /// candidate does not decompose.
    fn push_candidate(
        lanes: &mut SweepLanes,
        layer: &ConvSpec,
        arch: &PackageConfig,
        m: &Mapping,
        gid: u32,
        floors: (u64, u64),
    ) -> bool {
        let SweepLanes { lanes, memo, .. } = lanes;
        let Ok(geom) = memo.get(layer, arch, m, gid) else {
            return false;
        };
        lanes.push(geom, layer, m, floors);
        true
    }

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
                let mut lanes = lanes_for(a_l1s, w_l1s, a_l2s, min_w);
                let mut kept: Vec<Mapping> = Vec::new();
                for (m, &gid) in cands.iter().zip(&ids).take(256) {
                    if push_candidate(&mut lanes, &layer, &base, m, gid, (0, 0)) {
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
                                    lanes.lanes.energy(i, (a1, w1, a2), &arch, &tech),
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
        let mut lanes = lanes_for(&ladder, &w, &a2, 0);
        let (m, gid) = (cands[0], ids[0]);
        // An A-L1 floor above the rung makes the cell infeasible; an O-L2
        // floor above the machine's O-L2 does too.
        let o_l2 = arch.chiplet.o_l2_bytes;
        assert!(push_candidate(
            &mut lanes,
            &layer,
            &arch,
            &m,
            gid,
            (ladder[0] + 1, 0)
        ));
        assert!(push_candidate(
            &mut lanes,
            &layer,
            &arch,
            &m,
            gid,
            (0, o_l2 + 1)
        ));
        assert!(push_candidate(&mut lanes, &layer, &arch, &m, gid, (0, 0)));
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
        let mut lanes = lanes_for(&ladder, &w, &a2, 0);
        let mut pushed = 0usize;
        for (m, &gid) in cands.iter().zip(&ids) {
            if push_candidate(&mut lanes, &layer, &arch, m, gid, (0, 0)) {
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
        lanes.lanes.retain(&[false, true, false, true, true]);
        assert_eq!(lanes.len(), 3);
        for (new_i, old_i) in [1usize, 3, 4].iter().enumerate() {
            assert_eq!(lanes.score(new_i, (0, 0, 0), &arch, &tech), scores[*old_i]);
        }
    }

    #[test]
    fn lanes_pool_round_trips() {
        let a = sweep_lanes_for(&A_L1, &W_L1, &A_L2, 64);
        assert_eq!(a.lanes.a_l1.len(), 3);
        drop(a);
        let b = sweep_lanes_for(&A_L2, &A_L2, &A_L2, 64);
        assert_eq!(b.lanes.a_l1.len(), 2);
        assert!(b.lanes.a_l1.capacity() >= 3, "pool must keep capacity");
    }

    /// The enumeration ladder of the pre-design sweep's defaults.
    fn sweep_enum() -> EnumOptions {
        EnumOptions {
            plane_fractions: &[1, 4, 16],
            co_fractions: &[1, 4],
            ..EnumOptions::default()
        }
    }

    /// The eight first/last-rung corners of the ladders, nested A-L1 x
    /// W-L1 x A-L2, on `reference` (single-rung ladders repeat corners).
    fn corners_of(
        reference: &PackageConfig,
        a_l1: &[u64],
        w_l1: &[u64],
        a_l2: &[u64],
    ) -> Vec<Corner> {
        let ends = |l: &[u64]| [0, l.len() - 1];
        let mut out = Vec::new();
        for a1 in ends(a_l1) {
            for w1 in ends(w_l1) {
                for a2 in ends(a_l2) {
                    let mut arch = *reference;
                    arch.chiplet.core.a_l1_bytes = a_l1[a1];
                    arch.chiplet.core.w_l1_bytes = w_l1[w1];
                    arch.chiplet.a_l2_bytes = a_l2[a2];
                    out.push(Corner {
                        cell: (a1, w1, a2),
                        arch,
                    });
                }
            }
        }
        out
    }

    /// What one bounded-selection check exercised.
    #[derive(Debug, Default)]
    struct Exercised {
        /// Decomposable candidates the bounded scan did not walk.
        skipped: usize,
        /// Feasible corner points where the floor equals the score.
        exact: usize,
        /// Feasible corner points where a penalty lifts the score above
        /// the floor.
        penalized: usize,
        /// Corner points rejected by a feasibility check (NaN floor).
        infeasible: usize,
        /// Corners whose full sort cut through a run of tied scores.
        cut_ties: usize,
    }

    /// Checks [`SweepLanes::select`] against an unbounded oracle for one
    /// `(layer, machine, ladders, k)`: every decomposable candidate walked
    /// into lanes, each corner's best `k` by a full stable sort.
    ///
    /// * Soundness: each candidate's pair floor at each corner is at most
    ///   its lane energy there, and NaN exactly where it is infeasible.
    /// * Exactness: the bounded selection keeps the oracle's lanes, in
    ///   order, field for field.
    fn check_bounded_selection(
        layer: &ConvSpec,
        machine: &PackageConfig,
        (a_l1, w_l1, a_l2): (&[u64], &[u64], &[u64]),
        k: usize,
    ) -> Exercised {
        let tech = Technology::paper_16nm();
        // The unit's reference machine carries the largest rungs.
        let mut reference = *machine;
        reference.chiplet.core.a_l1_bytes = *a_l1.last().unwrap();
        reference.chiplet.core.w_l1_bytes = *w_l1.last().unwrap();
        reference.chiplet.a_l2_bytes = *a_l2.last().unwrap();
        let corners = corners_of(&reference, a_l1, w_l1, a_l2);
        let core = &reference.chiplet.core;
        let min_w = u64::from(core.lanes) * u64::from(core.vector) * 8;

        let mut bounded = sweep_lanes_for(a_l1, w_l1, a_l2, min_w);
        let decomposable = bounded.select(layer, &reference, &tech, sweep_enum(), &corners, k);

        let mut all = sweep_lanes_for(a_l1, w_l1, a_l2, min_w);
        let mut pairs = Vec::new();
        CandidateSpace::pooled(|space| {
            let stats = space.fill(layer, &reference, sweep_enum());
            all.fill_floors(layer, &reference, &tech, space, stats, &corners);
            let SweepLanes { lanes, memo, .. } = &mut *all;
            for s in space.slots(0..stats.emitted) {
                if let Some(geom) = memo.replayed(s.geom) {
                    let m = space.mapping(s);
                    lanes.push(geom, layer, &m, feasibility_floors(layer, &reference, &m));
                    pairs.push(s.pair());
                }
            }
        });
        assert_eq!(all.len() as u64, decomposable, "decomposable tally");
        let mut seen = Exercised {
            skipped: all.len() - bounded.keep.len(),
            ..Exercised::default()
        };

        let width = corners.len();
        for (i, &pair) in pairs.iter().enumerate() {
            for (c, corner) in corners.iter().enumerate() {
                let floor = all.floors[pair * width + c];
                match all.lanes.energy(i, corner.cell, &corner.arch, &tech) {
                    Some(e) => {
                        assert!(floor <= e, "floor {floor} above energy {e} at {c}");
                        if floor == e {
                            seen.exact += 1;
                        } else {
                            seen.penalized += 1;
                        }
                    }
                    None => {
                        assert!(floor.is_nan(), "infeasible corner {c} has floor {floor}");
                        seen.infeasible += 1;
                    }
                }
            }
        }

        let mut keep = vec![false; all.len()];
        for corner in &corners {
            let mut scored: Vec<(f64, usize)> = (0..all.len())
                .filter_map(|i| {
                    all.lanes
                        .energy(i, corner.cell, &corner.arch, &tech)
                        .map(|e| (e, i))
                })
                .collect();
            scored.sort_by(|a, b| a.0.total_cmp(&b.0));
            if k > 0 && scored.len() > k && scored[k - 1].0 == scored[k].0 {
                seen.cut_ties += 1;
            }
            scored.iter().take(k).for_each(|&(_, i)| keep[i] = true);
        }
        all.lanes.retain(&keep);
        assert_eq!(bounded.lanes.meta, all.lanes.meta, "kept candidates");
        assert_eq!(bounded.lanes.paths, all.lanes.paths, "kept lanes");
        seen
    }

    /// Ladders with starved rungs (A-L1 320 B, A-L2 2 KiB) and single-rung
    /// ladders, whose corners repeat.
    const A_L1S: [&[u64]; 4] = [
        &[320],
        &[320, 8 * 1024],
        &[1024, 8 * 1024, 128 * 1024],
        &[32 * 1024],
    ];
    const W_L1S: [&[u64]; 3] = [
        &[18 * 1024],
        &[2 * 1024, 256 * 1024],
        &[4 * 1024, 144 * 1024],
    ];
    const A_L2S: [&[u64]; 3] = [
        &[2 * 1024],
        &[2 * 1024, 256 * 1024],
        &[32 * 1024, 256 * 1024],
    ];

    #[test]
    fn bounded_selection_is_sound_and_exact_on_zoo_layers() {
        // Fixed cases that must reach every branch the generated ones may
        // miss: skipped candidates, exact and penalized floors, infeasible
        // corners, and sorts that cut through tied scores.
        let machine = presets::case_study_accelerator();
        let mut total = Exercised::default();
        for (_, layer) in zoo::representative_layers(224) {
            for (a1, w1, a2) in [(0, 0, 0), (1, 1, 1), (2, 2, 2)] {
                for k in [1, 3] {
                    let seen = check_bounded_selection(
                        &layer,
                        &machine,
                        (A_L1S[a1], W_L1S[w1], A_L2S[a2]),
                        k,
                    );
                    total.skipped += seen.skipped;
                    total.exact += seen.exact;
                    total.penalized += seen.penalized;
                    total.infeasible += seen.infeasible;
                    total.cut_ties += seen.cut_ties;
                }
            }
        }
        assert!(
            total.skipped > 0
                && total.exact > 0
                && total.penalized > 0
                && total.infeasible > 0
                && total.cut_ties > 0,
            "{total:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn bounded_selection_is_sound_and_exact_on_generated_shapes(
            layer in layers(),
            machine in machines(),
            a1 in 0..A_L1S.len(),
            w1 in 0..W_L1S.len(),
            a2 in 0..A_L2S.len(),
            k in 0usize..5,
        ) {
            check_bounded_selection(&layer, &machine, (A_L1S[a1], W_L1S[w1], A_L2S[a2]), k);
        }
    }
}
