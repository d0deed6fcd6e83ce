//! Workload decomposition: turning `(layer, machine, mapping)` into exact
//! loop counts, data volumes and working-set footprints.
//!
//! This is the geometry half of the analytical framework; the C3P engine
//! (crate `baton-c3p`) combines the [`Decomposition`] with buffer capacities
//! to produce access counts and energy. All volumes are *base* quantities:
//! they count one pass over each unique working set, and the C3P penalty
//! multipliers account for capacity-induced reloads.
//!
//! Window extents use the un-clipped sliding-window formula
//! `(t-1)*stride + k`; border clipping would reduce volumes by at most one
//! halo strip per feature-map edge, which is negligible at the tile counts
//! the mapping engine selects (the exact clipped geometry is available in
//! `baton_model::halo` and is used for the Figure 7 study).

use std::fmt;

use baton_arch::PackageConfig;
use baton_model::{ConvSpec, ACT_BITS, PSUM_BITS, WGT_BITS};
use serde::{Deserialize, Serialize};

use crate::mapping::Mapping;
use crate::nest::{Loop, LoopLevel, LoopNest};
use crate::primitives::TemporalOrder;
use crate::primitives::{ChipletPartition, Dim, PackagePartition, RotationMode};
use crate::tile::{ceil_div, Tile};

/// Reasons a mapping is illegal for a given layer/machine pair.
///
/// `Copy` on purpose: the batched evaluator memoizes
/// `Result<MappingGeometry, MappingError>` per geometry, and every field is
/// plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingError {
    /// A planar partition grid does not match the unit count of its level.
    GridMismatch {
        /// `"package"` or `"chiplet"`.
        level: &'static str,
        /// Tiles in the grid.
        grid_tiles: u32,
        /// Parallel units at that level.
        units: u32,
    },
    /// A channel partition has more ways than output channels (idle units).
    ChannelsTooFew {
        /// `"package"` or `"chiplet"`.
        level: &'static str,
        /// Output channels available at that level.
        co: u32,
        /// Partition ways requested.
        ways: u32,
    },
    /// A planar grid has more rows/columns than output rows/columns.
    PlaneTooFine {
        /// `"package"` or `"chiplet"`.
        level: &'static str,
    },
    /// The O-L1 register file cannot hold the `HO_c x WO_c x L` psum tile.
    OL1Overflow {
        /// Required 24-bit slots.
        required: u64,
        /// Available slots.
        available: u64,
    },
    /// The O-L2 cannot hold the single-chiplet output tile.
    OL2Overflow {
        /// Required bytes.
        required: u64,
        /// Available bytes.
        available: u64,
    },
    /// The A-L1 cannot hold one `P`-channel chunk of the core-tile window.
    AL1Overflow {
        /// Required bytes.
        required: u64,
        /// Available bytes.
        available: u64,
    },
    /// The effective W-L1 (pool share) cannot hold one `L x P` weight block.
    WL1Overflow {
        /// Required bytes.
        required: u64,
        /// Available bytes.
        available: u64,
    },
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::GridMismatch {
                level,
                grid_tiles,
                units,
            } => write!(
                f,
                "{level} grid has {grid_tiles} tiles but the level has {units} units"
            ),
            MappingError::ChannelsTooFew { level, co, ways } => {
                write!(f, "{level} splits {co} output channels {ways} ways")
            }
            MappingError::PlaneTooFine { level } => {
                write!(f, "{level} planar grid finer than the output plane")
            }
            MappingError::OL1Overflow {
                required,
                available,
            } => write!(f, "O-L1 needs {required} psum slots, has {available}"),
            MappingError::OL2Overflow {
                required,
                available,
            } => write!(f, "O-L2 needs {required} B, has {available} B"),
            MappingError::AL1Overflow {
                required,
                available,
            } => write!(f, "A-L1 needs {required} B, has {available} B"),
            MappingError::WL1Overflow {
                required,
                available,
            } => write!(f, "W-L1 needs {required} B, has {available} B"),
        }
    }
}

impl std::error::Error for MappingError {}

impl MappingError {
    /// The telemetry rejection counter this error increments, so callers
    /// that memoize decomposition results can keep per-candidate reject
    /// accounting identical to calling [`decompose`] each time.
    pub fn counter(&self) -> baton_telemetry::Counter {
        use baton_telemetry::Counter;
        match self {
            MappingError::GridMismatch { .. } => Counter::RejectGridMismatch,
            MappingError::ChannelsTooFew { .. } => Counter::RejectChannelsTooFew,
            MappingError::PlaneTooFine { .. } => Counter::RejectPlaneTooFine,
            MappingError::OL1Overflow { .. } => Counter::RejectOL1Overflow,
            MappingError::OL2Overflow { .. } => Counter::RejectOL2Overflow,
            MappingError::AL1Overflow { .. } => Counter::RejectAL1Overflow,
            MappingError::WL1Overflow { .. } => Counter::RejectWL1Overflow,
        }
    }
}

/// Package-wide base data volumes in bits (one pass per unique working set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Volumes {
    /// DRAM input reads.
    pub dram_input_base: u64,
    /// Die-to-die bits moved by activation rotation.
    pub d2d_input_base: u64,
    /// A-L2 writes (DRAM-sourced plus ring-sourced input arrivals).
    pub a_l2_fill_base: u64,
    /// A-L2 reads toward the central bus (multicast counted once).
    pub a_l2_read_base: u64,
    /// A-L1 writes (each receiving core counts).
    pub a_l1_fill_base: u64,
    /// A-L1 reads by the PE arrays (capacity-independent).
    pub a_l1_read: u64,
    /// DRAM weight reads.
    pub dram_weight_base: u64,
    /// Die-to-die bits moved by weight rotation.
    pub d2d_weight_base: u64,
    /// W-L1 pool writes.
    pub w_l1_fill_base: u64,
    /// W-L1 reads by the PE arrays (broadcast counted once per stream).
    pub w_l1_read: u64,
    /// O-L1 register-file read-modify-write traffic (24-bit psums).
    pub o_l1_rmw: u64,
    /// O-L2 writes (re-quantized 8-bit outputs).
    pub o_l2_write: u64,
    /// O-L2 reads for the DRAM write-back.
    pub o_l2_read: u64,
    /// DRAM output writes.
    pub dram_output: u64,
    /// Total MAC operations.
    pub mac_ops: u64,
}

/// Working-set footprints in bits, indexed by nest position: entry `i` is the
/// footprint of everything strictly inside position `i` (0 = the core
/// compute block). Length is `nest.len() + 1`.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Footprints {
    /// Input working set of one core (A-L1 granularity).
    pub core_input: Vec<u64>,
    /// Input working set of one chiplet (A-L2 granularity).
    pub chiplet_input: Vec<u64>,
    /// Weight working set of one weight stream (W-L1 pool-share granularity).
    pub stream_weight: Vec<u64>,
}

/// The full decomposition of one layer under one mapping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decomposition {
    /// The temporal loop nest, innermost first (unit loops dropped).
    pub nest: LoopNest,
    /// Base data volumes.
    pub volumes: Volumes,
    /// Working-set footprints aligned with `nest`.
    pub footprints: Footprints,
    /// Distinct weight streams per chiplet.
    pub weight_streams: u32,
    /// Cores sharing one weight stream (plane ways).
    pub plane_ways: u32,
    /// Whether activations rotate over the ring.
    pub rotate_inputs: bool,
    /// Whether weights rotate over the ring.
    pub rotate_weights: bool,
    /// Chiplet count.
    pub n_p: u32,
    /// Cores per chiplet.
    pub n_c: u32,
    /// Lanes per core.
    pub lanes: u32,
    /// Vector width per lane.
    pub vector: u32,
    /// Effective W-L1 capacity per stream in bits (pool share).
    pub effective_w_l1_bits: u64,
    /// Ideal compute cycles (no memory stalls), critical path over chiplets.
    pub compute_cycles: u64,
    /// MAC utilization = `mac_ops / (compute_cycles * total MACs)`.
    pub utilization: f64,
}

/// One axis of extents with multiplicities; all tiling arithmetic is
/// separable per axis, so sums over tile grids become products of per-axis
/// sums.
///
/// Backed by an inline array so axis arithmetic never allocates: the
/// batched evaluator runs `mapping_geometry` tens of thousands of times per
/// layer search. The bound is exact — the deepest refinement chain is
/// `part (<=2) x balanced (<=2) x tiled (<=2) + merging`, so 16 distinct
/// extents can never be exceeded (a violation panics rather than silently
/// truncating).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Axis {
    /// `(extent, multiplicity)` pairs; extents are distinct and positive.
    pairs: [(u32, u64); Axis::CAP],
    len: usize,
}

impl Axis {
    const CAP: usize = 16;

    fn empty() -> Self {
        Self {
            pairs: [(0, 0); Axis::CAP],
            len: 0,
        }
    }

    fn push(&mut self, extent: u32, mult: u64) {
        assert!(
            self.len < Axis::CAP,
            "Axis overflow: more than {} distinct extents",
            Axis::CAP
        );
        self.pairs[self.len] = (extent, mult);
        self.len += 1;
    }

    fn pairs(&self) -> &[(u32, u64)] {
        &self.pairs[..self.len]
    }

    fn single(extent: u32) -> Self {
        let mut a = Self::empty();
        a.push(extent.max(1), 1);
        a
    }

    /// Balanced split into `parts` (sizes differ by at most one).
    fn balanced(extent: u32, parts: u32) -> Self {
        let parts = parts.clamp(1, extent.max(1));
        let base = extent / parts;
        let rem = extent % parts;
        let mut a = Self::empty();
        if rem > 0 {
            a.push(base + 1, u64::from(rem));
        }
        if base > 0 && parts > rem {
            a.push(base, u64::from(parts - rem));
        }
        a
    }

    /// Fixed-size tiling with a remainder tail.
    fn tiled(extent: u32, tile: u32) -> Self {
        let tile = tile.clamp(1, extent.max(1));
        let full = extent / tile;
        let rem = extent % tile;
        let mut a = Self::empty();
        if full > 0 {
            a.push(tile, u64::from(full));
        }
        if rem > 0 {
            a.push(rem, 1);
        }
        a
    }

    /// Applies `f` to each extent, weighted by multiplicity, and sums.
    fn sum_by(&self, mut f: impl FnMut(u32) -> u64) -> u64 {
        self.pairs().iter().map(|&(e, n)| n * f(e)).sum()
    }

    fn count(&self) -> u64 {
        self.pairs().iter().map(|&(_, n)| n).sum()
    }

    fn sum(&self) -> u64 {
        self.sum_by(u64::from)
    }

    fn max(&self) -> u32 {
        self.pairs().iter().map(|&(e, _)| e).max().unwrap_or(1)
    }

    /// Sliding-window extent sum: `sum count * ((e-1)*stride + k)`.
    fn window_sum(&self, stride: u32, k: u32) -> u64 {
        self.sum_by(|e| u64::from((e - 1) * stride + k))
    }

    /// Two-level refinement: split every extent with `split`, then merge
    /// equal refined extents (encounter order preserved).
    fn refine(&self, split: impl Fn(u32) -> Axis) -> Axis {
        let mut out = Axis::empty();
        for &(e, n) in self.pairs() {
            for &(se, sn) in split(e).pairs() {
                match out.pairs[..out.len].iter_mut().find(|(pe, _)| *pe == se) {
                    Some((_, pn)) => *pn += n * sn,
                    None => out.push(se, n * sn),
                }
            }
        }
        out
    }
}

fn window(extent: u32, stride: u32, k: u32) -> u64 {
    u64::from((extent.max(1) - 1) * stride + k)
}

/// The A-L1 feasibility floor: bytes of the input window a core reads for
/// an `ho_c x wo_c` output plane and one vector chunk of input channels.
#[inline]
pub fn a_l1_floor_bytes(layer: &ConvSpec, vector: u32, (ho_c, wo_c): (u32, u32)) -> u64 {
    let chunk = u64::from(vector.min(layer.ci_per_group().max(1)));
    window(ho_c, layer.stride_h(), layer.kh())
        * window(wo_c, layer.stride_w(), layer.kw())
        * chunk
        * ACT_BITS
        / 8
}

/// The O-L2 feasibility floor: bytes of one chiplet tile's outputs.
#[inline]
pub fn o_l2_floor_bytes(chiplet_tile: Tile) -> u64 {
    chiplet_tile.elems() * ACT_BITS / 8
}

/// Decomposes `layer` mapped on `arch` with `mapping`.
///
/// # Errors
///
/// Returns [`MappingError`] if the mapping is structurally illegal (grid/unit
/// mismatch, idle channel ways) or violates a buffer feasibility floor.
pub fn decompose(
    layer: &ConvSpec,
    arch: &PackageConfig,
    mapping: &Mapping,
) -> Result<Decomposition, MappingError> {
    use baton_telemetry::{count, Counter};
    count(Counter::DecomposeCalls);
    let result = decompose_impl(layer, arch, mapping);
    if baton_telemetry::enabled() {
        if let Err(e) = &result {
            count(e.counter());
        }
    }
    result
}

fn decompose_impl(
    layer: &ConvSpec,
    arch: &PackageConfig,
    mapping: &Mapping,
) -> Result<Decomposition, MappingError> {
    let geom = mapping_geometry(layer, arch, mapping)?;
    let (volumes, rotate_inputs, rotate_weights) = geom.volumes_for(mapping.rotation);
    let mut scratch = NestScratch::default();
    geom.build_nest_into(layer, mapping, rotate_inputs, rotate_weights, &mut scratch);
    Ok(Decomposition {
        nest: LoopNest::new(std::mem::take(&mut scratch.loops)),
        volumes,
        footprints: scratch.footprints,
        weight_streams: geom.streams,
        plane_ways: geom.plane_ways,
        rotate_inputs,
        rotate_weights,
        n_p: geom.n_p,
        n_c: geom.n_c,
        lanes: geom.lanes,
        vector: geom.vector,
        effective_w_l1_bits: geom.effective_w_l1_bits,
        compute_cycles: geom.compute_cycles,
        utilization: geom.utilization,
    })
}

/// The order- and rotation-independent core of a decomposition.
///
/// Every field is a function of `(layer, arch, package, chiplet, tile,
/// core_plane)` alone: the two temporal orders only permute the loop nest
/// ([`Self::build_nest_into`]) and the rotation mode only redistributes the
/// input/weight volumes between DRAM and the ring ([`Self::volumes_for`]) —
/// both O(1) transforms. The batched evaluator exploits this by memoizing
/// one `MappingGeometry` per distinct geometry and replaying it across the
/// up-to-8 order/rotation siblings the enumerator emits for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappingGeometry {
    consumed_input: u64,
    a_l2_read_base: u64,
    a_l1_read: u64,
    wbits: u64,
    w_l1_read: u64,
    out_bits: u64,
    o_l1_rmw: u64,
    mac_ops: u64,
    streams: u32,
    plane_ways: u32,
    n_p: u32,
    n_c: u32,
    lanes: u32,
    vector: u32,
    effective_w_l1_bits: u64,
    compute_cycles: u64,
    utilization: f64,
    package_planar: bool,
    depthwise: bool,
    t_co: u64,
    t_h: u64,
    t_w: u64,
    c_co: u64,
    c_h: u64,
    c_w: u64,
    grid_rows: u32,
    grid_cols: u32,
    ci_needed: u64,
}

impl MappingGeometry {
    /// Ideal compute cycles (no memory stalls), critical path over chiplets.
    pub fn compute_cycles(&self) -> u64 {
        self.compute_cycles
    }

    /// MAC utilization = `mac_ops / (compute_cycles * total MACs)`.
    pub fn utilization(&self) -> f64 {
        self.utilization
    }

    /// Distinct weight streams per chiplet (clamped to the tile depth).
    pub fn weight_streams(&self) -> u32 {
        self.streams
    }

    /// Cores sharing one weight stream.
    pub fn plane_ways(&self) -> u32 {
        self.plane_ways
    }

    /// Effective W-L1 capacity per stream in bits (pool share).
    pub fn effective_w_l1_bits(&self) -> u64 {
        self.effective_w_l1_bits
    }

    /// Chiplet count.
    pub fn n_p(&self) -> u32 {
        self.n_p
    }

    /// Expands the geometry into package-wide base volumes under `rotation`.
    ///
    /// Returns `(volumes, rotate_inputs, rotate_weights)`; bit-identical to
    /// what [`decompose`] produces for the same mapping.
    pub fn volumes_for(&self, rotation: RotationMode) -> (Volumes, bool, bool) {
        let n_p = u64::from(self.n_p);
        let ring = rotation == RotationMode::Ring && self.n_p > 1;
        // Depthwise layers pair each output channel with exactly one input
        // channel, so a C-type package split also splits the inputs: nothing
        // is shared and rotation degenerates.
        let rotate_inputs = ring && !self.package_planar && !self.depthwise;
        let rotate_weights = ring && self.package_planar;

        // With rotation each element is DRAM-loaded once by its home chiplet
        // and then crosses `N_P - 1` ring links; without it every chiplet
        // loads its full consumption from DRAM directly.
        let (dram_input_base, d2d_input_base) = if rotate_inputs {
            (
                self.consumed_input / n_p,
                self.consumed_input / n_p * (n_p - 1),
            )
        } else {
            (self.consumed_input, 0)
        };
        let (dram_weight_base, d2d_weight_base, w_l1_fill_base) = if rotate_weights {
            (self.wbits, self.wbits * (n_p - 1), self.wbits * n_p)
        } else if self.package_planar && self.n_p > 1 {
            // Weights shared but fetched by every chiplet from DRAM.
            (self.wbits * n_p, 0, self.wbits * n_p)
        } else {
            (self.wbits, 0, self.wbits)
        };
        let volumes = Volumes {
            dram_input_base,
            d2d_input_base,
            a_l2_fill_base: self.consumed_input,
            a_l2_read_base: self.a_l2_read_base,
            a_l1_fill_base: self.a_l2_read_base * u64::from(self.streams),
            a_l1_read: self.a_l1_read,
            dram_weight_base,
            d2d_weight_base,
            w_l1_fill_base,
            w_l1_read: self.w_l1_read,
            o_l1_rmw: self.o_l1_rmw,
            o_l2_write: self.out_bits,
            o_l2_read: self.out_bits,
            dram_output: self.out_bits,
            mac_ops: self.mac_ops,
        };
        (volumes, rotate_inputs, rotate_weights)
    }
}

/// The key of one plane axis' tiling terms ([`PlaneTerms`]) within one
/// `(layer, arch)`: every mapping-dependent input of those terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlaneKey {
    /// Package planar-grid rows (H) or columns (W); 0 for a channel
    /// package partition, whose chiplets all tile the whole plane.
    pub package_parts: u32,
    /// Chiplet core-grid rows (H) or columns (W); 1 for a channel chiplet
    /// partition.
    pub grid: u32,
    /// Chiplet-tile extent along the axis.
    pub tile: u32,
    /// Core-tile extent along the axis.
    pub core: u32,
}

/// The tiling terms of one plane axis (H or W), each summed or maxed over
/// the axis alone. [`mapping_geometry_with`] multiplies the H and W terms
/// together (all tiling arithmetic is separable per axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaneTerms {
    /// Input-window extent summed over the chiplet tiles of every part.
    tile_winsum: u64,
    /// Input-window extent summed over the core tiles of every part.
    core_winsum: u64,
    /// Core tiles over every part.
    core_tiles: u64,
    /// Output extent summed over the package parts.
    part_sum: u64,
    /// Critical-path steps: the worst part's tiles, each paced by its
    /// largest balanced core share.
    cycles: u64,
    /// Chiplet-tile loop count (max over parts).
    chiplet_steps: u64,
    /// Core-tile loop count inside one chiplet tile.
    core_steps: u64,
}

impl PlaneTerms {
    /// The terms of an output axis of `extent` under a sliding window of
    /// `stride` and `kernel`, tiled as `key` says.
    fn of(extent: u32, stride: u32, kernel: u32, key: PlaneKey) -> Self {
        let part = if key.package_parts == 0 {
            Axis::single(extent)
        } else {
            Axis::balanced(extent, key.package_parts)
        };
        // Chiplet tiles, then core tiles inside each (two-level refinement
        // keeps exact multiplicities of every distinct extent).
        let tiles = part.refine(|e| Axis::tiled(e, key.tile));
        let core_tiles =
            tiles.refine(|e| Axis::balanced(e, key.grid).refine(|s| Axis::tiled(s, key.core)));
        let worst = Axis::tiled(part.max(), key.tile);
        Self {
            tile_winsum: tiles.window_sum(stride, kernel),
            core_winsum: core_tiles.window_sum(stride, kernel),
            core_tiles: core_tiles.count(),
            part_sum: part.sum(),
            cycles: worst.sum_by(|e| u64::from(ceil_div(e, key.grid))),
            chiplet_steps: axis_tile_count(&part, key.tile),
            core_steps: core_loop_count(part.max().min(key.tile), key.grid, key.core),
        }
    }
}

/// The key of the output-channel axis' terms ([`ChannelTerms`]) within one
/// `(layer, arch)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelKey {
    /// Whether the package partition is planar (every chiplet holds all
    /// output channels) rather than a channel split across chiplets.
    pub package_planar: bool,
    /// Weight streams per chiplet.
    pub streams: u32,
    /// Chiplet-tile depth in output channels.
    pub tile: u32,
}

/// The tiling terms of the output-channel axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelTerms {
    /// Lane steps summed over every stream group of every chiplet tile of
    /// every part.
    steps_total: u64,
    /// Critical-path lane steps of the worst part.
    cycles: u64,
    /// Chiplet-tile loop count (max over parts).
    chiplet_steps: u64,
    /// Lane-step loop count of one stream inside one chiplet tile.
    core_steps: u64,
}

impl ChannelTerms {
    /// The terms of `co` output channels on `n_p` chiplets of `lanes`-lane
    /// cores, tiled as `key` says.
    fn of(co: u32, n_p: u32, lanes: u32, key: ChannelKey) -> Self {
        let part = if key.package_planar {
            Axis::single(co)
        } else {
            Axis::balanced(co, n_p)
        };
        // Each chiplet tile's CO extent splits into `streams` groups, and
        // each group iterates lanes-sized steps.
        let groups = part
            .refine(|e| Axis::tiled(e, key.tile))
            .refine(|e| Axis::balanced(e, key.streams));
        let worst = Axis::tiled(part.max(), key.tile);
        let lane_steps = |e: u32| u64::from(ceil_div(ceil_div(e, key.streams), lanes));
        Self {
            steps_total: groups.sum_by(|g| u64::from(ceil_div(g, lanes))),
            cycles: worst.sum_by(lane_steps),
            chiplet_steps: axis_tile_count(&part, key.tile),
            core_steps: lane_steps(key.tile.min(part.max())),
        }
    }
}

/// The least channel-axis factors over a channel ladder: the chiplet-tile
/// depths one `(package, chiplet)` partition pair tries on one tile plane.
/// Each field of the [`ChannelTerms`], and the stream count, is its own
/// minimum over the depths, so it is at most that factor at every depth.
/// [`CheckedGeometry::ladder_bound`] prices a plane with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelFloor {
    streams: u32,
    terms: ChannelTerms,
}

impl ChannelFloor {
    /// The floor of `mapping`'s package and chiplet partitions over the
    /// chiplet-tile `depths`, each depth's terms drawn through `memo` under
    /// the key its geometry would use.
    ///
    /// # Panics
    ///
    /// If `depths` is empty: a ladder has at least one rung.
    pub fn of(
        layer: &ConvSpec,
        arch: &PackageConfig,
        mapping: &Mapping,
        depths: impl IntoIterator<Item = u32>,
        memo: &mut impl TermMemo,
    ) -> Self {
        let (co, n_p, lanes) = (layer.co(), arch.chiplets, arch.chiplet.core.lanes);
        let package_planar = matches!(mapping.package, PackagePartition::Planar(_));
        let ways = mapping.chiplet.weight_streams(arch.chiplet.cores);
        let rung = |depth: u32| {
            // As `check_geometry` clamps the streams to the tile depth.
            let streams = ways.min(depth.max(1));
            let key = ChannelKey {
                package_planar,
                streams,
                tile: depth,
            };
            let terms = memo.channel(key, || ChannelTerms::of(co, n_p, lanes, key));
            Self { streams, terms }
        };
        depths
            .into_iter()
            .map(rung)
            .reduce(|a, b| Self {
                streams: a.streams.min(b.streams),
                terms: ChannelTerms {
                    steps_total: a.terms.steps_total.min(b.terms.steps_total),
                    cycles: a.terms.cycles.min(b.terms.cycles),
                    chiplet_steps: a.terms.chiplet_steps.min(b.terms.chiplet_steps),
                    core_steps: a.terms.core_steps.min(b.terms.core_steps),
                },
            })
            .expect("a ladder has at least one rung")
    }
}

/// Which plane axis a [`PlaneKey`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaneAxis {
    /// Output rows (H).
    Rows,
    /// Output columns (W).
    Cols,
}

/// Where [`mapping_geometry_with`] gets each axis' tiling terms.
///
/// The terms are a pure function of their key and of `(layer, arch)`, so
/// an implementation may return what `terms` gave for an equal key
/// earlier, as long as the layer and the machine are the same.
pub trait TermMemo {
    /// The terms of plane axis `axis` under `key`; `terms` computes them.
    fn plane(
        &mut self,
        axis: PlaneAxis,
        key: PlaneKey,
        terms: impl FnOnce() -> PlaneTerms,
    ) -> PlaneTerms;

    /// The output-channel terms under `key`; `terms` computes them.
    fn channel(&mut self, key: ChannelKey, terms: impl FnOnce() -> ChannelTerms) -> ChannelTerms;
}

/// Computes every term afresh: the [`TermMemo`] of [`mapping_geometry`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NoMemo;

impl TermMemo for NoMemo {
    fn plane(
        &mut self,
        _: PlaneAxis,
        _: PlaneKey,
        terms: impl FnOnce() -> PlaneTerms,
    ) -> PlaneTerms {
        terms()
    }

    fn channel(&mut self, _: ChannelKey, terms: impl FnOnce() -> ChannelTerms) -> ChannelTerms {
        terms()
    }
}

/// Computes the order/rotation-independent geometry of `mapping` for
/// `layer` on `arch`: structural validation, buffer-feasibility floors, and
/// all base quantities that do not depend on temporal order or rotation
/// mode. [`decompose`] composes this with [`MappingGeometry::volumes_for`]
/// and [`MappingGeometry::build_nest_into`]; the batched evaluator calls the
/// pieces directly so it can memoize this (dominant) part per geometry.
///
/// # Errors
///
/// Returns [`MappingError`] exactly when [`decompose`] would for any mapping
/// sharing this geometry (the error never depends on order or rotation).
/// Telemetry note: unlike [`decompose`], this does NOT bump
/// `DecomposeCalls`/reject counters — memoizing callers replay them via
/// [`MappingError::counter`].
pub fn mapping_geometry(
    layer: &ConvSpec,
    arch: &PackageConfig,
    mapping: &Mapping,
) -> Result<MappingGeometry, MappingError> {
    mapping_geometry_with(layer, arch, mapping, &mut NoMemo)
}

/// [`mapping_geometry`] with the per-axis tiling terms drawn through
/// `memo`: the structural and buffer-feasibility checks
/// ([`check_geometry`]) run every time, then the H, W and CO terms
/// ([`PlaneTerms`], [`ChannelTerms`]) come from `memo`, and the geometry is
/// their products ([`CheckedGeometry::resolve`]). The result is the same
/// for any `memo` that keeps the [`TermMemo`] contract.
///
/// # Errors
///
/// As [`mapping_geometry`].
pub fn mapping_geometry_with(
    layer: &ConvSpec,
    arch: &PackageConfig,
    mapping: &Mapping,
    memo: &mut impl TermMemo,
) -> Result<MappingGeometry, MappingError> {
    Ok(check_geometry(layer, arch, mapping)?.resolve(layer, arch, mapping, memo))
}

/// A mapping that passed [`check_geometry`], with what the checks derived
/// on the way. Its geometry's products are [`Self::resolve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckedGeometry {
    /// Weight streams per chiplet (clamped to the tile depth).
    streams: u32,
    /// Cores sharing one weight stream.
    plane_ways: u32,
    /// Effective W-L1 capacity per stream in bits (pool share).
    effective_w_l1_bits: u64,
}

/// The structural and buffer-feasibility checks of
/// [`mapping_geometry_with`], alone and in its order: the package and
/// chiplet partitions against the machine and the tile, then the O-L1,
/// O-L2, A-L1 and W-L1 floors. They compute no tiling term.
///
/// # Errors
///
/// As [`mapping_geometry`]: the first check the mapping fails.
pub fn check_geometry(
    layer: &ConvSpec,
    arch: &PackageConfig,
    mapping: &Mapping,
) -> Result<CheckedGeometry, MappingError> {
    let n_p = arch.chiplets;
    let n_c = arch.chiplet.cores;
    let lanes = arch.chiplet.core.lanes;
    let vector = arch.chiplet.core.vector;
    let (ho, wo) = (layer.ho(), layer.wo());

    // --- Structural validation -------------------------------------------
    match &mapping.package {
        PackagePartition::Channel => {
            // `co < n_p` leaves chiplets idle; the balanced split handles it
            // (the enumerator prefers full-utilization partitions but falls
            // back to this for thin layers).
        }
        PackagePartition::Planar(g) => {
            if g.tiles() != n_p {
                return Err(MappingError::GridMismatch {
                    level: "package",
                    grid_tiles: g.tiles(),
                    units: n_p,
                });
            }
            if g.rows() > ho || g.cols() > wo {
                return Err(MappingError::PlaneTooFine { level: "package" });
            }
        }
    }
    let tile = mapping.chiplet_tile;
    // Channel splits wider than the tile depth leave cores idle: clamp the
    // stream count instead of rejecting, so thin layers always map.
    let streams = mapping.chiplet.weight_streams(n_c).min(tile.co.max(1));
    let plane_ways = mapping.chiplet.plane_ways(n_c);
    match &mapping.chiplet {
        ChipletPartition::Channel => {}
        ChipletPartition::Planar(g) => {
            if g.tiles() != n_c {
                return Err(MappingError::GridMismatch {
                    level: "chiplet",
                    grid_tiles: g.tiles(),
                    units: n_c,
                });
            }
            if g.rows() > tile.ho || g.cols() > tile.wo {
                return Err(MappingError::PlaneTooFine { level: "chiplet" });
            }
        }
        ChipletPartition::Hybrid { channel_ways, grid } => {
            if channel_ways * grid.tiles() != n_c {
                return Err(MappingError::GridMismatch {
                    level: "chiplet",
                    grid_tiles: channel_ways * grid.tiles(),
                    units: n_c,
                });
            }
            if tile.co < *channel_ways {
                return Err(MappingError::ChannelsTooFew {
                    level: "chiplet",
                    co: tile.co,
                    ways: *channel_ways,
                });
            }
            if grid.rows() > tile.ho || grid.cols() > tile.wo {
                return Err(MappingError::PlaneTooFine { level: "chiplet" });
            }
        }
    }

    // --- Buffer feasibility floors ----------------------------------------
    let (ho_c, wo_c) = mapping.core_plane;
    let core_psums = u64::from(ho_c) * u64::from(wo_c) * u64::from(lanes);
    let o_l1_slots = arch.chiplet.core.o_l1_bytes * 8 / PSUM_BITS;
    if core_psums > o_l1_slots {
        return Err(MappingError::OL1Overflow {
            required: core_psums,
            available: o_l1_slots,
        });
    }
    let tile_bytes = o_l2_floor_bytes(tile);
    if tile_bytes > arch.chiplet.o_l2_bytes {
        return Err(MappingError::OL2Overflow {
            required: tile_bytes,
            available: arch.chiplet.o_l2_bytes,
        });
    }
    let a_l1_need = a_l1_floor_bytes(layer, vector, mapping.core_plane);
    if a_l1_need > arch.chiplet.core.a_l1_bytes {
        return Err(MappingError::AL1Overflow {
            required: a_l1_need,
            available: arch.chiplet.core.a_l1_bytes,
        });
    }
    let effective_w_l1_bits = u64::from(plane_ways) * arch.chiplet.core.w_l1_bytes * 8;
    let w_min = u64::from(lanes) * u64::from(vector) * WGT_BITS;
    if w_min > effective_w_l1_bits {
        return Err(MappingError::WL1Overflow {
            required: w_min / 8,
            available: effective_w_l1_bits / 8,
        });
    }
    Ok(CheckedGeometry {
        streams,
        plane_ways,
        effective_w_l1_bits,
    })
}

impl CheckedGeometry {
    /// The geometry of the checked `mapping`: its CO terms under its own
    /// tile depth and stream count, and its H and W terms, all drawn
    /// through `memo`, then their products.
    pub fn resolve(
        &self,
        layer: &ConvSpec,
        arch: &PackageConfig,
        mapping: &Mapping,
        memo: &mut impl TermMemo,
    ) -> MappingGeometry {
        let key = ChannelKey {
            package_planar: matches!(mapping.package, PackagePartition::Planar(_)),
            streams: self.streams,
            tile: mapping.chiplet_tile.co,
        };
        let (co, n_p, lanes) = (layer.co(), arch.chiplets, arch.chiplet.core.lanes);
        let c = memo.channel(key, || ChannelTerms::of(co, n_p, lanes, key));
        self.products(layer, arch, mapping, self.streams, c, memo)
    }

    /// A lower bound on the geometry of every rung of a channel ladder:
    /// the checked `mapping`'s H and W terms, with each channel-dependent
    /// factor (the stream count, the total and critical-path lane steps)
    /// at its least over the ladder ([`ChannelFloor`]). Every volume and
    /// the compute cycles are products of non-negative factors, so each is
    /// at most the same field of any rung's [`Self::resolve`]; the other
    /// fields are not meaningful. `mapping` is any checked rung of the
    /// ladder: the rungs differ only in tile depth.
    pub fn ladder_bound(
        &self,
        layer: &ConvSpec,
        arch: &PackageConfig,
        mapping: &Mapping,
        ladder: &ChannelFloor,
        memo: &mut impl TermMemo,
    ) -> MappingGeometry {
        self.products(layer, arch, mapping, ladder.streams, ladder.terms, memo)
    }

    /// The geometry's products of the H and W terms (through `memo`) and
    /// the given CO terms `c` under `streams` weight streams.
    fn products(
        &self,
        layer: &ConvSpec,
        arch: &PackageConfig,
        mapping: &Mapping,
        streams: u32,
        c: ChannelTerms,
        memo: &mut impl TermMemo,
    ) -> MappingGeometry {
        let Self {
            plane_ways,
            effective_w_l1_bits,
            ..
        } = *self;
        let n_p = arch.chiplets;
        let n_c = arch.chiplet.cores;
        let lanes = arch.chiplet.core.lanes;
        let vector = arch.chiplet.core.vector;
        let (ho, wo, co) = (layer.ho(), layer.wo(), layer.co());
        let ci_g = layer.ci_per_group();
        let (kh, kw) = (layer.kh(), layer.kw());
        let (sh, sw) = (layer.stride_h(), layer.stride_w());
        let depthwise = layer.groups() > 1;
        let tile = mapping.chiplet_tile;
        let (ho_c, wo_c) = mapping.core_plane;
        let package_planar = matches!(mapping.package, PackagePartition::Planar(_));

        // --- Per-axis tiling terms --------------------------------------------
        let (package_rows, package_cols) = match &mapping.package {
            PackagePartition::Channel => (0, 0),
            PackagePartition::Planar(g) => (g.rows(), g.cols()),
        };
        let (grid_rows, grid_cols) = match &mapping.chiplet {
            ChipletPartition::Channel => (1, 1),
            ChipletPartition::Planar(g) => (g.rows(), g.cols()),
            ChipletPartition::Hybrid { grid, .. } => (grid.rows(), grid.cols()),
        };
        let key_h = PlaneKey {
            package_parts: package_rows,
            grid: grid_rows,
            tile: tile.ho,
            core: ho_c,
        };
        let key_w = PlaneKey {
            package_parts: package_cols,
            grid: grid_cols,
            tile: tile.wo,
            core: wo_c,
        };
        let h = memo.plane(PlaneAxis::Rows, key_h, || PlaneTerms::of(ho, sh, kh, key_h));
        let w = memo.plane(PlaneAxis::Cols, key_w, || PlaneTerms::of(wo, sw, kw, key_w));
        let ci_chunks = u64::from(ceil_div(ci_g, vector));

        // --- Input volumes ------------------------------------------------------
        let act = ACT_BITS;
        // Window sums over chiplet tiles, per plane pass (no CO revisits).
        let tile_winsum = h.tile_winsum * w.tile_winsum;
        // Input channels consumed by one chiplet for one plane tile pass.
        let ci_consumed_per_chiplet: u64 = if depthwise {
            // Each chiplet touches only the input channels of its CO part.
            match &mapping.package {
                PackagePartition::Channel => u64::from(co) / u64::from(n_p).max(1),
                PackagePartition::Planar(_) => u64::from(layer.ci()),
            }
        } else {
            u64::from(layer.ci())
        };
        // Chiplet-count factor for C-type (all chiplets share one plane tiling).
        let chiplet_plane_factor: u64 = match &mapping.package {
            PackagePartition::Channel => u64::from(n_p),
            PackagePartition::Planar(_) => 1, // parts already enumerate chiplets
        };
        let consumed_input = tile_winsum * ci_consumed_per_chiplet * act * chiplet_plane_factor;

        // A-L2 -> bus reads: once per core-tile plane position per chiplet tile
        // pass, multicast across channel groups.
        let core_winsum = h.core_winsum * w.core_winsum;
        let a_l2_read_base = core_winsum * ci_consumed_per_chiplet * act * chiplet_plane_factor;

        // PE-side A-L1 reads: one P-vector per (pixel, kh, kw, ci-chunk) per
        // channel step, broadcast to all lanes. The CO steps aggregate over all
        // chiplet CO parts, and the plane-axis sums aggregate over all plane
        // parts, so no chiplet factor appears here.
        let pixels: u64 = h.part_sum * w.part_sum;
        let kernel_pts = u64::from(kh) * u64::from(kw);
        let a_l1_read = pixels * c.steps_total * kernel_pts * ci_chunks * u64::from(vector) * act;

        // --- Weight volumes -----------------------------------------------------
        // (The DRAM/D2D split is rotation-dependent and lives in
        // [`MappingGeometry::volumes_for`].)
        let wbits = layer.weight_elems() * WGT_BITS;

        // W-L1 -> PE reads: one L x P block per (core-tile plane position,
        // channel step, kh, kw, ci chunk), broadcast across a stream's cores.
        // As with `a_l1_read`, plane-axis counts and the CO steps aggregate
        // over parts in complementary directions, so their product is the
        // package-wide total.
        let core_plane_positions = h.core_tiles * w.core_tiles;
        let w_l1_read = core_plane_positions
            * c.steps_total
            * kernel_pts
            * ci_chunks
            * u64::from(vector)
            * u64::from(lanes)
            * WGT_BITS;

        // --- Output volumes -----------------------------------------------------
        let out_bits = layer.output_elems() * act;
        let o_l1_rmw = layer.output_elems() * kernel_pts * ci_chunks * PSUM_BITS;

        // --- Compute time -------------------------------------------------------
        // Critical path: the worst chiplet part, each tile paced by its slowest
        // core (largest balanced sub-extent, ceil-divided lane steps).
        let mac_ops = layer.macs();
        let compute_cycles = (h.cycles * w.cycles * c.cycles * kernel_pts * ci_chunks).max(1);
        let total_units = u64::from(n_p) * u64::from(n_c) * u64::from(lanes) * u64::from(vector);
        let utilization = mac_ops as f64 / (compute_cycles as f64 * total_units as f64);

        MappingGeometry {
            consumed_input,
            a_l2_read_base,
            a_l1_read,
            wbits,
            w_l1_read,
            out_bits,
            o_l1_rmw,
            mac_ops,
            streams,
            plane_ways,
            n_p,
            n_c,
            lanes,
            vector,
            effective_w_l1_bits,
            compute_cycles,
            utilization,
            package_planar,
            depthwise,
            t_co: c.chiplet_steps,
            t_h: h.chiplet_steps,
            t_w: w.chiplet_steps,
            c_co: c.core_steps,
            c_h: h.core_steps,
            c_w: w.core_steps,
            grid_rows,
            grid_cols,
            ci_needed: ci_consumed_per_chiplet,
        }
    }
}

/// Number of chiplet-tile steps along an axis (max over parts).
fn axis_tile_count(part: &Axis, tile: u32) -> u64 {
    part.pairs()
        .iter()
        .map(|&(e, _)| Axis::tiled(e, tile).count())
        .max()
        .unwrap_or(1)
}

/// Core-tile steps along one plane axis inside a chiplet tile.
fn core_loop_count(tile_extent: u32, grid: u32, core_tile: u32) -> u64 {
    let sub = Axis::balanced(tile_extent, grid).max();
    Axis::tiled(sub, core_tile).count()
}

/// Reusable output buffers for [`MappingGeometry::build_nest_into`].
///
/// Cleared (capacity kept) on every build, so a steady-state search reuses
/// one allocation per thread. `loops` holds the non-unit temporal loops
/// innermost-first — exactly what `LoopNest::new` would retain — and the
/// footprint tables are aligned with it, as in a [`Decomposition`].
#[derive(Debug, Default)]
pub struct NestScratch {
    /// Non-unit temporal loops, innermost first.
    pub loops: Vec<Loop>,
    /// Working-set footprints aligned with `loops`.
    pub footprints: Footprints,
}

/// One level of a temporal nest as every temporal order of one
/// `(geometry, rotation)` pair sees it: the level's loops, and the
/// footprints on entry to it, with every loop of the inner levels
/// complete ([`MappingGeometry::nest_levels`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NestLevel {
    loops: [Loop; 3],
    len: usize,
    /// Input working set of one core on entry, in bits.
    pub core_input: u64,
    /// Input working set of one chiplet on entry, in bits.
    pub chiplet_input: u64,
    /// Weight working set of one weight stream on entry, in bits.
    pub stream_weight: u64,
}

impl NestLevel {
    /// No loops yet; unused slots hold unit loops.
    const EMPTY: Self = Self {
        loops: [Loop {
            dim: Dim::Co,
            count: 1,
            level: LoopLevel::Rotation,
        }; 3],
        len: 0,
        core_input: 0,
        chiplet_input: 0,
        stream_weight: 0,
    };

    /// The level's loops in the mapping's order, unit loops included.
    pub fn loops(&self) -> &[Loop] {
        &self.loops[..self.len]
    }
}

impl MappingGeometry {
    /// The one coverage walk, behind [`Self::build_nest_into`] and
    /// [`Self::nest_levels`]. It visits nest position 0 (`None`, the core
    /// compute block) and then each raw temporal loop once it completes,
    /// innermost first and unit loops included: the rotation loop, if the
    /// tensor named by the rotate flags rotates, then the three core-level
    /// and the three chiplet-level loops in `mapping`'s orders. At each
    /// visit `wants` says whether the footprints there are needed, and if
    /// so `take` gets them as `[core input, chiplet input, stream weight]`
    /// in bits. Loops of one level update disjoint coverage, so a level's
    /// updates commute.
    #[inline]
    fn walk_coverage(
        &self,
        layer: &ConvSpec,
        mapping: &Mapping,
        rotate_inputs: bool,
        rotate_weights: bool,
        mut wants: impl FnMut(Option<Loop>) -> bool,
        mut take: impl FnMut([u64; 3]),
    ) {
        let (kh, kw) = (layer.kh(), layer.kw());
        let (sh, sw) = (layer.stride_h(), layer.stride_w());
        let ci_g = u64::from(layer.ci_per_group());
        let kernel_pts = u64::from(kh) * u64::from(kw);
        let (ho_c, wo_c) = mapping.core_plane;
        let tile = mapping.chiplet_tile;

        // Raw loop list, innermost first. The rotating primitive sits inside
        // the core-level block (Section III-B): activation rotation slices
        // the reduction (CI) dimension, weight rotation slices output
        // channels.
        let rot: Option<Loop> = if rotate_inputs {
            Some(Loop {
                dim: Dim::Ci,
                count: u64::from(self.n_p),
                level: LoopLevel::Rotation,
            })
        } else if rotate_weights {
            Some(Loop {
                dim: Dim::Co,
                count: u64::from(self.n_p),
                level: LoopLevel::Rotation,
            })
        } else {
            None
        };
        let core_loops: [Loop; 3] = {
            let co = Loop {
                dim: Dim::Co,
                count: self.c_co,
                level: LoopLevel::Core,
            };
            let h = Loop {
                dim: Dim::Ho,
                count: self.c_h,
                level: LoopLevel::Core,
            };
            let w = Loop {
                dim: Dim::Wo,
                count: self.c_w,
                level: LoopLevel::Core,
            };
            match mapping.chiplet_order {
                TemporalOrder::ChannelPriority => [co, h, w],
                TemporalOrder::PlanePriority => [h, w, co],
            }
        };
        let chip_loops: [Loop; 3] = {
            let co = Loop {
                dim: Dim::Co,
                count: self.t_co,
                level: LoopLevel::Chiplet,
            };
            let h = Loop {
                dim: Dim::Ho,
                count: self.t_h,
                level: LoopLevel::Chiplet,
            };
            let w = Loop {
                dim: Dim::Wo,
                count: self.t_w,
                level: LoopLevel::Chiplet,
            };
            match mapping.package_order {
                TemporalOrder::ChannelPriority => [co, h, w],
                TemporalOrder::PlanePriority => [h, w, co],
            }
        };

        // Coverage state (output extents).
        let mut core_h = u64::from(ho_c.min(tile.ho));
        let mut core_w = u64::from(wo_c.min(tile.wo));
        let mut chip_h = u64::from(tile.ho);
        let mut chip_w = u64::from(tile.wo);
        let mut stream_co = u64::from(tile.co)
            .div_ceil(u64::from(self.streams))
            .min(u64::from(layer.co()));
        // Input channels resident below the rotation loop.
        let mut ci_cov = if rotate_inputs {
            (self.ci_needed / u64::from(self.n_p)).max(1)
        } else {
            self.ci_needed
        };
        // At the core compute base, only the lane group's CO slice of
        // weights is live; it grows to the stream share across c_co.
        let mut weight_co = u64::from(self.lanes).min(stream_co);

        let win = |h: u64, w: u64| -> u64 {
            ((h.max(1) - 1) * u64::from(sh) + u64::from(kh))
                * ((w.max(1) - 1) * u64::from(sw) + u64::from(kw))
        };
        let fp_in = |h: u64, w: u64, ci: u64| win(h, w) * ci * ACT_BITS;
        let fp_weight = |co: u64, ci: u64| co * ci * kernel_pts * WGT_BITS;

        if wants(None) {
            take([
                fp_in(core_h, core_w, ci_cov),
                fp_in(chip_h, chip_w, ci_cov),
                fp_weight(weight_co, ci_cov.min(ci_g)),
            ]);
        }
        for l in rot.into_iter().chain(core_loops).chain(chip_loops) {
            // Update coverage as this loop completes.
            match (l.level, l.dim) {
                (LoopLevel::Rotation, Dim::Ci) => ci_cov = self.ci_needed,
                (LoopLevel::Rotation, Dim::Co) => {
                    weight_co = (weight_co * l.count).min(stream_co);
                }
                (LoopLevel::Rotation, _) => {}
                (LoopLevel::Core, Dim::Co) => {
                    weight_co = (weight_co * l.count).min(stream_co);
                }
                (LoopLevel::Core, Dim::Ho) => {
                    core_h = (core_h * l.count).min(chip_h.div_ceil(u64::from(self.grid_rows)));
                }
                (LoopLevel::Core, Dim::Wo) => {
                    core_w = (core_w * l.count).min(chip_w.div_ceil(u64::from(self.grid_cols)));
                }
                (LoopLevel::Chiplet, Dim::Co) => {
                    stream_co = (stream_co * l.count).min(u64::from(layer.co()));
                    weight_co = stream_co.min(weight_co * l.count);
                }
                (LoopLevel::Chiplet, Dim::Ho) => {
                    chip_h = (chip_h * l.count).min(u64::from(layer.ho()));
                    core_h = chip_h.div_ceil(u64::from(self.grid_rows));
                }
                (LoopLevel::Chiplet, Dim::Wo) => {
                    chip_w = (chip_w * l.count).min(u64::from(layer.wo()));
                    core_w = chip_w.div_ceil(u64::from(self.grid_cols));
                }
                _ => {}
            }
            if wants(Some(l)) {
                take([
                    fp_in(core_h, core_w, ci_cov),
                    fp_in(chip_h, chip_w, ci_cov),
                    fp_weight(weight_co, ci_cov.min(ci_g)),
                ]);
            }
        }
    }

    /// Builds the temporal nest (innermost first) and the aligned footprint
    /// tables into `out`. The rotate flags must come from
    /// [`Self::volumes_for`] on the same geometry; `mapping` contributes
    /// only its temporal orders, tile, and core plane (all part of the
    /// geometry key or order data).
    pub fn build_nest_into(
        &self,
        layer: &ConvSpec,
        mapping: &Mapping,
        rotate_inputs: bool,
        rotate_weights: bool,
        out: &mut NestScratch,
    ) {
        out.loops.clear();
        let fp = &mut out.footprints;
        fp.core_input.clear();
        fp.chiplet_input.clear();
        fp.stream_weight.clear();
        let loops = &mut out.loops;
        self.walk_coverage(
            layer,
            mapping,
            rotate_inputs,
            rotate_weights,
            // Position 0, then every non-unit loop.
            |l| match l {
                None => true,
                Some(l) if l.count > 1 => {
                    loops.push(l);
                    true
                }
                Some(_) => false,
            },
            |[core, chiplet, weight]| {
                fp.core_input.push(core);
                fp.chiplet_input.push(chiplet);
                fp.stream_weight.push(weight);
            },
        );
    }

    /// The nest's three levels (the rotation loop, the core-level loops,
    /// the chiplet-level loops), each with the footprints on entry to it,
    /// read off the coverage walk [`Self::build_nest_into`] runs. The
    /// temporal orders permute loops only within a level and a level's
    /// updates commute, so every order of `mapping`'s `(geometry,
    /// rotation)` pair passes through these three states; the flags are
    /// as for [`Self::build_nest_into`].
    pub fn nest_levels(
        &self,
        layer: &ConvSpec,
        mapping: &Mapping,
        rotate_inputs: bool,
        rotate_weights: bool,
    ) -> [NestLevel; 3] {
        let mut levels = [NestLevel::EMPTY; 3];
        // The footprints at position 0, after the rotation loop (if any)
        // and after the last core-level loop.
        let mut entries = [[0u64; 3]; 3];
        let mut taken = 0;
        self.walk_coverage(
            layer,
            mapping,
            rotate_inputs,
            rotate_weights,
            |l| {
                let Some(l) = l else {
                    return true;
                };
                let k = match l.level {
                    LoopLevel::Rotation => 0,
                    LoopLevel::Core => 1,
                    LoopLevel::Chiplet => 2,
                };
                let level = &mut levels[k];
                level.loops[level.len] = l;
                level.len += 1;
                // The entries of the core and chiplet levels.
                k == 0 || (k == 1 && level.len == 3)
            },
            |fp| {
                entries[taken] = fp;
                taken += 1;
            },
        );
        if levels[0].len == 0 {
            // No rotation loop: the core level opens at position 0.
            entries = [entries[0], entries[0], entries[1]];
        }
        for (level, [core_input, chiplet_input, stream_weight]) in levels.iter_mut().zip(entries) {
            level.core_input = core_input;
            level.chiplet_input = chiplet_input;
            level.stream_weight = stream_weight;
        }
        levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::Tile;
    use baton_arch::presets;
    use baton_model::zoo;
    use baton_model::PlanarGrid;

    fn arch() -> PackageConfig {
        presets::case_study_accelerator()
    }

    fn common_layer() -> ConvSpec {
        zoo::resnet50(224).layer("res2a_branch2b").cloned().unwrap()
    }

    fn simple_mapping() -> Mapping {
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

    #[test]
    fn axis_balanced_and_tiled_cover_exactly() {
        for extent in [1u32, 7, 56, 57, 224] {
            for parts in [1u32, 2, 3, 4, 8] {
                let a = Axis::balanced(extent, parts);
                assert_eq!(a.sum(), u64::from(extent));
                assert!(a.count() <= u64::from(parts));
            }
            for t in [1u32, 3, 8, 300] {
                let a = Axis::tiled(extent, t);
                assert_eq!(a.sum(), u64::from(extent));
            }
        }
    }

    #[test]
    fn axis_refine_multiplies_multiplicities() {
        let a = Axis::balanced(56, 4); // 4 x 14
        let r = a.refine(|e| Axis::tiled(e, 8)); // each 14 -> 8 + 6
        assert_eq!(r.sum(), 56);
        assert_eq!(r.count(), 8);
    }

    #[test]
    fn decompose_smoke_on_common_layer() {
        let d = decompose(&common_layer(), &arch(), &simple_mapping()).unwrap();
        assert_eq!(d.volumes.mac_ops, common_layer().macs());
        assert!(d.utilization > 0.0 && d.utilization <= 1.0);
        assert!(d.compute_cycles > 0);
        assert!(!d.nest.is_empty());
        // Footprint tables align with nest positions.
        assert_eq!(d.footprints.core_input.len(), d.nest.len() + 1);
        assert_eq!(d.footprints.chiplet_input.len(), d.nest.len() + 1);
        assert_eq!(d.footprints.stream_weight.len(), d.nest.len() + 1);
        // Footprints are monotone non-decreasing outward.
        for w in d.footprints.chiplet_input.windows(2) {
            assert!(w[0] <= w[1]);
        }
        for w in d.footprints.stream_weight.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn channel_package_rotation_shares_dram_reads() {
        let layer = common_layer();
        let mut m = simple_mapping();
        let ring = decompose(&layer, &arch(), &m).unwrap();
        m.rotation = RotationMode::DramOnly;
        let noring = decompose(&layer, &arch(), &m).unwrap();
        // Ring: DRAM input reads shrink by N_P, D2D appears.
        assert_eq!(noring.volumes.d2d_input_base, 0);
        assert_eq!(
            ring.volumes.dram_input_base * 4,
            noring.volumes.dram_input_base
        );
        assert_eq!(
            ring.volumes.d2d_input_base,
            ring.volumes.dram_input_base * 3
        );
        // Both deliver the same bits into the A-L2s.
        assert_eq!(ring.volumes.a_l2_fill_base, noring.volumes.a_l2_fill_base);
        assert_eq!(
            ring.volumes.a_l2_fill_base,
            ring.volumes.dram_input_base + ring.volumes.d2d_input_base
        );
    }

    #[test]
    fn planar_package_rotates_weights_not_inputs() {
        let layer = common_layer();
        let m = Mapping {
            package: PackagePartition::Planar(PlanarGrid::new(2, 2)),
            ..simple_mapping()
        };
        let d = decompose(&layer, &arch(), &m).unwrap();
        assert!(d.rotate_weights);
        assert!(!d.rotate_inputs);
        assert_eq!(d.volumes.d2d_input_base, 0);
        assert_eq!(d.volumes.d2d_weight_base, layer.weight_elems() * 8 * 3);
        assert_eq!(d.volumes.dram_weight_base, layer.weight_elems() * 8);
    }

    #[test]
    fn c_type_weights_are_private_no_rotation() {
        let d = decompose(&common_layer(), &arch(), &simple_mapping()).unwrap();
        assert!(d.rotate_inputs);
        assert!(!d.rotate_weights);
        assert_eq!(d.volumes.d2d_weight_base, 0);
        assert_eq!(
            d.volumes.dram_weight_base,
            common_layer().weight_elems() * 8
        );
    }

    #[test]
    fn output_volumes_are_exact_and_capacity_independent() {
        let layer = common_layer();
        let d = decompose(&layer, &arch(), &simple_mapping()).unwrap();
        assert_eq!(d.volumes.dram_output, layer.output_elems() * 8);
        assert_eq!(d.volumes.o_l2_write, layer.output_elems() * 8);
        // Every output accumulates kh*kw*ceil(ci/P) times at 24 bit.
        let acc = layer.output_elems()
            * u64::from(layer.kh())
            * u64::from(layer.kw())
            * u64::from(layer.ci_per_group().div_ceil(8))
            * 24;
        assert_eq!(d.volumes.o_l1_rmw, acc);
    }

    #[test]
    fn a_l1_reads_scale_inverse_with_lanes() {
        // Each A-L1 vector read is broadcast to L lanes, so with fully
        // utilized lanes the total read traffic is ~ MACs * 8 / L.
        let layer = common_layer();
        let m = Mapping {
            // P-type chiplet partition: one weight stream, all 8 lanes busy.
            chiplet: ChipletPartition::Planar(PlanarGrid::new(2, 4)),
            ..simple_mapping()
        };
        let d = decompose(&layer, &arch(), &m).unwrap();
        let approx = layer.macs() * 8 / 8; // L = 8
        let ratio = d.volumes.a_l1_read as f64 / approx as f64;
        assert!((0.9..1.5).contains(&ratio), "ratio {ratio}");
        // Under-utilized lanes (C-type split leaving 2 channels per stream)
        // read proportionally more per useful MAC.
        let under = decompose(&layer, &arch(), &simple_mapping()).unwrap();
        assert!(under.volumes.a_l1_read > d.volumes.a_l1_read);
    }

    #[test]
    fn structural_errors_are_reported() {
        let layer = common_layer();
        // Grid that does not match N_P.
        let m = Mapping {
            package: PackagePartition::Planar(PlanarGrid::new(3, 1)),
            ..simple_mapping()
        };
        assert!(matches!(
            decompose(&layer, &arch(), &m),
            Err(MappingError::GridMismatch { .. })
        ));
        // Chiplet channel split wider than the tile CO clamps (idle cores)
        // rather than erroring.
        let m = Mapping {
            chiplet_tile: Tile::new(28, 28, 4),
            ..simple_mapping()
        };
        let d = decompose(&layer, &arch(), &m).unwrap();
        assert_eq!(d.weight_streams, 4);
        // Core tile overflowing the O-L1 register file.
        let m = Mapping {
            core_plane: (32, 32),
            ..simple_mapping()
        };
        assert!(matches!(
            decompose(&layer, &arch(), &m),
            Err(MappingError::OL1Overflow { .. })
        ));
    }

    #[test]
    fn pointwise_layer_decomposes() {
        let layer = zoo::resnet50(224).layer("res2a_branch2a").cloned().unwrap();
        let m = simple_mapping();
        let d = decompose(&layer, &arch(), &m).unwrap();
        assert_eq!(d.volumes.mac_ops, layer.macs());
        // 1x1 kernels: window sums equal pixel sums, so the A-L2 fill equals
        // the consumed activation volume exactly (x N_P chiplets sharing).
        assert_eq!(d.volumes.a_l2_fill_base, layer.input_bits() * 4);
    }

    #[test]
    fn depthwise_disables_input_rotation() {
        let layer = zoo::mobilenet_v2(224)
            .layer("block2_dwise")
            .cloned()
            .unwrap();
        let m = Mapping {
            chiplet_tile: Tile::new(16, 16, 24),
            ..simple_mapping()
        };
        let d = decompose(&layer, &arch(), &m).unwrap();
        assert!(!d.rotate_inputs);
        assert_eq!(d.volumes.d2d_input_base, 0);
    }

    #[test]
    fn utilization_drops_for_thin_layers_with_wide_lanes() {
        // "The hardware with too high channel-wise parallelism is improper
        // for the thin layer" (Section IV-D).
        let thin = ConvSpec::new("thin", 56, 56, 64, 3, 1, 1, 8).unwrap();
        let wide = ConvSpec::new("wide", 56, 56, 64, 3, 1, 1, 512).unwrap();
        let m = |co: u32| Mapping {
            chiplet_tile: Tile::new(14, 14, co),
            ..simple_mapping()
        };
        // Use a single-chiplet machine so the thin layer is legal.
        let mut a = arch();
        a.chiplets = 1;
        let d_thin = decompose(&thin, &a, &m(8)).unwrap();
        let d_wide = decompose(&wide, &a, &m(64)).unwrap();
        assert!(d_thin.utilization < d_wide.utilization);
    }
}
