//! Candidate mapping generation for the exhaustive post-design search.
//!
//! The paper's mapping analysis engine "adopts exhaustive search to evaluate
//! hundreds of cases, including partition patterns with different
//! height-width ratios and loop transformation of various spatial-temporal
//! combinations" (Section V-C). This module generates exactly that candidate
//! set: every legal spatial pair, both temporal orders per level, a ladder of
//! chiplet-tile shapes and the partition-pattern grids.
//!
//! The set is a [`CandidateSpace`]: a list of `(package, chiplet)` groups and
//! a list of distinct `(tile, core plane)` geometries, with no candidate
//! stored. Canonical candidate `i` — already deduplicated, in the stable
//! `mapping_key` order — decodes to `(group, temporal-order combo, tile,
//! rotation)` by arithmetic, so a search can key its work on the *geometry
//! id* (a dense index over the distinct `(package, chiplet, tile)` triples,
//! shared by the 4 temporal-order combos x rotation variants) and build a
//! [`Mapping`] only for the candidates it prices. Within a group, the
//! geometries of one tile plane form a [`Ladder`] of channel rungs with
//! consecutive ids, which a search walks before it touches a candidate.
//! [`visit_candidates`], [`enumerate_into`] and [`candidates_with`] are
//! expansions of the space.

use std::cell::Cell;
use std::iter::StepBy;
use std::ops::Range;

use crate::decompose::a_l1_floor_bytes;
use crate::mapping::Mapping;
use crate::primitives::{ChipletPartition, PackagePartition, RotationMode, TemporalOrder};
use crate::tile::{ceil_div, Tile};
use baton_arch::{CoreConfig, PackageConfig};
use baton_model::{ConvSpec, PlanarGrid, PSUM_BITS};
use baton_telemetry::{count_n, Counter};

/// Knobs bounding the candidate set size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumOptions {
    /// Plane-axis tile-count ladder: a fraction `f` yields tiles of
    /// `ceil(extent / f)`.
    pub plane_fractions: &'static [u32],
    /// Channel-axis tile-count ladder.
    pub co_fractions: &'static [u32],
    /// Inter-chiplet sharing modes to enumerate. Rotation is a per-mapping
    /// decision: it usually wins (ring bits cost 1.17 pJ vs 8.75 pJ DRAM)
    /// but loses when small buffers force re-rotation, so the search sees
    /// both.
    pub rotations: &'static [RotationMode],
}

impl Default for EnumOptions {
    fn default() -> Self {
        Self {
            plane_fractions: &[1, 2, 4, 8, 16, 32],
            co_fractions: &[1, 2, 4],
            rotations: &[RotationMode::Ring, RotationMode::DramOnly],
        }
    }
}

/// Enumeration totals reported by [`CandidateSpace::fill`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnumStats {
    /// Canonical (deduplicated) candidates emitted.
    pub emitted: usize,
    /// Distinct `(package, chiplet, tile)` geometries; emitted geometry ids
    /// are dense in `0..geoms`.
    pub geoms: usize,
}

/// Temporal-order combos per geometry: `(package order, chiplet order)`
/// pairs, in key order.
const COMBOS: u32 = (TemporalOrder::ALL.len() * TemporalOrder::ALL.len()) as u32;

/// The `(package order, chiplet order)` pair of combo `c`.
#[inline]
fn combo_orders(c: u32) -> (TemporalOrder, TemporalOrder) {
    let n = TemporalOrder::ALL.len() as u32;
    (
        TemporalOrder::ALL[(c / n) as usize],
        TemporalOrder::ALL[(c % n) as usize],
    )
}

/// Both rotations in key order (Ring < DramOnly): the canonical stream
/// sorts rotation last, whatever the option slice's order.
const ROTATIONS: [RotationMode; 2] = [RotationMode::Ring, RotationMode::DramOnly];

/// The enumerated rotations, in key order.
fn rotation_set(ring: bool, dram_only: bool) -> &'static [RotationMode] {
    match (ring, dram_only) {
        (true, true) => &ROTATIONS,
        (true, false) => &ROTATIONS[..1],
        (false, true) => &ROTATIONS[1..],
        (false, false) => &[],
    }
}

/// Dense id of a `(geometry, rotation)` pair: `2 * geom`, plus 1 for
/// DramOnly. Within one temporal-order combo a group's candidates have
/// ascending pair ids, so a scan reads a per-pair table in order.
#[inline]
pub fn pair_id(geom: u32, rotation: RotationMode) -> usize {
    2 * geom as usize + usize::from(rotation == RotationMode::DramOnly)
}

/// One `(package, chiplet)` partition pair of a [`CandidateSpace`]: its
/// candidates are every temporal-order combo x tile x rotation, in that
/// order, and its tiles own consecutive geometry ids.
#[derive(Debug, Clone, Copy)]
struct Group {
    package: PackagePartition,
    chiplet: ChipletPartition,
    /// Geometry id of the group's first tile.
    geom_base: u32,
    /// Distinct tiles (at least one).
    tiles: u32,
    /// Channel rungs per tile plane: its tiles are `tiles / rungs` ladders.
    rungs: u32,
    /// Canonical index of the group's first candidate.
    cand_base: usize,
    /// Rotations enumerated per tile (at least one).
    rotations: &'static [RotationMode],
}

impl Group {
    /// Candidates per temporal-order combo: each `(tile, rotation)` once.
    #[inline]
    fn per_combo(&self) -> usize {
        self.tiles as usize * self.rotations.len()
    }

    #[inline]
    fn len(&self) -> usize {
        COMBOS as usize * self.per_combo()
    }

    #[inline]
    fn end(&self) -> usize {
        self.cand_base + self.len()
    }

    /// The run of `combo`'s `(tile, rotation)` positions `at`: pair ids
    /// step by 1 when the group has both rotations, else by 2.
    fn run(&self, group: usize, combo: usize, at: Range<usize>) -> Run {
        let base = 2 * self.geom_base as usize;
        let (start, end, step) = match self.rotations {
            [only] => {
                let r = pair_id(0, *only);
                (base + 2 * at.start + r, base + 2 * at.end, 2)
            }
            _ => (base + at.start, base + at.end, 1),
        };
        Run {
            start,
            end,
            step,
            group: group as u32,
            combo: combo as u32,
        }
    }
}

/// One candidate of a [`CandidateSpace`] as a scan visits it: the geometry
/// id and rotation a search keys its memo on, and what
/// [`CandidateSpace::mapping`] needs to build the full [`Mapping`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Dense geometry id of the candidate's `(package, chiplet, tile)`.
    pub geom: u32,
    /// The candidate's rotation mode.
    pub rotation: RotationMode,
    group: u32,
    combo: u32,
}

impl Slot {
    /// The candidate's `(geometry, rotation)` [`pair_id`].
    #[inline]
    pub fn pair(&self) -> usize {
        pair_id(self.geom, self.rotation)
    }
}

/// Consecutive canonical candidates within one `(package, chiplet)` group
/// and temporal-order combo; see [`CandidateSpace::runs`].
#[derive(Debug, Clone, Copy)]
pub struct Run {
    start: usize,
    end: usize,
    step: usize,
    group: u32,
    combo: u32,
}

impl Run {
    /// The run's candidates as ascending [`pair_id`]s, in canonical order.
    #[inline]
    pub fn pairs(&self) -> StepBy<Range<usize>> {
        (self.start..self.end).step_by(self.step)
    }

    /// The run's candidates, in canonical order.
    pub fn slots(self) -> impl Iterator<Item = Slot> {
        self.pairs().map(move |pair| self.slot(pair))
    }

    /// The position of the candidate with pair id `pair` within this run.
    #[inline]
    pub fn position(&self, pair: usize) -> usize {
        (pair - self.start) / self.step
    }

    /// The candidate of this run with pair id `pair`.
    #[inline]
    pub fn slot(&self, pair: usize) -> Slot {
        Slot {
            geom: (pair / 2) as u32,
            rotation: ROTATIONS[pair % 2],
            group: self.group,
            combo: self.combo,
        }
    }
}

/// One tile plane's channel ladder in a [`CandidateSpace`]: the geometries
/// of one `(package, chiplet)` group that share the chiplet tile's rows
/// and columns, and so its core plane, one per channel rung in ascending
/// tile depth. Their ids are consecutive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ladder {
    first: u32,
    rungs: u32,
    group: u32,
    rotations: &'static [RotationMode],
}

impl Ladder {
    /// The rungs' geometry ids, shallowest first.
    #[inline]
    pub fn geoms(&self) -> Range<u32> {
        self.first..self.first + self.rungs
    }

    /// The index of the ladder's `(package, chiplet)` group in its space:
    /// ladders of one group share their channel rungs.
    #[inline]
    pub fn group(&self) -> u32 {
        self.group
    }

    /// The rotations the group enumerates, in key order.
    #[inline]
    pub fn rotations(&self) -> &'static [RotationMode] {
        self.rotations
    }

    /// Rung `geom`'s candidate in the group's first rotation and
    /// temporal-order combo: its mapping carries the rung's geometry.
    #[inline]
    pub fn rung(&self, geom: u32) -> Slot {
        self.slot(geom, self.rotations[0])
    }

    /// The candidate of rung `geom` under `rotation` in the group's first
    /// temporal-order combo: its mapping differs from its siblings' only in
    /// the loop orders.
    #[inline]
    pub fn slot(&self, geom: u32, rotation: RotationMode) -> Slot {
        Slot {
            geom,
            rotation,
            group: self.group,
            combo: 0,
        }
    }
}

/// The canonical candidate set of one `(layer, arch, options)`, held as its
/// structure rather than as mappings.
///
/// Canonical index `i` lies in a `(package, chiplet)` group; within it the
/// index runs over temporal-order combo, then tile, then rotation, which is
/// strictly ascending `mapping_key` order. Duplicates are suppressed *at
/// the source*: distinct `(fh, fw, fc)` ladder entries that collapse onto
/// the same tile are counted and dropped before any candidate exists. The
/// structural filter is a per-axis minimum, so a group's tiles are the
/// product of three deduplicated per-axis ladders, already in tile order.
/// [`Self::fill`] is the one definition of that order; every other
/// enumeration entry point expands it. The buffers keep their capacity
/// across fills, so a pooled space refills without allocating.
#[derive(Debug, Clone, Default)]
pub struct CandidateSpace {
    groups: Vec<Group>,
    /// `(chiplet tile, core plane)` per geometry id.
    geoms: Vec<(Tile, (u32, u32))>,
    /// Scratch: one group's legal tile rows, columns and channels.
    rows: Vec<u32>,
    cols: Vec<u32>,
    chans: Vec<u32>,
    len: usize,
}

thread_local! {
    /// The thread's retired space: back-to-back fills on one thread reuse
    /// its allocations.
    static RETIRED: Cell<CandidateSpace> = Cell::new(CandidateSpace::default());
}

impl CandidateSpace {
    /// Runs `f` on this thread's pooled space (an empty one while a caller
    /// further up the stack holds it) and returns the space, capacity kept,
    /// to the pool.
    pub fn pooled<R>(f: impl FnOnce(&mut CandidateSpace) -> R) -> R {
        let mut space = RETIRED.take();
        let out = f(&mut space);
        RETIRED.set(space);
        out
    }

    /// Replaces the space with the candidates of `layer` on `arch`.
    /// Structurally illegal combinations are filtered; buffer feasibility is
    /// left to [`crate::decompose()`](crate::decompose::decompose), which
    /// performs the exact checks.
    ///
    /// `Counter::CandidatesGenerated` counts the candidates,
    /// [`Counter::CandidatesDeduped`] the ladder duplicates dropped (as the
    /// candidates a build-then-dedup pipeline would discard) and
    /// `Counter::CandidatesStructurallyRejected` the ladder combos the
    /// structural filter removed.
    pub fn fill(&mut self, layer: &ConvSpec, arch: &PackageConfig, opts: EnumOptions) -> EnumStats {
        self.groups.clear();
        self.geoms.clear();
        self.len = 0;
        let n_p = arch.chiplets;
        let n_c = arch.chiplet.cores;
        let (ho, wo, co) = (layer.ho(), layer.wo(), layer.co());
        let ring = opts.rotations.contains(&RotationMode::Ring);
        let dram_only = opts.rotations.contains(&RotationMode::DramOnly);
        // A 1-chiplet ring is inert: the DramOnly twin would be an exact
        // duplicate, so it is skipped at the source.
        let rotations = rotation_set(ring, dram_only && n_p > 1);

        let mut deduped = 0u64;
        let mut rejected = 0u64;
        for package in package_options(layer, n_p) {
            // The plane extents a single chiplet owns under this partition.
            let (part_h, part_w, part_co) = match &package {
                PackagePartition::Channel => (ho, wo, ceil_div(co, n_p)),
                PackagePartition::Planar(g) => (ceil_div(ho, g.rows()), ceil_div(wo, g.cols()), co),
            };
            for chiplet in chiplet_options(n_c) {
                let min = min_tile(&chiplet, n_c);
                let plane = opts.plane_fractions;
                let legal = axis_ladder(part_h, plane, min.ho, &mut self.rows)
                    * axis_ladder(part_w, plane, min.wo, &mut self.cols)
                    * axis_ladder(part_co, opts.co_fractions, min.co, &mut self.chans);
                rejected += (plane.len() * plane.len() * opts.co_fractions.len()) as u64 - legal;
                let tiles = (self.rows.len() * self.cols.len() * self.chans.len()) as u64;
                deduped += (legal - tiles) * u64::from(COMBOS) * rotations.len() as u64;
                let geom_base = self.geoms.len() as u32;
                for &h in &self.rows {
                    for &w in &self.cols {
                        // The core plane depends on the tile's plane only.
                        let mut core_plane = None;
                        for &c in &self.chans {
                            let tile = Tile::new(h, w, c);
                            let core_plane = *core_plane
                                .get_or_insert_with(|| core_plane_for(layer, arch, &chiplet, tile));
                            self.geoms.push((tile, core_plane));
                        }
                    }
                }
                let rungs = self.chans.len() as u32;
                self.push_group(package, chiplet, geom_base, rungs, rotations);
            }
        }
        if self.len == 0 {
            // Fallback for thin layers (e.g. a 10-class FC head): accept idle
            // units rather than failing to map at all. The single geometry
            // gets id 0; the 1-chiplet DramOnly skip does NOT apply here (the
            // layer would otherwise be unmappable).
            self.groups.clear();
            self.geoms.clear();
            let tile = Tile::new(ho, wo, co.max(1));
            let chiplet = ChipletPartition::Channel;
            self.geoms
                .push((tile, core_plane_for(layer, arch, &chiplet, tile)));
            let rotations = rotation_set(ring, dram_only);
            self.push_group(PackagePartition::Channel, chiplet, 0, 1, rotations);
        }
        count_n(Counter::CandidatesGenerated, self.len as u64);
        count_n(Counter::CandidatesDeduped, deduped);
        count_n(Counter::CandidatesStructurallyRejected, rejected);
        EnumStats {
            emitted: self.len,
            geoms: self.geoms.len(),
        }
    }

    /// Appends the group whose tiles are the geometries from `geom_base`
    /// on, `rungs` channel rungs per tile plane; a group without candidates
    /// is not kept (its geometry ids are).
    fn push_group(
        &mut self,
        package: PackagePartition,
        chiplet: ChipletPartition,
        geom_base: u32,
        rungs: u32,
        rotations: &'static [RotationMode],
    ) {
        let group = Group {
            package,
            chiplet,
            geom_base,
            tiles: self.geoms.len() as u32 - geom_base,
            rungs,
            cand_base: self.len,
            rotations,
        };
        if group.len() > 0 {
            self.len = group.end();
            self.groups.push(group);
        }
    }

    /// The candidates of `range` as runs, in canonical order: one per
    /// `(group, combo)` stretch the range covers, each decoded from the
    /// range's bounds by arithmetic.
    ///
    /// # Panics
    ///
    /// If `range` reaches past the space's candidates.
    pub fn runs(&self, range: Range<usize>) -> impl Iterator<Item = Run> + '_ {
        assert!(
            range.end <= self.len,
            "{range:?} past {} candidates",
            self.len
        );
        let first = self.groups.partition_point(|g| g.end() <= range.start);
        self.groups[first..]
            .iter()
            .zip(first..)
            .take_while(move |(g, _)| g.cand_base < range.end)
            .flat_map(move |(g, group)| {
                let per_combo = g.per_combo();
                let lo = range.start.max(g.cand_base) - g.cand_base;
                let hi = range.end.min(g.end()) - g.cand_base;
                (lo / per_combo..hi.div_ceil(per_combo)).map(move |combo| {
                    let at = combo * per_combo;
                    g.run(group, combo, lo.max(at) - at..hi.min(at + per_combo) - at)
                })
            })
    }

    /// The candidates of `range`, in canonical order.
    pub fn slots(&self, range: Range<usize>) -> impl Iterator<Item = Slot> + '_ {
        self.runs(range).flat_map(Run::slots)
    }

    /// Each `(geometry, rotation)` pair the candidates of `range` use,
    /// once, as its first candidate there: within a group one combo's
    /// stretch of candidates holds every pair of the group once.
    pub fn touched(&self, range: Range<usize>) -> impl Iterator<Item = Slot> + '_ {
        let first = self.groups.partition_point(|g| g.end() <= range.start);
        self.groups[first..]
            .iter()
            .take_while(move |g| g.cand_base < range.end)
            .flat_map(move |g| {
                let start = range.start.max(g.cand_base);
                let end = range.end.min(g.end()).min(start + g.per_combo());
                self.slots(start..end)
            })
    }

    /// Each channel ladder the candidates of `range` use, once, in
    /// geometry order: the ladders of the `(tile, rotation)` positions of
    /// [`Self::touched`], found by arithmetic.
    pub fn ladders(&self, range: Range<usize>) -> impl Iterator<Item = Ladder> + '_ {
        let first = self.groups.partition_point(|g| g.end() <= range.start);
        self.groups[first..]
            .iter()
            .zip(first..)
            .take_while(move |(g, _)| g.cand_base < range.end)
            .flat_map(move |(g, group)| {
                let (per_combo, rots) = (g.per_combo(), g.rotations.len());
                let start = range.start.max(g.cand_base);
                let len = range.end.min(g.end()).min(start + per_combo) - start;
                // The touched positions run from `at` for `len`, wrapping
                // past the combo's end into the next combo's first ones.
                let at = (start - g.cand_base) % per_combo;
                let ladder = |pos: usize| pos / rots / g.rungs as usize;
                let ladders = (g.tiles / g.rungs) as usize;
                let (head, tail) = if at + len <= per_combo {
                    (0..0, ladder(at)..ladder(at + len - 1) + 1)
                } else {
                    let head = 0..ladder(at + len - per_combo - 1) + 1;
                    if head.end >= ladder(at) {
                        (0..0, 0..ladders)
                    } else {
                        (head, ladder(at)..ladders)
                    }
                };
                head.chain(tail).map(move |i| Ladder {
                    first: g.geom_base + i as u32 * g.rungs,
                    rungs: g.rungs,
                    group: group as u32,
                    rotations: g.rotations,
                })
            })
    }

    /// The full mapping of `slot`.
    #[inline]
    pub fn mapping(&self, slot: Slot) -> Mapping {
        let g = &self.groups[slot.group as usize];
        let (chiplet_tile, core_plane) = self.geoms[slot.geom as usize];
        let (package_order, chiplet_order) = combo_orders(slot.combo);
        Mapping {
            package: g.package,
            chiplet: g.chiplet,
            package_order,
            chiplet_order,
            chiplet_tile,
            core_plane,
            rotation: slot.rotation,
        }
    }
}

/// Generates the candidate mappings for `layer` on `arch` with default
/// options, in canonical order.
pub fn candidates(layer: &ConvSpec, arch: &PackageConfig) -> Vec<Mapping> {
    candidates_with(layer, arch, EnumOptions::default())
}

/// Generates candidates with explicit options.
pub fn candidates_with(layer: &ConvSpec, arch: &PackageConfig, opts: EnumOptions) -> Vec<Mapping> {
    let mut out = Vec::new();
    visit_candidates(layer, arch, opts, |_, m| out.push(m));
    out
}

/// Enumerates into caller-owned buffers (cleared first, capacity kept).
/// `geom_ids[i]` is the geometry id of `cands[i]`.
pub fn enumerate_into(
    layer: &ConvSpec,
    arch: &PackageConfig,
    opts: EnumOptions,
    cands: &mut Vec<Mapping>,
    geom_ids: &mut Vec<u32>,
) -> EnumStats {
    cands.clear();
    geom_ids.clear();
    visit_candidates(layer, arch, opts, |g, m| {
        cands.push(m);
        geom_ids.push(g);
    })
}

/// Emits the canonical candidate set through `f(geom_id, mapping)`: the
/// [`CandidateSpace`] of `(layer, arch, opts)`, expanded in order, with the
/// space's enumeration counters.
pub fn visit_candidates(
    layer: &ConvSpec,
    arch: &PackageConfig,
    opts: EnumOptions,
    mut f: impl FnMut(u32, Mapping),
) -> EnumStats {
    CandidateSpace::pooled(|space| {
        let stats = space.fill(layer, arch, opts);
        // Internal iteration: the nested runs fold as plain loops.
        space
            .slots(0..stats.emitted)
            .for_each(|slot| f(slot.geom, space.mapping(slot)));
        stats
    })
}

/// Sort/dedup key: a fixed-width numeric encoding of every mapping field.
/// The [`CandidateSpace`] order is strictly ascending in it by
/// construction; the key survives as the canonical-order witness the tests
/// hold the space to.
#[cfg_attr(not(test), allow(dead_code))]
fn mapping_key(m: &Mapping) -> [u32; 13] {
    let (pkg_tag, pkg_r, pkg_c) = match m.package {
        PackagePartition::Channel => (0, 0, 0),
        PackagePartition::Planar(g) => (1, g.rows(), g.cols()),
    };
    let (chip_tag, chip_w, chip_r, chip_c) = match m.chiplet {
        ChipletPartition::Channel => (0, 0, 0, 0),
        ChipletPartition::Planar(g) => (1, 0, g.rows(), g.cols()),
        ChipletPartition::Hybrid { channel_ways, grid } => {
            (2, channel_ways, grid.rows(), grid.cols())
        }
    };
    [
        pkg_tag,
        pkg_r,
        pkg_c,
        chip_tag,
        chip_w,
        chip_r,
        chip_c,
        (m.package_order == TemporalOrder::PlanePriority) as u32 * 2
            + (m.chiplet_order == TemporalOrder::PlanePriority) as u32,
        m.chiplet_tile.ho,
        m.chiplet_tile.wo,
        m.chiplet_tile.co,
        m.core_plane.0 << 16 | m.core_plane.1,
        (m.rotation == RotationMode::DramOnly) as u32,
    ]
}

/// Legal package-level spatial partitions for this layer, in ascending
/// `mapping_key` order (Channel, then planar grids by `(rows, cols)`),
/// without allocating.
pub fn package_options(layer: &ConvSpec, n_p: u32) -> impl Iterator<Item = PackagePartition> {
    // A single chiplet needs no partition: Channel is the identity and
    // always legal.
    let channel = (layer.co() >= n_p || n_p == 1).then_some(PackagePartition::Channel);
    let (ho, wo) = (layer.ho(), layer.wo());
    let planar = PlanarGrid::factor_grids(n_p)
        .filter(move |g| n_p > 1 && g.rows() <= ho && g.cols() <= wo)
        .map(PackagePartition::Planar);
    channel.into_iter().chain(planar)
}

/// Legal chiplet-level spatial partitions for `n_c` cores, in ascending
/// `mapping_key` order (Channel, planar grids, then hybrids by channel
/// ways), without allocating.
pub fn chiplet_options(n_c: u32) -> impl Iterator<Item = ChipletPartition> {
    let planar = PlanarGrid::factor_grids(n_c)
        .filter(move |_| n_c > 1)
        .map(ChipletPartition::Planar);
    // Hybrid: power-of-two channel ways strictly between 1 and n_c.
    let hybrid = std::iter::successors(Some(2u32), |cw| cw.checked_mul(2))
        .take_while(move |&cw| cw < n_c)
        .filter(move |&cw| n_c.is_multiple_of(cw))
        .flat_map(move |cw| {
            PlanarGrid::factor_grids(n_c / cw).map(move |grid| ChipletPartition::Hybrid {
                channel_ways: cw,
                grid,
            })
        });
    std::iter::once(ChipletPartition::Channel)
        .chain(planar)
        .chain(hybrid)
}

/// The structural filter, mirroring the decompose-time checks so the
/// candidate set stays clean: the smallest chiplet tile `chip` can split
/// over `n_c` cores, per axis (every axis of a tile is at least 1).
fn min_tile(chip: &ChipletPartition, n_c: u32) -> Tile {
    match chip {
        ChipletPartition::Channel => Tile::new(1, 1, n_c),
        ChipletPartition::Planar(g) => Tile::new(g.rows(), g.cols(), 1),
        ChipletPartition::Hybrid { channel_ways, grid } => {
            Tile::new(grid.rows(), grid.cols(), *channel_ways)
        }
    }
}

/// One axis of a group's tile ladder: the distinct extents
/// `ceil(extent / f)` of `fractions` that reach `min`, ascending, into
/// `out`. Returns how many fractions reached it, duplicates included.
fn axis_ladder(extent: u32, fractions: &[u32], min: u32, out: &mut Vec<u32>) -> u64 {
    out.clear();
    out.extend(
        fractions
            .iter()
            .map(|&f| ceil_div(extent, f).max(1))
            .filter(|&v| v >= min),
    );
    let legal = out.len() as u64;
    out.sort_unstable();
    out.dedup();
    legal
}

/// The side of the largest square core plane the O-L1 psum register file
/// holds: `floor(sqrt(slots / L))`, 0 when it cannot hold one psum per lane.
///
/// This is the only way O-L1 enters the candidate space: two machines that
/// differ only in `o_l1_bytes` and share this side enumerate the same
/// mappings, and every one of them decomposes alike on both, since a core
/// plane within the side's square fits either O-L1.
pub fn core_plane_side(core: &CoreConfig) -> u32 {
    let slots = core.o_l1_bytes * 8 / PSUM_BITS;
    (slots / u64::from(core.lanes).max(1)).isqrt() as u32
}

/// Picks the core tile: the largest square-ish `HO_c x WO_c` that fits both
/// the O-L1 psum register file (a square of [`core_plane_side`]) and the
/// A-L1 chunk floor (Section IV-C recommends the square pattern for the
/// fine temporal tiles).
pub fn core_plane_for(
    layer: &ConvSpec,
    arch: &PackageConfig,
    chip: &ChipletPartition,
    tile: Tile,
) -> (u32, u32) {
    let core = &arch.chiplet.core;
    let (grid_r, grid_c) = match chip {
        ChipletPartition::Channel => (1, 1),
        ChipletPartition::Planar(g) => (g.rows(), g.cols()),
        ChipletPartition::Hybrid { grid, .. } => (grid.rows(), grid.cols()),
    };
    let sub_h = ceil_div(tile.ho, grid_r).max(1);
    let sub_w = ceil_div(tile.wo, grid_c).max(1);

    // Start from the square bound, which fits the O-L1, and shrink until
    // the A-L1 floor passes.
    let side = core_plane_side(core);
    let (mut h, mut w) = (side.clamp(1, sub_h), side.clamp(1, sub_w));
    loop {
        if a_l1_floor_bytes(layer, core.vector, (h, w)) <= core.a_l1_bytes {
            return (h, w);
        }
        if h >= w && h > 1 {
            h -= 1;
        } else if w > 1 {
            w -= 1;
        } else {
            return (1, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baton_arch::presets;
    use baton_model::zoo;

    fn arch() -> PackageConfig {
        presets::case_study_accelerator()
    }

    #[test]
    fn generates_hundreds_of_candidates_for_a_common_layer() {
        let layer = zoo::resnet50(224).layer("res2a_branch2b").cloned().unwrap();
        let maps = candidates(&layer, &arch());
        assert!(
            maps.len() >= 100,
            "expected hundreds of cases, got {}",
            maps.len()
        );
    }

    #[test]
    fn channel_package_partition_removed_for_small_co() {
        // Paper Figure 11 removes the (C, C) option for layers whose output
        // channels cannot split across chiplets.
        let thin = ConvSpec::new("thin", 64, 64, 16, 3, 1, 1, 2).unwrap();
        let opts: Vec<_> = package_options(&thin, 4).collect();
        assert!(opts.iter().all(|p| !matches!(p, PackagePartition::Channel)));
        // But planar options survive.
        assert!(!opts.is_empty());
    }

    #[test]
    fn single_chiplet_has_identity_partition() {
        let layer = zoo::vgg16(224).layer("conv1_1").cloned().unwrap();
        let opts: Vec<_> = package_options(&layer, 1).collect();
        assert_eq!(opts, vec![PackagePartition::Channel]);
    }

    #[test]
    fn chiplet_options_cover_c_p_h() {
        let tags: std::collections::BTreeSet<char> = chiplet_options(8).map(|c| c.tag()).collect();
        assert!(tags.contains(&'C'));
        assert!(tags.contains(&'P'));
        assert!(tags.contains(&'H'));
    }

    #[test]
    fn core_plane_respects_o_l1() {
        let layer = zoo::vgg16(224).layer("conv1_1").cloned().unwrap();
        let a = arch();
        let (h, w) = core_plane_for(
            &layer,
            &a,
            &ChipletPartition::Channel,
            Tile::new(56, 56, 64),
        );
        let cap = a.chiplet.core.o_l1_bytes * 8 / 24 / u64::from(a.chiplet.core.lanes);
        assert!(u64::from(h) * u64::from(w) <= cap);
        assert!(h >= 1 && w >= 1);
    }

    #[test]
    fn all_candidates_have_positive_tiles() {
        let layer = zoo::resnet50(224).layer("conv1").cloned().unwrap();
        for m in candidates(&layer, &arch()) {
            assert!(m.chiplet_tile.ho >= 1 && m.chiplet_tile.wo >= 1 && m.chiplet_tile.co >= 1);
            assert!(m.core_plane.0 >= 1 && m.core_plane.1 >= 1);
        }
    }

    #[test]
    fn candidates_are_deduplicated() {
        let layer = zoo::resnet50(224).layer("res2a_branch2a").cloned().unwrap();
        let maps = candidates(&layer, &arch());
        let mut keys: Vec<String> = maps.iter().map(|m| m.to_string()).collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(before, keys.len());
    }

    #[test]
    fn emission_is_strictly_ascending_in_key_order() {
        // The canonical stream IS the sorted, deduplicated stream: strictly
        // ascending keys prove both at once, for main path and fallback.
        let a = arch();
        for layer in [
            zoo::resnet50(224).layer("res2a_branch2b").cloned().unwrap(),
            zoo::mobilenet_v2(224)
                .layer("block2_dwise")
                .cloned()
                .unwrap(),
            ConvSpec::fully_connected("fc", 4096, 10).unwrap(),
        ] {
            let maps = candidates(&layer, &a);
            for w in maps.windows(2) {
                assert!(
                    mapping_key(&w[0]) < mapping_key(&w[1]),
                    "{}: out of order or duplicate: {:?} then {:?}",
                    layer.name(),
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn visitor_matches_the_build_then_dedup_reference() {
        // Reference pipeline: generate every raw candidate the pre-visitor
        // enumerator built (duplicates included), then sort + dedup by key.
        // The visitor must reproduce it byte for byte, and its dedup counter
        // must equal the number of raw candidates discarded.
        let a = arch();
        let opts = EnumOptions::default();
        for layer in [
            zoo::resnet50(224).layer("res2a_branch2b").cloned().unwrap(),
            zoo::vgg16(224).layer("conv1_1").cloned().unwrap(),
            zoo::mobilenet_v2(224)
                .layer("block2_dwise")
                .cloned()
                .unwrap(),
        ] {
            let mut raw = Vec::new();
            for pkg in package_options(&layer, a.chiplets) {
                let (ho, wo, co) = (layer.ho(), layer.wo(), layer.co());
                let (part_h, part_w, part_co) = match &pkg {
                    PackagePartition::Channel => (ho, wo, ceil_div(co, a.chiplets)),
                    PackagePartition::Planar(g) => {
                        (ceil_div(ho, g.rows()), ceil_div(wo, g.cols()), co)
                    }
                };
                for chip in chiplet_options(a.chiplet.cores) {
                    for &fh in opts.plane_fractions {
                        for &fw in opts.plane_fractions {
                            for &fc in opts.co_fractions {
                                let tile = Tile::new(
                                    ceil_div(part_h, fh).max(1),
                                    ceil_div(part_w, fw).max(1),
                                    ceil_div(part_co, fc).max(1),
                                );
                                let fits = match chip {
                                    ChipletPartition::Channel => tile.co >= a.chiplet.cores,
                                    ChipletPartition::Planar(g) => {
                                        g.rows() <= tile.ho && g.cols() <= tile.wo
                                    }
                                    ChipletPartition::Hybrid { channel_ways, grid } => {
                                        tile.co >= channel_ways
                                            && grid.rows() <= tile.ho
                                            && grid.cols() <= tile.wo
                                    }
                                };
                                if !fits {
                                    continue;
                                }
                                let core_plane = core_plane_for(&layer, &a, &chip, tile);
                                for pkg_order in TemporalOrder::ALL {
                                    for chip_order in TemporalOrder::ALL {
                                        for &rotation in opts.rotations {
                                            if a.chiplets == 1 && rotation == RotationMode::DramOnly
                                            {
                                                continue;
                                            }
                                            raw.push(Mapping {
                                                package: pkg,
                                                chiplet: chip,
                                                package_order: pkg_order,
                                                chiplet_order: chip_order,
                                                chiplet_tile: tile,
                                                core_plane,
                                                rotation,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
            let raw_len = raw.len();
            raw.sort_by_key(mapping_key);
            raw.dedup_by_key(|m| mapping_key(m));

            let mut got = Vec::new();
            let stats = visit_candidates(&layer, &a, opts, |_, m| got.push(m));
            assert_eq!(got, raw, "{}", layer.name());
            assert_eq!(stats.emitted, raw.len(), "{}", layer.name());
            // At least one of the layers must actually exercise dedup for
            // the comparison to mean anything.
            if layer.name() == "res2a_branch2b" {
                assert!(raw_len > raw.len(), "expected duplicates in reference");
            }
        }
    }

    #[test]
    fn geom_ids_are_dense_and_shared_across_orders_and_rotations() {
        use std::collections::BTreeMap;
        let a = arch();
        let layer = zoo::resnet50(224).layer("res2a_branch2b").cloned().unwrap();
        let mut cands = Vec::new();
        let mut ids = Vec::new();
        let stats = enumerate_into(&layer, &a, EnumOptions::default(), &mut cands, &mut ids);
        assert_eq!(cands.len(), ids.len());
        assert_eq!(stats.emitted, cands.len());
        // Dense: every id below `geoms` appears.
        let max = ids.iter().copied().max().unwrap() as usize;
        assert_eq!(max + 1, stats.geoms);
        // Consistent: one id <=> one (package, chiplet, tile, core_plane).
        let mut seen: BTreeMap<u32, String> = BTreeMap::new();
        for (m, &g) in cands.iter().zip(&ids) {
            let geom_key = format!(
                "{:?}|{:?}|{:?}|{:?}",
                m.package, m.chiplet, m.chiplet_tile, m.core_plane
            );
            match seen.get(&g) {
                Some(k) => assert_eq!(k, &geom_key, "geom id {g} maps to two geometries"),
                None => {
                    seen.insert(g, geom_key);
                }
            }
        }
        // Every geometry is shared by 4 temporal combos x 2 rotations.
        let mut uses: BTreeMap<u32, u32> = BTreeMap::new();
        for &g in &ids {
            *uses.entry(g).or_default() += 1;
        }
        assert!(uses.values().all(|&n| n == 8), "{uses:?}");
    }

    use baton_model::ConvSpec;
}
