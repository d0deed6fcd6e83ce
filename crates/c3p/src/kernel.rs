//! The one production C³P kernel: every capacity-dependent access the
//! crate prices (evaluation, the mapping search, the pre-design memory
//! sweep, the verdicts and the sensitivity analysis) is read off it.
//!
//! A candidate has five capacity-dependent data paths, each priced by the
//! C³P region walk of [`crate::walk`] over its footprint table (with the
//! home-slice rule applied on the DRAM paths). The kernel has no walk of
//! its own: [`Staircases::walk`] folds every path into its [`Staircase`]
//! in two walks (one per tensor, since paths of one tensor share their
//! regions), and [`Staircases::at`] reads the five paths at one [`Rung`]
//! of buffer capacities. A [`NestView`] feeds the walk from either a
//! `Decomposition` or a search survivor's [`NestScratch`]. Evaluation, the
//! search and the verdicts read one rung, the machine's own capacities;
//! the sweep reads every rung of its capacity ladders off the same walk.
//!
//! [`Paths::access`] assembles a resolve into [`AccessCounts`]; the
//! branch-and-bound floors assemble [`Paths::base`], and the order-free
//! penalty floor ([`crate::PairFloor`]) the [`Staircases::order_free`] of
//! a `(geometry, rotation)` pair, read at the machine's [`Rung`] by the
//! search and at each pruning corner's by the sweep. [`GeomMemo`] and
//! [`Pooled`] are the scratch management the search and the sweep share.
//! Their unit tests and the equivalence harnesses in `tests/` pin all of
//! it to the materialized oracle of [`crate::reference`] bit for bit.

use std::cell::RefCell;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};
use std::thread::LocalKey;

use baton_arch::PackageConfig;
use baton_mapping::enumerate::Slot;
use baton_mapping::{
    mapping_geometry_with, ChannelKey, ChannelTerms, Decomposition, Dim, Footprints, Loop,
    LoopLevel, Mapping, MappingError, MappingGeometry, NestLevel, NestScratch, PlaneAxis, PlaneKey,
    PlaneTerms, TermMemo, Volumes,
};
use baton_model::ConvSpec;
use baton_telemetry::{count, Counter};

use crate::evaluate::AccessCounts;
use crate::walk::Staircase;

/// Buffer capacities in bits for one resolve. `None` skips that buffer's
/// paths and leaves them 0 (a sweep rung past the end of a shorter ladder).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rung {
    /// A-L1 capacity: prices the A-L2 read path.
    pub a_l1_bits: Option<u64>,
    /// A-L2 capacity: prices the DRAM and ring input paths.
    pub a_l2_bits: Option<u64>,
    /// Effective W-L1 (pool share) capacity: prices the weight paths.
    pub w_eff_bits: Option<u64>,
}

impl Rung {
    /// The machine's own capacities, with `w_eff_bits` the candidate's
    /// effective W-L1 (pool share).
    #[inline]
    pub(crate) fn machine(arch: &PackageConfig, w_eff_bits: u64) -> Self {
        Self {
            a_l1_bits: Some(arch.chiplet.core.a_l1_bytes * 8),
            a_l2_bits: Some(arch.chiplet.a_l2_bytes * 8),
            w_eff_bits: Some(w_eff_bits),
        }
    }
}

/// The five capacity-dependent access paths of one candidate, in bits.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Paths {
    /// DRAM input reads (A-L2 capacity).
    pub dram_input: u64,
    /// Ring (D2D) input traffic (A-L2 capacity).
    pub d2d_input: u64,
    /// A-L2 to bus reads (A-L1 capacity).
    pub a_l2_read: u64,
    /// DRAM weight reads (effective W-L1 capacity).
    pub dram_weight: u64,
    /// Ring (D2D) weight traffic (effective W-L1 capacity).
    pub d2d_weight: u64,
}

/// One candidate as the kernel reads it: its temporal nest and aligned
/// footprint tables (a `Decomposition`'s, or the ones built into a reused
/// [`NestScratch`]), and the geometry scalars pricing needs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NestView<'a> {
    /// Non-unit temporal loops, innermost first.
    pub loops: &'a [Loop],
    /// Working-set footprints aligned with `loops`.
    pub footprints: &'a Footprints,
    /// Base volumes under the candidate's rotation mode.
    pub volumes: Volumes,
    /// Whether activations and weights rotate over the ring.
    pub rotated: (bool, bool),
    /// Chiplet count.
    pub n_p: u32,
    /// Effective W-L1 capacity per stream in bits (pool share).
    pub w_eff_bits: u64,
    /// Cores receiving each A-L2 multicast (A-L1 fill factor).
    pub fill_streams: u64,
    /// Ideal compute cycles.
    pub compute_cycles: u64,
}

impl<'a> NestView<'a> {
    /// A decomposition's nest.
    pub(crate) fn of(d: &'a Decomposition) -> Self {
        Self {
            loops: d.nest.loops(),
            footprints: &d.footprints,
            volumes: d.volumes,
            rotated: (d.rotate_inputs, d.rotate_weights),
            n_p: d.n_p,
            w_eff_bits: d.effective_w_l1_bits,
            fill_streams: u64::from(d.weight_streams),
            compute_cycles: d.compute_cycles,
        }
    }

    /// Builds `mapping`'s nest on `geom` into `nest`, without a
    /// `Decomposition` (and, once `nest` has grown, without allocating).
    #[inline]
    pub(crate) fn build(
        geom: &MappingGeometry,
        layer: &ConvSpec,
        mapping: &Mapping,
        nest: &'a mut NestScratch,
    ) -> Self {
        let (volumes, rot_in, rot_w) = geom.volumes_for(mapping.rotation);
        geom.build_nest_into(layer, mapping, rot_in, rot_w, nest);
        Self {
            loops: &nest.loops,
            footprints: &nest.footprints,
            volumes,
            rotated: (rot_in, rot_w),
            n_p: geom.n_p(),
            w_eff_bits: geom.effective_w_l1_bits(),
            fill_streams: u64::from(geom.weight_streams()),
            compute_cycles: geom.compute_cycles(),
        }
    }

    /// The candidate's five staircases.
    #[inline]
    pub(crate) fn stairs(&self) -> Staircases {
        Staircases::walk(self.loops, self.footprints, self.n_p, self.rotated)
    }
}

/// A candidate's five paths as [`Staircase`]s, named as in [`Paths`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Staircases {
    pub dram_input: Staircase,
    pub d2d_input: Staircase,
    pub a_l2_read: Staircase,
    pub dram_weight: Staircase,
    pub d2d_weight: Staircase,
}

impl Staircases {
    /// Walks a nest once for its three input paths and once for its two
    /// weight paths (paths of one tensor share their regions). `loops` and
    /// `fp` are a candidate's nest and footprint tables, built with the
    /// `rotated` flags that [`MappingGeometry::volumes_for`] returned for
    /// it; `n_p` is its chiplet count.
    ///
    /// The DRAM paths of a rotated tensor apply the home-slice rule: above
    /// the rotation loop only `1/N_P` of the shared working set must stay
    /// resident to avoid DRAM reloads (the rest re-arrives over the ring,
    /// which the D2D paths price).
    #[inline]
    fn walk(
        loops: &[Loop],
        fp: &Footprints,
        n_p: u32,
        (rotate_inputs, rotate_weights): (bool, bool),
    ) -> Self {
        // First nest position above the rotation loop (0 if there is none).
        let cut = loops
            .iter()
            .position(|l| l.level == LoopLevel::Rotation)
            .map_or(0, |p| p + 1);
        let home = |t: &[u64], rotated: bool, i: usize| home_slice(t[i], rotated && i >= cut, n_p);
        let [dram_input, d2d_input, a_l2_read] = Staircase::walk(
            loops,
            |i| {
                let chip = &fp.chiplet_input;
                [home(chip, rotate_inputs, i), chip[i], fp.core_input[i]]
            },
            Dim::input_relevant,
        );
        let [dram_weight, d2d_weight] = Staircase::walk(
            loops,
            |i| {
                let stream = &fp.stream_weight;
                [home(stream, rotate_weights, i), stream[i]]
            },
            Dim::weight_relevant,
        );
        Self {
            dram_input,
            d2d_input,
            a_l2_read,
            dram_weight,
            d2d_weight,
        }
    }

    /// The five paths of every temporal order of one `(geometry,
    /// rotation)` pair, each floored over the orders
    /// ([`Staircase::order_free`]): at any capacity, each path's multiplier
    /// is at most that of the pair's every order. `levels` and the flags
    /// are as [`MappingGeometry::nest_levels`] and
    /// [`MappingGeometry::volumes_for`] gave them. A rotated tensor's
    /// rotation loop exists and is innermost, so the home-slice rule
    /// applies from the core level up.
    #[inline]
    pub(crate) fn order_free(
        levels: &[NestLevel; 3],
        n_p: u32,
        (rotate_inputs, rotate_weights): (bool, bool),
    ) -> Self {
        let [dram_input, d2d_input, a_l2_read] = Staircase::order_free(
            levels,
            |k, l| {
                let home = home_slice(l.chiplet_input, rotate_inputs && k > 0, n_p);
                [home, l.chiplet_input, l.core_input]
            },
            Dim::input_relevant,
        );
        let [dram_weight, d2d_weight] = Staircase::order_free(
            levels,
            |k, l| {
                let home = home_slice(l.stream_weight, rotate_weights && k > 0, n_p);
                [home, l.stream_weight]
            },
            Dim::weight_relevant,
        );
        Self {
            dram_input,
            d2d_input,
            a_l2_read,
            dram_weight,
            d2d_weight,
        }
    }

    /// The paths at one rung: each path whose buffer has a capacity at
    /// `rung` is its base volume in `v` (the `volumes_for` result the nest
    /// was built beside) times its C³P reload multiplier at that capacity,
    /// saturating; the rest stay 0.
    #[inline]
    pub(crate) fn at(&self, v: &Volumes, rung: Rung) -> Paths {
        let mut p = Paths::default();
        if let Some(cap) = rung.a_l2_bits {
            p.dram_input = v.dram_input_base.saturating_mul(self.dram_input.at(cap));
            p.d2d_input = v.d2d_input_base.saturating_mul(self.d2d_input.at(cap));
        }
        if let Some(cap) = rung.a_l1_bits {
            p.a_l2_read = v.a_l2_read_base.saturating_mul(self.a_l2_read.at(cap));
        }
        if let Some(cap) = rung.w_eff_bits {
            p.dram_weight = v.dram_weight_base.saturating_mul(self.dram_weight.at(cap));
            p.d2d_weight = v.d2d_weight_base.saturating_mul(self.d2d_weight.at(cap));
        }
        p
    }
}

/// The home-slice rule: above the rotation loop (`sliced`) only `1/N_P`
/// of a rotated tensor's working set must stay resident to avoid DRAM
/// reloads.
#[inline]
fn home_slice(footprint: u64, sliced: bool, n_p: u32) -> u64 {
    if sliced {
        footprint / u64::from(n_p).max(1)
    } else {
        footprint
    }
}

impl Paths {
    /// Every path at its base volume: the penalty-free resolve the
    /// branch-and-bound floors price.
    #[inline]
    pub(crate) fn base(v: &Volumes) -> Self {
        Self {
            dram_input: v.dram_input_base,
            d2d_input: v.d2d_input_base,
            a_l2_read: v.a_l2_read_base,
            dram_weight: v.dram_weight_base,
            d2d_weight: v.d2d_weight_base,
        }
    }

    /// The one [`AccessCounts`] assembly: fills derive from the DRAM/ring
    /// reads they buffer, and each A-L2 read fills `fill_streams` A-L1s.
    #[inline]
    pub(crate) fn access(&self, v: &Volumes, fill_streams: u64) -> AccessCounts {
        let a_l2_fill = self.dram_input + self.d2d_input;
        let a_l1_fill = self.a_l2_read * fill_streams;
        let w_l1_fill = self.dram_weight + self.d2d_weight;
        AccessCounts {
            dram_input_bits: self.dram_input,
            dram_weight_bits: self.dram_weight,
            dram_output_bits: v.dram_output,
            d2d_bits: self.d2d_input + self.d2d_weight,
            a_l2_bits: a_l2_fill + self.a_l2_read,
            o_l2_bits: v.o_l2_write + v.o_l2_read,
            a_l1_bits: a_l1_fill + v.a_l1_read,
            w_l1_bits: w_l1_fill + v.w_l1_read,
            o_l1_rmw_bits: v.o_l1_rmw,
            mac_ops: v.mac_ops,
        }
    }

    /// C³P penalty activations: a path above its base volume means the
    /// buffer at that level is below the critical capacity. The search and
    /// the sweep check each priced point; the floors never do.
    #[inline]
    pub(crate) fn count_penalties(&self, v: &Volumes) {
        if baton_telemetry::enabled() {
            if self.dram_input > v.dram_input_base {
                count(Counter::PenaltyAL2);
            }
            if self.a_l2_read > v.a_l2_read_base {
                count(Counter::PenaltyAL1);
            }
            if self.dram_weight > v.dram_weight_base {
                count(Counter::PenaltyWL1);
            }
        }
    }
}

/// Direct-mapped cache of one axis' tiling terms: a key hashes to one of
/// `N` slots, and a key that collides with another overwrites it (the
/// evicted terms are simply recomputed on their next use). Inline, so a
/// fresh worker's scratch allocates nothing for it.
#[derive(Debug)]
struct TermTable<K, T, const N: usize>([Option<(K, T)>; N]);

impl<K: Copy, T: Copy, const N: usize> Default for TermTable<K, T, N> {
    fn default() -> Self {
        Self([None; N])
    }
}

impl<K: Copy + Eq + Hash, T: Copy, const N: usize> TermTable<K, T, N> {
    fn clear(&mut self) {
        self.0.fill(None);
    }

    #[inline]
    fn get(&mut self, key: K, terms: impl FnOnce() -> T) -> T {
        let mut h = SlotHasher(0);
        key.hash(&mut h);
        let slot = &mut self.0[(h.0 >> 32) as usize % N];
        match slot {
            Some((k, t)) if *k == key => *t,
            _ => slot.insert((key, terms())).1,
        }
    }
}

/// Multiply-rotate hash over a few small integers (the `FxHash` step):
/// spreads the term keys over the table slots at a fraction of SipHash's
/// cost.
struct SlotHasher(u64);

impl Hasher for SlotHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// Slots per plane axis. A zoo layer's search sees at most 153 distinct
/// keys per plane axis; over the six zoo models fewer than 1 % of lookups
/// recompute a key that a collision evicted.
const PLANE_SLOTS: usize = 128;
/// Slots for the output-channel axis, whose keys are fewer (at most 24 in
/// a zoo layer).
const CHANNEL_SLOTS: usize = 64;

/// The per-axis term caches of one `(layer, arch)`: the [`TermMemo`] that
/// [`GeomMemo`] decomposes its geometries through.
#[derive(Debug, Default)]
struct AxisTerms {
    rows: TermTable<PlaneKey, PlaneTerms, PLANE_SLOTS>,
    cols: TermTable<PlaneKey, PlaneTerms, PLANE_SLOTS>,
    channels: TermTable<ChannelKey, ChannelTerms, CHANNEL_SLOTS>,
}

impl TermMemo for AxisTerms {
    #[inline]
    fn plane(
        &mut self,
        axis: PlaneAxis,
        key: PlaneKey,
        terms: impl FnOnce() -> PlaneTerms,
    ) -> PlaneTerms {
        match axis {
            PlaneAxis::Rows => self.rows.get(key, terms),
            PlaneAxis::Cols => self.cols.get(key, terms),
        }
    }

    #[inline]
    fn channel(&mut self, key: ChannelKey, terms: impl FnOnce() -> ChannelTerms) -> ChannelTerms {
        self.channels.get(key, terms)
    }
}

/// Geometry memo indexed by the enumerator's dense `geom_id`: one entry
/// serves all order/rotation siblings of a distinct geometry, and two dense
/// lanes beside the entries keep the search's branch-and-bound floors per
/// `(geometry, rotation)` pair id
/// ([`pair_id`](baton_mapping::enumerate::pair_id), NaN until computed):
/// the penalty-free floor and the order-free penalty floor. A miss
/// decomposes through per-axis term caches, since distinct geometries
/// share far fewer distinct H, W and CO tilings. All of it is valid for one
/// `(layer, arch)` only; [`Self::reset`] clears it. The tables grow on
/// demand, because a streaming caller does not know the id count up front.
#[derive(Debug, Default)]
pub(crate) struct GeomMemo {
    entries: Vec<Option<Result<MappingGeometry, MappingError>>>,
    /// Penalty-free floors by pair id: two per geometry id.
    floors: Vec<f64>,
    /// Order-free penalty floors by pair id, beside `floors`.
    penalty_floors: Vec<f64>,
    terms: AxisTerms,
}

impl GeomMemo {
    /// Forgets every entry, floor and term, keeping the capacity, and
    /// reserves room for `ids` geometry ids (0 when the count is not known
    /// up front). The floor lanes grow on their first write instead.
    pub(crate) fn reset(&mut self, ids: usize) {
        self.entries.clear();
        self.entries.reserve(ids);
        self.floors.clear();
        self.penalty_floors.clear();
        self.terms.rows.clear();
        self.terms.cols.clear();
        self.terms.channels.clear();
    }

    /// `geom_id`'s entry, decomposing `mapping()` (any candidate of that
    /// geometry) on a miss. Counts nothing.
    #[inline]
    pub(crate) fn resolve(
        &mut self,
        layer: &ConvSpec,
        arch: &PackageConfig,
        geom_id: u32,
        mapping: impl FnOnce() -> Mapping,
    ) -> Result<&MappingGeometry, MappingError> {
        let idx = geom_id as usize;
        if idx >= self.entries.len() {
            self.entries.resize(idx + 1, None);
        }
        let terms = &mut self.terms;
        self.entries[idx]
            .get_or_insert_with(|| mapping_geometry_with(layer, arch, &mapping(), terms))
            .as_ref()
            .map_err(|e| *e)
    }

    /// Memo lookup with per-candidate counter replay: bumps
    /// `DecomposeCalls` always and the specific reject counter on `Err`,
    /// exactly like one [`baton_mapping::decompose`] call would. The
    /// geometry is returned by reference: it is larger than the work most
    /// callers do with it.
    #[cfg(test)]
    pub(crate) fn get(
        &mut self,
        layer: &ConvSpec,
        arch: &PackageConfig,
        mapping: &Mapping,
        geom_id: u32,
    ) -> Result<&MappingGeometry, MappingError> {
        count(Counter::DecomposeCalls);
        let res = self.resolve(layer, arch, geom_id, || *mapping);
        if let Err(e) = res {
            count(e.counter());
        }
        res
    }

    /// The floor of `slot`'s `(geometry, rotation)` pair: `floor` computes
    /// it on first use, and later siblings read it back. `None` if the
    /// geometry was rejected or not resolved yet.
    #[inline]
    pub(crate) fn floor(
        &mut self,
        slot: Slot,
        floor: impl FnOnce(&MappingGeometry) -> f64,
    ) -> Option<f64> {
        let geom = self
            .entries
            .get(slot.geom as usize)?
            .as_ref()?
            .as_ref()
            .ok()?;
        let (ids, room) = (self.entries.len(), self.entries.capacity());
        let lane = Self::lane_slot(&mut self.floors, slot.pair(), ids, room);
        if lane.is_nan() {
            *lane = floor(geom);
        }
        Some(*lane)
    }

    /// `pair`'s slot in `lane`. A write past the lane's end grows it to
    /// the `ids` geometry ids the entry table holds, reserving two slots
    /// for each of the `room` ids the table has room for, so the lane
    /// reallocates no more often than the table. Only the search writes
    /// the floor lanes, so a sweep sharing the memo never allocates them.
    #[inline]
    fn lane_slot(lane: &mut Vec<f64>, pair: usize, ids: usize, room: usize) -> &mut f64 {
        if pair >= lane.len() {
            lane.reserve((2 * room).saturating_sub(lane.len()));
            lane.resize(2 * ids, f64::NAN);
        }
        &mut lane[pair]
    }

    /// The floor of `pair` as the lane holds it: NaN unless [`Self::floor`]
    /// computed it, so always NaN for a rejected geometry.
    #[inline]
    pub(crate) fn lane(&self, pair: usize) -> f64 {
        self.floors.get(pair).copied().unwrap_or(f64::NAN)
    }

    /// The geometry resolved for `geom_id`, for one candidate of it: a
    /// rejected geometry bumps its reject counter, as that candidate's
    /// decompose would, and gives `None`, as does one not resolved yet.
    #[inline]
    pub(crate) fn replayed(&self, geom_id: u32) -> Option<&MappingGeometry> {
        Self::replay(&self.entries, geom_id)
    }

    #[inline]
    fn replay(
        entries: &[Option<Result<MappingGeometry, MappingError>>],
        geom_id: u32,
    ) -> Option<&MappingGeometry> {
        match entries.get(geom_id as usize)?.as_ref()? {
            Ok(geom) => Some(geom),
            Err(e) => {
                count(e.counter());
                None
            }
        }
    }

    /// [`Self::replayed`] for `slot`'s geometry, with the penalty floor of
    /// its `(geometry, rotation)` pair: `floor` computes it on first use,
    /// and later siblings read it back.
    #[inline]
    pub(crate) fn replayed_with_penalty_floor(
        &mut self,
        slot: Slot,
        floor: impl FnOnce(&MappingGeometry) -> f64,
    ) -> Option<(&MappingGeometry, f64)> {
        let geom = Self::replay(&self.entries, slot.geom)?;
        let (ids, room) = (self.entries.len(), self.entries.capacity());
        let lane = Self::lane_slot(&mut self.penalty_floors, slot.pair(), ids, room);
        if lane.is_nan() {
            *lane = floor(geom);
        }
        Some((geom, *lane))
    }

    /// Geometry ids the entry table holds room for.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.entries.capacity()
    }
}

/// A value checked out of a thread-local pool of retired buffers; it
/// returns itself to that pool on drop. Every buffer inside keeps its
/// capacity, so a thread that checks out, fills and drops the same kind of
/// scratch again and again (search chunks, sweep units) reaches a
/// zero-allocation steady state.
#[derive(Debug)]
pub struct Pooled<T: Default + 'static> {
    inner: T,
    pool: &'static LocalKey<RefCell<Vec<T>>>,
}

impl<T: Default + 'static> Pooled<T> {
    /// Checks a value out of `pool`, default-constructing one only if the
    /// pool is empty.
    pub(crate) fn checkout(pool: &'static LocalKey<RefCell<Vec<T>>>) -> Self {
        let retired = pool.try_with(|p| p.borrow_mut().pop()).ok().flatten();
        let inner = retired.unwrap_or_default();
        Self { inner, pool }
    }
}

impl<T: Default + 'static> Deref for Pooled<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: Default + 'static> DerefMut for Pooled<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: Default + 'static> Drop for Pooled<T> {
    fn drop(&mut self) {
        // An empty default (no heap) stands in for the value until the
        // pool takes it. `try_with`: the pool may already be gone during
        // thread teardown, in which case the value is simply freed.
        let retired = std::mem::take(&mut self.inner);
        let _ = self.pool.try_with(|p| p.borrow_mut().push(retired));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::HashSet;

    use baton_arch::{presets, ChipletConfig, CoreConfig};
    use baton_mapping::enumerate::{enumerate_into, EnumOptions};
    use baton_mapping::mapping_geometry;
    use baton_model::zoo;
    use proptest::prelude::*;

    /// Resets `memo` for `(layer, arch)` and checks that every enumerated
    /// candidate's memoized geometry (error included) equals a fresh,
    /// memo-free [`mapping_geometry`]. The fresh side runs once per
    /// geometry id, on its first candidate; the memo side once per
    /// candidate. Returns the number of distinct geometries compared.
    fn assert_memo_matches_fresh(
        memo: &mut GeomMemo,
        layer: &ConvSpec,
        arch: &PackageConfig,
    ) -> usize {
        let (mut cands, mut ids) = (Vec::new(), Vec::new());
        let n_geoms =
            enumerate_into(layer, arch, EnumOptions::default(), &mut cands, &mut ids).geoms;
        memo.reset(n_geoms);
        let mut fresh = vec![None; n_geoms];
        for (m, &gid) in cands.iter().zip(&ids) {
            let want = *fresh[gid as usize].get_or_insert_with(|| mapping_geometry(layer, arch, m));
            let got = memo.get(layer, arch, m, gid).copied();
            assert_eq!(got, want, "{}: {m:?}", layer.name());
        }
        n_geoms
    }

    #[test]
    fn memoized_geometry_matches_fresh_on_every_zoo_candidate() {
        // One memo for every distinct layer shape of the six zoo models,
        // reset between shapes as the search resets it between searches.
        let arch = presets::case_study_accelerator();
        let models = [
            zoo::alexnet(224),
            zoo::vgg16(224),
            zoo::resnet50(224),
            zoo::darknet19(224),
            zoo::mobilenet_v2(224),
            zoo::yolo_v2(224),
        ];
        let mut memo = GeomMemo::default();
        let mut shapes = HashSet::new();
        let mut geoms = 0;
        for layer in models.iter().flat_map(|m| m.layers()) {
            if shapes.insert(layer.shape_key()) {
                geoms += assert_memo_matches_fresh(&mut memo, layer, &arch);
            }
        }
        assert!(
            shapes.len() > 60 && geoms > 100_000,
            "{} shapes, {geoms} geometries",
            shapes.len()
        );
    }

    #[test]
    fn term_tables_hold_every_key_they_are_given() {
        // A key found in its slot returns the stored terms; a colliding key
        // evicts it, and the evicted key recomputes on its next use.
        let mut table = TermTable::<u32, u64, 4>::default();
        let mut computed = 0;
        let mut get = |t: &mut TermTable<u32, u64, 4>, k: u32| {
            t.get(k, || {
                computed += 1;
                u64::from(k) * 10
            })
        };
        for k in 0..64 {
            assert_eq!(get(&mut table, k), u64::from(k) * 10);
            assert_eq!(get(&mut table, k), u64::from(k) * 10);
        }
        assert_eq!(computed, 64, "a repeated key must hit");
        table.clear();
        assert!(table.0.iter().all(Option::is_none));
    }

    /// Random layers: plain convolutions (strides up to 4, so also stride >
    /// kernel), depthwise convolutions, and fully-connected layers down to
    /// the thin heads that take the enumerator's fallback.
    pub(crate) fn layers() -> impl Strategy<Value = ConvSpec> {
        (
            (0usize..3, 1u32..=40),
            1u32..=96,
            0usize..4,
            1u32..=4,
            0u32..=2,
            1u32..=160,
        )
            .prop_filter_map("valid layer", |((kind, hw), ci, ki, s, pad, co)| {
                match kind {
                    0 => ConvSpec::new("conv", hw, hw, ci, [1, 3, 5, 7][ki], s, pad, co),
                    1 => {
                        let k = [3, 5][ki % 2];
                        ConvSpec::depthwise("dw", hw, hw, ci, k, s.min(2), k / 2)
                    }
                    // 1 to 12 outputs: below the chiplet count, a head has
                    // no legal partition and takes the fallback geometry.
                    _ => ConvSpec::fully_connected("fc", ci * 5, co % 12 + 1),
                }
                .ok()
            })
    }

    /// Random machines: 1 to 8 chiplets, 1 to 16 cores (hybrid chiplet
    /// partitions from 4 cores up), and other lane and vector widths.
    pub(crate) fn machines() -> impl Strategy<Value = PackageConfig> {
        (0usize..4, 0usize..5, 0usize..3, 0usize..3, 1u64..=4).prop_map(|(np, nc, l, p, scale)| {
            let core = CoreConfig::new(
                [4, 8, 16][l],
                [4, 8, 16][p],
                1536,
                800 * scale,
                18 * 1024 * scale,
            );
            let chiplet =
                ChipletConfig::new([1, 2, 4, 8, 16][nc], core, 64 * 1024 * scale, 64 * 1024);
            PackageConfig::new([1, 2, 4, 8][np], chiplet)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// One memo reused for two `(layer, arch)` pairs in a row, reset
        /// between them, agrees with fresh geometry on both.
        #[test]
        fn memoized_geometry_matches_fresh_on_generated_shapes(
            first in (layers(), machines()),
            second in (layers(), machines()),
        ) {
            let mut memo = GeomMemo::default();
            for (layer, arch) in [&first, &second, &first] {
                assert_memo_matches_fresh(&mut memo, layer, arch);
            }
        }
    }
}
