//! The one production C³P kernel, shared by the mapping search and the
//! pre-design memory sweep.
//!
//! A candidate has five capacity-dependent data paths, each priced by the
//! C³P region walk of [`crate::walk`] over its footprint table (with the
//! home-slice rule applied on the DRAM paths). The kernel has no walk of
//! its own: [`Staircases::walk`] folds every path into its [`Staircase`]
//! in two walks (one per tensor, since paths of one tensor share their
//! regions), and [`Staircases::at`] reads the five paths at one [`Rung`]
//! of buffer capacities. The search reads one rung, the machine's own
//! capacities; the sweep reads every rung of its capacity ladders off the
//! same walk.
//!
//! [`Paths::access`] assembles a resolve into [`AccessCounts`]; the
//! branch-and-bound floors assemble [`Paths::base`]. [`GeomMemo`] and
//! [`Pooled`] are the scratch management both callers share. The search and
//! sweep unit tests and the equivalence harnesses in `tests/` pin all of it
//! to the materialized oracle bit for bit.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::thread::LocalKey;

use baton_arch::PackageConfig;
use baton_mapping::{
    mapping_geometry, Dim, LoopLevel, Mapping, MappingError, MappingGeometry, NestScratch, Volumes,
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

/// The five capacity-dependent access paths of one candidate, in bits.
#[derive(Debug, Clone, Copy, Default)]
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

/// Names one of the five paths of [`Paths`].
#[derive(Debug, Clone, Copy)]
enum Path {
    DramInput,
    D2dInput,
    AL2Read,
    DramWeight,
    D2dWeight,
}

/// A built candidate nest viewed as the five paths' walk inputs: which
/// footprint table each path reads, and the home-slice tier — above the
/// rotation loop only `1/N_P` of a rotated working set must stay resident
/// to avoid DRAM reloads (the slicing rule of `LayerProfiles::build`,
/// applied lazily per footprint read).
struct PathWalks<'a> {
    nest: &'a NestScratch,
    n_p: u64,
    /// First nest position above the rotation loop (0 if there is none).
    cut: usize,
    rotate_inputs: bool,
    rotate_weights: bool,
}

impl<'a> PathWalks<'a> {
    /// `nest` must be built with the `rotated` flags that
    /// [`MappingGeometry::volumes_for`] returned for the candidate.
    #[inline]
    fn new(nest: &'a NestScratch, n_p: u32, (rotate_inputs, rotate_weights): (bool, bool)) -> Self {
        let rot_pos = nest
            .loops
            .iter()
            .position(|l| l.level == LoopLevel::Rotation);
        Self {
            nest,
            n_p: u64::from(n_p).max(1),
            cut: rot_pos.map(|p| p + 1).unwrap_or(0),
            rotate_inputs,
            rotate_weights,
        }
    }

    /// `path`'s working set covering everything strictly inside nest
    /// position `i`, in bits.
    #[inline]
    fn footprint(&self, path: Path, i: usize) -> u64 {
        let (fp, sliced) = match path {
            Path::DramInput => (&self.nest.chiplet_input, self.rotate_inputs),
            Path::D2dInput => (&self.nest.chiplet_input, false),
            Path::AL2Read => (&self.nest.core_input, false),
            Path::DramWeight => (&self.nest.stream_weight, self.rotate_weights),
            Path::D2dWeight => (&self.nest.stream_weight, false),
        };
        if sliced && i >= self.cut {
            fp[i] / self.n_p
        } else {
            fp[i]
        }
    }
}

/// A candidate's five paths as [`Staircase`]s, named as in [`Paths`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Staircases {
    dram_input: Staircase,
    d2d_input: Staircase,
    a_l2_read: Staircase,
    dram_weight: Staircase,
    d2d_weight: Staircase,
}

impl Staircases {
    /// Walks the candidate's nest once for its three input paths and once
    /// for its two weight paths (paths of one tensor share their regions).
    /// `nest` must be built with the `rotated` flags that
    /// [`MappingGeometry::volumes_for`] returned for the candidate.
    #[inline]
    pub(crate) fn walk(nest: &NestScratch, n_p: u32, rotated: (bool, bool)) -> Self {
        let walks = PathWalks::new(nest, n_p, rotated);
        let fp = |path, i| walks.footprint(path, i);
        let [dram_input, d2d_input, a_l2_read] = Staircase::walk(
            &nest.loops,
            |i| {
                [
                    fp(Path::DramInput, i),
                    fp(Path::D2dInput, i),
                    fp(Path::AL2Read, i),
                ]
            },
            Dim::input_relevant,
        );
        let [dram_weight, d2d_weight] = Staircase::walk(
            &nest.loops,
            |i| [fp(Path::DramWeight, i), fp(Path::D2dWeight, i)],
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
    /// with the same sliced footprints and saturating products as
    /// `LayerProfiles::build` + `resolve_at_capacities`; the rest stay 0.
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

/// Geometry memo indexed by the enumerator's dense `geom_id`: one entry
/// serves all order/rotation siblings of a distinct geometry. It grows on
/// demand, because the streaming visitor does not know the id count up
/// front.
#[derive(Debug, Default)]
pub(crate) struct GeomMemo(Vec<Option<Result<MappingGeometry, MappingError>>>);

impl GeomMemo {
    /// Forgets every entry, keeping the capacity, and reserves room for
    /// `ids` geometry ids (0 when the count is not known up front).
    pub(crate) fn reset(&mut self, ids: usize) {
        self.0.clear();
        self.0.reserve(ids);
    }

    /// Memo lookup with per-candidate counter replay: bumps
    /// `DecomposeCalls` always and the specific reject counter on `Err`,
    /// exactly like one [`baton_mapping::decompose`] call would. The
    /// geometry is returned by reference: it is larger than the work most
    /// callers do with it.
    #[inline]
    pub(crate) fn get(
        &mut self,
        layer: &ConvSpec,
        arch: &PackageConfig,
        mapping: &Mapping,
        geom_id: u32,
    ) -> Result<&MappingGeometry, MappingError> {
        count(Counter::DecomposeCalls);
        let idx = geom_id as usize;
        if idx >= self.0.len() {
            self.0.resize(idx + 1, None);
        }
        let res = self.0[idx]
            .get_or_insert_with(|| mapping_geometry(layer, arch, mapping))
            .as_ref();
        if baton_telemetry::enabled() {
            if let Err(e) = res {
                count(e.counter());
            }
        }
        res.map_err(|e| *e)
    }

    /// The geometry [`Self::get`] resolved for `geom_id`, without counting
    /// a second decompose; `None` if it was rejected or not resolved yet.
    #[inline]
    pub(crate) fn resolved(&self, geom_id: u32) -> Option<&MappingGeometry> {
        self.0.get(geom_id as usize)?.as_ref()?.as_ref().ok()
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
