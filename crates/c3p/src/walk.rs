//! The C3P flow-diagram walk (Figure 6(b) of the paper).
//!
//! Walking a temporal nest from the innermost loop outward, loops that index
//! the tensor under analysis are *critical positions*; maximal runs of
//! non-indexing loops between them are *reuse regions*. A reuse region whose
//! enclosed working set exceeds the buffer reloads that working set once per
//! iteration, so it contributes a breakpoint `(Cc, P)` where `Cc` is the
//! footprint at the region's entry and `P` the product of the region's trip
//! counts.
//!
//! One loop, `walk_regions`, performs that walk. Production reads it
//! through one fold, `Staircase`, which keeps every `(Cc, P)` step inline,
//! so a path walked once can be read at any number of capacities: the
//! machine's own (evaluation, the search, the verdicts) or every rung of a
//! capacity ladder (the pre-design sweep). The one other fold,
//! [`c3p_breakpoints`](crate::reference::c3p_breakpoints), collects the
//! regions into the `Vec` of the materialized oracle in
//! [`crate::reference`].

use baton_mapping::{Dim, Loop, NestLevel};

/// The most reuse regions one path of a production nest can have. A
/// mapping's temporal nest holds at most seven loops (three core-level, one
/// rotation, three chiplet-level), and reuse regions are separated by at
/// least one critical position, so at most four of them fit.
pub(crate) const MAX_REGIONS: usize = 4;

/// The one C³P region walk: calls `region(Cc, P)` for every reuse region
/// of `loops` with `P > 1`, innermost first. `P` saturates within a
/// region; `footprint(i)` is read only at region entries. `T` is one
/// footprint, or several paths' footprints that share `relevant` and so
/// share every region boundary and `P`.
#[inline]
pub(crate) fn walk_regions<T: Copy>(
    loops: &[Loop],
    footprint: impl Fn(usize) -> T,
    relevant: impl Fn(Dim) -> bool,
    mut region: impl FnMut(T, u64),
) {
    let mut close = |cc: Option<T>, mult: u64| {
        if let (Some(cc), true) = (cc, mult > 1) {
            region(cc, mult);
        }
    };
    let mut region_mult: u64 = 1;
    let mut region_cc: Option<T> = None;
    for (i, l) in loops.iter().enumerate() {
        if relevant(l.dim) {
            // A critical position closes any open reuse region.
            close(region_cc, region_mult);
            region_mult = 1;
        } else {
            if region_mult == 1 {
                // Region entry: the working set that must persist is the one
                // covering everything inside this position.
                region_cc = Some(footprint(i));
            }
            region_mult = region_mult.saturating_mul(l.count);
        }
    }
    close(region_cc, region_mult);
}

/// One path's C³P staircase: its reuse regions' `(Cc_k, P_k)` breakpoints
/// (critical capacity in bits, reload multiplier) in walk order, held
/// inline (no allocation). The reload multiplier at any capacity is the
/// threshold product [`Staircase::at`], so walking a path once and reading
/// it at every rung of a capacity ladder is bit-identical to one walk per
/// rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Staircase {
    steps: [(u64, u64); MAX_REGIONS],
    len: usize,
}

impl Staircase {
    /// No steps: a multiplier of 1 at every capacity.
    const FLAT: Self = Self {
        steps: [(0, 1); MAX_REGIONS],
        len: 0,
    };

    /// The staircases of `N` paths over one nest that share `relevant`
    /// and differ only in their footprints, in one walk: such paths have
    /// the same regions, so they differ only in each step's critical
    /// capacity. `loops` is the temporal nest innermost-first (non-unit
    /// loops, as in a `LoopNest` or a `NestScratch`), and
    /// `footprints(i)[p]` is path `p`'s working set in bits covering
    /// everything strictly inside position `i` (defined for
    /// `0..=loops.len()`).
    ///
    /// # Panics
    ///
    /// Panics if the nest has more than [`MAX_REGIONS`] reuse regions,
    /// which no mapping's temporal nest can have.
    #[inline]
    pub(crate) fn walk<const N: usize>(
        loops: &[Loop],
        footprints: impl Fn(usize) -> [u64; N],
        relevant: impl Fn(Dim) -> bool,
    ) -> [Self; N] {
        let mut out = [Self::FLAT; N];
        walk_regions(loops, footprints, relevant, |ccs, multiplier| {
            for (s, cc) in out.iter_mut().zip(ccs) {
                let step = s
                    .steps
                    .get_mut(s.len)
                    .expect("a mapping nest has at most MAX_REGIONS reuse regions");
                *step = (cc, multiplier);
                s.len += 1;
            }
        });
        out
    }

    /// The staircases of `N` paths that share `relevant`, floored over
    /// every temporal order of one `(geometry, rotation)` pair: for each of
    /// the nest's [`NestLevel`]s, its loops that do not index the tensor
    /// form one step, their trip-count product at `footprints(k, level)`,
    /// the paths' footprints on entry to level `k`.
    ///
    /// In any order, such a loop's reuse region opens after the last loop
    /// before it that indexes the tensor. Loops that do not index a tensor,
    /// and unit loops, leave its footprint unchanged, so the footprint at
    /// that entry covers at least every loop of the inner levels, and
    /// coverage only grows along a nest: it is at least the level's entry
    /// footprint. So at every capacity each path's multiplier is at most
    /// that of any order, and the order that puts every such loop first in
    /// its level pays exactly it.
    #[inline]
    pub(crate) fn order_free<const N: usize>(
        levels: &[NestLevel; 3],
        footprints: impl Fn(usize, &NestLevel) -> [u64; N],
        relevant: impl Fn(Dim) -> bool,
    ) -> [Self; N] {
        let mut out = [Self::FLAT; N];
        for (k, level) in levels.iter().enumerate() {
            let multiplier = level
                .loops()
                .iter()
                .filter(|l| !relevant(l.dim))
                .fold(1u64, |p, l| p.saturating_mul(l.count));
            if multiplier > 1 {
                for (s, cc) in out.iter_mut().zip(footprints(k, level)) {
                    s.steps[s.len] = (cc, multiplier);
                    s.len += 1;
                }
            }
        }
        out
    }

    /// The reload multiplier at `capacity_bits`: the product of every step
    /// whose critical capacity exceeds it. Branch-free over all
    /// [`MAX_REGIONS`] slots: an unused slot is `(0, 1)`, which no capacity
    /// is below.
    #[inline]
    pub(crate) fn at(&self, capacity_bits: u64) -> u64 {
        let mut total: u64 = 1;
        for &(cc, p) in &self.steps {
            total *= if capacity_bits < cc { p } else { 1 };
        }
        total
    }

    /// The critical capacities of the steps, in walk order.
    pub(crate) fn capacities(&self) -> impl Iterator<Item = u64> + '_ {
        self.steps[..self.len].iter().map(|&(cc, _)| cc)
    }

    /// The steps in ascending critical capacity, steps that share one
    /// merged into the product of their multipliers: the breakpoint list of
    /// Equation (1), as the verdicts report it. The home-slice rule
    /// divides only the footprints above the rotation loop, so a sliced
    /// path with a reuse region below that loop would leave the walk out of
    /// capacity order (no enumerated nest has one: its rotation loop is
    /// innermost). Merging does not change [`Self::at`]: merged steps share
    /// one threshold.
    pub(crate) fn sorted(&self) -> impl Iterator<Item = (u64, u64)> {
        let mut steps = self.steps;
        steps[..self.len].sort_unstable_by_key(|&(cc, _)| cc);
        let mut merged = 0;
        for i in 0..self.len {
            let (cc, p) = steps[i];
            if merged > 0 && steps[merged - 1].0 == cc {
                steps[merged - 1].1 *= p;
            } else {
                steps[merged] = (cc, p);
                merged += 1;
            }
        }
        steps.into_iter().take(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{c3p_breakpoints, AccessProfile, Breakpoint};
    use baton_mapping::{LoopLevel, LoopNest};

    fn l(dim: Dim, count: u64) -> Loop {
        Loop {
            dim,
            count,
            level: LoopLevel::Core,
        }
    }

    /// Paper Figure 6(c), example 1 for W-L1: nest (inner->outer)
    /// `C1, W1, H1, C2` with weight-relevant dims {Co}.
    /// `Cc_1 = C1 x filters` guards the `W1 x H1` region.
    #[test]
    fn w_l1_example_1() {
        let nest = LoopNest::new([
            l(Dim::Co, 4), // C1
            l(Dim::Wo, 3), // W1
            l(Dim::Ho, 5), // H1
            l(Dim::Co, 2), // C2
        ]);
        // Footprints: base 100; after C1 -> 400; W1/H1 don't grow weights;
        // after C2 -> 800.
        let fp = [100, 400, 400, 400, 800];
        let bps = c3p_breakpoints(&nest, &fp, Dim::weight_relevant);
        assert_eq!(
            bps,
            vec![Breakpoint {
                min_capacity_bits: 400,
                multiplier: 15
            }]
        );
        // The paper: a W-L1 below Cc_1 reloads H1*W1 - 1 extra times, i.e.
        // total = base * 15.
    }

    /// Paper Figure 6(d), example 2: `C1, C2, W1, H1` — the second critical
    /// position is at the nest boundary, so only `Cc_1` matters and the
    /// outer region `W1 x H1` is guarded by the full weight set.
    #[test]
    fn w_l1_example_2() {
        let nest = LoopNest::new([l(Dim::Co, 4), l(Dim::Co, 2), l(Dim::Wo, 3), l(Dim::Ho, 5)]);
        let fp = [100, 400, 800, 800, 800];
        let bps = c3p_breakpoints(&nest, &fp, Dim::weight_relevant);
        assert_eq!(
            bps,
            vec![Breakpoint {
                min_capacity_bits: 800,
                multiplier: 15
            }]
        );
    }

    /// Paper Figure 6(e), example 3: the first loop is already a reuse
    /// region (the supplementary `Cp_0`/`Cc_0` case): `C1, H1, C2` with
    /// input-relevant dims {Ho, Wo, Ci}.
    #[test]
    fn a_l1_example_3_cc0() {
        let nest = LoopNest::new([l(Dim::Co, 6), l(Dim::Ho, 4), l(Dim::Co, 3)]);
        // Input footprints: constant 200 through Co, grows at Ho.
        let fp = [200, 200, 900, 900];
        let bps = c3p_breakpoints(&nest, &fp, Dim::input_relevant);
        assert_eq!(
            bps,
            vec![
                Breakpoint {
                    min_capacity_bits: 200,
                    multiplier: 6
                },
                Breakpoint {
                    min_capacity_bits: 900,
                    multiplier: 3
                },
            ]
        );
    }

    /// Paper Figure 6(f), example 4: a "bad case" where `Cc_1` contributes
    /// no reuse because two relevant loops are adjacent — locality only
    /// materializes above `Cc_2`.
    #[test]
    fn a_l1_example_4_adjacent_critical_positions() {
        let nest = LoopNest::new([
            l(Dim::Ho, 4), // relevant: no region below
            l(Dim::Wo, 4), // relevant, adjacent
            l(Dim::Co, 5), // reuse region guarded by the full window
        ]);
        let fp = [100, 350, 1200, 1200];
        let bps = c3p_breakpoints(&nest, &fp, Dim::input_relevant);
        assert_eq!(
            bps,
            vec![Breakpoint {
                min_capacity_bits: 1200,
                multiplier: 5
            }]
        );
    }

    #[test]
    fn all_relevant_nest_has_no_breakpoints() {
        let nest = LoopNest::new([l(Dim::Ho, 2), l(Dim::Wo, 2)]);
        let fp = [10, 20, 40];
        assert!(c3p_breakpoints(&nest, &fp, Dim::input_relevant).is_empty());
    }

    #[test]
    fn empty_nest_is_fine() {
        let nest = LoopNest::new([]);
        assert!(c3p_breakpoints(&nest, &[42], Dim::weight_relevant).is_empty());
    }

    #[test]
    #[should_panic(expected = "align")]
    fn misaligned_footprints_panic() {
        let nest = LoopNest::new([l(Dim::Ho, 2)]);
        let _ = c3p_breakpoints(&nest, &[1], Dim::input_relevant);
    }

    /// The region walk written out on its own, sharing no code with
    /// [`walk_regions`]: the differential checks below compare every fold
    /// against it, so a bug in the shared loop cannot show up on both
    /// sides.
    fn independent_breakpoints(
        loops: &[Loop],
        fp: &[u64],
        relevant: impl Fn(Dim) -> bool,
    ) -> Vec<Breakpoint> {
        let mut out = Vec::new();
        let mut region_mult: u64 = 1;
        let mut region_cc: u64 = 0;
        for (i, l) in loops.iter().enumerate() {
            if relevant(l.dim) {
                if region_mult > 1 {
                    out.push(Breakpoint {
                        min_capacity_bits: region_cc,
                        multiplier: region_mult,
                    });
                }
                region_mult = 1;
            } else {
                if region_mult == 1 {
                    region_cc = fp[i];
                }
                region_mult = region_mult.saturating_mul(l.count);
            }
        }
        if region_mult > 1 {
            out.push(Breakpoint {
                min_capacity_bits: region_cc,
                multiplier: region_mult,
            });
        }
        out
    }

    /// `c3p_breakpoints` and the staircase's steps must equal the
    /// independent walk's breakpoints; the staircase's sorted view must
    /// equal the `AccessProfile` built from them, and its read must equal
    /// that profile's `multiplier(cap)` at every capacity that could matter
    /// (all footprint values, one below, one above, zero, and `u64::MAX`).
    fn assert_streaming_matches(
        loops: Vec<Loop>,
        fp: Vec<u64>,
        relevant: impl Fn(Dim) -> bool + Copy,
    ) {
        let nest = LoopNest::new(loops.clone());
        // c3p_breakpoints aligns with the *filtered* nest; feed it loops
        // that are already non-unit so both paths see the same positions.
        assert_eq!(nest.len(), loops.len(), "test nests must be non-unit");
        let want_bps = independent_breakpoints(&loops, &fp, relevant);
        assert_eq!(c3p_breakpoints(&nest, &fp, relevant), want_bps, "fp {fp:?}");
        let [stairs] = Staircase::walk(&loops, |i| [fp[i]], relevant);
        let pairs = |bps: &[Breakpoint]| -> Vec<(u64, u64)> {
            bps.iter()
                .map(|b| (b.min_capacity_bits, b.multiplier))
                .collect()
        };
        assert_eq!(&stairs.steps[..stairs.len], pairs(&want_bps), "fp {fp:?}");
        let profile = AccessProfile::new(1, want_bps);
        assert_eq!(
            stairs.sorted().collect::<Vec<_>>(),
            pairs(profile.breakpoints()),
            "sorted view: fp {fp:?}"
        );
        let mut caps: Vec<u64> = fp.clone();
        caps.extend(fp.iter().map(|&c| c.saturating_sub(1)));
        caps.extend(fp.iter().map(|&c| c.saturating_add(1)));
        caps.push(0);
        caps.push(u64::MAX);
        for cap in caps {
            let want = profile.multiplier(cap);
            assert_eq!(stairs.at(cap), want, "staircase: cap {cap} fp {fp:?}");
        }
    }

    #[test]
    fn streaming_multiplier_matches_profile_on_figure_6_examples() {
        assert_streaming_matches(
            vec![l(Dim::Co, 4), l(Dim::Wo, 3), l(Dim::Ho, 5), l(Dim::Co, 2)],
            vec![100, 400, 400, 400, 800],
            Dim::weight_relevant,
        );
        assert_streaming_matches(
            vec![l(Dim::Co, 4), l(Dim::Co, 2), l(Dim::Wo, 3), l(Dim::Ho, 5)],
            vec![100, 400, 800, 800, 800],
            Dim::weight_relevant,
        );
        assert_streaming_matches(
            vec![l(Dim::Co, 6), l(Dim::Ho, 4), l(Dim::Co, 3)],
            vec![200, 200, 900, 900],
            Dim::input_relevant,
        );
        assert_streaming_matches(
            vec![l(Dim::Ho, 4), l(Dim::Wo, 4), l(Dim::Co, 5)],
            vec![100, 350, 1200, 1200],
            Dim::input_relevant,
        );
    }

    /// The deepest mapping nest (seven loops) alternating reuse and
    /// critical loops has the most regions a staircase holds.
    #[test]
    fn seven_loop_nest_fills_the_staircase() {
        let loops = vec![
            l(Dim::Co, 2),
            l(Dim::Ho, 3),
            l(Dim::Co, 4),
            l(Dim::Wo, 5),
            l(Dim::Co, 6),
            l(Dim::Ci, 7),
            l(Dim::Co, 8),
        ];
        let fp = vec![10, 20, 20, 30, 30, 40, 40, 50];
        let [stairs] = Staircase::walk(&loops, |i| [fp[i]], Dim::input_relevant);
        assert_eq!(stairs.len, MAX_REGIONS);
        assert_streaming_matches(loops, fp, Dim::input_relevant);
    }

    #[test]
    fn streaming_multiplier_matches_profile_on_generated_nests() {
        // Deterministic pseudo-random nests: every dim pattern x footprint
        // growth pattern, up to 6 loops deep.
        let dims = [Dim::Co, Dim::Ho, Dim::Wo, Dim::Ci, Dim::Kh, Dim::Kw];
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let depth = (next() % 6 + 1) as usize;
            let loops: Vec<Loop> = (0..depth)
                .map(|_| l(dims[(next() % 6) as usize], next() % 7 + 2))
                .collect();
            let mut fp = vec![next() % 1000 + 1];
            for i in 0..depth {
                let grow = next() % 4;
                fp.push(fp[i] + grow * (next() % 500));
            }
            // The home-slice rule's table: footprints above a cut divided
            // by the chiplet count, which can leave the walk out of
            // capacity order.
            let sliced = fp
                .iter()
                .enumerate()
                .map(|(i, &v)| if i > depth / 2 { v / 4 } else { v })
                .collect();
            assert_streaming_matches(loops.clone(), sliced, Dim::input_relevant);
            assert_streaming_matches(loops.clone(), fp.clone(), Dim::input_relevant);
            assert_streaming_matches(loops, fp, Dim::weight_relevant);
        }
    }
}
