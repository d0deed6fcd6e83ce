//! The candidate space against its expansions and a reference enumerator,
//! on generated layers, machines and options.
//!
//! A search walks a [`CandidateSpace`] by index and decodes only the
//! candidates it prices; the sweep and the public enumeration entry points
//! expand the same space through [`visit_candidates`]. Both must see one
//! candidate set: for every index, the space's mapping and geometry id
//! equal the visitor's stream, and so do the enumeration totals and the
//! three enumeration counters. Both are held to a build-then-dedup
//! reference written from the canonical order's definition. Its own
//! binary, with one test: the counters are process-global.

use std::collections::HashSet;

use baton_arch::{ChipletConfig, CoreConfig, PackageConfig};
use baton_mapping::enumerate::{
    chiplet_options, core_plane_for, package_options, visit_candidates, CandidateSpace,
    EnumOptions, Slot,
};
use baton_mapping::{
    ChipletPartition, Mapping, PackagePartition, RotationMode, TemporalOrder, Tile,
};
use baton_model::ConvSpec;
use baton_telemetry::{counters, Counter};
use proptest::prelude::*;

/// Random layers: plain convolutions (strides up to 4, so also stride >
/// kernel), depthwise convolutions, and fully-connected layers down to the
/// thin heads that take the enumerator's fallback. The shapes of the
/// geometry memo's proptest in `baton-c3p`.
fn layers() -> impl Strategy<Value = ConvSpec> {
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
                // 1 to 12 outputs: below the chiplet count, a head has no
                // legal partition and takes the fallback geometry.
                _ => ConvSpec::fully_connected("fc", ci * 5, co % 12 + 1),
            }
            .ok()
        })
}

/// Random machines: 1 to 8 chiplets (one chiplet skips the inert DramOnly
/// twin), 1 to 16 cores (hybrid chiplet partitions from 4 cores up), and
/// other lane and vector widths.
fn machines() -> impl Strategy<Value = PackageConfig> {
    (0usize..4, 0usize..5, 0usize..3, 0usize..3, 1u64..=4).prop_map(|(np, nc, l, p, scale)| {
        let core = CoreConfig::new(
            [4, 8, 16][l],
            [4, 8, 16][p],
            1536,
            800 * scale,
            18 * 1024 * scale,
        );
        let chiplet = ChipletConfig::new([1, 2, 4, 8, 16][nc], core, 64 * 1024 * scale, 64 * 1024);
        PackageConfig::new([1, 2, 4, 8][np], chiplet)
    })
}

/// The default options, each single rotation, and both rotations listed
/// out of key order.
fn options() -> impl Strategy<Value = EnumOptions> {
    const SETS: [&[RotationMode]; 4] = [
        &[RotationMode::Ring, RotationMode::DramOnly],
        &[RotationMode::Ring],
        &[RotationMode::DramOnly],
        &[RotationMode::DramOnly, RotationMode::Ring],
    ];
    (0usize..SETS.len()).prop_map(|i| EnumOptions {
        rotations: SETS[i],
        ..EnumOptions::default()
    })
}

/// The canonical order: package, chiplet partition, temporal-order combo,
/// tile, core plane, rotation, each ascending.
fn key(m: &Mapping) -> impl Ord {
    let package = match m.package {
        PackagePartition::Channel => (0, 0, 0),
        PackagePartition::Planar(g) => (1, g.rows(), g.cols()),
    };
    let chiplet = match m.chiplet {
        ChipletPartition::Channel => (0, 0, 0, 0),
        ChipletPartition::Planar(g) => (1, 0, g.rows(), g.cols()),
        ChipletPartition::Hybrid { channel_ways, grid } => {
            (2, channel_ways, grid.rows(), grid.cols())
        }
    };
    let plane_first = |o| o == TemporalOrder::PlanePriority;
    let t = m.chiplet_tile;
    (
        (package, chiplet),
        (plane_first(m.package_order), plane_first(m.chiplet_order)),
        ((t.ho, t.wo, t.co), m.core_plane),
        m.rotation == RotationMode::DramOnly,
    )
}

/// The candidate set as a plain enumerator builds it: every ladder tile
/// that passes the structural filter, crossed with every order combo and
/// rotation (no DramOnly twin on one chiplet), sorted by [`key`] and
/// deduplicated, else the thin-layer fallback; geometry ids numbered by
/// first appearance. Returns it with the three enumeration counters'
/// values.
fn reference(
    layer: &ConvSpec,
    arch: &PackageConfig,
    opts: EnumOptions,
) -> (Vec<(u32, Mapping)>, [u64; 3]) {
    let (n_p, n_c) = (arch.chiplets, arch.chiplet.cores);
    let (ho, wo, co) = (layer.ho(), layer.wo(), layer.co());
    let with_orders = |out: &mut Vec<Mapping>, m: Mapping, rotations: &[RotationMode]| {
        for package_order in TemporalOrder::ALL {
            for chiplet_order in TemporalOrder::ALL {
                for &rotation in rotations {
                    out.push(Mapping {
                        package_order,
                        chiplet_order,
                        rotation,
                        ..m
                    });
                }
            }
        }
    };
    let rotations: Vec<RotationMode> = opts
        .rotations
        .iter()
        .copied()
        .filter(|&r| n_p > 1 || r == RotationMode::Ring)
        .collect();
    let (mut raw, mut rejected) = (Vec::new(), 0u64);
    for package in package_options(layer, n_p) {
        let (h, w, c) = match package {
            PackagePartition::Channel => (ho, wo, co.div_ceil(n_p)),
            PackagePartition::Planar(g) => (ho.div_ceil(g.rows()), wo.div_ceil(g.cols()), co),
        };
        for chiplet in chiplet_options(n_c) {
            for &fh in opts.plane_fractions {
                for &fw in opts.plane_fractions {
                    for &fc in opts.co_fractions {
                        let tile = Tile::new(
                            h.div_ceil(fh).max(1),
                            w.div_ceil(fw).max(1),
                            c.div_ceil(fc).max(1),
                        );
                        let fits = match chiplet {
                            ChipletPartition::Channel => tile.co >= n_c,
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
                            rejected += 1;
                            continue;
                        }
                        let m = Mapping {
                            package,
                            chiplet,
                            package_order: TemporalOrder::ALL[0],
                            chiplet_order: TemporalOrder::ALL[0],
                            chiplet_tile: tile,
                            core_plane: core_plane_for(layer, arch, &chiplet, tile),
                            rotation: RotationMode::Ring,
                        };
                        with_orders(&mut raw, m, &rotations);
                    }
                }
            }
        }
    }
    let raw_len = raw.len();
    raw.sort_by_key(key);
    raw.dedup();
    let deduped = (raw_len - raw.len()) as u64;
    if raw.is_empty() {
        let tile = Tile::new(ho, wo, co.max(1));
        let chiplet = ChipletPartition::Channel;
        let m = Mapping {
            package: PackagePartition::Channel,
            chiplet,
            package_order: TemporalOrder::ALL[0],
            chiplet_order: TemporalOrder::ALL[0],
            chiplet_tile: tile,
            core_plane: core_plane_for(layer, arch, &chiplet, tile),
            rotation: RotationMode::Ring,
        };
        with_orders(&mut raw, m, opts.rotations);
        raw.sort_by_key(key);
    }
    let mut ids = Vec::new();
    let numbered = raw
        .iter()
        .map(|m| {
            let geom = (m.package, m.chiplet, m.chiplet_tile);
            let id = ids.iter().position(|&g| g == geom).unwrap_or_else(|| {
                ids.push(geom);
                ids.len() - 1
            });
            (id as u32, *m)
        })
        .collect();
    (numbered, [raw.len() as u64, deduped, rejected])
}

const ENUM_COUNTERS: [Counter; 3] = [
    Counter::CandidatesGenerated,
    Counter::CandidatesDeduped,
    Counter::CandidatesStructurallyRejected,
];

/// The enumeration counters `f` bumps.
fn counted(f: impl FnOnce()) -> [u64; 3] {
    let before = counters::snapshot();
    f();
    let delta = counters::snapshot().since(&before);
    ENUM_COUNTERS.map(|c| delta.get(c))
}

fn check(layer: &ConvSpec, arch: &PackageConfig, opts: EnumOptions, chunk: usize, start: usize) {
    let mut space = CandidateSpace::default();
    let mut stats = None;
    let filled = counted(|| stats = Some(space.fill(layer, arch, opts)));
    let stats = stats.unwrap();
    let mut stream: Vec<(u32, Mapping)> = Vec::new();
    let mut visited = None;
    let visits = counted(|| {
        visited = Some(visit_candidates(layer, arch, opts, |g, m| {
            stream.push((g, m))
        }));
    });

    let (want, want_counts) = reference(layer, arch, opts);
    assert_eq!(stream, want);
    assert_eq!((filled, visits), (want_counts, want_counts));
    assert_eq!(Some(stats), visited);
    assert!(stats.emitted > 0, "every layer maps somewhere");
    assert_eq!(stream.len(), stats.emitted);
    let ids: HashSet<u32> = stream.iter().map(|&(g, _)| g).collect();
    assert_eq!(ids.len(), stats.geoms);

    // Every index decodes by arithmetic to the visitor's candidate.
    let slot = |i: usize| space.slots(i..i + 1).next().unwrap();
    for (i, &(geom, m)) in stream.iter().enumerate() {
        let s = slot(i);
        assert_eq!(
            (s.geom, s.rotation, space.mapping(s)),
            (geom, m.rotation, m)
        );
    }
    // A walk from any index continues the same stream.
    let start = start % stats.emitted;
    let walked: Vec<(u32, Mapping)> = space
        .slots(start..stats.emitted)
        .map(|s| (s.geom, space.mapping(s)))
        .collect();
    assert_eq!(walked, stream[start..]);

    // `touched` yields each `(geometry, rotation)` pair of a chunk once,
    // as its first candidate there.
    for lo in (0..stats.emitted).step_by(chunk) {
        let range = lo..(lo + chunk).min(stats.emitted);
        let mut seen = HashSet::new();
        let want: Vec<Slot> = range
            .clone()
            .map(slot)
            .filter(|s| seen.insert((s.geom, s.rotation)))
            .collect();
        let got: Vec<Slot> = space.touched(range.clone()).collect();
        assert_eq!(got, want, "{range:?}");
        // Run positions, offset by the runs before, are the candidates'
        // indices.
        let mut first = range.start;
        for run in space.runs(range.clone()) {
            for pair in run.pairs() {
                assert_eq!(run.slot(pair), slot(first + run.position(pair)));
            }
            first += run.pairs().len();
        }
        assert_eq!(first, range.end);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn space_and_visitor_agree_on_every_candidate_and_counter(
        layer in layers(),
        arch in machines(),
        opts in options(),
        chunk in 1usize..=400,
        start in 0usize..1 << 20,
    ) {
        let _session = baton_telemetry::attach_with_sink(&Default::default(), None);
        check(&layer, &arch, opts, chunk, start);
    }
}
