//! O-L1 enters the candidate space only through [`core_plane_side`].
//!
//! Two machines that differ only in `o_l1_bytes` and share that side must
//! enumerate the same candidates, slot for slot and mapping for mapping,
//! and every candidate must decompose alike on both: the pre-design sweep
//! builds one candidate set per such class of O-L1 rungs and shares it.
//! When the side is 0 the O-L1 cannot hold one psum per lane, and every
//! candidate is an O-L1 overflow on both machines.

use baton_arch::{ChipletConfig, CoreConfig, PackageConfig};
use baton_mapping::enumerate::{core_plane_side, CandidateSpace, EnumOptions};
use baton_mapping::{mapping_geometry, MappingError};
use baton_model::ConvSpec;
use proptest::prelude::*;

/// Random convolutions, depthwise convolutions and fully-connected heads.
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
                _ => ConvSpec::fully_connected("fc", ci * 5, co % 12 + 1),
            }
            .ok()
        })
}

/// Random machines without their O-L1, which each case sets twice.
fn machines() -> impl Strategy<Value = PackageConfig> {
    (0usize..4, 0usize..5, 0usize..3, 0usize..3, 1u64..=4).prop_map(|(np, nc, l, p, scale)| {
        let core = CoreConfig::new(
            [4, 8, 16][l],
            [4, 8, 16][p],
            0,
            800 * scale,
            18 * 1024 * scale,
        );
        let chiplet = ChipletConfig::new([1, 2, 4, 8, 16][nc], core, 64 * 1024 * scale, 64 * 1024);
        PackageConfig::new([1, 2, 4, 8][np], chiplet)
    })
}

/// Two copies of a random machine with O-L1 sizes that share a core-plane
/// side: a pair from the Table II ladder or a size and a nearby one, from
/// below one psum per lane up.
fn machine_pairs() -> impl Strategy<Value = (PackageConfig, PackageConfig)> {
    const LADDER: [u64; 3] = [48, 96, 144];
    (
        machines(),
        0usize..2,
        (0usize..3, 0usize..3),
        1u64..=2048,
        0u64..=96,
    )
        .prop_filter_map(
            "the O-L1 sizes share a side",
            |(arch, kind, (i, j), o, d)| {
                let (o1, o2) = if kind == 0 {
                    (LADDER[i], LADDER[j])
                } else {
                    (o, o + d)
                };
                let (mut one, mut two) = (arch, arch);
                one.chiplet.core.o_l1_bytes = o1;
                two.chiplet.core.o_l1_bytes = o2;
                let side = core_plane_side(&one.chiplet.core);
                (side == core_plane_side(&two.chiplet.core)).then_some((one, two))
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn machines_sharing_a_core_plane_side_share_their_candidates(
        layer in layers(),
        machines in machine_pairs(),
    ) {
        let (one, two) = machines;
        let side = core_plane_side(&one.chiplet.core);
        let opts = EnumOptions::default();
        let (mut a, mut b) = (CandidateSpace::default(), CandidateSpace::default());
        let stats = a.fill(&layer, &one, opts);
        prop_assert_eq!(stats, b.fill(&layer, &two, opts));
        let (sa, sb): (Vec<_>, Vec<_>) =
            (a.slots(0..stats.emitted).collect(), b.slots(0..stats.emitted).collect());
        prop_assert_eq!(&sa, &sb);
        for &slot in &sa {
            let m = a.mapping(slot);
            prop_assert_eq!(m, b.mapping(slot));
            let (ga, gb) = (mapping_geometry(&layer, &one, &m), mapping_geometry(&layer, &two, &m));
            if side > 0 {
                prop_assert_eq!(ga, gb);
            } else {
                // The errors differ only in the slots each O-L1 offers.
                let required = |g| match g {
                    Err(MappingError::OL1Overflow { required, .. }) => Some(required),
                    _ => None,
                };
                let want = required(ga);
                prop_assert!(want.is_some());
                prop_assert_eq!(want, required(gb));
            }
        }
    }
}
