//! Partition-pattern selection (Section IV-C of the paper).
//!
//! With the same number of tiles, the aspect ratio of a planar partition
//! changes both the redundant halo access (Figure 7) and the DRAM sharing
//! conflict (Figure 8). The paper's conclusions, which this module encodes
//! as a reusable policy:
//!
//! * **temporal tiles** (many, small): prefer the *square* pattern — it
//!   minimizes halo perimeter per tile;
//! * **package-level spatial tiles** (only `N_P` of them): prefer the
//!   *rectangle/stripe* pattern — it caps the number of chiplets sharing any
//!   halo region at two, avoiding DRAM access conflicts, at a small
//!   redundancy cost.

use baton_model::{max_sharing_degree, planar_redundancy, ConvSpec, PlanarGrid};
use serde::{Deserialize, Serialize};

/// Where a planar partition is applied, which decides the preference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PatternContext {
    /// The package-level spatial primitive (N_P tiles, DRAM-conflict bound).
    PackageSpatial,
    /// The chiplet-level spatial primitive (on-chip, flexible control).
    ChipletSpatial,
    /// Temporal tiling (many small tiles).
    Temporal,
}

/// Picks the preferred grid for `tiles` partitions of `layer`'s output plane
/// in the given context, following the Section IV-C policy.
pub fn preferred_grid(layer: &ConvSpec, tiles: u32, context: PatternContext) -> PlanarGrid {
    match context {
        PatternContext::Temporal | PatternContext::ChipletSpatial => {
            // Square minimizes halo perimeter; among the candidates with
            // minimal redundancy pick the squarest.
            best_by_redundancy(layer, tiles)
        }
        PatternContext::PackageSpatial => {
            // Cap the sharing degree first (DRAM conflicts), then minimize
            // redundancy among the remaining grids.
            let grids = PlanarGrid::factor_grids(tiles);
            let min_sharing = grids
                .clone()
                .map(|g| max_sharing_degree(layer, g))
                .min()
                .unwrap_or(1);
            grids
                .filter(|&g| max_sharing_degree(layer, g) == min_sharing)
                .min_by(|&a, &b| {
                    planar_redundancy(layer, a)
                        .overhead()
                        .total_cmp(&planar_redundancy(layer, b).overhead())
                })
                .expect("factor grids are never empty")
        }
    }
}

fn best_by_redundancy(layer: &ConvSpec, tiles: u32) -> PlanarGrid {
    PlanarGrid::factor_grids(tiles)
        .min_by(|&a, &b| {
            planar_redundancy(layer, a)
                .overhead()
                .total_cmp(&planar_redundancy(layer, b).overhead())
                .then(a.skew().cmp(&b.skew()))
        })
        .expect("factor grids are never empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big_layer() -> ConvSpec {
        ConvSpec::new("c", 256, 256, 16, 3, 1, 1, 32).unwrap()
    }

    #[test]
    fn temporal_tiles_prefer_square() {
        let g = preferred_grid(&big_layer(), 16, PatternContext::Temporal);
        assert_eq!(g.skew(), 1, "expected 4x4, got {}x{}", g.rows(), g.cols());
    }

    #[test]
    fn package_tiles_cap_the_sharing_degree() {
        // Figure 8: the 2x2 split shares halos among 4 chiplets; the policy
        // must pick a stripe/rectangle capping the degree at 2.
        let layer = big_layer();
        let g = preferred_grid(&layer, 4, PatternContext::PackageSpatial);
        assert!(max_sharing_degree(&layer, g) <= 2);
        assert_ne!((g.rows(), g.cols()), (2, 2));
    }

    #[test]
    fn pointwise_layers_are_indifferent_but_legal() {
        // 1x1 kernels have no halo: every grid has zero redundancy and unit
        // sharing; any answer is fine, but the call must not panic.
        let layer = ConvSpec::pointwise("pw", 64, 64, 8, 8).unwrap();
        let g = preferred_grid(&layer, 8, PatternContext::PackageSpatial);
        assert_eq!(g.tiles(), 8);
        assert_eq!(max_sharing_degree(&layer, g), 1);
    }

    #[test]
    fn chiplet_spatial_follows_the_temporal_preference() {
        let layer = big_layer();
        let a = preferred_grid(&layer, 16, PatternContext::ChipletSpatial);
        let b = preferred_grid(&layer, 16, PatternContext::Temporal);
        assert_eq!(a, b);
    }

    #[test]
    fn tall_planes_prefer_matching_grids() {
        // A plane much taller than wide: splitting rows is cheaper than
        // splitting columns for the same tile count.
        let layer = baton_model::ConvSpecBuilder::new("tall", 256, 32, 8, 8)
            .kernel(3, 3)
            .padding(1, 1)
            .build()
            .unwrap();
        let g = preferred_grid(&layer, 8, PatternContext::Temporal);
        assert!(g.rows() > g.cols(), "got {}x{}", g.rows(), g.cols());
    }
}
