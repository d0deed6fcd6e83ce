//! Planar tiling geometry: halo regions and redundant input access.
//!
//! When a feature-map plane is partitioned into tiles mapped to different
//! chiplets or cores, each tile must load its full input window, and whenever
//! the convolution stride is smaller than the kernel the windows of adjacent
//! tiles overlap (the *halo* region). Section IV-C of the paper quantifies
//! the resulting redundant memory access (Figure 7) and the DRAM sharing
//! conflict of different partition patterns (Figure 8). This module is the
//! exact geometry behind both figures.

use serde::{Deserialize, Serialize};

use crate::layer::ConvSpec;

/// A balanced `rows x cols` partition of an output plane.
///
/// Each axis is split into parts whose sizes differ by at most one (the first
/// `extent % parts` tiles get the extra element), which is how a real
/// workload scheduler would balance non-divisible extents.
///
/// ```
/// use baton_model::PlanarGrid;
///
/// let grid = PlanarGrid::new(2, 4);
/// let splits = grid.row_splits(7);
/// assert_eq!(splits, vec![(0, 4), (4, 3)]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PlanarGrid {
    rows: u32,
    cols: u32,
}

impl PlanarGrid {
    /// Creates a grid with the given tile counts along H and W.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(rows: u32, cols: u32) -> Self {
        assert!(rows > 0 && cols > 0, "grid must have positive extents");
        Self { rows, cols }
    }

    /// Tile count along the H (row) axis.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Tile count along the W (column) axis.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Total tile count.
    pub fn tiles(&self) -> u32 {
        self.rows * self.cols
    }

    /// Aspect skew of the grid: `max(rows, cols) / min(rows, cols)`.
    ///
    /// A 1:1 ("square") pattern has skew 1; a 1:4 rectangle has skew 4; a
    /// stripe pattern has skew equal to the tile count.
    pub fn skew(&self) -> u32 {
        self.rows.max(self.cols) / self.rows.min(self.cols).max(1)
    }

    /// Balanced split of `extent` output positions into `self.rows` parts,
    /// returned as `(start, len)` pairs. Parts beyond `extent` are empty and
    /// omitted.
    pub fn row_splits(&self, extent: u32) -> Vec<(u32, u32)> {
        balanced_split(extent, self.rows)
    }

    /// Balanced split along the W axis; see [`PlanarGrid::row_splits`].
    pub fn col_splits(&self, extent: u32) -> Vec<(u32, u32)> {
        balanced_split(extent, self.cols)
    }

    /// All factor-pair grids `(rows, cols)` with `rows * cols == n`.
    ///
    /// This is the pattern candidate set the mapping engine sweeps
    /// ("partition patterns with different height-width ratios",
    /// Section V-C).
    /// The grids come in ascending `(rows, cols)` order, without
    /// allocating.
    pub fn factor_grids(n: u32) -> impl Iterator<Item = PlanarGrid> + Clone {
        // Row counts up to `sqrt(n)`, then their cofactors, descending.
        let low = (1..=n.isqrt()).filter(move |&d| n.is_multiple_of(d));
        let high = low
            .clone()
            .rev()
            .filter(move |&d| d * d != n)
            .map(move |d| n / d);
        low.chain(high)
            .map(move |rows| PlanarGrid::new(rows, n / rows))
    }

    /// The most square factor grid for `n` tiles (minimal skew; ties broken
    /// toward more rows).
    pub fn squarest(n: u32) -> PlanarGrid {
        Self::factor_grids(n)
            .min_by_key(|g| (g.skew(), g.rows))
            .expect("n > 0 always yields at least the 1 x n grid")
    }
}

/// Balanced split of `extent` into at most `parts` non-empty `(start, len)`
/// ranges.
fn balanced_split(extent: u32, parts: u32) -> Vec<(u32, u32)> {
    let parts = parts.min(extent.max(1));
    let base = extent / parts;
    let rem = extent % parts;
    let mut out = Vec::with_capacity(parts as usize);
    let mut start = 0;
    for i in 0..parts {
        let len = base + u32::from(i < rem);
        if len == 0 {
            break;
        }
        out.push((start, len));
        start += len;
    }
    out
}

/// The input footprint of one output tile, in real (non-padding) elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InputWindow {
    /// Real input rows touched.
    pub rows: u32,
    /// Real input columns touched.
    pub cols: u32,
}

impl InputWindow {
    /// Window area in elements (one channel).
    pub fn area(&self) -> u64 {
        u64::from(self.rows) * u64::from(self.cols)
    }
}

/// Result of a redundant-access analysis for one layer and grid (Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Redundancy {
    /// Total input elements fetched across all tiles (all channels).
    pub fetched_elems: u64,
    /// Unique input elements actually touched by the whole output plane.
    pub unique_elems: u64,
}

impl Redundancy {
    /// Extra access fraction: `fetched / unique - 1`.
    ///
    /// A value of `6.5` corresponds to the paper's "650 % memory access
    /// increase" for ResNet-50 conv1 under fine stripe partitioning.
    ///
    /// Halo overhead is meaningful when `stride <= kernel`; for subsampling
    /// layers (stride larger than the kernel) tiling skips input between
    /// windows and this ratio can legitimately be negative.
    pub fn overhead(&self) -> f64 {
        if self.unique_elems == 0 {
            return 0.0;
        }
        self.fetched_elems as f64 / self.unique_elems as f64 - 1.0
    }
}

/// Computes the input-fetch redundancy of partitioning `layer`'s output plane
/// with `grid`, assuming every tile independently loads its clipped input
/// window (all `ci` channels).
///
/// ```
/// use baton_model::{planar_redundancy, ConvSpec, PlanarGrid};
///
/// let layer = ConvSpec::new("c", 16, 16, 1, 3, 1, 1, 1).unwrap();
/// // A single tile fetches exactly the unique input: no redundancy.
/// let r = planar_redundancy(&layer, PlanarGrid::new(1, 1));
/// assert_eq!(r.overhead(), 0.0);
/// // Splitting creates halo overlap.
/// let r = planar_redundancy(&layer, PlanarGrid::new(4, 4));
/// assert!(r.overhead() > 0.0);
/// ```
pub fn planar_redundancy(layer: &ConvSpec, grid: PlanarGrid) -> Redundancy {
    let row_splits = grid.row_splits(layer.ho());
    let col_splits = grid.col_splits(layer.wo());
    let mut fetched_plane: u64 = 0;
    for &(oy0, th) in &row_splits {
        let rows = u64::from(layer.clipped_input_rows(oy0, th));
        for &(ox0, tw) in &col_splits {
            let cols = u64::from(layer.clipped_input_cols(ox0, tw));
            fetched_plane += rows * cols;
        }
    }
    let unique_plane = u64::from(layer.clipped_input_rows(0, layer.ho()))
        * u64::from(layer.clipped_input_cols(0, layer.wo()));
    let ci = u64::from(layer.ci());
    Redundancy {
        fetched_elems: fetched_plane * ci,
        unique_elems: unique_plane * ci,
    }
}

/// Maximum number of tiles whose input windows overlap on any single input
/// element (the DRAM access-conflict degree of Figure 8).
///
/// For axis-aligned windows the maximum over the plane factors into the
/// per-axis maxima, so this runs in `O(rows + cols + hi + wi)`.
pub fn max_sharing_degree(layer: &ConvSpec, grid: PlanarGrid) -> u32 {
    let row_deg = axis_sharing_degree(
        &grid.row_splits(layer.ho()),
        layer.stride_h(),
        layer.kh(),
        layer.pad_h(),
        layer.hi(),
    );
    let col_deg = axis_sharing_degree(
        &grid.col_splits(layer.wo()),
        layer.stride_w(),
        layer.kw(),
        layer.pad_w(),
        layer.wi(),
    );
    row_deg * col_deg
}

fn axis_sharing_degree(
    splits: &[(u32, u32)],
    stride: u32,
    kernel: u32,
    pad: u32,
    input: u32,
) -> u32 {
    let mut cover = vec![0u32; input as usize];
    for &(o0, len) in splits {
        let start = (i64::from(o0) * i64::from(stride) - i64::from(pad)).max(0);
        let end = ((i64::from(o0) + i64::from(len) - 1) * i64::from(stride) + i64::from(kernel)
            - i64::from(pad))
        .min(i64::from(input));
        for c in cover
            .iter_mut()
            .take(end.max(0) as usize)
            .skip(start as usize)
        {
            *c += 1;
        }
    }
    cover.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resnet_conv1_512() -> ConvSpec {
        ConvSpec::new("conv1", 512, 512, 3, 7, 2, 3, 64).unwrap()
    }

    fn vgg_conv_512() -> ConvSpec {
        ConvSpec::new("conv", 512, 512, 64, 3, 1, 1, 64).unwrap()
    }

    #[test]
    fn balanced_split_covers_exactly() {
        for extent in [1u32, 7, 56, 57, 224] {
            for parts in [1u32, 2, 3, 4, 8] {
                let s = balanced_split(extent, parts);
                let total: u32 = s.iter().map(|&(_, l)| l).sum();
                assert_eq!(total, extent, "extent {extent} parts {parts}");
                // Contiguous, non-overlapping.
                let mut cursor = 0;
                for &(start, len) in &s {
                    assert_eq!(start, cursor);
                    assert!(len > 0);
                    cursor = start + len;
                }
                // Balanced within one element.
                let min = s.iter().map(|&(_, l)| l).min().unwrap();
                let max = s.iter().map(|&(_, l)| l).max().unwrap();
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn more_parts_than_extent_yields_extent_parts() {
        let s = balanced_split(3, 8);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn factor_grids_enumerate_all_pairs() {
        let grids: Vec<_> = PlanarGrid::factor_grids(16).collect();
        assert_eq!(grids.len(), 5); // 1x16, 2x8, 4x4, 8x2, 16x1
        assert!(grids.contains(&PlanarGrid::new(4, 4)));
        assert_eq!(PlanarGrid::squarest(16), PlanarGrid::new(4, 4));
        assert_eq!(PlanarGrid::squarest(8).skew(), 2);
    }

    #[test]
    fn single_tile_has_no_redundancy() {
        let r = planar_redundancy(&resnet_conv1_512(), PlanarGrid::new(1, 1));
        assert_eq!(r.fetched_elems, r.unique_elems);
    }

    #[test]
    fn square_beats_stripe_on_redundancy() {
        // Paper Figure 7: with equal tile counts, the square pattern has less
        // redundant access than the stripe/rectangle one.
        let layer = resnet_conv1_512();
        let square = planar_redundancy(&layer, PlanarGrid::new(4, 4));
        let stripe = planar_redundancy(&layer, PlanarGrid::new(16, 1));
        assert!(square.overhead() < stripe.overhead());
    }

    #[test]
    fn large_kernel_layer_has_more_redundancy_than_3x3() {
        // Paper Figure 7: 7x7/s2 conv1 shows higher extra access than the
        // 3x3/s1 VGG layer under the same pattern.
        let grid = PlanarGrid::new(8, 8);
        let big = planar_redundancy(&resnet_conv1_512(), grid);
        let small = planar_redundancy(&vgg_conv_512(), grid);
        assert!(big.overhead() > small.overhead());
    }

    #[test]
    fn fine_stripe_partition_of_conv1_exceeds_600_percent() {
        // Paper: "up to 650 % memory access increase" for the 7x7/s2 layer.
        // A fine stripe partition of the 256-row output plane reproduces the
        // blow-up: each 1-row stripe loads 7 input rows but unique rows
        // advance by only 2.
        let layer = resnet_conv1_512();
        let r = planar_redundancy(&layer, PlanarGrid::new(256, 1));
        assert!(r.overhead() > 2.0, "overhead {}", r.overhead());
        let r2 = planar_redundancy(&layer, PlanarGrid::new(256, 256));
        assert!(r2.overhead() > 6.0, "overhead {}", r2.overhead());
    }

    #[test]
    fn redundancy_shrinks_with_larger_tiles() {
        // Paper Figure 7: the square-vs-rectangle gap and the total overhead
        // shrink as tiles grow.
        let layer = vgg_conv_512();
        let fine = planar_redundancy(&layer, PlanarGrid::new(32, 32));
        let coarse = planar_redundancy(&layer, PlanarGrid::new(4, 4));
        assert!(coarse.overhead() < fine.overhead());
    }

    #[test]
    fn sharing_degree_square_vs_rectangle() {
        // Paper Figure 8: a 2x2 (square) package split creates a central
        // region shared by 4 chiplets; a 4x1 rectangle split caps sharing
        // at 2.
        let layer = vgg_conv_512();
        assert_eq!(max_sharing_degree(&layer, PlanarGrid::new(2, 2)), 4);
        assert_eq!(max_sharing_degree(&layer, PlanarGrid::new(4, 1)), 2);
        assert_eq!(max_sharing_degree(&layer, PlanarGrid::new(1, 4)), 2);
    }

    #[test]
    fn sharing_degree_is_one_without_halo() {
        // Stride == kernel: disjoint windows, no sharing.
        let layer = ConvSpec::new("pool-like", 64, 64, 8, 2, 2, 0, 8).unwrap();
        assert_eq!(max_sharing_degree(&layer, PlanarGrid::new(4, 4)), 1);
    }

    #[test]
    fn redundancy_overhead_zero_for_unit_kernel() {
        // 1x1 kernels never overlap.
        let layer = ConvSpec::pointwise("pw", 64, 64, 32, 64).unwrap();
        let r = planar_redundancy(&layer, PlanarGrid::new(8, 8));
        assert_eq!(r.overhead(), 0.0);
    }
}
