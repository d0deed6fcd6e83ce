//! Convolution layer shape descriptions.
//!
//! A *layer workload* in the paper is a complete `HO x WO x CO` output cube
//! consuming a 3-D input cube and a 4-D weight tensor (Figure 1), with batch
//! size fixed to one. [`ConvSpec`] captures exactly the tuple the analytical
//! framework needs and derives every volume and window quantity from it.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::datatype::{ACT_BITS, PSUM_BITS, WGT_BITS};

/// Classification of a layer workload.
///
/// All kinds are internally normalized to a convolution shape; the kind is
/// retained because the paper's case studies bucket layers this way
/// (activation-intensive / weight-intensive / large-kernel / point-wise /
/// common, Section V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerKind {
    /// Regular dense convolution.
    Conv,
    /// 1x1 convolution (point-wise). Fully-connected layers are reorganized
    /// into this kind for evaluation, following Section VI-A.
    Pointwise,
    /// Depthwise convolution (`groups == ci == co`). Not evaluated in the
    /// paper but needed for MobileNetV2 in the zoo.
    Depthwise,
}

impl fmt::Display for LayerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LayerKind::Conv => "conv",
            LayerKind::Pointwise => "pointwise",
            LayerKind::Depthwise => "depthwise",
        };
        f.write_str(s)
    }
}

/// Errors produced when constructing an invalid [`ConvSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeError {
    /// A dimension that must be strictly positive was zero.
    ZeroDimension(&'static str),
    /// The kernel (minus padding) does not fit in the input plane.
    KernelTooLarge {
        /// Padded input extent in the failing axis.
        padded_input: u32,
        /// Kernel extent in the failing axis.
        kernel: u32,
    },
    /// The padded input extent does not fit in 32 bits.
    PaddedInputTooLarge {
        /// Padded input extent in the failing axis.
        padded_input: u64,
    },
    /// A bit volume of the layer does not fit in 64 bits.
    VolumeTooLarge {
        /// Which volume: `input bits`, or `partial-sum bits` (MACs times
        /// the psum width, which bounds the weight and output bits).
        volume: &'static str,
    },
    /// `groups` does not divide both channel counts.
    BadGrouping {
        /// Input channel count.
        ci: u32,
        /// Output channel count.
        co: u32,
        /// Group count.
        groups: u32,
    },
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShapeError::ZeroDimension(name) => write!(f, "dimension `{name}` must be positive"),
            ShapeError::KernelTooLarge {
                padded_input,
                kernel,
            } => write!(
                f,
                "kernel extent {kernel} exceeds padded input extent {padded_input}"
            ),
            ShapeError::PaddedInputTooLarge { padded_input } => {
                write!(f, "padded input extent {padded_input} exceeds {}", u32::MAX)
            }
            ShapeError::VolumeTooLarge { volume } => write!(f, "{volume} exceed {}", u64::MAX),
            ShapeError::BadGrouping { ci, co, groups } => write!(
                f,
                "groups {groups} must divide both input channels {ci} and output channels {co}"
            ),
        }
    }
}

impl std::error::Error for ShapeError {}

/// Shape of a single convolution-like layer workload (batch size one).
///
/// Construct with [`ConvSpec::new`] for plain convolutions or via
/// [`ConvSpecBuilder`] when strides, padding or grouping differ per axis.
///
/// ```
/// use baton_model::ConvSpec;
///
/// // ResNet-50 conv1: 7x7 stride-2 convolution on a 224x224x3 input.
/// let conv1 = ConvSpec::new("conv1", 224, 224, 3, 7, 2, 3, 64).unwrap();
/// assert_eq!((conv1.ho(), conv1.wo()), (112, 112));
/// assert_eq!(conv1.macs(), 112 * 112 * 64 * 7 * 7 * 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvSpec {
    name: String,
    kind: LayerKind,
    hi: u32,
    wi: u32,
    ci: u32,
    kh: u32,
    kw: u32,
    stride_h: u32,
    stride_w: u32,
    pad_h: u32,
    pad_w: u32,
    co: u32,
    groups: u32,
}

impl ConvSpec {
    /// Creates a square-kernel, square-stride convolution.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if any dimension is zero or the kernel exceeds
    /// the padded input extent.
    #[allow(clippy::too_many_arguments)] // mirrors the standard conv tuple
    pub fn new(
        name: impl Into<String>,
        hi: u32,
        wi: u32,
        ci: u32,
        k: u32,
        stride: u32,
        pad: u32,
        co: u32,
    ) -> Result<Self, ShapeError> {
        ConvSpecBuilder::new(name, hi, wi, ci, co)
            .kernel(k, k)
            .stride(stride, stride)
            .padding(pad, pad)
            .build()
    }

    /// Creates a 1x1 point-wise layer (also used for reorganized FC layers).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if any dimension is zero.
    pub fn pointwise(
        name: impl Into<String>,
        hi: u32,
        wi: u32,
        ci: u32,
        co: u32,
    ) -> Result<Self, ShapeError> {
        ConvSpecBuilder::new(name, hi, wi, ci, co)
            .kernel(1, 1)
            .build()
    }

    /// Creates a fully-connected layer reorganized as a point-wise layer on a
    /// 1x1 feature map, following Section VI-A of the paper.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if a channel count is zero.
    pub fn fully_connected(
        name: impl Into<String>,
        in_features: u32,
        out_features: u32,
    ) -> Result<Self, ShapeError> {
        Self::pointwise(name, 1, 1, in_features, out_features)
    }

    /// Creates a depthwise convolution (`groups == ci == co`).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] on zero dimensions or an oversized kernel.
    pub fn depthwise(
        name: impl Into<String>,
        hi: u32,
        wi: u32,
        channels: u32,
        k: u32,
        stride: u32,
        pad: u32,
    ) -> Result<Self, ShapeError> {
        ConvSpecBuilder::new(name, hi, wi, channels, channels)
            .kernel(k, k)
            .stride(stride, stride)
            .padding(pad, pad)
            .groups(channels)
            .build()
    }

    /// Layer name (unique within a [`crate::Model`] by convention).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Layer kind bucket.
    pub fn kind(&self) -> LayerKind {
        self.kind
    }

    /// Input feature map height.
    pub fn hi(&self) -> u32 {
        self.hi
    }

    /// Input feature map width.
    pub fn wi(&self) -> u32 {
        self.wi
    }

    /// Input channel count.
    pub fn ci(&self) -> u32 {
        self.ci
    }

    /// Kernel height.
    pub fn kh(&self) -> u32 {
        self.kh
    }

    /// Kernel width.
    pub fn kw(&self) -> u32 {
        self.kw
    }

    /// Vertical stride.
    pub fn stride_h(&self) -> u32 {
        self.stride_h
    }

    /// Horizontal stride.
    pub fn stride_w(&self) -> u32 {
        self.stride_w
    }

    /// Vertical zero padding (each side).
    pub fn pad_h(&self) -> u32 {
        self.pad_h
    }

    /// Horizontal zero padding (each side).
    pub fn pad_w(&self) -> u32 {
        self.pad_w
    }

    /// Output channel count.
    pub fn co(&self) -> u32 {
        self.co
    }

    /// Convolution group count (1 for dense, `ci` for depthwise).
    pub fn groups(&self) -> u32 {
        self.groups
    }

    /// Input channels seen by one output channel (`ci / groups`).
    pub fn ci_per_group(&self) -> u32 {
        self.ci / self.groups
    }

    /// Output feature map height: `(hi + 2*pad_h - kh) / stride_h + 1`.
    pub fn ho(&self) -> u32 {
        (self.hi + 2 * self.pad_h - self.kh) / self.stride_h + 1
    }

    /// Output feature map width.
    pub fn wo(&self) -> u32 {
        (self.wi + 2 * self.pad_w - self.kw) / self.stride_w + 1
    }

    /// Total multiply-accumulate operations for the layer.
    pub fn macs(&self) -> u64 {
        u64::from(self.ho())
            * u64::from(self.wo())
            * u64::from(self.co)
            * u64::from(self.kh)
            * u64::from(self.kw)
            * u64::from(self.ci_per_group())
    }

    /// Number of weight elements (`kh * kw * ci/groups * co`).
    pub fn weight_elems(&self) -> u64 {
        u64::from(self.kh)
            * u64::from(self.kw)
            * u64::from(self.ci_per_group())
            * u64::from(self.co)
    }

    /// Number of input activation elements (`hi * wi * ci`, excluding
    /// padding, which costs no memory traffic).
    pub fn input_elems(&self) -> u64 {
        u64::from(self.hi) * u64::from(self.wi) * u64::from(self.ci)
    }

    /// Number of output elements (`ho * wo * co`).
    pub fn output_elems(&self) -> u64 {
        u64::from(self.ho()) * u64::from(self.wo()) * u64::from(self.co)
    }

    /// Weight volume in bits at the modelled arithmetic precision.
    pub fn weight_bits(&self) -> u64 {
        self.weight_elems() * WGT_BITS
    }

    /// Input activation volume in bits.
    pub fn input_bits(&self) -> u64 {
        self.input_elems() * ACT_BITS
    }

    /// Output activation volume in bits (after re-quantization to 8 bit).
    pub fn output_bits(&self) -> u64 {
        self.output_elems() * ACT_BITS
    }

    /// Whether the layer is activation-intensive (`input volume > weight
    /// volume`), the bucketing used in Section V-B.
    pub fn is_activation_intensive(&self) -> bool {
        self.input_elems() > self.weight_elems()
    }

    /// Input extent (one axis) needed to produce `tile_out` contiguous output
    /// positions: `(tile_out - 1) * stride + kernel`.
    ///
    /// This is the un-clipped sliding-window extent; it is the quantity that
    /// generates halo regions when adjacent planar tiles are mapped to
    /// different chiplets or cores.
    pub fn input_extent(tile_out: u32, stride: u32, kernel: u32) -> u32 {
        if tile_out == 0 {
            return 0;
        }
        (tile_out - 1) * stride + kernel
    }

    /// Number of *real* (non-padding) input rows touched by the output rows
    /// `[oy0, oy0 + tile_out)`, clipped to the input plane.
    pub fn clipped_input_rows(&self, oy0: u32, tile_out: u32) -> u32 {
        clipped_extent(oy0, tile_out, self.stride_h, self.kh, self.pad_h, self.hi)
    }

    /// Number of real input columns touched by the output columns
    /// `[ox0, ox0 + tile_out)`, clipped to the input plane.
    pub fn clipped_input_cols(&self, ox0: u32, tile_out: u32) -> u32 {
        clipped_extent(ox0, tile_out, self.stride_w, self.kw, self.pad_w, self.wi)
    }

    /// Returns a renamed clone; convenient when expanding repeated blocks in
    /// the model zoo.
    pub fn renamed(&self, name: impl Into<String>) -> Self {
        let mut out = self.clone();
        out.name = name.into();
        out
    }

    /// The layer's pure geometry, with the name stripped: two layers with
    /// equal shape keys map identically on any machine, which is what lets
    /// the search flows memoize per-shape results (CNNs repeat layer
    /// geometries heavily — ResNet's residual blocks, VGG's paired convs).
    pub fn shape_key(&self) -> ShapeKey {
        ShapeKey {
            kind: self.kind,
            hi: self.hi,
            wi: self.wi,
            ci: self.ci,
            kh: self.kh,
            kw: self.kw,
            stride_h: self.stride_h,
            stride_w: self.stride_w,
            pad_h: self.pad_h,
            pad_w: self.pad_w,
            co: self.co,
            groups: self.groups,
        }
    }
}

/// A [`ConvSpec`]'s geometry without its name: the memoization key of the
/// search caches (see [`ConvSpec::shape_key`]). Field-for-field it carries
/// everything that influences mapping, access counts, energy and runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShapeKey {
    kind: LayerKind,
    hi: u32,
    wi: u32,
    ci: u32,
    kh: u32,
    kw: u32,
    stride_h: u32,
    stride_w: u32,
    pad_h: u32,
    pad_w: u32,
    co: u32,
    groups: u32,
}

impl fmt::Display for ConvSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}x{}x{} -> {}x{}x{} ({}x{} k, s{}, p{}, {})",
            self.name,
            self.hi,
            self.wi,
            self.ci,
            self.ho(),
            self.wo(),
            self.co,
            self.kh,
            self.kw,
            self.stride_h,
            self.pad_h,
            self.kind
        )
    }
}

/// Real input extent (one axis) for output positions `[o0, o0+len)` given
/// stride/kernel/padding, clipped to `[0, input)`.
fn clipped_extent(o0: u32, len: u32, stride: u32, kernel: u32, pad: u32, input: u32) -> u32 {
    if len == 0 {
        return 0;
    }
    // In padded coordinates the window spans [o0*stride, (o0+len-1)*stride + kernel).
    let start = i64::from(o0) * i64::from(stride) - i64::from(pad);
    let end = (i64::from(o0) + i64::from(len) - 1) * i64::from(stride) + i64::from(kernel)
        - i64::from(pad);
    let start = start.max(0);
    let end = end.min(i64::from(input));
    (end - start).max(0) as u32
}

/// Builder for [`ConvSpec`] with per-axis strides, padding and grouping.
///
/// ```
/// use baton_model::ConvSpecBuilder;
///
/// let layer = ConvSpecBuilder::new("asym", 64, 32, 16, 32)
///     .kernel(3, 5)
///     .stride(1, 2)
///     .padding(1, 2)
///     .build()
///     .unwrap();
/// assert_eq!((layer.ho(), layer.wo()), (64, 16));
/// ```
#[derive(Debug, Clone)]
pub struct ConvSpecBuilder {
    name: String,
    hi: u32,
    wi: u32,
    ci: u32,
    co: u32,
    kh: u32,
    kw: u32,
    stride_h: u32,
    stride_w: u32,
    pad_h: u32,
    pad_w: u32,
    groups: u32,
}

impl ConvSpecBuilder {
    /// Starts a builder with mandatory plane and channel extents; kernel
    /// defaults to 1x1, stride to 1, padding to 0, groups to 1.
    pub fn new(name: impl Into<String>, hi: u32, wi: u32, ci: u32, co: u32) -> Self {
        Self {
            name: name.into(),
            hi,
            wi,
            ci,
            co,
            kh: 1,
            kw: 1,
            stride_h: 1,
            stride_w: 1,
            pad_h: 0,
            pad_w: 0,
            groups: 1,
        }
    }

    /// Sets the kernel extents.
    pub fn kernel(mut self, kh: u32, kw: u32) -> Self {
        self.kh = kh;
        self.kw = kw;
        self
    }

    /// Sets the strides.
    pub fn stride(mut self, sh: u32, sw: u32) -> Self {
        self.stride_h = sh;
        self.stride_w = sw;
        self
    }

    /// Sets the per-side zero padding.
    pub fn padding(mut self, ph: u32, pw: u32) -> Self {
        self.pad_h = ph;
        self.pad_w = pw;
        self
    }

    /// Sets the group count.
    pub fn groups(mut self, groups: u32) -> Self {
        self.groups = groups;
        self
    }

    /// Validates and builds the [`ConvSpec`].
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] for zero dimensions, a padded input extent
    /// beyond `u32::MAX`, kernels larger than the padded input, a group
    /// count that does not divide the channels, or element counts whose bit
    /// volumes overflow a `u64`.
    pub fn build(self) -> Result<ConvSpec, ShapeError> {
        for (v, name) in [
            (self.hi, "hi"),
            (self.wi, "wi"),
            (self.ci, "ci"),
            (self.co, "co"),
            (self.kh, "kh"),
            (self.kw, "kw"),
            (self.stride_h, "stride_h"),
            (self.stride_w, "stride_w"),
            (self.groups, "groups"),
        ] {
            if v == 0 {
                return Err(ShapeError::ZeroDimension(name));
            }
        }
        for (input, pad, kernel) in [
            (self.hi, self.pad_h, self.kh),
            (self.wi, self.pad_w, self.kw),
        ] {
            let padded = u64::from(input) + 2 * u64::from(pad);
            let padded_input =
                u32::try_from(padded).map_err(|_| ShapeError::PaddedInputTooLarge {
                    padded_input: padded,
                })?;
            if padded_input < kernel {
                return Err(ShapeError::KernelTooLarge {
                    padded_input,
                    kernel,
                });
            }
        }
        if !self.ci.is_multiple_of(self.groups) || !self.co.is_multiple_of(self.groups) {
            return Err(ShapeError::BadGrouping {
                ci: self.ci,
                co: self.co,
                groups: self.groups,
            });
        }
        let kind = if self.groups == self.ci && self.groups == self.co && self.groups > 1 {
            LayerKind::Depthwise
        } else if self.kh == 1 && self.kw == 1 {
            LayerKind::Pointwise
        } else {
            LayerKind::Conv
        };
        let spec = ConvSpec {
            name: self.name,
            kind,
            hi: self.hi,
            wi: self.wi,
            ci: self.ci,
            kh: self.kh,
            kw: self.kw,
            stride_h: self.stride_h,
            stride_w: self.stride_w,
            pad_h: self.pad_h,
            pad_w: self.pad_w,
            co: self.co,
            groups: self.groups,
        };
        check_volumes(&spec)?;
        Ok(spec)
    }
}

/// Checks that the layer's counts fit in a `u64` in bits, so
/// [`ConvSpec::macs`] and the `*_elems`/`*_bits` counts cannot wrap. Two
/// volumes bind: the input bits and the partial-sum bits (MACs times
/// [`PSUM_BITS`]). The weight and output element counts divide the MAC
/// count and take fewer bits each, so the partial-sum bound covers them,
/// and every volume the mapping decomposition forms from the MAC and
/// output counts.
fn check_volumes(spec: &ConvSpec) -> Result<(), ShapeError> {
    let input = [spec.hi, spec.wi, spec.ci].map(u64::from);
    let macs = [
        spec.ho(),
        spec.wo(),
        spec.co,
        spec.kh,
        spec.kw,
        spec.ci_per_group(),
    ]
    .map(u64::from);
    for (volume, counts, bits) in [
        ("input bits", &input[..], ACT_BITS),
        ("partial-sum bits", &macs[..], PSUM_BITS),
    ] {
        if counts
            .iter()
            .try_fold(bits, |acc, &n| acc.checked_mul(n))
            .is_none()
        {
            return Err(ShapeError::VolumeTooLarge { volume });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet_conv1_shape() {
        let l = ConvSpec::new("conv1", 224, 224, 3, 7, 2, 3, 64).unwrap();
        assert_eq!(l.ho(), 112);
        assert_eq!(l.wo(), 112);
        assert_eq!(l.weight_elems(), 7 * 7 * 3 * 64);
        assert_eq!(l.kind(), LayerKind::Conv);
    }

    #[test]
    fn vgg_conv_same_padding_preserves_plane() {
        let l = ConvSpec::new("c", 56, 56, 256, 3, 1, 1, 256).unwrap();
        assert_eq!((l.ho(), l.wo()), (56, 56));
    }

    #[test]
    fn pointwise_kind_is_detected() {
        let l = ConvSpec::pointwise("pw", 28, 28, 512, 128).unwrap();
        assert_eq!(l.kind(), LayerKind::Pointwise);
        assert_eq!(l.weight_elems(), 512 * 128);
        assert_eq!(l.macs(), 28 * 28 * 512 * 128);
    }

    #[test]
    fn fully_connected_is_1x1_pointwise() {
        let l = ConvSpec::fully_connected("fc", 4096, 1000).unwrap();
        assert_eq!((l.hi(), l.wi()), (1, 1));
        assert_eq!((l.ho(), l.wo()), (1, 1));
        assert_eq!(l.macs(), 4096 * 1000);
        assert!(!l.is_activation_intensive());
    }

    #[test]
    fn depthwise_macs_and_weights() {
        let l = ConvSpec::depthwise("dw", 56, 56, 144, 3, 1, 1).unwrap();
        assert_eq!(l.kind(), LayerKind::Depthwise);
        assert_eq!(l.ci_per_group(), 1);
        assert_eq!(l.macs(), 56 * 56 * 144 * 9);
        assert_eq!(l.weight_elems(), 9 * 144);
    }

    #[test]
    fn zero_dimension_is_rejected() {
        assert_eq!(
            ConvSpec::new("bad", 0, 224, 3, 3, 1, 1, 64),
            Err(ShapeError::ZeroDimension("hi"))
        );
    }

    #[test]
    fn oversized_kernel_is_rejected() {
        let err = ConvSpec::new("bad", 4, 4, 3, 7, 1, 0, 8).unwrap_err();
        assert!(matches!(err, ShapeError::KernelTooLarge { .. }));
    }

    #[test]
    fn padded_extents_beyond_u32_are_rejected() {
        // Both used to wrap in 32-bit arithmetic: to 8 (a valid layer) and
        // to 1 (a misleading kernel error).
        let err = ConvSpec::new("wide", 8, 8, 3, 3, 1, 1 << 31, 8).unwrap_err();
        assert_eq!(
            err,
            ShapeError::PaddedInputTooLarge {
                padded_input: 8 + (1 << 32)
            }
        );
        let err = ConvSpec::new("tall", u32::MAX, 8, 3, 3, 1, 1, 8).unwrap_err();
        assert_eq!(
            err,
            ShapeError::PaddedInputTooLarge {
                padded_input: u64::from(u32::MAX) + 2
            }
        );
        // The largest padded extent that fits still builds.
        let edge = ConvSpec::new("edge", u32::MAX - 2, 8, 3, 3, 1, 1, 8).unwrap();
        assert_eq!(edge.ho(), u32::MAX - 2);
    }

    #[test]
    fn volumes_beyond_u64_are_rejected() {
        let max = u32::MAX;
        let too_large = |volume| Err(ShapeError::VolumeTooLarge { volume });
        // The wrapped layer `baton check` used to accept: every count
        // overflows, the input first.
        assert_eq!(
            ConvSpec::new("c", max, max, max, 1, 1, 0, max),
            too_large("input bits")
        );
        // A 1x1 output plane: only the kernel and channels make counts
        // large.
        let wide = |ci, k, co| ConvSpecBuilder::new("w", k, k, ci, co).kernel(k, k).build();
        assert_eq!(wide(max, 1 << 16, max), too_large("input bits"));
        // Weights overflow, and so the MACs they are a factor of.
        assert_eq!(
            wide(1 << 20, 1 << 12, 1 << 20),
            too_large("partial-sum bits")
        );
        // 2^60 outputs x 8 bits fit; x 24 psum bits do not.
        let plane = ConvSpec::pointwise("p", 1 << 20, 1 << 20, 1, 1 << 20);
        assert_eq!(plane, too_large("partial-sum bits"));
        let l = ConvSpec::pointwise("p", 1 << 20, 1 << 20, 1, 1 << 18).unwrap();
        assert_eq!(l.macs(), 1 << 58);
        assert_eq!(l.output_bits(), 1 << 61);
        assert_eq!(
            ShapeError::VolumeTooLarge {
                volume: "input bits"
            }
            .to_string(),
            "input bits exceed 18446744073709551615"
        );
    }

    #[test]
    fn bad_grouping_is_rejected() {
        let err = ConvSpecBuilder::new("bad", 8, 8, 10, 8)
            .groups(3)
            .build()
            .unwrap_err();
        assert!(matches!(err, ShapeError::BadGrouping { .. }));
    }

    #[test]
    fn input_extent_matches_sliding_window() {
        // 3 outputs of a 7-wide stride-2 kernel touch (3-1)*2 + 7 = 11 inputs.
        assert_eq!(ConvSpec::input_extent(3, 2, 7), 11);
        assert_eq!(ConvSpec::input_extent(1, 4, 1), 1);
        assert_eq!(ConvSpec::input_extent(0, 2, 7), 0);
    }

    #[test]
    fn clipped_extents_respect_padding_and_borders() {
        let l = ConvSpec::new("c", 224, 224, 3, 7, 2, 3, 64).unwrap();
        // First output row: padded window [-3, 4) -> rows [0, 4) -> 4 rows.
        assert_eq!(l.clipped_input_rows(0, 1), 4);
        // An interior tile sees the full un-clipped extent.
        assert_eq!(l.clipped_input_rows(10, 3), ConvSpec::input_extent(3, 2, 7));
        // The whole output plane touches at most the whole input.
        assert_eq!(l.clipped_input_rows(0, l.ho()), 224);
        assert_eq!(l.clipped_input_cols(0, l.wo()), 224);
    }

    #[test]
    fn clipped_extent_never_exceeds_input_or_window() {
        let l = ConvSpec::new("c", 56, 56, 8, 3, 1, 1, 8).unwrap();
        for oy0 in 0..l.ho() {
            for len in 1..=(l.ho() - oy0) {
                let rows = l.clipped_input_rows(oy0, len);
                assert!(rows <= l.hi());
                assert!(rows <= ConvSpec::input_extent(len, 1, 3));
            }
        }
    }

    #[test]
    fn activation_intensity_bucketing() {
        // VGG-16 conv1: 224*224*3 inputs vs 3*3*3*64 weights.
        let act = ConvSpec::new("c1", 224, 224, 3, 3, 1, 1, 64).unwrap();
        assert!(act.is_activation_intensive());
        // VGG-16 conv5_2: 14*14*512 inputs vs 3*3*512*512 weights.
        let wgt = ConvSpec::new("c12", 14, 14, 512, 3, 1, 1, 512).unwrap();
        assert!(!wgt.is_activation_intensive());
    }

    #[test]
    fn display_is_informative() {
        let l = ConvSpec::new("conv1", 224, 224, 3, 7, 2, 3, 64).unwrap();
        let s = l.to_string();
        assert!(s.contains("conv1"));
        assert!(s.contains("112"));
    }

    #[test]
    fn shape_key_ignores_the_name_and_nothing_else() {
        let a = ConvSpec::new("first", 56, 56, 64, 3, 1, 1, 64).unwrap();
        let b = a.renamed("second");
        assert_eq!(a.shape_key(), b.shape_key());
        // Every geometric field participates.
        let variants = [
            ConvSpec::new("v", 57, 56, 64, 3, 1, 1, 64).unwrap(),
            ConvSpec::new("v", 56, 56, 32, 3, 1, 1, 64).unwrap(),
            ConvSpec::new("v", 56, 56, 64, 5, 1, 2, 64).unwrap(),
            ConvSpec::new("v", 56, 56, 64, 3, 2, 1, 64).unwrap(),
            ConvSpec::new("v", 56, 56, 64, 3, 1, 0, 64).unwrap(),
            ConvSpec::new("v", 56, 56, 64, 3, 1, 1, 128).unwrap(),
            ConvSpec::depthwise("v", 56, 56, 64, 3, 1, 1).unwrap(),
        ];
        for v in &variants {
            assert_ne!(a.shape_key(), v.shape_key(), "{v}");
        }
    }
}
