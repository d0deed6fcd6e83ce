//! Whole-network containers.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::layer::ConvSpec;

/// An ordered sequence of layer workloads evaluated layer-wise.
///
/// The paper targets layer-wise mapping (Section I), so a model is simply the
/// list of its convolution-like workloads; element-wise/pooling/normalization
/// layers contribute no MAC or notable memory traffic at this abstraction and
/// are folded into the shape bookkeeping of the [`crate::zoo`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Model {
    name: String,
    input_resolution: u32,
    layers: Vec<ConvSpec>,
}

/// A model whose layers' MAC counts sum past `u64::MAX`: each layer fits,
/// but [`Model::total_macs`] would wrap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacsOverflow;

impl fmt::Display for MacsOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "total MACs exceed {}", u64::MAX)
    }
}

impl std::error::Error for MacsOverflow {}

impl Model {
    /// Creates a model from a layer list.
    ///
    /// # Panics
    ///
    /// Panics if the layers' MAC counts sum past `u64::MAX`; models read
    /// from outside input go through [`Model::try_new`].
    pub fn new(name: impl Into<String>, input_resolution: u32, layers: Vec<ConvSpec>) -> Self {
        Self::try_new(name, input_resolution, layers).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a model from a layer list.
    ///
    /// # Errors
    ///
    /// Returns [`MacsOverflow`] if the layers' MAC counts sum past
    /// `u64::MAX`, so that [`Model::total_macs`] never wraps.
    pub fn try_new(
        name: impl Into<String>,
        input_resolution: u32,
        layers: Vec<ConvSpec>,
    ) -> Result<Self, MacsOverflow> {
        layers
            .iter()
            .try_fold(0u64, |sum, l| sum.checked_add(l.macs()))
            .ok_or(MacsOverflow)?;
        Ok(Self {
            name: name.into(),
            input_resolution,
            layers,
        })
    }

    /// Model name, e.g. `"vgg16"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Square input resolution the shapes were derived for (224 or 512 in the
    /// paper's benchmarks).
    pub fn input_resolution(&self) -> u32 {
        self.input_resolution
    }

    /// The layer workloads in execution order.
    pub fn layers(&self) -> &[ConvSpec] {
        &self.layers
    }

    /// Looks a layer up by name.
    pub fn layer(&self, name: &str) -> Option<&ConvSpec> {
        self.layers.iter().find(|l| l.name() == name)
    }

    /// Total MAC operations over all layers (it fits: [`Model::try_new`]
    /// refuses a model whose sum would not).
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(ConvSpec::macs).sum()
    }

    /// Total weight volume in bits.
    pub fn total_weight_bits(&self) -> u64 {
        self.layers.iter().map(ConvSpec::weight_bits).sum()
    }

    /// Peak single-layer weight volume in bits (drives W-L1 sizing in the
    /// Figure 15 discussion).
    pub fn peak_weight_bits(&self) -> u64 {
        self.layers
            .iter()
            .map(ConvSpec::weight_bits)
            .max()
            .unwrap_or(0)
    }

    /// Peak single-layer input-activation volume in bits (drives A-L1/A-L2
    /// sizing; the paper notes VGG/DarkNet peak at 4x ResNet-50's).
    pub fn peak_activation_bits(&self) -> u64 {
        self.layers
            .iter()
            .map(ConvSpec::input_bits)
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @{}x{} ({} layers, {:.2} GMAC)",
            self.name,
            self.input_resolution,
            self.input_resolution,
            self.layers.len(),
            self.total_macs() as f64 / 1e9
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_totals_past_u64_are_refused() {
        // 2^58 MACs each: 63 layers sum to just under 2^64, 64 wrap to 0.
        let layer = ConvSpec::new("c", 1 << 20, 1 << 20, 1, 1, 1, 0, 1 << 18).unwrap();
        assert_eq!(layer.macs(), 1 << 58);
        let fits = Model::try_new("big", 64, vec![layer.clone(); 63]).unwrap();
        assert_eq!(fits.total_macs(), 63 << 58);
        let err = Model::try_new("big", 64, vec![layer; 64]).unwrap_err();
        assert_eq!(err, MacsOverflow);
        assert_eq!(err.to_string(), "total MACs exceed 18446744073709551615");
    }

    fn tiny() -> Model {
        Model::new(
            "tiny",
            8,
            vec![
                ConvSpec::new("a", 8, 8, 3, 3, 1, 1, 16).unwrap(),
                ConvSpec::pointwise("b", 8, 8, 16, 32).unwrap(),
            ],
        )
    }

    #[test]
    fn totals_sum_layers() {
        let m = tiny();
        assert_eq!(m.total_macs(), m.layers()[0].macs() + m.layers()[1].macs());
        assert_eq!(m.peak_weight_bits(), m.layers()[1].weight_bits());
        assert_eq!(m.peak_activation_bits(), m.layers()[1].input_bits());
    }

    #[test]
    fn lookup_by_name() {
        let m = tiny();
        assert_eq!(m.layer("b").unwrap().co(), 32);
        assert!(m.layer("missing").is_none());
    }

    #[test]
    fn display_mentions_name_and_layer_count() {
        let s = tiny().to_string();
        assert!(s.contains("tiny"));
        assert!(s.contains("2 layers"));
    }
}
