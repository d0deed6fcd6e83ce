//! DNN workload model for the NN-Baton reproduction.
//!
//! This crate is the *workload substrate* of the reproduction: everything the
//! mapping and design-space-exploration layers need to know about a neural
//! network is captured here as plain shape arithmetic.
//!
//! The paper (NN-Baton, ISCA 2021) consumes PyTorch models through
//! `torch.jit`; this crate substitutes a self-contained [`zoo`] with the exact
//! published layer shape tables (AlexNet, VGG-16, ResNet-50, DarkNet-19 and
//! MobileNetV2 at 224x224 and 512x512 inputs) plus a small text
//! model-description [`parse`]r so user models can be loaded without any
//! Python dependency. The downstream tool only ever consumes
//! `(HI, WI, CI, KH, KW, stride, pad, CO)` tuples, so the substitution is
//! behaviour-preserving.
//!
//! # Quick example
//!
//! ```
//! use baton_model::{zoo, LayerKind};
//!
//! let vgg = zoo::vgg16(224);
//! assert_eq!(vgg.layers().len(), 16); // 13 conv + 3 FC-as-pointwise
//! let conv1 = &vgg.layers()[0];
//! assert_eq!(conv1.ho(), 224);
//! assert_eq!(conv1.kind(), LayerKind::Conv);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod datatype;
pub mod graph;
pub mod halo;
pub mod layer;
pub mod model;
pub mod parse;
pub mod stats;
pub mod zoo;

pub use datatype::{ACT_BITS, PSUM_BITS, WGT_BITS};
pub use graph::{GraphError, GraphNode, LayerGraph};
pub use halo::{max_sharing_degree, planar_redundancy, InputWindow, PlanarGrid, Redundancy};
pub use layer::{ConvSpec, ConvSpecBuilder, LayerKind, ShapeError, ShapeKey};
pub use model::{MacsOverflow, Model};
pub use parse::{parse_model, render_model, ParseModelError};
pub use stats::{LayerStats, ModelStats};
