//! The hierarchical output-centric dataflow description of NN-Baton
//! (Section IV of the paper).
//!
//! A [`Mapping`] describes how one layer workload is orchestrated across the
//! three hardware levels:
//!
//! * **spatial** primitives partition the output cube across parallel units:
//!   [`PackagePartition`] (C-type or P-type across chiplets) and
//!   [`ChipletPartition`] (C-type, P-type or hybrid H-type across cores);
//! * **temporal** primitives ([`TemporalOrder`]) pick channel-priority or
//!   plane-priority unrolling at the package and chiplet levels;
//! * the **rotating** primitive ([`RotationMode`]) shares activations or
//!   weights among chiplets over the directional ring.
//!
//! [`decompose()`](decompose::decompose) turns a `(layer, arch, mapping)` triple into exact loop
//! counts, tile windows and data volumes — the geometry consumed by the C3P
//! analytical engine — and [`enumerate`] generates the candidate mapping set
//! the post-design flow searches exhaustively.
//!
//! ```
//! use baton_arch::presets;
//! use baton_model::zoo;
//! use baton_mapping::enumerate::candidates;
//!
//! let arch = presets::case_study_accelerator();
//! let layer = zoo::resnet50(224).layer("res2a_branch2b").cloned().unwrap();
//! let maps = candidates(&layer, &arch);
//! assert!(maps.len() > 10, "exhaustive search evaluates many cases");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod coverage;
pub mod decompose;
pub mod enumerate;
pub mod mapping;
pub mod nest;
pub mod pattern;
pub mod primitives;
pub mod tile;

pub use coverage::{verify_coverage, Coverage};
pub use decompose::{
    a_l1_floor_bytes, decompose, mapping_geometry, mapping_geometry_with, o_l2_floor_bytes,
    ChannelKey, ChannelTerms, Decomposition, Footprints, MappingError, MappingGeometry, NestLevel,
    NestScratch, NoMemo, PlaneAxis, PlaneKey, PlaneTerms, TermMemo, Volumes,
};
pub use mapping::Mapping;
pub use nest::{Loop, LoopLevel, LoopNest};
pub use pattern::{preferred_grid, PatternContext};
pub use primitives::{ChipletPartition, Dim, PackagePartition, RotationMode, TemporalOrder};
pub use tile::Tile;
