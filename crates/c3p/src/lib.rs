//! The C3P (Critical-Capacity Critical-Position) analytical engine of
//! NN-Baton (Section IV-B of the paper).
//!
//! Given a workload [`baton_mapping::Decomposition`], this crate determines
//! how often each buffer level must reload data (the *penalty multipliers*),
//! resolves the per-path access counts, prices them with the Table I energy
//! model, and estimates the runtime as the maximum of the compute critical
//! path and the bandwidth bounds.
//!
//! Every production query reads one representation: the C³P kernel's
//! inline staircases, each data path's `(Cc_k, P_k)` breakpoints from one
//! region walk of the loop nest. Evaluation, the mapping search, the
//! pre-design memory sweep, the `baton explain` verdicts and the
//! sensitivity analysis all resolve their accesses off them. The
//! materialized breakpoint vectors ([`reference::AccessProfile`]) are kept
//! in [`reference`](mod@reference) only as the oracle the equivalence harnesses compare
//! production against.
//!
//! ```
//! use baton_arch::{presets, Technology};
//! use baton_model::zoo;
//! use baton_c3p::{evaluate, Objective};
//!
//! let arch = presets::case_study_accelerator();
//! let tech = Technology::paper_16nm();
//! let layer = zoo::resnet50(224).layer("res2a_branch2b").cloned().unwrap();
//! let best = baton_c3p::search_layer(&layer, &arch, &tech, Objective::Energy).unwrap();
//! assert!(best.energy.total_pj() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batch;
pub mod bounds;
pub mod cache;
pub mod energy;
pub mod evaluate;
mod kernel;
pub mod reference;
pub mod search;
pub mod sensitivity;
pub mod sweep;
pub mod verdict;
mod walk;

pub use bounds::{Floors, PairFloor, TrafficBounds};
pub use cache::{search_layer_memo, SearchMemo, ShapeMemo};
pub use energy::EnergyBreakdown;
pub use evaluate::{
    evaluate, evaluate_decomposition, price, runtime_bound, AccessCounts, Evaluation,
};
pub use kernel::Pooled;
pub use search::{
    search_layer, search_layer_k_best, search_layer_reference, search_layer_with, Objective,
    SearchError,
};
pub use sensitivity::{knob_effects, Knob, KnobEffect};
pub use sweep::{sweep_lanes_for, SweepLanes};
pub use verdict::{buffer_verdicts, BreakpointVerdict, BufferVerdict};
