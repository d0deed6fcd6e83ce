//! User-facing observability for the NN-Baton workspace.
//!
//! `baton-telemetry` records *what happened* (counters, spans, raw trace
//! events); this crate turns that internal state — plus the analytical and
//! simulated results themselves — into the three surfaces a person or a
//! machine actually consumes:
//!
//! * [`explain`]: *why did this mapping win?* The hierarchical loop nest,
//!   the per-buffer C³P verdicts (each critical capacity `Cc_k` against the
//!   configured size and which penalty `P_k` fired), the per-level access
//!   counts, the Figure-10-style energy split, and the top-k runner-up
//!   mappings with score deltas. Renders as aligned text, markdown, or
//!   JSON lines ([`Format`]).
//! * [`perfetto`]: the DES event [`baton_sim::Trace`] as Chrome
//!   `trace_event` JSON viewable in [Perfetto](https://ui.perfetto.dev) —
//!   one process per chiplet, one track per tile stream, counter tracks for
//!   load/compute occupancy, and an `analytical_vs_sim` marker wherever the
//!   C³P prediction and the simulated cycles diverge beyond a tolerance.
//! * [`bench`](mod@bench): machine-readable performance snapshots (`BENCH_*.json`) —
//!   per-phase wall times from the telemetry span histograms, throughput
//!   counters, evaluations/sec — with baseline comparison so CI can fail a
//!   PR that regresses a hot path.
//! * [`sweep`]: *why does the Pareto front look like this?* The dominance
//!   provenance of a pre-design sweep — each front member with its kill
//!   count, plus the nearest-miss designs and the axis they lost on —
//!   rendered in the same three formats as [`explain`].
//! * [`fidelity`]: the analytical-vs-DES relative-error distribution per
//!   layer, snapshotted to `results/FIDELITY.json` and bounded in CI via
//!   the [`bench`](mod@bench) gate keys.
//!
//! Every renderer is a pure function from already-computed state to a
//! `String`; nothing here re-runs searches except [`explain::explain_layer`],
//! which needs the runner-ups the plain search discards.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bench;
pub mod explain;
pub mod fidelity;
pub mod perfetto;
pub mod render;
pub mod sweep;

pub use bench::{compare_snapshots, describe_regression, BenchSnapshot, Regression};
pub use explain::{explain_layer, LayerExplanation, RunnerUp};
pub use fidelity::{fidelity_snapshot, LayerFidelity, ModelFidelity};
pub use perfetto::{PerfettoTrace, DEFAULT_DIVERGENCE_TOL};
pub use render::Format;
pub use sweep::{explain_sweep, SweepExplanation};
