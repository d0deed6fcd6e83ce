//! The pre-design flow: chiplet granularity and hardware resource
//! exploration under MAC-count and area budgets (Section VI-B).

use std::sync::Arc;

use baton_arch::presets::ProportionalBuffers;
use baton_arch::{validate, ChipletConfig, CoreConfig, PackageConfig, Technology};
use baton_c3p::reference::{resolve_at_capacities, LayerProfiles};
use baton_c3p::sweep::{feasibility_floors, Corner};
use baton_c3p::{
    price, runtime_bound, sweep_lanes_for, Floors, Objective, Pooled, ShapeMemo, SweepLanes,
};
use baton_mapping::enumerate::{visit_candidates, EnumOptions};
use baton_mapping::{decompose, Decomposition};
use baton_model::{ConvSpec, Model};
use baton_telemetry::{count, count_n, event, span, span_labeled, Counter, Progress};
use serde::{Deserialize, Serialize};

use crate::audit::{AuditRecord, SweepAudit};
use crate::postdesign::map_model_opts;
use crate::space::DesignSpace;

/// One bar of the Figure 14 chiplet-granularity plot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GranularityResult {
    /// `(N_P, N_C, L, P)`.
    pub geometry: (u32, u32, u32, u32),
    /// Chiplet area in mm^2 under the proportional-buffer policy.
    pub chiplet_area_mm2: f64,
    /// Model energy in pJ with the optimal per-layer mappings.
    pub energy_pj: f64,
    /// Model runtime in cycles.
    pub cycles: u64,
    /// Whether the chiplet fits the area constraint (when one was given).
    pub meets_area: bool,
}

impl GranularityResult {
    /// Energy-delay product in joule-seconds.
    pub fn edp(&self, tech: &Technology) -> f64 {
        self.energy_pj * 1e-12 * tech.cycles_to_seconds(self.cycles)
    }
}

/// Sweeps every Table II computation geometry with `total_macs` MAC units,
/// assembling buffers proportional to the computation resources (the
/// Figure 14 methodology), and maps `model` on each.
///
/// Each bar prices through [`map_model_opts`]: the per-layer
/// branch-and-bound mapping search (DESIGN §6h) on the bar's
/// proportional-buffer machine, whose survivors the C³P kernel resolves
/// at that machine's own capacities.
///
/// Geometries with no feasible mapping for some layer are skipped.
pub fn granularity_sweep(
    model: &Model,
    tech: &Technology,
    total_macs: u64,
    buffers: &ProportionalBuffers,
    area_limit_mm2: Option<f64>,
) -> Vec<GranularityResult> {
    granularity_sweep_audited(
        model,
        tech,
        total_macs,
        buffers,
        area_limit_mm2,
        &SweepAudit::disabled(),
    )
}

/// [`granularity_sweep`] with an audit trail: one `geometry` record per bar
/// (feasible or not) plus a closing `summary` record.
pub fn granularity_sweep_audited(
    model: &Model,
    tech: &Technology,
    total_macs: u64,
    buffers: &ProportionalBuffers,
    area_limit_mm2: Option<f64>,
    audit: &SweepAudit,
) -> Vec<GranularityResult> {
    let _sweep_span = span("granularity_sweep");
    let t0 = std::time::Instant::now();
    let metered = baton_telemetry::metrics::enabled();
    let space = DesignSpace::default();
    let geometries = space.compute.geometries_for(total_macs);
    let meter = Progress::new("granularity_sweep", geometries.len() as u64);
    let mut skipped = 0u64;
    let mut out = Vec::new();
    for (np, nc, l, p) in geometries.iter().copied() {
        meter.tick(1);
        count(Counter::SweepGeometries);
        let bar_t0 = std::time::Instant::now();
        let arch = buffers.package(np, nc, l, p);
        if validate(&arch).is_err() {
            count(Counter::SweepGeometriesSkipped);
            skipped += 1;
            if audit.enabled() {
                audit.record(infeasible_geometry((np, nc, l, p), 0.0, &bar_t0));
            }
            continue;
        }
        let area = tech.area.chiplet_mm2(&arch.chiplet);
        // A coarser candidate ladder keeps the 32-geometry sweep tractable;
        // the Figure 12-13 comparisons use the full exhaustive ladder.
        let sweep_opts = EnumOptions {
            plane_fractions: &[1, 2, 4, 16],
            co_fractions: &[1, 4],
            ..EnumOptions::default()
        };
        let geo_span = span("granularity_geometry");
        let Ok(report) = map_model_opts(model, &arch, tech, Objective::Energy, sweep_opts) else {
            count(Counter::SweepGeometriesSkipped);
            skipped += 1;
            if audit.enabled() {
                audit.record(infeasible_geometry((np, nc, l, p), area, &bar_t0));
            }
            continue;
        };
        if baton_telemetry::enabled() {
            event("granularity_point")
                .u64("n_p", u64::from(np))
                .u64("n_c", u64::from(nc))
                .u64("lanes", u64::from(l))
                .u64("vector", u64::from(p))
                .f64("area_mm2", area)
                .f64("energy_pj", report.energy.total_pj())
                .u64("cycles", report.cycles)
                .u64("dur_us", geo_span.elapsed_us())
                .emit();
        }
        if metered {
            observe_unit("granularity", bar_t0.elapsed());
        }
        let result = GranularityResult {
            geometry: (np, nc, l, p),
            chiplet_area_mm2: area,
            energy_pj: report.energy.total_pj(),
            cycles: report.cycles,
            meets_area: area_limit_mm2.map(|lim| area <= lim).unwrap_or(true),
        };
        if audit.enabled() {
            audit.record(AuditRecord::Geometry {
                geometry: result.geometry,
                chiplet_area_mm2: result.chiplet_area_mm2,
                energy_pj: result.energy_pj,
                cycles: result.cycles,
                meets_area: result.meets_area,
                feasible: true,
                wall_us: bar_t0.elapsed().as_micros() as u64,
            });
        }
        out.push(result);
    }
    if audit.enabled() {
        audit.record(AuditRecord::Summary {
            flow: "granularity",
            units: geometries.len() as u64,
            points: out.len() as u64,
            infeasible: skipped,
            wall_us: t0.elapsed().as_micros() as u64,
        });
    }
    if metered {
        observe_sweep("granularity", t0);
        publish_sweep_rates("granularity", out.len() as u64, t0.elapsed());
    }
    out
}

/// An audit bar for a geometry that failed validation or mapping.
fn infeasible_geometry(
    geometry: (u32, u32, u32, u32),
    area: f64,
    bar_t0: &std::time::Instant,
) -> AuditRecord {
    AuditRecord::Geometry {
        geometry,
        chiplet_area_mm2: area,
        energy_pj: 0.0,
        cycles: 0,
        meets_area: false,
        feasible: false,
        wall_us: bar_t0.elapsed().as_micros() as u64,
    }
}

/// Metric name of the whole-sweep latency histogram.
pub const SWEEP_SECONDS: &str = "baton_sweep_duration_seconds";

/// Help text for the sweep latency histogram (one family, two `flow`
/// labels).
pub const SWEEP_SECONDS_HELP: &str = "Pre-design sweep latency by flow.";

/// Metric name of the per-unit latency histogram.
pub const SWEEP_UNIT_SECONDS: &str = "baton_sweep_unit_duration_seconds";

/// Help text for the per-unit latency histogram: one observation per
/// `(geometry, O-L1)` unit of the full sweep, or per geometry bar of the
/// granularity sweep.
pub const SWEEP_UNIT_SECONDS_HELP: &str = "Pre-design sweep per-geometry-unit latency by flow.";

/// Metric name of the end-of-sweep throughput gauge.
pub const SWEEP_POINTS_PER_SECOND: &str = "baton_sweep_points_per_second";

/// Help text for the end-of-sweep throughput gauge.
pub const SWEEP_POINTS_PER_SECOND_HELP: &str =
    "Valid design points per second over the last completed sweep, by flow.";

/// Records one sweep duration into the labelled metrics registry (no-op
/// unless `baton serve` enabled the layer).
fn observe_sweep(flow: &'static str, t0: std::time::Instant) {
    baton_telemetry::metrics::observe_duration(
        SWEEP_SECONDS,
        SWEEP_SECONDS_HELP,
        &[("flow", flow)],
        t0.elapsed(),
    );
}

/// Records one sweep-unit duration into the per-unit histogram.
fn observe_unit(flow: &'static str, dur: std::time::Duration) {
    baton_telemetry::metrics::observe_duration(
        SWEEP_UNIT_SECONDS,
        SWEEP_UNIT_SECONDS_HELP,
        &[("flow", flow)],
        dur,
    );
}

/// Publishes the sweep's points/sec throughput gauge.
fn publish_sweep_rates(flow: &'static str, points: u64, elapsed: std::time::Duration) {
    let secs = elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    baton_telemetry::metrics::gauge_set(
        SWEEP_POINTS_PER_SECOND,
        SWEEP_POINTS_PER_SECOND_HELP,
        &[("flow", flow)],
        points as f64 / secs,
    );
}

/// One valid point of the Figure 15 design-space exploration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignPoint {
    /// `(N_P, N_C, L, P)`.
    pub geometry: (u32, u32, u32, u32),
    /// `(O-L1, A-L1, W-L1, A-L2)` in bytes.
    pub memory: (u64, u64, u64, u64),
    /// Chiplet area in mm^2.
    pub chiplet_area_mm2: f64,
    /// Model energy in pJ.
    pub energy_pj: f64,
    /// Model runtime in cycles.
    pub cycles: u64,
}

impl DesignPoint {
    /// Energy-delay product in joule-seconds.
    pub fn edp(&self, tech: &Technology) -> f64 {
        self.energy_pj * 1e-12 * tech.cycles_to_seconds(self.cycles)
    }
}

/// Options for [`full_sweep`].
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Total MAC budget (4096 in Figure 15).
    pub total_macs: u64,
    /// The Table II space to sweep.
    pub space: DesignSpace,
    /// Chiplet area constraint in mm^2 (3 mm^2 in Figure 15); points above
    /// it are still returned with their area so callers can plot both sides.
    pub area_limit_mm2: Option<f64>,
    /// O-L2 capacity policy for every point (the paper derives O-L2 from the
    /// chiplet workload; a fixed 32 KB covers the tiles the search picks).
    pub o_l2_bytes: u64,
    /// Mapping-candidate ladder (coarser than the post-design default to
    /// keep the 10^5-point sweep fast).
    pub enum_options: EnumOptions,
    /// Candidates retained per layer after corner pruning.
    pub keep_per_corner: usize,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            total_macs: 4096,
            space: DesignSpace::default(),
            area_limit_mm2: Some(3.0),
            o_l2_bytes: 32 * 1024,
            enum_options: EnumOptions {
                plane_fractions: &[1, 4, 16],
                co_fractions: &[1, 4],
                ..EnumOptions::default()
            },
            keep_per_corner: 3,
        }
    }
}

/// A candidate mapping's reusable analysis artifacts.
#[derive(Debug)]
struct Candidate {
    decomposition: Decomposition,
    profiles: LayerProfiles,
    /// A-L1 feasibility floor in bytes.
    a_l1_floor: u64,
    /// O-L2 feasibility floor in bytes (tile outputs).
    o_l2_floor: u64,
}

/// A memory-grid cell addressed by ladder-rung indices.
#[derive(Debug, Clone, Copy)]
struct Cell {
    /// Index into `memory.a_l1`.
    a1: usize,
    /// Index into `memory.w_l1`.
    w1: usize,
    /// Index into `memory.a_l2`.
    a2: usize,
}

/// Memoized per-shape artifacts within one sweep unit, built by one engine.
#[derive(Debug)]
struct BuiltCands<C> {
    /// Corner-pruned candidate set in the engine's representation.
    cands: C,
    /// Decomposable candidates enumerated (before pruning).
    candidates: u64,
    /// Candidates surviving corner pruning.
    kept: u64,
    /// Whether enumeration found any decomposable candidate at all (before
    /// pruning); `false` makes the whole geometry infeasible.
    feasible: bool,
}

/// Strategy object for the sweep's repricing engine.
///
/// The whole sweep skeleton — unit fan-out, shape memoization, the pruning
/// corners, the grid walk with its skip rule, stats and audit emission — is
/// generic over this trait, so the streaming production engine and the
/// materialized reference exercise one code path and can only differ in how
/// a candidate is priced and how its corner floor is read. The differential
/// harness in `tests/sweep_equivalence.rs` pins that difference to zero.
trait SweepEngine: Sync {
    /// Per-shape candidate artifacts.
    type Cands;

    /// Enumerates, decomposes, and corner-prunes the candidate set for one
    /// layer on the unit's reference machine.
    fn build(
        &self,
        layer: &ConvSpec,
        reference: &PackageConfig,
        tech: &Technology,
        opts: &SweepOptions,
    ) -> BuiltCands<Self::Cands>;

    /// Scores one layer at a grid cell: best candidate by energy, strict
    /// `<` so the earliest candidate wins ties. `arch` carries the cell's
    /// buffer capacities; `cell` addresses the same capacities by rung
    /// index. `None` if no candidate is feasible at this cell.
    fn best_layer_at(
        &self,
        cands: &Self::Cands,
        cell: Cell,
        arch: &PackageConfig,
        tech: &Technology,
    ) -> Option<(f64, u64)>;
}

/// The eight pruning corners of the memory grid, in the fixed `A-L1 x
/// W-L1 x A-L2` first/last nesting order, each with a copy of `reference`
/// carrying the cell's capacities (field-identical to the arch the grid
/// walk constructs). Single-rung ladders repeat their only rung, and so
/// repeat corners; a repeated corner selects what its twin selects, and is
/// scored wherever its twin is.
fn corners(reference: &PackageConfig, opts: &SweepOptions) -> [Corner; 8] {
    let m = &opts.space.memory;
    let ends = |rungs: usize| [0, rungs - 1];
    let mut out = [Corner {
        cell: (0, 0, 0),
        arch: *reference,
    }; 8];
    let mut n = 0;
    for a1 in ends(m.a_l1.len()) {
        for w1 in ends(m.w_l1.len()) {
            for a2 in ends(m.a_l2.len()) {
                let arch = &mut out[n].arch;
                arch.chiplet.core.a_l1_bytes = m.a_l1[a1];
                arch.chiplet.core.w_l1_bytes = m.w_l1[w1];
                arch.chiplet.a_l2_bytes = m.a_l2[a2];
                arch.chiplet.o_l2_bytes = opts.o_l2_bytes;
                out[n].cell = (a1, w1, a2);
                n += 1;
            }
        }
    }
    out
}

/// The first `k` of every `(score, index)` pair, stable-sorted by
/// [`f64::total_cmp`]: the reference engine's corner selection, and the
/// oracle the streaming engine's bounded [`baton_parallel::TopK`]
/// selections are held to.
fn sorted_top_k(scored: impl Iterator<Item = (f64, usize)>, k: usize) -> Vec<(f64, usize)> {
    let mut all: Vec<(f64, usize)> = scored.collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0));
    all.truncate(k);
    all
}

/// The reference engine's corner pruning: keeps the union of the best
/// `keep_per_corner` candidates (by energy, ties to the earliest) at each
/// corner, chosen by a full stable sort of the scores priced there.
///
/// A candidate is priced at a corner only if its [`Floors`] energy on the
/// corner's machine is not above the `k`-th lowest score priced there so
/// far, the skip rule the streaming engine applies from its pair floors:
/// both engines price, and count penalties at, the same corner points. A
/// floor never exceeds its score, so a skipped candidate scores above `k`
/// priced ones and the sort keeps what it would keep over every candidate.
fn corner_keep(
    cands: &[Candidate],
    reference: &PackageConfig,
    opts: &SweepOptions,
    tech: &Technology,
) -> Vec<bool> {
    let m = &opts.space.memory;
    let k = opts.keep_per_corner;
    let mut keep = vec![false; cands.len()];
    for corner in corners(reference, opts) {
        let (a1, w1, a2) = corner.cell;
        let (a_l1, w_l1, a_l2, o_l2) = (m.a_l1[a1], m.w_l1[w1], m.a_l2[a2], opts.o_l2_bytes);
        let mut priced: Vec<(f64, usize)> = Vec::new();
        // The `k` lowest priced scores, ascending.
        let mut lowest: Vec<f64> = Vec::new();
        for (i, c) in cands.iter().enumerate() {
            let kth = match k.checked_sub(1).and_then(|j| lowest.get(j)) {
                Some(&score) => score,
                None => f64::INFINITY,
            };
            if Floors::of(&c.decomposition, &corner.arch, tech).energy_pj > kth {
                continue;
            }
            let Some((e, _)) = score_candidate(c, a_l1, w_l1, a_l2, o_l2, &corner.arch, tech)
            else {
                continue;
            };
            priced.push((e, i));
            lowest.insert(lowest.partition_point(|s| s.total_cmp(&e).is_le()), e);
            lowest.truncate(k);
        }
        for (_, i) in sorted_top_k(priced.into_iter(), k) {
            keep[i] = true;
        }
    }
    keep
}

/// The production engine: a branch-and-bound corner selection whose
/// survivors are resolved per rung into pooled struct-of-arrays lanes
/// ([`baton_c3p::SweepLanes`]). Zero steady-state allocation per design
/// point; bit-identical to [`ReferenceEngine`].
#[derive(Debug)]
struct StreamingEngine;

impl SweepEngine for StreamingEngine {
    type Cands = Pooled<SweepLanes>;

    fn build(
        &self,
        layer: &ConvSpec,
        reference: &PackageConfig,
        tech: &Technology,
        opts: &SweepOptions,
    ) -> BuiltCands<Pooled<SweepLanes>> {
        let m = &opts.space.memory;
        let core = &reference.chiplet.core;
        let min_w_bits = u64::from(core.lanes) * u64::from(core.vector) * 8;
        let mut lanes = sweep_lanes_for(&m.a_l1, &m.w_l1, &m.a_l2, min_w_bits);
        let candidates = lanes.select(
            layer,
            reference,
            tech,
            opts.enum_options,
            &corners(reference, opts),
            opts.keep_per_corner,
        );
        BuiltCands {
            kept: lanes.len() as u64,
            cands: lanes,
            candidates,
            feasible: candidates > 0,
        }
    }

    fn best_layer_at(
        &self,
        lanes: &Pooled<SweepLanes>,
        cell: Cell,
        arch: &PackageConfig,
        tech: &Technology,
    ) -> Option<(f64, u64)> {
        let mut best: Option<(f64, u64)> = None;
        for i in 0..lanes.len() {
            if let Some((e, cyc)) = lanes.score(i, (cell.a1, cell.w1, cell.a2), arch, tech) {
                if best.map(|(be, _)| e < be).unwrap_or(true) {
                    best = Some((e, cyc));
                }
            }
        }
        best
    }
}

/// The retained materialized path: per-candidate [`LayerProfiles`] resolved
/// through [`resolve_at_capacities`] at every score. Ground truth for the
/// differential sweep-equivalence harness.
#[derive(Debug)]
struct ReferenceEngine;

impl SweepEngine for ReferenceEngine {
    type Cands = Vec<Candidate>;

    fn build(
        &self,
        layer: &ConvSpec,
        reference: &PackageConfig,
        tech: &Technology,
        opts: &SweepOptions,
    ) -> BuiltCands<Vec<Candidate>> {
        let floor = span("sweep_floor");
        let cands = layer_candidates(layer, reference, opts);
        drop(floor);
        let candidates = cands.len() as u64;
        let feasible = !cands.is_empty();
        let pruned = if feasible {
            let _corners = span("sweep_corners");
            let keep = corner_keep(&cands, reference, opts, tech);
            cands
                .into_iter()
                .zip(keep)
                .filter_map(|(c, k)| k.then_some(c))
                .collect()
        } else {
            Vec::new()
        };
        BuiltCands {
            kept: pruned.len() as u64,
            cands: pruned,
            candidates,
            feasible,
        }
    }

    fn best_layer_at(
        &self,
        cands: &Vec<Candidate>,
        _cell: Cell,
        arch: &PackageConfig,
        tech: &Technology,
    ) -> Option<(f64, u64)> {
        let (a_l1, w_l1, a_l2) = (
            arch.chiplet.core.a_l1_bytes,
            arch.chiplet.core.w_l1_bytes,
            arch.chiplet.a_l2_bytes,
        );
        let o_l2 = arch.chiplet.o_l2_bytes;
        let mut best: Option<(f64, u64)> = None;
        for c in cands {
            if let Some((e, cyc)) = score_candidate(c, a_l1, w_l1, a_l2, o_l2, arch, tech) {
                if best.map(|(be, _)| e < be).unwrap_or(true) {
                    best = Some((e, cyc));
                }
            }
        }
        best
    }
}

/// Runs the full Figure 15 sweep: every computation geometry times every
/// memory allocation of the space, returning the *valid* design points.
///
/// Repricing goes through the streaming struct-of-arrays engine
/// ([`baton_c3p::SweepLanes`]): each `(geometry, O-L1)` unit selects a
/// layer's corner-pruned candidates by branch-and-bound on per-pair corner
/// floors, resolves only the candidates that can still place once per
/// capacity rung into pooled thread-local lanes, and pays zero
/// steady-state allocation per design point. The retained
/// materialized path is [`full_sweep_reference`]; the two are bit-identical
/// (pinned by `tests/sweep_equivalence.rs`).
///
/// The `(geometry, O-L1)` units fan out over [`baton_parallel::map_chunks`]
/// workers; each unit fills a local point vector and the results are
/// spliced back in unit order, so the returned points are identical — order
/// included — for any `--threads` count.
pub fn full_sweep(model: &Model, tech: &Technology, opts: &SweepOptions) -> Vec<DesignPoint> {
    full_sweep_audited(model, tech, opts, &SweepAudit::disabled())
}

/// [`full_sweep`] with an audit trail.
///
/// When `audit` is enabled, every `(geometry, O-L1)` unit emits one `unit`
/// record (prune/memo/skip tallies, wall time) followed by one `point`
/// record per valid design point it produced, and the sweep closes with a
/// `summary` record. Records are emitted after the ordered splice, on the
/// calling thread, so the stream is identical for any worker count (wall
/// times aside) and `point` records match the returned vector one-to-one.
pub fn full_sweep_audited(
    model: &Model,
    tech: &Technology,
    opts: &SweepOptions,
    audit: &SweepAudit,
) -> Vec<DesignPoint> {
    full_sweep_with(&StreamingEngine, model, tech, opts, audit)
}

/// [`full_sweep`] on the materialized reference path: per-candidate
/// [`LayerProfiles`] re-resolved at every grid cell. Slower but maximally
/// direct — the ground truth the differential sweep-equivalence harness
/// holds the streaming engine to. Points, CSV bytes, audit records, and
/// telemetry counters are bit-identical to [`full_sweep`].
pub fn full_sweep_reference(
    model: &Model,
    tech: &Technology,
    opts: &SweepOptions,
) -> Vec<DesignPoint> {
    full_sweep_reference_audited(model, tech, opts, &SweepAudit::disabled())
}

/// [`full_sweep_reference`] with an audit trail (see [`full_sweep_audited`]
/// for the record contract).
pub fn full_sweep_reference_audited(
    model: &Model,
    tech: &Technology,
    opts: &SweepOptions,
    audit: &SweepAudit,
) -> Vec<DesignPoint> {
    full_sweep_with(&ReferenceEngine, model, tech, opts, audit)
}

/// The engine-generic sweep body shared by every `full_sweep*` entry point.
fn full_sweep_with<E: SweepEngine>(
    engine: &E,
    model: &Model,
    tech: &Technology,
    opts: &SweepOptions,
    audit: &SweepAudit,
) -> Vec<DesignPoint> {
    let _sweep_span = span("full_sweep");
    let t0 = std::time::Instant::now();
    let metered = baton_telemetry::metrics::enabled();
    let geometries = opts.space.compute.geometries_for(opts.total_macs);
    count_n(Counter::SweepGeometries, geometries.len() as u64);
    let units: Vec<((u32, u32, u32, u32), u64)> = geometries
        .iter()
        .flat_map(|&g| opts.space.memory.o_l1.iter().map(move |&o_l1| (g, o_l1)))
        .collect();
    let meter = Progress::new("full_sweep", units.len() as u64);
    let unit = |&(geometry, o_l1): &((u32, u32, u32, u32), u64)| {
        // Labelled per unit so a request trace (or `-vv` profile) can tell
        // which geometry a slow chunk was grinding on.
        let unit_span = span_labeled("sweep_geometry", || {
            let (np, nc, l, p) = geometry;
            format!("{np}x{nc}x{l}x{p}/o_l1={o_l1}")
        });
        let unit_t0 = std::time::Instant::now();
        let mut local = Vec::new();
        let mut stats = sweep_geometry(engine, model, tech, opts, geometry, o_l1, &mut local);
        stats.wall_us = unit_t0.elapsed().as_micros() as u64;
        if baton_telemetry::enabled() {
            let (np, nc, l, p) = geometry;
            event("sweep_unit")
                .u64("n_p", u64::from(np))
                .u64("n_c", u64::from(nc))
                .u64("lanes", u64::from(l))
                .u64("vector", u64::from(p))
                .u64("o_l1", o_l1)
                .u64("points", local.len() as u64)
                .u64("dur_us", unit_span.elapsed_us())
                .emit();
        }
        if metered {
            observe_unit("full", unit_t0.elapsed());
        }
        meter.tick(1);
        (local, stats)
    };
    // One unit per chunk: a unit is milliseconds of work, so the cursor
    // traffic is noise, and each chunk's result is its unit's own, with no
    // per-chunk vector to splice.
    let workers = baton_parallel::threads();
    let per_unit = baton_parallel::map_chunks(
        units.len(),
        workers,
        1,
        || (),
        |(), range| unit(&units[range.start]),
    );
    // The audit stream mirrors the splice: unit order, each unit record
    // followed by its points, regardless of which worker ran what.
    if audit.enabled() {
        for (&(geometry, o_l1), (local, stats)) in units.iter().zip(&per_unit) {
            audit.record(AuditRecord::Unit {
                geometry,
                o_l1,
                points: local.len() as u64,
                infeasible: stats.infeasible,
                skipped: stats.skipped,
                memo_hits: stats.memo_hits,
                memo_misses: stats.memo_misses,
                candidates: stats.candidates,
                kept: stats.kept,
                feasible: stats.feasible,
                wall_us: stats.wall_us,
            });
            for pt in local {
                audit.record(AuditRecord::Point {
                    geometry: pt.geometry,
                    memory: pt.memory,
                    chiplet_area_mm2: pt.chiplet_area_mm2,
                    energy_pj: pt.energy_pj,
                    cycles: pt.cycles,
                    edp_js: pt.edp(tech),
                });
            }
        }
    }
    let infeasible: u64 = per_unit.iter().map(|(_, s)| s.infeasible).sum();
    let points: Vec<DesignPoint> = per_unit.into_iter().flat_map(|(local, _)| local).collect();
    count_n(Counter::SweepPoints, points.len() as u64);
    if audit.enabled() {
        audit.record(AuditRecord::Summary {
            flow: "full",
            units: units.len() as u64,
            points: points.len() as u64,
            infeasible,
            wall_us: t0.elapsed().as_micros() as u64,
        });
    }
    if metered {
        observe_sweep("full", t0);
        publish_sweep_rates("full", points.len() as u64, t0.elapsed());
    }
    points
}

/// Per-unit exploration tallies, collected by [`sweep_geometry`] for the
/// audit trail. Cheap plain integers — maintained even when auditing is off
/// (branching per counter would cost more than the adds).
#[derive(Debug, Default, Clone, Copy)]
struct UnitStats {
    /// Memory configurations where some layer had no feasible candidate.
    infeasible: u64,
    /// `A-L1 >= A-L2` pairs dropped by the paper's skip rule.
    skipped: u64,
    /// Layer shapes answered from the unit's shape memo.
    memo_hits: u64,
    /// Layer shapes that built a fresh candidate set.
    memo_misses: u64,
    /// Candidates enumerated across fresh shapes (before pruning).
    candidates: u64,
    /// Candidates surviving corner pruning across fresh shapes.
    kept: u64,
    /// Whether every layer had a feasible candidate on this unit.
    feasible: bool,
    /// Unit wall time in microseconds (filled by the caller).
    wall_us: u64,
}

/// The reference machine of one `(geometry, O-L1)` unit: the most generous
/// memory of the space. Candidate mappings and their profiles are geometry
/// artifacts, independent of the swept buffer capacities.
fn unit_machine(
    opts: &SweepOptions,
    (np, nc, l, p): (u32, u32, u32, u32),
    o_l1: u64,
) -> PackageConfig {
    let m = &opts.space.memory;
    PackageConfig::new(
        np,
        ChipletConfig::new(
            nc,
            CoreConfig::new(
                l,
                p,
                o_l1,
                *m.a_l1.last().expect("non-empty a_l1"),
                *m.w_l1.last().expect("non-empty w_l1"),
            ),
            *m.a_l2.last().expect("non-empty a_l2"),
            opts.o_l2_bytes,
        ),
    )
}

/// Sweeps the (A-L1, W-L1, A-L2) grid for one `(geometry, O-L1)` pair.
fn sweep_geometry<E: SweepEngine>(
    engine: &E,
    model: &Model,
    tech: &Technology,
    opts: &SweepOptions,
    geometry: (u32, u32, u32, u32),
    o_l1: u64,
    points: &mut Vec<DesignPoint>,
) -> UnitStats {
    let mut stats = UnitStats::default();
    let (np, nc, l, p) = geometry;
    let reference = unit_machine(opts, geometry, o_l1);
    if validate(&reference).is_err() {
        return stats;
    }

    // Per-layer candidate sets, corner-pruned. Candidates depend only on a
    // layer's *shape* (and this unit's reference machine), so repeated
    // shapes — ResNet towers, VGG blocks — build their set exactly once.
    let memo: ShapeMemo<BuiltCands<E::Cands>> = ShapeMemo::new();
    let mut per_layer: Vec<Arc<BuiltCands<E::Cands>>> = Vec::with_capacity(model.layers().len());
    for layer in model.layers() {
        let mut built = false;
        let entry = memo.get_or_insert_with(layer.shape_key(), || {
            built = true;
            let b = engine.build(layer, &reference, tech, opts);
            stats.candidates += b.candidates;
            stats.kept += b.kept;
            b
        });
        if built {
            stats.memo_misses += 1;
        } else {
            stats.memo_hits += 1;
        }
        if !entry.feasible {
            return stats; // no feasible mapping for this geometry at any memory
        }
        per_layer.push(entry);
    }
    stats.feasible = true;

    let _grid = span("sweep_grid");
    for (a1, &a_l1) in opts.space.memory.a_l1.iter().enumerate() {
        for (w1, &w_l1) in opts.space.memory.w_l1.iter().enumerate() {
            for (a2, &a_l2) in opts.space.memory.a_l2.iter().enumerate() {
                // The paper's named skip rule: A-L1 below the shared A-L2.
                if a_l1 >= a_l2 {
                    stats.skipped += 1;
                    continue;
                }
                let arch = PackageConfig::new(
                    np,
                    ChipletConfig::new(
                        nc,
                        CoreConfig::new(l, p, o_l1, a_l1, w_l1),
                        a_l2,
                        opts.o_l2_bytes,
                    ),
                );
                let cell = Cell { a1, w1, a2 };
                let Some((energy_pj, cycles)) =
                    evaluate_model_at(engine, &per_layer, cell, &arch, tech)
                else {
                    count(Counter::SweepPointsInfeasible);
                    stats.infeasible += 1;
                    continue;
                };
                points.push(DesignPoint {
                    geometry,
                    memory: (o_l1, a_l1, w_l1, a_l2),
                    chiplet_area_mm2: tech.area.chiplet_mm2(&arch.chiplet),
                    energy_pj,
                    cycles,
                });
            }
        }
    }
    stats
}

/// Builds the candidate set for one layer on the reference machine.
fn layer_candidates(
    layer: &ConvSpec,
    reference: &PackageConfig,
    opts: &SweepOptions,
) -> Vec<Candidate> {
    let mut out = Vec::new();
    // Visitor enumeration: no intermediate `Vec<Mapping>` — each candidate
    // is decomposed (or rejected) as it is emitted.
    visit_candidates(layer, reference, opts.enum_options, |_geom_id, mapping| {
        let Ok(d) = decompose(layer, reference, &mapping) else {
            return;
        };
        let profiles = LayerProfiles::build(&d);
        let (a_l1_floor, o_l2_floor) = feasibility_floors(layer, reference, &mapping);
        out.push(Candidate {
            decomposition: d,
            profiles,
            a_l1_floor,
            o_l2_floor,
        });
    });
    out
}

/// Scores one candidate at explicit buffer capacities; `None` if infeasible.
fn score_candidate(
    c: &Candidate,
    a_l1: u64,
    w_l1: u64,
    a_l2: u64,
    o_l2: u64,
    geometry_arch: &PackageConfig,
    tech: &Technology,
) -> Option<(f64, u64)> {
    if c.a_l1_floor > a_l1 || c.o_l2_floor > o_l2 {
        return None;
    }
    let d = &c.decomposition;
    let eff_w = u64::from(d.plane_ways) * w_l1 * 8;
    if u64::from(d.lanes) * u64::from(d.vector) * 8 > eff_w {
        return None;
    }
    let access = resolve_at_capacities(d, &c.profiles, a_l1 * 8, a_l2 * 8, eff_w);
    let mut arch = *geometry_arch;
    arch.chiplet.core.a_l1_bytes = a_l1;
    arch.chiplet.core.w_l1_bytes = w_l1;
    arch.chiplet.a_l2_bytes = a_l2;
    arch.chiplet.o_l2_bytes = o_l2;
    let energy = price(&access, &arch, tech);
    let (cycles, _) = runtime_bound(d.compute_cycles, &access, &arch, tech);
    Some((energy.total_pj(), cycles))
}

/// Scores the whole model at one memory configuration: per-layer best
/// candidate, summed. `None` if any layer has no feasible candidate.
fn evaluate_model_at<E: SweepEngine>(
    engine: &E,
    per_layer: &[Arc<BuiltCands<E::Cands>>],
    cell: Cell,
    arch: &PackageConfig,
    tech: &Technology,
) -> Option<(f64, u64)> {
    let mut total_e = 0.0;
    let mut total_c = 0u64;
    for built in per_layer {
        let (e, cyc) = engine.best_layer_at(&built.cands, cell, arch, tech)?;
        total_e += e;
        total_c += cyc;
    }
    Some((total_e, total_c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use baton_model::zoo;
    use baton_parallel::TopK;
    use proptest::prelude::*;

    fn tiny_model() -> Model {
        // A 3-layer stand-in so the tests stay fast; the benches run the
        // full models.
        let r = zoo::resnet50(224);
        Model::new(
            "resnet50-slice",
            224,
            vec![
                r.layer("res2a_branch2a").cloned().unwrap(),
                r.layer("res2a_branch2b").cloned().unwrap(),
                r.layer("res4a_branch2c").cloned().unwrap(),
            ],
        )
    }

    #[test]
    fn granularity_sweep_covers_the_geometries() {
        let tech = Technology::paper_16nm();
        let results = granularity_sweep(
            &tiny_model(),
            &tech,
            2048,
            &ProportionalBuffers::default(),
            Some(2.0),
        );
        // Some geometries are infeasible (e.g. 16-lane machines on thin
        // layers), but the bulk of the 32 exact-product tuples must map.
        assert!(
            results.len() >= 25,
            "only {} geometries mapped",
            results.len()
        );
        // Area grows with per-chiplet MACs.
        let one: Vec<_> = results.iter().filter(|r| r.geometry.0 == 1).collect();
        let eight: Vec<_> = results.iter().filter(|r| r.geometry.0 == 8).collect();
        assert!(!one.is_empty() && !eight.is_empty());
        let a1 = one
            .iter()
            .map(|r| r.chiplet_area_mm2)
            .fold(f64::MAX, f64::min);
        let a8 = eight
            .iter()
            .map(|r| r.chiplet_area_mm2)
            .fold(f64::MAX, f64::min);
        assert!(a1 > a8, "1-chiplet {a1} mm^2 <= 8-chiplet {a8} mm^2");
    }

    #[test]
    fn fewer_chiplets_cost_less_energy_without_area_limits() {
        // Figure 14: "without any area constraint, the energy consumption is
        // generally higher with more chiplets."
        let tech = Technology::paper_16nm();
        let results = granularity_sweep(
            &tiny_model(),
            &tech,
            2048,
            &ProportionalBuffers::default(),
            None,
        );
        let best = |np: u32| {
            results
                .iter()
                .filter(|r| r.geometry.0 == np)
                .map(|r| r.energy_pj)
                .fold(f64::MAX, f64::min)
        };
        // The coarse sweep ladder leaves a little noise on tiny model
        // slices; the full-model claim is asserted (tightly) in
        // tests/paper_claims.rs.
        assert!(
            best(1) <= best(8) * 1.03,
            "1-chiplet {} >> 8-chiplet {}",
            best(1),
            best(8)
        );
    }

    #[test]
    fn full_sweep_produces_valid_points() {
        let tech = Technology::paper_16nm();
        let mut opts = SweepOptions {
            total_macs: 2048,
            ..SweepOptions::default()
        };
        // Shrink the memory grid for test speed.
        opts.space.memory.a_l1 = vec![1024, 32 * 1024];
        opts.space.memory.w_l1 = vec![18 * 1024, 144 * 1024];
        opts.space.memory.a_l2 = vec![64 * 1024, 256 * 1024];
        opts.space.memory.o_l1 = vec![144];
        let points = full_sweep(&tiny_model(), &tech, &opts);
        assert!(!points.is_empty());
        for pt in &points {
            let (np, nc, l, p) = pt.geometry;
            assert_eq!(
                u64::from(np) * u64::from(nc) * u64::from(l) * u64::from(p),
                2048
            );
            assert!(pt.energy_pj > 0.0 && pt.cycles > 0);
            assert!(pt.chiplet_area_mm2 > 0.0);
            // The skip rule held.
            assert!(pt.memory.1 < pt.memory.3);
        }
    }

    #[test]
    fn streaming_engine_matches_the_reference_engine() {
        // The in-crate smoke version of tests/sweep_equivalence.rs: the
        // default (streaming) sweep and the retained materialized path must
        // produce identical points — floats included.
        let tech = Technology::paper_16nm();
        let opts = small_sweep_opts();
        let model = tiny_model();
        let fast = full_sweep(&model, &tech, &opts);
        let slow = full_sweep_reference(&model, &tech, &opts);
        assert!(!fast.is_empty());
        assert_eq!(fast, slow);
    }

    #[test]
    fn full_sweep_is_bit_identical_across_thread_counts() {
        // The parallel fan-out's ordered splice must reproduce the
        // sequential sweep exactly: same points, same order, same floats.
        let tech = Technology::paper_16nm();
        let mut opts = SweepOptions {
            total_macs: 2048,
            ..SweepOptions::default()
        };
        opts.space.memory.a_l1 = vec![1024, 32 * 1024];
        opts.space.memory.w_l1 = vec![18 * 1024];
        opts.space.memory.a_l2 = vec![64 * 1024, 256 * 1024];
        opts.space.memory.o_l1 = vec![144];
        let model = tiny_model();
        baton_parallel::configure_threads(Some(1));
        let seq = full_sweep(&model, &tech, &opts);
        baton_parallel::configure_threads(Some(4));
        let par = full_sweep(&model, &tech, &opts);
        baton_parallel::configure_threads(None);
        assert!(!seq.is_empty());
        assert_eq!(seq, par);
    }

    #[test]
    fn sweep_fast_path_matches_direct_search() {
        // The profile-resolution fast path must agree with the end-to-end
        // post-design search at the same machine: the sweep uses a coarser,
        // pruned candidate set, so it can only be equal or slightly worse.
        let tech = Technology::paper_16nm();
        let model = tiny_model();
        let mut opts = SweepOptions {
            total_macs: 2048,
            ..SweepOptions::default()
        };
        opts.space.memory.o_l1 = vec![1536];
        opts.space.memory.a_l1 = vec![800];
        opts.space.memory.w_l1 = vec![18 * 1024];
        opts.space.memory.a_l2 = vec![64 * 1024];
        opts.space.compute.chiplets = vec![4];
        opts.space.compute.cores = vec![8];
        opts.space.compute.lanes = vec![8];
        opts.space.compute.vector = vec![8];
        let points = full_sweep(&model, &tech, &opts);
        assert_eq!(points.len(), 1);
        let sweep = &points[0];

        let arch = baton_arch::presets::case_study_accelerator();
        let direct = crate::postdesign::map_model(&model, &arch, &tech).unwrap();
        let ratio = sweep.energy_pj / direct.energy.total_pj();
        assert!(
            (0.95..1.6).contains(&ratio),
            "sweep {} vs direct {} (ratio {ratio})",
            sweep.energy_pj,
            direct.energy.total_pj()
        );
    }

    fn small_sweep_opts() -> SweepOptions {
        let mut opts = SweepOptions {
            total_macs: 2048,
            ..SweepOptions::default()
        };
        opts.space.memory.a_l1 = vec![1024, 32 * 1024];
        opts.space.memory.w_l1 = vec![18 * 1024];
        opts.space.memory.a_l2 = vec![64 * 1024, 256 * 1024];
        opts.space.memory.o_l1 = vec![144];
        opts
    }

    #[test]
    fn audit_point_records_reconcile_with_points_and_csv_rows() {
        // The acceptance contract: audit `point` records == points evaluated
        // == design-point CSV rows, exactly.
        let tech = Technology::paper_16nm();
        let opts = small_sweep_opts();
        let model = tiny_model();
        let audit = crate::audit::SweepAudit::in_memory();
        let points = full_sweep_audited(&model, &tech, &opts, &audit);
        assert!(!points.is_empty());
        assert_eq!(audit.point_records(), points.len() as u64);
        let csv = crate::csv::design_points_csv(&points, &tech);
        let rows = csv.lines().count() - 1; // header
        assert_eq!(rows as u64, audit.point_records());

        // Every point record mirrors its design point, in order; the unit
        // records cover every (geometry, o_l1) unit; the summary agrees.
        let records = audit.recent();
        let audit_points: Vec<_> = records
            .iter()
            .filter_map(|r| match r {
                crate::audit::AuditRecord::Point {
                    geometry,
                    memory,
                    cycles,
                    ..
                } => Some((*geometry, *memory, *cycles)),
                _ => None,
            })
            .collect();
        let expected: Vec<_> = points
            .iter()
            .map(|p| (p.geometry, p.memory, p.cycles))
            .collect();
        assert_eq!(audit_points, expected);
        let units = records
            .iter()
            .filter(|r| matches!(r, crate::audit::AuditRecord::Unit { .. }))
            .count();
        let geometries = opts.space.compute.geometries_for(opts.total_macs).len();
        assert_eq!(units, geometries * opts.space.memory.o_l1.len());
        let Some(crate::audit::AuditRecord::Summary {
            flow,
            units: u,
            points: p,
            ..
        }) = records.last()
        else {
            panic!("missing summary record: {:?}", records.last());
        };
        assert_eq!((*flow, *u, *p), ("full", units as u64, points.len() as u64));
    }

    #[test]
    fn audit_stream_is_deterministic_across_thread_counts() {
        // Same contract as the CSV: the record stream (wall clocks aside)
        // must not depend on the worker count.
        let tech = Technology::paper_16nm();
        let opts = small_sweep_opts();
        let model = tiny_model();
        let strip_walls = |audit: &crate::audit::SweepAudit| -> Vec<String> {
            audit
                .recent()
                .iter()
                .map(|r| {
                    let mut line = r.to_json();
                    if let Some(i) = line.find(",\"wall_us\"") {
                        line.truncate(i);
                    }
                    line
                })
                .collect()
        };
        baton_parallel::configure_threads(Some(1));
        let a1 = crate::audit::SweepAudit::in_memory();
        full_sweep_audited(&model, &tech, &opts, &a1);
        baton_parallel::configure_threads(Some(4));
        let a4 = crate::audit::SweepAudit::in_memory();
        full_sweep_audited(&model, &tech, &opts, &a4);
        baton_parallel::configure_threads(None);
        assert_eq!(strip_walls(&a1), strip_walls(&a4));
    }

    #[test]
    fn granularity_audit_covers_every_geometry() {
        let tech = Technology::paper_16nm();
        let audit = crate::audit::SweepAudit::in_memory();
        let results = granularity_sweep_audited(
            &tiny_model(),
            &tech,
            2048,
            &ProportionalBuffers::default(),
            Some(2.0),
            &audit,
        );
        let records = audit.recent();
        let bars = records
            .iter()
            .filter(|r| matches!(r, crate::audit::AuditRecord::Geometry { .. }))
            .count();
        let feasible = records
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    crate::audit::AuditRecord::Geometry { feasible: true, .. }
                )
            })
            .count();
        let space = DesignSpace::default();
        assert_eq!(bars, space.compute.geometries_for(2048).len());
        assert_eq!(feasible, results.len());
        assert!(matches!(
            records.last(),
            Some(crate::audit::AuditRecord::Summary {
                flow: "granularity",
                ..
            })
        ));
    }

    #[test]
    fn unit_stats_tally_the_inner_grid() {
        // One unit: 2x1x2 memory grid on a known-feasible geometry. The
        // skip rule (a_l1 >= a_l2) and the infeasible/point split must
        // partition the grid exactly.
        let tech = Technology::paper_16nm();
        let mut opts = small_sweep_opts();
        opts.space.compute.chiplets = vec![4];
        opts.space.compute.cores = vec![8];
        opts.space.compute.lanes = vec![8];
        opts.space.compute.vector = vec![8];
        // Force exactly one a_l1 >= a_l2 skip cell (32 KB A-L1, 16 KB A-L2)
        // while the reference machine (largest rungs) stays valid.
        opts.space.memory.a_l2 = vec![16 * 1024, 256 * 1024];
        let audit = crate::audit::SweepAudit::in_memory();
        let points = full_sweep_audited(&tiny_model(), &tech, &opts, &audit);
        let records = audit.recent();
        let Some(crate::audit::AuditRecord::Unit {
            points: up,
            infeasible,
            skipped,
            memo_hits,
            memo_misses,
            feasible,
            ..
        }) = records
            .iter()
            .find(|r| matches!(r, crate::audit::AuditRecord::Unit { .. }))
        else {
            panic!("no unit record");
        };
        assert!(*feasible);
        // Grid is 2 (a_l1) x 1 (w_l1) x 2 (a_l2) = 4 cells; 256K >= 64K
        // skips one cell, the rest are points or infeasible.
        assert_eq!(*skipped, 1);
        assert_eq!(*up + *infeasible + *skipped, 4);
        assert_eq!(*up, points.len() as u64);
        // The 3-layer tiny model has 3 distinct shapes: all misses.
        assert_eq!((*memo_hits, *memo_misses), (0, 3));
    }

    #[test]
    fn oversized_l1_memories_land_in_the_redundant_zone() {
        // Figure 15's grey trend line separates designs with "unnecessary
        // memories": growing an L1 beyond its last critical capacity only
        // adds area and per-access energy.
        let tech = Technology::paper_16nm();
        let mut opts = SweepOptions {
            total_macs: 2048,
            ..SweepOptions::default()
        };
        opts.space.memory.o_l1 = vec![144];
        opts.space.memory.a_l1 = vec![1024, 64 * 1024];
        opts.space.memory.w_l1 = vec![18 * 1024];
        opts.space.memory.a_l2 = vec![128 * 1024];
        opts.space.compute.chiplets = vec![4];
        opts.space.compute.cores = vec![4];
        opts.space.compute.lanes = vec![16];
        opts.space.compute.vector = vec![8];
        let points = full_sweep(&tiny_model(), &tech, &opts);
        assert_eq!(points.len(), 2);
        let small = points.iter().find(|p| p.memory.1 == 1024).unwrap();
        let big = points.iter().find(|p| p.memory.1 == 64 * 1024).unwrap();
        assert!(big.chiplet_area_mm2 > small.chiplet_area_mm2);
        // The oversized A-L1 pays more energy per access with no extra
        // reuse to harvest on these layers.
        assert!(big.energy_pj > small.energy_pj);
    }

    /// `scores[i]` is candidate `i`'s score (`None`: infeasible); both
    /// selections come back as `(score bits, index)` so NaNs compare.
    fn selections(scores: &[Option<f64>], k: usize) -> [Vec<(u64, usize)>; 2] {
        let scored = || {
            scores
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.map(|s| (s, i)))
        };
        let mut top = TopK::new(k);
        scored().for_each(|(s, i)| top.offer(s, i, ()));
        [
            top.entries()
                .iter()
                .map(|&(s, i, ())| (s.to_bits(), i))
                .collect(),
            sorted_top_k(scored(), k)
                .iter()
                .map(|&(s, i)| (s.to_bits(), i))
                .collect(),
        ]
    }

    #[test]
    fn bounded_selection_matches_the_full_stable_sort_on_fixed_cases() {
        let nan = f64::NAN;
        let cases: [Vec<Option<f64>>; 5] = [
            // Many equal scores: ties go to the earliest index.
            vec![Some(5.0); 12],
            vec![
                Some(3.0),
                None,
                Some(1.0),
                Some(3.0),
                Some(1.0),
                None,
                Some(2.0),
                Some(1.0),
            ],
            // A corner where every candidate is infeasible.
            vec![None; 9],
            // NaN, infinity and signed zeros, ordered by `total_cmp`.
            vec![
                Some(nan),
                Some(f64::INFINITY),
                Some(0.0),
                Some(nan),
                Some(-0.0),
                Some(1.0),
            ],
            Vec::new(),
        ];
        for scores in &cases {
            // `k = 0`, `k < n`, `k = n` and `k > n`.
            for k in [0, 1, 2, 3, scores.len(), scores.len() + 1, 100] {
                let [bounded, sorted] = selections(scores, k);
                assert_eq!(bounded, sorted, "{scores:?}, k {k}");
                assert_eq!(bounded.len(), k.min(scores.iter().flatten().count()));
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn bounded_selection_matches_the_full_stable_sort(
            raw in proptest::collection::vec(0u32..5, 0..60),
            k in 0usize..8
        ) {
            // Four score values (0 = infeasible) force heavy duplication.
            let scores: Vec<Option<f64>> =
                raw.iter().map(|&v| (v != 0).then(|| f64::from(v))).collect();
            let [bounded, sorted] = selections(&scores, k);
            proptest::prop_assert_eq!(bounded, sorted);
        }
    }

    /// Geometry tuples `(N_P, N_C, L, P)` for the unit-level checks.
    const GEOMETRIES: [(u32, u32, u32, u32); 4] =
        [(4, 8, 8, 8), (1, 4, 8, 8), (2, 16, 4, 4), (8, 1, 16, 16)];
    /// Ladders with starved rungs (A-L1 320 B, A-L2 2 KiB) and single-rung
    /// ladders, whose corners repeat.
    const A_L1S: [&[u64]; 3] = [&[320], &[320, 8 * 1024], &[1024, 8 * 1024, 128 * 1024]];
    const W_L1S: [&[u64]; 2] = [&[18 * 1024], &[2 * 1024, 256 * 1024]];
    const A_L2S: [&[u64]; 3] = [
        &[2 * 1024],
        &[2 * 1024, 256 * 1024],
        &[32 * 1024, 256 * 1024],
    ];

    /// What the unbounded selection keeps: every decomposable candidate
    /// scored at every corner, each corner's first `k` by a full stable
    /// sort.
    fn full_sort_keep(
        cands: &[Candidate],
        reference: &PackageConfig,
        opts: &SweepOptions,
        tech: &Technology,
    ) -> Vec<bool> {
        let m = &opts.space.memory;
        let mut keep = vec![false; cands.len()];
        for corner in corners(reference, opts) {
            let (a1, w1, a2) = corner.cell;
            let (a_l1, w_l1, a_l2) = (m.a_l1[a1], m.w_l1[w1], m.a_l2[a2]);
            let scored = cands.iter().enumerate().filter_map(|(i, c)| {
                let e = score_candidate(c, a_l1, w_l1, a_l2, opts.o_l2_bytes, &corner.arch, tech);
                let floor = Floors::of(&c.decomposition, &corner.arch, tech).energy_pj;
                assert!(
                    e.is_none_or(|(e, _)| floor <= e),
                    "floor {floor} above {e:?}"
                );
                e.map(|(e, _)| (e, i))
            });
            for (_, i) in sorted_top_k(scored, opts.keep_per_corner) {
                keep[i] = true;
            }
        }
        keep
    }

    /// Both engines' bounded corner selections for one layer on one unit
    /// keep exactly what [`full_sort_keep`] keeps: the reference engine the
    /// same candidates, the streaming engine lanes that score like them at
    /// every grid cell. Returns how many candidates the full sort kept.
    fn check_unit_selection(
        layer: &ConvSpec,
        geometry: (u32, u32, u32, u32),
        (a_l1, w_l1, a_l2): (&[u64], &[u64], &[u64]),
        k: usize,
    ) -> usize {
        let tech = Technology::paper_16nm();
        let mut opts = small_sweep_opts();
        opts.space.memory.a_l1 = a_l1.to_vec();
        opts.space.memory.w_l1 = w_l1.to_vec();
        opts.space.memory.a_l2 = a_l2.to_vec();
        opts.keep_per_corner = k;
        let reference = unit_machine(&opts, geometry, 144);
        if validate(&reference).is_err() {
            return 0;
        }
        let cands = layer_candidates(layer, &reference, &opts);
        let keep = full_sort_keep(&cands, &reference, &opts, &tech);
        let want: Vec<&Candidate> = cands
            .iter()
            .zip(&keep)
            .filter(|(_, &k)| k)
            .map(|(c, _)| c)
            .collect();

        let slow = ReferenceEngine.build(layer, &reference, &tech, &opts);
        assert_eq!(slow.candidates, cands.len() as u64);
        let got: Vec<&Decomposition> = slow.cands.iter().map(|c| &c.decomposition).collect();
        let expected: Vec<&Decomposition> = want.iter().map(|c| &c.decomposition).collect();
        assert_eq!(got, expected, "reference engine's kept set");

        let fast = StreamingEngine.build(layer, &reference, &tech, &opts);
        assert_eq!(
            (fast.candidates, fast.kept),
            (cands.len() as u64, want.len() as u64)
        );
        let m = &opts.space.memory;
        for (a1, &a_l1) in m.a_l1.iter().enumerate() {
            for (w1, &w_l1) in m.w_l1.iter().enumerate() {
                for (a2, &a_l2) in m.a_l2.iter().enumerate() {
                    let mut arch = reference;
                    arch.chiplet.core.a_l1_bytes = a_l1;
                    arch.chiplet.core.w_l1_bytes = w_l1;
                    arch.chiplet.a_l2_bytes = a_l2;
                    for (i, c) in want.iter().enumerate() {
                        assert_eq!(
                            fast.cands.score(i, (a1, w1, a2), &arch, &tech),
                            score_candidate(c, a_l1, w_l1, a_l2, opts.o_l2_bytes, &arch, &tech),
                            "kept lane {i} at ({a1},{w1},{a2})"
                        );
                    }
                }
            }
        }
        want.len()
    }

    #[test]
    fn bounded_selection_matches_the_full_stable_sort_on_zoo_units() {
        let mut kept = 0;
        for (_, layer) in zoo::representative_layers(224) {
            for ladders in [
                (A_L1S[0], W_L1S[0], A_L2S[0]),
                (A_L1S[2], W_L1S[1], A_L2S[2]),
            ] {
                kept += check_unit_selection(&layer, GEOMETRIES[0], ladders, 3);
            }
        }
        assert!(kept > 0);
    }

    /// Bounded random conv layers that cross the swept machines' lane and
    /// vector widths.
    fn layers() -> impl Strategy<Value = ConvSpec> {
        (
            7u32..=40,
            1u32..=96,
            0usize..3,
            1u32..=2,
            0u32..=2,
            1u32..=128,
        )
            .prop_filter_map("valid conv shape", |(hw, ci, ki, stride, pad, co)| {
                ConvSpec::new("prop", hw, hw, ci, [1u32, 3, 5][ki], stride, pad, co).ok()
            })
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn bounded_selection_matches_the_full_stable_sort_on_generated_units(
            layer in layers(),
            geo in 0..GEOMETRIES.len(),
            a1 in 0..A_L1S.len(),
            w1 in 0..W_L1S.len(),
            a2 in 0..A_L2S.len(),
            k in 0usize..5,
        ) {
            check_unit_selection(&layer, GEOMETRIES[geo], (A_L1S[a1], W_L1S[w1], A_L2S[a2]), k);
        }
    }
}

/// Sweeps the space for a *suite* of target workloads: a design point is
/// valid only if every model maps on it, and its merit is the summed energy
/// and runtime across the suite. This is the paper's pre-design scenario in
/// full ("with the given neural network workloads", Section IV-D).
pub fn full_sweep_suite(
    models: &[Model],
    tech: &Technology,
    opts: &SweepOptions,
) -> Vec<DesignPoint> {
    use std::collections::HashMap;
    /// A design point's identity in the sweep grid.
    type PointKey = ((u32, u32, u32, u32), (u64, u64, u64, u64));
    let mut joined: HashMap<PointKey, (DesignPoint, usize)> = HashMap::new();
    for model in models {
        for p in full_sweep(model, tech, opts) {
            joined
                .entry((p.geometry, p.memory))
                .and_modify(|(acc, n)| {
                    acc.energy_pj += p.energy_pj;
                    acc.cycles += p.cycles;
                    *n += 1;
                })
                .or_insert((p, 1));
        }
    }
    let mut out: Vec<DesignPoint> = joined
        .into_values()
        .filter_map(|(p, n)| (n == models.len()).then_some(p))
        .collect();
    out.sort_by(|a, b| {
        (a.geometry, a.memory)
            .partial_cmp(&(b.geometry, b.memory))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    out
}

#[cfg(test)]
mod suite_tests {
    use super::*;
    use baton_model::zoo;

    #[test]
    fn suite_sweep_sums_across_models() {
        let tech = Technology::paper_16nm();
        let mut opts = SweepOptions {
            total_macs: 2048,
            ..SweepOptions::default()
        };
        opts.space.memory.o_l1 = vec![144];
        opts.space.memory.a_l1 = vec![1024];
        opts.space.memory.w_l1 = vec![18 * 1024];
        opts.space.memory.a_l2 = vec![64 * 1024];
        opts.space.compute.chiplets = vec![4];
        opts.space.compute.cores = vec![4];
        opts.space.compute.lanes = vec![16];
        opts.space.compute.vector = vec![8];

        let slice = |name: &str| {
            let r = zoo::resnet50(224);
            Model::new(
                name.to_string(),
                224,
                vec![r.layer("res2a_branch2b").cloned().unwrap()],
            )
        };
        let a = slice("a");
        let b = slice("b");
        let single = full_sweep(&a, &tech, &opts);
        let suite = full_sweep_suite(&[a, b], &tech, &opts);
        assert_eq!(single.len(), 1);
        assert_eq!(suite.len(), 1);
        // Two identical workloads: exactly double the merit numbers.
        assert!((suite[0].energy_pj - 2.0 * single[0].energy_pj).abs() < 1e-6);
        assert_eq!(suite[0].cycles, 2 * single[0].cycles);
    }
}
