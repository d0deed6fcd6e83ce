//! The post-design flow: per-layer optimal mapping on a fixed machine.
//!
//! "This flow produces a detailed mapping strategy for deploying the model on
//! hardware with spatial and temporal primitives. The spatial primitives
//! contain the partition dimension and the partition pattern, while temporal
//! primitives contain the loop order and loop counts. The reported
//! information can be potentially used for the optimization of the hardware
//! compiler." (Section IV-D)

use std::fmt;

use baton_arch::{PackageConfig, Technology};
use baton_c3p::{
    search_layer_memo, EnergyBreakdown, Evaluation, Objective, SearchError, SearchMemo,
    TrafficBounds,
};
use baton_mapping::decompose;
use baton_mapping::enumerate::EnumOptions;
use baton_model::Model;
use baton_telemetry::metrics::{kind, Family};
use baton_telemetry::{span_labeled, Progress};
use serde::{Deserialize, Serialize};

/// The per-layer result of the post-design flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerReport {
    /// Layer name.
    pub layer: String,
    /// The winning evaluation (mapping, access, energy, runtime).
    pub evaluation: Evaluation,
    /// Rendered loop nest (outermost first), for the compiler hand-off.
    pub nest: String,
}

/// The whole-model result of the post-design flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelReport {
    /// Model name.
    pub model: String,
    /// Per-layer reports in execution order.
    pub layers: Vec<LayerReport>,
    /// Model-level energy breakdown (sum of layers).
    pub energy: EnergyBreakdown,
    /// Model-level runtime in cycles (sum of layers).
    pub cycles: u64,
}

impl ModelReport {
    /// Energy-delay product in joule-seconds.
    pub fn edp(&self, tech: &Technology) -> f64 {
        self.energy.total_pj() * 1e-12 * tech.cycles_to_seconds(self.cycles)
    }

    /// The report of one layer by name.
    pub fn layer(&self, name: &str) -> Option<&LayerReport> {
        self.layers.iter().find(|l| l.layer == name)
    }

    /// Average MAC utilization weighted by layer cycles.
    pub fn utilization(&self, arch: &PackageConfig) -> f64 {
        let macs: u64 = self
            .layers
            .iter()
            .map(|l| l.evaluation.access.mac_ops)
            .sum();
        macs as f64 / (self.cycles as f64 * arch.total_macs() as f64)
    }

    /// Per-layer optimality gaps against the compulsory-traffic and
    /// peak-throughput floors: `(layer, dram_gap, runtime_gap)`, both >= 1.0.
    /// Large DRAM gaps flag layers where the machine's buffers force
    /// reloads; large runtime gaps flag utilization losses.
    pub fn optimality_gaps(&self, model: &Model, arch: &PackageConfig) -> Vec<(String, f64, f64)> {
        self.layers
            .iter()
            .filter_map(|l| {
                let layer = model.layer(&l.layer)?;
                let b = TrafficBounds::of(layer, arch);
                Some((
                    l.layer.clone(),
                    b.dram_gap(&l.evaluation),
                    b.runtime_gap(&l.evaluation),
                ))
            })
            .collect()
    }
}

impl fmt::Display for ModelReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} layers, {:.1} uJ, {} cycles",
            self.model,
            self.layers.len(),
            self.energy.total_uj(),
            self.cycles
        )?;
        for l in &self.layers {
            writeln!(
                f,
                "  {:24} {:8} {:10.1} uJ {:>12} cyc  util {:4.1}%",
                l.layer,
                l.evaluation.mapping.spatial_tag(),
                l.evaluation.energy.total_uj(),
                l.evaluation.cycles,
                100.0 * l.evaluation.utilization,
            )?;
        }
        Ok(())
    }
}

/// Maps every layer of `model` on `arch`, minimizing per-layer energy (the
/// paper's objective: "NN-Baton provides a distinct mapping strategy
/// layer-wise to minimize the overall energy cost").
///
/// # Errors
///
/// Returns [`SearchError`] for the first layer with no feasible mapping.
pub fn map_model(
    model: &Model,
    arch: &PackageConfig,
    tech: &Technology,
) -> Result<ModelReport, SearchError> {
    map_model_with(model, arch, tech, Objective::Energy)
}

/// Maps every layer with an explicit objective.
///
/// # Errors
///
/// Returns [`SearchError`] for the first layer with no feasible mapping.
pub fn map_model_with(
    model: &Model,
    arch: &PackageConfig,
    tech: &Technology,
    objective: Objective,
) -> Result<ModelReport, SearchError> {
    map_model_opts(model, arch, tech, objective, EnumOptions::default())
}

/// Layers mapped by [`map_model_opts`], by model.
const LAYERS_MAPPED: Family<kind::Counter> = Family::counter(
    "baton_layers_mapped_total",
    "Layers mapped by the post-design flow, by model.",
);

/// Whole-model [`map_model_opts`] latency, by model.
const MAP_SECONDS: Family<kind::Histogram> = Family::histogram(
    "baton_map_duration_seconds",
    "Whole-model post-design mapping latency by model.",
);

/// Maps every layer with explicit enumeration options. Hardware sweeps use a
/// coarser candidate ladder here so the per-geometry search stays tractable.
///
/// Repeated layer shapes (ResNet towers, VGG blocks) are searched once per
/// call through a [`SearchMemo`]; the winning mapping of a shape is shared
/// by every layer of that shape, which is exact — the search depends on the
/// shape and machine only, never on the layer's name or position.
///
/// # Errors
///
/// Returns [`SearchError`] for the first layer with no feasible mapping.
pub fn map_model_opts(
    model: &Model,
    arch: &PackageConfig,
    tech: &Technology,
    objective: Objective,
    opts: EnumOptions,
) -> Result<ModelReport, SearchError> {
    let timer = MAP_SECONDS.timer();
    let meter = Progress::new("map_model", model.layers().len() as u64);
    let memo = SearchMemo::new();
    let mut layers = Vec::with_capacity(model.layers().len());
    let mut energy = EnergyBreakdown::default();
    let mut cycles = 0u64;
    for layer in model.layers() {
        let mut layer_span = span_labeled("map_layer", || layer.name().to_string());
        let ev = search_layer_memo(&memo, layer, arch, tech, objective, opts)?;
        let nest = decompose(layer, arch, &ev.mapping)
            .map(|d| d.nest.render())
            .unwrap_or_default();
        layer_span.event("map_layer", |e| {
            e.str("layer", layer.name())
                .str("mapping", &ev.mapping.spatial_tag())
                .f64("energy_pj", ev.energy.total_pj())
                .u64("cycles", ev.cycles)
        });
        energy += ev.energy;
        cycles += ev.cycles;
        layers.push(LayerReport {
            layer: layer.name().to_string(),
            evaluation: ev,
            nest,
        });
        meter.tick(1);
    }
    // Model names come from the fixed zoo (or one user-supplied spec file
    // per process), so the label stays low-cardinality.
    let labels = [("model", model.name())];
    LAYERS_MAPPED.add(&labels, layers.len() as u64);
    timer.observe(&labels);
    Ok(ModelReport {
        model: model.name().to_string(),
        layers,
        energy,
        cycles,
    })
}

/// One layer's DES cross-check of its post-design winner: the full event
/// trace plus the analytical prediction it is judged against. This is the
/// data source of the Perfetto timeline export (`baton map
/// --trace-perfetto`).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSim {
    /// Layer name.
    pub layer: String,
    /// The analytical C³P runtime prediction in cycles.
    pub analytical_cycles: u64,
    /// The DES timing report.
    pub sim: baton_sim::SimReport,
    /// The DES event trace (tile load/compute/writeback lifecycles).
    pub trace: baton_sim::Trace,
}

/// Replays every winning mapping of a post-design [`ModelReport`] through
/// the discrete-event simulator, layer by layer, collecting the traces and
/// the analytical-vs-simulated cycle pair per layer.
///
/// # Errors
///
/// Returns a description of the first layer that is missing from `model` or
/// whose stored mapping the simulator rejects (both indicate the report was
/// produced on a different model/machine).
pub fn simulate_mapped(
    model: &Model,
    report: &ModelReport,
    arch: &PackageConfig,
    tech: &Technology,
) -> Result<Vec<LayerSim>, String> {
    let mut out = Vec::with_capacity(report.layers.len());
    for l in &report.layers {
        let layer = model
            .layer(&l.layer)
            .ok_or_else(|| format!("layer `{}` not in model `{}`", l.layer, model.name()))?;
        let (sim, trace) = baton_sim::simulate_traced(layer, arch, tech, &l.evaluation.mapping)
            .map_err(|e| format!("layer `{}`: {e}", l.layer))?;
        out.push(LayerSim {
            layer: l.layer.clone(),
            analytical_cycles: l.evaluation.cycles,
            sim,
            trace,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use baton_arch::presets;
    use baton_model::zoo;

    fn setup() -> (PackageConfig, Technology) {
        (presets::case_study_accelerator(), Technology::paper_16nm())
    }

    #[test]
    fn maps_darknet_end_to_end() {
        let (arch, tech) = setup();
        let model = zoo::darknet19(224);
        let r = map_model(&model, &arch, &tech).unwrap();
        assert_eq!(r.layers.len(), 19);
        // Totals are sums of the layers.
        let sum: f64 = r
            .layers
            .iter()
            .map(|l| l.evaluation.energy.total_pj())
            .sum();
        assert!((sum - r.energy.total_pj()).abs() / sum < 1e-9);
        let cyc: u64 = r.layers.iter().map(|l| l.evaluation.cycles).sum();
        assert_eq!(cyc, r.cycles);
        assert!(r.edp(&tech) > 0.0);
        let u = r.utilization(&arch);
        assert!(u > 0.0 && u <= 1.0);
    }

    #[test]
    fn layerwise_strategies_differ_across_layer_types() {
        // "According to each layer's parameter characteristics, NN-Baton
        // provides a distinct mapping strategy layer-wise."
        let (arch, tech) = setup();
        let model = zoo::vgg16(224);
        let r = map_model(&model, &arch, &tech).unwrap();
        let tags: std::collections::BTreeSet<String> = r
            .layers
            .iter()
            .map(|l| l.evaluation.mapping.spatial_tag())
            .collect();
        assert!(tags.len() >= 2, "only one strategy used: {tags:?}");
    }

    #[test]
    fn optimality_gaps_are_bounded_and_finite() {
        let (arch, tech) = setup();
        let model = zoo::darknet19(224);
        let r = map_model(&model, &arch, &tech).unwrap();
        let gaps = r.optimality_gaps(&model, &arch);
        assert_eq!(gaps.len(), model.layers().len());
        for (name, dram, runtime) in gaps {
            assert!(dram >= 1.0, "{name}: dram gap {dram}");
            assert!(runtime >= 1.0, "{name}: runtime gap {runtime}");
            assert!(dram < 20.0 && runtime < 50.0, "{name}: absurd gap");
        }
    }

    #[test]
    fn simulate_mapped_replays_every_layer() {
        let (arch, tech) = setup();
        let model = zoo::alexnet(224);
        let r = map_model(&model, &arch, &tech).unwrap();
        let sims = simulate_mapped(&model, &r, &arch, &tech).unwrap();
        assert_eq!(sims.len(), r.layers.len());
        for s in &sims {
            assert!(s.sim.total_cycles > 0);
            assert!(s.analytical_cycles > 0);
            s.trace.check_lifecycles().unwrap();
            assert_eq!(
                r.layer(&s.layer).unwrap().evaluation.cycles,
                s.analytical_cycles
            );
        }
        assert!(r.layer("definitely-not-a-layer").is_none());
        // A report replayed against the wrong model names the missing layer.
        let err = simulate_mapped(&zoo::vgg16(224), &r, &arch, &tech).unwrap_err();
        assert!(err.contains("conv1"), "{err}");
    }

    #[test]
    fn report_renders_nests_and_table() {
        let (arch, tech) = setup();
        let model = zoo::resnet50(224);
        let r = map_model(&model, &arch, &tech).unwrap();
        let text = r.to_string();
        assert!(text.contains("res2a_branch2b"));
        let nest = &r.layers[0].nest;
        assert!(nest.contains("for"), "{nest}");
    }
}
