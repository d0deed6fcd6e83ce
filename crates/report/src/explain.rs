//! Mapping explainability: *why* the post-design search picked a winner.
//!
//! `baton map` prints the winner; this module reconstructs its full story:
//! the hierarchical loop nest the mapping induces, the C³P verdict of every
//! buffer (which critical capacities were tested, which penalties fired),
//! the per-memory-level access counts that resulted, the energy split, and
//! how close the runner-up mappings came.

use std::fmt::Write as _;

use baton_arch::{PackageConfig, Technology};
use baton_c3p::{
    buffer_verdicts, search_layer_k_best, BufferVerdict, Evaluation, Objective, SearchError,
};
use baton_mapping::{decompose, LoopNest, Mapping};
use baton_model::ConvSpec;
use baton_telemetry::json::ObjectWriter;

use crate::render::Format;

/// A near-optimal mapping the search rejected, with its distance from the
/// winner under the search objective.
#[derive(Debug, Clone, PartialEq)]
pub struct RunnerUp {
    /// Rank in the search order (the winner is rank 1).
    pub rank: usize,
    /// The rejected mapping.
    pub mapping: Mapping,
    /// Objective score (lower is better).
    pub score: f64,
    /// Score distance from the winner in percent (>= 0).
    pub delta_pct: f64,
    /// Total energy in microjoules.
    pub energy_uj: f64,
    /// Runtime in cycles.
    pub cycles: u64,
}

/// The complete explanation of one layer's winning mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerExplanation {
    /// Layer name.
    pub layer: String,
    /// The objective the search minimized.
    pub objective: Objective,
    /// The winning evaluation (mapping, access counts, energy, runtime).
    pub evaluation: Evaluation,
    /// The temporal loop nest the winner induces (innermost first).
    pub nest: LoopNest,
    /// Per-buffer C³P verdicts in resolution order.
    pub verdicts: Vec<BufferVerdict>,
    /// The best rejected mappings, best first.
    pub runner_ups: Vec<RunnerUp>,
    /// Chiplets in the package (spatial context for rendering).
    pub chiplets: u32,
    /// Cores per chiplet.
    pub cores: u32,
}

/// Searches `layer` and explains the winner, keeping the `top_k` best
/// runner-ups (the plain search discards them).
///
/// # Errors
///
/// Returns [`SearchError`] if every candidate mapping is infeasible.
pub fn explain_layer(
    layer: &ConvSpec,
    arch: &PackageConfig,
    tech: &Technology,
    objective: Objective,
    top_k: usize,
) -> Result<LayerExplanation, SearchError> {
    let ranked = search_layer_k_best(layer, arch, tech, objective, top_k.saturating_add(1))?;
    let winner = ranked[0].clone();
    let winner_score = objective.score(&winner, tech);
    let d = decompose(layer, arch, &winner.mapping)
        .expect("the search winner always decomposes on the machine it won on");
    let verdicts = buffer_verdicts(&d, arch);
    let runner_ups = ranked[1..]
        .iter()
        .enumerate()
        .map(|(i, ev)| {
            let score = objective.score(ev, tech);
            RunnerUp {
                rank: i + 2,
                mapping: ev.mapping,
                score,
                delta_pct: 100.0 * (score - winner_score) / winner_score.max(f64::MIN_POSITIVE),
                energy_uj: ev.energy.total_uj(),
                cycles: ev.cycles,
            }
        })
        .collect();
    Ok(LayerExplanation {
        layer: layer.name().to_string(),
        objective,
        nest: d.nest.clone(),
        evaluation: winner,
        verdicts,
        runner_ups,
        chiplets: arch.chiplets,
        cores: arch.chiplet.cores,
    })
}

/// Formats a bit count with binary-prefixed units (`Kb`, `Mb`, `Gb`).
fn fmt_bits(bits: u64) -> String {
    const K: f64 = 1024.0;
    let b = bits as f64;
    if b >= K * K * K {
        format!("{:.2} Gb", b / (K * K * K))
    } else if b >= K * K {
        format!("{:.2} Mb", b / (K * K))
    } else if b >= K {
        format!("{:.1} Kb", b / K)
    } else {
        format!("{bits} b")
    }
}

/// Formats a buffer capacity given in bits as bytes (`B`, `KB`, `MB`), the
/// unit the paper specifies buffer sizes in.
fn fmt_capacity(bits: u64) -> String {
    let bytes = bits / 8;
    if bytes >= 1024 * 1024 {
        format!("{:.1} MB", bytes as f64 / (1024.0 * 1024.0))
    } else if bytes >= 1024 {
        format!("{:.1} KB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

impl LayerExplanation {
    /// The labeled per-memory-level access rows, resolution order.
    fn access_rows(&self) -> [(&'static str, u64); 10] {
        let a = &self.evaluation.access;
        [
            ("dram_input", a.dram_input_bits),
            ("dram_weight", a.dram_weight_bits),
            ("dram_output", a.dram_output_bits),
            ("d2d_ring", a.d2d_bits),
            ("a_l2", a.a_l2_bits),
            ("o_l2", a.o_l2_bits),
            ("a_l1", a.a_l1_bits),
            ("w_l1", a.w_l1_bits),
            ("o_l1_rmw", a.o_l1_rmw_bits),
            ("mac_ops", a.mac_ops),
        ]
    }

    /// Renders the explanation in the requested format.
    pub fn render(&self, format: Format) -> String {
        match format {
            Format::Text => self.render_text(),
            Format::Markdown => self.render_markdown(),
            Format::Json => self.render_json(),
        }
    }

    fn render_text(&self) -> String {
        let ev = &self.evaluation;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "layer {}  (objective: {})",
            self.layer,
            self.objective.label()
        );
        let _ = writeln!(out, "  winner: {}", ev.mapping);
        let _ = writeln!(
            out,
            "  spatial: {} across {} chiplets, {} across {} cores; rotation {}",
            ev.mapping.package, self.chiplets, ev.mapping.chiplet, self.cores, ev.mapping.rotation
        );
        let _ = writeln!(
            out,
            "  result: {:.2} uJ, {} cycles (compute {}), utilization {:.1}%",
            ev.energy.total_uj(),
            ev.cycles,
            ev.compute_cycles,
            100.0 * ev.utilization
        );

        out.push_str("\nloop nest (outermost first; chip = package temporal, core = chiplet temporal, rot = rotation):\n");
        if self.nest.is_empty() {
            out.push_str("  (single step: the whole workload fits one tile)\n");
        } else {
            for line in self.nest.render().lines() {
                let _ = writeln!(out, "  {line}");
            }
        }

        out.push_str("\nC3P buffer verdicts (Cc_k vs capacity; * = penalty fired):\n");
        let _ = writeln!(
            out,
            "  {:<10} {:<20} {:>10} {:>12} {:>12} {:>8}",
            "buffer", "path", "capacity", "base", "resolved", "penalty"
        );
        for v in &self.verdicts {
            let _ = writeln!(
                out,
                "  {:<10} {:<20} {:>10} {:>12} {:>12} {:>7}x",
                v.buffer,
                v.path,
                fmt_capacity(v.capacity_bits),
                fmt_bits(v.base_bits),
                fmt_bits(v.resolved_bits),
                v.fired_multiplier
            );
            for (k, bp) in v.breakpoints.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  {:<10} {:>4} Cc_{} = {:>10}  P = {}{}",
                    "",
                    "",
                    k + 1,
                    fmt_capacity(bp.cc_bits),
                    bp.multiplier,
                    if bp.fired { "  *fired*" } else { "  (covered)" }
                );
            }
        }

        out.push_str("\naccess counts:\n");
        for (name, bits) in self.access_rows() {
            if name == "mac_ops" {
                let _ = writeln!(out, "  {name:<12} {bits:>16} ops");
            } else {
                let _ = writeln!(
                    out,
                    "  {:<12} {:>16} bits  ({})",
                    name,
                    bits,
                    fmt_bits(bits)
                );
            }
        }

        let _ = writeln!(out, "\nenergy split: {:.2} uJ total", ev.energy.total_uj());
        let total = ev.energy.total_pj().max(f64::MIN_POSITIVE);
        for (name, pj) in ev.energy.buckets() {
            let _ = writeln!(
                out,
                "  {:<6} {:>12.2} uJ  {:>5.1}%",
                name,
                pj / 1e6,
                100.0 * pj / total
            );
        }

        if !self.runner_ups.is_empty() {
            out.push_str("\nrunner-up mappings (score delta vs winner):\n");
            for r in &self.runner_ups {
                let _ = writeln!(
                    out,
                    "  #{:<2} {:<8} +{:>6.2}%  {:>10.2} uJ  {:>12} cyc  {}",
                    r.rank,
                    r.mapping.spatial_tag(),
                    r.delta_pct,
                    r.energy_uj,
                    r.cycles,
                    r.mapping
                );
            }
        }
        out
    }

    fn render_markdown(&self) -> String {
        let ev = &self.evaluation;
        let mut out = String::new();
        let _ = writeln!(out, "## Layer `{}`\n", self.layer);
        let _ = writeln!(
            out,
            "- **objective**: {}\n- **winner**: `{}`\n- **result**: {:.2} uJ, {} cycles, {:.1}% utilization\n",
            self.objective.label(),
            ev.mapping,
            ev.energy.total_uj(),
            ev.cycles,
            100.0 * ev.utilization
        );
        out.push_str("### Loop nest\n\n```\n");
        if self.nest.is_empty() {
            out.push_str("(single step)\n");
        } else {
            out.push_str(&self.nest.render());
        }
        out.push_str("```\n\n### C3P buffer verdicts\n\n");
        out.push_str("| buffer | path | capacity | base | resolved | penalty | breakpoints |\n");
        out.push_str("|---|---|---|---|---|---|---|\n");
        for v in &self.verdicts {
            let bps: Vec<String> = v
                .breakpoints
                .iter()
                .map(|bp| {
                    format!(
                        "Cc {} -> P{}{}",
                        fmt_capacity(bp.cc_bits),
                        bp.multiplier,
                        if bp.fired { " (fired)" } else { "" }
                    )
                })
                .collect();
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {}x | {} |",
                v.buffer,
                v.path,
                fmt_capacity(v.capacity_bits),
                fmt_bits(v.base_bits),
                fmt_bits(v.resolved_bits),
                v.fired_multiplier,
                if bps.is_empty() {
                    "flat".to_string()
                } else {
                    bps.join("; ")
                }
            );
        }
        out.push_str("\n### Access counts\n\n| level | bits |\n|---|---|\n");
        for (name, bits) in self.access_rows() {
            let _ = writeln!(out, "| {name} | {bits} |");
        }
        let _ = writeln!(
            out,
            "\n### Energy split ({:.2} uJ total)\n\n| bucket | uJ | share |\n|---|---|---|",
            ev.energy.total_uj()
        );
        let total = ev.energy.total_pj().max(f64::MIN_POSITIVE);
        for (name, pj) in ev.energy.buckets() {
            let _ = writeln!(
                out,
                "| {} | {:.2} | {:.1}% |",
                name,
                pj / 1e6,
                100.0 * pj / total
            );
        }
        if !self.runner_ups.is_empty() {
            out.push_str("\n### Runner-ups\n\n| rank | mapping | delta | energy (uJ) | cycles |\n|---|---|---|---|---|\n");
            for r in &self.runner_ups {
                let _ = writeln!(
                    out,
                    "| {} | `{}` | +{:.2}% | {:.2} | {} |",
                    r.rank, r.mapping, r.delta_pct, r.energy_uj, r.cycles
                );
            }
        }
        out
    }

    /// JSON lines: one flat object per record. Record kinds: `layer`,
    /// `loop`, `buffer`, `breakpoint`, `access`, `energy`, `runner_up`.
    fn render_json(&self) -> String {
        let ev = &self.evaluation;
        let mut out = String::new();

        let mut w = ObjectWriter::new();
        w.str("record", "layer")
            .str("layer", &self.layer)
            .str("objective", self.objective.label())
            .str("mapping", &ev.mapping.to_string())
            .str("spatial_tag", &ev.mapping.spatial_tag())
            .f64("energy_pj", ev.energy.total_pj())
            .u64("cycles", ev.cycles)
            .u64("compute_cycles", ev.compute_cycles)
            .f64("utilization", ev.utilization)
            .u64("chiplets", u64::from(self.chiplets))
            .u64("cores", u64::from(self.cores));
        out.push_str(&w.finish());
        out.push('\n');

        // Outermost first, to match the rendered nest.
        for (pos, l) in self.nest.loops().iter().rev().enumerate() {
            let mut w = ObjectWriter::new();
            w.str("record", "loop")
                .u64("depth", pos as u64)
                .str("dim", &l.dim.to_string())
                .u64("count", l.count)
                .str("level", &l.level.to_string());
            out.push_str(&w.finish());
            out.push('\n');
        }

        for v in &self.verdicts {
            let mut w = ObjectWriter::new();
            w.str("record", "buffer")
                .str("buffer", v.buffer)
                .str("path", v.path)
                .u64("capacity_bits", v.capacity_bits)
                .u64("base_bits", v.base_bits)
                .u64("resolved_bits", v.resolved_bits)
                .u64("fired_multiplier", v.fired_multiplier)
                .bool("penalty_free", v.penalty_free());
            out.push_str(&w.finish());
            out.push('\n');
            for (k, bp) in v.breakpoints.iter().enumerate() {
                let mut w = ObjectWriter::new();
                w.str("record", "breakpoint")
                    .str("buffer", v.buffer)
                    .str("path", v.path)
                    .u64("index", k as u64 + 1)
                    .u64("cc_bits", bp.cc_bits)
                    .u64("multiplier", bp.multiplier)
                    .bool("fired", bp.fired);
                out.push_str(&w.finish());
                out.push('\n');
            }
        }

        let mut w = ObjectWriter::new();
        w.str("record", "access");
        for (name, bits) in self.access_rows() {
            w.u64(name, bits);
        }
        out.push_str(&w.finish());
        out.push('\n');

        let mut w = ObjectWriter::new();
        w.str("record", "energy")
            .f64("total_pj", ev.energy.total_pj());
        for (name, pj) in ev.energy.buckets() {
            w.f64(&name.to_lowercase(), pj);
        }
        out.push_str(&w.finish());
        out.push('\n');

        for r in &self.runner_ups {
            let mut w = ObjectWriter::new();
            w.str("record", "runner_up")
                .u64("rank", r.rank as u64)
                .str("mapping", &r.mapping.to_string())
                .str("spatial_tag", &r.mapping.spatial_tag())
                .f64("score", r.score)
                .f64("delta_pct", r.delta_pct)
                .f64("energy_uj", r.energy_uj)
                .u64("cycles", r.cycles);
            out.push_str(&w.finish());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baton_arch::presets;
    use baton_model::zoo;
    use baton_telemetry::json::parse_flat_object;

    fn explain() -> LayerExplanation {
        let arch = presets::case_study_accelerator();
        let tech = Technology::paper_16nm();
        let layer = zoo::resnet50(224).layer("res2a_branch2b").cloned().unwrap();
        explain_layer(&layer, &arch, &tech, Objective::Energy, 3).unwrap()
    }

    #[test]
    fn explanation_is_complete_and_consistent() {
        let e = explain();
        assert_eq!(e.verdicts.len(), 5);
        assert!(e.runner_ups.len() <= 3);
        // Runner-ups are sorted and no better than the winner.
        let mut last = 0.0;
        for r in &e.runner_ups {
            assert!(r.delta_pct >= last - 1e-9, "unsorted runner-ups");
            last = r.delta_pct;
            assert!(r.rank >= 2);
        }
        // The verdict-resolved traffic matches the winner's access counts.
        assert_eq!(
            e.verdicts[0].resolved_bits,
            e.evaluation.access.dram_input_bits
        );
    }

    #[test]
    fn text_and_markdown_render_every_section() {
        let e = explain();
        let text = e.render(Format::Text);
        for needle in [
            "loop nest",
            "C3P buffer verdicts",
            "access counts",
            "energy split",
            "A-L2",
            "W-L1 pool",
        ] {
            assert!(text.contains(needle), "text lacks `{needle}`:\n{text}");
        }
        let md = e.render(Format::Markdown);
        assert!(md.contains("## Layer"));
        assert!(md.contains("| buffer | path |"));
        assert!(md.contains("```"));
    }

    #[test]
    fn json_lines_parse_flat_and_cover_all_records() {
        let e = explain();
        let json = e.render(Format::Json);
        let mut kinds = std::collections::BTreeSet::new();
        for line in json.lines() {
            let obj = parse_flat_object(line).unwrap_or_else(|err| panic!("{err}: {line}"));
            kinds.insert(obj["record"].as_str().unwrap().to_string());
        }
        for kind in ["layer", "buffer", "access", "energy"] {
            assert!(kinds.contains(kind), "missing `{kind}` record");
        }
    }

    #[test]
    fn unit_formatting_is_stable() {
        assert_eq!(fmt_bits(512), "512 b");
        assert_eq!(fmt_bits(2048), "2.0 Kb");
        assert_eq!(fmt_bits(3 * 1024 * 1024), "3.00 Mb");
        assert_eq!(fmt_capacity(64 * 1024 * 8), "64.0 KB");
        assert_eq!(fmt_capacity(256 * 8), "256 B");
    }
}
