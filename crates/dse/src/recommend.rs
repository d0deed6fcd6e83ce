//! The pre-design flow's final output: an architect-facing recommendation.
//!
//! Figure 9 of the paper ends the pre-design flow in an "output" box with
//! the optimal proposal; this module assembles it — the winning design
//! point, its memory allocation, the Pareto alternatives and the
//! manufacturing-cost estimate — into one report.

use std::fmt;

use baton_arch::{CostModel, Technology};
use baton_model::Model;
use serde::{Deserialize, Serialize};

use crate::pareto::{pareto_front, FRONT_SIZE};
use crate::predesign::{full_sweep, DesignPoint, SweepOptions};

/// The assembled pre-design recommendation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// Target model name.
    pub model: String,
    /// MAC budget swept.
    pub total_macs: u64,
    /// Chiplet-area constraint applied, if any.
    pub area_limit_mm2: Option<f64>,
    /// Valid design points examined.
    pub points_examined: usize,
    /// The EDP-optimal design under the constraint.
    pub winner: DesignPoint,
    /// The best design with a different chiplet count, for contrast.
    pub alternative: Option<DesignPoint>,
    /// The (area, EDP) Pareto front.
    pub pareto: Vec<DesignPoint>,
    /// Estimated package manufacturing cost of the winner in USD.
    pub winner_cost_usd: f64,
}

/// Runs the full sweep and assembles the recommendation. Returns `None` when
/// no design satisfies the constraint.
pub fn recommend(
    model: &Model,
    tech: &Technology,
    opts: &SweepOptions,
    cost: &CostModel,
) -> Option<Recommendation> {
    let points = full_sweep(model, tech, opts);
    let limit = opts.area_limit_mm2.unwrap_or(f64::MAX);
    let feasible: Vec<&DesignPoint> = points
        .iter()
        .filter(|p| p.chiplet_area_mm2 <= limit)
        .collect();
    let winner = (*feasible
        .iter()
        .min_by(|a, b| a.edp(tech).total_cmp(&b.edp(tech)))?)
    .clone();
    let alternative = feasible
        .iter()
        .filter(|p| p.geometry.0 != winner.geometry.0)
        .min_by(|a, b| a.edp(tech).total_cmp(&b.edp(tech)))
        .map(|p| (*p).clone());
    let front_idx = pareto_front(&points, |p| (p.chiplet_area_mm2, p.edp(tech)));
    FRONT_SIZE.set(&[("flow", "full")], front_idx.len() as f64);
    let pareto: Vec<DesignPoint> = front_idx.into_iter().map(|i| points[i].clone()).collect();
    let winner_cost_usd = cost.system_cost_usd(
        winner.chiplet_area_mm2 * f64::from(winner.geometry.0),
        winner.geometry.0,
    );
    Some(Recommendation {
        model: model.name().to_string(),
        total_macs: opts.total_macs,
        area_limit_mm2: opts.area_limit_mm2,
        points_examined: points.len(),
        winner,
        alternative,
        pareto,
        winner_cost_usd,
    })
}

impl fmt::Display for Recommendation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (np, nc, l, p) = self.winner.geometry;
        let (o1, a1, w1, a2) = self.winner.memory;
        writeln!(
            f,
            "recommendation for {} ({} MACs{}):",
            self.model,
            self.total_macs,
            match self.area_limit_mm2 {
                Some(a) => format!(", chiplet area <= {a} mm^2"),
                None => String::new(),
            }
        )?;
        writeln!(
            f,
            "  compute: {np} chiplets x {nc} cores x {l} lanes x {p}-wide vector MACs"
        )?;
        writeln!(
            f,
            "  memory:  O-L1 {o1} B, A-L1 {} KB, W-L1 {} KB, A-L2 {} KB",
            a1 / 1024,
            w1 / 1024,
            a2 / 1024
        )?;
        writeln!(
            f,
            "  chiplet: {:.2} mm^2, est. package cost ${:.2}",
            self.winner.chiplet_area_mm2, self.winner_cost_usd
        )?;
        writeln!(
            f,
            "  merit:   {:.1} uJ / inference, {} cycles (examined {} designs, \
             Pareto front {})",
            self.winner.energy_pj / 1e6,
            self.winner.cycles,
            self.points_examined,
            self.pareto.len()
        )?;
        if let Some(alt) = &self.alternative {
            writeln!(
                f,
                "  alternative: {:?} at {:.2} mm^2 ({:+.1}% EDP)",
                alt.geometry,
                alt.chiplet_area_mm2,
                100.0
                    * (alt.energy_pj * alt.cycles as f64
                        / (self.winner.energy_pj * self.winner.cycles as f64)
                        - 1.0)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baton_model::zoo;

    fn small_opts() -> SweepOptions {
        let mut opts = SweepOptions {
            total_macs: 2048,
            area_limit_mm2: Some(2.0),
            ..SweepOptions::default()
        };
        opts.space.memory.o_l1 = vec![144];
        opts.space.memory.a_l1 = vec![1024, 4 * 1024];
        opts.space.memory.w_l1 = vec![18 * 1024];
        opts.space.memory.a_l2 = vec![64 * 1024];
        opts
    }

    fn tiny_model() -> Model {
        let r = zoo::resnet50(224);
        Model::new(
            "resnet-slice",
            224,
            vec![
                r.layer("res2a_branch2b").cloned().unwrap(),
                r.layer("res4a_branch2a").cloned().unwrap(),
            ],
        )
    }

    #[test]
    fn recommendation_assembles_and_renders() {
        let tech = Technology::paper_16nm();
        let rec = recommend(
            &tiny_model(),
            &tech,
            &small_opts(),
            &CostModel::n16_default(),
        )
        .expect("a design fits 2 mm^2");
        assert!(rec.winner.chiplet_area_mm2 <= 2.0);
        assert!(rec.winner_cost_usd > 0.0);
        assert!(!rec.pareto.is_empty());
        let text = rec.to_string();
        assert!(text.contains("recommendation for resnet-slice"));
        assert!(text.contains("compute:"));
    }

    #[test]
    fn impossible_constraint_yields_none() {
        let tech = Technology::paper_16nm();
        let mut opts = small_opts();
        opts.area_limit_mm2 = Some(0.01);
        assert!(recommend(&tiny_model(), &tech, &opts, &CostModel::n16_default()).is_none());
    }

    #[test]
    fn winner_is_the_edp_minimum_among_feasible_points() {
        let tech = Technology::paper_16nm();
        let opts = small_opts();
        let rec = recommend(&tiny_model(), &tech, &opts, &CostModel::n16_default()).unwrap();
        let points = crate::predesign::full_sweep(&tiny_model(), &tech, &opts);
        assert_eq!(rec.points_examined, points.len());
        let best = points
            .iter()
            .filter(|p| p.chiplet_area_mm2 <= 2.0)
            .map(|p| p.edp(&tech))
            .fold(f64::INFINITY, f64::min);
        assert_eq!(rec.winner.edp(&tech), best);
        if let Some(alt) = &rec.alternative {
            assert!(alt.edp(&tech) >= rec.winner.edp(&tech));
        }
    }

    #[test]
    fn pareto_members_are_mutually_non_dominated() {
        let tech = Technology::paper_16nm();
        let rec = recommend(
            &tiny_model(),
            &tech,
            &small_opts(),
            &CostModel::n16_default(),
        )
        .unwrap();
        let key: Vec<(f64, f64)> = rec
            .pareto
            .iter()
            .map(|p| (p.chiplet_area_mm2, p.edp(&tech)))
            .collect();
        for (i, &(xi, yi)) in key.iter().enumerate() {
            for (j, &(xj, yj)) in key.iter().enumerate() {
                if i != j {
                    assert!(
                        !((xj <= xi && yj < yi) || (xj < xi && yj <= yi)),
                        "front member {j} dominates front member {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn alternative_has_a_different_chiplet_count() {
        let tech = Technology::paper_16nm();
        let rec = recommend(
            &tiny_model(),
            &tech,
            &small_opts(),
            &CostModel::n16_default(),
        )
        .unwrap();
        if let Some(alt) = &rec.alternative {
            assert_ne!(alt.geometry.0, rec.winner.geometry.0);
        }
    }
}
