//! `sweep_dse`: the pre-design chiplet-granularity sweep of Figure 15.
//!
//! One operation is `dse::full_sweep` of alexnet@224 with the default
//! `SweepOptions` (4096 MACs, the Table II space), then the Pareto front on
//! (chiplet area, EDP) and the design-point CSV — what `baton sweep --csv`
//! does. Every operation does identical work; throughput is the design
//! points priced over the time spent on the operations.

use std::time::{Duration, Instant};

use nn_baton::dse::csv::write_design_points_csv;
use nn_baton::dse::{full_sweep, full_sweep_audited, pareto_front, AuditRecord, SweepAudit};
use nn_baton::dse::{DesignPoint, SweepOptions};
use nn_baton::model::Model;
use nn_baton::prelude::Technology;
use nn_baton::telemetry::{self, counters, Counter, TelemetryConfig};

use crate::stats;
use crate::{Args, Report, Setups};

const MODEL: &str = "alexnet";
const RES: u32 = 224;

pub struct Inputs {
    model: Model,
    tech: Technology,
    opts: SweepOptions,
}

/// A design point's geometry, memory allocation and EDP.
type Optimum = ((u32, u32, u32, u32), (u64, u64, u64, u64), f64);

/// What the oracle checks of one operation.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Summary {
    points: usize,
    front: usize,
    /// The lowest-EDP point within the area limit: geometry, memory, EDP.
    optimum: Option<Optimum>,
    csv_fnv: u64,
}

/// Builds the model and options and runs a small sweep (one chiplet count,
/// one O-L1 size) that fills the thread-local sweep lanes the timed
/// operations reuse.
pub fn setup() -> Result<Inputs, String> {
    let inputs = Inputs {
        model: nn_baton::serve::zoo_model(MODEL, RES)?,
        tech: Technology::paper_16nm(),
        opts: SweepOptions::default(),
    };
    let mut warm = SweepOptions::default();
    warm.space.compute.chiplets = vec![4];
    warm.space.memory.o_l1.truncate(1);
    if full_sweep(&inputs.model, &inputs.tech, &warm).is_empty() {
        return Err("warm-up sweep produced no design points".into());
    }
    Ok(inputs)
}

struct Output {
    points: Vec<DesignPoint>,
    front: Vec<usize>,
    csv: String,
}

/// Per-call timings of one operation.
#[derive(Default)]
struct Split {
    total: Duration,
    sweep: Duration,
    pareto: Duration,
    csv: Duration,
}

fn op(inputs: &Inputs, audit: &SweepAudit) -> (Output, Split) {
    let mut split = Split::default();
    let t0 = Instant::now();
    let points = if audit.enabled() {
        full_sweep_audited(&inputs.model, &inputs.tech, &inputs.opts, audit)
    } else {
        full_sweep(&inputs.model, &inputs.tech, &inputs.opts)
    };
    split.sweep = t0.elapsed();
    let tp = Instant::now();
    let front = pareto_front(&points, |p| (p.chiplet_area_mm2, p.edp(&inputs.tech)));
    split.pareto = tp.elapsed();
    let tc = Instant::now();
    let mut csv = String::with_capacity(points.len() * 96);
    // Writing into a String cannot fail.
    let _ = write_design_points_csv(&mut csv, &points, &inputs.tech);
    split.csv = tc.elapsed();
    split.total = t0.elapsed();
    (Output { points, front, csv }, split)
}

fn summarize(inputs: &Inputs, out: &Output) -> Summary {
    let limit = inputs.opts.area_limit_mm2.unwrap_or(f64::INFINITY);
    let optimum = out
        .points
        .iter()
        .filter(|p| p.chiplet_area_mm2 <= limit)
        .min_by(|a, b| a.edp(&inputs.tech).total_cmp(&b.edp(&inputs.tech)))
        .map(|p| (p.geometry, p.memory, p.edp(&inputs.tech)));
    Summary {
        points: out.points.len(),
        front: out.front.len(),
        optimum,
        csv_fnv: stats::fnv1a(out.csv.as_bytes()),
    }
}

/// Golden line for `golden.txt`.
pub fn golden_lines() -> Result<String, String> {
    let inputs = setup()?;
    let (out, _) = op(&inputs, &SweepAudit::disabled());
    let s = summarize(&inputs, &out);
    let ((np, nc, l, p), (o1, a1, w1, a2), edp) = s.optimum.ok_or("no optimum")?;
    Ok(format!(
        "# sweep_dse <model> <points> <front_size> <optimum N_P-N_C-L-P> <optimum O-L1,A-L1,W-L1,A-L2> <optimum edp_js> <csv fnv1a64>\n\
         sweep_dse {MODEL} {} {} {np}-{nc}-{l}-{p} {o1},{a1},{w1},{a2} {edp:?} {:016x}\n",
        s.points, s.front, s.csv_fnv
    ))
}

fn golden() -> Option<Summary> {
    let f = crate::golden_fields("sweep_dse", MODEL)?;
    let nums =
        |s: &str, sep: char| -> Option<Vec<u64>> { s.split(sep).map(|v| v.parse().ok()).collect() };
    let g = nums(f.get(2)?, '-')?;
    let m = nums(f.get(3)?, ',')?;
    let geometry = (
        u32::try_from(*g.first()?).ok()?,
        u32::try_from(*g.get(1)?).ok()?,
        u32::try_from(*g.get(2)?).ok()?,
        u32::try_from(*g.get(3)?).ok()?,
    );
    Some(Summary {
        points: f.first()?.parse().ok()?,
        front: f.get(1)?.parse().ok()?,
        optimum: Some((
            geometry,
            (*m.first()?, *m.get(1)?, *m.get(2)?, *m.get(3)?),
            f.get(4)?.parse().ok()?,
        )),
        csv_fnv: u64::from_str_radix(f.get(5)?, 16).ok()?,
    })
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let (mut setups, inputs) = Setups::start(args, setup)?;
    let golden = golden();
    if golden.is_none() {
        report.broken = true;
        report.note(format!("no golden entry for sweep_dse {MODEL}"));
    }
    let session = args
        .trace
        .then(|| telemetry::attach_with_sink(&TelemetryConfig::default(), None));
    let before = counters::snapshot();

    // Throughput counts every design point the sweep prices (the Table II
    // space at this MAC budget), valid or not.
    let swept = inputs.opts.space.sweep_size(inputs.opts.total_macs);
    let mut splits = Vec::new();
    let mut unit_us: Vec<f64> = Vec::new();
    // Time spent in the timed operations; the loop runs until it reaches
    // the run's seconds, with the oracle and set-up samples in between.
    let mut busy = Duration::ZERO;
    while busy < args.deadline() {
        // A fresh ring per sweep, large enough to keep every unit record
        // next to the point records.
        let audit = if args.trace {
            SweepAudit::new(1 << 16, None)
        } else {
            SweepAudit::disabled()
        };
        let (out, split) = op(&inputs, &audit);
        busy += split.total;
        // The oracle runs between operations, outside their timing.
        report.attempted += 1;
        let got = summarize(&inputs, &out);
        if let Some(g) = golden {
            if got != g {
                report.fail(format!("sweep: got {got:?}, golden {g:?}"));
            }
        }
        unit_us.extend(audit.recent().iter().filter_map(|r| match r {
            AuditRecord::Unit { wall_us, .. } => Some(*wall_us as f64),
            _ => None,
        }));
        splits.push((split, got));
        setups.poll(busy)?;
    }
    let delta = counters::snapshot().since(&before);
    drop(session);
    let (setup_s, setup_n) = setups.finish()?;
    let n = splits.len();
    report.note(format!(
        "closed loop, 1 client thread; {n} sweeps of {MODEL}@{RES}, {} MACs, Table II space ({swept} design points, {} valid)",
        inputs.opts.total_macs,
        splits.last().map_or(0, |(_, s)| s.points)
    ));
    let throughput = (swept * n) as f64 / busy.as_secs_f64();
    if !args.trace {
        report.metric("setup_s", setup_s, "s", setup_n);
        report.metric("throughput_per_s", throughput, "1/s", n);
        if let Some(rss) = stats::peak_rss_mb("self") {
            report.metric("peak_rss_mb", rss, "MiB", 1);
        }
        return Ok(report);
    }

    let per_op = |f: &dyn Fn(&Split) -> Duration| -> f64 {
        splits
            .iter()
            .map(|(s, _)| f(s).as_secs_f64() * 1e3)
            .sum::<f64>()
            / n.max(1) as f64
    };
    let (total, sweep) = (per_op(&|s| s.total), per_op(&|s| s.sweep));
    let (pareto, csv) = (per_op(&|s| s.pareto), per_op(&|s| s.csv));
    let ops = n.max(1) as f64;
    report.metric("trace.throughput_per_s", throughput, "1/s", n);
    report.metric("sweep.op_ms", total, "ms", n);
    report.metric("dse.sweep_ms", sweep, "ms", n);
    report.metric("dse.pareto_ms", pareto, "ms", n);
    report.metric("dse.csv_ms", csv, "ms", n);
    report.metric(
        "sweep.unattributed_ms",
        total - sweep - pareto - csv,
        "ms",
        n,
    );
    if let (Some(p50), Some((max, _))) = (
        stats::quantile(&unit_us, 0.5).map(|(v, _)| v),
        stats::quantile(&unit_us, 1.0),
    ) {
        report.metric("dse.sweep_unit_p50_us", p50, "us", unit_us.len());
        report.metric("dse.sweep_unit_max_us", max, "us", unit_us.len());
    }
    let last = splits.last().map(|(_, s)| *s);
    if let Some(s) = last {
        report.metric("dse.sweep_points", s.points as f64, "count", n);
        report.metric("dse.front_size", s.front as f64, "count", n);
    }
    let penalties = delta.get(Counter::PenaltyAL2)
        + delta.get(Counter::PenaltyAL1)
        + delta.get(Counter::PenaltyWL1);
    let decomposes = delta.get(Counter::DecomposeCalls) as f64;
    report.metric("c3p.penalty_resolves", penalties as f64 / ops, "count", n);
    report.metric("mapping.decompose_calls", decomposes / ops, "count", n);
    report.metric(
        "mapping.reject_share",
        (delta.rejects_plane() + delta.rejects_buffer()) as f64 / decomposes.max(1.0),
        "ratio",
        n,
    );
    report.note(
        "reconciliation: sweep.op_ms = dse.sweep_ms + dse.pareto_ms + dse.csv_ms + sweep.unattributed_ms"
            .to_string(),
    );
    Ok(report)
}
