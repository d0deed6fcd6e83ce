//! `map_zoo`: the post-design flow over the whole model zoo.
//!
//! One operation maps one model at res 224 on the case-study accelerator
//! (`dse::map_model`) and replays the winners through the DES
//! (`dse::simulate_mapped`) — the unit of work of `baton map` and
//! `baton fidelity`. A round visits all six models once in a seeded order,
//! so a run does the same mix of work whatever the seed; throughput is the
//! models mapped over the time spent mapping them.

use std::time::{Duration, Instant};

use nn_baton::dse::{map_model, simulate_mapped, LayerSim, ModelReport};
use nn_baton::mapping::enumerate::{enumerate_into, EnumOptions};
use nn_baton::model::Model;
use nn_baton::prelude::{presets, PackageConfig, Technology};
use nn_baton::telemetry::{self, counters, Counter, TelemetryConfig};

use crate::stats::{self, Rng};
use crate::{Args, Report, Setups};

pub const MODELS: [&str; 6] = [
    "alexnet",
    "vgg16",
    "resnet50",
    "darknet19",
    "mobilenet_v2",
    "yolo_v2",
];
const RES: u32 = 224;

pub struct Inputs {
    models: Vec<Model>,
    arch: PackageConfig,
    tech: Technology,
}

/// What the oracle checks of one operation.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Summary {
    energy_pj: f64,
    cycles: u64,
    des_cycles: u64,
}

/// Builds the six models and runs one untimed pass over them, which fills
/// the thread-local enumeration buffers and batch scratch pools the timed
/// operations reuse.
pub fn setup() -> Result<Inputs, String> {
    let models = MODELS
        .iter()
        .map(|name| nn_baton::serve::zoo_model(name, RES))
        .collect::<Result<Vec<_>, _>>()?;
    let inputs = Inputs {
        models,
        arch: presets::case_study_accelerator(),
        tech: Technology::paper_16nm(),
    };
    for i in 0..inputs.models.len() {
        op(&inputs, i)?;
    }
    Ok(inputs)
}

/// One operation, exactly as `baton map` + `baton fidelity` run it. Also
/// returns how long the DES replay took.
fn op(inputs: &Inputs, i: usize) -> Result<(Summary, Duration), String> {
    let model = &inputs.models[i];
    let report = map_model(model, &inputs.arch, &inputs.tech).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let sims = simulate_mapped(model, &report, &inputs.arch, &inputs.tech)?;
    let replay = t0.elapsed();
    Ok((summarize(&report, &sims), replay))
}

fn summarize(report: &ModelReport, sims: &[LayerSim]) -> Summary {
    Summary {
        energy_pj: report.energy.total_pj(),
        cycles: report.cycles,
        des_cycles: sims.iter().map(|s| s.sim.total_cycles).sum(),
    }
}

/// Golden lines for `golden.txt`: per-model analytical energy, analytical
/// cycles and DES total cycles.
pub fn golden_lines() -> Result<String, String> {
    let inputs = setup()?;
    let mut out = String::from(
        "# map_zoo <model> <energy_pj> <analytical_cycles> <des_cycles> (res 224, case-study accelerator)\n",
    );
    for (i, name) in MODELS.iter().enumerate() {
        let (s, _) = op(&inputs, i)?;
        out += &format!(
            "map_zoo {name} {:?} {} {}\n",
            s.energy_pj, s.cycles, s.des_cycles
        );
    }
    Ok(out)
}

fn golden() -> Vec<Option<Summary>> {
    MODELS
        .iter()
        .map(|name| {
            let f = crate::golden_fields("map_zoo", name)?;
            Some(Summary {
                energy_pj: f.first()?.parse().ok()?,
                cycles: f.get(1)?.parse().ok()?,
                des_cycles: f.get(2)?.parse().ok()?,
            })
        })
        .collect()
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let (mut setups, inputs) = Setups::start(args, setup)?;
    let session = args
        .trace
        .then(|| telemetry::attach_with_sink(&TelemetryConfig::default(), None));
    let before = counters::snapshot();

    let mut rng = Rng::new(args.seed);
    let mut order: Vec<usize> = (0..MODELS.len()).collect();
    let mut outputs: Vec<(usize, Result<Summary, String>)> = Vec::new();
    let (mut busy, mut replay) = (Duration::ZERO, Duration::ZERO);
    let mut rounds = 0;
    // Whole rounds only, until the timed operations have taken the run's
    // seconds; set-up samples run in between.
    while busy < args.deadline() {
        rng.shuffle(&mut order);
        for &i in &order {
            let t0 = Instant::now();
            let out = op(&inputs, i);
            busy += t0.elapsed();
            if let Ok((_, r)) = &out {
                replay += *r;
            }
            outputs.push((i, out.map(|(s, _)| s)));
        }
        rounds += 1;
        setups.poll(busy)?;
    }
    let delta = counters::snapshot().since(&before);
    // The program's own `search_layer` spans (memo misses only, as
    // `map_model` searches each shape once), in microseconds.
    let search_us = telemetry::span::phase_stats()
        .iter()
        .find(|(phase, _)| *phase == "search_layer")
        .map_or(0, |(_, h)| h.sum());
    drop(session);
    let (setup_s, setup_n) = setups.finish()?;

    // Oracle, outside the timed region.
    let golden = golden();
    for (i, g) in golden.iter().enumerate() {
        if g.is_none() {
            report.broken = true;
            report.note(format!("no golden entry for map_zoo {}", MODELS[i]));
        }
    }
    let n = outputs.len();
    for (i, out) in outputs {
        report.attempted += 1;
        match (out, golden[i]) {
            (Err(e), _) => report.fail(format!("{}: {e}", MODELS[i])),
            (Ok(s), Some(g)) if s != g => {
                report.fail(format!("{}: got {s:?}, golden {g:?}", MODELS[i]))
            }
            _ => {}
        }
    }
    report.note(format!(
        "closed loop, 1 client thread; {rounds} rounds of the six zoo models at res {RES}"
    ));
    let throughput = n as f64 / busy.as_secs_f64();
    if !args.trace {
        report.metric("setup_s", setup_s, "s", setup_n);
        report.metric("throughput_per_s", throughput, "1/s", n);
        if let Some(rss) = stats::peak_rss_mb("self") {
            report.metric("peak_rss_mb", rss, "MiB", 1);
        }
        return Ok(report);
    }

    let ops = n.max(1) as f64;
    let per_op_ms = |d: Duration| d.as_secs_f64() * 1e3 / ops;
    let total = per_op_ms(busy);
    let search = search_us as f64 / 1e3 / ops;
    let replay = per_op_ms(replay);
    report.metric("trace.throughput_per_s", throughput, "1/s", n);
    report.metric("map.op_ms", total, "ms", n);
    report.metric("c3p.search_ms", search, "ms", n);
    report.metric("sim.replay_ms", replay, "ms", n);
    report.metric("map.unattributed_ms", total - search - replay, "ms", n);
    let generated = delta.get(Counter::CandidatesGenerated) as f64;
    let deduped = delta.get(Counter::CandidatesDeduped) as f64;
    let hits = delta.get(Counter::CacheHit) as f64;
    let misses = delta.get(Counter::CacheMiss) as f64;
    report.metric("mapping.candidates", generated / ops, "count", n);
    report.metric(
        "mapping.dedup_share",
        deduped / (generated + deduped).max(1.0),
        "ratio",
        n,
    );
    report.metric(
        "c3p.evals",
        delta.get(Counter::Evaluations) as f64 / ops,
        "count",
        n,
    );
    report.metric(
        "c3p.pruned_share",
        delta.get(Counter::SearchPruned) as f64 / generated.max(1.0),
        "ratio",
        n,
    );
    report.metric(
        "c3p.memo_hit_share",
        hits / (hits + misses).max(1.0),
        "ratio",
        n,
    );
    let (enumerate_ms, passes) = enumerate_ms(&inputs);
    report.metric("mapping.enumerate_ms", enumerate_ms, "ms", passes);
    report.note(
        "reconciliation: map.op_ms = c3p.search_ms + sim.replay_ms + map.unattributed_ms; \
         c3p.search_ms is the program's `search_layer` spans; mapping.enumerate_ms is a \
         part of it, timed standalone"
            .to_string(),
    );
    Ok(report)
}

/// Enumeration cost per operation: the candidate enumeration of every layer
/// shape a model searches (memo misses only, as in the operation), timed
/// standalone, averaged over the six models; median of three passes.
fn enumerate_ms(inputs: &Inputs) -> (f64, usize) {
    const PASSES: usize = 3;
    let (mut cands, mut ids) = (Vec::new(), Vec::new());
    let mut per_pass = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let t0 = Instant::now();
        for model in &inputs.models {
            let mut seen = std::collections::HashSet::new();
            for layer in model.layers() {
                if seen.insert(layer.shape_key()) {
                    enumerate_into(
                        layer,
                        &inputs.arch,
                        EnumOptions::default(),
                        &mut cands,
                        &mut ids,
                    );
                    std::hint::black_box(cands.len());
                }
            }
        }
        per_pass.push(t0.elapsed().as_secs_f64() * 1e3 / inputs.models.len() as f64);
    }
    (stats::median(&per_pass), PASSES)
}
