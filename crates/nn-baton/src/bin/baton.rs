//! The `baton` command-line tool: the paper's automatic flows from a shell.
//!
//! ```text
//! baton stats   <model> [--res N]                 model statistics table
//! baton map     <model> [--res N] [--csv FILE] [--trace-perfetto FILE] [--divergence-tol F]
//!                                                 post-design flow
//! baton explain <model> [--layer L] [--top K] [--format text|md|json]
//!                                                 why did this mapping win?
//! baton profile <model> [--res N] [--json]        post-design flow + telemetry breakdown
//! baton bench   <model> --out FILE [--sweep] [--macs M] [--area A] [--baseline FILE]
//!               [--max-regress PCT]               machine-readable perf snapshot
//! baton compare <model> [--res N]                 NN-Baton vs Simba
//! baton explore <model> [--res N] [--macs M] [--area A] [--csv FILE] [--audit FILE]
//!                                                 Figure 14 granularity sweep
//! baton sweep   <model> [--res N] [--macs M] [--area A] [--csv FILE] [--audit FILE]
//!               [--explain] [--format text|md|json] [--top K]
//!                                                 Figure 15 full DSE
//! baton fidelity <model|zoo> [--res N] [--out FILE] [--baseline FILE]
//!                [--max-regress PCT] [--divergence-tol F]
//!                                                 analytical C3P vs DES error distribution
//! baton recommend <model> [--res N] [--macs M] [--area A]
//!                                                 pre-design recommendation
//! baton serve   [--addr HOST:PORT] [--cache-entries N] [--queue-depth N] [--keep-alive-requests N]
//!               [--slow-request-ms MS]
//!                                                 HTTP service: /metrics /healthz /readyz /map /explain /debug/requests
//! baton check   <file.baton>                      validate a model description
//! baton version                                   print the version
//! ```
//!
//! `<model>` is a zoo name (`alexnet`, `vgg16`, `resnet50`, `darknet19`,
//! `mobilenet_v2`, `yolo_v2`) or a path to a `.baton` model description.
//!
//! Global flags (any position): `-v`/`-vv`/`--verbose` tiered stderr
//! logging, `--progress` live sweep meters, `--trace-json FILE` a
//! machine-readable JSON-lines event trace, `--threads N` worker count for
//! the parallel search/sweep loops (default: `BATON_THREADS` or all cores;
//! results are identical for any count). `--trace-perfetto` writes the DES
//! timeline as Chrome trace_event JSON, viewable at
//! <https://ui.perfetto.dev>.

use std::io::BufWriter;
use std::process::ExitCode;
use std::time::Instant;

use nn_baton::arch::presets::ProportionalBuffers;
use nn_baton::dse::csv;
use nn_baton::model::ModelStats;
use nn_baton::prelude::*;
use nn_baton::report::{
    compare_snapshots, describe_regression, BenchSnapshot, Format, PerfettoTrace,
};
use nn_baton::telemetry;

/// Every heap operation in the CLI is counted: `profile --alloc` and
/// `bench` read the ledger, `serve` exports it as `baton_alloc_*` on
/// `/metrics`. A few relaxed fetch_adds per allocation — noise next to the
/// allocation itself.
#[global_allocator]
static ALLOC: telemetry::alloc::CountingAlloc = telemetry::alloc::CountingAlloc::new();

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `baton help` for usage");
            ExitCode::from(2)
        }
    }
}

const SUBCOMMANDS: &[&str] = &[
    "stats",
    "map",
    "explain",
    "profile",
    "bench",
    "compare",
    "explore",
    "sweep",
    "recommend",
    "fidelity",
    "serve",
    "check",
];

/// The flags each subcommand accepts; anything else is rejected with this
/// exact list in the error message.
fn allowed_flags(cmd: &str) -> &'static [&'static str] {
    match cmd {
        "stats" => &["--res"],
        "map" => &["--res", "--csv", "--trace-perfetto", "--divergence-tol"],
        "explain" => &["--res", "--layer", "--top", "--format"],
        "profile" => &["--res", "--json", "--alloc"],
        "bench" => &[
            "--res",
            "--out",
            "--baseline",
            "--max-regress",
            "--sweep",
            "--macs",
            "--area",
        ],
        "compare" => &["--res", "--csv"],
        "explore" => &["--res", "--macs", "--area", "--csv", "--audit"],
        "sweep" => &[
            "--res",
            "--macs",
            "--area",
            "--csv",
            "--audit",
            "--explain",
            "--format",
            "--top",
        ],
        "recommend" => &["--res", "--macs", "--area"],
        "fidelity" => &[
            "--res",
            "--out",
            "--baseline",
            "--max-regress",
            "--divergence-tol",
        ],
        "serve" => &[
            "--addr",
            "--cache-entries",
            "--queue-depth",
            "--keep-alive-requests",
            "--slow-request-ms",
        ],
        _ => &[],
    }
}

/// Parsed common flags.
struct Flags {
    res: u32,
    macs: u64,
    area: Option<f64>,
    csv: Option<String>,
    /// `explain`: restrict to one layer, by index or name.
    layer: Option<String>,
    /// `explain`: how many runner-up mappings to show.
    top: usize,
    /// `explain`: output format.
    format: Format,
    /// `map`: write the DES timeline as Chrome trace_event JSON.
    trace_perfetto: Option<String>,
    /// `profile`: machine-readable output instead of the table.
    json: bool,
    /// `profile`: add per-layer allocation columns from the counting
    /// allocator.
    alloc: bool,
    /// `bench`: snapshot output path.
    out: Option<String>,
    /// `bench`: baseline snapshot to compare against.
    baseline: Option<String>,
    /// `bench`: tolerated regression in percent before failing.
    max_regress: f64,
    /// `bench`: measure the pre-design sweep (points/sec) instead of the
    /// post-design mapping flow (evals/sec).
    sweep: bool,
    /// `explore`/`sweep`: stream per-point audit records as JSON lines.
    audit: Option<String>,
    /// `sweep`: render the Pareto provenance after the sweep.
    explain: bool,
    /// `map`/`fidelity`: analytical-vs-sim divergence tolerance (fraction).
    divergence_tol: f64,
}

/// Global flags (telemetry + worker count), extracted before subcommand
/// dispatch.
fn split_global_flags(
    args: &[String],
) -> Result<(Vec<String>, telemetry::TelemetryConfig, Option<usize>), String> {
    let mut cfg = telemetry::TelemetryConfig::default();
    let mut threads = None;
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-v" | "--verbose" => cfg.verbosity = cfg.verbosity.max(1),
            "-vv" => cfg.verbosity = cfg.verbosity.max(2),
            "--progress" => cfg.progress = true,
            "--trace-json" => {
                cfg.trace_path = Some(
                    it.next()
                        .cloned()
                        .ok_or("flag --trace-json needs a file path")?,
                );
            }
            "--threads" => {
                let v = it.next().ok_or("flag --threads needs a worker count")?;
                threads = Some(
                    nn_baton::parallel::parse_threads(v)
                        .ok_or_else(|| format!("bad --threads `{v}` (positive integer)"))?,
                );
            }
            _ => rest.push(arg.clone()),
        }
    }
    Ok((rest, cfg, threads))
}

fn parse_flags(cmd: &str, rest: &[String]) -> Result<Flags, String> {
    let allowed = allowed_flags(cmd);
    let mut f = Flags {
        res: 224,
        macs: 2048,
        area: Some(2.0),
        csv: None,
        layer: None,
        top: 3,
        format: Format::Text,
        trace_perfetto: None,
        json: false,
        alloc: false,
        out: None,
        baseline: None,
        max_regress: 10.0,
        sweep: false,
        audit: None,
        explain: false,
        divergence_tol: nn_baton::report::DEFAULT_DIVERGENCE_TOL,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        if flag.starts_with('-') && !allowed.contains(&flag.as_str()) {
            return Err(format!(
                "unknown flag `{flag}` for `{cmd}` (valid: {}; global: -v -vv --progress --trace-json FILE --threads N)",
                allowed.join(" ")
            ));
        }
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {name} needs a value"))
        };
        match flag.as_str() {
            "--res" => f.res = value("--res")?.parse().map_err(|_| "bad --res")?,
            "--macs" => f.macs = value("--macs")?.parse().map_err(|_| "bad --macs")?,
            "--area" => {
                let v = value("--area")?;
                f.area = if v == "none" {
                    None
                } else {
                    Some(v.parse().map_err(|_| "bad --area")?)
                };
            }
            "--csv" => f.csv = Some(value("--csv")?),
            "--layer" => f.layer = Some(value("--layer")?),
            "--top" => f.top = value("--top")?.parse().map_err(|_| "bad --top")?,
            "--format" => f.format = value("--format")?.parse()?,
            "--trace-perfetto" => f.trace_perfetto = Some(value("--trace-perfetto")?),
            "--json" => f.json = true,
            "--alloc" => f.alloc = true,
            "--out" => f.out = Some(value("--out")?),
            "--baseline" => f.baseline = Some(value("--baseline")?),
            "--max-regress" => {
                f.max_regress = value("--max-regress")?
                    .parse()
                    .map_err(|_| "bad --max-regress")?;
            }
            "--sweep" => f.sweep = true,
            "--audit" => f.audit = Some(value("--audit")?),
            "--explain" => f.explain = true,
            "--divergence-tol" => {
                let v: f64 = value("--divergence-tol")?
                    .parse()
                    .map_err(|_| "bad --divergence-tol")?;
                if !(v > 0.0 && v.is_finite()) {
                    return Err("bad --divergence-tol (positive fraction, e.g. 0.1)".into());
                }
                f.divergence_tol = v;
            }
            other => return Err(format!("unexpected argument `{other}` for `{cmd}`")),
        }
    }
    Ok(f)
}

/// Fails fast when an output path cannot be written, *before* any model
/// work runs. Opens in append mode so probing an existing file (e.g. a
/// snapshot that doubles as the baseline) never truncates it.
fn probe_output(path: &Option<String>) -> Result<(), String> {
    let Some(path) = path else { return Ok(()) };
    std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(path)
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(())
}

use nn_baton::serve::load_model;

/// Streams `emit` into `--csv FILE` through a buffered writer, or does
/// nothing when no path was given.
fn write_csv<F>(csv_path: &Option<String>, emit: F) -> Result<(), String>
where
    F: FnOnce(&mut csv::IoAdapter<BufWriter<std::fs::File>>) -> std::fmt::Result,
{
    let Some(path) = csv_path else { return Ok(()) };
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut sink = csv::IoAdapter::new(BufWriter::new(file));
    let fmt_failed = emit(&mut sink).is_err();
    match sink.finish() {
        Ok(_) if !fmt_failed => {
            println!("wrote {path}");
            Ok(())
        }
        Ok(_) => Err(format!("cannot write {path}: formatter error")),
        Err(e) => Err(format!("cannot write {path}: {e}")),
    }
}

/// Opens the `--audit FILE` JSON-lines stream, or a disabled (zero-cost)
/// audit when the flag was not given.
fn open_audit(path: &Option<String>) -> Result<nn_baton::dse::SweepAudit, String> {
    let Some(path) = path else {
        return Ok(nn_baton::dse::SweepAudit::disabled());
    };
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    Ok(nn_baton::dse::SweepAudit::new(
        nn_baton::dse::audit::DEFAULT_RING_CAPACITY,
        Some(Box::new(BufWriter::new(file))),
    ))
}

/// Flushes the audit stream, surfacing any deferred write error, and
/// reports the record count for `--audit FILE` runs.
fn finish_audit(audit: &nn_baton::dse::SweepAudit, path: &Option<String>) -> Result<(), String> {
    audit.finish()?;
    if let Some(path) = path {
        println!("wrote {path} ({} audit records)", audit.records());
    }
    Ok(())
}

/// `BENCH_smoke.json` -> `smoke`: snapshot name from the output path.
fn bench_name(path: &str) -> String {
    let stem = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("bench");
    stem.strip_prefix("BENCH_").unwrap_or(stem).to_string()
}

fn run(args: &[String]) -> Result<(), String> {
    let (args, tcfg, threads) = split_global_flags(args)?;
    // An explicit --threads beats BATON_THREADS beats available parallelism.
    // Thread counts only change wall time, never results (see baton-parallel).
    nn_baton::parallel::configure_threads(threads);
    let Some(cmd) = args.first() else {
        return Err("missing subcommand".into());
    };
    // `--help` asks for the usage wherever it stands, also after a
    // subcommand, where it would otherwise read as the model name.
    if cmd == "help" || args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "baton -- NN-Baton workload orchestration and chiplet DSE\n\n\
             usage:\n  baton stats|map|explain|profile|bench|compare|explore|sweep|recommend|fidelity <model> [flags]\n  \
             baton serve [--addr HOST:PORT]\n  baton check <file.baton>\n  baton version\n\n\
             flags: --res N  --macs M  --area A|none  --csv FILE\n\
             explain: --layer L  --top K  --format text|md|json\n\
             map: --trace-perfetto FILE  --divergence-tol F    profile: --json --alloc\n\
             bench: --out FILE  --baseline FILE  --max-regress PCT  --sweep (pre-design sweep perf)\n\
             explore/sweep: --audit FILE    sweep: --explain  --format text|md|json  --top K\n\
             fidelity: <model|zoo>  --out FILE  --baseline FILE  --max-regress PCT  --divergence-tol F\n\
             serve: --addr HOST:PORT (default 127.0.0.1:9184)\n\
             \x20       --cache-entries N (default 256, 0 disables)  --queue-depth N (default 64)\n\
             \x20       --keep-alive-requests N (default 100)  --slow-request-ms MS (default 1000, 0 logs all)\n\
             telemetry: -v|-vv  --progress  --trace-json FILE\n\
             parallelism: --threads N (or BATON_THREADS)"
        );
        return Ok(());
    }
    if cmd == "version" || cmd == "--version" || cmd == "-V" {
        println!("baton {}", env!("CARGO_PKG_VERSION"));
        return Ok(());
    }
    if cmd == "check" {
        let path = args.get(1).ok_or("check needs a file path")?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let model = parse_model(&text).map_err(|e| e.to_string())?;
        println!("ok: {model}");
        return Ok(());
    }
    if !SUBCOMMANDS.contains(&cmd.as_str()) {
        return Err(format!("unknown subcommand `{cmd}`"));
    }
    if cmd == "serve" {
        let mut cfg = nn_baton::serve::ServeConfig::default();
        let mut it = args[1..].iter();
        // Positive-integer flag values; `zero_ok` admits 0 as "disabled".
        let parse_count = |flag: &str, value: Option<&String>, zero_ok: bool| {
            let raw = value.ok_or_else(|| format!("flag {flag} needs a count"))?;
            let n: usize = raw
                .parse()
                .map_err(|_| format!("flag {flag} needs an integer, got `{raw}`"))?;
            if n == 0 && !zero_ok {
                return Err(format!("flag {flag} must be at least 1"));
            }
            Ok(n)
        };
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--addr" => {
                    cfg.addr = it.next().cloned().ok_or("flag --addr needs host:port")?;
                }
                "--cache-entries" => {
                    cfg.cache_entries = parse_count("--cache-entries", it.next(), true)?;
                }
                "--queue-depth" => {
                    cfg.queue_depth = parse_count("--queue-depth", it.next(), false)?;
                }
                "--keep-alive-requests" => {
                    cfg.keep_alive_requests =
                        parse_count("--keep-alive-requests", it.next(), false)?;
                }
                "--slow-request-ms" => {
                    // 0 means "log every request", useful when tuning.
                    cfg.slow_request_ms = parse_count("--slow-request-ms", it.next(), true)? as u64;
                }
                other => {
                    return Err(format!(
                        "unknown flag `{other}` for `serve` (valid: --addr, \
                         --cache-entries, --queue-depth, --keep-alive-requests, \
                         --slow-request-ms)"
                    ));
                }
            }
        }
        // A session for the process lifetime, so the bridged run counters
        // (evaluations, prunes, cache hits) accumulate across requests and
        // show up in /metrics.
        let _session = telemetry::attach(&tcfg).map_err(|e| format!("cannot open trace: {e}"))?;
        return nn_baton::serve::serve(&cfg);
    }

    // Attach only when something will consume the data: a telemetry flag,
    // or `profile`/`bench` (whose output *is* the data). Plain runs keep the
    // layer disabled — one relaxed atomic load per probe.
    let wants_session = tcfg.verbosity > 0
        || tcfg.progress
        || tcfg.trace_path.is_some()
        || cmd == "profile"
        || cmd == "bench";
    let session = if wants_session {
        Some(telemetry::attach(&tcfg).map_err(|e| format!("cannot open trace: {e}"))?)
    } else {
        None
    };

    let model_name = args.get(1).ok_or("missing model")?;
    let flags = parse_flags(cmd, &args[2..])?;
    if cmd == "bench" && flags.out.is_none() {
        return Err("bench needs --out FILE".into());
    }
    // Read the baseline and probe every output path before any model work,
    // so a typo'd path fails in milliseconds, not after a full search.
    let baseline = match &flags.baseline {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            Some((
                path.clone(),
                BenchSnapshot::parse(&text).map_err(|e| format!("bad baseline {path}: {e}"))?,
            ))
        }
        None => None,
    };
    probe_output(&flags.csv)?;
    probe_output(&flags.trace_perfetto)?;
    probe_output(&flags.out)?;
    probe_output(&flags.audit)?;
    if cmd == "fidelity" {
        // `zoo` measures every Figure 13 benchmark in one snapshot — the
        // shape CI gates; a single model name narrows the run.
        let models = if model_name == "zoo" || model_name == "all" {
            nn_baton::model::zoo::figure13_models(flags.res)
        } else {
            vec![load_model(model_name, flags.res)?]
        };
        let result = run_fidelity(
            &models,
            &presets::case_study_accelerator(),
            &Technology::paper_16nm(),
            flags.divergence_tol,
            flags.out.as_deref(),
            baseline.as_ref(),
            flags.max_regress,
        );
        drop(session);
        return result;
    }
    let model = load_model(model_name, flags.res)?;
    let tech = Technology::paper_16nm();
    let arch = presets::case_study_accelerator();
    telemetry::vlog!(
        1,
        "{cmd}: model {} ({} layers at {} px)",
        model.name(),
        model.layers().len(),
        flags.res
    );
    telemetry::vlog!(
        2,
        "machine: {} chiplets x {} cores, --macs {} --area {:?}",
        arch.chiplets,
        arch.chiplet.cores,
        flags.macs,
        flags.area
    );

    match cmd.as_str() {
        "stats" => {
            print!("{}", ModelStats::of(&model));
        }
        "map" => {
            let report = map_model(&model, &arch, &tech).map_err(|e| e.to_string())?;
            print!("{report}");
            println!(
                "EDP {:.3e} J*s, utilization {:.1}%",
                report.edp(&tech),
                100.0 * report.utilization(&arch)
            );
            write_csv(&flags.csv, |out| csv::write_model_report_csv(out, &report))?;
            if let Some(path) = &flags.trace_perfetto {
                let sims = nn_baton::dse::simulate_mapped(&model, &report, &arch, &tech)?;
                let mut timeline = PerfettoTrace::new();
                for s in &sims {
                    timeline.add_layer(
                        &s.layer,
                        &s.trace,
                        s.analytical_cycles,
                        s.sim.total_cycles,
                        flags.divergence_tol,
                    );
                }
                std::fs::write(path, timeline.to_json())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                println!(
                    "wrote {path} ({} layers, {} analytical/sim divergences > {:.0}%)",
                    sims.len(),
                    timeline.divergences(),
                    100.0 * flags.divergence_tol
                );
            }
        }
        "explain" => {
            let layers: Vec<&ConvSpec> = match &flags.layer {
                None => model.layers().iter().collect(),
                Some(sel) => {
                    let layer = if let Ok(idx) = sel.parse::<usize>() {
                        model.layers().get(idx).ok_or_else(|| {
                            format!(
                                "--layer {idx} out of range ({} has {} layers)",
                                model.name(),
                                model.layers().len()
                            )
                        })?
                    } else {
                        model.layer(sel).ok_or_else(|| {
                            format!(
                                "no layer `{sel}` in {} (use a name or an index)",
                                model.name()
                            )
                        })?
                    };
                    vec![layer]
                }
            };
            for (i, layer) in layers.iter().enumerate() {
                if i > 0 && flags.format != Format::Json {
                    println!();
                }
                let explanation = nn_baton::report::explain_layer(
                    layer,
                    &arch,
                    &tech,
                    Objective::Energy,
                    flags.top,
                )
                .map_err(|e| e.to_string())?;
                print!("{}", explanation.render(flags.format));
            }
        }
        "profile" => {
            profile_model(&model, &arch, &tech, flags.json, flags.alloc)?;
        }
        "bench" => {
            let out = flags.out.as_ref().expect("checked above");
            if flags.sweep {
                bench_sweep(
                    &model,
                    &tech,
                    flags.macs,
                    flags.area,
                    out,
                    baseline.as_ref(),
                    flags.max_regress,
                )?;
            } else {
                bench_model(
                    &model,
                    &arch,
                    &tech,
                    out,
                    baseline.as_ref(),
                    flags.max_regress,
                )?;
            }
        }
        "compare" => {
            let c = compare_model(&model, &arch, &tech);
            println!(
                "{}: NN-Baton {:.1} uJ vs Simba {:.1} uJ -> {:.1}% saving",
                c.model,
                c.baton.total_uj(),
                c.simba.total_uj(),
                100.0 * c.saving()
            );
            write_csv(&flags.csv, |out| csv::write_comparison_csv(out, &[c]))?;
        }
        "explore" => {
            let audit = open_audit(&flags.audit)?;
            let results = nn_baton::dse::granularity_sweep_audited(
                &model,
                &tech,
                flags.macs,
                &ProportionalBuffers::default(),
                flags.area,
                &audit,
            );
            finish_audit(&audit, &flags.audit)?;
            let best = results
                .iter()
                .filter(|r| r.meets_area)
                .min_by(|a, b| a.edp(&tech).total_cmp(&b.edp(&tech)));
            for r in &results {
                println!(
                    "{:?}: {:.2} mm^2, {:.1} uJ, {} cycles{}",
                    r.geometry,
                    r.chiplet_area_mm2,
                    r.energy_pj / 1e6,
                    r.cycles,
                    if r.meets_area { "" } else { "  (over budget)" }
                );
            }
            if let Some(b) = best {
                println!("==> best EDP under budget: {:?}", b.geometry);
            }
            write_csv(&flags.csv, |out| {
                csv::write_granularity_csv(out, &results, &tech)
            })?;
        }
        "recommend" => {
            let opts = SweepOptions {
                total_macs: flags.macs,
                area_limit_mm2: flags.area,
                ..SweepOptions::default()
            };
            let cost = nn_baton::arch::CostModel::n16_default();
            match nn_baton::dse::recommend(&model, &tech, &opts, &cost) {
                Some(rec) => print!("{rec}"),
                None => println!("no design satisfies the constraints"),
            }
        }
        "sweep" => {
            let opts = SweepOptions {
                total_macs: flags.macs,
                area_limit_mm2: flags.area,
                ..SweepOptions::default()
            };
            let audit = open_audit(&flags.audit)?;
            let points = nn_baton::dse::full_sweep_audited(&model, &tech, &opts, &audit);
            finish_audit(&audit, &flags.audit)?;
            println!("{} valid design points", points.len());
            if let Some(best) = points
                .iter()
                .filter(|p| flags.area.map(|a| p.chiplet_area_mm2 <= a).unwrap_or(true))
                .min_by(|a, b| a.edp(&tech).total_cmp(&b.edp(&tech)))
            {
                let (o1, a1, w1, a2) = best.memory;
                println!(
                    "==> optimum: {:?} @ {:.2} mm^2, O-L1 {o1} B / A-L1 {} KB / \
                     W-L1 {} KB / A-L2 {} KB",
                    best.geometry,
                    best.chiplet_area_mm2,
                    a1 / 1024,
                    w1 / 1024,
                    a2 / 1024
                );
            }
            if flags.explain {
                let prov = nn_baton::dse::pareto_provenance(&points, |p| {
                    (p.chiplet_area_mm2, p.edp(&tech))
                });
                nn_baton::dse::pareto::FRONT_SIZE.set(&[("flow", "full")], prov.front.len() as f64);
                let explanation = nn_baton::report::explain_sweep(&points, &prov, &tech, flags.top);
                print!("{}", explanation.render(flags.format));
            }
            write_csv(&flags.csv, |out| {
                csv::write_design_points_csv(out, &points, &tech)
            })?;
        }
        // Every other word was rejected before the model loaded.
        _ => unreachable!("subcommand validated above"),
    }
    drop(session);
    Ok(())
}

/// The `baton profile` subcommand: run the post-design flow with telemetry
/// forced on and print a per-layer time/counter breakdown plus the session
/// summary — or, with `--json`, one flat JSON object of the same data.
/// `--alloc` swaps the counter columns for the allocation ledger: heap
/// operations, allocs per evaluation, and net heap growth per layer.
fn profile_model(
    model: &Model,
    arch: &PackageConfig,
    tech: &Technology,
    json: bool,
    alloc: bool,
) -> Result<(), String> {
    use nn_baton::telemetry::{alloc as talloc, counters, span, Counter};

    // Profile the same shape-memoized per-layer search the post-design flow
    // runs, so the cache_hit/cache_miss/search_pruned counters reflect what
    // `baton map` actually does.
    let memo = nn_baton::c3p::SearchMemo::new();
    let search = |layer: &nn_baton::model::ConvSpec| {
        nn_baton::c3p::search_layer_memo(
            &memo,
            layer,
            arch,
            tech,
            Objective::Energy,
            Default::default(),
        )
    };

    let initial = counters::snapshot();
    let alloc_initial = talloc::totals();
    let t0 = Instant::now();
    if json {
        for layer in model.layers() {
            search(layer).map_err(|e| e.to_string())?;
        }
        let mut snapshot = BenchSnapshot::build(
            "profile",
            model.name(),
            t0.elapsed().as_secs_f64() * 1e3,
            &counters::snapshot().since(&initial),
            &span::phase_stats(),
        );
        insert_alloc_metrics(
            &mut snapshot,
            &alloc_initial,
            counters::snapshot()
                .since(&initial)
                .get(Counter::CandidatesGenerated),
        );
        print!("{}", snapshot.to_json());
        return Ok(());
    }

    println!(
        "profile: {} ({} layers) on the case-study accelerator",
        model.name(),
        model.layers().len()
    );
    if alloc {
        println!(
            "{:<24} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "layer", "time ms", "evaluations", "allocs", "allocs/eval", "alloc KB", "net KB"
        );
    } else {
        println!(
            "{:<24} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "layer",
            "time ms",
            "enumerated",
            "rej shape",
            "rej buffer",
            "dedup",
            "pruned",
            "evaluations"
        );
    }
    let mut before = initial;
    let mut alloc_before = alloc_initial;
    for layer in model.layers() {
        let start = Instant::now();
        search(layer).map_err(|e| e.to_string())?;
        let now = counters::snapshot();
        let d = now.since(&before);
        let tag = if d.get(Counter::CacheHit) > 0 {
            " (memo)"
        } else {
            ""
        };
        if alloc {
            // Process-global ledger deltas: unlike a thread-scoped
            // AllocScope, these include whatever the parallel workers
            // allocated on the layer's behalf.
            let a = talloc::totals();
            let evals = d.get(Counter::Evaluations);
            let allocs = a.allocs - alloc_before.allocs;
            println!(
                "{:<24} {:>10.1} {:>12} {:>12} {:>12.1} {:>12.1} {:>12.1}{tag}",
                layer.name(),
                start.elapsed().as_secs_f64() * 1e3,
                evals,
                allocs,
                if evals > 0 {
                    allocs as f64 / evals as f64
                } else {
                    0.0
                },
                (a.bytes_allocated - alloc_before.bytes_allocated) as f64 / 1024.0,
                (a.live_bytes - alloc_before.live_bytes) as f64 / 1024.0,
            );
            alloc_before = a;
        } else {
            println!(
                "{:<24} {:>10.1} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}{tag}",
                layer.name(),
                start.elapsed().as_secs_f64() * 1e3,
                d.get(Counter::CandidatesGenerated),
                d.get(Counter::CandidatesStructurallyRejected) + d.rejects_plane(),
                d.rejects_buffer(),
                d.get(Counter::CandidatesDeduped),
                d.get(Counter::SearchPruned),
                d.get(Counter::Evaluations),
            );
        }
        before = now;
    }
    println!(
        "total: {:.1} ms across {} layers\n",
        t0.elapsed().as_secs_f64() * 1e3,
        model.layers().len()
    );
    if alloc {
        let a = talloc::totals();
        println!(
            "allocator: {} allocs / {} frees, {:.1} MB allocated, peak live {:.1} MB",
            a.allocs - alloc_initial.allocs,
            a.deallocs - alloc_initial.deallocs,
            (a.bytes_allocated - alloc_initial.bytes_allocated) as f64 / (1024.0 * 1024.0),
            a.peak_live_bytes as f64 / (1024.0 * 1024.0),
        );
        // Per-phase attribution from the span layer: which phase the main
        // thread's churn belongs to (worker-thread churn attributes to the
        // workers' own spans, visible in request traces).
        let phase_allocs = span::phase_alloc_stats();
        let mut printed_header = false;
        for (phase, pa) in &phase_allocs {
            if pa.allocs == 0 && pa.frees == 0 {
                continue;
            }
            if !printed_header {
                println!(
                    "{:<24} {:>12} {:>12} {:>12}",
                    "phase", "allocs", "frees", "net KB"
                );
                printed_header = true;
            }
            println!(
                "{:<24} {:>12} {:>12} {:>12.1}",
                phase,
                pa.allocs,
                pa.frees,
                pa.net_bytes() as f64 / 1024.0
            );
        }
        println!();
    }
    let (totals, phases) = (counters::snapshot(), span::phase_stats());
    print!("{}", nn_baton::telemetry::render_summary(&totals, &phases));
    // The search's stage residual, as `--json` and `baton bench` report it.
    let stages = BenchSnapshot::build("profile", model.name(), 0.0, &totals, &phases);
    for (key, ms) in &stages.nums {
        if key.ends_with("_unattributed_ms") {
            println!("  {key:<36} {ms:>10.1} ms");
        }
    }
    Ok(())
}

/// Folds the allocation ledger into a bench/profile snapshot:
/// `alloc.allocs_per_candidate` (the budget-gated metric, over the
/// `candidates` generated), the raw operation and byte deltas, and — where
/// procfs answers — `alloc.peak_rss_bytes`.
fn insert_alloc_metrics(
    snapshot: &mut BenchSnapshot,
    before: &telemetry::alloc::AllocTotals,
    candidates: u64,
) {
    let now = telemetry::alloc::totals();
    let allocs = now.allocs - before.allocs;
    snapshot.nums.insert("alloc.allocs".into(), allocs as f64);
    snapshot.nums.insert(
        "alloc.bytes".into(),
        (now.bytes_allocated - before.bytes_allocated) as f64,
    );
    snapshot
        .nums
        .insert("alloc.peak_live_bytes".into(), now.peak_live_bytes as f64);
    if candidates > 0 {
        snapshot.nums.insert(
            "alloc.allocs_per_candidate".into(),
            allocs as f64 / candidates as f64,
        );
    }
    if let Some(peak_rss) = telemetry::procfs::peak_rss_bytes() {
        snapshot
            .nums
            .insert("alloc.peak_rss_bytes".into(), peak_rss as f64);
    }
}

/// The `baton fidelity` subcommand: measure the analytical-vs-DES
/// relative-error distribution per layer for each model, write the
/// `FIDELITY.json` snapshot, and optionally gate against a committed
/// baseline (whose `gate.max.*` keys turn the measurement into an absolute
/// CI bound).
fn run_fidelity(
    models: &[Model],
    arch: &PackageConfig,
    tech: &Technology,
    tolerance: f64,
    out: Option<&str>,
    baseline: Option<&(String, BenchSnapshot)>,
    max_regress: f64,
) -> Result<(), String> {
    let mut measured = Vec::with_capacity(models.len());
    for model in models {
        let f = nn_baton::report::ModelFidelity::measure(model, arch, tech)?;
        println!(
            "fidelity {}: {} layers, |rel err| max {:.3} mean {:.3} p90 {:.3}, \
             {} divergent > {:.0}%",
            f.model,
            f.layers.len(),
            f.max_abs_rel_err(),
            f.mean_abs_rel_err(),
            f.p90_abs_rel_err(),
            f.divergent(tolerance),
            100.0 * tolerance
        );
        measured.push(f);
    }
    let snapshot = nn_baton::report::fidelity_snapshot(&measured, tolerance);
    if let Some(out) = out {
        std::fs::write(out, snapshot.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("wrote {out}");
    }
    if let Some((path, base)) = baseline {
        let regressions = compare_snapshots(&snapshot, base, max_regress);
        if regressions.is_empty() {
            println!("baseline {path}: ok (all fidelity bounds hold)");
        } else {
            for r in &regressions {
                eprintln!("fidelity violation: {}", describe_regression(r));
            }
            return Err(format!(
                "{} fidelity bound(s) violated vs {path}",
                regressions.len()
            ));
        }
    }
    Ok(())
}

/// The `baton bench` subcommand: run the post-design flow under the clock,
/// write a `BENCH_*.json` snapshot, and optionally gate against a baseline.
fn bench_model(
    model: &Model,
    arch: &PackageConfig,
    tech: &Technology,
    out: &str,
    baseline: Option<&(String, BenchSnapshot)>,
    max_regress: f64,
) -> Result<(), String> {
    use nn_baton::telemetry::{counters, span, Counter};

    let name = bench_name(out);
    let before = counters::snapshot();
    let alloc_before = telemetry::alloc::totals();
    let t0 = Instant::now();
    let report = map_model(model, arch, tech).map_err(|e| e.to_string())?;
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let counter_delta = counters::snapshot().since(&before);
    let mut snapshot = BenchSnapshot::build(
        &name,
        model.name(),
        wall_ms,
        &counter_delta,
        &span::phase_stats(),
    );
    insert_alloc_metrics(
        &mut snapshot,
        &alloc_before,
        counter_delta.get(Counter::CandidatesGenerated),
    );
    // Record the model-level results alongside the timing metrics. The
    // result keys have no gating direction — they exist so two runs at
    // different thread counts can be diffed for identity.
    snapshot
        .nums
        .insert("model.energy_pj".into(), report.energy.total_pj());
    snapshot
        .nums
        .insert("model.cycles".into(), report.cycles as f64);
    let summary = format!(
        "bench {name}: {} layers in {:.1} ms, {:.0} candidates/sec -> {out}",
        report.layers.len(),
        wall_ms,
        snapshot
            .nums
            .get("throughput.candidates_per_sec")
            .copied()
            .unwrap_or(0.0)
    );
    write_and_gate(snapshot, out, &summary, baseline, max_regress)
}

/// The shared tail of `baton bench`: records the worker count, writes the
/// snapshot to `out`, prints `summary`, then gates the snapshot against
/// the baseline, if one was given.
fn write_and_gate(
    mut snapshot: BenchSnapshot,
    out: &str,
    summary: &str,
    baseline: Option<&(String, BenchSnapshot)>,
    max_regress: f64,
) -> Result<(), String> {
    snapshot
        .strs
        .insert("threads".into(), nn_baton::parallel::threads().to_string());
    std::fs::write(out, snapshot.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("{summary}");
    let Some((path, base)) = baseline else {
        return Ok(());
    };
    let regressions = compare_snapshots(&snapshot, base, max_regress);
    if regressions.is_empty() {
        println!("baseline {path}: ok (no metric regressed > {max_regress}%)");
        return Ok(());
    }
    for r in &regressions {
        eprintln!("regression: {}", describe_regression(r));
    }
    Err(format!(
        "{} metric(s) regressed beyond {max_regress}% vs {path}",
        regressions.len()
    ))
}

/// The `baton bench --sweep` variant: run the pre-design full sweep under
/// the clock and snapshot `throughput.points_per_sec` plus
/// `alloc.allocs_per_point` — the two metrics the committed
/// `results/BENCH_sweep.json` bounds with absolute `gate.min`/`gate.max`
/// keys (the streaming-repricer gate).
fn bench_sweep(
    model: &Model,
    tech: &Technology,
    macs: u64,
    area: Option<f64>,
    out: &str,
    baseline: Option<&(String, BenchSnapshot)>,
    max_regress: f64,
) -> Result<(), String> {
    use nn_baton::telemetry::{counters, span};

    let opts = SweepOptions {
        total_macs: macs,
        area_limit_mm2: area,
        ..SweepOptions::default()
    };
    let name = bench_name(out);
    let before = counters::snapshot();
    let alloc_before = telemetry::alloc::totals();
    let t0 = Instant::now();
    let points = nn_baton::dse::full_sweep(model, tech, &opts);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let counter_delta = counters::snapshot().since(&before);
    let mut snapshot = BenchSnapshot::build(
        &name,
        model.name(),
        wall_ms,
        &counter_delta,
        &span::phase_stats(),
    );
    // No per-candidate rate here: the sweep's unit of work is the point.
    insert_alloc_metrics(&mut snapshot, &alloc_before, 0);
    let secs = (wall_ms / 1e3).max(f64::MIN_POSITIVE);
    snapshot
        .nums
        .insert("model.points".into(), points.len() as f64);
    snapshot.nums.insert(
        "throughput.points_per_sec".into(),
        points.len() as f64 / secs,
    );
    if !points.is_empty() {
        if let Some(&allocs) = snapshot.nums.get("alloc.allocs") {
            snapshot.nums.insert(
                "alloc.allocs_per_point".into(),
                allocs / points.len() as f64,
            );
        }
    }
    let summary = format!(
        "bench {name}: {} design points in {:.1} ms, {:.0} points/sec -> {out}",
        points.len(),
        wall_ms,
        snapshot
            .nums
            .get("throughput.points_per_sec")
            .copied()
            .unwrap_or(0.0)
    );
    write_and_gate(snapshot, out, &summary, baseline, max_regress)
}
