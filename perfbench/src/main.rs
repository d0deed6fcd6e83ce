//! End-to-end benchmark of the NN-Baton reproduction, driven from outside
//! the program through its public API and its `baton serve` binary.
//!
//! ```text
//! baton-perfbench --workload <map_zoo|sweep_dse|serve_cold|serve_hot>
//!                 --seed N --seconds S --trace 0|1 [--baton PATH]
//! baton-perfbench --bless            # print fresh golden.txt contents
//! ```
//!
//! Every run prints human-readable lines (each timing with its unit and
//! sample count, the error rate, the thread pinning) and, as its last line,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones the workload measured;
//! with `--trace 1` they are the per-layer ones. `run.py` maps them onto
//! `BENCHMARK.json`. See `perfbench/README.md`.

mod serve;
mod stats;
mod sweep;
mod zoo;

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Worker threads every workload runs with: the in-process fan-outs, and the
/// server's worker pool plus its k-best fan-out. One keeps server, client
/// and in-process work within two busy threads on a two-core machine.
pub const THREADS: usize = 1;

/// Set-ups measured per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from (operations, set-ups).
    pub samples: usize,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Set when a check that is not per-operation failed (a missing golden
    /// entry, a workload whose cache traffic is not what it claims).
    pub broken: bool,
    pub metrics: Vec<Metric>,
    /// Free-form lines printed before the result (context, findings).
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Counts one failed operation with its reason (the first few are
    /// printed, all are counted).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 5 {
            self.notes.push(format!("FAILED: {why}"));
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Golden outputs of the in-process workloads, regenerated with `--bless`.
const GOLDEN: &str = include_str!("../golden.txt");

/// The fields after `<kind> <name>` on the matching golden line.
pub fn golden_fields(kind: &str, name: &str) -> Option<Vec<&'static str>> {
    GOLDEN.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        (fields.next()? == kind && fields.next()? == name).then(|| fields.collect())
    })
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub baton: String,
    setup_only: bool,
    bless: bool,
}

impl Args {
    pub fn deadline(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        baton: "baton".to_string(),
        setup_only: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--baton" => args.baton = value()?,
            "--setup-only" => args.setup_only = true,
            "--bless" => args.bless = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Runs one in-process set-up in a fresh child process (so every sample
/// pays the cold-process cost the real run pays) and returns its seconds.
pub fn child_setup_secs(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--setup-only")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn set-up child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .find_map(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.trim().parse().ok())
        .filter(|_| out.status.success())
        .ok_or_else(|| format!("set-up child failed: {}", out.status))
}

/// The `setup_s` samples of an in-process workload: this process's own
/// set-up, plus `SETUPS - 1` set-ups in fresh child processes run between
/// timed operations at evenly spaced points of the run. Spread out like this
/// the samples do not all share the host's speed state of one moment.
pub struct Setups<'a> {
    args: &'a Args,
    samples: Vec<f64>,
}

impl<'a> Setups<'a> {
    /// Times this process's own set-up, whose product the timed loop uses.
    pub fn start<T>(
        args: &'a Args,
        setup: impl FnOnce() -> Result<T, String>,
    ) -> Result<(Self, T), String> {
        let t0 = Instant::now();
        let product = setup()?;
        let samples = vec![t0.elapsed().as_secs_f64()];
        Ok((Setups { args, samples }, product))
    }

    /// Runs the next child set-up if the timed loop, having spent `busy` in
    /// timed operations, has reached the point where it is due.
    pub fn poll(&mut self, busy: Duration) -> Result<(), String> {
        let (done, due) = (self.samples.len() - 1, SETUPS - 1);
        if done < due && busy.as_secs_f64() >= self.args.seconds * done as f64 / due as f64 {
            self.samples.push(child_setup_secs(self.args)?);
        }
        Ok(())
    }

    /// Runs the child set-ups still due; returns the median seconds and the
    /// sample count.
    pub fn finish(mut self) -> Result<(f64, usize), String> {
        while self.samples.len() < SETUPS {
            self.samples.push(child_setup_secs(self.args)?);
        }
        Ok((stats::median(&self.samples), self.samples.len()))
    }
}

fn print_result(args: &Args, report: &Report) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload={} seed={} seconds={} trace={} BATON_THREADS={THREADS} nproc={nproc}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &report.notes {
        println!("  {line}");
    }
    for m in &report.metrics {
        println!(
            "  {:<28} {:>14.4} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let error_rate = report.failed as f64 / report.attempted as f64;
    println!(
        "  {:<28} {:>14.4} {:<6} ({}/{} operations failed)",
        "error_rate", error_rate, "ratio", report.failed, report.attempted
    );
    let correct = report.failed == 0 && !report.broken;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| m.value.is_finite())
        // Debug formatting is the shortest round trip, every digit measured,
        // and always valid JSON for a finite number.
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    nn_baton::parallel::configure_threads(Some(THREADS));
    if args.bless {
        print!("{}", zoo::golden_lines()?);
        print!("{}", sweep::golden_lines()?);
        return Ok(());
    }
    if args.setup_only {
        let t0 = Instant::now();
        match args.workload.as_str() {
            "map_zoo" => drop(zoo::setup()?),
            "sweep_dse" => drop(sweep::setup()?),
            other => return Err(format!("no in-process set-up for {other}")),
        }
        println!("setup_s {}", t0.elapsed().as_secs_f64());
        return Ok(());
    }
    let report = match args.workload.as_str() {
        "map_zoo" => zoo::run(&args)?,
        "sweep_dse" => sweep::run(&args)?,
        "serve_cold" => serve::run(&args, serve::Traffic::Cold)?,
        "serve_hot" => serve::run(&args, serve::Traffic::Hot)?,
        other => {
            return Err(format!(
                "unknown workload {other} (map_zoo, sweep_dse, serve_cold, serve_hot)"
            ))
        }
    };
    if report.attempted == 0 {
        return Err(format!("{}: no operation completed", args.workload));
    }
    print_result(&args, &report);
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("baton-perfbench: {e}");
        std::process::exit(2);
    }
}
