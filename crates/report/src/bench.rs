//! Machine-readable performance snapshots (`BENCH_*.json`).
//!
//! A snapshot is one flat JSON object of dotted scalar keys — pretty-printed
//! for humans, but parseable with the workspace's own
//! [`baton_telemetry::json::parse_flat_object`] so CI and scripts need no
//! JSON library:
//!
//! * `name` / `model` / `schema` — identity,
//! * `wall_ms.total` — end-to-end wall time of the benched run,
//! * `phase.<p>.count|total_ms|mean_us|max_us|p90_us` — per-phase span
//!   statistics from the telemetry histograms,
//! * `phase.search_unattributed_ms` / `phase.sweep_unattributed_ms` — the
//!   time of a layer search (`search_layer`) or a sweep unit
//!   (`sweep_geometry`) outside its stage spans (see [`STAGE_SPLITS`]), so
//!   the stages add up to the total; not gated,
//! * `counter.<metric>` — every non-zero telemetry counter, keyed by its
//!   canonical Prometheus series name ([`Counter::metric_name`], e.g.
//!   `counter.baton_evaluations_total`) so snapshots and `/metrics` scrapes
//!   join on the same keys,
//! * `throughput.evals_per_sec` / `throughput.mappings_per_sec` — derived
//!   rates.
//!
//! [`compare_snapshots`] checks a current snapshot against a committed
//! baseline: wall/phase times may not grow, throughputs may not shrink, by
//! more than a percentage. Counters are identity-checked nowhere — they are
//! workload-dependent context, not a pass/fail surface.
//!
//! A baseline may additionally carry **absolute bounds**: a numeric key
//! `gate.min.<metric>` fails the gate when the current `<metric>` falls
//! below the bound, `gate.max.<metric>` when it rises above. Bounds are
//! exempt from the regression tolerance — they are hard floors/ceilings,
//! hand-written into the committed baseline (e.g. the batched-engine gate
//! `gate.min.throughput.evals_per_sec` in `results/BENCH_soa.json`), and
//! are never emitted by [`BenchSnapshot::build`] itself.

use std::collections::BTreeMap;

use baton_telemetry::counters::{Counter, CounterSnapshot};
use baton_telemetry::histogram::Histogram;
use baton_telemetry::json::{parse_flat_object, ObjectWriter, Value};

/// One performance snapshot: string identity fields plus numeric metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchSnapshot {
    /// Identity/context fields (`name`, `model`, ...), emitted first.
    pub strs: BTreeMap<String, String>,
    /// Numeric metrics keyed by dotted path.
    pub nums: BTreeMap<String, f64>,
}

/// Snapshot schema version, bumped when key meanings change.
pub const SCHEMA: u64 = 1;

/// The stage splits a snapshot reports a residual for: `(name, unit
/// phase, stage phases)`. A layer search times its candidate-space fill
/// and its chunks' geometry, floor and pricing stages; the rest of
/// `search_layer` is set-up, the fan-out and the reduce. The chunk stages
/// run on the search workers, so the residual is a wall-time remainder only
/// at one thread. A sweep unit times each fresh layer shape's pair floors
/// (enumeration included) and corner selection, then its grid scoring.
pub const STAGE_SPLITS: [(&str, &str, &[&str]); 2] = [
    (
        "search",
        "search_layer",
        &[
            "search_enumerate",
            "search_geometry",
            "search_floor",
            "search_price",
        ],
    ),
    (
        "sweep",
        "sweep_geometry",
        &["sweep_floor", "sweep_corners", "sweep_grid"],
    ),
];

impl BenchSnapshot {
    /// Builds a snapshot from a benched run's telemetry.
    ///
    /// `counters` should already be the delta for the benched region (see
    /// [`CounterSnapshot::since`]); `phases` comes straight from
    /// `baton_telemetry::span::phase_stats()`.
    pub fn build(
        name: &str,
        model: &str,
        wall_ms: f64,
        counters: &CounterSnapshot,
        phases: &[(&'static str, Histogram)],
    ) -> Self {
        let mut s = BenchSnapshot::default();
        s.strs.insert("name".into(), name.to_string());
        s.strs.insert("model".into(), model.to_string());
        s.nums.insert("schema".into(), SCHEMA as f64);
        s.nums.insert("wall_ms.total".into(), wall_ms);
        for (phase, h) in phases {
            if h.count() == 0 {
                continue;
            }
            let k = |leaf: &str| format!("phase.{phase}.{leaf}");
            s.nums.insert(k("count"), h.count() as f64);
            s.nums.insert(k("total_ms"), h.sum() as f64 / 1e3);
            s.nums.insert(k("mean_us"), h.mean());
            s.nums.insert(k("max_us"), h.max() as f64);
            s.nums.insert(k("p90_us"), h.quantile(0.9) as f64);
        }
        // The key is not a `phase.*.total_ms` one: a small difference of
        // timed spans is noise the baseline gate must not compare.
        for (name, unit, stages) in STAGE_SPLITS {
            let total_ms = |p: &str| s.nums.get(&format!("phase.{p}.total_ms")).copied();
            if let Some(unit_ms) = total_ms(unit) {
                let staged: f64 = stages.iter().copied().filter_map(total_ms).sum();
                s.nums
                    .insert(format!("phase.{name}_unattributed_ms"), unit_ms - staged);
            }
        }
        for c in baton_telemetry::counters::ALL_COUNTERS {
            let v = counters.get(c);
            if v > 0 {
                s.nums
                    .insert(format!("counter.{}", c.metric_name()), v as f64);
            }
        }
        let secs = (wall_ms / 1e3).max(f64::MIN_POSITIVE);
        s.nums.insert(
            "throughput.evals_per_sec".into(),
            counters.get(Counter::Evaluations) as f64 / secs,
        );
        s.nums.insert(
            "throughput.mappings_per_sec".into(),
            counters.get(Counter::CandidatesGenerated) as f64 / secs,
        );
        s
    }

    /// Renders the snapshot as a pretty-printed flat JSON object whose
    /// whole text parses with `parse_flat_object`.
    pub fn to_json(&self) -> String {
        let mut w = ObjectWriter::pretty();
        for (k, v) in &self.strs {
            w.str(k, v);
        }
        for (k, v) in &self.nums {
            w.f64(k, *v);
        }
        let mut out = w.finish();
        out.push('\n');
        out
    }

    /// Parses a snapshot previously written by [`Self::to_json`].
    ///
    /// # Errors
    ///
    /// Propagates the flat-object parser's error on malformed input.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut s = BenchSnapshot::default();
        for (k, v) in parse_flat_object(text.trim())? {
            match v {
                Value::Number(n) => {
                    s.nums.insert(k, n);
                }
                Value::String(st) => {
                    s.strs.insert(k, st);
                }
                Value::Bool(_) | Value::Null => {}
            }
        }
        Ok(s)
    }
}

/// One metric that got worse than the baseline allows.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The dotted metric key.
    pub key: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Signed change in percent; positive means "got worse" regardless of
    /// whether the metric is a time (grew) or a throughput (shrank).
    pub change_pct: f64,
}

/// Keys compared, and in which direction "worse" points.
fn direction(key: &str) -> Option<bool> {
    // Some(true): higher is worse (times, allocation pressure).
    // Some(false): lower is worse (throughputs). None: informational only
    // (counts, means, counters, absolute byte totals — machine-dependent).
    if key == "wall_ms.total"
        || key == "alloc.allocs_per_eval"
        || key == "alloc.allocs_per_point"
        || (key.starts_with("phase.") && key.ends_with(".total_ms"))
    {
        Some(true)
    } else if key.starts_with("throughput.") {
        Some(false)
    } else {
        None
    }
}

/// Compares `current` against `baseline`, returning every gate metric that
/// regressed by more than `max_regress_pct` percent, plus every violated
/// absolute `gate.min.*`/`gate.max.*` bound the baseline declares (those
/// ignore the tolerance). Only keys present in both snapshots are compared,
/// so adding a phase never fails the gate; likewise a bound on a metric the
/// current snapshot lacks is skipped.
pub fn compare_snapshots(
    current: &BenchSnapshot,
    baseline: &BenchSnapshot,
    max_regress_pct: f64,
) -> Vec<Regression> {
    let mut out = Vec::new();
    for (key, &base) in &baseline.nums {
        // Absolute bounds: hard floors/ceilings, tolerance-exempt. The
        // reported key is the gate key itself so CI output names the bound
        // that tripped; non-positive bounds are ignored (a zero floor or
        // ceiling cannot express anything the percent math can divide by).
        if let Some(metric) = key.strip_prefix("gate.min.") {
            if let Some(&cur) = current.nums.get(metric) {
                if base > 0.0 && cur < base {
                    out.push(Regression {
                        key: key.clone(),
                        baseline: base,
                        current: cur,
                        change_pct: 100.0 * (base - cur) / base,
                    });
                }
            }
            continue;
        }
        if let Some(metric) = key.strip_prefix("gate.max.") {
            if let Some(&cur) = current.nums.get(metric) {
                if base > 0.0 && cur > base {
                    out.push(Regression {
                        key: key.clone(),
                        baseline: base,
                        current: cur,
                        change_pct: 100.0 * (cur - base) / base,
                    });
                }
            }
            continue;
        }
        let Some(higher_is_worse) = direction(key) else {
            continue;
        };
        let Some(&cur) = current.nums.get(key) else {
            continue;
        };
        if base <= 0.0 {
            continue;
        }
        let change_pct = if higher_is_worse {
            100.0 * (cur - base) / base
        } else {
            100.0 * (base - cur) / base
        };
        if change_pct > max_regress_pct {
            out.push(Regression {
                key: key.clone(),
                baseline: base,
                current: cur,
                change_pct,
            });
        }
    }
    out
}

/// Human-readable one-liner for a regression, used by the CLI.
pub fn describe_regression(r: &Regression) -> String {
    format!(
        "{}: baseline {:.3} -> current {:.3} ({:+.1}% worse)",
        r.key, r.baseline, r.current, r.change_pct
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(wall: f64, search_ms: f64, evals_per_sec: f64) -> BenchSnapshot {
        let mut s = BenchSnapshot::default();
        s.strs.insert("name".into(), "smoke".into());
        s.strs.insert("model".into(), "alexnet".into());
        s.nums.insert("schema".into(), SCHEMA as f64);
        s.nums.insert("wall_ms.total".into(), wall);
        s.nums.insert("phase.search.total_ms".into(), search_ms);
        s.nums.insert("phase.search.count".into(), 5.0);
        s.nums
            .insert("throughput.evals_per_sec".into(), evals_per_sec);
        s.nums
            .insert("counter.baton_evaluations_total".into(), 1000.0);
        s
    }

    #[test]
    fn json_round_trips_through_flat_parser() {
        let s = synthetic(120.5, 80.25, 8300.0);
        let text = s.to_json();
        assert!(text.starts_with("{\n"), "pretty layout expected");
        let back = BenchSnapshot::parse(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn build_derives_phases_counters_and_throughput() {
        let mut h = Histogram::new();
        h.record(1000);
        h.record(3000);
        let counters = CounterSnapshot::default();
        let s = BenchSnapshot::build("smoke", "alexnet", 2000.0, &counters, &[("search", h)]);
        assert_eq!(s.strs["name"], "smoke");
        assert_eq!(s.nums["schema"], SCHEMA as f64);
        assert_eq!(s.nums["phase.search.count"], 2.0);
        assert!((s.nums["phase.search.total_ms"] - 4.0).abs() < 1e-9);
        // No evaluations counted -> zero throughput, but the key exists.
        assert_eq!(s.nums["throughput.evals_per_sec"], 0.0);
        // Empty phases are skipped.
        assert!(!s.nums.keys().any(|k| k.starts_with("phase.idle")));
    }

    #[test]
    fn build_reports_each_stage_split_residual() {
        let ms = |v: &[u64]| {
            let mut h = Histogram::new();
            v.iter().for_each(|&us| h.record(us));
            h
        };
        let counters = CounterSnapshot::default();
        let phases = [
            ("search_enumerate", ms(&[1500])),
            ("search_floor", ms(&[1000])),
            ("search_geometry", ms(&[2000, 1000])),
            ("search_layer", ms(&[7000])),
            ("search_price", ms(&[500])),
            ("sweep_floor", ms(&[4000])),
        ];
        let s = BenchSnapshot::build("smoke", "alexnet", 9.0, &counters, &phases);
        // 7 ms of search less 6 ms of stages, enumeration included.
        assert!((s.nums["phase.search_unattributed_ms"] - 1.0).abs() < 1e-9);
        // A stage without its unit phase reports no residual.
        assert!(!s.nums.contains_key("phase.sweep_unattributed_ms"));
    }

    #[test]
    fn counters_embed_canonical_metric_names() {
        // Snapshot keys must join against /metrics scrapes: every counter
        // key is the Prometheus series name, not the short wire name.
        let _s = baton_telemetry::attach_with_sink(&Default::default(), None);
        baton_telemetry::count_n(Counter::Evaluations, 7);
        let snap = baton_telemetry::counters::snapshot();
        let s = BenchSnapshot::build("x", "m", 1.0, &snap, &[]);
        assert_eq!(s.nums["counter.baton_evaluations_total"], 7.0);
        assert!(
            !s.nums.contains_key("counter.evaluations"),
            "legacy wire-name keys must be gone"
        );
    }

    #[test]
    fn allocs_per_eval_regressions_trip_the_gate() {
        let mut base = synthetic(100.0, 60.0, 10000.0);
        base.nums.insert("alloc.allocs_per_eval".into(), 10.0);
        base.nums.insert("alloc.peak_rss_bytes".into(), 1e8);
        let mut cur = base.clone();
        cur.nums.insert("alloc.allocs_per_eval".into(), 16.0);
        // Peak RSS is machine-dependent and informational: never gated.
        cur.nums.insert("alloc.peak_rss_bytes".into(), 9e9);
        let regs = compare_snapshots(&cur, &base, 25.0);
        let keys: Vec<&str> = regs.iter().map(|r| r.key.as_str()).collect();
        assert_eq!(keys, ["alloc.allocs_per_eval"]);
        assert!((regs[0].change_pct - 60.0).abs() < 1e-9);
        // Fewer allocations per eval is an improvement, not a regression.
        let mut better = base.clone();
        better.nums.insert("alloc.allocs_per_eval".into(), 1.0);
        assert!(compare_snapshots(&better, &base, 25.0).is_empty());
        // The sweep's per-point cousin gates in the same direction.
        let mut swept = base.clone();
        swept.nums.insert("alloc.allocs_per_point".into(), 10.0);
        let mut churny = swept.clone();
        churny.nums.insert("alloc.allocs_per_point".into(), 16.0);
        let regs = compare_snapshots(&churny, &swept, 25.0);
        let keys: Vec<&str> = regs.iter().map(|r| r.key.as_str()).collect();
        assert_eq!(keys, ["alloc.allocs_per_point"]);
    }

    #[test]
    fn slower_times_and_lower_throughput_regress() {
        let base = synthetic(100.0, 60.0, 10000.0);
        // 50% slower wall, 100% slower search phase, 40% lower throughput.
        let cur = synthetic(150.0, 120.0, 6000.0);
        let regs = compare_snapshots(&cur, &base, 25.0);
        let keys: Vec<&str> = regs.iter().map(|r| r.key.as_str()).collect();
        assert_eq!(
            keys,
            [
                "phase.search.total_ms",
                "throughput.evals_per_sec",
                "wall_ms.total"
            ]
        );
        assert!(regs.iter().all(|r| r.change_pct > 25.0));
        assert!(describe_regression(&regs[0]).contains("worse"));
        // Within tolerance: no regressions.
        assert!(compare_snapshots(&cur, &base, 120.0).is_empty());
        // Counters and counts never gate.
        let mut noisy = base.clone();
        noisy
            .nums
            .insert("counter.baton_evaluations_total".into(), 9e9);
        noisy.nums.insert("phase.search.count".into(), 9e9);
        assert!(compare_snapshots(&noisy, &base, 1.0).is_empty());
    }

    #[test]
    fn absolute_bounds_gate_regardless_of_tolerance() {
        let mut base = synthetic(100.0, 60.0, 10000.0);
        base.nums
            .insert("gate.min.throughput.evals_per_sec".into(), 8000.0);
        base.nums
            .insert("gate.max.alloc.allocs_per_eval".into(), 50.0);
        // Above the floor, below the ceiling: clean.
        let mut cur = synthetic(100.0, 60.0, 9000.0);
        cur.nums.insert("alloc.allocs_per_eval".into(), 2.0);
        assert!(compare_snapshots(&cur, &base, 25.0).is_empty());
        // Below the floor: fails even inside the relative tolerance
        // (10000 -> 7900 is -21%, under the 25% gate).
        let mut slow = synthetic(100.0, 60.0, 7900.0);
        slow.nums.insert("alloc.allocs_per_eval".into(), 2.0);
        let regs = compare_snapshots(&slow, &base, 25.0);
        let keys: Vec<&str> = regs.iter().map(|r| r.key.as_str()).collect();
        assert_eq!(keys, ["gate.min.throughput.evals_per_sec"]);
        assert!((regs[0].change_pct - 1.25).abs() < 1e-9);
        assert!(describe_regression(&regs[0]).contains("gate.min"));
        // Above the ceiling: fails with an enormous tolerance.
        let mut leaky = synthetic(100.0, 60.0, 9000.0);
        leaky.nums.insert("alloc.allocs_per_eval".into(), 51.0);
        let regs = compare_snapshots(&leaky, &base, 1e9);
        let keys: Vec<&str> = regs.iter().map(|r| r.key.as_str()).collect();
        assert_eq!(keys, ["gate.max.alloc.allocs_per_eval"]);
        // A bound on a metric the current run lacks is skipped, and the
        // gate keys themselves are never treated as ordinary metrics.
        let bare = synthetic(100.0, 60.0, 9000.0);
        assert!(compare_snapshots(&bare, &base, 25.0).is_empty());
    }

    #[test]
    fn sweep_unattributed_remainder_does_not_gate() {
        // `baton bench --sweep` reports the sweep unit's time outside its
        // stage spans under this key; a residual of a few ms swings by
        // more than any tolerance between runs.
        let mut base = synthetic(100.0, 60.0, 10000.0);
        base.nums.insert("phase.sweep_unattributed_ms".into(), 2.0);
        let mut cur = base.clone();
        cur.nums.insert("phase.sweep_unattributed_ms".into(), 3.0);
        assert!(compare_snapshots(&cur, &base, 50.0).is_empty());
        cur.nums.insert("phase.sweep_unattributed_ms".into(), -1.0);
        assert!(compare_snapshots(&cur, &base, 50.0).is_empty());
        // The stage spans themselves still gate.
        base.nums.insert("phase.sweep_floor.total_ms".into(), 200.0);
        cur.nums.insert("phase.sweep_floor.total_ms".into(), 400.0);
        let regs = compare_snapshots(&cur, &base, 50.0);
        let keys: Vec<&str> = regs.iter().map(|r| r.key.as_str()).collect();
        assert_eq!(keys, ["phase.sweep_floor.total_ms"]);
    }

    #[test]
    fn improvements_and_missing_keys_do_not_gate() {
        let base = synthetic(100.0, 60.0, 10000.0);
        let faster = synthetic(50.0, 30.0, 20000.0);
        assert!(compare_snapshots(&faster, &base, 5.0).is_empty());
        // Key only in baseline (phase removed): skipped, not failed.
        let mut cur = faster.clone();
        cur.nums.remove("phase.search.total_ms");
        assert!(compare_snapshots(&cur, &base, 5.0).is_empty());
    }
}
