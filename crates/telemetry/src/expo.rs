//! Prometheus/OpenMetrics text exposition for the metrics layer.
//!
//! [`render`] turns one scrape into the v0.0.4 text format: every labelled
//! family from [`metrics::registry()`], every fixed [`Counter`](crate::Counter) bridged in
//! under its canonical [`metric_name`](crate::Counter::metric_name), and a
//! `baton_build_info` gauge. Output is deterministic — families sorted by
//! name, series by sorted label pairs, histogram buckets by bound — so two
//! renders of an unchanged registry are byte-identical (asserted by the
//! golden-file test).
//!
//! # Histogram ladder
//!
//! The backing [`crate::Histogram`] buckets by powers of two in
//! **microseconds**; exposing all 64 bounds per series would bloat scrapes,
//! so the `_bucket` ladder subsamples every other log₂ bound from 3µs to
//! ~17.9min (15 bounds, then `+Inf`). `le` values and `_sum` are converted
//! to base-unit seconds as Prometheus requires; cumulative counts are exact
//! because subsampling only merges adjacent buckets.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::alloc::AllocTotals;
use crate::counters::{self, ALL_COUNTERS};
use crate::histogram::Histogram;
use crate::metrics::{self, FamilySnapshot, SeriesValue};
use crate::procfs::ProcessSample;

/// Log₂ bucket indices sampled into the `le` ladder: odd indices 1..=29,
/// i.e. upper bounds 3µs, 15µs, 63µs, …, ~1.07s, …, ~1074s.
const LADDER: [usize; 15] = [1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29];

/// The profile this crate was compiled under, used as the
/// `baton_build_info{profile}` label.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Renders one live scrape: registry families, bridged run counters,
/// `baton_build_info{profile,version}`, plus — when available — the
/// `baton_alloc_*` ledger (omitted unless the binary installed
/// [`crate::alloc::CountingAlloc`]) and the standard `process_*` series
/// (omitted where procfs is absent; an absent series is "unknown", a zero
/// would be a lie).
pub fn render(version: &str) -> String {
    let alloc = crate::alloc::active().then(crate::alloc::totals);
    let process = crate::procfs::sample();
    render_with(version, build_profile(), alloc, process)
}

/// Pure renderer behind [`render`]: the runtime samples are passed in, so
/// tests (notably the exposition golden file) can pin them to fixed values
/// and assert byte-identical output.
pub fn render_with(
    version: &str,
    profile: &str,
    alloc: Option<AllocTotals>,
    process: Option<ProcessSample>,
) -> String {
    let mut blocks: Vec<(String, String)> = Vec::new();

    let snapshot = metrics::registry().snapshot();
    let registry_names: BTreeSet<&str> = snapshot.iter().map(|f| f.name).collect();
    for family in &snapshot {
        blocks.push((family.name.to_string(), render_family(family)));
    }

    // The fixed Counter enum is bridged at scrape time, not on the hot
    // path: every variant renders under its canonical metric name so
    // dashboards can rely on the series existing from the first scrape.
    // A registry family with the same name (never expected) wins.
    let counter_values = counters::snapshot();
    for c in ALL_COUNTERS {
        let name = c.metric_name();
        if registry_names.contains(name) {
            continue;
        }
        let mut block = String::new();
        let _ = writeln!(
            block,
            "# HELP {name} Run counter `{}` bridged from the telemetry layer.",
            c.name()
        );
        let _ = writeln!(block, "# TYPE {name} counter");
        let _ = writeln!(block, "{name} {}", counter_values.get(c));
        blocks.push((name.to_string(), block));
    }

    let mut info = String::new();
    let _ = writeln!(
        info,
        "# HELP baton_build_info Build metadata; the value is always 1."
    );
    let _ = writeln!(info, "# TYPE baton_build_info gauge");
    let _ = writeln!(
        info,
        "baton_build_info{{profile=\"{}\",version=\"{}\"}} 1",
        escape_label_value(profile),
        escape_label_value(version)
    );
    blocks.push(("baton_build_info".to_string(), info));

    if let Some(a) = alloc {
        push_scalar(
            &mut blocks,
            "baton_alloc_allocations_total",
            "Heap allocations served by the counting allocator.",
            "counter",
            a.allocs.to_string(),
        );
        push_scalar(
            &mut blocks,
            "baton_alloc_deallocations_total",
            "Heap deallocations served by the counting allocator.",
            "counter",
            a.deallocs.to_string(),
        );
        push_scalar(
            &mut blocks,
            "baton_alloc_reallocations_total",
            "Heap reallocations (also counted in allocations and deallocations).",
            "counter",
            a.reallocs.to_string(),
        );
        push_scalar(
            &mut blocks,
            "baton_alloc_bytes_total",
            "Total heap bytes handed out over the process lifetime.",
            "counter",
            a.bytes_allocated.to_string(),
        );
        push_scalar(
            &mut blocks,
            "baton_alloc_freed_bytes_total",
            "Total heap bytes returned over the process lifetime.",
            "counter",
            a.bytes_freed.to_string(),
        );
        push_scalar(
            &mut blocks,
            "baton_alloc_live_bytes",
            "Heap bytes currently live (allocated minus freed).",
            "gauge",
            a.live_bytes.to_string(),
        );
        push_scalar(
            &mut blocks,
            "baton_alloc_peak_live_bytes",
            "High-water mark of live heap bytes.",
            "gauge",
            a.peak_live_bytes.to_string(),
        );
    }

    if let Some(p) = process {
        push_scalar(
            &mut blocks,
            "process_cpu_seconds_total",
            "Total user and system CPU time spent in seconds.",
            "counter",
            fmt_f64(p.cpu_seconds),
        );
        push_scalar(
            &mut blocks,
            "process_resident_memory_bytes",
            "Resident memory size in bytes.",
            "gauge",
            p.resident_bytes.to_string(),
        );
        push_scalar(
            &mut blocks,
            "process_virtual_memory_bytes",
            "Virtual memory size in bytes.",
            "gauge",
            p.virtual_bytes.to_string(),
        );
        push_scalar(
            &mut blocks,
            "process_open_fds",
            "Number of open file descriptors.",
            "gauge",
            p.open_fds.to_string(),
        );
        push_scalar(
            &mut blocks,
            "process_threads",
            "Number of OS threads in the process.",
            "gauge",
            p.threads.to_string(),
        );
    }

    blocks.sort_by(|a, b| a.0.cmp(&b.0));
    blocks.into_iter().map(|(_, b)| b).collect()
}

/// Appends a single-series unlabelled family block.
fn push_scalar(
    blocks: &mut Vec<(String, String)>,
    name: &str,
    help: &str,
    kind: &str,
    value: String,
) {
    let mut block = String::new();
    let _ = writeln!(block, "# HELP {name} {help}");
    let _ = writeln!(block, "# TYPE {name} {kind}");
    let _ = writeln!(block, "{name} {value}");
    blocks.push((name.to_string(), block));
}

fn render_family(family: &FamilySnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# HELP {} {}", family.name, escape_help(family.help));
    let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.type_label());
    for (labels, value) in &family.series {
        match value {
            SeriesValue::Counter(v) => {
                let _ = writeln!(out, "{}{} {v}", family.name, label_set(labels, None));
            }
            SeriesValue::Gauge(v) => {
                let _ = writeln!(
                    out,
                    "{}{} {}",
                    family.name,
                    label_set(labels, None),
                    fmt_f64(*v)
                );
            }
            SeriesValue::Histogram(h) => render_histogram(&mut out, family.name, labels, h),
        }
    }
    out
}

/// Emits `name_bucket{..,le=..}` lines (cumulative, ending `le="+Inf"`),
/// then `name_sum` and `name_count`. Bounds and sums convert µs → seconds.
fn render_histogram(
    out: &mut String,
    name: &str,
    labels: &[(&'static str, String)],
    h: &Histogram,
) {
    let cumulative: Vec<(u64, u64)> = h.cumulative().collect();
    for &i in &LADDER {
        let (bound_us, count) = cumulative[i];
        let le = fmt_f64(bound_us as f64 / 1e6);
        let _ = writeln!(out, "{name}_bucket{} {count}", label_set(labels, Some(&le)));
    }
    let _ = writeln!(
        out,
        "{name}_bucket{} {}",
        label_set(labels, Some("+Inf")),
        h.count()
    );
    let _ = writeln!(
        out,
        "{name}_sum{} {}",
        label_set(labels, None),
        fmt_f64(h.sum() as f64 / 1e6)
    );
    let _ = writeln!(out, "{name}_count{} {}", label_set(labels, None), h.count());
}

/// Formats a label set `{a="x",b="y"}` (empty string when there are no
/// labels), with an optional trailing `le` label for histogram buckets.
fn label_set(labels: &[(&'static str, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Escapes a label value per the text format: backslash, double quote, and
/// line feed.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

/// Escapes `# HELP` text: backslash and line feed (quotes are legal there).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

/// Deterministic float rendering: Rust's shortest-roundtrip `Display`,
/// which never emits exponents for the magnitudes the ladder produces.
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;
    use std::time::Duration;

    #[test]
    fn ladder_covers_micros_to_minutes() {
        assert_eq!(LADDER.len(), 15);
        assert_eq!(Histogram::bucket_bound(LADDER[0]), 3);
        assert_eq!(Histogram::bucket_bound(LADDER[14]), (1u64 << 30) - 1);
        assert_eq!(fmt_f64(3.0 / 1e6), "0.000003");
        assert_eq!(fmt_f64(((1u64 << 30) - 1) as f64 / 1e6), "1073.741823");
    }

    #[test]
    fn render_is_sorted_escaped_and_stable() {
        let _guard = test_lock::hold();
        metrics::reset();
        metrics::enable();
        metrics::counter_add(
            "baton_zz_total",
            "last family",
            &[("model", "a\"b\\c\nd")],
            2,
        );
        metrics::gauge_set("baton_aa", "first family", &[], 1.5);
        metrics::observe_duration(
            "baton_mid_seconds",
            "a histogram",
            &[("path", "/map")],
            Duration::from_micros(100),
        );
        // The pure renderer with pinned samples must be byte-stable; the
        // live `render` resamples procfs per scrape so it is only required
        // to be *shaped* the same.
        let text = render_with("1.2.3", "debug", None, None);
        assert_eq!(
            text,
            render_with("1.2.3", "debug", None, None),
            "unchanged registry renders identically"
        );

        assert!(text.contains("# TYPE baton_aa gauge\nbaton_aa 1.5\n"));
        assert!(text.contains("baton_zz_total{model=\"a\\\"b\\\\c\\nd\"} 2"));
        assert!(text.contains("# TYPE baton_mid_seconds histogram"));
        // 100us falls in bucket 6 (bound 127us = 0.000127s); the first
        // ladder bound that covers it.
        assert!(text.contains("baton_mid_seconds_bucket{path=\"/map\",le=\"0.000255\"} 1"));
        assert!(text.contains("baton_mid_seconds_bucket{path=\"/map\",le=\"+Inf\"} 1"));
        assert!(text.contains("baton_mid_seconds_sum{path=\"/map\"} 0.0001\n"));
        assert!(text.contains("baton_mid_seconds_count{path=\"/map\"} 1\n"));
        assert!(text.contains("baton_build_info{profile=\"debug\",version=\"1.2.3\"} 1"));
        // Bridged counters always render, even at zero.
        assert!(text.contains("# TYPE baton_cache_hits_total counter"));
        assert!(text.contains("# TYPE baton_search_pruned_total counter"));

        // Families are in sorted order.
        let pos = |needle: &str| text.find(needle).unwrap();
        assert!(pos("# TYPE baton_aa ") < pos("# TYPE baton_build_info "));
        assert!(pos("# TYPE baton_mid_seconds ") < pos("# TYPE baton_zz_total "));

        // Runtime samples are absent here, so their series must be too.
        assert!(!text.contains("baton_alloc_"));
        assert!(!text.contains("process_"));
        metrics::reset();
    }

    #[test]
    fn runtime_samples_render_when_present_and_vanish_when_absent() {
        let _guard = test_lock::hold();
        metrics::reset();
        metrics::enable();
        let alloc = crate::alloc::AllocTotals {
            allocs: 100,
            deallocs: 90,
            reallocs: 7,
            bytes_allocated: 4096,
            bytes_freed: 1024,
            live_bytes: 3072,
            peak_live_bytes: 3584,
        };
        let process = crate::procfs::ProcessSample {
            cpu_seconds: 1.25,
            resident_bytes: 5_000 * 1024,
            peak_resident_bytes: 6_000 * 1024,
            virtual_bytes: 10_000 * 1024,
            open_fds: 12,
            threads: 3,
        };
        let text = render_with("9.9.9", "release", Some(alloc), Some(process));
        assert!(text.contains(
            "# TYPE baton_alloc_allocations_total counter\nbaton_alloc_allocations_total 100\n"
        ));
        assert!(text.contains("baton_alloc_deallocations_total 90\n"));
        assert!(text.contains("baton_alloc_reallocations_total 7\n"));
        assert!(text.contains("baton_alloc_bytes_total 4096\n"));
        assert!(text.contains("baton_alloc_freed_bytes_total 1024\n"));
        assert!(text.contains("# TYPE baton_alloc_live_bytes gauge\nbaton_alloc_live_bytes 3072\n"));
        assert!(text.contains("baton_alloc_peak_live_bytes 3584\n"));
        assert!(text.contains(
            "# TYPE process_cpu_seconds_total counter\nprocess_cpu_seconds_total 1.25\n"
        ));
        assert!(text.contains("process_resident_memory_bytes 5120000\n"));
        assert!(text.contains("process_virtual_memory_bytes 10240000\n"));
        assert!(text.contains("process_open_fds 12\n"));
        assert!(text.contains("process_threads 3\n"));
        assert!(text.contains("baton_build_info{profile=\"release\",version=\"9.9.9\"} 1"));
        // process_* sorts after every baton_* family.
        let pos = |needle: &str| text.find(needle).unwrap();
        assert!(pos("# TYPE baton_build_info ") < pos("# TYPE process_cpu_seconds_total "));
        metrics::reset();
    }

    #[test]
    fn live_render_omits_alloc_series_without_an_installed_allocator() {
        let _guard = test_lock::hold();
        metrics::reset();
        metrics::enable();
        let text = render("0.1.0");
        // This test binary does not install CountingAlloc, so the ledger is
        // inactive and the series must be absent rather than zero.
        assert!(!text.contains("baton_alloc_"));
        assert!(text.contains(&format!(
            "baton_build_info{{profile=\"{}\"",
            build_profile()
        )));
        #[cfg(target_os = "linux")]
        {
            assert!(text.contains("# TYPE process_cpu_seconds_total counter"));
            assert!(text.contains("process_resident_memory_bytes "));
            assert!(text.contains("process_open_fds "));
        }
        metrics::reset();
    }

    #[test]
    fn subsampled_buckets_stay_cumulative() {
        let _guard = test_lock::hold();
        metrics::reset();
        metrics::enable();
        for us in [1u64, 2, 10, 200, 5_000, 2_000_000] {
            metrics::observe_duration(
                "baton_lat_seconds",
                "latency",
                &[],
                Duration::from_micros(us),
            );
        }
        let text = render("0");
        let mut last = 0u64;
        let mut buckets = 0;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("baton_lat_seconds_bucket{le=\"") {
                let count: u64 = rest.split("} ").nth(1).unwrap().parse().unwrap();
                assert!(count >= last, "cumulative counts must not decrease: {line}");
                last = count;
                buckets += 1;
            }
        }
        assert_eq!(buckets, 16, "15 ladder bounds + +Inf");
        assert_eq!(last, 6, "+Inf bucket carries the total count");
        metrics::reset();
    }
}
