//! Golden-file test for the Prometheus text exposition.
//!
//! One test function (the registry is process-global, so the scenario runs
//! as a single sequential script): build a registry with every metric kind
//! and hostile label values, render, and hold the output to the committed
//! golden file byte for byte. Regenerate after an intentional format change
//! with:
//!
//! ```text
//! BLESS=1 cargo test -p baton-telemetry --test expo_golden
//! ```

use std::time::Duration;

use baton_telemetry::expo;
use baton_telemetry::metrics::{self, kind, Family};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/exposition.txt");

#[test]
fn exposition_matches_the_golden_file() {
    metrics::reset();
    metrics::enable();

    // A counter family with two series, one carrying every escapable
    // character in its label value: backslash, double quote, newline.
    const REQUESTS: Family<kind::Counter> =
        Family::counter("baton_demo_requests_total", "Demo requests by path.");
    REQUESTS.add(&[("path", "/map")], 3);
    REQUESTS.add(&[("path", "esc \\ \" \n done")], 1);
    // A gauge, set then adjusted.
    const WORKERS: Family<kind::Gauge> =
        Family::gauge("baton_demo_workers", "Demo worker occupancy.");
    WORKERS.set(&[], 4.0);
    WORKERS.shift(&[], -1.5);
    // A histogram spanning several ladder buckets, including one past the
    // last finite bound (only +Inf covers ~20 minutes).
    const LATENCY: Family<kind::Histogram> =
        Family::histogram("baton_demo_seconds", "Demo latency.");
    for us in [1u64, 2, 10, 200, 5_000, 2_000_000, 1_300_000_000] {
        LATENCY.observe(&[("objective", "energy")], Duration::from_micros(us));
    }

    // The serving-layer families exactly as `baton serve` and
    // `baton-parallel` emit them: response-cache traffic plus the shared
    // queue-depth gauge (one series per queue name). Pinned here so the
    // scrape surface for cache hit-rate and back-pressure dashboards is
    // byte-stable.
    Family::counter(
        "baton_response_cache_hits_total",
        "Mapping requests answered from the response cache.",
    )
    .add(&[], 5);
    Family::counter(
        "baton_response_cache_misses_total",
        "Mapping requests that missed the response cache and ran the search.",
    )
    .add(&[], 2);
    Family::counter(
        "baton_response_cache_evictions_total",
        "Response cache entries evicted to make room (LRU per shard).",
    )
    .add(&[], 1);
    Family::gauge(
        "baton_response_cache_entries",
        "Entries currently held by the response cache.",
    )
    .set(&[], 2.0);
    const QUEUE_DEPTH: Family<kind::Gauge> = Family::gauge(
        "baton_parallel_queue_depth",
        "Unclaimed items in a bounded parallel work queue, by queue name.",
    );
    QUEUE_DEPTH.set(&[("queue", "http")], 3.0);
    QUEUE_DEPTH.set(&[("queue", "fanout")], 0.0);
    // The sweep-observability families exactly as `baton-dse` emits them
    // (names and help pinned by string literal: this crate sits below
    // baton-dse in the dependency graph, so it cannot import the consts).
    // One sweep of 3 units, plus the end-of-sweep throughput and front-size
    // gauges, all labelled by flow.
    Family::histogram(
        "baton_sweep_duration_seconds",
        "Pre-design sweep latency by flow.",
    )
    .observe(&[("flow", "full")], Duration::from_millis(750));
    const SWEEP_UNIT: Family<kind::Histogram> = Family::histogram(
        "baton_sweep_unit_duration_seconds",
        "Pre-design sweep per-geometry-unit latency by flow.",
    );
    for us in [4_000u64, 9_000, 60_000] {
        SWEEP_UNIT.observe(&[("flow", "full")], Duration::from_micros(us));
    }
    Family::gauge(
        "baton_sweep_points_per_second",
        "Valid design points per second over the last completed sweep, by flow.",
    )
    .set(&[("flow", "full")], 35_776.0);
    Family::gauge(
        "baton_sweep_front_size",
        "Pareto front size of the last completed sweep, by flow.",
    )
    .set(&[("flow", "full")], 20.0);

    // Server-side connection closes, labelled by cause — the closed set
    // `baton serve` emits (client-initiated closes are not counted).
    const CLOSED: Family<kind::Counter> = Family::counter(
        "baton_http_connections_closed_total",
        "Keep-alive connections closed by the server, by cause \
         (limit, deadline, framing, drain).",
    );
    for (cause, n) in [("deadline", 2), ("drain", 1), ("framing", 4), ("limit", 3)] {
        CLOSED.add(&[("cause", cause)], n);
    }

    // The runtime samples (allocator ledger, procfs) are pinned to fixed
    // synthetic values: the golden file must be byte-stable across
    // platforms, build profiles, and whatever the test process's real
    // memory usage happens to be. `expo::render` wires the live values to
    // the same renderer.
    let alloc = baton_telemetry::alloc::AllocTotals {
        allocs: 1_000,
        deallocs: 900,
        reallocs: 40,
        bytes_allocated: 1_048_576,
        bytes_freed: 786_432,
        live_bytes: 262_144,
        peak_live_bytes: 524_288,
    };
    let process = baton_telemetry::procfs::ProcessSample {
        cpu_seconds: 12.34,
        resident_bytes: 104_857_600,
        peak_resident_bytes: 125_829_120,
        virtual_bytes: 1_073_741_824,
        open_fds: 32,
        threads: 9,
    };
    let rendered = expo::render_with("0.0.0-golden", "golden", Some(alloc), Some(process));

    // Two renders of an unchanged registry are byte-identical.
    assert_eq!(
        rendered,
        expo::render_with("0.0.0-golden", "golden", Some(alloc), Some(process))
    );

    // TYPE lines for every kind.
    assert!(rendered.contains("# TYPE baton_demo_requests_total counter"));
    assert!(rendered.contains("# TYPE baton_demo_workers gauge"));
    assert!(rendered.contains("# TYPE baton_demo_seconds histogram"));
    assert!(rendered.contains("# HELP baton_demo_seconds Demo latency.\n"));

    // Label escaping: \\ then \" then \n, in one label value.
    assert!(
        rendered.contains(r#"baton_demo_requests_total{path="esc \\ \" \n done"} 1"#),
        "escaped label value missing:\n{rendered}"
    );
    assert!(rendered.contains("baton_demo_workers 2.5"));

    // Histogram series: cumulative counts never decrease, the ladder ends
    // at le="+Inf" with the total count, and _sum/_count agree.
    let bucket_counts: Vec<u64> = rendered
        .lines()
        .filter(|l| l.starts_with("baton_demo_seconds_bucket{"))
        .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
        .collect();
    assert_eq!(bucket_counts.len(), 16, "15 finite bounds + +Inf");
    assert!(
        bucket_counts.windows(2).all(|w| w[0] <= w[1]),
        "cumulative bucket counts decreased: {bucket_counts:?}"
    );
    assert_eq!(*bucket_counts.last().unwrap(), 7);
    assert!(rendered
        .lines()
        .any(|l| l == "baton_demo_seconds_bucket{objective=\"energy\",le=\"+Inf\"} 7"));
    assert!(rendered.contains("baton_demo_seconds_count{objective=\"energy\"} 7"));
    // 1300s sample exceeds every finite bound: only +Inf reaches 7.
    assert!(rendered
        .lines()
        .any(|l| l == "baton_demo_seconds_bucket{objective=\"energy\",le=\"1073.741823\"} 6"));

    // The serving families: cache traffic is distinct from the bridged
    // shape-memo counters (`baton_cache_*`), and both queue series render
    // under one family sorted by label value.
    assert!(rendered.contains("# TYPE baton_response_cache_hits_total counter"));
    assert!(rendered.contains("baton_response_cache_hits_total 5"));
    assert!(rendered.contains("baton_response_cache_misses_total 2"));
    assert!(rendered.contains("baton_response_cache_evictions_total 1"));
    assert!(rendered.contains("baton_response_cache_entries 2"));
    assert!(rendered.contains("# TYPE baton_parallel_queue_depth gauge"));
    assert!(rendered.contains("baton_parallel_queue_depth{queue=\"fanout\"} 0"));
    assert!(rendered.contains("baton_parallel_queue_depth{queue=\"http\"} 3"));
    assert!(rendered.contains("# TYPE baton_http_connections_closed_total counter"));
    assert!(rendered.contains("baton_http_connections_closed_total{cause=\"deadline\"} 2"));
    assert!(rendered.contains("baton_http_connections_closed_total{cause=\"drain\"} 1"));
    assert!(rendered.contains("baton_http_connections_closed_total{cause=\"framing\"} 4"));
    assert!(rendered.contains("baton_http_connections_closed_total{cause=\"limit\"} 3"));

    // The sweep-observability families: both histograms, the throughput
    // gauge, and the front-size gauge, all carrying the flow label.
    assert!(rendered.contains("# TYPE baton_sweep_duration_seconds histogram"));
    assert!(rendered.contains("baton_sweep_duration_seconds_count{flow=\"full\"} 1"));
    assert!(rendered.contains("# TYPE baton_sweep_unit_duration_seconds histogram"));
    assert!(rendered.contains("baton_sweep_unit_duration_seconds_count{flow=\"full\"} 3"));
    assert!(rendered.contains("# TYPE baton_sweep_points_per_second gauge"));
    assert!(rendered.contains("baton_sweep_points_per_second{flow=\"full\"} 35776"));
    assert!(rendered.contains("# TYPE baton_sweep_front_size gauge"));
    assert!(rendered.contains("baton_sweep_front_size{flow=\"full\"} 20"));

    // Bridged run counters render under canonical names even at zero.
    assert!(rendered.contains("# TYPE baton_cache_hits_total counter"));
    assert!(rendered.contains("baton_search_pruned_total 0"));
    assert!(rendered.contains("baton_build_info{profile=\"golden\",version=\"0.0.0-golden\"} 1"));

    // The allocator ledger series, pinned to the synthetic sample.
    assert!(rendered.contains("# TYPE baton_alloc_allocations_total counter"));
    assert!(rendered.contains("baton_alloc_allocations_total 1000"));
    assert!(rendered.contains("baton_alloc_deallocations_total 900"));
    assert!(rendered.contains("baton_alloc_reallocations_total 40"));
    assert!(rendered.contains("baton_alloc_bytes_total 1048576"));
    assert!(rendered.contains("baton_alloc_freed_bytes_total 786432"));
    assert!(rendered.contains("# TYPE baton_alloc_live_bytes gauge"));
    assert!(rendered.contains("baton_alloc_live_bytes 262144"));
    assert!(rendered.contains("baton_alloc_peak_live_bytes 524288"));

    // The standard process panel series.
    assert!(rendered.contains("# TYPE process_cpu_seconds_total counter"));
    assert!(rendered.contains("process_cpu_seconds_total 12.34"));
    assert!(rendered.contains("process_resident_memory_bytes 104857600"));
    assert!(rendered.contains("process_virtual_memory_bytes 1073741824"));
    assert!(rendered.contains("process_open_fds 32"));
    assert!(rendered.contains("process_threads 9"));

    // The byte-exact contract with the committed golden file.
    if std::env::var("BLESS").is_ok() {
        std::fs::write(GOLDEN, &rendered).unwrap();
    }
    let golden =
        std::fs::read_to_string(GOLDEN).expect("golden file missing; regenerate with BLESS=1");
    assert_eq!(
        rendered, golden,
        "exposition format drifted from tests/golden/exposition.txt; \
         if intentional, regenerate with BLESS=1"
    );

    metrics::reset();
}
