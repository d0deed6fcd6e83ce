//! The labelled metrics registry behind the `/metrics` exposition.
//!
//! The fixed [`Counter`](crate::Counter) enum covers the search/DSE hot
//! paths, where an array index and a relaxed `fetch_add` matter. A *served*
//! process additionally needs labelled series — requests by path and status
//! code, latency histograms by objective, worker occupancy — whose label
//! values are only known at runtime. This module holds those: a global
//! [`registry()`] of counter, gauge, and histogram families keyed by
//! `(&'static str name, sorted label pairs)`.
//!
//! # Cost model
//!
//! The layer is **off by default** and every hook starts with one relaxed
//! atomic load ([`enabled`]) — disabled, instrumented code pays a predictable
//! branch and nothing else (no clock reads, no allocation, no lock). When
//! enabled (done once by `baton serve`), updates take the registry mutex;
//! call sites are request- or chunk-grained, never per-candidate, so the
//! lock is uncontended in practice.
//!
//! # Naming and cardinality rules
//!
//! * Names are `baton_`-prefixed snake_case; counters end in `_total`,
//!   histograms carry their unit (`_seconds`).
//! * Label values must come from small closed sets (route paths, status
//!   codes, objectives, model names) — never layer names, addresses, or
//!   anything request-derived, so series counts stay bounded.
//! * Histograms record **microseconds** into the log₂
//!   [`crate::Histogram`]; the exposition converts bounds and
//!   sums to base-unit seconds.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::histogram::Histogram;

/// What a metric family measures, mapped 1:1 onto Prometheus `# TYPE`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing count of events.
    Counter,
    /// An instantaneous value that can move both ways.
    Gauge,
    /// A distribution of observations (log₂ buckets, exposed cumulatively).
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn type_label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One series' current value.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesValue {
    /// Running total.
    Counter(u64),
    /// Last set value.
    Gauge(f64),
    /// Distribution of recorded microsecond samples. Boxed: a histogram's
    /// bucket array dwarfs the scalar variants.
    Histogram(Box<Histogram>),
}

/// A metric family: the shared help/type metadata plus every labelled
/// series observed so far, keyed by sorted `(label name, label value)`
/// pairs.
#[derive(Debug, Clone)]
pub struct FamilySnapshot {
    /// Family name (e.g. `baton_http_requests_total`).
    pub name: &'static str,
    /// The `# HELP` line content.
    pub help: &'static str,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
    /// Every series, sorted by label pairs.
    pub series: Vec<(Vec<(&'static str, String)>, SeriesValue)>,
}

#[derive(Debug)]
struct Family {
    help: &'static str,
    kind: MetricKind,
    series: BTreeMap<Vec<(&'static str, String)>, SeriesValue>,
}

/// The process-global labelled metrics registry. Obtain it with
/// [`registry()`]; all mutation goes through the typed methods so a family
/// can never mix kinds.
#[derive(Debug)]
pub struct Registry {
    families: Mutex<BTreeMap<&'static str, Family>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Registry = Registry {
    families: Mutex::new(BTreeMap::new()),
};

/// True when the labelled-metrics layer records. `#[inline]` so the
/// disabled fast path in instrumented crates is one load and one branch.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the labelled-metrics layer on (done once by `baton serve`).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns the layer off again and clears every family. Test-oriented; a
/// serving process never calls this.
pub fn reset() {
    ENABLED.store(false, Ordering::Relaxed);
    registry().lock().clear();
}

/// The global registry handle.
pub fn registry() -> &'static Registry {
    &REGISTRY
}

/// Canonicalizes a label set: sorted by label name so `[("b",..),("a",..)]`
/// and `[("a",..),("b",..)]` address the same series.
fn label_key(labels: &[(&'static str, &str)]) -> Vec<(&'static str, String)> {
    let mut key: Vec<(&'static str, String)> =
        labels.iter().map(|(k, v)| (*k, (*v).to_string())).collect();
    key.sort_by(|a, b| a.0.cmp(b.0));
    key
}

impl Registry {
    fn lock(&self) -> MutexGuard<'_, BTreeMap<&'static str, Family>> {
        // Metrics must never take the process down; a poisoned map only
        // loses observations.
        self.families.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Ensures `name` exists with this kind (so `# HELP`/`# TYPE` render
    /// even before the first observation) and returns whether the kind
    /// matches. A name reused with a different kind is ignored rather than
    /// panicking — metrics are best-effort by design.
    fn family<'a>(
        map: &'a mut BTreeMap<&'static str, Family>,
        name: &'static str,
        help: &'static str,
        kind: MetricKind,
    ) -> Option<&'a mut Family> {
        let f = map.entry(name).or_insert_with(|| Family {
            help,
            kind,
            series: BTreeMap::new(),
        });
        (f.kind == kind).then_some(f)
    }

    /// Registers an (initially series-less) family so the exposition shows
    /// its `# HELP`/`# TYPE` lines from the first scrape onward.
    pub fn describe(&self, name: &'static str, help: &'static str, kind: MetricKind) {
        if !enabled() {
            return;
        }
        Self::family(&mut self.lock(), name, help, kind);
    }

    /// Adds `n` to the counter series `name{labels}`.
    pub fn counter_add(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        n: u64,
    ) {
        if !enabled() {
            return;
        }
        let mut map = self.lock();
        let Some(f) = Self::family(&mut map, name, help, MetricKind::Counter) else {
            return;
        };
        if let SeriesValue::Counter(c) = f
            .series
            .entry(label_key(labels))
            .or_insert(SeriesValue::Counter(0))
        {
            *c += n;
        }
    }

    /// Sets the gauge series `name{labels}` to `v`.
    pub fn gauge_set(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        v: f64,
    ) {
        if !enabled() {
            return;
        }
        let mut map = self.lock();
        let Some(f) = Self::family(&mut map, name, help, MetricKind::Gauge) else {
            return;
        };
        f.series.insert(label_key(labels), SeriesValue::Gauge(v));
    }

    /// Adds `delta` (which may be negative) to the gauge series
    /// `name{labels}`, treating an absent series as 0.
    pub fn gauge_add(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        delta: f64,
    ) {
        if !enabled() {
            return;
        }
        let mut map = self.lock();
        let Some(f) = Self::family(&mut map, name, help, MetricKind::Gauge) else {
            return;
        };
        if let SeriesValue::Gauge(g) = f
            .series
            .entry(label_key(labels))
            .or_insert(SeriesValue::Gauge(0.0))
        {
            *g += delta;
        }
    }

    /// Records one microsecond sample into the histogram series
    /// `name{labels}`.
    pub fn observe_us(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        us: u64,
    ) {
        if !enabled() {
            return;
        }
        let mut map = self.lock();
        let Some(f) = Self::family(&mut map, name, help, MetricKind::Histogram) else {
            return;
        };
        if let SeriesValue::Histogram(h) = f
            .series
            .entry(label_key(labels))
            .or_insert_with(|| SeriesValue::Histogram(Box::default()))
        {
            h.record(us);
        }
    }

    /// Records a [`Duration`] into the histogram series `name{labels}`.
    pub fn observe_duration(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
        d: Duration,
    ) {
        self.observe_us(
            name,
            help,
            labels,
            d.as_micros().min(u64::MAX as u128) as u64,
        );
    }

    /// A point-in-time copy of every family, sorted by name (and each
    /// family's series sorted by labels) — the exposition's input.
    pub fn snapshot(&self) -> Vec<FamilySnapshot> {
        self.lock()
            .iter()
            .map(|(name, f)| FamilySnapshot {
                name,
                help: f.help,
                kind: f.kind,
                series: f
                    .series
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect(),
            })
            .collect()
    }
}

/// Shorthand for `registry().counter_add(..)`.
#[inline]
pub fn counter_add(
    name: &'static str,
    help: &'static str,
    labels: &[(&'static str, &str)],
    n: u64,
) {
    if enabled() {
        registry().counter_add(name, help, labels, n);
    }
}

/// Shorthand for `registry().gauge_set(..)`.
#[inline]
pub fn gauge_set(name: &'static str, help: &'static str, labels: &[(&'static str, &str)], v: f64) {
    if enabled() {
        registry().gauge_set(name, help, labels, v);
    }
}

/// Shorthand for `registry().gauge_add(..)`.
#[inline]
pub fn gauge_add(
    name: &'static str,
    help: &'static str,
    labels: &[(&'static str, &str)],
    delta: f64,
) {
    if enabled() {
        registry().gauge_add(name, help, labels, delta);
    }
}

/// Shorthand for `registry().observe_duration(..)`.
#[inline]
pub fn observe_duration(
    name: &'static str,
    help: &'static str,
    labels: &[(&'static str, &str)],
    d: Duration,
) {
    if enabled() {
        registry().observe_duration(name, help, labels, d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn disabled_layer_records_nothing() {
        let _guard = test_lock::hold();
        reset();
        counter_add("baton_test_total", "h", &[], 5);
        gauge_set("baton_test_gauge", "h", &[], 1.0);
        observe_duration("baton_test_seconds", "h", &[], Duration::from_millis(1));
        assert!(registry().snapshot().is_empty());
    }

    #[test]
    fn labelled_series_accumulate_independently() {
        let _guard = test_lock::hold();
        reset();
        enable();
        counter_add("baton_t_total", "help", &[("path", "/a")], 1);
        counter_add("baton_t_total", "help", &[("path", "/a")], 2);
        counter_add("baton_t_total", "help", &[("path", "/b")], 7);
        // Label order never splits a series.
        counter_add("baton_t_total", "help", &[("z", "1"), ("a", "2")], 1);
        counter_add("baton_t_total", "help", &[("a", "2"), ("z", "1")], 1);
        let snap = registry().snapshot();
        assert_eq!(snap.len(), 1);
        let fam = &snap[0];
        assert_eq!(fam.kind, MetricKind::Counter);
        assert_eq!(fam.series.len(), 3);
        let get = |labels: &[(&str, &str)]| {
            fam.series
                .iter()
                .find(|(k, _)| {
                    k.iter().map(|(a, b)| (*a, b.as_str())).collect::<Vec<_>>() == labels
                })
                .map(|(_, v)| v.clone())
        };
        assert_eq!(get(&[("path", "/a")]), Some(SeriesValue::Counter(3)));
        assert_eq!(get(&[("path", "/b")]), Some(SeriesValue::Counter(7)));
        assert_eq!(
            get(&[("a", "2"), ("z", "1")]),
            Some(SeriesValue::Counter(2))
        );
        reset();
    }

    #[test]
    fn gauges_set_add_and_histograms_record() {
        let _guard = test_lock::hold();
        reset();
        enable();
        gauge_set("baton_g", "help", &[], 4.0);
        gauge_add("baton_g", "help", &[], -1.5);
        gauge_add("baton_g2", "help", &[], 2.0); // absent starts at 0
        observe_duration("baton_h_seconds", "help", &[], Duration::from_micros(100));
        observe_duration("baton_h_seconds", "help", &[], Duration::from_micros(900));
        let snap = registry().snapshot();
        let by_name = |n: &str| snap.iter().find(|f| f.name == n).unwrap();
        assert_eq!(by_name("baton_g").series[0].1, SeriesValue::Gauge(2.5));
        assert_eq!(by_name("baton_g2").series[0].1, SeriesValue::Gauge(2.0));
        match &by_name("baton_h_seconds").series[0].1 {
            SeriesValue::Histogram(h) => {
                assert_eq!(h.count(), 2);
                assert_eq!(h.sum(), 1000);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        reset();
    }

    #[test]
    fn kind_conflicts_are_ignored_not_fatal() {
        let _guard = test_lock::hold();
        reset();
        enable();
        counter_add("baton_kind", "help", &[], 1);
        gauge_set("baton_kind", "help", &[], 9.0); // wrong kind: dropped
        let snap = registry().snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].series[0].1, SeriesValue::Counter(1));
        reset();
    }

    #[test]
    fn describe_makes_an_empty_family_visible() {
        let _guard = test_lock::hold();
        reset();
        enable();
        registry().describe("baton_empty_seconds", "help", MetricKind::Histogram);
        let snap = registry().snapshot();
        assert_eq!(snap.len(), 1);
        assert!(snap[0].series.is_empty());
        assert_eq!(snap[0].kind, MetricKind::Histogram);
        reset();
    }
}
