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
//! Each family is one constant, a [`Family`] carrying its name and help text
//! and typed by its [`kind`]; the constant's kind-specific methods are the only way to update it:
//!
//! ```
//! use baton_telemetry::metrics::{self, kind, Family};
//!
//! const REQUESTS: Family<kind::Counter> = Family::counter("baton_demo_total", "Demo requests.");
//! metrics::enable();
//! REQUESTS.add(&[("path", "/map")], 1);
//! assert_eq!(metrics::registry().snapshot()[0].name, "baton_demo_total");
//! # metrics::reset();
//! ```
//!
//! A timed site with a span attaches its latency family to the span
//! instead ([`SpanGuard::observe`](crate::span::SpanGuard::observe)), so
//! the span's one clock reading feeds the histogram.
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
use std::marker::PhantomData;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

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

/// A label set: `(label name, label value)` pairs in any order.
pub type Labels<'a> = &'a [(&'static str, &'a str)];

/// The kind markers a [`Family`] is typed by, so each family has only its
/// own kind's methods (a counter has no `set`).
pub mod kind {
    use super::MetricKind;

    /// A kind marker: the Prometheus type its families render as.
    pub trait Kind {
        /// The family's `# TYPE`.
        const KIND: MetricKind;
    }

    /// Marks a counter [`Family`](super::Family).
    #[derive(Debug)]
    pub enum Counter {}

    /// Marks a gauge [`Family`](super::Family).
    #[derive(Debug)]
    pub enum Gauge {}

    /// Marks a latency histogram [`Family`](super::Family).
    #[derive(Debug)]
    pub enum Histogram {}

    impl Kind for Counter {
        const KIND: MetricKind = MetricKind::Counter;
    }

    impl Kind for Gauge {
        const KIND: MetricKind = MetricKind::Gauge;
    }

    impl Kind for Histogram {
        const KIND: MetricKind = MetricKind::Histogram;
    }
}

/// One metric family, declared once as a constant and updated through its
/// kind's methods. Each method is a no-op unless the layer is [`enable`]d,
/// and a family whose name the registry already holds with another kind is
/// ignored — metrics are best-effort by design.
#[derive(Debug)]
pub struct Family<K> {
    /// Family name (e.g. `baton_http_requests_total`).
    pub name: &'static str,
    /// The `# HELP` line content.
    pub help: &'static str,
    kind: PhantomData<K>,
}

impl Family<kind::Counter> {
    /// A counter family.
    pub const fn counter(name: &'static str, help: &'static str) -> Self {
        Self::new(name, help)
    }

    /// Adds `n` to the counter series `labels`.
    pub fn add(&self, labels: Labels<'_>, n: u64) {
        self.update(labels, |v| {
            if let SeriesValue::Counter(c) = v {
                *c += n;
            }
        });
    }
}

impl Family<kind::Gauge> {
    /// A gauge family.
    pub const fn gauge(name: &'static str, help: &'static str) -> Self {
        Self::new(name, help)
    }

    /// Sets the gauge series `labels` to `v`.
    pub fn set(&self, labels: Labels<'_>, v: f64) {
        self.update(labels, |g| *g = SeriesValue::Gauge(v));
    }

    /// Adds `delta` (which may be negative) to the gauge series `labels`,
    /// treating an absent series as 0.
    pub fn shift(&self, labels: Labels<'_>, delta: f64) {
        self.update(labels, |v| {
            if let SeriesValue::Gauge(g) = v {
                *g += delta;
            }
        });
    }
}

impl Family<kind::Histogram> {
    /// A latency histogram family (microsecond samples, exposed in seconds).
    pub const fn histogram(name: &'static str, help: &'static str) -> Self {
        Self::new(name, help)
    }

    /// Records one duration into the histogram series `labels`.
    pub fn observe(&self, labels: Labels<'_>, d: Duration) {
        let us = d.as_micros().min(u64::MAX as u128) as u64;
        self.update(labels, |v| {
            if let SeriesValue::Histogram(h) = v {
                h.record(us);
            }
        });
    }

    /// Starts timing one observation of this histogram, for a site with no
    /// span of its own; [`Timer::observe`] records it. Reads no clock
    /// unless the layer is enabled.
    pub fn timer(&'static self) -> Timer {
        Timer(enabled().then(|| (self, Instant::now())))
    }
}

impl<K: kind::Kind> Family<K> {
    const fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            kind: PhantomData,
        }
    }

    /// Registers the family with no series, so the exposition shows its
    /// `# HELP`/`# TYPE` lines from the first scrape onward.
    pub fn describe(&self) {
        if enabled() {
            self.entry(&mut registry().lock());
        }
    }

    /// This family's registry entry, created on first use; `None` when the
    /// name is registered with another kind.
    fn entry<'a>(&self, map: &'a mut BTreeMap<&'static str, Entry>) -> Option<&'a mut Entry> {
        let entry = map.entry(self.name).or_insert_with(|| Entry {
            help: self.help,
            kind: K::KIND,
            series: BTreeMap::new(),
        });
        (entry.kind == K::KIND).then_some(entry)
    }

    /// Applies `f` to the series `labels` (zero until first written) when
    /// the layer is on.
    fn update(&self, labels: Labels<'_>, f: impl FnOnce(&mut SeriesValue)) {
        if !enabled() {
            return;
        }
        let mut map = registry().lock();
        if let Some(entry) = self.entry(&mut map) {
            f(entry
                .series
                .entry(label_key(labels))
                .or_insert_with(|| match K::KIND {
                    MetricKind::Counter => SeriesValue::Counter(0),
                    MetricKind::Gauge => SeriesValue::Gauge(0.0),
                    MetricKind::Histogram => SeriesValue::Histogram(Box::default()),
                }));
        }
    }
}

/// One pending observation of a histogram [`Family`]; see
/// [`Family::timer`]. Dropping it unobserved records nothing.
#[derive(Debug)]
#[must_use = "a timer records nothing until .observe() is called"]
pub struct Timer(Option<(&'static Family<kind::Histogram>, Instant)>);

impl Timer {
    /// Records the time since the timer started into the series `labels`.
    pub fn observe(self, labels: Labels<'_>) {
        if let Some((family, t0)) = self.0 {
            family.observe(labels, t0.elapsed());
        }
    }
}

#[derive(Debug)]
struct Entry {
    help: &'static str,
    kind: MetricKind,
    series: BTreeMap<Vec<(&'static str, String)>, SeriesValue>,
}

/// The process-global labelled metrics registry: every family a [`Family`]
/// constant has written, read back with [`Registry::snapshot`].
#[derive(Debug)]
pub struct Registry {
    families: Mutex<BTreeMap<&'static str, Entry>>,
}

static REGISTRY: Registry = Registry {
    families: Mutex::new(BTreeMap::new()),
};

/// True when the labelled-metrics layer records. `#[inline]` so the
/// disabled fast path in instrumented crates is one load and one branch.
#[inline]
pub fn enabled() -> bool {
    crate::gate() & crate::METRICS != 0
}

/// Turns the labelled-metrics layer on (done once by `baton serve`).
pub fn enable() {
    crate::open_gate(crate::METRICS);
}

/// Turns the layer off again and clears every family. Test-oriented; a
/// serving process never calls this.
pub fn reset() {
    crate::close_gate(crate::METRICS);
    registry().lock().clear();
}

/// The global registry handle.
pub fn registry() -> &'static Registry {
    &REGISTRY
}

/// Canonicalizes a label set: sorted by label name so `[("b",..),("a",..)]`
/// and `[("a",..),("b",..)]` address the same series.
fn label_key(labels: Labels<'_>) -> Vec<(&'static str, String)> {
    let mut key: Vec<(&'static str, String)> =
        labels.iter().map(|(k, v)| (*k, (*v).to_string())).collect();
    key.sort_by(|a, b| a.0.cmp(b.0));
    key
}

impl Registry {
    fn lock(&self) -> MutexGuard<'_, BTreeMap<&'static str, Entry>> {
        // Metrics must never take the process down; a poisoned map only
        // loses observations.
        self.families.lock().unwrap_or_else(PoisonError::into_inner)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock;

    #[test]
    fn disabled_layer_records_nothing() {
        let _guard = test_lock::hold();
        reset();
        Family::counter("baton_test_total", "h").add(&[], 5);
        Family::gauge("baton_test_gauge", "h").set(&[], 1.0);
        Family::histogram("baton_test_seconds", "h").observe(&[], Duration::from_millis(1));
        Family::counter("baton_test_described", "h").describe();
        assert!(registry().snapshot().is_empty());
    }

    #[test]
    fn labelled_series_accumulate_independently() {
        let _guard = test_lock::hold();
        reset();
        enable();
        let family = Family::counter("baton_t_total", "help");
        family.add(&[("path", "/a")], 1);
        family.add(&[("path", "/a")], 2);
        family.add(&[("path", "/b")], 7);
        // Label order never splits a series.
        family.add(&[("z", "1"), ("a", "2")], 1);
        family.add(&[("a", "2"), ("z", "1")], 1);
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
        static LATENCY: Family<kind::Histogram> = Family::histogram("baton_h_seconds", "help");
        static TIMER: Family<kind::Histogram> = Family::histogram("baton_timer_seconds", "help");
        let gauge = Family::gauge("baton_g", "help");
        gauge.set(&[], 4.0);
        gauge.shift(&[], -1.5);
        Family::gauge("baton_g2", "help").shift(&[], 2.0); // absent starts at 0
        LATENCY.observe(&[], Duration::from_micros(100));
        LATENCY.observe(&[], Duration::from_micros(900));
        TIMER.timer().observe(&[]);
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
        match &by_name("baton_timer_seconds").series[0].1 {
            SeriesValue::Histogram(h) => assert_eq!(h.count(), 1),
            other => panic!("expected histogram, got {other:?}"),
        }
        reset();
    }

    #[test]
    fn kind_conflicts_are_ignored_not_fatal() {
        let _guard = test_lock::hold();
        reset();
        enable();
        Family::counter("baton_kind", "help").add(&[], 1);
        Family::gauge("baton_kind", "help").set(&[], 9.0); // the name's kind differs
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
        Family::histogram("baton_empty_seconds", "help").describe();
        let snap = registry().snapshot();
        assert_eq!(snap.len(), 1);
        assert!(snap[0].series.is_empty());
        assert_eq!(snap[0].kind, MetricKind::Histogram);
        reset();
    }
}
