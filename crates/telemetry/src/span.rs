//! RAII span timers: the one observation of a timed site.
//!
//! A span measures the wall time — and, when a counting allocator is
//! installed (see [`crate::alloc`]), the calling thread's allocation
//! activity — of one scope. On drop it reads its clock once, and that one
//! reading feeds every observer that is on:
//!
//! * the phase's [`Histogram`] and [`PhaseAlloc`] tally, and a `span` line
//!   to the trace sink (an attached session);
//! * a node in the calling thread's request trace, carrying its
//!   net-alloc/net-byte deltas (see [`crate::trace`]);
//! * the site's named event, written with its fields and `dur_us` before
//!   the `span` line ([`SpanGuard::event`]; a session with a sink);
//! * a labelled latency histogram ([`SpanGuard::observe`]; labelled
//!   metrics on).
//!
//! So an instrumented site makes one call and never asks which observers
//! are on. With none of them on, creating a span is one atomic load and a
//! branch: it reads no clock, allocates nothing, and runs neither its
//! label nor its event closure.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::alloc::AllocScope;
use crate::histogram::Histogram;
use crate::metrics::{kind, Family};
use crate::sink::{event, EventBuilder};

/// Per-phase allocation tallies, summed over every span of the phase.
/// All-zero unless the binary installed [`crate::alloc::CountingAlloc`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseAlloc {
    /// Allocations performed inside the phase's spans (on their threads).
    pub allocs: u64,
    /// Deallocations performed inside the phase's spans.
    pub frees: u64,
    /// Bytes allocated inside the phase's spans.
    pub bytes_allocated: u64,
    /// Bytes freed inside the phase's spans.
    pub bytes_freed: u64,
}

impl PhaseAlloc {
    /// Allocations minus frees across the phase.
    pub fn net_allocs(&self) -> i64 {
        self.allocs as i64 - self.frees as i64
    }

    /// Net heap growth of the phase in bytes.
    pub fn net_bytes(&self) -> i64 {
        self.bytes_allocated as i64 - self.bytes_freed as i64
    }
}

#[derive(Debug, Default)]
struct PhaseEntry {
    hist: Histogram,
    alloc: PhaseAlloc,
}

/// Per-phase duration histograms (microseconds) plus allocation tallies,
/// keyed by phase name.
static PHASES: Mutex<BTreeMap<&'static str, PhaseEntry>> = Mutex::new(BTreeMap::new());

fn phases() -> MutexGuard<'static, BTreeMap<&'static str, PhaseEntry>> {
    PHASES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Starts timing `phase`. Inert (no clock read) when neither a session
/// nor a request trace is active.
pub fn span(phase: &'static str) -> SpanGuard {
    open(phase, true, || None)
}

/// Starts timing `phase` for the session's phase histograms only: unlike
/// [`span`], it never joins a request trace. For stages timed many times
/// inside one traced operation (a search's chunks), whose per-request
/// detail would crowd the span tree. Inert when no session is attached.
pub fn stage_span(phase: &'static str) -> SpanGuard {
    open(phase, false, || None)
}

/// Starts timing `phase` with a label (e.g. a layer name). The label
/// closure only runs when a session or a request trace will observe it.
pub fn span_labeled(phase: &'static str, label: impl FnOnce() -> String) -> SpanGuard {
    open(phase, true, || Some(label()))
}

fn open(phase: &'static str, traced: bool, label: impl FnOnce() -> Option<String>) -> SpanGuard {
    let gate = crate::gate();
    let mut guard = SpanGuard {
        phase,
        gate,
        label: None,
        start: None,
        alloc: None,
        trace: None,
        event: EventBuilder::default(),
        metric: None,
    };
    if gate == 0 {
        return guard;
    }
    guard.trace = if traced {
        crate::trace::open(gate)
    } else {
        None
    };
    if guard.session() || guard.trace.is_some() {
        // The scope starts before the label allocates, so the label's own
        // String is part of the span's delta — observability observing
        // itself, which is the honest accounting.
        guard.alloc = Some(AllocScope::start());
        guard.label = label();
        guard.start = Some(Instant::now());
    }
    guard
}

/// Live span; records on drop. See [`span`].
#[derive(Debug)]
pub struct SpanGuard {
    phase: &'static str,
    /// The crate gate as read at creation: which observers were on.
    gate: u8,
    label: Option<String>,
    start: Option<Instant>,
    /// The calling thread's allocation ledger at span start, captured
    /// whenever a session or trace observes the span (deltas read zero
    /// without an installed counting allocator).
    alloc: Option<AllocScope>,
    /// The open node in the calling thread's request trace, if one was
    /// installed at creation.
    trace: Option<crate::trace::OpenSpan>,
    /// The site's named event, written on drop (inert unless a sink is).
    event: EventBuilder,
    /// The labelled latency histogram observed on drop.
    metric: Option<(
        &'static Family<kind::Histogram>,
        (&'static str, &'static str),
    )>,
}

impl SpanGuard {
    /// Whether a session was attached at creation (phase histograms, the
    /// `span` line and the named event on drop).
    fn session(&self) -> bool {
        self.gate & crate::SESSION != 0
    }

    /// Observes the span's duration into the histogram `family` under the
    /// one label pair `label` when it closes. A no-op unless labelled
    /// metrics were on when the span opened; it then starts the clock if
    /// no session or trace already had.
    pub fn observe(
        mut self,
        family: &'static Family<kind::Histogram>,
        label: (&'static str, &'static str),
    ) -> Self {
        if self.gate & crate::METRICS != 0 {
            self.start.get_or_insert_with(Instant::now);
            self.metric = Some((family, label));
        }
        self
    }

    /// Writes the event `kind` with `fields` and the span's `dur_us` when
    /// the span closes. `fields` runs now, and only when a session with a
    /// sink was attached at creation; a later call replaces the event.
    pub fn event(&mut self, kind: &str, fields: impl FnOnce(EventBuilder) -> EventBuilder) {
        if self.session() {
            let ev = event(kind);
            if ev.is_live() {
                self.event = fields(ev);
            }
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_us = start.elapsed().as_micros() as u64;
        let delta = self
            .alloc
            .take()
            .map(|scope| scope.delta())
            .unwrap_or_default();
        if let Some(open) = self.trace.take() {
            crate::trace::close(open, self.phase, self.label.as_deref(), dur_us, &delta);
        }
        if let Some((family, label)) = self.metric {
            family.observe(&[label], Duration::from_micros(dur_us));
        }
        if !self.session() {
            return;
        }
        {
            let mut map = phases();
            let entry = map.entry(self.phase).or_default();
            entry.hist.record(dur_us);
            entry.alloc.allocs += delta.allocs;
            entry.alloc.frees += delta.frees;
            entry.alloc.bytes_allocated += delta.bytes_allocated;
            entry.alloc.bytes_freed += delta.bytes_freed;
        }
        std::mem::take(&mut self.event).u64("dur_us", dur_us).emit();
        let mut ev = event("span").str("phase", self.phase).u64("dur_us", dur_us);
        if let Some(label) = &self.label {
            ev = ev.str("label", label);
        }
        if delta.allocs > 0 || delta.frees > 0 {
            ev = ev
                .i64("net_allocs", delta.net_allocs())
                .i64("net_bytes", delta.net_bytes());
        }
        ev.emit();
    }
}

/// Clears all phase histograms and allocation tallies (done by
/// [`crate::attach`]).
pub fn reset() {
    phases().clear();
}

/// Snapshot of every phase histogram, sorted by phase name.
pub fn phase_stats() -> Vec<(&'static str, Histogram)> {
    phases().iter().map(|(k, v)| (*k, v.hist.clone())).collect()
}

/// Snapshot of every phase's allocation tally, sorted by phase name.
/// All-zero entries are included so callers can join against
/// [`phase_stats`] positionally.
pub fn phase_alloc_stats() -> Vec<(&'static str, PhaseAlloc)> {
    phases().iter().map(|(k, v)| (*k, v.alloc)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{attach_with_sink, test_lock, TelemetryConfig};

    #[test]
    fn spans_record_into_phase_histograms() {
        let _guard = test_lock::hold();
        let _s = attach_with_sink(&TelemetryConfig::default(), None);
        {
            let _a = span("phase_a");
            let _b = span_labeled("phase_b", || "lab".into());
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let stats = phase_stats();
        let names: Vec<_> = stats.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["phase_a", "phase_b"]);
        for (_, h) in &stats {
            assert_eq!(h.count(), 1);
            assert!(h.sum() >= 2_000, "slept 2ms, recorded {}us", h.sum());
        }
        // Alloc tallies join positionally (zeros here: no counting
        // allocator is installed in this test binary).
        let alloc = phase_alloc_stats();
        let alloc_names: Vec<_> = alloc.iter().map(|(n, _)| *n).collect();
        assert_eq!(alloc_names, names);
        assert!(alloc.iter().all(|(_, a)| *a == PhaseAlloc::default()));
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _guard = test_lock::hold();
        // No session and no metrics (tracing may be on, but this thread has
        // no trace installed): the guard reads no clock, touches no
        // registry and runs neither closure.
        const FAMILY: Family<kind::Histogram> = Family::histogram("baton_inert_seconds", "h");
        let mut g = span_labeled("inert", || unreachable!("label evaluated"))
            .observe(&FAMILY, ("flow", "x"));
        g.event("inert", |_| unreachable!("fields evaluated"));
        assert!(g.start.is_none() && g.label.is_none() && g.metric.is_none());
        assert!(!g.event.is_live());
        drop(g);
        assert!(!phase_stats().iter().any(|(p, _)| *p == "inert"));
    }

    #[test]
    fn a_closing_span_writes_its_event_and_observes_its_metric() {
        use crate::metrics::{self, SeriesValue};
        use crate::sink::MemorySink;
        let _guard = test_lock::hold();
        const FAMILY: Family<kind::Histogram> =
            Family::histogram("baton_span_seconds", "Span latency.");
        metrics::reset();
        metrics::enable();
        let (sink, lines) = MemorySink::new();
        let session = attach_with_sink(&TelemetryConfig::default(), Some(Box::new(sink)));
        {
            let mut g = span_labeled("unit", || "u0".into()).observe(&FAMILY, ("flow", "full"));
            g.event("unit_done", |ev| ev.u64("points", 3));
        }
        drop(session);
        let snap = metrics::registry().snapshot();
        metrics::reset();
        let lines = lines.lock().unwrap();
        let kinds: Vec<_> = lines
            .iter()
            .map(|l| crate::json::parse_flat_object(l).unwrap())
            .collect();
        let unit = kinds
            .iter()
            .position(|o| o["event"].as_str() == Some("unit_done"))
            .expect("the named event");
        // The named event precedes its span line and carries the same
        // duration, from the one clock reading.
        let span_line = &kinds[unit + 1];
        assert_eq!(span_line["event"].as_str(), Some("span"));
        assert_eq!(span_line["phase"].as_str(), Some("unit"));
        assert_eq!(kinds[unit]["dur_us"], span_line["dur_us"]);
        assert_eq!(kinds[unit]["points"].as_f64(), Some(3.0));
        let family = snap.iter().find(|f| f.name == FAMILY.name).unwrap();
        assert_eq!(family.series[0].0, vec![("flow", "full".to_string())]);
        match &family.series[0].1 {
            SeriesValue::Histogram(h) => {
                assert_eq!(h.count(), 1);
                assert_eq!(
                    h.sum() as f64,
                    kinds[unit]["dur_us"].as_f64().unwrap(),
                    "the metric sample is the span's duration"
                );
            }
            other => panic!("expected a histogram, got {other:?}"),
        }
    }

    #[test]
    fn metrics_alone_time_a_span_without_a_session() {
        use crate::metrics::{self, SeriesValue};
        let _guard = test_lock::hold();
        const FAMILY: Family<kind::Histogram> =
            Family::histogram("baton_lone_seconds", "Span latency.");
        metrics::reset();
        metrics::enable();
        {
            let mut g = span("lone").observe(&FAMILY, ("flow", "full"));
            g.event("lone", |_| unreachable!("no sink, no event"));
        }
        let snap = metrics::registry().snapshot();
        metrics::reset();
        assert!(!phase_stats().iter().any(|(p, _)| *p == "lone"));
        match &snap[0].series[0].1 {
            SeriesValue::Histogram(h) => assert_eq!(h.count(), 1),
            other => panic!("expected a histogram, got {other:?}"),
        }
    }

    #[test]
    fn phase_alloc_net_math_is_signed() {
        let a = PhaseAlloc {
            allocs: 2,
            frees: 6,
            bytes_allocated: 10,
            bytes_freed: 200,
        };
        assert_eq!(a.net_allocs(), -4);
        assert_eq!(a.net_bytes(), -190);
    }
}
