//! RAII span timers aggregated per phase.
//!
//! A span measures the wall time — and, when a counting allocator is
//! installed (see [`crate::alloc`]), the calling thread's allocation
//! activity — of one scope. On drop it records the duration into the
//! phase's [`Histogram`], folds the allocation delta into the phase's
//! [`PhaseAlloc`] tally, and mirrors a `span` event to the trace sink. If
//! the calling thread has a request trace installed (see [`crate::trace`]),
//! the span is additionally recorded there as a node in that request's
//! span tree, carrying its net-alloc/net-byte deltas. When no session is
//! attached and no trace is installed, creating a span reads no clock and
//! allocates nothing.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::alloc::AllocScope;
use crate::histogram::Histogram;
use crate::sink::event;

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
    let session = crate::enabled();
    let trace = crate::trace::open();
    let live = session || trace.is_some();
    SpanGuard {
        phase,
        label: None,
        start: live.then(Instant::now),
        alloc: live.then(AllocScope::start),
        session,
        trace,
    }
}

/// Starts timing `phase` for the session's phase histograms only: unlike
/// [`span`], it never joins a request trace. For stages timed many times
/// inside one traced operation (a search's chunks), whose per-request
/// detail would crowd the span tree. Inert when no session is attached.
pub fn stage_span(phase: &'static str) -> SpanGuard {
    let session = crate::enabled();
    SpanGuard {
        phase,
        label: None,
        start: session.then(Instant::now),
        alloc: session.then(AllocScope::start),
        session,
        trace: None,
    }
}

/// Starts timing `phase` with a label (e.g. a layer name). The label
/// closure only runs when a session or a request trace will observe it.
pub fn span_labeled(phase: &'static str, label: impl FnOnce() -> String) -> SpanGuard {
    let session = crate::enabled();
    let trace = crate::trace::open();
    if !session && trace.is_none() {
        return SpanGuard {
            phase,
            label: None,
            start: None,
            alloc: None,
            session,
            trace: None,
        };
    }
    SpanGuard {
        phase,
        // The scope starts before the label allocates, so the label's own
        // String is part of the span's delta — observability observing
        // itself, which is the honest accounting.
        alloc: Some(AllocScope::start()),
        label: Some(label()),
        start: Some(Instant::now()),
        session,
        trace,
    }
}

/// Live span; records on drop. See [`span`].
#[derive(Debug)]
pub struct SpanGuard {
    phase: &'static str,
    label: Option<String>,
    start: Option<Instant>,
    /// The calling thread's allocation ledger at span start, captured
    /// whenever the span is live (deltas read zero without an installed
    /// counting allocator).
    alloc: Option<AllocScope>,
    /// Whether a session was attached at creation (phase histograms +
    /// sink event on drop).
    session: bool,
    /// The open node in the calling thread's request trace, if one was
    /// installed at creation.
    trace: Option<crate::trace::OpenSpan>,
}

impl SpanGuard {
    /// Elapsed time in microseconds, or 0 when the span is inert.
    pub fn elapsed_us(&self) -> u64 {
        self.start
            .map(|s| s.elapsed().as_micros() as u64)
            .unwrap_or(0)
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
        if !self.session {
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
        // No session: the guard must not read clocks or touch the registry.
        let g = span("inert");
        assert_eq!(g.elapsed_us(), 0);
        drop(g);
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
