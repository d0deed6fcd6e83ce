//! Request-scoped tracing: per-request span trees and a flight recorder.
//!
//! The rest of this crate aggregates *process-global* state — counters,
//! phase histograms, labelled metrics. This module adds the per-request
//! axis a serving process needs: a [`TraceHandle`] is created when a
//! request is accepted, carried through the request's lifetime via a
//! thread-local, and explicitly handed across worker-pool boundaries with
//! [`propagation`] / [`Propagation::install`] so spans recorded inside
//! `baton-parallel` chunks attach to the originating request.
//!
//! Every [`crate::span()`] / [`crate::span_labeled`] guard records into the
//! installed trace *in addition to* the global phase histograms, so the
//! instrumented crates (`baton-c3p`, `baton-dse`, …) need no changes to
//! participate — their existing spans become children of whatever request
//! is active on the calling thread.
//!
//! The module follows the same zero-cost-when-disabled discipline as
//! [`crate::metrics`]: until [`enable`] is called (done once by
//! `baton serve`), every hook is a single relaxed atomic load and a
//! branch — no thread-local access, no clock reads, no allocation.
//!
//! Trace IDs are deterministic: a splitmix64 hash of a process-global
//! sequence number, rendered as 16 hex digits. No clocks or randomness
//! feed the ID, so two runs issuing the same requests in the same order
//! mint the same IDs.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Spans kept per trace before further spans are counted as dropped.
/// Bounds memory for pathological requests (a sweep with thousands of
/// chunks) while keeping every phase a normal request records.
pub const MAX_SPANS_PER_TRACE: usize = 512;

/// Global on/off switch, mirroring [`crate::metrics::enable`]. One-shot
/// CLI runs never flip it, so their spans skip all thread-local work.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Process-global trace-ID sequence; hashed through splitmix64 per trace.
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

/// Turns request tracing on for the rest of the process lifetime.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// True when [`enable`] has been called.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// splitmix64: the full-period mixer from Vigna's `SplitMix64`. Spreads a
/// sequential counter over the u64 space so IDs do not look consecutive,
/// while staying fully deterministic.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One recorded span inside a trace. `parent == 0` marks a root span
/// (direct child of the request itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span ID, unique within the trace (1-based; 0 is the request root).
    pub id: u32,
    /// Parent span ID, or 0 for spans directly under the request.
    pub parent: u32,
    /// Phase name, shared with the phase histograms.
    pub name: &'static str,
    /// Optional label (layer name, worker index, …).
    pub label: Option<String>,
    /// Start offset from the trace epoch, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Net allocations (allocs − frees) performed by the span's thread
    /// inside the span. Zero unless the binary installed
    /// [`crate::alloc::CountingAlloc`].
    pub net_allocs: i64,
    /// Net heap growth in bytes on the span's thread inside the span.
    pub net_bytes: i64,
}

/// Span log behind the trace mutex: the records plus an overflow count.
#[derive(Debug, Default)]
struct SpanLog {
    spans: Vec<SpanRecord>,
    dropped: u64,
}

#[derive(Debug)]
struct TraceInner {
    id: u64,
    epoch: Instant,
    next_span: AtomicU32,
    log: Mutex<SpanLog>,
}

impl TraceInner {
    fn log(&self) -> MutexGuard<'_, SpanLog> {
        // Same policy as the rest of the crate: telemetry never takes the
        // process down; a poisoned log only loses spans.
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A live request trace. Cheap to clone (an `Arc`); threads recording into
/// the same trace share the span log.
#[derive(Debug, Clone)]
pub struct TraceHandle(Arc<TraceInner>);

thread_local! {
    /// The trace context active on this thread, if any.
    static CURRENT: RefCell<Option<ActiveContext>> = const { RefCell::new(None) };
}

#[derive(Debug, Clone)]
struct ActiveContext {
    handle: TraceHandle,
    /// Parent ID for the next span opened on this thread.
    parent: u32,
}

impl TraceHandle {
    /// Starts a new trace whose epoch is now.
    pub fn start() -> Self {
        Self::start_at(Instant::now())
    }

    /// Starts a new trace whose epoch is `epoch` — e.g. the instant a
    /// connection was enqueued, so queue wait is inside the trace window.
    pub fn start_at(epoch: Instant) -> Self {
        let seq = NEXT_TRACE.fetch_add(1, Ordering::Relaxed);
        TraceHandle(Arc::new(TraceInner {
            id: splitmix64(seq),
            epoch,
            next_span: AtomicU32::new(1),
            log: Mutex::new(SpanLog::default()),
        }))
    }

    /// The trace ID as 16 lowercase hex digits (the wire format: the
    /// `X-Baton-Trace-Id` header and `/debug/requests/<id>` path segment).
    pub fn id_string(&self) -> String {
        format!("{:016x}", self.0.id)
    }

    /// Installs this trace as the thread's current context (root parent).
    /// The previous context is restored when the guard drops.
    pub fn install(&self) -> ContextGuard {
        install_context(Some(ActiveContext {
            handle: self.clone(),
            parent: 0,
        }))
    }

    /// Microseconds elapsed since the trace epoch.
    fn elapsed_us(&self) -> u64 {
        self.0.epoch.elapsed().as_micros() as u64
    }

    fn alloc_span(&self) -> u32 {
        self.0.next_span.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, record: SpanRecord) {
        let mut log = self.0.log();
        if log.spans.len() >= MAX_SPANS_PER_TRACE {
            log.dropped += 1;
        } else {
            log.spans.push(record);
        }
    }

    /// Records a manual root span for `[start, end)` — used for phases the
    /// RAII guards cannot cover, like the queue wait before a worker
    /// picked the connection up. Instants before the epoch clamp to 0.
    pub fn record_between(&self, name: &'static str, start: Instant, end: Instant) {
        let rel = |t: Instant| {
            t.checked_duration_since(self.0.epoch)
                .map_or(0, |d| d.as_micros() as u64)
        };
        let (start_us, end_us) = (rel(start), rel(end));
        let id = self.alloc_span();
        self.push(SpanRecord {
            id,
            parent: 0,
            name,
            label: None,
            start_us,
            dur_us: end_us.saturating_sub(start_us),
            // Manual spans bracket wall-clock intervals after the fact;
            // no thread ledger was scoped over them.
            net_allocs: 0,
            net_bytes: 0,
        });
    }

    /// Seals the trace: takes the span log, sorts it into tree order
    /// (start offset, then ID), and returns the completed record. The
    /// handle can no longer usefully record after this.
    pub fn finish(&self, op: &str, status: u16) -> CompletedTrace {
        let total_us = self.elapsed_us();
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        let mut log = self.0.log();
        let mut spans = std::mem::take(&mut log.spans);
        let dropped_spans = log.dropped;
        drop(log);
        spans.sort_by_key(|s| (s.start_us, s.id));
        CompletedTrace {
            trace_id: self.id_string(),
            op: op.to_string(),
            status,
            unix_ms,
            total_us,
            spans,
            dropped_spans,
        }
    }
}

/// Restores the previous thread-local context on drop. Not `Send`: the
/// guard must drop on the thread that created it.
#[derive(Debug)]
pub struct ContextGuard {
    prev: Option<ActiveContext>,
    restored: bool,
    _not_send: PhantomData<*const ()>,
}

fn install_context(next: Option<ActiveContext>) -> ContextGuard {
    let prev = CURRENT.with(|c| c.replace(next));
    ContextGuard {
        prev,
        restored: false,
        _not_send: PhantomData,
    }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if !self.restored {
            self.restored = true;
            CURRENT.with(|c| {
                *c.borrow_mut() = self.prev.take();
            });
        }
    }
}

/// A capture of the calling thread's trace context, ready to be carried
/// into another thread (a `baton-parallel` worker, a queue consumer) and
/// re-installed there with [`Propagation::install`]. Capturing when no
/// trace is active yields an inert value whose install is a no-op — so
/// fan-out code can capture unconditionally.
#[derive(Debug, Clone)]
pub struct Propagation {
    slot: Option<ActiveContext>,
}

impl Propagation {
    /// An explicitly-empty propagation (no trace attached).
    pub fn none() -> Self {
        Propagation { slot: None }
    }

    /// True when a trace context was captured.
    pub fn is_active(&self) -> bool {
        self.slot.is_some()
    }

    /// Installs the captured context on the current thread; the previous
    /// context is restored when the guard drops.
    pub fn install(&self) -> ContextGuard {
        install_context(self.slot.clone())
    }
}

/// Captures the current thread's trace context for hand-off to another
/// thread. A single atomic load when tracing is disabled.
pub fn propagation() -> Propagation {
    if !enabled() {
        return Propagation::none();
    }
    CURRENT.with(|c| Propagation {
        slot: c.borrow().clone(),
    })
}

/// An open span inside the current trace, created by [`open`] and closed
/// by [`close`]. Held by `SpanGuard` alongside its phase timer.
#[derive(Debug)]
pub(crate) struct OpenSpan {
    handle: TraceHandle,
    id: u32,
    prev_parent: u32,
    start_us: u64,
}

/// Opens a span under the thread's current trace context, if any: the new
/// span becomes the parent for spans opened later on this thread. Returns
/// `None` (one atomic load) when tracing is disabled or no trace is
/// installed.
pub(crate) fn open() -> Option<OpenSpan> {
    if !enabled() {
        return None;
    }
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        let active = cur.as_mut()?;
        let id = active.handle.alloc_span();
        let start_us = active.handle.elapsed_us();
        let prev_parent = std::mem::replace(&mut active.parent, id);
        Some(OpenSpan {
            handle: active.handle.clone(),
            id,
            prev_parent,
            start_us,
        })
    })
}

/// Closes `open`, restoring the thread's parent pointer and recording the
/// span into the trace with its measured allocation delta.
pub(crate) fn close(
    open: OpenSpan,
    name: &'static str,
    label: Option<&str>,
    dur_us: u64,
    alloc: &crate::alloc::AllocDelta,
) {
    CURRENT.with(|c| {
        if let Some(active) = c.borrow_mut().as_mut() {
            // Only rewind if the thread still runs the same trace (it may
            // have been swapped by a nested install since).
            if Arc::ptr_eq(&active.handle.0, &open.handle.0) && active.parent == open.id {
                active.parent = open.prev_parent;
            }
        }
    });
    open.handle.push(SpanRecord {
        id: open.id,
        parent: open.prev_parent,
        name,
        label: label.map(String::from),
        start_us: open.start_us,
        dur_us,
        net_allocs: alloc.net_allocs(),
        net_bytes: alloc.net_bytes(),
    });
}

/// A sealed request trace, as stored in the flight recorder.
#[derive(Debug, Clone)]
pub struct CompletedTrace {
    /// Trace ID, 16 lowercase hex digits.
    pub trace_id: String,
    /// What the request was, e.g. `POST /map`.
    pub op: String,
    /// HTTP status the request was answered with.
    pub status: u16,
    /// Wall-clock completion time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// Total request duration (epoch to seal), microseconds.
    pub total_us: u64,
    /// Spans sorted by (start offset, ID) — parents precede children.
    pub spans: Vec<SpanRecord>,
    /// Spans discarded past [`MAX_SPANS_PER_TRACE`].
    pub dropped_spans: u64,
}

impl CompletedTrace {
    /// Total microseconds spent in root spans named `name` — the timing
    /// breakdown the flight-recorder list and slow-request log report.
    pub fn phase_us(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == 0 && s.name == name)
            .map(|s| s.dur_us)
            .sum()
    }
}

/// A fixed-capacity ring buffer of completed request traces — the
/// always-on flight recorder behind `GET /debug/requests`.
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    ring: Mutex<VecDeque<Arc<CompletedTrace>>>,
}

impl FlightRecorder {
    /// A recorder keeping the latest `cap` traces (min 1).
    pub fn new(cap: usize) -> Self {
        FlightRecorder {
            cap: cap.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    fn ring(&self) -> MutexGuard<'_, VecDeque<Arc<CompletedTrace>>> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Appends a trace, evicting the oldest past capacity.
    pub fn record(&self, trace: Arc<CompletedTrace>) {
        let mut ring = self.ring();
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// All retained traces, newest first.
    pub fn recent(&self) -> Vec<Arc<CompletedTrace>> {
        self.ring().iter().rev().cloned().collect()
    }

    /// Looks a retained trace up by its hex ID.
    pub fn find(&self, trace_id: &str) -> Option<Arc<CompletedTrace>> {
        self.ring()
            .iter()
            .rev()
            .find(|t| t.trace_id == trace_id)
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{span, span_labeled};

    /// Tests in this module flip the global trace flag; they serialize on
    /// the crate test lock like every other global-state test.
    fn enabled_for_test() -> std::sync::MutexGuard<'static, ()> {
        let guard = crate::test_lock::hold();
        enable();
        guard
    }

    #[test]
    fn trace_ids_are_unique_and_hex() {
        let a = TraceHandle::start();
        let b = TraceHandle::start();
        assert_ne!(a.id_string(), b.id_string());
        for id in [a.id_string(), b.id_string()] {
            assert_eq!(id.len(), 16);
            assert!(id.chars().all(|c| c.is_ascii_hexdigit()));
        }
    }

    #[test]
    fn spans_nest_into_a_parent_child_tree() {
        let _guard = enabled_for_test();
        let trace = TraceHandle::start();
        {
            let _ctx = trace.install();
            let outer = span("outer");
            {
                let _inner = span_labeled("inner", || "lab".into());
            }
            drop(outer);
        }
        let done = trace.finish("GET /x", 200);
        assert_eq!(done.status, 200);
        assert_eq!(done.op, "GET /x");
        assert_eq!(done.spans.len(), 2);
        let outer = done.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = done.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.parent, 0, "outer is a root span");
        assert_eq!(inner.parent, outer.id, "inner nests under outer");
        assert_eq!(inner.label.as_deref(), Some("lab"));
        assert!(inner.start_us >= outer.start_us);
    }

    #[test]
    fn stage_spans_time_the_session_but_stay_out_of_request_traces() {
        let _guard = enabled_for_test();
        let _session = crate::attach_with_sink(&Default::default(), None);
        let trace = TraceHandle::start();
        {
            let _ctx = trace.install();
            let _outer = span("outer");
            drop(crate::span::stage_span("chunk_stage"));
        }
        let done = trace.finish("GET /x", 200);
        let names: Vec<_> = done.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["outer"]);
        let phases = crate::span::phase_stats();
        assert!(phases
            .iter()
            .any(|(n, h)| *n == "chunk_stage" && h.count() == 1));
    }

    #[test]
    fn sibling_spans_share_a_parent_after_rewind() {
        let _guard = enabled_for_test();
        let trace = TraceHandle::start();
        {
            let _ctx = trace.install();
            drop(span("first"));
            drop(span("second"));
        }
        let done = trace.finish("GET /x", 200);
        assert!(done.spans.iter().all(|s| s.parent == 0));
        assert_eq!(done.spans.len(), 2);
    }

    #[test]
    fn propagation_carries_the_context_across_threads() {
        let _guard = enabled_for_test();
        let trace = TraceHandle::start();
        {
            let _ctx = trace.install();
            let parent = span("fan_out");
            let prop = propagation();
            assert!(prop.is_active());
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _remote = prop.install();
                    drop(span("worker_side"));
                });
            });
            drop(parent);
        }
        let done = trace.finish("POST /map", 200);
        let fan = done.spans.iter().find(|s| s.name == "fan_out").unwrap();
        let worker = done.spans.iter().find(|s| s.name == "worker_side").unwrap();
        assert_eq!(
            worker.parent, fan.id,
            "worker span must attach under the span live at capture time"
        );
    }

    #[test]
    fn uninstalled_threads_record_nothing() {
        let _guard = enabled_for_test();
        let trace = TraceHandle::start();
        // No install: the thread has no context, so spans stay out.
        drop(span("stray"));
        let done = trace.finish("GET /x", 200);
        assert!(done.spans.is_empty());

        // An inert propagation installs to "no context".
        let none = Propagation::none();
        assert!(!none.is_active());
        let _g = none.install();
        assert!(open().is_none());
    }

    #[test]
    fn record_between_clamps_to_the_epoch_and_counts_as_root() {
        let _guard = enabled_for_test();
        let before = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let trace = TraceHandle::start_at(before);
        let popped = Instant::now();
        trace.record_between("queue_wait", before, popped);
        let done = trace.finish("POST /map", 200);
        assert_eq!(done.spans.len(), 1);
        let qw = &done.spans[0];
        assert_eq!(qw.name, "queue_wait");
        assert_eq!(qw.start_us, 0, "epoch-aligned start");
        assert!(qw.dur_us >= 2_000, "slept 2ms, got {}us", qw.dur_us);
        assert_eq!(done.phase_us("queue_wait"), qw.dur_us);
    }

    #[test]
    fn span_log_is_bounded_and_counts_drops() {
        let _guard = enabled_for_test();
        let trace = TraceHandle::start();
        {
            let _ctx = trace.install();
            for _ in 0..(MAX_SPANS_PER_TRACE + 7) {
                drop(span("tick"));
            }
        }
        let done = trace.finish("GET /x", 200);
        assert_eq!(done.spans.len(), MAX_SPANS_PER_TRACE);
        assert_eq!(done.dropped_spans, 7);
    }

    #[test]
    fn flight_recorder_is_a_ring_with_lookup() {
        let recorder = FlightRecorder::new(2);
        assert_eq!(recorder.capacity(), 2);
        let mk = |op: &str| {
            let t = TraceHandle::start();
            Arc::new(t.finish(op, 200))
        };
        let (a, b, c) = (mk("a"), mk("b"), mk("c"));
        recorder.record(a.clone());
        recorder.record(b.clone());
        recorder.record(c.clone());
        let recent = recorder.recent();
        assert_eq!(recent.len(), 2, "capacity evicts the oldest");
        assert_eq!(recent[0].op, "c", "newest first");
        assert_eq!(recent[1].op, "b");
        assert!(recorder.find(&a.trace_id).is_none(), "evicted");
        assert_eq!(recorder.find(&c.trace_id).unwrap().op, "c");
        assert!(recorder.find("not-an-id").is_none());
    }

    #[test]
    fn disabled_tracing_captures_nothing() {
        // No test lock needed: this must hold regardless of the flag,
        // because no context is installed on this thread either way.
        assert!(open().is_none() || enabled());
        let prop = Propagation::none();
        assert!(!prop.is_active());
    }
}
