//! Search/eval instrumentation for the NN-Baton workspace.
//!
//! NN-Baton's value is its DSE throughput — the paper explores the full
//! C³P mapping space "in minutes" — and this crate makes that throughput
//! observable: how many mappings were enumerated, why candidates were
//! rejected, where the wall time goes, and what a sweep is currently doing.
//!
//! # Architecture
//!
//! The instrumented crates (`baton-mapping`, `baton-c3p`, `baton-dse`,
//! `baton-sim`, `baton-parallel`, `nn-baton`) call seven kinds of hooks:
//!
//! * **Counters** ([`counters`]): a fixed registry of atomic `u64`s keyed by
//!   the [`Counter`] enum — candidate generation, rejection reasons,
//!   evaluations, C³P penalty activations, sweep progress.
//! * **Spans** ([`span`](mod@span)): RAII wall-clock timers, the one
//!   observation of a timed site. A closing span reads its clock once and
//!   feeds its phase [`Histogram`], a `span` trace line, the request-trace
//!   node, and — when the site attached them — its named trace event and a
//!   labelled latency histogram.
//! * **Events** ([`sink`]): structured records encoded as JSON lines into an
//!   attached [`Sink`] (a file via `--trace-json`, or memory in tests).
//! * **Labelled metrics** ([`metrics`]): counters, gauges, and latency
//!   histograms for long-lived serving processes, each family one typed
//!   [`metrics::Family`] constant, rendered in Prometheus text format by
//!   [`expo::render`]. Off until [`metrics::enable`], so one-shot CLI runs
//!   never pay for it.
//! * **Request traces** ([`trace`]): per-request span trees carried via a
//!   thread-local and explicitly propagated across worker boundaries,
//!   plus a fixed-capacity [`trace::FlightRecorder`] of completed
//!   requests. Off until [`trace::enable`].
//! * **Allocation counters** ([`alloc`]): a counting global allocator
//!   binaries opt into with `#[global_allocator]`; spans then attribute
//!   net allocations and bytes per phase and per trace node, and the
//!   exposition gains `baton_alloc_*` series.
//! * **Process metrics** ([`procfs`]): a dependency-free `/proc/self`
//!   sampler behind the standard `process_*` Prometheus series, sampled
//!   on scrape and omitted (never zeroed) where procfs is unavailable.
//!
//! Every hook first reads one process-global gate, a relaxed atomic with
//! one bit per observer: an attached session, its sink, request tracing
//! and labelled metrics. With all of them off — the default — a hook is
//! that one load and a predictable branch, so instrumented hot paths run
//! at full speed. Attaching a [`Session`] (see [`attach`]) turns the
//! session on; dropping it flushes and turns it off.
//!
//! ```
//! use baton_telemetry as tel;
//!
//! let cfg = tel::TelemetryConfig::default();
//! let _session = tel::attach(&cfg).unwrap();
//! tel::count(tel::Counter::Evaluations);
//! {
//!     let _span = tel::span("demo_phase");
//! }
//! let snap = tel::counters::snapshot();
//! assert_eq!(snap.get(tel::Counter::Evaluations), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alloc;
pub mod counters;
pub mod expo;
pub mod histogram;
pub mod json;
pub mod metrics;
pub mod procfs;
pub mod progress;
pub mod report;
pub mod sink;
pub mod span;
pub mod trace;

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

pub use counters::{count, count_n, Counter, CounterSnapshot};
pub use histogram::Histogram;
pub use progress::Progress;
pub use report::render_summary;
pub use sink::{event, JsonLinesSink, MemorySink, Sink};
pub use span::{span, span_labeled, stage_span};

/// The observers currently on, one bit each. Relaxed is sufficient: the
/// gate only switches best-effort observation, never synchronizes data.
static GATE: AtomicU8 = AtomicU8::new(0);

/// An attached [`Session`]: counters, phase histograms, `span` lines.
pub(crate) const SESSION: u8 = 1;
/// The session has a sink. Events go nowhere else, so without one
/// [`event`] builds nothing (no buffer, no lock).
pub(crate) const SINK: u8 = 2;
/// Request tracing ([`trace::enable`]).
pub(crate) const TRACE: u8 = 4;
/// Labelled metrics ([`metrics::enable`]).
pub(crate) const METRICS: u8 = 8;

/// The gate's current bits.
#[inline]
pub(crate) fn gate() -> u8 {
    GATE.load(Ordering::Relaxed)
}

/// Turns the observers in `bits` on.
pub(crate) fn open_gate(bits: u8) {
    GATE.fetch_or(bits, Ordering::Relaxed);
}

/// Turns the observers in `bits` off.
pub(crate) fn close_gate(bits: u8) {
    GATE.fetch_and(!bits, Ordering::Relaxed);
}

/// Stderr log verbosity (0 = silent, 1 = `-v`, 2 = `-vv`).
static VERBOSITY: AtomicU8 = AtomicU8::new(0);

/// Whether progress meters render to stderr.
static PROGRESS: AtomicBool = AtomicBool::new(false);

/// The active session's shared state (sink + time origin).
static ACTIVE: Mutex<Option<ActiveSession>> = Mutex::new(None);

struct ActiveSession {
    epoch: Instant,
    sink: Option<Box<dyn Sink>>,
}

/// True when a telemetry session is attached. `#[inline]` so the disabled
/// fast path in instrumented crates compiles to one load and one branch.
#[inline]
pub fn enabled() -> bool {
    gate() & SESSION != 0
}

/// Current stderr verbosity tier.
#[inline]
pub fn verbosity() -> u8 {
    VERBOSITY.load(Ordering::Relaxed)
}

/// True when an attached session writes events to a sink.
#[inline]
pub(crate) fn sink_attached() -> bool {
    gate() & (SESSION | SINK) == SESSION | SINK
}

/// True when progress meters should render.
#[inline]
pub fn progress_enabled() -> bool {
    PROGRESS.load(Ordering::Relaxed)
}

/// Logs to stderr when the session verbosity is at least `$level`.
/// The format arguments are only evaluated past the level check.
#[macro_export]
macro_rules! vlog {
    ($level:expr, $($arg:tt)*) => {
        if $crate::verbosity() >= $level {
            eprintln!("[baton] {}", format_args!($($arg)*));
        }
    };
}

/// Configuration for [`attach`].
#[derive(Debug, Clone, Default)]
pub struct TelemetryConfig {
    /// Stderr log tier (0 = silent, 1 = `-v`, 2 = `-vv`).
    pub verbosity: u8,
    /// Render progress meters on stderr.
    pub progress: bool,
    /// Write JSON-lines trace events to this path.
    pub trace_path: Option<String>,
}

/// An attached telemetry session. Dropping it emits a `session_end` event
/// with the final counter totals, flushes the sink and disables the layer.
#[derive(Debug)]
pub struct Session {
    _private: (),
}

fn active() -> MutexGuard<'static, Option<ActiveSession>> {
    // Telemetry must never take the process down: a panic while holding the
    // lock only loses metrics, so ignore poisoning.
    ACTIVE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Attaches the global session described by `config`, resetting all
/// counters and phase histograms.
///
/// # Errors
///
/// Returns the I/O error if `config.trace_path` cannot be created.
pub fn attach(config: &TelemetryConfig) -> io::Result<Session> {
    let sink = match &config.trace_path {
        Some(path) => Some(Box::new(JsonLinesSink::create(path)?) as Box<dyn Sink>),
        None => None,
    };
    Ok(attach_with_sink(config, sink))
}

/// Attaches a session with an explicit sink (or none). Tests use this with
/// a [`MemorySink`] to capture events in memory.
pub fn attach_with_sink(config: &TelemetryConfig, sink: Option<Box<dyn Sink>>) -> Session {
    let mut slot = active();
    counters::reset();
    span::reset();
    close_gate(SINK);
    let bits = if sink.is_some() {
        SESSION | SINK
    } else {
        SESSION
    };
    *slot = Some(ActiveSession {
        epoch: Instant::now(),
        sink,
    });
    VERBOSITY.store(config.verbosity, Ordering::Relaxed);
    PROGRESS.store(config.progress, Ordering::Relaxed);
    open_gate(bits);
    drop(slot);
    event("session_start").emit();
    Session { _private: () }
}

impl Drop for Session {
    fn drop(&mut self) {
        let mut end = event("session_end");
        for (name, value) in counters::snapshot().nonzero() {
            end = end.u64(name, value);
        }
        end.emit();
        close_gate(SESSION | SINK);
        VERBOSITY.store(0, Ordering::Relaxed);
        PROGRESS.store(false, Ordering::Relaxed);
        let mut slot = active();
        if let Some(mut session) = slot.take() {
            if let Some(sink) = session.sink.as_mut() {
                sink.flush();
            }
        }
    }
}

/// Runs `f` with the active session, if any. Used by the sink and span
/// modules; a no-op when nothing is attached.
pub(crate) fn with_active<R>(f: impl FnOnce(&mut ActiveSession) -> R) -> Option<R> {
    let mut slot = active();
    slot.as_mut().map(f)
}

impl ActiveSession {
    /// Microseconds since the session was attached.
    pub(crate) fn ts_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Writes one already-encoded JSON line to the sink, if present.
    pub(crate) fn write_line(&mut self, line: &str) {
        if let Some(sink) = self.sink.as_mut() {
            sink.line(line);
        }
    }
}

#[cfg(test)]
pub(crate) mod test_lock {
    //! Telemetry state is process-global; tests that attach sessions
    //! serialize on this lock so `cargo test`'s thread pool cannot
    //! interleave them.
    use std::sync::{Mutex, MutexGuard, PoisonError};

    static LOCK: Mutex<()> = Mutex::new(());

    pub fn hold() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_toggled_by_session() {
        let _guard = test_lock::hold();
        assert!(!enabled());
        let session = attach_with_sink(&TelemetryConfig::default(), None);
        assert!(enabled());
        drop(session);
        assert!(!enabled());
    }

    #[test]
    fn attach_resets_counters() {
        let _guard = test_lock::hold();
        {
            let _s = attach_with_sink(&TelemetryConfig::default(), None);
            count(Counter::Evaluations);
            assert_eq!(counters::snapshot().get(Counter::Evaluations), 1);
        }
        let _s = attach_with_sink(&TelemetryConfig::default(), None);
        assert_eq!(counters::snapshot().get(Counter::Evaluations), 0);
    }

    #[test]
    fn session_end_event_carries_counter_totals() {
        let _guard = test_lock::hold();
        let (sink, lines) = MemorySink::new();
        let session = attach_with_sink(&TelemetryConfig::default(), Some(Box::new(sink)));
        count_n(Counter::Evaluations, 3);
        drop(session);
        let lines = lines.lock().unwrap();
        let last = lines.last().unwrap();
        assert!(last.contains("\"event\":\"session_end\""));
        assert!(last.contains("\"evaluations\":3"));
    }
}
