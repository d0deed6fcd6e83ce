//! Trace sinks and the structured-event builder.
//!
//! Events are flat JSON objects, one per line, always carrying `ts_us`
//! (microseconds since session start) and `event` (the kind). Builders are
//! cheap no-ops when no session is attached: no allocation, no clock read.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::sync::{Arc, Mutex};

use crate::json::ObjectWriter;

/// Receives encoded JSON lines from the session.
pub trait Sink: Send {
    /// Consumes one encoded line (no trailing newline).
    fn line(&mut self, json: &str);

    /// Flushes buffered output (called on session end).
    fn flush(&mut self) {}
}

impl std::fmt::Debug for dyn Sink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("dyn Sink")
    }
}

/// Buffered JSON-lines file sink (the `--trace-json FILE` target).
#[derive(Debug)]
pub struct JsonLinesSink {
    writer: BufWriter<File>,
}

impl JsonLinesSink {
    /// Creates (truncating) the trace file.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be created.
    pub fn create(path: &str) -> io::Result<Self> {
        Ok(Self {
            writer: BufWriter::new(File::create(path)?),
        })
    }
}

impl Sink for JsonLinesSink {
    fn line(&mut self, json: &str) {
        // Telemetry is best-effort: an I/O error loses trace lines, never
        // the run.
        let _ = writeln!(self.writer, "{json}");
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

/// In-memory sink for tests: lines land in the shared `Vec`.
#[derive(Debug)]
pub struct MemorySink {
    lines: Arc<Mutex<Vec<String>>>,
}

impl MemorySink {
    /// Builds the sink and the handle its lines can be read from.
    pub fn new() -> (Self, Arc<Mutex<Vec<String>>>) {
        let lines = Arc::new(Mutex::new(Vec::new()));
        (
            Self {
                lines: Arc::clone(&lines),
            },
            lines,
        )
    }
}

impl Sink for MemorySink {
    fn line(&mut self, json: &str) {
        if let Ok(mut lines) = self.lines.lock() {
            lines.push(json.to_string());
        }
    }
}

/// Starts a structured event of the given kind. Returns an inert builder
/// when no session is attached or the session has no sink (the event would
/// go nowhere), so callers need no `enabled()` check of
/// their own (field values passed by argument are still evaluated — a
/// timed site passes its fields to [`SpanGuard::event`](crate::span::SpanGuard::event)
/// instead, whose closure runs only when the event is written).
pub fn event(kind: &str) -> EventBuilder {
    if !crate::sink_attached() {
        return EventBuilder::default();
    }
    // Room for a typical event line, so its fields rarely reallocate.
    let mut buf = ObjectWriter::with_capacity(96);
    buf.str("event", kind);
    EventBuilder { buf: Some(buf) }
}

/// Accumulates an event's fields on a flat [`ObjectWriter`]; see [`event`].
#[derive(Debug, Default)]
#[must_use = "an event does nothing until .emit() is called"]
pub struct EventBuilder {
    buf: Option<ObjectWriter>,
}

impl EventBuilder {
    /// Whether the event will be written (a sink is attached).
    pub(crate) fn is_live(&self) -> bool {
        self.buf.is_some()
    }

    fn field(mut self, add: impl FnOnce(&mut ObjectWriter)) -> Self {
        if let Some(buf) = self.buf.as_mut() {
            add(buf);
        }
        self
    }

    /// Adds a string field.
    pub fn str(self, key: &str, value: &str) -> Self {
        self.field(|w| {
            w.str(key, value);
        })
    }

    /// Adds an unsigned integer field.
    pub fn u64(self, key: &str, value: u64) -> Self {
        self.field(|w| {
            w.u64(key, value);
        })
    }

    /// Adds a signed integer field.
    pub fn i64(self, key: &str, value: i64) -> Self {
        self.field(|w| {
            w.i64(key, value);
        })
    }

    /// Adds a float field (`null` when non-finite).
    pub fn f64(self, key: &str, value: f64) -> Self {
        self.field(|w| {
            w.f64(key, value);
        })
    }

    /// Adds a boolean field.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.field(|w| {
            w.bool(key, value);
        })
    }

    /// Stamps `ts_us` and hands the line to the sink (if one is attached).
    pub fn emit(self) {
        let Some(mut buf) = self.buf else { return };
        crate::with_active(|session| {
            buf.u64("ts_us", session.ts_us());
            session.write_line(&buf.finish());
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{attach_with_sink, test_lock, TelemetryConfig};

    #[test]
    fn events_build_nothing_without_a_sink() {
        let _guard = test_lock::hold();
        let session = attach_with_sink(&TelemetryConfig::default(), None);
        assert!(event("x").u64("n", 1).buf.is_none());
        drop(session);
        let (sink, _lines) = MemorySink::new();
        let _s = attach_with_sink(&TelemetryConfig::default(), Some(Box::new(sink)));
        assert!(event("x").u64("n", 1).buf.is_some());
    }

    #[test]
    fn events_encode_all_field_types_as_valid_json() {
        let _guard = test_lock::hold();
        let (sink, lines) = MemorySink::new();
        let _s = attach_with_sink(&TelemetryConfig::default(), Some(Box::new(sink)));
        event("kind\"with\nquotes")
            .str("s", "va\\lue")
            .u64("u", 42)
            .f64("f", 2.5)
            .f64("nan", f64::NAN)
            .bool("b", true)
            .emit();
        let lines = lines.lock().unwrap();
        // session_start + our event.
        assert_eq!(lines.len(), 2);
        let obj = crate::json::parse_flat_object(&lines[1]).unwrap();
        assert_eq!(obj["event"].as_str(), Some("kind\"with\nquotes"));
        assert_eq!(obj["s"].as_str(), Some("va\\lue"));
        assert_eq!(obj["u"].as_f64(), Some(42.0));
        assert_eq!(obj["f"].as_f64(), Some(2.5));
        assert_eq!(obj["nan"], crate::json::Value::Null);
        assert_eq!(obj["b"], crate::json::Value::Bool(true));
        assert!(obj.contains_key("ts_us"));
    }

    #[test]
    fn builder_is_inert_without_a_session() {
        let _guard = test_lock::hold();
        event("nobody-listening").u64("x", 1).emit();
    }
}
