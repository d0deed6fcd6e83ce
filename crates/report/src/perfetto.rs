//! Chrome `trace_event` export of DES timelines, viewable in Perfetto.
//!
//! The discrete-event simulator records a flat [`baton_sim::Trace`] of tile
//! lifecycle events. This module lays those events out the way a timeline
//! viewer wants them: one *process* per chiplet, one *track* (thread) per
//! tile stream — `load` (DRAM + ring + bus), `compute`, `writeback` — plus
//! package-level counter tracks for load/compute occupancy and an
//! `analytical_vs_sim` marker wherever the C³P cycle prediction and the
//! simulated cycles diverge beyond a tolerance.
//!
//! Timestamps are **cycles**, written into the `ts` microsecond field
//! verbatim (1 cycle renders as 1 us); relative durations and overlaps are
//! what the viewer is for, so no clock conversion is applied.
//!
//! The emitted JSON is the "JSON Array Format" of the Chrome trace-event
//! spec: `{"traceEvents": [...]}` with `ph`, `ts`, `pid`, `tid` on every
//! event. [`validate`] re-parses an emitted document and checks that
//! structure plus per-track timestamp monotonicity — the same check the
//! test-suite runs on every export.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use baton_sim::{Trace, TraceKind};
use baton_telemetry::json::{self, push_str_escaped, Value};
use baton_telemetry::trace::CompletedTrace;

/// The synthetic process id of package-level tracks (layer spans, occupancy
/// counters, divergence markers). Far above any chiplet index.
pub const PACKAGE_PID: u64 = 1_000_000;

/// Base process id for request traces exported from the serve flight
/// recorder ([`PerfettoTrace::add_request`]); each added request gets its
/// own process, counting up from here. Far above [`PACKAGE_PID`] so request
/// tracks never collide with DES layer tracks in a mixed document.
pub const REQUEST_PID_BASE: u64 = 2_000_000;

/// Default `analytical_vs_sim` divergence tolerance: a relative error of
/// 10% between the C³P prediction and the simulated cycle count. Shared by
/// the Perfetto markers (`baton map`, overridable with `--divergence-tol`)
/// and the fidelity harness ([`crate::fidelity`]) so the two surfaces flag
/// the same discrepancies.
pub const DEFAULT_DIVERGENCE_TOL: f64 = 0.1;

const TID_LOAD: u64 = 0;
const TID_COMPUTE: u64 = 1;
const TID_WRITEBACK: u64 = 2;

/// One argument value of a trace event.
#[derive(Debug, Clone)]
enum Arg {
    U64(u64),
    F64(f64),
    Str(String),
}

/// One trace event, pre-encoding.
#[derive(Debug, Clone)]
struct Event {
    ph: char,
    name: String,
    cat: &'static str,
    pid: u64,
    tid: u64,
    ts: u64,
    dur: Option<u64>,
    scope: Option<char>,
    args: Vec<(&'static str, Arg)>,
}

/// Accumulates DES layer traces into one Chrome trace_event document.
///
/// Layers are laid out back to back on the time axis: each `add_layer` call
/// shifts its events by the simulated cycles of everything before it.
#[derive(Debug, Default)]
pub struct PerfettoTrace {
    events: Vec<Event>,
    named_chiplets: std::collections::BTreeSet<u64>,
    package_named: bool,
    offset: u64,
    divergences: usize,
    requests: u64,
}

impl PerfettoTrace {
    /// An empty trace document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of layers whose analytical/simulated cycles diverged beyond
    /// the tolerance passed to [`add_layer`](Self::add_layer).
    pub fn divergences(&self) -> usize {
        self.divergences
    }

    fn meta(&mut self, pid: u64, tid: Option<u64>, name: &str) {
        self.events.push(Event {
            ph: 'M',
            name: if tid.is_some() {
                "thread_name".into()
            } else {
                "process_name".into()
            },
            cat: "__metadata",
            pid,
            tid: tid.unwrap_or(0),
            ts: 0,
            dur: None,
            scope: None,
            args: vec![("name", Arg::Str(name.to_string()))],
        });
    }

    fn name_chiplet(&mut self, chiplet: u64) {
        if !self.named_chiplets.insert(chiplet) {
            return;
        }
        self.meta(chiplet, None, &format!("chiplet {chiplet}"));
        self.meta(chiplet, Some(TID_LOAD), "load (dram+ring+bus)");
        self.meta(chiplet, Some(TID_COMPUTE), "compute");
        self.meta(chiplet, Some(TID_WRITEBACK), "writeback");
    }

    fn counter(&mut self, name: &'static str, ts: u64, value: u64) {
        self.events.push(Event {
            ph: 'C',
            name: name.into(),
            cat: "occupancy",
            pid: PACKAGE_PID,
            tid: 0,
            ts,
            dur: None,
            scope: None,
            args: vec![("value", Arg::U64(value))],
        });
    }

    /// Appends one layer's DES trace, offset past all previous layers.
    ///
    /// `analytical_cycles` is the C³P runtime prediction for the same
    /// `(layer, mapping)`; when it differs from `sim_cycles` by more than
    /// `tolerance` (a fraction, e.g. `0.1` for 10%), an `analytical_vs_sim`
    /// instant event marks the divergence at the layer's end.
    pub fn add_layer(
        &mut self,
        layer: &str,
        trace: &Trace,
        analytical_cycles: u64,
        sim_cycles: u64,
        tolerance: f64,
    ) {
        if !self.package_named {
            self.package_named = true;
            self.meta(PACKAGE_PID, None, "package");
            self.meta(PACKAGE_PID, Some(0), "layers");
        }
        let off = self.offset;

        // The layer span on the package track.
        self.events.push(Event {
            ph: 'X',
            name: layer.into(),
            cat: "layer",
            pid: PACKAGE_PID,
            tid: 0,
            ts: off,
            dur: Some(sim_cycles.max(1)),
            scope: None,
            args: vec![
                ("analytical_cycles", Arg::U64(analytical_cycles)),
                ("sim_cycles", Arg::U64(sim_cycles)),
            ],
        });

        // Tile lifecycle spans: match Start/Done pairs per (chiplet, tile).
        let mut open: BTreeMap<(u64, u64, char), u64> = BTreeMap::new();
        let mut loading = 0u64;
        let mut computing = 0u64;
        for e in trace.events() {
            let chiplet = u64::from(e.chiplet);
            self.name_chiplet(chiplet);
            let ts = off + e.time;
            match e.kind {
                TraceKind::LoadStart => {
                    open.insert((chiplet, e.tile, 'l'), ts);
                    loading += 1;
                    self.counter("chiplets_loading", ts, loading);
                }
                TraceKind::LoadDone => {
                    let start = open.remove(&(chiplet, e.tile, 'l')).unwrap_or(ts);
                    self.events.push(Event {
                        ph: 'X',
                        name: format!("load t{}", e.tile),
                        cat: "load",
                        pid: chiplet,
                        tid: TID_LOAD,
                        ts: start,
                        dur: Some(ts.saturating_sub(start)),
                        scope: None,
                        args: vec![("tile", Arg::U64(e.tile))],
                    });
                    loading = loading.saturating_sub(1);
                    self.counter("chiplets_loading", ts, loading);
                }
                TraceKind::ComputeStart => {
                    open.insert((chiplet, e.tile, 'c'), ts);
                    computing += 1;
                    self.counter("chiplets_computing", ts, computing);
                }
                TraceKind::ComputeDone => {
                    let start = open.remove(&(chiplet, e.tile, 'c')).unwrap_or(ts);
                    self.events.push(Event {
                        ph: 'X',
                        name: format!("compute t{}", e.tile),
                        cat: "compute",
                        pid: chiplet,
                        tid: TID_COMPUTE,
                        ts: start,
                        dur: Some(ts.saturating_sub(start)),
                        scope: None,
                        args: vec![("tile", Arg::U64(e.tile))],
                    });
                    computing = computing.saturating_sub(1);
                    self.counter("chiplets_computing", ts, computing);
                }
                TraceKind::WritebackDone => {
                    self.events.push(Event {
                        ph: 'i',
                        name: format!("writeback t{}", e.tile),
                        cat: "writeback",
                        pid: chiplet,
                        tid: TID_WRITEBACK,
                        ts,
                        dur: None,
                        scope: Some('t'),
                        args: vec![("tile", Arg::U64(e.tile))],
                    });
                }
            }
        }

        // Divergence marker: the DES disagreeing with the analytical bound
        // beyond tolerance is exactly what a developer should look at.
        let base = analytical_cycles.max(1) as f64;
        let delta = (sim_cycles as f64 - base) / base;
        if delta.abs() > tolerance {
            self.divergences += 1;
            self.events.push(Event {
                ph: 'i',
                name: "analytical_vs_sim".into(),
                cat: "divergence",
                pid: PACKAGE_PID,
                tid: 0,
                ts: off + sim_cycles,
                dur: None,
                scope: Some('g'),
                args: vec![
                    ("layer", Arg::Str(layer.to_string())),
                    ("analytical_cycles", Arg::U64(analytical_cycles)),
                    ("sim_cycles", Arg::U64(sim_cycles)),
                    ("delta_pct", Arg::F64(100.0 * delta)),
                ],
            });
        }

        self.offset = off + sim_cycles.max(1);
    }

    /// Appends one served request's span tree from the flight recorder.
    ///
    /// The request becomes its own process: the root span (`queue wait →
    /// render`, the whole request) occupies track 0, and child spans are
    /// packed greedily onto further tracks — each span takes the first
    /// track whose previous occupant has already ended, so concurrent
    /// spans (parallel workers, say) fan out visually while sequential
    /// phases share a lane. That packing is also what keeps the export
    /// within [`validate`]'s no-overlap-per-track contract.
    ///
    /// Timestamps are microseconds since the request epoch, written into
    /// `ts` verbatim.
    pub fn add_request(&mut self, trace: &CompletedTrace) {
        let pid = REQUEST_PID_BASE + self.requests;
        self.requests += 1;
        self.meta(pid, None, &format!("request {}", trace.trace_id));
        self.meta(pid, Some(0), "request");
        self.events.push(Event {
            ph: 'X',
            name: trace.op.clone(),
            cat: "request",
            pid,
            tid: 0,
            ts: 0,
            dur: Some(trace.total_us.max(1)),
            scope: None,
            args: vec![
                ("trace_id", Arg::Str(trace.trace_id.clone())),
                ("status", Arg::U64(u64::from(trace.status))),
                ("dropped_spans", Arg::U64(trace.dropped_spans)),
            ],
        });

        // Greedy lane assignment over spans pre-sorted by (start_us, id):
        // `lane_end[i]` is when track `i + 1` frees up.
        let mut lane_end: Vec<u64> = Vec::new();
        for s in &trace.spans {
            let lane = lane_end
                .iter()
                .position(|&end| end <= s.start_us)
                .unwrap_or_else(|| {
                    lane_end.push(0);
                    lane_end.len() - 1
                });
            lane_end[lane] = s.start_us + s.dur_us;
            let mut args = vec![
                ("span_id", Arg::U64(u64::from(s.id))),
                ("parent", Arg::U64(u64::from(s.parent))),
            ];
            if let Some(label) = &s.label {
                args.push(("label", Arg::Str(label.clone())));
            }
            self.events.push(Event {
                ph: 'X',
                name: s.name.into(),
                cat: "request_span",
                pid,
                tid: lane as u64 + 1,
                ts: s.start_us,
                dur: Some(s.dur_us),
                scope: None,
                args,
            });
        }
        for lane in 0..lane_end.len() {
            self.meta(pid, Some(lane as u64 + 1), &format!("spans {}", lane + 1));
        }
    }

    /// Encodes the document as Chrome trace_event JSON, one event per line.
    pub fn to_json(&self) -> String {
        let mut sorted: Vec<&Event> = self.events.iter().collect();
        // Metadata first, then everything in (pid, tid, ts) order so each
        // track reads top to bottom in the raw file too.
        sorted.sort_by_key(|e| (e.ph != 'M', e.pid, e.tid, e.ts));
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, e) in sorted.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            encode_event(&mut out, e);
        }
        out.push_str("\n]}\n");
        out
    }
}

fn encode_event(out: &mut String, e: &Event) {
    let _ = write!(out, "{{\"ph\":\"{}\",\"name\":", e.ph);
    push_str_escaped(out, &e.name);
    let _ = write!(out, ",\"cat\":\"{}\"", e.cat);
    let _ = write!(out, ",\"pid\":{},\"tid\":{},\"ts\":{}", e.pid, e.tid, e.ts);
    if let Some(dur) = e.dur {
        let _ = write!(out, ",\"dur\":{dur}");
    }
    if let Some(s) = e.scope {
        let _ = write!(out, ",\"s\":\"{s}\"");
    }
    if !e.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in e.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str_escaped(out, k);
            out.push(':');
            match v {
                Arg::U64(n) => {
                    let _ = write!(out, "{n}");
                }
                Arg::F64(f) => json::push_f64(out, *f),
                Arg::Str(s) => push_str_escaped(out, s),
            }
        }
        out.push('}');
    }
    out.push('}');
}

// ---------------------------------------------------------------------------
// Validation.

/// Structural summary of a validated trace document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Total events, metadata included.
    pub events: usize,
    /// Complete (`ph:X`) span events.
    pub spans: usize,
    /// Counter (`ph:C`) samples.
    pub counters: usize,
    /// Instant (`ph:i`) events.
    pub instants: usize,
    /// `analytical_vs_sim` divergence markers.
    pub divergences: usize,
}

/// Re-parses an emitted document and verifies the Chrome trace_event
/// contract: every event carries `ph`/`pid`/`tid`/`ts`, complete events
/// carry a non-negative `dur`, and within each `(pid, tid)` track the
/// complete events are monotonically ordered and non-overlapping.
///
/// # Errors
///
/// Returns the first structural violation found.
pub fn validate(text: &str) -> Result<TraceStats, String> {
    let doc = json::parse(text)?;
    let Value::Array(events) = doc.get("traceEvents").ok_or("no traceEvents key")? else {
        return Err("traceEvents is not an array".into());
    };
    let mut stats = TraceStats {
        events: events.len(),
        ..TraceStats::default()
    };
    // (pid, tid) -> end of the last complete event seen on the track.
    let mut track_end: BTreeMap<(u64, u64), f64> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let num = |key: &str| {
            e.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("event {i}: missing numeric {key}"))
        };
        let (pid, tid, ts) = (num("pid")? as u64, num("tid")? as u64, num("ts")?);
        match ph {
            "X" => {
                stats.spans += 1;
                let dur = e
                    .get("dur")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {i}: X without dur"))?;
                if dur < 0.0 {
                    return Err(format!("event {i}: negative dur"));
                }
                // The package-level layer track nests chiplet activity, so
                // only same-track spans must not overlap.
                let end = track_end.entry((pid, tid)).or_insert(f64::MIN);
                if ts < *end {
                    return Err(format!(
                        "event {i}: track ({pid},{tid}) span at ts {ts} overlaps previous end {end}"
                    ));
                }
                *end = ts + dur;
            }
            "C" => stats.counters += 1,
            "i" => {
                stats.instants += 1;
                if e.get("name").and_then(Value::as_str) == Some("analytical_vs_sim") {
                    stats.divergences += 1;
                }
            }
            "M" => {}
            other => return Err(format!("event {i}: unexpected ph `{other}`")),
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace() -> Trace {
        let mut t = Trace::new();
        for (time, chiplet, tile, kind) in [
            (0, 0, 0, TraceKind::LoadStart),
            (0, 1, 0, TraceKind::LoadStart),
            (10, 0, 0, TraceKind::LoadDone),
            (10, 0, 0, TraceKind::ComputeStart),
            (12, 1, 0, TraceKind::LoadDone),
            (12, 1, 0, TraceKind::ComputeStart),
            (50, 0, 0, TraceKind::ComputeDone),
            (52, 1, 0, TraceKind::ComputeDone),
            (60, 0, 0, TraceKind::WritebackDone),
            (62, 1, 0, TraceKind::WritebackDone),
        ] {
            t.record(time, chiplet, tile, kind);
        }
        t
    }

    #[test]
    fn export_validates_and_counts_structures() {
        let mut p = PerfettoTrace::new();
        p.add_layer("conv1", &tiny_trace(), 60, 62, 0.1);
        let json = p.to_json();
        let stats = validate(&json).unwrap();
        // 1 layer span + 2 loads + 2 computes.
        assert_eq!(stats.spans, 5);
        // 2 writebacks; no divergence at 3.3%.
        assert_eq!(stats.instants, 2);
        assert_eq!(stats.divergences, 0);
        assert!(stats.counters > 0);
        assert_eq!(p.divergences(), 0);
    }

    #[test]
    fn divergence_marker_fires_beyond_tolerance() {
        let mut p = PerfettoTrace::new();
        p.add_layer("conv1", &tiny_trace(), 40, 62, 0.1);
        assert_eq!(p.divergences(), 1);
        let stats = validate(&p.to_json()).unwrap();
        assert_eq!(stats.divergences, 1);
    }

    #[test]
    fn layers_are_laid_out_back_to_back() {
        let mut p = PerfettoTrace::new();
        p.add_layer("a", &tiny_trace(), 62, 62, 0.5);
        p.add_layer("b", &tiny_trace(), 62, 62, 0.5);
        let doc = json::parse(&p.to_json()).unwrap();
        let Some(Value::Array(events)) = doc.get("traceEvents") else {
            panic!("not an array");
        };
        let layer_ts: Vec<f64> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Value::as_str) == Some("layer"))
            .map(|e| e.get("ts").and_then(Value::as_f64).unwrap())
            .collect();
        assert_eq!(layer_ts, vec![0.0, 62.0]);
        // Validation still passes with two layers on every track.
        validate(&p.to_json()).unwrap();
    }

    #[test]
    fn request_export_packs_overlapping_spans_onto_distinct_lanes() {
        use baton_telemetry::trace::SpanRecord;
        let span = |id, parent, name, start_us, dur_us, label: Option<&str>| SpanRecord {
            id,
            parent,
            name,
            label: label.map(String::from),
            start_us,
            dur_us,
            net_allocs: 0,
            net_bytes: 0,
        };
        let trace = CompletedTrace {
            trace_id: "00c0ffee00c0ffee".into(),
            op: "POST /map".into(),
            status: 200,
            unix_ms: 0,
            total_us: 100,
            // Pre-sorted by (start_us, id), as `TraceHandle::finish` emits:
            // a sequential parse, then a search whose two workers overlap
            // both it and each other.
            spans: vec![
                span(1, 0, "parse", 0, 10, None),
                span(2, 0, "search", 10, 80, None),
                span(3, 2, "parallel_worker", 12, 30, Some("w0")),
                span(4, 2, "parallel_worker", 12, 35, Some("w\"1\\")),
                span(5, 0, "render", 90, 10, None),
            ],
            dropped_spans: 0,
        };
        let mut p = PerfettoTrace::new();
        p.add_request(&trace);
        let json = p.to_json();
        let stats = validate(&json).unwrap();
        assert_eq!(stats.spans, 6, "root + 5 spans");

        let doc = json::parse(&json).unwrap();
        let Some(Value::Array(events)) = doc.get("traceEvents") else {
            panic!("not an array");
        };
        let tid_of = |name: &str, label: Option<&str>| {
            events
                .iter()
                .find(|e| {
                    e.get("name").and_then(Value::as_str) == Some(name)
                        && e.get("args")
                            .and_then(|a| a.get("label"))
                            .and_then(Value::as_str)
                            == label
                })
                .and_then(|e| e.get("tid").and_then(Value::as_f64))
                .unwrap() as u64
        };
        // Root owns track 0; overlapping spans never share a lane; the
        // sequential render reuses parse's freed lane 1.
        assert_eq!(tid_of("POST /map", None), 0);
        assert_eq!(tid_of("parse", None), 1);
        assert_eq!(tid_of("search", None), 1);
        assert_eq!(tid_of("parallel_worker", Some("w0")), 2);
        assert_eq!(tid_of("parallel_worker", Some("w\"1\\")), 3);
        assert_eq!(tid_of("render", None), 1);
        // Parentage and identity ride along as args.
        let worker = events
            .iter()
            .find(|e| {
                e.get("args")
                    .and_then(|a| a.get("label"))
                    .and_then(Value::as_str)
                    == Some("w0")
            })
            .unwrap();
        assert_eq!(
            worker
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Value::as_f64),
            Some(2.0)
        );
        // A second request lands in its own process.
        p.add_request(&trace);
        let stats = validate(&p.to_json()).unwrap();
        assert_eq!(stats.spans, 12);
    }

    #[test]
    fn validate_rejects_overlapping_spans() {
        let text = r#"{"traceEvents":[
            {"ph":"X","name":"a","pid":0,"tid":0,"ts":0,"dur":10},
            {"ph":"X","name":"b","pid":0,"tid":0,"ts":5,"dur":10}
        ]}"#;
        let err = validate(text).unwrap_err();
        assert!(err.contains("overlaps"), "{err}");
    }
}
