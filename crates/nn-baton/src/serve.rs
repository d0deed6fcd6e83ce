//! `baton serve`: the tool as a long-lived, monitored HTTP service.
//!
//! A dependency-free HTTP/1.1 server on [`std::net::TcpListener`] that
//! turns the one-shot CLI flows into endpoints:
//!
//! | Route | Method | Response |
//! |-------|--------|----------|
//! | `/metrics` | GET | Prometheus text exposition ([`baton_telemetry::expo`]) |
//! | `/healthz` | GET | liveness: `{"status":"ok"}` as soon as the socket is up |
//! | `/readyz`  | GET | readiness: 503 until the warmup search finishes, then version/uptime/threads |
//! | `/map`, `/explain` | POST | the offline `baton explain --format json` report for a JSON request body |
//! | `/debug/requests` | GET | flight recorder: recent requests with timing breakdowns (`?limit=N` for the newest N) |
//! | `/debug/requests/<id>` | GET | one request's full span tree (`?format=perfetto` for a trace-viewer file) |
//! | `/quitquitquit` | POST | graceful drain: stop accepting, finish in-flight work, exit 0 |
//!
//! The request body is `{"model": "resnet50", "config": {...}}` where
//! `model` is a zoo name (never a file path — the HTTP surface must not
//! probe the server's filesystem, unlike the CLI which also accepts
//! `.baton` paths) and `config` may set `res`, `layer` (name or index),
//! `top`, and `objective` (`energy`/`edp`/`runtime`) — the same knobs as
//! the CLI flags, with the same defaults, so a `POST /map` response is
//! byte-identical to the offline `baton explain <model> --format json`
//! output. `res` and `top` are range-checked before they reach the model
//! builders, and a handler panic is caught and answered as a 500 — a
//! request can never take a worker thread down with it.
//!
//! # Production shape
//!
//! Mappings are deterministic, so identical requests are served from a
//! sharded LRU **response cache** ([`ResponseCache`], `--cache-entries`)
//! keyed by the *canonicalized* request ([`MapRequest::cache_key`]): two
//! bodies that differ only in JSON field order, whitespace, or explicitly
//! spelled defaults hit the same entry and get byte-identical bytes back,
//! without re-running the search. Hits, misses, evictions, and occupancy
//! are exported as `baton_response_cache_*` series.
//!
//! Connections are **HTTP/1.1 keep-alive** by default (`Connection: close`
//! honored), bounded by `--keep-alive-requests` per connection and by
//! read/write deadlines, so a stalled client can pin a worker for at most
//! one timeout. Accepted connections flow through a bounded
//! [`BoundedQueue`] (`--queue-depth`) to a fixed worker pool sized from
//! [`baton_parallel::threads`]; when every worker is busy and the queue is
//! full the acceptor answers **429 + `Retry-After`** immediately instead
//! of letting accepts pile up — back-pressure is visible in
//! `baton_parallel_queue_depth{queue="http"}` before the first rejection.
//!
//! `POST /quitquitquit` (or [`request_shutdown`] from a supervisor hook)
//! starts a **graceful drain**: the acceptor stops accepting (subsequent
//! connects are refused), `/readyz` flips to 503 `draining` so load
//! balancers stop routing here, queued and in-flight requests complete,
//! workers exit, and a final metrics snapshot is flushed before [`serve`]
//! returns `Ok` — a supervisor sees exit code 0.
//!
//! # Network path
//!
//! No response waits on a TCP timer. Every accepted socket sets
//! `TCP_NODELAY`, and every response — status line, headers and body — is
//! assembled in one buffer and handed to the socket in one `write_all`, so
//! a keep-alive client never waits for a delayed ACK between head and
//! body. The acceptor blocks in `accept`; a drain wakes it with a
//! throwaway connection to the bound address, which it drops unqueued.
//! The request head is bounded too: a request line or header line longer
//! than 8 KiB, or more than 100 headers, is answered 400/431 and the
//! connection closed, as is any `Content-Length` the server cannot trust
//! (non-numeric, or two that disagree) and any `Transfer-Encoding`.
//!
//! # Request tracing and the flight recorder
//!
//! Every request runs under a [`baton_telemetry::trace`] context with a
//! deterministic trace ID, echoed back as the `X-Baton-Trace-Id` response
//! header. The server records root spans for its own phases — `queue_wait`
//! (enqueue to worker pickup), `parse`, `cache`, `search`, `render` — and
//! the context is propagated across `baton-parallel` worker boundaries, so
//! the per-layer `search_layer` spans and their `parallel_worker` children
//! attach to the originating request. Completed traces land in an
//! always-on fixed-capacity [`FlightRecorder`] served under `/debug/*`,
//! and requests slower than `--slow-request-ms` additionally emit one
//! structured JSON line to stderr with the trace ID and phase breakdown.
//!
//! Serving is the mode the metrics layer exists for: [`serve`] calls
//! [`metrics::enable`] and every request — including malformed request
//! lines, oversized bodies, and queue-full rejections that never reach
//! routing — is timed into `baton_http_request_duration_seconds` and
//! counted in `baton_http_requests_total{code,path}`, so the service
//! observes itself through its own `/metrics`.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use baton_arch::{presets, Technology};
use baton_c3p::Objective;
use baton_model::{parse_model, zoo, ConvSpec, Model};
use baton_parallel::queue::{
    BoundedQueue, Handoff, PushError, QUEUE_DEPTH_GAUGE, QUEUE_DEPTH_HELP,
};
use baton_report::perfetto::{parse_json, Json, PerfettoTrace};
use baton_report::{explain_layer, Format};
use baton_telemetry::json::ObjectWriter;
use baton_telemetry::trace::{CompletedTrace, FlightRecorder, TraceHandle};
use baton_telemetry::{expo, metrics, span, trace, vlog};

/// Default listen address (host:port) for `baton serve`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:9184";

/// Largest accepted request body; mapping requests are a few hundred bytes.
const MAX_BODY_BYTES: usize = 1 << 20;

/// Per-request socket read deadline: a client that stalls mid-request (or
/// idles on a keep-alive connection) frees its worker after this long.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Socket write deadline: a client that accepts a response slower than
/// this loses the connection rather than pinning the worker.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// `Retry-After` seconds answered with a 429 when the queue is full.
const RETRY_AFTER_SECS: u32 = 1;

/// Pause after a failed `accept` (e.g. EMFILE), so a persistent error
/// cannot spin the acceptor.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// How long a drain's wake-up connection may take to reach the listener.
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Longest request line or header line accepted, line end included.
const MAX_HEAD_LINE_BYTES: usize = 8 << 10;

/// Most header lines accepted in one request head.
const MAX_HEADERS: usize = 100;

/// Room reserved for the status line and headers of a response.
const HEAD_CAPACITY: usize = 256;

const REQUESTS_TOTAL: &str = "baton_http_requests_total";
const REQUESTS_HELP: &str = "HTTP requests served, by canonical path and status code.";
const REQUEST_SECONDS: &str = "baton_http_request_duration_seconds";
const REQUEST_SECONDS_HELP: &str = "HTTP request handling latency by canonical path.";
const WORKERS_BUSY: &str = "baton_http_workers_busy";
const WORKERS_BUSY_HELP: &str = "HTTP worker threads currently serving a connection.";

const CACHE_HITS: &str = "baton_response_cache_hits_total";
const CACHE_HITS_HELP: &str = "Mapping requests answered from the response cache.";
const CACHE_MISSES: &str = "baton_response_cache_misses_total";
const CACHE_MISSES_HELP: &str =
    "Mapping requests that missed the response cache and ran the search.";
const CACHE_EVICTIONS: &str = "baton_response_cache_evictions_total";
const CACHE_EVICTIONS_HELP: &str = "Response cache entries evicted to make room (LRU per shard).";
const CACHE_ENTRIES: &str = "baton_response_cache_entries";
const CACHE_ENTRIES_HELP: &str = "Entries currently held by the response cache.";

const CONNECTIONS_CLOSED: &str = "baton_http_connections_closed_total";
const CONNECTIONS_CLOSED_HELP: &str =
    "Keep-alive connections closed by the server, by cause (limit, deadline, framing, drain).";

/// Completed request traces retained by the flight recorder.
const FLIGHT_RECORDER_CAPACITY: usize = 128;

/// Default `--slow-request-ms`: requests at or above this total duration
/// emit one structured JSON line to stderr.
pub const DEFAULT_SLOW_REQUEST_MS: u64 = 1000;

/// Longest `method path` string stored per flight-recorder entry; bounds
/// ring memory against pathological request lines.
const MAX_OP_BYTES: usize = 200;

/// Input resolutions accepted over HTTP. The zoo builders assert their
/// layer shapes, so a resolution too small for a model's deepest stage
/// (or absurdly large) must be refused *before* the builder runs.
const MIN_RES: u32 = 32;
const MAX_RES: u32 = 4096;

/// Largest runner-up count accepted over HTTP; bounds per-request work.
const MAX_TOP: usize = 100;

/// Knobs for [`serve`], surfaced as `baton serve` flags.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// `host:port` to bind (port 0 picks a free one).
    pub addr: String,
    /// Response-cache capacity in entries; 0 disables the cache.
    pub cache_entries: usize,
    /// Accepted connections that may wait for a worker before the acceptor
    /// starts answering 429.
    pub queue_depth: usize,
    /// Requests served on one keep-alive connection before the server
    /// closes it (bounds per-connection resource tenure).
    pub keep_alive_requests: usize,
    /// Requests whose total duration reaches this many milliseconds are
    /// logged as structured JSON lines on stderr; 0 logs every request.
    pub slow_request_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: DEFAULT_ADDR.to_string(),
            cache_entries: 256,
            queue_depth: 64,
            keep_alive_requests: 100,
            slow_request_ms: DEFAULT_SLOW_REQUEST_MS,
        }
    }
}

/// Resolves `<model>` as a zoo name — the only resolution the HTTP
/// surface performs, so remote clients can never probe server-side paths.
///
/// # Errors
///
/// Returns a message naming the unknown model and the valid zoo names.
pub fn zoo_model(name: &str, res: u32) -> Result<Model, String> {
    if !is_zoo_name(name) {
        return Err(format!(
            "unknown model `{name}` (alexnet, vgg16, resnet50, darknet19, mobilenet_v2, yolo_v2)"
        ));
    }
    Ok(match name {
        "alexnet" => zoo::alexnet(res),
        "vgg16" => zoo::vgg16(res),
        "resnet50" => zoo::resnet50(res),
        "darknet19" => zoo::darknet19(res),
        "mobilenet_v2" => zoo::mobilenet_v2(res),
        _ => zoo::yolo_v2(res),
    })
}

/// True for the closed set of zoo model names the HTTP surface accepts —
/// checked before any cache or builder work, so unknown names can neither
/// mint cache keys nor reach the zoo builders.
pub fn is_zoo_name(name: &str) -> bool {
    matches!(
        name,
        "alexnet" | "vgg16" | "resnet50" | "darknet19" | "mobilenet_v2" | "yolo_v2"
    )
}

/// Resolves `<model>` for the CLI: a zoo name or a path to a `.baton`
/// model description. Not used by the HTTP handlers — see [`zoo_model`].
///
/// # Errors
///
/// Returns a message naming the unknown model or the unreadable path.
pub fn load_model(name: &str, res: u32) -> Result<Model, String> {
    if name.ends_with(".baton") {
        let text = std::fs::read_to_string(name).map_err(|e| format!("cannot read {name}: {e}"))?;
        return parse_model(&text).map_err(|e| e.to_string());
    }
    zoo_model(name, res).map_err(|_| format!("unknown model `{name}` (zoo name or a .baton file)"))
}

// ---------------------------------------------------------------------------
// Response cache
// ---------------------------------------------------------------------------

/// Shard count: a small power of two; requests hash across shards so
/// concurrent workers rarely contend on one mutex.
const CACHE_SHARDS: usize = 8;

#[derive(Debug, Default)]
struct CacheShard {
    /// Key -> (LRU stamp, response bytes). The stamp is a shard-local
    /// logical clock bumped on every touch; eviction removes the minimum.
    map: HashMap<String, (u64, Arc<String>)>,
    clock: u64,
}

/// A sharded LRU cache of rendered 200-responses, keyed by
/// [`MapRequest::cache_key`]. Entries are immutable `Arc<String>`s, so a
/// hit clones a pointer, not the body.
///
/// Eviction is LRU within a shard (exact, by logical-clock scan — shards
/// hold at most a few dozen entries, so the scan is cheaper than
/// maintaining an intrusive list). All traffic is mirrored into the
/// `baton_response_cache_*` metric series.
#[derive(Debug)]
pub struct ResponseCache {
    shards: Vec<Mutex<CacheShard>>,
    per_shard: usize,
    entries: AtomicUsize,
}

impl ResponseCache {
    /// A cache holding at most (roughly) `capacity` entries, spread over
    /// `CACHE_SHARDS` shards (each shard holds `ceil(capacity/shards)`,
    /// minimum 1).
    pub fn new(capacity: usize) -> Self {
        ResponseCache {
            shards: (0..CACHE_SHARDS).map(|_| Mutex::default()).collect(),
            per_shard: capacity.div_ceil(CACHE_SHARDS).max(1),
            entries: AtomicUsize::new(0),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<CacheShard> {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % CACHE_SHARDS]
    }

    /// Looks `key` up, refreshing its recency. Counts a hit or a miss.
    pub fn get(&self, key: &str) -> Option<Arc<String>> {
        let mut shard = self
            .shard(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        shard.clock += 1;
        let stamp = shard.clock;
        let found = shard.map.get_mut(key).map(|(used, body)| {
            *used = stamp;
            Arc::clone(body)
        });
        drop(shard);
        if found.is_some() {
            metrics::counter_add(CACHE_HITS, CACHE_HITS_HELP, &[], 1);
        } else {
            metrics::counter_add(CACHE_MISSES, CACHE_MISSES_HELP, &[], 1);
        }
        found
    }

    /// Stores a rendered response, evicting the shard's least-recently
    /// used entry if the shard is full.
    pub fn insert(&self, key: String, body: Arc<String>) {
        let mut shard = self
            .shard(&key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        shard.clock += 1;
        let stamp = shard.clock;
        let mut evicted = false;
        if !shard.map.contains_key(&key) && shard.map.len() >= self.per_shard {
            if let Some(oldest) = shard
                .map
                .iter()
                .min_by_key(|(_, (used, _))| *used)
                .map(|(k, _)| k.clone())
            {
                shard.map.remove(&oldest);
                evicted = true;
            }
        }
        let added = shard.map.insert(key, (stamp, body)).is_none();
        drop(shard);
        if evicted {
            metrics::counter_add(CACHE_EVICTIONS, CACHE_EVICTIONS_HELP, &[], 1);
            self.entries.fetch_sub(1, Ordering::Relaxed);
        }
        if added {
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
        metrics::gauge_set(
            CACHE_ENTRIES,
            CACHE_ENTRIES_HELP,
            &[],
            self.entries.load(Ordering::Relaxed) as f64,
        );
    }

    /// Entries currently held (approximate under concurrency).
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// True when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Request parsing and canonicalization
// ---------------------------------------------------------------------------

/// Which layers a mapping request selects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayerSelector {
    /// No `config.layer`: every layer of the model.
    All,
    /// By position (`config.layer` as a number, or a string that parses).
    Index(usize),
    /// By layer name.
    Name(String),
}

/// A parsed, validated, *canonical* mapping request: every field carries
/// its default when the body omitted it, so two JSON bodies that describe
/// the same work compare — and cache — equal regardless of field order,
/// whitespace, or explicitly spelled defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct MapRequest {
    /// Zoo model name (validated against [`is_zoo_name`] by the handler).
    pub model: String,
    /// Input resolution (default 224, range-checked).
    pub res: u32,
    /// Runner-up count (default 3, range-checked).
    pub top: usize,
    /// Search objective (default energy).
    pub objective: Objective,
    /// Layer selection (default all layers).
    pub layer: LayerSelector,
}

impl MapRequest {
    /// Parses and range-checks a request body.
    ///
    /// # Errors
    ///
    /// Returns a client-facing message for malformed JSON, a missing or
    /// non-string `model`, and out-of-range `res`/`top`/`objective`.
    pub fn parse(body: &str) -> Result<Self, String> {
        let request = parse_json(body).map_err(|e| format!("bad JSON body: {e}"))?;
        let model = request
            .get("model")
            .and_then(Json::as_str)
            .ok_or("missing string field \"model\"")?
            .to_string();
        let config = request.get("config");
        let field = |key: &str| config.and_then(|c| c.get(key));

        let res = match field("res") {
            Some(v) => {
                let raw = v.as_f64().ok_or("config.res must be a number")?;
                if raw.fract() != 0.0 || raw < f64::from(MIN_RES) || raw > f64::from(MAX_RES) {
                    return Err(format!(
                        "config.res must be an integer in [{MIN_RES}, {MAX_RES}], got {raw}"
                    ));
                }
                raw as u32
            }
            None => 224,
        };
        let top = match field("top") {
            Some(v) => {
                let raw = v.as_f64().ok_or("config.top must be a number")?;
                if raw.fract() != 0.0 || raw < 1.0 || raw > MAX_TOP as f64 {
                    return Err(format!(
                        "config.top must be an integer in [1, {MAX_TOP}], got {raw}"
                    ));
                }
                raw as usize
            }
            None => 3,
        };
        let objective = match field("objective") {
            None => Objective::Energy,
            Some(v) => match v.as_str().ok_or("config.objective must be a string")? {
                "energy" => Objective::Energy,
                "edp" => Objective::Edp,
                "runtime" => Objective::Runtime,
                other => {
                    return Err(format!(
                        "unknown objective `{other}` (energy, edp, or runtime)"
                    ))
                }
            },
        };
        let layer = match field("layer") {
            None => LayerSelector::All,
            Some(Json::Num(n)) => {
                if n.fract() != 0.0 || *n < 0.0 {
                    return Err("config.layer index must be a non-negative integer".into());
                }
                LayerSelector::Index(*n as usize)
            }
            Some(Json::Str(s)) => match s.parse::<usize>() {
                // A numeric string selects by index — the CLI `--layer` rule.
                Ok(idx) => LayerSelector::Index(idx),
                Err(_) => LayerSelector::Name(s.clone()),
            },
            Some(_) => return Err("config.layer must be a name or an index".into()),
        };
        Ok(MapRequest {
            model,
            res,
            top,
            objective,
            layer,
        })
    }

    /// The canonical cache key for this request on `endpoint`. Defaults are
    /// materialized by [`parse`](Self::parse), so bodies differing only in
    /// field order, whitespace, or spelled-out defaults key identically;
    /// any semantic difference lands in a distinct, unambiguous position.
    pub fn cache_key(&self, endpoint: &str) -> String {
        let layer = match &self.layer {
            LayerSelector::All => "*".to_string(),
            LayerSelector::Index(i) => format!("#{i}"),
            LayerSelector::Name(n) => format!("n:{n}"),
        };
        format!(
            "{endpoint}|model={}|res={}|layer={layer}|top={}|objective={}",
            self.model,
            self.res,
            self.top,
            self.objective.label()
        )
    }
}

/// Parses `body` and returns its canonical cache key for `endpoint` — the
/// property-test entry point for key canonicalization.
///
/// # Errors
///
/// Propagates [`MapRequest::parse`] failures.
pub fn cache_key_for(endpoint: &str, body: &str) -> Result<String, String> {
    Ok(MapRequest::parse(body)?.cache_key(endpoint))
}

// ---------------------------------------------------------------------------
// Server plumbing
// ---------------------------------------------------------------------------

/// Process-wide drain flag: set by `POST /quitquitquit` or
/// [`request_shutdown`] (e.g. from a supervisor's signal hook).
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Where a drain connects to wake the acceptor out of its blocking
/// `accept`: the bound address with a wildcard host mapped to loopback.
/// Set at bind time, cleared once the acceptor has returned.
static WAKE_ADDR: Mutex<Option<SocketAddr>> = Mutex::new(None);

/// Asks a running [`serve`] loop to drain and return: stop accepting,
/// finish queued and in-flight requests, flush a final metrics snapshot.
/// Safe to call from any thread: it stores the drain flag, then opens and
/// drops one connection to the listener so the blocked acceptor sees it.
/// (A signal handler should forward to a thread that calls this.)
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::Release);
    let wake = *WAKE_ADDR.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(addr) = wake {
        let _ = TcpStream::connect_timeout(&addr, WAKE_CONNECT_TIMEOUT);
    }
}

/// The address a wake-up connection must dial to reach a listener bound
/// to `bound`: a wildcard host (`0.0.0.0`, `::`) is not connectable, so it
/// becomes the loopback address of the same family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

fn shutting_down() -> bool {
    SHUTDOWN.load(Ordering::Acquire)
}

/// Shared server state: uptime origin, readiness latch, the response
/// cache (None when `--cache-entries 0`), and the request flight recorder.
#[derive(Debug)]
struct ServerState {
    started: Instant,
    warm: AtomicBool,
    cache: Option<ResponseCache>,
    keep_alive_requests: usize,
    recorder: FlightRecorder,
    /// Slow-request log threshold in microseconds (0 logs everything).
    slow_request_us: u64,
}

/// One parsed HTTP response about to be written back.
#[derive(Debug, PartialEq, Eq)]
struct Response {
    status: u16,
    content_type: &'static str,
    /// Shared with the response cache on hits and stores, so the body is
    /// copied only into the outgoing write buffer.
    body: Arc<String>,
    /// 429s advertise when to come back.
    retry_after: Option<u32>,
}

impl Response {
    fn json(status: u16, body: impl Into<Arc<String>>) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
            retry_after: None,
        }
    }

    fn error(status: u16, message: &str) -> Self {
        let mut w = ObjectWriter::new();
        w.str("error", message);
        Self::json(status, w.finish() + "\n")
    }

    fn too_many_requests() -> Self {
        let mut resp = Self::error(429, "server saturated, retry later");
        resp.retry_after = Some(RETRY_AFTER_SECS);
        resp
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Every canonical value the `path` metric label can take: the closed
/// route set, plus `other` (unroutable paths) and `rejected` (connections
/// answered 429 by the acceptor before any request line was read).
pub const CANONICAL_PATHS: &[&str] = &[
    "/metrics",
    "/healthz",
    "/readyz",
    "/map",
    "/explain",
    "/debug/requests",
    "/debug/requests/{id}",
    "/quitquitquit",
    "other",
    "rejected",
];

/// Collapses a request path onto the closed route set so the `path` metric
/// label stays bounded no matter what clients send. Per-trace lookups fold
/// onto `/debug/requests/{id}` — trace IDs are client-controlled strings
/// and must never mint metric series.
fn canonical_path(path: &str) -> &'static str {
    match path {
        "/metrics" => "/metrics",
        "/healthz" => "/healthz",
        "/readyz" => "/readyz",
        "/map" => "/map",
        "/explain" => "/explain",
        "/debug/requests" => "/debug/requests",
        "/quitquitquit" => "/quitquitquit",
        p if p.starts_with("/debug/requests/") => "/debug/requests/{id}",
        // The list accepts `?limit=N`; query strings are client data and
        // fold onto the list label.
        p if p.starts_with("/debug/requests?") => "/debug/requests",
        _ => "other",
    }
}

/// Binds the configured address, prints the `listening on http://<addr>`
/// line (with port 0 resolved), and serves until a drain is requested via
/// `POST /quitquitquit` or [`request_shutdown`] — then stops accepting,
/// finishes in-flight work, flushes a final metrics snapshot, and returns.
///
/// # Errors
///
/// Returns a message if the address cannot be bound; request-level failures
/// become HTTP error responses, never a server exit.
pub fn serve(cfg: &ServeConfig) -> Result<(), String> {
    metrics::enable();
    // Request-scoped tracing is serving-mode-only, like the metrics layer:
    // one-shot CLI runs never pay for the thread-local context.
    trace::enable();
    // Request/cache/queue families render their HELP/TYPE from the very
    // first scrape, before any request has been served.
    let reg = metrics::registry();
    reg.describe(REQUESTS_TOTAL, REQUESTS_HELP, metrics::MetricKind::Counter);
    reg.describe(
        CONNECTIONS_CLOSED,
        CONNECTIONS_CLOSED_HELP,
        metrics::MetricKind::Counter,
    );
    reg.describe(
        REQUEST_SECONDS,
        REQUEST_SECONDS_HELP,
        metrics::MetricKind::Histogram,
    );
    reg.describe(CACHE_HITS, CACHE_HITS_HELP, metrics::MetricKind::Counter);
    reg.describe(
        CACHE_MISSES,
        CACHE_MISSES_HELP,
        metrics::MetricKind::Counter,
    );
    reg.describe(
        CACHE_EVICTIONS,
        CACHE_EVICTIONS_HELP,
        metrics::MetricKind::Counter,
    );
    // Sweep observability families (populated by the dse sweeps when one
    // runs in-process) — described up front so scrapes see HELP/TYPE even
    // on a server that has never swept.
    reg.describe(
        baton_dse::predesign::SWEEP_SECONDS,
        baton_dse::predesign::SWEEP_SECONDS_HELP,
        metrics::MetricKind::Histogram,
    );
    reg.describe(
        baton_dse::predesign::SWEEP_UNIT_SECONDS,
        baton_dse::predesign::SWEEP_UNIT_SECONDS_HELP,
        metrics::MetricKind::Histogram,
    );
    reg.describe(
        baton_dse::predesign::SWEEP_POINTS_PER_SECOND,
        baton_dse::predesign::SWEEP_POINTS_PER_SECOND_HELP,
        metrics::MetricKind::Gauge,
    );
    reg.describe(
        baton_dse::pareto::FRONT_SIZE,
        baton_dse::pareto::FRONT_SIZE_HELP,
        metrics::MetricKind::Gauge,
    );
    metrics::gauge_set(CACHE_ENTRIES, CACHE_ENTRIES_HELP, &[], 0.0);
    metrics::gauge_set(WORKERS_BUSY, WORKERS_BUSY_HELP, &[], 0.0);
    metrics::gauge_set(
        QUEUE_DEPTH_GAUGE,
        QUEUE_DEPTH_HELP,
        &[("queue", "http")],
        0.0,
    );

    let listener =
        TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    // The acceptor blocks in accept(); a drain wakes it by connecting here.
    *WAKE_ADDR.lock().unwrap_or_else(PoisonError::into_inner) = Some(wake_addr(local));
    let state = Arc::new(ServerState {
        started: Instant::now(),
        warm: AtomicBool::new(false),
        cache: (cfg.cache_entries > 0).then(|| ResponseCache::new(cfg.cache_entries)),
        keep_alive_requests: cfg.keep_alive_requests.max(1),
        recorder: FlightRecorder::new(FLIGHT_RECORDER_CAPACITY),
        slow_request_us: cfg.slow_request_ms.saturating_mul(1000),
    });

    // Warm up off the accept path: one tiny search populates the search
    // latency histogram and exercises the whole mapping stack before
    // /readyz reports ready.
    {
        let state = Arc::clone(&state);
        std::thread::spawn(move || {
            warmup();
            state.warm.store(true, Ordering::Release);
            vlog!(1, "serve: warmup finished, ready");
        });
    }

    // The line the e2e test (and any supervisor) parses for the bound port;
    // flush explicitly because stdout is block-buffered when piped.
    println!("listening on http://{local}");
    let _ = std::io::stdout().flush();

    let workers = baton_parallel::threads().clamp(1, 8);
    vlog!(
        1,
        "serve: {workers} worker threads on {local}, cache {} entries, queue depth {}, {} requests/connection",
        cfg.cache_entries,
        cfg.queue_depth,
        state.keep_alive_requests
    );
    let queue: Arc<BoundedQueue<Handoff<TcpStream>>> =
        Arc::new(BoundedQueue::new(cfg.queue_depth, "http"));
    let mut handles = Vec::with_capacity(workers);
    for _ in 0..workers {
        let queue = Arc::clone(&queue);
        let state = Arc::clone(&state);
        handles.push(std::thread::spawn(move || worker_loop(&queue, &state)));
    }

    accept_loop(&listener, &queue);

    // Drain: refuse new connects immediately, let queued + in-flight
    // requests finish, then flush the final snapshot.
    *WAKE_ADDR.lock().unwrap_or_else(PoisonError::into_inner) = None;
    drop(listener);
    queue.close();
    for h in handles {
        let _ = h.join();
    }
    final_snapshot(&state);
    Ok(())
}

/// Accepts connections and hands them to the worker queue until a drain is
/// requested, answering 429 the moment the queue is full — the acceptor
/// never reads from a socket, so a slow client cannot stall admission.
///
/// `accept` blocks; [`request_shutdown`] wakes it with a throwaway
/// connection, which is dropped here unqueued once the flag is seen.
fn accept_loop(listener: &TcpListener, queue: &BoundedQueue<Handoff<TcpStream>>) {
    while !shutting_down() {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) => {
                vlog!(2, "serve: accept error: {e}");
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
                continue;
            }
        };
        if shutting_down() {
            return;
        }
        // Responses go out in one write each; without this, anything past
        // the first segment would wait for the peer's delayed ACK.
        let _ = stream.set_nodelay(true);
        // The hand-off stamps the enqueue instant, so the worker can
        // attribute queue wait to the request's trace.
        match queue.push(Handoff::new(stream)) {
            Ok(()) => {}
            Err(PushError::Full(handoff)) => reject_saturated(handoff.into_parts().0),
            // Raced with drain: the listener is about to close.
            Err(PushError::Closed(_)) => return,
        }
    }
}

/// Answers 429 + `Retry-After` on a connection the queue refused. Counted
/// under the bounded `rejected` path label (no request line was read — the
/// acceptor must never block on client input).
fn reject_saturated(stream: TcpStream) {
    let t0 = Instant::now();
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut stream = stream;
    let _ = write_response(&mut stream, &Response::too_many_requests(), false, None);
    record_request("rejected", 429, t0.elapsed());
}

/// One worker: pull connections off the queue until it closes and drains.
fn worker_loop(queue: &BoundedQueue<Handoff<TcpStream>>, state: &ServerState) {
    while let Some(handoff) = queue.pop() {
        let (stream, _acceptor_trace, enqueued) = handoff.into_parts();
        metrics::gauge_add(WORKERS_BUSY, WORKERS_BUSY_HELP, &[], 1.0);
        if let Err(e) = handle_connection(stream, state, enqueued) {
            // A deadline (read/write timeout) surfaces as WouldBlock or
            // TimedOut depending on the platform; both mean the server
            // closed on a stalled peer.
            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                close_cause("deadline");
            }
            vlog!(2, "serve: connection error: {e}");
        }
        metrics::gauge_add(WORKERS_BUSY, WORKERS_BUSY_HELP, &[], -1.0);
    }
}

/// Counts one server-initiated keep-alive connection close under its
/// bounded `cause` label (`limit`, `deadline`, `framing`, `drain`).
/// Client-requested closes (`Connection: close`) are not counted — the
/// family exists to explain closes the *server* decided on.
fn close_cause(cause: &'static str) {
    metrics::counter_add(
        CONNECTIONS_CLOSED,
        CONNECTIONS_CLOSED_HELP,
        &[("cause", cause)],
        1,
    );
}

/// Serves one connection: up to `keep_alive_requests` requests back to
/// back, each under the read/write deadlines. Returns on clean EOF, on
/// `Connection: close`, at the request limit, when a drain begins, or
/// after any framing error (malformed or oversized head, untrustworthy
/// `Content-Length`, short body) — those close because request
/// boundaries can no longer be trusted.
///
/// Every request runs under its own trace context: the first request's
/// epoch is `enqueued` (so `queue_wait` is inside its window); later
/// keep-alive requests start when their request line arrives, excluding
/// client idle time. The sealed trace lands in the flight recorder after
/// the response is written, so a client can immediately fetch its own
/// trace via the `X-Baton-Trace-Id` it was handed.
fn handle_connection(
    stream: TcpStream,
    state: &ServerState,
    enqueued: Instant,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);

    for served in 1..=state.keep_alive_requests {
        // The first request was already waiting when the worker popped it:
        // its trace spans the queue wait. Created before the request-line
        // read so the wait is measured at pickup, not after the line.
        let mut pending = (served == 1).then(|| {
            let t = TraceHandle::start_at(enqueued);
            t.record_between("queue_wait", enqueued, Instant::now());
            t
        });
        let t0 = Instant::now();
        let request_line = match read_head_line(&mut reader)? {
            // Clean EOF between requests: the client is done.
            HeadLine::Eof => return Ok(()),
            HeadLine::TooLong => None,
            HeadLine::Line(line) => Some(line),
        };
        let mut parts = request_line.as_deref().unwrap_or("").split_whitespace();
        let method = parts.next().unwrap_or("").to_string();
        let path = parts.next().unwrap_or("").to_string();

        let trace = pending.take().unwrap_or_else(TraceHandle::start);
        let trace_ctx = trace.install();

        // Parse phase: headers and body, under one root span.
        let request = {
            let _parse_span = span("parse");
            match request_line {
                None => Err(Response::error(400, "request line too long")),
                Some(_) => read_request(&mut reader, &method, &path)?,
            }
        };
        let (response, framing_ok, client_close) = match request {
            Ok(request) => (
                guarded(&method, &path, &request.body, state),
                true,
                request.client_close,
            ),
            Err(refusal) => (refusal, false, false),
        };

        let keep_alive =
            framing_ok && !client_close && served < state.keep_alive_requests && !shutting_down();
        if !keep_alive {
            // Server-initiated closes, by precedence; a close the client
            // itself asked for is not the server's doing and not counted.
            let cause = if !framing_ok {
                Some("framing")
            } else if shutting_down() {
                Some("drain")
            } else if served >= state.keep_alive_requests {
                Some("limit")
            } else {
                None
            };
            if let Some(cause) = cause {
                close_cause(cause);
            }
        }

        // Every response — early-exit 400/413s included — lands in the
        // request metrics under a bounded path label ("" canonicalizes to
        // "other").
        let canonical = canonical_path(&path);
        record_request(canonical, response.status, t0.elapsed());
        let trace_id = trace.id_string();
        {
            let _render_span = span("render");
            write_response(&mut writer, &response, keep_alive, Some(&trace_id))?;
        }
        drop(trace_ctx);
        let completed = Arc::new(trace.finish(&request_op(&method, &path), response.status));
        state.recorder.record(Arc::clone(&completed));
        log_slow_request(state, &completed);
        vlog!(
            2,
            "serve: {} {} -> {} in {}us trace={trace_id}",
            method,
            path,
            response.status,
            completed.total_us
        );
        if !keep_alive {
            return Ok(());
        }
    }
    Ok(())
}

/// One line of a request head, read under [`MAX_HEAD_LINE_BYTES`].
enum HeadLine {
    /// The peer closed before sending another byte.
    Eof,
    /// A whole line (or the tail before EOF), decoded lossily.
    Line(String),
    /// The cap was reached without a line end; the rest stays unread.
    TooLong,
}

fn read_head_line<R: BufRead>(reader: &mut R) -> std::io::Result<HeadLine> {
    let mut line = Vec::new();
    reader
        .by_ref()
        .take(MAX_HEAD_LINE_BYTES as u64)
        .read_until(b'\n', &mut line)?;
    Ok(if line.is_empty() {
        HeadLine::Eof
    } else if line.len() == MAX_HEAD_LINE_BYTES && line.last() != Some(&b'\n') {
        HeadLine::TooLong
    } else {
        HeadLine::Line(
            String::from_utf8(line)
                .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()),
        )
    })
}

/// The part of a well-framed request the handlers and the connection
/// loop need.
#[derive(Debug)]
struct Request {
    body: String,
    /// The client sent `Connection: close`.
    client_close: bool,
}

/// Reads the rest of a request after its request line: the header lines up
/// to the blank line, then exactly `Content-Length` body bytes. `Err`
/// carries the response for a request whose boundaries cannot be trusted —
/// the caller sends it and closes. The head is read to its end even when
/// refused, so the refusal is not cut off by unread header bytes.
fn read_request<R: BufRead>(
    reader: &mut R,
    method: &str,
    path: &str,
) -> std::io::Result<Result<Request, Response>> {
    let mut content_length: Option<usize> = None;
    let mut client_close = false;
    let mut refusal = None;
    let mut headers = 0;
    loop {
        let line = match read_head_line(reader)? {
            HeadLine::Eof => break,
            HeadLine::TooLong => {
                return Ok(Err(Response::error(431, "request header line too long")))
            }
            HeadLine::Line(line) => line,
        };
        let header = line.trim();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Ok(Err(Response::error(431, "too many request headers")));
        }
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            match (parse_content_length(value), content_length) {
                (None, _) => {
                    refusal.get_or_insert_with(|| Response::error(400, "malformed Content-Length"));
                }
                (Some(n), Some(seen)) if n != seen => {
                    refusal.get_or_insert_with(|| {
                        Response::error(400, "conflicting Content-Length headers")
                    });
                }
                (Some(n), _) => content_length = Some(n),
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            refusal.get_or_insert_with(|| {
                Response::error(
                    400,
                    "Transfer-Encoding is not supported; send Content-Length",
                )
            });
        } else if name.eq_ignore_ascii_case("connection") {
            client_close = value.eq_ignore_ascii_case("close");
        }
    }
    if method.is_empty() || path.is_empty() {
        return Ok(Err(Response::error(400, "malformed request line")));
    }
    if let Some(refusal) = refusal {
        return Ok(Err(refusal));
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Ok(Err(Response::error(413, "request body too large")));
    }
    let mut body = vec![0u8; content_length];
    if reader.read_exact(&mut body).is_err() {
        return Ok(Err(Response::error(
            400,
            "request body shorter than Content-Length",
        )));
    }
    Ok(Ok(Request {
        body: String::from_utf8_lossy(&body).into_owned(),
        client_close,
    }))
}

/// A `Content-Length` value: one or more ASCII digits that fit a `usize`.
fn parse_content_length(value: &str) -> Option<usize> {
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    value.parse().ok()
}

/// The `method path` string a flight-recorder entry reports, truncated on
/// a char boundary to [`MAX_OP_BYTES`].
fn request_op(method: &str, path: &str) -> String {
    let mut op = format!("{method} {path}");
    if op.len() > MAX_OP_BYTES {
        let mut cut = MAX_OP_BYTES;
        while !op.is_char_boundary(cut) {
            cut -= 1;
        }
        op.truncate(cut);
    }
    op
}

/// Emits the structured slow-request line when `completed` reached the
/// configured threshold: one flat JSON object on stderr with the trace ID
/// and the per-phase breakdown, greppable and machine-parseable.
fn log_slow_request(state: &ServerState, completed: &CompletedTrace) {
    if completed.total_us < state.slow_request_us {
        return;
    }
    let mut w = ObjectWriter::new();
    w.str("event", "slow_request")
        .str("trace_id", &completed.trace_id)
        .str("op", &completed.op)
        .u64("status", u64::from(completed.status))
        .u64("total_us", completed.total_us)
        .u64("queue_wait_us", completed.phase_us("queue_wait"))
        .u64("parse_us", completed.phase_us("parse"))
        .u64("cache_us", completed.phase_us("cache"))
        .u64("search_us", completed.phase_us("search"))
        .u64("render_us", completed.phase_us("render"));
    eprintln!("{}", w.finish());
}

/// Writes status line, headers (including `Retry-After`, the request's
/// `X-Baton-Trace-Id`, and the keep-alive/close decision), and body as one
/// buffer in one `write_all`: a head sent on its own would hold the body
/// back until the peer acknowledged it.
fn write_response<W: Write>(
    writer: &mut W,
    response: &Response,
    keep_alive: bool,
    trace_id: Option<&str>,
) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(HEAD_CAPACITY + response.body.len());
    write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        response.status,
        status_text(response.status),
        response.content_type,
        response.body.len(),
    )?;
    if let Some(secs) = response.retry_after {
        write!(out, "Retry-After: {secs}\r\n")?;
    }
    if let Some(id) = trace_id {
        write!(out, "X-Baton-Trace-Id: {id}\r\n")?;
    }
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(out, "Connection: {connection}\r\n\r\n")?;
    out.extend_from_slice(response.body.as_bytes());
    writer.write_all(&out)?;
    writer.flush()
}

/// Runs one search over a statically-known tiny model, so readiness implies
/// the whole model→candidates→search→evaluate stack works in this process.
fn warmup() {
    let model = parse_model("model warmup @32\nconv name=w in=32x32x8 k=3 s=1 p=1 co=16\n")
        .expect("static warmup model parses");
    let arch = presets::case_study_accelerator();
    let tech = Technology::paper_16nm();
    for layer in model.layers() {
        let _ = baton_c3p::search_layer(layer, &arch, &tech, Objective::Energy);
    }
}

fn record_request(canonical: &'static str, status: u16, elapsed: Duration) {
    let code = status.to_string();
    metrics::counter_add(
        REQUESTS_TOTAL,
        REQUESTS_HELP,
        &[("code", code.as_str()), ("path", canonical)],
        1,
    );
    metrics::observe_duration(
        REQUEST_SECONDS,
        REQUEST_SECONDS_HELP,
        &[("path", canonical)],
        elapsed,
    );
}

/// Prints the end-of-drain summary (stdout, one line a supervisor can log)
/// and, at `-v`, the full exposition to stderr — the final state of every
/// series before the process exits.
fn final_snapshot(state: &ServerState) {
    let snapshot = metrics::registry().snapshot();
    let total: u64 = snapshot
        .iter()
        .filter(|f| f.name == REQUESTS_TOTAL)
        .flat_map(|f| &f.series)
        .map(|(_, v)| match v {
            metrics::SeriesValue::Counter(c) => *c,
            _ => 0,
        })
        .sum();
    let counter = |name: &str| -> u64 {
        snapshot
            .iter()
            .find(|f| f.name == name)
            .and_then(|f| f.series.first())
            .map(|(_, v)| match v {
                metrics::SeriesValue::Counter(c) => *c,
                _ => 0,
            })
            .unwrap_or(0)
    };
    println!(
        "drained: {total} requests served, cache {} hits / {} misses / {} evictions ({} entries)",
        counter(CACHE_HITS),
        counter(CACHE_MISSES),
        counter(CACHE_EVICTIONS),
        state.cache.as_ref().map_or(0, ResponseCache::len),
    );
    let _ = std::io::stdout().flush();
    vlog!(
        1,
        "final metrics snapshot:\n{}",
        expo::render(env!("CARGO_PKG_VERSION"))
    );
}

/// Runs [`dispatch`] behind a panic guard: input validation should refuse
/// anything the model/search stack would assert on, but if a handler does
/// panic the worker thread must survive and the client must get a 500 —
/// never a silently dead accept thread.
fn guarded(method: &str, path: &str, body: &str, state: &ServerState) -> Response {
    catch_panic(|| dispatch(method, path, body, state)).unwrap_or_else(|| {
        vlog!(1, "serve: handler panicked on {method} {path}");
        Response::error(500, "internal error: request handler panicked")
    })
}

/// [`catch_unwind`] with the result flattened to an `Option`.
fn catch_panic<F: FnOnce() -> Response>(f: F) -> Option<Response> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

fn dispatch(method: &str, path: &str, body: &str, state: &ServerState) -> Response {
    if path == "/debug/requests"
        || path.starts_with("/debug/requests/")
        || path.starts_with("/debug/requests?")
    {
        return handle_debug_requests(method, path, state);
    }
    match (method, path) {
        ("GET", "/metrics") => Response {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: expo::render(env!("CARGO_PKG_VERSION")).into(),
            retry_after: None,
        },
        ("GET", "/healthz") => {
            let mut w = ObjectWriter::new();
            w.str("status", "ok");
            Response::json(200, w.finish() + "\n")
        }
        ("GET", "/readyz") => {
            // Readiness gates routing: not ready until warm, and not ready
            // again once a drain begins — a balancer must stop sending
            // traffic to a server that is about to stop accepting.
            let warm = state.warm.load(Ordering::Acquire);
            let (status, label) = if shutting_down() {
                (503, "draining")
            } else if warm {
                (200, "ok")
            } else {
                (503, "starting")
            };
            let mut w = ObjectWriter::new();
            w.str("status", label)
                .str("version", env!("CARGO_PKG_VERSION"))
                .f64("uptime_seconds", state.started.elapsed().as_secs_f64())
                .u64("threads", baton_parallel::threads() as u64);
            Response::json(status, w.finish() + "\n")
        }
        ("POST", "/map") => handle_map("/map", body, state),
        ("POST", "/explain") => handle_map("/explain", body, state),
        ("POST", "/quitquitquit") => {
            vlog!(1, "serve: drain requested via /quitquitquit");
            request_shutdown();
            let mut w = ObjectWriter::new();
            w.str("status", "draining");
            Response::json(200, w.finish() + "\n")
        }
        (_, "/metrics" | "/healthz" | "/readyz") => Response::error(405, "use GET"),
        (_, "/map" | "/explain" | "/quitquitquit") => Response::error(405, "use POST"),
        _ => Response::error(404, "no such route"),
    }
}

/// How many list entries a single `?limit=` may request.
const DEBUG_REQUESTS_MAX_LIMIT: usize = 128;

/// Parses the flight-recorder list query: empty means "the whole ring",
/// `limit=N` with N in 1..=128 truncates to the newest N. Anything else —
/// unknown keys, non-numeric or out-of-range values — is a 400, not a
/// silent full listing.
fn parse_debug_requests_limit(query: &str) -> Result<Option<usize>, String> {
    if query.is_empty() {
        return Ok(None);
    }
    let Some(value) = query.strip_prefix("limit=") else {
        return Err(format!("unknown query `{query}` (try ?limit=N)"));
    };
    match value.parse::<usize>() {
        Ok(n) if (1..=DEBUG_REQUESTS_MAX_LIMIT).contains(&n) => Ok(Some(n)),
        _ => Err(format!(
            "limit must be an integer in 1..={DEBUG_REQUESTS_MAX_LIMIT}, got `{value}`"
        )),
    }
}

/// `GET /debug/requests[?limit=N][/<trace-id>[?format=perfetto]]`: the
/// flight recorder surface. The list answers recent requests newest-first
/// with their timing breakdowns (`?limit=N` keeps only the newest N so
/// dashboards can poll a small tail); a trace-ID lookup answers the full
/// span tree, or — with `?format=perfetto` — a `chrome://tracing` /
/// Perfetto file for that one request.
fn handle_debug_requests(method: &str, path: &str, state: &ServerState) -> Response {
    if method != "GET" {
        return Response::error(405, "use GET");
    }
    let Some(rest) = path.strip_prefix("/debug/requests") else {
        return Response::error(404, "no such route");
    };
    if rest.is_empty() || rest.starts_with('?') {
        let query = rest.strip_prefix('?').unwrap_or("");
        let limit = match parse_debug_requests_limit(query) {
            Ok(limit) => limit,
            Err(message) => return Response::error(400, &message),
        };
        let mut recent = state.recorder.recent();
        if let Some(limit) = limit {
            recent.truncate(limit);
        }
        let mut body = format!(
            "{{\"capacity\":{},\"count\":{},\"requests\":[",
            state.recorder.capacity(),
            recent.len()
        );
        for (i, t) in recent.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&trace_summary(t));
        }
        body.push_str("]}\n");
        return Response::json(200, body);
    }
    let rest = &rest[1..]; // strip the '/' the route match guaranteed
    let (id, query) = match rest.split_once('?') {
        Some((id, query)) => (id, Some(query)),
        None => (rest, None),
    };
    let Some(trace) = state.recorder.find(id) else {
        return Response::error(
            404,
            "no such trace (the flight recorder keeps the most recent requests only)",
        );
    };
    match query {
        None | Some("") => Response::json(200, render_trace_detail(&trace)),
        Some("format=perfetto") => {
            let mut perfetto = PerfettoTrace::new();
            perfetto.add_request(&trace);
            Response::json(200, perfetto.to_json())
        }
        Some(other) => Response::error(
            400,
            &format!("unknown query `{other}` (try ?format=perfetto)"),
        ),
    }
}

/// One flight-recorder list entry: identity, outcome, and the root-phase
/// timing breakdown — flat JSON, so it round-trips through
/// [`baton_telemetry::json::parse_flat_object`].
fn trace_summary(t: &CompletedTrace) -> String {
    let mut w = ObjectWriter::new();
    w.str("trace_id", &t.trace_id)
        .str("op", &t.op)
        .u64("status", u64::from(t.status))
        .u64("unix_ms", t.unix_ms)
        .u64("total_us", t.total_us)
        .u64("queue_wait_us", t.phase_us("queue_wait"))
        .u64("parse_us", t.phase_us("parse"))
        .u64("cache_us", t.phase_us("cache"))
        .u64("search_us", t.phase_us("search"))
        .u64("render_us", t.phase_us("render"))
        .u64("spans", t.spans.len() as u64)
        .u64("dropped_spans", t.dropped_spans);
    w.finish()
}

/// The full span tree of one trace: the summary fields plus a `spans`
/// array in (start, id) order — parents always precede their children, so
/// a client can rebuild the tree in one pass.
fn render_trace_detail(t: &CompletedTrace) -> String {
    let mut out = trace_summary(t);
    out.pop(); // reopen the summary object to append the spans array
    out.push_str(",\"spans\":[");
    for (i, s) in t.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut w = ObjectWriter::new();
        w.u64("id", u64::from(s.id))
            .u64("parent", u64::from(s.parent))
            .str("name", s.name);
        if let Some(label) = &s.label {
            w.str("label", label);
        }
        w.u64("start_us", s.start_us)
            .u64("dur_us", s.dur_us)
            .i64("net_allocs", s.net_allocs)
            .i64("net_bytes", s.net_bytes);
        out.push_str(&w.finish());
    }
    out.push_str("]}\n");
    out
}

/// `/map` and `/explain`: parse + validate, consult the response cache,
/// and only on a miss run the search and cache the rendered bytes — a hit
/// returns the stored response verbatim without touching the search stack
/// (`baton_search_duration_seconds` does not advance on hits).
fn handle_map(endpoint: &'static str, body: &str, state: &ServerState) -> Response {
    let request = match MapRequest::parse(body) {
        Ok(r) => r,
        Err(message) => return Response::error(400, &message),
    };
    // Unknown models are refused before the cache, so hostile names can
    // neither mint cache keys nor count as misses.
    if !is_zoo_name(&request.model) {
        return match zoo_model(&request.model, request.res) {
            Err(message) => Response::error(400, &message),
            Ok(_) => unreachable!("non-zoo name cannot build"),
        };
    }
    let key = request.cache_key(endpoint);
    if let Some(cache) = &state.cache {
        let cached = {
            let _cache_span = span("cache");
            cache.get(&key)
        };
        if let Some(cached) = cached {
            return Response::json(200, cached);
        }
    }
    let result = {
        // The whole model→candidates→search→render stack; per-layer
        // `search_layer` spans (and their workers) nest under this one.
        let _search_span = span("search");
        run_map_request(&request)
    };
    match result {
        Ok(json) => {
            let json = Arc::new(json);
            if let Some(cache) = &state.cache {
                let _cache_span = span("cache");
                cache.insert(key, Arc::clone(&json));
            }
            Response::json(200, json)
        }
        Err(message) => Response::error(400, &message),
    }
}

/// Handles a parsed `/map` / `/explain` request: the same layer selection,
/// defaults, and JSON rendering as `baton explain --format json`, so the
/// two surfaces can be diffed byte for byte.
///
/// # Errors
///
/// Returns a client-facing message for unknown models/layers and search
/// failures.
pub fn run_map_request(request: &MapRequest) -> Result<String, String> {
    let model = zoo_model(&request.model, request.res)?;
    let layers = select_layers(&model, &request.layer)?;
    let arch = presets::case_study_accelerator();
    let tech = Technology::paper_16nm();
    let mut out = String::new();
    for layer in layers {
        let explanation = explain_layer(layer, &arch, &tech, request.objective, request.top)
            .map_err(|e| e.to_string())?;
        out.push_str(&explanation.render(Format::Json));
    }
    Ok(out)
}

/// Parses and runs a request body in one step — the original one-shot
/// entry point, kept for tests and embedding (no cache involved).
///
/// # Errors
///
/// Propagates parse and search failures as client-facing messages.
pub fn map_request(body: &str) -> Result<String, String> {
    run_map_request(&MapRequest::parse(body)?)
}

/// Resolves a [`LayerSelector`] against a model — the CLI `--layer` rules.
fn select_layers<'m>(
    model: &'m Model,
    selector: &LayerSelector,
) -> Result<Vec<&'m ConvSpec>, String> {
    let by_index = |idx: usize| {
        model.layers().get(idx).ok_or_else(|| {
            format!(
                "config.layer {idx} out of range ({} has {} layers)",
                model.name(),
                model.layers().len()
            )
        })
    };
    match selector {
        LayerSelector::All => Ok(model.layers().iter().collect()),
        LayerSelector::Index(idx) => Ok(vec![by_index(*idx)?]),
        LayerSelector::Name(name) => Ok(vec![model.layer(name).ok_or_else(|| {
            format!(
                "no layer `{name}` in {} (use a name or an index)",
                model.name()
            )
        })?]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_state(warm: bool) -> ServerState {
        ServerState {
            started: Instant::now(),
            warm: AtomicBool::new(warm),
            cache: Some(ResponseCache::new(16)),
            keep_alive_requests: 100,
            recorder: FlightRecorder::new(8),
            slow_request_us: u64::MAX,
        }
    }

    fn tiny_model_file() -> String {
        let path = std::env::temp_dir().join("baton_serve_unit_tiny.baton");
        std::fs::write(
            &path,
            "model tiny @32\nconv name=only in=32x32x8 k=3 s=1 p=1 co=16\n",
        )
        .unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn health_and_readiness_track_the_warm_latch() {
        let cold = test_state(false);
        let ok = dispatch("GET", "/healthz", "", &cold);
        assert_eq!(ok.status, 200);
        assert!(ok.body.contains("\"status\":\"ok\""));

        let not_ready = dispatch("GET", "/readyz", "", &cold);
        assert_eq!(not_ready.status, 503);
        assert!(not_ready.body.contains("\"status\":\"starting\""));

        let ready = dispatch("GET", "/readyz", "", &test_state(true));
        assert_eq!(ready.status, 200);
        assert!(ready.body.contains("\"status\":\"ok\""));
        assert!(ready.body.contains("\"version\":"));
        assert!(ready.body.contains("\"uptime_seconds\":"));
        assert!(ready.body.contains("\"threads\":"));
    }

    #[test]
    fn unknown_routes_and_wrong_methods_are_refused() {
        let state = test_state(true);
        assert_eq!(dispatch("GET", "/nope", "", &state).status, 404);
        assert_eq!(dispatch("POST", "/metrics", "", &state).status, 405);
        assert_eq!(dispatch("GET", "/map", "", &state).status, 405);
        assert_eq!(dispatch("GET", "/quitquitquit", "", &state).status, 405);
    }

    /// Every route labels itself (never folding into `other`), every
    /// non-route folds into `other`, and the canonical label set is
    /// exactly [`CANONICAL_PATHS`] — the request-counter cardinality
    /// contract.
    #[test]
    fn canonical_path_labels_every_route_and_bounds_the_rest() {
        let routes = [
            "/metrics",
            "/healthz",
            "/readyz",
            "/map",
            "/explain",
            "/debug/requests",
            "/quitquitquit",
        ];
        for route in routes {
            assert_eq!(canonical_path(route), route, "route must label itself");
            assert!(CANONICAL_PATHS.contains(&canonical_path(route)));
        }
        // Per-trace lookups collapse onto one label: trace IDs are client
        // data and must never mint series.
        for lookup in [
            "/debug/requests/0011223344556677",
            "/debug/requests/anything?format=perfetto",
            "/debug/requests/",
        ] {
            assert_eq!(canonical_path(lookup), "/debug/requests/{id}");
        }
        // List queries fold onto the list label — `limit` values are
        // client data and must not mint series either.
        for listing in ["/debug/requests?limit=5", "/debug/requests?junk"] {
            assert_eq!(canonical_path(listing), "/debug/requests");
        }
        for junk in [
            "",
            "/",
            "/map/",
            "/map?x=1",
            "/MAP",
            "/metrics/../etc/passwd",
            "/anything/else",
            "/quitquitquit2",
            "/debug/requestsfoo",
            "/debug",
        ] {
            assert_eq!(canonical_path(junk), "other", "{junk:?} must fold");
        }
        // The label set is closed: routes + the trace-lookup collapse +
        // other + rejected, nothing else.
        assert_eq!(CANONICAL_PATHS.len(), routes.len() + 3);
        assert!(CANONICAL_PATHS.contains(&"/debug/requests/{id}"));
        assert!(CANONICAL_PATHS.contains(&"other"));
        assert!(CANONICAL_PATHS.contains(&"rejected"));
    }

    #[test]
    fn metrics_endpoint_serves_the_exposition() {
        let state = test_state(true);
        let resp = dispatch("GET", "/metrics", "", &state);
        assert_eq!(resp.status, 200);
        assert!(resp.content_type.starts_with("text/plain; version=0.0.4"));
        assert!(resp.body.contains("# TYPE baton_evaluations_total counter"));
        assert!(resp.body.contains("baton_build_info{profile="));
    }

    #[test]
    fn quitquitquit_sets_the_drain_flag_and_unreadies_the_server() {
        // Restore the flag afterwards: other tests in this process must
        // not observe a draining server.
        let state = test_state(true);
        let resp = dispatch("POST", "/quitquitquit", "", &state);
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"status\":\"draining\""));
        assert!(shutting_down());
        // A draining server is warm but must not be ready: balancers stop
        // routing to it before the listener goes away.
        let ready = dispatch("GET", "/readyz", "", &state);
        assert_eq!(ready.status, 503);
        assert!(
            ready.body.contains("\"status\":\"draining\""),
            "{}",
            ready.body
        );
        SHUTDOWN.store(false, Ordering::Release);
    }

    #[test]
    fn debug_requests_lists_the_flight_recorder_newest_first() {
        let state = test_state(true);
        for (op, status) in [("GET /healthz", 200), ("POST /map", 400)] {
            let t = TraceHandle::start();
            {
                let _ctx = t.install();
                drop(span("parse"));
            }
            state.recorder.record(Arc::new(t.finish(op, status)));
        }
        let resp = dispatch("GET", "/debug/requests", "", &state);
        assert_eq!(resp.status, 200);
        assert!(resp
            .body
            .starts_with("{\"capacity\":8,\"count\":2,\"requests\":["));
        // Newest first: the /map entry precedes the /healthz one.
        let map_at = resp.body.find("POST /map").unwrap();
        let health_at = resp.body.find("GET /healthz").unwrap();
        assert!(map_at < health_at, "{}", resp.body);
        assert!(resp.body.contains("\"parse_us\":"));
        assert!(resp.body.contains("\"spans\":1"));
    }

    #[test]
    fn debug_requests_limit_truncates_to_the_newest_entries() {
        let state = test_state(true);
        for op in ["GET /a", "GET /b", "GET /c"] {
            let t = TraceHandle::start();
            state.recorder.record(Arc::new(t.finish(op, 200)));
        }
        let resp = dispatch("GET", "/debug/requests?limit=2", "", &state);
        assert_eq!(resp.status, 200);
        assert!(
            resp.body.contains("\"count\":2"),
            "limit bounds the listing: {}",
            resp.body
        );
        assert!(resp.body.contains("GET /c"), "newest kept");
        assert!(resp.body.contains("GET /b"));
        assert!(!resp.body.contains("GET /a"), "oldest truncated");
        // A limit past the retained count is not an error.
        let all = dispatch("GET", "/debug/requests?limit=128", "", &state);
        assert_eq!(all.status, 200);
        assert!(all.body.contains("\"count\":3"));
    }

    #[test]
    fn debug_requests_limit_rejects_malformed_queries() {
        let state = test_state(true);
        for bad in [
            "/debug/requests?limit=0",
            "/debug/requests?limit=129",
            "/debug/requests?limit=abc",
            "/debug/requests?limit=-1",
            "/debug/requests?limit=",
            "/debug/requests?size=5",
        ] {
            let resp = dispatch("GET", bad, "", &state);
            assert_eq!(resp.status, 400, "{bad} must answer 400: {}", resp.body);
        }
        // A bare `?` is an empty query: same as no query at all.
        assert_eq!(dispatch("GET", "/debug/requests?", "", &state).status, 200);
        assert_eq!(parse_debug_requests_limit(""), Ok(None));
        assert_eq!(parse_debug_requests_limit("limit=1"), Ok(Some(1)));
        assert_eq!(parse_debug_requests_limit("limit=128"), Ok(Some(128)));
    }

    #[test]
    fn debug_request_lookup_answers_the_span_tree_and_perfetto() {
        baton_telemetry::trace::enable();
        let state = test_state(true);
        let t = TraceHandle::start();
        {
            let _ctx = t.install();
            let _outer = span("search");
            drop(baton_telemetry::span_labeled("search_layer", || {
                "conv\\1 \"q\"".into()
            }));
        }
        let completed = Arc::new(t.finish("POST /map", 200));
        let id = completed.trace_id.clone();
        state.recorder.record(completed);

        let resp = dispatch("GET", &format!("/debug/requests/{id}"), "", &state);
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains(&format!("\"trace_id\":\"{id}\"")));
        assert!(resp.body.contains("\"name\":\"search\""));
        assert!(resp.body.contains("\"name\":\"search_layer\""));
        // Hostile label bytes stay escaped; the detail line parses as JSON
        // span objects (flat per span).
        assert!(resp.body.contains("conv\\\\1 \\\"q\\\""), "{}", resp.body);
        // The child's parent is the search span's id.
        let search_layer_obj = resp
            .body
            .split('{')
            .find(|s| s.contains("\"name\":\"search_layer\""))
            .unwrap();
        assert!(
            search_layer_obj.contains("\"parent\":1"),
            "{search_layer_obj}"
        );
        // Every span carries its allocation delta (zero here: the test
        // binary does not install the counting allocator).
        assert!(
            search_layer_obj.contains("\"net_allocs\":0")
                && search_layer_obj.contains("\"net_bytes\":0"),
            "{search_layer_obj}"
        );

        let perfetto = dispatch(
            "GET",
            &format!("/debug/requests/{id}?format=perfetto"),
            "",
            &state,
        );
        assert_eq!(perfetto.status, 200);
        let stats = baton_report::perfetto::validate(&perfetto.body).expect("valid trace file");
        assert!(stats.events >= 3, "root + 2 spans, got {}", stats.events);

        // Unknown IDs, bad queries, wrong methods.
        assert_eq!(
            dispatch("GET", "/debug/requests/ffff", "", &state).status,
            404
        );
        assert_eq!(
            dispatch(
                "GET",
                &format!("/debug/requests/{id}?format=xml"),
                "",
                &state
            )
            .status,
            400
        );
        assert_eq!(dispatch("POST", "/debug/requests", "", &state).status, 405);
    }

    #[test]
    fn map_request_matches_the_offline_explain_path() {
        // Zoo model at the smallest accepted resolution, one layer, so the
        // unit test's search stays tiny even in debug builds.
        let body = "{\"model\": \"alexnet\", \"config\": {\"res\": 32, \"layer\": 0}}";
        let served = map_request(body).unwrap();

        // The offline path: same model, layer, JSON format, defaults.
        let model = zoo_model("alexnet", 32).unwrap();
        let arch = presets::case_study_accelerator();
        let tech = Technology::paper_16nm();
        let offline = explain_layer(&model.layers()[0], &arch, &tech, Objective::Energy, 3)
            .unwrap()
            .render(Format::Json);
        assert_eq!(served, offline);
        assert!(served.contains("\"layer\":\"conv1\""));
    }

    #[test]
    fn map_request_rejects_bad_bodies_with_reasons() {
        assert!(map_request("{oops").unwrap_err().contains("bad JSON body"));
        assert!(map_request("{\"config\": {}}")
            .unwrap_err()
            .contains("missing string field \"model\""));
        assert!(map_request("{\"model\": \"not-a-model\"}")
            .unwrap_err()
            .contains("unknown model"));
        assert!(map_request(
            "{\"model\": \"alexnet\", \"config\": {\"res\": 32, \"objective\": \"speed\"}}"
        )
        .unwrap_err()
        .contains("unknown objective"));
        assert!(
            map_request("{\"model\": \"alexnet\", \"config\": {\"res\": 32, \"layer\": 99}}")
                .unwrap_err()
                .contains("out of range")
        );
    }

    #[test]
    fn map_request_refuses_file_paths_over_http() {
        // The CLI resolves .baton paths; the HTTP surface must not, so
        // remote clients cannot probe the server's filesystem.
        let path = tiny_model_file();
        let body = format!("{{\"model\": \"{path}\", \"config\": {{\"res\": 32}}}}");
        let err = map_request(&body).unwrap_err();
        assert!(err.contains("unknown model"), "{err}");
        assert!(
            !err.contains("cannot read"),
            "must not leak fs errors: {err}"
        );
        // The same path still resolves through the CLI's loader.
        assert!(load_model(&path, 32).is_ok());
    }

    #[test]
    fn map_request_bounds_res_and_top() {
        let err = |body: &str| map_request(body).unwrap_err();
        // res=0 used to reach the zoo builders and panic the worker thread.
        assert!(err("{\"model\": \"alexnet\", \"config\": {\"res\": 0}}").contains("config.res"));
        assert!(err("{\"model\": \"alexnet\", \"config\": {\"res\": 8}}").contains("config.res"));
        assert!(
            err("{\"model\": \"alexnet\", \"config\": {\"res\": 1000000}}").contains("config.res")
        );
        assert!(err("{\"model\": \"alexnet\", \"config\": {\"res\": 32.5}}").contains("config.res"));
        assert!(
            err("{\"model\": \"alexnet\", \"config\": {\"res\": 32, \"top\": 0}}")
                .contains("config.top")
        );
        assert!(
            err("{\"model\": \"alexnet\", \"config\": {\"res\": 32, \"top\": 1e9}}")
                .contains("config.top")
        );
    }

    #[test]
    fn panicking_handlers_become_500s_not_dead_threads() {
        let response = catch_panic(|| panic!("handler bug"))
            .unwrap_or_else(|| Response::error(500, "internal error: request handler panicked"));
        assert_eq!(response.status, 500);
        assert!(response.body.contains("internal error"));
        // Non-panicking handlers pass through untouched.
        let ok = catch_panic(|| Response::json(200, "{}".to_string())).unwrap();
        assert_eq!(ok.status, 200);
    }

    #[test]
    fn layer_selection_accepts_names_and_indices() {
        let model = zoo::alexnet(224);
        let all = select_layers(&model, &LayerSelector::All).unwrap();
        assert_eq!(all.len(), model.layers().len());
        let by_num = select_layers(&model, &LayerSelector::Index(0)).unwrap();
        let by_name =
            select_layers(&model, &LayerSelector::Name(by_num[0].name().to_string())).unwrap();
        assert_eq!(by_name[0].name(), by_num[0].name());
        assert!(select_layers(&model, &LayerSelector::Index(999)).is_err());
        assert!(select_layers(&model, &LayerSelector::Name("nope".into())).is_err());
    }

    #[test]
    fn cache_keys_canonicalize_field_order_whitespace_and_defaults() {
        let spelled = cache_key_for(
            "/map",
            "{\"model\": \"alexnet\", \"config\": {\"res\": 224, \"top\": 3, \"objective\": \"energy\"}}",
        )
        .unwrap();
        let defaulted = cache_key_for("/map", "{\"model\":\"alexnet\"}").unwrap();
        let reordered = cache_key_for(
            "/map",
            "{ \"config\" : { \"objective\" : \"energy\" , \"top\" : 3 } , \"model\" : \"alexnet\" }",
        )
        .unwrap();
        assert_eq!(spelled, defaulted);
        assert_eq!(spelled, reordered);

        // A numeric-string layer is the same selection as the number.
        assert_eq!(
            cache_key_for("/map", "{\"model\":\"alexnet\",\"config\":{\"layer\":0}}").unwrap(),
            cache_key_for(
                "/map",
                "{\"model\":\"alexnet\",\"config\":{\"layer\":\"0\"}}"
            )
            .unwrap()
        );

        // Any differing field differs the key.
        for other in [
            "{\"model\":\"vgg16\"}",
            "{\"model\":\"alexnet\",\"config\":{\"res\":225}}",
            "{\"model\":\"alexnet\",\"config\":{\"top\":4}}",
            "{\"model\":\"alexnet\",\"config\":{\"objective\":\"edp\"}}",
            "{\"model\":\"alexnet\",\"config\":{\"layer\":\"conv1\"}}",
        ] {
            assert_ne!(spelled, cache_key_for("/map", other).unwrap(), "{other}");
        }
        // Endpoints key separately.
        assert_ne!(
            spelled,
            cache_key_for("/explain", "{\"model\":\"alexnet\"}").unwrap()
        );
    }

    #[test]
    fn response_cache_hits_evicts_lru_and_tracks_occupancy() {
        let cache = ResponseCache::new(CACHE_SHARDS * 2); // two entries per shard
        assert!(cache.is_empty());
        cache.insert("a".into(), Arc::new("body-a".into()));
        assert_eq!(
            cache.get("a").as_deref().map(String::as_str),
            Some("body-a")
        );
        assert_eq!(cache.get("missing"), None);
        assert_eq!(cache.len(), 1);

        // Same-shard keys beyond capacity evict the least recently used.
        let mut same_shard = vec!["a".to_string()];
        let target = {
            use std::hash::{DefaultHasher, Hash, Hasher};
            let mut h = DefaultHasher::new();
            "a".hash(&mut h);
            (h.finish() as usize) % CACHE_SHARDS
        };
        let mut n = 0;
        while same_shard.len() < 3 {
            n += 1;
            let key = format!("k{n}");
            use std::hash::{DefaultHasher, Hash, Hasher};
            let mut h = DefaultHasher::new();
            key.hash(&mut h);
            if (h.finish() as usize) % CACHE_SHARDS == target {
                same_shard.push(key);
            }
        }
        // Touch "a" so the second key is the LRU when the third arrives.
        cache.insert(same_shard[1].clone(), Arc::new("body-1".into()));
        assert!(cache.get("a").is_some());
        cache.insert(same_shard[2].clone(), Arc::new("body-2".into()));
        assert!(cache.get("a").is_some(), "recently used entry survived");
        assert!(cache.get(&same_shard[1]).is_none(), "LRU entry was evicted");
        assert!(cache.get(&same_shard[2]).is_some());
    }

    #[test]
    fn cache_reinsert_updates_without_growing() {
        let cache = ResponseCache::new(8);
        cache.insert("k".into(), Arc::new("v1".into()));
        cache.insert("k".into(), Arc::new("v2".into()));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get("k").as_deref().map(String::as_str), Some("v2"));
    }

    #[test]
    fn handle_map_serves_hits_from_the_cache_without_searching() {
        let state = test_state(true);
        let body = "{\"model\": \"alexnet\", \"config\": {\"res\": 32, \"layer\": 0}}";
        let cold = handle_map("/map", body, &state);
        assert_eq!(cold.status, 200);
        // Reordered body, same canonical request: byte-identical response
        // straight from the cache (the entry count proves it was stored).
        let reordered = "{\"config\": {\"layer\": 0, \"res\": 32}, \"model\": \"alexnet\"}";
        let warm = handle_map("/map", reordered, &state);
        assert_eq!(warm.status, 200);
        assert_eq!(warm.body, cold.body, "cached body must be byte-identical");
        assert_eq!(state.cache.as_ref().unwrap().len(), 1);
        // Invalid models never reach the cache.
        let bad = handle_map("/map", "{\"model\": \"nope\"}", &state);
        assert_eq!(bad.status, 400);
        assert_eq!(state.cache.as_ref().unwrap().len(), 1);
    }

    /// A `Write` that records every `write` call separately.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Drives `write_response` and returns the single write it issued.
    fn written(response: &Response, keep_alive: bool, trace_id: Option<&str>) -> String {
        let mut w = CountingWriter::default();
        write_response(&mut w, response, keep_alive, trace_id).unwrap();
        assert_eq!(w.writes.len(), 1, "head and body must go out in one write");
        String::from_utf8(w.writes.remove(0)).unwrap()
    }

    #[test]
    fn responses_go_out_in_one_write_with_unchanged_bytes() {
        let ok = Response::json(200, "{\"status\":\"ok\"}\n".to_string());
        assert_eq!(
            written(&ok, true, Some("00112233aabbccdd")),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 16\r\n\
             X-Baton-Trace-Id: 00112233aabbccdd\r\nConnection: keep-alive\r\n\r\n\
             {\"status\":\"ok\"}\n"
        );
        assert_eq!(
            written(&ok, false, Some("00112233aabbccdd")),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 16\r\n\
             X-Baton-Trace-Id: 00112233aabbccdd\r\nConnection: close\r\n\r\n\
             {\"status\":\"ok\"}\n"
        );
        // The acceptor's 429: no trace, Retry-After, always closing.
        let body = "{\"error\":\"server saturated, retry later\"}\n";
        assert_eq!(
            written(&Response::too_many_requests(), false, None),
            format!(
                "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nRetry-After: 1\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
        );
        // A body far past one segment still leaves in the same write.
        let big = Response::json(200, "x".repeat(64 << 10));
        assert!(written(&big, true, None).ends_with(&*big.body));
    }

    #[test]
    fn wake_address_maps_wildcards_to_loopback() {
        let wake = |s: &str| wake_addr(s.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:9184"), "127.0.0.1:9184");
        assert_eq!(wake("[::]:9184"), "[::1]:9184");
        assert_eq!(wake("127.0.0.1:80"), "127.0.0.1:80");
        assert_eq!(wake("10.1.2.3:8080"), "10.1.2.3:8080");
        assert_eq!(wake("[fe80::1]:9184"), "[fe80::1]:9184");
    }

    /// Runs `read_request` over `head` (the bytes after the request line).
    fn parse(head: &str) -> Result<Request, Response> {
        read_request(&mut std::io::Cursor::new(head.as_bytes()), "POST", "/map").unwrap()
    }

    fn refusal(head: &str) -> (u16, String) {
        let response = parse(head).expect_err("head must be refused");
        (response.status, response.body.to_string())
    }

    #[test]
    fn well_framed_requests_read_exactly_their_body() {
        let request =
            parse("Host: t\r\ncontent-length: 5\r\nConnection: Close\r\n\r\nhello+next").unwrap();
        assert_eq!(request.body, "hello");
        assert!(request.client_close);
        // Agreeing duplicates are one length; no length is an empty body.
        let twice = parse("Content-Length: 2\r\nContent-Length: 2\r\n\r\nok").unwrap();
        assert_eq!(twice.body, "ok");
        assert!(!twice.client_close);
        assert_eq!(parse("Host: t\r\n\r\n").unwrap().body, "");
    }

    #[test]
    fn untrustworthy_framing_is_refused() {
        for value in [
            "abc",
            "",
            "-1",
            "+5",
            "5 5",
            "0x10",
            "99999999999999999999999",
        ] {
            let (status, body) = refusal(&format!("Content-Length: {value}\r\n\r\n"));
            assert_eq!(status, 400, "Content-Length {value:?}");
            assert!(body.contains("malformed Content-Length"), "{body}");
        }
        let (status, body) = refusal("Content-Length: 3\r\nContent-Length: 4\r\n\r\nabcd");
        assert_eq!(status, 400);
        assert!(body.contains("conflicting Content-Length"), "{body}");
        for te in ["chunked", "gzip, chunked", "identity"] {
            let (status, body) = refusal(&format!(
                "Transfer-Encoding: {te}\r\nContent-Length: 4\r\n\r\nabcd"
            ));
            assert_eq!(status, 400, "Transfer-Encoding {te:?}");
            assert!(body.contains("Transfer-Encoding"), "{body}");
        }
        assert_eq!(refusal("Content-Length: 2000000\r\n\r\n").0, 413);
        assert_eq!(refusal("Content-Length: 9\r\n\r\nshort").0, 400);
    }

    #[test]
    fn the_request_head_is_bounded() {
        let long_header = format!("X-Pad: {}\r\n\r\n", "a".repeat(MAX_HEAD_LINE_BYTES));
        let (status, body) = refusal(&long_header);
        assert_eq!(status, 431);
        assert!(body.contains("header line too long"), "{body}");
        assert_eq!(status_text(431), "Request Header Fields Too Large");

        let at_limit = "X-H: 1\r\n".repeat(MAX_HEADERS) + "\r\n";
        assert!(
            parse(&at_limit).is_ok(),
            "{MAX_HEADERS} headers are allowed"
        );
        let (status, body) = refusal(&("X-H: 1\r\n".repeat(MAX_HEADERS + 1) + "\r\n"));
        assert_eq!(status, 431);
        assert!(body.contains("too many request headers"), "{body}");

        // A line of exactly the cap, line end included, still fits.
        let fits = format!("X-Pad: {}\r\n", "a".repeat(MAX_HEAD_LINE_BYTES - 9));
        assert_eq!(fits.len(), MAX_HEAD_LINE_BYTES);
        assert!(parse(&(fits + "\r\n")).is_ok());

        let mut endless = std::io::Cursor::new(vec![b'G'; 3 * MAX_HEAD_LINE_BYTES]);
        assert!(matches!(
            read_head_line(&mut endless).unwrap(),
            HeadLine::TooLong
        ));
        assert_eq!(
            endless.position(),
            MAX_HEAD_LINE_BYTES as u64,
            "reads stop at the cap"
        );
    }

    #[test]
    fn too_many_requests_carries_retry_after() {
        let resp = Response::too_many_requests();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.retry_after, Some(RETRY_AFTER_SECS));
        assert_eq!(status_text(429), "Too Many Requests");
        assert!(resp.body.contains("\"error\":"));
    }
}
