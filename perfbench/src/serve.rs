//! `serve_cold` and `serve_hot`: `POST /map` against the release
//! `baton serve`, over one keep-alive connection in a closed loop.
//!
//! Keys come from one pool: every zoo layer whose output plane is 28x28 at
//! res 224, crossed with the three objectives and runner-up counts 1..=8.
//! The 28x28 layers cost about the same to search (11-14 ms on one thread),
//! so a cold request's latency is one mode, not six.
//!
//! * `serve_cold` walks the pool in rounds — each round visits every layer
//!   once, in a seeded order, with a combination of objective and `top` the
//!   layer has not had yet — so no key repeats until the whole pool (far
//!   more keys than the 256-entry response cache) has been sent, and every
//!   request misses, searches, renders, inserts and, once the cache is
//!   full, evicts.
//! * `serve_hot` primes a seeded handful of keys during set-up and then
//!   cycles through them, so every timed request is a cache hit and no
//!   search runs.
//!
//! The client deliberately stays on keep-alive connections: that is how
//! real clients talk to the server, and it is where the response-write
//! stall (`serve.wire_ms`) shows.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use nn_baton::c3p::{search_layer_k_best, Objective};
use nn_baton::prelude::{presets, Technology};
use nn_baton::report::{explain_layer, Format};
use nn_baton::serve::{run_map_request, zoo_model, MapRequest};

use crate::stats::{self, Rng};
use crate::zoo::MODELS;
use crate::{Args, Report, SETUPS, THREADS};

const RES: u32 = 224;
/// Output-plane size that selects the key layers.
const KEY_PLANE: u32 = 28;
const OBJECTIVES: [&str; 3] = ["energy", "edp", "runtime"];
const TOPS: usize = 8;
/// Keys primed and cycled by `serve_hot`.
const HOT_KEYS: usize = 8;
/// Passes over the hot keys per batch of `serve_hot` requests (on
/// `serve_cold` a batch is one round of the key layers).
const HOT_PASSES: usize = 4;
/// Traced runs fetch the flight recorder after this many timed requests;
/// it holds the newest 128, so nothing is lost in between.
const TRACE_BATCH: usize = 50;
/// Keys whose k-best search and explain render a traced cold run times
/// in-process.
const INPROC_KEYS: usize = 60;
/// Set-ups (each a fresh server) before the timed loop, the last of which
/// serves it; the other `SETUPS - SETUPS_BEFORE` follow the loop, so the
/// samples do not all share the host's speed state of one moment.
const SETUPS_BEFORE: usize = 5;
const IO_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    Cold,
    Hot,
}

/// One `/map` key: a layer of a zoo model plus objective and `top`.
#[derive(Clone)]
struct Key {
    model: &'static str,
    layer: String,
    objective: &'static str,
    top: usize,
}

impl Key {
    fn body(&self) -> String {
        format!(
            "{{\"model\":\"{}\",\"config\":{{\"res\":{RES},\"layer\":\"{}\",\"top\":{},\"objective\":\"{}\"}}}}",
            self.model, self.layer, self.top, self.objective
        )
    }
}

/// The key layers, in zoo order.
fn key_layers() -> Result<Vec<(&'static str, String)>, String> {
    let mut out = Vec::new();
    for name in MODELS {
        let model = zoo_model(name, RES)?;
        for layer in model.layers() {
            if layer.ho() == KEY_PLANE && layer.wo() == KEY_PLANE {
                out.push((name, layer.name().to_string()));
            }
        }
    }
    Ok(out)
}

/// The `serve_cold` key stream: round `r` sends every key layer once, in a
/// seeded order, layer `i` with combination `(r + offset_i) mod 24`. Keys
/// repeat only after all `layers x 24` have been sent, by when LRU has long
/// evicted them.
struct ColdKeys {
    layers: Vec<(&'static str, String)>,
    offsets: Vec<usize>,
    rng: Rng,
    round: usize,
}

impl ColdKeys {
    fn new(layers: Vec<(&'static str, String)>, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let offsets = layers
            .iter()
            .map(|_| rng.below(OBJECTIVES.len() * TOPS))
            .collect();
        ColdKeys {
            layers,
            offsets,
            rng,
            round: 0,
        }
    }

    fn next_round(&mut self) -> Vec<Key> {
        let mut order: Vec<usize> = (0..self.layers.len()).collect();
        self.rng.shuffle(&mut order);
        let round = self.round;
        self.round += 1;
        order
            .into_iter()
            .map(|i| {
                let combo = (round + self.offsets[i]) % (OBJECTIVES.len() * TOPS);
                Key {
                    model: self.layers[i].0,
                    layer: self.layers[i].1.clone(),
                    objective: OBJECTIVES[combo / TOPS],
                    top: combo % TOPS + 1,
                }
            })
            .collect()
    }
}

/// A parsed HTTP response.
struct Response {
    status: u16,
    body: String,
    close: bool,
    trace_id: Option<String>,
}

/// One HTTP/1.1 keep-alive connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        // The request goes out in one write, so the client's own Nagle state
        // cannot delay it; no-delay rules the client out as a stall source.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        let msg = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(msg.as_bytes())?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before a response",
            ));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let (mut length, mut close, mut trace_id) = (None, false, None);
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                continue;
            };
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => length = value.parse::<usize>().ok(),
                "connection" => close = value.eq_ignore_ascii_case("close"),
                "x-baton-trace-id" => trace_id = Some(value.to_string()),
                _ => {}
            }
        }
        let length = length.ok_or_else(|| bad("response without Content-Length"))?;
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| bad("response body is not UTF-8"))?;
        Ok(Response {
            status,
            body,
            close,
            trace_id,
        })
    }
}

/// A client that keeps one keep-alive connection open, reconnecting when
/// the server closes it (after its per-connection request limit) or on an
/// error.
struct Client {
    addr: String,
    conn: Option<Conn>,
}

impl Client {
    fn new(addr: &str) -> Self {
        Client {
            addr: addr.to_string(),
            conn: None,
        }
    }

    fn send(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        if self.conn.is_none() {
            self.conn = Some(Conn::open(&self.addr)?);
        }
        let conn = self.conn.as_mut().expect("connection opened above");
        match conn.request(method, path, body) {
            Ok(resp) => {
                if resp.close {
                    self.conn = None;
                }
                Ok(resp)
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}

/// A running `baton serve` child. Dropping it kills and reaps the process
/// if it is still running.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    /// Spawns the server on a free port and reads the address it bound.
    fn start(baton: &str) -> Result<Server, String> {
        let mut child = Command::new(baton)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .env("BATON_THREADS", THREADS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start `{baton} serve`: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        server
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the server's address: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("listening on http://")
            .ok_or_else(|| format!("unexpected server banner {line:?}"))?
            .to_string();
        Ok(server)
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        stats::peak_rss_mb(&self.child.id().to_string())
    }

    /// Drains the server through `POST /quitquitquit` on the client's
    /// connection and waits for it to exit.
    fn stop(mut self, client: &mut Client) -> Result<(), String> {
        client
            .send("POST", "/quitquitquit", "")
            .map_err(|e| format!("quitquitquit: {e}"))?;
        client.conn = None;
        // The stdout pipe stays open until the server has exited, so its
        // one-line drain summary never meets a closed pipe.
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if t0.elapsed() < Duration::from_secs(20) => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => return Err("server did not exit after a drain".into()),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Starts a server, waits until `/readyz` answers 200, and (hot) primes
/// `prime`; returns the server, the connected client and the set-up seconds.
fn set_up(baton: &str, prime: &[Key]) -> Result<(Server, Client, f64), String> {
    let t0 = Instant::now();
    let server = Server::start(baton)?;
    // Each poll opens a fresh connection; the one that is answered 200 stays
    // open as the keep-alive connection of the timed loop. Every poll, the
    // first too, waits one poll interval: a probe sent the moment the banner
    // appears races the server's first `accept`, and whether it wins decides
    // whether the set-up includes a wait of up to the acceptor's 10 ms poll.
    let mut client = loop {
        std::thread::sleep(Duration::from_millis(1));
        let mut client = Client::new(&server.addr);
        if matches!(client.send("GET", "/readyz", ""), Ok(r) if r.status == 200) {
            break client;
        }
        if t0.elapsed() > Duration::from_secs(60) {
            return Err("server not ready after 60 s".into());
        }
    };
    for key in prime {
        let resp = client
            .send("POST", "/map", &key.body())
            .map_err(|e| format!("priming: {e}"))?;
        if resp.status != 200 {
            return Err(format!("priming answered {}: {}", resp.status, resp.body));
        }
    }
    Ok((server, client, t0.elapsed().as_secs_f64()))
}

/// Response-cache and admission counters from `/metrics`.
#[derive(Default, Clone, Copy)]
struct CacheCounters {
    hits: f64,
    misses: f64,
    evictions: f64,
    rejected_429: f64,
}

fn scrape(client: &mut Client) -> Result<CacheCounters, String> {
    let resp = client
        .send("GET", "/metrics", "")
        .map_err(|e| format!("/metrics: {e}"))?;
    let mut c = CacheCounters::default();
    for line in resp.body.lines() {
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        match series {
            "baton_response_cache_hits_total" => c.hits = value,
            "baton_response_cache_misses_total" => c.misses = value,
            "baton_response_cache_evictions_total" => c.evictions = value,
            s if s.starts_with("baton_http_requests_total{") && s.contains("code=\"429\"") => {
                c.rejected_429 += value;
            }
            _ => {}
        }
    }
    Ok(c)
}

/// One timed request as the client saw it.
struct Sample {
    key: usize,
    /// Client latency in ms; infinite when the request failed.
    latency_ms: f64,
    status: u16,
    body: String,
    trace_id: Option<String>,
    error: Option<String>,
}

/// Server-side phases of one request, from the flight recorder.
#[derive(Default, Clone, Copy)]
struct Phases {
    queue_wait: f64,
    parse: f64,
    cache: f64,
    search: f64,
    render: f64,
    total: f64,
}

/// Reads the newest flight-recorder entries into `phases`, keyed by trace
/// ID.
fn fetch_phases(client: &mut Client, phases: &mut HashMap<String, Phases>) -> Result<(), String> {
    let resp = client
        .send("GET", "/debug/requests?limit=64", "")
        .map_err(|e| format!("/debug/requests: {e}"))?;
    let body = &resp.body;
    let mut at = 0;
    while let Some(start) = body[at..].find("{\"trace_id\"") {
        let start = at + start;
        let end = start
            + body[start..]
                .find('}')
                .ok_or("unterminated flight-recorder entry")?;
        at = end + 1;
        let entry = nn_baton::telemetry::json::parse_flat_object(&body[start..=end])?;
        let num = |k: &str| match entry.get(k) {
            Some(nn_baton::telemetry::json::Value::Number(n)) => *n / 1e3,
            _ => 0.0,
        };
        if let Some(nn_baton::telemetry::json::Value::String(id)) = entry.get("trace_id") {
            phases.insert(
                id.clone(),
                Phases {
                    queue_wait: num("queue_wait_us"),
                    parse: num("parse_us"),
                    cache: num("cache_us"),
                    search: num("search_us"),
                    render: num("render_us"),
                    total: num("total_us"),
                },
            );
        }
    }
    Ok(())
}

pub fn run(args: &Args, traffic: Traffic) -> Result<Report, String> {
    let mut report = Report::default();
    let layers = key_layers()?;
    let mut cold = ColdKeys::new(layers.clone(), args.seed);
    // The hot layers are fixed, evenly spread over the key layers, so the
    // server's memory high-water mark (set while priming) does not depend on
    // the seed; the seed picks their objective and `top`.
    let hot: Vec<Key> = {
        let mut round = ColdKeys::new(layers.clone(), args.seed ^ 0x5eed).next_round();
        round.sort_by_key(|k| layers.iter().position(|l| l.0 == k.model && l.1 == k.layer));
        (0..HOT_KEYS)
            .map(|i| round[i * round.len() / HOT_KEYS].clone())
            .collect()
    };
    let prime: &[Key] = if traffic == Traffic::Hot { &hot } else { &[] };

    // Set-up, repeated; the last server before the timed loop stays up for
    // it, and more set-ups follow the loop.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = None;
    for i in 0..SETUPS_BEFORE {
        let (server, mut client, secs) = set_up(&args.baton, prime)?;
        setups.push(secs);
        if i + 1 < SETUPS_BEFORE {
            server.stop(&mut client)?;
        } else {
            live = Some((server, client));
        }
    }
    let (server, mut client) = live.expect("at least one set-up");
    let before = scrape(&mut client)?;

    // The timed closed loop.
    let mut keys: Vec<Key> = Vec::new();
    let mut key_index: HashMap<String, usize> = HashMap::new();
    let mut samples: Vec<Sample> = Vec::new();
    // Time spent inside timed requests; the traced run's flight-recorder
    // fetches fall outside it.
    let mut busy = Duration::ZERO;
    let mut phases: HashMap<String, Phases> = HashMap::new();
    let mut hot_rng = Rng::new(args.seed ^ 0x407);
    let mut since_fetch = 0;
    let start = Instant::now();
    // Whole batches only: a batch that starts before the deadline finishes.
    while start.elapsed() < args.deadline() {
        let batch: Vec<Key> = match traffic {
            Traffic::Cold => cold.next_round(),
            Traffic::Hot => (0..HOT_PASSES)
                .flat_map(|_| {
                    let mut pass = hot.clone();
                    hot_rng.shuffle(&mut pass);
                    pass
                })
                .collect(),
        };
        for key in batch {
            let body = key.body();
            let id = *key_index.entry(body.clone()).or_insert_with(|| {
                keys.push(key.clone());
                keys.len() - 1
            });
            let t0 = Instant::now();
            let result = client.send("POST", "/map", &body);
            let latency = t0.elapsed();
            busy += latency;
            samples.push(match result {
                Ok(resp) => Sample {
                    key: id,
                    latency_ms: if resp.status == 200 {
                        latency.as_secs_f64() * 1e3
                    } else {
                        f64::INFINITY
                    },
                    status: resp.status,
                    body: resp.body,
                    trace_id: resp.trace_id,
                    error: None,
                },
                Err(e) => Sample {
                    key: id,
                    latency_ms: f64::INFINITY,
                    status: 0,
                    body: String::new(),
                    trace_id: None,
                    error: Some(e.to_string()),
                },
            });
            since_fetch += 1;
            if args.trace && since_fetch == TRACE_BATCH {
                fetch_phases(&mut client, &mut phases)?;
                since_fetch = 0;
            }
        }
    }
    if args.trace && since_fetch > 0 {
        fetch_phases(&mut client, &mut phases)?;
    }
    let after = scrape(&mut client)?;
    let server_rss = server.peak_rss_mb();
    server.stop(&mut client)?;
    for _ in SETUPS_BEFORE..SETUPS {
        let (server, mut client, secs) = set_up(&args.baton, prime)?;
        setups.push(secs);
        server.stop(&mut client)?;
    }

    // Oracle, outside the timed region: every body must equal the
    // in-process `run_map_request` of its key, byte for byte.
    let oracle = oracle_bodies(&keys)?;
    for s in &samples {
        report.attempted += 1;
        let k = &keys[s.key];
        let what = || format!("{}/{} {} top={}", k.model, k.layer, k.objective, k.top);
        if let Some(e) = &s.error {
            report.fail(format!("{}: {e}", what()));
        } else if s.status != 200 {
            report.fail(format!(
                "{}: status {}: {}",
                what(),
                s.status,
                s.body.trim()
            ));
        } else if s.body != oracle[s.key] {
            report.fail(format!("{}: body differs from run_map_request", what()));
        }
    }
    let timed = samples.len() as f64;
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    // The workload must be what it claims: all misses, or all hits.
    let (expected, label) = match traffic {
        Traffic::Cold => (misses, "misses"),
        Traffic::Hot => (hits, "hits"),
    };
    if expected != timed {
        report.broken = true;
        report.note(format!(
            "cache traffic is not pure: {expected} {label} for {timed} timed requests"
        ));
    }
    report.note(format!(
        "closed loop over 1 keep-alive connection; server workers={THREADS}; {} requests, {} distinct keys from {} key layers x {} objectives x top 1..={TOPS}",
        samples.len(),
        keys.len(),
        layers.len(),
        OBJECTIVES.len()
    ));
    let throughput = timed / busy.as_secs_f64();
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    if !args.trace {
        report.metric("setup_s", stats::median(&setups), "s", setups.len());
        report.metric("throughput_per_s", throughput, "1/s", samples.len());
        for (name, q) in [("latency_p50_ms", 0.5), ("latency_p90_ms", 0.9)] {
            if let Some(v) = stats::supported_quantile(&latencies, q) {
                report.metric(name, v, "ms", latencies.len());
            }
        }
        if let Some(rss) = server_rss {
            report.metric("peak_rss_mb", rss, "MiB", 1);
        }
        return Ok(report);
    }

    report.metric("trace.throughput_per_s", throughput, "1/s", samples.len());
    if let Some(v) = stats::supported_quantile(&latencies, 0.5) {
        report.metric("trace.latency_p50_ms", v, "ms", latencies.len());
    }
    // Per-request attribution: client latency = server phases + the
    // server's unattributed rest + wire (client latency minus the server's
    // own total). Means, so the parts add up to the whole.
    let matched: Vec<(f64, Phases)> = samples
        .iter()
        .filter(|s| s.latency_ms.is_finite())
        .filter_map(|s| Some((s.latency_ms, *phases.get(s.trace_id.as_ref()?)?)))
        .collect();
    let n = matched.len();
    let avg =
        |f: &dyn Fn(&(f64, Phases)) -> f64| matched.iter().map(f).sum::<f64>() / n.max(1) as f64;
    let phase_sum = |p: &Phases| p.queue_wait + p.parse + p.cache + p.search + p.render;
    report.metric("serve.client_ms", avg(&|m| m.0), "ms", n);
    report.metric("serve.queue_wait_ms", avg(&|m| m.1.queue_wait), "ms", n);
    report.metric("serve.parse_ms", avg(&|m| m.1.parse), "ms", n);
    report.metric("serve.cache_ms", avg(&|m| m.1.cache), "ms", n);
    report.metric("serve.search_ms", avg(&|m| m.1.search), "ms", n);
    report.metric("serve.render_ms", avg(&|m| m.1.render), "ms", n);
    report.metric("serve.server_total_ms", avg(&|m| m.1.total), "ms", n);
    report.metric(
        "serve.unattributed_ms",
        avg(&|m| m.1.total - phase_sum(&m.1)),
        "ms",
        n,
    );
    report.metric("serve.wire_ms", avg(&|m| m.0 - m.1.total), "ms", n);
    let wire: Vec<f64> = matched.iter().map(|m| m.0 - m.1.total).collect();
    if let Some(v) = stats::supported_quantile(&wire, 0.5) {
        report.note(format!("serve.wire_ms median {v:.3} ms over {n} requests"));
    }
    report.metric(
        "serve.cache_hit_share",
        hits / (hits + misses).max(1.0),
        "ratio",
        samples.len(),
    );
    report.metric(
        "serve.cache_evictions",
        after.evictions - before.evictions,
        "count",
        samples.len(),
    );
    report.metric(
        "serve.rejected_429",
        after.rejected_429 - before.rejected_429,
        "count",
        samples.len(),
    );
    report.note(format!(
        "reconciliation: serve.client_ms = queue_wait + parse + cache + search + render + unattributed + wire ({n} of {} requests matched to flight-recorder entries)",
        samples.len()
    ));
    if traffic == Traffic::Cold {
        let (kbest, explain, timed_keys) = in_process_split(&keys)?;
        report.metric("c3p.kbest_ms", kbest, "ms", timed_keys);
        report.metric("report.explain_ms", explain, "ms", timed_keys);
        report.note(
            "c3p.kbest_ms and report.explain_ms are timed in-process on the first cold keys; \
             report.explain_ms includes its own k-best search"
                .to_string(),
        );
    }
    Ok(report)
}

/// `run_map_request` for every key, on two threads (the server has exited,
/// so both cores are free).
fn oracle_bodies(keys: &[Key]) -> Result<Vec<String>, String> {
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(key) = keys.get(i) else { break };
            let body = MapRequest::parse(&key.body()).and_then(|r| run_map_request(&r));
            out.push((i, body));
        }
        out
    };
    let mut bodies = vec![String::new(); keys.len()];
    std::thread::scope(|s| {
        let a = s.spawn(worker);
        let b = s.spawn(worker);
        for handle in [a, b] {
            for (i, body) in handle.join().map_err(|_| "oracle thread panicked")? {
                bodies[i] = body.map_err(|e| format!("in-process oracle: {e}"))?;
            }
        }
        Ok::<(), String>(())
    })?;
    Ok(bodies)
}

/// Mean in-process time of `search_layer_k_best` and of `explain_layer` +
/// JSON render over the first [`INPROC_KEYS`] keys.
fn in_process_split(keys: &[Key]) -> Result<(f64, f64, usize), String> {
    let arch = presets::case_study_accelerator();
    let tech = Technology::paper_16nm();
    let (mut kbest, mut explain) = (0.0, 0.0);
    let keys = &keys[..keys.len().min(INPROC_KEYS)];
    for key in keys {
        let request = MapRequest::parse(&key.body())?;
        let model = zoo_model(key.model, RES)?;
        let layer = model.layer(&key.layer).ok_or("key layer vanished")?;
        let objective: Objective = request.objective;
        let t0 = Instant::now();
        search_layer_k_best(layer, &arch, &tech, objective, key.top + 1)
            .map_err(|e| e.to_string())?;
        kbest += t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let rendered = explain_layer(layer, &arch, &tech, objective, key.top)
            .map_err(|e| e.to_string())?
            .render(Format::Json);
        explain += t1.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(rendered);
    }
    let n = keys.len().max(1) as f64;
    Ok((kbest / n, explain / n, keys.len()))
}
