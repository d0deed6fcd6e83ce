//! Concurrency harness for `baton serve`: keep-alive stress with cache
//! reconciliation, queue-full backpressure, per-connection request limits,
//! and graceful drain — all against the real binary over raw TCP.
//!
//! The worker-thread count under test comes from `BATON_SERVE_THREADS`
//! (default 2); CI runs this harness at 1 and 4 to pin down both the
//! single-worker and the contended schedules.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Worker threads for the server under test (CI sweeps 1 and 4).
fn serve_threads() -> String {
    std::env::var("BATON_SERVE_THREADS").unwrap_or_else(|_| "2".to_string())
}

/// The serve process under test. Keeps the stdout pipe open for the
/// process lifetime (the drain path prints a final summary line; a closed
/// pipe would turn that print into a panic). Killed on drop so a failing
/// assertion never leaks a listener.
struct Server {
    child: Child,
    addr: String,
    stdout: BufReader<ChildStdout>,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn start_server(threads: &str, extra: &[&str]) -> Server {
    let mut args = vec!["serve", "--addr", "127.0.0.1:0", "--threads", threads];
    args.extend_from_slice(extra);
    let mut child = Command::new(env!("CARGO_BIN_EXE_baton"))
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn baton serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read listen line");
    let addr = line
        .trim()
        .strip_prefix("listening on http://")
        .unwrap_or_else(|| panic!("unexpected listen line: {line:?}"))
        .to_string();
    Server {
        child,
        addr,
        stdout,
    }
}

/// Reads one HTTP/1.1 response off `reader`: returns (status, headers,
/// body, server-asked-to-close).
fn read_response(
    reader: &mut BufReader<TcpStream>,
) -> std::io::Result<(u16, String, String, bool)> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(std::io::Error::new(ErrorKind::UnexpectedEof, "closed"));
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {status_line:?}"));
    let mut headers = String::new();
    let mut content_length = 0usize;
    let mut close = false;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        if line.trim().is_empty() {
            break;
        }
        let lower = line.to_ascii_lowercase();
        if let Some(v) = lower.strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap_or(0);
        } else if let Some(v) = lower.strip_prefix("connection:") {
            close = v.trim() == "close";
        }
        headers.push_str(&line);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((
        status,
        headers,
        String::from_utf8_lossy(&body).into_owned(),
        close,
    ))
}

/// A persistent keep-alive connection sending requests back to back.
struct KeepAlive {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl KeepAlive {
    fn connect(addr: &str) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let writer = stream.try_clone().expect("clone stream");
        KeepAlive {
            writer,
            reader: BufReader::new(stream),
        }
    }

    /// One request on the shared connection (no `Connection: close`, so the
    /// server keeps it open until its own limits say otherwise).
    fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String, String, bool)> {
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(req.as_bytes())?;
        read_response(&mut self.reader)
    }
}

/// One request over a fresh connection; returns (status, headers, body).
fn request(addr: &str, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut conn = KeepAlive::connect(addr);
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    conn.writer
        .write_all(req.as_bytes())
        .expect("write request");
    let (status, headers, body, _) = read_response(&mut conn.reader).expect("read response");
    (status, headers, body)
}

fn wait_ready(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, _, body) = request(addr, "GET", "/readyz", "");
        if status == 200 {
            return;
        }
        assert_eq!(status, 503, "readyz must be 503 until warm");
        assert!(
            Instant::now() < deadline,
            "server never became ready: {body}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// The value of an unlabelled counter/gauge series in an exposition.
fn metric(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .map(|v| v.trim().parse::<f64>().expect("numeric sample") as u64)
        .unwrap_or(0)
}

/// Sum of a metric's samples: `name` may be a bare family name (sums every
/// label combination) or carry an explicit `{...}` label set (matches that
/// one series).
fn metric_sum(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .filter_map(|l| {
            let rest = l.strip_prefix(name)?;
            let value = if let Some(labels) = rest.strip_prefix('{') {
                labels.split_once('}')?.1
            } else if rest.starts_with(' ') {
                rest
            } else {
                return None; // a longer name sharing this prefix
            };
            value.trim().parse::<f64>().ok()
        })
        .map(|v| v as u64)
        .sum()
}

fn scrape(addr: &str) -> String {
    let (status, _, body) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    body
}

/// N client threads hammer `/map` over keep-alive connections with a mix
/// of repeated (cacheable) and distinct requests. Every response must be
/// 200 or 429; cache hits + misses reconcile exactly with the 200s served
/// on the mapping endpoints; bodies for one canonical request are
/// byte-identical whether cold or cached; and a guaranteed hit does not
/// advance the search histogram.
#[test]
fn concurrent_load_reconciles_with_cache_metrics() {
    const CLIENTS: usize = 4;
    const REQUESTS_PER_CLIENT: usize = 12;
    const DISTINCT_KEYS: usize = 3;

    let server = start_server(&serve_threads(), &[]);
    let addr = server.addr.as_str();
    wait_ready(addr);

    let before = scrape(addr);
    let hits0 = metric(&before, "baton_response_cache_hits_total");
    let misses0 = metric(&before, "baton_response_cache_misses_total");

    /// Per-client outcome: every status observed, plus (key, body) for
    /// each 200 so bodies can be compared across clients afterwards.
    type ClientOutcome = (Vec<u16>, Vec<(usize, String)>);

    // Each client rotates through DISTINCT_KEYS request shapes (varying
    // `top`), phase-shifted per client, so every key sees both cold and
    // cached service under contention. Bodies spell fields in different
    // orders per client to exercise canonicalization end to end.
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut conn = KeepAlive::connect(addr);
                    let mut statuses = Vec::new();
                    let mut bodies = Vec::new();
                    for i in 0..REQUESTS_PER_CLIENT {
                        let top = 1 + (c + i) % DISTINCT_KEYS;
                        let body = if c % 2 == 0 {
                            format!(
                                "{{\"model\": \"alexnet\", \"config\": {{\"res\": 32, \"layer\": 0, \"top\": {top}}}}}"
                            )
                        } else {
                            format!(
                                "{{\"config\":{{\"top\":{top},\"layer\":0,\"res\":32}},\"model\":\"alexnet\"}}"
                            )
                        };
                        match conn.send("POST", "/map", &body) {
                            Ok((status, _, resp, close)) => {
                                statuses.push(status);
                                if status == 200 {
                                    bodies.push((top, resp));
                                }
                                if close {
                                    conn = KeepAlive::connect(addr);
                                }
                            }
                            Err(e) => panic!("client {c} request {i}: {e}"),
                        }
                    }
                    (statuses, bodies)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut ok = 0u64;
    let mut rejected = 0u64;
    for (statuses, _) in &outcomes {
        for &status in statuses {
            match status {
                200 => ok += 1,
                429 => rejected += 1,
                other => panic!("response must be 200 or 429, got {other}"),
            }
        }
    }
    assert_eq!(
        ok + rejected,
        (CLIENTS * REQUESTS_PER_CLIENT) as u64,
        "every request sent must be answered"
    );
    assert!(ok > 0, "at least the cold requests must succeed");

    // Cached bodies are byte-identical to cold ones: every 200 for the
    // same canonical request (same `top`) has the same bytes, across all
    // clients and both JSON spellings.
    for key in 1..=DISTINCT_KEYS {
        let all: Vec<&String> = outcomes
            .iter()
            .flat_map(|(_, bodies)| bodies)
            .filter(|(top, _)| *top == key)
            .map(|(_, body)| body)
            .collect();
        assert!(!all.is_empty(), "key top={key} never served");
        for body in &all {
            assert_eq!(
                *body, all[0],
                "top={key}: cached body diverged from cold body"
            );
        }
    }

    // Metric reconciliation: every 200 on the mapping endpoints did exactly
    // one cache probe, so Δhits + Δmisses == the 200s we observed (429s
    // are rejected by the acceptor and never reach the cache).
    let after = scrape(addr);
    let hits = metric(&after, "baton_response_cache_hits_total") - hits0;
    let misses = metric(&after, "baton_response_cache_misses_total") - misses0;
    assert_eq!(
        hits + misses,
        ok,
        "cache hits ({hits}) + misses ({misses}) must reconcile with 200s ({ok})"
    );
    assert!(
        misses >= DISTINCT_KEYS as u64,
        "each distinct key misses at least once, got {misses}"
    );
    assert!(hits > 0, "repeated requests must hit the cache");

    // A guaranteed hit skips the search stack entirely: the search
    // histogram count must not advance.
    let searches_before = metric_sum(&after, "baton_search_duration_seconds_count");
    let (status, _, _) = request(
        addr,
        "POST",
        "/map",
        "{\"model\": \"alexnet\", \"config\": {\"res\": 32, \"layer\": 0, \"top\": 1}}",
    );
    assert_eq!(status, 200);
    let last = scrape(addr);
    assert_eq!(
        metric_sum(&last, "baton_search_duration_seconds_count"),
        searches_before,
        "a cache hit must not run the search"
    );
    assert_eq!(
        metric(&last, "baton_response_cache_hits_total") - hits0,
        hits + 1,
        "the verification request must be a hit"
    );
    assert!(
        metric(&last, "baton_response_cache_entries") >= DISTINCT_KEYS as u64,
        "entry gauge must reflect the cached keys"
    );
}

/// With one worker and a depth-1 queue, a pinned worker plus one queued
/// connection saturates the server: further connects are answered 429 +
/// `Retry-After` immediately by the acceptor, and the server recovers to
/// 200s once the pinned request completes.
#[test]
fn saturated_server_answers_429_with_retry_after_and_recovers() {
    let threads = serve_threads();
    let server = start_server(&threads, &["--queue-depth", "1"]);
    let addr = server.addr.as_str();
    wait_ready(addr);

    let workers: usize = threads.parse().unwrap();
    // Pin every worker with a request whose body never arrives: the worker
    // blocks in the body read (bounded by the server's read deadline, far
    // longer than this test). Staggered, so each connection clears the
    // depth-1 queue (worker pops it) before the next one is offered.
    let junk = "x".repeat(40);
    let mut pinned: Vec<KeepAlive> = (0..workers)
        .map(|_| {
            let mut conn = KeepAlive::connect(addr);
            conn.writer
                .write_all(b"POST /map HTTP/1.1\r\nHost: t\r\nContent-Length: 40\r\n\r\n")
                .unwrap();
            std::thread::sleep(Duration::from_millis(150));
            conn
        })
        .collect();

    // Fill the depth-1 queue with one complete (but unserved) request.
    let mut queued = KeepAlive::connect(addr);
    queued
        .writer
        .write_all(
            format!("POST /map HTTP/1.1\r\nHost: t\r\nContent-Length: 40\r\n\r\n{junk}").as_bytes(),
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // Saturated: the acceptor must shed everything else, without reading
    // the request (even a GET), and advertise when to come back.
    for attempt in 0..3 {
        let mut conn = KeepAlive::connect(addr);
        // No request bytes written: the 429 must not depend on them.
        let (status, headers, body, _) =
            read_response(&mut conn.reader).expect("read 429 response");
        assert_eq!(status, 429, "attempt {attempt} must be shed");
        assert!(
            headers.to_ascii_lowercase().contains("retry-after: 1"),
            "429 must carry Retry-After: {headers}"
        );
        assert!(body.contains("\"error\":"), "{body}");
    }

    // Release the pinned workers: their bodies arrive, the junk parses as
    // a 400, the queued request is then served, and the server recovers.
    for conn in &mut pinned {
        conn.writer.write_all(junk.as_bytes()).unwrap();
        let (status, _, _, _) = read_response(&mut conn.reader).expect("pinned response");
        assert_eq!(status, 400, "junk body must parse-fail, not hang");
    }
    let (status, _, _, _) = read_response(&mut queued.reader).expect("queued response");
    assert_eq!(status, 400);
    let (status, _, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "server must recover after the backlog clears");

    // The rejections are visible in the request metrics under the bounded
    // `rejected` label.
    let exposition = scrape(addr);
    assert!(
        metric_sum(
            &exposition,
            "baton_http_requests_total{code=\"429\",path=\"rejected\"}"
        ) >= 3,
        "429s must be counted:\n{exposition}"
    );
}

/// The per-connection request limit closes keep-alive connections: with
/// `--keep-alive-requests 2`, the second response announces the close and
/// the connection is gone afterwards.
#[test]
fn keep_alive_honors_the_per_connection_request_limit() {
    let server = start_server(&serve_threads(), &["--keep-alive-requests", "2"]);
    let addr = server.addr.as_str();
    wait_ready(addr);

    let mut conn = KeepAlive::connect(addr);
    let (status, _, _, close) = conn.send("GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    assert!(!close, "first response keeps the connection alive");
    let (status, _, _, close) = conn.send("GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    assert!(close, "the limit-reaching response must announce the close");
    // The server hangs up: a third request sees EOF (or a reset, if the
    // write raced the close).
    match conn.send("GET", "/healthz", "") {
        Err(_) => {}
        Ok((status, ..)) => panic!("connection must be closed after the limit, got {status}"),
    }
}

/// Readiness flips with the drain: `/readyz` answers 200 while serving,
/// then 503 `draining` the moment `/quitquitquit` is accepted — the
/// balancer-facing signal to stop routing — while connections already
/// being served still get their answer (and are told to close).
#[test]
fn readyz_flips_to_503_once_drain_begins() {
    // Two workers regardless of the env sweep: one keeps the probe
    // connection, the other is free to take /quitquitquit.
    let mut server = start_server("2", &[]);
    let addr = server.addr.as_str();
    wait_ready(addr);

    // A keep-alive probe established before the drain; its worker carries
    // it across the drain boundary.
    let mut probe = KeepAlive::connect(addr);
    let (status, _, body, close) = probe.send("GET", "/readyz", "").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(!close, "a ready server keeps the probe connection open");

    let (status, _, _) = request(addr, "POST", "/quitquitquit", "");
    assert_eq!(status, 200);

    // The already-connected probe now sees the server refuse readiness.
    let (status, _, body, close) = probe.send("GET", "/readyz", "").unwrap();
    assert_eq!(status, 503, "a draining server must fail readiness");
    assert!(body.contains("\"status\":\"draining\""), "{body}");
    assert!(close, "drain must close surviving connections");

    let status = server.child.wait().expect("wait for drained server");
    assert_eq!(status.code(), Some(0), "drain must exit cleanly");
}

/// Graceful drain: a request already being read when `/quitquitquit`
/// arrives still completes with a 200, new connects are then refused, and
/// the process exits 0 after printing its final snapshot line.
#[test]
fn quitquitquit_drains_in_flight_work_and_exits_zero() {
    // Two workers regardless of the env sweep: one holds the in-flight
    // request, the other must be free to serve /quitquitquit.
    let mut server = start_server("2", &[]);
    let addr = server.addr.as_str();
    wait_ready(addr);

    // In-flight: headers sent, body held back — the worker is mid-request.
    let body = "{\"model\": \"alexnet\", \"config\": {\"res\": 32, \"layer\": 0}}";
    let mut in_flight = KeepAlive::connect(addr);
    in_flight
        .writer
        .write_all(
            format!(
                "POST /map HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // Trigger the drain on a second connection.
    let (status, _, drain_body) = request(addr, "POST", "/quitquitquit", "");
    assert_eq!(status, 200);
    assert!(
        drain_body.contains("\"status\":\"draining\""),
        "{drain_body}"
    );

    // The in-flight request completes normally (and is told to close).
    in_flight.writer.write_all(body.as_bytes()).unwrap();
    let (status, _, served, close) =
        read_response(&mut in_flight.reader).expect("in-flight response");
    assert_eq!(status, 200, "in-flight request must complete during drain");
    assert!(served.contains("\"layer\":\"conv1\""), "{served}");
    assert!(close, "drain must close surviving connections");

    // New connects are refused once the listener is gone.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match TcpStream::connect(addr) {
            Err(_) => break,
            Ok(_) => {
                assert!(
                    Instant::now() < deadline,
                    "listener still accepting after drain"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }

    // The process exits on its own — code 0 — after the final snapshot.
    let status = server.child.wait().expect("wait for drained server");
    assert_eq!(status.code(), Some(0), "drain must exit cleanly");
    let mut rest = String::new();
    server.stdout.read_to_string(&mut rest).unwrap();
    assert!(
        rest.lines().any(|l| l.starts_with("drained:")),
        "final snapshot line missing from stdout: {rest:?}"
    );
}

/// Cached responses on one keep-alive connection come back without a
/// timer stall: 200 sequential hits finish in well under the ~8 s that a
/// delayed-ACK wait per response (head and body written separately on a
/// Nagle socket) would cost.
#[test]
fn keep_alive_cache_hits_do_not_stall() {
    const REQUESTS: usize = 200;
    let server = start_server(&serve_threads(), &["--keep-alive-requests", "1000"]);
    let addr = server.addr.as_str();
    let body = "{\"model\": \"alexnet\", \"config\": {\"res\": 32, \"layer\": 0}}";

    // Everything goes over the one connection: with a single worker, a
    // second connection would wait until this one is closed.
    let mut conn = KeepAlive::connect(addr);
    let hits = |conn: &mut KeepAlive| {
        let (status, _, exposition, _) = conn.send("GET", "/metrics", "").unwrap();
        assert_eq!(status, 200);
        metric(&exposition, "baton_response_cache_hits_total")
    };
    let (status, _, primed, _) = conn.send("POST", "/map", body).unwrap();
    assert_eq!(status, 200, "{primed}");
    let hits0 = hits(&mut conn);

    let started = Instant::now();
    for i in 0..REQUESTS {
        let (status, _, served, close) = conn.send("POST", "/map", body).unwrap();
        assert_eq!(status, 200, "request {i}");
        assert_eq!(served, primed, "request {i}: cached body diverged");
        assert!(!close, "request {i}: the connection must stay open");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "{REQUESTS} cached keep-alive requests took {elapsed:?}"
    );
    assert_eq!(
        hits(&mut conn) - hits0,
        REQUESTS as u64,
        "every timed request must be a hit"
    );
}

/// The acceptor blocks in `accept`; a drain must wake it on its own. With
/// no other client connected after `/quitquitquit`, the process exits 0
/// within a second and new connects are refused. Nothing connects before
/// the exit: any connection would itself wake the acceptor.
#[test]
fn drain_wakes_the_idle_acceptor_and_exits_promptly() {
    let mut server = start_server(&serve_threads(), &[]);
    let addr = server.addr.clone();

    let (status, _, body) = request(&addr, "POST", "/quitquitquit", "");
    assert_eq!(status, 200, "{body}");
    let deadline = Instant::now() + Duration::from_secs(1);
    let code = loop {
        if let Some(status) = server.child.try_wait().expect("poll the server") {
            break status.code();
        }
        assert!(
            Instant::now() < deadline,
            "server still running 1 s after /quitquitquit"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(code, Some(0), "drain must exit cleanly");
    assert!(
        TcpStream::connect(&addr).is_err(),
        "connects must be refused after the drain"
    );
}

/// Sends `raw` on a fresh connection and returns the refusal's status and
/// body, after checking that the server announced the close, hung up, and
/// counted it under `cause="framing"`.
fn framing_refusal(raw: &[u8]) -> (u16, String) {
    let server = start_server(&serve_threads(), &[]);
    let addr = server.addr.as_str();
    let closed = "baton_http_connections_closed_total{cause=\"framing\"}";
    let before = metric_sum(&scrape(addr), closed);

    let mut conn = KeepAlive::connect(addr);
    conn.writer.write_all(raw).unwrap();
    let (status, _, body, close) = read_response(&mut conn.reader).expect("refusal");
    assert!(close, "a framing refusal must announce the close");
    let mut rest = Vec::new();
    let _ = conn.reader.read_to_end(&mut rest);
    assert!(
        rest.is_empty(),
        "nothing may follow the refusal: {:?}",
        String::from_utf8_lossy(&rest)
    );
    assert_eq!(metric_sum(&scrape(addr), closed), before + 1);
    (status, body)
}

/// A non-numeric `Content-Length` is refused, not read as 0 (which would
/// parse the body as the next request on the connection).
#[test]
fn non_numeric_content_length_is_refused() {
    let (status, body) = framing_refusal(
        b"POST /map HTTP/1.1\r\nHost: t\r\nContent-Length: 1x\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n",
    );
    assert_eq!(status, 400);
    assert!(body.contains("malformed Content-Length"), "{body}");
}

#[test]
fn conflicting_content_lengths_are_refused() {
    let (status, body) = framing_refusal(
        b"POST /map HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\nContent-Length: 27\r\n\r\n{}GET /healthz HTTP/1.1\r\n\r\n",
    );
    assert_eq!(status, 400);
    assert!(body.contains("conflicting Content-Length"), "{body}");
}

#[test]
fn transfer_encoding_is_refused() {
    let (status, body) = framing_refusal(
        b"POST /map HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
    );
    assert_eq!(status, 400);
    assert!(body.contains("Transfer-Encoding"), "{body}");
}

/// A client streaming a request line (or a header line) that never ends
/// gets a refusal after the 8 KiB cap instead of growing the server's
/// buffer without limit.
#[test]
fn endless_head_lines_are_cut_off() {
    let server = start_server(&serve_threads(), &[]);
    let addr = server.addr.as_str();
    for (prefix, expected) in [
        (&b"GET /"[..], 400),
        (&b"GET /healthz HTTP/1.1\r\nX-Endless: "[..], 431),
    ] {
        let mut conn = KeepAlive::connect(addr);
        conn.reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        conn.writer
            .set_write_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = conn.writer.try_clone().unwrap();
        writer.write_all(prefix).unwrap();
        // Stream until the server hangs up (or a generous cap, so a server
        // that never answers fails the read below instead of hanging).
        let streamer = std::thread::spawn(move || {
            let chunk = [b'a'; 4096];
            for _ in 0..(64 << 10) {
                if writer.write_all(&chunk).is_err() {
                    return;
                }
            }
        });
        let (status, _, body, close) =
            read_response(&mut conn.reader).expect("the server must answer the endless line");
        assert_eq!(status, expected, "{body}");
        assert!(close, "the refusal must close the connection");
        streamer.join().unwrap();
    }
    let exposition = scrape(addr);
    assert_eq!(
        metric_sum(
            &exposition,
            "baton_http_connections_closed_total{cause=\"framing\"}"
        ),
        2
    );
}
