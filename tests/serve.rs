//! End-to-end tests for `baton serve`: spawn the real binary on an
//! ephemeral port and speak HTTP/1.1 over raw `TcpStream`s — no client
//! library, mirroring how the scrape side (Prometheus, curl) actually
//! talks to the service.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The serve process under test; killed on drop so a failing assertion
/// never leaks a listener.
struct Server {
    child: Child,
    addr: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn start_server() -> Server {
    let mut child = Command::new(env!("CARGO_BIN_EXE_baton"))
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn baton serve");
    // The first stdout line announces the bound address (port 0 resolved).
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read listen line");
    let addr = line
        .trim()
        .strip_prefix("listening on http://")
        .unwrap_or_else(|| panic!("unexpected listen line: {line:?}"))
        .to_string();
    Server { child, addr }
}

/// One request over a fresh connection; returns (status, headers, body).
fn request(addr: &str, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {response:?}"));
    let split = response.find("\r\n\r\n").expect("header/body separator") + 4;
    let (head, body) = response.split_at(split);
    (status, head.to_string(), body.to_string())
}

fn wait_ready(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, _, body) = request(addr, "GET", "/readyz", "");
        if status == 200 {
            assert!(body.contains("\"status\":\"ok\""), "{body}");
            assert!(body.contains("\"uptime_seconds\":"), "{body}");
            assert!(body.contains("\"threads\":2"), "{body}");
            return;
        }
        assert_eq!(status, 503, "readyz must be 503 until warm, got {status}");
        assert!(
            Instant::now() < deadline,
            "server never became ready: {body}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// One server process, one sequential script: liveness, readiness, the
/// metrics contract, mapping requests, offline parity, and error paths.
/// (A process per case would re-pay binary startup + warmup each time.)
#[test]
fn serve_speaks_http_and_observes_itself() {
    let server = start_server();
    let addr = server.addr.as_str();

    // Liveness is immediate, readiness gates on the warmup search.
    let (status, _, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(body, "{\"status\":\"ok\"}\n");
    wait_ready(addr);

    // The exposition: correct content type, histogram populated by the
    // warmup search before any client posted work.
    let (status, head, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "metrics content type: {head}"
    );
    assert!(metrics.contains("# TYPE baton_search_duration_seconds histogram"));
    assert!(
        metrics.contains("baton_search_duration_seconds_bucket{objective=\"energy\",le=\"+Inf\"}")
    );
    assert!(metrics.contains("# TYPE baton_http_requests_total counter"));
    assert!(metrics.contains("baton_http_requests_total{code=\"200\",path=\"/healthz\"} 1"));
    assert!(metrics.contains("baton_build_info{profile="));
    // The binary installs the counting allocator, so the ledger series
    // must be present and plausible on every scrape.
    assert!(metrics.contains("# TYPE baton_alloc_allocations_total counter"));
    assert!(metrics.contains("baton_alloc_bytes_total "));
    assert!(metrics.contains("baton_alloc_live_bytes "));
    assert!(metrics.contains("baton_alloc_peak_live_bytes "));
    let alloc_count: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("baton_alloc_allocations_total "))
        .expect("allocator series")
        .parse()
        .unwrap();
    assert!(alloc_count > 0, "a warm server has allocated");
    // The standard process panel, sampled from /proc/self on scrape.
    #[cfg(target_os = "linux")]
    {
        assert!(metrics.contains("# TYPE process_cpu_seconds_total counter"));
        assert!(metrics.contains("process_resident_memory_bytes "));
        assert!(metrics.contains("process_virtual_memory_bytes "));
        assert!(metrics.contains("process_open_fds "));
        assert!(metrics.contains("process_threads "));
    }
    // Bridged run counters: the warmup search evaluated candidates.
    let evals: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("baton_evaluations_total "))
        .expect("bridged evaluations counter")
        .parse()
        .unwrap();
    assert!(evals > 0, "warmup search left no evaluations");

    // POST /map for AlexNet (first layer keeps the search small).
    let (status, _, map_body) = request(
        addr,
        "POST",
        "/map",
        "{\"model\": \"alexnet\", \"config\": {\"layer\": 0}}",
    );
    assert_eq!(status, 200, "{map_body}");
    assert!(map_body.contains("\"record\":\"layer\""), "{map_body}");
    assert!(map_body.contains("\"layer\":\"conv1\""), "{map_body}");

    // The request observed itself: it appears in the served metrics.
    let (_, _, metrics) = request(addr, "GET", "/metrics", "");
    assert!(
        metrics.contains("baton_http_requests_total{code=\"200\",path=\"/map\"} 1"),
        "POST /map not counted:\n{metrics}"
    );
    assert!(metrics.contains("baton_http_request_duration_seconds_count{path=\"/map\"} 1"));

    // Parity: POST /map output is byte-identical to the offline
    // `baton explain --format json` path for the same model/config.
    let offline = Command::new(env!("CARGO_BIN_EXE_baton"))
        .args(["explain", "alexnet", "--layer", "0", "--format", "json"])
        .output()
        .expect("run baton explain");
    assert!(offline.status.success());
    assert_eq!(
        map_body,
        String::from_utf8_lossy(&offline.stdout),
        "served /map diverged from offline explain"
    );

    // /explain is the same handler; layer selection by name.
    let (status, _, explained) = request(
        addr,
        "POST",
        "/explain",
        "{\"model\": \"alexnet\", \"config\": {\"layer\": \"conv1\"}}",
    );
    assert_eq!(status, 200);
    assert!(explained.contains("\"layer\":\"conv1\""));

    // Error paths: unknown route, wrong method, malformed body, file-path
    // model, out-of-range res — all JSON, all counted under bounded path
    // labels, and none of them may take a worker thread down.
    let (status, _, body) = request(addr, "GET", "/not-a-route", "");
    assert_eq!(status, 404);
    assert!(body.contains("\"error\":"));
    let (status, _, _) = request(addr, "GET", "/map", "");
    assert_eq!(status, 405);
    let (status, _, body) = request(addr, "POST", "/map", "{broken");
    assert_eq!(status, 400);
    assert!(body.contains("bad JSON body"), "{body}");
    let (status, _, body) = request(addr, "POST", "/map", "{\"model\": \"nope\"}");
    assert_eq!(status, 400);
    assert!(body.contains("unknown model"), "{body}");
    // The HTTP surface must not resolve server-side file paths (the CLI
    // does) — a path-shaped model name is just an unknown model, with no
    // filesystem detail leaked.
    let tiny = std::env::temp_dir().join("baton_serve_e2e_tiny.baton");
    std::fs::write(
        &tiny,
        "model tiny @32\nconv name=only in=32x32x8 k=3 s=1 p=1 co=16\n",
    )
    .unwrap();
    let (status, _, body) = request(
        addr,
        "POST",
        "/map",
        &format!("{{\"model\": \"{}\"}}", tiny.to_string_lossy()),
    );
    assert_eq!(status, 400);
    assert!(body.contains("unknown model"), "{body}");
    assert!(!body.contains("cannot read"), "fs detail leaked: {body}");
    // res=0 used to panic the zoo builder and kill the worker thread; now
    // it is refused up front and the server keeps answering.
    let (status, _, body) = request(
        addr,
        "POST",
        "/map",
        "{\"model\": \"alexnet\", \"config\": {\"res\": 0}}",
    );
    assert_eq!(status, 400);
    assert!(body.contains("config.res"), "{body}");
    let (status, _, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "server died after rejected requests");

    // A garbage request line never reaches routing, but still must be
    // counted (under the bounded `other` label).
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        stream.write_all(b"GARBAGE\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
        assert!(response.contains("malformed request line"), "{response}");
    }

    let (_, _, metrics) = request(addr, "GET", "/metrics", "");
    assert!(
        metrics.contains("baton_http_requests_total{code=\"404\",path=\"other\"} 1"),
        "404s must fold into the bounded `other` label:\n{metrics}"
    );
    assert!(
        metrics.contains("baton_http_requests_total{code=\"400\",path=\"/map\"} 4"),
        "rejected /map bodies not counted:\n{metrics}"
    );
    assert!(
        metrics.contains("baton_http_requests_total{code=\"400\",path=\"other\"} 1"),
        "early-exit 400s must be counted too:\n{metrics}"
    );

    // A body nested past the JSON reader's bound is refused like any other
    // malformed body, and the same process keeps answering. Before the
    // bound, 512 KiB of `[` overflowed a worker's stack and aborted it.
    let (status, _, body) = request(addr, "POST", "/map", &"[".repeat(512 << 10));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nesting deeper than"), "{body}");
    let (status, _, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "server died on a deeply nested body");

    // --- Request tracing and the flight recorder ------------------------

    // Every response names its trace; a fresh (uncached) mapping request
    // exercises the full phase ladder.
    let (status, head, body) = request(
        addr,
        "POST",
        "/map",
        "{\"model\": \"alexnet\", \"config\": {\"layer\": 1}}",
    );
    assert_eq!(status, 200, "{body}");
    let trace_id = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("x-baton-trace-id")
                .then(|| v.trim().to_string())
        })
        .expect("X-Baton-Trace-Id header missing");
    assert_eq!(trace_id.len(), 16, "trace id shape: {trace_id}");

    // The trace is immediately retrievable, with the server-side phases as
    // root spans and the fan-out workers' spans attached underneath.
    let (status, _, detail) = request(addr, "GET", &format!("/debug/requests/{trace_id}"), "");
    assert_eq!(status, 200, "{detail}");
    assert!(detail.contains(&format!("\"trace_id\":\"{trace_id}\"")));
    assert!(detail.contains("\"op\":\"POST /map\""), "{detail}");
    for phase in [
        "queue_wait",
        "parse",
        "cache",
        "search",
        "search_layer",
        "render",
    ] {
        assert!(
            detail.contains(&format!("\"name\":\"{phase}\"")),
            "{phase} span missing from trace:\n{detail}"
        );
    }
    assert!(
        detail.contains("\"name\":\"parallel_worker\""),
        "worker-side spans must cross the fan-out boundary:\n{detail}"
    );
    // Every span — fan-out workers included — carries its allocation
    // delta, and with the binary's counting allocator installed a real
    // search cannot have churned nothing.
    assert!(detail.contains("\"net_allocs\":"), "{detail}");
    assert!(detail.contains("\"net_bytes\":"), "{detail}");
    let net_bytes: Vec<i64> = detail
        .split("\"net_bytes\":")
        .skip(1)
        .map(|s| {
            s.split(|c: char| c != '-' && !c.is_ascii_digit())
                .next()
                .unwrap()
                .parse()
                .unwrap()
        })
        .collect();
    assert!(
        net_bytes.iter().any(|&b| b != 0),
        "no span recorded heap movement: {detail}"
    );

    // The list view summarizes recent requests with timing breakdowns.
    let (status, _, list) = request(addr, "GET", "/debug/requests", "");
    assert_eq!(status, 200);
    assert!(list.contains(&trace_id), "{list}");
    assert!(list.contains("\"queue_wait_us\":"), "{list}");
    assert!(list.contains("\"search_us\":"), "{list}");

    // `?limit=N` polls a bounded tail; malformed limits answer 400.
    let (status, _, tail) = request(addr, "GET", "/debug/requests?limit=1", "");
    assert_eq!(status, 200);
    assert!(tail.contains("\"count\":1"), "{tail}");
    let (status, _, bad) = request(addr, "GET", "/debug/requests?limit=0", "");
    assert_eq!(status, 400, "{bad}");
    let (status, _, bad) = request(addr, "GET", "/debug/requests?limit=snow", "");
    assert_eq!(status, 400, "{bad}");

    // The same trace renders as a Perfetto-loadable trace_event file.
    let (status, _, perfetto) = request(
        addr,
        "GET",
        &format!("/debug/requests/{trace_id}?format=perfetto"),
        "",
    );
    assert_eq!(status, 200);
    assert!(perfetto.contains("\"traceEvents\""), "{perfetto}");
    assert!(perfetto.contains("parallel_worker"), "{perfetto}");

    // Unknown trace IDs are a 404, not a crash or an empty 200.
    let (status, _, body) = request(addr, "GET", "/debug/requests/0000000000000000", "");
    assert_eq!(status, 404);
    assert!(body.contains("\"error\":"), "{body}");
}
