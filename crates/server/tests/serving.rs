//! Integration tests against a live server on an ephemeral port:
//! concurrent traffic, typed error statuses over the socket, keep-alive
//! framing, and graceful shutdown persisting dirty shards.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use dbsvec_engine::{snapshot, Engine, ModelArtifact};
use dbsvec_geometry::PointSet;
use dbsvec_obs::{JsonlSink, NoopObserver, ProfileReport, RecordingObserver, ReplayCounts, Tee};
use dbsvec_server::{Router, Server, ServerConfig, ServerReport, ShutdownFlag};

fn artifact() -> ModelArtifact {
    let mut cores = PointSet::new(2);
    let mut labels = Vec::new();
    for i in 0..6 {
        cores.push(&[i as f64, 0.0]);
        labels.push(0);
    }
    for i in 0..6 {
        cores.push(&[i as f64, 100.0]);
        labels.push(1);
    }
    ModelArtifact {
        eps: 1.5,
        min_pts: 3,
        num_clusters: 2,
        cores,
        core_labels: labels,
        boundaries: None,
        quality: None,
        sampling: None,
    }
}

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dbsvec-serving-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Harness {
    addr: SocketAddr,
    shutdown: ShutdownFlag,
    handle: JoinHandle<std::io::Result<ServerReport>>,
    router: Arc<Router>,
    dir: PathBuf,
}

impl Harness {
    fn start(shards: usize, threads: usize, max_requests: Option<u64>) -> Harness {
        Harness::start_cfg(shards, |cfg| cfg.max_requests = max_requests, threads)
    }

    fn start_cfg(shards: usize, tweak: impl FnOnce(&mut ServerConfig), threads: usize) -> Harness {
        let dir = scratch_dir();
        let mut router = Router::new();
        router.add_model("m", dir.join("m.dbm"), &artifact(), shards, None);
        let router = Arc::new(router);
        let mut config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads,
            backlog: 8,
            ..ServerConfig::default()
        };
        tweak(&mut config);
        let server = Server::bind(Arc::clone(&router), config).unwrap();
        let addr = server.local_addr().unwrap();
        let shutdown = ShutdownFlag::new();
        let flag = shutdown.clone();
        let handle = std::thread::spawn(move || server.run(&flag, &mut NoopObserver));
        Harness {
            addr,
            shutdown,
            handle,
            router,
            dir,
        }
    }

    fn stop(self) -> ServerReport {
        self.shutdown.request();
        let report = self.handle.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&self.dir);
        report
    }
}

/// One request over a fresh connection with `Connection: close`; returns
/// `(status, body)`.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    conn.write_all(head.as_bytes()).unwrap();
    conn.write_all(body.as_bytes()).unwrap();
    read_response(conn)
}

fn read_response(conn: TcpStream) -> (u16, String) {
    let mut raw = String::new();
    BufReader::new(conn).read_to_string(&mut raw).unwrap();
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    (status, body.to_string())
}

#[test]
fn http_assign_matches_the_in_process_engine() {
    let h = Harness::start(3, 1, None);
    let mut reference = Engine::new(&artifact());
    for q in [[2.0, 0.5], [3.0, 99.5], [50.0, 50.0], [0.2, 0.9]] {
        let (status, body) = request(
            h.addr,
            "POST",
            "/v1/models/m/assign",
            &format!("{{\"point\":[{},{}]}}", q[0], q[1]),
        );
        assert_eq!(status, 200, "body: {body}");
        let want = match reference.assign(&q).cluster() {
            Some(c) => format!("\"cluster\":{c}"),
            None => "\"cluster\":null".to_string(),
        };
        assert!(body.contains(&want), "body {body} missing {want}");
    }
    let report = h.stop();
    assert_eq!(report.requests, 4);
    assert_eq!(report.errors, 0);
}

#[test]
fn concurrent_clients_assign_ingest_and_scrape() {
    let h = Harness::start(2, 4, None);
    let addr = h.addr;
    let clients: Vec<_> = (0..4)
        .map(|c| {
            std::thread::spawn(move || {
                for i in 0..8 {
                    let x = (c * 8 + i) as f64 * 0.1;
                    let (status, body) = request(
                        addr,
                        "POST",
                        "/v1/models/m/assign",
                        &format!("{{\"points\":[[{x},0.0],[{x},100.0]]}}"),
                    );
                    assert_eq!(status, 200, "assign body: {body}");
                    assert!(body.contains("\"count\":2"), "assign body: {body}");
                    let (status, body) = request(
                        addr,
                        "POST",
                        "/v1/models/m/ingest",
                        &format!("{{\"point\":[{},50.0]}}", 200.0 + x),
                    );
                    assert_eq!(status, 200, "ingest body: {body}");
                    let (status, _) = request(addr, "GET", "/v1/models/m/health", "");
                    assert_eq!(status, 200);
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    let (status, text) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(text.contains("dbsvec_http_requests_total"), "{text}");
    assert!(text.contains("dbsvec_assigns_total"), "{text}");
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\""), "{body}");

    let report = h.stop();
    assert_eq!(report.requests, 4 * 8 * 3 + 2);
    assert_eq!(report.errors, 0);
}

#[test]
fn graceful_shutdown_persists_dirty_shards() {
    let h = Harness::start(2, 2, None);
    // Novel points dirty whichever shard they hash to.
    for i in 0..6 {
        let (status, body) = request(
            h.addr,
            "POST",
            "/v1/models/m/ingest",
            &format!("{{\"point\":[{},0.4]}}", i as f64 * 0.5),
        );
        assert_eq!(status, 200, "ingest body: {body}");
    }
    let dir = h.dir.clone();
    let router = Arc::clone(&h.router);
    let report = {
        let Harness {
            shutdown, handle, ..
        } = h;
        shutdown.request();
        handle.join().unwrap().unwrap()
    };
    assert!(
        !report.persisted.is_empty(),
        "dirty shards must be persisted on shutdown"
    );
    for (path, bytes) in &report.persisted {
        assert!(*bytes > 0);
        let (reloaded, _loaded_bytes) = snapshot::read_file(path).unwrap();
        reloaded.validate().unwrap();
    }
    // A second persist finds nothing dirty: shutdown left shards clean.
    assert!(router.persist_dirty().unwrap().is_empty());
    let _ = std::fs::remove_dir_all(dir);
}

/// DELETE /v1/models/{name}/points over a live socket: single and batch
/// bodies remove tracked points shard-transparently, an unknown single
/// point is a typed 404, and the deletions re-dirty their shards so the
/// shutdown drain persists them.
#[test]
fn delete_over_the_socket_removes_points_and_persists_dirty_shards() {
    let h = Harness::start(2, 2, None);
    // Ingest novel points across both shards; exact decimal coordinates
    // so the JSON round trip reproduces the bit pattern removal keys on.
    let rows: Vec<String> = (0..6).map(|i| format!("[{}.5,0.25]", i)).collect();
    let (status, body) = request(
        h.addr,
        "POST",
        "/v1/models/m/ingest",
        &format!("{{\"points\":[{}]}}", rows.join(",")),
    );
    assert_eq!(status, 200, "ingest: {body}");
    // Flush ingest dirt so the persistence asserted below is the DELETEs'.
    assert!(!h.router.persist_dirty().unwrap().is_empty());

    // Single tracked point: removed, with the repair outcome inlined.
    let (status, body) = request(
        h.addr,
        "DELETE",
        "/v1/models/m/points",
        "{\"point\":[0.5,0.25]}",
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"removed\":true"), "{body}");
    assert!(body.contains("\"was_core\""), "{body}");
    assert!(body.contains("\"splits\""), "{body}");

    // The same point again — and any never-tracked point — is a typed 404.
    for unknown in ["{\"point\":[0.5,0.25]}", "{\"point\":[77.0,77.0]}"] {
        let (status, body) = request(h.addr, "DELETE", "/v1/models/m/points", unknown);
        assert_eq!(status, 404, "{body}");
        assert!(body.contains("\"error\""), "{body}");
        assert!(body.contains("point not tracked"), "{body}");
    }

    // Batch: three tracked and one unknown, grouped per shard — the
    // response keeps request order and counts only the found removals.
    let (status, body) = request(
        h.addr,
        "DELETE",
        "/v1/models/m/points",
        "{\"points\":[[1.5,0.25],[2.5,0.25],[3.5,0.25],[88.0,88.0]]}",
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"count\":4"), "{body}");
    assert!(body.contains("\"removed\":3"), "{body}");
    assert!(body.contains("\"removed\":false"), "{body}");

    // Unknown model is still the usual model-level 404.
    let (status, _) = request(
        h.addr,
        "DELETE",
        "/v1/models/ghost/points",
        "{\"point\":[0,0]}",
    );
    assert_eq!(status, 404);

    // Drain: the DELETE-dirtied shards persist, and the persisted
    // snapshots reload cleanly.
    let dir = h.dir.clone();
    let router = Arc::clone(&h.router);
    let report = {
        let Harness {
            shutdown, handle, ..
        } = h;
        shutdown.request();
        handle.join().unwrap().unwrap()
    };
    assert!(
        !report.persisted.is_empty(),
        "DELETE must dirty shards for the shutdown drain"
    );
    for (path, bytes) in &report.persisted {
        assert!(*bytes > 0);
        let (reloaded, _) = snapshot::read_file(path).unwrap();
        reloaded.validate().unwrap();
    }
    assert!(router.persist_dirty().unwrap().is_empty());
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn error_statuses_are_typed_over_the_socket() {
    let h = Harness::start(1, 1, None);
    let cases = [
        ("GET", "/nope", "", 404u16),
        ("GET", "/v1/models/ghost/health", "", 404),
        ("POST", "/v1/models/ghost/assign", "{\"point\":[0,0]}", 404),
        ("GET", "/v1/models/m/assign", "", 405),
        ("POST", "/v1/models/m/health", "", 405),
        ("POST", "/healthz", "", 405),
        ("POST", "/v1/models/m/assign", "{not json", 400),
        ("POST", "/v1/models/m/assign", "{\"point\":[1.0]}", 400),
        ("POST", "/v1/models/m/assign", "{\"points\":[]}", 400),
    ];
    for (method, path, body, want) in cases {
        let (status, resp) = request(h.addr, method, path, body);
        assert_eq!(status, want, "{method} {path}: {resp}");
        assert!(resp.contains("\"error\""), "{method} {path}: {resp}");
    }
    // An oversized declared body is refused without reading it.
    let mut conn = TcpStream::connect(h.addr).unwrap();
    conn.write_all(
        b"POST /v1/models/m/assign HTTP/1.1\r\nHost: t\r\nContent-Length: 999999999\r\n\r\n",
    )
    .unwrap();
    let (status, _) = read_response(conn);
    assert_eq!(status, 413);
    // A malformed request line is a 400, not a hang.
    let mut conn = TcpStream::connect(h.addr).unwrap();
    conn.write_all(b"NONSENSE\r\n\r\n").unwrap();
    let (status, _) = read_response(conn);
    assert_eq!(status, 400);

    let report = h.stop();
    assert_eq!(report.requests, cases.len() as u64 + 2);
    assert_eq!(report.errors, cases.len() as u64 + 2);
}

#[test]
fn keep_alive_serves_multiple_requests_per_connection() {
    let h = Harness::start(1, 1, None);
    let mut conn = TcpStream::connect(h.addr).unwrap();
    for (i, q) in [[1.0, 0.0], [1.0, 100.0]].iter().enumerate() {
        let body = format!("{{\"point\":[{},{}]}}", q[0], q[1]);
        let head = format!(
            "POST /v1/models/m/assign HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        conn.write_all(head.as_bytes()).unwrap();
        conn.write_all(body.as_bytes()).unwrap();
        // Read exactly one framed response off the shared connection.
        let mut raw = Vec::new();
        let mut byte = [0u8; 1];
        while !raw.ends_with(b"\r\n\r\n") {
            conn.read_exact(&mut byte).unwrap();
            raw.push(byte[0]);
        }
        let head = String::from_utf8(raw).unwrap();
        assert!(head.starts_with("HTTP/1.1 200"), "request {i}: {head}");
        let len: usize = head
            .lines()
            .find_map(|l| {
                l.to_ascii_lowercase()
                    .strip_prefix("content-length:")
                    .map(str::to_string)
            })
            .and_then(|v| v.trim().parse().ok())
            .expect("content-length header");
        let mut body = vec![0u8; len];
        conn.read_exact(&mut body).unwrap();
        assert!(String::from_utf8(body).unwrap().contains("\"cluster\""));
    }
    drop(conn);
    let report = h.stop();
    assert_eq!(report.requests, 2);
}

/// One request whose body arrives in two halves with a pause in between,
/// stretching the server-side parse stage past any small slow threshold
/// while staying well under the 500ms idle timeout.
fn slow_request(
    addr: SocketAddr,
    path: &str,
    body: &str,
    delay: std::time::Duration,
) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).unwrap();
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    conn.write_all(head.as_bytes()).unwrap();
    let (first, rest) = body.split_at(body.len() / 2);
    conn.write_all(first.as_bytes()).unwrap();
    conn.flush().unwrap();
    std::thread::sleep(delay);
    conn.write_all(rest.as_bytes()).unwrap();
    read_response(conn)
}

/// Digs the first integer after `key` out of a JSON line (the trace
/// format flattens every stage field, so plain string math suffices).
fn extract_u64(line: &str, key: &str) -> u64 {
    let rest = &line[line.find(key).expect(key) + key.len()..];
    rest.chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

#[test]
fn a_failed_remove_is_traced_under_its_own_endpoint() {
    let h = Harness::start(1, 2, None);
    let (status, body) = request(
        h.addr,
        "DELETE",
        "/v1/models/m/points",
        "{\"point\":[9.0,9.0]}",
    );
    assert_eq!(status, 404, "{body}");
    let (status, body) = request(h.addr, "GET", "/debug/requests", "");
    assert_eq!(status, 200);
    let trace = body
        .split("{\"request_id\"")
        .find(|chunk| chunk.contains("\"status\":404"))
        .unwrap_or_else(|| panic!("the 404 is retained: {body}"));
    assert!(trace.contains("\"endpoint\":\"remove\""), "{trace}");
    assert!(trace.contains("\"error\":true"), "{trace}");
    // Its latency lands in the remove histogram, and it still counts as
    // an error.
    let (_, text) = request(h.addr, "GET", "/metrics", "");
    assert!(
        text.contains("dbsvec_http_request_duration_remove_seconds_count 1\n"),
        "{text}"
    );
    assert!(text.contains("dbsvec_http_errors_total 1\n"), "{text}");
    assert_eq!(h.stop().errors, 1);
}

#[test]
fn a_rejected_body_is_traced_under_error() {
    // An assign or remove whose body fails to parse never reaches an
    // engine, so neither lands in its operation's histogram.
    let h = Harness::start(1, 2, None);
    for (method, path) in [
        ("POST", "/v1/models/m/assign"),
        ("DELETE", "/v1/models/m/points"),
    ] {
        let (status, body) = request(h.addr, method, path, "{\"point\":[1.0]}");
        assert_eq!(status, 400, "{method} {path}: {body}");
    }
    let (status, body) = request(h.addr, "GET", "/debug/requests", "");
    assert_eq!(status, 200);
    let rejected: Vec<&str> = body
        .split("{\"request_id\"")
        .filter(|chunk| chunk.contains("\"status\":400"))
        .collect();
    assert_eq!(rejected.len(), 2, "{body}");
    for trace in rejected {
        assert!(trace.contains("\"endpoint\":\"error\""), "{trace}");
    }
    let (_, text) = request(h.addr, "GET", "/metrics", "");
    for endpoint in ["assign", "remove"] {
        let count = format!("dbsvec_http_request_duration_{endpoint}_seconds_count 0\n");
        assert!(text.contains(&count), "{text}");
    }
    assert!(
        text.contains("dbsvec_http_request_duration_error_seconds_count 2\n"),
        "{text}"
    );
    assert_eq!(h.stop().errors, 2);
}

#[test]
fn flight_recorder_retains_slow_and_error_traces_after_ring_wrap() {
    let h = Harness::start_cfg(
        1,
        |cfg| {
            cfg.slow_request_ms = Some(50);
            cfg.trace_capacity = 4;
        },
        2,
    );

    // One genuinely slow assign (the body stalls ~120ms mid-flight), one
    // 404, then enough fast traffic to wrap the 4-trace recent ring
    // several times over.
    let (status, body) = slow_request(
        h.addr,
        "/v1/models/m/assign",
        "{\"point\":[2.0,0.5]}",
        std::time::Duration::from_millis(120),
    );
    assert_eq!(status, 200, "slow assign body: {body}");
    let (status, _) = request(h.addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    for _ in 0..20 {
        let (status, _) = request(h.addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
    }

    let (status, body) = request(h.addr, "GET", "/debug/requests", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"capacity\":4"), "got: {body}");
    assert!(body.contains("\"slow_threshold_ms\":50"), "got: {body}");
    // Both interesting traces outlived the wrap, stage-attributed.
    assert!(
        body.contains("\"endpoint\":\"assign\"") && body.contains("\"slow\":true"),
        "slow assign trace missing: {body}"
    );
    assert!(
        body.contains("\"endpoint\":\"error\"") && body.contains("\"status\":404"),
        "error trace missing: {body}"
    );
    assert!(body.contains("\"parse_us\":"), "got: {body}");
    // The slow request's parse stage carries the injected stall.
    let slow_line = body
        .split("{\"request_id\"")
        .find(|chunk| chunk.contains("\"slow\":true"))
        .expect("slow trace present");
    assert!(
        extract_u64(slow_line, "\"parse_us\":") >= 100_000,
        "parse stage should carry the ~120ms stall: {slow_line}"
    );

    // The metrics section exposes the per-endpoint/stage histograms and
    // the queue gauges the acceptor maintains.
    let (status, text) = request(h.addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    for name in [
        "dbsvec_http_request_duration_assign_seconds",
        "dbsvec_http_request_duration_healthz_seconds{quantile=\"0.95\"}",
        "dbsvec_http_stage_parse_seconds",
        "dbsvec_http_stage_engine_seconds",
        "dbsvec_http_queue_depth",
        "dbsvec_http_workers_busy",
        "dbsvec_http_queue_full_total",
    ] {
        assert!(text.contains(name), "missing {name} in: {text}");
    }

    let report = h.stop();
    assert_eq!(report.requests, 24);
    assert_eq!(report.errors, 1);
}

#[test]
fn healthz_reports_uptime_served_requests_and_shards() {
    let h = Harness::start(3, 1, None);
    let (status, _) = request(
        h.addr,
        "POST",
        "/v1/models/m/ingest",
        "{\"point\":[0.5,0.1]}",
    );
    assert_eq!(status, 200);
    let (status, body) = request(h.addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "got: {body}");
    assert!(body.contains("\"uptime_seconds\":"), "got: {body}");
    assert!(
        body.contains("\"requests\":1"),
        "healthz must count the one served request: {body}"
    );
    assert!(
        body.contains("\"name\":\"m\"") && body.contains("\"shards\":3"),
        "got: {body}"
    );
    h.stop();
}

#[test]
fn trace_jsonl_cross_checks_with_live_replay_counts() {
    let dir = scratch_dir();
    let mut router = Router::new();
    router.add_model("m", dir.join("m.dbm"), &artifact(), 2, None);
    let router = Arc::new(router);
    let server = Server::bind(
        Arc::clone(&router),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            backlog: 8,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = ShutdownFlag::new();
    let flag = shutdown.clone();
    let handle = std::thread::spawn(move || {
        let mut recorder = RecordingObserver::new();
        let mut sink = JsonlSink::new(Vec::new());
        let report = {
            let mut tee = Tee(&mut recorder, &mut sink);
            server.run(&flag, &mut tee).unwrap()
        };
        (report, recorder, sink.finish().unwrap())
    });

    for i in 0..3 {
        let (status, _) = request(
            addr,
            "POST",
            "/v1/models/m/assign",
            &format!("{{\"point\":[{}.0,0.2]}}", i),
        );
        assert_eq!(status, 200);
    }
    let (status, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let (status, _) = request(addr, "GET", "/nope", "");
    assert_eq!(status, 404);

    shutdown.request();
    let (report, recorder, jsonl) = handle.join().unwrap();
    let jsonl = String::from_utf8(jsonl).unwrap();
    assert_eq!(report.requests, 5);
    assert_eq!(report.errors, 1);

    let live = recorder.replay();
    assert_eq!(live.http_requests, 5);
    assert_eq!(live.http_errors, 1);
    assert!(live.http_duration_us > 0);

    // Replaying the written trace reproduces the live counts exactly —
    // including the summed per-request wall time.
    let replayed = ReplayCounts::from_jsonl(&jsonl).expect("trace replays");
    assert_eq!(replayed, live, "jsonl replay diverged from live counts");

    // And the per-request duration fields on the trace lines sum to that
    // same total: the jsonl is the ground truth the report renders.
    let mut duration_sum = 0u64;
    let mut ids = Vec::new();
    for line in jsonl.lines().filter(|l| l.contains("\"http_request\"")) {
        duration_sum += extract_u64(line, "\"duration_us\":");
        ids.push(extract_u64(line, "\"request_id\":"));
    }
    assert_eq!(duration_sum, live.http_duration_us);
    ids.sort_unstable();
    assert_eq!(ids, [1, 2, 3, 4, 5], "ids are dense and monotonic");

    let rendered = ProfileReport::from_recording(&recorder, 0).to_string();
    assert!(
        rendered.contains("http requests 5 | http errors 1"),
        "got: {rendered}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn max_requests_trips_shutdown_on_its_own() {
    let h = Harness::start(1, 1, Some(3));
    for _ in 0..3 {
        let (status, _) = request(h.addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
    }
    // No explicit shutdown.request(): the server stops itself.
    let report = h.handle.join().unwrap().unwrap();
    assert_eq!(report.requests, 3);
    let _ = std::fs::remove_dir_all(&h.dir);
}
