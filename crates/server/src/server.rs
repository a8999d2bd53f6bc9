//! The socket front end: a bounded thread pool over a [`Router`].
//!
//! One acceptor (the calling thread) pushes connections into a
//! `sync_channel` whose capacity is the accept backlog — when every
//! worker is busy and the queue is full, the acceptor blocks instead of
//! piling up unbounded connections, which is the server's backpressure.
//! Workers pull connections, speak keep-alive HTTP/1.1 over them, and
//! report every finished request back to the acceptor over a second
//! channel; the acceptor owns the session's [`Observer`], so trace events
//! stay single-threaded and ordered.
//!
//! Request lifecycle tracing: every accepted request gets a monotonically
//! increasing id and an `Instant`-stamped stage breakdown — accept-queue
//! wait, parse, route, shard-lock wait, engine compute, serialize, write
//! — carried on [`Event::HttpRequest`], folded into per-endpoint and
//! per-stage histograms on `/metrics`, and kept in a tail-sampling
//! [`FlightRecorder`] behind `GET /debug/requests`.
//!
//! Graceful shutdown: a [`ShutdownFlag`] (tripped programmatically, by
//! `SIGINT`/`SIGTERM`, or by `max_requests`) stops the accept loop, the
//! connection channel closes, workers finish their in-flight connections
//! and exit, and the router persists every dirty shard before
//! [`Server::run`] returns its report.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Sender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dbsvec_obs::telemetry::render_prometheus;
use dbsvec_obs::{Event, Histogram, HttpStages, Observer, Phase, Registry};

use crate::http::{read_request, write_response, HttpError, Request, DEFAULT_MAX_BODY_BYTES};
use crate::router::{RouteCost, RouteError, Router};
use crate::trace::{FlightRecorder, RequestTrace};

/// Knobs for [`Server::bind`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:8080` (port 0 for ephemeral).
    pub addr: String,
    /// Worker threads handling connections.
    pub threads: usize,
    /// Accepted-connection queue capacity (the backpressure bound).
    pub backlog: usize,
    /// Request-body cap in bytes.
    pub max_body: usize,
    /// Shut down after this many requests (tests and smoke jobs).
    pub max_requests: Option<u64>,
    /// Requests at or over this duration count as slow: the flight
    /// recorder always retains them and the acceptor logs one line per
    /// offender. `None` disables slow tracking (errors are still
    /// retained).
    pub slow_request_ms: Option<u64>,
    /// Flight-recorder ring capacity (recent and retained rings each).
    pub trace_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8080".to_string(),
            threads: 1,
            backlog: 64,
            max_body: DEFAULT_MAX_BODY_BYTES,
            max_requests: None,
            slow_request_ms: None,
            trace_capacity: 256,
        }
    }
}

/// Set by the process signal handler; async-signal-safe (a relaxed store
/// on a static atomic is all the handler does).
static SIGNAL_FLAG: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    SIGNAL_FLAG.store(true, Ordering::Relaxed);
}

/// A cooperative shutdown request, pollable from the accept loop.
///
/// [`ShutdownFlag::install_signal_handlers`] arms `SIGINT` and `SIGTERM`
/// via the libc `signal(2)` entry point (declared by hand — the workspace
/// carries no libc crate), so ctrl-c and orchestrator termination drain
/// the server instead of killing it mid-write.
#[derive(Clone, Debug, Default)]
pub struct ShutdownFlag {
    requested: Arc<AtomicBool>,
}

impl ShutdownFlag {
    /// A fresh, untripped flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the flag programmatically.
    pub fn request(&self) {
        self.requested.store(true, Ordering::Relaxed);
    }

    /// Whether shutdown was requested (programmatically or by signal).
    pub fn is_requested(&self) -> bool {
        self.requested.load(Ordering::Relaxed) || SIGNAL_FLAG.load(Ordering::Relaxed)
    }

    /// Routes `SIGINT` and `SIGTERM` into this flag. No-op off Unix.
    pub fn install_signal_handlers(&self) {
        #[cfg(unix)]
        {
            extern "C" {
                fn signal(signum: i32, handler: usize) -> usize;
            }
            const SIGINT: i32 = 2;
            const SIGTERM: i32 = 15;
            unsafe {
                signal(SIGINT, on_signal as *const () as usize);
                signal(SIGTERM, on_signal as *const () as usize);
            }
        }
    }
}

/// Endpoint slugs, one duration histogram each on `/metrics`. A remove
/// that fails after its shard's engine answered stays under `remove`;
/// `error` holds every other failed request.
const ENDPOINTS: [&str; 8] = [
    "assign",
    "ingest",
    "remove",
    "health",
    "metrics",
    "healthz",
    "debug_requests",
    "error",
];

/// Stage slugs in [`HttpStages`] field order, one histogram each.
const STAGES: [&str; 7] = [
    "queue",
    "parse",
    "route",
    "lock",
    "engine",
    "serialize",
    "write",
];

fn endpoint_index(endpoint: &str) -> usize {
    ENDPOINTS
        .iter()
        .position(|&e| e == endpoint)
        .expect("every endpoint slug is registered")
}

fn micros(d: Duration) -> u64 {
    d.as_micros() as u64
}

/// Worker-fed duration histograms, in microsecond ticks (scaled to
/// seconds at exposition).
struct StageHists {
    endpoints: [Histogram; ENDPOINTS.len()],
    stages: [Histogram; STAGES.len()],
}

impl StageHists {
    fn new() -> Self {
        Self {
            endpoints: std::array::from_fn(|_| Histogram::new()),
            stages: std::array::from_fn(|_| Histogram::new()),
        }
    }
}

/// Live serving-tier state shared between workers and the `/metrics`,
/// `/healthz`, and `/debug/requests` handlers, rendered as an extra
/// exposition section beside the engine aggregate. The names are
/// disjoint, so the concatenation stays valid; `parse_prometheus` rejects
/// a family that either section repeats.
struct HttpState {
    started: Instant,
    next_id: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    /// Connections the full accept queue refused at least once.
    queue_full: AtomicU64,
    /// Accepted connections currently waiting for a worker.
    queue_depth: AtomicU64,
    /// Workers currently handling a connection.
    workers_busy: AtomicU64,
    hists: Mutex<StageHists>,
    recorder: Mutex<FlightRecorder>,
}

impl HttpState {
    fn new(trace_capacity: usize, slow_threshold_us: Option<u64>) -> Self {
        Self {
            started: Instant::now(),
            next_id: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            queue_full: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            workers_busy: AtomicU64::new(0),
            hists: Mutex::new(StageHists::new()),
            recorder: Mutex::new(FlightRecorder::new(trace_capacity, slow_threshold_us)),
        }
    }

    /// Folds one finished request into the counters, histograms, and the
    /// flight recorder (called by the worker that handled it).
    fn record_request(&self, trace: &RequestTrace) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if trace.is_error() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        {
            let mut hists = self.hists.lock().unwrap();
            hists.endpoints[endpoint_index(trace.endpoint)].record(trace.duration_us);
            let s = trace.stages;
            for (hist, v) in hists.stages.iter_mut().zip([
                s.queue_us,
                s.parse_us,
                s.route_us,
                s.lock_us,
                s.engine_us,
                s.serialize_us,
                s.write_us,
            ]) {
                hist.record(v);
            }
        }
        self.recorder.lock().unwrap().record(trace.clone());
    }

    /// The serving-tier registry, built fresh per scrape.
    fn registry(&self) -> Registry {
        let mut reg = Registry::new();
        let c = reg.counter(
            "dbsvec_http_requests_total",
            "HTTP requests handled by the serving tier.",
        );
        reg.set_counter(c, self.requests.load(Ordering::Relaxed));
        let c = reg.counter(
            "dbsvec_http_errors_total",
            "HTTP requests answered with a 4xx/5xx status.",
        );
        reg.set_counter(c, self.errors.load(Ordering::Relaxed));
        let c = reg.counter(
            "dbsvec_http_queue_full_total",
            "Connections the full accept queue refused and re-offered.",
        );
        reg.set_counter(c, self.queue_full.load(Ordering::Relaxed));
        let g = reg.gauge(
            "dbsvec_http_queue_depth",
            "Accepted connections waiting for a worker.",
        );
        reg.set(g, self.queue_depth.load(Ordering::Relaxed) as f64);
        let g = reg.gauge(
            "dbsvec_http_workers_busy",
            "Workers currently handling a connection.",
        );
        reg.set(g, self.workers_busy.load(Ordering::Relaxed) as f64);
        let hists = self.hists.lock().unwrap();
        for (name, hist) in ENDPOINTS.iter().zip(&hists.endpoints) {
            let id = reg.histogram(
                &format!("dbsvec_http_request_duration_{name}_seconds"),
                &format!("End-to-end latency of {name} requests."),
                1e6,
            );
            reg.merge_histogram(id, hist);
        }
        for (name, hist) in STAGES.iter().zip(&hists.stages) {
            let id = reg.histogram(
                &format!("dbsvec_http_stage_{name}_seconds"),
                &format!("Time spent in the {name} stage, all endpoints."),
                1e6,
            );
            reg.merge_histogram(id, hist);
        }
        reg
    }

    fn render(&self) -> String {
        render_prometheus(&self.registry())
    }
}

/// One finished request, reported from a worker to the acceptor (which
/// owns the observer).
struct RequestRecord {
    request_id: u64,
    endpoint: &'static str,
    status: u16,
    points: u64,
    duration_us: u64,
    stages: HttpStages,
}

/// What [`Server::run`] hands back after a graceful shutdown.
#[derive(Debug)]
pub struct ServerReport {
    /// Requests handled (including error responses).
    pub requests: u64,
    /// Of those, requests answered with a 4xx/5xx status.
    pub errors: u64,
    /// Snapshots written while persisting dirty shards: `(path, bytes)`.
    pub persisted: Vec<(PathBuf, u64)>,
}

/// The bound server, ready to [`Server::run`].
pub struct Server {
    listener: TcpListener,
    router: Arc<Router>,
    config: ServerConfig,
}

impl Server {
    /// Binds the configured address (use port 0 for an ephemeral port,
    /// then read [`Server::local_addr`]).
    pub fn bind(router: Arc<Router>, config: ServerConfig) -> io::Result<Server> {
        let addrs: Vec<SocketAddr> = config.addr.to_socket_addrs()?.collect();
        let listener = TcpListener::bind(&addrs[..])?;
        Ok(Server {
            listener,
            router,
            config,
        })
    }

    /// The actually-bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// [`Server::run_logged`] with slow-request lines discarded.
    pub fn run(&self, shutdown: &ShutdownFlag, obs: &mut dyn Observer) -> io::Result<ServerReport> {
        self.run_logged(shutdown, obs, &mut io::sink())
    }

    /// Serves until `shutdown` trips (or `max_requests` is reached), then
    /// drains in-flight connections, persists dirty shards, and reports.
    ///
    /// Runs the accept loop on the calling thread inside a
    /// [`Phase::Serve`] span; every finished request lands in `obs` as an
    /// [`Event::HttpRequest`] carrying its id, duration, and stage
    /// breakdown, and every persisted shard as an [`Event::SnapshotWrite`].
    /// When `slow_request_ms` is set, one line per over-threshold request
    /// goes to `log` (emitted by the acceptor, like the events).
    pub fn run_logged(
        &self,
        shutdown: &ShutdownFlag,
        obs: &mut dyn Observer,
        log: &mut dyn Write,
    ) -> io::Result<ServerReport> {
        self.listener.set_nonblocking(true)?;
        let threads = self.config.threads.max(1);
        let backlog = self.config.backlog.max(1);
        let slow_us = self
            .config
            .slow_request_ms
            .map(|ms| ms.saturating_mul(1000));
        let state = Arc::new(HttpState::new(self.config.trace_capacity, slow_us));
        let mut requests = 0u64;
        let mut errors = 0u64;

        obs.span_enter(Phase::Serve);
        let (conn_tx, conn_rx) = std::sync::mpsc::sync_channel::<(TcpStream, Instant)>(backlog);
        let (rec_tx, rec_rx) = std::sync::mpsc::channel::<RequestRecord>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let conn_rx = Arc::clone(&conn_rx);
                let rec_tx = rec_tx.clone();
                let router = Arc::clone(&self.router);
                let state = Arc::clone(&state);
                let max_body = self.config.max_body;
                scope.spawn(move || loop {
                    let (conn, accepted) = match conn_rx.lock().unwrap().recv() {
                        Ok(c) => c,
                        Err(_) => return, // channel closed: drain done
                    };
                    state.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    state.workers_busy.fetch_add(1, Ordering::Relaxed);
                    handle_connection(conn, accepted, &router, &state, max_body, &rec_tx);
                    state.workers_busy.fetch_sub(1, Ordering::Relaxed);
                });
            }
            drop(rec_tx);

            // Absorbs one worker record: counts it, logs it if slow, and
            // emits the trace event (single-threaded, acceptor side).
            let absorb = |rec: RequestRecord,
                          requests: &mut u64,
                          errors: &mut u64,
                          obs: &mut dyn Observer,
                          log: &mut dyn Write| {
                *requests += 1;
                if rec.status >= 400 {
                    *errors += 1;
                }
                if slow_us.is_some_and(|t| rec.duration_us >= t) {
                    let s = rec.stages;
                    let _ = writeln!(
                        log,
                        "slow request #{} {} status={} duration={}us \
                         queue={}us parse={}us route={}us lock={}us \
                         engine={}us serialize={}us write={}us",
                        rec.request_id,
                        rec.endpoint,
                        rec.status,
                        rec.duration_us,
                        s.queue_us,
                        s.parse_us,
                        s.route_us,
                        s.lock_us,
                        s.engine_us,
                        s.serialize_us,
                        s.write_us,
                    );
                }
                obs.event(&Event::HttpRequest {
                    endpoint: rec.endpoint.to_string(),
                    status: rec.status,
                    points: rec.points,
                    request_id: rec.request_id,
                    duration_us: rec.duration_us,
                    stages: rec.stages,
                });
            };

            let mut pending: Option<(TcpStream, Instant)> = None;
            loop {
                while let Ok(rec) = rec_rx.try_recv() {
                    absorb(rec, &mut requests, &mut errors, obs, log);
                }
                if shutdown.is_requested() {
                    break;
                }
                if let Some(max) = self.config.max_requests {
                    if requests >= max {
                        shutdown.request();
                        break;
                    }
                }
                // Re-offer a connection the full queue refused last round,
                // then accept new ones; try_send keeps this loop polling
                // (a blocking send would stop shutdown and record drains).
                if let Some(conn) = pending.take() {
                    match conn_tx.try_send(conn) {
                        Ok(()) => {
                            state.queue_depth.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(TrySendError::Full(conn)) => {
                            pending = Some(conn);
                            std::thread::sleep(Duration::from_millis(1));
                            continue;
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
                match self.listener.accept() {
                    Ok((conn, _)) => match conn_tx.try_send((conn, Instant::now())) {
                        Ok(()) => {
                            state.queue_depth.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(TrySendError::Full(conn)) => {
                            state.queue_full.fetch_add(1, Ordering::Relaxed);
                            pending = Some(conn);
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    },
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            }
            // Close the queue; workers finish queued + in-flight
            // connections, then exit, which closes the record channel.
            drop(conn_tx);
            while let Ok(rec) = rec_rx.recv() {
                absorb(rec, &mut requests, &mut errors, obs, log);
            }
        });

        let persisted = self
            .router
            .persist_dirty()
            .map_err(|e| io::Error::other(format!("persisting dirty shards: {e}")))?;
        for (_, bytes) in &persisted {
            obs.event(&Event::SnapshotWrite { bytes: *bytes });
        }
        obs.span_exit(Phase::Serve);
        Ok(ServerReport {
            requests,
            errors,
            persisted,
        })
    }

    /// The router this server fronts.
    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }
}

/// How long a keep-alive connection may sit idle before the worker closes
/// it (so shutdown never waits on a silent client).
const IDLE_TIMEOUT: Duration = Duration::from_millis(500);

fn handle_connection(
    conn: TcpStream,
    accepted: Instant,
    router: &Router,
    state: &HttpState,
    max_body: usize,
    records: &Sender<RequestRecord>,
) {
    let _ = conn.set_nodelay(true);
    let _ = conn.set_read_timeout(Some(IDLE_TIMEOUT));
    let mut writer = match conn.try_clone() {
        Ok(w) => BufWriter::new(w),
        Err(_) => return,
    };
    let mut reader = BufReader::new(conn);
    // Queue wait belongs to the first request of the connection; later
    // keep-alive requests never sat in the accept queue.
    let mut queue_us = micros(accepted.elapsed());
    loop {
        let started = Instant::now();
        let parsed = read_request(&mut reader, max_body);
        let parse_us = micros(started.elapsed());
        let req = match parsed {
            Ok(None) => return, // clean close between requests
            Ok(Some(req)) => req,
            Err(err) => {
                // Framing is unknown after a parse error; answer and close.
                let status = err.status();
                let body = error_body(&err);
                let wstart = Instant::now();
                let _ = write_response(&mut writer, status, "application/json", &body, false);
                let stages = HttpStages {
                    queue_us,
                    parse_us,
                    write_us: micros(wstart.elapsed()),
                    ..Default::default()
                };
                finish(
                    state, records, "error", status, 0, started, queue_us, stages,
                );
                return;
            }
        };
        let keep_alive = req.keep_alive;
        let dispatch_start = Instant::now();
        let outcome = dispatch(router, state, &req);
        let dispatch_us = micros(dispatch_start.elapsed());
        let (endpoint, status, content_type, body, points, cost) = match outcome {
            Ok((endpoint, content_type, body, points, cost)) => {
                (endpoint, 200, content_type, body, points, cost)
            }
            Err(Failed {
                endpoint,
                error,
                cost,
            }) => (
                endpoint,
                error.status(),
                "application/json",
                error_body(&error),
                0,
                cost,
            ),
        };
        let wstart = Instant::now();
        let write_ok = write_response(&mut writer, status, content_type, &body, keep_alive).is_ok();
        let stages = HttpStages {
            queue_us,
            parse_us,
            route_us: dispatch_us.saturating_sub(cost.lock_us + cost.engine_us + cost.serialize_us),
            lock_us: cost.lock_us,
            engine_us: cost.engine_us,
            serialize_us: cost.serialize_us,
            write_us: micros(wstart.elapsed()),
        };
        finish(
            state, records, endpoint, status, points, started, queue_us, stages,
        );
        queue_us = 0;
        if !write_ok || !keep_alive {
            return;
        }
    }
}

/// Assigns the request its id, records the trace worker-side, and reports
/// it to the acceptor.
#[allow(clippy::too_many_arguments)]
fn finish(
    state: &HttpState,
    records: &Sender<RequestRecord>,
    endpoint: &'static str,
    status: u16,
    points: u64,
    started: Instant,
    queue_us: u64,
    stages: HttpStages,
) {
    let request_id = state.next_id.fetch_add(1, Ordering::Relaxed) + 1;
    let duration_us = queue_us + micros(started.elapsed());
    let trace = RequestTrace {
        request_id,
        endpoint,
        status,
        points,
        duration_us,
        stages,
    };
    state.record_request(&trace);
    let _ = records.send(RequestRecord {
        request_id,
        endpoint,
        status,
        points,
        duration_us,
        stages,
    });
}

fn error_body(err: &HttpError) -> Vec<u8> {
    use dbsvec_obs::Json;
    Json::obj([
        ("error", Json::str(err.to_string())),
        ("status", Json::UInt(err.status() as u64)),
    ])
    .to_string()
    .into_bytes()
}

/// Lock, engine, and serialize time one dispatch spent, in microseconds
/// (everything else it did is the route stage).
#[derive(Clone, Copy, Debug, Default)]
struct DispatchCost {
    lock_us: u64,
    engine_us: u64,
    serialize_us: u64,
}

impl DispatchCost {
    fn from_route(cost: RouteCost, serialize_us: u64) -> Self {
        Self {
            lock_us: cost.lock_us,
            engine_us: cost.engine_us,
            serialize_us,
        }
    }
}

/// A dispatch that failed: the error it answers with, the endpoint it is
/// filed under, and what it cost before failing.
struct Failed {
    endpoint: &'static str,
    error: HttpError,
    cost: DispatchCost,
}

/// A failure before any operation took the request: filed under `error`,
/// at zero cost.
impl From<HttpError> for Failed {
    fn from(error: HttpError) -> Self {
        Self {
            endpoint: "error",
            error,
            cost: DispatchCost::default(),
        }
    }
}

impl Failed {
    /// A failed assign, ingest or remove: filed under `endpoint` with its
    /// lock and engine time if a shard's engine answered, under `error`
    /// otherwise.
    fn routed(endpoint: &'static str, failure: RouteError) -> Self {
        match failure.cost {
            Some(cost) => Self {
                endpoint,
                error: failure.error,
                cost: DispatchCost::from_route(cost, 0),
            },
            None => failure.error.into(),
        }
    }
}

/// Times one body-rendering closure, returning the bytes and the
/// microseconds it took.
fn serialized(render: impl FnOnce() -> String) -> (Vec<u8>, u64) {
    let start = Instant::now();
    let body = render().into_bytes();
    (body, micros(start.elapsed()))
}

/// Routes one parsed request. Returns `(endpoint slug, content type,
/// response body, points served, stage cost)`. A remove that fails after
/// its shard's engine answered keeps its endpoint and the lock and engine
/// time it spent.
fn dispatch(
    router: &Router,
    state: &HttpState,
    req: &Request,
) -> Result<(&'static str, &'static str, Vec<u8>, u64, DispatchCost), Failed> {
    use dbsvec_obs::Json;
    let path = req.path.split('?').next().unwrap_or(&req.path);
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => {
            let models: Vec<Json> = router
                .models()
                .iter()
                .map(|m| {
                    Json::obj([
                        ("name", Json::str(m.name())),
                        ("shards", Json::UInt(m.shard_count() as u64)),
                    ])
                })
                .collect();
            let body = Json::obj([
                ("status", Json::str("ok")),
                (
                    "uptime_seconds",
                    Json::UInt(state.started.elapsed().as_secs()),
                ),
                (
                    "requests",
                    Json::UInt(state.requests.load(Ordering::Relaxed)),
                ),
                ("models", Json::Arr(models)),
            ]);
            let (body, serialize_us) = serialized(|| body.to_string());
            Ok((
                "healthz",
                "application/json",
                body,
                0,
                DispatchCost {
                    serialize_us,
                    ..Default::default()
                },
            ))
        }
        ("GET", "/metrics") => {
            let (body, serialize_us) = serialized(|| {
                let mut text = router.metrics_text();
                text.push_str(&state.render());
                text
            });
            Ok((
                "metrics",
                "text/plain; version=0.0.4",
                body,
                0,
                DispatchCost {
                    serialize_us,
                    ..Default::default()
                },
            ))
        }
        ("GET", "/debug/requests") => {
            let (body, serialize_us) = serialized(|| {
                let recorder = state.recorder.lock().unwrap();
                recorder.snapshot_json().to_string()
            });
            Ok((
                "debug_requests",
                "application/json",
                body,
                0,
                DispatchCost {
                    serialize_us,
                    ..Default::default()
                },
            ))
        }
        (method, path) if path.starts_with("/v1/models/") => {
            let rest = &path["/v1/models/".len()..];
            let (name, op) = rest
                .split_once('/')
                .ok_or_else(|| HttpError::NotFound(path.to_string()))?;
            if name.is_empty() {
                return Err(HttpError::NotFound(path.to_string()).into());
            }
            match (method, op) {
                ("POST", "assign") | ("POST", "ingest") | ("DELETE", "points") => {
                    let (endpoint, routed) = match op {
                        "assign" => ("assign", router.assign(name, &req.body)),
                        "ingest" => ("ingest", router.ingest(name, &req.body)),
                        _ => ("remove", router.remove(name, &req.body)),
                    };
                    let (reply, points) =
                        routed.map_err(|failure| Failed::routed(endpoint, failure))?;
                    let (body, serialize_us) = serialized(|| reply.to_string());
                    Ok((
                        endpoint,
                        "application/json",
                        body,
                        points,
                        DispatchCost::from_route(reply.cost, serialize_us),
                    ))
                }
                ("GET", "health") => {
                    let resp = router.health(name)?;
                    let (body, serialize_us) = serialized(|| resp.to_string());
                    Ok((
                        "health",
                        "application/json",
                        body,
                        0,
                        DispatchCost {
                            serialize_us,
                            ..Default::default()
                        },
                    ))
                }
                (_, "assign" | "ingest" | "points" | "health") => {
                    Err(HttpError::MethodNotAllowed {
                        method: method.to_string(),
                        path: path.to_string(),
                    }
                    .into())
                }
                _ => Err(HttpError::NotFound(path.to_string()).into()),
            }
        }
        (_, "/healthz" | "/metrics" | "/debug/requests") => Err(HttpError::MethodNotAllowed {
            method: req.method.clone(),
            path: path.to_string(),
        }
        .into()),
        _ => Err(HttpError::NotFound(path.to_string()).into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: u64, endpoint: &'static str, status: u16, duration_us: u64) -> RequestTrace {
        RequestTrace {
            request_id: id,
            endpoint,
            status,
            points: 1,
            duration_us,
            stages: HttpStages {
                parse_us: 1_000,
                engine_us: 2_000,
                write_us: 1_000,
                ..Default::default()
            },
        }
    }

    /// The golden exposition test for the serving-tier section: pinned
    /// byte-for-byte, like the registry renderer's own golden. Breaks
    /// loudly on any name, help, ordering, or bucketing change.
    #[test]
    fn http_exposition_is_pinned() {
        let state = HttpState::new(8, Some(5_000_000));
        state.record_request(&trace(1, "assign", 200, 4_000));
        state.record_request(&trace(2, "assign", 200, 8_000));
        state.record_request(&trace(3, "error", 400, 1_000));
        state.queue_full.store(1, Ordering::Relaxed);
        state.queue_depth.store(2, Ordering::Relaxed);
        state.workers_busy.store(1, Ordering::Relaxed);
        let text = state.render();
        let expected = "\
# HELP dbsvec_http_requests_total HTTP requests handled by the serving tier.
# TYPE dbsvec_http_requests_total counter
dbsvec_http_requests_total 3
# HELP dbsvec_http_errors_total HTTP requests answered with a 4xx/5xx status.
# TYPE dbsvec_http_errors_total counter
dbsvec_http_errors_total 1
# HELP dbsvec_http_queue_full_total Connections the full accept queue refused and re-offered.
# TYPE dbsvec_http_queue_full_total counter
dbsvec_http_queue_full_total 1
# HELP dbsvec_http_queue_depth Accepted connections waiting for a worker.
# TYPE dbsvec_http_queue_depth gauge
dbsvec_http_queue_depth 2
# HELP dbsvec_http_workers_busy Workers currently handling a connection.
# TYPE dbsvec_http_workers_busy gauge
dbsvec_http_workers_busy 1
# HELP dbsvec_http_request_duration_assign_seconds End-to-end latency of assign requests.
# TYPE dbsvec_http_request_duration_assign_seconds summary
dbsvec_http_request_duration_assign_seconds{quantile=\"0.5\"} 0.004096
dbsvec_http_request_duration_assign_seconds{quantile=\"0.95\"} 0.008
dbsvec_http_request_duration_assign_seconds{quantile=\"0.99\"} 0.008
dbsvec_http_request_duration_assign_seconds_sum 0.012
dbsvec_http_request_duration_assign_seconds_count 2
# HELP dbsvec_http_request_duration_ingest_seconds End-to-end latency of ingest requests.
# TYPE dbsvec_http_request_duration_ingest_seconds summary
dbsvec_http_request_duration_ingest_seconds_sum 0
dbsvec_http_request_duration_ingest_seconds_count 0
# HELP dbsvec_http_request_duration_remove_seconds End-to-end latency of remove requests.
# TYPE dbsvec_http_request_duration_remove_seconds summary
dbsvec_http_request_duration_remove_seconds_sum 0
dbsvec_http_request_duration_remove_seconds_count 0
# HELP dbsvec_http_request_duration_health_seconds End-to-end latency of health requests.
# TYPE dbsvec_http_request_duration_health_seconds summary
dbsvec_http_request_duration_health_seconds_sum 0
dbsvec_http_request_duration_health_seconds_count 0
# HELP dbsvec_http_request_duration_metrics_seconds End-to-end latency of metrics requests.
# TYPE dbsvec_http_request_duration_metrics_seconds summary
dbsvec_http_request_duration_metrics_seconds_sum 0
dbsvec_http_request_duration_metrics_seconds_count 0
# HELP dbsvec_http_request_duration_healthz_seconds End-to-end latency of healthz requests.
# TYPE dbsvec_http_request_duration_healthz_seconds summary
dbsvec_http_request_duration_healthz_seconds_sum 0
dbsvec_http_request_duration_healthz_seconds_count 0
# HELP dbsvec_http_request_duration_debug_requests_seconds End-to-end latency of debug_requests requests.
# TYPE dbsvec_http_request_duration_debug_requests_seconds summary
dbsvec_http_request_duration_debug_requests_seconds_sum 0
dbsvec_http_request_duration_debug_requests_seconds_count 0
# HELP dbsvec_http_request_duration_error_seconds End-to-end latency of error requests.
# TYPE dbsvec_http_request_duration_error_seconds summary
dbsvec_http_request_duration_error_seconds{quantile=\"0.5\"} 0.001
dbsvec_http_request_duration_error_seconds{quantile=\"0.95\"} 0.001
dbsvec_http_request_duration_error_seconds{quantile=\"0.99\"} 0.001
dbsvec_http_request_duration_error_seconds_sum 0.001
dbsvec_http_request_duration_error_seconds_count 1
# HELP dbsvec_http_stage_queue_seconds Time spent in the queue stage, all endpoints.
# TYPE dbsvec_http_stage_queue_seconds summary
dbsvec_http_stage_queue_seconds{quantile=\"0.5\"} 0
dbsvec_http_stage_queue_seconds{quantile=\"0.95\"} 0
dbsvec_http_stage_queue_seconds{quantile=\"0.99\"} 0
dbsvec_http_stage_queue_seconds_sum 0
dbsvec_http_stage_queue_seconds_count 3
# HELP dbsvec_http_stage_parse_seconds Time spent in the parse stage, all endpoints.
# TYPE dbsvec_http_stage_parse_seconds summary
dbsvec_http_stage_parse_seconds{quantile=\"0.5\"} 0.001
dbsvec_http_stage_parse_seconds{quantile=\"0.95\"} 0.001
dbsvec_http_stage_parse_seconds{quantile=\"0.99\"} 0.001
dbsvec_http_stage_parse_seconds_sum 0.003
dbsvec_http_stage_parse_seconds_count 3
# HELP dbsvec_http_stage_route_seconds Time spent in the route stage, all endpoints.
# TYPE dbsvec_http_stage_route_seconds summary
dbsvec_http_stage_route_seconds{quantile=\"0.5\"} 0
dbsvec_http_stage_route_seconds{quantile=\"0.95\"} 0
dbsvec_http_stage_route_seconds{quantile=\"0.99\"} 0
dbsvec_http_stage_route_seconds_sum 0
dbsvec_http_stage_route_seconds_count 3
# HELP dbsvec_http_stage_lock_seconds Time spent in the lock stage, all endpoints.
# TYPE dbsvec_http_stage_lock_seconds summary
dbsvec_http_stage_lock_seconds{quantile=\"0.5\"} 0
dbsvec_http_stage_lock_seconds{quantile=\"0.95\"} 0
dbsvec_http_stage_lock_seconds{quantile=\"0.99\"} 0
dbsvec_http_stage_lock_seconds_sum 0
dbsvec_http_stage_lock_seconds_count 3
# HELP dbsvec_http_stage_engine_seconds Time spent in the engine stage, all endpoints.
# TYPE dbsvec_http_stage_engine_seconds summary
dbsvec_http_stage_engine_seconds{quantile=\"0.5\"} 0.002
dbsvec_http_stage_engine_seconds{quantile=\"0.95\"} 0.002
dbsvec_http_stage_engine_seconds{quantile=\"0.99\"} 0.002
dbsvec_http_stage_engine_seconds_sum 0.006
dbsvec_http_stage_engine_seconds_count 3
# HELP dbsvec_http_stage_serialize_seconds Time spent in the serialize stage, all endpoints.
# TYPE dbsvec_http_stage_serialize_seconds summary
dbsvec_http_stage_serialize_seconds{quantile=\"0.5\"} 0
dbsvec_http_stage_serialize_seconds{quantile=\"0.95\"} 0
dbsvec_http_stage_serialize_seconds{quantile=\"0.99\"} 0
dbsvec_http_stage_serialize_seconds_sum 0
dbsvec_http_stage_serialize_seconds_count 3
# HELP dbsvec_http_stage_write_seconds Time spent in the write stage, all endpoints.
# TYPE dbsvec_http_stage_write_seconds summary
dbsvec_http_stage_write_seconds{quantile=\"0.5\"} 0.001
dbsvec_http_stage_write_seconds{quantile=\"0.95\"} 0.001
dbsvec_http_stage_write_seconds{quantile=\"0.99\"} 0.001
dbsvec_http_stage_write_seconds_sum 0.003
dbsvec_http_stage_write_seconds_count 3
";
        assert_eq!(text, expected);
    }

    #[test]
    fn exposition_parses_and_tracks_errors_and_gauges() {
        let state = HttpState::new(8, None);
        state.record_request(&trace(1, "ingest", 200, 500));
        state.record_request(&trace(2, "error", 503, 90));
        let samples = dbsvec_obs::telemetry::parse_prometheus(&state.render()).expect("parses");
        let get = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name && s.labels.is_empty())
                .unwrap_or_else(|| panic!("missing {name}"))
                .value
        };
        assert_eq!(get("dbsvec_http_requests_total"), 2.0);
        assert_eq!(get("dbsvec_http_errors_total"), 1.0);
        assert_eq!(get("dbsvec_http_queue_full_total"), 0.0);
        assert_eq!(get("dbsvec_http_queue_depth"), 0.0);
        assert_eq!(
            get("dbsvec_http_request_duration_ingest_seconds_count"),
            1.0
        );
        assert_eq!(get("dbsvec_http_stage_engine_seconds_count"), 2.0);
    }

    #[test]
    fn request_ids_increase_monotonically() {
        let state = HttpState::new(4, None);
        let (tx, rx) = std::sync::mpsc::channel();
        for _ in 0..3 {
            finish(
                &state,
                &tx,
                "healthz",
                200,
                0,
                Instant::now(),
                0,
                HttpStages::default(),
            );
        }
        let ids: Vec<u64> = rx.try_iter().map(|r| r.request_id).collect();
        assert_eq!(ids, [1, 2, 3]);
        assert_eq!(state.requests.load(Ordering::Relaxed), 3);
    }
}
