//! The serving workload: `serve_mixed`.
//!
//! The `fit_exact` model, persisted with `snapshot::write_file`, is served
//! over loopback HTTP by an in-process `Server` (2 workers, 1 shard — the
//! `serve-http` defaults) to a closed loop of 2 keep-alive clients. Each
//! client runs a seeded script: about 70% single assigns, 10% 16-point
//! batch assigns, 10% ingests and 10% removes. It is the only workload
//! where the server and the engine work and the SVDD solver is idle.
//!
//! Reads are probes from the model's own distribution. Writes run over a
//! sliding window far outside the data, in episodes that drive every
//! maintenance path of the engine: two dense blobs grow until they are
//! promoted to cores (two new clusters), a bridge point between them
//! merges them, removing the bridge splits them again, and removing the
//! blobs demotes their cores. Promoted cores pile up in the engine's
//! linear tail and dead slots accumulate, so the core kd-tree is rebuilt
//! several times a run. Every ingested point is removed a bounded number
//! of writes later, which keeps the engine's buffer — scanned by every
//! ingest — bounded, so the run reaches a steady state.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dbsvec_core::Dbsvec;
use dbsvec_engine::{snapshot, Engine, EngineMetrics, ModelArtifact};
use dbsvec_geometry::rng::SplitMix64;
use dbsvec_geometry::PointSet;
use dbsvec_obs::telemetry::{parse_prometheus, Sample};
use dbsvec_obs::{Json, NoopObserver};
use dbsvec_server::{Router, Server, ServerConfig, ShutdownFlag};

use crate::checks::{self, EngineCounts};
use crate::fit::FitParams;
use crate::layers::{kd_range_ns, read_probes, sq_dist_bytes, sq_dist_ns};
use crate::report::{
    median, peak_rss_mb, process_cpu_s, thread_cpu_s, LatencyHist, Outcome, END_TO_END, PER_LAYER,
};
use crate::trace::{Span, Trace};

/// The served model's routing name (the snapshot's file stem).
const MODEL: &str = "model";

/// A request that takes longer than this counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Spans written to the trace file at most (3 per request).
const TRACE_FILE_SPANS: usize = 60_000;

/// The serving workload's inputs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServeParams {
    /// The served model's fit.
    pub fit: FitParams,
    /// Distinct read probes.
    pub probes: usize,
    /// Closed-loop keep-alive clients.
    pub clients: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Shards of the served model.
    pub shards: usize,
    /// Points per batch assign.
    pub batch: usize,
    /// Set-ups per run (`setup_s` is their median).
    pub setups: usize,
    /// Warm-up assigns per client per set-up.
    pub warmup: usize,
}

impl ServeParams {
    /// `serve_mixed`: the `fit_exact` model behind 2 workers and 1 shard,
    /// loaded by 2 clients (one per core of the reference box).
    pub const SERVE_MIXED: ServeParams = ServeParams {
        fit: FitParams::FIT_EXACT,
        probes: 4096,
        clients: 2,
        workers: 2,
        shards: 1,
        batch: 16,
        setups: 5,
        warmup: 16,
    };

    /// The parameters as the result stamp records them.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("model_fit", self.fit.to_json()),
            ("probes", Json::UInt(self.probes as u64)),
            ("clients", Json::UInt(self.clients as u64)),
            ("workers", Json::UInt(self.workers as u64)),
            ("shards", Json::UInt(self.shards as u64)),
            ("batch", Json::UInt(self.batch as u64)),
            ("setups", Json::UInt(self.setups as u64)),
            (
                "mix",
                Json::str("70% assign, 10% batch assign, 10% ingest, 10% remove"),
            ),
        ])
    }
}

/// Fits the served model and persists it at `path`.
pub fn prepare_model(fit: &FitParams, seed: u64, path: &Path) -> Result<(), String> {
    let data = fit.dataset(seed);
    let result = Dbsvec::new(fit.config(seed)).fit(&data.points);
    let artifact = ModelArtifact::from_fit(
        &data.points,
        result.labels(),
        result.core_points(),
        fit.eps,
        fit.min_pts as u32,
    )
    .map_err(|e| format!("building the model artifact: {e:?}"))?;
    snapshot::write_file(&artifact, path)
        .map(|_| ())
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Where the served model is fitted.
pub enum ModelSource<'a> {
    /// In this process (its memory then counts in `peak_rss_mb`).
    InProcess,
    /// In a child process running this executable with
    /// `--prepare-model PATH --seed N`, which the run waits for.
    Child(&'a Path),
}

// ---------------------------------------------------------------- writes

/// Placement of the write episodes: far outside the data's `[0, domain]`
/// cube, so no written point comes within ε of a fitted core or a probe.
#[derive(Clone, Copy, Debug)]
struct WriteGeometry {
    dims: usize,
    /// First coordinate of every written point.
    origin: f64,
    /// Distance between concurrent episodes and between clients.
    spacing: f64,
    /// Offset of each blob from the episode's bridge point.
    arm: f64,
    /// Blob points spread by up to this much per coordinate.
    jitter: i64,
    /// Points per blob: exactly MinPts, so the last arrival promotes all.
    blob: usize,
}

impl WriteGeometry {
    fn new(fit: &FitParams) -> Self {
        let g = WriteGeometry {
            dims: fit.dims,
            origin: (fit.walk().domain + 4.0 * fit.eps).round(),
            spacing: (4.0 * fit.eps).round(),
            arm: (0.8 * fit.eps).round(),
            jitter: (0.02 * fit.eps).floor() as i64,
            blob: fit.min_pts,
        };
        assert!(g.dims >= 5, "write episodes need at least 5 dimensions");
        assert!(
            g.blob as i64 <= 2 * g.jitter,
            "eps too small for distinct blob points"
        );
        g
    }

    /// One episode's points in ingest order: blob A, blob B, then the
    /// bridge between them. All coordinates are integers, so they cross
    /// the HTTP boundary exactly.
    ///
    /// Blob points lie within 0.08ε of each other, the bridge within 0.81ε
    /// of every blob point, and the two blobs 1.5ε apart: each blob is
    /// dense on its own, and only the bridge joins them.
    fn episode(&self, client: usize, episode: u64, rng: &mut SplitMix64) -> Vec<Vec<f64>> {
        let center = |arm: f64| {
            let mut c = vec![0.0; self.dims];
            c[0] = self.origin;
            c[1] = client as f64 * self.spacing;
            c[2] = episode as f64 * self.spacing;
            c[3] = arm;
            c
        };
        let mut points = Vec::with_capacity(2 * self.blob + 1);
        for side in [-self.arm, self.arm] {
            for j in 0..self.blob {
                let mut p = center(side);
                p[4] = (j as i64 - self.blob as i64 / 2) as f64;
                for x in &mut p[5..] {
                    *x = (rng.next_below(2 * self.jitter as u64 + 1) as i64 - self.jitter) as f64;
                }
                points.push(p);
            }
        }
        points.push(center(0.0));
        points
    }
}

/// One client's write script. Ingests of episode `e + 1` alternate with
/// removes of episode `e` — bridge first (a split), then blob A (its
/// cores demote at the first removal), then blob B — so every point is
/// removed within two episodes of writes after its ingest. Only the
/// points of the last two episodes are kept; the same seed replays the
/// same script.
struct WriteStream {
    geometry: WriteGeometry,
    client: usize,
    rng: SplitMix64,
    episode: u64,
    /// Points of the live episodes; `points[0]` has id `base`.
    points: VecDeque<Vec<f64>>,
    base: u32,
    /// First id of the episode being ingested.
    current: u32,
    ingests: VecDeque<u32>,
    removes: VecDeque<u32>,
    /// Removal order of the episode being ingested.
    next_removes: Vec<u32>,
    remove_turn: bool,
}

impl WriteStream {
    fn new(geometry: WriteGeometry, client: usize, seed: u64) -> Self {
        Self {
            geometry,
            client,
            rng: SplitMix64::new(seed ^ 0x7772_6974_6573 ^ ((client as u64) << 48)),
            episode: 0,
            points: VecDeque::new(),
            base: 0,
            current: 0,
            ingests: VecDeque::new(),
            removes: VecDeque::new(),
            next_removes: Vec::new(),
            remove_turn: false,
        }
    }

    /// The next write: `(true, id)` ingests point `id`, `(false, id)`
    /// removes it.
    fn next(&mut self) -> (bool, u32) {
        loop {
            if self.remove_turn {
                if let Some(id) = self.removes.pop_front() {
                    self.remove_turn = false;
                    return (false, id);
                }
            }
            if let Some(id) = self.ingests.pop_front() {
                self.remove_turn = true;
                return (true, id);
            }
            if let Some(id) = self.removes.pop_front() {
                return (false, id);
            }
            // Both queues ran dry: the episode before the one just
            // ingested is fully removed, so its points can go.
            while self.base < self.current {
                self.points.pop_front();
                self.base += 1;
            }
            self.removes.extend(self.next_removes.drain(..));
            let first = self.base + self.points.len() as u32;
            let episode = self
                .geometry
                .episode(self.client, self.episode, &mut self.rng);
            self.episode += 1;
            self.points.extend(episode);
            let last = self.base + self.points.len() as u32 - 1;
            self.current = first;
            self.ingests.extend(first..=last);
            self.next_removes.push(last);
            self.next_removes.extend(first..last);
        }
    }

    /// The coordinates of live point `id`.
    fn point(&self, id: u32) -> &[f64] {
        &self.points[(id - self.base) as usize]
    }
}

// ---------------------------------------------------------------- script

/// Request kinds, in metric order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Assign,
    Batch,
    Ingest,
    Remove,
}

const KINDS: [Kind; 4] = [Kind::Assign, Kind::Batch, Kind::Ingest, Kind::Remove];

impl Kind {
    fn index(self) -> usize {
        self as usize
    }

    fn span_names(self) -> [&'static str; 3] {
        match self {
            Kind::Assign => ["request.assign", "router.assign", "engine.classify"],
            Kind::Batch => [
                "request.assign_batch",
                "router.assign_batch",
                "engine.classify_batch",
            ],
            Kind::Ingest => ["request.ingest", "router.ingest", "engine.ingest"],
            Kind::Remove => ["request.remove", "router.remove", "engine.remove"],
        }
    }
}

/// One scripted request: its kind and what it carries — a probe index,
/// an offset into the client's batch log, or a written point's id.
#[derive(Clone, Copy, Debug)]
struct Op {
    kind: Kind,
    arg: u32,
}

/// A request as the client saw it (kept by traced runs for the replay).
#[derive(Clone, Copy, Debug)]
struct Record {
    op: Op,
    start_ns: u64,
    dur_ns: u64,
    ok: bool,
}

/// What one client did during the measured window. Untraced runs keep
/// only fixed-size tallies.
struct ClientLog {
    /// Latencies of correct responses, per kind.
    hist: [LatencyHist; 4],
    attempted: u64,
    completed: u64,
    /// Writes sent: the first `writes_sent` writes of the client's script.
    writes_sent: u64,
    removes_sent: u64,
    removes_found: u64,
    problems: Vec<String>,
    /// CPU seconds the client thread used in the window.
    cpu_s: f64,
    /// Traced runs: every request, and every batch's probe indices.
    records: Vec<Record>,
    batches: Vec<u32>,
    /// Traced runs: request spans of the traced half.
    spans: Vec<Span>,
}

/// Everything a client needs to build and check requests.
struct Shared<'a> {
    probes: &'a PointSet,
    probe_json: Vec<String>,
    expected: &'a [Option<u32>],
    params: &'a ServeParams,
}

fn json_row(p: &[f64]) -> String {
    let coords: Vec<String> = p.iter().map(|v| format!("{v}")).collect();
    format!("[{}]", coords.join(","))
}

/// The HTTP method, path and body of an op; `point` is the written
/// point of an ingest or remove.
fn request_of(
    op: Op,
    batch: &[u32],
    point: Option<&[f64]>,
    s: &Shared<'_>,
) -> (&'static str, &'static str, String) {
    const ASSIGN: &str = "/v1/models/model/assign";
    let written = || {
        format!(
            "{{\"point\":{}}}",
            json_row(point.expect("a written point"))
        )
    };
    match op.kind {
        Kind::Assign => (
            "POST",
            ASSIGN,
            format!("{{\"point\":{}}}", s.probe_json[op.arg as usize]),
        ),
        Kind::Batch => {
            let rows: Vec<&str> = batch
                .iter()
                .map(|&i| s.probe_json[i as usize].as_str())
                .collect();
            (
                "POST",
                ASSIGN,
                format!("{{\"points\":[{}]}}", rows.join(",")),
            )
        }
        Kind::Ingest => ("POST", "/v1/models/model/ingest", written()),
        Kind::Remove => ("DELETE", "/v1/models/model/points", written()),
    }
}

/// Whether a 200 response carries the right answer for `op`.
fn response_ok(op: Op, body: &str, batch: &[u32], s: &Shared<'_>) -> bool {
    match op.kind {
        Kind::Assign => checks::read_matches(body, &[s.expected[op.arg as usize]]),
        Kind::Batch => {
            let want: Vec<Option<u32>> = batch.iter().map(|&i| s.expected[i as usize]).collect();
            checks::read_matches(body, &want)
        }
        Kind::Ingest => dbsvec_obs::json::parse(body)
            .is_ok_and(|j| matches!(j.get("outcome"), Some(Json::Str(o)) if o != "duplicate")),
        Kind::Remove => {
            dbsvec_obs::json::parse(body).is_ok_and(|j| j.get("removed") == Some(&Json::Bool(true)))
        }
    }
}

// ---------------------------------------------------------------- client

/// One keep-alive connection speaking just enough HTTP/1.1.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body.as_bytes())?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::other(format!("bad status line {line:?}")))?;
        let mut length = 0usize;
        loop {
            let mut header = String::new();
            if self.reader.read_line(&mut header)? == 0 {
                return Err(io::Error::other("connection closed mid-headers"));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some(v) = header.to_ascii_lowercase().strip_prefix("content-length:") {
                length = v
                    .trim()
                    .parse()
                    .map_err(|_| io::Error::other("bad content-length"))?;
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }
}

/// The measured window as the clients see it.
#[derive(Clone, Copy)]
struct Window {
    epoch: Instant,
    deadline: Instant,
    /// Traced runs: every request is recorded for the replay, and
    /// requests from here on also record a span.
    trace_from: Option<Instant>,
}

/// Drives one client's script closed-loop until the deadline, checking
/// every response.
fn run_client(
    index: usize,
    mut client: Client,
    addr: SocketAddr,
    seed: u64,
    shared: &Shared<'_>,
    window: Window,
) -> ClientLog {
    let cpu = thread_cpu_s();
    let params = shared.params;
    let mut rng = SplitMix64::new(seed ^ 0x6f70_7321 ^ ((index as u64) << 40));
    let mut writes = WriteStream::new(WriteGeometry::new(&params.fit), index, seed);
    let mut log = ClientLog {
        hist: Default::default(),
        attempted: 0,
        completed: 0,
        writes_sent: 0,
        removes_sent: 0,
        removes_found: 0,
        problems: Vec::new(),
        cpu_s: 0.0,
        records: Vec::new(),
        batches: Vec::new(),
        spans: Vec::new(),
    };
    let mut batch = vec![0u32; params.batch];
    let probes = shared.probes.len() as u64;
    let mut next_span = ((index as u64) + 1) << 40;
    while Instant::now() < window.deadline {
        let u = rng.next_f64();
        let mut point = None;
        let op = if u < 0.7 {
            Op {
                kind: Kind::Assign,
                arg: rng.next_below(probes) as u32,
            }
        } else if u < 0.8 {
            for b in batch.iter_mut() {
                *b = rng.next_below(probes) as u32;
            }
            Op {
                kind: Kind::Batch,
                arg: log.batches.len() as u32,
            }
        } else {
            let (ingest, id) = writes.next();
            log.writes_sent += 1;
            point = Some(id);
            Op {
                kind: if ingest { Kind::Ingest } else { Kind::Remove },
                arg: id,
            }
        };
        let (method, path, body) = request_of(op, &batch, point.map(|id| writes.point(id)), shared);
        let start = Instant::now();
        let reply = client.request(method, path, &body);
        let end = Instant::now();
        let ok = match &reply {
            Ok((200, text)) => response_ok(op, text, &batch, shared),
            _ => false,
        };
        log.attempted += 1;
        let dur_ns = (end - start).as_nanos() as u64;
        if ok {
            log.completed += 1;
            log.hist[op.kind.index()].record(dur_ns);
        }
        if op.kind == Kind::Remove {
            log.removes_sent += 1;
            log.removes_found += ok as u64;
        }
        if window.trace_from.is_some() {
            let start_ns = start.saturating_duration_since(window.epoch).as_nanos() as u64;
            if op.kind == Kind::Batch {
                log.batches.extend_from_slice(&batch);
            }
            log.records.push(Record {
                op,
                start_ns,
                dur_ns,
                ok,
            });
            if window.trace_from.is_some_and(|t| start >= t) {
                log.spans.push(Span {
                    id: next_span,
                    parent: None,
                    name: op.kind.span_names()[0],
                    start_ns,
                    end_ns: start_ns + dur_ns,
                    thread: index as u32,
                });
                next_span += 1;
            }
        }
        if !ok && log.problems.len() < 5 {
            log.problems.push(match &reply {
                Ok((status, text)) => format!("{method} {path} -> {status}: {text}"),
                Err(e) => format!("{method} {path} -> {e}"),
            });
        }
        if reply.is_err() {
            // A broken or timed-out connection: reconnect, or stop if the
            // server is gone.
            match Client::connect(addr) {
                Ok(c) => client = c,
                Err(_) => break,
            }
        }
    }
    log.cpu_s = thread_cpu_s() - cpu;
    log
}

/// Replays the first `count` writes of client `index`'s script into
/// `apply`, in order.
fn replay_writes(
    params: &ServeParams,
    index: usize,
    seed: u64,
    count: u64,
    mut apply: impl FnMut(bool, &[f64]),
) {
    let mut writes = WriteStream::new(WriteGeometry::new(&params.fit), index, seed);
    for _ in 0..count {
        let (ingest, id) = writes.next();
        apply(ingest, writes.point(id));
    }
}

// ---------------------------------------------------------------- server

/// A running server with its warmed-up client connections.
struct Live {
    addr: SocketAddr,
    shutdown: ShutdownFlag,
    handle: std::thread::JoinHandle<io::Result<dbsvec_server::ServerReport>>,
    clients: Vec<Client>,
}

impl Live {
    /// Stops the server and waits for it.
    fn stop(self) -> Result<(), String> {
        drop(self.clients);
        self.shutdown.request();
        match self.handle.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("server run failed: {e}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

/// Set-up: snapshot read and `Router::load_model`, `Server::bind`, and a
/// warmed-up connection per client. Warm-up requests count as attempted
/// operations and are checked like any other.
fn start(model: &Path, shared: &Shared<'_>, out: &mut Outcome) -> Result<(Live, f64), String> {
    let params = shared.params;
    let t = Instant::now();
    let mut router = Router::new();
    router
        .load_model(model, params.shards, None)
        .map_err(|e| format!("loading {}: {e}", model.display()))?;
    let server = Server::bind(
        Arc::new(router),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: params.workers,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("binding: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let shutdown = ShutdownFlag::new();
    let flag = shutdown.clone();
    let handle = std::thread::spawn(move || server.run(&flag, &mut NoopObserver));
    let mut live = Live {
        addr,
        shutdown,
        handle,
        clients: Vec::new(),
    };
    for c in 0..params.clients {
        let mut client = match Client::connect(addr) {
            Ok(client) => client,
            Err(e) => {
                let _ = live.stop();
                return Err(format!("connecting: {e}"));
            }
        };
        for w in 0..params.warmup {
            let op = Op {
                kind: Kind::Assign,
                arg: ((c * params.warmup + w) % shared.probes.len()) as u32,
            };
            let (method, path, body) = request_of(op, &[], None, shared);
            out.attempted += 1;
            match client.request(method, path, &body) {
                Ok((200, text)) if response_ok(op, &text, &[], shared) => {}
                other => out.fail(format!("warm-up {method} {path} -> {other:?}")),
            }
        }
        live.clients.push(client);
    }
    Ok((live, t.elapsed().as_secs_f64()))
}

/// Reads `/metrics` and the model's health after the clients are done.
fn scrape(addr: SocketAddr) -> Result<(Vec<Sample>, Json), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("scrape connect: {e}"))?;
    let (status, text) = client
        .request("GET", "/metrics", "")
        .map_err(|e| format!("GET /metrics: {e}"))?;
    if status != 200 {
        return Err(format!("GET /metrics -> {status}"));
    }
    let samples = parse_prometheus(&text)?;
    let (status, text) = client
        .request("GET", "/v1/models/model/health", "")
        .map_err(|e| format!("GET health: {e}"))?;
    if status != 200 {
        return Err(format!("GET health -> {status}"));
    }
    let health = dbsvec_obs::json::parse(&text)?;
    Ok((samples, health))
}

fn sample(samples: &[Sample], name: &str, quantile: Option<&str>) -> f64 {
    samples
        .iter()
        .find(|s| s.name == name && s.label("quantile") == quantile)
        .map_or(0.0, |s| s.value)
}

fn json_u64(j: &Json, key: &str) -> u64 {
    match j.get(key) {
        Some(Json::Int(v)) => u64::try_from(*v).unwrap_or(0),
        _ => 0,
    }
}

fn shadow_counts(engine: &Engine) -> EngineCounts {
    let s = engine.stats();
    EngineCounts {
        core_points: engine.core_count() as u64,
        clusters: engine.num_clusters() as u64,
        promotions: s.promotions,
        merges: s.merges,
        demotions: s.demotions,
        splits: s.splits,
        removals: s.removals,
        remove_misses: s.remove_misses,
    }
}

// ---------------------------------------------------------------- replay

/// Per-request times of an in-process replay of the window in client
/// start order: the router on the same bodies (no socket), then a shadow
/// engine on the same points.
struct Replay {
    router_ns: Vec<u64>,
    engine_ns: Vec<u64>,
    tail_sum: u64,
    /// `(router start, router end, engine start, engine end)` per request.
    spans: Vec<(u64, u64, u64, u64)>,
}

/// The requests of the window in start order as `(client, record)`, and
/// the written point of each write (regenerated from the scripts).
fn window_order(
    logs: &[ClientLog],
    params: &ServeParams,
    seed: u64,
) -> Vec<(usize, usize, Option<Vec<f64>>)> {
    let mut order: Vec<(usize, usize, Option<Vec<f64>>)> = Vec::new();
    for (c, log) in logs.iter().enumerate() {
        let mut points = Vec::new();
        replay_writes(params, c, seed, log.writes_sent, |_, p| {
            points.push(p.to_vec())
        });
        let mut points = points.into_iter();
        for (i, r) in log.records.iter().enumerate() {
            let point = matches!(r.op.kind, Kind::Ingest | Kind::Remove)
                .then(|| points.next().expect("one point per write"));
            order.push((c, i, point));
        }
    }
    order.sort_by_key(|&(c, i, _)| logs[c].records[i].start_ns);
    order
}

fn replay(
    order: &[(usize, usize, Option<Vec<f64>>)],
    logs: &[ClientLog],
    artifact: &ModelArtifact,
    model: &Path,
    shared: &Shared<'_>,
    trace: &Trace,
) -> Replay {
    let batch_of = |c: usize, r: &Record| -> &[u32] {
        if r.op.kind == Kind::Batch {
            let at = r.op.arg as usize;
            &logs[c].batches[at..at + shared.params.batch]
        } else {
            &[]
        }
    };
    let mut router = Router::new();
    router.add_model(MODEL, model, artifact, shared.params.shards, None);
    let mut router_ns = Vec::with_capacity(order.len());
    let mut spans = Vec::with_capacity(order.len());
    for (c, i, point) in order {
        let r = &logs[*c].records[*i];
        let (_, _, body) = request_of(r.op, batch_of(*c, r), point.as_deref(), shared);
        let t0 = trace.now_ns();
        let reply = match r.op.kind {
            Kind::Assign | Kind::Batch => router.assign(MODEL, body.as_bytes()),
            Kind::Ingest => router.ingest(MODEL, body.as_bytes()),
            Kind::Remove => router.remove(MODEL, body.as_bytes()),
        };
        let t1 = trace.now_ns();
        std::hint::black_box(reply.is_ok());
        router_ns.push(t1 - t0);
        spans.push((t0, t1, 0, 0));
    }
    let mut engine = Engine::new(artifact);
    let mut metrics = EngineMetrics::new();
    let mut engine_ns = Vec::with_capacity(order.len());
    let mut tail_sum = 0u64;
    for (k, (c, i, point)) in order.iter().enumerate() {
        let r = &logs[*c].records[*i];
        tail_sum += engine.health().tail_length as u64;
        let rows: Vec<&[f64]> = batch_of(*c, r)
            .iter()
            .map(|&p| shared.probes.point(p))
            .collect();
        let t0 = trace.now_ns();
        match r.op.kind {
            Kind::Assign => {
                std::hint::black_box(engine.assign(shared.probes.point(r.op.arg)));
            }
            Kind::Batch => {
                std::hint::black_box(engine.assign_many(&rows, 1, &mut metrics));
            }
            Kind::Ingest => {
                std::hint::black_box(engine.ingest(point.as_deref().expect("a write")));
            }
            Kind::Remove => {
                std::hint::black_box(engine.remove(point.as_deref().expect("a write")));
            }
        }
        let t1 = trace.now_ns();
        engine_ns.push(t1 - t0);
        spans[k].2 = t0;
        spans[k].3 = t1;
    }
    Replay {
        router_ns,
        engine_ns,
        tail_sum,
        spans,
    }
}

// ---------------------------------------------------------------- run

/// Runs `serve_mixed` for `seconds` and checks every response and the
/// end state. Model preparation and set-up happen before the window;
/// traced runs replay the window in process afterwards and write spans to
/// `trace_path`.
pub fn run_serve(
    params: &ServeParams,
    seed: u64,
    seconds: f64,
    traced: bool,
    work_dir: &Path,
    source: ModelSource<'_>,
    trace_path: Option<&Path>,
) -> Outcome {
    let mut out = Outcome::default();
    let model = work_dir.join(format!("{MODEL}.dbm"));
    let prepared = match source {
        ModelSource::InProcess => prepare_model(&params.fit, seed, &model),
        ModelSource::Child(exe) => std::process::Command::new(exe)
            .arg("--prepare-model")
            .arg(&model)
            .args(["--seed", &seed.to_string()])
            .status()
            .map_err(|e| format!("starting the model fit: {e}"))
            .and_then(|s| {
                s.success()
                    .then_some(())
                    .ok_or_else(|| format!("the model fit exited with {s}"))
            }),
    };
    let table = if traced {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let artifact = match prepared.and_then(|()| {
        snapshot::read_file(&model)
            .map(|(a, _)| a)
            .map_err(|e| format!("reading {}: {e}", model.display()))
    }) {
        Ok(a) => a,
        Err(e) => {
            out.fail(e);
            out.zero_missing(table);
            return out;
        }
    };

    let data = params.fit.dataset(seed);
    let (probes, truth) = read_probes(&data, &params.fit.walk(), params.probes, seed);
    drop(data);
    let shadow = Engine::new(&artifact);
    let expected: Vec<Option<u32>> = (0..probes.len() as u32)
        .map(|i| shadow.classify(probes.point(i)).cluster())
        .collect();
    drop(shadow);
    let shared = Shared {
        probes: &probes,
        probe_json: (0..probes.len() as u32)
            .map(|i| json_row(probes.point(i)))
            .collect(),
        expected: &expected,
        params,
    };

    let mut setups = Vec::new();
    let mut live = None;
    for k in 0..params.setups.max(1) {
        match start(&model, &shared, &mut out) {
            Ok((l, secs)) => {
                setups.push(secs);
                if k + 1 < params.setups {
                    if let Err(e) = l.stop() {
                        out.fail(e);
                    }
                } else {
                    live = Some(l);
                }
            }
            Err(e) => {
                out.fail(e);
                break;
            }
        }
    }
    let Some(mut live) = live else {
        out.zero_missing(table);
        return out;
    };

    // ---- The measured window.
    let mut trace = Trace::new();
    let begin = Instant::now();
    let window = Window {
        epoch: trace.epoch(),
        deadline: begin + Duration::from_secs_f64(seconds),
        trace_from: traced.then(|| begin + Duration::from_secs_f64(seconds / 2.0)),
    };
    let addr = live.addr;
    let clients = std::mem::take(&mut live.clients);
    let cpu = process_cpu_s();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let shared = &shared;
                scope.spawn(move || run_client(c, client, addr, seed, shared, window))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let window_s = begin.elapsed().as_secs_f64();
    let client_cpu: f64 = logs.iter().map(|l| l.cpu_s).sum();
    let server_cpu = process_cpu_s() - cpu - client_cpu;
    let peak_rss = peak_rss_mb();

    let scraped = scrape(addr);
    if let Err(e) = live.stop() {
        out.fail(e);
    }

    // ---- Per-request outcomes.
    let completed: u64 = logs.iter().map(|l| l.completed).sum();
    let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    out.attempted += attempted;
    out.failed += attempted - completed;
    for log in &logs {
        out.problems.extend(log.problems.iter().cloned());
    }
    let removes_sent: u64 = logs.iter().map(|l| l.removes_sent).sum();
    let removes_found: u64 = logs.iter().map(|l| l.removes_found).sum();
    let found_ratio = removes_found as f64 / removes_sent.max(1) as f64;

    // ---- End-of-run checks: replay each client's writes.
    let mut written = Vec::new();
    let mut shadow = Engine::new(&artifact);
    for (c, log) in logs.iter().enumerate() {
        replay_writes(params, c, seed, log.writes_sent, |ingest, p| {
            if ingest {
                written.extend_from_slice(p);
                shadow.ingest(p);
            } else {
                shadow.remove(p);
            }
        });
    }
    if let Err(e) = checks::writes_far(
        written.chunks(params.fit.dims),
        &artifact.cores,
        &probes,
        params.fit.eps,
    ) {
        out.fail(e);
    }
    drop(written);
    let shadow_end = shadow_counts(&shadow);
    let (samples, health) = match scraped {
        Ok(s) => s,
        Err(e) => {
            out.fail(e);
            (Vec::new(), Json::Null)
        }
    };
    let counter = |name: &str| sample(&samples, name, None) as u64;
    let served = EngineCounts {
        core_points: json_u64(&health, "core_points"),
        clusters: json_u64(&health, "clusters"),
        promotions: counter("dbsvec_promotions_total"),
        merges: counter("dbsvec_merges_total"),
        demotions: counter("dbsvec_demotions_total"),
        splits: counter("dbsvec_splits_total"),
        removals: counter("dbsvec_removals_total"),
        remove_misses: counter("dbsvec_remove_misses_total"),
    };
    let rebuilds = counter("dbsvec_tree_rebuilds_total");
    if let Err(e) = checks::end_state_matches(&served, &shadow_end) {
        out.fail(e);
    }
    if let Err(e) = checks::write_paths_exercised(&served, rebuilds) {
        out.fail(e);
    }

    // ---- Figures.
    let mut all = LatencyHist::new();
    let mut kinds: [LatencyHist; 4] = Default::default();
    for log in &logs {
        for (k, h) in kinds.iter_mut().zip(&log.hist) {
            k.merge(h);
            all.merge(h);
        }
    }
    let cpu_ms = server_cpu / completed.max(1) as f64 * 1e3;
    let ari = dbsvec_metrics::adjusted_rand_index(&truth, &expected);
    out.notes.push(format!(
        "requests_per_s {:.1} 1/s ({completed} completed in {window_s:.3} s); server cpu \
         {cpu_ms:.4} ms per request ({server_cpu:.2} s server, {client_cpu:.2} s clients)",
        completed as f64 / window_s,
    ));
    out.notes.push(format!(
        "model: {} cores, {} clusters; ari_vs_truth {ari:.6} over {} probes; setup {:.4} s \
         (median of {})",
        artifact.cores.len(),
        artifact.num_clusters,
        probes.len(),
        median(&setups),
        setups.len(),
    ));
    for (k, h) in KINDS.iter().zip(&kinds) {
        let name = k.span_names()[0].trim_start_matches("request.");
        out.notes.push(format!(
            "{name}_p50_us {:.1} us; {name}_p99_us {:.1} us ({} correct responses)",
            h.quantile_ns(0.5) * 1e-3,
            h.quantile_ns(0.99) * 1e-3,
            h.count(),
        ));
    }
    out.notes.push(format!(
        "engine writes: promotions {} merges {} demotions {} splits {} tree_rebuilds {} \
         removals {}; removes found {removes_found}/{removes_sent} = {found_ratio:.4}; \
         end state {} cores, {} clusters",
        served.promotions,
        served.merges,
        served.demotions,
        served.splits,
        rebuilds,
        served.removals,
        served.core_points,
        served.clusters,
    ));

    if !traced {
        out.set("latency_p50_ms", all.quantile_ns(0.5) * 1e-6);
        out.set("cpu_ms_per_op", cpu_ms);
        out.set("ari_vs_truth", ari);
        out.set("setup_s", median(&setups));
        out.set("peak_rss_mb", peak_rss);
        return out;
    }

    // ---- Traced: replay the window in process for the layer times.
    let order = window_order(&logs, params, seed);
    let rep = replay(&order, &logs, &artifact, &model, &shared, &trace);
    let from_ns = window.trace_from.map_or(0, |t| trace.ns_at(t));
    let mut http_us = Vec::new();
    let mut engine_us: [Vec<f64>; 4] = Default::default();
    let (mut router_sum, mut client_sum) = (0u64, 0u64);
    let mut span_of: HashMap<(u32, u64), &Span> = HashMap::new();
    for log in &logs {
        for s in &log.spans {
            span_of.insert((s.thread, s.start_ns), s);
        }
    }
    for (k, (c, i, _)) in order.iter().enumerate() {
        let r = &logs[*c].records[*i];
        engine_us[r.op.kind.index()].push(rep.engine_ns[k] as f64 * 1e-3);
        if r.start_ns < from_ns || !r.ok {
            continue;
        }
        let router = rep.router_ns[k].min(r.dur_ns);
        http_us.push((r.dur_ns - router) as f64 * 1e-3);
        router_sum += router;
        client_sum += r.dur_ns;
        if let Some(&request) = span_of.get(&(*c as u32, r.start_ns)) {
            // Children carry the replay's own clock; the parent link ties
            // them to the request they re-enact.
            trace.spans.push(request.clone());
            let (r0, r1, e0, e1) = rep.spans[k];
            let names = r.op.kind.span_names();
            let router_id = trace.push(Some(request.id), names[1], r0, r1);
            trace.push(Some(router_id), names[2], e0, e1);
        }
    }
    let half = |later: bool| -> Vec<f64> {
        logs.iter()
            .flat_map(|l| l.records.iter())
            .filter(|r| r.ok && (r.start_ns >= from_ns) == later)
            .map(|r| r.dur_ns as f64)
            .collect()
    };
    let stage = |s: &str| {
        sample(
            &samples,
            &format!("dbsvec_http_stage_{s}_seconds"),
            Some("0.5"),
        ) * 1e6
    };
    out.set("server.parse_us", stage("parse"));
    out.set("server.lock_us", stage("lock"));
    out.set("server.serialize_us", stage("serialize"));
    out.set("server.write_us", stage("write"));
    let router_us: Vec<f64> = rep.router_ns.iter().map(|&n| n as f64 * 1e-3).collect();
    out.set("server.router_us", median(&router_us));
    out.set("server.http_us", median(&http_us));
    out.set(
        "engine.classify_us",
        median(&engine_us[Kind::Assign.index()]),
    );
    out.set("engine.ingest_us", median(&engine_us[Kind::Ingest.index()]));
    out.set("engine.remove_us", median(&engine_us[Kind::Remove.index()]));
    out.set(
        "engine.tail_len_mean",
        rep.tail_sum as f64 / order.len().max(1) as f64,
    );
    out.set("engine.tree_rebuilds", rebuilds as f64);
    out.set("engine.promotions", served.promotions as f64);
    out.set("engine.merges", served.merges as f64);
    out.set("engine.demotions", served.demotions as f64);
    out.set("engine.splits", served.splits as f64);
    out.set("engine.remove_found_ratio", found_ratio);
    let names = [
        ("client.assign_p50_us", "client.assign_p99_us"),
        ("client.assign_batch_p50_us", "client.assign_batch_p99_us"),
        ("client.ingest_p50_us", "client.ingest_p99_us"),
        ("client.remove_p50_us", "client.remove_p99_us"),
    ];
    for ((p50, p99), h) in names.iter().zip(&kinds) {
        out.set(p50, h.quantile_ns(0.5) * 1e-3);
        out.set(p99, h.quantile_ns(0.99) * 1e-3);
    }
    out.set("client.request_p99_us", all.quantile_ns(0.99) * 1e-3);
    out.set(
        "obs.trace_overhead_pct",
        (median(&half(true)) / median(&half(false)) - 1.0) * 100.0,
    );
    out.set(
        "obs.accounted_pct",
        router_sum as f64 / client_sum.max(1) as f64 * 100.0,
    );
    out.set("geometry.sq_dist_ns", sq_dist_ns(&artifact.cores));
    out.set("geometry.sq_dist_bytes", sq_dist_bytes(params.fit.dims));
    out.set(
        "index.kd_range_ns",
        kd_range_ns(&artifact.cores, &probes, params.fit.eps),
    );
    if let Some(path) = trace_path {
        if let Err(e) = trace.write_jsonl(path, TRACE_FILE_SPANS) {
            out.notes
                .push(format!("could not write spans to {}: {e}", path.display()));
        }
    }
    out
}
