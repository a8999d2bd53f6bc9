//! The routing core: models → shards → per-shard engines.
//!
//! A [`Router`] owns one [`ModelEntry`] per served model; each entry owns
//! N [`Shard`]s, each a `Mutex` around an [`Engine`] (which owns its
//! quality monitor, when the model is served with one) plus its
//! [`EngineMetrics`]. A shard's rows of an assign request go through one
//! [`Engine::assign_many`] call, which times every row into the shard's
//! metrics; ingest and remove requests call [`Engine::ingest`] /
//! [`Engine::remove`] per row and time each call. Two routing modes
//! compose:
//!
//! * **Name-based** (multi-model): the `{name}` path segment picks the
//!   entry.
//! * **Point-to-shard** (sharded single model): within an entry, a point
//!   hashes — FNV-1a over its coordinate bits, so the mapping is
//!   consistent across requests and processes — to one shard. Assignment
//!   is pure, so any shard answers identically; ingest routed this way
//!   keeps each point's density bookkeeping on one shard.
//!
//! Lock granularity is the shard: two HTTP workers hitting different
//! shards (or different models) never contend. Batch bodies group their
//! rows per shard and take each shard lock once, then scatter results
//! back into request order.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use dbsvec_engine::{
    snapshot, Assignment, Engine, EngineConfig, EngineMetrics, EngineStats, HealthSnapshot,
    IngestOutcome, ModelArtifact, MonitorConfig, RemoveOutcome, SnapshotError,
};
use dbsvec_obs::telemetry::render_prometheus;
use dbsvec_obs::Json;

use crate::http::HttpError;

/// Lock-wait and engine-compute time one routed request accumulated
/// across its shard groups, in microseconds. The server stamps these into
/// the request's stage breakdown ([`dbsvec_obs::HttpStages`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteCost {
    /// Total time blocked acquiring per-shard locks.
    pub lock_us: u64,
    /// Engine compute spent under those locks.
    pub engine_us: u64,
}

/// What a routed assign, ingest or remove answers: the response object
/// and what computing it cost. Displays as the response's JSON text.
#[derive(Debug)]
pub struct Reply {
    /// The response object.
    pub body: Json,
    /// Lock wait and engine time across the request's shard groups.
    pub cost: RouteCost,
}

impl fmt::Display for Reply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.body.fmt(f)
    }
}

/// A routed assign, ingest or remove that failed: the error it answers
/// with, and the lock wait and engine time it spent first if a shard's
/// engine answered. Only a single-point remove of an untracked point fails
/// after its engine answered; every other failure (an unknown model, a bad
/// body) comes before any lock, with `cost` `None`.
#[derive(Debug)]
pub struct RouteError {
    /// The error the request answers with.
    pub error: HttpError,
    /// Lock wait and engine time spent before the failure, if any engine
    /// answered.
    pub cost: Option<RouteCost>,
}

impl From<HttpError> for RouteError {
    fn from(error: HttpError) -> Self {
        Self { error, cost: None }
    }
}

fn micros(d: std::time::Duration) -> u64 {
    d.as_micros() as u64
}

/// Folds one shard's health into a model- or router-wide aggregate:
/// counts sum, staleness takes the worst shard, refit evidence ORs.
fn fold_health(agg: Option<HealthSnapshot>, h: HealthSnapshot) -> Option<HealthSnapshot> {
    Some(match agg {
        None => h,
        Some(mut a) => {
            a.staleness = a.staleness.max(h.staleness);
            a.refit_recommended = a.refit_recommended || h.refit_recommended;
            a.core_points += h.core_points;
            a.tail_length += h.tail_length;
            a.clusters += h.clusters;
            a.buffered_points += h.buffered_points;
            a.tree_rebuilds += h.tree_rebuilds;
            a
        }
    })
}

/// One shard: an engine plus its per-shard telemetry.
pub struct Shard {
    engine: Engine,
    metrics: EngineMetrics,
    /// State-changing ingests since the last persist (duplicates do not
    /// count — they change nothing worth snapshotting).
    mutations: u64,
    snapshot_writes: u64,
    snapshot_loads: u64,
}

impl Shard {
    /// The engine behind this shard.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Whether this shard has unpersisted mutations.
    pub fn dirty(&self) -> bool {
        self.mutations > 0
    }
}

/// One served model: a name, the snapshot it was loaded from, its
/// dimensionality, and its shards.
pub struct ModelEntry {
    name: String,
    path: PathBuf,
    /// Fixed by the artifact, so request parsing reads it without a lock.
    dims: usize,
    shards: Vec<Mutex<Shard>>,
}

impl ModelEntry {
    /// The model's routing name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of shards serving this model.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

/// The sharded multi-model router.
#[derive(Default)]
pub struct Router {
    models: Vec<ModelEntry>,
}

/// FNV-1a over the coordinate bit patterns: the consistent point-to-shard
/// hash. Little-endian `f64::to_bits` bytes make the mapping exact and
/// platform-independent for identical inputs.
pub fn point_shard(x: &[f64], shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in x {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (h % shards as u64) as usize
}

fn assignment_json(a: Assignment) -> Json {
    match a.cluster() {
        Some(c) => Json::UInt(c as u64),
        None => Json::Null,
    }
}

/// The response to an assign or ingest body: its one answer under `one`,
/// or the count and every answer under `many` for the batch shape.
fn answers_json(
    name: &str,
    batch: bool,
    (one, many): (&'static str, &'static str),
    answers: Vec<Json>,
) -> Json {
    if batch {
        Json::obj([
            ("model", Json::str(name)),
            ("count", Json::UInt(answers.len() as u64)),
            (many, Json::Arr(answers)),
        ])
    } else {
        let answer = answers.into_iter().next().expect("single-point body");
        Json::obj([("model", Json::str(name)), (one, answer)])
    }
}

/// Runs one operation over a request's rows: groups the row indices by
/// [`point_shard`], takes each shard's lock once, hands `work` that
/// shard's rows in request order, and returns the answers in request
/// order with the lock wait and engine time they took.
fn per_shard<T: Copy>(
    entry: &ModelEntry,
    rows: &[Vec<f64>],
    mut work: impl FnMut(&mut Shard, &[&[f64]]) -> Vec<T>,
) -> (Vec<T>, RouteCost) {
    let shard_count = entry.shards.len();
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); shard_count];
    for (i, row) in rows.iter().enumerate() {
        groups[point_shard(row, shard_count)].push(i);
    }
    let mut answers: Vec<Option<T>> = vec![None; rows.len()];
    let mut cost = RouteCost::default();
    for (cell, group) in entry.shards.iter().zip(&groups) {
        if group.is_empty() {
            continue;
        }
        let lock_start = Instant::now();
        let mut shard = cell.lock().unwrap();
        cost.lock_us += micros(lock_start.elapsed());
        let engine_start = Instant::now();
        let group_rows: Vec<&[f64]> = group.iter().map(|&i| rows[i].as_slice()).collect();
        for (&i, answer) in group.iter().zip(work(&mut shard, &group_rows)) {
            answers[i] = Some(answer);
        }
        cost.engine_us += micros(engine_start.elapsed());
    }
    let answers = answers
        .into_iter()
        .map(|a| a.expect("every row was routed to a shard"))
        .collect();
    (answers, cost)
}

fn outcome_slug(out: IngestOutcome) -> &'static str {
    match out {
        IngestOutcome::Duplicate => "duplicate",
        IngestOutcome::Core { .. } => "core",
        IngestOutcome::Border { .. } => "border",
        IngestOutcome::Buffered => "buffered",
    }
}

/// Decoded body of an assign/ingest request: coordinate rows plus whether
/// the client sent the single-point (`{"point":[..]}`) or the batch
/// (`{"points":[[..],..]}`) shape.
pub struct PointsBody {
    /// The coordinate rows.
    pub rows: Vec<Vec<f64>>,
    /// True for the batch shape (the response echoes an array back).
    pub batch: bool,
}

fn row_from_json(v: &Json, dims: usize) -> Result<Vec<f64>, HttpError> {
    let arr = match v {
        Json::Arr(items) => items,
        other => {
            return Err(HttpError::BadBody(format!(
                "point must be an array of numbers, got {other}"
            )))
        }
    };
    let mut row = Vec::with_capacity(arr.len());
    for item in arr {
        match item {
            // The JSON parser reads an out-of-range literal such as
            // `1e999` as ±∞; no index or engine path accepts it.
            Json::Num(f) if !f.is_finite() => {
                return Err(HttpError::BadBody(format!("non-finite coordinate: {f}")))
            }
            Json::Num(f) => row.push(*f),
            Json::Int(i) => row.push(*i as f64),
            Json::UInt(u) => row.push(*u as f64),
            other => {
                return Err(HttpError::BadBody(format!(
                    "non-numeric coordinate: {other}"
                )))
            }
        }
    }
    if row.len() != dims {
        return Err(HttpError::BadBody(format!(
            "point has {} coordinates, model expects {dims}",
            row.len()
        )));
    }
    Ok(row)
}

/// Parses an assign/ingest body against the model's dimensionality.
pub fn parse_points_body(body: &[u8], dims: usize) -> Result<PointsBody, HttpError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| HttpError::BadJson("body is not UTF-8".to_string()))?;
    let value = dbsvec_obs::json::parse(text).map_err(HttpError::BadJson)?;
    if let Some(p) = value.get("point") {
        return Ok(PointsBody {
            rows: vec![row_from_json(p, dims)?],
            batch: false,
        });
    }
    if let Some(ps) = value.get("points") {
        let items = match ps {
            Json::Arr(items) => items,
            other => {
                return Err(HttpError::BadBody(format!(
                    "\"points\" must be an array of arrays, got {other}"
                )))
            }
        };
        if items.is_empty() {
            return Err(HttpError::BadBody("\"points\" is empty".to_string()));
        }
        let rows = items
            .iter()
            .map(|v| row_from_json(v, dims))
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(PointsBody { rows, batch: true });
    }
    Err(HttpError::BadBody(
        "body must carry \"point\" or \"points\"".to_string(),
    ))
}

impl Router {
    /// An empty router (add models with [`Router::add_model`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a model from an already-decoded artifact, building `shards`
    /// independent engines over it. `monitor` gives every shard's engine
    /// its own quality monitor ([`EngineConfig::monitor`]).
    pub fn add_model(
        &mut self,
        name: impl Into<String>,
        path: impl Into<PathBuf>,
        artifact: &ModelArtifact,
        shards: usize,
        monitor: Option<MonitorConfig>,
    ) {
        let shards = shards.max(1);
        let name = name.into();
        let config = EngineConfig {
            monitor,
            ..EngineConfig::default()
        };
        let entries = (0..shards)
            .map(|_| {
                Mutex::new(Shard {
                    engine: Engine::with_config(artifact, config),
                    metrics: EngineMetrics::new(),
                    mutations: 0,
                    snapshot_writes: 0,
                    snapshot_loads: 1,
                })
            })
            .collect();
        self.models.push(ModelEntry {
            name,
            path: path.into(),
            dims: artifact.dims(),
            shards: entries,
        });
    }

    /// Loads a `.dbm` snapshot and adds it under the file-stem name.
    pub fn load_model(
        &mut self,
        path: impl AsRef<Path>,
        shards: usize,
        monitor: Option<MonitorConfig>,
    ) -> Result<(), SnapshotError> {
        let path = path.as_ref();
        let (artifact, _) = snapshot::read_file(path)?;
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        self.add_model(name, path, &artifact, shards, monitor);
        Ok(())
    }

    /// The served models, in registration order.
    pub fn models(&self) -> &[ModelEntry] {
        &self.models
    }

    fn entry(&self, name: &str) -> Result<&ModelEntry, HttpError> {
        self.models
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| HttpError::NotFound(format!("/v1/models/{name}")))
    }

    /// Classifies the body's points against `name`, hashing each point to
    /// its shard and batching per shard through [`Engine::assign_many`].
    /// Returns the reply and the number of points served.
    pub fn assign(&self, name: &str, body: &[u8]) -> Result<(Reply, u64), RouteError> {
        let entry = self.entry(name)?;
        let parsed = parse_points_body(body, entry.dims)?;
        let (answers, cost) = per_shard(entry, &parsed.rows, |shard, rows| {
            shard.engine.assign_many(rows, 1, &mut shard.metrics)
        });
        let clusters = answers.into_iter().map(assignment_json).collect();
        let body = answers_json(name, parsed.batch, ("cluster", "clusters"), clusters);
        Ok((Reply { body, cost }, parsed.rows.len() as u64))
    }

    /// Ingests the body's points into `name`, hashing each point to its
    /// shard so density bookkeeping for a given point stays on one engine.
    pub fn ingest(&self, name: &str, body: &[u8]) -> Result<(Reply, u64), RouteError> {
        let entry = self.entry(name)?;
        let parsed = parse_points_body(body, entry.dims)?;
        let (outcomes, cost) = per_shard(entry, &parsed.rows, |shard, rows| {
            rows.iter()
                .map(|row| {
                    let start = Instant::now();
                    let out = shard.engine.ingest(row);
                    shard.metrics.record_ingest(start.elapsed());
                    if !matches!(out, IngestOutcome::Duplicate) {
                        shard.mutations += 1;
                    }
                    out
                })
                .collect()
        });
        let slugs = outcomes
            .into_iter()
            .map(|o| Json::str(outcome_slug(o)))
            .collect();
        let body = answers_json(name, parsed.batch, ("outcome", "outcomes"), slugs);
        Ok((Reply { body, cost }, parsed.rows.len() as u64))
    }

    /// Removes the body's points from `name`, hashing each point to its
    /// shard (the same mapping that routed its ingest, so the removal
    /// lands on the engine tracking it). A single-point body naming an
    /// untracked point answers a typed 404; a batch body answers 200
    /// with per-point outcomes.
    pub fn remove(&self, name: &str, body: &[u8]) -> Result<(Reply, u64), RouteError> {
        let entry = self.entry(name)?;
        let parsed = parse_points_body(body, entry.dims)?;
        let (outcomes, cost) = per_shard(entry, &parsed.rows, |shard, rows| {
            rows.iter()
                .map(|row| {
                    let start = Instant::now();
                    let out = shard.engine.remove(row);
                    shard.metrics.record_remove(start.elapsed(), out);
                    if !matches!(out, RemoveOutcome::NotFound) {
                        shard.mutations += 1;
                    }
                    out
                })
                .collect()
        });
        let n = outcomes.len() as u64;
        if !parsed.batch {
            return match outcomes[0] {
                RemoveOutcome::NotFound => Err(RouteError {
                    error: HttpError::UnknownPoint(format!("{:?}", parsed.rows[0].as_slice())),
                    cost: Some(cost),
                }),
                RemoveOutcome::Removed {
                    was_core,
                    demoted,
                    splits,
                } => Ok((
                    Reply {
                        body: Json::obj([
                            ("model", Json::str(name)),
                            ("removed", Json::Bool(true)),
                            ("was_core", Json::Bool(was_core)),
                            ("demoted", Json::UInt(demoted as u64)),
                            ("splits", Json::UInt(splits as u64)),
                        ]),
                        cost,
                    },
                    1,
                )),
            };
        }
        let removed = outcomes
            .iter()
            .filter(|o| !matches!(o, RemoveOutcome::NotFound))
            .count() as u64;
        let items: Vec<Json> = outcomes
            .into_iter()
            .map(|o| match o {
                RemoveOutcome::NotFound => Json::obj([("removed", Json::Bool(false))]),
                RemoveOutcome::Removed {
                    was_core,
                    demoted,
                    splits,
                } => Json::obj([
                    ("removed", Json::Bool(true)),
                    ("was_core", Json::Bool(was_core)),
                    ("demoted", Json::UInt(demoted as u64)),
                    ("splits", Json::UInt(splits as u64)),
                ]),
            })
            .collect();
        let body = Json::obj([
            ("model", Json::str(name)),
            ("count", Json::UInt(n)),
            ("removed", Json::UInt(removed)),
            ("outcomes", Json::Arr(items)),
        ]);
        Ok((Reply { body, cost }, n))
    }

    /// One model's health, folded across its shards: counts sum,
    /// staleness takes the worst shard, refit evidence ORs.
    pub fn health(&self, name: &str) -> Result<Json, HttpError> {
        let entry = self.entry(name)?;
        let mut agg: Option<HealthSnapshot> = None;
        let mut dirty = 0u64;
        for shard in &entry.shards {
            let shard = shard.lock().unwrap();
            dirty += shard.dirty() as u64;
            agg = fold_health(agg, shard.engine.health());
        }
        let h = agg.expect("a model always has at least one shard");
        let mut fields = vec![
            ("model", Json::str(name)),
            ("shards", Json::UInt(entry.shards.len() as u64)),
            ("dirty_shards", Json::UInt(dirty)),
            ("core_points", Json::UInt(h.core_points as u64)),
            ("clusters", Json::UInt(h.clusters as u64)),
            ("buffered_points", Json::UInt(h.buffered_points as u64)),
            ("tail_length", Json::UInt(h.tail_length as u64)),
            ("staleness", Json::Num(h.staleness)),
            ("refit_recommended", Json::Bool(h.refit_recommended)),
        ];
        if let Some(s) = h.sampling {
            fields.push(("sampling", Json::Str(s.describe())));
        }
        Ok(Json::obj(fields))
    }

    /// Builds the aggregate metrics registry across every shard of every
    /// model: counters (quality windows and drift alerts included) from
    /// summed [`EngineStats`], gauges from folded health, per-call latency
    /// histograms merged shard by shard. The drift and occupancy gauges
    /// are those of the worst monitored shard: the highest smoothed drift
    /// score, the first in model and shard order on ties — the worst-shard
    /// rule the folded health applies to staleness.
    pub fn aggregate_metrics(&self) -> EngineMetrics {
        let mut agg = EngineMetrics::new();
        let mut stats = EngineStats::default();
        let mut health: Option<HealthSnapshot> = None;
        let mut writes = 0u64;
        let mut loads = 0u64;
        let mut worst: Option<(f64, &Mutex<Shard>)> = None;
        for entry in &self.models {
            for cell in &entry.shards {
                let shard = cell.lock().unwrap();
                let s = shard.engine.stats();
                stats.assigns += s.assigns;
                stats.assign_hits += s.assign_hits;
                stats.ingests += s.ingests;
                stats.duplicates += s.duplicates;
                stats.promotions += s.promotions;
                stats.new_clusters += s.new_clusters;
                stats.merges += s.merges;
                stats.removals += s.removals;
                stats.remove_misses += s.remove_misses;
                stats.demotions += s.demotions;
                stats.splits += s.splits;
                stats.tree_rebuilds += s.tree_rebuilds;
                stats.quality_windows += s.quality_windows;
                stats.drift_alerts += s.drift_alerts;
                health = fold_health(health, shard.engine.health());
                writes += shard.snapshot_writes;
                loads += shard.snapshot_loads;
                agg.merge_assign_latencies(shard.metrics.assign_latency().histogram());
                agg.merge_ingest_latencies(shard.metrics.ingest_latency().histogram());
                agg.merge_remove_latencies(shard.metrics.remove_latency().histogram());
                agg.merge_split_latencies(shard.metrics.split_latency().histogram());
                if let Some(monitor) = shard.engine.monitor() {
                    let score = monitor.signals().map_or(0.0, |s| s.smoothed_score);
                    if worst.map_or(true, |(top, _)| score > top) {
                        worst = Some((score, cell));
                    }
                }
            }
        }
        if let Some((_, cell)) = worst {
            // Publishes that monitor's state; the stats and health it also
            // writes are overwritten by the aggregate below.
            agg.refresh(&cell.lock().unwrap().engine);
        }
        if let Some(h) = health {
            agg.refresh_from_parts(&stats, &h);
        }
        agg.set_snapshot_counts(writes, loads);
        agg
    }

    /// The aggregate registry rendered as Prometheus text.
    pub fn metrics_text(&self) -> String {
        render_prometheus(self.aggregate_metrics().registry())
    }

    /// Persists every dirty shard as `<stem>.shard<k>.dbm` next to the
    /// snapshot it was loaded from (never overwriting the input), and
    /// marks it clean. Returns `(path, bytes)` per written snapshot.
    pub fn persist_dirty(&self) -> Result<Vec<(PathBuf, u64)>, SnapshotError> {
        let mut written = Vec::new();
        for entry in &self.models {
            let stem = entry
                .path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| entry.name.clone());
            let dir = entry.path.parent().unwrap_or_else(|| Path::new("."));
            for (k, shard) in entry.shards.iter().enumerate() {
                let mut shard = shard.lock().unwrap();
                if !shard.dirty() {
                    continue;
                }
                let path = dir.join(format!("{stem}.shard{k}.dbm"));
                let artifact = shard.engine.snapshot();
                let bytes = snapshot::write_file(&artifact, &path)?;
                shard.snapshot_writes += 1;
                shard.mutations = 0;
                written.push((path, bytes));
            }
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsvec_geometry::PointSet;

    fn artifact() -> ModelArtifact {
        let mut cores = PointSet::new(2);
        let mut labels = Vec::new();
        for i in 0..5 {
            cores.push(&[i as f64, 0.0]);
            labels.push(0);
        }
        for i in 0..5 {
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

    fn body(points: &[[f64; 2]]) -> Vec<u8> {
        let rows: Vec<String> = points
            .iter()
            .map(|p| format!("[{},{}]", p[0], p[1]))
            .collect();
        format!("{{\"points\":[{}]}}", rows.join(",")).into_bytes()
    }

    #[test]
    fn point_shard_is_consistent_and_in_range() {
        for shards in [1usize, 2, 3, 8] {
            for i in 0..50 {
                let p = [i as f64 * 0.37, (i % 7) as f64];
                let s = point_shard(&p, shards);
                assert!(s < shards);
                assert_eq!(s, point_shard(&p, shards), "hash must be stable");
            }
        }
    }

    #[test]
    fn sharded_assign_matches_an_unsharded_engine() {
        let art = artifact();
        let mut reference = Engine::new(&art);
        let mut router = Router::new();
        router.add_model("m", "m.dbm", &art, 3, None);
        let queries: Vec<[f64; 2]> = (0..40)
            .map(|i| [(i % 7) as f64, (i % 3) as f64 * 50.0])
            .collect();
        let (resp, n) = router.assign("m", &body(&queries)).unwrap();
        assert_eq!(n, 40);
        let clusters = match resp.body.get("clusters") {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("bad response: {other:?}"),
        };
        for (q, got) in queries.iter().zip(clusters) {
            let want = match reference.assign(q).cluster() {
                Some(c) => Json::UInt(c as u64),
                None => Json::Null,
            };
            assert_eq!(got, want, "query {q:?}");
        }
    }

    #[test]
    fn single_point_shape_round_trips() {
        let mut router = Router::new();
        router.add_model("m", "m.dbm", &artifact(), 2, None);
        let (resp, n) = router.assign("m", b"{\"point\":[2.0,0.5]}").unwrap();
        assert_eq!(n, 1);
        assert_eq!(resp.body.get("cluster"), Some(&Json::UInt(0)));
        let (resp, _) = router.assign("m", b"{\"point\":[50.0,50.0]}").unwrap();
        assert_eq!(resp.body.get("cluster"), Some(&Json::Null));
    }

    #[test]
    fn unknown_model_is_not_found() {
        let mut router = Router::new();
        router.add_model("m", "m.dbm", &artifact(), 1, None);
        let err = router
            .assign("ghost", b"{\"point\":[0,0]}")
            .unwrap_err()
            .error;
        assert!(matches!(err, HttpError::NotFound(_)));
        assert_eq!(err.status(), 404);
    }

    #[test]
    fn bad_bodies_are_typed() {
        let mut router = Router::new();
        router.add_model("m", "m.dbm", &artifact(), 1, None);
        assert!(matches!(
            router.assign("m", b"not json").unwrap_err().error,
            HttpError::BadJson(_)
        ));
        assert!(matches!(
            router.assign("m", b"{\"nope\":1}").unwrap_err().error,
            HttpError::BadBody(_)
        ));
        assert!(matches!(
            router.assign("m", b"{\"point\":[1.0]}").unwrap_err().error,
            HttpError::BadBody(_) // dims mismatch
        ));
        assert!(matches!(
            router.assign("m", b"{\"points\":[]}").unwrap_err().error,
            HttpError::BadBody(_)
        ));
        assert!(matches!(
            router
                .assign("m", b"{\"point\":[1.0,\"x\"]}")
                .unwrap_err()
                .error,
            HttpError::BadBody(_)
        ));
    }

    #[test]
    fn ingest_marks_shards_dirty_and_duplicates_do_not() {
        let mut router = Router::new();
        router.add_model("m", "m.dbm", &artifact(), 2, None);
        let (resp, n) = router
            .ingest("m", b"{\"points\":[[2.0,0.4],[2.0,0.4],[70.0,70.0]]}")
            .unwrap();
        assert_eq!(n, 3);
        let outcomes = match resp.body.get("outcomes") {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("bad response: {other:?}"),
        };
        assert_eq!(outcomes[1], Json::str("duplicate"));
        let dirty: usize = router.models()[0]
            .shards
            .iter()
            .filter(|s| s.lock().unwrap().dirty())
            .count();
        assert!(dirty >= 1, "a non-duplicate ingest must dirty its shard");
    }

    #[test]
    fn a_failed_remove_reports_the_lock_wait_it_spent() {
        let mut router = Router::new();
        router.add_model("m", "m.dbm", &artifact(), 1, None);
        let hold = std::time::Duration::from_millis(200);
        let (locked, wait_for_lock) = std::sync::mpsc::channel();
        let err = std::thread::scope(|scope| {
            scope.spawn(|| {
                let _shard = router.models()[0].shards[0].lock().unwrap();
                locked.send(()).unwrap();
                std::thread::sleep(hold);
            });
            wait_for_lock.recv().unwrap();
            router.remove("m", b"{\"point\":[9.0,9.0]}").unwrap_err()
        });
        assert!(matches!(err.error, HttpError::UnknownPoint(_)));
        // The remove waited out most of the hold before its engine
        // answered that the point is untracked.
        let cost = err.cost.expect("the engine answered");
        assert!(cost.lock_us >= 50_000, "{cost:?}");
        // A remove that fails before any lock reports no cost.
        let err = router.remove("m", b"not json").unwrap_err();
        assert!(matches!(err.error, HttpError::BadJson(_)));
        assert!(err.cost.is_none());
    }

    #[test]
    fn remove_routes_to_the_ingesting_shard_and_types_unknowns() {
        let mut router = Router::new();
        router.add_model("m", "m.dbm", &artifact(), 3, None);
        router
            .ingest("m", b"{\"points\":[[2.0,0.4],[70.0,70.0]]}")
            .unwrap();
        // Batch: one tracked buffered point, one fitted core, one unknown.
        let (resp, n) = router
            .remove("m", b"{\"points\":[[70.0,70.0],[2.0,0.0],[9.0,9.0]]}")
            .unwrap();
        assert_eq!(n, 3);
        assert_eq!(resp.body.get("removed"), Some(&Json::UInt(2)));
        let outcomes = match resp.body.get("outcomes") {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("bad response: {other:?}"),
        };
        assert_eq!(outcomes[0].get("removed"), Some(&Json::Bool(true)));
        assert_eq!(outcomes[0].get("was_core"), Some(&Json::Bool(false)));
        assert_eq!(outcomes[1].get("was_core"), Some(&Json::Bool(true)));
        assert_eq!(outcomes[2].get("removed"), Some(&Json::Bool(false)));
        // Single-point unknown: typed 404, not a 200 envelope.
        let err = router
            .remove("m", b"{\"point\":[9.0,9.0]}")
            .unwrap_err()
            .error;
        assert!(matches!(err, HttpError::UnknownPoint(_)));
        assert_eq!(err.status(), 404);
        // Single-point known: flat response object, shard goes dirty.
        let (resp, _) = router.remove("m", b"{\"point\":[2.0,0.4]}").unwrap();
        assert_eq!(resp.body.get("removed"), Some(&Json::Bool(true)));
        let agg = router.aggregate_metrics();
        assert_eq!(
            agg.registry().counter_value("dbsvec_removals_total"),
            Some(3)
        );
        assert_eq!(
            agg.registry().counter_value("dbsvec_remove_misses_total"),
            Some(2)
        );
        assert_eq!(agg.remove_latency().histogram().count(), 5);
    }

    #[test]
    fn health_aggregates_across_shards() {
        let mut router = Router::new();
        router.add_model("m", "m.dbm", &artifact(), 2, None);
        let h = router.health("m").unwrap();
        assert_eq!(h.get("shards"), Some(&Json::UInt(2)));
        // Each shard holds a full copy of the model's cores.
        assert_eq!(h.get("core_points"), Some(&Json::UInt(20)));
        assert_eq!(h.get("refit_recommended"), Some(&Json::Bool(false)));
    }

    #[test]
    fn aggregate_metrics_sum_stats_and_merge_latencies() {
        let mut router = Router::new();
        router.add_model("a", "a.dbm", &artifact(), 2, None);
        router.add_model("b", "b.dbm", &artifact(), 1, None);
        router
            .assign("a", &body(&[[2.0, 0.5], [3.0, 0.5], [50.0, 50.0]]))
            .unwrap();
        router.assign("b", b"{\"point\":[2.0,0.5]}").unwrap();
        let agg = router.aggregate_metrics();
        let reg = agg.registry();
        assert_eq!(reg.counter_value("dbsvec_assigns_total"), Some(4));
        assert_eq!(agg.assign_latency().histogram().count(), 4);
        assert_eq!(reg.counter_value("dbsvec_snapshot_loads_total"), Some(3));
        let text = router.metrics_text();
        assert!(text.contains("dbsvec_assigns_total 4"));
    }

    #[test]
    fn persist_dirty_writes_only_dirty_shards_and_resets() {
        let dir = std::env::temp_dir().join(format!("dbsvec-router-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let model_path = dir.join("m.dbm");
        let mut router = Router::new();
        router.add_model("m", &model_path, &artifact(), 2, None);
        assert!(router.persist_dirty().unwrap().is_empty(), "nothing dirty");
        router.ingest("m", b"{\"point\":[2.0,0.4]}").unwrap();
        let written = router.persist_dirty().unwrap();
        assert_eq!(written.len(), 1, "exactly the mutated shard persists");
        let (path, bytes) = &written[0];
        assert!(path.to_string_lossy().contains("m.shard"));
        assert!(*bytes > 0);
        let (reloaded, _) = snapshot::read_file(path).unwrap();
        assert!(reloaded.validate().is_ok());
        assert!(router.persist_dirty().unwrap().is_empty(), "clean again");
        std::fs::remove_dir_all(&dir).ok();
    }
}
