//! The online serving engine: assignment, ingest, promotion, staleness.
//!
//! [`Engine`] wraps a loaded [`ModelArtifact`] behind the two operations a
//! serving system needs:
//!
//! * [`Engine::assign`] — classify an observation by the DBSCAN rule the
//!   paper's noise verification uses: the cluster of the nearest core
//!   point within ε, or noise. Served by bounded nearest-neighbour
//!   searches of a kd-tree over the core points and of a second kd-tree
//!   over the tail of recently promoted cores (re-indexed every 64
//!   promotions, so at most 63 are scanned directly) until a periodic
//!   rebuild folds the tail into the main tree.
//!   Equidistant cores resolve to the smaller slot, so an answer depends
//!   on the live cores alone, not on when the last rebuild happened.
//! * [`Engine::ingest`] — absorb an observation into the model. A point
//!   whose tracked ε-neighborhood reaches MinPts becomes a core point
//!   immediately; otherwise it is buffered, and buffered points are
//!   promoted as later arrivals densify their neighborhoods. Promotion
//!   next to cores of different clusters merges those clusters.
//! * [`Engine::remove`] — delete a tracked observation from the model.
//!   Removal decrements the tracked ε-neighborhood counts around the
//!   point, **demotes** any core whose count falls below MinPts back to
//!   the buffer, and repairs the cluster structure exactly: the core
//!   graph (cores within ε of each other) is maintained in a
//!   [`Connectivity`] spanning forest, so a removal that disconnects a
//!   cluster is detected and the cluster **split** into its true pieces.
//!
//! The engine counts only the points *it tracks* (cores + buffered
//! arrivals, with exact-coordinate dedup), so its neighborhood counts are
//! **underestimates** of the true density. The useful consequence:
//! re-ingesting the training set is a no-op — cores are duplicates, and
//! every border/noise point's true neighborhood was already below MinPts,
//! so an underestimate cannot promote it, spawn a cluster, or merge
//! anything. The decremental invariant mirrors the incremental one: with
//! `L` the tracked set (fitted cores plus ingests minus removals), a
//! point is core iff `|N_ε(p) ∩ L| ≥ MinPts`, and clusters are the
//! connected components of the core graph. The one asymmetry is
//! *grandfathering*: a fitted core whose tracked count starts below
//! MinPts (its fit-time density came from border points the engine never
//! tracked) keeps core status until a removal inside its ε-neighborhood
//! drops the count further — deterministic, and exact for any model
//! whose cores are mutually dense (see the interleaving oracle harness).
//!
//! Online maintenance degrades a fitted model over time (new cores are
//! attached by the incremental rule, not by a full re-expansion; removed
//! witnesses are only counted approximately), so the engine tracks a
//! [`Engine::staleness`] ratio — accumulated topology changes, removals
//! included, relative to the fitted core count — and recommends a re-fit
//! once it passes 25%. An engine built with [`EngineConfig::monitor`]
//! also owns a [`QualityMonitor`]: every answer and ingest outcome folds
//! into its windows, and its smoothed drift score is refit evidence too.
//!
//! Each operation has one method and one `_observed` form that forwards
//! its events to an [`Observer`]; batches of assignments go through
//! [`Engine::assign_many`], which times every row into [`EngineMetrics`].
//! Timing a single call is the caller's business.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use dbsvec_core::Connectivity;
use dbsvec_geometry::{squared_euclidean, PointSet};
use dbsvec_index::{nearer, OwnedKdTree, RangeIndex};
use dbsvec_obs::{Event, Histogram, NoopObserver, Observer, ReplayCounts};

use crate::artifact::{ClusterBoundary, ModelArtifact, QualityBaseline, SamplingInfo};
use crate::metrics::EngineMetrics;
use crate::monitor::{DriftSignals, MonitorConfig, QualityMonitor, WindowReport};

/// Result of classifying one observation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Assignment {
    /// The point lies within ε of a core point of this cluster.
    Cluster(u32),
    /// No core point within ε.
    Noise,
}

impl Assignment {
    /// The cluster id, or `None` for noise.
    pub fn cluster(self) -> Option<u32> {
        match self {
            Assignment::Cluster(c) => Some(c),
            Assignment::Noise => None,
        }
    }
}

/// What happened to an ingested observation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestOutcome {
    /// Exact duplicate of an already-tracked point; nothing changed.
    Duplicate,
    /// Dense on arrival — entered the core set of this cluster.
    Core {
        /// Compact cluster id the point joined (ids may shift after later
        /// merges).
        cluster: u32,
    },
    /// Within ε of a core point but not dense: a border point of that
    /// core's cluster, buffered for possible future promotion.
    Border {
        /// Cluster of the nearest core point.
        cluster: u32,
    },
    /// No core point within ε yet; buffered.
    Buffered,
}

/// What happened to a removal request ([`Engine::remove`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RemoveOutcome {
    /// The point is not tracked (never ingested, or already removed);
    /// nothing changed.
    NotFound,
    /// The point left the tracked set.
    Removed {
        /// Whether it was a core point (`false`: a buffered observation).
        was_core: bool,
        /// Cores whose tracked ε-neighborhoods fell below MinPts and
        /// were demoted back to the buffer.
        demoted: u32,
        /// Cluster splits the structural repair produced (a component
        /// breaking into `k` pieces counts `k - 1`).
        splits: u32,
    },
}

/// Where a tracked coordinate vector currently lives.
#[derive(Clone, Copy, Debug)]
enum Tracked {
    /// A core point, by slot id (kd-tree order, then tail order).
    Core(u32),
    /// A buffered observation, by index into the buffer.
    Buffered(u32),
}

/// Counters the engine accumulates over its lifetime.
///
/// A view, built by [`Engine::stats`]: every field except `new_clusters`
/// and `tree_rebuilds` (which no event marks) is a field of the engine's
/// fold of the events it emitted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Assignments answered.
    pub assigns: u64,
    /// Assignments that landed in a cluster.
    pub assign_hits: u64,
    /// Observations ingested (including duplicates).
    pub ingests: u64,
    /// Ingests dropped as exact duplicates.
    pub duplicates: u64,
    /// Points promoted to core (at ingest or from the buffer).
    pub promotions: u64,
    /// Promotions that spawned a brand-new cluster.
    pub new_clusters: u64,
    /// Cluster merges caused by promotions.
    pub merges: u64,
    /// Tracked points removed ([`Engine::remove`] hits).
    pub removals: u64,
    /// Removal requests for untracked points (no-ops).
    pub remove_misses: u64,
    /// Cores demoted below MinPts by removals.
    pub demotions: u64,
    /// Cluster splits repaired after removals (a component breaking
    /// into `k` pieces counts `k - 1`).
    pub splits: u64,
    /// Times the core kd-tree was rebuilt to fold in the tail or compact
    /// tombstones (re-indexing the tail's own tree is not counted).
    pub tree_rebuilds: u64,
    /// Tumbling windows the quality monitor completed (0 without one).
    pub quality_windows: u64,
    /// Completed windows whose smoothed drift score crossed the monitor's
    /// threshold.
    pub drift_alerts: u64,
}

/// One coherent point-in-time read of the engine's operational health.
///
/// Cheap to produce (a handful of field reads), so poll it as often as a
/// scraper likes. All fields describe the same instant, unlike chaining
/// the individual getters across mutations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HealthSnapshot {
    /// Accumulated topology drift per fitted core ([`Engine::staleness`]).
    pub staleness: f64,
    /// Whether the refit evidence crossed a threshold: staleness past
    /// [`EngineConfig::refit_threshold`], or — with a monitor attached —
    /// the monitor's smoothed drift score past its alert threshold.
    pub refit_recommended: bool,
    /// Current core points (fitted + promoted).
    pub core_points: usize,
    /// Promoted cores awaiting the next kd-tree rebuild.
    pub tail_length: usize,
    /// Current number of clusters.
    pub clusters: usize,
    /// Observations buffered below the density threshold.
    pub buffered_points: usize,
    /// Times the core kd-tree has been rebuilt.
    pub tree_rebuilds: u64,
    /// Distribution-drift evidence from the quality monitor's last
    /// completed window. `None` without a monitor, or when the monitor has
    /// no baseline or no completed window yet.
    pub drift: Option<DriftSignals>,
    /// Provenance of a sampled fit (`None` when the model was fitted
    /// exactly) — quality expectations differ for a model discovered
    /// from a core-candidate subsample.
    pub sampling: Option<SamplingInfo>,
}

/// A buffered (not-yet-core) observation and its tracked neighbor count.
#[derive(Clone, Debug)]
struct Buffered {
    coords: Vec<f64>,
    /// Tracked points within ε, **including the point itself**.
    count: u32,
}

/// Default staleness ratio above which [`Engine::refit_recommended`]
/// fires ([`EngineConfig::refit_threshold`]'s default).
pub const REFIT_THRESHOLD: f64 = 0.25;

/// Tunable serving knobs, applied at construction via
/// [`Engine::with_config`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineConfig {
    /// Staleness ratio above which a refit is recommended. Lower values
    /// trade refit churn for model freshness.
    pub refit_threshold: f64,
    /// Attaches a [`QualityMonitor`] with these tunables (`None`: no drift
    /// monitoring).
    pub monitor: Option<MonitorConfig>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            refit_threshold: REFIT_THRESHOLD,
            monitor: None,
        }
    }
}

impl EngineConfig {
    /// The default configuration ([`REFIT_THRESHOLD`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the staleness ratio above which a refit is recommended.
    ///
    /// # Panics
    ///
    /// Panics when the threshold is not positive and finite.
    pub fn with_refit_threshold(mut self, threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "refit threshold must be positive and finite, got {threshold}"
        );
        self.refit_threshold = threshold;
        self
    }

    /// Attaches a quality monitor configured by `monitor`.
    pub fn with_monitor(mut self, monitor: MonitorConfig) -> Self {
        self.monitor = Some(monitor);
        self
    }
}

/// Fold the tail into the kd-tree once it exceeds
/// `max(REBUILD_MIN_TAIL, indexed/4)`. Also the longest run of tail cores
/// left outside a kd-tree ([`Tail`]).
const REBUILD_MIN_TAIL: usize = 64;

/// Compact dead (removed/demoted) slots out of the kd-tree and tail once
/// they exceed `max(COMPACT_MIN_DEAD, slots/4)`.
const COMPACT_MIN_DEAD: usize = 16;

/// The cores promoted since the last fold, in slot order after the main
/// kd-tree: `indexed`, a kd-tree over the older ones, then `recent`, the
/// fewer than `REBUILD_MIN_TAIL` newest, scanned directly. Each full
/// `recent` run is re-indexed together with `indexed` into one tree.
#[derive(Debug)]
struct Tail {
    indexed: OwnedKdTree,
    recent: PointSet,
}

impl Tail {
    fn new(dims: usize) -> Self {
        Self {
            indexed: OwnedKdTree::build(PointSet::new(dims)),
            recent: PointSet::new(dims),
        }
    }

    /// Cores in the tail, live and tombstoned.
    fn len(&self) -> usize {
        self.indexed.len() + self.recent.len()
    }

    /// Coordinates at tail offset `i`.
    fn point(&self, i: usize) -> &[f64] {
        match i.checked_sub(self.indexed.len()) {
            None => self.indexed.points().point(i as u32),
            Some(r) => self.recent.point(r as u32),
        }
    }

    /// Every tail core's coordinates, in offset order.
    fn points(&self) -> impl Iterator<Item = &[f64]> {
        self.indexed
            .points()
            .iter()
            .chain(self.recent.iter())
            .map(|(_, p)| p)
    }

    /// Re-indexes a full `recent` run: moves the indexed points out of
    /// their tree, appends the run, and builds one tree over the union.
    fn settle(&mut self) {
        if self.recent.len() < REBUILD_MIN_TAIL {
            return;
        }
        let Tail { indexed, recent } = std::mem::replace(self, Tail::new(self.recent.dims()));
        let mut points = indexed.into_points();
        for (_, p) in recent.iter() {
            points.push(p);
        }
        self.indexed = OwnedKdTree::build(points);
    }
}

/// An online ingest/assign/remove server over a fitted model.
pub struct Engine {
    eps: f64,
    eps_sq: f64,
    min_pts: u32,
    dims: usize,
    /// Static kd-tree over the bulk of the core points.
    tree: OwnedKdTree,
    /// Cores promoted since the last rebuild, in their own kd-tree plus
    /// a short unindexed run, until the next fold moves them into `tree`.
    tail: Tail,
    /// Dynamic connectivity over the core graph (cores within ε of each
    /// other); vertex ids equal slot ids (tree order then tail order).
    conn: Connectivity,
    /// Whether each slot still holds a live core (removals and demotions
    /// tombstone slots until the next compaction).
    alive: Vec<bool>,
    /// Tombstoned slots awaiting compaction.
    dead: usize,
    /// Tracked points within ε of each core slot, **including itself**
    /// — the decremental mirror of [`Buffered::count`].
    core_counts: Vec<u32>,
    /// Eager slot → compact-label map (maintained on every topology
    /// change, so classification needs only `&self`). Dead slots hold
    /// `u32::MAX`.
    display: Vec<u32>,
    num_display: usize,
    buffered: Vec<Buffered>,
    /// Where each tracked coordinate vector (by exact bit pattern)
    /// currently lives.
    tracked: HashMap<Vec<u64>, Tracked>,
    /// Fit-time SVDD boundaries; dropped on the first topology change
    /// (they describe clusters that no longer exist as fitted).
    boundaries: Option<Vec<ClusterBoundary>>,
    /// Fit-time quality baseline; dropped on the first topology change
    /// like the boundaries (its occupancy is indexed by the fitted
    /// cluster ids). The monitor keeps its own copy, so drift is still
    /// scored against the original fit after promotions.
    quality: Option<QualityBaseline>,
    /// Drift monitor over served traffic ([`EngineConfig::monitor`]).
    monitor: Option<QualityMonitor>,
    /// Sampled-fit provenance; survives topology changes (unlike the
    /// boundaries and baseline, it describes how the fit was *made*, not
    /// the current topology).
    sampling: Option<SamplingInfo>,
    config: EngineConfig,
    initial_cores: usize,
    /// Every event the engine has emitted, folded into counts (see
    /// [`Engine::emit`]).
    counts: ReplayCounts,
    /// Promotions that spawned a brand-new cluster.
    new_clusters: u64,
    /// Times the core kd-tree was rebuilt.
    tree_rebuilds: u64,
}

fn coord_key(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

impl Engine {
    /// Builds an engine from a loaded artifact.
    ///
    /// The artifact must be valid ([`ModelArtifact::validate`]); the
    /// snapshot loader guarantees this, and [`ModelArtifact::from_fit`]
    /// cannot produce an invalid one.
    pub fn new(artifact: &ModelArtifact) -> Self {
        Self::with_config(artifact, EngineConfig::default())
    }

    /// [`Engine::new`] with explicit serving knobs.
    ///
    /// Load builds the decremental bookkeeping: per-core tracked
    /// neighborhood counts and the core-graph connectivity structure.
    /// Geometric ε-edges are added between same-label cores only — the
    /// fitted labels are ground truth, and a cross-label ε-pair reflects
    /// a separation the fit established with evidence the engine no
    /// longer holds. Where a label's cores fall into several geometric
    /// pieces (possible for hand-built artifacts; a DBSCAN-faithful fit
    /// yields none), minimal *glue* edges chain the pieces so the load
    /// reproduces the fitted partition exactly; such a cluster
    /// under-splits on removals until the glue is torn down.
    pub fn with_config(artifact: &ModelArtifact, config: EngineConfig) -> Self {
        debug_assert!(artifact.validate().is_ok());
        let dims = artifact.cores.dims();
        let tree = OwnedKdTree::build(artifact.cores.clone());
        let n = tree.len();
        let labels = &artifact.core_labels;
        let mut conn = Connectivity::new();
        for _ in 0..n {
            conn.add_vertex();
        }
        let mut core_counts = vec![0u32; n];
        let mut hits = Vec::new();
        for i in 0..n {
            hits.clear();
            tree.range(tree.points().point(i as u32), artifact.eps, &mut hits);
            core_counts[i] = hits.len() as u32; // the range query includes i itself
            for &j in &hits {
                if (j as usize) < i && labels[j as usize] == labels[i] {
                    conn.add_edge(i as u32, j);
                }
            }
        }
        for l in 0..artifact.num_clusters {
            let mut anchors: Vec<u32> = Vec::new();
            let mut reps: Vec<u32> = Vec::new();
            for s in 0..n as u32 {
                if labels[s as usize] != l {
                    continue;
                }
                let r = conn.rep(s);
                if !reps.contains(&r) {
                    reps.push(r);
                    anchors.push(s);
                }
            }
            for w in anchors.windows(2) {
                conn.add_edge(w[0], w[1]);
            }
        }
        let mut tracked = HashMap::with_capacity(n);
        for (i, p) in artifact.cores.iter() {
            tracked.insert(coord_key(p), Tracked::Core(i));
        }
        Self {
            eps: artifact.eps,
            eps_sq: artifact.eps * artifact.eps,
            min_pts: artifact.min_pts,
            dims,
            tree,
            tail: Tail::new(dims),
            conn,
            alive: vec![true; n],
            dead: 0,
            core_counts,
            display: labels.clone(),
            num_display: artifact.num_clusters as usize,
            buffered: Vec::new(),
            tracked,
            boundaries: artifact.boundaries.clone(),
            quality: artifact.quality.clone(),
            monitor: config
                .monitor
                .map(|m| QualityMonitor::from_parts(artifact.eps, artifact.quality.as_ref(), m)),
            sampling: artifact.sampling,
            config,
            initial_cores: artifact.cores.len(),
            counts: ReplayCounts::default(),
            new_clusters: 0,
            tree_rebuilds: 0,
        }
    }

    /// The serving knobs the engine was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The assignment radius ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The promotion density threshold MinPts.
    pub fn min_pts(&self) -> u32 {
        self.min_pts
    }

    /// Dimensionality of the served space.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Current number of core points (fitted + promoted − removed).
    pub fn core_count(&self) -> usize {
        self.tree.len() + self.tail.len() - self.dead
    }

    /// Current number of clusters.
    pub fn num_clusters(&self) -> usize {
        self.num_display
    }

    /// Observations buffered below the density threshold.
    pub fn buffered_count(&self) -> usize {
        self.buffered.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> EngineStats {
        let c = &self.counts;
        EngineStats {
            assigns: c.assigns,
            assign_hits: c.assign_hits,
            ingests: c.ingests,
            duplicates: c.ingest_duplicates,
            promotions: c.promotions,
            new_clusters: self.new_clusters,
            merges: c.merges,
            removals: c.removals,
            remove_misses: c.remove_misses,
            demotions: c.demotions,
            splits: c.splits,
            tree_rebuilds: self.tree_rebuilds,
            quality_windows: c.quality_windows,
            drift_alerts: c.drift_alerts,
        }
    }

    /// Counts `event` and forwards it to the observer: the one way an
    /// event leaves the engine.
    fn emit(&mut self, obs: &mut dyn Observer, event: Event) {
        self.counts.record(&event);
        obs.event(&event);
    }

    /// Emits a completed quality window, and its alert if one was raised.
    fn emit_window(&mut self, report: &WindowReport, obs: &mut dyn Observer) {
        self.emit(obs, report.window_event());
        if let Some(alert) = report.alert_event() {
            self.emit(obs, alert);
        }
    }

    /// Fit-time SVDD boundaries, while still faithful (dropped on the
    /// first promotion or merge).
    pub fn boundaries(&self) -> Option<&[ClusterBoundary]> {
        self.boundaries.as_deref()
    }

    /// Fit-time quality baseline, while still faithful (dropped on the
    /// first promotion or merge, like the boundaries).
    pub fn quality(&self) -> Option<&QualityBaseline> {
        self.quality.as_ref()
    }

    /// Provenance of a sampled fit, if the loaded model carried it.
    pub fn sampling(&self) -> Option<SamplingInfo> {
        self.sampling
    }

    /// The attached quality monitor, scoring against the fit-time
    /// baseline (degraded, staleness-only mode when the model had none).
    pub fn monitor(&self) -> Option<&QualityMonitor> {
        self.monitor.as_ref()
    }

    /// Accumulated topology drift relative to the fitted model:
    /// promotions, merges, removals, demotions, splits, and
    /// still-buffered points, per fitted core point.
    pub fn staleness(&self) -> f64 {
        let c = &self.counts;
        let drift = c.promotions
            + c.merges
            + c.removals
            + c.demotions
            + c.splits
            + self.buffered.len() as u64;
        drift as f64 / (self.initial_cores.max(1)) as f64
    }

    /// Whether the drift warrants re-fitting from scratch: staleness at
    /// or past [`EngineConfig::refit_threshold`], or the monitor's
    /// smoothed drift score at or past its alert threshold.
    pub fn refit_recommended(&self) -> bool {
        self.staleness() >= self.config.refit_threshold
            || self
                .monitor
                .as_ref()
                .is_some_and(QualityMonitor::drift_exceeded)
    }

    /// One coherent snapshot of the engine's operational health.
    pub fn health(&self) -> HealthSnapshot {
        HealthSnapshot {
            staleness: self.staleness(),
            refit_recommended: self.refit_recommended(),
            core_points: self.core_count(),
            tail_length: self.tail.len(),
            clusters: self.num_display,
            buffered_points: self.buffered.len(),
            tree_rebuilds: self.tree_rebuilds,
            drift: self.monitor.as_ref().and_then(QualityMonitor::signals),
            sampling: self.sampling,
        }
    }

    /// Pure classification: nearest core within ε, else noise. Touches no
    /// counters, so it needs only `&self`.
    pub fn classify(&self, x: &[f64]) -> Assignment {
        self.classify_scored(x).0
    }

    /// [`Engine::classify`] that also reports the distance to the nearest
    /// core for cluster hits — the quantity the quality monitor windows.
    /// Shared by the single and batch paths, and safe to call from scoped
    /// threads.
    fn classify_scored(&self, x: &[f64]) -> (Assignment, Option<f64>) {
        assert_eq!(x.len(), self.dims, "query dimensionality mismatch");
        match self.nearest_core(x) {
            Some((d_sq, slot)) => (
                Assignment::Cluster(self.display[slot as usize]),
                Some(d_sq.sqrt()),
            ),
            None => (Assignment::Noise, None),
        }
    }

    /// Squared distance and slot id of the nearest live core within ε:
    /// one bounded search of the main kd-tree, one of the tail's tree, and
    /// a scan of the tail's unindexed newest cores (tombstoned slots are
    /// skipped). Ties go to the smaller slot ([`nearer`]), so the answer
    /// is a function of the live cores alone, not of when the tail was
    /// last re-indexed or folded.
    fn nearest_core(&self, x: &[f64]) -> Option<(f64, u32)> {
        let alive = |slot: u32| self.alive[slot as usize];
        let mut best = self.tree.nearest_within(x, self.eps, alive);
        let mut offer = |candidate: (f64, u32)| {
            if best.map_or(true, |b| nearer(candidate, b)) {
                best = Some(candidate);
            }
        };
        let base = self.tree.len() as u32;
        let tail = &self.tail.indexed;
        if let Some((d, i)) = tail.nearest_within(x, self.eps, |i| alive(base + i)) {
            offer((d, base + i));
        }
        let offset = base + tail.len() as u32;
        for (i, p) in self.tail.recent.iter() {
            if alive(offset + i) {
                let d = squared_euclidean(p, x);
                if d <= self.eps_sq {
                    offer((d, offset + i));
                }
            }
        }
        best
    }

    /// Records one answer: emits its [`Event::Assign`] and folds it (and
    /// the distance to the nearest core) into the monitor, emitting
    /// [`Event::QualityWindow`] / [`Event::DriftAlert`] when it completes a
    /// window.
    fn record_assign(
        &mut self,
        (a, distance): (Assignment, Option<f64>),
        obs: &mut dyn Observer,
    ) -> Assignment {
        let hit = matches!(a, Assignment::Cluster(_));
        self.emit(obs, Event::Assign { hit });
        if let Some(report) = self
            .monitor
            .as_mut()
            .and_then(|m| m.observe_assign(a, distance))
        {
            self.emit_window(&report, obs);
        }
        a
    }

    /// Classifies one observation, recording stats, an [`Event::Assign`]
    /// and, with a monitor attached, the answer's window.
    pub fn assign_observed(&mut self, x: &[f64], obs: &mut dyn Observer) -> Assignment {
        let scored = self.classify_scored(x);
        self.record_assign(scored, obs)
    }

    /// [`Engine::assign_observed`] without observation.
    pub fn assign(&mut self, x: &[f64]) -> Assignment {
        self.assign_observed(x, &mut NoopObserver)
    }

    /// Minimum queries *per worker* before a scoped-thread fan-out pays
    /// for itself. One classify costs a few microseconds; a spawn + join
    /// costs tens. Batches that cannot give every worker at least this
    /// many queries stay on the calling thread, so batch throughput never
    /// drops below single-query throughput.
    pub const SPAWN_AMORTIZATION_FLOOR: usize = 256;

    /// Effective fan-out width for a batch of `n` queries: the requested
    /// thread count, capped so each worker gets at least
    /// [`Engine::SPAWN_AMORTIZATION_FLOOR`] queries. Returns 1 (stay on
    /// the calling thread) for small batches or `threads <= 1`.
    pub fn fan_out_width(n: usize, threads: usize) -> usize {
        threads
            .clamp(1, n.max(1))
            .min((n / Self::SPAWN_AMORTIZATION_FLOOR).max(1))
    }

    /// [`Engine::classify_scored`] and its wall-clock latency.
    fn classify_timed(&self, x: &[f64]) -> ((Assignment, Option<f64>), Duration) {
        let start = Instant::now();
        let scored = self.classify_scored(x);
        (scored, start.elapsed())
    }

    /// The one batch-classification loop. Splits the rows into contiguous
    /// chunks across scoped threads when [`Engine::fan_out_width`] says
    /// the spawn cost amortizes, otherwise classifies on the calling
    /// thread. On the calling thread each row's latency goes straight
    /// into `metrics`; each worker keeps one local [`Histogram`], merged
    /// into `metrics` after the join (bucket merge is associative, so the
    /// result equals single-threaded recording).
    fn classify_rows<R: AsRef<[f64]> + Sync>(
        &self,
        rows: &[R],
        threads: usize,
        metrics: &mut EngineMetrics,
    ) -> Vec<(Assignment, Option<f64>)> {
        let width = Self::fan_out_width(rows.len(), threads);
        if width == 1 {
            return rows
                .iter()
                .map(|r| {
                    let (scored, latency) = self.classify_timed(r.as_ref());
                    metrics.record_assign(latency);
                    scored
                })
                .collect();
        }
        let mut answers = Vec::with_capacity(rows.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = rows
                .chunks(rows.len().div_ceil(width))
                .map(|chunk| {
                    scope.spawn(move || {
                        let mut latencies = Histogram::new();
                        let answers: Vec<_> = chunk
                            .iter()
                            .map(|r| {
                                let (scored, latency) = self.classify_timed(r.as_ref());
                                latencies.record_duration(latency);
                                scored
                            })
                            .collect();
                        (answers, latencies)
                    })
                })
                .collect();
            for h in handles {
                let (chunk_answers, local) = h.join().expect("classification must not panic");
                answers.extend(chunk_answers);
                metrics.merge_assign_latencies(&local);
            }
        });
        answers
    }

    /// Classifies a batch of coordinate rows — the shape HTTP bodies and
    /// in-process callers share — with every row's latency recorded into
    /// `metrics`. Rows fan out over scoped threads when the batch is large
    /// enough (see [`Engine::SPAWN_AMORTIZATION_FLOOR`]; `threads == 0` or
    /// `1` stays on the calling thread). Stats, events and monitor windows
    /// are recorded after the join, in row order (observers and the
    /// monitor are `&mut` and cannot be shared across the fan-out), so
    /// they match a loop of [`Engine::assign_observed`] at any thread
    /// count.
    pub fn assign_many_observed<R: AsRef<[f64]> + Sync>(
        &mut self,
        rows: &[R],
        threads: usize,
        metrics: &mut EngineMetrics,
        obs: &mut dyn Observer,
    ) -> Vec<Assignment> {
        self.classify_rows(rows, threads, metrics)
            .into_iter()
            .map(|s| self.record_assign(s, obs))
            .collect()
    }

    /// [`Engine::assign_many_observed`] without observation.
    pub fn assign_many<R: AsRef<[f64]> + Sync>(
        &mut self,
        rows: &[R],
        threads: usize,
        metrics: &mut EngineMetrics,
    ) -> Vec<Assignment> {
        self.assign_many_observed(rows, threads, metrics, &mut NoopObserver)
    }

    /// Absorbs one observation, recording stats and [`Event::Ingest`] /
    /// [`Event::Promote`] / [`Event::Merge`] as appropriate. With a monitor
    /// attached, the outcome then folds into its window (duplicates carry
    /// no distribution information and are skipped), emitting window and
    /// alert events like [`Engine::assign_observed`].
    pub fn ingest_observed(&mut self, x: &[f64], obs: &mut dyn Observer) -> IngestOutcome {
        assert_eq!(x.len(), self.dims, "query dimensionality mismatch");
        let key = coord_key(x);
        if self.tracked.contains_key(&key) {
            self.emit(
                obs,
                Event::Ingest {
                    core: false,
                    duplicate: true,
                },
            );
            return IngestOutcome::Duplicate;
        }

        let core_hits = self.core_hits(x);
        // The new arrival densifies every tracked neighborhood it lands
        // in; collect buffered neighbors that cross MinPts.
        for &h in &core_hits {
            self.core_counts[h as usize] += 1;
        }
        let mut ripe = Vec::new();
        let mut buffered_hits = 0u32;
        for (i, b) in self.buffered.iter_mut().enumerate() {
            if squared_euclidean(&b.coords, x) <= self.eps_sq {
                buffered_hits += 1;
                b.count += 1;
                if b.count >= self.min_pts {
                    ripe.push(i);
                }
            }
        }
        let count = 1 + core_hits.len() as u32 + buffered_hits;

        let core = count >= self.min_pts;
        let outcome = if core {
            let cluster = self.promote(x, &core_hits, count, obs);
            IngestOutcome::Core { cluster }
        } else {
            let nearest = self.nearest_of(x, &core_hits);
            let idx = self.buffered.len() as u32;
            self.buffered.push(Buffered {
                coords: x.to_vec(),
                count,
            });
            self.tracked.insert(key, Tracked::Buffered(idx));
            match nearest {
                Some(slot) => IngestOutcome::Border {
                    cluster: self.display[slot as usize],
                },
                None => IngestOutcome::Buffered,
            }
        };
        self.emit(
            obs,
            Event::Ingest {
                core,
                duplicate: false,
            },
        );

        // Promote ripe buffered points. Promotion adds cores but never
        // changes tracked-neighbor counts (the promoted point was already
        // tracked), so one pass cannot cascade.
        for &i in ripe.iter().rev() {
            let b = self.buffered.swap_remove(i);
            self.fix_swapped_buffer(i);
            let hits = self.core_hits(&b.coords);
            self.promote(&b.coords, &hits, b.count, obs);
        }
        if let Some(report) = self
            .monitor
            .as_mut()
            .and_then(|m| m.observe_ingest(outcome))
        {
            self.emit_window(&report, obs);
        }
        outcome
    }

    /// [`Engine::ingest_observed`] without observation.
    pub fn ingest(&mut self, x: &[f64]) -> IngestOutcome {
        self.ingest_observed(x, &mut NoopObserver)
    }

    /// Re-persists the engine's current state as an artifact (live cores
    /// only — tombstoned slots are skipped). Boundaries and the quality
    /// baseline survive only if no topology change has occurred since
    /// load.
    pub fn snapshot(&self) -> ModelArtifact {
        let mut cores = PointSet::new(self.dims);
        let mut core_labels = Vec::new();
        for (s, p) in self.slot_points().enumerate() {
            if self.alive[s] {
                cores.push(p);
                core_labels.push(self.display[s]);
            }
        }
        ModelArtifact {
            eps: self.eps,
            min_pts: self.min_pts,
            num_clusters: self.num_display as u32,
            cores,
            core_labels,
            boundaries: self.boundaries.clone(),
            quality: self.quality.clone(),
            sampling: self.sampling,
        }
    }

    /// The buffered (below-density) observations and their tracked
    /// ε-neighborhood counts (self included) — the surface the
    /// interleaving oracle harness compares against a from-scratch
    /// recount. Order is an implementation detail.
    pub fn buffered_view(&self) -> Vec<(&[f64], u32)> {
        self.buffered
            .iter()
            .map(|b| (b.coords.as_slice(), b.count))
            .collect()
    }

    /// Total slots, live and tombstoned.
    fn slot_count(&self) -> usize {
        self.tree.len() + self.tail.len()
    }

    /// Coordinates of a slot (live or tombstoned).
    fn core_point(&self, slot: u32) -> &[f64] {
        let tree_len = self.tree.len() as u32;
        if slot < tree_len {
            self.tree.points().point(slot)
        } else {
            self.tail.point((slot - tree_len) as usize)
        }
    }

    /// Every slot's coordinates (live or tombstoned), in slot order.
    fn slot_points(&self) -> impl Iterator<Item = &[f64]> {
        self.tree
            .points()
            .iter()
            .map(|(_, p)| p)
            .chain(self.tail.points())
    }

    /// Slot ids of live cores within ε: the range hits of the main
    /// kd-tree and of the tail's tree, then the tail's unindexed newest
    /// cores.
    fn core_hits(&self, x: &[f64]) -> Vec<u32> {
        let mut hits = Vec::new();
        self.tree.range(x, self.eps, &mut hits);
        let base = self.tree.len() as u32;
        let from = hits.len();
        self.tail.indexed.range(x, self.eps, &mut hits);
        for h in &mut hits[from..] {
            *h += base;
        }
        hits.retain(|&id| self.alive[id as usize]);
        let offset = base + self.tail.indexed.len() as u32;
        for (i, p) in self.tail.recent.iter() {
            if self.alive[(offset + i) as usize] && squared_euclidean(p, x) <= self.eps_sq {
                hits.push(offset + i);
            }
        }
        hits
    }

    /// Slot id of the nearest core among `hits`, ties to the smaller slot
    /// like [`Engine::nearest_core`].
    fn nearest_of(&self, x: &[f64], hits: &[u32]) -> Option<u32> {
        hits.iter()
            .map(|&id| (squared_euclidean(self.core_point(id), x), id))
            .reduce(|a, b| if nearer(b, a) { b } else { a })
            .map(|(_, id)| id)
    }

    /// Makes `x` a core point: joins the nearest hit cluster (merging all
    /// hit clusters) or spawns a new one. `count` is the point's tracked
    /// ε-neighborhood count (self included). Returns the compact label.
    fn promote(&mut self, x: &[f64], core_hits: &[u32], count: u32, obs: &mut dyn Observer) -> u32 {
        let mut labels: Vec<u32> = core_hits
            .iter()
            .map(|&id| self.display[id as usize])
            .collect();
        labels.sort_unstable();
        labels.dedup();
        let label = match labels.split_first() {
            Some((&first, rest)) => {
                for &r in rest {
                    self.emit(
                        obs,
                        Event::Merge {
                            existing: first,
                            expanding: r,
                        },
                    );
                }
                if !rest.is_empty() {
                    self.merge_labels(first, rest);
                }
                first
            }
            None => {
                self.new_clusters += 1;
                self.num_display += 1;
                (self.num_display - 1) as u32
            }
        };
        let slot = self.slot_count() as u32;
        self.tail.recent.push(x);
        let v = self.conn.add_vertex();
        debug_assert_eq!(v, slot, "connectivity vertex ids mirror slot ids");
        for &h in core_hits {
            self.conn.add_edge(slot, h);
        }
        self.alive.push(true);
        self.core_counts.push(count);
        self.display.push(label);
        self.tracked.insert(coord_key(x), Tracked::Core(slot));
        // Topology changed: drop the stale boundaries and quality
        // baseline (both indexed by fitted ids).
        self.boundaries = None;
        self.quality = None;
        self.emit(obs, Event::Promote { cluster: label });
        if self.tail.len() >= REBUILD_MIN_TAIL.max(self.tree.len() / 4) {
            self.rebuild_tree();
        } else {
            self.tail.settle();
        }
        label
    }

    /// Collapses display labels `rest` (sorted, all greater than `keep`)
    /// into `keep` and re-densifies the label space.
    fn merge_labels(&mut self, keep: u32, rest: &[u32]) {
        debug_assert!(rest.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(rest.first().map_or(true, |&r| r > keep));
        for s in 0..self.display.len() {
            if !self.alive[s] {
                continue;
            }
            let l = self.display[s];
            self.display[s] = if rest.binary_search(&l).is_ok() {
                keep
            } else {
                l - rest.iter().take_while(|&&r| r < l).count() as u32
            };
        }
        self.num_display -= rest.len();
    }

    /// After `buffered.swap_remove(i)`, repoints the tracked-map entry of
    /// the element swapped into position `i` (if any).
    fn fix_swapped_buffer(&mut self, i: usize) {
        if i < self.buffered.len() {
            let key = coord_key(&self.buffered[i].coords);
            self.tracked.insert(key, Tracked::Buffered(i as u32));
        }
    }

    /// Removes one tracked observation, recording stats and
    /// [`Event::Remove`] / [`Event::Demote`] / [`Event::Split`] as
    /// appropriate. Purely sequential by design: removal repairs shared
    /// structure, so thread count can never change what is computed.
    pub fn remove_observed(&mut self, x: &[f64], obs: &mut dyn Observer) -> RemoveOutcome {
        assert_eq!(x.len(), self.dims, "query dimensionality mismatch");
        let key = coord_key(x);
        let Some(entry) = self.tracked.remove(&key) else {
            self.emit(
                obs,
                Event::Remove {
                    core: false,
                    found: false,
                },
            );
            return RemoveOutcome::NotFound;
        };
        let was_core = matches!(entry, Tracked::Core(_));
        self.emit(
            obs,
            Event::Remove {
                core: was_core,
                found: true,
            },
        );

        // Detach the point from the tracked set.
        match entry {
            Tracked::Core(slot) => {
                self.alive[slot as usize] = false;
                self.dead += 1;
            }
            Tracked::Buffered(i) => {
                self.buffered.swap_remove(i as usize);
                self.fix_swapped_buffer(i as usize);
            }
        }

        // The departure thins every tracked neighborhood it was in;
        // collect cores that fall below MinPts. (`core_hits` skips dead
        // slots, so a removed core never decrements itself.)
        let mut demoted = self.core_hits(x);
        demoted.retain(|&h| {
            self.core_counts[h as usize] -= 1;
            self.core_counts[h as usize] < self.min_pts
        });
        for b in self.buffered.iter_mut() {
            if squared_euclidean(&b.coords, x) <= self.eps_sq {
                b.count -= 1;
            }
        }
        demoted.sort_unstable();

        // Repair the core graph: the removed core first, then each
        // demotion in ascending slot order.
        let mut splits = 0u32;
        if let Tracked::Core(slot) = entry {
            splits += self.detach_core(slot, obs);
        }
        let demoted_n = demoted.len() as u32;
        for d in demoted {
            self.emit(
                obs,
                Event::Demote {
                    cluster: self.display[d as usize],
                },
            );
            // The demoted core rejoins the buffer with its tracked count.
            let coords = self.core_point(d).to_vec();
            self.alive[d as usize] = false;
            self.dead += 1;
            let idx = self.buffered.len() as u32;
            self.tracked
                .insert(coord_key(&coords), Tracked::Buffered(idx));
            self.buffered.push(Buffered {
                coords,
                count: self.core_counts[d as usize],
            });
            splits += self.detach_core(d, obs);
        }
        if was_core || demoted_n > 0 {
            // Topology changed (see `promote`).
            self.boundaries = None;
            self.quality = None;
        }
        if self.dead >= COMPACT_MIN_DEAD.max(self.slot_count() / 4) {
            self.rebuild_tree();
        }
        RemoveOutcome::Removed {
            was_core,
            demoted: demoted_n,
            splits,
        }
    }

    /// [`Engine::remove_observed`] without observation.
    pub fn remove(&mut self, x: &[f64]) -> RemoveOutcome {
        self.remove_observed(x, &mut NoopObserver)
    }

    /// Tears `slot` out of the core graph and repairs the display
    /// labels: a vanished component's label is compacted away; on a
    /// split, the piece containing the smallest slot keeps the label and
    /// the remaining pieces are appended as new clusters in ascending
    /// slot order. Returns the number of splits (`pieces - 1`).
    fn detach_core(&mut self, slot: u32, obs: &mut dyn Observer) -> u32 {
        let old_label = self.display[slot as usize];
        self.display[slot as usize] = u32::MAX;
        let reps = self.conn.remove_vertex(slot);
        match reps.len() {
            0 => {
                // Last core of its cluster: the label vanishes.
                for s in 0..self.display.len() {
                    if self.alive[s] && self.display[s] > old_label {
                        self.display[s] -= 1;
                    }
                }
                self.num_display -= 1;
                0
            }
            1 => 0,
            pieces => {
                for (extra, &rep) in reps[1..].iter().enumerate() {
                    let new_label = (self.num_display + extra) as u32;
                    for s in 0..self.display.len() {
                        if self.alive[s] && self.conn.rep(s as u32) == rep {
                            self.display[s] = new_label;
                        }
                    }
                }
                self.num_display += pieces - 1;
                self.emit(
                    obs,
                    Event::Split {
                        pieces: pieces as u32,
                    },
                );
                (pieces - 1) as u32
            }
        }
    }

    /// Folds the tail into the kd-tree and compacts tombstoned slots
    /// away, remapping slot ids (and rebuilding the connectivity
    /// structure and tracked map) in surviving order — display labels
    /// are carried over unchanged.
    fn rebuild_tree(&mut self) {
        let total = self.slot_count();
        let mut remap = vec![u32::MAX; total];
        let mut points = PointSet::new(self.dims);
        for ((s, p), slot) in self.slot_points().enumerate().zip(remap.iter_mut()) {
            if self.alive[s] {
                *slot = points.len() as u32;
                points.push(p);
            }
        }
        let n = points.len();
        self.display = (0..total)
            .filter(|&s| self.alive[s])
            .map(|s| self.display[s])
            .collect();
        self.core_counts = (0..total)
            .filter(|&s| self.alive[s])
            .map(|s| self.core_counts[s])
            .collect();
        let mut conn = Connectivity::new();
        for _ in 0..n {
            conn.add_vertex();
        }
        // Dead vertices never hold edges, so every edge remaps cleanly;
        // component structure (and therefore the labels) is preserved
        // regardless of re-insertion order.
        self.conn.for_each_edge(|u, v, _| {
            conn.add_edge(remap[u as usize], remap[v as usize]);
        });
        self.conn = conn;
        for entry in self.tracked.values_mut() {
            if let Tracked::Core(s) = entry {
                *s = remap[*s as usize];
            }
        }
        self.alive = vec![true; n];
        self.dead = 0;
        self.tail = Tail::new(self.dims);
        self.tree = OwnedKdTree::build(points);
        self.tree_rebuilds += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_artifact() -> ModelArtifact {
        // Two tight clusters of 5 cores each, eps = 1.5, min_pts = 3.
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

    #[test]
    fn classify_matches_the_artifact() {
        let engine = Engine::new(&grid_artifact());
        assert_eq!(engine.classify(&[2.0, 0.5]), Assignment::Cluster(0));
        assert_eq!(engine.classify(&[2.0, 99.5]), Assignment::Cluster(1));
        assert_eq!(engine.classify(&[2.0, 50.0]), Assignment::Noise);
        assert_eq!(engine.core_count(), 10);
        assert_eq!(engine.num_clusters(), 2);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn classify_rejects_wrong_dimensionality() {
        let _ = Engine::new(&grid_artifact()).classify(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn batch_agrees_with_single() {
        let mut engine = Engine::new(&grid_artifact());
        let queries: Vec<[f64; 2]> = (0..200)
            .map(|i| [(i % 7) as f64, (i % 3) as f64 * 50.0])
            .collect();
        let expected: Vec<Assignment> = queries.iter().map(|q| engine.classify(q)).collect();
        for threads in [1, 2, 4, 7] {
            let mut m = EngineMetrics::new();
            assert_eq!(engine.assign_many(&queries, threads, &mut m), expected);
        }
        assert_eq!(engine.stats().assigns, 4 * 200);
    }

    #[test]
    fn duplicate_ingest_is_a_no_op() {
        let mut engine = Engine::new(&grid_artifact());
        assert_eq!(engine.ingest(&[2.0, 0.0]), IngestOutcome::Duplicate);
        assert_eq!(engine.stats().duplicates, 1);
        assert_eq!(engine.core_count(), 10);
        assert_eq!(engine.buffered_count(), 0);
    }

    #[test]
    fn dense_arrival_is_promoted_immediately() {
        let mut engine = Engine::new(&grid_artifact());
        // Within eps of cores (1,0), (2,0), (3,0): count = 4 >= 3.
        let out = engine.ingest(&[2.0, 0.5]);
        assert_eq!(out, IngestOutcome::Core { cluster: 0 });
        assert_eq!(engine.core_count(), 11);
        assert_eq!(engine.stats().promotions, 1);
        assert_eq!(engine.stats().new_clusters, 0);
        // The new core now serves assignments.
        assert_eq!(engine.classify(&[2.0, 1.6]), Assignment::Cluster(0));
    }

    #[test]
    fn sparse_arrivals_buffer_then_spawn_a_cluster() {
        let mut engine = Engine::new(&grid_artifact());
        // Far from both clusters; min_pts = 3.
        assert_eq!(engine.ingest(&[50.0, 50.0]), IngestOutcome::Buffered);
        assert_eq!(engine.ingest(&[50.5, 50.0]), IngestOutcome::Buffered);
        assert_eq!(engine.num_clusters(), 2);
        // Third arrival sees two tracked neighbors + itself = 3: promoted,
        // and the earlier two are now ripe as well.
        let out = engine.ingest(&[50.2, 50.2]);
        assert!(matches!(out, IngestOutcome::Core { .. }));
        assert_eq!(engine.num_clusters(), 3);
        assert!(engine.stats().new_clusters >= 1);
        assert_eq!(
            engine.classify(&[50.1, 50.1]),
            Assignment::Cluster(2),
            "new cluster serves assignments"
        );
    }

    #[test]
    fn bridge_points_merge_clusters() {
        // Two clusters 3 apart; eps 1.5; a point midway touches cores of
        // both.
        let mut cores = PointSet::new(1);
        for x in [0.0, 1.0, 10.0, 11.0] {
            cores.push(&[x]);
        }
        let artifact = ModelArtifact {
            eps: 1.5,
            min_pts: 2,
            num_clusters: 2,
            cores,
            core_labels: vec![0, 0, 1, 1],
            boundaries: None,
            quality: None,
            sampling: None,
        };
        let mut engine = Engine::new(&artifact);
        assert_eq!(engine.num_clusters(), 2);
        // Chain toward the gap; each arrival touches the previous core.
        for x in [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0] {
            engine.ingest(&[x]);
        }
        assert_eq!(engine.num_clusters(), 1, "chain must merge the clusters");
        assert!(engine.stats().merges >= 1);
        assert_eq!(engine.classify(&[0.5]), engine.classify(&[10.5]));
    }

    #[test]
    fn health_is_a_coherent_snapshot_of_the_getters() {
        let mut engine = Engine::new(&grid_artifact());
        let fresh = engine.health();
        assert_eq!(fresh.staleness, 0.0);
        assert!(!fresh.refit_recommended);
        assert_eq!(fresh.core_points, 10);
        assert_eq!(fresh.tail_length, 0);
        assert_eq!(fresh.clusters, 2);
        assert_eq!(fresh.buffered_points, 0);
        assert_eq!(fresh.tree_rebuilds, 0);
        engine.ingest(&[2.0, 0.5]); // promoted immediately
        engine.ingest(&[50.0, 50.0]); // buffered
        let h = engine.health();
        assert_eq!(h.staleness, engine.staleness());
        assert_eq!(h.refit_recommended, engine.refit_recommended());
        assert_eq!(h.core_points, engine.core_count());
        assert_eq!(h.tail_length, 1);
        assert_eq!(h.clusters, engine.num_clusters());
        assert_eq!(h.buffered_points, engine.buffered_count());
    }

    #[test]
    fn staleness_grows_and_recommends_refit() {
        let mut engine = Engine::new(&grid_artifact());
        assert_eq!(engine.staleness(), 0.0);
        assert!(!engine.refit_recommended());
        for i in 0..6 {
            engine.ingest(&[2.0 + 0.01 * (i + 1) as f64, 0.5]);
        }
        assert!(engine.staleness() > 0.25, "{}", engine.staleness());
        assert!(engine.refit_recommended());
    }

    #[test]
    fn snapshot_round_trips_through_an_equal_engine() {
        let mut engine = Engine::new(&grid_artifact());
        engine.ingest(&[2.0, 0.5]);
        engine.ingest(&[50.0, 50.0]);
        let snap = engine.snapshot();
        assert_eq!(snap.cores.len(), engine.core_count());
        snap.validate()
            .expect("snapshot of a live engine validates");
        let reloaded = Engine::new(&snap);
        for q in [[2.0, 0.6], [2.0, 99.0], [70.0, 70.0]] {
            assert_eq!(reloaded.classify(&q), engine.classify(&q));
        }
    }

    #[test]
    fn tree_rebuild_preserves_answers() {
        let mut engine = Engine::new(&grid_artifact());
        // Force enough promotions to trigger a rebuild (tail >= 64).
        let mut expected_hits = 0;
        for i in 0..70 {
            let x = [(i % 10) as f64 * 0.1, 0.2 + (i / 10) as f64 * 0.2];
            if matches!(engine.ingest(&x), IngestOutcome::Core { .. }) {
                expected_hits += 1;
            }
        }
        assert!(expected_hits > 0);
        assert!(engine.stats().tree_rebuilds >= 1 || engine.tail.len() < 64);
        assert_eq!(engine.classify(&[0.5, 0.5]), Assignment::Cluster(0));
    }

    #[test]
    fn equidistant_cores_resolve_to_the_smaller_slot() {
        // Cores 22..=41 (cluster 1) listed before 0..=19 (cluster 0):
        // 20.5 is exactly ε = 1.5 from 22 (slot 0) and from 19 (slot 39).
        let mut cores = PointSet::new(1);
        for x in (22..42).chain(0..20) {
            cores.push(&[x as f64]);
        }
        let artifact = ModelArtifact {
            eps: 1.5,
            min_pts: 3,
            num_clusters: 2,
            cores,
            core_labels: (0..40).map(|i| u32::from(i < 20)).collect(),
            boundaries: None,
            quality: None,
            sampling: None,
        };
        let mut engine = Engine::new(&artifact);
        assert_eq!(engine.classify(&[20.5]), Assignment::Cluster(1));
        // 512 rows engage both workers at 2 threads.
        let rows = vec![[20.5]; 2 * Engine::SPAWN_AMORTIZATION_FLOOR];
        for threads in [1, 2] {
            let answers = engine.assign_many(&rows, threads, &mut EngineMetrics::new());
            assert!(answers.iter().all(|&a| a == Assignment::Cluster(1)));
        }
    }

    /// Two 17 × 34 unit lattices of cores, cluster 1 listed first, one
    /// empty column apart: ε = 1.5 reaches the 8 lattice neighbours, and a
    /// point of the empty column is exactly 1 from a core of each cluster.
    fn twin_lattice() -> ModelArtifact {
        let mut cores = PointSet::new(2);
        let mut core_labels = Vec::new();
        for (label, x0) in [(1, 18), (0, 0)] {
            for x in x0..x0 + 17 {
                for y in 0..34 {
                    cores.push(&[f64::from(x), f64::from(y)]);
                    core_labels.push(label);
                }
            }
        }
        ModelArtifact {
            eps: 1.5,
            min_pts: 4,
            num_clusters: 2,
            cores,
            core_labels,
            boundaries: None,
            quality: None,
            sampling: None,
        }
    }

    #[test]
    fn classify_equals_brute_force_across_tail_reindexes_folds_and_compactions() {
        use dbsvec_geometry::rng::SplitMix64;
        let artifact = twin_lattice();
        let mut engine = Engine::new(&artifact);
        let mut rng = SplitMix64::new(22);
        // The empty column (cross-cluster ties) and half-lattice points
        // around and between the lattices (ties among up to four cores).
        let probes: Vec<[f64; 2]> = (0..8)
            .map(|i| [17.0, f64::from(i * 4 + 1)])
            .chain((0..8).map(|_| {
                let mut half = || rng.next_below(92) as f64 * 0.5 - 5.0;
                [half(), half()]
            }))
            .collect();
        // Lattice sites around the two lattices, plus the empty column,
        // whose sites bridge the clusters.
        let ring: Vec<[f64; 2]> = (-5..40)
            .flat_map(|x| (-5..39).map(move |y| [f64::from(x), f64::from(y)]))
            .filter(|&[x, y]| !(0.0..34.0).contains(&y) || !(0.0..35.0).contains(&x) || x == 17.0)
            .collect();
        let mut tracked: Vec<[f64; 2]> = artifact.cores.iter().map(|(_, p)| [p[0], p[1]]).collect();
        let (mut folds, mut compactions, mut reindexes, mut cross_ties) = (0, 0, 0, 0);
        for op in 0..1800 {
            let rebuilds = engine.stats().tree_rebuilds;
            let indexed = engine.tail.indexed.len();
            // Promotions fill the tail first; removals pile up tombstones
            // after.
            let ingest = rng.next_below(100) < if op < 1000 { 97 } else { 20 };
            if ingest {
                let x = ring[rng.next_below(ring.len() as u64) as usize];
                if engine.ingest(&x) != IngestOutcome::Duplicate {
                    tracked.push(x);
                }
            } else {
                let x = tracked.swap_remove(rng.next_below(tracked.len() as u64) as usize);
                assert!(matches!(engine.remove(&x), RemoveOutcome::Removed { .. }));
            }
            if engine.stats().tree_rebuilds > rebuilds {
                if ingest {
                    folds += 1;
                } else {
                    compactions += 1;
                }
            } else if engine.tail.indexed.len() > indexed {
                reindexes += 1;
            }
            assert!(engine.tail.recent.len() < REBUILD_MIN_TAIL);

            // The answer is the lexicographic minimum of (squared distance,
            // slot) over the live cores, which the snapshot lists in slot
            // order.
            let snap = engine.snapshot();
            for q in &probes {
                // (squared distance, index, another label ties); every
                // coordinate is a multiple of 1/2, so distances are exact.
                let mut best: Option<(f64, usize, bool)> = None;
                for (i, c) in snap.cores.as_flat().chunks_exact(2).enumerate() {
                    let d = (c[0] - q[0]).powi(2) + (c[1] - q[1]).powi(2);
                    match best {
                        _ if d > 2.25 => {}
                        Some((bd, bi, _)) if d == bd => {
                            if snap.core_labels[i] != snap.core_labels[bi] {
                                best = Some((bd, bi, true));
                            }
                        }
                        Some((bd, ..)) if d > bd => {}
                        _ => best = Some((d, i, false)),
                    }
                }
                cross_ties += usize::from(best.is_some_and(|b| b.2));
                let want = best.map_or(Assignment::Noise, |(_, i, _)| {
                    Assignment::Cluster(snap.core_labels[i])
                });
                assert_eq!(engine.classify(q), want, "op {op}, probe {q:?}");
            }

            // Promotions connect to every live core in range, wherever it
            // sits (main tree, tail tree or loose run), and the lattices
            // start 2 apart, so live cores within ε share a label.
            if op % 50 == 0 {
                let cores: Vec<&[f64]> = snap.cores.as_flat().chunks_exact(2).collect();
                for (i, a) in cores.iter().enumerate() {
                    for (j, b) in cores.iter().enumerate().skip(i + 1) {
                        if (a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) <= 2.25 {
                            assert_eq!(
                                snap.core_labels[i], snap.core_labels[j],
                                "op {op}: {a:?} and {b:?}"
                            );
                        }
                    }
                }
            }
        }
        assert!(folds >= 1, "no fold");
        assert!(compactions >= 1, "no compaction");
        assert!(reindexes >= 3, "{reindexes} tail re-indexes");
        assert!(cross_ties > 0, "no probe tied cores of two clusters");
    }

    #[test]
    fn config_overrides_the_refit_threshold() {
        let artifact = grid_artifact();
        let config = EngineConfig::new().with_refit_threshold(0.05);
        let mut engine = Engine::with_config(&artifact, config);
        assert_eq!(engine.config().refit_threshold, 0.05);
        engine.ingest(&[2.0, 0.5]); // one promotion: staleness 0.1
        assert!(engine.refit_recommended(), "{}", engine.staleness());
        let mut default_engine = Engine::new(&artifact);
        default_engine.ingest(&[2.0, 0.5]);
        assert!(!default_engine.refit_recommended());
    }

    #[test]
    #[should_panic(expected = "refit threshold")]
    fn config_rejects_nonpositive_threshold() {
        EngineConfig::new().with_refit_threshold(0.0);
    }

    #[test]
    fn classify_scored_agrees_with_classify() {
        let engine = Engine::new(&grid_artifact());
        for q in [[2.0, 0.5], [2.0, 99.5], [2.0, 50.0], [4.9, 1.0]] {
            let (a, d) = engine.classify_scored(&q);
            assert_eq!(a, engine.classify(&q));
            match a {
                Assignment::Cluster(_) => {
                    let d = d.expect("cluster hits carry a distance");
                    assert!(d <= engine.eps() && d >= 0.0, "{d}");
                }
                Assignment::Noise => assert_eq!(d, None),
            }
        }
        // The reported distance is to the *nearest* core.
        let (_, d) = engine.classify_scored(&[2.0, 0.5]);
        assert!((d.unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn monitored_paths_window_and_alert() {
        use dbsvec_obs::RecordingObserver;
        let artifact = grid_artifact().with_quality_from_labels();
        let config = EngineConfig::new().with_monitor(
            MonitorConfig::new()
                .with_window(8)
                .with_drift_threshold(0.3)
                .with_ewma_alpha(1.0),
        );
        let mut engine = Engine::with_config(&artifact, config);
        assert!(engine.quality().is_some());
        let mut rec = RecordingObserver::new();
        // All-noise traffic: maximal noise delta against a 0%-noise fit.
        for _ in 0..8 {
            let a = engine.assign_observed(&[2.0, 50.0], &mut rec);
            assert_eq!(a, Assignment::Noise);
        }
        let counts = rec.replay();
        assert_eq!(counts.assigns, 8);
        assert_eq!(counts.quality_windows, 1);
        assert_eq!(counts.drift_alerts, 1);
        let stats = engine.stats();
        assert_eq!((stats.quality_windows, stats.drift_alerts), (1, 1));
        let h = engine.health();
        assert!(h.refit_recommended, "drift alone must recommend refit");
        assert!(engine.refit_recommended());
        assert_eq!(h.staleness, 0.0);
        let drift = h.drift.expect("completed window carries signals");
        assert!(drift.smoothed_score >= 0.3, "{drift:?}");
        assert_eq!(drift.dominant(), "noise_delta");
        // An engine without a monitor stays drift-blind on the same traffic.
        let mut plain = Engine::new(&artifact);
        for _ in 0..8 {
            plain.assign(&[2.0, 50.0]);
        }
        assert!(plain.monitor().is_none());
        assert!(plain.health().drift.is_none());
        assert!(!plain.health().refit_recommended);
    }

    #[test]
    fn monitored_ingest_counts_windows() {
        use dbsvec_obs::RecordingObserver;
        let artifact = grid_artifact().with_quality_from_labels();
        let config = EngineConfig::new().with_monitor(MonitorConfig::new().with_window(4));
        let mut engine = Engine::with_config(&artifact, config);
        let mut rec = RecordingObserver::new();
        for i in 0..4 {
            engine.ingest_observed(&[30.0 + i as f64 * 8.0, 30.0], &mut rec);
        }
        let counts = rec.replay();
        assert_eq!(counts.ingests, 4);
        assert_eq!(counts.quality_windows, 1);
        assert_eq!(engine.stats().quality_windows, 1);
    }

    impl ModelArtifact {
        /// Test helper: synthesizes the quality baseline straight from the
        /// artifact's own cores (each core is its own training point).
        fn with_quality_from_labels(self) -> ModelArtifact {
            let points = self.cores.clone();
            let clustering = dbsvec_core::Clustering::from_assignments(
                self.core_labels.iter().map(|&l| Some(l)).collect(),
            );
            self.with_quality(&points, &clustering)
        }
    }

    #[test]
    fn events_flow_through_the_observer() {
        use dbsvec_obs::RecordingObserver;
        let mut engine = Engine::new(&grid_artifact());
        let mut rec = RecordingObserver::new();
        engine.assign_observed(&[2.0, 0.5], &mut rec);
        engine.ingest_observed(&[2.0, 0.5], &mut rec);
        engine.ingest_observed(&[2.0, 0.5], &mut rec); // duplicate
        let counts = rec.replay();
        assert_eq!(counts.assigns, 1);
        assert_eq!(counts.assign_hits, 1);
        assert_eq!(counts.ingests, 2);
        assert_eq!(counts.ingest_duplicates, 1);
        assert_eq!(counts.promotions, 1);
    }
}
