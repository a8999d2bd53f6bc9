//! The observation vocabulary: phases and typed events.
//!
//! The variants mirror the paper's cost model exactly, so a recorded event
//! stream can be *replayed* into the same counters `DbsvecStats`
//! accumulates (see [`crate::replay`]). Point ids are bare `u32`s — the
//! same representation `dbsvec-geometry` uses for `PointId` — so this
//! crate depends on nothing.

/// One timed phase of a clustering run (or a serving session).
///
/// DBSVEC fitting emits the first five; plain DBSCAN-family baselines emit
/// only [`Phase::Init`] (their single scan loop). Spans nest: `SvExpand`
/// opens inside `Init`, and `SvddTrain` opens inside `SvExpand`. The
/// serving engine opens [`Phase::Serve`] around an assignment or ingest
/// session, so `--profile` tables cover serving like they cover fitting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// The seed scan: iterate unclassified points, query, seed clusters.
    Init,
    /// One SVDD training (SMO solve) inside an expansion round.
    SvddTrain,
    /// Support-vector expansion of one sub-cluster (all its rounds).
    SvExpand,
    /// Finalization: union-find resolution and label compaction.
    Merge,
    /// The noise-verification pass over the potential-noise list.
    NoiseVerify,
    /// An online serving session (assignment and/or ingest) over a fitted
    /// model.
    Serve,
}

impl Phase {
    /// Every phase, in canonical display order.
    pub const ALL: [Phase; 6] = [
        Phase::Init,
        Phase::SvExpand,
        Phase::SvddTrain,
        Phase::Merge,
        Phase::NoiseVerify,
        Phase::Serve,
    ];

    /// Stable snake_case name (used in JSONL output and tables).
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Init => "init",
            Phase::SvddTrain => "svdd_train",
            Phase::SvExpand => "sv_expand",
            Phase::Merge => "merge",
            Phase::NoiseVerify => "noise_verify",
            Phase::Serve => "serve",
        }
    }
}

/// A typed observation emitted by an instrumented algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A new sub-cluster was seeded from a core point's neighborhood.
    Seed {
        /// The seed point.
        point: u32,
        /// Size of its materialized ε-neighborhood.
        neighborhood_len: usize,
    },
    /// One ε-range query (materializing or counting).
    RangeQuery {
        /// The query point.
        probe: u32,
        /// Number of neighbors found (the count, for counting queries).
        result_len: usize,
    },
    /// One SVDD training finished (fires once per expansion round).
    SmoSolve {
        /// Target-set size ñ the model was trained on.
        target_size: usize,
        /// SMO iterations to convergence.
        iterations: usize,
        /// Kernel-row reads served from the solve's row slab.
        cache_hits: u64,
        /// Kernel-row reads that computed the row.
        cache_misses: u64,
        /// Whether the solve was seeded from the previous round's α.
        warm_started: bool,
        /// `false` when the solve exhausted its iteration cap instead of
        /// reaching the KKT tolerance.
        converged: bool,
        /// Initial KKT violation in fixed-point microunits
        /// (`round(violation · 1e6)`); integers keep the event `Eq` and
        /// the replay exact.
        initial_kkt_violation_e6: u64,
    },
    /// One support-vector expansion round completed.
    ExpansionRound {
        /// Raw (pre-compaction) sub-cluster id being expanded.
        cluster: u32,
        /// 1-based round number within this sub-cluster's expansion.
        round: usize,
        /// Target-set size ñ at the start of the round.
        target_size: usize,
        /// Support vectors the round's SVDD model produced.
        n_sv: usize,
        /// Support vectors that passed the core test this round.
        n_core_sv: usize,
        /// SMO iterations the round's training spent.
        smo_iters: usize,
    },
    /// Two sub-clusters were united through an overlapping core point.
    Merge {
        /// Raw id of the cluster that was already labeled on the point.
        existing: u32,
        /// Raw id of the cluster being expanded into it.
        expanding: u32,
    },
    /// A potential-noise point was resolved.
    NoiseVerdict {
        /// The point in question.
        point: u32,
        /// `true` if confirmed noise, `false` if attached as a border point.
        confirmed: bool,
    },
    /// A sampled fit drew its core-candidate subsample (fires once, at the
    /// start of initialization; exact fits never emit it).
    Sample {
        /// Candidates drawn.
        candidates: usize,
        /// Points in the dataset.
        total: usize,
        /// Effective sampling rate `candidates / total` in fixed-point
        /// microunits (`round(rate · 1e6)`), keeping the event `Eq`.
        rate_e6: u64,
    },
    /// The attachment pass resolved one unsampled point: attached to the
    /// cluster of its nearest discovered core within ε, or confirmed noise.
    Attach {
        /// The point in question.
        point: u32,
        /// `true` if the point joined a cluster, `false` for noise.
        attached: bool,
    },
    /// The serving engine classified one observation.
    Assign {
        /// `true` if the point landed in a cluster, `false` for noise.
        hit: bool,
    },
    /// The serving engine absorbed one streamed observation.
    Ingest {
        /// `true` if the point entered the core set immediately.
        core: bool,
        /// `true` if the point duplicated an already-tracked observation
        /// (recorded for staleness but not re-counted for density).
        duplicate: bool,
    },
    /// A point became a core point online (at ingest, or promoted from the
    /// boundary buffer once its ε-neighborhood reached MinPts).
    Promote {
        /// Compact cluster id the new core landed in.
        cluster: u32,
    },
    /// The serving engine processed one removal request
    /// (`Engine::remove`).
    Remove {
        /// `true` if the removed point was a core point (`false`: a
        /// buffered observation, or a miss).
        core: bool,
        /// `false` when the point was not tracked (never ingested, or
        /// already removed) and nothing changed.
        found: bool,
    },
    /// A removal dropped a core point's tracked ε-neighborhood below
    /// MinPts; the core was demoted back to the boundary buffer.
    Demote {
        /// Compact cluster id the core belonged to when demoted.
        cluster: u32,
    },
    /// A removal or demotion disconnected a cluster's core graph; the
    /// cluster was split into its connected pieces.
    Split {
        /// Connected pieces the cluster broke into (always ≥ 2).
        pieces: u32,
    },
    /// A model snapshot was serialized.
    SnapshotWrite {
        /// Snapshot size in bytes.
        bytes: u64,
    },
    /// A model snapshot was deserialized.
    SnapshotLoad {
        /// Snapshot size in bytes.
        bytes: u64,
    },
    /// The quality monitor completed one tumbling window.
    ///
    /// Scores are fixed-point microunits (`round(score · 1e6)`), the same
    /// convention as [`Event::SmoSolve::initial_kkt_violation_e6`]:
    /// integers keep the event `Eq` and the replay exact.
    QualityWindow {
        /// 1-based ordinal of the completed window.
        window: u64,
        /// Observations the window folded in.
        samples: u64,
        /// Combined drift evidence score in microunits.
        drift_score_e6: u64,
        /// Assign-distance histogram drift in microunits.
        hist_distance_e6: u64,
        /// Per-cluster occupancy-share shift in microunits.
        occupancy_shift_e6: u64,
        /// Noise-rate delta against the baseline in microunits.
        noise_delta_e6: u64,
        /// `false` when the model carried no quality baseline and the
        /// scores above are zeros (staleness-only degraded mode).
        baseline: bool,
    },
    /// A completed window's smoothed drift score crossed the alert
    /// threshold.
    DriftAlert {
        /// 1-based ordinal of the window that tripped the alert.
        window: u64,
        /// Smoothed drift score in microunits.
        drift_score_e6: u64,
        /// The configured alert threshold in microunits.
        threshold_e6: u64,
    },
    /// The HTTP serving tier finished handling one request.
    HttpRequest {
        /// Stable endpoint slug: `assign`, `ingest`, `health`, `metrics`,
        /// `healthz`, `debug_requests`, or `error` for requests rejected
        /// before routing.
        endpoint: String,
        /// HTTP status code of the response.
        status: u16,
        /// Points carried by the request body (0 for bodyless endpoints).
        points: u64,
        /// Monotonically increasing id assigned when a worker picked the
        /// request up (1-based; unique within one server run).
        request_id: u64,
        /// End-to-end wall time in microseconds: accept-queue wait plus
        /// every stage from first request byte to last response byte.
        duration_us: u64,
        /// Where the time went, stage by stage.
        stages: HttpStages,
    },
}

/// Stage-attributed timing breakdown of one HTTP request, in microseconds.
///
/// Integers keep [`Event`] `Eq` and the jsonl round-trip exact. The stages
/// partition [`Event::HttpRequest::duration_us`] up to rounding: `queue_us`
/// plus the six handling stages is never more than a few microseconds away
/// from the total (each stage truncates independently).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct HttpStages {
    /// Accept-queue wait: accept() to worker pickup. Attributed to the
    /// first request of a connection; follow-up keep-alive requests
    /// report 0.
    pub queue_us: u64,
    /// Reading and parsing the request head + body off the socket
    /// (includes time spent waiting for the client to send).
    pub parse_us: u64,
    /// Routing and handler bookkeeping outside the shard locks.
    pub route_us: u64,
    /// Total time blocked acquiring per-shard locks.
    pub lock_us: u64,
    /// Engine compute under the shard locks (assign/ingest/health fold).
    pub engine_us: u64,
    /// Rendering the response body (JSON or metrics text).
    pub serialize_us: u64,
    /// Writing the framed response back to the socket.
    pub write_us: u64,
}

impl Event {
    /// Stable snake_case name of the variant (used in JSONL output).
    pub fn name(&self) -> &'static str {
        match self {
            Event::Seed { .. } => "seed",
            Event::RangeQuery { .. } => "range_query",
            Event::SmoSolve { .. } => "smo_solve",
            Event::ExpansionRound { .. } => "expansion_round",
            Event::Merge { .. } => "merge",
            Event::NoiseVerdict { .. } => "noise_verdict",
            Event::Sample { .. } => "sample",
            Event::Attach { .. } => "attach",
            Event::Assign { .. } => "assign",
            Event::Ingest { .. } => "ingest",
            Event::Promote { .. } => "promote",
            Event::Remove { .. } => "remove",
            Event::Demote { .. } => "demote",
            Event::Split { .. } => "split",
            Event::SnapshotWrite { .. } => "snapshot_write",
            Event::SnapshotLoad { .. } => "snapshot_load",
            Event::QualityWindow { .. } => "quality_window",
            Event::DriftAlert { .. } => "drift_alert",
            Event::HttpRequest { .. } => "http_request",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "init",
                "sv_expand",
                "svdd_train",
                "merge",
                "noise_verify",
                "serve"
            ]
        );
    }

    #[test]
    fn event_names_are_stable() {
        assert_eq!(
            Event::RangeQuery {
                probe: 0,
                result_len: 0
            }
            .name(),
            "range_query"
        );
        assert_eq!(
            Event::NoiseVerdict {
                point: 1,
                confirmed: true
            }
            .name(),
            "noise_verdict"
        );
        assert_eq!(
            Event::Sample {
                candidates: 250,
                total: 1000,
                rate_e6: 250_000
            }
            .name(),
            "sample"
        );
        assert_eq!(
            Event::Attach {
                point: 4,
                attached: true
            }
            .name(),
            "attach"
        );
        assert_eq!(Event::Assign { hit: true }.name(), "assign");
        assert_eq!(
            Event::Ingest {
                core: false,
                duplicate: false
            }
            .name(),
            "ingest"
        );
        assert_eq!(Event::Promote { cluster: 2 }.name(), "promote");
        assert_eq!(
            Event::Remove {
                core: true,
                found: true
            }
            .name(),
            "remove"
        );
        assert_eq!(Event::Demote { cluster: 1 }.name(), "demote");
        assert_eq!(Event::Split { pieces: 2 }.name(), "split");
        assert_eq!(Event::SnapshotWrite { bytes: 64 }.name(), "snapshot_write");
        assert_eq!(Event::SnapshotLoad { bytes: 64 }.name(), "snapshot_load");
        assert_eq!(
            Event::QualityWindow {
                window: 1,
                samples: 256,
                drift_score_e6: 120_000,
                hist_distance_e6: 120_000,
                occupancy_shift_e6: 40_000,
                noise_delta_e6: 10_000,
                baseline: true,
            }
            .name(),
            "quality_window"
        );
        assert_eq!(
            Event::DriftAlert {
                window: 2,
                drift_score_e6: 700_000,
                threshold_e6: 350_000,
            }
            .name(),
            "drift_alert"
        );
        assert_eq!(
            Event::HttpRequest {
                endpoint: "assign".to_string(),
                status: 200,
                points: 16,
                request_id: 1,
                duration_us: 1_250,
                stages: HttpStages {
                    queue_us: 10,
                    parse_us: 200,
                    route_us: 5,
                    lock_us: 15,
                    engine_us: 900,
                    serialize_us: 40,
                    write_us: 80,
                },
            }
            .name(),
            "http_request"
        );
    }
}
