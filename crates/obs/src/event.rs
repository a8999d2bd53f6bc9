//! The observation vocabulary: phases and typed events.
//!
//! The variants mirror the paper's cost model exactly, so a recorded event
//! stream can be *replayed* into the same counters `DbsvecStats`
//! accumulates (see [`crate::replay`]). Point ids are bare `u32`s — the
//! same representation `dbsvec-geometry` uses for `PointId` — so this
//! crate depends on nothing.
//!
//! [`Event`] is declared once, in the `event_table!` invocation below,
//! which also generates [`Event::name`] and the jsonl field codec behind
//! [`crate::jsonl::event_to_json`] and [`crate::replay::event_from_json`].
//! A variant or field added to the table is therefore named, encoded and
//! decoded without further edits; what it *counts* is decided in one place,
//! [`crate::ReplayCounts::record`].

use crate::json::Json;

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

/// Generates [`Event`], [`Event::name`] and the jsonl field codec from one
/// table. Each variant is written `Variant = "wire_name" { fields }`; its
/// fields travel in declaration order, each through its [`Wire`] impl, and
/// decoding ignores keys the variant does not declare (older traces may
/// carry fields that have since been retired).
macro_rules! event_table {
    (
        $(#[$meta:meta])*
        pub enum Event {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $name:literal {
                    $( $(#[$fmeta:meta])* $field:ident : $ty:ty ),* $(,)?
                }
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum Event {
            $(
                $(#[$vmeta])*
                $variant { $( $(#[$fmeta])* $field: $ty ),* },
            )*
        }

        impl Event {
            /// Stable snake_case name of the variant (used in JSONL output).
            pub fn name(&self) -> &'static str {
                match self {
                    $( Event::$variant { .. } => $name, )*
                }
            }

            /// Appends the variant's fields to `out` in declaration order.
            pub(crate) fn encode_fields(&self, out: &mut Vec<(String, Json)>) {
                match self {
                    $( Event::$variant { $( $field ),* } => {
                        $( <$ty as Wire>::encode($field, stringify!($field), out); )*
                    } )*
                }
            }

            /// Decodes the variant called `name` from a trace object's fields.
            pub(crate) fn decode_fields(name: &str, value: &Json) -> Result<Event, String> {
                match name {
                    $( $name => Ok(Event::$variant {
                        $( $field: <$ty as Wire>::decode(value, stringify!($field))? ),*
                    }), )*
                    other => Err(format!("unknown event {other:?}")),
                }
            }
        }
    };
}

event_table! {
    /// A typed observation emitted by an instrumented algorithm.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Event {
        /// A new sub-cluster was seeded from a core point's neighborhood.
        Seed = "seed" {
            /// The seed point.
            point: u32,
            /// Size of its materialized ε-neighborhood.
            neighborhood_len: usize,
        },
        /// One ε-range query (materializing or counting).
        RangeQuery = "range_query" {
            /// The query point.
            probe: u32,
            /// Number of neighbors found (the count, for counting queries).
            result_len: usize,
        },
        /// One SVDD training finished (fires once per expansion round).
        SmoSolve = "smo_solve" {
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
        ExpansionRound = "expansion_round" {
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
        Merge = "merge" {
            /// Raw id of the cluster that was already labeled on the point.
            existing: u32,
            /// Raw id of the cluster being expanded into it.
            expanding: u32,
        },
        /// A potential-noise point was resolved.
        NoiseVerdict = "noise_verdict" {
            /// The point in question.
            point: u32,
            /// `true` if confirmed noise, `false` if attached as a border point.
            confirmed: bool,
        },
        /// A fit finished building its range index (fires once, first thing
        /// inside initialization, when the fit builds the index itself).
        /// The time from the `init` enter to this event is the build's.
        IndexBuilt = "index_built" {
            /// Points indexed.
            points: usize,
            /// Nodes of the built tree.
            nodes: usize,
        },
        /// A sampled fit drew its core-candidate subsample (fires once, at the
        /// start of initialization, after any index build; exact fits never
        /// emit it).
        Sample = "sample" {
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
        Attach = "attach" {
            /// The point in question.
            point: u32,
            /// `true` if the point joined a cluster, `false` for noise.
            attached: bool,
        },
        /// The serving engine classified one observation.
        Assign = "assign" {
            /// `true` if the point landed in a cluster, `false` for noise.
            hit: bool,
        },
        /// The serving engine absorbed one streamed observation.
        Ingest = "ingest" {
            /// `true` if the point entered the core set immediately.
            core: bool,
            /// `true` if the point duplicated an already-tracked observation
            /// (recorded for staleness but not re-counted for density).
            duplicate: bool,
        },
        /// A point became a core point online (at ingest, or promoted from the
        /// boundary buffer once its ε-neighborhood reached MinPts).
        Promote = "promote" {
            /// Compact cluster id the new core landed in.
            cluster: u32,
        },
        /// The serving engine processed one removal request
        /// (`Engine::remove`).
        Remove = "remove" {
            /// `true` if the removed point was a core point (`false`: a
            /// buffered observation, or a miss).
            core: bool,
            /// `false` when the point was not tracked (never ingested, or
            /// already removed) and nothing changed.
            found: bool,
        },
        /// A removal dropped a core point's tracked ε-neighborhood below
        /// MinPts; the core was demoted back to the boundary buffer.
        Demote = "demote" {
            /// Compact cluster id the core belonged to when demoted.
            cluster: u32,
        },
        /// A removal or demotion disconnected a cluster's core graph; the
        /// cluster was split into its connected pieces.
        Split = "split" {
            /// Connected pieces the cluster broke into (always ≥ 2).
            pieces: u32,
        },
        /// A model snapshot was serialized.
        SnapshotWrite = "snapshot_write" {
            /// Snapshot size in bytes.
            bytes: u64,
        },
        /// A model snapshot was deserialized.
        SnapshotLoad = "snapshot_load" {
            /// Snapshot size in bytes.
            bytes: u64,
        },
        /// The quality monitor completed one tumbling window.
        ///
        /// Scores are fixed-point microunits (`round(score · 1e6)`), the same
        /// convention as [`Event::SmoSolve::initial_kkt_violation_e6`]:
        /// integers keep the event `Eq` and the replay exact.
        QualityWindow = "quality_window" {
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
        DriftAlert = "drift_alert" {
            /// 1-based ordinal of the window that tripped the alert.
            window: u64,
            /// Smoothed drift score in microunits.
            drift_score_e6: u64,
            /// The configured alert threshold in microunits.
            threshold_e6: u64,
        },
        /// The HTTP serving tier finished handling one request.
        HttpRequest = "http_request" {
            /// Stable endpoint slug: `assign`, `ingest`, `remove`, `health`,
            /// `metrics`, `healthz`, `debug_requests`, or `error` for requests
            /// rejected before routing.
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

/// How one event field travels in a jsonl trace line: integers as JSON
/// unsigned integers, flags as booleans, text as strings, and
/// [`HttpStages`] flattened into its seven `*_us` keys.
pub(crate) trait Wire: Sized {
    /// Appends the value to `out` under `key`.
    fn encode(&self, key: &str, out: &mut Vec<(String, Json)>);
    /// Reads the value stored under `key` back from a trace object.
    fn decode(value: &Json, key: &str) -> Result<Self, String>;
}

/// An unsigned integer field. The writer emits `Json::UInt`; the parser
/// reads small integers back as `Json::Int`, so both are accepted.
fn uint(value: &Json, key: &str) -> Result<u64, String> {
    match value.get(key) {
        Some(Json::UInt(u)) => Ok(*u),
        Some(Json::Int(i)) => {
            u64::try_from(*i).map_err(|_| format!("field {key:?} is not an unsigned integer: {i}"))
        }
        Some(other) => Err(format!("field {key:?} is not an unsigned integer: {other}")),
        None => Err(format!("missing field {key:?}")),
    }
}

impl Wire for u64 {
    fn encode(&self, key: &str, out: &mut Vec<(String, Json)>) {
        out.push((key.to_string(), Json::UInt(*self)));
    }

    fn decode(value: &Json, key: &str) -> Result<Self, String> {
        uint(value, key)
    }
}

/// The narrower integer fields: encoded widened to `u64`, decoded with a
/// range check.
macro_rules! narrow_uint_wire {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, key: &str, out: &mut Vec<(String, Json)>) {
                out.push((key.to_string(), Json::UInt(*self as u64)));
            }

            fn decode(value: &Json, key: &str) -> Result<Self, String> {
                <$t>::try_from(uint(value, key)?).map_err(|e| format!("field {key:?}: {e}"))
            }
        }
    )*};
}

narrow_uint_wire!(u16, u32, usize);

impl Wire for bool {
    fn encode(&self, key: &str, out: &mut Vec<(String, Json)>) {
        out.push((key.to_string(), Json::Bool(*self)));
    }

    fn decode(value: &Json, key: &str) -> Result<Self, String> {
        match value.get(key) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("missing bool field {key:?}")),
        }
    }
}

impl Wire for String {
    fn encode(&self, key: &str, out: &mut Vec<(String, Json)>) {
        out.push((key.to_string(), Json::Str(self.clone())));
    }

    fn decode(value: &Json, key: &str) -> Result<Self, String> {
        match value.get(key) {
            Some(Json::Str(s)) => Ok(s.clone()),
            _ => Err(format!("missing string field {key:?}")),
        }
    }
}

impl Wire for HttpStages {
    fn encode(&self, _key: &str, out: &mut Vec<(String, Json)>) {
        for (key, us) in [
            ("queue_us", self.queue_us),
            ("parse_us", self.parse_us),
            ("route_us", self.route_us),
            ("lock_us", self.lock_us),
            ("engine_us", self.engine_us),
            ("serialize_us", self.serialize_us),
            ("write_us", self.write_us),
        ] {
            us.encode(key, out);
        }
    }

    fn decode(value: &Json, _key: &str) -> Result<Self, String> {
        Ok(HttpStages {
            queue_us: uint(value, "queue_us")?,
            parse_us: uint(value, "parse_us")?,
            route_us: uint(value, "route_us")?,
            lock_us: uint(value, "lock_us")?,
            engine_us: uint(value, "engine_us")?,
            serialize_us: uint(value, "serialize_us")?,
            write_us: uint(value, "write_us")?,
        })
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
            Event::IndexBuilt {
                points: 1000,
                nodes: 127
            }
            .name(),
            "index_built"
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
