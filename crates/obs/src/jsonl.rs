//! The streaming sink: one JSON object per observer callback, one per line.
//!
//! Line schema (all lines carry `t`, seconds since the sink was created):
//!
//! ```text
//! {"t":0.000012,"kind":"enter","phase":"init"}
//! {"t":0.000204,"kind":"event","event":"range_query","probe":17,"result_len":9}
//! {"t":0.004100,"kind":"exit","phase":"init"}
//! ```
//!
//! `kind:"event"` lines flatten the event's fields next to its name, so a
//! trace is greppable (`grep '"event":"merge"'`) and replayable
//! ([`crate::ReplayCounts::from_jsonl`]).

use std::io::{self, Write};
use std::time::Instant;

use crate::event::{Event, Phase};
use crate::json::Json;
use crate::observer::Observer;

/// Encodes an event as a flat JSON object: `{"event":"<name>", ...fields}`.
pub fn event_to_json(event: &Event) -> Json {
    let mut pairs: Vec<(String, Json)> = vec![("event".to_string(), Json::str(event.name()))];
    let mut push = |k: &str, v: Json| pairs.push((k.to_string(), v));
    match *event {
        Event::Seed {
            point,
            neighborhood_len,
        } => {
            push("point", Json::UInt(point as u64));
            push("neighborhood_len", Json::UInt(neighborhood_len as u64));
        }
        Event::RangeQuery { probe, result_len } => {
            push("probe", Json::UInt(probe as u64));
            push("result_len", Json::UInt(result_len as u64));
        }
        Event::SmoSolve {
            target_size,
            iterations,
            cache_hits,
            cache_misses,
            warm_started,
            converged,
            initial_kkt_violation_e6,
        } => {
            push("target_size", Json::UInt(target_size as u64));
            push("iterations", Json::UInt(iterations as u64));
            push("cache_hits", Json::UInt(cache_hits));
            push("cache_misses", Json::UInt(cache_misses));
            push("warm_started", Json::Bool(warm_started));
            push("converged", Json::Bool(converged));
            push(
                "initial_kkt_violation_e6",
                Json::UInt(initial_kkt_violation_e6),
            );
        }
        Event::ExpansionRound {
            cluster,
            round,
            target_size,
            n_sv,
            n_core_sv,
            smo_iters,
        } => {
            push("cluster", Json::UInt(cluster as u64));
            push("round", Json::UInt(round as u64));
            push("target_size", Json::UInt(target_size as u64));
            push("n_sv", Json::UInt(n_sv as u64));
            push("n_core_sv", Json::UInt(n_core_sv as u64));
            push("smo_iters", Json::UInt(smo_iters as u64));
        }
        Event::Merge {
            existing,
            expanding,
        } => {
            push("existing", Json::UInt(existing as u64));
            push("expanding", Json::UInt(expanding as u64));
        }
        Event::NoiseVerdict { point, confirmed } => {
            push("point", Json::UInt(point as u64));
            push("confirmed", Json::Bool(confirmed));
        }
        Event::Sample {
            candidates,
            total,
            rate_e6,
        } => {
            push("candidates", Json::UInt(candidates as u64));
            push("total", Json::UInt(total as u64));
            push("rate_e6", Json::UInt(rate_e6));
        }
        Event::Attach { point, attached } => {
            push("point", Json::UInt(point as u64));
            push("attached", Json::Bool(attached));
        }
        Event::Assign { hit } => {
            push("hit", Json::Bool(hit));
        }
        Event::Ingest { core, duplicate } => {
            push("core", Json::Bool(core));
            push("duplicate", Json::Bool(duplicate));
        }
        Event::Promote { cluster } => {
            push("cluster", Json::UInt(cluster as u64));
        }
        Event::Remove { core, found } => {
            push("core", Json::Bool(core));
            push("found", Json::Bool(found));
        }
        Event::Demote { cluster } => {
            push("cluster", Json::UInt(cluster as u64));
        }
        Event::Split { pieces } => {
            push("pieces", Json::UInt(pieces as u64));
        }
        Event::SnapshotWrite { bytes } => {
            push("bytes", Json::UInt(bytes));
        }
        Event::SnapshotLoad { bytes } => {
            push("bytes", Json::UInt(bytes));
        }
        Event::QualityWindow {
            window,
            samples,
            drift_score_e6,
            hist_distance_e6,
            occupancy_shift_e6,
            noise_delta_e6,
            baseline,
        } => {
            push("window", Json::UInt(window));
            push("samples", Json::UInt(samples));
            push("drift_score_e6", Json::UInt(drift_score_e6));
            push("hist_distance_e6", Json::UInt(hist_distance_e6));
            push("occupancy_shift_e6", Json::UInt(occupancy_shift_e6));
            push("noise_delta_e6", Json::UInt(noise_delta_e6));
            push("baseline", Json::Bool(baseline));
        }
        Event::DriftAlert {
            window,
            drift_score_e6,
            threshold_e6,
        } => {
            push("window", Json::UInt(window));
            push("drift_score_e6", Json::UInt(drift_score_e6));
            push("threshold_e6", Json::UInt(threshold_e6));
        }
        Event::HttpRequest {
            ref endpoint,
            status,
            points,
            request_id,
            duration_us,
            stages,
        } => {
            push("endpoint", Json::Str(endpoint.clone()));
            push("status", Json::UInt(status as u64));
            push("points", Json::UInt(points));
            push("request_id", Json::UInt(request_id));
            push("duration_us", Json::UInt(duration_us));
            push("queue_us", Json::UInt(stages.queue_us));
            push("parse_us", Json::UInt(stages.parse_us));
            push("route_us", Json::UInt(stages.route_us));
            push("lock_us", Json::UInt(stages.lock_us));
            push("engine_us", Json::UInt(stages.engine_us));
            push("serialize_us", Json::UInt(stages.serialize_us));
            push("write_us", Json::UInt(stages.write_us));
        }
    }
    Json::Obj(pairs)
}

/// Streams every callback as a JSONL line to a writer.
///
/// Writes are best-effort: the first I/O error is stored (and stops
/// further output) rather than panicking inside the clustering hot path;
/// call [`JsonlSink::finish`] to flush and surface it.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    start: Instant,
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer; timestamps are measured from this call. Hand in a
    /// `BufWriter` when `W` is a file — the sink writes one line per
    /// callback.
    pub fn new(writer: W) -> Self {
        Self {
            writer,
            start: Instant::now(),
            error: None,
        }
    }

    /// The first write error hit so far, if any.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Flushes and returns the writer, or the first error encountered.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.writer)
    }

    fn write_line(&mut self, mut pairs: Vec<(String, Json)>) {
        if self.error.is_some() {
            return;
        }
        let t = self.start.elapsed().as_secs_f64();
        pairs.insert(0, ("t".to_string(), Json::Num(t)));
        if let Err(e) = writeln!(self.writer, "{}", Json::Obj(pairs)) {
            self.error = Some(e);
        }
    }

    fn span_line(&mut self, kind: &str, phase: Phase) {
        self.write_line(vec![
            ("kind".to_string(), Json::str(kind)),
            ("phase".to_string(), Json::str(phase.name())),
        ]);
    }
}

impl<W: Write> Observer for JsonlSink<W> {
    fn span_enter(&mut self, phase: Phase) {
        self.span_line("enter", phase);
    }

    fn span_exit(&mut self, phase: Phase) {
        self.span_line("exit", phase);
    }

    fn event(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        let mut pairs = vec![("kind".to_string(), Json::str("event"))];
        if let Json::Obj(fields) = event_to_json(event) {
            pairs.extend(fields);
        }
        self.write_line(pairs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::replay::{event_from_json, ReplayCounts};

    fn demo_run(obs: &mut dyn Observer) {
        obs.span_enter(Phase::Init);
        obs.event(&Event::Seed {
            point: 3,
            neighborhood_len: 12,
        });
        obs.event(&Event::RangeQuery {
            probe: 3,
            result_len: 12,
        });
        obs.span_enter(Phase::SvExpand);
        obs.event(&Event::SmoSolve {
            target_size: 12,
            iterations: 9,
            cache_hits: 40,
            cache_misses: 4,
            warm_started: true,
            converged: true,
            initial_kkt_violation_e6: 1834,
        });
        obs.event(&Event::ExpansionRound {
            cluster: 0,
            round: 1,
            target_size: 12,
            n_sv: 3,
            n_core_sv: 2,
            smo_iters: 9,
        });
        obs.span_exit(Phase::SvExpand);
        obs.span_exit(Phase::Init);
        obs.span_enter(Phase::NoiseVerify);
        obs.event(&Event::NoiseVerdict {
            point: 8,
            confirmed: true,
        });
        obs.span_exit(Phase::NoiseVerify);
    }

    #[test]
    fn every_line_is_valid_json_with_the_schema_fields() {
        let mut sink = JsonlSink::new(Vec::new());
        demo_run(&mut sink);
        let bytes = sink.finish().expect("no io errors on a Vec");
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 11);
        let mut last_t = 0.0;
        for line in &lines {
            let v = json::parse(line).expect("valid JSON line");
            let t = match v.get("t") {
                Some(Json::Num(t)) => *t,
                other => panic!("missing t: {other:?}"),
            };
            assert!(t >= last_t, "timestamps must be monotone");
            last_t = t;
            match v.get("kind") {
                Some(Json::Str(k)) if k == "enter" || k == "exit" => {
                    assert!(matches!(v.get("phase"), Some(Json::Str(_))));
                }
                Some(Json::Str(k)) if k == "event" => {
                    event_from_json(&v).expect("decodable event line");
                }
                other => panic!("bad kind: {other:?}"),
            }
        }
    }

    #[test]
    fn trace_replays_to_the_same_counts_as_recording() {
        let mut sink = JsonlSink::new(Vec::new());
        let mut recorder = crate::RecordingObserver::new();
        demo_run(&mut sink);
        demo_run(&mut recorder);
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        let from_trace = ReplayCounts::from_jsonl(&text).expect("replayable");
        assert_eq!(from_trace, recorder.replay());
        assert_eq!(from_trace.range_queries, 1);
        assert_eq!(from_trace.noise_confirmed, 1);
    }

    #[test]
    fn io_errors_are_stored_not_panicked() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Failing);
        sink.span_enter(Phase::Init);
        assert!(sink.error().is_some());
        sink.span_exit(Phase::Init); // must not panic after the error
        assert!(sink.finish().is_err());
    }
}
