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

/// Encodes an event as a flat JSON object: `{"event":"<name>", ...fields}`,
/// the fields in the order the event table declares them.
pub fn event_to_json(event: &Event) -> Json {
    let mut pairs: Vec<(String, Json)> = vec![("event".to_string(), Json::str(event.name()))];
    event.encode_fields(&mut pairs);
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
