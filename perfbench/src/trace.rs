//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's side of each layer boundary —
//! an [`Observer`] consuming the phase spans and SMO events a fit already
//! emits, a [`RangeIndex`] wrapper timing every range call, and the HTTP
//! client timing every request — kept in memory, and written out as JSON
//! lines when the run ends. A span's self time is its duration minus the
//! part of it that its children cover.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use dbsvec_geometry::PointId;
use dbsvec_index::RangeIndex;
use dbsvec_obs::{Event, Json, Observer, Phase};

/// One traced interval, in nanoseconds since the trace epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique within the trace.
    pub id: u64,
    /// The span that caused this one (`None` for a root: a fit or a
    /// request).
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `svdd.train` or `request.ingest`.
    pub name: &'static str,
    /// Start, in ns since the epoch.
    pub start_ns: u64,
    /// End, in ns since the epoch.
    pub end_ns: u64,
    /// Who ran it: in a fit, 0 for the driving thread and 1 for a worker;
    /// for a request, the client's index.
    pub thread: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Every span of a run, in memory until [`Trace::write_jsonl`].
pub struct Trace {
    epoch: Instant,
    next_id: u64,
    /// Spans in the order they closed.
    pub spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// The epoch all span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// Nanoseconds from the epoch to `t` (0 for instants before it).
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserves a span id.
    pub fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a finished span under a fresh id and returns the id.
    pub fn push(
        &mut self,
        parent: Option<u64>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next_id();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            thread: 0,
        });
        id
    }

    /// Writes the first `limit` spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path, limit: usize) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.iter().take(limit) {
            let line = Json::obj([
                ("id", Json::UInt(s.id)),
                ("parent", s.parent.map_or(Json::Null, Json::UInt)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::UInt(s.start_ns)),
                ("end_ns", Json::UInt(s.end_ns)),
                ("thread", Json::UInt(s.thread as u64)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Self time of every span in `spans`, by id: its duration minus the
/// union of its children's intervals clipped to it. Parallel children
/// that overlap are counted once.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Sum of the self times of the spans named `name`, in seconds.
pub fn self_seconds(spans: &[Span], selfs: &HashMap<u64, u64>, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| selfs[&s.id] as f64 * 1e-9)
        .sum()
}

/// The trace name of a fit phase.
pub fn phase_name(phase: Phase) -> &'static str {
    match phase {
        Phase::Init => "core.init",
        Phase::SvExpand => "core.sv_expand",
        Phase::SvddTrain => "svdd.train",
        Phase::NoiseVerify => "core.noise_verify",
        Phase::Merge => "core.merge",
        Phase::Serve => "engine.serve",
    }
}

/// Totals of the SMO solves a fit reported.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SmoTotals {
    /// SVDD trainings.
    pub solves: u64,
    /// SMO iterations across all trainings.
    pub iterations: u64,
    /// Largest target set ñ.
    pub max_target_size: usize,
    /// Distance-row cache hits.
    pub cache_hits: u64,
    /// Distance-row cache misses.
    pub cache_misses: u64,
}

/// Records a fit's phase spans under a root span, and totals its SMO
/// solves, from the spans and events the fit already emits.
pub struct FitObserver<'a> {
    trace: &'a mut Trace,
    root: u64,
    open: Vec<(u64, &'static str, u64)>,
    /// SMO totals so far.
    pub smo: SmoTotals,
}

impl<'a> FitObserver<'a> {
    /// Observes into `trace`, parenting top-level phases to `root`.
    pub fn new(trace: &'a mut Trace, root: u64) -> Self {
        Self {
            trace,
            root,
            open: Vec::new(),
            smo: SmoTotals::default(),
        }
    }
}

impl Observer for FitObserver<'_> {
    fn span_enter(&mut self, phase: Phase) {
        let id = self.trace.next_id();
        let start = self.trace.now_ns();
        self.open.push((id, phase_name(phase), start));
    }

    fn span_exit(&mut self, _phase: Phase) {
        let end = self.trace.now_ns();
        let (id, name, start) = self.open.pop().expect("spans close in LIFO order");
        let parent = self.open.last().map_or(self.root, |o| o.0);
        self.trace.spans.push(Span {
            id,
            parent: Some(parent),
            name,
            start_ns: start,
            end_ns: end,
            thread: 0,
        });
    }

    fn event(&mut self, event: &Event) {
        if let Event::SmoSolve {
            target_size,
            iterations,
            cache_hits,
            cache_misses,
            ..
        } = *event
        {
            self.smo.solves += 1;
            self.smo.iterations += iterations as u64;
            self.smo.max_target_size = self.smo.max_target_size.max(target_size);
            self.smo.cache_hits += cache_hits;
            self.smo.cache_misses += cache_misses;
        }
    }
}

/// One timed range call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeCall {
    /// Start, in ns since the trace epoch.
    pub start_ns: u64,
    /// End, in ns since the trace epoch.
    pub end_ns: u64,
    /// Points the call reported (or counted).
    pub results: u64,
    /// Whether a worker thread (not the driving thread) made the call.
    pub worker: bool,
}

/// A [`RangeIndex`] that times every call into the index it wraps. Safe
/// to share with the fit's worker threads.
pub struct TimedIndex<'a, I> {
    inner: &'a I,
    epoch: Instant,
    main_thread: ThreadId,
    calls: Mutex<Vec<RangeCall>>,
}

impl<'a, I: RangeIndex> TimedIndex<'a, I> {
    /// Wraps `inner`, stamping calls against `epoch`; the calling thread
    /// is the driving thread.
    pub fn new(inner: &'a I, epoch: Instant) -> Self {
        Self {
            inner,
            epoch,
            main_thread: std::thread::current().id(),
            calls: Mutex::new(Vec::new()),
        }
    }

    fn record(&self, start: Instant, end: Instant, results: usize) {
        let call = RangeCall {
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
            results: results as u64,
            worker: std::thread::current().id() != self.main_thread,
        };
        self.calls
            .lock()
            .expect("no thread panics while holding the call log")
            .push(call);
    }

    /// The calls recorded so far.
    pub fn into_calls(self) -> Vec<RangeCall> {
        self.calls
            .into_inner()
            .expect("no thread panics while holding the call log")
    }
}

impl<I: RangeIndex> RangeIndex for TimedIndex<'_, I> {
    fn range(&self, query: &[f64], eps: f64, out: &mut Vec<PointId>) {
        let before = out.len();
        let start = Instant::now();
        self.inner.range(query, eps, out);
        let end = Instant::now();
        self.record(start, end, out.len() - before);
    }

    fn count_range(&self, query: &[f64], eps: f64) -> usize {
        let start = Instant::now();
        let n = self.inner.count_range(query, eps);
        let end = Instant::now();
        self.record(start, end, n);
        n
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// Adds `calls` to the trace as `index.range` spans, each parented to the
/// innermost span among `candidates` (the fit's phases, all on the
/// driving thread and properly nested) that encloses its start, or to
/// `root`.
pub fn attach_calls(trace: &mut Trace, root: u64, candidates: &[Span], calls: &[RangeCall]) {
    let mut phases: Vec<&Span> = candidates.iter().collect();
    phases.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
    let mut order: Vec<&RangeCall> = calls.iter().collect();
    order.sort_by_key(|c| c.start_ns);
    let mut open: Vec<(u64, u64)> = vec![(root, u64::MAX)];
    let mut next = 0;
    for call in order {
        while next < phases.len() && phases[next].start_ns <= call.start_ns {
            let p = phases[next];
            while open.len() > 1 && open.last().is_some_and(|o| o.1 <= p.start_ns) {
                open.pop();
            }
            open.push((p.id, p.end_ns));
            next += 1;
        }
        while open.len() > 1 && open.last().is_some_and(|o| o.1 < call.start_ns) {
            open.pop();
        }
        let id = trace.next_id();
        trace.spans.push(Span {
            id,
            parent: Some(open.last().expect("root stays open").0),
            name: "index.range",
            start_ns: call.start_ns,
            end_ns: call.end_ns,
            thread: call.worker as u32,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start_ns: start,
            end_ns: end,
            thread: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 40),  // overlaps 2: counted once
            span(4, Some(1), 90, 120), // clipped to the parent
            span(5, Some(2), 10, 15),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 30 - 10);
        assert_eq!(selfs[&2], 20 - 5);
        assert_eq!(selfs[&3], 20);
        assert_eq!(selfs[&5], 5);
    }

    #[test]
    fn range_calls_parent_to_the_innermost_enclosing_phase() {
        let mut trace = Trace::new();
        let phases = vec![
            span(10, Some(1), 0, 100),
            span(11, Some(10), 20, 50),
            span(12, Some(1), 100, 150),
        ];
        let call = |start, end| RangeCall {
            start_ns: start,
            end_ns: end,
            results: 1,
            worker: true,
        };
        let calls = [
            call(5, 6),
            call(25, 30),
            call(60, 70),
            call(120, 125),
            call(160, 170),
        ];
        attach_calls(&mut trace, 1, &phases, &calls);
        let parents: Vec<Option<u64>> = trace.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [Some(10), Some(11), Some(10), Some(12), Some(1)]);
    }
}
