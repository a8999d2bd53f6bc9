//! The result a run prints: metric tables, sample statistics, the stamp,
//! and the final JSON line.

use std::collections::BTreeMap;

use dbsvec_obs::Json;

/// End-to-end metrics, printed by every untraced run of every workload.
/// Names and units match `BENCHMARK.json`'s `end_to_end` list.
pub const END_TO_END: [(&str, &str); 5] = [
    ("latency_p50_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("ari_vs_truth", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run of every workload. A
/// layer the workload does not exercise reads 0. Names and units match
/// `BENCHMARK.json`'s `per_layer` list.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("geometry.sq_dist_ns", "ns"),
    ("geometry.sq_dist_bytes", "B"),
    ("index.build_s", "s"),
    ("index.range_calls", "count"),
    ("index.range_busy_s", "s"),
    ("index.range_result_mean", "count"),
    ("index.kd_range_ns", "ns"),
    ("svdd.train_s", "s"),
    ("svdd.solves", "count"),
    ("svdd.smo_iterations", "count"),
    ("svdd.max_target_size", "count"),
    ("svdd.cache_hit_ratio", "ratio"),
    ("core.theta", "ratio"),
    ("core.init_self_s", "s"),
    ("core.sv_expand_self_s", "s"),
    ("core.noise_verify_s", "s"),
    ("core.merge_s", "s"),
    ("core.seeds", "count"),
    ("core.merges", "count"),
    ("engine.classify_us", "us"),
    ("engine.ingest_us", "us"),
    ("engine.remove_us", "us"),
    ("engine.tail_len_mean", "count"),
    ("engine.tree_rebuilds", "count"),
    ("engine.promotions", "count"),
    ("engine.merges", "count"),
    ("engine.demotions", "count"),
    ("engine.splits", "count"),
    ("engine.remove_found_ratio", "ratio"),
    ("server.router_us", "us"),
    ("server.http_us", "us"),
    ("server.parse_us", "us"),
    ("server.lock_us", "us"),
    ("server.serialize_us", "us"),
    ("server.write_us", "us"),
    ("client.assign_p50_us", "us"),
    ("client.assign_p99_us", "us"),
    ("client.assign_batch_p50_us", "us"),
    ("client.assign_batch_p99_us", "us"),
    ("client.ingest_p50_us", "us"),
    ("client.ingest_p99_us", "us"),
    ("client.remove_p50_us", "us"),
    ("client.remove_p99_us", "us"),
    ("client.request_p99_us", "us"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.accounted_pct", "%"),
];

/// What one run measured and whether its outputs passed every check.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: fits, or HTTP requests.
    pub attempted: u64,
    /// Operations that failed: an error, a non-200 status, or an output
    /// that failed its check. A failed end-of-run check counts as one.
    pub failed: u64,
    /// Descriptions of every failed check (empty when correct).
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable breakdown lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed end-of-run check.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Sets every metric of `table` not yet recorded to 0: the layers the
    /// workload does not exercise.
    pub fn zero_missing(&mut self, table: &[(&'static str, &'static str)]) {
        for &(name, _) in table {
            self.metrics.entry(name).or_insert(0.0);
        }
    }

    /// Whether every operation and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The final line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every metric of `table` in table
    /// order with its unit.
    ///
    /// # Panics
    ///
    /// Panics if a metric of `table` was not recorded or a recorded metric
    /// is not in `table` — a workload that skips a metric is a bug.
    pub fn result_line(&self, table: &[(&'static str, &'static str)]) -> String {
        for name in self.metrics.keys() {
            assert!(
                table.iter().any(|(n, _)| n == name),
                "metric {name} is not in the table"
            );
        }
        let metrics: Vec<(String, Json)> = table
            .iter()
            .map(|&(name, unit)| {
                let value = *self
                    .metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                let value = if value.is_finite() { value } else { 0.0 };
                (
                    name.to_string(),
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string()
    }
}

/// The `q`-quantile of an ascending slice by nearest rank: the smallest
/// value with at least `q` of the sample at or below it. With fewer than
/// `1 / (1 - q)` values this is the maximum.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (upper median for even counts, by nearest rank).
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// A latency histogram in fixed memory: exact below 512 ns, then 512
/// linear sub-buckets per power of two (under 0.2% relative error).
/// Recording every request this way keeps the load generator's memory
/// flat, so `peak_rss_mb` measures the system, not the bookkeeping.
#[derive(Clone, Debug)]
pub struct LatencyHist {
    counts: Vec<u64>,
    total: u64,
}

const SUB_BITS: u32 = 9;
const SUB: u64 = 1 << SUB_BITS;

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHist {
    /// An empty histogram covering up to 2⁵⁰ ns.
    pub fn new() -> Self {
        Self {
            counts: vec![0; (SUB as usize) * (51 - SUB_BITS as usize)],
            total: 0,
        }
    }

    fn index(ns: u64) -> usize {
        let ns = ns.min((1 << 50) - 1);
        if ns < SUB {
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros();
        let shift = octave - SUB_BITS;
        (SUB * (octave - SUB_BITS + 1) as u64 + (ns >> shift) - SUB) as usize
    }

    fn midpoint(index: usize) -> f64 {
        let index = index as u64;
        if index < SUB {
            return index as f64;
        }
        let shift = index / SUB - 1;
        let low = (SUB + index % SUB) << shift;
        low as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    /// Records one latency.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    /// Adds another histogram's counts.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Latencies recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile in ns by nearest rank (0 when empty).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::midpoint(i);
            }
        }
        unreachable!("rank is at most the total")
    }
}

/// Reads a POSIX CPU-time clock, in seconds. On a paravirtualized guest
/// the kernel leaves time stolen by the hypervisor out of these clocks,
/// which is what makes CPU time steadier than wall-clock on a shared host.
#[cfg(target_os = "linux")]
fn cpu_clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        0.0
    }
}

#[cfg(not(target_os = "linux"))]
fn cpu_clock_s(_clock: i32) -> f64 {
    0.0
}

/// CPU seconds this process has used, all threads (exited ones too).
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used.
pub fn thread_cpu_s() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The provenance line every result carries: what was measured, on what,
/// with which inputs.
pub fn stamp(workload: &str, seed: u64, seconds: f64, trace: bool, params: Json) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::UInt(seed)),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::Bool(trace)),
        ("git_rev", Json::str(env!("PERFBENCH_GIT_REV"))),
        ("source_digest", Json::str(env!("PERFBENCH_SOURCE_DIGEST"))),
        ("build_profile", Json::str(env!("PERFBENCH_PROFILE"))),
        ("nproc", Json::UInt(nproc as u64)),
        ("params", params),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&sorted(&[3.0, 1.0, 2.0]), 0.99), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn histogram_quantiles_stay_within_the_bucket_error() {
        let mut h = LatencyHist::new();
        for ns in 1..=100_000u64 {
            h.record(ns * 10);
        }
        assert_eq!(h.count(), 100_000);
        for (q, want) in [(0.5, 500_000.0), (0.99, 990_000.0), (1.0, 1_000_000.0)] {
            let got = h.quantile_ns(q);
            assert!((got - want).abs() / want < 0.002, "q{q}: {got} vs {want}");
        }
        let mut small = LatencyHist::new();
        small.record(7);
        assert_eq!(small.quantile_ns(0.5), 7.0);
        let mut merged = LatencyHist::new();
        merged.merge(&small);
        merged.merge(&h);
        assert_eq!(merged.count(), 100_001);
        let (p, t) = (process_cpu_s(), thread_cpu_s());
        assert!(
            p > 0.0 && t > 0.0 && t <= p + 1e-3,
            "process {p} s, thread {t} s"
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.zero_missing(&END_TO_END);
        out.set("latency_p50_ms", 1.25);
        let line = out.result_line(&END_TO_END);
        let parsed = dbsvec_obs::json::parse(&line).expect("valid JSON");
        let Json::Obj(pairs) = &parsed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        let m = parsed.get("metrics").and_then(|m| m.get("latency_p50_ms"));
        assert_eq!(m.and_then(|m| m.get("unit")), Some(&Json::str("ms")));
        assert_eq!(m.and_then(|m| m.get("value")), Some(&Json::Num(1.25)));
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_metric_is_a_bug() {
        Outcome::default().result_line(&END_TO_END);
    }
}
