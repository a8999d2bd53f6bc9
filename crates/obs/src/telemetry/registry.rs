//! The metric registry: named counters, gauges, and histograms.
//!
//! A [`Registry`] is the single mutable store a serving process writes its
//! steady-state signals into. Registration returns a typed id
//! ([`CounterId`] / [`GaugeId`] / [`HistogramId`]) — an index, so the hot
//! path updates a metric with one bounds-checked array access and no
//! hashing. Names follow the Prometheus grammar
//! (`[a-zA-Z_:][a-zA-Z0-9_:]*`) and are validated at registration, which
//! is the slow path; duplicates and invalid names panic there, because
//! both are programmer errors.
//!
//! Exposition lives in [`crate::telemetry::expo`]; this module only holds
//! state. Metrics iterate in registration order, so rendered output is
//! deterministic.

use crate::telemetry::hist::Histogram;

/// Handle to a registered counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramId(usize);

#[derive(Clone, Debug)]
struct Metric<T> {
    name: String,
    help: String,
    value: T,
}

/// A registered histogram plus the scale mapping its integer ticks to the
/// exposition unit (e.g. `1e9` ticks per unit for nanosecond ticks exposed
/// as seconds). Exposition divides by this scale — a divisor like `1e9` is
/// exactly representable, so `8000 ns` renders as `0.000008`, not
/// `0.000008000000000000001`.
#[derive(Clone, Debug)]
pub struct HistogramMetric {
    name: String,
    help: String,
    ticks_per_unit: f64,
    hist: Histogram,
}

impl HistogramMetric {
    /// The metric name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The help text.
    pub fn help(&self) -> &str {
        &self.help
    }

    /// A recorded tick value in exposition units.
    pub fn scaled(&self, ticks: f64) -> f64 {
        ticks / self.ticks_per_unit
    }

    /// The underlying histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }
}

/// A named store of counters, gauges, and histograms.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counters: Vec<Metric<u64>>,
    gauges: Vec<Metric<f64>>,
    hists: Vec<HistogramMetric>,
}

/// Panics unless `name` matches `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn validate_name(name: &str) {
    let mut chars = name.chars();
    let head_ok = chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
    let tail_ok = chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
    assert!(
        head_ok && tail_ok,
        "invalid metric name {name:?} (want [a-zA-Z_:][a-zA-Z0-9_:]*)"
    );
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn assert_fresh(&self, name: &str) {
        validate_name(name);
        let taken = self.counters.iter().any(|m| m.name == name)
            || self.gauges.iter().any(|m| m.name == name)
            || self.hists.iter().any(|m| m.name == name);
        assert!(!taken, "metric {name:?} registered twice");
    }

    /// Registers a counter (starts at 0).
    pub fn counter(&mut self, name: &str, help: &str) -> CounterId {
        self.assert_fresh(name);
        self.counters.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            value: 0,
        });
        CounterId(self.counters.len() - 1)
    }

    /// Registers a gauge (starts at 0).
    pub fn gauge(&mut self, name: &str, help: &str) -> GaugeId {
        self.assert_fresh(name);
        self.gauges.push(Metric {
            name: name.to_string(),
            help: help.to_string(),
            value: 0.0,
        });
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers a histogram whose ticks are exposed as
    /// `tick / ticks_per_unit` (pass `1e9` to record nanoseconds and
    /// expose seconds).
    pub fn histogram(&mut self, name: &str, help: &str, ticks_per_unit: f64) -> HistogramId {
        self.assert_fresh(name);
        assert!(ticks_per_unit > 0.0, "histogram scale must be positive");
        self.hists.push(HistogramMetric {
            name: name.to_string(),
            help: help.to_string(),
            ticks_per_unit,
            hist: Histogram::new(),
        });
        HistogramId(self.hists.len() - 1)
    }

    /// Increments a counter by 1.
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Increments a counter by `n`.
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].value += n;
    }

    /// Overwrites a counter from an external cumulative source (e.g. an
    /// engine's lifetime stats struct). The caller guarantees monotonicity.
    pub fn set_counter(&mut self, id: CounterId, v: u64) {
        self.counters[id.0].value = v;
    }

    /// Sets a gauge.
    pub fn set(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0].value = v;
    }

    /// Records one tick into a histogram.
    pub fn observe(&mut self, id: HistogramId, ticks: u64) {
        self.hists[id.0].hist.record(ticks);
    }

    /// Records a duration into a histogram as nanosecond ticks.
    pub fn observe_duration(&mut self, id: HistogramId, d: std::time::Duration) {
        self.hists[id.0].hist.record_duration(d);
    }

    /// Folds a worker-local histogram into a registered one.
    pub fn merge_histogram(&mut self, id: HistogramId, local: &Histogram) {
        self.hists[id.0].hist.merge(local);
    }

    /// A registered histogram by id.
    pub fn histogram_at(&self, id: HistogramId) -> &HistogramMetric {
        &self.hists[id.0]
    }

    /// Current value of a counter, by name (for tests and reports).
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Current value of a gauge, by name.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// All counters as `(name, help, value)` in registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, &str, u64)> {
        self.counters
            .iter()
            .map(|m| (m.name.as_str(), m.help.as_str(), m.value))
    }

    /// All gauges as `(name, help, value)` in registration order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, &str, f64)> {
        self.gauges
            .iter()
            .map(|m| (m.name.as_str(), m.help.as_str(), m.value))
    }

    /// All histograms in registration order.
    pub fn histograms(&self) -> impl Iterator<Item = &HistogramMetric> {
        self.hists.iter()
    }

    /// Total number of registered metrics.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.hists.len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_histograms_round_trip() {
        let mut reg = Registry::new();
        let c = reg.counter("requests_total", "Requests served.");
        let g = reg.gauge("staleness_ratio", "Drift per fitted core.");
        let h = reg.histogram("latency_seconds", "Call latency.", 1e9);

        reg.inc(c);
        reg.add(c, 4);
        reg.set(g, 0.25);
        reg.observe(h, 1_000);
        reg.observe_duration(h, std::time::Duration::from_micros(2));

        assert_eq!(reg.counter_value("requests_total"), Some(5));
        assert_eq!(reg.gauge_value("staleness_ratio"), Some(0.25));
        let hm = reg.histogram_at(h);
        assert_eq!(hm.histogram().count(), 2);
        assert_eq!(hm.scaled(2_000.0), 0.000002);
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.counter_value("nope"), None);

        reg.set_counter(c, 100);
        assert_eq!(reg.counter_value("requests_total"), Some(100));

        let mut local = Histogram::new();
        local.record(7);
        reg.merge_histogram(h, &local);
        assert_eq!(reg.histogram_at(h).histogram().count(), 3);
    }

    #[test]
    fn iteration_preserves_registration_order() {
        let mut reg = Registry::new();
        reg.counter("b_total", "");
        reg.counter("a_total", "");
        let names: Vec<&str> = reg.counters().map(|(n, _, _)| n).collect();
        assert_eq!(names, ["b_total", "a_total"]);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_panic() {
        let mut reg = Registry::new();
        reg.counter("x_total", "");
        reg.gauge("x_total", "");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_panic() {
        Registry::new().counter("9starts-with-digit", "");
    }
}
