//! Online model-quality monitoring: windowed drift detection.
//!
//! A [`QualityMonitor`] folds every served assignment / ingest into a
//! **tumbling window** of the same distributions the fit recorded into
//! its [`QualityBaseline`]: the
//! distance-to-nearest-core histogram, per-cluster occupancy counts, and
//! the noise rate. Each time the window fills, three drift signals are
//! scored against the baseline:
//!
//! * `hist_distance` — octave-level earth-mover distance between the
//!   baseline and window assign-distance histograms
//!   ([`dbsvec_obs::telemetry::quality::hist_drift`]);
//! * `occupancy_shift` — total variation between the baseline and window
//!   occupancy shares (probability mass that changed cluster);
//! * `noise_delta` — absolute change in the noise rate.
//!
//! All three live in `[0, 1]`; the combined **evidence score** is their
//! maximum (the strongest single piece of evidence), smoothed with an
//! EWMA across windows so one odd window cannot flip an alert. When the
//! smoothed score crosses [`MonitorConfig::drift_threshold`], the window
//! report carries an alert and an engine that owns the monitor
//! ([`EngineConfig::monitor`](crate::EngineConfig::monitor)) flips its
//! [`refit_recommended`](crate::Engine::refit_recommended) — drift is
//! refit evidence the flat staleness ratio is blind to, since assignment
//! traffic never changes topology.
//!
//! Models without a baseline (pre-v2 snapshots) still monitor in
//! **degraded mode**: window noise rate and occupancy are tracked and
//! exposed, but no drift score is computed and refit recommendations fall
//! back to staleness alone.

use dbsvec_obs::telemetry::quality::{hist_drift, share_shift, Ewma};
use dbsvec_obs::{Event, Histogram};

use crate::artifact::{distance_ticks, QualityBaseline};
use crate::engine::{Assignment, IngestOutcome};

/// Default observations per tumbling window.
pub const DEFAULT_WINDOW: usize = 512;

/// Default smoothed-score threshold for drift alerts.
pub const DEFAULT_DRIFT_THRESHOLD: f64 = 0.35;

/// Default EWMA smoothing factor for the per-window score.
pub const DEFAULT_EWMA_ALPHA: f64 = 0.4;

/// Tunables of a [`QualityMonitor`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MonitorConfig {
    /// Observations per tumbling window.
    pub window: usize,
    /// Smoothed-score threshold at which a window raises a drift alert
    /// (and the owning engine recommends a refit).
    pub drift_threshold: f64,
    /// EWMA smoothing factor for the combined score, in `(0, 1]`.
    pub ewma_alpha: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            window: DEFAULT_WINDOW,
            drift_threshold: DEFAULT_DRIFT_THRESHOLD,
            ewma_alpha: DEFAULT_EWMA_ALPHA,
        }
    }
}

impl MonitorConfig {
    /// The default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the tumbling-window size.
    ///
    /// # Panics
    ///
    /// Panics when `window` is zero.
    pub fn with_window(mut self, window: usize) -> Self {
        assert!(window > 0, "monitor window must be positive");
        self.window = window;
        self
    }

    /// Sets the drift-alert threshold.
    ///
    /// # Panics
    ///
    /// Panics when the threshold is not in `(0, 1]`.
    pub fn with_drift_threshold(mut self, threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold > 0.0 && threshold <= 1.0,
            "drift threshold must be in (0, 1], got {threshold}"
        );
        self.drift_threshold = threshold;
        self
    }

    /// Sets the EWMA smoothing factor.
    ///
    /// # Panics
    ///
    /// Panics when `alpha` is outside `(0, 1]`.
    pub fn with_ewma_alpha(mut self, alpha: f64) -> Self {
        Ewma::new(alpha); // validates
        self.ewma_alpha = alpha;
        self
    }
}

/// One completed window's drift evidence, per signal.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriftSignals {
    /// Octave-level earth-mover distance between the baseline and window
    /// assign-distance histograms, `[0, 1]`.
    pub hist_distance: f64,
    /// Total-variation shift between baseline and window occupancy
    /// shares, `[0, 1]`.
    pub occupancy_shift: f64,
    /// Absolute noise-rate change against the baseline, `[0, 1]`.
    pub noise_delta: f64,
    /// Combined evidence: the maximum of the three signals.
    pub score: f64,
    /// EWMA of `score` across completed windows (the alerting quantity).
    pub smoothed_score: f64,
}

impl DriftSignals {
    /// Name of the strongest signal (the attribution shown in reports).
    pub fn dominant(&self) -> &'static str {
        if self.hist_distance >= self.occupancy_shift && self.hist_distance >= self.noise_delta {
            "hist_distance"
        } else if self.occupancy_shift >= self.noise_delta {
            "occupancy_shift"
        } else {
            "noise_delta"
        }
    }
}

/// Fixed-point microunits for observer events (`Eq`-friendly scores).
fn e6(x: f64) -> u64 {
    (x.clamp(0.0, 1.0) * 1e6).round() as u64
}

/// What a completed window concluded.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowReport {
    /// 1-based ordinal of the completed window.
    pub window: u64,
    /// Observations the window folded in.
    pub samples: u64,
    /// Drift evidence, `None` in degraded (baseline-less) mode.
    pub signals: Option<DriftSignals>,
    /// Whether the smoothed score crossed the configured threshold.
    pub alert: bool,
    threshold: f64,
}

impl WindowReport {
    /// The [`Event::QualityWindow`] this report corresponds to.
    pub fn window_event(&self) -> Event {
        let s = self.signals;
        Event::QualityWindow {
            window: self.window,
            samples: self.samples,
            drift_score_e6: s.map_or(0, |s| e6(s.smoothed_score)),
            hist_distance_e6: s.map_or(0, |s| e6(s.hist_distance)),
            occupancy_shift_e6: s.map_or(0, |s| e6(s.occupancy_shift)),
            noise_delta_e6: s.map_or(0, |s| e6(s.noise_delta)),
            baseline: s.is_some(),
        }
    }

    /// The [`Event::DriftAlert`] this report raises, if any.
    pub fn alert_event(&self) -> Option<Event> {
        let s = self.signals?;
        self.alert.then(|| Event::DriftAlert {
            window: self.window,
            drift_score_e6: e6(s.smoothed_score),
            threshold_e6: e6(self.threshold),
        })
    }
}

/// Baseline distributions in comparison-ready form.
#[derive(Clone, Debug)]
struct BaselineView {
    shares: Vec<f64>,
    noise_rate: f64,
    assign_dist: Histogram,
}

/// Folds served traffic into windowed distributions and scores drift
/// against the fit-time baseline. See the module docs for the model.
///
/// The monitor is sequential state, fed from one thread: the owning
/// engine folds each answer into it in query order, after any batch
/// fan-out has joined. It keeps scoring against the *original* fit
/// baseline even as the engine's topology evolves — the baseline is the
/// reference the drift question is asked about.
#[derive(Clone, Debug)]
pub struct QualityMonitor {
    baseline: Option<BaselineView>,
    config: MonitorConfig,
    eps: f64,
    // Current (accumulating) window.
    win_dist: Histogram,
    win_occupancy: Vec<u64>,
    win_noise: u64,
    win_samples: u64,
    // Completed-window state. The owning engine counts windows and alerts
    // from the events their reports carry.
    windows_completed: u64,
    last: Option<DriftSignals>,
    last_shares: Vec<f64>,
    last_noise_rate: Option<f64>,
    ewma: Ewma,
}

impl QualityMonitor {
    /// Builds a monitor from the model ε and an optional baseline.
    pub fn from_parts(eps: f64, baseline: Option<&QualityBaseline>, config: MonitorConfig) -> Self {
        let baseline = baseline.map(|q| BaselineView {
            shares: q.shares(),
            noise_rate: q.noise_rate(),
            assign_dist: q.assign_dist.clone(),
        });
        // Windows always report a share for every fitted cluster, even
        // ones that received no traffic (their share is the signal).
        let fitted_clusters = baseline.as_ref().map_or(0, |b| b.shares.len());
        Self {
            baseline,
            config,
            eps,
            win_dist: Histogram::new(),
            win_occupancy: vec![0; fitted_clusters],
            win_noise: 0,
            win_samples: 0,
            windows_completed: 0,
            last: None,
            last_shares: Vec::new(),
            last_noise_rate: None,
            ewma: Ewma::new(config.ewma_alpha),
        }
    }

    /// The configuration the monitor runs with.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Whether a fit-time baseline is available (false = degraded,
    /// staleness-only mode).
    pub fn has_baseline(&self) -> bool {
        self.baseline.is_some()
    }

    /// Drift evidence of the most recently completed window, `None`
    /// before the first window completes or in degraded mode.
    pub fn signals(&self) -> Option<DriftSignals> {
        self.last
    }

    /// Per-cluster occupancy shares of the most recently completed
    /// window (empty before the first window completes).
    pub fn window_shares(&self) -> &[f64] {
        &self.last_shares
    }

    /// Noise rate of the most recently completed window.
    pub fn window_noise_rate(&self) -> Option<f64> {
        self.last_noise_rate
    }

    /// Whether the current smoothed score sits at or above the alert
    /// threshold (always `false` in degraded mode).
    pub fn drift_exceeded(&self) -> bool {
        self.last
            .is_some_and(|s| s.smoothed_score >= self.config.drift_threshold)
    }

    /// Folds one assignment (and, for cluster hits, the distance to the
    /// nearest core) into the window. Returns the report when this
    /// observation completed a window.
    pub fn observe_assign(&mut self, a: Assignment, distance: Option<f64>) -> Option<WindowReport> {
        match a {
            Assignment::Cluster(c) => {
                self.bump_occupancy(c);
                if let Some(d) = distance {
                    self.win_dist.record(distance_ticks(d, self.eps));
                }
            }
            Assignment::Noise => self.win_noise += 1,
        }
        self.tick()
    }

    /// Folds one ingest outcome into the window. Duplicates are skipped
    /// (they carry no distribution information); buffered points count as
    /// noise-side mass until promotion. Returns the report when this
    /// observation completed a window.
    pub fn observe_ingest(&mut self, outcome: IngestOutcome) -> Option<WindowReport> {
        match outcome {
            IngestOutcome::Duplicate => return None,
            IngestOutcome::Core { cluster } | IngestOutcome::Border { cluster } => {
                self.bump_occupancy(cluster)
            }
            IngestOutcome::Buffered => self.win_noise += 1,
        }
        self.tick()
    }

    fn bump_occupancy(&mut self, cluster: u32) {
        let i = cluster as usize;
        if i >= self.win_occupancy.len() {
            self.win_occupancy.resize(i + 1, 0);
        }
        self.win_occupancy[i] += 1;
    }

    fn tick(&mut self) -> Option<WindowReport> {
        self.win_samples += 1;
        (self.win_samples >= self.config.window as u64).then(|| self.roll())
    }

    /// Closes the current window, scores it, and starts the next one.
    fn roll(&mut self) -> WindowReport {
        self.windows_completed += 1;
        let samples = self.win_samples.max(1) as f64;
        let shares: Vec<f64> = self
            .win_occupancy
            .iter()
            .map(|&c| c as f64 / samples)
            .collect();
        let noise_rate = self.win_noise as f64 / samples;

        let signals = self.baseline.as_ref().map(|b| {
            // An all-noise window has an empty distance histogram; the
            // evidence for that lives in noise_delta, so the histogram
            // signal stays quiet rather than pinning to 1.
            let hist_distance = if self.win_dist.is_empty() {
                0.0
            } else {
                hist_drift(&b.assign_dist, &self.win_dist)
            };
            let occupancy_shift = share_shift(&b.shares, &shares);
            let noise_delta = (noise_rate - b.noise_rate).abs();
            let score = hist_distance.max(occupancy_shift).max(noise_delta);
            DriftSignals {
                hist_distance,
                occupancy_shift,
                noise_delta,
                score,
                smoothed_score: self.ewma.observe(score),
            }
        });
        self.last = signals;
        self.last_shares = shares;
        self.last_noise_rate = Some(noise_rate);
        let alert = self.drift_exceeded();
        let report = WindowReport {
            window: self.windows_completed,
            samples: self.win_samples,
            signals,
            alert,
            threshold: self.config.drift_threshold,
        };
        self.win_dist = Histogram::new();
        self.win_occupancy.fill(0);
        self.win_noise = 0;
        self.win_samples = 0;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbsvec_obs::Histogram;

    fn baseline(occupancy: &[u64], noise: u64, dists: &[u64]) -> QualityBaseline {
        let mut h = Histogram::new();
        for &d in dists {
            h.record(d);
        }
        QualityBaseline {
            occupancy: occupancy.to_vec(),
            noise_points: noise,
            total_points: occupancy.iter().sum::<u64>() + noise,
            assign_dist: h,
            margin: None,
        }
    }

    fn config(window: usize) -> MonitorConfig {
        MonitorConfig::new()
            .with_window(window)
            .with_drift_threshold(0.35)
            .with_ewma_alpha(1.0) // undamped: scores are window scores
    }

    #[test]
    fn stationary_traffic_scores_low() {
        // Baseline: two equal clusters, 10% noise, distances around
        // eps/4 (256 ticks at eps = 1).
        let b = baseline(&[45, 45], 10, &[200, 250, 256, 280, 300]);
        let mut m = QualityMonitor::from_parts(1.0, Some(&b), config(100));
        let mut report = None;
        for i in 0..100 {
            let a = match i % 10 {
                9 => Assignment::Noise,
                k => Assignment::Cluster((k % 2) as u32),
            };
            let d = (i % 10 != 9).then_some(0.2 + 0.05 * (i % 5) as f64);
            report = m.observe_assign(a, d).or(report);
        }
        let report = report.expect("window completed");
        let s = report.signals.expect("baseline present");
        assert!(s.score < 0.35, "stationary score too high: {s:?}");
        assert!(!report.alert);
        assert!(!m.drift_exceeded());
        assert_eq!(report.window, 1);
    }

    #[test]
    fn drifted_traffic_scores_high_and_alerts() {
        let b = baseline(&[45, 45], 10, &[200, 250, 256, 280, 300]);
        let mut m = QualityMonitor::from_parts(1.0, Some(&b), config(100));
        let mut last = None;
        // Everything lands in cluster 0, at 4x the baseline distance,
        // with 40% noise: all three signals fire.
        for i in 0..100 {
            let a = if i % 10 < 4 {
                Assignment::Noise
            } else {
                Assignment::Cluster(0)
            };
            let d = (i % 10 >= 4).then_some(0.95);
            last = m.observe_assign(a, d).or(last);
        }
        let report = last.expect("window completed");
        let s = report.signals.expect("baseline present");
        assert!(s.score >= 0.35, "drifted score too low: {s:?}");
        assert!(report.alert, "alert expected: {s:?}");
        assert!(m.drift_exceeded());
        assert_eq!(report.window, 1);
        assert!(s.hist_distance > 0.0);
        assert!(s.occupancy_shift > 0.0);
        assert!(s.noise_delta > 0.25);
        // Events carry the fixed-point scores.
        match report.window_event() {
            Event::QualityWindow {
                baseline, samples, ..
            } => {
                assert!(baseline);
                assert_eq!(samples, 100);
            }
            other => panic!("wrong event {other:?}"),
        }
        assert!(matches!(
            report.alert_event(),
            Some(Event::DriftAlert { window: 1, .. })
        ));
    }

    #[test]
    fn degraded_mode_tracks_windows_without_scores() {
        let mut m = QualityMonitor::from_parts(1.0, None, config(10));
        assert!(!m.has_baseline());
        let mut report = None;
        for i in 0..10 {
            let a = if i < 5 {
                Assignment::Cluster(0)
            } else {
                Assignment::Noise
            };
            report = m.observe_assign(a, None).or(report);
        }
        let report = report.expect("window completed");
        assert!(report.signals.is_none());
        assert!(!report.alert);
        assert!(report.alert_event().is_none());
        assert!(!m.drift_exceeded());
        assert_eq!(m.window_noise_rate(), Some(0.5));
        assert_eq!(m.window_shares(), &[0.5]);
        match report.window_event() {
            Event::QualityWindow {
                baseline,
                drift_score_e6,
                ..
            } => {
                assert!(!baseline);
                assert_eq!(drift_score_e6, 0);
            }
            other => panic!("wrong event {other:?}"),
        }
    }

    #[test]
    fn ingest_outcomes_fold_into_the_window() {
        let b = baseline(&[10], 0, &[100]);
        let mut m = QualityMonitor::from_parts(1.0, Some(&b), config(4));
        assert!(m.observe_ingest(IngestOutcome::Duplicate).is_none());
        assert!(m
            .observe_ingest(IngestOutcome::Core { cluster: 0 })
            .is_none());
        assert!(m
            .observe_ingest(IngestOutcome::Border { cluster: 0 })
            .is_none());
        assert!(m.observe_ingest(IngestOutcome::Buffered).is_none());
        let report = m
            .observe_ingest(IngestOutcome::Core { cluster: 0 })
            .expect("4 non-duplicate outcomes fill the window");
        assert_eq!(report.samples, 4);
        // 25% of the window was buffered (noise-side) vs 0% baseline.
        let s = report.signals.unwrap();
        assert!((s.noise_delta - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ewma_damps_single_window_spikes() {
        let b = baseline(&[10], 0, &[100]);
        let cfg = MonitorConfig::new()
            .with_window(2)
            .with_drift_threshold(0.9)
            .with_ewma_alpha(0.4);
        let mut m = QualityMonitor::from_parts(1.0, Some(&b), cfg);
        // First window: clean. Second: maximally noisy. The smoothed
        // score must sit well below the raw window score.
        for _ in 0..2 {
            m.observe_assign(Assignment::Cluster(0), Some(0.1));
        }
        let clean = m.signals().unwrap();
        assert!(clean.smoothed_score < 0.2);
        let mut report = None;
        for _ in 0..2 {
            report = m.observe_assign(Assignment::Noise, None).or(report);
        }
        let spiky = m.signals().unwrap();
        assert!(spiky.score > 0.9, "raw window score: {spiky:?}");
        assert!(
            spiky.smoothed_score < spiky.score,
            "EWMA must damp: {spiky:?}"
        );
        assert!(!m.drift_exceeded());
        assert!(!report.expect("window completed").alert);
    }

    #[test]
    fn dominant_signal_attribution() {
        let s = DriftSignals {
            hist_distance: 0.1,
            occupancy_shift: 0.5,
            noise_delta: 0.2,
            score: 0.5,
            smoothed_score: 0.5,
        };
        assert_eq!(s.dominant(), "occupancy_shift");
        let s = DriftSignals {
            hist_distance: 0.6,
            ..s
        };
        assert_eq!(s.dominant(), "hist_distance");
        let s = DriftSignals {
            hist_distance: 0.0,
            occupancy_shift: 0.0,
            noise_delta: 0.9,
            ..s
        };
        assert_eq!(s.dominant(), "noise_delta");
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        MonitorConfig::new().with_window(0);
    }
}
