//! Candidate-subsample draws for the sampled core-discovery fit mode.
//!
//! DBSCAN++ (Jang & Jiang, 2019) shows that computing density on a
//! uniform or greedy k-center subsample of *candidate cores* preserves
//! cluster recovery while cutting the number of density evaluations from
//! n to the subsample size. DBSVEC composes naturally with that idea:
//! seeding and support-vector expansion restrict themselves to the drawn
//! candidates, and every unsampled point is attached afterwards to its
//! nearest discovered core within ε (or confirmed as noise) — the same
//! rule noise verification already applies to borderline training points.
//!
//! Draws are seeded [`SplitMix64`] streams, so the subsample is a pure
//! function of `(points, SamplingConfig)` and a refit reproduces it.

use dbsvec_geometry::rng::SplitMix64;
use dbsvec_geometry::{PointId, PointSet};

use crate::config::{SamplingConfig, SamplingMode};

/// Draws the core-candidate ids for `sampling` over `points`, sorted
/// ascending.
///
/// Returns `None` when the draw covers **every** point — `Exact` mode, a
/// uniform rate of 1.0, or a k-center budget of at least n — so the
/// caller can take the classic full-fit path untouched (bit-identical
/// labels, stats, and traces).
pub fn sample_candidates(points: &PointSet, sampling: &SamplingConfig) -> Option<Vec<PointId>> {
    let n = points.len();
    match sampling.mode {
        SamplingMode::Exact => None,
        SamplingMode::Uniform { rate } => {
            if rate >= 1.0 {
                return None;
            }
            let mut rng = SplitMix64::new(sampling.seed);
            let ids: Vec<PointId> = (0..n as PointId)
                .filter(|_| rng.next_f64() < rate)
                .collect();
            if ids.len() == n {
                None
            } else {
                Some(ids)
            }
        }
        SamplingMode::KCenter { m } => {
            if m >= n {
                return None;
            }
            Some(k_center_ids(points, m, sampling.seed))
        }
    }
}

/// Greedy farthest-first traversal (the classic 2-approximation to the
/// k-center problem): a seeded first center, then repeatedly the point
/// farthest from the chosen set. Ties break toward the lowest id, so the
/// draw is deterministic. Runs in O(m·n) distance evaluations and O(n)
/// memory. With duplicate coordinates the traversal can exhaust the
/// distinct points early, in which case fewer than `m` ids come back.
fn k_center_ids(points: &PointSet, m: usize, seed: u64) -> Vec<PointId> {
    let n = points.len();
    debug_assert!(m >= 1 && m < n);
    let mut rng = SplitMix64::new(seed);
    let first = rng.next_below(n as u64) as PointId;
    let mut chosen = vec![first];
    let mut min_sq: Vec<f64> = (0..n as PointId)
        .map(|i| points.squared_distance(i, first))
        .collect();
    while chosen.len() < m {
        let mut best: Option<(f64, PointId)> = None;
        for (i, &d) in min_sq.iter().enumerate() {
            if best.map_or(true, |(bd, _)| d > bd) {
                best = Some((d, i as PointId));
            }
        }
        let (best_d, best_i) = best.expect("n >= 2 here, so an argmax exists");
        if best_d <= 0.0 {
            break; // every remaining point duplicates a chosen center
        }
        chosen.push(best_i);
        for i in 0..n as PointId {
            let d = points.squared_distance(i, best_i);
            if d < min_sq[i as usize] {
                min_sq[i as usize] = d;
            }
        }
    }
    chosen.sort_unstable();
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SamplingConfig;

    fn line(n: usize) -> PointSet {
        let mut ps = PointSet::new(1);
        for i in 0..n {
            ps.push(&[i as f64]);
        }
        ps
    }

    #[test]
    fn exact_mode_draws_nothing() {
        assert_eq!(
            sample_candidates(&line(10), &SamplingConfig::default()),
            None
        );
    }

    #[test]
    fn uniform_rate_one_covers_everything() {
        let cfg = SamplingConfig {
            mode: SamplingMode::Uniform { rate: 1.0 },
            seed: 7,
        };
        assert_eq!(sample_candidates(&line(100), &cfg), None);
    }

    #[test]
    fn uniform_draw_is_seed_deterministic_and_sorted() {
        let ps = line(500);
        let cfg = SamplingConfig {
            mode: SamplingMode::Uniform { rate: 0.3 },
            seed: 42,
        };
        let a = sample_candidates(&ps, &cfg).expect("rate 0.3 leaves gaps");
        let b = sample_candidates(&ps, &cfg).unwrap();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates");
        // The draw should land near rate·n without being degenerate.
        assert!(a.len() > 100 && a.len() < 200, "got {}", a.len());
        let other = SamplingConfig { seed: 43, ..cfg };
        assert_ne!(sample_candidates(&ps, &other).unwrap(), a);
    }

    #[test]
    fn kcenter_budget_at_or_above_n_covers_everything() {
        let ps = line(8);
        for m in [8usize, 9, 100] {
            let cfg = SamplingConfig {
                mode: SamplingMode::KCenter { m },
                seed: 1,
            };
            assert_eq!(sample_candidates(&ps, &cfg), None, "m={m}");
        }
    }

    #[test]
    fn kcenter_spreads_over_the_extent() {
        let ps = line(100);
        let cfg = SamplingConfig {
            mode: SamplingMode::KCenter { m: 5 },
            seed: 3,
        };
        let ids = sample_candidates(&ps, &cfg).unwrap();
        assert_eq!(ids.len(), 5);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        // Farthest-first on a line must pick both endpoints by round two.
        assert!(ids.contains(&0) || ids.contains(&99));
        // Deterministic under the same seed.
        assert_eq!(sample_candidates(&ps, &cfg).unwrap(), ids);
    }

    #[test]
    fn kcenter_stops_early_on_duplicates() {
        let mut ps = PointSet::new(1);
        for _ in 0..6 {
            ps.push(&[1.0]);
        }
        ps.push(&[2.0]);
        let cfg = SamplingConfig {
            mode: SamplingMode::KCenter { m: 5 },
            seed: 9,
        };
        // Only two distinct coordinates exist: the traversal exhausts them.
        let ids = sample_candidates(&ps, &cfg).unwrap();
        assert_eq!(ids.len(), 2);
    }
}
