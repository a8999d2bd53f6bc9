//! Output checks. A wrong answer is a failed operation, never a fast
//! number: each check returns `Err` with the first violation it finds.

use dbsvec_geometry::{PointId, PointSet};
use dbsvec_index::{KdTree, OwnedKdTree, RangeIndex};
use dbsvec_obs::Json;

/// Labels must be identical across a run's fits (fits are deterministic
/// at every thread count).
pub fn labels_identical(reference: &[Option<u32>], got: &[Option<u32>]) -> Result<(), String> {
    if reference.len() != got.len() {
        return Err(format!(
            "label count changed: {} vs {}",
            reference.len(),
            got.len()
        ));
    }
    match reference.iter().zip(got).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!(
            "labels differ between fits at point {i}: {:?} vs {:?}",
            reference[i], got[i]
        )),
    }
}

/// Pair recall against exact DBSCAN, the paper's Table III metric; the
/// exact fit must preserve every DBSCAN pair (recall 1.000).
pub fn recall_is_one(oracle: &[Option<u32>], got: &[Option<u32>]) -> Result<f64, String> {
    let recall = dbsvec_metrics::recall(oracle, got);
    if recall == 1.0 {
        Ok(recall)
    } else {
        Err(format!("recall vs exact DBSCAN is {recall:.6}, not 1.000"))
    }
}

/// The sampled fit's contract (DESIGN.md §5k): every reported core has at
/// least MinPts points within ε over the full set, and every clustered
/// point lies within ε of a core of its own cluster. Runs the core range
/// queries on `threads` threads.
pub fn sampled_contract(
    points: &PointSet,
    labels: &[Option<u32>],
    cores: &[PointId],
    eps: f64,
    min_pts: usize,
    threads: usize,
) -> Result<(), String> {
    if labels.len() != points.len() {
        return Err(format!(
            "{} labels for {} points",
            labels.len(),
            points.len()
        ));
    }
    let tree = KdTree::build(points);
    let chunk = cores.len().div_ceil(threads.max(1)).max(1);
    let partial: Vec<Result<Vec<bool>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = cores
            .chunks(chunk)
            .map(|part| {
                let tree = &tree;
                scope.spawn(move || {
                    let mut covered = vec![false; points.len()];
                    let mut hits = Vec::new();
                    for &c in part {
                        let Some(label) = labels[c as usize] else {
                            return Err(format!("core {c} is unclustered"));
                        };
                        hits.clear();
                        tree.range(points.point(c), eps, &mut hits);
                        if hits.len() < min_pts {
                            return Err(format!(
                                "core {c} has {} points within eps, fewer than MinPts {min_pts}",
                                hits.len()
                            ));
                        }
                        for &h in &hits {
                            if labels[h as usize] == Some(label) {
                                covered[h as usize] = true;
                            }
                        }
                    }
                    Ok(covered)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check worker must not panic"))
            .collect()
    });
    let mut covered = vec![false; points.len()];
    for part in partial {
        for (c, p) in covered.iter_mut().zip(part?) {
            *c |= p;
        }
    }
    match (0..points.len()).find(|&i| labels[i].is_some() && !covered[i]) {
        None => Ok(()),
        Some(i) => Err(format!(
            "point {i} is in cluster {:?} but no core of that cluster lies within eps",
            labels[i]
        )),
    }
}

/// Every written point must lie farther than ε from every fitted core and
/// every read probe, so interleaved writes cannot change any read.
pub fn writes_far<'a>(
    writes: impl IntoIterator<Item = &'a [f64]>,
    cores: &PointSet,
    probes: &PointSet,
    eps: f64,
) -> Result<(), String> {
    let mut fixed = PointSet::with_capacity(cores.dims(), cores.len() + probes.len());
    for (_, p) in cores.iter().chain(probes.iter()) {
        fixed.push(p);
    }
    let tree = OwnedKdTree::build(fixed);
    for w in writes {
        let near = tree.count_range(w, eps);
        if near > 0 {
            return Err(format!(
                "written point {w:?} lies within eps of {near} fitted cores or read probes"
            ));
        }
    }
    Ok(())
}

/// The cluster label an assign response carries for each point: one for
/// a single-point body (`"cluster"`), one per point for a batch
/// (`"clusters"`). `None` when the body is not such a response.
pub fn assign_labels(body: &str) -> Option<Vec<Option<u32>>> {
    let json = dbsvec_obs::json::parse(body).ok()?;
    let label = |v: &Json| match v {
        Json::Null => Some(None),
        Json::Int(c) => u32::try_from(*c).ok().map(Some),
        _ => None,
    };
    if let Some(v) = json.get("cluster") {
        return Some(vec![label(v)?]);
    }
    match json.get("clusters")? {
        Json::Arr(items) => items.iter().map(label).collect(),
        _ => None,
    }
}

/// A served read is correct when it carries exactly the labels the
/// shadow engine's `classify` gives the same points.
pub fn read_matches(body: &str, expected: &[Option<u32>]) -> bool {
    assign_labels(body).is_some_and(|got| got == expected)
}

/// The engine state and write counters the end-of-run check compares.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounts {
    /// Live core points.
    pub core_points: u64,
    /// Live clusters.
    pub clusters: u64,
    /// Points promoted to core.
    pub promotions: u64,
    /// Cluster merges.
    pub merges: u64,
    /// Cores demoted by removals.
    pub demotions: u64,
    /// Cluster splits.
    pub splits: u64,
    /// Tracked points removed.
    pub removals: u64,
    /// Removals of untracked points.
    pub remove_misses: u64,
}

/// The served end state must equal a shadow engine that replayed the same
/// writes. Writes of different clients never interact and none touches a
/// fitted core, so the declarative insert/delete contract makes the end
/// state — and every count below — independent of how the clients'
/// writes interleaved at the server.
pub fn end_state_matches(served: &EngineCounts, shadow: &EngineCounts) -> Result<(), String> {
    if served == shadow {
        Ok(())
    } else {
        Err(format!(
            "served engine {served:?} differs from the shadow replay {shadow:?}"
        ))
    }
}

/// The write script must exercise every maintenance path of the engine.
pub fn write_paths_exercised(counts: &EngineCounts, tree_rebuilds: u64) -> Result<(), String> {
    let paths = [
        ("promotions", counts.promotions),
        ("merges", counts.merges),
        ("demotions", counts.demotions),
        ("splits", counts.splits),
        ("tree rebuilds", tree_rebuilds),
    ];
    let idle: Vec<&str> = paths
        .iter()
        .filter(|(_, n)| *n == 0)
        .map(|(name, _)| *name)
        .collect();
    if idle.is_empty() {
        Ok(())
    } else {
        Err(format!("the run produced no {}", idle.join(", no ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_single_and_batch_assign_bodies() {
        assert_eq!(
            assign_labels(r#"{"model":"m","cluster":3}"#),
            Some(vec![Some(3)])
        );
        assert_eq!(
            assign_labels(r#"{"model":"m","cluster":null}"#),
            Some(vec![None])
        );
        assert_eq!(
            assign_labels(r#"{"model":"m","count":2,"clusters":[1,null]}"#),
            Some(vec![Some(1), None])
        );
        assert_eq!(assign_labels(r#"{"error":"x"}"#), None);
        assert_eq!(assign_labels("not json"), None);
    }
}
