//! The interleaving oracle harness for dynamic (insert/delete)
//! maintenance.
//!
//! The engine's declarative contract: with tracked set `L` = fitted cores
//! ∪ inserts − removes, a point is core iff it has ≥ MinPts tracked
//! points within ε (itself included), and clusters are the connected
//! components of the core graph (cores within ε of each other). The
//! harness drives seeded SplitMix64 sequences of inserts, deletes, and
//! assigns through the engine while mirroring `L`, and after every
//! operation compares the maintained state against a from-scratch O(n²)
//! oracle: identical core sets, identical partition up to label renaming,
//! identical buffered points and neighbor counts.
//!
//! Base models are built to satisfy the closure property — every fitted
//! core has ≥ MinPts fitted cores within ε and the fitted labels equal
//! the geometric components — so the engine's load-time grandfathering
//! never diverges from the declarative reading and the comparison is
//! exact.

use std::collections::{HashMap, HashSet};

use dbsvec::engine::{
    Assignment, Engine, EngineMetrics, IngestOutcome, ModelArtifact, RemoveOutcome,
};
use dbsvec::geometry::squared_euclidean;
use dbsvec::obs::RecordingObserver;
use dbsvec::PointSet;

/// Thread count from `DBSVEC_TEST_THREADS` (CI runs the suite at 1 and 4;
/// the default exercises the fan-out path cheaply).
fn test_threads() -> usize {
    std::env::var("DBSVEC_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

/// SplitMix64: tiny, seedable, and good enough to schedule operations.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn key(p: &[f64]) -> Vec<u64> {
    p.iter().map(|v| v.to_bits()).collect()
}

/// One base model plus the lattice of candidate insert positions around
/// it.
struct Scenario {
    name: &'static str,
    artifact: ModelArtifact,
    pool: Vec<Vec<f64>>,
    eps: f64,
    min_pts: u32,
}

fn make_artifact(cores: Vec<(Vec<f64>, u32)>, eps: f64, min_pts: u32) -> ModelArtifact {
    let mut set = PointSet::new(cores[0].0.len());
    let mut labels = Vec::new();
    for (p, l) in &cores {
        set.push(p);
        labels.push(*l);
    }
    let num_clusters = labels.iter().copied().max().map_or(0, |m| m + 1);
    let artifact = ModelArtifact {
        eps,
        min_pts,
        num_clusters,
        cores: set,
        core_labels: labels,
        boundaries: None,
        quality: None,
        sampling: None,
    };
    artifact.validate().expect("scenario artifact validates");
    artifact
}

fn grid(x0: i32, x1: i32, y0: i32, y1: i32, label: u32) -> Vec<(Vec<f64>, u32)> {
    let mut out = Vec::new();
    for x in x0..=x1 {
        for y in y0..=y1 {
            out.push((vec![x as f64, y as f64], label));
        }
    }
    out
}

/// Half-step lattice covering the scenario's neighborhood.
fn lattice(x0: f64, x1: f64, y0: f64, y1: f64) -> Vec<Vec<f64>> {
    let mut out = Vec::new();
    let mut x = x0;
    while x <= x1 + 1e-9 {
        let mut y = y0;
        while y <= y1 + 1e-9 {
            out.push(vec![x, y]);
            y += 0.5;
        }
        x += 0.5;
    }
    out
}

/// Three base models at three MinPts settings, each satisfying closure:
/// with ε = 1.5 a 5×5 unit grid point sees its orthogonal and diagonal
/// neighbors (a corner has 3 + itself = MinPts 4); with ε = 1.2 a 3×3
/// grid point sees only orthogonal neighbors (corner: 2 + itself =
/// MinPts 3); with ε = 1.1 a unit chain endpoint sees 1 + itself =
/// MinPts 2.
fn scenarios() -> Vec<Scenario> {
    let grid5 = grid(0, 4, 0, 4, 0);
    let mut two = grid(0, 2, 0, 2, 0);
    two.extend(grid(6, 8, 0, 2, 1));
    let chain: Vec<(Vec<f64>, u32)> = (0..20).map(|i| (vec![i as f64, 0.0], 0)).collect();
    vec![
        Scenario {
            name: "grid5",
            artifact: make_artifact(grid5, 1.5, 4),
            pool: lattice(-1.0, 5.0, -1.0, 5.0),
            eps: 1.5,
            min_pts: 4,
        },
        Scenario {
            name: "two-grids",
            artifact: make_artifact(two, 1.2, 3),
            pool: lattice(-1.0, 9.0, -1.0, 3.0),
            eps: 1.2,
            min_pts: 3,
        },
        Scenario {
            name: "chain",
            artifact: make_artifact(chain, 1.1, 2),
            pool: lattice(-1.0, 20.0, -1.0, 1.0),
            eps: 1.1,
            min_pts: 2,
        },
    ]
}

/// The from-scratch oracle over the mirrored tracked set.
struct Oracle {
    /// Core coordinate key → geometric component id.
    core_comp: HashMap<Vec<u64>, usize>,
    /// Number of components.
    ncomp: usize,
    /// Non-core coordinate key → tracked neighbor count (self included).
    buffered: HashMap<Vec<u64>, u32>,
}

fn oracle(live: &[Vec<f64>], eps_sq: f64, min_pts: u32) -> Oracle {
    let n = live.len();
    let mut count = vec![0u32; n];
    for i in 0..n {
        for j in 0..n {
            if squared_euclidean(&live[i], &live[j]) <= eps_sq {
                count[i] += 1;
            }
        }
    }
    let is_core: Vec<bool> = count.iter().map(|&c| c >= min_pts).collect();
    let mut comp = vec![usize::MAX; n];
    let mut ncomp = 0;
    for i in 0..n {
        if !is_core[i] || comp[i] != usize::MAX {
            continue;
        }
        comp[i] = ncomp;
        let mut stack = vec![i];
        while let Some(u) = stack.pop() {
            for v in 0..n {
                if is_core[v]
                    && comp[v] == usize::MAX
                    && squared_euclidean(&live[u], &live[v]) <= eps_sq
                {
                    comp[v] = ncomp;
                    stack.push(v);
                }
            }
        }
        ncomp += 1;
    }
    let mut core_comp = HashMap::new();
    let mut buffered = HashMap::new();
    for i in 0..n {
        if is_core[i] {
            core_comp.insert(key(&live[i]), comp[i]);
        } else {
            buffered.insert(key(&live[i]), count[i]);
        }
    }
    Oracle {
        core_comp,
        ncomp,
        buffered,
    }
}

/// Compares the engine's maintained state against the oracle: equal core
/// sets, a label↔component bijection, equal cluster counts, and equal
/// buffered points with equal neighbor counts. Returns the label →
/// component map for assignment checks.
fn check_state(
    engine: &Engine,
    live: &[Vec<f64>],
    eps_sq: f64,
    min_pts: u32,
    tag: &str,
) -> HashMap<u32, usize> {
    let o = oracle(live, eps_sq, min_pts);
    let snap = engine.snapshot();
    assert_eq!(
        snap.cores.len(),
        o.core_comp.len(),
        "{tag}: engine has {} cores, oracle {}",
        snap.cores.len(),
        o.core_comp.len()
    );
    let mut fwd: HashMap<u32, usize> = HashMap::new();
    let mut rev: HashMap<usize, u32> = HashMap::new();
    for (i, p) in snap.cores.iter() {
        let c = *o
            .core_comp
            .get(&key(p))
            .unwrap_or_else(|| panic!("{tag}: engine core {p:?} is not an oracle core"));
        let l = snap.core_labels[i as usize];
        assert_eq!(
            *fwd.entry(l).or_insert(c),
            c,
            "{tag}: engine label {l} straddles oracle components"
        );
        assert_eq!(
            *rev.entry(c).or_insert(l),
            l,
            "{tag}: oracle component {c} straddles engine labels"
        );
    }
    assert_eq!(
        snap.num_clusters as usize, o.ncomp,
        "{tag}: cluster count mismatch"
    );
    let got: HashMap<Vec<u64>, u32> = engine
        .buffered_view()
        .iter()
        .map(|(p, c)| (key(p), *c))
        .collect();
    assert_eq!(got, o.buffered, "{tag}: buffered set or counts mismatch");
    fwd
}

/// One seeded interleaving: inserts from the lattice pool, deletes of
/// random tracked points, misses on never-tracked points, and threaded
/// assign batches verified against the oracle — full state comparison
/// after every operation.
fn run_sequence(s: &Scenario, seed: u64, ops: usize) {
    let mut engine = Engine::new(&s.artifact);
    let mut rng = SplitMix64::new(seed);
    let eps_sq = s.eps * s.eps;
    let dims = s.artifact.cores.dims();
    let mut live: Vec<Vec<f64>> = s.artifact.cores.iter().map(|(_, p)| p.to_vec()).collect();
    check_state(
        &engine,
        &live,
        eps_sq,
        s.min_pts,
        &format!("{} load", s.name),
    );

    for op in 0..ops {
        let tag = format!("{} seed {seed} op {op}", s.name);
        match rng.below(10) {
            0..=3 => {
                let p = s.pool[rng.below(s.pool.len())].clone();
                let dup = live.contains(&p);
                let out = engine.ingest(&p);
                assert_eq!(
                    matches!(out, IngestOutcome::Duplicate),
                    dup,
                    "{tag}: duplicate detection on {p:?}"
                );
                if !dup {
                    live.push(p);
                }
            }
            4..=7 => {
                if live.is_empty() {
                    continue;
                }
                let p = live.swap_remove(rng.below(live.len()));
                let out = engine.remove(&p);
                assert!(
                    matches!(out, RemoveOutcome::Removed { .. }),
                    "{tag}: tracked point {p:?} was not removed: {out:?}"
                );
            }
            8 => {
                // Outside every pool's bounding box: never tracked.
                let far = vec![500.0 + op as f64; dims];
                assert_eq!(engine.remove(&far), RemoveOutcome::NotFound, "{tag}");
            }
            _ => {
                let mut queries = PointSet::new(dims);
                for _ in 0..4 {
                    queries.push(&s.pool[rng.below(s.pool.len())]);
                }
                let fwd = check_state(&engine, &live, eps_sq, s.min_pts, &tag);
                let o = oracle(&live, eps_sq, s.min_pts);
                let rows: Vec<&[f64]> = queries.iter().map(|(_, q)| q).collect();
                let answers = engine.assign_many(&rows, test_threads(), &mut EngineMetrics::new());
                for (qi, q) in queries.iter() {
                    // Components of the nearest cores within ε (several
                    // on an exact distance tie).
                    let mut best = f64::INFINITY;
                    let mut allowed: HashSet<usize> = HashSet::new();
                    for p in live.iter().filter(|p| o.core_comp.contains_key(&key(p))) {
                        let d = squared_euclidean(p, q);
                        if d > eps_sq {
                            continue;
                        }
                        if d < best {
                            best = d;
                            allowed.clear();
                        }
                        if d <= best {
                            allowed.insert(o.core_comp[&key(p)]);
                        }
                    }
                    match answers[qi as usize] {
                        Assignment::Noise => {
                            assert!(
                                allowed.is_empty(),
                                "{tag}: {q:?} labeled noise with a core in range"
                            )
                        }
                        Assignment::Cluster(l) => assert!(
                            allowed.contains(&fwd[&l]),
                            "{tag}: {q:?} got label {l}, not the nearest core's cluster"
                        ),
                    }
                }
            }
        }
        check_state(&engine, &live, eps_sq, s.min_pts, &tag);
    }
}

#[test]
fn maintained_state_matches_refit_oracle_under_random_interleavings() {
    for s in scenarios() {
        for seed in [11, 42] {
            run_sequence(&s, seed, 220);
        }
    }
}

/// Scripted bridge-build / bridge-teardown on the two-grid model: the
/// bridge promotions must MERGE the clusters (asserted via replayed Merge
/// events), and removing the keystone must demote its neighbors and SPLIT
/// the merged cluster back apart (asserted via replayed Split events) —
/// leaving exactly the oracle's partition.
#[test]
fn bridge_build_then_teardown_merges_then_splits() {
    let s = &scenarios()[1]; // two 3×3 grids, ε 1.2, MinPts 3
    let eps_sq = s.eps * s.eps;
    let mut engine = Engine::new(&s.artifact);
    let mut rec = RecordingObserver::new();
    let mut live: Vec<Vec<f64>> = s.artifact.cores.iter().map(|(_, p)| p.to_vec()).collect();
    assert_eq!(engine.num_clusters(), 2);

    // Build the bridge: the outer points buffer (one tracked neighbor
    // each), the keystone arrives with three tracked neighbors and
    // promotes, ripening both outer points — whose promotions join the
    // two grids.
    for p in [[3.0, 1.0], [5.0, 1.0], [4.0, 1.0]] {
        engine.ingest_observed(&p, &mut rec);
        live.push(p.to_vec());
    }
    let counts = rec.replay();
    assert!(counts.merges >= 1, "bridge must merge: {counts:?}");
    assert_eq!(engine.num_clusters(), 1);
    check_state(&engine, &live, eps_sq, s.min_pts, "bridge built");

    // Tear out the keystone: both outer bridge points drop below MinPts
    // and demote, and the component splits back into the two grids.
    let out = engine.remove_observed(&[4.0, 1.0], &mut rec);
    live.retain(|p| p != &vec![4.0, 1.0]);
    assert_eq!(
        out,
        RemoveOutcome::Removed {
            was_core: true,
            demoted: 2,
            splits: 1,
        }
    );
    let counts = rec.replay();
    assert_eq!(counts.removals, 1, "{counts:?}");
    assert_eq!(counts.demotions, 2, "{counts:?}");
    assert!(counts.splits >= 1, "teardown must split: {counts:?}");
    assert_eq!(engine.num_clusters(), 2);
    check_state(&engine, &live, eps_sq, s.min_pts, "bridge torn down");

    // A miss is typed, counted, and changes nothing.
    assert_eq!(
        engine.remove_observed(&[400.0, 0.0], &mut rec),
        RemoveOutcome::NotFound
    );
    assert_eq!(rec.replay().remove_misses, 1);
    check_state(&engine, &live, eps_sq, s.min_pts, "after miss");
}
