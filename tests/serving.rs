//! End-to-end serving pipeline through the facade: fit → persist → reload
//! → serve must reproduce the training run's labels (modulo border
//! tie-breaks between clusters), and the reloaded engine must keep
//! serving correctly after online ingest.

use dbsvec::datasets::{gaussian_mixture, standins::suggest_eps, two_moons};
use dbsvec::engine::{
    snapshot, Assignment, Engine, EngineMetrics, ModelArtifact, SampledMode, SamplingInfo,
};
use dbsvec::geometry::squared_euclidean;
use dbsvec::{Dbsvec, DbsvecConfig};

/// Fit, snapshot to disk, reload, serve the training set back, and check
/// every single label against the fit.
fn fit_save_serve_reproduces(points: &dbsvec::PointSet, eps: f64, min_pts: usize, tag: &str) {
    let fit = Dbsvec::new(DbsvecConfig::new(eps, min_pts)).fit(points);
    let artifact =
        ModelArtifact::from_fit(points, fit.labels(), fit.core_points(), eps, min_pts as u32)
            .expect("valid fit")
            .with_boundaries(points, fit.labels());

    let dir = std::env::temp_dir().join(format!("dbsvec-serving-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.dbm");
    snapshot::write_file(&artifact, &path).expect("snapshot writes");
    let (restored, _) = snapshot::read_file(&path).expect("snapshot reads");
    assert_eq!(restored, artifact, "disk round trip is lossless");
    std::fs::remove_dir_all(&dir).ok();

    let mut engine = Engine::new(&restored);
    let rows: Vec<&[f64]> = points.iter().map(|(_, p)| p).collect();
    let served = engine.assign_many(&rows, 2, &mut EngineMetrics::new());
    let eps_sq = eps * eps;
    let core_set: std::collections::HashSet<u32> = fit.core_points().iter().copied().collect();

    let mut border_ties = 0usize;
    for (i, p) in points.iter() {
        let fitted = fit.labels().get(i as usize);
        match served[i as usize] {
            Assignment::Noise => {
                // Noise must match exactly: both sides mean "no verified
                // core within eps" (the paper's Theorems 2-3).
                assert_eq!(fitted, None, "{tag}: point {i} clustered by the fit");
            }
            Assignment::Cluster(c) => {
                assert!(fitted.is_some(), "{tag}: fit called point {i} noise");
                if fitted == Some(c) {
                    continue;
                }
                // A disagreement is only legal for a border point sitting
                // within eps of cores of more than one cluster.
                assert!(
                    !core_set.contains(&i),
                    "{tag}: core point {i} must keep its exact label"
                );
                let reachable: Vec<u32> = restored
                    .cores
                    .iter()
                    .filter(|(_, core)| squared_euclidean(core, p) <= eps_sq)
                    .map(|(j, _)| restored.core_labels[j as usize])
                    .collect();
                assert!(
                    reachable.contains(&c) && reachable.contains(&fitted.unwrap()),
                    "{tag}: point {i} label {c} is not a tie between reachable clusters"
                );
                border_ties += 1;
            }
        }
    }
    assert!(
        border_ties * 100 <= points.len(),
        "{tag}: {border_ties} border ties out of {} points is not 'modulo ties'",
        points.len()
    );
}

#[test]
fn fit_save_serve_reproduces_training_labels() {
    let blobs = gaussian_mixture(1200, 4, 4, 600.0, 1e5, 11);
    let eps = suggest_eps(&blobs.points, 6, 1);
    fit_save_serve_reproduces(&blobs.points, eps, 6, "blobs");

    let moons = two_moons(900, 0.05, 23);
    fit_save_serve_reproduces(&moons.points, 0.15, 5, "moons");
}

/// A sampled fit must serve exactly like an exact one: the snapshot keeps
/// the sampling provenance, the engine reports it back, and assignments
/// still follow the nearest-core-within-eps rule against the (sampled)
/// core set — label transparency end to end.
#[test]
fn sampled_fit_save_assign_round_trip_keeps_labels_and_provenance() {
    let ds = gaussian_mixture(1500, 4, 3, 600.0, 1e5, 41);
    let eps = suggest_eps(&ds.points, 6, 1);
    let rate = 0.6;
    let seed = 7;
    let fit =
        Dbsvec::new(DbsvecConfig::new(eps, 6).with_uniform_sampling(rate, seed)).fit(&ds.points);
    assert!(fit.num_clusters() >= 2, "sampled fit still finds structure");
    let stats = *fit.stats();
    assert!(
        stats.sampled_candidates > 0,
        "a 0.6 draw on 1500 points samples"
    );

    let artifact = ModelArtifact::from_fit(&ds.points, fit.labels(), fit.core_points(), eps, 6)
        .expect("valid sampled fit")
        .with_sampling(SamplingInfo {
            mode: SampledMode::Uniform { rate },
            seed,
            candidates: stats.sampled_candidates,
            total: ds.points.len() as u64,
        });

    let dir = std::env::temp_dir().join(format!("dbsvec-serving-sampled-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.dbm");
    snapshot::write_file(&artifact, &path).expect("snapshot writes");
    let (restored, _) = snapshot::read_file(&path).expect("snapshot reads");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(restored, artifact, "disk round trip is lossless");
    let info = restored.sampling.expect("sampling provenance persists");
    assert_eq!(info.mode, SampledMode::Uniform { rate });
    assert_eq!(info.seed, seed);

    let mut engine = Engine::new(&restored);
    assert_eq!(
        engine.sampling(),
        Some(info),
        "engine reports the provenance"
    );
    assert_eq!(engine.health().sampling, Some(info));

    // Serving is transparent to sampling: every training point lands on
    // the label of some reachable core (cores only exist among candidates
    // and promoted neighbors, but the assignment rule is unchanged).
    let rows: Vec<&[f64]> = ds.points.iter().map(|(_, p)| p).collect();
    let served = engine.assign_many(&rows, 2, &mut EngineMetrics::new());
    let eps_sq = eps * eps;
    for (i, p) in ds.points.iter() {
        let fitted = fit.labels().get(i as usize);
        match served[i as usize] {
            Assignment::Noise => {
                assert_eq!(fitted, None, "point {i} clustered by the sampled fit");
            }
            Assignment::Cluster(c) => {
                assert!(fitted.is_some(), "sampled fit called point {i} noise");
                let reachable: Vec<u32> = restored
                    .cores
                    .iter()
                    .filter(|(_, core)| squared_euclidean(core, p) <= eps_sq)
                    .map(|(j, _)| restored.core_labels[j as usize])
                    .collect();
                assert!(
                    reachable.contains(&c),
                    "point {i} served label {c} has no reachable core"
                );
            }
        }
    }
}

#[test]
fn served_engine_survives_ingest_and_resnapshot() {
    let ds = gaussian_mixture(1000, 3, 3, 500.0, 1e5, 31);
    let eps = suggest_eps(&ds.points, 6, 2);
    let fit = Dbsvec::new(DbsvecConfig::new(eps, 6)).fit(&ds.points);
    let artifact =
        ModelArtifact::from_fit(&ds.points, fit.labels(), fit.core_points(), eps, 6).unwrap();
    let mut engine = Engine::new(&artifact);

    // Stream in a second sample from the same process; the engine must
    // keep answering and its re-persisted state must reload cleanly.
    let extra = gaussian_mixture(300, 3, 3, 500.0, 1e5, 77);
    for (_, p) in extra.points.iter() {
        engine.ingest(p);
    }
    let snap = engine.snapshot();
    snap.validate().expect("post-ingest snapshot validates");
    let bytes = snapshot::encode(&snap);
    let restored = snapshot::decode(&bytes).expect("post-ingest snapshot decodes");
    let reloaded = Engine::new(&restored);
    for (_, p) in ds.points.iter() {
        assert_eq!(reloaded.classify(p), engine.classify(p));
    }
}
