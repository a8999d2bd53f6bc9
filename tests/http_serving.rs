//! End-to-end HTTP serving through the facade: fit two models, persist
//! them, serve both sharded over the std-only HTTP tier, and check that
//! every label returned over the socket is identical to what an
//! in-process [`Engine::assign`] produces for the same point — the HTTP
//! hop, the JSON round trip, and the point-to-shard hashing must all be
//! label-transparent.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use dbsvec::datasets::{gaussian_mixture, standins::suggest_eps, two_moons};
use dbsvec::engine::{snapshot, Engine, ModelArtifact};
use dbsvec::obs::NoopObserver;
use dbsvec::server::{Router, Server, ServerConfig, ShutdownFlag};
use dbsvec::{Dbsvec, DbsvecConfig, PointSet};

fn fit_artifact(points: &PointSet, min_pts: usize, seed: u64) -> ModelArtifact {
    let eps = suggest_eps(points, min_pts, seed);
    let fit = Dbsvec::new(DbsvecConfig::new(eps, min_pts)).fit(points);
    ModelArtifact::from_fit(points, fit.labels(), fit.core_points(), eps, min_pts as u32)
        .expect("valid fit")
}

fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).unwrap();
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    conn.write_all(head.as_bytes()).unwrap();
    conn.write_all(body.as_bytes()).unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).unwrap();
    let status: u16 = raw.split_whitespace().nth(1).unwrap().parse().unwrap();
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    (status, body.to_string())
}

/// Extracts the `"clusters":[...]` array of a batch assign response as
/// `Option<u32>` labels.
fn parse_clusters(body: &str, expect: usize) -> Vec<Option<u32>> {
    let arr = body
        .split("\"clusters\":[")
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .unwrap_or_else(|| panic!("no clusters array in {body}"));
    let labels: Vec<Option<u32>> = arr
        .split(',')
        .map(|tok| {
            if tok == "null" {
                None
            } else {
                Some(tok.parse().unwrap_or_else(|_| panic!("bad label {tok:?}")))
            }
        })
        .collect();
    assert_eq!(labels.len(), expect, "body: {body}");
    labels
}

#[test]
fn http_labels_match_in_process_assign_across_two_sharded_models() {
    // Two genuinely different models: 2-d moons and an 8-d mixture.
    let moons = two_moons(600, 0.05, 41);
    let mixture = gaussian_mixture(2_000, 8, 4, 60.0, 1e4, 42);
    let moons_art = fit_artifact(&moons.points, 5, 41);
    let mixture_art = fit_artifact(&mixture.points, 8, 42);

    // fit --save: persist both, then serve from the files alone.
    let dir = std::env::temp_dir().join(format!("dbsvec-http-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    snapshot::write_file(&moons_art, dir.join("moons.dbm")).unwrap();
    snapshot::write_file(&mixture_art, dir.join("mixture.dbm")).unwrap();

    let mut router = Router::new();
    router.load_model(dir.join("moons.dbm"), 2, None).unwrap();
    router.load_model(dir.join("mixture.dbm"), 3, None).unwrap();
    let server = Server::bind(
        Arc::new(router),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = ShutdownFlag::new();
    let flag = shutdown.clone();
    let handle = std::thread::spawn(move || server.run(&flag, &mut NoopObserver));

    for (name, artifact, queries) in [
        ("moons", &moons_art, &moons.points),
        ("mixture", &mixture_art, &mixture.points),
    ] {
        let mut reference = Engine::new(artifact);
        // Batch bodies of 50 queries: exercises per-shard grouping and
        // request-order scatter, not just single-point routing.
        let total = 250.min(queries.len());
        for lo in (0..total).step_by(50) {
            let hi = (lo + 50).min(total);
            let rows: Vec<String> = (lo..hi)
                .map(|i| {
                    let p = queries.point(i as u32);
                    let coords: Vec<String> = p.iter().map(|v| format!("{v}")).collect();
                    format!("[{}]", coords.join(","))
                })
                .collect();
            let body = format!("{{\"points\":[{}]}}", rows.join(","));
            let (status, resp) = post(addr, &format!("/v1/models/{name}/assign"), &body);
            assert_eq!(status, 200, "{name}: {resp}");
            let served = parse_clusters(&resp, hi - lo);
            for (k, i) in (lo..hi).enumerate() {
                let want = reference.assign(queries.point(i as u32)).cluster();
                assert_eq!(
                    served[k], want,
                    "{name}: query {i} differs over HTTP vs in-process"
                );
            }
        }
    }

    shutdown.request();
    let report = handle.join().unwrap().unwrap();
    assert_eq!(report.errors, 0);
    assert!(report.requests >= 10);
    std::fs::remove_dir_all(&dir).ok();
}

/// A coordinate the JSON parser reads as ∞ (`1e999`) is a typed 400, and
/// the rejection leaves the shard serving: valid requests to the same
/// (only) shard succeed right after.
#[test]
fn non_finite_coordinates_are_rejected_and_the_shard_keeps_serving() {
    let mut cores = PointSet::new(2);
    for i in 0..5 {
        cores.push(&[i as f64, 0.0]);
    }
    let artifact = ModelArtifact {
        eps: 1.5,
        min_pts: 3,
        num_clusters: 1,
        cores,
        core_labels: vec![0; 5],
        boundaries: None,
        quality: None,
        sampling: None,
    };
    let path =
        std::env::temp_dir().join(format!("dbsvec-http-nonfinite-{}.dbm", std::process::id()));
    let mut router = Router::new();
    router.add_model("m", &path, &artifact, 1, None);
    let server = Server::bind(
        Arc::new(router),
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 1,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let shutdown = ShutdownFlag::new();
    let flag = shutdown.clone();
    let handle = std::thread::spawn(move || server.run(&flag, &mut NoopObserver));

    for (endpoint, body) in [
        ("ingest", r#"{"point":[1e999,0.5]}"#),
        ("assign", r#"{"point":[2.0,-1e999]}"#),
        ("assign", r#"{"points":[[2.0,0.5],[1e999,0.0]]}"#),
    ] {
        let (status, resp) = post(addr, &format!("/v1/models/m/{endpoint}"), body);
        assert_eq!(status, 400, "{endpoint} {body}: {resp}");
        assert!(resp.contains("non-finite"), "{resp}");
    }
    let (status, resp) = post(addr, "/v1/models/m/ingest", r#"{"point":[2.0,0.5]}"#);
    assert_eq!(status, 200, "{resp}");
    let (status, resp) = post(addr, "/v1/models/m/assign", r#"{"point":[2.0,0.5]}"#);
    assert_eq!(status, 200, "{resp}");
    assert!(resp.contains("\"cluster\":0"), "{resp}");

    shutdown.request();
    let report = handle.join().unwrap().unwrap();
    assert_eq!((report.requests, report.errors), (5, 3));
    std::fs::remove_file(&path).ok();
}
