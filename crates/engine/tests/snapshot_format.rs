//! Snapshot-format guarantees: a byte-level golden file, bit-stable
//! round-trips (including through a real fit with boundaries), and typed
//! rejection of every corruption mode.

use dbsvec_core::{Dbsvec, DbsvecConfig};
use dbsvec_datasets::gaussian_mixture;
use dbsvec_engine::{
    snapshot, ClusterBoundary, Engine, ModelArtifact, QualityBaseline, SampledMode, SamplingInfo,
    SnapshotError, FORMAT_VERSION, MAGIC,
};
use dbsvec_geometry::PointSet;
use dbsvec_obs::Histogram;

/// Encoding of `tiny_artifact()` as produced by format version 3 (no
/// baseline, no sampling: byte-identical to the version-1 and version-2
/// encodings except the version field). If this test breaks, either the
/// format changed silently (bump `FORMAT_VERSION`!) or the encoder
/// regressed.
const GOLDEN_HEX: &str = "894442534d0d0a1a03000000a731e52b2f93af2b\
                          01000000020000000200000002000000000000000000f03f00000000\
                          0000000000000000000000000000f03f\
                          0000000001000000";

/// The same artifact as written by format version 1 (two releases back):
/// identical payload and checksum, version field 1. Pins backward
/// compatibility — this build must keep decoding it.
const GOLDEN_V1_HEX: &str = "894442534d0d0a1a01000000a731e52b2f93af2b\
                             01000000020000000200000002000000000000000000f03f00000000\
                             0000000000000000000000000000f03f\
                             0000000001000000";

/// The same artifact as written by format version 2 (the previous
/// release): identical payload and checksum, version field 2.
const GOLDEN_V2_HEX: &str = "894442534d0d0a1a02000000a731e52b2f93af2b\
                             01000000020000000200000002000000000000000000f03f00000000\
                             0000000000000000000000000000f03f\
                             0000000001000000";

/// Encoding of `tiny_artifact()` + `tiny_quality()`: pins the baseline
/// section's byte layout (flags bit 1, counts, occupancy, sparse
/// histogram, margin-present flag).
const GOLDEN_QUALITY_HEX: &str = "894442534d0d0a1a03000000aa554d7ab6ee0588\
                                  01000000020000000200000002000000000000000000f03f02000000\
                                  0000000000000000000000000000f03f\
                                  0000000001000000\
                                  00000000000000000200000000000000\
                                  0200000001000000000000000100000000000000\
                                  0200000003000000010000000000000052000000010000000000\
                                  00002f0100000000000003000000000000002c01000000000000\
                                  00000000";

fn tiny_artifact() -> ModelArtifact {
    ModelArtifact {
        eps: 1.0,
        min_pts: 2,
        num_clusters: 2,
        cores: PointSet::from_rows(&[vec![0.0], vec![1.0]]),
        core_labels: vec![0, 1],
        boundaries: None,
        quality: None,
        sampling: None,
    }
}

/// A minimal deterministic baseline: one sample per cluster, distances 3
/// and 300 ticks, no noise, no margins.
fn tiny_quality() -> QualityBaseline {
    let mut assign_dist = Histogram::new();
    assign_dist.record(3);
    assign_dist.record(300);
    QualityBaseline {
        occupancy: vec![1, 1],
        noise_points: 0,
        total_points: 2,
        assign_dist,
        margin: None,
    }
}

fn from_hex(hex: &str) -> Vec<u8> {
    let hex: String = hex.chars().filter(|c| !c.is_whitespace()).collect();
    hex.as_bytes()
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

fn golden_bytes() -> Vec<u8> {
    from_hex(GOLDEN_HEX)
}

#[test]
fn golden_bytes_are_stable() {
    assert_eq!(snapshot::encode(&tiny_artifact()), golden_bytes());
}

#[test]
fn golden_bytes_decode() {
    let artifact = snapshot::decode(&golden_bytes()).expect("golden snapshot decodes");
    assert_eq!(artifact, tiny_artifact());
}

#[test]
fn v1_snapshots_still_load_and_upgrade_on_save() {
    let v1 = from_hex(GOLDEN_V1_HEX);
    let artifact = snapshot::decode(&v1).expect("version-1 snapshot decodes");
    assert_eq!(artifact, tiny_artifact());
    assert_eq!(artifact.quality, None, "v1 has no baseline to load");
    // Re-encoding writes the current version; with no baseline the payload
    // (and thus the checksum) is unchanged.
    assert_eq!(snapshot::encode(&artifact), golden_bytes());
}

#[test]
fn v2_snapshots_still_load_and_upgrade_on_save() {
    let v2 = from_hex(GOLDEN_V2_HEX);
    let artifact = snapshot::decode(&v2).expect("version-2 snapshot decodes");
    assert_eq!(artifact, tiny_artifact());
    assert_eq!(artifact.sampling, None, "v2 has no sampling to load");
    assert_eq!(snapshot::encode(&artifact), golden_bytes());
}

#[test]
fn sampled_fit_metadata_round_trips_through_the_format() {
    let artifact = tiny_artifact().with_sampling(SamplingInfo {
        mode: SampledMode::Uniform { rate: 0.5 },
        seed: 20190401,
        candidates: 1,
        total: 2,
    });
    let bytes = snapshot::encode(&artifact);
    let restored = snapshot::decode(&bytes).expect("sampled snapshot decodes");
    assert_eq!(restored, artifact);
    assert_eq!(snapshot::encode(&restored), bytes);
    // The sampling section rides behind flag bit 2, which pre-v3 readers
    // reject rather than misparse.
    let mut as_v2 = bytes.clone();
    as_v2[8..12].copy_from_slice(&2u32.to_le_bytes());
    assert!(matches!(
        snapshot::decode(&as_v2),
        Err(SnapshotError::Invalid(_))
    ));
}

#[test]
fn quality_golden_bytes_are_stable_and_decode() {
    let mut artifact = tiny_artifact();
    artifact.quality = Some(tiny_quality());
    let bytes = snapshot::encode(&artifact);
    assert_eq!(
        bytes,
        from_hex(GOLDEN_QUALITY_HEX),
        "baseline section layout changed; got:\n{}",
        bytes.iter().map(|b| format!("{b:02x}")).collect::<String>()
    );
    let restored = snapshot::decode(&bytes).expect("quality snapshot decodes");
    assert_eq!(restored, artifact);
}

#[test]
fn v1_rejects_the_quality_flag() {
    // A version-1 header cannot promise a baseline section: flag bit 1
    // must read as an unknown flag, not as silently-skipped data.
    let mut artifact = tiny_artifact();
    artifact.quality = Some(tiny_quality());
    let mut bytes = snapshot::encode(&artifact);
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    assert!(matches!(
        snapshot::decode(&bytes),
        Err(SnapshotError::Invalid(_))
    ));
}

fn fitted_artifact(with_boundaries: bool, with_quality: bool) -> ModelArtifact {
    let data = gaussian_mixture(600, 3, 3, 500.0, 1e5, 7);
    let eps = dbsvec_datasets::standins::suggest_eps(&data.points, 6, 3);
    let fit = Dbsvec::new(DbsvecConfig::new(eps, 6)).fit(&data.points);
    let mut artifact =
        ModelArtifact::from_fit(&data.points, fit.labels(), fit.core_points(), eps, 6).unwrap();
    if with_boundaries {
        artifact = artifact.with_boundaries(&data.points, fit.labels());
    }
    if with_quality {
        artifact = artifact.with_quality(&data.points, fit.labels());
    }
    artifact
}

#[test]
fn round_trip_of_a_real_fit_is_bit_stable() {
    for with_boundaries in [false, true] {
        for with_quality in [false, true] {
            let artifact = fitted_artifact(with_boundaries, with_quality);
            let bytes = snapshot::encode(&artifact);
            let restored = snapshot::decode(&bytes).expect("own encoding decodes");
            assert_eq!(restored, artifact, "model == load(save(model))");
            assert_eq!(
                snapshot::encode(&restored),
                bytes,
                "save→load→save must yield identical bytes \
                 (boundaries={with_boundaries}, quality={with_quality})"
            );
        }
    }
}

/// Decremental maintenance feeds the same format: a snapshot taken after
/// removals, demotions, and splits round-trips bit-stably, and reloading
/// it yields an engine whose own snapshot re-encodes to the same bytes
/// (no golden bump — `Engine::snapshot` emits a plain artifact).
#[test]
fn snapshot_after_deletions_round_trips_bit_stably() {
    let artifact = fitted_artifact(false, false);
    let mut engine = Engine::new(&artifact);
    // Remove a spread of fitted cores (by coordinates) — enough to force
    // demotions and structural repair — then buffer a few strays.
    let victims: Vec<Vec<f64>> = artifact
        .cores
        .iter()
        .step_by(7)
        .take(24)
        .map(|(_, p)| p.to_vec())
        .collect();
    for p in &victims {
        engine.remove(p);
    }
    for i in 0..4 {
        engine.ingest(&[1e6 + i as f64, 1e6, 1e6]);
    }
    let dumped = engine.snapshot();
    assert!(
        dumped.cores.len() < artifact.cores.len(),
        "removals must have thinned the core set"
    );
    let bytes = snapshot::encode(&dumped);
    let restored = snapshot::decode(&bytes).expect("post-deletion snapshot decodes");
    assert_eq!(restored, dumped, "model == load(save(model))");
    assert_eq!(snapshot::encode(&restored), bytes, "save→load→save bytes");
    // Load-dump fixpoint: a fresh engine over the restored artifact
    // reproduces the same snapshot bytes.
    assert_eq!(snapshot::encode(&Engine::new(&restored).snapshot()), bytes);
}

#[test]
fn file_round_trip() {
    let artifact = fitted_artifact(true, true);
    let dir = std::env::temp_dir().join(format!("dbsvec-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.dbm");
    let written = snapshot::write_file(&artifact, &path).expect("writes");
    let (restored, read) = snapshot::read_file(&path).expect("reads");
    assert_eq!(written, read);
    assert_eq!(restored, artifact);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rejects_non_snapshot_files() {
    assert!(matches!(
        snapshot::decode(b"x,y\n1.0,2.0\n"),
        Err(SnapshotError::BadMagic)
    ));
    assert!(matches!(
        snapshot::decode(b""),
        Err(SnapshotError::BadMagic)
    ));
    // Right length, wrong bytes.
    let junk = vec![0u8; 64];
    assert!(matches!(
        snapshot::decode(&junk),
        Err(SnapshotError::BadMagic)
    ));
}

#[test]
fn rejects_wrong_version() {
    let mut bytes = snapshot::encode(&tiny_artifact());
    let future = FORMAT_VERSION + 1;
    bytes[8..12].copy_from_slice(&future.to_le_bytes());
    match snapshot::decode(&bytes) {
        Err(SnapshotError::UnsupportedVersion(v)) => assert_eq!(v, future),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn rejects_corrupted_header_and_payload() {
    let good = snapshot::encode(&tiny_artifact());

    // Flip one bit in the magic.
    let mut bad = good.clone();
    bad[0] ^= 1;
    assert!(matches!(
        snapshot::decode(&bad),
        Err(SnapshotError::BadMagic)
    ));

    // Flip one bit in every payload byte position, one at a time.
    for i in MAGIC.len() + 12..good.len() {
        let mut bad = good.clone();
        bad[i] ^= 0x10;
        assert!(
            matches!(
                snapshot::decode(&bad),
                Err(SnapshotError::ChecksumMismatch { .. })
            ),
            "flip at byte {i} must be caught by the checksum"
        );
    }

    // A corrupted checksum itself also fails the comparison.
    let mut bad = good.clone();
    bad[13] ^= 0xff;
    assert!(matches!(
        snapshot::decode(&bad),
        Err(SnapshotError::ChecksumMismatch { .. })
    ));
}

#[test]
fn rejects_truncation_at_every_length() {
    let good = snapshot::encode(&fitted_artifact(true, true));
    // Every proper prefix must fail with a typed error — never panic,
    // never succeed.
    for len in 0..good.len() {
        let err = snapshot::decode(&good[..len]).expect_err("prefix must not decode");
        assert!(
            matches!(
                err,
                SnapshotError::BadMagic
                    | SnapshotError::Truncated { .. }
                    | SnapshotError::ChecksumMismatch { .. }
            ),
            "len {len}: unexpected error {err:?}"
        );
    }
}

#[test]
fn rejects_semantic_corruption_with_a_valid_checksum() {
    // Re-encode an artifact whose label is out of range: the decoder's
    // structural pass accepts it, the semantic pass must not.
    let mut artifact = tiny_artifact();
    artifact.core_labels[1] = 9;
    let bytes = snapshot::encode(&artifact);
    assert!(matches!(
        snapshot::decode(&bytes),
        Err(SnapshotError::Invalid(_))
    ));

    // Same for the baseline section: a bookkeeping mismatch the structural
    // pass accepts must fall to the semantic validator.
    let mut artifact = tiny_artifact();
    let mut q = tiny_quality();
    q.total_points += 1;
    artifact.quality = Some(q);
    let bytes = snapshot::encode(&artifact);
    assert!(matches!(
        snapshot::decode(&bytes),
        Err(SnapshotError::Invalid(_))
    ));
}

/// 200 finite cores on a line plus one `[NaN, 1.0]` core: a well-formed,
/// checksummed encoding whose coordinates no index can order.
fn nan_core_artifact() -> ModelArtifact {
    let mut rows: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64, 0.0]).collect();
    rows.push(vec![f64::NAN, 1.0]);
    ModelArtifact {
        eps: 1.5,
        min_pts: 3,
        num_clusters: 1,
        core_labels: vec![0; rows.len()],
        cores: PointSet::from_rows(&rows),
        boundaries: None,
        quality: None,
        sampling: None,
    }
}

#[test]
fn non_finite_coordinates_decode_to_invalid_instead_of_panicking() {
    let artifact = nan_core_artifact();
    assert!(artifact.validate().is_err());
    let bytes = snapshot::encode(&artifact);
    match snapshot::decode(&bytes) {
        Err(SnapshotError::Invalid(why)) => assert!(why.contains("core"), "reason: {why}"),
        other => panic!("expected Invalid, got {other:?}"),
    }

    // A boundary support vector at infinity is rejected the same way.
    let mut artifact = tiny_artifact();
    artifact.boundaries = Some(vec![ClusterBoundary {
        cluster: 0,
        sigma: 1.0,
        r_sq: 0.5,
        alpha_k_alpha: 1.0,
        sv: PointSet::from_rows(&[vec![f64::INFINITY]]),
        alpha: vec![1.0],
    }]);
    let bytes = snapshot::encode(&artifact);
    match snapshot::decode(&bytes) {
        Err(SnapshotError::Invalid(why)) => assert!(why.contains("boundary"), "reason: {why}"),
        other => panic!("expected Invalid, got {other:?}"),
    }
}

#[test]
fn errors_display_usefully() {
    let io_free = [
        snapshot::decode(b"nope").unwrap_err().to_string(),
        SnapshotError::UnsupportedVersion(9).to_string(),
        SnapshotError::ChecksumMismatch {
            expected: 1,
            found: 2,
        }
        .to_string(),
        SnapshotError::Truncated {
            needed: 8,
            available: 3,
        }
        .to_string(),
        SnapshotError::Invalid("bad".into()).to_string(),
    ];
    for msg in io_free {
        assert!(!msg.is_empty());
    }
}
