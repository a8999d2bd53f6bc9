//! Choosing ε — and where a single ε falls short.
//!
//! Walks the standard DBSCAN parameterization workflow on mixed-density
//! data: derive ε from the k-distance knee (Schubert et al. 2017, cited by
//! the paper), cluster with DBSVEC, and observe the single-ε limitation —
//! a much looser cluster is invisible at the knee ε.
//!
//! ```text
//! cargo run --release --example parameter_selection
//! ```

use dbsvec::datasets::gaussian_mixture;
use dbsvec::geometry::rng::SplitMix64;
use dbsvec::index::{k_distance_profile, knee_epsilon, KdTree};
use dbsvec::{Dbsvec, DbsvecConfig, PointSet};

fn main() {
    // A tight cluster and a 20x looser one.
    let tight = gaussian_mixture(600, 2, 1, 1.0, 100.0, 5);
    let mut points = PointSet::new(2);
    for (_, p) in tight.points.iter() {
        points.push(p);
    }
    let mut rng = SplitMix64::new(9);
    let normal = |rng: &mut SplitMix64| -> f64 {
        let u1 = rng.next_f64().max(f64::MIN_POSITIVE);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * rng.next_f64()).cos()
    };
    for _ in 0..200 {
        points.push(&[500.0 + 30.0 * normal(&mut rng), 30.0 * normal(&mut rng)]);
    }
    println!("data: one tight cluster (sigma=1, n=600) + one loose cluster (sigma=30, n=200)");

    // ---- Step 1: the k-distance profile and its knee.
    let min_pts = 8;
    let index = KdTree::build(&points);
    let profile = k_distance_profile(&points, &index, min_pts, 600);
    let eps = knee_epsilon(&profile).expect("profile long enough for a knee");
    println!("k-distance knee (k = {min_pts}): eps = {eps:.2}");

    // ---- Step 2: DBSVEC at the knee ε.
    let single_eps = Dbsvec::new(DbsvecConfig::new(eps, min_pts)).fit(&points);
    println!(
        "DBSVEC at knee eps: {} clusters, {} noise",
        single_eps.num_clusters(),
        single_eps.labels().noise_count()
    );
    let loose_noise = (600..800)
        .filter(|&i| single_eps.labels().is_noise(i))
        .count();
    println!("  -> {loose_noise}/200 loose-cluster points misread as noise");

    assert!(
        loose_noise > 50,
        "the knee eps should underfit the loose cluster (got {loose_noise})"
    );
    println!("\nok: the knee-derived eps fits the dominant density only");
}
