//! Stamps the build with what it measures: the repository's git revision
//! (when built inside a git checkout) and an FNV-1a digest of every file
//! under `crates/`, which names the code even where git is absent.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest.join("..");
    let crates = root.join("crates");

    let mut files = Vec::new();
    collect(&crates, &mut files);
    files.sort();
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let rel = file.strip_prefix(&root).unwrap_or(file);
        fnv1a(&mut digest, rel.to_string_lossy().as_bytes());
        fnv1a(&mut digest, &fs::read(file).unwrap_or_default());
    }

    let rev = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(&root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "none".to_string());

    println!("cargo:rustc-env=PERFBENCH_GIT_REV={rev}");
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={digest:016x}");
    println!(
        "cargo:rustc-env=PERFBENCH_PROFILE={}",
        std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string())
    );
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-changed=../crates");
    // Re-stamp when HEAD moves, without naming paths a plain source
    // checkout lacks (a missing path would re-run this script every build).
    let git = root.join(".git");
    let head = git.join("HEAD");
    if head.is_file() {
        println!("cargo:rerun-if-changed={}", head.display());
        if let Ok(text) = fs::read_to_string(&head) {
            if let Some(r) = text.trim().strip_prefix("ref: ") {
                let target = git.join(r);
                if target.is_file() {
                    println!("cargo:rerun-if-changed={}", target.display());
                }
            }
        }
    }
}
