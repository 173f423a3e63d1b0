//! Smoke test: every binary under `examples/` runs to completion and
//! prints something, and every `.nsc` golden file runs end to end through
//! the `nsc` CLI. `cargo test` compiles the examples and bin targets
//! before running test binaries, so they are guaranteed to exist next to
//! this test's own profile directory.
//!
//! (`tests/surface_syntax.rs` checks the `.nsc` files' *outputs* against
//! golden values; here they only need to run.)

use std::path::PathBuf;
use std::process::Command;

/// The `target/<profile>/examples` directory for the running profile.
fn examples_dir() -> PathBuf {
    let mut p = std::env::current_exe().expect("test binary path");
    p.pop(); // deps/
    p.pop(); // <profile>/
    p.push("examples");
    p
}

#[test]
fn every_example_runs_to_completion() {
    let dir = examples_dir();
    let names = ["quickstart", "sorting", "divide_conquer", "nested_queries"];
    for name in names {
        let mut path = dir.join(name);
        if !path.exists() {
            path.set_extension("exe"); // windows layout
        }
        assert!(
            path.exists(),
            "example binary `{name}` not found at {}; \
             did a new example get added without updating this list?",
            path.display()
        );
        let out = Command::new(&path)
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn example `{name}`: {e}"));
        assert!(
            out.status.success(),
            "example `{name}` exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert!(
            !out.stdout.is_empty(),
            "example `{name}` printed nothing to stdout"
        );
    }
}

#[test]
fn every_nsc_example_runs_under_the_cli() {
    let mut bin = examples_dir();
    bin.pop(); // back to <profile>/
    bin.push("nsc");
    if !bin.exists() {
        bin.set_extension("exe");
    }
    assert!(bin.exists(), "nsc binary not found at {}", bin.display());
    let src_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut ran = 0;
    for entry in std::fs::read_dir(src_dir).expect("examples/ directory") {
        let path = entry.unwrap().path();
        if path.extension().map(|e| e == "nsc") != Some(true) {
            continue;
        }
        let out = Command::new(&bin)
            .arg("run")
            .arg(&path)
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn nsc on {}: {e}", path.display()));
        assert!(
            out.status.success(),
            "nsc run {} exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
            path.display(),
            out.status.code(),
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        ran += 1;
    }
    assert!(
        ran >= 5,
        "expected at least 5 .nsc golden files, found {ran}"
    );
}

#[test]
fn example_list_is_exhaustive() {
    // Guards the hard-coded list above against silently going stale.
    let src_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut found: Vec<String> = std::fs::read_dir(src_dir)
        .expect("examples/ directory")
        .filter_map(|e| {
            let p = e.ok()?.path();
            (p.extension()? == "rs").then(|| p.file_stem().unwrap().to_string_lossy().into_owned())
        })
        .collect();
    found.sort();
    let mut expected = vec![
        "divide_conquer".to_string(),
        "nested_queries".to_string(),
        "quickstart".to_string(),
        "sorting".to_string(),
    ];
    expected.sort();
    assert_eq!(found, expected);
}
