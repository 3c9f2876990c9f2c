//! Smoke test: every workload at the tiny scale for one second, in both
//! the end-to-end and the traced mode, with every output check active.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Builds `raa-serve` next to the benchmark executable (same target
/// directory and profile) and returns its path.
fn serve_bin(bench: &Path) -> PathBuf {
    let dir = bench.parent().expect("the executable has a directory");
    let mut build = Command::new(env!("CARGO"));
    build.args([
        "build",
        "--offline",
        "--quiet",
        "-p",
        "raa-serve",
        "--bin",
        "raa-serve",
    ]);
    build
        .arg("--manifest-path")
        .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
    if dir.ends_with("release") {
        build.arg("--release");
    }
    if let Some(target) = dir.parent() {
        build.env("CARGO_TARGET_DIR", target);
    }
    assert!(
        build.status().expect("run cargo").success(),
        "raa-serve build failed"
    );
    dir.join("raa-serve")
}

/// Runs one tiny workload and returns its result line.
fn run(workload: &str, trace: &str, serve: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "11", "--seconds", "1"])
        .args(["--trace", trace, "--scale", "tiny"])
        .arg("--serve-bin")
        .arg(serve)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().unwrap_or_default().to_string()
}

/// The names in a result line's `metrics` object.
fn metric_names(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\"").expect("a metrics object")..];
    let parts: Vec<&str> = metrics.split("\": {\"value\"").collect();
    // Every part but the last ends with `"<name>`.
    parts[..parts.len() - 1]
        .iter()
        .filter_map(|part| part.rsplit('"').next())
        .map(String::from)
        .collect()
}

/// The metric names `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<String> {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("read BENCHMARK.json");
    let start = spec
        .find(&format!("\"{section}\""))
        .expect("section present");
    let end = spec[start..].find(']').map_or(spec.len(), |e| start + e);
    spec[start..end]
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|part| part.split('"').next())
        .map(String::from)
        .collect()
}

#[test]
fn every_workload_runs_tiny_with_checks() {
    let serve = serve_bin(Path::new(env!("CARGO_BIN_EXE_perfbench")));
    for workload in ["qaoa-route", "paper-suite", "serve-mix"] {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let line = run(workload, trace, &serve);
            assert!(
                line.starts_with("{\"correct\": true,"),
                "{workload}: {line}"
            );
            let mut got = metric_names(&line);
            let mut want = declared(section);
            got.sort();
            want.sort();
            assert_eq!(
                got, want,
                "{workload} --trace {trace} reports other metrics"
            );
        }
    }
}
