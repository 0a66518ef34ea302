//! The counts the benchmark treats as exact repeat exactly: two traced
//! study ops of one seed agree, and so do traced ops at one and two
//! threads. They are the candidates for an exact CI gate on work done.
//!
//! Each op is a full quick-scale study with checkpoints; run this with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

const EXACT: &[&str] = &[
    "dns.queries",
    "monitor.probes",
    "monitor.downloads",
    "bgp.routes_computed",
    "store.write_bytes",
];

fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
    match v {
        Value::Obj(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("op output lacks {key}")),
        _ => panic!("op output is not an object"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::F64(x) => *x,
        Value::U64(x) => *x as f64,
        Value::I64(x) => *x as f64,
        other => panic!("not a number: {other:?}"),
    }
}

/// Runs one traced quick-ckpt study op and returns (exact counts, digest).
fn traced_op(threads: usize, dir: &Path) -> (Vec<f64>, String) {
    let _ = std::fs::remove_dir_all(dir);
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["op", "study", "quick-ckpt", "42", "1"])
        .arg(dir)
        .env("IPV6WEB_THREADS", threads.to_string())
        .output()
        .expect("run perfbench op");
    let _ = std::fs::remove_dir_all(dir);
    assert!(out.status.success(), "op failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let v = serde_json::parse(stdout.lines().last().unwrap_or("")).expect("op prints JSON");
    let layers = field(&v, "layers");
    let counts = EXACT.iter().map(|k| number(field(layers, k))).collect();
    let Value::Str(digest) = field(&v, "digest") else { panic!("digest is a string") };
    (counts, digest.clone())
}

#[test]
fn traced_counts_repeat_across_runs_and_thread_counts() {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let first = traced_op(1, &tmp.join("exact-1a"));
    let again = traced_op(1, &tmp.join("exact-1b"));
    let two = traced_op(2, &tmp.join("exact-2"));
    for (k, v) in EXACT.iter().zip(&first.0) {
        assert!(*v > 0.0, "{k} counted nothing");
    }
    assert_eq!(first.0, again.0, "two traced runs differ in {EXACT:?}");
    assert_eq!(first.0, two.0, "1 and 2 threads differ in {EXACT:?}");
    assert_eq!(first.1, again.1, "report digest differs between runs");
    assert_eq!(first.1, two.1, "report digest differs between thread counts");
}
