//! `repro` CLI regressions that need a real process boundary.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn bad_checkpoint_dir_fails_fast_with_exit_2() {
    // A typo'd --checkpoint-dir parent used to surface only at the first
    // checkpoint write, after the whole world build and part of a
    // campaign. It must now fail up front, before any study work.
    let missing = std::env::temp_dir().join("ipv6web-no-such-parent").join("ckpt");
    assert!(!missing.parent().unwrap().exists(), "parent must not exist for this test");
    let start = std::time::Instant::now();
    let out = repro()
        .args(["all", "--checkpoint-dir", missing.to_str().unwrap()])
        .output()
        .expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("cannot be created") && stderr.contains("does not exist"),
        "expected a readable checkpoint-dir message, got: {stderr}"
    );
    assert!(
        !stderr.contains("running study"),
        "validation must happen before the study starts: {stderr}"
    );
    // failing fast is the point: no world build, no campaign
    assert!(start.elapsed().as_secs() < 30, "took {:?}", start.elapsed());
}

#[test]
fn checkpoint_path_that_is_a_file_fails_fast() {
    let file = std::env::temp_dir().join(format!("ipv6web-ckpt-file-{}", std::process::id()));
    std::fs::write(&file, b"in the way").unwrap();
    let out = repro()
        .args(["all", "--checkpoint-dir", file.to_str().unwrap()])
        .output()
        .expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("is not a directory"), "unexpected message: {stderr}");
    std::fs::remove_file(&file).ok();
}

#[test]
fn unknown_scale_still_exits_2() {
    let out = repro().args(["all", "--scale", "galactic"]).output().expect("run repro");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown scale"));
    // the error enumerates every accepted scale, nat64 and panel included
    for scale in ["quick", "paper", "faults", "internet", "internet-smoke", "nat64", "panel"] {
        assert!(stderr.contains(scale), "error must offer `{scale}`: {stderr}");
    }
}

#[test]
fn unwritable_output_paths_fail_fast_with_exit_2() {
    // `repro tab1 --json /nonexistent/dir/x.json` used to panic (exit 101)
    // on the final write, after the whole study had run. Every output flag
    // must now fail before the study starts, with a readable message.
    let missing = std::env::temp_dir().join("ipv6web-no-such-output-dir");
    assert!(!missing.exists(), "directory must not exist for this test");
    let file = std::env::temp_dir().join(format!("ipv6web-output-file-{}", std::process::id()));
    std::fs::write(&file, b"in the way").unwrap();
    let json = missing.join("x.json");
    let metrics = missing.join("BENCH.json");
    let csv_under_file = file.join("csv");
    let tmp = std::env::temp_dir();
    let cases: [(&[&str], &str); 4] = [
        (&["tab1", "--json", json.to_str().unwrap()], "does not exist"),
        (&["tab1", "--metrics", metrics.to_str().unwrap()], "does not exist"),
        (&["tab1", "--csv", csv_under_file.to_str().unwrap()], "is not a directory"),
        (&["tab1", "--json", tmp.to_str().unwrap()], "is a directory"),
    ];
    for (args, want) in cases {
        let start = std::time::Instant::now();
        let out = repro().args(args).output().expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: expected `{want}`, got: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(!stderr.contains("running study"), "{args:?} must fail before the study: {stderr}");
        assert!(start.elapsed().as_secs() < 30, "{args:?} took {:?}", start.elapsed());
    }
    std::fs::remove_file(&file).ok();
}

#[test]
fn unreadable_baseline_fails_fast_with_exit_2() {
    let missing = std::env::temp_dir().join("ipv6web-no-such-baseline.json");
    let metrics = std::env::temp_dir().join(format!("ipv6web-bench-{}.json", std::process::id()));
    let out = repro()
        .args(["tab1", "--metrics", metrics.to_str().unwrap()])
        .args(["--baseline", missing.to_str().unwrap()])
        .output()
        .expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("cannot read baseline"), "{stderr}");
    assert!(!stderr.contains("running study"), "{stderr}");
    assert!(!metrics.exists(), "nothing written when the run is refused");
}
