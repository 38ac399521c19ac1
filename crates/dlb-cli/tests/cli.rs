//! End-to-end checks of the `dlb` binary's handling of hostile input.

use std::process::Command;

/// A scenario file of 50,000 `[` used to overflow the parser's stack and
/// abort the process (exit 134); it must now be a clean, typed rejection.
#[test]
fn deeply_nested_scenario_is_rejected_cleanly() {
    let dir = std::env::temp_dir().join(format!("dlb-cli-nest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("nested.json");
    std::fs::write(&path, "[".repeat(50_000)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dlb"))
        .arg("run")
        .arg(&path)
        .output()
        .expect("spawn dlb");
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.starts_with("error: invalid scenario"), "{stderr}");
    assert!(
        stderr.contains(&format!(
            "nesting deeper than {} at byte {}",
            dlb_json::MAX_DEPTH,
            dlb_json::MAX_DEPTH
        )),
        "{stderr}"
    );
}

/// A full-model scenario with δ = 64 (groups of 65 processors) used to
/// panic in the first balance operation (exit 101); it must be rejected
/// at validation, naming the offending field.
#[test]
fn oversized_full_group_is_rejected_cleanly() {
    let dir = std::env::temp_dir().join(format!("dlb-cli-group-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for kind in ["full", "full-dense"] {
        let path = dir.join(format!("{kind}.json"));
        std::fs::write(
            &path,
            format!(
                r#"{{"n": 128, "steps": 50, "strategy": {{"kind": "{kind}", "delta": 64, "f": 1.1, "c": 4}}, "workload": {{"kind": "phase"}}}}"#
            ),
        )
        .unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_dlb"))
            .arg("run")
            .arg(&path)
            .output()
            .expect("spawn dlb");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{kind}: {stderr}");
        assert!(stderr.starts_with("error: invalid scenario"), "{stderr}");
        assert!(stderr.contains("strategy.delta: delta = 64"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `dlb <args>` with `--trace /dev/full` appended: every write there
/// fails with "no space left on device".  A trace write error used to
/// panic inside the sink (exit 101); it must be a typed error, exit 1.
/// Skipped where the platform has no `/dev/full`.
fn assert_trace_write_error_is_clean(args: &[&str], scenario: &str) {
    if !std::path::Path::new("/dev/full").exists() {
        eprintln!("skipped: no /dev/full");
        return;
    }
    let dir = std::env::temp_dir().join(format!("dlb-cli-full-{}-{}", args[0], std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("scenario.json");
    std::fs::write(&path, scenario).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dlb"))
        .arg(args[0])
        .arg(&path)
        .args(&args[1..])
        .args(["--trace", "/dev/full"])
        .output()
        .expect("spawn dlb");
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.starts_with("error: cannot write trace /dev/full: "),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn run_trace_write_error_is_reported_not_a_panic() {
    assert_trace_write_error_is_clean(
        &["run"],
        r#"{"n": 16, "steps": 40, "runs": 2, "strategy": {"kind": "full", "delta": 1, "f": 1.1, "c": 4}, "workload": {"kind": "phase"}}"#,
    );
}

#[test]
fn serve_trace_write_error_is_reported_not_a_panic() {
    let scenario = r#"{
        "shards": 4, "ticks": 200, "seed": 5, "delta": 2, "f": 2.0,
        "keys": 64, "zipf_s": 1.1, "service_ticks": [1, 3],
        "phases": [{"ticks": 100, "rate": 1.5}]
    }"#;
    assert_trace_write_error_is_clean(&["serve", "--mode", "sim"], scenario);
    assert_trace_write_error_is_clean(&["serve", "--mode", "wall", "--workers", "2"], scenario);
}
