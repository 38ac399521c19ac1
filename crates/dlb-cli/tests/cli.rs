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
