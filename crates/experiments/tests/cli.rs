//! The `mswj-experiments` binary's exit statuses for a backend it cannot
//! set up.

use std::process::Command;

#[test]
fn an_unreachable_backend_exits_1_naming_the_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_mswj-experiments"))
        .args([
            "fig6",
            "--duration-secs",
            "1",
            "--backend",
            "uds:/nonexistent.sock",
        ])
        .output()
        .expect("the binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("--backend"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no figure ran");
}
