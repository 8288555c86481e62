//! The `serve` binary's argument boundary: a group-commit batch of 0 (the
//! old spelling of "per-charge fsync") is refused with the usage line
//! rather than reinterpreted.

use std::process::{Command, Stdio};

#[test]
fn zero_group_commit_batch_is_a_usage_error() {
    let output = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--in-memory", "--group-commit-max-batch", "0"])
        .stdin(Stdio::null())
        .output()
        .expect("run serve");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.starts_with("usage: serve"), "stderr: {stderr}");
}
