//! The `figures` binary as a process: an unknown artifact is rejected
//! before any work, and a closed stdout ends the program quietly.

use std::process::{Command, Stdio};

fn figures() -> Command {
    Command::new(env!("CARGO_BIN_EXE_figures"))
}

#[test]
fn unknown_artifact_exits_2_before_running_the_grid() {
    let out = figures().arg("nope").output().expect("figures runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown artifact nope"), "{stderr}");
    assert!(!stderr.contains("running grid"), "{stderr}");
}

#[test]
fn closed_stdout_ends_quietly() {
    // The reader goes away before the first write (`figures table1 |
    // true`): that write fails with a broken pipe, which must end the
    // program with exit 0, not a panic.
    let mut child = figures()
        .arg("table1")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("figures spawns");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("figures ends");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
