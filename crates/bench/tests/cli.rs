//! The `bench` binary's argument handling (no section is run).

use std::process::Command;

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .output()
        .expect("bench binary runs")
}

#[test]
fn help_lists_every_section_and_its_artifact() {
    let out = bench(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for section in ["cost", "exact", "lp", "warm", "obs"] {
        assert!(
            text.contains(&format!("BENCH_{section}.json")),
            "{section} missing from:\n{text}"
        );
    }
}

#[test]
fn unknown_section_exits_2_before_running_anything() {
    let out = bench(&["cost", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown section `bogus`"), "{err}");
    assert!(!err.contains("section cost"), "ran a section first:\n{err}");
}
