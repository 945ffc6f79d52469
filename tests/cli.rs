//! End-to-end tests of the `cawosched` CLI binary.

use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cawosched"))
}

#[test]
fn generate_emits_parseable_dot() {
    let out = bin()
        .args([
            "generate", "--family", "bacass", "--tasks", "40", "--seed", "3",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let dot = String::from_utf8(out.stdout).unwrap();
    let wf = cawosched::graph::dot::from_dot(&dot).expect("valid DOT");
    assert!(wf.task_count() >= 30);
}

#[test]
fn closed_stdout_ends_quietly() {
    // The reader takes one line and goes away (`generate | head -1`):
    // the next write fails with a broken pipe, which must end the
    // program with exit 0, not a panic.
    use std::io::{BufRead, BufReader};
    let mut child = bin()
        .args(["generate", "--family", "atacseq", "--tasks", "20000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.starts_with("digraph"), "{first}");
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn schedule_prints_csv_rows() {
    let out = bin()
        .args([
            "schedule",
            "--family",
            "eager",
            "--tasks",
            "30",
            "--seed",
            "5",
            "--variant",
            "slackR-LS",
            "--scenario",
            "S3",
            "--deadline",
            "2",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let mut lines = stdout.lines();
    assert_eq!(lines.next(), Some("task,start,finish,unit"));
    // One row per original task (the generator rounds the target to the
    // template arithmetic), each with 4 comma-separated fields.
    let rows: Vec<&str> = lines.collect();
    assert!(rows.len() >= 20);
    assert!(rows.iter().all(|r| r.split(',').count() == 4));
    // Stderr carries the cost summary.
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("carbon cost"));
}

#[test]
fn schedule_profile_counts_greedy_bound_updates() {
    let out = bin()
        .args([
            "schedule",
            "--family",
            "atacseq",
            "--tasks",
            "50",
            "--seed",
            "9",
            "--variant",
            "pressWR",
            "--scenario",
            "S1",
            "--deadline",
            "2",
            "--profile",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    let updates: u64 = stderr
        .lines()
        .find_map(|l| l.strip_prefix("greedy.bound_updates"))
        .and_then(|count| count.trim().parse().ok())
        .unwrap_or_else(|| panic!("no greedy.bound_updates row in\n{stderr}"));
    assert!(updates > 0, "the greedy reported no propagation work");
}

#[test]
fn schedule_gantt_mode() {
    let out = bin()
        .args(["schedule", "--tasks", "20", "--gantt", "--deadline", "3"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("green"));
    assert!(stdout.contains('#'));
}

#[test]
fn evaluate_lists_all_variants() {
    let out = bin()
        .args([
            "evaluate",
            "--family",
            "methylseq",
            "--tasks",
            "30",
            "--scenario",
            "S1",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for name in ["ASAP", "slack", "pressWR-LS", "slackWR-LS"] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
    assert_eq!(stdout.lines().count(), 1 + 17); // header + ASAP + 16
}

#[test]
fn schedule_reads_dot_from_stdin() {
    use std::io::Write;
    let mut child = bin()
        .args(["schedule", "--dot", "-", "--deadline", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"digraph g { a [weight=5]; b [weight=7]; a -> b [weight=2]; }")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.lines().count() >= 3); // header + 2 tasks
}

#[test]
fn huge_task_weights_are_rejected() {
    // 2^62 · 8 wraps a u64: the weight must be refused at the parser,
    // not turned into a one-unit task or an overflow panic.
    use std::io::Write;
    let mut child = bin()
        .args(["schedule", "--dot", "-", "--variant", "ASAP"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"digraph g { t0 [weight=4611686018427387904]; }")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("bad weight"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn schedule_accepts_both_cost_engines() {
    // The engine choice is a performance knob, not a semantic one: both
    // backends must succeed and report the same carbon cost.
    let mut costs = Vec::new();
    for engine in ["dense", "interval"] {
        let out = bin()
            .args([
                "schedule",
                "--family",
                "eager",
                "--tasks",
                "30",
                "--seed",
                "5",
                "--variant",
                "pressWR-LS",
                "--deadline",
                "2",
                "--engine",
                engine,
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "--engine {engine}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(&format!("engine {engine}")), "{stderr}");
        let cost_line = stderr
            .lines()
            .find(|l| l.contains("carbon cost"))
            .unwrap_or_else(|| panic!("no cost line in:\n{stderr}"))
            .to_string();
        costs.push(cost_line);
    }
    assert_eq!(
        costs[0], costs[1],
        "dense and interval engines reported different costs"
    );
}

#[test]
fn variant_names_parse_case_insensitively() {
    let out = bin()
        .args([
            "schedule",
            "--tasks",
            "20",
            "--variant",
            "SLACKW-ls",
            "--deadline",
            "2",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("slackW-LS"), "{stderr}");
}

#[test]
fn schedule_reads_carbon_trace_csv() {
    let dir = std::env::temp_dir().join("cawosched-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.csv");
    std::fs::write(
        &path,
        "# hourly carbon intensity\ntime,gco2_per_kwh\n0,420\n3600,180\n7200,90\n10800,300\n",
    )
    .unwrap();
    let out = bin()
        .args([
            "schedule",
            "--tasks",
            "25",
            "--deadline",
            "2",
            "--trace",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    // The trace replaces the synthetic scenario and carries 4 intervals.
    assert!(stderr.contains("trace"), "{stderr}");
    assert!(stderr.contains("J=4"), "{stderr}");
}

#[test]
fn schedule_with_exact_solver_reports_status() {
    let out = bin()
        .args([
            "schedule",
            "--tasks",
            "12",
            "--seed",
            "4",
            "--deadline",
            "1.5",
            "--solver",
            "bnb",
            "--solver-budget",
            "20000,250ms",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("bnb: status"), "{stderr}");
    assert!(
        stderr.contains("optimal") || stderr.contains("timeout"),
        "{stderr}"
    );
    assert!(stderr.contains("carbon cost"), "{stderr}");
    // The schedule CSV still comes out on stdout.
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.lines().next(), Some("task,start,finish,unit"));
}

#[test]
fn huge_time_budgets_mean_no_deadline() {
    // 1e19 s parses, but no clock reading plus that much is
    // representable: the budget must act as "no time limit" instead of
    // overflowing the deadline arithmetic. The tight deadline keeps the
    // uncapped milp short.
    for solver in ["bnb", "milp", "lp"] {
        let out = bin()
            .args([
                "schedule",
                "--tasks",
                "20",
                "--deadline",
                "1",
                "--solver",
                solver,
                "--solver-budget",
                "20000,10000000000000000000s",
            ])
            .output()
            .expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(0),
            "{solver}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn evaluate_appends_solver_rows_with_status() {
    // `bnb` runs on any mapping; the uniprocessor `dp` either runs
    // (HEFT can legitimately map a small workflow onto one processor)
    // or declines with an honest `unsupported` status — never fails
    // the whole evaluation.
    let out = bin()
        .args([
            "evaluate",
            "--tasks",
            "12",
            "--seed",
            "4",
            "--deadline",
            "1.5",
            "--solver",
            "bnb,dp",
            "--solver-budget",
            "20000,250ms",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.lines().count(), 1 + 17 + 2, "{stdout}");
    let bnb_row = stdout.lines().find(|l| l.starts_with("bnb")).unwrap();
    assert!(
        bnb_row.contains("optimal") || bnb_row.contains("timeout"),
        "{bnb_row}"
    );
    let dp_row = stdout.lines().find(|l| l.starts_with("dp")).unwrap();
    assert!(
        ["optimal", "timeout", "unsupported"]
            .iter()
            .any(|s| dp_row.contains(s)),
        "{dp_row}"
    );
}

#[test]
fn bad_arguments_fail_cleanly() {
    for args in [
        vec!["schedule", "--variant", "nope"],
        vec!["schedule", "--scenario", "S9"],
        vec!["schedule", "--engine", "nope"],
        vec!["schedule", "--solver", "gurobi"],
        vec!["schedule", "--solver", "bnb,dp"],
        vec!["schedule", "--solver", "milp-dense"],
        vec!["schedule", "--solver", "dp-pseudo"],
        vec!["evaluate", "--solver", "eschedule"],
        vec!["schedule", "--solver-budget", "fast"],
        vec!["schedule", "--solver-budget", "-1s"],
        vec!["schedule", "--trace", "/nonexistent/trace.csv"],
        vec!["schedule", "--scenario", "S1", "--trace", "x.csv"],
        vec!["frobnicate"],
        vec![],
    ] {
        let out = bin().args(&args).output().expect("binary runs");
        assert!(!out.status.success(), "args {args:?} should fail");
        assert_eq!(out.status.code(), Some(2));
        // The pseudo-polynomial DP is a library function, not a
        // registry entry; the usage text lists only the registry.
        if args == ["schedule", "--solver", "dp-pseudo"] {
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("--solver bnb|dp|ilp|milp|lp]"), "{stderr}");
        }
    }
}

#[test]
fn thread_counts_above_the_ceiling_exit_2() {
    // The pool refuses the count before it starts a thread, so this
    // spawns none.
    let out = bin()
        .args(["schedule", "--tasks", "8", "--threads", "257"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("ceiling of 256"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn schedule_reads_wfcommons_json() {
    let dir = std::env::temp_dir().join("cawosched-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wf.json");
    std::fs::write(
        &path,
        r#"{"name": "j", "workflow": {"tasks": [
            {"name": "a", "runtimeInSeconds": 8, "children": ["b"]},
            {"name": "b", "runtimeInSeconds": 4}
        ]}}"#,
    )
    .unwrap();
    let out = bin()
        .args([
            "schedule",
            "--json",
            path.to_str().unwrap(),
            "--deadline",
            "2",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.lines().count(), 3); // header + 2 tasks
}
