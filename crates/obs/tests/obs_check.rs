//! The `obs_check` binary as a process: its Chrome conversion carries
//! the trace's drained counter totals as one metadata instant.

use std::process::Command;

use serde_json::Value;

/// A minimal schema-valid trace: the meta line, two counters, one
/// span aggregate and one begin/end pair.
const TRACE: &str = r#"{"type": "meta", "version": 1, "level": "trace", "drained_at_us": 900, "host": {"cores": 2, "cawo_threads": null, "toolchain": "rustc", "os": "linux"}}
{"type": "counter", "name": "bnb.nodes", "value": 17}
{"type": "counter", "name": "lp.pivots.phase2", "value": 27445}
{"type": "span", "cat": "grid", "name": "solve", "count": 1, "total_us": 40, "max_us": 40, "p50_us": 32, "buckets": [[6, 1]]}
{"type": "event", "ph": "B", "t_us": 100, "tid": 0, "cat": "grid", "name": "solve", "args": {}}
{"type": "event", "ph": "E", "t_us": 140, "tid": 0, "cat": "grid", "name": "solve", "args": {}}
"#;

#[test]
fn chrome_conversion_appends_the_counter_totals_once() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("obs-check-chrome");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (jsonl, chrome) = (dir.join("trace.jsonl"), dir.join("trace.json"));
    std::fs::write(&jsonl, TRACE).expect("write trace");
    let out = Command::new(env!("CARGO_BIN_EXE_obs_check"))
        .arg(&jsonl)
        .arg("--chrome")
        .arg(&chrome)
        .output()
        .expect("obs_check runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");

    let doc = std::fs::read_to_string(&chrome).expect("Chrome trace written");
    let doc = serde_json::parse_value_str(&doc).expect("Chrome trace parses");
    let Some(Value::Array(events)) = doc.get("traceEvents") else {
        panic!("no traceEvents array: {doc:?}");
    };
    let totals: Vec<&Value> = events
        .iter()
        .filter(|e| matches!(e.get("name"), Some(Value::String(n)) if n == "counter totals"))
        .collect();
    assert_eq!(totals.len(), 1, "{events:?}");
    let Some(Value::Object(args)) = totals[0].get("args") else {
        panic!("counter totals without args: {:?}", totals[0]);
    };
    let args: Vec<(&str, &Value)> = args.iter().map(|(k, v)| (k.as_str(), v)).collect();
    assert_eq!(
        args,
        [
            ("bnb.nodes", &Value::Number(17.0)),
            ("lp.pivots.phase2", &Value::Number(27445.0)),
        ]
    );
    // The begin/end pair is still there, next to the instant.
    assert_eq!(events.len(), 3, "{events:?}");
}
