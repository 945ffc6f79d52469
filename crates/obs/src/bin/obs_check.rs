//! `obs_check` — validates a `cawo_obs` JSONL trace against the
//! documented schema (`docs/OBSERVABILITY.md`) and optionally converts
//! it to a Chrome trace-event file.
//!
//! ```text
//! obs_check trace.jsonl [--chrome out.json]
//! ```
//!
//! Checks, in order: every line parses as a JSON object; the first
//! line is a `meta` line with the expected schema version and a host
//! block; every line's `type` is known and carries that type's
//! required fields; event timestamps are non-decreasing; and per
//! thread, span begin/end events balance like a bracket sequence.
//! Exit code 0 with a one-line summary on success, 1 with a
//! line-numbered error otherwise — CI runs this against the trace the
//! `experiments` bin emits.

#![expect(clippy::print_stdout, clippy::print_stderr, reason = "a CLI binary")]

use std::process::ExitCode;

use serde_json::Value;

fn fail(line_no: usize, msg: &str) -> ExitCode {
    eprintln!("obs_check: line {line_no}: {msg}");
    ExitCode::FAILURE
}

fn get_num(v: &Value, key: &str) -> Option<f64> {
    match v.get(key) {
        Some(Value::Number(n)) => Some(*n),
        _ => None,
    }
}

fn get_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match v.get(key) {
        Some(Value::String(s)) => Some(s),
        _ => None,
    }
}

/// Serialises a parsed value back to JSON (the vendored serde_json has
/// no writer). Only shapes the schema admits appear here; non-finite
/// numbers re-emit as `null`, mirroring the exporter.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn to_json(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Number(n) if n.is_finite() => n.to_string(),
        Value::Number(_) => "null".to_string(),
        Value::String(s) => json_str(s),
        Value::Array(items) => {
            let body: Vec<String> = items.iter().map(to_json).collect();
            format!("[{}]", body.join(", "))
        }
        Value::Object(entries) => {
            let body: Vec<String> = entries
                .iter()
                .map(|(k, v)| format!("{}: {}", json_str(k), to_json(v)))
                .collect();
            format!("{{{}}}", body.join(", "))
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut chrome_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--chrome" => {
                i += 1;
                match args.get(i) {
                    Some(p) => chrome_out = Some(p.clone()),
                    None => {
                        eprintln!("obs_check: missing value for --chrome");
                        return ExitCode::FAILURE;
                    }
                }
            }
            a if path.is_none() => path = Some(a.to_string()),
            a => {
                eprintln!("obs_check: unexpected argument {a}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    let Some(path) = path else {
        eprintln!("usage: obs_check <trace.jsonl> [--chrome out.json]");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("obs_check: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut counts = [0usize; 4]; // meta, counter, span, event
    let mut last_t_us = 0.0f64;
    // Per-tid stack depth of open spans (B pushes, E pops).
    let mut open: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    // Chrome conversion accumulators: the timeline, the drained
    // counter totals, and the drain time the meta line stamps.
    let mut chrome_events: Vec<String> = Vec::new();
    let mut totals: Vec<String> = Vec::new();
    let mut drained_at_us = None;

    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v: Value = match serde_json::parse_value_str(line) {
            Ok(v) => v,
            Err(e) => return fail(line_no, &format!("not valid JSON: {e}")),
        };
        let Some(ty) = get_str(&v, "type") else {
            return fail(line_no, "missing string field `type`");
        };
        match ty {
            "meta" => {
                counts[0] += 1;
                if line_no != 1 {
                    return fail(line_no, "meta line must be the first line");
                }
                match get_num(&v, "version") {
                    Some(ver) if ver == cawo_obs::SCHEMA_VERSION as f64 => {}
                    Some(ver) => {
                        return fail(
                            line_no,
                            &format!(
                                "schema version {ver} != supported {}",
                                cawo_obs::SCHEMA_VERSION
                            ),
                        )
                    }
                    None => return fail(line_no, "meta line missing numeric `version`"),
                }
                if get_str(&v, "level").is_none() {
                    return fail(line_no, "meta line missing string `level`");
                }
                let Some(host) = v.get("host") else {
                    return fail(line_no, "meta line missing `host` object");
                };
                for key in ["cores", "toolchain", "os"] {
                    if host.get(key).is_none() {
                        return fail(line_no, &format!("host block missing `{key}`"));
                    }
                }
                drained_at_us = get_num(&v, "drained_at_us");
            }
            "counter" => {
                counts[1] += 1;
                let (Some(name), Some(value)) = (get_str(&v, "name"), get_num(&v, "value")) else {
                    return fail(line_no, "counter line wants string `name`, number `value`");
                };
                totals.push(format!(
                    "{}: {}",
                    json_str(name),
                    to_json(&Value::Number(value))
                ));
            }
            "span" => {
                counts[2] += 1;
                for key in ["cat", "name"] {
                    if get_str(&v, key).is_none() {
                        return fail(line_no, &format!("span line missing string `{key}`"));
                    }
                }
                for key in ["count", "total_us", "max_us", "p50_us"] {
                    if get_num(&v, key).is_none() {
                        return fail(line_no, &format!("span line missing number `{key}`"));
                    }
                }
                match v.get("buckets") {
                    Some(Value::Array(bs)) => {
                        for b in bs {
                            let ok = matches!(b, Value::Array(p) if p.len() == 2
                                && matches!(p[0], Value::Number(_))
                                && matches!(p[1], Value::Number(_)));
                            if !ok {
                                return fail(line_no, "span bucket is not a [index, count] pair");
                            }
                        }
                    }
                    _ => return fail(line_no, "span line missing `buckets` array"),
                }
            }
            "event" => {
                counts[3] += 1;
                if counts[0] == 0 {
                    return fail(line_no, "event before the meta line");
                }
                let Some(ph) = get_str(&v, "ph") else {
                    return fail(line_no, "event line missing string `ph`");
                };
                if !matches!(ph, "B" | "E" | "I" | "S") {
                    return fail(line_no, &format!("unknown event phase `{ph}`"));
                }
                for key in ["cat", "name"] {
                    if get_str(&v, key).is_none() {
                        return fail(line_no, &format!("event line missing string `{key}`"));
                    }
                }
                let (Some(t_us), Some(tid)) = (get_num(&v, "t_us"), get_num(&v, "tid")) else {
                    return fail(line_no, "event line wants numbers `t_us` and `tid`");
                };
                if t_us < last_t_us {
                    return fail(line_no, "event timestamps must be non-decreasing");
                }
                last_t_us = t_us;
                if !matches!(v.get("args"), Some(Value::Object(_))) {
                    return fail(line_no, "event line missing `args` object");
                }
                let depth = open.entry(tid as u64).or_insert(0);
                match ph {
                    "B" => *depth += 1,
                    "E" => {
                        if *depth == 0 {
                            return fail(line_no, "span end without a matching begin (per tid)");
                        }
                        *depth -= 1;
                    }
                    _ => {}
                }
                if chrome_out.is_some() {
                    let cat = get_str(&v, "cat").unwrap_or_default();
                    let name = get_str(&v, "name").unwrap_or_default();
                    let args = v.get("args").map_or_else(|| "{}".to_string(), to_json);
                    let common = format!(
                        "\"ts\": {t_us}, \"pid\": 1, \"tid\": {tid}, \
                         \"cat\": \"{cat}\", \"name\": \"{name}\""
                    );
                    chrome_events.push(match ph {
                        "B" => format!("{{\"ph\": \"B\", {common}, \"args\": {args}}}"),
                        "E" => format!("{{\"ph\": \"E\", {common}}}"),
                        "S" => format!("{{\"ph\": \"C\", {common}, \"args\": {args}}}"),
                        _ => format!("{{\"ph\": \"i\", \"s\": \"t\", {common}, \"args\": {args}}}"),
                    });
                }
            }
            other => return fail(line_no, &format!("unknown line type `{other}`")),
        }
    }
    if counts[0] != 1 {
        eprintln!(
            "obs_check: expected exactly one meta line, found {}",
            counts[0]
        );
        return ExitCode::FAILURE;
    }
    // Spans still open at end-of-trace are fine (the process may have
    // drained mid-span); only *unbalanced ends* are schema errors.

    if let Some(out_path) = chrome_out {
        // The drained counter totals ride along as one global instant.
        chrome_events.push(format!(
            "{{\"ph\": \"i\", \"s\": \"g\", \"ts\": {}, \"pid\": 1, \"tid\": 0, \
             \"cat\": \"obs\", \"name\": \"counter totals\", \"args\": {{{}}}}}",
            drained_at_us.unwrap_or(last_t_us),
            totals.join(", "),
        ));
        let doc = format!(
            "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n{}\n]}}\n",
            chrome_events.join(",\n")
        );
        if let Err(e) = std::fs::write(&out_path, &doc) {
            eprintln!("obs_check: cannot write {out_path}: {e}");
            return ExitCode::FAILURE;
        }
        // The converter must emit what it would itself accept.
        if let Err(e) = serde_json::parse_value_str(&doc) {
            eprintln!("obs_check: internal error — emitted Chrome trace is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "obs_check: wrote {} Chrome events to {out_path}",
            chrome_events.len()
        );
    }
    println!(
        "ok: {} meta, {} counter, {} span, {} event line(s)",
        counts[0], counts[1], counts[2], counts[3]
    );
    ExitCode::SUCCESS
}
