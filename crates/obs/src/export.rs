//! Exporters: the JSONL event-trace writer and the human-readable
//! `--profile` summary table.
//!
//! The JSONL schema is documented in `docs/OBSERVABILITY.md` and
//! validated by the `obs_check` binary, which also converts a trace to
//! the Chrome trace-event format; [`SCHEMA_VERSION`] gates both.

use std::io::{self, Write};

use crate::{host_meta_json, level, now_us, Snapshot};

/// Version stamped into every JSONL meta line and checked by
/// `obs_check`. Bump when a line type or required field changes.
pub const SCHEMA_VERSION: u32 = 1;

/// Escapes a string for embedding inside a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// A JSON number: finite floats verbatim, non-finite as `null`
/// (JSON has no NaN/Infinity).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn args_obj(args: &[(&'static str, f64)]) -> String {
    let body: Vec<String> = args
        .iter()
        .map(|(k, v)| format!("\"{}\": {}", esc(k), num(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Writes the snapshot as JSONL: one meta line, then counters (nonzero
/// only), span aggregates, and the event timeline — one JSON object
/// per line. See `docs/OBSERVABILITY.md` for the schema.
pub fn write_jsonl(snap: &Snapshot, out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "{{\"type\": \"meta\", \"version\": {SCHEMA_VERSION}, \"level\": \"{}\", \
         \"drained_at_us\": {}, \"host\": {}}}",
        level().name(),
        now_us(),
        host_meta_json(),
    )?;
    for &(c, v) in &snap.counters {
        if v != 0 {
            writeln!(
                out,
                "{{\"type\": \"counter\", \"name\": \"{}\", \"value\": {v}}}",
                c.name()
            )?;
        }
    }
    for a in &snap.spans {
        let buckets: Vec<String> = a
            .hist
            .buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(i, &c)| format!("[{i}, {c}]"))
            .collect();
        writeln!(
            out,
            "{{\"type\": \"span\", \"cat\": \"{}\", \"name\": \"{}\", \"count\": {}, \
             \"total_us\": {}, \"max_us\": {}, \"p50_us\": {}, \"buckets\": [{}]}}",
            esc(a.cat),
            esc(a.name),
            a.count,
            a.total_us,
            a.max_us,
            a.hist.quantile_floor(0.5),
            buckets.join(", "),
        )?;
    }
    for e in &snap.events {
        writeln!(
            out,
            "{{\"type\": \"event\", \"ph\": \"{}\", \"t_us\": {}, \"tid\": {}, \
             \"cat\": \"{}\", \"name\": \"{}\", \"args\": {}}}",
            e.ph.code(),
            e.t_us,
            e.tid,
            esc(e.cat),
            esc(e.name),
            args_obj(&e.args),
        )?;
    }
    Ok(())
}

/// Renders the human-readable `--profile` summary: nonzero counters,
/// then span statistics (count, total/mean/p50/max milliseconds).
pub fn summary_table(snap: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("-- solve profile --------------------------------------------\n");
    let nonzero: Vec<_> = snap.counters.iter().filter(|&&(_, v)| v != 0).collect();
    if nonzero.is_empty() && snap.spans.is_empty() {
        out.push_str("(nothing recorded; raise the level with --log-level or CAWO_LOG)\n");
        return out;
    }
    if !nonzero.is_empty() {
        out.push_str(&format!("{:<24} {:>14}\n", "counter", "total"));
        for &&(c, v) in &nonzero {
            out.push_str(&format!("{:<24} {:>14}\n", c.name(), v));
        }
    }
    if !snap.spans.is_empty() {
        let ms = |us: u64| us as f64 / 1e3;
        out.push_str(&format!(
            "{:<24} {:>8} {:>12} {:>10} {:>10} {:>10}\n",
            "span", "count", "total_ms", "mean_ms", "p50_ms", "max_ms"
        ));
        for a in &snap.spans {
            out.push_str(&format!(
                "{:<24} {:>8} {:>12.3} {:>10.3} {:>10.3} {:>10.3}\n",
                format!("{}.{}", a.cat, a.name),
                a.count,
                ms(a.total_us),
                ms(a.total_us) / a.count.max(1) as f64,
                ms(a.hist.quantile_floor(0.5)),
                ms(a.max_us),
            ));
        }
    }
    out.push_str("-------------------------------------------------------------\n");
    out
}
