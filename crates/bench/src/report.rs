//! The one artifact format and timing discipline every `bench` section
//! shares.
//!
//! Each section writes `BENCH_<section>.json` with the same top-level
//! keys, in this order:
//!
//! | key       | holds                                                  |
//! |-----------|--------------------------------------------------------|
//! | `bench`   | the section name                                       |
//! | `host`    | cores, `CAWO_THREADS`, toolchain, OS                   |
//! | `timing`  | how the section's `seconds` were taken                 |
//! | `params`  | the fixed inputs (sizes, budgets, pivot caps)          |
//! | `results` | one object per measured row, each with a `section` key |
//! | `summary` | the headline ratios derived from `results`             |
//! | `note`    | what the rows measure and their acceptance bars        |
//!
//! Repeatable probes are timed by [`min_interleaved`]: one untimed
//! warm-up, then `rounds` rounds that each run every probe once, in
//! order, keeping the minimum per probe. Interleaving charges host
//! drift to every probe alike; the minimum is the run least disturbed
//! by other load. Single-shot runs (budgeted solves, traced solves)
//! are timed once with [`once`].

use std::time::Instant;

/// A JSON value as the artifacts use it. Objects keep insertion order,
/// so every artifact lists its keys in the order the section wrote them.
#[derive(Debug)]
pub enum Val {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An exact integer (counts, costs, sizes).
    Int(i128),
    /// A measured or derived real, written with 6 significant digits;
    /// non-finite values are written as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Val>),
    /// An object.
    Obj(Vec<(String, Val)>),
}

impl Val {
    /// Appends `key: val` to an object; other values are returned as is.
    pub fn with(mut self, key: &str, val: impl Into<Val>) -> Val {
        if let Val::Obj(fields) = &mut self {
            fields.push((key.to_string(), val.into()));
        }
        self
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Val {
            fn from(v: $t) -> Val {
                Val::Int(v as i128)
            }
        }
    )*};
}
from_int!(u32, u64, usize);

impl From<f64> for Val {
    fn from(v: f64) -> Val {
        Val::Num(v)
    }
}

impl From<bool> for Val {
    fn from(v: bool) -> Val {
        Val::Bool(v)
    }
}

impl From<&str> for Val {
    fn from(v: &str) -> Val {
        Val::Str(v.to_string())
    }
}

impl From<String> for Val {
    fn from(v: String) -> Val {
        Val::Str(v)
    }
}

impl<T: Into<Val>> From<Option<T>> for Val {
    fn from(v: Option<T>) -> Val {
        v.map_or(Val::Null, Into::into)
    }
}

impl<T: Into<Val>> From<Vec<T>> for Val {
    fn from(v: Vec<T>) -> Val {
        Val::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl From<(f64, f64)> for Val {
    fn from((a, b): (f64, f64)) -> Val {
        Val::Arr(vec![Val::Num(a), Val::Num(b)])
    }
}

/// Builds a [`Val::Obj`] from `"key" => value` pairs, converting each
/// value with `Val::from`.
#[macro_export]
macro_rules! obj {
    ($($k:expr => $v:expr),* $(,)?) => {
        $crate::report::Val::Obj(vec![
            $(($k.to_string(), $crate::report::Val::from($v))),*
        ])
    };
}

/// Writes `v` rounded to 6 significant digits, in the shortest form
/// that reads back to the rounded value.
fn write_num(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let rounded: f64 = format!("{v:.5e}").parse().unwrap_or(v);
    // `{}` never uses an exponent, so it is valid JSON at any magnitude.
    out.push_str(&format!("{rounded}"));
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes `v` on one line.
fn write_inline(out: &mut String, v: &Val) {
    match v {
        Val::Null => out.push_str("null"),
        Val::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Val::Int(i) => out.push_str(&i.to_string()),
        Val::Num(x) => write_num(out, *x),
        Val::Str(s) => write_str(out, s),
        Val::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_inline(out, item);
            }
            out.push(']');
        }
        Val::Obj(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_str(out, k);
                out.push_str(": ");
                write_inline(out, item);
            }
            out.push('}');
        }
    }
}

/// One section's artifact; see the module docs for the schema.
#[derive(Debug)]
pub struct Artifact {
    /// Section name; the file is `BENCH_<bench>.json`.
    pub bench: &'static str,
    /// How the `seconds` of `results` were taken.
    pub timing: String,
    /// Fixed inputs of the section (an object).
    pub params: Val,
    /// Measured rows, one object each.
    pub results: Vec<Val>,
    /// Headline ratios derived from the rows (an object).
    pub summary: Val,
    /// What the rows measure and their acceptance bars.
    pub note: &'static str,
}

impl Artifact {
    /// The artifact's file name.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.bench)
    }

    /// Renders the artifact: top-level keys one per line, each result
    /// row on a line of its own.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n  \"bench\": ");
        write_str(&mut out, self.bench);
        out.push_str(",\n  \"host\": ");
        out.push_str(&cawo_obs::host_meta_json());
        out.push_str(",\n  \"timing\": ");
        write_str(&mut out, &self.timing);
        out.push_str(",\n  \"params\": ");
        write_inline(&mut out, &self.params);
        out.push_str(",\n  \"results\": [");
        for (i, row) in self.results.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            write_inline(&mut out, row);
        }
        out.push_str("\n  ],\n  \"summary\": ");
        write_inline(&mut out, &self.summary);
        out.push_str(",\n  \"note\": ");
        write_str(&mut out, self.note);
        out.push_str("\n}\n");
        out
    }

    /// Writes [`Artifact::render`] to [`Artifact::file_name`] in the
    /// current directory.
    pub fn write(&self) -> std::io::Result<()> {
        std::fs::write(self.file_name(), self.render())
    }
}

/// Seconds `f` takes, with its output.
pub fn once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    #[expect(clippy::disallowed_methods, reason = "timing is this crate's job")]
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// A probe for [`min_interleaved`]: one run of the measured work,
/// returning a checksum of its result.
pub type Probe<'a> = Box<dyn FnMut() -> u64 + 'a>;

/// Times `probes` as the module docs describe and returns each probe's
/// minimum seconds over `rounds` interleaved rounds.
///
/// The warm-up run fixes each probe's checksum; every timed run must
/// repeat it, so a probe whose result drifts fails loudly instead of
/// timing different work.
pub fn min_interleaved(rounds: usize, probes: &mut [Probe<'_>]) -> Vec<f64> {
    let expect: Vec<u64> = probes.iter_mut().map(|p| p()).collect();
    let mut best = vec![f64::INFINITY; probes.len()];
    for _ in 0..rounds {
        for (k, probe) in probes.iter_mut().enumerate() {
            let (sum, secs) = once(&mut *probe);
            assert_eq!(sum, expect[k], "probe {k} changed its result between runs");
            best[k] = best[k].min(secs);
        }
    }
    best
}

/// [`min_interleaved`] of a single probe.
pub fn min_of(rounds: usize, probe: impl FnMut() -> u64) -> f64 {
    min_interleaved(rounds, &mut [Box::new(probe)])[0]
}

/// Wraps `f` so one probe run calls it `iters` times and reports the
/// per-call seconds once [`min_interleaved`]'s result is divided by
/// `iters` — for operations too short to time one at a time.
pub fn batch<'a>(iters: u32, mut f: impl FnMut() -> u64 + 'a) -> Probe<'a> {
    Box::new(move || {
        let mut sum = 0u64;
        for _ in 0..iters {
            sum = sum.wrapping_add(std::hint::black_box(f()));
        }
        sum
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Artifact {
        Artifact {
            bench: "demo",
            timing: "min of 3 interleaved runs".into(),
            params: obj! { "tasks" => 100usize, "budget" => "2s" },
            results: vec![
                obj! {
                    "section" => "a",
                    "seconds" => 1.234_567_89e-5,
                    "cost" => 42u64,
                    "bound" => None::<f64>,
                    "series" => vec![(0.5, 7.0), (1.25, f64::NAN)],
                },
                obj! { "section" => "b\"q", "ok" => true, "ratio" => f64::INFINITY },
            ],
            summary: obj! { "speedup" => 181.046_3 },
            note: "line\nbreak",
        }
    }

    #[test]
    fn render_is_valid_json_with_the_shared_top_level_keys() {
        let text = sample().render();
        let v = serde_json::parse_value_str(&text).expect("artifact parses");
        let serde_json::Value::Object(top) = v else {
            panic!("top level is an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["bench", "host", "timing", "params", "results", "summary", "note"]
        );
        let results = &top[4].1;
        let serde_json::Value::Array(rows) = results else {
            panic!("results is an array")
        };
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn numbers_keep_six_significant_digits_and_non_finite_is_null() {
        let text = sample().render();
        assert!(text.contains("\"seconds\": 0.0000123457"), "{text}");
        assert!(text.contains("\"cost\": 42"));
        assert!(text.contains("\"bound\": null"));
        assert!(text.contains("\"series\": [[0.5, 7], [1.25, null]]"));
        assert!(text.contains("\"ratio\": null"));
        assert!(text.contains("\"speedup\": 181.046"));
        assert!(text.contains("\"note\": \"line\\nbreak\""));
        assert!(text.contains("\"section\": \"b\\\"q\""));
    }

    #[test]
    fn min_interleaved_runs_every_probe_each_round_and_checks_results() {
        let (mut single, mut batched) = (0u32, 0u32);
        let best = min_interleaved(
            3,
            &mut [
                Box::new(|| {
                    single += 1;
                    7
                }),
                batch(5, || {
                    batched += 1;
                    1
                }),
            ],
        );
        assert_eq!(best.len(), 2);
        assert!(best.iter().all(|s| s.is_finite() && *s >= 0.0));
        // One warm-up plus three rounds; the batch probe calls 5x each.
        assert_eq!((single, batched), (4, 20));
    }

    #[test]
    #[should_panic(expected = "changed its result")]
    fn min_interleaved_rejects_a_drifting_probe() {
        let mut n = 0u64;
        min_of(2, || {
            n += 1;
            n
        });
    }
}
