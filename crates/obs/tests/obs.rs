//! Behavioural tests of the `cawo_obs` sinks: level gating, span
//! nesting in the event timeline, histogram bucket law, and draining
//! under `cawo_par` worker stress.
//!
//! The recording level is process-global state, so every test that
//! touches it runs under one shared mutex ([`level_lock`]) and restores
//! [`Level::Off`] + a clean drain on exit — the tests compose in any
//! interleaving the harness picks for the *other* integration suites.

use std::sync::{Mutex, MutexGuard, OnceLock};

use cawo_obs::{Ctr, Level, LogHistogram, HIST_BUCKETS};
use cawo_par::prelude::*;

/// Serialises tests around the global level + sinks; poisoning from an
/// earlier failed test is survivable (the guard only orders access).
fn level_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Restores `Off` and empties the sinks even when the test panics.
struct Reset;
impl Drop for Reset {
    fn drop(&mut self) {
        cawo_obs::set_level(Level::Off);
        let _ = cawo_obs::drain();
    }
}

#[test]
fn off_level_records_nothing() {
    let _g = level_lock();
    let _r = Reset;
    cawo_obs::set_level(Level::Off);
    let _ = cawo_obs::drain();
    cawo_obs::inc(Ctr::BnbNodes);
    cawo_obs::add(Ctr::LpSolves, 40);
    {
        let _s = cawo_obs::span("test", "off");
    }
    cawo_obs::sample("test", "off", 1.0);
    let snap = cawo_obs::drain();
    assert!(snap.is_empty(), "Off must record nothing: {snap:?}");
}

#[test]
fn summary_level_aggregates_but_keeps_no_timeline() {
    let _g = level_lock();
    let _r = Reset;
    cawo_obs::set_level(Level::Summary);
    let _ = cawo_obs::drain();
    cawo_obs::add(Ctr::MilpNodes, 7);
    cawo_obs::inc(Ctr::MilpNodes);
    {
        let _s = cawo_obs::span("test", "sum");
    }
    cawo_obs::sample("test", "series", 3.0); // trace-only: dropped
    let snap = cawo_obs::drain();
    assert_eq!(snap.counter(Ctr::MilpNodes), 8);
    let agg = snap.span("test", "sum").expect("span aggregated");
    assert_eq!(agg.count, 1);
    assert_eq!(agg.hist.count(), 1);
    assert!(snap.events.is_empty(), "Summary keeps no timeline");
}

#[test]
fn trace_spans_nest_in_the_timeline() {
    let _g = level_lock();
    let _r = Reset;
    cawo_obs::set_level(Level::Trace);
    let _ = cawo_obs::drain();
    {
        let _outer = cawo_obs::span("test", "outer");
        {
            let _inner = cawo_obs::span_with("test", "inner", &[("depth", 2.0)]);
        }
        cawo_obs::instant("test", "mark", &[]);
    }
    let snap = cawo_obs::drain();
    // Single thread → the sorted timeline is exactly the program order:
    // B(outer) B(inner) E(inner) I(mark) E(outer).
    let shape: Vec<(&str, &str)> = snap.events.iter().map(|e| (e.ph.code(), e.name)).collect();
    assert_eq!(
        shape,
        [
            ("B", "outer"),
            ("B", "inner"),
            ("E", "inner"),
            ("I", "mark"),
            ("E", "outer"),
        ]
    );
    assert!(
        snap.events.windows(2).all(|w| w[0].t_us <= w[1].t_us),
        "timestamps must be non-decreasing"
    );
    // The begin event carries the span_with arguments.
    let inner_b = &snap.events[1];
    assert_eq!(inner_b.args, vec![("depth", 2.0)]);
    // Both spans also aggregated, and outer contains inner.
    let outer = snap.span("test", "outer").expect("outer aggregated");
    let inner = snap.span("test", "inner").expect("inner aggregated");
    assert_eq!((outer.count, inner.count), (1, 1));
    assert!(outer.total_us >= inner.total_us);
}

#[test]
fn level_flip_mid_span_stays_balanced() {
    let _g = level_lock();
    let _r = Reset;
    cawo_obs::set_level(Level::Summary);
    let _ = cawo_obs::drain();
    let s = cawo_obs::span("test", "flip");
    // Raising the level mid-span must not produce a dangling End: the
    // guard respects the level captured at open time.
    cawo_obs::set_level(Level::Trace);
    drop(s);
    let snap = cawo_obs::drain();
    assert!(snap.events.is_empty(), "no unbalanced End event");
    assert_eq!(snap.span("test", "flip").map(|a| a.count), Some(1));
}

#[test]
fn histogram_bucket_law() {
    // Bucket 0 holds exactly 0; bucket i holds [2^(i-1), 2^i).
    assert_eq!(LogHistogram::bucket_of(0), 0);
    assert_eq!(LogHistogram::bucket_of(1), 1);
    assert_eq!(LogHistogram::bucket_of(2), 2);
    assert_eq!(LogHistogram::bucket_of(3), 2);
    assert_eq!(LogHistogram::bucket_of(4), 3);
    assert_eq!(LogHistogram::bucket_of(1023), 10);
    assert_eq!(LogHistogram::bucket_of(1024), 11);
    assert_eq!(LogHistogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
    for i in 0..HIST_BUCKETS {
        let floor = LogHistogram::bucket_floor(i);
        assert_eq!(LogHistogram::bucket_of(floor), i, "floor of bucket {i}");
        if floor > 0 {
            assert_eq!(
                LogHistogram::bucket_of(floor - 1),
                i - 1,
                "floor-1 falls one bucket down"
            );
        }
    }
}

#[test]
fn histogram_quantiles_and_count() {
    let mut h = LogHistogram::default();
    assert_eq!(h.quantile_floor(0.5), 0, "empty histogram");
    for v in [0u64, 1, 1, 2, 4, 8, 100, 1000] {
        h.record(v);
    }
    assert_eq!(h.count(), 8);
    // Samples sorted: 0 1 1 2 4 8 100 1000 — the median sample (4th of
    // 8) is 2, whose bucket floor is 2.
    assert_eq!(h.quantile_floor(0.5), 2);
    assert_eq!(h.quantile_floor(0.0), 0);
    // The max sample 1000 lands in bucket [512, 1024).
    assert_eq!(h.quantile_floor(1.0), 512);
}

#[test]
fn drain_resets_and_merges_across_par_workers() {
    let _g = level_lock();
    let _r = Reset;
    cawo_obs::set_level(Level::Summary);
    let _ = cawo_obs::drain();
    let pool = cawo_par::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .expect("4-thread pool");
    // Each of 256 tasks bumps counters and closes a span from whichever
    // worker picks it up; install() returns only at pool quiescence, so
    // the drain below is well-defined.
    const TASKS: u64 = 256;
    let done: u64 = pool.install(|| {
        (0..TASKS)
            .into_par_iter()
            .map(|i| {
                cawo_obs::inc(Ctr::BnbNodes);
                cawo_obs::add(Ctr::LpPivotsPhase2, i);
                let _s = cawo_obs::span("stress", "task");
                1u64
            })
            .sum()
    });
    assert_eq!(done, TASKS);
    let snap = cawo_obs::drain();
    assert_eq!(snap.counter(Ctr::BnbNodes), TASKS);
    assert_eq!(snap.counter(Ctr::LpPivotsPhase2), TASKS * (TASKS - 1) / 2);
    let agg = snap.span("stress", "task").expect("spans merged");
    assert_eq!(agg.count, TASKS);
    assert_eq!(agg.hist.count(), TASKS);
    assert!(agg.max_us <= agg.total_us.max(agg.max_us));
    // And the drain must have *reset* every sink: a second drain with
    // no recording in between is empty.
    assert!(cawo_obs::drain().is_empty(), "drain resets the sinks");
}

#[test]
fn level_parse_round_trips_and_rejects_garbage() {
    for l in [Level::Off, Level::Summary, Level::Trace] {
        assert_eq!(Level::parse(l.name()), Some(l));
        assert_eq!(Level::parse(&l.name().to_uppercase()), Some(l));
    }
    assert_eq!(Level::parse("verbose"), None);
    assert_eq!(Level::parse(""), None);
}

#[test]
fn warnings_count_at_any_level() {
    let _g = level_lock();
    let _r = Reset;
    cawo_obs::set_level(Level::Off);
    let _ = cawo_obs::drain();
    cawo_obs::warn("test warning (expected in test output)");
    let snap = cawo_obs::drain();
    assert_eq!(snap.counter(Ctr::Warnings), 1, "warnings bypass the gate");
}

#[test]
fn counter_names_are_unique_and_dotted() {
    let mut names: Vec<&str> = Ctr::ALL.iter().map(|c| c.name()).collect();
    assert_eq!(names.len(), Ctr::COUNT);
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), Ctr::COUNT, "duplicate counter name");
    for c in Ctr::ALL {
        assert!(c.name().is_ascii(), "{:?}", c);
    }
}

#[test]
fn jsonl_export_round_trips_through_the_checker_schema() {
    let _g = level_lock();
    let _r = Reset;
    cawo_obs::set_level(Level::Trace);
    let _ = cawo_obs::drain();
    cawo_obs::inc(Ctr::GridRows);
    {
        let _s = cawo_obs::span("test", "export");
        cawo_obs::sample("test", "series", 42.5);
    }
    let snap = cawo_obs::drain();
    let mut buf = Vec::new();
    cawo_obs::write_jsonl(&snap, &mut buf).expect("write to Vec");
    let text = String::from_utf8(buf).expect("utf-8 JSONL");
    // Every line parses as a JSON object; the first is the meta line.
    for (i, line) in text.lines().enumerate() {
        let v = serde_json::parse_value_str(line)
            .unwrap_or_else(|e| panic!("line {}: {e}: {line}", i + 1));
        let ty = match v.get("type") {
            Some(serde_json::Value::String(s)) => s.clone(),
            other => panic!("line {}: bad type field {other:?}", i + 1),
        };
        if i == 0 {
            assert_eq!(ty, "meta");
        } else {
            assert!(matches!(ty.as_str(), "counter" | "span" | "event"), "{ty}");
        }
    }
    assert!(text.contains("\"grid.rows\""));
    assert!(text.contains("\"ph\": \"S\""));
}
