//! Contract tests of the benchmark itself. Run them optimised:
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::sync::{Mutex, MutexGuard};

use cawo_core::{carbon_cost, EngineKind, RunParams, Variant};
use cawo_obs::Level;
use cawo_perfbench::layers::traced_variant;
use cawo_perfbench::measure::Calibrator;
use cawo_perfbench::workloads::{check_schedule, Limit, Mode, PassLog, Prepared, Workload};
use cawo_perfbench::{judge, run};
use serde_json::Value;

/// The observability level and sinks are process-wide, and tests run on
/// parallel threads: every test that runs program code holds this lock.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn one_thread<R: Send>(op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool builds")
        .install(op)
}

#[test]
fn traced_path_is_bit_identical_to_run_with() {
    let _g = serial();
    let Ok(Prepared::Heuristic(h)) = Workload::PaperGrid.prepare(5) else {
        panic!("paper-grid prepares a heuristic set");
    };
    // Every seventh case: all seven workflows, all four deadline factors.
    for case in h.cases.iter().step_by(7) {
        let inst = &h.instances[case.inst];
        for engine in EngineKind::ALL {
            let params = RunParams {
                engine,
                ..RunParams::default()
            };
            for v in Variant::ALL {
                let plain = v.run_with(inst, &case.profile, params);
                let traced = traced_variant(v, inst, &case.profile, params);
                assert_eq!(traced.schedule, plain, "{v} on {engine}");
                assert_eq!(traced.cost, carbon_cost(inst, &plain, &case.profile));
                if let Some(total) = traced.engine_cost {
                    assert_eq!(total, traced.cost, "{v} on {engine}: engine total");
                }
            }
        }
    }
}

/// Operations of a smoke-sized pass per workload.
fn smoke_ops(w: Workload) -> usize {
    match w {
        Workload::PaperGrid => 4 * 17,
        Workload::LargeGreedy => 9,
        Workload::Exact => 9,
        Workload::Requery => 2_000,
    }
}

#[test]
fn same_seed_gives_identical_answers_and_counters() {
    let _g = serial();
    for w in Workload::ALL {
        let smoke = || {
            one_thread(|| {
                let prepared = w.prepare(11).expect("inputs build");
                let mut cal = Calibrator::new();
                let mut log = PassLog::default();
                cawo_obs::drain();
                cawo_obs::set_level(Level::Summary);
                prepared.pass(Mode::Traced, Limit::Ops(smoke_ops(w)), &mut cal, &mut log);
                cawo_obs::set_level(Level::Off);
                (log, cawo_obs::drain().counters)
            })
        };
        let ((a, ca), (b, cb)) = (smoke(), smoke());
        assert_eq!(a.answers.len(), smoke_ops(w), "{}", w.name());
        assert!(a.failures.is_empty(), "{}: {:?}", w.name(), a.failures);
        assert_eq!(a.answers, b.answers, "{}: answers", w.name());
        assert_eq!(ca, cb, "{}: counters", w.name());
    }
}

fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn text(v: Option<&Value>) -> &str {
    match v {
        Some(Value::String(s)) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

#[test]
fn every_listed_metric_is_emitted_with_its_unit() {
    let _g = serial();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = serde_json::parse_value_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let Some(Value::Array(listed)) = spec.get(key) else {
            panic!("{key} is a list");
        };
        // `exact` is the quickest workload; every metric is emitted on
        // every workload.
        let report = run(Workload::Exact, 3, 0.0, trace, None).expect("run succeeds");
        assert!(report.correct(), "{:?}", report.failures);
        let doc = serde_json::parse_value_str(&report.json()).expect("result line parses");
        let Some(Value::Object(emitted)) = doc.get("metrics") else {
            panic!("metrics is an object");
        };
        assert_eq!(
            emitted.len(),
            listed.len(),
            "{key}: emitted exactly the listed metrics"
        );
        for m in listed {
            let (name, unit) = (text(m.get("name")), text(m.get("unit")));
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: unit {unit}");
            let got = doc.get("metrics").and_then(|ms| ms.get(name));
            assert_eq!(text(got.and_then(|g| g.get("unit"))), unit, "{name}");
            assert!(
                matches!(got.and_then(|g| g.get("value")), Some(Value::Number(v)) if v.is_finite()),
                "{name}: value"
            );
        }
    }
}

#[test]
fn a_corrupted_answer_counts_as_failed() {
    let _g = serial();
    let prepared = Workload::Requery.prepare(2).expect("inputs build");
    let mut cal = Calibrator::new();
    let mut reference = PassLog::default();
    prepared.pass(Mode::Checked, Limit::Ops(500), &mut cal, &mut reference);
    assert_eq!(judge(&reference, None, &mut Vec::new()), 0);

    let mut again = PassLog::default();
    prepared.pass(Mode::Plain, Limit::Ops(500), &mut cal, &mut again);
    assert_eq!(judge(&again, Some(&reference), &mut Vec::new()), 0);
    again.answers[123].cost += 1;
    let mut failures = Vec::new();
    assert_eq!(judge(&again, Some(&reference), &mut failures), 1);
    assert!(failures[0].starts_with("op 123:"), "{failures:?}");

    // A reported cost that disagrees with re-pricing, and a schedule
    // that starts a task before its predecessor ends, each fail their
    // check.
    let Prepared::Requery(r) = &prepared else {
        panic!("requery prepares a requery set");
    };
    let (inst, profile) = (&r.instances[0], &r.profiles[0][0]);
    let sched = Variant::PressW.run(inst, profile);
    let cost = carbon_cost(inst, &sched, profile);
    let mut log = PassLog::default();
    check_schedule(&mut log, 0, inst, profile, &sched, cost);
    assert_eq!(judge(&log, None, &mut Vec::new()), 0);
    check_schedule(&mut log, 1, inst, profile, &sched, cost + 1);
    let last = (0..inst.node_count() as u32)
        .filter(|&v| !inst.dag().predecessors(v).is_empty())
        .max_by_key(|&v| sched.start(v))
        .expect("a task with predecessors");
    let mut early = sched.clone();
    early.set_start(last, 0);
    check_schedule(
        &mut log,
        2,
        inst,
        profile,
        &early,
        carbon_cost(inst, &early, profile),
    );
    assert_eq!(judge(&log, None, &mut Vec::new()), 2, "{:?}", log.failures);
}
