//! End-to-end benchmark of the CaWoSched reproduction.
//!
//! One run = one workload at one seed, on a dedicated 1-thread
//! `cawo_par` pool, driven by a single closed-loop client (the next
//! operation starts when the previous one returns):
//!
//! 1. **set-up** — the workload's inputs are built from the seed several
//!    times; `setup_s` is the median;
//! 2. **warm-up** — a fraction of a second of operations, untimed;
//! 3. **timed passes** — whole passes over the operation list until the
//!    run's seconds are spent. The first pass checks every answer; every
//!    later pass must reproduce the first one's answers bit for bit.
//!
//! With `trace` the run instead measures the per-layer split: an
//! untraced reference pass, then a traced pass whose answers must match
//! it, then single-layer probes (see [`layers`]).

pub mod layers;
pub mod measure;
pub mod workloads;

use std::path::Path;
use std::time::Instant;

use cawo_obs::Level;

use measure::{median, peak_rss_mb, percentile, timed, Calibrator, Metric};
use workloads::{Limit, Mode, PassLog, Prepared, Workload};

/// The end-to-end metrics, as `(name, unit)`, in report order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Minimum set-ups per run, and the set-up time after which no more
/// are started (small set-ups repeat more, so their median is steady).
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 1_000;
const SETUP_TARGET_S: f64 = 0.3;
/// Seconds of untimed warm-up operations.
const WARMUP_S: f64 = 0.3;

/// One run's results.
#[derive(Debug)]
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// Operations executed and checked.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first failures, for the log.
    pub failures: Vec<String>,
    /// The reported metrics: end-to-end, or per-layer with `trace`.
    pub metrics: Vec<Metric>,
    /// Context printed with the report but not gated.
    pub notes: Vec<String>,
}

impl Report {
    /// No operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            measure::metrics_json(&self.metrics)
        )
    }

    /// Human-readable report.
    pub fn text(&self) -> String {
        let mut out = format!("== {}\n", self.workload.name());
        for m in &self.metrics {
            out += &format!("  {:<28} {:>16.6} {}\n", m.name, m.value, m.unit);
        }
        for n in &self.notes {
            out += &format!("  {n}\n");
        }
        out += &format!("  {} attempted, {} failed\n", self.attempted, self.failed);
        for f in &self.failures {
            out += &format!("  FAILED {f}\n");
        }
        out
    }
}

/// Runs one workload at one seed; see the crate docs. `obs_out`
/// receives the traced pass as `obs_check`-valid JSONL.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    obs_out: Option<&Path>,
) -> Result<Report, String> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(|e| e.to_string())?;
    pool.install(|| {
        let mut cal = Calibrator::new();
        if trace {
            cawo_obs::set_level(Level::Trace);
        }
        let (prepared, setups) = setup(workload, seed, &mut cal)?;
        cawo_obs::set_level(Level::Off);
        let setup_snap = cawo_obs::drain();
        prepared.pass(
            Mode::Plain,
            Limit::Seconds(WARMUP_S),
            &mut cal,
            &mut PassLog::default(),
        );
        if trace {
            traced(
                workload,
                &prepared,
                &setup_snap,
                setups.len(),
                &mut cal,
                obs_out,
            )
        } else {
            plain(workload, &prepared, &setups, seconds, &mut cal)
        }
    })
}

/// Builds the inputs repeatedly; returns the last build and every
/// build's time in reference-host seconds.
fn setup(
    workload: Workload,
    seed: u64,
    cal: &mut Calibrator,
) -> Result<(Prepared, Vec<f64>), String> {
    let mut raw = Vec::new();
    let mut last = None;
    while raw.len() < SETUP_MIN_REPS
        || (raw.len() < SETUP_MAX_REPS && raw.iter().map(|&(s, _)| s).sum::<f64>() < SETUP_TARGET_S)
    {
        // Drop the previous build first: peak memory is one input set.
        drop(last.take());
        let (prepared, t) = timed(|| workload.prepare(seed));
        last = Some(prepared?);
        raw.push((t, cal.mark()));
        cal.after(t);
    }
    let prepared = last.ok_or("no set-up ran")?;
    Ok((
        prepared,
        raw.iter().map(|&(t, m)| cal.scale(t, m)).collect(),
    ))
}

/// Counts the failed operations of `log` — a failed check, or an answer
/// that differs from the reference pass's — and appends their
/// descriptions to `failures`.
pub fn judge(log: &PassLog, reference: Option<&PassLog>, failures: &mut Vec<String>) -> u64 {
    let mut bad: Vec<usize> = log.failures.iter().map(|&(op, _)| op).collect();
    failures.extend(log.failures.iter().map(|(op, m)| format!("op {op}: {m}")));
    if let Some(r) = reference {
        for (op, (a, b)) in log.answers.iter().zip(&r.answers).enumerate() {
            if a != b {
                bad.push(op);
                failures.push(format!(
                    "op {op}: answer {a:?} differs from the first pass's {b:?}"
                ));
            }
        }
    }
    bad.sort_unstable();
    bad.dedup();
    bad.len() as u64
}

fn plain(
    workload: Workload,
    prepared: &Prepared,
    setups: &[f64],
    seconds: f64,
    cal: &mut Calibrator,
) -> Result<Report, String> {
    let t0 = Instant::now();
    let mut first = PassLog::default();
    prepared.pass(Mode::Checked, Limit::Whole, cal, &mut first);
    // The program's peak: set-up, warm-up and one pass. Later passes do
    // the same work; only this benchmark's own bookkeeping grows.
    let peak_rss = peak_rss_mb()?;
    let mut failures = Vec::new();
    let mut failed = judge(&first, None, &mut failures);
    let mut passes = vec![(
        std::mem::take(&mut first.secs),
        std::mem::take(&mut first.marks),
    )];
    while t0.elapsed().as_secs_f64() < seconds {
        let mut log = PassLog::default();
        prepared.pass(Mode::Plain, Limit::Whole, cal, &mut log);
        failed += judge(&log, Some(&first), &mut failures);
        passes.push((log.secs, log.marks));
    }
    let attempted: u64 = passes.iter().map(|(s, _)| s.len() as u64).sum();

    // Each operation's median over the passes, so one disturbed
    // execution moves neither the sum nor the percentiles.
    let per_op = |scaled: bool| -> Vec<f64> {
        (0..prepared.op_count())
            .map(|i| {
                let runs: Vec<f64> = passes
                    .iter()
                    .filter_map(|(secs, marks)| {
                        let s = *secs.get(i)?;
                        Some(if scaled { cal.scale(s, marks[i]) } else { s })
                    })
                    .collect();
                median(&runs)
            })
            .collect()
    };
    let (ops, raw_ops) = (per_op(true), per_op(false));
    let values = [
        median(setups),
        ops.iter().sum(),
        median(&ops) * 1e3,
        percentile(&ops, 0.99) * 1e3,
        peak_rss,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric::new(name, unit, v))
        .collect();
    let optimal = first.answers.iter().filter(|a| a.optimal).count();
    let notes = vec![
        format!(
            "{} passes of {} ops, {} set-ups; raw wall {:.4} s",
            passes.len(),
            ops.len(),
            setups.len(),
            raw_ops.iter().sum::<f64>(),
        ),
        format!(
            "calibration {:.4} ms (reference {} ms)",
            cal.mean_ms(),
            measure::CAL_REF_MS
        ),
        format!(
            "fail_share {:.6}; cost / ASAP {:.4}; proven optimal {optimal} of {}",
            failed as f64 / attempted.max(1) as f64,
            first.cost_ratio(),
            first.answers.len()
        ),
    ];
    failures.truncate(10);
    Ok(Report {
        workload,
        attempted,
        failed,
        failures,
        metrics,
        notes,
    })
}

fn traced(
    workload: Workload,
    prepared: &Prepared,
    setup_snap: &cawo_obs::Snapshot,
    setup_reps: usize,
    cal: &mut Calibrator,
    obs_out: Option<&Path>,
) -> Result<Report, String> {
    let mut reference = PassLog::default();
    let ref_mark = cal.mark();
    prepared.pass(Mode::Checked, Limit::Whole, cal, &mut reference);
    let ref_cal_ms = cal.mean_ms_since(ref_mark);
    cawo_obs::set_level(Level::Trace);
    let mut traced = PassLog::default();
    let traced_mark = cal.mark();
    let ((), traced_wall_s) = timed(|| prepared.pass(Mode::Traced, Limit::Whole, cal, &mut traced));
    cawo_obs::set_level(Level::Off);
    // Each pass against the calibration taken during it: the passes run
    // seconds apart, and the host may have drifted in between.
    let overhead = (traced.total_secs() / cal.mean_ms_since(traced_mark))
        / (reference.total_secs() / ref_cal_ms);
    let snap = cawo_obs::drain();
    if let Some(path) = obs_out {
        let mut file =
            std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        cawo_obs::write_jsonl(&snap, &mut file).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let probes = layers::probes(workload, prepared);

    let mut failures = Vec::new();
    let mut failed = judge(&reference, None, &mut failures);
    failed += judge(&traced, Some(&reference), &mut failures);
    failed += probes.failures.len() as u64;
    failures.extend(probes.failures.iter().cloned());
    let attempted = (reference.secs.len() + traced.secs.len()) as u64;

    let factor = cal.factor();
    let metrics = layers::per_layer(&layers::TraceRun {
        prepared,
        setup: setup_snap,
        snap: &snap,
        setup_reps,
        reference: &reference,
        traced: &traced,
        traced_wall_s,
        probes: &probes,
        overhead,
        factor,
        cal_ms: cal.mean_ms(),
    });
    let mut notes = vec!["traced pass, self time by layer:".to_string()];
    notes.extend(
        layers::self_time_table(&snap, traced_wall_s, factor)
            .lines()
            .map(|l| format!("  {l}")),
    );
    notes.extend(probes.warm_solve_notes.iter().cloned());
    failures.truncate(10);
    Ok(Report {
        workload,
        attempted,
        failed,
        failures,
        metrics,
        notes,
    })
}
