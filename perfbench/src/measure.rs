//! Timing primitives shared by every workload: the host-speed
//! calibration, percentiles, peak memory and metric records.
//!
//! # Why times are calibrated
//!
//! The benchmark runs on shared virtual machines whose effective speed
//! drifts by tens of percent over seconds to minutes (neighbouring
//! tenants compete for caches, memory bandwidth and hyperthread
//! siblings). Such a drift cannot be averaged away inside a run, so
//! every run also times a fixed calibration kernel, interleaved with
//! its operations, and reports each operation's time scaled by
//! `CAL_REF_MS / kernel time around it` (the mean of the two samples
//! before and the two after): a time in *reference-host* units. The
//! kernel is part of this benchmark, not of the program under test, so
//! a change to the program moves the scaled times exactly as it moves
//! the raw ones. The raw kernel mean is reported as `host.cal_ms`.

use std::collections::BTreeMap;
use std::time::Instant;

/// Calibration kernel time, in milliseconds, on the reference host (a
/// 2-core Xeon VM at 2.1 GHz). Only a scale: it sets the host whose
/// seconds the reported times are expressed in.
pub const CAL_REF_MS: f64 = 3.0;

/// Measured work between two calibration samples, in seconds.
const CAL_PERIOD_S: f64 = 0.1;

const SORT_KEYS: usize = 1 << 15;
const ROWS: usize = 40_000;
const PER_ROW: usize = 6;
const DENSE: usize = 48;

/// The calibration kernel, with its buffers allocated once: a sample
/// never grows the heap, so sampling at time-dependent moments cannot
/// change the run's memory profile.
///
/// Two halves, because contention slows different code differently: a
/// pseudo-random sort with B-tree inserts and range probes (branchy,
/// cache-resident, like the heuristics and the cache), and sparse
/// matrix-vector products over ~4 MB plus a small dense elimination
/// (floating point and memory traffic, like the LP engine).
#[derive(Debug)]
struct Kernel {
    keys: Vec<u64>,
    cols: Vec<usize>,
    vals: Vec<f64>,
    y: Vec<f64>,
    prod: Vec<f64>,
    dense: Vec<f64>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Kernel {
    fn new() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1D_u64;
        Kernel {
            keys: vec![0; SORT_KEYS],
            cols: (0..ROWS * PER_ROW)
                .map(|_| (xorshift(&mut x) % ROWS as u64) as usize)
                .collect(),
            vals: (0..ROWS * PER_ROW)
                .map(|i| (i % 7) as f64 * 0.25 + 0.5)
                .collect(),
            y: vec![0.0; ROWS],
            prod: vec![0.0; ROWS],
            dense: vec![0.0; DENSE * DENSE],
        }
    }

    /// Runs the kernel once; returns its time in seconds.
    fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for k in &mut self.keys {
            *k = xorshift(&mut x);
        }
        self.keys.sort_unstable();
        let mut tree = BTreeMap::new();
        for (i, &k) in self.keys.iter().enumerate().step_by(4) {
            tree.insert(k.rotate_left(17), i);
        }
        let mut acc = 0usize;
        for &k in self.keys.iter().step_by(3) {
            acc = acc.wrapping_add(tree.range(k..).next().map_or(0, |(_, &i)| i));
        }

        self.y.fill(1.0);
        for _ in 0..3 {
            for (r, p) in self.prod.iter_mut().enumerate() {
                let row = r * PER_ROW..(r + 1) * PER_ROW;
                *p = self.vals[row.clone()]
                    .iter()
                    .zip(&self.cols[row])
                    .map(|(v, &c)| v * self.y[c])
                    .sum();
            }
            let norm = self.prod.iter().map(|a| a * a).sum::<f64>().sqrt();
            for (y, p) in self.y.iter_mut().zip(&self.prod) {
                *y = p / norm;
            }
        }
        let a = &mut self.dense;
        for (i, v) in a.iter_mut().enumerate() {
            *v = (i * 37 % 101) as f64 + if i % (DENSE + 1) == 0 { 500.0 } else { 0.0 };
        }
        for k in 0..DENSE {
            for i in k + 1..DENSE {
                let f = a[i * DENSE + k] / a[k * DENSE + k];
                for j in k..DENSE {
                    a[i * DENSE + j] -= f * a[k * DENSE + j];
                }
            }
        }
        std::hint::black_box((acc, self.y[7], a[DENSE * DENSE - 1]));
        t0.elapsed().as_secs_f64()
    }
}

/// Interleaves the calibration kernel with measured work and turns raw
/// seconds into reference-host seconds.
#[derive(Debug)]
pub struct Calibrator {
    kernel: Kernel,
    samples: Vec<f64>,
    since_last: f64,
}

impl Calibrator {
    /// A calibrator that has already timed the kernel a few times, so
    /// the first measured operation never runs uncalibrated.
    pub fn new() -> Self {
        let mut cal = Calibrator {
            kernel: Kernel::new(),
            samples: Vec::with_capacity(4_096),
            since_last: 0.0,
        };
        for _ in 0..3 {
            cal.sample();
        }
        cal
    }

    /// Times the kernel once.
    pub fn sample(&mut self) {
        let _s = cawo_obs::span("bench", "calibrate");
        self.samples.push(self.kernel.run());
        self.since_last = 0.0;
    }

    /// Accounts `secs` of measured work, timing the kernel once per
    /// `CAL_PERIOD_S` of it.
    pub fn after(&mut self, secs: f64) {
        self.since_last += secs;
        if self.since_last >= CAL_PERIOD_S {
            self.sample();
        }
    }

    /// Samples taken so far: a mark for [`Calibrator::mean_ms_since`]
    /// and [`Calibrator::scale`].
    pub fn mark(&self) -> usize {
        self.samples.len()
    }

    /// `secs` measured just before sample `mark` was due, in
    /// reference-host seconds: scaled by the kernel time of the two
    /// samples before and the two after.
    pub fn scale(&self, secs: f64, mark: usize) -> f64 {
        let n = self.samples.len();
        let lo = mark.saturating_sub(2).min(n.saturating_sub(1));
        let hi = (mark + 2).min(n).max(lo + 1);
        let around = &self.samples[lo..hi];
        secs * CAL_REF_MS * 1e-3 * around.len() as f64 / around.iter().sum::<f64>()
    }

    /// Mean raw kernel time, milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.mean_ms_since(0)
    }

    /// Mean raw kernel time of the samples since `mark`, milliseconds.
    pub fn mean_ms_since(&self, mark: usize) -> f64 {
        let s = &self.samples[mark.min(self.samples.len())..];
        1e3 * s.iter().sum::<f64>() / s.len().max(1) as f64
    }

    /// Factor turning raw seconds into reference-host seconds over the
    /// whole run.
    pub fn factor(&self) -> f64 {
        CAL_REF_MS / self.mean_ms()
    }
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Linearly interpolated percentile (`q` in `[0, 1]`) of unsorted
/// samples; 0 for no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable metric name (as listed in `BENCHMARK.json`).
    pub name: String,
    /// Unit label.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
}

impl Metric {
    /// A metric record.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// A finite JSON number with all its digits (`0` for non-finite).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `{"name": {"value": v, "unit": "u"}, …}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn metrics_render_as_json_object() {
        let m = [
            Metric::new("wall_s", "s", 1.25),
            Metric::new("n", "count", 3.0),
        ];
        let doc = serde_json::parse_value_str(&metrics_json(&m)).expect("valid JSON");
        let wall = doc.get("wall_s").expect("present");
        assert!(matches!(wall.get("value"), Some(serde_json::Value::Number(v)) if *v == 1.25));
    }
}
