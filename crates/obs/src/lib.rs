//! Structured observability for the cawosched stack.
//!
//! Three primitives, all recorded into **per-thread sinks** so
//! `cawo_par` workers never contend with each other:
//!
//! * **Counters** ([`Ctr`], [`add`], [`inc`]) — a fixed registry of
//!   monotone `u64` counters (LP pivots, B&B nodes, cache
//!   temperatures, engine pricing calls). Each thread owns a private
//!   cache line of relaxed atomics; bumping is lock-free and
//!   uncontended, and [`drain`] sums across threads.
//! * **Spans** ([`span`], [`span_with`]) — RAII-timed regions.
//!   Durations aggregate into per-thread log₂-bucket histograms
//!   ([`LogHistogram`]) keyed by `(category, name)`; at
//!   [`Level::Trace`] every span additionally records begin/end
//!   events with microsecond timestamps.
//! * **Events** ([`sample`], [`instant`]) — timestamped points for
//!   series that a summary cannot express, e.g. the dual-bound-vs-
//!   wall-time convergence of a budget-capped MILP.
//!
//! # Enablement and overhead
//!
//! Everything is guarded by a process-wide [`Level`] read with a
//! single relaxed atomic load. At [`Level::Off`] (the default) every
//! entry point returns after that load — no timestamp is taken, no
//! thread-local is touched — so instrumented hot paths run within
//! noise of uninstrumented ones (the `obs` bench section asserts the
//! enabled-summary/disabled ratio stays under 1.05× on the 100-task
//! LP model; see `docs/OBSERVABILITY.md` for the full contract).
//! [`Level::Summary`] activates counters and span histograms;
//! [`Level::Trace`] additionally records the event timeline.
//!
//! # Draining
//!
//! [`drain`] snapshots **and resets** all per-thread sinks. Call it at
//! pool quiescence — after `run_grid`/`solve` returned and no
//! `cawo_par` worker is mid-task — because counters are summed with
//! relaxed loads and a worker still bumping mid-drain would leave its
//! tail in the next snapshot rather than this one. Nothing tears or
//! corrupts; the cut between snapshots is simply only well-defined
//! when the pool is idle.
//!
//! ```
//! cawo_obs::set_level(cawo_obs::Level::Summary);
//! cawo_obs::inc(cawo_obs::Ctr::BnbNodes);
//! {
//!     let _s = cawo_obs::span("demo", "work");
//! }
//! let snap = cawo_obs::drain();
//! assert_eq!(snap.counter(cawo_obs::Ctr::BnbNodes), 1);
//! assert_eq!(snap.spans[0].count, 1);
//! cawo_obs::set_level(cawo_obs::Level::Off);
//! ```

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

mod export;

pub use export::{summary_table, write_jsonl, SCHEMA_VERSION};

// ---------------------------------------------------------------------
// Level
// ---------------------------------------------------------------------

/// How much the process records. Stored in one global atomic; every
/// recording entry point starts with a relaxed load of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Level {
    /// Record nothing (the default). Entry points return after one
    /// atomic load.
    #[default]
    Off = 0,
    /// Counters and span histograms only — cheap enough for hot paths.
    Summary = 1,
    /// Everything in `Summary` plus the timestamped event timeline
    /// (span begin/end, samples, instants).
    Trace = 2,
}

impl Level {
    /// Stable lowercase label (`"off"` / `"summary"` / `"trace"`).
    pub fn name(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Summary => "summary",
            Level::Trace => "trace",
        }
    }

    /// Parses a label (inverse of [`Level::name`], ASCII
    /// case-insensitive). This is the shared parser behind both the
    /// `CAWO_LOG` environment variable and every `--log-level` flag.
    pub fn parse(s: &str) -> Option<Level> {
        [Level::Off, Level::Summary, Level::Trace]
            .into_iter()
            .find(|l| l.name().eq_ignore_ascii_case(s))
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

static LEVEL: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide recording level.
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current recording level.
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        1 => Level::Summary,
        2 => Level::Trace,
        _ => Level::Off,
    }
}

/// True at [`Level::Summary`] or above (counters and spans active).
#[inline]
pub fn enabled() -> bool {
    LEVEL.load(Ordering::Relaxed) != 0
}

/// True at [`Level::Trace`] (the event timeline is being recorded).
#[inline]
pub fn trace_enabled() -> bool {
    LEVEL.load(Ordering::Relaxed) == 2
}

/// Resolves the level from an optional CLI flag value and the
/// `CAWO_LOG` environment variable (flag wins), sets it, and returns
/// it. An unparseable value is an error naming the accepted labels —
/// CLIs surface it verbatim.
pub fn init(cli_flag: Option<&str>) -> Result<Level, String> {
    let from = |src: &str, v: &str| {
        Level::parse(v).ok_or_else(|| format!("bad {src} `{v}` (expected off|summary|trace)"))
    };
    let lvl = match cli_flag {
        Some(v) => from("--log-level", v)?,
        None => match std::env::var("CAWO_LOG") {
            Ok(v) if !v.is_empty() => from("CAWO_LOG", &v)?,
            _ => Level::Off,
        },
    };
    set_level(lvl);
    Ok(lvl)
}

/// Prints a warning to stderr (prefixed `cawo: warning:`) and bumps
/// [`Ctr::Warnings`]. Warnings are *not* gated by the level: they
/// signal conditions (a cache verify-signature rejection, a bad env
/// value) that the operator should see even with observability off.
#[expect(
    clippy::print_stderr,
    reason = "this IS the workspace's one sanctioned stderr sink; every other crate routes warnings here."
)]
pub fn warn(msg: &str) {
    eprintln!("cawo: warning: {msg}");
    // Counter bumps are level-gated; warnings must count regardless so
    // a later `drain` at any level can still report how many fired.
    with_slot(|slot| {
        slot.counters[Ctr::Warnings as usize].fetch_add(1, Ordering::Relaxed);
    });
}

// ---------------------------------------------------------------------
// Time
// ---------------------------------------------------------------------

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds since the process-wide observability epoch (the first
/// call into this module). All event timestamps share this clock.
#[expect(clippy::disallowed_methods, reason = "the one clock all traces share")]
pub fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

// ---------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------

/// The fixed counter registry. One entry per monotone quantity the
/// stack reports; names are dotted `layer.quantity` strings, stable
/// for the JSONL schema (`docs/OBSERVABILITY.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Ctr {
    /// Primal phase-1 simplex pivots (`cawo_lp`).
    LpPivotsPhase1,
    /// Primal phase-2 simplex pivots.
    LpPivotsPhase2,
    /// Dual-simplex repair pivots.
    LpPivotsDual,
    /// Nonbasic bound flips (primal long steps + dual BFRT).
    LpBoundFlips,
    /// Basis refactorisations.
    LpRefactors,
    /// Devex reference-framework resets.
    LpDevexResets,
    /// Completed `SimplexSolver::solve` calls.
    LpSolves,
    /// Branch-and-bound nodes explored (`cawo_exact::bnb`).
    BnbNodes,
    /// B&B incumbent improvements.
    BnbIncumbents,
    /// B&B branches pruned by the lower bound.
    BnbPruned,
    /// Sparse MILP branch-and-bound nodes (`cawo_exact::milp`).
    MilpNodes,
    /// MILP incumbent improvements (rounding hits + integral nodes).
    MilpIncumbents,
    /// MILP nodes pruned against the incumbent.
    MilpPruned,
    /// Root cutting-plane rounds executed.
    CutRounds,
    /// Disaggregated precedence cuts appended.
    CutsPrecedence,
    /// Lifted cover cuts appended.
    CutsCover,
    /// MIR cuts appended.
    CutsMir,
    /// `place_delta` pricing calls answered by `DenseGrid`.
    EnginePriceDense,
    /// `place_delta` pricing calls answered by `IntervalEngine`, plus
    /// one per `shift_scan` window sweep (not one per candidate; a
    /// local-search visit skipped as clean makes none).
    EnginePriceInterval,
    /// `place_delta` pricing calls answered by `FenwickEngine`.
    EnginePriceFenwick,
    /// EST raises plus LST drops the greedy's `Bounds::fix` propagated
    /// (`cawo_core::greedy`), added once per greedy run.
    GreedyBoundUpdates,
    /// Exact-key cache hits (`cawo_cache`).
    CacheHit,
    /// Warm-state re-solves / incremental re-answers.
    CacheWarm,
    /// Cold solves through the cache.
    CacheCold,
    /// Verify-signature rejections (collision guard).
    CacheRejected,
    /// Grid rows completed (`cawo_sim::run_grid`).
    GridRows,
    /// Warnings emitted through [`warn`].
    Warnings,
}

impl Ctr {
    /// Every counter, in declaration order.
    pub const ALL: [Ctr; 27] = [
        Ctr::LpPivotsPhase1,
        Ctr::LpPivotsPhase2,
        Ctr::LpPivotsDual,
        Ctr::LpBoundFlips,
        Ctr::LpRefactors,
        Ctr::LpDevexResets,
        Ctr::LpSolves,
        Ctr::BnbNodes,
        Ctr::BnbIncumbents,
        Ctr::BnbPruned,
        Ctr::MilpNodes,
        Ctr::MilpIncumbents,
        Ctr::MilpPruned,
        Ctr::CutRounds,
        Ctr::CutsPrecedence,
        Ctr::CutsCover,
        Ctr::CutsMir,
        Ctr::EnginePriceDense,
        Ctr::EnginePriceInterval,
        Ctr::EnginePriceFenwick,
        Ctr::GreedyBoundUpdates,
        Ctr::CacheHit,
        Ctr::CacheWarm,
        Ctr::CacheCold,
        Ctr::CacheRejected,
        Ctr::GridRows,
        Ctr::Warnings,
    ];

    /// Number of counters (size of each thread's slot array).
    pub const COUNT: usize = Ctr::ALL.len();

    /// Stable dotted name for exports.
    pub fn name(self) -> &'static str {
        match self {
            Ctr::LpPivotsPhase1 => "lp.pivots.phase1",
            Ctr::LpPivotsPhase2 => "lp.pivots.phase2",
            Ctr::LpPivotsDual => "lp.pivots.dual",
            Ctr::LpBoundFlips => "lp.bound_flips",
            Ctr::LpRefactors => "lp.refactors",
            Ctr::LpDevexResets => "lp.devex_resets",
            Ctr::LpSolves => "lp.solves",
            Ctr::BnbNodes => "bnb.nodes",
            Ctr::BnbIncumbents => "bnb.incumbents",
            Ctr::BnbPruned => "bnb.pruned",
            Ctr::MilpNodes => "milp.nodes",
            Ctr::MilpIncumbents => "milp.incumbents",
            Ctr::MilpPruned => "milp.pruned",
            Ctr::CutRounds => "cuts.rounds",
            Ctr::CutsPrecedence => "cuts.precedence",
            Ctr::CutsCover => "cuts.cover",
            Ctr::CutsMir => "cuts.mir",
            Ctr::EnginePriceDense => "engine.price.dense",
            Ctr::EnginePriceInterval => "engine.price.interval",
            Ctr::EnginePriceFenwick => "engine.price.fenwick",
            Ctr::GreedyBoundUpdates => "greedy.bound_updates",
            Ctr::CacheHit => "cache.hit",
            Ctr::CacheWarm => "cache.warm",
            Ctr::CacheCold => "cache.cold",
            Ctr::CacheRejected => "cache.rejected",
            Ctr::GridRows => "grid.rows",
            Ctr::Warnings => "warnings",
        }
    }
}

/// Adds `n` to a counter. No-op at [`Level::Off`] (one atomic load).
#[inline]
pub fn add(c: Ctr, n: u64) {
    if !enabled() || n == 0 {
        return;
    }
    with_slot(|slot| {
        slot.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    });
}

/// Adds 1 to a counter. No-op at [`Level::Off`].
#[inline]
pub fn inc(c: Ctr) {
    add(c, 1);
}

// ---------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------

/// Number of log₂ buckets: bucket `i` holds values `v` with
/// `floor(log2(v)) == i - 1` (bucket 0 holds `v == 0`), so bucket 40
/// tops out above 2³⁹ µs ≈ 6.4 days.
pub const HIST_BUCKETS: usize = 41;

/// A log₂-bucketed histogram of `u64` samples (span durations in µs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    /// Bucket counts; see [`HIST_BUCKETS`] for the bucket law.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl LogHistogram {
    /// The bucket index a value lands in: `0` for `v == 0`, otherwise
    /// `floor(log2(v)) + 1`, saturating at the last bucket.
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Lower edge of bucket `i` (the smallest value that lands there).
    pub fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Lower edge of the bucket containing the `q`-quantile sample
    /// (`0.0 ≤ q ≤ 1.0`), or 0 on an empty histogram — a log-scale
    /// approximation, exact to within one power of two.
    pub fn quantile_floor(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_floor(i);
            }
        }
        Self::bucket_floor(HIST_BUCKETS - 1)
    }

    fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

/// Aggregated statistics of one span key `(cat, name)`.
#[derive(Debug, Clone)]
pub struct SpanAgg {
    /// Span category (layer: `"lp"`, `"solve"`, `"grid"`, …).
    pub cat: &'static str,
    /// Span name within the category.
    pub name: &'static str,
    /// Completed spans.
    pub count: u64,
    /// Summed duration, microseconds.
    pub total_us: u64,
    /// Maximum single duration, microseconds.
    pub max_us: u64,
    /// Log₂ histogram of durations (µs).
    pub hist: LogHistogram,
}

impl SpanAgg {
    fn new(cat: &'static str, name: &'static str) -> Self {
        SpanAgg {
            cat,
            name,
            count: 0,
            total_us: 0,
            max_us: 0,
            hist: LogHistogram::default(),
        }
    }

    fn record(&mut self, us: u64) {
        self.count += 1;
        self.total_us += us;
        self.max_us = self.max_us.max(us);
        self.hist.record(us);
    }
}

// ---------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------

/// Kind of one trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span begin.
    Begin,
    /// Span end.
    End,
    /// A point event.
    Instant,
    /// A numeric series sample (rendered as a counter track in Chrome).
    Sample,
}

impl Phase {
    /// One-letter code used by the JSONL schema (`B`/`E`/`I`/`S`).
    pub fn code(self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
            Phase::Instant => "I",
            Phase::Sample => "S",
        }
    }
}

/// One timeline event (recorded only at [`Level::Trace`]).
#[derive(Debug, Clone)]
pub struct Event {
    /// Microseconds since the observability epoch ([`now_us`]).
    pub t_us: u64,
    /// Stable per-thread id (assigned on first record).
    pub tid: u64,
    /// Event kind.
    pub ph: Phase,
    /// Category.
    pub cat: &'static str,
    /// Name.
    pub name: &'static str,
    /// Numeric arguments (empty for plain begin/end).
    pub args: Vec<(&'static str, f64)>,
}

// ---------------------------------------------------------------------
// Per-thread sinks
// ---------------------------------------------------------------------

struct ThreadSlot {
    tid: u64,
    counters: [AtomicU64; Ctr::COUNT],
    spans: Mutex<Vec<SpanAgg>>,
    events: Mutex<Vec<Event>>,
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadSlot>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadSlot>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static SLOT: Arc<ThreadSlot> = {
        let slot = Arc::new(ThreadSlot {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            spans: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
        });
        registry().lock().expect("lock poisoned").push(Arc::clone(&slot));
        slot
    };
}

/// Runs `f` with this thread's slot. Only the owning thread ever
/// *writes* through its slot (counters with relaxed stores, spans and
/// events under the slot's own mutex, contended only by [`drain`]), so
/// the hot path never waits on another worker.
fn with_slot<R>(f: impl FnOnce(&ThreadSlot) -> R) -> R {
    SLOT.with(|s| f(s))
}

fn push_event(ph: Phase, cat: &'static str, name: &'static str, args: Vec<(&'static str, f64)>) {
    let t_us = now_us();
    with_slot(|slot| {
        slot.events.lock().expect("lock poisoned").push(Event {
            t_us,
            tid: slot.tid,
            ph,
            cat,
            name,
            args,
        });
    });
}

// ---------------------------------------------------------------------
// Spans and point events
// ---------------------------------------------------------------------

/// RAII guard of one timed region; see [`span`].
#[must_use = "a span measures the scope it is bound to; bind it to a variable"]
pub struct Span {
    // None = observability was off when the span opened.
    open: Option<(u64, &'static str, &'static str, bool)>,
}

/// Opens a timed span. At [`Level::Summary`] the duration aggregates
/// into the `(cat, name)` histogram when the guard drops; at
/// [`Level::Trace`] begin/end events are recorded too. At
/// [`Level::Off`] this is one atomic load.
pub fn span(cat: &'static str, name: &'static str) -> Span {
    span_with(cat, name, &[])
}

/// Like [`span`], attaching numeric arguments to the begin event
/// (trace level only; the summary aggregation ignores them).
pub fn span_with(cat: &'static str, name: &'static str, args: &[(&'static str, f64)]) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    let tracing = trace_enabled();
    if tracing {
        push_event(Phase::Begin, cat, name, args.to_vec());
    }
    Span {
        open: Some((now_us(), cat, name, tracing)),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((t0, cat, name, tracing)) = self.open else {
            return;
        };
        let us = now_us().saturating_sub(t0);
        with_slot(|slot| {
            let mut spans = slot.spans.lock().expect("lock poisoned");
            match spans.iter_mut().find(|a| {
                std::ptr::eq(a.cat.as_ptr(), cat.as_ptr())
                    && std::ptr::eq(a.name.as_ptr(), name.as_ptr())
            }) {
                Some(agg) => agg.record(us),
                None => {
                    let mut agg = SpanAgg::new(cat, name);
                    agg.record(us);
                    spans.push(agg);
                }
            }
        });
        // The end event respects the level *at open time* so a level
        // flip mid-span cannot record an unbalanced end.
        if tracing {
            push_event(Phase::End, cat, name, Vec::new());
        }
    }
}

/// Records one sample of a named numeric series (trace level only) —
/// e.g. the LP dual bound against wall time.
#[inline]
pub fn sample(cat: &'static str, name: &'static str, value: f64) {
    if !trace_enabled() {
        return;
    }
    push_event(Phase::Sample, cat, name, vec![("value", value)]);
}

/// Records a point event with arguments (trace level only).
#[inline]
pub fn instant(cat: &'static str, name: &'static str, args: &[(&'static str, f64)]) {
    if !trace_enabled() {
        return;
    }
    push_event(Phase::Instant, cat, name, args.to_vec());
}

// ---------------------------------------------------------------------
// Drain
// ---------------------------------------------------------------------

/// A drained snapshot: merged counters, merged span aggregates, and
/// the (time-sorted) event timeline.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter totals summed across threads, [`Ctr::ALL`] order.
    pub counters: Vec<(Ctr, u64)>,
    /// Span aggregates merged across threads, sorted by (cat, name).
    pub spans: Vec<SpanAgg>,
    /// Events from all threads, sorted by timestamp.
    pub events: Vec<Event>,
}

impl Snapshot {
    /// Total of one counter.
    pub fn counter(&self, c: Ctr) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == c)
            .map_or(0, |&(_, v)| v)
    }

    /// The span aggregate for `(cat, name)`, if any span closed.
    pub fn span(&self, cat: &str, name: &str) -> Option<&SpanAgg> {
        self.spans.iter().find(|a| a.cat == cat && a.name == name)
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&(_, v)| v == 0)
            && self.spans.is_empty()
            && self.events.is_empty()
    }
}

/// Snapshots and resets every per-thread sink. Call at pool
/// quiescence (see the module docs); the snapshot then contains
/// exactly what was recorded since the previous drain.
pub fn drain() -> Snapshot {
    let mut totals = [0u64; Ctr::COUNT];
    let mut spans: Vec<SpanAgg> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    for slot in registry().lock().expect("lock poisoned").iter() {
        for (i, c) in slot.counters.iter().enumerate() {
            // Owner-only writes: a swap(0) both reads and resets.
            totals[i] += c.swap(0, Ordering::Relaxed);
        }
        for agg in std::mem::take(&mut *slot.spans.lock().expect("lock poisoned")) {
            match spans
                .iter_mut()
                .find(|a| a.cat == agg.cat && a.name == agg.name)
            {
                Some(into) => {
                    into.count += agg.count;
                    into.total_us += agg.total_us;
                    into.max_us = into.max_us.max(agg.max_us);
                    into.hist.merge(&agg.hist);
                }
                None => spans.push(agg),
            }
        }
        events.append(&mut slot.events.lock().expect("lock poisoned"));
    }
    spans.sort_by(|a, b| (a.cat, a.name).cmp(&(b.cat, b.name)));
    events.sort_by_key(|e| (e.t_us, e.tid));
    Snapshot {
        counters: Ctr::ALL.iter().map(|&c| (c, totals[c as usize])).collect(),
        spans,
        events,
    }
}

// ---------------------------------------------------------------------
// Host metadata
// ---------------------------------------------------------------------

/// Host metadata recorded into bench headers and JSONL meta lines:
/// core count, the `CAWO_THREADS` override (if any), the toolchain and
/// the OS. Makes committed artifacts self-explaining — a "≈1.0
/// speedup" ladder measured on a single-core CI host says so itself.
pub fn host_meta_json() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads = match std::env::var("CAWO_THREADS") {
        Ok(v) if !v.is_empty() => format!("\"{}\"", v.escape_default()),
        _ => "null".to_string(),
    };
    let toolchain = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .or_else(|| std::env::var("RUSTUP_TOOLCHAIN").ok())
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"cores\": {cores}, \"cawo_threads\": {threads}, \"toolchain\": \"{}\", \"os\": \"{}\"}}",
        toolchain.escape_default(),
        std::env::consts::OS,
    )
}
