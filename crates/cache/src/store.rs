//! The content-addressed solve cache.
//!
//! Three temperatures, checked in order:
//!
//! * **Hit** — the full key (instance ⊕ profile ⊕ query) is present:
//!   the stored answer is returned as-is. For solver queries that is
//!   the complete [`SolveResult`] (schedule, cost, bound, stats); for
//!   evaluation queries the variant's schedule and cost. A hit builds
//!   its key from the instance's memoised digest, the profile and the
//!   label (`O(J + label)`, see [`crate::key`]), probes the map and
//!   clones the entry: an evaluation hit clones two `Arc`s, a solver
//!   hit the whole result. `BENCH_warm.json` times an evaluation hit
//!   at well under a microsecond and a solver hit at a few, against a
//!   sub-millisecond cold evaluation and a multi-millisecond cold
//!   `milp` solve on the 100-task models.
//! * **Warm** — the *profile-independent* key matches a previous
//!   answer for the same instance and query, but the profile changed
//!   (new deadline, shifted trace tail). Solver queries re-solve
//!   seeded with the cached schedule and root basis
//!   ([`cawo_exact::WarmStart`]); evaluation queries are re-answered
//!   incrementally over the changed suffix via
//!   [`cawo_core::reanswer_cost`] when the cached schedule still fits
//!   the new horizon.
//! * **Cold** — nothing matches; solve from scratch and populate both
//!   maps.
//!
//! **Collision guard.** The primary key is a 128-bit content hash;
//! every entry also stores a second hash of the same content under
//! independent seeds ([`crate::key::ContentKey::verify`]). A lookup
//! whose primary key matches but whose verify signature does not is
//! treated as a miss (and counted in [`CacheStats::rejected`]), so two
//! colliding queries can cost a redundant solve but can never leak an
//! answer across keys.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cawo_core::{
    carbon_cost, reanswer_cost, Cost, EngineKind, Instance, RunParams, Schedule, Variant,
};
use cawo_exact::{Budget, SolveError, SolveResult, SolverKind, WarmStart};
use cawo_lp::Basis;
use cawo_platform::PowerProfile;

use crate::key::{query_key, ContentKey};

/// Where an answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheOutcome {
    /// Computed from scratch (and now cached).
    #[default]
    Cold,
    /// Served straight from the cache (exact key match).
    Hit,
    /// Recomputed from cached warm state (solver) or incrementally
    /// re-answered over the changed trace suffix (evaluation).
    Warm,
}

impl CacheOutcome {
    /// Stable lowercase label for CSV columns and reports.
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::Cold => "cold",
            CacheOutcome::Hit => "hit",
            CacheOutcome::Warm => "warm",
        }
    }
}

impl std::fmt::Display for CacheOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Monotonic cache counters (a snapshot; see [`SolveCache::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Exact-key hits served without any solving.
    pub hits: u64,
    /// Warm-state re-solves / incremental re-answers.
    pub warm: u64,
    /// Cold solves (first sight of the query).
    pub cold: u64,
    /// Lookups rejected by the verify signature (hash collisions or
    /// corrupted entries) — served cold instead of cross-key.
    pub rejected: u64,
}

/// A cached full solver answer.
#[derive(Debug, Clone)]
struct SolveEntry {
    verify: u64,
    result: SolveResult,
}

/// Warm seed kept per (instance, query) across profiles: the last
/// schedule plus the root basis a re-solve may start from.
#[derive(Debug, Clone)]
struct WarmSeed {
    verify: u64,
    schedule: Schedule,
    basis: Option<Basis>,
}

/// A cached evaluation: the variant's schedule and cost under the
/// profile it was computed for (kept for suffix re-pricing).
#[derive(Debug, Clone)]
struct EvalEntry {
    verify: u64,
    schedule: Arc<Schedule>,
    cost: Cost,
    profile: Arc<PowerProfile>,
}

/// Answer of a cached evaluation query.
#[derive(Debug, Clone)]
pub struct EvalAnswer {
    /// The evaluated schedule (shared with the cache).
    pub schedule: Arc<Schedule>,
    /// Its carbon cost under the queried profile.
    pub cost: Cost,
}

/// The warm-path solve cache. Thread-safe and shareable (`Arc`) across
/// grid workers; all methods take `&self`.
#[derive(Debug, Default)]
pub struct SolveCache {
    solves: Mutex<HashMap<u128, SolveEntry>>,
    warm_seeds: Mutex<HashMap<u128, WarmSeed>>,
    evals: Mutex<HashMap<u128, EvalEntry>>,
    eval_seeds: Mutex<HashMap<u128, EvalEntry>>,
    hits: AtomicU64,
    warm: AtomicU64,
    cold: AtomicU64,
    rejected: AtomicU64,
}

impl SolveCache {
    /// An empty cache.
    pub fn new() -> Self {
        SolveCache::default()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            warm: self.warm.load(Ordering::Relaxed),
            cold: self.cold.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct full-key entries (solver + evaluation).
    pub fn len(&self) -> usize {
        self.solves.lock().expect("lock poisoned").len()
            + self.evals.lock().expect("lock poisoned").len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flips the verify signature of every cached entry, making each
    /// subsequent lookup behave exactly like a primary-key collision.
    /// Test hook for the collision guard; not part of the serving API.
    #[doc(hidden)]
    #[expect(
        clippy::iter_over_hash_type,
        clippy::disallowed_methods,
        reason = "flips every entry; the visiting order cannot change the result"
    )]
    pub fn corrupt_verify_for_tests(&self) {
        for e in self.solves.lock().expect("lock poisoned").values_mut() {
            e.verify ^= 1;
        }
        for e in self.warm_seeds.lock().expect("lock poisoned").values_mut() {
            e.verify ^= 1;
        }
        for e in self.evals.lock().expect("lock poisoned").values_mut() {
            e.verify ^= 1;
        }
        for e in self.eval_seeds.lock().expect("lock poisoned").values_mut() {
            e.verify ^= 1;
        }
    }

    /// Verified lookup: an entry whose verify signature disagrees with
    /// the recomputed one is a collision, never served.
    fn verified<T: Clone>(
        &self,
        map: &Mutex<HashMap<u128, T>>,
        key: ContentKey,
        verify_of: impl Fn(&T) -> u64,
    ) -> Option<T> {
        let map = map.lock().expect("lock poisoned");
        let entry = map.get(&key.key)?;
        if verify_of(entry) != key.verify {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            cawo_obs::inc(cawo_obs::Ctr::CacheRejected);
            cawo_obs::warn(
                "solve cache verify-signature mismatch — entry treated as a \
                 collision and ignored (results stay correct; hit rate drops)",
            );
            return None;
        }
        Some(entry.clone())
    }

    /// Runs (or serves) one exact-solver query through the cache.
    ///
    /// Same contract as [`SolverKind::solve_with`] on `engine`: a miss
    /// runs the method seeded with the warm state cached for the same
    /// instance and query under another profile, or cold when there is
    /// none. The second tuple field reports where the answer came from.
    /// Errors are returned verbatim and never cached.
    pub fn solve(
        &self,
        kind: SolverKind,
        engine: EngineKind,
        inst: &Instance,
        profile: &PowerProfile,
        budget: Budget,
    ) -> Result<(SolveResult, CacheOutcome), SolveError> {
        // `None` gets its own tag and limits are written in whole
        // nanoseconds, so no time budget aliases "no time limit".
        let budget_tag = match budget.time_limit {
            None => format!("{}/none", budget.node_limit),
            Some(d) => format!("{}/{}ns", budget.node_limit, d.as_nanos()),
        };
        let query = ["solve", kind.name(), engine.name(), &budget_tag];
        let full = query_key(inst, Some(profile), &query);
        if let Some(entry) = self.verified(&self.solves, full, |e: &SolveEntry| e.verify) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            cawo_obs::inc(cawo_obs::Ctr::CacheHit);
            return Ok((entry.result, CacheOutcome::Hit));
        }

        // Near-query: same instance and query, different profile.
        let seed_key = query_key(inst, None, &query);
        let warm = self
            .verified(&self.warm_seeds, seed_key, |e: &WarmSeed| e.verify)
            .map(|seed| WarmStart {
                incumbent: Some(seed.schedule),
                basis: seed.basis,
            });

        let (result, outcome) = match warm {
            Some(warm) if !warm.is_empty() => {
                let res = kind.solve_with(engine, inst, profile, budget, &warm)?;
                self.warm.fetch_add(1, Ordering::Relaxed);
                cawo_obs::inc(cawo_obs::Ctr::CacheWarm);
                (res, CacheOutcome::Warm)
            }
            _ => {
                let res = kind.solve_with(engine, inst, profile, budget, &WarmStart::default())?;
                self.cold.fetch_add(1, Ordering::Relaxed);
                cawo_obs::inc(cawo_obs::Ctr::CacheCold);
                (res, CacheOutcome::Cold)
            }
        };

        self.solves.lock().expect("lock poisoned").insert(
            full.key,
            SolveEntry {
                verify: full.verify,
                result: result.clone(),
            },
        );
        self.warm_seeds.lock().expect("lock poisoned").insert(
            seed_key.key,
            WarmSeed {
                verify: seed_key.verify,
                schedule: result.schedule.clone(),
                basis: result.basis.clone(),
            },
        );
        Ok((result, outcome))
    }

    /// Runs (or serves) one heuristic-variant evaluation through the
    /// cache.
    ///
    /// * An exact-key hit returns the cached run bit-identically.
    /// * A profile change re-answers the *cached schedule* over the
    ///   changed trace suffix ([`cawo_core::reanswer_cost`]) when it
    ///   still fits the new horizon — the serving semantics of a
    ///   rolling-forecast daemon ("what does the plan cost now?").
    ///   Warm answers are not promoted into the exact-key map, since a
    ///   cold variant run under the new profile may choose a different
    ///   schedule.
    /// * Otherwise the variant runs cold and both maps are populated.
    pub fn evaluate(
        &self,
        variant: Variant,
        engine: EngineKind,
        inst: &Instance,
        profile: &PowerProfile,
    ) -> (EvalAnswer, CacheOutcome) {
        let query = ["eval", variant.name(), engine.name()];
        let full = query_key(inst, Some(profile), &query);
        if let Some(entry) = self.verified(&self.evals, full, |e: &EvalEntry| e.verify) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            cawo_obs::inc(cawo_obs::Ctr::CacheHit);
            return (
                EvalAnswer {
                    schedule: entry.schedule,
                    cost: entry.cost,
                },
                CacheOutcome::Hit,
            );
        }

        let seed_key = query_key(inst, None, &query);
        if let Some(seed) = self.verified(&self.eval_seeds, seed_key, |e: &EvalEntry| e.verify) {
            if let Some(cost) =
                reanswer_cost(inst, &seed.schedule, &seed.profile, seed.cost, profile)
            {
                self.warm.fetch_add(1, Ordering::Relaxed);
                cawo_obs::inc(cawo_obs::Ctr::CacheWarm);
                return (
                    EvalAnswer {
                        schedule: Arc::clone(&seed.schedule),
                        cost,
                    },
                    CacheOutcome::Warm,
                );
            }
        }

        let params = RunParams {
            engine,
            ..RunParams::default()
        };
        let schedule = Arc::new(variant.run_with(inst, profile, params));
        let cost = carbon_cost(inst, &schedule, profile);
        self.cold.fetch_add(1, Ordering::Relaxed);
        cawo_obs::inc(cawo_obs::Ctr::CacheCold);
        let entry = EvalEntry {
            verify: full.verify,
            schedule: Arc::clone(&schedule),
            cost,
            profile: Arc::new(profile.clone()),
        };
        self.evals
            .lock()
            .expect("lock poisoned")
            .insert(full.key, entry);
        self.eval_seeds.lock().expect("lock poisoned").insert(
            seed_key.key,
            EvalEntry {
                verify: seed_key.verify,
                schedule: Arc::clone(&schedule),
                cost,
                profile: Arc::new(profile.clone()),
            },
        );
        (EvalAnswer { schedule, cost }, CacheOutcome::Cold)
    }
}
