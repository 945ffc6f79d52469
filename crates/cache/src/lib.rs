//! Warm-path serving layer for CaWoSched (the substrate of the
//! ROADMAP's `cawod` daemon): repeated and near-repeated queries in
//! far less than a cold solve.
//!
//! * [`key`] — stable 128-bit content keys over an instance's memoised
//!   digest, the profile and the query label, with an
//!   independently-seeded verify signature guarding against hash
//!   collisions,
//! * [`store`] — the [`SolveCache`]: exact-key hits, warm-state
//!   re-solves (cached incumbent + root LP basis through
//!   [`cawo_exact::WarmStart`]) and incremental trace-tail re-answers
//!   ([`cawo_core::reanswer_cost`]).

pub mod key;
pub mod store;

pub use key::{instance_fingerprint, query_key, ContentKey};
pub use store::{CacheOutcome, CacheStats, EvalAnswer, SolveCache};
