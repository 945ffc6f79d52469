//! Stable content keys of cache queries.
//!
//! The solve cache is addressed by *content*, never by pointer or
//! insertion order: two `Instance`s built from the same workflow,
//! cluster and mapping key identically, whichever run built them.
//! A key is 128 bits from `cawo_core`'s seeded [`KeyHasher`]; every
//! cache entry additionally stores a *verify* signature computed over
//! the same content under independent seeds, so a (vanishingly
//! unlikely) primary-key collision is detected at lookup time instead
//! of serving a foreign result — see `SolveCache`.
//!
//! The instance part of a key is its memoised [`Instance::digest`]:
//! `Gc`'s nodes and edges, execution times, the node→unit map, every
//! unit's power figures and the platform's total idle power, absorbed
//! once per instance under each seed set. A query then absorbs the
//! primary digest into the primary hasher and the verify digest into
//! the verify hasher, followed by the profile's `J` intervals and the
//! query label, so building a key costs `O(J + label)`, not
//! `O(instance)`.

use cawo_core::{Instance, KeyHasher};
use cawo_platform::PowerProfile;

/// A 128-bit content key: the primary cache address plus the
/// independently-seeded verify signature that guards collisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContentKey {
    /// Primary 128-bit hash (the map key).
    pub key: u128,
    /// Same content absorbed under independent seeds; compared on every
    /// lookup before an entry may be served.
    pub verify: u64,
}

/// Absorbs a compiled profile: interval boundaries and budgets (the
/// deadline is `boundaries.last()`, so it is covered). This is the
/// *scenario/trace fingerprint* of the cache key — two differently
/// sourced traces that compile to the same step function are the same
/// query.
pub fn absorb_profile(h: &mut KeyHasher, profile: &PowerProfile) {
    let b = profile.boundaries();
    h.write_u64(b.len() as u64);
    for &t in b {
        h.write_u64(t);
    }
    for &g in profile.budgets() {
        h.write_u64(g);
    }
}

/// Fingerprint of an instance alone: its memoised primary digest.
pub fn instance_fingerprint(inst: &Instance) -> u128 {
    inst.digest().primary
}

/// Builds the full content key of one query.
///
/// `query` labels what is being asked — solver or variant name, engine,
/// budget — while instance and profile pin what it is asked *about*.
/// The primary key starts from the instance's primary digest and the
/// verify signature from its verify digest; both then absorb the same
/// profile and label.
pub fn query_key(inst: &Instance, profile: Option<&PowerProfile>, query: &[&str]) -> ContentKey {
    let absorb = |h: &mut KeyHasher| {
        match profile {
            Some(p) => {
                h.write_u64(1);
                absorb_profile(h, p);
            }
            None => h.write_u64(0),
        }
        h.write_u64(query.len() as u64);
        for part in query {
            h.write_bytes(part.as_bytes());
        }
    };
    let digest = inst.digest();
    let mut primary = KeyHasher::new();
    primary.write_u128(digest.primary);
    absorb(&mut primary);
    let mut verify = KeyHasher::verify();
    verify.write_u64(digest.verify);
    absorb(&mut verify);
    ContentKey {
        key: primary.finish128(),
        verify: verify.finish64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_absorption_tracks_content() {
        let fp = |p: &PowerProfile| {
            let mut h = KeyHasher::new();
            absorb_profile(&mut h, p);
            h.finish128()
        };
        let a = PowerProfile::from_parts(vec![0, 4, 8], vec![10, 6]);
        let b = PowerProfile::from_parts(vec![0, 4, 8], vec![10, 6]);
        let c = PowerProfile::from_parts(vec![0, 4, 8], vec![10, 7]);
        let d = PowerProfile::from_parts(vec![0, 5, 8], vec![10, 6]);
        assert_eq!(fp(&a), fp(&b));
        assert_ne!(fp(&a), fp(&c));
        assert_ne!(fp(&a), fp(&d));
    }
}
