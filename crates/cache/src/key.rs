//! Stable content hashing for cache keys.
//!
//! The solve cache is addressed by *content*, never by pointer or
//! insertion order: two `Instance`s built from the same workflow,
//! cluster and mapping hash identically, whichever session built them.
//! Keys are 128 bits from a seeded mixer ([`KeyHasher`]); every cache
//! entry additionally stores a *verify* signature computed by the same
//! absorption under independent seeds, so a (vanishingly unlikely)
//! primary-key collision is detected at lookup time instead of serving
//! a foreign result — see `SolveCache`.
//!
//! `std::hash::Hash` is deliberately not used: its output is
//! unspecified across Rust versions and randomised per process for the
//! default hasher, while these keys must be stable enough to compare
//! across runs (and, eventually, to persist under the `cawod` daemon).

use cawo_core::Instance;
use cawo_graph::NodeId;
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

/// Incremental 128-bit mixer (two 64-bit lanes with distinct odd
/// multipliers, splitmix-style finalisation). Not cryptographic — the
/// verify signature plus structural checks guard the cache against the
/// residual collision risk.
#[derive(Debug, Clone, Copy)]
pub struct KeyHasher {
    a: u64,
    b: u64,
}

const MUL_A: u64 = 0x9e37_79b9_7f4a_7c15;
const MUL_B: u64 = 0xc2b2_ae3d_27d4_eb4f;

fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl KeyHasher {
    /// A hasher over the given seed pair. Distinct seeds give
    /// statistically independent hash functions over the same content.
    pub fn seeded(seed_a: u64, seed_b: u64) -> Self {
        KeyHasher {
            a: mix(seed_a ^ MUL_A),
            b: mix(seed_b ^ MUL_B),
        }
    }

    /// The default (primary-key) seeds.
    pub fn new() -> Self {
        KeyHasher::seeded(0x5ca1_ab1e, 0xf00d_cafe)
    }

    /// Absorbs one 64-bit word into both lanes.
    pub fn write_u64(&mut self, x: u64) {
        self.a = mix(self.a ^ x).wrapping_mul(MUL_A);
        self.b = mix(self.b.rotate_left(23) ^ x).wrapping_mul(MUL_B);
    }

    /// Absorbs a byte string (length-prefixed, so `"ab" + "c"` and
    /// `"a" + "bc"` hash differently).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    /// Finalises to 128 bits.
    pub fn finish128(&self) -> u128 {
        ((mix(self.a) as u128) << 64) | mix(self.b) as u128
    }

    /// Finalises to 64 bits (the verify-signature width).
    pub fn finish64(&self) -> u64 {
        mix(self.a ^ self.b.rotate_left(32))
    }
}

impl Default for KeyHasher {
    fn default() -> Self {
        KeyHasher::new()
    }
}

/// Absorbs everything that determines an instance's solution space:
/// the communication-enhanced DAG (nodes, edges), execution times, the
/// task→unit mapping and the per-unit power figures. Two instances
/// with equal absorption are interchangeable for every solver and
/// engine in the workspace.
pub fn absorb_instance(h: &mut KeyHasher, inst: &Instance) {
    let n = inst.node_count();
    h.write_u64(n as u64);
    h.write_u64(inst.original_task_count() as u64);
    h.write_u64(inst.unit_count() as u64);
    for v in 0..n as NodeId {
        h.write_u64(inst.exec(v));
        h.write_u64(inst.unit_of(v) as u64);
    }
    for u in 0..inst.unit_count() as u32 {
        let info = inst.unit(u);
        h.write_u64(info.p_idle);
        h.write_u64(info.p_work);
        h.write_u64(info.is_link as u64);
    }
    h.write_u64(inst.dag().edge_count() as u64);
    for (u, v) in inst.dag().edges() {
        h.write_u64(((u as u64) << 32) | v as u64);
    }
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

/// Fingerprint of an instance alone.
pub fn instance_fingerprint(inst: &Instance) -> u128 {
    let mut h = KeyHasher::new();
    absorb_instance(&mut h, inst);
    h.finish128()
}

/// Builds the full content key of one query.
///
/// `query` labels what is being asked — solver or variant name, engine,
/// budget — while instance and profile pin what it is asked *about*.
/// The same absorption sequence runs twice under independent seeds to
/// produce the primary key and the verify signature.
pub fn query_key(inst: &Instance, profile: Option<&PowerProfile>, query: &[&str]) -> ContentKey {
    let absorb = |h: &mut KeyHasher| {
        absorb_instance(h, inst);
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
    let mut primary = KeyHasher::new();
    absorb(&mut primary);
    let mut verify = KeyHasher::seeded(0xdead_beef_0b57_ac1e, 0x0123_4567_89ab_cdef);
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
    fn hasher_is_deterministic_and_order_sensitive() {
        let mut h1 = KeyHasher::new();
        h1.write_u64(1);
        h1.write_u64(2);
        let mut h2 = KeyHasher::new();
        h2.write_u64(1);
        h2.write_u64(2);
        assert_eq!(h1.finish128(), h2.finish128());
        let mut h3 = KeyHasher::new();
        h3.write_u64(2);
        h3.write_u64(1);
        assert_ne!(h1.finish128(), h3.finish128());
    }

    #[test]
    fn byte_absorption_is_prefix_free() {
        let mut h1 = KeyHasher::new();
        h1.write_bytes(b"ab");
        h1.write_bytes(b"c");
        let mut h2 = KeyHasher::new();
        h2.write_bytes(b"a");
        h2.write_bytes(b"bc");
        assert_ne!(h1.finish128(), h2.finish128());
    }

    #[test]
    fn seeds_give_independent_functions() {
        let mut h1 = KeyHasher::seeded(1, 2);
        let mut h2 = KeyHasher::seeded(3, 4);
        h1.write_u64(42);
        h2.write_u64(42);
        assert_ne!(h1.finish128(), h2.finish128());
    }

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
