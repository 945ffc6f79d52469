//! Stable content hashing of instances.
//!
//! Caches address an [`Instance`] by *content*, never by pointer or
//! insertion order: two instances built from the same workflow,
//! cluster and mapping hash identically, whichever run built them.
//! [`KeyHasher`] is a seeded 128-bit mixer. [`Instance::digest`]
//! absorbs the instance once under the primary seeds
//! ([`KeyHasher::new`], 128 bits) and once under independent verify
//! seeds ([`KeyHasher::verify`], 64 bits), and memoises both, so every
//! later key built over the same instance reads two words instead of
//! re-absorbing `O(N + E)` of them.
//!
//! The absorption covers everything a solver or cost engine reads:
//! `Gc`'s nodes and edges, execution times, the node→unit map, every
//! unit's power figures and the platform's total idle power (which
//! every cost adds, and which for [`Instance::build`] includes links
//! no communication uses). Two instances with equal digests are
//! interchangeable for every solver and engine in the workspace.
//!
//! `std::hash::Hash` is deliberately not used: its output is
//! unspecified across Rust versions and randomised per process for the
//! default hasher, while these digests must be stable enough to compare
//! across runs.

use cawo_graph::NodeId;

use crate::enhanced::Instance;

/// Incremental 128-bit mixer (two 64-bit lanes with distinct odd
/// multipliers, splitmix-style finalisation). Not cryptographic — a
/// second hash under independent seeds guards callers against the
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
    fn seeded(seed_a: u64, seed_b: u64) -> Self {
        KeyHasher {
            a: mix(seed_a ^ MUL_A),
            b: mix(seed_b ^ MUL_B),
        }
    }

    /// The primary-key seeds.
    pub fn new() -> Self {
        KeyHasher::seeded(0x5ca1_ab1e, 0xf00d_cafe)
    }

    /// The verify-signature seeds, independent of [`KeyHasher::new`]'s.
    pub fn verify() -> Self {
        KeyHasher::seeded(0xdead_beef_0b57_ac1e, 0x0123_4567_89ab_cdef)
    }

    /// Absorbs one 64-bit word into both lanes.
    pub fn write_u64(&mut self, x: u64) {
        self.a = mix(self.a ^ x).wrapping_mul(MUL_A);
        self.b = mix(self.b.rotate_left(23) ^ x).wrapping_mul(MUL_B);
    }

    /// Absorbs a 128-bit word, high half first.
    pub fn write_u128(&mut self, x: u128) {
        self.write_u64((x >> 64) as u64);
        self.write_u64(x as u64);
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

/// An instance's content digest: the same absorption under the primary
/// and under the verify seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceDigest {
    /// 128-bit hash under [`KeyHasher::new`]'s seeds.
    pub primary: u128,
    /// 64-bit hash under [`KeyHasher::verify`]'s seeds.
    pub verify: u64,
}

impl InstanceDigest {
    /// Absorbs `inst` under both seed sets. `Instance::digest` calls
    /// this once per instance and memoises the result.
    pub(crate) fn of(inst: &Instance) -> Self {
        let mut primary = KeyHasher::new();
        absorb_instance(&mut primary, inst);
        let mut verify = KeyHasher::verify();
        absorb_instance(&mut verify, inst);
        InstanceDigest {
            primary: primary.finish128(),
            verify: verify.finish64(),
        }
    }
}

fn absorb_instance(h: &mut KeyHasher, inst: &Instance) {
    let n = inst.node_count();
    h.write_u64(n as u64);
    h.write_u64(inst.original_task_count() as u64);
    h.write_u64(inst.unit_count() as u64);
    h.write_u64(inst.total_idle_power());
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enhanced::UnitInfo;
    use cawo_graph::dag::DagBuilder;

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

    fn chain(extra_idle: u64, p_work: u64) -> Instance {
        let mut b = DagBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        let unit = UnitInfo {
            p_idle: 1,
            p_work,
            is_link: false,
        };
        Instance::from_raw(
            b.build().unwrap(),
            vec![3, 2, 4],
            vec![0; 3],
            vec![unit],
            extra_idle,
        )
    }

    #[test]
    fn digest_tracks_content() {
        let a = chain(0, 7);
        let d = a.digest();
        assert_eq!(d, InstanceDigest::of(&a), "memo equals a fresh absorption");
        assert_eq!(chain(0, 7).digest(), d, "a rebuilt copy hashes alike");
        assert_ne!(chain(5, 7).digest().primary, d.primary, "idle power");
        assert_ne!(chain(5, 7).digest().verify, d.verify, "idle power");
        assert_ne!(chain(0, 8).digest().primary, d.primary, "working power");
    }
}
