//! Small utilities: a fast integer hasher for hot index lookups.
//!
//! The per-pair edge index is queried once per candidate `(e_i, e_j)` pair
//! in FAST-Tri — hot enough that SipHash shows up in profiles. This module
//! provides an `FxHash`-style multiply-rotate hasher (the algorithm used by
//! rustc) so we avoid pulling in an extra dependency for ~30 lines of code.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the FNV-inspired `FxHash` used in rustc; empirically
/// strong for small integer keys.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, non-cryptographic hasher for integer-like keys.
///
/// Not HashDoS-resistant; appropriate here because keys are internal node
/// ids, never attacker-controlled strings.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add_to_hash(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// One step of a SplitMix64-style hash chain: absorb `v` into the
/// running state `h` and return the finalized new state.
///
/// This is the single definition of the mix used by every persisted or
/// reproducibility-bearing hash in the workspace —
/// [`crate::TemporalGraph::fingerprint`] (the serving cache key) and
/// `hare::sample::window_kept` (the seeded sampling coin) — so the
/// constants can never silently diverge between them.
#[inline]
#[must_use]
pub fn splitmix64_mix(h: u64, v: u64) -> u64 {
    let mut z = (h ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_basic_operations() {
        let mut m: FxHashMap<(u32, u32), u64> = FxHashMap::default();
        m.insert((1, 2), 10);
        m.insert((2, 1), 20);
        assert_eq!(m.get(&(1, 2)), Some(&10));
        assert_eq!(m.get(&(2, 1)), Some(&20));
        assert_eq!(m.get(&(3, 3)), None);
    }

    #[test]
    fn hasher_is_deterministic() {
        let h = |x: u64| {
            let mut h = FxHasher::default();
            h.write_u64(x);
            h.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
    }

    #[test]
    fn distinct_small_keys_do_not_collide_catastrophically() {
        // Sanity: 10k sequential pair keys should produce ~10k distinct
        // hashes (a weak hasher can alias small integers badly).
        let mut seen = FxHashSet::default();
        for a in 0u32..100 {
            for b in 0u32..100 {
                let mut h = FxHasher::default();
                h.write_u32(a);
                h.write_u32(b);
                seen.insert(h.finish());
            }
        }
        assert!(seen.len() > 9_900, "too many collisions: {}", seen.len());
    }
}
