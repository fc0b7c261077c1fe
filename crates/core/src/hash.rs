//! A fast, deterministic hasher for hot maps whose keys this process made.
//!
//! The cycle-level simulator performs a hash-map lookup per simulated
//! memory access (the process page store) and per retired instruction
//! (ground-truth counters); the daemon performs two per aggregated sample
//! entry (the PID's loadmap, the `(image, event, offset)` count). `std`'s
//! default SipHash is DoS-resistant but costs more than the rest of those
//! operations combined; none of these maps hold attacker-controlled keys,
//! so we use the Fx multiply-rotate hash (the rustc-internal hasher)
//! instead. Unlike `RandomState` it is also deterministic across
//! processes — nothing observable depends on iteration order, but
//! determinism here removes a whole class of "works on my machine"
//! ordering hazards.
//!
//! **Never for keys a decoder reads from disk or the wire.** Fx has no
//! secret: anyone who can choose the keys can make them all collide and
//! turn a map into a list. The simulator's addresses and the PIDs, PCs and
//! offsets the local driver hands the daemon are ours; the `(image, event)`
//! keys of a `ProfileSet` (filled by `decode_profile` from profile files
//! and DCPF frames) and the `(parent, frame)` keys of a `StackTable`'s
//! index (filled by `from_nodes` from DCST bytes) are not, and stay on
//! SipHash.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the Fx hash (Firefox/rustc): a randomly chosen odd
/// 64-bit constant with good bit dispersion.
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx multiply-rotate hasher. One rotate, one xor, one multiply per
/// word of input — about an order of magnitude cheaper than SipHash for
/// the integer keys the simulator uses.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            // Length tag so "ab" and "ab\0" hash differently.
            tail[7] = rem.len() as u8;
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// Deterministic builder for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the fast deterministic hasher.
pub type FastMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the fast deterministic hasher.
pub type FastSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_of(v: impl std::hash::Hash) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        assert_eq!(hash_of(0xdead_beefu64), hash_of(0xdead_beefu64));
        assert_eq!(hash_of((1u32, 2u32)), hash_of((1u32, 2u32)));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        // Sequential page numbers — the dominant key pattern — must not
        // collide or cluster trivially.
        let hashes: FastSet<u64> = (0u64..1024).map(hash_of).collect();
        assert_eq!(hashes.len(), 1024);
    }

    #[test]
    fn byte_strings_with_shared_prefix_differ() {
        assert_ne!(hash_of("ab"), hash_of("ab\0"));
        assert_ne!(hash_of("main"), hash_of("main2"));
    }

    #[test]
    fn fast_map_works_as_drop_in() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        m.insert(7, 42);
        assert_eq!(m.get(&7), Some(&42));
        assert_eq!(m.len(), 1);
    }
}
