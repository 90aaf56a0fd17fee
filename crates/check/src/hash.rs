//! A deterministic multiply-shift hasher for the checker's hot maps.
//!
//! `std`'s default `HashMap` hasher is SipHash-1-3 with per-map random
//! keys — DoS-resistant, but several times slower than needed for
//! hashing the checker's fixed-width keys (`u64` state keys in the
//! per-shard seen-sets, small `Copy` states in the enumeration index).
//! Nothing in the checker iterates a map in a correctness-relevant
//! order (every folded quantity is an order-independent sum or a
//! min-combine), so the only thing SipHash bought here was wasted
//! cycles per probe.
//!
//! This is the classic FxHash mix (rustc's interner hasher): fold each
//! 8-byte word into the accumulator with a rotate-xor-multiply. Fixed
//! constants, no per-map state — the same run hashes the same way at
//! any thread/shard count, and certificates stay byte-identical.

use std::hash::{BuildHasherDefault, Hasher};

/// `BuildHasher` for [`FxHasher`] — drop-in for the default
/// `RandomState` in `HashMap<K, V, FxBuildHasher>`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The multiplier of the FxHash mix (a 64-bit odd constant with good
/// avalanche behavior under `rotate ^ mul`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The multiply-shift [`Hasher`] behind [`FxBuildHasher`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
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
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(tail) | ((rem.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        for key in [0u64, 1, 42, u64::MAX, 0x9E37_79B9_7F4A_7C15] {
            assert_eq!(hash_of(&key), hash_of(&key));
        }
        assert_eq!(hash_of(&(3u32, true)), hash_of(&(3u32, true)));
    }

    #[test]
    fn spreads_sequential_keys() {
        // Sequential state keys are the seen-set's workload; the mix
        // must not collapse them into one bucket chain.
        let mut low_bits = std::collections::HashSet::new();
        for key in 0u64..1024 {
            low_bits.insert(hash_of(&key) & 0xFF);
        }
        assert!(
            low_bits.len() > 200,
            "got {} distinct buckets",
            low_bits.len()
        );
    }

    #[test]
    fn maps_behave_like_default_hasher_maps() {
        let mut m: std::collections::HashMap<u64, u64, FxBuildHasher> =
            std::collections::HashMap::default();
        for k in 0..10_000u64 {
            m.insert(k.wrapping_mul(0x1234_5678_9abc_def1), k);
        }
        assert_eq!(m.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(m.get(&k.wrapping_mul(0x1234_5678_9abc_def1)), Some(&k));
        }
    }
}
