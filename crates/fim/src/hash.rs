//! Multiply-mix hashing for the encode hot path.
//!
//! The per-alarm encode does four [`ItemDictionary`] map lookups per
//! flow, which makes the hasher the dominant per-flow cost. Items
//! are single `u64`s with well-spread payloads (tagged feature values),
//! so SipHash's keyed collision resistance buys nothing here — a
//! Fibonacci-style multiply (the FxHash construction) hashes in a few
//! cycles and pushes its entropy into the high bits, which is where
//! `std`'s hashbrown tables read their control tags from.
//!
//! Not DoS-resistant by design; only use for maps keyed by values the
//! process itself produced (dense ids, interned items), never for
//! attacker-controlled strings.
//!
//! [`ItemDictionary`]: crate::matrix::ItemDictionary

use std::hash::{BuildHasherDefault, Hasher};

/// One-shot multiply hasher (FxHash construction): state is folded with
/// xor then multiplied by a high-entropy odd constant per write.
#[derive(Default)]
pub struct FxHasher(u64);

/// `BuildHasher` plugging [`FxHasher`] into `HashMap`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` defaulted to the multiply hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.mix(x);
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.mix(x as u64);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.mix(x as u64);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.mix(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_keys_hash_identically() {
        let hash = |x: u64| {
            let mut h = FxHasher::default();
            h.write_u64(x);
            h.finish()
        };
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(42), hash(43));
    }

    #[test]
    fn sequential_keys_spread_high_bits() {
        // hashbrown's control tags come from the top bits; sequential
        // keys (dense ids, port sweeps) must not collapse there.
        let mut tags = std::collections::HashSet::new();
        for x in 0u64..1_000 {
            let mut h = FxHasher::default();
            h.write_u64(x);
            tags.insert(h.finish() >> 57);
        }
        assert!(tags.len() > 100, "only {} distinct control tags", tags.len());
    }

    #[test]
    fn map_roundtrips() {
        let mut map: FxHashMap<u64, u64> = FxHashMap::default();
        for x in 0..10_000u64 {
            map.insert(x, x * 2);
        }
        for x in 0..10_000u64 {
            assert_eq!(map.get(&x), Some(&(x * 2)));
        }
    }
}
