//! rustc's FxHash: one rotate, xor and multiply per word.
//!
//! For maps keyed by values the program computes itself (quantized
//! coordinates, site ids), where SipHash's resistance to crafted keys buys
//! nothing. The hasher has no random state, so a map's iteration order is
//! a function of its insertions: a sum taken in that order is the same on
//! every run.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The hasher; start from `FxHasher::default()`.
#[derive(Default, Clone, Copy)]
pub struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_i64(&mut self, word: i64) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn hashes_are_fixed_functions_of_the_key() {
        let h = |k: (i64, i64, i64)| FxBuildHasher::default().hash_one(k);
        assert_eq!(h((1, -2, 3)), h((1, -2, 3)));
        assert_ne!(h((1, -2, 3)), h((3, -2, 1)));
        let order = |n: u64| -> Vec<u64> {
            let m: FxHashMap<u64, ()> = (0..n).map(|k| (k * 7919, ())).collect();
            m.into_keys().collect()
        };
        assert_eq!(order(1000), order(1000));
    }
}
