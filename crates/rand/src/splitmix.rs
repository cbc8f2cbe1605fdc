//! SplitMix64 — the 64-bit finalizer-based generator of Steele, Lea &
//! Flood ("Fast splittable pseudorandom number generators", OOPSLA 2014).
//!
//! Used here for what the xoshiro authors recommend it for: turning one
//! `u64` seed into full-width, well-mixed state words. Consecutive integer
//! seeds (0, 1, 2, …) yield decorrelated states, so experiment harnesses
//! can number their runs without accidentally correlating them.

use crate::traits::{RngCore, SeedableRng};

/// A SplitMix64 generator. Period `2^64`; every `u64` appears exactly once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

impl SplitMix64 {
    /// Creates a generator whose first output mixes `seed + γ`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

/// Folds a sequence of words into one well-mixed 64-bit seed.
///
/// Used to derive per-union / per-repetition seeds from structured keys
/// (run seed, domain tag, state id, size, …): each word is absorbed into a
/// SplitMix64 chain, so any single-bit change in any word flips about half
/// of the output bits. Deterministic and order-sensitive —
/// `mix_seed(&[a, b]) != mix_seed(&[b, a])` in general.
pub fn mix_seed(words: &[u64]) -> u64 {
    let mut acc = SplitMix64::new(0x243f_6a88_85a3_08d3).next_u64(); // π digits tag
    for &w in words {
        acc = SplitMix64::new(acc ^ w).next_u64();
    }
    acc
}

impl RngCore for SplitMix64 {
    /// The next mixed 64-bit value (the reference `next()` routine).
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl SeedableRng for SplitMix64 {
    type Seed = [u8; 8];

    fn from_seed(seed: Self::Seed) -> Self {
        SplitMix64::new(u64::from_le_bytes(seed))
    }

    fn seed_from_u64(state: u64) -> Self {
        SplitMix64::new(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vector_for_seed_zero() {
        // First outputs of the reference C implementation with x = 0.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(sm.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(sm.next_u64(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn mix_seed_is_word_and_order_sensitive() {
        assert_eq!(mix_seed(&[1, 2, 3]), mix_seed(&[1, 2, 3]));
        assert_ne!(mix_seed(&[1, 2, 3]), mix_seed(&[1, 2, 4]));
        assert_ne!(mix_seed(&[1, 2]), mix_seed(&[2, 1]));
        assert_ne!(mix_seed(&[]), mix_seed(&[0]));
        let d = (mix_seed(&[7, 0]) ^ mix_seed(&[7, 1])).count_ones();
        assert!((16..=48).contains(&d), "only {d} bits differ");
    }

    #[test]
    fn consecutive_seeds_decorrelate() {
        let a = SplitMix64::new(1).next_u64();
        let b = SplitMix64::new(2).next_u64();
        // Outputs of adjacent seeds differ in roughly half their bits.
        let differing = (a ^ b).count_ones();
        assert!(
            (16..=48).contains(&differing),
            "only {differing} bits differ"
        );
    }
}
