//! Deterministic pseudo-randomness: splitmix64 for seeding/stream
//! derivation, xorshift64* for the main stream.
//!
//! Both algorithms are tiny, portable, and in the public domain; the
//! point here is reproducibility, not cryptographic quality. Every
//! failing test case is fully described by one `u64` seed.

/// Advances a splitmix64 state and returns the next output.
///
/// Used to scramble user-provided seeds (so `0`, `1`, `2`, ... give
/// unrelated streams) and to derive per-case seeds from a base seed.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic PRNG (xorshift64* over a splitmix64-scrambled
/// seed).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator for `seed`. Any seed is fine, including 0.
    pub fn new(seed: u64) -> TestRng {
        let mut s = seed;
        // One splitmix step decorrelates adjacent seeds and avoids the
        // xorshift all-zero fixed point.
        let state = splitmix64(&mut s) | 1;
        TestRng { state }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform value in `[lo, hi)`. `hi` must be greater than `lo`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi, "empty range");
        let span = hi - lo;
        // Multiply-shift rejection-free mapping; bias is negligible for
        // the small spans tests use (span << 2^64).
        lo + ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as u64
    }

    /// A uniform `usize` in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// A uniform `i64` in `[lo, hi)`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo < hi, "empty range");
        let span = (hi as i128 - lo as i128) as u64;
        let off = ((u128::from(self.next_u64()) * u128::from(span)) >> 64) as i128;
        (lo as i128 + off) as i64
    }

    /// A fair coin flip.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = (0..8).map({ let mut r = TestRng::new(42); move |_| r.next_u64() }).collect();
        let b: Vec<u64> = (0..8).map({ let mut r = TestRng::new(42); move |_| r.next_u64() }).collect();
        assert_eq!(a, b);
        let c: Vec<u64> = (0..8).map({ let mut r = TestRng::new(43); move |_| r.next_u64() }).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn zero_seed_is_fine() {
        let mut r = TestRng::new(0);
        let draws: Vec<u64> = (0..16).map(|_| r.next_u64()).collect();
        assert!(draws.iter().any(|&d| d != 0));
        assert!(draws.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = TestRng::new(7);
        for _ in 0..1000 {
            let v = r.range_u64(3, 12);
            assert!((3..12).contains(&v));
            let s = r.range_i64(-5, 6);
            assert!((-5..6).contains(&s));
        }
    }

    #[test]
    fn range_covers_endpoints() {
        let mut r = TestRng::new(1);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[r.range_usize(0, 4)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all of [0,4) reachable: {seen:?}");
    }

    #[test]
    fn bool_is_not_constant() {
        let mut r = TestRng::new(9);
        let trues = (0..100).filter(|_| r.bool()).count();
        assert!((20..=80).contains(&trues), "{trues} trues out of 100");
    }
}
