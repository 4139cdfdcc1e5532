//! Carter–Wegman 4-wise independent hashing over GF(2^61 − 1).
//!
//! The AMS estimator's variance bound requires the ±1 "sign" hash to be
//! 4-wise independent; a degree-3 polynomial with random coefficients over
//! a prime field provides exactly that. The bucket hash reuses the same
//! family (2-wise independence suffices there, 4-wise costs nothing extra).

use fda_tensor::Rng;

/// The Mersenne prime 2^61 − 1.
const MERSENNE_P: u64 = (1u64 << 61) - 1;

/// Multiplies two field elements modulo 2^61 − 1 without overflow.
#[inline]
fn mul_mod(a: u64, b: u64) -> u64 {
    let prod = (a as u128) * (b as u128);
    // Fast Mersenne reduction: x mod (2^61−1) = (x >> 61) + (x & P), folded.
    let lo = (prod & (MERSENNE_P as u128)) as u64;
    let hi = (prod >> 61) as u64;
    let mut s = lo + hi;
    if s >= MERSENNE_P {
        s -= MERSENNE_P;
    }
    // One fold suffices because lo, hi < 2^61 so s < 2^62.
    if s >= MERSENNE_P {
        s -= MERSENNE_P;
    }
    s
}

/// Adds two field elements modulo 2^61 − 1.
#[inline]
fn add_mod(a: u64, b: u64) -> u64 {
    let s = a + b; // a, b < 2^61 so no u64 overflow
    if s >= MERSENNE_P {
        s - MERSENNE_P
    } else {
        s
    }
}

/// Subtracts two field elements modulo 2^61 − 1.
#[inline]
fn sub_mod(a: u64, b: u64) -> u64 {
    add_mod(a, MERSENNE_P - b) // b < P, so P − b ∈ (0, P]
}

/// A degree-3 Carter–Wegman polynomial hash: 4-wise independent.
#[derive(Debug, Clone)]
pub struct FourWiseHash {
    // Coefficients of c3·x³ + c2·x² + c1·x + c0 over GF(2^61 − 1).
    c: [u64; 4],
}

impl FourWiseHash {
    /// Draws a random member of the family.
    pub fn random(rng: &mut Rng) -> Self {
        let mut c = [0u64; 4];
        for v in &mut c {
            *v = rng.next_u64() % MERSENNE_P;
        }
        // Degree must be exactly 3 for full 4-wise independence.
        if c[3] == 0 {
            c[3] = 1;
        }
        FourWiseHash { c }
    }

    /// Evaluates the polynomial at `x` (Horner's rule).
    #[inline]
    pub fn eval(&self, x: u64) -> u64 {
        let x = x % MERSENNE_P;
        let mut acc = self.c[3];
        acc = add_mod(mul_mod(acc, x), self.c[2]);
        acc = add_mod(mul_mod(acc, x), self.c[1]);
        add_mod(mul_mod(acc, x), self.c[0])
    }

    /// `eval(0), eval(1), eval(2), …` by forward differences: a cubic's
    /// third difference is constant, so each value costs three field
    /// additions instead of Horner's three dependent multiplications —
    /// and equals `eval` exactly.
    pub fn consecutive(&self) -> impl Iterator<Item = u64> {
        let f = [0, 1, 2, 3].map(|x| self.eval(x));
        let mut value = f[0];
        let mut d1 = sub_mod(f[1], f[0]);
        let mut d2 = sub_mod(sub_mod(f[2], f[1]), d1);
        let d3 = sub_mod(sub_mod(sub_mod(f[3], f[2]), sub_mod(f[2], f[1])), d2);
        std::iter::from_fn(move || {
            let out = value;
            value = add_mod(value, d1);
            d1 = add_mod(d1, d2);
            d2 = add_mod(d2, d3);
            Some(out)
        })
    }

    /// `bucket(0, m), bucket(1, m), …`: [`FourWiseHash::consecutive`]
    /// reduced mod `m` by multiplication instead of a 64-bit division
    /// (Lemire, Kaser & Kurz, "Faster remainder by direct computation",
    /// 2019) — exact for every `u64` input when `m < 2^32`, which is
    /// asserted.
    pub fn consecutive_buckets(&self, m: usize) -> impl Iterator<Item = usize> {
        assert!(m >= 1 && (m as u64) < 1 << 32, "bucket count out of range");
        let m = m as u128;
        // ⌈2^128 / m⌉; wraps to 0 for m = 1, which yields remainder 0.
        let magic = (u128::MAX / m).wrapping_add(1);
        self.consecutive().map(move |x| {
            let low = magic.wrapping_mul(x as u128);
            // ⌊low · m / 2^128⌋, from the two 64-bit halves of `low`.
            let high = (low >> 64) * m + (((low as u64) as u128 * m) >> 64);
            (high >> 64) as usize
        })
    }

    /// Maps index `i` to a ±1 sign (lowest output bit).
    #[inline]
    pub fn sign(&self, i: u64) -> f32 {
        if self.eval(i) & 1 == 0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Maps index `i` to a bucket in `[0, m)`.
    #[inline]
    pub fn bucket(&self, i: u64, m: usize) -> usize {
        (self.eval(i) % m as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_mod_matches_u128_reference() {
        let mut rng = Rng::new(1);
        for _ in 0..1000 {
            let a = rng.next_u64() % MERSENNE_P;
            let b = rng.next_u64() % MERSENNE_P;
            let expect = ((a as u128 * b as u128) % MERSENNE_P as u128) as u64;
            assert_eq!(mul_mod(a, b), expect);
        }
    }

    #[test]
    fn add_mod_wraps() {
        assert_eq!(add_mod(MERSENNE_P - 1, 2), 1);
        assert_eq!(add_mod(5, 7), 12);
    }

    #[test]
    fn eval_is_deterministic() {
        let mut rng = Rng::new(2);
        let h = FourWiseHash::random(&mut rng);
        assert_eq!(h.eval(12345), h.eval(12345));
    }

    #[test]
    fn consecutive_matches_eval() {
        let mut rng = Rng::new(6);
        for _ in 0..20 {
            let h = FourWiseHash::random(&mut rng);
            for (x, value) in h.consecutive().take(5_000).enumerate() {
                assert_eq!(value, h.eval(x as u64), "x = {x}");
            }
        }
        // Coefficients at the field's edges.
        let h = FourWiseHash {
            c: [MERSENNE_P - 1, 0, MERSENNE_P - 1, 1],
        };
        assert!(h
            .consecutive()
            .take(1_000)
            .enumerate()
            .all(|(x, v)| v == h.eval(x as u64)));
    }

    #[test]
    fn consecutive_buckets_match_bucket() {
        let mut rng = Rng::new(7);
        let ms = [
            1usize,
            2,
            3,
            16,
            17,
            176,
            250,
            65_535,
            (1 << 31) - 1,
            (1 << 32) - 1,
        ];
        for m in ms {
            let h = FourWiseHash::random(&mut rng);
            for (x, b) in h.consecutive_buckets(m).take(3_000).enumerate() {
                assert_eq!(b, h.bucket(x as u64, m), "m = {m}, x = {x}");
            }
        }
    }

    #[test]
    fn signs_are_roughly_balanced() {
        let mut rng = Rng::new(3);
        let h = FourWiseHash::random(&mut rng);
        let pos = (0..10_000u64).filter(|&i| h.sign(i) > 0.0).count();
        assert!(
            (4_500..5_500).contains(&pos),
            "sign hash should be balanced, got {pos}/10000 positive"
        );
    }

    #[test]
    fn buckets_are_roughly_uniform() {
        let mut rng = Rng::new(4);
        let h = FourWiseHash::random(&mut rng);
        let m = 16;
        let mut counts = vec![0usize; m];
        for i in 0..16_000u64 {
            counts[h.bucket(i, m)] += 1;
        }
        for (b, &c) in counts.iter().enumerate() {
            assert!(
                (700..1_300).contains(&c),
                "bucket {b} count {c} far from uniform 1000"
            );
        }
    }

    #[test]
    fn pairwise_sign_products_decorrelated() {
        // For 4-wise independent signs, E[s(i)s(j)] = 0 for i ≠ j; check an
        // empirical average over many hash draws.
        let mut rng = Rng::new(5);
        let mut acc = 0.0f64;
        let trials = 2000;
        for _ in 0..trials {
            let h = FourWiseHash::random(&mut rng);
            acc += (h.sign(17) * h.sign(99)) as f64;
        }
        let mean = acc / trials as f64;
        assert!(mean.abs() < 0.08, "cross-correlation {mean} should be ≈ 0");
    }
}
