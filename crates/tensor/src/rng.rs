//! Deterministic random-number generation.
//!
//! Everything in the FDA reproduction — dataset synthesis, weight
//! initialization, batch sampling, AMS sketch hashing — flows through this
//! generator so that a single `u64` seed reproduces an entire experiment.
//!
//! The core generator is xoshiro256++ (Blackman & Vigna), seeded through
//! SplitMix64 as its authors recommend. It is small, fast, and passes
//! BigCrush; cryptographic strength is irrelevant here.

/// A deterministic xoshiro256++ pseudo-random generator.
///
/// Cloning an `Rng` forks the stream (both clones then produce the same
/// sequence); use [`Rng::split`] to derive an independent stream instead.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Any seed is valid; the all-zero internal state is impossible because
    /// SplitMix64 expansion never produces four zero words in a row.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derives an independent generator for a sub-task.
    ///
    /// `label` namespaces the derivation so e.g. worker 3's batch stream and
    /// worker 3's dropout stream differ. The parent stream is not advanced.
    #[must_use]
    pub fn split(&self, label: u64) -> Rng {
        // Mix the current state with the label through SplitMix64.
        let mut sm =
            self.s[0] ^ self.s[2].rotate_left(17) ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Next raw 64 random bits (xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn uniform_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    #[inline]
    pub fn uniform_f32(&mut self) -> f32 {
        self.uniform_f64() as f32
    }

    /// Uniform `f32` in `[lo, hi)`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.uniform_f32()
    }

    /// Uniform integer in `[0, n)` using Lemire's unbiased method.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "Rng::below(0) is meaningless");
        // Lemire multiply-shift with rejection to remove modulo bias.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` index in `[0, n)`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Standard normal sample via the Box–Muller transform.
    ///
    /// We deliberately do not cache the second Box–Muller output: the
    /// branch-free version keeps the generator state a pure function of the
    /// number of draws, which simplifies reasoning about reproducibility.
    #[inline]
    fn normal_f32(&mut self) -> f32 {
        // u1 in (0, 1] to avoid ln(0).
        let u1 = 1.0 - self.uniform_f64();
        let u2 = self.uniform_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        (r * theta.cos()) as f32
    }

    /// Normal sample with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f32, std_dev: f32) -> f32 {
        mean + std_dev * self.normal_f32()
    }

    /// Fills `out` with standard normal samples.
    pub fn fill_normal(&mut self, out: &mut [f32], mean: f32, std_dev: f32) {
        for v in out.iter_mut() {
            *v = self.normal(mean, std_dev);
        }
    }

    /// Fills `out` with uniform samples from `[lo, hi)`.
    pub fn fill_uniform(&mut self, out: &mut [f32], lo: f32, hi: f32) {
        for v in out.iter_mut() {
            *v = self.uniform_range(lo, hi);
        }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        if xs.len() < 2 {
            return;
        }
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Bernoulli draw with probability `p` of `true`.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds should diverge");
    }

    #[test]
    fn split_is_independent_of_parent_advance() {
        let parent = Rng::new(7);
        let mut c1 = parent.split(3);
        let mut parent2 = parent.clone();
        let _ = parent2.next_u64(); // advancing a clone must not affect split
        let mut c2 = parent.split(3);
        for _ in 0..32 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
    }

    #[test]
    fn split_labels_differ() {
        let parent = Rng::new(7);
        let mut a = parent.split(0);
        let mut b = parent.split(1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            let x = r.uniform_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Rng::new(11);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let x = r.below(7) as usize;
            assert!(x < 7);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut r = Rng::new(5);
        let n = 200_000;
        let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
        for _ in 0..n {
            let x = r.normal_f32() as f64;
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.02, "variance {var} too far from 1");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::new(9);
        let mut xs: Vec<usize> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = Rng::new(17);
        for _ in 0..100 {
            assert!(!r.bernoulli(0.0));
            assert!(r.bernoulli(1.0));
        }
    }
}
