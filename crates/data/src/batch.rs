//! Mini-batch sampling over a worker's shard.
//!
//! [`BatchSampler::sample`] is Algorithm 1 line 4: "sample a batch of size
//! b from D_k" at every step. Sampling is without replacement within an
//! epoch (reshuffled between epochs), which matches the framework
//! semantics the paper builds on. An epoch is
//! [`BatchSampler::batches_per_epoch`] samples; the FedOpt baselines run
//! `E` of them between rounds.

use crate::dataset::Dataset;
use fda_tensor::{Matrix, Rng};

/// A shuffling mini-batch sampler over a fixed index shard.
#[derive(Debug, Clone)]
pub struct BatchSampler {
    indices: Vec<usize>,
    cursor: usize,
    batch: usize,
    rng: Rng,
}

impl BatchSampler {
    /// Creates a sampler over `shard` with the given batch size.
    ///
    /// # Panics
    /// Panics if the shard is empty or the batch size is zero.
    pub fn new(shard: Vec<usize>, batch: usize, rng: Rng) -> BatchSampler {
        assert!(!shard.is_empty(), "sampler: empty shard");
        assert!(batch >= 1, "sampler: zero batch size");
        let mut s = BatchSampler {
            indices: shard,
            cursor: 0,
            batch,
            rng,
        };
        s.reshuffle();
        s
    }

    /// Configured batch size.
    pub fn batch_size(&self) -> usize {
        self.batch
    }

    /// Mini-batches per epoch (ceiling division; the paper's "steps per
    /// epoch" for a worker).
    pub fn batches_per_epoch(&self) -> usize {
        self.indices.len().div_ceil(self.batch)
    }

    fn reshuffle(&mut self) {
        self.rng.shuffle(&mut self.indices);
        self.cursor = 0;
    }

    /// Advances the cursor (wrapping and reshuffling at epoch end) and
    /// returns the index range of the next mini-batch.
    fn advance(&mut self) -> std::ops::Range<usize> {
        let n = self.indices.len();
        let take = self.batch.min(n);
        if self.cursor + take > n {
            self.reshuffle();
        }
        let start = self.cursor;
        self.cursor += take;
        start..start + take
    }

    /// Draws the next mini-batch (wrapping and reshuffling at epoch end).
    pub fn sample(&mut self, dataset: &Dataset) -> (Matrix, Vec<usize>) {
        let r = self.advance();
        dataset.gather(&self.indices[r])
    }

    /// Like [`BatchSampler::sample`], but gathers the batch directly into
    /// the layout a model declares as native: channel-major
    /// (`Some(channels)`) or sample-major rows (`None`). The index stream —
    /// and therefore the RNG state and the sampled values — is identical to
    /// [`BatchSampler::sample`]; only the destination arrangement differs,
    /// so switching a training loop to this entry is trajectory-preserving.
    pub fn sample_native(
        &mut self,
        dataset: &Dataset,
        channels: Option<usize>,
    ) -> (Matrix, Vec<usize>) {
        let r = self.advance();
        let idx = &self.indices[r];
        match channels {
            Some(c) => dataset.gather_channel_major(idx, c),
            None => dataset.gather(idx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(n: usize) -> Dataset {
        let x = Matrix::from_vec(n, 1, (0..n).map(|i| i as f32).collect());
        let y: Vec<usize> = (0..n).map(|i| i % 2).collect();
        Dataset::new(x, y, 2)
    }

    #[test]
    fn batches_have_requested_size() {
        let d = dataset(50);
        let mut s = BatchSampler::new((0..50).collect(), 8, Rng::new(1));
        for _ in 0..20 {
            let (x, y) = s.sample(&d);
            assert_eq!(x.rows(), 8);
            assert_eq!(y.len(), 8);
        }
    }

    #[test]
    fn epoch_covers_shard_exactly_once() {
        let d = dataset(25);
        let mut s = BatchSampler::new((0..25).collect(), 5, Rng::new(2));
        assert_eq!(s.batches_per_epoch(), 5);
        let mut seen = Vec::new();
        for _ in 0..s.batches_per_epoch() {
            let (x, _) = s.sample(&d);
            seen.extend((0..x.rows()).map(|r| x.row(r)[0] as usize));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..25).collect::<Vec<_>>());
    }

    #[test]
    fn within_epoch_sampling_has_no_repeats() {
        let d = dataset(40);
        let mut s = BatchSampler::new((0..40).collect(), 10, Rng::new(3));
        let mut seen = Vec::new();
        for _ in 0..4 {
            let (x, _) = s.sample(&d);
            for r in 0..x.rows() {
                seen.push(x.row(r)[0] as usize);
            }
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 40, "one epoch of sampling covers the shard");
    }

    #[test]
    fn batch_larger_than_shard_clamps() {
        let d = dataset(3);
        let mut s = BatchSampler::new(vec![0, 1, 2], 32, Rng::new(4));
        let (x, y) = s.sample(&d);
        assert_eq!(x.rows(), 3);
        assert_eq!(y.len(), 3);
        assert_eq!(s.batches_per_epoch(), 1);
    }

    #[test]
    fn deterministic_given_rng_seed() {
        let d = dataset(30);
        let mut a = BatchSampler::new((0..30).collect(), 4, Rng::new(9));
        let mut b = BatchSampler::new((0..30).collect(), 4, Rng::new(9));
        for _ in 0..10 {
            let (xa, ya) = a.sample(&d);
            let (xb, yb) = b.sample(&d);
            assert_eq!(xa.as_slice(), xb.as_slice());
            assert_eq!(ya, yb);
        }
    }

    /// `sample_native` must consume the identical index stream as `sample`
    /// — same RNG state, same samples — differing only in the batch layout,
    /// so switching a training loop between the two entries is
    /// trajectory-preserving.
    #[test]
    fn sample_native_matches_sample_stream() {
        // 2-channel samples: dim 4 = 2 planes of 2.
        let x = Matrix::from_vec(12, 4, (0..48).map(|i| i as f32).collect());
        let d = Dataset::new(x, (0..12).map(|i| i % 2).collect(), 2);
        let mut plain = BatchSampler::new((0..12).collect(), 5, Rng::new(21));
        let mut native = BatchSampler::new((0..12).collect(), 5, Rng::new(21));
        for step in 0..7 {
            let (xs, ys) = plain.sample(&d);
            let (xc, yc) = native.sample_native(&d, Some(2));
            assert_eq!(ys, yc, "step {step}: labels diverged");
            assert_eq!(
                xc,
                xs.to_channel_major(2),
                "step {step}: batch values diverged"
            );
        }
        // And the sample-major native path is the plain gather.
        let (xs, ys) = plain.sample(&d);
        let (xn, yn) = native.sample_native(&d, None);
        assert_eq!((xs, ys), (xn, yn));
    }

    #[test]
    #[should_panic(expected = "empty shard")]
    fn empty_shard_panics() {
        let _ = BatchSampler::new(vec![], 4, Rng::new(0));
    }
}
