//! IID data streams over a fixed sample pool.
//!
//! The paper samples 8000 points from each dataset's test split per edge
//! and replays them as the edge's incoming stream (Section V-A). A
//! [`DataStream`] reproduces this: it draws indices uniformly with
//! replacement from a pool, which is exactly an IID stream over the
//! empirical distribution `D̂` of that pool.

use cne_util::SeedSequence;
use rand::rngs::StdRng;
use rand::Rng;

/// An IID stream of pool indices for one edge.
///
/// The simulator stores per-model, per-pool-sample loss/correctness
/// tables once (see `cne-nn`'s model zoo), so a stream only needs to
/// produce indices; evaluating model `n` on the slot's arrivals is then
/// a table lookup, statistically identical to running inference on each
/// arriving sample.
///
/// # Examples
///
/// ```
/// use cne_simdata::stream::DataStream;
/// use cne_util::SeedSequence;
///
/// let mut stream = DataStream::new(8000, SeedSequence::new(3));
/// let slot: Vec<usize> = stream.draw_slot(5);
/// assert_eq!(slot.len(), 5);
/// assert!(slot.iter().all(|&i| i < 8000));
/// ```
#[derive(Debug, Clone)]
pub struct DataStream {
    pool_size: usize,
    rng: StdRng,
    drawn: u64,
}

impl DataStream {
    /// Creates a stream over a pool of `pool_size` samples.
    ///
    /// # Panics
    /// Panics if `pool_size` is zero.
    #[must_use]
    pub fn new(pool_size: usize, seed: SeedSequence) -> Self {
        assert!(pool_size > 0, "stream pool must be non-empty");
        Self {
            pool_size,
            rng: seed.derive("data-stream").rng(),
            drawn: 0,
        }
    }

    /// Size of the underlying pool.
    #[must_use]
    pub fn pool_size(&self) -> usize {
        self.pool_size
    }

    /// Total number of samples drawn so far.
    #[must_use]
    pub fn drawn(&self) -> u64 {
        self.drawn
    }

    /// Draws the next sample index.
    pub fn draw(&mut self) -> usize {
        self.drawn += 1;
        self.rng.gen_range(0..self.pool_size)
    }

    /// Draws all indices for one time slot with `m` arrivals.
    pub fn draw_slot(&mut self, m: usize) -> Vec<usize> {
        (0..m).map(|_| self.draw()).collect()
    }

    /// Draws a *capped* slot: at most `cap` indices representing a
    /// uniform subsample of the `m` arrivals.
    ///
    /// When `m` is large the average loss over `min(m, cap)` IID draws is
    /// an unbiased estimate of the same expectation with slightly higher
    /// variance; the bandit layer only requires unbiasedness (the paper's
    /// Insight 2: the arrival count `M_i` does not matter). The cap keeps
    /// full-horizon simulations with tens of thousands of arrivals per
    /// slot tractable.
    pub fn draw_slot_capped(&mut self, m: u64, cap: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.draw_slot_capped_into(m, cap, &mut out);
        out
    }

    /// As [`DataStream::draw_slot_capped`], but overwriting `out`, so a
    /// caller drawing every slot reuses one buffer.
    pub fn draw_slot_capped_into(&mut self, m: u64, cap: usize, out: &mut Vec<usize>) {
        let take = (m as usize).min(cap);
        out.clear();
        out.extend((0..take).map(|_| self.draw()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_in_range_and_counted() {
        let mut s = DataStream::new(100, SeedSequence::new(1));
        let slot = s.draw_slot(1000);
        assert!(slot.iter().all(|&i| i < 100));
        assert_eq!(s.drawn(), 1000);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = DataStream::new(50, SeedSequence::new(2));
        let mut b = DataStream::new(50, SeedSequence::new(2));
        assert_eq!(a.draw_slot(20), b.draw_slot(20));
    }

    #[test]
    fn roughly_uniform_over_pool() {
        let mut s = DataStream::new(10, SeedSequence::new(3));
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[s.draw()] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "skewed draw counts: {counts:?}");
        }
    }

    #[test]
    fn capped_slot_respects_cap() {
        let mut s = DataStream::new(10, SeedSequence::new(4));
        assert_eq!(s.draw_slot_capped(5000, 128).len(), 128);
        assert_eq!(s.draw_slot_capped(7, 128).len(), 7);
        assert_eq!(s.draw_slot_capped(0, 128).len(), 0);
    }

    #[test]
    fn drawing_into_a_buffer_matches_drawing_fresh() {
        let mut a = DataStream::new(50, SeedSequence::new(6));
        let mut b = DataStream::new(50, SeedSequence::new(6));
        let mut buf = vec![99; 7];
        for m in [3, 0, 400, 12] {
            b.draw_slot_capped_into(m, 100, &mut buf);
            assert_eq!(a.draw_slot_capped(m, 100), buf);
        }
        assert_eq!(a.drawn(), b.drawn());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_pool_rejected() {
        let _ = DataStream::new(0, SeedSequence::new(5));
    }
}
