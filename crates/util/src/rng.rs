//! Deterministic pseudo-random number generation.
//!
//! The provisioning simulator must be bit-reproducible for a given seed so
//! that every table and figure of the paper can be regenerated exactly,
//! regardless of the platform or the version of external crates. We
//! therefore implement a small, well-known generator stack in-crate:
//!
//! - **SplitMix64** for seed expansion (as recommended by the Xoshiro
//!   authors),
//! - **Xoshiro256++** as the core generator — fast, 256-bit state,
//!   excellent statistical quality for simulation workloads,
//! - the handful of distributions the emulator and the trace generator
//!   need (uniform, Bernoulli, normal, exponential, triangular) plus
//!   Fisher–Yates shuffling and weighted choice.
//!
//! The generator intentionally does **not** implement `rand`'s traits:
//! hot simulation loops stay free of external API churn. `rand` remains
//! available at the workspace edges (e.g. experiment orchestration).

/// SplitMix64 step: used for seeding and as a cheap stateless mixer.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes a master seed with a stream index into an uncorrelated child
/// seed (two SplitMix64 rounds over the concatenated inputs). Stateless
/// and order-independent: callers may seed stream `i` from any thread
/// at any time and always obtain the same value.
#[inline]
#[must_use]
pub fn stream_seed(master: u64, index: u64) -> u64 {
    let mut sm = master;
    let a = splitmix64(&mut sm);
    let mut sm = a ^ index.wrapping_mul(0xA24B_AED4_963E_E407);
    splitmix64(&mut sm)
}

/// A deterministic Xoshiro256++ pseudo-random number generator.
///
/// # Examples
///
/// ```
/// use mmog_util::rng::Rng64;
/// let mut a = Rng64::seed_from(42);
/// let mut b = Rng64::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rng64 {
    s: [u64; 4],
    /// Cached second normal variate from the Box–Muller transform.
    cached_normal: Option<f64>,
}

impl Rng64 {
    /// Creates a generator from a 64-bit seed, expanding it through
    /// SplitMix64 so that similar seeds yield uncorrelated streams.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self {
            s,
            cached_normal: None,
        }
    }

    /// Derives an independent child generator; useful to give each
    /// entity/server group its own stream without cross-correlation.
    #[must_use]
    pub fn split(&mut self) -> Self {
        Self::seed_from(self.next_u64())
    }

    /// Creates the `index`-th stream of a seed family. Unlike [`split`],
    /// this is stateless: stream `i` of a given master seed is always
    /// the same generator, no matter in which order (or on which
    /// thread) the streams are instantiated — the anchor of the
    /// parallel engine's determinism guarantee.
    ///
    /// [`split`]: Self::split
    #[must_use]
    pub fn stream(master: u64, index: u64) -> Self {
        Self::seed_from(stream_seed(master, index))
    }

    /// Returns the next raw 64-bit output (Xoshiro256++ scrambler).
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

    /// Uniform `f64` in `[0, 1)` with 53 bits of entropy.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // Take the top 53 bits — the standard unbiased construction.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`. Returns `lo` when the range is empty.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, n)` using Lemire's unbiased method.
    /// Returns 0 when `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)` (empty ranges return `lo`).
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.below(hi - lo)
    }

    /// Uniform `usize` in `[0, n)`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Standard normal variate via the Box–Muller transform (the second
    /// variate of each pair is cached).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.cached_normal.take() {
            return z;
        }
        // Rejection-free polar-less form; u1 is kept away from zero.
        let u1 = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.cached_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Exponential variate with rate `lambda` (> 0).
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        debug_assert!(lambda > 0.0, "exponential rate must be positive");
        let u = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        -u.ln() / lambda
    }

    /// Triangular variate on `[lo, hi]` with the given mode.
    pub fn triangular(&mut self, lo: f64, hi: f64, mode: f64) -> f64 {
        debug_assert!(lo <= mode && mode <= hi);
        if hi <= lo {
            return lo;
        }
        let u = self.f64();
        let fc = (mode - lo) / (hi - lo);
        if u < fc {
            lo + ((hi - lo) * (mode - lo) * u).sqrt()
        } else {
            hi - ((hi - lo) * (hi - mode) * (1.0 - u)).sqrt()
        }
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Picks an index according to non-negative `weights`. Returns `None`
    /// when the weights are empty or sum to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        // NaN weights never pass the > 0.0 filter, so `total` is a
        // plain non-negative sum.
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        if total <= 0.0 {
            return None;
        }
        let mut target = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            if target < w {
                return Some(i);
            }
            target -= w;
        }
        // Floating-point slack: fall back to the last positive weight.
        weights.iter().rposition(|&w| w > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible_for_same_seed() {
        let mut a = Rng64::seed_from(7);
        let mut b = Rng64::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng64::seed_from(1);
        let mut b = Rng64::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_independent_of_parent_continuation() {
        let mut parent = Rng64::seed_from(9);
        let mut child = parent.split();
        let c0 = child.next_u64();
        let p0 = parent.next_u64();
        assert_ne!(c0, p0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng64::seed_from(3);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x), "{x} outside [0,1)");
        }
    }

    #[test]
    fn below_is_unbiased_over_small_range() {
        let mut rng = Rng64::seed_from(11);
        let mut counts = [0u32; 5];
        for _ in 0..50_000 {
            counts[rng.below(5) as usize] += 1;
        }
        for &c in &counts {
            // Each bucket should hold ~10_000 draws; allow 5% slack.
            assert!((9_500..10_500).contains(&c), "biased bucket: {c}");
        }
    }

    #[test]
    fn below_zero_returns_zero() {
        let mut rng = Rng64::seed_from(5);
        assert_eq!(rng.below(0), 0);
    }

    #[test]
    fn range_handles_empty_ranges() {
        let mut rng = Rng64::seed_from(5);
        assert_eq!(rng.range_u64(10, 10), 10);
        assert_eq!(rng.range_f64(2.0, 1.0), 2.0);
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng64::seed_from(13);
        let n = 100_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let z = rng.normal();
            sum += z;
            sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = Rng64::seed_from(17);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn triangular_within_bounds_and_mode_pull() {
        let mut rng = Rng64::seed_from(31);
        let mut sum = 0.0;
        let n = 20_000;
        for _ in 0..n {
            let x = rng.triangular(0.0, 10.0, 9.0);
            assert!((0.0..=10.0).contains(&x));
            sum += x;
        }
        // Expected mean is (0 + 10 + 9)/3 ≈ 6.33.
        let mean = sum / n as f64;
        assert!((mean - 6.33).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng64::seed_from(37);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = Rng64::seed_from(41);
        let weights = [0.0, 1.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_index(&weights).unwrap()] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[2] as f64 / counts[1] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn weighted_index_empty_or_zero_is_none() {
        let mut rng = Rng64::seed_from(43);
        assert_eq!(rng.weighted_index(&[]), None);
        assert_eq!(rng.weighted_index(&[0.0, 0.0]), None);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng64::seed_from(47);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }
}
