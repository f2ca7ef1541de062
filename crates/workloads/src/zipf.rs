//! Key-popularity distributions.
//!
//! YCSB draws keys from a Zipfian distribution with exponent θ = 0.99 by
//! default; the implementation below uses the standard Gray et al.
//! rejection-free inverse-CDF construction ("Quickly generating
//! billion-record synthetic databases", SIGMOD '94), the same one the YCSB
//! core workload uses. A uniform distribution is provided for the
//! conflict-free configurations.

use rand::Rng;

/// YCSB's default Zipfian constant.
const YCSB_ZIPFIAN_CONSTANT: f64 = 0.99;

/// A Zipfian distribution over `0..n`.
#[derive(Clone, Debug)]
pub struct ZipfianKeys {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl ZipfianKeys {
    /// Creates a Zipfian distribution over `0..n` with the default YCSB
    /// exponent.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: u64) -> Self {
        Self::with_theta(n, YCSB_ZIPFIAN_CONSTANT)
    }

    /// Creates a Zipfian distribution with an explicit exponent `theta`.
    #[must_use]
    pub fn with_theta(n: u64, theta: f64) -> Self {
        assert!(n > 0, "the key space cannot be empty");
        assert!((0.0..1.0).contains(&theta), "theta must lie in [0, 1)");
        let zetan = Self::zeta(n, theta);
        let zeta2theta = Self::zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2theta / zetan);
        ZipfianKeys {
            n,
            theta,
            alpha,
            zetan,
            eta,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct summation is fine for the sizes used here (≤ a few million);
        // the constructor is called once per experiment.
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Draws the next key (0-based rank; rank 0 is the most popular key).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// A uniform distribution over `0..n`.
#[derive(Clone, Copy, Debug)]
pub struct UniformKeys {
    n: u64,
}

impl UniformKeys {
    /// Creates a uniform distribution over `0..n`.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "the key space cannot be empty");
        UniformKeys { n }
    }

    /// Draws the next key.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        rng.gen_range(0..self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zipfian_samples_stay_in_range() {
        let dist = ZipfianKeys::new(1_000);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(dist.sample(&mut rng) < 1_000);
        }
    }

    #[test]
    fn zipfian_is_skewed_towards_small_ranks() {
        let dist = ZipfianKeys::new(10_000);
        let mut rng = StdRng::seed_from_u64(2);
        let samples = 50_000;
        let hot = (0..samples)
            .filter(|_| dist.sample(&mut rng) < 100) // top 1 % of keys
            .count();
        // With θ = 0.99, the top 1 % of keys should collect far more than
        // 1 % of accesses (empirically ~35–45 %).
        assert!(
            hot as f64 / samples as f64 > 0.2,
            "zipfian not skewed enough: {hot}/{samples}"
        );
    }

    #[test]
    fn uniform_is_not_skewed() {
        let dist = UniformKeys::new(10_000);
        let mut rng = StdRng::seed_from_u64(3);
        let samples = 50_000;
        let hot = (0..samples).filter(|_| dist.sample(&mut rng) < 100).count();
        let frac = hot as f64 / samples as f64;
        assert!(frac < 0.03, "uniform too skewed: {frac}");
    }

    #[test]
    fn theta_zero_degenerates_towards_uniform() {
        let dist = ZipfianKeys::with_theta(1_000, 0.0);
        let mut rng = StdRng::seed_from_u64(4);
        let samples = 20_000;
        let hot = (0..samples).filter(|_| dist.sample(&mut rng) < 10).count();
        assert!((hot as f64 / samples as f64) < 0.05);
    }

    #[test]
    #[should_panic(expected = "key space")]
    fn empty_key_space_rejected() {
        let _ = ZipfianKeys::new(0);
    }

    #[test]
    fn uniform_covers_whole_space() {
        let dist = UniformKeys::new(8);
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1_000 {
            seen.insert(dist.sample(&mut rng));
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let dist = ZipfianKeys::new(500);
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        let sa: Vec<u64> = (0..100).map(|_| dist.sample(&mut a)).collect();
        let sb: Vec<u64> = (0..100).map(|_| dist.sample(&mut b)).collect();
        assert_eq!(sa, sb);
    }
}
