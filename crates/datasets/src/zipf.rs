//! Zipf-distributed sampling.
//!
//! The synthetic datasets of the paper draw both tuple delays and join
//! attribute values from Zipf distributions with configurable skew
//! (Sec. VI, *Datasets and Queries*).  A skew of 0 degenerates to the
//! uniform distribution; larger skews concentrate the probability mass on
//! the smallest ranks.

use rand::Rng;

/// A Zipf(n, s) sampler over ranks `1..=n` using an explicit cumulative
/// distribution table (O(log n) per sample).
#[derive(Debug, Clone)]
pub struct Zipf {
    n: usize,
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a sampler over `1..=n` with the given skew `s >= 0`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `skew` is negative or not finite.
    pub fn new(n: usize, skew: f64) -> Self {
        assert!(n > 0, "Zipf domain must be non-empty");
        assert!(
            skew >= 0.0 && skew.is_finite(),
            "skew must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(skew);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { n, cdf }
    }

    /// Samples a rank in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // First index whose cumulative probability reaches u.
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf values are finite"))
        {
            Ok(i) => i + 1,
            Err(i) => (i + 1).min(self.n),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl Zipf {
        /// Probability of rank `r` (1-based); 0 outside the domain.
        fn probability(&self, r: usize) -> f64 {
            if r == 0 || r > self.n {
                return 0.0;
            }
            let prev = if r >= 2 { self.cdf[r - 2] } else { 0.0 };
            self.cdf[r - 1] - prev
        }
    }

    #[test]
    #[should_panic(expected = "domain must be non-empty")]
    fn rejects_empty_domain() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "skew must be finite")]
    fn rejects_negative_skew() {
        let _ = Zipf::new(10, -1.0);
    }

    #[test]
    fn probabilities_sum_to_one_and_decrease_with_rank() {
        let z = Zipf::new(100, 1.5);
        let total: f64 = (1..=100).map(|r| z.probability(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for r in 1..100 {
            assert!(z.probability(r) >= z.probability(r + 1));
        }
        assert_eq!(z.probability(0), 0.0);
        assert_eq!(z.probability(101), 0.0);
        assert_eq!(z.n, 100);
    }

    #[test]
    fn zero_skew_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for r in 1..=4 {
            assert!((z.probability(r) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn samples_stay_in_domain_and_match_distribution_roughly() {
        let z = Zipf::new(50, 2.0);
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = vec![0u64; 51];
        let n = 20_000;
        for _ in 0..n {
            let s = z.sample(&mut rng);
            assert!((1..=50).contains(&s));
            counts[s] += 1;
        }
        // With skew 2 the first rank should dominate (p1 ≈ 0.61).
        let p1 = counts[1] as f64 / n as f64;
        assert!(p1 > 0.5, "rank-1 frequency {p1}");
        // And the tail must be rare but present.
        assert!(counts[1] > counts[2]);
    }

    #[test]
    fn high_skew_concentrates_on_rank_one() {
        let z = Zipf::new(1_000, 4.0);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 1_000;
        let rank_one = (0..n).filter(|_| z.sample(&mut rng) == 1).count();
        // With skew 4 the first rank carries ~92% of the mass.
        assert!(rank_one as f64 > 0.85 * n as f64, "rank-1 count {rank_one}");
    }
}
