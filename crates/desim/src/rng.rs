//! Deterministic, splittable random number generation.
//!
//! Every stochastic element of the simulation (shot noise, Wi-Fi loss,
//! ambient-light jitter, virtual user-study subjects, payload contents)
//! draws from a [`DetRng`]. A `DetRng` can be *forked* into independent
//! child streams by label, so adding a new consumer never perturbs the
//! draws seen by existing ones — a property plain sequential sharing of one
//! RNG does not have, and which keeps regression baselines stable.
//!
//! The generator is xoshiro256++ seeded through SplitMix64, the standard
//! construction recommended by its authors. Implemented here directly (8
//! lines of core math) so the kernel stays dependency-free.

use crate::ziggurat;

/// A deterministic pseudo-random stream (xoshiro256++).
#[derive(Clone, Debug)]
pub struct DetRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Create a stream from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // xoshiro forbids the all-zero state; splitmix output of any seed
        // cannot be all zeros, but guard anyway.
        let mut rng = DetRng { s };
        if rng.s == [0; 4] {
            rng.s = [0x9E3779B97F4A7C15, 1, 2, 3];
        }
        rng
    }

    /// Derive an independent child stream identified by `label`.
    ///
    /// Forking hashes the parent state together with the label, so
    /// `fork("wifi")` and `fork("noise")` are decorrelated, and calling
    /// `fork` does not advance the parent stream.
    pub fn fork(&self, label: &str) -> DetRng {
        let mut h: u64 = 0xcbf29ce484222325; // FNV-1a offset basis
        for &b in label.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        for &w in &self.s {
            h ^= w;
            h = h.wrapping_mul(0x100000001b3);
        }
        DetRng::seed_from_u64(h)
    }

    /// Derive an independent child stream identified by an index
    /// (e.g. per-subject streams in the virtual user study).
    pub fn fork_idx(&self, index: u64) -> DetRng {
        self.fork(&format!("#{index}"))
    }

    /// Next raw 64-bit value (xoshiro256++ step).
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
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` via Lemire's rejection method
    /// (unbiased). Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// The integer form of [`chance`](Self::chance): for every state,
    /// `chance(p) == ((next_u64() >> 11) < chance_threshold(p))`.
    ///
    /// `next_f64` is the top 53 bits `m` times 2⁻⁵³, and scaling `p` by
    /// 2⁵³ is exact, so `m·2⁻⁵³ < p` holds exactly when `m < ⌈p·2⁵³⌉`.
    /// The threshold is 0 for NaN and `p ≤ 0` (never true) and 2⁵³ for
    /// `p ≥ 1` (always true). A caller drawing many Bernoullis at a few
    /// fixed probabilities computes the thresholds once and compares
    /// integers per draw.
    #[inline]
    pub fn chance_threshold(p: f64) -> u64 {
        const SCALE: f64 = (1u64 << 53) as f64;
        if p >= 1.0 {
            1 << 53
        } else if p > 0.0 {
            (p * SCALE).ceil() as u64
        } else {
            0
        }
    }

    /// Fill a byte slice with uniform random bytes.
    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        let mut chunks = out.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    /// Standard normal draw: 256-layer Marsaglia–Tsang ziggurat.
    ///
    /// One `next_u64` picks the layer (low 8 bits) and a signed uniform
    /// (top 52 bits); about 99% of draws return after a single compare.
    /// The rest fall in a layer's wedge (one more uniform and an `exp`) or,
    /// from the base layer, in the tail beyond `r ≈ 3.654` (Marsaglia's
    /// exponential rejection). The layer tables are `const` arrays.
    #[inline]
    pub fn next_gaussian(&mut self) -> f64 {
        let (i, x) = self.ziggurat_point();
        if x.abs() < ziggurat::X[i + 1] {
            x
        } else {
            self.gaussian_slow(i, x)
        }
    }

    /// A uniformly chosen layer and a point uniform across its full width.
    #[inline]
    fn ziggurat_point(&mut self) -> (usize, f64) {
        let bits = self.next_u64();
        let i = (bits & 0xff) as usize;
        // 52 mantissa bits in [2, 4), shifted to a uniform in [-1, 1).
        let u = f64::from_bits((bits >> 12) | 0x4000_0000_0000_0000) - 3.0;
        (i, u * ziggurat::X[i])
    }

    /// The ziggurat's rare paths, kept out of line: the base layer's tail,
    /// the wedge test, and a fresh point after a rejection.
    #[cold]
    #[inline(never)]
    fn gaussian_slow(&mut self, mut i: usize, mut x: f64) -> f64 {
        loop {
            if i == 0 {
                return self.normal_tail(x < 0.0);
            }
            let y = ziggurat::F[i + 1] + (ziggurat::F[i] - ziggurat::F[i + 1]) * self.next_f64();
            if y < (-0.5 * x * x).exp() {
                return x;
            }
            (i, x) = self.ziggurat_point();
            if x.abs() < ziggurat::X[i + 1] {
                return x;
            }
        }
    }

    /// A draw from the normal tail beyond `r`, negated if `negative`.
    fn normal_tail(&mut self, negative: bool) -> f64 {
        loop {
            // `1 - next_f64()` lies in (0, 1], so both logarithms are finite.
            let x = (1.0 - self.next_f64()).ln() / ziggurat::R;
            let y = (1.0 - self.next_f64()).ln();
            if -2.0 * y >= x * x {
                return if negative {
                    x - ziggurat::R
                } else {
                    ziggurat::R - x
                };
            }
        }
    }

    /// Normal draw with the given mean and standard deviation.
    pub fn next_normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.next_gaussian()
    }

    /// Poisson draw with mean `lambda`.
    ///
    /// Uses Knuth's product method for small `lambda` and a normal
    /// approximation above 64 (adequate for photon-counting with the
    /// photon fluxes the channel model produces).
    pub fn next_poisson(&mut self, lambda: f64) -> u64 {
        assert!(lambda >= 0.0, "lambda must be non-negative");
        if lambda == 0.0 {
            0
        } else if lambda < 64.0 {
            let limit = (-lambda).exp();
            let mut product = self.next_f64();
            let mut count = 0u64;
            while product > limit {
                count += 1;
                product *= self.next_f64();
            }
            count
        } else {
            let x = self.next_normal(lambda, lambda.sqrt()).round();
            if x < 0.0 {
                0
            } else {
                x as u64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = DetRng::seed_from_u64(7);
        let mut b = DetRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed_from_u64(1);
        let mut b = DetRng::seed_from_u64(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn fork_is_stable_and_independent() {
        let root = DetRng::seed_from_u64(42);
        let mut w1 = root.fork("wifi");
        let mut w2 = root.fork("wifi");
        let mut n = root.fork("noise");
        assert_eq!(w1.next_u64(), w2.next_u64(), "same label, same stream");
        assert_ne!(w1.next_u64(), n.next_u64(), "labels decorrelate");
        // Forking does not consume parent state.
        let mut r1 = DetRng::seed_from_u64(42);
        let mut r2 = DetRng::seed_from_u64(42);
        let _ = r2.fork("anything");
        assert_eq!(r1.next_u64(), r2.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_is_half() {
        let mut r = DetRng::seed_from_u64(4);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn next_below_is_in_range_and_roughly_uniform() {
        let mut r = DetRng::seed_from_u64(5);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.next_below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "counts={counts:?}");
        }
    }

    #[test]
    fn chance_matches_probability() {
        let mut r = DetRng::seed_from_u64(6);
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        assert!((28_000..32_000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn gaussian_moments() {
        let mut r = DetRng::seed_from_u64(8);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.next_gaussian()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean={mean}");
        assert!((var - 1.0).abs() < 0.02, "var={var}");
    }

    /// Complementary error function (Numerical Recipes `erfcc`, relative
    /// error below 1.2e-7 everywhere): accurate enough for KS distances
    /// around 1e-3 and tail masses at 4σ.
    fn erfc(x: f64) -> f64 {
        let z = x.abs();
        let t = 1.0 / (1.0 + 0.5 * z);
        let poly = -z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77))))))));
        let r = t * poly.exp();
        if x >= 0.0 {
            r
        } else {
            2.0 - r
        }
    }

    /// Standard normal CDF Φ.
    fn phi(x: f64) -> f64 {
        0.5 * erfc(-x / core::f64::consts::SQRT_2)
    }

    #[test]
    fn ziggurat_passes_kolmogorov_smirnov_against_phi() {
        let mut r = DetRng::seed_from_u64(13);
        let n = 1_000_000;
        let mut xs: Vec<f64> = (0..n).map(|_| r.next_gaussian()).collect();
        xs.sort_by(f64::total_cmp);
        let nf = n as f64;
        let d = xs
            .iter()
            .enumerate()
            .map(|(k, &x)| {
                let c = phi(x);
                (c - k as f64 / nf).max((k + 1) as f64 / nf - c)
            })
            .fold(0.0, f64::max);
        // KS critical value at significance 0.001 is 1.949 / sqrt(n).
        assert!(d < 1.949 / nf.sqrt(), "D = {d}");
    }

    #[test]
    fn ziggurat_tail_mass_matches_the_normal() {
        // |z| > 4 lies past r ≈ 3.654, so every such draw comes from the
        // base layer's tail branch.
        let mut r = DetRng::seed_from_u64(14);
        let n = 2_000_000;
        let (mut over3, mut over4) = (0u64, 0u64);
        for _ in 0..n {
            let z = r.next_gaussian().abs();
            over3 += u64::from(z > 3.0);
            over4 += u64::from(z > 4.0);
        }
        for (count, t) in [(over3, 3.0), (over4, 4.0)] {
            let p = 2.0 * phi(-t);
            let expected = p * n as f64;
            let sd = (expected * (1.0 - p)).sqrt();
            // Five binomial standard deviations.
            assert!(
                (count as f64 - expected).abs() < 5.0 * sd,
                "P(|z|>{t}): {count} draws, expected {expected:.1} ± {sd:.1}"
            );
        }
    }

    #[test]
    fn ziggurat_tables_satisfy_the_layer_recurrence() {
        use crate::ziggurat::{F, R, X};
        let f = |x: f64| (-0.5 * x * x).exp();
        assert_eq!((X[1], X[256], F[256]), (R, 0.0, 1.0));
        // The base strip holds the rectangle under f(r) plus the tail.
        let v = X[0] * f(R);
        let tail = (core::f64::consts::PI / 2.0).sqrt() * erfc(R / core::f64::consts::SQRT_2);
        assert!((v - (R * f(R) + tail)).abs() < 1e-6 * v, "v = {v}");
        // Every other layer has the same area.
        for i in 1..256 {
            let area = X[i] * (F[i + 1] - F[i]);
            assert!((area - v).abs() < 1e-9 * v, "layer {i}: {area} vs {v}");
        }
        for i in 0..257 {
            assert!((F[i] - f(X[i])).abs() < 1e-15, "F[{i}]");
        }
    }

    #[test]
    fn poisson_moments_small_lambda() {
        let mut r = DetRng::seed_from_u64(9);
        let lambda = 3.5;
        let n = 100_000;
        let xs: Vec<u64> = (0..n).map(|_| r.next_poisson(lambda)).collect();
        let mean = xs.iter().sum::<u64>() as f64 / n as f64;
        let var = xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - lambda).abs() < 0.05, "mean={mean}");
        assert!((var - lambda).abs() < 0.15, "var={var}");
    }

    #[test]
    fn poisson_large_lambda_uses_normal_approx() {
        let mut r = DetRng::seed_from_u64(10);
        let lambda = 10_000.0;
        let n = 10_000;
        let mean = (0..n).map(|_| r.next_poisson(lambda)).sum::<u64>() as f64 / n as f64;
        assert!((mean - lambda).abs() < 10.0, "mean={mean}");
    }

    #[test]
    fn poisson_zero_lambda() {
        let mut r = DetRng::seed_from_u64(11);
        assert_eq!(r.next_poisson(0.0), 0);
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = DetRng::seed_from_u64(12);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
        // Deterministic.
        let mut r2 = DetRng::seed_from_u64(12);
        let mut buf2 = [0u8; 13];
        r2.fill_bytes(&mut buf2);
        assert_eq!(buf, buf2);
    }
}
