//! Deterministic "synthesis noise" for surrogate cost models.
//!
//! Real EDA results are rugged: two adjacent design points can synthesize to
//! noticeably different area/frequency because of placement, packing and
//! timing-closure artifacts (compare the scatter in the paper's Figure 1).
//! Surrogate models reproduce that ruggedness with *stateless* noise derived
//! from a hash of the genome, so a design point always synthesizes to the
//! same value regardless of visit order — exactly like re-running XST on the
//! same RTL.

use nautilus_ga::rng::{hash_genes, mix_to_unit, splitmix64};
use nautilus_ga::Genome;

/// A standard-normal deviate derived from hash `h` (Box–Muller), clamped to
/// ±4σ so a single point can never be an absurd outlier.
#[must_use]
pub fn gauss_from_hash(h: u64) -> f64 {
    let u1 = mix_to_unit(h).max(1e-12);
    let u2 = mix_to_unit(splitmix64(h));
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    z.clamp(-4.0, 4.0)
}

/// A multiplicative log-normal noise factor for `genome`.
///
/// `salt` decorrelates metrics (use a different salt per metric); `sigma` is
/// the log-standard-deviation (0.05–0.10 matches FPGA synthesis jitter).
/// The factor is `exp(sigma * z)` with `z` standard normal, so it is always
/// positive and has median 1.
///
/// ```
/// use nautilus_ga::Genome;
/// use nautilus_synth::noise::noise_factor;
/// let g = Genome::from_genes(vec![1, 2, 3]);
/// let f = noise_factor(&g, 0xA0EA, 0.08);
/// assert!(f > 0.0);
/// assert_eq!(f, noise_factor(&g, 0xA0EA, 0.08), "noise is deterministic");
/// ```
#[must_use]
pub fn noise_factor(genome: &Genome, salt: u64, sigma: f64) -> f64 {
    (sigma * gauss_from_hash(hash_genes(genome.genes(), salt))).exp()
}

/// A uniform deviate in `[lo, hi)` for `genome`, per `salt`.
#[must_use]
pub fn uniform_in(genome: &Genome, salt: u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * mix_to_unit(hash_genes(genome.genes(), salt))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauss_is_deterministic_and_bounded() {
        for i in 0..1000u64 {
            let z = gauss_from_hash(splitmix64(i));
            assert_eq!(z, gauss_from_hash(splitmix64(i)));
            assert!((-4.0..=4.0).contains(&z));
        }
    }

    #[test]
    fn gauss_has_roughly_standard_moments() {
        let n = 200_000u64;
        let samples: Vec<f64> = (0..n).map(|i| gauss_from_hash(splitmix64(i))).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|z| (z - mean) * (z - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn noise_factor_is_positive_with_median_near_one() {
        let mut factors: Vec<f64> =
            (0..10_001u32).map(|i| noise_factor(&Genome::from_genes(vec![i]), 7, 0.08)).collect();
        assert!(factors.iter().all(|&f| f > 0.0));
        factors.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = factors[factors.len() / 2];
        assert!((median - 1.0).abs() < 0.01, "median {median}");
        // 0.08 log-sigma keeps everything within a ~1.4x band at 4 sigma.
        assert!(factors.iter().all(|&f| (0.7..1.4).contains(&f)));
    }

    #[test]
    fn different_salts_decorrelate() {
        let g = Genome::from_genes(vec![1, 2, 3]);
        assert_ne!(noise_factor(&g, 1, 0.1), noise_factor(&g, 2, 0.1));
        assert_ne!(uniform_in(&g, 1, 0.0, 1.0), uniform_in(&g, 2, 0.0, 1.0));
    }

    #[test]
    fn uniform_in_respects_bounds() {
        for i in 0..1000u32 {
            let g = Genome::from_genes(vec![i, i + 1]);
            let v = uniform_in(&g, 3, 5.0, 9.0);
            assert!((5.0..9.0).contains(&v), "{v}");
        }
    }
}
