//! Deterministic seeding and hashing utilities.
//!
//! Every stochastic component in the workspace takes an explicit `u64` seed.
//! Experiments that average over many runs derive per-run seeds with
//! [`derive_seed`], and surrogate cost models derive *stateless* per-design
//! "synthesis noise" from [`splitmix64`] so that a design point always
//! synthesizes to the same numbers, independent of search order.
//! [`SearchRng`] is the one sequential generator, and [`check_cases`] runs
//! property tests over it.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// Advances `x` through one round of the SplitMix64 permutation.
///
/// SplitMix64 is a small, high-quality 64-bit mixing function (Steele et al.,
/// "Fast splittable pseudorandom number generators", OOPSLA'14). It is used
/// here as a hash, not as a sequential generator.
///
/// ```
/// use nautilus_ga::rng::splitmix64;
/// assert_ne!(splitmix64(1), splitmix64(2));
/// assert_eq!(splitmix64(42), splitmix64(42));
/// ```
#[inline]
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent seed for logical stream `stream` from `base`.
///
/// Used to fan one experiment seed out into per-run, per-thread, or
/// per-strategy seeds without correlation between streams.
///
/// ```
/// use nautilus_ga::rng::derive_seed;
/// let a = derive_seed(7, 0);
/// let b = derive_seed(7, 1);
/// assert_ne!(a, b);
/// assert_eq!(a, derive_seed(7, 0));
/// ```
#[inline]
#[must_use]
pub fn derive_seed(base: u64, stream: u64) -> u64 {
    splitmix64(base ^ splitmix64(stream.wrapping_add(0xA076_1D64_78BD_642F)))
}

/// Maps a hash to a float uniformly distributed in `[0, 1)`.
///
/// ```
/// use nautilus_ga::rng::{mix_to_unit, splitmix64};
/// let u = mix_to_unit(splitmix64(123));
/// assert!((0.0..1.0).contains(&u));
/// ```
#[inline]
#[must_use]
pub fn mix_to_unit(h: u64) -> f64 {
    // 53 high bits -> [0,1) with full double precision.
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Maps a hash to a float uniformly distributed in `[-1, 1)`.
#[inline]
#[must_use]
pub fn mix_to_signed_unit(h: u64) -> f64 {
    mix_to_unit(h) * 2.0 - 1.0
}

/// Combines hash inputs into one 64-bit hash (order dependent).
///
/// ```
/// use nautilus_ga::rng::hash_combine;
/// assert_ne!(hash_combine(1, 2), hash_combine(2, 1));
/// ```
#[inline]
#[must_use]
pub fn hash_combine(a: u64, b: u64) -> u64 {
    splitmix64(a ^ b.rotate_left(17).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Hashes a slice of gene indices together with a `salt`.
///
/// Cost models use this to produce deterministic per-design noise that is
/// uncorrelated between metrics (different salts).
#[must_use]
pub fn hash_genes(genes: &[u32], salt: u64) -> u64 {
    let mut h = splitmix64(salt);
    for (i, &g) in genes.iter().enumerate() {
        h = hash_combine(h, splitmix64((g as u64) << 32 | i as u64));
    }
    h
}

/// A std-only [`Hasher`](std::hash::Hasher) for gene rows.
///
/// Each 64-bit word of input is folded into the state with a rotate, an
/// xor and a multiply, and [`finish`](std::hash::Hasher::finish) runs the
/// state through [`splitmix64`]. It keys [`EvalCache`](crate::EvalCache)
/// and the engine's per-batch miss index, which hash a short `u32` row on
/// every lookup, where SipHash's per-call setup and rounds dominate. It
/// resists no adversary; its keys are genomes the search drew itself.
///
/// ```
/// use std::collections::HashMap;
/// use nautilus_ga::rng::RowBuildHasher;
/// let mut map: HashMap<Vec<u32>, u8, RowBuildHasher> = HashMap::default();
/// map.insert(vec![3, 1, 4], 7);
/// assert_eq!(map.get([3u32, 1, 4].as_slice()), Some(&7));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RowHasher(u64);

impl RowHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl std::hash::Hasher for RowHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    /// Slices hash their length through this before their elements.
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        splitmix64(self.0)
    }
}

/// Builds [`RowHasher`]s: the `S` parameter of the row-keyed maps.
pub type RowBuildHasher = std::hash::BuildHasherDefault<RowHasher>;

/// Runs the property `case` on `cases` seeded inputs.
///
/// Case `k` draws its inputs from
/// `SearchRng::seed_from_u64(derive_seed(base, k))`, where `base` hashes
/// `name`, so every run of a property sees the same cases. There is no
/// shrinking: a panicking case is re-raised naming the property, `k` and
/// the case seed, from which that one case replays on its own.
///
/// ```
/// use nautilus_ga::rng::check_cases;
/// check_cases("below_stays_in_range", 64, |rng| {
///     let n = 1 + rng.below(100);
///     assert!(rng.below(n) < n);
/// });
/// ```
///
/// # Panics
///
/// Panics if any case panics.
pub fn check_cases(name: &str, cases: u64, mut case: impl FnMut(&mut SearchRng)) {
    let base = name.bytes().fold(0, |h, b| hash_combine(h, u64::from(b)));
    for k in 0..cases {
        let seed = derive_seed(base, k);
        let mut rng = SearchRng::seed_from_u64(seed);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| case(&mut rng))) {
            let why = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            panic!("property {name} failed at case {k} (seed {seed:#018x}): {why}");
        }
    }
}

/// The workspace's random source: xoshiro256** seeded via SplitMix64,
/// with its own draws.
///
/// [`GaEngine`](crate::GaEngine) owns its whole random stream through this
/// type rather than an opaque library generator so that the exact stream
/// position can be captured into a checkpoint ([`SearchRng::state`]) and
/// restored on resume ([`SearchRng::from_state`]) — a resumed run then
/// draws the very same numbers an uninterrupted run would have drawn.
/// The draws ([`unit`](SearchRng::unit), [`below`](SearchRng::below),
/// [`chance`](SearchRng::chance)) are defined here too, so no library
/// upgrade can change what a seed or a resumed checkpoint draws; every
/// recorded outcome depends on that.
///
/// ```
/// use nautilus_ga::rng::SearchRng;
/// let mut a = SearchRng::seed_from_u64(42);
/// let saved = a.state();
/// let expect: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
/// let mut b = SearchRng::from_state(saved);
/// let replay: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
/// assert_eq!(expect, replay);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchRng {
    s: [u64; 4],
}

impl SearchRng {
    /// Expands a 64-bit seed into the full generator state with four
    /// rounds of SplitMix64.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> SearchRng {
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SearchRng { s: [next(), next(), next(), next()] }
    }

    /// The current stream position, suitable for checkpointing.
    #[must_use]
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator at a previously captured stream position.
    ///
    /// The all-zero state is the xoshiro fixed point (it only ever emits
    /// zero); it cannot arise from [`SearchRng::seed_from_u64`], so a
    /// restored checkpoint never hits it.
    #[must_use]
    pub fn from_state(s: [u64; 4]) -> SearchRng {
        SearchRng { s }
    }

    /// The next word of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform float in `[0, 1)` from the top 53 bits of the next word
    /// (the [`mix_to_unit`] mapping).
    #[inline]
    pub fn unit(&mut self) -> f64 {
        mix_to_unit(self.next_u64())
    }

    /// A uniform integer in `[0, n)`: the high word of the next word times
    /// `n`. There is no rejection step, so each draw takes exactly one
    /// word; the bias is below `n / 2^64`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "cannot draw below 0");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// `true` with probability `p`: a [`SearchRng::unit`] draw below `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`, NaN included.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        self.unit() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        let a = splitmix64(0);
        let b = splitmix64(1);
        assert_eq!(a, splitmix64(0));
        assert_ne!(a, b);
        // Avalanche sanity: flipping one input bit flips many output bits.
        let diff = (a ^ b).count_ones();
        assert!(diff > 16, "weak diffusion: {diff} bits");
    }

    #[test]
    fn derived_seeds_are_distinct_across_streams() {
        let base = 0xDEAD_BEEF;
        let mut seen = std::collections::HashSet::new();
        for s in 0..1000 {
            assert!(seen.insert(derive_seed(base, s)), "collision at stream {s}");
        }
    }

    #[test]
    fn unit_mapping_stays_in_range() {
        for i in 0..10_000u64 {
            let u = mix_to_unit(splitmix64(i));
            assert!((0.0..1.0).contains(&u), "{u} out of range");
            let s = mix_to_signed_unit(splitmix64(i));
            assert!((-1.0..1.0).contains(&s), "{s} out of range");
        }
    }

    #[test]
    fn unit_mapping_is_roughly_uniform() {
        let n = 100_000u64;
        let mean: f64 = (0..n).map(|i| mix_to_unit(splitmix64(i))).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} far from 0.5");
    }

    #[test]
    fn hash_genes_sensitive_to_position_value_and_salt() {
        let a = hash_genes(&[1, 2, 3], 0);
        assert_ne!(a, hash_genes(&[3, 2, 1], 0));
        assert_ne!(a, hash_genes(&[1, 2, 3], 1));
        assert_ne!(a, hash_genes(&[1, 2], 0));
        assert_eq!(a, hash_genes(&[1, 2, 3], 0));
    }

    #[test]
    fn search_rng_draws_match_the_pinned_stream() {
        // Every recorded outcome and checkpoint was drawn from this
        // stream; a change here moves every search result.
        let words = |seed| {
            let mut rng = SearchRng::seed_from_u64(seed);
            [rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()]
        };
        assert_eq!(
            words(0),
            [
                0x99EC_5F36_CB75_F2B4,
                0xBF6E_1F78_4956_452A,
                0x1A5F_849D_4933_E6E0,
                0x6AA5_94F1_262D_2D2C
            ]
        );
        assert_eq!(
            words(42),
            [
                0x1578_0B2E_0C2E_C716,
                0x6104_D986_6D11_3A7E,
                0xAE17_5332_39E4_99A1,
                0xECB8_AD47_03B3_60A1
            ]
        );

        let mut rng = SearchRng::seed_from_u64(7);
        let units: Vec<f64> = (0..4).map(|_| rng.unit()).collect();
        assert_eq!(
            units,
            [0.7005764821796896, 0.2787512294737843, 0.8396274618764198, 0.9810977250149351]
        );

        let below = |n| {
            let mut rng = SearchRng::seed_from_u64(9);
            (0..6).map(|_| rng.below(n)).collect::<Vec<u64>>()
        };
        assert_eq!(below(1), [0; 6]);
        assert_eq!(below(3), [0, 0, 0, 2, 2, 2]);
        assert_eq!(below(10), [0, 2, 1, 7, 9, 7]);
        assert_eq!(
            below((1 << 32) + 1),
            [11_095_788, 1_080_138_630, 568_921_032, 3_146_898_595, 3_953_882_547, 3_197_211_068]
        );

        let mut rng = SearchRng::seed_from_u64(11);
        for _ in 0..1_000 {
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.0));
        }
    }

    #[test]
    fn search_rng_rejects_empty_ranges_and_bad_probabilities() {
        let rng = SearchRng::seed_from_u64(3);
        assert!(catch_unwind(|| rng.clone().below(0)).is_err(), "below(0) must panic");
        for p in [-0.1, 1.5, f64::NAN] {
            assert!(catch_unwind(|| rng.clone().chance(p)).is_err(), "chance({p}) must panic");
        }
    }

    #[test]
    fn search_rng_state_round_trips_mid_stream() {
        let mut rng = SearchRng::seed_from_u64(1234);
        for _ in 0..37 {
            rng.next_u64();
        }
        let saved = rng.state();
        let tail: Vec<u64> = (0..64).map(|_| rng.next_u64()).collect();
        let mut resumed = SearchRng::from_state(saved);
        let replay: Vec<u64> = (0..64).map(|_| resumed.next_u64()).collect();
        assert_eq!(tail, replay, "resumed stream must continue exactly");
    }

    #[test]
    fn check_cases_runs_every_case_on_the_same_inputs() {
        let draws = || {
            let mut seen = Vec::new();
            check_cases("records_its_inputs", 40, |rng| seen.push(rng.next_u64()));
            seen
        };
        let first = draws();
        assert_eq!(first.len(), 40);
        assert_eq!(first, draws(), "a rerun must draw identical inputs");
        let distinct: std::collections::HashSet<u64> = first.iter().copied().collect();
        assert_eq!(distinct.len(), 40, "cases must draw from distinct seeds");
    }

    #[test]
    #[should_panic(
        expected = "property fails_at_case_three failed at case 3 (seed 0xd56749b008094889): boom"
    )]
    fn check_cases_names_the_failing_property_case_and_seed() {
        let mut k = 0;
        check_cases("fails_at_case_three", 10, |rng| {
            if k == 3 {
                let replay = SearchRng::seed_from_u64(0xD567_49B0_0809_4889);
                assert_eq!(*rng, replay, "the reported seed must replay the case");
                panic!("boom");
            }
            k += 1;
        });
    }
}
