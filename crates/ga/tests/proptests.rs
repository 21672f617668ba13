//! Property-based tests for the GA substrate's core invariants.

use std::ops::Range;

use nautilus_ga::checkpoint::SearchState;
use nautilus_ga::ops::{CrossoverOp, MutationOp, OpCtx};
use nautilus_ga::rng::{check_cases, SearchRng};
use nautilus_ga::{
    CacheSnapshot, Direction, EvalCache, FnFitness, GaEngine, GaSettings, GenStats, Genome,
    OnePointCrossover, ParamDomain, ParamSpace, ParamValue, StepMutation, TwoPointCrossover,
    UniformCrossover, UniformMutation,
};

/// A vector of `len` (half-open) values drawn by `draw`.
fn vec_of<T>(
    rng: &mut SearchRng,
    len: Range<u64>,
    mut draw: impl FnMut(&mut SearchRng) -> T,
) -> Vec<T> {
    let n = len.start + rng.below(len.end - len.start);
    (0..n).map(|_| draw(rng)).collect()
}

/// A label of `min..=max` characters from `alphabet`.
fn label(rng: &mut SearchRng, alphabet: &[u8], min: u64, max: u64) -> String {
    let n = min + rng.below(max - min + 1);
    (0..n).map(|_| char::from(alphabet[rng.below(alphabet.len() as u64) as usize])).collect()
}

/// `None` or `Some(draw(rng))`, evenly.
fn option<T>(rng: &mut SearchRng, draw: impl FnOnce(&mut SearchRng) -> T) -> Option<T> {
    if rng.chance(0.5) {
        None
    } else {
        Some(draw(rng))
    }
}

/// Any `f64` bit pattern, with NaNs (random sign and payload), ±∞, ±0
/// and subnormals each drawn often.
fn any_f64(rng: &mut SearchRng) -> f64 {
    match rng.below(8) {
        0 => f64::from_bits(rng.next_u64() | 0x7FF0_0000_0000_0001),
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => f64::from_bits(rng.next_u64() & (1 << 63)),
        4 => f64::from_bits(rng.next_u64() & !(0x7FF << 52)),
        _ => f64::from_bits(rng.next_u64()),
    }
}

/// An arbitrary valid domain with 1..=12 values.
fn arb_domain(rng: &mut SearchRng) -> ParamDomain {
    match rng.below(5) {
        0 => {
            let lo = rng.below(50) as i64;
            let n = 1 + rng.below(11) as i64;
            let step = 1 + rng.below(4) as i64;
            ParamDomain::IntRange { lo, hi: lo + step * (n - 1), step }
        }
        1 => {
            let lo = rng.below(8) as u32;
            ParamDomain::Pow2 { lo_log2: lo, hi_log2: lo + rng.below(4) as u32 }
        }
        2 => {
            let mut v = vec_of(rng, 1..10, |rng| rng.below(200) as i64 - 100);
            v.sort_unstable();
            v.dedup();
            ParamDomain::IntList(v)
        }
        3 => {
            let mut v = vec_of(rng, 1..6, |rng| label(rng, b"abcdefghijklmnopqrstuvwxyz", 1, 6));
            v.sort();
            v.dedup();
            ParamDomain::Choices(v)
        }
        _ => ParamDomain::Flag,
    }
}

/// A valid space of 1..=7 parameters.
fn arb_space(rng: &mut SearchRng) -> ParamSpace {
    let mut b = ParamSpace::builder();
    for (i, d) in vec_of(rng, 1..8, arb_domain).into_iter().enumerate() {
        b = b.param(format!("p{i}"), d);
    }
    b.build().expect("generated domains are valid")
}

/// An arbitrary genome of 1..=5 genes.
fn arb_genome(rng: &mut SearchRng) -> Genome {
    Genome::from_genes(vec_of(rng, 1..6, |rng| rng.next_u64() as u32))
}

/// An arbitrary cache snapshot (entries may carry NaN and infinities — the
/// codec must round-trip them bit-exactly).
fn arb_cache_snapshot(rng: &mut SearchRng) -> CacheSnapshot {
    CacheSnapshot {
        entries: vec_of(rng, 0..8, |rng| (arb_genome(rng), option(rng, any_f64))),
        quarantined: vec_of(rng, 0..4, arb_genome),
        hits: rng.next_u64(),
        feasible_misses: rng.next_u64(),
        infeasible_misses: rng.next_u64(),
    }
}

/// An arbitrary (structurally plausible) search state.
fn arb_state(rng: &mut SearchRng) -> SearchState {
    let words =
        |rng: &mut SearchRng| [rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()];
    let seed = rng.next_u64();
    let run_label = label(rng, b"abcdefghijklmnopqrstuvwxyz-", 1, 10);
    let generation = 1 + rng.below(40) as u32;
    let state_words = words(rng);
    let population = vec_of(rng, 1..6, arb_genome);
    let history = vec_of(rng, 0..6, |rng| GenStats {
        generation: rng.next_u64() as u32,
        distinct_evals: rng.next_u64(),
        best_value: any_f64(rng),
        mean_value: any_f64(rng),
        best_so_far: any_f64(rng),
    });
    let best_genome = option(rng, arb_genome);
    let best_value = any_f64(rng);
    let init_attempts = rng.below(10_000) as usize;
    let cache = arb_cache_snapshot(rng);
    let fault_attempts = words(rng);
    let aux = vec_of(rng, 0..3, |rng| {
        let key = label(rng, b"abcdefghijklmnopqrstuvwxyz.", 1, 12);
        (key, vec_of(rng, 0..32, |rng| rng.next_u64() as u8))
    });
    let faults = nautilus_ga::FaultStats {
        failed_attempts: [
            fault_attempts[0] % 1000,
            fault_attempts[1] % 1000,
            fault_attempts[2] % 1000,
            fault_attempts[3] % 1000,
        ],
        retries: fault_attempts[0] % 97,
        ..Default::default()
    };
    SearchState {
        seed,
        run_label,
        settings: GaSettings::default(),
        generation,
        rng: state_words,
        population,
        history,
        best_genome,
        best_value,
        init_attempts,
        cache,
        faults,
        aux,
    }
}

/// Arbitrary search states (NaN fitness values, empty caches, aux blobs,
/// ...) encode → decode to the identical state. Equality is checked on
/// the canonical re-encoding so NaN compares bit-wise rather than by IEEE
/// semantics.
#[test]
fn checkpoint_state_round_trips() {
    check_cases("checkpoint_state_round_trips", 256, |rng| {
        let record = arb_state(rng).encode();
        let decoded = SearchState::decode(&record).expect("intact record must decode");
        assert_eq!(decoded.encode(), record);
    });
}

/// Every single-bit corruption anywhere in a checkpoint record is detected
/// — by magic/version/length checks or by the CRC (which catches all
/// single-bit errors by construction). Corruption is never silently
/// accepted. Each case sweeps every bit of a whole record (tens of
/// thousands of decodes), so it runs fewer cases than the default.
#[test]
fn every_single_bit_corruption_is_detected() {
    check_cases("every_single_bit_corruption_is_detected", 12, |rng| {
        let record = arb_state(rng).encode();
        for byte in 0..record.len() {
            for bit in 0..8u8 {
                let mut corrupt = record.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    SearchState::decode(&corrupt).is_err(),
                    "flip at byte {byte} bit {bit} was silently accepted"
                );
            }
        }
    });
}

/// The evaluation cache itself survives snapshot → restore → snapshot
/// unchanged, and a restored cache behaves identically (same stats, same
/// memoized answers).
#[test]
fn cache_snapshot_restore_is_lossless() {
    check_cases("cache_snapshot_restore_is_lossless", 12, |rng| {
        // Deduplicate keys the way a real cache would have (a HashMap
        // cannot hold two values for one genome).
        let mut seen = std::collections::HashSet::new();
        let mut canon = arb_cache_snapshot(rng);
        canon.entries.retain(|(g, _)| seen.insert(g.clone()));
        canon.entries.sort_by(|a, b| a.0.genes().cmp(b.0.genes()));
        canon.quarantined.retain(|g| seen.contains(g));
        let mut qseen = std::collections::HashSet::new();
        canon.quarantined.retain(|g| qseen.insert(g.clone()));
        canon.quarantined.sort_by(|a, b| a.genes().cmp(b.genes()));

        let cache = EvalCache::restore(&canon);
        let again = cache.snapshot();
        assert_eq!(again.entries.len(), canon.entries.len());
        assert_eq!(again.quarantined.len(), canon.quarantined.len());
        assert_eq!(again.hits, canon.hits);
        assert_eq!(again.feasible_misses, canon.feasible_misses);
        assert_eq!(again.infeasible_misses, canon.infeasible_misses);
        for (g, v) in &canon.entries {
            let got = cache.peek(g.genes()).expect("entry must be present");
            match (got, v) {
                (Some(a), Some(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                (None, None) => {}
                other => panic!("value mismatch: {other:?}"),
            }
        }
    });
}

/// Every domain value round-trips through value() / index_of().
#[test]
fn domain_value_index_round_trip() {
    check_cases("domain_value_index_round_trip", 256, |rng| {
        let domain = arb_domain(rng);
        for i in 0..domain.cardinality() {
            let v = domain.value(i);
            assert_eq!(domain.index_of(&v), Some(i));
        }
    });
}

/// flat_index() and genome_at() are inverse bijections over the space.
#[test]
fn flat_index_bijection() {
    check_cases("flat_index_bijection", 256, |rng| {
        let space = arb_space(rng);
        for _ in 0..32 {
            let g = space.random_genome(rng);
            let idx = space.flat_index(&g);
            assert!(idx < space.cardinality());
            assert_eq!(space.genome_at(idx), g);
        }
    });
}

/// decode() always produces values that re-encode to the same genome.
#[test]
fn decode_encode_round_trip() {
    check_cases("decode_encode_round_trip", 256, |rng| {
        let space = arb_space(rng);
        let g = space.random_genome(rng);
        let dp = space.decode(&g);
        let pairs: Vec<(&str, ParamValue)> =
            dp.pairs().iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
        let g2 = space.genome_from_values(pairs).unwrap();
        assert_eq!(g2, g);
    });
}

/// Mutation never leaves the space, at any rate.
#[test]
fn mutation_stays_in_space() {
    check_cases("mutation_stays_in_space", 256, |rng| {
        let space = arb_space(rng);
        let rate = rng.unit();
        let ops: [Box<dyn MutationOp>; 2] =
            [Box::new(UniformMutation::new(rate)), Box::new(StepMutation::new(rate, 3))];
        for op in &ops {
            let mut g = space.random_genome(rng);
            for gen in 0..16 {
                op.mutate(&mut g, &space, &OpCtx::new(gen, 16), rng);
                assert!(space.contains(&g), "{} left the space", op.name());
            }
        }
    });
}

/// Crossover children are gene-wise permutations of their parents.
#[test]
fn crossover_conserves_gene_pool() {
    check_cases("crossover_conserves_gene_pool", 256, |rng| {
        let space = arb_space(rng);
        let a = space.random_genome(rng);
        let b = space.random_genome(rng);
        let ops: [Box<dyn CrossoverOp>; 3] = [
            Box::new(OnePointCrossover),
            Box::new(TwoPointCrossover),
            Box::new(UniformCrossover::default()),
        ];
        for op in &ops {
            let (mut ca, mut cb) = (a.clone(), b.clone());
            op.crossover(&mut ca, &mut cb, &space, &OpCtx::new(0, 1), rng);
            assert!(space.contains(&ca));
            assert!(space.contains(&cb));
            for i in 0..a.len() {
                let parents = [a.gene_at(i), b.gene_at(i)];
                let kids = [ca.gene_at(i), cb.gene_at(i)];
                assert!(
                    kids == parents || kids == [parents[1], parents[0]],
                    "{} lost genes at {i}",
                    op.name()
                );
            }
        }
    });
}

/// A full GA run is deterministic in its seed and its best_so_far curve
/// never regresses, on an arbitrary space with an arbitrary linear fitness
/// function.
#[test]
fn ga_run_invariants() {
    check_cases("ga_run_invariants", 256, |rng| {
        let space = arb_space(rng);
        let seed = rng.next_u64();
        let w = rng.unit() * 10.0 - 5.0;
        let fitness = FnFitness::new(Direction::Minimize, move |g: &Genome| {
            Some(
                g.genes()
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| w * (i as f64 + 1.0) * f64::from(v))
                    .sum(),
            )
        });
        let settings = GaSettings { generations: 12, ..GaSettings::default() };
        let engine = GaEngine::new(&space, &fitness).with_settings(settings);
        let r1 = engine.run(seed).unwrap();
        let r2 = engine.run(seed).unwrap();
        assert_eq!(&r1.history, &r2.history);
        assert_eq!(&r1.best_genome, &r2.best_genome);
        for pair in r1.history.windows(2) {
            assert!(pair[1].best_so_far <= pair[0].best_so_far);
            assert!(pair[1].distinct_evals >= pair[0].distinct_evals);
        }
        assert!(space.contains(&r1.best_genome));
    });
}

/// Parallel batch evaluation is an implementation detail: at 1, 2 and 8
/// workers (and auto), runs are bit-for-bit identical to the serial engine
/// — same history, same best genome, same cache counters.
#[test]
fn batched_eval_is_worker_count_invariant() {
    check_cases("batched_eval_is_worker_count_invariant", 256, |rng| {
        let space = arb_space(rng);
        let seed = rng.next_u64();
        let w = rng.unit() * 10.0 - 5.0;
        let fitness = FnFitness::new(Direction::Minimize, move |g: &Genome| {
            let v: f64 = g
                .genes()
                .iter()
                .enumerate()
                .map(|(i, &x)| w * (i as f64 + 1.0) * f64::from(x))
                .sum();
            if v < -400.0 {
                None
            } else {
                Some(v)
            }
        });
        let base = GaSettings { generations: 8, ..GaSettings::default() };
        let serial = GaEngine::new(&space, &fitness).with_settings(base);
        let reference = match serial.run(seed) {
            Ok(run) => run,
            // Heavily infeasible spaces may fail to seed a population;
            // the parallel engines must then fail identically.
            Err(_) => {
                for workers in [2usize, 8] {
                    let settings = GaSettings { eval_workers: workers, ..base };
                    assert!(GaEngine::new(&space, &fitness)
                        .with_settings(settings)
                        .run(seed)
                        .is_err());
                }
                return;
            }
        };
        for workers in [0usize, 2, 8] {
            let settings = GaSettings { eval_workers: workers, ..base };
            let run = GaEngine::new(&space, &fitness).with_settings(settings).run(seed).unwrap();
            assert_eq!(&run.history, &reference.history, "workers={workers}");
            assert_eq!(&run.best_genome, &reference.best_genome);
            assert_eq!(run.cache, reference.cache);
        }
    });
}
