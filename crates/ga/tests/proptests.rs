//! Property-based tests for the GA substrate's core invariants.

use std::collections::HashMap;
use std::ops::Range;
use std::path::PathBuf;

use nautilus_ga::ops::{CrossoverOp, MutationOp, OpCtx};
use nautilus_ga::rng::{check_cases, SearchRng};
use nautilus_ga::{
    CheckpointStore, Direction, FnFitness, GaEngine, GaSettings, Genome, OnePointCrossover,
    ParamDomain, ParamSpace, ParamValue, StepMutation, TwoPointCrossover, UniformCrossover,
    UniformMutation,
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

/// A journal the engine wrote for a run of arbitrary seed and label,
/// holding 0..5 arbitrary replies (genes, attempt, bytes), and the replies
/// it must answer: the first recorded per key.
struct ArbJournal {
    dir: PathBuf,
    seed: u64,
    label: String,
    replies: HashMap<(Vec<u32>, u32), Vec<u8>>,
}

fn arb_journal(rng: &mut SearchRng, tag: &str) -> ArbJournal {
    let dir = std::env::temp_dir().join(format!("nautilus-prop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let seed = rng.next_u64();
    let label = label(rng, b"abcdefghijklmnopqrstuvwxyz-", 1, 10);
    let store = CheckpointStore::create(&dir).unwrap();
    let mut replies = HashMap::new();
    for _ in 0..rng.below(5) {
        let genome = arb_genome(rng);
        let attempt = rng.next_u64() as u32;
        let reply = vec_of(rng, 0..24, |rng| rng.next_u64() as u8);
        store.journal().record(&genome, attempt, reply.clone());
        replies.entry((genome.genes().to_vec(), attempt)).or_insert(reply);
    }
    // A zero-generation run scores its initial population and appends
    // the recorded replies as that batch ends.
    let space = ParamSpace::builder().int("x", 0, 7, 1).build().unwrap();
    let f = FnFitness::new(Direction::Minimize, |g: &Genome| Some(f64::from(g.gene_at(0))));
    GaEngine::new(&space, &f)
        .with_settings(GaSettings { generations: 0, ..GaSettings::default() })
        .with_run_label(label.clone())
        .with_checkpoints(store)
        .run(seed)
        .unwrap();
    ArbJournal { dir, seed, label, replies }
}

/// How many of `want`'s replies `store` answers; panics on any it
/// answers differently.
fn answered(store: &CheckpointStore, want: &HashMap<(Vec<u32>, u32), Vec<u8>>) -> usize {
    let journal = store.journal();
    let mut found = 0;
    for ((genes, attempt), reply) in want {
        if let Some(got) = journal.reply(&Genome::from_genes(genes.clone()), *attempt) {
            assert_eq!(got, reply.as_slice(), "reply for {genes:?}/{attempt} changed");
            found += 1;
        }
    }
    found
}

/// Arbitrary journals (any seed and label, empty and odd-length replies,
/// any attempt number) read back to exactly the run identity and replies
/// that were written.
#[test]
fn checkpoint_state_round_trips() {
    check_cases("checkpoint_state_round_trips", 64, |rng| {
        let j = arb_journal(rng, "round-trip");
        let store = CheckpointStore::create(&j.dir).unwrap();
        let header = store.header().expect("the run wrote its header");
        assert_eq!((header.seed, header.run_label.as_str()), (j.seed, j.label.as_str()));
        assert_eq!(store.damage(), None);
        assert_eq!(store.journal().replies(), j.replies.len());
        assert_eq!(answered(&store, &j.replies), j.replies.len());
        let _ = std::fs::remove_dir_all(&j.dir);
    });
}

/// Every single-bit corruption anywhere in a journal is detected — by
/// magic/version/length checks or by the CRC (which catches all
/// single-bit errors by construction). A damaged record is dropped with
/// everything after it, never decoded into a different one. Each case
/// sweeps every bit of a whole journal (thousands of reads), so it runs
/// fewer cases than the default.
#[test]
fn every_single_bit_corruption_is_detected() {
    check_cases("every_single_bit_corruption_is_detected", 8, |rng| {
        let j = arb_journal(rng, "bit-flip");
        let path = CheckpointStore::create(&j.dir).unwrap().path();
        let bytes = std::fs::read(&path).unwrap();
        for byte in 0..bytes.len() {
            for bit in 0..8u8 {
                let mut corrupt = bytes.clone();
                corrupt[byte] ^= 1 << bit;
                std::fs::write(&path, &corrupt).unwrap();
                let store = CheckpointStore::create(&j.dir).unwrap();
                assert!(store.damage().is_some(), "flip at byte {byte} bit {bit} was accepted");
                if let Some(header) = store.header() {
                    assert_eq!(
                        (header.seed, header.run_label.as_str()),
                        (j.seed, j.label.as_str())
                    );
                }
                let found = answered(&store, &j.replies);
                assert_eq!(store.journal().replies(), found, "flip at {byte}/{bit} invented one");
            }
        }
        let _ = std::fs::remove_dir_all(&j.dir);
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
