//! The guided genetic operators at the heart of Nautilus.
//!
//! [`GuidedMutation`] implements the same [`MutationOp`] interface as the
//! baseline operator but consumes a resolved [`HintSet`]:
//!
//! * **gene selection** — instead of mutating every gene with equal
//!   probability, mutation "slots" are importance-weighted, after applying
//!   the per-generation decay schedule;
//! * **value assignment** — a mutating gene is steered by its bias
//!   (directional geometric step along the ordered domain) or target
//!   (geometric sampling around the target value);
//! * **confidence gating** — every guided decision happens only with
//!   probability `confidence`; otherwise the operator falls back to the
//!   baseline uniform behaviour. This keeps the search stochastic: any
//!   design point remains reachable, so wrong hints degrade speed, not
//!   correctness (paper footnote 1).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, PoisonError};

use nautilus_ga::ops::{CrossoverOp, MutationOp, OpCtx};
use nautilus_ga::rng::SearchRng;
use nautilus_ga::{Direction, Genome, ParamSpace};
use nautilus_obs::{HintKind, SearchEvent};

use crate::error::Result;
use crate::hint::{HintSet, Importance, ValueHint};

/// Steering resolved for one parameter.
#[derive(Debug, Clone, PartialEq)]
enum Steer {
    /// No value hint: uniform redraw.
    None,
    /// Preference in *rank* space, already adjusted for the query direction:
    /// positive means "higher ranks improve the objective".
    Toward(f64),
    /// Pull toward this rank.
    TargetRank(usize),
}

/// One parameter's hints, resolved against a space and query direction.
#[derive(Debug, Clone)]
struct ResolvedParam {
    /// Importance in 1..=100 (default 50).
    importance: f64,
    /// Decay rate (default 1.0: no decay).
    decay: f64,
    steer: Steer,
    /// `rank_to_idx[r]` = domain index with rank `r` along the metric axis.
    rank_to_idx: Vec<u32>,
    /// `idx_to_rank[i]` = rank of domain index `i`.
    idx_to_rank: Vec<u32>,
    /// Whether ranks are meaningful (numeric domain or ordering hint).
    ordered: bool,
    max_step: Option<usize>,
}

/// The Nautilus guided mutation operator.
///
/// Construct with [`GuidedMutation::resolve`]; install into a GA engine with
/// [`nautilus_ga::GaEngine::with_mutation`]. The `nautilus` crate's
/// [`crate::Nautilus`] engine does this wiring automatically.
#[derive(Debug)]
pub struct GuidedMutation {
    rate: f64,
    confidence: f64,
    params: Vec<ResolvedParam>,
    /// Geometric continuation probability for steered steps.
    pull: f64,
    /// Last generation an `ImportanceDecayed` event was emitted for, so an
    /// observed run reports each generation's weights exactly once.
    last_decay_gen: AtomicU32,
    /// The weights of the generation mutated last: every `mutate` call of
    /// a generation reads them instead of recomputing them.
    decayed: Mutex<Decayed>,
}

/// [`GuidedMutation`]'s gene-selection weights for one generation.
#[derive(Debug, Default)]
struct Decayed {
    /// `None` until the first `mutate` call, and after a confidence change.
    generation: Option<u32>,
    weights: Vec<f64>,
    /// `weights.iter().sum()`.
    total: f64,
}

impl GuidedMutation {
    /// Resolves `hints` against `space` for a query optimizing in
    /// `direction`, using the hint set's own confidence.
    ///
    /// # Errors
    ///
    /// Returns hint-validation errors (unknown parameter, target outside
    /// the domain, malformed ordering).
    pub fn resolve(hints: &HintSet, space: &ParamSpace, direction: Direction) -> Result<Self> {
        hints.validate(space)?;
        let mut params = Vec::with_capacity(space.num_params());
        for id in space.param_ids() {
            let def = space.param(id);
            let domain = def.domain();
            let card = domain.cardinality();
            let hint = hints.get(def.name());

            let ordering = hint.and_then(|h| h.ordering.clone());
            let ordered = ordering.is_some() || domain.is_numeric();
            let rank_to_idx: Vec<u32> = ordering.unwrap_or_else(|| (0..card as u32).collect());
            let mut idx_to_rank = vec![0u32; card];
            for (rank, &idx) in rank_to_idx.iter().enumerate() {
                idx_to_rank[idx as usize] = rank as u32;
            }

            let steer = match hint.and_then(|h| h.value.as_ref()) {
                None => Steer::None,
                Some(ValueHint::Bias(b)) => {
                    if ordered {
                        // Bias is correlation with the metric; flip it when
                        // the query *minimizes* the metric so `Toward` always
                        // points at improvement.
                        let pref = match direction {
                            Direction::Maximize => b.get(),
                            Direction::Minimize => -b.get(),
                        };
                        Steer::Toward(pref)
                    } else {
                        // No meaningful axis: bias cannot steer.
                        Steer::None
                    }
                }
                Some(ValueHint::Target(v)) => {
                    let idx = domain.index_of(v).expect("validated above");
                    Steer::TargetRank(idx_to_rank[idx] as usize)
                }
            };

            params.push(ResolvedParam {
                importance: f64::from(
                    hint.and_then(|h| h.importance).unwrap_or(Importance::DEFAULT).get(),
                ),
                decay: hint.and_then(|h| h.decay).map_or(1.0, |d| d.get()),
                steer,
                rank_to_idx,
                idx_to_rank,
                ordered,
                max_step: hint.and_then(|h| h.max_step),
            });
        }
        Ok(GuidedMutation {
            rate: 0.1,
            confidence: hints.confidence().get(),
            params,
            pull: 0.5,
            last_decay_gen: AtomicU32::new(u32::MAX),
            decayed: Mutex::default(),
        })
    }

    /// Overrides the per-gene mutation rate (default 0.1, the paper's).
    #[must_use]
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Overrides the confidence (how the paper's weak/strong variants are
    /// produced from one hint set).
    #[must_use]
    pub fn with_confidence(mut self, confidence: f64) -> Self {
        self.confidence = confidence.clamp(0.0, 1.0);
        self.decayed.get_mut().unwrap_or_else(PoisonError::into_inner).generation = None;
        self
    }

    /// The operator's confidence.
    #[must_use]
    pub fn confidence(&self) -> f64 {
        self.confidence
    }

    /// Effective gene-selection weights at `generation`.
    ///
    /// Weight `w_i = 1 + c · (imp_i · d_i^g − 1)`: importance decays toward
    /// the neutral floor at rate `d_i`, and confidence `c` scales how far
    /// the distribution departs from uniform.
    fn weights(&self, generation: u32) -> impl Iterator<Item = f64> + '_ {
        self.params.iter().map(move |p| {
            let decayed = 1.0 + (p.importance - 1.0) * p.decay.powi(generation as i32);
            1.0 + self.confidence * (decayed - 1.0)
        })
    }

    /// Samples a gene index from the importance distribution, whose
    /// weights sum to `total`.
    fn pick_gene(&self, weights: &[f64], total: f64, rng: &mut SearchRng) -> usize {
        let mut u = rng.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if u < *w {
                return i;
            }
            u -= w;
        }
        weights.len() - 1
    }

    /// Draws a geometric step size `>= 1` (continuation probability
    /// `self.pull`), capped at `cap`.
    fn geometric_step(&self, cap: usize, rng: &mut SearchRng) -> usize {
        let mut s = 1usize;
        while s < cap && rng.chance(self.pull) {
            s += 1;
        }
        s
    }

    /// Mutates gene `i` of `genome` according to its steering.
    ///
    /// Returns which [`HintKind`] drove the new value and whether the gene
    /// actually changed, or `None` for immovable (single-valued) genes.
    fn mutate_gene(
        &self,
        genome: &mut Genome,
        space: &ParamSpace,
        i: usize,
        rng: &mut SearchRng,
    ) -> Option<(HintKind, bool)> {
        let id = nautilus_ga::ParamId::try_from_index(space, i).expect("gene index in space");
        let card = space.param(id).cardinality();
        if card <= 1 {
            return None;
        }
        let p = &self.params[i];
        let current_idx = genome.gene(id);
        let guided = rng.chance(self.confidence) && !matches!(p.steer, Steer::None);

        let (new_idx, kind) = if !guided {
            // Baseline behaviour: uniform redraw over the other values.
            let mut draw = rng.below(card as u64 - 1) as u32;
            if draw >= current_idx {
                draw += 1;
            }
            let kind = if matches!(p.steer, Steer::None) {
                HintKind::Uniform
            } else {
                // A value hint exists but the confidence gate declined it.
                HintKind::Fallback
            };
            (draw, kind)
        } else {
            let current_rank = p.idx_to_rank[current_idx as usize] as i64;
            let max = card as i64 - 1;
            let new_rank = match &p.steer {
                Steer::None => unreachable!("guided implies a steer"),
                Steer::Toward(pref) => {
                    // Step toward improvement with probability growing with
                    // |pref|; a zero-bias hint behaves like a coin flip.
                    let toward = if rng.chance(0.5 + 0.5 * pref.abs()) {
                        pref.signum() as i64
                    } else {
                        -pref.signum() as i64
                    };
                    let step = self.geometric_step(card, rng) as i64;
                    (current_rank + toward * step).clamp(0, max)
                }
                Steer::TargetRank(t) => {
                    if p.ordered {
                        // Geometric cloud around the target rank.
                        let spread = self.geometric_step(card, rng) as i64 - 1;
                        let side = if rng.chance(0.5) { 1 } else { -1 };
                        (*t as i64 + side * spread).clamp(0, max)
                    } else {
                        // Unordered domain: jump straight to the target.
                        *t as i64
                    }
                }
            };
            // Auxiliary stepping limit, relative to the current rank.
            let new_rank = match p.max_step {
                Some(ms) => {
                    let ms = ms as i64;
                    new_rank.clamp(current_rank - ms, current_rank + ms).clamp(0, max)
                }
                None => new_rank,
            };
            let kind = match &p.steer {
                Steer::None => unreachable!("guided implies a steer"),
                Steer::Toward(_) => HintKind::Bias,
                Steer::TargetRank(_) => HintKind::Target,
            };
            (p.rank_to_idx[new_rank as usize], kind)
        };
        let accepted = new_idx != current_idx;
        genome.set_gene(id, new_idx);
        Some((kind, accepted))
    }
}

impl MutationOp for GuidedMutation {
    fn mutate(&self, genome: &mut Genome, space: &ParamSpace, ctx: &OpCtx, rng: &mut SearchRng) {
        debug_assert_eq!(space.num_params(), self.params.len(), "operator resolved elsewhere");
        // A panic while the lock is held (a genome from another space, a
        // panicking observer) leaves the weights whole: they are marked
        // stale before they are rewritten, so the recovered guard is safe.
        let mut decayed = self.decayed.lock().unwrap_or_else(PoisonError::into_inner);
        if decayed.generation != Some(ctx.generation) {
            decayed.generation = None;
            decayed.weights.clear();
            decayed.weights.extend(self.weights(ctx.generation));
            decayed.total = decayed.weights.iter().sum();
            decayed.generation = Some(ctx.generation);
        }
        let Decayed { weights, total, .. } = &*decayed;
        if ctx.observer.enabled()
            && self.last_decay_gen.swap(ctx.generation, Ordering::Relaxed) != ctx.generation
        {
            let min = weights.iter().copied().fold(f64::INFINITY, f64::min);
            let max = weights.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mean = weights.iter().sum::<f64>() / weights.len().max(1) as f64;
            ctx.observer.on_event(&SearchEvent::ImportanceDecayed {
                generation: ctx.generation,
                min_weight: min,
                max_weight: max,
                mean_weight: mean,
            });
        }
        // Same expected mutation count as the baseline (n trials at `rate`),
        // but each slot picks its gene from the importance distribution.
        for _ in 0..space.num_params() {
            if rng.chance(self.rate) {
                let i = self.pick_gene(weights, *total, rng);
                if let Some((hint_kind, accepted)) = self.mutate_gene(genome, space, i, rng) {
                    if ctx.observer.enabled() {
                        ctx.observer.on_event(&SearchEvent::MutationHintApplied {
                            generation: ctx.generation,
                            param: i as u32,
                            hint_kind,
                            accepted,
                        });
                    }
                }
            }
        }
    }

    fn name(&self) -> &str {
        "nautilus-guided"
    }
}

/// Extension: importance-aware uniform crossover.
///
/// The paper applies hints to "genetic operations" generally; this
/// operator extends the idea to recombination. Genes the author marked
/// *important* are swapped between children less often, so co-adapted
/// settings of the dominant parameters survive breeding intact, while
/// unimportant genes mix freely. Confidence gates the skew exactly as in
/// [`GuidedMutation`]: at confidence 0 this is plain uniform crossover
/// with swap probability 0.5.
///
/// Shipped as an *ablation* feature (see the `experiments ablations`
/// harness); the paper's own evaluation guides mutation only.
#[derive(Debug)]
pub struct GuidedCrossover {
    confidence: f64,
    /// Per-gene importance normalized to [0, 1].
    weight: Vec<f64>,
    decay: Vec<f64>,
}

impl GuidedCrossover {
    /// Resolves `hints` against `space`.
    ///
    /// # Errors
    ///
    /// Returns hint-validation errors, as [`GuidedMutation::resolve`].
    pub fn resolve(hints: &HintSet, space: &ParamSpace) -> Result<Self> {
        hints.validate(space)?;
        let weight = space
            .param_ids()
            .map(|id| {
                let imp = hints
                    .get(space.param(id).name())
                    .and_then(|h| h.importance)
                    .unwrap_or(Importance::DEFAULT);
                f64::from(imp.get() - 1) / 99.0
            })
            .collect();
        let decay = space
            .param_ids()
            .map(|id| {
                hints.get(space.param(id).name()).and_then(|h| h.decay).map_or(1.0, |d| d.get())
            })
            .collect();
        Ok(GuidedCrossover { confidence: hints.confidence().get(), weight, decay })
    }

    /// Overrides the confidence.
    #[must_use]
    pub fn with_confidence(mut self, confidence: f64) -> Self {
        self.confidence = confidence.clamp(0.0, 1.0);
        self
    }

    /// Per-gene swap probability at `generation`.
    fn swap_prob(&self, i: usize, generation: u32) -> f64 {
        let decayed = self.weight[i] * self.decay[i].powi(generation as i32);
        0.5 * (1.0 - self.confidence * decayed)
    }
}

impl CrossoverOp for GuidedCrossover {
    fn crossover(
        &self,
        a: &mut Genome,
        b: &mut Genome,
        _space: &ParamSpace,
        ctx: &OpCtx,
        rng: &mut SearchRng,
    ) {
        for i in 0..a.len() {
            if rng.chance(self.swap_prob(i, ctx.generation)) {
                a.swap_gene_at(b, i);
            }
        }
    }

    fn name(&self) -> &str {
        "nautilus-guided-crossover"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hint::Confidence;
    use nautilus_ga::{ParamId, ParamValue};

    fn space() -> ParamSpace {
        ParamSpace::builder()
            .int("a", 0, 9, 1) // 10 values
            .int("b", 0, 9, 1)
            .choices("c", ["x", "y", "z"])
            .build()
            .unwrap()
    }

    fn mutate_many(
        op: &GuidedMutation,
        space: &ParamSpace,
        start: &Genome,
        generation: u32,
        n: usize,
        seed: u64,
    ) -> Vec<Genome> {
        let mut rng = SearchRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut g = start.clone();
                op.mutate(&mut g, space, &OpCtx::new(generation, 80), &mut rng);
                g
            })
            .collect()
    }

    #[test]
    fn importance_skews_gene_selection() {
        let s = space();
        let hints = HintSet::for_metric("m")
            .importance("a", 100)
            .unwrap()
            .importance("b", 1)
            .unwrap()
            .importance("c", 1)
            .unwrap()
            .confidence(Confidence::new(1.0).unwrap())
            .build();
        let op = GuidedMutation::resolve(&hints, &s, Direction::Maximize).unwrap().with_rate(1.0);
        let start = Genome::from_genes(vec![5, 5, 1]);
        let out = mutate_many(&op, &s, &start, 0, 4000, 1);
        let a_moves = out.iter().filter(|g| g.gene_at(0) != 5).count();
        let b_moves = out.iter().filter(|g| g.gene_at(1) != 5).count();
        assert!(a_moves > 8 * b_moves.max(1), "importance not respected: a={a_moves} b={b_moves}");
    }

    #[test]
    fn positive_bias_moves_gene_upward_when_maximizing() {
        let s = space();
        let hints = HintSet::for_metric("m")
            .bias("a", 0.9)
            .unwrap()
            .confidence(Confidence::new(1.0).unwrap())
            .build();
        let op = GuidedMutation::resolve(&hints, &s, Direction::Maximize).unwrap().with_rate(1.0);
        let start = Genome::from_genes(vec![5, 5, 1]);
        let out = mutate_many(&op, &s, &start, 0, 4000, 2);
        let up = out.iter().filter(|g| g.gene_at(0) > 5).count();
        let down = out.iter().filter(|g| g.gene_at(0) < 5).count();
        assert!(up > 3 * down, "bias not steering upward: up={up} down={down}");
    }

    #[test]
    fn positive_bias_moves_gene_downward_when_minimizing() {
        let s = space();
        let hints = HintSet::for_metric("m")
            .bias("a", 0.9)
            .unwrap()
            .confidence(Confidence::new(1.0).unwrap())
            .build();
        let op = GuidedMutation::resolve(&hints, &s, Direction::Minimize).unwrap().with_rate(1.0);
        let start = Genome::from_genes(vec![5, 5, 1]);
        let out = mutate_many(&op, &s, &start, 0, 4000, 3);
        let up = out.iter().filter(|g| g.gene_at(0) > 5).count();
        let down = out.iter().filter(|g| g.gene_at(0) < 5).count();
        assert!(down > 3 * up, "direction flip broken: up={up} down={down}");
    }

    #[test]
    fn target_pulls_values_toward_it() {
        let s = space();
        let hints = HintSet::for_metric("m")
            .target("a", ParamValue::Int(8))
            .unwrap()
            .confidence(Confidence::new(1.0).unwrap())
            .build();
        let op = GuidedMutation::resolve(&hints, &s, Direction::Minimize).unwrap().with_rate(1.0);
        let start = Genome::from_genes(vec![1, 5, 1]);
        let out = mutate_many(&op, &s, &start, 0, 4000, 4);
        let moved: Vec<u32> = out.iter().map(|g| g.gene_at(0)).filter(|&v| v != 1).collect();
        assert!(!moved.is_empty());
        let near = moved.iter().filter(|&&v| (6..=9).contains(&v)).count();
        let frac = near as f64 / moved.len() as f64;
        assert!(frac > 0.8, "target pull too weak: {frac}");
    }

    #[test]
    fn unordered_categorical_target_jumps_directly() {
        let s = space();
        let hints = HintSet::for_metric("m")
            .target("c", ParamValue::Sym("z".into()))
            .unwrap()
            .confidence(Confidence::new(1.0).unwrap())
            .build();
        let op = GuidedMutation::resolve(&hints, &s, Direction::Minimize).unwrap().with_rate(1.0);
        let start = Genome::from_genes(vec![0, 0, 0]);
        let out = mutate_many(&op, &s, &start, 0, 2000, 5);
        let moved: Vec<u32> = out.iter().map(|g| g.gene_at(2)).filter(|&v| v != 0).collect();
        let to_target = moved.iter().filter(|&&v| v == 2).count();
        assert!(
            to_target as f64 / moved.len().max(1) as f64 > 0.95,
            "unordered target should jump to the target"
        );
    }

    #[test]
    fn ordering_hint_gives_bias_an_axis_on_categoricals() {
        let s = space();
        // Order z < x < y along the metric; positive bias + maximize should
        // therefore pull toward y (domain index 1).
        let hints = HintSet::for_metric("m")
            .ordering("c", [2, 0, 1])
            .bias("c", 1.0)
            .unwrap()
            .confidence(Confidence::new(1.0).unwrap())
            .build();
        let op = GuidedMutation::resolve(&hints, &s, Direction::Maximize).unwrap().with_rate(1.0);
        let start = Genome::from_genes(vec![0, 0, 0]); // c = "x" (middle rank)
        let out = mutate_many(&op, &s, &start, 0, 4000, 6);
        let to_y = out.iter().filter(|g| g.gene_at(2) == 1).count();
        let to_z = out.iter().filter(|g| g.gene_at(2) == 2).count();
        assert!(to_y > 3 * to_z.max(1), "ordering+bias broken: y={to_y} z={to_z}");
    }

    #[test]
    fn bias_without_ordering_on_categorical_is_inert() {
        let s = space();
        let hints = HintSet::for_metric("m")
            .bias("c", 1.0)
            .unwrap()
            .confidence(Confidence::new(1.0).unwrap())
            .build();
        let op = GuidedMutation::resolve(&hints, &s, Direction::Maximize).unwrap().with_rate(1.0);
        let start = Genome::from_genes(vec![0, 0, 0]);
        let out = mutate_many(&op, &s, &start, 0, 6000, 7);
        let to_y = out.iter().filter(|g| g.gene_at(2) == 1).count();
        let to_z = out.iter().filter(|g| g.gene_at(2) == 2).count();
        let ratio = to_y as f64 / to_z.max(1) as f64;
        assert!((0.85..1.18).contains(&ratio), "should be uniform: {ratio}");
    }

    #[test]
    fn zero_confidence_behaves_like_baseline() {
        let s = space();
        let hints = HintSet::for_metric("m")
            .importance("a", 100)
            .unwrap()
            .bias("a", 1.0)
            .unwrap()
            .confidence(Confidence::new(0.0).unwrap())
            .build();
        let op = GuidedMutation::resolve(&hints, &s, Direction::Maximize).unwrap().with_rate(1.0);
        let start = Genome::from_genes(vec![5, 5, 1]);
        let out = mutate_many(&op, &s, &start, 0, 6000, 8);
        // Gene selection must be uniform: all genes mutate equally often.
        let a_moves = out.iter().filter(|g| g.gene_at(0) != 5).count();
        let b_moves = out.iter().filter(|g| g.gene_at(1) != 5).count();
        let ratio = a_moves as f64 / b_moves as f64;
        assert!((0.9..1.1).contains(&ratio), "gene pick not uniform: {ratio}");
        // Value assignment must be uniform: up vs down balanced.
        let up = out.iter().filter(|g| g.gene_at(0) > 5).count();
        let down = out.iter().filter(|g| g.gene_at(0) < 5).count();
        let ud = up as f64 / down as f64;
        // At a=5 there are 4 values above and 5 below, so uniform ~ 4/5.
        assert!((0.65..0.95).contains(&ud), "values not uniform: {ud}");
    }

    #[test]
    fn decay_flattens_importance_over_generations() {
        let s = space();
        let hints = HintSet::for_metric("m")
            .importance("a", 100)
            .unwrap()
            .decay("a", 0.9)
            .unwrap()
            .importance("b", 1)
            .unwrap()
            .confidence(Confidence::new(1.0).unwrap())
            .build();
        let op = GuidedMutation::resolve(&hints, &s, Direction::Maximize).unwrap();
        let early: Vec<f64> = op.weights(0).collect();
        let late: Vec<f64> = op.weights(60).collect();
        assert!(early[0] / early[1] > 50.0, "early skew missing: {early:?}");
        assert!(late[0] / late[1] < 3.0, "decay not applied: {late:?}");
        // Undecayed parameters keep their weight.
        assert_eq!(early[1], late[1]);
    }

    #[test]
    fn max_step_limits_travel() {
        let s = space();
        let hints = HintSet::for_metric("m")
            .bias("a", 1.0)
            .unwrap()
            .max_step("a", 1)
            .confidence(Confidence::new(1.0).unwrap())
            .build();
        let op = GuidedMutation::resolve(&hints, &s, Direction::Maximize).unwrap().with_rate(1.0);
        let start = Genome::from_genes(vec![5, 5, 1]);
        let out = mutate_many(&op, &s, &start, 0, 2000, 9);
        for g in &out {
            let a = g.gene_at(0) as i64;
            // Each guided move is clamped to +-1, and one mutate() call runs
            // at most num_params (3) trials, so total travel <= 3.
            assert!((a - 5).abs() <= 3, "travel exceeded: {a}");
        }
        // Single-trial distance is limited to 1: with rate 1.0 over 3 genes
        // the average displacement stays small.
        let mean_abs: f64 =
            out.iter().map(|g| (g.gene_at(0) as f64 - 5.0).abs()).sum::<f64>() / out.len() as f64;
        assert!(mean_abs <= 1.2, "mean travel {mean_abs}");
    }

    #[test]
    fn mutation_respects_space_bounds_always() {
        let s = space();
        let hints = HintSet::for_metric("m")
            .bias("a", 1.0)
            .unwrap()
            .target("b", ParamValue::Int(9))
            .unwrap()
            .ordering("c", [2, 1, 0])
            .bias("c", -1.0)
            .unwrap()
            .confidence(Confidence::new(0.8).unwrap())
            .build();
        let op = GuidedMutation::resolve(&hints, &s, Direction::Minimize).unwrap().with_rate(1.0);
        let mut rng = SearchRng::seed_from_u64(10);
        let mut g = Genome::from_genes(vec![9, 0, 2]);
        for gen in 0..500 {
            op.mutate(&mut g, &s, &OpCtx::new(gen % 80, 80), &mut rng);
            assert!(s.contains(&g), "left the space: {g}");
        }
    }

    #[test]
    fn guided_mutation_reports_hint_kinds_and_decay() {
        let s = space();
        let hints = HintSet::for_metric("m")
            .bias("a", 1.0)
            .unwrap()
            .target("b", ParamValue::Int(9))
            .unwrap()
            .confidence(Confidence::new(1.0).unwrap())
            .build();
        let op = GuidedMutation::resolve(&hints, &s, Direction::Maximize).unwrap().with_rate(1.0);
        let sink = nautilus_obs::InMemorySink::new();
        let mut rng = SearchRng::seed_from_u64(30);
        let mut g = Genome::from_genes(vec![5, 5, 1]);
        for _ in 0..100 {
            op.mutate(&mut g, &s, &OpCtx::with_observer(3, 80, &sink), &mut rng);
        }
        let events = sink.events();
        let decays: Vec<_> =
            events.iter().filter(|e| matches!(e, SearchEvent::ImportanceDecayed { .. })).collect();
        assert_eq!(decays.len(), 1, "one decay event per generation, not per call");
        match decays[0] {
            SearchEvent::ImportanceDecayed { generation, min_weight, max_weight, .. } => {
                assert_eq!(*generation, 3);
                assert!(min_weight <= max_weight);
            }
            _ => unreachable!(),
        }
        // At confidence 1.0: biased "a" -> Bias, targeted "b" -> Target,
        // unhinted "c" -> Uniform; Fallback requires a declined gate.
        let mut kind_of = std::collections::HashMap::new();
        for e in &events {
            if let SearchEvent::MutationHintApplied { param, hint_kind, .. } = e {
                kind_of.entry(*param).or_insert_with(Vec::new).push(*hint_kind);
            }
        }
        assert!(kind_of[&0].iter().all(|k| *k == HintKind::Bias));
        assert!(kind_of[&1].iter().all(|k| *k == HintKind::Target));
        assert!(kind_of[&2].iter().all(|k| *k == HintKind::Uniform));
    }

    #[test]
    fn interleaved_generations_mutate_as_fresh_operators_do() {
        // One operator cycles through generations 3, 5, 3; each call must
        // match a freshly resolved operator at that generation, and the
        // observed one reports each generation's weights as it enters it.
        let s = space();
        let hints = HintSet::for_metric("m")
            .importance("a", 100)
            .unwrap()
            .decay("a", 0.8)
            .unwrap()
            .bias("b", 0.7)
            .unwrap()
            .importance("c", 20)
            .unwrap()
            .confidence(Confidence::new(0.8).unwrap())
            .build();
        let resolve =
            || GuidedMutation::resolve(&hints, &s, Direction::Maximize).unwrap().with_rate(0.6);
        let shared = resolve();
        let sink = nautilus_obs::InMemorySink::new();
        let mut rng = SearchRng::seed_from_u64(50);
        let mut fresh_rng = SearchRng::seed_from_u64(50);
        let mut g = Genome::from_genes(vec![5, 5, 1]);
        let mut fresh_g = g.clone();
        for generation in [3, 5, 3] {
            for call in 0..40 {
                shared.mutate(&mut g, &s, &OpCtx::with_observer(generation, 80, &sink), &mut rng);
                resolve().mutate(&mut fresh_g, &s, &OpCtx::new(generation, 80), &mut fresh_rng);
                assert_eq!(g, fresh_g, "generation {generation}, call {call}");
            }
        }
        assert_eq!(rng, fresh_rng);
        let decays: Vec<u32> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                SearchEvent::ImportanceDecayed { generation, .. } => Some(*generation),
                _ => None,
            })
            .collect();
        assert_eq!(decays, [3, 5, 3], "one decay event per generation entered");
        // A confidence change after use drops the cached weights.
        let refit = shared.with_confidence(0.1);
        let mut a = Genome::from_genes(vec![5, 5, 1]);
        let mut b = a.clone();
        let mut rng_a = SearchRng::seed_from_u64(51);
        let mut rng_b = SearchRng::seed_from_u64(51);
        for _ in 0..40 {
            refit.mutate(&mut a, &s, &OpCtx::new(3, 80), &mut rng_a);
            resolve().with_confidence(0.1).mutate(&mut b, &s, &OpCtx::new(3, 80), &mut rng_b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn declined_confidence_gate_reports_fallback() {
        let s = space();
        let hints = HintSet::for_metric("m")
            .bias("a", 1.0)
            .unwrap()
            .confidence(Confidence::new(0.0).unwrap())
            .build();
        let op = GuidedMutation::resolve(&hints, &s, Direction::Maximize).unwrap().with_rate(1.0);
        let sink = nautilus_obs::InMemorySink::new();
        let mut rng = SearchRng::seed_from_u64(31);
        let mut g = Genome::from_genes(vec![5, 5, 1]);
        for _ in 0..50 {
            op.mutate(&mut g, &s, &OpCtx::with_observer(0, 80, &sink), &mut rng);
        }
        let fallbacks = sink
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    SearchEvent::MutationHintApplied {
                        param: 0,
                        hint_kind: HintKind::Fallback,
                        ..
                    }
                )
            })
            .count();
        assert!(fallbacks > 0, "confidence 0 must gate every guided decision off");
    }

    #[test]
    fn resolve_rejects_invalid_hints() {
        let s = space();
        let unknown = HintSet::for_metric("m").importance("zz", 10).unwrap().build();
        assert!(GuidedMutation::resolve(&unknown, &s, Direction::Maximize).is_err());
    }

    #[test]
    fn operator_reports_its_name() {
        let s = space();
        let hints = HintSet::for_metric("m").build();
        let op = GuidedMutation::resolve(&hints, &s, Direction::Maximize).unwrap();
        assert_eq!(op.name(), "nautilus-guided");
        assert!((op.confidence() - 0.5).abs() < 1e-12, "hint-set confidence adopted");
    }

    #[test]
    fn param_id_from_index_helper() {
        let s = space();
        assert!(ParamId::try_from_index(&s, 2).is_some());
        assert!(ParamId::try_from_index(&s, 3).is_none());
    }

    #[test]
    fn guided_crossover_preserves_important_genes() {
        let s = space();
        let hints = HintSet::for_metric("m")
            .importance("a", 100)
            .unwrap()
            .importance("b", 1)
            .unwrap()
            .confidence(Confidence::new(1.0).unwrap())
            .build();
        let op = GuidedCrossover::resolve(&hints, &s).unwrap();
        let pa = Genome::from_genes(vec![0, 0, 0]);
        let pb = Genome::from_genes(vec![9, 9, 2]);
        let mut rng = SearchRng::seed_from_u64(21);
        let mut a_swaps = 0;
        let mut b_swaps = 0;
        let n = 4000;
        for _ in 0..n {
            let (mut ca, mut cb) = (pa.clone(), pb.clone());
            op.crossover(&mut ca, &mut cb, &s, &OpCtx::new(0, 80), &mut rng);
            if ca.gene_at(0) == 9 {
                a_swaps += 1;
            }
            if ca.gene_at(1) == 9 {
                b_swaps += 1;
            }
        }
        // Important gene "a" swaps (almost) never; unimportant "b" ~50%.
        assert!(a_swaps < n / 50, "important gene swapped {a_swaps} times");
        let b_rate = f64::from(b_swaps) / f64::from(n);
        assert!((0.4..0.6).contains(&b_rate), "b swap rate {b_rate}");
    }

    #[test]
    fn guided_crossover_zero_confidence_is_uniform() {
        let s = space();
        let hints = HintSet::for_metric("m")
            .importance("a", 100)
            .unwrap()
            .confidence(Confidence::new(0.0).unwrap())
            .build();
        let op = GuidedCrossover::resolve(&hints, &s).unwrap();
        let pa = Genome::from_genes(vec![0, 0, 0]);
        let pb = Genome::from_genes(vec![9, 9, 2]);
        let mut rng = SearchRng::seed_from_u64(22);
        let mut a_swaps = 0;
        let n = 4000;
        for _ in 0..n {
            let (mut ca, mut cb) = (pa.clone(), pb.clone());
            op.crossover(&mut ca, &mut cb, &s, &OpCtx::new(0, 80), &mut rng);
            if ca.gene_at(0) == 9 {
                a_swaps += 1;
            }
        }
        let rate = f64::from(a_swaps) / f64::from(n);
        assert!((0.45..0.55).contains(&rate), "rate {rate}");
    }

    #[test]
    fn guided_crossover_conserves_gene_pool() {
        let s = space();
        let hints = HintSet::for_metric("m").importance("a", 80).unwrap().build();
        let op = GuidedCrossover::resolve(&hints, &s).unwrap();
        let mut rng = SearchRng::seed_from_u64(23);
        for _ in 0..200 {
            let pa = s.random_genome(&mut rng);
            let pb = s.random_genome(&mut rng);
            let (mut ca, mut cb) = (pa.clone(), pb.clone());
            op.crossover(&mut ca, &mut cb, &s, &OpCtx::new(3, 80), &mut rng);
            for i in 0..pa.len() {
                let parents = [pa.gene_at(i), pb.gene_at(i)];
                let kids = [ca.gene_at(i), cb.gene_at(i)];
                assert!(kids == parents || kids == [parents[1], parents[0]]);
            }
        }
        assert_eq!(op.name(), "nautilus-guided-crossover");
    }
}
