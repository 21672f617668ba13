//! The cost-model abstraction: what an IP generator's EDA backend looks like
//! to a search engine.

use std::time::Duration;

use nautilus_ga::{GeneRows, Genome, ParamSpace};

use crate::metric::{MetricCatalog, MetricSet};
use crate::noise::uniform_in;

/// A characterization backend for one IP generator.
///
/// In the paper this is "running FPGA synthesis and/or simulations for each
/// design instance"; here it is an analytic surrogate. A model owns its
/// parameter space (the genetic representation) and its metric catalog (what
/// a synthesis run reports).
///
/// `evaluate` returning `None` marks the parameter combination *infeasible*:
/// the generator refuses to elaborate it (the paper's "sparsely populated
/// design spaces that include infeasible points or regions").
pub trait CostModel: Send + Sync {
    /// The IP generator's name, for reports.
    fn name(&self) -> &str;

    /// The parameter space the generator exposes.
    fn space(&self) -> &ParamSpace;

    /// The metrics a characterization run reports.
    fn catalog(&self) -> &MetricCatalog;

    /// Characterizes one design point, or `None` if infeasible.
    fn evaluate(&self, genome: &Genome) -> Option<MetricSet>;

    /// Characterizes a contiguous batch of gene rows, appending one result
    /// per row to `out` in row order.
    ///
    /// No search calls this: every evaluation goes through
    /// [`CostModel::evaluate`]. It stays only because the benchmark's
    /// cost-model shims implement it. The default rehydrates a single
    /// reused scratch [`Genome`] and calls [`CostModel::evaluate`] per row.
    fn evaluate_rows(&self, rows: GeneRows<'_>, out: &mut Vec<Option<MetricSet>>) {
        let mut scratch = Genome::from_genes(Vec::with_capacity(rows.gene_len()));
        for row in rows.iter() {
            scratch.copy_from_slice(row);
            out.push(self.evaluate(&scratch));
        }
    }

    /// Simulated EDA tool runtime for synthesizing this design point.
    ///
    /// The default draws a deterministic 5–45 simulated minutes per job,
    /// matching the paper's "minutes to hours of EDA execution time".
    /// Models may override this with an area-dependent estimate.
    fn synth_time(&self, genome: &Genome) -> Duration {
        let minutes = uniform_in(genome, 0x51_AE, 5.0, 45.0);
        Duration::from_secs_f64(minutes * 60.0)
    }
}

#[cfg(test)]
pub(crate) mod testing {
    //! A tiny closed-form model shared by this crate's tests.

    use super::*;
    use crate::error::Result;
    use crate::noise::noise_factor;

    /// Quadratic-bowl model over a 2-D integer space with a known optimum,
    /// one infeasible stripe, and optional noise.
    #[derive(Debug)]
    pub struct BowlModel {
        space: ParamSpace,
        catalog: MetricCatalog,
        pub sigma: f64,
    }

    impl BowlModel {
        pub fn new(sigma: f64) -> Result<BowlModel> {
            Ok(BowlModel {
                space: ParamSpace::builder()
                    .int("x", 0, 19, 1)
                    .int("y", 0, 19, 1)
                    .build()
                    .expect("static space"),
                catalog: MetricCatalog::new([("cost", "units"), ("gain", "units")])?,
                sigma,
            })
        }
    }

    impl CostModel for BowlModel {
        fn name(&self) -> &str {
            "bowl"
        }

        fn space(&self) -> &ParamSpace {
            &self.space
        }

        fn catalog(&self) -> &MetricCatalog {
            &self.catalog
        }

        fn evaluate(&self, genome: &Genome) -> Option<MetricSet> {
            let x = f64::from(genome.gene_at(0));
            let y = f64::from(genome.gene_at(1));
            // Infeasible stripe: x == 7.
            if genome.gene_at(0) == 7 {
                return None;
            }
            let cost = ((x - 3.0).powi(2) + (y - 11.0).powi(2) + 1.0)
                * noise_factor(genome, 11, self.sigma);
            let gain = (x + 2.0 * y + 1.0) * noise_factor(genome, 22, self.sigma);
            Some(self.catalog.set(vec![cost, gain]).expect("arity matches catalog"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::BowlModel;
    use super::*;

    #[test]
    fn bowl_model_shape() {
        let m = BowlModel::new(0.0).unwrap();
        let best = m.space().genome_from_values([
            ("x", nautilus_ga::ParamValue::Int(3)),
            ("y", nautilus_ga::ParamValue::Int(11)),
        ]);
        let best = best.unwrap();
        let ms = m.evaluate(&best).unwrap();
        let cost_id = m.catalog().require("cost").unwrap();
        assert_eq!(ms.get(cost_id), 1.0);
        // Infeasible stripe.
        let bad = m.space().genome_from_values([
            ("x", nautilus_ga::ParamValue::Int(7)),
            ("y", nautilus_ga::ParamValue::Int(0)),
        ]);
        assert!(m.evaluate(&bad.unwrap()).is_none());
    }

    #[test]
    fn default_synth_time_is_deterministic_and_in_range() {
        let m = BowlModel::new(0.0).unwrap();
        let g = Genome::from_genes(vec![1, 2]);
        let t = m.synth_time(&g);
        assert_eq!(t, m.synth_time(&g));
        assert!(t >= Duration::from_secs(5 * 60));
        assert!(t <= Duration::from_secs(45 * 60));
    }

    #[test]
    fn default_evaluate_rows_matches_per_point_evaluation() {
        let m = BowlModel::new(0.05).unwrap();
        let points: Vec<[u32; 2]> = (0..30).map(|i| [i % 20, (i * 3) % 20]).collect();
        let flat: Vec<u32> = points.iter().flatten().copied().collect();
        let mut batch = Vec::new();
        m.evaluate_rows(GeneRows::new(&flat, 2), &mut batch);
        assert_eq!(batch.len(), points.len());
        for (p, got) in points.iter().zip(&batch) {
            let serial = m.evaluate(&Genome::from_genes(p.to_vec()));
            assert_eq!(*got, serial, "batch row diverged for {p:?}");
        }
    }

    #[test]
    fn evaluation_is_deterministic_even_with_noise() {
        let m = BowlModel::new(0.1).unwrap();
        let g = Genome::from_genes(vec![5, 9]);
        assert_eq!(m.evaluate(&g), m.evaluate(&g));
    }
}
