//! Surrogate FPGA-synthesis model of the virtual-channel router.
//!
//! Replaces the paper's Xilinx XST 14.7 / Virtex-6 LX760T synthesis runs
//! with an analytic model whose structure mirrors router implementation
//! reality: buffers dominate LUT cost, separable/matrix/wavefront
//! allocators trade area against delay, pipelining buys frequency at
//! register cost, and deterministic hash noise reproduces the rugged
//! scatter of Figure 1. Absolute values are calibrated to the figure's
//! ranges (hundreds to ~25k LUTs, ~60–260 MHz).

use nautilus_ga::rng::{hash_genes, mix_to_signed_unit};
use nautilus_ga::{Genome, ParamId, ParamSpace, ParamValue};
use nautilus_synth::noise::noise_factor;
use nautilus_synth::{CostModel, MetricCatalog, MetricSet};

use super::space::{full_space, swept_space};

/// Salts decorrelating the model's noise channels.
const SALT_LUTS: u64 = 0x4C55_5453;
const SALT_FMAX: u64 = 0x464D_4158;
const SALT_FULL: u64 = 0x4655_4C4C;

/// Resolved parameter handles.
#[derive(Debug, Clone)]
struct Ids {
    vcs: ParamId,
    depth: ParamId,
    width: ParamId,
    stages: ParamId,
    sa: ParamId,
    va: ParamId,
    xbar: ParamId,
    spec: ParamId,
    buf: ParamId,
    // Full-space extras.
    ports: Option<ParamId>,
    routing: Option<ParamId>,
    out_reg: Option<ParamId>,
    err_chk: Option<ParamId>,
    sw_iter: Option<ParamId>,
}

/// The router IP generator's synthesis backend.
///
/// Create with [`RouterModel::swept`] (the paper's 9-parameter dataset
/// sub-space) or [`RouterModel::full`] (all 42 parameters).
///
/// ```
/// use nautilus_noc::router::RouterModel;
/// use nautilus_synth::CostModel;
/// let model = RouterModel::swept();
/// assert_eq!(model.space().num_params(), 9);
/// assert_eq!(model.catalog().len(), 3); // luts, fmax, latency
/// ```
#[derive(Debug)]
pub struct RouterModel {
    space: ParamSpace,
    catalog: MetricCatalog,
    ids: Ids,
}

impl RouterModel {
    /// Model over the 9-parameter swept sub-space (27,648 points).
    #[must_use]
    pub fn swept() -> Self {
        Self::over(swept_space())
    }

    /// Model over the full 42-parameter space (billions of points).
    #[must_use]
    pub fn full() -> Self {
        Self::over(full_space())
    }

    fn over(space: ParamSpace) -> Self {
        let id = |name: &str| space.id(name).expect("router space defines core parameters");
        let ids = Ids {
            vcs: id("num_vcs"),
            depth: id("buffer_depth"),
            width: id("flit_width"),
            stages: id("pipeline_stages"),
            sa: id("sa_alloc"),
            va: id("va_alloc"),
            xbar: id("crossbar"),
            spec: id("speculation"),
            buf: id("buffer_type"),
            ports: space.id("num_ports"),
            routing: space.id("routing_fn"),
            out_reg: space.id("output_register"),
            err_chk: space.id("error_checking"),
            sw_iter: space.id("sw_alloc_iterations"),
        };
        RouterModel {
            space,
            catalog: MetricCatalog::new([("luts", "LUTs"), ("fmax", "MHz"), ("latency", "cycles")])
                .expect("static catalog"),
            ids,
        }
    }

    fn int(&self, genes: &[u32], id: ParamId) -> f64 {
        match self.space.param(id).domain().value(genes[id.index()] as usize) {
            ParamValue::Int(v) => v as f64,
            other => panic!("expected integer parameter, got {other}"),
        }
    }

    fn sym_index(&self, genes: &[u32], id: ParamId) -> usize {
        genes[id.index()] as usize
    }

    fn flag(&self, genes: &[u32], id: ParamId) -> bool {
        genes[id.index()] == 1
    }
}

impl CostModel for RouterModel {
    fn name(&self) -> &str {
        "vc-router"
    }

    fn space(&self) -> &ParamSpace {
        &self.space
    }

    fn catalog(&self) -> &MetricCatalog {
        &self.catalog
    }

    fn evaluate(&self, genome: &Genome) -> Option<MetricSet> {
        let g = genome.genes();
        let vcs = self.int(g, self.ids.vcs);
        let depth = self.int(g, self.ids.depth);
        let width = self.int(g, self.ids.width);
        let stages = self.int(g, self.ids.stages);
        let sa = self.sym_index(g, self.ids.sa); // 0 rr, 1 matrix, 2 wavefront
        let va = self.sym_index(g, self.ids.va);
        let tristate = self.sym_index(g, self.ids.xbar) == 1;
        let spec = self.flag(g, self.ids.spec);
        let bram = self.sym_index(g, self.ids.buf) == 1;
        let ports = self.ids.ports.map_or(5.0, |id| self.int(g, id));

        // ---- LUT cost -----------------------------------------------------
        let buffers = if bram {
            // Storage lives in block RAM; LUTs only hold FIFO control.
            ports * (vcs * 48.0 + depth.sqrt() * 8.0 + width * 0.18)
        } else {
            // Distributed LUTRAM storage dominates.
            ports * vcs * depth * width * 0.20 + ports * vcs * 22.0
        };
        let vc_state = ports * vcs * (width * 0.12 + 14.0);
        let sa_luts = match sa {
            0 => ports * (vcs * 6.0 + 14.0),
            1 => ports * (vcs * vcs * 4.0 + 24.0),
            _ => ports * vcs * 16.0 + 120.0,
        };
        let va_luts = match va {
            0 => ports * (vcs * 8.0 + 14.0),
            1 => ports * (vcs * vcs * 6.0 + 30.0),
            _ => ports * vcs * 16.0 + 120.0,
        };
        let xbar_luts = if tristate {
            ports * ports * width * 0.35 + 60.0
        } else {
            ports * ports * width * 0.50
        };
        let spec_luts = if spec { ports * (vcs * 14.0 + 36.0) } else { 0.0 };
        let pipe_luts = stages * ports * width * 0.16;
        let mut luts =
            320.0 + buffers + vc_state + sa_luts + va_luts + xbar_luts + spec_luts + pipe_luts;

        // ---- Critical path ------------------------------------------------
        let mut d_logic = 5.0
            + 0.30 * (width / 16.0).log2()
            + match sa {
                0 => 0.30 + 0.055 * vcs,
                1 => 0.22 + 0.035 * vcs,
                _ => 0.70 + 0.012 * vcs,
            }
            + match va {
                0 => 0.38 + 0.070 * vcs,
                1 => 0.28 + 0.045 * vcs,
                _ => 0.85 + 0.015 * vcs,
            }
            + if tristate { 0.75 + 0.02 * ports } else { 0.45 + 0.02 * ports }
            + 0.05 * (depth + 1.0).ln()
            + if bram { 0.55 } else { 0.0 }
            + if spec { 0.40 } else { 0.0 };
        let mut reg_overhead = 1.2;
        let mut latency = stages + 2.0 - if spec { 1.0 } else { 0.0 };

        // ---- Full-space secondary parameters -------------------------------
        if let Some(routing) = self.ids.routing {
            if self.sym_index(g, routing) == 3 {
                // Adaptive routing: extra route computation logic.
                luts += ports * 60.0;
                d_logic += 0.25;
            }
        }
        if let Some(out_reg) = self.ids.out_reg {
            if self.flag(g, out_reg) {
                luts += ports * width * 0.11;
                reg_overhead -= 0.15;
                latency += 1.0;
            }
        }
        if let Some(err) = self.ids.err_chk {
            if self.flag(g, err) {
                luts *= 1.03;
            }
        }
        if let Some(it) = self.ids.sw_iter {
            let iterations = self.int(g, it);
            d_logic += 0.15 * (iterations - 1.0);
            luts += ports * 18.0 * (iterations - 1.0);
        }
        if self.ids.ports.is_some() {
            // Remaining secondary knobs perturb results a few percent, the
            // way minor RTL parameters do.
            let h = hash_genes(&g[9..], SALT_FULL);
            luts *= 1.0 + 0.05 * mix_to_signed_unit(h);
            d_logic *= 1.0 + 0.03 * mix_to_signed_unit(h.rotate_left(13));
        }

        let d_stage = d_logic / stages.powf(0.8) + reg_overhead;

        // ---- Synthesis noise ------------------------------------------------
        luts *= noise_factor(genome, SALT_LUTS, 0.06);
        let fmax = (1000.0 / d_stage * noise_factor(genome, SALT_FMAX, 0.05)).max(55.0);

        Some(self.catalog.set(vec![luts.round(), fmax, latency]).expect("arity matches catalog"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nautilus_ga::Direction;
    use nautilus_synth::{Dataset, MetricExpr};

    fn dataset() -> Dataset {
        Dataset::characterize(&RouterModel::swept(), 8).unwrap()
    }

    #[test]
    fn all_swept_points_are_feasible() {
        let d = dataset();
        assert_eq!(d.len(), 27_648);
    }

    #[test]
    fn metric_ranges_match_figure_1() {
        let d = dataset();
        let luts = MetricExpr::metric(d.catalog().require("luts").unwrap());
        let fmax = MetricExpr::metric(d.catalog().require("fmax").unwrap());
        let (_, min_luts) = d.best(&luts, Direction::Minimize);
        let (_, max_luts) = d.best(&luts, Direction::Maximize);
        assert!((200.0..1500.0).contains(&min_luts), "min LUTs {min_luts} outside Figure 1 range");
        assert!(
            (15_000.0..40_000.0).contains(&max_luts),
            "max LUTs {max_luts} outside Figure 1 range"
        );
        let (_, min_f) = d.best(&fmax, Direction::Minimize);
        let (_, max_f) = d.best(&fmax, Direction::Maximize);
        assert!((55.0..100.0).contains(&min_f), "min fmax {min_f}");
        assert!((230.0..=360.0).contains(&max_f), "max fmax {max_f}");
    }

    #[test]
    fn evaluation_is_deterministic() {
        let m = RouterModel::swept();
        let g = m.space().genome_at(12_345);
        assert_eq!(m.evaluate(&g), m.evaluate(&g));
    }

    #[test]
    fn most_degenerate_router_config_still_synthesizes() {
        // The smallest representable router: a single VC with a one-flit
        // buffer, narrowest datapath, no pipelining, no speculation. The
        // model must treat it as a valid (cheap, slow-ish) design, not an
        // edge-case crash.
        let m = RouterModel::swept();
        let g = m
            .space()
            .genome_from_values([
                ("num_vcs", ParamValue::Int(1)),
                ("buffer_depth", ParamValue::Int(1)),
                ("flit_width", ParamValue::Int(16)),
                ("pipeline_stages", ParamValue::Int(1)),
                ("sa_alloc", ParamValue::Sym("round_robin".into())),
                ("va_alloc", ParamValue::Sym("round_robin".into())),
                ("crossbar", ParamValue::Sym("mux".into())),
                ("speculation", ParamValue::Bool(false)),
                ("buffer_type", ParamValue::Sym("lutram".into())),
            ])
            .unwrap();
        let ms = m.evaluate(&g).expect("minimal router is feasible");
        let luts = ms.get(m.catalog().require("luts").unwrap());
        let fmax = ms.get(m.catalog().require("fmax").unwrap());
        assert!(luts > 0.0 && luts.is_finite(), "degenerate router LUTs: {luts}");
        assert!(fmax > 0.0 && fmax.is_finite(), "degenerate router fmax: {fmax}");
        // It should sit at the cheap end of Figure 1's LUT range.
        assert!(luts < 2_000.0, "minimal router should be cheap, got {luts} LUTs");
    }

    #[test]
    fn zero_vc_routers_are_unrepresentable() {
        // num_vcs starts at 1: a bufferless zero-VC "router" cannot be
        // encoded, so the model never has to define its cost.
        let m = RouterModel::swept();
        let space = m.space();
        let vcs = space.id("num_vcs").unwrap();
        assert!(space.param(vcs).domain().index_of(&ParamValue::Int(0)).is_none());
        for g in [space.genome_at(0), space.genome_at(27_647)] {
            if let ParamValue::Int(v) = space.value_of(&g, vcs) {
                assert!(v >= 1, "encoded VC count must be positive, got {v}");
            } else {
                panic!("num_vcs must be an integer parameter");
            }
        }
    }

    #[test]
    fn more_vcs_and_depth_cost_more_luts_on_average() {
        let m = RouterModel::swept();
        let space = m.space();
        let luts_id = m.catalog().require("luts").unwrap();
        let mean_luts = |name: &str, value: i64| -> f64 {
            let id = space.id(name).unwrap();
            let idx = space.param(id).domain().index_of(&ParamValue::Int(value)).unwrap();
            let mut sum = 0.0;
            let mut n = 0usize;
            for (k, g) in space.iter_genomes().enumerate() {
                if k % 23 != 0 {
                    continue; // sparse deterministic sample
                }
                let mut g = g;
                g.set_gene(id, idx as u32);
                sum += m.evaluate(&g).unwrap().get(luts_id);
                n += 1;
            }
            sum / n as f64
        };
        assert!(mean_luts("num_vcs", 8) > 2.0 * mean_luts("num_vcs", 1));
        assert!(mean_luts("buffer_depth", 16) > 1.5 * mean_luts("buffer_depth", 1));
        assert!(mean_luts("flit_width", 128) > 2.0 * mean_luts("flit_width", 16));
    }

    #[test]
    fn pipelining_raises_fmax_on_average() {
        let m = RouterModel::swept();
        let space = m.space();
        let fmax_id = m.catalog().require("fmax").unwrap();
        let stages = space.id("pipeline_stages").unwrap();
        let mut sum = [0.0f64; 2];
        let mut n = 0usize;
        for (k, g) in space.iter_genomes().enumerate() {
            if k % 31 != 0 {
                continue;
            }
            let mut lo = g.clone();
            lo.set_gene(stages, 0); // 1 stage
            let mut hi = g;
            hi.set_gene(stages, 2); // 3 stages
            sum[0] += m.evaluate(&lo).unwrap().get(fmax_id);
            sum[1] += m.evaluate(&hi).unwrap().get(fmax_id);
            n += 1;
        }
        assert!(
            sum[1] / n as f64 > 1.3 * (sum[0] / n as f64),
            "3-stage {} vs 1-stage {}",
            sum[1] / n as f64,
            sum[0] / n as f64
        );
    }

    #[test]
    fn speculation_cuts_latency() {
        let m = RouterModel::swept();
        let space = m.space();
        let lat_id = m.catalog().require("latency").unwrap();
        let spec = space.id("speculation").unwrap();
        let g0 = space.genome_at(100);
        let mut with = g0.clone();
        with.set_gene(spec, 1);
        let mut without = g0;
        without.set_gene(spec, 0);
        let lw = m.evaluate(&with).unwrap().get(lat_id);
        let lo = m.evaluate(&without).unwrap().get(lat_id);
        assert_eq!(lo - lw, 1.0);
    }

    #[test]
    fn full_space_model_evaluates_and_ports_matter() {
        let m = RouterModel::full();
        let space = m.space();
        let luts_id = m.catalog().require("luts").unwrap();
        let ports = space.id("num_ports").unwrap();
        let mut small = space.genome_at(777_777);
        small.set_gene(ports, 0); // 3 ports
        let mut big = small.clone();
        big.set_gene(ports, 5); // 8 ports
        let l_small = m.evaluate(&small).unwrap().get(luts_id);
        let l_big = m.evaluate(&big).unwrap().get(luts_id);
        assert!(l_big > 1.5 * l_small, "ports scaling: {l_small} -> {l_big}");
    }

    #[test]
    fn noise_makes_neighbors_scatter() {
        // Two designs differing only in one secondary gene should differ in
        // LUTs by a few percent (the Figure 1 scatter), not be identical.
        let m = RouterModel::swept();
        let space = m.space();
        let a = space.genome_at(5_000);
        let mut b = a.clone();
        let sa = space.id("sa_alloc").unwrap();
        b.set_gene(sa, (a.gene(sa) + 1) % 3);
        let luts_id = m.catalog().require("luts").unwrap();
        let la = m.evaluate(&a).unwrap().get(luts_id);
        let lb = m.evaluate(&b).unwrap().get(luts_id);
        assert_ne!(la, lb);
    }
}
