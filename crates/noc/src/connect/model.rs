//! ASIC cost model of CONNECT-style 64-endpoint NoCs.
//!
//! The paper's Figure 2 characterizes "a large collection of different
//! network configurations (router design + network topology) targeting a
//! commercial 65nm technology", plotting power and area against peak
//! bisection bandwidth with 2–3 orders of magnitude of spread. This model
//! reproduces that characterization: a network is a topology family plus
//! router parameters; area comes from router logic, buffer SRAM and channel
//! wiring; power from switching plus leakage; and peak bisection bandwidth
//! from the topology's bisection cut.

use nautilus_ga::{Genome, ParamId, ParamSpace, ParamValue};
use nautilus_synth::noise::noise_factor;
use nautilus_synth::{CostModel, MetricCatalog, MetricSet};

use super::topology::Topology;

const SALT_AREA: u64 = 0xA4EA;
const SALT_POWER: u64 = 0xF0_11E4;
const SALT_FCLK: u64 = 0xFC1C;

/// 65nm technology constants (derived from public 65nm library data).
mod tech {
    /// Logic area per gate, mm² (NAND2-equivalent with routing overhead).
    pub const GATE_AREA_MM2: f64 = 1.7e-6;
    /// Buffer SRAM area per bit, mm² (cell plus array overhead).
    pub const SRAM_BIT_MM2: f64 = 1.5e-6;
    /// Channel wire area per bit·mm of length, mm².
    pub const WIRE_BIT_MM2_PER_MM: f64 = 2.0e-4 / 1000.0 * 5.0;
    /// Dynamic power per mm² of switching logic at 1 GHz, mW.
    pub const DYN_MW_PER_MM2_GHZ: f64 = 80.0;
    /// Channel dynamic power per bit at 1 GHz, mW.
    pub const CHAN_MW_PER_BIT_GHZ: f64 = 0.012;
    /// Leakage per mm², mW.
    pub const LEAK_MW_PER_MM2: f64 = 15.0;
}

/// The CONNECT-style NoC generator's characterization backend.
///
/// Parameters: topology family, virtual channels, flit width, buffer depth
/// and allocator style, at a fixed endpoint count (64 in the paper).
///
/// ```
/// use nautilus_noc::connect::NocModel;
/// use nautilus_synth::CostModel;
/// let model = NocModel::new(64);
/// assert_eq!(model.space().cardinality(), 8 * 3 * 5 * 3 * 2);
/// ```
#[derive(Debug)]
pub struct NocModel {
    space: ParamSpace,
    catalog: MetricCatalog,
    endpoints: usize,
    topo: ParamId,
    vcs: ParamId,
    width: ParamId,
    depth: ParamId,
    alloc: ParamId,
}

impl NocModel {
    /// Creates the model for `endpoints` terminals (64 matches Figure 2).
    ///
    /// # Panics
    ///
    /// Panics unless `endpoints` is an even power of two of at least 16
    /// (see [`Topology::structure`]).
    #[must_use]
    pub fn new(endpoints: usize) -> Self {
        // Validate endpoint count eagerly via any topology.
        let _ = Topology::Mesh.structure(endpoints);
        let space = ParamSpace::builder()
            .choices("topology", Topology::ALL.iter().map(|t| t.label()))
            .int_list("num_vcs", [2, 4, 8])
            .pow2("flit_width", 4, 8) // 16..256 bits
            .int_list("buffer_depth", [4, 8, 16])
            .choices("allocator", ["separable", "wavefront"])
            .build()
            .expect("static space");
        let id = |n: &str| space.id(n).expect("space defines parameter");
        NocModel {
            topo: id("topology"),
            vcs: id("num_vcs"),
            width: id("flit_width"),
            depth: id("buffer_depth"),
            alloc: id("allocator"),
            catalog: MetricCatalog::new([
                ("area_mm2", "mm^2"),
                ("power_mw", "mW"),
                ("bisection_gbps", "Gbps"),
                ("fclk_mhz", "MHz"),
                ("avg_hops", "hops"),
            ])
            .expect("static catalog"),
            space,
            endpoints,
        }
    }

    /// The endpoint count the model was built for.
    #[must_use]
    pub fn endpoints(&self) -> usize {
        self.endpoints
    }

    /// The topology of a design point.
    ///
    /// # Panics
    ///
    /// Panics if the genome does not belong to this space.
    #[must_use]
    pub fn topology_of(&self, g: &Genome) -> Topology {
        Topology::ALL[g.gene(self.topo) as usize]
    }

    fn int(&self, genes: &[u32], id: ParamId) -> f64 {
        match self.space.param(id).domain().value(genes[id.index()] as usize) {
            ParamValue::Int(v) => v as f64,
            other => panic!("expected integer parameter, got {other}"),
        }
    }
}

impl CostModel for NocModel {
    fn name(&self) -> &str {
        "connect-noc"
    }

    fn space(&self) -> &ParamSpace {
        &self.space
    }

    fn catalog(&self) -> &MetricCatalog {
        &self.catalog
    }

    fn evaluate(&self, genome: &Genome) -> Option<MetricSet> {
        let g = genome.genes();
        let topo = Topology::ALL[g[self.topo.index()] as usize];
        let s = topo.structure(self.endpoints);
        let vcs = self.int(g, self.vcs);
        let width = self.int(g, self.width);
        let depth = self.int(g, self.depth);
        let wavefront = g[self.alloc.index()] == 1;
        let radix = s.router_radix as f64;

        // ---- Clock frequency (GHz) at 65nm ---------------------------------
        let mut fclk = 1.35
            / (1.0
                + 0.05 * (width / 32.0).log2().max(0.0)
                + 0.012 * (radix - 3.0)
                + 0.04 * (vcs / 2.0).log2()
                + if wavefront { 0.08 } else { 0.0 });
        fclk *= noise_factor(genome, SALT_FCLK, 0.04);

        // ---- Area (mm²) -----------------------------------------------------
        // Per-router logic gates: crossbar + allocators + control.
        let xbar_gates = radix * radix * width * 2.5;
        let alloc_gates = radix * vcs * vcs * (if wavefront { 55.0 } else { 30.0 }) + 400.0;
        let ctrl_gates = radix * vcs * width * 0.6 + 900.0;
        let logic_mm2_per_router = (xbar_gates + alloc_gates + ctrl_gates) * tech::GATE_AREA_MM2;
        // Buffer SRAM bits per router.
        let buffer_bits = radix * vcs * depth * width;
        let sram_mm2_per_router = buffer_bits * tech::SRAM_BIT_MM2;
        // Channel wiring: per-topology average physical link length (mm).
        let link_mm = match topo {
            Topology::Ring | Topology::Mesh => 1.0,
            Topology::DoubleRing => 1.2,
            Topology::ConcentratedRing | Topology::ConcentratedDoubleRing => 2.0,
            Topology::Torus => 1.5, // folded wraparound
            Topology::FatTree | Topology::Butterfly => 3.0,
        };
        let wire_mm2 = s.channels as f64 * width * link_mm * tech::WIRE_BIT_MM2_PER_MM;
        let logic_mm2 = s.routers as f64 * logic_mm2_per_router;
        let sram_mm2 = s.routers as f64 * sram_mm2_per_router;
        let area = (logic_mm2 + sram_mm2 + wire_mm2) * noise_factor(genome, SALT_AREA, 0.05);

        // ---- Power (mW) -------------------------------------------------------
        let dyn_logic = logic_mm2 * fclk * tech::DYN_MW_PER_MM2_GHZ;
        let dyn_sram = sram_mm2 * fclk * tech::DYN_MW_PER_MM2_GHZ * 0.55;
        let dyn_chan = s.channels as f64 * width * fclk * tech::CHAN_MW_PER_BIT_GHZ;
        let leakage = area * tech::LEAK_MW_PER_MM2;
        let power =
            (dyn_logic + dyn_sram + dyn_chan + leakage) * noise_factor(genome, SALT_POWER, 0.05);

        // ---- Peak bisection bandwidth (Gbps) ---------------------------------
        let bisection = s.bisection_channels as f64 * width * fclk;

        Some(
            self.catalog
                .set(vec![area, power, bisection, fclk * 1000.0, s.avg_hops])
                .expect("arity matches catalog"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nautilus_ga::Direction;
    use nautilus_synth::{Dataset, MetricExpr};

    fn dataset() -> Dataset {
        Dataset::characterize(&NocModel::new(64), 8).unwrap()
    }

    #[test]
    fn every_configuration_is_feasible() {
        let d = dataset();
        assert_eq!(d.len() as u128, NocModel::new(64).space().cardinality());
    }

    #[test]
    fn metric_spread_spans_orders_of_magnitude_like_figure_2() {
        let d = dataset();
        let bw = MetricExpr::metric(d.catalog().require("bisection_gbps").unwrap());
        let area = MetricExpr::metric(d.catalog().require("area_mm2").unwrap());
        let power = MetricExpr::metric(d.catalog().require("power_mw").unwrap());
        let (_, bw_lo) = d.best(&bw, Direction::Minimize);
        let (_, bw_hi) = d.best(&bw, Direction::Maximize);
        assert!(bw_hi / bw_lo > 100.0, "bandwidth spread {bw_lo}..{bw_hi}");
        let (_, a_lo) = d.best(&area, Direction::Minimize);
        let (_, a_hi) = d.best(&area, Direction::Maximize);
        assert!(a_hi / a_lo > 30.0, "area spread {a_lo}..{a_hi}");
        let (_, p_lo) = d.best(&power, Direction::Minimize);
        let (_, p_hi) = d.best(&power, Direction::Maximize);
        assert!(p_hi / p_lo > 30.0, "power spread {p_lo}..{p_hi}");
    }

    #[test]
    fn fat_tree_out_bandwidths_ring_at_matched_router_config() {
        let m = NocModel::new(64);
        let space = m.space();
        let bw_id = m.catalog().require("bisection_gbps").unwrap();
        let mk = |topo: &str| {
            space
                .genome_from_values([
                    ("topology", ParamValue::Sym(topo.into())),
                    ("num_vcs", ParamValue::Int(4)),
                    ("flit_width", ParamValue::Int(128)),
                    ("buffer_depth", ParamValue::Int(8)),
                    ("allocator", ParamValue::Sym("separable".into())),
                ])
                .unwrap()
        };
        let ring = m.evaluate(&mk("Ring")).unwrap().get(bw_id);
        let mesh = m.evaluate(&mk("Mesh")).unwrap().get(bw_id);
        let ft = m.evaluate(&mk("Fat Tree")).unwrap().get(bw_id);
        assert!(mesh > 2.0 * ring, "mesh {mesh} vs ring {ring}");
        assert!(ft > 2.0 * mesh, "fat tree {ft} vs mesh {mesh}");
    }

    #[test]
    fn concentration_saves_area() {
        let m = NocModel::new(64);
        let space = m.space();
        let area_id = m.catalog().require("area_mm2").unwrap();
        let mk = |topo: &str| {
            space
                .genome_from_values([
                    ("topology", ParamValue::Sym(topo.into())),
                    ("num_vcs", ParamValue::Int(2)),
                    ("flit_width", ParamValue::Int(64)),
                    ("buffer_depth", ParamValue::Int(4)),
                    ("allocator", ParamValue::Sym("separable".into())),
                ])
                .unwrap()
        };
        let ring = m.evaluate(&mk("Ring")).unwrap().get(area_id);
        let conc = m.evaluate(&mk("Concentrated Ring")).unwrap().get(area_id);
        assert!(conc < ring, "concentrated {conc} vs plain {ring}");
    }

    #[test]
    fn bandwidth_per_area_varies_by_family() {
        // Figure 2's point: families form distinct efficiency clusters.
        let d = dataset();
        let m = NocModel::new(64);
        let bw = d.catalog().require("bisection_gbps").unwrap();
        let area = d.catalog().require("area_mm2").unwrap();
        let mut per_family: std::collections::HashMap<&str, Vec<f64>> = Default::default();
        for (g, ms) in d.iter() {
            per_family.entry(m.topology_of(g).label()).or_default().push(ms.get(bw) / ms.get(area));
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let ring = mean(&per_family["Ring"]);
        let torus = mean(&per_family["Torus"]);
        assert!(torus > ring, "torus {torus} vs ring {ring} Gbps/mm^2");
    }

    #[test]
    fn evaluation_is_deterministic() {
        let m = NocModel::new(64);
        let g = m.space().genome_at(123);
        assert_eq!(m.evaluate(&g), m.evaluate(&g));
    }

    #[test]
    #[should_panic(expected = "even power of two")]
    fn one_node_network_model_is_rejected_eagerly() {
        // Validation happens in the constructor, not at first evaluate.
        let _ = NocModel::new(1);
    }

    #[test]
    #[should_panic(expected = "even power of two")]
    fn eight_endpoint_network_model_is_rejected_eagerly() {
        let _ = NocModel::new(8);
    }

    #[test]
    fn smallest_valid_network_model_evaluates_its_whole_space() {
        let m = NocModel::new(16);
        assert_eq!(m.endpoints(), 16);
        let area_id = m.catalog().require("area_mm2").unwrap();
        for i in 0..m.space().cardinality() {
            let g = m.space().genome_at(i);
            let ms = m.evaluate(&g).expect("every 16-endpoint config is feasible");
            assert!(ms.get(area_id) > 0.0);
        }
    }

    #[test]
    fn zero_vc_routers_are_unrepresentable() {
        // A router with zero virtual channels has no buffering at all; the
        // space's num_vcs domain starts at 2, so no genome can encode one.
        let m = NocModel::new(64);
        let err = m.space().genome_from_values([
            ("topology", ParamValue::Sym("Mesh".into())),
            ("num_vcs", ParamValue::Int(0)),
            ("flit_width", ParamValue::Int(64)),
            ("buffer_depth", ParamValue::Int(4)),
            ("allocator", ParamValue::Sym("separable".into())),
        ]);
        assert!(err.is_err(), "num_vcs=0 must not resolve to a genome");
    }

    #[test]
    fn larger_networks_cost_more() {
        let small = NocModel::new(64);
        let big = NocModel::new(256);
        let area_id = small.catalog().require("area_mm2").unwrap();
        let g = small.space().genome_at(42);
        let a64 = small.evaluate(&g).unwrap().get(area_id);
        let a256 = big.evaluate(&g).unwrap().get(area_id);
        assert!(a256 > 3.0 * a64);
    }
}
