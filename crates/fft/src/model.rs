//! Surrogate synthesis model of the streaming FFT generator.
//!
//! Mirrors the cost structure of Spiral-generated FFT datapaths:
//!
//! * a **streaming** datapath instantiates `log2(N)` butterfly stages of
//!   `W/2` butterflies each, plus streaming permutation networks;
//! * an **iterative** datapath reuses one stage across `log2(N)` passes,
//!   trading throughput for area;
//! * a fully **unrolled** datapath spends a butterfly per FFT-graph node
//!   for maximal throughput;
//! * twiddle factors live in LUTs, distributed RAM or block RAM;
//! * quantization (data and twiddle widths) sets the output SNR.
//!
//! Calibrated so the dataset minimum is ~540 LUTs and the best
//! throughput-per-LUT is ~1.5–1.7 MSPS/LUT, the values the paper's
//! Figures 6 and 7 report.

use nautilus_ga::{Genome, ParamSpace};
use nautilus_synth::noise::noise_factor;
use nautilus_synth::{CostModel, MetricCatalog, MetricSet};

use crate::space::{space, FftConfig};

const SALT_LUTS: u64 = 0xFF7_0001;
const SALT_FMAX: u64 = 0xFF7_0002;
const SALT_SNR: u64 = 0xFF7_0003;

/// Bits per block RAM (18 kb BRAM of the paper's Virtex-6 target).
const BRAM_BITS: f64 = 18_432.0;

/// The FFT generator's synthesis backend.
///
/// ```
/// use nautilus_fft::FftModel;
/// use nautilus_synth::CostModel;
/// let model = FftModel::new();
/// assert_eq!(model.space().num_params(), 6);
/// assert_eq!(model.catalog().len(), 5);
/// ```
#[derive(Debug)]
pub struct FftModel {
    space: ParamSpace,
    catalog: MetricCatalog,
}

impl FftModel {
    /// Creates the model over the standard FFT [`space`].
    #[must_use]
    pub fn new() -> Self {
        FftModel {
            space: space(),
            catalog: MetricCatalog::new([
                ("luts", "LUTs"),
                ("brams", "BRAMs"),
                ("fmax", "MHz"),
                ("throughput", "MSPS"),
                ("snr", "dB"),
            ])
            .expect("static catalog"),
        }
    }
}

impl Default for FftModel {
    fn default() -> Self {
        FftModel::new()
    }
}

impl CostModel for FftModel {
    fn name(&self) -> &str {
        "spiral-fft"
    }

    fn space(&self) -> &ParamSpace {
        &self.space
    }

    fn catalog(&self) -> &MetricCatalog {
        &self.catalog
    }

    fn evaluate(&self, genome: &Genome) -> Option<MetricSet> {
        let c = FftConfig::decode(&self.space, genome);
        if !c.is_feasible() {
            return None;
        }
        let n = f64::from(c.log2_size); // stages
        let size = (1u64 << c.log2_size) as f64; // transform points
        let w = (1u64 << c.log2_width) as f64; // samples per cycle
        let b = f64::from(c.data_width);
        let t = f64::from(c.twiddle_width);

        // One radix-2 butterfly: complex multiplier (b×t partial products)
        // plus complex add/sub and rounding.
        let butterfly = b * t * 0.25 + b * 7.0;

        // ---- LUTs and BRAMs by architecture --------------------------------
        let (mut luts, mut brams, samples_per_cycle);
        match c.arch {
            0 => {
                // Iterative: one stage + feedback permutation + control.
                luts = (w / 2.0) * butterfly + w * b * 1.2 + 550.0;
                // Working memory: the whole transform buffered in BRAM.
                brams = (size * 2.0 * b / BRAM_BITS).ceil();
                samples_per_cycle = w / n; // n passes over the data
            }
            1 => {
                // Streaming: log2(N) stages, each with W/2 butterflies and a
                // streaming permutation network.
                luts = n * (w / 2.0) * butterfly + n * w * b * 0.45 + n * 60.0 + 260.0;
                // Per-stage delay buffers (double-buffered).
                brams = (n * (size / w).max(1.0) * w.min(4.0) * 2.0 * b / BRAM_BITS).ceil();
                samples_per_cycle = w;
            }
            _ => {
                // Unrolled: a butterfly per graph node, no data memory.
                luts = n * (size / 2.0) * butterfly * 1.3 + size * b * 1.0;
                brams = 0.0;
                samples_per_cycle = size;
            }
        }

        // ---- Twiddle storage -------------------------------------------------
        let twiddle_bits = size * t;
        match c.storage {
            0 => luts += twiddle_bits * 0.25, // LUT ROM
            1 => {
                brams += (twiddle_bits / BRAM_BITS).ceil();
                luts += 90.0; // addressing glue
            }
            _ => luts += twiddle_bits * 0.15, // distributed RAM
        }

        // ---- Clock ------------------------------------------------------------
        let mut delay_ns = 2.0
            + 0.04 * (b - 8.0)
            + 0.18 * f64::from(c.log2_width)
            + match c.storage {
                0 => 0.30,
                1 => 0.25,
                _ => 0.15,
            }
            + match c.arch {
                0 => 0.25, // feedback mux
                1 => 0.0,
                _ => 0.50 + 0.10 * n, // giant fanout
            };
        delay_ns *= noise_factor(genome, SALT_FMAX, 0.04);
        let fmax = (1000.0 / delay_ns).clamp(80.0, 500.0);

        // ---- Derived metrics ---------------------------------------------------
        luts = (luts * noise_factor(genome, SALT_LUTS, 0.05)).round().max(1.0);
        let throughput = fmax * samples_per_cycle; // MSPS
        let snr = (6.02 * b.min(t + 2.0) + 1.76 - 1.4 * n) * noise_factor(genome, SALT_SNR, 0.02);

        Some(
            self.catalog
                .set(vec![luts, brams, fmax, throughput, snr])
                .expect("arity matches catalog"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nautilus_ga::{Direction, ParamValue};
    use nautilus_synth::{Dataset, MetricExpr};

    fn dataset() -> Dataset {
        Dataset::characterize(&FftModel::new(), 8).unwrap()
    }

    #[test]
    fn dataset_scale_matches_paper() {
        let d = dataset();
        assert!((9_000..=12_500).contains(&d.len()), "dataset holds {} designs", d.len());
    }

    #[test]
    fn min_luts_matches_figure_6() {
        let d = dataset();
        let luts = MetricExpr::metric(d.catalog().require("luts").unwrap());
        let (g, v) = d.best(&luts, Direction::Minimize);
        // Figure 6 converges to ~540 LUTs.
        assert!((420.0..650.0).contains(&v), "min LUTs {v}");
        let dp = d.space().decode(g);
        // The smallest design is a 16-point FFT with narrow words and a
        // resource-sharing (iterative or width-1 streaming) datapath.
        assert_ne!(dp.get("arch"), Some(&ParamValue::Sym("unrolled".into())));
        assert_eq!(dp.get("transform_size"), Some(&ParamValue::Int(16)));
        // Narrow datapath (synthesis noise may favor 10 bits over 8).
        let b = dp.get("data_width").unwrap().as_i64().unwrap();
        assert!(b <= 12, "min-LUT design uses {b}-bit data");
    }

    #[test]
    fn peak_throughput_per_lut_matches_figure_7() {
        let d = dataset();
        let tpl = MetricExpr::metric(d.catalog().require("throughput").unwrap())
            / MetricExpr::metric(d.catalog().require("luts").unwrap());
        let (_, v) = d.best(&tpl, Direction::Maximize);
        // Figure 7 peaks a bit above 1.5 MSPS/LUT.
        assert!((1.3..2.6).contains(&v), "peak throughput/LUT {v}");
    }

    #[test]
    fn infeasible_points_are_rejected() {
        let m = FftModel::new();
        let g = m
            .space()
            .genome_from_values([
                ("transform_size", ParamValue::Int(16)),
                ("streaming_width", ParamValue::Int(32)),
                ("arch", ParamValue::Sym("streaming".into())),
                ("data_width", ParamValue::Int(16)),
                ("twiddle_width", ParamValue::Int(16)),
                ("twiddle_storage", ParamValue::Sym("lut".into())),
            ])
            .unwrap();
        assert_eq!(m.evaluate(&g), None);
    }

    #[test]
    fn streaming_beats_iterative_throughput_at_same_width() {
        let m = FftModel::new();
        let thr = m.catalog().require("throughput").unwrap();
        let mk = |arch: &str| {
            m.space()
                .genome_from_values([
                    ("transform_size", ParamValue::Int(256)),
                    ("streaming_width", ParamValue::Int(4)),
                    ("arch", ParamValue::Sym(arch.into())),
                    ("data_width", ParamValue::Int(16)),
                    ("twiddle_width", ParamValue::Int(16)),
                    ("twiddle_storage", ParamValue::Sym("bram".into())),
                ])
                .unwrap()
        };
        let s = m.evaluate(&mk("streaming")).unwrap().get(thr);
        let i = m.evaluate(&mk("iterative")).unwrap().get(thr);
        assert!(s > 4.0 * i, "streaming {s} vs iterative {i}");
    }

    #[test]
    fn bigger_transforms_cost_more_luts() {
        let m = FftModel::new();
        let luts = m.catalog().require("luts").unwrap();
        let mk = |size: i64| {
            m.space()
                .genome_from_values([
                    ("transform_size", ParamValue::Int(size)),
                    ("streaming_width", ParamValue::Int(2)),
                    ("arch", ParamValue::Sym("streaming".into())),
                    ("data_width", ParamValue::Int(16)),
                    ("twiddle_width", ParamValue::Int(12)),
                    ("twiddle_storage", ParamValue::Sym("lut".into())),
                ])
                .unwrap()
        };
        let small = m.evaluate(&mk(32)).unwrap().get(luts);
        let big = m.evaluate(&mk(4096)).unwrap().get(luts);
        assert!(big > 3.0 * small, "{small} -> {big}");
    }

    #[test]
    fn wider_words_raise_snr() {
        let m = FftModel::new();
        let snr = m.catalog().require("snr").unwrap();
        let mk = |b: i64, t: i64| {
            m.space()
                .genome_from_values([
                    ("transform_size", ParamValue::Int(256)),
                    ("streaming_width", ParamValue::Int(2)),
                    ("arch", ParamValue::Sym("streaming".into())),
                    ("data_width", ParamValue::Int(b)),
                    ("twiddle_width", ParamValue::Int(t)),
                    ("twiddle_storage", ParamValue::Sym("bram".into())),
                ])
                .unwrap()
        };
        let narrow = m.evaluate(&mk(8, 8)).unwrap().get(snr);
        let wide = m.evaluate(&mk(24, 18)).unwrap().get(snr);
        assert!(wide > narrow + 30.0, "{narrow} vs {wide}");
    }

    #[test]
    fn unrolled_designs_have_no_data_brams_but_huge_area() {
        let m = FftModel::new();
        let luts = m.catalog().require("luts").unwrap();
        let brams = m.catalog().require("brams").unwrap();
        let g = m
            .space()
            .genome_from_values([
                ("transform_size", ParamValue::Int(128)),
                ("streaming_width", ParamValue::Int(1)),
                ("arch", ParamValue::Sym("unrolled".into())),
                ("data_width", ParamValue::Int(16)),
                ("twiddle_width", ParamValue::Int(16)),
                ("twiddle_storage", ParamValue::Sym("dist".into())),
            ])
            .unwrap();
        let ms = m.evaluate(&g).unwrap();
        assert!(ms.get(luts) > 20_000.0);
        assert_eq!(ms.get(brams), 0.0);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let m = FftModel::new();
        let g = m.space().genome_at(7_777);
        assert_eq!(m.evaluate(&g), m.evaluate(&g));
    }
}
