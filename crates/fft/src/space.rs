//! Parameter space of the streaming FFT generator.
//!
//! Models a Spiral-style hardware FFT generator [Milder et al., TODAES'12]:
//! transform size, streaming width (samples consumed per cycle), datapath
//! architecture, fixed-point word widths and twiddle-table storage. The
//! paper's FFT dataset holds "approximately 12,000 design instances
//! (varying 6 parameters)"; this space has 13,608 lattice points of which
//! ~10,500 are feasible — the generator rejects the rest, exercising the
//! paper's "sparsely populated design spaces that include infeasible
//! points or regions".

use nautilus_ga::{Genome, ParamSpace, ParamValue};

/// Names of the six FFT parameters, in space order.
pub const FFT_PARAMS: [&str; 6] =
    ["transform_size", "streaming_width", "arch", "data_width", "twiddle_width", "twiddle_storage"];

/// The 6-parameter FFT space (13,608 lattice points).
///
/// ```
/// let space = nautilus_fft::space();
/// assert_eq!(space.num_params(), 6);
/// assert_eq!(space.cardinality(), 9 * 6 * 3 * 7 * 4 * 3);
/// ```
#[must_use]
pub fn space() -> ParamSpace {
    ParamSpace::builder()
        .pow2("transform_size", 4, 12) // 16 .. 4096 points
        .pow2("streaming_width", 0, 5) // 1 .. 32 samples/cycle
        .choices("arch", ["iterative", "streaming", "unrolled"])
        .int_list("data_width", [8, 10, 12, 16, 18, 20, 24])
        .int_list("twiddle_width", [8, 12, 16, 18])
        .choices("twiddle_storage", ["lut", "bram", "dist"])
        .build()
        .expect("static space is valid")
}

/// Decoded view of one FFT design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FftConfig {
    /// log2 of the transform size.
    pub log2_size: u32,
    /// log2 of the streaming width.
    pub log2_width: u32,
    /// Architecture index: 0 iterative, 1 streaming, 2 unrolled.
    pub arch: usize,
    /// Fixed-point data word width in bits.
    pub data_width: u32,
    /// Twiddle-factor word width in bits.
    pub twiddle_width: u32,
    /// Twiddle storage index: 0 lut, 1 bram, 2 dist.
    pub storage: usize,
}

impl FftConfig {
    /// Decodes `genome` against the FFT [`space`].
    ///
    /// # Panics
    ///
    /// Panics if the genome does not belong to the FFT space.
    #[must_use]
    pub fn decode(space: &ParamSpace, genome: &Genome) -> FftConfig {
        let genes = genome.genes();
        let int = |name: &str| -> i64 {
            let id = space.id(name).expect("fft param");
            match space.param(id).domain().value(genes[id.index()] as usize) {
                ParamValue::Int(v) => v,
                other => panic!("expected integer for {name}, got {other}"),
            }
        };
        let gene = |name: &str| genes[space.id(name).expect("fft param").index()];
        FftConfig {
            log2_size: (int("transform_size") as u64).trailing_zeros(),
            log2_width: (int("streaming_width") as u64).trailing_zeros(),
            arch: gene("arch") as usize,
            data_width: int("data_width") as u32,
            twiddle_width: int("twiddle_width") as u32,
            storage: gene("twiddle_storage") as usize,
        }
    }

    /// Whether the generator can elaborate this configuration.
    ///
    /// * A streaming or iterative datapath needs its streaming width
    ///   strictly below the transform size (`2^w < 2^n`).
    /// * Fully unrolled datapaths are only generated up to 128 points
    ///   (beyond that the netlist explodes); the streaming-width parameter
    ///   is ignored by the unrolled datapath, so any value is accepted.
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        match self.arch {
            2 => self.log2_size <= 7,
            _ => self.log2_width < self.log2_size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_matches_paper_scale() {
        let s = space();
        assert_eq!(s.cardinality(), 13_608);
        for name in FFT_PARAMS {
            assert!(s.id(name).is_some(), "missing parameter {name}");
        }
    }

    #[test]
    fn feasible_fraction_is_close_to_the_paper_dataset() {
        let s = space();
        let feasible = s.iter_genomes().filter(|g| FftConfig::decode(&s, g).is_feasible()).count();
        // ~10.5k feasible of 13.6k lattice points ("approximately 12,000").
        assert!((9_000..=12_500).contains(&feasible), "feasible count {feasible}");
    }

    #[test]
    fn decode_round_trips_values() {
        let s = space();
        let g = s
            .genome_from_values([
                ("transform_size", ParamValue::Int(256)),
                ("streaming_width", ParamValue::Int(4)),
                ("arch", ParamValue::Sym("streaming".into())),
                ("data_width", ParamValue::Int(16)),
                ("twiddle_width", ParamValue::Int(12)),
                ("twiddle_storage", ParamValue::Sym("bram".into())),
            ])
            .unwrap();
        let c = FftConfig::decode(&s, &g);
        assert_eq!(c.log2_size, 8);
        assert_eq!(c.log2_width, 2);
        assert_eq!(c.arch, 1);
        assert_eq!(c.data_width, 16);
        assert_eq!(c.twiddle_width, 12);
        assert_eq!(c.storage, 1);
        assert!(c.is_feasible());
    }

    #[test]
    fn feasibility_rules() {
        let mk = |n: u32, w: u32, arch: usize| FftConfig {
            log2_size: n,
            log2_width: w,
            arch,
            data_width: 16,
            twiddle_width: 16,
            storage: 0,
        };
        // Streaming width must stay below the transform size.
        assert!(mk(4, 3, 1).is_feasible());
        assert!(!mk(4, 4, 1).is_feasible());
        assert!(!mk(4, 5, 0).is_feasible());
        // Unrolled only up to 128 points, any width gene.
        assert!(mk(7, 5, 2).is_feasible());
        assert!(!mk(8, 0, 2).is_feasible());
    }
}
