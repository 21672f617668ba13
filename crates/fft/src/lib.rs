//! # nautilus-fft — the streaming FFT IP substrate
//!
//! A Spiral-style hardware FFT generator model, the second IP of the
//! paper's evaluation: ~13.6k lattice points over 6 parameters (~10.5k
//! feasible, the paper's "approximately 12,000"), characterized by a
//! surrogate synthesis model reporting LUTs, BRAMs, Fmax, throughput
//! (MSPS) and SNR. Expert hint books for the paper's two FFT queries and
//! the Figure 3 bias-only ablation live in [`hints`].
//!
//! ## Example
//!
//! ```
//! use nautilus_fft::{FftModel, FftConfig};
//! use nautilus_synth::CostModel;
//!
//! let model = FftModel::new();
//! let genome = model.space().genome_at(1_000);
//! let config = FftConfig::decode(model.space(), &genome);
//! assert_eq!(model.evaluate(&genome).is_some(), config.is_feasible());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod hints;
mod model;
mod space;

pub use model::FftModel;
pub use space::{space, FftConfig, FFT_PARAMS};

#[cfg(test)]
mod tests {
    #[test]
    fn model_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::FftModel>();
    }
}
