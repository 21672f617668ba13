//! # nautilus-noc — the Network-on-Chip IP substrate
//!
//! The paper evaluates Nautilus on two NoC artifacts, both rebuilt here:
//!
//! * [`router`] — the Stanford-style virtual-channel router IP: the full
//!   42-parameter space ("multiple billions of possible design points"),
//!   the 9-parameter swept sub-space of ~28k points behind the paper's
//!   characterized dataset, and a surrogate FPGA-synthesis model producing
//!   LUTs / Fmax / latency with Figure 1's ranges and scatter.
//! * [`connect`] — a CONNECT-style network generator: eight topology
//!   families at 64 endpoints with a 65nm ASIC area/power/bisection-
//!   bandwidth model, regenerating Figure 2's clusters.
//! * [`hints`] — the non-expert hint books used for the paper's NoC
//!   queries (maximize Fmax, minimize area-delay product).
//!
//! ## Example
//!
//! ```
//! use nautilus_ga::Direction;
//! use nautilus_noc::router::RouterModel;
//! use nautilus_synth::{CostModel, MetricExpr, SynthJobRunner};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = RouterModel::swept();
//! let runner = SynthJobRunner::new(&model);
//! let genome = model.space().genome_at(12_345);
//! let metrics = runner.evaluate(&genome).expect("router points are feasible");
//! let fmax = model.catalog().require("fmax")?;
//! assert!(metrics.get(fmax) > 50.0);
//! # Ok(()) }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod connect;
pub mod hints;
pub mod router;

#[cfg(test)]
mod tests {
    #[test]
    fn models_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::router::RouterModel>();
        assert_send_sync::<super::connect::NocModel>();
    }
}
