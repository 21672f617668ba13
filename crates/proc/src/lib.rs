//! # nautilus-proc — out-of-process synthesis evaluators
//!
//! Real deployments of the Nautilus search (DAC 2015) shell out to EDA
//! tools: every evaluation is an external process that can crash, hang,
//! or print garbage. This crate generalizes the in-process
//! `FallibleEvaluator`/`SupervisableEvaluator` boundary across a process
//! boundary:
//!
//! * [`protocol`] — the `NAUTPROC` length-prefixed, CRC-trailed
//!   stdin/stdout framing (versioned records mirroring the `NAUTCKPT`
//!   checkpoint discipline).
//! * [`server`] — the child-side serve loop a synthesis-tool shim runs,
//!   generic over `Read`/`Write` so every pathway is unit-testable
//!   in-memory. Fault knobs mirror the in-process `FaultyEvaluator`.
//! * [`evaluator`] — the parent side: a [`SubprocessEvaluator`] keeping a
//!   pool of warm child processes, routing each genome to a
//!   deterministic slot, mapping child death / garbage / silence onto
//!   the engine's failure taxonomy, and respawning with backoff.
//!
//! The design invariant carried over from the rest of the repo: a search
//! driven through a subprocess evaluator produces **byte-identical
//! outcomes and logically identical event streams** to the same search
//! run in-process, at any worker count, including under fault storms.
//! The trick is that all timing on the wire is *virtual* (the same
//! seeded fault-plan costs the in-process path uses) and every
//! scheduling-dependent effect (which child serves which request) is
//! either deterministic by construction or invisible to accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod evaluator;
pub mod protocol;
pub mod server;

pub use evaluator::{
    ProcError, StashModel, SubprocessConfig, SubprocessEvaluator, SubprocessStats,
};
pub use protocol::{
    Frame, ProtoError, WireOutcome, MAGIC, MAX_BODY_LEN, VERSION, WIRE_FAULT_PERSISTENT,
    WIRE_FAULT_TIMEOUT, WIRE_FAULT_TRANSIENT,
};
pub use server::{serve, ServeExit, ServeOptions};

#[cfg(test)]
pub(crate) mod testmodel;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Frame>();
        assert_send_sync::<WireOutcome>();
        assert_send_sync::<ProtoError>();
        assert_send_sync::<ServeOptions>();
        assert_send_sync::<ServeExit>();
        assert_send_sync::<SubprocessConfig>();
        assert_send_sync::<SubprocessStats>();
        assert_send_sync::<ProcError>();
        assert_send_sync::<SubprocessEvaluator<'static>>();
        assert_send_sync::<StashModel<'static>>();
    }
}
