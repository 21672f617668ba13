//! # nautilus-bench — the paper's evaluation, regenerated
//!
//! One function per figure of the DAC'15 Nautilus paper (Figures 1–7; the
//! paper has no numbered tables, so its in-text convergence-cost claims
//! are collected as "Table A"). Each returns an [`ExperimentReport`] with
//! paper-vs-measured headlines, a rendered data table and CSV artifacts.
//!
//! Run everything with the `experiments` binary:
//!
//! ```text
//! cargo run --release -p nautilus-bench --bin experiments           # all, paper scale
//! cargo run --release -p nautilus-bench --bin experiments -- fig4   # one figure
//! cargo run --release -p nautilus-bench --bin experiments -- --quick all
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod data;
pub mod figures;
pub mod report;
pub mod subprocess;
pub mod telemetry;
pub mod traceview;

pub use chaos::{
    chaos_digest, chaos_recover_digest, chaos_resume_digest, chaos_victim, hang_storm_digest,
    CHAOS_TRANSIENT_RATE, STORM_HANG_RATE,
};
pub use figures::{
    abl_confidence, abl_decay, abl_hint_classes, abl_metaheuristics, abl_operators,
    abl_wrong_hints, all_ablations, fig1, fig2, fig3, fig4, fig5, fig6, fig7, Scale,
};
pub use report::{render_table_a, ExperimentReport, Headline};
pub use subprocess::{
    clean_digest, measure_subprocess_dispatch, subprocess_chaos_digest, subprocess_clean_digest,
    subprocess_storm_digest, DispatchReport,
};
pub use telemetry::{
    capture_chaos_telemetry, capture_telemetry, capture_traced, TelemetryArtifacts, TraceArtifacts,
};
pub use traceview::{
    diff_artifacts, digest, parse_trace, summarize, DiffReport, TraceData, TraceDigest,
    TraceSummary, TraceViewError,
};
