//! Per-tenant budgets and the typed backpressure taxonomy.
//!
//! The daemon never silently drops a submission: every refusal is a
//! [`Backpressure`] value that crosses the wire intact, so a client can
//! distinguish "your queue is full, retry later" from "this model's
//! breaker is open" from "your deadline exceeds policy" and react
//! appropriately.

use nautilus_obs::{WireError, WireReader, WireWriter};

/// Admission limits applied to each tenant independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum jobs a tenant may have queued or running at once.
    pub max_active: usize,
    /// Largest distinct-evaluation budget a single job may request; a
    /// spec with `max_evals == 0` (unlimited) is clamped to this.
    pub max_evals: u64,
    /// Longest deadline a single job may request, milliseconds. A job
    /// that requests none (`deadline_ms == 0`) runs under this one; its
    /// persisted spec keeps the 0 it was submitted with.
    pub max_deadline_ms: u64,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota { max_active: 8, max_evals: 2_000_000, max_deadline_ms: 3_600_000 }
    }
}

/// Why the daemon refused a submission. Every variant carries enough to
/// act on; [`Backpressure::label`] is the stable telemetry key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Backpressure {
    /// The tenant already has `limit` jobs queued or running.
    QueueFull {
        /// Jobs currently held by this tenant.
        queued: u64,
        /// The tenant's `max_active` quota.
        limit: u64,
    },
    /// The requested evaluation budget exceeds tenant policy.
    EvalBudgetTooLarge {
        /// Budget the spec asked for (0 = unlimited).
        requested: u64,
        /// The tenant's `max_evals` quota.
        limit: u64,
    },
    /// The requested deadline exceeds tenant policy.
    DeadlineTooLong {
        /// Deadline the spec asked for, ms.
        requested_ms: u64,
        /// The tenant's `max_deadline_ms` quota.
        limit_ms: u64,
    },
    /// The model's circuit breaker is open after repeated failures.
    BreakerOpen {
        /// Model whose breaker tripped.
        model: String,
    },
    /// The daemon is draining and accepts no new work.
    Draining,
    /// The spec names a model the registry does not know.
    UnknownModel {
        /// The unrecognized name.
        name: String,
    },
    /// The spec names a strategy the registry does not know.
    UnknownStrategy {
        /// The unrecognized name.
        name: String,
    },
    /// The daemon is already serving its configured maximum of
    /// concurrent connections; overload is shed at accept time instead
    /// of queueing unboundedly.
    TooManyConnections {
        /// Connections being served when this one arrived.
        active: u64,
        /// The daemon's `max_connections` cap.
        limit: u64,
    },
}

const BP_QUEUE_FULL: u8 = 0;
const BP_EVAL_BUDGET: u8 = 1;
const BP_DEADLINE: u8 = 2;
const BP_BREAKER: u8 = 3;
const BP_DRAINING: u8 = 4;
const BP_UNKNOWN_MODEL: u8 = 5;
const BP_UNKNOWN_STRATEGY: u8 = 6;
const BP_TOO_MANY_CONNS: u8 = 7;

impl Backpressure {
    /// Short, stable label for telemetry and event payloads.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Backpressure::QueueFull { .. } => "queue_full",
            Backpressure::EvalBudgetTooLarge { .. } => "eval_budget_too_large",
            Backpressure::DeadlineTooLong { .. } => "deadline_too_long",
            Backpressure::BreakerOpen { .. } => "breaker_open",
            Backpressure::Draining => "draining",
            Backpressure::UnknownModel { .. } => "unknown_model",
            Backpressure::UnknownStrategy { .. } => "unknown_strategy",
            Backpressure::TooManyConnections { .. } => "too_many_connections",
        }
    }

    /// Human-readable refusal message.
    #[must_use]
    pub fn detail(&self) -> String {
        match self {
            Backpressure::QueueFull { queued, limit } => {
                format!("tenant already holds {queued} of {limit} active jobs")
            }
            Backpressure::EvalBudgetTooLarge { requested, limit } => {
                format!("evaluation budget {requested} exceeds tenant limit {limit}")
            }
            Backpressure::DeadlineTooLong { requested_ms, limit_ms } => {
                format!("deadline {requested_ms}ms exceeds tenant limit {limit_ms}ms")
            }
            Backpressure::BreakerOpen { model } => {
                format!("circuit breaker for model `{model}` is open")
            }
            Backpressure::Draining => "daemon is draining".to_owned(),
            Backpressure::UnknownModel { name } => format!("unknown model `{name}`"),
            Backpressure::UnknownStrategy { name } => format!("unknown strategy `{name}`"),
            Backpressure::TooManyConnections { active, limit } => {
                format!("daemon already serving {active} of {limit} connections")
            }
        }
    }

    pub(crate) fn encode_into(&self, w: &mut WireWriter) {
        match self {
            Backpressure::QueueFull { queued, limit } => {
                w.u8(BP_QUEUE_FULL);
                w.u64(*queued);
                w.u64(*limit);
            }
            Backpressure::EvalBudgetTooLarge { requested, limit } => {
                w.u8(BP_EVAL_BUDGET);
                w.u64(*requested);
                w.u64(*limit);
            }
            Backpressure::DeadlineTooLong { requested_ms, limit_ms } => {
                w.u8(BP_DEADLINE);
                w.u64(*requested_ms);
                w.u64(*limit_ms);
            }
            Backpressure::BreakerOpen { model } => {
                w.u8(BP_BREAKER);
                w.str(model);
            }
            Backpressure::Draining => w.u8(BP_DRAINING),
            Backpressure::UnknownModel { name } => {
                w.u8(BP_UNKNOWN_MODEL);
                w.str(name);
            }
            Backpressure::UnknownStrategy { name } => {
                w.u8(BP_UNKNOWN_STRATEGY);
                w.str(name);
            }
            Backpressure::TooManyConnections { active, limit } => {
                w.u8(BP_TOO_MANY_CONNS);
                w.u64(*active);
                w.u64(*limit);
            }
        }
    }

    pub(crate) fn decode_from(r: &mut WireReader<'_>) -> Result<Backpressure, WireError> {
        Ok(match r.u8()? {
            BP_QUEUE_FULL => Backpressure::QueueFull { queued: r.u64()?, limit: r.u64()? },
            BP_EVAL_BUDGET => {
                Backpressure::EvalBudgetTooLarge { requested: r.u64()?, limit: r.u64()? }
            }
            BP_DEADLINE => {
                Backpressure::DeadlineTooLong { requested_ms: r.u64()?, limit_ms: r.u64()? }
            }
            BP_BREAKER => Backpressure::BreakerOpen { model: r.str()? },
            BP_DRAINING => Backpressure::Draining,
            BP_UNKNOWN_MODEL => Backpressure::UnknownModel { name: r.str()? },
            BP_UNKNOWN_STRATEGY => Backpressure::UnknownStrategy { name: r.str()? },
            BP_TOO_MANY_CONNS => {
                Backpressure::TooManyConnections { active: r.u64()?, limit: r.u64()? }
            }
            other => return Err(WireError(format!("unknown backpressure kind {other}"))),
        })
    }
}

impl std::fmt::Display for Backpressure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.label(), self.detail())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Backpressure> {
        vec![
            Backpressure::QueueFull { queued: 8, limit: 8 },
            Backpressure::EvalBudgetTooLarge { requested: 0, limit: 100 },
            Backpressure::DeadlineTooLong { requested_ms: 7_200_000, limit_ms: 3_600_000 },
            Backpressure::BreakerOpen { model: "poison".into() },
            Backpressure::Draining,
            Backpressure::UnknownModel { name: "warp".into() },
            Backpressure::UnknownStrategy { name: "psychic".into() },
            Backpressure::TooManyConnections { active: 64, limit: 64 },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for bp in samples() {
            let mut w = WireWriter::new();
            bp.encode_into(&mut w);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            let decoded = Backpressure::decode_from(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(decoded, bp);
        }
    }

    #[test]
    fn labels_are_stable_and_details_informative() {
        let expected = [
            "queue_full",
            "eval_budget_too_large",
            "deadline_too_long",
            "breaker_open",
            "draining",
            "unknown_model",
            "unknown_strategy",
            "too_many_connections",
        ];
        for (bp, label) in samples().iter().zip(expected) {
            assert_eq!(bp.label(), label);
            assert!(!bp.detail().is_empty());
            assert!(bp.to_string().starts_with(label));
        }
    }
}
