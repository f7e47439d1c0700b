//! Typed refusals: every op the service does not apply says why.
//!
//! The service never drops work silently. Each submission ends in
//! exactly one of: an [`crate::Ack`] (the op is durably committed), or
//! one of these errors (the op is provably *not* in the store).

use std::fmt;

/// Why a submission was refused. Every variant is a guarantee that the
/// op was **not applied** — callers can safely retry, reroute, or give
/// up without wondering whether the effect half-happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control: the op queue was at capacity. The op was
    /// shed at the door — nothing was enqueued. Carries a typed retry
    /// hint so callers back off proportionally to the pressure they
    /// observed instead of hammering a full queue.
    Overloaded {
        /// Queue occupancy observed at admission.
        queue_len: usize,
        /// The configured bound it collided with.
        capacity: usize,
        /// Suggested wait before retrying, derived from the observed
        /// depth and the op deadline (see [`suggested_backoff_ms`]).
        retry_after_ms: u64,
    },
    /// The op's deadline passed before the writer reached it. The op
    /// was dequeued and discarded without being applied.
    Timeout {
        /// The absolute deadline stamped at submission (clock ms).
        deadline_ms: u64,
        /// The writer's clock when it picked the op up.
        now_ms: u64,
    },
    /// The session's circuit breaker is open: it faulted repeatedly
    /// and is quarantined until the cooldown elapses.
    Quarantined {
        /// The quarantined session.
        session: u64,
        /// Clock instant when probing may resume.
        open_until_ms: u64,
    },
    /// The op panicked mid-application. Its partial effects were
    /// rolled back to the pre-op checkpoint; the store and the writer
    /// survive.
    Panicked {
        /// The panic payload, when it was a string.
        detail: String,
    },
    /// The durable commit (or an op's rollback) failed. Every op the
    /// batch had applied was refused and the machine repaired to its
    /// last durable state.
    Io {
        /// The underlying error, rendered.
        detail: String,
    },
    /// The pad engine refused the op with a typed domain error (unknown
    /// mark, dangling handle, format violation). The op's partial
    /// effects were rolled back to the pre-op checkpoint; the session
    /// and the writer survive.
    Engine {
        /// The engine error, rendered.
        detail: String,
    },
    /// The service is shut down (or shutting down); no new work is
    /// accepted and in-flight work was refused.
    Closed,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { queue_len, capacity, retry_after_ms } => {
                write!(
                    f,
                    "overloaded: queue at {queue_len}/{capacity}, op shed; retry in {retry_after_ms}ms"
                )
            }
            ServeError::Timeout { deadline_ms, now_ms } => {
                write!(f, "timeout: deadline {deadline_ms}ms passed (now {now_ms}ms)")
            }
            ServeError::Quarantined { session, open_until_ms } => {
                write!(f, "session {session} quarantined until {open_until_ms}ms")
            }
            ServeError::Panicked { detail } => {
                write!(f, "op panicked (rolled back): {detail}")
            }
            ServeError::Io { detail } => write!(f, "commit failed (rolled back): {detail}"),
            ServeError::Engine { detail } => {
                write!(f, "engine refused (rolled back): {detail}")
            }
            ServeError::Closed => write!(f, "service closed"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The retry hint stamped on [`ServeError::Overloaded`]: scale the op
/// deadline by the observed queue pressure, so a caller shedding against
/// a full queue waits about one deadline and a caller racing a nearly
/// drained queue retries almost immediately. Deterministic — the chaos
/// harness replays it exactly.
pub fn suggested_backoff_ms(queue_len: usize, capacity: usize, op_deadline_ms: u64) -> u64 {
    let capacity = capacity.max(1) as u64;
    let pressure = (queue_len as u64).min(capacity);
    (op_deadline_ms.saturating_mul(pressure) / capacity).max(1)
}

impl From<trim::TrimError> for ServeError {
    fn from(e: trim::TrimError) -> Self {
        ServeError::Io { detail: e.to_string() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_evidence() {
        let e = ServeError::Overloaded { queue_len: 8, capacity: 8, retry_after_ms: 250 };
        assert!(e.to_string().contains("8/8"));
        assert!(e.to_string().contains("250ms"));
        let e = ServeError::Timeout { deadline_ms: 100, now_ms: 250 };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("250"));
        let e = ServeError::Quarantined { session: 3, open_until_ms: 900 };
        assert!(e.to_string().contains("session 3"));
        let e = ServeError::Panicked { detail: "boom".into() };
        assert!(e.to_string().contains("boom"));
        let e = ServeError::Engine { detail: "unknown mark".into() };
        assert!(e.to_string().contains("unknown mark"));
    }

    #[test]
    fn backoff_scales_with_queue_pressure() {
        // Full queue: wait a whole deadline. Near-empty: retry at once.
        assert_eq!(suggested_backoff_ms(8, 8, 1_000), 1_000);
        assert_eq!(suggested_backoff_ms(4, 8, 1_000), 500);
        assert_eq!(suggested_backoff_ms(0, 8, 1_000), 1);
        // Degenerate configs never divide by zero or return zero.
        assert_eq!(suggested_backoff_ms(5, 0, 1_000), 1_000);
        assert_eq!(suggested_backoff_ms(1, 8, 0), 1);
    }
}
