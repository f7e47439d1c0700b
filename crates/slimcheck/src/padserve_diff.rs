//! Pad-service differential check: a live, supervised
//! [`slimserve::PadService`] driven serially through two registered
//! sessions, with every acknowledged op replayed into a fresh
//! single-threaded [`PadMachine`] mirror.
//!
//! The contract checked is the service's own: an ack means the op was
//! durably committed and deterministically replayable, a refusal means
//! it never happened. Concretely, after every acked op the service's
//! published logical digest must equal the mirror's, and the acked
//! outcome itself (resolution display, undo/redo stepping, extraction
//! content) must match what the mirror computes from the same op. The
//! `Sibling*` ops interleave a second session — including
//! [`SiblingCrashCommit`](crate::ops::PadServeOp::SiblingCrashCommit),
//! which drives a structural op into a one-shot append fault so the
//! batch is io-refused and the writer reopens from disk mid-sequence.
//! At the end the ledger must balance (zero silent drops) and a cold
//! from-disk reopen must land exactly on the acked state.
//!
//! Ops are submitted with blocking `submit()` and the shared clock is
//! never advanced, so the schedule — batching, faults, reopens — is a
//! pure function of the op sequence and the whole check is
//! deterministic, shrink-safe, and seed-replayable.
//!
//! [`Mutation::PadDigestSkipReferrers`] opens the service through its
//! seeded-bug constructor, whose digest upkeep leaves the bundle holding
//! a changed scrap stale; the per-ack digest check catches it.

use crate::ops::{PadServeOp, ANNOTATIONS, NAMES};
use crate::Mutation;
use marks::resilience::{BreakerConfig, MockClock};
use marks::{FaultProfile, FlakyControl, RetryPolicy};
use slimio::{FaultConfig, FaultMode, FaultOp, FaultVfs, MemVfs, Vfs};
use slimserve::{
    ward_doc, ward_factory, ward_mirror, ward_reopen, PadConfig, PadMachine, PadOp, PadService,
    PadSessionHandle, ServeError, WARD_PARAGRAPHS,
};
use std::path::Path;
use std::sync::Arc;

/// Where the service's snapshot, log and mark records live on the fault disk.
const PAD: &str = "slimcheck/padserve.xml";

fn config() -> PadConfig {
    PadConfig {
        queue_capacity: 64,
        max_batch: 8,
        // Ops are submitted serially and the clock never moves, so the
        // deadline only needs to be nonzero; a roomy one keeps timeouts
        // out of the differential entirely.
        op_deadline_ms: 60_000,
        // Generous: engine refusals (empty-pad selectors, empty undo
        // stacks) are routine in generated sequences and must not
        // quarantine the session before the interesting schedule runs.
        breaker: BreakerConfig {
            failure_threshold: 64,
            cooldown_ms: 1_000,
            probe_budget: 3,
            probe_successes: 1,
        },
        // Small enough that generated sequences cross compaction
        // boundaries without an explicit `Compact` op.
        compact_threshold: 1 << 12,
    }
}

/// Run `ops` against a live pad service and its mirror; panics on any
/// divergence.
pub fn check(ops: &[PadServeOp], mutation: Mutation) {
    let disk = Arc::new(FaultVfs::unarmed(MemVfs::new()));
    let clock = Arc::new(MockClock::new());
    let control = FlakyControl::new(0);
    control.disarm();
    let factory = ward_factory(
        (*clock).clone(),
        FaultProfile::healthy(),
        control.clone(),
        RetryPolicy::default(),
        BreakerConfig::default(),
        3,
    );
    let open = if mutation == Mutation::PadDigestSkipReferrers {
        PadService::testonly_open_skipping_bundle_holders
    } else {
        PadService::open
    };
    let service = open(disk.clone(), Path::new(PAD), config(), clock.clone(), factory)
        .expect("fresh pad service opens on a healthy MemVfs");
    let main = service.session();
    let sibling = service.session();
    let mut mirror = ward_mirror();

    for op in ops {
        step(op, &disk, &main, &sibling, &mut mirror);
    }

    let live = service.digest();
    assert_eq!(live, mirror.digest(), "live digest diverged from the acked-op mirror at the end");

    let stats = service.shutdown();
    assert_eq!(stats.unaccounted(), 0, "pad-service ledger does not balance: {stats:?}");
    // Serial blocking submission can never overflow the queue, age an
    // op past its deadline, or panic the writer (no chaos ops here).
    assert_eq!(stats.shed, 0, "serial submission was shed: {stats:?}");
    assert_eq!(stats.timed_out, 0, "serial submission timed out under a frozen clock: {stats:?}");
    assert_eq!(stats.panicked, 0, "writer panicked without a chaos op: {stats:?}");

    assert_eq!(
        reopen_digest(&*disk),
        mirror.digest(),
        "cold from-disk reopen diverged from the acked-op mirror"
    );
}

/// Submit one translated op and hold the service to its ack contract.
fn step(
    op: &PadServeOp,
    disk: &Arc<FaultVfs<MemVfs>>,
    main: &PadSessionHandle,
    sibling: &PadSessionHandle,
    mirror: &mut PadMachine,
) {
    let (via_sibling, pad_op, fault) = translate(op);
    let session = if via_sibling { sibling } else { main };
    let crash = fault.is_some();
    if let Some(config) = fault {
        disk.rearm(config);
    }
    let verdict = session.submit(pad_op.clone());
    if crash {
        // The one-shot fault was consumed by the doomed commit; this
        // just clears the schedule for the next arm.
        disk.disarm();
    }
    match verdict {
        Ok(ack) => {
            assert!(!crash, "crash-commit probe was acked despite the armed append fault");
            let mirrored = mirror.apply(&pad_op).unwrap_or_else(|e| {
                panic!("acked op {pad_op:?} refused in mirror replay: {e}")
            });
            assert_eq!(
                ack.outcome, mirrored,
                "acked outcome diverged from mirror replay for {pad_op:?}"
            );
            assert_eq!(
                session.digest(),
                mirror.digest(),
                "published digest diverged from mirror after acked {pad_op:?}"
            );
        }
        // Typed domain refusal: the op never happened on either side.
        Err(ServeError::Engine { .. }) => {
            assert!(!crash, "crash-commit probe must die in the commit, not the engine");
        }
        // The doomed batch: commit failed, op refused, the suspect log
        // tail truncated, and the writer reopened from disk — and it
        // publishes the reopened digest *before* resolving the refusal,
        // so the rollback must already be visible here.
        Err(ServeError::Io { .. }) => {
            assert!(crash, "io refusal without an armed fault for {pad_op:?}");
            assert_eq!(
                session.digest(),
                mirror.digest(),
                "io-refused batch left a visible digest change for {pad_op:?}"
            );
        }
        // A session breaker can legitimately open under a refusal-heavy
        // generated sequence; admission refusals reach neither side.
        Err(ServeError::Quarantined { .. }) => {}
        Err(e) => panic!("unexpected refusal for {pad_op:?}: {e}"),
    }
}

/// Lower a generated op to (which session, the service op, an optional
/// one-shot fault to arm first).
fn translate(op: &PadServeOp) -> (bool, PadOp, Option<FaultConfig>) {
    match *op {
        PadServeOp::Create { name, pos, parent } => (false, bundle_op(name, pos, parent), None),
        PadServeOp::Mark { doc, paragraph, label, pos, bundle } => {
            (false, mark_op(doc, paragraph, label, pos, bundle), None)
        }
        PadServeOp::Annotate { scrap, text } => (
            false,
            PadOp::Annotate { scrap: scrap as u64, text: ANNOTATIONS[text].to_string() },
            None,
        ),
        PadServeOp::Link { from, to } => {
            (false, PadOp::Link { from: from as u64, to: to as u64 }, None)
        }
        PadServeOp::Resolve { scrap } => (false, PadOp::Resolve { scrap: scrap as u64 }, None),
        PadServeOp::Extract { scrap } => (false, PadOp::Extract { scrap: scrap as u64 }, None),
        PadServeOp::Undo => (false, PadOp::Undo, None),
        PadServeOp::Redo => (false, PadOp::Redo, None),
        PadServeOp::Commit => (false, PadOp::Commit, None),
        PadServeOp::Compact => (false, PadOp::Compact, None),
        PadServeOp::SiblingPadOp { mark, name, pos, target } => {
            let op = if mark {
                mark_op(name, name, name, pos, target)
            } else {
                bundle_op(name, pos, target)
            };
            (true, op, None)
        }
        PadServeOp::SiblingUndo => (true, PadOp::Undo, None),
        PadServeOp::SiblingCrashCommit { torn, tear_seed } => {
            let mode = if torn { FaultMode::Torn } else { FaultMode::Fail };
            // The probe must reach its group commit, so it is an op the
            // engine always accepts; the fault then fails the commit's
            // first append and the whole batch is io-refused.
            let probe = PadOp::CreateBundle {
                name: "crash probe".into(),
                pos: (0, 0),
                width: 10,
                height: 10,
                parent: None,
            };
            (true, probe, Some(FaultConfig::new(FaultOp::Append, mode, 0, tear_seed)))
        }
    }
}

fn bundle_op(name: usize, pos: (i64, i64), parent: Option<usize>) -> PadOp {
    PadOp::CreateBundle {
        name: NAMES[name % NAMES.len()].to_string(),
        pos,
        width: 160,
        height: 120,
        parent: parent.map(|p| p as u64),
    }
}

fn mark_op(doc: usize, paragraph: usize, label: usize, pos: (i64, i64), bundle: Option<usize>) -> PadOp {
    PadOp::CreateMark {
        doc: ward_doc(doc as u64),
        paragraph: (paragraph % WARD_PARAGRAPHS) as u64,
        start: 0,
        len: 4 + (label % 8) as u64,
        label: NAMES[label % NAMES.len()].to_string(),
        pos,
        bundle: bundle.map(|b| b as u64),
    }
}

/// Digest of the durable on-disk state (snapshot + WAL + mark records)
/// through a cold reopen into a fresh engine.
fn reopen_digest(disk: &dyn Vfs) -> u64 {
    ward_reopen(disk, Path::new(PAD)).expect("post-shutdown pad must reopen from disk").digest()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed schedule touching every verb, both sessions, and a
    /// crash commit must come out clean.
    #[test]
    fn fixed_two_session_schedule_is_clean() {
        check(&[
            PadServeOp::Create { name: 0, pos: (10, 10), parent: None },
            PadServeOp::Mark { doc: 0, paragraph: 1, label: 1, pos: (20, 20), bundle: Some(0) },
            PadServeOp::SiblingPadOp { mark: true, name: 2, pos: (30, 30), target: Some(0) },
            PadServeOp::Annotate { scrap: 0, text: 0 },
            PadServeOp::Link { from: 0, to: 1 },
            PadServeOp::Resolve { scrap: 0 },
            PadServeOp::Extract { scrap: 1 },
            PadServeOp::Commit,
            PadServeOp::SiblingCrashCommit { torn: false, tear_seed: 7 },
            PadServeOp::Create { name: 3, pos: (40, 40), parent: Some(0) },
            PadServeOp::SiblingUndo,
            PadServeOp::Redo,
            PadServeOp::SiblingCrashCommit { torn: true, tear_seed: 0xfeed },
            PadServeOp::Mark { doc: 1, paragraph: 0, label: 0, pos: (50, 50), bundle: None },
            PadServeOp::Undo,
            PadServeOp::Compact,
            PadServeOp::Resolve { scrap: 0 },
        ], Mutation::None);
    }

    /// Regression (found by the 128-case sweep, seed
    /// 0xb4a9f7bc9c34fd8a): a torn append whose tear length covers the
    /// *entire* frame leaves the io-refused batch CRC-valid on disk. A
    /// cold reopen cannot tell it from real history, so without the
    /// post-failure `repair_log` truncation the refused op silently
    /// became durable and the reopen digest diverged from the mirror.
    /// This tear seed produces a full-length tear for this schedule.
    #[test]
    fn fully_landed_torn_commit_is_truncated_not_adopted() {
        check(&[
            PadServeOp::SiblingPadOp { mark: true, name: 0, pos: (194, 66), target: Some(7) },
            PadServeOp::Mark { doc: 6, paragraph: 1, label: 4, pos: (112, 184), bundle: Some(14) },
            PadServeOp::Mark { doc: 6, paragraph: 6, label: 3, pos: (165, 36), bundle: None },
            PadServeOp::SiblingPadOp { mark: true, name: 0, pos: (95, 127), target: Some(12) },
            PadServeOp::SiblingCrashCommit { torn: true, tear_seed: 14895910682995164361 },
        ], Mutation::None);
    }

    /// Refusal-heavy sequences (empty-pad selectors, empty undo stacks)
    /// stay balanced and never desynchronize the mirror.
    #[test]
    fn refusals_leave_both_sides_untouched() {
        check(&[
            PadServeOp::Undo,
            PadServeOp::Redo,
            PadServeOp::Annotate { scrap: 3, text: 1 },
            PadServeOp::Link { from: 1, to: 2 },
            PadServeOp::Resolve { scrap: 0 },
            PadServeOp::SiblingUndo,
            PadServeOp::Create { name: 1, pos: (5, 5), parent: Some(4) },
            PadServeOp::Undo,
            PadServeOp::Undo,
        ], Mutation::None);
    }
}

