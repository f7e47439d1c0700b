//! The pad-level [`Target`] of the [`chaos`](crate::chaos) soak:
//! [`slimserve::PadService`] (marks, excerpts, bundles, undo) under the
//! same scripts, seeds, sizes, crash points and verdict as the
//! triple-level soak, plus what only a pad has — a base-layer
//! [`FlakyModule`] storm armed through its shared [`FlakyControl`], and
//! a deterministic quarantine-and-repair drill.
//!
//! Run it with `cargo run -p slimgen -- --chaos-pad --profile quick
//! --seed 0x…`.
//!
//! [`FlakyModule`]: superimposed::marks::FlakyModule

use std::path::Path;
use std::sync::Arc;

use slimio::{FaultVfs, MemVfs, Vfs};
use slimserve::{
    ward_doc, ward_factory, ward_mirror, ward_reopen, Gate, LivePad, PadOp, PadOutcome,
    PadService, ServeError, ServeStats, WARD_PARAGRAPHS,
};
use superimposed::marks::resilience::{BreakerConfig, MockClock};
use superimposed::marks::{FaultProfile, FlakyControl, RetryPolicy};

use crate::chaos::{serve_config, Action, Books, Target};
use crate::trace::TraceOp;
use crate::Profile;

/// Where the chaos pad's snapshot, log and marks sidecar live on the
/// in-memory VFS.
const PAD_PATH: &str = "chaos/pad.xml";

/// The pad-level soak: [`PadService`] over the ward universe, with
/// every text resolution routed through a [`FlakyControl`]-governed
/// storm, replayed into a fresh [`slimserve::PadMachine`] mirror.
/// Injected faults may only touch what the pad digest deliberately
/// excludes (excerpts, resolver bookkeeping) — structure, mark identity,
/// and addresses must come out exactly equal.
pub struct Pads {
    control: FlakyControl,
}

/// The storm profile the soak arms: every fault kind, biased towards
/// the retryable ones so the resolver's whole state machine cycles.
fn storm() -> FaultProfile {
    FaultProfile { transient_pct: 20, latency_pct: 8, gone_pct: 6, drift_pct: 6, latency_ms: 150 }
}

fn resolver_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base_backoff_ms: 1,
        max_backoff_ms: 8,
        deadline_ms: 120,
        jitter_seed: 0x9ad,
    }
}

fn module_breaker() -> BreakerConfig {
    BreakerConfig { failure_threshold: 4, cooldown_ms: 400, probe_budget: 2, probe_successes: 1 }
}

/// Open a pad service over `disk` with the ward universe and the given
/// flaky-control handle.
fn open_pad(
    disk: &Arc<FaultVfs<MemVfs>>,
    clock: &Arc<MockClock>,
    control: &FlakyControl,
    profile: FaultProfile,
) -> Result<PadService, ServeError> {
    let factory = ward_factory(
        (**clock).clone(),
        profile,
        control.clone(),
        resolver_policy(),
        module_breaker(),
        2,
    );
    PadService::open(disk.clone(), Path::new(PAD_PATH), serve_config(), clock.clone(), factory)
}

impl Target for Pads {
    type M = LivePad;
    const NAME: &'static str = "chaos-pad";
    const CRASH_AFTER_ACKS: u64 = 10;

    fn new(seed: u64) -> Self {
        Pads { control: FlakyControl::new(seed) }
    }

    fn size(profile: Profile) -> (usize, usize) {
        match profile {
            Profile::Smoke => (4, 40),
            Profile::Quick => (8, 120),
            Profile::Full => (16, 400),
        }
    }

    fn open(
        &self,
        disk: &Arc<FaultVfs<MemVfs>>,
        clock: &Arc<MockClock>,
    ) -> Result<(PadService, Option<String>), ServeError> {
        Ok((open_pad(disk, clock, &self.control, storm())?, None))
    }

    /// Names and labels carry `(session, epoch, index)` so every acked
    /// mutation is attributable in the digest; selectors stay raw (the
    /// service resolves them modulo the live population, and the mirror
    /// replays that resolution exactly).
    fn translate(sess: u64, epoch: u64, i: u64, op: &TraceOp) -> Action<PadOp> {
        Action::Write(match op {
            TraceOp::BeginOp => {
                if i.is_multiple_of(3) {
                    PadOp::Compact
                } else {
                    PadOp::Inspect
                }
            }
            TraceOp::CreateBundle { parent } => PadOp::CreateBundle {
                name: format!("bundle s{sess}e{epoch}i{i}"),
                pos: ((i as i64 % 40) * 12, (sess as i64 % 8) * 18),
                width: 160,
                height: 120,
                parent: Some(*parent),
            },
            TraceOp::PlaceMark { mark, bundle } => PadOp::CreateMark {
                doc: ward_doc(*mark),
                paragraph: mark % WARD_PARAGRAPHS as u64,
                start: (mark % 4) * 5,
                len: 6 + mark % 12,
                label: format!("mark s{sess}e{epoch}i{i}"),
                pos: ((i as i64 % 50) * 9, ((mark % 16) as i64) * 11),
                bundle: Some(*bundle),
            },
            TraceOp::Annotate { scrap, note } => PadOp::Annotate {
                scrap: *scrap,
                text: format!("note {note} s{sess}e{epoch}i{i}"),
            },
            TraceOp::Link { from, to } => PadOp::Link { from: *from, to: *to },
            // The pad service has no destructive delete; the closest
            // churn is re-pointing the scrap's mark at a fresh address.
            TraceOp::DeleteScrap { scrap } => PadOp::Rebind {
                scrap: *scrap,
                doc: ward_doc(scrap ^ i),
                paragraph: (scrap ^ i) % WARD_PARAGRAPHS as u64,
                start: 0,
                len: 10,
            },
            TraceOp::Undo => PadOp::Undo,
            TraceOp::Extract { scrap } => PadOp::Extract { scrap: *scrap },
            TraceOp::Query { needle } => PadOp::Resolve { scrap: *needle },
            TraceOp::Commit => PadOp::Commit,
        })
    }

    fn splice(sess: u64, epoch: u64, i: u64, sel: u64) -> Option<PadOp> {
        match sel % 13 {
            0 => Some(Self::panic_op(format!("chaos panic s{sess} e{epoch} i{i}"))),
            1 => Some(PadOp::Redo),
            _ => None,
        }
    }

    fn panic_op(detail: String) -> PadOp {
        PadOp::ChaosPanic { detail }
    }

    fn park_op(gate: Gate) -> PadOp {
        PadOp::ChaosPark(gate)
    }

    fn marker_op(name: &str) -> PadOp {
        PadOp::CreateBundle { name: name.into(), pos: (0, 0), width: 10, height: 10, parent: None }
    }

    fn digest(view: &u64) -> u64 {
        *view
    }

    fn replay(ops: &[&(u64, u64, PadOp)], divergences: &mut Vec<String>) -> u64 {
        let mut mirror = ward_mirror();
        for (epoch, order, op) in ops {
            if let Err(e) = mirror.apply(op) {
                divergences.push(format!(
                    "acked op (epoch {epoch}, order {order}) {op:?} refused in mirror replay: {e}"
                ));
            }
        }
        mirror.digest()
    }

    fn disk_digest(disk: &dyn Vfs, divergences: &mut Vec<String>) -> u64 {
        ward_reopen(disk, Path::new(PAD_PATH)).map_or_else(
            |e| {
                divergences.push(format!("reopen: post-shutdown pad failed to open: {e}"));
                0
            },
            |machine| machine.digest(),
        )
    }

    fn calm(&self) {
        self.control.disarm();
    }

    /// Quarantine-and-repair, deterministically, on a rig of its own
    /// (repair re-derives addresses from quarantine state, which
    /// injected faults steer — it must stay out of the differential
    /// soak): empty-journal undo is a typed refusal; a mark is created
    /// against live text (capturing its excerpt); its resolutions are
    /// faulted with `DocumentGone` until the resolver quarantines it;
    /// the storm is disarmed; and an online [`PadOp::Repair`] must find
    /// the excerpt in the base layer and re-bind the mark.
    fn drills(&self, seed: u64, books: &mut Books) {
        let disk = Arc::new(FaultVfs::unarmed(MemVfs::new()));
        let clock = Arc::new(MockClock::new());
        let control = FlakyControl::new(seed);
        control.disarm();
        let gone =
            FaultProfile { transient_pct: 0, latency_pct: 0, gone_pct: 100, drift_pct: 0, latency_ms: 0 };
        let service = open_pad(&disk, &clock, &control, gone).expect("repair drill pad opens");
        let session = service.session();
        let submit = |op: PadOp, what: &str, books: &mut Books| -> Option<PadOutcome> {
            books.attempts += 1;
            match session.submit(op) {
                Ok(ack) => {
                    books.drill_acks += 1;
                    Some(ack.outcome)
                }
                Err(e) => {
                    books.divergences.push(format!("repair drill: {what} refused: {e}"));
                    None
                }
            }
        };
        books.attempts += 1;
        match service.session().submit(PadOp::Undo) {
            Err(ServeError::Engine { .. }) => {}
            other => books.divergences.push(format!("repair drill: empty undo got {other:?}")),
        }
        let target = "Ward 1 paragraph 2";
        let create = PadOp::CreateMark {
            doc: ward_doc(1),
            paragraph: 2,
            start: 0,
            len: target.len() as u64,
            label: "drill mark".into(),
            pos: (0, 0),
            bundle: None,
        };
        submit(create, "create", books);
        control.arm(); // every base-layer drive now reports DocumentGone
        let mut quarantined = false;
        for k in 0..3 {
            match submit(PadOp::Resolve { scrap: 0 }, "faulted resolve", books) {
                Some(PadOutcome::Resolved { degraded: true, quarantined: q, .. }) => quarantined = q,
                Some(other) => books
                    .divergences
                    .push(format!("repair drill: resolve {k} not degraded: {other:?}")),
                None => {}
            }
        }
        if !quarantined {
            books.divergences.push("repair drill: dangling mark never quarantined".into());
        }
        control.disarm();
        match submit(PadOp::Repair, "repair", books) {
            Some(PadOutcome::Repaired { rebound: 1, still_quarantined: 0 }) => {}
            Some(other) => {
                books.divergences.push(format!("repair drill: unexpected repair {other:?}"))
            }
            None => {}
        }
        match submit(PadOp::Resolve { scrap: 0 }, "post-repair resolve", books) {
            Some(PadOutcome::Resolved { degraded: false, quarantined: false, display })
                if !display.contains(target) =>
            {
                books.divergences.push(format!("repair drill: repaired mark resolves to {display:?}"))
            }
            Some(PadOutcome::Resolved { degraded: false, quarantined: false, .. }) => {}
            Some(other) => {
                books.divergences.push(format!("repair drill: post-repair resolve {other:?}"))
            }
            None => {}
        }
        books.stats += service.shutdown();
    }

    fn observed(stats: &ServeStats, divergences: &mut Vec<String>) {
        if stats.degraded_resolutions == 0 {
            divergences.push("the storm never produced a degraded resolution".into());
        }
        if stats.repairs == 0 {
            divergences.push("the repair drill never re-bound a quarantined mark".into());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{assert_clean, script_lines, ChaosConfig};

    /// The tier-1 chaos-pad gate: a smoke-profile run with the full
    /// fault menu (panics, base-layer storm, I/O faults, clock stalls,
    /// torn-append crash, repair drill) must come out differentially
    /// clean.
    #[test]
    fn smoke_chaos_pad_soak_passes() {
        assert_clean::<Pads>(&ChaosConfig::new::<Pads>(Profile::Smoke, 0xC0FFEE));
    }

    /// Crash-free variant: one service incarnation end to end.
    #[test]
    fn chaos_pad_soak_without_crash_passes() {
        let mut config = ChaosConfig::new::<Pads>(Profile::Smoke, 0xFEED);
        config.crash = false;
        assert_clean::<Pads>(&config);
    }

    /// Two runs with one seed must make identical scripts (the report
    /// depends on thread interleaving, the workload must not).
    #[test]
    fn pad_scripts_are_seed_deterministic() {
        let config = ChaosConfig::new::<Pads>(Profile::Smoke, 7);
        let a = script_lines::<Pads>(&config, 3, 1);
        assert_eq!(a, script_lines::<Pads>(&config, 3, 1));
        assert_ne!(a, script_lines::<Pads>(&config, 3, 2), "epochs get distinct scripts");
    }
}
