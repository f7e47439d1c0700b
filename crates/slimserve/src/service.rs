//! The supervisor: session handles, the bounded op queue, and the
//! supervised writer thread — written once, generic over the
//! [`Machine`] it supervises.
//!
//! ```text
//!  Session ──submit──▶ [bounded queue] ──batch──▶ writer thread
//!    │   ▲              (admission:                 │ per op:
//!    │   └─ Ack / typed  Overloaded when full,      │  deadline check → Timeout
//!    │      refusal      Quarantined when the       │  catch_unwind  → Panicked
//!    │                   session's breaker is open) │  Machine::apply, or rollback
//!    └──view()                                      │ per batch:
//!         ▲                                         │  Machine::commit (1 sync)
//!         └──────────── publish ◀───────────────────┘  then publish, then ack
//! ```
//!
//! A [`Machine`] holds exactly what differs between services: its op,
//! outcome and view types, and how it applies, checkpoints, rolls back,
//! commits, repairs and publishes. The writer thread builds the machine
//! and owns it; nothing else ever touches it. Sessions interact only
//! through the queue (writes) and the published view (reads), so a fault
//! in one session's op is rolled back and refused without the other
//! sessions noticing more than a momentary queue delay.
//!
//! Two machines ship: [`LiveStore`], a logged [`TripleStore`] publishing
//! [`Snapshot`]s (the [`Service`]), and [`crate::LivePad`], the pad
//! engine publishing its logical digest (the [`crate::PadService`]).

use std::collections::{BTreeMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once};
use std::thread::JoinHandle;

use marks::resilience::{Admit, Breaker, BreakerConfig, BreakerState, Clock};
use slimio::Vfs;
use trim::{CommitOutcome, LogReport, Revision, Snapshot, StoreLog, TripleStore};

use crate::error::{suggested_backoff_ms, ServeError};
use crate::op::{lock, wait, Ack, ServeOp, Slot, Ticket};

/// Tuning for a supervised service.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Op-queue bound; submissions beyond it are shed with
    /// [`ServeError::Overloaded`] (and its retry hint).
    pub queue_capacity: usize,
    /// Most ops the writer applies per group commit.
    pub max_batch: usize,
    /// Deadline stamped on each op at submission; ops dequeued later
    /// than this are refused with [`ServeError::Timeout`].
    pub op_deadline_ms: u64,
    /// Per-session circuit-breaker tuning (quarantine behaviour).
    pub breaker: BreakerConfig,
    /// Log size (bytes) past which the writer compacts opportunistically.
    pub compact_threshold: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 256,
            max_batch: 64,
            op_deadline_ms: 1_000,
            breaker: BreakerConfig::default(),
            compact_threshold: 1 << 20,
        }
    }
}

/// One state machine under supervision. The writer thread drives it:
/// per op `checkpoint`, then `apply` (or, on a refusal or a panic,
/// `rollback`); per batch `commit`, then `publish`; and after a failed
/// commit or a failed rollback, `repair`.
pub trait Machine: 'static {
    /// What sessions submit.
    type Op: Send + 'static;
    /// What an acknowledged op reports back.
    type Outcome: Send + 'static;
    /// What readers see; republished after every durable batch.
    type View: Clone + Send + 'static;
    /// A pre-op state [`Machine::rollback`] returns to.
    type Checkpoint;

    /// Mark the state before an op.
    fn checkpoint(&mut self) -> Self::Checkpoint;
    /// Apply one op, in memory only. An `Err` is the op's typed refusal
    /// (the supervisor rolls back). `ledger` takes machine-specific
    /// counts.
    fn apply(&mut self, op: &Self::Op, ledger: &Ledger) -> Result<Self::Outcome, ServeError>;
    /// Undo everything since `checkpoint`. An `Err` means the state is
    /// unknown: the batch is refused and the machine repaired.
    fn rollback(&mut self, checkpoint: Self::Checkpoint) -> Result<(), String>;
    /// Make every applied op durable as one group commit, compacting
    /// when the log has outgrown its threshold or an op asked for it.
    /// `ledger` counts failures that refuse nothing, such as a failed
    /// opportunistic compaction.
    fn commit(&mut self, ledger: &Ledger) -> Result<Durable, String>;
    /// Return to the last durable state after a failed commit or
    /// rollback. An `Err` leaves the machine unusable: the service then
    /// refuses every op until it is reopened. `ledger` counts failed
    /// steps the repair survives.
    fn repair(&mut self, ledger: &Ledger) -> Result<(), String>;
    /// The view readers see from now on.
    fn publish(&mut self, ledger: &Ledger) -> Self::View;
}

/// What a [`Machine::commit`] made durable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Durable {
    /// The WAL frame written; `None` when nothing needed writing.
    pub seq: Option<u64>,
    /// Whether the log was also compacted.
    pub compacted: bool,
}

/// Monotonic counters describing everything a service did. Every
/// submission lands in exactly one of `acked`, `shed`, `timed_out`,
/// `panicked`, `engine_refusals`, `quarantine_rejections`,
/// `io_refusals`, or `closed_refusals` — the books always balance,
/// which the chaos harness checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Ops accepted into the queue.
    pub submitted: u64,
    /// Ops durably committed and acknowledged.
    pub acked: u64,
    /// Ops shed at admission (queue full).
    pub shed: u64,
    /// Total backoff (ms) suggested to shed submitters — the sum of the
    /// [`ServeError::Overloaded`] retry hints handed out.
    pub shed_backoff_ms: u64,
    /// Ops refused because their deadline passed in the queue.
    pub timed_out: u64,
    /// Ops that panicked and were rolled back.
    pub panicked: u64,
    /// Ops the machine refused with a typed domain error (rolled back).
    pub engine_refusals: u64,
    /// Submissions refused because the session was quarantined.
    pub quarantine_rejections: u64,
    /// Ops refused because their batch's commit (or a rollback) failed.
    pub io_refusals: u64,
    /// Ops refused because the service was closing.
    pub closed_refusals: u64,
    /// Durable WAL group commits.
    pub commits: u64,
    /// Log compactions.
    pub compactions: u64,
    /// Opportunistic compactions that failed after a durable commit; the
    /// log just stays long.
    pub compaction_failures: u64,
    /// Log-tail truncations that failed during a repair; the WAL retries
    /// them before its next append.
    pub repair_failures: u64,
    /// Views (snapshots or digests) published to readers.
    pub snapshots_published: u64,
    /// Snapshot publishes that carried a freshly folded base, i.e. the
    /// store folded its delta since the previous publish.
    pub snapshot_rebuilds: u64,
    /// Resolutions that fell back to the stored excerpt.
    pub degraded_resolutions: u64,
    /// Quarantined marks re-bound by repair passes.
    pub repairs: u64,
}

impl std::ops::AddAssign for ServeStats {
    /// Field-wise sum, for merging the counters of successive service
    /// incarnations across a crash/reopen boundary.
    fn add_assign(&mut self, rhs: ServeStats) {
        self.submitted += rhs.submitted;
        self.acked += rhs.acked;
        self.shed += rhs.shed;
        self.shed_backoff_ms += rhs.shed_backoff_ms;
        self.timed_out += rhs.timed_out;
        self.panicked += rhs.panicked;
        self.engine_refusals += rhs.engine_refusals;
        self.quarantine_rejections += rhs.quarantine_rejections;
        self.io_refusals += rhs.io_refusals;
        self.closed_refusals += rhs.closed_refusals;
        self.commits += rhs.commits;
        self.compactions += rhs.compactions;
        self.compaction_failures += rhs.compaction_failures;
        self.repair_failures += rhs.repair_failures;
        self.snapshots_published += rhs.snapshots_published;
        self.snapshot_rebuilds += rhs.snapshot_rebuilds;
        self.degraded_resolutions += rhs.degraded_resolutions;
        self.repairs += rhs.repairs;
    }
}

impl ServeStats {
    /// Submissions minus every accounted verdict — zero when no op was
    /// silently dropped. Admission refusals (shed, quarantine, closed)
    /// never enter `submitted`, so the balance is over the queue only.
    pub fn unaccounted(&self) -> i64 {
        self.submitted as i64
            - (self.acked
                + self.timed_out
                + self.panicked
                + self.engine_refusals
                + self.io_refusals
                + self.closed_refusals) as i64
    }

    /// Count one refusal in its bucket.
    fn refused(&mut self, error: &ServeError) {
        match error {
            ServeError::Overloaded { retry_after_ms, .. } => {
                self.shed += 1;
                self.shed_backoff_ms += retry_after_ms;
            }
            ServeError::Timeout { .. } => self.timed_out += 1,
            ServeError::Quarantined { .. } => self.quarantine_rejections += 1,
            ServeError::Panicked { .. } => self.panicked += 1,
            ServeError::Io { .. } => self.io_refusals += 1,
            ServeError::Engine { .. } => self.engine_refusals += 1,
            ServeError::Closed => self.closed_refusals += 1,
        }
    }
}

/// A service's ledger, shared by its sessions and its writer.
#[derive(Debug, Default)]
pub struct Ledger(Mutex<ServeStats>);

impl Ledger {
    /// Update the counters.
    pub fn count(&self, update: impl FnOnce(&mut ServeStats)) {
        update(&mut lock(&self.0));
    }

    /// The counters so far.
    pub fn read(&self) -> ServeStats {
        *lock(&self.0)
    }

    /// True if `result` is `Ok`; otherwise count the failure with
    /// `update`. For results a caller survives but must not drop.
    pub(crate) fn ok_or_count<T, E>(
        &self,
        result: Result<T, E>,
        update: impl FnOnce(&mut ServeStats),
    ) -> bool {
        let ok = result.is_ok();
        if !ok {
            self.count(update);
        }
        ok
    }
}

/// A write submission waiting for its verdict.
struct Pending<M: Machine> {
    session: u64,
    op: M::Op,
    deadline_ms: u64,
    slot: Arc<Slot<Ack<M::Outcome>>>,
}

struct Queue<M: Machine> {
    items: VecDeque<Pending<M>>,
    closed: bool,
    aborted: bool,
}

struct Shared<M: Machine> {
    queue: Mutex<Queue<M>>,
    not_empty: Condvar,
    view: Mutex<M::View>,
    sessions: Mutex<BTreeMap<u64, Breaker>>,
    next_session: AtomicU64,
    ledger: Ledger,
    clock: Arc<dyn Clock + Send + Sync>,
    config: ServeConfig,
    /// Set once the writer thread has exited (cleanly or not): from
    /// then on every verdict is [`ServeError::Closed`].
    writer_gone: AtomicBool,
}

impl<M: Machine> Shared<M> {
    /// Count a refusal in its bucket, then hand it to the submitter.
    fn refuse(&self, p: Pending<M>, error: ServeError) {
        self.ledger.count(|s| s.refused(&error));
        p.slot.resolve(Err(error));
    }

    /// Charge (or credit) a session's breaker.
    fn note(&self, session: u64, ok: bool) {
        let now = self.clock.now_ms();
        if let Some(breaker) = lock(&self.sessions).get_mut(&session) {
            if ok {
                breaker.on_success();
            } else {
                breaker.on_failure(now);
            }
        }
    }

    fn publish(&self, machine: &mut M) {
        let view = machine.publish(&self.ledger);
        self.ledger.count(|s| s.snapshots_published += 1);
        *lock(&self.view) = view;
    }
}

/// A supervised, concurrent front-end over one [`Machine`].
///
/// Created with [`Supervisor::start`] (or a machine's own `open`);
/// handed out as [`Session`]s. Dropping (or [`Supervisor::shutdown`])
/// drains the queue gracefully; [`Supervisor::abort`] refuses everything
/// still queued — the durable state is whatever was last committed,
/// exactly like a crash.
pub struct Supervisor<M: Machine> {
    shared: Arc<Shared<M>>,
    writer: Option<JoinHandle<()>>,
}

impl<M: Machine> Supervisor<M> {
    /// Start the writer thread. `build` makes the machine on that thread
    /// — so the machine need not be `Send` — and may hand back a value
    /// (a recovery report, say). Returns once the first view is
    /// published.
    pub fn start<R: Send + 'static>(
        config: ServeConfig,
        clock: Arc<dyn Clock + Send + Sync>,
        build: impl FnOnce(&ServeConfig) -> Result<(M, R), ServeError> + Send + 'static,
    ) -> Result<(Self, R), ServeError> {
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let writer = std::thread::Builder::new()
            .name("slimserve-writer".into())
            .spawn(move || {
                let (mut machine, built) = match build(&config) {
                    Ok(ready) => ready,
                    Err(e) => {
                        let _ = ready_tx.send(Err(e));
                        return;
                    }
                };
                let ledger = Ledger::default();
                let view = machine.publish(&ledger);
                ledger.count(|s| s.snapshots_published += 1);
                let shared = Arc::new(Shared {
                    queue: Mutex::new(Queue { items: VecDeque::new(), closed: false, aborted: false }),
                    not_empty: Condvar::new(),
                    view: Mutex::new(view),
                    sessions: Mutex::new(BTreeMap::new()),
                    next_session: AtomicU64::new(0),
                    ledger,
                    clock,
                    config,
                    writer_gone: AtomicBool::new(false),
                });
                if ready_tx.send(Ok((Arc::clone(&shared), built))).is_ok() {
                    Writer { shared, machine: Some(machine), next_order: 0 }.run();
                }
            })
            .map_err(|e| ServeError::Io { detail: format!("spawn writer: {e}") })?;
        match ready_rx.recv() {
            Ok(Ok((shared, built))) => Ok((Supervisor { shared, writer: Some(writer) }, built)),
            Ok(Err(e)) => {
                let _ = writer.join();
                Err(e)
            }
            Err(_) => {
                let _ = writer.join();
                Err(ServeError::Io { detail: "writer died during startup".into() })
            }
        }
    }

    /// Register a new session and hand back its submission handle.
    pub fn session(&self) -> Session<M> {
        let id = self.shared.next_session.fetch_add(1, Ordering::Relaxed);
        lock(&self.shared.sessions).insert(id, Breaker::new(self.shared.config.breaker.clone()));
        Session { shared: Arc::clone(&self.shared), id }
    }

    /// The most recently published view.
    pub fn view(&self) -> M::View {
        lock(&self.shared.view).clone()
    }

    /// Counters so far.
    pub fn stats(&self) -> ServeStats {
        self.shared.ledger.read()
    }

    /// Stop accepting work, let the writer drain and durably commit
    /// everything already queued, and join it.
    pub fn shutdown(mut self) -> ServeStats {
        self.close(false);
        self.join_writer();
        self.stats()
    }

    /// Stop immediately: everything still queued is refused with
    /// [`ServeError::Closed`] and the writer exits without touching it.
    /// Durable state = last committed batch, exactly like a crash.
    pub fn abort(mut self) -> ServeStats {
        self.close(true);
        self.join_writer();
        self.stats()
    }

    fn close(&self, abort: bool) {
        let mut q = lock(&self.shared.queue);
        q.closed = true;
        q.aborted |= abort;
        self.shared.not_empty.notify_all();
    }

    fn join_writer(&mut self) {
        if let Some(handle) = self.writer.take() {
            let _ = handle.join();
        }
    }
}

impl<M: Machine> Drop for Supervisor<M> {
    fn drop(&mut self) {
        if self.writer.is_some() {
            self.close(false);
            self.join_writer();
        }
    }
}

/// One session's capability to submit ops and read the published view.
pub struct Session<M: Machine> {
    shared: Arc<Shared<M>>,
    id: u64,
}

impl<M: Machine> Session<M> {
    /// This session's id (stable for its lifetime).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Submit an op and wait for its verdict.
    pub fn submit(&self, op: M::Op) -> Result<Ack<M::Outcome>, ServeError> {
        self.enqueue(op)?.wait()
    }

    /// Submit an op without waiting. Admission refusals (quarantine,
    /// overload, closed) surface immediately; the returned [`Ticket`]
    /// carries the rest.
    pub fn enqueue(&self, op: M::Op) -> Result<Ticket<Ack<M::Outcome>>, ServeError> {
        let shared = &self.shared;
        let now = shared.clock.now_ms();
        let refuse = |error: ServeError| {
            shared.ledger.count(|s| s.refused(&error));
            Err(error)
        };
        let admit = lock(&shared.sessions)
            .get_mut(&self.id)
            .expect("session is registered for its lifetime")
            .admit(now);
        if let Admit::ShortCircuit { open_until } = admit {
            return refuse(ServeError::Quarantined { session: self.id, open_until_ms: open_until });
        }
        let mut q = lock(&shared.queue);
        if q.closed || shared.writer_gone.load(Ordering::Acquire) {
            return refuse(ServeError::Closed);
        }
        let capacity = shared.config.queue_capacity;
        if q.items.len() >= capacity {
            let retry_after_ms =
                suggested_backoff_ms(q.items.len(), capacity, shared.config.op_deadline_ms);
            return refuse(ServeError::Overloaded {
                queue_len: q.items.len(),
                capacity,
                retry_after_ms,
            });
        }
        let slot = Arc::new(Slot::default());
        q.items.push_back(Pending {
            session: self.id,
            op,
            deadline_ms: now.saturating_add(shared.config.op_deadline_ms),
            slot: Arc::clone(&slot),
        });
        shared.ledger.count(|s| s.submitted += 1);
        shared.not_empty.notify_one();
        Ok(Ticket::new(slot))
    }

    /// The most recently published view.
    pub fn view(&self) -> M::View {
        lock(&self.shared.view).clone()
    }

    /// This session's breaker state (quarantine observability).
    pub fn breaker_state(&self) -> BreakerState {
        lock(&self.shared.sessions)
            .get(&self.id)
            .expect("session is registered for its lifetime")
            .state()
    }
}

// ---------------------------------------------------------------------
// Writer thread
// ---------------------------------------------------------------------

struct Writer<M: Machine> {
    shared: Arc<Shared<M>>,
    /// `None` once a repair failed: every later op is refused.
    machine: Option<M>,
    next_order: u64,
}

impl<M: Machine> Writer<M> {
    fn run(mut self) {
        while let Some(batch) = self.next_batch() {
            self.serve(batch);
        }
        self.shared.writer_gone.store(true, Ordering::Release);
    }

    /// Block for the next batch. `None` once the queue is closed and
    /// drained, or aborted (its leftovers refused `Closed`).
    fn next_batch(&self) -> Option<Vec<Pending<M>>> {
        let shared = &*self.shared;
        let mut q = lock(&shared.queue);
        while q.items.is_empty() && !q.closed {
            q = wait(&shared.not_empty, q);
        }
        if q.aborted {
            let leftovers: Vec<Pending<M>> = q.items.drain(..).collect();
            drop(q);
            for p in leftovers {
                shared.refuse(p, ServeError::Closed);
            }
            return None;
        }
        if q.items.is_empty() {
            return None; // closed and drained: graceful end
        }
        let take = q.items.len().min(shared.config.max_batch);
        Some(q.items.drain(..take).collect())
    }

    fn serve(&mut self, batch: Vec<Pending<M>>) {
        let shared = Arc::clone(&self.shared);
        let Some(machine) = self.machine.as_mut() else {
            for p in batch {
                let detail = "machine unavailable: its repair failed".into();
                shared.refuse(p, ServeError::Io { detail });
            }
            return;
        };

        // Phase 1: apply each op under the supervisor's containment.
        let mut applied: Vec<(Pending<M>, M::Outcome)> = Vec::with_capacity(batch.len());
        let mut queued = batch.into_iter();
        while let Some(p) = queued.next() {
            let now = shared.clock.now_ms();
            if now > p.deadline_ms {
                let timeout = ServeError::Timeout { deadline_ms: p.deadline_ms, now_ms: now };
                shared.refuse(p, timeout);
                continue;
            }
            let checkpoint = machine.checkpoint();
            let verdict = quiet_catch_unwind(|| machine.apply(&p.op, &shared.ledger))
                .unwrap_or_else(|detail| Err(ServeError::Panicked { detail }));
            match verdict {
                Ok(outcome) => applied.push((p, outcome)),
                Err(error) => {
                    // Containment: drop the op's partial effects, charge
                    // the session's breaker, keep serving.
                    let rolled_back = machine.rollback(checkpoint);
                    shared.note(p.session, false);
                    shared.refuse(p, error);
                    if let Err(detail) = rolled_back {
                        // The state is unknown: treat it like a failed
                        // commit, then serve the rest of the batch.
                        self.refuse_and_repair(applied, detail);
                        return self.serve(queued.collect());
                    }
                }
            }
        }
        if applied.is_empty() {
            return; // nothing survived: no commit, no publish
        }

        // Phase 2: one durable group commit for the whole batch.
        let durable = match machine.commit(&shared.ledger) {
            Ok(durable) => durable,
            Err(detail) => return self.refuse_and_repair(applied, detail),
        };
        shared.ledger.count(|s| {
            s.commits += u64::from(durable.seq.is_some());
            s.compactions += u64::from(durable.compacted);
        });

        // Phase 3: publish, then acknowledge. Publishing first means "my
        // ack implies a view at least as new as my op".
        shared.publish(machine);
        for (p, outcome) in applied {
            let ack = Ack { order: self.next_order, durable_seq: durable.seq, outcome };
            self.next_order += 1;
            shared.note(p.session, true);
            shared.ledger.count(|s| s.acked += 1);
            p.slot.resolve(Ok(ack));
        }
    }

    /// A commit or a rollback failed, so the machine no longer matches
    /// what the acks would promise. Return it to its last durable state
    /// and publish that *before* refusing the batch's applied ops, so a
    /// submitter that has seen its `Io` error already reads a view
    /// consistent with the rollback. If the repair fails too, the
    /// machine is dropped and every later op is refused.
    fn refuse_and_repair(&mut self, applied: Vec<(Pending<M>, M::Outcome)>, detail: String) {
        if let Some(machine) = self.machine.as_mut() {
            match machine.repair(&self.shared.ledger) {
                Ok(()) => self.shared.publish(machine),
                Err(_) => self.machine = None,
            }
        }
        for (p, _) in applied {
            self.shared.refuse(p, ServeError::Io { detail: detail.clone() });
        }
    }
}

// ---------------------------------------------------------------------
// Quiet panic containment
// ---------------------------------------------------------------------

thread_local! {
    static QUIET: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Install (once, process-wide) a panic hook that stays silent while a
/// thread is inside the supervisor's `catch_unwind` — contained panics
/// are refusals, not crashes, and must not spray backtraces over every
/// chaos run. All other threads keep the previous hook's behaviour.
fn install_quiet_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.with(|q| q.get()) {
                previous(info);
            }
        }));
    });
}

fn quiet_catch_unwind<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    install_quiet_hook();
    QUIET.with(|q| q.set(true));
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(f));
    QUIET.with(|q| q.set(false));
    outcome.map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "opaque panic payload".to_string()
        }
    })
}

// ---------------------------------------------------------------------
// The triple-level machine
// ---------------------------------------------------------------------

/// The triple-level [`Machine`]: one logged [`TripleStore`] that
/// publishes [`TripleStore::snapshot`]s, which share its frozen base.
/// Rollback and repair both undo through the store's journal, in place.
pub struct LiveStore {
    vfs: Arc<dyn Vfs + Send + Sync>,
    store: TripleStore,
    log: StoreLog,
    /// The last view published, to tell when a publish carries a new base.
    published: Snapshot,
}

impl Machine for LiveStore {
    type Op = ServeOp;
    type Outcome = ();
    type View = Snapshot;
    type Checkpoint = Revision;

    fn checkpoint(&mut self) -> Revision {
        self.store.revision()
    }

    fn apply(&mut self, op: &ServeOp, _: &Ledger) -> Result<(), ServeError> {
        // Parking is the writer's own affair; the store treats it as a
        // no-op.
        if let ServeOp::ChaosPark(gate) = op {
            gate.pass();
        }
        op.apply_to(&mut self.store);
        Ok(())
    }

    fn rollback(&mut self, checkpoint: Revision) -> Result<(), String> {
        self.store.undo_to(checkpoint).map_err(|e| e.to_string())
    }

    fn commit(&mut self, ledger: &Ledger) -> Result<Durable, String> {
        let vfs = &*self.vfs;
        let seq = match self.log.commit(vfs, &mut self.store).map_err(|e| e.to_string())? {
            CommitOutcome::Clean => None,
            CommitOutcome::Committed { seq, .. } => Some(seq),
            CommitOutcome::NeedsFullSnapshot => {
                self.log.compact(vfs, &mut self.store).map_err(|e| e.to_string())?;
                return Ok(Durable { seq: None, compacted: true });
            }
        };
        // Opportunistic compaction: the commit above is already durable,
        // so a compaction failure here refuses nothing — the log just
        // stays long — but it is counted.
        let compacted = self.log.should_compact()
            && ledger.ok_or_count(self.log.compact(vfs, &mut self.store), |s| {
                s.compaction_failures += 1
            });
        Ok(Durable { seq, compacted })
    }

    /// Truncate the suspect log tail — a torn append can leave the
    /// doomed frame fully readable, and a cold reopen would adopt the
    /// refused batch as real history. If the truncation itself fails,
    /// the poisoned WAL handle retries it before the next append. Then
    /// undo the store to its last durable revision.
    fn repair(&mut self, ledger: &Ledger) -> Result<(), String> {
        ledger.ok_or_count(self.log.repair(&*self.vfs), |s| s.repair_failures += 1);
        self.store.undo_to(self.log.committed_revision()).map_err(|e| e.to_string())
    }

    fn publish(&mut self, ledger: &Ledger) -> Snapshot {
        let snapshot = self.store.snapshot();
        if !snapshot.shares_base(&self.published) {
            ledger.count(|s| s.snapshot_rebuilds += 1);
        }
        self.published = snapshot.clone();
        snapshot
    }
}

/// A supervised, concurrent front-end over one logged [`TripleStore`].
pub type Service = Supervisor<LiveStore>;

/// One session's capability to submit triple ops and read snapshots.
pub type SessionHandle = Session<LiveStore>;

impl Service {
    /// Open (or create) the logged store at `snapshot_path` on `vfs`,
    /// recover it (snapshot + WAL replay), and start the writer thread.
    pub fn open(
        vfs: Arc<dyn Vfs + Send + Sync>,
        snapshot_path: &Path,
        config: ServeConfig,
        clock: Arc<dyn Clock + Send + Sync>,
    ) -> Result<(Service, LogReport), ServeError> {
        // The store is `Send`: recover it here, so its memory comes from
        // the caller's allocator arena, and hand it to the writer.
        let (mut store, mut log, report) = TripleStore::open_logged(&*vfs, snapshot_path)?;
        log.set_compact_threshold(config.compact_threshold);
        let published = store.snapshot();
        let machine = LiveStore { vfs, store, log, published };
        Supervisor::start(config, clock, move |_| Ok((machine, report)))
    }

    /// The most recently published read snapshot.
    pub fn snapshot(&self) -> Snapshot {
        self.view()
    }
}

impl SessionHandle {
    /// The most recently published read snapshot.
    pub fn snapshot(&self) -> Snapshot {
        self.view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Gate;
    use marks::resilience::MockClock;
    use slimio::{FaultConfig, FaultMode, FaultOp, FaultVfs, MemVfs};
    use trim::Runs;

    const PATH: &str = "serve/store.xml";

    fn small_config() -> ServeConfig {
        ServeConfig {
            queue_capacity: 4,
            max_batch: 2,
            op_deadline_ms: 100,
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown_ms: 500,
                probe_budget: 3,
                probe_successes: 1,
            },
            compact_threshold: 1 << 20,
        }
    }

    // -----------------------------------------------------------------
    // The supervisor itself, against a tiny in-test machine
    // -----------------------------------------------------------------

    /// A list of numbers, "durable" once copied to `disk`. Faults are
    /// ops: a panic or a refusal after a partial push, a refusal whose
    /// rollback fails, a commit that fails.
    #[derive(Default)]
    struct Tape {
        live: Vec<i64>,
        disk: Arc<Mutex<Vec<i64>>>,
        seq: u64,
        fail_commit: bool,
        fail_rollback: bool,
    }

    #[derive(Debug)]
    enum TapeOp {
        Push(i64),
        Panic(String),
        Refuse,
        RefuseUnrollable,
        FailCommit,
        Park(Gate),
    }

    impl Machine for Tape {
        type Op = TapeOp;
        type Outcome = ();
        type View = Vec<i64>;
        type Checkpoint = usize;

        fn checkpoint(&mut self) -> usize {
            self.live.len()
        }

        fn apply(&mut self, op: &TapeOp, _: &Ledger) -> Result<(), ServeError> {
            let refused = ServeError::Engine { detail: "refused".into() };
            match op {
                TapeOp::Push(v) => self.live.push(*v),
                TapeOp::Panic(detail) => {
                    self.live.push(-1);
                    std::panic::panic_any(detail.clone());
                }
                TapeOp::Refuse => {
                    self.live.push(-2);
                    return Err(refused);
                }
                TapeOp::RefuseUnrollable => {
                    self.live.push(-3);
                    self.fail_rollback = true;
                    return Err(refused);
                }
                TapeOp::FailCommit => self.fail_commit = true,
                TapeOp::Park(gate) => gate.pass(),
            }
            Ok(())
        }

        fn rollback(&mut self, checkpoint: usize) -> Result<(), String> {
            if std::mem::take(&mut self.fail_rollback) {
                return Err("rollback failed".into());
            }
            self.live.truncate(checkpoint);
            Ok(())
        }

        fn commit(&mut self, _: &Ledger) -> Result<Durable, String> {
            if std::mem::take(&mut self.fail_commit) {
                return Err("commit failed".into());
            }
            *lock(&self.disk) = self.live.clone();
            self.seq += 1;
            Ok(Durable { seq: Some(self.seq), compacted: false })
        }

        fn repair(&mut self, _: &Ledger) -> Result<(), String> {
            self.live = lock(&self.disk).clone();
            Ok(())
        }

        fn publish(&mut self, _: &Ledger) -> Vec<i64> {
            self.live.clone()
        }
    }

    fn open_tape(config: ServeConfig) -> (Supervisor<Tape>, Arc<Mutex<Vec<i64>>>, Arc<MockClock>) {
        let disk = Arc::new(Mutex::new(Vec::new()));
        let clock = Arc::new(MockClock::new());
        let tape = Tape { disk: Arc::clone(&disk), ..Tape::default() };
        let (service, ()) = Supervisor::start(config, clock.clone(), move |_| Ok((tape, ()))).unwrap();
        (service, disk, clock)
    }

    #[test]
    fn overload_is_a_typed_refusal_and_drains_after() {
        let (service, _, _) = open_tape(small_config());
        let session = service.session();
        let gate = Gate::new();
        let park = session.enqueue(TapeOp::Park(gate.clone())).unwrap();
        gate.wait_arrived(); // writer is parked; the queue is all ours
        let mut tickets = Vec::new();
        for i in 0..4 {
            tickets.push(session.enqueue(TapeOp::Push(i)).unwrap());
        }
        let err = session.enqueue(TapeOp::Push(99)).unwrap_err();
        match err {
            ServeError::Overloaded { queue_len: 4, capacity: 4, retry_after_ms } => {
                // Full queue: the hint suggests waiting a whole deadline.
                assert_eq!(retry_after_ms, 100);
            }
            other => panic!("expected overload, got {other:?}"),
        }
        gate.open();
        park.wait().unwrap();
        for t in tickets {
            t.wait().unwrap();
        }
        assert_eq!(session.view(), vec![0, 1, 2, 3], "the shed op never applied");
        let stats = service.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.shed_backoff_ms, 100, "the hint is surfaced in the stats ledger");
        assert_eq!(stats.unaccounted(), 0);
    }

    #[test]
    fn expired_deadlines_refuse_without_applying() {
        let (service, _, clock) = open_tape(small_config());
        let session = service.session();
        let gate = Gate::new();
        let park = session.enqueue(TapeOp::Park(gate.clone())).unwrap();
        gate.wait_arrived();
        let doomed = session.enqueue(TapeOp::Push(7)).unwrap();
        clock.advance(101); // past op_deadline_ms while queued
        gate.open();
        park.wait().unwrap();
        match doomed.wait() {
            Err(ServeError::Timeout { deadline_ms: 100, now_ms: 101 }) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        assert!(session.view().is_empty(), "timed-out op must never apply");
        let stats = service.stats();
        assert_eq!(stats.timed_out, 1);
        assert_eq!(stats.unaccounted(), 0);
    }

    #[test]
    fn panics_are_contained_rolled_back_and_typed() {
        let (service, disk, _) = open_tape(ServeConfig::default());
        let session = service.session();
        session.submit(TapeOp::Push(1)).unwrap();
        let err = session.submit(TapeOp::Panic("injected fault".into())).unwrap_err();
        assert_eq!(err, ServeError::Panicked { detail: "injected fault".into() });
        let err = session.submit(TapeOp::Refuse).unwrap_err();
        assert!(matches!(err, ServeError::Engine { .. }), "{err:?}");
        // The writer survived and the partial effects are gone.
        session.submit(TapeOp::Push(2)).unwrap();
        assert_eq!(session.view(), vec![1, 2]);
        let stats = service.shutdown();
        assert_eq!((stats.panicked, stats.engine_refusals, stats.acked), (1, 1, 2));
        assert_eq!(stats.unaccounted(), 0);
        assert_eq!(*lock(&disk), vec![1, 2]);
    }

    #[test]
    fn repeated_panics_quarantine_the_session_until_cooldown() {
        let (service, _, clock) = open_tape(small_config());
        let bad = service.session();
        let good = service.session();
        for _ in 0..2 {
            let err = bad.submit(TapeOp::Panic("boom".into())).unwrap_err();
            assert!(matches!(err, ServeError::Panicked { .. }));
        }
        let err = bad.submit(TapeOp::Push(1)).unwrap_err();
        assert!(matches!(err, ServeError::Quarantined { .. }), "{err:?}");
        assert!(matches!(bad.breaker_state(), BreakerState::Open { .. }));
        // The quarantine is per-session: others flow, the writer lives.
        good.submit(TapeOp::Push(2)).unwrap();
        // Cooldown elapses: the breaker half-opens and a probe succeeds.
        clock.advance(500);
        bad.submit(TapeOp::Push(3)).unwrap();
        assert!(matches!(bad.breaker_state(), BreakerState::Closed { .. }));
        let stats = service.stats();
        assert_eq!(stats.quarantine_rejections, 1);
        assert_eq!(stats.unaccounted(), 0);
        assert_eq!(good.view(), vec![2, 3]);
    }

    #[test]
    fn failed_rollbacks_and_commits_refuse_the_batch_and_repair() {
        let (service, disk, _) = open_tape(ServeConfig::default());
        let session = service.session();
        session.submit(TapeOp::Push(1)).unwrap();

        // One batch: an applied op, a refusal whose rollback fails, and
        // an op after it.
        let gate = Gate::new();
        let park = session.enqueue(TapeOp::Park(gate.clone())).unwrap();
        gate.wait_arrived();
        let earlier = session.enqueue(TapeOp::Push(2)).unwrap();
        let unrollable = session.enqueue(TapeOp::RefuseUnrollable).unwrap();
        let later = session.enqueue(TapeOp::Push(3)).unwrap();
        gate.open();
        park.wait().unwrap();
        assert!(matches!(earlier.wait(), Err(ServeError::Io { detail })
            if detail == "rollback failed"));
        assert!(matches!(unrollable.wait(), Err(ServeError::Engine { .. })));
        later.wait().unwrap();
        assert_eq!(session.view(), vec![1, 3], "repaired to the durable state, then served on");

        // A failed commit refuses its whole batch the same way.
        let err = session.submit(TapeOp::FailCommit).unwrap_err();
        assert_eq!(err, ServeError::Io { detail: "commit failed".into() });
        session.submit(TapeOp::Push(4)).unwrap();

        let stats = service.shutdown();
        assert_eq!((stats.io_refusals, stats.engine_refusals), (2, 1));
        assert_eq!(stats.unaccounted(), 0);
        assert_eq!(*lock(&disk), vec![1, 3, 4], "durable state = acked ops exactly");
    }

    #[test]
    fn abort_refuses_queued_work_and_preserves_committed_state() {
        let (service, disk, _) = open_tape(small_config());
        let session = service.session();
        session.submit(TapeOp::Push(1)).unwrap();
        let gate = Gate::new();
        let park = session.enqueue(TapeOp::Park(gate.clone())).unwrap();
        gate.wait_arrived();
        let doomed = session.enqueue(TapeOp::Push(2)).unwrap();
        gate.open();
        park.wait().unwrap();
        let waiter = std::thread::spawn(move || doomed.wait());
        let stats = service.abort();
        let verdict = waiter.join().unwrap();
        // The op either made it into the final batch before the abort
        // flag was observed, or was refused Closed — never lost limbo.
        match verdict {
            Ok(_) => assert_eq!(*lock(&disk), vec![1, 2]),
            Err(ServeError::Closed) => {
                assert!(stats.closed_refusals >= 1);
                assert_eq!(*lock(&disk), vec![1]);
            }
            other => panic!("unexpected verdict {other:?}"),
        }
        assert_eq!(stats.unaccounted(), 0);
    }

    #[test]
    fn submissions_after_shutdown_are_closed() {
        let (service, _, _) = open_tape(ServeConfig::default());
        let session = service.session();
        session.submit(TapeOp::Push(1)).unwrap();
        let shared = Arc::clone(&session.shared);
        drop(service); // graceful drain + join
        assert!(shared.writer_gone.load(Ordering::Acquire));
        let err = session.submit(TapeOp::Push(2)).unwrap_err();
        assert_eq!(err, ServeError::Closed);
        assert_eq!(shared.ledger.read().closed_refusals, 1);
    }

    /// The shared open path applies `compact_threshold` to both
    /// machines.
    #[test]
    fn log_compacts_opportunistically_past_the_threshold() {
        let config = ServeConfig { compact_threshold: 256, ..ServeConfig::default() };
        let (service, _, _) = open_mem(config.clone());
        let session = service.session();
        for i in 0..64 {
            session.submit(ServeOp::insert(&format!("subject:{i}"), "prop", "value")).unwrap();
        }
        assert!(service.stats().compactions >= 1);
        assert_eq!(service.snapshot().len(), 64);

        let factory = crate::ward_factory(
            marks::MockClock::new(),
            marks::FaultProfile::healthy(),
            marks::FlakyControl::new(0),
            marks::RetryPolicy::default(),
            BreakerConfig::default(),
            3,
        );
        let pad = crate::PadService::open(
            Arc::new(MemVfs::new()),
            Path::new("serve/pad.xml"),
            config,
            Arc::new(MockClock::new()),
            factory,
        )
        .unwrap();
        let session = pad.session();
        for i in 0..16 {
            let name = format!("bundle {i}");
            let op = crate::PadOp::CreateBundle {
                name,
                pos: (0, 0),
                width: 10,
                height: 10,
                parent: None,
            };
            session.submit(op).unwrap();
        }
        assert!(pad.stats().compactions >= 1, "{:?}", pad.stats());
    }

    // -----------------------------------------------------------------
    // The triple-level machine
    // -----------------------------------------------------------------

    fn open_mem(config: ServeConfig) -> (Service, Arc<MemVfs>, Arc<MockClock>) {
        let vfs = Arc::new(MemVfs::new());
        let clock = Arc::new(MockClock::new());
        let (service, _) =
            Service::open(vfs.clone(), Path::new(PATH), config, clock.clone()).unwrap();
        (service, vfs, clock)
    }

    #[test]
    fn acked_ops_are_visible_and_durable() {
        let (service, vfs, _) = open_mem(ServeConfig::default());
        let session = service.session();
        let a = session.submit(ServeOp::insert("b:1", "name", "John")).unwrap();
        let b = session.submit(ServeOp::link("b:1", "member", "s:1")).unwrap();
        assert!(b.order > a.order, "writer order is monotonic");
        assert!(a.durable_seq.is_some());

        let snap = session.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.scan_subject("b:1").count(), 2);

        let stats = service.shutdown();
        assert_eq!(stats.acked, 2);
        // Reopen straight through trim: both ops were group-committed.
        let (store, _, _) = TripleStore::open_logged(&vfs, Path::new(PATH)).unwrap();
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn removes_and_set_unique_round_trip() {
        let (service, _, _) = open_mem(ServeConfig::default());
        let session = service.session();
        session.submit(ServeOp::insert("b:1", "ward", "W3")).unwrap();
        session.submit(ServeOp::set_unique("b:1", "ward", "W4")).unwrap();
        session.submit(ServeOp::insert("b:1", "name", "John")).unwrap();
        session.submit(ServeOp::remove("b:1", "name", "John")).unwrap();
        // Removing something never interned is an acked no-op.
        session.submit(ServeOp::remove("nope", "nope", "nope")).unwrap();
        let snap = session.snapshot();
        assert_eq!(snap.len(), 1);
        let ward = snap.iter().next().unwrap().object;
        assert_eq!((snap.resolve(ward.atom()), ward.is_resource()), ("W4", false));
    }

    #[test]
    fn old_snapshots_never_see_later_writes() {
        let (service, _, _) = open_mem(ServeConfig::default());
        let session = service.session();
        session.submit(ServeOp::insert("b:1", "name", "John")).unwrap();
        let before = session.snapshot();
        session.submit(ServeOp::insert("b:2", "name", "Mary")).unwrap();
        assert_eq!(before.len(), 1, "reader isolation");
        assert_eq!(session.snapshot().len(), 2);
    }

    #[test]
    fn readers_join_published_snapshots_while_the_writer_streams() {
        use trim::ConjQuery;
        let (service, _, _) = open_mem(ServeConfig::default());
        let session = service.session();
        session.submit(ServeOp::link("b:1", "member", "s:1")).unwrap();
        session.submit(ServeOp::link("b:1", "member", "s:2")).unwrap();
        session.submit(ServeOp::insert("s:1", "name", "John")).unwrap();
        session.submit(ServeOp::insert("s:2", "name", "Mary")).unwrap();

        // Bundle-membership join, entirely on the reader's snapshot:
        // (b:1 member ?s) ⋈ (?s name ?n).
        let snap = session.snapshot();
        let atom = |name| snap.find_atom(name).unwrap();
        let mut query = ConjQuery::new();
        let (s, n) = (query.var("s"), query.var("n"));
        query.pattern(atom("b:1"), atom("member"), s).pattern(s, atom("name"), n);
        // Each row as (scrap, name), with the object kinds checked.
        let join = |snap: &Snapshot| -> Vec<(String, String)> {
            let rows = query.solve(snap).unwrap();
            rows.iter()
                .map(|row| {
                    assert!(row[0].is_resource() && !row[1].is_resource());
                    (snap.resolve(row[0].atom()).into(), snap.resolve(row[1].atom()).into())
                })
                .collect()
        };
        let has = |rows: &[(String, String)], s: &str, n: &str| {
            rows.contains(&(s.to_string(), n.to_string()))
        };
        let rows = join(&snap);
        assert_eq!(rows.len(), 2);
        assert!(has(&rows, "s:1", "John") && has(&rows, "s:2", "Mary"));

        // The writer keeps committing underneath; the held snapshot's
        // join answer is frozen while a fresh snapshot sees the member
        // that arrived after it was published.
        session.submit(ServeOp::link("b:1", "member", "s:3")).unwrap();
        session.submit(ServeOp::insert("s:3", "name", "Omar")).unwrap();
        assert_eq!(join(&snap).len(), 2, "published snapshots are immutable");
        let fresh = join(&session.snapshot());
        assert_eq!(fresh.len(), 3);
        assert!(has(&fresh, "s:3", "Omar"));
    }

    #[test]
    fn commit_failure_rolls_back_refuses_typed_and_recovers() {
        let fault = Arc::new(FaultVfs::unarmed(MemVfs::new()));
        let clock = Arc::new(MockClock::new());
        let (service, _) =
            Service::open(fault.clone(), Path::new(PATH), ServeConfig::default(), clock).unwrap();
        let session = service.session();
        session.submit(ServeOp::insert("b:1", "name", "John")).unwrap();

        fault.rearm(FaultConfig::new(FaultOp::Append, FaultMode::Fail, 0, 0));
        let err = session.submit(ServeOp::insert("b:2", "name", "Mary")).unwrap_err();
        assert!(matches!(err, ServeError::Io { .. }), "{err:?}");
        assert!(fault.fault_fired());
        assert_eq!(session.snapshot().len(), 1, "failed batch must roll back");

        // One-shot fault has passed: the WAL self-repairs on next append.
        session.submit(ServeOp::insert("b:3", "name", "Sue")).unwrap();
        let snap = session.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.scan_subject("b:2").count(), 0);

        let stats = service.shutdown();
        assert_eq!(stats.io_refusals, 1);
        let (store, _, _) = TripleStore::open_logged(&*fault, Path::new(PATH)).unwrap();
        assert_eq!(store.len(), 2, "durable state = acked ops exactly");
    }

    #[test]
    fn failed_compactions_and_log_repairs_are_counted() {
        let fault = Arc::new(FaultVfs::unarmed(MemVfs::new()));
        let clock = Arc::new(MockClock::new());
        let config = ServeConfig { compact_threshold: 1, ..ServeConfig::default() };
        let (service, _) = Service::open(fault.clone(), Path::new(PATH), config, clock).unwrap();
        let session = service.session();

        // The commit lands; the compaction it triggers cannot install
        // its snapshot, which refuses nothing.
        fault.rearm(FaultConfig::new(FaultOp::Rename, FaultMode::Fail, 0, 0));
        session.submit(ServeOp::insert("b:1", "name", "John")).unwrap();
        assert_eq!(service.stats().compaction_failures, 1);

        // A torn append fails the commit and the disk dies with it, so
        // the repair cannot truncate the torn tail.
        fault.rearm(FaultConfig::new(FaultOp::Append, FaultMode::Torn, 0, 3).halting());
        let err = session.submit(ServeOp::insert("b:2", "name", "Mary")).unwrap_err();
        assert!(matches!(err, ServeError::Io { .. }), "{err:?}");
        assert_eq!(service.stats().repair_failures, 1);

        // Back on a working disk, the log retries the truncation first.
        fault.disarm();
        session.submit(ServeOp::insert("b:3", "name", "Sue")).unwrap();
        let stats = service.shutdown();
        assert_eq!((stats.compaction_failures, stats.repair_failures), (1, 1));
        let (store, _, _) = TripleStore::open_logged(&*fault, Path::new(PATH)).unwrap();
        assert_eq!(store.len(), 2, "durable state = acked ops exactly");
    }

    #[test]
    fn concurrent_sessions_all_commit_and_reopen_intact() {
        let (service, vfs, _) = open_mem(ServeConfig::default());
        let service = Arc::new(service);
        let mut handles = Vec::new();
        for s in 0..4 {
            let session = service.session();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    session
                        .submit(ServeOp::insert(&format!("sess{s}:b{i}"), "seq", &i.to_string()))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(service.snapshot().len(), 200);
        let stats = service.stats();
        assert_eq!(stats.acked, 200);
        assert_eq!(stats.submitted, 200);
        drop(service);
        let (store, _, _) = TripleStore::open_logged(&vfs, Path::new(PATH)).unwrap();
        assert_eq!(store.len(), 200);
    }
}
