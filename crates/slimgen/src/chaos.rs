//! Seeded chaos soak for the supervised services, written once and run
//! against either machine through a small [`Target`]: [`Triples`] for
//! the triple-level [`slimserve::Service`], [`Pads`] for the pad-level
//! [`slimserve::PadService`] (marks, excerpts, bundles, undo).
//!
//! N interleaved sessions of trace-derived traffic go through the
//! service while every fault class the supervisor claims to contain is
//! injected:
//!
//! * **worker panics** — panic ops spliced into each session's script on
//!   a seeded schedule;
//! * **I/O faults** — one-shot [`FaultVfs`] append failures armed
//!   mid-traffic, plus a halting *torn-append* fault that plays a full
//!   crash (service aborted, disk reopened, WAL salvaged);
//! * **slow-clock stalls** — a thread yanking the shared [`MockClock`]
//!   forward so queued ops age past their deadlines;
//! * **deterministic drills** — a serially-panicking session to force
//!   quarantine, and a parked writer to force `Overloaded` shedding
//!   (with its retry hint) and `Timeout` expiry, independent of
//!   scheduling luck;
//! * for pads ([`crate::chaos_pad`]), a **base-layer storm** — a
//!   [`FlakyModule`] (transient errors, latency, dangling documents,
//!   content drift) armed through its shared [`FlakyControl`] — and a
//!   quarantine-and-repair drill.
//!
//! The oracle is differential and three-way: every acknowledged op is
//! recorded with its writer-assigned serialization order, replayed in
//! `(epoch, order)` order into a fresh **single-session** machine, and
//! the replay's digest must equal both the live service's final view and
//! a from-disk reopen. Refusals are checked the other way around: the
//! drills' refused markers must leave the view untouched, and the
//! ledger must balance — every submission ends in exactly one typed
//! bucket, nothing is silently dropped.
//!
//! [`FlakyModule`]: superimposed::marks::FlakyModule
//! [`FlakyControl`]: superimposed::marks::FlakyControl

use std::fmt::Debug;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use slimio::{FaultConfig, FaultMode, FaultOp, FaultVfs, MemVfs, Vfs};
use slimserve::{
    Gate, LiveStore, Machine, ServeConfig, ServeError, ServeOp, ServeStats, Service, Session,
    Supervisor,
};
use superimposed::marks::resilience::{mix64, BreakerConfig, MockClock};
use superimposed::trim::{
    Runs, SnapValue, Snapshot, SnapshotPublisher, Triple, TripleStore, Value,
};

use crate::trace::{self, Mix, TraceOp};
use crate::Profile;

pub use crate::chaos_pad::Pads;

/// Where the chaos service's snapshot + log live on the in-memory VFS.
const STORE_PATH: &str = "chaos/store.xml";

/// Tuning for one chaos run. Everything observable is a pure function
/// of this config and the target — re-running with the same seed
/// replays the same per-session scripts and fault schedules.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Concurrent session threads per epoch.
    pub sessions: usize,
    /// Trace ops per session per epoch.
    pub ops_per_session: usize,
    /// Master seed; fans out per session and per fault schedule.
    pub seed: u64,
    /// Inject the mid-run torn-append crash + recovery.
    pub crash: bool,
    /// Traffic mix for the underlying trace generator.
    pub mix: Mix,
}

impl ChaosConfig {
    /// Profile-scaled defaults for target `T` (crash on, mixed traffic).
    pub fn new<T: Target>(profile: Profile, seed: u64) -> Self {
        let (sessions, ops_per_session) = T::size(profile);
        ChaosConfig { sessions, ops_per_session, seed, crash: true, mix: Mix::Mixed }
    }
}

/// The supervisor tuning both soaks run under.
pub(crate) fn serve_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 64,
        max_batch: 16,
        op_deadline_ms: 1_000,
        breaker: BreakerConfig {
            failure_threshold: 3,
            cooldown_ms: 5_000,
            probe_budget: 3,
            probe_successes: 1,
        },
        // Small enough that the soak exercises compaction repeatedly.
        compact_threshold: 1 << 15,
    }
}

/// What a chaos run observed. [`ChaosReport::passed`] is the verdict
/// the CI job gates on.
#[derive(Debug)]
pub struct ChaosReport {
    /// Which soak ran ([`Target::NAME`]).
    pub target: &'static str,
    /// The seed that replays this run.
    pub seed: u64,
    /// Session threads per epoch.
    pub sessions: usize,
    /// Trace ops per session per epoch.
    pub ops_per_session: usize,
    /// Whether the torn-append crash was injected.
    pub crash: bool,
    /// Write submissions the harness made (soak traffic + drills).
    pub attempts: u64,
    /// Service counters summed across every incarnation and drill rig.
    pub stats: ServeStats,
    /// The WAL's recovery summary after the injected crash, when the
    /// service reports one.
    pub recovery: Option<String>,
    /// Final view digest of the live service.
    pub live_digest: u64,
    /// Digest of the serialized single-session replay of every acked op.
    pub replay_digest: u64,
    /// Digest of a fresh from-disk reopen after shutdown.
    pub disk_digest: u64,
    /// Every invariant violation observed; empty means PASS.
    pub divergences: Vec<String>,
}

impl ChaosReport {
    /// True when every invariant held.
    pub fn passed(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// One step of a session's script.
pub enum Action<O> {
    /// Submit a write op and record its verdict.
    Write(O),
    /// Read the published view — readers under a hot writer.
    Read {
        /// What to look up in the view.
        subject: String,
    },
}

type Op<T> = <<T as Target>::M as Machine>::Op;
type View<T> = <<T as Target>::M as Machine>::View;

/// What differs between the two soaks: the machine, its traffic, its
/// oracles, and its extra drills.
pub trait Target: Sized {
    /// The supervised machine.
    type M: Machine<Op: Clone + Debug, Outcome: Debug>;
    /// The report's label.
    const NAME: &'static str;
    /// Acks to wait for before tearing the disk.
    const CRASH_AFTER_ACKS: u64;

    /// Fault-injection state for one run.
    fn new(seed: u64) -> Self;
    /// `(sessions, ops per session)` at a profile.
    fn size(profile: Profile) -> (usize, usize);
    /// Open (or recover) the service on `disk`; the recovery summary
    /// when the machine reports one.
    fn open(
        &self,
        disk: &Arc<FaultVfs<MemVfs>>,
        clock: &Arc<MockClock>,
    ) -> Result<(Supervisor<Self::M>, Option<String>), ServeError>;
    /// Map one trace verb onto the machine's ops.
    fn translate(sess: u64, epoch: u64, i: u64, op: &TraceOp) -> Action<Op<Self>>;
    /// The op spliced in at `sel`'s slot, if any (panics, and so on).
    fn splice(sess: u64, epoch: u64, i: u64, sel: u64) -> Option<Op<Self>>;
    /// A panicking op.
    fn panic_op(detail: String) -> Op<Self>;
    /// An op that parks the writer on `gate`.
    fn park_op(gate: Gate) -> Op<Self>;
    /// A visible mutation tagged `name`, for drills that expect refusal.
    fn marker_op(name: &str) -> Op<Self>;
    /// Serve a [`Action::Read`] from the session's view.
    fn read(_: &Session<Self::M>, _: &str) {}
    /// Read-your-writes: false when an acked op is missing from the
    /// session's next view.
    fn visible(_: &Session<Self::M>, _: &Op<Self>) -> bool {
        true
    }
    /// A view's digest.
    fn digest(view: &View<Self>) -> u64;
    /// Digest of a fresh single-session machine after replaying `ops` in
    /// order. An op the replay refuses is a divergence: its ack promised
    /// it applied.
    fn replay(ops: &[&(u64, u64, Op<Self>)], divergences: &mut Vec<String>) -> u64;
    /// Digest of the durable on-disk state.
    fn disk_digest(disk: &dyn Vfs, divergences: &mut Vec<String>) -> u64;
    /// Stop injecting machine-level faults before the drills.
    fn calm(&self) {}
    /// Machine-specific drills on rigs of their own.
    fn drills(&self, _seed: u64, _books: &mut Books) {}
    /// Machine-specific fault classes that must have been observed.
    fn observed(_stats: &ServeStats, _divergences: &mut Vec<String>) {}
}

/// Counts every drill and epoch adds to.
#[derive(Debug, Default)]
pub struct Books {
    /// Submissions made.
    pub attempts: u64,
    /// Acks from drill rigs, whose ops stay out of the replay.
    pub drill_acks: u64,
    /// Ledgers of every service incarnation and rig.
    pub stats: ServeStats,
    /// Invariant violations.
    pub divergences: Vec<String>,
}

/// Run the chaos soak to completion and report.
pub fn run<T: Target>(config: &ChaosConfig) -> ChaosReport {
    let target = T::new(config.seed);
    let disk = Arc::new(FaultVfs::unarmed(MemVfs::new()));
    let clock = Arc::new(MockClock::new());
    let serve_config = serve_config();

    let mut books = Books::default();
    let mut acked: Vec<(u64, u64, Op<T>)> = Vec::new();
    let mut recovery = None;

    // Slow-clock chaos: stalls big enough that ops queued across a few
    // ticks blow their deadlines, small enough that quarantine cooldowns
    // still elapse and breakers cycle through half-open probes.
    let stop_stall = Arc::new(AtomicBool::new(false));
    let stall = {
        let clock = Arc::clone(&clock);
        let stop = Arc::clone(&stop_stall);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                clock.advance(700);
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    // ---- Epoch 1: traffic, then (optionally) a torn-append crash ----
    let (service, _) = target.open(&disk, &clock).expect("fresh chaos service opens");
    let epoch1 = spawn_epoch::<T>(&service, config, 1);
    if config.crash {
        // Let some traffic commit, then tear an append mid-frame and
        // halt the disk: every later commit fails with a typed Io
        // refusal until the "machine" reboots.
        let deadline = Instant::now() + Duration::from_secs(10);
        while service.stats().acked < T::CRASH_AFTER_ACKS && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        disk.rearm(FaultConfig::new(FaultOp::Append, FaultMode::Torn, 0, config.seed).halting());
    }
    join_epoch::<T>(epoch1, 1, &mut acked, &mut books);

    let service = if config.crash {
        books.stats += service.abort(); // the crash: queued work refused, writer gone
        disk.disarm();
        let epoch1_replay = replay::<T>(&acked, &mut books.divergences);
        let (service, report) =
            target.open(&disk, &clock).expect("chaos service recovers after torn-append crash");
        recovery = report;
        let recovered = T::digest(&service.view());
        if recovered != epoch1_replay {
            books.divergences.push(format!(
                "post-crash recovery digest {recovered:#018x} != epoch-1 acked replay \
                 {epoch1_replay:#018x} — an acked commit was lost or a refused op survived"
            ));
        }
        service
    } else {
        service
    };

    // ---- Epoch 2: traffic with one-shot I/O faults sprinkled in ----
    let epoch2 = spawn_epoch::<T>(&service, config, 2);
    for burst in 0..3u64 {
        std::thread::sleep(Duration::from_millis(2));
        disk.rearm(FaultConfig::new(
            FaultOp::Append,
            FaultMode::Fail,
            burst,
            mix64(config.seed, burst),
        ));
    }
    join_epoch::<T>(epoch2, 2, &mut acked, &mut books);

    // The drills below need a working disk, a frozen clock, and no
    // machine-level fault storm.
    disk.disarm();
    target.calm();
    stop_stall.store(true, Ordering::Relaxed);
    stall.join().expect("stall thread exits");
    let before_drills = T::digest(&service.view());

    // ---- Drill: repeated panics must land a session in quarantine ----
    let divergences = &mut books.divergences;
    let bad = service.session();
    for k in 0..serve_config.breaker.failure_threshold {
        books.attempts += 1;
        let verdict = bad.submit(T::panic_op(format!("drill panic {k}")));
        if !matches!(verdict, Err(ServeError::Panicked { .. })) {
            divergences.push(format!("quarantine drill: panic {k} got {verdict:?}"));
        }
    }
    books.attempts += 1;
    match bad.submit(T::marker_op("drill:quarantined")) {
        Err(ServeError::Quarantined { .. }) => {}
        other => divergences.push(format!("quarantine drill: expected Quarantined, got {other:?}")),
    }

    // ---- Drill: a parked writer must shed and expire, loudly --------
    let driller = service.session();
    let gate = Gate::new();
    books.attempts += 1;
    let park = driller.enqueue(T::park_op(gate.clone())).expect("park admits into an empty queue");
    gate.wait_arrived(); // the writer is parked; the queue is all ours
    let mut fills = Vec::new();
    for k in 0..serve_config.queue_capacity {
        books.attempts += 1;
        match driller.enqueue(T::marker_op(&format!("drill:fill{k}"))) {
            Ok(ticket) => fills.push(ticket),
            Err(e) => divergences.push(format!("backpressure drill: fill {k} refused: {e}")),
        }
    }
    books.attempts += 1;
    match driller.enqueue(T::marker_op("drill:overflow")) {
        Err(ServeError::Overloaded { retry_after_ms, .. }) if retry_after_ms > 0 => {}
        other => divergences.push(format!(
            "backpressure drill: expected Overloaded with a retry hint, got {other:?}"
        )),
    }
    clock.advance(serve_config.op_deadline_ms + 1); // age the queue past its deadlines
    gate.open();
    match park.wait() {
        Ok(ack) => acked.push((2, ack.order, T::park_op(gate.clone()))),
        Err(e) => divergences.push(format!("park op refused: {e}")),
    }
    for (k, ticket) in fills.into_iter().enumerate() {
        match ticket.wait() {
            Err(ServeError::Timeout { .. }) => {}
            other => {
                divergences.push(format!("deadline drill: fill {k} expected Timeout, got {other:?}"))
            }
        }
    }
    // Refused markers must be observably absent — shed is loud, not lossy.
    if T::digest(&service.view()) != before_drills {
        divergences.push("refused drill markers leaked into the published view".into());
    }

    target.drills(config.seed, &mut books);

    // ---- Final differential: live == replay == disk -----------------
    let live_digest = T::digest(&service.view());
    let replay_digest = replay::<T>(&acked, &mut books.divergences);
    if live_digest != replay_digest {
        books.divergences.push(format!(
            "final live digest {live_digest:#018x} != serialized replay {replay_digest:#018x}"
        ));
    }
    books.stats += service.shutdown();
    let disk_digest = T::disk_digest(&*disk, &mut books.divergences);
    if disk_digest != replay_digest {
        books.divergences.push(format!(
            "from-disk digest {disk_digest:#018x} != serialized replay {replay_digest:#018x}"
        ));
    }

    // ---- The books must balance: every attempt, one typed verdict ---
    let stats = books.stats;
    let divergences = &mut books.divergences;
    let buckets = stats.acked
        + stats.shed
        + stats.timed_out
        + stats.panicked
        + stats.engine_refusals
        + stats.quarantine_rejections
        + stats.io_refusals
        + stats.closed_refusals;
    if books.attempts != buckets {
        divergences.push(format!(
            "ledger imbalance: {} submissions vs {buckets} accounted verdicts",
            books.attempts
        ));
    }
    if stats.unaccounted() != 0 {
        divergences.push(format!(
            "queue ledger imbalance: {} enqueued ops unaccounted",
            stats.unaccounted()
        ));
    }
    if acked.len() as u64 + books.drill_acks != stats.acked {
        divergences.push(format!(
            "ack mismatch: harness observed {} acks, service counted {}",
            acked.len() as u64 + books.drill_acks,
            stats.acked
        ));
    }
    if stats.acked == 0 {
        divergences.push("no traffic survived the chaos at all".into());
    }
    if stats.panicked < serve_config.breaker.failure_threshold as u64 {
        divergences.push("injected panics were not all observed as Panicked".into());
    }
    if stats.quarantine_rejections == 0 {
        divergences.push("no session was ever quarantined".into());
    }
    if stats.shed == 0 || stats.shed_backoff_ms == 0 {
        divergences.push("overload never shed with a retry hint".into());
    }
    if stats.timed_out < serve_config.queue_capacity as u64 {
        divergences.push("expired deadlines were not all refused as Timeout".into());
    }
    if stats.commits == 0 {
        divergences.push("nothing was ever group-committed".into());
    }
    T::observed(&stats, divergences);

    ChaosReport {
        target: T::NAME,
        seed: config.seed,
        sessions: config.sessions,
        ops_per_session: config.ops_per_session,
        crash: config.crash,
        attempts: books.attempts,
        stats,
        recovery,
        live_digest,
        replay_digest,
        disk_digest,
        divergences: books.divergences,
    }
}

/// What one session thread observed.
struct Outcome<O> {
    /// Acknowledged ops with their writer serialization order.
    acked: Vec<(u64, O)>,
    /// Write submissions made.
    attempts: u64,
    /// Invariant violations (read-your-writes).
    divergences: Vec<String>,
}

/// Spawn one epoch's session threads. The caller keeps the service and
/// may inject faults while they run.
fn spawn_epoch<T: Target>(
    service: &Supervisor<T::M>,
    config: &ChaosConfig,
    epoch: u64,
) -> Vec<JoinHandle<Outcome<Op<T>>>> {
    (0..config.sessions)
        .map(|s| {
            let session = service.session();
            let script = session_script::<T>(config, s as u64, epoch);
            let tag = format!("session {s} epoch {epoch}");
            std::thread::spawn(move || drive::<T>(session, script, tag))
        })
        .collect()
}

fn join_epoch<T: Target>(
    threads: Vec<JoinHandle<Outcome<Op<T>>>>,
    epoch: u64,
    acked: &mut Vec<(u64, u64, Op<T>)>,
    books: &mut Books,
) {
    for t in threads {
        let out = t.join().expect("session threads never panic");
        books.attempts += out.attempts;
        books.divergences.extend(out.divergences);
        acked.extend(out.acked.into_iter().map(|(order, op)| (epoch, order, op)));
    }
}

/// One session's whole workload: the hospital trace translated to the
/// machine's ops, with the target's seeded injections spliced in.
fn session_script<T: Target>(config: &ChaosConfig, sess: u64, epoch: u64) -> Vec<Action<Op<T>>> {
    let trace =
        trace::generate(mix64(config.seed, sess * 2 + epoch), config.ops_per_session, config.mix);
    trace
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let i = i as u64;
            let sel = mix64(config.seed ^ sess.rotate_left(17), epoch << 32 | i);
            match T::splice(sess, epoch, i, sel) {
                Some(op) => Action::Write(op),
                None => T::translate(sess, epoch, i, op),
            }
        })
        .collect()
}

/// Run one session's script to completion, tolerating every typed
/// refusal (that is the point) but recording invariant violations.
fn drive<T: Target>(
    session: Session<T::M>,
    script: Vec<Action<Op<T>>>,
    tag: String,
) -> Outcome<Op<T>> {
    let mut out = Outcome { acked: Vec::new(), attempts: 0, divergences: Vec::new() };
    for (i, action) in script.into_iter().enumerate() {
        let op = match action {
            Action::Read { subject } => {
                T::read(&session, &subject);
                continue;
            }
            Action::Write(op) => op,
        };
        out.attempts += 1;
        // Every refusal is typed and guarantees the op was not applied;
        // the replay proves it.
        let Ok(ack) = session.submit(op.clone()) else { continue };
        if !T::visible(&session, &op) {
            out.divergences.push(format!("{tag}: acked op {i} invisible in the next view"));
        }
        out.acked.push((ack.order, op));
    }
    out
}

/// The serialized single-session oracle: replay every acknowledged op in
/// `(epoch, order)` order into a fresh machine and digest it.
fn replay<T: Target>(acked: &[(u64, u64, Op<T>)], divergences: &mut Vec<String>) -> u64 {
    let mut ordered: Vec<&(u64, u64, Op<T>)> = acked.iter().collect();
    ordered.sort_by_key(|(epoch, order, _)| (*epoch, *order));
    T::replay(&ordered, divergences)
}

// ---------------------------------------------------------------------
// Triples: the triple-level service
// ---------------------------------------------------------------------

/// The triple-level soak: [`slimserve::Service`] over a logged
/// [`TripleStore`], replayed into a fresh store.
pub struct Triples;

impl Target for Triples {
    type M = LiveStore;
    const NAME: &'static str = "chaos";
    const CRASH_AFTER_ACKS: u64 = 20;

    fn new(_seed: u64) -> Self {
        Triples
    }

    fn size(profile: Profile) -> (usize, usize) {
        match profile {
            Profile::Smoke => (4, 48),
            Profile::Quick => (8, 160),
            Profile::Full => (16, 512),
        }
    }

    fn open(
        &self,
        disk: &Arc<FaultVfs<MemVfs>>,
        clock: &Arc<MockClock>,
    ) -> Result<(Service, Option<String>), ServeError> {
        let (service, report) =
            Service::open(disk.clone(), Path::new(STORE_PATH), serve_config(), clock.clone())?;
        Ok((service, Some(report.to_string())))
    }

    /// Subjects are scoped `c{sess}e{epoch}:*` so every session's writes
    /// are attributable, plus a small shared `hot:doc*` set so sessions
    /// genuinely contend.
    fn translate(sess: u64, epoch: u64, i: u64, op: &TraceOp) -> Action<ServeOp> {
        let bundle = |j: u64| format!("c{sess}e{epoch}:b{j}");
        let scrap = |j: u64| format!("c{sess}e{epoch}:s{j}");
        let hot = |j: u64| format!("hot:doc{}", j % 8);
        match op {
            TraceOp::BeginOp => Action::Write(ServeOp::insert(
                &format!("c{sess}e{epoch}:journal"),
                "checkpoint",
                &i.to_string(),
            )),
            TraceOp::CreateBundle { parent } => Action::Write(ServeOp::Insert {
                subject: bundle(i),
                property: "bundleName".into(),
                object: SnapValue::Literal(format!("bundle {sess}/{epoch}/{i} under {parent}")),
            }),
            TraceOp::PlaceMark { mark, bundle: b } => Action::Write(ServeOp::Insert {
                subject: bundle(b % (i + 1)),
                property: "containsScrap".into(),
                object: SnapValue::Resource(scrap(mark % (i + 1))),
            }),
            TraceOp::Annotate { scrap: s, note } => Action::Write(ServeOp::Insert {
                subject: scrap(s % (i + 1)),
                property: "annotation".into(),
                object: SnapValue::Literal(format!("note {note} @{i}")),
            }),
            TraceOp::Link { from, to } => Action::Write(ServeOp::Insert {
                subject: scrap(from % (i + 1)),
                property: "linksTo".into(),
                object: SnapValue::Resource(hot(*to)),
            }),
            TraceOp::DeleteScrap { scrap: s } => Action::Write(ServeOp::Remove {
                subject: bundle(s % (i + 1)),
                property: "containsScrap".into(),
                object: SnapValue::Resource(scrap(s % (i + 1))),
            }),
            TraceOp::Undo => Action::Write(ServeOp::SetUnique {
                subject: hot(i),
                property: "lastEditor".into(),
                object: SnapValue::Literal(format!("c{sess} @e{epoch}i{i}")),
            }),
            TraceOp::Extract { scrap: s } => Action::Read { subject: scrap(s % (i + 1)) },
            TraceOp::Query { needle } => Action::Read { subject: hot(*needle) },
            TraceOp::Commit => Action::Read { subject: format!("c{sess}e{epoch}:journal") },
        }
    }

    fn splice(sess: u64, epoch: u64, i: u64, sel: u64) -> Option<ServeOp> {
        sel.is_multiple_of(13)
            .then(|| Self::panic_op(format!("chaos panic s{sess} e{epoch} i{i}")))
    }

    fn panic_op(detail: String) -> ServeOp {
        ServeOp::ChaosPanic { detail }
    }

    fn park_op(gate: Gate) -> ServeOp {
        ServeOp::ChaosPark(gate)
    }

    fn marker_op(name: &str) -> ServeOp {
        ServeOp::insert(name, "p", "v")
    }

    /// Readers never block: clone the snapshot, scan freely.
    fn read(session: &Session<LiveStore>, subject: &str) {
        let _ = session.snapshot().scan_subject(subject).count();
    }

    /// An ack implies a published snapshot at least as new as the op.
    /// Annotation triples are never removed, so they must be visible
    /// from here on.
    fn visible(session: &Session<LiveStore>, op: &ServeOp) -> bool {
        match op {
            ServeOp::Insert { subject, property, object } if property == "annotation" => {
                let snap = session.snapshot();
                let atom = |s: &str| snap.find_atom(s);
                let triple = || {
                    let object = match object {
                        SnapValue::Resource(o) => Value::Resource(atom(o)?),
                        SnapValue::Literal(o) => Value::Literal(atom(o)?),
                    };
                    Some(Triple { subject: atom(subject)?, property: atom(property)?, object })
                };
                triple().is_some_and(|t| snap.contains(&t))
            }
            _ => true,
        }
    }

    fn digest(view: &Snapshot) -> u64 {
        view.digest()
    }

    fn replay(ops: &[&(u64, u64, ServeOp)], _: &mut Vec<String>) -> u64 {
        let mut model = TripleStore::new();
        for (_, _, op) in ops {
            op.apply_to(&mut model);
        }
        SnapshotPublisher::new(&mut model).publish(&mut model).0.digest()
    }

    fn disk_digest(disk: &dyn Vfs, divergences: &mut Vec<String>) -> u64 {
        match TripleStore::open_logged(disk, Path::new(STORE_PATH)) {
            Ok((mut store, _, _)) => {
                SnapshotPublisher::new(&mut store).publish(&mut store).0.digest()
            }
            Err(e) => {
                divergences.push(format!("reopen: post-shutdown store failed to open: {e}"));
                0
            }
        }
    }
}

/// Run `config` against `T` and assert the three-way verdict held.
#[cfg(test)]
pub(crate) fn assert_clean<T: Target>(config: &ChaosConfig) -> ChaosReport {
    let report = run::<T>(config);
    assert!(
        report.passed(),
        "{} divergences: {:#?}\nstats: {:?}",
        report.target,
        report.divergences,
        report.stats
    );
    assert_eq!(report.live_digest, report.replay_digest);
    assert_eq!(report.disk_digest, report.replay_digest);
    report
}

/// One session's script, one printable line per step.
#[cfg(test)]
pub(crate) fn script_lines<T: Target>(config: &ChaosConfig, sess: u64, epoch: u64) -> Vec<String> {
    session_script::<T>(config, sess, epoch)
        .iter()
        .map(|a| match a {
            Action::Write(op) => format!("{op:?}"),
            Action::Read { subject } => format!("read {subject}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tier-1 chaos gate: a smoke-profile run with the full fault
    /// menu (panics, I/O faults, clock stalls, torn-append crash) must
    /// come out differentially clean.
    #[test]
    fn smoke_chaos_soak_passes() {
        let report = assert_clean::<Triples>(&ChaosConfig::new::<Triples>(Profile::Smoke, 0xC0FFEE));
        assert!(report.recovery.is_some(), "the crash leg must actually run");
    }

    /// Crash-free variant: one service incarnation end to end.
    #[test]
    fn chaos_soak_without_crash_passes() {
        let mut config = ChaosConfig::new::<Triples>(Profile::Smoke, 0xFEED);
        config.crash = false;
        let report = assert_clean::<Triples>(&config);
        assert!(report.recovery.is_none());
    }

    /// Two runs with one seed must make identical scripts (the report
    /// depends on thread interleaving, the workload must not), and
    /// epochs get distinct ones.
    #[test]
    fn scripts_are_seed_deterministic() {
        let config = ChaosConfig::new::<Triples>(Profile::Smoke, 7);
        let a = script_lines::<Triples>(&config, 3, 1);
        assert_eq!(a, script_lines::<Triples>(&config, 3, 1));
        assert_ne!(a, script_lines::<Triples>(&config, 3, 2));
    }
}
