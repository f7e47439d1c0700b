//! The pad-level [`Machine`]: many user sessions over one supervised
//! pad.
//!
//! [`crate::Service`] fronts the bare [`trim::TripleStore`]; the paper's
//! clinicians work a level up — marks, excerpts, bundles, undo.
//! [`LivePad`] puts that layer under the same [`crate::Supervisor`]:
//!
//! * **One writer owns the pad.** A [`slimpad::PadSession`] (store +
//!   marks + resolver + WAL), the machine's *engine*, is built and lives
//!   on the writer thread (its resolver is `!Send`); sessions submit
//!   typed [`PadOp`]s and get back a [`PadAck`] carrying the op's
//!   [`PadOutcome`].
//! * **Rollback is in place.** A refused or panicking op is undone
//!   through the store journal and the mark manager's undo journal
//!   ([`marks::MarkManager::rollback_to`]), and the undo/redo op
//!   journals are truncated to their pre-op depth.
//! * **Repair reopens from disk.** A failed commit truncates the log's
//!   suspect tail and rebuilds the machine from the durable snapshot,
//!   WAL and mark records through the [`PadPartsFactory`].
//! * **The view is a snapshot.** After every durable batch the writer
//!   publishes a [`PadView`]: a [`trim::Snapshot`] of the pad's triples
//!   (a copy of the store's delta; the frozen base is shared) plus the
//!   pad's logical digest and population counts. Publishing never walks
//!   the pad: the digest (`pad-digest-v3`, a sum of per-record hashes)
//!   is kept current by re-hashing only the records the batch's net
//!   change touched. [`PadMachine::digest`] computes the same value
//!   from scratch. Replaying the acknowledged [`PadOp`]s of a run into a
//!   fresh [`PadMachine`] reproduces the published digest exactly — and
//!   so does reopening the on-disk state after a crash. That three-way
//!   equality is the `slimgen --chaos-pad` verdict.
//! * **Inspect never queues.** [`PadOp::Inspect`] is the pad's
//!   read-only op ([`Machine::read`]): the submitting session answers
//!   it from the published view's scalars, on its own thread, so a
//!   look at the pad never holds up a writer op, never waits behind
//!   one, and walks nothing. Its ack carries `durable_seq: None` and, as
//!   its order, the view's position (the writer acks the view reflects).
//!   [`PadMachine::apply`] still answers it, for replay mirrors.
//! * **Selectors resolve against a memo.** Canonical order is a pure
//!   function of a store's set of bundles (or scraps), so the machine
//!   keeps the last set with its canonical order and re-sorts only when
//!   the set changed; a selector op then costs one instance scan, not a
//!   name lookup and parse per instance.
//! * **Mark resolution degrades, never hangs.** Resolution runs through
//!   the [`marks::ResilientResolver`] (deadlines, per-module breakers,
//!   quarantine); a [`marks::FlakyModule`] can be armed through its
//!   shared [`marks::FlakyControl`] from any thread, and readers observe
//!   `DegradedExcerpt` fallbacks in the ack rather than a hang or a
//!   panic.
//!
//! The digest is *logical*: bundle and scrap content, each record naming
//! what it holds or links to by that record's own content, plus mark
//! identities and addresses — never minted resource ids (which
//! legitimately diverge across rolled-back ops and crash recoveries) and
//! never excerpts (which legitimately diverge under injected base-layer
//! faults). Its definition is in [`crate::digest`].

use std::path::{Path, PathBuf};
use std::sync::Arc;

use basedocs::textdoc::TextTarget;
use basedocs::{DocKind, Span, TextAddress};
use marks::resilience::{BreakerConfig, Clock};
use marks::{MarkAddress, MarkCheckpoint, MarkManager, ResilientResolver};
use slimio::Vfs;
use slimpad::{PadCommit, PadError, PadSession};
use slimstore::{BundleHandle, PadReader, ScrapHandle};
use trim::{Runs, Snapshot};

use crate::digest::{Records, Tally};
use crate::error::ServeError;
use crate::op::{Ack, Gate};
use crate::service::{
    Durable, Ledger, Machine, Read, ServeConfig, ServeStats, Session, Supervisor,
};

impl From<PadError> for ServeError {
    /// A typed domain refusal from the pad engine: the op was rolled
    /// back to its pre-op checkpoint and never acknowledged.
    fn from(e: PadError) -> Self {
        ServeError::Engine { detail: e.to_string() }
    }
}

/// One pad-level mutation or query submitted to the pad writer.
///
/// Bundles and scraps are addressed by *selector*: an index taken
/// modulo the live population in canonical (creation) order, so ops are
/// plain `Send` data, survive crash recovery, and replay exactly in a
/// fresh [`PadMachine`].
#[derive(Debug, Clone, PartialEq)]
pub enum PadOp {
    /// Create a bundle; `parent` selects an existing bundle (the
    /// invisible root when `None`).
    CreateBundle { name: String, pos: (i64, i64), width: i64, height: i64, parent: Option<u64> },
    /// Create a mark at an explicit text address and place it on the
    /// pad as a labelled scrap — the paper's core gesture, addressed
    /// programmatically.
    CreateMark {
        doc: String,
        paragraph: u64,
        start: u64,
        len: u64,
        label: String,
        pos: (i64, i64),
        bundle: Option<u64>,
    },
    /// Attach an annotation to the selected scrap.
    Annotate { scrap: u64, text: String },
    /// Link two selected scraps (directed; self-links are refused by
    /// the engine as a typed error).
    Link { from: u64, to: u64 },
    /// Resolve the selected scrap's mark through the resilient
    /// resolver; the ack reports the display and whether it degraded.
    Resolve { scrap: u64 },
    /// Extract the selected scrap's marked content with excerpt
    /// fallback.
    Extract { scrap: u64 },
    /// Re-point the selected scrap's mark at a new text address.
    Rebind { scrap: u64, doc: String, paragraph: u64, start: u64, len: u64 },
    /// Online repair: search the base layer for each quarantined mark's
    /// saved excerpt and re-bind unique matches.
    Repair,
    /// Undo the most recent undoable op.
    Undo,
    /// Re-apply the most recently undone op.
    Redo,
    /// Read the pad's logical digest and population counts. Read-only:
    /// a [`PadService`] answers it from the published [`PadView`] on the
    /// submitting session's thread, without entering the writer's queue,
    /// and acks it with the view's position as its order and no durable
    /// frame. [`PadMachine::apply`] answers it from the live pad.
    Inspect,
    /// Force a durable commit (each batch commits anyway; this
    /// exercises the explicit path).
    Commit,
    /// Fold the WAL into a fresh snapshot generation.
    Compact,
    /// Chaos: panic inside the pad writer's apply path.
    ChaosPanic { detail: String },
    /// Chaos: park the pad writer on a gate (backpressure/deadline
    /// drills).
    ChaosPark(Gate),
}

/// What an acknowledged [`PadOp`] did.
#[derive(Debug, Clone, PartialEq)]
pub enum PadOutcome {
    /// Structural mutation applied (create/annotate/link/rebind).
    Applied,
    /// Resolution result: the display text, whether it fell back to the
    /// stored excerpt, and whether the mark is quarantined.
    Resolved { display: String, degraded: bool, quarantined: bool },
    /// Extraction result and whether the excerpt fallback was used.
    Extracted { content: String, degraded: bool },
    /// How many quarantined marks a repair pass re-bound.
    Repaired { rebound: usize, still_quarantined: usize },
    /// An undo/redo happened (`true`) or there was nothing to do —
    /// refused, so replays never see `false` from the service itself.
    Stepped(bool),
    /// Pad introspection.
    Inspected { digest: u64, bundles: usize, scraps: usize, marks: usize },
    /// Commit/compact completed.
    Durable,
}

/// Acknowledgement of a durably committed pad op.
pub type PadAck = Ack<PadOutcome>;

/// Tuning for a [`PadService`] — the one service config.
pub type PadConfig = ServeConfig;

/// A [`PadService`]'s ledger — the one service ledger.
pub type PadServeStats = ServeStats;

// ---------------------------------------------------------------------
// PadMachine: the deterministic core shared by writer and replay
// ---------------------------------------------------------------------

/// Everything the writer thread needs beyond the engine itself, built
/// fresh by the [`PadService`] factory on (re)open: the mark manager
/// (with its live modules), the resilient resolver, and a base-layer
/// excerpt search for repair passes.
pub struct PadParts {
    /// The mark manager, modules registered.
    pub manager: MarkManager,
    /// The resolver the engine should use (typically driven by the same
    /// clock as the service).
    pub resolver: ResilientResolver,
    /// Search the base layer for addresses whose current content equals
    /// the needle exactly — repair-candidate discovery.
    pub search: ExcerptSearch,
}

/// Search the base layer for addresses whose current content equals the
/// needle exactly — the repair pass's candidate discovery.
pub type ExcerptSearch = Box<dyn FnMut(&str) -> Vec<MarkAddress>>;

/// A pre-op state of a [`PadMachine`], taken by its writer before each
/// op.
pub struct PadCheckpoint {
    revision: trim::Revision,
    marks: MarkCheckpoint,
    undo: usize,
    redo: usize,
}

/// The deterministic pad state machine: a [`PadSession`] plus the undo /
/// redo op journals. The live writer drives one under supervision; a
/// differential harness replays acknowledged ops into a fresh one and
/// compares [`PadMachine::digest`].
pub struct PadMachine {
    engine: PadSession,
    search: ExcerptSearch,
    /// `(pre-op checkpoint, the op)` for each applied undoable op.
    undo_ops: Vec<(trim::Revision, PadOp)>,
    /// Ops undone and eligible for redo (cleared by any new mutation).
    redo_ops: Vec<PadOp>,
    /// Selector space for bundle references, kept across ops.
    bundle_order: Canonical<BundleHandle>,
    /// Selector space for scrap references, kept across ops.
    scrap_order: Canonical<ScrapHandle>,
    /// The digest's per-record hashes, which a live writer keeps from
    /// one publish to the next ([`LivePad`]); `None` elsewhere, and
    /// until the first publish.
    records: Option<Records>,
}

impl PadMachine {
    /// Wrap an engine (live or replay) into a machine.
    pub fn new(engine: PadSession, search: ExcerptSearch) -> Self {
        PadMachine {
            engine,
            search,
            undo_ops: Vec::new(),
            redo_ops: Vec::new(),
            bundle_order: Canonical::default(),
            scrap_order: Canonical::default(),
            records: None,
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &PadSession {
        &self.engine
    }

    /// The wrapped engine, mutably. The caller may replace its store,
    /// so the selector memos and the kept record hashes are dropped.
    pub fn engine_mut(&mut self) -> &mut PadSession {
        self.bundle_order = Canonical::default();
        self.scrap_order = Canonical::default();
        self.records = None;
        &mut self.engine
    }

    /// Mark the pre-op state for [`PadMachine::rollback`]. Opens a
    /// mark-manager checkpoint, so only the live writer takes these; a
    /// replay mirror never does and its marks journal records nothing.
    pub(crate) fn checkpoint(&mut self) -> PadCheckpoint {
        PadCheckpoint {
            revision: self.engine.dmi().checkpoint(),
            marks: self.engine.marks_mut().checkpoint(),
            undo: self.undo_ops.len(),
            redo: self.redo_ops.len(),
        }
    }

    /// Return to `checkpoint` after a refused or panicking op: marks
    /// through the mark journal, the undo/redo op journals by
    /// truncation (nothing an op pushed survives its refusal), triples
    /// through the store journal — the one step that can fail.
    pub(crate) fn rollback(&mut self, checkpoint: PadCheckpoint) -> Result<(), PadError> {
        self.engine.marks_mut().rollback_to(checkpoint.marks);
        self.undo_ops.truncate(checkpoint.undo);
        self.redo_ops.truncate(checkpoint.redo);
        self.engine.dmi_mut().rollback(checkpoint.revision)?;
        Ok(())
    }

    /// Live bundles in canonical (creation) order — selector space for
    /// [`PadOp`] bundle references.
    ///
    /// Canonical order is the numeric suffix of the persisted resource
    /// name (`Bundle:N`), *not* atom order: atoms are interned in
    /// creation order live but in serialization order after a snapshot
    /// reload, so atom order would permute selectors and the digest
    /// across compaction and crash recovery. Mint suffixes are
    /// monotonic within an incarnation and resume past the highest
    /// persisted suffix after a reload, so suffix order is creation
    /// order in every incarnation.
    ///
    /// Answered from a memo of the last bundle set, re-sorted only when
    /// the set has changed since.
    pub fn bundles(&mut self) -> &[BundleHandle] {
        let pad = self.engine.dmi().reader();
        self.bundle_order.of(pad.runs(), pad.bundles(), |b| b.resource())
    }

    /// Live scraps in canonical order — selector space for scrap refs.
    /// Memoised like [`PadMachine::bundles`].
    pub fn scraps(&mut self) -> &[ScrapHandle] {
        let pad = self.engine.dmi().reader();
        self.scrap_order.of(pad.runs(), pad.all_scraps(), |s| s.resource())
    }

    /// The selected bundle; `None` (the root bundle) when there is no
    /// selector or no bundle.
    fn bundle_at(&mut self, selector: Option<u64>) -> Option<BundleHandle> {
        pick(self.bundles(), selector?)
    }

    fn scrap_at(&mut self, selector: u64) -> Result<ScrapHandle, PadError> {
        pick(self.scraps(), selector).ok_or_else(no_scraps)
    }

    fn text_address(doc: &str, paragraph: u64, start: u64, len: u64) -> MarkAddress {
        MarkAddress::Text(TextAddress {
            file_name: doc.to_string(),
            target: TextTarget::Span {
                paragraph: paragraph as usize,
                span: Span { start: start as usize, end: (start + len) as usize },
            },
        })
    }

    /// Apply one op. Errors are *typed domain refusals*: the caller
    /// (the supervised writer, or a replay harness) must roll the
    /// engine back to its pre-op checkpoint — [`PadMachine::apply`]
    /// itself performs no rollback so the live and replay paths share
    /// one code path.
    ///
    /// Commit/compact are no-ops *here* — durability belongs to the
    /// batch boundary. If apply persisted mid-batch, an op earlier in a
    /// batch whose group commit later failed would already be durable:
    /// refused by the ack but present on disk, breaking the
    /// refused-means-never-happened contract the differential verdict
    /// checks. The live writer honours these ops after the batch's own
    /// commit; the replay mirror has nothing to do.
    pub fn apply(&mut self, op: &PadOp) -> Result<PadOutcome, PadError> {
        match op {
            PadOp::CreateBundle { name, pos, width, height, parent } => {
                let cp = self.engine.dmi().checkpoint();
                let parent = self.bundle_at(*parent);
                self.engine.create_bundle(name, *pos, *width, *height, parent)?;
                self.record_undo(cp, op.clone());
                Ok(PadOutcome::Applied)
            }
            PadOp::CreateMark { doc, paragraph, start, len, label, pos, bundle } => {
                let cp = self.engine.dmi().checkpoint();
                let bundle = self.bundle_at(*bundle);
                let address = Self::text_address(doc, *paragraph, *start, *len);
                let mark_id = self.engine.marks_mut().create_mark_at(address)?;
                self.engine.place_mark(&mark_id, Some(label), *pos, bundle)?;
                self.record_undo(cp, op.clone());
                Ok(PadOutcome::Applied)
            }
            PadOp::Annotate { scrap, text } => {
                let cp = self.engine.dmi().checkpoint();
                let scrap = self.scrap_at(*scrap)?;
                self.engine.dmi_mut().add_annotation(scrap, text)?;
                self.record_undo(cp, op.clone());
                Ok(PadOutcome::Applied)
            }
            PadOp::Link { from, to } => {
                let cp = self.engine.dmi().checkpoint();
                let scraps = self.scraps();
                let (from, to) =
                    pick(scraps, *from).zip(pick(scraps, *to)).ok_or_else(no_scraps)?;
                self.engine.dmi_mut().link_scraps(from, to)?;
                self.record_undo(cp, op.clone());
                Ok(PadOutcome::Applied)
            }
            PadOp::Resolve { scrap } => {
                let scrap = self.scrap_at(*scrap)?;
                let r = self.engine.activate_resilient(scrap)?;
                Ok(PadOutcome::Resolved {
                    display: r.resolution.display,
                    degraded: r.outcome.degraded,
                    quarantined: r.outcome.quarantined,
                })
            }
            PadOp::Extract { scrap } => {
                let scrap = self.scrap_at(*scrap)?;
                let (content, degraded) = self.engine.extract_degraded(scrap)?;
                Ok(PadOutcome::Extracted { content, degraded })
            }
            PadOp::Rebind { scrap, doc, paragraph, start, len } => {
                let cp = self.engine.dmi().checkpoint();
                let scrap = self.scrap_at(*scrap)?;
                let mark_id = self.first_mark_id(scrap)?;
                let address = Self::text_address(doc, *paragraph, *start, *len);
                self.engine.marks_mut().rebind(&mark_id, address)?;
                self.record_undo(cp, op.clone());
                Ok(PadOutcome::Applied)
            }
            PadOp::Repair => {
                let quarantined = self.engine.resolver().quarantined_marks();
                let mut rebound = 0usize;
                for id in quarantined {
                    let excerpt = self.engine.marks().get(&id)?.excerpt.clone();
                    let candidates = if excerpt.is_empty() {
                        Vec::new()
                    } else {
                        (self.search)(&excerpt)
                    };
                    let (resolver, marks) = self.engine.resolver_parts();
                    if let marks::RebindOutcome::Rebound { .. } =
                        resolver.try_rebind(marks, &id, &candidates)?
                    {
                        rebound += 1;
                    }
                }
                let still = self.engine.resolver().quarantined_marks().len();
                Ok(PadOutcome::Repaired { rebound, still_quarantined: still })
            }
            PadOp::Undo => {
                let (cp, undone) = self
                    .undo_ops
                    .pop()
                    .ok_or_else(|| PadError::File { message: "nothing to undo".into() })?;
                if let Err(e) = self.engine.dmi_mut().rollback(cp) {
                    // The journal no longer reaches the checkpoint. Only a
                    // load or a log attach truncates it, and both start a
                    // machine with no undo entries, so this is defensive:
                    // put the entry back and refuse; nothing changed.
                    self.undo_ops.push((cp, undone));
                    return Err(e.into());
                }
                self.redo_ops.push(undone);
                Ok(PadOutcome::Stepped(true))
            }
            PadOp::Redo => {
                let op = self
                    .redo_ops
                    .last()
                    .cloned()
                    .ok_or_else(|| PadError::File { message: "nothing to redo".into() })?;
                // Re-apply through the same code path; only pop the redo
                // entry once the re-application actually succeeded.
                self.apply(&op)?;
                self.redo_ops.pop();
                Ok(PadOutcome::Stepped(true))
            }
            // A service answers this from its published view; a replay
            // mirror answers it here, by the same function.
            PadOp::Inspect => {
                let marks = self.engine.marks();
                let tally = Records::walk(&self.engine.dmi().reader()).tally();
                Ok(inspected(tally, marks.len(), marks.digest()))
            }
            // Durability hints: the live writer commits every batch and
            // compacts after the batch's commit; in apply (and so in a
            // replay mirror) they change nothing.
            PadOp::Commit | PadOp::Compact => Ok(PadOutcome::Durable),
            PadOp::ChaosPanic { detail } => {
                std::panic::panic_any(detail.clone());
            }
            // Parking is the writer's own affair; in a replay it is a
            // pure no-op.
            PadOp::ChaosPark(_) => Ok(PadOutcome::Applied),
        }
    }

    fn record_undo(&mut self, cp: trim::Revision, op: PadOp) {
        self.undo_ops.push((cp, op));
        self.redo_ops.clear();
    }

    fn first_mark_id(&self, scrap: ScrapHandle) -> Result<String, PadError> {
        let data = self.engine.dmi().scrap(scrap)?;
        let first = data
            .marks
            .first()
            .ok_or_else(|| PadError::File { message: "scrap has no mark handle".into() })?;
        Ok(self.engine.dmi().mark_handle(*first)?.mark_id)
    }

    /// The pad's *logical* digest (`pad-digest-v3`, see
    /// [`crate::digest`]), computed from scratch: a hash per bundle and
    /// scrap record, summed, plus the mark count and
    /// [`MarkManager::digest`] (mark identities, kinds and addresses),
    /// which the manager keeps as marks change. Replay mirrors, reopened
    /// pads and [`PadOp::Inspect`] report it; a live writer keeps the
    /// same value current in its [`PadView`]s instead.
    ///
    /// Deliberately excluded, because they legitimately diverge between
    /// a live faulted run and a clean replay of its acked ops: minted
    /// resource ids (refused ops intern atoms that rollback cannot
    /// un-intern) and mark excerpts (captured through a possibly-flaky
    /// module at creation time).
    pub fn digest(&self) -> u64 {
        let marks = self.engine.marks();
        let tally = Records::walk(&self.engine.dmi().reader()).tally();
        tally.digest(marks.len(), marks.digest())
    }

    /// A [`PadView`] of the pad as it stands: a snapshot of the triples
    /// (O(delta)), the two mark scalars, and the record tally — the
    /// kept one if this machine keeps its record hashes, else a walk.
    pub(crate) fn view(&mut self) -> PadView {
        let tally = match &self.records {
            Some(records) => records.tally(),
            None => Records::walk(&self.engine.dmi().reader()).tally(),
        };
        let snapshot = self.engine.dmi_mut().snapshot();
        let marks = self.engine.marks();
        PadView { snapshot, marks_len: marks.len(), marks_digest: marks.digest(), tally }
    }

    /// Start keeping the record hashes, from a walk, unless they are
    /// kept already.
    fn keep_records(&mut self) {
        if self.records.is_none() {
            self.records = Some(Records::walk(&self.engine.dmi().reader()));
        }
    }

    /// Bring the kept record hashes current with the store. They were
    /// current at the last durability boundary, so the journal's net
    /// change since then ([`trim::Journal::durable_delta`], compensation
    /// prefix included) names every subject that changed. Call it before
    /// the commit that moves the boundary.
    fn fold_durable_delta(&mut self, skip_bundle_holders: bool) {
        let Some(records) = self.records.as_mut() else {
            return;
        };
        let pad = self.engine.dmi().reader();
        let changed = pad.runs().journal().durable_delta().map(|c| c.triple().subject);
        records.update(&pad, changed, skip_bundle_holders);
    }
}

/// The `selector`-th of `pool`, modulo its length; `None` when empty.
fn pick<H: Copy>(pool: &[H], selector: u64) -> Option<H> {
    let len = pool.len() as u64;
    (len > 0).then(|| pool[(selector % len) as usize])
}

fn no_scraps() -> PadError {
    PadError::File { message: "no scraps on the pad".into() }
}

/// One instance set's canonical order, kept until the set changes.
/// Within one store canonical order is a pure function of the set —
/// atoms are never un-interned, so a handle's name never changes — and
/// comparing the set costs far less than re-sorting it, which resolves
/// and parses every instance's name.
struct Canonical<H> {
    /// The set last seen, in atom order as the reader returns it.
    set: Vec<H>,
    /// `set` in canonical order.
    order: Vec<H>,
}

impl<H> Default for Canonical<H> {
    fn default() -> Self {
        Canonical { set: Vec::new(), order: Vec::new() }
    }
}

impl<H: Copy + PartialEq> Canonical<H> {
    /// `set` in canonical order, re-sorted only if it differs from the
    /// set last seen.
    fn of<R: Runs + ?Sized>(
        &mut self,
        runs: &R,
        set: Vec<H>,
        resource: fn(&H) -> trim::Atom,
    ) -> &[H] {
        if set != self.set {
            self.order = canonical(runs, set.clone(), resource);
            self.set = set;
        }
        &self.order
    }
}

/// `pool` in canonical (creation) order: by the numeric `name:N`
/// suffix of each handle's resource (see [`PadMachine::bundles`]). The
/// keys are computed once per element, and the sort is stable.
fn canonical<R: Runs + ?Sized, H>(
    runs: &R,
    mut pool: Vec<H>,
    resource: fn(&H) -> trim::Atom,
) -> Vec<H> {
    pool.sort_by_cached_key(|h| mint_rank(runs, resource(h)));
    pool
}

/// The creation-order sort key for a minted resource: its numeric
/// `name:N` suffix, with nameless oddities ranked last by raw atom.
fn mint_rank<R: Runs + ?Sized>(runs: &R, resource: trim::Atom) -> (u64, u64) {
    let name = runs.resolve(resource);
    match name.rsplit_once(':').and_then(|(_, n)| n.parse::<u64>().ok()) {
        Some(n) => (n, 0),
        None => (u64::MAX, resource.index() as u64),
    }
}

/// [`PadOp::Inspect`]'s answer from a record tally and the two mark
/// scalars; the invisible root bundle is not counted.
fn inspected(tally: Tally, marks_len: usize, marks_digest: u64) -> PadOutcome {
    PadOutcome::Inspected {
        digest: tally.digest(marks_len, marks_digest),
        bundles: tally.bundles().saturating_sub(1),
        scraps: tally.scraps(),
        marks: marks_len,
    }
}

/// What pad readers see: the pad's triples as of the last durable
/// batch, as a [`trim::Snapshot`], plus the scalars the digest is made
/// of — the two mark scalars and the record counts and sums, which the
/// writer keeps current. Publishing one copies the store's delta and
/// a few counters; nothing walks the pad.
#[derive(Debug, Clone)]
pub struct PadView {
    snapshot: Snapshot,
    marks_len: usize,
    marks_digest: u64,
    tally: Tally,
}

impl PadView {
    /// The Bundle-Scrap reads over this view's triples — the same code
    /// the live DMI reads through.
    pub fn reader(&self) -> PadReader<'_, Snapshot> {
        PadReader::new(&self.snapshot)
    }

    /// The pad's logical digest as of this view: the value
    /// [`PadMachine::digest`] computes from scratch, read from the
    /// view's scalars.
    pub fn digest(&self) -> u64 {
        self.tally.digest(self.marks_len, self.marks_digest)
    }

    /// [`PadOp::Inspect`]'s answer as of this view — what
    /// [`PadMachine::apply`] would answer on the pad it was published
    /// from — read from the view's scalars.
    pub fn inspect(&self) -> PadOutcome {
        inspected(self.tally, self.marks_len, self.marks_digest)
    }
}

// ---------------------------------------------------------------------
// The live machine and the service
// ---------------------------------------------------------------------

/// The factory the writer calls to (re)build its mark layer: once at
/// startup and again after a failed commit forces a reopen from disk.
/// Runs on the writer thread, so the parts it returns may be `!Send`.
pub type PadPartsFactory = Box<dyn FnMut() -> Result<PadParts, PadError> + Send>;

/// The pad-level [`Machine`]: a [`PadMachine`] over a logged pad file,
/// plus what it takes to reopen that file.
pub struct LivePad {
    machine: PadMachine,
    vfs: Arc<dyn Vfs + Send + Sync>,
    path: PathBuf,
    factory: PadPartsFactory,
    compact_threshold: u64,
    /// An applied [`PadOp::Compact`] asks the batch's commit to compact.
    compact_requested: bool,
    /// A seeded bug for mutation testing: the digest upkeep leaves the
    /// bundles holding a changed record stale. Only
    /// [`PadService::testonly_open_skipping_bundle_holders`] sets it.
    skip_bundle_holders: bool,
}

/// Build (or reopen) the machine from disk. A missing file means a
/// brand-new pad: create, register the factory's mark layer, enable
/// logging.
fn build_machine(
    vfs: &Arc<dyn Vfs + Send + Sync>,
    path: &Path,
    factory: &mut PadPartsFactory,
    compact_threshold: u64,
) -> Result<PadMachine, PadError> {
    let parts = factory()?;
    let mut engine = if vfs.exists(path) {
        let (engine, _report) = PadSession::open_logged(&**vfs, path, parts.manager)?;
        engine
    } else {
        let mut engine = PadSession::new("service-pad")?;
        *engine.marks_mut() = parts.manager;
        engine.enable_logging(&**vfs, path)?;
        engine
    };
    engine.set_compact_threshold(compact_threshold);
    engine.set_resolver(parts.resolver);
    Ok(PadMachine::new(engine, parts.search))
}

impl Machine for LivePad {
    type Op = PadOp;
    type Outcome = PadOutcome;
    type View = PadView;
    type Checkpoint = PadCheckpoint;

    fn checkpoint(&mut self) -> PadCheckpoint {
        self.machine.checkpoint()
    }

    fn apply(&mut self, op: &PadOp, ledger: &Ledger) -> Result<PadOutcome, ServeError> {
        match op {
            // Parking is the writer's own affair; the machine treats it
            // as a no-op.
            PadOp::ChaosPark(gate) => gate.pass(),
            PadOp::Compact => self.compact_requested = true,
            _ => {}
        }
        let outcome = self.machine.apply(op)?;
        match &outcome {
            PadOutcome::Resolved { degraded: true, .. } => {
                ledger.count(|s| s.degraded_resolutions += 1)
            }
            PadOutcome::Repaired { rebound, .. } => ledger.count(|s| s.repairs += *rebound as u64),
            _ => {}
        }
        Ok(outcome)
    }

    fn rollback(&mut self, checkpoint: PadCheckpoint) -> Result<(), String> {
        self.machine.rollback(checkpoint).map_err(|e| e.to_string())
    }

    /// One frame for the whole batch: store delta plus mark records,
    /// one sync. Compaction — asked for by an applied [`PadOp::Compact`]
    /// or due past the threshold — runs only after that commit, never
    /// mid-batch, so a failed commit refuses a batch none of whose
    /// effects are on disk. A failed compaction refuses nothing — the
    /// log just stays long — but it is counted.
    ///
    /// The kept digest records take in the batch's net change first,
    /// while the journal still holds it; a failed commit repairs, and
    /// the rebuilt machine walks afresh.
    fn commit(&mut self, ledger: &Ledger) -> Result<Durable, String> {
        self.machine.fold_durable_delta(self.skip_bundle_holders);
        let vfs = &*self.vfs;
        // Committing and compacting keep the store, so the selector
        // memos and the record hashes stay valid: reach the engine past
        // `engine_mut`.
        let engine = &mut self.machine.engine;
        let (seq, compacted) = match engine.commit(vfs).map_err(|e| e.to_string())? {
            PadCommit::Logged(trim::CommitOutcome::Committed { seq, .. }) => (Some(seq), false),
            PadCommit::Logged(trim::CommitOutcome::Clean) => (None, false),
            PadCommit::Compacted => (None, true),
        };
        let due = std::mem::take(&mut self.compact_requested) || engine.should_compact();
        let compacted = compacted
            || due && ledger.ok_or_count(engine.compact(vfs), |s| s.compaction_failures += 1);
        Ok(Durable { seq, compacted })
    }

    /// Truncate the suspect log tail first — a torn append can land the
    /// doomed frame fully readable, and both the reopen below and any
    /// future cold start would adopt the refused batch as committed
    /// history. Best effort: if the truncation fails, it is counted and
    /// the reopen still runs against whatever is durable.
    fn repair(&mut self, ledger: &Ledger) -> Result<(), String> {
        let truncated = self.machine.engine.repair_log(&*self.vfs);
        ledger.ok_or_count(truncated, |s| s.repair_failures += 1);
        self.machine =
            build_machine(&self.vfs, &self.path, &mut self.factory, self.compact_threshold)
                .map_err(|e| e.to_string())?;
        self.compact_requested = false;
        Ok(())
    }

    /// A snapshot of the triples and the digest's scalars: O(delta),
    /// never a walk of the pad — except the first publish of a built or
    /// rebuilt machine, which walks once to start keeping the record
    /// hashes.
    fn publish(&mut self) -> PadView {
        self.machine.keep_records();
        self.machine.view()
    }

    fn rebased(old: &PadView, new: &PadView) -> bool {
        !new.snapshot.shares_base(&old.snapshot)
    }

    /// Inspect is answered from the view; every other op needs the
    /// writer (Extract and Resolve need its `!Send` base applications
    /// and live mark manager).
    fn read(op: &PadOp) -> Option<Read<Self>> {
        match op {
            PadOp::Inspect => Some(PadView::inspect),
            _ => None,
        }
    }
}

/// A supervised, concurrent, crash-recoverable pad session service.
pub type PadService = Supervisor<LivePad>;

/// One session's capability to submit pad ops.
pub type PadSessionHandle = Session<LivePad>;

impl PadService {
    /// Open (or create) the logged pad at `path` on `vfs` and start the
    /// writer thread. `factory` builds the mark manager, resolver, and
    /// repair search — it is called on the writer thread at startup and
    /// again if a commit failure forces a reopen from disk.
    pub fn open(
        vfs: Arc<dyn Vfs + Send + Sync>,
        path: &Path,
        config: PadConfig,
        clock: Arc<dyn Clock + Send + Sync>,
        factory: PadPartsFactory,
    ) -> Result<PadService, ServeError> {
        Self::open_with(vfs, path, config, clock, factory, false)
    }

    /// [`PadService::open`] with a seeded bug: the writer's digest
    /// upkeep forgets to re-hash the bundles holding a changed record.
    /// Exists solely so mutation-testing harnesses (slimcheck
    /// `--mutate`) can prove they detect it; never call this from
    /// production code.
    #[doc(hidden)]
    pub fn testonly_open_skipping_bundle_holders(
        vfs: Arc<dyn Vfs + Send + Sync>,
        path: &Path,
        config: PadConfig,
        clock: Arc<dyn Clock + Send + Sync>,
        factory: PadPartsFactory,
    ) -> Result<PadService, ServeError> {
        Self::open_with(vfs, path, config, clock, factory, true)
    }

    fn open_with(
        vfs: Arc<dyn Vfs + Send + Sync>,
        path: &Path,
        config: PadConfig,
        clock: Arc<dyn Clock + Send + Sync>,
        mut factory: PadPartsFactory,
        skip_bundle_holders: bool,
    ) -> Result<PadService, ServeError> {
        let path = path.to_path_buf();
        let (service, ()) = Supervisor::start(config, clock, move |config| {
            let compact_threshold = config.compact_threshold;
            let machine = build_machine(&vfs, &path, &mut factory, compact_threshold)
                .map_err(|e| ServeError::Io { detail: e.to_string() })?;
            let pad = LivePad {
                machine,
                vfs,
                path,
                factory,
                compact_threshold,
                compact_requested: false,
                skip_bundle_holders,
            };
            Ok((pad, ()))
        })?;
        Ok(service)
    }

    /// The logical digest of the most recently published view, which
    /// the writer kept current at publish: reading it walks nothing and
    /// never blocks on the writer.
    pub fn digest(&self) -> u64 {
        self.view().digest()
    }
}

impl PadSessionHandle {
    /// The logical digest of the most recently published view, read
    /// from its scalars.
    pub fn digest(&self) -> u64 {
        self.view().digest()
    }
}

// ---------------------------------------------------------------------
// A ready-made text-document universe for harnesses and tests
// ---------------------------------------------------------------------

/// Number of text documents [`ward_factory`] opens.
pub const WARD_DOCS: usize = 4;
/// Paragraphs per ward document.
pub const WARD_PARAGRAPHS: usize = 5;

/// Name of the `i`-th ward document.
pub fn ward_doc(i: u64) -> String {
    format!("ward-{}.txt", i % WARD_DOCS as u64)
}

/// A deterministic [`PadPartsFactory`] over a small universe of text
/// documents, with every text resolution routed through a
/// [`marks::FlakyModule`] governed by `control` — the shared-state
/// injection point the chaos soak and the concurrency tests arm and
/// disarm from outside the writer thread.
///
/// `clock` drives both the fault injector's latency faults and the
/// resolver's deadlines, so a harness holding the same clock can stall
/// or starve resolution deterministically.
pub fn ward_factory(
    clock: marks::MockClock,
    profile: marks::FaultProfile,
    control: marks::FlakyControl,
    policy: marks::RetryPolicy,
    breaker: BreakerConfig,
    dangle_threshold: u32,
) -> PadPartsFactory {
    Box::new(move || {
        let mut app = basedocs::TextApp::new();
        for d in 0..WARD_DOCS {
            let mut text = String::new();
            for p in 0..WARD_PARAGRAPHS {
                text.push_str(&format!(
                    "Ward {d} paragraph {p}: patient vitals stable, plan continues as charted.",
                ));
                text.push_str("\n\n");
            }
            app.open(basedocs::textdoc::TextDocument::from_text(ward_doc(d as u64), &text))
                .map_err(|e| PadError::File { message: e.to_string() })?;
        }
        let app = std::rc::Rc::new(std::cell::RefCell::new(app));
        let module = marks::AppModule::in_place("text-ward", std::rc::Rc::clone(&app));
        let flaky = marks::FlakyModule::with_control(
            Box::new(module),
            profile,
            clock.clone(),
            control.clone(),
        );
        let mut manager = MarkManager::new();
        manager.register_module(Box::new(flaky))?;
        manager.set_default_module(DocKind::Text, "text-ward")?;
        let resolver = ResilientResolver::with_config(
            std::rc::Rc::new(clock.clone()),
            policy.clone(),
            breaker.clone(),
            dangle_threshold,
        );
        let search_app = app;
        let search = Box::new(move |needle: &str| {
            search_app
                .borrow()
                .find_all(needle)
                .into_iter()
                .map(MarkAddress::Text)
                .collect::<Vec<_>>()
        });
        Ok(PadParts { manager, resolver, search })
    })
}

/// The ward universe with healthy modules and a mock-clock resolver.
fn ward_parts() -> PadParts {
    let mut factory = ward_factory(
        marks::MockClock::new(),
        marks::FaultProfile::healthy(),
        marks::FlakyControl::new(0),
        marks::RetryPolicy::default(),
        BreakerConfig::default(),
        3,
    );
    factory().expect("ward universe construction is infallible")
}

/// A replay mirror over the same ward universe: a fresh unlogged
/// [`PadMachine`] (clean modules, mock-clock resolver) ready to replay
/// acknowledged [`PadOp`]s in order. Commit/compact replay as no-ops.
pub fn ward_mirror() -> PadMachine {
    let parts = ward_parts();
    let mut engine = PadSession::new("service-pad").expect("fresh pad");
    *engine.marks_mut() = parts.manager;
    engine.set_resolver(parts.resolver);
    PadMachine::new(engine, parts.search)
}

/// Reopen the durable pad at `path` — snapshot, WAL and mark records —
/// into a fresh machine over the ward universe: the from-disk leg of the
/// differential verdicts.
pub fn ward_reopen(vfs: &dyn Vfs, path: &Path) -> Result<PadMachine, PadError> {
    let parts = ward_parts();
    let (engine, _report) = PadSession::open_logged(vfs, path, parts.manager)?;
    Ok(PadMachine::new(engine, parts.search))
}

#[cfg(test)]
mod tests {
    use super::*;
    use marks::resilience::MockClock;
    use marks::{FaultProfile, FlakyControl, RetryPolicy};
    use slimio::{FaultConfig, FaultMode, FaultOp, FaultVfs, MemVfs};

    const PAD: &str = "serve/pad.xml";

    fn small_breaker() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 2,
            cooldown_ms: 500,
            probe_budget: 3,
            probe_successes: 1,
        }
    }

    fn quick_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 2,
            base_backoff_ms: 1,
            max_backoff_ms: 4,
            deadline_ms: 200,
            jitter_seed: 7,
        }
    }

    struct Rig {
        service: PadService,
        vfs: Arc<MemVfs>,
        clock: Arc<MockClock>,
        control: FlakyControl,
    }

    fn open_rig(profile: FaultProfile, config: PadConfig) -> Rig {
        let vfs = Arc::new(MemVfs::new());
        let clock = Arc::new(MockClock::new());
        let control = FlakyControl::new(7);
        control.disarm();
        let factory = ward_factory(
            (*clock).clone(),
            profile,
            control.clone(),
            quick_policy(),
            small_breaker(),
            2,
        );
        let service = PadService::open(
            vfs.clone(),
            Path::new(PAD),
            config,
            clock.clone(),
            factory,
        )
        .unwrap();
        Rig { service, vfs, clock, control }
    }

    fn create_mark_op(i: u64) -> PadOp {
        PadOp::CreateMark {
            doc: ward_doc(i),
            paragraph: i % WARD_PARAGRAPHS as u64,
            start: 0,
            len: 6,
            label: format!("scrap {i}"),
            pos: (10 * i as i64, 20),
            bundle: None,
        }
    }

    /// The record tally a walk over `view`'s own snapshot computes: what
    /// the writer's kept tally must equal.
    fn walked(view: &PadView) -> Tally {
        Records::walk(&view.reader()).tally()
    }

    /// Replay acked ops into a fresh mirror and return its digest.
    fn replay_digest(acked: &[(u64, PadOp)]) -> u64 {
        let mut ordered: Vec<&(u64, PadOp)> = acked.iter().collect();
        ordered.sort_by_key(|(order, _)| *order);
        let mut mirror = ward_mirror();
        for (_, op) in ordered {
            mirror.apply(op).expect("acked ops replay cleanly");
        }
        mirror.digest()
    }

    #[test]
    fn pad_ops_apply_ack_and_replay_to_the_same_digest() {
        let rig = open_rig(FaultProfile::healthy(), PadConfig::default());
        let session = rig.service.session();
        let mut acked = Vec::new();
        let script = vec![
            PadOp::CreateBundle {
                name: "meds".into(),
                pos: (5, 5),
                width: 300,
                height: 200,
                parent: None,
            },
            create_mark_op(0),
            create_mark_op(1),
            PadOp::Annotate { scrap: 0, text: "check dosage".into() },
            PadOp::Link { from: 0, to: 1 },
            PadOp::Undo,
            PadOp::Redo,
            PadOp::Commit,
        ];
        for op in script {
            let ack = session.submit(op.clone()).unwrap();
            // Undo batches can commit clean (the journal rewinds the
            // delta to exactly the last durable state).
            assert!(
                ack.durable_seq.is_some()
                    || matches!(op, PadOp::Commit | PadOp::Inspect | PadOp::Undo)
            );
            acked.push((ack.order, op));
        }
        let live = rig.service.digest();
        assert_eq!(live, replay_digest(&acked), "live == serialized replay of acked ops");

        // On-disk state: shut down, reopen a fresh machine from disk.
        drop(rig.service);
        let reopened = ward_reopen(&*rig.vfs, Path::new(PAD)).unwrap();
        assert_eq!(live, reopened.digest(), "live == post-shutdown on-disk digest");
    }

    #[test]
    fn views_digest_like_the_writer_after_every_op_kind() {
        let rig = open_rig(FaultProfile::healthy(), PadConfig::default());
        let session = rig.service.session();
        let bundle = PadOp::CreateBundle {
            name: "meds".into(),
            pos: (5, 5),
            width: 300,
            height: 200,
            parent: None,
        };
        let nested = PadOp::CreateBundle {
            name: "labs".into(),
            pos: (9, 9),
            width: 90,
            height: 60,
            parent: Some(0),
        };
        let rebind = PadOp::Rebind { scrap: 1, doc: ward_doc(2), paragraph: 1, start: 2, len: 7 };
        let mut acked = Vec::new();
        let mut undos = Vec::new();
        for op in [
            bundle,
            nested,
            create_mark_op(0),
            create_mark_op(1),
            create_mark_op(2),
            PadOp::Annotate { scrap: 0, text: "check dosage".into() },
            PadOp::Link { from: 0, to: 1 },
            PadOp::Link { from: 2, to: 2 }, // refused and rolled back
            PadOp::ChaosPanic { detail: "contained".into() },
            PadOp::Resolve { scrap: 1 },
            PadOp::Extract { scrap: 2 },
            rebind,
            PadOp::Repair,
            PadOp::Commit,
            PadOp::Undo, // across the commit before it
            PadOp::Redo,
            PadOp::Annotate { scrap: 2, text: "recheck".into() },
            PadOp::Compact,
            PadOp::Undo, // takes back the annotation, compacted or not
            PadOp::Inspect,
        ] {
            match session.submit(op.clone()) {
                Ok(ack) => {
                    if op == PadOp::Undo {
                        undos.push((ack.order, ack.outcome));
                    }
                    acked.push((ack.order, op.clone()));
                }
                Err(e) => assert!(op != PadOp::Undo, "{op:?} refused: {e}"),
            }
            // The snapshot-side digest against a live-store machine's:
            // a mirror that replayed the acked prefix.
            let view = rig.service.view();
            assert_eq!(view.digest(), replay_digest(&acked), "view vs live store after {op:?}");
            assert_eq!(view.tally, walked(&view), "kept vs walked tally after {op:?}");
        }
        let live = rig.service.digest();
        assert_eq!(live, replay_digest(&acked), "view == serialized replay of acked ops");
        // Each acked Undo answered what the mirror answers at its position.
        assert_eq!(undos.len(), 2);
        let mut mirror = ward_mirror();
        acked.sort_by_key(|(order, _)| *order);
        for (order, op) in &acked {
            let outcome = mirror.apply(op).expect("acked ops replay cleanly");
            if let Some((_, live)) = undos.iter().find(|(o, _)| o == order) {
                assert_eq!(&outcome, live, "Undo at {order}");
            }
        }

        drop(rig.service);
        let mut reopened = ward_reopen(&*rig.vfs, Path::new(PAD)).unwrap();
        assert_eq!(reopened.digest(), live, "reopened machine == last view");
        assert_eq!(reopened.view().digest(), live, "reopened view == last view");
    }

    #[test]
    fn the_digest_value_is_pinned() {
        // `pad-digest-v3`: a fixed script of every mutation kind must
        // keep this exact value, on the live machine and on a view of it.
        let mut machine = ward_mirror();
        for op in [
            PadOp::CreateBundle {
                name: "meds".into(),
                pos: (5, -5),
                width: 300,
                height: 200,
                parent: None,
            },
            PadOp::CreateBundle {
                name: "labs".into(),
                pos: (9, 9),
                width: 90,
                height: 60,
                parent: Some(0),
            },
            create_mark_op(0),
            create_mark_op(1),
            PadOp::CreateMark {
                doc: ward_doc(2),
                paragraph: 3,
                start: 1,
                len: 9,
                label: "k".into(),
                pos: (1, 2),
                bundle: Some(1),
            },
            PadOp::Annotate { scrap: 0, text: "check dosage".into() },
            PadOp::Annotate { scrap: 0, text: "a second note".into() },
            PadOp::Link { from: 0, to: 1 },
            PadOp::Link { from: 2, to: 0 },
            PadOp::Rebind { scrap: 1, doc: ward_doc(3), paragraph: 2, start: 1, len: 5 },
            PadOp::Annotate { scrap: 2, text: "undone".into() },
            PadOp::Undo,
        ] {
            machine.apply(&op).unwrap();
        }
        assert_eq!(machine.digest(), 0xc596_1fa5_5808_6941);
        assert_eq!(machine.view().digest(), 0xc596_1fa5_5808_6941);
    }

    #[test]
    fn an_early_view_keeps_its_digest_across_later_batches_and_folds() {
        let config = PadConfig { queue_capacity: 1_024, ..PadConfig::default() };
        let rig = open_rig(FaultProfile::healthy(), config);
        let session = rig.service.session();
        session.submit(create_mark_op(0)).unwrap();
        let early = rig.service.view();
        let digest = early.digest();
        let rebuilds = rig.service.stats().snapshot_rebuilds;
        // Each bundle adds six triples: enough of them to fold the
        // store's delta into a new base at least once.
        let tickets: Vec<_> = (0..trim::TripleStore::FOLD_LIMIT as i64 / 6 + 8)
            .map(|i| {
                let op = PadOp::CreateBundle {
                    name: format!("bundle {i}"),
                    pos: (i, i),
                    width: 5,
                    height: 5,
                    parent: None,
                };
                session.enqueue(op).unwrap()
            })
            .collect();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        session.submit(PadOp::Compact).unwrap();
        assert!(rig.service.stats().snapshot_rebuilds > rebuilds, "a fold publishes a new base");
        assert_ne!(rig.service.digest(), digest);
        assert_eq!(early.digest(), digest, "an old view still reads its own base");
        assert_eq!(early.tally, walked(&early), "its kept tally is its own snapshot's");
        assert_eq!(early.reader().all_scraps().len(), 1);
        let late = rig.service.view();
        assert_eq!(late.tally, walked(&late));
    }

    #[test]
    fn engine_refusals_are_typed_rolled_back_and_never_acked() {
        let rig = open_rig(FaultProfile::healthy(), PadConfig::default());
        let session = rig.service.session();
        // No scraps yet: selector ops refuse with a typed engine error.
        let err = session.submit(PadOp::Annotate { scrap: 0, text: "x".into() }).unwrap_err();
        assert!(matches!(err, ServeError::Engine { .. }), "{err:?}");
        let err = session.submit(PadOp::Undo).unwrap_err();
        assert!(matches!(err, ServeError::Engine { .. }), "{err:?}");
        let before = rig.service.digest();
        // A self-link is refused by the engine mid-apply and rolled back.
        session.submit(create_mark_op(0)).unwrap();
        let after_mark = rig.service.digest();
        assert_ne!(before, after_mark);
        let err = session.submit(PadOp::Link { from: 0, to: 0 }).unwrap_err();
        assert!(matches!(err, ServeError::Engine { .. }), "{err:?}");
        assert_eq!(rig.service.digest(), after_mark, "refused op left no trace");
        let stats = rig.service.stats();
        assert_eq!(stats.engine_refusals, 3);
        assert_eq!(stats.unaccounted(), 0);
    }

    #[test]
    fn panics_are_contained_and_the_pad_survives() {
        let rig = open_rig(FaultProfile::healthy(), PadConfig::default());
        let session = rig.service.session();
        session.submit(create_mark_op(0)).unwrap();
        let digest = rig.service.digest();
        let err =
            session.submit(PadOp::ChaosPanic { detail: "injected".into() }).unwrap_err();
        assert_eq!(err, ServeError::Panicked { detail: "injected".into() });
        assert_eq!(rig.service.digest(), digest);
        session.submit(create_mark_op(1)).unwrap();
        assert_ne!(rig.service.digest(), digest, "writer still serving after the panic");
    }

    #[test]
    fn rollback_undoes_marks_triples_and_op_journals() {
        let mut machine = ward_mirror();
        machine.apply(&create_mark_op(0)).unwrap();
        let digest = machine.digest();
        let marks = machine.engine().marks().to_xml();
        let checkpoint = machine.checkpoint();
        machine.apply(&create_mark_op(1)).unwrap();
        let rebind = PadOp::Rebind { scrap: 0, doc: ward_doc(3), paragraph: 2, start: 1, len: 5 };
        machine.apply(&rebind).unwrap();
        machine.apply(&PadOp::Annotate { scrap: 1, text: "gone".into() }).unwrap();
        machine.rollback(checkpoint).unwrap();
        assert_eq!(machine.digest(), digest);
        assert_eq!(machine.engine().marks().to_xml(), marks, "marks restored byte for byte");
        // The undo journal is back to one entry: the first scrap's.
        machine.apply(&PadOp::Undo).unwrap();
        assert!(machine.scraps().is_empty());
        assert!(machine.apply(&PadOp::Undo).is_err());
    }

    #[test]
    fn degraded_resolution_under_concurrency_never_hangs_or_panics() {
        // The satellite: FlakyModule armed *inside* the service, many
        // concurrent readers — every resolve comes back typed, some
        // degraded, none hung, none panicked.
        let rig = open_rig(FaultProfile::always_transient(), PadConfig::default());
        let service = Arc::new(rig.service);
        let session = service.session();
        for i in 0..6 {
            session.submit(create_mark_op(i)).unwrap();
        }
        rig.control.arm(); // faults on: every text resolve now fails
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let session = service.session();
            handles.push(std::thread::spawn(move || {
                let mut degraded = 0usize;
                for i in 0..8u64 {
                    match session.submit(PadOp::Resolve { scrap: (t * 8 + i) % 6 }) {
                        Ok(PadAck { outcome: PadOutcome::Resolved { degraded: d, display, .. }, .. }) => {
                            if d {
                                degraded += 1;
                                assert!(
                                    display.starts_with("Ward"),
                                    "degraded display is the stored excerpt, got {display:?}"
                                );
                            }
                        }
                        Ok(other) => panic!("unexpected outcome {other:?}"),
                        Err(e) => panic!("resolve must degrade, not refuse: {e:?}"),
                    }
                }
                degraded
            }));
        }
        let degraded: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(degraded, 32, "every armed resolve degrades to the excerpt");
        rig.control.disarm();
        // The storm tripped the resolver's per-module breaker; step past
        // its cooldown so the disarmed module gets a live probe.
        rig.clock.advance(1_000);
        let ack = session.submit(PadOp::Resolve { scrap: 0 }).unwrap();
        assert!(
            matches!(ack.outcome, PadOutcome::Resolved { degraded: false, .. }),
            "disarmed module resolves live again: {:?}",
            ack.outcome
        );
        let stats = service.stats();
        assert_eq!(stats.degraded_resolutions, 32);
        assert_eq!(stats.unaccounted(), 0);
    }

    #[test]
    fn breaker_ledger_balances_across_a_crash_incarnation() {
        // Run an incarnation with faults and panics, abort (crash), and
        // reopen; merged stats stay balanced and the recovered pad
        // equals the replay of all acked ops across both incarnations.
        let rig = open_rig(FaultProfile::always_transient(), PadConfig::default());
        let session = rig.service.session();
        let mut acked = Vec::new();
        for i in 0..4 {
            let op = create_mark_op(i);
            let ack = session.submit(op.clone()).unwrap();
            acked.push((ack.order, op));
        }
        rig.control.arm();
        for i in 0..3u64 {
            let op = PadOp::Resolve { scrap: i };
            let ack = session.submit(op.clone()).unwrap();
            assert!(matches!(
                ack.outcome,
                PadOutcome::Resolved { degraded: true, .. }
            ));
            acked.push((ack.order, op));
        }
        let _ = session.submit(PadOp::ChaosPanic { detail: "boom".into() }).unwrap_err();
        let mut merged = rig.service.abort();

        // Second incarnation on the surviving bytes.
        let clock = Arc::new(MockClock::new());
        let control = FlakyControl::new(7);
        control.disarm();
        let factory = ward_factory(
            (*clock).clone(),
            FaultProfile::always_transient(),
            control,
            quick_policy(),
            small_breaker(),
            2,
        );
        let service = PadService::open(
            rig.vfs.clone(),
            Path::new(PAD),
            PadConfig::default(),
            clock,
            factory,
        )
        .unwrap();
        let session = service.session();
        for i in 4..6 {
            let op = create_mark_op(i);
            let ack = session.submit(op.clone()).unwrap();
            // Orders restart per incarnation; offset for replay sorting.
            acked.push((1_000 + ack.order, op));
        }
        let live = service.digest();
        merged += service.shutdown();
        assert_eq!(merged.acked, 4 + 3 + 2);
        assert_eq!(merged.panicked, 1);
        assert_eq!(merged.degraded_resolutions, 3);
        assert_eq!(merged.unaccounted(), 0, "the merged ledger balances");
        assert_eq!(live, replay_digest(&acked), "recovered pad == replay across incarnations");
    }

    #[test]
    fn failed_compactions_and_log_repairs_are_counted() {
        let fault = Arc::new(FaultVfs::unarmed(MemVfs::new()));
        let clock = Arc::new(MockClock::new());
        let control = FlakyControl::new(7);
        control.disarm();
        let factory = ward_factory(
            (*clock).clone(),
            FaultProfile::healthy(),
            control,
            quick_policy(),
            small_breaker(),
            2,
        );
        let config = PadConfig { compact_threshold: 1, ..PadConfig::default() };
        let service =
            PadService::open(fault.clone(), Path::new(PAD), config, clock, factory).unwrap();
        let session = service.session();

        // The commit lands; the compaction it triggers cannot install
        // its snapshot, which refuses nothing.
        fault.rearm(FaultConfig::new(FaultOp::Rename, FaultMode::Fail, 0, 0));
        session.submit(create_mark_op(0)).unwrap();
        assert_eq!(service.stats().compaction_failures, 1);

        // The disk loses the log's last byte, then an append fails: the
        // repair finds the log shorter than its durable length and
        // cannot truncate it, and the reopen salvages what is left.
        let wal = trim::StoreLog::wal_path(Path::new(PAD));
        let mut bytes = fault.inner().bytes(&wal).unwrap();
        bytes.pop();
        fault.inner().write(&wal, &bytes).unwrap();
        fault.rearm(FaultConfig::new(FaultOp::Append, FaultMode::Fail, 0, 0));
        let err = session.submit(create_mark_op(1)).unwrap_err();
        assert!(matches!(err, ServeError::Io { .. }), "{err:?}");
        assert_eq!(service.stats().repair_failures, 1);

        // The pad keeps serving.
        session.submit(create_mark_op(2)).unwrap();
        let stats = service.shutdown();
        assert_eq!((stats.compaction_failures, stats.repair_failures), (1, 1));
        assert_eq!(stats.unaccounted(), 0);
    }

    #[test]
    fn overload_shedding_carries_the_retry_hint() {
        let rig = open_rig(
            FaultProfile::healthy(),
            PadConfig { queue_capacity: 2, max_batch: 1, op_deadline_ms: 100, ..PadConfig::default() },
        );
        let session = rig.service.session();
        let gate = Gate::new();
        let park = session.enqueue(PadOp::ChaosPark(gate.clone())).unwrap();
        gate.wait_arrived();
        let t1 = session.enqueue(PadOp::Commit).unwrap();
        let t2 = session.enqueue(PadOp::Commit).unwrap();
        let err = session.enqueue(PadOp::Commit).unwrap_err();
        match err {
            ServeError::Overloaded { queue_len: 2, capacity: 2, retry_after_ms } => {
                assert_eq!(retry_after_ms, 100);
            }
            other => panic!("expected overload, got {other:?}"),
        }
        gate.open();
        park.wait().unwrap();
        t1.wait().unwrap();
        t2.wait().unwrap();
        let stats = rig.service.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.shed_backoff_ms, 100);
    }

    #[test]
    fn inspect_is_answered_from_the_view_while_the_writer_is_parked() {
        let rig = open_rig(FaultProfile::healthy(), PadConfig::default());
        let session = rig.service.session();
        for i in 0..3 {
            session.submit(create_mark_op(i)).unwrap();
        }
        let gate = Gate::new();
        let park = session.enqueue(PadOp::ChaosPark(gate.clone())).unwrap();
        gate.wait_arrived();
        let queued = session.enqueue(create_mark_op(3)).unwrap();
        // The writer is parked with an op queued behind it; the read
        // still comes straight back, from the view of the first three.
        let read = session.submit(PadOp::Inspect);
        let view = rig.service.view();
        gate.open(); // before any assertion, so a failure cannot hang the writer
        let ack = read.unwrap();
        assert_eq!(ack.outcome, view.inspect());
        assert!(matches!(ack.outcome, PadOutcome::Inspected { scraps: 3, marks: 3, .. }));
        assert_eq!((ack.order, ack.durable_seq), (3, None), "the view's position, no frame");
        park.wait().unwrap();
        let after = queued.wait().unwrap();
        assert_eq!(after.order, 4, "the read took no writer order");
        let stats = rig.service.stats();
        assert_eq!((stats.submitted, stats.acked), (6, 6));
        assert_eq!(stats.unaccounted(), 0);
    }

    #[test]
    fn reads_are_admitted_like_writes() {
        let rig = open_rig(
            FaultProfile::healthy(),
            PadConfig { breaker: small_breaker(), ..PadConfig::default() },
        );
        let session = rig.service.session();
        for _ in 0..2 {
            let _ = session.submit(PadOp::ChaosPanic { detail: "boom".into() }).unwrap_err();
        }
        let err = session.submit(PadOp::Inspect).unwrap_err();
        assert!(matches!(err, ServeError::Quarantined { .. }), "{err:?}");
        // Past the cooldown the breaker half-opens; a successful read is
        // the probe that closes it.
        rig.clock.advance(500);
        session.submit(PadOp::Inspect).unwrap();
        assert!(matches!(session.breaker_state(), marks::resilience::BreakerState::Closed { .. }));
        let stats = rig.service.shutdown();
        assert_eq!(stats.quarantine_rejections, 1);
        assert_eq!(stats.unaccounted(), 0);
        let err = session.submit(PadOp::Inspect).unwrap_err();
        assert_eq!(err, ServeError::Closed);
    }

    /// Drive a [`LivePad`] the way the writer does, on this thread, and
    /// check after every step that its selector memos equal a fresh
    /// canonical sort of the pad.
    /// A writer's machine over a new pad on `vfs`, driven directly.
    fn live_pad(vfs: Arc<dyn Vfs + Send + Sync>) -> LivePad {
        let mut factory = ward_factory(
            MockClock::new(),
            FaultProfile::healthy(),
            FlakyControl::new(0),
            quick_policy(),
            small_breaker(),
            2,
        );
        let machine = build_machine(&vfs, Path::new(PAD), &mut factory, 1 << 20).unwrap();
        LivePad {
            machine,
            vfs,
            path: PathBuf::from(PAD),
            factory,
            compact_threshold: 1 << 20,
            compact_requested: false,
            skip_bundle_holders: false,
        }
    }

    #[test]
    fn a_commit_over_a_replaced_mark_store_reports_its_compaction() {
        let mut pad = live_pad(Arc::new(MemVfs::new()));
        let ledger = Ledger::default();
        assert!(!pad.commit(&ledger).unwrap().compacted, "nothing to write");
        // A manager swapped in whole: per-mark records cannot express it,
        // so the engine's commit compacts, and says so.
        let manager = (pad.factory)().unwrap().manager;
        *pad.machine.engine.marks_mut() = manager;
        let durable = pad.commit(&ledger).unwrap();
        assert!(durable.compacted);
        assert_eq!(durable.seq, None);
        assert!(!pad.commit(&ledger).unwrap().compacted, "the replacement is durable");
        assert_eq!(ledger.read().compaction_failures, 0);
    }

    #[test]
    fn selector_memos_match_a_fresh_sort_after_every_op_kind() {
        fn fresh(machine: &mut PadMachine) {
            let pad = machine.engine.dmi().reader();
            let bundles = canonical(pad.runs(), pad.bundles(), |b| b.resource());
            let scraps = canonical(pad.runs(), pad.all_scraps(), |s| s.resource());
            assert_eq!(machine.bundles(), &bundles[..]);
            assert_eq!(machine.scraps(), &scraps[..]);
        }
        /// One op as the writer serves it: checkpoint, contained apply,
        /// rollback on refusal, commit on success (a failed commit
        /// repairs).
        fn step(pad: &mut LivePad, op: PadOp, ledger: &Ledger) -> bool {
            let checkpoint = pad.checkpoint();
            let verdict = crate::service::quiet_catch_unwind(|| pad.apply(&op, ledger))
                .unwrap_or_else(|detail| Err(ServeError::Panicked { detail }));
            let ok = match verdict {
                Ok(_) => pad.commit(ledger).map_err(|_| pad.repair(ledger).unwrap()).is_ok(),
                Err(_) => {
                    pad.rollback(checkpoint).unwrap();
                    false
                }
            };
            fresh(&mut pad.machine);
            ok
        }
        let vfs = Arc::new(FaultVfs::unarmed(MemVfs::new()));
        let mut pad = live_pad(vfs.clone());
        let ledger = Ledger::default();
        let bundle = |parent| PadOp::CreateBundle {
            name: "b".into(),
            pos: (1, 2),
            width: 3,
            height: 4,
            parent,
        };
        for op in [bundle(None), bundle(Some(0)), create_mark_op(0), create_mark_op(1)] {
            assert!(step(&mut pad, op, &ledger));
        }
        // Refused after a partial effect: a scrap, then a self-link, in
        // one contained step.
        let checkpoint = pad.checkpoint();
        pad.apply(&create_mark_op(2), &ledger).unwrap();
        fresh(&mut pad.machine);
        assert!(pad.apply(&PadOp::Link { from: 2, to: 2 }, &ledger).is_err());
        pad.rollback(checkpoint).unwrap();
        // As many scraps as the memo holds, one of them different: the
        // memo must tell the sets apart, not just their sizes.
        assert!(step(&mut pad, create_mark_op(3), &ledger));
        assert!(!step(&mut pad, PadOp::ChaosPanic { detail: "contained".into() }, &ledger));
        assert!(step(&mut pad, create_mark_op(6), &ledger));
        assert!(step(&mut pad, PadOp::Undo, &ledger), "undo across the last commit");
        assert!(step(&mut pad, bundle(Some(1)), &ledger));
        assert!(step(&mut pad, PadOp::Compact, &ledger));
        assert!(step(&mut pad, create_mark_op(4), &ledger));
        // A failed commit repairs: the machine is rebuilt from disk.
        vfs.rearm(FaultConfig::new(FaultOp::Append, FaultMode::Fail, 0, 0));
        assert!(!step(&mut pad, create_mark_op(5), &ledger));
        assert!(step(&mut pad, PadOp::Link { from: 0, to: 1 }, &ledger));
        assert_eq!(pad.machine.scraps().len(), 4);
        assert_eq!(pad.machine.bundles().len(), 4, "the root and three created bundles");
    }

    #[test]
    fn a_repaired_writer_keeps_the_digest_of_what_it_reopened() {
        let vfs = Arc::new(FaultVfs::unarmed(MemVfs::new()));
        let mut pad = live_pad(vfs.clone());
        let ledger = Ledger::default();
        let serve = |pad: &mut LivePad, op: PadOp| {
            pad.apply(&op, &ledger).unwrap();
            pad.commit(&ledger)
        };
        let bundle = PadOp::CreateBundle {
            name: "b".into(),
            pos: (1, 2),
            width: 3,
            height: 4,
            parent: None,
        };
        pad.publish();
        for op in [bundle, create_mark_op(0), create_mark_op(1), PadOp::Link { from: 0, to: 1 }] {
            serve(&mut pad, op).unwrap();
            let view = pad.publish();
            assert_eq!(view.tally, walked(&view));
        }
        // The batch's net change is folded in, then its commit fails: the
        // repair reopens from disk and the next publish walks afresh.
        vfs.rearm(FaultConfig::new(FaultOp::Append, FaultMode::Fail, 0, 0));
        serve(&mut pad, PadOp::Annotate { scrap: 1, text: "lost".into() }).unwrap_err();
        pad.repair(&ledger).unwrap();
        let view = pad.publish();
        assert_eq!(view.tally, walked(&view), "the reopened pad's walk");
        let reopened = ward_reopen(&*vfs, Path::new(PAD)).unwrap();
        assert_eq!(view.digest(), reopened.digest(), "the refused annotation is gone");
        // And the rebuilt machine keeps its records from there on.
        serve(&mut pad, PadOp::Annotate { scrap: 1, text: "kept".into() }).unwrap();
        let view = pad.publish();
        assert_eq!(view.tally, walked(&view));
        assert_ne!(view.digest(), reopened.digest());
    }

    #[test]
    fn expired_deadlines_refuse_without_applying() {
        let rig = open_rig(
            FaultProfile::healthy(),
            PadConfig { op_deadline_ms: 100, ..PadConfig::default() },
        );
        let session = rig.service.session();
        let gate = Gate::new();
        let park = session.enqueue(PadOp::ChaosPark(gate.clone())).unwrap();
        gate.wait_arrived();
        let doomed = session.enqueue(create_mark_op(0)).unwrap();
        rig.clock.advance(101);
        gate.open();
        park.wait().unwrap();
        assert!(matches!(doomed.wait(), Err(ServeError::Timeout { .. })));
        let ack = session.submit(PadOp::Inspect).unwrap();
        assert!(matches!(
            ack.outcome,
            PadOutcome::Inspected { scraps: 0, .. }
        ));
    }

    #[test]
    fn repeated_faults_quarantine_the_session_until_cooldown() {
        let rig = open_rig(
            FaultProfile::healthy(),
            PadConfig { breaker: small_breaker(), ..PadConfig::default() },
        );
        let bad = rig.service.session();
        let good = rig.service.session();
        for _ in 0..2 {
            let _ = bad.submit(PadOp::ChaosPanic { detail: "boom".into() }).unwrap_err();
        }
        let err = bad.submit(PadOp::Inspect).unwrap_err();
        assert!(matches!(err, ServeError::Quarantined { .. }), "{err:?}");
        good.submit(create_mark_op(0)).unwrap();
        rig.clock.advance(500);
        bad.submit(PadOp::Inspect).unwrap();
        assert!(matches!(bad.breaker_state(), marks::resilience::BreakerState::Closed { .. }));
    }

    #[test]
    fn dangling_marks_quarantine_and_repair_rebinds_them() {
        let rig = open_rig(FaultProfile::healthy(), PadConfig::default());
        let session = rig.service.session();
        // A mark whose paragraph does not exist: dangling on resolve.
        let ack = session
            .submit(PadOp::CreateMark {
                doc: ward_doc(0),
                paragraph: 99,
                start: 0,
                len: 6,
                label: "dangler".into(),
                pos: (0, 0),
                bundle: None,
            })
            .unwrap();
        assert!(matches!(ack.outcome, PadOutcome::Applied));
        // Give it the excerpt of a real, unique sentence so repair can
        // find it (creation at a dangling address captured none).
        let target = "Ward 2 paragraph 3";
        let ack = session
            .submit(PadOp::Rebind {
                scrap: 0,
                doc: ward_doc(2),
                paragraph: 3,
                start: 0,
                len: target.len() as u64,
                })
            .unwrap();
        assert!(matches!(ack.outcome, PadOutcome::Applied));
        // Dangle it again without refreshing the excerpt: point at a
        // missing paragraph via rebind, then resolve twice to trip the
        // dangle threshold (2).
        session
            .submit(PadOp::Rebind { scrap: 0, doc: ward_doc(0), paragraph: 99, start: 0, len: 6 })
            .unwrap();
        for _ in 0..2 {
            let ack = session.submit(PadOp::Resolve { scrap: 0 }).unwrap();
            assert!(matches!(ack.outcome, PadOutcome::Resolved { degraded: true, .. }));
        }
        let ack = session.submit(PadOp::Resolve { scrap: 0 }).unwrap();
        assert!(
            matches!(ack.outcome, PadOutcome::Resolved { quarantined: true, .. }),
            "{:?}",
            ack.outcome
        );
        // The saved excerpt is empty (created dangling), so repair
        // refuses to guess — still quarantined.
        let ack = session.submit(PadOp::Repair).unwrap();
        assert!(matches!(
            ack.outcome,
            PadOutcome::Repaired { rebound: 0, still_quarantined: 1 }
        ));
        assert_eq!(rig.service.stats().unaccounted(), 0);
    }

    #[test]
    fn undo_redo_round_trips_and_replays() {
        let rig = open_rig(FaultProfile::healthy(), PadConfig::default());
        let session = rig.service.session();
        let mut acked = Vec::new();
        for op in [
            create_mark_op(0),
            PadOp::Annotate { scrap: 0, text: "first".into() },
            PadOp::Undo,
            PadOp::Annotate { scrap: 0, text: "second".into() },
            PadOp::Undo,
            PadOp::Redo,
        ] {
            let ack = session.submit(op.clone()).unwrap();
            acked.push((ack.order, op));
        }
        // Redo after a new mutation is refused (journal cleared).
        for op in [PadOp::Undo, PadOp::Annotate { scrap: 0, text: "third".into() }] {
            let ack = session.submit(op.clone()).unwrap();
            acked.push((ack.order, op));
        }
        let err = session.submit(PadOp::Redo).unwrap_err();
        assert!(matches!(err, ServeError::Engine { .. }), "{err:?}");
        assert_eq!(rig.service.digest(), replay_digest(&acked));
    }
}
