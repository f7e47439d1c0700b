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
//!   WAL and marks sidecar through the [`PadPartsFactory`].
//! * **The view is a digest.** Readers see the pad's logical digest,
//!   published after every durable batch; replaying the acknowledged
//!   [`PadOp`]s of a run into a fresh [`PadMachine`] reproduces it
//!   exactly — and so does reopening the on-disk state after a crash.
//!   That three-way equality is the `slimgen --chaos-pad` verdict.
//! * **Mark resolution degrades, never hangs.** Resolution runs through
//!   the [`marks::ResilientResolver`] (deadlines, per-module breakers,
//!   quarantine); a [`marks::FlakyModule`] can be armed through its
//!   shared [`marks::FlakyControl`] from any thread, and readers observe
//!   `DegradedExcerpt` fallbacks in the ack rather than a hang or a
//!   panic.
//!
//! The digest is *logical*: bundle and scrap content keyed by canonical
//! position, mark identities and addresses — never minted resource ids
//! (which legitimately diverge across rolled-back ops and crash
//! recoveries) and never excerpts (which legitimately diverge under
//! injected base-layer faults).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use basedocs::textdoc::TextTarget;
use basedocs::{DocKind, Span, TextAddress};
use marks::resilience::{BreakerConfig, Clock};
use marks::{MarkAddress, MarkCheckpoint, MarkManager, ResilientResolver};
use slimio::Vfs;
use slimpad::{PadError, PadSession};
use slimstore::{BundleHandle, ScrapHandle};

use crate::error::ServeError;
use crate::op::{Ack, Gate};
use crate::service::{Durable, Ledger, Machine, ServeConfig, ServeStats, Session, Supervisor};

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
    /// Read the pad's logical digest and population counts.
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
}

impl PadMachine {
    /// Wrap an engine (live or replay) into a machine.
    pub fn new(engine: PadSession, search: ExcerptSearch) -> Self {
        PadMachine { engine, search, undo_ops: Vec::new(), redo_ops: Vec::new() }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &PadSession {
        &self.engine
    }

    /// The wrapped engine, mutably.
    pub fn engine_mut(&mut self) -> &mut PadSession {
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
    pub fn bundles(&self) -> Vec<BundleHandle> {
        let mut pool = self.engine.dmi().bundles();
        pool.sort_by_key(|b| self.mint_rank(b.resource()));
        pool
    }

    /// Live scraps in canonical order — selector space for scrap refs.
    pub fn scraps(&self) -> Vec<ScrapHandle> {
        let mut pool = self.engine.dmi().all_scraps();
        pool.sort_by_key(|s| self.mint_rank(s.resource()));
        pool
    }

    /// The creation-order sort key for a minted resource: its numeric
    /// `name:N` suffix, with nameless oddities ranked last by raw atom.
    fn mint_rank(&self, resource: trim::Atom) -> (u64, u64) {
        let name = self.engine.dmi().store().atoms().resolve(resource);
        match name.rsplit_once(':').and_then(|(_, n)| n.parse::<u64>().ok()) {
            Some(n) => (n, 0),
            None => (u64::MAX, resource.index() as u64),
        }
    }

    fn bundle_at(&self, selector: Option<u64>) -> Option<BundleHandle> {
        let sel = selector?;
        let pool = self.bundles();
        if pool.is_empty() {
            return None; // fall back to the root bundle
        }
        Some(pool[(sel % pool.len() as u64) as usize])
    }

    fn scrap_at(&self, selector: u64) -> Result<ScrapHandle, PadError> {
        let pool = self.scraps();
        if pool.is_empty() {
            return Err(PadError::File { message: "no scraps on the pad".into() });
        }
        Ok(pool[(selector % pool.len() as u64) as usize])
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
                let from = self.scrap_at(*from)?;
                let to = self.scrap_at(*to)?;
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
                    // The journal no longer reaches the checkpoint (a
                    // compaction truncated it): put the entry back and
                    // refuse; nothing changed.
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
            // Population counts come from the conjunctive join engine
            // (the planner/merge-join path readers use), not a linear
            // instance scan; the invisible root bundle is excluded as
            // before.
            PadOp::Inspect => {
                let (bundles, scraps) = self.engine.dmi().population_by_join();
                Ok(PadOutcome::Inspected {
                    digest: self.digest(),
                    bundles: bundles.saturating_sub(1),
                    scraps,
                    marks: self.engine.marks().len(),
                })
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

    /// The pad's *logical* digest: bundle and scrap content keyed by
    /// canonical position, plus mark identities, kinds, and addresses.
    ///
    /// Deliberately excluded, because they legitimately diverge between
    /// a live faulted run and a clean replay of its acked ops: minted
    /// resource ids (refused ops intern atoms that rollback cannot
    /// un-intern) and mark excerpts (captured through a possibly-flaky
    /// module at creation time).
    pub fn digest(&self) -> u64 {
        let dmi = self.engine.dmi();
        let bundles = self.bundles();
        let scraps = self.scraps();
        let bundle_index: BTreeMap<BundleHandle, usize> =
            bundles.iter().enumerate().map(|(i, b)| (*b, i)).collect();
        let scrap_index: BTreeMap<ScrapHandle, usize> =
            scraps.iter().enumerate().map(|(i, s)| (*s, i)).collect();

        let mut h = Fnv::new();
        h.write(b"pad-digest-v1");
        h.write_u64(bundles.len() as u64);
        for b in &bundles {
            let Ok(data) = dmi.bundle(*b) else { continue };
            h.write(b"B");
            h.write(data.name.as_bytes());
            h.write_u64(data.pos.0 as u64);
            h.write_u64(data.pos.1 as u64);
            h.write_u64(data.width as u64);
            h.write_u64(data.height as u64);
            // Membership lists come back in atom order, which is not
            // reload-stable; hash them as sorted sets of canonical
            // positions.
            let mut nested: Vec<u64> = data
                .nested
                .iter()
                .map(|n| bundle_index.get(n).map_or(u64::MAX, |i| *i as u64))
                .collect();
            nested.sort_unstable();
            for i in nested {
                h.write_u64(i);
            }
            let mut members: Vec<u64> = data
                .scraps
                .iter()
                .map(|s| scrap_index.get(s).map_or(u64::MAX, |i| *i as u64))
                .collect();
            members.sort_unstable();
            for i in members {
                h.write_u64(i);
            }
        }
        h.write_u64(scraps.len() as u64);
        for s in &scraps {
            let Ok(data) = dmi.scrap(*s) else { continue };
            h.write(b"S");
            h.write(data.name.as_bytes());
            h.write_u64(data.pos.0 as u64);
            h.write_u64(data.pos.1 as u64);
            h.write_u64(data.marks.len() as u64);
            let mut mark_ids: Vec<String> = data
                .marks
                .iter()
                .filter_map(|handle| dmi.mark_handle(*handle).ok().map(|mh| mh.mark_id))
                .collect();
            mark_ids.sort_unstable();
            for id in mark_ids {
                h.write(id.as_bytes());
            }
            if let Ok(mut notes) = dmi.annotations(*s) {
                notes.sort_unstable();
                for note in notes {
                    h.write(b"A");
                    h.write(note.as_bytes());
                }
            }
            if let Ok(links) = dmi.scrap_links(*s) {
                let mut targets: Vec<u64> = links
                    .into_iter()
                    .map(|to| scrap_index.get(&to).map_or(u64::MAX, |i| *i as u64))
                    .collect();
                targets.sort_unstable();
                for to in targets {
                    h.write(b"L");
                    h.write_u64(to);
                }
            }
        }
        let marks = self.engine.marks();
        h.write_u64(marks.len() as u64);
        for mark in marks.marks() {
            h.write(b"M");
            h.write(mark.mark_id.as_bytes());
            h.write(mark.kind().id().as_bytes());
            h.write(mark.address.to_string().as_bytes());
        }
        h.finish()
    }
}

/// FNV-1a, inlined so the digest is stable and dependency-free.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Delimit fields so ("ab","c") and ("a","bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
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
    type View = u64;
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

    /// One frame for the whole batch: store delta plus marks sidecar,
    /// one sync. Compaction — asked for by an applied [`PadOp::Compact`]
    /// or due past the threshold — runs only after that commit, never
    /// mid-batch, so a failed commit refuses a batch none of whose
    /// effects are on disk. A failed compaction refuses nothing — the
    /// log just stays long — but it is counted.
    fn commit(&mut self, ledger: &Ledger) -> Result<Durable, String> {
        let vfs = &*self.vfs;
        let engine = self.machine.engine_mut();
        let seq = match engine.commit(vfs).map_err(|e| e.to_string())? {
            trim::CommitOutcome::Committed { seq, .. } => Some(seq),
            _ => None,
        };
        let due = std::mem::take(&mut self.compact_requested) || engine.should_compact();
        let compacted =
            due && ledger.ok_or_count(engine.compact(vfs), |s| s.compaction_failures += 1);
        Ok(Durable { seq, compacted })
    }

    /// Truncate the suspect log tail first — a torn append can land the
    /// doomed frame fully readable, and both the reopen below and any
    /// future cold start would adopt the refused batch as committed
    /// history. Best effort: if the truncation fails, it is counted and
    /// the reopen still runs against whatever is durable.
    fn repair(&mut self, ledger: &Ledger) -> Result<(), String> {
        let truncated = self.machine.engine_mut().repair_log(&*self.vfs);
        ledger.ok_or_count(truncated, |s| s.repair_failures += 1);
        self.machine =
            build_machine(&self.vfs, &self.path, &mut self.factory, self.compact_threshold)
                .map_err(|e| e.to_string())?;
        self.compact_requested = false;
        Ok(())
    }

    fn publish(&mut self, _: &Ledger) -> u64 {
        self.machine.digest()
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
        mut factory: PadPartsFactory,
    ) -> Result<PadService, ServeError> {
        let path = path.to_path_buf();
        let (service, ()) = Supervisor::start(config, clock, move |config| {
            let compact_threshold = config.compact_threshold;
            let machine = build_machine(&vfs, &path, &mut factory, compact_threshold)
                .map_err(|e| ServeError::Io { detail: e.to_string() })?;
            let pad = LivePad { machine, vfs, path, factory, compact_threshold, compact_requested: false };
            Ok((pad, ()))
        })?;
        Ok(service)
    }

    /// The most recently published logical pad digest (updated after
    /// every batch; readers never block on the writer).
    pub fn digest(&self) -> u64 {
        self.view()
    }
}

impl PadSessionHandle {
    /// The most recently published logical pad digest.
    pub fn digest(&self) -> u64 {
        self.view()
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

/// Reopen the durable pad at `path` — snapshot, WAL and marks sidecar —
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
        let t1 = session.enqueue(PadOp::Inspect).unwrap();
        let t2 = session.enqueue(PadOp::Inspect).unwrap();
        let err = session.enqueue(PadOp::Inspect).unwrap_err();
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
