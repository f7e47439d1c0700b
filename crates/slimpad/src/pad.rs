//! The running SLIMPad application: a pad session wiring the DMI to the
//! Mark Manager.

use crate::layout::{detect_grid, GridDetection, Point};
use basedocs::DocKind;
use marks::{
    MarkAudit, MarkError, MarkManager, ResilientResolution, ResilientResolver, Resolution,
};
use slimio::{Integrity, Recovered, StdVfs, Vfs};
use slimstore::{BundleHandle, DmiError, PadHandle, ScrapHandle, SlimPadDmi};
use std::fmt;
use std::path::Path;
use xmlkit::{Element, XmlWriter};

/// Errors from pad-session operations.
#[derive(Debug)]
pub enum PadError {
    /// A data-layer failure.
    Dmi(DmiError),
    /// A mark-layer failure.
    Mark(MarkError),
    /// A malformed combined pad file.
    File { message: String },
    /// The file declares a format version newer than this build supports.
    UnsupportedVersion { found: String, supported: u32 },
    /// The pad file failed its integrity check (checksum mismatch or
    /// truncation); salvage loading may still recover a prefix.
    Corrupt { detail: String },
    /// An I/O failure while reading or writing the pad file.
    Io(slimio::IoError),
}

impl fmt::Display for PadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PadError::Dmi(e) => write!(f, "pad data error: {e}"),
            PadError::Mark(e) => write!(f, "mark error: {e}"),
            PadError::File { message } => write!(f, "pad file error: {message}"),
            PadError::UnsupportedVersion { found, supported } => write!(
                f,
                "pad file declares format version {found}, \
                 but this build supports at most version {supported}"
            ),
            PadError::Corrupt { detail } => {
                write!(f, "pad file failed its integrity check: {detail}")
            }
            PadError::Io(e) => write!(f, "pad file I/O error: {e}"),
        }
    }
}

impl std::error::Error for PadError {}

impl From<DmiError> for PadError {
    fn from(e: DmiError) -> Self {
        PadError::Dmi(e)
    }
}

impl From<MarkError> for PadError {
    fn from(e: MarkError) -> Self {
        PadError::Mark(e)
    }
}

impl From<slimio::IoError> for PadError {
    fn from(e: slimio::IoError) -> Self {
        PadError::Io(e)
    }
}

/// On-disk format version for combined pad files.
const FILE_VERSION: &str = "1";
/// Highest numeric format version this build can read.
const SUPPORTED_VERSION: u32 = 1;
/// Aux-record key under which the mark-store XML rides in the log.
const MARKS_AUX_KEY: &str = "marks";

/// The error for log operations on a session that has no log attached.
fn no_log_error() -> PadError {
    PadError::File {
        message: "pad session has no write-ahead log \
                  (open with open_logged, or call enable_logging)"
            .into(),
    }
}

/// Reject files from the future with a typed error; anything else odd
/// about the version attribute is a plain format error.
fn check_version(root: &Element) -> Result<(), PadError> {
    match root.attr("version") {
        Some(FILE_VERSION) => Ok(()),
        Some(other) => match other.trim().parse::<u32>() {
            Ok(n) if n > SUPPORTED_VERSION => Err(PadError::UnsupportedVersion {
                found: other.to_string(),
                supported: SUPPORTED_VERSION,
            }),
            _ => Err(PadError::File {
                message: format!("unsupported pad file version {other:?}"),
            }),
        },
        None => Err(PadError::File { message: "missing version attribute".into() }),
    }
}

/// Session statistics: what a status bar would show.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PadStats {
    pub bundles: usize,
    pub scraps: usize,
    pub marks: usize,
    pub annotations: usize,
    pub scrap_links: usize,
    pub triples: usize,
    pub live_marks: usize,
    pub drifted_marks: usize,
}

impl fmt::Display for PadStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} bundle(s), {} scrap(s), {} mark(s) ({} live, {} drifted), \
{} annotation(s), {} link(s); {} triples underneath",
            self.bundles,
            self.scraps,
            self.marks,
            self.live_marks,
            self.drifted_marks,
            self.annotations,
            self.scrap_links,
            self.triples,
        )
    }
}

/// A live SLIMPad: the pad object, its bundle tree, and its marks —
/// everything a pad *is*, with no opinion about who drives it.
/// Embedders call it directly; slimserve's pad service owns one on its
/// writer thread and hands user code typed ops instead.
///
/// "Each visual entity the user sees on the screen corresponds to an
/// object in the data model" (paper §3); every mutation below goes
/// through the DMI, so the triple representation stays consistent.
pub struct PadSession {
    dmi: SlimPadDmi,
    pad: PadHandle,
    root: BundleHandle,
    marks: MarkManager,
    /// Failure handling for mark resolution: deadlines, retries,
    /// breakers, quarantine ([`PadSession::activate_resilient`]).
    resolver: ResilientResolver,
    /// Checkpoints taken by [`PadSession::begin_op`], popped by
    /// [`PadSession::undo`].
    undo_stack: Vec<trim::Revision>,
    /// The write-ahead log, when this session was opened through
    /// [`PadSession::open_logged`] or upgraded via
    /// [`PadSession::enable_logging`].
    log: Option<trim::StoreLog>,
}

impl PadSession {
    /// Open a new, empty pad. The pad's own surface is its (invisible)
    /// root bundle; bundles and scraps placed "on the pad" live there.
    pub fn new(pad_name: &str) -> Result<Self, PadError> {
        let mut dmi = SlimPadDmi::new();
        let root = dmi.create_bundle(pad_name, (0, 0), 1280, 960);
        let pad = dmi.create_slim_pad(pad_name, Some(root))?;
        Ok(PadSession {
            dmi,
            pad,
            root,
            marks: MarkManager::new(),
            resolver: ResilientResolver::default(),
            undo_stack: Vec::new(),
            log: None,
        })
    }

    /// Mark the start of a user-visible operation; [`PadSession::undo`]
    /// reverts to the most recent unmatched call.
    pub fn begin_op(&mut self) {
        self.undo_stack.push(self.dmi.checkpoint());
    }

    /// Undo back to the last [`PadSession::begin_op`] checkpoint.
    /// Returns `false` when there is nothing to undo. Marks created
    /// since are *not* removed (the mark store is append-only); they
    /// simply become unreferenced, which the audit reports.
    pub fn undo(&mut self) -> Result<bool, PadError> {
        match self.undo_stack.pop() {
            Some(revision) => {
                self.dmi.rollback(revision)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// The mark manager — register mark modules here before placing
    /// marks (paper Figure 7's per-application modules).
    pub fn marks_mut(&mut self) -> &mut MarkManager {
        &mut self.marks
    }

    /// Read access to the mark manager.
    pub fn marks(&self) -> &MarkManager {
        &self.marks
    }

    /// Read access to the data layer.
    pub fn dmi(&self) -> &SlimPadDmi {
        &self.dmi
    }

    /// Mutable access to the data layer for operations the session does
    /// not wrap (annotations, links, deletes, …).
    pub fn dmi_mut(&mut self) -> &mut SlimPadDmi {
        &mut self.dmi
    }

    /// The pad object.
    pub fn pad(&self) -> PadHandle {
        self.pad
    }

    /// The pad's root bundle.
    pub fn root_bundle(&self) -> BundleHandle {
        self.root
    }

    /// Session statistics (excludes the invisible root bundle).
    pub fn stats(&self) -> PadStats {
        let scraps = self.dmi.all_scraps();
        let annotations: usize =
            scraps.iter().map(|s| self.dmi.annotations(*s).map(|a| a.len()).unwrap_or(0)).sum();
        let scrap_links: usize =
            scraps.iter().map(|s| self.dmi.scrap_links(*s).map(|l| l.len()).unwrap_or(0)).sum();
        let audit = self.marks.audit();
        PadStats {
            bundles: self.dmi.bundles().len().saturating_sub(1),
            scraps: scraps.len(),
            marks: self.marks.len(),
            annotations,
            scrap_links,
            triples: self.dmi.store().len(),
            live_marks: audit.iter().filter(|a| a.live).count(),
            drifted_marks: audit.iter().filter(|a| a.drifted).count(),
        }
    }

    // ---- building the pad -----------------------------------------------------

    /// Create a bundle on the pad surface or inside `parent`.
    pub fn create_bundle(
        &mut self,
        name: &str,
        pos: (i64, i64),
        width: i64,
        height: i64,
        parent: Option<BundleHandle>,
    ) -> Result<BundleHandle, PadError> {
        let b = self.dmi.create_bundle(name, pos, width, height);
        self.dmi.add_nested_bundle(parent.unwrap_or(self.root), b)?;
        Ok(b)
    }

    /// The paper's core gesture: take the base application's *current
    /// selection*, create a mark for it, and place a scrap holding that
    /// mark onto the pad — "the user creates a digital 'sticky-note,'
    /// which comes with a digital 'wire' that leads back to the
    /// information in the original data source."
    ///
    /// With `label: None` the scrap is labelled with the marked content
    /// (the excerpt); pass a label to override — "a scrap's label and its
    /// mark's content may differ."
    pub fn place_selection(
        &mut self,
        kind: DocKind,
        label: Option<&str>,
        pos: (i64, i64),
        bundle: Option<BundleHandle>,
    ) -> Result<ScrapHandle, PadError> {
        let mark_id = self.marks.create_mark(kind)?;
        self.place_mark(&mark_id, label, pos, bundle)
    }

    /// Place an existing mark onto the pad as a new scrap.
    pub fn place_mark(
        &mut self,
        mark_id: &str,
        label: Option<&str>,
        pos: (i64, i64),
        bundle: Option<BundleHandle>,
    ) -> Result<ScrapHandle, PadError> {
        let mark = self.marks.get(mark_id)?;
        let label = match label {
            Some(l) => l.to_string(),
            None if !mark.excerpt.is_empty() => mark.excerpt.clone(),
            None => mark.address.to_string(),
        };
        let scrap = self.dmi.create_scrap(&label, pos, mark_id)?;
        self.dmi.add_scrap(bundle.unwrap_or(self.root), scrap)?;
        Ok(scrap)
    }

    // ---- using the pad -----------------------------------------------------

    /// Double-click a scrap: de-reference its (first) mark and drive the
    /// base application there — "the original information source … is
    /// displayed with the appropriate medication highlighted" (paper §3,
    /// Figure 4).
    pub fn activate(&mut self, scrap: ScrapHandle) -> Result<Resolution, PadError> {
        let mark_id = self.first_mark_id(scrap)?;
        Ok(self.marks.resolve(&mark_id)?)
    }

    /// Double-click with a safety net: resolve the scrap's (first) mark
    /// through the session's [`ResilientResolver`]. Base-layer failures
    /// degrade to the mark's stored excerpt
    /// ([`marks::ResolutionStyle::DegradedExcerpt`]) instead of erroring;
    /// the returned outcome carries the full attempt trace.
    pub fn activate_resilient(
        &mut self,
        scrap: ScrapHandle,
    ) -> Result<ResilientResolution, PadError> {
        let mark_id = self.first_mark_id(scrap)?;
        Ok(self.resolver.resolve(&mut self.marks, &mark_id)?)
    }

    /// The session's resilient resolver (breaker states, quarantine).
    pub fn resolver(&self) -> &ResilientResolver {
        &self.resolver
    }

    /// Mutable resolver access (release a quarantined mark, …).
    pub fn resolver_mut(&mut self) -> &mut ResilientResolver {
        &mut self.resolver
    }

    /// Replace the resolver — tests and embedders install one driven by
    /// a mock clock or tuned policies here.
    pub fn set_resolver(&mut self, resolver: ResilientResolver) {
        self.resolver = resolver;
    }

    /// Split borrow for callers that drive the resolver against this
    /// session's marks (e.g. the repair pass in `core`).
    pub fn resolver_parts(&mut self) -> (&mut ResilientResolver, &mut MarkManager) {
        (&mut self.resolver, &mut self.marks)
    }

    /// Audit every mark and feed the result to the resolver, so
    /// subsequent degraded resolutions carry an accurate staleness flag.
    pub fn audit_marks(&mut self) -> Vec<MarkAudit> {
        let audits = self.marks.audit();
        self.resolver.note_audit(&audits);
        audits
    }

    /// Activate through a named module (e.g. an in-place viewer).
    pub fn activate_with(
        &mut self,
        scrap: ScrapHandle,
        module: &str,
    ) -> Result<Resolution, PadError> {
        let mark_id = self.first_mark_id(scrap)?;
        Ok(self.marks.resolve_with(&mark_id, module)?)
    }

    /// §6 extension behaviour: the marked element's current content,
    /// without driving the base application.
    pub fn extract(&self, scrap: ScrapHandle) -> Result<String, PadError> {
        let mark_id = self.first_mark_id(scrap)?;
        Ok(self.marks.extract_content(&mark_id)?)
    }

    /// [`extract`](PadSession::extract) with a safety net: fall back to
    /// the mark's stored excerpt when the base layer cannot supply the
    /// content. The boolean is `true` when the fallback was used.
    pub fn extract_degraded(&self, scrap: ScrapHandle) -> Result<(String, bool), PadError> {
        let mark_id = self.first_mark_id(scrap)?;
        match self.marks.extract_content(&mark_id) {
            Ok(content) => Ok((content, false)),
            Err(_) => Ok((self.marks.get(&mark_id)?.excerpt.clone(), true)),
        }
    }

    /// Resolve *all* of a scrap's marks, in handle order — the
    /// composite-mark behaviour the paper compares to MVD's NoteMarks
    /// ("combine several kinds of annotations together to serve as an
    /// index"). Figure 3 allows `scrapMark 1..*`; this is what a
    /// double-click does when a scrap carries several wires.
    pub fn activate_all(&mut self, scrap: ScrapHandle) -> Result<Vec<Resolution>, PadError> {
        let data = self.dmi.scrap(scrap)?;
        let mut out = Vec::with_capacity(data.marks.len());
        for handle in &data.marks {
            let mark_id = self.dmi.mark_handle(*handle)?.mark_id;
            out.push(self.marks.resolve(&mark_id)?);
        }
        Ok(out)
    }

    /// Attach the base application's current selection as an *additional*
    /// mark on an existing scrap (building a composite scrap).
    pub fn add_selection_to_scrap(
        &mut self,
        scrap: ScrapHandle,
        kind: DocKind,
    ) -> Result<(), PadError> {
        let mark_id = self.marks.create_mark(kind)?;
        let handle = self.dmi.create_mark_handle(&mark_id);
        self.dmi.add_scrap_mark(scrap, handle)?;
        Ok(())
    }

    fn first_mark_id(&self, scrap: ScrapHandle) -> Result<String, PadError> {
        let data = self.dmi.scrap(scrap)?;
        let first = data.marks.first().ok_or(PadError::Dmi(DmiError::Cardinality {
            message: "scrap has no mark handle".into(),
        }))?;
        Ok(self.dmi.mark_handle(*first)?.mark_id)
    }

    /// Detect implicit row/column structure among a bundle's scraps —
    /// the "gridlet" of paper Figure 4, recovered from juxtaposition.
    pub fn detect_gridlet(
        &self,
        bundle: BundleHandle,
        tolerance: i64,
    ) -> Result<GridDetection<ScrapHandle>, PadError> {
        let data = self.dmi.bundle(bundle)?;
        let items: Vec<(ScrapHandle, Point)> = data
            .scraps
            .iter()
            .map(|&s| Ok((s, Point::from(self.dmi.scrap(s)?.pos))))
            .collect::<Result<_, PadError>>()?;
        Ok(detect_grid(&items, tolerance))
    }

    // ---- persistence -----------------------------------------------------------

    /// Serialize the pad *and* its marks into one combined XML document.
    pub fn save_xml(&self) -> String {
        let mut w = XmlWriter::compact();
        w.declaration();
        w.start("slimpad-file");
        w.attr("version", FILE_VERSION);
        w.leaf("store", &self.dmi.save_xml());
        w.leaf("marks", &self.marks.to_xml());
        w.end();
        w.finish()
    }

    /// Save to a file: sealed with a checksum footer, installed
    /// atomically (write-temp → fsync → rename). A crash at any point
    /// leaves the previous file intact.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PadError> {
        self.save_to(&StdVfs, path.as_ref())
    }

    /// [`save`](PadSession::save) through an explicit [`Vfs`] backend.
    pub fn save_to(&self, vfs: &dyn Vfs, path: &Path) -> Result<(), PadError> {
        slimio::save_atomic(vfs, path, &self.save_xml())?;
        Ok(())
    }

    /// Load a combined pad file. `manager` supplies the mark modules
    /// (live base applications); its mark store is replaced by the file's.
    pub fn load_xml(text: &str, mut manager: MarkManager) -> Result<Self, PadError> {
        let doc = xmlkit::parse(text).map_err(|e| PadError::File { message: e.to_string() })?;
        if doc.root.name != "slimpad-file" {
            return Err(PadError::File { message: "not a SLIMPad file".into() });
        }
        check_version(&doc.root)?;
        let store_xml = doc
            .root
            .child("store")
            .ok_or_else(|| PadError::File { message: "missing <store>".into() })?
            .text();
        let marks_xml = doc
            .root
            .child("marks")
            .ok_or_else(|| PadError::File { message: "missing <marks>".into() })?
            .text();
        let (dmi, pads) = SlimPadDmi::load_xml(&store_xml)?;
        let pad = *pads.first().ok_or_else(|| PadError::File {
            message: "pad file contains no SlimPad object".into(),
        })?;
        let root = dmi
            .pad(pad)?
            .root_bundle
            .ok_or_else(|| PadError::File { message: "pad has no root bundle".into() })?;
        manager.load_xml(&marks_xml)?;
        Ok(PadSession {
            dmi,
            pad,
            root,
            marks: manager,
            resolver: ResilientResolver::default(),
            undo_stack: Vec::new(),
            log: None,
        })
    }

    /// Load from a file written by [`PadSession::save`].
    ///
    /// Strict: a file whose checksum footer does not match its contents
    /// is refused with [`PadError::Corrupt`] — use
    /// [`PadSession::load_salvage`] to recover what remains. Legacy
    /// files without a footer are trusted as-is.
    pub fn load(path: impl AsRef<Path>, manager: MarkManager) -> Result<Self, PadError> {
        Self::load_from(&StdVfs, path.as_ref(), manager)
    }

    /// [`load`](PadSession::load) through an explicit [`Vfs`] backend.
    pub fn load_from(
        vfs: &dyn Vfs,
        path: &Path,
        manager: MarkManager,
    ) -> Result<Self, PadError> {
        let (verdict, payload) = slimio::load_sealed(vfs, path)?;
        if verdict == Integrity::Corrupt {
            return Err(PadError::Corrupt {
                detail: format!("{} (checksum mismatch or truncation)", path.display()),
            });
        }
        Self::load_xml(&payload, manager)
    }

    // ---- logged persistence ----------------------------------------------------

    /// Open a pad file with its write-ahead log attached: load the
    /// sealed snapshot, replay committed log frames onto the embedded
    /// store, and restore the mark store from the newest `"marks"`
    /// sidecar record if one was committed after the snapshot. The
    /// session comes back in the state of its last acknowledged
    /// [`commit`](PadSession::commit), even after a crash.
    ///
    /// The file must exist; for a brand-new pad, build the session with
    /// [`PadSession::new`] and call
    /// [`enable_logging`](PadSession::enable_logging).
    pub fn open_logged(
        vfs: &dyn Vfs,
        path: &Path,
        manager: MarkManager,
    ) -> Result<(Self, trim::LogReport), PadError> {
        slimio::sweep_stale_temp(vfs, path);
        let mut session = Self::load_from(vfs, path, manager)?;
        let (log, report) = session.dmi.attach_log(vfs, path)?;
        session.adopt_log(log, &report)?;
        Ok((session, report))
    }

    /// Upgrade this session to logged persistence: write a full snapshot
    /// of the current state to `path`, then attach a (fresh) log to it.
    /// After this, [`commit`](PadSession::commit) persists deltas.
    ///
    /// Any stale log at the sibling `.wal` path belongs to an older
    /// snapshot generation and is discarded, not replayed.
    pub fn enable_logging(
        &mut self,
        vfs: &dyn Vfs,
        path: &Path,
    ) -> Result<trim::LogReport, PadError> {
        self.save_to(vfs, path)?;
        let (log, report) = self.dmi.attach_log(vfs, path)?;
        self.adopt_log(log, &report)?;
        Ok(report)
    }

    /// Wire a freshly attached log into the session: restore the marks
    /// sidecar the log recovered (if any), note that the marks are now
    /// on disk, and invalidate undo checkpoints — attaching truncates
    /// the store journal, so revisions taken before it are unreachable.
    fn adopt_log(
        &mut self,
        log: trim::StoreLog,
        report: &trim::LogReport,
    ) -> Result<(), PadError> {
        if let Some(bytes) = report.aux.get(MARKS_AUX_KEY) {
            let text = std::str::from_utf8(bytes).map_err(|_| PadError::File {
                message: "recovered marks sidecar is not valid UTF-8".into(),
            })?;
            self.marks.load_xml(text)?;
        }
        self.marks.mark_persisted();
        self.undo_stack.clear();
        self.log = Some(log);
        Ok(())
    }

    /// Group-commit every change since the last commit — store triples
    /// and, when [`MarkManager::changed`] says so, the whole mark store
    /// as a `"marks"` sidecar record — as one log frame with one sync.
    ///
    /// On [`CommitOutcome::NeedsFullSnapshot`](trim::CommitOutcome) (an
    /// undo crossed the previous commit boundary) the session compacts
    /// internally, so on `Ok` the current state is durable regardless of
    /// the outcome value.
    pub fn commit(&mut self, vfs: &dyn Vfs) -> Result<trim::CommitOutcome, PadError> {
        let log = self.log.as_mut().ok_or_else(no_log_error)?;
        let marks_xml = self.marks.changed().then(|| self.marks.to_xml());
        let aux = marks_xml.as_deref().map(|xml| (MARKS_AUX_KEY, xml.as_bytes()));
        let outcome = self.dmi.commit_log_with_aux(vfs, log, aux.as_slice())?;
        match outcome {
            trim::CommitOutcome::NeedsFullSnapshot => self.compact(vfs)?,
            // A frame carrying aux is never clean, so the sidecar rode it.
            trim::CommitOutcome::Committed { .. } => self.marks.mark_persisted(),
            trim::CommitOutcome::Clean => {}
        }
        Ok(outcome)
    }

    /// Fold the log into a fresh snapshot of the combined pad file
    /// (store *and* marks) and reset the log to an empty generation.
    /// Crash-consistent at every step; run when
    /// [`should_compact`](PadSession::should_compact) reports true.
    pub fn compact(&mut self, vfs: &dyn Vfs) -> Result<(), PadError> {
        if self.log.is_none() {
            return Err(no_log_error());
        }
        let payload = self.save_xml();
        let log = self.log.as_mut().expect("checked above");
        self.dmi.compact_log_with(vfs, log, &payload)?;
        self.marks.mark_persisted();
        Ok(())
    }

    /// Truncate any unacknowledged log suffix a failed
    /// [`commit`](PadSession::commit) may have left on disk — a torn
    /// append can land the doomed frame fully readable, and a cold
    /// reopen would adopt the refused batch as real history. No-op on
    /// unlogged sessions and on clean tails.
    pub fn repair_log(&mut self, vfs: &dyn Vfs) -> Result<(), PadError> {
        if let Some(log) = self.log.as_mut() {
            self.dmi.repair_log(vfs, log)?;
        }
        Ok(())
    }

    /// True when this is a logged session whose log has outgrown its
    /// compaction threshold.
    pub fn should_compact(&self) -> bool {
        self.log.as_ref().is_some_and(|log| log.should_compact())
    }

    /// The attached write-ahead log, if this is a logged session.
    pub fn log(&self) -> Option<&trim::StoreLog> {
        self.log.as_ref()
    }

    /// Override the log-size threshold at which
    /// [`should_compact`](PadSession::should_compact) (and the
    /// `NeedsFullSnapshot` auto-compaction) trigger. No-op on unlogged
    /// sessions; soak harnesses lower it to exercise compaction cheaply.
    pub fn set_compact_threshold(&mut self, bytes: u64) {
        if let Some(log) = self.log.as_mut() {
            log.set_compact_threshold(bytes);
        }
    }

    /// Salvage a pad from a damaged file: recover what remains of the
    /// bundle tree and mark store instead of failing hard.
    ///
    /// Errors only when no session at all can be built — the file is
    /// unreadable, the root element never materialized, it declares a
    /// newer format than this build understands, or the `<store>`
    /// section (which holds the pad object itself) is gone.
    pub fn load_salvage(
        path: impl AsRef<Path>,
        manager: MarkManager,
    ) -> Result<Recovered<Self>, PadError> {
        Self::load_salvage_from(&StdVfs, path.as_ref(), manager)
    }

    /// [`load_salvage`](PadSession::load_salvage) through an explicit
    /// [`Vfs`] backend.
    pub fn load_salvage_from(
        vfs: &dyn Vfs,
        path: &Path,
        manager: MarkManager,
    ) -> Result<Recovered<Self>, PadError> {
        let (verdict, payload) = slimio::load_sealed(vfs, path)?;
        let mut recovered = Self::load_xml_salvage(&payload, manager)?;
        if verdict == Integrity::Corrupt {
            recovered.note("integrity check failed: checksum mismatch or truncation");
        }
        Ok(recovered)
    }

    /// Salvage a pad session from combined XML text.
    ///
    /// The `<store>` section is salvaged through the data layer (every
    /// readable triple survives); a damaged or missing `<marks>` section
    /// degrades to an empty mark store rather than refusing the load.
    /// Scraps whose marks did not survive stay on the pad as degraded
    /// scraps — their labels and layout are intact, only activation
    /// fails — and the report counts the dangling wires.
    pub fn load_xml_salvage(
        text: &str,
        mut manager: MarkManager,
    ) -> Result<Recovered<Self>, PadError> {
        let salvaged = xmlkit::parse_salvage(text);
        let root = match salvaged.root {
            Some(root) => root,
            None => {
                return Err(match salvaged.error {
                    Some(e) => PadError::File { message: e.to_string() },
                    None => PadError::File { message: "no root element".into() },
                })
            }
        };
        if root.name != "slimpad-file" {
            return Err(PadError::File { message: "not a SLIMPad file".into() });
        }
        check_version(&root)?;

        let mut recovered = Recovered::clean((), 0);
        if let Some(e) = &salvaged.error {
            recovered.note(format!("file damaged: {e}"));
        }

        // The store carries the pad object and bundle tree; without it
        // there is no session to build, so it alone is load-bearing.
        let store_xml = root
            .child("store")
            .ok_or_else(|| PadError::File { message: "missing <store>".into() })?
            .text();
        let store_rec = SlimPadDmi::load_xml_salvage(&store_xml)?;
        recovered.salvaged += store_rec.salvaged;
        recovered.lost += store_rec.lost;
        recovered.notes.extend(store_rec.notes);
        let (dmi, pads) = store_rec.value;
        let pad = *pads.first().ok_or_else(|| PadError::File {
            message: "pad file contains no SlimPad object".into(),
        })?;
        let root_bundle = dmi
            .pad(pad)?
            .root_bundle
            .ok_or_else(|| PadError::File { message: "pad has no root bundle".into() })?;

        // Marks are individually expendable: a scrap without its mark is
        // degraded (no wire back to the source), not gone.
        match root.child("marks") {
            Some(m) => match manager.load_xml_salvage(&m.text()) {
                Ok(marks_rec) => {
                    recovered.salvaged += marks_rec.salvaged;
                    recovered.lost += marks_rec.lost;
                    recovered.notes.extend(marks_rec.notes);
                }
                Err(e) => {
                    recovered.note(format!(
                        "marks section unrecoverable ({e}); continuing without marks"
                    ));
                }
            },
            None => recovered.note("marks section missing; continuing without marks"),
        }

        let session = PadSession {
            dmi,
            pad,
            root: root_bundle,
            marks: manager,
            resolver: ResilientResolver::default(),
            undo_stack: Vec::new(),
            log: None,
        };

        let mut dangling = 0usize;
        for scrap in session.dmi.all_scraps() {
            let Ok(data) = session.dmi.scrap(scrap) else { continue };
            for handle in &data.marks {
                let Ok(mh) = session.dmi.mark_handle(*handle) else { continue };
                if session.marks.get(&mh.mark_id).is_err() {
                    dangling += 1;
                }
            }
        }
        if dangling > 0 {
            recovered.note(format!(
                "{dangling} scrap mark reference(s) dangle; those scraps are \
                 degraded but still on the pad"
            ));
        }
        Ok(recovered.map(|()| session))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basedocs::spreadsheet::Workbook;
    use basedocs::{BaseApplication, SpreadsheetApp, XmlApp};
    use marks::AppModule;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn apps() -> (Rc<RefCell<SpreadsheetApp>>, Rc<RefCell<XmlApp>>) {
        let mut wb = Workbook::new("medications.xls");
        let sheet = wb.sheet_mut("Sheet1").unwrap();
        sheet.set_a1("A1", "Lasix 40 IV bid").unwrap();
        sheet.set_a1("A2", "Captopril 12.5 tid").unwrap();
        let mut excel = SpreadsheetApp::new();
        excel.open(wb).unwrap();
        let mut xml = XmlApp::new();
        xml.open_text(
            "labs.xml",
            "<labs><na>140</na><k>4.1</k><cl>102</cl></labs>",
        )
        .unwrap();
        (Rc::new(RefCell::new(excel)), Rc::new(RefCell::new(xml)))
    }

    fn session() -> (PadSession, Rc<RefCell<SpreadsheetApp>>, Rc<RefCell<XmlApp>>) {
        let (excel, xml) = apps();
        let mut pad = PadSession::new("Rounds").unwrap();
        pad.marks_mut()
            .register_module(Box::new(AppModule::in_context("excel", Rc::clone(&excel))))
            .unwrap();
        pad.marks_mut()
            .register_module(Box::new(AppModule::in_place("excel-viewer", Rc::clone(&excel))))
            .unwrap();
        pad.marks_mut()
            .register_module(Box::new(AppModule::in_context("xml", Rc::clone(&xml))))
            .unwrap();
        (pad, excel, xml)
    }

    #[test]
    fn place_selection_creates_wired_scrap() {
        let (mut pad, excel, _) = session();
        excel.borrow_mut().select("medications.xls", "Sheet1", "A1").unwrap();
        let john = pad.create_bundle("John Smith", (10, 10), 400, 300, None).unwrap();
        let scrap = pad
            .place_selection(DocKind::Spreadsheet, None, (20, 40), Some(john))
            .unwrap();
        // Default label is the excerpt.
        assert_eq!(pad.dmi().scrap(scrap).unwrap().name, "Lasix 40 IV bid");
        // Activation drives the base app back to the marked cell.
        excel.borrow_mut().select("medications.xls", "Sheet1", "A2").unwrap();
        let res = pad.activate(scrap).unwrap();
        assert!(res.display.contains("[Lasix 40 IV bid]"), "{}", res.display);
        assert_eq!(
            excel.borrow().current_selection().unwrap().to_string(),
            "medications.xls!Sheet1!A1"
        );
    }

    #[test]
    fn custom_labels_differ_from_content() {
        let (mut pad, excel, _) = session();
        excel.borrow_mut().select("medications.xls", "Sheet1", "A2").unwrap();
        let scrap = pad
            .place_selection(DocKind::Spreadsheet, Some("ACE inhibitor"), (0, 0), None)
            .unwrap();
        assert_eq!(pad.dmi().scrap(scrap).unwrap().name, "ACE inhibitor");
        assert_eq!(pad.extract(scrap).unwrap(), "Captopril 12.5 tid");
    }

    #[test]
    fn activate_with_uses_alternate_module() {
        let (mut pad, excel, _) = session();
        excel.borrow_mut().select("medications.xls", "Sheet1", "A1").unwrap();
        let scrap = pad.place_selection(DocKind::Spreadsheet, None, (0, 0), None).unwrap();
        let res = pad.activate_with(scrap, "excel-viewer").unwrap();
        assert_eq!(res.display, "Lasix 40 IV bid");
    }

    #[test]
    fn gridlet_detected_from_scrap_positions() {
        let (mut pad, _, xml) = session();
        let electro = pad.create_bundle("Electrolyte", (200, 60), 180, 160, None).unwrap();
        for (path, pos) in [
            ("/labs/na", (210, 80)),
            ("/labs/cl", (270, 80)),
            ("/labs/k", (210, 110)),
        ] {
            xml.borrow_mut().select_by_path("labs.xml", path).unwrap();
            pad.place_selection(DocKind::Xml, None, pos, Some(electro)).unwrap();
        }
        let grid = pad.detect_gridlet(electro, 5).unwrap();
        assert_eq!(grid.rows.len(), 1, "{grid:?}");
        assert_eq!(grid.columns.len(), 1, "{grid:?}");
        assert!(grid.has_structure());
    }

    #[test]
    fn composite_scraps_resolve_all_marks() {
        let (mut pad, excel, xml) = session();
        excel.borrow_mut().select("medications.xls", "Sheet1", "A1").unwrap();
        let scrap = pad
            .place_selection(DocKind::Spreadsheet, Some("CHF therapy"), (10, 30), None)
            .unwrap();
        // Add a second wire: the potassium the diuretic threatens.
        xml.borrow_mut().select_by_path("labs.xml", "/labs/k").unwrap();
        pad.add_selection_to_scrap(scrap, DocKind::Xml).unwrap();

        let resolutions = pad.activate_all(scrap).unwrap();
        assert_eq!(resolutions.len(), 2);
        assert!(resolutions[0].display.contains("[Lasix 40 IV bid]"), "{}", resolutions[0].display);
        assert!(resolutions[1].display.contains(">>"), "{}", resolutions[1].display);
        // The pad stays conformant with multi-mark scraps.
        assert!(pad.dmi().check().is_conformant());
    }

    #[test]
    fn save_load_roundtrip_with_marks() {
        let (mut pad, excel, _) = session();
        excel.borrow_mut().select("medications.xls", "Sheet1", "A1").unwrap();
        let john = pad.create_bundle("John Smith", (10, 10), 400, 300, None).unwrap();
        let scrap = pad.place_selection(DocKind::Spreadsheet, None, (20, 40), Some(john)).unwrap();
        pad.dmi_mut().add_annotation(scrap, "hold if SBP < 90").unwrap();
        let xml_text = pad.save_xml();

        // Reload against a fresh manager wired to the same live apps.
        let mut manager = MarkManager::new();
        manager
            .register_module(Box::new(AppModule::in_context("excel", Rc::clone(&excel))))
            .unwrap();
        let mut pad2 = PadSession::load_xml(&xml_text, manager).unwrap();
        assert_eq!(pad2.dmi().pad(pad2.pad()).unwrap().name, "Rounds");
        let root = pad2.root_bundle();
        let bundles = pad2.dmi().bundle(root).unwrap().nested;
        assert_eq!(bundles.len(), 1);
        let scraps = pad2.dmi().bundle(bundles[0]).unwrap().scraps;
        assert_eq!(scraps.len(), 1);
        assert_eq!(pad2.dmi().scrap(scraps[0]).unwrap().name, "Lasix 40 IV bid");
        assert_eq!(
            pad2.dmi().annotations(scraps[0]).unwrap(),
            vec!["hold if SBP < 90"]
        );
        // The reloaded mark still resolves against the live application.
        let res = pad2.activate(scraps[0]).unwrap();
        assert!(res.display.contains("[Lasix 40 IV bid]"));
    }

    #[test]
    fn load_rejects_malformed_files() {
        let manager = MarkManager::new();
        assert!(matches!(
            PadSession::load_xml("<nope/>", manager),
            Err(PadError::File { .. })
        ));
        let manager = MarkManager::new();
        assert!(matches!(
            PadSession::load_xml("not xml", manager),
            Err(PadError::File { .. })
        ));
        let manager = MarkManager::new();
        assert!(matches!(
            PadSession::load_xml(r#"<slimpad-file version="1"/>"#, manager),
            Err(PadError::File { .. })
        ));
    }

    #[test]
    fn save_load_via_file() {
        let dir = std::env::temp_dir().join("slimpad-session-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rounds.slimpad.xml");
        let (pad, excel, _) = session();
        pad.save(&path).unwrap();
        let mut manager = MarkManager::new();
        manager
            .register_module(Box::new(AppModule::in_context("excel", excel)))
            .unwrap();
        let pad2 = PadSession::load(&path, manager).unwrap();
        assert_eq!(pad2.dmi().pad(pad2.pad()).unwrap().name, "Rounds");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn newer_version_is_a_typed_refusal() {
        let text = r#"<slimpad-file version="99"><store>s</store><marks>m</marks></slimpad-file>"#;
        assert!(matches!(
            PadSession::load_xml(text, MarkManager::new()),
            Err(PadError::UnsupportedVersion { supported: 1, .. })
        ));
        // Salvage does not override the version gate: a future format
        // is refused, not half-understood.
        assert!(matches!(
            PadSession::load_xml_salvage(text, MarkManager::new()),
            Err(PadError::UnsupportedVersion { supported: 1, .. })
        ));
    }

    #[test]
    fn saved_files_are_sealed_and_load_back() {
        use slimio::MemVfs;
        let (mut pad, excel, _) = session();
        excel.borrow_mut().select("medications.xls", "Sheet1", "A1").unwrap();
        pad.place_selection(DocKind::Spreadsheet, None, (20, 40), None).unwrap();

        let vfs = MemVfs::new();
        let path = Path::new("rounds.slimpad.xml");
        pad.save_to(&vfs, path).unwrap();
        let bytes = vfs.bytes(path).unwrap();
        assert!(
            String::from_utf8_lossy(&bytes).contains("<!--slimio v1 crc32="),
            "saved pad should carry a seal footer"
        );

        let mut manager = MarkManager::new();
        manager
            .register_module(Box::new(AppModule::in_context("excel", excel)))
            .unwrap();
        let pad2 = PadSession::load_from(&vfs, path, manager).unwrap();
        assert_eq!(pad2.stats().scraps, 1);
        assert_eq!(pad2.stats().marks, 1);
    }

    #[test]
    fn crash_during_save_preserves_previous_file() {
        use slimio::{FaultConfig, FaultMode, FaultOp, FaultVfs, MemVfs};
        let path = Path::new("rounds.slimpad.xml");
        let (pad_v1, _, _) = session();
        let (mut pad_v2, excel, _) = session();
        excel.borrow_mut().select("medications.xls", "Sheet1", "A2").unwrap();
        pad_v2.place_selection(DocKind::Spreadsheet, None, (5, 5), None).unwrap();

        for op in [FaultOp::Write, FaultOp::Sync, FaultOp::Rename] {
            for mode in [FaultMode::Fail, FaultMode::Torn] {
                let base = MemVfs::new();
                pad_v1.save_to(&base, path).unwrap();
                let vfs = FaultVfs::new(
                    base,
                    FaultConfig { op, mode, index: 0, seed: 7, halt_after_fault: true },
                );
                let _ = pad_v2.save_to(&vfs, path);
                // Whatever happened mid-save, the previous pad is intact.
                let vfs = vfs.into_inner();
                let pad =
                    PadSession::load_from(&vfs, path, MarkManager::new()).unwrap();
                assert_eq!(pad.stats().scraps, 0, "op {op:?} mode {mode:?}");
            }
        }
    }

    #[test]
    fn corrupt_file_refused_strictly_but_salvageable() {
        use slimio::MemVfs;
        let (mut pad, excel, _) = session();
        excel.borrow_mut().select("medications.xls", "Sheet1", "A1").unwrap();
        pad.place_selection(DocKind::Spreadsheet, None, (20, 40), None).unwrap();

        let vfs = MemVfs::new();
        let path = Path::new("rounds.slimpad.xml");
        pad.save_to(&vfs, path).unwrap();
        // Flip one payload byte behind the seal's back.
        let mut bytes = vfs.bytes(path).unwrap().to_vec();
        let i = bytes.iter().position(|&b| b == b'R').unwrap(); // "Rounds"
        bytes[i] = b'W';
        vfs.write(path, &bytes).unwrap();

        assert!(matches!(
            PadSession::load_from(&vfs, path, MarkManager::new()),
            Err(PadError::Corrupt { .. })
        ));
        let rec = PadSession::load_salvage_from(&vfs, path, MarkManager::new()).unwrap();
        assert!(rec.notes.iter().any(|n| n.contains("integrity check failed")), "{rec}");
        assert_eq!(rec.value.stats().scraps, 1);
    }

    #[test]
    fn lost_marks_leave_degraded_scraps_not_load_errors() {
        let (mut pad, excel, _) = session();
        excel.borrow_mut().select("medications.xls", "Sheet1", "A1").unwrap();
        let scrap_label = "Lasix 40 IV bid";
        pad.place_selection(DocKind::Spreadsheet, None, (20, 40), None).unwrap();
        let xml_text = pad.save_xml();

        // Rip out the whole marks section, as a mid-file tear would.
        let start = xml_text.find("<marks>").unwrap();
        let end = xml_text.find("</marks>").unwrap() + "</marks>".len();
        let mangled = format!("{}{}", &xml_text[..start], &xml_text[end..]);

        let rec = PadSession::load_xml_salvage(&mangled, MarkManager::new()).unwrap();
        assert!(rec.notes.iter().any(|n| n.contains("marks section missing")), "{rec}");
        assert!(rec.notes.iter().any(|n| n.contains("dangle")), "{rec}");
        let mut session = rec.value;
        // The scrap survives with its label and layout — only the wire
        // back to the source is gone.
        let scraps = session.dmi().all_scraps();
        assert_eq!(scraps.len(), 1);
        assert_eq!(session.dmi().scrap(scraps[0]).unwrap().name, scrap_label);
        assert!(matches!(
            session.activate(scraps[0]),
            Err(PadError::Mark(MarkError::UnknownMark { .. }))
        ));
    }

    #[test]
    fn every_truncation_of_a_saved_pad_loads_salvages_or_errors() {
        // A minimal pad keeps the exhaustive sweep fast while still
        // cutting through every structural region of the file (prolog,
        // root tag, store, marks, seal footer). The integration suite
        // sweeps a populated pad at sampled offsets.
        let pad = PadSession::new("Rounds").unwrap();
        let sealed = slimio::seal(&pad.save_xml());
        for cut in 0..=sealed.len() {
            if !sealed.is_char_boundary(cut) {
                continue;
            }
            let prefix = &sealed[..cut];
            // Strict load must refuse gracefully or succeed — and
            // salvage must never panic either.
            let _ = PadSession::load_xml(prefix, MarkManager::new());
            let _ = PadSession::load_xml_salvage(prefix, MarkManager::new());
        }
    }

    /// A fresh manager wired to the same live spreadsheet, for reloads.
    fn reload_manager(excel: &Rc<RefCell<SpreadsheetApp>>) -> MarkManager {
        let mut manager = MarkManager::new();
        manager
            .register_module(Box::new(AppModule::in_context("excel", Rc::clone(excel))))
            .unwrap();
        manager
    }

    /// Names of the bundles nested directly on the pad surface.
    fn surface_bundles(pad: &PadSession) -> Vec<String> {
        pad.dmi()
            .bundle(pad.root_bundle())
            .unwrap()
            .nested
            .iter()
            .map(|&b| pad.dmi().bundle(b).unwrap().name.clone())
            .collect()
    }

    #[test]
    fn logged_session_commits_deltas_and_recovers() {
        use slimio::MemVfs;
        let path = Path::new("rounds.slimpad.xml");
        let vfs = MemVfs::new();
        let (mut pad, excel, _) = session();
        pad.enable_logging(&vfs, path).unwrap();

        excel.borrow_mut().select("medications.xls", "Sheet1", "A1").unwrap();
        let john = pad.create_bundle("John Smith", (10, 10), 400, 300, None).unwrap();
        let scrap =
            pad.place_selection(DocKind::Spreadsheet, None, (20, 40), Some(john)).unwrap();
        let snapshot_before = vfs.bytes(path).unwrap().to_vec();
        assert!(matches!(
            pad.commit(&vfs).unwrap(),
            trim::CommitOutcome::Committed { .. }
        ));
        // The delta went to the log; the snapshot was not rewritten.
        assert_eq!(vfs.bytes(path).unwrap(), &snapshot_before[..]);

        pad.dmi_mut().add_annotation(scrap, "hold if SBP < 90").unwrap();
        assert!(matches!(
            pad.commit(&vfs).unwrap(),
            trim::CommitOutcome::Committed { .. }
        ));
        // Nothing changed since: a clean commit writes nothing.
        let log_len = pad.log().unwrap().log_bytes();
        assert!(matches!(pad.commit(&vfs).unwrap(), trim::CommitOutcome::Clean));
        assert_eq!(pad.log().unwrap().log_bytes(), log_len);

        let (mut pad2, report) =
            PadSession::open_logged(&vfs, path, reload_manager(&excel)).unwrap();
        assert_eq!(report.frames_replayed, 2);
        assert_eq!(pad2.stats().scraps, 1);
        assert_eq!(pad2.stats().marks, 1);
        let scraps = pad2.dmi().all_scraps();
        assert_eq!(
            pad2.dmi().annotations(scraps[0]).unwrap(),
            vec!["hold if SBP < 90"]
        );
        // The mark came back through the sidecar and still resolves live.
        let res = pad2.activate(scraps[0]).unwrap();
        assert!(res.display.contains("[Lasix 40 IV bid]"), "{}", res.display);
    }

    #[test]
    fn crashed_commit_recovers_an_acknowledged_session() {
        use slimio::{FaultConfig, FaultMode, FaultOp, FaultVfs, MemVfs};
        let path = Path::new("rounds.slimpad.xml");
        for op in [FaultOp::Append, FaultOp::Sync] {
            for mode in [FaultMode::Fail, FaultMode::Torn] {
                for seed in 0..4u64 {
                    let base = MemVfs::new();
                    let (mut pad, excel, _) = session();
                    pad.enable_logging(&base, path).unwrap();
                    excel.borrow_mut().select("medications.xls", "Sheet1", "A1").unwrap();
                    let john =
                        pad.create_bundle("John Smith", (10, 10), 400, 300, None).unwrap();
                    pad.place_selection(DocKind::Spreadsheet, None, (20, 40), Some(john))
                        .unwrap();
                    pad.commit(&base).unwrap();

                    // An unacknowledged batch dies with the process.
                    pad.create_bundle("Unacked", (50, 50), 100, 100, None).unwrap();
                    let config = FaultConfig::new(op, mode, 0, seed).halting();
                    let vfs = FaultVfs::new(base, config);
                    assert!(pad.commit(&vfs).is_err());
                    assert!(vfs.fault_fired());

                    let disk = vfs.into_inner();
                    let (mut pad2, _) =
                        PadSession::open_logged(&disk, path, reload_manager(&excel))
                            .unwrap();
                    // Recovery lands on the acknowledged commit — or, if a
                    // torn append happened to land the whole frame, on the
                    // complete attempted batch. Never anything partial.
                    let names = surface_bundles(&pad2);
                    assert!(
                        names == ["John Smith"] || names == ["John Smith", "Unacked"],
                        "{op:?}/{mode:?}/{seed}: {names:?}"
                    );
                    assert_eq!(pad2.stats().scraps, 1, "{op:?}/{mode:?}/{seed}");
                    assert_eq!(pad2.stats().marks, 1, "{op:?}/{mode:?}/{seed}");
                    let scraps = pad2.dmi().all_scraps();
                    let res = pad2.activate(scraps[0]).unwrap();
                    assert!(res.display.contains("[Lasix 40 IV bid]"));
                }
            }
        }
    }

    #[test]
    fn commit_after_cross_boundary_undo_compacts_internally() {
        use slimio::MemVfs;
        let path = Path::new("rounds.slimpad.xml");
        let vfs = MemVfs::new();
        let (mut pad, _, _) = session();
        pad.enable_logging(&vfs, path).unwrap();

        pad.begin_op();
        pad.create_bundle("Oops", (0, 0), 10, 10, None).unwrap();
        pad.commit(&vfs).unwrap();
        // Undo back across the acknowledged commit: the journal suffix no
        // longer describes the delta, so commit falls back to compaction.
        assert!(pad.undo().unwrap());
        pad.create_bundle("Kept", (5, 5), 10, 10, None).unwrap();
        let outcome = pad.commit(&vfs).unwrap();
        assert_eq!(outcome, trim::CommitOutcome::NeedsFullSnapshot);

        // The state is durable regardless: reopen sees it, from the
        // snapshot alone (the compaction reset the log).
        let (pad2, report) =
            PadSession::open_logged(&vfs, path, MarkManager::new()).unwrap();
        assert_eq!(report.frames_replayed, 0);
        assert_eq!(surface_bundles(&pad2), ["Kept"]);
    }

    /// Commit a marks-free change on `pad` and assert the frame carries
    /// no marks sidecar (it would be a whole mark-store copy).
    fn assert_marks_free_commit(pad: &mut PadSession, vfs: &slimio::MemVfs, path: &Path) {
        pad.create_bundle("B", (0, 0), 10, 10, None).unwrap();
        let wal_file = trim::StoreLog::wal_path(path);
        let before = vfs.bytes(&wal_file).unwrap().len();
        pad.commit(vfs).unwrap();
        let frame = &vfs.bytes(&wal_file).unwrap()[before..];
        assert!(!frame.is_empty(), "the bundle must commit");
        assert!(
            !frame.windows(b"<marks".len()).any(|w| w == b"<marks"),
            "marks sidecar should not ride a marks-free commit"
        );
    }

    #[test]
    fn compaction_folds_marks_into_the_snapshot() {
        use slimio::MemVfs;
        let path = Path::new("rounds.slimpad.xml");
        let vfs = MemVfs::new();
        let (mut pad, excel, _) = session();
        pad.enable_logging(&vfs, path).unwrap();
        excel.borrow_mut().select("medications.xls", "Sheet1", "A1").unwrap();
        pad.place_selection(DocKind::Spreadsheet, None, (20, 40), None).unwrap();
        pad.commit(&vfs).unwrap();
        drop(pad);

        // Reopen from a log that carried the sidecar: the recovered marks
        // count as persisted, so the next commit does not re-ship them.
        let (mut pad, report) =
            PadSession::open_logged(&vfs, path, reload_manager(&excel)).unwrap();
        assert_eq!(report.frames_replayed, 1);
        assert!(report.aux.contains_key(MARKS_AUX_KEY));
        assert_marks_free_commit(&mut pad, &vfs, path);

        let log_len = pad.log().unwrap().log_bytes();
        pad.compact(&vfs).unwrap();
        assert!(pad.log().unwrap().log_bytes() < log_len);

        let (mut pad2, report) =
            PadSession::open_logged(&vfs, path, reload_manager(&excel)).unwrap();
        assert_eq!(report.frames_replayed, 0);
        assert_eq!(pad2.stats().marks, 1);
        let scraps = pad2.dmi().all_scraps();
        let res = pad2.activate(scraps[0]).unwrap();
        assert!(res.display.contains("[Lasix 40 IV bid]"));
        // Marks unchanged since the compaction: no sidecar either.
        assert_marks_free_commit(&mut pad2, &vfs, path);
    }

    #[test]
    fn a_replaced_mark_manager_is_committed_and_recovered() {
        use slimio::MemVfs;
        let path = Path::new("rounds.slimpad.xml");
        let vfs = MemVfs::new();
        let (mut pad, excel, _) = session();
        excel.borrow_mut().select("medications.xls", "Sheet1", "A1").unwrap();
        pad.place_selection(DocKind::Spreadsheet, None, (20, 40), None).unwrap();
        pad.enable_logging(&vfs, path).unwrap();

        // Swap in a whole new store with no other change to the pad.
        let mut manager = reload_manager(&excel);
        excel.borrow_mut().select("medications.xls", "Sheet1", "A2").unwrap();
        manager.create_mark(DocKind::Spreadsheet).unwrap();
        manager.create_mark(DocKind::Spreadsheet).unwrap();
        *pad.marks_mut() = manager;
        assert!(matches!(pad.commit(&vfs).unwrap(), trim::CommitOutcome::Committed { .. }));
        assert!(matches!(pad.commit(&vfs).unwrap(), trim::CommitOutcome::Clean));

        let (pad2, _) = PadSession::open_logged(&vfs, path, reload_manager(&excel)).unwrap();
        assert_eq!(pad2.stats().marks, 2);
        assert_eq!(pad2.marks().to_xml(), pad.marks().to_xml());
    }

    #[test]
    fn a_rolled_back_mark_change_is_committed_and_recovered() {
        use slimio::MemVfs;
        let path = Path::new("rounds.slimpad.xml");
        let vfs = MemVfs::new();
        let (mut pad, excel, _) = session();
        pad.enable_logging(&vfs, path).unwrap();
        excel.borrow_mut().select("medications.xls", "Sheet1", "A1").unwrap();
        let id = pad.marks_mut().create_mark(DocKind::Spreadsheet).unwrap();
        let address = pad.marks().get(&id).unwrap().address.clone();
        pad.commit(&vfs).unwrap();

        let checkpoint = pad.marks_mut().checkpoint();
        pad.marks_mut().create_mark_at(address).unwrap();
        pad.commit(&vfs).unwrap();
        // The log now holds a two-mark store; the live one goes back to one.
        pad.marks_mut().rollback_to(checkpoint);
        pad.commit(&vfs).unwrap();

        let (pad2, _) = PadSession::open_logged(&vfs, path, reload_manager(&excel)).unwrap();
        assert_eq!(pad2.stats().marks, 1);
        assert_eq!(pad2.marks().to_xml(), pad.marks().to_xml());
    }

    #[test]
    fn log_operations_without_a_log_are_typed_errors() {
        use slimio::MemVfs;
        let vfs = MemVfs::new();
        let (mut pad, _, _) = session();
        assert!(matches!(pad.commit(&vfs), Err(PadError::File { .. })));
        assert!(matches!(pad.compact(&vfs), Err(PadError::File { .. })));
        assert!(!pad.should_compact());
        assert!(pad.log().is_none());
    }

    #[test]
    fn pad_stays_conformant_through_a_session() {
        let (mut pad, excel, xml) = session();
        excel.borrow_mut().select("medications.xls", "Sheet1", "A1").unwrap();
        let john = pad.create_bundle("John Smith", (10, 10), 400, 300, None).unwrap();
        let s1 = pad.place_selection(DocKind::Spreadsheet, None, (20, 40), Some(john)).unwrap();
        xml.borrow_mut().select_by_path("labs.xml", "/labs/k").unwrap();
        let s2 = pad.place_selection(DocKind::Xml, Some("K 4.1"), (30, 70), Some(john)).unwrap();
        pad.dmi_mut().link_scraps(s1, s2).unwrap();
        pad.dmi_mut().update_scrap_pos(s2, (35, 75)).unwrap();
        pad.dmi_mut().delete_scrap(s1).unwrap();
        let report = pad.dmi().check();
        assert!(report.is_conformant(), "{:?}", report.violations);
    }
}
