//! The Mark Manager: registry, storage, audit, and persistence.

use crate::error::MarkError;
use crate::mark::{Mark, MarkAddress, MarkId};
use crate::module::{MarkModule, Resolution};
use basedocs::DocKind;
use slimio::{Integrity, Recovered, StdVfs, Vfs};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::path::Path;
use xmlkit::{Element, XmlWriter};

/// On-disk format version for the mark store.
const FORMAT_VERSION: &str = "1";

/// Highest format version this build can read.
const SUPPORTED_VERSION: u32 = 1;

/// Version gate shared by strict and salvage loading.
fn check_version(root: &Element) -> Result<(), MarkError> {
    match root.attr("version") {
        Some(FORMAT_VERSION) => Ok(()),
        Some(other) => match other.trim().parse::<u32>() {
            Ok(n) if n > SUPPORTED_VERSION => Err(MarkError::UnsupportedVersion {
                found: other.to_string(),
                supported: SUPPORTED_VERSION,
            }),
            _ => Err(MarkError::Format { message: "missing or unsupported version".into() }),
        },
        None => Err(MarkError::Format { message: "missing or unsupported version".into() }),
    }
}

/// Validate one `<mark>` record and convert it.
fn read_mark(m: &Element) -> Result<Mark, MarkError> {
    if m.name != "mark" {
        return Err(MarkError::Format { message: format!("unexpected element <{}>", m.name) });
    }
    let id = m
        .attr("id")
        .ok_or_else(|| MarkError::Format { message: "mark missing id".into() })?;
    let kind = m
        .attr("kind")
        .and_then(DocKind::from_id)
        .ok_or_else(|| MarkError::Format { message: format!("mark {id} has bad kind") })?;
    let excerpt = m.attr("excerpt").unwrap_or_default().to_string();
    let fields: Vec<(String, String)> = m
        .children_named("f")
        .map(|f| {
            f.attr("n").map(|n| (n.to_string(), f.text())).ok_or_else(|| MarkError::Format {
                message: format!("mark {id} has a field without a name"),
            })
        })
        .collect::<Result<_, _>>()?;
    let address = MarkAddress::from_fields(kind, &fields)
        .map_err(|e| MarkError::Format { message: format!("mark {id}: {e}") })?;
    Ok(Mark { mark_id: id.to_string(), address, excerpt })
}

/// Numeric suffix of a `mark:N` id, for recomputing `next` in salvage.
fn mark_id_number(id: &str) -> Option<u64> {
    id.strip_prefix("mark:").and_then(|n| n.parse().ok())
}

/// Per-kind mark counts, for displays and the E6 experiment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MarkStats {
    /// `(kind, number of marks)`, all kinds with at least one mark.
    pub per_kind: Vec<(DocKind, usize)>,
    /// Total marks stored.
    pub total: usize,
    /// Registered modules per kind.
    pub modules: Vec<(DocKind, usize)>,
}

/// One row of a dangling-mark audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarkAudit {
    pub mark_id: MarkId,
    pub kind: DocKind,
    /// Whether the address still resolves.
    pub live: bool,
    /// Whether the content at the address still matches the excerpt
    /// captured at creation (only meaningful when `live`). Drift is the
    /// transcription-error risk the paper's redundancy discussion warns
    /// about — the mark still resolves but the value changed.
    pub drifted: bool,
}

/// Outcome of a bulk excerpt refresh: which marks were re-captured,
/// which already matched, and which dangled (base content unreachable,
/// stale excerpt deliberately left in place).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefreshReport {
    /// Marks whose excerpt changed.
    pub refreshed: Vec<MarkId>,
    /// Marks whose excerpt already matched current base content.
    pub unchanged: Vec<MarkId>,
    /// Marks whose base content could not be read (dangling target or no
    /// module for the kind); their stored excerpt is untouched.
    pub dangling: Vec<MarkId>,
}

impl RefreshReport {
    /// True when every mark could be read from the base layer.
    pub fn is_clean(&self) -> bool {
        self.dangling.is_empty()
    }
}

impl fmt::Display for RefreshReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} refreshed, {} unchanged, {} dangling",
            self.refreshed.len(),
            self.unchanged.len(),
            self.dangling.len()
        )?;
        if !self.dangling.is_empty() {
            write!(f, " ({})", self.dangling.join(", "))?;
        }
        Ok(())
    }
}

/// A point [`MarkManager::rollback_to`] returns the mark store to,
/// taken by [`MarkManager::checkpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkCheckpoint {
    next_id: u64,
}

/// The Mark Manager (paper Figure 7).
///
/// "Since the specific addressing scheme of the base-layer information is
/// encapsulated within the mark, the Mark Manager can generically store
/// and retrieve all marks."
#[derive(Default)]
pub struct MarkManager {
    /// Modules by kind; the first registered module for a kind is its
    /// default.
    modules: HashMap<DocKind, Vec<Box<dyn MarkModule>>>,
    /// The mark store (sorted for deterministic iteration/persistence).
    marks: BTreeMap<MarkId, Mark>,
    next_id: u64,
    /// `(mark id, module name)` pairs, in resolution order — the audit
    /// trail of Figure 7's arrows.
    resolution_log: Vec<(MarkId, String)>,
    /// Undo journal of the open checkpoint: `(mark, its value before the
    /// change)` for every change since [`MarkManager::checkpoint`], in
    /// order. `None` until a checkpoint is taken, so callers that never
    /// take one record nothing.
    journal: Option<Vec<(MarkId, Option<Mark>)>>,
}

impl MarkManager {
    /// An empty manager with no modules registered.
    pub fn new() -> Self {
        Self::default()
    }

    // ---- module registry ---------------------------------------------------

    /// Register a module. The first module registered for a kind becomes
    /// that kind's default.
    ///
    /// # Errors
    ///
    /// Rejects a second module with the same `(kind, name)`.
    pub fn register_module(&mut self, module: Box<dyn MarkModule>) -> Result<(), MarkError> {
        let kind = module.kind();
        let entry = self.modules.entry(kind).or_default();
        if entry.iter().any(|m| m.module_name() == module.module_name()) {
            return Err(MarkError::Format {
                message: format!(
                    "module {:?} already registered for {kind}",
                    module.module_name()
                ),
            });
        }
        entry.push(module);
        Ok(())
    }

    /// Make a registered module the default for its kind (the module
    /// used by [`MarkManager::create_mark`] and [`MarkManager::resolve`]).
    pub fn set_default_module(&mut self, kind: DocKind, name: &str) -> Result<(), MarkError> {
        let modules = self.modules.get_mut(&kind).ok_or(MarkError::NoModule { kind })?;
        let idx = modules
            .iter()
            .position(|m| m.module_name() == name)
            .ok_or_else(|| MarkError::NoSuchModule { kind, module: name.to_string() })?;
        let module = modules.remove(idx);
        modules.insert(0, module);
        Ok(())
    }

    /// Kinds with at least one registered module.
    pub fn supported_kinds(&self) -> Vec<DocKind> {
        let mut kinds: Vec<DocKind> = self.modules.keys().copied().collect();
        kinds.sort_unstable();
        kinds
    }

    /// Name of the default module for a kind, if one is registered —
    /// lets the resilient resolver key its per-module circuit breakers
    /// without reaching into the registry.
    pub fn default_module_name(&self, kind: DocKind) -> Option<&str> {
        self.modules.get(&kind).and_then(|v| v.first()).map(|m| m.module_name())
    }

    fn default_module(&self, kind: DocKind) -> Result<&dyn MarkModule, MarkError> {
        self.modules
            .get(&kind)
            .and_then(|v| v.first())
            .map(|b| b.as_ref())
            .ok_or(MarkError::NoModule { kind })
    }

    fn named_module(&self, kind: DocKind, name: &str) -> Result<&dyn MarkModule, MarkError> {
        self.modules
            .get(&kind)
            .and_then(|v| v.iter().find(|m| m.module_name() == name))
            .map(|b| b.as_ref())
            .ok_or_else(|| MarkError::NoSuchModule { kind, module: name.to_string() })
    }

    // ---- mark creation -------------------------------------------------------

    /// Create a mark from the current selection of `kind`'s base
    /// application — the paper's creation flow: "Once the user has created
    /// a mark, it can be placed onto the SLIMPad".
    pub fn create_mark(&mut self, kind: DocKind) -> Result<MarkId, MarkError> {
        let module = self.default_module(kind)?;
        let address = module.address_from_selection()?;
        let excerpt = module.extract(&address).unwrap_or_default();
        Ok(self.store(address, excerpt))
    }

    /// Create a mark from an explicit address (programmatic callers and
    /// store loading).
    pub fn create_mark_at(&mut self, address: MarkAddress) -> Result<MarkId, MarkError> {
        let excerpt = match self.default_module(address.kind()) {
            Ok(module) => module.extract(&address).unwrap_or_default(),
            Err(_) => String::new(),
        };
        Ok(self.store(address, excerpt))
    }

    fn store(&mut self, address: MarkAddress, excerpt: String) -> MarkId {
        let mark_id = format!("mark:{}", self.next_id);
        self.next_id += 1;
        self.record(&mark_id);
        self.marks.insert(mark_id.clone(), Mark { mark_id: mark_id.clone(), address, excerpt });
        mark_id
    }

    // ---- mark access -----------------------------------------------------------

    /// Look up a mark by id.
    pub fn get(&self, mark_id: &str) -> Result<&Mark, MarkError> {
        self.marks
            .get(mark_id)
            .ok_or_else(|| MarkError::UnknownMark { mark_id: mark_id.to_string() })
    }

    /// All marks in id order.
    pub fn marks(&self) -> impl Iterator<Item = &Mark> {
        self.marks.values()
    }

    /// Number of stored marks.
    pub fn len(&self) -> usize {
        self.marks.len()
    }

    /// True if no marks are stored.
    pub fn is_empty(&self) -> bool {
        self.marks.is_empty()
    }

    /// Remove a mark, returning it.
    pub fn remove(&mut self, mark_id: &str) -> Result<Mark, MarkError> {
        self.record(mark_id);
        self.marks
            .remove(mark_id)
            .ok_or_else(|| MarkError::UnknownMark { mark_id: mark_id.to_string() })
    }

    // ---- resolution ----------------------------------------------------------

    /// Resolve a mark through its kind's default module — the
    /// double-click path of paper Figure 4.
    pub fn resolve(&mut self, mark_id: &str) -> Result<Resolution, MarkError> {
        let mark = self.get(mark_id)?;
        let address = mark.address.clone();
        let module = self.default_module(address.kind())?;
        let resolution = module.resolve(&address)?;
        let name = module.module_name().to_string();
        self.resolution_log.push((mark_id.to_string(), name));
        Ok(resolution)
    }

    /// Resolve through a specific module (e.g. the in-place viewer).
    pub fn resolve_with(&mut self, mark_id: &str, module_name: &str) -> Result<Resolution, MarkError> {
        let mark = self.get(mark_id)?;
        let address = mark.address.clone();
        let module = self.named_module(address.kind(), module_name)?;
        let resolution = module.resolve(&address)?;
        self.resolution_log.push((mark_id.to_string(), module_name.to_string()));
        Ok(resolution)
    }

    /// §6 extension: the marked element's current content.
    pub fn extract_content(&self, mark_id: &str) -> Result<String, MarkError> {
        let mark = self.get(mark_id)?;
        self.default_module(mark.kind())?.extract(&mark.address)
    }

    /// Current content at an arbitrary address (no mark needed) — used
    /// by the repair pass to vet re-bind candidates.
    pub fn extract_at(&self, address: &MarkAddress) -> Result<String, MarkError> {
        self.default_module(address.kind())?.extract(address)
    }

    /// Point an existing mark at a new address (repair re-bind). The
    /// excerpt is kept — a re-bind targets the address that still holds
    /// it. Returns the old address.
    pub fn rebind(&mut self, mark_id: &str, address: MarkAddress) -> Result<MarkAddress, MarkError> {
        self.record(mark_id);
        let mark = self
            .marks
            .get_mut(mark_id)
            .ok_or_else(|| MarkError::UnknownMark { mark_id: mark_id.to_string() })?;
        Ok(std::mem::replace(&mut mark.address, address))
    }

    /// The resolution audit trail.
    pub fn resolution_log(&self) -> &[(MarkId, String)] {
        &self.resolution_log
    }

    // ---- checkpoints ------------------------------------------------------------

    /// Open a checkpoint: from now on every change to the mark store is
    /// journaled so [`MarkManager::rollback_to`] can undo it. The journal
    /// holds one checkpoint's changes only; a new checkpoint forgets the
    /// previous one.
    pub fn checkpoint(&mut self) -> MarkCheckpoint {
        self.journal = Some(Vec::new());
        MarkCheckpoint { next_id: self.next_id }
    }

    /// Undo every change since `checkpoint`, which must be the most
    /// recent one. Cannot fail: the journal holds the prior values
    /// themselves. The checkpoint stays open.
    pub fn rollback_to(&mut self, checkpoint: MarkCheckpoint) {
        let undone = self.journal.replace(Vec::new()).unwrap_or_default();
        for (mark_id, prior) in undone.into_iter().rev() {
            match prior {
                Some(mark) => self.marks.insert(mark_id, mark),
                None => self.marks.remove(&mark_id),
            };
        }
        self.next_id = checkpoint.next_id;
    }

    /// Journal `mark_id`'s current value (or absence) before it changes.
    fn record(&mut self, mark_id: &str) {
        if let Some(journal) = &mut self.journal {
            journal.push((mark_id.to_string(), self.marks.get(mark_id).cloned()));
        }
    }

    /// Replace the whole store (loading), journaling what it replaces.
    fn install(&mut self, marks: BTreeMap<MarkId, Mark>, next_id: u64) {
        if let Some(journal) = &mut self.journal {
            journal.extend(self.marks.iter().map(|(id, m)| (id.clone(), Some(m.clone()))));
            journal.extend(
                marks.keys().filter(|id| !self.marks.contains_key(*id)).map(|id| (id.clone(), None)),
            );
        }
        self.marks = marks;
        self.next_id = next_id;
    }

    // ---- audit and stats ----------------------------------------------------

    /// Check every mark for liveness and content drift.
    pub fn audit(&self) -> Vec<MarkAudit> {
        self.marks
            .values()
            .map(|mark| {
                let (live, drifted) = match self.default_module(mark.kind()) {
                    Ok(module) => match module.extract(&mark.address) {
                        Ok(current) => (true, current != mark.excerpt),
                        Err(_) => (false, false),
                    },
                    Err(_) => (false, false),
                };
                MarkAudit { mark_id: mark.mark_id.clone(), kind: mark.kind(), live, drifted }
            })
            .collect()
    }

    /// Accept drift on one mark: re-capture its excerpt from the base
    /// document's current content. Returns the old excerpt.
    pub fn refresh_excerpt(&mut self, mark_id: &str) -> Result<String, MarkError> {
        let address = self.get(mark_id)?.address.clone();
        let module = self.default_module(address.kind())?;
        let current = module.extract(&address)?;
        self.record(mark_id);
        let mark = self
            .marks
            .get_mut(mark_id)
            .ok_or_else(|| MarkError::UnknownMark { mark_id: mark_id.to_string() })?;
        Ok(std::mem::replace(&mut mark.excerpt, current))
    }

    /// Accept drift everywhere: refresh every live mark's excerpt.
    /// Dangling marks are left untouched (their stale excerpt is the
    /// only content left) but *reported*, never silently skipped — the
    /// report's `dangling` ids are exactly the marks a repair pass
    /// should look at.
    pub fn refresh_all_excerpts(&mut self) -> RefreshReport {
        let ids: Vec<MarkId> = self.marks.keys().cloned().collect();
        let mut report = RefreshReport::default();
        for id in ids {
            match self.refresh_excerpt(&id) {
                Ok(old) => {
                    if self.get(&id).map(|m| m.excerpt != old).unwrap_or(false) {
                        report.refreshed.push(id);
                    } else {
                        report.unchanged.push(id);
                    }
                }
                Err(_) => report.dangling.push(id),
            }
        }
        report
    }

    /// Counts per kind and module registry size.
    pub fn stats(&self) -> MarkStats {
        let mut per_kind: BTreeMap<DocKind, usize> = BTreeMap::new();
        for mark in self.marks.values() {
            *per_kind.entry(mark.kind()).or_default() += 1;
        }
        let mut modules: Vec<(DocKind, usize)> =
            self.modules.iter().map(|(k, v)| (*k, v.len())).collect();
        modules.sort_unstable_by_key(|(k, _)| *k);
        MarkStats {
            per_kind: per_kind.into_iter().collect(),
            total: self.marks.len(),
            modules,
        }
    }

    // ---- persistence ----------------------------------------------------------

    /// Serialize the mark store (not the modules — those are code) to XML.
    pub fn to_xml(&self) -> String {
        let mut w = XmlWriter::compact();
        w.declaration();
        w.start("marks");
        w.attr("version", FORMAT_VERSION);
        w.attr("next", &self.next_id.to_string());
        for mark in self.marks.values() {
            w.start("mark");
            w.attr("id", &mark.mark_id);
            w.attr("kind", mark.kind().id());
            w.attr("excerpt", &mark.excerpt);
            for (name, value) in mark.address.to_fields() {
                w.start("f");
                w.attr("n", &name);
                w.text(&value);
                w.end();
            }
            w.end();
        }
        w.end();
        w.finish()
    }

    /// Load a mark store previously saved with [`MarkManager::to_xml`]
    /// into this manager (which supplies the modules). Existing marks are
    /// replaced.
    pub fn load_xml(&mut self, text: &str) -> Result<(), MarkError> {
        let doc = xmlkit::parse(text).map_err(|e| MarkError::Xml(e.to_string()))?;
        if doc.root.name != "marks" {
            return Err(MarkError::Format {
                message: format!("expected <marks>, found <{}>", doc.root.name),
            });
        }
        check_version(&doc.root)?;
        let next_id: u64 = doc
            .root
            .attr("next")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| MarkError::Format { message: "bad 'next' attribute".into() })?;
        let mut marks = BTreeMap::new();
        for m in doc.root.elements() {
            let mark = read_mark(m)?;
            marks.insert(mark.mark_id.clone(), mark);
        }
        self.install(marks, next_id);
        Ok(())
    }

    /// Salvage a mark store from possibly damaged XML text: keep every
    /// readable mark, count the rest as lost, and report what happened.
    /// Existing marks are replaced. Errors only when nothing at all is
    /// recoverable or the store declares a newer format version.
    pub fn load_xml_salvage(&mut self, text: &str) -> Result<Recovered<()>, MarkError> {
        let salvaged = xmlkit::parse_salvage(text);
        let root = match salvaged.root {
            Some(root) => root,
            None => {
                return Err(match salvaged.error {
                    Some(e) => MarkError::Xml(e.to_string()),
                    None => MarkError::Format { message: "no root element".into() },
                })
            }
        };
        if root.name != "marks" {
            return Err(MarkError::Format {
                message: format!("expected <marks>, found <{}>", root.name),
            });
        }
        check_version(&root)?;

        let mut recovered = Recovered::clean((), 0);
        if let Some(e) = &salvaged.error {
            recovered.note(format!("file damaged: {e}"));
        }
        let mut marks = BTreeMap::new();
        let mut max_id = None::<u64>;
        let children: Vec<&Element> = root.elements().collect();
        let suspect_last = salvaged.unclosed >= 2;
        for (i, m) in children.iter().enumerate() {
            if suspect_last && i + 1 == children.len() {
                recovered.lost += 1;
                recovered.note(format!("mark #{i} truncated mid-record; dropped"));
                continue;
            }
            match read_mark(m) {
                Ok(mark) => {
                    max_id = max_id.max(mark_id_number(&mark.mark_id));
                    marks.insert(mark.mark_id.clone(), mark);
                    recovered.salvaged += 1;
                }
                Err(e) => {
                    recovered.lost += 1;
                    recovered.note(format!("skipped unreadable mark: {e}"));
                }
            }
        }
        // The 'next' counter may itself be damaged: recompute a safe one
        // so newly created marks never collide with salvaged ids.
        let declared_next = root.attr("next").and_then(|n| n.parse::<u64>().ok());
        let floor = max_id.map(|n| n + 1).unwrap_or(0);
        let next_id = match declared_next {
            Some(n) if n >= floor => n,
            other => {
                recovered.note(format!(
                    "'next' counter {} repaired to {floor}",
                    other.map(|n| n.to_string()).unwrap_or_else(|| "missing".into())
                ));
                floor
            }
        };
        self.install(marks, next_id);
        Ok(recovered)
    }

    /// Write the mark store to a file: sealed with a checksum footer and
    /// installed atomically. A crash at any point leaves the previous
    /// file intact.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), MarkError> {
        self.save_to(&StdVfs, path.as_ref())
    }

    /// [`save`](MarkManager::save) through an explicit [`Vfs`] backend.
    pub fn save_to(&self, vfs: &dyn Vfs, path: &Path) -> Result<(), MarkError> {
        slimio::save_atomic(vfs, path, &self.to_xml())?;
        Ok(())
    }

    /// Load a mark store file saved by [`MarkManager::save`] into this
    /// manager (which supplies the modules). Strict: a file failing its
    /// integrity check is refused with [`MarkError::Corrupt`]; legacy
    /// files without a footer are trusted as-is.
    pub fn load_file(&mut self, path: impl AsRef<Path>) -> Result<(), MarkError> {
        self.load_file_from(&StdVfs, path.as_ref())
    }

    /// [`load_file`](MarkManager::load_file) through an explicit [`Vfs`].
    pub fn load_file_from(&mut self, vfs: &dyn Vfs, path: &Path) -> Result<(), MarkError> {
        let (verdict, payload) = slimio::load_sealed(vfs, path)?;
        if verdict == Integrity::Corrupt {
            return Err(MarkError::Corrupt {
                detail: format!("{} (checksum mismatch or truncation)", path.display()),
            });
        }
        self.load_xml(&payload)
    }

    /// Salvage a mark store file: recover every readable mark instead of
    /// failing hard.
    pub fn load_file_salvage(&mut self, path: impl AsRef<Path>) -> Result<Recovered<()>, MarkError> {
        self.load_file_salvage_from(&StdVfs, path.as_ref())
    }

    /// [`load_file_salvage`](MarkManager::load_file_salvage) through an
    /// explicit [`Vfs`] backend.
    pub fn load_file_salvage_from(
        &mut self,
        vfs: &dyn Vfs,
        path: &Path,
    ) -> Result<Recovered<()>, MarkError> {
        let (verdict, payload) = slimio::load_sealed(vfs, path)?;
        let mut recovered = self.load_xml_salvage(&payload)?;
        if verdict == Integrity::Corrupt {
            recovered.note("integrity check failed: checksum mismatch or truncation");
        }
        Ok(recovered)
    }
}

impl std::fmt::Debug for MarkManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MarkManager")
            .field("marks", &self.marks.len())
            .field("kinds", &self.supported_kinds())
            .field("next_id", &self.next_id)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{AppModule, ResolutionStyle};
    use basedocs::spreadsheet::Workbook;
    use basedocs::{SpreadsheetApp, XmlApp};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn manager_with_apps() -> (MarkManager, Rc<RefCell<SpreadsheetApp>>, Rc<RefCell<XmlApp>>) {
        let mut wb = Workbook::new("meds.xls");
        wb.sheet_mut("Sheet1").unwrap().set_a1("A1", "Lasix").unwrap();
        wb.sheet_mut("Sheet1").unwrap().set_a1("B1", "40").unwrap();
        let mut sheet_app = SpreadsheetApp::new();
        sheet_app.open(wb).unwrap();
        let sheet_app = Rc::new(RefCell::new(sheet_app));

        let mut xml_app = XmlApp::new();
        xml_app.open_text("labs.xml", "<labs><na>140</na><k>4.1</k></labs>").unwrap();
        let xml_app = Rc::new(RefCell::new(xml_app));

        let mut mgr = MarkManager::new();
        mgr.register_module(Box::new(AppModule::in_context("excel", Rc::clone(&sheet_app))))
            .unwrap();
        mgr.register_module(Box::new(AppModule::in_place(
            "excel-viewer",
            Rc::clone(&sheet_app),
        )))
        .unwrap();
        mgr.register_module(Box::new(AppModule::in_context("xml", Rc::clone(&xml_app))))
            .unwrap();
        (mgr, sheet_app, xml_app)
    }

    #[test]
    fn create_from_selection_and_resolve() {
        let (mut mgr, sheet_app, _) = manager_with_apps();
        sheet_app.borrow_mut().select("meds.xls", "Sheet1", "A1").unwrap();
        let id = mgr.create_mark(DocKind::Spreadsheet).unwrap();
        assert_eq!(id, "mark:0");
        assert_eq!(mgr.get(&id).unwrap().excerpt, "Lasix");

        let res = mgr.resolve(&id).unwrap();
        assert_eq!(res.style, ResolutionStyle::InContext);
        assert!(res.display.contains("[Lasix]"));
        assert_eq!(mgr.resolution_log(), &[(id, "excel".to_string())]);
    }

    #[test]
    fn create_without_selection_fails() {
        let (mut mgr, _, _) = manager_with_apps();
        assert!(matches!(
            mgr.create_mark(DocKind::Spreadsheet),
            Err(MarkError::Base(basedocs::DocError::NoSelection))
        ));
    }

    #[test]
    fn create_for_unregistered_kind_fails() {
        let (mut mgr, _, _) = manager_with_apps();
        assert!(matches!(
            mgr.create_mark(DocKind::Pdf),
            Err(MarkError::NoModule { kind: DocKind::Pdf })
        ));
    }

    #[test]
    fn duplicate_module_names_rejected() {
        let (mut mgr, sheet_app, _) = manager_with_apps();
        let err = mgr
            .register_module(Box::new(AppModule::in_context("excel", sheet_app)))
            .unwrap_err();
        assert!(err.to_string().contains("excel"));
    }

    #[test]
    fn default_module_can_be_switched() {
        let (mut mgr, sheet_app, _) = manager_with_apps();
        sheet_app.borrow_mut().select("meds.xls", "Sheet1", "B1").unwrap();
        let id = mgr.create_mark(DocKind::Spreadsheet).unwrap();
        assert_eq!(mgr.resolve(&id).unwrap().style, ResolutionStyle::InContext);
        mgr.set_default_module(DocKind::Spreadsheet, "excel-viewer").unwrap();
        assert_eq!(mgr.resolve(&id).unwrap().style, ResolutionStyle::InPlace);
        assert!(matches!(
            mgr.set_default_module(DocKind::Spreadsheet, "nope"),
            Err(MarkError::NoSuchModule { .. })
        ));
        assert!(matches!(
            mgr.set_default_module(DocKind::Pdf, "x"),
            Err(MarkError::NoModule { .. })
        ));
    }

    #[test]
    fn resolve_with_selects_alternate_module() {
        let (mut mgr, sheet_app, _) = manager_with_apps();
        sheet_app.borrow_mut().select("meds.xls", "Sheet1", "B1").unwrap();
        let id = mgr.create_mark(DocKind::Spreadsheet).unwrap();
        let res = mgr.resolve_with(&id, "excel-viewer").unwrap();
        assert_eq!(res.style, ResolutionStyle::InPlace);
        assert_eq!(res.display, "40");
        assert!(matches!(
            mgr.resolve_with(&id, "nope"),
            Err(MarkError::NoSuchModule { .. })
        ));
    }

    #[test]
    fn marks_across_kinds_coexist() {
        let (mut mgr, sheet_app, xml_app) = manager_with_apps();
        sheet_app.borrow_mut().select("meds.xls", "Sheet1", "A1").unwrap();
        let m1 = mgr.create_mark(DocKind::Spreadsheet).unwrap();
        xml_app.borrow_mut().select_by_path("labs.xml", "/labs/k").unwrap();
        let m2 = mgr.create_mark(DocKind::Xml).unwrap();
        assert_eq!(mgr.len(), 2);
        assert_eq!(mgr.extract_content(&m1).unwrap(), "Lasix");
        assert_eq!(mgr.extract_content(&m2).unwrap(), "4.1");
        let stats = mgr.stats();
        assert_eq!(stats.total, 2);
        assert_eq!(
            stats.per_kind,
            vec![(DocKind::Spreadsheet, 1), (DocKind::Xml, 1)]
        );
    }

    #[test]
    fn audit_reports_live_drifted_and_dangling() {
        let (mut mgr, sheet_app, xml_app) = manager_with_apps();
        sheet_app.borrow_mut().select("meds.xls", "Sheet1", "B1").unwrap();
        let healthy = mgr.create_mark(DocKind::Spreadsheet).unwrap();
        sheet_app.borrow_mut().select("meds.xls", "Sheet1", "A1").unwrap();
        let drifting = mgr.create_mark(DocKind::Spreadsheet).unwrap();
        xml_app.borrow_mut().select_by_path("labs.xml", "/labs/na").unwrap();
        let dangling = mgr.create_mark(DocKind::Xml).unwrap();

        // Drift: base value edited under the mark.
        sheet_app
            .borrow_mut()
            .workbook_mut("meds.xls")
            .unwrap()
            .sheet_mut("Sheet1")
            .unwrap()
            .set_a1("A1", "Furosemide")
            .unwrap();
        // Dangle: base document closed.
        xml_app.borrow_mut().close("labs.xml").unwrap();

        let audit = mgr.audit();
        let row = |id: &str| audit.iter().find(|a| a.mark_id == id).unwrap();
        assert!(row(&healthy).live && !row(&healthy).drifted);
        assert!(row(&drifting).live && row(&drifting).drifted);
        assert!(!row(&dangling).live);
    }

    #[test]
    fn refreshing_excerpts_accepts_drift() {
        let (mut mgr, sheet_app, _) = manager_with_apps();
        sheet_app.borrow_mut().select("meds.xls", "Sheet1", "A1").unwrap();
        let id = mgr.create_mark(DocKind::Spreadsheet).unwrap();
        sheet_app
            .borrow_mut()
            .workbook_mut("meds.xls")
            .unwrap()
            .sheet_mut("Sheet1")
            .unwrap()
            .set_a1("A1", "Furosemide")
            .unwrap();
        assert!(mgr.audit()[0].drifted);
        let old = mgr.refresh_excerpt(&id).unwrap();
        assert_eq!(old, "Lasix");
        assert_eq!(mgr.get(&id).unwrap().excerpt, "Furosemide");
        assert!(!mgr.audit()[0].drifted, "drift accepted");
        // A second refresh changes nothing.
        let report = mgr.refresh_all_excerpts();
        assert!(report.refreshed.is_empty());
        assert_eq!(report.unchanged, vec![id]);
        assert!(report.is_clean());
    }

    #[test]
    fn refresh_all_counts_only_real_changes() {
        let (mut mgr, sheet_app, xml_app) = manager_with_apps();
        sheet_app.borrow_mut().select("meds.xls", "Sheet1", "A1").unwrap();
        mgr.create_mark(DocKind::Spreadsheet).unwrap();
        xml_app.borrow_mut().select_by_path("labs.xml", "/labs/k").unwrap();
        mgr.create_mark(DocKind::Xml).unwrap();
        // Drift one of the two; close nothing.
        sheet_app
            .borrow_mut()
            .workbook_mut("meds.xls")
            .unwrap()
            .sheet_mut("Sheet1")
            .unwrap()
            .set_a1("A1", "Torsemide")
            .unwrap();
        let report = mgr.refresh_all_excerpts();
        assert_eq!(report.refreshed.len(), 1);
        assert_eq!(report.unchanged.len(), 1);
        assert!(report.is_clean());
        // Dangling marks are untouched — and reported, not hidden.
        xml_app.borrow_mut().close("labs.xml").unwrap();
        let report = mgr.refresh_all_excerpts();
        assert!(report.refreshed.is_empty());
        assert_eq!(report.unchanged.len(), 1);
        assert_eq!(report.dangling.len(), 1);
        assert!(!report.is_clean());
        assert!(report.to_string().contains("1 dangling"), "{report}");
    }

    #[test]
    fn refresh_excerpt_on_dangling_mark_errors_and_keeps_excerpt() {
        let (mut mgr, _, xml_app) = manager_with_apps();
        xml_app.borrow_mut().select_by_path("labs.xml", "/labs/k").unwrap();
        let id = mgr.create_mark(DocKind::Xml).unwrap();
        let excerpt = mgr.get(&id).unwrap().excerpt.clone();
        assert!(!excerpt.is_empty());
        xml_app.borrow_mut().close("labs.xml").unwrap();
        // The refresh fails loudly instead of blanking the excerpt…
        assert!(mgr.refresh_excerpt(&id).is_err());
        // …which is now the only copy of the marked content.
        assert_eq!(mgr.get(&id).unwrap().excerpt, excerpt);
    }

    #[test]
    fn rebind_repoints_a_mark_and_keeps_its_excerpt() {
        let (mut mgr, sheet_app, _) = manager_with_apps();
        sheet_app.borrow_mut().select("meds.xls", "Sheet1", "A1").unwrap();
        let id = mgr.create_mark(DocKind::Spreadsheet).unwrap();
        sheet_app.borrow_mut().select("meds.xls", "Sheet1", "B1").unwrap();
        let new_addr = mgr
            .modules
            .get(&DocKind::Spreadsheet)
            .and_then(|v| v.first())
            .unwrap()
            .address_from_selection()
            .unwrap();
        let old = mgr.rebind(&id, new_addr.clone()).unwrap();
        assert_eq!(old.to_string(), "meds.xls!Sheet1!A1");
        assert_eq!(mgr.get(&id).unwrap().address, new_addr);
        assert_eq!(mgr.get(&id).unwrap().excerpt, "Lasix", "rebind must not touch the excerpt");
        assert!(mgr.rebind("mark:99", new_addr).is_err());
    }

    #[test]
    fn rollback_to_restores_the_checkpointed_store_byte_for_byte() {
        let (mut mgr, sheet_app, xml_app) = manager_with_apps();
        let mut addresses = Vec::new();
        for cell in ["A1", "B1"] {
            sheet_app.borrow_mut().select("meds.xls", "Sheet1", cell).unwrap();
            let id = mgr.create_mark(DocKind::Spreadsheet).unwrap();
            addresses.push(mgr.get(&id).unwrap().address.clone());
        }
        for path in ["/labs/na", "/labs/k"] {
            xml_app.borrow_mut().select_by_path("labs.xml", path).unwrap();
            let id = mgr.create_mark(DocKind::Xml).unwrap();
            addresses.push(mgr.get(&id).unwrap().address.clone());
        }
        assert!(mgr.journal.is_none(), "no checkpoint taken, nothing recorded");
        // Drift one cell so refresh_excerpt really changes an excerpt.
        sheet_app
            .borrow_mut()
            .workbook_mut("meds.xls")
            .unwrap()
            .sheet_mut("Sheet1")
            .unwrap()
            .set_a1("A1", "Torsemide")
            .unwrap();

        let mut changed = 0;
        for seed in 0..64u64 {
            let before = mgr.to_xml();
            let checkpoint = mgr.checkpoint();
            for step in 0..12u64 {
                let r = crate::resilience::mix64(seed, step);
                let ids: Vec<MarkId> = mgr.marks().map(|m| m.mark_id.clone()).collect();
                let id = ids.get((r >> 4) as usize % ids.len().max(1)).cloned().unwrap_or_default();
                let address = addresses[(r >> 12) as usize % addresses.len()].clone();
                let _ = match r % 4 {
                    0 => mgr.create_mark_at(address).map(drop),
                    1 => mgr.rebind(&id, address).map(drop),
                    2 => mgr.remove(&id).map(drop),
                    _ => mgr.refresh_excerpt(&id).map(drop),
                };
            }
            changed += usize::from(mgr.to_xml() != before);
            mgr.rollback_to(checkpoint);
            assert_eq!(mgr.to_xml(), before, "seed {seed}: rollback must restore the store");
        }
        assert!(changed > 48, "the sequences must actually change the store ({changed}/64)");
        assert_eq!(mgr.journal.as_ref().map(Vec::len), Some(0));
    }

    #[test]
    fn default_module_name_tracks_registry_order() {
        let (mgr, _, _) = manager_with_apps();
        assert_eq!(mgr.default_module_name(DocKind::Spreadsheet), Some("excel"));
        assert_eq!(mgr.default_module_name(DocKind::Xml), Some("xml"));
        assert_eq!(mgr.default_module_name(DocKind::Pdf), None);
    }

    #[test]
    fn xml_persistence_roundtrips_marks() {
        let (mut mgr, sheet_app, xml_app) = manager_with_apps();
        sheet_app.borrow_mut().select("meds.xls", "Sheet1", "A1").unwrap();
        mgr.create_mark(DocKind::Spreadsheet).unwrap();
        xml_app.borrow_mut().select_by_path("labs.xml", "/labs/k").unwrap();
        mgr.create_mark(DocKind::Xml).unwrap();

        let xml = mgr.to_xml();
        let (mut mgr2, _, _) = manager_with_apps();
        mgr2.load_xml(&xml).unwrap();
        assert_eq!(mgr2.len(), 2);
        let originals: Vec<_> = mgr.marks().cloned().collect();
        let loaded: Vec<_> = mgr2.marks().cloned().collect();
        assert_eq!(originals, loaded);
        // Id allocation continues past loaded ids.
        let next = mgr2.create_mark_at(originals[0].address.clone()).unwrap();
        assert_eq!(next, "mark:2");
    }

    #[test]
    fn load_rejects_malformed_stores() {
        let (mut mgr, _, _) = manager_with_apps();
        assert!(matches!(mgr.load_xml("<wrong/>"), Err(MarkError::Format { .. })));
        assert!(matches!(mgr.load_xml("not xml"), Err(MarkError::Xml(_))));
        assert!(matches!(
            mgr.load_xml(r#"<marks version="1"><mark id="m" kind="alien"/></marks>"#),
            Err(MarkError::Format { .. })
        ));
        assert!(matches!(
            mgr.load_xml(r#"<marks version="1" next="0"><mark id="m" kind="xml"/></marks>"#),
            Err(MarkError::Format { .. })
        ));
    }

    #[test]
    fn remove_and_unknown_mark_errors() {
        let (mut mgr, sheet_app, _) = manager_with_apps();
        sheet_app.borrow_mut().select("meds.xls", "Sheet1", "A1").unwrap();
        let id = mgr.create_mark(DocKind::Spreadsheet).unwrap();
        assert_eq!(mgr.remove(&id).unwrap().mark_id, id);
        assert!(mgr.is_empty());
        assert!(matches!(mgr.remove(&id), Err(MarkError::UnknownMark { .. })));
        assert!(matches!(mgr.resolve(&id), Err(MarkError::UnknownMark { .. })));
    }

    #[test]
    fn excerpt_survives_persistence_for_unavailable_base() {
        // A mark whose base app is not registered still loads (excerpt
        // provides the display fallback).
        let (mut mgr, sheet_app, _) = manager_with_apps();
        sheet_app.borrow_mut().select("meds.xls", "Sheet1", "A1").unwrap();
        mgr.create_mark(DocKind::Spreadsheet).unwrap();
        let xml = mgr.to_xml();
        let mut bare = MarkManager::new(); // no modules at all
        bare.load_xml(&xml).unwrap();
        assert_eq!(bare.marks().next().unwrap().excerpt, "Lasix");
        assert!(matches!(
            bare.extract_content("mark:0"),
            Err(MarkError::NoModule { .. })
        ));
    }

    // ---- durability & recovery ------------------------------------------

    use slimio::{FaultConfig, FaultMode, FaultOp, FaultVfs, MemVfs};
    use std::path::Path;

    fn populated_manager() -> MarkManager {
        let (mut mgr, sheet_app, xml_app) = manager_with_apps();
        sheet_app.borrow_mut().select("meds.xls", "Sheet1", "A1").unwrap();
        mgr.create_mark(DocKind::Spreadsheet).unwrap();
        xml_app.borrow_mut().select_by_path("labs.xml", "/labs/k").unwrap();
        mgr.create_mark(DocKind::Xml).unwrap();
        mgr
    }

    #[test]
    fn newer_version_is_a_typed_refusal() {
        let mut mgr = MarkManager::new();
        assert!(matches!(
            mgr.load_xml(r#"<marks version="3" next="0"/>"#),
            Err(MarkError::UnsupportedVersion { ref found, supported: 1 }) if found == "3"
        ));
        assert!(matches!(
            mgr.load_xml_salvage(r#"<marks version="3" next="0"/>"#),
            Err(MarkError::UnsupportedVersion { .. })
        ));
        assert!(matches!(
            mgr.load_xml(r#"<marks version="banana" next="0"/>"#),
            Err(MarkError::Format { .. })
        ));
    }

    #[test]
    fn file_save_load_roundtrips_and_is_sealed() {
        let mgr = populated_manager();
        let vfs = MemVfs::new();
        mgr.save_to(&vfs, Path::new("marks.xml")).unwrap();
        assert_eq!(vfs.file_count(), 1, "temp file must not linger");
        let raw = String::from_utf8(vfs.bytes("marks.xml").unwrap().to_vec()).unwrap();
        assert!(raw.contains("<!--slimio v1 crc32="), "missing seal footer");

        let (mut mgr2, _, _) = manager_with_apps();
        mgr2.load_file_from(&vfs, Path::new("marks.xml")).unwrap();
        assert_eq!(mgr2.len(), 2);
        let originals: Vec<_> = mgr.marks().cloned().collect();
        let loaded: Vec<_> = mgr2.marks().cloned().collect();
        assert_eq!(originals, loaded);
    }

    #[test]
    fn crash_during_save_preserves_previous_file() {
        let old = populated_manager();
        for op in [FaultOp::Write, FaultOp::Sync, FaultOp::Rename] {
            let base = MemVfs::new();
            old.save_to(&base, Path::new("marks.xml")).unwrap();
            let config = FaultConfig::new(op, FaultMode::Torn, 0, 23).halting();
            let vfs = FaultVfs::new(base, config);
            assert!(old.save_to(&vfs, Path::new("marks.xml")).is_err());
            let disk = vfs.into_inner();
            let (mut reread, _, _) = manager_with_apps();
            reread.load_file_from(&disk, Path::new("marks.xml")).unwrap();
            assert_eq!(reread.len(), old.len(), "{op:?} damaged the previous file");
        }
    }

    #[test]
    fn corrupt_file_refused_strictly_but_salvageable() {
        let mgr = populated_manager();
        let vfs = MemVfs::new();
        mgr.save_to(&vfs, Path::new("marks.xml")).unwrap();
        let mut bytes = vfs.bytes("marks.xml").unwrap().to_vec();
        let idx = String::from_utf8(bytes.clone()).unwrap().find("Lasix").unwrap();
        bytes[idx] = b'Z';
        vfs.write(Path::new("marks.xml"), &bytes).unwrap();

        let mut strict = MarkManager::new();
        assert!(matches!(
            strict.load_file_from(&vfs, Path::new("marks.xml")),
            Err(MarkError::Corrupt { .. })
        ));

        let mut salvager = MarkManager::new();
        let report = salvager.load_file_salvage_from(&vfs, Path::new("marks.xml")).unwrap();
        assert_eq!(report.salvaged, 2);
        assert!(report.notes.iter().any(|n| n.contains("integrity")));
    }

    #[test]
    fn salvage_recovers_prefix_and_repairs_next_counter() {
        let mgr = populated_manager();
        let xml = mgr.to_xml();
        // Truncate inside the second mark's record.
        let cut = xml.rfind("<mark ").unwrap() + 12;
        let mut salvager = MarkManager::new();
        let report = salvager.load_xml_salvage(&xml[..cut]).unwrap();
        assert_eq!(report.salvaged, 1);
        assert_eq!(salvager.len(), 1);
        assert!(!report.is_clean());
        // New ids must not collide with the salvaged mark.
        let address = salvager.marks().next().unwrap().address.clone();
        let new_id = salvager.create_mark_at(address).unwrap();
        assert!(salvager.get(&new_id).is_ok());
        assert_ne!(new_id, salvager.marks().next().unwrap().mark_id);
    }

    #[test]
    fn salvage_of_wellformed_store_is_clean() {
        let mgr = populated_manager();
        let mut salvager = MarkManager::new();
        let report = salvager.load_xml_salvage(&mgr.to_xml()).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.salvaged, 2);
        let originals: Vec<_> = mgr.marks().cloned().collect();
        let loaded: Vec<_> = salvager.marks().cloned().collect();
        assert_eq!(originals, loaded);
    }

    #[test]
    fn salvage_skips_unreadable_marks_mid_store() {
        // A real store with one unreadable record injected up front.
        let xml = populated_manager()
            .to_xml()
            .replacen("<mark ", r#"<mark id="mark:9" kind="alien"/><mark "#, 1);
        let mut salvager = MarkManager::new();
        let report = salvager.load_xml_salvage(&xml).unwrap();
        assert_eq!(report.salvaged, 2);
        assert_eq!(report.lost, 1);
        assert!(report.notes.iter().any(|n| n.contains("unreadable")));
        assert!(salvager.get("mark:0").is_ok());
        assert!(salvager.get("mark:1").is_ok());
    }
}
