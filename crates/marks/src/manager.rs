//! The Mark Manager: registry, storage, audit, and persistence.

use crate::error::MarkError;
use crate::mark::{Mark, MarkAddress, MarkId};
use crate::module::{MarkModule, Resolution};
use basedocs::DocKind;
use slimio::{Integrity, Recovered, StdVfs, Vfs};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::path::Path;
use xmlkit::{Element, XmlWriter};

/// How many resolutions [`MarkManager::resolution_log`] keeps.
pub const RESOLUTION_LOG_LEN: usize = 256;

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

/// Write one mark as a `<mark>` element: the unit of both the whole
/// store ([`MarkManager::to_xml`]) and a per-mark record.
fn write_mark(w: &mut XmlWriter, mark: &Mark) {
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

/// One mark as a standalone `<mark>` record, the unit a per-mark
/// persist writes ([`MarkManager::changed_records`]).
fn mark_record(mark: &Mark) -> String {
    let mut w = XmlWriter::compact();
    write_mark(&mut w, mark);
    w.finish()
}

/// FNV-1a offset basis and prime.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One mark's share of [`MarkManager::digest`]: FNV-1a over its id, kind
/// id and address text, each field delimited so `("ab","c")` and
/// `("a","bc")` differ. The excerpt is left out: it legitimately
/// diverges when a flaky module captured it.
fn mark_hash(mark: &Mark) -> u64 {
    let address = mark.address.to_string();
    let mut h = FNV_OFFSET;
    for field in [mark.mark_id.as_str(), mark.kind().id(), address.as_str()] {
        for b in field.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        h = (h ^ 0xff).wrapping_mul(FNV_PRIME);
    }
    h
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
pub struct MarkManager {
    /// Modules by kind; the first registered module for a kind is its
    /// default.
    modules: HashMap<DocKind, Vec<Box<dyn MarkModule>>>,
    /// The mark store (sorted for deterministic iteration/persistence).
    marks: BTreeMap<MarkId, Mark>,
    next_id: u64,
    /// The last [`RESOLUTION_LOG_LEN`] `(mark id, module name)` pairs,
    /// in resolution order — the audit trail of Figure 7's arrows.
    resolution_log: VecDeque<(MarkId, String)>,
    /// Undo journal of the open checkpoint: `(mark, its value before the
    /// change)` for every change since [`MarkManager::checkpoint`], in
    /// order. `None` until a checkpoint is taken, so callers that never
    /// take one record nothing.
    journal: Option<Vec<(MarkId, Option<Mark>)>>,
    /// Ids of the marks changed since their owner last wrote the store
    /// to disk ([`MarkManager::mark_persisted`]), sorted so a persist
    /// writes its records in a stable order. Left empty while
    /// `replaced` is set, since the store is then written whole.
    changed: BTreeSet<MarkId>,
    /// True when the whole store was replaced since the last persist:
    /// set in a fresh manager and by every load, so a store nobody has
    /// written yet is written whole, never mark by mark.
    replaced: bool,
    /// [`MarkManager::digest`]'s wrapping sum of [`mark_hash`] over every
    /// mark; `None` until first asked for, and again after a load.
    digest: Cell<Option<u64>>,
}

impl Default for MarkManager {
    fn default() -> Self {
        MarkManager {
            modules: HashMap::new(),
            marks: BTreeMap::new(),
            next_id: 0,
            resolution_log: VecDeque::new(),
            journal: None,
            changed: BTreeSet::new(),
            replaced: true,
            digest: Cell::new(None),
        }
    }
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
        self.put(&mark_id, Some(Mark { mark_id: mark_id.clone(), address, excerpt }));
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
        self.get(mark_id)?;
        self.record(mark_id);
        Ok(self.put(mark_id, None).expect("looked up above"))
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
        self.log_resolution(mark_id, name);
        Ok(resolution)
    }

    /// Resolve through a specific module (e.g. the in-place viewer).
    pub fn resolve_with(&mut self, mark_id: &str, module_name: &str) -> Result<Resolution, MarkError> {
        let mark = self.get(mark_id)?;
        let address = mark.address.clone();
        let module = self.named_module(address.kind(), module_name)?;
        let resolution = module.resolve(&address)?;
        self.log_resolution(mark_id, module_name.to_string());
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
        let mut mark = self.get(mark_id)?.clone();
        let old = std::mem::replace(&mut mark.address, address);
        self.record(mark_id);
        self.put(mark_id, Some(mark));
        Ok(old)
    }

    /// The resolution audit trail: the last [`RESOLUTION_LOG_LEN`]
    /// resolutions, oldest first.
    pub fn resolution_log(&self) -> &VecDeque<(MarkId, String)> {
        &self.resolution_log
    }

    fn log_resolution(&mut self, mark_id: &str, module_name: String) {
        if self.resolution_log.len() == RESOLUTION_LOG_LEN {
            self.resolution_log.pop_front();
        }
        self.resolution_log.push_back((mark_id.to_string(), module_name));
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
    /// themselves. The checkpoint stays open. Every mark it touched
    /// stays in the changed set: the persisted store may hold what it
    /// undid, and re-writing a mark's current value is harmless.
    pub fn rollback_to(&mut self, checkpoint: MarkCheckpoint) {
        let undone = self.journal.replace(Vec::new()).unwrap_or_default();
        for (mark_id, prior) in undone.into_iter().rev() {
            self.put(&mark_id, prior);
            self.note_changed(&mark_id);
        }
        self.next_id = checkpoint.next_id;
    }

    /// Journal `mark_id`'s current value (or absence) before it changes,
    /// and note that its persisted copy is out of date.
    fn record(&mut self, mark_id: &str) {
        if let Some(journal) = &mut self.journal {
            journal.push((mark_id.to_string(), self.marks.get(mark_id).cloned()));
        }
        self.note_changed(mark_id);
    }

    /// Add `mark_id` to the changed set, unless the store is to be
    /// written whole anyway (which keeps building a large store cheap).
    fn note_changed(&mut self, mark_id: &str) {
        if !self.replaced && !self.changed.contains(mark_id) {
            self.changed.insert(mark_id.to_string());
        }
    }

    /// Set `mark_id`'s entry to `value` (`None` removes it), keeping the
    /// digest current. Returns the entry it replaced.
    fn put(&mut self, mark_id: &str, value: Option<Mark>) -> Option<Mark> {
        if let Some(sum) = self.digest.get() {
            let old = self.marks.get(mark_id).map_or(0, mark_hash);
            let new = value.as_ref().map_or(0, mark_hash);
            self.digest.set(Some(sum.wrapping_sub(old).wrapping_add(new)));
        }
        match value {
            Some(mark) => self.marks.insert(mark_id.to_string(), mark),
            None => self.marks.remove(mark_id),
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
        self.replaced = true;
        self.changed.clear();
        self.digest.set(None);
    }

    // ---- change tracking ------------------------------------------------------

    /// True when the whole store was replaced since its owner last
    /// called [`MarkManager::mark_persisted`]: a fresh manager, or a
    /// load. Per-mark records cannot express that, so the owner must
    /// write the store whole.
    pub fn replaced(&self) -> bool {
        self.replaced
    }

    /// One `(mark id, record)` per mark changed since the last
    /// [`MarkManager::mark_persisted`], in id order: the mark as a
    /// standalone `<mark>` element, the same one [`MarkManager::to_xml`]
    /// writes, or an empty record for a mark that is gone.
    /// [`MarkManager::apply_record`] replays them.
    pub fn changed_records(&self) -> Vec<(&str, String)> {
        self.changed
            .iter()
            .map(|id| (id.as_str(), self.marks.get(id).map(mark_record).unwrap_or_default()))
            .collect()
    }

    /// The id counter: the number the next created mark gets.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Apply one record of [`MarkManager::changed_records`] read back
    /// from disk: an empty record removes `mark_id`, any other must be
    /// that mark's `<mark>` element, checked as a whole-store load
    /// checks each of its marks.
    pub fn apply_record(&mut self, mark_id: &str, record: &str) -> Result<(), MarkError> {
        let value = if record.is_empty() {
            None
        } else {
            let doc = xmlkit::parse(record).map_err(|e| MarkError::Xml(e.to_string()))?;
            let mark = read_mark(&doc.root)?;
            if mark.mark_id != mark_id {
                return Err(MarkError::Format {
                    message: format!("record for {mark_id} holds mark {}", mark.mark_id),
                });
            }
            Some(mark)
        };
        self.record(mark_id);
        self.put(mark_id, value);
        Ok(())
    }

    /// Restore the id counter read back from disk alongside
    /// [`MarkManager::apply_record`]'s records.
    pub fn set_next_id(&mut self, next_id: u64) {
        self.next_id = next_id;
    }

    /// Note that the store as it stands is on disk: clears the changed
    /// set and the replaced bit. Called by the owner that wrote it,
    /// after the write is durable.
    pub fn mark_persisted(&mut self) {
        self.changed.clear();
        self.replaced = false;
    }

    /// An order-independent digest of the store: the wrapping sum of a
    /// per-mark FNV-1a hash over (id, kind id, address text), excerpts
    /// left out. Computed in full on the first call (and the first
    /// after a load), so building or loading a store pays nothing for
    /// it; after that each change adjusts it by that mark's hash alone.
    pub fn digest(&self) -> u64 {
        match self.digest.get() {
            Some(sum) => sum,
            None => {
                let sum = self.marks.values().fold(0u64, |sum, m| sum.wrapping_add(mark_hash(m)));
                self.digest.set(Some(sum));
                sum
            }
        }
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
        if self.get(mark_id)?.excerpt == current {
            return Ok(current);
        }
        self.record(mark_id);
        // The excerpt is not part of the digest, so no `put` is needed.
        let mark = self.marks.get_mut(mark_id).expect("looked up above");
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
            write_mark(&mut w, mark);
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
    fn the_resolution_log_keeps_only_the_newest_entries() {
        let (mut mgr, sheet_app, _) = manager_with_apps();
        sheet_app.borrow_mut().select("meds.xls", "Sheet1", "A1").unwrap();
        let first = mgr.create_mark(DocKind::Spreadsheet).unwrap();
        let last = mgr.create_mark(DocKind::Spreadsheet).unwrap();
        mgr.resolve(&first).unwrap();
        for _ in 0..RESOLUTION_LOG_LEN {
            mgr.resolve_with(&last, "excel").unwrap();
        }
        let log = mgr.resolution_log();
        assert_eq!(log.len(), RESOLUTION_LOG_LEN);
        assert!(log.iter().all(|(id, _)| *id == last), "the oldest entry went first");
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
    fn every_change_and_only_a_change_enters_the_changed_set() {
        let (mut mgr, sheet_app, _) = manager_with_apps();
        assert!(mgr.replaced(), "a store nobody persisted is written whole");
        sheet_app.borrow_mut().select("meds.xls", "Sheet1", "A1").unwrap();
        let id = mgr.create_mark(DocKind::Spreadsheet).unwrap();
        assert!(mgr.changed_records().is_empty(), "a store written whole tracks no ids");
        let address = mgr.get(&id).unwrap().address.clone();
        let saved = mgr.to_xml();

        /// The records a persist right after `step` would write.
        fn changes(
            mgr: &mut MarkManager,
            step: impl FnOnce(&mut MarkManager),
        ) -> Vec<(String, String)> {
            mgr.mark_persisted();
            assert!(!mgr.replaced() && mgr.changed_records().is_empty());
            step(mgr);
            mgr.changed_records().into_iter().map(|(id, r)| (id.to_string(), r)).collect()
        }
        let ids = |records: Vec<(String, String)>| -> Vec<String> {
            records.into_iter().map(|(id, _)| id).collect()
        };
        let created = changes(&mut mgr, |m| drop(m.create_mark_at(address.clone()).unwrap()));
        assert_eq!(created, [("mark:1".to_string(), mark_record(mgr.get("mark:1").unwrap()))]);
        assert_eq!(
            ids(changes(&mut mgr, |m| drop(m.rebind("mark:0", address.clone()).unwrap()))),
            ["mark:0"]
        );
        sheet_app
            .borrow_mut()
            .workbook_mut("meds.xls")
            .unwrap()
            .sheet_mut("Sheet1")
            .unwrap()
            .set_a1("A1", "Torsemide")
            .unwrap();
        assert_eq!(
            ids(changes(&mut mgr, |m| drop(m.refresh_excerpt("mark:0").unwrap()))),
            ["mark:0"]
        );
        // Re-capturing an excerpt that already matches changes nothing.
        assert!(changes(&mut mgr, |m| drop(m.refresh_excerpt("mark:0").unwrap())).is_empty());
        assert_eq!(ids(changes(&mut mgr, |m| drop(m.refresh_all_excerpts()))), ["mark:1"]);
        assert!(changes(&mut mgr, |m| assert!(m.refresh_all_excerpts().refreshed.is_empty()))
            .is_empty());
        // A removed mark leaves a tombstone: an empty record.
        let removed = changes(&mut mgr, |m| drop(m.remove("mark:0").unwrap()));
        assert_eq!(removed, [("mark:0".to_string(), String::new())]);
        // A load replaces the store whole; it tracks no ids.
        assert!(changes(&mut mgr, |m| m.load_xml(&saved).unwrap()).is_empty());
        assert!(mgr.replaced());

        // Refused calls change nothing, so they journal and track nothing.
        mgr.mark_persisted();
        let checkpoint = mgr.checkpoint();
        assert!(mgr.remove("mark:99").is_err());
        assert!(mgr.rebind("mark:99", address.clone()).is_err());
        assert!(mgr.changed_records().is_empty(), "a refused remove or rebind is not a change");
        assert_eq!(mgr.journal.as_ref().map(Vec::len), Some(0), "no phantom journal entry");

        // A rollback that undid nothing is no change either…
        mgr.rollback_to(checkpoint);
        assert!(mgr.changed_records().is_empty());
        // …but one that undid a change is, even when the change itself
        // was already persisted.
        let undone = mgr.create_mark_at(address).unwrap();
        mgr.mark_persisted();
        mgr.rollback_to(checkpoint);
        assert_eq!(
            mgr.changed_records(),
            [(undone.as_str(), String::new())],
            "the persisted store still holds the undone mark"
        );
        assert!(!mgr.replaced());
    }

    #[test]
    fn records_replay_onto_a_persisted_copy() {
        let mut mgr = populated_manager();
        let mut disk = MarkManager::new();
        disk.load_xml(&mgr.to_xml()).unwrap();
        mgr.mark_persisted();
        let address = mgr.get("mark:0").unwrap().address.clone();
        mgr.create_mark_at(address.clone()).unwrap();
        mgr.rebind("mark:1", address).unwrap();
        mgr.remove("mark:0").unwrap();
        for (id, record) in mgr.changed_records() {
            disk.apply_record(id, &record).unwrap();
        }
        disk.set_next_id(mgr.next_id());
        assert_eq!(disk.to_xml(), mgr.to_xml());
        assert_eq!(disk.digest(), mgr.digest());
        // A record must carry the mark its key names.
        let stray = mark_record(mgr.get("mark:1").unwrap());
        assert!(matches!(disk.apply_record("mark:7", &stray), Err(MarkError::Format { .. })));
        assert!(disk.apply_record("mark:7", "<mark").is_err());
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
