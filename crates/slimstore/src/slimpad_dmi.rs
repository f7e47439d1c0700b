//! The SLIMPad DMI of paper Figure 10, as a typed façade over the DMI
//! generated from the Bundle-Scrap model.
//!
//! "When SLIMPad needs to create a Bundle, it calls the Create_Bundle
//! operation in the DMI, which creates a Bundle object for SLIMPad plus
//! the triples to represent a new Bundle. By restricting manipulation of
//! data through the DMI, we store the triples without intervention from
//! the superimposed application." (paper §4.4)
//!
//! Handles ([`PadHandle`], [`BundleHandle`], …) are the paper's
//! "read-only objects that represent the Bundle-Scrap model": the
//! application can hold and pass them but can only mutate through DMI
//! operations, which is what lets the DMI "guarantee consistency between
//! the triple representation and the application data".
//!
//! The paper built SLIMPad's DMI by hand; here every write goes through
//! one [`GenericDmi`] derived from [`builtin::bundle_scrap`], and every
//! read through a [`PadReader`]. The model enforces what Figure 3 states:
//! single-valued attributes replace, values have the right kind, links
//! target the right construct, and a scrap keeps at least one mark
//! handle (`scrapMark 1..*`). This façade checks its typed handles and
//! adds the rules a model cannot state:
//! * a scrap belongs to at most one bundle, and a bundle nests in at most
//!   one parent;
//! * bundle nesting is acyclic, and no bundle nests in itself;
//! * no scrap links to itself;
//! * `Delete_Bundle` deletes the bundle's scraps and nested bundles;
//! * a scrap's mark handles are deleted with it, or when detached.
//!
//! Multi-triple operations are undone as a unit by rolling the store
//! back to a [`checkpoint`](SlimPadDmi::checkpoint) through TRIM's change
//! journal.

use crate::error::DmiError;
use crate::generic::{DmiValue, GenericDmi, Instance, Typed};
use crate::reader::{Construct, PadReader, Prop, Vocab};
use metamodel::builtin;
use metamodel::{ConformanceReport, ModelDef};
use slimio::{Recovered, Vfs};
use std::path::Path;
use std::sync::{Arc, OnceLock};
use trim::{Atom, LogReport, StoreLog, TripleStore};

/// Handle to a SlimPad object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PadHandle(pub(crate) Atom);

/// Handle to a Bundle object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BundleHandle(pub(crate) Atom);

/// Handle to a Scrap object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ScrapHandle(pub(crate) Atom);

/// Handle to a MarkHandle object (the indirection of Figure 3: a scrap's
/// mark handle carries a mark id resolved by the Mark Manager).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MarkHandleHandle(pub(crate) Atom);

macro_rules! impl_resource_accessor {
    ($ty:ty) => {
        impl $ty {
            /// The underlying store resource — for callers that drop to
            /// the triple level (views, ad-hoc queries).
            pub fn resource(self) -> Atom {
                self.0
            }
        }
    };
}

impl_resource_accessor!(PadHandle);
impl_resource_accessor!(BundleHandle);
impl_resource_accessor!(ScrapHandle);
impl_resource_accessor!(MarkHandleHandle);

/// Read-only snapshot of a pad.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PadData {
    pub name: String,
    pub root_bundle: Option<BundleHandle>,
}

/// Read-only snapshot of a bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleData {
    pub name: String,
    pub pos: (i64, i64),
    pub width: i64,
    pub height: i64,
    /// Contained scraps, in handle order (stable per store).
    pub scraps: Vec<ScrapHandle>,
    /// Nested bundles, in handle order.
    pub nested: Vec<BundleHandle>,
}

/// Read-only snapshot of a scrap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrapData {
    pub name: String,
    pub pos: (i64, i64),
    pub marks: Vec<MarkHandleHandle>,
}

/// Read-only snapshot of a mark handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarkHandleData {
    pub mark_id: String,
}

/// The SLIMPad Data Manipulation Interface (paper Figure 10's
/// `SlimPadDMI`, `store : TrimManager`).
///
/// Its writes go through a [`GenericDmi`] over the Bundle-Scrap model;
/// its reads are a [`PadReader`] over the same store (see
/// [`SlimPadDmi::reader`]), and the same reader serves a published
/// [`trim::Snapshot`].
#[derive(Debug)]
pub struct SlimPadDmi {
    dmi: GenericDmi,
    /// The reader vocabulary, kept once every atom of it exists.
    vocab: OnceLock<Vocab>,
}

impl Default for SlimPadDmi {
    fn default() -> Self {
        Self::new()
    }
}

/// The Bundle-Scrap model, built once and shared by every pad DMI.
fn bundle_scrap() -> Arc<ModelDef> {
    static MODEL: OnceLock<Arc<ModelDef>> = OnceLock::new();
    Arc::clone(MODEL.get_or_init(|| Arc::new(builtin::bundle_scrap())))
}

/// An instance the façade has checked conforms to `construct`. Writes
/// take one, so the generated DMI does not resolve the construct again.
#[derive(Debug, Clone, Copy)]
struct Checked {
    id: Atom,
    construct: Construct,
}

/// Encode `(x, y)` as the Coordinate literal `"x,y"`.
fn coord_text(pos: (i64, i64)) -> String {
    format!("{},{}", pos.0, pos.1)
}

impl SlimPadDmi {
    /// A fresh DMI over an empty store (with the Bundle-Scrap model
    /// encoded into it, so the store is self-describing).
    pub fn new() -> Self {
        SlimPadDmi { dmi: GenericDmi::encoded(bundle_scrap()), vocab: OnceLock::new() }
    }

    /// The DMI over a loaded store, and the pads found in it. The model
    /// is the builtin one, not decoded from the store, so a salvaged
    /// store that lost model triples still loads.
    fn loaded(store: TripleStore) -> (Self, Vec<PadHandle>) {
        let dmi = SlimPadDmi {
            dmi: GenericDmi::with_model(store, bundle_scrap()),
            vocab: OnceLock::new(),
        };
        let pads = dmi.pads();
        (dmi, pads)
    }

    /// The read-only reader over this DMI's store: every read below
    /// delegates to it.
    pub fn reader(&self) -> PadReader<'_, TripleStore> {
        let store = self.dmi.store();
        let vocab = match self.vocab.get() {
            Some(vocab) => *vocab,
            None => {
                let vocab = Vocab::find(store);
                if vocab.is_complete() {
                    let _ = self.vocab.set(vocab);
                }
                vocab
            }
        };
        PadReader::with_vocab(store, vocab)
    }

    // ---- small internal helpers -------------------------------------------

    /// Mint an instance of `construct` carrying the literal `texts`.
    /// Cannot fail: every [`Construct`] is a structural construct of the
    /// model and every [`Prop`] one of its connectors (pinned by the
    /// reader's tests).
    fn create(&mut self, construct: Construct, texts: &[(Prop, &str)]) -> Checked {
        let id = self.dmi.create(construct.name()).expect("a Bundle-Scrap construct").0;
        let instance = Checked { id, construct };
        for &(property, text) in texts {
            self.set_text(instance, property, text)
                .expect("a literal of a fresh Bundle-Scrap instance");
        }
        instance
    }

    fn require(&self, id: Atom, construct: Construct) -> Result<Checked, DmiError> {
        self.reader().require(id, construct)?;
        Ok(Checked { id, construct })
    }

    fn set_text(&mut self, subject: Checked, property: Prop, text: &str) -> Result<(), DmiError> {
        let Checked { id, construct } = subject;
        self.dmi.set_as(Instance(id), construct.name(), property.name(), Typed::Text(text))
    }

    fn link(&mut self, subject: Checked, property: Prop, target: Checked) -> Result<(), DmiError> {
        let to = Typed::Link(Instance(target.id), target.construct.name());
        self.dmi.set_as(Instance(subject.id), subject.construct.name(), property.name(), to)
    }

    fn unlink(&mut self, subject: Atom, property: Prop, target: Atom) -> Result<(), DmiError> {
        self.dmi.unset(Instance(subject), property.name(), &DmiValue::Link(Instance(target)))
    }

    fn links_of(&self, subject: Atom, property: Prop) -> Vec<Atom> {
        self.reader().links_of(subject, property)
    }

    /// Delete mark handle objects, skipping any that are no longer live
    /// (a damaged store can hold a link to one).
    fn delete_mark_handles(
        &mut self,
        handles: impl IntoIterator<Item = Atom>,
    ) -> Result<(), DmiError> {
        for handle in handles {
            if self.require(handle, Construct::MarkHandle).is_ok() {
                self.dmi.delete(Instance(handle))?;
            }
        }
        Ok(())
    }

    // ---- Create_* (Figure 10) ---------------------------------------------

    /// `Create_SlimPad(padName, rootBundle)` — the root bundle may be
    /// attached now or later (`rootBundle` is `0..1`).
    pub fn create_slim_pad(
        &mut self,
        pad_name: &str,
        root_bundle: Option<BundleHandle>,
    ) -> Result<PadHandle, DmiError> {
        let root = root_bundle.map(|b| self.require(b.0, Construct::Bundle)).transpose()?;
        let pad = self.create(Construct::SlimPad, &[(Prop::PadName, pad_name)]);
        if let Some(root) = root {
            self.link(pad, Prop::RootBundle, root)?;
        }
        Ok(PadHandle(pad.id))
    }

    /// `Create_Bundle(bundleName, bundlePos, bundleWidth, bundleHeight)`.
    pub fn create_bundle(
        &mut self,
        name: &str,
        pos: (i64, i64),
        width: i64,
        height: i64,
    ) -> BundleHandle {
        let bundle = self.create(
            Construct::Bundle,
            &[
                (Prop::BundleName, name),
                (Prop::BundlePos, &coord_text(pos)),
                (Prop::BundleWidth, &width.to_string()),
                (Prop::BundleHeight, &height.to_string()),
            ],
        );
        BundleHandle(bundle.id)
    }

    /// `Create_Scrap(scrapName, scrapPos, markId)` — Figure 3 requires at
    /// least one mark handle per scrap, so creation takes the first mark
    /// id and builds the `MarkHandle` object behind it.
    pub fn create_scrap(
        &mut self,
        name: &str,
        pos: (i64, i64),
        mark_id: &str,
    ) -> Result<ScrapHandle, DmiError> {
        let scrap = self.create(
            Construct::Scrap,
            &[(Prop::ScrapName, name), (Prop::ScrapPos, &coord_text(pos))],
        );
        let handle = self.create(Construct::MarkHandle, &[(Prop::MarkId, mark_id)]);
        self.link(scrap, Prop::ScrapMark, handle)?;
        Ok(ScrapHandle(scrap.id))
    }

    /// `Create_MarkHandle(markId)`.
    pub fn create_mark_handle(&mut self, mark_id: &str) -> MarkHandleHandle {
        MarkHandleHandle(self.create(Construct::MarkHandle, &[(Prop::MarkId, mark_id)]).id)
    }

    // ---- Update_* (Figure 10) ---------------------------------------------

    /// `Update_padName(SlimPad, newPadName)`.
    pub fn update_pad_name(&mut self, pad: PadHandle, new_name: &str) -> Result<(), DmiError> {
        let pad = self.require(pad.0, Construct::SlimPad)?;
        self.set_text(pad, Prop::PadName, new_name)
    }

    /// `Update_rootBundle(SlimPad, newRootBundle)`.
    pub fn update_root_bundle(
        &mut self,
        pad: PadHandle,
        new_root: Option<BundleHandle>,
    ) -> Result<(), DmiError> {
        let pad = self.require(pad.0, Construct::SlimPad)?;
        match new_root {
            Some(b) => {
                let root = self.require(b.0, Construct::Bundle)?;
                self.link(pad, Prop::RootBundle, root)
            }
            None => {
                for old in self.links_of(pad.id, Prop::RootBundle) {
                    self.unlink(pad.id, Prop::RootBundle, old)?;
                }
                Ok(())
            }
        }
    }

    /// `Update_bundleName(Bundle, newName)`.
    pub fn update_bundle_name(&mut self, b: BundleHandle, name: &str) -> Result<(), DmiError> {
        let bundle = self.require(b.0, Construct::Bundle)?;
        self.set_text(bundle, Prop::BundleName, name)
    }

    /// `Update_bundlePos(Bundle, newPos)` — moving a bundle is the
    /// paper's core 2-D manipulation.
    pub fn update_bundle_pos(&mut self, b: BundleHandle, pos: (i64, i64)) -> Result<(), DmiError> {
        let bundle = self.require(b.0, Construct::Bundle)?;
        self.set_text(bundle, Prop::BundlePos, &coord_text(pos))
    }

    /// `Update_bundleWidth/Height(Bundle, …)` — resize.
    pub fn update_bundle_size(
        &mut self,
        b: BundleHandle,
        width: i64,
        height: i64,
    ) -> Result<(), DmiError> {
        let bundle = self.require(b.0, Construct::Bundle)?;
        self.set_text(bundle, Prop::BundleWidth, &width.to_string())?;
        self.set_text(bundle, Prop::BundleHeight, &height.to_string())
    }

    /// `Update_scrapName(Scrap, newName)` — "a scrap that can be named
    /// and moved around".
    pub fn update_scrap_name(&mut self, s: ScrapHandle, name: &str) -> Result<(), DmiError> {
        let scrap = self.require(s.0, Construct::Scrap)?;
        self.set_text(scrap, Prop::ScrapName, name)
    }

    /// `Update_scrapPos(Scrap, newPos)`.
    pub fn update_scrap_pos(&mut self, s: ScrapHandle, pos: (i64, i64)) -> Result<(), DmiError> {
        let scrap = self.require(s.0, Construct::Scrap)?;
        self.set_text(scrap, Prop::ScrapPos, &coord_text(pos))
    }

    // ---- containment -------------------------------------------------------

    /// `addNestedBundle(parent, child)` (Figure 10's setter list).
    /// Enforces single-parent and acyclicity.
    pub fn add_nested_bundle(
        &mut self,
        parent: BundleHandle,
        child: BundleHandle,
    ) -> Result<(), DmiError> {
        let outer = self.require(parent.0, Construct::Bundle)?;
        let inner = self.require(child.0, Construct::Bundle)?;
        if parent == child {
            return Err(DmiError::Structure { message: "a bundle cannot nest inside itself".into() });
        }
        if !self.reader().incoming_links(child.0, Prop::NestedBundle).is_empty() {
            return Err(DmiError::Structure {
                message: "bundle already nests in another bundle".into(),
            });
        }
        // Acyclicity: parent must not be reachable from child.
        if self.dmi.store().view(child.0).resources.contains(&parent.0) {
            return Err(DmiError::Structure {
                message: "nesting would create a bundle cycle".into(),
            });
        }
        self.link(outer, Prop::NestedBundle, inner)
    }

    /// Detach a nested bundle from its parent (it becomes free-floating).
    pub fn remove_nested_bundle(
        &mut self,
        parent: BundleHandle,
        child: BundleHandle,
    ) -> Result<(), DmiError> {
        self.require(parent.0, Construct::Bundle)?;
        self.unlink(parent.0, Prop::NestedBundle, child.0)
    }

    /// Place a scrap into a bundle. A scrap lives in at most one bundle.
    pub fn add_scrap(&mut self, bundle: BundleHandle, scrap: ScrapHandle) -> Result<(), DmiError> {
        let bundle = self.require(bundle.0, Construct::Bundle)?;
        let scrap = self.require(scrap.0, Construct::Scrap)?;
        if !self.reader().incoming_links(scrap.id, Prop::BundleContent).is_empty() {
            return Err(DmiError::Structure {
                message: "scrap already belongs to a bundle".into(),
            });
        }
        self.link(bundle, Prop::BundleContent, scrap)
    }

    /// Take a scrap out of a bundle (it becomes free-floating).
    pub fn remove_scrap(
        &mut self,
        bundle: BundleHandle,
        scrap: ScrapHandle,
    ) -> Result<(), DmiError> {
        self.require(bundle.0, Construct::Bundle)?;
        self.unlink(bundle.0, Prop::BundleContent, scrap.0)
    }

    /// `setScrapMark` extension: attach an additional mark handle to a
    /// scrap (the §6 "multiple marks per scrap" extension; Figure 3
    /// already allows `1..*`).
    pub fn add_scrap_mark(
        &mut self,
        scrap: ScrapHandle,
        handle: MarkHandleHandle,
    ) -> Result<(), DmiError> {
        let scrap = self.require(scrap.0, Construct::Scrap)?;
        let handle = self.require(handle.0, Construct::MarkHandle)?;
        self.link(scrap, Prop::ScrapMark, handle)
    }

    /// Detach a mark handle; the model refuses to remove a scrap's last
    /// mark (`scrapMark` is `1..*`). The handle object itself is deleted.
    pub fn remove_scrap_mark(
        &mut self,
        scrap: ScrapHandle,
        handle: MarkHandleHandle,
    ) -> Result<(), DmiError> {
        self.require(scrap.0, Construct::Scrap)?;
        self.unlink(scrap.0, Prop::ScrapMark, handle.0)?;
        self.delete_mark_handles([handle.0])
    }

    // ---- §6 extensions: annotations and scrap links --------------------------

    /// Attach an annotation to a scrap ("initial feedback from clinicians
    /// indicates annotations on scraps would be useful", paper §5).
    pub fn add_annotation(&mut self, scrap: ScrapHandle, text: &str) -> Result<(), DmiError> {
        let scrap = self.require(scrap.0, Construct::Scrap)?;
        self.set_text(scrap, Prop::ScrapAnnotation, text)
    }

    /// A scrap's annotations, sorted.
    pub fn annotations(&self, scrap: ScrapHandle) -> Result<Vec<String>, DmiError> {
        self.reader().annotations(scrap)
    }

    /// Remove one annotation; errors if it is not present.
    pub fn remove_annotation(&mut self, scrap: ScrapHandle, text: &str) -> Result<(), DmiError> {
        self.require(scrap.0, Construct::Scrap)?;
        let text = DmiValue::Text(text.to_string());
        self.dmi.unset(Instance(scrap.0), Prop::ScrapAnnotation.name(), &text)
    }

    /// Link two scraps ("explicit links between scraps", paper §3/§6).
    /// Links are directed; self-links are rejected.
    pub fn link_scraps(&mut self, from: ScrapHandle, to: ScrapHandle) -> Result<(), DmiError> {
        let source = self.require(from.0, Construct::Scrap)?;
        let target = self.require(to.0, Construct::Scrap)?;
        if from == to {
            return Err(DmiError::Structure { message: "a scrap cannot link to itself".into() });
        }
        self.link(source, Prop::ScrapLink, target)
    }

    /// Outgoing scrap links, sorted.
    pub fn scrap_links(&self, from: ScrapHandle) -> Result<Vec<ScrapHandle>, DmiError> {
        self.reader().scrap_links(from)
    }

    /// Remove a link; errors if it is not present.
    pub fn unlink_scraps(&mut self, from: ScrapHandle, to: ScrapHandle) -> Result<(), DmiError> {
        self.require(from.0, Construct::Scrap)?;
        self.unlink(from.0, Prop::ScrapLink, to.0)
    }

    // ---- Delete_* (Figure 10) ----------------------------------------------

    /// `Delete_SlimPad(SlimPad)` — deletes the pad object only; its
    /// bundle tree survives (pads are views over bundles).
    pub fn delete_slim_pad(&mut self, pad: PadHandle) -> Result<(), DmiError> {
        self.require(pad.0, Construct::SlimPad)?;
        self.dmi.delete(Instance(pad.0))
    }

    /// `Delete_Bundle(Bundle)` — recursive: contained scraps and nested
    /// bundles go with it, and references from parents/pads are cleaned.
    pub fn delete_bundle(&mut self, bundle: BundleHandle) -> Result<(), DmiError> {
        self.require(bundle.0, Construct::Bundle)?;
        for scrap in self.links_of(bundle.0, Prop::BundleContent) {
            self.delete_scrap(ScrapHandle(scrap))?;
        }
        for nested in self.links_of(bundle.0, Prop::NestedBundle) {
            self.delete_bundle(BundleHandle(nested))?;
        }
        self.dmi.delete(Instance(bundle.0))
    }

    /// `Delete_Scrap(Scrap)` — removes the scrap, its mark handles, and
    /// its containment edge.
    pub fn delete_scrap(&mut self, scrap: ScrapHandle) -> Result<(), DmiError> {
        self.require(scrap.0, Construct::Scrap)?;
        self.delete_mark_handles(self.links_of(scrap.0, Prop::ScrapMark))?;
        self.dmi.delete(Instance(scrap.0))
    }

    // ---- reads (the application-data interfaces) ----------------------------

    /// Snapshot a pad.
    pub fn pad(&self, pad: PadHandle) -> Result<PadData, DmiError> {
        self.reader().pad(pad)
    }

    /// Snapshot a bundle.
    pub fn bundle(&self, b: BundleHandle) -> Result<BundleData, DmiError> {
        self.reader().bundle(b)
    }

    /// Snapshot a scrap.
    pub fn scrap(&self, s: ScrapHandle) -> Result<ScrapData, DmiError> {
        self.reader().scrap(s)
    }

    /// Snapshot a mark handle.
    pub fn mark_handle(&self, h: MarkHandleHandle) -> Result<MarkHandleData, DmiError> {
        self.reader().mark_handle(h)
    }

    /// All pads in the store.
    pub fn pads(&self) -> Vec<PadHandle> {
        self.reader().pads()
    }

    /// All bundles in the store.
    pub fn bundles(&self) -> Vec<BundleHandle> {
        self.reader().bundles()
    }

    /// All scraps in the store, contained or free-floating.
    pub fn all_scraps(&self) -> Vec<ScrapHandle> {
        self.reader().all_scraps()
    }

    /// Population counts `(bundles, scraps)` answered by the
    /// conjunctive engine (see [`PadReader::population_by_join`]).
    pub fn population_by_join(&self) -> (usize, usize) {
        self.reader().population_by_join()
    }

    // ---- persistence and inspection (Figure 10: save/load) ------------------

    /// `save(fileName)` — persist the whole store (model + instances)
    /// through TRIM's XML format. Durable: the file is checksummed and
    /// installed atomically, so a crash mid-save leaves the previous
    /// version intact.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), DmiError> {
        self.dmi.store().save(path)?;
        Ok(())
    }

    /// [`save`](SlimPadDmi::save) through an explicit [`Vfs`] backend.
    pub fn save_to(&self, vfs: &dyn Vfs, path: &Path) -> Result<(), DmiError> {
        self.dmi.store().save_to(vfs, path)?;
        Ok(())
    }

    /// The XML text `save` would write.
    pub fn save_xml(&self) -> String {
        self.dmi.save_xml()
    }

    /// `load(fileName) : SlimPad` — load a store and return the DMI plus
    /// the pads found inside. Strict: refuses files that fail their
    /// integrity check (see [`SlimPadDmi::load_salvage`]).
    pub fn load(path: impl AsRef<Path>) -> Result<(Self, Vec<PadHandle>), DmiError> {
        Ok(Self::loaded(TripleStore::load(path)?))
    }

    /// [`load`](SlimPadDmi::load) through an explicit [`Vfs`] backend.
    pub fn load_from(vfs: &dyn Vfs, path: &Path) -> Result<(Self, Vec<PadHandle>), DmiError> {
        Ok(Self::loaded(TripleStore::load_from(vfs, path)?))
    }

    /// `load` from XML text.
    pub fn load_xml(text: &str) -> Result<(Self, Vec<PadHandle>), DmiError> {
        Ok(Self::loaded(TripleStore::from_xml(text)?))
    }

    // ---- logged persistence (write-ahead log commit path) -------------------

    /// Attach a [`StoreLog`] to this DMI's store, replaying any committed
    /// frames the log holds. For callers (like the pad session) that load
    /// the snapshot through their own combined format and need the log
    /// wired to the embedded store afterwards.
    pub fn attach_log(
        &mut self,
        vfs: &dyn Vfs,
        snapshot_path: &Path,
    ) -> Result<(StoreLog, LogReport), DmiError> {
        Ok(StoreLog::attach(vfs, snapshot_path, self.dmi.store_mut())?)
    }

    /// Group-commit every change since the last commit to the log, with
    /// sidecar aux records (e.g. the pad's per-mark records) riding in the
    /// same frame: one frame, one sync. See [`StoreLog::commit`].
    pub fn commit_log_with_aux(
        &mut self,
        vfs: &dyn Vfs,
        log: &mut StoreLog,
        aux: &[(&str, &[u8])],
    ) -> Result<trim::CommitOutcome, DmiError> {
        Ok(log.commit_with_aux(vfs, self.dmi.store_mut(), aux)?)
    }

    /// Truncate any unacknowledged log suffix a failed commit may have
    /// left on disk (see [`StoreLog::repair`]) so a refused batch can
    /// never be adopted by a later cold reopen.
    pub fn repair_log(&self, vfs: &dyn Vfs, log: &mut StoreLog) -> Result<(), DmiError> {
        Ok(log.repair(vfs)?)
    }

    /// Fold the log into a caller-provided snapshot payload and reset it.
    pub fn compact_log_with(
        &mut self,
        vfs: &dyn Vfs,
        log: &mut StoreLog,
        payload: &str,
    ) -> Result<(), DmiError> {
        Ok(log.compact_with(vfs, self.dmi.store_mut(), payload)?)
    }

    /// Salvage a store from a damaged file: every triple in the longest
    /// valid prefix is kept. Pads whose triples survive are returned;
    /// scraps that lost their containment or mark triples simply don't
    /// appear in the respective queries — degraded, not fatal.
    pub fn load_salvage(
        path: impl AsRef<Path>,
    ) -> Result<Recovered<(Self, Vec<PadHandle>)>, DmiError> {
        Self::load_salvage_from(&slimio::StdVfs, path.as_ref())
    }

    /// [`load_salvage`](SlimPadDmi::load_salvage) through an explicit
    /// [`Vfs`] backend.
    pub fn load_salvage_from(
        vfs: &dyn Vfs,
        path: &Path,
    ) -> Result<Recovered<(Self, Vec<PadHandle>)>, DmiError> {
        Ok(TripleStore::load_salvage_from(vfs, path)?.map(Self::loaded))
    }

    /// Salvage from XML text (see [`SlimPadDmi::load_salvage`]).
    pub fn load_xml_salvage(text: &str) -> Result<Recovered<(Self, Vec<PadHandle>)>, DmiError> {
        Ok(TripleStore::from_xml_salvage(text)?.map(Self::loaded))
    }

    /// Read access to the underlying triples (the paper's point is that
    /// applications *can* see the generic representation, they just
    /// shouldn't have to).
    pub fn store(&self) -> &TripleStore {
        self.dmi.store()
    }

    /// An immutable [`trim::Snapshot`] of the store for readers on other
    /// threads, read through [`PadReader::new`]. It shares the store's
    /// frozen base, so it costs a copy of the delta since the last fold.
    pub fn snapshot(&mut self) -> trim::Snapshot {
        self.dmi.store_mut().snapshot()
    }

    /// Take a checkpoint of the data state (the TRIM journal revision).
    pub fn checkpoint(&self) -> trim::Revision {
        self.dmi.store().revision()
    }

    /// Roll the data back to a checkpoint taken with
    /// [`SlimPadDmi::checkpoint`]: the undo mechanism DMI compound
    /// operations and the application's Edit→Undo both ride on.
    ///
    /// Handles minted after the checkpoint dangle afterwards (they report
    /// [`DmiError::NotFound`] like any deleted object's handles).
    pub fn rollback(&mut self, to: trim::Revision) -> Result<(), DmiError> {
        self.dmi.store_mut().undo_to(to)?;
        Ok(())
    }

    /// Run the metamodel conformance checker over the store — the DMI's
    /// consistency guarantee, made checkable.
    pub fn check(&self) -> ConformanceReport {
        self.dmi.check()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::parse_coord;

    /// Build the Figure 4 pad: 'Rounds' with a 'John Smith' bundle
    /// holding two medication scraps and a nested 'Electrolyte' bundle.
    fn rounds_pad() -> (SlimPadDmi, PadHandle, BundleHandle, BundleHandle) {
        let mut dmi = SlimPadDmi::new();
        let john = dmi.create_bundle("John Smith", (10, 10), 400, 300);
        let pad = dmi.create_slim_pad("Rounds", Some(john)).unwrap();
        let lasix = dmi.create_scrap("Lasix 40 IV bid", (20, 40), "mark:0").unwrap();
        let captopril = dmi.create_scrap("Captopril 12.5", (20, 70), "mark:1").unwrap();
        dmi.add_scrap(john, lasix).unwrap();
        dmi.add_scrap(john, captopril).unwrap();
        let electro = dmi.create_bundle("Electrolyte", (200, 60), 180, 160);
        dmi.add_nested_bundle(john, electro).unwrap();
        for (i, (name, pos)) in
            [("Na 140", (210, 80)), ("K 4.1", (210, 110)), ("Cl 102", (290, 80))]
                .iter()
                .enumerate()
        {
            let s = dmi.create_scrap(name, *pos, &format!("mark:{}", i + 2)).unwrap();
            dmi.add_scrap(electro, s).unwrap();
        }
        (dmi, pad, john, electro)
    }

    #[test]
    fn figure10_ops_write_the_pinned_triples() {
        // The exact triples the Figure 10 operations write, pinned as
        // `Snapshot::digest` values (a hash of the triples by name, so
        // atom numbering does not enter). Both were recorded from the
        // hand-written DMI this façade replaced: the Figure 4 pad, then a
        // script through every update, containment, mark, annotation,
        // link and delete operation.
        let (mut dmi, pad, john, electro) = rounds_pad();
        assert_eq!(dmi.snapshot().digest(), 0x744a_595b_25a4_fe5f);
        assert_eq!(dmi.store().len(), 194);
        let scraps = dmi.bundle(john).unwrap().scraps;
        let (lasix, capt) = (scraps[0], scraps[1]);
        let k = dmi.bundle(electro).unwrap().scraps[1];
        dmi.update_pad_name(pad, "Weekend Rounds").unwrap();
        dmi.update_bundle_name(electro, "Lytes").unwrap();
        dmi.update_bundle_pos(john, (50, 60)).unwrap();
        dmi.update_bundle_size(john, 500, 400).unwrap();
        dmi.update_scrap_name(lasix, "Lasix 80 IV bid").unwrap();
        dmi.update_scrap_pos(lasix, (25, 45)).unwrap();
        dmi.add_annotation(lasix, "hold if SBP < 90").unwrap();
        dmi.add_annotation(lasix, "renal dosing").unwrap();
        dmi.remove_annotation(lasix, "renal dosing").unwrap();
        dmi.link_scraps(lasix, k).unwrap();
        dmi.link_scraps(capt, lasix).unwrap();
        dmi.unlink_scraps(capt, lasix).unwrap();
        let first = dmi.scrap(capt).unwrap().marks[0];
        let extra = dmi.create_mark_handle("mark:9");
        dmi.add_scrap_mark(capt, extra).unwrap();
        dmi.remove_scrap_mark(capt, first).unwrap();
        let other = dmi.create_bundle("Other", (0, 0), 10, 10);
        dmi.remove_nested_bundle(john, electro).unwrap();
        dmi.add_nested_bundle(other, electro).unwrap();
        dmi.remove_scrap(john, capt).unwrap();
        dmi.add_scrap(other, capt).unwrap();
        let night = dmi.create_slim_pad("Night", None).unwrap();
        dmi.update_root_bundle(night, Some(other)).unwrap();
        dmi.update_root_bundle(pad, None).unwrap();
        dmi.delete_scrap(k).unwrap();
        dmi.delete_slim_pad(night).unwrap();
        dmi.delete_bundle(other).unwrap();
        assert!(dmi.check().is_conformant(), "{:?}", dmi.check().violations);
        assert_eq!(dmi.snapshot().digest(), 0x1023_7f33_bdd9_60e0);
        assert_eq!(dmi.store().len(), 151);
    }

    #[test]
    fn figure4_pad_is_conformant() {
        let (dmi, pad, john, electro) = rounds_pad();
        let report = dmi.check();
        assert!(report.is_conformant(), "{:?}", report.violations);
        assert_eq!(dmi.pad(pad).unwrap().name, "Rounds");
        assert_eq!(dmi.pad(pad).unwrap().root_bundle, Some(john));
        let jb = dmi.bundle(john).unwrap();
        assert_eq!(jb.scraps.len(), 2);
        assert_eq!(jb.nested, vec![electro]);
        assert_eq!(dmi.bundle(electro).unwrap().scraps.len(), 3);
    }

    #[test]
    fn a_reader_over_a_snapshot_reads_like_the_dmi() {
        let (mut dmi, pad, john, electro) = rounds_pad();
        let first = dmi.bundle(john).unwrap().scraps[0];
        let second = dmi.bundle(electro).unwrap().scraps[0];
        dmi.add_annotation(first, "hold if SBP < 90").unwrap();
        dmi.link_scraps(first, second).unwrap();
        assert!(dmi.vocab.get().is_some(), "a fresh DMI's vocabulary is complete and kept");
        let snapshot = dmi.snapshot();
        let view = PadReader::new(&snapshot);
        assert_eq!(view.pads(), dmi.pads());
        assert_eq!(view.pad(pad).unwrap(), dmi.pad(pad).unwrap());
        assert_eq!(view.bundles(), dmi.bundles());
        assert_eq!(view.all_scraps(), dmi.all_scraps());
        assert_eq!(view.population_by_join(), dmi.population_by_join());
        for b in dmi.bundles() {
            assert_eq!(view.bundle(b).unwrap(), dmi.bundle(b).unwrap());
        }
        for s in dmi.all_scraps() {
            let data = dmi.scrap(s).unwrap();
            assert_eq!(view.scrap(s).unwrap(), data);
            assert_eq!(view.annotations(s).unwrap(), dmi.annotations(s).unwrap());
            assert_eq!(view.scrap_links(s).unwrap(), dmi.scrap_links(s).unwrap());
            for h in data.marks {
                assert_eq!(view.mark_handle(h).unwrap(), dmi.mark_handle(h).unwrap());
            }
        }
        // The snapshot is frozen: later writes show in the DMI only.
        dmi.delete_scrap(first).unwrap();
        assert!(dmi.scrap(first).is_err());
        assert!(view.scrap(first).is_ok());
        assert!(matches!(view.bundle(BundleHandle(pad.0)), Err(DmiError::NotFound { .. })));
    }

    #[test]
    fn scrap_snapshot_includes_mark_ids() {
        let (dmi, _, john, _) = rounds_pad();
        let scraps = dmi.bundle(john).unwrap().scraps;
        let data = dmi.scrap(scraps[0]).unwrap();
        assert_eq!(data.marks.len(), 1);
        let mh = dmi.mark_handle(data.marks[0]).unwrap();
        assert!(mh.mark_id.starts_with("mark:"), "{}", mh.mark_id);
    }

    #[test]
    fn updates_change_snapshots() {
        let (mut dmi, pad, john, _) = rounds_pad();
        dmi.update_pad_name(pad, "Weekend Rounds").unwrap();
        assert_eq!(dmi.pad(pad).unwrap().name, "Weekend Rounds");
        dmi.update_bundle_pos(john, (50, 60)).unwrap();
        dmi.update_bundle_size(john, 500, 400).unwrap();
        let b = dmi.bundle(john).unwrap();
        assert_eq!((b.pos, b.width, b.height), ((50, 60), 500, 400));
        let scrap = b.scraps[0];
        dmi.update_scrap_name(scrap, "Lasix 80 IV bid").unwrap();
        dmi.update_scrap_pos(scrap, (25, 45)).unwrap();
        let s = dmi.scrap(scrap).unwrap();
        assert_eq!((s.name.as_str(), s.pos), ("Lasix 80 IV bid", (25, 45)));
    }

    #[test]
    fn single_parent_rules_enforced() {
        let (mut dmi, _, john, electro) = rounds_pad();
        let other = dmi.create_bundle("Other", (0, 0), 10, 10);
        // electro already nests in john.
        assert!(matches!(
            dmi.add_nested_bundle(other, electro),
            Err(DmiError::Structure { .. })
        ));
        let scrap = dmi.bundle(john).unwrap().scraps[0];
        assert!(matches!(dmi.add_scrap(other, scrap), Err(DmiError::Structure { .. })));
    }

    #[test]
    fn nesting_cycles_rejected() {
        let (mut dmi, _, john, electro) = rounds_pad();
        assert!(matches!(dmi.add_nested_bundle(john, john), Err(DmiError::Structure { .. })));
        assert!(matches!(
            dmi.add_nested_bundle(electro, john),
            Err(DmiError::Structure { .. })
        ));
    }

    #[test]
    fn remove_then_renest_elsewhere() {
        let (mut dmi, _, john, electro) = rounds_pad();
        dmi.remove_nested_bundle(john, electro).unwrap();
        let other = dmi.create_bundle("Other", (0, 0), 10, 10);
        dmi.add_nested_bundle(other, electro).unwrap();
        assert_eq!(dmi.bundle(other).unwrap().nested, vec![electro]);
        assert!(dmi.bundle(john).unwrap().nested.is_empty());
    }

    #[test]
    fn last_mark_cannot_be_removed() {
        let (mut dmi, _, john, _) = rounds_pad();
        let scrap = dmi.bundle(john).unwrap().scraps[0];
        let marks = dmi.scrap(scrap).unwrap().marks;
        assert!(matches!(
            dmi.remove_scrap_mark(scrap, marks[0]),
            Err(DmiError::Cardinality { .. })
        ));
        // With a second mark attached, removal works.
        let extra = dmi.create_mark_handle("mark:99");
        dmi.add_scrap_mark(scrap, extra).unwrap();
        dmi.remove_scrap_mark(scrap, marks[0]).unwrap();
        let after = dmi.scrap(scrap).unwrap().marks;
        assert_eq!(after, vec![extra]);
        assert!(dmi.check().is_conformant());
    }

    #[test]
    fn delete_scrap_cleans_marks_and_containment() {
        let (mut dmi, _, john, _) = rounds_pad();
        let before = dmi.store().len();
        let scrap = dmi.bundle(john).unwrap().scraps[0];
        let mark = dmi.scrap(scrap).unwrap().marks[0];
        dmi.delete_scrap(scrap).unwrap();
        assert!(dmi.scrap(scrap).is_err());
        assert!(dmi.mark_handle(mark).is_err());
        assert_eq!(dmi.bundle(john).unwrap().scraps.len(), 1);
        assert!(dmi.store().len() < before);
        assert!(dmi.check().is_conformant(), "{:?}", dmi.check().violations);
    }

    #[test]
    fn delete_bundle_is_recursive() {
        let (mut dmi, pad, john, electro) = rounds_pad();
        dmi.delete_bundle(john).unwrap();
        assert!(dmi.bundle(john).is_err());
        assert!(dmi.bundle(electro).is_err(), "nested bundle deleted too");
        assert_eq!(dmi.pad(pad).unwrap().root_bundle, None, "pad reference cleaned");
        // Only the pad instance remains.
        assert_eq!(dmi.bundles().len(), 0);
        assert!(dmi.check().is_conformant(), "{:?}", dmi.check().violations);
    }

    #[test]
    fn delete_pad_leaves_bundles() {
        let (mut dmi, pad, john, _) = rounds_pad();
        dmi.delete_slim_pad(pad).unwrap();
        assert!(dmi.pad(pad).is_err());
        assert!(dmi.bundle(john).is_ok(), "bundles outlive pads");
    }

    #[test]
    fn save_load_roundtrip_preserves_object_graph() {
        let (dmi, pad, _, _) = rounds_pad();
        let xml = dmi.save_xml();
        let (dmi2, pads) = SlimPadDmi::load_xml(&xml).unwrap();
        assert_eq!(pads.len(), 1);
        let orig = dmi.pad(pad).unwrap();
        let loaded = dmi2.pad(pads[0]).unwrap();
        assert_eq!(orig.name, loaded.name);
        let root1 = dmi.bundle(orig.root_bundle.unwrap()).unwrap();
        let root2 = dmi2.bundle(loaded.root_bundle.unwrap()).unwrap();
        assert_eq!(root1.name, root2.name);
        assert_eq!(root1.scraps.len(), root2.scraps.len());
        assert_eq!(root1.nested.len(), root2.nested.len());
        // Deep compare scrap names.
        let names = |d: &SlimPadDmi, b: &BundleData| -> Vec<String> {
            let mut v: Vec<String> =
                b.scraps.iter().map(|s| d.scrap(*s).unwrap().name).collect();
            v.sort();
            v
        };
        assert_eq!(names(&dmi, &root1), names(&dmi2, &root2));
        assert!(dmi2.check().is_conformant());
    }

    #[test]
    fn save_load_via_files() {
        let dir = std::env::temp_dir().join("slimpad-dmi-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pad.xml");
        let (dmi, _, _, _) = rounds_pad();
        dmi.save(&path).unwrap();
        let (dmi2, pads) = SlimPadDmi::load(&path).unwrap();
        assert_eq!(pads.len(), 1);
        assert_eq!(dmi2.pad(pads[0]).unwrap().name, "Rounds");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stale_handles_error_cleanly() {
        let (mut dmi, _, john, _) = rounds_pad();
        dmi.delete_bundle(john).unwrap();
        assert!(matches!(
            dmi.update_bundle_name(john, "ghost"),
            Err(DmiError::NotFound { .. })
        ));
        assert!(matches!(dmi.bundle(john), Err(DmiError::NotFound { .. })));
    }

    #[test]
    fn handles_of_wrong_type_rejected() {
        let (mut dmi, pad, john, _) = rounds_pad();
        // Forge a bundle handle from a pad atom via the public API only:
        // delete the bundle and reuse its handle — already covered; here
        // check a pad handle is not a bundle.
        assert!(dmi.pad(pad).is_ok());
        let fake = BundleHandle(pad.0);
        assert!(matches!(dmi.bundle(fake), Err(DmiError::NotFound { .. })));
        let fake_scrap = ScrapHandle(john.0);
        assert!(matches!(dmi.update_scrap_name(fake_scrap, "x"), Err(DmiError::NotFound { .. })));
    }

    #[test]
    fn annotations_roundtrip_and_stay_conformant() {
        let (mut dmi, _, john, _) = rounds_pad();
        let scrap = dmi.bundle(john).unwrap().scraps[0];
        dmi.add_annotation(scrap, "check K before dosing").unwrap();
        dmi.add_annotation(scrap, "renal dosing reviewed").unwrap();
        assert_eq!(
            dmi.annotations(scrap).unwrap(),
            vec!["check K before dosing", "renal dosing reviewed"]
        );
        dmi.remove_annotation(scrap, "renal dosing reviewed").unwrap();
        assert_eq!(dmi.annotations(scrap).unwrap().len(), 1);
        assert!(matches!(
            dmi.remove_annotation(scrap, "never added"),
            Err(DmiError::Structure { .. })
        ));
        assert!(dmi.check().is_conformant(), "{:?}", dmi.check().violations);
    }

    #[test]
    fn scrap_links_roundtrip_and_stay_conformant() {
        let (mut dmi, _, john, electro) = rounds_pad();
        let med = dmi.bundle(john).unwrap().scraps[0];
        let k = dmi.bundle(electro).unwrap().scraps[0];
        dmi.link_scraps(med, k).unwrap();
        assert_eq!(dmi.scrap_links(med).unwrap(), vec![k]);
        assert!(dmi.scrap_links(k).unwrap().is_empty(), "links are directed");
        assert!(matches!(dmi.link_scraps(med, med), Err(DmiError::Structure { .. })));
        dmi.unlink_scraps(med, k).unwrap();
        assert!(matches!(dmi.unlink_scraps(med, k), Err(DmiError::Structure { .. })));
        assert!(dmi.check().is_conformant(), "{:?}", dmi.check().violations);
    }

    #[test]
    fn deleting_link_target_cleans_links() {
        let (mut dmi, _, john, electro) = rounds_pad();
        let med = dmi.bundle(john).unwrap().scraps[0];
        let k = dmi.bundle(electro).unwrap().scraps[0];
        dmi.link_scraps(med, k).unwrap();
        dmi.delete_scrap(k).unwrap();
        assert!(dmi.scrap_links(med).unwrap().is_empty());
        assert!(dmi.check().is_conformant(), "{:?}", dmi.check().violations);
    }

    #[test]
    fn coord_roundtrip() {
        for pos in [(0, 0), (-5, 17), (1000, -2000)] {
            assert_eq!(parse_coord(&coord_text(pos)), Some(pos));
        }
        assert_eq!(parse_coord("nope"), None);
        assert_eq!(parse_coord("1,b"), None);
    }

    #[test]
    fn checkpoint_rollback_is_user_undo() {
        let (mut dmi, _, john, _) = rounds_pad();
        let before_xml = dmi.save_xml();
        let cp = dmi.checkpoint();
        // A burst of edits...
        let extra = dmi.create_scrap("mistake", (0, 0), "mark:66").unwrap();
        dmi.add_scrap(john, extra).unwrap();
        dmi.update_bundle_name(john, "Wrong Patient").unwrap();
        assert_ne!(dmi.save_xml(), before_xml);
        // ...undone in one step.
        dmi.rollback(cp).unwrap();
        assert_eq!(dmi.save_xml(), before_xml);
        assert!(dmi.scrap(extra).is_err(), "post-checkpoint handles dangle");
        assert_eq!(dmi.bundle(john).unwrap().name, "John Smith");
        assert!(dmi.check().is_conformant());
    }

    #[test]
    fn triples_per_object_is_small_and_stable() {
        // E1 sanity: a scrap costs a bounded number of triples —
        // 4 for the scrap (type, conformsTo, name, pos) + 3 for its mark
        // handle (type, conformsTo, markId) + 1 scrapMark edge + 1
        // containment edge = 9.
        let (mut dmi, _, john, _) = rounds_pad();
        let before = dmi.store().len();
        let s = dmi.create_scrap("HCO3 26", (300, 120), "mark:77").unwrap();
        dmi.add_scrap(john, s).unwrap();
        assert_eq!(dmi.store().len() - before, 9);
    }
}
