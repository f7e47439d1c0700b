//! The hand-written SLIMPad DMI of paper Figure 10.
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
//! Structural rules enforced here (from Figure 3's cardinalities):
//! * every scrap carries at least one mark handle (`scrapMark 1..*`);
//! * a scrap belongs to at most one bundle, a bundle nests in at most one
//!   parent (the `0..1` ends of `bundleContent`/`nestedBundle`);
//! * bundle nesting is acyclic.
//!
//! Multi-triple operations are atomic: on any failure the store is rolled
//! back to the operation's starting revision via TRIM's change journal.

use crate::error::DmiError;
use metamodel::builtin;
use metamodel::encode::encode_model;
use metamodel::vocab;
use metamodel::ConformanceReport;
use slimio::{Recovered, Vfs};
use std::path::Path;
use trim::{Atom, ConjQuery, LogReport, StoreLog, TriplePattern, TripleStore, Value};

/// Handle to a SlimPad object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PadHandle(Atom);

/// Handle to a Bundle object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BundleHandle(Atom);

/// Handle to a Scrap object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ScrapHandle(Atom);

/// Handle to a MarkHandle object (the indirection of Figure 3: a scrap's
/// mark handle carries a mark id resolved by the Mark Manager).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MarkHandleHandle(Atom);

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

macro_rules! impl_resource_constructor {
    ($ty:ty) => {
        impl $ty {
            /// Rewrap a store resource returned by a triple-level query
            /// (e.g. a conjunctive-join binding) as a typed handle.
            pub(crate) fn from_resource(atom: Atom) -> Self {
                Self(atom)
            }
        }
    };
}

impl_resource_constructor!(BundleHandle);
impl_resource_constructor!(ScrapHandle);

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
#[derive(Debug)]
pub struct SlimPadDmi {
    store: TripleStore,
}

impl Default for SlimPadDmi {
    fn default() -> Self {
        Self::new()
    }
}

/// Encode `(x, y)` as the Coordinate literal `"x,y"`.
fn coord_text(pos: (i64, i64)) -> String {
    format!("{},{}", pos.0, pos.1)
}

/// Decode a Coordinate literal.
fn parse_coord(text: &str) -> Option<(i64, i64)> {
    let (x, y) = text.split_once(',')?;
    Some((x.trim().parse().ok()?, y.trim().parse().ok()?))
}

impl SlimPadDmi {
    /// A fresh DMI over an empty store (with the Bundle-Scrap model
    /// encoded into it, so the store is self-describing).
    pub fn new() -> Self {
        let mut store = TripleStore::new();
        encode_model(&mut store, &builtin::bundle_scrap());
        SlimPadDmi { store }
    }

    // ---- small internal helpers -------------------------------------------

    fn construct_atom(&mut self, construct: &str) -> Atom {
        self.store.atom(&vocab::construct_res("bundle-scrap", construct))
    }

    fn create_instance(&mut self, construct: &str) -> Atom {
        let id = self.store.fresh_resource(construct);
        let c = self.construct_atom(construct);
        let type_p = self.store.atom(vocab::TYPE);
        let conf_p = self.store.atom(vocab::CONFORMS_TO);
        self.store.insert_all([
            trim::Triple { subject: id, property: type_p, object: Value::Resource(c) },
            trim::Triple { subject: id, property: conf_p, object: Value::Resource(c) },
        ]);
        id
    }

    fn is_instance_of(&self, id: Atom, construct: &str) -> bool {
        let Some(conf_p) = self.store.find_atom(vocab::CONFORMS_TO) else {
            return false;
        };
        let Some(c) = self.store.find_atom(&vocab::construct_res("bundle-scrap", construct))
        else {
            return false;
        };
        self.store.object_of(id, conf_p) == Some(Value::Resource(c))
    }

    fn require(&self, id: Atom, construct: &str, what: &'static str) -> Result<(), DmiError> {
        if self.is_instance_of(id, construct) {
            Ok(())
        } else {
            Err(DmiError::NotFound { what, id: self.store.resolve(id).to_string() })
        }
    }

    fn set_literal(&mut self, subject: Atom, property: &str, value: &str) {
        let p = self.store.atom(property);
        let v = self.store.literal_value(value);
        self.store.set_unique(subject, p, v);
    }

    fn literal_of(&self, subject: Atom, property: &str) -> Option<String> {
        let p = self.store.find_atom(property)?;
        self.store.object_of(subject, p).and_then(|v| self.store.value_str(v).map(str::to_string))
    }

    fn links_of(&self, subject: Atom, property: &str) -> Vec<Atom> {
        let Some(p) = self.store.find_atom(property) else {
            return Vec::new();
        };
        let mut out: Vec<Atom> = self
            .store
            .select(&TriplePattern::default().with_subject(subject).with_property(p))
            .into_iter()
            .filter_map(|t| match t.object {
                Value::Resource(a) => Some(a),
                Value::Literal(_) => None,
            })
            .collect();
        out.sort_unstable();
        out
    }

    fn incoming_links(&self, target: Atom, property: &str) -> Vec<Atom> {
        let Some(p) = self.store.find_atom(property) else {
            return Vec::new();
        };
        let mut out: Vec<Atom> = self
            .store
            .select(
                &TriplePattern::default().with_property(p).with_object(Value::Resource(target)),
            )
            .into_iter()
            .map(|t| t.subject)
            .collect();
        out.sort_unstable();
        out
    }

    // ---- Create_* (Figure 10) ---------------------------------------------

    /// `Create_SlimPad(padName, rootBundle)` — the root bundle may be
    /// attached now or later (`rootBundle` is `0..1`).
    pub fn create_slim_pad(
        &mut self,
        pad_name: &str,
        root_bundle: Option<BundleHandle>,
    ) -> Result<PadHandle, DmiError> {
        if let Some(b) = root_bundle {
            self.require(b.0, "Bundle", "Bundle")?;
        }
        let id = self.create_instance("SlimPad");
        self.set_literal(id, "padName", pad_name);
        if let Some(b) = root_bundle {
            let p = self.store.atom("rootBundle");
            self.store.insert(id, p, Value::Resource(b.0));
        }
        Ok(PadHandle(id))
    }

    /// `Create_Bundle(bundleName, bundlePos, bundleWidth, bundleHeight)`.
    pub fn create_bundle(
        &mut self,
        name: &str,
        pos: (i64, i64),
        width: i64,
        height: i64,
    ) -> BundleHandle {
        let id = self.create_instance("Bundle");
        self.set_literal(id, "bundleName", name);
        self.set_literal(id, "bundlePos", &coord_text(pos));
        self.set_literal(id, "bundleWidth", &width.to_string());
        self.set_literal(id, "bundleHeight", &height.to_string());
        BundleHandle(id)
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
        let id = self.create_instance("Scrap");
        self.set_literal(id, "scrapName", name);
        self.set_literal(id, "scrapPos", &coord_text(pos));
        let handle = self.create_mark_handle(mark_id);
        let p = self.store.atom("scrapMark");
        self.store.insert(id, p, Value::Resource(handle.0));
        Ok(ScrapHandle(id))
    }

    /// `Create_MarkHandle(markId)`.
    pub fn create_mark_handle(&mut self, mark_id: &str) -> MarkHandleHandle {
        let id = self.create_instance("MarkHandle");
        self.set_literal(id, "markId", mark_id);
        MarkHandleHandle(id)
    }

    // ---- Update_* (Figure 10) ---------------------------------------------

    /// `Update_padName(SlimPad, newPadName)`.
    pub fn update_pad_name(&mut self, pad: PadHandle, new_name: &str) -> Result<(), DmiError> {
        self.require(pad.0, "SlimPad", "SlimPad")?;
        self.set_literal(pad.0, "padName", new_name);
        Ok(())
    }

    /// `Update_rootBundle(SlimPad, newRootBundle)`.
    pub fn update_root_bundle(
        &mut self,
        pad: PadHandle,
        new_root: Option<BundleHandle>,
    ) -> Result<(), DmiError> {
        self.require(pad.0, "SlimPad", "SlimPad")?;
        if let Some(b) = new_root {
            self.require(b.0, "Bundle", "Bundle")?;
        }
        let p = self.store.atom("rootBundle");
        self.store.remove_matching(&TriplePattern::default().with_subject(pad.0).with_property(p));
        if let Some(b) = new_root {
            self.store.insert(pad.0, p, Value::Resource(b.0));
        }
        Ok(())
    }

    /// `Update_bundleName(Bundle, newName)`.
    pub fn update_bundle_name(&mut self, b: BundleHandle, name: &str) -> Result<(), DmiError> {
        self.require(b.0, "Bundle", "Bundle")?;
        self.set_literal(b.0, "bundleName", name);
        Ok(())
    }

    /// `Update_bundlePos(Bundle, newPos)` — moving a bundle is the
    /// paper's core 2-D manipulation.
    pub fn update_bundle_pos(&mut self, b: BundleHandle, pos: (i64, i64)) -> Result<(), DmiError> {
        self.require(b.0, "Bundle", "Bundle")?;
        self.set_literal(b.0, "bundlePos", &coord_text(pos));
        Ok(())
    }

    /// `Update_bundleWidth/Height(Bundle, …)` — resize.
    pub fn update_bundle_size(
        &mut self,
        b: BundleHandle,
        width: i64,
        height: i64,
    ) -> Result<(), DmiError> {
        self.require(b.0, "Bundle", "Bundle")?;
        self.set_literal(b.0, "bundleWidth", &width.to_string());
        self.set_literal(b.0, "bundleHeight", &height.to_string());
        Ok(())
    }

    /// `Update_scrapName(Scrap, newName)` — "a scrap that can be named
    /// and moved around".
    pub fn update_scrap_name(&mut self, s: ScrapHandle, name: &str) -> Result<(), DmiError> {
        self.require(s.0, "Scrap", "Scrap")?;
        self.set_literal(s.0, "scrapName", name);
        Ok(())
    }

    /// `Update_scrapPos(Scrap, newPos)`.
    pub fn update_scrap_pos(&mut self, s: ScrapHandle, pos: (i64, i64)) -> Result<(), DmiError> {
        self.require(s.0, "Scrap", "Scrap")?;
        self.set_literal(s.0, "scrapPos", &coord_text(pos));
        Ok(())
    }

    // ---- containment -------------------------------------------------------

    /// `addNestedBundle(parent, child)` (Figure 10's setter list).
    /// Enforces single-parent and acyclicity.
    pub fn add_nested_bundle(
        &mut self,
        parent: BundleHandle,
        child: BundleHandle,
    ) -> Result<(), DmiError> {
        self.require(parent.0, "Bundle", "Bundle")?;
        self.require(child.0, "Bundle", "Bundle")?;
        if parent == child {
            return Err(DmiError::Structure { message: "a bundle cannot nest inside itself".into() });
        }
        if !self.incoming_links(child.0, "nestedBundle").is_empty() {
            return Err(DmiError::Structure {
                message: "bundle already nests in another bundle".into(),
            });
        }
        // Acyclicity: parent must not be reachable from child.
        let reachable = self.store.view(child.0);
        if reachable.resources.contains(&parent.0) {
            return Err(DmiError::Structure {
                message: "nesting would create a bundle cycle".into(),
            });
        }
        let p = self.store.atom("nestedBundle");
        self.store.insert(parent.0, p, Value::Resource(child.0));
        Ok(())
    }

    /// Detach a nested bundle from its parent (it becomes free-floating).
    pub fn remove_nested_bundle(
        &mut self,
        parent: BundleHandle,
        child: BundleHandle,
    ) -> Result<(), DmiError> {
        self.require(parent.0, "Bundle", "Bundle")?;
        let p = self.store.atom("nestedBundle");
        let removed = self.store.remove(trim::Triple {
            subject: parent.0,
            property: p,
            object: Value::Resource(child.0),
        });
        if !removed {
            return Err(DmiError::Structure { message: "bundle is not nested there".into() });
        }
        Ok(())
    }

    /// Place a scrap into a bundle. A scrap lives in at most one bundle.
    pub fn add_scrap(&mut self, bundle: BundleHandle, scrap: ScrapHandle) -> Result<(), DmiError> {
        self.require(bundle.0, "Bundle", "Bundle")?;
        self.require(scrap.0, "Scrap", "Scrap")?;
        if !self.incoming_links(scrap.0, "bundleContent").is_empty() {
            return Err(DmiError::Structure {
                message: "scrap already belongs to a bundle".into(),
            });
        }
        let p = self.store.atom("bundleContent");
        self.store.insert(bundle.0, p, Value::Resource(scrap.0));
        Ok(())
    }

    /// Take a scrap out of a bundle (it becomes free-floating).
    pub fn remove_scrap(
        &mut self,
        bundle: BundleHandle,
        scrap: ScrapHandle,
    ) -> Result<(), DmiError> {
        self.require(bundle.0, "Bundle", "Bundle")?;
        let p = self.store.atom("bundleContent");
        let removed = self.store.remove(trim::Triple {
            subject: bundle.0,
            property: p,
            object: Value::Resource(scrap.0),
        });
        if !removed {
            return Err(DmiError::Structure { message: "scrap is not in that bundle".into() });
        }
        Ok(())
    }

    /// `setScrapMark` extension: attach an additional mark handle to a
    /// scrap (the §6 "multiple marks per scrap" extension; Figure 3
    /// already allows `1..*`).
    pub fn add_scrap_mark(
        &mut self,
        scrap: ScrapHandle,
        handle: MarkHandleHandle,
    ) -> Result<(), DmiError> {
        self.require(scrap.0, "Scrap", "Scrap")?;
        self.require(handle.0, "MarkHandle", "MarkHandle")?;
        let p = self.store.atom("scrapMark");
        self.store.insert(scrap.0, p, Value::Resource(handle.0));
        Ok(())
    }

    /// Detach a mark handle; refuses to remove a scrap's last mark
    /// (`scrapMark` is `1..*`). The handle object itself is deleted.
    pub fn remove_scrap_mark(
        &mut self,
        scrap: ScrapHandle,
        handle: MarkHandleHandle,
    ) -> Result<(), DmiError> {
        self.require(scrap.0, "Scrap", "Scrap")?;
        let marks = self.links_of(scrap.0, "scrapMark");
        if !marks.contains(&handle.0) {
            return Err(DmiError::Structure { message: "mark handle not on that scrap".into() });
        }
        if marks.len() == 1 {
            return Err(DmiError::Cardinality {
                message: "a scrap must keep at least one mark (scrapMark 1..*)".into(),
            });
        }
        let p = self.store.atom("scrapMark");
        self.store.remove(trim::Triple {
            subject: scrap.0,
            property: p,
            object: Value::Resource(handle.0),
        });
        self.delete_subject(handle.0);
        Ok(())
    }

    // ---- §6 extensions: annotations and scrap links --------------------------

    /// Attach an annotation to a scrap ("initial feedback from clinicians
    /// indicates annotations on scraps would be useful", paper §5).
    pub fn add_annotation(&mut self, scrap: ScrapHandle, text: &str) -> Result<(), DmiError> {
        self.require(scrap.0, "Scrap", "Scrap")?;
        let p = self.store.atom("scrapAnnotation");
        let v = self.store.literal_value(text);
        self.store.insert(scrap.0, p, v);
        Ok(())
    }

    /// A scrap's annotations, sorted.
    pub fn annotations(&self, scrap: ScrapHandle) -> Result<Vec<String>, DmiError> {
        self.require(scrap.0, "Scrap", "Scrap")?;
        let Some(p) = self.store.find_atom("scrapAnnotation") else {
            return Ok(Vec::new());
        };
        let mut out: Vec<String> = self
            .store
            .select(&TriplePattern::default().with_subject(scrap.0).with_property(p))
            .into_iter()
            .filter_map(|t| self.store.value_str(t.object).map(str::to_string))
            .collect();
        out.sort();
        Ok(out)
    }

    /// Remove one annotation; errors if it is not present.
    pub fn remove_annotation(&mut self, scrap: ScrapHandle, text: &str) -> Result<(), DmiError> {
        self.require(scrap.0, "Scrap", "Scrap")?;
        let p = self.store.atom("scrapAnnotation");
        let v = self.store.literal_value(text);
        if !self.store.remove(trim::Triple { subject: scrap.0, property: p, object: v }) {
            return Err(DmiError::Structure { message: "annotation not present".into() });
        }
        Ok(())
    }

    /// Link two scraps ("explicit links between scraps", paper §3/§6).
    /// Links are directed; self-links are rejected.
    pub fn link_scraps(&mut self, from: ScrapHandle, to: ScrapHandle) -> Result<(), DmiError> {
        self.require(from.0, "Scrap", "Scrap")?;
        self.require(to.0, "Scrap", "Scrap")?;
        if from == to {
            return Err(DmiError::Structure { message: "a scrap cannot link to itself".into() });
        }
        let p = self.store.atom("scrapLink");
        self.store.insert(from.0, p, Value::Resource(to.0));
        Ok(())
    }

    /// Outgoing scrap links, sorted.
    pub fn scrap_links(&self, from: ScrapHandle) -> Result<Vec<ScrapHandle>, DmiError> {
        self.require(from.0, "Scrap", "Scrap")?;
        Ok(self.links_of(from.0, "scrapLink").into_iter().map(ScrapHandle).collect())
    }

    /// Remove a link; errors if it is not present.
    pub fn unlink_scraps(&mut self, from: ScrapHandle, to: ScrapHandle) -> Result<(), DmiError> {
        self.require(from.0, "Scrap", "Scrap")?;
        let p = self.store.atom("scrapLink");
        if !self.store.remove(trim::Triple {
            subject: from.0,
            property: p,
            object: Value::Resource(to.0),
        }) {
            return Err(DmiError::Structure { message: "scraps are not linked".into() });
        }
        Ok(())
    }

    // ---- Delete_* (Figure 10) ----------------------------------------------

    fn delete_subject(&mut self, id: Atom) {
        self.store.remove_matching(&TriplePattern::default().with_subject(id));
    }

    fn delete_incoming(&mut self, id: Atom) {
        let incoming: Vec<trim::Triple> = self
            .store
            .select(&TriplePattern::default().with_object(Value::Resource(id)))
            .into_iter()
            // Keep the model encoding intact: only instance-level triples
            // reference instance resources, but be safe and never touch
            // triples whose subject is a model element.
            .filter(|t| {
                let s = self.store.resolve(t.subject);
                !s.starts_with("construct:") && !s.starts_with("connector:") && !s.starts_with("model:")
            })
            .collect();
        self.store.remove_all(incoming);
    }

    /// `Delete_SlimPad(SlimPad)` — deletes the pad object only; its
    /// bundle tree survives (pads are views over bundles).
    pub fn delete_slim_pad(&mut self, pad: PadHandle) -> Result<(), DmiError> {
        self.require(pad.0, "SlimPad", "SlimPad")?;
        self.delete_incoming(pad.0);
        self.delete_subject(pad.0);
        Ok(())
    }

    /// `Delete_Bundle(Bundle)` — recursive: contained scraps and nested
    /// bundles go with it, and references from parents/pads are cleaned.
    pub fn delete_bundle(&mut self, bundle: BundleHandle) -> Result<(), DmiError> {
        self.require(bundle.0, "Bundle", "Bundle")?;
        for scrap in self.links_of(bundle.0, "bundleContent") {
            self.delete_scrap(ScrapHandle(scrap))?;
        }
        for nested in self.links_of(bundle.0, "nestedBundle") {
            self.delete_bundle(BundleHandle(nested))?;
        }
        self.delete_incoming(bundle.0);
        self.delete_subject(bundle.0);
        Ok(())
    }

    /// `Delete_Scrap(Scrap)` — removes the scrap, its mark handles, and
    /// its containment edge.
    pub fn delete_scrap(&mut self, scrap: ScrapHandle) -> Result<(), DmiError> {
        self.require(scrap.0, "Scrap", "Scrap")?;
        for handle in self.links_of(scrap.0, "scrapMark") {
            self.delete_subject(handle);
        }
        self.delete_incoming(scrap.0);
        self.delete_subject(scrap.0);
        Ok(())
    }

    // ---- reads (the application-data interfaces) ----------------------------

    /// Snapshot a pad.
    pub fn pad(&self, pad: PadHandle) -> Result<PadData, DmiError> {
        self.require(pad.0, "SlimPad", "SlimPad")?;
        Ok(PadData {
            name: self.literal_of(pad.0, "padName").unwrap_or_default(),
            root_bundle: self.links_of(pad.0, "rootBundle").first().copied().map(BundleHandle),
        })
    }

    /// Snapshot a bundle.
    pub fn bundle(&self, b: BundleHandle) -> Result<BundleData, DmiError> {
        self.require(b.0, "Bundle", "Bundle")?;
        Ok(BundleData {
            name: self.literal_of(b.0, "bundleName").unwrap_or_default(),
            pos: self
                .literal_of(b.0, "bundlePos")
                .and_then(|t| parse_coord(&t))
                .unwrap_or((0, 0)),
            width: self
                .literal_of(b.0, "bundleWidth")
                .and_then(|t| t.parse().ok())
                .unwrap_or(0),
            height: self
                .literal_of(b.0, "bundleHeight")
                .and_then(|t| t.parse().ok())
                .unwrap_or(0),
            scraps: self.links_of(b.0, "bundleContent").into_iter().map(ScrapHandle).collect(),
            nested: self.links_of(b.0, "nestedBundle").into_iter().map(BundleHandle).collect(),
        })
    }

    /// Snapshot a scrap.
    pub fn scrap(&self, s: ScrapHandle) -> Result<ScrapData, DmiError> {
        self.require(s.0, "Scrap", "Scrap")?;
        Ok(ScrapData {
            name: self.literal_of(s.0, "scrapName").unwrap_or_default(),
            pos: self
                .literal_of(s.0, "scrapPos")
                .and_then(|t| parse_coord(&t))
                .unwrap_or((0, 0)),
            marks: self.links_of(s.0, "scrapMark").into_iter().map(MarkHandleHandle).collect(),
        })
    }

    /// Snapshot a mark handle.
    pub fn mark_handle(&self, h: MarkHandleHandle) -> Result<MarkHandleData, DmiError> {
        self.require(h.0, "MarkHandle", "MarkHandle")?;
        Ok(MarkHandleData { mark_id: self.literal_of(h.0, "markId").unwrap_or_default() })
    }

    /// All pads in the store.
    pub fn pads(&self) -> Vec<PadHandle> {
        self.instances_of("SlimPad").into_iter().map(PadHandle).collect()
    }

    /// All bundles in the store.
    pub fn bundles(&self) -> Vec<BundleHandle> {
        self.instances_of("Bundle").into_iter().map(BundleHandle).collect()
    }

    /// All scraps in the store, contained or free-floating.
    pub fn all_scraps(&self) -> Vec<ScrapHandle> {
        self.instances_of("Scrap").into_iter().map(ScrapHandle).collect()
    }

    fn instances_of(&self, construct: &str) -> Vec<Atom> {
        let Some(conf_p) = self.store.find_atom(vocab::CONFORMS_TO) else {
            return Vec::new();
        };
        let Some(c) = self.store.find_atom(&vocab::construct_res("bundle-scrap", construct))
        else {
            return Vec::new();
        };
        let mut out: Vec<Atom> = self
            .store
            .select(&TriplePattern::default().with_property(conf_p).with_object(Value::Resource(c)))
            .into_iter()
            .map(|t| t.subject)
            .collect();
        out.sort_unstable();
        out
    }

    /// Population counts `(bundles, scraps)` answered by the
    /// conjunctive engine. A bundle is exactly an instance that
    /// conforms to `Bundle` and carries a `bundleName` (creation sets
    /// one, updates replace it), and likewise for scraps, so the
    /// 2-pattern joins count the same sets as [`Self::bundles`] and
    /// [`Self::all_scraps`] — but through the planner/merge-join path,
    /// keeping service-level inspection an end-to-end probe of that
    /// engine.
    pub fn population_by_join(&self) -> (usize, usize) {
        (self.count_named("Bundle", "bundleName"), self.count_named("Scrap", "scrapName"))
    }

    fn count_named(&self, construct: &str, name_prop: &str) -> usize {
        let (Some(conf_p), Some(c), Some(p)) = (
            self.store.find_atom(vocab::CONFORMS_TO),
            self.store.find_atom(&vocab::construct_res("bundle-scrap", construct)),
            self.store.find_atom(name_prop),
        ) else {
            return 0;
        };
        let mut q = ConjQuery::new();
        let x = q.var("x");
        let n = q.var("n");
        q.pattern(x, conf_p, c).pattern(x, p, n);
        q.solve(&self.store).map(|rows| rows.len()).unwrap_or(0)
    }

    /// Subjects whose `property` literal contains `needle`
    /// (case-insensitive), answered by the store's literal search
    /// ([`trim::TripleStore::find_literals`], which tests each distinct
    /// literal once) instead of a walk over every instance. Sorted by atom
    /// and deduplicated —
    /// the same order `instances_of` produces.
    fn subjects_with_literal(&self, property: &str, needle: &str) -> Vec<Atom> {
        let Some(p) = self.store.find_atom(property) else {
            return Vec::new();
        };
        let mut out: Vec<Atom> = self
            .store
            .find_literals(needle)
            .into_iter()
            .filter(|t| t.property == p)
            .map(|t| t.subject)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Scrap handles matched through the literal search (handle
    /// construction lives here, where the handle internals are visible).
    pub(crate) fn scraps_by_literal(&self, property: &str, needle: &str) -> Vec<ScrapHandle> {
        self.subjects_with_literal(property, needle).into_iter().map(ScrapHandle).collect()
    }

    /// Bundle handles matched through the literal search.
    pub(crate) fn bundles_by_literal(&self, property: &str, needle: &str) -> Vec<BundleHandle> {
        self.subjects_with_literal(property, needle).into_iter().map(BundleHandle).collect()
    }

    // ---- persistence and inspection (Figure 10: save/load) ------------------

    /// `save(fileName)` — persist the whole store (model + instances)
    /// through TRIM's XML format. Durable: the file is checksummed and
    /// installed atomically, so a crash mid-save leaves the previous
    /// version intact.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), DmiError> {
        self.store.save(path)?;
        Ok(())
    }

    /// [`save`](SlimPadDmi::save) through an explicit [`Vfs`] backend.
    pub fn save_to(&self, vfs: &dyn Vfs, path: &Path) -> Result<(), DmiError> {
        self.store.save_to(vfs, path)?;
        Ok(())
    }

    /// The XML text `save` would write.
    pub fn save_xml(&self) -> String {
        self.store.to_xml()
    }

    /// `load(fileName) : SlimPad` — load a store and return the DMI plus
    /// the pads found inside. Strict: refuses files that fail their
    /// integrity check (see [`SlimPadDmi::load_salvage`]).
    pub fn load(path: impl AsRef<Path>) -> Result<(Self, Vec<PadHandle>), DmiError> {
        let store = TripleStore::load(path)?;
        let dmi = SlimPadDmi { store };
        let pads = dmi.pads();
        Ok((dmi, pads))
    }

    /// [`load`](SlimPadDmi::load) through an explicit [`Vfs`] backend.
    pub fn load_from(vfs: &dyn Vfs, path: &Path) -> Result<(Self, Vec<PadHandle>), DmiError> {
        let store = TripleStore::load_from(vfs, path)?;
        let dmi = SlimPadDmi { store };
        let pads = dmi.pads();
        Ok((dmi, pads))
    }

    /// `load` from XML text.
    pub fn load_xml(text: &str) -> Result<(Self, Vec<PadHandle>), DmiError> {
        let store = TripleStore::from_xml(text)?;
        let dmi = SlimPadDmi { store };
        let pads = dmi.pads();
        Ok((dmi, pads))
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
        Ok(StoreLog::attach(vfs, snapshot_path, &mut self.store)?)
    }

    /// Group-commit every change since the last commit to the log, with
    /// sidecar aux records (e.g. the pad's mark-store XML) riding in the
    /// same frame: one frame, one sync. See [`trim::CommitOutcome`] — in
    /// particular, `NeedsFullSnapshot` means nothing was persisted and
    /// the caller must [`compact_log_with`](SlimPadDmi::compact_log_with).
    pub fn commit_log_with_aux(
        &mut self,
        vfs: &dyn Vfs,
        log: &mut StoreLog,
        aux: &[(&str, &[u8])],
    ) -> Result<trim::CommitOutcome, DmiError> {
        Ok(log.commit_with_aux(vfs, &mut self.store, aux)?)
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
        Ok(log.compact_with(vfs, &mut self.store, payload)?)
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
        let recovered = TripleStore::load_salvage_from(vfs, path)?;
        Ok(recovered.map(|store| {
            let dmi = SlimPadDmi { store };
            let pads = dmi.pads();
            (dmi, pads)
        }))
    }

    /// Salvage from XML text (see [`SlimPadDmi::load_salvage`]).
    pub fn load_xml_salvage(text: &str) -> Result<Recovered<(Self, Vec<PadHandle>)>, DmiError> {
        let recovered = TripleStore::from_xml_salvage(text)?;
        Ok(recovered.map(|store| {
            let dmi = SlimPadDmi { store };
            let pads = dmi.pads();
            (dmi, pads)
        }))
    }

    /// Read access to the underlying triples (the paper's point is that
    /// applications *can* see the generic representation, they just
    /// shouldn't have to).
    pub fn store(&self) -> &TripleStore {
        &self.store
    }

    /// Take a checkpoint of the data state (the TRIM journal revision).
    pub fn checkpoint(&self) -> trim::Revision {
        self.store.revision()
    }

    /// Roll the data back to a checkpoint taken with
    /// [`SlimPadDmi::checkpoint`]: the undo mechanism DMI compound
    /// operations and the application's Edit→Undo both ride on.
    ///
    /// Handles minted after the checkpoint dangle afterwards (they report
    /// [`DmiError::NotFound`] like any deleted object's handles).
    pub fn rollback(&mut self, to: trim::Revision) -> Result<(), DmiError> {
        self.store.undo_to(to)?;
        Ok(())
    }

    /// Run the metamodel conformance checker over the store — the DMI's
    /// consistency guarantee, made checkable.
    pub fn check(&self) -> ConformanceReport {
        metamodel::check_conformance(&self.store, &builtin::bundle_scrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
