//! DMI-layer differential check: one op sequence driven through the real
//! [`SlimPadDmi`] and a typed reference model (`RefWorld`) that tracks
//! the Bundle-Scrap structure in plain Rust collections. After every op
//! the model predicts whether the DMI accepts or rejects it, and every
//! typed snapshot the DMI can produce is compared against the model —
//! plus a direct triple-pattern readback, mark-manager resolution of
//! every mark id, checkpoint/rollback against cloned model snapshots,
//! and a canonical save/load round-trip at the end.

use crate::ops::{DmiOp, ANNOTATIONS, NAMES};
use basedocs::{textdoc::TextTarget, Span, TextAddress};
use marks::{MarkAddress, MarkManager};
use slimio::MemVfs;
use slimstore::{BundleHandle, MarkHandleHandle, PadHandle, ScrapHandle, SlimPadDmi};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use trim::{TriplePattern, Value};

/// Run `ops` through the DMI world; panics on any divergence.
pub fn check(ops: &[DmiOp]) {
    let mut world = DmiWorld::new();
    for op in ops {
        world.apply(op);
        world.verify();
    }
    world.final_round_trip();
}

/// Typed reference model. Objects are addressed by their index in the
/// creation-ordered vectors; deleted objects become `None` (their
/// handles must dangle in the real DMI too).
#[derive(Debug, Clone, Default)]
struct RefWorld {
    bundles: Vec<Option<RefBundle>>,
    scraps: Vec<Option<RefScrap>>,
    pads: Vec<Option<RefPad>>,
}

#[derive(Debug, Clone)]
struct RefBundle {
    name: String,
    pos: (i64, i64),
    width: i64,
    height: i64,
    scraps: BTreeSet<usize>,
    nested: BTreeSet<usize>,
    parent: Option<usize>,
}

#[derive(Debug, Clone)]
struct RefScrap {
    name: String,
    pos: (i64, i64),
    /// Mark handles on this scrap, with the mark id each carries. The
    /// handles are real-system identifiers; the *relationships* are the
    /// model's.
    marks: BTreeMap<MarkHandleHandle, String>,
    parent: Option<usize>,
    links: BTreeSet<usize>,
    annotations: BTreeSet<String>,
}

#[derive(Debug, Clone)]
struct RefPad {
    name: String,
    root: Option<usize>,
}

/// Everything `Rollback` must restore (the mark manager is append-only
/// and deliberately excluded, matching `PadSession` semantics).
#[derive(Debug, Clone)]
struct Snapshot {
    model: RefWorld,
    bundle_handles: Vec<BundleHandle>,
    scrap_handles: Vec<ScrapHandle>,
    pad_handles: Vec<PadHandle>,
}

struct DmiWorld {
    dmi: SlimPadDmi,
    model: RefWorld,
    bundle_handles: Vec<BundleHandle>,
    scrap_handles: Vec<ScrapHandle>,
    pad_handles: Vec<PadHandle>,
    marks: MarkManager,
    mark_ids: Vec<String>,
    checkpoints: Vec<(trim::Revision, Snapshot)>,
}

impl DmiWorld {
    fn new() -> Self {
        DmiWorld {
            dmi: SlimPadDmi::new(),
            model: RefWorld::default(),
            bundle_handles: Vec::new(),
            scrap_handles: Vec::new(),
            pad_handles: Vec::new(),
            marks: MarkManager::new(),
            mark_ids: Vec::new(),
            checkpoints: Vec::new(),
        }
    }

    // ---- index resolution --------------------------------------------------

    fn live_bundles(&self) -> Vec<usize> {
        self.model.bundles.iter().enumerate().filter_map(|(i, b)| b.as_ref().map(|_| i)).collect()
    }

    fn live_scraps(&self) -> Vec<usize> {
        self.model.scraps.iter().enumerate().filter_map(|(i, s)| s.as_ref().map(|_| i)).collect()
    }

    fn live_pads(&self) -> Vec<usize> {
        self.model.pads.iter().enumerate().filter_map(|(i, p)| p.as_ref().map(|_| i)).collect()
    }

    /// Mint marks through the real mark manager lazily; ops reference
    /// them by index so sequences stay replayable.
    fn ensure_mark(&mut self, raw: usize) -> String {
        if self.mark_ids.is_empty() || (raw.is_multiple_of(3) && self.mark_ids.len() < 8) {
            let address = MarkAddress::Text(TextAddress {
                file_name: format!("doc-{}.txt", self.mark_ids.len()),
                target: TextTarget::Span { paragraph: raw % 5, span: Span::new(0, 5) },
            });
            let id = self.marks.create_mark_at(address).expect("minting a text mark cannot fail");
            self.mark_ids.push(id);
        }
        self.mark_ids[raw % self.mark_ids.len()].clone()
    }

    /// `parent` is a nested descendant of `child` (nesting would cycle).
    fn is_descendant(&self, ancestor: usize, target: usize) -> bool {
        let mut stack = vec![ancestor];
        let mut seen = BTreeSet::new();
        while let Some(b) = stack.pop() {
            if b == target {
                return true;
            }
            if seen.insert(b) {
                if let Some(Some(bundle)) = self.model.bundles.get(b) {
                    stack.extend(bundle.nested.iter().copied());
                }
            }
        }
        false
    }

    // ---- op application ----------------------------------------------------

    fn apply(&mut self, op: &DmiOp) {
        match *op {
            DmiOp::CreateBundle { name, pos, w, h } => {
                let handle = self.dmi.create_bundle(NAMES[name], pos, w, h);
                self.bundle_handles.push(handle);
                self.model.bundles.push(Some(RefBundle {
                    name: NAMES[name].to_string(),
                    pos,
                    width: w,
                    height: h,
                    scraps: BTreeSet::new(),
                    nested: BTreeSet::new(),
                    parent: None,
                }));
            }
            DmiOp::CreatePad { name, root } => {
                let root = pick(&self.live_bundles(), root);
                let root_handle = root.map(|i| self.bundle_handles[i]);
                let handle = self
                    .dmi
                    .create_slim_pad(NAMES[name], root_handle)
                    .expect("pad creation over live bundles must succeed");
                self.pad_handles.push(handle);
                self.model.pads.push(Some(RefPad { name: NAMES[name].to_string(), root }));
            }
            DmiOp::CreateScrap { name, pos, mark } => {
                let mark_id = self.ensure_mark(mark);
                let handle = self
                    .dmi
                    .create_scrap(NAMES[name], pos, &mark_id)
                    .expect("scrap creation must succeed");
                let minted = self.dmi.scrap(handle).expect("fresh scrap must snapshot").marks;
                assert_eq!(minted.len(), 1, "fresh scrap must carry exactly one mark");
                self.scrap_handles.push(handle);
                let mut marks = BTreeMap::new();
                marks.insert(minted[0], mark_id);
                self.model.scraps.push(Some(RefScrap {
                    name: NAMES[name].to_string(),
                    pos,
                    marks,
                    parent: None,
                    links: BTreeSet::new(),
                    annotations: BTreeSet::new(),
                }));
            }
            DmiOp::NestBundle { parent, child } => {
                let live = self.live_bundles();
                let (Some(p), Some(c)) = (pick(&live, Some(parent)), pick(&live, Some(child)))
                else {
                    return;
                };
                let expect_ok = p != c
                    && self.model.bundles[c].as_ref().unwrap().parent.is_none()
                    && !self.is_descendant(c, p);
                let result =
                    self.dmi.add_nested_bundle(self.bundle_handles[p], self.bundle_handles[c]);
                assert_eq!(result.is_ok(), expect_ok, "nest prediction diverged on {op:?}");
                if expect_ok {
                    self.model.bundles[p].as_mut().unwrap().nested.insert(c);
                    self.model.bundles[c].as_mut().unwrap().parent = Some(p);
                }
            }
            DmiOp::UnnestBundle { parent, child } => {
                let live = self.live_bundles();
                let (Some(p), Some(c)) = (pick(&live, Some(parent)), pick(&live, Some(child)))
                else {
                    return;
                };
                let expect_ok = self.model.bundles[p].as_ref().unwrap().nested.contains(&c);
                let result =
                    self.dmi.remove_nested_bundle(self.bundle_handles[p], self.bundle_handles[c]);
                assert_eq!(result.is_ok(), expect_ok, "unnest prediction diverged on {op:?}");
                if expect_ok {
                    self.model.bundles[p].as_mut().unwrap().nested.remove(&c);
                    self.model.bundles[c].as_mut().unwrap().parent = None;
                }
            }
            DmiOp::AddScrap { bundle, scrap } => {
                let (Some(b), Some(s)) =
                    (pick(&self.live_bundles(), Some(bundle)), pick(&self.live_scraps(), Some(scrap)))
                else {
                    return;
                };
                let expect_ok = self.model.scraps[s].as_ref().unwrap().parent.is_none();
                let result = self.dmi.add_scrap(self.bundle_handles[b], self.scrap_handles[s]);
                assert_eq!(result.is_ok(), expect_ok, "add_scrap prediction diverged on {op:?}");
                if expect_ok {
                    self.model.bundles[b].as_mut().unwrap().scraps.insert(s);
                    self.model.scraps[s].as_mut().unwrap().parent = Some(b);
                }
            }
            DmiOp::RemoveScrap { bundle, scrap } => {
                let (Some(b), Some(s)) =
                    (pick(&self.live_bundles(), Some(bundle)), pick(&self.live_scraps(), Some(scrap)))
                else {
                    return;
                };
                let expect_ok = self.model.bundles[b].as_ref().unwrap().scraps.contains(&s);
                let result = self.dmi.remove_scrap(self.bundle_handles[b], self.scrap_handles[s]);
                assert_eq!(result.is_ok(), expect_ok, "remove_scrap prediction diverged on {op:?}");
                if expect_ok {
                    self.model.bundles[b].as_mut().unwrap().scraps.remove(&s);
                    self.model.scraps[s].as_mut().unwrap().parent = None;
                }
            }
            DmiOp::AddMark { scrap, mark } => {
                let Some(s) = pick(&self.live_scraps(), Some(scrap)) else {
                    return;
                };
                let mark_id = self.ensure_mark(mark);
                let handle = self.dmi.create_mark_handle(&mark_id);
                self.dmi
                    .add_scrap_mark(self.scrap_handles[s], handle)
                    .expect("attaching a fresh mark handle must succeed");
                self.model.scraps[s].as_mut().unwrap().marks.insert(handle, mark_id);
            }
            DmiOp::RemoveMark { scrap, pick: which } => {
                let Some(s) = pick(&self.live_scraps(), Some(scrap)) else {
                    return;
                };
                let marks = self.model.scraps[s].as_ref().unwrap().marks.clone();
                let handles: Vec<MarkHandleHandle> = marks.keys().copied().collect();
                let target = handles[which % handles.len()];
                let expect_ok = handles.len() > 1;
                let result = self.dmi.remove_scrap_mark(self.scrap_handles[s], target);
                assert_eq!(
                    result.is_ok(),
                    expect_ok,
                    "remove_scrap_mark prediction diverged on {op:?}"
                );
                if expect_ok {
                    self.model.scraps[s].as_mut().unwrap().marks.remove(&target);
                }
            }
            DmiOp::Annotate { scrap, text } => {
                let Some(s) = pick(&self.live_scraps(), Some(scrap)) else {
                    return;
                };
                self.dmi
                    .add_annotation(self.scrap_handles[s], ANNOTATIONS[text])
                    .expect("annotating a live scrap must succeed");
                self.model.scraps[s].as_mut().unwrap().annotations.insert(ANNOTATIONS[text].into());
            }
            DmiOp::Unannotate { scrap, text } => {
                let Some(s) = pick(&self.live_scraps(), Some(scrap)) else {
                    return;
                };
                let expect_ok =
                    self.model.scraps[s].as_ref().unwrap().annotations.contains(ANNOTATIONS[text]);
                let result = self.dmi.remove_annotation(self.scrap_handles[s], ANNOTATIONS[text]);
                assert_eq!(result.is_ok(), expect_ok, "unannotate prediction diverged on {op:?}");
                if expect_ok {
                    self.model.scraps[s].as_mut().unwrap().annotations.remove(ANNOTATIONS[text]);
                }
            }
            DmiOp::Link { from, to } => {
                let live = self.live_scraps();
                let (Some(f), Some(t)) = (pick(&live, Some(from)), pick(&live, Some(to))) else {
                    return;
                };
                let expect_ok = f != t;
                let result = self.dmi.link_scraps(self.scrap_handles[f], self.scrap_handles[t]);
                assert_eq!(result.is_ok(), expect_ok, "link prediction diverged on {op:?}");
                if expect_ok {
                    self.model.scraps[f].as_mut().unwrap().links.insert(t);
                }
            }
            DmiOp::Unlink { from, to } => {
                let live = self.live_scraps();
                let (Some(f), Some(t)) = (pick(&live, Some(from)), pick(&live, Some(to))) else {
                    return;
                };
                let expect_ok = self.model.scraps[f].as_ref().unwrap().links.contains(&t);
                let result = self.dmi.unlink_scraps(self.scrap_handles[f], self.scrap_handles[t]);
                assert_eq!(result.is_ok(), expect_ok, "unlink prediction diverged on {op:?}");
                if expect_ok {
                    self.model.scraps[f].as_mut().unwrap().links.remove(&t);
                }
            }
            DmiOp::UpdateBundlePos { bundle, pos } => {
                let Some(b) = pick(&self.live_bundles(), Some(bundle)) else {
                    return;
                };
                self.dmi
                    .update_bundle_pos(self.bundle_handles[b], pos)
                    .expect("moving a live bundle must succeed");
                self.model.bundles[b].as_mut().unwrap().pos = pos;
            }
            DmiOp::UpdateScrapName { scrap, name } => {
                let Some(s) = pick(&self.live_scraps(), Some(scrap)) else {
                    return;
                };
                self.dmi
                    .update_scrap_name(self.scrap_handles[s], NAMES[name])
                    .expect("renaming a live scrap must succeed");
                self.model.scraps[s].as_mut().unwrap().name = NAMES[name].to_string();
            }
            DmiOp::UpdateRootBundle { pad, root } => {
                let Some(p) = pick(&self.live_pads(), Some(pad)) else {
                    return;
                };
                let root = pick(&self.live_bundles(), root);
                self.dmi
                    .update_root_bundle(self.pad_handles[p], root.map(|i| self.bundle_handles[i]))
                    .expect("re-rooting a live pad must succeed");
                self.model.pads[p].as_mut().unwrap().root = root;
            }
            DmiOp::DeleteBundle { bundle } => {
                let Some(b) = pick(&self.live_bundles(), Some(bundle)) else {
                    return;
                };
                self.dmi
                    .delete_bundle(self.bundle_handles[b])
                    .expect("deleting a live bundle must succeed");
                self.model_delete_bundle(b);
            }
            DmiOp::DeleteScrap { scrap } => {
                let Some(s) = pick(&self.live_scraps(), Some(scrap)) else {
                    return;
                };
                self.dmi
                    .delete_scrap(self.scrap_handles[s])
                    .expect("deleting a live scrap must succeed");
                self.model_delete_scrap(s);
            }
            DmiOp::DeletePad { pad } => {
                let Some(p) = pick(&self.live_pads(), Some(pad)) else {
                    return;
                };
                self.dmi.delete_slim_pad(self.pad_handles[p]).expect("deleting a live pad");
                self.model.pads[p] = None;
            }
            DmiOp::Checkpoint => {
                let snapshot = Snapshot {
                    model: self.model.clone(),
                    bundle_handles: self.bundle_handles.clone(),
                    scrap_handles: self.scrap_handles.clone(),
                    pad_handles: self.pad_handles.clone(),
                };
                self.checkpoints.push((self.dmi.checkpoint(), snapshot));
            }
            DmiOp::Rollback { back } => {
                if self.checkpoints.is_empty() {
                    return;
                }
                let idx = self.checkpoints.len() - 1 - (back % self.checkpoints.len());
                let (rev, snapshot) = self.checkpoints[idx].clone();
                self.dmi.rollback(rev).expect("recorded checkpoint must roll back");
                self.model = snapshot.model;
                self.bundle_handles = snapshot.bundle_handles;
                self.scrap_handles = snapshot.scrap_handles;
                self.pad_handles = snapshot.pad_handles;
                self.checkpoints.truncate(idx + 1);
            }
        }
    }

    /// Model mirror of the DMI's recursive bundle delete.
    fn model_delete_bundle(&mut self, b: usize) {
        // Subtree bundles via nested closure (including b itself).
        let mut subtree = BTreeSet::new();
        let mut stack = vec![b];
        while let Some(x) = stack.pop() {
            if subtree.insert(x) {
                if let Some(Some(bundle)) = self.model.bundles.get(x) {
                    stack.extend(bundle.nested.iter().copied());
                }
            }
        }
        // Scraps contained anywhere in the subtree die with it.
        let doomed: Vec<usize> = subtree
            .iter()
            .flat_map(|x| self.model.bundles[*x].as_ref().unwrap().scraps.iter().copied())
            .collect();
        for s in doomed {
            self.model_delete_scrap(s);
        }
        // Detach from a surviving parent, clear pad roots, then delete.
        for x in &subtree {
            if let Some(parent) = self.model.bundles[*x].as_ref().unwrap().parent {
                if !subtree.contains(&parent) {
                    self.model.bundles[parent].as_mut().unwrap().nested.remove(x);
                }
            }
        }
        for pad in self.model.pads.iter_mut().flatten() {
            if pad.root.is_some_and(|r| subtree.contains(&r)) {
                pad.root = None;
            }
        }
        for x in subtree {
            self.model.bundles[x] = None;
        }
    }

    fn model_delete_scrap(&mut self, s: usize) {
        if let Some(parent) = self.model.scraps[s].as_ref().and_then(|sc| sc.parent) {
            self.model.bundles[parent].as_mut().unwrap().scraps.remove(&s);
        }
        for other in self.model.scraps.iter_mut().flatten() {
            other.links.remove(&s);
        }
        self.model.scraps[s] = None;
    }

    // ---- verification ------------------------------------------------------

    fn verify(&self) {
        // Global object censuses (the DMI enumerates by conformsTo).
        let live_b: BTreeSet<BundleHandle> =
            self.live_bundles().iter().map(|i| self.bundle_handles[*i]).collect();
        let live_s: BTreeSet<ScrapHandle> =
            self.live_scraps().iter().map(|i| self.scrap_handles[*i]).collect();
        let live_p: BTreeSet<PadHandle> =
            self.live_pads().iter().map(|i| self.pad_handles[*i]).collect();
        assert_eq!(
            self.dmi.bundles().into_iter().collect::<BTreeSet<_>>(),
            live_b,
            "bundle census diverged"
        );
        assert_eq!(
            self.dmi.all_scraps().into_iter().collect::<BTreeSet<_>>(),
            live_s,
            "scrap census diverged"
        );
        assert_eq!(
            self.dmi.pads().into_iter().collect::<BTreeSet<_>>(),
            live_p,
            "pad census diverged"
        );

        for i in self.live_pads() {
            let data = self.dmi.pad(self.pad_handles[i]).expect("live pad must snapshot");
            let model = self.model.pads[i].as_ref().unwrap();
            assert_eq!(data.name, model.name, "pad name diverged");
            assert_eq!(
                data.root_bundle,
                model.root.map(|r| self.bundle_handles[r]),
                "pad root diverged"
            );
        }
        for i in self.live_bundles() {
            let data = self.dmi.bundle(self.bundle_handles[i]).expect("live bundle must snapshot");
            let model = self.model.bundles[i].as_ref().unwrap();
            assert_eq!(data.name, model.name, "bundle name diverged");
            assert_eq!(data.pos, model.pos, "bundle pos diverged");
            assert_eq!((data.width, data.height), (model.width, model.height), "bundle size");
            let scraps: BTreeSet<ScrapHandle> = data.scraps.into_iter().collect();
            assert_eq!(
                scraps,
                model.scraps.iter().map(|s| self.scrap_handles[*s]).collect(),
                "bundle contents diverged"
            );
            let nested: BTreeSet<BundleHandle> = data.nested.into_iter().collect();
            assert_eq!(
                nested,
                model.nested.iter().map(|b| self.bundle_handles[*b]).collect(),
                "bundle nesting diverged"
            );
        }
        for i in self.live_scraps() {
            let data = self.dmi.scrap(self.scrap_handles[i]).expect("live scrap must snapshot");
            let model = self.model.scraps[i].as_ref().unwrap();
            assert_eq!(data.name, model.name, "scrap name diverged");
            assert_eq!(data.pos, model.pos, "scrap pos diverged");
            let marks: BTreeSet<MarkHandleHandle> = data.marks.iter().copied().collect();
            assert_eq!(
                marks,
                model.marks.keys().copied().collect(),
                "scrap mark handles diverged"
            );
            for (handle, mark_id) in &model.marks {
                let data = self.dmi.mark_handle(*handle).expect("live mark handle must snapshot");
                assert_eq!(&data.mark_id, mark_id, "mark id diverged");
                // The mark layer must resolve every id the DMI carries.
                assert!(
                    self.marks.get(mark_id).is_ok(),
                    "DMI carries mark id unknown to the mark manager"
                );
            }
            assert_eq!(
                self.dmi.annotations(self.scrap_handles[i]).expect("live scrap annotations"),
                model.annotations.iter().cloned().collect::<Vec<_>>(),
                "annotations diverged"
            );
            let links: BTreeSet<ScrapHandle> = self
                .dmi
                .scrap_links(self.scrap_handles[i])
                .expect("live scrap links")
                .into_iter()
                .collect();
            assert_eq!(
                links,
                model.links.iter().map(|l| self.scrap_handles[*l]).collect(),
                "scrap links diverged"
            );
        }

        // Dangling handles must report NotFound, not stale data.
        for (i, entry) in self.model.bundles.iter().enumerate() {
            if entry.is_none() {
                assert!(
                    self.dmi.bundle(self.bundle_handles[i]).is_err(),
                    "deleted bundle handle still resolves"
                );
            }
        }
        for (i, entry) in self.model.scraps.iter().enumerate() {
            if entry.is_none() {
                assert!(
                    self.dmi.scrap(self.scrap_handles[i]).is_err(),
                    "deleted scrap handle still resolves"
                );
            }
        }

        // Triple-pattern readback: the generic layer's edge counts must
        // equal the typed model's (paper Figures 9-10: the DMI keeps the
        // triple representation consistent with the application data).
        self.verify_edge_count("bundleContent", self.model_edge_count(|b| b.scraps.len()));
        self.verify_edge_count("nestedBundle", self.model_edge_count(|b| b.nested.len()));
        let scrap_marks: usize =
            self.live_scraps().iter().map(|s| self.model.scraps[*s].as_ref().unwrap().marks.len()).sum();
        self.verify_edge_count("scrapMark", scrap_marks);
        let scrap_links: usize =
            self.live_scraps().iter().map(|s| self.model.scraps[*s].as_ref().unwrap().links.len()).sum();
        self.verify_edge_count("scrapLink", scrap_links);
    }

    fn model_edge_count(&self, f: impl Fn(&RefBundle) -> usize) -> usize {
        self.live_bundles().iter().map(|b| f(self.model.bundles[*b].as_ref().unwrap())).sum()
    }

    fn verify_edge_count(&self, property: &str, expected: usize) {
        let count = match self.dmi.store().find_atom(property) {
            Some(p) => self.dmi.store().count(&TriplePattern::default().with_property(p)),
            None => 0,
        };
        assert_eq!(count, expected, "{property} triple count diverged from typed model");
    }

    /// End-of-sequence checks: conformance plus canonical persistence.
    fn final_round_trip(&self) {
        let report = self.dmi.check();
        assert!(report.is_conformant(), "conformance violations: {:?}", report.violations);

        let xml = self.dmi.save_xml();
        let (reloaded, pads) = SlimPadDmi::load_xml(&xml).expect("canonical XML must load");
        assert_eq!(reloaded.save_xml(), xml, "canonical XML round-trip is not byte-identical");
        assert_eq!(pads.len(), self.live_pads().len(), "pad census changed across round-trip");

        let disk = MemVfs::new();
        let path = Path::new("slimcheck/dmi.xml");
        self.dmi.save_to(&disk, path).expect("MemVfs save cannot fail");
        let (from_disk, _) = SlimPadDmi::load_from(&disk, path).expect("saved DMI must load");
        assert_eq!(from_disk.save_xml(), xml, "durable round-trip diverged from canonical XML");
        let recovered = SlimPadDmi::load_salvage_from(&disk, path).expect("fresh save must salvage");
        assert!(recovered.is_clean(), "fresh DMI save salvage reported damage");
        assert_eq!(recovered.value.0.save_xml(), xml, "salvage round-trip diverged");

        // Every mark id referenced anywhere in the store resolves.
        let store = self.dmi.store();
        if let Some(p) = store.find_atom("markId") {
            for t in store.select(&TriplePattern::default().with_property(p)) {
                if let Value::Literal(_) = t.object {
                    let id = store.value_text(t.object).to_string();
                    assert!(self.marks.get(&id).is_ok(), "stored mark id {id:?} does not resolve");
                }
            }
        }
    }
}

/// Resolve a raw index against the live-object list: `None` stays `None`,
/// `Some(raw)` picks `live[raw % live.len()]`, and an empty list yields
/// `None` (callers treat that as a skip).
fn pick(live: &[usize], raw: Option<usize>) -> Option<usize> {
    let raw = raw?;
    if live.is_empty() {
        None
    } else {
        Some(live[raw % live.len()])
    }
}
