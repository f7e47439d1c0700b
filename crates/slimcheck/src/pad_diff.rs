//! Pad-layer differential check: a [`PadSession`] driven through
//! begin-op / undo cycles with the undo contract checked against a
//! snapshot stack of canonical XML — `undo()` must restore the *exact*
//! byte-identical data-layer state captured by the matching
//! [`PadSession::begin_op`], and the whole session must stay
//! conformant and round-trippable at the end.

use crate::ops::{PadOp, ANNOTATIONS, NAMES};
use basedocs::{textdoc::TextTarget, Span, TextAddress};
use marks::{MarkAddress, MarkManager};
use slimio::MemVfs;
use slimpad::PadSession;
use slimstore::{BundleHandle, ScrapHandle};
use std::path::Path;

/// Run `ops` through a pad session; panics on any divergence.
pub fn check(ops: &[PadOp]) {
    let mut world = PadWorld::new();
    for op in ops {
        world.apply(op);
        world.verify();
    }
    world.final_round_trip();
}

/// What `undo()` must restore: the canonical data-layer XML at
/// `begin_op` time plus the handle lists valid back then (handles minted
/// after the checkpoint dangle once it is restored).
struct UndoSnapshot {
    dmi_xml: String,
    bundles: Vec<BundleHandle>,
    scraps: Vec<ScrapHandle>,
}

struct PadWorld {
    session: PadSession,
    /// Bundles created by ops (the invisible root is excluded, matching
    /// what `stats()` counts).
    bundles: Vec<BundleHandle>,
    scraps: Vec<ScrapHandle>,
    /// Total marks ever minted — the manager is append-only, so undo
    /// does *not* shrink this.
    minted_marks: usize,
    undo_snapshots: Vec<UndoSnapshot>,
}

impl PadWorld {
    fn new() -> Self {
        PadWorld {
            session: PadSession::new("Rounds").expect("fresh pad session"),
            bundles: Vec::new(),
            scraps: Vec::new(),
            minted_marks: 0,
            undo_snapshots: Vec::new(),
        }
    }

    fn mint_mark(&mut self, raw: usize) -> String {
        let address = MarkAddress::Text(TextAddress {
            file_name: format!("notes-{}.txt", self.minted_marks),
            target: TextTarget::Span { paragraph: raw % 5, span: Span::new(0, 4) },
        });
        let id = self
            .session
            .marks_mut()
            .create_mark_at(address)
            .expect("minting a text mark cannot fail");
        self.minted_marks += 1;
        id
    }

    fn apply(&mut self, op: &PadOp) {
        match *op {
            PadOp::BeginOp => {
                self.undo_snapshots.push(UndoSnapshot {
                    dmi_xml: self.session.dmi().save_xml(),
                    bundles: self.bundles.clone(),
                    scraps: self.scraps.clone(),
                });
                self.session.begin_op();
            }
            PadOp::Undo => {
                let snapshot = self.undo_snapshots.pop();
                let undone = self.session.undo().expect("undo over recorded checkpoints");
                assert_eq!(
                    undone,
                    snapshot.is_some(),
                    "undo availability diverged from the snapshot stack"
                );
                if let Some(snapshot) = snapshot {
                    assert_eq!(
                        self.session.dmi().save_xml(),
                        snapshot.dmi_xml,
                        "undo did not restore the exact begin_op state"
                    );
                    self.bundles = snapshot.bundles;
                    self.scraps = snapshot.scraps;
                }
            }
            PadOp::CreateBundle { name, pos, parent } => {
                let parent = self.pick_bundle(parent);
                let handle = self
                    .session
                    .create_bundle(NAMES[name], pos, 160, 120, parent)
                    .expect("creating a bundle on the pad must succeed");
                self.bundles.push(handle);
            }
            PadOp::PlaceMark { label, pos, bundle } => {
                let bundle = self.pick_bundle(bundle);
                let mark_id = self.mint_mark(label);
                let handle = self
                    .session
                    .place_mark(&mark_id, Some(NAMES[label]), pos, bundle)
                    .expect("placing a minted mark must succeed");
                self.scraps.push(handle);
            }
            PadOp::Annotate { scrap, text } => {
                if self.scraps.is_empty() {
                    return;
                }
                let handle = self.scraps[scrap % self.scraps.len()];
                self.session
                    .dmi_mut()
                    .add_annotation(handle, ANNOTATIONS[text])
                    .expect("annotating a live scrap must succeed");
            }
            PadOp::DeleteScrap { scrap } => {
                if self.scraps.is_empty() {
                    return;
                }
                let idx = scrap % self.scraps.len();
                let handle = self.scraps.remove(idx);
                self.session
                    .dmi_mut()
                    .delete_scrap(handle)
                    .expect("deleting a live scrap must succeed");
            }
        }
    }

    fn pick_bundle(&self, raw: Option<usize>) -> Option<BundleHandle> {
        let raw = raw?;
        if self.bundles.is_empty() {
            None
        } else {
            Some(self.bundles[raw % self.bundles.len()])
        }
    }

    fn verify(&self) {
        let stats = self.session.stats();
        assert_eq!(stats.bundles, self.bundles.len(), "bundle count diverged");
        assert_eq!(stats.scraps, self.scraps.len(), "scrap count diverged");
        assert_eq!(stats.marks, self.minted_marks, "mark-store size diverged (it is append-only)");
        for handle in &self.bundles {
            assert!(self.session.dmi().bundle(*handle).is_ok(), "live bundle handle dangles");
        }
        for handle in &self.scraps {
            assert!(self.session.dmi().scrap(*handle).is_ok(), "live scrap handle dangles");
        }
    }

    fn final_round_trip(&self) {
        let report = self.session.dmi().check();
        assert!(report.is_conformant(), "conformance violations: {:?}", report.violations);

        let xml = self.session.save_xml();
        let reloaded =
            PadSession::load_xml(&xml, MarkManager::new()).expect("canonical pad file must load");
        assert_eq!(
            reloaded.dmi().save_xml(),
            self.session.dmi().save_xml(),
            "pad-file round-trip changed the data layer"
        );
        assert_eq!(reloaded.stats().marks, self.minted_marks, "pad-file round-trip lost marks");

        let disk = MemVfs::new();
        let path = Path::new("slimcheck/pad.xml");
        self.session.save_to(&disk, path).expect("MemVfs save cannot fail");
        let from_disk = PadSession::load_from(&disk, path, MarkManager::new())
            .expect("sealed pad file must load");
        assert_eq!(
            from_disk.dmi().save_xml(),
            self.session.dmi().save_xml(),
            "durable pad round-trip diverged"
        );
        let recovered = PadSession::load_salvage_from(&disk, path, MarkManager::new())
            .expect("fresh pad save must salvage");
        assert_eq!(
            recovered.value.dmi().save_xml(),
            self.session.dmi().save_xml(),
            "pad salvage round-trip diverged"
        );
    }
}
