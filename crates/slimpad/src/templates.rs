//! Bundle templates (§6 extension: "templates for bundles").
//!
//! The resident's worksheet of paper Figure 2 has the same four-column
//! structure for every patient. A [`BundleTemplate`] captures that
//! structure — bundle geometry, scrap slots with labels and relative
//! positions, nested sub-bundles — *without* the marks, and stamps out
//! fresh bundles for new patients. Slots are created with a placeholder
//! mark id and are filled with live marks via [`BundleTemplate`]'s
//! `PLACEHOLDER_MARK` and [`crate::PadSession::place_mark`]-style flows.

use crate::pad::{PadError, PadSession};
use slimstore::{BundleHandle, ScrapHandle, SlimPadDmi};

/// The mark id given to template-slot scraps until a real mark fills
/// them. It never resolves; audits and activation report it cleanly.
pub const PLACEHOLDER_MARK: &str = "mark:template-placeholder";

/// One scrap slot in a template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrapSlot {
    pub label: String,
    /// Position relative to the template bundle's origin.
    pub rel_pos: (i64, i64),
}

/// A reusable bundle structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleTemplate {
    pub name: String,
    pub width: i64,
    pub height: i64,
    pub slots: Vec<ScrapSlot>,
    /// Nested templates with their relative origins.
    pub nested: Vec<((i64, i64), BundleTemplate)>,
}

impl BundleTemplate {
    /// Capture the structure of an existing bundle (recursively). Marks
    /// and annotations are deliberately not captured — a template is
    /// structure, not content.
    pub fn capture(dmi: &SlimPadDmi, bundle: BundleHandle) -> Result<Self, PadError> {
        let data = dmi.bundle(bundle)?;
        let origin = data.pos;
        let mut slots = Vec::new();
        for s in &data.scraps {
            let sd = dmi.scrap(*s)?;
            slots.push(ScrapSlot {
                label: sd.name,
                rel_pos: (sd.pos.0 - origin.0, sd.pos.1 - origin.1),
            });
        }
        slots.sort_by(|a, b| (a.rel_pos.1, a.rel_pos.0, &a.label).cmp(&(b.rel_pos.1, b.rel_pos.0, &b.label)));
        let mut nested = Vec::new();
        for n in &data.nested {
            let nd = dmi.bundle(*n)?;
            nested.push((
                (nd.pos.0 - origin.0, nd.pos.1 - origin.1),
                BundleTemplate::capture(dmi, *n)?,
            ));
        }
        nested.sort_by_key(|(pos, _)| *pos);
        Ok(BundleTemplate {
            name: data.name,
            width: data.width,
            height: data.height,
            slots,
            nested,
        })
    }

    /// Stamp the template onto a pad at `pos`, inside `parent` (or the
    /// pad surface). Slot scraps carry [`PLACEHOLDER_MARK`]. Returns the
    /// new bundle and the created slot scraps in template order.
    pub fn instantiate(
        &self,
        session: &mut PadSession,
        name: &str,
        pos: (i64, i64),
        parent: Option<BundleHandle>,
    ) -> Result<(BundleHandle, Vec<ScrapHandle>), PadError> {
        let bundle = session.create_bundle(name, pos, self.width, self.height, parent)?;
        let mut scraps = Vec::new();
        for slot in &self.slots {
            let scrap = session.dmi_mut().create_scrap(
                &slot.label,
                (pos.0 + slot.rel_pos.0, pos.1 + slot.rel_pos.1),
                PLACEHOLDER_MARK,
            )?;
            session.dmi_mut().add_scrap(bundle, scrap)?;
            scraps.push(scrap);
        }
        for (rel, sub) in &self.nested {
            let (_, mut sub_scraps) = sub.instantiate(
                session,
                &sub.name,
                (pos.0 + rel.0, pos.1 + rel.1),
                Some(bundle),
            )?;
            scraps.append(&mut sub_scraps);
        }
        Ok((bundle, scraps))
    }

    /// Fill a placeholder slot with a real mark: attaches the mark and
    /// removes the placeholder handle.
    pub fn fill_slot(
        session: &mut PadSession,
        scrap: ScrapHandle,
        mark_id: &str,
    ) -> Result<(), PadError> {
        let dmi = session.dmi_mut();
        let handle = dmi.create_mark_handle(mark_id);
        dmi.add_scrap_mark(scrap, handle)?;
        // Remove any placeholder handles now that a real mark exists.
        let data = dmi.scrap(scrap)?;
        let placeholders: Vec<_> = data
            .marks
            .iter()
            .copied()
            .filter(|h| {
                dmi.mark_handle(*h).map(|d| d.mark_id == PLACEHOLDER_MARK).unwrap_or(false)
            })
            .collect();
        for p in placeholders {
            dmi.remove_scrap_mark(scrap, p)?;
        }
        Ok(())
    }

    /// Count all slots, including nested ones.
    pub fn slot_count(&self) -> usize {
        self.slots.len() + self.nested.iter().map(|(_, t)| t.slot_count()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A resident's-worksheet row: Problems / Labs / To-do columns.
    fn worksheet_row(session: &mut PadSession) -> BundleHandle {
        let row = session.create_bundle("Patient Row", (50, 60), 900, 240, None).unwrap();
        let labs = session.create_bundle("Labs", (350, 90), 250, 180, Some(row)).unwrap();
        let dmi = session.dmi_mut();
        let s1 = dmi.create_scrap("problem: CHF", (70, 90), PLACEHOLDER_MARK).unwrap();
        dmi.add_scrap(row, s1).unwrap();
        let s2 = dmi.create_scrap("K", (360, 120), PLACEHOLDER_MARK).unwrap();
        dmi.add_scrap(labs, s2).unwrap();
        let s3 = dmi.create_scrap("todo: echo", (650, 90), PLACEHOLDER_MARK).unwrap();
        dmi.add_scrap(row, s3).unwrap();
        row
    }

    #[test]
    fn capture_records_structure_with_relative_positions() {
        let mut session = PadSession::new("Worksheet").unwrap();
        let row = worksheet_row(&mut session);
        let template = BundleTemplate::capture(session.dmi(), row).unwrap();
        assert_eq!(template.name, "Patient Row");
        assert_eq!(template.slots.len(), 2, "row-level scraps only");
        assert_eq!(template.nested.len(), 1);
        assert_eq!(template.nested[0].0, (300, 30), "nested origin is relative");
        assert_eq!(template.nested[0].1.slots[0].rel_pos, (10, 30));
        assert_eq!(template.slot_count(), 3);
    }

    #[test]
    fn instantiate_stamps_a_fresh_conformant_bundle() {
        let mut session = PadSession::new("Worksheet").unwrap();
        let row = worksheet_row(&mut session);
        let template = BundleTemplate::capture(session.dmi(), row).unwrap();
        let (new_row, slots) =
            template.instantiate(&mut session, "Jane Doe", (50, 360), None).unwrap();
        assert_eq!(slots.len(), 3);
        let data = session.dmi().bundle(new_row).unwrap();
        assert_eq!(data.name, "Jane Doe");
        assert_eq!(data.pos, (50, 360));
        assert_eq!(data.nested.len(), 1);
        // Absolute positions shifted by the new origin.
        let nested = session.dmi().bundle(data.nested[0]).unwrap();
        assert_eq!(nested.pos, (350, 390));
        assert!(session.dmi().check().is_conformant(), "{:?}", session.dmi().check().violations);
    }

    #[test]
    fn fill_slot_replaces_placeholder() {
        let mut session = PadSession::new("Worksheet").unwrap();
        let row = worksheet_row(&mut session);
        let template = BundleTemplate::capture(session.dmi(), row).unwrap();
        let (_, slots) = template.instantiate(&mut session, "Jane Doe", (50, 360), None).unwrap();
        // Fabricate a real mark.
        let mark = session
            .marks_mut()
            .create_mark_at(marks::MarkAddress::Pdf(basedocs::PdfAddress {
                file_name: "labs.pdf".into(),
                page: 0,
                line: 0,
                span: basedocs::Span::new(0, 5),
            }))
            .unwrap();
        BundleTemplate::fill_slot(&mut session, slots[0], &mark).unwrap();
        let marks_after = session.dmi().scrap(slots[0]).unwrap().marks;
        assert_eq!(marks_after.len(), 1);
        assert_eq!(session.dmi().mark_handle(marks_after[0]).unwrap().mark_id, mark);
        // Untouched slots keep their placeholder.
        let other = session.dmi().scrap(slots[1]).unwrap().marks;
        assert_eq!(
            session.dmi().mark_handle(other[0]).unwrap().mark_id,
            PLACEHOLDER_MARK
        );
    }

    #[test]
    fn repeated_instantiation_builds_a_worksheet() {
        // "The multiple rows on the worksheet illustrate another
        // observation: bundles can be grouped into larger bundles."
        let mut session = PadSession::new("Worksheet").unwrap();
        let row = worksheet_row(&mut session);
        let template = BundleTemplate::capture(session.dmi(), row).unwrap();
        for (i, patient) in ["Jane Doe", "R. Chen", "M. Okafor"].iter().enumerate() {
            template
                .instantiate(&mut session, patient, (50, 360 + 300 * i as i64), None)
                .unwrap();
        }
        let rows = session.dmi().bundle(session.root_bundle()).unwrap().nested;
        assert_eq!(rows.len(), 4, "original + three stamped rows");
        assert!(session.dmi().check().is_conformant());
    }
}
