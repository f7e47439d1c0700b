//! Property tests for the mark layer: arbitrary mark stores must
//! round-trip through XML persistence bit-exactly, for every address
//! kind and hostile string content.

use basedocs::{
    htmldoc::HtmlTarget, textdoc::TextTarget, HtmlAddress, PdfAddress, SlideAddress, Span,
    SpreadsheetAddress, TextAddress, XmlAddress,
};
use marks::{MarkAddress, MarkManager};
use proptest::prelude::*;

fn name_strategy() -> impl Strategy<Value = String> {
    // File names with XML-hostile characters included.
    "[ -~]{1,24}".prop_filter("nonempty after trim", |s| !s.trim().is_empty())
}

fn address_strategy() -> impl Strategy<Value = MarkAddress> {
    let spreadsheet = (name_strategy(), name_strategy(), 0u32..500, 0u32..40).prop_map(
        |(file, sheet, row, col)| {
            MarkAddress::Spreadsheet(SpreadsheetAddress {
                file_name: file,
                sheet_name: sheet,
                range: basedocs::Range::cell(basedocs::CellRef::new(row, col)),
            })
        },
    );
    let xml = (name_strategy(), 1usize..5, 1usize..4).prop_map(|(file, a, b)| {
        MarkAddress::Xml(XmlAddress {
            file_name: file,
            xml_path: xmlkit::XPath::parse(&format!("/root/a[{a}]/b[{b}]")).unwrap(),
        })
    });
    let text = (name_strategy(), proptest::option::of("[a-z]{1,10}"), 0usize..40, 0usize..30)
        .prop_map(|(file, bookmark, para, len)| {
            MarkAddress::Text(TextAddress {
                file_name: file,
                target: match bookmark {
                    Some(b) => TextTarget::Bookmark(b),
                    None => TextTarget::Span { paragraph: para, span: Span::new(len, len + 7) },
                },
            })
        });
    let html = (name_strategy(), "[a-z0-9-]{1,10}").prop_map(|(url, anchor)| {
        MarkAddress::Html(HtmlAddress { url, target: HtmlTarget::Anchor(anchor) })
    });
    let pdf = (name_strategy(), 0usize..99, 0usize..60, 0usize..80).prop_map(
        |(file, page, line, start)| {
            MarkAddress::Pdf(PdfAddress {
                file_name: file,
                page,
                line,
                span: Span::new(start, start + 5),
            })
        },
    );
    let slides = (name_strategy(), 0usize..40, "[a-z0-9]{1,10}").prop_map(
        |(file, slide, shape_id)| {
            MarkAddress::Slides(SlideAddress { file_name: file, slide, shape_id })
        },
    );
    prop_oneof![spreadsheet, xml, text, html, pdf, slides]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A manager full of arbitrary marks persists to XML and reloads
    /// with identical contents and id allocation.
    #[test]
    fn mark_store_roundtrips(addresses in proptest::collection::vec(address_strategy(), 0..24)) {
        let mut mgr = MarkManager::new();
        for a in &addresses {
            mgr.create_mark_at(a.clone()).unwrap();
        }
        let xml = mgr.to_xml();
        let mut mgr2 = MarkManager::new();
        mgr2.load_xml(&xml).unwrap();
        let before: Vec<_> = mgr.marks().cloned().collect();
        let after: Vec<_> = mgr2.marks().cloned().collect();
        prop_assert_eq!(before, after);
        // Serialization is stable.
        prop_assert_eq!(mgr2.to_xml(), xml);
        // Fresh ids continue past loaded ones.
        if let Some(a) = addresses.first() {
            let next = mgr2.create_mark_at(a.clone()).unwrap();
            prop_assert_eq!(next, format!("mark:{}", addresses.len()));
        }
    }

    /// Address field encoding round-trips through the enum for every kind.
    #[test]
    fn address_fields_roundtrip(address in address_strategy()) {
        let kind = address.kind();
        let fields = address.to_fields();
        let back = MarkAddress::from_fields(kind, &fields).unwrap();
        prop_assert_eq!(back, address);
    }
}

/// A manager over one live spreadsheet, plus the addresses of its cells.
fn sheet_manager() -> (
    MarkManager,
    std::rc::Rc<std::cell::RefCell<basedocs::SpreadsheetApp>>,
    Vec<MarkAddress>,
) {
    let mut wb = basedocs::spreadsheet::Workbook::new("meds.xls");
    let cells = ["A1", "A2", "A3", "B1"];
    for (i, cell) in cells.iter().enumerate() {
        wb.sheet_mut("Sheet1").unwrap().set_a1(cell, &format!("dose {i}")).unwrap();
    }
    let mut app = basedocs::SpreadsheetApp::new();
    app.open(wb).unwrap();
    let app = std::rc::Rc::new(std::cell::RefCell::new(app));
    let mut mgr = MarkManager::new();
    mgr.register_module(Box::new(marks::AppModule::in_context("excel", app.clone())))
        .unwrap();
    let addresses = cells
        .iter()
        .map(|cell| {
            app.borrow_mut().select("meds.xls", "Sheet1", cell).unwrap();
            let id = mgr.create_mark(basedocs::DocKind::Spreadsheet).unwrap();
            mgr.remove(&id).unwrap().address
        })
        .collect();
    (mgr, app, addresses)
}

/// The digest of `mgr`'s marks computed from scratch, by a manager
/// that never saw them change.
fn fresh_digest(mgr: &MarkManager) -> u64 {
    let mut fresh = MarkManager::new();
    fresh.load_xml(&mgr.to_xml()).unwrap();
    fresh.digest()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever mix of changes, checkpoints, rollbacks and loads a store
    /// goes through, the digest it maintains equals one computed from
    /// scratch, and the records it reports changed bring a persisted
    /// copy up to date.
    #[test]
    fn maintained_digest_and_changed_records_track_the_store(
        steps in proptest::collection::vec((0u8..10, any::<u64>()), 0..48),
    ) {
        let (mut mgr, app, addresses) = sheet_manager();
        let mut disk = MarkManager::new();
        let mut checkpoint = None;
        let mut saved = mgr.to_xml();
        for (op, r) in steps {
            let ids: Vec<String> = mgr.marks().map(|m| m.mark_id.clone()).collect();
            let id = ids.get(r as usize % ids.len().max(1)).cloned().unwrap_or_default();
            let address = addresses[(r >> 8) as usize % addresses.len()].clone();
            match op {
                0 | 1 => drop(mgr.create_mark_at(address)),
                2 => drop(mgr.remove(&id)),
                3 => drop(mgr.rebind(&id, address)),
                4 => drop(mgr.refresh_excerpt(&id)),
                5 => {
                    // Drift a cell so a later refresh has something to do.
                    let cell = ["A1", "A2", "A3", "B1"][(r >> 16) as usize % 4];
                    let mut app = app.borrow_mut();
                    let sheet = app.workbook_mut("meds.xls").unwrap().sheet_mut("Sheet1").unwrap();
                    sheet.set_a1(cell, &format!("dose {}", r >> 20)).unwrap();
                }
                6 => checkpoint = Some(mgr.checkpoint()),
                7 => {
                    if let Some(cp) = checkpoint {
                        mgr.rollback_to(cp);
                    }
                }
                8 => {
                    if r % 2 == 0 {
                        saved = mgr.to_xml();
                    } else {
                        mgr.load_xml(&saved).unwrap();
                    }
                }
                _ => {
                    // Persist the way a logged pad does, then compare.
                    if mgr.replaced() {
                        disk.load_xml(&mgr.to_xml()).unwrap();
                    } else {
                        for (id, record) in mgr.changed_records() {
                            disk.apply_record(id, &record).unwrap();
                        }
                        disk.set_next_id(mgr.next_id());
                    }
                    mgr.mark_persisted();
                    prop_assert_eq!(disk.to_xml(), mgr.to_xml());
                }
            }
            prop_assert_eq!(mgr.digest(), fresh_digest(&mgr), "after op {}", op);
        }
    }
}
