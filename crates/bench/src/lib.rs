//! Shared workload builders for the experiment benches (see DESIGN.md §5
//! for the experiment index E1–E9), the timing helpers of the `BENCH_*`
//! reporters, and their one [`gate`].

pub mod gate;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use superimposed::basedocs::pdfdoc::PdfDocument;
use superimposed::basedocs::slides::{ShapeKind, Slide, SlideDeck};
use superimposed::basedocs::spreadsheet::Workbook;
use superimposed::basedocs::textdoc::TextDocument;
use superimposed::slimstore::SlimPadDmi;
use superimposed::trim::naive::NaiveStore;
use superimposed::trim::{PatternShape, TriplePattern, TripleStore, Value};
use superimposed::{DocKind, SuperimposedSystem};

/// Store size for the planner and WAL baselines (`BENCH_trim.json`,
/// `BENCH_wal.json`): the 50k-triple point their gated ratios are
/// measured at.
pub const BENCH_TRIPLES: usize = 50_000;

/// Build a pad with one bundle of `n` scraps through the Figure 10 DMI.
pub fn build_pad(n: usize) -> SlimPadDmi {
    let mut dmi = SlimPadDmi::new();
    let bundle = dmi.create_bundle("Patient", (10, 10), 800, 600);
    dmi.create_slim_pad("Rounds", Some(bundle)).unwrap();
    for i in 0..n {
        let scrap = dmi
            .create_scrap(
                &format!("lab value {i}"),
                (20 + (i as i64 % 40) * 15, 40 + (i as i64 / 40) * 25),
                &format!("mark:{i}"),
            )
            .unwrap();
        dmi.add_scrap(bundle, scrap).unwrap();
    }
    dmi
}

/// The native-struct baseline the DMI competes against in E2: plain Rust
/// data with direct field manipulation.
#[derive(Debug, Default, Clone)]
pub struct NativePad {
    pub name: String,
    pub bundles: Vec<NativeBundle>,
}

/// Native bundle for the E2 baseline.
#[derive(Debug, Default, Clone)]
pub struct NativeBundle {
    pub name: String,
    pub pos: (i64, i64),
    pub size: (i64, i64),
    pub scraps: Vec<NativeScrap>,
}

/// Native scrap for the E2 baseline.
#[derive(Debug, Default, Clone)]
pub struct NativeScrap {
    pub name: String,
    pub pos: (i64, i64),
    pub mark_id: String,
}

/// Build the same pad as [`build_pad`] with plain structs.
pub fn build_native_pad(n: usize) -> NativePad {
    let mut bundle = NativeBundle {
        name: "Patient".into(),
        pos: (10, 10),
        size: (800, 600),
        scraps: Vec::with_capacity(n),
    };
    for i in 0..n {
        bundle.scraps.push(NativeScrap {
            name: format!("lab value {i}"),
            pos: (20 + (i as i64 % 40) * 15, 40 + (i as i64 / 40) * 25),
            mark_id: format!("mark:{i}"),
        });
    }
    NativePad { name: "Rounds".into(), bundles: vec![bundle] }
}

/// A random triple store of `n` triples over a bounded vocabulary, for
/// the E4/E9 query workloads. Returns the store plus the subject and
/// property vocabularies so queries can draw matching patterns.
pub fn random_store(n: usize, seed: u64) -> (TripleStore, Vec<String>, Vec<String>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let subjects: Vec<String> = (0..(n / 8).max(4)).map(|i| format!("res:{i}")).collect();
    let properties: Vec<String> = (0..24).map(|i| format!("prop{i}")).collect();
    let mut store = TripleStore::new();
    while store.len() < n {
        let s = &subjects[rng.gen_range(0..subjects.len())];
        let p = &properties[rng.gen_range(0..properties.len())];
        if rng.gen_bool(0.3) {
            let o = &subjects[rng.gen_range(0..subjects.len())];
            store.insert_resource(s, p, o);
        } else {
            store.insert_literal(s, p, &format!("value {}", rng.gen_range(0..n)));
        }
    }
    (store, subjects, properties)
}

/// The canonical query pattern of one shape over [`random_store`]'s
/// vocabulary: subject `res:1`, property `prop3`, object the resource
/// `res:2` — whichever of those the shape binds. The `BENCH_trim.json`
/// reporter draws from here.
pub fn shape_pattern(
    store: &TripleStore,
    shape: PatternShape,
    subjects: &[String],
    properties: &[String],
) -> TriplePattern {
    let mut pattern = TriplePattern::default();
    if shape.binds_subject() {
        pattern = pattern.with_subject(store.find_atom(&subjects[1]).expect("bench subject"));
    }
    if shape.binds_property() {
        pattern = pattern.with_property(store.find_atom(&properties[3]).expect("bench property"));
    }
    if shape.binds_object() {
        pattern =
            pattern.with_object(Value::Resource(store.find_atom(&subjects[2]).expect("bench object")));
    }
    pattern
}

/// Nested-chain length inside [`join_store`] — the unselective
/// worst-case join `(?a nested ?b) ⋈ (?b nested ?c)` walks it. Long
/// enough that the naive evaluator's quadratic cross product dwarfs the
/// engine's near-linear run intersections.
pub const JOIN_CHAIN: usize = 4_000;

/// A pad-shaped store for the conjunctive-join benches: `n` scraps
/// spread over `n/64` bundles (membership, name, mark handle, mark id,
/// and a mark-to-document link per scrap — five triples each), plus a
/// [`JOIN_CHAIN`]-long `nested` chain for the unselective worst case.
/// Returns the store; the join queries bind `bundle:0` and `doc:0`.
pub fn join_store(n: usize) -> TripleStore {
    let mut store = TripleStore::new();
    let bundles = (n / 64).max(1);
    for i in 0..n {
        let b = format!("bundle:{}", i % bundles);
        let s = format!("scrap:{i}");
        let m = format!("markh:{i}");
        store.insert_resource(&b, "bundleContent", &s);
        store.insert_literal(&s, "scrapName", &format!("lab value {i}"));
        store.insert_resource(&s, "scrapMark", &m);
        store.insert_literal(&m, "markId", &format!("mark:{i}"));
        store.insert_resource(&m, "markDoc", &format!("doc:{}", i % 8));
    }
    for i in 0..JOIN_CHAIN {
        store.insert_resource(&format!("chain:{i}"), "nested", &format!("chain:{}", i + 1));
    }
    store
}

/// The naive-store copy of a triple store, for E9.
pub fn naive_copy(store: &TripleStore) -> NaiveStore {
    let mut naive = NaiveStore::new();
    for t in store.iter() {
        naive.insert(
            store.resolve(t.subject),
            store.resolve(t.property),
            store.value_text(t.object),
            t.object.is_resource(),
        );
    }
    naive
}

/// A chain of `depth` nested bundles for the E4 view-closure sweep.
/// Returns the raw store and the root bundle's resource name.
pub fn nested_chain(depth: usize) -> (TripleStore, String) {
    let mut dmi = SlimPadDmi::new();
    let root = dmi.create_bundle("level 0", (0, 0), 1000, 1000);
    let mut parent = root;
    for d in 1..depth {
        let b = dmi.create_bundle(&format!("level {d}"), (0, 0), 10, 10);
        dmi.add_nested_bundle(parent, b).unwrap();
        parent = b;
    }
    let name = dmi.store().resolve(root.resource()).to_string();
    let store = TripleStore::from_xml(&dmi.save_xml()).expect("round-trip");
    (store, name)
}

/// Boot a system with one document per base kind, sized by `scale`
/// (rows/elements/lines per document), with a selection made in each —
/// the E3 and E8 substrate.
pub fn populated_system(scale: usize) -> SuperimposedSystem {
    let sys = SuperimposedSystem::new("bench").unwrap();

    let mut wb = Workbook::new("meds.xls");
    {
        let sheet = wb.sheet_mut("Sheet1").unwrap();
        for r in 0..scale {
            sheet.set_a1(&format!("A{}", r + 1), &format!("drug {r}")).unwrap();
            sheet.set_a1(&format!("B{}", r + 1), &format!("{}", r * 10)).unwrap();
        }
    }
    sys.excel.borrow_mut().open(wb).unwrap();
    sys.excel.borrow_mut().select("meds.xls", "Sheet1", "A1").unwrap();

    let mut xml_body = String::from("<labs>");
    for i in 0..scale {
        xml_body.push_str(&format!("<v id='x{i}'>{i}</v>"));
    }
    xml_body.push_str("</labs>");
    sys.xml.borrow_mut().open_text("labs.xml", &xml_body).unwrap();
    sys.xml.borrow_mut().select_by_path("labs.xml", "/labs/v[1]").unwrap();

    let paragraphs: Vec<String> =
        (0..scale.max(1)).map(|i| format!("Paragraph {i} of the progress note.")).collect();
    sys.text
        .borrow_mut()
        .open(TextDocument::from_text("note.doc", &paragraphs.join("\n\n")))
        .unwrap();
    sys.text.borrow_mut().select_span("note.doc", 0, 0, 9).unwrap();

    let mut html_body = String::from("<html><body>");
    for i in 0..scale {
        html_body.push_str(&format!("<p id='p{i}'>paragraph {i}</p>"));
    }
    html_body.push_str("</body></html>");
    sys.html.borrow_mut().load("page.html", &html_body).unwrap();
    sys.html.borrow_mut().select_anchor("page.html", "p0").unwrap();

    let prose: String =
        (0..scale).map(|i| format!("Sentence number {i} of the guideline. ")).collect();
    sys.pdf.borrow_mut().open(PdfDocument::paginate("guide.pdf", &prose, 60, 40)).unwrap();
    sys.pdf.borrow_mut().select_found("guide.pdf", "Sentence").unwrap();

    let mut deck = SlideDeck::new("deck.ppt");
    for s in 0..scale.max(1) {
        let mut slide = Slide::new();
        slide.add_shape("title", ShapeKind::Title, format!("Slide {s}")).unwrap();
        deck.add_slide(slide);
    }
    sys.slides.borrow_mut().open(deck).unwrap();
    sys.slides.borrow_mut().select("deck.ppt", 0, "title").unwrap();

    sys
}

/// All six kinds, for per-kind parameterized benches.
pub fn all_kinds() -> [DocKind; 6] {
    DocKind::all()
}

/// Best-of-`rounds` wall time of `f`, in nanoseconds; `f` must leave
/// the world ready for the next round itself.
pub fn best_ns(rounds: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

/// The `p`-quantile of ascending samples: the sample at rank
/// `(n-1)·p`, rounded to the nearest; 0 when there are none.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}
