//! The read half of the SLIMPad DMI, generic over [`Runs`].
//!
//! A [`PadReader`] answers the application-data reads of paper
//! Figure 10 — pads, bundles, scraps, mark handles, annotations, links
//! and populations — over any triple set TRIM can read: the live
//! [`trim::TripleStore`] (every [`SlimPadDmi`] read delegates here) or a
//! [`trim::Snapshot`] published to concurrent readers, which never block
//! the writer. There is one copy of the read code for both.
//!
//! The reader looks up the Bundle-Scrap vocabulary — the conformance
//! property, the four constructs and the properties the reads follow —
//! once, when it is built. A [`SlimPadDmi`] keeps that lookup across
//! calls once every atom of it exists.
//!
//! A record read (a pad, bundle, scrap or mark handle, a scrap's
//! annotations or links, or a whole [`ScrapRecord`]) scans the
//! instance's triples once and takes every field from that row, under
//! the same rules a single-field read applies: a field is the unique
//! object under its property, a link list the resources under it in
//! atom order.
//!
//! [`SlimPadDmi`]: crate::SlimPadDmi

use metamodel::vocab;
use trim::{Atom, ConjQuery, Runs, Triple, TriplePattern, Value};

use crate::error::DmiError;
use crate::slimpad_dmi::{
    BundleData, BundleHandle, MarkHandleData, MarkHandleHandle, PadData, PadHandle, ScrapData,
    ScrapHandle,
};

/// The Bundle-Scrap model's constructs, as the reader checks them.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Construct {
    SlimPad,
    Bundle,
    Scrap,
    MarkHandle,
}

impl Construct {
    const ALL: [Construct; 4] =
        [Construct::SlimPad, Construct::Bundle, Construct::Scrap, Construct::MarkHandle];

    /// The construct's name in the Bundle-Scrap model.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Construct::SlimPad => "SlimPad",
            Construct::Bundle => "Bundle",
            Construct::Scrap => "Scrap",
            Construct::MarkHandle => "MarkHandle",
        }
    }
}

/// The Bundle-Scrap model's properties, as the DMI writes and the
/// reader follows them.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Prop {
    PadName,
    RootBundle,
    BundleName,
    BundlePos,
    BundleWidth,
    BundleHeight,
    BundleContent,
    NestedBundle,
    ScrapName,
    ScrapPos,
    ScrapMark,
    MarkId,
    ScrapAnnotation,
    ScrapLink,
}

impl Prop {
    const ALL: [Prop; 14] = [
        Prop::PadName,
        Prop::RootBundle,
        Prop::BundleName,
        Prop::BundlePos,
        Prop::BundleWidth,
        Prop::BundleHeight,
        Prop::BundleContent,
        Prop::NestedBundle,
        Prop::ScrapName,
        Prop::ScrapPos,
        Prop::ScrapMark,
        Prop::MarkId,
        Prop::ScrapAnnotation,
        Prop::ScrapLink,
    ];

    /// The property's atom name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Prop::PadName => "padName",
            Prop::RootBundle => "rootBundle",
            Prop::BundleName => "bundleName",
            Prop::BundlePos => "bundlePos",
            Prop::BundleWidth => "bundleWidth",
            Prop::BundleHeight => "bundleHeight",
            Prop::BundleContent => "bundleContent",
            Prop::NestedBundle => "nestedBundle",
            Prop::ScrapName => "scrapName",
            Prop::ScrapPos => "scrapPos",
            Prop::ScrapMark => "scrapMark",
            Prop::MarkId => "markId",
            Prop::ScrapAnnotation => "scrapAnnotation",
            Prop::ScrapLink => "scrapLink",
        }
    }
}

/// The atoms of the Bundle-Scrap vocabulary in one triple set; `None`
/// for a name the set has never interned.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Vocab {
    conforms_to: Option<Atom>,
    constructs: [Option<Atom>; 4],
    props: [Option<Atom>; 14],
}

impl Vocab {
    /// Look every vocabulary atom up in `runs`.
    pub(crate) fn find<R: Runs + ?Sized>(runs: &R) -> Vocab {
        Vocab {
            conforms_to: runs.find_atom(vocab::CONFORMS_TO),
            constructs: Construct::ALL
                .map(|c| runs.find_atom(&vocab::construct_res("bundle-scrap", c.name()))),
            props: Prop::ALL.map(|p| runs.find_atom(p.name())),
        }
    }

    /// True once every atom exists. Atoms are never un-interned, so a
    /// complete vocabulary stays valid for the life of its store.
    pub(crate) fn is_complete(&self) -> bool {
        self.conforms_to.is_some()
            && self.constructs.iter().chain(&self.props).all(Option::is_some)
    }

    fn prop(&self, p: Prop) -> Option<Atom> {
        self.props[p as usize]
    }

    fn construct(&self, c: Construct) -> Option<Atom> {
        self.constructs[c as usize]
    }
}

/// Decode a Coordinate literal `"x,y"`.
pub(crate) fn parse_coord(text: &str) -> Option<(i64, i64)> {
    let (x, y) = text.split_once(',')?;
    Some((x.trim().parse().ok()?, y.trim().parse().ok()?))
}

/// One scrap's whole content, borrowed from the triple set — what a
/// walk over every scrap (the pad digest) reads, without a copy per
/// string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrapRecord<'a> {
    /// The scrap's label.
    pub name: &'a str,
    /// Its position.
    pub pos: (i64, i64),
    /// Its mark handles, in handle order.
    pub marks: Vec<MarkHandleHandle>,
    /// The mark ids behind those of `marks` that are live mark handles,
    /// sorted.
    pub mark_ids: Vec<&'a str>,
    /// Its annotations, sorted.
    pub annotations: Vec<&'a str>,
    /// Its outgoing scrap links, in handle order.
    pub links: Vec<ScrapHandle>,
}

/// A bundle or a scrap: the instances that hold or link to others.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record {
    /// A bundle.
    Bundle(BundleHandle),
    /// A scrap.
    Scrap(ScrapHandle),
}

/// One subject's triples, as one range scan returns them. A record
/// takes every field from its row, so it costs one seek however many
/// fields it has.
struct Row(Vec<Triple>);

impl Row {
    /// The triples under `property`; none for a property the triple
    /// set has never interned.
    fn of(&self, property: Option<Atom>) -> impl Iterator<Item = Triple> + '_ {
        self.0.iter().copied().filter(move |t| Some(t.property) == property)
    }
}

/// The object of the one triple in `triples`, if there is exactly one
/// — the rule [`Runs::object_of`] applies to one subject and property.
fn only(mut triples: impl Iterator<Item = Triple>) -> Option<Value> {
    let first = triples.next()?;
    triples.next().is_none().then_some(first.object)
}

/// The resources among `triples`, in atom order.
fn resources(triples: impl Iterator<Item = Triple>) -> Vec<Atom> {
    let mut out: Vec<Atom> = triples
        .filter_map(|t| match t.object {
            Value::Resource(a) => Some(a),
            Value::Literal(_) => None,
        })
        .collect();
    out.sort_unstable();
    out
}

/// Read-only Bundle-Scrap queries over one triple set.
pub struct PadReader<'a, R: Runs + ?Sized> {
    runs: &'a R,
    vocab: Vocab,
}

impl<'a, R: Runs + ?Sized> PadReader<'a, R> {
    /// A reader over `runs`, looking its vocabulary up now.
    pub fn new(runs: &'a R) -> Self {
        Self::with_vocab(runs, Vocab::find(runs))
    }

    pub(crate) fn with_vocab(runs: &'a R, vocab: Vocab) -> Self {
        PadReader { runs, vocab }
    }

    /// The triple set this reader reads.
    pub fn runs(&self) -> &'a R {
        self.runs
    }

    /// Whether `conforms`, a subject's unique `conformsTo` object,
    /// names `construct`.
    fn names_construct(&self, conforms: Option<Value>, construct: Construct) -> bool {
        self.vocab.construct(construct).is_some_and(|c| conforms == Some(Value::Resource(c)))
    }

    fn is_instance_of(&self, id: Atom, construct: Construct) -> bool {
        let conforms = self.vocab.conforms_to.and_then(|p| self.runs.object_of(id, p));
        self.names_construct(conforms, construct)
    }

    /// `NotFound` unless `id` conforms to `construct`.
    pub(crate) fn require(&self, id: Atom, construct: Construct) -> Result<(), DmiError> {
        if self.is_instance_of(id, construct) {
            Ok(())
        } else {
            Err(self.not_found(id, construct))
        }
    }

    fn not_found(&self, id: Atom, construct: Construct) -> DmiError {
        DmiError::NotFound { what: construct.name(), id: self.runs.resolve(id).to_string() }
    }

    /// Every triple of `id`, which must conform to `construct`
    /// (`NotFound` otherwise): one range scan for a whole record.
    fn row(&self, id: Atom, construct: Construct) -> Result<Row, DmiError> {
        let row = Row(self.runs.select(&TriplePattern::default().with_subject(id)));
        if self.names_construct(only(row.of(self.vocab.conforms_to)), construct) {
            Ok(row)
        } else {
            Err(self.not_found(id, construct))
        }
    }

    /// The triples of `row` under `property`.
    fn field<'r>(&self, row: &'r Row, property: Prop) -> impl Iterator<Item = Triple> + 'r {
        row.of(self.vocab.prop(property))
    }

    /// The text of the one literal `row` has under `property`; empty
    /// when there is none, or more than one.
    fn text(&self, row: &Row, property: Prop) -> &'a str {
        match only(self.field(row, property)) {
            Some(Value::Literal(a)) => self.runs.resolve(a),
            _ => "",
        }
    }

    fn number(&self, row: &Row, property: Prop) -> i64 {
        self.text(row, property).parse().unwrap_or(0)
    }

    fn coord(&self, row: &Row, property: Prop) -> (i64, i64) {
        parse_coord(self.text(row, property)).unwrap_or((0, 0))
    }

    /// Resources `row` points at under `property`, in atom order.
    fn links(&self, row: &Row, property: Prop) -> Vec<Atom> {
        resources(self.field(row, property))
    }

    /// Resources `subject` points at under `property`, in atom order.
    pub(crate) fn links_of(&self, subject: Atom, property: Prop) -> Vec<Atom> {
        let Some(p) = self.vocab.prop(property) else {
            return Vec::new();
        };
        let pattern = TriplePattern::default().with_subject(subject).with_property(p);
        resources(self.runs.select(&pattern).into_iter())
    }

    /// Subjects pointing at `target` under `property`, in atom order.
    pub(crate) fn incoming_links(&self, target: Atom, property: Prop) -> Vec<Atom> {
        self.pointing_at(target, self.vocab.prop(property))
    }

    /// The bundle or scrap `subject` is, if its unique `conformsTo`
    /// object names either construct.
    pub fn record(&self, subject: Atom) -> Option<Record> {
        let conforms = self.runs.object_of(subject, self.vocab.conforms_to?);
        if self.names_construct(conforms, Construct::Bundle) {
            Some(Record::Bundle(BundleHandle(subject)))
        } else if self.names_construct(conforms, Construct::Scrap) {
            Some(Record::Scrap(ScrapHandle(subject)))
        } else {
            None
        }
    }

    /// The subjects holding `subject`, in atom order: the bundles that
    /// nest or contain it and the scraps that link to it.
    pub fn holders(&self, subject: Atom) -> Vec<Atom> {
        let props = [Prop::NestedBundle, Prop::BundleContent, Prop::ScrapLink]
            .map(|p| self.vocab.prop(p));
        let pattern = TriplePattern::default().with_object(Value::Resource(subject));
        let mut out: Vec<Atom> = self
            .runs
            .select(&pattern)
            .into_iter()
            .filter(|t| props.contains(&Some(t.property)))
            .map(|t| t.subject)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The scraps carrying `handle` as a mark handle, in atom order.
    pub fn carriers(&self, handle: Atom) -> Vec<Atom> {
        self.incoming_links(handle, Prop::ScrapMark)
    }

    fn pointing_at(&self, target: Atom, property: Option<Atom>) -> Vec<Atom> {
        let Some(p) = property else {
            return Vec::new();
        };
        let mut out: Vec<Atom> = self
            .runs
            .select(&TriplePattern::default().with_property(p).with_object(Value::Resource(target)))
            .into_iter()
            .map(|t| t.subject)
            .collect();
        out.sort_unstable();
        out
    }

    fn instances_of(&self, construct: Construct) -> Vec<Atom> {
        let (Some(conf_p), Some(c)) = (self.vocab.conforms_to, self.vocab.construct(construct))
        else {
            return Vec::new();
        };
        self.pointing_at(c, Some(conf_p))
    }

    /// Snapshot a pad.
    pub fn pad(&self, pad: PadHandle) -> Result<PadData, DmiError> {
        let row = self.row(pad.resource(), Construct::SlimPad)?;
        Ok(PadData {
            name: self.text(&row, Prop::PadName).to_string(),
            root_bundle: self.links(&row, Prop::RootBundle).first().copied().map(BundleHandle),
        })
    }

    /// Snapshot a bundle.
    pub fn bundle(&self, b: BundleHandle) -> Result<BundleData, DmiError> {
        let row = self.row(b.resource(), Construct::Bundle)?;
        Ok(BundleData {
            name: self.text(&row, Prop::BundleName).to_string(),
            pos: self.coord(&row, Prop::BundlePos),
            width: self.number(&row, Prop::BundleWidth),
            height: self.number(&row, Prop::BundleHeight),
            scraps: self.links(&row, Prop::BundleContent).into_iter().map(ScrapHandle).collect(),
            nested: self.links(&row, Prop::NestedBundle).into_iter().map(BundleHandle).collect(),
        })
    }

    /// Snapshot a scrap.
    pub fn scrap(&self, s: ScrapHandle) -> Result<ScrapData, DmiError> {
        let row = self.row(s.resource(), Construct::Scrap)?;
        Ok(ScrapData {
            name: self.text(&row, Prop::ScrapName).to_string(),
            pos: self.coord(&row, Prop::ScrapPos),
            marks: self.links(&row, Prop::ScrapMark).into_iter().map(MarkHandleHandle).collect(),
        })
    }

    /// Snapshot a mark handle.
    pub fn mark_handle(&self, h: MarkHandleHandle) -> Result<MarkHandleData, DmiError> {
        Ok(MarkHandleData { mark_id: self.mark_id(h)?.to_string() })
    }

    /// The mark id a mark handle carries, borrowed.
    fn mark_id(&self, h: MarkHandleHandle) -> Result<&'a str, DmiError> {
        let row = self.row(h.resource(), Construct::MarkHandle)?;
        Ok(self.text(&row, Prop::MarkId))
    }

    /// A scrap's annotations, sorted.
    pub fn annotations(&self, scrap: ScrapHandle) -> Result<Vec<String>, DmiError> {
        let row = self.row(scrap.resource(), Construct::Scrap)?;
        Ok(self.annotations_in(&row).into_iter().map(str::to_string).collect())
    }

    /// The annotations in a scrap's row, sorted and borrowed.
    fn annotations_in(&self, row: &Row) -> Vec<&'a str> {
        let mut out: Vec<&'a str> = self
            .field(row, Prop::ScrapAnnotation)
            .filter_map(|t| match t.object {
                Value::Literal(a) => Some(self.runs.resolve(a)),
                Value::Resource(_) => None,
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Outgoing scrap links, sorted.
    pub fn scrap_links(&self, from: ScrapHandle) -> Result<Vec<ScrapHandle>, DmiError> {
        let row = self.row(from.resource(), Construct::Scrap)?;
        Ok(self.links(&row, Prop::ScrapLink).into_iter().map(ScrapHandle).collect())
    }

    /// A scrap's whole content — [`Self::scrap`], the mark ids behind
    /// its handles ([`Self::mark_handle`]), [`Self::annotations`] and
    /// [`Self::scrap_links`] — from one read of the scrap and one of
    /// each mark handle, copying no string.
    pub fn scrap_record(&self, s: ScrapHandle) -> Result<ScrapRecord<'a>, DmiError> {
        let row = self.row(s.resource(), Construct::Scrap)?;
        let marks: Vec<MarkHandleHandle> =
            self.links(&row, Prop::ScrapMark).into_iter().map(MarkHandleHandle).collect();
        let mut mark_ids: Vec<&'a str> =
            marks.iter().filter_map(|h| self.mark_id(*h).ok()).collect();
        mark_ids.sort_unstable();
        Ok(ScrapRecord {
            name: self.text(&row, Prop::ScrapName),
            pos: self.coord(&row, Prop::ScrapPos),
            marks,
            mark_ids,
            annotations: self.annotations_in(&row),
            links: self.links(&row, Prop::ScrapLink).into_iter().map(ScrapHandle).collect(),
        })
    }

    /// All pads.
    pub fn pads(&self) -> Vec<PadHandle> {
        self.instances_of(Construct::SlimPad).into_iter().map(PadHandle).collect()
    }

    /// All bundles.
    pub fn bundles(&self) -> Vec<BundleHandle> {
        self.instances_of(Construct::Bundle).into_iter().map(BundleHandle).collect()
    }

    /// All scraps, contained or free-floating.
    pub fn all_scraps(&self) -> Vec<ScrapHandle> {
        self.instances_of(Construct::Scrap).into_iter().map(ScrapHandle).collect()
    }

    /// The bundle that directly contains a scrap, if any. A two-pattern
    /// conjunctive join — `(?b conformsTo Bundle) ⋈ (?b bundleContent
    /// scrap)` — so the answer comes off the OSP run for the scrap, not
    /// a scan over every bundle's contents.
    pub fn containing_bundle(&self, scrap: ScrapHandle) -> Option<BundleHandle> {
        let conf_p = self.vocab.conforms_to?;
        let bundle_c = self.vocab.construct(Construct::Bundle)?;
        let content = self.vocab.prop(Prop::BundleContent)?;
        let mut q = ConjQuery::new();
        let b = q.var("b");
        q.pattern(b, conf_p, bundle_c).pattern(b, content, Value::Resource(scrap.resource()));
        let rows = q.solve(self.runs).ok()?;
        rows.first().and_then(|row| match row[0] {
            Value::Resource(a) => Some(BundleHandle(a)),
            Value::Literal(_) => None,
        })
    }

    /// Scraps directly contained in `bundle`, with their labels, via
    /// the membership join `(bundle bundleContent ?s) ⋈ (?s scrapName
    /// ?n)` — rows come back sorted by scrap handle.
    fn scrap_rows_in_bundle(&self, bundle: BundleHandle) -> Vec<(ScrapHandle, &'a str)> {
        let (Some(content), Some(name_p)) =
            (self.vocab.prop(Prop::BundleContent), self.vocab.prop(Prop::ScrapName))
        else {
            return Vec::new();
        };
        let mut q = ConjQuery::new();
        let (s, n) = (q.var("s"), q.var("n"));
        q.pattern(bundle.resource(), content, s).pattern(s, name_p, n);
        let Ok(rows) = q.solve(self.runs) else {
            return Vec::new();
        };
        rows.into_iter()
            .filter_map(|row| match (row[0], row[1]) {
                (Value::Resource(s), Value::Literal(n)) => {
                    Some((ScrapHandle(s), self.runs.resolve(n)))
                }
                _ => None,
            })
            .collect()
    }

    /// Scraps directly contained in `bundle`, in handle order.
    pub fn scraps_in_bundle(&self, bundle: BundleHandle) -> Vec<ScrapHandle> {
        self.scrap_rows_in_bundle(bundle).into_iter().map(|(s, _)| s).collect()
    }

    /// Scraps in `bundle` whose label contains `needle`
    /// (case-insensitive). The membership join narrows to the bundle's
    /// scraps first; only those labels are examined.
    pub fn find_scraps_in_bundle(&self, bundle: BundleHandle, needle: &str) -> Vec<ScrapHandle> {
        let needle = needle.to_lowercase();
        self.scrap_rows_in_bundle(bundle)
            .into_iter()
            .filter(|(_, name)| name.to_lowercase().contains(&needle))
            .map(|(s, _)| s)
            .collect()
    }

    /// The chain of bundles from the outermost ancestor down to the one
    /// directly containing `scrap` — breadcrumbs for displays. Each step
    /// up is one `nestedBundle` lookup on the child; a cycle in a damaged
    /// store ends the walk.
    pub fn bundle_path(&self, scrap: ScrapHandle) -> Vec<BundleHandle> {
        let mut path: Vec<BundleHandle> = self.containing_bundle(scrap).into_iter().collect();
        while let Some(parent) = path.last().and_then(|child| {
            self.incoming_links(child.resource(), Prop::NestedBundle).first().copied()
        }) {
            let parent = BundleHandle(parent);
            if path.contains(&parent) {
                break;
            }
            path.push(parent);
        }
        path.reverse();
        path
    }

    /// Population counts `(bundles, scraps)` answered by the
    /// conjunctive engine. A bundle is exactly an instance that
    /// conforms to `Bundle` and carries a `bundleName` (creation sets
    /// one, updates replace it), and likewise for scraps, so the
    /// 2-pattern joins count the same sets as [`Self::bundles`] and
    /// [`Self::all_scraps`] — but through the planner/merge-join path,
    /// which makes them an independent check on those lists.
    pub fn population_by_join(&self) -> (usize, usize) {
        (
            self.count_named(Construct::Bundle, Prop::BundleName),
            self.count_named(Construct::Scrap, Prop::ScrapName),
        )
    }

    fn count_named(&self, construct: Construct, name: Prop) -> usize {
        let (Some(conf_p), Some(c), Some(p)) =
            (self.vocab.conforms_to, self.vocab.construct(construct), self.vocab.prop(name))
        else {
            return 0;
        };
        let mut q = ConjQuery::new();
        let x = q.var("x");
        let n = q.var("n");
        q.pattern(x, conf_p, c).pattern(x, p, n);
        q.solve(self.runs).map(|rows| rows.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metamodel::{builtin, ConnectorKind, ConstructKind};

    #[test]
    fn the_reader_tables_are_the_bundle_scrap_model() {
        // `Vocab` indexes its arrays by discriminant, so `ALL` must list
        // each variant once, in order.
        for (i, p) in Prop::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i, "{p:?}");
        }
        for (i, c) in Construct::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{c:?}");
        }
        let model = builtin::bundle_scrap();
        let connectors: Vec<&str> = model
            .connectors()
            .iter()
            .filter(|c| c.kind != ConnectorKind::Generalization)
            .map(|c| c.name.as_str())
            .collect();
        for p in Prop::ALL {
            assert!(connectors.contains(&p.name()), "{p:?} is not a model connector");
        }
        assert_eq!(Prop::ALL.len(), connectors.len(), "a model connector has no Prop");
        assert_eq!(connectors.len(), 14);
        let constructs: Vec<&str> = model
            .constructs()
            .iter()
            .filter(|c| c.kind == ConstructKind::Construct)
            .map(|c| c.name.as_str())
            .collect();
        for c in Construct::ALL {
            assert!(constructs.contains(&c.name()), "{c:?} is not a model construct");
        }
        assert_eq!(Construct::ALL.len(), constructs.len(), "a model construct has no Construct");
        assert_eq!(constructs.len(), 4);
    }
}
