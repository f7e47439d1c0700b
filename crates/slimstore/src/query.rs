//! DMI query capabilities (paper §6: "We are also considering augmenting
//! such interfaces with query capabilities, in addition to the current
//! navigational access").
//!
//! Queries are deliberately simple — the paper's store offers selection
//! and reachability, so the DMI layer composes those into
//! instance-space queries: *find instances of a construct whose
//! connector values satisfy predicates*, plus path-following. No query
//! plan, no joins beyond conjunction; everything stays interpretable
//! against the model.

use crate::generic::{GenericDmi, Instance};
use crate::reader::Prop;
use crate::slimpad_dmi::{BundleHandle, ScrapHandle, SlimPadDmi};
use trim::Atom;

/// A predicate over one connector's values.
#[derive(Debug, Clone)]
pub enum ValuePred {
    /// Some value equals the text exactly.
    Equals(String),
    /// Some value contains the text (case-insensitive).
    Contains(String),
    /// Some value starts with the text.
    StartsWith(String),
    /// At least `n` values are present.
    CountAtLeast(usize),
    /// No value present.
    Absent,
}

impl ValuePred {
    /// Test against a connector's text values.
    pub fn matches(&self, values: &[String]) -> bool {
        match self {
            ValuePred::Equals(t) => values.iter().any(|v| v == t),
            ValuePred::Contains(t) => {
                let needle = t.to_lowercase();
                values.iter().any(|v| v.to_lowercase().contains(&needle))
            }
            ValuePred::StartsWith(t) => values.iter().any(|v| v.starts_with(t.as_str())),
            ValuePred::CountAtLeast(n) => values.len() >= *n,
            ValuePred::Absent => values.is_empty(),
        }
    }
}

/// A conjunctive instance query: construct + per-connector predicates.
#[derive(Debug, Clone, Default)]
pub struct InstanceQuery {
    /// The construct whose instances are scanned.
    pub construct: String,
    /// All predicates must hold (conjunction).
    pub predicates: Vec<(String, ValuePred)>,
}

impl InstanceQuery {
    /// Query all instances of `construct`.
    pub fn of(construct: impl Into<String>) -> Self {
        InstanceQuery { construct: construct.into(), predicates: Vec::new() }
    }

    /// Add a predicate on a connector.
    pub fn whose(mut self, connector: impl Into<String>, pred: ValuePred) -> Self {
        self.predicates.push((connector.into(), pred));
        self
    }
}

impl GenericDmi {
    /// Run an instance query. Results are in instance-handle order
    /// (deterministic per store).
    pub fn query(&self, q: &InstanceQuery) -> Vec<Instance> {
        self.instances(&q.construct)
            .into_iter()
            .filter(|i| {
                q.predicates.iter().all(|(connector, pred)| {
                    // Links count as values too: compare by target text?
                    // Text predicates look at literal values; count/absent
                    // predicates consider links as well.
                    let texts = self.texts(*i, connector);
                    match pred {
                        ValuePred::CountAtLeast(_) | ValuePred::Absent => {
                            let total = texts.len() + self.links(*i, connector).len();
                            pred.matches(&vec![String::new(); total])
                        }
                        _ => pred.matches(&texts),
                    }
                })
            })
            .collect()
    }

    /// Follow a connector path from an instance (navigational query):
    /// `follow(topic, &["relatedTo", "relatedTo"])` → topics two hops out.
    pub fn follow(&self, from: Instance, path: &[&str]) -> Vec<Instance> {
        let mut frontier = vec![from];
        for connector in path {
            let mut next = Vec::new();
            for i in &frontier {
                next.extend(self.links(*i, connector));
            }
            next.sort_unstable();
            next.dedup();
            frontier = next;
        }
        frontier
    }

    /// Convenience: the text of `connector` for every query hit.
    pub fn query_texts(&self, q: &InstanceQuery, connector: &str) -> Vec<String> {
        self.query(q).into_iter().filter_map(|i| self.text(i, connector)).collect()
    }
}

impl SlimPadDmi {
    /// Find scraps whose label contains `needle` (case-insensitive) —
    /// the pad-level "find scrap" the paper's navigational access lacks.
    /// Served by the store's literal search: each distinct literal is
    /// tested once, and no scrap is visited unless it matches.
    pub fn find_scraps(&self, needle: &str) -> Vec<ScrapHandle> {
        self.subjects_with_literal(Prop::ScrapName, needle, ScrapHandle)
    }

    /// Find bundles whose name contains `needle` (case-insensitive).
    pub fn find_bundles(&self, needle: &str) -> Vec<BundleHandle> {
        self.subjects_with_literal(Prop::BundleName, needle, BundleHandle)
    }

    /// Scraps annotated with text containing `needle`, found through the
    /// literal search on annotation values.
    pub fn find_annotated(&self, needle: &str) -> Vec<ScrapHandle> {
        self.subjects_with_literal(Prop::ScrapAnnotation, needle, ScrapHandle)
    }

    /// Handles of the subjects whose `property` literal contains
    /// `needle` (case-insensitive), answered by the store's literal
    /// search ([`trim::TripleStore::find_literals`], which tests each
    /// distinct literal once) instead of a walk over every instance.
    /// Sorted by atom and deduplicated, the order the reader lists
    /// instances in.
    fn subjects_with_literal<H>(
        &self,
        property: Prop,
        needle: &str,
        handle: fn(Atom) -> H,
    ) -> Vec<H> {
        let store = self.store();
        let Some(p) = store.find_atom(property.name()) else {
            return Vec::new();
        };
        let mut out: Vec<Atom> = store
            .find_literals(needle)
            .into_iter()
            .filter(|t| t.property == p)
            .map(|t| t.subject)
            .collect();
        out.sort_unstable();
        out.dedup();
        out.into_iter().map(handle).collect()
    }

    /// The bundle that directly contains a scrap, if any (see
    /// [`crate::PadReader::containing_bundle`]).
    pub fn containing_bundle(&self, scrap: ScrapHandle) -> Option<BundleHandle> {
        self.reader().containing_bundle(scrap)
    }

    /// Scraps directly contained in `bundle`, in handle order.
    pub fn scraps_in_bundle(&self, bundle: BundleHandle) -> Vec<ScrapHandle> {
        self.reader().scraps_in_bundle(bundle)
    }

    /// [`SlimPadDmi::find_scraps`] restricted to one bundle (see
    /// [`crate::PadReader::find_scraps_in_bundle`]).
    pub fn find_scraps_in_bundle(&self, bundle: BundleHandle, needle: &str) -> Vec<ScrapHandle> {
        self.reader().find_scraps_in_bundle(bundle, needle)
    }

    /// The chain of bundles from the outermost ancestor down to the one
    /// directly containing `scrap` — breadcrumbs for displays.
    pub fn bundle_path(&self, scrap: ScrapHandle) -> Vec<BundleHandle> {
        self.reader().bundle_path(scrap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic::DmiValue;
    use metamodel::builtin;

    fn topic_dmi() -> GenericDmi {
        let mut dmi = GenericDmi::new(builtin::topic_map_like());
        for (name, occurrences) in
            [("Furosemide", 3usize), ("Potassium", 1), ("Captopril", 0)]
        {
            let t = dmi.create("Topic").unwrap();
            dmi.set(t, "topicName", DmiValue::Text(name.into())).unwrap();
            for i in 0..occurrences {
                dmi.set(t, "occurrence", DmiValue::Text(format!("mark:{name}-{i}"))).unwrap();
            }
        }
        dmi
    }

    #[test]
    fn equals_and_contains_predicates() {
        let dmi = topic_dmi();
        let q = InstanceQuery::of("Topic").whose("topicName", ValuePred::Equals("Potassium".into()));
        assert_eq!(dmi.query(&q).len(), 1);
        let q = InstanceQuery::of("Topic").whose("topicName", ValuePred::Contains("os".into()));
        // Furosemide and... "Potassium"? contains "os"? P-o-t-a-s-s… no.
        // Furosemide (fur-os-emide) only.
        assert_eq!(dmi.query_texts(&q, "topicName"), vec!["Furosemide"]);
        let q = InstanceQuery::of("Topic").whose("topicName", ValuePred::StartsWith("Ca".into()));
        assert_eq!(dmi.query_texts(&q, "topicName"), vec!["Captopril"]);
    }

    #[test]
    fn count_and_absent_predicates() {
        let dmi = topic_dmi();
        let q = InstanceQuery::of("Topic").whose("occurrence", ValuePred::CountAtLeast(2));
        assert_eq!(dmi.query_texts(&q, "topicName"), vec!["Furosemide"]);
        let q = InstanceQuery::of("Topic").whose("occurrence", ValuePred::Absent);
        assert_eq!(dmi.query_texts(&q, "topicName"), vec!["Captopril"]);
    }

    #[test]
    fn conjunction_narrows() {
        let dmi = topic_dmi();
        let q = InstanceQuery::of("Topic")
            .whose("topicName", ValuePred::Contains("i".into()))
            .whose("occurrence", ValuePred::CountAtLeast(1));
        let names = dmi.query_texts(&q, "topicName");
        assert_eq!(names, vec!["Furosemide", "Potassium"]);
    }

    #[test]
    fn follow_walks_link_paths() {
        let mut dmi = topic_dmi();
        let topics = dmi.instances("Topic");
        dmi.set(topics[0], "relatedTo", DmiValue::Link(topics[1])).unwrap();
        dmi.set(topics[1], "relatedTo", DmiValue::Link(topics[2])).unwrap();
        let one_hop = dmi.follow(topics[0], &["relatedTo"]);
        assert_eq!(one_hop, vec![topics[1]]);
        let two_hops = dmi.follow(topics[0], &["relatedTo", "relatedTo"]);
        assert_eq!(two_hops, vec![topics[2]]);
        assert!(dmi.follow(topics[2], &["relatedTo"]).is_empty());
    }

    #[test]
    fn unknown_construct_queries_are_empty() {
        let dmi = topic_dmi();
        assert!(dmi.query(&InstanceQuery::of("Ghost")).is_empty());
    }

    fn pad_with_scraps() -> SlimPadDmi {
        let mut dmi = SlimPadDmi::new();
        let outer = dmi.create_bundle("Ward 5", (0, 0), 1000, 800);
        let inner = dmi.create_bundle("Bed 4: John Smith", (10, 10), 400, 300);
        dmi.add_nested_bundle(outer, inner).unwrap();
        let s1 = dmi.create_scrap("Lasix 40", (20, 40), "mark:0").unwrap();
        dmi.add_scrap(inner, s1).unwrap();
        let s2 = dmi.create_scrap("K 4.1", (20, 70), "mark:1").unwrap();
        dmi.add_scrap(inner, s2).unwrap();
        dmi.add_annotation(s2, "repleting per protocol").unwrap();
        dmi
    }

    #[test]
    fn find_scraps_and_bundles_case_insensitive() {
        let dmi = pad_with_scraps();
        assert_eq!(dmi.find_scraps("lasix").len(), 1);
        assert_eq!(dmi.find_scraps("ZZZ").len(), 0);
        assert_eq!(dmi.find_bundles("bed 4").len(), 1);
        assert_eq!(dmi.find_bundles("ward").len(), 1);
    }

    #[test]
    fn find_annotated_searches_notes() {
        let dmi = pad_with_scraps();
        let hits = dmi.find_annotated("protocol");
        assert_eq!(hits.len(), 1);
        assert_eq!(dmi.scrap(hits[0]).unwrap().name, "K 4.1");
    }

    #[test]
    fn containing_bundle_and_breadcrumbs() {
        let dmi = pad_with_scraps();
        let scrap = dmi.find_scraps("Lasix").remove(0);
        let inner = dmi.containing_bundle(scrap).unwrap();
        assert_eq!(dmi.bundle(inner).unwrap().name, "Bed 4: John Smith");
        let path = dmi.bundle_path(scrap);
        let names: Vec<String> =
            path.iter().map(|b| dmi.bundle(*b).unwrap().name).collect();
        assert_eq!(names, vec!["Ward 5", "Bed 4: John Smith"]);
    }

    #[test]
    fn scraps_in_bundle_joins_membership_and_names() {
        let dmi = pad_with_scraps();
        let inner = dmi.find_bundles("Bed 4").remove(0);
        let scraps = dmi.scraps_in_bundle(inner);
        assert_eq!(scraps.len(), 2);
        assert_eq!(scraps, dmi.bundle(inner).unwrap().scraps);
        let outer = dmi.find_bundles("Ward").remove(0);
        assert!(dmi.scraps_in_bundle(outer).is_empty());
    }

    #[test]
    fn find_scraps_in_bundle_scopes_the_search() {
        let mut dmi = pad_with_scraps();
        // A same-label scrap *outside* the bundle must not appear.
        let free = dmi.create_scrap("Lasix 20", (0, 0), "mark:9").unwrap();
        let inner = dmi.find_bundles("Bed 4").remove(0);
        let hits = dmi.find_scraps_in_bundle(inner, "lasix");
        assert_eq!(hits.len(), 1);
        assert!(!hits.contains(&free));
        assert_eq!(dmi.scrap(hits[0]).unwrap().name, "Lasix 40");
        assert!(dmi.find_scraps_in_bundle(inner, "zzz").is_empty());
    }

    #[test]
    fn free_scrap_has_no_container() {
        let mut dmi = pad_with_scraps();
        let free = dmi.create_scrap("floating", (0, 0), "mark:9").unwrap();
        assert!(dmi.containing_bundle(free).is_none());
        assert!(dmi.bundle_path(free).is_empty());
    }
}
