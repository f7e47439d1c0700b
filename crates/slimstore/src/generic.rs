//! The generated DMI: a model-driven manipulation interface.
//!
//! The paper closes §4.4 with: "We are working towards automatically
//! generating specialized DMIs from data models (specified in either UML
//! or as triples)." This module implements that direction. Instead of
//! emitting source code, [`GenericDmi`] *derives* the interface at
//! runtime from a [`ModelDef`]: every operation is validated against the
//! model's constructs, connectors, and cardinalities before it touches
//! the store, so any model the metamodel can express gets a safe DMI for
//! free — including models loaded from a store at runtime
//! (`decode_model`), which is "schema-later" all the way down.
//!
//! It is also the one write path of [`crate::SlimPadDmi`]: the Figure 10
//! operations are a typed façade over a `GenericDmi` for
//! [`metamodel::builtin::bundle_scrap`], so the Bundle-Scrap
//! cardinalities, value kinds and link targets are enforced here, from
//! the model, and nowhere else.

use crate::error::DmiError;
use metamodel::encode::encode_model;
use metamodel::vocab;
use metamodel::{
    Cardinality, ConformanceReport, ConnectorDef, ConnectorKind, ConstructKind, ModelDef,
};
use std::sync::Arc;
use trim::{Atom, ConjQuery, Triple, TriplePattern, TripleStore, Value};

/// An instance handle minted by a [`GenericDmi`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Instance(pub(crate) Atom);

/// A value to assign through a connector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DmiValue {
    /// For literal and mark constructs.
    Text(String),
    /// For structural constructs.
    Link(Instance),
}

/// A value as [`GenericDmi::set_as`] assigns it: borrowed text, or a
/// link to an instance together with the construct the caller checked
/// it conforms to.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Typed<'a> {
    Text(&'a str),
    Link(Instance, &'a str),
}

/// A runtime-generated DMI for an arbitrary model.
#[derive(Debug)]
pub struct GenericDmi {
    store: TripleStore,
    model: Arc<ModelDef>,
}

impl GenericDmi {
    /// Derive a DMI for `model` over a fresh store.
    pub fn new(model: ModelDef) -> Self {
        Self::encoded(Arc::new(model))
    }

    /// [`Self::new`] for a model shared with other DMIs.
    pub(crate) fn encoded(model: Arc<ModelDef>) -> Self {
        let mut store = TripleStore::new();
        encode_model(&mut store, &model);
        Self::with_model(store, model)
    }

    /// A DMI for `model` over an existing store, taking the model as
    /// given rather than decoding it from the store — so a salvaged store
    /// that lost some model triples still gets the whole model.
    pub(crate) fn with_model(store: TripleStore, model: Arc<ModelDef>) -> Self {
        GenericDmi { store, model }
    }

    /// Derive a DMI over an existing store (e.g. loaded from XML). The
    /// model must already be encoded in the store under `model_name`.
    pub fn over_store(store: TripleStore, model_name: &str) -> Result<Self, DmiError> {
        let model = metamodel::encode::decode_model(&store, model_name).map_err(|e| {
            DmiError::Structure { message: format!("cannot derive DMI: {e}") }
        })?;
        Ok(Self::with_model(store, Arc::new(model)))
    }

    /// The model this DMI enforces.
    pub fn model(&self) -> &ModelDef {
        &self.model
    }

    // ---- operations ---------------------------------------------------------

    /// `Create_<Construct>()`: mint an instance of a structural construct.
    pub fn create(&mut self, construct: &str) -> Result<Instance, DmiError> {
        let def = self.model.find_construct(construct).ok_or_else(|| DmiError::NotFound {
            what: "construct",
            id: construct.to_string(),
        })?;
        if def.kind != ConstructKind::Construct {
            return Err(DmiError::Structure {
                message: format!("{construct:?} is a leaf construct; it has no instances"),
            });
        }
        let id = self.store.fresh_resource(construct);
        let c = self.store.atom(&vocab::construct_res(&self.model.name, construct));
        let type_p = self.store.atom(vocab::TYPE);
        self.store.insert(id, type_p, Value::Resource(c));
        let conf_p = self.store.atom(vocab::CONFORMS_TO);
        self.store.insert(id, conf_p, Value::Resource(c));
        Ok(Instance(id))
    }

    /// Resolve the connector an instance may use, honouring inheritance,
    /// and the kind of construct it targets.
    fn connector_for(
        &self,
        instance: Instance,
        connector: &str,
    ) -> Result<(&ConnectorDef, ConstructKind), DmiError> {
        self.connector_of(self.construct_name(instance)?, connector)
    }

    /// [`Self::connector_for`] an instance of `construct`.
    fn connector_of(
        &self,
        construct: &str,
        connector: &str,
    ) -> Result<(&ConnectorDef, ConstructKind), DmiError> {
        // Connector names are unique in a model; the instance may use the
        // connector if it starts at its construct or at an ancestor.
        let def = self
            .model
            .find_connector(connector)
            .filter(|c| {
                c.kind != ConnectorKind::Generalization && self.assignable(&c.from, construct)
            })
            .ok_or_else(|| DmiError::NoSuchConnector {
                construct: construct.to_string(),
                connector: connector.to_string(),
            })?;
        let target_kind =
            self.model.find_construct(&def.to).map_or(ConstructKind::Construct, |c| c.kind);
        Ok((def, target_kind))
    }

    /// The stored form of a value (interning a text).
    fn object(&mut self, value: &DmiValue) -> Value {
        match value {
            DmiValue::Text(t) => self.store.literal_value(t),
            DmiValue::Link(i) => Value::Resource(i.0),
        }
    }

    /// `Update_<connector>` / `set<Connector>`: assign a value, enforcing
    /// value kind and cardinality. Single-valued connectors replace;
    /// multi-valued connectors append.
    pub fn set(
        &mut self,
        instance: Instance,
        connector: &str,
        value: DmiValue,
    ) -> Result<(), DmiError> {
        let single = {
            let typed = match &value {
                DmiValue::Text(text) => Typed::Text(text),
                DmiValue::Link(target) => Typed::Link(*target, self.construct_name(*target)?),
            };
            self.check_set(self.construct_name(instance)?, connector, typed)?
        };
        let object = self.object(&value);
        self.assign(instance, connector, object, single);
        Ok(())
    }

    /// [`Self::set`] on an instance the caller has checked conforms to
    /// `construct`, with the value's link target checked the same way —
    /// so a typed façade resolves each instance's construct once. The
    /// model's checks are [`Self::set`]'s.
    pub(crate) fn set_as(
        &mut self,
        instance: Instance,
        construct: &str,
        connector: &str,
        value: Typed<'_>,
    ) -> Result<(), DmiError> {
        let single = self.check_set(construct, connector, value)?;
        let object = match value {
            Typed::Text(text) => self.store.literal_value(text),
            Typed::Link(target, _) => Value::Resource(target.0),
        };
        self.assign(instance, connector, object, single);
        Ok(())
    }

    /// Check that an instance of `construct` may take `value` through
    /// `connector`: the connector is its own, the value has the right
    /// kind and a link the right target. True when the connector is
    /// single-valued.
    fn check_set(
        &self,
        construct: &str,
        connector: &str,
        value: Typed<'_>,
    ) -> Result<bool, DmiError> {
        let (def, target_kind) = self.connector_of(construct, connector)?;
        // Value-kind validation.
        match (value, target_kind) {
            (Typed::Text(_), ConstructKind::Literal | ConstructKind::Mark) => {}
            (Typed::Link(_, tc), ConstructKind::Construct) => {
                // Target typing (with generalization).
                if !self.assignable(&def.to, tc) {
                    return Err(DmiError::Structure {
                        message: format!(
                            "connector {connector:?} expects {:?}, got {tc:?}",
                            def.to
                        ),
                    });
                }
            }
            (Typed::Text(_), ConstructKind::Construct) => {
                return Err(DmiError::WrongValueKind {
                    connector: connector.to_string(),
                    expected: "link",
                })
            }
            (Typed::Link(..), _) => {
                return Err(DmiError::WrongValueKind {
                    connector: connector.to_string(),
                    expected: "text",
                })
            }
        }
        Ok(matches!(def.cardinality, Cardinality::One | Cardinality::OptionalOne))
    }

    /// Store a checked value: single-valued connectors replace,
    /// multi-valued ones append.
    fn assign(&mut self, instance: Instance, connector: &str, object: Value, single: bool) {
        let p = self.store.atom(connector);
        if single {
            self.store.set_unique(instance.0, p, object);
        } else {
            self.store.insert(instance.0, p, object);
        }
    }

    /// Remove one value of a connector. A value that is not there is a
    /// `Structure` error; one whose removal would drop the connector
    /// below a `1..` cardinality floor is a `Cardinality` error.
    pub fn unset(
        &mut self,
        instance: Instance,
        connector: &str,
        value: &DmiValue,
    ) -> Result<(), DmiError> {
        let cardinality = self.connector_for(instance, connector)?.0.cardinality;
        let property = self.store.atom(connector);
        let object = self.object(value);
        let triple = Triple { subject: instance.0, property, object };
        if !self.store.contains(&triple) {
            return Err(DmiError::Structure { message: "value not present".into() });
        }
        let left = self
            .store
            .count(&TriplePattern::default().with_subject(instance.0).with_property(property))
            - 1;
        if !cardinality.admits(left) {
            return Err(DmiError::Cardinality {
                message: format!(
                    "removing a value would leave {left} values for {connector:?} ({cardinality} required)"
                ),
            });
        }
        self.store.remove(triple);
        Ok(())
    }

    /// Delete an instance: its triples and incoming instance links, in
    /// one batch.
    pub fn delete(&mut self, instance: Instance) -> Result<(), DmiError> {
        self.construct_name(instance)?; // must be live
        let mut doomed = self.store.select(&TriplePattern::default().with_subject(instance.0));
        // Keep the model encoding intact: only instance-level triples
        // reference instance resources, but never touch triples whose
        // subject is a model element.
        doomed.extend(
            self.store
                .select(&TriplePattern::default().with_object(Value::Resource(instance.0)))
                .into_iter()
                .filter(|t| {
                    let s = self.store.resolve(t.subject);
                    !s.starts_with("construct:")
                        && !s.starts_with("connector:")
                        && !s.starts_with("model:")
                }),
        );
        self.store.remove_all(doomed);
        Ok(())
    }

    // ---- reads ---------------------------------------------------------------

    /// The construct an instance conforms to.
    pub fn construct_of(&self, instance: Instance) -> Result<String, DmiError> {
        self.construct_name(instance).map(str::to_string)
    }

    /// [`Self::construct_of`], borrowed from the store's atom table.
    fn construct_name(&self, instance: Instance) -> Result<&str, DmiError> {
        let conf_p = self
            .store
            .find_atom(vocab::CONFORMS_TO)
            .ok_or(DmiError::NotFound { what: "instance", id: String::new() })?;
        let construct = match self.store.object_of(instance.0, conf_p) {
            Some(Value::Resource(c)) => self
                .store
                .resolve(c)
                .strip_prefix(vocab::prefix::CONSTRUCT)
                .and_then(|s| s.strip_prefix(':'))
                .and_then(|s| s.strip_prefix(self.model.name.as_str()))
                .and_then(|s| s.strip_prefix('.')),
            _ => None,
        };
        construct.ok_or_else(|| DmiError::NotFound {
            what: "instance",
            id: self.store.resolve(instance.0).to_string(),
        })
    }

    fn assignable(&self, target: &str, candidate: &str) -> bool {
        if target == candidate {
            return true;
        }
        let mut frontier = vec![candidate];
        while let Some(cur) = frontier.pop() {
            for conn in self.model.connectors() {
                if conn.kind == ConnectorKind::Generalization && conn.from == cur {
                    if conn.to == target {
                        return true;
                    }
                    frontier.push(&conn.to);
                }
            }
        }
        false
    }

    /// Text values of a connector, sorted.
    pub fn texts(&self, instance: Instance, connector: &str) -> Vec<String> {
        let Some(p) = self.store.find_atom(connector) else {
            return Vec::new();
        };
        let mut out: Vec<String> = self
            .store
            .select(&TriplePattern::default().with_subject(instance.0).with_property(p))
            .into_iter()
            .filter_map(|t| self.store.value_str(t.object).map(str::to_string))
            .collect();
        out.sort();
        out
    }

    /// The single text value of a connector, if present.
    pub fn text(&self, instance: Instance, connector: &str) -> Option<String> {
        self.texts(instance, connector).into_iter().next()
    }

    /// Link values of a connector, sorted by handle.
    pub fn links(&self, instance: Instance, connector: &str) -> Vec<Instance> {
        let Some(p) = self.store.find_atom(connector) else {
            return Vec::new();
        };
        let mut out: Vec<Instance> = self
            .store
            .select(&TriplePattern::default().with_subject(instance.0).with_property(p))
            .into_iter()
            .filter_map(|t| match t.object {
                Value::Resource(a) => Some(Instance(a)),
                _ => None,
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// All instances of a construct.
    pub fn instances(&self, construct: &str) -> Vec<Instance> {
        let Some(conf_p) = self.store.find_atom(vocab::CONFORMS_TO) else {
            return Vec::new();
        };
        let Some(c) =
            self.store.find_atom(&vocab::construct_res(&self.model.name, construct))
        else {
            return Vec::new();
        };
        let mut out: Vec<Instance> = self
            .store
            .select(&TriplePattern::default().with_property(conf_p).with_object(Value::Resource(c)))
            .into_iter()
            .map(|t| Instance(t.subject))
            .collect();
        out.sort_unstable();
        out
    }

    /// Instances of `construct` carrying exactly `text` on `connector`
    /// — the term-lookup every concordance-style index needs. Answered
    /// by a two-pattern conjunctive join on the triple engine,
    /// `(?i conformsTo C) ⋈ (?i connector "text")`, instead of scanning
    /// every instance of the construct.
    pub fn instances_with_text(
        &self,
        construct: &str,
        connector: &str,
        text: &str,
    ) -> Vec<Instance> {
        let (Some(conf_p), Some(c), Some(p), Some(lit)) = (
            self.store.find_atom(vocab::CONFORMS_TO),
            self.store.find_atom(&vocab::construct_res(&self.model.name, construct)),
            self.store.find_atom(connector),
            self.store.find_atom(text),
        ) else {
            return Vec::new();
        };
        let mut q = ConjQuery::new();
        let i = q.var("i");
        q.pattern(i, conf_p, c).pattern(i, p, Value::Literal(lit));
        let Ok(rows) = q.solve(&self.store) else {
            return Vec::new();
        };
        rows.into_iter()
            .filter_map(|row| match row[0] {
                Value::Resource(a) => Some(Instance(a)),
                _ => None,
            })
            .collect()
    }

    // ---- persistence and checking ---------------------------------------------

    /// The underlying store (read-only).
    pub fn store(&self) -> &TripleStore {
        &self.store
    }

    /// The underlying store, for the journal and log operations a façade
    /// forwards (checkpoint rollback, snapshots, WAL commits). Instance
    /// data is written through the operations above.
    pub(crate) fn store_mut(&mut self) -> &mut TripleStore {
        &mut self.store
    }

    /// Serialize store (model + instances) to XML.
    pub fn save_xml(&self) -> String {
        self.store.to_xml()
    }

    /// Load a store and derive the DMI from its encoded model.
    pub fn load_xml(text: &str, model_name: &str) -> Result<Self, DmiError> {
        let store = TripleStore::from_xml(text)?;
        Self::over_store(store, model_name)
    }

    /// Conformance-check the instance data against the model.
    pub fn check(&self) -> ConformanceReport {
        metamodel::check_conformance(&self.store, &self.model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metamodel::builtin;

    fn topic_dmi() -> GenericDmi {
        GenericDmi::new(builtin::topic_map_like())
    }

    #[test]
    fn create_set_read_roundtrip() {
        let mut dmi = topic_dmi();
        let t = dmi.create("Topic").unwrap();
        dmi.set(t, "topicName", DmiValue::Text("Furosemide".into())).unwrap();
        dmi.set(t, "occurrence", DmiValue::Text("mark:3".into())).unwrap();
        assert_eq!(dmi.text(t, "topicName").as_deref(), Some("Furosemide"));
        assert_eq!(dmi.texts(t, "occurrence"), vec!["mark:3"]);
        assert_eq!(dmi.instances("Topic"), vec![t]);
        assert!(dmi.check().is_conformant(), "{:?}", dmi.check().violations);
    }

    #[test]
    fn leaf_constructs_cannot_be_instantiated() {
        let mut dmi = topic_dmi();
        assert!(matches!(dmi.create("String"), Err(DmiError::Structure { .. })));
        assert!(matches!(dmi.create("Occurrence"), Err(DmiError::Structure { .. })));
        assert!(matches!(dmi.create("Ghost"), Err(DmiError::NotFound { .. })));
    }

    #[test]
    fn unknown_connectors_rejected() {
        let mut dmi = topic_dmi();
        let t = dmi.create("Topic").unwrap();
        assert!(matches!(
            dmi.set(t, "flavor", DmiValue::Text("x".into())),
            Err(DmiError::NoSuchConnector { .. })
        ));
    }

    #[test]
    fn value_kind_enforced() {
        let mut dmi = topic_dmi();
        let t1 = dmi.create("Topic").unwrap();
        let t2 = dmi.create("Topic").unwrap();
        // topicName expects text, not a link.
        assert!(matches!(
            dmi.set(t1, "topicName", DmiValue::Link(t2)),
            Err(DmiError::WrongValueKind { .. })
        ));
        // relatedTo expects a link, not text.
        assert!(matches!(
            dmi.set(t1, "relatedTo", DmiValue::Text("x".into())),
            Err(DmiError::WrongValueKind { .. })
        ));
        dmi.set(t1, "relatedTo", DmiValue::Link(t2)).unwrap();
        assert_eq!(dmi.links(t1, "relatedTo"), vec![t2]);
    }

    #[test]
    fn link_target_typing_enforced() {
        let mut dmi = topic_dmi();
        let assoc = dmi.create("Association").unwrap();
        let topic = dmi.create("Topic").unwrap();
        dmi.set(assoc, "member", DmiValue::Link(topic)).unwrap();
        // member expects a Topic, not an Association.
        let assoc2 = dmi.create("Association").unwrap();
        assert!(matches!(
            dmi.set(assoc, "member", DmiValue::Link(assoc2)),
            Err(DmiError::Structure { .. })
        ));
    }

    #[test]
    fn single_valued_connectors_replace() {
        let mut dmi = GenericDmi::new(builtin::relational_like());
        let table = dmi.create("Table").unwrap();
        dmi.set(table, "tableName", DmiValue::Text("meds".into())).unwrap();
        dmi.set(table, "tableName", DmiValue::Text("medications".into())).unwrap();
        assert_eq!(dmi.texts(table, "tableName"), vec!["medications"]);
    }

    #[test]
    fn multi_valued_connectors_append() {
        let mut dmi = topic_dmi();
        let t = dmi.create("Topic").unwrap();
        dmi.set(t, "topicName", DmiValue::Text("Lasix".into())).unwrap();
        dmi.set(t, "topicName", DmiValue::Text("Furosemide".into())).unwrap();
        assert_eq!(dmi.texts(t, "topicName"), vec!["Furosemide", "Lasix"]);
    }

    #[test]
    fn unset_respects_cardinality_floor() {
        let mut dmi = topic_dmi();
        let t = dmi.create("Topic").unwrap();
        dmi.set(t, "topicName", DmiValue::Text("only".into())).unwrap();
        // topicName is 1..*: removing the only name is refused.
        assert!(matches!(
            dmi.unset(t, "topicName", &DmiValue::Text("only".into())),
            Err(DmiError::Cardinality { .. })
        ));
        dmi.set(t, "topicName", DmiValue::Text("second".into())).unwrap();
        dmi.unset(t, "topicName", &DmiValue::Text("only".into())).unwrap();
        assert_eq!(dmi.texts(t, "topicName"), vec!["second"]);
        // Removing a value that is not there errors.
        assert!(matches!(
            dmi.unset(t, "occurrence", &DmiValue::Text("mark:9".into())),
            Err(DmiError::Structure { .. })
        ));
    }

    #[test]
    fn generalization_accepted_in_links() {
        let mut dmi = GenericDmi::new(builtin::xlink_like());
        let ext = dmi.create("ExtendedLink").unwrap();
        // ExtendedLink inherits Link's connectors.
        dmi.set(ext, "linkTitle", DmiValue::Text("see also".into())).unwrap();
        dmi.set(ext, "locator", DmiValue::Text("mark:0".into())).unwrap();
        assert!(dmi.check().is_conformant(), "{:?}", dmi.check().violations);
    }

    #[test]
    fn delete_cleans_incoming_links() {
        let mut dmi = topic_dmi();
        let a = dmi.create("Topic").unwrap();
        let b = dmi.create("Topic").unwrap();
        dmi.set(a, "topicName", DmiValue::Text("a".into())).unwrap();
        dmi.set(b, "topicName", DmiValue::Text("b".into())).unwrap();
        dmi.set(a, "relatedTo", DmiValue::Link(b)).unwrap();
        dmi.delete(b).unwrap();
        assert!(dmi.links(a, "relatedTo").is_empty());
        assert!(dmi.construct_of(b).is_err());
        assert!(dmi.check().is_conformant(), "{:?}", dmi.check().violations);
    }

    #[test]
    fn xml_roundtrip_rederives_the_dmi() {
        let mut dmi = topic_dmi();
        let t = dmi.create("Topic").unwrap();
        dmi.set(t, "topicName", DmiValue::Text("Potassium".into())).unwrap();
        let xml = dmi.save_xml();
        let dmi2 = GenericDmi::load_xml(&xml, "topic-map").unwrap();
        let topics = dmi2.instances("Topic");
        assert_eq!(topics.len(), 1);
        assert_eq!(dmi2.text(topics[0], "topicName").as_deref(), Some("Potassium"));
        assert_eq!(dmi2.model().name, "topic-map");
        // Loading under a wrong model name fails cleanly.
        assert!(GenericDmi::load_xml(&xml, "bundle-scrap").is_err());
    }

    #[test]
    fn generic_dmi_can_drive_the_bundle_scrap_model_too() {
        // The same model the hand-written DMI serves: proof the generated
        // DMI subsumes it functionally.
        let mut dmi = GenericDmi::new(builtin::bundle_scrap());
        let pad = dmi.create("SlimPad").unwrap();
        dmi.set(pad, "padName", DmiValue::Text("Rounds".into())).unwrap();
        let bundle = dmi.create("Bundle").unwrap();
        dmi.set(bundle, "bundleName", DmiValue::Text("John Smith".into())).unwrap();
        dmi.set(bundle, "bundlePos", DmiValue::Text("10,10".into())).unwrap();
        dmi.set(bundle, "bundleWidth", DmiValue::Text("400".into())).unwrap();
        dmi.set(bundle, "bundleHeight", DmiValue::Text("300".into())).unwrap();
        dmi.set(pad, "rootBundle", DmiValue::Link(bundle)).unwrap();
        let scrap = dmi.create("Scrap").unwrap();
        dmi.set(scrap, "scrapName", DmiValue::Text("Lasix 40".into())).unwrap();
        dmi.set(scrap, "scrapPos", DmiValue::Text("20,40".into())).unwrap();
        let handle = dmi.create("MarkHandle").unwrap();
        dmi.set(handle, "markId", DmiValue::Text("mark:0".into())).unwrap();
        dmi.set(scrap, "scrapMark", DmiValue::Link(handle)).unwrap();
        dmi.set(bundle, "bundleContent", DmiValue::Link(scrap)).unwrap();
        assert!(dmi.check().is_conformant(), "{:?}", dmi.check().violations);
    }
}
