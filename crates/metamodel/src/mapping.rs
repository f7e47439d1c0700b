//! Cross-model and cross-schema mappings.
//!
//! "We can leverage the generic representation directly, by defining
//! mappings between superimposed models, including model-to-model,
//! schema-to-schema and even schema-to-model mappings" (paper §4.3,
//! following reference \[4\]). A [`Mapping`] renames constructs and
//! connectors between two models; [`apply_mapping`] translates instance
//! data into a fresh store in the target model's vocabulary.

use crate::encode::encode_model;
use crate::model::{ConstructKind, ModelDef};
use crate::vocab;
use std::collections::HashMap;
use trim::{TriplePattern, TripleStore, Value};

/// A construct/connector renaming between two models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    pub name: String,
    /// `(source construct, target construct)` pairs.
    pub construct_map: Vec<(String, String)>,
    /// `(source connector, target connector)` pairs.
    pub connector_map: Vec<(String, String)>,
}

/// Errors from validating or applying a mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingError {
    UnknownSourceConstruct { name: String },
    UnknownTargetConstruct { name: String },
    UnknownSourceConnector { name: String },
    UnknownTargetConnector { name: String },
    /// Mapped constructs disagree in kind (e.g. mark → literal is fine,
    /// construct → literal is not).
    KindClash { source: String, target: String },
}

impl std::fmt::Display for MappingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MappingError::UnknownSourceConstruct { name } => {
                write!(f, "mapping names unknown source construct {name:?}")
            }
            MappingError::UnknownTargetConstruct { name } => {
                write!(f, "mapping names unknown target construct {name:?}")
            }
            MappingError::UnknownSourceConnector { name } => {
                write!(f, "mapping names unknown source connector {name:?}")
            }
            MappingError::UnknownTargetConnector { name } => {
                write!(f, "mapping names unknown target connector {name:?}")
            }
            MappingError::KindClash { source, target } => {
                write!(f, "constructs {source:?} and {target:?} have incompatible kinds")
            }
        }
    }
}

impl std::error::Error for MappingError {}

impl Mapping {
    /// A mapping with no entries.
    pub fn new(name: impl Into<String>) -> Self {
        Mapping { name: name.into(), construct_map: Vec::new(), connector_map: Vec::new() }
    }

    /// Map a source construct to a target construct.
    pub fn construct(mut self, from: impl Into<String>, to: impl Into<String>) -> Self {
        self.construct_map.push((from.into(), to.into()));
        self
    }

    /// Map a source connector to a target connector.
    pub fn connector(mut self, from: impl Into<String>, to: impl Into<String>) -> Self {
        self.connector_map.push((from.into(), to.into()));
        self
    }

    /// Check every entry against the two models.
    pub fn validate(&self, from: &ModelDef, to: &ModelDef) -> Result<(), MappingError> {
        for (s, t) in &self.construct_map {
            let sc = from
                .find_construct(s)
                .ok_or_else(|| MappingError::UnknownSourceConstruct { name: s.clone() })?;
            let tc = to
                .find_construct(t)
                .ok_or_else(|| MappingError::UnknownTargetConstruct { name: t.clone() })?;
            let compatible = match (sc.kind, tc.kind) {
                (a, b) if a == b => true,
                // A mark can degrade to a literal (the id string), but a
                // structural construct cannot become a leaf.
                (ConstructKind::Mark, ConstructKind::Literal) => true,
                _ => false,
            };
            if !compatible {
                return Err(MappingError::KindClash { source: s.clone(), target: t.clone() });
            }
        }
        for (s, t) in &self.connector_map {
            from.find_connector(s)
                .ok_or_else(|| MappingError::UnknownSourceConnector { name: s.clone() })?;
            to.find_connector(t)
                .ok_or_else(|| MappingError::UnknownTargetConnector { name: t.clone() })?;
        }
        Ok(())
    }
}

/// Translate all instances of `from` in `src` into a new store in `to`'s
/// vocabulary. Unmapped constructs' instances and unmapped connectors'
/// triples are dropped (a mapping is a projection, not a guarantee of
/// completeness); mapped ones keep their resource identities.
pub fn apply_mapping(
    src: &TripleStore,
    mapping: &Mapping,
    from: &ModelDef,
    to: &ModelDef,
) -> Result<TripleStore, MappingError> {
    mapping.validate(from, to)?;
    let construct_map: HashMap<&str, &str> =
        mapping.construct_map.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
    let connector_map: HashMap<&str, &str> =
        mapping.connector_map.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();

    let mut out = TripleStore::new();
    encode_model(&mut out, to);

    let Some(conforms_p) = src.find_atom(vocab::CONFORMS_TO) else {
        return Ok(out);
    };
    let src_prefix = format!("{}:{}.", vocab::prefix::CONSTRUCT, from.name);

    // Which source instances are mapped, and to which target construct?
    // BTreeMap: output stores must be deterministic regardless of hash
    // seeds, so canonical serialization stays canonical across runs.
    let mut mapped_instances: std::collections::BTreeMap<trim::Atom, &str> = Default::default();
    for t in src.select_sorted(&TriplePattern::default().with_property(conforms_p)) {
        if let Value::Resource(c) = t.object {
            if let Some(short) = src.resolve(c).strip_prefix(&src_prefix) {
                if let Some(target) = construct_map.get(short) {
                    mapped_instances.insert(t.subject, target);
                }
            }
        }
    }

    let type_str = vocab::TYPE.to_string();
    let conforms_str = vocab::CONFORMS_TO.to_string();
    for (&instance, &target_construct) in &mapped_instances {
        let inst_name = src.resolve(instance).to_string();
        let inst_atom = out.atom(&inst_name);
        let c_atom = out.atom(&vocab::construct_res(&to.name, target_construct));
        let type_p = out.atom(&type_str);
        out.insert(inst_atom, type_p, Value::Resource(c_atom));
        let conf_p = out.atom(&conforms_str);
        out.insert(inst_atom, conf_p, Value::Resource(c_atom));
        for t in src.select_sorted(&TriplePattern::default().with_subject(instance)) {
            let p_name = src.resolve(t.property);
            let Some(&target_conn) = connector_map.get(p_name) else {
                continue;
            };
            let p = out.atom(target_conn);
            match t.object {
                Value::Literal(a) => {
                    let text = src.resolve(a).to_string();
                    let v = out.literal_value(&text);
                    out.insert(inst_atom, p, v);
                }
                Value::Resource(a) => {
                    // Only keep links whose target is itself mapped.
                    if mapped_instances.contains_key(&a) {
                        let name = src.resolve(a).to_string();
                        let target = out.atom(&name);
                        out.insert(inst_atom, p, Value::Resource(target));
                    }
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;
    use crate::conformance::check_conformance;
    use crate::encode::InstanceWriter;

    /// Bundle-Scrap → Topic-Map: bundles become topics, scrap marks
    /// become occurrences — the flagship cross-model mapping.
    fn bundle_to_topic_mapping() -> Mapping {
        Mapping::new("bundles-as-topics")
            .construct("Bundle", "Topic")
            .construct("Scrap", "Topic")
            .connector("bundleName", "topicName")
            .connector("scrapName", "topicName")
            .connector("nestedBundle", "relatedTo")
    }

    fn pad_store() -> TripleStore {
        let model = builtin::bundle_scrap();
        let mut store = TripleStore::new();
        let mut w = InstanceWriter::new(&mut store, &model);
        let b1 = w.create("Bundle");
        w.set_literal(b1, "bundleName", "John Smith");
        w.set_literal(b1, "bundlePos", "0,0");
        w.set_literal(b1, "bundleHeight", "100");
        w.set_literal(b1, "bundleWidth", "100");
        let b2 = w.create("Bundle");
        w.set_literal(b2, "bundleName", "Electrolyte");
        w.set_literal(b2, "bundlePos", "10,10");
        w.set_literal(b2, "bundleHeight", "50");
        w.set_literal(b2, "bundleWidth", "50");
        w.set_link(b1, "nestedBundle", b2);
        let s = w.create("Scrap");
        w.set_literal(s, "scrapName", "Na 140");
        w.set_literal(s, "scrapPos", "5,5");
        let h = w.create("MarkHandle");
        w.set_literal(h, "markId", "mark:0");
        w.set_link(s, "scrapMark", h);
        w.set_link(b2, "bundleContent", s);
        store
    }

    #[test]
    fn mapping_validates_against_both_models() {
        let m = bundle_to_topic_mapping();
        assert!(m.validate(&builtin::bundle_scrap(), &builtin::topic_map_like()).is_ok());

        let bad = Mapping::new("bad").construct("Ghost", "Topic");
        assert!(matches!(
            bad.validate(&builtin::bundle_scrap(), &builtin::topic_map_like()),
            Err(MappingError::UnknownSourceConstruct { .. })
        ));
        let bad = Mapping::new("bad").construct("Bundle", "Ghost");
        assert!(matches!(
            bad.validate(&builtin::bundle_scrap(), &builtin::topic_map_like()),
            Err(MappingError::UnknownTargetConstruct { .. })
        ));
        let bad = Mapping::new("bad").connector("bundleName", "ghost");
        assert!(matches!(
            bad.validate(&builtin::bundle_scrap(), &builtin::topic_map_like()),
            Err(MappingError::UnknownTargetConnector { .. })
        ));
        // Construct (structural) → String (literal) clashes.
        let bad = Mapping::new("bad").construct("Bundle", "String");
        assert!(matches!(
            bad.validate(&builtin::bundle_scrap(), &builtin::topic_map_like()),
            Err(MappingError::KindClash { .. })
        ));
        // Mark → literal degradation is allowed.
        let ok = Mapping::new("ok").construct("MarkRef", "String");
        assert!(ok.validate(&builtin::bundle_scrap(), &builtin::topic_map_like()).is_ok());
    }

    #[test]
    fn applied_mapping_produces_conformant_target_instances() {
        let src = pad_store();
        let mapping = bundle_to_topic_mapping();
        let out = apply_mapping(&src, &mapping, &builtin::bundle_scrap(), &builtin::topic_map_like())
            .unwrap();
        // Two bundles and a scrap became three topics.
        let conf = out.find_atom(vocab::CONFORMS_TO).unwrap();
        let topic_c = out.find_atom("construct:topic-map.Topic").unwrap();
        let topics = out.select(
            &TriplePattern::default().with_property(conf).with_object(Value::Resource(topic_c)),
        );
        assert_eq!(topics.len(), 3);
        // Names translated.
        let name_p = out.find_atom("topicName").unwrap();
        let names: Vec<String> = out
            .select_sorted(&TriplePattern::default().with_property(name_p))
            .iter()
            .filter_map(|t| out.value_str(t.object).map(str::to_string))
            .collect();
        assert!(names.contains(&"John Smith".to_string()), "{names:?}");
        assert!(names.contains(&"Na 140".to_string()), "{names:?}");
        // nestedBundle edge became a member edge between mapped resources.
        let member_p = out.find_atom("relatedTo").unwrap();
        assert_eq!(out.count(&TriplePattern::default().with_property(member_p)), 1);
        // Target instances conform to the topic-map model. (topicName is
        // 1..*, member 1..*: association instances don't exist here, so
        // only topics are checked.)
        let report = check_conformance(&out, &builtin::topic_map_like());
        assert!(report.is_conformant(), "{:?}", report.violations);
    }

    #[test]
    fn unmapped_content_is_dropped() {
        let src = pad_store();
        let mapping = Mapping::new("bundles-only")
            .construct("Bundle", "Topic")
            .connector("bundleName", "topicName");
        let out = apply_mapping(&src, &mapping, &builtin::bundle_scrap(), &builtin::topic_map_like())
            .unwrap();
        // Scraps and mark handles don't appear.
        assert!(out.find_atom("scrapName").is_none());
        assert!(out.find_atom("markId").is_none());
        // Bundle positions were never mapped.
        assert!(out.find_atom("bundlePos").is_none());
    }

    #[test]
    fn links_to_unmapped_targets_are_dropped() {
        let src = pad_store();
        // Map bundles and nestedBundle but not scraps: bundleContent maps
        // to member, but its scrap targets are unmapped → edge dropped.
        let mapping = Mapping::new("partial")
            .construct("Bundle", "Topic")
            .connector("bundleName", "topicName")
            .connector("bundleContent", "relatedTo");
        let out = apply_mapping(&src, &mapping, &builtin::bundle_scrap(), &builtin::topic_map_like())
            .unwrap();
        let member_p = out.find_atom("relatedTo");
        let count = member_p
            .map(|p| out.count(&TriplePattern::default().with_property(p)))
            .unwrap_or(0);
        assert_eq!(count, 0, "bundleContent pointed only at unmapped scraps");
    }

    #[test]
    fn empty_source_yields_model_only_target() {
        let src = TripleStore::new();
        let mapping = bundle_to_topic_mapping();
        let out = apply_mapping(&src, &mapping, &builtin::bundle_scrap(), &builtin::topic_map_like())
            .unwrap();
        // Only the encoded target model is present.
        assert!(crate::encode::decode_model(&out, "topic-map").is_ok());
        let conf = out.find_atom(vocab::CONFORMS_TO);
        assert!(conf.is_none() || out.count(&TriplePattern::default().with_property(conf.unwrap())) == 0);
    }
}
