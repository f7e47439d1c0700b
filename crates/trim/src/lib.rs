//! `trim` — TRIM, the Triple Manager.
//!
//! TRIM is the storage sub-component of the SLIM architecture (paper
//! §4.3–4.4, Figure 9): superimposed model, schema, and instance data are
//! all represented uniformly as RDF-style **triples** — *(resource,
//! property, value)* — and every higher layer (the metamodel, the SLIM
//! Store, application DMIs) manipulates those triples through this crate.
//!
//! The paper specifies TRIM's operation surface directly:
//!
//! > "Through TRIM, the DMI can **create**, **remove**, **persist**
//! > (through XML files), **query**, and create simple **views** over the
//! > underlying triples. Query is specified by **selection**, where one or
//! > more of the triple fields is fixed, and the result is a set of
//! > triples. A view is specified by selecting a resource …, where all
//! > triples that can be **reached** from this resource are returned."
//!
//! This crate implements exactly that surface:
//!
//! * [`AtomTable`] — string interning, so a triple is three machine words
//!   ([`Triple`] is `Copy`) and repeated resource/property names cost one
//!   allocation total;
//! * [`TripleStore`] — a set of triples held in three sorted permutation
//!   indexes (SPO, POS, OSP) so a selection query with *any* combination
//!   of fixed fields is a single membership probe, prefix range scan, or
//!   full scan — the [`plan`] module's selection table, exposed through
//!   [`TripleStore::explain`];
//! * [`TriplePattern`] selection queries and [`TripleStore::view`]
//!   reachability views;
//! * XML persistence ([`TripleStore::to_xml`] / [`TripleStore::from_xml`])
//!   using `xmlkit`;
//! * a [`Journal`] of changes with undo, so DMIs can implement atomic
//!   multi-triple operations;
//! * [`Snapshot`]s — frozen atom-level views of the store for concurrent
//!   readers, sharing the strings of its atom table;
//! * [`ConjQuery`] conjunctive joins, run through the [`Runs`] trait on
//!   the store and on snapshots alike;
//! * [`naive::NaiveStore`] — the unindexed scan baseline used by the E9
//!   ablation benchmark.
//!
//! # Example
//!
//! ```
//! use trim::TripleStore;
//!
//! let mut store = TripleStore::new();
//! let b1 = store.fresh_resource("Bundle");
//! let name = store.atom("bundleName");
//! let label = store.literal_value("John Smith");
//! store.insert(b1, name, label);
//!
//! // Selection query: fix the property field.
//! let pattern = TripleStore::pattern().with_property(name);
//! let hits = store.select(&pattern);
//! assert_eq!(hits.len(), 1);
//! assert_eq!(store.value_str(hits[0].object), Some("John Smith"));
//! ```

pub mod atom;
pub mod conj;
pub mod error;
pub mod journal;
pub mod naive;
pub mod persist;
pub mod plan;
pub mod runs;
pub mod snapshot;
pub mod store;
pub mod view;
pub mod wal;

pub use atom::{Atom, AtomTable};
pub use conj::{naive_join, AtomTerm, ConjError, ConjPattern, ConjPlan, ConjQuery, ValueTerm, Var};
pub use error::TrimError;
pub use journal::{Change, Journal, Revision};
pub use naive::{NaiveStore, NaiveTriple};
pub use plan::{Access, IndexKind, PatternShape, Plan};
pub use runs::Runs;
pub use snapshot::{PublishPath, SnapValue, Snapshot, SnapshotPublisher};
pub use store::{StoreStats, Triple, TriplePattern, TripleStore, Value};
pub use wal::{verify_frame_payload, CommitOutcome, FrameSummary, LogReport, StoreLog};
