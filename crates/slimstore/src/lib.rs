//! `slimstore` — the SLIM Store: superimposed-information management.
//!
//! This crate is the middle box of paper Figure 9:
//!
//! ```text
//! Superimposed Application
//!         │  application data (read-only objects) + DMI operations
//! ┌───────▼────────────────────────────────────────────┐
//! │  Application-Specific Data Manipulation Interface  │
//! │        │ creates and manages                       │
//! │  ┌─────▼──────┐      ┌──────────────────────────┐  │
//! │  │ TripleMgr  │─────▶│ Generic Repr. (Triples)  │  │
//! │  └────────────┘      └──────────────────────────┘  │
//! └────────────────────────────────────────────────────┘
//! ```
//!
//! "Although superimposed applications can use the generic representation
//! directly … that would significantly complicate the development of a
//! superimposed application. We describe an approach that lets an
//! application manipulate data in its desired format, while storing the
//! data using our generic representation." (paper §4.4)
//!
//! There is one DMI, with a typed face for SLIMPad:
//!
//! * [`GenericDmi`] — the paper's stated direction, implemented: "We are
//!   working towards automatically generating specialized DMIs from data
//!   models." Given any [`metamodel::ModelDef`], it derives a DMI at
//!   runtime — create/set/get/delete operations validated against the
//!   model's constructs, connectors, and cardinalities — so *every* model
//!   the metamodel can describe gets a safe manipulation interface for
//!   free.
//! * [`SlimPadDmi`] — the paper's Figure 10 operation surface
//!   (`Create_SlimPad`, `Create_Bundle`, `Update_padName`,
//!   `Delete_Bundle`, `save`, `load`, …, in Rust casing) with typed
//!   handles. The paper "generated the application data structures and
//!   DMI manually, based on the application model"; here it is a façade
//!   over the `GenericDmi` for [`metamodel::builtin::bundle_scrap`], so
//!   the model is the one place the Bundle-Scrap rules live, and the
//!   façade adds only the rules a model cannot state (single parents,
//!   acyclic nesting, recursive deletes).
//!
//! [`SlimPadDmi`]'s reads live in one [`PadReader`], generic over
//! [`trim::Runs`], so the same code reads the live store and a
//! published [`trim::Snapshot`].
//!
//! The DMI guarantees the paper's consistency property: "Only the
//! interfaces are presented to SLIMPad, which allows the DMI to guarantee
//! consistency between the triple representation and the application
//! data." Failed multi-triple operations roll back through TRIM's change
//! journal.

pub mod error;
pub mod generic;
pub mod query;
pub mod reader;
pub mod slimpad_dmi;

pub use error::DmiError;
pub use generic::GenericDmi;
pub use query::{InstanceQuery, ValuePred};
pub use reader::{PadReader, Record, ScrapRecord};
pub use slimpad_dmi::{
    BundleData, BundleHandle, MarkHandleData, MarkHandleHandle, PadData, PadHandle, ScrapData,
    ScrapHandle, SlimPadDmi,
};
