//! `slimpad` — the SLIMPad superimposed application.
//!
//! "The SLIM scratchPad (SLIMPad) allows users to create structured,
//! digital, bundles. … SLIMPad provides this same \[scratchpad\] look and
//! feel, in a computerized tool." (paper §3)
//!
//! The crate assembles the whole stack: the Bundle-Scrap data through the
//! hand-written DMI (`slimstore`), marks through the Mark Manager
//! (`marks`), and live base applications (`basedocs`). On top it adds
//! what the application layer owns:
//!
//! * [`PadSession`] — the running application: create bundles and scraps,
//!   place marks from base-application selections onto the pad
//!   (the digital "sticky-note … with a digital 'wire'"), activate
//!   scraps (double-click → mark resolution), annotate and link scraps,
//!   save/load the pad *with* its mark store;
//! * [`layout`] — free 2-D placement, hit testing, drop-into-bundle
//!   detection, and *implicit-structure* (gridlet) detection: "each
//!   number in the 'Electrolyte' bundle has a specific meaning …, which
//!   can be deduced from their arrangement relative to each other. The
//!   SLIMPad data model does not impose structure – but allows the user
//!   to create structure";
//! * [`render`] — the ASCII "screenshot": a deterministic textual
//!   rendering of a pad (bundles as boxes, scraps as labelled dots) used
//!   by the examples to regenerate paper Figure 4;
//! * [`viewing`] — the three viewing styles of paper Figure 6
//!   (simultaneous, enhanced base-layer, independent);
//! * [`templates`] — bundle templates (§6 extension): capture a bundle
//!   subtree's structure and re-instantiate it for a new patient;
//! * [`commands`] — a scriptable command language over pad sessions
//!   (with undo), standing in for the original's direct-manipulation UI;
//! * [`diff`] — pad diffing: what changed between two versions of a pad,
//!   keyed on mark identity — the handoff question.

pub mod commands;
pub mod diff;
pub mod layout;
pub mod pad;
pub mod render;
pub mod templates;
pub mod viewing;

pub use commands::{Command, CommandError};
pub use diff::{diff_pads, PadChange};
pub use layout::{GridDetection, Point, Rect};
pub use pad::{PadError, PadSession};
pub use templates::BundleTemplate;
pub use viewing::ViewingStyle;
