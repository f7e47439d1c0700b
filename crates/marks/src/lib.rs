//! `marks` — mark management for superimposed information.
//!
//! "A fundamental objective of digital superimposed information is
//! maintaining a link to the base-layer information. The **Mark Manager**
//! is the framework for creating and managing these links – called
//! *marks*." (paper §4.2)
//!
//! The crate reproduces the paper's mark architecture (Figure 7) exactly:
//!
//! * [`Mark`] — a mark id plus a typed base-layer address
//!   ([`MarkAddress`], one variant per base type, mirroring the
//!   subclass-of-`Mark`-per-type design of Figure 3);
//! * [`MarkModule`] — the per-base-application driver that *creates* marks
//!   from the application's current selection and *resolves* marks by
//!   driving the application back to the marked element;
//! * [`AppModule`] — a generic adapter turning any
//!   [`basedocs::BaseApplication`] into a mark module, in either
//!   *in-context* style (navigate the real application and show the
//!   element highlighted in place) or *in-place* style (extract the
//!   content without disturbing the application) — the two resolution
//!   styles the paper contrasts with COM Monikers, where "one manager for
//!   Excel can display Excel Marks in context and another act as an
//!   in-place viewer";
//! * [`MarkManager`] — the registry: stores marks generically, routes
//!   creation/resolution to the right module, audits for dangling marks,
//!   and persists the mark store to XML.
//!
//! Everything above the mark layer sees only opaque mark ids: "From the
//! superimposed application's viewpoint, a base information element is
//! addressed by a mark, regardless of its type."

pub mod error;
pub mod flaky;
pub mod manager;
pub mod mark;
pub mod module;
pub mod resilience;

pub use error::MarkError;
pub use flaky::{Fault, FaultProfile, FlakyControl, FlakyModule};
pub use manager::{MarkAudit, MarkCheckpoint, MarkManager, MarkStats, RefreshReport};
pub use mark::{Mark, MarkAddress, MarkId, WrapAddress};
pub use module::{AppModule, MarkModule, Resolution, ResolutionStyle};
pub use resilience::{
    Attempt, Breaker, BreakerConfig, BreakerState, Clock, MockClock, RebindOutcome,
    ResilientResolution, ResilientResolver, ResolutionOutcome, RetryPolicy, SystemClock,
};
