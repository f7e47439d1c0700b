//! Supervised concurrent session front-end over the SLIM stack.
//!
//! Every layer below this crate is single-owner: one thread owns the
//! [`trim::TripleStore`], its [`trim::StoreLog`], and the VFS handle.
//! `slimserve` keeps that invariant — one **writer thread** owns the
//! mutable state — and multiplexes many concurrent sessions on top of
//! it. The supervision is written once, as [`Supervisor`], generic over
//! a [`Machine`]; two machines ship:
//!
//! * [`LiveStore`] ([`Service`]): a logged triple store whose readers
//!   get immutable [`trim::Snapshot`]s (clones of the store's own
//!   layout, frozen columns plus a small delta, taken by
//!   [`trim::TripleStore::snapshot`]) and scan them, or join them with
//!   [`trim::ConjQuery::solve`], on their own thread.
//! * [`LivePad`] ([`PadService`]): the pad engine — marks, excerpts,
//!   bundles, undo — whose readers get a [`PadView`] of its triples and
//!   whose [`PadOp::Inspect`] is answered from that view on the
//!   submitting session's thread, never queueing behind writes.
//!
//! What the supervisor guarantees for both:
//!
//! * **Writes funnel through a bounded queue.** Sessions submit ops; the
//!   writer drains them in batches and group-commits each batch as a
//!   single WAL frame (one append, one sync). An acknowledgement
//!   ([`Ack`]) is sent only after the frame is durable and the new view
//!   is published, and carries the writer-assigned serialization order
//!   so a differential harness can replay acknowledged ops into a
//!   single-session model. A read-only op ([`Machine::read`]) skips the
//!   queue: it is answered from the published view and acked at the
//!   view's position.
//! * **Faults are contained.** Every op runs under `catch_unwind` with a
//!   checkpoint: a panicking or refused op is rolled back and refused
//!   with [`ServeError::Panicked`] or [`ServeError::Engine`] — the
//!   machine, the batch's other ops, and the writer all survive. A
//!   failed commit or rollback refuses the batch with
//!   [`ServeError::Io`] and repairs the machine to its last durable
//!   state. Ops carry deadlines stamped at submission
//!   ([`marks::resilience::Clock`]); an op dequeued past its deadline is
//!   refused with [`ServeError::Timeout`] and never applied. A full
//!   queue refuses admission with [`ServeError::Overloaded`] — load is
//!   shed loudly, never dropped silently. Sessions that repeatedly fault
//!   trip a per-session circuit breaker ([`marks::resilience::Breaker`])
//!   and are quarantined with [`ServeError::Quarantined`] until the
//!   cooldown elapses.
//! * **One ledger.** Every submission lands in exactly one
//!   [`ServeStats`] bucket; [`ServeStats::unaccounted`] is zero.
//!
//! Durability is the write-ahead-log contract: an acknowledged op is on
//! disk; a refused op never is. A crashed service reopens with
//! [`Service::open`] or [`PadService::open`] — snapshot + log replay —
//! and resumes serving.

pub mod digest;
pub mod error;
pub mod op;
pub mod pad;
pub mod service;

pub use error::{suggested_backoff_ms, ServeError};
pub use op::{Ack, Gate, ServeOp, Ticket};
pub use pad::{
    ward_doc, ward_factory, ward_mirror, ward_reopen, ExcerptSearch, LivePad, PadAck,
    PadCheckpoint, PadConfig, PadMachine, PadOp, PadOutcome, PadParts, PadPartsFactory,
    PadServeStats, PadService, PadSessionHandle, PadView, WARD_DOCS, WARD_PARAGRAPHS,
};
pub use service::{
    Durable, Ledger, LiveStore, Machine, Read, ServeConfig, ServeStats, Service, Session,
    SessionHandle, Supervisor,
};
