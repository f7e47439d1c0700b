//! The service's op alphabet and acknowledgement type.
//!
//! Ops travel from session threads to the writer thread, so they are
//! plain `Send` data: strings, not atoms (only the writer interns new
//! atoms). The chaos variants exist so harnesses can inject faults
//! *through the same front door* real traffic uses.

use std::sync::{Arc, Condvar, Mutex};

use trim::{SnapValue, Triple, TripleStore, Value};

use crate::error::ServeError;

/// One mutation submitted to the writer. All payloads are resolved
/// strings; the writer interns them on application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeOp {
    /// Insert a triple (idempotent: inserting an existing triple is a
    /// successful no-op).
    Insert { subject: String, property: String, object: SnapValue },
    /// Remove a triple (idempotent: removing an absent triple is a
    /// successful no-op).
    Remove { subject: String, property: String, object: SnapValue },
    /// Replace all `(subject, property, *)` triples with exactly one.
    SetUnique { subject: String, property: String, object: SnapValue },
    /// Chaos: panic inside the writer's apply path. Exercises the
    /// supervisor's `catch_unwind` + rollback containment.
    ChaosPanic {
        /// Panic payload, echoed back in [`crate::ServeError::Panicked`].
        detail: String,
    },
    /// Chaos: park the writer on a [`Gate`] until the harness opens it.
    /// Exercises backpressure (the queue fills behind the parked
    /// writer) and deadline expiry (queued ops age while it sleeps).
    ChaosPark(Gate),
}

impl ServeOp {
    /// Convenience constructor for a literal-object insert.
    pub fn insert(subject: &str, property: &str, literal: &str) -> Self {
        ServeOp::Insert {
            subject: subject.to_string(),
            property: property.to_string(),
            object: SnapValue::Literal(literal.to_string()),
        }
    }

    /// Convenience constructor for a resource-object insert.
    pub fn link(subject: &str, property: &str, object: &str) -> Self {
        ServeOp::Insert {
            subject: subject.to_string(),
            property: property.to_string(),
            object: SnapValue::Resource(object.to_string()),
        }
    }

    /// Convenience constructor for a literal-object remove.
    pub fn remove(subject: &str, property: &str, literal: &str) -> Self {
        ServeOp::Remove {
            subject: subject.to_string(),
            property: property.to_string(),
            object: SnapValue::Literal(literal.to_string()),
        }
    }

    /// Convenience constructor for a literal-object set-unique.
    pub fn set_unique(subject: &str, property: &str, literal: &str) -> Self {
        ServeOp::SetUnique {
            subject: subject.to_string(),
            property: property.to_string(),
            object: SnapValue::Literal(literal.to_string()),
        }
    }

    /// Apply this op to a store — the *serialized reference semantics*.
    ///
    /// The writer thread uses exactly this to apply each op, and the
    /// chaos harness uses it to replay acknowledged ops (in ascending
    /// [`Ack::order`]) into a fresh single-session model store. The two
    /// agreeing is the differential invariant.
    ///
    /// [`ServeOp::ChaosPanic`] panics (that is its whole point — the
    /// writer contains it; a model replay never sees one because a
    /// panicking op is never acknowledged). [`ServeOp::ChaosPark`] is a
    /// store no-op: the writer's machine parks on the gate before
    /// calling this.
    pub fn apply_to(&self, store: &mut TripleStore) {
        match self {
            ServeOp::Insert { subject, property, object } => {
                let s = store.atom(subject);
                let p = store.atom(property);
                let o = value_of(store, object);
                store.insert(s, p, o);
            }
            ServeOp::Remove { subject, property, object } => {
                // A remove of something never interned is a no-op by
                // definition — don't intern atoms just to miss.
                let (Some(s), Some(p), Some(o)) = (
                    store.find_atom(subject),
                    store.find_atom(property),
                    store.find_atom(object.text()),
                ) else {
                    return;
                };
                let object = match object {
                    SnapValue::Literal(_) => Value::Literal(o),
                    SnapValue::Resource(_) => Value::Resource(o),
                };
                store.remove(Triple { subject: s, property: p, object });
            }
            ServeOp::SetUnique { subject, property, object } => {
                let s = store.atom(subject);
                let p = store.atom(property);
                let o = value_of(store, object);
                store.set_unique(s, p, o);
            }
            ServeOp::ChaosPanic { detail } => {
                std::panic::panic_any(detail.clone());
            }
            ServeOp::ChaosPark(_) => {}
        }
    }
}

fn value_of(store: &mut TripleStore, v: &SnapValue) -> Value {
    match v {
        SnapValue::Literal(s) => store.literal_value(s),
        SnapValue::Resource(s) => {
            let a = store.atom(s);
            TripleStore::resource_value(a)
        }
    }
}

/// Acknowledgement of a durably committed op.
///
/// Sent only after the op's batch was group-committed through the WAL
/// (or proved a no-op against already-durable state). `order` is the
/// writer's serialization order: replaying every acknowledged op of a
/// run in ascending `order` into a fresh single-session machine yields
/// exactly the service's final state — the invariant the chaos harness
/// checks differentially.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack<O = ()> {
    /// Writer-assigned position in the global serialization.
    pub order: u64,
    /// WAL frame that made the batch durable; `None` when the batch
    /// turned out to be a no-op (nothing needed writing).
    pub durable_seq: Option<u64>,
    /// What the op did (`()` for triple ops).
    pub outcome: O,
}

/// A write submission's verdict mailbox.
#[derive(Debug)]
pub(crate) struct Slot<A> {
    result: Mutex<Option<Result<A, ServeError>>>,
    cv: Condvar,
}

impl<A> Default for Slot<A> {
    fn default() -> Self {
        Slot { result: Mutex::new(None), cv: Condvar::new() }
    }
}

impl<A> Slot<A> {
    pub(crate) fn resolve(&self, verdict: Result<A, ServeError>) {
        let mut slot = lock(&self.result);
        *slot = Some(verdict);
        self.cv.notify_all();
    }
}

/// A claim on a submitted op's eventual verdict. [`Ticket::wait`]
/// blocks until the writer acknowledges or refuses the op.
#[derive(Debug)]
pub struct Ticket<A = Ack> {
    slot: Arc<Slot<A>>,
}

impl<A> Ticket<A> {
    pub(crate) fn new(slot: Arc<Slot<A>>) -> Self {
        Ticket { slot }
    }

    /// Block until the op's verdict arrives.
    pub fn wait(self) -> Result<A, ServeError> {
        let mut slot = lock(&self.slot.result);
        loop {
            if let Some(verdict) = slot.take() {
                return verdict;
            }
            slot = wait(&self.slot.cv, slot);
        }
    }
}

/// A rendezvous used by [`ServeOp::ChaosPark`]: the writer parks on it
/// and the harness releases it. Two-phase so tests are deterministic —
/// `wait_arrived` guarantees the writer is actually parked before the
/// harness proceeds to fill the queue or advance the clock.
#[derive(Debug, Clone, Default)]
pub struct Gate {
    inner: Arc<GateInner>,
}

#[derive(Debug, Default)]
struct GateInner {
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct GateState {
    open: bool,
    arrived: bool,
}

impl PartialEq for Gate {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Eq for Gate {}

impl Gate {
    /// A closed gate.
    pub fn new() -> Self {
        Gate::default()
    }

    /// Release whoever is (or will be) parked on the gate.
    pub fn open(&self) {
        let mut st = lock(&self.inner.state);
        st.open = true;
        self.inner.cv.notify_all();
    }

    /// Block until the writer has parked on this gate.
    pub fn wait_arrived(&self) {
        let mut st = lock(&self.inner.state);
        while !st.arrived {
            st = wait(&self.inner.cv, st);
        }
    }

    /// Writer side: announce arrival, then block until opened.
    pub(crate) fn pass(&self) {
        let mut st = lock(&self.inner.state);
        st.arrived = true;
        self.inner.cv.notify_all();
        while !st.open {
            st = wait(&self.inner.cv, st);
        }
    }
}

/// Poison-tolerant lock: a panic elsewhere must not cascade — the
/// supervisor's whole job is to outlive panics.
pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Poison-tolerant condvar wait.
pub(crate) fn wait<'a, T>(
    cv: &Condvar,
    guard: std::sync::MutexGuard<'a, T>,
) -> std::sync::MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_two_phase_rendezvous() {
        let gate = Gate::new();
        let theirs = gate.clone();
        let handle = std::thread::spawn(move || {
            theirs.pass();
            7
        });
        gate.wait_arrived();
        gate.open();
        assert_eq!(handle.join().unwrap(), 7);
    }

    #[test]
    fn ops_are_send() {
        fn takes_send<T: Send + 'static>(_: T) {}
        takes_send(ServeOp::insert("s", "p", "v"));
        takes_send(ServeOp::ChaosPark(Gate::new()));
    }
}
