//! The change journal: an append-only log of store mutations.
//!
//! The journal gives DMIs atomic multi-triple operations: take the
//! revision, perform a sequence of inserts/removes, and on failure
//! [`crate::TripleStore::undo_to`] the saved revision. It also powers
//! audit displays ("what changed since the pad was loaded?").

use crate::store::Triple;
use crate::TrimError;

/// A monotonically increasing change counter. Revision `n` means "after
/// the first `n` changes".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Revision(u64);

impl Revision {
    /// The revision of an empty, untouched store.
    pub fn start() -> Self {
        Revision(0)
    }

    /// The raw change count.
    pub fn count(self) -> u64 {
        self.0
    }
}

/// One recorded mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Change {
    Insert(Triple),
    Remove(Triple),
}

impl Change {
    /// The triple this change touched.
    pub fn triple(&self) -> Triple {
        match self {
            Change::Insert(t) | Change::Remove(t) => *t,
        }
    }

    /// The change that takes this one back.
    pub fn inverse(self) -> Change {
        match self {
            Change::Insert(t) => Change::Remove(t),
            Change::Remove(t) => Change::Insert(t),
        }
    }
}

/// An append-only log of [`Change`]s with a current [`Revision`].
///
/// The journal retains full history from the store's creation (or last
/// `clear`); `base` tracks how many leading entries have been truncated
/// so `undo` can refuse to cross a truncation point.
///
/// It also knows where the *durability boundary* is — the state a log
/// last persisted ([`Journal::mark_durable`]) — so the net change from
/// that state to the current one is always derivable
/// ([`Journal::durable_delta`]), even after an undo crossed it.
#[derive(Debug, Default)]
pub struct Journal {
    changes: Vec<Change>,
    /// Revision number of `changes[0]` (0 unless truncated).
    base: u64,
    /// The durability boundary as an index into `changes`: the durable
    /// state followed by `compensation` is the state after
    /// `changes[..durable]`. Revision numbers repeat after an undo, so
    /// the boundary is kept here, not as a revision.
    durable: usize,
    /// The compensation prefix: the inverses of the durable entries an
    /// undo took back since the last [`Journal::mark_durable`], newest
    /// first.
    compensation: Vec<Change>,
}

impl Journal {
    /// An empty journal at revision zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a change, advancing the revision.
    pub fn record(&mut self, change: Change) {
        self.changes.push(change);
    }

    /// Pre-grow the log for a known-size batch so `insert_all` /
    /// `remove_all` pay for at most one reallocation.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.changes.reserve(additional);
    }

    /// The current revision.
    pub fn revision(&self) -> Revision {
        Revision(self.base + self.changes.len() as u64)
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// True if no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Entries recorded after `rev`, oldest first (read-only view).
    pub fn since(&self, rev: Revision) -> &[Change] {
        let skip = rev.0.saturating_sub(self.base) as usize;
        self.changes.get(skip.min(self.changes.len())..).unwrap_or(&[])
    }

    /// Remove and return all entries recorded after `rev` (oldest first);
    /// the store undoes them in reverse. Durable entries among them are
    /// kept as their inverses in the compensation prefix.
    ///
    /// # Errors
    ///
    /// [`TrimError::UndoPastStart`] if `rev` predates retained history.
    pub fn take_since(&mut self, rev: Revision) -> Result<Vec<Change>, TrimError> {
        if rev.0 < self.base {
            return Err(TrimError::UndoPastStart {
                requested: (self.base - rev.0) as usize + self.changes.len(),
                available: self.changes.len(),
            });
        }
        let keep = (rev.0 - self.base) as usize;
        if keep > self.changes.len() {
            // Future revision: nothing to take.
            return Ok(Vec::new());
        }
        let taken = self.changes.split_off(keep);
        if keep < self.durable {
            let undone = &taken[..self.durable - keep];
            self.compensation.extend(undone.iter().rev().map(|c| c.inverse()));
            self.durable = keep;
        }
        Ok(taken)
    }

    /// Drop history up to the current revision, freeing memory. Undo can
    /// no longer cross this point, and the current state becomes the
    /// durability boundary.
    pub fn truncate(&mut self) {
        self.base += self.changes.len() as u64;
        self.changes.clear();
        self.mark_durable();
    }

    /// Declare the current state durable: a log has persisted
    /// [`Journal::durable_delta`].
    pub fn mark_durable(&mut self) {
        self.durable = self.changes.len();
        self.compensation.clear();
    }

    /// The inverses of the durable changes an undo took back since the
    /// last [`Journal::mark_durable`], newest first.
    pub fn compensation(&self) -> &[Change] {
        &self.compensation
    }

    /// The net change from the durable state to the current one, in
    /// order: the compensation prefix, then every entry recorded since
    /// the boundary.
    pub fn durable_delta(&self) -> impl Iterator<Item = &Change> + '_ {
        self.compensation.iter().chain(&self.changes[self.durable..])
    }

    /// Rewind the history to the durable state: remove and return the
    /// entries recorded since the boundary (oldest first; the store
    /// undoes them in reverse), then put back the durable entries the
    /// compensation prefix stands for and return them too (oldest
    /// first; the store re-applies them in order).
    pub(crate) fn rewind_to_durable(&mut self) -> (Vec<Change>, Vec<Change>) {
        let undone = self.changes.split_off(self.durable);
        let redone: Vec<Change> = self.compensation.drain(..).rev().map(|c| c.inverse()).collect();
        self.changes.extend_from_slice(&redone);
        self.durable = self.changes.len();
        (undone, redone)
    }

    /// Iterate over retained entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Change> {
        self.changes.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Triple, Value};
    use crate::Atom;

    fn t(n: u32) -> Triple {
        // Fabricate atoms by interning into a throwaway table with n
        // entries; atoms are just indices so this is deterministic.
        let mut table = crate::AtomTable::new();
        let mut last = table.intern("0");
        for i in 0..=n {
            last = table.intern(&i.to_string());
        }
        Triple { subject: last, property: last, object: Value::Literal(last) }
    }

    fn atom_triple(a: Atom) -> Triple {
        Triple { subject: a, property: a, object: Value::Literal(a) }
    }

    #[test]
    fn revision_counts_changes() {
        let mut j = Journal::new();
        assert_eq!(j.revision(), Revision::start());
        j.record(Change::Insert(t(1)));
        j.record(Change::Remove(t(1)));
        assert_eq!(j.revision().count(), 2);
    }

    #[test]
    fn since_returns_suffix() {
        let mut j = Journal::new();
        j.record(Change::Insert(t(1)));
        let rev = j.revision();
        j.record(Change::Insert(t(2)));
        j.record(Change::Remove(t(2)));
        assert_eq!(j.since(rev).len(), 2);
        assert_eq!(j.since(Revision::start()).len(), 3);
        assert_eq!(j.since(j.revision()).len(), 0);
    }

    #[test]
    fn take_since_splits_history() {
        let mut j = Journal::new();
        j.record(Change::Insert(t(1)));
        let rev = j.revision();
        j.record(Change::Insert(t(2)));
        let taken = j.take_since(rev).unwrap();
        assert_eq!(taken.len(), 1);
        assert_eq!(j.len(), 1);
        assert_eq!(j.revision(), rev);
    }

    #[test]
    fn truncate_blocks_undo_past_it() {
        let mut j = Journal::new();
        j.record(Change::Insert(t(1)));
        let old = Revision::start();
        j.truncate();
        assert!(j.is_empty());
        assert_eq!(j.revision().count(), 1);
        assert!(matches!(j.take_since(old), Err(TrimError::UndoPastStart { .. })));
    }

    #[test]
    fn take_since_future_revision_is_empty() {
        let mut j = Journal::new();
        j.record(Change::Insert(t(1)));
        let future = Revision(99);
        assert!(j.take_since(future).unwrap().is_empty());
        assert_eq!(j.len(), 1, "future revision must not disturb history");
    }

    #[test]
    fn a_rewind_below_the_boundary_keeps_a_compensation_prefix() {
        let mut j = Journal::new();
        j.record(Change::Insert(t(1)));
        j.record(Change::Insert(t(2)));
        j.mark_durable();
        let boundary = j.revision();
        assert_eq!(j.durable_delta().count(), 0);
        // Rewinding to (not below) the boundary owes the log nothing.
        j.record(Change::Insert(t(3)));
        j.take_since(boundary).unwrap();
        assert!(j.compensation().is_empty());
        assert_eq!(j.durable_delta().count(), 0);
        // Rewinding below it keeps the undone durable entries' inverses,
        // newest first, ahead of whatever is recorded next.
        j.take_since(Revision::start()).unwrap();
        assert_eq!(j.compensation(), [Change::Remove(t(2)), Change::Remove(t(1))]);
        j.record(Change::Insert(t(4)));
        let delta: Vec<Change> = j.durable_delta().copied().collect();
        assert_eq!(delta, [Change::Remove(t(2)), Change::Remove(t(1)), Change::Insert(t(4))]);
        // A second rewind below the (moved) boundary extends the prefix.
        j.take_since(Revision::start()).unwrap();
        assert_eq!(j.durable_delta().count(), 2);
        j.mark_durable();
        assert!(j.compensation().is_empty());
        assert_eq!(j.durable_delta().count(), 0);
    }

    #[test]
    fn rewind_to_durable_puts_back_the_compensated_entries() {
        let mut j = Journal::new();
        j.record(Change::Insert(t(1)));
        j.record(Change::Remove(t(2)));
        j.mark_durable();
        let boundary = j.revision();
        j.take_since(Revision(1)).unwrap();
        j.record(Change::Insert(t(3)));
        let (undone, redone) = j.rewind_to_durable();
        assert_eq!(undone, [Change::Insert(t(3))]);
        assert_eq!(redone, [Change::Remove(t(2))]);
        assert_eq!(j.revision(), boundary);
        let history: Vec<Change> = j.iter().copied().collect();
        assert_eq!(history, [Change::Insert(t(1)), Change::Remove(t(2))]);
        assert_eq!(j.durable_delta().count(), 0);
    }

    #[test]
    fn truncate_makes_the_current_state_durable() {
        let mut j = Journal::new();
        j.record(Change::Insert(t(1)));
        j.mark_durable();
        j.take_since(Revision::start()).unwrap();
        j.record(Change::Insert(t(2)));
        assert_eq!(j.durable_delta().count(), 2);
        j.truncate();
        assert!(j.compensation().is_empty());
        assert_eq!(j.durable_delta().count(), 0);
        assert!(matches!(j.take_since(Revision::start()), Err(TrimError::UndoPastStart { .. })));
    }

    #[test]
    fn change_triple_accessor() {
        let mut table = crate::AtomTable::new();
        let a = table.intern("x");
        let tr = atom_triple(a);
        assert_eq!(Change::Insert(tr).triple(), tr);
        assert_eq!(Change::Remove(tr).triple(), tr);
    }
}
