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
}

/// An append-only log of [`Change`]s with a current [`Revision`].
///
/// The journal retains full history from the store's creation (or last
/// `clear`); `base` tracks how many leading entries have been truncated
/// so `undo` can refuse to cross a truncation point.
#[derive(Debug, Default)]
pub struct Journal {
    changes: Vec<Change>,
    /// Revision number of `changes[0]` (0 unless truncated).
    base: u64,
    /// Low-water mark: the lowest revision the store has been rewound to
    /// (via [`Journal::take_since`]) since the last
    /// [`Journal::reset_low_water`] or [`Journal::truncate`]. A durability
    /// layer that remembers "everything up to revision R is persisted"
    /// checks this to detect an undo that crossed R — in that case the
    /// entries after R in the journal are no longer the delta between the
    /// persisted state and the current one.
    low: u64,
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
    /// the store undoes them in reverse.
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
        self.low = self.low.min(rev.0);
        Ok(self.changes.split_off(keep))
    }

    /// Drop history up to the current revision, freeing memory. Undo can
    /// no longer cross this point.
    pub fn truncate(&mut self) {
        self.base += self.changes.len() as u64;
        self.changes.clear();
        // Rewinding below the truncation point is now impossible.
        self.low = self.base;
    }

    /// The oldest revision retained history can reach (the truncation
    /// point).
    pub fn earliest(&self) -> Revision {
        Revision(self.base)
    }

    /// The lowest revision rewound to since the last
    /// [`Journal::reset_low_water`] (or [`Journal::truncate`]). See the
    /// field documentation for the durability contract.
    pub fn low_water(&self) -> Revision {
        Revision(self.low)
    }

    /// Declare the current revision a durability boundary: raise the
    /// low-water mark to it so a later rewind below this point is
    /// detectable.
    pub fn reset_low_water(&mut self) {
        self.low = self.base + self.changes.len() as u64;
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
    fn low_water_tracks_rewinds_across_the_boundary() {
        let mut j = Journal::new();
        j.record(Change::Insert(t(1)));
        j.record(Change::Insert(t(2)));
        j.reset_low_water();
        let boundary = j.revision();
        assert_eq!(j.low_water(), boundary);
        // Rewinding to (not below) the boundary leaves the mark alone.
        j.record(Change::Insert(t(3)));
        j.take_since(boundary).unwrap();
        assert_eq!(j.low_water(), boundary);
        // Rewinding below it is flagged until the next reset.
        j.take_since(Revision::start()).unwrap();
        assert!(j.low_water() < boundary);
        j.reset_low_water();
        assert_eq!(j.low_water(), j.revision());
    }

    #[test]
    fn truncate_raises_the_low_water_mark() {
        let mut j = Journal::new();
        j.record(Change::Insert(t(1)));
        j.truncate();
        assert_eq!(j.low_water(), j.revision());
        assert_eq!(j.earliest(), j.revision());
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
