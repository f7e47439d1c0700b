//! String interning: every resource name, property name, and literal value
//! in a [`crate::TripleStore`] is interned once and referred to by a
//! 4-byte [`Atom`].
//!
//! Interning is what keeps the "lightweight" design principle honest: the
//! same property name (`bundleName`, `rdf:type`, …) appears in thousands
//! of triples but is stored exactly once, and triple comparisons are
//! integer comparisons.
//!
//! Each string is allocated once, as an `Arc<str>` that the atom → string
//! column and the string → atom map share. A snapshot's dictionary
//! ([`crate::Snapshot`]) shares the same allocations instead of copying
//! the text.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An interned string. Atoms are only meaningful relative to the
/// [`AtomTable`] that produced them; they are never recycled, so an atom
/// stays valid for the lifetime of its table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom(u32);

impl Atom {
    /// The smallest representable atom. Only used as an inclusive
    /// range-scan sentinel by the permutation indexes; may or may not be
    /// interned in any given table.
    pub(crate) const MIN: Atom = Atom(0);

    /// The largest representable atom. Also an inclusive sentinel, so
    /// scans stay correct even at intern-table capacity.
    pub(crate) const MAX: Atom = Atom(u32::MAX);

    /// The raw index, useful for dense side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The atom with raw index `i`, the inverse of [`Atom::index`].
    pub(crate) fn from_index(i: usize) -> Atom {
        Atom(u32::try_from(i).expect("atom index fits in u32"))
    }

    /// The next atom in index order, or `None` at capacity. Used by the
    /// conjunctive engine's leapfrog cursors to seek strictly past a
    /// just-emitted value.
    pub(crate) fn succ(self) -> Option<Atom> {
        self.0.checked_add(1).map(Atom)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "atom#{}", self.0)
    }
}

/// An append-only intern table mapping strings to [`Atom`]s and back.
#[derive(Debug, Default, Clone)]
pub struct AtomTable {
    strings: Vec<Arc<str>>,
    lookup: HashMap<Arc<str>, Atom>,
}

impl AtomTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s` if there is capacity, returning `None` when the table
    /// already holds `u32::MAX` distinct strings. The persistence
    /// loaders use this so hostile or runaway input surfaces as a typed
    /// error instead of a panic.
    pub fn try_intern(&mut self, s: &str) -> Option<Atom> {
        if let Some(&a) = self.lookup.get(s) {
            return Some(a);
        }
        self.push(s.into())
    }

    /// Append a string not yet in the table, sharing its allocation.
    pub(crate) fn push(&mut self, s: Arc<str>) -> Option<Atom> {
        let a = Atom(u32::try_from(self.strings.len()).ok()?);
        self.strings.push(Arc::clone(&s));
        self.lookup.insert(s, a);
        Some(a)
    }

    /// Intern `s`, returning its atom. Idempotent: the same string always
    /// yields the same atom.
    ///
    /// # Panics
    ///
    /// Panics if the table already holds `u32::MAX` distinct strings —
    /// memory is exhausted long before this in practice. Code handling
    /// untrusted input should prefer [`AtomTable::try_intern`].
    pub fn intern(&mut self, s: &str) -> Atom {
        match self.try_intern(s) {
            Some(a) => a,
            None => panic!("atom table capacity exhausted (u32::MAX distinct strings)"),
        }
    }

    /// Look up an already-interned string without interning it.
    pub fn get(&self, s: &str) -> Option<Atom> {
        self.lookup.get(s).copied()
    }

    /// The string for an atom.
    ///
    /// # Panics
    ///
    /// Panics if `a` came from a different table (an internal logic error,
    /// not a data error).
    pub fn resolve(&self, a: Atom) -> &str {
        &self.strings[a.index()]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Total bytes of interned string data (excluding table overhead).
    /// Used by the E1 space-overhead experiment.
    pub fn string_bytes(&self) -> usize {
        self.strings.iter().map(|s| s.len()).sum()
    }

    /// Iterate over `(atom, string)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Atom, &str)> {
        self.strings.iter().enumerate().map(|(i, s)| (Atom(i as u32), s.as_ref()))
    }

    /// The shared strings of the atoms from index `start` on.
    pub(crate) fn strings_from(&self, start: usize) -> &[Arc<str>] {
        self.strings.get(start..).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut t = AtomTable::new();
        let a = t.intern("bundleName");
        let b = t.intern("bundleName");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_strings_get_distinct_atoms() {
        let mut t = AtomTable::new();
        let a = t.intern("a");
        let b = t.intern("b");
        assert_ne!(a, b);
        assert_eq!(t.resolve(a), "a");
        assert_eq!(t.resolve(b), "b");
    }

    #[test]
    fn get_does_not_intern() {
        let mut t = AtomTable::new();
        assert_eq!(t.get("x"), None);
        let a = t.intern("x");
        assert_eq!(t.get("x"), Some(a));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn empty_string_is_a_valid_atom() {
        let mut t = AtomTable::new();
        let a = t.intern("");
        assert_eq!(t.resolve(a), "");
    }

    #[test]
    fn string_bytes_counts_content() {
        let mut t = AtomTable::new();
        t.intern("abc");
        t.intern("de");
        t.intern("abc"); // duplicate: not recounted
        assert_eq!(t.string_bytes(), 5);
    }

    #[test]
    fn each_string_is_allocated_once() {
        let mut t = AtomTable::new();
        t.intern("bundleName");
        let shared = &t.strings_from(0)[0];
        assert_eq!(Arc::strong_count(shared), 2, "column and map share one allocation");
    }

    #[test]
    fn iter_yields_in_interning_order() {
        let mut t = AtomTable::new();
        let a = t.intern("first");
        let b = t.intern("second");
        let pairs: Vec<_> = t.iter().collect();
        assert_eq!(pairs, vec![(a, "first"), (b, "second")]);
    }
}
