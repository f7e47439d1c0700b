//! The indexed triple store: insertion, removal, and selection queries.
//!
//! Storage is one layout (`crate::layout`) of three sorted permutations —
//! SPO, POS, OSP — each holding every triple, reordered so that any
//! combination of bound pattern fields is a contiguous prefix range of
//! exactly one permutation (see [`crate::plan`] for the selection table).
//! Each permutation is an `Arc`-shared frozen sorted column plus a small
//! `BTreeSet` delta of adds and dels, so a write costs O(log delta). Past
//! [`TripleStore::FOLD_LIMIT`] changed triples the store folds the delta
//! into a fresh base; a batch larger than the limit merges into the base
//! directly. A [`Snapshot`] is a clone of the layout, so taking one
//! copies only the delta. [`TripleStore::find_literals`] walks the
//! literal objects of the OSP permutation.

use crate::atom::{Atom, AtomTable};
use crate::journal::{Change, Journal, Revision};
use crate::layout::Layout;
use crate::plan::Plan;
use crate::runs::{OspKey, PosKey, Runs, SpoKey};
use crate::snapshot::{Names, Snapshot};

/// The object position of a triple: either another resource (forming the
/// graph edges reachability views follow) or a literal string.
///
/// The derived ordering (resources before literals, then by atom) is what
/// the permutation indexes sort by; `VALUE_MIN`/`VALUE_MAX` below are its
/// inclusive extremes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// A reference to a resource; traversed by views.
    Resource(Atom),
    /// An opaque literal; never traversed.
    Literal(Atom),
}

/// Inclusive lower bound over all [`Value`]s, for range-scan sentinels.
/// `pub(crate)` so the conjunctive engine can seed its leapfrog cursors.
pub(crate) const VALUE_MIN: Value = Value::Resource(Atom::MIN);
/// Inclusive upper bound over all [`Value`]s, for range-scan sentinels.
pub(crate) const VALUE_MAX: Value = Value::Literal(Atom::MAX);

impl Value {
    /// The underlying atom regardless of kind.
    pub fn atom(self) -> Atom {
        match self {
            Value::Resource(a) | Value::Literal(a) => a,
        }
    }

    /// True if this value is a resource reference.
    pub fn is_resource(self) -> bool {
        matches!(self, Value::Resource(_))
    }
}

/// One (resource, property, value) statement. `Copy` — three words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    /// The resource the statement is about.
    pub subject: Atom,
    /// The property name.
    pub property: Atom,
    /// The value: resource reference or literal.
    pub object: Value,
}

/// A selection query: any combination of the three fields may be fixed.
///
/// "Query is specified by selection, where one or more of the triple
/// fields is fixed, and the result is a set of triples" (paper §4.4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TriplePattern {
    pub subject: Option<Atom>,
    pub property: Option<Atom>,
    pub object: Option<Value>,
}

impl TriplePattern {
    /// Fix the subject field.
    pub fn with_subject(mut self, s: Atom) -> Self {
        self.subject = Some(s);
        self
    }

    /// Fix the property field.
    pub fn with_property(mut self, p: Atom) -> Self {
        self.property = Some(p);
        self
    }

    /// Fix the object field.
    pub fn with_object(mut self, o: Value) -> Self {
        self.object = Some(o);
        self
    }

    /// True if `t` satisfies every fixed field.
    pub fn matches(&self, t: &Triple) -> bool {
        self.subject.is_none_or(|s| s == t.subject)
            && self.property.is_none_or(|p| p == t.property)
            && self.object.is_none_or(|o| o == t.object)
    }

    /// True if no field is fixed (matches everything).
    pub fn is_unconstrained(&self) -> bool {
        self.subject.is_none() && self.property.is_none() && self.object.is_none()
    }

    /// The least and greatest triples the pattern admits: its fixed
    /// fields, with each free field at its extreme. In an index whose
    /// sort order leads with the fixed fields, the matches are exactly
    /// the keys between the two.
    pub(crate) fn bounds(&self) -> (Triple, Triple) {
        let lo = Triple {
            subject: self.subject.unwrap_or(Atom::MIN),
            property: self.property.unwrap_or(Atom::MIN),
            object: self.object.unwrap_or(VALUE_MIN),
        };
        let hi = Triple {
            subject: self.subject.unwrap_or(Atom::MAX),
            property: self.property.unwrap_or(Atom::MAX),
            object: self.object.unwrap_or(VALUE_MAX),
        };
        (lo, hi)
    }
}

/// Size and composition statistics, reported by [`TripleStore::stats`] and
/// consumed by the E1 space-overhead experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of triples currently stored.
    pub triples: usize,
    /// Number of distinct interned strings.
    pub atoms: usize,
    /// Total bytes of interned string content.
    pub atom_string_bytes: usize,
    /// Estimated resident bytes: triple copies in the three permutation
    /// columns, plus interned strings and per-atom bookkeeping. An
    /// estimate for comparative experiments, not an allocator audit.
    pub estimated_bytes: usize,
    /// Changes recorded in the journal since creation (or last clear).
    pub journal_len: usize,
}

/// The TRIM triple store (see crate docs).
///
/// Invariants, enforced by construction and checked by
/// [`TripleStore::check_invariants`] in tests:
/// * the three permutations contain exactly the same triples (SPO is
///   the authoritative membership set), each a sorted base plus a delta
///   that fits it and stays within the fold limit;
/// * every atom appearing in a triple resolves in the atom table;
/// * the journal replays to the current contents.
#[derive(Debug)]
pub struct TripleStore {
    atoms: AtomTable,
    /// The snapshot dictionary, brought up to date with `atoms` by
    /// [`TripleStore::snapshot`].
    names: Names,
    layout: Layout,
    journal: Journal,
    fresh_counter: u64,
    fold_limit: usize,
}

impl Default for TripleStore {
    fn default() -> Self {
        TripleStore {
            atoms: AtomTable::default(),
            names: Names::default(),
            layout: Layout::default(),
            journal: Journal::default(),
            fresh_counter: 0,
            fold_limit: Self::FOLD_LIMIT,
        }
    }
}

impl TripleStore {
    /// Default number of changed triples past which the delta is folded
    /// into a fresh base. Also the number of atoms interned since the
    /// last dictionary copy past which snapshots start a new copy.
    pub const FOLD_LIMIT: usize = 4096;

    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the fold threshold (tests use a tiny one), folding at
    /// once if the delta is already past it.
    pub fn with_fold_limit(mut self, limit: usize) -> Self {
        self.fold_limit = limit;
        self.settle();
        self
    }

    /// An immutable view of the current state for concurrent readers: a
    /// clone of the layout, which shares the frozen base and copies the
    /// delta, plus the atom dictionary as of now.
    pub fn snapshot(&mut self) -> Snapshot {
        self.names.follow(&self.atoms, self.fold_limit);
        Snapshot::new(self.names.clone(), self.layout.freeze(), self.revision())
    }

    /// Start building a selection pattern.
    pub fn pattern() -> TriplePattern {
        TriplePattern::default()
    }

    // ---- atoms and values ------------------------------------------------

    /// Intern a string (used for subjects, properties, and resource names).
    pub fn atom(&mut self, s: &str) -> Atom {
        self.atoms.intern(s)
    }

    /// Intern a string, surfacing interner exhaustion as a typed error
    /// instead of a panic — the entry point for untrusted input paths
    /// such as the persistence loaders.
    pub fn try_atom(&mut self, s: &str) -> Result<Atom, crate::error::TrimError> {
        self.atoms.try_intern(s).ok_or(crate::error::TrimError::CapacityExhausted)
    }

    /// Look up a string without interning.
    pub fn find_atom(&self, s: &str) -> Option<Atom> {
        self.atoms.get(s)
    }

    /// Resolve an atom back to its string.
    pub fn resolve(&self, a: Atom) -> &str {
        self.atoms.resolve(a)
    }

    /// Intern a literal string as a [`Value::Literal`].
    pub fn literal_value(&mut self, s: &str) -> Value {
        Value::Literal(self.atoms.intern(s))
    }

    /// Wrap an atom as a [`Value::Resource`].
    pub fn resource_value(a: Atom) -> Value {
        Value::Resource(a)
    }

    /// The literal text of a value, or `None` if it is a resource.
    pub fn value_str(&self, v: Value) -> Option<&str> {
        match v {
            Value::Literal(a) => Some(self.atoms.resolve(a)),
            Value::Resource(_) => None,
        }
    }

    /// The underlying text of a value, literal or resource name alike.
    pub fn value_text(&self, v: Value) -> &str {
        self.atoms.resolve(v.atom())
    }

    /// Mint a resource atom guaranteed not to collide with any existing
    /// atom, of the form `prefix:N`. Used by DMIs to create object ids.
    pub fn fresh_resource(&mut self, prefix: &str) -> Atom {
        loop {
            let candidate = format!("{prefix}:{}", self.fresh_counter);
            self.fresh_counter += 1;
            if self.atoms.get(&candidate).is_none() {
                return self.atoms.intern(&candidate);
            }
        }
    }

    /// Advance the fresh-resource counter past every numeric `name:N`
    /// suffix the atom table holds. Load paths (snapshot parse, WAL
    /// replay) call this because [`TripleStore::fresh_resource`] only
    /// probes the *current* table for collisions: a reloaded table no
    /// longer holds the atoms of entities deleted before the save, so
    /// without the resync a post-reload mint could re-issue a dead
    /// entity's name — and any ordering derived from resource names
    /// (creation-order enumeration, differential digests) would permute
    /// across the reload.
    pub fn resync_fresh_counter(&mut self) {
        let mut floor = self.fresh_counter;
        for (_, name) in self.atoms.iter() {
            if let Some((_, suffix)) = name.rsplit_once(':') {
                if let Ok(n) = suffix.parse::<u64>() {
                    floor = floor.max(n.saturating_add(1));
                }
            }
        }
        self.fresh_counter = floor;
    }

    /// Access to the underlying atom table (read-only).
    pub fn atoms(&self) -> &AtomTable {
        &self.atoms
    }

    // ---- mutation ----------------------------------------------------------

    /// Fold the delta into a fresh base once it is past the fold limit.
    fn settle(&mut self) {
        if self.layout.delta_len() > self.fold_limit {
            self.layout.fold(&[]);
        }
    }

    /// Insert a triple. Returns `true` if it was not already present.
    pub fn insert(&mut self, subject: Atom, property: Atom, object: Value) -> bool {
        let t = Triple { subject, property, object };
        if !self.layout.insert(t) {
            return false;
        }
        self.journal.record(Change::Insert(t));
        self.settle();
        true
    }

    /// Insert a batch of triples, amortizing journal growth over the
    /// whole batch. Equivalent to calling [`TripleStore::insert`] per
    /// triple (each new triple is journaled individually, in batch order,
    /// so `undo_to` can still land between any two of them); returns how
    /// many were actually new. This is the write path DMI structural
    /// operations and pad load use. A batch of more new triples than the
    /// fold limit merges straight into the base: one sort and one merge,
    /// not one fold per limit's worth of triples.
    pub fn insert_all<I>(&mut self, triples: I) -> usize
    where
        I: IntoIterator<Item = Triple>,
    {
        let batch: Vec<Triple> = triples.into_iter().collect();
        let mut new: Vec<Triple> =
            batch.iter().copied().filter(|t| !self.layout.contains(t)).collect();
        new.sort_unstable();
        new.dedup();
        let mut journaled = vec![false; new.len()];
        self.journal.reserve(new.len());
        for t in batch {
            if let Ok(i) = new.binary_search(&t) {
                if !std::mem::replace(&mut journaled[i], true) {
                    self.journal.record(Change::Insert(t));
                }
            }
        }
        if new.len() > self.fold_limit {
            self.layout.fold(&new);
        } else {
            for &t in &new {
                self.layout.insert(t);
            }
            self.settle();
        }
        new.len()
    }

    /// Convenience: intern all three fields and insert, with the object as
    /// a literal.
    pub fn insert_literal(&mut self, subject: &str, property: &str, literal: &str) -> Triple {
        let s = self.atom(subject);
        let p = self.atom(property);
        let o = self.literal_value(literal);
        self.insert(s, p, o);
        Triple { subject: s, property: p, object: o }
    }

    /// Convenience: intern all three fields and insert, with the object as
    /// a resource reference.
    pub fn insert_resource(&mut self, subject: &str, property: &str, object: &str) -> Triple {
        let s = self.atom(subject);
        let p = self.atom(property);
        let o = Value::Resource(self.atom(object));
        self.insert(s, p, o);
        Triple { subject: s, property: p, object: o }
    }

    /// Remove a triple. Returns `true` if it was present.
    pub fn remove(&mut self, t: Triple) -> bool {
        if !self.layout.remove(t) {
            return false;
        }
        self.journal.record(Change::Remove(t));
        self.settle();
        true
    }

    /// Remove a batch of triples; the removal-side twin of
    /// [`TripleStore::insert_all`]. Returns how many were present.
    pub fn remove_all<I>(&mut self, triples: I) -> usize
    where
        I: IntoIterator<Item = Triple>,
    {
        let iter = triples.into_iter();
        self.journal.reserve(iter.size_hint().0);
        let mut removed = 0;
        for t in iter {
            if self.layout.remove(t) {
                self.journal.record(Change::Remove(t));
                removed += 1;
            }
        }
        self.settle();
        removed
    }

    /// Drop `t` from the subject-led (SPO) permutation's delta only,
    /// leaving the other permutations untouched — i.e. deliberately
    /// corrupt the store. Exists solely so mutation-testing harnesses
    /// (slimcheck `--mutate`) can prove they detect a skipped
    /// index-maintenance bug; never call this from production code.
    #[doc(hidden)]
    pub fn testonly_unindex_subject(&mut self, t: Triple) {
        self.layout.spo.del(t);
    }

    /// Re-add `t` to the POS permutation's delta after a remove,
    /// simulating a remove path that forgot POS maintenance:
    /// property-bound queries then see a phantom triple.
    /// Mutation-testing hook (slimcheck `--mutate`); never call this from
    /// production code.
    #[doc(hidden)]
    pub fn testonly_reinsert_pos(&mut self, t: Triple) {
        self.layout.pos.add(t);
    }

    /// Remove every triple matching the pattern; returns how many went.
    pub fn remove_matching(&mut self, pattern: &TriplePattern) -> usize {
        let victims = self.select(pattern);
        self.remove_all(victims)
    }

    /// Replace the object of the unique triple `(subject, property, _)`.
    ///
    /// This is the DMI's `Update_*` primitive: if exactly zero or one
    /// triple matches, the result is the single triple
    /// `(subject, property, new_object)`. With multiple matches, all are
    /// replaced by the single new value.
    pub fn set_unique(&mut self, subject: Atom, property: Atom, object: Value) {
        let pattern =
            TriplePattern::default().with_subject(subject).with_property(property);
        self.remove_matching(&pattern);
        self.insert(subject, property, object);
    }

    /// Drop everything, including the journal and interned strings; the
    /// fold limit stays. The store gets a fresh atom table; snapshots
    /// taken before keep reading the old one.
    pub fn clear(&mut self) {
        *self = TripleStore::new().with_fold_limit(self.fold_limit);
    }

    // ---- queries ---------------------------------------------------------

    /// True if the exact triple is present.
    pub fn contains(&self, t: &Triple) -> bool {
        self.layout.contains(t)
    }

    /// Number of stored triples.
    pub fn len(&self) -> usize {
        self.layout.len()
    }

    /// True if the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate all triples in (subject, property, object) sorted order —
    /// the SPO permutation order, which is also [`Triple`]'s derived `Ord`.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.layout.spo_matches(&TriplePattern::default())
    }

    /// The access plan [`TripleStore::select`], [`TripleStore::count`],
    /// and [`TripleStore::remove_matching`] will execute for `pattern` —
    /// a pure function of the pattern's shape (see [`crate::plan`]).
    /// Lets tests and slimcheck assert *which* index answers a query.
    pub fn explain(&self, pattern: &TriplePattern) -> Plan {
        Plan::for_pattern(pattern)
    }

    /// Selection query: all triples matching the pattern, answered by the
    /// one index whose sort order leads with the bound fields (see
    /// [`TripleStore::explain`]). No residual filtering is ever needed.
    ///
    /// Result order is deterministic: the chosen index's sort order —
    /// (s, p, o) for subject-led scans, full scans, and probes;
    /// (p, o, s) for property-led scans; (o, s, p) for object-led scans.
    /// Use [`TripleStore::select_sorted`] for canonical (s, p, o) order
    /// regardless of shape.
    pub fn select(&self, pattern: &TriplePattern) -> Vec<Triple> {
        let out = self.layout.select(pattern);
        debug_assert!(out.iter().all(|t| pattern.matches(t)));
        out
    }

    /// Selection query returning results in canonical (s, p, o) sorted
    /// order regardless of pattern shape, for display and golden tests.
    pub fn select_sorted(&self, pattern: &TriplePattern) -> Vec<Triple> {
        let mut v = self.select(pattern);
        v.sort_unstable();
        v
    }

    /// Count matches without materializing them, off the same
    /// permutation as [`TripleStore::select`].
    pub fn count(&self, pattern: &TriplePattern) -> usize {
        self.layout.count(pattern)
    }

    /// The single triple matching `(subject, property, _)`, if exactly one
    /// exists.
    pub fn get_unique(&self, subject: Atom, property: Atom) -> Option<Triple> {
        let pattern =
            TriplePattern::default().with_subject(subject).with_property(property);
        let mut matches = self.layout.spo_matches(&pattern);
        let first = matches.next()?;
        matches.next().is_none().then_some(first)
    }

    /// The object of the unique `(subject, property, _)` triple.
    pub fn object_of(&self, subject: Atom, property: Atom) -> Option<Value> {
        self.get_unique(subject, property).map(|t| t.object)
    }

    /// Full-text-lite: every triple whose *literal* object contains
    /// `needle` (case-insensitive). One pass over the literal objects of
    /// the OSP permutation tests each distinct literal string once, no
    /// matter how many triples carry it; ASCII text is compared without
    /// allocating (see `contains_ignoring_case`).
    ///
    /// Result order is deterministic: matching literals in first-interning
    /// order (the order each literal string first entered the store, which
    /// for a freshly built store is insertion order), and within one
    /// literal by (subject, property) atom order — again first-interning
    /// order, not lexicographic. Tested by
    /// `find_literals_returns_interning_order`.
    pub fn find_literals(&self, needle: &str) -> Vec<Triple> {
        let lower = needle.to_lowercase();
        let mut last: Option<(Value, bool)> = None;
        let mut out = Vec::new();
        // Literals sort after every resource in the object position.
        let lo = Triple { subject: Atom::MIN, property: Atom::MIN, object: Value::Literal(Atom::MIN) };
        let hi = Triple { subject: Atom::MAX, property: Atom::MAX, object: VALUE_MAX };
        self.layout.osp.triples(lo, hi).for_each(|t| {
            let hit = match last {
                Some((object, hit)) if object == t.object => hit,
                _ => {
                    let text = self.atoms.resolve(t.object.atom());
                    let hit = contains_ignoring_case(text, needle, &lower);
                    last = Some((t.object, hit));
                    hit
                }
            };
            if hit {
                out.push(t);
            }
        });
        out
    }

    // ---- journal ---------------------------------------------------------

    /// The current revision (monotone change count).
    pub fn revision(&self) -> Revision {
        self.journal.revision()
    }

    /// Read-only access to the change journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Crate-internal mutable journal access (used by persistence to
    /// start loaded stores with clean history).
    pub(crate) fn journal_mut(&mut self) -> &mut Journal {
        &mut self.journal
    }

    /// Undo all changes made after `rev`, restoring the store contents at
    /// that revision. The undone entries are removed from the journal.
    ///
    /// # Errors
    ///
    /// [`crate::TrimError::UndoPastStart`] if `rev` predates the
    /// journal's retained history.
    pub fn undo_to(&mut self, rev: Revision) -> Result<(), crate::TrimError> {
        let undone = self.journal.take_since(rev)?;
        for change in undone.into_iter().rev() {
            match change {
                Change::Insert(t) => self.layout.remove(t),
                Change::Remove(t) => self.layout.insert(t),
            };
        }
        self.settle();
        Ok(())
    }

    // ---- stats and invariants ---------------------------------------------

    /// Current size statistics.
    pub fn stats(&self) -> StoreStats {
        use std::mem::size_of;
        let triple_copies = self.len() * 3; // three permutations
        let estimated_bytes = triple_copies * size_of::<Triple>()
            + self.atoms.string_bytes()
            + self.atoms.len() * (size_of::<Box<str>>() + size_of::<Atom>());
        StoreStats {
            triples: self.len(),
            atoms: self.atoms.len(),
            atom_string_bytes: self.atoms.string_bytes(),
            estimated_bytes,
            journal_len: self.journal.len(),
        }
    }

    /// Verify internal invariants; used by tests and debug assertions.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn check_invariants(&self) {
        self.layout.check();
        assert!(self.layout.delta_len() <= self.fold_limit, "delta past the fold limit");
        for t in self.iter() {
            // resolve() panics on foreign atoms; reaching it at all is the check
            let _ = self.atoms.resolve(t.subject);
            let _ = self.atoms.resolve(t.property);
            let _ = self.atoms.resolve(t.object.atom());
        }
    }

    /// Render a triple as `subject --property--> value` for diagnostics.
    pub fn display_triple(&self, t: &Triple) -> String {
        let obj = match t.object {
            Value::Resource(a) => format!("<{}>", self.atoms.resolve(a)),
            Value::Literal(a) => format!("{:?}", self.atoms.resolve(a)),
        };
        format!(
            "{} --{}--> {}",
            self.atoms.resolve(t.subject),
            self.atoms.resolve(t.property),
            obj
        )
    }
}

/// True if `haystack` contains `needle`, ignoring case. When both are
/// ASCII this compares windows in place; otherwise it falls back to full
/// Unicode lowercasing, where `lower` is `needle.to_lowercase()`.
fn contains_ignoring_case(haystack: &str, needle: &str, lower: &str) -> bool {
    if haystack.is_ascii() && needle.is_ascii() {
        needle.is_empty()
            || haystack
                .as_bytes()
                .windows(needle.len())
                .any(|w| w.eq_ignore_ascii_case(needle.as_bytes()))
    } else {
        haystack.to_lowercase().contains(lower)
    }
}

impl Runs for TripleStore {
    fn seek_spo(&self, from: SpoKey) -> Option<SpoKey> {
        self.layout.spo.seek(from)
    }

    fn seek_pos(&self, from: PosKey) -> Option<PosKey> {
        self.layout.pos.seek(from)
    }

    fn seek_osp(&self, from: OspKey) -> Option<OspKey> {
        self.layout.osp.seek(from)
    }

    fn count(&self, pattern: &TriplePattern) -> usize {
        self.layout.count(pattern)
    }

    fn resolve(&self, a: Atom) -> &str {
        self.atoms.resolve(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PatternShape;

    fn store_with_bundle() -> (TripleStore, Atom, Atom) {
        let mut s = TripleStore::new();
        let b1 = s.atom("bundle:1");
        let b2 = s.atom("bundle:2");
        let name = s.atom("bundleName");
        let nested = s.atom("nestedBundle");
        let n1 = s.literal_value("John Smith");
        let n2 = s.literal_value("Electrolyte");
        s.insert(b1, name, n1);
        s.insert(b2, name, n2);
        s.insert(b1, nested, Value::Resource(b2));
        (s, b1, b2)
    }

    #[test]
    fn insert_is_set_semantics() {
        let mut s = TripleStore::new();
        let a = s.atom("a");
        let p = s.atom("p");
        let v = s.literal_value("v");
        assert!(s.insert(a, p, v));
        assert!(!s.insert(a, p, v), "duplicate insert must report false");
        assert_eq!(s.len(), 1);
        s.check_invariants();
    }

    #[test]
    fn remove_present_and_absent() {
        let (mut s, b1, _) = store_with_bundle();
        let name = s.atom("bundleName");
        let v = s.literal_value("John Smith");
        let t = Triple { subject: b1, property: name, object: v };
        assert!(s.remove(t));
        assert!(!s.remove(t));
        assert_eq!(s.len(), 2);
        s.check_invariants();
    }

    #[test]
    fn select_by_each_field_combination() {
        let (s, b1, b2) = store_with_bundle();
        let name = s.find_atom("bundleName").unwrap();
        let nested = s.find_atom("nestedBundle").unwrap();

        assert_eq!(s.select(&TriplePattern::default()).len(), 3);
        assert_eq!(s.select(&TriplePattern::default().with_subject(b1)).len(), 2);
        assert_eq!(s.select(&TriplePattern::default().with_property(name)).len(), 2);
        assert_eq!(
            s.select(&TriplePattern::default().with_object(Value::Resource(b2))).len(),
            1
        );
        assert_eq!(
            s.select(&TriplePattern::default().with_subject(b1).with_property(nested)).len(),
            1
        );
        assert_eq!(
            s.select(
                &TriplePattern::default()
                    .with_subject(b1)
                    .with_property(name)
                    .with_object(Value::Resource(b2))
            )
            .len(),
            0
        );
    }

    #[test]
    fn select_with_unindexed_atom_is_empty() {
        let (mut s, _, _) = store_with_bundle();
        let ghost = s.atom("never-used-in-a-triple");
        assert!(s.select(&TriplePattern::default().with_subject(ghost)).is_empty());
        assert_eq!(s.count(&TriplePattern::default().with_property(ghost)), 0);
    }

    #[test]
    fn count_agrees_with_select() {
        let (s, b1, _) = store_with_bundle();
        let p = TriplePattern::default().with_subject(b1);
        assert_eq!(s.count(&p), s.select(&p).len());
    }

    #[test]
    fn explain_matches_the_selection_table() {
        let (s, b1, b2) = store_with_bundle();
        let name = s.find_atom("bundleName").unwrap();
        let obj = Value::Resource(b2);
        let cases = [
            (TriplePattern::default(), PatternShape::Unbound),
            (TriplePattern::default().with_subject(b1), PatternShape::S),
            (TriplePattern::default().with_property(name), PatternShape::P),
            (TriplePattern::default().with_object(obj), PatternShape::O),
            (TriplePattern::default().with_subject(b1).with_property(name), PatternShape::Sp),
            (TriplePattern::default().with_subject(b1).with_object(obj), PatternShape::So),
            (TriplePattern::default().with_property(name).with_object(obj), PatternShape::Po),
            (
                TriplePattern::default().with_subject(b1).with_property(name).with_object(obj),
                PatternShape::Spo,
            ),
        ];
        for (pattern, shape) in cases {
            let plan = s.explain(&pattern);
            assert_eq!(plan.shape, shape);
            assert_eq!(plan, Plan::for_shape(shape), "explain must execute the table");
        }
    }

    #[test]
    fn select_returns_index_order() {
        let mut s = TripleStore::new();
        // Interleave inserts so insertion order differs from index order.
        s.insert_literal("s2", "p1", "b");
        s.insert_literal("s1", "p2", "a");
        s.insert_literal("s1", "p1", "c");
        let p1 = s.find_atom("p1").unwrap();
        // Property-led scan: (p, o, s) order.
        let hits = s.select(&TriplePattern::default().with_property(p1));
        let rendered: Vec<String> =
            hits.iter().map(|t| s.display_triple(t)).collect();
        assert_eq!(rendered, vec![r#"s2 --p1--> "b""#, r#"s1 --p1--> "c""#]);
        // Full scan: (s, p, o) order, same as iter() and Triple's Ord.
        let all = s.select(&TriplePattern::default());
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(all, sorted);
        assert_eq!(all, s.iter().collect::<Vec<_>>());
    }

    #[test]
    fn insert_all_batches_and_reports_new_triples() {
        let mut s = TripleStore::new();
        let a = s.atom("a");
        let p = s.atom("p");
        let v1 = s.literal_value("1");
        let v2 = s.literal_value("2");
        let batch = vec![
            Triple { subject: a, property: p, object: v1 },
            Triple { subject: a, property: p, object: v2 },
            Triple { subject: a, property: p, object: v1 }, // duplicate in batch
        ];
        assert_eq!(s.insert_all(batch.clone()), 2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.insert_all(batch), 0, "re-inserting is a no-op");
        assert_eq!(s.journal().len(), 2, "only new triples are journaled");
        s.check_invariants();
    }

    #[test]
    fn remove_all_is_the_batch_twin_of_remove() {
        let (mut s, b1, _) = store_with_bundle();
        let victims = s.select(&TriplePattern::default().with_subject(b1));
        assert_eq!(s.remove_all(victims.clone()), 2);
        assert_eq!(s.remove_all(victims), 0);
        assert_eq!(s.len(), 1);
        s.check_invariants();
    }

    #[test]
    fn batch_insert_then_undo_restores_cleanly() {
        let (mut s, b1, _) = store_with_bundle();
        let rev = s.revision();
        let extra = s.atom("extra");
        let vals: Vec<Triple> = (0..10)
            .map(|i| {
                let v = s.literal_value(&format!("v{i}"));
                Triple { subject: b1, property: extra, object: v }
            })
            .collect();
        assert_eq!(s.insert_all(vals), 10);
        assert_eq!(s.len(), 13);
        s.undo_to(rev).unwrap();
        assert_eq!(s.len(), 3);
        s.check_invariants();
    }

    #[test]
    fn set_unique_replaces_value() {
        let (mut s, b1, _) = store_with_bundle();
        let name = s.atom("bundleName");
        let new = s.literal_value("J. Smith");
        s.set_unique(b1, name, new);
        assert_eq!(s.object_of(b1, name), Some(new));
        assert_eq!(s.count(&TriplePattern::default().with_subject(b1).with_property(name)), 1);
        s.check_invariants();
    }

    #[test]
    fn get_unique_rejects_ambiguity() {
        let mut s = TripleStore::new();
        let a = s.atom("a");
        let p = s.atom("p");
        let v1 = s.literal_value("1");
        let v2 = s.literal_value("2");
        s.insert(a, p, v1);
        assert!(s.get_unique(a, p).is_some());
        s.insert(a, p, v2);
        assert!(s.get_unique(a, p).is_none(), "two matches must yield None");
    }

    #[test]
    fn remove_matching_removes_all() {
        let (mut s, b1, _) = store_with_bundle();
        let removed = s.remove_matching(&TriplePattern::default().with_subject(b1));
        assert_eq!(removed, 2);
        assert_eq!(s.len(), 1);
        s.check_invariants();
    }

    #[test]
    fn fresh_resources_never_collide() {
        let mut s = TripleStore::new();
        s.atom("Bundle:0"); // occupy the first candidate
        let r1 = s.fresh_resource("Bundle");
        let r2 = s.fresh_resource("Bundle");
        assert_ne!(r1, r2);
        assert_ne!(s.resolve(r1), "Bundle:0");
        assert!(s.resolve(r1).starts_with("Bundle:"));
    }

    #[test]
    fn undo_restores_prior_contents() {
        let (mut s, b1, _) = store_with_bundle();
        let rev = s.revision();
        let before: std::collections::BTreeSet<_> = s.iter().collect();
        let extra = s.atom("extra");
        let v = s.literal_value("x");
        s.insert(b1, extra, v);
        let name = s.find_atom("bundleName").unwrap();
        let old = s.get_unique(b1, name).unwrap();
        s.remove(old);
        assert_ne!(before, s.iter().collect());
        s.undo_to(rev).unwrap();
        let after: std::collections::BTreeSet<_> = s.iter().collect();
        assert_eq!(before, after);
        s.check_invariants();
    }

    #[test]
    fn undo_to_current_revision_is_noop() {
        let (mut s, _, _) = store_with_bundle();
        let rev = s.revision();
        s.undo_to(rev).unwrap();
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn stats_track_growth() {
        let (s, _, _) = store_with_bundle();
        let st = s.stats();
        assert_eq!(st.triples, 3);
        assert!(st.atoms >= 6);
        assert!(st.estimated_bytes > 0);
        assert_eq!(st.journal_len, 3);
    }

    #[test]
    fn display_triple_is_readable() {
        let (s, b1, _) = store_with_bundle();
        let nested = s.find_atom("nestedBundle").unwrap();
        let t = s.get_unique(b1, nested).unwrap();
        assert_eq!(s.display_triple(&t), "bundle:1 --nestedBundle--> <bundle:2>");
    }

    #[test]
    fn find_literals_is_case_insensitive_and_literal_only() {
        let mut s = TripleStore::new();
        s.insert_literal("scrap:1", "scrapName", "Lasix 40 IV");
        s.insert_literal("scrap:2", "scrapName", "lasix drip");
        s.insert_literal("scrap:3", "scrapName", "KCl 20");
        s.insert_resource("bundle:1", "bundleContent", "Lasix-shrine"); // resource: excluded
        let hits = s.find_literals("LASIX");
        assert_eq!(hits.len(), 2);
        assert!(s.find_literals("digoxin").is_empty());
        assert_eq!(s.find_literals("").len(), 3, "empty needle matches all literals");
    }

    #[test]
    fn find_literals_returns_interning_order() {
        let mut s = TripleStore::new();
        // Literals intern in this order: "beta", "alpha", "betamax".
        s.insert_literal("s3", "name", "beta");
        s.insert_literal("s1", "name", "alpha");
        s.insert_literal("s2", "name", "betamax");
        s.insert_literal("s1", "alias", "beta"); // second carrier of "beta"
        let hits = s.find_literals("beta");
        let rendered: Vec<String> = hits.iter().map(|t| s.display_triple(t)).collect();
        // Matching literals in first-interning order ("beta" before
        // "betamax"); within one literal, (subject, property) atom order —
        // "s3" interned before "s1", so it leads.
        assert_eq!(
            rendered,
            vec![
                r#"s3 --name--> "beta""#,
                r#"s1 --alias--> "beta""#,
                r#"s2 --name--> "betamax""#,
            ]
        );
        // Removing the last carrier of a literal drops it from the
        // candidate set entirely.
        let t = hits[0];
        s.remove(t);
        let t = s.find_literals("beta")[0];
        s.remove(t);
        assert_eq!(s.find_literals("beta").len(), 1, "only betamax remains");
        s.check_invariants();
    }

    #[test]
    fn insert_helpers_intern_and_insert() {
        let mut s = TripleStore::new();
        s.insert_literal("scrap:1", "scrapName", "Na 140");
        s.insert_resource("bundle:1", "bundleContent", "scrap:1");
        assert_eq!(s.len(), 2);
        let scrap = s.find_atom("scrap:1").unwrap();
        assert_eq!(
            s.count(&TriplePattern::default().with_object(Value::Resource(scrap))),
            1
        );
    }

    #[test]
    fn clear_resets_everything() {
        let (mut s, _, _) = store_with_bundle();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.stats().atoms, 0);
        assert_eq!(s.revision(), Revision::start());
    }

    #[test]
    fn find_literals_falls_back_to_unicode_lowercasing() {
        let mut s = TripleStore::new();
        s.insert_literal("s1", "temp", "300 \u{212A}"); // KELVIN SIGN lowercases to 'k'
        s.insert_literal("s2", "city", "\u{130}stanbul"); // İ lowercases to "i\u{307}"
        s.insert_literal("s3", "city", "izmir");
        let subjects = |hits: Vec<Triple>| -> Vec<String> {
            hits.iter().map(|t| s.resolve(t.subject).to_string()).collect()
        };
        assert_eq!(subjects(s.find_literals("k")), ["s1"]);
        assert_eq!(subjects(s.find_literals("i")), ["s2", "s3"]);
        assert_eq!(subjects(s.find_literals("\u{130}")), ["s2"]);
        assert_eq!(subjects(s.find_literals("\u{130}zmir")), Vec::<String>::new());
    }

    #[test]
    fn bulk_insert_past_the_fold_limit_undoes_to_empty() {
        let mut s = TripleStore::new().with_fold_limit(4);
        let start = s.revision();
        let p = s.atom("seq");
        let mut batch: Vec<Triple> = (0..20)
            .map(|i| {
                let subject = s.atom(&format!("b:{}", i % 3));
                Triple { subject, property: p, object: s.literal_value(&i.to_string()) }
            })
            .collect();
        batch.push(batch[5]); // a duplicate inside the batch
        assert_eq!(s.insert_all(batch.clone()), 20);
        assert_eq!(s.len(), 20);
        let journaled: Vec<Triple> = s.journal().iter().map(|c| c.triple()).collect();
        assert_eq!(journaled, batch[..20], "journaled once each, in batch order");
        s.check_invariants();
        s.undo_to(start).unwrap();
        assert!(s.is_empty());
        s.check_invariants();
    }

    #[test]
    fn value_helpers() {
        let mut s = TripleStore::new();
        let lit = s.literal_value("text");
        let res = Value::Resource(s.atom("r:1"));
        assert_eq!(s.value_str(lit), Some("text"));
        assert_eq!(s.value_str(res), None);
        assert_eq!(s.value_text(res), "r:1");
        assert!(res.is_resource());
        assert!(!lit.is_resource());
    }
}
