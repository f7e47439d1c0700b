//! Snapshot-isolated read views over a [`TripleStore`].
//!
//! A concurrent front-end (the `slimserve` crate) has one writer thread
//! that owns the mutable [`TripleStore`] and many reader sessions that
//! must see a *consistent* state without blocking the writer. A
//! [`Snapshot`], taken by [`TripleStore::snapshot`], is a clone of the
//! store's own triple layout (`crate::layout`): the frozen sorted
//! SPO/POS/OSP base columns are shared through an `Arc`, so the clone
//! copies only the small adds/dels delta written since the store last
//! folded it, from the store's `BTreeSet`s into sorted `Vec`s. Readers
//! holding old snapshots keep an old base alive for free. The snapshot
//! implements [`Runs`] through the same layout code as the store, so
//! [`crate::ConjQuery::solve`] joins either one.
//!
//! A snapshot names its atoms through a dictionary of its own, since the
//! writer's [`AtomTable`] keeps growing under it. The store keeps that
//! dictionary beside its table: a copy of the table taken at the last
//! dictionary fold, shared by every snapshot since, plus a small tail of
//! the atoms interned after it. Both share the table's string
//! allocations. Once the tail would pass the store's fold limit the
//! dictionary starts over from a fresh copy.
//!
//! Nothing here trusts a journal: undo, [`TripleStore::clear`] and
//! journal truncation change the layout itself, and the next snapshot
//! clones whatever it holds.
//!
//! [`TripleStore`]: crate::TripleStore
//! [`TripleStore::snapshot`]: crate::TripleStore::snapshot
//! [`TripleStore::clear`]: crate::TripleStore::clear

use std::sync::Arc;

use crate::atom::{Atom, AtomTable};
use crate::journal::Revision;
use crate::layout::{Frozen, Layout};
use crate::runs::{OspKey, PosKey, Runs, SpoKey};
use crate::store::{Triple, TriplePattern};

/// A resolved triple object: literal text or a resource name. The
/// service's ops carry their objects in this form.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SnapValue {
    /// A literal string value.
    Literal(String),
    /// A reference to another resource, by name.
    Resource(String),
}

impl SnapValue {
    /// The underlying text, literal or resource name alike.
    pub fn text(&self) -> &str {
        match self {
            SnapValue::Literal(s) | SnapValue::Resource(s) => s,
        }
    }
}

/// The atoms one snapshot can name: the writer's table as of the last
/// dictionary fold, shared by every snapshot since, and the atoms
/// interned after it, numbered on from there.
#[derive(Debug, Clone, Default)]
pub(crate) struct Names {
    folded: Arc<AtomTable>,
    tail: Arc<AtomTable>,
}

impl Names {
    fn len(&self) -> usize {
        self.folded.len() + self.tail.len()
    }

    fn get(&self, s: &str) -> Option<Atom> {
        self.folded
            .get(s)
            .or_else(|| Some(Atom::from_index(self.folded.len() + self.tail.get(s)?.index())))
    }

    fn resolve(&self, a: Atom) -> &str {
        match a.index().checked_sub(self.folded.len()) {
            Some(i) => self.tail.resolve(Atom::from_index(i)),
            None => self.folded.resolve(a),
        }
    }

    /// Catch up with `atoms`, the table these names were copied from:
    /// append the atoms interned since, or start over from a copy of the
    /// table once the tail would grow past `limit`.
    pub(crate) fn follow(&mut self, atoms: &AtomTable, limit: usize) {
        let new = atoms.strings_from(self.len());
        if self.tail.len() + new.len() > limit {
            *self = Names { folded: Arc::new(atoms.clone()), tail: Arc::default() };
        } else if !new.is_empty() {
            let tail = Arc::make_mut(&mut self.tail);
            for s in new {
                tail.push(Arc::clone(s));
            }
        }
    }
}

/// An immutable, consistent view of a store at one revision.
///
/// Cheap to clone (one `Arc`); safe to ship across threads; never blocks
/// or observes the writer.
#[derive(Debug, Clone)]
pub struct Snapshot(Arc<View>);

/// What one snapshot holds; the layout's base is shared with the store
/// and every snapshot taken since its last fold.
#[derive(Debug)]
struct View {
    names: Names,
    layout: Layout<Frozen>,
    revision: Revision,
}

impl Snapshot {
    /// A snapshot of `layout` at `revision`, naming atoms through `names`.
    pub(crate) fn new(names: Names, layout: Layout<Frozen>, revision: Revision) -> Self {
        Snapshot(Arc::new(View { names, layout, revision }))
    }

    /// An empty snapshot at revision zero.
    pub fn empty() -> Self {
        Snapshot::new(Names::default(), Layout::default(), Revision::start())
    }

    /// The store revision this snapshot reflects.
    pub fn revision(&self) -> Revision {
        self.0.revision
    }

    /// Number of triples visible in this snapshot.
    pub fn len(&self) -> usize {
        self.0.layout.len()
    }

    /// True if no triples are visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Triples changed since the base this snapshot reads was folded;
    /// zero when the store had just folded.
    pub fn delta_len(&self) -> usize {
        self.0.layout.delta_len()
    }

    /// True if both snapshots read the same frozen base, i.e. the store
    /// did not fold between them.
    pub fn shares_base(&self, other: &Snapshot) -> bool {
        self.0.layout.shares_base(&other.0.layout)
    }

    /// Look up a string among the atoms this snapshot knows; one interned
    /// after it was taken is absent.
    pub fn find_atom(&self, s: &str) -> Option<Atom> {
        self.0.names.get(s)
    }

    /// Iterate every visible triple in SPO order — the store's own
    /// [`crate::TripleStore::iter`] order at this revision.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.0.layout.spo_matches(&TriplePattern::default())
    }

    /// All visible triples for one subject, in (property, object) order —
    /// the subject-bound range scan readers use, without touching the
    /// writer. A subject this snapshot never interned has none.
    pub fn scan_subject(&self, subject: &str) -> impl Iterator<Item = Triple> + '_ {
        let subject = self.0.names.get(subject);
        subject
            .into_iter()
            .flat_map(|s| self.0.layout.spo_matches(&TriplePattern::default().with_subject(s)))
    }

    /// Digest of the visible triples by name: a wrapping sum of per-triple
    /// FNV-1a hashes over the resolved strings. Two snapshots holding the
    /// same triples digest identically, whatever order their stores
    /// interned the atoms in and however the triples split between base
    /// and delta.
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        self.iter().fold(0u64, |sum, t| {
            let mut h = OFFSET;
            let mut eat = |bytes: &[u8]| {
                for &b in bytes {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(PRIME);
                }
                h ^= 0xff;
                h = h.wrapping_mul(PRIME);
            };
            eat(self.0.names.resolve(t.subject).as_bytes());
            eat(self.0.names.resolve(t.property).as_bytes());
            eat(if t.object.is_resource() { b"R" } else { b"L" });
            eat(self.0.names.resolve(t.object.atom()).as_bytes());
            sum.wrapping_add(h)
        })
    }
}

impl Runs for Snapshot {
    fn seek_spo(&self, from: SpoKey) -> Option<SpoKey> {
        self.0.layout.spo.seek(from)
    }

    fn seek_pos(&self, from: PosKey) -> Option<PosKey> {
        self.0.layout.pos.seek(from)
    }

    fn seek_osp(&self, from: OspKey) -> Option<OspKey> {
        self.0.layout.osp.seek(from)
    }

    fn count(&self, pattern: &TriplePattern) -> usize {
        self.0.layout.count(pattern)
    }

    fn resolve(&self, a: Atom) -> &str {
        self.0.names.resolve(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conj::{ConjError, ConjQuery};
    use crate::store::{TripleStore, Value};

    fn assert_matches_store(snap: &Snapshot, store: &TripleStore) {
        let want: Vec<Triple> = store.iter().collect();
        assert_eq!(snap.iter().collect::<Vec<_>>(), want);
        assert_eq!(snap.len(), store.len());
        assert_eq!(snap.revision(), store.revision());
        for t in &want {
            assert!(snap.contains(t));
            for a in [t.subject, t.property, t.object.atom()] {
                assert_eq!(snap.find_atom(store.resolve(a)), Some(a), "{a} by name");
                assert_eq!(Runs::resolve(snap, a), store.resolve(a));
            }
            for pattern in [
                TriplePattern::default().with_subject(t.subject),
                TriplePattern::default().with_property(t.property),
                TriplePattern::default().with_object(t.object),
                TriplePattern::default().with_subject(t.subject).with_object(t.object),
            ] {
                assert_eq!(Runs::count(snap, &pattern), store.count(&pattern), "{pattern:?}");
            }
        }
    }

    /// `store` with everything it holds folded into its base.
    fn folded(store: TripleStore) -> TripleStore {
        store.with_fold_limit(0).with_fold_limit(TripleStore::FOLD_LIMIT)
    }

    /// `(b:1 member ?s) ⋈ (?s name ?n)` in `snap`'s atoms.
    fn members_with_names(snap: &Snapshot) -> ConjQuery {
        let atom = |s| snap.find_atom(s).unwrap();
        let mut q = ConjQuery::new();
        let (s, n) = (q.var("s"), q.var("n"));
        q.pattern(atom("b:1"), atom("member"), s).pattern(s, atom("name"), n);
        q
    }

    /// Solve `q` on `snap` and name each row's values.
    fn named_rows(snap: &Snapshot, q: &ConjQuery) -> Vec<Vec<String>> {
        q.solve(snap)
            .unwrap()
            .iter()
            .map(|row| row.iter().map(|v| snap.resolve(v.atom()).to_string()).collect())
            .collect()
    }

    #[test]
    fn snapshot_reflects_store_contents() {
        let mut store = TripleStore::new();
        store.insert_literal("b:1", "name", "John");
        store.insert_resource("b:1", "member", "s:1");
        store.insert_literal("s:1", "text", "lab result");
        let snap = store.snapshot();
        assert_matches_store(&snap, &store);
        assert_eq!(snap.scan_subject("b:1").count(), 2);
        assert_eq!(snap.scan_subject("s:1").count(), 1);
        assert_eq!(snap.scan_subject("zzz").count(), 0);
    }

    #[test]
    fn old_snapshots_are_isolated_from_later_writes() {
        let mut store = TripleStore::new();
        store.insert_literal("b:1", "name", "John");
        let before = store.snapshot();

        let victim = store.insert_literal("b:1", "ward", "W3");
        store.remove(victim);
        store.insert_literal("b:2", "name", "Mary");
        let after = store.snapshot();

        assert!(after.shares_base(&before), "no fold: only the delta was copied");
        assert_eq!(before.len(), 1, "old view must not see new writes");
        assert_eq!(before.find_atom("b:2"), None, "nor atoms interned after it");
        assert_eq!(after.len(), 2);
        assert_matches_store(&after, &store);
        assert!(!after.contains(&victim));
    }

    #[test]
    fn incremental_publish_matches_full_rebuild() {
        // The same writes on a store that folds every few changes and on
        // one that never folds: the triples split differently between
        // base and delta, but every snapshot reads the same.
        let mut folding = TripleStore::new().with_fold_limit(3);
        let mut store = TripleStore::new();
        for i in 0..40 {
            for s in [&mut folding, &mut store] {
                s.insert_literal(&format!("b:{}", i % 7), "seq", &i.to_string());
                if i % 3 == 0 {
                    let pat = TripleStore::pattern().with_subject(s.atom(&format!("b:{}", i % 7)));
                    let first = s.select(&pat).first().copied();
                    if let Some(first) = first {
                        s.remove(first);
                    }
                }
            }
            let (snap, other) = (folding.snapshot(), store.snapshot());
            assert_matches_store(&snap, &folding);
            assert_matches_store(&other, &store);
            assert!(snap.delta_len() <= 3);
            assert_eq!(snap.digest(), other.digest(), "digest split-invariant");
        }
    }

    #[test]
    fn digest_ignores_atom_numbering() {
        let triples = [("b:1", "name", "John"), ("b:2", "name", "Mary"), ("s:1", "text", "Na 140")];
        let mut forward = TripleStore::new();
        for (s, p, o) in triples {
            forward.insert_literal(s, p, o);
        }
        forward.insert_resource("b:1", "member", "s:1");
        // Same triples, atoms interned in another order, plus triples
        // that came and went and left their atoms behind.
        let mut backward = TripleStore::new();
        let extra = backward.insert_literal("x:9", "ward", "W3");
        backward.insert_resource("b:1", "member", "s:1");
        for (s, p, o) in triples.iter().rev() {
            backward.insert_literal(s, p, o);
        }
        backward.remove(extra);
        assert_ne!(forward.find_atom("b:1"), backward.find_atom("b:1"));
        assert_eq!(forward.snapshot().digest(), backward.snapshot().digest());
        backward.insert_literal("b:3", "name", "Omar");
        assert_ne!(forward.snapshot().digest(), backward.snapshot().digest());
    }

    #[test]
    fn delta_folds_into_base_past_the_limit() {
        let mut store = TripleStore::new().with_fold_limit(4);
        for i in 0..4 {
            store.insert_literal("b:1", "seq", &i.to_string());
        }
        let first = store.snapshot();
        assert_eq!(first.delta_len(), 4);
        let last = store.insert_literal("b:1", "seq", "last");
        let snap = store.snapshot();
        assert!(!snap.shares_base(&first), "the fifth change folded the delta");
        assert_eq!(snap.delta_len(), 0);
        assert_matches_store(&snap, &store);
        // A delete after the fold lands in the delta, over the new base.
        store.remove(last);
        let snap = store.snapshot();
        assert_eq!(snap.delta_len(), 1);
        assert_matches_store(&snap, &store);
        assert_eq!(first.len(), 4, "the held snapshot keeps its own base");
        // A tail of fresh atoms folds the dictionary on its own.
        for i in 0..5 {
            store.atom(&format!("fresh:{i}"));
        }
        let snap = store.snapshot();
        assert!(snap.0.names.tail.is_empty());
        assert_eq!(snap.find_atom("fresh:4"), store.find_atom("fresh:4"));
    }

    #[test]
    fn undo_below_published_revision_forces_rebuild() {
        let mut store = TripleStore::new();
        store.insert_literal("b:1", "name", "John");
        let mark = store.revision();
        store.insert_literal("b:1", "ward", "W3");
        let published = store.snapshot();

        store.undo_to(mark).unwrap();
        store.insert_literal("b:1", "ward", "W4");
        let snap = store.snapshot();
        assert_matches_store(&snap, &store);
        store.insert_literal("b:2", "name", "Mary");
        let snap = store.snapshot();
        assert_matches_store(&snap, &store);
        assert_eq!(published.len(), 2);
    }

    #[test]
    fn truncated_history_forces_rebuild() {
        let mut store = TripleStore::new();
        store.snapshot();
        store.insert_literal("b:1", "name", "John");
        store.journal_mut().truncate();
        store.insert_literal("b:2", "name", "Mary");
        let snap = store.snapshot();
        assert_matches_store(&snap, &store);
    }

    #[test]
    fn replaced_atom_table_forces_rebuild() {
        let mut store = TripleStore::new();
        store.atom("old:1");
        store.snapshot();
        store.clear();
        store.insert_literal("b:1", "name", "John");
        let snap = store.snapshot();
        assert_matches_store(&snap, &store);
        assert_eq!(snap.find_atom("old:1"), None);
        store.insert_literal("b:2", "name", "Mary");
        assert_matches_store(&store.snapshot(), &store);
    }

    #[test]
    fn held_snapshots_survive_interning_clear_and_undo() {
        let mut store = TripleStore::new().with_fold_limit(8);
        store.insert_resource("b:1", "member", "s:1");
        store.insert_literal("s:1", "name", "John");
        let published = store.revision();
        store.insert_resource("b:1", "member", "s:2");
        store.insert_literal("s:2", "name", "Mary");
        // Held with a delta and a tail of atoms the base does not know.
        let held = store.snapshot();
        assert_eq!(held.delta_len(), 4);
        let query = members_with_names(&held);
        let answers = || {
            let scan: Vec<Triple> = held.scan_subject("b:1").collect();
            (scan, named_rows(&held, &query), held.digest())
        };
        let before = answers();
        assert_eq!(before.1.len(), 2);

        // The writer interns a few atoms, which later snapshots add to
        // the tail the held one shares, then enough to fold ...
        for i in 0..3 {
            store.atom(&format!("late:{i}"));
        }
        assert!(store.snapshot().shares_base(&held));
        assert_eq!(answers(), before);
        for i in 3..5000 {
            store.atom(&format!("late:{i}"));
        }
        for i in 0..8 {
            store.insert_literal("s:3", "seq", &i.to_string());
        }
        assert!(!store.snapshot().shares_base(&held));
        assert_eq!(answers(), before);
        // ... undoes below the held revision ...
        store.undo_to(published).unwrap();
        assert_matches_store(&store.snapshot(), &store);
        assert_eq!(answers(), before);
        // ... and replaces its atom table.
        store.clear();
        store.insert_literal("b:1", "name", "Omar");
        assert_matches_store(&store.snapshot(), &store);
        assert_eq!(answers(), before);
    }

    #[test]
    fn snapshots_are_send_and_sync() {
        fn takes_send_sync<T: Send + Sync + 'static>(_: T) {}
        takes_send_sync(Snapshot::empty());
        let snap = TripleStore::new().snapshot();
        let handle = std::thread::spawn(move || snap.len());
        assert_eq!(handle.join().unwrap(), 0);
    }

    #[test]
    fn snapshot_join_runs_conjunctive_queries() {
        let mut store = TripleStore::new();
        store.insert_resource("b:1", "member", "s:1");
        store.insert_resource("b:1", "member", "s:2");
        store.insert_resource("b:2", "member", "s:3");
        store.insert_literal("s:1", "name", "alpha");
        store.insert_literal("s:2", "name", "beta");
        store.insert_literal("s:3", "name", "alpha");
        let mut store = folded(store);
        let snap = store.snapshot();

        // Scraps in bundle b:1 with their names — 2-pattern join.
        let q = members_with_names(&snap);
        assert_eq!(named_rows(&snap, &q), [["s:1", "alpha"], ["s:2", "beta"]]);
        assert_eq!(q.solve(&snap).unwrap(), q.solve(&store).unwrap());

        // Join on a literal: subjects sharing the same name.
        let mut q = ConjQuery::new();
        let (a, b, n) = (q.var("a"), q.var("b"), q.var("n"));
        let name = snap.find_atom("name").unwrap();
        q.pattern(a, name, n).pattern(b, name, n);
        // (s1,s1) (s1,s3) (s2,s2) (s3,s1) (s3,s3)
        assert_eq!(q.solve(&snap).unwrap().len(), 5);

        // The old snapshot keeps answering the same join after new
        // writes; a delta-carrying snapshot sees them.
        store.insert_resource("b:1", "member", "s:9");
        store.insert_literal("s:9", "name", "gamma");
        let after = store.snapshot();
        assert!(after.shares_base(&snap) && after.delta_len() == 2);
        let q = members_with_names(&after);
        assert_eq!(q.solve(&snap).unwrap().len(), 2);
        assert_eq!(q.solve(&after).unwrap().len(), 3);
    }

    #[test]
    fn snapshot_join_handles_edge_shapes() {
        let mut store = TripleStore::new();
        store.insert_resource("a", "p", "a");
        store.insert_resource("a", "p", "b");
        let snap = store.snapshot();
        let atom = |s| snap.find_atom(s).unwrap();
        // Repeated variable within one pattern: diagonal only.
        let mut q = ConjQuery::new();
        let x = q.var("x");
        q.pattern(x, atom("p"), x);
        assert_eq!(named_rows(&snap, &q), [["a"]]);
        assert_eq!(q.solve(&snap).unwrap(), [[Value::Resource(atom("a"))]]);
        // An empty query is refused; an unmatched constant yields nothing,
        // and a name the snapshot never interned has no atom at all.
        assert_eq!(ConjQuery::new().solve(&snap), Err(ConjError::Empty));
        let mut q = ConjQuery::new();
        let x = q.var("x");
        q.pattern(atom("b"), atom("p"), x);
        assert!(q.solve(&snap).unwrap().is_empty());
        assert_eq!(snap.find_atom("oops"), None);
    }

    #[test]
    fn scan_subject_merges_base_and_delta_in_order() {
        let mut store = TripleStore::new();
        store.insert_literal("b:1", "alpha", "1");
        store.insert_literal("b:1", "omega", "2");
        let mut store = folded(store);
        store.insert_literal("b:1", "middle", "3");
        let snap = store.snapshot();
        assert_eq!(snap.delta_len(), 1);
        // Property atom order is interning order, as in the store.
        let props: Vec<&str> = snap.scan_subject("b:1").map(|t| snap.resolve(t.property)).collect();
        assert_eq!(props, ["alpha", "omega", "middle"]);
        let subject = TriplePattern::default().with_subject(store.find_atom("b:1").unwrap());
        assert_eq!(snap.scan_subject("b:1").collect::<Vec<_>>(), store.select(&subject));
    }
}
