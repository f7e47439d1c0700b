//! Snapshot-isolated read views over a [`TripleStore`].
//!
//! A concurrent front-end (the `slimserve` crate) has one writer thread
//! that owns the mutable [`TripleStore`] and many reader sessions that
//! must see a *consistent* state without blocking the writer. A
//! [`Snapshot`] holds the same atom-level triples the store does, and it
//! implements [`Runs`], so [`crate::ConjQuery::solve`] joins it through
//! the same code that joins the live store.
//!
//! Publishing is copy-on-write: a [`SnapshotPublisher`] keeps a large
//! immutable base — three dense sorted columns (SPO, POS, OSP) copied
//! straight from the store's permutation indexes, in atom order — shared
//! by every outstanding snapshot, plus a small adds/dels delta rebuilt
//! from the store's [`Journal`] after each commit. Readers holding old
//! snapshots keep the base alive for free; the writer only pays O(delta)
//! per publish until the delta grows past
//! [`SnapshotPublisher::FOLD_LIMIT`], at which point it folds into a
//! fresh base.
//!
//! A snapshot names its atoms through a dictionary of its own, since the
//! writer's [`AtomTable`] keeps growing under it. The dictionary follows
//! the base: a copy of the writer's table taken at the last fold, shared
//! by every snapshot since, plus a small tail of the atoms interned after
//! it. Both share the table's string allocations. The tail counts toward
//! the fold limit, so it stays small.
//!
//! The publisher trusts the journal suffix only while the journal can
//! vouch for it: if history was truncated past the last published
//! revision, an undo rewound *below* it (detected through the journal's
//! dedicated snapshot low-water channel — the same contract
//! [`StoreLog::commit`] uses on its own channel), or the store replaced
//! its atom table ([`TripleStore::clear`]), the delta is no longer the
//! difference between the published base and the live store, and the
//! publisher falls back to a full rebuild. A rebuild is always safe —
//! only slower.
//!
//! [`StoreLog::commit`]: crate::wal::StoreLog::commit
//! [`Journal`]: crate::Journal

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::atom::{Atom, AtomTable};
use crate::journal::{Change, Revision};
use crate::plan::{Access, IndexKind, Plan};
use crate::runs::{OspKey, PosKey, Runs, SpoKey};
use crate::store::{
    osp_key, pos_key, spo_key, spo_triple, Triple, TriplePattern, TripleStore, VALUE_MAX,
    VALUE_MIN,
};

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
/// fold, shared by every snapshot since, and the atoms interned after it,
/// numbered on from there.
#[derive(Debug, Clone, Default)]
struct Names {
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

    /// True if `table` is the table these names were copied from, grown
    /// or not: a replaced table allocated its first string afresh.
    fn copied_from(&self, table: &AtomTable) -> bool {
        let first = self.folded.strings_from(0).first().or(self.tail.strings_from(0).first());
        first.is_none_or(|ours| {
            table.strings_from(0).first().is_some_and(|theirs| Arc::ptr_eq(ours, theirs))
        })
    }
}

/// One triple set as three dense sorted permutation columns.
#[derive(Debug, Default)]
struct Columns {
    spo: Vec<SpoKey>,
    pos: Vec<PosKey>,
    osp: Vec<OspKey>,
}

impl Columns {
    /// The columns of a small set (a delta); only POS and OSP need a sort.
    fn of(triples: &BTreeSet<Triple>) -> Columns {
        let mut pos: Vec<PosKey> = triples.iter().map(|&t| pos_key(t)).collect();
        let mut osp: Vec<OspKey> = triples.iter().map(|&t| osp_key(t)).collect();
        pos.sort_unstable();
        osp.sort_unstable();
        Columns { spo: triples.iter().map(|&t| spo_key(t)).collect(), pos, osp }
    }

    fn len(&self) -> usize {
        self.spo.len()
    }

    /// Triples matching `pattern`, counted off the column its plan names:
    /// the bound fields lead that column, so the matches are one range.
    fn count(&self, pattern: &TriplePattern) -> usize {
        let (lo, hi) = pattern.bounds();
        match Plan::for_pattern(pattern).access {
            Access::FullScan => self.len(),
            Access::Probe | Access::Scan { index: IndexKind::Spo, .. } => {
                within(&self.spo, spo_key(lo), spo_key(hi)).len()
            }
            Access::Scan { index: IndexKind::Pos, .. } => {
                within(&self.pos, pos_key(lo), pos_key(hi)).len()
            }
            Access::Scan { index: IndexKind::Osp, .. } => {
                within(&self.osp, osp_key(lo), osp_key(hi)).len()
            }
        }
    }
}

/// The keys of a sorted column in `lo..=hi`.
fn within<K: Ord>(column: &[K], lo: K, hi: K) -> &[K] {
    let start = column.partition_point(|k| *k < lo);
    let end = column.partition_point(|k| *k <= hi).max(start);
    &column[start..end]
}

/// The keys of a sorted column from `from` on.
fn tail<K: Ord>(column: &[K], from: K) -> &[K] {
    &column[column.partition_point(|k| *k < from)..]
}

/// `base − dels ∪ adds` in sort order, given the same key range of one
/// column from each part (`dels ⊆ base`, `adds` disjoint from `base`).
fn visible<'a, K: Ord + Copy>(
    base: &'a [K],
    adds: &'a [K],
    dels: &'a [K],
) -> impl Iterator<Item = K> + 'a {
    let mut dels = dels.iter().peekable();
    let mut base = base.iter().filter(move |k| dels.next_if_eq(k).is_none()).peekable();
    let mut adds = adds.iter().peekable();
    std::iter::from_fn(move || match (base.peek(), adds.peek()) {
        (Some(b), Some(a)) if a < b => adds.next(),
        (Some(_), _) => base.next(),
        (None, _) => adds.next(),
    })
    .copied()
}

/// The first visible key >= `from`.
fn seek<K: Ord + Copy>(base: &[K], adds: &[K], dels: &[K], from: K) -> Option<K> {
    visible(tail(base, from), tail(adds, from), tail(dels, from)).next()
}

/// An immutable, consistent view of a store at one revision.
///
/// Cheap to clone (one `Arc`); safe to ship across threads; never blocks
/// or observes the writer. Logically it is `base ∪ adds − dels` where
/// `adds` and `dels` are disjoint from each other and small relative to
/// `base`.
#[derive(Debug, Clone)]
pub struct Snapshot(Arc<View>);

/// What one published snapshot holds; the base is shared with the
/// snapshots published before it, up to the last fold.
#[derive(Debug)]
struct View {
    names: Names,
    base: Arc<Columns>,
    adds: Columns,
    dels: Columns,
    revision: Revision,
}

impl Snapshot {
    /// An empty snapshot at revision zero.
    pub fn empty() -> Self {
        Snapshot(Arc::new(View {
            names: Names::default(),
            base: Arc::default(),
            adds: Columns::default(),
            dels: Columns::default(),
            revision: Revision::start(),
        }))
    }

    /// The store revision this snapshot reflects.
    pub fn revision(&self) -> Revision {
        self.0.revision
    }

    /// Number of triples visible in this snapshot.
    pub fn len(&self) -> usize {
        self.0.base.len() + self.0.adds.len() - self.0.dels.len()
    }

    /// True if no triples are visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up a string among the atoms this snapshot knows; one interned
    /// after it was published is absent.
    pub fn find_atom(&self, s: &str) -> Option<Atom> {
        self.0.names.get(s)
    }

    /// Iterate every visible triple in SPO order — the store's own
    /// [`TripleStore::iter`] order at this revision.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        visible(&self.0.base.spo, &self.0.adds.spo, &self.0.dels.spo).map(spo_triple)
    }

    /// All visible triples for one subject, in (property, object) order —
    /// the subject-bound range scan readers use, without touching the
    /// writer's indexes. A subject this snapshot never interned has none.
    pub fn scan_subject(&self, subject: &str) -> impl Iterator<Item = Triple> + '_ {
        let s = self.0.names.get(subject);
        let [base, adds, dels] = [&*self.0.base, &self.0.adds, &self.0.dels].map(|part| match s {
            Some(s) => within(&part.spo, (s, Atom::MIN, VALUE_MIN), (s, Atom::MAX, VALUE_MAX)),
            None => &[],
        });
        visible(base, adds, dels).map(spo_triple)
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
        seek(&self.0.base.spo, &self.0.adds.spo, &self.0.dels.spo, from)
    }

    fn seek_pos(&self, from: PosKey) -> Option<PosKey> {
        seek(&self.0.base.pos, &self.0.adds.pos, &self.0.dels.pos, from)
    }

    fn seek_osp(&self, from: OspKey) -> Option<OspKey> {
        seek(&self.0.base.osp, &self.0.adds.osp, &self.0.dels.osp, from)
    }

    fn count(&self, pattern: &TriplePattern) -> usize {
        self.0.base.count(pattern) + self.0.adds.count(pattern) - self.0.dels.count(pattern)
    }

    fn resolve(&self, a: Atom) -> &str {
        self.0.names.resolve(a)
    }
}

/// Why the last [`SnapshotPublisher::publish`] rebuilt (or didn't) —
/// exposed so tests and the service can assert the fast path is taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishPath {
    /// Journal suffix replayed onto the existing base (the fast path).
    Incremental,
    /// Delta grew past the fold limit and was folded into a new base.
    Folded,
    /// Journal could not vouch for the suffix (truncated history, an
    /// undo below the published revision, or a replaced atom table);
    /// base rebuilt from the store.
    Rebuilt,
}

/// The writer-side state that turns a live [`TripleStore`] into
/// [`Snapshot`]s. One publisher per store; call
/// [`SnapshotPublisher::publish`] after each durable commit.
#[derive(Debug)]
pub struct SnapshotPublisher {
    names: Names,
    base: Arc<Columns>,
    adds: BTreeSet<Triple>,
    dels: BTreeSet<Triple>,
    last_rev: Revision,
    fold_limit: usize,
}

impl SnapshotPublisher {
    /// Default delta size at which the base is refolded. The delta counts
    /// the added and deleted triples and the atoms interned since the
    /// last fold.
    pub const FOLD_LIMIT: usize = 4096;

    /// Build a publisher whose first snapshot is the store's current
    /// state (full rebuild).
    pub fn new(store: &mut TripleStore) -> Self {
        let mut p = SnapshotPublisher {
            names: Names::default(),
            base: Arc::default(),
            adds: BTreeSet::new(),
            dels: BTreeSet::new(),
            last_rev: Revision::start(),
            fold_limit: Self::FOLD_LIMIT,
        };
        p.rebuild(store);
        p
    }

    /// Override the fold threshold (tests use a tiny one).
    pub fn with_fold_limit(mut self, limit: usize) -> Self {
        self.fold_limit = limit.max(1);
        self
    }

    /// Freeze the store's indexes into a fresh base: already sorted, so
    /// this is three copies. The dictionary restarts from a copy of the
    /// store's atom table, which shares its strings.
    fn rebuild(&mut self, store: &mut TripleStore) {
        let (spo, pos, osp) = store.indexes();
        self.base = Arc::new(Columns {
            spo: spo.iter().copied().collect(),
            pos: pos.iter().copied().collect(),
            osp: osp.iter().copied().collect(),
        });
        self.names = Names { folded: Arc::new(store.atoms().clone()), tail: Arc::default() };
        self.adds.clear();
        self.dels.clear();
        self.last_rev = store.revision();
        store.journal_mut().reset_snapshot_low_water();
    }

    fn apply(&mut self, change: &Change) {
        let t = change.triple();
        match change {
            Change::Insert(_) => {
                if !self.dels.remove(&t) {
                    self.adds.insert(t);
                }
            }
            Change::Remove(_) => {
                if !self.adds.remove(&t) {
                    self.dels.insert(t);
                }
            }
        }
    }

    /// Publish a snapshot of the store's current state, replaying the
    /// journal suffix since the last publish when the journal can vouch
    /// for it and rebuilding from scratch when it cannot. Returns the
    /// snapshot and which path produced it.
    pub fn publish(&mut self, store: &mut TripleStore) -> (Snapshot, PublishPath) {
        let journal = store.journal();
        let trustworthy = self.names.copied_from(store.atoms())
            && journal.earliest() <= self.last_rev
            && journal.snapshot_low_water() >= self.last_rev
            && store.revision() >= self.last_rev;
        let path = if !trustworthy {
            self.rebuild(store);
            PublishPath::Rebuilt
        } else {
            for change in journal.since(self.last_rev) {
                self.apply(change);
            }
            self.last_rev = store.revision();
            store.journal_mut().reset_snapshot_low_water();
            let new = store.atoms().strings_from(self.names.len());
            if !new.is_empty() {
                let tail = Arc::make_mut(&mut self.names.tail);
                for s in new {
                    tail.push(Arc::clone(s));
                }
            }
            if self.adds.len() + self.dels.len() + self.names.tail.len() > self.fold_limit {
                self.rebuild(store);
                PublishPath::Folded
            } else {
                PublishPath::Incremental
            }
        };
        let snap = Snapshot(Arc::new(View {
            names: self.names.clone(),
            base: Arc::clone(&self.base),
            adds: Columns::of(&self.adds),
            dels: Columns::of(&self.dels),
            revision: self.last_rev,
        }));
        (snap, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conj::{ConjError, ConjQuery};
    use crate::store::Value;

    fn snap_of(store: &mut TripleStore) -> Snapshot {
        SnapshotPublisher::new(store).publish(store).0
    }

    fn assert_matches_store(snap: &Snapshot, store: &TripleStore) {
        let want: Vec<Triple> = store.iter().collect();
        assert_eq!(snap.iter().collect::<Vec<_>>(), want);
        assert_eq!(snap.len(), store.len());
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
        let snap = snap_of(&mut store);
        assert_matches_store(&snap, &store);
        assert_eq!(snap.scan_subject("b:1").count(), 2);
        assert_eq!(snap.scan_subject("s:1").count(), 1);
        assert_eq!(snap.scan_subject("zzz").count(), 0);
    }

    #[test]
    fn old_snapshots_are_isolated_from_later_writes() {
        let mut store = TripleStore::new();
        store.insert_literal("b:1", "name", "John");
        let mut publisher = SnapshotPublisher::new(&mut store);
        let (before, _) = publisher.publish(&mut store);

        let victim = store.insert_literal("b:1", "ward", "W3");
        store.remove(victim);
        store.insert_literal("b:2", "name", "Mary");
        let (after, path) = publisher.publish(&mut store);

        assert_eq!(path, PublishPath::Incremental);
        assert_eq!(before.len(), 1, "old view must not see new writes");
        assert_eq!(before.find_atom("b:2"), None, "nor atoms interned after it");
        assert_eq!(after.len(), 2);
        assert_matches_store(&after, &store);
        assert!(!after.contains(&victim));
    }

    #[test]
    fn incremental_publish_matches_full_rebuild() {
        let mut store = TripleStore::new();
        let mut publisher = SnapshotPublisher::new(&mut store);
        for i in 0..40 {
            store.insert_literal(&format!("b:{}", i % 7), "seq", &i.to_string());
            if i % 3 == 0 {
                let pat = TripleStore::pattern()
                    .with_subject(store.atom(&format!("b:{}", i % 7)));
                let hits = store.select(&pat);
                if let Some(&first) = hits.first() {
                    store.remove(first);
                }
            }
            let (snap, _) = publisher.publish(&mut store);
            assert_matches_store(&snap, &store);
            assert_eq!(snap.digest(), snap_of(&mut store).digest(), "digest split-invariant");
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
        assert_eq!(snap_of(&mut forward).digest(), snap_of(&mut backward).digest());
        backward.insert_literal("b:3", "name", "Omar");
        assert_ne!(snap_of(&mut forward).digest(), snap_of(&mut backward).digest());
    }

    #[test]
    fn delta_folds_into_base_past_the_limit() {
        let mut store = TripleStore::new();
        // Atoms interned since the last fold count toward the limit too;
        // these are interned before it, so only the triples count.
        for s in ["b:1", "seq", "0", "1", "2", "3"] {
            store.atom(s);
        }
        let mut publisher = SnapshotPublisher::new(&mut store).with_fold_limit(4);
        for i in 0..4 {
            store.insert_literal("b:1", "seq", &i.to_string());
        }
        let (_, path) = publisher.publish(&mut store);
        assert_eq!(path, PublishPath::Incremental);
        store.insert_literal("b:1", "seq", "last");
        let (snap, path) = publisher.publish(&mut store);
        assert_eq!(path, PublishPath::Folded);
        assert_matches_store(&snap, &store);
        assert!(publisher.adds.is_empty() && publisher.dels.is_empty());
        assert!(publisher.names.tail.is_empty());
        // A tail of fresh atoms folds on its own.
        for i in 0..5 {
            store.atom(&format!("fresh:{i}"));
        }
        let (snap, path) = publisher.publish(&mut store);
        assert_eq!(path, PublishPath::Folded);
        assert_eq!(snap.find_atom("fresh:4"), store.find_atom("fresh:4"));
    }

    #[test]
    fn undo_below_published_revision_forces_rebuild() {
        let mut store = TripleStore::new();
        store.insert_literal("b:1", "name", "John");
        let mark = store.revision();
        store.insert_literal("b:1", "ward", "W3");
        let mut publisher = SnapshotPublisher::new(&mut store);

        store.undo_to(mark).unwrap();
        store.insert_literal("b:1", "ward", "W4");
        let (snap, path) = publisher.publish(&mut store);
        assert_eq!(path, PublishPath::Rebuilt, "undo crossed the published revision");
        assert_matches_store(&snap, &store);
        // The rebuild re-arms the watermark: publishing resumes the
        // fast path instead of rebuilding forever.
        store.insert_literal("b:2", "name", "Mary");
        let (snap, path) = publisher.publish(&mut store);
        assert_eq!(path, PublishPath::Incremental);
        assert_matches_store(&snap, &store);
    }

    #[test]
    fn truncated_history_forces_rebuild() {
        let mut store = TripleStore::new();
        let mut publisher = SnapshotPublisher::new(&mut store);
        store.insert_literal("b:1", "name", "John");
        store.journal_mut().truncate();
        store.insert_literal("b:2", "name", "Mary");
        // last_rev (0) predates retained history: suffix unverifiable.
        let (snap, path) = publisher.publish(&mut store);
        assert_eq!(path, PublishPath::Rebuilt);
        assert_matches_store(&snap, &store);
    }

    #[test]
    fn replaced_atom_table_forces_rebuild() {
        // Published at revision 0 with atoms interned: the journal alone
        // would vouch for the suffix after a clear.
        let mut store = TripleStore::new();
        store.atom("old:1");
        let mut publisher = SnapshotPublisher::new(&mut store);
        store.clear();
        store.insert_literal("b:1", "name", "John");
        let (snap, path) = publisher.publish(&mut store);
        assert_eq!(path, PublishPath::Rebuilt, "a new table must not extend the old base");
        assert_matches_store(&snap, &store);
        assert_eq!(snap.find_atom("old:1"), None);
        store.insert_literal("b:2", "name", "Mary");
        assert_eq!(publisher.publish(&mut store).1, PublishPath::Incremental);
    }

    #[test]
    fn held_snapshots_survive_interning_clear_and_undo() {
        let mut store = TripleStore::new();
        store.insert_resource("b:1", "member", "s:1");
        store.insert_literal("s:1", "name", "John");
        let mut publisher = SnapshotPublisher::new(&mut store).with_fold_limit(8);
        let published = store.revision();
        store.insert_resource("b:1", "member", "s:2");
        store.insert_literal("s:2", "name", "Mary");
        // Held with a delta and a tail of atoms the base does not know.
        let (held, path) = publisher.publish(&mut store);
        assert_eq!(path, PublishPath::Incremental);
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
        assert_eq!(publisher.publish(&mut store).1, PublishPath::Incremental);
        assert_eq!(answers(), before);
        for i in 3..5000 {
            store.atom(&format!("late:{i}"));
        }
        assert_eq!(publisher.publish(&mut store).1, PublishPath::Folded);
        assert_eq!(answers(), before);
        // ... undoes below the published revision ...
        store.undo_to(published).unwrap();
        assert_eq!(publisher.publish(&mut store).1, PublishPath::Rebuilt);
        assert_eq!(answers(), before);
        // ... and replaces its atom table.
        store.clear();
        store.insert_literal("b:1", "name", "Omar");
        assert_eq!(publisher.publish(&mut store).1, PublishPath::Rebuilt);
        assert_eq!(answers(), before);
    }

    #[test]
    fn snapshots_are_send_and_sync() {
        fn takes_send_sync<T: Send + Sync + 'static>(_: T) {}
        takes_send_sync(Snapshot::empty());
        let snap = snap_of(&mut TripleStore::new());
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
        let snap = snap_of(&mut store);

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
        let mut publisher = SnapshotPublisher::new(&mut store);
        let (before, _) = publisher.publish(&mut store);
        store.insert_resource("b:1", "member", "s:9");
        store.insert_literal("s:9", "name", "gamma");
        let (after, path) = publisher.publish(&mut store);
        assert_eq!(path, PublishPath::Incremental);
        let q = members_with_names(&after);
        assert_eq!(q.solve(&before).unwrap().len(), 2);
        assert_eq!(q.solve(&after).unwrap().len(), 3);
    }

    #[test]
    fn snapshot_join_handles_edge_shapes() {
        let mut store = TripleStore::new();
        store.insert_resource("a", "p", "a");
        store.insert_resource("a", "p", "b");
        let snap = snap_of(&mut store);
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
        let mut publisher = SnapshotPublisher::new(&mut store);
        publisher.publish(&mut store);
        store.insert_literal("b:1", "middle", "3");
        let (snap, _) = publisher.publish(&mut store);
        // Property atom order is interning order, as in the store.
        let props: Vec<&str> = snap.scan_subject("b:1").map(|t| snap.resolve(t.property)).collect();
        assert_eq!(props, ["alpha", "omega", "middle"]);
        let subject = TriplePattern::default().with_subject(store.find_atom("b:1").unwrap());
        assert_eq!(snap.scan_subject("b:1").collect::<Vec<_>>(), store.select(&subject));
    }
}
