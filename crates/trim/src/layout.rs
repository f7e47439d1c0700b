//! The one physical triple layout, shared by the live store and its
//! snapshots.
//!
//! Each permutation (SPO, POS, OSP) is a [`Column`]: a frozen, sorted,
//! `Arc`-shared base plus a small delta of added and deleted keys, one
//! `BTreeSet` each, so a write costs O(log delta). The visible keys are
//! `base − dels ∪ adds`. The [`crate::TripleStore`] folds the delta into
//! a fresh base once it passes the store's fold limit; a
//! [`crate::Snapshot`] is a [`Layout::freeze`] clone of the layout, which
//! shares the base and copies only the delta, as sorted `Vec`s. The
//! merge, seek, count and range code below is the only code that reads
//! triples, for the store and snapshots alike.

use std::collections::BTreeSet;
use std::fmt::Debug;
use std::sync::Arc;

use crate::plan::{Access, IndexKind, Plan};
use crate::runs::{OspKey, PosKey, SpoKey};
use crate::store::{Triple, TriplePattern};

/// A key of one permutation: a triple with its fields reordered so that
/// the key's derived `Ord` is the permutation's sort order.
pub(crate) trait Key: Ord + Copy + Debug + 'static {
    fn of(t: Triple) -> Self;
    fn triple(k: Self) -> Triple;
}

impl Key for SpoKey {
    fn of(t: Triple) -> Self {
        (t.subject, t.property, t.object)
    }
    fn triple((subject, property, object): Self) -> Triple {
        Triple { subject, property, object }
    }
}

impl Key for PosKey {
    fn of(t: Triple) -> Self {
        (t.property, t.object, t.subject)
    }
    fn triple((property, object, subject): Self) -> Triple {
        Triple { subject, property, object }
    }
}

impl Key for OspKey {
    fn of(t: Triple) -> Self {
        (t.object, t.subject, t.property)
    }
    fn triple((object, subject, property): Self) -> Triple {
        Triple { subject, property, object }
    }
}

/// `base − dels ∪ adds` in sort order, given one key range of each part
/// (`dels ⊆ base`): the one merge every read and every fold runs
/// through. The next add and the next del wait in `add` and `del`.
struct Merge<'a, K, A, D> {
    base: &'a [K],
    add: Option<K>,
    adds: A,
    del: Option<K>,
    dels: D,
}

fn merge<'a, K: Copy + 'a, A, D>(base: &'a [K], mut adds: A, mut dels: D) -> Merge<'a, K, A, D>
where
    A: Iterator<Item = &'a K>,
    D: Iterator<Item = &'a K>,
{
    let (add, del) = (adds.next().copied(), dels.next().copied());
    Merge { base, add, adds, del, dels }
}

impl<'a, K: Ord + Copy + 'a, A, D> Iterator for Merge<'a, K, A, D>
where
    A: Iterator<Item = &'a K>,
    D: Iterator<Item = &'a K>,
{
    type Item = K;

    fn next(&mut self) -> Option<K> {
        while let Some((&b, rest)) = self.base.split_first() {
            if let Some(a) = self.add.filter(|&a| a < b) {
                self.add = self.adds.next().copied();
                return Some(a);
            }
            self.base = rest;
            if self.del != Some(b) {
                return Some(b);
            }
            self.del = self.dels.next().copied();
        }
        let a = self.add.take();
        self.add = self.adds.next().copied();
        a
    }

    /// Runs of base keys below the next add and the next del pass
    /// through in one tight loop; only the delta's keys take `next`.
    fn fold<B, F: FnMut(B, K) -> B>(mut self, mut acc: B, mut f: F) -> B {
        loop {
            let (add, del) = (self.add, self.del);
            let clear =
                run_len(self.base, |&b| add.is_none_or(|a| b < a) && del.is_none_or(|d| b < d));
            let (run, rest) = self.base.split_at(clear);
            acc = run.iter().fold(acc, |acc, &b| f(acc, b));
            self.base = rest;
            match self.next() {
                Some(k) => acc = f(acc, k),
                None => return acc,
            }
        }
    }
}

/// How many leading keys of sorted `keys` satisfy `holds`, which is true
/// up to some key and false from there on. Gallops from the front, so a
/// short run costs O(log run).
fn run_len<K>(keys: &[K], holds: impl Fn(&K) -> bool) -> usize {
    let mut bound = 1;
    while bound < keys.len() && holds(&keys[bound - 1]) {
        bound *= 2;
    }
    let start = bound / 2;
    start + keys[start..bound.min(keys.len())].partition_point(holds)
}

/// A sorted set of delta keys, read from a key on.
pub(crate) trait Delta<K: Key>: Clone + Debug + Default {
    fn from(&self, lo: K) -> impl Iterator<Item = &K>;
    fn len(&self) -> usize;
}

impl<K: Key> Delta<K> for BTreeSet<K> {
    fn from(&self, lo: K) -> impl Iterator<Item = &K> {
        self.range(lo..)
    }
    fn len(&self) -> usize {
        BTreeSet::len(self)
    }
}

impl<K: Key> Delta<K> for Vec<K> {
    fn from(&self, lo: K) -> impl Iterator<Item = &K> {
        self[self.partition_point(|k| *k < lo)..].iter()
    }
    fn len(&self) -> usize {
        Vec::len(self)
    }
}

/// How a layout holds its delta: the store writes `BTreeSet`s, a
/// snapshot reads sorted `Vec`s, which are cheaper to copy.
pub(crate) trait Form: Clone + Debug + Default {
    type Delta<K: Key>: Delta<K>;
}

/// The store's form.
#[derive(Debug, Clone, Default)]
pub(crate) struct Live;

impl Form for Live {
    type Delta<K: Key> = BTreeSet<K>;
}

/// A snapshot's form.
#[derive(Debug, Clone, Default)]
pub(crate) struct Frozen;

impl Form for Frozen {
    type Delta<K: Key> = Vec<K>;
}

/// One permutation: a frozen sorted base and the keys added to and
/// deleted from it since it was folded (`dels ⊆ base`, `adds` disjoint
/// from `base`).
#[derive(Debug, Clone)]
pub(crate) struct Column<K: Key, F: Form> {
    base: Arc<Vec<K>>,
    adds: F::Delta<K>,
    dels: F::Delta<K>,
}

impl<K: Key, F: Form> Default for Column<K, F> {
    fn default() -> Self {
        Column { base: Arc::default(), adds: Default::default(), dels: Default::default() }
    }
}

impl<K: Key, F: Form> Column<K, F> {
    fn len(&self) -> usize {
        self.base.len() + self.adds.len() - self.dels.len()
    }

    /// The base keys in `lo..=hi`.
    fn base_within(&self, lo: K, hi: K) -> &[K] {
        let keys = &self.base[self.base.partition_point(|k| *k < lo)..];
        &keys[..run_len(keys, |k| *k <= hi)]
    }

    /// The visible triples between `lo` and `hi` in this permutation's
    /// order.
    pub(crate) fn triples(&self, lo: Triple, hi: Triple) -> impl Iterator<Item = Triple> + '_ {
        let (lo, hi) = (K::of(lo), K::of(hi));
        let adds = self.adds.from(lo).take_while(move |k| **k <= hi);
        let dels = self.dels.from(lo).take_while(move |k| **k <= hi);
        merge(self.base_within(lo, hi), adds, dels).map(K::triple)
    }

    /// The first visible key >= `from`.
    pub(crate) fn seek(&self, from: K) -> Option<K> {
        let base = &self.base[self.base.partition_point(|k| *k < from)..];
        merge(base, self.adds.from(from), self.dels.from(from)).next()
    }

    /// Number of visible triples between `lo` and `hi`.
    fn count(&self, lo: Triple, hi: Triple) -> usize {
        let (lo, hi) = (K::of(lo), K::of(hi));
        let within = |delta: &F::Delta<K>| delta.from(lo).take_while(|k| **k <= hi).count();
        self.base_within(lo, hi).len() + within(&self.adds) - within(&self.dels)
    }
}

impl<K: Key> Column<K, Live> {
    /// Make `t` visible. The layout adds only absent triples; a mutation
    /// test may call this on one column alone.
    pub(crate) fn add(&mut self, t: Triple) {
        let k = K::of(t);
        if !self.dels.remove(&k) {
            self.adds.insert(k);
        }
    }

    /// Hide `t`. The layout deletes only present triples; a mutation test
    /// may call this on one column alone.
    pub(crate) fn del(&mut self, t: Triple) {
        let k = K::of(t);
        if !self.adds.remove(&k) {
            self.dels.insert(k);
        }
    }

    fn contains(&self, k: &K) -> bool {
        self.adds.contains(k) || (!self.dels.contains(k) && self.base.binary_search(k).is_ok())
    }

    /// The same column with its delta copied into sorted `Vec`s.
    fn freeze(&self) -> Column<K, Frozen> {
        let copy = |delta: &BTreeSet<K>| delta.iter().copied().collect();
        Column { base: Arc::clone(&self.base), adds: copy(&self.adds), dels: copy(&self.dels) }
    }

    /// Freeze the visible keys plus `new` (none visible) into a fresh
    /// base and empty the delta: one sort and one merge.
    fn fold(&mut self, new: &[Triple]) {
        let mut visible = Vec::with_capacity(self.len());
        merge(&self.base, self.adds.iter(), self.dels.iter()).for_each(|k| visible.push(k));
        let mut new: Vec<K> = new.iter().map(|&t| K::of(t)).collect();
        new.sort_unstable();
        // A union: the longer side streams as the base, and an empty side
        // costs no copy (a load into an empty store).
        if visible.len() < new.len() {
            std::mem::swap(&mut visible, &mut new);
        }
        if !new.is_empty() {
            let mut base = Vec::with_capacity(visible.len() + new.len());
            merge(&visible, new.iter(), [].iter()).for_each(|k| base.push(k));
            visible = base;
        }
        self.base = Arc::new(visible);
        self.adds.clear();
        self.dels.clear();
    }

    /// # Panics
    ///
    /// If the base is unsorted or the delta does not fit it.
    fn check(&self, name: &str) {
        assert!(self.base.windows(2).all(|w| w[0] < w[1]), "{name} base is not strictly sorted");
        assert!(self.adds.iter().all(|k| self.base.binary_search(k).is_err()), "{name} adds");
        assert!(self.dels.iter().all(|k| self.base.binary_search(k).is_ok()), "{name} dels");
    }
}

/// One triple set as the three permutation columns.
#[derive(Debug, Clone, Default)]
pub(crate) struct Layout<F: Form = Live> {
    pub(crate) spo: Column<SpoKey, F>,
    pub(crate) pos: Column<PosKey, F>,
    pub(crate) osp: Column<OspKey, F>,
}

/// The permutation the plan for `pattern` reads: its bound fields lead
/// that permutation's sort order (see [`crate::plan`]), so the matches
/// are the one range between the pattern's bounds.
fn index_for(pattern: &TriplePattern) -> IndexKind {
    match Plan::for_pattern(pattern).access {
        Access::Probe | Access::FullScan => IndexKind::Spo,
        Access::Scan { index, .. } => index,
    }
}

impl<F: Form> Layout<F> {
    pub(crate) fn len(&self) -> usize {
        self.spo.len()
    }

    /// Changed triples since the last fold.
    pub(crate) fn delta_len(&self) -> usize {
        self.spo.adds.len() + self.spo.dels.len()
    }

    /// True if both layouts read the same frozen base.
    pub(crate) fn shares_base(&self, other: &Layout<F>) -> bool {
        Arc::ptr_eq(&self.spo.base, &other.spo.base)
    }

    /// The triples matching `pattern`, in SPO order.
    pub(crate) fn spo_matches(&self, pattern: &TriplePattern) -> impl Iterator<Item = Triple> + '_ {
        let (lo, hi) = pattern.bounds();
        self.spo.triples(lo, hi)
    }

    /// The triples matching `pattern`, in the order of the permutation
    /// its plan reads.
    pub(crate) fn select(&self, pattern: &TriplePattern) -> Vec<Triple> {
        let (lo, hi) = pattern.bounds();
        let mut out = Vec::new();
        match index_for(pattern) {
            IndexKind::Spo => self.spo.triples(lo, hi).for_each(|t| out.push(t)),
            IndexKind::Pos => self.pos.triples(lo, hi).for_each(|t| out.push(t)),
            IndexKind::Osp => self.osp.triples(lo, hi).for_each(|t| out.push(t)),
        }
        out
    }

    /// Triples matching `pattern`, counted off the same permutation as
    /// [`Layout::select`] without visiting them.
    pub(crate) fn count(&self, pattern: &TriplePattern) -> usize {
        let (lo, hi) = pattern.bounds();
        match index_for(pattern) {
            IndexKind::Spo => self.spo.count(lo, hi),
            IndexKind::Pos => self.pos.count(lo, hi),
            IndexKind::Osp => self.osp.count(lo, hi),
        }
    }
}

impl Layout {
    /// Add `t` to every permutation. Returns `true` if it was new.
    pub(crate) fn insert(&mut self, t: Triple) -> bool {
        if self.contains(&t) {
            return false;
        }
        self.spo.add(t);
        self.pos.add(t);
        self.osp.add(t);
        true
    }

    /// Drop `t` from every permutation. Returns `true` if it was present.
    pub(crate) fn remove(&mut self, t: Triple) -> bool {
        if !self.contains(&t) {
            return false;
        }
        self.spo.del(t);
        self.pos.del(t);
        self.osp.del(t);
        true
    }

    /// True if the exact triple is visible (SPO is the membership set).
    pub(crate) fn contains(&self, t: &Triple) -> bool {
        self.spo.contains(&SpoKey::of(*t))
    }

    /// The layout a snapshot reads: the same base, the delta copied.
    pub(crate) fn freeze(&self) -> Layout<Frozen> {
        Layout { spo: self.spo.freeze(), pos: self.pos.freeze(), osp: self.osp.freeze() }
    }

    /// Fold the delta and `new` (sorted, none present) into a fresh base.
    pub(crate) fn fold(&mut self, new: &[Triple]) {
        self.spo.fold(new);
        self.pos.fold(new);
        self.osp.fold(new);
    }

    /// # Panics
    ///
    /// If a column is malformed or the three disagree on the triples.
    pub(crate) fn check(&self) {
        self.spo.check("SPO");
        self.pos.check("POS");
        self.osp.check("OSP");
        assert_eq!(self.pos.len(), self.spo.len(), "POS size disagrees with SPO");
        assert_eq!(self.osp.len(), self.spo.len(), "OSP size disagrees with SPO");
        // Equal sizes plus SPO ⊆ POS/OSP makes the three permutations equal.
        for t in self.spo_matches(&TriplePattern::default()) {
            assert!(self.pos.contains(&PosKey::of(t)), "triple missing from POS");
            assert!(self.osp.contains(&OspKey::of(t)), "triple missing from OSP");
        }
    }
}
