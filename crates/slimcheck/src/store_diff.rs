//! Store-layer differential check: one op sequence driven simultaneously
//! through [`TripleStore`] (the real stack), [`NaiveStore`] (the
//! scan-everything baseline), and a `BTreeSet` oracle, with the journal
//! checked against a snapshot stack and every save round-tripped —
//! including crash saves through the fault-injecting VFS. The store
//! folds its delta every few changes, so every sequence crosses folds
//! and undoes across them.
//!
//! Every check here panics on divergence; the harness in `lib.rs` catches
//! the panic, shrinks the sequence, and reports a replay seed.

use crate::ops::{StoreOp, OBJECTS, PROPS, SUBJECTS};
use crate::Mutation;
use slimio::{FaultConfig, FaultMode, FaultOp, FaultVfs, MemVfs, Vfs};
use std::collections::BTreeSet;
use std::path::Path;
use trim::{NaiveStore, PatternShape, Plan, Revision, Triple, TriplePattern, TripleStore, Value};

const SAVE_PATH: &str = "slimcheck/store.xml";
/// Changed triples past which the store folds its delta: small, so
/// folds are common.
const FOLD_LIMIT: usize = 3;
const FAULT_OPS: [FaultOp; 3] = [FaultOp::Write, FaultOp::Sync, FaultOp::Rename];
const FAULT_MODES: [FaultMode; 3] = [FaultMode::Fail, FaultMode::Torn, FaultMode::SilentTorn];

type ModelTriple = (String, String, String, bool);
/// A query shape: optional subject/property indices and an optional
/// `(object index, is_resource)` pair.
type Shape = (Option<usize>, Option<usize>, Option<(usize, bool)>);

/// Run `ops` through the full store world; panics on any divergence.
pub fn check(ops: &[StoreOp], mutation: Mutation) {
    let mut world = World::new();
    for op in ops {
        world.apply(op, mutation);
        world.verify();
    }
    world.pattern_sweep();
    // Index invariants run once at the end of the sequence, *after* the
    // sweep: an index left stale mid-sequence is reported as the query
    // divergence that observed it (naming the pattern shape), not as an
    // anonymous structural failure.
    world.store.check_invariants();
}

struct World {
    store: TripleStore,
    naive: NaiveStore,
    oracle: BTreeSet<ModelTriple>,
    /// Every triple the oracle ever held — salvage may recover any
    /// prefix of a past save, but must never invent triples.
    ever_inserted: BTreeSet<ModelTriple>,
    /// `(journal revision, oracle snapshot)` pairs; `Undo` restores one
    /// and truncates the stack (later revisions no longer exist).
    checkpoints: Vec<(Revision, BTreeSet<ModelTriple>)>,
    disk: MemVfs,
    /// Contents of the last successful durable save, if any.
    last_good: Option<BTreeSet<ModelTriple>>,
}

impl World {
    fn new() -> Self {
        let store = TripleStore::new().with_fold_limit(FOLD_LIMIT);
        let checkpoints = vec![(store.revision(), BTreeSet::new())];
        World {
            store,
            naive: NaiveStore::new(),
            oracle: BTreeSet::new(),
            ever_inserted: BTreeSet::new(),
            checkpoints,
            disk: MemVfs::new(),
            last_good: None,
        }
    }

    fn intern(&mut self, s: usize, p: usize, o: usize, res: bool) -> Triple {
        let subject = self.store.atom(SUBJECTS[s]);
        let property = self.store.atom(PROPS[p]);
        let object = if res {
            Value::Resource(self.store.atom(OBJECTS[o]))
        } else {
            self.store.literal_value(OBJECTS[o])
        };
        Triple { subject, property, object }
    }

    fn apply(&mut self, op: &StoreOp, mutation: Mutation) {
        match *op {
            StoreOp::Insert { s, p, o, res } => {
                let t = self.intern(s, p, o, res);
                let added = self.store.insert(t.subject, t.property, t.object);
                if added && mutation == Mutation::SkipSubjectIndex {
                    self.store.testonly_unindex_subject(t);
                }
                let key = model_key(s, p, o, res);
                let naive_added = self.naive.insert(SUBJECTS[s], PROPS[p], OBJECTS[o], res);
                let oracle_added = self.oracle.insert(key.clone());
                self.ever_inserted.insert(key);
                assert_eq!(added, naive_added, "insert: store vs naive on {op:?}");
                assert_eq!(added, oracle_added, "insert: store vs oracle on {op:?}");
            }
            StoreOp::Remove { s, p, o, res } => {
                let t = self.intern(s, p, o, res);
                let removed = self.store.remove(t);
                if removed && mutation == Mutation::SkipPosIndexOnRemove {
                    self.store.testonly_reinsert_pos(t);
                }
                let naive_removed = self.naive.remove_exact(SUBJECTS[s], PROPS[p], OBJECTS[o], res);
                let oracle_removed = self.oracle.remove(&model_key(s, p, o, res));
                assert_eq!(removed, naive_removed, "remove: store vs naive on {op:?}");
                assert_eq!(removed, oracle_removed, "remove: store vs oracle on {op:?}");
            }
            StoreOp::SetUnique { s, p, o, res } => {
                let t = self.intern(s, p, o, res);
                if mutation == Mutation::LossySetUnique {
                    // Seeded bug: forget to clear the old values.
                    self.store.insert(t.subject, t.property, t.object);
                } else {
                    self.store.set_unique(t.subject, t.property, t.object);
                }
                self.naive.set_unique(SUBJECTS[s], PROPS[p], OBJECTS[o], res);
                self.oracle.retain(|(ms, mp, _, _)| !(ms == SUBJECTS[s] && mp == PROPS[p]));
                let key = model_key(s, p, o, res);
                self.oracle.insert(key.clone());
                self.ever_inserted.insert(key);
            }
            StoreOp::RemoveMatching { s, p, o } => {
                let pattern = self.pattern(s, p, o);
                let removed = self.store.remove_matching(&pattern);
                let naive_removed = self.naive.remove_matching(
                    s.map(|i| SUBJECTS[i]),
                    p.map(|i| PROPS[i]),
                    o.map(|(i, res)| (OBJECTS[i], res)),
                );
                let before = self.oracle.len();
                self.oracle.retain(|t| !model_matches(t, s, p, o));
                let oracle_removed = before - self.oracle.len();
                assert_eq!(removed, naive_removed, "remove_matching: store vs naive on {op:?}");
                assert_eq!(removed, oracle_removed, "remove_matching: store vs oracle on {op:?}");
            }
            StoreOp::QueryShape { s, p, o } => {
                self.query_shape(s, p, o);
            }
            StoreOp::Checkpoint => {
                self.checkpoints.push((self.store.revision(), self.oracle.clone()));
            }
            StoreOp::Undo { back } => {
                let idx = self.checkpoints.len() - 1 - (back % self.checkpoints.len());
                let (rev, snapshot) = self.checkpoints[idx].clone();
                if mutation != Mutation::UndoNoop {
                    self.store.undo_to(rev).expect("recorded revision must be undoable");
                }
                self.oracle = snapshot;
                self.rebuild_naive();
                // Later checkpoints reference revisions that no longer
                // exist after the undo; drop them.
                self.checkpoints.truncate(idx + 1);
            }
            StoreOp::Save => {
                self.store
                    .save_to(&self.disk, Path::new(SAVE_PATH))
                    .expect("MemVfs save cannot fail");
                let loaded = TripleStore::load_from(&self.disk, Path::new(SAVE_PATH))
                    .expect("fresh save must load strictly");
                assert_eq!(contents(&loaded), self.oracle, "save/load round-trip diverged");
                let salvaged = TripleStore::load_salvage_from(&self.disk, Path::new(SAVE_PATH))
                    .expect("fresh save must salvage");
                assert!(salvaged.is_clean(), "fresh save salvage reported damage");
                assert_eq!(contents(&salvaged.value), self.oracle, "salvage of fresh save diverged");
                self.last_good = Some(self.oracle.clone());
            }
            StoreOp::CrashSave { fault, mode, tear_seed } => {
                self.crash_save(fault, mode, tear_seed);
                self.torn_destination_salvage(tear_seed);
            }
        }
    }

    fn rebuild_naive(&mut self) {
        self.naive = NaiveStore::new();
        for (s, p, o, res) in &self.oracle {
            self.naive.insert(s, p, o, *res);
        }
    }

    fn pattern(
        &mut self,
        s: Option<usize>,
        p: Option<usize>,
        o: Option<(usize, bool)>,
    ) -> TriplePattern {
        let mut pattern = TriplePattern::default();
        if let Some(s) = s {
            let a = self.store.atom(SUBJECTS[s]);
            pattern = pattern.with_subject(a);
        }
        if let Some(p) = p {
            let a = self.store.atom(PROPS[p]);
            pattern = pattern.with_property(a);
        }
        if let Some((o, res)) = o {
            let v = if res {
                let a = self.store.atom(OBJECTS[o]);
                Value::Resource(a)
            } else {
                self.store.literal_value(OBJECTS[o])
            };
            pattern = pattern.with_object(v);
        }
        pattern
    }

    /// Attempt a save with an injected fault on a *clone* of the disk,
    /// then assert the crash-safety contract on the post-crash state.
    fn crash_save(&mut self, fault: usize, mode: usize, tear_seed: u64) {
        let config = FaultConfig::new(
            FAULT_OPS[fault % FAULT_OPS.len()],
            FAULT_MODES[mode % FAULT_MODES.len()],
            0,
            tear_seed,
        )
        .halting();
        let vfs = FaultVfs::new(self.disk.clone(), config);
        let result = self.store.save_to(&vfs, Path::new(SAVE_PATH));
        let fired = vfs.fault_fired();
        let after = vfs.into_inner();
        let loaded = TripleStore::load_from(&after, Path::new(SAVE_PATH)).map(|s| contents(&s));
        match (&result, fired) {
            (Ok(()), false) => {
                // The scheduled fault never triggered (e.g. targeting an
                // op the save doesn't reach); this is a plain save.
                assert_eq!(
                    loaded.expect("clean save must load"),
                    self.oracle,
                    "clean crash-save load diverged"
                );
            }
            (Ok(()), true) => {
                // Lying disk: save claims success but the fault fired
                // (silent-torn rename = "reported done, never happened").
                // The destination must hold either the old good file or
                // the new contents — never garbage that loads.
                match loaded {
                    Ok(c) => assert!(
                        Some(&c) == self.last_good.as_ref() || c == self.oracle,
                        "post-lying-save contents are neither old nor new"
                    ),
                    Err(_) => assert!(
                        self.last_good.is_none(),
                        "lying save destroyed the previous good file"
                    ),
                }
            }
            (Err(_), _) => {
                // The durability contract: a failed save leaves the
                // previous version untouched.
                match &self.last_good {
                    Some(good) => assert_eq!(
                        loaded.as_ref().ok(),
                        Some(good),
                        "failed save must leave the previous good file loadable"
                    ),
                    None => assert!(
                        loaded.is_err(),
                        "failed first save must not leave a loadable destination"
                    ),
                }
            }
        }
        // Salvage must never panic and never invent triples, whatever
        // state the crash left behind.
        if after.bytes(Path::new(SAVE_PATH)).is_some() {
            if let Ok(recovered) = TripleStore::load_salvage_from(&after, Path::new(SAVE_PATH)) {
                let got = contents(&recovered.value);
                assert!(
                    got.is_subset(&self.ever_inserted),
                    "salvage invented triples never inserted"
                );
            }
        }
    }

    /// Simulate a non-atomic writer: a torn sealed payload lands directly
    /// at the destination. Salvage must recover a subset of what was
    /// really there, or fail cleanly — never panic, never fabricate.
    fn torn_destination_salvage(&self, tear_seed: u64) {
        let sealed = slimio::seal(&self.store.to_xml());
        let keep = (tear_seed % (sealed.len() as u64 + 1)) as usize;
        let torn_disk = self.disk.clone();
        torn_disk
            .write(Path::new(SAVE_PATH), &sealed.as_bytes()[..keep])
            .expect("MemVfs write cannot fail");
        if let Ok(recovered) = TripleStore::load_salvage_from(&torn_disk, Path::new(SAVE_PATH)) {
            let got = contents(&recovered.value);
            assert!(
                got.is_subset(&self.ever_inserted),
                "torn-file salvage invented triples never inserted"
            );
        }
    }

    /// Probe one query shape mid-sequence: select/count against the
    /// oracle, and the planner must have picked the table's plan for the
    /// pattern's shape. Failure messages carry the shape name so a shrunk
    /// counterexample states which pattern shape went wrong.
    fn query_shape(&mut self, s: Option<usize>, p: Option<usize>, o: Option<(usize, bool)>) {
        let pattern = self.pattern(s, p, o);
        let plan = self.store.explain(&pattern);
        // Independently derive the expected shape from the op's bound
        // fields — `explain` must classify the pattern the same way.
        let expected_shape = match (s.is_some(), p.is_some(), o.is_some()) {
            (false, false, false) => PatternShape::Unbound,
            (true, false, false) => PatternShape::S,
            (false, true, false) => PatternShape::P,
            (false, false, true) => PatternShape::O,
            (true, true, false) => PatternShape::Sp,
            (true, false, true) => PatternShape::So,
            (false, true, true) => PatternShape::Po,
            (true, true, true) => PatternShape::Spo,
        };
        assert_eq!(
            plan,
            Plan::for_shape(expected_shape),
            "explain chose an off-table plan for shape `{}`",
            expected_shape.name()
        );
        let indexed: BTreeSet<ModelTriple> = self
            .store
            .select(&pattern)
            .into_iter()
            .map(|t| triple_key(&self.store, &t))
            .collect();
        let expected: BTreeSet<ModelTriple> =
            self.oracle.iter().filter(|t| model_matches(t, s, p, o)).cloned().collect();
        assert_eq!(
            indexed,
            expected,
            "query shape `{}` ({plan}) diverged from oracle",
            expected_shape.name()
        );
        assert_eq!(
            self.store.count(&pattern),
            expected.len(),
            "count for shape `{}` diverged from oracle",
            expected_shape.name()
        );
    }

    /// Per-step agreement: contents and length. (Index *invariants* run
    /// once at the end of the sequence — see [`check`] — so a stale index
    /// surfaces as a shaped query divergence first.)
    fn verify(&self) {
        assert_eq!(self.store.len(), self.oracle.len(), "store len diverged from oracle");
        assert_eq!(self.naive.len(), self.oracle.len(), "naive len diverged from oracle");
        assert_eq!(contents(&self.store), self.oracle, "store contents diverged from oracle");
        let naive: BTreeSet<ModelTriple> = self
            .naive
            .select_matching(None, None, None)
            .into_iter()
            .map(|t| (t.subject.clone(), t.property.clone(), t.object.clone(), t.object_is_resource))
            .collect();
        assert_eq!(naive, self.oracle, "naive contents diverged from oracle");
    }

    /// Exhaustive pattern sweep at the end of the sequence: every query
    /// shape over the vocabulary answers identically in the indexed
    /// store, the naive store, and the oracle.
    fn pattern_sweep(&mut self) {
        let mut shapes: Vec<Shape> = Vec::new();
        for s in std::iter::once(None).chain((0..SUBJECTS.len()).map(Some)) {
            for p in std::iter::once(None).chain((0..PROPS.len()).map(Some)) {
                for o in std::iter::once(None)
                    .chain((0..OBJECTS.len()).flat_map(|i| [Some((i, false)), Some((i, true))]))
                {
                    shapes.push((s, p, o));
                }
            }
        }
        for (s, p, o) in shapes {
            let pattern = self.pattern(s, p, o);
            let indexed: BTreeSet<ModelTriple> = self
                .store
                .select(&pattern)
                .into_iter()
                .map(|t| triple_key(&self.store, &t))
                .collect();
            let expected: BTreeSet<ModelTriple> =
                self.oracle.iter().filter(|t| model_matches(t, s, p, o)).cloned().collect();
            assert_eq!(indexed, expected, "select diverged for shape ({s:?},{p:?},{o:?})");
            assert_eq!(
                self.store.count(&pattern),
                expected.len(),
                "count diverged for shape ({s:?},{p:?},{o:?})"
            );
        }
    }
}

fn model_key(s: usize, p: usize, o: usize, res: bool) -> ModelTriple {
    (SUBJECTS[s].to_string(), PROPS[p].to_string(), OBJECTS[o].to_string(), res)
}

fn model_matches(
    t: &ModelTriple,
    s: Option<usize>,
    p: Option<usize>,
    o: Option<(usize, bool)>,
) -> bool {
    s.is_none_or(|i| t.0 == SUBJECTS[i])
        && p.is_none_or(|i| t.1 == PROPS[i])
        && o.is_none_or(|(i, res)| t.2 == OBJECTS[i] && t.3 == res)
}

fn triple_key(store: &TripleStore, t: &Triple) -> ModelTriple {
    (
        store.resolve(t.subject).to_string(),
        store.resolve(t.property).to_string(),
        store.value_text(t.object).to_string(),
        t.object.is_resource(),
    )
}

fn contents(store: &TripleStore) -> BTreeSet<ModelTriple> {
    store.iter().map(|t| triple_key(store, &t)).collect()
}
