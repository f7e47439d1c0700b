//! Conjunctive-engine differential check: seeded random conjunctive
//! queries (2–4 patterns, shared variables, constants skewed onto the
//! live atom pools) run through the planner + leapfrog executor — on the
//! live store and on a [`trim::Snapshot`] published beside it — and
//! compared against two independent oracles:
//!
//! * a **string-level cross-product evaluator** over a `BTreeSet` model
//!   of the triples — shares no code with `trim` at all, so a bug in the
//!   indexes, the planner, or the executor all surface here; and
//! * [`trim::naive_join`] — the in-crate index-free evaluator the bench
//!   baseline and property tests lean on, checked against the same
//!   model so *it* can't silently drift either.
//!
//! The snapshot comes from [`TripleStore::snapshot`] on a store with a
//! fold limit of a few changes, and some queries first undo and redo the
//! newest change across the previous snapshot's revision, so the
//! snapshots queried carry an empty delta, a non-empty one, or follow an
//! undo below the previous snapshot.
//!
//! The conjunctive mutations ([`Mutation::ConjSkipRepeatedVarDedup`],
//! [`Mutation::ConjWrongPosRun`]) route through
//! [`trim::ConjQuery::testonly_solve_with_quirks`] on both inputs;
//! everything else runs the production `solve` path.
//!
//! Every check here panics on divergence; the harness in `lib.rs`
//! catches the panic, shrinks the sequence, and reports a replay seed.

use crate::ops::{ConjOp, OBJECTS, PROPS, SUBJECTS};
use crate::Mutation;
use std::collections::BTreeSet;
use trim::conj::ExecQuirks;
use trim::{naive_join, Change, ConjQuery, Revision, Runs, Triple, TripleStore, Value};

/// `(subject, property, object, object_is_resource)` at string level.
type ModelTriple = (String, String, String, bool);
/// A binding at string level: `(text, is_resource)` per variable, in
/// variable-declaration order.
type ModelRow = Vec<(String, bool)>;

/// Number of join templates `ConjOp::Query { shape }` selects from.
const SHAPES: usize = 6;

/// Changed triples past which the store folds its delta: small, so
/// folds are common.
const FOLD_LIMIT: usize = 3;

/// What a queried snapshot was taken over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SnapshotKind {
    /// The store had just folded: everything is in the base.
    EmptyDelta,
    /// Base plus a delta of changes since the fold.
    Delta,
    /// Taken after an undo below the previous snapshot's revision.
    AfterUndo,
}

/// A term of a model-level pattern mirroring the real query's terms.
#[derive(Debug, Clone)]
enum MTerm {
    /// Constant text plus whether it names a resource (always true in
    /// the subject and property positions).
    Const(String, bool),
    /// Variable by declaration index.
    Var(usize),
}

#[derive(Debug, Clone)]
struct MPattern {
    s: MTerm,
    p: MTerm,
    o: MTerm,
}

/// Run `ops` through the conjunctive world; panics on any divergence.
pub fn check(ops: &[ConjOp], mutation: Mutation) {
    let quirks = ExecQuirks {
        skip_repeated_var_dedup: mutation == Mutation::ConjSkipRepeatedVarDedup,
        wrong_pos_run: mutation == Mutation::ConjWrongPosRun,
    };
    let mut world = World::new();
    for op in ops {
        world.apply(op, quirks);
    }
}

struct World {
    store: TripleStore,
    model: BTreeSet<ModelTriple>,
    /// The newest change that took effect, with the revision before it.
    last_change: Option<(Revision, Change)>,
    /// The revision of the last snapshot taken.
    snapshot_rev: Revision,
    /// The kind of every snapshot queried so far.
    kinds: Vec<SnapshotKind>,
}

impl World {
    fn new() -> Self {
        World {
            store: TripleStore::new().with_fold_limit(FOLD_LIMIT),
            model: BTreeSet::new(),
            last_change: None,
            snapshot_rev: Revision::start(),
            kinds: Vec::new(),
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

    fn apply(&mut self, op: &ConjOp, quirks: ExecQuirks) {
        let before = self.store.revision();
        match *op {
            ConjOp::Insert { s, p, o, res } => {
                let t = self.intern(s, p, o, res);
                let added = self.store.insert(t.subject, t.property, t.object);
                let model_added = self.model.insert(model_key(s, p, o, res));
                assert_eq!(added, model_added, "insert: store vs model on {op:?}");
            }
            ConjOp::Remove { s, p, o, res } => {
                let t = self.intern(s, p, o, res);
                let removed = self.store.remove(t);
                let model_removed = self.model.remove(&model_key(s, p, o, res));
                assert_eq!(removed, model_removed, "remove: store vs model on {op:?}");
            }
            ConjOp::Query { shape, p0, p1, c } => self.query(shape, p0, p1, c, quirks),
        }
        if self.store.revision() > before {
            let newest = self.store.journal().iter().last().cloned();
            self.last_change = Some((before, newest.expect("the change was journaled")));
        }
    }

    /// Undo the newest change and redo it: the contents are unchanged.
    /// Returns true if the undo went below the last snapshot's revision.
    fn rewind_and_replay(&mut self) -> bool {
        let Some((before, change)) = self.last_change else { return false };
        self.store.undo_to(before).expect("the newest change is journaled");
        match change {
            Change::Insert(t) => self.store.insert(t.subject, t.property, t.object),
            Change::Remove(t) => self.store.remove(t),
        };
        before < self.snapshot_rev
    }

    /// Build template `shape % SHAPES`, solve it through the planner (with
    /// any active quirks) on the store and on a fresh snapshot, and
    /// compare both resolved binding sets against the
    /// string-level oracle — and the oracle against `naive_join`. A
    /// `shape` of `2 * SHAPES` or more first rewinds and replays the
    /// newest change.
    fn query(&mut self, shape: usize, p0: usize, p1: usize, c: usize, quirks: ExecQuirks) {
        let (query, mirror, name) = self.build(shape % SHAPES, p0, p1, c);
        let solved = query
            .testonly_solve_with_quirks(&self.store, quirks)
            .expect("generated join templates are valid");
        let engine: BTreeSet<ModelRow> =
            solved.iter().map(|row| resolve_row(&self.store, row)).collect();
        let oracle = model_eval(&self.model, &mirror, query.var_count());
        assert_eq!(engine, oracle, "join template `{name}` diverged from the string oracle");
        let undone = shape >= 2 * SHAPES && self.rewind_and_replay();
        let snapshot = self.store.snapshot();
        self.snapshot_rev = snapshot.revision();
        let kind = match (undone, snapshot.delta_len()) {
            (true, _) => SnapshotKind::AfterUndo,
            (false, 0) => SnapshotKind::EmptyDelta,
            (false, _) => SnapshotKind::Delta,
        };
        self.kinds.push(kind);
        let on_snapshot: BTreeSet<ModelRow> = query
            .testonly_solve_with_quirks(&snapshot, quirks)
            .expect("generated join templates are valid")
            .iter()
            .map(|row| resolve_row(&snapshot, row))
            .collect();
        assert_eq!(
            on_snapshot, oracle,
            "join template `{name}` on a {kind:?} snapshot diverged from the string oracle"
        );
        let naive: BTreeSet<ModelRow> = naive_join(&self.store, &query)
            .expect("generated join templates are valid")
            .iter()
            .map(|row| resolve_row(&self.store, row))
            .collect();
        assert_eq!(naive, oracle, "naive_join on `{name}` diverged from the string oracle");
    }

    /// One join template: the real [`ConjQuery`] plus its string-level
    /// mirror with identical variable indices. Property constants come
    /// from `p0`/`p1`, the subject constant from `c` — all drawn from
    /// the pools the inserts use, so constants hit live atoms often.
    fn build(
        &mut self,
        shape: usize,
        p0: usize,
        p1: usize,
        c: usize,
    ) -> (ConjQuery, Vec<MPattern>, &'static str) {
        let prop0 = self.store.atom(PROPS[p0]);
        let prop1 = self.store.atom(PROPS[p1]);
        let subj = self.store.atom(SUBJECTS[c]);
        let mp0 = || MTerm::Const(PROPS[p0].to_string(), true);
        let mp1 = || MTerm::Const(PROPS[p1].to_string(), true);
        let ms = || MTerm::Const(SUBJECTS[c].to_string(), true);
        let mut q = ConjQuery::new();
        match shape {
            // (C p0 ?a) ⋈ (?a p1 ?b) — constant-anchored membership walk.
            0 => {
                let (a, b) = (q.var("a"), q.var("b"));
                q.pattern(subj, prop0, a).pattern(a, prop1, b);
                let mirror = vec![
                    MPattern { s: ms(), p: mp0(), o: MTerm::Var(a.0) },
                    MPattern { s: MTerm::Var(a.0), p: mp1(), o: MTerm::Var(b.0) },
                ];
                (q, mirror, "membership")
            }
            // (?x p0 ?y) ⋈ (?y p1 ?z) — object-to-subject chain.
            1 => {
                let (x, y, z) = (q.var("x"), q.var("y"), q.var("z"));
                q.pattern(x, prop0, y).pattern(y, prop1, z);
                let mirror = vec![
                    MPattern { s: MTerm::Var(x.0), p: mp0(), o: MTerm::Var(y.0) },
                    MPattern { s: MTerm::Var(y.0), p: mp1(), o: MTerm::Var(z.0) },
                ];
                (q, mirror, "chain")
            }
            // (?x p0 ?y) ⋈ (?x p1 ?z) — shared-subject star.
            2 => {
                let (x, y, z) = (q.var("x"), q.var("y"), q.var("z"));
                q.pattern(x, prop0, y).pattern(x, prop1, z);
                let mirror = vec![
                    MPattern { s: MTerm::Var(x.0), p: mp0(), o: MTerm::Var(y.0) },
                    MPattern { s: MTerm::Var(x.0), p: mp1(), o: MTerm::Var(z.0) },
                ];
                (q, mirror, "star")
            }
            // (?x p0 ?x) ⋈ (?x ?pv ?y) — the repeated-variable diagonal.
            3 => {
                let (x, pv, y) = (q.var("x"), q.var("pv"), q.var("y"));
                q.pattern(x, prop0, x).pattern(x, pv, y);
                let mirror = vec![
                    MPattern { s: MTerm::Var(x.0), p: mp0(), o: MTerm::Var(x.0) },
                    MPattern { s: MTerm::Var(x.0), p: MTerm::Var(pv.0), o: MTerm::Var(y.0) },
                ];
                (q, mirror, "diagonal")
            }
            // (?x p0 ?v) ⋈ (?y p1 ?v) — shared object, declared first so
            // the planner proposes it off the property-bound object runs.
            4 => {
                let (v, x, y) = (q.var("v"), q.var("x"), q.var("y"));
                q.pattern(x, prop0, v).pattern(y, prop1, v);
                let mirror = vec![
                    MPattern { s: MTerm::Var(x.0), p: mp0(), o: MTerm::Var(v.0) },
                    MPattern { s: MTerm::Var(y.0), p: mp1(), o: MTerm::Var(v.0) },
                ];
                (q, mirror, "objshare")
            }
            // (C p0 ?a) ⋈ (?a p1 ?b) ⋈ (?b p0 ?c) ⋈ (?c ?pv ?d) — the
            // four-pattern walk, anchored at a constant.
            _ => {
                let (a, b, cc, pv, d) =
                    (q.var("a"), q.var("b"), q.var("c"), q.var("pv"), q.var("d"));
                q.pattern(subj, prop0, a)
                    .pattern(a, prop1, b)
                    .pattern(b, prop0, cc)
                    .pattern(cc, pv, d);
                let mirror = vec![
                    MPattern { s: ms(), p: mp0(), o: MTerm::Var(a.0) },
                    MPattern { s: MTerm::Var(a.0), p: mp1(), o: MTerm::Var(b.0) },
                    MPattern { s: MTerm::Var(b.0), p: mp0(), o: MTerm::Var(cc.0) },
                    MPattern { s: MTerm::Var(cc.0), p: MTerm::Var(pv.0), o: MTerm::Var(d.0) },
                ];
                (q, mirror, "quad")
            }
        }
    }
}

fn model_key(s: usize, p: usize, o: usize, res: bool) -> ModelTriple {
    (SUBJECTS[s].to_string(), PROPS[p].to_string(), OBJECTS[o].to_string(), res)
}

/// Resolve one engine binding row (values in variable-index order) to
/// the string level for comparison with the oracle.
fn resolve_row(runs: &impl Runs, row: &[Value]) -> ModelRow {
    row.iter()
        .map(|&v| (runs.resolve(v.atom()).to_string(), v.is_resource()))
        .collect()
}

/// The cross-product oracle: nested-loop the patterns over the model
/// with unification, entirely at string level. Subject and property
/// positions only ever hold resources; object position carries the
/// literal/resource flag, and a variable bound to a literal can never
/// match an atom position — mirroring the engine's typing rules.
fn model_eval(
    model: &BTreeSet<ModelTriple>,
    patterns: &[MPattern],
    vars: usize,
) -> BTreeSet<ModelRow> {
    let mut bindings: Vec<Option<(String, bool)>> = vec![None; vars];
    let mut out = BTreeSet::new();
    eval_rec(model, patterns, 0, &mut bindings, &mut out);
    out
}

fn eval_rec(
    model: &BTreeSet<ModelTriple>,
    patterns: &[MPattern],
    depth: usize,
    bindings: &mut [Option<(String, bool)>],
    out: &mut BTreeSet<ModelRow>,
) {
    if depth == patterns.len() {
        out.insert(bindings.iter().map(|b| b.clone().expect("all variables bound")).collect());
        return;
    }
    let p = &patterns[depth];
    for t in model.iter() {
        let mut newly = Vec::new();
        if unify_atom(&p.s, &t.0, bindings, &mut newly)
            && unify_atom(&p.p, &t.1, bindings, &mut newly)
            && unify_object(&p.o, &t.2, t.3, bindings, &mut newly)
        {
            eval_rec(model, patterns, depth + 1, bindings, out);
        }
        for v in newly {
            bindings[v] = None;
        }
    }
}

/// Unify a term against an atom position (subject or property): the
/// triple field is a resource by construction.
fn unify_atom(
    term: &MTerm,
    text: &str,
    bindings: &mut [Option<(String, bool)>],
    newly: &mut Vec<usize>,
) -> bool {
    match term {
        MTerm::Const(c, _) => c == text,
        MTerm::Var(v) => match &bindings[*v] {
            Some((bound, res)) => *res && bound == text,
            None => {
                bindings[*v] = Some((text.to_string(), true));
                newly.push(*v);
                true
            }
        },
    }
}

/// Unify a term against the object position, where the literal/resource
/// flag participates in equality.
fn unify_object(
    term: &MTerm,
    text: &str,
    res: bool,
    bindings: &mut [Option<(String, bool)>],
    newly: &mut Vec<usize>,
) -> bool {
    match term {
        MTerm::Const(c, cres) => c == text && *cres == res,
        MTerm::Var(v) => match &bindings[*v] {
            Some((bound, bres)) => bound == text && *bres == res,
            None => {
                bindings[*v] = Some((text.to_string(), res));
                newly.push(*v);
                true
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two seeded conjunctive bugs each diverge on a three-op
    /// sequence — the shapes the mutation-mode shrink bounds promise.
    #[test]
    fn seeded_conj_bugs_diverge_on_three_ops() {
        // Plant b2 ∈ subjects(name) and b2 ∈ objects(name) without the
        // diagonal (b2, name, b2): the dedup-skipping executor emits it.
        let ops = [
            ConjOp::Insert { s: 1, p: 0, o: 2, res: true },
            ConjOp::Insert { s: 2, p: 0, o: 0, res: true },
            ConjOp::Query { shape: 3, p0: 0, p1: 0, c: 0 },
        ];
        check(&ops, Mutation::None);
        let caught =
            std::panic::catch_unwind(|| check(&ops, Mutation::ConjSkipRepeatedVarDedup));
        assert!(caught.is_err(), "skip-dedup mutant must diverge on the diagonal");

        // One triple and a shared-object join: the wrong-index run reads
        // objects-of-subject("name") — empty — and loses the binding.
        let ops = [
            ConjOp::Insert { s: 1, p: 0, o: 2, res: false },
            ConjOp::Query { shape: 4, p0: 0, p1: 0, c: 0 },
        ];
        check(&ops, Mutation::None);
        let caught = std::panic::catch_unwind(|| check(&ops, Mutation::ConjWrongPosRun));
        assert!(caught.is_err(), "wrong-pos-run mutant must diverge on a shared object");
    }

    /// A removal-heavy sequence with every template: the engine on the
    /// store and on its snapshots, the naive evaluator, and the string
    /// oracle agree throughout.
    #[test]
    fn all_templates_agree_after_churn() {
        let mut ops = Vec::new();
        for i in 0..SUBJECTS.len() {
            for j in 0..PROPS.len() {
                ops.push(ConjOp::Insert { s: i, p: j, o: (i + j) % OBJECTS.len(), res: j % 2 == 0 });
            }
        }
        ops.push(ConjOp::Remove { s: 0, p: 0, o: 0, res: true });
        for shape in 0..SHAPES {
            ops.push(ConjOp::Query { shape, p0: shape % PROPS.len(), p1: 1, c: shape % SUBJECTS.len() });
        }
        check(&ops, Mutation::None);
    }

    /// The conj layer queries every kind of snapshot: one whose delta
    /// was just folded away, one carrying a delta, and one taken after
    /// an undo below the previous snapshot.
    #[test]
    fn snapshots_come_from_every_publish_path() {
        let query = |shape| ConjOp::Query { shape, p0: 0, p1: 1, c: 0 };
        let ops = [
            ConjOp::Insert { s: 0, p: 0, o: 1, res: true },
            query(0),
            // The fourth changed triple passes the fold limit.
            ConjOp::Insert { s: 1, p: 0, o: 0, res: true },
            ConjOp::Insert { s: 1, p: 1, o: 2, res: false },
            ConjOp::Insert { s: 2, p: 0, o: 1, res: true },
            query(1),
            ConjOp::Remove { s: 0, p: 0, o: 1, res: true },
            query(2),
            // The remove is older than the snapshot just taken.
            query(2 * SHAPES + 2),
        ];
        let mut world = World::new();
        for op in &ops {
            world.apply(op, ExecQuirks::default());
        }
        use SnapshotKind::*;
        assert_eq!(world.kinds, [Delta, EmptyDelta, Delta, AfterUndo]);
    }
}
