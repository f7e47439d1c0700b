//! Conjunctive-engine property tests.
//!
//! Two properties the join engine must hold for *any* store and query:
//!
//! 1. **Order insensitivity** — forcing the engine through every
//!    permutation of the variable binding order yields the identical
//!    binding set (solve output is canonically sorted, so plain equality
//!    is the order-insensitive comparison).
//! 2. **Naive agreement** — the leapfrog result equals the index-free
//!    cross-product evaluator's, pattern for pattern.
//!
//! Both hold on the live store and on a published snapshot of it whose
//! delta carries adds and deletes.
//!
//! Plus determinism: for a fixed store, `explain_join` renders the same
//! join tree every time it is asked.

use proptest::prelude::*;
use trim::conj::{ConjQuery, Var};
use trim::{naive_join, Runs, Snapshot, SnapshotPublisher, TripleStore};

/// Small vocabulary so patterns collide and joins produce rows.
const NODES: &[&str] = &["a", "b", "c", "d"];
const PROPS: &[&str] = &["p", "q"];
const LITS: &[&str] = &["x", "y"];

#[derive(Debug, Clone)]
struct TripleSpec {
    s: usize,
    p: usize,
    o: usize,
    res: bool,
}

fn triples_strategy() -> impl Strategy<Value = Vec<TripleSpec>> {
    proptest::collection::vec(
        (0..NODES.len(), 0..PROPS.len(), 0..NODES.len().max(LITS.len()), any::<bool>())
            .prop_map(|(s, p, o, res)| TripleSpec {
                s,
                p,
                o: if res { o % NODES.len() } else { o % LITS.len() },
                res,
            }),
        1..12,
    )
}

/// Query templates over 2–3 variables exercising chains, stars, repeated
/// variables, and variable properties.
#[derive(Debug, Clone, Copy)]
enum QueryShape {
    /// (?x p0 ?y) ⋈ (?y p1 ?z)
    Chain,
    /// (?x p0 ?y) ⋈ (?x p1 ?z)
    Star,
    /// (?x p0 ?x) ⋈ (?x ?q ?y)
    Diagonal,
    /// (?x ?q ?y) ⋈ (?y ?q ?z) — shared variable property
    PropShare,
}

fn shape_strategy() -> impl Strategy<Value = QueryShape> {
    prop_oneof![
        Just(QueryShape::Chain),
        Just(QueryShape::Star),
        Just(QueryShape::Diagonal),
        Just(QueryShape::PropShare),
    ]
}

fn insert(store: &mut TripleStore, triples: &[TripleSpec]) {
    for t in triples {
        if t.res {
            store.insert_resource(NODES[t.s], PROPS[t.p], NODES[t.o]);
        } else {
            store.insert_literal(NODES[t.s], PROPS[t.p], LITS[t.o]);
        }
    }
}

fn build_store(triples: &[TripleSpec]) -> TripleStore {
    let mut store = TripleStore::new();
    insert(&mut store, triples);
    store
}

/// The store after `triples` plus one removal, and a snapshot of it
/// published over a base of the first half: the second half and the
/// removal land in its delta.
fn build_published(
    triples: &[TripleSpec],
    shape: QueryShape,
    p0: usize,
    p1: usize,
) -> (TripleStore, ConjQuery, Snapshot) {
    let half = triples.len() / 2;
    let mut store = build_store(&triples[..half]);
    let mut publisher = SnapshotPublisher::new(&mut store);
    insert(&mut store, &triples[half..]);
    let q = build_query(&mut store, shape, p0, p1);
    let first = store.iter().next();
    if let Some(first) = first {
        store.remove(first);
    }
    let (snapshot, _) = publisher.publish(&mut store);
    (store, q, snapshot)
}

fn build_query(store: &mut TripleStore, shape: QueryShape, p0: usize, p1: usize) -> ConjQuery {
    let prop0 = store.atom(PROPS[p0]);
    let prop1 = store.atom(PROPS[p1]);
    let mut q = ConjQuery::new();
    match shape {
        QueryShape::Chain => {
            let (x, y, z) = (q.var("x"), q.var("y"), q.var("z"));
            q.pattern(x, prop0, y).pattern(y, prop1, z);
        }
        QueryShape::Star => {
            let (x, y, z) = (q.var("x"), q.var("y"), q.var("z"));
            q.pattern(x, prop0, y).pattern(x, prop1, z);
        }
        QueryShape::Diagonal => {
            let (x, pv, y) = (q.var("x"), q.var("pv"), q.var("y"));
            q.pattern(x, prop0, x).pattern(x, pv, y);
        }
        QueryShape::PropShare => {
            let (x, pv, y, z) = (q.var("x"), q.var("pv"), q.var("y"), q.var("z"));
            q.pattern(x, pv, y).pattern(y, pv, z);
        }
    }
    q
}

fn permutations(n: usize) -> Vec<Vec<Var>> {
    fn rec(rest: &mut Vec<usize>, acc: &mut Vec<usize>, out: &mut Vec<Vec<Var>>) {
        if rest.is_empty() {
            out.push(acc.iter().map(|&i| Var(i)).collect());
            return;
        }
        for i in 0..rest.len() {
            let v = rest.remove(i);
            acc.push(v);
            rec(rest, acc, out);
            acc.pop();
            rest.insert(i, v);
        }
    }
    let mut out = Vec::new();
    rec(&mut (0..n).collect(), &mut Vec::new(), &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every forced binding order returns the planner's binding set, on
    /// the store and on its published snapshot alike, and the planner
    /// agrees with the naive cross-product evaluator.
    #[test]
    fn all_binding_orders_agree_with_naive(
        triples in triples_strategy(),
        shape in shape_strategy(),
        p0 in 0..PROPS.len(),
        p1 in 0..PROPS.len(),
    ) {
        let (store, q, snapshot) = build_published(&triples, shape, p0, p1);
        let planned = q.solve(&store).unwrap();
        let oracle = naive_join(&store, &q).unwrap();
        prop_assert_eq!(&planned, &oracle, "planner vs naive for {:?}", shape);
        prop_assert_eq!(&q.solve(&snapshot).unwrap(), &planned, "snapshot for {:?}", shape);
        for order in permutations(q.var_count()) {
            let forced = q.solve_ordered(&store, &order).unwrap();
            prop_assert_eq!(&forced, &planned, "forced order {:?} for {:?}", order, shape);
            let forced = q.solve_ordered(&snapshot, &order).unwrap();
            prop_assert_eq!(&forced, &planned, "snapshot order {:?} for {:?}", order, shape);
        }
    }

    /// The rendered join tree is a deterministic function of the store:
    /// byte-identical across repeated renders and across a rebuilt
    /// identical store.
    #[test]
    fn explain_join_trees_are_deterministic(
        triples in triples_strategy(),
        shape in shape_strategy(),
        p0 in 0..PROPS.len(),
        p1 in 0..PROPS.len(),
    ) {
        let mut store = build_store(&triples);
        let q = build_query(&mut store, shape, p0, p1);
        let first = store.explain_join(&q).unwrap();
        prop_assert_eq!(&first, &store.explain_join(&q).unwrap());

        let mut rebuilt = build_store(&triples);
        let q2 = build_query(&mut rebuilt, shape, p0, p1);
        prop_assert_eq!(&first, &rebuilt.explain_join(&q2).unwrap());

        // The tree names every pattern and a bind step per variable.
        for v in q.vars() {
            prop_assert!(first.contains(&format!("bind ?{}", q.var_name(v))));
        }
        for i in 0..q.patterns().len() {
            prop_assert!(first.contains(&format!("p{i} ")));
        }
    }
}
