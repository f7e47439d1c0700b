//! `BENCH_trim.json` reporter: measure every pattern shape against the
//! 50k-triple workload (indexed store vs naive linear scan) and every
//! conjunctive-join shape against a pad-shaped store of the same size
//! (merge-join engine vs naive cross-product evaluator), then write (or
//! gate against) the committed baseline.
//!
//! * `cargo run -p slim-bench --release` — full run, writes
//!   `BENCH_trim.json` in the current directory.
//! * `-- --quick` — shorter per-measurement budget for CI smoke runs.
//! * `-- --check BENCH_trim.json` — additionally gate the run against the
//!   committed baseline: see `checks` below and DESIGN.md §10 "Bench
//!   gates".
//! * `-- --out PATH` — write the report somewhere else.

use slim_bench::gate::{self, json_rows, Args, Check};
use slim_bench::{best_ns, join_store, naive_copy, random_store, shape_pattern, BENCH_TRIPLES};
use std::hint::black_box;
use std::time::Instant;
use superimposed::trim::{naive_join, ConjQuery, PatternShape, Runs, TripleStore};

/// Shapes the ≥5× floor and the regression gate apply to: the tentpole's
/// claim is about queries the pre-index store had to answer by scanning.
const GATED_SHAPES: [PatternShape; 2] = [PatternShape::P, PatternShape::O];
const SPEEDUP_FLOOR: f64 = 5.0;
/// The unbound full scan reads the same frozen column a naive `Vec` walk
/// would, so it must keep pace with the naive scan.
const UNBOUND_FLOOR: f64 = 1.0;
/// `--check` fails if a gated speedup drops below baseline/this factor.
const REGRESSION_FACTOR: f64 = 2.0;

/// Conjunctive joins measured against [`naive_join`], the index-free
/// cross-product evaluator. All three are gated at the same ≥5× floor:
/// the engine's claim is that merge joins on sorted runs beat
/// materialized nested loops even on the unselective worst case.
struct JoinShape {
    name: &'static str,
    build: fn(&TripleStore) -> ConjQuery,
}

const JOIN_SHAPES: [JoinShape; 3] = [
    JoinShape { name: "bundle_membership", build: bundle_membership },
    JoinShape { name: "mark_target", build: mark_target },
    JoinShape { name: "chain_unselective", build: chain_unselective },
];

/// 2-pattern membership join: `(bundle:0 bundleContent ?s) ⋈ (?s scrapName ?n)`.
fn bundle_membership(store: &TripleStore) -> ConjQuery {
    let b = store.find_atom("bundle:0").expect("join store bundle");
    let content = store.find_atom("bundleContent").expect("property");
    let name = store.find_atom("scrapName").expect("property");
    let mut q = ConjQuery::new();
    let (s, n) = (q.var("s"), q.var("n"));
    q.pattern(b, content, s).pattern(s, name, n);
    q
}

/// 3-pattern mark-target join:
/// `(?s scrapMark ?m) ⋈ (?m markDoc doc:0) ⋈ (?s scrapName ?n)`.
fn mark_target(store: &TripleStore) -> ConjQuery {
    let mark = store.find_atom("scrapMark").expect("property");
    let doc_p = store.find_atom("markDoc").expect("property");
    let doc = store.find_atom("doc:0").expect("join store doc");
    let name = store.find_atom("scrapName").expect("property");
    let mut q = ConjQuery::new();
    let (s, m, n) = (q.var("s"), q.var("m"), q.var("n"));
    q.pattern(s, mark, m).pattern(m, doc_p, doc).pattern(s, name, n);
    q
}

/// Unselective worst case: `(?a nested ?b) ⋈ (?b nested ?c)` over the
/// 1000-bundle chain — no constant narrows either pattern.
fn chain_unselective(store: &TripleStore) -> ConjQuery {
    let nested = store.find_atom("nested").expect("property");
    let mut q = ConjQuery::new();
    let (a, b, c) = (q.var("a"), q.var("b"), q.var("c"));
    q.pattern(a, nested, b).pattern(b, nested, c);
    q
}

/// Nanoseconds per call: warm once, size the batch to roughly
/// `budget_ms`, then take the best of three batches (best-of counters
/// scheduler noise; these are pure in-memory queries).
fn time_ns(budget_ms: u64, mut f: impl FnMut()) -> f64 {
    f();
    let probe = Instant::now();
    f();
    let once = probe.elapsed().as_nanos().max(1);
    let iters = ((budget_ms as u128 * 1_000_000) / once).clamp(1, 100_000) as u32;
    best_ns(3, || {
        for _ in 0..iters {
            f();
        }
    }) / iters as f64
}

/// One measured query — a pattern shape or a join — against its naive
/// evaluator.
struct QueryRow {
    name: &'static str,
    plan: String,
    hits: usize,
    indexed_ns: f64,
    naive_ns: f64,
}

impl QueryRow {
    fn speedup(&self) -> f64 {
        self.naive_ns / self.indexed_ns.max(1.0)
    }
}

fn shape_row(rows: &[QueryRow], shape: PatternShape) -> &QueryRow {
    rows.iter().find(|r| r.name == shape.name()).expect("measure() covers every shape")
}

fn measure(budget_ms: u64) -> Vec<QueryRow> {
    let (store, subjects, properties) = random_store(BENCH_TRIPLES, 42);
    let naive = naive_copy(&store);
    let naive_args = |shape: PatternShape| {
        (
            shape.binds_subject().then_some(subjects[1].as_str()),
            shape.binds_property().then_some(properties[3].as_str()),
            shape.binds_object().then_some((subjects[2].as_str(), true)),
        )
    };
    PatternShape::ALL
        .into_iter()
        .map(|shape| {
            let pattern = shape_pattern(&store, shape, &subjects, &properties);
            let (ns, np, no) = naive_args(shape);
            let hits = store.count(&pattern);
            assert_eq!(
                hits,
                naive.select_matching(ns, np, no).len(),
                "indexed and naive stores disagree on shape {} — refusing to benchmark a wrong answer",
                shape.name()
            );
            let indexed_ns = time_ns(budget_ms, || {
                black_box(store.select(black_box(&pattern)));
            });
            let naive_ns = time_ns(budget_ms, || {
                black_box(naive.select_matching(black_box(ns), np, no));
            });
            QueryRow {
                name: shape.name(),
                plan: store.explain(&pattern).to_string(),
                hits,
                indexed_ns,
                naive_ns,
            }
        })
        .collect()
}

fn measure_joins(budget_ms: u64) -> Vec<QueryRow> {
    // 5 triples per scrap: the join store lands at the same ~50k-triple
    // point the pattern shapes are measured at.
    let store = join_store(BENCH_TRIPLES / 5);
    JOIN_SHAPES
        .iter()
        .map(|shape| {
            let q = (shape.build)(&store);
            let rows = q.solve(&store).expect("well-formed join query");
            assert_eq!(
                rows,
                naive_join(&store, &q).expect("well-formed join query"),
                "engine and naive evaluator disagree on join `{}` — refusing to \
                 benchmark a wrong answer",
                shape.name
            );
            let indexed_ns = time_ns(budget_ms, || {
                black_box(q.solve(black_box(&store)).expect("solves"));
            });
            let naive_ns = time_ns(budget_ms, || {
                black_box(naive_join(black_box(&store), &q).expect("solves"));
            });
            // First line of the join tree only: keeps the report's
            // line-oriented JSON (and its string-scanning reader) happy.
            let plan = store
                .explain_join(&q)
                .expect("plans")
                .lines()
                .next()
                .unwrap_or_default()
                .to_string();
            QueryRow { name: shape.name, plan, hits: rows.len(), indexed_ns, naive_ns }
        })
        .collect()
}

fn render_json(results: &[QueryRow], joins: &[QueryRow], quick: bool) -> String {
    // `kind` is the row marker: "shape" for pattern shapes, "join" for joins.
    let row = |kind: &str, r: &QueryRow| {
        format!(
            "{{\"{kind}\": \"{}\", \"plan\": \"{}\", \"hits\": {}, \
             \"indexed_ns\": {:.1}, \"naive_ns\": {:.1}, \"speedup\": {:.1}}}",
            r.name,
            r.plan,
            r.hits,
            r.indexed_ns,
            r.naive_ns,
            r.speedup(),
        )
    };
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"n_triples\": {BENCH_TRIPLES},\n"));
    out.push_str(&format!("  \"mode\": \"{}\",\n", if quick { "quick" } else { "full" }));
    out.push_str(&json_rows("shapes", results.iter().map(|r| row("shape", r))));
    out.push_str(",\n");
    out.push_str(&json_rows("joins", joins.iter().map(|r| row("join", r))));
    out.push_str("\n}\n");
    out
}

/// The trim gate: the predicate- and object-bound shapes and every join
/// shape — including the unselective worst case — hold the floor over
/// their naive evaluators and their committed speedup (a
/// machine-independent ratio, unlike raw latencies); the unbound full
/// scan holds its own lower floor and the same baseline bound.
fn checks(results: &[QueryRow], joins: &[QueryRow]) -> Vec<Check> {
    let shape = |shape: PatternShape| {
        let r = shape_row(results, shape);
        Check::new(format!("shape `{}` speedup", r.name), r.speedup()).against(
            format!("\"shape\": \"{}\"", r.name),
            "speedup",
            REGRESSION_FACTOR,
        )
    };
    let joins = joins.iter().map(|r| {
        Check::new(format!("join `{}` speedup", r.name), r.speedup())
            .floor(SPEEDUP_FLOOR)
            .against(format!("\"join\": \"{}\"", r.name), "speedup", REGRESSION_FACTOR)
    });
    GATED_SHAPES
        .map(|s| shape(s).floor(SPEEDUP_FLOOR))
        .into_iter()
        .chain(joins)
        .chain([shape(PatternShape::Unbound).floor(UNBOUND_FLOOR)])
        .collect()
}

fn main() {
    let args = Args::parse("slim-bench", "BENCH_trim.json");
    let budget_ms = if args.quick { 20 } else { 200 };
    let results = measure(budget_ms);
    let joins = measure_joins(budget_ms);
    let report = render_json(&results, &joins, args.quick);
    gate::finish(&args, &report, &checks(&results, &joins));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_baseline_carries_every_gated_key() {
        let row = |name| QueryRow {
            name,
            plan: String::new(),
            hits: 0,
            indexed_ns: 1.0,
            naive_ns: f64::INFINITY,
        };
        let results: Vec<_> = PatternShape::ALL.iter().map(|s| row(s.name())).collect();
        let joins: Vec<_> = JOIN_SHAPES.iter().map(|j| row(j.name)).collect();
        let checks = checks(&results, &joins);
        assert_eq!(checks.len(), GATED_SHAPES.len() + JOIN_SHAPES.len() + 1);
        let failed = gate::failures(&checks, include_str!("../../../BENCH_trim.json"));
        assert!(failed.is_empty(), "{failed:?}");
    }
}
