//! Conjunctive queries: multi-pattern merge/leapfrog joins over the
//! permutation indexes.
//!
//! A [`ConjQuery`] is a conjunction of N triple patterns whose positions
//! are either constants or shared variables — "scraps in bundle B whose
//! mark targets document D" is two or three patterns joined on the scrap
//! and mark variables. The single-pattern planner ([`crate::plan`]) gives
//! every pattern one optimal index; this module composes those runs into a
//! join:
//!
//! * **Planning** ([`ConjQuery::plan`]): variables get a binding order
//!   chosen greedily by estimated run length — for each candidate
//!   variable, every pattern containing it proposes a *run* (the distinct
//!   values that position can take given what is already bound), and the
//!   variable whose cheapest run is shortest binds first. Runs whose
//!   bound positions form a sort prefix of SPO, POS, or OSP stream
//!   straight off that index; the three combinations no permutation
//!   serves (P→S, O→P, S→O) stream too, by *skip-scan* — alternating
//!   range probes over the index that leads with the proposed position
//!   (see [`RunAccess::SkipScan`]). The planner still prefers prefix
//!   runs: a skip-scan pays extra probes proportional to the gaps it
//!   hops over.
//! * **Execution** ([`ConjQuery::solve`]): variables bind in plan order.
//!   At each step the runs of every occurrence of the variable are
//!   intersected by *leapfrog*: cursors seek to the max of their current
//!   positions with `O(log n)` range probes until all agree, so the
//!   intersection streams in sorted order and no run — let alone a cross
//!   product — is ever materialized. A pattern that repeats a variable
//!   (`(?x, p, ?x)`) is re-checked as a ground probe once fully bound,
//!   because intersecting its per-occurrence runs only bounds the
//!   diagonal from above (see [`ExecQuirks::skip_repeated_var_dedup`]).
//! * **Explain** ([`Runs::explain_join`]): the chosen order, each
//!   step's runs with index choice and access kind, and per-pattern
//!   cardinality estimates render as a deterministic join tree, the
//!   conjunctive analogue of [`TripleStore::explain`].
//!
//! Everything above reads its input through [`Runs`], so the same code
//! joins the live [`TripleStore`] and a published [`crate::Snapshot`].
//!
//! [`naive_join`] is the deliberately index-free baseline — per-pattern
//! linear scans nested-looped over the cross product — used as the
//! differential oracle by slimcheck's `conj` layer, the property tests,
//! and the `slim-bench` join gate.

use crate::atom::Atom;
use crate::plan::IndexKind;
use crate::runs::{value_succ, Runs};
use crate::store::{TriplePattern, TripleStore, Value, VALUE_MIN};
use std::collections::BTreeSet;
use std::fmt;

/// A query variable, valid only for the [`ConjQuery`] that produced it
/// (an index into the query's variable table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub usize);

/// Subject/property position of a pattern: a constant atom or a variable.
/// Variables in these positions only ever bind resource values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomTerm {
    /// A fixed resource/property name.
    Const(Atom),
    /// A shared variable.
    Var(Var),
}

/// Object position of a pattern: a constant value or a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueTerm {
    /// A fixed object value (resource or literal).
    Const(Value),
    /// A shared variable.
    Var(Var),
}

impl From<Atom> for AtomTerm {
    fn from(a: Atom) -> Self {
        AtomTerm::Const(a)
    }
}

impl From<Var> for AtomTerm {
    fn from(v: Var) -> Self {
        AtomTerm::Var(v)
    }
}

impl From<Value> for ValueTerm {
    fn from(v: Value) -> Self {
        ValueTerm::Const(v)
    }
}

impl From<Atom> for ValueTerm {
    fn from(a: Atom) -> Self {
        ValueTerm::Const(Value::Resource(a))
    }
}

impl From<Var> for ValueTerm {
    fn from(v: Var) -> Self {
        ValueTerm::Var(v)
    }
}

/// One triple pattern of a conjunction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConjPattern {
    pub subject: AtomTerm,
    pub property: AtomTerm,
    pub object: ValueTerm,
}

/// The three positions of a pattern, used in plans and explain output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Position {
    Subject,
    Property,
    Object,
}

impl Position {
    fn name(self) -> &'static str {
        match self {
            Position::Subject => "subject",
            Position::Property => "property",
            Position::Object => "object",
        }
    }
}

/// Why a query cannot be planned or executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConjError {
    /// The query has no patterns.
    Empty,
    /// A declared variable appears in no pattern, so it has no run to
    /// propose values from.
    UnusedVar(String),
    /// A pattern references a variable the query never declared.
    UnknownVar(usize),
    /// A forced binding order is not a permutation of the query's
    /// variables.
    BadOrder(String),
}

impl fmt::Display for ConjError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConjError::Empty => write!(f, "conjunctive query has no patterns"),
            ConjError::UnusedVar(name) => {
                write!(f, "variable ?{name} appears in no pattern")
            }
            ConjError::UnknownVar(i) => write!(f, "pattern references undeclared variable #{i}"),
            ConjError::BadOrder(why) => write!(f, "bad binding order: {why}"),
        }
    }
}

impl std::error::Error for ConjError {}

/// A conjunction of triple patterns over shared variables.
#[derive(Debug, Clone, Default)]
pub struct ConjQuery {
    var_names: Vec<String>,
    patterns: Vec<ConjPattern>,
}

impl ConjQuery {
    /// An empty query; add variables with [`ConjQuery::var`] and patterns
    /// with [`ConjQuery::pattern`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare (or look up) a variable by name. The same name always
    /// yields the same [`Var`].
    pub fn var(&mut self, name: &str) -> Var {
        if let Some(i) = self.var_names.iter().position(|n| n == name) {
            return Var(i);
        }
        self.var_names.push(name.to_string());
        Var(self.var_names.len() - 1)
    }

    /// Append a pattern. Terms convert from `Atom`, `Value`, and `Var`,
    /// so `q.pattern(bundle, content_p, scrap_var)` reads naturally.
    pub fn pattern(
        &mut self,
        subject: impl Into<AtomTerm>,
        property: impl Into<AtomTerm>,
        object: impl Into<ValueTerm>,
    ) -> &mut Self {
        self.patterns.push(ConjPattern {
            subject: subject.into(),
            property: property.into(),
            object: object.into(),
        });
        self
    }

    /// Number of declared variables.
    pub fn var_count(&self) -> usize {
        self.var_names.len()
    }

    /// The name a variable was declared with.
    pub fn var_name(&self, v: Var) -> &str {
        &self.var_names[v.0]
    }

    /// All declared variables, in declaration order.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        (0..self.var_names.len()).map(Var)
    }

    /// The patterns in insertion order.
    pub fn patterns(&self) -> &[ConjPattern] {
        &self.patterns
    }

    fn validate(&self) -> Result<(), ConjError> {
        if self.patterns.is_empty() {
            return Err(ConjError::Empty);
        }
        let mut used = vec![false; self.var_names.len()];
        for p in &self.patterns {
            for (var, _) in pattern_vars(p) {
                match used.get_mut(var.0) {
                    Some(slot) => *slot = true,
                    None => return Err(ConjError::UnknownVar(var.0)),
                }
            }
        }
        if let Some(i) = used.iter().position(|u| !u) {
            return Err(ConjError::UnusedVar(self.var_names[i].clone()));
        }
        Ok(())
    }

    /// Render pattern `i` with names resolved against `runs`.
    pub fn render_pattern<R: Runs + ?Sized>(&self, i: usize, runs: &R) -> String {
        let p = &self.patterns[i];
        let atom_term = |t: &AtomTerm| match t {
            AtomTerm::Const(a) => runs.resolve(*a).to_string(),
            AtomTerm::Var(v) => format!("?{}", self.var_name(*v)),
        };
        let value_term = |t: &ValueTerm| match t {
            ValueTerm::Const(Value::Resource(a)) => runs.resolve(*a).to_string(),
            ValueTerm::Const(Value::Literal(a)) => format!("{:?}", runs.resolve(*a)),
            ValueTerm::Var(v) => format!("?{}", self.var_name(*v)),
        };
        format!(
            "({} {} {})",
            atom_term(&p.subject),
            atom_term(&p.property),
            value_term(&p.object)
        )
    }

    /// Choose a binding order by run-length estimates and build the full
    /// join plan (see module docs for the heuristic).
    pub fn plan<R: Runs + ?Sized>(&self, runs: &R) -> Result<ConjPlan, ConjError> {
        self.validate()?;
        let estimates = self.pattern_estimates(runs);
        let nvars = self.var_names.len();
        let mut bound = vec![false; nvars];
        let mut order = Vec::with_capacity(nvars);
        while order.len() < nvars {
            let mut best: Option<(bool, usize, usize)> = None; // (no_prefix, est, var)
            for v in 0..nvars {
                if bound[v] {
                    continue;
                }
                let runs = self.runs_for(Var(v), &bound, &estimates);
                let has_prefix =
                    runs.iter().any(|r| matches!(r.access, RunAccess::Prefix { .. }));
                let min_est = runs.iter().map(|r| r.estimate).min().unwrap_or(usize::MAX);
                let key = (!has_prefix, min_est, v);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
            let (_, _, v) = best.expect("unbound variable remains");
            order.push(Var(v));
            bound[v] = true;
        }
        self.plan_for_order(&order, estimates)
    }

    /// Build the join plan for a caller-forced binding order. Property
    /// tests use this to drive the engine through every permutation.
    pub fn plan_ordered<R: Runs + ?Sized>(
        &self,
        runs: &R,
        order: &[Var],
    ) -> Result<ConjPlan, ConjError> {
        self.validate()?;
        let nvars = self.var_names.len();
        if order.len() != nvars {
            return Err(ConjError::BadOrder(format!(
                "order lists {} variables, query declares {nvars}",
                order.len()
            )));
        }
        let mut seen = vec![false; nvars];
        for v in order {
            match seen.get_mut(v.0) {
                Some(slot) if !*slot => *slot = true,
                Some(_) => {
                    return Err(ConjError::BadOrder(format!(
                        "variable ?{} listed twice",
                        self.var_name(*v)
                    )))
                }
                None => return Err(ConjError::UnknownVar(v.0)),
            }
        }
        let estimates = self.pattern_estimates(runs);
        self.plan_for_order(order, estimates)
    }

    fn pattern_estimates<R: Runs + ?Sized>(&self, runs: &R) -> Vec<usize> {
        self.patterns.iter().map(|p| runs.count(&const_pattern(p))).collect()
    }

    fn plan_for_order(&self, order: &[Var], estimates: Vec<usize>) -> Result<ConjPlan, ConjError> {
        let nvars = self.var_names.len();
        let mut bound = vec![false; nvars];
        let mut steps = Vec::with_capacity(order.len());
        for &v in order {
            steps.push(BindStep { var: v, runs: self.runs_for(v, &bound, &estimates) });
            bound[v.0] = true;
        }
        Ok(ConjPlan {
            order: order.to_vec(),
            steps,
            pattern_estimates: estimates,
            ground_checks: self.ground_check_depths(order),
        })
    }

    /// The runs every occurrence of `var` proposes given the set of
    /// already-bound variables. Bound positions of the occurrence's own
    /// pattern (constants plus bound variables) determine the index: a
    /// sort-prefix match streams, otherwise the run is skip-scanned.
    fn runs_for(&self, var: Var, bound: &[bool], estimates: &[usize]) -> Vec<RunChoice> {
        let mut runs = Vec::new();
        for (pi, p) in self.patterns.iter().enumerate() {
            for (occ_var, position) in pattern_vars(p) {
                if occ_var != var {
                    continue;
                }
                let s_bound = term_bound_atom(&p.subject, bound);
                let p_bound = term_bound_atom(&p.property, bound);
                let o_bound = term_bound_value(&p.object, bound);
                let access = match position {
                    Position::Subject => match (p_bound, o_bound) {
                        (true, true) => RunAccess::Prefix { index: IndexKind::Pos, prefix_len: 2 },
                        (false, true) => RunAccess::Prefix { index: IndexKind::Osp, prefix_len: 1 },
                        (true, false) => RunAccess::SkipScan { index: IndexKind::Spo },
                        (false, false) => {
                            RunAccess::Prefix { index: IndexKind::Spo, prefix_len: 0 }
                        }
                    },
                    Position::Property => match (s_bound, o_bound) {
                        (true, true) => RunAccess::Prefix { index: IndexKind::Osp, prefix_len: 2 },
                        (true, false) => RunAccess::Prefix { index: IndexKind::Spo, prefix_len: 1 },
                        (false, true) => RunAccess::SkipScan { index: IndexKind::Pos },
                        (false, false) => {
                            RunAccess::Prefix { index: IndexKind::Pos, prefix_len: 0 }
                        }
                    },
                    Position::Object => match (s_bound, p_bound) {
                        (true, true) => RunAccess::Prefix { index: IndexKind::Spo, prefix_len: 2 },
                        (false, true) => RunAccess::Prefix { index: IndexKind::Pos, prefix_len: 1 },
                        (true, false) => RunAccess::SkipScan { index: IndexKind::Osp },
                        (false, false) => {
                            RunAccess::Prefix { index: IndexKind::Osp, prefix_len: 0 }
                        }
                    },
                };
                runs.push(RunChoice { pattern: pi, position, access, estimate: estimates[pi] });
            }
        }
        runs
    }

    /// For each pattern with a repeated variable, the order-depth at
    /// which it becomes fully ground and must be re-checked.
    fn ground_check_depths(&self, order: &[Var]) -> Vec<(usize, usize)> {
        let mut depth_of = vec![0usize; self.var_names.len()];
        for (d, v) in order.iter().enumerate() {
            depth_of[v.0] = d;
        }
        let mut checks = Vec::new();
        for (pi, p) in self.patterns.iter().enumerate() {
            let vars: Vec<Var> = pattern_vars(p).map(|(v, _)| v).collect();
            let distinct: BTreeSet<Var> = vars.iter().copied().collect();
            if distinct.len() < vars.len() {
                let depth = distinct.iter().map(|v| depth_of[v.0]).max().unwrap_or(0);
                checks.push((depth, pi));
            }
        }
        checks
    }

    /// Execute with the planner-chosen binding order. Bindings come back
    /// sorted by variable index, deduplicated.
    pub fn solve<R: Runs + ?Sized>(&self, runs: &R) -> Result<Vec<Vec<Value>>, ConjError> {
        let plan = self.plan(runs)?;
        Ok(self.execute(runs, &plan, ExecQuirks::default()))
    }

    /// Execute with a caller-forced binding order; same result set as
    /// [`ConjQuery::solve`] for every permutation (the property tests
    /// assert exactly this).
    pub fn solve_ordered<R: Runs + ?Sized>(
        &self,
        runs: &R,
        order: &[Var],
    ) -> Result<Vec<Vec<Value>>, ConjError> {
        let plan = self.plan_ordered(runs, order)?;
        Ok(self.execute(runs, &plan, ExecQuirks::default()))
    }

    /// Execute with deliberate bugs switched on — the mutation-testing
    /// entry point for slimcheck `--mutate`; never call from production
    /// code.
    #[doc(hidden)]
    pub fn testonly_solve_with_quirks<R: Runs + ?Sized>(
        &self,
        runs: &R,
        quirks: ExecQuirks,
    ) -> Result<Vec<Vec<Value>>, ConjError> {
        let plan = self.plan(runs)?;
        Ok(self.execute(runs, &plan, quirks))
    }

    fn execute<R: Runs + ?Sized>(
        &self,
        runs: &R,
        plan: &ConjPlan,
        quirks: ExecQuirks,
    ) -> Vec<Vec<Value>> {
        // Patterns with no variables are plain membership probes; one miss
        // empties the whole conjunction.
        for p in &self.patterns {
            if pattern_vars(p).next().is_none() {
                match ground_triple(p, &[]) {
                    Some(t) if runs.contains(&t) => {}
                    _ => return Vec::new(),
                }
            }
        }
        let mut bindings: Vec<Option<Value>> = vec![None; self.var_names.len()];
        let mut out = Vec::new();
        self.bind_next(runs, plan, 0, &mut bindings, quirks, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn bind_next<R: Runs + ?Sized>(
        &self,
        runs: &R,
        plan: &ConjPlan,
        depth: usize,
        bindings: &mut Vec<Option<Value>>,
        quirks: ExecQuirks,
        out: &mut Vec<Vec<Value>>,
    ) {
        if depth == plan.order.len() {
            out.push(bindings.iter().map(|b| b.expect("all variables bound")).collect());
            return;
        }
        let step = &plan.steps[depth];
        let cursors: Vec<Cursor<R>> = step
            .runs
            .iter()
            .map(|&run| {
                let (s, p, o) = bound_fields(&self.patterns[run.pattern], bindings);
                Cursor { runs, run, s, p, o, quirks }
            })
            .collect();
        let mut candidates = Vec::new();
        leapfrog(&cursors, &mut candidates);
        for v in candidates {
            bindings[step.var.0] = Some(v);
            // Patterns repeating a variable become fully ground here but
            // were only constrained per-occurrence; dedup against the
            // triples so the diagonal (?x p ?x) holds exactly.
            if !quirks.skip_repeated_var_dedup {
                let ok = plan.ground_checks.iter().filter(|&&(d, _)| d == depth).all(
                    |&(_, pi)| {
                        ground_triple(&self.patterns[pi], bindings)
                            .is_some_and(|t| runs.contains(&t))
                    },
                );
                if !ok {
                    continue;
                }
            }
            self.bind_next(runs, plan, depth + 1, bindings, quirks, out);
        }
        bindings[step.var.0] = None;
    }
}

/// Deliberate-bug switches for mutation testing (slimcheck `--mutate`).
/// Production paths always run with the all-false default.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecQuirks {
    /// Skip the ground re-check that dedups per-occurrence runs of a
    /// repeated variable, so `(?x, p, ?x)` degenerates into "x is *some*
    /// subject and *some* object under p" instead of the diagonal.
    pub skip_repeated_var_dedup: bool,
    /// Serve the property-bound object run from the wrong index (SPO with
    /// the property atom misread as a subject) instead of the POS prefix
    /// run, losing every binding the real run would have proposed.
    pub wrong_pos_run: bool,
}

/// How one run is read off the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunAccess {
    /// The bound positions are a sort prefix of `index`; the distinct
    /// values stream via leapfrog seeks, `prefix_len` fields bound.
    Prefix { index: IndexKind, prefix_len: u8 },
    /// No permutation leads with (bound, proposed); the run streams via a
    /// skip-scan over `index` (the one leading with the proposed
    /// position): alternating range probes that seek the probe value's
    /// block and jump to the next value the index proposes when it is
    /// absent. Still O(log n) per seek — nothing is materialized.
    SkipScan { index: IndexKind },
}

/// One run feeding a binding step: which pattern, which position of it,
/// how it is accessed, and the pattern's estimated cardinality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunChoice {
    pub pattern: usize,
    pub position: Position,
    pub access: RunAccess,
    /// Run-length estimate: how many triples the pattern's constants
    /// alone match, counted off its single-pattern plan.
    pub estimate: usize,
}

/// One variable's binding step: the runs intersected to propose values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindStep {
    pub var: Var,
    pub runs: Vec<RunChoice>,
}

/// A planned join: binding order plus per-step run choices. Render with
/// [`ConjPlan::render`] or [`Runs::explain_join`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConjPlan {
    pub order: Vec<Var>,
    pub steps: Vec<BindStep>,
    /// Per-pattern run-length estimates (constants-only counts).
    pub pattern_estimates: Vec<usize>,
    /// (order depth, pattern) pairs needing a ground re-check for a
    /// repeated variable.
    ground_checks: Vec<(usize, usize)>,
}

impl ConjPlan {
    /// Render the join tree with names resolved against `runs` — pure
    /// function of (query, contents), so deterministic.
    pub fn render<R: Runs + ?Sized>(&self, query: &ConjQuery, runs: &R) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let order = self
            .order
            .iter()
            .map(|v| format!("?{}", query.var_name(*v)))
            .collect::<Vec<_>>()
            .join(" -> ");
        let _ = writeln!(
            out,
            "join tree: {} patterns, bind order {order}",
            query.patterns().len()
        );
        for step in &self.steps {
            let _ = writeln!(out, "  bind ?{}", query.var_name(step.var));
            for rc in &step.runs {
                let access = match rc.access {
                    RunAccess::Prefix { index, prefix_len } => {
                        format!("{} run, {prefix_len} bound", index.name())
                    }
                    RunAccess::SkipScan { index } => {
                        format!("{} skip-scan", index.name())
                    }
                };
                let _ = writeln!(
                    out,
                    "    p{} {} {}: {access}, est {}",
                    rc.pattern,
                    query.render_pattern(rc.pattern, runs),
                    rc.position.name(),
                    rc.estimate
                );
            }
        }
        out
    }
}

// ---- leapfrog machinery ----------------------------------------------------

/// A cursor over one sorted distinct-value run: one position of one
/// pattern, read as its [`RunChoice`] says, given the pattern's bound
/// fields. A field is `None` when unbound (the proposed position) or
/// when a literal is bound where only resources fit, which leaves the
/// run empty. `next_geq` answers "the first run value >= lo" with one
/// run seek, which is all leapfrog needs.
struct Cursor<'a, R: ?Sized> {
    runs: &'a R,
    run: RunChoice,
    s: Option<Atom>,
    p: Option<Atom>,
    o: Option<Value>,
    quirks: ExecQuirks,
}

impl<R: Runs + ?Sized> Cursor<'_, R> {
    fn next_geq(&self, lo: Value) -> Option<Value> {
        use IndexKind::{Osp, Pos, Spo};
        use Position::{Object, Property, Subject};
        use RunAccess::{Prefix, SkipScan};
        let (r, s, p, o) = (self.runs, self.s, self.p, self.o);
        // Runs over atom positions only ever hold resources; a literal
        // lower bound is already past them (resources sort first).
        let atom = match lo {
            Value::Resource(a) => Some(a),
            Value::Literal(_) => None,
        };
        let res = |a: Option<Atom>| a.map(Value::Resource);
        match (self.run.position, self.run.access) {
            (Subject, Prefix { index: Spo, .. }) => res(r.run_subject_geq(atom?)),
            (Subject, Prefix { index: Pos, .. }) => res(r.run_subject_of_po_geq(p?, o?, atom?)),
            (Subject, Prefix { index: Osp, .. }) => res(r.run_subject_of_o_geq(o?, atom?)),
            (Subject, SkipScan { .. }) => res(r.run_subject_with_p_geq(p?, atom?)),
            (Property, Prefix { index: Spo, .. }) => res(r.run_property_of_s_geq(s?, atom?)),
            (Property, Prefix { index: Pos, .. }) => res(r.run_property_geq(atom?)),
            (Property, Prefix { index: Osp, .. }) => res(r.run_property_of_os_geq(o?, s?, atom?)),
            (Property, SkipScan { .. }) => res(r.run_property_with_o_geq(o?, atom?)),
            (Object, Prefix { index: Spo, .. }) => r.run_object_of_sp_geq(s?, p?, lo),
            // Seeded bug: propose the objects of a subject, with the
            // property atom misread as that subject.
            (Object, Prefix { index: Pos, .. }) if self.quirks.wrong_pos_run => {
                r.run_object_with_s_geq(p?, lo)
            }
            (Object, Prefix { index: Pos, .. }) => r.run_object_of_p_geq(p?, lo),
            (Object, Prefix { index: Osp, .. }) => r.run_object_geq(lo),
            (Object, SkipScan { .. }) => r.run_object_with_s_geq(s?, lo),
        }
    }
}

/// Intersect the cursors' runs, appending each common value to `out` in
/// ascending order. Classic leapfrog: keep seeking every cursor to the
/// current maximum until all agree, emit, then seek past the match.
fn leapfrog<R: Runs + ?Sized>(cursors: &[Cursor<R>], out: &mut Vec<Value>) {
    let n = cursors.len();
    if n == 0 {
        return;
    }
    let mut lo = VALUE_MIN;
    loop {
        let mut v = match cursors[0].next_geq(lo) {
            Some(v) => v,
            None => return,
        };
        let mut agreed = 1;
        let mut i = 1;
        while agreed < n {
            match cursors[i % n].next_geq(v) {
                None => return,
                Some(w) if w == v => agreed += 1,
                Some(w) => {
                    v = w;
                    agreed = 1;
                }
            }
            i += 1;
        }
        out.push(v);
        lo = match value_succ(v) {
            Some(s) => s,
            None => return,
        };
    }
}

/// The variables a pattern mentions, with their positions, in S/P/O order
/// (a repeated variable yields one entry per occurrence).
fn pattern_vars(p: &ConjPattern) -> impl Iterator<Item = (Var, Position)> {
    let s = match p.subject {
        AtomTerm::Var(v) => Some((v, Position::Subject)),
        AtomTerm::Const(_) => None,
    };
    let pr = match p.property {
        AtomTerm::Var(v) => Some((v, Position::Property)),
        AtomTerm::Const(_) => None,
    };
    let o = match p.object {
        ValueTerm::Var(v) => Some((v, Position::Object)),
        ValueTerm::Const(_) => None,
    };
    s.into_iter().chain(pr).chain(o)
}

fn term_bound_atom(t: &AtomTerm, bound: &[bool]) -> bool {
    match t {
        AtomTerm::Const(_) => true,
        AtomTerm::Var(v) => bound[v.0],
    }
}

fn term_bound_value(t: &ValueTerm, bound: &[bool]) -> bool {
    match t {
        ValueTerm::Const(_) => true,
        ValueTerm::Var(v) => bound[v.0],
    }
}

/// The pattern's constants as a single-pattern selection, for estimates.
fn const_pattern(p: &ConjPattern) -> TriplePattern {
    let mut tp = TriplePattern::default();
    if let AtomTerm::Const(a) = p.subject {
        tp = tp.with_subject(a);
    }
    if let AtomTerm::Const(a) = p.property {
        tp = tp.with_property(a);
    }
    if let ValueTerm::Const(v) = p.object {
        tp = tp.with_object(v);
    }
    tp
}

/// A pattern's subject, property and object under `bindings`: `None`
/// where a variable is unbound, or bound to a literal in an atom
/// position (no such triple can exist).
fn bound_fields(
    p: &ConjPattern,
    bindings: &[Option<Value>],
) -> (Option<Atom>, Option<Atom>, Option<Value>) {
    let atom = |t: &AtomTerm| -> Option<Atom> {
        match t {
            AtomTerm::Const(a) => Some(*a),
            AtomTerm::Var(v) => match bindings.get(v.0).copied().flatten() {
                Some(Value::Resource(a)) => Some(a),
                _ => None,
            },
        }
    };
    let value = match p.object {
        ValueTerm::Const(v) => Some(v),
        ValueTerm::Var(v) => bindings.get(v.0).copied().flatten(),
    };
    (atom(&p.subject), atom(&p.property), value)
}

/// Instantiate a fully-bound pattern under `bindings`; `None` unless
/// every field is bound (see [`bound_fields`]).
fn ground_triple(p: &ConjPattern, bindings: &[Option<Value>]) -> Option<crate::store::Triple> {
    let (subject, property, object) = bound_fields(p, bindings);
    Some(crate::store::Triple { subject: subject?, property: property?, object: object? })
}

// ---- naive baseline --------------------------------------------------------

/// The naive cross-product evaluator: each pattern's candidates come from
/// a full linear scan filtered on its *constants only*, then candidates
/// are nested-looped with variable-consistency checks — exactly the
/// materialized join the engine exists to avoid. Differential oracle for
/// slimcheck's `conj` layer and baseline for the `slim-bench` join gate.
pub fn naive_join(store: &TripleStore, query: &ConjQuery) -> Result<Vec<Vec<Value>>, ConjError> {
    query.validate()?;
    let all: Vec<crate::store::Triple> = store.iter().collect();
    let candidates: Vec<Vec<crate::store::Triple>> = query
        .patterns()
        .iter()
        .map(|p| {
            let cp = const_pattern(p);
            all.iter().filter(|t| cp.matches(t)).copied().collect()
        })
        .collect();
    let mut bindings: Vec<Option<Value>> = vec![None; query.var_count()];
    let mut out = BTreeSet::new();
    naive_rec(query, &candidates, 0, &mut bindings, &mut out);
    Ok(out.into_iter().collect())
}

fn naive_rec(
    query: &ConjQuery,
    candidates: &[Vec<crate::store::Triple>],
    depth: usize,
    bindings: &mut Vec<Option<Value>>,
    out: &mut BTreeSet<Vec<Value>>,
) {
    if depth == query.patterns().len() {
        if bindings.iter().all(|b| b.is_some()) {
            out.insert(bindings.iter().map(|b| b.expect("checked")).collect());
        }
        return;
    }
    let p = &query.patterns()[depth];
    for t in &candidates[depth] {
        let mut newly = Vec::new();
        if unify(p, t, bindings, &mut newly) {
            naive_rec(query, candidates, depth + 1, bindings, out);
        }
        for v in newly {
            bindings[v] = None;
        }
    }
}

/// Try to extend `bindings` so `p` matches `t`; records newly-bound var
/// indexes in `newly` for rollback. Returns false (possibly after partial
/// binding, rolled back by the caller) on any inconsistency.
fn unify(
    p: &ConjPattern,
    t: &crate::store::Triple,
    bindings: &mut [Option<Value>],
    newly: &mut Vec<usize>,
) -> bool {
    let mut bind = |var: Var, val: Value| -> bool {
        match bindings[var.0] {
            Some(existing) => existing == val,
            None => {
                bindings[var.0] = Some(val);
                newly.push(var.0);
                true
            }
        }
    };
    let s_ok = match p.subject {
        AtomTerm::Const(a) => a == t.subject,
        AtomTerm::Var(v) => bind(v, Value::Resource(t.subject)),
    };
    if !s_ok {
        return false;
    }
    let p_ok = match p.property {
        AtomTerm::Const(a) => a == t.property,
        AtomTerm::Var(v) => bind(v, Value::Resource(t.property)),
    };
    if !p_ok {
        return false;
    }
    match p.object {
        ValueTerm::Const(v) => v == t.object,
        ValueTerm::Var(v) => bind(v, t.object),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with(triples: &[(&str, &str, &str, bool)]) -> TripleStore {
        let mut s = TripleStore::new();
        for &(subject, property, object, is_res) in triples {
            if is_res {
                s.insert_resource(subject, property, object);
            } else {
                s.insert_literal(subject, property, object);
            }
        }
        s
    }

    fn names(store: &TripleStore, rows: &[Vec<Value>]) -> Vec<Vec<String>> {
        rows.iter()
            .map(|row| row.iter().map(|v| store.value_text(*v).to_string()).collect())
            .collect()
    }

    #[test]
    fn two_pattern_membership_join() {
        let store = store_with(&[
            ("b1", "content", "s1", true),
            ("b1", "content", "s2", true),
            ("b2", "content", "s3", true),
            ("s1", "name", "alpha", false),
            ("s2", "name", "beta", false),
            ("s3", "name", "gamma", false),
        ]);
        let b1 = store.find_atom("b1").unwrap();
        let content = store.find_atom("content").unwrap();
        let name = store.find_atom("name").unwrap();
        let mut q = ConjQuery::new();
        let s = q.var("s");
        let n = q.var("n");
        q.pattern(b1, content, s).pattern(s, name, n);
        let rows = q.solve(&store).unwrap();
        assert_eq!(
            names(&store, &rows),
            vec![vec!["s1".to_string(), "alpha".to_string()], vec![
                "s2".to_string(),
                "beta".to_string()
            ]]
        );
        assert_eq!(rows, naive_join(&store, &q).unwrap());
    }

    #[test]
    fn chain_join_follows_links() {
        let store = store_with(&[
            ("a", "next", "b", true),
            ("b", "next", "c", true),
            ("c", "next", "d", true),
        ]);
        let next = store.find_atom("next").unwrap();
        let mut q = ConjQuery::new();
        let (x, y, z) = (q.var("x"), q.var("y"), q.var("z"));
        q.pattern(x, next, y).pattern(y, next, z);
        let rows = q.solve(&store).unwrap();
        assert_eq!(
            names(&store, &rows),
            vec![
                vec!["a".to_string(), "b".to_string(), "c".to_string()],
                vec!["b".to_string(), "c".to_string(), "d".to_string()],
            ]
        );
        assert_eq!(rows, naive_join(&store, &q).unwrap());
    }

    #[test]
    fn repeated_variable_takes_the_diagonal_only() {
        let store = store_with(&[
            ("a", "p", "b", true),
            ("b", "p", "c", true),
            ("d", "p", "d", true),
        ]);
        let p = store.find_atom("p").unwrap();
        let mut q = ConjQuery::new();
        let x = q.var("x");
        q.pattern(x, p, x);
        let rows = q.solve(&store).unwrap();
        assert_eq!(names(&store, &rows), vec![vec!["d".to_string()]]);
        assert_eq!(rows, naive_join(&store, &q).unwrap());
        // The seeded mutant that skips the ground re-check sees the
        // cross-occurrence superset {b, d}.
        let quirky = q
            .testonly_solve_with_quirks(
                &store,
                ExecQuirks { skip_repeated_var_dedup: true, ..Default::default() },
            )
            .unwrap();
        assert_eq!(names(&store, &quirky), vec![vec!["b".to_string()], vec!["d".to_string()]]);
    }

    #[test]
    fn wrong_pos_run_quirk_loses_bindings() {
        let store = store_with(&[("a", "p1", "b", true), ("b", "p2", "c", true)]);
        let p1 = store.find_atom("p1").unwrap();
        let p2 = store.find_atom("p2").unwrap();
        let mut q = ConjQuery::new();
        let (x, y, z) = (q.var("x"), q.var("y"), q.var("z"));
        q.pattern(x, p1, y).pattern(y, p2, z);
        assert_eq!(q.solve(&store).unwrap().len(), 1);
        let quirky = q
            .testonly_solve_with_quirks(
                &store,
                ExecQuirks { wrong_pos_run: true, ..Default::default() },
            )
            .unwrap();
        assert!(quirky.is_empty());
    }

    #[test]
    fn every_forced_order_matches_the_planner() {
        let store = store_with(&[
            ("b1", "content", "s1", true),
            ("s1", "mark", "m1", true),
            ("m1", "doc", "d1", true),
            ("b1", "content", "s2", true),
            ("s2", "mark", "m2", true),
            ("m2", "doc", "d2", true),
        ]);
        let content = store.find_atom("content").unwrap();
        let mark = store.find_atom("mark").unwrap();
        let doc = store.find_atom("doc").unwrap();
        let mut q = ConjQuery::new();
        let (b, s, m, d) = (q.var("b"), q.var("s"), q.var("m"), q.var("d"));
        q.pattern(b, content, s).pattern(s, mark, m).pattern(m, doc, d);
        let baseline = q.solve(&store).unwrap();
        assert_eq!(baseline.len(), 2);
        let vars = [b, s, m, d];
        // All 24 permutations of the binding order.
        let mut perms = Vec::new();
        permute(&vars, &mut Vec::new(), &mut perms);
        assert_eq!(perms.len(), 24);
        for order in perms {
            assert_eq!(q.solve_ordered(&store, &order).unwrap(), baseline, "order {order:?}");
        }
    }

    fn permute(rest: &[Var], acc: &mut Vec<Var>, out: &mut Vec<Vec<Var>>) {
        if rest.is_empty() {
            out.push(acc.clone());
            return;
        }
        for (i, v) in rest.iter().enumerate() {
            let mut next: Vec<Var> = rest.to_vec();
            next.remove(i);
            acc.push(*v);
            permute(&next, acc, out);
            acc.pop();
        }
    }

    #[test]
    fn const_only_pattern_is_a_probe_gate() {
        let store = store_with(&[("a", "p", "b", true), ("c", "q", "d", true)]);
        let (a, p) = (store.find_atom("a").unwrap(), store.find_atom("p").unwrap());
        let b = Value::Resource(store.find_atom("b").unwrap());
        let q_atom = store.find_atom("q").unwrap();
        let mut q = ConjQuery::new();
        let x = q.var("x");
        let y = q.var("y");
        q.pattern(a, p, b).pattern(x, q_atom, y);
        // Hit: the ground pattern holds, so the variable patterns solve.
        assert_eq!(q.solve(&store).unwrap().len(), 1);
        // Miss: flip the ground pattern to an absent triple.
        let mut q2 = ConjQuery::new();
        let x2 = q2.var("x");
        let y2 = q2.var("y");
        q2.pattern(a, q_atom, b).pattern(x2, q_atom, y2);
        assert!(q2.solve(&store).unwrap().is_empty());
        let _ = x;
    }

    #[test]
    fn validation_rejects_degenerate_queries() {
        let store = TripleStore::new();
        let q = ConjQuery::new();
        assert_eq!(q.solve(&store).unwrap_err(), ConjError::Empty);

        let mut q = ConjQuery::new();
        let used = q.var("used");
        let _ghost = q.var("ghost");
        q.pattern(used, used, used);
        assert_eq!(q.solve(&store).unwrap_err(), ConjError::UnusedVar("ghost".to_string()));

        let mut q = ConjQuery::new();
        let v = q.var("v");
        q.pattern(v, v, Var(7));
        assert_eq!(q.solve(&store).unwrap_err(), ConjError::UnknownVar(7));
    }

    #[test]
    fn bad_orders_are_rejected() {
        let store = store_with(&[("a", "p", "b", true)]);
        let p = store.find_atom("p").unwrap();
        let mut q = ConjQuery::new();
        let (x, y) = (q.var("x"), q.var("y"));
        q.pattern(x, p, y);
        assert!(matches!(q.solve_ordered(&store, &[x]), Err(ConjError::BadOrder(_))));
        assert!(matches!(q.solve_ordered(&store, &[x, x]), Err(ConjError::BadOrder(_))));
        assert!(matches!(
            q.solve_ordered(&store, &[x, Var(9)]),
            Err(ConjError::UnknownVar(9))
        ));
    }

    #[test]
    fn explain_join_renders_the_tree() {
        let store = store_with(&[
            ("b1", "content", "s1", true),
            ("s1", "name", "alpha", false),
        ]);
        let b1 = store.find_atom("b1").unwrap();
        let content = store.find_atom("content").unwrap();
        let name = store.find_atom("name").unwrap();
        let mut q = ConjQuery::new();
        let s = q.var("s");
        let n = q.var("n");
        q.pattern(b1, content, s).pattern(s, name, n);
        let tree = store.explain_join(&q).unwrap();
        assert!(tree.starts_with("join tree: 2 patterns, bind order ?s -> ?n"), "{tree}");
        assert!(tree.contains("SPO run, 2 bound"), "{tree}");
        assert!(tree.contains("(b1 content ?s)"), "{tree}");
        // Deterministic: identical on recomputation.
        assert_eq!(tree, store.explain_join(&q).unwrap());
    }

    #[test]
    fn literals_join_on_the_object_position() {
        let store = store_with(&[
            ("s1", "name", "dup", false),
            ("s2", "name", "dup", false),
            ("s3", "name", "uniq", false),
        ]);
        let name = store.find_atom("name").unwrap();
        let mut q = ConjQuery::new();
        let (a, b, n) = (q.var("a"), q.var("b"), q.var("n"));
        q.pattern(a, name, n).pattern(b, name, n);
        let rows = q.solve(&store).unwrap();
        // Pairs sharing a name, both orders plus diagonals.
        assert_eq!(rows.len(), 5);
        assert_eq!(rows, naive_join(&store, &q).unwrap());
    }
}
