//! Sorted runs: the one interface the conjunctive engine reads.
//!
//! [`Runs`] is implemented by the live [`crate::TripleStore`] and by a
//! [`crate::Snapshot`] of it. Both hold the same layout — three frozen
//! sorted permutation columns plus a small delta — and each implements
//! the seeks and the count as one-line calls into that layout's shared
//! merge code. So every run the engine needs is written once below, over
//! three "first key ≥ k" seeks, and [`crate::ConjQuery::solve`] runs
//! unchanged on either.
//!
//! Each run method returns the first value >= `lo` of one distinct-value
//! run, answered by one seek. The leapfrog cursors in [`crate::conj`]
//! call them with strictly increasing `lo`, so a k-way run intersection
//! streams without materializing any run.

use crate::atom::Atom;
use crate::conj::{ConjError, ConjQuery};
use crate::store::{Triple, TriplePattern, Value, VALUE_MIN};

/// A key of the (subject, property, object) permutation.
pub type SpoKey = (Atom, Atom, Value);
/// A key of the (property, object, subject) permutation.
pub type PosKey = (Atom, Value, Atom);
/// A key of the (object, subject, property) permutation.
pub type OspKey = (Value, Atom, Atom);

/// A triple set readable as three sorted permutations. Implementors
/// supply the seeks, counts and atom names; the runs, probes and join
/// explain are provided.
pub trait Runs {
    /// The first SPO key >= `from`.
    fn seek_spo(&self, from: SpoKey) -> Option<SpoKey>;

    /// The first POS key >= `from`.
    fn seek_pos(&self, from: PosKey) -> Option<PosKey>;

    /// The first OSP key >= `from`.
    fn seek_osp(&self, from: OspKey) -> Option<OspKey>;

    /// Number of triples matching `pattern` — the planner's estimates.
    fn count(&self, pattern: &TriplePattern) -> usize;

    /// The string for an atom of this triple set.
    fn resolve(&self, a: Atom) -> &str;

    /// True if the exact triple is present.
    fn contains(&self, t: &Triple) -> bool {
        let key = (t.subject, t.property, t.object);
        self.seek_spo(key) == Some(key)
    }

    /// The join tree [`ConjQuery::solve`] will execute — the conjunctive
    /// analogue of [`crate::TripleStore::explain`]. Deterministic for
    /// fixed contents, so tests can golden-match it.
    fn explain_join(&self, query: &ConjQuery) -> Result<String, ConjError> {
        Ok(query.plan(self)?.render(query, self))
    }

    /// First subject >= `lo` (distinct-subject run of SPO).
    fn run_subject_geq(&self, lo: Atom) -> Option<Atom> {
        self.seek_spo((lo, Atom::MIN, VALUE_MIN)).map(|(s, _, _)| s)
    }

    /// First property >= `lo` among triples with subject `s` (SPO run).
    fn run_property_of_s_geq(&self, s: Atom, lo: Atom) -> Option<Atom> {
        self.seek_spo((s, lo, VALUE_MIN)).filter(|k| k.0 == s).map(|(_, p, _)| p)
    }

    /// First object >= `lo` among triples with subject `s` and property
    /// `p` (SPO run).
    fn run_object_of_sp_geq(&self, s: Atom, p: Atom, lo: Value) -> Option<Value> {
        self.seek_spo((s, p, lo)).filter(|k| k.0 == s && k.1 == p).map(|(_, _, o)| o)
    }

    /// First property >= `lo` (distinct-property run of POS).
    fn run_property_geq(&self, lo: Atom) -> Option<Atom> {
        self.seek_pos((lo, VALUE_MIN, Atom::MIN)).map(|(p, _, _)| p)
    }

    /// First object >= `lo` among triples with property `p` (POS run).
    fn run_object_of_p_geq(&self, p: Atom, lo: Value) -> Option<Value> {
        self.seek_pos((p, lo, Atom::MIN)).filter(|k| k.0 == p).map(|(_, o, _)| o)
    }

    /// First subject >= `lo` among triples with property `p` and object
    /// `o` (POS run).
    fn run_subject_of_po_geq(&self, p: Atom, o: Value, lo: Atom) -> Option<Atom> {
        self.seek_pos((p, o, lo)).filter(|k| k.0 == p && k.1 == o).map(|(_, _, s)| s)
    }

    /// First object >= `lo` (distinct-object run of OSP).
    fn run_object_geq(&self, lo: Value) -> Option<Value> {
        self.seek_osp((lo, Atom::MIN, Atom::MIN)).map(|(o, _, _)| o)
    }

    /// First subject >= `lo` among triples with object `o` (OSP run).
    fn run_subject_of_o_geq(&self, o: Value, lo: Atom) -> Option<Atom> {
        self.seek_osp((o, lo, Atom::MIN)).filter(|k| k.0 == o).map(|(_, s, _)| s)
    }

    /// First property >= `lo` among triples with object `o` and subject
    /// `s` (OSP run).
    fn run_property_of_os_geq(&self, o: Value, s: Atom, lo: Atom) -> Option<Atom> {
        self.seek_osp((o, s, lo)).filter(|k| k.0 == o && k.1 == s).map(|(_, _, p)| p)
    }

    // Three (bound → proposed) combinations have no permutation whose sort
    // order is (bound, proposed, rest): P→S, O→P, S→O. Those runs are
    // served by *skip-scans* over the permutation that leads with the
    // proposed position: alternating seeks that probe the value's
    // (value, bound) block and, when it is absent, jump to the next value
    // the permutation itself proposes. Each probe is one seek and the
    // probe count is bounded by the values *between* matches, so even
    // these fallback runs stream — nothing is materialized.

    /// First subject >= `lo` with at least one `(subject, p, _)` triple —
    /// the P→S skip-scan over SPO.
    fn run_subject_with_p_geq(&self, p: Atom, lo: Atom) -> Option<Atom> {
        let mut s = lo;
        loop {
            let (ts, tp, _) = self.seek_spo((s, p, VALUE_MIN))?;
            if tp == p {
                // Subjects strictly between `s` and `ts` have no triples
                // at all, so `ts` is the first subject carrying `p`.
                return Some(ts);
            }
            // `ts`'s smallest property past the probe point is below `p`:
            // probe its own (ts, p) block next. Otherwise `ts` (or `s`
            // itself, when ts == s) has no `p`; advance past it.
            s = if ts > s && tp < p { ts } else { ts.succ()? };
        }
    }

    /// First property >= `lo` with at least one `(_, property, o)` triple —
    /// the O→P skip-scan over POS.
    fn run_property_with_o_geq(&self, o: Value, lo: Atom) -> Option<Atom> {
        let mut p = lo;
        loop {
            let (tp, to, _) = self.seek_pos((p, o, Atom::MIN))?;
            if to == o {
                return Some(tp);
            }
            p = if tp > p && to < o { tp } else { tp.succ()? };
        }
    }

    /// First object >= `lo` with at least one `(s, _, object)` triple —
    /// the S→O skip-scan over OSP.
    fn run_object_with_s_geq(&self, s: Atom, lo: Value) -> Option<Value> {
        let mut o = lo;
        loop {
            let (to, ts, _) = self.seek_osp((o, s, Atom::MIN))?;
            if ts == s {
                return Some(to);
            }
            o = if to > o && ts < s { to } else { value_succ(to)? };
        }
    }
}

/// The strictly next value in the index sort order, or `None` at the top.
pub(crate) fn value_succ(v: Value) -> Option<Value> {
    match v {
        Value::Resource(a) => match a.succ() {
            Some(n) => Some(Value::Resource(n)),
            None => Some(Value::Literal(Atom::MIN)),
        },
        Value::Literal(a) => a.succ().map(Value::Literal),
    }
}
