//! slimcheck: deterministic model-based differential testing across the
//! SLIM stack.
//!
//! One op sequence is generated per case and driven simultaneously
//! through the real implementation and cheap reference models:
//!
//! * **store** — [`trim::TripleStore`] vs [`trim::NaiveStore`] vs a
//!   `BTreeSet` oracle, journal undo vs a snapshot stack, and every save
//!   (including fault-injected crash saves) round-tripped through
//!   `slimio` ([`store_diff`]).
//! * **conj** — the conjunctive query engine ([`trim::ConjQuery`]
//!   planner + leapfrog executor) vs a string-level cross-product
//!   evaluator over a `BTreeSet` model, with `trim::naive_join`
//!   checked against the same oracle ([`conj_diff`]).
//! * **wal** — the logged commit path ([`trim::StoreLog`] over
//!   [`slimio::Wal`]) vs a model of acknowledged commits, with seeded
//!   crash schedules, reboots, and log-byte corruption ([`wal_diff`]).
//! * **dmi** — [`slimstore::SlimPadDmi`] typed objects vs a plain-Rust
//!   reference world, with triple-pattern readback, conformance, and
//!   canonical persistence checks ([`dmi_diff`]).
//! * **pad** — [`slimpad::PadSession`] begin-op/undo cycles vs a
//!   snapshot stack of canonical XML ([`pad_diff`]).
//! * **padserve** — the supervised [`slimserve::PadService`] vs a
//!   mirror [`slimserve::PadMachine`] replay of its acknowledged ops,
//!   over two-session schedules with one-shot crash commits
//!   ([`padserve_diff`]).
//! * **resolver** — [`marks::ResilientResolver`] retry/breaker/
//!   quarantine behavior under seeded fault injection vs a reference
//!   model of the state machine ([`resolver_diff`]).
//!
//! On divergence the failing sequence is shrunk with the vendored
//! proptest shrinker and reported with a `SLIMCHECK_SEED` that replays
//! the exact failure. Seeded mutations ([`Mutation`]) disable known
//! pieces of the real implementation to prove the harness catches bugs.

pub mod conj_diff;
pub mod corpus_prefix;
pub mod dmi_diff;
pub mod ops;
pub mod pad_diff;
pub mod padserve_diff;
pub mod resolver_diff;
pub mod store_diff;
pub mod wal_diff;

use proptest::strategy::Strategy;
use proptest::test_runner::{panic_message, shrink_to_minimal, with_quiet_panics, TestRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Seeded bugs for mutation mode: each disables one piece of the real
/// store so the harness can demonstrate detection plus shrinking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// No seeded bug — the real implementation as shipped.
    None,
    /// Inserts skip the by-subject index (queries go stale).
    SkipSubjectIndex,
    /// `set_unique` degrades to a plain insert (old values survive).
    LossySetUnique,
    /// `undo_to` silently does nothing.
    UndoNoop,
    /// Removes forget the POS index: the triple lingers there and
    /// property-bound queries see a phantom.
    SkipPosIndexOnRemove,
    /// Log recovery skips the tail frame's CRC check: a corrupted tail
    /// replays garbage instead of being truncated at the damage.
    WalSkipTailCrc,
    /// Commit drops the compensation prefix: after an undo across a
    /// commit, the committed changes it took back come back on reopen.
    WalDropCompensation,
    /// The join executor skips the ground re-check on repeated
    /// variables: `(?x p ?x)` degenerates from the diagonal into "some
    /// subject and some object under p".
    ConjSkipRepeatedVarDedup,
    /// The join executor serves the property-bound object run off the
    /// wrong index (the property atom misread as an SPO subject),
    /// losing every binding that run would have proposed.
    ConjWrongPosRun,
    /// The pad writer's digest upkeep forgets to re-hash the bundle
    /// holding a changed record: the published digest goes stale as
    /// soon as a contained scrap's own fields change.
    PadDigestSkipReferrers,
}

impl Mutation {
    /// All seeded bugs (excludes `None`).
    pub const ALL: [Mutation; 9] = [
        Mutation::SkipSubjectIndex,
        Mutation::LossySetUnique,
        Mutation::UndoNoop,
        Mutation::SkipPosIndexOnRemove,
        Mutation::WalSkipTailCrc,
        Mutation::WalDropCompensation,
        Mutation::ConjSkipRepeatedVarDedup,
        Mutation::ConjWrongPosRun,
        Mutation::PadDigestSkipReferrers,
    ];

    /// CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::SkipSubjectIndex => "skip-subject-index",
            Mutation::LossySetUnique => "lossy-set-unique",
            Mutation::UndoNoop => "undo-noop",
            Mutation::SkipPosIndexOnRemove => "skip-pos-on-remove",
            Mutation::WalSkipTailCrc => "wal-skip-tail-crc",
            Mutation::WalDropCompensation => "wal-drop-compensation",
            Mutation::ConjSkipRepeatedVarDedup => "conj-skip-repeated-var-dedup",
            Mutation::ConjWrongPosRun => "conj-wrong-pos-run",
            Mutation::PadDigestSkipReferrers => "pad-digest-skip-referrers",
        }
    }

    /// The layer whose sweep exercises this seeded bug.
    pub fn layer(self) -> Layer {
        match self {
            Mutation::WalSkipTailCrc | Mutation::WalDropCompensation => Layer::Wal,
            Mutation::ConjSkipRepeatedVarDedup | Mutation::ConjWrongPosRun => Layer::Conj,
            Mutation::PadDigestSkipReferrers => Layer::PadServe,
            _ => Layer::Store,
        }
    }

    /// Mutation-mode shrink budget: a divergence from this seeded bug
    /// must reduce to at most this many ops, or the bug counts as
    /// escaped.
    pub fn shrink_bound(self) -> usize {
        match self {
            // A stale POS entry takes exactly [Insert, Remove] to plant
            // and at most one query op to observe.
            Mutation::SkipPosIndexOnRemove => 3,
            // [Insert, Commit, CorruptTail] plants and observes it; the
            // shrinker sometimes keeps one extra op while minimizing the
            // flip offset. [Insert, Commit, Undo, Commit] plants and
            // observes a dropped compensation prefix.
            Mutation::WalSkipTailCrc | Mutation::WalDropCompensation => 5,
            // Two inserts plant a non-diagonal subject/object pair (or
            // one insert gives a shared-object join something to lose);
            // one query observes the divergence.
            Mutation::ConjSkipRepeatedVarDedup | Mutation::ConjWrongPosRun => 3,
            // A mark places a scrap in the root bundle and an annotation
            // changes the scrap's own fields under it; the digest check
            // after the annotation's ack observes the stale bundle.
            Mutation::PadDigestSkipReferrers => 2,
            _ => 10,
        }
    }
}

/// Which layer of the stack a sweep exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Store,
    Conj,
    Wal,
    Dmi,
    Pad,
    PadServe,
    Resolver,
}

impl Layer {
    /// All layers, in stack order.
    pub const ALL: [Layer; 7] = [
        Layer::Store,
        Layer::Conj,
        Layer::Wal,
        Layer::Dmi,
        Layer::Pad,
        Layer::PadServe,
        Layer::Resolver,
    ];

    /// CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Store => "store",
            Layer::Conj => "conj",
            Layer::Wal => "wal",
            Layer::Dmi => "dmi",
            Layer::Pad => "pad",
            Layer::PadServe => "padserve",
            Layer::Resolver => "resolver",
        }
    }

    /// Parse a `--layer` argument.
    pub fn parse(s: &str) -> Option<Layer> {
        match s {
            "store" => Some(Layer::Store),
            "conj" => Some(Layer::Conj),
            "wal" => Some(Layer::Wal),
            "dmi" => Some(Layer::Dmi),
            "pad" => Some(Layer::Pad),
            "padserve" => Some(Layer::PadServe),
            "resolver" => Some(Layer::Resolver),
            _ => None,
        }
    }

    /// Per-layer tag mixed into case seeds so the sweeps draw disjoint
    /// streams from one base seed.
    fn tag(self) -> u64 {
        match self {
            Layer::Store => 0x73746f72,    // "stor"
            Layer::Conj => 0x636f6e6a,     // "conj"
            Layer::Wal => 0x77616c,        // "wal"
            Layer::Dmi => 0x646d69,        // "dmi"
            Layer::Pad => 0x706164,        // "pad"
            Layer::PadServe => 0x70737276, // "psrv"
            Layer::Resolver => 0x7265736f, // "reso"
        }
    }
}

/// A confirmed, shrunk divergence between the real stack and a model.
#[derive(Debug)]
pub struct Divergence {
    /// Layer the divergence was found in.
    pub layer: Layer,
    /// Mutation active during the sweep (`None` for a real-bug report).
    pub mutation: Mutation,
    /// The case seed; replaying it regenerates the failing sequence.
    pub seed: u64,
    /// Case index within the sweep (0 for a replay).
    pub case: u32,
    /// Panic message from the minimal failing sequence.
    pub message: String,
    /// `{:#?}` of the minimal failing sequence.
    pub minimal_debug: String,
    /// Ops in the minimal failing sequence.
    pub minimal_len: usize,
    /// Ops in the originally generated failing sequence.
    pub original_len: usize,
    /// Accepted shrink steps between the two.
    pub shrink_steps: u32,
}

impl Divergence {
    /// Human-readable report with the replay command. The
    /// `SLIMCHECK_SEED=` line is the machine-readable hook CI greps for.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "slimcheck: divergence in layer `{}` (case {}, mutation: {})\n",
            self.layer.name(),
            self.case,
            self.mutation.name(),
        ));
        out.push_str(&format!(
            "  shrunk {} ops -> {} ops in {} accepted steps\n",
            self.original_len, self.minimal_len, self.shrink_steps
        ));
        out.push_str(&format!("  failure: {}\n", self.message));
        out.push_str(&format!("  minimal sequence: {}\n", self.minimal_debug));
        out.push_str(&format!("SLIMCHECK_SEED=0x{:016x}\n", self.seed));
        out.push_str(&format!(
            "replay: cargo run -p slimcheck -- --layer {} --seed 0x{:016x}{}\n",
            self.layer.name(),
            self.seed,
            if self.mutation == Mutation::None {
                String::new()
            } else {
                format!(" --mutation {}", self.mutation.name())
            },
        ));
        out
    }
}

/// splitmix64-style seed mixer: one base seed fans out into independent
/// per-(layer, case) streams.
fn mix_seed(base: u64, tag: u64, case: u32) -> u64 {
    let mut z = base ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((case as u64) << 32 | 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shrink budget: predicate evaluations allowed while minimizing.
const SHRINK_ATTEMPTS: u32 = 4096;

/// Generate one sequence from `seed`, check it, and on failure shrink to
/// a minimal reproduction. Deterministic: the same seed always yields
/// the same sequence, verdict, and minimal form.
fn run_case<S, T>(
    layer: Layer,
    mutation: Mutation,
    strategy: &S,
    check: impl Fn(&[T]),
    seed: u64,
    case: u32,
) -> Option<Divergence>
where
    S: Strategy<Value = Vec<T>>,
    T: Clone + std::fmt::Debug,
{
    let mut rng = TestRng::from_seed(seed);
    let ops = strategy.generate(&mut rng);
    with_quiet_panics(|| {
        if catch_unwind(AssertUnwindSafe(|| check(&ops))).is_ok() {
            return None;
        }
        let fails = |v: &Vec<T>| catch_unwind(AssertUnwindSafe(|| check(v))).is_err();
        let (minimal, shrink_steps, _) =
            shrink_to_minimal(strategy, ops.clone(), fails, SHRINK_ATTEMPTS);
        let message = match catch_unwind(AssertUnwindSafe(|| check(&minimal))) {
            Err(payload) => panic_message(&*payload),
            Ok(()) => "<failure did not reproduce on minimal sequence>".to_string(),
        };
        Some(Divergence {
            layer,
            mutation,
            seed,
            case,
            message,
            minimal_debug: format!("{minimal:#?}"),
            minimal_len: minimal.len(),
            original_len: ops.len(),
            shrink_steps,
        })
    })
}

/// Run `cases` differential cases against one layer, stopping at the
/// first divergence. `mutation` only affects the layer its seeded bug
/// lives in (see [`Mutation::layer`]).
pub fn run_layer(
    layer: Layer,
    base_seed: u64,
    cases: u32,
    max_ops: usize,
    mutation: Mutation,
) -> Option<Divergence> {
    run_layer_with_corpus(layer, base_seed, cases, max_ops, mutation, 0)
}

/// [`run_layer`] with a slimgen seed-corpus prefix: every case starts
/// from `corpus` translated structure-building ops (see
/// [`corpus_prefix`]) prepended inside the check closure, so the
/// shrinker only minimizes the random suffix. `corpus = 0` is exactly
/// [`run_layer`]; the resolver layer has no structure ops and ignores
/// the prefix.
pub fn run_layer_with_corpus(
    layer: Layer,
    base_seed: u64,
    cases: u32,
    max_ops: usize,
    mutation: Mutation,
    corpus: usize,
) -> Option<Divergence> {
    for case in 0..cases {
        let seed = mix_seed(base_seed, layer.tag(), case);
        let divergence = replay_case(layer, mutation, seed, case, max_ops, corpus);
        if divergence.is_some() {
            return divergence;
        }
    }
    None
}

/// Re-run the single case identified by `seed` (as printed in a
/// divergence report).
pub fn replay(layer: Layer, seed: u64, max_ops: usize, mutation: Mutation) -> Option<Divergence> {
    replay_case(layer, mutation, seed, 0, max_ops, 0)
}

/// [`replay`] for a case originally found with a seed-corpus prefix:
/// `corpus` must match the sweep's `--corpus` value or the sequence the
/// seed regenerates will differ.
pub fn replay_with_corpus(
    layer: Layer,
    seed: u64,
    max_ops: usize,
    mutation: Mutation,
    corpus: usize,
) -> Option<Divergence> {
    replay_case(layer, mutation, seed, 0, max_ops, corpus)
}

fn replay_case(
    layer: Layer,
    mutation: Mutation,
    seed: u64,
    case: u32,
    max_ops: usize,
    corpus: usize,
) -> Option<Divergence> {
    let max_ops = max_ops.max(1);
    match layer {
        Layer::Store => {
            let strategy = proptest::collection::vec(ops::store_op_strategy(), 1..max_ops + 1);
            let prefix = corpus_prefix::store_prefix(seed, corpus);
            run_case(
                layer,
                mutation,
                &strategy,
                |ops| store_diff::check(&with_prefix(&prefix, ops), mutation),
                seed,
                case,
            )
        }
        Layer::Conj => {
            let strategy = proptest::collection::vec(ops::conj_op_strategy(), 1..max_ops + 1);
            let prefix = corpus_prefix::conj_prefix(seed, corpus);
            run_case(
                layer,
                mutation,
                &strategy,
                |ops| conj_diff::check(&with_prefix(&prefix, ops), mutation),
                seed,
                case,
            )
        }
        Layer::Wal => {
            let strategy = proptest::collection::vec(ops::wal_op_strategy(), 1..max_ops + 1);
            let prefix = corpus_prefix::wal_prefix(seed, corpus);
            run_case(
                layer,
                mutation,
                &strategy,
                |ops| wal_diff::check(&with_prefix(&prefix, ops), mutation),
                seed,
                case,
            )
        }
        Layer::Dmi => {
            let strategy = proptest::collection::vec(ops::dmi_op_strategy(), 1..max_ops + 1);
            let prefix = corpus_prefix::dmi_prefix(seed, corpus);
            run_case(
                layer,
                mutation,
                &strategy,
                |ops| dmi_diff::check(&with_prefix(&prefix, ops)),
                seed,
                case,
            )
        }
        Layer::Pad => {
            let strategy = proptest::collection::vec(ops::pad_op_strategy(), 1..max_ops + 1);
            let prefix = corpus_prefix::pad_prefix(seed, corpus);
            run_case(
                layer,
                mutation,
                &strategy,
                |ops| pad_diff::check(&with_prefix(&prefix, ops)),
                seed,
                case,
            )
        }
        Layer::PadServe => {
            let strategy = proptest::collection::vec(ops::padserve_op_strategy(), 1..max_ops + 1);
            let prefix = corpus_prefix::padserve_prefix(seed, corpus);
            run_case(
                layer,
                mutation,
                &strategy,
                |ops| padserve_diff::check(&with_prefix(&prefix, ops), mutation),
                seed,
                case,
            )
        }
        Layer::Resolver => {
            let strategy = proptest::collection::vec(ops::resolver_op_strategy(), 1..max_ops + 1);
            run_case(layer, mutation, &strategy, resolver_diff::check, seed, case)
        }
    }
}

/// `prefix ++ suffix` without cloning when there is no prefix.
fn with_prefix<T: Clone>(prefix: &[T], suffix: &[T]) -> Vec<T> {
    let mut all = Vec::with_capacity(prefix.len() + suffix.len());
    all.extend_from_slice(prefix);
    all.extend_from_slice(suffix);
    all
}
