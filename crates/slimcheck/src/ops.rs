//! Operation alphabets for the checked layers, plus their strategies. Every op addresses objects by *index* into small pools or
//! into the set of live objects at execution time (resolved modulo the
//! live count), so any randomly generated op is executable and every
//! shrink candidate stays meaningful.

use proptest::prelude::*;

/// A small vocabulary so operations collide often.
pub const SUBJECTS: &[&str] = &["b1", "b2", "s1", "s2", "pad"];
pub const PROPS: &[&str] = &["name", "content", "nested", "pos"];
pub const OBJECTS: &[&str] = &["b2", "s1", "John", "140", ""];

/// Name pool shared by the DMI and pad layers.
pub const NAMES: &[&str] = &["Rounds", "John Smith", "Na 140", "K 4.1", ""];
/// Annotation pool (small so add/remove collide).
pub const ANNOTATIONS: &[&str] = &["stat", "recheck", "od? <&>", "hold"];

/// One step against the triple-store stack (TRIM + journal + slimio).
#[derive(Debug, Clone)]
pub enum StoreOp {
    Insert { s: usize, p: usize, o: usize, res: bool },
    Remove { s: usize, p: usize, o: usize, res: bool },
    SetUnique { s: usize, p: usize, o: usize, res: bool },
    RemoveMatching { s: Option<usize>, p: Option<usize>, o: Option<(usize, bool)> },
    /// Mid-sequence query probe: select/count/explain one pattern shape
    /// against the oracle. Having the shape *in the op alphabet* means a
    /// shrunk counterexample names the failing pattern shape directly.
    QueryShape { s: Option<usize>, p: Option<usize>, o: Option<(usize, bool)> },
    /// Record the current revision + model snapshot for a later `Undo`.
    Checkpoint,
    /// Undo to the `back`-th most recent checkpoint (modulo stack size).
    Undo { back: usize },
    /// Durable save to the world's disk, then verified reload.
    Save,
    /// Attempt a save with an injected fault (`fault`/`mode` select the
    /// victim operation and misbehavior, `tear_seed` the torn length),
    /// then check the crash-safety invariants on the post-crash disk.
    CrashSave { fault: usize, mode: usize, tear_seed: u64 },
    /// Commit the journal's delta to the store's write-ahead log.
    Commit,
    /// A commit that fails in place at its append or sync (`fault`),
    /// failing or tearing (`mode`): then repair the log and undo to the
    /// durable state (`rewind`), or retry the commit.
    FaultCommit { fault: usize, mode: usize, tear_seed: u64, rewind: bool },
}

pub fn store_op_strategy() -> impl Strategy<Value = StoreOp> {
    let field = (0..SUBJECTS.len(), 0..PROPS.len(), 0..OBJECTS.len(), any::<bool>());
    prop_oneof![
        // Insert twice: growth-biased sequences reach interesting states.
        field.clone().prop_map(|(s, p, o, res)| StoreOp::Insert { s, p, o, res }),
        field.clone().prop_map(|(s, p, o, res)| StoreOp::Insert { s, p, o, res }),
        // Remove twice: removes must often hit an inserted triple.
        field.clone().prop_map(|(s, p, o, res)| StoreOp::Remove { s, p, o, res }),
        field.clone().prop_map(|(s, p, o, res)| StoreOp::Remove { s, p, o, res }),
        field.prop_map(|(s, p, o, res)| StoreOp::SetUnique { s, p, o, res }),
        (
            proptest::option::of(0..SUBJECTS.len()),
            proptest::option::of(0..PROPS.len()),
            proptest::option::of((0..OBJECTS.len(), any::<bool>())),
        )
            .prop_map(|(s, p, o)| StoreOp::RemoveMatching { s, p, o }),
        (
            proptest::option::of(0..SUBJECTS.len()),
            proptest::option::of(0..PROPS.len()),
            proptest::option::of((0..OBJECTS.len(), any::<bool>())),
        )
            .prop_map(|(s, p, o)| StoreOp::QueryShape { s, p, o }),
        Just(StoreOp::Checkpoint),
        (0usize..8).prop_map(|back| StoreOp::Undo { back }),
        Just(StoreOp::Save),
        (0usize..3, 0usize..3, any::<u64>())
            .prop_map(|(fault, mode, tear_seed)| StoreOp::CrashSave { fault, mode, tear_seed }),
        Just(StoreOp::Commit),
        (0usize..2, 0usize..2, any::<u64>(), any::<bool>()).prop_map(
            |(fault, mode, tear_seed, rewind)| StoreOp::FaultCommit {
                fault,
                mode,
                tear_seed,
                rewind
            }
        ),
    ]
}

/// One step against the conjunctive query engine ([`trim::ConjQuery`];
/// see `conj_diff`). Inserts and removes grow a store whose atoms are
/// drawn from the shared pools (so query constants hit live atoms
/// often), and `Query` runs one join template — 2 to 4 patterns with
/// shared variables — through the planner and compares the binding
/// sets against a string-level cross-product oracle. Having the
/// template *in the op alphabet* means a shrunk counterexample names
/// the failing join shape directly.
#[derive(Debug, Clone)]
pub enum ConjOp {
    Insert { s: usize, p: usize, o: usize, res: bool },
    Remove { s: usize, p: usize, o: usize, res: bool },
    /// Run join template `shape` (modulo the template count) with
    /// property constants `p0`/`p1` and subject constant `c`, on the store
    /// and on a snapshot published for the query. A `shape` of twice the
    /// template count or more first undoes and redoes the newest change,
    /// so that publish rebuilds.
    Query { shape: usize, p0: usize, p1: usize, c: usize },
}

pub fn conj_op_strategy() -> impl Strategy<Value = ConjOp> {
    let field = (0..SUBJECTS.len(), 0..PROPS.len(), 0..OBJECTS.len(), any::<bool>());
    let query = (0usize..16, 0..PROPS.len(), 0..PROPS.len(), 0..SUBJECTS.len());
    prop_oneof![
        // Insert twice: joins only produce rows over populated stores.
        field.clone().prop_map(|(s, p, o, res)| ConjOp::Insert { s, p, o, res }),
        field.clone().prop_map(|(s, p, o, res)| ConjOp::Insert { s, p, o, res }),
        field.prop_map(|(s, p, o, res)| ConjOp::Remove { s, p, o, res }),
        // Query twice: the sweep is about the join engine.
        query.clone().prop_map(|(shape, p0, p1, c)| ConjOp::Query { shape, p0, p1, c }),
        query.prop_map(|(shape, p0, p1, c)| ConjOp::Query { shape, p0, p1, c }),
    ]
}

/// One step against the typed [`slimstore::SlimPadDmi`] layer. Object
/// fields are raw indices resolved against the live object lists; an op
/// whose target class has no live objects is a no-op.
#[derive(Debug, Clone)]
pub enum DmiOp {
    CreateBundle { name: usize, pos: (i64, i64), w: i64, h: i64 },
    CreatePad { name: usize, root: Option<usize> },
    CreateScrap { name: usize, pos: (i64, i64), mark: usize },
    NestBundle { parent: usize, child: usize },
    UnnestBundle { parent: usize, child: usize },
    AddScrap { bundle: usize, scrap: usize },
    RemoveScrap { bundle: usize, scrap: usize },
    AddMark { scrap: usize, mark: usize },
    RemoveMark { scrap: usize, pick: usize },
    Annotate { scrap: usize, text: usize },
    Unannotate { scrap: usize, text: usize },
    Link { from: usize, to: usize },
    Unlink { from: usize, to: usize },
    UpdateBundlePos { bundle: usize, pos: (i64, i64) },
    UpdateScrapName { scrap: usize, name: usize },
    UpdateRootBundle { pad: usize, root: Option<usize> },
    DeleteBundle { bundle: usize },
    DeleteScrap { scrap: usize },
    DeletePad { pad: usize },
    Checkpoint,
    Rollback { back: usize },
}

pub fn dmi_op_strategy() -> impl Strategy<Value = DmiOp> {
    let pos = (0i64..200, 0i64..200);
    let idx = 0usize..16;
    prop_oneof![
        (0..NAMES.len(), pos.clone(), 10i64..400, 10i64..300)
            .prop_map(|(name, pos, w, h)| DmiOp::CreateBundle { name, pos, w, h }),
        (0..NAMES.len(), proptest::option::of(idx.clone()))
            .prop_map(|(name, root)| DmiOp::CreatePad { name, root }),
        (0..NAMES.len(), pos.clone(), idx.clone())
            .prop_map(|(name, pos, mark)| DmiOp::CreateScrap { name, pos, mark }),
        (idx.clone(), idx.clone()).prop_map(|(parent, child)| DmiOp::NestBundle { parent, child }),
        (idx.clone(), idx.clone())
            .prop_map(|(parent, child)| DmiOp::UnnestBundle { parent, child }),
        (idx.clone(), idx.clone()).prop_map(|(bundle, scrap)| DmiOp::AddScrap { bundle, scrap }),
        (idx.clone(), idx.clone()).prop_map(|(bundle, scrap)| DmiOp::RemoveScrap { bundle, scrap }),
        (idx.clone(), idx.clone()).prop_map(|(scrap, mark)| DmiOp::AddMark { scrap, mark }),
        (idx.clone(), idx.clone()).prop_map(|(scrap, pick)| DmiOp::RemoveMark { scrap, pick }),
        (idx.clone(), 0..ANNOTATIONS.len())
            .prop_map(|(scrap, text)| DmiOp::Annotate { scrap, text }),
        (idx.clone(), 0..ANNOTATIONS.len())
            .prop_map(|(scrap, text)| DmiOp::Unannotate { scrap, text }),
        (idx.clone(), idx.clone()).prop_map(|(from, to)| DmiOp::Link { from, to }),
        (idx.clone(), idx.clone()).prop_map(|(from, to)| DmiOp::Unlink { from, to }),
        (idx.clone(), pos.clone()).prop_map(|(bundle, pos)| DmiOp::UpdateBundlePos { bundle, pos }),
        (idx.clone(), 0..NAMES.len())
            .prop_map(|(scrap, name)| DmiOp::UpdateScrapName { scrap, name }),
        (idx.clone(), proptest::option::of(idx.clone()))
            .prop_map(|(pad, root)| DmiOp::UpdateRootBundle { pad, root }),
        idx.clone().prop_map(|bundle| DmiOp::DeleteBundle { bundle }),
        idx.clone().prop_map(|scrap| DmiOp::DeleteScrap { scrap }),
        idx.clone().prop_map(|pad| DmiOp::DeletePad { pad }),
        Just(DmiOp::Checkpoint),
        (0usize..8).prop_map(|back| DmiOp::Rollback { back }),
    ]
}

/// One step against the [`slimpad::PadSession`] application layer.
#[derive(Debug, Clone)]
pub enum PadOp {
    BeginOp,
    Undo,
    CreateBundle { name: usize, pos: (i64, i64), parent: Option<usize> },
    PlaceMark { label: usize, pos: (i64, i64), bundle: Option<usize> },
    Annotate { scrap: usize, text: usize },
    DeleteScrap { scrap: usize },
}

pub fn pad_op_strategy() -> impl Strategy<Value = PadOp> {
    let pos = (0i64..200, 0i64..200);
    let idx = 0usize..16;
    prop_oneof![
        Just(PadOp::BeginOp),
        Just(PadOp::Undo),
        (0..NAMES.len(), pos.clone(), proptest::option::of(idx.clone()))
            .prop_map(|(name, pos, parent)| PadOp::CreateBundle { name, pos, parent }),
        (0..NAMES.len(), pos, proptest::option::of(idx.clone()))
            .prop_map(|(label, pos, bundle)| PadOp::PlaceMark { label, pos, bundle }),
        (idx.clone(), 0..ANNOTATIONS.len())
            .prop_map(|(scrap, text)| PadOp::Annotate { scrap, text }),
        idx.prop_map(|scrap| PadOp::DeleteScrap { scrap }),
    ]
}

/// One step against the supervised pad-session service
/// ([`slimserve::PadService`]; see `padserve_diff`). Ops are submitted
/// serially through the *main* session handle; the `Sibling*` ops route
/// through a second registered session, so a shrunk counterexample
/// spells out the two-session schedule directly. Selector fields are
/// indices the service itself resolves modulo the live population in
/// canonical creation order, so every generated op is executable.
#[derive(Debug, Clone)]
pub enum PadServeOp {
    /// Create a bundle (`parent` selects an existing bundle; the
    /// invisible root when `None` or while no bundles exist).
    Create { name: usize, pos: (i64, i64), parent: Option<usize> },
    /// Mint a mark over the ward text universe and place it on the pad
    /// as a labelled scrap.
    Mark { doc: usize, paragraph: usize, label: usize, pos: (i64, i64), bundle: Option<usize> },
    /// Attach an annotation to the selected scrap.
    Annotate { scrap: usize, text: usize },
    /// Link two selected scraps.
    Link { from: usize, to: usize },
    /// Resolve the selected scrap's mark through the resilient resolver.
    Resolve { scrap: usize },
    /// Extract the selected scrap's marked content.
    Extract { scrap: usize },
    /// Undo the most recent undoable op (shared pad-level stack).
    Undo,
    /// Re-apply the most recently undone op.
    Redo,
    /// Explicit durable commit (each batch commits anyway; this drives
    /// the clean-commit path).
    Commit,
    /// Fold the WAL into a fresh snapshot generation.
    Compact,
    /// Second session: a structural op (a placed mark when `mark`, a
    /// bundle otherwise) — create/create interleavings across sessions.
    SiblingPadOp { mark: bool, name: usize, pos: (i64, i64), target: Option<usize> },
    /// Second session: undo the top of the shared undo stack — one
    /// session rewinding work the other acknowledged.
    SiblingUndo,
    /// Second session: submit a structural op straight into a one-shot
    /// append fault (`torn` tears the frame mid-write): the batch's
    /// group commit fails, the op is io-refused, and the writer reopens
    /// from disk — a crash-commit schedule in miniature. Acked history
    /// must survive exactly.
    SiblingCrashCommit { torn: bool, tear_seed: u64 },
}

pub fn padserve_op_strategy() -> impl Strategy<Value = PadServeOp> {
    let pos = (0i64..200, 0i64..200);
    let idx = 0usize..16;
    prop_oneof![
        // Creation twice: populated pads are what give the other verbs
        // something to land on.
        (0..NAMES.len(), pos.clone(), proptest::option::of(idx.clone()))
            .prop_map(|(name, pos, parent)| PadServeOp::Create { name, pos, parent }),
        (0usize..8, 0usize..8, 0..NAMES.len(), pos.clone(), proptest::option::of(idx.clone()))
            .prop_map(|(doc, paragraph, label, pos, bundle)| PadServeOp::Mark {
                doc,
                paragraph,
                label,
                pos,
                bundle
            }),
        (0usize..8, 0usize..8, 0..NAMES.len(), pos.clone(), proptest::option::of(idx.clone()))
            .prop_map(|(doc, paragraph, label, pos, bundle)| PadServeOp::Mark {
                doc,
                paragraph,
                label,
                pos,
                bundle
            }),
        (idx.clone(), 0..ANNOTATIONS.len())
            .prop_map(|(scrap, text)| PadServeOp::Annotate { scrap, text }),
        (idx.clone(), idx.clone()).prop_map(|(from, to)| PadServeOp::Link { from, to }),
        idx.clone().prop_map(|scrap| PadServeOp::Resolve { scrap }),
        idx.clone().prop_map(|scrap| PadServeOp::Extract { scrap }),
        Just(PadServeOp::Undo),
        Just(PadServeOp::Redo),
        Just(PadServeOp::Commit),
        Just(PadServeOp::Compact),
        (any::<bool>(), 0..NAMES.len(), pos, proptest::option::of(idx))
            .prop_map(|(mark, name, pos, target)| PadServeOp::SiblingPadOp {
                mark,
                name,
                pos,
                target
            }),
        Just(PadServeOp::SiblingUndo),
        (any::<bool>(), any::<u64>())
            .prop_map(|(torn, tear_seed)| PadServeOp::SiblingCrashCommit { torn, tear_seed }),
    ]
}

/// One step against the logged-persistence stack ([`trim::StoreLog`]
/// over [`slimio::Wal`]; see `wal_diff`). Mutating ops edit the live
/// store; `Commit`/`Compact` move the durability boundary; the crash
/// ops inject a halting fault mid-write and then "reboot" through
/// recovery, checking the recovered state against the model's
/// acknowledged commits.
#[derive(Debug, Clone)]
pub enum WalOp {
    Insert { s: usize, p: usize, o: usize, res: bool },
    Remove { s: usize, p: usize, o: usize, res: bool },
    SetUnique { s: usize, p: usize, o: usize, res: bool },
    /// Record the current revision + model snapshot for a later `Undo`.
    Checkpoint,
    /// Undo to the `back`-th most recent checkpoint (modulo stack size).
    Undo { back: usize },
    /// Group-commit the changes since the last commit as one log frame.
    Commit,
    /// Fold the log into a fresh snapshot and reset it.
    Compact,
    /// Drop the live handles and recover from disk; must land exactly on
    /// the last acknowledged commit.
    Reopen,
    /// Crash during a commit: `fault` picks append/sync, `mode` the
    /// misbehavior, `tear_seed` the torn length; then reboot + recover.
    CrashCommit { fault: usize, mode: usize, tear_seed: u64 },
    /// A commit that fails in place at its append or sync (`fault`),
    /// failing or tearing (`mode`), and the process lives on: then
    /// repair the log and undo to the durable state (`rewind`), or
    /// retry the commit; a reopen must recover the acknowledged state.
    FaultCommit { fault: usize, mode: usize, tear_seed: u64, rewind: bool },
    /// Crash at one of the eight compaction steps (write/sync/rename/
    /// sync_dir for the snapshot install, then again for the log reset).
    CrashCompact { step: usize, mode: usize, tear_seed: u64 },
    /// Flip one byte of the on-disk log (on a clone), then recover: the
    /// result must be a commit boundary or a clean refusal.
    CorruptTail { offset: u64, flip: u8 },
    /// Second session: insert into the *sibling* logged store (its own
    /// snapshot + log at a sibling path on the same disk). Interleaving
    /// these with the main ops produces two-session schedules.
    SiblingInsert { s: usize, p: usize, o: usize, res: bool },
    /// Second session: group-commit the sibling's pending changes —
    /// commit/commit interleavings with the main session.
    SiblingCommit,
    /// Second session: fold the sibling's log into a fresh snapshot —
    /// commit/compact interleavings.
    SiblingCompact,
    /// Crash during the *sibling's* commit, then reboot both sessions.
    /// The sibling recovers its acked state or the attempted batch; the
    /// main session must recover **exactly** its acknowledged commit —
    /// one session's crash never moves another's durability boundary.
    SiblingCrashCommit { fault: usize, mode: usize, tear_seed: u64 },
}

pub fn wal_op_strategy() -> impl Strategy<Value = WalOp> {
    let field = (0..SUBJECTS.len(), 0..PROPS.len(), 0..OBJECTS.len(), any::<bool>());
    prop_oneof![
        // Insert twice: growth-biased sequences give commits substance.
        field.clone().prop_map(|(s, p, o, res)| WalOp::Insert { s, p, o, res }),
        field.clone().prop_map(|(s, p, o, res)| WalOp::Insert { s, p, o, res }),
        field.clone().prop_map(|(s, p, o, res)| WalOp::Remove { s, p, o, res }),
        field.clone().prop_map(|(s, p, o, res)| WalOp::SetUnique { s, p, o, res }),
        Just(WalOp::Checkpoint),
        (0usize..8).prop_map(|back| WalOp::Undo { back }),
        // Commit twice: boundaries are what every other check leans on.
        Just(WalOp::Commit),
        Just(WalOp::Commit),
        Just(WalOp::Compact),
        Just(WalOp::Reopen),
        (0usize..2, 0usize..3, any::<u64>())
            .prop_map(|(fault, mode, tear_seed)| WalOp::CrashCommit { fault, mode, tear_seed }),
        (0usize..2, 0usize..2, any::<u64>(), any::<bool>()).prop_map(
            |(fault, mode, tear_seed, rewind)| WalOp::FaultCommit { fault, mode, tear_seed, rewind }
        ),
        (0usize..8, 0usize..3, any::<u64>())
            .prop_map(|(step, mode, tear_seed)| WalOp::CrashCompact { step, mode, tear_seed }),
        (any::<u64>(), any::<u8>())
            .prop_map(|(offset, flip)| WalOp::CorruptTail { offset, flip }),
        field.prop_map(|(s, p, o, res)| WalOp::SiblingInsert { s, p, o, res }),
        Just(WalOp::SiblingCommit),
        Just(WalOp::SiblingCompact),
        (0usize..2, 0usize..3, any::<u64>()).prop_map(|(fault, mode, tear_seed)| {
            WalOp::SiblingCrashCommit { fault, mode, tear_seed }
        }),
    ]
}

/// One step against the resilient-resolver state machine (see
/// `resolver_diff`). `Resolve` targets a fixture mark by index modulo
/// the fixture's mark count; `Advance` moves the mock clock (letting
/// open breakers cool down between resolutions); `Reseed` switches the
/// fault schedule mid-run.
#[derive(Debug, Clone)]
pub enum ResolverOp {
    Resolve { mark: usize },
    Advance { ms: u16 },
    Reseed { seed: u64 },
}

pub fn resolver_op_strategy() -> impl Strategy<Value = ResolverOp> {
    let mark = 0usize..8;
    prop_oneof![
        // Resolve three times: resolution-heavy sequences are what walk
        // the breaker through trip / cooldown / probe transitions.
        mark.clone().prop_map(|mark| ResolverOp::Resolve { mark }),
        mark.clone().prop_map(|mark| ResolverOp::Resolve { mark }),
        mark.prop_map(|mark| ResolverOp::Resolve { mark }),
        (0u16..1200).prop_map(|ms| ResolverOp::Advance { ms }),
        any::<u64>().prop_map(|seed| ResolverOp::Reseed { seed }),
    ]
}
