//! Logged-persistence differential check: one op sequence driven through
//! the real (snapshot, write-ahead log) pair and a model that tracks the
//! in-memory state, the last *acknowledged* commit, and every commit
//! boundary of the current log generation.
//!
//! The contract under test is PR 6's crash matrix, generalized to random
//! schedules:
//!
//! * a graceful [`WalOp::Reopen`] recovers exactly the last acknowledged
//!   commit;
//! * a crashed commit ([`WalOp::CrashCommit`]) recovers the last
//!   acknowledged commit — or the attempted batch if its frame landed
//!   whole — never a partial batch;
//! * a crash at any of the eight compaction steps
//!   ([`WalOp::CrashCompact`]) recovers the pre-compaction acknowledged
//!   state or the compacted one, nothing else;
//! * a corrupted log byte ([`WalOp::CorruptTail`]) yields some commit
//!   boundary (CRC salvage truncates at the damage) or a typed refusal —
//!   never a state no commit ever acknowledged;
//! * a commit that fails in place ([`WalOp::FaultCommit`]) has two
//!   correct endings: a repair plus [`TripleStore::undo_to_durable`]
//!   lands exactly on the last acknowledged commit, and a retry persists
//!   the same delta — also after an [`WalOp::Undo`] that crossed a
//!   commit, whose delta starts with the compensation prefix.
//!
//! A second *sibling* session (its own snapshot + log at a sibling path
//! on the same disk) runs alongside the main one. The `Sibling*` ops
//! interleave its commits, compactions, and crashes with the main
//! session's, checking the cross-session contract: the two logs are
//! independent — a crash mid-commit in one session recovers that
//! session to an acknowledged state and must leave the *other* session
//! exactly at its own acknowledged commit, and the prefix-scoped temp
//! sweep during one session's recovery must not eat the other's files.
//!
//! [`Mutation::WalSkipTailCrc`] disables the tail frame's CRC check in
//! recovery; the `CorruptTail` op is what must catch it.
//! [`Mutation::WalDropCompensation`] commits without the compensation
//! prefix; an undo across a commit, then a commit, is what must catch
//! it.

use crate::ops::{WalOp, OBJECTS, PROPS, SUBJECTS};
use crate::Mutation;
use slimio::{FaultConfig, FaultMode, FaultOp, FaultVfs, MemVfs, Vfs};
use std::collections::BTreeSet;
use std::path::Path;
use trim::{CommitOutcome, Revision, StoreLog, Triple, TripleStore, TrimError, Value};

const SNAP_PATH: &str = "slimcheck/wal-store.xml";
const SIB_PATH: &str = "slimcheck/wal-sibling.xml";
const COMMIT_FAULTS: [FaultOp; 2] = [FaultOp::Append, FaultOp::Sync];
/// Modes in which a faulted commit reports its failure.
const ERR_MODES: [FaultMode; 2] = [FaultMode::Fail, FaultMode::Torn];
const COMPACT_FAULTS: [FaultOp; 4] =
    [FaultOp::Write, FaultOp::Sync, FaultOp::Rename, FaultOp::SyncDir];
const FAULT_MODES: [FaultMode; 3] = [FaultMode::Fail, FaultMode::Torn, FaultMode::SilentTorn];

type ModelTriple = (String, String, String, bool);
type State = BTreeSet<ModelTriple>;

fn snap() -> &'static Path {
    Path::new(SNAP_PATH)
}

fn sib() -> &'static Path {
    Path::new(SIB_PATH)
}

/// Run `ops` through the logged world; panics on any divergence.
pub fn check(ops: &[WalOp], mutation: Mutation) {
    let mut world = World::new(mutation);
    for op in ops {
        world.apply(op);
        world.verify();
    }
    world.store.check_invariants();
    // Final differential recovery: whatever the schedule did, a graceful
    // reopen must land exactly on the last acknowledged commit.
    world.reopen();
}

struct World {
    mutation: Mutation,
    disk: MemVfs,
    store: TripleStore,
    log: StoreLog,
    /// Model of the live in-memory store.
    oracle: State,
    /// Model of the last acknowledged durable commit.
    acked: State,
    /// State at each commit boundary of the current log generation,
    /// oldest first (index 0 is the snapshot itself). Damage to the log
    /// can only ever recover one of these.
    boundaries: Vec<State>,
    /// `(journal revision, oracle snapshot)` pairs for `Undo`; reset on
    /// every reopen, which truncates the journal.
    checkpoints: Vec<(Revision, State)>,
    /// `checkpoints` as of the last commit: a rewind to the durable
    /// state puts the journal's history back to what it was then.
    durable_checkpoints: Vec<(Revision, State)>,
    /// The second session: its own logged store at a sibling path.
    sib_store: TripleStore,
    sib_log: StoreLog,
    /// Model of the sibling's live in-memory store.
    sib_oracle: State,
    /// Model of the sibling's last acknowledged durable commit.
    sib_acked: State,
}

impl World {
    fn new(mutation: Mutation) -> Self {
        let mut disk = MemVfs::new();
        let (store, log) = open_pair(&mut disk, mutation, snap())
            .expect("opening a fresh logged store cannot fail");
        let (sib_store, sib_log) = open_pair(&mut disk, mutation, sib())
            .expect("opening a fresh sibling store cannot fail");
        let checkpoints = vec![(store.revision(), State::new())];
        World {
            mutation,
            disk,
            store,
            log,
            oracle: State::new(),
            acked: State::new(),
            boundaries: vec![State::new()],
            durable_checkpoints: checkpoints.clone(),
            checkpoints,
            sib_store,
            sib_log,
            sib_oracle: State::new(),
            sib_acked: State::new(),
        }
    }

    fn intern(&mut self, s: usize, p: usize, o: usize, res: bool) -> Triple {
        intern_into(&mut self.store, s, p, o, res)
    }

    fn apply(&mut self, op: &WalOp) {
        match *op {
            WalOp::Insert { s, p, o, res } => {
                let t = self.intern(s, p, o, res);
                self.store.insert(t.subject, t.property, t.object);
                self.oracle.insert(model_key(s, p, o, res));
            }
            WalOp::Remove { s, p, o, res } => {
                let t = self.intern(s, p, o, res);
                self.store.remove(t);
                self.oracle.remove(&model_key(s, p, o, res));
            }
            WalOp::SetUnique { s, p, o, res } => {
                let t = self.intern(s, p, o, res);
                self.store.set_unique(t.subject, t.property, t.object);
                self.oracle.retain(|(ms, mp, _, _)| !(ms == SUBJECTS[s] && mp == PROPS[p]));
                self.oracle.insert(model_key(s, p, o, res));
            }
            WalOp::Checkpoint => {
                self.checkpoints.push((self.store.revision(), self.oracle.clone()));
            }
            WalOp::Undo { back } => {
                let idx = self.checkpoints.len() - 1 - (back % self.checkpoints.len());
                let (rev, snapshot) = self.checkpoints[idx].clone();
                self.store.undo_to(rev).expect("recorded revision must be undoable");
                self.oracle = snapshot;
                self.checkpoints.truncate(idx + 1);
            }
            WalOp::Commit => self.commit(),
            WalOp::Compact => {
                self.log
                    .compact(&self.disk, &mut self.store)
                    .expect("compact on MemVfs cannot fail");
                self.acked = self.oracle.clone();
                self.boundaries = vec![self.oracle.clone()];
                self.durable_checkpoints = self.checkpoints.clone();
            }
            WalOp::FaultCommit { fault, mode, tear_seed, rewind } => {
                self.fault_commit(fault, mode, tear_seed, rewind)
            }
            WalOp::Reopen => self.reopen(),
            WalOp::CrashCommit { fault, mode, tear_seed } => {
                self.crash_commit(fault, mode, tear_seed)
            }
            WalOp::CrashCompact { step, mode, tear_seed } => {
                self.crash_compact(step, mode, tear_seed)
            }
            WalOp::CorruptTail { offset, flip } => self.corrupt_tail(offset, flip),
            WalOp::SiblingInsert { s, p, o, res } => {
                let t = intern_into(&mut self.sib_store, s, p, o, res);
                self.sib_store.insert(t.subject, t.property, t.object);
                self.sib_oracle.insert(model_key(s, p, o, res));
            }
            WalOp::SiblingCommit => {
                let outcome = self
                    .sib_log
                    .commit(&self.disk, &mut self.sib_store)
                    .expect("sibling commit on MemVfs cannot fail");
                self.note_sibling_outcome(outcome);
            }
            WalOp::SiblingCompact => {
                self.sib_log
                    .compact(&self.disk, &mut self.sib_store)
                    .expect("sibling compact on MemVfs cannot fail");
                self.sib_acked = self.sib_oracle.clone();
            }
            WalOp::SiblingCrashCommit { fault, mode, tear_seed } => {
                self.sibling_crash_commit(fault, mode, tear_seed)
            }
        }
    }

    fn commit(&mut self) {
        let outcome = if self.mutation == Mutation::WalDropCompensation {
            self.log.testonly_commit_dropping_compensation(&self.disk, &mut self.store)
        } else {
            self.log.commit(&self.disk, &mut self.store)
        };
        self.note_outcome(outcome.expect("commit on MemVfs cannot fail"));
    }

    /// A commit that fails in place (the process lives on), then one of
    /// its two endings: `rewind` repairs the log and undoes the store to
    /// the durable state, which must be the acknowledged one; otherwise
    /// the retried commit must persist what the failed one attempted.
    /// Either way a reopen must recover the acknowledged state.
    fn fault_commit(&mut self, fault: usize, mode: usize, tear_seed: u64, rewind: bool) {
        let op = COMMIT_FAULTS[fault % COMMIT_FAULTS.len()];
        let mode = ERR_MODES[mode % ERR_MODES.len()];
        let config = FaultConfig::new(op, mode, 0, tear_seed);
        let disk = std::mem::replace(&mut self.disk, MemVfs::new());
        let vfs = FaultVfs::new(disk, config);
        let result = self.log.commit(&vfs, &mut self.store);
        let fired = vfs.fault_fired();
        self.disk = vfs.into_inner();
        if !fired {
            self.note_outcome(result.expect("unfaulted commit on MemVfs cannot fail"));
            return;
        }
        assert!(result.is_err(), "a commit faulted with {mode:?} at {op:?} reported success");
        if rewind {
            self.log.repair(&self.disk).expect("log repair on MemVfs cannot fail");
            self.store.undo_to_durable();
            self.oracle = self.acked.clone();
            self.checkpoints = self.durable_checkpoints.clone();
        } else {
            self.commit();
        }
        let (store, _) = open_pair(&mut self.disk.clone(), self.mutation, snap())
            .expect("reopen after a faulted commit must work");
        assert_eq!(
            contents(&store),
            self.acked,
            "faulted commit {op:?}/{mode:?} (rewind: {rewind}) recovered an unacknowledged state"
        );
    }

    /// Fold a successful (unfaulted) commit outcome into the model.
    fn note_outcome(&mut self, outcome: CommitOutcome) {
        match outcome {
            CommitOutcome::Clean => {
                // An empty delta means the store is exactly at the
                // committed state — so must the model be.
                assert_eq!(
                    self.oracle, self.acked,
                    "commit reported Clean but the model has pending changes"
                );
            }
            CommitOutcome::Committed { .. } => {
                self.acked = self.oracle.clone();
                self.boundaries.push(self.oracle.clone());
            }
        }
        self.durable_checkpoints = self.checkpoints.clone();
    }

    /// Fold a successful (unfaulted) sibling commit into its model.
    fn note_sibling_outcome(&mut self, outcome: CommitOutcome) {
        match outcome {
            CommitOutcome::Clean => {
                assert_eq!(
                    self.sib_oracle, self.sib_acked,
                    "sibling commit reported Clean but its model has pending changes"
                );
            }
            CommitOutcome::Committed { .. } => {
                self.sib_acked = self.sib_oracle.clone();
            }
        }
    }

    /// Drop the live handles and recover from disk; graceful shutdown
    /// semantics — uncommitted in-memory changes die, acknowledged ones
    /// must all survive, in both sessions.
    fn reopen(&mut self) {
        let (store, log) = open_pair(&mut self.disk, self.mutation, snap())
            .expect("reopen of an intact pair must work");
        self.store = store;
        self.log = log;
        let got = contents(&self.store);
        assert_eq!(got, self.acked, "graceful reopen diverged from the acknowledged commit");
        self.oracle = self.acked.clone();
        self.checkpoints = vec![(self.store.revision(), self.oracle.clone())];
        self.durable_checkpoints = self.checkpoints.clone();
        self.reopen_sibling_exact("graceful reopen");
    }

    /// Recover the sibling session from disk and require it to land
    /// *exactly* on its acknowledged commit — used whenever the crash
    /// (or shutdown) happened outside the sibling's own commit path.
    fn reopen_sibling_exact(&mut self, context: &str) {
        let (store, log) = open_pair(&mut self.disk, self.mutation, sib())
            .unwrap_or_else(|e| panic!("sibling recovery after {context} failed: {e}"));
        self.sib_store = store;
        self.sib_log = log;
        let got = contents(&self.sib_store);
        assert_eq!(
            got, self.sib_acked,
            "{context} moved the sibling session's durability boundary"
        );
        self.sib_oracle = self.sib_acked.clone();
    }

    /// Reboot after a crash: recover from disk and check the recovered
    /// state is one of `allowed`. The sibling session — whose files the
    /// crashed operation never touched — must recover exactly its own
    /// acknowledged commit. Returns the recovered main state (which
    /// becomes both the durable and the in-memory truth).
    fn reboot(&mut self, context: &str, allowed: &[&State]) -> State {
        let (store, log) = open_pair(&mut self.disk, self.mutation, snap())
            .unwrap_or_else(|e| panic!("recovery after {context} failed: {e}"));
        self.store = store;
        self.log = log;
        let got = contents(&self.store);
        assert!(
            allowed.iter().any(|s| **s == got),
            "recovery after {context} landed on a state no commit acknowledged"
        );
        self.acked = got.clone();
        self.oracle = got.clone();
        self.checkpoints = vec![(self.store.revision(), self.oracle.clone())];
        self.durable_checkpoints = self.checkpoints.clone();
        self.reopen_sibling_exact(context);
        got
    }

    /// Crash mid-commit in the *sibling* session, then reboot both. The
    /// sibling recovers its previous acked state or the attempted batch;
    /// the main session must come back exactly at its own acked commit.
    fn sibling_crash_commit(&mut self, fault: usize, mode: usize, tear_seed: u64) {
        let op = COMMIT_FAULTS[fault % COMMIT_FAULTS.len()];
        let mode = FAULT_MODES[mode % FAULT_MODES.len()];
        let attempted = self.sib_oracle.clone();
        let config = FaultConfig::new(op, mode, 0, tear_seed).halting();
        let disk = std::mem::replace(&mut self.disk, MemVfs::new());
        let vfs = FaultVfs::new(disk, config);
        let result = self.sib_log.commit(&vfs, &mut self.sib_store);
        let fired = vfs.fault_fired();
        self.disk = vfs.into_inner();
        if !fired {
            self.note_sibling_outcome(result.expect("unfaulted sibling commit cannot fail"));
            return;
        }
        let context = format!("sibling crash-commit {op:?}/{mode:?}/{tear_seed}");
        // Sibling leg: acked-or-attempted, like any crashed commit.
        let (store, log) = open_pair(&mut self.disk, self.mutation, sib())
            .unwrap_or_else(|e| panic!("{context}: sibling recovery failed: {e}"));
        self.sib_store = store;
        self.sib_log = log;
        let got = contents(&self.sib_store);
        assert!(
            got == self.sib_acked || got == attempted,
            "{context}: sibling recovered a state no commit acknowledged"
        );
        self.sib_acked = got.clone();
        self.sib_oracle = got;
        // Main leg: untouched by the sibling's crash, must recover exact.
        let (store, log) = open_pair(&mut self.disk, self.mutation, snap())
            .unwrap_or_else(|e| panic!("{context}: main recovery failed: {e}"));
        self.store = store;
        self.log = log;
        assert_eq!(
            contents(&self.store),
            self.acked,
            "{context} moved the main session's durability boundary"
        );
        self.oracle = self.acked.clone();
        self.checkpoints = vec![(self.store.revision(), self.oracle.clone())];
        self.durable_checkpoints = self.checkpoints.clone();
    }

    /// Crash mid-commit (halting fault at the log append or sync), then
    /// reboot and recover.
    fn crash_commit(&mut self, fault: usize, mode: usize, tear_seed: u64) {
        let op = COMMIT_FAULTS[fault % COMMIT_FAULTS.len()];
        let mode = FAULT_MODES[mode % FAULT_MODES.len()];
        let attempted = self.oracle.clone();
        let config = FaultConfig::new(op, mode, 0, tear_seed).halting();
        let disk = std::mem::replace(&mut self.disk, MemVfs::new());
        let vfs = FaultVfs::new(disk, config);
        let result = self.log.commit(&vfs, &mut self.store);
        let fired = vfs.fault_fired();
        self.disk = vfs.into_inner();
        if !fired {
            // The commit never reached the faulted op — it was Clean and
            // did no log I/O. A plain outcome.
            self.note_outcome(result.expect("unfaulted commit on MemVfs cannot fail"));
            return;
        }
        // The process died at the fault. Whether the commit was
        // acknowledged (lying disk) or errored, recovery must land on the
        // previous acked state or — only if its frame landed whole — the
        // attempted batch. Never a partial batch.
        let prev_acked = self.acked.clone();
        let got = self.reboot(
            &format!("crash-commit {op:?}/{mode:?}/{tear_seed}"),
            &[&prev_acked, &attempted],
        );
        if got == attempted && got != prev_acked {
            self.boundaries.push(attempted);
        }
    }

    /// Crash at one of the eight compaction steps, then reboot. The
    /// recovered state must be the pre-compaction acknowledged state (old
    /// generation intact) or the full compacted state (new generation
    /// installed) — compaction never tears.
    fn crash_compact(&mut self, step: usize, mode: usize, tear_seed: u64) {
        let op = COMPACT_FAULTS[step % COMPACT_FAULTS.len()];
        let index = (step / COMPACT_FAULTS.len()) as u64 % 2;
        let mode = FAULT_MODES[mode % FAULT_MODES.len()];
        // Compaction persists the *current* store state, committed or not.
        let attempted = self.oracle.clone();
        let config = FaultConfig::new(op, mode, index, tear_seed).halting();
        let disk = std::mem::replace(&mut self.disk, MemVfs::new());
        let vfs = FaultVfs::new(disk, config);
        let result = self.log.compact(&vfs, &mut self.store);
        let fired = vfs.fault_fired();
        self.disk = vfs.into_inner();
        if !fired {
            result.expect("unfaulted compact on MemVfs cannot fail");
            self.acked = attempted.clone();
            self.boundaries = vec![attempted];
            self.durable_checkpoints = self.checkpoints.clone();
            return;
        }
        let prev_acked = self.acked.clone();
        let got = self.reboot(
            &format!("crash-compact {op:?}#{index}/{mode:?}/{tear_seed}"),
            &[&prev_acked, &attempted],
        );
        if got == attempted && got != prev_acked {
            // The new snapshot generation made it in.
            self.boundaries = vec![attempted];
        }
    }

    /// Flip one byte of the log on a *clone* of the disk and recover
    /// from it: CRC salvage must truncate at the damage and land on some
    /// commit boundary, or refuse with a typed error — never replay the
    /// damage into a state no commit acknowledged.
    fn corrupt_tail(&mut self, offset: u64, flip: u8) {
        let wal_file = StoreLog::wal_path(snap());
        let Some(bytes) = self.disk.bytes(&wal_file) else { return };
        if bytes.is_empty() {
            return;
        }
        let mut mangled = bytes.to_vec();
        let at = (offset % mangled.len() as u64) as usize;
        mangled[at] ^= if flip == 0 { 0x01 } else { flip };
        let mut side = self.disk.clone();
        side.write(&wal_file, &mangled).expect("MemVfs write cannot fail");
        // A typed refusal (`Err`) is sound: the corruption was detected.
        if let Ok((store, _)) = open_pair(&mut side, self.mutation, snap()) {
            store.check_invariants();
            let got = contents(&store);
            assert!(
                self.boundaries.contains(&got),
                "corrupted log byte {at} recovered a state that was never a commit boundary"
            );
        }
    }

    /// Per-step agreement between each live store and its model.
    fn verify(&self) {
        assert_eq!(self.store.len(), self.oracle.len(), "store len diverged from wal model");
        assert_eq!(contents(&self.store), self.oracle, "store contents diverged from wal model");
        assert_eq!(
            contents(&self.sib_store),
            self.sib_oracle,
            "sibling store contents diverged from wal model"
        );
    }
}

/// Recovery as adopters run it: sweep temps, strict snapshot load, log
/// attach + replay. Under [`Mutation::WalSkipTailCrc`] the tail frame's
/// CRC check is disabled (the seeded bug this layer must catch).
fn open_pair(
    disk: &mut MemVfs,
    mutation: Mutation,
    path: &Path,
) -> Result<(TripleStore, StoreLog), TrimError> {
    if mutation == Mutation::WalSkipTailCrc {
        slimio::sweep_stale_temp(disk, path);
        let mut store = if disk.exists(path) {
            TripleStore::load_from(disk, path)?
        } else {
            TripleStore::new()
        };
        let (log, _) = StoreLog::testonly_attach_skip_tail_crc(disk, path, &mut store)?;
        Ok((store, log))
    } else {
        let (store, log, _) = TripleStore::open_logged(disk, path)?;
        Ok((store, log))
    }
}

fn model_key(s: usize, p: usize, o: usize, res: bool) -> ModelTriple {
    (SUBJECTS[s].to_string(), PROPS[p].to_string(), OBJECTS[o].to_string(), res)
}

fn intern_into(store: &mut TripleStore, s: usize, p: usize, o: usize, res: bool) -> Triple {
    let subject = store.atom(SUBJECTS[s]);
    let property = store.atom(PROPS[p]);
    let object = if res {
        Value::Resource(store.atom(OBJECTS[o]))
    } else {
        store.literal_value(OBJECTS[o])
    };
    Triple { subject, property, object }
}

fn contents(store: &TripleStore) -> State {
    store
        .iter()
        .map(|t| {
            (
                store.resolve(t.subject).to_string(),
                store.resolve(t.property).to_string(),
                store.value_text(t.object).to_string(),
                t.object.is_resource(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Commit, undo below it, new changes, then a commit that fails in
    /// place: both endings — rewind and retry — agree with the model,
    /// and a commit that drops the compensation prefix does not.
    #[test]
    fn undo_across_a_commit_then_a_faulted_commit_has_two_endings() {
        for rewind in [true, false] {
            for fault in 0..COMMIT_FAULTS.len() {
                let ops = [
                    WalOp::Insert { s: 0, p: 0, o: 0, res: true },
                    WalOp::Checkpoint,
                    WalOp::Insert { s: 1, p: 1, o: 1, res: false },
                    WalOp::Commit,
                    WalOp::Undo { back: 1 },
                    WalOp::Insert { s: 2, p: 2, o: 2, res: true },
                    WalOp::FaultCommit { fault, mode: 1, tear_seed: 3, rewind },
                    WalOp::Undo { back: 1 },
                    WalOp::Commit,
                    WalOp::Reopen,
                ];
                check(&ops, Mutation::None);
            }
        }
        let ops = [
            WalOp::Insert { s: 0, p: 0, o: 0, res: true },
            WalOp::Commit,
            WalOp::Undo { back: 0 },
            WalOp::Commit,
        ];
        check(&ops, Mutation::None);
        let caught = std::panic::catch_unwind(|| check(&ops, Mutation::WalDropCompensation));
        assert!(caught.is_err(), "a commit without its compensation prefix must diverge");
    }
}
