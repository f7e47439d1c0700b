//! Replayable traffic: seeded operation streams driven through
//! [`PadSession`] with a count oracle and an outcome digest.
//!
//! [`PadSession`]: superimposed::slimpad::PadSession
//!
//! A trace is a `Vec<TraceOp>` — pure data, a function of `(seed, n,
//! mix)` only. Every op addresses its operands by *selector*: a `u64`
//! reduced modulo the live population at apply time (the slimcheck
//! convention), so the same trace replays cleanly against any corpus and
//! stays meaningful as the population grows and shrinks.
//!
//! The [`Driver`] applies a trace and maintains a *count model*: mirror
//! lists of live bundle/scrap handles with an undo stack that snapshots
//! them at every `BeginOp` exactly as the session checkpoints its store.
//! After each op the model must agree with the store
//! ([`Driver::counts_match`]); every observable outcome (extract text,
//! query hit counts, undo effectiveness, commit outcomes) folds into a
//! running [`Digest`], which is the replay-equality witness.
//!
//! Traces deliberately contain **no mark creation**: they reference only
//! corpus-created marks. The mark store's changed set
//! ([`MarkManager::changed_records`]) therefore stays empty through a
//! trace, so commits carry no mark records — matching the paper's
//! observation that marks are created at the base applications, while
//! pad traffic rearranges scraps over them.
//!
//! [`MarkManager::changed_records`]: superimposed::marks::MarkManager::changed_records

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use superimposed::slimio::Vfs;
use superimposed::slimstore::{BundleHandle, ScrapHandle};
use superimposed::slimpad::PadCommit;
use superimposed::trim::CommitOutcome;
use superimposed::SuperimposedSystem;

use crate::Digest;

/// One traffic operation. All operands are selectors reduced modulo the
/// live population when applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Push an undo checkpoint.
    BeginOp,
    /// Create a bundle nested under the selected live bundle.
    CreateBundle { parent: u64 },
    /// Place the selected corpus mark as a scrap in the selected bundle.
    PlaceMark { mark: u64, bundle: u64 },
    /// Annotate the selected scrap.
    Annotate { scrap: u64, note: u64 },
    /// Link two selected scraps.
    Link { from: u64, to: u64 },
    /// Delete the selected scrap.
    DeleteScrap { scrap: u64 },
    /// Roll back to the last checkpoint (no-op when none).
    Undo,
    /// Resolve the selected scrap's mark and extract its content.
    Extract { scrap: u64 },
    /// Full-text scrap query for a pooled needle.
    Query { needle: u64 },
    /// Group-commit to the write-ahead log.
    Commit,
}

/// Traffic mixes: op-class weights in the order
/// `[BeginOp, CreateBundle, PlaceMark, Annotate, Link, DeleteScrap,
/// Undo, Extract, Query, Commit]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Resolution and query traffic: ward rounds reading charts.
    ReadHeavy,
    /// Scrap and bundle churn: a clinician reorganizing a pad.
    WriteHeavy,
    /// Both, interleaved.
    Mixed,
}

const QUERY_NEEDLES: [&str; 6] = ["scrap", "icu", "note", "dose", "case", "section"];
const ANNOTATIONS: [&str; 5] =
    ["flagged on rounds", "verify with lab", "trending up", "stable", "call pharmacy"];

impl Mix {
    /// CLI name → mix.
    pub fn parse(name: &str) -> Option<Mix> {
        match name {
            "read" => Some(Mix::ReadHeavy),
            "write" => Some(Mix::WriteHeavy),
            "mixed" => Some(Mix::Mixed),
            _ => None,
        }
    }

    /// Stable lowercase name (report keys).
    pub fn name(self) -> &'static str {
        match self {
            Mix::ReadHeavy => "read",
            Mix::WriteHeavy => "write",
            Mix::Mixed => "mixed",
        }
    }

    fn weights(self) -> [u32; 10] {
        match self {
            Mix::ReadHeavy => [2, 1, 2, 1, 1, 1, 1, 40, 20, 2],
            Mix::WriteHeavy => [8, 10, 30, 10, 6, 6, 6, 2, 2, 4],
            Mix::Mixed => [6, 5, 14, 5, 4, 4, 5, 14, 10, 3],
        }
    }
}

/// Generate a trace: pure function of `(seed, n, mix)`.
pub fn generate(seed: u64, n: usize, mix: Mix) -> Vec<TraceOp> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7a5c_e0b5_u64);
    let weights = mix.weights();
    let total: u32 = weights.iter().sum();
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let mut pick = rng.gen_range(0..total);
        let mut class = 0;
        for (i, w) in weights.iter().enumerate() {
            if pick < *w {
                class = i;
                break;
            }
            pick -= *w;
        }
        ops.push(match class {
            0 => TraceOp::BeginOp,
            1 => TraceOp::CreateBundle { parent: rng.gen() },
            2 => TraceOp::PlaceMark { mark: rng.gen(), bundle: rng.gen() },
            3 => TraceOp::Annotate { scrap: rng.gen(), note: rng.gen() },
            4 => TraceOp::Link { from: rng.gen(), to: rng.gen() },
            5 => TraceOp::DeleteScrap { scrap: rng.gen() },
            6 => TraceOp::Undo,
            7 => TraceOp::Extract { scrap: rng.gen() },
            8 => TraceOp::Query { needle: rng.gen() },
            _ => TraceOp::Commit,
        });
    }
    ops
}

/// Digest of a trace's *shape* (ops and selectors), before any replay.
pub fn trace_digest(ops: &[TraceOp]) -> Digest {
    let mut d = Digest::new();
    for op in ops {
        d.update(format!("{op:?}").as_bytes());
    }
    d
}

/// Applies a trace against a live session while mirroring it in a count
/// model, folding every observable outcome into [`Driver::digest`].
pub struct Driver {
    /// Live bundle handles (root included), store order.
    pub bundles: Vec<BundleHandle>,
    /// Live scrap handles, placement order.
    pub scraps: Vec<ScrapHandle>,
    undo_stack: Vec<(Vec<BundleHandle>, Vec<ScrapHandle>)>,
    /// Outcome digest — the replay-equality witness.
    pub digest: Digest,
    /// Ops applied so far.
    pub applied: usize,
}

/// `sel % len`, or `None` on an empty population.
fn pick(sel: u64, len: usize) -> Option<usize> {
    if len == 0 {
        None
    } else {
        Some((sel % len as u64) as usize)
    }
}

impl Driver {
    /// Mirror the session's current live population.
    pub fn new(system: &SuperimposedSystem) -> Driver {
        Driver {
            bundles: system.pad.dmi().bundles(),
            scraps: system.pad.dmi().all_scraps(),
            undo_stack: Vec::new(),
            digest: Digest::new(),
            applied: 0,
        }
    }

    /// Re-mirror the store after crash recovery: the recovered session
    /// is the last acknowledged commit, and recovery clears the undo
    /// stack ([`PadSession::open_logged`] adopts a fresh log).
    ///
    /// [`PadSession::open_logged`]: superimposed::slimpad::PadSession::open_logged
    pub fn resync(&mut self, system: &SuperimposedSystem) {
        self.bundles = system.pad.dmi().bundles();
        self.scraps = system.pad.dmi().all_scraps();
        self.undo_stack.clear();
        self.digest.update(b"resync");
        self.digest.update_u64(self.bundles.len() as u64);
        self.digest.update_u64(self.scraps.len() as u64);
    }

    /// The count oracle: model and store agree on live populations.
    pub fn counts_match(&self, system: &SuperimposedSystem) -> bool {
        system.pad.dmi().bundles().len() == self.bundles.len()
            && system.pad.dmi().all_scraps().len() == self.scraps.len()
    }

    /// Apply one op. `mark_ids` is the corpus mark pool; `vfs` backs
    /// `Commit` (skipped, and noted in the digest, on unlogged
    /// sessions).
    pub fn apply(
        &mut self,
        system: &mut SuperimposedSystem,
        mark_ids: &[String],
        vfs: &dyn Vfs,
        op: &TraceOp,
    ) {
        let pad = &mut system.pad;
        match op {
            TraceOp::BeginOp => {
                pad.begin_op();
                self.undo_stack.push((self.bundles.clone(), self.scraps.clone()));
                self.digest.update(b"begin");
            }
            TraceOp::CreateBundle { parent } => {
                let p = pick(*parent, self.bundles.len()).map(|i| self.bundles[i]);
                let pos = ((self.applied as i64 * 37) % 1200, (self.applied as i64 * 53) % 900);
                let b = pad
                    .create_bundle(&format!("trace bundle {}", self.applied), pos, 320, 240, p)
                    .expect("bundle creation cannot fail on live parents");
                self.bundles.push(b);
                self.digest.update(b"bundle");
                self.digest.update_u64(self.bundles.len() as u64);
            }
            TraceOp::PlaceMark { mark, bundle } => {
                let Some(m) = pick(*mark, mark_ids.len()) else {
                    self.digest.update(b"place-skip");
                    return self.done();
                };
                let b = pick(*bundle, self.bundles.len()).map(|i| self.bundles[i]);
                let s = pad
                    .place_mark(&mark_ids[m], None, (10, 10), b)
                    .expect("corpus marks are live");
                self.scraps.push(s);
                self.digest.update(b"place");
                self.digest.update_u64(self.scraps.len() as u64);
            }
            TraceOp::Annotate { scrap, note } => {
                let Some(i) = pick(*scrap, self.scraps.len()) else {
                    self.digest.update(b"annotate-skip");
                    return self.done();
                };
                let text = ANNOTATIONS[(*note % ANNOTATIONS.len() as u64) as usize];
                let ok = pad.dmi_mut().add_annotation(self.scraps[i], text).is_ok();
                self.digest.update(if ok { b"annotate1" } else { b"annotate0" });
            }
            TraceOp::Link { from, to } => {
                let (Some(f), Some(t)) =
                    (pick(*from, self.scraps.len()), pick(*to, self.scraps.len()))
                else {
                    self.digest.update(b"link-skip");
                    return self.done();
                };
                if f == t {
                    self.digest.update(b"link-self");
                    return self.done();
                }
                let ok = pad.dmi_mut().link_scraps(self.scraps[f], self.scraps[t]).is_ok();
                self.digest.update(if ok { b"link1" } else { b"link0" });
            }
            TraceOp::DeleteScrap { scrap } => {
                let Some(i) = pick(*scrap, self.scraps.len()) else {
                    self.digest.update(b"delete-skip");
                    return self.done();
                };
                let s = self.scraps.remove(i);
                pad.dmi_mut().delete_scrap(s).expect("modelled scraps are live");
                self.digest.update(b"delete");
                self.digest.update_u64(self.scraps.len() as u64);
            }
            TraceOp::Undo => {
                let undone = pad.undo().expect("rollback of a live checkpoint");
                if undone {
                    // The store rolled back to the checkpoint; restore
                    // the mirror taken at the matching BeginOp.
                    let (b, s) = self
                        .undo_stack
                        .pop()
                        .expect("session undo implies a modelled checkpoint");
                    self.bundles = b;
                    self.scraps = s;
                }
                self.digest.update(if undone { b"undo1" } else { b"undo0" });
            }
            TraceOp::Extract { scrap } => {
                let Some(i) = pick(*scrap, self.scraps.len()) else {
                    self.digest.update(b"extract-skip");
                    return self.done();
                };
                let (text, degraded) =
                    pad.extract_degraded(self.scraps[i]).expect("modelled scraps are live");
                self.digest.update(b"extract");
                self.digest.update(text.as_bytes());
                self.digest.update(if degraded { b"~" } else { b"=" });
            }
            TraceOp::Query { needle } => {
                let needle = QUERY_NEEDLES[(*needle % QUERY_NEEDLES.len() as u64) as usize];
                let hits = pad.dmi().find_scraps(needle).len();
                self.digest.update(b"query");
                self.digest.update_u64(hits as u64);
            }
            TraceOp::Commit => {
                if pad.log().is_none() {
                    self.digest.update(b"commit-unlogged");
                    return self.done();
                }
                let outcome = pad.commit(vfs).expect("commit against a healthy vfs");
                match outcome {
                    PadCommit::Logged(CommitOutcome::Clean) => self.digest.update(b"commit-clean"),
                    PadCommit::Logged(CommitOutcome::Committed { ops, .. }) => {
                        self.digest.update(b"commit");
                        self.digest.update_u64(ops as u64);
                    }
                    // Only a replaced mark store compacts; no trace op
                    // replaces it.
                    PadCommit::Compacted => self.digest.update(b"commit-compacted"),
                }
            }
        }
        self.done();
    }

    fn done(&mut self) {
        self.applied += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate(7, 500, Mix::Mixed);
        let b = generate(7, 500, Mix::Mixed);
        assert_eq!(a, b);
        assert_eq!(trace_digest(&a), trace_digest(&b));
        let c = generate(8, 500, Mix::Mixed);
        assert_ne!(trace_digest(&a), trace_digest(&c));
    }

    #[test]
    fn mixes_have_distinct_profiles() {
        let read = generate(1, 1000, Mix::ReadHeavy);
        let write = generate(1, 1000, Mix::WriteHeavy);
        let reads =
            |ops: &[TraceOp]| ops.iter().filter(|o| matches!(o, TraceOp::Extract { .. } | TraceOp::Query { .. })).count();
        assert!(reads(&read) > reads(&write) * 3);
    }
}
