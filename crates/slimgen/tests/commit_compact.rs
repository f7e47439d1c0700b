//! Commit and compaction behaviour under a soak-sized store: log growth
//! stays proportional to the *changes*, never the store; the compaction
//! threshold is tunable and honoured; and an undo across a commit is
//! logged as one more frame, not a compaction.

use std::path::Path;

use slimgen::corpus;
use slimgen::Profile;
use superimposed::slimio::MemVfs;
use superimposed::slimpad::{PadCommit, PadSession};
use superimposed::trim::CommitOutcome;

const PAD: &str = "commit-compact.pad";

fn logged_corpus() -> (corpus::Corpus, MemVfs) {
    let mut corpus = corpus::generate(Profile::Smoke, 0xAC1D);
    let vfs = MemVfs::new();
    corpus.system.pad.enable_logging(&vfs, Path::new(PAD)).expect("enable logging");
    (corpus, vfs)
}

#[test]
fn log_growth_is_proportional_to_changes_not_store_size() {
    let (mut corpus, vfs) = logged_corpus();
    let pad = &mut corpus.system.pad;
    let snapshot_bytes = pad.save_xml().len() as u64;

    assert!(matches!(pad.commit(&vfs), Ok(PadCommit::Logged(CommitOutcome::Clean))));
    let base = pad.log().expect("logged").log_bytes();

    // A handful of bundle creations against a store holding hundreds of
    // marks and scraps: the committed frame must cost bytes on the
    // order of the delta, nowhere near the snapshot.
    for i in 0..5 {
        pad.create_bundle(&format!("delta {i}"), (i, i), 10, 10, None).expect("bundle");
    }
    let outcome = pad.commit(&vfs).expect("commit");
    assert!(
        matches!(outcome, PadCommit::Logged(CommitOutcome::Committed { .. })),
        "got {outcome:?}"
    );
    let delta = pad.log().expect("logged").log_bytes() - base;
    assert!(delta > 0);
    assert!(
        delta * 10 < snapshot_bytes,
        "a 5-bundle commit cost {delta} log bytes against a {snapshot_bytes}-byte snapshot"
    );

    // Committing nothing costs nothing.
    let before = pad.log().expect("logged").log_bytes();
    assert!(matches!(pad.commit(&vfs), Ok(PadCommit::Logged(CommitOutcome::Clean))));
    assert_eq!(pad.log().expect("logged").log_bytes(), before);
}

#[test]
fn compaction_threshold_is_tunable_and_honoured() {
    let (mut corpus, vfs) = logged_corpus();
    let pad = &mut corpus.system.pad;

    // At the 1 MiB default a smoke-sized delta is nowhere near due.
    assert!(!pad.should_compact());

    pad.set_compact_threshold(256);
    let mut commits = 0;
    while !pad.should_compact() {
        pad.create_bundle(&format!("grow {commits}"), (1, 1), 10, 10, None).expect("bundle");
        pad.commit(&vfs).expect("commit");
        commits += 1;
        assert!(commits < 1_000, "log never crossed a 256-byte threshold");
    }

    pad.compact(&vfs).expect("compact");
    assert!(!pad.should_compact(), "compaction must reset the log below the threshold");

    // The compacted pad reopens with zero frames to replay.
    let manager = corpus.system.fresh_manager().expect("fresh manager");
    let (reopened, report) =
        PadSession::open_logged(&vfs, Path::new(PAD), manager).expect("reopen");
    assert_eq!(report.frames_replayed, 0, "a compacted log replays nothing");
    assert_eq!(
        reopened.dmi().bundles().len(),
        corpus.system.pad.dmi().bundles().len(),
        "compaction must preserve the store"
    );
}

#[test]
fn undo_across_a_commit_is_logged_as_one_frame() {
    let (mut corpus, vfs) = logged_corpus();
    let pad = &mut corpus.system.pad;
    pad.commit(&vfs).expect("baseline commit");
    let snapshot = vfs.bytes(PAD).expect("snapshot");

    // Undo across the commit boundary: the next frame takes the
    // committed bundle back, then adds the new one.
    pad.begin_op();
    pad.create_bundle("inside the op", (2, 2), 10, 10, None).expect("bundle");
    pad.commit(&vfs).expect("commit mid-op");
    assert!(pad.undo().expect("undo"), "there was a checkpoint to undo to");
    pad.create_bundle("after the undo", (3, 3), 10, 10, None).expect("bundle");
    let outcome = pad.commit(&vfs).expect("commit after boundary-crossing undo");
    assert!(
        matches!(outcome, PadCommit::Logged(CommitOutcome::Committed { .. })),
        "got {outcome:?}"
    );
    assert_eq!(vfs.bytes(PAD), Some(snapshot), "no compaction");

    let expected_bundles = pad.dmi().bundles().len();
    let manager = corpus.system.fresh_manager().expect("fresh manager");
    let (reopened, report) =
        PadSession::open_logged(&vfs, Path::new(PAD), manager).expect("reopen");
    assert_eq!(report.frames_replayed, 2, "both frames replay");
    assert_eq!(
        reopened.dmi().bundles().len(),
        expected_bundles,
        "the post-undo state must be what recovery returns"
    );
    assert!(
        reopened.dmi().check().is_conformant(),
        "the recovered store must satisfy the metamodel"
    );
}
