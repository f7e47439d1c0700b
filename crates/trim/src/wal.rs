//! Logged persistence: the write-ahead log as the store's commit path.
//!
//! Rewriting the whole sealed XML artifact on every save is O(store);
//! with a log in front of it, a commit costs O(changes since the last
//! commit): the journal's net change since then is encoded as one
//! CRC-framed record batch and appended with a single sync (group
//! commit, [`slimio::Wal`]). An undo that crossed the last commit adds
//! the inverses of the committed changes it took back to that batch.
//! The full `to_xml` rewrite survives as the *compaction* step, run
//! periodically to bound log length and restart time.
//!
//! Recovery = snapshot + replay:
//!
//! 1. load the snapshot (atomic, sealed — exactly as before),
//! 2. open the log, salvaging a torn tail down to the longest CRC-valid
//!    frame prefix,
//! 3. replay the surviving frames' operations onto the store.
//!
//! The result is the state as of the last acknowledged commit — never a
//! partial batch, because a batch is one frame and a frame is atomic
//! under CRC.
//!
//! Compaction is crash-consistent by ordering + binding: the new
//! snapshot is installed atomically *first*, then the log is reset. The
//! log header carries the CRC of the snapshot generation it extends
//! ([`slimio::Wal`] "bind"), so a crash between the two steps leaves a
//! stale log that the next open detects and discards instead of
//! replaying old operations over the newer snapshot.
//!
//! [`StoreLog`] deliberately does not own the [`TripleStore`]: the
//! SLIMPad DMI embeds its store, and the pad file format embeds the
//! store's XML inside a larger document. Callers that snapshot a
//! different payload (the pad) use [`StoreLog::compact_with`]; the aux
//! record channel ([`StoreLog::commit_with_aux`]) lets them ride small
//! keyed sidecar blobs in the same committed frame. Replay keeps the
//! last value per key, so a caller that keys one record per item (the
//! pad keys one per changed mark, `marks/<id>`) logs only what changed
//! and recovers the newest value of each.

use crate::journal::Change;
use crate::store::{Triple, TripleStore, Value};
use crate::TrimError;
use slimio::{crc32, Vfs, Wal, WalFrame, WalReport};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Record tags inside a frame payload.
const REC_INSERT: u8 = 0;
const REC_REMOVE: u8 = 1;
const REC_AUX: u8 = 2;

/// Object kind bytes.
const OBJ_LITERAL: u8 = 0;
const OBJ_RESOURCE: u8 = 1;

/// Compact when the log grows past this many bytes (callers can tune it
/// with [`StoreLog::set_compact_threshold`]).
const DEFAULT_COMPACT_THRESHOLD: u64 = 1 << 20;

/// What [`StoreLog::attach`] (and [`TripleStore::open_logged`]) found:
/// the low-level log salvage report plus the replay accounting.
#[derive(Debug, Clone, Default)]
pub struct LogReport {
    /// The frame-level open/salvage report.
    pub wal: WalReport,
    /// Frames whose operations were replayed onto the store.
    pub frames_replayed: usize,
    /// Individual insert/remove operations replayed.
    pub ops_replayed: usize,
    /// Aux records recovered from the log, last write per key.
    pub aux: BTreeMap<String, Vec<u8>>,
}

impl LogReport {
    /// True when the open found a pristine snapshot+log pair.
    pub fn is_clean(&self) -> bool {
        self.wal.is_clean() || (self.wal.created && self.wal.notes.is_empty())
    }
}

impl std::fmt::Display for LogReport {
    /// Status-bar summary of a recovery, e.g.
    /// `replayed 2 frames (9 ops); dropped 7 torn tail bytes`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.wal.created {
            write!(f, "started a fresh log")?;
        } else {
            write!(f, "replayed {} frames ({} ops)", self.frames_replayed, self.ops_replayed)?;
        }
        if !self.aux.is_empty() {
            write!(f, ", {} aux record(s)", self.aux.len())?;
        }
        if self.wal.torn_bytes > 0 {
            write!(f, "; dropped {} torn tail bytes", self.wal.torn_bytes)?;
        }
        if self.wal.discarded_frames > 0 {
            write!(f, "; discarded {} stale frames", self.wal.discarded_frames)?;
        }
        if self.wal.swept_temp {
            write!(f, "; swept a stale temp file")?;
        }
        for note in &self.wal.notes {
            write!(f, "; {note}")?;
        }
        Ok(())
    }
}

/// The result of a [`StoreLog::commit`]. Either way, on `Ok` the
/// current state is durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitOutcome {
    /// Nothing changed since the last commit; nothing was written.
    Clean,
    /// One frame holding `ops` store operations was group-committed with
    /// sequence number `seq`. After an undo that crossed the previous
    /// commit, the frame begins with the compensation prefix
    /// ([`crate::Journal::compensation`]).
    Committed { seq: u64, ops: usize },
}

/// A write-ahead log attached to a snapshot file. Which state is durable
/// is the store journal's to know ([`crate::Journal::mark_durable`]).
#[derive(Debug, Clone)]
pub struct StoreLog {
    snapshot_path: PathBuf,
    wal: Wal,
    compact_threshold: u64,
}

impl StoreLog {
    /// The log file that pairs with a snapshot: `pad.xml` → `pad.xml.wal`
    /// (a sibling, so both live on the same file system).
    pub fn wal_path(snapshot_path: &Path) -> PathBuf {
        let mut name =
            snapshot_path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
        name.push(".wal");
        snapshot_path.with_file_name(name)
    }

    /// Open the log paired with `snapshot_path` and replay its frames
    /// onto `store` (which the caller loaded from the snapshot, or
    /// created fresh if no snapshot exists). Returns the attached log
    /// and a report of what recovery found.
    ///
    /// After this call `store` holds the last-committed state, its
    /// journal is truncated (replay is not undoable) and durable, and
    /// subsequent [`StoreLog::commit`] calls persist the journal's
    /// [`durable_delta`](crate::Journal::durable_delta).
    pub fn attach(
        vfs: &dyn Vfs,
        snapshot_path: &Path,
        store: &mut TripleStore,
    ) -> Result<(StoreLog, LogReport), TrimError> {
        Self::attach_impl(vfs, snapshot_path, store, true)
    }

    /// [`StoreLog::attach`] with tail-frame CRC verification disabled —
    /// exists only for the slimcheck mutation harness.
    #[doc(hidden)]
    pub fn testonly_attach_skip_tail_crc(
        vfs: &dyn Vfs,
        snapshot_path: &Path,
        store: &mut TripleStore,
    ) -> Result<(StoreLog, LogReport), TrimError> {
        Self::attach_impl(vfs, snapshot_path, store, false)
    }

    fn attach_impl(
        vfs: &dyn Vfs,
        snapshot_path: &Path,
        store: &mut TripleStore,
        verify_crc: bool,
    ) -> Result<(StoreLog, LogReport), TrimError> {
        let bind = snapshot_bind(vfs, snapshot_path)?;
        let wal_path = Self::wal_path(snapshot_path);
        let (wal, frames, wal_report) = if verify_crc {
            Wal::open(vfs, &wal_path, bind)?
        } else {
            Wal::testonly_open_skip_tail_crc(vfs, &wal_path, bind)?
        };
        let mut report = LogReport { wal: wal_report, ..LogReport::default() };
        report.frames_replayed = frames.len();
        report.ops_replayed = replay_frames(store, &frames, &mut report.aux)?;
        // Replay restores committed state; it is not an edit the user can
        // undo, and the durability boundary starts here.
        store.journal_mut().truncate();
        // Frames may have interned ids the snapshot did not hold; keep
        // future mints past every name ever seen.
        store.resync_fresh_counter();
        let log = StoreLog {
            snapshot_path: snapshot_path.to_path_buf(),
            wal,
            compact_threshold: DEFAULT_COMPACT_THRESHOLD,
        };
        Ok((log, report))
    }

    /// Group-commit the net store change since the last commit as one
    /// log frame: one append, one sync, regardless of how many operations
    /// the batch holds. See [`CommitOutcome`] for the two results.
    ///
    /// The frame holds the journal's
    /// [`durable_delta`](crate::Journal::durable_delta): after an undo
    /// that crossed the last commit, the inverses of the committed
    /// changes it took back, then the changes made since. On an error
    /// nothing is durable and the delta stays pending: retry the commit,
    /// or [`repair`](StoreLog::repair) the log and
    /// [`undo_to_durable`](TripleStore::undo_to_durable).
    pub fn commit(
        &mut self,
        vfs: &dyn Vfs,
        store: &mut TripleStore,
    ) -> Result<CommitOutcome, TrimError> {
        self.commit_with_aux(vfs, store, &[])
    }

    /// [`StoreLog::commit`] plus sidecar aux records riding in the same
    /// frame (e.g. the pad's per-mark records). Aux records replay
    /// last-write-wins per key into [`LogReport::aux`] on recovery.
    pub fn commit_with_aux(
        &mut self,
        vfs: &dyn Vfs,
        store: &mut TripleStore,
        aux: &[(&str, &[u8])],
    ) -> Result<CommitOutcome, TrimError> {
        self.commit_impl(vfs, store, aux, true)
    }

    /// [`StoreLog::commit`] that logs the changes since the boundary but
    /// drops the compensation prefix — exists only for the slimcheck
    /// mutation harness.
    #[doc(hidden)]
    pub fn testonly_commit_dropping_compensation(
        &mut self,
        vfs: &dyn Vfs,
        store: &mut TripleStore,
    ) -> Result<CommitOutcome, TrimError> {
        self.commit_impl(vfs, store, &[], false)
    }

    fn commit_impl(
        &mut self,
        vfs: &dyn Vfs,
        store: &mut TripleStore,
        aux: &[(&str, &[u8])],
        compensate: bool,
    ) -> Result<CommitOutcome, TrimError> {
        let journal = store.journal();
        let skip = if compensate { 0 } else { journal.compensation().len() };
        let (payload, ops) = encode_records(store, journal.durable_delta().skip(skip), aux);
        if ops == 0 && aux.is_empty() {
            return Ok(CommitOutcome::Clean);
        }
        let seq = self.wal.append(vfs, &payload)?;
        store.journal_mut().mark_durable();
        Ok(CommitOutcome::Committed { seq, ops })
    }

    /// Truncate any unacknowledged suffix a failed commit's append may
    /// have left on disk, restoring the log to its last acknowledged
    /// length. A torn append can land the doomed frame *fully readable*
    /// — CRC-valid and sequence-contiguous — and a cold reopen cannot
    /// tell it from real history, so a refused batch would silently
    /// become durable at the next restart. Supervisors call this right
    /// after a commit error to make the refusal durable; it is
    /// idempotent and a no-op when the tail is already clean.
    pub fn repair(&mut self, vfs: &dyn Vfs) -> Result<(), TrimError> {
        Ok(self.wal.repair(vfs)?)
    }

    /// Compact: fold the log into a fresh snapshot of the store itself
    /// (canonical sealed XML, atomically installed), then reset the log
    /// to an empty generation bound to that snapshot.
    ///
    /// Crash-consistent at every step: before the snapshot rename the old
    /// (snapshot, log) pair is intact; between snapshot install and log
    /// reset the stale log is detected by its bind and discarded on the
    /// next open; after the reset the pair is the new generation.
    pub fn compact(
        &mut self,
        vfs: &dyn Vfs,
        store: &mut TripleStore,
    ) -> Result<(), TrimError> {
        let xml = store.to_xml();
        self.compact_with(vfs, store, &xml)
    }

    /// [`StoreLog::compact`] with a caller-provided snapshot payload, for
    /// adopters whose snapshot file embeds the store in a larger document
    /// (the pad file). `payload` must be a document that, when reopened
    /// through the caller's load path, reproduces `store`'s current
    /// contents.
    pub fn compact_with(
        &mut self,
        vfs: &dyn Vfs,
        store: &mut TripleStore,
        payload: &str,
    ) -> Result<(), TrimError> {
        let sealed = slimio::seal(payload);
        slimio::install_atomic(vfs, &self.snapshot_path, sealed.as_bytes())?;
        self.wal.reset(vfs, crc32(sealed.as_bytes()))?;
        store.journal_mut().mark_durable();
        Ok(())
    }

    /// True when the log has grown past the compaction threshold and the
    /// caller should fold it into a snapshot at the next opportunity.
    pub fn should_compact(&self) -> bool {
        self.wal.len_bytes() > self.compact_threshold
    }

    /// Tune the [`StoreLog::should_compact`] threshold (bytes of log).
    pub fn set_compact_threshold(&mut self, bytes: u64) {
        self.compact_threshold = bytes;
    }

    /// Acknowledged log length in bytes (header + committed frames).
    pub fn log_bytes(&self) -> u64 {
        self.wal.len_bytes()
    }

    /// The snapshot file this log extends.
    pub fn snapshot_path(&self) -> &Path {
        &self.snapshot_path
    }
}

/// The bind CRC for the snapshot currently on disk: the CRC32 of the raw
/// file bytes, or of the empty string when no snapshot exists yet. The
/// same value is computed from the sealed payload at compaction time, so
/// snapshot and log agree on the generation they form together.
fn snapshot_bind(vfs: &dyn Vfs, snapshot_path: &Path) -> Result<u32, TrimError> {
    if !vfs.exists(snapshot_path) {
        return Ok(crc32(b""));
    }
    let bytes = vfs.read(snapshot_path).map_err(TrimError::Io)?;
    Ok(crc32(&bytes))
}

fn push_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn push_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    buf.extend_from_slice(&(b.len() as u32).to_le_bytes());
    buf.extend_from_slice(b);
}

/// Encode store changes (plus aux records) as one frame payload; returns
/// it with the number of changes.
fn encode_records<'a>(
    store: &TripleStore,
    changes: impl Iterator<Item = &'a Change>,
    aux: &[(&str, &[u8])],
) -> (Vec<u8>, usize) {
    let mut buf = Vec::new();
    let mut ops = 0;
    for change in changes {
        ops += 1;
        let (tag, t) = match change {
            Change::Insert(t) => (REC_INSERT, t),
            Change::Remove(t) => (REC_REMOVE, t),
        };
        buf.push(tag);
        push_str(&mut buf, store.resolve(t.subject));
        push_str(&mut buf, store.resolve(t.property));
        match t.object {
            Value::Literal(a) => {
                buf.push(OBJ_LITERAL);
                push_str(&mut buf, store.resolve(a));
            }
            Value::Resource(a) => {
                buf.push(OBJ_RESOURCE);
                push_str(&mut buf, store.resolve(a));
            }
        }
    }
    for (key, value) in aux {
        buf.push(REC_AUX);
        push_str(&mut buf, key);
        push_bytes(&mut buf, value);
    }
    (buf, ops)
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
    seq: u64,
}

impl<'a> Cursor<'a> {
    fn corrupt(&self, what: &str) -> TrimError {
        TrimError::Corrupt {
            detail: format!(
                "log frame {} is malformed at byte {}: {what}",
                self.seq, self.at
            ),
        }
    }

    fn u8(&mut self) -> Result<u8, TrimError> {
        let b = *self.bytes.get(self.at).ok_or_else(|| self.corrupt("truncated record"))?;
        self.at += 1;
        Ok(b)
    }

    fn blob(&mut self) -> Result<&'a [u8], TrimError> {
        if self.bytes.len() - self.at < 4 {
            return Err(self.corrupt("truncated length prefix"));
        }
        let len =
            u32::from_le_bytes(self.bytes[self.at..self.at + 4].try_into().unwrap()) as usize;
        self.at += 4;
        if self.bytes.len() - self.at < len {
            return Err(self.corrupt("length prefix exceeds record"));
        }
        let out = &self.bytes[self.at..self.at + len];
        self.at += len;
        Ok(out)
    }

    fn str(&mut self) -> Result<&'a str, TrimError> {
        let blob = self.blob()?;
        std::str::from_utf8(blob).map_err(|_| self.corrupt("non-UTF-8 string"))
    }

    fn done(&self) -> bool {
        self.at >= self.bytes.len()
    }
}

/// What [`verify_frame_payload`] decoded out of one frame payload.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameSummary {
    pub inserts: usize,
    pub removes: usize,
    /// Aux sidecar records, `(key, value)` in record order (duplicates
    /// preserved).
    pub aux: Vec<(String, Vec<u8>)>,
}

/// Structurally decode one frame payload without a store behind it — the
/// offline fsck path (`wal-verify`). Applies exactly the checks replay
/// would: record tags, length prefixes, UTF-8 strings, object kinds.
/// Returns the record counts, or the same typed corruption error a real
/// recovery would refuse with.
pub fn verify_frame_payload(seq: u64, payload: &[u8]) -> Result<FrameSummary, TrimError> {
    let mut cur = Cursor { bytes: payload, at: 0, seq };
    let mut out = FrameSummary::default();
    while !cur.done() {
        let tag = cur.u8()?;
        match tag {
            REC_INSERT | REC_REMOVE => {
                cur.str()?;
                cur.str()?;
                let kind = cur.u8()?;
                if kind != OBJ_LITERAL && kind != OBJ_RESOURCE {
                    return Err(cur.corrupt(&format!("unknown object kind {kind}")));
                }
                cur.str()?;
                if tag == REC_INSERT {
                    out.inserts += 1;
                } else {
                    out.removes += 1;
                }
            }
            REC_AUX => {
                let key = cur.str()?.to_string();
                let value = cur.blob()?.to_vec();
                out.aux.push((key, value));
            }
            other => return Err(cur.corrupt(&format!("unknown record tag {other}"))),
        }
    }
    Ok(out)
}

/// Replay recovered frames onto the store, collecting aux records
/// last-write-wins. Returns the number of store operations applied.
fn replay_frames(
    store: &mut TripleStore,
    frames: &[WalFrame],
    aux: &mut BTreeMap<String, Vec<u8>>,
) -> Result<usize, TrimError> {
    let mut ops = 0;
    for frame in frames {
        let mut cur = Cursor { bytes: &frame.payload, at: 0, seq: frame.seq };
        while !cur.done() {
            let tag = cur.u8()?;
            match tag {
                REC_INSERT | REC_REMOVE => {
                    let s = store.try_atom(cur.str()?)?;
                    let p = store.try_atom(cur.str()?)?;
                    let kind = cur.u8()?;
                    let o = store.try_atom(cur.str()?)?;
                    let object = match kind {
                        OBJ_LITERAL => Value::Literal(o),
                        OBJ_RESOURCE => Value::Resource(o),
                        other => {
                            return Err(cur.corrupt(&format!("unknown object kind {other}")))
                        }
                    };
                    let triple = Triple { subject: s, property: p, object };
                    if tag == REC_INSERT {
                        store.insert(s, p, object);
                    } else {
                        store.remove(triple);
                    }
                    ops += 1;
                }
                REC_AUX => {
                    let key = cur.str()?.to_string();
                    let value = cur.blob()?.to_vec();
                    aux.insert(key, value);
                }
                other => return Err(cur.corrupt(&format!("unknown record tag {other}"))),
            }
        }
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Revision;
    use slimio::{FaultConfig, FaultMode, FaultOp, FaultVfs, MemVfs};

    const SNAP: &str = "store.xml";

    fn snap() -> &'static Path {
        Path::new(SNAP)
    }

    fn contents(store: &TripleStore) -> Vec<(String, String, bool, String)> {
        let mut out: Vec<_> = store
            .iter()
            .map(|t| {
                let (is_res, obj) = match t.object {
                    Value::Resource(a) => (true, store.resolve(a).to_string()),
                    Value::Literal(a) => (false, store.resolve(a).to_string()),
                };
                (
                    store.resolve(t.subject).to_string(),
                    store.resolve(t.property).to_string(),
                    is_res,
                    obj,
                )
            })
            .collect();
        out.sort();
        out
    }

    fn reopen(vfs: &mut MemVfs) -> (TripleStore, StoreLog, LogReport) {
        TripleStore::open_logged(vfs, snap()).unwrap()
    }

    #[test]
    fn open_commit_reopen_roundtrip() {
        let mut vfs = MemVfs::new();
        let (mut store, mut log, report) = reopen(&mut vfs);
        assert!(report.wal.created);
        store.insert_literal("b:1", "bundleName", "John Smith");
        store.insert_resource("b:1", "nestedBundle", "b:2");
        let outcome = log.commit(&vfs, &mut store).unwrap();
        assert!(matches!(outcome, CommitOutcome::Committed { seq: 0, ops: 2 }));

        let (recovered, _, report) = reopen(&mut vfs);
        assert_eq!(report.frames_replayed, 1);
        assert_eq!(report.ops_replayed, 2);
        assert_eq!(contents(&recovered), contents(&store));
        assert_eq!(recovered.journal().durable_delta().count(), 0);
    }

    #[test]
    fn clean_commit_writes_nothing() {
        let mut vfs = MemVfs::new();
        let (mut store, mut log, _) = reopen(&mut vfs);
        store.insert_literal("s", "p", "v");
        log.commit(&vfs, &mut store).unwrap();
        let before = log.log_bytes();
        assert_eq!(log.commit(&vfs, &mut store).unwrap(), CommitOutcome::Clean);
        assert_eq!(log.log_bytes(), before);
    }

    #[test]
    fn a_batch_is_one_frame() {
        let mut vfs = MemVfs::new();
        let (mut store, mut log, _) = reopen(&mut vfs);
        for i in 0..100 {
            store.insert_literal(&format!("s:{i}"), "p", "v");
        }
        let outcome = log.commit(&vfs, &mut store).unwrap();
        assert!(matches!(outcome, CommitOutcome::Committed { seq: 0, ops: 100 }));
        store.insert_literal("one", "more", "row");
        let outcome = log.commit(&vfs, &mut store).unwrap();
        assert!(matches!(outcome, CommitOutcome::Committed { seq: 1, ops: 1 }));
    }

    #[test]
    fn removes_and_set_unique_replay_correctly() {
        let mut vfs = MemVfs::new();
        let (mut store, mut log, _) = reopen(&mut vfs);
        let s = store.atom("b:1");
        let p = store.atom("bundleName");
        let v1 = store.literal_value("first");
        store.insert(s, p, v1);
        log.commit(&vfs, &mut store).unwrap();
        let v2 = store.literal_value("second");
        store.set_unique(s, p, v2);
        let t = store.insert_literal("x", "y", "z");
        store.remove(t);
        log.commit(&vfs, &mut store).unwrap();

        let (recovered, _, _) = reopen(&mut vfs);
        assert_eq!(contents(&recovered), contents(&store));
        recovered.check_invariants();
    }

    #[test]
    fn undo_within_the_commit_window_commits_the_net_delta() {
        let mut vfs = MemVfs::new();
        let (mut store, mut log, _) = reopen(&mut vfs);
        store.insert_literal("keep", "p", "v");
        let mark = store.revision();
        store.insert_literal("oops", "p", "v");
        store.undo_to(mark).unwrap();
        let outcome = log.commit(&vfs, &mut store).unwrap();
        assert!(matches!(outcome, CommitOutcome::Committed { ops: 1, .. }), "{outcome:?}");
        let (recovered, _, _) = reopen(&mut vfs);
        assert_eq!(contents(&recovered), contents(&store));
    }

    #[test]
    fn undo_across_the_commit_boundary_commits_a_compensating_frame() {
        let mut vfs = MemVfs::new();
        let (mut store, mut log, _) = reopen(&mut vfs);
        store.insert_literal("a", "p", "v");
        let mark = store.revision();
        store.insert_literal("b", "p", "v");
        log.commit(&vfs, &mut store).unwrap();
        // Rewind below the committed revision, then change something: the
        // frame takes "b" back first, then adds "c".
        store.undo_to(mark).unwrap();
        store.insert_literal("c", "p", "v");
        let snapshot_before = vfs.bytes(SNAP);
        let outcome = log.commit(&vfs, &mut store).unwrap();
        assert!(matches!(outcome, CommitOutcome::Committed { seq: 1, ops: 2 }), "{outcome:?}");
        assert_eq!(vfs.bytes(SNAP), snapshot_before, "no snapshot rewrite");
        let (mut recovered, mut log2, report) = reopen(&mut vfs);
        assert_eq!(report.frames_replayed, 2);
        assert_eq!(contents(&recovered), contents(&store));
        // Undo straight back to the start: the frame is compensation only.
        store.undo_to(Revision::start()).unwrap();
        let outcome = log.commit(&vfs, &mut store).unwrap();
        assert!(matches!(outcome, CommitOutcome::Committed { ops: 2, .. }), "{outcome:?}");
        assert!(contents(&store).is_empty());
        assert!(contents(&reopen(&mut vfs).0).is_empty());
        // The recovered pair took the earlier frames as durable history.
        recovered.insert_literal("d", "p", "v");
        assert!(matches!(
            log2.commit(&vfs, &mut recovered).unwrap(),
            CommitOutcome::Committed { ops: 1, .. }
        ));
    }

    #[test]
    fn a_faulted_commit_after_an_undo_across_the_boundary_has_two_endings() {
        let base = {
            let mut vfs = MemVfs::new();
            let (mut store, mut log, _) = reopen(&mut vfs);
            store.insert_literal("a", "p", "v");
            log.commit(&vfs, &mut store).unwrap();
            vfs
        };
        for rewind in [true, false] {
            let mut disk = base.clone();
            let (mut store, mut log, _) = reopen(&mut disk);
            let mark = store.revision();
            store.insert_literal("b", "p", "v");
            store.insert_literal("c", "p", "v");
            log.commit(&disk, &mut store).unwrap();
            let committed = contents(&store);
            // Commit, undo below it, new changes, and a commit that fails
            // at its append.
            store.undo_to(mark).unwrap();
            store.insert_literal("d", "p", "v");
            let current = contents(&store);
            let config = FaultConfig::new(FaultOp::Append, FaultMode::Torn, 0, 7);
            let faulty = FaultVfs::new(disk, config);
            assert!(log.commit(&faulty, &mut store).is_err());
            assert!(faulty.fault_fired());
            let mut disk = faulty.into_inner();
            if rewind {
                // Ending one: refuse the batch. The rewind restores exactly
                // the committed contents and the committed history.
                log.repair(&disk).unwrap();
                store.undo_to_durable();
                assert_eq!(contents(&store), committed);
                assert_eq!(store.journal().durable_delta().count(), 0);
                assert_eq!(log.commit(&disk, &mut store).unwrap(), CommitOutcome::Clean);
                store.undo_to(mark).unwrap();
                assert_eq!(contents(&store).len(), 1, "the history reaches the boundary again");
            } else {
                // Ending two: retry without a rewind; the same delta lands.
                let outcome = log.commit(&disk, &mut store).unwrap();
                assert!(matches!(outcome, CommitOutcome::Committed { ops: 3, .. }), "{outcome:?}");
                assert_eq!(contents(&store), current);
            }
            let want = if rewind { committed } else { current };
            let (recovered, _, _) = reopen(&mut disk);
            assert_eq!(contents(&recovered), want, "rewind: {rewind}");
        }
    }

    #[test]
    fn compaction_folds_the_log_and_preserves_state() {
        let mut vfs = MemVfs::new();
        let (mut store, mut log, _) = reopen(&mut vfs);
        for i in 0..20 {
            store.insert_literal(&format!("s:{i}"), "p", "v");
            log.commit(&vfs, &mut store).unwrap();
        }
        let long_log = log.log_bytes();
        log.compact(&vfs, &mut store).unwrap();
        assert!(log.log_bytes() < long_log);
        let (recovered, _, report) = reopen(&mut vfs);
        assert_eq!(report.frames_replayed, 0, "compacted log must be empty");
        assert_eq!(contents(&recovered), contents(&store));
    }

    #[test]
    fn should_compact_follows_the_threshold() {
        let mut vfs = MemVfs::new();
        let (mut store, mut log, _) = reopen(&mut vfs);
        log.set_compact_threshold(64);
        assert!(!log.should_compact());
        store.insert_literal("some-subject", "some-property", "some-value");
        log.commit(&vfs, &mut store).unwrap();
        assert!(log.should_compact());
        log.compact(&vfs, &mut store).unwrap();
        assert!(!log.should_compact());
    }

    #[test]
    fn aux_records_ride_the_frame_and_replay_last_wins() {
        let mut vfs = MemVfs::new();
        let (mut store, mut log, _) = reopen(&mut vfs);
        store.insert_literal("s", "p", "v");
        log.commit_with_aux(&vfs, &mut store, &[("marks/mark:0", b"<mark v=1/>")]).unwrap();
        store.insert_literal("s2", "p", "v");
        log.commit_with_aux(&vfs, &mut store, &[("marks/mark:0", b"<mark v=2/>")]).unwrap();

        let (_, _, report) = reopen(&mut vfs);
        assert_eq!(report.aux.get("marks/mark:0").map(Vec::as_slice), Some(&b"<mark v=2/>"[..]));
    }

    #[test]
    fn aux_only_commit_is_a_frame() {
        let mut vfs = MemVfs::new();
        let (mut store, mut log, _) = reopen(&mut vfs);
        let outcome =
            log.commit_with_aux(&vfs, &mut store, &[("marks/mark:0", b"<m/>")]).unwrap();
        assert!(matches!(outcome, CommitOutcome::Committed { ops: 0, .. }));
        let (_, _, report) = reopen(&mut vfs);
        assert_eq!(report.aux.get("marks/mark:0").map(Vec::as_slice), Some(&b"<m/>"[..]));
    }

    #[test]
    fn verify_frame_payload_mirrors_replay_checks() {
        let mut store = TripleStore::new();
        let base = store.revision();
        store.insert_literal("b:1", "bundleName", "Ward");
        store.insert_resource("b:1", "nestedBundle", "b:2");
        let t = store.insert_literal("x", "y", "z");
        store.remove(t);
        let changes = store.journal().since(base).iter();
        let (payload, _) = encode_records(&store, changes, &[("marks/mark:0", b"<mark/>")]);
        let summary = verify_frame_payload(0, &payload).unwrap();
        assert_eq!(summary.inserts, 3);
        assert_eq!(summary.removes, 1);
        assert_eq!(summary.aux, vec![("marks/mark:0".to_string(), b"<mark/>".to_vec())]);
        // Damage decodes as the same typed refusal replay would raise.
        assert!(matches!(
            verify_frame_payload(0, &payload[..payload.len() - 1]),
            Err(TrimError::Corrupt { .. })
        ));
        assert!(matches!(
            verify_frame_payload(0, &[0xEE]),
            Err(TrimError::Corrupt { .. })
        ));
    }

    #[test]
    fn stale_log_after_external_snapshot_rewrite_is_discarded() {
        let mut vfs = MemVfs::new();
        let (mut store, mut log, _) = reopen(&mut vfs);
        store.insert_literal("logged", "p", "v");
        log.commit(&vfs, &mut store).unwrap();
        // Someone rewrites the snapshot through the classic full-save
        // path, without touching the log: the snapshot is now the newer
        // authority and the log frames are stale.
        let mut authoritative = TripleStore::new();
        authoritative.insert_literal("authoritative", "p", "v");
        authoritative.save_to(&vfs, snap()).unwrap();

        let (recovered, _, report) = reopen(&mut vfs);
        assert_eq!(report.wal.discarded_frames, 1);
        assert_eq!(contents(&recovered), contents(&authoritative));
    }

    #[test]
    fn crash_between_snapshot_install_and_log_reset_recovers_the_snapshot() {
        // Simulate the exact compaction window: the new snapshot is
        // installed but the log reset never happens (halting fault on the
        // log's header rewrite).
        let mut base = MemVfs::new();
        let (mut store, mut log, _) = reopen(&mut base);
        store.insert_literal("s1", "p", "v");
        log.commit(&base, &mut store).unwrap();
        store.insert_literal("s2", "p", "v");
        log.commit(&base, &mut store).unwrap();

        // The snapshot install is the first write+sync+rename+sync_dir
        // quartet; the log reset is the second write. Fail it.
        let config = FaultConfig::new(FaultOp::Write, FaultMode::Fail, 1, 0).halting();
        let vfs = FaultVfs::new(base, config);
        assert!(log.compact(&vfs, &mut store).is_err());
        assert!(vfs.fault_fired());

        let mut disk = vfs.into_inner();
        let (recovered, _, report) = reopen(&mut disk);
        assert_eq!(
            report.wal.discarded_frames, 2,
            "stale pre-compaction frames must be discarded, not replayed"
        );
        assert_eq!(contents(&recovered), contents(&store));
    }

    #[test]
    fn corrupt_snapshot_is_refused_strictly() {
        let mut vfs = MemVfs::new();
        let (mut store, mut log, _) = reopen(&mut vfs);
        store.insert_literal("s", "p", "v");
        log.compact(&vfs, &mut store).unwrap();
        let mut bytes = vfs.bytes(SNAP).unwrap().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        vfs.write(snap(), &bytes).unwrap();
        assert!(matches!(
            TripleStore::open_logged(&vfs, snap()),
            Err(TrimError::Corrupt { .. })
        ));
    }

    #[test]
    fn open_logged_sweeps_stale_snapshot_temps() {
        let mut vfs = MemVfs::new();
        let (mut store, mut log, _) = reopen(&mut vfs);
        store.insert_literal("s", "p", "v");
        log.compact(&vfs, &mut store).unwrap();
        vfs.write(Path::new("store.xml.slimio-tmp"), b"crash leftover").unwrap();
        vfs.write(Path::new("store.xml.wal.slimio-tmp"), b"crash leftover").unwrap();
        let (_, _, report) = reopen(&mut vfs);
        assert!(report.wal.swept_temp);
        assert!(!vfs.exists(Path::new("store.xml.slimio-tmp")));
        assert!(!vfs.exists(Path::new("store.xml.wal.slimio-tmp")));
    }
}
