//! `wal-verify`: offline fsck for a logged pad artifact — the sealed
//! snapshot, its sibling `.wal` log, and the mark records riding in the
//! log's frames: one `marks/<id>` record per changed mark (empty for a
//! removed mark), the `marks/next` id counter, and the whole-store
//! `"marks"` record older builds wrote.
//!
//! Recovery (`PadSession::open_logged`) *repairs* as it reads: it
//! truncates torn tails, discards stale generations, and sweeps temp
//! files. This tool is the read-only twin: it walks the same bytes with
//! the same checks — seal CRC, log header magic/version, per-frame
//! magic + length + CRC32 + sequence contiguity, snapshot/log bind,
//! record-level payload decoding, mark-record UTF-8 + XML parse — and
//! *mutates nothing*, reporting every finding as a typed fsck line.
//!
//! * `cargo run -p slim-bench --bin wal-verify -- PATH/pad.xml` —
//!   verify a real on-disk pair; exit 1 if any damage was found.
//! * `-- --self-test` — build a known-good pair in memory, verify it,
//!   then damage it in six distinct ways and check each is caught.

use std::collections::BTreeMap;
use std::path::Path;
use superimposed::marks::MarkManager;
use superimposed::slimio::{check_seal, crc32, scan_wal, Integrity, MemVfs, StdVfs, Vfs};
use superimposed::slimpad::pad::{
    apply_mark_record, LEGACY_MARKS_AUX_KEY, MARK_AUX_PREFIX, MARK_NEXT_AUX_KEY,
};
use superimposed::slimpad::PadSession;
use superimposed::trim::{verify_frame_payload, StoreLog, TripleStore};

/// Where one finding points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Component {
    /// The sealed snapshot file.
    Snapshot,
    /// The log file as a whole (header, tail, binding).
    Log,
    /// One log frame, by sequence number.
    Frame(u64),
    /// The legacy whole-store `"marks"` record (newest record wins).
    Sidecar,
    /// One per-mark or id-counter record, by key (newest record wins).
    MarkRecord(String),
}

impl std::fmt::Display for Component {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Component::Snapshot => write!(f, "snapshot"),
            Component::Log => write!(f, "log"),
            Component::Frame(seq) => write!(f, "frame {seq}"),
            Component::Sidecar => write!(f, "sidecar"),
            Component::MarkRecord(key) => write!(f, "record {key}"),
        }
    }
}

/// How bad one finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Observation only; the pair is still crash-consistent.
    Note,
    /// Recovery would have to repair or discard something here.
    Damage,
}

/// One line of the fsck report.
#[derive(Debug, Clone)]
pub struct Finding {
    pub severity: Severity,
    pub component: Component,
    pub message: String,
}

/// Everything the walk established about the pair.
#[derive(Debug, Default)]
pub struct FsckReport {
    pub findings: Vec<Finding>,
    /// Triples in the parsed snapshot.
    pub snapshot_triples: usize,
    /// Valid frames in the log.
    pub frames: usize,
    /// Insert/remove records across all valid frames.
    pub ops: usize,
    /// Legacy whole-store `"marks"` records seen (the newest is the
    /// live one).
    pub sidecar_records: usize,
    /// Marks in the newest legacy record, if one parsed.
    pub sidecar_marks: Option<usize>,
    /// `marks/<id>` keys whose newest record holds a mark.
    pub mark_records: usize,
    /// `marks/<id>` keys whose newest record is a tombstone.
    pub mark_tombstones: usize,
}

impl FsckReport {
    fn note(&mut self, component: Component, message: impl Into<String>) {
        self.findings.push(Finding {
            severity: Severity::Note,
            component,
            message: message.into(),
        });
    }

    fn damage(&mut self, component: Component, message: impl Into<String>) {
        self.findings.push(Finding {
            severity: Severity::Damage,
            component,
            message: message.into(),
        });
    }

    /// True when recovery would have to repair or discard anything.
    pub fn damaged(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Damage)
    }

    /// Render the report as fsck lines plus a verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "snapshot: {} triple(s); log: {} frame(s), {} store op(s); \
             sidecar: {} record(s){}; mark records: {} live, {} tombstone(s)\n",
            self.snapshot_triples,
            self.frames,
            self.ops,
            self.sidecar_records,
            match self.sidecar_marks {
                Some(n) => format!(", {n} mark(s) live"),
                None => String::new(),
            },
            self.mark_records,
            self.mark_tombstones,
        ));
        for f in &self.findings {
            let tag = match f.severity {
                Severity::Note => "note",
                Severity::Damage => "DAMAGE",
            };
            out.push_str(&format!("{tag}: {}: {}\n", f.component, f.message));
        }
        out.push_str(if self.damaged() { "verdict: DAMAGED\n" } else { "verdict: clean\n" });
        out
    }
}

/// Walk the snapshot + log + mark records at `snapshot_path` without
/// modifying anything on `vfs`.
pub fn verify_pair(vfs: &dyn Vfs, snapshot_path: &Path) -> FsckReport {
    let mut report = FsckReport::default();

    // ---- snapshot: seal, UTF-8, canonical parse ---------------------
    let snapshot_bytes = if vfs.exists(snapshot_path) {
        match vfs.read(snapshot_path) {
            Ok(bytes) => Some(bytes),
            Err(e) => {
                report.damage(Component::Snapshot, format!("unreadable: {e}"));
                None
            }
        }
    } else {
        report.note(Component::Snapshot, "missing (pad was never compacted or saved)");
        None
    };
    if let Some(bytes) = &snapshot_bytes {
        match std::str::from_utf8(bytes) {
            Ok(text) => {
                let (integrity, payload) = check_seal(text);
                match integrity {
                    Integrity::Verified => {}
                    Integrity::Unsealed => {
                        report.note(Component::Snapshot, "no seal footer (legacy artifact)")
                    }
                    Integrity::Corrupt => report.damage(
                        Component::Snapshot,
                        "seal footer damaged or checksum mismatch",
                    ),
                }
                // A logged pad snapshot is a `<slimpad-file>`; accept a
                // bare `<trim>` store too so the fsck covers both.
                match PadSession::load_xml(payload, MarkManager::new()) {
                    Ok(pad) => report.snapshot_triples = pad.dmi().store().len(),
                    Err(pad_err) => match TripleStore::from_xml(payload) {
                        Ok(store) => report.snapshot_triples = store.len(),
                        Err(_) => report.damage(
                            Component::Snapshot,
                            format!("payload does not parse: {pad_err}"),
                        ),
                    },
                }
            }
            Err(e) => report.damage(Component::Snapshot, format!("not valid UTF-8: {e}")),
        }
    }

    // ---- log: header, frames, binding -------------------------------
    let wal_path = StoreLog::wal_path(snapshot_path);
    if !vfs.exists(&wal_path) {
        report.note(Component::Log, "missing (snapshot-only state; nothing to replay)");
        return report;
    }
    let log_bytes = match vfs.read(&wal_path) {
        Ok(bytes) => bytes,
        Err(e) => {
            report.damage(Component::Log, format!("unreadable: {e}"));
            return report;
        }
    };
    let scan = match scan_wal(&log_bytes) {
        Ok(scan) => scan,
        Err(e) => {
            report.damage(Component::Log, format!("header rejected: {e}"));
            return report;
        }
    };
    report.frames = scan.frames.len();
    if scan.torn_bytes > 0 {
        report.damage(
            Component::Log,
            format!(
                "{} torn byte(s) past the last valid frame (recovery would truncate at {})",
                scan.torn_bytes, scan.valid_len
            ),
        );
    }
    let disk_bind = match &snapshot_bytes {
        Some(bytes) => crc32(bytes),
        None => crc32(b""),
    };
    if scan.bind_crc != disk_bind {
        report.damage(
            Component::Log,
            format!(
                "bind crc {:08x} does not match the snapshot on disk ({:08x}): \
                 stale generation, recovery would discard all {} frame(s)",
                scan.bind_crc,
                disk_bind,
                scan.frames.len()
            ),
        );
    }

    // ---- frames: record-level decode, mark-record collection --------
    let mut newest_sidecar: Option<(u64, Vec<u8>)> = None;
    // Replay is last-write-wins per key; mirror that here.
    let mut newest_records: BTreeMap<String, (u64, Vec<u8>)> = BTreeMap::new();
    for frame in &scan.frames {
        match verify_frame_payload(frame.seq, &frame.payload) {
            Ok(summary) => {
                report.ops += summary.inserts + summary.removes;
                for (key, value) in summary.aux {
                    if key == LEGACY_MARKS_AUX_KEY {
                        report.sidecar_records += 1;
                        newest_sidecar = Some((frame.seq, value));
                    } else if key.starts_with(MARK_AUX_PREFIX) {
                        newest_records.insert(key, (frame.seq, value));
                    } else {
                        report.note(
                            Component::Frame(frame.seq),
                            format!("unrecognized aux key {key:?} (ignored by replay)"),
                        );
                    }
                }
            }
            Err(e) => report.damage(Component::Frame(frame.seq), format!("payload rejected: {e}")),
        }
    }

    // ---- sidecar: UTF-8 + mark-store parse --------------------------
    if let Some((seq, value)) = newest_sidecar {
        match std::str::from_utf8(&value) {
            Ok(xml) => {
                let mut manager = MarkManager::new();
                match manager.load_xml(xml) {
                    Ok(()) => report.sidecar_marks = Some(manager.len()),
                    Err(e) => report.damage(
                        Component::Sidecar,
                        format!("mark store in frame {seq} does not parse: {e}"),
                    ),
                }
            }
            Err(e) => report.damage(
                Component::Sidecar,
                format!("mark store in frame {seq} is not valid UTF-8: {e}"),
            ),
        }
    }

    // ---- per-mark records: each applied as recovery would ----------
    for (key, (seq, value)) in newest_records {
        match apply_mark_record(&mut MarkManager::new(), &key, &value) {
            Ok(()) if key == MARK_NEXT_AUX_KEY => {}
            Ok(()) if value.is_empty() => report.mark_tombstones += 1,
            Ok(()) => report.mark_records += 1,
            Err(e) => report.damage(Component::MarkRecord(key), format!("frame {seq}: {e}")),
        }
    }
    report
}

// ---------------------------------------------------------------------
// Self-test: build a pair in memory, verify, damage, verify again
// ---------------------------------------------------------------------

/// What [`build_fixture`] left behind.
struct Fixture {
    /// Bundles on the live pad (the invisible root included).
    bundles: usize,
    /// Byte offset of the third frame in the log.
    third_frame_at: usize,
}

/// Build a known-good logged pad on `vfs` at `path`: a snapshot plus a
/// 3-frame log whose first frame carries two marks' records, whose
/// second carries a tombstone for one of them, and whose third undoes
/// across the second, so it begins with compensation records.
fn build_fixture(vfs: &dyn Vfs, path: &Path) -> Fixture {
    use superimposed::basedocs::{textdoc::TextTarget, Span, TextAddress};
    use superimposed::marks::MarkAddress;

    let mut pad = PadSession::new("fsck-fixture").expect("fresh pad");
    pad.enable_logging(vfs, path).expect("enable logging");
    let bundle = pad.create_bundle("Rounds", (10, 10), 160, 120, None).expect("bundle");
    let address = MarkAddress::Text(TextAddress {
        file_name: "notes.txt".into(),
        target: TextTarget::Span { paragraph: 0, span: Span::new(0, 4) },
    });
    let mark = pad.marks_mut().create_mark_at(address.clone()).expect("mint mark");
    let spare = pad.marks_mut().create_mark_at(address).expect("mint mark 2");
    pad.place_mark(&mark, Some("vitals"), (20, 20), Some(bundle)).expect("place");
    pad.commit(vfs).expect("commit 1");
    pad.begin_op();
    pad.create_bundle("Labs", (30, 30), 160, 120, None).expect("bundle 2");
    pad.marks_mut().remove(&spare).expect("remove mark 2");
    pad.commit(vfs).expect("commit 2");
    let third_frame_at = pad.log().expect("logged").log_bytes() as usize;
    assert!(pad.undo().expect("undo"), "undo across commit 2");
    pad.create_bundle("Meds", (50, 50), 160, 120, None).expect("bundle 3");
    pad.commit(vfs).expect("commit 3");
    Fixture { bundles: pad.dmi().bundles().len(), third_frame_at }
}

/// Clean fixture plus six damage drills; panics (exit 101) on any
/// missed detection.
fn self_test() {
    let snap = Path::new("fsck/pad.xml");
    let wal = StoreLog::wal_path(snap);

    let vfs = MemVfs::new();
    let fixture = build_fixture(&vfs, snap);
    let clean = verify_pair(&vfs, snap);
    print!("{}", clean.render());
    assert!(!clean.damaged(), "clean fixture reported damage:\n{}", clean.render());
    assert_eq!(clean.frames, 3, "fixture should commit three frames");
    assert_eq!(
        (clean.mark_records, clean.mark_tombstones),
        (1, 1),
        "fixture should log one live mark and one tombstone"
    );
    let pristine_log = vfs.read(&wal).expect("log exists");
    let pristine_snap = vfs.read(snap).expect("snapshot exists");
    // The undo across commit 2 is logged, not compacted: recovery
    // replays the compensating frame to the live pad's bundles.
    let third = &scan_wal(&pristine_log).expect("clean log").frames[2];
    let summary = verify_frame_payload(third.seq, &third.payload).expect("third frame decodes");
    assert!(summary.removes > 0, "the third frame takes bundle 2 back");
    let (recovered, _) =
        PadSession::open_logged(&vfs, snap, MarkManager::new()).expect("recover fixture");
    assert_eq!(recovered.dmi().bundles().len(), fixture.bundles, "recovered bundle count");

    // Drill 1: flip one byte inside the last frame's payload.
    let mut torn = pristine_log.clone();
    let at = torn.len() - 3;
    torn[at] ^= 0x40;
    vfs.write(&wal, &torn).expect("inject");
    assert!(verify_pair(&vfs, snap).damaged(), "flipped frame byte went undetected");

    // Drill 2: truncate the log mid-frame.
    vfs.write(&wal, &pristine_log[..pristine_log.len() - 5]).expect("inject");
    assert!(verify_pair(&vfs, snap).damaged(), "truncated tail went undetected");

    // Drill 3: corrupt the snapshot seal (and thereby the log binding).
    let mut bad_snap = pristine_snap.clone();
    let mid = bad_snap.len() / 2;
    bad_snap[mid] ^= 0x01;
    vfs.write(&wal, &pristine_log).expect("restore");
    vfs.write(snap, &bad_snap).expect("inject");
    assert!(verify_pair(&vfs, snap).damaged(), "snapshot corruption went undetected");

    // Drill 4: stale generation — snapshot rewritten, log left behind.
    let mut grown = pristine_snap.clone();
    grown.extend_from_slice(b"\n");
    vfs.write(snap, &grown).expect("inject");
    assert!(verify_pair(&vfs, snap).damaged(), "stale log binding went undetected");

    // Drill 5: flip one byte inside a per-mark record's value.
    vfs.write(snap, &pristine_snap).expect("restore");
    let key = format!("{MARK_AUX_PREFIX}mark:0");
    let at = pristine_log
        .windows(key.len())
        .position(|w| w == key.as_bytes())
        .expect("the first frame carries mark:0's record");
    let mut torn = pristine_log.clone();
    // Past the key and the value's 4-byte length prefix: inside `<mark`.
    torn[at + key.len() + 4 + 2] ^= 0x01;
    vfs.write(&wal, &torn).expect("inject");
    assert!(verify_pair(&vfs, snap).damaged(), "damaged mark record went undetected");

    // Drill 6: flip one byte inside the frame that begins with
    // compensation records.
    let mut torn = pristine_log.clone();
    torn[(fixture.third_frame_at + pristine_log.len()) / 2] ^= 0x01;
    vfs.write(&wal, &torn).expect("inject");
    assert!(verify_pair(&vfs, snap).damaged(), "flipped compensating-frame byte went undetected");

    println!("self-test: clean pair verifies, all 6 damage drills detected");
}

fn usage() -> ! {
    eprintln!("usage: wal-verify SNAPSHOT_PATH | --self-test");
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag] if flag == "--self-test" => self_test(),
        [path] => {
            let report = verify_pair(&StdVfs, Path::new(path));
            print!("{}", report.render());
            if report.damaged() {
                std::process::exit(1);
            }
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SNAP: &str = "fsck/pad.xml";

    #[test]
    fn clean_pair_verifies() {
        let vfs = MemVfs::new();
        build_fixture(&vfs, Path::new(SNAP));
        let report = verify_pair(&vfs, Path::new(SNAP));
        assert!(!report.damaged(), "{}", report.render());
        assert!(report.frames >= 2);
        assert!(report.ops > 0);
        assert_eq!((report.mark_records, report.mark_tombstones), (1, 1));
        assert_eq!(report.sidecar_records, 0, "new logs carry no whole-store record");
        assert!(report.render().contains("mark records: 1 live, 1 tombstone(s)"));
    }

    #[test]
    fn a_well_framed_but_unreadable_mark_record_is_damage() {
        let vfs = MemVfs::new();
        let snap = Path::new(SNAP);
        build_fixture(&vfs, snap);
        // Append frames through the store's own log, so they pass every
        // frame check and only the records inside are wrong.
        let mut store = TripleStore::new();
        let (mut log, _) = StoreLog::attach(&vfs, snap, &mut store).expect("attach");
        let stray = br#"<mark id="mark:7" kind="text"/>"#;
        for (key, value) in [("marks/mark:0", &b"<mark"[..]), ("marks/mark:3", stray)] {
            log.commit_with_aux(&vfs, &mut store, &[(key, value)]).expect("append");
        }
        log.commit_with_aux(&vfs, &mut store, &[(MARK_NEXT_AUX_KEY, b"x")]).expect("append");
        let report = verify_pair(&vfs, snap);
        for key in ["marks/mark:0", "marks/mark:3", MARK_NEXT_AUX_KEY] {
            assert!(
                report.findings.iter().any(|f| f.severity == Severity::Damage
                    && f.component == Component::MarkRecord(key.to_string())),
                "{key}: {}",
                report.render()
            );
        }
        // Recovery refuses the same log.
        assert!(PadSession::open_logged(&vfs, snap, MarkManager::new()).is_err());
    }

    #[test]
    fn missing_pair_is_a_note_not_damage() {
        let vfs = MemVfs::new();
        let report = verify_pair(&vfs, Path::new(SNAP));
        assert!(!report.damaged());
        assert_eq!(report.frames, 0);
    }

    #[test]
    fn snapshot_without_log_is_clean() {
        let vfs = MemVfs::new();
        build_fixture(&vfs, Path::new(SNAP));
        vfs.remove(Path::new(&StoreLog::wal_path(Path::new(SNAP)))).expect("drop log");
        let report = verify_pair(&vfs, Path::new(SNAP));
        assert!(!report.damaged(), "{}", report.render());
    }

    #[test]
    fn frame_bitflip_is_damage() {
        let vfs = MemVfs::new();
        build_fixture(&vfs, Path::new(SNAP));
        let wal = StoreLog::wal_path(Path::new(SNAP));
        let mut bytes = vfs.read(&wal).expect("log");
        let at = bytes.len() - 2;
        bytes[at] ^= 0x10;
        vfs.write(&wal, &bytes).expect("inject");
        let report = verify_pair(&vfs, Path::new(SNAP));
        assert!(report.damaged(), "{}", report.render());
    }

    #[test]
    fn stale_generation_is_damage() {
        let vfs = MemVfs::new();
        build_fixture(&vfs, Path::new(SNAP));
        let mut snap_bytes = vfs.read(Path::new(SNAP)).expect("snapshot");
        snap_bytes.push(b' ');
        vfs.write(Path::new(SNAP), &snap_bytes).expect("inject");
        let report = verify_pair(&vfs, Path::new(SNAP));
        assert!(report.damaged(), "{}", report.render());
    }

    #[test]
    fn self_test_runs_clean() {
        self_test();
    }
}
