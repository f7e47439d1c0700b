//! `wal-verify`: offline fsck for a logged pad artifact — the sealed
//! snapshot, its sibling `.wal` log, and the `"marks"` sidecar records
//! riding in the log's frames.
//!
//! Recovery (`PadSession::open_logged`) *repairs* as it reads: it
//! truncates torn tails, discards stale generations, and sweeps temp
//! files. This tool is the read-only twin: it walks the same bytes with
//! the same checks — seal CRC, log header magic/version, per-frame
//! magic + length + CRC32 + sequence contiguity, snapshot/log bind,
//! record-level payload decoding, sidecar UTF-8 + XML parse — and
//! *mutates nothing*, reporting every finding as a typed fsck line.
//!
//! * `cargo run -p slim-bench --bin wal-verify -- PATH/pad.xml` —
//!   verify a real on-disk pair; exit 1 if any damage was found.
//! * `-- --self-test` — build a known-good pair in memory, verify it,
//!   then damage it in four distinct ways and check each is caught.

use std::path::Path;
use superimposed::marks::MarkManager;
use superimposed::slimio::{check_seal, crc32, scan_wal, Integrity, MemVfs, StdVfs, Vfs};
use superimposed::slimpad::PadSession;
use superimposed::trim::{verify_frame_payload, StoreLog, TripleStore};

/// The sidecar key a pad session commits its mark store under.
const MARKS_AUX_KEY: &str = "marks";

/// Where one finding points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Component {
    /// The sealed snapshot file.
    Snapshot,
    /// The log file as a whole (header, tail, binding).
    Log,
    /// One log frame, by sequence number.
    Frame(u64),
    /// The `"marks"` sidecar payload (newest record wins).
    Sidecar,
}

impl std::fmt::Display for Component {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Component::Snapshot => write!(f, "snapshot"),
            Component::Log => write!(f, "log"),
            Component::Frame(seq) => write!(f, "frame {seq}"),
            Component::Sidecar => write!(f, "sidecar"),
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
    /// `"marks"` sidecar records seen (the newest is the live one).
    pub sidecar_records: usize,
    /// Marks in the newest sidecar record, if one parsed.
    pub sidecar_marks: Option<usize>,
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
             sidecar: {} record(s){}\n",
            self.snapshot_triples,
            self.frames,
            self.ops,
            self.sidecar_records,
            match self.sidecar_marks {
                Some(n) => format!(", {n} mark(s) live"),
                None => String::new(),
            },
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

/// Walk the snapshot + log + sidecar at `snapshot_path` without
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

    // ---- frames: record-level decode, sidecar collection ------------
    let mut newest_sidecar: Option<(u64, Vec<u8>)> = None;
    for frame in &scan.frames {
        match verify_frame_payload(frame.seq, &frame.payload) {
            Ok(summary) => {
                report.ops += summary.inserts + summary.removes;
                for key in summary.aux_keys {
                    if key == MARKS_AUX_KEY {
                        report.sidecar_records += 1;
                        // Replay is last-write-wins; mirror that here.
                        newest_sidecar = Some((frame.seq, sidecar_value(&frame.payload)));
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
    report
}

/// Extract the newest `"marks"` aux value from an already-validated
/// frame payload by re-walking its records. The payload passed
/// [`verify_frame_payload`], so the cursor arithmetic cannot fail.
fn sidecar_value(payload: &[u8]) -> Vec<u8> {
    const REC_AUX: u8 = 2;
    let mut at = 0usize;
    let mut newest = Vec::new();
    let read_len = |payload: &[u8], at: &mut usize| -> usize {
        let len = u32::from_le_bytes(payload[*at..*at + 4].try_into().unwrap()) as usize;
        *at += 4;
        len
    };
    while at < payload.len() {
        let tag = payload[at];
        at += 1;
        if tag == REC_AUX {
            let key_len = read_len(payload, &mut at);
            let key = &payload[at..at + key_len];
            at += key_len;
            let val_len = read_len(payload, &mut at);
            if key == MARKS_AUX_KEY.as_bytes() {
                newest = payload[at..at + val_len].to_vec();
            }
            at += val_len;
        } else {
            // Insert/remove record: subject, property, kind byte, object.
            let s_len = read_len(payload, &mut at);
            at += s_len;
            let p_len = read_len(payload, &mut at);
            at += p_len + 1;
            let o_len = read_len(payload, &mut at);
            at += o_len;
        }
    }
    newest
}

// ---------------------------------------------------------------------
// Self-test: build a pair in memory, verify, damage, verify again
// ---------------------------------------------------------------------

/// Build a known-good logged pad (snapshot + 2-frame log + marks
/// sidecar) on `vfs` at `path`.
fn build_fixture(vfs: &dyn Vfs, path: &Path) {
    use superimposed::basedocs::{textdoc::TextTarget, Span, TextAddress};
    use superimposed::marks::MarkAddress;

    let mut pad = PadSession::new("fsck-fixture").expect("fresh pad");
    pad.enable_logging(vfs, path).expect("enable logging");
    let bundle = pad.create_bundle("Rounds", (10, 10), 160, 120, None).expect("bundle");
    let mark = pad
        .marks_mut()
        .create_mark_at(MarkAddress::Text(TextAddress {
            file_name: "notes.txt".into(),
            target: TextTarget::Span { paragraph: 0, span: Span::new(0, 4) },
        }))
        .expect("mint mark");
    pad.place_mark(&mark, Some("vitals"), (20, 20), Some(bundle)).expect("place");
    pad.commit(vfs).expect("commit 1");
    pad.create_bundle("Labs", (30, 30), 160, 120, None).expect("bundle 2");
    pad.commit(vfs).expect("commit 2");
}

/// Clean fixture plus four damage drills; panics (exit 101) on any
/// missed detection.
fn self_test() {
    let snap = Path::new("fsck/pad.xml");
    let wal = StoreLog::wal_path(snap);

    let vfs = MemVfs::new();
    build_fixture(&vfs, snap);
    let clean = verify_pair(&vfs, snap);
    print!("{}", clean.render());
    assert!(!clean.damaged(), "clean fixture reported damage:\n{}", clean.render());
    assert!(clean.frames >= 2, "fixture should commit at least two frames");
    assert_eq!(clean.sidecar_marks, Some(1), "fixture sidecar should carry one mark");
    let pristine_log = vfs.read(&wal).expect("log exists");
    let pristine_snap = vfs.read(snap).expect("snapshot exists");

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

    println!("self-test: clean pair verifies, all 4 damage drills detected");
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
        assert_eq!(report.sidecar_marks, Some(1));
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
