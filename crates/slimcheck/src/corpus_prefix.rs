//! Seed-corpus prefixes: translate slimgen's layer-agnostic
//! [`SeedOp`] stream into each layer's op alphabet.
//!
//! Differential cases that start from an empty world spend most of
//! their op budget rebuilding boring structure before anything
//! interesting can happen. With `--corpus N` the sweep prepends `N`
//! translated seed ops *inside the check closure*: the prefix is
//! derived from the case seed (so a printed `SLIMCHECK_SEED` still
//! replays the exact case), but it is not part of the shrink space —
//! the shrinker only ever minimizes the random suffix.

use crate::ops::{
    ConjOp, DmiOp, PadOp, PadServeOp, StoreOp, WalOp, ANNOTATIONS, NAMES, OBJECTS, PROPS, SUBJECTS,
};
use slimgen::seed_ops::{seed_ops, SeedOp};

/// Reduce a slimgen selector to a pool/index-range value.
fn sel(v: u64, m: usize) -> usize {
    (v % m.max(1) as u64) as usize
}

/// Live-object index: the layers resolve these modulo the live count,
/// matching the generated strategies' `0..16` habit.
fn idx(v: u64) -> usize {
    sel(v, 16)
}

/// Structure prefix for the store layer: growth-biased inserts with
/// checkpoints, so undo and queries in the suffix act on a populated
/// store.
pub fn store_prefix(seed: u64, n: usize) -> Vec<StoreOp> {
    seed_ops(seed, n)
        .into_iter()
        .map(|op| match op {
            SeedOp::CreateBundle { parent } => StoreOp::Insert {
                s: sel(parent, SUBJECTS.len()),
                p: sel(parent >> 8, PROPS.len()),
                o: sel(parent >> 16, OBJECTS.len()),
                res: parent & 1 == 0,
            },
            SeedOp::CreateScrap { bundle, mark } => StoreOp::Insert {
                s: sel(bundle, SUBJECTS.len()),
                p: sel(mark, PROPS.len()),
                o: sel(mark >> 8, OBJECTS.len()),
                res: mark & 1 == 0,
            },
            SeedOp::Annotate { scrap, note } => StoreOp::SetUnique {
                s: sel(scrap, SUBJECTS.len()),
                p: sel(note, PROPS.len()),
                o: sel(note >> 8, OBJECTS.len()),
                res: note & 1 == 0,
            },
            SeedOp::Link { from, to } => StoreOp::Insert {
                s: sel(from, SUBJECTS.len()),
                p: sel(to, PROPS.len()),
                o: sel(to >> 8, OBJECTS.len()),
                res: to & 1 == 0,
            },
            SeedOp::Checkpoint => StoreOp::Checkpoint,
        })
        .collect()
}

/// Structure prefix for the conjunctive layer: growth-biased inserts
/// over the shared pools, with slimgen checkpoints doubling as query
/// probes so the suffix's joins run against corpus-built structure.
/// Deterministic per seed, so `SLIMCHECK_SEED` replays hold.
pub fn conj_prefix(seed: u64, n: usize) -> Vec<ConjOp> {
    seed_ops(seed, n)
        .into_iter()
        .map(|op| match op {
            SeedOp::CreateBundle { parent } => ConjOp::Insert {
                s: sel(parent, SUBJECTS.len()),
                p: sel(parent >> 8, PROPS.len()),
                o: sel(parent >> 16, OBJECTS.len()),
                res: parent & 1 == 0,
            },
            SeedOp::CreateScrap { bundle, mark } => ConjOp::Insert {
                s: sel(bundle, SUBJECTS.len()),
                p: sel(mark, PROPS.len()),
                o: sel(mark >> 8, OBJECTS.len()),
                res: mark & 1 == 0,
            },
            SeedOp::Annotate { scrap, note } => ConjOp::Insert {
                s: sel(scrap, SUBJECTS.len()),
                p: sel(note, PROPS.len()),
                o: sel(note >> 8, OBJECTS.len()),
                res: false,
            },
            SeedOp::Link { from, to } => ConjOp::Insert {
                s: sel(from, SUBJECTS.len()),
                p: sel(to, PROPS.len()),
                o: sel(to >> 8, OBJECTS.len()),
                res: to & 1 == 0,
            },
            SeedOp::Checkpoint => ConjOp::Query { shape: 0, p0: 0, p1: 1, c: 0 },
        })
        .collect()
}

/// Structure prefix for the WAL layer: the same inserts, with slimgen
/// checkpoints doubling as commit boundaries so the suffix's crashes
/// and reopens have acknowledged history behind them. Links seed the
/// *sibling* session, and every other checkpoint commits both sessions
/// back to back, so two-session suffix schedules (commit/commit,
/// commit/crash, commit/compact) start from populated logs on each
/// side. Deterministic per seed, so `SLIMCHECK_SEED` replays hold.
pub fn wal_prefix(seed: u64, n: usize) -> Vec<WalOp> {
    let mut commits = 0u64;
    seed_ops(seed, n)
        .into_iter()
        .flat_map(|op| match op {
            SeedOp::CreateBundle { parent } => vec![WalOp::Insert {
                s: sel(parent, SUBJECTS.len()),
                p: sel(parent >> 8, PROPS.len()),
                o: sel(parent >> 16, OBJECTS.len()),
                res: parent & 1 == 0,
            }],
            SeedOp::CreateScrap { bundle, mark } => vec![WalOp::Insert {
                s: sel(bundle, SUBJECTS.len()),
                p: sel(mark, PROPS.len()),
                o: sel(mark >> 8, OBJECTS.len()),
                res: mark & 1 == 0,
            }],
            SeedOp::Annotate { scrap, note } => vec![WalOp::SetUnique {
                s: sel(scrap, SUBJECTS.len()),
                p: sel(note, PROPS.len()),
                o: sel(note >> 8, OBJECTS.len()),
                res: note & 1 == 0,
            }],
            SeedOp::Link { from, to } => vec![WalOp::SiblingInsert {
                s: sel(from, SUBJECTS.len()),
                p: sel(to, PROPS.len()),
                o: sel(to >> 8, OBJECTS.len()),
                res: to & 1 == 0,
            }],
            SeedOp::Checkpoint => {
                commits += 1;
                if commits.is_multiple_of(2) {
                    vec![WalOp::Commit, WalOp::SiblingCommit]
                } else {
                    vec![WalOp::Commit]
                }
            }
        })
        .collect()
}

/// Structure prefix for the DMI layer: bundles (immediately nested, so
/// deep trees appear), scraps, annotations and links.
pub fn dmi_prefix(seed: u64, n: usize) -> Vec<DmiOp> {
    seed_ops(seed, n)
        .into_iter()
        .flat_map(|op| match op {
            SeedOp::CreateBundle { parent } => vec![
                DmiOp::CreateBundle {
                    name: sel(parent, NAMES.len()),
                    pos: ((parent % 200) as i64, ((parent >> 8) % 200) as i64),
                    w: 40,
                    h: 30,
                },
                DmiOp::NestBundle { parent: idx(parent), child: idx(parent >> 16) },
            ],
            SeedOp::CreateScrap { bundle, mark } => vec![
                DmiOp::CreateScrap {
                    name: sel(bundle, NAMES.len()),
                    pos: ((bundle % 200) as i64, (mark % 200) as i64),
                    mark: idx(mark),
                },
                DmiOp::AddScrap { bundle: idx(bundle), scrap: idx(mark >> 8) },
            ],
            SeedOp::Annotate { scrap, note } => {
                vec![DmiOp::Annotate { scrap: idx(scrap), text: sel(note, ANNOTATIONS.len()) }]
            }
            SeedOp::Link { from, to } => vec![DmiOp::Link { from: idx(from), to: idx(to) }],
            SeedOp::Checkpoint => vec![DmiOp::Checkpoint],
        })
        .collect()
}

/// Structure prefix for the pad layer. `Link` has no pad-session verb;
/// it becomes another placement so the prefix keeps its density.
pub fn pad_prefix(seed: u64, n: usize) -> Vec<PadOp> {
    seed_ops(seed, n)
        .into_iter()
        .map(|op| match op {
            SeedOp::CreateBundle { parent } => PadOp::CreateBundle {
                name: sel(parent, NAMES.len()),
                pos: ((parent % 200) as i64, ((parent >> 8) % 200) as i64),
                parent: Some(idx(parent >> 16)),
            },
            SeedOp::CreateScrap { bundle, mark } => PadOp::PlaceMark {
                label: sel(mark, NAMES.len()),
                pos: ((bundle % 200) as i64, (mark % 200) as i64),
                bundle: Some(idx(bundle)),
            },
            SeedOp::Annotate { scrap, note } => {
                PadOp::Annotate { scrap: idx(scrap), text: sel(note, ANNOTATIONS.len()) }
            }
            SeedOp::Link { from, to } => PadOp::PlaceMark {
                label: sel(from, NAMES.len()),
                pos: ((from % 200) as i64, (to % 200) as i64),
                bundle: Some(idx(to)),
            },
            SeedOp::Checkpoint => PadOp::BeginOp,
        })
        .collect()
}

/// Structure prefix for the pad-service layer: bundles and placed
/// marks through the main session, with slimgen checkpoints doubling as
/// explicit commits. `Link` becomes a *sibling-session* placement, so
/// two-session suffix schedules (sibling undo, sibling crash commits)
/// start from state both sessions helped build. Deterministic per seed,
/// so `SLIMCHECK_SEED` replays hold.
pub fn padserve_prefix(seed: u64, n: usize) -> Vec<PadServeOp> {
    seed_ops(seed, n)
        .into_iter()
        .map(|op| match op {
            SeedOp::CreateBundle { parent } => PadServeOp::Create {
                name: sel(parent, NAMES.len()),
                pos: ((parent % 200) as i64, ((parent >> 8) % 200) as i64),
                parent: Some(idx(parent >> 16)),
            },
            SeedOp::CreateScrap { bundle, mark } => PadServeOp::Mark {
                doc: sel(mark, 8),
                paragraph: sel(mark >> 8, 8),
                label: sel(bundle >> 8, NAMES.len()),
                pos: ((bundle % 200) as i64, (mark % 200) as i64),
                bundle: Some(idx(bundle)),
            },
            SeedOp::Annotate { scrap, note } => {
                PadServeOp::Annotate { scrap: idx(scrap), text: sel(note, ANNOTATIONS.len()) }
            }
            SeedOp::Link { from, to } => PadServeOp::SiblingPadOp {
                mark: from & 1 == 0,
                name: sel(from, NAMES.len()),
                pos: ((from % 200) as i64, (to % 200) as i64),
                target: Some(idx(to)),
            },
            SeedOp::Checkpoint => PadServeOp::Commit,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefixes_are_deterministic_per_seed() {
        for n in [0, 1, 32] {
            assert_eq!(format!("{:?}", dmi_prefix(5, n)), format!("{:?}", dmi_prefix(5, n)));
            assert_eq!(format!("{:?}", pad_prefix(5, n)), format!("{:?}", pad_prefix(5, n)));
            assert_eq!(format!("{:?}", store_prefix(5, n)), format!("{:?}", store_prefix(5, n)));
            assert_eq!(format!("{:?}", conj_prefix(5, n)), format!("{:?}", conj_prefix(5, n)));
            assert_eq!(format!("{:?}", wal_prefix(5, n)), format!("{:?}", wal_prefix(5, n)));
            assert_eq!(
                format!("{:?}", padserve_prefix(5, n)),
                format!("{:?}", padserve_prefix(5, n))
            );
        }
        assert_ne!(format!("{:?}", dmi_prefix(5, 32)), format!("{:?}", dmi_prefix(6, 32)));
    }

    #[test]
    fn wal_prefix_commits_at_checkpoints() {
        let ops = wal_prefix(9, 256);
        assert!(ops.iter().any(|op| matches!(op, WalOp::Commit)));
        assert!(ops.iter().any(|op| matches!(op, WalOp::Insert { .. })));
        assert!(ops.iter().any(|op| matches!(op, WalOp::SiblingInsert { .. })));
        assert!(ops.iter().any(|op| matches!(op, WalOp::SiblingCommit)));
    }

    #[test]
    fn padserve_prefix_routes_links_to_the_sibling() {
        let ops = padserve_prefix(9, 256);
        assert!(ops.iter().any(|op| matches!(op, PadServeOp::Create { .. })));
        assert!(ops.iter().any(|op| matches!(op, PadServeOp::Mark { .. })));
        assert!(ops.iter().any(|op| matches!(op, PadServeOp::SiblingPadOp { .. })));
        assert!(ops.iter().any(|op| matches!(op, PadServeOp::Commit)));
    }
}
