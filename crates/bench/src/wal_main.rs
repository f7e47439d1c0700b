//! `BENCH_wal.json` reporter: measure the logged commit path against the
//! full-XML rewrite at the 50k-triple point, plus restart (recovery)
//! time before and after compaction.
//!
//! * `cargo run -p slim-bench --bin bench-wal --release` — full run,
//!   writes `BENCH_wal.json` in the current directory.
//! * `-- --quick` — shorter measurement budget for CI smoke runs.
//! * `-- --check BENCH_wal.json` — additionally gate the run against the
//!   committed baseline: see `checks` below and DESIGN.md §10 "Bench
//!   gates".
//! * `-- --out PATH` — write the report somewhere else.
//!
//! Everything runs on `MemVfs`, so both sides skip the physical disk:
//! the comparison isolates the algorithmic cost (O(changes) frame encode
//! + append vs O(store) serialize + seal + rewrite), not fsync latency.

use slim_bench::gate::{self, json_rows, Args, Check};
use slim_bench::{best_ns, random_store, BENCH_TRIPLES};
use std::path::Path;
use superimposed::slimio::MemVfs;
use superimposed::trim::{CommitOutcome, TripleStore};

const SNAP: &str = "bench/wal-store.xml";
/// The 1-op commit must beat the full rewrite by at least this much.
const SPEEDUP_FLOOR: f64 = 50.0;
/// `--check` fails if the gated speedup drops below baseline/this factor.
const REGRESSION_FACTOR: f64 = 3.0;
/// Commit batch sizes reported (and the gate applies to batch 1).
const BATCHES: [usize; 3] = [1, 16, 256];
/// Committed frames sitting in the log for the restart measurement.
const RESTART_COMMITS: usize = 256;
/// Ops per frame in the restart workload.
const RESTART_BATCH: usize = 8;

struct CommitResult {
    batch: usize,
    commit_ns: f64,
    log_bytes_per_commit: f64,
}

struct Report {
    full_save_ns: f64,
    commits: Vec<CommitResult>,
    restart_replay_ns: f64,
    restart_compacted_ns: f64,
    restart_ops: usize,
}

impl Report {
    /// The tentpole ratio: full snapshot rewrite over a 1-op commit.
    fn speedup(&self, batch: usize) -> f64 {
        let r = self.commits.iter().find(|r| r.batch == batch).expect("batch measured");
        self.full_save_ns / r.commit_ns.max(1.0)
    }
}

fn measure(quick: bool) -> Report {
    let snap = Path::new(SNAP);
    let (seed_store, _, _) = random_store(BENCH_TRIPLES, 42);

    // The old authoritative path: rewrite the whole sealed XML artifact.
    let vfs = MemVfs::new();
    seed_store.save_to(&vfs, snap).expect("seed save");
    let save_rounds = if quick { 2 } else { 5 };
    let full_save_ns = best_ns(save_rounds, || {
        seed_store.save_to(&vfs, snap).expect("full save");
    });

    // The logged path, on top of the same 50k-triple snapshot.
    let (mut store, mut log, report) =
        TripleStore::open_logged(&vfs, snap).expect("open logged");
    assert!(report.is_clean(), "bench setup must start from a clean pair");
    let commit_rounds = if quick { 32 } else { 256 };
    let mut round = 0usize;
    let commits = BATCHES
        .iter()
        .map(|&batch| {
            let bytes_before = log.log_bytes();
            // One round inserts `batch` fresh triples and commits them.
            // The insert cost rides inside the timed region; it is orders
            // of magnitude below the serialize/rewrite work on the other
            // side of the comparison and identical across batch sizes.
            let commit_ns = best_ns(commit_rounds, || {
                round += 1;
                for i in 0..batch {
                    store.insert_literal(&format!("bench:{round}:{i}"), "prop", "value");
                }
                let outcome = log.commit(&vfs, &mut store).expect("bench commit");
                assert!(matches!(outcome, CommitOutcome::Committed { .. }));
            });
            let log_bytes_per_commit =
                (log.log_bytes() - bytes_before) as f64 / commit_rounds as f64;
            CommitResult { batch, commit_ns, log_bytes_per_commit }
        })
        .collect();

    // Restart time with a populated log vs after compaction.
    let restart_commits = if quick { RESTART_COMMITS / 4 } else { RESTART_COMMITS };
    let disk = MemVfs::new();
    seed_store.save_to(&disk, snap).expect("restart seed save");
    let (mut rstore, mut rlog, _) = TripleStore::open_logged(&disk, snap).expect("open");
    for c in 0..restart_commits {
        for i in 0..RESTART_BATCH {
            rstore.insert_literal(&format!("restart:{c}:{i}"), "prop", "value");
        }
        let outcome = rlog.commit(&disk, &mut rstore).expect("commit");
        assert!(matches!(outcome, CommitOutcome::Committed { .. }));
    }
    let open_rounds = if quick { 2 } else { 3 };
    let restart_replay_ns = best_ns(open_rounds, || {
        TripleStore::open_logged(&disk, snap).expect("recovery open");
    });
    rlog.compact(&disk, &mut rstore).expect("compact");
    let restart_compacted_ns = best_ns(open_rounds, || {
        TripleStore::open_logged(&disk, snap).expect("post-compaction open");
    });

    Report {
        full_save_ns,
        commits,
        restart_replay_ns,
        restart_compacted_ns,
        restart_ops: restart_commits * RESTART_BATCH,
    }
}

fn render_json(r: &Report, quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"n_triples\": {BENCH_TRIPLES},\n"));
    out.push_str(&format!("  \"mode\": \"{}\",\n", if quick { "quick" } else { "full" }));
    out.push_str(&format!("  \"full_save_ns\": {:.1},\n", r.full_save_ns));
    let commits = r.commits.iter().map(|c| {
        format!(
            "{{\"batch\": {}, \"commit_ns\": {:.1}, \"ns_per_op\": {:.1}, \
             \"log_bytes_per_commit\": {:.1}, \"speedup_vs_full_save\": {:.1}}}",
            c.batch,
            c.commit_ns,
            c.commit_ns / c.batch as f64,
            c.log_bytes_per_commit,
            r.speedup(c.batch),
        )
    });
    out.push_str(&json_rows("commits", commits));
    out.push_str(",\n");
    out.push_str(&format!(
        "  \"restart\": {{\"ops_in_log\": {}, \"replay_ns\": {:.1}, \"compacted_ns\": {:.1}}}\n",
        r.restart_ops, r.restart_replay_ns, r.restart_compacted_ns
    ));
    out.push_str("}\n");
    out
}

/// The WAL gate: the 1-op commit's `speedup` over the full snapshot
/// rewrite clears the floor and holds its committed ratio.
fn checks(speedup: f64) -> Vec<Check> {
    vec![Check::new("1-op commit speedup over the full snapshot rewrite", speedup)
        .floor(SPEEDUP_FLOOR)
        .against("\"batch\": 1", "speedup_vs_full_save", REGRESSION_FACTOR)]
}

fn main() {
    let args = Args::parse("bench-wal", "BENCH_wal.json");
    let report = measure(args.quick);
    gate::finish(&args, &render_json(&report, args.quick), &checks(report.speedup(1)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_baseline_carries_every_gated_key() {
        let failed =
            gate::failures(&checks(f64::INFINITY), include_str!("../../../BENCH_wal.json"));
        assert!(failed.is_empty(), "{failed:?}");
    }
}
