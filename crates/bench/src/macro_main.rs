//! `BENCH_macro.json` reporter: end-to-end throughput of the whole stack
//! under slimgen's hospital-scale workload — ops/sec and p99 op latency
//! per traffic mix, plus restart (recovery) time at corpus scale.
//!
//! Unlike the micro reporters (`BENCH_trim`, `BENCH_wal`) this drives
//! the *macro* path: every operation goes through `PadSession` over the
//! WAL-logged store with the full quick-profile corpus (≥ 1,000
//! documents, ≥ 100,000 marks) underneath, so mark resolution, scrap
//! queries, undo and group-commit all pay their real costs.
//!
//! * `cargo run -p slim-bench --bin bench-macro --release` — full run,
//!   writes `BENCH_macro.json` in the current directory.
//! * `-- --quick` — fewer trace ops and restart rounds for CI smoke
//!   runs; the corpus stays at quick-profile scale so per-op numbers
//!   remain comparable with the committed baseline.
//! * `-- --check BENCH_macro.json` — additionally gate the run against the
//!   committed baseline: see `checks` below and DESIGN.md §10 "Bench
//!   gates".
//! * `-- --out PATH` — write the report somewhere else.

use slim_bench::gate::{self, json_rows, Args, Check};
use slim_bench::{best_ns, percentile};
use slimgen::corpus::{self, Corpus};
use slimgen::trace::{self, Driver, Mix};
use slimgen::Profile;
use std::path::Path;
use std::time::Instant;
use superimposed::slimio::MemVfs;
use superimposed::slimpad::PadSession;

const PAD: &str = "bench-macro.pad";
const SEED: u64 = 0xC0FFEE;
/// `--check` fails if a mix's ops/sec drops below baseline/this factor.
const REGRESSION_FACTOR: f64 = 2.0;
const MIXES: [Mix; 3] = [Mix::ReadHeavy, Mix::WriteHeavy, Mix::Mixed];

struct MixResult {
    mix: Mix,
    ops: usize,
    ops_per_sec: f64,
    p99_ns: f64,
}

struct Report {
    corpus_stats: corpus::CorpusStats,
    mixes: Vec<MixResult>,
    restart_replay_ns: f64,
    restart_compacted_ns: f64,
}

/// A fresh logged quick-profile corpus — identical for every mix, so
/// the mixes measure traffic shape, not accumulated state.
fn logged_corpus() -> (Corpus, MemVfs) {
    let mut corpus = corpus::generate(Profile::Quick, SEED);
    let vfs = MemVfs::new();
    corpus
        .system
        .pad
        .enable_logging(&vfs, Path::new(PAD))
        .expect("snapshot the corpus to the bench vfs");
    (corpus, vfs)
}

fn measure(quick: bool) -> Report {
    let ops_per_mix = if quick { 500 } else { Profile::Quick.trace_ops() };
    let mut corpus_stats = None;
    let mut mixes = Vec::new();
    let mut restart_replay_ns = 0.0;
    let mut restart_compacted_ns = 0.0;

    for mix in MIXES {
        let (mut corpus, mut vfs) = logged_corpus();
        corpus_stats.get_or_insert(corpus.stats);
        let ops = trace::generate(SEED, ops_per_mix, mix);
        let mut driver = Driver::new(&corpus.system);

        let mut latencies_ns = Vec::with_capacity(ops.len());
        let run = Instant::now();
        for op in &ops {
            let t = Instant::now();
            driver.apply(&mut corpus.system, &corpus.mark_ids, &vfs, op);
            latencies_ns.push(t.elapsed().as_nanos() as f64);
        }
        let total_s = run.elapsed().as_secs_f64();
        latencies_ns.sort_by(|a, b| a.total_cmp(b));
        mixes.push(MixResult {
            mix,
            ops: ops.len(),
            ops_per_sec: ops.len() as f64 / total_s.max(f64::EPSILON),
            p99_ns: percentile(&latencies_ns, 0.99),
        });

        // Restart at scale, measured once off the write-heavy log: the
        // most frames to replay over the largest mark store.
        if mix == Mix::WriteHeavy {
            corpus.system.pad.commit(&vfs).expect("seal the write-heavy run");
            let rounds = if quick { 1 } else { 2 };
            restart_replay_ns = best_restart_ns(&corpus, &mut vfs, rounds);
            corpus.system.pad.compact(&vfs).expect("compact");
            restart_compacted_ns = best_restart_ns(&corpus, &mut vfs, rounds);
        }
    }

    Report {
        corpus_stats: corpus_stats.expect("at least one mix ran"),
        mixes,
        restart_replay_ns,
        restart_compacted_ns,
    }
}

/// Best-of-`rounds` time to recover a session from the logged pad —
/// snapshot load, frame replay, and mark-module rewiring included; building
/// the mark modules is not.
fn best_restart_ns(corpus: &Corpus, vfs: &mut MemVfs, rounds: usize) -> f64 {
    let mut managers: Vec<_> =
        (0..rounds).map(|_| corpus.system.fresh_manager().expect("rebuild mark modules")).collect();
    best_ns(rounds, || {
        let manager = managers.pop().expect("one manager per round");
        PadSession::open_logged(vfs, Path::new(PAD), manager).expect("recovery open");
    })
}

fn render_json(r: &Report, quick: bool) -> String {
    let s = &r.corpus_stats;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", if quick { "quick" } else { "full" }));
    out.push_str(&format!("  \"seed\": \"{SEED:#x}\",\n"));
    out.push_str(&format!(
        "  \"corpus\": {{\"docs\": {}, \"marks\": {}, \"bundles\": {}, \"scraps\": {}}},\n",
        s.docs, s.marks, s.bundles, s.scraps
    ));
    let mixes = r.mixes.iter().map(|m| {
        format!(
            "{{\"mix\": \"{}\", \"ops\": {}, \"ops_per_sec\": {:.1}, \"p99_ns\": {:.1}}}",
            m.mix.name(),
            m.ops,
            m.ops_per_sec,
            m.p99_ns,
        )
    });
    out.push_str(&json_rows("mixes", mixes));
    out.push_str(",\n");
    out.push_str(&format!(
        "  \"restart\": {{\"replay_ns\": {:.1}, \"compacted_ns\": {:.1}}}\n",
        r.restart_replay_ns, r.restart_compacted_ns
    ));
    out.push_str("}\n");
    out
}

/// The macro gate: each mix's throughput stays within 2× of its
/// committed rate (the factor absorbs machine variance; a real
/// regression shows up well past it).
fn checks(mixes: &[MixResult]) -> Vec<Check> {
    mixes
        .iter()
        .map(|m| {
            Check::new(format!("mix `{}` ops/sec", m.mix.name()), m.ops_per_sec).against(
                format!("\"mix\": \"{}\"", m.mix.name()),
                "ops_per_sec",
                REGRESSION_FACTOR,
            )
        })
        .collect()
}

fn main() {
    let args = Args::parse("bench-macro", "BENCH_macro.json");
    let report = measure(args.quick);
    gate::finish(&args, &render_json(&report, args.quick), &checks(&report.mixes));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_baseline_carries_every_gated_key() {
        let mixes =
            MIXES.map(|mix| MixResult { mix, ops: 0, ops_per_sec: f64::INFINITY, p99_ns: 0.0 });
        let failed = gate::failures(&checks(&mixes), include_str!("../../../BENCH_macro.json"));
        assert!(failed.is_empty(), "{failed:?}");
    }
}
