//! `rounds_read` and `pad_churn`: slimgen traces driven through
//! `Driver::apply` against a logged `PadSession` over the generated
//! corpus, one client, closed loop.
//!
//! Every round reopens the pad from the same durable snapshot, so every
//! round replays the same trace from the same state and must fold the
//! same outcome digest.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use slimgen::corpus::{self, Corpus};
use slimgen::trace::{self, Driver, Mix, TraceOp};
use superimposed::slimio::MemVfs;
use superimposed::slimpad::PadSession;

use crate::probe::{CountingVfs, IoTotals};
use crate::report::{median, Layers};
use crate::workload::{self, Phases, Plan, Run};

const PAD: &str = "slimbench/pad.xml";

/// Seed of the op-class schedule every run follows, whatever its seed.
const SCHEDULE_SEED: u64 = 0xC0FFEE;

/// Trace op classes, in `TraceOp` declaration order.
const CLASSES: [&str; 10] = [
    "begin", "bundle", "place", "annotate", "link", "delete", "undo", "extract", "query", "commit",
];

fn class_of(op: &TraceOp) -> usize {
    match op {
        TraceOp::BeginOp => 0,
        TraceOp::CreateBundle { .. } => 1,
        TraceOp::PlaceMark { .. } => 2,
        TraceOp::Annotate { .. } => 3,
        TraceOp::Link { .. } => 4,
        TraceOp::DeleteScrap { .. } => 5,
        TraceOp::Undo => 6,
        TraceOp::Extract { .. } => 7,
        TraceOp::Query { .. } => 8,
        TraceOp::Commit => 9,
    }
}

/// The layer entry point `Driver::apply` calls for an op: the span name
/// the traced round files the op under.
fn layer_of(op: &TraceOp) -> &'static str {
    match op {
        TraceOp::BeginOp => "slimpad.begin_op",
        TraceOp::Commit => "slimpad.commit",
        TraceOp::Extract { .. } => "slimpad.extract",
        TraceOp::Query { .. } => "slimstore.find_scraps",
        TraceOp::Undo => "trim.undo",
        _ => "slimstore.write",
    }
}

/// A round's trace of `n` ops of `mix`. The op classes, in order, are
/// those of `trace::generate(SCHEDULE_SEED, n, mix)`; each op, operands
/// included, is the next op of its class in `trace::generate(seed, ..)`.
///
/// A commit costs a hundred times a query and thousands of times an
/// extract, and a commit after an undo that crossed the previous commit
/// compacts at five times that. A whole 600-op `ReadHeavy` trace holds
/// 11 to 25 commits depending on its seed, and its throughput ranged
/// over 2.7x across eight seeds. With the class schedule fixed, every
/// seed runs the same commits and compactions, and the seed picks the
/// corpus and every operand.
pub fn round_ops(seed: u64, n: usize, mix: Mix) -> Result<Vec<TraceOp>, String> {
    let mut pools = vec![Vec::new(); CLASSES.len()];
    for op in trace::generate(seed, 64 * n, mix).into_iter().rev() {
        pools[class_of(&op)].push(op);
    }
    trace::generate(SCHEDULE_SEED, n, mix)
        .iter()
        .map(|slot| {
            let c = class_of(slot);
            pools[c]
                .pop()
                .ok_or_else(|| format!("seed {seed:#x} drew too few {} ops", CLASSES[c]))
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Read-heavy ward rounds; the round's opening reopen is the restart.
    RoundsRead,
    /// Write-heavy churn, then a restart that replays the round's log.
    PadChurn,
}

impl Kind {
    fn mix(self) -> Mix {
        match self {
            Kind::RoundsRead => Mix::ReadHeavy,
            Kind::PadChurn => Mix::WriteHeavy,
        }
    }
}

struct Setup {
    corpus: Corpus,
    /// The disk right after logging was enabled: every round starts here.
    pristine: MemVfs,
}

fn set_up_once(plan: &Plan, phases: &mut Phases) -> Result<Setup, String> {
    let mut corpus = phases.time("slimgen.corpus", || {
        corpus::generate(plan.size.profile, plan.seed)
    });
    let pristine = MemVfs::new();
    phases
        .time("slimpad.enable_logging", || {
            corpus.system.pad.enable_logging(&pristine, Path::new(PAD))
        })
        .map_err(|e| format!("enable_logging: {e}"))?;
    Ok(Setup { corpus, pristine })
}

/// One round's results.
struct Round {
    digest: slimgen::Digest,
    restart: Duration,
    /// `(class, seconds)` per op.
    samples: Vec<(usize, f64)>,
    op_time: Duration,
    io: IoTotals,
    spans: Vec<crate::probe::Span>,
    /// `(degraded, extracts)`, probed in the traced round only.
    degraded: (u64, u64),
    frames_replayed: usize,
    ops_replayed: usize,
}

/// Reopen the logged pad; also returns the log report's
/// `(frames_replayed, ops_replayed)`.
fn open(setup: &Setup, disk: &CountingVfs) -> Result<(PadSession, (usize, usize)), String> {
    let manager = setup
        .corpus
        .system
        .fresh_manager()
        .map_err(|e| format!("fresh_manager: {e}"))?;
    let (pad, report) = PadSession::open_logged(disk, Path::new(PAD), manager)
        .map_err(|e| format!("open_logged: {e}"))?;
    Ok((pad, (report.frames_replayed, report.ops_replayed)))
}

fn round(
    setup: &mut Setup,
    plan: &Plan,
    kind: Kind,
    ops: &[TraceOp],
    traced: bool,
) -> Result<Round, String> {
    let tracer = &plan.tracer;
    let disk = CountingVfs::new(setup.pristine.clone(), Arc::clone(tracer));
    let start = Instant::now();
    let (pad, _) = open(setup, &disk)?;
    let reopen = start.elapsed();
    setup.corpus.system.pad = pad;
    let mut driver = Driver::new(&setup.corpus.system);

    let before = disk.totals();
    let mut samples = Vec::with_capacity(ops.len());
    let mut op_time = Duration::ZERO;
    let mut degraded = (0, 0);
    if traced {
        tracer.start();
    }
    let from = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        // Which scrap an Extract reads: selectors reduce modulo the live
        // population (slimgen's documented convention).
        let probe = match op {
            TraceOp::Extract { scrap } if traced && !driver.scraps.is_empty() => {
                Some(driver.scraps[(*scrap % driver.scraps.len() as u64) as usize])
            }
            _ => None,
        };
        let system = &mut setup.corpus.system;
        let t = Instant::now();
        tracer.span(layer_of(op), i as u64, || {
            driver.apply(system, &setup.corpus.mark_ids, &disk, op)
        });
        let took = t.elapsed();
        op_time += took;
        samples.push((class_of(op), took.as_secs_f64()));
        if let Some(scrap) = probe {
            let (_, was_degraded) = system
                .pad
                .extract_degraded(scrap)
                .map_err(|e| format!("extract probe: {e}"))?;
            degraded.0 += u64::from(was_degraded);
            degraded.1 += 1;
        }
    }
    let spans = if traced {
        tracer.stop(from)
    } else {
        Vec::new()
    };
    // Checked once per round: a check between ops walks every bundle and
    // scrap, evicting the caches the next op would have found warm.
    if !driver.counts_match(&setup.corpus.system) {
        return Err("count oracle diverged from the store".to_string());
    }
    let io = disk.totals().minus(&before);

    let (restart, frames_replayed, ops_replayed) = match kind {
        Kind::RoundsRead => (reopen, 0, 0),
        Kind::PadChurn => {
            let pad = &mut setup.corpus.system.pad;
            pad.commit(&disk)
                .map_err(|e| format!("closing commit: {e}"))?;
            let start = Instant::now();
            let (recovered, (frames, replayed)) = open(setup, &disk)?;
            let restart = start.elapsed();
            let (bundles, scraps) = (
                recovered.dmi().bundles().len(),
                recovered.dmi().all_scraps().len(),
            );
            if (bundles, scraps) != (driver.bundles.len(), driver.scraps.len()) {
                return Err(format!(
                    "restart recovered {bundles} bundles / {scraps} scraps, the trace left {} / {}",
                    driver.bundles.len(),
                    driver.scraps.len()
                ));
            }
            (restart, frames, replayed)
        }
    };
    Ok(Round {
        digest: driver.digest,
        restart,
        samples,
        op_time,
        io,
        spans,
        degraded,
        frames_replayed,
        ops_replayed,
    })
}

pub fn run(plan: &Plan, kind: Kind) -> Result<Run, String> {
    let mut phases = Phases::default();
    let (mut setup, setups) = workload::set_up(&mut phases, |p| set_up_once(plan, p))?;
    let ops = round_ops(plan.seed, plan.size.round_ops, kind.mix())?;

    let mut problems = Vec::new();
    let mut digests = Vec::new();
    let mut samples = Vec::new();
    let mut restarts = Vec::new();
    let mut round_times = Vec::new();
    let mut io = IoTotals::default();
    let since = Instant::now();
    while plan.budget.more(round_times.len(), 2, since) {
        let r = round(&mut setup, plan, kind, &ops, false)?;
        digests.push(r.digest);
        samples.extend(r.samples);
        restarts.push(r.restart.as_secs_f64());
        round_times.push(r.op_time.as_secs_f64());
        io = io.plus(&r.io);
    }
    let rss = workload::peak_rss_mb()?;

    let mut layers = Layers::default();
    let mut spans = Vec::new();
    if plan.traced {
        let r = round(&mut setup, plan, kind, &ops, true)?;
        digests.push(r.digest);
        io = io.plus(&r.io);
        layers.add_spans(&r.spans);
        layers.add_io(&r.io, ops.len() as u64);
        layers.add_setup(
            &phases.totals(),
            Duration::from_secs_f64(setups.iter().sum()),
        );
        layers.set(
            "slimpad.extract.degraded_pct",
            100.0 * r.degraded.0 as f64 / r.degraded.1.max(1) as f64,
        );
        layers.set(
            "slimpad.open_logged.frames_replayed",
            r.frames_replayed as f64,
        );
        layers.set("slimpad.open_logged.ops_replayed", r.ops_replayed as f64);
        layers.set(
            "trace.overhead_pct",
            workload::overhead_pct(r.op_time.as_secs_f64(), &round_times),
        );
        spans = r.spans;
    }
    if digests.windows(2).any(|w| w[0] != w[1]) {
        problems.push(format!(
            "outcome digests differ across rounds of one trace: {digests:?}"
        ));
    }

    let tail = 0.99;
    let latencies: Vec<f64> = samples.iter().map(|s| s.1).collect();
    let throughputs: Vec<f64> = round_times.iter().map(|t| ops.len() as f64 / t).collect();
    let mut notes = vec![
        format!(
            "{} rounds of {} {} ops; digest {}",
            round_times.len(),
            ops.len(),
            kind.mix().name(),
            digests.first().map_or("-".to_string(), |d| d.to_string())
        ),
        workload::latency_note(&latencies, tail),
        format!("ops/s per round: {throughputs:.1?}"),
        workload::timing_note(&setups, &restarts),
    ];
    notes.extend(class_table(&samples));
    Ok(Run {
        attempted: (samples.len() + if plan.traced { ops.len() } else { 0 }) as u64,
        failed: 0,
        problems,
        e2e: workload::end_to_end(
            &setups,
            median(&throughputs),
            &latencies,
            tail,
            &restarts,
            rss,
        ),
        layers,
        io,
        spans,
        notes,
    })
}

/// Per-class counts and latencies, for the log.
fn class_table(samples: &[(usize, f64)]) -> Vec<String> {
    let mut lines = vec!["class        n    p50_ms   mean_ms".to_string()];
    for (c, name) in CLASSES.iter().enumerate() {
        let v: Vec<f64> = samples
            .iter()
            .filter(|s| s.0 == c)
            .map(|s| s.1 * 1e3)
            .collect();
        if v.is_empty() {
            continue;
        }
        lines.push(format!(
            "{name:<8} {:>5}  {:>8.3}  {:>8.3}",
            v.len(),
            median(&v),
            v.iter().sum::<f64>() / v.len() as f64
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_follows_one_class_schedule_with_its_own_operands() {
        let classes = |ops: &[TraceOp]| ops.iter().map(class_of).collect::<Vec<_>>();
        for mix in [Mix::ReadHeavy, Mix::WriteHeavy] {
            let a = round_ops(1, 600, mix).unwrap();
            let b = round_ops(2, 600, mix).unwrap();
            assert_eq!(a, round_ops(1, 600, mix).unwrap(), "a seed gives one trace");
            assert_eq!(classes(&a), classes(&b));
            assert_eq!(
                classes(&a),
                classes(&trace::generate(SCHEDULE_SEED, 600, mix))
            );
            assert_ne!(a, b, "operands follow the seed");
        }
    }
}
