//! `pad_service` and `triple_service`: the two supervised services,
//! driven through their session handles by two client threads.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slimgen::corpus;
use slimserve::{
    PadAck, PadConfig, PadOp, PadOutcome, PadParts, PadPartsFactory, PadService, PadSessionHandle,
    ServeConfig, ServeError, ServeOp, ServeStats, Service,
};
use superimposed::marks::resilience::{BreakerConfig, SystemClock};
use superimposed::marks::ResilientResolver;
use superimposed::slimio::{MemVfs, Vfs};

use crate::probe::{CountingVfs, IoTotals, Span, Tracer};
use crate::report::{median, Layers};
use crate::workload::{self, Phases, Plan, Run};

const PAD: &str = "slimbench/service-pad.xml";
const STORE: &str = "slimbench/service-store.xml";

/// Deadlines far beyond any op, so a slow machine sheds nothing.
const DEADLINE_MS: u64 = 600_000;

fn roomy_breaker() -> BreakerConfig {
    BreakerConfig {
        failure_threshold: 1_000,
        cooldown_ms: 1_000,
        probe_budget: 3,
        probe_successes: 1,
    }
}

fn disk(tracer: &Arc<Tracer>) -> Arc<CountingVfs> {
    Arc::new(CountingVfs::new(MemVfs::new(), Arc::clone(tracer)))
}

// ---------------------------------------------------------------------
// pad_service
// ---------------------------------------------------------------------

const SESSIONS: u64 = 2;

/// Per ten ops: 3 Resolve, 2 Extract, 1 each of CreateMark, Annotate,
/// Link, CreateBundle, Inspect — named by the span each op is filed under.
const ROTATION: [&str; 10] = [
    "slimserve.pad.resolve",
    "slimserve.pad.extract",
    "slimserve.pad.annotate",
    "slimserve.pad.resolve",
    "slimserve.pad.create_mark",
    "slimserve.pad.link",
    "slimserve.pad.resolve",
    "slimserve.pad.extract",
    "slimserve.pad.create_bundle",
    "slimserve.pad.inspect",
];

/// The `i`-th op of a session's round. Selectors stay below 2³² so
/// `from + 1` never wraps; the machine reduces them modulo the live
/// population, so a link's ends always differ.
fn pad_op(class: &str, rng: &mut StdRng, docs: usize, tag: u64) -> PadOp {
    let sel = rng.gen_range(0..u64::from(u32::MAX));
    let pos = ((sel % 380) as i64, (sel % 280) as i64);
    match class {
        "slimserve.pad.resolve" => PadOp::Resolve { scrap: sel },
        "slimserve.pad.extract" => PadOp::Extract { scrap: sel },
        "slimserve.pad.annotate" => PadOp::Annotate {
            scrap: sel,
            text: "checked on rounds".into(),
        },
        "slimserve.pad.link" => PadOp::Link {
            from: sel,
            to: sel + 1,
        },
        "slimserve.pad.create_bundle" => PadOp::CreateBundle {
            name: format!("slimbench bundle {tag}"),
            pos,
            width: 320,
            height: 240,
            parent: Some(sel),
        },
        // A short span at the start of a progress-note paragraph: every
        // generated note has 16 paragraphs of 50+ characters.
        "slimserve.pad.create_mark" => PadOp::CreateMark {
            doc: format!("note-{:04}.doc", sel % docs as u64),
            paragraph: sel % 16,
            start: sel % 8,
            len: 4 + sel % 8,
            label: format!("slimbench mark {tag}"),
            pos,
            bundle: Some(sel),
        },
        _ => PadOp::Inspect,
    }
}

/// The writer's mark layer: the corpus regenerated on the writer thread
/// (its base documents back the mark modules), marks loaded from disk.
fn factory(plan: &Plan) -> PadPartsFactory {
    let (profile, seed) = (plan.size.profile, plan.seed);
    Box::new(move || {
        let corpus = corpus::generate(profile, seed);
        Ok(PadParts {
            manager: corpus.system.fresh_manager()?,
            resolver: ResilientResolver::default(),
            search: Box::new(|_| Vec::new()),
        })
    })
}

fn open_pad_service(
    plan: &Plan,
    phases: &mut Phases,
) -> Result<(PadService, Arc<CountingVfs>), String> {
    let disk = disk(&plan.tracer);
    let mut corpus = phases.time("slimgen.corpus", || {
        corpus::generate(plan.size.profile, plan.seed)
    });
    phases
        .time("slimpad.enable_logging", || {
            corpus.system.pad.enable_logging(&*disk, Path::new(PAD))
        })
        .map_err(|e| format!("pre-write the pad: {e}"))?;
    drop(corpus);
    let config = PadConfig {
        queue_capacity: 1_024,
        op_deadline_ms: DEADLINE_MS,
        breaker: roomy_breaker(),
        ..PadConfig::default()
    };
    let vfs: Arc<dyn Vfs + Send + Sync> = disk.clone();
    let service = phases
        .time("slimserve.pad.open", || {
            PadService::open(
                vfs,
                Path::new(PAD),
                config,
                Arc::new(SystemClock::new()),
                factory(plan),
            )
        })
        .map_err(|e| format!("PadService::open: {e}"))?;
    Ok((service, disk))
}

/// One completed pad op.
struct PadDone {
    class: &'static str,
    secs: f64,
    verdict: Result<PadAck, ServeError>,
}

/// A session's closed loop: submit an op, wait for its ack, submit the
/// next.
fn pad_session(
    session: PadSessionHandle,
    ops: Vec<(&'static str, u64, PadOp)>,
    tracer: &Tracer,
) -> Vec<PadDone> {
    ops.into_iter()
        .map(|(class, id, op)| {
            let start = Instant::now();
            let verdict = tracer.span(class, id, || session.submit(op));
            PadDone {
                class,
                secs: start.elapsed().as_secs_f64(),
                verdict,
            }
        })
        .collect()
}

struct PadRound {
    done: Vec<PadDone>,
    wall: Duration,
    io: IoTotals,
    spans: Vec<Span>,
}

fn pad_round(
    service: &PadService,
    disk: &CountingVfs,
    plan: &Plan,
    round: u64,
    traced: bool,
) -> PadRound {
    let docs = plan.size.profile.docs_per_kind();
    let before = disk.totals();
    if traced {
        plan.tracer.start();
    }
    let from = Instant::now();
    let done = std::thread::scope(|s| {
        let clients: Vec<_> = (0..SESSIONS)
            .map(|k| {
                let mut rng = StdRng::seed_from_u64(plan.seed ^ (round << 8) ^ k ^ 0x9ad5);
                let ops: Vec<_> = (0..plan.size.session_ops as u64)
                    .map(|i| {
                        let class = ROTATION[i as usize % ROTATION.len()];
                        let id = (round << 32) | (k << 24) | i;
                        (class, id, pad_op(class, &mut rng, docs, id))
                    })
                    .collect();
                let session = service.session();
                let tracer = &plan.tracer;
                s.spawn(move || pad_session(session, ops, tracer))
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("pad client thread"))
            .collect::<Vec<_>>()
    });
    let wall = from.elapsed();
    let spans = if traced {
        plan.tracer.stop(from)
    } else {
        Vec::new()
    };
    PadRound {
        done,
        wall,
        io: disk.totals().minus(&before),
        spans,
    }
}

pub fn run_pad_service(plan: &Plan) -> Result<Run, String> {
    let mut phases = Phases::default();
    let ((service, disk), setups) = workload::set_up(&mut phases, |p| open_pad_service(plan, p))?;

    let mut rounds = Vec::new();
    let since = Instant::now();
    while plan.budget.more(rounds.len(), 1, since) {
        rounds.push(pad_round(&service, &disk, plan, rounds.len() as u64, false));
    }
    let rss = workload::peak_rss_mb()?;
    let mut layers = Layers::default();
    let mut traced = None;
    if plan.traced {
        let stats_before = service.stats();
        let r = pad_round(&service, &disk, plan, rounds.len() as u64, true);
        let stats = service.stats();
        layers.add_spans(&r.spans);
        layers.add_io(&r.io, r.done.len() as u64);
        layers.add_setup(
            &phases.totals(),
            Duration::from_secs_f64(setups.iter().sum()),
        );
        let durable: Vec<u64> = r
            .done
            .iter()
            .filter_map(|d| d.verdict.as_ref().ok()?.durable_seq)
            .collect();
        let frames = durable.iter().collect::<BTreeSet<_>>().len();
        layers.set(
            "slimserve.pad.commits",
            (stats.commits - stats_before.commits) as f64,
        );
        layers.set(
            "slimserve.pad.ops_per_commit",
            durable.len() as f64 / frames.max(1) as f64,
        );
        layers.set(
            "slimserve.pad.compactions",
            (stats.compactions - stats_before.compactions) as f64,
        );
        layers.set(
            "slimserve.pad.engine_refusals",
            (stats.engine_refusals - stats_before.engine_refusals) as f64,
        );
        layers.set(
            "slimserve.pad.degraded_resolutions",
            (stats.degraded_resolutions - stats_before.degraded_resolutions) as f64,
        );
        let extracts: Vec<bool> = r
            .done
            .iter()
            .filter_map(|d| match &d.verdict.as_ref().ok()?.outcome {
                PadOutcome::Extracted { degraded, .. } => Some(*degraded),
                _ => None,
            })
            .collect();
        let degraded = extracts.iter().filter(|d| **d).count();
        layers.set(
            "slimpad.extract.degraded_pct",
            100.0 * degraded as f64 / extracts.len().max(1) as f64,
        );
        let untraced: Vec<f64> = rounds
            .iter()
            .map(|r| r.done.iter().map(|d| d.secs).sum::<f64>())
            .collect();
        let traced_time = r.done.iter().map(|d| d.secs).sum::<f64>();
        layers.set(
            "trace.overhead_pct",
            workload::overhead_pct(traced_time, &untraced),
        );
        traced = Some(r);
    }
    let stats = service.shutdown();

    let all = rounds.iter().chain(traced.iter());
    let attempted: u64 = all.clone().map(|r| r.done.len() as u64).sum();
    let refusals: Vec<String> = all
        .clone()
        .flat_map(|r| &r.done)
        .filter_map(|d| {
            d.verdict
                .as_ref()
                .err()
                .map(|e| format!("{}: {e}", d.class))
        })
        .collect();
    let acked = attempted - refusals.len() as u64;
    let mut problems = Vec::new();
    if stats.unaccounted() != 0 {
        problems.push(format!("pad ledger does not balance: {stats:?}"));
    }
    if stats.acked != acked {
        problems.push(format!(
            "service acked {} ops, the sessions saw {acked} acks",
            stats.acked
        ));
    }
    if let Some(first) = refusals.first() {
        problems.push(format!(
            "{} pad ops refused, first: {first}",
            refusals.len()
        ));
    }

    let tail = 0.75;
    let latencies: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.done.iter().map(|d| d.secs))
        .collect();
    let throughputs: Vec<f64> = rounds
        .iter()
        .map(|r| {
            let acks = r.done.iter().filter(|d| d.verdict.is_ok()).count();
            acks as f64 / r.wall.as_secs_f64()
        })
        .collect();
    let mut notes = vec![
        format!(
            "{} rounds, {} sessions x {} ops, one outstanding each",
            rounds.len(),
            SESSIONS,
            plan.size.session_ops
        ),
        workload::latency_note(&latencies, tail),
        format!("ops/s per round: {throughputs:.2?}"),
        workload::timing_note(&setups, &phases.seconds("slimserve.pad.open")),
        format!("ledger: {stats:?}"),
    ];
    for class in ROTATION.iter().collect::<BTreeSet<_>>() {
        let v: Vec<f64> = rounds
            .iter()
            .flat_map(|r| &r.done)
            .filter(|d| d.class == *class)
            .map(|d| d.secs * 1e3)
            .collect();
        notes.push(format!(
            "{class:<28} n {:>4}  p50 {:>9.1} ms",
            v.len(),
            median(&v)
        ));
    }
    Ok(Run {
        attempted,
        failed: refusals.len() as u64,
        problems,
        e2e: workload::end_to_end(
            &setups,
            median(&throughputs),
            &latencies,
            tail,
            &phases.seconds("slimserve.pad.open"),
            rss,
        ),
        layers,
        io: all.fold(IoTotals::default(), |io, r| io.plus(&r.io)),
        spans: traced.map(|r| r.spans).unwrap_or_default(),
        notes,
    })
}

// ---------------------------------------------------------------------
// triple_service
// ---------------------------------------------------------------------

/// Inserts the removes trail by, so the store holds a window of fresh
/// triples while the round runs and returns to its seeded size after.
const LAG: usize = 500;
/// Subjects the reader scans, round-robin.
const READ_SUBJECTS: usize = 64;

struct TripleSetup {
    service: Service,
    disk: Arc<CountingVfs>,
    seeded: usize,
    /// `(subject, triples under it)` for the reader's scans.
    reads: Vec<(String, usize)>,
}

fn open_triple_service(plan: &Plan, phases: &mut Phases) -> Result<TripleSetup, String> {
    let disk = disk(&plan.tracer);
    let store = phases.time("slim_bench.join_store", || {
        slim_bench::join_store(plan.size.scraps)
    });
    let seeded = store.len();
    phases
        .time("trim.save_to", || store.save_to(&*disk, Path::new(STORE)))
        .map_err(|e| format!("save_to: {e}"))?;
    drop(store);
    let config = ServeConfig {
        queue_capacity: 1_024,
        op_deadline_ms: DEADLINE_MS,
        breaker: roomy_breaker(),
        ..ServeConfig::default()
    };
    let vfs: Arc<dyn Vfs + Send + Sync> = disk.clone();
    let (service, _) = phases
        .time("slimserve.service.open", || {
            Service::open(vfs, Path::new(STORE), config, Arc::new(SystemClock::new()))
        })
        .map_err(|e| format!("Service::open: {e}"))?;
    let snapshot = service.snapshot();
    let bundles = (plan.size.scraps / 64).max(1);
    let reads = (0..READ_SUBJECTS.min(bundles))
        .map(|k| {
            let subject = format!("bundle:{k}");
            let n = snapshot.scan_subject(&subject).count();
            (subject, n)
        })
        .collect();
    Ok(TripleSetup {
        service,
        disk,
        seeded,
        reads,
    })
}

/// A round's writes: `n/2` fresh annotation triples on seeded scraps,
/// each removed again `LAG` inserts later.
fn triple_ops(plan: &Plan, round: u64) -> Vec<ServeOp> {
    let mut rng = StdRng::seed_from_u64(plan.seed ^ (round << 8) ^ 0x7e57);
    let m = plan.size.writes / 2;
    let triples: Vec<(String, String)> = (0..m)
        .map(|j| {
            let subject = format!("scrap:{}", rng.gen_range(0..plan.size.scraps));
            (subject, format!("slimbench round {round} note {j}"))
        })
        .collect();
    let mut ops = Vec::with_capacity(2 * m);
    for k in 0..m + LAG {
        if let Some((s, note)) = triples.get(k) {
            ops.push(ServeOp::insert(s, "annotation", note));
        }
        if let Some((s, note)) = k.checked_sub(LAG).and_then(|j| triples.get(j)) {
            ops.push(ServeOp::remove(s, "annotation", note));
        }
    }
    ops
}

struct TripleRound {
    /// `(span name, seconds, acked)` per write.
    writes: Vec<(&'static str, f64, bool)>,
    reads: u64,
    bad_reads: u64,
    wall: Duration,
    io: IoTotals,
    spans: Vec<Span>,
    /// `(inserts, removes)` acked.
    applied: (u64, u64),
}

fn triple_round(setup: &TripleSetup, plan: &Plan, round: u64, traced: bool) -> TripleRound {
    let ops = triple_ops(plan, round);
    let (writer, reader) = (setup.service.session(), setup.service.session());
    let stop = AtomicBool::new(false);
    let tracer = &plan.tracer;
    let before = setup.disk.totals();
    if traced {
        tracer.start();
    }
    let from = Instant::now();
    let (writes, applied, (reads, bad_reads)) = std::thread::scope(|s| {
        let scans = s.spawn(|| {
            let (mut reads, mut bad) = (0u64, 0u64);
            while !stop.load(Ordering::Relaxed) {
                let (subject, expected) = &setup.reads[reads as usize % setup.reads.len()];
                let n = tracer.span("trim.snapshot.read", (1 << 40) | reads, || {
                    reader.snapshot().scan_subject(subject).count()
                });
                bad += u64::from(n != *expected);
                reads += 1;
            }
            (reads, bad)
        });
        let mut writes = Vec::with_capacity(ops.len());
        let mut applied = (0u64, 0u64);
        for (i, op) in ops.into_iter().enumerate() {
            let insert = matches!(op, ServeOp::Insert { .. });
            let name = if insert {
                "slimserve.service.insert"
            } else {
                "slimserve.service.remove"
            };
            let start = Instant::now();
            let ok = tracer.span(name, i as u64, || writer.submit(op)).is_ok();
            writes.push((name, start.elapsed().as_secs_f64(), ok));
            if ok && insert {
                applied.0 += 1;
            } else if ok {
                applied.1 += 1;
            }
        }
        stop.store(true, Ordering::Relaxed);
        (writes, applied, scans.join().expect("reader thread"))
    });
    let wall = from.elapsed();
    let spans = if traced {
        tracer.stop(from)
    } else {
        Vec::new()
    };
    TripleRound {
        writes,
        reads,
        bad_reads,
        wall,
        io: setup.disk.totals().minus(&before),
        spans,
        applied,
    }
}

fn ledger_balances(s: &ServeStats) -> bool {
    s.submitted == s.acked + s.timed_out + s.panicked + s.io_refusals + s.closed_refusals
}

/// A round on a service opened for it alone: set-up and restart samples
/// then spread over the whole run instead of its first seconds, which
/// on a shared host decides whether a 0.15 s open reads fast or slow.
struct FreshRound {
    round: TripleRound,
    setup_s: f64,
    /// The service's ledger when the round started and after shutdown.
    before: ServeStats,
    after: ServeStats,
}

fn fresh_round(
    plan: &Plan,
    phases: &mut Phases,
    round: u64,
    traced: bool,
    problems: &mut Vec<String>,
) -> Result<FreshRound, String> {
    let start = Instant::now();
    let setup = open_triple_service(plan, phases)?;
    let setup_s = start.elapsed().as_secs_f64();
    let before = setup.service.stats();
    let r = triple_round(&setup, plan, round, traced);
    let len = setup.service.snapshot().len() as u64;
    let expected = setup.seeded as u64 + r.applied.0 - r.applied.1;
    if len != expected {
        problems.push(format!("snapshot holds {len} triples, expected {expected}"));
    }
    if r.bad_reads > 0 {
        problems.push(format!(
            "{} scans saw the wrong number of triples",
            r.bad_reads
        ));
    }
    let after = setup.service.shutdown();
    if !ledger_balances(&after) {
        problems.push(format!("service ledger does not balance: {after:?}"));
    }
    Ok(FreshRound {
        round: r,
        setup_s,
        before,
        after,
    })
}

pub fn run_triple_service(plan: &Plan) -> Result<Run, String> {
    let mut phases = Phases::default();
    let mut problems = Vec::new();
    let mut setups = Vec::new();
    let mut rounds = Vec::new();
    let since = Instant::now();
    while plan.budget.more(rounds.len(), 3, since) {
        let f = fresh_round(plan, &mut phases, rounds.len() as u64, false, &mut problems)?;
        setups.push(f.setup_s);
        rounds.push(f.round);
    }
    let rss = workload::peak_rss_mb()?;
    let mut layers = Layers::default();
    let mut traced = None;
    if plan.traced {
        let f = fresh_round(plan, &mut phases, rounds.len() as u64, true, &mut problems)?;
        let (r, before, stats) = (f.round, f.before, f.after);
        layers.add_spans(&r.spans);
        layers.add_io(&r.io, r.writes.len() as u64);
        layers.add_setup(
            &phases.totals(),
            Duration::from_secs_f64(setups.iter().sum::<f64>() + f.setup_s),
        );
        let commits = stats.commits - before.commits;
        layers.set("slimserve.service.commits", commits as f64);
        layers.set(
            "slimserve.service.ops_per_commit",
            (stats.acked - before.acked) as f64 / commits.max(1) as f64,
        );
        layers.set(
            "trim.snapshot.published",
            (stats.snapshots_published - before.snapshots_published) as f64,
        );
        layers.set(
            "trim.snapshot.rebuilds",
            (stats.snapshot_rebuilds - before.snapshot_rebuilds) as f64,
        );
        let untraced: Vec<f64> = rounds
            .iter()
            .map(|r| r.writes.iter().map(|w| w.1).sum::<f64>())
            .collect();
        layers.set(
            "trace.overhead_pct",
            workload::overhead_pct(r.writes.iter().map(|w| w.1).sum(), &untraced),
        );
        traced = Some(r);
    }

    let all = rounds.iter().chain(traced.iter());
    let attempted: u64 = all.clone().map(|r| r.writes.len() as u64 + r.reads).sum();
    let failed: u64 = all
        .clone()
        .map(|r| r.writes.iter().filter(|w| !w.2).count() as u64)
        .sum();
    if failed > 0 {
        problems.push(format!("{failed} writes refused"));
    }
    let tail = 0.99;
    let latencies: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.writes.iter().map(|w| w.1))
        .collect();
    let wall: f64 = rounds.iter().map(|r| r.wall.as_secs_f64()).sum();
    let throughputs: Vec<f64> = rounds
        .iter()
        .map(|r| r.writes.iter().filter(|w| w.2).count() as f64 / r.wall.as_secs_f64())
        .collect();
    let reads: u64 = rounds.iter().map(|r| r.reads).sum();
    let notes = vec![
        format!(
            "{} rounds of {} writes beside one scanning reader, each on a freshly opened service",
            rounds.len(),
            plan.size.writes
        ),
        workload::latency_note(&latencies, tail),
        format!("ops/s per round: {throughputs:.0?}"),
        workload::timing_note(&setups, &phases.seconds("slimserve.service.open")),
        format!(
            "reader: {reads} scans, {:.0} per second",
            reads as f64 / wall
        ),
    ];
    Ok(Run {
        attempted,
        failed,
        problems,
        e2e: workload::end_to_end(
            &setups,
            median(&throughputs),
            &latencies,
            tail,
            &phases.seconds("slimserve.service.open"),
            rss,
        ),
        layers,
        io: all.fold(IoTotals::default(), |io, r| io.plus(&r.io)),
        spans: traced.map(|r| r.spans).unwrap_or_default(),
        notes,
    })
}
