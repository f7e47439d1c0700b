//! `BENCH_serve.json` reporter: the concurrent session service under
//! load.
//!
//! Three measurements, all on `MemVfs` (algorithmic cost, not fsync):
//!
//! * **reader throughput under a hot writer** at 1, 4, and 16 reader
//!   sessions — each reader clones the published snapshot and scans it
//!   while two feeder sessions keep the writer committing continuously;
//! * **shed rate at saturation** — submitters enqueue flat out against
//!   a small queue; backpressure must engage (typed `Overloaded`
//!   refusals, not silence) while the writer keeps acking;
//! * **commit latency percentiles** — p50/p99 of a blocking submit
//!   (enqueue → group commit → ack) from a single session;
//! * **pad-op mix throughput** — two sessions blocking-submit a fixed
//!   rotation of application-level pad ops (bundles, marks,
//!   annotations, resolutions, links, inspections) through a
//!   `PadService`, reported both absolutely and as a ratio against
//!   plain triple-insert submits measured in the same run;
//! * **Quick-corpus pad throughput** — the same two blocking sessions
//!   over a `PadService` holding the hospital-scale Quick corpus (1,200
//!   bundles, 4,000 scraps, 100,500 marks), submitting slimbench's
//!   `pad_service` rotation (resolves, extracts, annotations, marks,
//!   links, bundles, inspections), so costs that grow with the pad show.
//!   Reported absolutely and as a ratio against the same plain inserts.
//!
//! * `cargo run -p slim-bench --bin bench-serve --release` — full run,
//!   writes `BENCH_serve.json` in the current directory.
//! * `-- --quick` — shorter reader and saturation windows and fewer
//!   latency rounds, for CI smoke runs; the pad rows measure the same
//!   thing in both modes.
//! * `-- --check BENCH_serve.json` — additionally gate the run against the
//!   committed baseline: see `checks` below and DESIGN.md §10 "Bench
//!   gates".
//! * `-- --out PATH` — write the report somewhere else.
//!
//! The gates are ratios measured within one run, so they hold across
//! machines of different speeds.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slim_bench::gate::{self, json_rows, Args, Check};
use slim_bench::percentile;
use slimgen::{corpus, Profile};
use slimserve::{
    ward_doc, ward_factory, PadConfig, PadOp, PadParts, PadService, ServeConfig, ServeError,
    ServeOp, Service, WARD_PARAGRAPHS,
};
use superimposed::marks::resilience::{BreakerConfig, MockClock, SystemClock};
use superimposed::marks::{FaultProfile, FlakyControl, ResilientResolver, RetryPolicy};
use superimposed::slimio::MemVfs;

const SNAP: &str = "bench/serve-store.xml";
const PAD: &str = "bench/serve-pad.xml";
const QUICK_PAD: &str = "bench/quick-pad.xml";
/// The Quick corpus's seed.
const QUICK_SEED: u64 = 0xC0FFEE;
/// Ops each of the two Quick-corpus pad sessions submits, in every mode.
const PAD_QUICK_OPS: u64 = 100;
/// The window of the pad-op mix and of the plain inserts behind both pad
/// ratios, in every mode: the plain-insert rate depends on the window,
/// so a quick run's ratios gate against a full-run baseline like for
/// like only if both runs use the same one.
const PAD_WINDOW: Duration = Duration::from_millis(400);
/// Reader-session counts measured under the hot writer.
const READER_SESSIONS: [usize; 3] = [1, 4, 16];
/// Sessions that keep the writer committing while readers are measured.
const FEEDERS: usize = 2;
/// Aggregate reader throughput at 16 sessions must stay above this
/// fraction of the single-reader aggregate — the "no reader
/// starvation" gate. Aggregate (not per-reader) so the floor holds on
/// single-core machines where 16 threads necessarily time-slice; a
/// collapse below the single-reader rate means readers are being
/// starved by the writer or convoying on shared state, not merely
/// sharing cores.
const SCALING_FLOOR: f64 = 0.5;
/// `--check` fails if the scaling ratio drops below baseline/this.
const REGRESSION_FACTOR: f64 = 3.0;
/// Triples seeded into the store before measuring readers.
const SEED_TRIPLES: usize = 2_000;

struct ReaderResult {
    sessions: usize,
    reads_total: u64,
    reads_per_sec_total: f64,
}

#[derive(Default)]
struct PadMixResult {
    acked: u64,
    engine_refusals: u64,
    ops_per_sec: f64,
    plain_insert_ops_per_sec: f64,
    /// pad-op mix acks/s ÷ plain triple-insert acks/s, same run.
    mix_ratio: f64,
}

#[derive(Default)]
struct PadQuickResult {
    acked: u64,
    engine_refusals: u64,
    ops_per_sec: f64,
    /// Quick-corpus pad acks/s ÷ plain triple-insert acks/s, same run.
    quick_ratio: f64,
}

#[derive(Default)]
struct Report {
    readers: Vec<ReaderResult>,
    /// aggregate reads/s at 16 sessions / aggregate at 1 session.
    reader_scaling_16: f64,
    saturation_attempts: u64,
    saturation_acked: u64,
    saturation_shed: u64,
    commit_p50_ns: f64,
    commit_p99_ns: f64,
    pad_mix: PadMixResult,
    pad_quick: PadQuickResult,
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 1024,
        max_batch: 64,
        // SystemClock milliseconds; generous so the bench never trips it.
        op_deadline_ms: 60_000,
        ..ServeConfig::default()
    }
}

fn open_service(config: ServeConfig) -> Service {
    let vfs = Arc::new(MemVfs::new());
    let clock = Arc::new(SystemClock::new());
    let (service, _) = Service::open(vfs, Path::new(SNAP), config, clock)
        .expect("fresh bench service opens");
    service
}

/// Seed the store through the front door so snapshots have substance.
fn seed(service: &Service) {
    let session = service.session();
    for i in 0..SEED_TRIPLES {
        session
            .submit(ServeOp::insert(
                &format!("hot:doc{}", i % 64),
                if i % 3 == 0 { "annotation" } else { "containsScrap" },
                &format!("seed value {i}"),
            ))
            .expect("seeding submit");
    }
}

/// Run `worker(t, &stop)` on threads `t` in `0..threads` until `window`
/// elapses, then raise `stop` and join them: the sum of what they return.
fn run_for(
    window: Duration,
    threads: usize,
    worker: impl Fn(usize, &AtomicBool) -> u64 + Sync,
) -> u64 {
    let (worker, stop) = (&worker, &AtomicBool::new(false));
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|t| s.spawn(move || worker(t, stop))).collect();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().expect("bench thread")).sum()
    })
}

/// Reader throughput with `n` reader sessions while [`FEEDERS`] feeder
/// sessions keep the writer committing for the whole window.
fn measure_readers(service: &Service, n: usize, window: Duration) -> ReaderResult {
    let reads_total = run_for(window, FEEDERS + n, |t, stop| {
        let session = service.session();
        let mut i = 0u64;
        if t < FEEDERS {
            while !stop.load(Ordering::Relaxed) {
                i += 1;
                let _ = session.submit(ServeOp::insert(
                    &format!("feed{t}:{i}"),
                    "seq",
                    &i.to_string(),
                ));
            }
            return 0;
        }
        let subject = format!("hot:doc{}", (t - FEEDERS) % 64);
        while !stop.load(Ordering::Relaxed) {
            // One "read op": clone the published snapshot, scan one hot
            // subject.
            let hits = session.snapshot().scan_subject(&subject).count();
            assert!(hits > 0, "seeded subject must be visible");
            i += 1;
        }
        i
    });
    let secs = window.as_secs_f64();
    ReaderResult {
        sessions: n,
        reads_total,
        reads_per_sec_total: reads_total as f64 / secs,
    }
}

/// Hammer a small queue with non-blocking enqueues from four threads:
/// count accepted vs shed. Tickets are dropped — the writer still acks
/// into them, the bench only cares about admission outcomes.
fn measure_saturation(window: Duration) -> (u64, u64, u64) {
    let service = open_service(ServeConfig { queue_capacity: 64, ..serve_config() });
    let shed = AtomicU64::new(0);
    let attempts = run_for(window, 4, |s, stop| {
        let session = service.session();
        let mut i = 0u64;
        while !stop.load(Ordering::Relaxed) {
            i += 1;
            match session.enqueue(ServeOp::insert(&format!("sat{s}:{i}"), "seq", &i.to_string())) {
                Ok(_ticket) => {}
                Err(ServeError::Overloaded { .. }) => {
                    shed.fetch_add(1, Ordering::Relaxed);
                }
                Err(other) => panic!("unexpected refusal at saturation: {other}"),
            }
        }
        i
    });
    let stats = service.shutdown();
    (attempts, stats.acked, shed.load(Ordering::Relaxed))
}

/// Blocking-submit latency distribution from one session.
fn measure_commit_latency(service: &Service, rounds: usize) -> (f64, f64) {
    let session = service.session();
    let mut lat: Vec<f64> = Vec::with_capacity(rounds);
    for i in 0..rounds {
        let start = Instant::now();
        session
            .submit(ServeOp::insert(&format!("lat:{i}"), "seq", &i.to_string()))
            .expect("latency submit");
        lat.push(start.elapsed().as_nanos() as f64);
    }
    lat.sort_by(|a, b| a.total_cmp(b));
    (percentile(&lat, 0.50), percentile(&lat, 0.99))
}

/// The `i`-th op of the pad-mix rotation for submitter `t`: one bundle,
/// three marks (the paper's core gesture dominates), an annotation, a
/// resolution, a link, and an inspection per cycle of eight.
fn pad_mix_op(t: usize, i: u64) -> PadOp {
    let pos = ((i % 200) as i64, ((i >> 3) % 160) as i64);
    match i % 8 {
        0 => PadOp::CreateBundle {
            name: format!("mix{t} bundle {i}"),
            pos,
            width: 40,
            height: 30,
            parent: None,
        },
        1..=3 => PadOp::CreateMark {
            doc: ward_doc(i),
            paragraph: i % WARD_PARAGRAPHS as u64,
            start: 0,
            len: 4 + i % 8,
            label: format!("mix{t} mark {i}"),
            pos,
            bundle: None,
        },
        4 => PadOp::Annotate { scrap: i, text: format!("mix{t} note {i}") },
        5 => PadOp::Resolve { scrap: i },
        6 => PadOp::Link { from: i, to: i + 1 },
        _ => PadOp::Inspect,
    }
}

/// Blocking-submit throughput of plain triple inserts, the in-run
/// denominator for the pad-mix ratio.
fn measure_plain_inserts(window: Duration) -> f64 {
    let service = open_service(serve_config());
    let acked = run_for(window, 2, |t, stop| {
        let session = service.session();
        let mut i = 0u64;
        while !stop.load(Ordering::Relaxed) {
            i += 1;
            session
                .submit(ServeOp::insert(&format!("mix{t}:{i}"), "seq", &i.to_string()))
                .expect("plain insert submit");
        }
        i
    });
    acked as f64 / window.as_secs_f64()
}

/// Pad-op mix throughput: two sessions blocking-submit the fixed
/// rotation against a fresh `PadService` over healthy resolver parts.
/// Engine refusals (e.g. a link landing on one scrap) are typed and
/// counted, never fatal; the ledger must balance at shutdown. Both the
/// mix and its plain-insert denominator run for [`PAD_WINDOW`].
fn measure_pad_mix() -> PadMixResult {
    let window = PAD_WINDOW;
    let vfs: Arc<MemVfs> = Arc::new(MemVfs::new());
    // Frozen MockClock: ward_factory needs one, and a never-advancing
    // clock keeps the generous deadline from ever tripping. Wall time
    // for the rate comes from the measurement window itself.
    let clock = Arc::new(MockClock::new());
    let factory = ward_factory(
        (*clock).clone(),
        FaultProfile::healthy(),
        FlakyControl::new(0),
        RetryPolicy::default(),
        BreakerConfig::default(),
        3,
    );
    let config = PadConfig {
        queue_capacity: 1024,
        max_batch: 64,
        op_deadline_ms: 60_000,
        // Roomy: early-cycle refusals (annotate before any scrap
        // exists) must not quarantine a bench session.
        breaker: BreakerConfig {
            failure_threshold: 64,
            cooldown_ms: 1_000,
            probe_budget: 3,
            probe_successes: 1,
        },
        ..PadConfig::default()
    };
    let service = PadService::open(vfs, Path::new(PAD), config, clock, factory)
        .expect("fresh bench pad service opens");

    run_for(window, 2, |t, stop| {
        let session = service.session();
        let mut i = 0u64;
        while !stop.load(Ordering::Relaxed) {
            match session.submit(pad_mix_op(t, i)) {
                Ok(_) | Err(ServeError::Engine { .. }) => {}
                Err(other) => panic!("unexpected pad refusal in mix: {other}"),
            }
            i += 1;
        }
        i
    });
    let stats = service.shutdown();
    assert_eq!(stats.unaccounted(), 0, "pad mix dropped ops silently: {stats:?}");

    let ops_per_sec = stats.acked as f64 / window.as_secs_f64();
    let plain_insert_ops_per_sec = measure_plain_inserts(window);
    PadMixResult {
        acked: stats.acked,
        engine_refusals: stats.engine_refusals,
        ops_per_sec,
        plain_insert_ops_per_sec,
        mix_ratio: ops_per_sec / plain_insert_ops_per_sec.max(1.0),
    }
}

/// The `i`-th op of a session in slimbench's `pad_service` rotation:
/// per ten ops three Resolve, two Extract and one each of Annotate,
/// CreateMark, Link, CreateBundle and Inspect, every selector drawn
/// below 2³² (the machine reduces it modulo the live population).
fn pad_quick_op(i: u64, rng: &mut StdRng, docs: usize) -> PadOp {
    let sel = rng.gen_range(0..u64::from(u32::MAX));
    let pos = ((sel % 380) as i64, (sel % 280) as i64);
    match i % 10 {
        0 | 3 | 6 => PadOp::Resolve { scrap: sel },
        1 | 7 => PadOp::Extract { scrap: sel },
        2 => PadOp::Annotate { scrap: sel, text: "checked on rounds".into() },
        // A short span at the start of a progress-note paragraph: every
        // generated note has 16 paragraphs of 50+ characters.
        4 => PadOp::CreateMark {
            doc: format!("note-{:04}.doc", sel % docs as u64),
            paragraph: sel % 16,
            start: sel % 8,
            len: 4 + sel % 8,
            label: format!("bench mark {i}"),
            pos,
            bundle: Some(sel),
        },
        5 => PadOp::Link { from: sel, to: sel + 1 },
        8 => PadOp::CreateBundle {
            name: format!("bench bundle {i}"),
            pos,
            width: 320,
            height: 240,
            parent: Some(sel),
        },
        _ => PadOp::Inspect,
    }
}

/// Quick-corpus pad throughput: the corpus pad is logged to a `MemVfs`
/// and opened by a `PadService` whose writer regenerates the corpus for
/// its mark modules; then two sessions blocking-submit
/// [`PAD_QUICK_OPS`] ops each. Set-up is not timed. The ratio's plain
/// inserts are measured over [`PAD_WINDOW`]: the row measures the
/// same thing in quick and full runs, so a quick CI run gates against a
/// full-run baseline like for like.
fn measure_pad_quick() -> PadQuickResult {
    let ops = PAD_QUICK_OPS;
    let vfs = Arc::new(MemVfs::new());
    let mut pad = corpus::generate(Profile::Quick, QUICK_SEED);
    pad.system.pad.enable_logging(&*vfs, Path::new(QUICK_PAD)).expect("log the corpus pad");
    drop(pad);
    let factory = Box::new(|| {
        let corpus = corpus::generate(Profile::Quick, QUICK_SEED);
        Ok(PadParts {
            manager: corpus.system.fresh_manager()?,
            resolver: ResilientResolver::default(),
            search: Box::new(|_| Vec::new()),
        })
    });
    let config =
        PadConfig { queue_capacity: 1024, op_deadline_ms: 600_000, ..PadConfig::default() };
    let clock = Arc::new(SystemClock::new());
    let service = PadService::open(vfs, Path::new(QUICK_PAD), config, clock, factory)
        .expect("Quick-corpus pad service opens");

    let docs = Profile::Quick.docs_per_kind();
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let session = service.session();
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(QUICK_SEED ^ t);
                for i in 0..ops {
                    match session.submit(pad_quick_op(i, &mut rng, docs)) {
                        Ok(_) | Err(ServeError::Engine { .. }) => {}
                        Err(other) => panic!("unexpected Quick-corpus pad refusal: {other}"),
                    }
                }
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let stats = service.shutdown();
    assert_eq!(stats.unaccounted(), 0, "Quick-corpus pad dropped ops silently: {stats:?}");
    let ops_per_sec = stats.acked as f64 / secs;
    let plain_insert_ops_per_sec = measure_plain_inserts(PAD_WINDOW);
    PadQuickResult {
        acked: stats.acked,
        engine_refusals: stats.engine_refusals,
        ops_per_sec,
        quick_ratio: ops_per_sec / plain_insert_ops_per_sec.max(1.0),
    }
}

fn measure(quick: bool) -> Report {
    let window = if quick { Duration::from_millis(100) } else { Duration::from_millis(400) };

    let service = open_service(serve_config());
    seed(&service);
    let readers: Vec<ReaderResult> =
        READER_SESSIONS.iter().map(|&n| measure_readers(&service, n, window)).collect();
    let total_1 = readers[0].reads_per_sec_total;
    let total_16 = readers[readers.len() - 1].reads_per_sec_total;
    let reader_scaling_16 = total_16 / total_1.max(1.0);

    let latency_rounds = if quick { 500 } else { 2_000 };
    let (commit_p50_ns, commit_p99_ns) = measure_commit_latency(&service, latency_rounds);
    drop(service);

    let (saturation_attempts, saturation_acked, saturation_shed) = measure_saturation(window);

    let pad_mix = measure_pad_mix();
    let pad_quick = measure_pad_quick();

    Report {
        readers,
        reader_scaling_16,
        saturation_attempts,
        saturation_acked,
        saturation_shed,
        commit_p50_ns,
        commit_p99_ns,
        pad_mix,
        pad_quick,
    }
}

fn render_json(r: &Report, quick: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", if quick { "quick" } else { "full" }));
    let readers = r.readers.iter().map(|rr| {
        format!(
            "{{\"sessions\": {}, \"reads_total\": {}, \"reads_per_sec_total\": {:.1}, \
             \"reads_per_sec_per_reader\": {:.1}}}",
            rr.sessions,
            rr.reads_total,
            rr.reads_per_sec_total,
            rr.reads_per_sec_total / rr.sessions as f64,
        )
    });
    out.push_str(&json_rows("readers_under_hot_writer", readers));
    out.push_str(",\n");
    out.push_str(&format!("  \"reader_scaling_16\": {:.3},\n", r.reader_scaling_16));
    out.push_str(&format!(
        "  \"saturation\": {{\"attempts\": {}, \"acked\": {}, \"shed\": {}, \
         \"shed_rate\": {:.3}}},\n",
        r.saturation_attempts,
        r.saturation_acked,
        r.saturation_shed,
        r.saturation_shed as f64 / r.saturation_attempts.max(1) as f64,
    ));
    out.push_str(&format!(
        "  \"commit_latency_ns\": {{\"p50\": {:.1}, \"p99\": {:.1}}},\n",
        r.commit_p50_ns, r.commit_p99_ns
    ));
    out.push_str(&format!(
        "  \"pad_mix\": {{\"acked\": {}, \"engine_refusals\": {}, \"ops_per_sec\": {:.1}, \
         \"plain_insert_ops_per_sec\": {:.1}, \"mix_ratio\": {:.4}}},\n",
        r.pad_mix.acked,
        r.pad_mix.engine_refusals,
        r.pad_mix.ops_per_sec,
        r.pad_mix.plain_insert_ops_per_sec,
        r.pad_mix.mix_ratio
    ));
    out.push_str(&format!(
        "  \"pad_quick\": {{\"acked\": {}, \"engine_refusals\": {}, \"ops_per_sec\": {:.1}, \
         \"quick_ratio\": {:.5}}}\n",
        r.pad_quick.acked,
        r.pad_quick.engine_refusals,
        r.pad_quick.ops_per_sec,
        r.pad_quick.quick_ratio
    ));
    out.push_str("}\n");
    out
}

/// The serve gate: no reader starvation at 16 sessions, the scaling
/// and pad-mix ratios hold their committed values, and saturation both
/// sheds and acks.
fn checks(r: &Report) -> Vec<Check> {
    vec![
        Check::new("reader scaling at 16 sessions", r.reader_scaling_16)
            .floor(SCALING_FLOOR)
            .against("", "reader_scaling_16", REGRESSION_FACTOR),
        Check::positive("saturation shed (backpressure engaging)", r.saturation_shed),
        Check::positive("saturation acked (writer not starved)", r.saturation_acked),
        Check::positive("pad mix acked (pad writer not starved)", r.pad_mix.acked),
        Check::new("pad-op mix ratio", r.pad_mix.mix_ratio).against(
            "",
            "mix_ratio",
            REGRESSION_FACTOR,
        ),
        Check::positive("Quick-corpus pad acked", r.pad_quick.acked),
        Check::new("Quick-corpus pad ratio", r.pad_quick.quick_ratio).against(
            "",
            "quick_ratio",
            REGRESSION_FACTOR,
        ),
    ]
}

fn main() {
    let args = Args::parse("bench-serve", "BENCH_serve.json");
    let report = measure(args.quick);
    gate::finish(&args, &render_json(&report, args.quick), &checks(&report));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_baseline_carries_every_gated_key() {
        let report = Report {
            reader_scaling_16: f64::INFINITY,
            saturation_acked: 1,
            saturation_shed: 1,
            pad_mix: PadMixResult { acked: 1, mix_ratio: f64::INFINITY, ..Default::default() },
            pad_quick: PadQuickResult {
                acked: 1,
                quick_ratio: f64::INFINITY,
                ..Default::default()
            },
            ..Default::default()
        };
        let failed = gate::failures(&checks(&report), include_str!("../../../BENCH_serve.json"));
        assert!(failed.is_empty(), "{failed:?}");
    }
}
